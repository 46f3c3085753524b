//! Consistency gate between the call graph and the hot-path policy
//! table: the graph-derived hot set must cover every function the
//! hand-maintained `HOT_PATH_FNS` table used to name before it was
//! shrunk to true roots.
//!
//! Before the call graph existed, `HOT_PATH_FNS` listed all 29
//! record/step-path functions and grew an entry whenever the scheduler
//! gained a helper — the table *was* the reachability analysis, by
//! hand. Now the table names only the entry points and `transitive-
//! alloc` walks edges for the rest. This test pins the handoff: every
//! name from the legacy table must still be found by the graph walk, so
//! shrinking the table cannot silently drop coverage.

use std::collections::BTreeSet;

use aitax_analyzer::lint::{HOT_PATH_CRATES, HOT_PATH_FNS};
use aitax_analyzer::model::WorkspaceModel;
use aitax_analyzer::workspace::load_files;
use std::path::Path;

/// The full pre-graph table, as last hand-maintained. Kept here — and
/// only here — as the coverage bar the graph walk must clear. An entry
/// whose function was later replaced names its successor: the
/// calendar's `bucket_has_live` and `drain_dead` became `live_upto_two`
/// and `drain_to_lone` when lone entries stopped cascading.
const LEGACY_HOT_PATH_FNS: [&str; 29] = [
    "accel_enqueue",
    "advance_clock",
    "cancel",
    "cancel_timer",
    "dispatch_next",
    "drain_to_lone",
    "first_due",
    "gov_observe",
    "gov_retarget",
    "live_upto_two",
    "maybe_start_accel",
    "migrate",
    "next",
    "on_accel_done",
    "on_slice_end",
    "peek_time",
    "place",
    "preempt_running",
    "push_bucket",
    "record",
    "runq_insert",
    "schedule_after",
    "schedule_at",
    "steal_if_idle",
    "step",
    "take_head",
    "task_priority",
    "touch_thermal",
    "try_wander",
];

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn graph_hot_set_covers_every_legacy_table_entry() {
    let files = load_files(repo_root()).expect("workspace scan");
    let m = WorkspaceModel::build(&files);
    let hot = m.hot_set();
    let covered: BTreeSet<&str> = hot
        .iter()
        .map(|&id| m.graph.nodes[id].name.as_str())
        .collect();
    let missing: Vec<&str> = LEGACY_HOT_PATH_FNS
        .iter()
        .filter(|n| !covered.contains(**n))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "graph-derived hot set misses legacy HOT_PATH_FNS entries: {missing:?}\n\
         either the entry is a true root (add it to HOT_PATH_FNS) or call \
         resolution regressed"
    );
}

#[test]
fn roots_table_holds_only_true_roots() {
    // Every name still in HOT_PATH_FNS must be either a genuine entry
    // point (nothing in its crate calls it on the hot path) or
    // unreachable from the other roots — otherwise the graph already
    // covers it and the table entry is dead weight.
    let files = load_files(repo_root()).expect("workspace scan");
    let m = WorkspaceModel::build(&files);
    let all_roots = m.hot_roots();
    let mut redundant: Vec<String> = Vec::new();
    for name in HOT_PATH_FNS {
        // Reachable set without this name's nodes as roots.
        let reduced: BTreeSet<usize> = all_roots
            .iter()
            .copied()
            .filter(|&id| m.graph.nodes[id].name != name)
            .collect();
        let mut covered = BTreeSet::new();
        for krate in HOT_PATH_CRATES {
            covered.extend(m.graph.reachable(&reduced, Some(krate)));
        }
        let still_covered = all_roots
            .iter()
            .filter(|&&id| m.graph.nodes[id].name == name)
            .all(|id| covered.contains(id));
        if still_covered {
            redundant.push(name.to_string());
        }
    }
    assert!(
        redundant.is_empty(),
        "HOT_PATH_FNS entries reachable from the remaining roots — the graph \
         already covers them, delete from the table: {redundant:?}"
    );
}
