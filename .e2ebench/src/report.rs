//! Turning rounds and spans into named metrics, checking results, and
//! printing them.

use std::collections::BTreeMap;

use crate::stats::{interquartile_mean, median, tail, Value};
use crate::trace::{self_costs, Span};
use crate::workload::{Replay, Round};

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// The value and the samples behind it.
    pub value: Value,
}

fn metric(name: &'static str, unit: &'static str, value: Value) -> Metric {
    Metric { name, unit, value }
}

/// Each unit's interquartile mean host time over the rounds that ran
/// it. The host is sometimes fast and mostly slow, or the other way
/// round; a minimum over a unit's few repeats then depends on whether a
/// short fast spell happened to cover it, while a central value reads the
/// host's usual state, the same state the reference kernel's median
/// reads. Of the central values, the interquartile mean averages the most
/// samples without letting one spell decide (with four rounds, the mean
/// of the middle two instead of either of them).
pub fn central_unit_ms(rounds: &[Round]) -> Vec<f64> {
    let units = rounds.iter().map(|r| r.unit_ms.len()).min().unwrap_or(0);
    (0..units)
        .map(|k| {
            let times: Vec<f64> = rounds.iter().map(|r| r.unit_ms[k]).collect();
            interquartile_mean(&times).unwrap_or(f64::NAN)
        })
        .collect()
}

/// Simulated inferences of one round per host second of a typical round:
/// the sum of the units' central times ([`central_unit_ms`]) plus the
/// interquartile mean of the rounds' host time outside units
/// (aggregation and rendering). Host speed changes every few seconds, so
/// a round's own time mostly says which spells it met; built from the
/// units, the round time rests on every unit's repeats rather than on
/// one or two whole rounds.
pub fn throughput(rounds: &[Round]) -> Value {
    let units_ms: f64 = central_unit_ms(rounds).iter().sum();
    let outside_ms: Vec<f64> = rounds
        .iter()
        .map(|r| (r.host_s * 1e3 - r.unit_ms.iter().sum::<f64>()).max(0.0))
        .collect();
    let inferences = rounds.first().map_or(0, |r| r.inferences);
    Value {
        value: interquartile_mean(&outside_ms)
            .map(|ms| units_ms + ms)
            .filter(|&ms| ms > 0.0)
            .map(|ms| inferences as f64 * 1e3 / ms),
        count: rounds.len(),
    }
}

/// The end-to-end metrics of an untraced run. Host times are multiplied
/// by `scale` (see [`crate::reference`]); counts and memory are not.
pub fn e2e_metrics(
    setup_s: &[f64],
    rounds: &[Round],
    peak_rss_mb: Option<f64>,
    scale: f64,
) -> Vec<Metric> {
    let setup_s: Vec<f64> = setup_s.iter().map(|s| s * scale).collect();
    let unit_ms: Vec<f64> = central_unit_ms(rounds)
        .iter()
        .map(|ms| ms * scale)
        .collect();
    let ips = throughput(rounds);
    let first = rounds.first();
    vec![
        metric(
            "setup_s",
            "s",
            Value {
                value: median(&setup_s),
                count: setup_s.len(),
            },
        ),
        metric(
            "sim_inf_per_s",
            "1/s",
            Value {
                value: ips.value.map(|v| v / scale),
                count: ips.count,
            },
        ),
        metric(
            "unit_ms_p50",
            "ms",
            Value {
                value: median(&unit_ms),
                count: unit_ms.len(),
            },
        ),
        metric(
            "unit_ms_p90",
            "ms",
            Value {
                value: tail(&unit_ms, 90.0),
                count: unit_ms.len(),
            },
        ),
        // The first round only: later rounds of the same batch repeat
        // it, and a fixed round keeps the count exactly repeatable.
        metric(
            "allocs_per_inf",
            "count",
            Value::ratio(
                first.map_or(0.0, |r| r.allocs as f64),
                first.map_or(0, |r| r.inferences),
            ),
        ),
        metric(
            "peak_rss_mb",
            "MB",
            Value {
                value: peak_rss_mb,
                count: usize::from(peak_rss_mb.is_some()),
            },
        ),
    ]
}

/// Self time, self allocations and call count of every span name.
#[derive(Debug, Clone, Copy, Default)]
struct Layer {
    calls: usize,
    self_ns: u64,
    self_allocs: u64,
}

fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, (ns, allocs)) in spans.iter().zip(self_costs(spans)) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += ns;
        l.self_allocs += allocs;
    }
    out
}

/// The per-layer metrics of a traced run: self times of the spans
/// around each crate's public calls, the replay's modelled kernel
/// counters, the mix runs' modelled serve counters, and the tracing
/// overhead.
pub fn layer_metrics(
    spans: &[Span],
    traced: &[Round],
    replay: &Replay,
    overhead_pct: Value,
) -> Vec<Metric> {
    let layers = by_name(spans);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let total_ms = |name: &str| {
        let l = get(name);
        Value {
            value: (l.calls > 0).then(|| l.self_ns as f64 / 1e6),
            count: l.calls,
        }
    };
    let mean_ms = |name: &str| Value::mean(get(name).self_ns as f64 / 1e6, get(name).calls);
    let per_inf = |x: u64| Value::ratio(x as f64, replay.inferences);
    let guards = traced.iter().fold((0, 0, 0, 0), |acc, r| {
        let g = r.guards;
        (
            acc.0 + g.offered,
            acc.1 + g.shed,
            acc.2 + g.membw_queued,
            acc.3 + g.bursts,
        )
    });
    let per_offer = |x: u64| Value::ratio(x as f64, guards.0);
    let served: u64 = if guards.0 > 0 {
        traced.iter().map(|r| r.inferences).sum()
    } else {
        0
    };
    let compiles = get("framework.compile").calls;
    let core = get("core.run");
    let serve_allocs = get("serve.solo").self_allocs + get("serve.mix").self_allocs;
    vec![
        metric(
            "models.graph_build_ms",
            "ms",
            total_ms("models.graph_build"),
        ),
        metric("framework.compile_ms", "ms", total_ms("framework.compile")),
        metric(
            "framework.compile_keys",
            "count",
            Value {
                value: Some(compiles as f64),
                count: compiles,
            },
        ),
        metric(
            "core.run_us_per_inf",
            "us",
            Value::ratio(core.self_ns as f64 / 1e3, replay.inferences),
        ),
        metric(
            "core.allocs_per_inf",
            "count",
            Value::ratio(core.self_allocs as f64, replay.inferences),
        ),
        metric("kernel.tasks_per_inf", "count", per_inf(replay.tasks)),
        metric(
            "kernel.ctx_switches_per_inf",
            "count",
            per_inf(replay.ctx_switches),
        ),
        metric(
            "kernel.migrations_per_inf",
            "count",
            per_inf(replay.migrations),
        ),
        metric(
            "kernel.rpc_calls_per_inf",
            "count",
            per_inf(replay.rpc_calls),
        ),
        metric("kernel.dsp_jobs_per_inf", "count", per_inf(replay.dsp_jobs)),
        metric("lab.job_ms", "ms", mean_ms("lab.job")),
        metric("lab.agg_ms", "ms", mean_ms("lab.agg")),
        metric("lab.render_ms", "ms", mean_ms("lab.render")),
        metric("fleet.device_ms", "ms", mean_ms("fleet.device")),
        metric(
            "fleet.population_us",
            "us",
            Value::mean(
                get("fleet.population").self_ns as f64 / 1e3,
                get("fleet.population").calls,
            ),
        ),
        metric("fleet.agg_ms", "ms", mean_ms("fleet.agg")),
        metric("fleet.render_ms", "ms", mean_ms("fleet.render")),
        metric("serve.solo_ms", "ms", mean_ms("serve.solo")),
        metric("serve.mix_ms", "ms", mean_ms("serve.mix")),
        metric("serve.attribute_ms", "ms", mean_ms("serve.attribute")),
        metric("serve.render_ms", "ms", mean_ms("serve.render")),
        metric(
            "serve.allocs_per_req",
            "count",
            Value::ratio(serve_allocs as f64, served),
        ),
        metric("serve.shed_per_req", "count", per_offer(guards.1)),
        metric("serve.membw_queued_per_req", "count", per_offer(guards.2)),
        metric("serve.burst_per_req", "count", per_offer(guards.3)),
        metric("bench.trace_overhead_pct", "%", overhead_pct),
    ]
}

/// Units attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units that panicked or whose digest did not match.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt.
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Checks every unit of every round. The first round is the reference:
/// its artifact must match `pin` when the seed is pinned, and every
/// later round must reproduce it unit for unit. A unit fails if it
/// panicked, if its digest differs from the reference, or if its round's
/// artifact does not match.
pub fn check_rounds(rounds: &[Round], pin: Option<u64>, tally: &mut Tally) {
    let Some(reference) = rounds.first() else {
        return;
    };
    let pin_ok = reference.artifact.is_some() && pin.is_none_or(|p| reference.artifact == Some(p));
    for r in rounds {
        let round_ok = pin_ok && r.artifact == reference.artifact;
        for (k, d) in r.unit_digests.iter().enumerate() {
            let unit_ok = d.is_some() && *d == reference.unit_digests[k];
            tally.add(round_ok && unit_ok);
        }
    }
}

/// Checks that every round from the third on makes exactly as many heap
/// allocations as the second. Rounds repeat the same batch and the count
/// is deterministic, so once the first round has warmed whatever the
/// program fills lazily, a change in the count means the program keeps
/// or grows state from round to round. One attempt per checked round.
pub fn check_allocs(rounds: &[Round], tally: &mut Tally) {
    if let Some((second, later)) = rounds.get(1..).and_then(<[Round]>::split_first) {
        for r in later {
            tally.add(r.allocs == second.allocs);
        }
    }
}

/// Parses the pinned artifact digests: `workload seed digest` lines,
/// `#` comments.
pub fn parse_pins(text: &str) -> BTreeMap<(String, u64), u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let w = f.next()?.to_string();
            let seed = f.next()?.parse().ok()?;
            let digest = u64::from_str_radix(f.next()?, 16).ok()?;
            Some(((w, seed), digest))
        })
        .collect()
}

/// The human-readable line of one metric: its value or `null`, its
/// unit, and the samples behind it.
pub fn human(m: &Metric) -> String {
    let v = m
        .value
        .value
        .map_or("null".to_string(), |v| format!("{v:.6}"));
    format!(
        "{:<28} {:>16} {:<6} (n={})",
        m.name, v, m.unit, m.value.count
    )
}

/// The result object, one line of JSON. `numeric` writes a metric with
/// no samples as 0 instead of `null`, for consumers that need a number
/// for every metric; the human-readable lines keep the `null`.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric], numeric: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = match m.value.value {
                None if numeric => "0".to_string(),
                _ => m.value.json(),
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(digests: &[u64], artifact: u64) -> Round {
        Round {
            unit_ms: vec![1.0; digests.len()],
            unit_digests: digests.iter().map(|&d| Some(d)).collect(),
            unit_e2e: vec![0; digests.len()],
            artifact: Some(artifact),
            inferences: 10,
            host_s: 0.5,
            allocs: 40,
            ..Round::default()
        }
    }

    #[test]
    fn identical_rounds_pass() {
        let mut t = Tally::default();
        check_rounds(&[round(&[1, 2], 9), round(&[1, 2], 9)], Some(9), &mut t);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 0
            }
        );
    }

    #[test]
    fn a_pin_mismatch_fails_every_unit() {
        let mut t = Tally::default();
        check_rounds(&[round(&[1, 2], 9), round(&[1, 2], 9)], Some(8), &mut t);
        assert_eq!(t.failed, 4);
    }

    #[test]
    fn a_drifting_unit_fails_alone() {
        let mut t = Tally::default();
        let mut late = round(&[1, 3], 9);
        late.unit_digests[0] = None;
        check_rounds(&[round(&[1, 2], 9), late], None, &mut t);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
    }

    #[test]
    fn allocation_drift_after_the_second_round_fails() {
        let mut warm = round(&[1], 9);
        warm.allocs = 55;
        let steady = [warm, round(&[1], 9), round(&[1], 9), round(&[1], 9)];
        let mut t = Tally::default();
        check_allocs(&steady, &mut t);
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 0
            }
        );
        let mut growing = steady.clone();
        growing[3].allocs += 1;
        let mut t = Tally::default();
        check_allocs(&growing, &mut t);
        assert_eq!(t.failed, 1);
        let mut t = Tally::default();
        check_allocs(&steady[..2], &mut t);
        assert_eq!(t, Tally::default());
    }

    #[test]
    fn e2e_metrics_say_null_when_units_are_too_few() {
        let m = e2e_metrics(&[0.1, 0.3, 0.2], &[round(&[1, 2], 9)], None, 1.0);
        let p90 = m.iter().find(|m| m.name == "unit_ms_p90").unwrap();
        assert_eq!(
            p90.value,
            Value {
                value: None,
                count: 2
            }
        );
        let setup = m.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.value.value, Some(0.2));
        let ips = m.iter().find(|m| m.name == "sim_inf_per_s").unwrap();
        assert_eq!(ips.value.value, Some(20.0));
        let line = result_line(true, Tally::default(), &m, false);
        assert!(line.contains("\"unit_ms_p90\": {\"value\": null, \"unit\": \"ms\"}"));
        assert!(line.contains("\"allocs_per_inf\": {\"value\": 4, \"unit\": \"count\"}"));
    }

    #[test]
    fn throughput_rests_on_each_units_central_time() {
        // Unit times 1, 3 and 2 ms in three rounds, 10 ms outside units
        // in each: a typical round is 2 + 2 + 10 ms, whichever round
        // happened to be the median one.
        let rounds: Vec<Round> = [1.0, 3.0, 2.0]
            .iter()
            .map(|&ms| Round {
                unit_ms: vec![ms, ms],
                host_s: (2.0 * ms + 10.0) / 1e3,
                ..round(&[1, 2], 9)
            })
            .collect();
        assert_eq!(central_unit_ms(&rounds), vec![2.0, 2.0]);
        let ips = throughput(&rounds).value.unwrap();
        assert!((ips - 10.0 * 1e3 / 14.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_applies_to_host_times_only() {
        let rounds = [round(&[1, 2], 9)];
        let base = e2e_metrics(&[0.2], &rounds, Some(8.0), 1.0);
        let scaled = e2e_metrics(&[0.2], &rounds, Some(8.0), 2.0);
        let factors: Vec<f64> = base
            .iter()
            .zip(&scaled)
            .map(|(a, b)| b.value.value.unwrap_or(1.0) / a.value.value.unwrap_or(1.0))
            .collect();
        // setup_s, sim_inf_per_s, p50, p90 (null), allocs, rss.
        assert_eq!(factors, vec![2.0, 0.5, 2.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn pins_parse_hex_digests() {
        let pins = parse_pins("# comment\ncli-sweep 3 00000000000000ff\n\nbad line\n");
        assert_eq!(pins.len(), 1);
        assert_eq!(pins[&("cli-sweep".to_string(), 3)], 255);
    }
}
