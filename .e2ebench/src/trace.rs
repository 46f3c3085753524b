//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span records its name, host start and end, the span that was open
//! when it began (its parent), the workload unit it belongs to, and the
//! calling thread's allocation counter at both ends. Spans are kept in a
//! thread-local buffer and written out when the run ends. With tracing
//! off, [`span`] only calls its closure.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover ([`self_cost`]). Allocations are
//! attributed the same way on the allocation-counter axis, which charges
//! each allocation to the innermost span open when it happened.

use std::cell::RefCell;
use std::time::Instant;

use crate::alloc::allocations;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `lab.job`.
    pub name: &'static str,
    /// Workload unit (lab job, fleet device, serve seed) it belongs to.
    pub unit: u32,
    /// Index of the span open when this one began.
    pub parent: Option<u32>,
    /// Host nanoseconds since the thread first used the tracer.
    pub start_ns: u64,
    /// Host nanoseconds since the thread first used the tracer.
    pub end_ns: u64,
    /// Allocation counter when the span opened.
    pub allocs_start: u64,
    /// Allocation counter when the span closed.
    pub allocs_end: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Span capacity reserved up front, so recording does not reallocate
/// (and charge the reallocation to an open span) in a normal run.
const RESERVED_SPANS: usize = 1 << 17;

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Switches span recording on or off for the calling thread. Spans
/// already recorded are kept until [`take`].
pub fn enable(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        if on && t.spans.capacity() == 0 {
            t.spans.reserve(RESERVED_SPANS);
            t.open.reserve(64);
        }
    });
}

/// Runs `f` inside a span named `name` for workload unit `unit`. The
/// span closes even if `f` panics, so a caught panic leaves the span
/// tree well formed.
pub fn span<R>(name: &'static str, unit: u32, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let idx = t.spans.len() as u32;
        let parent = t.open.last().copied();
        t.spans.push(Span {
            name,
            unit,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs_start: 0,
            allocs_end: 0,
        });
        t.open.push(idx);
        Some(idx)
    });
    let Some(idx) = idx else {
        return f();
    };
    // Read the counters last on open and first on close, so the
    // tracer's own bookkeeping stays outside the span.
    let _open = Open {
        idx,
        allocs_start: allocations(),
        start: Instant::now(),
    };
    f()
}

/// An open span; dropping it closes the span.
struct Open {
    idx: u32,
    allocs_start: u64,
    start: Instant,
}

impl Drop for Open {
    fn drop(&mut self) {
        let end = Instant::now();
        let allocs_end = allocations();
        let _ = TRACER.try_with(|t| {
            let mut t = t.borrow_mut();
            let epoch = t.epoch;
            t.open.pop();
            let s = &mut t.spans[self.idx as usize];
            s.start_ns = self.start.duration_since(epoch).as_nanos() as u64;
            s.end_ns = end.duration_since(epoch).as_nanos() as u64;
            s.allocs_start = self.allocs_start;
            s.allocs_end = allocs_end;
        });
    }
}

/// Takes the spans recorded so far on the calling thread.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Length of `outer` not covered by any of `inner`, on any monotone axis
/// (host nanoseconds, allocation counter). Inner intervals may nest,
/// overlap each other, or stick out of `outer`; only their union clipped
/// to `outer` is subtracted.
pub fn self_cost(outer: (u64, u64), inner: &[(u64, u64)]) -> u64 {
    let (lo, hi) = outer;
    let mut clipped: Vec<(u64, u64)> = inner
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    hi.saturating_sub(lo) - covered
}

/// Self nanoseconds and self allocations of every span, in span order.
pub fn self_costs(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p as usize].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let time: Vec<_> = kids
                .iter()
                .map(|&k| (spans[k].start_ns, spans[k].end_ns))
                .collect();
            let allocs: Vec<_> = kids
                .iter()
                .map(|&k| (spans[k].allocs_start, spans[k].allocs_end))
                .collect();
            (
                self_cost((s.start_ns, s.end_ns), &time),
                self_cost((s.allocs_start, s.allocs_end), &allocs),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn self_cost_without_children_is_the_duration() {
        assert_eq!(self_cost((10, 50), &[]), 40);
    }

    #[test]
    fn self_cost_subtracts_nested_children() {
        // Two disjoint children and a grandchild-sized one inside the first.
        assert_eq!(self_cost((0, 100), &[(10, 30), (50, 60)]), 70);
        assert_eq!(self_cost((0, 100), &[(10, 30), (15, 20)]), 80);
    }

    #[test]
    fn self_cost_counts_overlapping_children_once() {
        // Children overlapping each other cover their union only.
        assert_eq!(self_cost((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child sticking out of the parent is clipped to it.
        assert_eq!(self_cost((20, 80), &[(0, 30), (70, 120)]), 40);
        // Children covering everything leave no self time.
        assert_eq!(self_cost((0, 10), &[(0, 6), (4, 10)]), 0);
    }

    #[test]
    fn self_costs_walk_the_span_tree() {
        let mk = |parent, start_ns, end_ns| Span {
            name: "s",
            unit: 0,
            parent,
            start_ns,
            end_ns,
            allocs_start: start_ns,
            allocs_end: end_ns,
        };
        let spans = vec![mk(None, 0, 100), mk(Some(0), 10, 40), mk(Some(1), 20, 30)];
        let costs = self_costs(&spans);
        assert_eq!(costs, vec![(70, 70), (20, 20), (10, 10)]);
    }

    #[test]
    fn allocations_go_to_the_innermost_open_span() {
        enable(true);
        span("outer", 7, || {
            black_box(Box::new(1u64));
            span("inner", 7, || {
                black_box(Box::new(2u64));
                black_box(Box::new(3u64));
            });
            black_box(Box::new(4u64));
        });
        enable(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, 7);
        let costs = self_costs(&spans);
        assert_eq!(costs[0].1, 2, "outer allocates two boxes itself");
        assert_eq!(costs[1].1, 2, "inner allocates two boxes");
        assert_eq!(spans[0].allocs_end - spans[0].allocs_start, 4);
    }

    #[test]
    fn a_panicking_span_still_closes() {
        enable(true);
        span("outer", 1, || {
            let caught = std::panic::catch_unwind(|| span("boom", 1, || panic!("expected")));
            assert!(caught.is_err());
            span("after", 1, || ());
        });
        enable(false);
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("boom", Some(0)), ("after", Some(0))]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        enable(false);
        assert_eq!(span("x", 0, || 5), 5);
        assert!(take().is_empty());
    }
}
