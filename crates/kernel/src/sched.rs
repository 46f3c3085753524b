//! The CPU scheduler: placement, time slices, preemption, migration.
//!
//! A deliberately CFS-flavoured model: per-core run queues with weighted
//! round-robin slices, context-switch costs, idle stealing with a
//! cache-warmup migration penalty, and the "wandering" behaviour of NNAPI
//! CPU-fallback threads that Figure 6 of the paper captures (annotation 4:
//! "frequent CPU migrations ... and the core utilization pattern").

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimSpan, Symbol};

use crate::machine::{Ev, Machine, Running, Task};
use crate::task::{CoreMask, TaskClass, TaskId, TaskSpec};

/// Base scheduling quantum; actual slices scale with task weight.
pub const BASE_QUANTUM: SimSpan = SimSpan::from_ns(4_000_000);

/// Direct cost of a context switch (register save/restore, runqueue work).
pub const CONTEXT_SWITCH_COST: SimSpan = SimSpan::from_ns(8_000);

/// Default probability that a wandering-class task is rebalanced to
/// another core at a slice boundary.
pub const DEFAULT_WANDER_PROBABILITY: f64 = 0.35;

/// Remaining-work threshold below which a task is complete.
const WORK_EPSILON: f64 = 1e-6;

/// Smallest schedulable slice. Guarantees forward progress: without it, a
/// residue of work smaller than half a nanosecond at the current rate
/// would round to a zero-length slice and loop forever at one timestamp.
const MIN_SLICE: SimSpan = SimSpan::from_ns(1);

/// The join record of a fork-join gang (see
/// [`Machine::submit_cpu_parallel`]), shared by its members.
pub(crate) trait Join {
    /// One member finished; the last one fires the gang's callback.
    fn member_done(&self, m: &mut Machine);
}

struct Gang<F> {
    pending: Cell<usize>,
    on_all_done: Cell<Option<F>>,
}

impl<F: FnOnce(&mut Machine) + 'static> Gang<F> {
    fn join(members: usize, on_all_done: F) -> Rc<dyn Join> {
        Rc::new(Gang {
            pending: Cell::new(members),
            on_all_done: Cell::new(Some(on_all_done)),
        })
    }
}

impl<F: FnOnce(&mut Machine)> Join for Gang<F> {
    fn member_done(&self, m: &mut Machine) {
        let left = self.pending.get() - 1;
        self.pending.set(left);
        if left == 0 {
            if let Some(cb) = self.on_all_done.take() {
                cb(m);
            }
        }
    }
}

impl Machine {
    /// Submits one CPU task; `on_done` fires when it completes.
    ///
    /// Foreground tasks default to big-core affinity; other classes may run
    /// anywhere. Returns the task id (also used in traces).
    pub fn submit_cpu(
        &mut self,
        spec: TaskSpec<'_>,
        on_done: impl FnOnce(&mut Machine) + 'static,
    ) -> TaskId {
        let label = self.trace.intern(&spec.name);
        self.submit_task(&spec, label, Gang::join(1, on_done))
    }

    /// Submits a gang of `threads` copies of `spec`, labelled
    /// `{name}#0`, `{name}#1`, …; `on_all_done` fires when the last one
    /// completes (fork-join, as a multi-threaded TFLite op does). The
    /// gang shares one join record and its member labels are formatted
    /// into a reused buffer, so submission allocates nothing per member.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn submit_cpu_parallel(
        &mut self,
        spec: TaskSpec<'_>,
        threads: usize,
        on_all_done: impl FnOnce(&mut Machine) + 'static,
    ) {
        assert!(threads > 0, "parallel submission needs at least one task");
        let gang = Gang::join(threads, on_all_done);
        for t in 0..threads {
            self.label_buf.clear();
            // Writing into a String cannot fail.
            let _ = write!(self.label_buf, "{}#{t}", spec.name);
            let label = self.trace.intern(&self.label_buf);
            self.submit_task(&spec, label, gang.clone());
        }
    }

    fn submit_task(&mut self, spec: &TaskSpec<'_>, label: Symbol, on_done: Rc<dyn Join>) -> TaskId {
        let affinity = spec.affinity.unwrap_or(match spec.class {
            TaskClass::Foreground => self.big_cores,
            _ => self.all_cores,
        });
        let id = TaskId(self.fresh_obj_id());
        let idx = self.task_slot(id);
        self.tasks[idx] = Some(Task {
            label,
            work_kind: spec.work,
            remaining: spec.work.amount().max(0.0),
            class: spec.class,
            affinity,
            priority: spec.priority,
            on_done: Some(on_done),
            pending_penalty: SimSpan::ZERO,
        });
        let core = self.place(affinity);
        self.enqueue(core, id);
        id
    }

    /// Total runnable + running CPU tasks.
    pub fn cpu_load(&self) -> usize {
        self.cores.iter().map(|c| c.load()).sum()
    }

    fn task_slot(&mut self, id: TaskId) -> usize {
        let idx = id.0 as usize;
        if self.tasks.len() <= idx {
            self.tasks.resize_with(idx + 1, || None);
        }
        idx
    }

    /// Least-loaded eligible core, lowest index on ties.
    fn place(&self, affinity: CoreMask) -> usize {
        let mut best = None;
        let mut best_load = usize::MAX;
        for (i, core) in self.cores.iter().enumerate() {
            if !affinity.allows(i) {
                continue;
            }
            let load = core.load();
            if load < best_load {
                best_load = load;
                best = Some(i);
            }
        }
        // aitax-allow(panic-path): spawn validates affinity masks against the core count
        best.expect("affinity mask excludes every core on this SoC")
    }

    /// Priority of a task, zero once its record is gone.
    fn task_priority(&self, id: TaskId) -> i8 {
        self.tasks[id.0 as usize]
            .as_ref()
            .map(|t| t.priority)
            .unwrap_or(0)
    }

    /// Inserts `id` into a core's run queue honoring QoS priority: ahead
    /// of the first strictly-lower-priority waiter, FIFO within a band.
    /// A zero-priority task on an all-zero queue lands at the back — the
    /// legacy order byte-for-byte.
    fn runq_insert(&mut self, core: usize, id: TaskId) {
        let prio = self.task_priority(id);
        if prio != 0 {
            let pos = self.cores[core]
                .runq
                .iter()
                .position(|&q| self.task_priority(q) < prio);
            if let Some(pos) = pos {
                self.cores[core].runq.insert(pos, id);
                return;
            }
        }
        self.cores[core].runq.push_back(id);
    }

    fn enqueue(&mut self, core: usize, id: TaskId) {
        // Kernel/driver work (ioctl handling, cache maintenance) jumps the
        // queue, as softirq-style work does on a real kernel — this keeps
        // offload round trips responsive even under CPU contention.
        // Within the driver path a QoS priority orders the queue-jumpers
        // among themselves.
        let (is_kernel_work, prio) = self.tasks[id.0 as usize]
            .as_ref()
            .map(|t| (t.class == TaskClass::KernelWork, t.priority))
            .unwrap_or((false, 0));
        if is_kernel_work {
            self.cores[core].runq.push_front(id);
        } else {
            self.runq_insert(core, id);
        }
        if self.cores[core].running.is_none() {
            self.dispatch_next(core);
        } else if prio > 0 {
            // A strictly-higher-priority arrival displaces the running
            // task mid-slice; equal priority waits out the slice.
            let victim_prio = self.cores[core]
                .running
                .as_ref()
                .map(|r| self.task_priority(r.task))
                .unwrap_or(i8::MAX);
            if prio > victim_prio {
                self.preempt_running(core);
                self.dispatch_next(core);
            }
        }
    }

    /// Displaces the running task: cancels its pending slice end, banks
    /// the work it retired so far, and requeues it by its own priority.
    /// The caller dispatches next.
    fn preempt_running(&mut self, core: usize) {
        // Price the truncated busy slice exactly as a natural slice end
        // would, so thermal/DVFS accounting cannot tell the difference.
        self.touch_thermal();
        self.gov_observe(core, false);
        let running = self.cores[core]
            .running
            .take()
            // aitax-allow(panic-path): preemption is only triggered while a task is running
            .expect("preempting an idle core");
        let cancelled = self.cal.cancel(running.slice_token);
        debug_assert!(cancelled, "running task must have a live slice end");
        self.take_event(running.slice_token);
        let now = self.cal.now();
        let id = running.task;
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::ExecEnd { task: id.0 },
        );
        if let Some(task) = self.tasks[id.0 as usize].as_mut() {
            // The preemption may land inside the switch-cost/penalty
            // window, before useful work resumed.
            if now > running.work_start {
                let ran = now.since(running.work_start);
                task.remaining -= ran.as_secs() * running.rate;
            }
        }
        self.stats_mut().preemptions += 1;
        self.runq_insert(core, id);
    }

    pub(crate) fn dispatch_next(&mut self, core: usize) {
        debug_assert!(self.cores[core].running.is_none());
        let Some(id) = self.cores[core].runq.pop_front() else {
            return;
        };
        let now = self.cal.now();
        self.touch_thermal();
        let class = self.tasks[id.0 as usize]
            .as_ref()
            // aitax-allow(panic-path): task records outlive their scheduled events by construction
            .expect("dispatching a completed task")
            .class;
        // The core flips busy: fold the elapsed idle stretch into its
        // utilization estimate, then let the governor pick the clock this
        // slice will run (and be energy-priced) at.
        self.gov_observe(core, true);
        self.gov_retarget(core, class);
        let speed = self.cpu_speed(core);

        // Costs before useful work resumes.
        let mut overhead = SimSpan::ZERO;
        let switching = self.cores[core].last_task != Some(id);
        if switching {
            overhead += CONTEXT_SWITCH_COST;
            self.stats_mut().context_switches += 1;
            self.trace.record(
                now,
                TraceResource::CpuCore(core as u8),
                TraceKind::ContextSwitch,
            );
        }

        let (rate, slice, label, penalty) = {
            let task = self.tasks[id.0 as usize]
                .as_mut()
                // aitax-allow(panic-path): task records outlive their scheduled events by construction
                .expect("dispatching a completed task");
            let penalty = std::mem::replace(&mut task.pending_penalty, SimSpan::ZERO);
            let spec = &self.core_specs[core];
            // Small per-slice rate jitter: DVFS settling, cache state,
            // memory interference — the residual variability even quiet
            // benchmarks exhibit (Fig. 11's tight-but-nonzero spread).
            let rate = task.work_kind.rate_on(spec) * speed * self.rng.jitter(0.01);
            let quantum = BASE_QUANTUM * task.class.weight();
            let run_secs = (task.remaining / rate).max(0.0);
            let slice = SimSpan::from_secs(run_secs).min(quantum).max(MIN_SLICE);
            (rate, slice, task.label, penalty)
        };
        overhead += penalty;

        let work_start = now + overhead;
        let token = self.cal.schedule_at(work_start + slice);
        self.set_event(token, Ev::SliceEnd { core });
        self.cores[core].running = Some(Running {
            task: id,
            work_start,
            rate,
            slice_token: token,
        });
        self.cores[core].last_task = Some(id);
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::ExecStart { task: id.0, label },
        );
    }

    pub(crate) fn on_slice_end(&mut self, core: usize) {
        // Price the elapsed busy slice (heat + utilization) before the
        // core's state flips to idle.
        self.touch_thermal();
        self.gov_observe(core, false);
        let running = self.cores[core]
            .running
            .take()
            // aitax-allow(panic-path): slice-end events are cancelled when their core goes idle
            .expect("slice end on an idle core");
        let now = self.cal.now();
        let id = running.task;
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::ExecEnd { task: id.0 },
        );

        let finished = {
            let task = self.tasks[id.0 as usize]
                .as_mut()
                // aitax-allow(panic-path): task records outlive their scheduled events by construction
                .expect("running task has no record");
            let ran = now.since(running.work_start);
            task.remaining -= ran.as_secs() * running.rate;
            task.remaining <= WORK_EPSILON
        };

        if finished {
            let on_done = self.tasks[id.0 as usize]
                .take()
                .and_then(|task| task.on_done);
            self.stats_mut().tasks_completed += 1;
            if let Some(gang) = on_done {
                gang.member_done(self);
            }
            if self.cores[core].running.is_none() {
                self.dispatch_next(core);
            }
            self.steal_if_idle(core);
            return;
        }

        // Not finished: wander, yield to waiting work, or keep running.
        let wanders = self.tasks[id.0 as usize]
            .as_ref()
            .map(|t| t.class.wanders())
            .unwrap_or(false);
        if wanders && self.try_wander(core, id) {
            if self.cores[core].running.is_none() {
                self.dispatch_next(core);
            }
            return;
        }
        self.runq_insert(core, id);
        self.dispatch_next(core);
    }

    /// Rebalances a wandering task to a random other eligible core.
    fn try_wander(&mut self, from: usize, id: TaskId) -> bool {
        let p = self.wander_probability;
        if p <= 0.0 || !self.rng.chance(p) {
            return false;
        }
        let affinity = match &self.tasks[id.0 as usize] {
            Some(t) => t.affinity,
            None => return false,
        };
        let n = self.cores.len();
        let eligible = |c: usize| c != from && affinity.allows(c);
        let count = (0..n).filter(|&c| eligible(c)).count();
        if count == 0 {
            return false;
        }
        // Same draw `SimRng::pick` would make on the materialized candidate
        // list (uniform index, then select), without building the list —
        // the RNG stream, and therefore the event sequence, is unchanged.
        let k = self.rng.uniform_u64(0, count as u64) as usize;
        let to = (0..n)
            .filter(|&c| eligible(c))
            .nth(k)
            // aitax-allow(panic-path): k < count over the same predicate by construction
            .expect("k-th eligible core exists");
        self.migrate(id, from, to);
        true
    }

    fn migrate(&mut self, id: TaskId, from: usize, to: usize) {
        let penalty = self.core_specs[to].migration_penalty;
        if let Some(task) = self.tasks[id.0 as usize].as_mut() {
            task.pending_penalty += penalty;
        }
        self.stats_mut().migrations += 1;
        let now = self.cal.now();
        self.trace.record(
            now,
            TraceResource::CpuCore(to as u8),
            TraceKind::Migration {
                task: id.0,
                from: from as u8,
                to: to as u8,
            },
        );
        self.runq_insert(to, id);
        if self.cores[to].running.is_none() {
            self.dispatch_next(to);
        }
    }

    /// When `core` idles, pull a waiting task from the most loaded core.
    fn steal_if_idle(&mut self, core: usize) {
        if self.cores[core].running.is_some() || !self.cores[core].runq.is_empty() {
            return;
        }
        let mut victim: Option<(usize, usize)> = None; // (core, queue pos)
        let mut victim_qlen = 0usize;
        for (vc, state) in self.cores.iter().enumerate() {
            if vc == core || state.runq.len() <= victim_qlen {
                continue;
            }
            // Steal the first queued task whose affinity allows this core.
            if let Some(pos) = state.runq.iter().position(|tid| {
                self.tasks[tid.0 as usize]
                    .as_ref()
                    .map(|t| t.affinity.allows(core))
                    .unwrap_or(false)
            }) {
                victim = Some((vc, pos));
                victim_qlen = state.runq.len();
            }
        }
        if let Some((vc, pos)) = victim {
            let id = self.cores[vc]
                .runq
                .remove(pos)
                // aitax-allow(panic-path): the victim position was computed from the same runq this event
                .expect("victim position valid");
            self.migrate(id, vc, core);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Work;
    use aitax_soc::{SocCatalog, SocId};
    use std::cell::Cell;
    use std::rc::Rc;

    fn machine() -> Machine {
        Machine::new(SocCatalog::get(SocId::Sd845), 11)
    }

    /// SD845 big core peak fp32 rate.
    const BIG_FLOPS: f64 = 2.8e9 * 8.0;

    #[test]
    fn single_task_latency_matches_rate() {
        let mut m = machine();
        let done = Rc::new(Cell::new(0.0));
        let d = done.clone();
        // 22.4 GFLOP/s → 224 MFLOP in 10 ms.
        m.submit_cpu(
            TaskSpec::foreground("t", Work::Fp32Flops(BIG_FLOPS * 0.01)),
            move |mm| d.set(mm.now().as_ms()),
        );
        m.run_until_idle();
        // One context switch plus slice rounding.
        assert!((done.get() - 10.0).abs() < 0.1, "latency {}", done.get());
    }

    #[test]
    fn four_tasks_fill_four_big_cores() {
        let mut m = machine();
        let done = Rc::new(Cell::new(0usize));
        for i in 0..4 {
            let d = done.clone();
            m.submit_cpu(
                TaskSpec::foreground(format!("t{i}"), Work::Fp32Flops(BIG_FLOPS * 0.01)),
                move |_| d.set(d.get() + 1),
            );
        }
        m.run_until_idle();
        assert_eq!(done.get(), 4);
        // Perfectly parallel: total ≈ 10 ms, not 40 ms.
        assert!(m.now().as_ms() < 11.0, "end {}", m.now());
    }

    #[test]
    fn oversubscription_time_slices_fairly() {
        let mut m = machine();
        // 8 foreground tasks on 4 big cores → ~2× the solo time each.
        let times: Rc<std::cell::RefCell<Vec<f64>>> = Rc::default();
        for i in 0..8 {
            let t = times.clone();
            m.submit_cpu(
                TaskSpec::foreground(format!("t{i}"), Work::Fp32Flops(BIG_FLOPS * 0.02)),
                move |mm| t.borrow_mut().push(mm.now().as_ms()),
            );
        }
        m.run_until_idle();
        let times = times.borrow();
        let last = times.iter().cloned().fold(0.0, f64::max);
        assert!(
            (38.0..46.0).contains(&last),
            "8×20ms of work on 4 cores should finish near 40ms, got {last}"
        );
        // Fairness: all completions within ~1 quantum of each other.
        let first = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(last - first < 12.0, "spread {}", last - first);
        assert!(m.stats().context_switches > 8);
    }

    #[test]
    fn parallel_gang_joins_once() {
        let mut m = machine();
        let joined = Rc::new(Cell::new(0));
        let j = joined.clone();
        let gang = TaskSpec::foreground("g", Work::Fp32Flops(1e6));
        m.submit_cpu_parallel(gang, 4, move |_| j.set(j.get() + 1));
        m.run_until_idle();
        assert_eq!(joined.get(), 1);
    }

    #[test]
    fn background_tasks_may_use_little_cores() {
        let mut m = machine();
        m.set_tracing(true);
        for i in 0..8 {
            m.submit_cpu(
                TaskSpec::background(format!("bg{i}"), Work::Cycles(1e6)),
                |_| {},
            );
        }
        m.run_until_idle();
        let used: std::collections::HashSet<_> = m
            .trace
            .exec_intervals()
            .iter()
            .map(|iv| iv.resource)
            .collect();
        assert!(used.len() >= 8, "8 tasks spread over all 8 cores: {used:?}");
    }

    #[test]
    fn foreground_sticks_to_big_cores() {
        let mut m = machine();
        m.set_tracing(true);
        for i in 0..4 {
            m.submit_cpu(
                TaskSpec::foreground(format!("fg{i}"), Work::Fp32Flops(1e8)),
                |_| {},
            );
        }
        m.run_until_idle();
        for iv in m.trace.exec_intervals() {
            if let aitax_des::trace::TraceResource::CpuCore(c) = iv.resource {
                assert!(c < 4, "foreground task ran on little core {c}");
            }
        }
    }

    #[test]
    fn wandering_tasks_migrate() {
        let mut m = machine();
        // A long NNAPI-fallback task with plenty of slice boundaries.
        m.submit_cpu(
            TaskSpec::nnapi_fallback("fallback", Work::Fp32Flops(BIG_FLOPS * 0.5)),
            |_| {},
        );
        m.run_until_idle();
        assert!(
            m.stats().migrations > 3,
            "wandering task should migrate, saw {}",
            m.stats().migrations
        );
    }

    #[test]
    fn migrations_slow_the_wanderer_down() {
        // Same work as foreground vs NNAPI-fallback class.
        let work = Work::Fp32Flops(BIG_FLOPS * 0.1);
        let mut fg = machine();
        fg.submit_cpu(TaskSpec::foreground("fg", work), |_| {});
        fg.run_until_idle();
        let fg_time = fg.now();

        let mut nn = machine();
        nn.submit_cpu(TaskSpec::nnapi_fallback("nn", work), |_| {});
        nn.run_until_idle();
        let nn_time = nn.now();
        assert!(
            nn_time > fg_time,
            "fallback ({nn_time}) should be slower than pinned foreground ({fg_time})"
        );
    }

    #[test]
    fn idle_steal_balances_queues() {
        let mut m = machine();
        // Pin 3 tasks to core 0; other cores should steal.
        for i in 0..3 {
            m.submit_cpu(
                TaskSpec::foreground(format!("p{i}"), Work::Fp32Flops(BIG_FLOPS * 0.01))
                    .with_affinity(CoreMask::of(&[0, 1])),
                |_| {},
            );
        }
        m.run_until_idle();
        // With stealing, 3×10ms over 2 cores ≲ 21ms; without, 30ms.
        assert!(m.now().as_ms() < 25.0, "end {}", m.now());
        assert!(m.stats().migrations >= 1);
    }

    #[test]
    fn high_priority_arrival_preempts_running_task() {
        let mut m = machine();
        let order: Rc<std::cell::RefCell<Vec<&'static str>>> = Rc::default();
        let mask = CoreMask::of(&[0]);
        let o = order.clone();
        m.submit_cpu(
            TaskSpec::foreground("lo", Work::Fp32Flops(BIG_FLOPS * 0.02)).with_affinity(mask),
            move |_| o.borrow_mut().push("lo"),
        );
        let o = order.clone();
        // Arrives while "lo" occupies the only eligible core.
        m.submit_cpu(
            TaskSpec::foreground("hi", Work::Fp32Flops(BIG_FLOPS * 0.005))
                .with_affinity(mask)
                .with_priority(2),
            move |_| o.borrow_mut().push("hi"),
        );
        m.run_until_idle();
        assert_eq!(*order.borrow(), vec!["hi", "lo"]);
        assert!(m.stats().preemptions >= 1, "{:?}", m.stats());
    }

    #[test]
    fn equal_priority_waits_out_the_slice() {
        let mut m = machine();
        let mask = CoreMask::of(&[0]);
        m.submit_cpu(
            TaskSpec::foreground("a", Work::Fp32Flops(BIG_FLOPS * 0.02)).with_affinity(mask),
            |_| {},
        );
        m.submit_cpu(
            TaskSpec::foreground("b", Work::Fp32Flops(BIG_FLOPS * 0.02)).with_affinity(mask),
            |_| {},
        );
        m.run_until_idle();
        assert_eq!(m.stats().preemptions, 0);
    }

    #[test]
    fn priority_orders_waiters_within_one_runq() {
        let mut m = machine();
        let order: Rc<std::cell::RefCell<Vec<u32>>> = Rc::default();
        let mask = CoreMask::of(&[0]);
        // Occupy the core, then queue prio 0, 1, 2 behind it: the queue
        // must drain 2, 1, 0 regardless of arrival order.
        m.submit_cpu(
            TaskSpec::foreground("busy", Work::Fp32Flops(BIG_FLOPS * 0.001)).with_affinity(mask),
            |_| {},
        );
        for prio in [0i8, 1, 2] {
            let o = order.clone();
            m.submit_cpu(
                TaskSpec::background(format!("p{prio}"), Work::Cycles(1e5))
                    .with_affinity(mask)
                    .with_priority(prio),
                move |_| o.borrow_mut().push(prio as u32),
            );
        }
        m.run_until_idle();
        assert_eq!(*order.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn accel_queue_grants_by_priority() {
        use aitax_des::SimSpan;
        let mut m = machine();
        let order: Rc<std::cell::RefCell<Vec<&'static str>>> = Rc::default();
        let o = order.clone();
        // First job starts immediately; the rest queue and must drain in
        // priority order (FIFO within a band), never preempting a runner.
        m.submit_dsp_prio("first", SimSpan::from_us(100.0), 0, move |_| {
            o.borrow_mut().push("first")
        });
        let o = order.clone();
        m.submit_dsp_prio("lo", SimSpan::from_us(10.0), 0, move |_| {
            o.borrow_mut().push("lo")
        });
        let o = order.clone();
        m.submit_dsp_prio("hi", SimSpan::from_us(10.0), 2, move |_| {
            o.borrow_mut().push("hi")
        });
        let o = order.clone();
        m.submit_dsp_prio("mid", SimSpan::from_us(10.0), 1, move |_| {
            o.borrow_mut().push("mid")
        });
        m.run_until_idle();
        assert_eq!(*order.borrow(), vec!["first", "hi", "mid", "lo"]);
    }

    #[test]
    fn work_conservation_no_lost_tasks() {
        let mut m = machine();
        let count = Rc::new(Cell::new(0));
        for i in 0..50 {
            let c = count.clone();
            let spec = match i % 3 {
                0 => TaskSpec::foreground(format!("t{i}"), Work::Fp32Flops(1e7)),
                1 => TaskSpec::background(format!("t{i}"), Work::Cycles(1e6)),
                _ => TaskSpec::nnapi_fallback(format!("t{i}"), Work::Int8Ops(1e7)),
            };
            m.submit_cpu(spec, move |_| c.set(c.get() + 1));
        }
        m.run_until_idle();
        assert_eq!(count.get(), 50);
        assert_eq!(m.stats().tasks_completed, 50);
        assert_eq!(m.cpu_load(), 0);
    }
}
