//! A schedutil-flavoured per-core DVFS governor.
//!
//! Linux's `schedutil` picks a core's clock from its tracked utilization
//! (`f = 1.25 · util · f_max`, rounded up to a real operating point) and
//! boosts latency-sensitive work straight to the top — Android adds
//! uclamp floors for the foreground cgroup. This module reproduces that
//! shape: each core keeps an exponentially-weighted busy-fraction
//! estimate; foreground, kernel and NNAPI-fallback dispatches boost to
//! the nominal operating point, while background work runs at whatever
//! point covers its utilization (with the schedutil margin).
//!
//! The governor closes the power loop twice over: the chosen operating
//! point scales the task's retirement rate (time axis), and its
//! frequency is stamped into the trace as
//! [`TraceKind::Dvfs`](aitax_des::trace::TraceKind) so the energy meter
//! prices the interval at the right `C·V²·f` (energy axis). The thermal
//! multiplier caps the effective rate on top of the governor's choice.

use aitax_des::trace::{TraceKind, TraceResource};
use aitax_des::{SimSpan, SimTime};
use aitax_soc::CoreRailSpec;

use crate::machine::Machine;
use crate::task::TaskClass;

/// Tunables of the per-core governor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPolicy {
    /// Master switch; disabled pins every core at its nominal clock.
    pub enabled: bool,
    /// Headroom multiplier on utilization (schedutil uses 1.25).
    pub margin: f64,
    /// Horizon of the per-core utilization EWMA.
    pub util_tau: SimSpan,
    /// Whether foreground/kernel/NNAPI dispatches boost straight to the
    /// nominal operating point (Android's uclamp-style floor).
    pub boost_foreground: bool,
}

impl Default for DvfsPolicy {
    fn default() -> Self {
        DvfsPolicy {
            enabled: true,
            margin: 1.25,
            util_tau: SimSpan::from_ms(16.0),
            boost_foreground: true,
        }
    }
}

impl DvfsPolicy {
    /// Whether a dispatch of `class` gets the uclamp-style max boost.
    fn boosts(&self, class: TaskClass) -> bool {
        self.boost_foreground
            && matches!(
                class,
                TaskClass::Foreground | TaskClass::KernelWork | TaskClass::NnapiFallback
            )
    }
}

/// Per-core governor state.
#[derive(Debug, Clone, Default)]
pub(crate) struct CoreGov {
    /// EWMA busy-fraction estimate in `[0, 1]`.
    util: f64,
    /// Whether the core has been busy since `last_update`.
    busy: bool,
    last_update: SimTime,
    /// Current frequency as a fraction of nominal.
    pub mult: f64,
    /// Current frequency in Hz.
    pub freq_hz: f64,
    /// The rail's active power at `freq_hz`, cached for
    /// [`Machine::current_power_w`]: busy states change far more often
    /// than clocks do.
    pub active_w: f64,
}

impl CoreGov {
    /// A cold governor holding its core at the rail's nominal point.
    pub(crate) fn nominal(rail: &CoreRailSpec) -> Self {
        let mut gov = CoreGov::default();
        gov.clock(rail, rail.nominal().freq_hz);
        gov
    }

    /// Clocks the core at `freq_hz`. The cached power is checked here,
    /// where it is computed, so it is always a value the thermal model
    /// accepts.
    fn clock(&mut self, rail: &CoreRailSpec, freq_hz: f64) {
        let w = rail.active_power_w(freq_hz);
        assert!(
            w.is_finite() && w >= 0.0,
            "{}: {w} W at {freq_hz} Hz",
            rail.name
        );
        self.freq_hz = freq_hz;
        self.mult = freq_hz / rail.nominal().freq_hz;
        self.active_w = w;
    }
}

impl Machine {
    /// Replaces the DVFS policy (defaults to schedutil with boosting).
    pub fn set_dvfs_policy(&mut self, policy: DvfsPolicy) {
        self.dvfs = policy;
    }

    /// The core's current clock in Hz, as chosen by the governor.
    pub fn core_freq_hz(&self, core: usize) -> f64 {
        self.governor[core].freq_hz
    }

    /// Effective speed multiplier of a core: governor operating point
    /// capped by the thermal throttle.
    pub(crate) fn cpu_speed(&self, core: usize) -> f64 {
        self.governor[core].mult * self.thermal.freq_multiplier()
    }

    /// Folds the elapsed busy/idle stretch into the core's utilization
    /// estimate and records the state the core enters now.
    pub(crate) fn gov_observe(&mut self, core: usize, busy_next: bool) {
        let now = self.cal.now();
        let tau = self.dvfs.util_tau.as_secs();
        let gov = &mut self.governor[core];
        let dt = now.since(gov.last_update).as_secs();
        if dt > 0.0 && tau > 0.0 {
            let alpha = 1.0 - (-dt / tau).exp();
            let sample = if gov.busy { 1.0 } else { 0.0 };
            gov.util += (sample - gov.util) * alpha;
        }
        gov.last_update = now;
        gov.busy = busy_next;
    }

    /// Re-picks the core's operating point for a dispatch of `class`,
    /// stamping a [`TraceKind::Dvfs`] event when the clock changes.
    pub(crate) fn gov_retarget(&mut self, core: usize, class: TaskClass) {
        if !self.dvfs.enabled {
            return;
        }
        let target = if self.dvfs.boosts(class) {
            1.0
        } else {
            (self.governor[core].util * self.dvfs.margin).clamp(0.0, 1.0)
        };
        let rail = self.spec.power.core_rail(core);
        let opp = rail.opp_for_target(target);
        let gov = &mut self.governor[core];
        if (opp.freq_hz - gov.freq_hz).abs() < 0.5 {
            return;
        }
        gov.clock(rail, opp.freq_hz);
        let now = self.cal.now();
        self.trace.record(
            now,
            TraceResource::CpuCore(core as u8),
            TraceKind::Dvfs {
                core: core as u8,
                freq_hz: opp.freq_hz as u64,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{CoreMask, TaskSpec, Work};
    use aitax_soc::{SocCatalog, SocId};

    fn machine() -> Machine {
        Machine::new(SocCatalog::get(SocId::Sd845), 3)
    }

    #[test]
    fn foreground_dispatch_boosts_to_nominal() {
        let mut m = machine();
        m.set_tracing(true);
        m.submit_cpu(TaskSpec::foreground("fg", Work::Fp32Flops(1e8)), |_| {});
        m.run_until_idle();
        let nominal = m.spec().power.core_rail(0).nominal().freq_hz;
        assert_eq!(m.core_freq_hz(0), nominal);
    }

    #[test]
    fn background_on_a_cold_core_downclocks() {
        let mut m = machine();
        m.set_tracing(true);
        // Pin to one core so the placement is deterministic.
        m.submit_cpu(
            TaskSpec::background("bg", Work::Cycles(5e6)).with_affinity(CoreMask::of(&[5])),
            |_| {},
        );
        m.run_until_idle();
        let nominal = m.spec().power.core_rail(5).nominal().freq_hz;
        assert!(
            m.core_freq_hz(5) < nominal,
            "idle-history background dispatch should pick a low OPP"
        );
        let dvfs_events = m
            .trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Dvfs { .. }))
            .count();
        assert!(dvfs_events >= 1, "clock change must be traced");
    }

    #[test]
    fn sustained_background_load_ramps_the_clock_up() {
        let mut m = machine();
        // Many sequential background bursts on one core: utilization
        // climbs, and schedutil follows it up the OPP ladder.
        for i in 0..40 {
            m.submit_cpu(
                TaskSpec::background(format!("bg{i}"), Work::Cycles(2e7))
                    .with_affinity(CoreMask::of(&[6])),
                |_| {},
            );
        }
        m.run_until_idle();
        let rail = m.spec().power.core_rail(6);
        assert!(
            m.core_freq_hz(6) > rail.opps[0].freq_hz,
            "sustained load must leave the bottom OPP, got {} Hz",
            m.core_freq_hz(6)
        );
    }

    #[test]
    fn disabled_governor_pins_nominal() {
        let mut m = machine();
        m.set_dvfs_policy(DvfsPolicy {
            enabled: false,
            ..DvfsPolicy::default()
        });
        m.submit_cpu(
            TaskSpec::background("bg", Work::Cycles(1e6)).with_affinity(CoreMask::of(&[4])),
            |_| {},
        );
        m.run_until_idle();
        let nominal = m.spec().power.core_rail(4).nominal().freq_hz;
        assert_eq!(m.core_freq_hz(4), nominal);
    }

    /// `current_power_w` recomputed from the spec alone: no cached rail
    /// power, every running core priced at its current clock.
    fn power_from_spec(m: &Machine) -> f64 {
        let p = &m.spec().power;
        let mut w = p.interconnect.uncore_w;
        for (i, rail) in p.core_rails.iter().enumerate() {
            w += if m.cores[i].running.is_some() {
                rail.active_power_w(m.core_freq_hz(i))
            } else {
                rail.idle_power_w()
            };
        }
        let accel = |busy: bool, busy_w: f64, idle_w: f64| if busy { busy_w } else { idle_w };
        w += accel(m.dsp.running.is_some(), p.dsp.busy_w, p.dsp.idle_power_w());
        w += accel(m.gpu.running.is_some(), p.gpu.busy_w, p.gpu.idle_power_w());
        if let Some(npu) = &p.npu {
            w += accel(m.npu.running.is_some(), npu.busy_w, npu.idle_power_w());
        }
        w
    }

    /// Submits one random piece of work: a task of a random class
    /// (sometimes pinned to one core), a gang, or an accelerator job.
    fn submit_random(m: &mut Machine, rng: &mut aitax_des::SimRng) {
        let cycles = Work::Cycles(rng.uniform(1e5, 3e7));
        let spec = match rng.uniform_u64(0, 4) {
            0 => TaskSpec::foreground("fg", cycles),
            1 => TaskSpec::background("bg", cycles),
            2 => TaskSpec::kernel("k", cycles),
            _ => TaskSpec::nnapi_fallback("nn", cycles),
        };
        let cores = m.spec().power.core_rails.len() as u64;
        match rng.uniform_u64(0, 6) {
            0 => {
                let core = rng.uniform_u64(0, cores) as usize;
                m.submit_cpu(spec.with_affinity(CoreMask::of(&[core])), |_| {});
            }
            1 => m.submit_cpu_parallel(spec, rng.uniform_u64(1, 5) as usize, |_| {}),
            2 => m.submit_dsp_raw("dsp", SimSpan::from_us(rng.uniform(50.0, 3000.0)), |_| {}),
            3 if m.spec().npu.is_some() => {
                m.submit_npu_raw("npu", SimSpan::from_us(rng.uniform(50.0, 3000.0)), |_| {})
            }
            _ => {
                m.submit_cpu(spec, |_| {});
            }
        }
    }

    #[test]
    fn cached_rail_power_matches_the_spec_after_every_step() {
        let mut rng = aitax_des::SimRng::seed_from(0xD7F5_0001);
        for soc in [SocId::Sd845, SocId::Sd865] {
            let mut m = Machine::new(SocCatalog::get(soc), 1);
            let mut clocks = std::collections::BTreeSet::new();
            for case in 0..12 {
                // Reuse the machine, as a SimContext does: reset must
                // refresh every cached value too.
                m.reset(rng.next_u64());
                for _ in 0..rng.uniform_u64(4, 24) {
                    submit_random(&mut m, &mut rng);
                }
                // Later arrivals land on cores with an idle history, so
                // background dispatches downclock.
                for _ in 0..rng.uniform_u64(1, 6) {
                    let delay = SimSpan::from_ms(rng.uniform(1.0, 60.0));
                    let seed = rng.next_u64();
                    m.after(delay, move |m| {
                        let mut rng = aitax_des::SimRng::seed_from(seed);
                        for _ in 0..4 {
                            submit_random(m, &mut rng);
                        }
                    });
                }
                let mut steps = 0u64;
                while m.step() {
                    steps += 1;
                    assert_eq!(
                        m.current_power_w().to_bits(),
                        power_from_spec(&m).to_bits(),
                        "{soc:?} case {case} step {steps}: cached rail power is stale"
                    );
                    clocks.extend((0..m.cores.len()).map(|i| m.core_freq_hz(i) as u64));
                }
            }
            assert!(
                clocks.len() > 3,
                "{soc:?}: the governor barely moved: {clocks:?}"
            );
        }
    }

    #[test]
    fn governor_slows_background_work_down() {
        // The same background burst takes longer with the governor on —
        // that is the latency price of the energy savings.
        let work = Work::Cycles(5e7);
        let run = |enabled: bool| {
            let mut m = machine();
            m.set_dvfs_policy(DvfsPolicy {
                enabled,
                ..DvfsPolicy::default()
            });
            m.submit_cpu(
                TaskSpec::background("bg", work).with_affinity(CoreMask::of(&[7])),
                |_| {},
            );
            m.run_until_idle();
            m.now()
        };
        assert!(run(true) > run(false));
    }
}
