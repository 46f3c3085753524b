//! The three workloads, driven only through the crates' public APIs.
//!
//! Each workload is a fixed batch of *units* (lab jobs, fleet devices,
//! serve seeds) generated from the seed argument alone. [`setup`] makes
//! the inputs and pays the cold graph/plan caches and the first machine
//! boot; [`run_round`] runs the whole batch once, aggregates it and
//! renders its artifacts; [`replay`] re-runs each unit's configuration
//! through `E2eConfig::run_in` directly to read the kernel's modelled
//! counters.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use aitax_core::{E2eConfig, E2eReport, RunMode, SimContext, StreamDist};
use aitax_des::{FaultKind, FaultPlan, SimRng, SimTime};
use aitax_fleet::device::BACKGROUND_ENGINE;
use aitax_fleet::{DeviceSpec, FleetReport, PopulationSpec};
use aitax_framework::{Engine, Session};
use aitax_lab::{Grid, JobResult, JobSpec, Scenario, SweepReport};
use aitax_models::zoo::ModelId;
use aitax_serve::{ScenarioRun, ServeConfig};
use aitax_soc::SocId;
use aitax_tensor::DType;

use crate::alloc::allocations;
use crate::digest::{of_strs, Fnv};
use crate::reference::Kernel;
use crate::trace::span;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lab `table1` grid plus MobileNet-v1 i8 on Hexagon, CLI mode.
    CliSweep,
    /// A fleet population slice in app mode, device by device.
    FleetApp,
    /// The serve `contention` scenario over many seeds.
    ServeMix,
}

impl Workload {
    /// Every workload, in command-line order.
    pub const ALL: [Workload; 3] = [Workload::CliSweep, Workload::FleetApp, Workload::ServeMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliSweep => "cli-sweep",
            Workload::FleetApp => "fleet-app",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The reference kernel the workload's host time follows (see
    /// [`crate::reference`]): cli-sweep's random-tensor arithmetic
    /// follows the arithmetic kernel, the event-driven simulation of the
    /// others the ordered map.
    pub fn reference_kernel(self) -> Kernel {
        match self {
            Workload::CliSweep => Kernel::Arith,
            Workload::FleetApp | Workload::ServeMix => Kernel::Map,
        }
    }
}

/// How much work one round of each workload is.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Repeats of each lab scenario (18 scenarios).
    pub lab_repeats: usize,
    /// Benchmark iterations per lab job.
    pub lab_iterations: usize,
    /// Devices in the fleet slice.
    pub fleet_devices: usize,
    /// Requests each fleet device serves.
    pub fleet_requests: u64,
    /// Serve seeds (each: three solos, the mix, attribution, renders).
    pub serve_seeds: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const BENCH: Sizes = Sizes {
        lab_repeats: 6,
        lab_iterations: 30,
        fleet_devices: 256,
        fleet_requests: 244,
        serve_seeds: 100,
    };

    /// Small enough for unit tests.
    pub const TINY: Sizes = Sizes {
        lab_repeats: 1,
        lab_iterations: 2,
        fleet_devices: 3,
        fleet_requests: 2,
        serve_seeds: 1,
    };
}

/// Streams the per-workload seeds derive from.
const STREAM_GRID: u64 = 1;
const STREAM_POPULATION: u64 = 2;
const STREAM_SERVE: u64 = 3;

/// The seed a workload input derives from `seed` on stream `stream`.
pub fn derived_seed(seed: u64, stream: u64) -> u64 {
    SimRng::seed_from(seed).derive(stream).next_u64()
}

/// A workload's generated inputs.
pub enum Inputs {
    /// Lab sweep: the grid and its expanded jobs.
    Cli {
        /// The grid (aggregation needs it).
        grid: Grid,
        /// Its jobs, in id order.
        jobs: Vec<JobSpec>,
    },
    /// Fleet slice: the population and its sampled devices.
    Fleet {
        /// The population (aggregation needs it).
        spec: PopulationSpec,
        /// Device `k` of the population at position `k`.
        devices: Vec<DeviceSpec>,
        /// Requests per device.
        requests: u64,
    },
    /// Serve mix: one contention config per derived seed.
    Serve {
        /// The configs, one per unit.
        configs: Vec<ServeConfig>,
    },
}

impl Inputs {
    /// Generates workload `w`'s inputs from `seed` alone.
    pub fn generate(w: Workload, seed: u64, sizes: Sizes) -> Inputs {
        match w {
            Workload::CliSweep => {
                let grid = cli_grid(derived_seed(seed, STREAM_GRID), sizes);
                let jobs = grid.expand();
                Inputs::Cli { grid, jobs }
            }
            Workload::FleetApp => {
                let (spec, devices) = fleet_slice(derived_seed(seed, STREAM_POPULATION), sizes);
                Inputs::Fleet {
                    spec,
                    devices,
                    requests: sizes.fleet_requests,
                }
            }
            Workload::ServeMix => {
                let root = SimRng::seed_from(derived_seed(seed, STREAM_SERVE));
                let configs = (0..sizes.serve_seeds as u64)
                    .map(|i| aitax_serve::scenarios::contention().seed(root.derive(i).next_u64()))
                    .collect();
                Inputs::Serve { configs }
            }
        }
    }

    /// Number of units in one round.
    pub fn units(&self) -> usize {
        match self {
            Inputs::Cli { jobs, .. } => jobs.len(),
            Inputs::Fleet { devices, .. } => devices.len(),
            Inputs::Serve { configs } => configs.len(),
        }
    }

    /// Units between two host-speed probes: about one probe per second
    /// of a round on the host the benchmark was tuned on.
    pub fn probe_every(&self) -> usize {
        match self {
            Inputs::Cli { .. } => 18,
            Inputs::Fleet { .. } => 32,
            Inputs::Serve { .. } => 50,
        }
    }

    /// Every `(engine, model, dtype, soc)` plan the workload compiles.
    pub fn compile_keys(&self) -> BTreeSet<(Engine, ModelId, DType, SocId)> {
        let mut keys = BTreeSet::new();
        match self {
            Inputs::Cli { grid, .. } => {
                for s in grid.scenarios() {
                    keys.insert((s.engine, s.model, s.dtype, s.soc));
                }
            }
            Inputs::Fleet { devices, .. } => {
                for d in devices {
                    keys.insert((d.engine, d.model, d.dtype, d.soc));
                    if let Some(engine) = background_engine(d) {
                        keys.insert((engine, d.model, d.dtype, d.soc));
                    }
                }
            }
            Inputs::Serve { configs } => {
                for c in configs {
                    for t in &c.tenants {
                        keys.insert((t.engine, t.model, t.dtype, c.soc));
                    }
                }
            }
        }
        keys
    }

    /// The chipset of the first unit (the first machine booted).
    fn first_soc(&self) -> SocId {
        match self {
            Inputs::Cli { jobs, .. } => jobs.first().map_or(SocId::Sd845, |j| j.scenario.soc),
            Inputs::Fleet { devices, .. } => devices.first().map_or(SocId::Sd845, |d| d.soc),
            Inputs::Serve { configs } => configs.first().map_or(SocId::Sd845, |c| c.soc),
        }
    }
}

/// The lab `table1` grid (every zoo model × CPU dtype, TFLite CPU) plus
/// MobileNet-v1 i8 on the Hexagon delegate, CLI-benchmark mode.
fn cli_grid(base_seed: u64, sizes: Sizes) -> Grid {
    aitax_lab::scenarios::table1(sizes.lab_iterations, base_seed)
        .push(
            Scenario::new("mobilenet_v1-i8-hexagon", ModelId::MobileNetV1, DType::I8)
                .engine(Engine::TfLiteHexagon { threads: 4 })
                .iterations(sizes.lab_iterations),
        )
        .repeats(sizes.lab_repeats)
}

/// What most sets a fleet device's host cost: its app workload, the
/// engine it resolved to on its chipset, its background inference loops,
/// and the kind of fault it carries (as an index into `FaultKind::ALL`).
type Stratum = (&'static str, Engine, usize, Option<usize>);

fn stratum(d: &DeviceSpec) -> Stratum {
    let fault = d
        .fault
        .map(|(kind, _)| FaultKind::ALL.iter().position(|&k| k == kind));
    (d.workload, d.engine, d.background_loops, fault.flatten())
}

/// Seed of the reference population that fixes the slice's composition.
const REFERENCE_SEED: u64 = 0;
/// Devices sampled from the reference population.
const REFERENCE_DEVICES: usize = 4096;
/// Devices of the seeded population scanned before giving up on quotas.
const SCAN_DEVICES: usize = 1 << 16;

/// Devices per stratum in a slice of `n`: the reference population's
/// stratum shares, apportioned by largest remainder.
fn strata_quotas(n: usize) -> BTreeMap<Stratum, usize> {
    let reference = PopulationSpec::new("reference")
        .devices(REFERENCE_DEVICES)
        .seed(REFERENCE_SEED);
    let mut counts: BTreeMap<Stratum, usize> = BTreeMap::new();
    for k in 0..REFERENCE_DEVICES {
        *counts.entry(stratum(&reference.device(k))).or_default() += 1;
    }
    let mut quotas: BTreeMap<Stratum, usize> = counts
        .iter()
        .map(|(&s, &c)| (s, c * n / REFERENCE_DEVICES))
        .collect();
    let mut by_remainder: Vec<(usize, Stratum)> = counts
        .iter()
        .map(|(&s, &c)| (c * n % REFERENCE_DEVICES, s))
        .collect();
    by_remainder.sort_by(|a, b| b.cmp(a));
    let short = n - quotas.values().sum::<usize>();
    for (_, s) in by_remainder.into_iter().take(short) {
        *quotas.entry(s).or_default() += 1;
    }
    quotas
}

/// A stratified slice of the population seeded with `population_seed`:
/// its devices in index order, each taken while its stratum's quota
/// lasts, renumbered `0..n` so the fleet aggregation sees a whole
/// population. Every seed gets the same stratum composition, so a
/// different seed changes the devices but not how many heavy ones there
/// are; slots a quota cannot fill within the scan go to the next unused
/// devices.
fn fleet_slice(population_seed: u64, sizes: Sizes) -> (PopulationSpec, Vec<DeviceSpec>) {
    let n = sizes.fleet_devices;
    let mut quotas = strata_quotas(n);
    let population = PopulationSpec::new("e2ebench")
        .devices(SCAN_DEVICES)
        .seed(population_seed);
    let mut picked = Vec::with_capacity(n);
    let mut spare = Vec::new();
    for k in 0..SCAN_DEVICES {
        if picked.len() == n {
            break;
        }
        let d = span("fleet.population", k as u32, || population.device(k));
        match quotas.get_mut(&stratum(&d)) {
            Some(q) if *q > 0 => {
                *q -= 1;
                picked.push(d);
            }
            _ if spare.len() < n => spare.push(d),
            _ => {}
        }
    }
    let short = n - picked.len();
    picked.extend(spare.into_iter().take(short));
    let devices = picked
        .into_iter()
        .enumerate()
        .map(|(id, d)| DeviceSpec { id, ..d })
        .collect();
    let spec = PopulationSpec::new("e2ebench")
        .devices(n)
        .seed(population_seed);
    (spec, devices)
}

/// The engine of a fleet device's background loops, if it has any.
fn background_engine(d: &DeviceSpec) -> Option<Engine> {
    match d.co_tenant {
        Some(co) => Some(co.engine),
        None => (d.background_loops > 0).then_some(BACKGROUND_ENGINE),
    }
}

/// Makes the inputs, then pays every cold cache the workload uses and
/// the first machine boot: the work a user pays once per process before
/// the first timed call.
pub fn setup(w: Workload, seed: u64, sizes: Sizes) -> Inputs {
    let inputs = span("setup.inputs", 0, || Inputs::generate(w, seed, sizes));
    let keys = inputs.compile_keys();
    let graphs: BTreeSet<(ModelId, DType)> = keys.iter().map(|k| (k.1, k.2)).collect();
    for (i, &(model, dtype)) in graphs.iter().enumerate() {
        span("models.graph_build", i as u32, || {
            black_box(aitax_models::cached_graph(model, dtype));
        });
    }
    for (i, &(engine, model, dtype, soc)) in keys.iter().enumerate() {
        span("framework.compile", i as u32, || {
            black_box(
                Session::compile_cached(engine, model, dtype, soc)
                    .expect("every workload key names a supported engine/dtype pair"),
            );
        });
    }
    span("core.boot", 0, || {
        let mut ctx = SimContext::new();
        black_box(ctx.checkout(inputs.first_soc(), seed));
    });
    inputs
}

/// Modelled serve counters of the mix runs (simulated, never timed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeGuards {
    /// Requests offered to the mix.
    pub offered: u64,
    /// Arrivals admission control shed.
    pub shed: u64,
    /// Requests that queued for a memory-bandwidth slot.
    pub membw_queued: u64,
    /// Requests that rode a warm burst.
    pub bursts: u64,
}

/// One run of a workload's whole batch.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host milliseconds of each unit's public call.
    pub unit_ms: Vec<f64>,
    /// Digest of each unit's result; `None` if the unit panicked.
    pub unit_digests: Vec<Option<u64>>,
    /// Digest of each unit's simulated end-to-end samples (the replay
    /// cross-check); zero where the workload has no replay.
    pub unit_e2e: Vec<u64>,
    /// Digest of the round's rendered artifacts; `None` when a failed
    /// unit left nothing to aggregate.
    pub artifact: Option<u64>,
    /// Simulated inferences (iterations or requests) completed.
    pub inferences: u64,
    /// Host seconds from the first unit to the last render.
    pub host_s: f64,
    /// Heap allocations over the same window.
    pub allocs: u64,
    /// Modelled serve counters (zero for other workloads).
    pub guards: ServeGuards,
    /// What each host-speed probe during the round returned.
    pub probes: Vec<Result<f64, String>>,
}

/// A host-speed probe, run between units every `every` units. Its host
/// time and allocations are kept out of the round's.
pub struct Probe<'a> {
    /// Units between two probes.
    pub every: usize,
    /// The probe; returns its measurement.
    pub run: &'a (dyn Fn() -> Result<f64, String> + Sync),
}

/// What the probes of one round cost and returned.
#[derive(Default)]
struct Aside {
    units: usize,
    secs: f64,
    allocs: u64,
    probes: Vec<Result<f64, String>>,
}

impl Aside {
    /// Counts a finished unit and runs the probe when one is due.
    fn after_unit(&mut self, probe: Option<&Probe>) {
        self.units += 1;
        let Some(p) = probe.filter(|p| self.units.is_multiple_of(p.every)) else {
            return;
        };
        let (t, allocs) = (Instant::now(), allocations());
        self.probes.push((p.run)());
        self.secs += t.elapsed().as_secs_f64();
        self.allocs += allocations() - allocs;
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the batch once: every unit, then aggregation and renders, with
/// `probe` between units.
pub fn run_round(inputs: &Inputs, probe: Option<&Probe>) -> Round {
    let mut aside = Aside::default();
    let mut round = match inputs {
        Inputs::Cli { grid, jobs } => cli_round(grid, jobs.clone(), probe, &mut aside),
        Inputs::Fleet {
            spec,
            devices,
            requests,
        } => fleet_round(spec, devices, *requests, probe, &mut aside),
        Inputs::Serve { configs } => serve_round(configs, probe, &mut aside),
    };
    round.host_s -= aside.secs;
    round.allocs -= aside.allocs;
    round.probes = aside.probes;
    round
}

fn cli_round(grid: &Grid, jobs: Vec<JobSpec>, probe: Option<&Probe>, aside: &mut Aside) -> Round {
    let allocs = allocations();
    let start = Instant::now();
    let shared = Mutex::new(std::mem::take(aside));
    let (unit_ms, results): (Vec<f64>, Vec<Option<JobResult>>) =
        aitax_lab::run_tasks_ctx(jobs, 1, SimContext::new, |ctx, job| {
            let t = Instant::now();
            let r = span("lab.job", job.id as u32, || {
                catch_unwind(AssertUnwindSafe(|| job.run_in(ctx))).ok()
            });
            if r.is_none() {
                // A panic may leave the machine mid-run: boot afresh.
                *ctx = SimContext::new();
            }
            let ms = ms_since(t);
            shared
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .after_unit(probe);
            (ms, r)
        })
        .into_iter()
        .unzip();
    *aside = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    let results = complete(results);
    let artifacts = results.as_ref().ok().map(|results| {
        let report = span("lab.agg", 0, || SweepReport::aggregate(grid, results));
        span("lab.render", 0, || {
            [
                aitax_lab::sweep_json(&report),
                aitax_lab::sweep_csv(&report),
                aitax_lab::bench_json(&report),
            ]
        })
    });
    let host_s = start.elapsed().as_secs_f64();
    let allocs = allocations() - allocs;

    let mut round = Round {
        host_s,
        allocs,
        unit_ms,
        artifact: artifacts.map(|a| of_strs(&a)),
        ..Round::default()
    };
    for r in each(&results) {
        round
            .unit_digests
            .push(r.map(|r| of_strs(&[format!("{r:?}")])));
        round
            .unit_e2e
            .push(r.map_or(0, |r| Fnv::default().f64s(&r.e2e_ms).finish()));
        round.inferences += r.map_or(0, |r| r.e2e_ms.len() as u64);
    }
    round
}

/// Every unit's result when none failed, else each unit's own outcome.
/// Results are moved, never cloned, so the timed window holds only the
/// program's work.
fn complete<T>(results: Vec<Option<T>>) -> Result<Vec<T>, Vec<Option<T>>> {
    if results.iter().all(Option::is_some) {
        Ok(results.into_iter().flatten().collect())
    } else {
        Err(results)
    }
}

/// Each unit's result, `None` where the unit failed.
fn each<T>(results: &Result<Vec<T>, Vec<Option<T>>>) -> Vec<Option<&T>> {
    match results {
        Ok(all) => all.iter().map(Some).collect(),
        Err(some) => some.iter().map(Option::as_ref).collect(),
    }
}

fn fleet_round(
    spec: &PopulationSpec,
    devices: &[DeviceSpec],
    requests: u64,
    probe: Option<&Probe>,
    aside: &mut Aside,
) -> Round {
    let allocs = allocations();
    let start = Instant::now();
    let mut ctx = SimContext::new();
    let mut unit_ms = Vec::with_capacity(devices.len());
    let mut partials = Vec::with_capacity(devices.len());
    for (k, d) in devices.iter().enumerate() {
        let t = Instant::now();
        let p = span("fleet.device", k as u32, || {
            catch_unwind(AssertUnwindSafe(|| {
                aitax_fleet::run_device_in(&mut ctx, d, requests)
            }))
            .ok()
        });
        if p.is_none() {
            ctx = SimContext::new();
        }
        unit_ms.push(ms_since(t));
        partials.push(p);
        aside.after_unit(probe);
    }
    let partials = complete(partials);
    let artifacts = partials.as_ref().ok().map(|partials| {
        let report = span("fleet.agg", 0, || FleetReport::aggregate(spec, partials));
        span("fleet.render", 0, || {
            [
                aitax_fleet::fleet_json(&report),
                aitax_fleet::fleet_csv(&report),
                aitax_fleet::bench_json(&report),
            ]
        })
    });
    let host_s = start.elapsed().as_secs_f64();
    let allocs = allocations() - allocs;

    let mut round = Round {
        host_s,
        allocs,
        unit_ms,
        artifact: artifacts.map(|a| of_strs(&a)),
        ..Round::default()
    };
    for p in each(&partials) {
        round
            .unit_digests
            .push(p.map(|p| of_strs(&[format!("{p:?}")])));
        round
            .unit_e2e
            .push(p.map_or(0, |p| of_strs(&[format!("{:?}", p.latency)])));
        round.inferences += p.map_or(0, |p| p.requests);
    }
    round
}

fn serve_round(configs: &[ServeConfig], probe: Option<&Probe>, aside: &mut Aside) -> Round {
    let allocs = allocations();
    let start = Instant::now();
    let mut outs = Vec::with_capacity(configs.len());
    for (i, cfg) in configs.iter().enumerate() {
        let unit = i as u32;
        let t = Instant::now();
        let out = span("serve.seed", unit, || {
            catch_unwind(AssertUnwindSafe(|| {
                let mut runs: Vec<ScenarioRun> = (0..cfg.tenants.len())
                    .map(|k| {
                        span("serve.solo", unit, || {
                            aitax_serve::run_scenario(cfg, Some(k))
                        })
                    })
                    .collect();
                runs.push(span("serve.mix", unit, || {
                    aitax_serve::run_scenario(cfg, None)
                }));
                let report = span("serve.attribute", unit, || {
                    aitax_serve::attribute(cfg, &runs)
                });
                let artifacts = span("serve.render", unit, || {
                    [
                        aitax_serve::artifact::serve_json(&report),
                        aitax_serve::artifact::serve_csv(&report),
                        aitax_serve::artifact::bench_json(&report),
                    ]
                });
                (runs, artifacts)
            }))
            .ok()
        });
        outs.push((ms_since(t), out));
        aside.after_unit(probe);
    }
    let host_s = start.elapsed().as_secs_f64();
    let allocs = allocations() - allocs;

    let mut round = Round {
        host_s,
        allocs,
        ..Round::default()
    };
    let mut all = Fnv::default();
    for ((ms, out), cfg) in outs.into_iter().zip(configs) {
        round.unit_ms.push(ms);
        round.unit_e2e.push(0);
        let Some((runs, artifacts)) = out else {
            round.unit_digests.push(None);
            continue;
        };
        let digest = of_strs(&artifacts);
        all.bytes(&digest.to_le_bytes());
        round.unit_digests.push(Some(digest));
        round.inferences += runs
            .iter()
            .flat_map(|r| &r.tenants)
            .map(|t| t.completed.len() as u64)
            .sum::<u64>();
        if let Some(mix) = runs.last() {
            round.guards.offered += cfg.tenants.iter().map(|t| t.requests as u64).sum::<u64>();
            round.guards.shed += mix.tenants.iter().map(|t| t.shed).sum::<u64>();
            round.guards.bursts += mix
                .tenants
                .iter()
                .map(|t| t.burst_continuations)
                .sum::<u64>();
            round.guards.membw_queued += mix.membw_queued;
        }
    }
    if round.unit_digests.iter().all(Option::is_some) {
        round.artifact = Some(all.finish());
    }
    round
}

/// Modelled kernel counters summed over a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replay {
    /// Units replayed.
    pub units: u64,
    /// Replayed units whose simulated samples differ from the round's.
    pub mismatches: u64,
    /// Simulated inferences replayed.
    pub inferences: u64,
    /// CPU tasks completed.
    pub tasks: u64,
    /// Context switches.
    pub ctx_switches: u64,
    /// Task migrations.
    pub migrations: u64,
    /// FastRPC invocations.
    pub rpc_calls: u64,
    /// DSP jobs completed.
    pub dsp_jobs: u64,
}

impl Replay {
    fn record(&mut self, r: &E2eReport, inferences: u64, matches: bool) {
        self.units += 1;
        self.mismatches += u64::from(!matches);
        self.inferences += inferences;
        self.tasks += r.stats.tasks_completed;
        self.ctx_switches += r.stats.context_switches;
        self.migrations += r.stats.migrations;
        self.rpc_calls += r.stats.rpc_calls;
        self.dsp_jobs += r.stats.dsp_jobs;
    }
}

/// Re-runs every unit's configuration through `E2eConfig::run_in`
/// (cli-sweep: each job's config; fleet-app: each device's main run),
/// checking the simulated samples against `round`. Serve has no
/// `E2eConfig` underneath, so it replays nothing.
pub fn replay(inputs: &Inputs, round: &Round) -> Replay {
    let mut out = Replay::default();
    let mut ctx = SimContext::new();
    match inputs {
        Inputs::Cli { jobs, .. } => {
            for (k, job) in jobs.iter().enumerate() {
                let r = span("core.run", k as u32, || job_config(job).run_in(&mut ctx));
                let e2e = r.e2e_summary();
                let digest = Fnv::default().f64s(e2e.samples_ms()).finish();
                out.record(
                    &r,
                    e2e.samples_ms().len() as u64,
                    digest == round.unit_e2e[k],
                );
            }
        }
        Inputs::Fleet {
            devices, requests, ..
        } => {
            for (k, d) in devices.iter().enumerate() {
                let r = span("core.run", k as u32, || {
                    device_config(d, *requests).run_in(&mut ctx)
                });
                let mut dist = StreamDist::new();
                for &ms in r.e2e_summary().samples_ms() {
                    dist.record(ms);
                }
                let digest = of_strs(&[format!("{dist:?}")]);
                out.record(&r, dist.count(), digest == round.unit_e2e[k]);
            }
        }
        Inputs::Serve { .. } => {}
    }
    out
}

/// The `E2eConfig` a lab job runs (mirrors `JobSpec::run_in`).
fn job_config(job: &JobSpec) -> E2eConfig {
    let s = &job.scenario;
    let mut cfg = E2eConfig::new(s.model, s.dtype)
        .engine(s.engine)
        .run_mode(s.mode)
        .soc(s.soc)
        .iterations(s.iterations)
        .seed(job.seed)
        .preproc_on_dsp(s.preproc_on_dsp)
        .tracing(s.tracing);
    if let Some((count, engine)) = s.background {
        cfg = cfg.background(count, engine);
    }
    if let Some(fault) = &s.fault {
        cfg = cfg.fault_plan(fault.plan(job.seed));
    }
    cfg
}

/// The `E2eConfig` of a fleet device's main (latency) run, mirroring
/// `aitax_fleet::run_device_in`; the replay's samples must match the
/// device partial's latency distribution exactly.
fn device_config(d: &DeviceSpec, requests: u64) -> E2eConfig {
    let mut cfg = E2eConfig::new(d.model, d.dtype)
        .engine(d.engine)
        .run_mode(RunMode::AndroidApp)
        .soc(d.soc)
        .iterations(requests as usize)
        .seed(d.run_seed)
        .initial_temp(d.ambient_c);
    if let Some(co) = d.co_tenant {
        cfg = cfg.background(d.background_loops + 1, co.engine);
    } else if d.background_loops > 0 {
        cfg = cfg.background(d.background_loops, BACKGROUND_ENGINE);
    }
    if let Some((kind, start_ns)) = d.fault {
        cfg =
            cfg.fault_plan(FaultPlan::new(d.run_seed).sustained(kind, SimTime::from_ns(start_ns)));
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a workload's inputs contain, as text.
    fn fingerprint(inputs: &Inputs) -> String {
        match inputs {
            Inputs::Cli { grid, jobs } => format!("{grid:?}{jobs:?}"),
            Inputs::Fleet {
                spec,
                devices,
                requests,
            } => format!("{spec:?}{devices:?}{requests}"),
            Inputs::Serve { configs } => format!("{configs:?}"),
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_seed_alone_fixes_the_inputs() {
        for w in Workload::ALL {
            let a = fingerprint(&Inputs::generate(w, 5, Sizes::TINY));
            let b = fingerprint(&Inputs::generate(w, 5, Sizes::TINY));
            let c = fingerprint(&Inputs::generate(w, 6, Sizes::TINY));
            assert_eq!(a, b, "{}: same seed, same inputs", w.name());
            assert_ne!(a, c, "{}: another seed, other inputs", w.name());
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_digests() {
        for w in Workload::ALL {
            let a = run_round(&setup(w, 3, Sizes::TINY), None);
            let b = run_round(&setup(w, 3, Sizes::TINY), None);
            assert!(a.artifact.is_some(), "{}: round completed", w.name());
            assert_eq!(a.artifact, b.artifact, "{}", w.name());
            assert_eq!(a.unit_digests, b.unit_digests, "{}", w.name());
            assert_eq!(a.inferences, b.inferences, "{}", w.name());
            assert!(a.inferences > 0);
        }
    }

    #[test]
    fn probes_stay_out_of_the_round() {
        for w in Workload::ALL {
            let inputs = setup(w, 4, Sizes::TINY);
            let plain = run_round(&inputs, None);
            let noisy = || {
                let junk: Vec<Box<u64>> = (0..1000).map(Box::new).collect();
                Ok(junk.len() as f64)
            };
            let probe = Probe {
                every: 1,
                run: &noisy,
            };
            let probed = run_round(&inputs, Some(&probe));
            assert_eq!(probed.probes.len(), inputs.units(), "{}", w.name());
            assert_eq!(probed.allocs, plain.allocs, "{}", w.name());
            assert_eq!(probed.artifact, plain.artifact, "{}", w.name());
        }
    }

    #[test]
    fn replays_reproduce_the_rounds() {
        for w in [Workload::CliSweep, Workload::FleetApp] {
            let inputs = setup(w, 2, Sizes::TINY);
            let round = run_round(&inputs, None);
            let r = replay(&inputs, &round);
            assert_eq!(r.units as usize, inputs.units(), "{}", w.name());
            assert_eq!(r.mismatches, 0, "{}", w.name());
            assert!(r.tasks > 0);
        }
        let serve = setup(Workload::ServeMix, 2, Sizes::TINY);
        assert_eq!(replay(&serve, &run_round(&serve, None)), Replay::default());
    }

    #[test]
    fn the_fleet_slice_keeps_its_composition() {
        let strata = |seed| {
            let Inputs::Fleet { devices, .. } =
                Inputs::generate(Workload::FleetApp, seed, Sizes::BENCH)
            else {
                unreachable!("fleet inputs")
            };
            assert!(devices.iter().enumerate().all(|(k, d)| d.id == k));
            let mut s: Vec<Stratum> = devices.iter().map(stratum).collect();
            s.sort();
            s
        };
        assert_eq!(strata(1), strata(2));
        assert_eq!(strata(1).len(), Sizes::BENCH.fleet_devices);
    }
}
