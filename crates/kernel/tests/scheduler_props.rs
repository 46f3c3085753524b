//! Property tests for the machine: scheduler conservation, FastRPC
//! structure and timing monotonicity. Randomized cases are driven by the
//! deterministic simulator RNG.

use aitax_des::{SimRng, SimSpan};
use aitax_kernel::{CoreMask, Machine, RpcDevice, RpcInvoke, TaskSpec, Work};
use aitax_soc::{SocCatalog, SocId};
use std::cell::Cell;
use std::rc::Rc;

fn machine(seed: u64) -> Machine {
    Machine::new(SocCatalog::get(SocId::Sd845), seed)
}

/// No task is lost or duplicated, no core is left running, and the
/// clock advances whenever work was submitted.
#[test]
fn no_lost_work() {
    let mut rng = SimRng::seed_from(0x5C4E_0001);
    for case in 0..32 {
        let seed = rng.next_u64();
        let njobs = rng.uniform_u64(1, 40) as usize;
        let jobs: Vec<(u64, u8)> = (0..njobs)
            .map(|_| (rng.uniform_u64(1, 100), rng.uniform_u64(0, 4) as u8))
            .collect();
        let mut m = machine(seed);
        let done = Rc::new(Cell::new(0usize));
        for (units, class) in &jobs {
            let work = match class % 2 {
                0 => Work::Fp32Flops(*units as f64 * 1e6),
                _ => Work::Cycles(*units as f64 * 1e5),
            };
            let spec = match class {
                0 => TaskSpec::foreground("t", work),
                1 => TaskSpec::background("t", work),
                2 => TaskSpec::kernel("t", work),
                _ => TaskSpec::nnapi_fallback("t", work),
            };
            let d = done.clone();
            m.submit_cpu(spec, move |_| d.set(d.get() + 1));
        }
        m.run_until_idle();
        assert_eq!(done.get(), jobs.len(), "case {case}");
        assert_eq!(m.cpu_load(), 0, "case {case}");
        assert!(m.now().as_ns() > 0, "case {case}");
    }
}

/// Fork-join gangs complete exactly once, regardless of shape.
#[test]
fn parallel_join_fires_once() {
    let mut rng = SimRng::seed_from(0x5C4E_0002);
    for case in 0..32 {
        let seed = rng.next_u64();
        let width = rng.uniform_u64(1, 12) as usize;
        let units = rng.uniform_u64(1, 50);
        let mut m = machine(seed);
        let joined = Rc::new(Cell::new(0usize));
        let j = joined.clone();
        let gang = TaskSpec::foreground("g", Work::Fp32Flops(units as f64 * 1e6));
        m.submit_cpu_parallel(gang, width, move |_| j.set(j.get() + 1));
        m.run_until_idle();
        assert_eq!(joined.get(), 1, "case {case}");
    }
}

/// More work on a pinned core never finishes sooner (monotonicity).
#[test]
fn pinned_work_is_monotone() {
    let time_for = |mflops: u64| {
        let mut m = machine(7);
        m.submit_cpu(
            TaskSpec::foreground("t", Work::Fp32Flops(mflops as f64 * 1e6))
                .with_affinity(CoreMask::of(&[0])),
            |_| {},
        );
        m.run_until_idle();
        m.now()
    };
    let mut rng = SimRng::seed_from(0x5C4E_0003);
    for case in 0..16 {
        let base = rng.uniform_u64(1, 60);
        assert!(time_for(base * 2) > time_for(base), "case {case}");
    }
}

/// FastRPC latency grows with payload size and DSP work, and the
/// session is mapped exactly once.
#[test]
fn rpc_monotone_in_inputs() {
    let run = |bytes: u64, work_us: f64| {
        let mut m = machine(3);
        // Warm the session first.
        m.fastrpc_invoke(
            RpcInvoke {
                label: "warm".into(),
                in_bytes: 16,
                out_bytes: 16,
                dsp_work: SimSpan::from_us(1.0),
                device: RpcDevice::Dsp,
                ..Default::default()
            },
            |_| {},
        );
        m.run_until_idle();
        let t0 = m.now();
        let done = Rc::new(Cell::new(SimSpan::ZERO));
        let d = done.clone();
        m.fastrpc_invoke(
            RpcInvoke {
                label: "x".into(),
                in_bytes: bytes,
                out_bytes: 64,
                dsp_work: SimSpan::from_us(work_us),
                device: RpcDevice::Dsp,
                ..Default::default()
            },
            move |mm| d.set(mm.now() - t0),
        );
        m.run_until_idle();
        assert!(m.dsp_session_mapped(), "session must stay mapped");
        done.get()
    };
    let mut rng = SimRng::seed_from(0x5C4E_0004);
    for case in 0..8 {
        let bytes = rng.uniform_u64(1, 4_000_000);
        let work_us = rng.uniform(1.0, 20_000.0);
        let small = run(bytes, work_us);
        let bigger_payload = run(bytes * 2, work_us);
        let more_work = run(bytes, work_us * 2.0);
        assert!(bigger_payload >= small, "case {case}");
        assert!(more_work > small, "case {case}");
        // Total latency always exceeds the pure DSP work.
        assert!(small > SimSpan::from_us(work_us), "case {case}");
    }
}

/// Timers fire at exactly the requested instants, in order.
#[test]
fn timers_are_exact() {
    let mut rng = SimRng::seed_from(0x5C4E_0005);
    for case in 0..32 {
        let n = rng.uniform_u64(1, 30) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, 10_000_000)).collect();
        let mut m = machine(1);
        let fired: Rc<std::cell::RefCell<Vec<u64>>> = Rc::default();
        for &d in &delays {
            let f = fired.clone();
            m.after(SimSpan::from_ns(d), move |mm| {
                f.borrow_mut().push(mm.now().as_ns());
            });
        }
        m.run_until_idle();
        let mut expect = delays.clone();
        expect.sort_unstable();
        assert_eq!(&*fired.borrow(), &expect, "case {case}");
    }
}
