//! SNPE-like vendor runtime.
//!
//! §IV-B: "When we switch the framework to the vendor-optimized Qualcomm
//! SNPE, the DSP's performance is significantly better. The models'
//! performance on the DSP outperforms the CPU (as one would expect). ...
//! The SoC vendor-specific software is highly tuned for the SoC and
//! provides optimized support for the neural network operators."
//!
//! We model that as: complete operator coverage on the chosen runtime
//! (no partition churn — the whole graph runs as one fused DSP/GPU
//! program) at a higher delivered efficiency than the generic stacks.

use aitax_des::SimSpan;
use aitax_models::Graph;
use aitax_soc::SocSpec;

use crate::cost;
use crate::session::{ExecTarget, Partition, Plan};
use crate::tflite::base_compile_span;

/// Plans a quantized graph as one fused program on the DSP runtime.
pub(crate) fn plan_dsp(graph: &Graph, soc: &SocSpec) -> Plan {
    let partitions = vec![Partition {
        target: ExecTarget::Dsp {
            efficiency: cost::SNPE_DSP_EFFICIENCY,
        },
        ops: (0, graph.len()),
        macs: graph.total_macs(),
        in_bytes: graph.input_bytes(),
        out_bytes: graph.output_bytes(),
    }];
    // DLC conversion/load + weight upload to DSP memory.
    let compile = base_compile_span(graph)
        + SimSpan::from_ms(12.0)
        + SimSpan::from_secs(graph.weight_bytes() as f64 / soc.memory.axi_bytes_per_sec);
    Plan::new(graph, partitions, compile, false)
}

/// Plans a graph as one fused program on the GPU runtime.
pub(crate) fn plan_gpu(graph: &Graph) -> Plan {
    let partitions = vec![Partition {
        target: ExecTarget::Gpu {
            efficiency: cost::GPU_DELEGATE_EFFICIENCY * 1.3,
        },
        ops: (0, graph.len()),
        macs: graph.total_macs(),
        in_bytes: graph.input_bytes(),
        out_bytes: graph.output_bytes(),
    }];
    Plan::new(
        graph,
        partitions,
        base_compile_span(graph) + SimSpan::from_ms(40.0),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Engine, Session};
    use aitax_kernel::Machine;
    use aitax_models::zoo::{ModelId, Zoo};
    use aitax_soc::{SocCatalog, SocId};
    use aitax_tensor::DType;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::Arc;

    fn soc() -> &'static SocSpec {
        SocCatalog::get(SocId::Sd845)
    }

    fn invoke_ms(session: &Session, m: &mut Machine) -> f64 {
        let start = m.now();
        let done = Rc::new(Cell::new(f64::NAN));
        let d = done.clone();
        session.invoke(m, move |mm| d.set((mm.now() - start).as_ms()));
        m.run_until_idle();
        done.get()
    }

    #[test]
    fn snpe_is_single_partition() {
        let g = Arc::new(Zoo::entry(ModelId::MobileNetV1).build_graph_with(DType::I8));
        let s = Session::compile(Engine::SnpeDsp, g, soc()).unwrap();
        assert_eq!(s.plan().partitions.len(), 1);
        assert_eq!(s.plan().offloaded_mac_fraction(), 1.0);
    }

    #[test]
    fn snpe_dsp_beats_cpu_for_quantized_models() {
        // The §IV-B comparison: vendor DSP runtime outperforms the CPU.
        let g = Arc::new(Zoo::entry(ModelId::MobileNetV1).build_graph_with(DType::I8));
        let snpe = Session::compile(Engine::SnpeDsp, g.clone(), soc()).unwrap();
        let cpu = Session::compile(Engine::tflite_cpu(4), g, soc()).unwrap();
        let mut m1 = Machine::new(soc(), 9);
        let mut m2 = Machine::new(soc(), 9);
        // Warm the DSP session so we compare steady state.
        invoke_ms(&snpe, &mut m1);
        let t_snpe = invoke_ms(&snpe, &mut m1);
        let t_cpu = invoke_ms(&cpu, &mut m2);
        assert!(
            t_snpe < t_cpu,
            "SNPE DSP ({t_snpe}ms) should beat CPU-4T ({t_cpu}ms)"
        );
    }

    #[test]
    fn snpe_dsp_beats_nnapi_dsp() {
        // §IV-B: vendor runtime beats NNAPI even when both hit the DSP.
        let g = Arc::new(Zoo::entry(ModelId::MobileNetV1).build_graph_with(DType::I8));
        let snpe = Session::compile(Engine::SnpeDsp, g.clone(), soc()).unwrap();
        let nnapi = Session::compile(Engine::nnapi(), g, soc()).unwrap();
        let mut m1 = Machine::new(soc(), 9);
        let mut m2 = Machine::new(soc(), 9);
        invoke_ms(&snpe, &mut m1);
        invoke_ms(&nnapi, &mut m2);
        let t_snpe = invoke_ms(&snpe, &mut m1);
        let t_nnapi = invoke_ms(&nnapi, &mut m2);
        assert!(
            t_snpe < t_nnapi,
            "SNPE ({t_snpe}ms) should beat NNAPI ({t_nnapi}ms)"
        );
    }

    #[test]
    fn snpe_rejects_float_on_dsp() {
        let g = Arc::new(Zoo::entry(ModelId::MobileNetV1).build_graph());
        assert!(Session::compile(Engine::SnpeDsp, g, soc()).is_err());
    }
}
