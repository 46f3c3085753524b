//! TFLite-like interpreter planning: CPU backend, GPU delegate, Hexagon
//! delegate.

use aitax_des::SimSpan;
use aitax_models::{Graph, OpKind};
use aitax_soc::SocSpec;

use crate::cost;
use crate::session::{ExecTarget, Partition, Plan};

/// Base model-load time plus per-op graph preparation.
pub(crate) fn base_compile_span(graph: &Graph) -> SimSpan {
    SimSpan::from_ms(2.0)
        + SimSpan::from_us(20.0) * graph.len() as f64
        // Weight mmap/parse scales with file size.
        + SimSpan::from_secs(graph.weight_bytes() as f64 / 6.0e9)
}

/// Whether the open-source Hexagon delegate supports an op kind
/// (quantized graphs only; it has no resize/detection/NLP kernels).
pub(crate) fn hexagon_delegate_supports(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Conv2d
            | OpKind::DepthwiseConv2d
            | OpKind::FullyConnected
            | OpKind::AvgPool
            | OpKind::MaxPool
            | OpKind::Add
            | OpKind::Concat
            | OpKind::Activation
            | OpKind::Reshape
            | OpKind::Softmax
            | OpKind::Mean
    )
}

/// Whether the GPU delegate supports an op kind (float graphs).
pub(crate) fn gpu_delegate_supports(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Conv2d
            | OpKind::DepthwiseConv2d
            | OpKind::FullyConnected
            | OpKind::AvgPool
            | OpKind::MaxPool
            | OpKind::Add
            | OpKind::Concat
            | OpKind::Activation
            | OpKind::Reshape
            | OpKind::ResizeBilinear
            | OpKind::Softmax
            | OpKind::Mean
    )
}

/// Splits a graph into contiguous partitions by a per-op predicate:
/// `true` ops go to `accel`, `false` ops to the CPU target.
pub(crate) fn partition_by(
    graph: &Graph,
    accel: ExecTarget,
    cpu: ExecTarget,
    supported: impl Fn(OpKind) -> bool,
) -> Vec<Partition> {
    let nodes = graph.nodes();
    let elem_size = graph.dtype().size_bytes() as u64;
    let mut parts: Vec<Partition> = Vec::new();
    let mut start = 0usize;
    let mut cur_accel = supported(nodes[0].op.kind());
    for i in 1..=nodes.len() {
        let flip = i == nodes.len() || supported(nodes[i].op.kind()) != cur_accel;
        if flip {
            let macs = nodes[start..i].iter().map(|n| n.op.macs()).sum();
            let in_bytes = if start == 0 {
                graph.input_bytes()
            } else {
                nodes[start - 1].op.output_elements() * elem_size
            };
            let out_bytes = nodes[i - 1].op.output_elements() * elem_size;
            parts.push(Partition {
                target: if cur_accel { accel } else { cpu },
                ops: (start, i),
                macs,
                in_bytes,
                out_bytes,
            });
            start = i;
            if i < nodes.len() {
                cur_accel = supported(nodes[i].op.kind());
            }
        }
    }
    parts
}

/// Pure CPU plan: one partition over the whole graph.
pub(crate) fn plan_cpu(graph: &Graph, threads: usize) -> Plan {
    let partitions = vec![Partition {
        target: ExecTarget::TfLiteCpu { threads },
        ops: (0, graph.len()),
        macs: graph.total_macs(),
        in_bytes: graph.input_bytes(),
        out_bytes: graph.output_bytes(),
    }];
    Plan::new(graph, partitions, base_compile_span(graph), false)
}

/// GPU-delegate plan: supported runs on the GPU, the rest on CPU threads.
pub(crate) fn plan_gpu(graph: &Graph, threads: usize) -> Plan {
    let partitions = partition_by(
        graph,
        ExecTarget::Gpu {
            efficiency: cost::GPU_DELEGATE_EFFICIENCY,
        },
        ExecTarget::TfLiteCpu { threads },
        gpu_delegate_supports,
    );
    // Shader compilation makes GPU delegate init expensive.
    let compile_span = base_compile_span(graph) + SimSpan::from_ms(60.0);
    Plan::new(graph, partitions, compile_span, false)
}

/// Hexagon-delegate plan: supported runs offload via FastRPC, the rest on
/// CPU threads.
pub(crate) fn plan_hexagon(graph: &Graph, soc: &SocSpec, threads: usize) -> Plan {
    let partitions = partition_by(
        graph,
        ExecTarget::Dsp {
            efficiency: cost::HEXAGON_DELEGATE_EFFICIENCY,
        },
        ExecTarget::TfLiteCpu { threads },
        hexagon_delegate_supports,
    );
    // Delegate prepare uploads the weights to DSP-visible memory.
    let weight_upload =
        SimSpan::from_secs(graph.weight_bytes() as f64 / soc.memory.axi_bytes_per_sec);
    Plan::new(
        graph,
        partitions,
        base_compile_span(graph) + SimSpan::from_ms(8.0) + weight_upload,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_models::zoo::{ModelId, Zoo};
    use aitax_soc::{SocCatalog, SocId};
    use aitax_tensor::DType;

    fn graph(id: ModelId, dtype: DType) -> Graph {
        Zoo::entry(id).build_graph_with(dtype)
    }

    #[test]
    fn cpu_plan_covers_all_ops_once() {
        let g = graph(ModelId::InceptionV3, DType::F32);
        let plan = plan_cpu(&g, 4);
        assert_eq!(plan.partitions[0].ops, (0, g.len()));
        assert_eq!(plan.partitions[0].macs, g.total_macs());
    }

    #[test]
    fn partitions_tile_the_graph_exactly() {
        // Soundness property: every op appears in exactly one partition,
        // in order.
        for id in ModelId::ALL {
            let g = graph(id, DType::F32);
            let parts = partition_by(
                &g,
                ExecTarget::Gpu { efficiency: 0.2 },
                ExecTarget::TfLiteCpu { threads: 4 },
                gpu_delegate_supports,
            );
            let mut cursor = 0;
            for p in &parts {
                assert_eq!(p.ops.0, cursor, "{id:?}: gap or overlap");
                assert!(p.ops.1 > p.ops.0, "{id:?}: empty partition");
                cursor = p.ops.1;
            }
            assert_eq!(cursor, g.len(), "{id:?}: ops uncovered");
            let macs: u64 = parts.iter().map(|p| p.macs).sum();
            assert_eq!(macs, g.total_macs(), "{id:?}: MACs not conserved");
        }
    }

    #[test]
    fn adjacent_partitions_alternate_targets() {
        let g = graph(ModelId::SsdMobileNetV2, DType::I8);
        let parts = partition_by(
            &g,
            ExecTarget::Dsp { efficiency: 0.3 },
            ExecTarget::TfLiteCpu { threads: 4 },
            hexagon_delegate_supports,
        );
        for pair in parts.windows(2) {
            assert_ne!(
                std::mem::discriminant(&pair[0].target),
                std::mem::discriminant(&pair[1].target),
                "adjacent partitions with the same target should be merged"
            );
        }
    }

    #[test]
    fn hexagon_splits_ssd_at_detection_post_process() {
        let g = graph(ModelId::SsdMobileNetV2, DType::I8);
        let plan = plan_hexagon(&g, SocCatalog::get(SocId::Sd845), 4);
        // The custom DetectionPostProcess op must be a CPU partition.
        let last = plan.partitions.last().unwrap();
        assert!(matches!(last.target, ExecTarget::TfLiteCpu { .. }));
        assert!(plan.partitions.len() >= 2);
    }

    #[test]
    fn mobilenet_int8_offloads_almost_fully_to_dsp() {
        let g = graph(ModelId::MobileNetV1, DType::I8);
        let plan = plan_hexagon(&g, SocCatalog::get(SocId::Sd845), 4);
        assert!(
            plan.offloaded_mac_fraction() > 0.95,
            "got {}",
            plan.offloaded_mac_fraction()
        );
    }

    #[test]
    fn gpu_init_pays_shader_compilation() {
        let g = graph(ModelId::MobileNetV1, DType::F32);
        let cpu = plan_cpu(&g, 4);
        let gpu = plan_gpu(&g, 4);
        assert!(gpu.compile_span > cpu.compile_span + SimSpan::from_ms(40.0));
    }

    #[test]
    fn compile_span_scales_with_model_size() {
        let small = base_compile_span(&graph(ModelId::MobileNetV1, DType::F32));
        let big = base_compile_span(&graph(ModelId::InceptionV4, DType::F32));
        assert!(big > small * 2.0);
    }
}
