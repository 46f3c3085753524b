//! Quickstart: classify one camera frame end-to-end and print the AI tax.
//!
//! This runs the *whole* stack: a synthetic camera frame is really
//! converted (NV21 → ARGB), cropped, resized and normalized by the
//! `aitax-pipeline` implementations; the same work plus MobileNet v1
//! inference is then placed on a simulated Pixel 3 (Snapdragon 845) and
//! the resulting latency is decomposed stage by stage.
//!
//! Run with: `cargo run --example quickstart`

use aitax::core::pipeline::E2eConfig;
use aitax::core::report::fmt_ms;
use aitax::core::runmode::RunMode;
use aitax::core::stage::Stage;
use aitax::framework::Engine;
use aitax::models::zoo::ModelId;
use aitax::pipeline::image::YuvNv21Image;
use aitax::pipeline::post::topk;
use aitax::pipeline::preprocess;
use aitax::tensor::DType;

fn main() {
    // --- Part 1: the real pixel pipeline -------------------------------
    let frame = YuvNv21Image::synthetic(640, 480, 42);
    println!(
        "captured a {}x{} NV21 frame ({} bytes)",
        frame.width(),
        frame.height(),
        frame.byte_len()
    );

    let argb = preprocess::nv21_to_argb(&frame);
    let cropped = preprocess::center_crop(&argb, 480, 480);
    let scaled = preprocess::resize_bilinear(&cropped, 224, 224);
    let tensor = preprocess::normalize_to_tensor(&scaled, 127.5, 127.5);
    println!("pre-processed into a {} input tensor", tensor.shape());

    // A stand-in score vector (we model latency, not trained weights).
    let scores: Vec<f32> = (0..1001)
        .map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 / 1000.0)
        .collect();
    let top = topk::top_k(&scores, 3);
    println!(
        "top-3 classes: {:?}",
        top.iter().map(|c| c.class).collect::<Vec<_>>()
    );

    // --- Part 2: the same pipeline on the simulated phone --------------
    let report = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(Engine::nnapi())
        .run_mode(RunMode::AndroidApp)
        .iterations(100)
        .seed(42)
        .run();

    println!("\nMobileNet v1 int8 via NNAPI inside an Android app (SD845):");
    for stage in Stage::ALL {
        println!(
            "  {:<16} {:>8} ms",
            stage.to_string(),
            fmt_ms(report.summary(stage).mean_ms())
        );
    }
    println!(
        "  {:<16} {:>8} ms",
        "end-to-end",
        fmt_ms(report.e2e_summary().mean_ms())
    );
    println!(
        "\nAI tax: {:.0}% of end-to-end latency is NOT model execution.",
        report.ai_tax_fraction() * 100.0
    );
}
