//! Integration tests asserting the *shape* of every headline result the
//! paper reports — who wins, by roughly what factor, and in which
//! direction the trends run (absolute numbers are simulator-calibrated).

use aitax::core::experiment::{self, ExperimentOpts};
use aitax::core::pipeline::E2eConfig;
use aitax::core::runmode::RunMode;
use aitax::core::stage::Stage;
use aitax::framework::Engine;
use aitax::lab::scenarios;
use aitax::models::zoo::ModelId;
use aitax::tensor::DType;
use aitax::testkit::{assert_monotone, assert_ratio_within, assert_within, Direction};

fn opts() -> ExperimentOpts {
    ExperimentOpts {
        iterations: 30,
        seed: 1,
    }
}

/// Headline claim 1 (§IV-A, Figs. 3–4): in a real app, capture +
/// pre-processing can reach ~50% of end-to-end time — ~2× inference for
/// quantized MobileNet — while being negligible in the CLI benchmark.
#[test]
fn capture_and_preprocessing_dominate_apps_not_benchmarks() {
    let app = E2eConfig::new(ModelId::MobileNetV1, DType::I8)
        .engine(Engine::nnapi())
        .run_mode(RunMode::AndroidApp)
        .iterations(40)
        .run();
    let cap = app.summary(Stage::DataCapture).mean_ms();
    let pre = app.summary(Stage::PreProcessing).mean_ms();
    let inf = app.summary(Stage::Inference).mean_ms();
    assert_ratio_within("app capture+preproc vs inference", cap + pre, inf, 1.2, 3.2);
    assert_within("app AI-tax fraction", app.ai_tax_fraction(), 0.45, 1.0);

    let bench = E2eConfig::new(ModelId::MobileNetV1, DType::F32)
        .engine(Engine::nnapi())
        .run_mode(RunMode::CliBenchmark)
        .iterations(40)
        .run();
    let bpre = bench.summary(Stage::PreProcessing).mean_ms();
    let binf = bench.summary(Stage::Inference).mean_ms();
    assert_ratio_within("benchmark preproc vs inference", bpre, binf, 0.0, 0.1);
}

/// Headline claim 2 (Fig. 5): NNAPI with broken driver support is ≈7×
/// slower than a single TFLite CPU thread for quantized
/// EfficientNet-Lite0, and the ordering is hexagon < cpu4 < cpu1 << nnapi.
#[test]
fn fig5_nnapi_fallback_is_roughly_7x() {
    let r = experiment::fig5(opts());
    assert_within(
        "fig5 NNAPI vs cpu-1t degradation",
        r.nnapi_vs_cpu1,
        4.5,
        11.0,
    );
    let ms: Vec<f64> = r
        .table
        .rows()
        .iter()
        .map(|row| row[1].parse().unwrap())
        .collect();
    // hexagon < cpu4 < cpu1 < nnapi
    assert_monotone("fig5 target ordering", &ms, Direction::Increasing, 0.0);
}

/// Headline claim 4 (Fig. 8): offload overhead dominates small inference
/// counts and amortizes away with consecutive inferences.
#[test]
fn fig8_offload_amortizes() {
    let t = experiment::fig8(ExperimentOpts {
        iterations: 30,
        seed: 1,
    });
    let per_inf: Vec<f64> = t.rows().iter().map(|r| r[2].parse().unwrap()).collect();
    assert!(per_inf.len() >= 5);
    // First inference pays setup: much more expensive than steady state.
    assert_ratio_within(
        "fig8 cold start vs steady state",
        per_inf[0],
        *per_inf.last().unwrap(),
        3.0,
        f64::INFINITY,
    );
    // Monotone (within noise) decrease.
    assert_monotone(
        "fig8 per-inference cost",
        &per_inf,
        Direction::Decreasing,
        0.10,
    );
}

/// Headline claim 5 (Figs. 9–10): DSP contention inflates inference
/// linearly and leaves pre-processing flat; CPU contention does the
/// opposite.
#[test]
fn fig9_fig10_multitenancy_shapes() {
    let quick = ExperimentOpts {
        iterations: 12,
        seed: 1,
    };
    let dsp = experiment::fig9(quick);
    let rows = dsp.rows();
    let inf = |i: usize| rows[i][3].parse::<f64>().unwrap();
    let pre = |i: usize| rows[i][2].parse::<f64>().unwrap();
    let last = rows.len() - 1;
    assert_ratio_within(
        "fig9 inference under DSP contention",
        inf(last),
        inf(0),
        3.0,
        f64::INFINITY,
    );
    assert_ratio_within(
        "fig9 preproc under DSP contention",
        pre(last),
        pre(0),
        0.0,
        1.5,
    );

    // Fig. 10 runs as the lab `fig10` grid: one scenario per background
    // count, labelled by the count.
    let cpu = aitax::lab::sweep(&scenarios::fig10(quick.iterations, quick.seed), 2);
    let mean = |b: &str, stage| cpu.stage_mean_ms(b, stage).unwrap();
    assert_ratio_within(
        "fig10 preproc under CPU contention",
        mean("8", Stage::PreProcessing),
        mean("0", Stage::PreProcessing),
        1.2,
        f64::INFINITY,
    );
    assert_ratio_within(
        "fig10 inference under CPU contention",
        mean("8", Stage::Inference),
        mean("0", Stage::Inference),
        0.0,
        1.25,
    );
}

/// Headline claim 6 (Fig. 11): in-app run-to-run deviation reaches tens
/// of percent while the benchmark distribution stays tight.
#[test]
fn fig11_variability_gap() {
    // Fig. 11 runs as the lab `fig11` grid: each mode's seeded repeats
    // pool into one distribution.
    let r = aitax::lab::sweep(&scenarios::fig11(120, 1), 2);
    let deviation = |mode: RunMode| {
        r.scenario(&mode.to_string())
            .unwrap()
            .e2e
            .max_dev_from_median
    };
    let benchmark_deviation = deviation(RunMode::CliBenchmark);
    let app_deviation = deviation(RunMode::AndroidApp);
    assert_within("fig11 benchmark deviation", benchmark_deviation, 0.0, 0.05);
    assert_within("fig11 app deviation", app_deviation, 0.10, 0.60);
    assert_ratio_within(
        "fig11 app vs benchmark spread",
        app_deviation,
        benchmark_deviation,
        4.0,
        f64::INFINITY,
    );
}

/// Fig. 3: the same model is consistently slower end-to-end as a real app
/// than as a CLI benchmark (e.g. Inception v3: ≈250 → ≈350 ms).
#[test]
fn fig3_apps_slower_than_benchmarks() {
    for (model, dtype) in [
        (ModelId::MobileNetV1, DType::F32),
        (ModelId::InceptionV3, DType::F32),
    ] {
        let cli = E2eConfig::new(model, dtype)
            .run_mode(RunMode::CliBenchmark)
            .iterations(25)
            .run();
        let app = E2eConfig::new(model, dtype)
            .run_mode(RunMode::AndroidApp)
            .iterations(25)
            .run();
        let c = cli.e2e_summary().mean_ms();
        let a = app.e2e_summary().mean_ms();
        assert_ratio_within(&format!("{model} app vs cli"), a, c, 1.08, f64::INFINITY);
    }
}

/// §IV text: Inception v3 fp32 ≈ 250 ms benchmark / ≈ 350 ms in-app (the
/// one absolute anchor we calibrate to, within a generous band).
#[test]
fn inception_v3_absolute_anchor() {
    let cli = E2eConfig::new(ModelId::InceptionV3, DType::F32)
        .run_mode(RunMode::CliBenchmark)
        .iterations(20)
        .run();
    let e2e = cli.e2e_summary().mean_ms();
    assert_within("Inception v3 benchmark e2e ms", e2e, 170.0, 340.0);
}

/// §IV-B: vendor SNPE beats both the CPU and NNAPI on the DSP.
#[test]
fn snpe_wins_on_dsp() {
    let inf = |engine: Engine| {
        E2eConfig::new(ModelId::MobileNetV1, DType::I8)
            .engine(engine)
            .iterations(25)
            .run()
            .summary(Stage::Inference)
            .mean_ms()
    };
    let snpe = inf(Engine::SnpeDsp);
    let cpu = inf(Engine::tflite_cpu(4));
    let nnapi = inf(Engine::nnapi());
    assert!(snpe < cpu, "snpe {snpe:.1} vs cpu {cpu:.1}");
    assert!(snpe < nnapi, "snpe {snpe:.1} vs nnapi {nnapi:.1}");
}

/// §III-D methodology: starting the suite on a warm (soft-throttling)
/// chip inflates latency by the CPU throttle step — ×1/0.85 ≈ 15–20% —
/// which is exactly why the paper cools to 33 °C between runs.
#[test]
fn warm_start_inflates_latency_15_to_20_percent() {
    let inference_ms = |temp_c: Option<f64>| {
        let mut cfg = E2eConfig::new(ModelId::MobileNetV1, DType::F32)
            .engine(Engine::tflite_cpu(4))
            .run_mode(RunMode::CliBenchmark)
            .iterations(30);
        if let Some(t) = temp_c {
            cfg = cfg.initial_temp(t);
        }
        cfg.run().summary(Stage::Inference).mean_ms()
    };
    let cooled = inference_ms(None);
    let warm = inference_ms(Some(72.0));
    assert_ratio_within("warm-start inflation", warm, cooled, 1.12, 1.22);
}

/// Fig. 5 corollary: the same EfficientNet INT8 APK is dramatically
/// faster on the SD865, whose driver can place per-channel weights on
/// the DSP.
#[test]
fn newer_driver_fixes_efficientnet() {
    let on = |soc| {
        E2eConfig::new(ModelId::EfficientNetLite0, DType::I8)
            .engine(Engine::nnapi())
            .soc(soc)
            .iterations(15)
            .run()
            .summary(Stage::Inference)
            .mean_ms()
    };
    let sd845 = on(aitax::soc::SocId::Sd845);
    let sd865 = on(aitax::soc::SocId::Sd865);
    assert_ratio_within(
        "SD845 vs SD865 EfficientNet",
        sd845,
        sd865,
        10.0,
        f64::INFINITY,
    );
}
