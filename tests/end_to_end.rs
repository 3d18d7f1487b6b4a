//! End-to-end integration: train a model on the synthetic task, emulate
//! number formats through the full GoldenEye pipeline, and check the
//! qualitative relationships the paper's use case A relies on.

use goldeneye::{accuracy_sweep, evaluate_accuracy, GoldenEye, LayerFilter, ParamSnapshot};
use models::DeitConfig;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig, VisionTransformer};
use nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// A tiny trained CNN shared across tests (training once keeps the suite
/// fast). `OnceLock` + rebuild because models aren't `Sync`; we retrain
/// per test via stored weights instead.
fn trained_cnn() -> (ResNet, SyntheticDataset) {
    type SavedParams = Vec<(String, Vec<f32>, Vec<usize>)>;
    static WEIGHTS: OnceLock<SavedParams> = OnceLock::new();
    let mut rng = StdRng::seed_from_u64(77);
    let model = ResNet::new(ResNetConfig::tiny(8), &mut rng);
    let data = SyntheticDataset::generate(96, 16, 4, 31);
    let weights = WEIGHTS.get_or_init(|| {
        train(
            &model,
            &data,
            &TrainConfig { epochs: 8, batch_size: 16, lr: 3e-3, ..Default::default() },
        );
        model
            .params()
            .iter()
            .map(|p| {
                let t = p.get();
                (p.name().to_string(), t.as_slice().to_vec(), t.dims().to_vec())
            })
            .collect()
    });
    // Load the cached weights (also exercised when the OnceLock was just
    // initialised — harmless).
    let mut i = 0;
    model.visit_params(&mut |p| {
        let (name, data, dims) = &weights[i];
        assert_eq!(p.name(), name);
        p.set(tensor::Tensor::from_vec(data.clone(), dims.clone()));
        i += 1;
    });
    (model, data)
}

#[test]
fn fp32_emulation_equals_native_accuracy() {
    let (model, data) = trained_cnn();
    let native = models::evaluate(&model, &data, 64, 32);
    assert!(native > 0.5, "training failed: acc {native}");
    let ge = GoldenEye::parse("fp32").unwrap();
    let emulated = evaluate_accuracy(&ge, &model, &data, 64, 32);
    assert_eq!(native, emulated);
}

#[test]
fn accuracy_degrades_with_precision() {
    let (model, data) = trained_cnn();
    let points =
        accuracy_sweep(&model, &data, &["fp32", "fp16", "fp:e4m3", "fp:e2m1"], 64, 32).unwrap();
    let acc: Vec<f32> = points.iter().map(|p| p.accuracy).collect();
    // Wide formats are lossless here; the 4-bit one must hurt.
    assert!((acc[0] - acc[1]).abs() < 0.05, "fp16 ≈ fp32");
    assert!(acc[3] < acc[0], "e2m1 ({}) should lose accuracy vs fp32 ({})", acc[3], acc[0]);
}

#[test]
fn adaptivfloat_beats_plain_fp_at_same_width() {
    // The paper's Figure 4 observation: AFP's movable window preserves
    // accuracy at widths where plain FP collapses. AFP is defined as FP
    // without denormals plus the bias register, so the apples-to-apples
    // comparison is against `fp:e2m5:nodn` — a fixed two-binade window
    // [1, 3.94) that flushes most activations, where AFP re-centres.
    let (model, data) = trained_cnn();
    let fp = accuracy_sweep(&model, &data, &["fp:e2m5:nodn"], 64, 32).unwrap()[0].accuracy;
    let afp = accuracy_sweep(&model, &data, &["afp:e2m5"], 64, 32).unwrap()[0].accuracy;
    assert!(afp >= fp, "AFP e2m5 ({afp}) should be at least as accurate as FP e2m5 w/o DN ({fp})");
}

#[test]
fn transformer_pipeline_works_end_to_end() {
    let mut rng = StdRng::seed_from_u64(5);
    let model = VisionTransformer::new(DeitConfig::tiny_test(16, 4), &mut rng);
    let data = SyntheticDataset::generate(64, 16, 4, 32);
    train(
        &model,
        &data,
        &TrainConfig { epochs: 5, batch_size: 16, lr: 2e-3, ..Default::default() },
    );
    let ge = GoldenEye::parse("bfp:e8m7:b16").unwrap();
    let acc = evaluate_accuracy(&ge, &model, &data, 32, 16);
    assert!((0.0..=1.0).contains(&acc));
    // The transformer exposes many instrumented layers.
    let (x, _) = data.head_batch(1);
    let layers = ge.discover_layers(&model, x);
    assert!(layers.len() > 10, "only {} instrumented layers", layers.len());
}

#[test]
fn layer_filter_all_changes_results() {
    let (model, data) = trained_cnn();
    let (x, _) = data.head_batch(2);
    let conv_linear = GoldenEye::parse("fp:e3m2").unwrap();
    let all = GoldenEye::parse("fp:e3m2").unwrap().with_filter(LayerFilter::All);
    let a = conv_linear.run(&model, x.clone());
    let b = all.run(&model, x);
    // Quantising norm/activation/pool outputs too must change something.
    assert!(!a.allclose(&b, 1e-7), "LayerFilter::All had no effect");
}

#[test]
fn posit_works_end_to_end() {
    // The "future format" plugged in via the trait must ride the whole
    // pipeline: emulation, accuracy evaluation, value injection.
    let (model, data) = trained_cnn();
    let native = models::evaluate(&model, &data, 48, 16);
    let p16 = GoldenEye::parse("posit:16:1").unwrap();
    let acc16 = evaluate_accuracy(&p16, &model, &data, 48, 16);
    assert!((acc16 - native).abs() < 0.05, "posit16 ({acc16}) should track native ({native})");
    let p8 = GoldenEye::parse("posit:8:0").unwrap();
    let (x, _) = data.head_batch(2);
    let layers = p8.discover_layers(&model, x.clone());
    let plan = goldeneye::InjectionPlan::single(layers[0].index, inject::SiteKind::Value);
    let (logits, rec) = p8.run_with_injection(&model, x, plan, 3);
    assert!(rec.is_some());
    // Posits have no Inf: a value flip can at worst be NaR (scored by the
    // metrics penalty) but typical flips stay finite.
    assert_eq!(logits.dims(), &[2, 8]); // tiny(8) = 8 classes
}

#[test]
fn quantization_aware_training_converges() {
    // §V-B: training with format emulation hooks active (backprop through
    // the straight-through estimator) must still reduce the loss.
    use goldeneye::FaultyTrainingHook;
    use nn::Adam;
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(91);
    let model = ResNet::new(ResNetConfig::tiny(4), &mut rng);
    let data = SyntheticDataset::generate(64, 16, 4, 92);
    let mut opt = Adam::new(3e-3);
    let mut shuffle = StdRng::seed_from_u64(93);
    let mut first = None;
    let mut last = 0.0f32;
    for _ in 0..6 {
        for (x, y) in data.shuffled_batches(16, &mut shuffle) {
            let mut ctx = nn::Ctx::training();
            // p = 0: pure quantisation-aware training through int:8.
            ctx.add_hook(Arc::new(FaultyTrainingHook::parse("int:8", 0.0, 0).unwrap()));
            let xv = ctx.input(x);
            let logits = model.forward(&xv, &mut ctx);
            let loss = logits.cross_entropy(&y);
            let grads = loss.backward();
            opt.step(&ctx, &grads);
            last = loss.value().item();
            first.get_or_insert(last);
        }
    }
    let first = first.unwrap();
    assert!(last < first * 0.7, "QAT loss should fall: {first} → {last}");
    // And the trained model evaluates well under the format it saw.
    let ge = GoldenEye::parse("int:8").unwrap();
    let acc = evaluate_accuracy(&ge, &model, &data, 48, 16);
    assert!(acc > 0.5, "int8 accuracy after QAT: {acc}");
}

#[test]
fn snapshot_guards_against_weight_leakage_across_sweeps() {
    let (model, data) = trained_cnn();
    let snap = ParamSnapshot::capture(&model);
    let before = models::forward_logits(&model, data.head_batch(2).0);
    // Two sweeps in a row: any leakage of quantised weights would compound.
    accuracy_sweep(&model, &data, &["int:4", "fp:e2m1"], 16, 16).unwrap();
    accuracy_sweep(&model, &data, &["bfp:e5m2:b8"], 16, 16).unwrap();
    let after = models::forward_logits(&model, data.head_batch(2).0);
    assert!(before.allclose(&after, 0.0));
    snap.restore(&model); // no-op, but must not panic
}
