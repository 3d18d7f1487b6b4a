//! Use case A (§IV-A): the functional simulator for accuracy — measure a
//! model's classification accuracy as a function of the emulated number
//! format.

use crate::instrument::GoldenEye;
use models::SyntheticDataset;
use nn::Module;
use tensor::ops;

/// Accuracy of `model` under `ge`'s emulated format, over the first `k`
/// samples of `data` in batches of `batch_size`.
///
/// Weights are quantised for the duration of the evaluation and restored
/// afterwards, also when a forward panics, so the measurement covers both
/// weights and neurons (§V-B).
pub fn evaluate_accuracy(
    ge: &GoldenEye,
    model: &dyn Module,
    data: &SyntheticDataset,
    k: usize,
    batch_size: usize,
) -> f32 {
    evaluate_accuracy_jobs(ge, model, data, k, batch_size, 1)
}

/// [`evaluate_accuracy`] with the evaluation batches spread over `jobs`
/// worker threads (`0` = all available cores).
///
/// Batches are independent emulated inferences over fixed data, so the
/// measured accuracy is identical for every `jobs` value.
pub fn evaluate_accuracy_jobs(
    ge: &GoldenEye,
    model: &dyn Module,
    data: &SyntheticDataset,
    k: usize,
    batch_size: usize,
    jobs: usize,
) -> f32 {
    let _restore = ge.quantized_weights(model);
    let k = k.min(data.len());
    let batches = k.div_ceil(batch_size);
    let _span = trace::span!("evaluate", format = ge.format().name(), jobs = jobs);
    // Live ticks per batch from the workers; one deterministic heartbeat
    // when the (fixed) batch set completes.
    let progress = trace::Progress::new("evaluate", batches as u64);
    let per_batch = tensor::parallel::map(jobs, batches, |_worker, b| {
        let start = b * batch_size;
        let end = (start + batch_size).min(k);
        let idx: Vec<usize> = (start..end).collect();
        let (x, y) = data.batch(&idx);
        let logits = ge.run(model, x);
        let correct = ops::argmax_rows(&logits).iter().zip(&y).filter(|(p, t)| p == t).count();
        progress.tick(1);
        correct
    });
    progress.heartbeat(vec![("jobs", trace::Json::from(jobs))]);
    progress.finish();
    per_batch.iter().sum::<usize>() as f32 / k as f32
}

/// One row of an accuracy-vs-format sweep (Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyPoint {
    /// The format spec evaluated.
    pub spec: String,
    /// Data bit width of the format.
    pub bit_width: u32,
    /// Measured top-1 accuracy.
    pub accuracy: f32,
}

/// Sweeps a list of format specs, measuring accuracy for each.
///
/// # Errors
///
/// Returns the first spec's parse error if any spec fails to parse.
/// Every spec is parsed before any is evaluated, so a bad spec costs no
/// forward pass.
pub fn accuracy_sweep(
    model: &dyn Module,
    data: &SyntheticDataset,
    specs: &[&str],
    k: usize,
    batch_size: usize,
) -> Result<Vec<AccuracyPoint>, formats::ParseFormatError> {
    let sims = specs.iter().map(|s| GoldenEye::parse(s)).collect::<Result<Vec<_>, _>>()?;
    Ok(specs
        .iter()
        .zip(sims)
        .map(|(s, ge)| {
            let accuracy = evaluate_accuracy(&ge, model, data, k, batch_size);
            AccuracyPoint { spec: s.to_string(), bit_width: ge.format().bit_width(), accuracy }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{train, ResNet, ResNetConfig, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_tiny() -> (ResNet, SyntheticDataset) {
        let mut rng = StdRng::seed_from_u64(1);
        let model = ResNet::new(ResNetConfig::tiny(4), &mut rng);
        let data = SyntheticDataset::generate(64, 16, 4, 5);
        train(
            &model,
            &data,
            &TrainConfig { epochs: 6, batch_size: 16, lr: 3e-3, ..Default::default() },
        );
        (model, data)
    }

    #[test]
    fn high_precision_preserves_accuracy_low_destroys_it() {
        let (model, data) = trained_tiny();
        let native = models::evaluate(&model, &data, 32, 16);
        assert!(native > 0.5, "model failed to train (acc {native})");
        let fp32 = GoldenEye::parse("fp32").unwrap();
        let acc32 = evaluate_accuracy(&fp32, &model, &data, 32, 16);
        assert!((acc32 - native).abs() < 1e-6, "fp32 emulation must match native");
        // 4-bit float (e2m1): drastic precision loss.
        let fp4 = GoldenEye::parse("fp:e2m1").unwrap();
        let acc4 = evaluate_accuracy(&fp4, &model, &data, 32, 16);
        assert!(acc4 <= acc32, "4-bit acc {acc4} vs fp32 {acc32}");
    }

    #[test]
    fn evaluation_restores_weights() {
        let (model, data) = trained_tiny();
        let before = models::forward_logits(&model, data.head_batch(2).0);
        let fp4 = GoldenEye::parse("fp:e2m1").unwrap();
        evaluate_accuracy(&fp4, &model, &data, 8, 8);
        let after = models::forward_logits(&model, data.head_batch(2).0);
        assert!(before.allclose(&after, 0.0), "weights must be restored");
    }

    #[test]
    fn sweep_reports_bit_widths() {
        let (model, data) = trained_tiny();
        let points = accuracy_sweep(&model, &data, &["fp16", "int:8"], 8, 8).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].bit_width, 16);
        assert_eq!(points[1].bit_width, 8);
    }

    /// A model whose forward pass fails the test if it ever runs.
    struct NoForward;

    impl Module for NoForward {
        fn forward(&self, _: &tensor::Var, _: &mut nn::Ctx) -> tensor::Var {
            panic!("accuracy_sweep ran a forward pass before rejecting a bad spec")
        }

        fn visit_params(&self, _: &mut dyn FnMut(&nn::Param)) {}
    }

    #[test]
    fn sweep_rejects_a_bad_spec_before_any_forward() {
        let data = SyntheticDataset::generate(8, 16, 4, 5);
        let err = accuracy_sweep(&NoForward, &data, &["fp16", "nonsense:42", "int:8"], 8, 8)
            .expect_err("a bad spec must be an error");
        assert!(err.to_string().contains("nonsense"), "error names the spec: {err}");
    }
}
