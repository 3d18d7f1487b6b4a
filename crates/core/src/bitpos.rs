//! Per-bit-position vulnerability analysis.
//!
//! §IV-C of the paper drills into *which* bit a flip lands in: exponent
//! bits of FP dominate, and "the sign bit in BFP is more vulnerable than
//! in FP, since the bitwidth of the data value is now shorter … BFP
//! magnifies the importance of the sign bit via the shared exponent
//! design". This module measures ΔLoss as a function of the flipped bit
//! position, holding everything else fixed.

use crate::instrument::{GoldenEye, InjectionPlan, TrialFault};
use inject::{BitSampler, SiteKind};
use metrics::{compare_outcomes, RunningStats};
use nn::Module;
use tensor::Tensor;

/// ΔLoss statistics for one bit position of a format's value encoding.
#[derive(Debug, Clone)]
pub struct BitPositionResult {
    /// Bit position (0 = MSB of the bit image; for sign-magnitude and
    /// IEEE-style layouts this is the sign bit).
    pub bit: usize,
    /// ΔLoss statistics across trials.
    pub delta_loss: RunningStats,
    /// Mismatch statistics across trials.
    pub mismatch: RunningStats,
}

/// Measures ΔLoss per bit position for value flips at one layer.
///
/// For every bit position of the format `ge` uses at `layer`, runs
/// `trials` inferences over `(x, targets)`, each flipping that bit of one
/// random element of layer `layer`'s output, and compares against the
/// error-free run. Trials go through `ge`'s emulation hook
/// ([`BitSampler::Fixed`]) and replay from its clean-run checkpoints, so
/// the simulator's layer formats, filter and range detector all apply.
///
/// # Panics
///
/// Panics if `trials == 0`, or if `layer` is not an instrumented layer.
pub fn bit_position_campaign(
    ge: &GoldenEye,
    model: &dyn Module,
    x: &Tensor,
    targets: &[usize],
    layer: usize,
    trials: usize,
    seed: u64,
) -> Vec<BitPositionResult> {
    assert!(trials > 0, "need at least one trial per bit");
    let _pool = tensor::workspace::run_scope();
    let clean = ge.capture_clean_run(model, x.clone());
    let width = ge.format_for_layer(layer).bit_width() as usize;
    let plan = InjectionPlan::single(layer, SiteKind::Value);
    (0..width)
        .map(|bit| {
            let mut delta_loss = RunningStats::new();
            let mut mismatch = RunningStats::new();
            for t in 0..trials {
                let trial_seed = seed.wrapping_add((bit * trials + t) as u64);
                let sampler = BitSampler::Fixed(bit);
                let fault = TrialFault::Activation { plan, sampler, seed: trial_seed };
                let (faulty, rec) = ge.replay(model, &clean, fault);
                assert!(rec.is_some(), "layer {layer} never executed");
                let o = compare_outcomes(clean.golden(), &faulty, targets);
                delta_loss.push(o.delta_loss);
                mismatch.push(o.mismatch_rate);
            }
            BitPositionResult { bit, delta_loss, mismatch }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use formats::NumberFormat;
    use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
    use nn::{Ctx, ForwardHook, LayerInfo, LayerKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    /// The oracle hook: quantises every CONV/LINEAR output into one format
    /// and flips a *fixed* bit of a randomly chosen element at one layer.
    struct FixedBitHook {
        format: Arc<dyn NumberFormat>,
        layer: usize,
        bit: usize,
        element_seed: Mutex<inject::Injector>,
        fired: AtomicBool,
    }

    impl ForwardHook for FixedBitHook {
        fn on_output(&self, layer: &LayerInfo, output: &Tensor) -> Option<Tensor> {
            let mut q = self.format.real_to_format_tensor(output);
            if layer.index == self.layer {
                let f = self
                    .element_seed
                    .lock()
                    .unwrap()
                    .sample_value_fault(q.values.numel(), self.format.bit_width() as usize);
                inject::flip_value(self.format.as_ref(), &mut q, f.index, self.bit);
                self.fired.store(true, Ordering::Relaxed);
            }
            Some(self.format.format_to_real_tensor(&q))
        }

        fn applies_to(&self, kind: LayerKind) -> bool {
            matches!(kind, LayerKind::Conv | LayerKind::Linear)
        }
    }

    /// The full-forward bit-position loop over [`FixedBitHook`], with the
    /// same seeds as [`bit_position_campaign`].
    fn oracle_campaign(
        spec: &str,
        model: &dyn Module,
        x: &Tensor,
        targets: &[usize],
        layer: usize,
        trials: usize,
        seed: u64,
    ) -> Vec<BitPositionResult> {
        let format: Arc<dyn NumberFormat> =
            Arc::from(spec.parse::<formats::FormatSpec>().unwrap().build());
        let golden = GoldenEye::parse(spec).unwrap().run(model, x.clone());
        let width = format.bit_width() as usize;
        let mut out = Vec::with_capacity(width);
        for bit in 0..width {
            let mut delta_loss = RunningStats::new();
            let mut mismatch = RunningStats::new();
            for t in 0..trials {
                let hook = Arc::new(FixedBitHook {
                    format: format.clone(),
                    layer,
                    bit,
                    element_seed: Mutex::new(inject::Injector::new(
                        seed.wrapping_add((bit * trials + t) as u64),
                    )),
                    fired: AtomicBool::new(false),
                });
                let mut ctx = Ctx::inference();
                ctx.add_hook(hook.clone());
                let xv = ctx.input(x.clone());
                let faulty = model.forward(&xv, &mut ctx).value();
                assert!(hook.fired.load(Ordering::Relaxed), "layer {layer} never executed");
                let o = compare_outcomes(&golden, &faulty, targets);
                delta_loss.push(o.delta_loss);
                mismatch.push(o.mismatch_rate);
            }
            out.push(BitPositionResult { bit, delta_loss, mismatch });
        }
        out
    }

    fn setup() -> (ResNet, Tensor, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(31);
        let model = ResNet::new(ResNetConfig::tiny(8), &mut rng);
        let data = SyntheticDataset::generate(64, 16, 4, 33);
        train(
            &model,
            &data,
            &TrainConfig { epochs: 6, batch_size: 16, lr: 3e-3, ..Default::default() },
        );
        let (x, y) = data.head_batch(8);
        (model, x, y)
    }

    #[test]
    fn covers_every_bit_position() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let res = bit_position_campaign(&ge, &model, &x, &y, layers[0].index, 3, 0);
        assert_eq!(res.len(), 8);
        for (i, r) in res.iter().enumerate() {
            assert_eq!(r.bit, i);
            assert_eq!(r.delta_loss.count(), 3);
        }
    }

    #[test]
    fn fp_exponent_msb_dominates_mantissa_lsb() {
        let (model, x, y) = setup();
        let ge = GoldenEye::parse("fp16").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let res = bit_position_campaign(&ge, &model, &x, &y, layers[1].index, 10, 1);
        // fp16 layout: [sign | e4..e0... wait e5 | m10]: bit 1 = exponent
        // MSB, bit 15 = mantissa LSB.
        let exp_msb = res[1].delta_loss.mean();
        let man_lsb = res[15].delta_loss.mean();
        assert!(
            exp_msb >= man_lsb,
            "exponent MSB ({exp_msb}) should dominate mantissa LSB ({man_lsb})"
        );
    }

    #[test]
    fn bfp_sign_bit_more_vulnerable_than_fp_sign_bit() {
        // The paper's §IV-C claim: removing the exponent from BFP data
        // values shortens them, magnifying the sign bit's share of damage
        // relative to FP (where most flips land in low mantissa bits).
        let (model, x, y) = setup();
        let layer_probe = GoldenEye::parse("fp16").unwrap();
        let layers = layer_probe.discover_layers(&model, x.clone());
        let target = layers[1].index;

        let fp = GoldenEye::parse("fp:e5m10").unwrap();
        let fp_res = bit_position_campaign(&fp, &model, &x, &y, target, 12, 2);
        let bfp = GoldenEye::parse("bfp:e5m10:tensor").unwrap();
        let bfp_res = bit_position_campaign(&bfp, &model, &x, &y, target, 12, 2);

        // Sign-bit damage as a fraction of the format's total per-bit damage.
        let share = |res: &[BitPositionResult]| {
            let total: f32 = res.iter().map(|r| r.delta_loss.mean()).sum();
            if total == 0.0 {
                0.0
            } else {
                res[0].delta_loss.mean() / total
            }
        };
        let fp_share = share(&fp_res);
        let bfp_share = share(&bfp_res);
        assert!(
            bfp_share > fp_share,
            "BFP sign share {bfp_share} should exceed FP sign share {fp_share}"
        );
    }

    #[test]
    fn matches_full_forward_fixed_bit_oracle() {
        let (model, x, y) = setup();
        let layers = GoldenEye::parse("fp16").unwrap().discover_layers(&model, x.clone());
        // A shallow and a deep layer replay from different checkpoints.
        for target in [layers[1].index, layers[layers.len() - 2].index] {
            for spec in ["fp:e5m10", "bfp:e5m10:tensor", "int:16", "fxp:1:7:8"] {
                let ge = GoldenEye::parse(spec).unwrap();
                let got = bit_position_campaign(&ge, &model, &x, &y, target, 2, 5);
                let want = oracle_campaign(spec, &model, &x, &y, target, 2, 5);
                assert_eq!(got.len(), want.len(), "{spec}: bit count");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.bit, w.bit);
                    assert_eq!(
                        format!("{:?}", (&g.delta_loss, &g.mismatch)),
                        format!("{:?}", (&w.delta_loss, &w.mismatch)),
                        "{spec} layer {target} bit {}",
                        g.bit
                    );
                }
            }
        }
    }

    #[test]
    fn uses_the_layer_format_override() {
        let (model, x, y) = setup();
        let probe = GoldenEye::parse("fp32").unwrap();
        let target = probe.discover_layers(&model, x.clone())[1].index;
        let ge = GoldenEye::parse("fp32")
            .unwrap()
            .with_layer_format(target, "fp:e4m3".parse::<formats::FormatSpec>().unwrap().build());
        let res = bit_position_campaign(&ge, &model, &x, &y, target, 1, 0);
        assert_eq!(res.len(), 8, "one row per bit of the layer's fp:e4m3 format");
    }
}
