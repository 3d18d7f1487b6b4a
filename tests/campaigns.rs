//! Integration tests of the resiliency-analysis pipeline (use case C):
//! cross-crate invariants and the paper's qualitative claims about fault
//! outcomes.

use goldeneye::{run_campaign, trial_seed, CampaignConfig, GoldenEye, InjectionPlan};
use inject::{BitSampler, SiteKind};
use metrics::compare_outcomes;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
use nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

fn setup() -> (ResNet, tensor::Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(13);
    let model = ResNet::new(ResNetConfig::tiny(8), &mut rng);
    let data = SyntheticDataset::generate(64, 16, 4, 17);
    train(
        &model,
        &data,
        &TrainConfig { epochs: 5, batch_size: 16, lr: 3e-3, ..Default::default() },
    );
    let (x, y) = data.head_batch(8);
    (model, x, y)
}

#[test]
fn golden_run_without_injection_has_zero_outcome() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("int:8").unwrap();
    let a = ge.run(&model, x.clone());
    let b = ge.run(&model, x);
    let o = compare_outcomes(&a, &b, &y);
    assert_eq!(o.delta_loss, 0.0);
    assert_eq!(o.mismatch_rate, 0.0);
}

#[test]
fn some_injections_corrupt_some_are_masked() {
    // Fault-injection sanity: across many seeds, single-bit flips must
    // produce both masked outcomes (ΔLoss ≈ 0) and corrupting ones.
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let layers = ge.discover_layers(&model, x.clone());
    let golden = ge.run(&model, x.clone());
    let mut masked = 0;
    let mut corrupted = 0;
    for seed in 0..60 {
        let plan = InjectionPlan::single(layers[0].index, SiteKind::Value);
        let (faulty, rec) = ge.run_with_injection(&model, x.clone(), plan, seed);
        assert!(rec.is_some());
        let o = compare_outcomes(&golden, &faulty, &y);
        if o.delta_loss < 1e-6 {
            masked += 1;
        } else {
            corrupted += 1;
        }
    }
    assert!(masked > 0, "no masked faults in 60 injections");
    assert!(corrupted > 0, "no corrupting faults in 60 injections");
}

#[test]
fn bfp_metadata_campaign_dominates_value_campaign() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("bfp:e5m5:tensor").unwrap();
    let value = run_campaign(
        &ge,
        &model,
        &x,
        &y,
        &CampaignConfig {
            injections_per_layer: 20,
            kind: SiteKind::Value,
            seed: 5,
            jobs: 1,
            ..Default::default()
        },
    );
    let meta = run_campaign(
        &ge,
        &model,
        &x,
        &y,
        &CampaignConfig {
            injections_per_layer: 20,
            kind: SiteKind::Metadata,
            seed: 5,
            jobs: 1,
            ..Default::default()
        },
    );
    assert!(meta.avg_delta_loss() > value.avg_delta_loss());
}

#[test]
fn afp_average_resilience_beats_bfp() {
    // The paper's §IV-C: AFP is on average more resilient layer-wise than
    // BFP for metadata errors. The mechanism: BFP's shared exponent is a
    // wide register (8 bits for the bfloat16-derived BFP used in the
    // paper), so one flip can rescale a whole tensor by up to 2^128,
    // while AFP's exponent bias lives in a 4-bit register, bounding the
    // worst-case rescale at 2^8.
    let (model, x, y) = setup();
    let bfp = GoldenEye::parse("bfp:e8m7:tensor").unwrap();
    let afp = GoldenEye::parse("afp:e5m2").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 25,
        kind: SiteKind::Metadata,
        seed: 2,
        jobs: 1,
        ..Default::default()
    };
    let bfp_meta = run_campaign(&bfp, &model, &x, &y, &cfg);
    let afp_meta = run_campaign(&afp, &model, &x, &y, &cfg);
    assert!(
        afp_meta.avg_delta_loss() < bfp_meta.avg_delta_loss(),
        "AFP metadata ΔLoss {} should be below BFP's {}",
        afp_meta.avg_delta_loss(),
        bfp_meta.avg_delta_loss()
    );
}

#[test]
fn range_detector_reduces_delta_loss() {
    // §V-B: the (toggle-able, default-on) range detector clamps faulty
    // activations and should reduce average corruption under FP value
    // flips (whose worst case is an exponent flip to a huge value).
    let (model, x, y) = setup();
    let plain = GoldenEye::parse("fp16").unwrap();
    let guarded = GoldenEye::parse("fp16").unwrap().with_range_detector(true);
    guarded.profile_ranges(&model, std::slice::from_ref(&x));
    let cfg = CampaignConfig {
        injections_per_layer: 30,
        kind: SiteKind::Value,
        seed: 8,
        jobs: 1,
        ..Default::default()
    };
    let unguarded_result = run_campaign(&plain, &model, &x, &y, &cfg);
    let guarded_result = run_campaign(&guarded, &model, &x, &y, &cfg);
    assert!(
        guarded_result.avg_delta_loss() <= unguarded_result.avg_delta_loss(),
        "detector increased ΔLoss: {} vs {}",
        guarded_result.avg_delta_loss(),
        unguarded_result.avg_delta_loss()
    );
}

#[test]
fn weight_faults_affect_inference() {
    let (model, x, _) = setup();
    let ge = GoldenEye::parse("fp16").unwrap();
    let before = ge.run(&model, x.clone());
    let snap = goldeneye::ParamSnapshot::capture(&model);
    // Flip the MSB (sign) of several stem-conv weights.
    for el in 0..4 {
        ge.inject_weight_fault(&model, "stem.conv.weight", el, 1);
    }
    let after = ge.run(&model, x);
    snap.restore(&model);
    assert!(!before.allclose(&after, 1e-7), "weight faults had no effect");
}

#[test]
fn campaign_stats_match_manual_replication() {
    // The campaign's per-layer mean must equal manually re-running the
    // same seeds (full determinism across the stack).
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("int:8").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 4,
        kind: SiteKind::Value,
        seed: 100,
        jobs: 1,
        ..Default::default()
    };
    let result = run_campaign(&ge, &model, &x, &y, &cfg);
    let golden = ge.run(&model, x.clone());
    let layer0 = &result.layers[0];
    let mut manual = metrics::RunningStats::new();
    for i in 0..4 {
        let seed = goldeneye::trial_seed(100, layer0.layer as u64, i as u64);
        let plan = InjectionPlan::single(layer0.layer, SiteKind::Value);
        let (faulty, _) = ge.run_with_injection(&model, x.clone(), plan, seed);
        manual.push(compare_outcomes(&golden, &faulty, &y).delta_loss);
    }
    assert_eq!(layer0.delta_loss.mean(), manual.mean());
}

#[test]
fn injector_edge_cases_report_typed_errors() {
    // An empty fault space must surface a typed `EmptyFaultSpace` error
    // under every bit sampler, instead of panicking inside the RNG.
    use inject::{BitSampler, BitStrata, EmptyFaultSpace, Injector};
    let fmt = formats::FloatingPoint::new(4, 3);
    let strata = BitStrata::for_format(&fmt);
    let zero_width = BitStrata { critical: 0..0, width: 0 };
    let samplers =
        [BitSampler::Uniform, BitSampler::Stratified { critical_mass: 0.5 }, BitSampler::Fixed(3)];
    for (seed, sampler) in samplers.iter().enumerate() {
        let mut inj = Injector::new(seed as u64);
        assert_eq!(
            inj.try_sample_value_fault_with(0, sampler, &strata),
            Err(EmptyFaultSpace::NoElements),
            "{} sampler over an empty tensor",
            sampler.as_str()
        );
        assert_eq!(
            inj.try_sample_value_fault_with(5, sampler, &zero_width),
            Err(EmptyFaultSpace::ZeroBitWidth),
            "{} sampler over a zero-width word",
            sampler.as_str()
        );
    }
    for (words, width) in [(0, 8), (4, 0)] {
        assert_eq!(
            Injector::new(1).try_sample_metadata_fault(words, width),
            Err(EmptyFaultSpace::NoMetadataWords),
            "{words} metadata words of {width} bits"
        );
    }
    // The sampler-aware entry point agrees with the plain one, error or not.
    let plain = Injector::new(5).try_sample_value_fault(0, 8);
    let with = Injector::new(5).try_sample_value_fault_with(0, &BitSampler::Uniform, &strata);
    assert_eq!(plain.unwrap_err(), with.unwrap_err());
}

#[test]
fn batch_size_one_campaign_equals_per_trial_campaign() {
    // Every replayed trial (one forward from its checkpoint) must record
    // exactly what a full-forward run with the same seed produces: the
    // flipped element and bit, and a bit-identical ΔLoss and mismatch.
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 2,
        kind: SiteKind::Value,
        seed: 51,
        jobs: 1,
        ..Default::default()
    };
    let result = run_campaign(&ge, &model, &x, &y, &cfg);
    assert_eq!(result.trials.len(), result.planned_trials);
    let golden = ge.run(&model, x.clone());
    for t in &result.trials {
        let seed = goldeneye::trial_seed(51, t.layer as u64, t.trial as u64);
        let plan = InjectionPlan::single(t.layer, SiteKind::Value);
        let (faulty, rec) = ge.run_with_injection(&model, x.clone(), plan, seed);
        let Some(goldeneye::InjectionRecord::Value { flip, .. }) = rec else {
            panic!("layer {} trial {}: the fault never fired", t.layer, t.trial);
        };
        let outcome = compare_outcomes(&golden, &faulty, &y);
        assert_eq!((t.element, t.bit), (Some(flip.element), Some(flip.bit)));
        assert_eq!(t.delta_loss.map(f32::to_bits), Some(outcome.delta_loss.to_bits()));
        assert_eq!(t.mismatch.map(f32::to_bits), Some(outcome.mismatch_rate.to_bits()));
    }
}

/// Replays every trial of a `trials`-per-layer campaign and checks each
/// against a full forward of the same trial
/// (`run_with_injection_sampled`): logits bit for bit, the
/// `InjectionRecord` exactly, and — for single-bit plans — the campaign's
/// own trial record field for field. Returns how many replayed trials took
/// the exact early exit: those hand back the clean run's golden buffer
/// itself.
fn assert_replay_matches_full_forwards(
    ge: &GoldenEye,
    model: &dyn Module,
    (x, y): (&Tensor, &[usize]),
    kind: SiteKind,
    bits: u32,
    trials: usize,
) -> usize {
    let seed = 41;
    let clean = ge.capture_clean_run(model, x.clone());
    let golden = clean.golden();
    let cfg = CampaignConfig { injections_per_layer: trials, kind, seed, ..Default::default() };
    let campaign = (bits == 1).then(|| run_campaign(ge, model, x, y, &cfg));
    let mut exits = 0;
    for (li, layer) in clean.layers().iter().enumerate() {
        let plan = InjectionPlan::multi(layer.index, kind, bits);
        let seeds: Vec<u64> =
            (0..trials).map(|t| trial_seed(seed, layer.index as u64, t as u64)).collect();
        let replayed = ge.run_replay_batch(model, &clean, plan, BitSampler::Uniform, &seeds);
        for (t, (&s, (logits, rec))) in seeds.iter().zip(&replayed).enumerate() {
            let what = format!("{} {} layer {} trial {t}", ge.format().name(), kind.as_str(), li);
            let (full, full_rec) =
                ge.run_with_injection_sampled(model, x.clone(), plan, s, BitSampler::Uniform);
            assert_eq!(logits.dims(), full.dims(), "{what}: logits shape");
            let bits_of = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits_of(logits), bits_of(&full), "{what}: logits");
            assert_eq!(format!("{rec:?}"), format!("{full_rec:?}"), "{what}: injection record");
            exits += usize::from(std::ptr::eq(logits.as_slice(), golden.as_slice()));
            if let Some(campaign) = &campaign {
                let r = &campaign.trials[li * trials + t];
                let o = full_rec.as_ref().map(|_| compare_outcomes(golden, &full, y));
                let flip = full_rec.as_ref().map(|r| match r {
                    goldeneye::InjectionRecord::Value { flip, .. } => (flip.element, flip.bit),
                    goldeneye::InjectionRecord::Metadata { flip, .. } => (flip.word, flip.bit),
                });
                assert_eq!((r.layer, r.trial), (layer.index, t), "{what}: record order");
                assert_eq!((r.element, r.bit), (flip.map(|f| f.0), flip.map(|f| f.1)), "{what}");
                assert_eq!(r.delta_loss.map(f32::to_bits), o.map(|o| o.delta_loss.to_bits()));
                assert_eq!(r.mismatch.map(f32::to_bits), o.map(|o| o.mismatch_rate.to_bits()));
            }
        }
    }
    exits
}

#[test]
fn replay_early_exit_is_bit_identical_to_full_forwards() {
    // A replayed trial stops once its activation equals the clean run's
    // at a segment boundary. Every trial of each campaign below must still
    // match a full forward bit for bit, and the exit must actually fire,
    // or the comparison proves nothing.
    let (model, x, y) = setup();
    let data = (&x, y.as_slice());
    let check = |ge: &GoldenEye, kind, bits| {
        assert_replay_matches_full_forwards(ge, &model, data, kind, bits, 12)
    };
    let fp8 = GoldenEye::parse("fp:e4m3").unwrap();
    assert!(check(&fp8, SiteKind::Value, 1) > 0, "fp:e4m3 value faults never exited early");
    let int8 = GoldenEye::parse("int:8").unwrap();
    assert!(check(&int8, SiteKind::Value, 1) > 0, "int:8 value faults never exited early");
    let bfp = GoldenEye::parse("bfp:e5m5:b16").unwrap();
    check(&bfp, SiteKind::Metadata, 1);
    assert!(check(&int8, SiteKind::Value, 3) > 0, "3-bit int:8 faults never exited early");
    let guarded = GoldenEye::parse("fp:e4m3").unwrap().with_range_detector(true);
    guarded.profile_ranges(&model, std::slice::from_ref(&x));
    assert!(!guarded.range_profile().is_empty());
    assert!(check(&guarded, SiteKind::Value, 1) > 0, "range-detected trials never exited early");

    // DeiT: a shared-exponent fault rarely fades before the logits, so
    // this case (like BFP metadata above) checks identity only.
    let mut rng = StdRng::seed_from_u64(3);
    let deit = models::VisionTransformer::new(models::DeitConfig::tiny_test(16, 4), &mut rng);
    let (dx, dy) = SyntheticDataset::generate(8, 16, 4, 29).head_batch(4);
    let deit_data = (&dx, dy.as_slice());
    assert_replay_matches_full_forwards(&bfp, &deit, deit_data, SiteKind::Metadata, 1, 6);
}

/// `ResNet` with `PAD` hook-free segments (one ReLU each, no hook point)
/// spliced in before each of its own segments, so each run of `PAD + 1`
/// checkpoints shares one hook-point offset.
struct PaddedResNet(ResNet);

const PAD: usize = 3;

impl Module for PaddedResNet {
    fn forward(&self, x: &tensor::Var, ctx: &mut nn::Ctx) -> tensor::Var {
        let mut h = x.clone();
        for s in 0..self.num_segments() {
            h = self.forward_segment(s, &h, ctx);
        }
        h
    }

    fn num_segments(&self) -> usize {
        self.0.num_segments() * (PAD + 1)
    }

    fn forward_segment(&self, segment: usize, x: &tensor::Var, ctx: &mut nn::Ctx) -> tensor::Var {
        match segment % (PAD + 1) {
            PAD => self.0.forward_segment(segment / (PAD + 1), x, ctx),
            _ => x.relu(),
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&nn::Param)) {
        self.0.visit_params(f);
    }
}

#[test]
fn replay_early_exit_is_bit_identical_across_hookless_segments() {
    // Hook-free segments end on boundaries whose hook-point count equals
    // the next segment's start. A trial must replay from the segment that
    // holds its fault, the deepest of the checkpoints sharing an offset,
    // and may only exit once that fault has run.
    let (model, x, y) = setup();
    let padded = PaddedResNet(model);
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let clean = ge.capture_clean_run(&padded, x.clone());
    for l in clean.layers() {
        assert_eq!(clean.segment_for_layer(l.index) % (PAD + 1), PAD, "layer {}", l.name);
    }
    let exits = assert_replay_matches_full_forwards(
        &ge,
        &padded,
        (&x, y.as_slice()),
        SiteKind::Value,
        1,
        12,
    );
    assert!(exits > 0, "no padded-model trial exited early");
}
