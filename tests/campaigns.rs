//! Integration tests of the resiliency-analysis pipeline (use case C):
//! cross-crate invariants and the paper's qualitative claims about fault
//! outcomes.

use goldeneye::{
    run_campaign, run_weight_campaign, trial_seed, CampaignConfig, GoldenEye, InjectionPlan,
    ParamSnapshot, TrialFault,
};
use inject::{BitSampler, BitStrata, Injector, SiteKind};
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

/// The faulty value of `param` in weight-campaign trial `seed`, derived by
/// hand: the clean (already quantised) weight converted into the format,
/// one bit flipped at the trial's draw, converted back. Returns the value
/// and the flipped `(element, bit)`.
fn faulty_weight(ge: &GoldenEye, param: &nn::Param, seed: u64) -> (Tensor, (usize, usize)) {
    let mut q = ge.format().real_to_format_tensor(&param.get());
    let strata = BitStrata::for_format(ge.format());
    let (f, _) = Injector::new(seed)
        .try_sample_value_fault_with(q.values.numel(), &BitSampler::Uniform, &strata)
        .unwrap();
    inject::flip_value(ge.format(), &mut q, f.index, f.bit);
    (ge.format().format_to_real_tensor(&q), (f.index, f.bit))
}

/// Runs a `trials`-per-weight campaign at jobs 1 and 2 (canonical JSONL
/// byte-identical), then re-runs every trial by hand: the weight
/// quantised in place, the trial's fault installed as a thread-local
/// override, and a full `ge.run`. The replayed logits ([`GoldenEye::replay`])
/// must equal the full forward's bit for bit, and the campaign's record
/// must hold the same flip and the same ΔLoss and mismatch bits.
fn assert_weight_replay_matches_full_forwards(
    ge: &GoldenEye,
    model: &dyn Module,
    (x, y): (&Tensor, &[usize]),
    trials: usize,
) {
    let seed = 61;
    let cfg = CampaignConfig { injections_per_layer: trials, seed, ..Default::default() };
    let campaign = run_weight_campaign(ge, model, x, y, &cfg);
    let parallel = run_weight_campaign(ge, model, x, y, &cfg.clone().with_jobs(2));
    let name = ge.format().name();
    assert!(campaign.canonical_trial_jsonl() == parallel.canonical_trial_jsonl(), "{name}: jobs 2");
    let snapshot = ParamSnapshot::capture(model);
    ge.quantize_weights(model);
    let clean = ge.capture_clean_run(model, x.clone());
    let golden = ge.run(model, x.clone());
    let bits_of = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits_of(clean.golden()), bits_of(&golden), "{name}: golden logits");
    // The weight campaign's sites, in its order.
    let weights: Vec<nn::Param> =
        model.params().into_iter().filter(|p| p.name().ends_with(".weight")).collect();
    assert_eq!(campaign.layers.len(), weights.len());
    for (i, param) in weights.iter().enumerate() {
        for t in 0..trials {
            let what = format!("{name} {} trial {t}", param.name());
            let (value, flip) = faulty_weight(ge, param, trial_seed(seed, i as u64, t as u64));
            let full = {
                let _fault = param.override_local(value.clone());
                ge.run(model, x.clone())
            };
            let (logits, record) = ge.replay(model, &clean, TrialFault::Weight { param, value });
            assert!(record.is_none(), "{what}: a weight trial draws no activation fault");
            assert_eq!(logits.dims(), full.dims(), "{what}: logits shape");
            assert_eq!(bits_of(&logits), bits_of(&full), "{what}: logits");
            let r = &campaign.trials[i * trials + t];
            let o = compare_outcomes(&golden, &full, y);
            assert_eq!((r.layer, r.trial, r.layer_name.as_str()), (i, t, param.name()), "{what}");
            assert_eq!((r.element, r.bit), (Some(flip.0), Some(flip.1)), "{what}: flip");
            assert_eq!(r.delta_loss.map(f32::to_bits), Some(o.delta_loss.to_bits()), "{what}");
            assert_eq!(r.mismatch.map(f32::to_bits), Some(o.mismatch_rate.to_bits()), "{what}");
        }
    }
    snapshot.restore(model);
}

#[test]
fn weight_replay_matches_full_forwards() {
    // A weight trial replays from the first segment that reads its weight
    // and may stop once the last one has run. Every trial must still match
    // a full forward under the same faulty weight bit for bit. (A conv
    // weight fault reaches every position of its output, and no trial of
    // these campaigns is masked by a block's end, so the early exit is
    // pinned by the `SharedWeight` test below.)
    let (model, x, y) = setup();
    for spec in ["int:8", "fp:e4m3", "bfp:e5m5:b16"] {
        let ge = GoldenEye::parse(spec).unwrap();
        assert_weight_replay_matches_full_forwards(&ge, &model, (&x, y.as_slice()), 6);
    }

    let mut rng = StdRng::seed_from_u64(3);
    let deit = models::VisionTransformer::new(models::DeitConfig::tiny_test(16, 4), &mut rng);
    let (dx, dy) = SyntheticDataset::generate(8, 16, 4, 29).head_batch(4);
    let bfp = GoldenEye::parse("bfp:e5m5:b16").unwrap();
    assert_weight_replay_matches_full_forwards(&bfp, &deit, (&dx, dy.as_slice()), 3);
}

/// A four-segment model that reads one weight, `shared.weight` (4×4), in
/// segments 0 and 2: `relu(x·W)`, a ReLU, `h·W`, then `2·h`. It has no
/// hook point, and counts how often each segment runs.
///
/// Columns 1 and 3 of `W` are negative, so for positive inputs a fault in
/// them mostly vanishes in segment 0's ReLU, and `h`'s columns 1 and 3 are
/// zero. In rows 0 and 2 such a fault still reaches the logits in segment
/// 2: a trial that stopped once segment 0's output matched the clean run
/// would drop it. In rows 1 and 3 it meets those zeros and is masked for
/// good, so the trial may stop after segment 2.
struct SharedWeight {
    w: nn::Param,
    runs: [std::sync::atomic::AtomicUsize; 4],
}

impl SharedWeight {
    fn new() -> Self {
        let w = (0..16).map(|k| (0.5 + 0.1 * (k / 4) as f32) * [1.0, -1.0][k % 2]).collect();
        SharedWeight {
            w: nn::Param::new("shared.weight", Tensor::from_vec(w, [4, 4])),
            runs: Default::default(),
        }
    }

    fn runs(&self) -> [usize; 4] {
        self.runs.each_ref().map(|r| r.load(std::sync::atomic::Ordering::SeqCst))
    }
}

impl Module for SharedWeight {
    fn forward(&self, x: &tensor::Var, ctx: &mut nn::Ctx) -> tensor::Var {
        (0..4).fold(x.clone(), |h, s| self.forward_segment(s, &h, ctx))
    }

    fn num_segments(&self) -> usize {
        4
    }

    fn forward_segment(&self, segment: usize, x: &tensor::Var, ctx: &mut nn::Ctx) -> tensor::Var {
        self.runs[segment].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        match segment {
            0 => x.matmul(&ctx.var_of(&self.w)).relu(),
            1 => x.relu(),
            2 => x.matmul(&ctx.var_of(&self.w)),
            _ => x.scale(2.0),
        }
    }

    fn visit_params(&self, f: &mut dyn FnMut(&nn::Param)) {
        f(&self.w);
    }
}

#[test]
fn weight_replay_starts_at_the_first_reader_and_exits_after_the_last() {
    let model = SharedWeight::new();
    let mut rng = StdRng::seed_from_u64(5);
    let x = Tensor::rand_uniform([4, 4], 0.5, 1.5, &mut rng);
    let y = [0, 1, 2, 3];
    let ge = GoldenEye::parse("int:8").unwrap();
    let clean = ge.capture_clean_run(&model, x.clone());
    assert_eq!(clean.param_segments(&model.w), Some((0, 2)), "readers of shared.weight");

    let trials = 32;
    let before = model.runs();
    let cfg = CampaignConfig { injections_per_layer: trials, seed: 7, ..Default::default() };
    let campaign = run_weight_campaign(&ge, &model, &x, &y, &cfg);
    let after = model.runs();
    // One clean pass, then every trial starts at segment 0, the first
    // reader, and cannot stop before segment 2, the last reader, has run.
    for s in 0..3 {
        assert_eq!(after[s] - before[s], 1 + trials, "segment {s} runs");
    }
    let exits = 1 + trials - (after[3] - before[3]);
    assert!(exits > 0 && exits < trials, "{exits} of {trials} trials stopped after segment 2");

    // The pin bites: some trials' faults vanish in segment 0 and still
    // change the logits.
    let snapshot = ParamSnapshot::capture(&model);
    ge.quantize_weights(&model);
    let golden = ge.run(&model, x.clone());
    let segment0 = |w: &Tensor| {
        let _fault = model.w.override_local(w.clone());
        let mut ctx = nn::Ctx::inference();
        let input = ctx.input(x.clone());
        model.forward_segment(0, &input, &mut ctx).value()
    };
    let clean0 = segment0(&model.w.get());
    let mut hidden = 0;
    for t in 0..trials {
        let (value, _) = faulty_weight(&ge, &model.w, trial_seed(7, 0, t as u64));
        let full = {
            let _fault = model.w.override_local(value.clone());
            ge.run(&model, x.clone())
        };
        let o = compare_outcomes(&golden, &full, &y);
        let r = &campaign.trials[t];
        assert_eq!(r.delta_loss.map(f32::to_bits), Some(o.delta_loss.to_bits()), "trial {t}");
        assert_eq!(r.mismatch.map(f32::to_bits), Some(o.mismatch_rate.to_bits()), "trial {t}");
        let masked0 = segment0(&value).as_slice() == clean0.as_slice();
        hidden += usize::from(masked0 && full.as_slice() != golden.as_slice());
    }
    snapshot.restore(&model);
    assert!(hidden > 0, "no fault was masked in segment 0 and visible in segment 2");
}
