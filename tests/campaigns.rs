//! Integration tests of the resiliency-analysis pipeline (use case C):
//! cross-crate invariants and the paper's qualitative claims about fault
//! outcomes.

use goldeneye::{run_campaign, CampaignConfig, GoldenEye, InjectionPlan};
use inject::SiteKind;
use metrics::compare_outcomes;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
fn batch_injector_edge_cases_match_per_trial_typed_errors() {
    // The batched sampling APIs must report the same typed
    // `EmptyFaultSpace` errors as the per-trial path — for every batch
    // size, including one — instead of panicking or silently yielding
    // nothing.
    use inject::{BitSampler, BitStrata, EmptyFaultSpace, Injector};
    let fmt = formats::FloatingPoint::new(4, 3);
    let strata = BitStrata::for_format(&fmt);
    for seeds in [&[1u64][..], &[1, 2, 3][..]] {
        assert_eq!(
            Injector::try_sample_value_fault_batch(seeds, 0, &BitSampler::Uniform, &strata),
            Err(EmptyFaultSpace::NoElements),
            "batch of {} over an empty tensor",
            seeds.len()
        );
        assert_eq!(
            Injector::try_sample_metadata_fault_batch(seeds, 0, 8),
            Err(EmptyFaultSpace::NoMetadataWords),
            "metadata batch of {} with no words",
            seeds.len()
        );
    }
    // Batch of one must agree with the serial sampler, error or not.
    let serial = Injector::new(5).try_sample_value_fault(0, 8);
    let batch = Injector::try_sample_value_fault_batch(&[5], 0, &BitSampler::Uniform, &strata);
    assert_eq!(serial.unwrap_err(), batch.unwrap_err());
    // An empty *batch* over a valid space is not an error — there is
    // simply nothing to sample.
    let empty = Injector::try_sample_value_fault_batch(&[], 100, &BitSampler::Uniform, &strata);
    assert_eq!(empty.unwrap().len(), 0);
}

#[test]
fn batch_size_one_campaign_equals_per_trial_campaign() {
    // A batch of one (each trial replayed alone) and a batch larger than
    // the planned trials (clipped to the site, not a crash) must agree.
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let base = CampaignConfig {
        injections_per_layer: 2,
        kind: SiteKind::Value,
        seed: 51,
        jobs: 1,
        ..Default::default()
    };
    let per_trial = run_campaign(&ge, &model, &x, &y, &base.clone().with_trials_per_batch(1));
    let oversized = run_campaign(&ge, &model, &x, &y, &base.clone().with_trials_per_batch(64));
    assert!(per_trial.canonical_trial_jsonl() == oversized.canonical_trial_jsonl());
}
