//! The checkpoint axis of the determinism contract: a model loaded from
//! the artifact store must give **byte-identical** results to the model
//! as it was trained. Every entry point — campaigns, weight campaigns,
//! accuracy evaluation, DSE — runs on the freshly trained model
//! (store disabled), on the model trained into an empty store (cold) and
//! on the model loaded back through a fresh handle (warm), at multiple
//! `jobs` settings. The store may only change how fast a model arrives,
//! never an answer computed from it.

use goldeneye::dse::{accuracy_eval, search, DseFamily};
use goldeneye::{
    evaluate_accuracy_jobs, run_campaign, run_weight_campaign, CampaignConfig, GoldenEye,
};
use inject::SiteKind;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
use std::sync::Arc;
use store::Store;

const CHECKPOINT: &str = "store_identity:tiny8";

fn data() -> SyntheticDataset {
    SyntheticDataset::generate(64, 16, 4, 19)
}

/// The seeded model, loaded from `store` when it holds the checkpoint,
/// else trained (and stored, when a store is given), and whether it was
/// loaded.
fn model(data: &SyntheticDataset, store: Option<&Arc<Store>>) -> (ResNet, bool) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let model = ResNet::new(ResNetConfig::tiny(8), &mut rng);
    if let Some(store) = store {
        if models::load_params_from_store(&model, store, CHECKPOINT).unwrap() {
            return (model, true);
        }
    }
    train(&model, data, &TrainConfig { epochs: 5, batch_size: 16, lr: 3e-3, ..Default::default() });
    if let Some(store) = store {
        models::save_params_to_store(&model, store, CHECKPOINT);
    }
    (model, false)
}

/// The model trained with the store disabled, trained into an empty
/// store, and loaded back from that store by a fresh handle (≈ a second
/// process), labelled.
fn disabled_cold_warm(tag: &str, data: &SyntheticDataset) -> [(&'static str, ResNet); 3] {
    let dir = std::env::temp_dir().join(format!("goldeneye_store_identity_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, loaded) = model(data, Some(&Arc::new(Store::open(&dir).unwrap())));
    assert!(!loaded, "cold store hit");
    let (warm, loaded) = model(data, Some(&Arc::new(Store::open(&dir).unwrap())));
    assert!(loaded, "warm store missed");
    std::fs::remove_dir_all(&dir).ok();
    [("disabled", model(data, None).0), ("cold", cold), ("warm", warm)]
}

/// The pinned `jobs` settings every identity check runs over (serial
/// and parallel).
const JOBS: [usize; 2] = [1, 4];

/// Asserts `run` gives one answer for all three models, at every `jobs`.
fn assert_identical<T: PartialEq>(tag: &str, run: impl Fn(&ResNet, &SyntheticDataset, usize) -> T) {
    let data = data();
    let models = disabled_cold_warm(tag, &data);
    for jobs in JOBS {
        let reference = run(&models[0].1, &data, jobs);
        for (label, model) in &models[1..] {
            assert!(run(model, &data, jobs) == reference, "jobs={jobs}: {label} store moved {tag}");
        }
    }
}

#[test]
fn campaign_jsonl_is_byte_identical_disabled_cold_warm() {
    assert_identical("campaign", |model, data, jobs| {
        let (x, y) = data.head_batch(8);
        let cfg = CampaignConfig {
            injections_per_layer: 4,
            kind: SiteKind::Value,
            seed: 7,
            jobs,
            ..Default::default()
        };
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let jsonl = run_campaign(&ge, model, &x, &y, &cfg).canonical_trial_jsonl();
        assert!(!jsonl.is_empty());
        jsonl
    });
}

#[test]
fn weight_campaign_jsonl_is_byte_identical_disabled_cold_warm() {
    assert_identical("weight", |model, data, jobs| {
        let (x, y) = data.head_batch(8);
        let cfg = CampaignConfig {
            injections_per_layer: 3,
            kind: SiteKind::Value,
            seed: 11,
            jobs,
            ..Default::default()
        };
        let ge = GoldenEye::parse("int:8").unwrap();
        let jsonl = run_weight_campaign(&ge, model, &x, &y, &cfg).canonical_trial_jsonl();
        assert!(!jsonl.is_empty());
        jsonl
    });
}

#[test]
fn evaluate_accuracy_is_bit_identical_disabled_cold_warm() {
    assert_identical("evaluate", |model, data, jobs| {
        let ge = GoldenEye::parse("fp:e5m2").unwrap();
        evaluate_accuracy_jobs(&ge, model, data, 32, 16, jobs).to_bits()
    });
}

#[test]
fn dse_trail_is_bit_identical_disabled_cold_warm() {
    assert_identical("dse", |model, data, jobs| {
        let baseline = models::evaluate(model, data, 32, 16);
        let result =
            search(DseFamily::Fp, accuracy_eval(model, data, 32, 16, jobs), baseline, 0.05);
        let trail: Vec<(String, u32, bool)> = result
            .nodes
            .iter()
            .map(|n| (n.spec.to_string(), n.accuracy.to_bits(), n.accepted))
            .collect();
        assert!(!trail.is_empty());
        (baseline.to_bits(), trail)
    });
}
