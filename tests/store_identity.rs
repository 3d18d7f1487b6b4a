//! The artifact store's bit-exactness contract: every entry point that
//! can route offline work through the store — campaigns, weight
//! campaigns, accuracy evaluation, DSE — must produce **byte-identical**
//! results store-disabled, cold-cache, and warm-cache, at multiple `jobs`
//! settings. The store may only change how fast an answer arrives, never
//! the answer.

use goldeneye::dse::{accuracy_eval_stored, search, DseFamily};
use goldeneye::{
    evaluate_accuracy_jobs, run_campaign, run_weight_campaign, CampaignConfig, GoldenEye,
};
use inject::SiteKind;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
use std::sync::Arc;
use tensor::Tensor;

fn setup() -> (ResNet, SyntheticDataset, Tensor, Vec<usize>) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let model = ResNet::new(ResNetConfig::tiny(8), &mut rng);
    let data = SyntheticDataset::generate(64, 16, 4, 19);
    train(
        &model,
        &data,
        &TrainConfig { epochs: 5, batch_size: 16, lr: 3e-3, ..Default::default() },
    );
    let (x, y) = data.head_batch(8);
    (model, data, x, y)
}

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("goldeneye_store_identity_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The pinned `jobs` settings every campaign identity check runs over
/// (serial and parallel).
const JOBS: [usize; 2] = [1, 4];

#[test]
fn campaign_jsonl_is_byte_identical_disabled_cold_warm() {
    let (model, _data, x, y) = setup();
    let dir = temp_store_dir("campaign");
    for jobs in JOBS {
        let cfg = CampaignConfig {
            injections_per_layer: 4,
            kind: SiteKind::Value,
            seed: 7,
            jobs,
            ..Default::default()
        };
        let disabled = {
            let ge = GoldenEye::parse("fp:e4m3").unwrap();
            run_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl()
        };
        let cold = {
            let store = Arc::new(store::Store::open(&dir).unwrap());
            let ge = GoldenEye::parse("fp:e4m3").unwrap().with_store(store);
            run_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl()
        };
        // A fresh handle on the populated directory ≈ a second process.
        let warm = {
            let store = Arc::new(store::Store::open(&dir).unwrap());
            let ge = GoldenEye::parse("fp:e4m3").unwrap().with_store(store);
            run_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl()
        };
        assert!(!disabled.is_empty());
        assert!(disabled == cold, "jobs={jobs}: cold store changed campaign JSONL");
        assert!(disabled == warm, "jobs={jobs}: warm store changed campaign JSONL");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn weight_campaign_jsonl_is_byte_identical_disabled_cold_warm() {
    let (model, _data, x, y) = setup();
    let dir = temp_store_dir("weight");
    for jobs in JOBS {
        let cfg = CampaignConfig {
            injections_per_layer: 3,
            kind: SiteKind::Value,
            seed: 11,
            jobs,
            ..Default::default()
        };
        let disabled = {
            let ge = GoldenEye::parse("int:8").unwrap();
            run_weight_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl()
        };
        let cold = {
            let store = Arc::new(store::Store::open(&dir).unwrap());
            let ge = GoldenEye::parse("int:8").unwrap().with_store(store);
            run_weight_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl()
        };
        let (warm, stats) = {
            let store = Arc::new(store::Store::open(&dir).unwrap());
            let ge = GoldenEye::parse("int:8").unwrap().with_store(store.clone());
            let out = run_weight_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl();
            (out, store.stats())
        };
        assert!(!disabled.is_empty());
        assert!(disabled == cold, "jobs={jobs}: cold store changed weight JSONL");
        assert!(disabled == warm, "jobs={jobs}: warm store changed weight JSONL");
        assert!(stats.hits > 0, "jobs={jobs}: warm run never hit the store");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_accuracy_is_bit_identical_disabled_cold_warm() {
    let (model, data, _x, _y) = setup();
    let dir = temp_store_dir("evaluate");
    for jobs in [1usize, 4] {
        let disabled = {
            let ge = GoldenEye::parse("fp:e5m2").unwrap();
            evaluate_accuracy_jobs(&ge, &model, &data, 32, 16, jobs)
        };
        let cold = {
            let store = Arc::new(store::Store::open(&dir).unwrap());
            let ge = GoldenEye::parse("fp:e5m2").unwrap().with_store(store);
            evaluate_accuracy_jobs(&ge, &model, &data, 32, 16, jobs)
        };
        let warm = {
            let store = Arc::new(store::Store::open(&dir).unwrap());
            let ge = GoldenEye::parse("fp:e5m2").unwrap().with_store(store);
            evaluate_accuracy_jobs(&ge, &model, &data, 32, 16, jobs)
        };
        assert_eq!(disabled.to_bits(), cold.to_bits(), "jobs={jobs}: cold store moved accuracy");
        assert_eq!(disabled.to_bits(), warm.to_bits(), "jobs={jobs}: warm store moved accuracy");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dse_trail_is_bit_identical_disabled_cold_warm() {
    let (model, data, _x, _y) = setup();
    let dir = temp_store_dir("dse");
    let baseline = models::evaluate(&model, &data, 32, 16);
    let trail = |store: Option<Arc<store::Store>>| -> Vec<(String, u32, bool)> {
        let result = search(
            DseFamily::Fp,
            accuracy_eval_stored(&model, &data, 32, 16, 2, store),
            baseline,
            0.05,
        );
        result
            .nodes
            .iter()
            .map(|n| (n.spec.to_string(), n.accuracy.to_bits(), n.accepted))
            .collect()
    };
    let disabled = trail(None);
    let cold = trail(Some(Arc::new(store::Store::open(&dir).unwrap())));
    let warm_store = Arc::new(store::Store::open(&dir).unwrap());
    let warm = trail(Some(warm_store.clone()));
    assert!(!disabled.is_empty());
    assert_eq!(disabled, cold, "cold store changed the DSE visit trail");
    assert_eq!(disabled, warm, "warm store changed the DSE visit trail");
    assert!(warm_store.stats().hits > 0, "warm DSE never hit the store");
    std::fs::remove_dir_all(&dir).ok();
}
