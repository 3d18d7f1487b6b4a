//! Thread-safety contract of the campaign executor and the shared model
//! state: parallel campaigns must be bit-identical to serial ones, and
//! `ParamSnapshot` must restore a model even after a worker thread
//! panicked while holding a parameter lock (lock poisoning).

use goldeneye::{
    run_campaign, run_weight_campaign, CampaignConfig, CampaignResult, GoldenEye, ParamSnapshot,
    EARLY_STOP_WAVE,
};
use inject::SiteKind;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
use nn::Module;
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

/// Exact (bitwise) equality of every per-layer statistic two campaign runs
/// produce. `f32::to_bits` so that `-0.0 != 0.0` and NaNs would also be
/// caught — "bit-identical" is the executor's contract, not "close".
fn assert_bit_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.layers.len(), b.layers.len());
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        assert_eq!(la.layer, lb.layer);
        assert_eq!(la.name, lb.name);
        assert_eq!(la.injections, lb.injections, "layer {}", la.name);
        for (sa, sb) in [(&la.delta_loss, &lb.delta_loss), (&la.mismatch, &lb.mismatch)] {
            assert_eq!(sa.count(), sb.count(), "layer {}", la.name);
            assert_eq!(sa.mean().to_bits(), sb.mean().to_bits(), "layer {}", la.name);
            assert_eq!(sa.variance().to_bits(), sb.variance().to_bits(), "layer {}", la.name);
            assert_eq!(sa.min(), sb.min(), "layer {}", la.name);
            assert_eq!(sa.max(), sb.max(), "layer {}", la.name);
        }
    }
}

#[test]
fn activation_campaign_is_deterministic_across_jobs() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 6,
        kind: SiteKind::Value,
        seed: 41,
        jobs: 1,
        ..Default::default()
    };
    let serial = run_campaign(&ge, &model, &x, &y, &cfg);
    let parallel = run_campaign(&ge, &model, &x, &y, &cfg.clone().with_jobs(4));
    assert_bit_identical(&serial, &parallel);
}

/// Per-trial records, serialised in canonical (layer, trial) order with
/// worker ids and timestamps stripped, must be **byte**-identical between
/// a serial run and a `--jobs 4` run — the contract consumers of the
/// per-trial JSONL stream rely on.
#[test]
fn per_trial_jsonl_is_byte_identical_across_jobs() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 5,
        kind: SiteKind::Value,
        seed: 29,
        jobs: 1,
        ..Default::default()
    };
    let serial = run_campaign(&ge, &model, &x, &y, &cfg);
    let parallel = run_campaign(&ge, &model, &x, &y, &cfg.clone().with_jobs(4));
    let a = serial.canonical_trial_jsonl();
    let b = parallel.canonical_trial_jsonl();
    assert_eq!(a.len(), b.len(), "serial and parallel JSONL lengths differ");
    assert!(a == b, "canonical per-trial JSONL differs between jobs=1 and jobs=4");
    assert!(!a.is_empty(), "campaign produced no trial records");
    // Metadata-site campaigns exercise the word/bit site encoding.
    let mcfg = CampaignConfig { kind: SiteKind::Metadata, ..cfg };
    let bfp = GoldenEye::parse("bfp:e8m7:tensor").unwrap();
    let ms = run_campaign(&bfp, &model, &x, &y, &mcfg);
    let mp = run_campaign(&bfp, &model, &x, &y, &mcfg.clone().with_jobs(4));
    assert!(
        ms.canonical_trial_jsonl() == mp.canonical_trial_jsonl(),
        "metadata-site canonical JSONL differs between jobs=1 and jobs=4"
    );
}

/// The checkpoint/replay engine must emit the exact same canonical
/// per-trial JSONL as a serial `--jobs 1` run for every worker-thread
/// count — the contract that lets parallel campaigns substitute for
/// serial ones.
#[test]
fn replayed_campaign_jsonl_is_byte_identical_across_jobs() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let base = CampaignConfig {
        injections_per_layer: 6,
        kind: SiteKind::Value,
        seed: 43,
        jobs: 1,
        ..Default::default()
    };
    let serial = run_campaign(&ge, &model, &x, &y, &base);
    let reference = serial.canonical_trial_jsonl();
    assert!(!reference.is_empty());
    for jobs in [2usize, 4] {
        let run = run_campaign(&ge, &model, &x, &y, &base.clone().with_jobs(jobs));
        assert!(
            run.canonical_trial_jsonl() == reference,
            "jobs {jobs}: canonical JSONL diverged from the serial run"
        );
        assert_bit_identical(&serial, &run);
    }
}

/// `CampaignConfig::trials_per_batch` is ignored — every trial replays in
/// its own forward — so any value, including the auto-size `0` older
/// callers pass, yields byte-identical records.
#[test]
fn replayed_campaign_ignores_trials_per_batch() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let base = CampaignConfig {
        injections_per_layer: 4,
        kind: SiteKind::Value,
        seed: 45,
        jobs: 2,
        ..Default::default()
    };
    let reference = run_campaign(&ge, &model, &x, &y, &base).canonical_trial_jsonl();
    assert!(!reference.is_empty());
    for trials_per_batch in [0usize, 1, 8] {
        let cfg = CampaignConfig { trials_per_batch, ..base.clone() };
        let run = run_campaign(&ge, &model, &x, &y, &cfg);
        assert!(
            run.canonical_trial_jsonl() == reference,
            "trials_per_batch {trials_per_batch} changed the canonical JSONL"
        );
    }
}

/// Same contract for metadata-site faults, whose word/bit addressing
/// depends on the tensor-wide metadata layout of each trial's activation.
#[test]
fn replayed_metadata_campaign_jsonl_matches_serial_across_jobs() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("bfp:e8m7:tensor").unwrap();
    let base = CampaignConfig {
        injections_per_layer: 4,
        kind: SiteKind::Metadata,
        seed: 47,
        jobs: 1,
        ..Default::default()
    };
    let reference = run_campaign(&ge, &model, &x, &y, &base).canonical_trial_jsonl();
    for jobs in [2usize, 4] {
        let run = run_campaign(&ge, &model, &x, &y, &base.clone().with_jobs(jobs));
        assert!(run.canonical_trial_jsonl() == reference, "metadata jobs {jobs}: JSONL diverged");
    }
}

#[test]
fn weight_campaign_trial_jsonl_is_byte_identical_across_jobs() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("int:8").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 4,
        kind: SiteKind::Value,
        seed: 31,
        jobs: 1,
        ..Default::default()
    };
    let serial = run_weight_campaign(&ge, &model, &x, &y, &cfg);
    let parallel = run_weight_campaign(&ge, &model, &x, &y, &cfg.clone().with_jobs(4));
    assert!(
        serial.canonical_trial_jsonl() == parallel.canonical_trial_jsonl(),
        "weight-campaign canonical JSONL differs between jobs=1 and jobs=4"
    );
}

/// Weight campaigns run on the same wave scheduler as activation
/// campaigns, so early stopping applies to them and its executed trial
/// set is independent of `jobs`.
#[test]
fn weight_campaign_early_stop_is_identical_across_jobs() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("int:8").unwrap();
    // A loose CI bound stops converged weights after the first wave.
    let cfg = CampaignConfig {
        injections_per_layer: 2 * EARLY_STOP_WAVE,
        kind: SiteKind::Value,
        seed: 37,
        jobs: 1,
        ..Default::default()
    }
    .with_early_stop(5.0);
    let serial = run_weight_campaign(&ge, &model, &x, &y, &cfg);
    assert!(
        serial.trials.len() < serial.planned_trials,
        "loose CI should stop early ({} of {} trials ran)",
        serial.trials.len(),
        serial.planned_trials
    );
    let parallel = run_weight_campaign(&ge, &model, &x, &y, &cfg.clone().with_jobs(4));
    assert!(
        serial.canonical_trial_jsonl() == parallel.canonical_trial_jsonl(),
        "early-stopped weight-campaign JSONL differs between jobs=1 and jobs=4"
    );
}

#[test]
fn weight_campaign_is_deterministic_across_jobs() {
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("int:8").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 6,
        kind: SiteKind::Value,
        seed: 42,
        jobs: 1,
        ..Default::default()
    };
    let serial = run_weight_campaign(&ge, &model, &x, &y, &cfg);
    let parallel = run_weight_campaign(&ge, &model, &x, &y, &cfg.clone().with_jobs(4));
    assert_bit_identical(&serial, &parallel);
    // Weight campaigns mutate shared parameter storage (quantise, then
    // restore); after both runs the model must still produce the native
    // forward pass — i.e. the restore really happened.
    let native = GoldenEye::parse("fp32").unwrap();
    let a = native.run(&model, x.clone());
    let b = native.run(&model, x);
    assert!(a.allclose(&b, 0.0), "model left in inconsistent state");
}

#[test]
fn snapshot_restores_after_worker_thread_panics() {
    let (model, x, _) = setup();
    let ge = GoldenEye::parse("fp16").unwrap();
    let before = ge.run(&model, x.clone());
    let snap = ParamSnapshot::capture(&model);

    // A worker thread dies mid-update while holding the write lock on a
    // parameter, poisoning it. `Param`'s accessors treat poisoning as
    // survivable (state is replaced wholesale, never left torn), so the
    // snapshot restore — and every later forward pass — must still work.
    let params = model.params();
    let victim = params.iter().find(|p| p.name().ends_with("weight")).expect("has weights");
    let joined = std::thread::scope(|s| {
        s.spawn(|| {
            victim.update(|t| {
                let n = t.numel();
                *t = tensor::Tensor::zeros([n]); // torn shape, then die
                panic!("worker dies holding the param lock");
            });
        })
        .join()
    });
    assert!(joined.is_err(), "worker was expected to panic");

    snap.restore(&model);
    let after = ge.run(&model, x);
    assert!(
        before.allclose(&after, 0.0),
        "restore after poisoned lock must reproduce the pre-panic forward pass"
    );
}

/// A model whose forward panics from its `(ok + 1)`-th call on, as a
/// shape mismatch deep in a real network would.
struct PanicsAfter {
    inner: ResNet,
    ok: usize,
    calls: std::sync::atomic::AtomicUsize,
}

impl Module for PanicsAfter {
    fn forward(&self, x: &tensor::Var, ctx: &mut nn::Ctx) -> tensor::Var {
        let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        assert!(call < self.ok, "forward {call} panics");
        self.inner.forward(x, ctx)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&nn::Param)) {
        self.inner.visit_params(f);
    }
}

#[test]
fn weights_survive_a_panicking_trial() {
    // Accuracy evaluation and weight campaigns quantise the shared
    // model's weights in place. A trial that panics on a worker is
    // re-raised in the caller, and the caller's model must come back
    // holding its own weights, bit for bit, not the quantised ones.
    let (model, x, y) = setup();
    let data = SyntheticDataset::generate(32, 16, 4, 17);
    let ge = GoldenEye::parse("int:4").unwrap();
    let bits = |m: &dyn Module| -> Vec<Vec<u32>> {
        m.params()
            .iter()
            .map(|p| p.get().as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    let before = bits(&model);
    // Evaluation panics in its first batch; the weight campaign after its
    // clean run, in its first trial.
    let mut panicking = PanicsAfter { inner: model, ok: 0, calls: 0.into() };
    let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        goldeneye::evaluate_accuracy_jobs(&ge, &panicking, &data, 32, 16, 2)
    }));
    assert!(evaluated.is_err(), "the evaluation was expected to panic");
    assert!(bits(&panicking) == before, "a panicking evaluation left quantised weights");

    panicking.ok = 1;
    panicking.calls = 0.into();
    let cfg = CampaignConfig { injections_per_layer: 2, seed: 3, jobs: 2, ..Default::default() };
    let campaign = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_weight_campaign(&ge, &panicking, &x, &y, &cfg)
    }));
    assert!(campaign.is_err(), "the weight campaign was expected to panic");
    let calls = panicking.calls.load(std::sync::atomic::Ordering::SeqCst);
    assert!(calls > 1, "the campaign panicked before its trials ({calls} forwards)");
    assert!(bits(&panicking) == before, "a panicking weight campaign left quantised weights");
}

#[test]
fn param_overrides_do_not_leak_across_threads() {
    // The weight campaign installs faulty tensors via thread-local
    // overrides; a concurrent reader on another thread must always see
    // the clean value.
    let (model, x, _) = setup();
    let ge = GoldenEye::parse("fp32").unwrap();
    let clean = ge.run(&model, x.clone());
    let params = model.params();
    let victim = params.iter().find(|p| p.name().ends_with("weight")).expect("has weights");
    let _guard = victim.override_local(tensor::Tensor::zeros(victim.get().shape().dims()));
    let overridden = ge.run(&model, x.clone());
    assert!(!clean.allclose(&overridden, 1e-7), "override had no effect on this thread");
    std::thread::scope(|s| {
        s.spawn(|| {
            let other = ge.run(&model, x.clone());
            assert!(clean.allclose(&other, 0.0), "thread-local override leaked to another thread");
        });
    });
}
