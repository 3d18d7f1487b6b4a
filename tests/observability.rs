//! End-to-end observability contract: campaigns emit validatable trial
//! events, spans, and manifests; the JSONL stream they produce passes
//! `trace::validate_trace`; and manifests round-trip through JSON.
//!
//! These tests mutate the process-global tracer (level, capture buffer,
//! metrics), so they serialise on a local mutex.

use goldeneye::{run_campaign, CampaignConfig, GoldenEye, LayerFilter};
use inject::SiteKind;
use models::{train, ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};
use trace::Level;

fn serialize_tests() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn setup() -> (ResNet, tensor::Tensor, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(23);
    let model = ResNet::new(ResNetConfig::tiny(8), &mut rng);
    let data = SyntheticDataset::generate(48, 16, 4, 19);
    train(
        &model,
        &data,
        &TrainConfig { epochs: 3, batch_size: 16, lr: 3e-3, ..Default::default() },
    );
    let (x, y) = data.head_batch(8);
    (model, x, y)
}

#[test]
fn campaign_emits_validatable_trial_events_and_spans() {
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 3,
        kind: SiteKind::Value,
        seed: 7,
        jobs: 1,
        ..Default::default()
    };

    trace::set_level(Level::Debug); // spans emit at Debug
    trace::capture_events(true);
    trace::reset_metrics();
    let _ = trace::take_events();
    let result = run_campaign(&ge, &model, &x, &y, &cfg);
    trace::capture_events(false);
    trace::set_level(Level::Info);
    let events = trace::take_events();

    let mut trials = 0usize;
    let mut campaign_spans = 0usize;
    for e in &events {
        let v = e.to_json();
        let kind = trace::validate_event(&v).expect("every emitted event validates");
        match kind {
            "trial" => trials += 1,
            "span" if v.get("name").and_then(|n| n.as_str()) == Some("campaign") => {
                campaign_spans += 1;
            }
            _ => {}
        }
    }
    assert_eq!(trials, result.trials.len(), "one trial event per trial record");
    assert_eq!(campaign_spans, 1, "campaign wrapped in exactly one span");

    // The trials/sec counter advanced by exactly the number of trials.
    let counters = trace::metrics_snapshot();
    let (_, trial_counter) = counters
        .iter()
        .find(|(name, _)| name == "campaign.trials")
        .expect("campaign.trials counter registered");
    assert_eq!(trial_counter.get("count").and_then(|c| c.as_u64()), Some(trials as u64));
}

#[test]
fn campaign_jsonl_stream_passes_validate_trace() {
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("int:8").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 2,
        kind: SiteKind::Value,
        seed: 9,
        jobs: 2,
        ..Default::default()
    };

    trace::capture_events(true);
    let _ = trace::take_events();
    let t = std::time::Instant::now();
    let result = run_campaign(&ge, &model, &x, &y, &cfg);
    trace::capture_events(false);
    let events = trace::take_events();

    // Reconstruct the JSONL stream exactly as the file sink writes it:
    // one compact event object per line, manifest last.
    let mut jsonl = String::new();
    for e in &events {
        jsonl.push_str(&e.to_json().to_compact());
        jsonl.push('\n');
    }
    let manifest = result.to_manifest("test campaign", &cfg, t.elapsed().as_secs_f64());
    jsonl.push_str(&manifest.to_json().to_compact());
    jsonl.push('\n');

    let summary = trace::validate_trace(&jsonl).expect("stream validates");
    assert_eq!(summary.trials, result.trials.len());
    assert_eq!(summary.manifests, 1);
    assert_eq!(summary.lines, events.len() + 1);
}

/// Runs one campaign with event capture on and returns the canonical
/// (volatile-fields-stripped) content of every `progress` heartbeat it
/// emitted, in order.
fn canonical_heartbeats(
    model: &ResNet,
    x: &tensor::Tensor,
    y: &[usize],
    cfg: &CampaignConfig,
) -> Vec<String> {
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    trace::capture_events(true);
    let _ = trace::take_events();
    run_campaign(&ge, model, x, y, cfg);
    trace::capture_events(false);
    trace::take_events()
        .iter()
        .map(|e| e.to_json())
        .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("progress"))
        .inspect(|v| {
            trace::validate_event(v).expect("heartbeat validates");
        })
        .map(|v| trace::canonical_progress(&v))
        .collect()
}

#[test]
fn progress_heartbeats_are_byte_deterministic_across_jobs() {
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let base = CampaignConfig {
        injections_per_layer: 3,
        kind: SiteKind::Value,
        seed: 5,
        jobs: 1,
        ..Default::default()
    };
    let reference = canonical_heartbeats(&model, &x, &y, &base);
    assert!(!reference.is_empty(), "campaign emitted no heartbeats");
    for jobs in [2usize, 4] {
        let got = canonical_heartbeats(&model, &x, &y, &base.clone().with_jobs(jobs));
        assert_eq!(got, reference, "canonical heartbeat content diverged at jobs={jobs}");
    }
    // The canonical form keeps the deterministic fields and drops every
    // volatile one.
    for hb in &reference {
        for key in ["\"phase\"", "\"done\"", "\"planned\"", "\"wave\""] {
            assert!(hb.contains(key), "{hb} missing {key}");
        }
        for volatile in trace::names::PROGRESS_VOLATILE_FIELDS {
            assert!(!hb.contains(&format!("\"{volatile}\"")), "{hb} leaked {volatile}");
        }
    }
}

/// Runs one campaign with event capture on and returns the
/// `cache_hit_rate` of every `progress` heartbeat it emitted, in order.
fn heartbeat_hit_rates(
    ge: &GoldenEye,
    model: &ResNet,
    x: &tensor::Tensor,
    y: &[usize],
    cfg: &CampaignConfig,
) -> Vec<f64> {
    trace::capture_events(true);
    let _ = trace::take_events();
    run_campaign(ge, model, x, y, cfg);
    trace::capture_events(false);
    trace::take_events()
        .iter()
        .map(|e| e.to_json())
        .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("progress"))
        .filter_map(|v| v.get("cache_hit_rate").and_then(|r| r.as_f64()))
        .collect()
}

/// A campaign's heartbeat reports the checkpoint reuse of its own units
/// only: the same campaign reports the same rate whether or not another
/// campaign ran earlier in the process.
#[test]
fn heartbeat_cache_hit_rate_is_per_campaign() {
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let cfg = CampaignConfig {
        injections_per_layer: 3,
        kind: SiteKind::Value,
        seed: 5,
        jobs: 1,
        ..Default::default()
    };
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    // Hooking every layer kind changes which checkpoints trials replay
    // from, so this campaign's reuse differs from `ge`'s.
    let other = GoldenEye::parse("fp:e4m3").unwrap().with_filter(LayerFilter::All);
    trace::reset_metrics();
    let alone = heartbeat_hit_rates(&ge, &model, &x, &y, &cfg);
    assert!(!alone.is_empty(), "campaign reported no cache hit rate");
    trace::reset_metrics();
    let first = heartbeat_hit_rates(&other, &model, &x, &y, &cfg);
    assert_ne!(first, alone, "fixture campaigns must differ in checkpoint reuse");
    let second = heartbeat_hit_rates(&ge, &model, &x, &y, &cfg);
    assert_eq!(second, alone, "an earlier campaign leaked into the hit rate");
}

#[test]
fn every_recorded_metric_name_is_registered() {
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("int:8").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 2,
        kind: SiteKind::Value,
        seed: 3,
        jobs: 2,
        ..Default::default()
    };
    trace::reset_metrics();
    run_campaign(&ge, &model, &x, &y, &cfg);
    let snapshot = trace::metrics_snapshot();
    assert!(!snapshot.is_empty(), "campaign recorded no metrics");
    for (name, _) in &snapshot {
        assert!(
            trace::names::is_registered_metric(name),
            "metric `{name}` recorded but not registered in trace::names"
        );
    }
}

#[test]
fn profile_tree_accounts_for_campaign_wall_clock() {
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 4,
        kind: SiteKind::Value,
        seed: 13,
        jobs: 2,
        ..Default::default()
    };
    trace::reset_profile();
    let t = std::time::Instant::now();
    let result = run_campaign(&ge, &model, &x, &y, &cfg);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let roots = trace::profile_snapshot();
    let campaign = roots
        .iter()
        .find(|n| n.name == "campaign")
        .expect("campaign span recorded in the profile tree");
    assert_eq!(campaign.count, 1);
    assert!(
        campaign.inclusive_ns >= wall_ns * 9 / 10,
        "profile tree covers {}ns of {}ns wall ({:.1}%) — below the 90% contract",
        campaign.inclusive_ns,
        wall_ns,
        campaign.inclusive_ns as f64 / wall_ns as f64 * 100.0
    );
    // The tree also lands in the manifest and exports as folded stacks.
    let mut manifest = result.to_manifest("test campaign", &cfg, 0.5);
    manifest.snapshot_profile();
    assert!(manifest.profile.iter().any(|n| n.name == "campaign"));
    let folded = trace::profile_folded(&manifest.profile);
    assert!(folded.lines().any(|l| l.starts_with("campaign")), "{folded}");
}

#[test]
fn campaign_manifest_round_trips_through_json() {
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("bfp:e8m7:tensor").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 2,
        kind: SiteKind::Metadata,
        seed: 11,
        jobs: 1,
        ..Default::default()
    };
    let result = run_campaign(&ge, &model, &x, &y, &cfg);
    let mut manifest = result.to_manifest("test campaign", &cfg, 0.25);
    manifest.snapshot_counters();

    trace::validate_manifest(&manifest.to_json()).expect("manifest validates");
    let text = manifest.to_json().to_pretty();
    let back = trace::RunManifest::from_json_str(&text).expect("manifest parses back");
    assert_eq!(manifest.to_json().to_compact(), back.to_json().to_compact());
    assert_eq!(back.layers.len(), result.layers.len());
    assert!(!back.convergence.is_empty(), "convergence trace embedded");
}
