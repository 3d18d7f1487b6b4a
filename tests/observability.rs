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
use trace::{Json, Level};

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
            "trial" => {
                // A serial campaign emits its trials in canonical order; each
                // event carries its record's JSON, `type` aside, in order.
                let Json::Obj(record) = result.trials[trials].to_json() else {
                    panic!("a trial record serialises as an object")
                };
                let fields: Vec<(String, Json)> =
                    e.fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
                assert_eq!(fields, record[1..], "trial event {trials} fields");
                trials += 1;
            }
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

/// The replay counters of a traced campaign: `segments_skipped` and
/// `segments_total` count checkpoint reuse exactly as the schedule
/// predicts, and `segments_masked` counts the segments trials did not run
/// because their state rejoined the clean run.
#[test]
fn replay_counters_report_checkpoint_reuse_and_masked_segments() {
    use nn::Module;
    use trace::names::{
        CAMPAIGN_REPLAY_SEG_MASKED, CAMPAIGN_REPLAY_SEG_SKIPPED, CAMPAIGN_REPLAY_SEG_TOTAL,
    };
    let _gate = serialize_tests();
    let (model, x, y) = setup();
    let ge = GoldenEye::parse("fp:e4m3").unwrap();
    let cfg = CampaignConfig {
        injections_per_layer: 12,
        kind: SiteKind::Value,
        seed: 13,
        jobs: 1,
        ..Default::default()
    };
    let clean = ge.capture_clean_run(&model, x.clone());
    trace::set_level(Level::Debug);
    trace::capture_events(true);
    trace::reset_metrics();
    let result = run_campaign(&ge, &model, &x, &y, &cfg);
    trace::capture_events(false);
    trace::set_level(Level::Info);
    let _ = trace::take_events();

    let count = |name| trace::counter(name).count() as usize;
    let trials = result.trials.len();
    let skipped: usize = result.trials.iter().map(|t| clean.segment_for_layer(t.layer)).sum();
    let total = trials * model.num_segments();
    assert_eq!(count(CAMPAIGN_REPLAY_SEG_SKIPPED), skipped);
    assert_eq!(count(CAMPAIGN_REPLAY_SEG_TOTAL), total);
    let masked = count(CAMPAIGN_REPLAY_SEG_MASKED);
    assert!(masked > 0, "no fp:e4m3 value fault was masked before the logits");
    // Every trial still runs the segment that holds its fault.
    assert!(skipped + masked + trials <= total, "{skipped} + {masked} + {trials} > {total}");
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

/// A traced ResNet-18 inference forward records every convolution: one
/// `tensor.conv.ns` sample per conv layer and exactly `Σ 2·N·O·C·K²·OH·OW`
/// under `tensor.conv.flops`.
#[test]
fn traced_resnet_forward_records_every_conv() {
    use nn::{Ctx, Module};
    let _gate = serialize_tests();
    let mut rng = StdRng::seed_from_u64(5);
    let model = ResNet::new(ResNetConfig::resnet18(8, 10), &mut rng);
    let (n, mut hw) = (2usize, 16usize);
    // `(C, O, K, OH)` of every conv: the stem, then per BasicBlock conv1
    // (3×3, stride s), conv2 (3×3) and the 1×1 stride-s downsample when
    // the block changes shape.
    let mut convs = vec![(3, 8, 3, hw)];
    let mut in_ch = 8;
    for stage in 0..4 {
        let width = 8 << stage;
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            hw = (hw - 1) / stride + 1;
            convs.push((in_ch, width, 3, hw));
            convs.push((width, width, 3, hw));
            if stride != 1 || in_ch != width {
                convs.push((in_ch, width, 1, hw));
            }
            in_ch = width;
        }
    }
    let flops: usize = convs.iter().map(|&(c, o, k, oh)| 2 * n * o * c * k * k * oh * oh).sum();

    trace::capture_events(true);
    trace::reset_metrics();
    let mut ctx = Ctx::inference();
    let x = ctx.input(tensor::Tensor::randn([n, 3, 16, 16], &mut rng));
    let logits = model.forward(&x, &mut ctx);
    trace::capture_events(false);
    let _ = trace::take_events();

    assert_eq!(logits.value().dims(), &[n, 10]);
    assert_eq!(convs.len(), 20, "ResNet-18 has 20 convolutions");
    let conv_ns = trace::histogram(trace::names::TENSOR_CONV_NS);
    assert_eq!(conv_ns.count(), convs.len() as u64, "one tensor.conv.ns sample per conv layer");
    let conv_flops = trace::counter(trace::names::TENSOR_CONV_FLOPS);
    assert_eq!(conv_flops.count(), flops as u64, "tensor.conv.flops");
}

/// A traced DeiT-tiny inference forward times its non-GEMM ops: one
/// `tensor.gelu.ns` and one `tensor.softmax.ns` sample per encoder block,
/// and one `tensor.permute.ns` sample per permutation — the patch
/// tokens, then per block the q/k/v head splits, kᵀ and the head merge.
#[test]
fn traced_deit_forward_records_gelu_softmax_and_permutes() {
    use models::{DeitConfig, VisionTransformer};
    use nn::{Ctx, Module};
    let _gate = serialize_tests();
    let mut rng = StdRng::seed_from_u64(6);
    let config = DeitConfig::deit_tiny(16, 10);
    let depth = config.depth as u64;
    let model = VisionTransformer::new(config, &mut rng);

    trace::capture_events(true);
    trace::reset_metrics();
    let mut ctx = Ctx::inference();
    let x = ctx.input(tensor::Tensor::randn([2, 3, 16, 16], &mut rng));
    let logits = model.forward(&x, &mut ctx);
    trace::capture_events(false);
    let _ = trace::take_events();

    assert_eq!(logits.value().dims(), &[2, 10]);
    let count = |name| trace::histogram(name).count();
    assert_eq!(count(trace::names::TENSOR_GELU_NS), depth, "one GELU per block");
    assert_eq!(count(trace::names::TENSOR_SOFTMAX_NS), depth, "one softmax per block");
    assert_eq!(count(trace::names::TENSOR_PERMUTE_NS), 1 + 5 * depth, "permutes");
}
