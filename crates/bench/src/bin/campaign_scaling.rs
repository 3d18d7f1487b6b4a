//! Campaign-executor scaling: wall-clock of the same fault-injection
//! campaign at 1, 2, 4, … worker threads, verifying both the speedup and
//! the bit-identical-results contract of `goldeneye::run_campaign` /
//! `run_weight_campaign`; the early-stopping trial savings at equal
//! statistical power (DESIGN.md §11) — plus the tracing-overhead budget: the same serial campaign with
//! structured tracing on must stay within 5% of the untraced wall-clock,
//! read as the median ratio of interleaved pairs (DESIGN.md §9).
//!
//! Trials are independent inferences, so the campaign is embarrassingly
//! parallel; the executor's only serial parts are layer discovery, the
//! golden run, and the statistics fold.
//!
//! Writes `BENCH_campaign.json` (override with `--out`): the run manifest
//! with per-jobs timings and the measured tracing overhead.
//!
//! Run with: `cargo run --release -p bench --bin campaign_scaling
//! [--injections N] [--jobs MAX]`

use bench::{prepare_model, test_set, BenchArgs, ModelKind};
use goldeneye::{
    evaluate_accuracy_jobs, run_campaign, run_weight_campaign, CampaignConfig, CampaignResult,
    GoldenEye,
};
use inject::SiteKind;
use std::sync::Arc;
use std::time::Instant;
use trace::Json;

fn layer_means(r: &CampaignResult) -> Vec<(f32, f32)> {
    r.layers.iter().map(|l| (l.delta_loss.mean(), l.mismatch.mean())).collect()
}

/// Best-of-`reps` wall-clock of one serial campaign (minimum is the
/// noise-robust estimator for overhead comparisons).
fn best_time(
    reps: usize,
    ge: &GoldenEye,
    model: &dyn nn::Module,
    x: &tensor::Tensor,
    y: &[usize],
    cfg: &CampaignConfig,
) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            run_campaign(ge, model, x, y, cfg);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The tracing-overhead measurement: [`OVERHEAD_PAIRS`] interleaved (off, on) pairs
/// of a serial campaign, alternating which leg runs first, summarised by
/// the median on/off ratio. Adjacent legs share whatever load burst hits
/// the host, so a burst moves one pair's ratio, not the median; the
/// alternation keeps a warm-up or cool-down drift from always landing on
/// the same leg. (Keeping the smallest ratio instead biases the gate
/// towards "no overhead" and lets it pass or fail by chance.) Every leg
/// runs on one intra-op thread, pinned to the core the measurement
/// started on, so neither leg gains or loses a second core or a
/// migration the other did not.
struct Overhead {
    /// Median of the pairs' on/off ratios.
    ratio: f64,
    /// Median untraced and traced wall-clock, seconds.
    off: f64,
    on: f64,
    /// Events buffered over all traced legs.
    events: usize,
    /// The core the legs were pinned to, `None` if pinning failed.
    cpu: Option<usize>,
}

/// Pairs [`measure_overhead`] runs; odd, so the median is one pair's.
const OVERHEAD_PAIRS: usize = 5;

fn measure_overhead(
    ge: &GoldenEye,
    model: &dyn nn::Module,
    x: &tensor::Tensor,
    y: &[usize],
    cfg: &CampaignConfig,
) -> Overhead {
    let cpu = pin_to_current_cpu();
    let _one_thread = tensor::parallel::with_threads(1);
    let leg = |traced: bool| {
        trace::capture_events(traced);
        best_time(1, ge, model, x, y, cfg)
    };
    let (mut offs, mut ons, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..OVERHEAD_PAIRS {
        let (o, t) = if i % 2 == 0 {
            let o = leg(false);
            (o, leg(true))
        } else {
            let t = leg(true);
            (leg(false), t)
        };
        offs.push(o);
        ons.push(t);
        ratios.push(t / o);
    }
    trace::capture_events(false);
    let events = trace::take_events().len();
    Overhead { ratio: median(ratios), off: median(offs), on: median(ons), events, cpu }
}

/// Pins the calling thread, and only it, to the core it is running on;
/// threads it spawns afterwards inherit the pin. Returns that core, or
/// `None` where pinning is unsupported or refused (the thread then runs
/// unpinned). Steadies A/B timings on a shared host: both legs run on one
/// core instead of migrating between cores.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    // glibc's `cpu_set_t` is a 1024-bit mask.
    const WORDS: usize = 1024 / 64;
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok().filter(|&c| c < 1024)?;
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is initialised and exactly `size` bytes long; the
    // call only reads it. Pid 0 names the calling thread.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    ok.then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// How the overhead legs ran, for the printed line.
fn pinned(cpu: Option<usize>) -> String {
    cpu.map_or_else(|| "unpinned".to_string(), |c| format!("pinned to cpu {c}"))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The CI budget: traced wall-clock within 5% of untraced. Calibrated
/// when the serial engine was ~4× slower as "within 2%"; the absolute
/// per-trial tracing cost is unchanged, but the untraced denominator
/// shrank with the kernel/dispatch-granularity work, so the same
/// absolute overhead is a larger fraction (5% of today's wall ≈ 1.2%
/// of the wall the 2% figure was calibrated against).
const OVERHEAD_BUDGET: f64 = 0.05;

fn main() {
    let args = BenchArgs::parse();
    let overhead_only = std::env::args().any(|a| a == "--overhead-only");
    let n = args.injections_per_layer(20);
    let max_jobs = if args.jobs <= 1 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        args.jobs
    };
    let (model, _) = prepare_model(ModelKind::Resnet18);
    let (x, y) = test_set().head_batch(8);
    let ge = GoldenEye::parse("fp:e4m3").expect("valid spec");

    if overhead_only {
        // CI enforcement mode (`trace-overhead` job): measure only the
        // tracing overhead and fail the process when it blows the budget.
        let cfg = CampaignConfig {
            injections_per_layer: n,
            kind: SiteKind::Value,
            seed: 17,
            jobs: 1,
            ..Default::default()
        };
        let Overhead { ratio, off, on, events, cpu } =
            measure_overhead(&ge, model.as_ref(), &x, &y, &cfg);
        let overhead = ratio - 1.0;
        let over = overhead > OVERHEAD_BUDGET;
        println!(
            "Tracing overhead (serial, {n} inj/layer, median of {OVERHEAD_PAIRS} pairs, {}): \
             off {off:.3}s, on {on:.3}s ({:+.2}%, {events} buffered events) — budget {:.0}%{}",
            pinned(cpu),
            overhead * 100.0,
            OVERHEAD_BUDGET * 100.0,
            if over { "  ** OVER BUDGET **" } else { "" }
        );
        let mut m = trace::RunManifest::new("bench campaign_scaling --overhead-only")
            .with_config("injections_per_layer", n)
            .with_extra("trace_overhead", Json::Num(overhead))
            .with_extra("trace_overhead_budget", Json::Num(OVERHEAD_BUDGET))
            .with_extra("untraced_s", Json::Num(off))
            .with_extra("traced_s", Json::Num(on));
        m.wall_time_s = off + on;
        args.finish_run(m, None);
        if over {
            std::process::exit(1);
        }
        return;
    }

    let mut manifest = trace::RunManifest::new("bench campaign_scaling")
        .with_config("model", "resnet18")
        .with_config("format", "fp_e4m3")
        .with_config("injections_per_layer", n)
        .with_config("max_jobs", max_jobs);
    let t_all = Instant::now();
    let mut timing_rows: Vec<Json> = Vec::new();

    println!("Campaign scaling ({n} injections/layer, resnet18, fp:e4m3)\n");
    println!(
        "{:<24} {:>6} {:>10} {:>9} {:>10}",
        "campaign", "jobs", "seconds", "speedup", "identical"
    );
    for (label, weight) in [("activation (value)", false), ("weight", true)] {
        let mut reference: Option<(Vec<(f32, f32)>, f64)> = None;
        let mut jobs = 1usize;
        while jobs <= max_jobs {
            let cfg = CampaignConfig {
                injections_per_layer: n,
                kind: SiteKind::Value,
                seed: 17,
                jobs,
                ..Default::default()
            };
            let t = Instant::now();
            let result = if weight {
                run_weight_campaign(&ge, model.as_ref(), &x, &y, &cfg)
            } else {
                run_campaign(&ge, model.as_ref(), &x, &y, &cfg)
            };
            let secs = t.elapsed().as_secs_f64();
            let means = layer_means(&result);
            let (identical, speedup) = match &reference {
                None => {
                    reference = Some((means, secs));
                    (true, 1.0)
                }
                Some((ref_means, ref_secs)) => (*ref_means == means, ref_secs / secs),
            };
            println!(
                "{label:<24} {jobs:>6} {secs:>10.2} {speedup:>8.2}x {:>10}",
                if identical { "yes" } else { "NO" }
            );
            assert!(identical, "parallel campaign diverged from serial results");
            timing_rows.push(Json::obj([
                ("campaign", Json::from(if weight { "weight" } else { "activation" })),
                ("jobs", Json::from(jobs)),
                ("seconds", Json::Num(secs)),
                ("speedup", Json::Num(speedup)),
            ]));
            jobs *= 2;
        }
        println!();
    }

    // The serial baseline the early-stop section compares against.
    let base = CampaignConfig {
        injections_per_layer: n,
        kind: SiteKind::Value,
        seed: 17,
        jobs: 1,
        ..Default::default()
    };
    let trials = run_campaign(&ge, model.as_ref(), &x, &y, &base).trials.len();
    let serial_tps = trials as f64 / best_time(2, &ge, model.as_ref(), &x, &y, &base);
    println!("Serial replay ({trials} trials): {serial_tps:.2} trials/s");

    // Early stopping: trial savings at equal statistical power. Stopping
    // decisions happen only at EARLY_STOP_WAVE boundaries (after >= 20
    // trials), so the quick per-layer trial count is far too small for a
    // site to ever stop; this section plans its own deeper campaign.
    // Each site gets `es_n` trials; the CI target is what that full
    // campaign achieves on its *worst* site, so the early-stopped run
    // reaches the same per-site precision everywhere while skipping the
    // trials that already-converged sites don't need. The serial
    // trials/sec above is the baseline.
    let es_n = (8 * goldeneye::EARLY_STOP_WAVE).max(n);
    let es_base = CampaignConfig {
        injections_per_layer: es_n,
        kind: SiteKind::Value,
        seed: 17,
        jobs: 1,
        ..Default::default()
    };
    let t = Instant::now();
    let es_full = run_campaign(&ge, model.as_ref(), &x, &y, &es_base);
    let es_full_secs = t.elapsed().as_secs_f64();
    let target_ci = es_full
        .layers
        .iter()
        .map(|l| l.delta_loss.ci95_half_width())
        .fold(0.0f32, f32::max)
        .max(1e-3);
    let es_cfg = es_base.clone().with_early_stop(target_ci);
    let t = Instant::now();
    let es_result = run_campaign(&ge, model.as_ref(), &x, &y, &es_cfg);
    let es_secs = t.elapsed().as_secs_f64();
    let es_tps = es_result.trials.len() as f64 / es_secs;
    // Effective throughput: planned statistical work per second — the
    // paper-level metric for "same power, less compute".
    let effective_tps = es_result.planned_trials as f64 / es_secs;
    println!(
        "Early stop @ CI {target_ci:.4} ({es_n} planned/site, full run \
         {es_full_secs:.1}s): {} of {} trials ({:.0}% saved), \
         {:.2} executed trials/s, {:.2} effective trials/s ({:.1}x serial)",
        es_result.trials.len(),
        es_result.planned_trials,
        es_result.early_stop_savings() * 100.0,
        es_tps,
        effective_tps,
        effective_tps / serial_tps
    );

    // Cold vs. warm artifact store: the same end-to-end multi-format
    // evaluation campaign — prepare a model, then per format quantise the
    // weights, measure accuracy, and run a small weight campaign —
    // against one `--store` directory, twice. The cold pass trains the
    // model and converts every weight tensor; the warm pass (a fresh
    // handle, like a second process) loads the trained checkpoint and the
    // cached conversions. Per-trial records are asserted byte-identical.
    let store_dir =
        std::env::temp_dir().join(format!("goldeneye_store_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let (cold_s, cold_stats, cold_jsonl) = store_end_to_end(&store_dir);
    let (warm_s, warm_stats, warm_jsonl) = store_end_to_end(&store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    assert!(cold_jsonl == warm_jsonl, "warm store changed per-trial campaign records");
    let warm_speedup = cold_s / warm_s;
    println!(
        "\nArtifact store (end-to-end multi-format campaign): cold {cold_s:.2}s, warm \
         {warm_s:.2}s ({warm_speedup:.2}x, warm hit rate {:.0}%, {} bytes reused, \
         byte-identical records)",
        warm_stats.hit_rate() * 100.0,
        warm_stats.bytes_reused
    );

    // Tracing-overhead budget: the same serial campaign with the event
    // layer recording (ring-buffer sink, Info level) vs. off. Per-trial
    // cost with tracing off is one relaxed atomic load; the gate reads the
    // median ratio of interleaved pairs (see `measure_overhead`).
    let cfg = CampaignConfig {
        injections_per_layer: n,
        kind: SiteKind::Value,
        seed: 17,
        jobs: 1,
        ..Default::default()
    };
    let Overhead { ratio, off, on, events, cpu } =
        measure_overhead(&ge, model.as_ref(), &x, &y, &cfg);
    let overhead = ratio - 1.0;
    println!(
        "Tracing overhead (serial, {n} inj/layer, median of {OVERHEAD_PAIRS} pairs, {}): \
         off {off:.3}s, on {on:.3}s ({:+.2}%, {events} buffered events) — budget {:.0}%{}",
        pinned(cpu),
        overhead * 100.0,
        OVERHEAD_BUDGET * 100.0,
        if overhead <= OVERHEAD_BUDGET { "" } else { "  ** OVER BUDGET **" }
    );

    manifest.wall_time_s = t_all.elapsed().as_secs_f64();
    manifest = manifest
        .with_extra("timings", Json::Arr(timing_rows))
        .with_extra("trace_overhead", Json::Num(overhead))
        .with_extra("trace_overhead_budget", Json::Num(OVERHEAD_BUDGET))
        .with_extra("untraced_s", Json::Num(off))
        .with_extra("traced_s", Json::Num(on))
        .with_extra("serial_trials", Json::from(trials))
        .with_extra("trials_per_sec_serial", Json::Num(serial_tps))
        .with_extra("early_stop_planned_per_site", Json::from(es_n))
        .with_extra("early_stop_full_run_s", Json::Num(es_full_secs))
        .with_extra("early_stop_ci_target", Json::Num(f64::from(target_ci)))
        .with_extra("early_stop_savings", Json::Num(es_result.early_stop_savings()))
        .with_extra("early_stop_executed_trials", Json::from(es_result.trials.len()))
        .with_extra("early_stop_planned_trials", Json::from(es_result.planned_trials))
        .with_extra("effective_trials_per_sec", Json::Num(effective_tps))
        .with_extra("effective_speedup_vs_serial", Json::Num(effective_tps / serial_tps))
        .with_extra("store_cold_s", Json::Num(cold_s))
        .with_extra("store_warm_s", Json::Num(warm_s))
        .with_extra("store_warm_speedup", Json::Num(warm_speedup))
        .with_extra("store_cold_hit_rate", Json::Num(cold_stats.hit_rate()))
        .with_extra("store_warm_hit_rate", Json::Num(warm_stats.hit_rate()))
        .with_extra("store_warm_bytes_reused", Json::from(warm_stats.bytes_reused));
    args.finish_run(manifest, Some("BENCH_campaign.json"));
}

/// One end-to-end multi-format pass against `dir`: model preparation
/// (training on a cold store, checkpoint load on a warm one), then for
/// each format an accuracy evaluation plus a small weight campaign.
/// Returns (wall seconds, this handle's store stats, concatenated
/// canonical per-trial records).
fn store_end_to_end(dir: &std::path::Path) -> (f64, store::StoreStats, String) {
    use rand::SeedableRng;
    let t = Instant::now();
    let store = Arc::new(store::Store::open(dir).expect("cannot open bench store"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let model = models::ResNet::new(models::ResNetConfig::tiny(8), &mut rng);
    let data = models::SyntheticDataset::generate(128, 16, 4, 7);
    let ckpt = "bench:store:tiny8";
    let cached = models::load_params_from_store(&model, &store, ckpt)
        .expect("corrupt checkpoint in bench store");
    if !cached {
        models::train(
            &model,
            &data,
            &models::TrainConfig { epochs: 8, batch_size: 16, lr: 3e-3, ..Default::default() },
        );
        models::save_params_to_store(&model, &store, ckpt);
    }
    let (x, y) = data.head_batch(8);
    let cfg = CampaignConfig {
        injections_per_layer: 2,
        kind: SiteKind::Value,
        seed: 3,
        jobs: 1,
        ..Default::default()
    };
    let mut jsonl = String::new();
    for spec in ["fp:e4m3", "fp:e5m2", "int:8", "posit:8:0", "bfp:e5m5:b16"] {
        let ge = GoldenEye::parse(spec).expect("valid spec").with_store(store.clone());
        evaluate_accuracy_jobs(&ge, &model, &data, 32, 16, 1);
        jsonl.push_str(&run_weight_campaign(&ge, &model, &x, &y, &cfg).canonical_trial_jsonl());
    }
    (t.elapsed().as_secs_f64(), store.stats(), jsonl)
}
