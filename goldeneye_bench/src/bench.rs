//! One measured run of one workload: set-up (repeated), a warm-up
//! repetition, untraced timed repetitions for the end-to-end metrics
//! (throughput over all of them together; set-up time as a median),
//! traced repetitions for the per-layer metrics (traced runs only), then
//! the correctness checks. Everything before the checks runs under a
//! [`Probe`], and the end-to-end times are reported at the core's
//! uncontended speed (see [`crate::contention`]).

use crate::cache::Net;
use crate::contention::{Probe, Samples};
use crate::host;
use crate::layers::{self, Counters, Traced};
use crate::stats::{median, quartiles, tail};
use crate::timed::{Profile, TimedModel};
use crate::workloads::{Checks, Env, Inputs, Kind, Nets, Rep, Workload};
use nn::Module;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Json;

/// Set-ups timed after each timed repetition. `setup_s` is the median of
/// these and the first set-up: a set-up takes ~10 ms, and a median over
/// many of them, spread over the run, does not hang on one stall.
const SETUPS_PER_REP: usize = 3;
/// Fewest timed (untraced) and traced repetitions per run, however long
/// each takes.
const MIN_REPS: usize = 3;
const MIN_TRACED_REPS: usize = 2;
/// Events the trace crate's in-memory ring holds; a repetition emitting
/// this many may have lost some.
const TRACE_RING_CAPACITY: usize = 4096;

/// How to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Report per-layer (traced) metrics instead of end-to-end ones.
    pub trace: bool,
}

/// A run's metrics, checks and supporting detail.
#[derive(Debug)]
pub struct Outcome {
    /// The metric values, by name.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness checks.
    pub checks: Checks,
    /// Sample counts, quartiles, exact counts and digests, for the report.
    pub detail: Json,
}

/// Repeats `rep` at least `min` times, and then for as long as one more
/// repetition, taking as long as the last, still ends within `budget`.
fn repeat(
    budget: Duration,
    min: usize,
    mut rep: impl FnMut() -> io::Result<Rep>,
) -> io::Result<Vec<Rep>> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut last = Duration::ZERO;
    while reps.len() < min || start.elapsed() + last <= budget {
        let t0 = Instant::now();
        reps.push(rep()?);
        last = t0.elapsed();
    }
    Ok(reps)
}

fn summary(xs: &[f64]) -> Json {
    let (q1, med, q3) = quartiles(xs);
    Json::obj([
        ("median", Json::Num(med)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::from(xs.len())),
    ])
}

/// Sample count, median and the highest percentile with ten samples
/// beyond it.
fn latency(ms: &[f64]) -> Json {
    let tail = tail(ms);
    Json::obj([
        ("n", Json::from(ms.len())),
        ("p50", if ms.is_empty() { Json::Null } else { Json::Num(median(ms)) }),
        ("tail_pct", tail.map_or(Json::Null, |t| Json::Num(t.0))),
        ("tail", tail.map_or(Json::Null, |t| Json::Num(t.1))),
    ])
}

fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Runs workload `w` on the models `nets` names, loaded through `load`,
/// with its artifact store (if any) in `store_dir`.
///
/// # Errors
///
/// Returns the error loading a model or opening the store.
pub fn run(
    w: &Workload,
    nets: &Nets,
    load: &dyn Fn(&Net) -> io::Result<Box<dyn Module>>,
    store_dir: &Path,
    opts: Options,
) -> io::Result<Outcome> {
    let probe = Probe::start();
    let mut setups = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let env = w.setup(nets, load, opts.seed, store_dir);
        setups.push((t0, Instant::now()));
        env
    };
    let env = timed_setup()?;
    let model = env.model.as_ref();

    // The warm-up fills the lazily built state users pay for once per
    // process — LUTs, workspace pools, the artifact store — and is the
    // reference every later repetition must reproduce.
    let warm = w.rep(&env, model, None);
    let mut checks = Checks::default();
    let mut same_output = |r: &Rep, what: &str| {
        checks.record(r.digest == warm.digest, || {
            format!("{what} output digest {:016x} != warm-up {:016x}", r.digest, warm.digest)
        });
    };
    let budget =
        Duration::from_secs_f64(if opts.trace { opts.seconds / 2.0 } else { opts.seconds });
    let cpu0 = host::cpu_times();
    let timed = repeat(budget, MIN_REPS, || {
        let rep = w.rep(&env, model, None);
        for _ in 0..SETUPS_PER_REP {
            timed_setup()?;
        }
        Ok(rep)
    })?;
    let cpu1 = host::cpu_times();
    let traced = if opts.trace { Some(trace_reps(w, &env, budget)?) } else { None };
    let samples = probe.finish();

    timed.iter().for_each(|r| same_output(r, "timed repetition"));
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let uncontended_walls = uncontended(&samples, &timed);
    let slowdown: Vec<f64> = walls.iter().zip(&uncontended_walls).map(|(w, u)| w / u).collect();
    // Work over time across every timed repetition, at the core's
    // uncontended speed.
    let total_units: usize = timed.iter().map(|r| r.units).sum();
    let throughput = total_units as f64 / uncontended_walls.iter().sum::<f64>();
    let by_rep: Vec<Json> =
        timed.iter().zip(&uncontended_walls).map(|(r, u)| Json::Num(r.units as f64 / u)).collect();
    let setup_raw: Vec<f64> = setups.iter().map(|&(a, b)| (b - a).as_secs_f64()).collect();
    let setup_s: Vec<f64> =
        setups.iter().map(|&(a, b)| (b - a).as_secs_f64() / samples.slowdown(a, b)).collect();

    let mut metrics = BTreeMap::new();
    let mut detail = vec![
        ("setup_s", summary(&setup_s)),
        ("setup_s_raw", summary(&setup_raw)),
        ("rep_wall_s", summary(&walls)),
        ("units_per_s_raw", Json::Num(total_units as f64 / walls.iter().sum::<f64>())),
        ("units_per_s_by_rep", Json::Arr(by_rep)),
        ("slowdown", summary(&slowdown)),
        ("probes", Json::from(samples.len())),
        ("probe_fastest_s", Json::Num(samples.fastest_s())),
        ("pinned_cpu", samples.cpu().map_or(Json::Null, Json::from)),
        ("units_per_rep", Json::from(warm.units)),
        // User and kernel CPU seconds over the timed repetitions (and the
        // set-ups between them). The kernel share is mostly page faults
        // of large allocations, and glibc's dynamic mmap threshold makes
        // it vary from run to run.
        (
            "timed_cpu_s",
            Json::obj([("user", Json::Num(cpu1.0 - cpu0.0)), ("sys", Json::Num(cpu1.1 - cpu0.1))]),
        ),
        ("dse_nodes", Json::from(warm.search.as_ref().map_or(0, |s| s.nodes.len()))),
        ("digest", Json::from(format!("{:016x}", warm.digest))),
    ];
    if let Some(traced) = traced {
        traced.reps.iter().for_each(|r| same_output(r, "traced repetition"));
        detail.push(("traced_reps", Json::from(traced.reps.len())));
        detail.push(("unit_ms", latency(&layers::unit_spans(&traced.events).0)));
        checks.record(traced.max_rep_events < TRACE_RING_CAPACITY, || {
            "a traced repetition overflowed the trace event ring".into()
        });
        let overhead =
            median(&uncontended(&samples, &traced.reps)) / median(&uncontended_walls) - 1.0;
        metrics = layers::per_layer(&traced, overhead);
    } else {
        metrics.insert("units_per_s".into(), throughput);
        metrics.insert("setup_s".into(), median(&setup_s));
    }
    let extra = w.check(&env, &warm);
    checks.attempted += extra.attempted;
    checks.failed += extra.failed;
    if !opts.trace {
        metrics.insert("peak_rss_mb".into(), host::peak_rss_mb());
    }
    Ok(Outcome { metrics, checks, detail: Json::obj(detail) })
}

/// Each repetition's wall time at the core's uncontended speed.
fn uncontended(samples: &Samples, reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s / samples.slowdown(r.start, r.end())).collect()
}

/// The traced repetitions: the model wrapped in [`TimedModel`], formats
/// in `TimedFormat`, span events captured in memory and the library
/// counters zeroed first.
fn trace_reps(w: &Workload, env: &Env, budget: Duration) -> io::Result<Traced> {
    let model = env.model.as_ref();
    let (discover_ms, clean_run_ms) = match (w.kind, &env.inputs) {
        (Kind::Replay { .. }, Inputs::Campaign { ge, x, .. }) => (
            median_ms(3, || drop(ge.discover_layers(model, x.clone()))),
            median_ms(3, || drop(ge.capture_clean_run(model, x.clone()))),
        ),
        (Kind::PerTrial { .. }, Inputs::Campaign { ge, x, .. }) => {
            (median_ms(3, || drop(ge.discover_layers(model, x.clone()))), 0.0)
        }
        _ => (0.0, 0.0),
    };
    let profile = Profile::new(model.num_segments());
    let timed = TimedModel::new(model, profile.clone());
    let mut events = Vec::new();
    let mut max_rep_events = 0;
    trace::reset_metrics();
    trace::set_level(trace::Level::Debug);
    trace::capture_events(true);
    let cpu0 = host::cpu_times();
    let reps = repeat(budget, MIN_TRACED_REPS, || {
        let r = w.rep(env, &timed, Some(&profile));
        let taken = trace::take_events();
        max_rep_events = max_rep_events.max(taken.len());
        events.extend(taken.into_iter().filter(|e| e.kind == trace::names::KIND_SPAN));
        Ok(r)
    });
    let cpu1 = host::cpu_times();
    trace::capture_events(false);
    trace::set_level(trace::Level::Info);
    Ok(Traced {
        reps: reps?,
        profile: profile.totals(),
        events,
        max_rep_events,
        counters: Counters::read(),
        cpu_s: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
        discover_ms,
        clean_run_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Arch, IMG_SIZE, NUM_CLASSES};
    use crate::layers::SEGMENT_SLOTS;
    use crate::registry::{self, Decl};
    use crate::workloads::WORKLOADS;
    use models::{DeitConfig, ResNetConfig, TrainConfig};
    use std::collections::BTreeSet;

    /// Random-initialised small stand-ins for the two models.
    fn tiny_nets() -> Nets {
        let net = |name, arch| Net { name, arch, train: TrainConfig::default() };
        Nets {
            resnet: net("resnet_tiny", Arch::ResNet(ResNetConfig::tiny(NUM_CLASSES))),
            deit: net("deit_test", Arch::Deit(DeitConfig::tiny_test(IMG_SIZE, NUM_CLASSES))),
        }
    }

    fn names(decls: &[Decl]) -> BTreeSet<&str> {
        decls.iter().map(|d| d.name.as_str()).collect()
    }

    /// Every workload, traced and untraced, emits exactly the metrics
    /// `BENCHMARK.json` declares for that mode — so every declared metric
    /// is emitted — and passes its checks, the traced repetitions'
    /// output digests included.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let reg = registry::registry();
        let nets = tiny_nets();
        let load = |net: &Net| -> io::Result<Box<dyn Module>> { Ok(net.build()) };
        let store_dir =
            std::env::temp_dir().join(format!("goldeneye_bench_store_{}", std::process::id()));
        for w in &WORKLOADS {
            for trace in [false, true] {
                let opts = Options { seed: 5, seconds: 0.0, trace };
                let out = run(w, &nets, &load, &store_dir, opts).unwrap();
                assert!(out.checks.attempted > 0);
                assert_eq!(out.checks.failed, 0, "{} trace={trace}", w.name);
                let decls = if trace { &reg.per_layer } else { &reg.end_to_end };
                let emitted: BTreeSet<&str> = out.metrics.keys().map(String::as_str).collect();
                assert_eq!(emitted, names(decls), "{} trace={trace}", w.name);
                assert!(out.metrics.values().all(|v| v.is_finite()), "{:?}", out.metrics);
                if !trace {
                    assert!(out.metrics.values().all(|&v| v > 0.0), "{:?}", out.metrics);
                }
            }
        }
        std::fs::remove_dir_all(&store_dir).ok();
    }

    #[test]
    fn every_model_segment_has_a_metric_slot() {
        for net in [Net::resnet18(), Net::deit_tiny()] {
            let segments = net.build().num_segments();
            assert!(segments <= SEGMENT_SLOTS, "{} has {segments} segments", net.name);
        }
    }
}
