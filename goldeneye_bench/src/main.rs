//! `goldeneye_bench` — the repository benchmark: throughput of fault
//! injection campaigns and format-DSE sweeps end to end, and where their
//! time goes layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path goldeneye_bench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1] [--out <file>]
//! ```
//!
//! One run measures one workload (`BENCHMARK.json` lists them) for
//! `--seconds`. With `--trace 0` it reports the end-to-end metrics, with
//! `--trace 1` the per-layer ones; either way the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, preceded by a readable summary. `--out` also writes a
//! report with the host fingerprint, sample counts, quartiles and output
//! digests. `--workload all` runs every workload, each in a child process
//! of its own so that peak memory is per workload, and `--out` then
//! collects their reports.
//!
//! The first run trains the two models (minutes) in a child process and
//! keeps the weights in an artifact store next to the build output; later
//! runs load them.

mod bench;
mod cache;
mod contention;
mod host;
mod layers;
mod registry;
mod stats;
mod timed;
mod workloads;

use cache::Net;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;
use store::Store;
use trace::Json;
use workloads::{Nets, WORKLOADS};

const USAGE: &str = "usage: goldeneye_bench --workload <name|all> --seed <n> \
                     [--seconds <s>] [--trace 0|1] [--out <file>]";

/// Internal flag: train and cache any missing checkpoint, then exit.
const PREPARE: &str = "--prepare-checkpoints";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String], default_seconds: f64) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = default_seconds;
    let mut trace = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(format!("bad --seconds: {seconds}"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: expected 0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && workloads::find(&workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; expected all or one of {names:?}"));
    }
    Ok(Args { workload, seed: seed.ok_or("--seed is required")?, seconds, trace, out })
}

/// Where the checkpoint store (and the DSE workload's artifact store)
/// live: next to the build output, so a fresh checkout starts cold and
/// `cargo clean` clears it.
fn cache_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    // <target>/<profile>/goldeneye_bench → <target>/goldeneye_bench_cache
    let target = exe.parent().and_then(Path::parent).ok_or("executable has no target directory")?;
    Ok(target.join("goldeneye_bench_cache"))
}

/// A fresh handle on the checkpoint store in `dir`: every load reads and
/// verifies the stored object, as a new process would.
fn open_store(dir: &Path) -> io::Result<Arc<Store>> {
    Store::open(dir).map(Arc::new)
}

/// Makes sure each of `nets` has a usable checkpoint, training missing
/// ones in a child process so that training memory never counts towards
/// a workload's peak. Returns the training wall time, if any training ran.
fn ensure_checkpoints(dir: &Path, nets: &[&Net]) -> Result<Option<f64>, String> {
    let load = |net: &Net| open_store(dir).and_then(|s| cache::load(net, &s));
    if nets.iter().all(|n| load(n).is_ok()) {
        return Ok(None);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let t0 = Instant::now();
    let status = Command::new(exe)
        .arg(PREPARE)
        .status()
        .map_err(|e| format!("cannot start checkpoint training: {e}"))?;
    if !status.success() {
        return Err(format!("checkpoint training failed ({status})"));
    }
    for net in nets {
        load(net).map_err(|e| format!("checkpoint for {} unusable: {e}", net.name))?;
    }
    Ok(Some(t0.elapsed().as_secs_f64()))
}

fn prepare() -> Result<(), String> {
    let store = open_store(&cache_dir()?).map_err(|e| format!("cannot open the store: {e}"))?;
    let nets = Nets::paper();
    for net in [&nets.resnet, &nets.deit] {
        if let (_, Some(s)) = cache::load_or_train(net, &store) {
            eprintln!("[goldeneye_bench] trained {} in {s:.1} s", net.name);
        }
    }
    Ok(())
}

/// Runs one workload and prints its result; returns whether every check
/// passed.
fn run_one(args: &Args, reg: &registry::Registry) -> Result<bool, String> {
    let w = workloads::find(&args.workload).expect("validated by parse_args");
    let dir = cache_dir()?;
    let nets = Nets::paper();
    // Only this workload's model: the other one never enters this process.
    let train_s = ensure_checkpoints(&dir, &[nets.get(w.model)])?;
    let store_dir = dir.join(format!("store-{}", std::process::id()));
    // One computing thread: kernels stay serial even where a tensor op is
    // large enough to split (see `workloads::JOBS`).
    tensor::parallel::set_max_threads(1);
    let opts = bench::Options { seed: args.seed, seconds: args.seconds, trace: args.trace };
    let load = |net: &Net| cache::load(net, &open_store(&dir)?);
    let outcome = bench::run(w, &nets, &load, &store_dir, opts);
    // The store belongs to this run alone.
    let _ = std::fs::remove_dir_all(&store_dir);
    let outcome = outcome.map_err(|e| format!("{}: {e}", w.name))?;

    let decls = if args.trace { &reg.per_layer } else { &reg.end_to_end };
    let checks = outcome.checks;
    let result = Json::obj([
        ("correct", Json::from(checks.failed == 0)),
        ("attempted", Json::from(checks.attempted)),
        ("failed", Json::from(checks.failed)),
        ("metrics", registry::metrics_json(decls, &outcome.metrics)),
    ]);
    let host = host::fingerprint();
    println!(
        "# {} seed={} trace={} seconds={}",
        w.name,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!("# host {}", host.to_compact());
    for d in decls {
        println!("# {:<32} {:>16.6} {}", d.name, outcome.metrics[&d.name], d.unit);
    }
    println!("# checks {} attempted, {} failed", checks.attempted, checks.failed);
    println!("# detail {}", outcome.detail.to_compact());
    if let Some(path) = &args.out {
        let report = Json::obj([
            ("workload", Json::from(w.name)),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::from(args.trace)),
            ("host", host),
            ("train_s", train_s.map_or(Json::Null, Json::Num)),
            ("result", result.clone()),
            ("detail", outcome.detail),
        ]);
        std::fs::write(path, report.to_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", result.to_compact());
    Ok(checks.failed == 0)
}

/// Runs every workload in a child process of its own and collects their
/// reports into `--out`.
fn run_all(args: &Args) -> Result<bool, String> {
    let dir = cache_dir()?;
    let nets = Nets::paper();
    let train_s = ensure_checkpoints(&dir, &[&nets.resnet, &nets.deit])?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let mut all_ok = true;
    let mut reports = Vec::new();
    for w in &WORKLOADS {
        let part = dir.join(format!("all-{}-{}.json", std::process::id(), w.name));
        let status = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", w.name))?;
        all_ok &= status.success();
        let report = std::fs::read_to_string(&part).ok().and_then(|s| trace::parse(&s).ok());
        let _ = std::fs::remove_file(&part);
        all_ok &= report
            .as_ref()
            .and_then(|r| r.get("result")?.get("correct"))
            .is_some_and(|c| *c == Json::Bool(true));
        reports.push((w.name.to_string(), report.unwrap_or(Json::Null)));
    }
    if let Some(path) = &args.out {
        let combined = Json::obj([
            ("seed", Json::from(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::from(args.trace)),
            ("host", host::fingerprint()),
            ("train_s", train_s.map_or(Json::Null, Json::Num)),
            ("workloads", Json::Obj(reports)),
        ]);
        std::fs::write(path, combined.to_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.len() == 1 && argv[0] == PREPARE {
        prepare().map(|()| true)
    } else {
        let reg = registry::registry();
        match parse_args(&argv, reg.run_seconds) {
            Ok(args) if args.workload == "all" => run_all(&args),
            Ok(args) => run_one(&args, &reg),
            Err(e) => Err(format!("{e}\n{USAGE}")),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("goldeneye_bench: {e}");
            ExitCode::from(2)
        }
    }
}
