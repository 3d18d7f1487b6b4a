//! The `goldeneye` command-line tool — the paper's "set of command line
//! arguments for hyperparameter tuning" (§IV-B), exposing the simulator
//! without writing Rust:
//!
//! ```text
//! goldeneye ranges
//! goldeneye inspect bfp:e5m5:tensor
//! goldeneye quantize fp:e4m3 0.1,1.0,300
//! goldeneye evaluate --model cnn --spec int:8 [--epochs 8]
//! goldeneye campaign --model cnn --spec bfp:e5m5:tensor --site metadata --injections 20
//! goldeneye dse --model cnn --family afp [--drop 0.02]
//! goldeneye conformance --all [--report out.jsonl]
//! goldeneye validate-trace run.jsonl
//! ```
//!
//! Models are tiny synthetic-task networks trained on the spot (seconds),
//! so every subcommand is self-contained; the bench binaries cover the
//! paper-scale experiments.
//!
//! Observability flags (valid on every subcommand): `--trace-out <path>`
//! appends structured JSONL events (spans, per-trial records, the run
//! manifest); `--manifest <path>` writes the run manifest as pretty JSON;
//! `--log-level <error|warn|info|debug|trace>`, `-v` (debug), and
//! `--quiet` (warn) gate both terminal output and event verbosity.

use goldeneye::dse::{accuracy_eval, search, DseFamily};
use goldeneye::{evaluate_accuracy_jobs, run_campaign, CampaignConfig, GoldenEye};
use inject::{BitSampler, SiteKind};
use models::{
    train, DeitConfig, ResNet, ResNetConfig, SyntheticDataset, TrainConfig, VisionTransformer,
};
use nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{logln, outln, Level, RunManifest};

/// Observability flags shared by every subcommand, stripped from the
/// argument list before dispatch.
struct GlobalFlags {
    /// `--manifest <path>`: write the run manifest as pretty JSON.
    manifest: Option<std::path::PathBuf>,
    /// `--store <dir>`: checkpoint store shared across runs (and across
    /// concurrent processes pointing at the same directory). Caches the
    /// trained demo checkpoint; results stay bit-identical with or without
    /// it.
    store: Option<Arc<store::Store>>,
}

impl GlobalFlags {
    /// Extracts `--trace-out`, `--manifest`, `--log-level`, `-v`, and
    /// `--quiet` from `args` (removing them), configures the global
    /// tracer accordingly, and returns the remaining flags.
    fn extract(args: &mut Vec<String>) -> Result<GlobalFlags, String> {
        let mut take_value = |name: &str| -> Result<Option<String>, String> {
            match args.iter().position(|a| a == name) {
                None => Ok(None),
                Some(i) => {
                    let v = args
                        .get(i + 1)
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{name} needs a value"))?
                        .clone();
                    args.drain(i..=i + 1);
                    if args.iter().any(|a| a == name) {
                        return Err(format!("{name} given twice"));
                    }
                    Ok(Some(v))
                }
            }
        };
        let trace_out = take_value("--trace-out")?;
        let manifest = take_value("--manifest")?;
        let store_dir = take_value("--store")?;
        let log_level = take_value("--log-level")?;
        let mut level = match log_level {
            None => Level::Info,
            Some(s) => Level::parse(&s)
                .ok_or_else(|| format!("bad --log-level `{s}` (error|warn|info|debug|trace)"))?,
        };
        if let Some(i) = args.iter().position(|a| a == "-v" || a == "--verbose") {
            args.remove(i);
            level = Level::Debug;
        }
        if let Some(i) = args.iter().position(|a| a == "-q" || a == "--quiet") {
            args.remove(i);
            level = Level::Warn;
        }
        if let Some(i) = args.iter().position(|a| a == "--progress") {
            args.remove(i);
            trace::set_status_line(true);
        }
        trace::set_level(level);
        if let Some(path) = &trace_out {
            trace::open_jsonl(std::path::Path::new(path))
                .map_err(|e| format!("cannot open --trace-out `{path}`: {e}"))?;
        }
        // A run creates its store; the maintenance subcommands act only on
        // a store that already exists, so a mistyped path is an error.
        let maintenance = args.first().is_some_and(|a| a == "store");
        let store = match store_dir {
            None => None,
            Some(dir) => {
                let opened = if maintenance {
                    store::Store::open_existing(&dir)
                } else {
                    store::Store::open(&dir)
                };
                Some(Arc::new(opened.map_err(|e| format!("cannot open --store `{dir}`: {e}"))?))
            }
        };
        Ok(GlobalFlags { manifest: manifest.map(Into::into), store })
    }

    /// Finishes a run: emits `m` on the active trace sinks and writes it
    /// to the `--manifest` path, if one was given.
    fn finish(&self, mut m: RunManifest) -> Result<(), String> {
        if let Some(store) = &self.store {
            m = m.with_extra("store_generation", store.generation());
        }
        m.snapshot_counters();
        m.snapshot_profile();
        m.emit();
        if let Some(path) = &self.manifest {
            m.write(path)
                .map_err(|e| format!("cannot write manifest `{}`: {e}", path.display()))?;
            logln!(Level::Info, "manifest written to {}", path.display());
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let global = match GlobalFlags::extract(&mut args) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("ranges") => cmd_ranges(),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("quantize") => cmd_quantize(&args[1..]),
        Some("evaluate") => cmd_evaluate(&args[1..], &global),
        Some("campaign") => cmd_campaign(&args[1..], &global),
        Some("dse") => cmd_dse(&args[1..], &global),
        Some("conformance") => cmd_conformance(&args[1..], &global),
        Some("store") => cmd_store(&args[1..], &global),
        Some("validate-trace") => cmd_validate_trace(&args[1..]),
        Some("trace") => match cmd_trace(&args[1..]) {
            Ok(clean) if !clean => {
                trace::flush();
                trace::close_jsonl();
                return ExitCode::FAILURE;
            }
            Ok(_) => Ok(()),
            Err(e) => Err(e),
        },
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try `goldeneye help`)")),
    };
    trace::flush();
    trace::close_jsonl();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "goldeneye — functional simulator for numerical data formats in DNN accelerators\n\n\
         USAGE:\n  goldeneye <SUBCOMMAND> [OPTIONS]\n\n\
         SUBCOMMANDS:\n\
           ranges                                  print Table I (dynamic ranges)\n\
           inspect <spec>                          describe a number format\n\
           quantize <spec> <v1,v2,...>             quantise values; show bit images\n\
           evaluate --model cnn|vit --spec <spec>  accuracy under an emulated format\n\
                    [--jobs N]\n\
           campaign --model cnn|vit --spec <spec>  per-layer delta-loss injection campaign\n\
                    [--site value|metadata] [--injections N] [--jobs N]\n\
                    [--early-stop CI]       stop a layer once its delta-loss 95% CI\n\
                                            half-width falls to CI\n\
                    [--sampler uniform|stratified]  bit-position sampling policy\n\
           dse --model cnn|vit --family <fam>      binary-tree format search\n\
               [--drop 0.02] [--jobs N]  fam: fp|fxp|int|bfp|afp|mx\n\
           conformance [--all | <spec>...]         bit-exact format conformance oracle\n\
                       [--report <file.jsonl>]     (exhaustive for data widths ≤ 16 bits)\n\
                       [--write-golden <dir>]      regenerate golden vectors\n\
           store ls|verify|gc --store <dir>        inspect/validate/sweep a checkpoint store\n\
           validate-trace <file.jsonl>             check a --trace-out file line by line\n\
           trace stats <file.jsonl>                summarize a trace: spans, throughput,\n\
                                                   slowest trials/layers, profile tree\n\
           trace diff <a> <b> [--threshold R]      compare two run manifests; exits\n\
                                                   non-zero when wall_time_s or\n\
                                                   trials_per_sec regresses past R (0.10)\n\
           trace export --folded <manifest>        profile tree as flamegraph folded stacks\n\n\
         OBSERVABILITY (any subcommand):\n\
           --trace-out <path>   append structured JSONL events (spans, trials, manifest)\n\
           --manifest <path>    write the run manifest as pretty JSON\n\
           --store <dir>        checkpoint store: caches the trained demo checkpoint\n\
                                across runs/processes (results stay bit-identical)\n\
           --progress           live status line on stderr (heartbeats go to --trace-out)\n\
           --log-level <lvl>    error|warn|info|debug|trace (default info)\n\
           -v | --verbose       shorthand for --log-level debug\n\
           -q | --quiet         shorthand for --log-level warn (suppresses result output)\n\n\
         --jobs N runs on N worker threads (0 = all cores); results are\n\
         bit-identical to --jobs 1.\n\n\
         FORMAT SPECS: fp:eXmY[:nodn] fxp:1:I:F int:B bfp:eXmY:(bN|tensor) afp:eXmY posit:N:ES\n\
                       mx:<elem>:bN (elem: fp4e2m1 fp6e2m3 fp6e3m2 fp8e4m3 fp8e5m2)\n\
                       p3109:eXmY (1+X+Y = 8) gf:N (N: 8|16|32)\n\
                       fp32 fp16 bfloat16 tf32 dlfloat16 fp8 int8 int16 posit8 posit16\n\
                       mxfp4 mxfp6 mxfp8 (block-32 shorthands)"
    );
}

/// The arguments one subcommand was given, parsed by [`Flags::parse`]
/// against what the subcommand declares: flags that take one value,
/// switches that take none, and bare positional arguments.
struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positionals: Vec<String>,
}

impl Flags {
    /// Parses `args` as `--flag value` pairs (each flag one of `declared`),
    /// switches (each one of `switches`) and at most `max_positionals`
    /// bare arguments, in any order. An undeclared flag, a flag with no
    /// value (or with another flag as its value), a repeated flag or
    /// switch, or a positional past the last one taken is an error that
    /// names the token.
    fn parse(
        sub: &str,
        args: &[String],
        declared: &[&'static str],
        switches: &[&'static str],
        max_positionals: usize,
    ) -> Result<Flags, String> {
        let mut flags = Flags { values: Vec::new(), switches: Vec::new(), positionals: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&name) = switches.iter().find(|&&s| s == arg) {
                if flags.switches.contains(&name) {
                    return Err(format!("{sub}: {name} given twice"));
                }
                flags.switches.push(name);
                continue;
            }
            let Some(&name) = declared.iter().find(|&&d| d == arg) else {
                if arg.starts_with('-') {
                    let known: Vec<&str> = declared.iter().chain(switches).copied().collect();
                    let expected = if known.is_empty() { "none".into() } else { known.join(", ") };
                    return Err(format!("{sub}: unknown flag `{arg}` (expected {expected})"));
                }
                if flags.positionals.len() == max_positionals {
                    return Err(format!("{sub}: unexpected argument `{arg}`"));
                }
                flags.positionals.push(arg.clone());
                continue;
            };
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{sub}: {name} needs a value"))?;
            if flags.values.iter().any(|(n, _)| *n == name) {
                return Err(format!("{sub}: {name} given twice"));
            }
            flags.values.push((name, value.clone()));
        }
        Ok(flags)
    }

    /// Flag `name`'s value, `None` when the flag is absent.
    fn get(&self, name: &str) -> Option<String> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone())
    }

    /// Whether switch `name` was given.
    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// Parses flag `name`'s value, `None` when the flag is absent. A value
    /// that does not parse is an error, never a silent default.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name).map(|v| v.parse().map_err(|_| format!("bad {name} value `{v}`"))).transpose()
    }

    /// Parses `--jobs N` (default 1 = serial; 0 = all cores).
    fn jobs(&self) -> Result<usize, String> {
        Ok(self.parsed("--jobs")?.unwrap_or(1))
    }
}

fn cmd_ranges() -> Result<(), String> {
    print!("{}", formats::ranges::table1_text());
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("inspect needs a format spec")?;
    let ge = GoldenEye::parse(spec).map_err(|e| e.to_string())?;
    let f = ge.format();
    let r = f.dynamic_range();
    outln!("format:          {}", f.name());
    outln!("data bits/value: {}", f.bit_width());
    outln!("abs max:         {:.4e}", r.max_abs);
    outln!("abs min (≠0):    {:.4e}", r.min_abs);
    outln!("range:           {:.2} dB", r.db());
    outln!(
        "metadata:        {}",
        if f.supports_metadata_injection() { "injectable" } else { "none" }
    );
    Ok(())
}

fn cmd_quantize(args: &[String]) -> Result<(), String> {
    let spec = args.first().ok_or("quantize needs a format spec")?;
    let values = args.get(1).ok_or("quantize needs comma-separated values")?;
    let values: Vec<f32> = values
        .split(',')
        .map(|v| v.trim().parse::<f32>().map_err(|_| format!("bad value `{v}`")))
        .collect::<Result<_, _>>()?;
    let ge = GoldenEye::parse(spec).map_err(|e| e.to_string())?;
    let f = ge.format();
    let n = values.len();
    let q = f.real_to_format_tensor(&tensor::Tensor::from_vec(values.clone(), [n]));
    outln!("{:>14} {:>14} {:>20}", "input", "quantised", "bits");
    for (i, &x) in values.iter().enumerate() {
        let v = q.values.as_slice()[i];
        let bits = f.real_to_format(v, &q.meta, i);
        outln!("{x:>14.6} {v:>14.6} {:>20}", bits.to_string());
    }
    if q.meta.word_count() > 0 {
        outln!("\nmetadata ({} word(s), {} bits each):", q.meta.word_count(), q.meta.word_width());
        for w in 0..q.meta.word_count().min(8) {
            outln!("  word {w}: {}", q.meta.word_bits(w).expect("in range"));
        }
    }
    Ok(())
}

/// Builds and trains the CLI's small demonstration model. With an
/// artifact store attached, the trained checkpoint is cached under
/// `demo:{kind}:{epochs}` — training is fully deterministic (fixed seed,
/// fixed data), so a warm run loads the bit-identical weights and skips
/// the on-the-spot training entirely.
fn demo_model(
    kind: &str,
    epochs: usize,
    store: Option<&Arc<store::Store>>,
) -> Result<(Box<dyn Module>, SyntheticDataset, f32), String> {
    let mut rng = StdRng::seed_from_u64(1);
    let model: Box<dyn Module> = match kind {
        "cnn" => Box::new(ResNet::new(ResNetConfig::tiny(8), &mut rng)),
        "vit" => Box::new(VisionTransformer::new(DeitConfig::tiny_test(16, 4), &mut rng)),
        other => return Err(format!("unknown model `{other}` (cnn|vit)")),
    };
    let data = SyntheticDataset::generate(128, 16, 4, 7);
    let ckpt_name = format!("demo:{kind}:{epochs}");
    let cached = match store {
        Some(store) => models::load_params_from_store(model.as_ref(), store, &ckpt_name)
            .map_err(|e| format!("corrupt checkpoint `{ckpt_name}` in store: {e}"))?,
        None => false,
    };
    if cached {
        logln!(Level::Info, "loaded trained {kind} from store ({ckpt_name})");
    } else {
        logln!(Level::Info, "training {kind} ({epochs} epochs on the synthetic task)...");
        let _span = trace::span!("train", epochs = epochs);
        train(
            model.as_ref(),
            &data,
            &TrainConfig { epochs, batch_size: 16, lr: 3e-3, ..Default::default() },
        );
        if let Some(store) = store {
            models::save_params_to_store(model.as_ref(), store, &ckpt_name);
        }
    }
    let baseline = models::evaluate(model.as_ref(), &data, 64, 32);
    Ok((model, data, baseline))
}

fn cmd_evaluate(args: &[String], global: &GlobalFlags) -> Result<(), String> {
    let flags =
        Flags::parse("evaluate", args, &["--model", "--spec", "--epochs", "--jobs"], &[], 0)?;
    let model_kind = flags.get("--model").unwrap_or_else(|| "cnn".into());
    let spec = flags.get("--spec").ok_or("evaluate needs --spec")?;
    let epochs = flags.parsed("--epochs")?.unwrap_or(8);
    let jobs = flags.jobs()?;
    let ge = GoldenEye::parse(&spec).map_err(|e| e.to_string())?;
    let (model, data, baseline) = demo_model(&model_kind, epochs, global.store.as_ref())?;
    let t0 = Instant::now();
    let acc = evaluate_accuracy_jobs(&ge, model.as_ref(), &data, 64, 32, jobs);
    let wall = t0.elapsed().as_secs_f64();
    outln!("native FP32 accuracy: {:.1}%", baseline * 100.0);
    outln!("{} accuracy:     {:.1}%", ge.format().name(), acc * 100.0);
    let mut m = RunManifest::new("goldeneye evaluate")
        .with_config("model", model_kind.as_str())
        .with_config("spec", ge.format().name())
        .with_config("jobs", jobs)
        .with_extra("baseline_accuracy", baseline)
        .with_extra("accuracy", acc);
    m.wall_time_s = wall;
    global.finish(m)
}

fn cmd_campaign(args: &[String], global: &GlobalFlags) -> Result<(), String> {
    let flags = Flags::parse(
        "campaign",
        args,
        &["--model", "--spec", "--site", "--injections", "--jobs", "--early-stop", "--sampler"],
        &[],
        0,
    )?;
    let model_kind = flags.get("--model").unwrap_or_else(|| "cnn".into());
    let spec = flags.get("--spec").ok_or("campaign needs --spec")?;
    let site = flags.get("--site").unwrap_or_else(|| "value".into());
    let injections = flags.parsed("--injections")?.unwrap_or(20);
    let jobs = flags.jobs()?;
    let early_stop = match flags.get("--early-stop") {
        None => None,
        Some(v) => {
            let ci: f32 = v.parse().map_err(|_| format!("bad --early-stop value `{v}`"))?;
            if ci.is_nan() || ci <= 0.0 {
                return Err(format!("--early-stop needs a positive CI half-width, got `{v}`"));
            }
            Some(ci)
        }
    };
    let sampler = match flags.get("--sampler").as_deref() {
        None | Some("uniform") => BitSampler::Uniform,
        Some("stratified") => BitSampler::Stratified { critical_mass: 0.5 },
        Some(other) => return Err(format!("unknown sampler `{other}` (uniform|stratified)")),
    };
    let kind = match site.as_str() {
        "value" => SiteKind::Value,
        "metadata" => SiteKind::Metadata,
        other => return Err(format!("unknown site `{other}` (value|metadata)")),
    };
    let ge = GoldenEye::parse(&spec).map_err(|e| e.to_string())?;
    if kind == SiteKind::Metadata && !ge.format().supports_metadata_injection() {
        return Err(format!("{} has no injectable metadata", ge.format().name()));
    }
    let (model, data, _) = demo_model(&model_kind, 8, global.store.as_ref())?;
    let (x, y) = data.head_batch(8);
    let cfg = CampaignConfig {
        injections_per_layer: injections,
        kind,
        seed: 0,
        jobs,
        early_stop,
        sampler,
        ..Default::default()
    };
    let t0 = Instant::now();
    let result = run_campaign(&ge, model.as_ref(), &x, &y, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    outln!("{:<6} {:<18} {:>12} {:>12}", "layer", "name", "dLoss", "mismatch");
    for l in &result.layers {
        outln!(
            "{:<6} {:<18} {:>12.4} {:>11.1}%",
            l.layer,
            l.name,
            l.delta_loss_mean(),
            l.mismatch.mean() * 100.0
        );
    }
    outln!("\navg delta-loss across layers: {:.4}", result.avg_delta_loss());
    if result.early_stop_savings() > 0.0 {
        outln!(
            "early stopping skipped {} of {} planned trials ({:.0}%)",
            result.planned_trials - result.trials.len(),
            result.planned_trials,
            result.early_stop_savings() * 100.0
        );
    }
    let mut m = result.to_manifest("goldeneye campaign", &cfg, wall);
    m.config.push(("model".to_string(), trace::Json::from(model_kind.as_str())));
    global.finish(m)
}

fn cmd_dse(args: &[String], global: &GlobalFlags) -> Result<(), String> {
    let flags = Flags::parse("dse", args, &["--model", "--family", "--drop", "--jobs"], &[], 0)?;
    let model_kind = flags.get("--model").unwrap_or_else(|| "cnn".into());
    let family = flags.get("--family").ok_or("dse needs --family")?;
    let drop: f32 = flags.parsed("--drop")?.unwrap_or(0.02);
    if !(0.0..=1.0).contains(&drop) {
        return Err(format!("--drop needs a fraction in [0, 1], got `{drop}`"));
    }
    let jobs = flags.jobs()?;
    let family = match family.as_str() {
        "fp" => DseFamily::Fp,
        "fxp" => DseFamily::Fxp,
        "int" => DseFamily::Int,
        "bfp" => DseFamily::Bfp { block: usize::MAX },
        "afp" => DseFamily::Afp,
        "mx" => DseFamily::Mx { block: 32 },
        other => return Err(format!("unknown family `{other}` (fp|fxp|int|bfp|afp|mx)")),
    };
    let (model, data, baseline) = demo_model(&model_kind, 8, global.store.as_ref())?;
    outln!("baseline accuracy: {:.1}%, allowed drop {:.1}%", baseline * 100.0, drop * 100.0);
    let t0 = Instant::now();
    let result = search(family, accuracy_eval(model.as_ref(), &data, 64, 32, jobs), baseline, drop);
    let wall = t0.elapsed().as_secs_f64();
    for n in &result.nodes {
        outln!(
            "node {:>2}: {:<18} acc {:>5.1}%  {}",
            n.index,
            n.spec.to_string(),
            n.accuracy * 100.0,
            if n.accepted { "ok" } else { "reject" }
        );
    }
    match &result.best {
        Some(best) => outln!("suggested design point: {best}"),
        None => outln!("no acceptable configuration at this threshold"),
    }
    let mut m = result.to_manifest("goldeneye dse", wall);
    m.config.push(("model".to_string(), trace::Json::from(model_kind.as_str())));
    m.config.push(("family".to_string(), trace::Json::from(format!("{family:?}"))));
    global.finish(m)
}

fn cmd_conformance(args: &[String], global: &GlobalFlags) -> Result<(), String> {
    let flags =
        Flags::parse("conformance", args, &["--report", "--write-golden"], &["--all"], usize::MAX)?;
    let report_path = flags.get("--report");
    let write_golden = flags.get("--write-golden");
    let specs: Vec<formats::FormatSpec> =
        if flags.has("--all") || (flags.positionals.is_empty() && write_golden.is_none()) {
            conformance::standard_zoo()
        } else {
            flags
                .positionals
                .iter()
                .map(|s| s.parse().map_err(|e| format!("bad spec `{s}`: {e}")))
                .collect::<Result<_, String>>()?
        };

    if let Some(dir) = &write_golden {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create `{}`: {e}", dir.display()))?;
        for spec in conformance::vectors::golden_specs() {
            let path = dir.join(conformance::vectors::golden_file_name(&spec));
            std::fs::write(&path, conformance::vectors::generate(&spec))
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            outln!("wrote {}", path.display());
        }
        return Ok(());
    }

    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(specs.len());
    for spec in &specs {
        let r = conformance::check_format(spec);
        outln!("{}", conformance::report::summarize(&r));
        for v in &r.violations {
            outln!("  {v}");
        }
        reports.push(r);
    }

    // Golden-vector diffs for the specs that have checked-in vectors.
    let mut golden_failures = 0usize;
    for spec in conformance::vectors::golden_specs() {
        if !specs.contains(&spec) {
            continue;
        }
        match conformance::vectors::diff(&spec) {
            Ok(()) => outln!("golden {:<18} ok", spec.to_string()),
            Err(e) => {
                golden_failures += 1;
                outln!("golden {:<18} MISMATCH\n  {e}", spec.to_string());
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();

    if let Some(path) = &report_path {
        std::fs::write(path, conformance::report::to_jsonl(&reports))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        logln!(Level::Info, "report written to {path}");
    }

    let checks: u64 = reports.iter().map(|r| r.checks).sum();
    let codes: u64 = reports.iter().map(|r| r.codes_checked).sum();
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    outln!(
        "\n{} format(s), {} code(s) enumerated, {} check(s), {} violation(s) in {:.1}s",
        reports.len(),
        codes,
        checks,
        violations,
        wall
    );
    let mut m = RunManifest::new("goldeneye conformance")
        .with_config("formats", reports.len() as u64)
        .with_extra("codes_checked", codes as f64)
        .with_extra("checks", checks as f64)
        .with_extra("violations", violations as f64);
    m.wall_time_s = wall;
    global.finish(m)?;
    if violations > 0 || golden_failures > 0 {
        return Err(format!(
            "{violations} law violation(s), {golden_failures} golden mismatch(es)"
        ));
    }
    Ok(())
}

/// `goldeneye store <ls|verify|gc>` — artifact-store maintenance. All
/// three act on the directory given by the global `--store` flag.
fn cmd_store(args: &[String], global: &GlobalFlags) -> Result<(), String> {
    let flags = Flags::parse("store", args, &[], &[], 1)?;
    let action = flags.positionals.first().map(String::as_str);
    let store = global
        .store
        .as_ref()
        .ok_or("store subcommands need --store <dir> (the store to act on)")?;
    match action {
        Some("ls") => {
            let entries = store.ls().map_err(|e| format!("cannot list store: {e}"))?;
            outln!("{:<32} {:>12}", "checkpoint", "bytes");
            let mut total = 0u64;
            for e in &entries {
                outln!("{:<32} {:>12}", e.name, e.payload_bytes);
                total += e.payload_bytes;
            }
            outln!(
                "\n{} checkpoint(s), {} payload byte(s), generation {}",
                entries.len(),
                total,
                store.generation()
            );
            Ok(())
        }
        Some("verify") => {
            let report = store.verify().map_err(|e| format!("cannot verify store: {e}"))?;
            for (file, reason) in &report.corrupt {
                outln!("CORRUPT {file}: {reason}");
            }
            outln!("{} ok, {} corrupt", report.ok, report.corrupt.len());
            if report.is_clean() {
                Ok(())
            } else {
                Err(format!(
                    "{} corrupt artifact(s) (run `store gc` to sweep)",
                    report.corrupt.len()
                ))
            }
        }
        Some("gc") => {
            let report = store.gc().map_err(|e| format!("cannot gc store: {e}"))?;
            outln!(
                "kept {}, removed {} corrupt + {} temp file(s); generation now {}",
                report.kept,
                report.removed_corrupt,
                report.removed_tmp,
                report.generation
            );
            Ok(())
        }
        _ => Err("store needs an action: ls | verify | gc".into()),
    }
}

/// `goldeneye trace <stats|diff|export>` — the offline trace analysis
/// toolchain (`goldeneye::tracetool`). Returns `Ok(false)` when a diff
/// found a regression: the run itself succeeded but the process must
/// exit non-zero for CI.
fn cmd_trace(args: &[String]) -> Result<bool, String> {
    use goldeneye::tracetool;
    let Some(sub) = args.first() else {
        return Err("trace needs a subcommand: stats <file.jsonl> | diff <a> <b> [--threshold R] | export --folded <manifest>".into());
    };
    let rest = &args[1..];
    match sub.as_str() {
        "stats" => {
            let flags = Flags::parse("trace stats", rest, &[], &[], 1)?;
            let path = flags.positionals.first().ok_or("trace stats needs a JSONL file path")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let report = tracetool::stats_report(path, &text)?;
            outln!("{}", report.trim_end());
            Ok(true)
        }
        "diff" => {
            let flags = Flags::parse("trace diff", rest, &["--threshold"], &[], 2)?;
            let threshold = flags.parsed::<f64>("--threshold")?.unwrap_or(0.10);
            if !threshold.is_finite() || threshold < 0.0 {
                return Err(format!("--threshold must be a non-negative ratio, got `{threshold}`"));
            }
            let [a, b] = flags.positionals.as_slice() else {
                return Err(
                    "trace diff needs two manifest paths (and optional --threshold R)".into()
                );
            };
            let ma = tracetool::load_manifest(a)?;
            let mb = tracetool::load_manifest(b)?;
            let report = tracetool::diff_manifests(&ma, &mb, threshold);
            outln!("{}", report.text.trim_end());
            Ok(!report.has_regression())
        }
        "export" => {
            let flags = Flags::parse("trace export", rest, &[], &["--folded"], 1)?;
            let path = flags.positionals.first().ok_or("trace export needs a manifest path")?;
            if !flags.has("--folded") {
                return Err("trace export supports --folded (flamegraph folded stacks)".into());
            }
            let m = tracetool::load_manifest(path)?;
            print!("{}", tracetool::export_folded(&m)?);
            Ok(true)
        }
        other => Err(format!("unknown trace subcommand `{other}` (stats|diff|export)")),
    }
}

fn cmd_validate_trace(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("validate-trace needs a JSONL file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let summary = trace::validate_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    outln!(
        "{path}: ok — {} line(s): {} trial(s), {} span(s), {} progress, {} manifest(s), {} log(s)",
        summary.lines,
        summary.trials,
        summary.spans,
        summary.progress,
        summary.manifests,
        summary.logs
    );
    Ok(())
}
