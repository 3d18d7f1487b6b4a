//! Shared harness for the benchmark binaries that regenerate the paper's
//! tables and figures (see DESIGN.md §4 for the experiment index).
//!
//! Models are trained once on the synthetic dataset and kept as store
//! checkpoints under `target/goldeneye_cache/` (`GOLDENEYE_CACHE`
//! overrides), named by [`ModelKind::checkpoint_name`]. After a change to
//! the training *code*, which the name does not capture, clear that
//! directory.
//!
//! Every binary that times something uses [`time`] or [`time_pairs`] and
//! reads its statistics off the returned [`Timing`]; [`BenchArgs`] times
//! the whole run for the manifest's `wall_time_s`.

use models::{DeitConfig, ResNet, ResNetConfig, SyntheticDataset, TrainConfig, VisionTransformer};
use nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use store::Store;

/// Canonical image side length shared by every experiment.
pub const IMG_SIZE: usize = 32;
/// Number of classes in the synthetic task.
pub const NUM_CLASSES: usize = 10;
/// Training-set size.
pub const TRAIN_N: usize = 512;
/// Evaluation-set size.
pub const TEST_N: usize = 128;
/// Seed of the training split.
const TRAIN_SEED: u64 = 2022;
/// Seed of the random initialisation every model starts from.
const BUILD_SEED: u64 = 0xC0FFEE;

/// The evaluation models of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Width-scaled ResNet-18.
    Resnet18,
    /// Width-scaled ResNet-50.
    Resnet50,
    /// Width-scaled DeiT-tiny.
    DeitTiny,
    /// Width-scaled DeiT-base.
    DeitBase,
}

impl ModelKind {
    /// Stable name used in checkpoint names and table rows.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Resnet18 => "resnet18",
            ModelKind::Resnet50 => "resnet50",
            ModelKind::DeitTiny => "deit_tiny",
            ModelKind::DeitBase => "deit_base",
        }
    }

    fn arch(&self) -> Arch {
        match self {
            ModelKind::Resnet18 => Arch::ResNet(ResNetConfig::resnet18(8, NUM_CLASSES)),
            ModelKind::Resnet50 => Arch::ResNet(ResNetConfig::resnet50(4, NUM_CLASSES)),
            ModelKind::DeitTiny => Arch::Deit(DeitConfig::deit_tiny(IMG_SIZE, NUM_CLASSES)),
            ModelKind::DeitBase => Arch::Deit(DeitConfig::deit_base(IMG_SIZE, NUM_CLASSES)),
        }
    }

    fn build(&self) -> Box<dyn Module> {
        let mut rng = StdRng::seed_from_u64(BUILD_SEED);
        match self.arch() {
            Arch::ResNet(c) => Box::new(ResNet::new(c, &mut rng)),
            Arch::Deit(c) => Box::new(VisionTransformer::new(c, &mut rng)),
        }
    }

    /// The trained checkpoint's name in the cache store. It hashes the
    /// architecture, the training hyperparameters, the training data and
    /// the seeds, so changing any of them trains afresh.
    pub fn checkpoint_name(&self) -> String {
        let identity = format!(
            "{:?}|{:?}|train_n={TRAIN_N} img={IMG_SIZE} classes={NUM_CLASSES} \
             data_seed={TRAIN_SEED}|init={BUILD_SEED}",
            self.arch(),
            self.train_config()
        );
        format!("bench:{}:{:016x}", self.name(), formats::hash::fnv1a(identity.as_bytes()))
    }

    fn train_config(&self) -> TrainConfig {
        match self {
            ModelKind::Resnet18 => {
                TrainConfig { epochs: 10, batch_size: 32, lr: 2e-3, ..Default::default() }
            }
            ModelKind::Resnet50 => {
                TrainConfig { epochs: 8, batch_size: 32, lr: 2e-3, ..Default::default() }
            }
            ModelKind::DeitTiny => {
                TrainConfig { epochs: 14, batch_size: 32, lr: 1e-3, ..Default::default() }
            }
            ModelKind::DeitBase => {
                TrainConfig { epochs: 8, batch_size: 32, lr: 1e-3, ..Default::default() }
            }
        }
    }
}

/// A model architecture.
#[derive(Debug)]
enum Arch {
    ResNet(ResNetConfig),
    Deit(DeitConfig),
}

/// The shared training split.
pub fn train_set() -> SyntheticDataset {
    SyntheticDataset::generate(TRAIN_N, IMG_SIZE, NUM_CLASSES, TRAIN_SEED)
}

/// The shared held-out evaluation split.
pub fn test_set() -> SyntheticDataset {
    SyntheticDataset::generate(TEST_N, IMG_SIZE, NUM_CLASSES, 2023)
}

fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("GOLDENEYE_CACHE") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/goldeneye_cache")
}

/// Builds (and trains, or loads from the cache store) a model, returning
/// it plus its held-out accuracy.
pub fn prepare_model(kind: ModelKind) -> (Box<dyn Module>, f32) {
    let store = Arc::new(Store::open(cache_dir()).expect("cannot open the cache store"));
    let name = kind.checkpoint_name();
    let model = kind.build();
    if let Ok(true) = models::load_params_from_store(model.as_ref(), &store, &name) {
        eprintln!("[bench] loaded cached weights for {}", kind.name());
    } else {
        eprintln!("[bench] training {} (one-time, cached afterwards)...", kind.name());
        let mut cfg = kind.train_config();
        cfg.verbose = true;
        models::train(model.as_ref(), &train_set(), &cfg);
        models::save_params_to_store(model.as_ref(), &store, &name);
    }
    let acc = models::evaluate(model.as_ref(), &test_set(), TEST_N, 32);
    eprintln!("[bench] {} held-out accuracy: {:.1}%", kind.name(), acc * 100.0);
    (model, acc)
}

/// Wall-clock statistics of a repeated call, in seconds per call.
///
/// Quantiles follow the exclusive rule (Hyndman–Fan type 6, Python's
/// `statistics.quantiles`), as the repository benchmark's reports do:
/// the `p`-quantile sits at position `p·(n+1)` of the sorted samples,
/// clamped to their range and linearly interpolated.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Ascending.
    samples: Vec<f64>,
}

impl Timing {
    /// The statistics of `samples`, in any order.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "a timing needs at least one sample");
        assert!(!samples.iter().any(|s| s.is_nan()), "NaN timing sample");
        samples.sort_by(f64::total_cmp);
        Timing { samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The smallest sample.
    pub fn min(&self) -> f64 {
        self.samples[0]
    }

    /// The `p`-quantile, `0 ≤ p ≤ 1`.
    fn quantile(&self, p: f64) -> f64 {
        let s = &self.samples;
        let n = s.len();
        let h = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = h.floor() as usize;
        if lo == n {
            return s[n - 1];
        }
        s[lo - 1] + (h - lo as f64) * (s[lo] - s[lo - 1])
    }

    /// The median (the mean of the middle two for an even count).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// First and third quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// The arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.count() as f64
    }

    /// The population standard deviation (divided by the count).
    pub fn std_dev(&self) -> f64 {
        let mean = self.mean();
        let var = self.samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>();
        (var / self.count() as f64).sqrt()
    }

    /// The same timing in other units: every sample times `factor` (`1e3`
    /// for milliseconds, `1e9 / n` for nanoseconds per element of `n`).
    pub fn scaled(&self, factor: f64) -> Timing {
        Timing::from_samples(self.samples.iter().map(|s| s * factor).collect())
    }
}

/// Wall time of `calls` back-to-back calls of `f`, divided by `calls`.
fn sample(calls: usize, f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..calls {
        f();
    }
    t.elapsed().as_secs_f64() / calls as f64
}

/// Times `f`: one untimed warm-up call, then `samples` samples of `calls`
/// back-to-back calls each. Batching calls lets a sample of a
/// sub-microsecond call run long enough for the clock to resolve it.
///
/// # Panics
///
/// Panics if `samples` or `calls` is zero.
pub fn time(samples: usize, calls: usize, mut f: impl FnMut()) -> Timing {
    assert!(samples > 0 && calls > 0, "time needs at least one sample of one call");
    f();
    Timing::from_samples((0..samples).map(|_| sample(calls, &mut f)).collect())
}

/// An interleaved A/B measurement from [`time_pairs`].
#[derive(Debug, Clone)]
pub struct Pairs {
    /// Side A, one sample per pair.
    pub a: Timing,
    /// Side B, one sample per pair.
    pub b: Timing,
    /// Each pair's B/A ratio.
    pub ratio: Timing,
}

/// Times `b` against `a`: one untimed warm-up call of each, then `pairs`
/// adjacent pairs of one call each. Even pairs run A first, odd pairs B
/// first, so a warm-up or cool-down drift does not always land on the
/// same side. Adjacent calls share whatever load burst hits the host, so a
/// burst moves one pair's ratio, not the median ratio.
///
/// # Panics
///
/// Panics if `pairs` is zero.
pub fn time_pairs(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Pairs {
    assert!(pairs > 0, "time_pairs needs at least one pair");
    a();
    b();
    let (mut ta, mut tb) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..pairs {
        if i % 2 == 0 {
            ta.push(sample(1, &mut a));
            tb.push(sample(1, &mut b));
        } else {
            tb.push(sample(1, &mut b));
            ta.push(sample(1, &mut a));
        }
    }
    let ratio = Timing::from_samples(ta.iter().zip(&tb).map(|(a, b)| b / a).collect());
    Pairs { a: Timing::from_samples(ta), b: Timing::from_samples(tb), ratio }
}

/// Simple CLI flags shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// `--full`: paper-scale parameters (e.g. 1000 injections/layer).
    pub full: bool,
    /// `--quick`: CI-smoke parameters (small sizes, few repetitions).
    pub quick: bool,
    /// `--injections N`: override the per-layer injection count.
    pub injections: Option<usize>,
    /// `--jobs N`: campaign worker threads (1 = serial, 0 = all cores).
    /// Campaign results are bit-identical across values.
    pub jobs: usize,
    /// `--out <path>`: write the run manifest as pretty JSON.
    pub out: Option<PathBuf>,
    /// The binary's own switches (see [`BenchArgs::parse_with`]) that were
    /// given.
    switches: Vec<String>,
    /// `-h` / `--help`: print the usage and exit before any work.
    help: bool,
    /// When the flags were parsed: the start of the run's `wall_time_s`.
    start: Instant,
}

impl BenchArgs {
    /// Parses the shared flags from `std::env::args`; see
    /// [`BenchArgs::parse_with`].
    pub fn parse() -> Self {
        Self::parse_with(&[])
    }

    /// Parses flags from `std::env::args`: the shared ones, plus `own`,
    /// switches the binary reads itself through [`BenchArgs::has`].
    ///
    /// Besides the experiment knobs, every bench binary understands the
    /// observability flags: `--out <path>` (run-manifest JSON),
    /// `--trace-out <path>` (structured JSONL events), `--log-level
    /// <lvl>` / `-v` / `-q` (verbosity gate).
    ///
    /// A malformed or missing value (`--jobs abc`, `--log-level loud`, a
    /// trailing `--injections`) prints `error: ...` and exits with status
    /// 1, as the `goldeneye` CLI does; an unknown flag is reported and
    /// ignored. `-h` / `--help` prints the shared flags and `own`, then
    /// exits with status 0.
    pub fn parse_with(own: &[&str]) -> Self {
        let args = Self::try_parse(std::env::args().skip(1), own).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        });
        if args.help {
            let bin = std::env::args().next().unwrap_or_default();
            let name = std::path::Path::new(&bin).file_name().map(|n| n.to_string_lossy());
            print!("{}", Self::usage(name.as_deref().unwrap_or("bench"), own));
            std::process::exit(0)
        }
        args
    }

    /// The usage text `-h` / `--help` prints: the shared flags, then the
    /// binary's own switches `own`.
    fn usage(bin: &str, own: &[&str]) -> String {
        let mut text = format!(
            "usage: {bin} [flags]\n\n\
             shared flags:\n  \
             --quick               CI-smoke parameters (small sizes, few repetitions)\n  \
             --full                paper-scale parameters (e.g. 1000 injections/layer)\n  \
             --injections <n>      injections per layer\n  \
             --jobs <n>            campaign worker threads (1 = serial, 0 = all cores)\n  \
             --out <path>          write the run manifest as pretty JSON\n  \
             --trace-out <path>    write structured JSONL trace events\n  \
             --log-level <level>   error|warn|info|debug|trace\n  \
             -v, --verbose         same as --log-level debug\n  \
             -q, --quiet           same as --log-level warn\n  \
             -h, --help            print this text and exit\n"
        );
        if !own.is_empty() {
            text.push_str(&format!("\n{bin} switches:\n"));
            for switch in own {
                text.push_str(&format!("  {switch}\n"));
            }
        }
        text
    }

    /// [`BenchArgs::parse_with`] over `argv` (program name excluded),
    /// returning the error instead of exiting.
    ///
    /// # Errors
    ///
    /// Returns `bad --<flag> ...` for a value that does not parse,
    /// `--<flag> needs a value` for a flag given last without one, and the
    /// error opening a `--trace-out` file.
    pub fn try_parse(argv: impl IntoIterator<Item = String>, own: &[&str]) -> Result<Self, String> {
        fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        fn number(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
            let v = value(it, flag)?;
            v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
        }
        let mut args = BenchArgs {
            full: false,
            quick: false,
            injections: None,
            jobs: 1,
            out: None,
            switches: Vec::new(),
            help: false,
            start: Instant::now(),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => args.full = true,
                "--quick" => args.quick = true,
                "--injections" => args.injections = Some(number(&mut it, &a)?),
                "--jobs" => args.jobs = number(&mut it, &a)?,
                "--out" => args.out = Some(PathBuf::from(value(&mut it, &a)?)),
                "--trace-out" => {
                    let path = value(&mut it, &a)?;
                    trace::open_jsonl(std::path::Path::new(&path))
                        .map_err(|e| format!("cannot open --trace-out `{path}`: {e}"))?;
                }
                "--log-level" => {
                    let l = value(&mut it, &a)?;
                    let level = trace::Level::parse(&l).ok_or_else(|| {
                        format!("bad --log-level `{l}` (error|warn|info|debug|trace)")
                    })?;
                    trace::set_level(level);
                }
                "-v" | "--verbose" => trace::set_level(trace::Level::Debug),
                "-q" | "--quiet" => trace::set_level(trace::Level::Warn),
                "-h" | "--help" => args.help = true,
                other if own.contains(&other) => args.switches.push(a),
                other => eprintln!("[bench] ignoring unknown flag {other}"),
            }
        }
        Ok(args)
    }

    /// Whether the binary's own switch `flag` (declared to
    /// [`BenchArgs::parse_with`]) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// Injections per layer: explicit override > full (1000) > quick
    /// default.
    pub fn injections_per_layer(&self, quick_default: usize) -> usize {
        self.injections.unwrap_or(if self.full { 1000 } else { quick_default })
    }

    /// Finishes a bench run: sets `m.wall_time_s` to the time since the
    /// flags were parsed, snapshots the trace counters into `m`, emits it
    /// on any active trace sinks, and writes it to `--out` (or
    /// `default_out`, when given) as pretty JSON.
    pub fn finish_run(&self, mut m: trace::RunManifest, default_out: Option<&str>) {
        m.wall_time_s = self.start.elapsed().as_secs_f64();
        m.snapshot_counters();
        m.snapshot_profile();
        m.emit();
        trace::flush();
        let path = self.out.clone().or_else(|| default_out.map(PathBuf::from));
        if let Some(path) = path {
            match m.write(&path) {
                Ok(()) => eprintln!("[bench] manifest written to {}", path.display()),
                Err(e) => eprintln!("[bench] cannot write manifest {}: {e}", path.display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kinds_build() {
        for kind in
            [ModelKind::Resnet18, ModelKind::Resnet50, ModelKind::DeitTiny, ModelKind::DeitBase]
        {
            let m = kind.build();
            assert!(m.param_count() > 1000, "{} too small", kind.name());
        }
    }

    #[test]
    fn checkpoint_names_tell_models_apart() {
        let names: Vec<String> =
            [ModelKind::Resnet18, ModelKind::Resnet50, ModelKind::DeitTiny, ModelKind::DeitBase]
                .iter()
                .map(ModelKind::checkpoint_name)
                .collect();
        for (i, a) in names.iter().enumerate() {
            assert!(names[i + 1..].iter().all(|b| a != b), "{a} is not unique");
        }
        assert!(names[0].starts_with("bench:resnet18:"), "{}", names[0]);
        assert_eq!(names[0], ModelKind::Resnet18.checkpoint_name(), "names must be stable");
    }

    fn parse(args: &[&str], own: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse(args.iter().map(|a| a.to_string()), own)
    }

    #[test]
    fn malformed_numeric_flags_are_errors() {
        assert_eq!(
            parse(&["--injections", "abc"], &[]).unwrap_err(),
            "bad --injections value `abc`"
        );
        assert_eq!(parse(&["--jobs", "-1"], &[]).unwrap_err(), "bad --jobs value `-1`");
        assert_eq!(parse(&["--quick", "--jobs"], &[]).unwrap_err(), "--jobs needs a value");
        assert!(parse(&["--log-level", "loud"], &[]).unwrap_err().starts_with("bad --log-level"));
        let args = parse(&["--injections", "7", "--jobs", "0", "--full"], &[]).unwrap();
        assert_eq!((args.injections, args.jobs, args.full), (Some(7), 0, true));
        assert_eq!(parse(&[], &[]).unwrap().jobs, 1);
    }

    #[test]
    fn help_is_a_flag_not_an_unknown_argument() {
        let own = ["--overhead-only"];
        for flag in ["-h", "--help"] {
            assert!(parse(&[flag], &own).unwrap().help, "{flag}");
            assert!(parse(&["--quick", flag], &[]).unwrap().help, "{flag} after a flag");
        }
        assert!(!parse(&["--quick"], &own).unwrap().help);
        let usage = BenchArgs::usage("campaign_scaling", &own);
        for flag in ["--quick", "--full", "--injections", "--jobs", "--out", "--help"] {
            assert!(usage.contains(flag), "usage lacks {flag}:\n{usage}");
        }
        assert!(usage.contains("campaign_scaling switches:\n  --overhead-only\n"), "{usage}");
        assert!(!BenchArgs::usage("fig3", &[]).contains("switches:"));
    }

    #[test]
    fn binaries_declare_their_own_switches() {
        let own = ["--overhead-only"];
        let args = parse(&["--quick", "--overhead-only"], &own).unwrap();
        assert!(args.quick && args.has("--overhead-only"));
        assert!(!parse(&["--quick"], &own).unwrap().has("--overhead-only"));
        // Undeclared, the switch is ignored rather than recorded.
        assert!(!parse(&["--overhead-only"], &[]).unwrap().has("--overhead-only"));
    }

    #[test]
    fn timing_order_statistics_odd_count() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let t = Timing::from_samples(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((t.count(), t.min(), t.median()), (5, 1.0, 3.0));
        assert_eq!(t.quartiles(), (1.5, 4.5));
        assert_eq!((t.mean(), t.std_dev()), (3.0, 2f64.sqrt()));
    }

    #[test]
    fn timing_order_statistics_even_count() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let t = Timing::from_samples((1..=10).rev().map(f64::from).collect());
        assert_eq!((t.min(), t.median()), (1.0, 5.5));
        assert_eq!(t.quartiles(), (2.75, 8.25));
        // Two samples clamp the quartiles to the extremes.
        let t = Timing::from_samples(vec![3.0, 1.0]);
        assert_eq!((t.min(), t.median(), t.quartiles()), (1.0, 2.0, (1.0, 3.0)));
        let one = Timing::from_samples(vec![7.0]);
        assert_eq!((one.median(), one.quartiles(), one.std_dev()), (7.0, (7.0, 7.0), 0.0));
        assert_eq!(t.scaled(1e3), Timing::from_samples(vec![1e3, 3e3]));
    }

    #[test]
    fn time_divides_each_sample_by_its_calls() {
        const CALLS: usize = 8;
        let mut n = 0;
        let t = time(3, CALLS, || {
            n += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!((n, t.count()), (1 + 3 * CALLS, 3));
        // Per call, not per sample: a sample of 8 calls takes at least 16 ms.
        assert!(t.min() >= 0.002 && t.min() < 0.008, "{t:?}");
    }

    #[test]
    fn time_pairs_alternates_which_side_runs_first() {
        let order = std::cell::RefCell::new(String::new());
        let p = time_pairs(4, || order.borrow_mut().push('a'), || order.borrow_mut().push('b'));
        // Warm-up, then pairs ab, ba, ab, ba.
        assert_eq!(order.into_inner(), "ab".to_owned() + "ab" + "ba" + "ab" + "ba");
        assert_eq!((p.a.count(), p.b.count(), p.ratio.count()), (4, 4, 4));
    }

    #[test]
    fn datasets_are_split() {
        let tr = train_set();
        let te = test_set();
        assert_eq!(tr.len(), TRAIN_N);
        assert_eq!(te.len(), TEST_N);
        let (a, _) = tr.head_batch(1);
        let (b, _) = te.head_batch(1);
        assert_ne!(a, b, "train/test must differ");
    }
}
