//! Shared harness for the benchmark binaries that regenerate the paper's
//! tables and figures (see DESIGN.md §4 for the experiment index).
//!
//! Models are trained once on the synthetic dataset and cached under
//! `target/goldeneye_cache/`, so repeated `cargo run -p bench --bin figN`
//! invocations reuse the same "pretrained" weights.

use models::{DeitConfig, ResNet, ResNetConfig, SyntheticDataset, TrainConfig, VisionTransformer};
use nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Canonical image side length shared by every experiment.
pub const IMG_SIZE: usize = 32;
/// Number of classes in the synthetic task.
pub const NUM_CLASSES: usize = 10;
/// Training-set size.
pub const TRAIN_N: usize = 512;
/// Evaluation-set size.
pub const TEST_N: usize = 128;

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
    /// Stable name used for cache files and table rows.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Resnet18 => "resnet18",
            ModelKind::Resnet50 => "resnet50",
            ModelKind::DeitTiny => "deit_tiny",
            ModelKind::DeitBase => "deit_base",
        }
    }

    fn build(&self) -> Box<dyn Module> {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        match self {
            ModelKind::Resnet18 => {
                Box::new(ResNet::new(ResNetConfig::resnet18(8, NUM_CLASSES), &mut rng))
            }
            ModelKind::Resnet50 => {
                Box::new(ResNet::new(ResNetConfig::resnet50(4, NUM_CLASSES), &mut rng))
            }
            ModelKind::DeitTiny => Box::new(VisionTransformer::new(
                DeitConfig::deit_tiny(IMG_SIZE, NUM_CLASSES),
                &mut rng,
            )),
            ModelKind::DeitBase => Box::new(VisionTransformer::new(
                DeitConfig::deit_base(IMG_SIZE, NUM_CLASSES),
                &mut rng,
            )),
        }
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

/// The shared training split.
pub fn train_set() -> SyntheticDataset {
    SyntheticDataset::generate(TRAIN_N, IMG_SIZE, NUM_CLASSES, 2022)
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

/// Builds (and trains, or loads from cache) a model, returning it plus its
/// held-out accuracy.
pub fn prepare_model(kind: ModelKind) -> (Box<dyn Module>, f32) {
    let model = kind.build();
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).expect("cannot create cache dir");
    let path = dir.join(format!("{}.weights", kind.name()));
    if path.exists() && models::load_params(model.as_ref(), &path).is_ok() {
        eprintln!("[bench] loaded cached weights for {}", kind.name());
    } else {
        eprintln!("[bench] training {} (one-time, cached afterwards)...", kind.name());
        let mut cfg = kind.train_config();
        cfg.verbose = true;
        models::train(model.as_ref(), &train_set(), &cfg);
        models::save_params(model.as_ref(), &path).expect("cannot cache weights");
    }
    let acc = models::evaluate(model.as_ref(), &test_set(), TEST_N, 32);
    eprintln!("[bench] {} held-out accuracy: {:.1}%", kind.name(), acc * 100.0);
    (model, acc)
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
    /// ignored.
    pub fn parse_with(own: &[&str]) -> Self {
        Self::try_parse(std::env::args().skip(1), own).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
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

    /// Finishes a bench run: snapshots the trace counters into `m`, emits
    /// it on any active trace sinks, and writes it to `--out` (or
    /// `default_out`, when given) as pretty JSON.
    pub fn finish_run(&self, mut m: trace::RunManifest, default_out: Option<&str>) {
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
    fn binaries_declare_their_own_switches() {
        let own = ["--overhead-only"];
        let args = parse(&["--quick", "--overhead-only"], &own).unwrap();
        assert!(args.quick && args.has("--overhead-only"));
        assert!(!parse(&["--quick"], &own).unwrap().has("--overhead-only"));
        // Undeclared, the switch is ignored rather than recorded.
        assert!(!parse(&["--overhead-only"], &[]).unwrap().has("--overhead-only"));
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
