//! The GoldenEye simulator: instruments a model with number-format
//! emulation hooks, optional fault injection, and the range detector.
//!
//! Mirrors the paper's Figure 2 pipeline: read each layer's FP32 output →
//! convert to the emulated format (extracting hardware metadata) → maybe
//! flip a bit in a value or a metadata register → write the result back as
//! the nearest FP32 value → continue the inference.

use formats::{NumberFormat, Quantized};
use inject::{
    flip_metadata, flip_value, BitSampler, BitStrata, Injector, MetadataFlip, RangeProfile,
    SiteKind, ValueFlip,
};
use nn::{Ctx, ForwardHook, LayerInfo, LayerKind, Module, Param};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tensor::Tensor;

/// Hot-path metrics for the emulation hook, resolved once. Every timing
/// below is gated on [`trace::recording`] — with tracing off the hook
/// pays a single relaxed atomic load and no clock reads.
struct HookMetrics {
    /// Per-call format round-trip time (quantise, any fault, dequantise).
    quantize_ns: &'static trace::Metric,
    /// Elements converted (ratio `sum(ns) / sum(elements)` is the
    /// format-conversion cost in ns/element).
    convert_elems: &'static trace::Metric,
}

fn hook_metrics() -> &'static HookMetrics {
    static M: OnceLock<HookMetrics> = OnceLock::new();
    M.get_or_init(|| HookMetrics {
        quantize_ns: trace::histogram(trace::names::HOOK_QUANTIZE_NS),
        convert_elems: trace::counter(trace::names::HOOK_CONVERT_ELEMS),
    })
}

/// Locks a mutex, ignoring poisoning: hook state is only ever replaced
/// wholesale, so a panicked trial cannot leave it torn. A hook lives for
/// one forward and a forward runs on one thread, so the lock is never
/// contended.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Which layer kinds get instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerFilter {
    /// CONV and LINEAR only — the paper's default (§V-B).
    ConvLinear,
    /// Every layer type.
    All,
}

impl LayerFilter {
    /// Whether `kind` is instrumented under this filter.
    pub fn matches(&self, kind: LayerKind) -> bool {
        match self {
            LayerFilter::ConvLinear => matches!(kind, LayerKind::Conv | LayerKind::Linear),
            LayerFilter::All => true,
        }
    }
}

/// Where to inject during an instrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Index of the instrumented layer to corrupt (execution order among
    /// *instrumented* layers).
    pub layer: usize,
    /// Value-bit or metadata-bit flip.
    pub kind: SiteKind,
    /// Number of distinct bits to flip in the chosen value/word (1 =
    /// the classic single-bit model; >1 models multi-bit upsets).
    pub bits: u32,
}

impl InjectionPlan {
    /// A single-bit fault at `layer`.
    pub fn single(layer: usize, kind: SiteKind) -> Self {
        InjectionPlan { layer, kind, bits: 1 }
    }

    /// A `bits`-bit multi-bit upset at `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn multi(layer: usize, kind: SiteKind, bits: u32) -> Self {
        assert!(bits > 0, "a fault must flip at least one bit");
        InjectionPlan { layer, kind, bits }
    }
}

/// What an injection actually did.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectionRecord {
    /// A data-value flip.
    Value {
        /// The instrumented layer it landed in.
        layer: LayerInfo,
        /// The executed flip.
        flip: ValueFlip,
    },
    /// A metadata-register flip.
    Metadata {
        /// The instrumented layer it landed in.
        layer: LayerInfo,
        /// The executed flip.
        flip: MetadataFlip,
    },
}

/// Range-detector mode for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeMode {
    Off,
    Profile,
    Detect,
}

impl RangeMode {
    /// Applies this mode's range handling to a hooked layer output.
    fn apply(self, range: &RangeProfile, layer: usize, values: Tensor) -> Tensor {
        match self {
            RangeMode::Off => values,
            RangeMode::Profile => {
                range.observe(layer, &values);
                values
            }
            RangeMode::Detect => range.clamp(layer, &values),
        }
    }
}

/// The number-format emulation hook, installed on every instrumented
/// layer: each output is quantised into the format, the planned fault (if
/// it lands in this layer) flips bits in the quantised codes, and the
/// result is dequantised back to FP32.
///
/// One forward pass carries one trial, so per-tensor formats derive their
/// tensor-wide state (BFP shared exponents, INT scales, AFP biases) from
/// exactly that trial's `[B, ...]` activation.
struct EmulationHook {
    formats: Arc<FormatTable>,
    filter: LayerFilter,
    plan: Option<InjectionPlan>,
    sampler: BitSampler,
    /// The trial's injector and the record of what its fault did.
    state: Mutex<(Injector, Option<InjectionRecord>)>,
    range: Arc<RangeProfile>,
    range_mode: RangeMode,
}

/// Default format plus per-layer overrides (mixed precision), shared by a
/// [`GoldenEye`] and every hook it builds.
#[derive(Clone)]
struct FormatTable {
    default: Arc<dyn NumberFormat>,
    per_layer: std::collections::HashMap<usize, Arc<dyn NumberFormat>>,
}

impl FormatTable {
    /// The format for instrumented layer `layer`: its override, or the
    /// default.
    fn resolve(&self, layer: usize) -> &dyn NumberFormat {
        self.per_layer.get(&layer).map(Arc::as_ref).unwrap_or(self.default.as_ref())
    }
}

impl ForwardHook for EmulationHook {
    fn on_output(&self, layer: &LayerInfo, output: &Tensor) -> Option<Tensor> {
        let format = self.formats.resolve(layer.index);
        let plan = self.plan.filter(|p| p.layer == layer.index);
        let timing = trace::recording().then(Instant::now);
        let mut q = format.real_to_format_tensor(output);
        if let Some(plan) = &plan {
            let (inj, rec) = &mut *lock(&self.state);
            *rec = Some(apply_fault(format, layer, plan, &self.sampler, inj, &mut q));
        }
        let values = format.format_to_real_tensor(&q);
        if let Some(t0) = timing {
            let m = hook_metrics();
            m.quantize_ns.record(t0.elapsed().as_nanos() as u64);
            m.convert_elems.add(output.numel() as u64);
        }
        Some(self.range_mode.apply(&self.range, layer.index, values))
    }

    fn applies_to(&self, kind: LayerKind) -> bool {
        self.filter.matches(kind)
    }
}

/// Samples and executes one planned fault on an already-quantised tensor,
/// drawing locations from `inj`. A replayed trial consumes its RNG exactly
/// as a full forward does, which is what makes replay reproduce a
/// single-trial run draw-for-draw.
fn apply_fault(
    format: &dyn NumberFormat,
    layer: &LayerInfo,
    plan: &InjectionPlan,
    sampler: &BitSampler,
    inj: &mut Injector,
    q: &mut Quantized,
) -> InjectionRecord {
    match plan.kind {
        SiteKind::Value => {
            let width = format.bit_width() as usize;
            let strata = BitStrata::for_format(format);
            let (f, _) = inj
                .try_sample_value_fault_with(q.values.numel(), sampler, &strata)
                .unwrap_or_else(|e| panic!("{e}"));
            let flip = if plan.bits <= 1 {
                flip_value(format, q, f.index, f.bit)
            } else {
                let bits = sample_distinct_bits(inj, width, plan.bits, f.bit);
                inject::flip_value_multi(format, q, f.index, &bits)
            };
            InjectionRecord::Value { layer: layer.clone(), flip }
        }
        SiteKind::Metadata => {
            let words = q.meta.word_count();
            let width = q.meta.word_width();
            let f = inj.sample_metadata_fault(words, width);
            let mut flip = flip_metadata(format, q, f.index, f.bit);
            for &b in sample_distinct_bits(inj, width, plan.bits, f.bit).iter().skip(1) {
                flip = flip_metadata(format, q, f.index, b);
            }
            InjectionRecord::Metadata { layer: layer.clone(), flip }
        }
    }
}

/// Samples `count` distinct bit positions in `0..width`, the first being
/// `first` (already drawn by the caller).
fn sample_distinct_bits(inj: &mut Injector, width: usize, count: u32, first: usize) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let count = (count as usize).min(width);
    let mut rest: Vec<usize> = (0..width).filter(|&b| b != first).collect();
    rest.shuffle(inj.rng());
    let mut bits = vec![first];
    bits.extend(rest.into_iter().take(count - 1));
    bits
}

/// Hook that only records which layers would be instrumented.
struct DiscoveryHook {
    filter: LayerFilter,
    layers: Mutex<Vec<LayerInfo>>,
}

impl ForwardHook for DiscoveryHook {
    fn on_output(&self, layer: &LayerInfo, _output: &Tensor) -> Option<Tensor> {
        lock(&self.layers).push(layer.clone());
        None
    }

    fn applies_to(&self, kind: LayerKind) -> bool {
        self.filter.matches(kind)
    }
}

/// The cached state of one clean (fault-free) emulated inference, captured
/// by [`GoldenEye::capture_clean_run`]: the activation entering each model
/// segment, the hook-point count at each segment boundary, the
/// instrumented layers and the golden logits.
/// [`GoldenEye::run_replay_batch`] replays faulty trials from the deepest
/// checkpoint preceding the injection layer instead of re-running the
/// whole network.
pub struct CleanRun {
    /// Each segment's input activation and the hook point it starts at.
    checkpoints: Vec<(Tensor, usize)>,
    layers: Vec<LayerInfo>,
    total_layers: usize,
    golden: Tensor,
}

impl CleanRun {
    /// The fault-free logits — bit-identical to [`GoldenEye::run`] on the
    /// same input.
    pub fn golden(&self) -> &Tensor {
        &self.golden
    }

    /// The instrumented layers of the clean forward, in execution order —
    /// what [`GoldenEye::discover_layers`] reports for the same input.
    pub fn layers(&self) -> &[LayerInfo] {
        &self.layers
    }

    /// Number of hook points (instrumented layers) in the clean forward.
    pub fn layers_seen(&self) -> usize {
        self.total_layers
    }

    /// The deepest segment whose first hook point is ≤ `layer` — i.e. the
    /// checkpoint a trial injecting at `layer` replays from.
    pub fn segment_for_layer(&self, layer: usize) -> usize {
        match self.checkpoints.binary_search_by_key(&layer, |&(_, offset)| offset) {
            Ok(s) => s,
            Err(0) => 0,
            Err(s) => s - 1,
        }
    }
}

/// The GoldenEye functional simulator for one number format.
///
/// # Examples
///
/// ```
/// use goldeneye::GoldenEye;
/// use models::{ResNet, ResNetConfig};
/// use rand::{rngs::StdRng, SeedableRng};
/// use tensor::Tensor;
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = ResNet::new(ResNetConfig::tiny(4), &mut rng);
/// let ge = GoldenEye::parse("fp:e4m3").unwrap();
/// let logits = ge.run(&model, Tensor::zeros([1, 3, 8, 8]));
/// assert_eq!(logits.dims(), &[1, 4]);
/// ```
pub struct GoldenEye {
    formats: Arc<FormatTable>,
    filter: LayerFilter,
    range: Arc<RangeProfile>,
    detect: bool,
    store: Option<Arc<store::Store>>,
}

impl std::fmt::Debug for GoldenEye {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GoldenEye(format={}, overrides={}, filter={:?}, detect={})",
            self.format().name(),
            self.formats.per_layer.len(),
            self.filter,
            self.detect
        )
    }
}

impl GoldenEye {
    /// Creates a simulator for `format` with the paper's default layer
    /// filter (CONV + LINEAR) and the range detector disabled.
    pub fn new(format: Box<dyn NumberFormat>) -> Self {
        GoldenEye {
            formats: Arc::new(FormatTable {
                default: Arc::from(format),
                per_layer: std::collections::HashMap::new(),
            }),
            filter: LayerFilter::ConvLinear,
            range: Arc::new(RangeProfile::new()),
            detect: false,
            store: None,
        }
    }

    /// Creates a simulator from a format spec string (see
    /// [`formats::FormatSpec`]).
    ///
    /// # Errors
    ///
    /// Returns the parse error for invalid specs.
    pub fn parse(spec: &str) -> Result<Self, formats::ParseFormatError> {
        Ok(Self::new(spec.parse::<formats::FormatSpec>()?.build()))
    }

    /// Sets the layer filter.
    pub fn with_filter(mut self, filter: LayerFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Enables the range detector (after [`GoldenEye::profile_ranges`] has
    /// been called, faulty activations are clamped into profiled ranges).
    pub fn with_range_detector(mut self, on: bool) -> Self {
        self.detect = on;
        self
    }

    /// Overrides the format for one instrumented layer (mixed precision —
    /// an extension beyond the paper, which lists mixed-precision support
    /// as future work in §V-C). Layer indices are those reported by
    /// [`GoldenEye::discover_layers`].
    pub fn with_layer_format(mut self, layer: usize, format: Box<dyn NumberFormat>) -> Self {
        Arc::make_mut(&mut self.formats).per_layer.insert(layer, Arc::from(format));
        self
    }

    /// The format used for a given instrumented layer (the default unless
    /// overridden).
    pub fn format_for_layer(&self, layer: usize) -> &dyn NumberFormat {
        self.formats.resolve(layer)
    }

    /// Attaches a content-addressed artifact store: offline weight
    /// conversions ([`GoldenEye::quantize_weights`] and the weight-campaign
    /// clean pass) are served from the store when the same
    /// `(weights × format)` pair was converted before — by this run, an
    /// earlier one, or a concurrent process sharing the directory.
    ///
    /// Results are bit-identical with and without a store; only the work
    /// is shared.
    pub fn with_store(mut self, store: Arc<store::Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&Arc<store::Store>> {
        self.store.as_ref()
    }

    /// Quantises one tensor under the default format, through the store
    /// when one is attached (bit-identical either way).
    pub fn quantize_tensor_cached(&self, t: &Tensor) -> Quantized {
        match &self.store {
            Some(store) => store.get_or_quantize(self.format(), t),
            None => self.format().real_to_format_tensor(t),
        }
    }

    /// The emulated format.
    pub fn format(&self) -> &dyn NumberFormat {
        self.formats.default.as_ref()
    }

    /// Lists the layers that will be instrumented for `model` (by running
    /// one discovery pass on `sample`).
    pub fn discover_layers(&self, model: &dyn Module, sample: Tensor) -> Vec<LayerInfo> {
        let hook = Arc::new(DiscoveryHook { filter: self.filter, layers: Mutex::default() });
        forward_segments(model, [hook.clone()], 0, 0, sample, None);
        let layers = std::mem::take(&mut *lock(&hook.layers));
        layers
    }

    /// Runs an emulated inference (no injection) and returns the logits.
    pub fn run(&self, model: &dyn Module, x: Tensor) -> Tensor {
        let hook = self.hook(None, BitSampler::Uniform, 0, self.trial_range_mode());
        forward_segments(model, [hook], 0, 0, x, None).0
    }

    /// Runs an emulated inference with one fault injected per `plan`,
    /// sampling the fault location from `seed`.
    ///
    /// Returns the logits and the record of what was flipped (None if the
    /// planned layer never executed).
    pub fn run_with_injection(
        &self,
        model: &dyn Module,
        x: Tensor,
        plan: InjectionPlan,
        seed: u64,
    ) -> (Tensor, Option<InjectionRecord>) {
        self.run_with_injection_sampled(model, x, plan, seed, BitSampler::Uniform)
    }

    /// [`GoldenEye::run_with_injection`] with an explicit bit-position
    /// sampling policy for value faults. `BitSampler::Uniform` reproduces
    /// `run_with_injection` draw-for-draw.
    pub fn run_with_injection_sampled(
        &self,
        model: &dyn Module,
        x: Tensor,
        plan: InjectionPlan,
        seed: u64,
        sampler: BitSampler,
    ) -> (Tensor, Option<InjectionRecord>) {
        let hook = self.hook(Some(plan), sampler, seed, self.trial_range_mode());
        let (logits, _) = forward_segments(model, [hook.clone()], 0, 0, x, None);
        let record = lock(&hook.state).1.take();
        (logits, record)
    }

    /// The emulation hook for one forward pass, drawing its fault from
    /// `Injector::new(seed)` (`seed` is unused when `plan` is `None`).
    fn hook(
        &self,
        plan: Option<InjectionPlan>,
        sampler: BitSampler,
        seed: u64,
        range_mode: RangeMode,
    ) -> Arc<EmulationHook> {
        Arc::new(EmulationHook {
            formats: self.formats.clone(),
            filter: self.filter,
            plan,
            sampler,
            state: Mutex::new((Injector::new(seed), None)),
            range: self.range.clone(),
            range_mode,
        })
    }

    fn trial_range_mode(&self) -> RangeMode {
        if self.detect && !self.range.is_empty() {
            RangeMode::Detect
        } else {
            RangeMode::Off
        }
    }

    /// Runs one clean (fault-free) emulated inference segment by segment,
    /// caching the activation entering each [`Module`] segment and the
    /// hook-point count at each boundary. The cached activations are the
    /// checkpoints fault trials replay from: a trial injecting at layer
    /// `L` re-executes only the segments from `L`'s onward. The same pass
    /// records the instrumented layers ([`CleanRun::layers`]), so a
    /// campaign needs no separate [`GoldenEye::discover_layers`] forward.
    ///
    /// The golden logits are bit-identical to [`GoldenEye::run`].
    pub fn capture_clean_run(&self, model: &dyn Module, x: Tensor) -> CleanRun {
        let emulation = self.hook(None, BitSampler::Uniform, 0, self.trial_range_mode());
        let discovery = Arc::new(DiscoveryHook { filter: self.filter, layers: Mutex::default() });
        let hooks: [Arc<dyn ForwardHook>; 2] = [emulation, discovery.clone()];
        let mut checkpoints = Vec::new();
        let (golden, total_layers) =
            forward_segments(model, hooks, 0, 0, x, Some(&mut checkpoints));
        let layers = std::mem::take(&mut *lock(&discovery.layers));
        CleanRun { checkpoints, layers, total_layers, golden }
    }

    /// Replays fault trials from the checkpoint preceding the injection
    /// layer, one forward per seed: the remaining segments run from the
    /// cached clean activation, and trial `r`'s fault is drawn from
    /// `Injector::new(seeds[r])` at the injection site — so each returned
    /// `(logits, record)` pair is bit-identical to
    /// [`GoldenEye::run_with_injection_sampled`] with that seed. An empty
    /// `seeds` slice replays nothing.
    pub fn run_replay_batch(
        &self,
        model: &dyn Module,
        clean: &CleanRun,
        plan: InjectionPlan,
        sampler: BitSampler,
        seeds: &[u64],
    ) -> Vec<(Tensor, Option<InjectionRecord>)> {
        seeds.iter().map(|&seed| self.replay(model, clean, plan, sampler, seed)).collect()
    }

    /// Replays one fault trial from the checkpoint preceding its injection
    /// layer (see [`GoldenEye::run_replay_batch`]).
    pub(crate) fn replay(
        &self,
        model: &dyn Module,
        clean: &CleanRun,
        plan: InjectionPlan,
        sampler: BitSampler,
        seed: u64,
    ) -> (Tensor, Option<InjectionRecord>) {
        let seg = clean.segment_for_layer(plan.layer);
        // Checkpoint-cache accounting: of the `num_segments` a full
        // forward would run, this replay skips the `seg` before the
        // checkpoint.
        trace::counter(trace::names::CAMPAIGN_REPLAY_BATCHES).add(1);
        trace::counter(trace::names::CAMPAIGN_REPLAY_SEG_SKIPPED).add(seg as u64);
        trace::counter(trace::names::CAMPAIGN_REPLAY_SEG_TOTAL).add(model.num_segments() as u64);
        let hook = self.hook(Some(plan), sampler, seed, self.trial_range_mode());
        let (input, offset) = &clean.checkpoints[seg];
        let (logits, _) =
            forward_segments(model, [hook.clone()], seg, *offset, input.clone(), None);
        let record = lock(&hook.state).1.take();
        (logits, record)
    }

    /// Profiles per-layer activation ranges on clean emulated runs, for
    /// the range detector.
    ///
    /// When tracing is on, emits a `range_profile` event carrying the
    /// resulting `(layer, min, max)` snapshot.
    pub fn profile_ranges(&self, model: &dyn Module, batches: &[Tensor]) {
        let _span = trace::span!("profile_ranges", batches = batches.len());
        for x in batches {
            let hook = self.hook(None, BitSampler::Uniform, 0, RangeMode::Profile);
            forward_segments(model, [hook], 0, 0, x.clone(), None);
        }
        if trace::recording() {
            let ranges: Vec<trace::Json> = self
                .range
                .snapshot()
                .into_iter()
                .map(|(layer, lo, hi)| {
                    trace::Json::Arr(vec![
                        trace::Json::from(layer),
                        trace::Json::from_f32(lo),
                        trace::Json::from_f32(hi),
                    ])
                })
                .collect();
            trace::emit(
                trace::Level::Debug,
                "range_profile",
                vec![
                    ("format", trace::Json::from(self.format().name())),
                    ("layers", trace::Json::from(ranges.len())),
                    ("ranges", trace::Json::Arr(ranges)),
                ],
            );
        }
    }

    /// The range profile built by [`GoldenEye::profile_ranges`].
    pub fn range_profile(&self) -> &RangeProfile {
        &self.range
    }

    /// Quantises the model's weight tensors (parameters named `*.weight`,
    /// i.e. conv/linear kernels) into the emulated format, in place.
    ///
    /// The paper performs weight conversion offline for the same reason —
    /// it needs no runtime hook. Returns the number of parameters touched.
    pub fn quantize_weights(&self, model: &dyn Module) -> usize {
        let mut touched = 0;
        model.visit_params(&mut |p: &Param| {
            if p.name().ends_with(".weight") {
                let q = self.quantize_tensor_cached(&p.get());
                p.set(self.format().format_to_real_tensor(&q));
                touched += 1;
            }
        });
        touched
    }

    /// Injects one bit flip into a stored weight (offline weight
    /// injection). Returns the record, or `None` if no parameter matches
    /// `param_name`.
    ///
    /// # Panics
    ///
    /// Panics if `element`/`bit` is out of range for the parameter/format.
    pub fn inject_weight_fault(
        &self,
        model: &dyn Module,
        param_name: &str,
        element: usize,
        bit: usize,
    ) -> Option<ValueFlip> {
        let mut result = None;
        model.visit_params(&mut |p: &Param| {
            if p.name() == param_name && result.is_none() {
                let format = self.format();
                let mut q = format.real_to_format_tensor(&p.get());
                let flip = flip_value(format, &mut q, element, bit);
                p.set(format.format_to_real_tensor(&q));
                result = Some(flip);
            }
        });
        result
    }
}

/// The one inference forward driver: runs `model`'s segments from `start`
/// on over `x`, with `hooks` installed and hook points numbered from
/// `base_layer`. With a `checkpoints` sink it records each segment's input
/// activation and the hook point the segment starts at. Returns the
/// logits and the hook-point count at the end of the pass.
///
/// `Module::forward` is contractually the segment chain, so a pass from
/// segment 0 is bit-identical to a plain forward.
fn forward_segments<const N: usize>(
    model: &dyn Module,
    hooks: [Arc<dyn ForwardHook>; N],
    start: usize,
    base_layer: usize,
    x: Tensor,
    mut checkpoints: Option<&mut Vec<(Tensor, usize)>>,
) -> (Tensor, usize) {
    let mut ctx = Ctx::inference();
    for hook in hooks {
        ctx.add_hook(hook);
    }
    ctx.set_base_layer(base_layer);
    let mut h = ctx.input(x);
    for s in start..model.num_segments() {
        if let Some(sink) = checkpoints.as_deref_mut() {
            sink.push((h.value(), ctx.layers_seen()));
        }
        h = model.forward_segment(s, &h, &mut ctx);
    }
    (h.value(), ctx.layers_seen())
}

/// A forward hook for **fault-aware training** (§V-D: GoldenEye "can
/// potentially be used to build resilient models via novel training
/// routines"): on every instrumented layer of every training pass, the
/// output is quantised into the format and, with probability
/// `fault_prob`, one random value bit is flipped.
///
/// Install it on a training [`Ctx`]; gradients flow through the
/// straight-through estimator, so the model learns under the fault model
/// it will face at inference.
///
/// # Examples
///
/// ```
/// use goldeneye::FaultyTrainingHook;
/// use nn::Ctx;
/// use std::sync::Arc;
///
/// let hook = FaultyTrainingHook::parse("int:8", 0.1, 42)?;
/// let mut ctx = Ctx::training();
/// ctx.add_hook(Arc::new(hook));
/// # Ok::<(), formats::ParseFormatError>(())
/// ```
pub struct FaultyTrainingHook {
    format: Arc<dyn NumberFormat>,
    injector: Mutex<Injector>,
    fault_prob: f64,
    injections: Mutex<u64>,
}

impl std::fmt::Debug for FaultyTrainingHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaultyTrainingHook(format={}, p={}, fired={})",
            self.format.name(),
            self.fault_prob,
            lock(&self.injections)
        )
    }
}

impl FaultyTrainingHook {
    /// Creates a hook that quantises into `format` and injects one random
    /// value-bit flip per instrumented layer with probability
    /// `fault_prob`.
    ///
    /// # Panics
    ///
    /// Panics if `fault_prob ∉ [0, 1]`.
    pub fn new(format: Box<dyn NumberFormat>, fault_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fault_prob), "fault_prob must be a probability");
        FaultyTrainingHook {
            format: Arc::from(format),
            injector: Mutex::new(Injector::new(seed)),
            fault_prob,
            injections: Mutex::new(0),
        }
    }

    /// Creates the hook from a format spec string.
    ///
    /// # Errors
    ///
    /// Returns the parse error for invalid specs.
    pub fn parse(
        spec: &str,
        fault_prob: f64,
        seed: u64,
    ) -> Result<Self, formats::ParseFormatError> {
        Ok(Self::new(spec.parse::<formats::FormatSpec>()?.build(), fault_prob, seed))
    }

    /// Number of faults injected so far.
    pub fn injections_fired(&self) -> u64 {
        *lock(&self.injections)
    }
}

impl ForwardHook for FaultyTrainingHook {
    fn on_output(&self, _layer: &LayerInfo, output: &Tensor) -> Option<Tensor> {
        let mut q = self.format.real_to_format_tensor(output);
        let mut inj = lock(&self.injector);
        if rand::Rng::gen_bool(inj.rng(), self.fault_prob) {
            let f = inj.sample_value_fault(q.values.numel(), self.format.bit_width() as usize);
            flip_value(self.format.as_ref(), &mut q, f.index, f.bit);
            *lock(&self.injections) += 1;
        }
        Some(self.format.format_to_real_tensor(&q))
    }
}

/// A snapshot of all model parameters, for restoring after weight
/// quantisation or weight-fault experiments.
#[derive(Debug)]
pub struct ParamSnapshot {
    values: Vec<(String, Tensor)>,
}

impl ParamSnapshot {
    /// Captures the current values of every parameter.
    pub fn capture(model: &dyn Module) -> Self {
        let mut values = Vec::new();
        model.visit_params(&mut |p: &Param| values.push((p.name().to_string(), p.get())));
        ParamSnapshot { values }
    }

    /// Restores the captured values (matched positionally by name).
    ///
    /// # Panics
    ///
    /// Panics if the model's parameter set changed since capture.
    pub fn restore(&self, model: &dyn Module) {
        let mut i = 0;
        model.visit_params(&mut |p: &Param| {
            let (name, value) = &self.values[i];
            assert_eq!(p.name(), name, "parameter order changed since snapshot");
            // Overwrite wholesale rather than `Param::set`: restore is the
            // recovery path after a failed trial, and must succeed even if
            // a panicking worker left the current value torn (wrong shape,
            // poisoned lock).
            p.update(|t| *t = value.clone());
            i += 1;
        });
        assert_eq!(i, self.values.len(), "parameter count changed since snapshot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{ResNet, ResNetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> ResNet {
        let mut rng = StdRng::seed_from_u64(seed);
        ResNet::new(ResNetConfig::tiny(4), &mut rng)
    }

    fn sample(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::randn([2, 3, 8, 8], &mut rng)
    }

    #[test]
    fn fp32_emulation_is_transparent() {
        let model = tiny_model(1);
        let x = sample(2);
        let native = models::forward_logits(&model, x.clone());
        let ge = GoldenEye::parse("fp32").unwrap();
        let emulated = ge.run(&model, x);
        assert!(native.allclose(&emulated, 1e-6), "FP32 emulation must be lossless");
    }

    #[test]
    fn low_precision_changes_logits() {
        let model = tiny_model(1);
        let x = sample(2);
        let native = models::forward_logits(&model, x.clone());
        let ge = GoldenEye::parse("fp:e2m2").unwrap();
        let emulated = ge.run(&model, x);
        assert!(!native.allclose(&emulated, 1e-6), "e2m2 should perturb logits");
        assert!(emulated.all_finite());
    }

    /// The reference: quantise every hooked output, then dequantise it —
    /// the paper's Method 1 then Method 2, with no timing, fault or range
    /// handling.
    struct TwoPassHook(Box<dyn NumberFormat>);

    impl ForwardHook for TwoPassHook {
        fn on_output(&self, _layer: &LayerInfo, output: &Tensor) -> Option<Tensor> {
            Some(self.0.format_to_real_tensor(&self.0.real_to_format_tensor(output)))
        }
    }

    #[test]
    fn emulation_hook_is_bit_identical_to_two_pass_oracle() {
        let model = tiny_model(1);
        let x = sample(2);
        for spec in conformance::standard_zoo() {
            let mut ctx = Ctx::inference();
            ctx.add_hook(Arc::new(TwoPassHook(spec.build())));
            let xv = ctx.input(x.clone());
            let oracle = model.forward(&xv, &mut ctx).value();
            let got = GoldenEye::new(spec.build()).run(&model, x.clone());
            assert_eq!(got.dims(), oracle.dims(), "{spec}: shape mismatch");
            for (i, (a, b)) in got.as_slice().iter().zip(oracle.as_slice()).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{spec} logit {i}: hook {a} vs two-pass {b}"
                );
            }
        }
    }

    #[test]
    fn discover_layers_conv_linear_default() {
        let model = tiny_model(1);
        let ge = GoldenEye::parse("fp16").unwrap();
        let layers = ge.discover_layers(&model, sample(2));
        // tiny resnet: stem conv + 2 blocks × 2 convs + 1 downsample conv
        // + head linear = 1 + 4 + 1 + 1 = 7.
        assert_eq!(layers.len(), 7);
        assert!(layers.iter().all(|l| matches!(l.kind, LayerKind::Conv | LayerKind::Linear)));
        // Indices are execution-ordered (global hook-point counters, so
        // strictly increasing but not necessarily contiguous).
        for w in layers.windows(2) {
            assert!(w[0].index < w[1].index);
        }
    }

    #[test]
    fn all_filter_sees_more_layers() {
        let model = tiny_model(1);
        let ge = GoldenEye::parse("fp16").unwrap().with_filter(LayerFilter::All);
        let all = ge.discover_layers(&model, sample(2));
        let ge2 = GoldenEye::parse("fp16").unwrap();
        let convlinear = ge2.discover_layers(&model, sample(2));
        assert!(all.len() > convlinear.len());
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let model = tiny_model(3);
        let x = sample(4);
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let plan = InjectionPlan::single(layers[2].index, SiteKind::Value);
        let (l1, r1) = ge.run_with_injection(&model, x.clone(), plan, 99);
        let (l2, r2) = ge.run_with_injection(&model, x, plan, 99);
        assert_eq!(l1, l2);
        assert_eq!(r1, r2);
        assert!(r1.is_some());
    }

    #[test]
    fn injection_record_names_right_layer() {
        let model = tiny_model(3);
        let x = sample(4);
        let ge = GoldenEye::parse("int:8").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let target = layers[1].index;
        let plan = InjectionPlan::single(target, SiteKind::Metadata);
        let (_, rec) = ge.run_with_injection(&model, x, plan, 5);
        match rec.expect("injection must fire") {
            InjectionRecord::Metadata { layer, .. } => assert_eq!(layer.index, target),
            other => panic!("expected metadata record, got {other:?}"),
        }
    }

    #[test]
    fn plan_beyond_layer_count_never_fires() {
        let model = tiny_model(3);
        let x = sample(4);
        let ge = GoldenEye::parse("fp16").unwrap();
        let plan = InjectionPlan::single(999, SiteKind::Value);
        let (_, rec) = ge.run_with_injection(&model, x, plan, 5);
        assert!(rec.is_none());
    }

    #[test]
    fn range_detector_clamps_faulty_runs() {
        let model = tiny_model(7);
        let x = sample(8);
        let ge = GoldenEye::parse("fp16").unwrap().with_range_detector(true);
        ge.profile_ranges(&model, std::slice::from_ref(&x));
        assert!(!ge.range_profile().is_empty());
        // Find a seed whose injection produces a huge value without the
        // detector, then verify the detector tames it.
        let plain = GoldenEye::parse("fp16").unwrap();
        let plan = InjectionPlan::single(0, SiteKind::Value);
        let mut tamed = 0;
        for seed in 0..40 {
            let (lf, _) = plain.run_with_injection(&model, x.clone(), plan, seed);
            let (ld, _) = ge.run_with_injection(&model, x.clone(), plan, seed);
            assert!(ld.all_finite(), "detector output must be finite");
            if lf.max_abs() > ld.max_abs() {
                tamed += 1;
            }
        }
        assert!(tamed > 0, "detector never reduced corruption over 40 seeds");
    }

    #[test]
    fn weight_quantization_and_snapshot_restore() {
        let model = tiny_model(11);
        let x = sample(12);
        let before = models::forward_logits(&model, x.clone());
        let snap = ParamSnapshot::capture(&model);
        let ge = GoldenEye::parse("fp:e3m2").unwrap();
        let touched = ge.quantize_weights(&model);
        assert!(touched >= 6, "should quantize all conv/linear weights");
        let after = models::forward_logits(&model, x.clone());
        assert!(!before.allclose(&after, 1e-7), "weight quantisation must act");
        snap.restore(&model);
        let restored = models::forward_logits(&model, x);
        assert!(before.allclose(&restored, 0.0), "snapshot restore must be exact");
    }

    #[test]
    fn faulty_training_hook_fires_proportionally() {
        let model = tiny_model(29);
        let hook = Arc::new(FaultyTrainingHook::parse("int:8", 1.0, 1).unwrap());
        let mut ctx = nn::Ctx::training();
        ctx.add_hook(hook.clone());
        let x = ctx.input(sample(30));
        model.forward(&x, &mut ctx);
        // p = 1.0 → every instrumented layer fires.
        assert_eq!(hook.injections_fired(), 7);
        let silent = Arc::new(FaultyTrainingHook::parse("int:8", 0.0, 1).unwrap());
        let mut ctx = nn::Ctx::training();
        ctx.add_hook(silent.clone());
        let x = ctx.input(sample(30));
        model.forward(&x, &mut ctx);
        assert_eq!(silent.injections_fired(), 0);
    }

    #[test]
    fn faulty_training_still_backpropagates() {
        let model = tiny_model(31);
        let hook = Arc::new(FaultyTrainingHook::parse("fp:e4m3", 0.5, 2).unwrap());
        let mut ctx = nn::Ctx::training();
        ctx.add_hook(hook);
        let x = ctx.input(sample(32));
        let logits = model.forward(&x, &mut ctx);
        let loss = logits.cross_entropy(&[0, 1]);
        let grads = loss.backward();
        for (p, v) in ctx.bindings() {
            assert!(grads.get(v).is_some(), "no grad for {}", p.name());
        }
    }

    #[test]
    fn multi_bit_upsets_are_at_least_as_damaging_on_average() {
        let model = tiny_model(23);
        let x = sample(24);
        let ge = GoldenEye::parse("int:8").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let golden = ge.run(&model, x.clone());
        let damage = |bits: u32| {
            let mut total = 0.0f32;
            for seed in 0..30 {
                let plan = InjectionPlan::multi(layers[0].index, SiteKind::Value, bits);
                let (faulty, rec) = ge.run_with_injection(&model, x.clone(), plan, seed);
                assert!(rec.is_some());
                total += tensor::ops::sub(&golden, &faulty).map(f32::abs).sum_all();
            }
            total
        };
        let single = damage(1);
        let triple = damage(3);
        assert!(
            triple >= single * 0.5,
            "3-bit upsets ({triple}) unexpectedly tiny vs single ({single})"
        );
        assert!(triple > 0.0);
    }

    #[test]
    fn multi_bit_flip_record_is_deterministic() {
        let model = tiny_model(23);
        let x = sample(24);
        let ge = GoldenEye::parse("fp16").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let plan = InjectionPlan::multi(layers[1].index, SiteKind::Value, 4);
        let (a, ra) = ge.run_with_injection(&model, x.clone(), plan, 77);
        let (b, rb) = ge.run_with_injection(&model, x, plan, 77);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn mixed_precision_override_applies_per_layer() {
        let model = tiny_model(17);
        let x = sample(18);
        // FP32 everywhere is lossless…
        let pure = GoldenEye::parse("fp32").unwrap();
        let lossless = pure.run(&model, x.clone());
        // …but overriding one layer with a 4-bit float perturbs the output.
        let layers = pure.discover_layers(&model, x.clone());
        let mixed = GoldenEye::parse("fp32").unwrap().with_layer_format(
            layers[1].index,
            "fp:e2m1".parse::<formats::FormatSpec>().unwrap().build(),
        );
        let perturbed = mixed.run(&model, x.clone());
        assert!(!lossless.allclose(&perturbed, 1e-7), "override had no effect");
        // And it is milder than quantising every layer to 4 bits.
        let all4 = GoldenEye::parse("fp:e2m1").unwrap().run(&model, x.clone());
        let d_mixed = tensor::ops::sub(&lossless, &perturbed).map(f32::abs).sum_all();
        let d_all = tensor::ops::sub(&lossless, &all4).map(f32::abs).sum_all();
        assert!(d_mixed < d_all, "single-layer override should hurt less");
        assert_eq!(mixed.format_for_layer(layers[1].index).name(), "fp_e2m1");
        assert_eq!(mixed.format_for_layer(layers[0].index).name(), "fp_e8m23");
    }

    #[test]
    fn mixed_precision_injection_uses_layer_format() {
        let model = tiny_model(19);
        let x = sample(20);
        let pure = GoldenEye::parse("fp32").unwrap();
        let layers = pure.discover_layers(&model, x.clone());
        let target = layers[0].index;
        // Override the target layer with INT8 (metadata-capable); the
        // default FP32 has no metadata, so a metadata injection only
        // works because the per-layer format is used.
        let mixed = GoldenEye::parse("fp32")
            .unwrap()
            .with_layer_format(target, Box::new(formats::IntQuant::new(8)));
        let plan = InjectionPlan::single(target, SiteKind::Metadata);
        let (_, rec) = mixed.run_with_injection(&model, x, plan, 3);
        assert!(matches!(rec, Some(InjectionRecord::Metadata { .. })));
    }

    #[test]
    fn weight_fault_injection() {
        let model = tiny_model(13);
        let ge = GoldenEye::parse("fp16").unwrap();
        let snap = ParamSnapshot::capture(&model);
        let flip = ge.inject_weight_fault(&model, "head.weight", 0, 0);
        let flip = flip.expect("head.weight exists");
        assert_ne!(flip.old, flip.new);
        snap.restore(&model);
        assert!(ge.inject_weight_fault(&model, "nonexistent", 0, 0).is_none());
    }

    fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.dims(), b.dims(), "{what}: shape mismatch");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice().iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs");
        }
    }

    #[test]
    fn clean_run_golden_matches_whole_forward() {
        let model = tiny_model(21);
        let x = sample(22);
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let clean = ge.capture_clean_run(&model, x.clone());
        assert_bits_equal(clean.golden(), &ge.run(&model, x.clone()), "golden logits");
        assert!(clean.layers_seen() >= 7);
        // Offsets are sorted and start at 0, so layer→segment lookup works.
        assert_eq!(clean.checkpoints[0].1, 0);
        assert!(clean.checkpoints.windows(2).all(|w| w[0].1 <= w[1].1));
        // The clean pass records the same layers as a discovery pass.
        assert_eq!(clean.layers(), ge.discover_layers(&model, x).as_slice());
    }

    #[test]
    fn replay_batch_is_bit_identical_to_per_trial_runs() {
        let model = tiny_model(23);
        let x = sample(24);
        for spec in ["fp:e4m3", "bfp:e5m2:b8", "int:8"] {
            let ge = GoldenEye::parse(spec).unwrap();
            let layers = ge.discover_layers(&model, x.clone());
            let clean = ge.capture_clean_run(&model, x.clone());
            // A shallow and a deep layer exercise different checkpoints.
            for &target in &[layers[1].index, layers[layers.len() - 1].index] {
                let plan = InjectionPlan::single(target, SiteKind::Value);
                let seeds = [101u64, 102, 103];
                let batch = ge.run_replay_batch(&model, &clean, plan, BitSampler::Uniform, &seeds);
                assert_eq!(batch.len(), seeds.len());
                for (&seed, (logits, record)) in seeds.iter().zip(&batch) {
                    let (sl, sr) = ge.run_with_injection(&model, x.clone(), plan, seed);
                    assert_bits_equal(logits, &sl, &format!("{spec} seed {seed}"));
                    assert_eq!(format!("{record:?}"), format!("{sr:?}"), "{spec} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn replay_batch_of_one_matches_serial_path() {
        let model = tiny_model(25);
        let x = sample(26);
        let ge = GoldenEye::parse("afp:e4m3").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let clean = ge.capture_clean_run(&model, x.clone());
        let plan = InjectionPlan::single(layers[2].index, SiteKind::Value);
        let batch = ge.run_replay_batch(&model, &clean, plan, BitSampler::Uniform, &[7]);
        let (sl, sr) = ge.run_with_injection(&model, x, plan, 7);
        assert_bits_equal(&batch[0].0, &sl, "batch of one");
        assert_eq!(format!("{:?}", batch[0].1), format!("{sr:?}"));
    }

    #[test]
    fn replay_batch_of_no_seeds_is_empty() {
        let model = tiny_model(25);
        let x = sample(26);
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let clean = ge.capture_clean_run(&model, x);
        let plan = InjectionPlan::single(0, SiteKind::Value);
        assert!(ge.run_replay_batch(&model, &clean, plan, BitSampler::Uniform, &[]).is_empty());
    }

    #[test]
    fn replay_batch_stratified_matches_serial_stratified() {
        let model = tiny_model(27);
        let x = sample(28);
        let ge = GoldenEye::parse("fp:e4m3").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let clean = ge.capture_clean_run(&model, x.clone());
        let plan = InjectionPlan::single(layers[1].index, SiteKind::Value);
        let sampler = BitSampler::Stratified { critical_mass: 0.75 };
        let batch = ge.run_replay_batch(&model, &clean, plan, sampler, &[11, 12]);
        for (&seed, (logits, record)) in [11u64, 12].iter().zip(&batch) {
            let (sl, sr) = ge.run_with_injection_sampled(&model, x.clone(), plan, seed, sampler);
            assert_bits_equal(logits, &sl, &format!("stratified seed {seed}"));
            assert_eq!(format!("{record:?}"), format!("{sr:?}"));
        }
    }

    #[test]
    fn replay_batch_metadata_faults_match_serial() {
        let model = tiny_model(29);
        let x = sample(30);
        let ge = GoldenEye::parse("bfp:e5m2:b8").unwrap();
        let layers = ge.discover_layers(&model, x.clone());
        let clean = ge.capture_clean_run(&model, x.clone());
        let plan = InjectionPlan::single(layers[3].index, SiteKind::Metadata);
        let batch = ge.run_replay_batch(&model, &clean, plan, BitSampler::Uniform, &[31, 32]);
        for (&seed, (logits, record)) in [31u64, 32].iter().zip(&batch) {
            let (sl, sr) = ge.run_with_injection(&model, x.clone(), plan, seed);
            assert_bits_equal(logits, &sl, &format!("metadata seed {seed}"));
            assert_eq!(format!("{record:?}"), format!("{sr:?}"));
        }
    }

    #[test]
    fn segment_for_layer_picks_deepest_checkpoint() {
        let clean = CleanRun {
            checkpoints: [0, 1, 3, 5].map(|offset| (Tensor::zeros([1]), offset)).to_vec(),
            layers: vec![],
            total_layers: 7,
            golden: Tensor::zeros([1, 1]),
        };
        assert_eq!(clean.segment_for_layer(0), 0);
        assert_eq!(clean.segment_for_layer(1), 1);
        assert_eq!(clean.segment_for_layer(2), 1);
        assert_eq!(clean.segment_for_layer(3), 2);
        assert_eq!(clean.segment_for_layer(4), 2);
        assert_eq!(clean.segment_for_layer(6), 3);
        assert_eq!(clean.layers_seen(), 7);
    }
}
