//! Per-layer timing from outside the library: two delegating wrappers
//! passed in through the library's public parameters.
//!
//! - [`TimedModel`] is an [`nn::Module`] that times every
//!   `forward_segment` call of the model it wraps (calls, busy time, and
//!   the replica count of the pass). Its `forward` is the chain of its own
//!   segments, which the `Module` contract makes bit-identical to the
//!   wrapped model's `forward`.
//! - [`TimedFormat`] is a [`formats::NumberFormat`] that delegates every
//!   trait method, defaulted ones included, and times the tensor-wide
//!   conversions (methods 1 and 2), charging that time to the segment the
//!   calling thread is executing.
//!
//! Campaign workers run segments on their own threads, so the segment a
//! conversion belongs to travels in a thread-local set by [`TimedModel`].

use formats::{Bitstring, DynamicRange, Metadata, NumberFormat, Quantized};
use nn::{Ctx, Module, Param};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tensor::{Tensor, Var};

thread_local! {
    /// The segment the current thread is executing, if any.
    static SEGMENT: Cell<Option<usize>> = const { Cell::new(None) };
}

#[derive(Debug, Default)]
struct SegmentCounters {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    replicas: AtomicU64,
    format_ns: AtomicU64,
}

/// Accumulated timings, shared by a [`TimedModel`] and the
/// [`TimedFormat`]s of the same traced run.
#[derive(Debug)]
pub struct Profile {
    segments: Vec<SegmentCounters>,
    quantize_ns: AtomicU64,
    quantize_calls: AtomicU64,
    dequantize_ns: AtomicU64,
}

/// One segment's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentTotals {
    /// `forward_segment` calls.
    pub calls: u64,
    /// Wall time inside those calls, summed over threads.
    pub busy_ns: u64,
    /// Replica-passes: Σ over calls of the pass's packed trial count.
    pub replicas: u64,
    /// Part of `busy_ns` spent in tensor-wide format conversions.
    pub format_ns: u64,
}

/// A snapshot of a [`Profile`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileTotals {
    /// Per-segment totals, in segment order.
    pub segments: Vec<SegmentTotals>,
    /// Time in `real_to_format_tensor`.
    pub quantize_ns: u64,
    /// Calls of `real_to_format_tensor`.
    pub quantize_calls: u64,
    /// Time in `format_to_real_tensor`.
    pub dequantize_ns: u64,
}

impl Profile {
    /// An empty profile for a model of `segments` segments.
    pub fn new(segments: usize) -> Arc<Profile> {
        Arc::new(Profile {
            segments: (0..segments).map(|_| SegmentCounters::default()).collect(),
            quantize_ns: AtomicU64::new(0),
            quantize_calls: AtomicU64::new(0),
            dequantize_ns: AtomicU64::new(0),
        })
    }

    /// The totals so far.
    pub fn totals(&self) -> ProfileTotals {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ProfileTotals {
            segments: self
                .segments
                .iter()
                .map(|s| SegmentTotals {
                    calls: get(&s.calls),
                    busy_ns: get(&s.busy_ns),
                    replicas: get(&s.replicas),
                    format_ns: get(&s.format_ns),
                })
                .collect(),
            quantize_ns: get(&self.quantize_ns),
            quantize_calls: get(&self.quantize_calls),
            dequantize_ns: get(&self.dequantize_ns),
        }
    }

    fn charge_format(&self, ns: u64) {
        if let Some(s) = SEGMENT.with(Cell::get) {
            self.segments[s].format_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A model wrapper that times each segment of the forward pass.
pub struct TimedModel<'a> {
    inner: &'a dyn Module,
    profile: Arc<Profile>,
}

impl<'a> TimedModel<'a> {
    /// Wraps `inner`, accumulating into `profile` (which must have one
    /// slot per segment of `inner`).
    pub fn new(inner: &'a dyn Module, profile: Arc<Profile>) -> Self {
        assert_eq!(profile.segments.len(), inner.num_segments(), "one profile slot per segment");
        TimedModel { inner, profile }
    }
}

impl Module for TimedModel<'_> {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let mut h = x.clone();
        for s in 0..self.num_segments() {
            h = self.forward_segment(s, &h, ctx);
        }
        h
    }

    fn num_segments(&self) -> usize {
        self.inner.num_segments()
    }

    fn forward_segment(&self, segment: usize, x: &Var, ctx: &mut Ctx) -> Var {
        let outer = SEGMENT.with(|c| c.replace(Some(segment)));
        let t0 = Instant::now();
        let out = self.inner.forward_segment(segment, x, ctx);
        let ns = elapsed_ns(t0);
        SEGMENT.with(|c| c.set(outer));
        let s = &self.profile.segments[segment];
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.busy_ns.fetch_add(ns, Ordering::Relaxed);
        s.replicas.fetch_add(ctx.replicas() as u64, Ordering::Relaxed);
        out
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.inner.visit_params(f);
    }
}

/// A number-format wrapper that times the tensor-wide conversions.
#[derive(Debug)]
pub struct TimedFormat {
    inner: Box<dyn NumberFormat>,
    profile: Arc<Profile>,
}

impl TimedFormat {
    /// Wraps `inner`, accumulating into `profile`.
    pub fn new(inner: Box<dyn NumberFormat>, profile: Arc<Profile>) -> Self {
        TimedFormat { inner, profile }
    }
}

impl NumberFormat for TimedFormat {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn canonical_spec(&self) -> String {
        self.inner.canonical_spec()
    }

    fn bit_width(&self) -> u32 {
        self.inner.bit_width()
    }

    fn real_to_format_tensor(&self, t: &Tensor) -> Quantized {
        let t0 = Instant::now();
        let q = self.inner.real_to_format_tensor(t);
        let ns = elapsed_ns(t0);
        self.profile.quantize_ns.fetch_add(ns, Ordering::Relaxed);
        self.profile.quantize_calls.fetch_add(1, Ordering::Relaxed);
        self.profile.charge_format(ns);
        q
    }

    fn format_to_real_tensor(&self, q: &Quantized) -> Tensor {
        let t0 = Instant::now();
        let t = self.inner.format_to_real_tensor(q);
        let ns = elapsed_ns(t0);
        self.profile.dequantize_ns.fetch_add(ns, Ordering::Relaxed);
        self.profile.charge_format(ns);
        t
    }

    fn real_to_format(&self, value: f32, meta: &Metadata, index: usize) -> Bitstring {
        self.inner.real_to_format(value, meta, index)
    }

    fn format_to_real(&self, bits: &Bitstring, meta: &Metadata, index: usize) -> f32 {
        self.inner.format_to_real(bits, meta, index)
    }

    fn dynamic_range(&self) -> DynamicRange {
        self.inner.dynamic_range()
    }

    fn quantize_value(&self, x: f32) -> f32 {
        self.inner.quantize_value(x)
    }

    fn elementwise_quantizer(&self) -> Option<Box<dyn Fn(f32) -> f32 + Send + Sync + '_>> {
        self.inner.elementwise_quantizer()
    }

    fn supports_metadata_injection(&self) -> bool {
        self.inner.supports_metadata_injection()
    }

    fn exponent_field(&self) -> Option<std::ops::Range<usize>> {
        self.inner.exponent_field()
    }

    fn apply_metadata(&self, values: &Tensor, old: &Metadata, new: &Metadata) -> Tensor {
        self.inner.apply_metadata(values, old, new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldeneye::{CampaignConfig, CampaignResult, GoldenEye};
    use inject::SiteKind;
    use models::{DeitConfig, ResNet, ResNetConfig, SyntheticDataset, VisionTransformer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn resnet() -> ResNet {
        ResNet::new(ResNetConfig::tiny(4), &mut StdRng::seed_from_u64(1))
    }

    fn deit() -> VisionTransformer {
        VisionTransformer::new(DeitConfig::tiny_test(16, 4), &mut StdRng::seed_from_u64(2))
    }

    /// Runs `campaign` on the bare model and format, then on both wrapped,
    /// and requires byte-identical canonical trial records.
    fn assert_transparent(
        model: &dyn Module,
        spec: &str,
        campaign: impl Fn(&GoldenEye, &dyn Module, &Tensor, &[usize]) -> CampaignResult,
    ) -> ProfileTotals {
        let (x, y) = SyntheticDataset::generate(4, 16, 4, 3).head_batch(4);
        let plain = campaign(&GoldenEye::parse(spec).unwrap(), model, &x, &y);
        let profile = Profile::new(model.num_segments());
        let timed_model = TimedModel::new(model, profile.clone());
        let format = spec.parse::<formats::FormatSpec>().unwrap().build();
        let timed_ge = GoldenEye::new(Box::new(TimedFormat::new(format, profile.clone())));
        let wrapped = campaign(&timed_ge, &timed_model, &x, &y);
        assert!(!plain.trials.is_empty());
        assert_eq!(plain.canonical_trial_jsonl(), wrapped.canonical_trial_jsonl(), "{spec}");
        let totals = profile.totals();
        assert!(totals.segments.iter().all(|s| s.calls > 0 && s.busy_ns > 0), "{totals:?}");
        assert!(totals.quantize_calls > 0);
        totals
    }

    #[test]
    fn batched_value_campaign_is_unchanged() {
        let cfg = CampaignConfig {
            injections_per_layer: 6,
            kind: SiteKind::Value,
            seed: 11,
            jobs: 2,
            trials_per_batch: 4,
            ..Default::default()
        };
        let totals = assert_transparent(&resnet(), "fp:e4m3", |ge, m, x, y| {
            goldeneye::run_campaign(ge, m, x, y, &cfg)
        });
        // Replays pack several trials per pass.
        assert!(totals.segments.iter().any(|s| s.replicas > s.calls));
    }

    #[test]
    fn bfp_metadata_campaign_is_unchanged() {
        let cfg = CampaignConfig {
            injections_per_layer: 5,
            kind: SiteKind::Metadata,
            seed: 13,
            jobs: 2,
            trials_per_batch: 3,
            ..Default::default()
        };
        let totals = assert_transparent(&deit(), "bfp:e5m5:b16", |ge, m, x, y| {
            goldeneye::run_campaign(ge, m, x, y, &cfg)
        });
        // BFP has no elementwise quantiser: every hooked output converts
        // through the wrapper, inside some segment.
        assert!(totals.segments.iter().all(|s| s.format_ns > 0), "{totals:?}");
        assert!(totals.dequantize_ns > 0);
    }

    #[test]
    fn weight_campaign_is_unchanged() {
        let cfg = CampaignConfig {
            injections_per_layer: 3,
            kind: SiteKind::Value,
            seed: 17,
            jobs: 2,
            ..Default::default()
        };
        assert_transparent(&resnet(), "int:8", |ge, m, x, y| {
            goldeneye::run_weight_campaign(ge, m, x, y, &cfg)
        });
    }
}
