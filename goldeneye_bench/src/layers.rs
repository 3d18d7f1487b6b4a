//! Per-layer metrics of a traced run, named after the crates they
//! measure. Every number comes from outside the library:
//!
//! - timings of the benchmark's own calls into public functions
//!   (`discover_layers`, `capture_clean_run`, the DSE evaluator);
//! - the [`crate::timed`] wrappers (per-segment busy time, format
//!   conversion time);
//! - the library's existing trace counters and `batch`/`trial`/`campaign`
//!   span events, captured in memory.
//!
//! Every workload reports every metric; one that does not apply to a
//! workload (DSE nodes on a campaign, trials on a DSE) reads 0.

use crate::stats::quantile;
use crate::timed::{ProfileTotals, SegmentTotals};
use crate::workloads::{Rep, JOBS};
use std::collections::BTreeMap;
use trace::names;

/// Segments reported per model: ResNet-18 has 10 (stem, eight blocks,
/// head), DeiT-tiny 6 (patch embedding, four blocks, head).
pub const SEGMENT_SLOTS: usize = 10;

/// Library trace counters read after the traced repetitions.
const COUNTERS: [&str; 11] = [
    names::CAMPAIGN_REPLAY_SEG_SKIPPED,
    names::CAMPAIGN_REPLAY_SEG_TOTAL,
    names::HOOK_QUANTIZE_NS,
    names::HOOK_CONVERT_ELEMS,
    names::PACK_FUSED_QUANTIZE_NS,
    names::TENSOR_GEMM_KERNEL_NS,
    names::TENSOR_GEMM_PACK_NS,
    names::TENSOR_GEMM_FLOPS,
    names::STORE_HIT,
    names::STORE_MISS,
    names::STORE_BYTES_REUSED,
];

/// A snapshot of the library counters: `(count, sum)` per name.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<&'static str, (u64, u64)>);

impl Counters {
    /// Reads the process-global counters.
    pub fn read() -> Counters {
        Counters(
            COUNTERS
                .iter()
                .map(|&n| {
                    let m = trace::counter(n);
                    (n, (m.count(), m.sum()))
                })
                .collect(),
        )
    }

    fn count(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |c| c.0 as f64)
    }

    fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |c| c.1 as f64)
    }
}

/// Everything a traced run measured.
#[derive(Debug)]
pub struct Traced {
    /// The traced repetitions.
    pub reps: Vec<Rep>,
    /// The timing wrappers' totals over the traced repetitions.
    pub profile: ProfileTotals,
    /// Span events of the traced repetitions.
    pub events: Vec<trace::Event>,
    /// Most events any one traced repetition emitted.
    pub max_rep_events: usize,
    /// Library counters over the traced repetitions.
    pub counters: Counters,
    /// User and system CPU seconds over the traced repetitions.
    pub cpu_s: (f64, f64),
    /// Median time of one `GoldenEye::discover_layers` call (campaigns).
    pub discover_ms: f64,
    /// Median time of one `GoldenEye::capture_clean_run` call (replay).
    pub clean_run_ms: f64,
}

fn field<'a>(e: &'a trace::Event, key: &str) -> Option<&'a trace::Json> {
    e.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Durations of the campaign units — `batch` spans of the replay engine,
/// `trial` spans of the per-trial engines — and the summed duration of
/// the `campaign` spans around them, in ms.
pub fn unit_spans(events: &[trace::Event]) -> (Vec<f64>, f64) {
    let mut unit_ms = Vec::new();
    let mut campaign_ms = 0.0;
    for e in events.iter().filter(|e| e.kind == names::KIND_SPAN) {
        let ms = field(e, "dur_ns").and_then(trace::Json::as_f64).unwrap_or(0.0) / 1e6;
        match field(e, "name").and_then(trace::Json::as_str) {
            Some("batch" | "trial") => unit_ms.push(ms),
            Some("campaign") => campaign_ms += ms,
            _ => {}
        }
    }
    (unit_ms, campaign_ms)
}

/// Computes every per-layer metric of `t`; `trace_overhead` is the
/// traced over the untraced repetition time, minus 1.
pub fn per_layer(t: &Traced, trace_overhead: f64) -> BTreeMap<String, f64> {
    let reps = t.reps.len().max(1) as f64;
    let first = &t.reps[0];
    let traced_wall_s: f64 = t.reps.iter().map(|r| r.wall_s).sum();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };

    // goldeneye: campaign units and the campaign spans around them.
    let (unit_ms, campaign_ms) = unit_spans(&t.events);
    let pct = |xs: &[f64], p: f64| if xs.is_empty() { 0.0 } else { quantile(xs, p) };
    put("core.units", unit_ms.len() as f64 / reps);
    put("core.unit_ms.p50", pct(&unit_ms, 0.5));
    put("core.unit_ms.p90", pct(&unit_ms, 0.9));
    let unit_busy_ms: f64 = unit_ms.iter().sum();
    put(
        "core.outside_units_frac",
        if campaign_ms > 0.0 { 1.0 - unit_busy_ms / (JOBS as f64 * campaign_ms) } else { 0.0 },
    );
    put("core.discover_ms", t.discover_ms);
    put("core.clean_run_ms", t.clean_run_ms);
    let trials = first.campaigns.iter().map(|c| c.trials.len()).sum::<usize>();
    // Trials per campaign unit: the replay batch as run, 1 per-trial.
    put("core.batch", ratio(trials as f64 * reps, unit_ms.len() as f64));
    let c = &t.counters;
    put(
        "core.replay_seg_skip_frac",
        ratio(
            c.count(names::CAMPAIGN_REPLAY_SEG_SKIPPED),
            c.count(names::CAMPAIGN_REPLAY_SEG_TOTAL),
        ),
    );
    put("core.trials_executed", trials as f64);

    // dse: node evaluations.
    let node_ms: Vec<f64> = t.reps.iter().flat_map(|r| r.node_ms.iter().copied()).collect();
    put("dse.nodes", first.search.as_ref().map_or(0, |s| s.nodes.len()) as f64);
    put("dse.node_ms.p50", pct(&node_ms, 0.5));
    put("dse.node_ms.max", node_ms.iter().copied().fold(0.0, f64::max));

    // models / nn: per-segment busy time, per replica-trial, and the part
    // of it spent converting formats.
    let segs = &t.profile.segments;
    for i in 0..SEGMENT_SLOTS {
        let s = segs.get(i).copied().unwrap_or_default();
        put(&format!("models.seg{i}.ms"), s.busy_ns as f64 / 1e6 / reps);
        put(&format!("models.seg{i}.trial_us"), ratio(s.busy_ns as f64 / 1e3, s.replicas as f64));
        put(&format!("models.seg{i}.fmt_ms"), s.format_ns as f64 / 1e6 / reps);
    }
    let total = |f: fn(&SegmentTotals) -> u64| segs.iter().map(f).sum::<u64>() as f64;
    let busy_ns = total(|s| s.busy_ns);
    let format_ns = total(|s| s.format_ns);
    put("models.forward_ms", busy_ns / 1e6 / reps);
    put("core.attributed_frac", ratio(busy_ns / 1e9, JOBS as f64 * traced_wall_s));

    // formats
    let p = &t.profile;
    put("formats.quantize_ms", p.quantize_ns as f64 / 1e6 / reps);
    put("formats.quantize_calls", p.quantize_calls as f64 / reps);
    put("formats.dequantize_ms", p.dequantize_ns as f64 / 1e6 / reps);
    put(
        "formats.ns_per_elem",
        ratio(c.sum(names::HOOK_QUANTIZE_NS), c.count(names::HOOK_CONVERT_ELEMS)),
    );
    put("formats.fused_ms", c.sum(names::PACK_FUSED_QUANTIZE_NS) / 1e6 / reps);

    // tensor: everything inside segments but outside format conversion,
    // two-pass (timed by the wrapper) or fused (timed by the library).
    // The GEMM counters miss convolutions, whose batch-parallel path calls
    // the micro-kernels directly; hence the `excl_conv` names.
    let fused_ns = c.sum(names::PACK_FUSED_QUANTIZE_NS);
    put("tensor.compute_ms", (busy_ns - format_ns - fused_ns).max(0.0) / 1e6 / reps);
    let kernel_ns = c.sum(names::TENSOR_GEMM_KERNEL_NS);
    put("tensor.gemm_excl_conv_ms", (kernel_ns + c.sum(names::TENSOR_GEMM_PACK_NS)) / 1e6 / reps);
    put("tensor.gemm_excl_conv_gflops", ratio(c.count(names::TENSOR_GEMM_FLOPS), kernel_ns));

    // inject: faults that fired, and the share that changed nothing.
    let fired: Vec<f32> =
        first.campaigns.iter().flat_map(|c| c.trials.iter().filter_map(|r| r.delta_loss)).collect();
    put("inject.faults", fired.len() as f64);
    put(
        "inject.masked_frac",
        ratio(fired.iter().filter(|&&d| d == 0.0).count() as f64, fired.len() as f64),
    );

    // store
    let hits = c.count(names::STORE_HIT);
    put("store.hit_frac", ratio(hits, hits + c.count(names::STORE_MISS)));
    put("store.bytes_reused", c.count(names::STORE_BYTES_REUSED) / reps);

    put("trace.overhead_frac", trace_overhead);

    // process: how busy the workers were, and the kernel's share.
    let (user, sys) = t.cpu_s;
    put("proc.cpu_util", ratio(user + sys, JOBS as f64 * traced_wall_s));
    put("proc.sys_frac", ratio(sys, user + sys));
    m
}
