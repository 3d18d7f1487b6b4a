//! The central registry of telemetry names: every counter/histogram name
//! and every event kind the platform emits, as constants.
//!
//! Call sites across `goldeneye`, `formats`, and `tensor` import these
//! instead of scattering string literals, so a typo cannot silently fork
//! a metric, and `trace stats` / the validator can tell a known kind from
//! garbage. The integration suite asserts that every metric name appearing
//! in a recorded trace is registered here.

/// Per-call format round-trip time in the emulation hook: FP32 → format,
/// any fault, format → FP32.
pub const HOOK_QUANTIZE_NS: &str = "hook.quantize_ns";
/// Elements converted by the emulation hook.
pub const HOOK_CONVERT_ELEMS: &str = "hook.convert_elems";
/// Executed campaign trials.
pub const CAMPAIGN_TRIALS: &str = "campaign.trials";
/// Replay forwards (one per trial) executed by the checkpoint/replay engine.
pub const CAMPAIGN_REPLAY_BATCHES: &str = "campaign.replay.batches";
/// Model segments skipped by replaying from a checkpoint (cache hits).
pub const CAMPAIGN_REPLAY_SEG_SKIPPED: &str = "campaign.replay.segments_skipped";
/// Total model segments a full forward of each replayed trial would run.
pub const CAMPAIGN_REPLAY_SEG_TOTAL: &str = "campaign.replay.segments_total";
/// Chunk-parallel quantise wall time.
pub const FORMATS_QUANTIZE_CHUNKED_NS: &str = "formats.quantize.chunked_ns";
/// Elements quantised by the chunk-parallel path.
pub const FORMATS_QUANTIZE_CHUNKED_ELEMS: &str = "formats.quantize.chunked_elems";
/// Ordinal of the GEMM micro-kernel dispatched per GEMM or convolution
/// call (0 = scalar, 1 = AVX2, 2 = AVX-512); a histogram so `trace stats`
/// shows which kernel a run actually used.
pub const GEMM_KERNEL: &str = "gemm.kernel";
/// Never recorded: the fused round-trip that recorded it is gone. Kept
/// registered only because the benchmark package still reads it; it goes
/// at the benchmark's next change.
pub const PACK_FUSED_QUANTIZE_NS: &str = "pack.fused_quantize_ns";
/// Artifact-store lookups that found a cached artifact (memory or disk).
pub const STORE_HIT: &str = "store.hit";
/// Artifact-store lookups that missed and had to compute the artifact.
pub const STORE_MISS: &str = "store.miss";
/// Payload bytes served from the artifact store instead of recomputed.
pub const STORE_BYTES_REUSED: &str = "store.bytes_reused";
/// Payload bytes written into the artifact store.
pub const STORE_BYTES_WRITTEN: &str = "store.bytes_written";
/// Wall time of one forward convolution (`tensor::conv::conv2d`), panel
/// packing and micro-kernel together; one sample per call.
pub const TENSOR_CONV_NS: &str = "tensor.conv.ns";
/// Floating-point operations executed by forward convolutions
/// (`2·N·O·C·K²·OH·OW` per call).
pub const TENSOR_CONV_FLOPS: &str = "tensor.conv.flops";
/// Wall time of one GELU forward (`tensor::ops::gelu`); one sample per
/// call.
pub const TENSOR_GELU_NS: &str = "tensor.gelu.ns";
/// GEMM packing time (matmul, bmm and `sgemm`; convolutions excluded).
pub const TENSOR_GEMM_PACK_NS: &str = "tensor.gemm.pack_ns";
/// GEMM micro-kernel time (convolutions excluded).
pub const TENSOR_GEMM_KERNEL_NS: &str = "tensor.gemm.kernel_ns";
/// Floating-point operations executed by the GEMM kernels (convolutions
/// excluded).
pub const TENSOR_GEMM_FLOPS: &str = "tensor.gemm.flops";
/// Task batches dispatched by the intra-op worker pool.
pub const TENSOR_PARALLEL_DISPATCHES: &str = "tensor.parallel.dispatches";
/// Wall time of one dimension permutation (`tensor::ops::permute`); one
/// sample per call.
pub const TENSOR_PERMUTE_NS: &str = "tensor.permute.ns";
/// Wall time of one row-wise softmax or log-softmax
/// (`tensor::ops::softmax_lastdim`, `log_softmax_lastdim`); one sample
/// per call.
pub const TENSOR_SOFTMAX_NS: &str = "tensor.softmax.ns";

/// Every registered metric name. Kept sorted for deterministic reporting.
pub const ALL_METRICS: &[&str] = &[
    CAMPAIGN_REPLAY_BATCHES,
    CAMPAIGN_REPLAY_SEG_SKIPPED,
    CAMPAIGN_REPLAY_SEG_TOTAL,
    CAMPAIGN_TRIALS,
    FORMATS_QUANTIZE_CHUNKED_ELEMS,
    FORMATS_QUANTIZE_CHUNKED_NS,
    GEMM_KERNEL,
    HOOK_CONVERT_ELEMS,
    HOOK_QUANTIZE_NS,
    PACK_FUSED_QUANTIZE_NS,
    STORE_BYTES_REUSED,
    STORE_BYTES_WRITTEN,
    STORE_HIT,
    STORE_MISS,
    TENSOR_CONV_FLOPS,
    TENSOR_CONV_NS,
    TENSOR_GELU_NS,
    TENSOR_GEMM_FLOPS,
    TENSOR_GEMM_KERNEL_NS,
    TENSOR_GEMM_PACK_NS,
    TENSOR_PARALLEL_DISPATCHES,
    TENSOR_PERMUTE_NS,
    TENSOR_SOFTMAX_NS,
];

/// Whether `name` is a registered metric name (`test.*` names are
/// reserved for unit tests and always accepted).
pub fn is_registered_metric(name: &str) -> bool {
    name.starts_with("test.") || ALL_METRICS.contains(&name)
}

// ---------------------------------------------------------------------------
// Event kinds
// ---------------------------------------------------------------------------

/// RAII scope timing, emitted on span drop.
pub const KIND_SPAN: &str = "span";
/// Mirrored stderr log line.
pub const KIND_LOG: &str = "log";
/// One fault-injection trial record.
pub const KIND_TRIAL: &str = "trial";
/// A run manifest (inline or wrapped as an event payload).
pub const KIND_MANIFEST: &str = "manifest";
/// Quantizer range-profile snapshot.
pub const KIND_RANGE_PROFILE: &str = "range_profile";
/// One DSE traversal decision.
pub const KIND_DSE_NODE: &str = "dse_node";
/// Streaming progress heartbeat (trials done/planned, throughput, ETA).
pub const KIND_PROGRESS: &str = "progress";
/// A self-profiler tree snapshot.
pub const KIND_PROFILE: &str = "profile";

/// Every event kind the platform emits. A JSONL trace containing any
/// other kind fails validation with a typed error.
pub const ALL_EVENT_KINDS: &[&str] = &[
    KIND_SPAN,
    KIND_LOG,
    KIND_TRIAL,
    KIND_MANIFEST,
    KIND_RANGE_PROFILE,
    KIND_DSE_NODE,
    KIND_PROGRESS,
    KIND_PROFILE,
];

/// Whether `kind` is a known event kind (`test_*` kinds are reserved for
/// unit tests and always accepted).
pub fn is_known_kind(kind: &str) -> bool {
    kind.starts_with("test_") || ALL_EVENT_KINDS.contains(&kind)
}

/// Fields of a `progress` event that carry wall-clock-derived or
/// schedule-dependent values (throughput, ETA, worker count). The
/// deterministic content of a heartbeat is everything else; comparisons
/// across `--jobs` strip these, exactly like timestamps.
pub const PROGRESS_VOLATILE_FIELDS: &[&str] =
    &["ts_ns", "elapsed_s", "per_sec", "eta_s", "jobs", "cache_hit_rate"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_registry_is_sorted_and_matches() {
        let mut sorted = ALL_METRICS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, ALL_METRICS, "ALL_METRICS must stay sorted");
        assert!(is_registered_metric(CAMPAIGN_TRIALS));
        assert!(is_registered_metric("test.anything"));
        assert!(!is_registered_metric("hook.typo_ns"));
    }

    #[test]
    fn event_kind_registry() {
        assert!(is_known_kind("trial"));
        assert!(is_known_kind("progress"));
        assert!(is_known_kind("test_ring"));
        assert!(!is_known_kind("bogus_kind"));
    }
}
