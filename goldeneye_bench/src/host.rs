//! What the process can read about itself and its host: peak memory, CPU
//! time, and the fingerprint stamped into every result file.

use trace::Json;

/// Peak resident set size of this process (`VmHWM`), in MiB. `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User and system CPU time consumed by this process so far, in seconds,
/// from `/proc/self/stat` (clock ticks of the Linux-wide `USER_HZ` = 100).
/// `(0, 0)` where `/proc` is unavailable.
pub fn cpu_times() -> (f64, f64) {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) are the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// CPU model, core count, the SIMD extensions the GEMM dispatch looks
/// for, and the micro-kernel it selected.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("cpu", Json::from(cpu)),
        ("nproc", Json::from(nproc)),
        ("isa", Json::Arr(isa_flags().into_iter().map(Json::from).collect())),
        ("kernel", Json::from(tensor::linalg::kernels::active().name())),
    ])
}

#[cfg(target_arch = "x86_64")]
fn isa_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    if std::arch::is_x86_feature_detected!("avx2") {
        flags.push("avx2");
    }
    if std::arch::is_x86_feature_detected!("fma") {
        flags.push("fma");
    }
    if std::arch::is_x86_feature_detected!("avx512f") {
        flags.push("avx512f");
    }
    flags
}

#[cfg(not(target_arch = "x86_64"))]
fn isa_flags() -> Vec<&'static str> {
    Vec::new()
}
