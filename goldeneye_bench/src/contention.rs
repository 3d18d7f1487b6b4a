//! How much other tenants of a shared host slowed this process down, so
//! that throughput and set-up time can be reported at the core's
//! uncontended speed.
//!
//! On the reference host, a shared 2-vCPU VM, the core a workload runs on
//! is intermittently busy with another tenant's work. While it is, the same
//! instructions take up to 1.7 times as long; such episodes last
//! milliseconds and come at a rate that drifts over seconds to minutes.
//! User CPU time moves with the wall time, so this is not time taken away
//! from the process but a slower core. Measured as is, identical work read
//! 10–27% apart from run to run (interquartile range over the median of 10
//! seeds) and its median moved by 20% between two passes an hour apart.
//!
//! A [`Probe`] pins the calling thread to the core it is on and starts a
//! thread on the same core that runs a fixed kernel (about 0.4 ms on an
//! uncontended reference core) every 20 ms. The kernel is the benchmark's
//! own code, not the library's, so no change to the program under test
//! moves it. Over any interval, the probe's mean time divided by its
//! uncontended time is the interval's slowdown; the workload slows with
//! it. Dividing each repetition's wall time by that slowdown took the
//! run-to-run spread of throughput from 10–27% to 2–6% on all four
//! workloads, and the median moved by 2% where the raw one moved by 20%
//! (README.md, "Host contention").

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The probe kernel's time on an uncontended core of the reference host
/// (Intel Xeon at 2.1 GHz): a run's fastest probe there reads 0.40–0.42
/// ms. It puts the corrected times in that host's seconds; any fixed value
/// would leave comparisons between runs unchanged.
const UNCONTENDED_PROBE_S: f64 = 0.40e-3;
/// Time between the end of one probe and the start of the next.
const PROBE_PERIOD: Duration = Duration::from_millis(20);
/// Fewest probes a slowdown is averaged over: an interval holding fewer
/// (a set-up takes ~10 ms) uses the ones nearest to it.
const MIN_PROBES: usize = 8;
/// A probe taking longer than this many times the run's fastest was
/// descheduled for the workload thread part of the way; it is left out.
const PREEMPTED: f64 = 3.0;

/// The fixed probe kernel: builds two 64 × 64 single-precision matrices
/// and multiplies them 16 times, on data that stays in the L1 cache.
///
/// Keep it as it is: its slowdown under contention was checked against
/// the workloads' over 80 runs (an AVX2 version and a memory-streaming
/// one tracked three of the four worse). A different kernel needs that
/// check again, and its own [`UNCONTENDED_PROBE_S`].
fn kernel() {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.5).collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..16 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                let (row, brow) = (&mut c[i * N..(i + 1) * N], &b[k * N..(k + 1) * N]);
                for (cv, bv) in row.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
        black_box(&mut c);
    }
}

/// A running probe. Dropping it stops and joins the probe thread.
#[derive(Debug)]
pub struct Probe {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Vec<(Instant, f64)>>>,
    cpu: Option<usize>,
}

impl Probe {
    /// Pins the calling thread to the core it is running on and starts the
    /// probe thread there.
    pub fn start() -> Probe {
        // The probe thread inherits the pinning, so both share one core.
        let cpu = pin_to_current_cpu();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PROBE_PERIOD);
                let t0 = Instant::now();
                kernel();
                samples.push((t0, t0.elapsed().as_secs_f64()));
            }
            samples
        });
        Probe { stop, thread: Some(thread), cpu }
    }

    /// Stops the probe and returns what it measured.
    ///
    /// # Panics
    ///
    /// Panics if the probe thread panicked.
    pub fn finish(mut self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self
            .thread
            .take()
            .map(|t| t.join().expect("the probe thread does not panic"))
            .unwrap_or_default();
        let fastest = samples.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
        // Probes that were descheduled part of the way measure the
        // workload's time slice, not the core's speed.
        let samples = samples.into_iter().filter(|s| s.1 <= PREEMPTED * fastest).collect();
        Samples { samples, cpu: self.cpu }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What a probe measured: the start and duration (s) of every probe, in
/// time order.
#[derive(Debug, Clone)]
pub struct Samples {
    samples: Vec<(Instant, f64)>,
    cpu: Option<usize>,
}

impl Samples {
    /// How many times slower than uncontended the core ran from `from` to
    /// `to`: the mean probe time over the probes that started in the
    /// interval (or the [`MIN_PROBES`] nearest to it), over the uncontended
    /// probe time. 1 without probes.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let s = &self.samples;
        let lo = s.partition_point(|p| p.0 < from);
        let hi = s.partition_point(|p| p.0 <= to);
        let (lo, hi) = if hi - lo >= MIN_PROBES {
            (lo, hi)
        } else {
            // Widen to MIN_PROBES, centred on the interval where possible.
            let lo = lo.saturating_sub((MIN_PROBES - (hi - lo)).div_ceil(2));
            let hi = (lo + MIN_PROBES).min(s.len());
            (hi.saturating_sub(MIN_PROBES), hi)
        };
        if lo == hi {
            return 1.0;
        }
        let mean = s[lo..hi].iter().map(|p| p.1).sum::<f64>() / (hi - lo) as f64;
        mean / UNCONTENDED_PROBE_S
    }

    /// Probes kept.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The fastest probe's time (s): the uncontended probe time of this
    /// host, if the core was ever free during the run.
    pub fn fastest_s(&self) -> f64 {
        self.samples.iter().map(|s| s.1).fold(f64::NAN, f64::min)
    }

    /// The core the run was pinned to, if pinning worked.
    pub fn cpu(&self) -> Option<usize> {
        self.cpu
    }
}

#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    // glibc's `cpu_set_t`: a bit mask of 1024 CPUs.
    const MASK_WORDS: usize = 1024 / 64;
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok().filter(|&c| c < 1024)?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and the call only reads it; pid 0 is the calling thread.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    ok.then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(durations: &[f64]) -> (Samples, Instant) {
        let t0 = Instant::now();
        let samples = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| (t0 + Duration::from_millis(20 * i as u64), d))
            .collect();
        (Samples { samples, cpu: None }, t0)
    }

    #[test]
    fn slowdown_is_mean_probe_time_over_uncontended_time() {
        let u = UNCONTENDED_PROBE_S;
        let durations: Vec<f64> = (0..40).map(|i| if i < 20 { u } else { 2.0 * u }).collect();
        let (s, t0) = samples(&durations);
        let ms = |m: u64| t0 + Duration::from_millis(m);
        assert!((s.slowdown(ms(0), ms(380)) - 1.0).abs() < 1e-12);
        assert!((s.slowdown(ms(400), ms(780)) - 2.0).abs() < 1e-12);
        assert!((s.slowdown(ms(0), ms(780)) - 1.5).abs() < 1e-12);
        // A 10-ms interval averages the MIN_PROBES probes around it.
        assert!((s.slowdown(ms(395), ms(405)) - 1.5).abs() < 1e-12);
        // At the first probe: the first MIN_PROBES; at the last, the last.
        assert!((s.slowdown(t0, t0) - 1.0).abs() < 1e-12);
        assert!((s.slowdown(ms(780), ms(790)) - 2.0).abs() < 1e-12);
        let (none, _) = samples(&[]);
        assert_eq!(none.slowdown(t0, ms(100)), 1.0);
    }

    #[test]
    fn probe_measures_and_stops() {
        let probe = Probe::start();
        std::thread::sleep(PROBE_PERIOD * 5);
        let s = probe.finish();
        assert!(s.len() >= 1, "{} probes", s.len());
        let now = Instant::now();
        let slowdown = s.slowdown(now - Duration::from_secs(1), now);
        assert!(slowdown.is_finite() && slowdown > 0.0);
    }
}
