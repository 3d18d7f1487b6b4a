//! The toggle-able range detector (§V-B), modelled on Ranger-style
//! activation clamping: profile per-layer output ranges on clean runs,
//! then clamp faulty activations back into the profiled range.

use std::sync::RwLock;
use tensor::Tensor;

/// Per-layer activation range profile.
///
/// Build it by observing clean inferences; apply it with
/// [`RangeProfile::clamp`] during faulty inferences. Interior mutability
/// (an `RwLock`, so a profile shared via `Arc` is `Sync` for parallel
/// campaign workers) lets a shared hook update the profile during
/// profiling passes; faulty inferences only take the read lock.
#[derive(Debug, Default)]
pub struct RangeProfile {
    ranges: RwLock<Vec<Option<(f32, f32)>>>,
}

impl RangeProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<Option<(f32, f32)>>> {
        self.ranges.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Records the min/max of `t` for `layer`, widening any existing range.
    pub fn observe(&self, layer: usize, t: &Tensor) {
        let mut ranges = self.ranges.write().unwrap_or_else(|p| p.into_inner());
        if ranges.len() <= layer {
            ranges.resize(layer + 1, None);
        }
        let (lo, hi) = (t.min_all(), t.max_all());
        ranges[layer] = Some(match ranges[layer] {
            Some((l, h)) => (l.min(lo), h.max(hi)),
            None => (lo, hi),
        });
    }

    /// The profiled range of `layer`, if any.
    pub fn range(&self, layer: usize) -> Option<(f32, f32)> {
        self.read().get(layer).copied().flatten()
    }

    /// Number of profiled layers.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if nothing has been profiled.
    pub fn is_empty(&self) -> bool {
        self.read().iter().all(Option::is_none)
    }

    /// A point-in-time copy of every profiled layer range, as
    /// `(layer, min, max)` triples — the payload of the observability
    /// layer's range-profile snapshot events.
    pub fn snapshot(&self) -> Vec<(usize, f32, f32)> {
        self.read()
            .iter()
            .enumerate()
            .filter_map(|(layer, r)| r.map(|(lo, hi)| (layer, lo, hi)))
            .collect()
    }

    /// Clamps `t` into `layer`'s profiled range (identity if unprofiled).
    /// Non-finite values are pulled to the nearest bound, so a NaN/Inf
    /// produced by an exponent flip is suppressed — the detector's purpose.
    ///
    /// Elementwise over fixed [`CLAMP_CHUNK`]-sized chunks on the worker
    /// pool, so detect-mode hooks scale like the quantise pass and the
    /// output is byte-identical for every thread budget.
    pub fn clamp(&self, layer: usize, t: &Tensor) -> Tensor {
        match self.range(layer) {
            None => t.clone(),
            Some((lo, hi)) => {
                let src = t.as_slice();
                let mut out = vec![0.0f32; src.len()];
                let _serial = (src.len() < tensor::parallel::PAR_MIN_ELEMS)
                    .then(|| tensor::parallel::with_threads(1));
                tensor::parallel::par_chunks_mut(&mut out, CLAMP_CHUNK, |i, chunk| {
                    let base = i * CLAMP_CHUNK;
                    for (j, v) in chunk.iter_mut().enumerate() {
                        let x = src[base + j];
                        *v = if x.is_nan() { hi } else { x.clamp(lo, hi) };
                    }
                });
                Tensor::from_vec(out, t.shape().clone())
            }
        }
    }
}

/// Elements per parallel clamp work unit. Fixed — never derived from the
/// thread count — which keeps clamped outputs thread-count invariant.
const CLAMP_CHUNK: usize = 4096;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_widens_range() {
        let p = RangeProfile::new();
        p.observe(0, &Tensor::from_vec(vec![-1.0, 2.0], [2]));
        p.observe(0, &Tensor::from_vec(vec![-3.0, 1.0], [2]));
        assert_eq!(p.range(0), Some((-3.0, 2.0)));
    }

    #[test]
    fn clamp_pulls_outliers_in() {
        let p = RangeProfile::new();
        p.observe(1, &Tensor::from_vec(vec![0.0, 10.0], [2]));
        let faulty = Tensor::from_vec(vec![-5.0, 3.0, 1e30], [3]);
        let clamped = p.clamp(1, &faulty);
        assert_eq!(clamped.as_slice(), &[0.0, 3.0, 10.0]);
    }

    #[test]
    fn clamp_suppresses_nan_and_inf() {
        let p = RangeProfile::new();
        p.observe(0, &Tensor::from_vec(vec![-1.0, 1.0], [2]));
        let faulty = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY], [3]);
        let clamped = p.clamp(0, &faulty);
        assert_eq!(clamped.as_slice(), &[1.0, 1.0, -1.0]);
    }

    #[test]
    fn unprofiled_layer_is_identity() {
        let p = RangeProfile::new();
        let x = Tensor::from_vec(vec![1e30, -1e30], [2]);
        assert_eq!(p.clamp(7, &x), x);
    }

    #[test]
    fn clamp_is_thread_count_invariant() {
        let p = RangeProfile::new();
        p.observe(0, &Tensor::from_vec(vec![-2.0, 2.0], [2]));
        // Above the serial guard so the parallel dispatch path really
        // runs, ragged so the partial tail chunk is exercised.
        let n = tensor::parallel::PAR_MIN_ELEMS + 3 * CLAMP_CHUNK + 17;
        let v: Vec<f32> = (0..n)
            .map(|i| match i % 5 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => -1e30,
                _ => (i as f32) * 1e-3 - 6.0,
            })
            .collect();
        let t = Tensor::from_vec(v, [n]);
        let reference = {
            let _g = tensor::parallel::with_threads(1);
            p.clamp(0, &t)
        };
        for threads in [2usize, 8] {
            let _g = tensor::parallel::with_threads(threads);
            let got = p.clamp(0, &t);
            assert_eq!(got.as_slice(), reference.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn independent_layers() {
        let p = RangeProfile::new();
        p.observe(0, &Tensor::from_vec(vec![0.0, 1.0], [2]));
        p.observe(3, &Tensor::from_vec(vec![-9.0, 9.0], [2]));
        assert_eq!(p.range(0), Some((0.0, 1.0)));
        assert_eq!(p.range(1), None);
        assert_eq!(p.range(3), Some((-9.0, 9.0)));
        assert_eq!(p.len(), 4);
    }
}
