//! Reusable scratch buffers for the compute kernels.
//!
//! `conv2d` / `conv2d_backward` and the packed GEMM need large transient
//! `Vec<f32>` buffers (im2col columns, packed A/B panels, transposed
//! weights). Allocating them per call dominated small-batch inference, so
//! kernels now borrow from a **thread-local free-list pool**: [`take`]
//! hands out a zero-initialised buffer (recycling the largest retired one
//! that fits), and dropping the returned [`Scratch`] guard retires the
//! buffer back to the pool.
//!
//! Thread-local means no locking on the hot path and no API churn up
//! through autograd/nn — every campaign worker thread simply warms its own
//! pool on the first trial. The pool is bounded ([`MAX_POOLED`] buffers,
//! each ≤ [`MAX_POOLED_LEN`] elements) so pathological shapes cannot pin
//! unbounded memory.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Buffers kept per thread; beyond this the smallest is dropped.
const MAX_POOLED: usize = 8;
/// Buffers longer than this are freed on retirement instead of pooled.
const MAX_POOLED_LEN: usize = 64 << 20;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A pooled scratch buffer; derefs to `[f32]` of exactly the requested
/// length and returns its storage to the thread-local pool on drop.
pub struct Scratch {
    buf: Vec<f32>,
}

impl Deref for Scratch {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_LEN {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            pool.push(buf);
            if pool.len() > MAX_POOLED {
                // Keep the largest buffers: they are the expensive ones.
                let (mut min_i, mut min_cap) = (0, usize::MAX);
                for (i, b) in pool.iter().enumerate() {
                    if b.capacity() < min_cap {
                        min_i = i;
                        min_cap = b.capacity();
                    }
                }
                pool.swap_remove(min_i);
            }
        });
    }
}

/// Borrows a zeroed scratch buffer of `len` elements from the current
/// thread's pool, allocating only when no retired buffer is big enough.
pub fn take(len: usize) -> Scratch {
    let reused = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        // Smallest buffer that fits, to keep big ones for big requests.
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in pool.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        best.map(|(i, _)| pool.swap_remove(i))
    });
    let buf = match reused {
        Some(mut b) => {
            stats::HITS.with(|c| c.set(c.get() + 1));
            b.clear();
            b.resize(len, 0.0);
            b
        }
        None => {
            stats::MISSES.with(|c| c.set(c.get() + 1));
            vec![0.0f32; len]
        }
    };
    Scratch { buf }
}

/// Pool effectiveness counters for the current thread, mainly for tests
/// and the bench bins.
pub mod stats {
    use std::cell::Cell;

    thread_local! {
        pub(super) static HITS: Cell<u64> = const { Cell::new(0) };
        pub(super) static MISSES: Cell<u64> = const { Cell::new(0) };
    }

    /// (`take` calls served from the pool, `take` calls that allocated)
    /// on the current thread since the last [`reset`].
    pub fn snapshot() -> (u64, u64) {
        (HITS.with(Cell::get), MISSES.with(Cell::get))
    }

    /// Zeroes the current thread's counters.
    pub fn reset() {
        HITS.with(|c| c.set(0));
        MISSES.with(|c| c.set(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_zeroed_buffer_of_exact_len() {
        let mut s = take(100);
        assert_eq!(s.len(), 100);
        assert!(s.iter().all(|&x| x == 0.0));
        s[0] = 7.0;
        drop(s);
        // Reuse must re-zero.
        let s2 = take(50);
        assert_eq!(s2.len(), 50);
        assert!(s2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pool_reuses_retired_buffers() {
        stats::reset();
        drop(take(4096));
        drop(take(4096));
        drop(take(1000));
        let (hits, _) = stats::snapshot();
        assert!(hits >= 2, "expected ≥2 pool hits, got {hits}");
    }

    #[test]
    fn pool_stays_bounded() {
        let all: Vec<_> = (0..MAX_POOLED + 5).map(|i| take(64 + i)).collect();
        drop(all);
        POOL.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }

    #[test]
    fn zero_len_take_works() {
        let s = take(0);
        assert_eq!(s.len(), 0);
    }
}
