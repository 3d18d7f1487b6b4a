//! One thread-local buffer pool for kernel scratch and tensor storage.
//!
//! Two kinds of `f32` buffer come and go on every forward pass:
//!
//! - **scratch** the kernels use inside one call: the packed A/B panels
//!   of the GEMM, conv's packed weights, its one `C·K²×NR` B panel or one
//!   image's phase planes per task, the backward pass's im2col columns
//!   and transposed weights. [`take`] hands out a zeroed [`Buffer`] and
//!   [`scratch`] an empty one for a kernel that writes every element
//!   before it reads any; both go back to the pool when they drop.
//! - **storage** of the tensors the ops return. The ops take their output
//!   buffer from [`zeroed`] or [`with_capacity`] and wrap it with
//!   `Tensor::from_buffer`; it goes back to the pool when the last tensor
//!   sharing it drops.
//!
//! Without the pool every activation-sized output went through `malloc`,
//! and glibc handed those pages back to the kernel and faulted them in
//! again on the next forward. A pool per thread means no locking on the
//! hot path: each campaign worker warms its own pool on its first trial.
//! Storage may cross threads; it retires to the pool of the thread that
//! drops it. A buffer dropped while that thread's pool is being torn down
//! is simply freed.
//!
//! The rules are fixed constants:
//!
//! - at most [`MAX_POOLED`] buffers per thread, each at most
//!   [`MAX_POOLED_LEN`] elements; a retirement past the count drops the
//!   buffer retired longest ago;
//! - storage shorter than [`MIN_STORAGE_LEN`] bypasses the pool both ways:
//!   `malloc` serves small blocks from its own free lists without faults;
//! - a request takes the most recently retired pooled buffer that fits,
//!   and never one more than [`MAX_OVERSIZE`] times its length, so a
//!   small tensor never pins a large buffer;
//! - only buffers the pool handed out go back to it: a tensor made from a
//!   plain `Vec` frees its buffer, so the pool grows only on its own
//!   misses;
//! - a thread's pool is emptied when its outermost [`RunScope`] (a
//!   campaign, a DSE search) ends.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

/// Buffers kept per thread; beyond this the one retired longest ago is
/// dropped.
const MAX_POOLED: usize = 32;
/// Buffers longer than this are freed on retirement instead of pooled.
const MAX_POOLED_LEN: usize = 64 << 20;
/// Tensor storage shorter than this (128 KiB, glibc's default `mmap`
/// threshold) is allocated and freed by the global allocator.
const MIN_STORAGE_LEN: usize = 32 << 10;
/// A request of `len` elements takes no pooled buffer with a capacity
/// above `MAX_OVERSIZE · len`.
const MAX_OVERSIZE: usize = 2;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// An `f32` buffer of the pool: kernel scratch or a tensor's storage.
/// It derefs to its `Vec`, and dropping it retires the `Vec` to the
/// dropping thread's pool if the pool handed it out (a hit or a counted
/// miss). A buffer made from a plain `Vec` ([`Buffer::from`]) is freed
/// instead, so the pool never grows by buffers it did not count.
pub struct Buffer {
    vec: Vec<f32>,
    pooled: bool,
}

impl Buffer {
    /// The pool's buffer of `len` zeros, else (`None`) a fresh one.
    fn zeroed_from(reused: Option<Vec<f32>>, len: usize) -> Buffer {
        let vec = match reused {
            Some(mut b) => {
                b.resize(len, 0.0);
                b
            }
            None => vec![0.0f32; len],
        };
        Buffer { vec, pooled: true }
    }

    /// The `Vec`, which then no longer goes back to the pool.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.vec)
    }
}

/// A buffer the pool did not hand out; it is freed on drop.
impl From<Vec<f32>> for Buffer {
    fn from(vec: Vec<f32>) -> Self {
        Buffer { vec, pooled: false }
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        if self.pooled {
            retire(std::mem::take(&mut self.vec));
        }
    }
}

/// A copy in a buffer of its own (copy-on-write's first write).
impl Clone for Buffer {
    fn clone(&self) -> Self {
        let mut buf = with_capacity(self.len());
        buf.extend_from_slice(self);
        buf
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.vec.fmt(f)
    }
}

impl Deref for Buffer {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        &self.vec
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        &mut self.vec
    }
}

/// A zeroed scratch buffer of `len` elements from the current thread's
/// pool, allocating only when no retired buffer fits. Scratch of any
/// length is pooled.
pub fn take(len: usize) -> Buffer {
    Buffer::zeroed_from(reuse(len), len)
}

/// An empty scratch buffer with room for `len` elements from the current
/// thread's pool, allocating only when no retired buffer fits: [`take`]
/// without the zero fill, for a kernel that writes all `len` elements
/// through `spare_capacity_mut` before it reads any.
pub(crate) fn scratch(len: usize) -> Buffer {
    let vec = reuse(len).unwrap_or_else(|| Vec::with_capacity(len));
    Buffer { vec, pooled: true }
}

/// A zero-filled buffer of `len` elements for a tensor's storage: a
/// pooled one (re-zeroed) when `len` is at least [`MIN_STORAGE_LEN`] and
/// one fits, else a fresh allocation.
pub fn zeroed(len: usize) -> Buffer {
    if len < MIN_STORAGE_LEN {
        return Buffer::from(vec![0.0f32; len]);
    }
    Buffer::zeroed_from(reuse(len), len)
}

/// An empty buffer with room for `len` elements, for a tensor's storage
/// that the caller fills by `push`/`extend`; pooled under the same rule
/// as [`zeroed`].
pub fn with_capacity(len: usize) -> Buffer {
    if len < MIN_STORAGE_LEN {
        return Buffer::from(Vec::with_capacity(len));
    }
    let vec = reuse(len).unwrap_or_else(|| Vec::with_capacity(len));
    Buffer { vec, pooled: true }
}

/// The most recently retired pooled buffer of capacity
/// `len..=MAX_OVERSIZE·len`, emptied; `None` counts a miss (and the bytes
/// the caller is about to allocate).
///
/// Most recent, not smallest: a forward pass then takes, on its second
/// run, the buffers its first run retired in the order it retired them,
/// so a warm pass makes no allocation. Smallest-fit could hand a
/// long-lived tensor an exact-size buffer that its first run had served
/// from a larger one, leaving a later, smaller request without any.
fn reuse(len: usize) -> Option<Vec<f32>> {
    let found = POOL
        .try_with(|p| {
            let mut pool = p.borrow_mut();
            let fits =
                |b: &Vec<f32>| (len..=len.saturating_mul(MAX_OVERSIZE)).contains(&b.capacity());
            let i = pool.iter().rposition(fits)?;
            Some(pool.remove(i))
        })
        .ok()
        .flatten();
    match found {
        Some(mut b) => {
            stats::HITS.with(|c| c.set(c.get() + 1));
            b.clear();
            Some(b)
        }
        None => {
            stats::MISSES.with(|c| c.set(c.get() + 1));
            let (misses, bytes) = miss_counters();
            misses.add(1);
            bytes.add((len * std::mem::size_of::<f32>()) as u64);
            None
        }
    }
}

/// The `tensor.pool.misses` and `tensor.pool.alloc_bytes` counters.
fn miss_counters() -> &'static (&'static trace::Metric, &'static trace::Metric) {
    static C: OnceLock<(&'static trace::Metric, &'static trace::Metric)> = OnceLock::new();
    C.get_or_init(|| {
        (
            trace::counter(trace::names::TENSOR_POOL_MISSES),
            trace::counter(trace::names::TENSOR_POOL_ALLOC_BYTES),
        )
    })
}

/// Puts `buf` back into the current thread's pool, dropping the buffer
/// retired longest ago past [`MAX_POOLED`]; frees it instead when it is
/// empty or over [`MAX_POOLED_LEN`], or when the pool is already gone
/// (thread-local teardown).
fn retire(buf: Vec<f32>) {
    if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_LEN {
        return;
    }
    let _ = POOL.try_with(|p| {
        let mut pool = p.borrow_mut();
        pool.push(buf);
        if pool.len() > MAX_POOLED {
            pool.remove(0);
        }
    });
}

thread_local! {
    /// Open [`RunScope`]s on this thread.
    static RUNS: Cell<usize> = const { Cell::new(0) };
}

/// Marks one top-level run (a campaign, a DSE search) on the current
/// thread. When the outermost scope drops, the thread's pool is emptied:
/// the buffers a run warmed are not kept while its caller does other
/// work, as a worker thread's pool goes when the worker exits.
#[must_use = "the pool is emptied when the scope drops"]
pub struct RunScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a [`RunScope`] on the current thread.
pub fn run_scope() -> RunScope {
    RUNS.with(|r| r.set(r.get() + 1));
    RunScope { _not_send: std::marker::PhantomData }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        let open = RUNS.with(|r| {
            r.set(r.get() - 1);
            r.get()
        });
        if open == 0 {
            let _ = POOL.try_with(|p| std::mem::take(&mut *p.borrow_mut()));
        }
    }
}

/// Pool effectiveness counters for the current thread, mainly for tests
/// and the bench bins.
pub mod stats {
    use std::cell::Cell;

    thread_local! {
        pub(super) static HITS: Cell<u64> = const { Cell::new(0) };
        pub(super) static MISSES: Cell<u64> = const { Cell::new(0) };
    }

    /// (requests served from the pool, requests that allocated) on the
    /// current thread since the last [`reset`]. Storage requests below
    /// [`super::MIN_STORAGE_LEN`] are neither.
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
    use crate::Tensor;

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
        drop(take(2500));
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

    #[test]
    fn a_dropped_tensors_buffer_is_reused_and_rezeroed() {
        let n = MIN_STORAGE_LEN;
        let t = Tensor::full([n], 7.0);
        let p = t.as_slice().as_ptr();
        drop(t);
        let z = zeroed(n);
        assert_eq!(z.as_ptr(), p, "zeroed did not reuse the dropped tensor's buffer");
        assert!(z.iter().all(|&x| x.to_bits() == 0), "a reused buffer must be re-zeroed");
        drop(Tensor::from_buffer(z, [n]));
        let e = with_capacity(n);
        assert_eq!((e.as_ptr(), e.len()), (p, 0), "with_capacity hands out an empty reused buffer");
    }

    #[test]
    fn into_vec_of_a_unique_tensor_keeps_its_buffer() {
        let n = MIN_STORAGE_LEN;
        let t = Tensor::from_buffer(zeroed(n), [n]);
        let p = t.as_slice().as_ptr();
        let v = t.into_vec();
        assert_eq!(v.as_ptr(), p);
        assert_eq!(v.len(), n);
    }

    fn pooled() -> Vec<*const f32> {
        POOL.with(|pool| pool.borrow().iter().map(|b| b.as_ptr()).collect())
    }

    #[test]
    fn only_buffers_the_pool_handed_out_go_back_to_it() {
        let small = Tensor::zeros([MIN_STORAGE_LEN - 1]);
        let p = small.as_slice().as_ptr();
        drop(small);
        assert!(!pooled().contains(&p), "storage below the floor was pooled");

        let plain = Tensor::from_vec(vec![1.0; MIN_STORAGE_LEN], [MIN_STORAGE_LEN]);
        let p = plain.as_slice().as_ptr();
        drop(plain);
        assert!(!pooled().contains(&p), "a tensor made from a plain Vec was pooled");
    }

    #[test]
    fn a_request_never_takes_a_buffer_far_larger_than_itself() {
        let big = Tensor::zeros([2 * MAX_OVERSIZE * MIN_STORAGE_LEN]);
        let p = big.as_slice().as_ptr();
        drop(big);
        let half = zeroed(MIN_STORAGE_LEN);
        assert_ne!(half.as_ptr(), p, "a request took a buffer {}× its length", 2 * MAX_OVERSIZE);
        let fits = zeroed(2 * MIN_STORAGE_LEN);
        assert_eq!(
            fits.as_ptr(),
            p,
            "a request {MAX_OVERSIZE}× smaller than a pooled buffer takes it"
        );
    }

    #[test]
    fn the_outermost_run_scope_empties_the_pool() {
        let outer = run_scope();
        drop(take(100));
        let inner = run_scope();
        drop(take(200));
        drop(inner);
        assert_eq!(pooled().len(), 2, "an inner scope must leave the pool alone");
        drop(outer);
        assert!(pooled().is_empty(), "the outermost scope must empty the pool");
    }

    #[test]
    fn a_tensor_dropped_during_thread_teardown_is_freed() {
        struct Holder(Option<Tensor>);
        thread_local! {
            static HELD: RefCell<Holder> = const { RefCell::new(Holder(None)) };
        }
        // `HELD` registers its destructor before `POOL` does, so the pool is
        // torn down first and the held tensor retires into a dead pool.
        std::thread::spawn(|| {
            HELD.with(|h| h.borrow_mut().0 = Some(Tensor::zeros([MIN_STORAGE_LEN])));
            drop(Tensor::zeros([MIN_STORAGE_LEN]));
            assert_eq!(pooled().len(), 1);
        })
        .join()
        .expect("a tensor dropped after its thread's pool must not panic");
    }
}
