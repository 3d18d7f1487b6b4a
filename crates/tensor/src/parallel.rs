//! Worker threads: the one scoped-thread executor of the workspace.
//!
//! Campaign trials and evaluation batches ([`map`], called by
//! `goldeneye::campaign` and `goldeneye::evaluate`) and the compute
//! kernels' intra-op tasks ([`parallel_for`], [`par_chunks_mut`]) run on
//! the same worker loop: workers pull task indices from a shared atomic
//! counter inside a `std::thread::scope`, every task writes only its own
//! output (a result slot, or a pre-assigned range), and the task→output
//! mapping is fixed before any thread starts — so results are
//! **bit-identical for every thread count** (including 1, which
//! short-circuits to a plain loop on the caller's thread). Every worker
//! inherits the caller's span path and pins nested dispatch to one
//! thread; a worker's panic is re-raised on the caller after the join.
//!
//! [`map`] takes its thread count from its caller (`0` = all cores). The
//! kernels' budget is resolved per call site as:
//!
//! 1. the thread-local override installed by [`with_threads`] (which every
//!    worker sets to 1: the tasks already own the cores, and the
//!    bit-identity contract makes the pin free), else
//! 2. the process-wide default set by [`set_max_threads`], else
//! 3. `std::thread::available_parallelism()`.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Process-wide default thread budget; 0 = "ask the OS".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Below this many elements an elementwise pass (chunked quantise, range
/// clamp) stays on the calling thread: every dispatch spawns scoped OS
/// threads (~1 ms on containerised hosts), which swamps the work for the
/// evaluation models' layer outputs. The guard only affects latency —
/// chunk boundaries, and therefore results, are identical either way.
pub const PAR_MIN_ELEMS: usize = 1 << 20;

/// Counts task batches the kernels dispatched to worker threads (serial
/// short-circuits and [`map`] calls excluded).
fn dispatch_counter() -> &'static trace::Metric {
    static C: OnceLock<&'static trace::Metric> = OnceLock::new();
    C.get_or_init(|| trace::counter(trace::names::TENSOR_PARALLEL_DISPATCHES))
}

thread_local! {
    /// Per-thread override; `None` falls through to the global default.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Resolves a thread-count knob: `0` means all available cores.
fn resolve(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Sets the process-wide default intra-op thread budget (0 restores
/// "all available cores").
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The thread budget kernels on the current thread will use.
pub fn max_threads() -> usize {
    OVERRIDE.with(Cell::get).unwrap_or_else(|| resolve(MAX_THREADS.load(Ordering::Relaxed)))
}

/// RAII guard restoring the previous thread-local budget on drop.
#[derive(Debug)]
pub struct ThreadsGuard {
    prev: Option<usize>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Overrides the intra-op thread budget for the current thread until the
/// returned guard drops. Results are bit-identical for every budget; the
/// knob only trades latency for threads.
#[must_use = "the override lasts only while the guard is alive"]
pub fn with_threads(n: usize) -> ThreadsGuard {
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    ThreadsGuard { prev }
}

/// The worker loop behind [`map`] and [`parallel_for`]: `workers` scoped
/// threads pull task indices from one atomic counter and run
/// `f(worker, index)` for each.
fn run_workers<F>(workers: usize, tasks: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let next = AtomicUsize::new(0);
    // Workers inherit the dispatching thread's span path so their spans
    // aggregate under the campaign/trial that ran them.
    let prof_path = trace::profile_path();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let f = &f;
                let next = &next;
                let prof_path = prof_path.as_str();
                s.spawn(move || {
                    let _prof = trace::with_profile_path(prof_path);
                    let _nested = with_threads(1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        f(worker, i);
                    }
                })
            })
            .collect();
        let mut panicked = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panicked = Some(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
}

/// Runs `f(worker, index)` for every `index` in `0..tasks` on `threads`
/// workers (`0` = all available cores) and returns the results in index
/// order.
///
/// At one thread or one task this is a plain loop on the caller's thread
/// (worker 0, no pin). Otherwise the worker id is the executor-thread
/// index, below the thread count, so callers can record who ran a task;
/// it must not feed back into the result, which is then independent of
/// `threads`.
///
/// # Panics
///
/// Propagates a panic from any task (the remaining workers finish their
/// current task first).
pub fn map<T, F>(threads: usize, tasks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = resolve(threads).min(tasks);
    if workers <= 1 {
        return (0..tasks).map(|i| f(0, i)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    run_workers(workers, tasks, |worker, i| {
        let out = f(worker, i);
        *slots[i].lock().unwrap() = Some(out);
    });
    slots.into_iter().map(|s| s.into_inner().unwrap().expect("every task ran")).collect()
}

/// Runs `tasks` independent closures, `f(task_index)`, on up to
/// [`max_threads`] workers (serial when the budget or task count is 1).
/// Panics from any task are propagated after the workers join.
///
/// `f` must confine its writes to state owned by its task index; under
/// that contract the result is independent of the thread count.
pub fn parallel_for<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = max_threads().min(tasks);
    if workers <= 1 {
        for i in 0..tasks {
            f(i);
        }
        return;
    }
    dispatch_counter().add(1);
    run_workers(workers, tasks, |_, i| f(i));
}

/// Splits `out` into fixed `chunk`-sized pieces and runs
/// `f(chunk_index, chunk)` for each on the worker pool.
///
/// The chunking is a pure function of `out.len()` and `chunk` — never of
/// the thread count — which is what makes chunk-parallel consumers
/// (tensor quantisation, GEMM row panels) byte-identical across
/// `--jobs` / thread-budget settings.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn par_chunks_mut<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let tasks = out.len().div_ceil(chunk);
    if tasks <= 1 || max_threads() <= 1 {
        for (i, c) in out.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let len = out.len();
    let base = SendPtr(out.as_mut_ptr());
    parallel_for(tasks, |i| {
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: task i touches exactly `start..end`; tasks partition
        // `0..len` disjointly, and every worker of `parallel_for` joins
        // before the borrow of `out` ends.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, slice);
    });
}

/// A raw pointer that asserts cross-thread sendability; used only for
/// provably disjoint writes (see [`par_chunks_mut`] and the GEMM row
/// panels in `linalg`).
pub(crate) struct SendPtr<T>(pub *mut T);
// SAFETY: every user hands each task a disjoint region behind the pointer,
// and T: Send bounds on the entry points keep non-sendable payloads out.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `SendPtr` — edition-2021 disjoint capture would otherwise capture
    /// the bare `*mut T`, which is not `Sync`.
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_task_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let _g = with_threads(4);
        parallel_for(100, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_is_thread_count_invariant() {
        let f = |i: usize, c: &mut [f32]| {
            for (j, v) in c.iter_mut().enumerate() {
                *v = (i * 1000 + j) as f32;
            }
        };
        let mut serial = vec![0.0f32; 1000];
        {
            let _g = with_threads(1);
            par_chunks_mut(&mut serial, 64, f);
        }
        for n in [2, 3, 8] {
            let mut par = vec![0.0f32; 1000];
            let _g = with_threads(n);
            par_chunks_mut(&mut par, 64, f);
            assert_eq!(serial, par, "diverged at {n} threads");
        }
    }

    #[test]
    fn override_nests_and_restores() {
        let outer = max_threads();
        {
            let _a = with_threads(3);
            assert_eq!(max_threads(), 3);
            {
                let _b = with_threads(7);
                assert_eq!(max_threads(), 7);
            }
            assert_eq!(max_threads(), 3);
        }
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn parallel_for_propagates_panics() {
        let _g = with_threads(2);
        let caught = std::panic::catch_unwind(|| {
            parallel_for(10, |i| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
            });
        });
        assert!(caught.is_err());
    }

    #[test]
    fn map_returns_index_order() {
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(map(threads, 100, |_, i| i * i), want, "threads={threads}");
        }
    }

    #[test]
    fn map_worker_ids_are_below_the_thread_count() {
        for threads in [1, 2, 3, 8] {
            let workers = map(threads, 64, |worker, _| worker);
            assert!(workers.iter().all(|&w| w < threads), "threads={threads}: {workers:?}");
        }
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(resolve(0), cores);
        assert!(map(0, 64, |worker, _| worker).iter().all(|&w| w < cores));
    }

    #[test]
    fn map_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            map(2, 10, |_, i| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
                i
            })
        });
        let payload = caught.expect_err("the task's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 5 exploded"));
    }
}
