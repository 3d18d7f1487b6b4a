//! Steady-state inference allocates no activation-sized buffer.
//!
//! A counting global allocator records every allocation of at least
//! [`BIG`] bytes made on the test's own thread while counting is on. After
//! one warm-up forward has filled the thread's buffer pool
//! (`tensor::workspace`), a second batch-32 `GoldenEye::run` of ResNet-18
//! must take every activation, conv/GEMM output and Method 1 buffer from
//! the pool: the global allocator sees no request of 128 KiB or more.
//!
//! The allocator is this test binary's own; it is process-wide, so the
//! counts are kept per thread and only the thread that switched counting
//! on adds to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use goldeneye::GoldenEye;
use models::{ResNet, ResNetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

/// Allocations at or above this size are counted: glibc's default `mmap`
/// threshold, and the size of a batch-32 stage-3 activation.
const BIG: usize = 128 << 10;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// (allocations ≥ `BIG`, their bytes, the largest one).
    static BIG_ALLOCS: Cell<(usize, usize, usize)> = const { Cell::new((0, 0, 0)) };
}

fn note(size: usize) {
    if size < BIG {
        return;
    }
    // `try_with`: the allocator also runs during thread-local teardown.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = BIG_ALLOCS.try_with(|c| {
                let (n, bytes, max) = c.get();
                c.set((n + 1, bytes + size, max.max(size)));
            });
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; `note` only touches
// `Cell`s of plain integers and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The `(count, bytes, largest)` of the ≥ [`BIG`] allocations `f` makes on
/// this thread.
fn big_allocations<T>(f: impl FnOnce() -> T) -> ((usize, usize, usize), T) {
    BIG_ALLOCS.with(|c| c.set((0, 0, 0)));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (BIG_ALLOCS.with(Cell::get), out)
}

#[test]
fn a_second_batch32_forward_makes_no_large_allocation() {
    // One intra-op thread, as the campaign workers and the pinned
    // benchmark run: every kernel runs on this thread and its pool.
    let _serial = tensor::parallel::with_threads(1);
    let mut rng = StdRng::seed_from_u64(1);
    let model = ResNet::new(ResNetConfig::resnet18(8, 10), &mut rng);
    let x = Tensor::randn([32, 3, 32, 32], &mut rng);
    for spec in ["fp:e4m3", "bfp:e5m5:b16"] {
        let ge = GoldenEye::parse(spec).unwrap();
        let warm = ge.run(&model, x.clone());
        let ((n, bytes, max), second) = big_allocations(|| ge.run(&model, x.clone()));
        assert_eq!(warm, second, "{spec}: the two forwards disagree");
        assert_eq!(
            n, 0,
            "{spec}: the second forward made {n} allocations of ≥128 KiB ({bytes} bytes, \
             largest {max})"
        );
    }
}
