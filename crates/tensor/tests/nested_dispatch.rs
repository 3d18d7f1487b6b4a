//! `tensor.parallel.dispatches` counts kernel dispatches to worker
//! threads. A kernel called inside a `parallel::map` worker runs inline
//! and must not count. The counter is process-global, so this check has
//! a test binary of its own.

use tensor::parallel;

#[test]
fn nested_parallel_for_in_a_map_worker_does_not_dispatch() {
    let dispatches = trace::counter(trace::names::TENSOR_PARALLEL_DISPATCHES);
    let before = dispatches.count();
    let budgets = parallel::map(2, 8, |_, _| {
        parallel::parallel_for(4, |_| {});
        parallel::max_threads()
    });
    assert_eq!(budgets, vec![1; 8]);
    assert_eq!(dispatches.count(), before, "a nested parallel_for dispatched");

    // The same call outside a worker does dispatch, so the check above
    // can fail.
    let _g = parallel::with_threads(2);
    parallel::parallel_for(4, |_| {});
    assert_eq!(dispatches.count(), before + 1);
}
