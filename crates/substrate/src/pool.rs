//! A scoped-thread work pool.
//!
//! [`par_map`] distributes items over `min(available_parallelism, items)`
//! scoped worker threads pulling indices from a shared atomic counter, so an
//! expensive straggler does not serialise the tail the way static chunking
//! would. Results come back in input order.
//!
//! Nested parallelism is deliberately flattened: a `par_map` issued from
//! inside a pool worker runs serially on that worker. The experiment
//! harness nests three levels deep (figure runners → benchmark sweeps →
//! protocol repeats); only the outermost level fans out, which keeps the
//! thread count bounded by the machine width instead of the product of the
//! nesting arities.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// True on threads already owned by a pool scope.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Number of workers a top-level `par_map` will spawn for `n` items.
#[must_use]
pub fn workers_for(n: usize) -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    cpus.min(n).max(1)
}

/// Map `f` over owned `items` in parallel, preserving input order.
///
/// A panic in `f` stops the pool handing out further items and is
/// re-raised on the caller with its original payload once every worker
/// has joined.
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = workers_for(n);
    if workers <= 1 || IN_POOL.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("poisoned input slot")
                        .take()
                        .expect("item claimed twice");
                    // Caught here rather than by the scope, which would
                    // replace the payload with a generic message.
                    match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(out) => *results[i].lock().expect("poisoned result slot") = Some(out),
                        Err(payload) => {
                            next.store(n, Ordering::Relaxed);
                            first_panic
                                .lock()
                                .expect("poisoned panic slot")
                                .get_or_insert(payload);
                            break;
                        }
                    }
                }
            });
        }
    });
    if let Some(payload) = first_panic.into_inner().expect("poisoned panic slot") {
        panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("poisoned result slot")
                .expect("worker skipped an item")
        })
        .collect()
}

/// Run `f` with this thread marked as pool-owned, so any [`par_map`]
/// issued inside runs inline on the calling thread instead of fanning out.
///
/// This is how a job-service session keeps a whole workload on its one
/// bound thread: the thread-local trace binding and the span stack are
/// per-thread, so inner parallelism would escape the session's recorder.
/// Concurrency then comes from running many sessions, not from threads
/// within one. The previous mark is restored on exit (nesting is safe).
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_POOL.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_POOL.with(|flag| flag.replace(true)));
    f()
}

/// Borrowing variant of [`par_map`]: map `f` over `&items` in parallel,
/// preserving input order.
pub fn par_map_ref<'a, T, U, F>(items: &'a [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    par_map(items.iter().collect(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_preserve_input_order() {
        let out = par_map((0..100).collect::<Vec<i64>>(), |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<i64>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = par_map(vec![7usize], |x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn borrowing_variant_matches() {
        let items = vec![1.0f64, 2.0, 3.0];
        let out = par_map_ref(&items, |x| x * 10.0);
        assert_eq!(out, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        // With >1 worker, at least one item must run off the caller thread
        // (statistically certain with 64 items blocking briefly).
        if workers_for(64) <= 1 {
            return; // single-core machine: nothing to assert
        }
        let caller = std::thread::current().id();
        let off_thread = AtomicBool::new(false);
        par_map((0..64).collect::<Vec<u32>>(), |_| {
            if std::thread::current().id() != caller {
                off_thread.store(true, Ordering::Relaxed);
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        assert!(off_thread.load(Ordering::Relaxed));
    }

    #[test]
    fn nested_calls_run_serially_without_deadlock() {
        let out = par_map((0..8).collect::<Vec<usize>>(), |i| {
            // Inner call from a worker thread: must complete inline.
            let inner = par_map((0..4).collect::<Vec<usize>>(), move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[2], 20 + 21 + 22 + 23);
    }

    #[test]
    fn serial_scope_keeps_par_map_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = serial(|| {
            par_map((0..32).collect::<Vec<u32>>(), |i| {
                assert_eq!(std::thread::current().id(), caller);
                i * 2
            })
        });
        assert_eq!(out[31], 62);
        // The mark is restored: a later par_map may fan out again.
        assert!(!IN_POOL.with(Cell::get));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = par_map(vec![1, 2, 3], |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
