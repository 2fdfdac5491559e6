//! Heap guard for `protocol::measure`: a measurement may hold little more
//! than one node-0 execution of its own representative run while it
//! works, and keeps no traces once it returns; and a node-0 execution
//! must stay well under an all-node one, which also builds every node's
//! node-total channel.
//!
//! The counting allocator below counts only the bytes of the thread that
//! allocates them, and the measurement runs under `pool::serial`, so the
//! numbers are the measurement's alone, whatever else the test harness
//! runs at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vpp_cluster::{execute, execute_node0};
use vpp_core::benchmarks::si256_hse;
use vpp_core::protocol::{measure, plan_for, RunConfig, StudyContext};

/// Forwards to the system allocator and counts the calling thread's live
/// and peak bytes.
struct ThreadCounting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn moved(bytes: isize) {
    // Neither cell has a destructor, so the slots outlive every
    // allocation the thread makes; `try_with` only guards the contract.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees pass through unchanged; the
// counters are thread-local cells that never touch the memory itself.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        moved(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            moved(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

/// Run `f` and return its result, its peak heap above the bytes live
/// before it and the bytes it left live, all on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    let peak = PEAK.with(Cell::get) - before;
    let kept = LIVE.with(Cell::get) - before;
    (out, peak as f64, kept as f64)
}

#[test]
fn measure_peaks_near_one_execute_and_keeps_no_traces() {
    let (bench, cfg, ctx) = (si256_hse(), RunConfig::nodes(16), StudyContext::quick());
    let (m, measure_peak, kept) =
        vpp_substrate::pool::serial(|| counted(|| measure(&bench, &cfg, &ctx)));
    let plan = plan_for(&bench, m.nodes, &ctx);
    let (run, node0_peak, _) = counted(|| execute_node0(&plan, &m.spec, &ctx.network));
    assert_eq!(run.runtime_s.to_bits(), m.runtime_s.to_bits());
    assert_eq!(run.energy_j().to_bits(), m.energy_j.to_bits());
    drop(run);
    let (run, all_nodes_peak, _) = counted(|| execute(&plan, &m.spec, &ctx.network));
    assert_eq!(run.energy_j().to_bits(), m.energy_j.to_bits());
    drop(run);

    let mb = |bytes: f64| bytes / 1e6;
    assert!(
        measure_peak <= 1.25 * node0_peak,
        "measure peaked at {:.2} MB, one node-0 execute of its run at {:.2} MB",
        mb(measure_peak),
        mb(node0_peak)
    );
    assert!(
        node0_peak <= 0.8 * all_nodes_peak,
        "a node-0 execute peaked at {:.2} MB, an all-node one at {:.2} MB",
        mb(node0_peak),
        mb(all_nodes_peak)
    );
    assert!(
        kept < 0.1e6,
        "the returned measurement holds {:.3} MB",
        mb(kept)
    );
}
