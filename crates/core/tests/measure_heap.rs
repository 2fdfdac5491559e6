//! Heap guard for `protocol::measure`: a measurement chooses its
//! representative by runtime alone and reads only that repeat out, so it
//! may allocate and hold little more than one node-0 execution of its own
//! representative run, and keeps no traces once it returns; a runtime pass
//! allocates next to nothing; and a node-0 execution must stay well under
//! an all-node one, which also builds every node's node-total channel.
//!
//! The counting allocator below counts only the bytes of the thread that
//! allocates them, and the measurement runs under `pool::serial`, so the
//! numbers are the measurement's alone, whatever else the test harness
//! runs at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use vpp_cluster::{execute, execute_node0, job_runtime};
use vpp_core::benchmarks::si256_hse;
use vpp_core::protocol::{
    measure, measure_cancellable, plan_for, repeat_spec, Canceled, RunConfig, StudyContext,
};

/// Forwards to the system allocator and counts the calling thread's live,
/// peak and total allocated bytes.
struct ThreadCounting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

/// `bytes` more (or, negative, fewer) live on this thread, of which
/// `allocated` came from a fresh allocation.
fn moved(bytes: isize, allocated: usize) {
    // None of the cells has a destructor, so the slots outlive every
    // allocation the thread makes; `try_with` only guards the contract.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    let _ = TOTAL.try_with(|total| total.set(total.get() + allocated));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees pass through unchanged; the
// counters are thread-local cells that never touch the memory itself.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            moved(layout.size() as isize, layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            moved(layout.size() as isize, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        moved(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A reallocation counts as an allocation of its new size.
            moved(new_size as isize - layout.size() as isize, new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

/// What a call did to this thread's heap, in bytes.
struct Heap {
    /// Peak above the bytes live before the call.
    peak: f64,
    /// Left live when the call returned.
    kept: f64,
    /// Allocated over the call, freed or not.
    total: f64,
}

/// Run `f` and return its result and what it did to this thread's heap.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Heap) {
    let before = LIVE.with(Cell::get);
    let total_before = TOTAL.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    let heap = Heap {
        peak: (PEAK.with(Cell::get) - before) as f64,
        kept: (LIVE.with(Cell::get) - before) as f64,
        total: (TOTAL.with(Cell::get) - total_before) as f64,
    };
    (out, heap)
}

fn mb(bytes: f64) -> f64 {
    bytes / 1e6
}

#[test]
fn measure_peaks_near_one_execute_and_keeps_no_traces() {
    let (bench, cfg, ctx) = (si256_hse(), RunConfig::nodes(16), StudyContext::quick());
    assert_eq!(ctx.repeats, 2);
    let (m, measured) = vpp_substrate::pool::serial(|| counted(|| measure(&bench, &cfg, &ctx)));
    let plan = plan_for(&bench, m.nodes, &ctx);
    let (run, node0) = counted(|| execute_node0(&plan, &m.spec, &ctx.network));
    assert_eq!(run.runtime_s.to_bits(), m.runtime_s.to_bits());
    assert_eq!(run.energy_j().to_bits(), m.energy_j.to_bits());
    drop(run);
    let (run, all_nodes) = counted(|| execute(&plan, &m.spec, &ctx.network));
    assert_eq!(run.energy_j().to_bits(), m.energy_j.to_bits());
    drop(run);
    let (runtime, pass) = counted(|| job_runtime(&plan, &m.spec, &ctx.network));
    assert_eq!(runtime.to_bits(), m.runtime_s.to_bits());

    assert!(
        measured.peak <= 1.25 * node0.peak,
        "measure peaked at {:.2} MB, one node-0 execute of its run at {:.2} MB",
        mb(measured.peak),
        mb(node0.peak)
    );
    assert!(
        measured.total <= 1.25 * node0.total,
        "measure allocated {:.2} MB, one node-0 execute of its run {:.2} MB",
        mb(measured.total),
        mb(node0.total)
    );
    // The pass allocates only what does not grow with the plan's ops
    // (the nodes, each rank's kernel table and clock): ~34 kB on this
    // 902-op plan, against a read-out's ~2.2 MB.
    assert!(
        pass.total < 0.02 * node0.total,
        "a runtime pass allocated {:.3} MB, a node-0 execute {:.2} MB",
        mb(pass.total),
        mb(node0.total)
    );
    assert!(
        node0.peak <= 0.8 * all_nodes.peak,
        "a node-0 execute peaked at {:.2} MB, an all-node one at {:.2} MB",
        mb(node0.peak),
        mb(all_nodes.peak)
    );
    assert!(
        measured.kept < 0.1e6,
        "the returned measurement holds {:.3} MB",
        mb(measured.kept)
    );
}

#[test]
fn a_cancel_after_the_last_repeat_skips_the_readout() {
    let (bench, cfg, ctx) = (si256_hse(), RunConfig::nodes(16), StudyContext::quick());
    // The first `repeats` polls start the repeats; the next one, before
    // the read-out, fires.
    let polls = AtomicUsize::new(0);
    let (out, canceled) = vpp_substrate::pool::serial(|| {
        counted(|| {
            measure_cancellable(&bench, &cfg, &ctx, &|| {
                polls.fetch_add(1, Ordering::SeqCst) >= ctx.repeats
            })
        })
    });
    assert!(matches!(out, Err(Canceled)));
    assert_eq!(polls.load(Ordering::SeqCst), ctx.repeats + 1);

    let plan = plan_for(&bench, cfg.nodes, &ctx);
    let spec = repeat_spec(&cfg, &ctx, 0);
    let (_, node0) = counted(|| execute_node0(&plan, &spec, &ctx.network));
    assert!(
        canceled.total < 0.25 * node0.total,
        "the canceled measure allocated {:.2} MB, a read-out {:.2} MB",
        mb(canceled.total),
        mb(node0.total)
    );
    assert!(canceled.kept < 0.1e6, "{:.3} MB kept", mb(canceled.kept));
}
