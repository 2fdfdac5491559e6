//! Overhead guard for the structured tracing substrate.
//!
//! The contract is "near-zero overhead when disabled": every instrumented
//! hot path (the executor's per-op loop, the DES queue, the protocol) runs
//! with `trace::enabled()` false in production, so the disabled primitives
//! must cost a branch, and a fully instrumented job execution without a
//! session must be indistinguishable from the pre-instrumentation numbers.
//! The `execute_small_job_untraced_vs_traced` comparison records what a
//! live session costs on top, keeping the enabled path honest too.

use std::hint::black_box;
use vpp_bench::{run, small_workload};
use vpp_core::{benchmarks, protocol};
use vpp_substrate::{span, trace, Harness};

fn main() {
    let mut h = Harness::new("trace_overhead");

    // Primitive costs with no session bound: one thread-local read each.
    // The field closures must not run, and a histogram must not resolve
    // its bucket table.
    h.bench("span_open_close_disabled", || {
        let mut s = span!("bench.span", payload = 42u64);
        s.record("exit_payload", 1.0);
        trace::enabled()
    });
    h.bench("counter_disabled", || {
        trace::counter("bench.counter", 1);
    });
    h.bench("mark_with_disabled", || {
        trace::mark_with("bench.mark", || vec![("x", 1.0.into())]);
    });
    h.bench("histogram_disabled", || {
        trace::histogram("bench.hist_watts", 250.0);
    });

    // Per-event cost with a live recorder, in the steady-state shape the
    // simulator produces: short spans nested under a long-lived root
    // (`job.execute`, `powercap.cycle`, …). Each event is one append under
    // the session's lock. The session recycles (finish + reopen) every
    // 2^18 calls, well before its 2^20-event budget fills; the recycle
    // lands in ~1% of timed batches and the harness reports a median over
    // batches, so the steady-state append cost is what's recorded.
    {
        let open = || {
            let session = trace::session(1 << 20);
            let root = span!("bench.root");
            (session, root)
        };
        let mut state = Some(open());
        let mut n = 0u64;
        h.bench("span_open_close_enabled", || {
            n += 1;
            if n.is_multiple_of(1 << 18) {
                let (session, root) = state.take().expect("live session");
                drop(root);
                let report = session.finish();
                assert_eq!(report.dropped, 0, "budget must outlast the recycle cadence");
                state = Some(open());
            }
            let mut s = span!("bench.span", payload = 42u64);
            s.record("exit_payload", 1.0);
        });
        h.bench("counter_enabled", || {
            trace::counter("bench.counter", 1);
        });
        // The histogram acceptance bound: recording into a live session
        // must cost no more than 2x a counter increment (both are one map
        // lookup under the session's lock; the histogram adds a bucket
        // scan).
        let mut v = 0u64;
        h.bench("histogram_enabled", || {
            v = (v + 37) % 520;
            trace::histogram("bench.hist_watts", v as f64);
        });
        if let Some((session, root)) = state.take() {
            drop(root);
            let _ = session.finish();
        }
        black_box(n);
    }

    // The contended case: 8 workers each recording 4096 nested spans
    // concurrently into one session, meeting on its lock at every event.
    {
        let mut session = Some(trace::session(1 << 20));
        let mut n = 0u64;
        h.bench("span_storm_8_threads", || {
            n += 1;
            if n.is_multiple_of(4) {
                let report = session.take().expect("live session").finish();
                assert_eq!(report.dropped, 0, "budget must outlast the recycle cadence");
                session = Some(trace::session(1 << 20));
            }
            let _: Vec<()> = vpp_substrate::par_map((0..8u64).collect(), |w| {
                let _root = span!("bench.worker", worker = w);
                for _ in 0..4096 {
                    let mut s = span!("bench.span", payload = 42u64);
                    s.record("exit_payload", 1.0);
                }
            });
        });
        let _ = session.take().map(trace::Session::finish);
        black_box(n);
    }

    // End-to-end: the fully instrumented executor with tracing disabled
    // ("before") against the same run inside a live session ("after").
    // The disabled number is the one that must match the seed baseline;
    // the ratio documents the cost of turning tracing on.
    let plan = small_workload();
    h.compare(
        "execute_small_job_untraced_vs_traced",
        || run(black_box(&plan), 1, None).runtime_s,
        || {
            let session = trace::session(1 << 18);
            let r = run(black_box(&plan), 1, None).runtime_s;
            let report = session.finish();
            assert_eq!(report.dropped, 0, "ring must hold a full small job");
            r
        },
    );

    // The acceptance workload: a full Si256_hse protocol measurement
    // (single repeat) with tracing disabled vs inside a session. The
    // "before" side is the production configuration — its number is the
    // one that must sit within noise of the pre-instrumentation baseline.
    let bench = benchmarks::si256_hse();
    let ctx = protocol::StudyContext::single();
    let cfg = protocol::RunConfig::nodes(1);
    h.compare(
        "measure_si256_untraced_vs_traced",
        || protocol::measure(black_box(&bench), &cfg, &ctx).runtime_s,
        || {
            let session = trace::session(1 << 20);
            let r = protocol::measure(black_box(&bench), &cfg, &ctx).runtime_s;
            let report = session.finish();
            assert_eq!(report.dropped, 0, "ring must hold a full protocol run");
            r
        },
    );

    h.finish();
}
