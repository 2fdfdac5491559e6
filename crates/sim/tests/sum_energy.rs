//! `PowerTrace::sum_energy` against the trace it stands in for: the energy
//! fold must equal `PowerTrace::sum(..).energy()` bit for bit, because the
//! executor's node energies (and every digest built on them) come from it.
//! Beneath it, the tally itself (`EnergyFold`) must track a pushed trace's
//! end and energy bit for bit, because the executor's runtime pass records
//! phase energies from it.
//!
//! The generators aim at the places where the fold could drift from the
//! sum: offset starts and gaps between domains, breakpoints and powers
//! within the 1e-9 merge tolerance of each other, sweeps longer than the
//! merge's 512-breakpoint resync cadence, and the 0- and 1-input
//! shortcuts.

use vpp_sim::{EnergyFold, PowerTrace, Rng};
use vpp_substrate::prop::usize_in;
use vpp_substrate::properties;

/// `PowerTrace`'s merge tolerance (`MERGE_EPS`), in seconds and in watts.
const EPS: f64 = 1e-9;

fn assert_same_bits(traces: &[PowerTrace]) {
    let refs: Vec<&PowerTrace> = traces.iter().collect();
    let want = PowerTrace::sum(&refs).energy();
    let got = PowerTrace::sum_energy(&refs);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "fold {got} J vs sum {want} J over {} inputs",
        traces.len()
    );
}

/// A power level: a 0 W gap, a value within the merge tolerance of `prev`,
/// or anything up to a node's 2.5 kW.
fn watts(rng: &mut Rng, prev: f64) -> f64 {
    match rng.index(10) {
        0 => 0.0,
        1 => (prev + rng.uniform(-0.5 * EPS, 0.5 * EPS)).max(0.0),
        _ => rng.uniform(0.0, 2500.0),
    }
}

/// A duration: mostly 10 ms to 3 s, sometimes short enough that the next
/// breakpoint lands within the merge tolerance of this one.
fn duration(rng: &mut Rng) -> f64 {
    if rng.bool(0.1) {
        rng.uniform(0.1 * EPS, 0.9 * EPS)
    } else {
        rng.uniform(0.01, 3.0)
    }
}

fn random_trace(rng: &mut Rng, start: f64, segments: usize) -> PowerTrace {
    let mut t = PowerTrace::new(start);
    let mut w = rng.uniform(0.0, 2500.0);
    for _ in 0..segments {
        w = watts(rng, w);
        t.push(duration(rng), w);
    }
    t
}

/// Push `pushes` random segments, some of zero duration, into a tally and
/// a trace side by side, checking the tally after every push; returns the
/// trace.
fn push_both(rng: &mut Rng, pushes: usize) -> PowerTrace {
    let start = rng.uniform(-10.0, 50.0);
    let (mut fold, mut trace) = (EnergyFold::new(start), PowerTrace::new(start));
    let mut w = rng.uniform(0.0, 2500.0);
    for i in 0..pushes {
        w = watts(rng, w);
        let dur = if rng.bool(0.1) { 0.0 } else { duration(rng) };
        fold.push(dur, w);
        trace.push(dur, w);
        assert_eq!(fold.end().to_bits(), trace.end().to_bits(), "end after push {i}");
        assert_eq!(
            fold.energy().to_bits(),
            trace.energy().to_bits(),
            "energy after push {i}"
        );
    }
    trace
}

properties! {
    fn tally_tracks_the_pushed_trace(rng) {
        let pushes = usize_in(rng, 0, 200);
        push_both(rng, pushes);
    }

    fn tally_tracks_the_pushed_trace_past_512_segments(rng) {
        let pushes = usize_in(rng, 800, 1600);
        let trace = push_both(rng, pushes);
        assert!(trace.len() > 512, "{} segments", trace.len());
    }

    fn fold_matches_sum_on_offset_and_gapped_traces(rng) {
        // Starts spread over 40 s, so some domains overlap and some leave
        // a gap between them; a shared start forces tied breakpoints.
        let shared = rng.uniform(0.0, 10.0);
        let traces: Vec<PowerTrace> = (0..usize_in(rng, 0, 7))
            .map(|_| {
                let start = if rng.bool(0.3) { shared } else { rng.uniform(0.0, 40.0) };
                let segments = if rng.bool(0.15) { 0 } else { usize_in(rng, 1, 120) };
                random_trace(rng, start, segments)
            })
            .collect();
        assert_same_bits(&traces);
    }

    fn fold_matches_sum_when_abutting_traces_meet_within_merge_eps(rng) {
        // A relay: each trace starts where the last one ended, at a power
        // within the tolerance of the last one's final power, so the sum
        // emits adjacent segments that `push` merges. A background trace
        // keeps at least two inputs live throughout.
        let mut traces = Vec::new();
        let (mut t, mut w) = (rng.uniform(0.0, 5.0), rng.uniform(100.0, 2000.0));
        for _ in 0..usize_in(rng, 2, 6) {
            let mut leg = PowerTrace::new(t);
            leg.push(rng.uniform(0.5, 2.0), w + rng.uniform(-0.5 * EPS, 0.5 * EPS));
            for _ in 0..usize_in(rng, 0, 4) {
                w = rng.uniform(100.0, 2000.0);
                leg.push(rng.uniform(0.1, 2.0), w);
            }
            t = leg.end();
            traces.push(leg);
        }
        let segments = usize_in(rng, 1, 4);
        traces.push(random_trace(rng, 0.0, segments));
        let refs: Vec<&PowerTrace> = traces.iter().collect();
        let inputs: usize = traces.iter().map(PowerTrace::len).sum();
        assert!(PowerTrace::sum(&refs).len() < inputs + traces.len(), "no merge happened");
        assert_same_bits(&traces);
    }

    fn fold_matches_sum_across_resyncs(rng) {
        // Well past the merge's 512-breakpoint resync cadence, where the
        // running power is recomputed from the cursors.
        let traces: Vec<PowerTrace> = (0..usize_in(rng, 4, 8))
            .map(|_| {
                let (start, segments) = (rng.uniform(0.0, 2.0), usize_in(rng, 200, 400));
                random_trace(rng, start, segments)
            })
            .collect();
        let breakpoints: usize = traces.iter().map(|t| t.len() + 1).sum();
        assert!(breakpoints > 512, "{breakpoints} breakpoints");
        assert_same_bits(&traces);
    }
}

#[test]
fn fold_of_no_inputs_is_zero_like_the_empty_sum() {
    assert_same_bits(&[]);
    assert_same_bits(&[PowerTrace::new(3.0), PowerTrace::new(7.0)]);
    assert_eq!(PowerTrace::sum_energy(&[]).to_bits(), 0.0f64.to_bits());
}

#[test]
fn fold_of_one_input_is_that_traces_own_energy() {
    let mut rng = Rng::new(17);
    let one = random_trace(&mut rng, 2.5, 300);
    assert_same_bits(&[PowerTrace::new(0.0), one.clone(), PowerTrace::new(9.0)]);
    assert_eq!(
        PowerTrace::sum_energy(&[&one]).to_bits(),
        one.energy().to_bits()
    );
}
