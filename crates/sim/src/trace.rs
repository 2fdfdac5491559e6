//! Piecewise-constant power traces.
//!
//! Every hardware model in this workspace produces a [`PowerTrace`]: a
//! right-open, gap-free sequence of `(duration, watts)` segments starting at
//! some absolute simulated time. The telemetry layer samples traces with
//! window averaging (which is how Cray PM counters report power), and the
//! statistics layer reduces the sampled series to the paper's metrics.
//!
//! Segments are stored as absolute end-times so lookups are a binary search
//! and long traces do not accumulate floating-point drift. Alongside the
//! end-times the trace maintains a **prefix-energy index** (`cum[i]` =
//! joules delivered through the end of segment `i`), which makes the hot
//! reductions cheap:
//!
//! * [`PowerTrace::energy`] — O(1);
//! * [`PowerTrace::energy_between`] / [`PowerTrace::mean_power`] —
//!   O(log n) prefix difference (previously an O(segments-in-window) scan
//!   behind a binary search);
//! * [`PowerTrace::window_means`] — one forward sweep, O(segments +
//!   windows), the primitive behind telemetry sampling and [`coarsen`];
//! * [`PowerTrace::sum`] — a k-way merge over per-trace cursors,
//!   O(B·log k) for B total breakpoints (previously O(B·k·log s): a sorted
//!   cut union with a per-cut, per-trace binary-search lookup).
//!
//! The superseded quadratic algorithms live on in [`reference`](mod@reference) as the
//! oracle for equivalence tests and the "before" side of the bench
//! harness's before/after comparisons.
//!
//! [`coarsen`]: PowerTrace::coarsen

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One piecewise-constant segment of a [`PowerTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Absolute start time, seconds.
    pub t0: f64,
    /// Absolute end time, seconds (`t1 > t0`).
    pub t1: f64,
    /// Constant power over `[t0, t1)`, watts.
    pub watts: f64,
}

impl Segment {
    /// Duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Energy in joules.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.duration() * self.watts
    }
}

/// A piecewise-constant power signal over `[start, end)`.
///
/// The trace is defined to be 0 W outside its domain, which makes summing
/// traces of different extents (e.g. GPU traces that finish at different
/// times within a node) well defined.
///
/// ```
/// use vpp_sim::PowerTrace;
///
/// let mut t = PowerTrace::new(0.0);
/// t.push(10.0, 300.0); // 10 s at 300 W
/// t.push(5.0, 100.0);
/// assert_eq!(t.energy(), 3500.0);
/// assert_eq!(t.power_at(12.0), 100.0);
/// assert_eq!(t.mean_power(5.0, 15.0), 200.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerTrace {
    start: f64,
    /// Absolute end time of segment `i`; strictly increasing.
    ends: Vec<f64>,
    /// Power of segment `i` in watts.
    watts: Vec<f64>,
    /// Prefix energy: joules delivered over `[start, ends[i])`.
    cum: Vec<f64>,
}

/// Two traces are equal when they describe the same signal; the prefix
/// index is derived state (its rounding can depend on construction order)
/// and is excluded.
impl PartialEq for PowerTrace {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.ends == other.ends && self.watts == other.watts
    }
}

/// Tolerance used when merging adjacent segments of equal power.
const MERGE_EPS: f64 = 1e-9;

/// How often the k-way merge in [`PowerTrace::sum`] recomputes the running
/// power sum exactly, bounding incremental float drift.
const SUM_RESYNC: usize = 512;

/// Min-heap key for the k-way merge: next breakpoint time per input trace.
#[derive(Debug, PartialEq)]
struct MergeEvent {
    t: f64,
    trace: usize,
}

impl Eq for MergeEvent {}

impl Ord for MergeEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.trace.cmp(&self.trace))
    }
}

impl PartialOrd for MergeEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PowerTrace {
    /// An empty trace beginning at `start` seconds.
    #[must_use]
    pub fn new(start: f64) -> Self {
        assert!(start.is_finite(), "trace start must be finite");
        Self {
            start,
            ends: Vec::new(),
            watts: Vec::new(),
            cum: Vec::new(),
        }
    }

    /// Build a trace from `(duration, watts)` pairs starting at `start`.
    #[must_use]
    pub fn from_segments(start: f64, segs: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut t = Self::new(start);
        for (dur, w) in segs {
            t.push(dur, w);
        }
        t
    }

    /// Append a segment of `dur` seconds at `watts` W. Zero-duration pushes
    /// are ignored; adjacent segments of (numerically) equal power merge.
    /// Amortised O(1), prefix index included.
    ///
    /// # Panics
    /// If `dur` is negative or not finite, or `watts` is not finite.
    pub fn push(&mut self, dur: f64, watts: f64) {
        assert!(dur.is_finite() && dur >= 0.0, "bad duration {dur}");
        assert!(watts.is_finite(), "bad power {watts}");
        if dur == 0.0 {
            return;
        }
        let end = self.end() + dur;
        if let (Some(last_end), Some(&last_w)) = (self.ends.last_mut(), self.watts.last()) {
            if (last_w - watts).abs() <= MERGE_EPS {
                *last_end = end;
                *self.cum.last_mut().expect("cum tracks ends") += dur * last_w;
                return;
            }
        }
        let prev_cum = self.cum.last().copied().unwrap_or(0.0);
        self.ends.push(end);
        self.watts.push(watts);
        self.cum.push(prev_cum + dur * watts);
    }

    /// Start of the trace's domain, seconds.
    #[must_use]
    pub fn start(&self) -> f64 {
        self.start
    }

    /// End of the trace's domain, seconds. Equals `start` when empty.
    #[must_use]
    pub fn end(&self) -> f64 {
        *self.ends.last().unwrap_or(&self.start)
    }

    /// Total duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end() - self.start
    }

    /// Number of stored segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the trace holds no segments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Instantaneous power at time `t`; 0 W outside the domain. O(log n).
    #[must_use]
    pub fn power_at(&self, t: f64) -> f64 {
        if t < self.start || t >= self.end() || self.is_empty() {
            return 0.0;
        }
        // First segment whose end exceeds t.
        let idx = self.ends.partition_point(|&e| e <= t);
        self.watts[idx]
    }

    /// Iterate over segments with absolute times.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.ends.len()).map(move |i| Segment {
            t0: if i == 0 { self.start } else { self.ends[i - 1] },
            t1: self.ends[i],
            watts: self.watts[i],
        })
    }

    /// Total energy in joules. O(1) via the prefix index.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// Energy delivered over `[start, t)` for `t` inside the domain.
    /// O(log n): prefix lookup plus one partial segment.
    fn energy_to(&self, t: f64) -> f64 {
        let idx = self.ends.partition_point(|&e| e <= t);
        if idx == self.ends.len() {
            return self.energy();
        }
        let seg_start = if idx == 0 { self.start } else { self.ends[idx - 1] };
        let prefix = if idx == 0 { 0.0 } else { self.cum[idx - 1] };
        prefix + (t - seg_start) * self.watts[idx]
    }

    /// Energy delivered within `[t0, t1)`, treating the trace as 0 W outside
    /// its domain. O(log n) — a prefix-index difference.
    #[must_use]
    pub fn energy_between(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 || self.is_empty() {
            return 0.0;
        }
        let lo = t0.max(self.start);
        let hi = t1.min(self.end());
        if hi <= lo {
            return 0.0;
        }
        (self.energy_to(hi) - self.energy_to(lo)).max(0.0)
    }

    /// Time-weighted mean power over the window `[t0, t1)` — the quantity a
    /// window-averaging power meter reports. Portions of the window outside
    /// the trace's domain count as 0 W.
    #[must_use]
    pub fn mean_power(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        self.energy_between(t0, t1) / (t1 - t0)
    }

    /// Mean power over each of `n` consecutive windows of `dt` seconds
    /// starting at `t0` (window `i` covers `[t0 + i·dt, t0 + (i+1)·dt)`,
    /// boundaries computed multiplicatively so long traces do not
    /// accumulate drift). Windows outside the domain average 0 W.
    ///
    /// One forward sweep over segments and windows: O(segments + windows).
    /// This is the telemetry sampler's inner loop.
    ///
    /// # Panics
    /// If `dt` is not positive and finite, or `t0` is not finite.
    #[must_use]
    pub fn window_means(&self, t0: f64, dt: f64, n: usize) -> Vec<f64> {
        assert!(dt > 0.0 && dt.is_finite(), "bad window {dt}");
        assert!(t0.is_finite(), "bad window start {t0}");
        let mut out = Vec::with_capacity(n);
        let end = self.end();
        // Segment cursor; advances monotonically across windows.
        let mut seg = self.ends.partition_point(|&e| e <= t0.max(self.start));
        let mut cursor = t0.max(self.start).min(end);
        let mut w_start = t0;
        for i in 0..n {
            let w_end = t0 + (i + 1) as f64 * dt;
            let lo = w_start.max(self.start).min(end);
            let hi = w_end.max(self.start).min(end);
            let mut acc = 0.0;
            if hi > lo {
                cursor = cursor.max(lo);
                while seg < self.ends.len() && self.ends[seg] <= hi {
                    acc += (self.ends[seg] - cursor) * self.watts[seg];
                    cursor = self.ends[seg];
                    seg += 1;
                }
                if seg < self.ends.len() && cursor < hi {
                    acc += (hi - cursor) * self.watts[seg];
                    cursor = hi;
                }
            }
            out.push(acc / dt);
            w_start = w_end;
        }
        out
    }

    /// Maximum segment power; `None` for empty traces.
    #[must_use]
    pub fn max_power(&self) -> Option<f64> {
        self.watts.iter().copied().reduce(f64::max)
    }

    /// Minimum segment power; `None` for empty traces.
    #[must_use]
    pub fn min_power(&self) -> Option<f64> {
        self.watts.iter().copied().reduce(f64::min)
    }

    /// Shift the whole trace by `dt` seconds (positive = later).
    pub fn shift(&mut self, dt: f64) {
        assert!(dt.is_finite());
        self.start += dt;
        for e in &mut self.ends {
            *e += dt;
        }
        // Durations (hence `cum`) are unchanged only up to rounding of the
        // shifted endpoints; rebuild to keep the index exact.
        self.rebuild_cum();
    }

    /// Multiply all powers by `k`.
    pub fn scale_power(&mut self, k: f64) {
        assert!(k.is_finite());
        for w in &mut self.watts {
            *w *= k;
        }
        self.rebuild_cum();
    }

    /// Add a constant offset (e.g. an idle floor) to every segment.
    pub fn add_constant(&mut self, w: f64) {
        assert!(w.is_finite());
        for x in &mut self.watts {
            *x += w;
        }
        self.rebuild_cum();
    }

    /// Recompute the prefix-energy index from segments. O(n).
    fn rebuild_cum(&mut self) {
        let mut acc = 0.0;
        let mut prev = self.start;
        for (i, (&e, &w)) in self.ends.iter().zip(&self.watts).enumerate() {
            acc += (e - prev) * w;
            self.cum[i] = acc;
            prev = e;
        }
    }

    /// Extract the sub-trace covering `[t0, t1)` ∩ domain.
    #[must_use]
    pub fn slice(&self, t0: f64, t1: f64) -> PowerTrace {
        let lo = t0.max(self.start);
        let hi = t1.min(self.end());
        let mut out = PowerTrace::new(lo.min(hi));
        if hi <= lo {
            return out;
        }
        let mut idx = self.ends.partition_point(|&e| e <= lo);
        let mut cursor = lo;
        while cursor < hi && idx < self.ends.len() {
            let seg_end = self.ends[idx].min(hi);
            out.push(seg_end - cursor, self.watts[idx]);
            cursor = seg_end;
            idx += 1;
        }
        out
    }

    /// Append another trace, closing any gap between `self.end()` and
    /// `other.start()` with 0 W. `other` must not start before `self.end()`
    /// by more than a rounding tolerance.
    pub fn append(&mut self, other: &PowerTrace) {
        let gap = other.start - self.end();
        assert!(
            gap >= -1e-9,
            "appended trace starts {}s before the current end",
            -gap
        );
        if gap > 1e-12 {
            self.push(gap, 0.0);
        }
        for seg in other.segments() {
            self.push(seg.duration(), seg.watts);
        }
    }

    /// Point-wise sum of several traces. The result spans the union of the
    /// inputs' domains; each input contributes 0 W outside its own domain.
    ///
    /// A k-way merge sweep: every input keeps a cursor, a min-heap yields
    /// the next breakpoint across all inputs, and the running power total
    /// is updated incrementally (with periodic exact resyncs to cap float
    /// drift). O(B·log k) for B total breakpoints over k traces — the
    /// superseded cut-union algorithm ([`reference::sum_cut_union`])
    /// re-evaluated every input at every cut for O(B·k·log s).
    #[must_use]
    pub fn sum(traces: &[&PowerTrace]) -> PowerTrace {
        let inputs: Vec<&PowerTrace> = traces.iter().copied().filter(|t| !t.is_empty()).collect();
        match inputs.len() {
            0 => return PowerTrace::new(0.0),
            1 => return inputs[0].clone(),
            _ => {}
        }
        let start = inputs.iter().map(|t| t.start).fold(f64::INFINITY, f64::min);

        // cursors[i] = number of breakpoints of trace i already consumed;
        // breakpoint 0 is the trace start, breakpoint j>0 is ends[j-1].
        let mut cursors = vec![0usize; inputs.len()];
        let mut cur_w = vec![0.0f64; inputs.len()];
        let mut heap: BinaryHeap<MergeEvent> = inputs
            .iter()
            .enumerate()
            .map(|(i, t)| MergeEvent { t: t.start, trace: i })
            .collect();

        let mut out = PowerTrace::new(start);
        let mut running = 0.0f64;
        let mut prev_t = start;
        let mut since_resync = 0usize;
        while let Some(first) = heap.pop() {
            let te = first.t;
            if te > prev_t {
                out.push(te - prev_t, running);
            }
            // Apply this breakpoint plus any others within the merge
            // tolerance (they would produce sub-epsilon segments).
            let mut pending = Some(first);
            while let Some(ev) = pending.take() {
                let i = ev.trace;
                let t = inputs[i];
                let c = cursors[i];
                let new_w = if c < t.len() { t.watts[c] } else { 0.0 };
                running += new_w - cur_w[i];
                cur_w[i] = new_w;
                cursors[i] = c + 1;
                if c < t.len() {
                    heap.push(MergeEvent { t: t.ends[c], trace: i });
                }
                since_resync += 1;
                if let Some(peek) = heap.peek() {
                    if peek.t <= te + MERGE_EPS {
                        pending = heap.pop();
                    }
                }
            }
            if since_resync >= SUM_RESYNC {
                running = cur_w.iter().sum();
                since_resync = 0;
            }
            prev_t = te;
        }
        out
    }

    /// Re-quantise onto windows of `dt` seconds, replacing each window with
    /// its mean power. Energy is conserved exactly (up to rounding); detail
    /// finer than `dt` is lost.
    ///
    /// One forward sweep shared with [`window_means`](Self::window_means):
    /// O(segments + windows). Window boundaries are `start + i·dt`
    /// (multiplicative), so long traces do not accumulate drift.
    ///
    /// # Panics
    /// If `dt` is not positive.
    #[must_use]
    pub fn coarsen(&self, dt: f64) -> PowerTrace {
        assert!(dt > 0.0 && dt.is_finite(), "bad window {dt}");
        let mut out = PowerTrace::new(self.start);
        if self.is_empty() {
            return out;
        }
        let end = self.end();
        let mut seg = 0usize;
        let mut cursor = self.start;
        let mut w_start = self.start;
        let mut i = 0usize;
        while w_start < end {
            let w_end = (self.start + (i + 1) as f64 * dt).min(end);
            let mut acc = 0.0;
            while seg < self.ends.len() && self.ends[seg] <= w_end {
                acc += (self.ends[seg] - cursor) * self.watts[seg];
                cursor = self.ends[seg];
                seg += 1;
            }
            if seg < self.ends.len() && cursor < w_end {
                acc += (w_end - cursor) * self.watts[seg];
                cursor = w_end;
            }
            out.push(w_end - w_start, acc / (w_end - w_start));
            w_start = w_end;
            i += 1;
        }
        out
    }

    /// Instantaneous point samples every `dt` seconds starting at
    /// `start + dt/2` (midpoint sampling). Used to emulate very fast polling.
    #[must_use]
    pub fn sample_instant(&self, dt: f64) -> Vec<f64> {
        assert!(dt > 0.0);
        let n = (self.duration() / dt).floor() as usize;
        (0..n)
            .map(|i| self.power_at(self.start + (i as f64 + 0.5) * dt))
            .collect()
    }
}

/// Superseded trace algorithms, kept as the oracle for equivalence tests
/// and the "before" side of the bench harness's before/after comparisons.
/// Do not call these from production paths.
pub mod reference {
    use super::{PowerTrace, MERGE_EPS};

    /// The original [`PowerTrace::sum`]: build the sorted union of all
    /// breakpoints, then evaluate every input at every interval midpoint.
    /// O(B·k·log s) for B cuts over k traces of ≤s segments.
    #[must_use]
    pub fn sum_cut_union(traces: &[&PowerTrace]) -> PowerTrace {
        let non_empty: Vec<&&PowerTrace> = traces.iter().filter(|t| !t.is_empty()).collect();
        if non_empty.is_empty() {
            return PowerTrace::new(0.0);
        }
        let start = non_empty
            .iter()
            .map(|t| t.start)
            .fold(f64::INFINITY, f64::min);
        let end = non_empty.iter().map(|t| t.end()).fold(start, f64::max);
        let mut cuts: Vec<f64> = Vec::with_capacity(non_empty.iter().map(|t| t.len()).sum());
        cuts.push(start);
        for t in &non_empty {
            cuts.push(t.start);
            cuts.extend_from_slice(&t.ends);
        }
        cuts.push(end);
        cuts.sort_by(f64::total_cmp);
        cuts.dedup_by(|a, b| (*a - *b).abs() <= MERGE_EPS);

        let mut out = PowerTrace::new(start);
        for pair in cuts.windows(2) {
            let (t0, t1) = (pair[0], pair[1]);
            if t1 - t0 <= 0.0 {
                continue;
            }
            let mid = 0.5 * (t0 + t1);
            let w: f64 = non_empty.iter().map(|t| t.power_at(mid)).sum();
            out.push(t1 - t0, w);
        }
        out
    }

    /// The original [`PowerTrace::energy_between`]: binary search to the
    /// window, then walk its segments. O(log n + segments-in-window).
    #[must_use]
    pub fn energy_between_scan(trace: &PowerTrace, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 || trace.is_empty() {
            return 0.0;
        }
        let lo = t0.max(trace.start);
        let hi = t1.min(trace.end());
        if hi <= lo {
            return 0.0;
        }
        let mut first = trace.ends.partition_point(|&e| e <= lo);
        let mut acc = 0.0;
        let mut cursor = lo;
        while cursor < hi && first < trace.ends.len() {
            let seg_end = trace.ends[first].min(hi);
            acc += (seg_end - cursor) * trace.watts[first];
            cursor = seg_end;
            first += 1;
        }
        acc
    }

    /// The original [`PowerTrace::coarsen`] algorithm: one independent
    /// `mean_power` query per window (binary search + segment walk each
    /// time) instead of a single shared sweep. Window boundaries are
    /// computed multiplicatively, matching the production path, so the two
    /// differ only in algorithm.
    #[must_use]
    pub fn coarsen_per_window(trace: &PowerTrace, dt: f64) -> PowerTrace {
        assert!(dt > 0.0 && dt.is_finite(), "bad window {dt}");
        let mut out = PowerTrace::new(trace.start);
        if trace.is_empty() {
            return out;
        }
        let mut t = trace.start;
        let end = trace.end();
        let mut i = 0usize;
        while t < end {
            let hi = (trace.start + (i + 1) as f64 * dt).min(end);
            let mean = energy_between_scan(trace, t, hi) / (hi - t);
            out.push(hi - t, mean);
            t = hi;
            i += 1;
        }
        out
    }

    /// The original telemetry sampling loop: accumulate `t += dt` and issue
    /// an independent windowed `mean_power` query per sample.
    #[must_use]
    pub fn window_means_per_query(trace: &PowerTrace, t0: f64, dt: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let hi = t0 + (i + 1) as f64 * dt;
                energy_between_scan(trace, hi - dt, hi) / dt
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_trace_basics() {
        let t = PowerTrace::new(5.0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.start(), 5.0);
        assert_eq!(t.end(), 5.0);
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.energy(), 0.0);
        assert_eq!(t.power_at(5.0), 0.0);
        assert!(t.max_power().is_none());
    }

    #[test]
    fn push_and_lookup() {
        let t = PowerTrace::from_segments(0.0, [(1.0, 100.0), (2.0, 50.0)]);
        assert_eq!(t.len(), 2);
        assert!(close(t.duration(), 3.0));
        assert_eq!(t.power_at(0.5), 100.0);
        assert_eq!(t.power_at(1.0), 50.0);
        assert_eq!(t.power_at(2.999), 50.0);
        assert_eq!(t.power_at(3.0), 0.0, "right-open domain");
        assert_eq!(t.power_at(-0.1), 0.0);
    }

    #[test]
    fn adjacent_equal_segments_merge() {
        let t = PowerTrace::from_segments(0.0, [(1.0, 100.0), (1.0, 100.0), (1.0, 90.0)]);
        assert_eq!(t.len(), 2);
        assert!(close(t.duration(), 3.0));
        assert!(close(t.energy(), 290.0), "prefix index follows merges");
    }

    #[test]
    fn zero_duration_pushes_ignored() {
        let t = PowerTrace::from_segments(0.0, [(0.0, 42.0), (1.0, 10.0), (0.0, 7.0)]);
        assert_eq!(t.len(), 1);
        assert!(close(t.energy(), 10.0));
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn negative_duration_panics() {
        PowerTrace::new(0.0).push(-1.0, 10.0);
    }

    #[test]
    fn energy_and_mean_power() {
        let t = PowerTrace::from_segments(0.0, [(2.0, 100.0), (2.0, 300.0)]);
        assert!(close(t.energy(), 800.0));
        assert!(close(t.mean_power(0.0, 4.0), 200.0));
        assert!(close(t.mean_power(1.0, 3.0), 200.0));
        assert!(close(t.mean_power(3.0, 5.0), 150.0), "half window is off-domain");
        assert_eq!(t.mean_power(2.0, 2.0), 0.0);
    }

    #[test]
    fn energy_between_partial_segments() {
        let t = PowerTrace::from_segments(10.0, [(4.0, 50.0)]);
        assert!(close(t.energy_between(11.0, 13.0), 100.0));
        assert!(close(t.energy_between(0.0, 100.0), 200.0));
        assert_eq!(t.energy_between(20.0, 30.0), 0.0);
        assert_eq!(t.energy_between(13.0, 11.0), 0.0, "inverted window");
    }

    #[test]
    fn energy_between_matches_reference_scan() {
        let mut rng = crate::Rng::new(42);
        let t = PowerTrace::from_segments(
            3.0,
            (0..500).map(|_| (rng.uniform(0.01, 2.0), rng.uniform(0.0, 2000.0))),
        );
        for _ in 0..200 {
            let a = rng.uniform(0.0, t.end() + 5.0);
            let b = rng.uniform(0.0, t.end() + 5.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let fast = t.energy_between(lo, hi);
            let slow = reference::energy_between_scan(&t, lo, hi);
            assert!(
                (fast - slow).abs() <= 1e-9 * (1.0 + slow.abs()),
                "window [{lo}, {hi}): prefix {fast} vs scan {slow}"
            );
        }
    }

    #[test]
    fn shift_preserves_energy_and_shape() {
        let mut t = PowerTrace::from_segments(0.0, [(1.0, 10.0), (1.0, 20.0)]);
        let e = t.energy();
        t.shift(100.0);
        assert_eq!(t.start(), 100.0);
        assert!(close(t.energy(), e));
        assert_eq!(t.power_at(100.5), 10.0);
    }

    #[test]
    fn scale_and_offset() {
        let mut t = PowerTrace::from_segments(0.0, [(1.0, 10.0)]);
        t.scale_power(3.0);
        t.add_constant(5.0);
        assert_eq!(t.power_at(0.5), 35.0);
        assert!(close(t.energy(), 35.0), "prefix index tracks mutation");
    }

    #[test]
    fn slice_matches_lookup() {
        let t = PowerTrace::from_segments(0.0, [(1.0, 10.0), (1.0, 20.0), (1.0, 30.0)]);
        let s = t.slice(0.5, 2.5);
        assert!(close(s.start(), 0.5));
        assert!(close(s.end(), 2.5));
        assert_eq!(s.power_at(0.75), 10.0);
        assert_eq!(s.power_at(1.5), 20.0);
        assert_eq!(s.power_at(2.25), 30.0);
        assert!(close(s.energy(), t.energy_between(0.5, 2.5)));
    }

    #[test]
    fn slice_outside_domain_is_empty() {
        let t = PowerTrace::from_segments(0.0, [(1.0, 10.0)]);
        assert!(t.slice(5.0, 6.0).is_empty());
    }

    #[test]
    fn append_with_gap_inserts_zero_power() {
        let mut a = PowerTrace::from_segments(0.0, [(1.0, 10.0)]);
        let b = PowerTrace::from_segments(2.0, [(1.0, 20.0)]);
        a.append(&b);
        assert!(close(a.end(), 3.0));
        assert_eq!(a.power_at(1.5), 0.0);
        assert_eq!(a.power_at(2.5), 20.0);
    }

    #[test]
    #[should_panic(expected = "before the current end")]
    fn append_overlapping_panics() {
        let mut a = PowerTrace::from_segments(0.0, [(2.0, 10.0)]);
        let b = PowerTrace::from_segments(1.0, [(1.0, 20.0)]);
        a.append(&b);
    }

    #[test]
    fn sum_of_offset_traces() {
        let a = PowerTrace::from_segments(0.0, [(2.0, 100.0)]);
        let b = PowerTrace::from_segments(1.0, [(2.0, 50.0)]);
        let s = PowerTrace::sum(&[&a, &b]);
        assert!(close(s.start(), 0.0));
        assert!(close(s.end(), 3.0));
        assert_eq!(s.power_at(0.5), 100.0);
        assert_eq!(s.power_at(1.5), 150.0);
        assert_eq!(s.power_at(2.5), 50.0);
        assert!(close(s.energy(), a.energy() + b.energy()));
    }

    #[test]
    fn sum_ignores_empty_traces() {
        let a = PowerTrace::from_segments(0.0, [(1.0, 10.0)]);
        let e = PowerTrace::new(42.0);
        let s = PowerTrace::sum(&[&a, &e]);
        assert!(close(s.energy(), 10.0));
        assert!(close(s.start(), 0.0));
    }

    #[test]
    fn sum_with_interior_gaps_matches_cut_union() {
        // a: [0, 2), gap, b: [5, 6) — the merged trace must carry a 0 W
        // bridge over [2, 5) exactly like the reference.
        let a = PowerTrace::from_segments(0.0, [(2.0, 100.0)]);
        let b = PowerTrace::from_segments(5.0, [(1.0, 40.0)]);
        let fast = PowerTrace::sum(&[&a, &b]);
        let slow = reference::sum_cut_union(&[&a, &b]);
        assert_eq!(fast, slow);
        assert_eq!(fast.power_at(3.0), 0.0);
        assert!(close(fast.end(), 6.0));
    }

    #[test]
    fn sum_of_many_random_traces_matches_cut_union() {
        let mut rng = crate::Rng::new(9);
        let traces: Vec<PowerTrace> = (0..16)
            .map(|_| {
                let start = rng.uniform(0.0, 10.0);
                PowerTrace::from_segments(
                    start,
                    (0..rng.index(60) + 1)
                        .map(|_| (rng.uniform(0.01, 3.0), rng.uniform(0.0, 2500.0)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let refs: Vec<&PowerTrace> = traces.iter().collect();
        let fast = PowerTrace::sum(&refs);
        let slow = reference::sum_cut_union(&refs);
        assert!(close(fast.start(), slow.start()));
        assert!(close(fast.end(), slow.end()));
        assert!(close(fast.energy(), slow.energy()));
        // Point-wise agreement at off-breakpoint probes.
        for _ in 0..500 {
            let t = rng.uniform(fast.start(), fast.end());
            let (pf, ps) = (fast.power_at(t), slow.power_at(t));
            assert!(
                (pf - ps).abs() <= 1e-6 * (1.0 + ps.abs()),
                "power_at({t}): merge {pf} vs cut-union {ps}"
            );
        }
    }

    #[test]
    fn sample_instant_counts_and_values() {
        let t = PowerTrace::from_segments(0.0, [(1.0, 10.0), (1.0, 20.0)]);
        let s = t.sample_instant(0.5);
        assert_eq!(s, vec![10.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn window_means_match_per_query_reference() {
        let mut rng = crate::Rng::new(33);
        let t = PowerTrace::from_segments(
            2.5,
            (0..800).map(|_| (rng.uniform(0.01, 1.0), rng.uniform(0.0, 2000.0))),
        );
        let (t0, dt, n) = (t.start(), 0.7, ((t.duration() / 0.7) as usize) + 3);
        let fast = t.window_means(t0, dt, n);
        let slow = reference::window_means_per_query(&t, t0, dt, n);
        assert_eq!(fast.len(), slow.len());
        for (i, (f, s)) in fast.iter().zip(&slow).enumerate() {
            assert!(
                (f - s).abs() <= 1e-9 * (1.0 + s.abs()),
                "window {i}: sweep {f} vs per-query {s}"
            );
        }
    }

    #[test]
    fn window_means_outside_domain_are_zero() {
        let t = PowerTrace::from_segments(10.0, [(2.0, 100.0)]);
        let means = t.window_means(0.0, 1.0, 16);
        assert_eq!(means[0], 0.0, "before the domain");
        assert!(close(means[10], 100.0));
        assert!(close(means[11], 100.0));
        assert_eq!(means[14], 0.0, "after the domain");
    }

    #[test]
    fn coarsen_conserves_energy_and_bounds_segments() {
        let mut t = PowerTrace::new(0.0);
        for i in 0..10_000 {
            t.push(0.01, if i % 2 == 0 { 100.0 } else { 350.0 });
        }
        let c = t.coarsen(2.0);
        assert!(c.len() <= (t.duration() / 2.0).ceil() as usize);
        assert!((c.energy() - t.energy()).abs() < 1e-6 * t.energy());
        assert!((c.duration() - t.duration()).abs() < 1e-9);
        // Fast alternation collapses to the mean level.
        assert!((c.power_at(50.0) - 225.0).abs() < 1.0);
    }

    #[test]
    fn coarsen_matches_per_window_reference() {
        let mut rng = crate::Rng::new(77);
        let t = PowerTrace::from_segments(
            1.0,
            (0..600).map(|_| (rng.uniform(0.01, 2.0), rng.uniform(0.0, 2000.0))),
        );
        for dt in [0.05, 0.3, 2.0, 1000.0] {
            let fast = t.coarsen(dt);
            let slow = reference::coarsen_per_window(&t, dt);
            assert_eq!(fast.len(), slow.len(), "dt={dt}");
            assert!(close(fast.energy(), slow.energy()), "dt={dt}");
            for (f, s) in fast.segments().zip(slow.segments()) {
                assert!((f.watts - s.watts).abs() <= 1e-9 * (1.0 + s.watts.abs()));
                assert!((f.t1 - s.t1).abs() <= 1e-6, "dt={dt}");
            }
        }
    }

    #[test]
    fn coarsen_of_empty_trace_is_empty() {
        assert!(PowerTrace::new(3.0).coarsen(1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "bad window")]
    fn coarsen_rejects_zero_window() {
        let _ = PowerTrace::from_segments(0.0, [(1.0, 1.0)]).coarsen(0.0);
    }

    #[test]
    fn long_trace_no_drift() {
        let mut t = PowerTrace::new(0.0);
        for _ in 0..100_000 {
            t.push(0.01, 123.0);
            t.push(0.01, 7.0);
        }
        assert!((t.duration() - 2000.0).abs() < 1e-6);
        assert!((t.energy() - (123.0 + 7.0) * 1000.0).abs() < 1e-3);
    }
}
