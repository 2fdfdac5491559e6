//! Warmup/iterations/median benchmark harness with JSON reporting, and the
//! trace baselines stored beside it.
//!
//! The in-tree replacement for criterion: each `[[bench]]` target builds a
//! [`Harness`], registers functions with [`Harness::bench`] (single timing)
//! or [`Harness::compare`] (before/after pair with speedup), and calls
//! [`Harness::finish`], which prints a human-readable table and merges the
//! group's results into a machine-readable `BENCH_results.json`.
//!
//! The same report holds the flight-recorder baselines under its
//! [`BASELINE_GROUP`] group. [`TraceBaseline::capture`] is the one way to
//! turn a traced run into a baseline, [`store_baseline`] (behind `vpp trace
//! accept`) the one writer, and [`load_baseline`] the reader behind `vpp
//! trace diff`. No bench writes that group.
//!
//! Methodology: each function is warmed up for a fixed wall budget, then
//! timed in adaptive batches (batch size grows until one batch costs at
//! least ~100 µs, amortising `Instant` overhead for nanosecond-scale
//! bodies); the reported figure is the **median** per-call time over all
//! batches, which is robust to scheduler noise in shared CI. Before/after
//! pairs registered via [`Harness::compare`] are measured in alternating
//! A/B windows so slow machine drift (thermal throttling, a neighbour
//! starting up) cancels between the legs instead of biasing one of them,
//! and the residual first-half/second-half shift is reported as a drift
//! bound next to each speedup.
//!
//! Environment knobs:
//! * `VPP_BENCH_OUT` — path of the JSON report (default
//!   `BENCH_results.json` in the current directory).
//! * `VPP_BENCH_SMOKE` — when set, shrink warmup/measure budgets ~20x so a
//!   full bench binary completes in seconds (used by `scripts/verify.sh`).

use crate::json::{self, Value};
use crate::pool;
use crate::trace::{self, TraceAggregate};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed entry.
#[derive(Debug, Clone)]
pub struct Entry {
    pub name: String,
    /// Median per-call time, nanoseconds.
    pub median_ns: f64,
    /// Total calls measured (across all batches).
    pub calls: u64,
}

/// A per-benchmark flight-recorder baseline: the whole-run trace aggregate
/// (per-phase wall/sim/energy totals plus counters) and one aggregate per
/// repeat subtree, so a later `vpp trace diff` can bootstrap a paired CI
/// over repeats instead of comparing two opaque top-line numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBaseline {
    /// Whole-report aggregate (includes session counters).
    pub aggregate: TraceAggregate,
    /// Per-repeat subtree aggregates, ordered by the repeat's `rep` field.
    pub samples: Vec<TraceAggregate>,
    /// Per-span-name relative noise floors (fraction, e.g. `0.05` = ±5 %)
    /// blessed via `vpp trace accept --tolerance`. Trace-diff uses the
    /// override instead of its global floor for that span's continuous
    /// metrics — a deliberate, persisted allowance for a phase that is
    /// expected to drift.
    pub tolerances: BTreeMap<String, f64>,
}

/// Report group (`BENCH_results.json`) holding the stored baselines.
pub const BASELINE_GROUP: &str = "trace_baselines";

/// Event budget of a [`TraceBaseline::capture`] session.
const CAPTURE_CAPACITY: usize = 1 << 23;

impl TraceBaseline {
    /// Run `body` under a fresh trace session and roll the report into a
    /// baseline: the whole-run aggregate plus one sample per `sample_span`
    /// subtree (e.g. `"protocol.repeat"`), ordered by that span's `rep`
    /// field. Tolerances start empty.
    ///
    /// `body` runs on the calling thread under [`pool::serial`], so any
    /// [`crate::par_map`] inside it runs inline: every span nests under its
    /// sample, and the totals add up in one order. A re-run therefore
    /// reproduces a stored baseline in every field but `wall_ns`.
    ///
    /// # Panics
    /// If the session drops an event: a truncated baseline would bias
    /// every later comparison.
    #[must_use]
    pub fn capture(sample_span: &str, body: impl FnOnce()) -> TraceBaseline {
        let session = trace::session(CAPTURE_CAPACITY);
        pool::serial(body);
        let report = session.finish();
        assert_eq!(
            report.dropped, 0,
            "baseline capture overflowed its {CAPTURE_CAPACITY}-event budget"
        );
        TraceBaseline {
            aggregate: report.aggregate(),
            samples: report.aggregates_under(sample_span),
            tolerances: BTreeMap::new(),
        }
    }

    /// Serialise for the `baselines` member of [`BASELINE_GROUP`].
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = Value::Obj(vec![
            ("aggregate".into(), self.aggregate.to_json()),
            (
                "samples".into(),
                Value::Arr(self.samples.iter().map(TraceAggregate::to_json).collect()),
            ),
        ]);
        if !self.tolerances.is_empty() {
            obj.set(
                "tolerances",
                Value::Obj(
                    self.tolerances
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            );
        }
        obj
    }

    /// Parse a baseline previously written by [`TraceBaseline::to_json`].
    /// The `tolerances` member is optional, so baselines stored before it
    /// existed still load.
    ///
    /// # Errors
    /// Describes the first missing or mistyped member.
    pub fn from_json(v: &Value) -> Result<TraceBaseline, String> {
        let aggregate = TraceAggregate::from_json(
            v.get("aggregate").ok_or("baseline: missing 'aggregate'")?,
        )?;
        let samples = v
            .get("samples")
            .and_then(Value::as_arr)
            .ok_or("baseline: missing 'samples' array")?
            .iter()
            .map(TraceAggregate::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut tolerances = BTreeMap::new();
        if let Some(Value::Obj(members)) = v.get("tolerances") {
            for (k, t) in members {
                let n = t
                    .as_f64()
                    .ok_or_else(|| format!("baseline tolerance '{k}': not a number"))?;
                tolerances.insert(k.clone(), n);
            }
        }
        Ok(TraceBaseline {
            aggregate,
            samples,
            tolerances,
        })
    }
}

/// Load the [`TraceBaseline`] stored under `name` in the bench report at
/// `path`.
///
/// # Errors
/// If the file is missing/unparseable or holds no baseline for `name`.
pub fn load_baseline(path: &str, name: &str) -> Result<TraceBaseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let entry = report
        .get("groups")
        .and_then(|g| g.get(BASELINE_GROUP))
        .and_then(|g| g.get("baselines"))
        .and_then(|b| b.get(name))
        .ok_or_else(|| {
            format!("{path}: no baseline for '{name}' — bless one with `vpp trace accept {name}`")
        })?;
    TraceBaseline::from_json(entry)
}

/// Write (or overwrite) the baseline stored under `name`, creating the
/// file, [`BASELINE_GROUP`] and its `baselines` member as needed and
/// leaving every other member as it was — the in-place blessing behind
/// `vpp trace accept`.
///
/// # Errors
/// If an existing file is unreadable/invalid JSON or the write fails.
pub fn store_baseline(path: &str, name: &str, baseline: &TraceBaseline) -> Result<(), String> {
    update_report(path, |groups| {
        let baselines = object_member(groups, BASELINE_GROUP)
            .and_then(|group| object_member(group, "baselines"))
            .ok_or_else(|| format!("{path}: '{BASELINE_GROUP}.baselines' is not an object"))?;
        baselines.set(name, baseline.to_json());
        Ok(())
    })
}

/// The one read-modify-write of a bench report, shared by
/// [`Harness::finish`] and [`store_baseline`]: read the report at `path`
/// (a fresh one when the file does not exist), let `edit` change its
/// `groups` object, and write it back.
fn update_report(
    path: &str,
    edit: impl FnOnce(&mut Value) -> Result<(), String>,
) -> Result<(), String> {
    let mut report = match std::fs::read_to_string(path) {
        Ok(text) => {
            json::parse(&text).map_err(|e| format!("existing {path} is not valid JSON: {e}"))?
        }
        Err(_) => Value::Obj(vec![("schema".into(), Value::Str("vpp-bench/1".into()))]),
    };
    let groups = object_member(&mut report, "groups")
        .ok_or_else(|| format!("{path}: no 'groups' object"))?;
    edit(groups)?;
    std::fs::write(path, report.pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The member `key` of the object `obj`, inserted as `{}` when absent;
/// `None` when `obj` or the member is not an object.
fn object_member<'a>(obj: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    let Value::Obj(members) = obj else {
        return None;
    };
    if !members.iter().any(|(k, _)| k == key) {
        members.push((key.to_string(), Value::Obj(Vec::new())));
    }
    members
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| matches!(v, Value::Obj(_)))
}

/// One before/after comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    pub name: String,
    pub before_ns: f64,
    pub after_ns: f64,
    /// `before / after` — >1 means the new path is faster.
    pub speedup: f64,
    /// Machine-drift bound: the worse of the two legs' relative shift
    /// between the first and second half of its interleaved measurement
    /// windows (fraction of the leg median). A speedup is only as
    /// trustworthy as this is small — a 1.3x on a machine drifting ±40 %
    /// is noise, the same 1.3x at ±2 % is real.
    pub drift: f64,
}

/// A named benchmark group being recorded.
pub struct Harness {
    group: String,
    warmup: Duration,
    measure: Duration,
    entries: Vec<Entry>,
    comparisons: Vec<Comparison>,
}

impl Harness {
    /// Start a group, reading budgets from the environment.
    #[must_use]
    pub fn new(group: &str) -> Self {
        let smoke = std::env::var_os("VPP_BENCH_SMOKE").is_some();
        let (warmup_ms, measure_ms) = if smoke { (15, 60) } else { (300, 1200) };
        eprintln!(
            "bench group '{group}' ({} mode: {warmup_ms} ms warmup, {measure_ms} ms measure)",
            if smoke { "smoke" } else { "full" }
        );
        Self {
            group: group.to_string(),
            warmup: Duration::from_millis(warmup_ms),
            measure: Duration::from_millis(measure_ms),
            entries: Vec::new(),
            comparisons: Vec::new(),
        }
    }

    /// Time one function and record it.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, f: F) {
        let (median_ns, calls) = self.time(f);
        eprintln!("  {name:<44} {:>12}", fmt_ns(median_ns));
        self.entries.push(Entry {
            name: name.to_string(),
            median_ns,
            calls,
        });
    }

    /// Time a before/after pair and record the speedup.
    ///
    /// The two legs are **interleaved**: after a per-leg warmup, the
    /// measurement budget is split into `COMPARE_WINDOWS` alternating
    /// A/B windows (A B A B …) instead of timing all of `before` and then
    /// all of `after`. A frequency ramp, thermal throttle or noisy
    /// neighbour mid-run now hits both legs roughly equally rather than
    /// silently inflating whichever leg ran second. Each leg's figure is
    /// the median of its per-window medians, and the residual
    /// first-half/second-half shift is reported as [`Comparison::drift`]
    /// next to the speedup.
    pub fn compare<RB, RA>(
        &mut self,
        name: &str,
        mut before: impl FnMut() -> RB,
        mut after: impl FnMut() -> RA,
    ) {
        let before_batch = self.warm(&mut before);
        let after_batch = self.warm(&mut after);
        let window = self.measure / (2 * COMPARE_WINDOWS as u32);
        let mut before_windows = Vec::with_capacity(COMPARE_WINDOWS);
        let mut after_windows = Vec::with_capacity(COMPARE_WINDOWS);
        for _ in 0..COMPARE_WINDOWS {
            before_windows.push(measure_window(&mut before, before_batch, window));
            after_windows.push(measure_window(&mut after, after_batch, window));
        }
        let before_ns = median(before_windows.clone());
        let after_ns = median(after_windows.clone());
        let drift = half_drift(&before_windows).max(half_drift(&after_windows));
        let speedup = before_ns / after_ns;
        eprintln!(
            "  {name:<44} {:>12} -> {:>12}  ({speedup:.1}x, drift ±{:.1}%)",
            fmt_ns(before_ns),
            fmt_ns(after_ns),
            drift * 100.0,
        );
        self.comparisons.push(Comparison {
            name: name.to_string(),
            before_ns,
            after_ns,
            speedup,
            drift,
        });
    }

    /// Warm one function for the harness's warmup budget and return the
    /// batch size to amortise `Instant` overhead (grown until one batch
    /// costs at least ~100 µs).
    fn warm<R, F: FnMut() -> R>(&self, f: &mut F) -> u64 {
        let mut batch: u64 = 1;
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warmup {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            if t.elapsed() < Duration::from_micros(100) && batch < 1 << 24 {
                batch *= 2;
            }
        }
        batch
    }

    /// Median per-call nanoseconds and total call count.
    fn time<R, F: FnMut() -> R>(&self, mut f: F) -> (f64, u64) {
        // Warmup, establishing an initial batch size along the way.
        let batch = self.warm(&mut f);
        // Measure: per-batch mean per-call times; report their median.
        let mut per_call: Vec<f64> = Vec::new();
        let mut calls = 0u64;
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || per_call.len() < 5 {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
            calls += batch;
            if per_call.len() > 10_000 {
                break; // pathological: body faster than the budget resolution
            }
        }
        per_call.sort_by(f64::total_cmp);
        (per_call[per_call.len() / 2], calls)
    }

    /// Print the group summary and merge it into the JSON report,
    /// replacing this group's earlier results and keeping every other
    /// group.
    ///
    /// # Panics
    /// If the report file exists but is unreadable or not valid JSON.
    pub fn finish(self) {
        let path = std::env::var("VPP_BENCH_OUT")
            .unwrap_or_else(|_| "BENCH_results.json".to_string());
        let entries = Value::Arr(
            self.entries
                .iter()
                .map(|e| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(e.name.clone())),
                        ("median_ns".into(), Value::Num(e.median_ns)),
                        ("calls".into(), Value::Num(e.calls as f64)),
                    ])
                })
                .collect(),
        );
        let comparisons = Value::Arr(
            self.comparisons
                .iter()
                .map(|c| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(c.name.clone())),
                        ("before_ns".into(), Value::Num(c.before_ns)),
                        ("after_ns".into(), Value::Num(c.after_ns)),
                        ("speedup".into(), Value::Num(c.speedup)),
                        ("drift".into(), Value::Num(c.drift)),
                    ])
                })
                .collect(),
        );
        let group = Value::Obj(vec![
            ("entries".into(), entries),
            ("comparisons".into(), comparisons),
        ]);
        update_report(&path, |groups| {
            groups.set(&self.group, group);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
        eprintln!("bench group '{}' written to {path}", self.group);
    }
}

/// Alternating measurement windows per leg in [`Harness::compare`]. Even,
/// so the first-half/second-half drift split is balanced.
const COMPARE_WINDOWS: usize = 8;

/// Run batches of `f` until `budget` elapses (at least one) and return the
/// median per-call nanoseconds observed inside this window.
fn measure_window<R, F: FnMut() -> R>(f: &mut F, batch: u64, budget: Duration) -> f64 {
    let mut per_call: Vec<f64> = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
        if start.elapsed() >= budget || per_call.len() > 2_000 {
            break;
        }
    }
    median(per_call)
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Relative shift between the first and second half of a leg's window
/// medians, as a fraction of the leg's overall median: the residual
/// machine drift the interleaving did not cancel.
fn half_drift(windows: &[f64]) -> f64 {
    if windows.len() < 2 {
        return 0.0;
    }
    let mid = windows.len() / 2;
    let early = median(windows[..mid].to_vec());
    let late = median(windows[mid..].to_vec());
    let overall = median(windows.to_vec());
    if overall > 0.0 {
        (late - early).abs() / overall
    } else {
        0.0
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that point VPP_BENCH_OUT at their own temp file.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn smoke_harness(group: &str) -> Harness {
        Harness {
            group: group.to_string(),
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(5),
            entries: Vec::new(),
            comparisons: Vec::new(),
        }
    }

    #[test]
    fn timing_is_positive_and_ordered() {
        let mut h = smoke_harness("t");
        h.bench("cheap", || 1 + 1);
        h.bench("costly", || (0..20_000).map(|i| i as f64).sum::<f64>());
        assert!(h.entries[0].median_ns > 0.0);
        assert!(
            h.entries[1].median_ns > h.entries[0].median_ns,
            "20k-element sum must cost more than an add: {:?}",
            h.entries
        );
    }

    #[test]
    fn compare_reports_speedup_direction() {
        let mut h = smoke_harness("t");
        h.compare(
            "sum",
            || (0..50_000).map(|i| i as f64).sum::<f64>(),
            || (0..500).map(|i| i as f64).sum::<f64>(),
        );
        assert!(h.comparisons[0].speedup > 1.0, "{:?}", h.comparisons);
        let drift = h.comparisons[0].drift;
        assert!(drift.is_finite() && drift >= 0.0, "{:?}", h.comparisons);
    }

    #[test]
    fn half_drift_measures_relative_shift() {
        // Flat windows: no drift.
        assert!(half_drift(&[10.0, 10.0, 10.0, 10.0]) < 1e-12);
        // Second half 20 % slower than the first.
        let d = half_drift(&[10.0, 10.0, 12.0, 12.0]);
        assert!((d - 2.0 / 12.0).abs() < 1e-12, "{d}");
        assert_eq!(half_drift(&[10.0]), 0.0);
    }

    #[test]
    fn finish_merges_groups_into_one_report() {
        let dir = std::env::temp_dir().join(format!("vpp_bench_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        let _ = std::fs::remove_file(&path);
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("VPP_BENCH_OUT", &path);

        let mut a = smoke_harness("alpha");
        a.bench("x", || 0);
        a.finish();
        let mut b = smoke_harness("beta");
        b.compare("y", || 0, || 0);
        b.finish();
        // Re-running a group replaces it rather than duplicating.
        let mut a2 = smoke_harness("alpha");
        a2.bench("x", || 0);
        a2.finish();

        let report = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let groups = report.get("groups").unwrap();
        let Value::Obj(members) = groups else { panic!() };
        assert_eq!(members.len(), 2, "alpha replaced, beta kept");
        let alpha = groups.get("alpha").unwrap();
        assert_eq!(
            alpha.get("entries").unwrap().as_arr().unwrap()[0]
                .get("name")
                .unwrap()
                .as_str(),
            Some("x")
        );
        let beta = groups.get("beta").unwrap();
        assert!(
            beta.get("comparisons").unwrap().as_arr().unwrap()[0]
                .get("speedup")
                .unwrap()
                .as_f64()
                .is_some()
        );
        std::env::remove_var("VPP_BENCH_OUT");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn capture_stores_a_loadable_baseline() {
        let dir = std::env::temp_dir().join(format!("vpp_baseline_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_baseline.json");
        let _ = std::fs::remove_file(&path);
        let path = path.to_str().unwrap().to_string();

        let b = TraceBaseline::capture("toy.rep", || {
            for rep in 0..3u64 {
                let _r = crate::span!("toy.rep", rep = rep);
                // Pool work inside the body runs inline, so its spans
                // nest under the repeat that issued them.
                crate::par_map((0..4).collect::<Vec<u32>>(), |_| {
                    let mut p = crate::span!("toy.phase", sim_t0 = 0.0);
                    p.record("sim_t1", 2.0);
                    p.record("energy_j", 5.0);
                });
            }
            trace::counter("toy.ticks", 1);
        });
        assert_eq!(b.samples.len(), 3);
        for s in &b.samples {
            assert_eq!(s.span("toy.phase").unwrap().count, 4, "{s:?}");
        }
        assert_eq!(b.aggregate.span("toy.phase").unwrap().count, 12);
        assert!((b.aggregate.span("toy.phase").unwrap().energy_j - 60.0).abs() < 1e-9);
        assert_eq!(b.aggregate.counters["toy.ticks"], 1);
        assert!(b.tolerances.is_empty());

        store_baseline(&path, "toy", &b).unwrap();
        assert_eq!(load_baseline(&path, "toy").unwrap(), b);
        let missing = load_baseline(&path, "missing").unwrap_err();
        assert!(missing.contains("vpp trace accept missing"), "{missing}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_baseline_blesses_in_place_with_tolerances() {
        let dir = std::env::temp_dir().join(format!("vpp_store_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_store.json");
        let _ = std::fs::remove_file(&path);
        let path = path.to_str().unwrap().to_string();

        let mut baseline = TraceBaseline::capture("phase.scf_iter", || {
            let mut p = crate::span!("phase.scf_iter", sim_t0 = 0.0);
            p.record("sim_t1", 2.5);
            trace::counter("toy.ticks", 7);
        });
        baseline
            .tolerances
            .insert("phase.scf_iter".to_string(), 0.05);

        // Creates file + group + member from nothing.
        store_baseline(&path, "toy", &baseline).unwrap();
        let loaded = load_baseline(&path, "toy").unwrap();
        assert_eq!(loaded, baseline);
        assert!((loaded.tolerances["phase.scf_iter"] - 0.05).abs() < 1e-12);

        // Re-blessing overwrites in place without duplicating members,
        // and leaves sibling baselines untouched.
        store_baseline(&path, "other", &baseline).unwrap();
        let mut updated = baseline.clone();
        updated.tolerances.insert("job.collective".to_string(), 0.10);
        store_baseline(&path, "toy", &updated).unwrap();
        assert_eq!(load_baseline(&path, "toy").unwrap(), updated);
        assert_eq!(load_baseline(&path, "other").unwrap(), baseline);

        // A bench group written into the same report leaves the
        // baselines alone: both go through one read-modify-write.
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("VPP_BENCH_OUT", &path);
        let mut h = smoke_harness("alpha");
        h.bench("x", || 0);
        h.finish();
        std::env::remove_var("VPP_BENCH_OUT");
        assert_eq!(load_baseline(&path, "toy").unwrap(), updated);
        let report = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(report.get("groups").unwrap().get("alpha").is_some());
        let _ = std::fs::remove_file(&path);
    }
}
