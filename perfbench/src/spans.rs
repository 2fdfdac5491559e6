//! The traced run's span log: one record per call the benchmark makes
//! into a layer, kept in memory and written as jsonl at exit.
//!
//! Spans are recorded from the benchmark's own files, around public
//! calls. A public call is a leaf from the outside, so a traced op also
//! replays the calls it makes internally, as child spans of the public
//! call's span. The replay runs after the call rather than inside it;
//! a span's self time is therefore its duration minus its children's
//! durations, not minus an overlap.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The timed op the call belongs to.
    pub op: u64,
    pub name: &'static str,
    /// Offsets from the tracer's origin, nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration, seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Per-name totals over the whole log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    pub calls: u64,
    /// Summed durations minus the durations of child spans.
    pub self_s: f64,
}

/// Thread-safe in-memory span log.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A fresh span id, for a span whose children are recorded before it
    /// closes.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a previously reserved id.
    ///
    /// # Panics
    /// If another thread panicked while holding the span log.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Run `f` inside a span; returns its result and the span id.
    pub fn time<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, name, op, parent, start, Instant::now());
        (out, id)
    }

    /// A copy of every span recorded so far.
    ///
    /// # Panics
    /// If another thread panicked while holding the span log.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Calls and self seconds per span name.
    #[must_use]
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let spans = self.spans();
        let mut child_s: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_s.entry(p).or_default() += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for s in &spans {
            let r = out.entry(s.name).or_default();
            r.calls += 1;
            r.self_s += s.secs() - child_s.get(&s.id).copied().unwrap_or(0.0);
        }
        out
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The spans of one replay: children of the public call's span.
pub struct Scope<'a> {
    pub tracer: &'a Tracer,
    pub op: u64,
    pub parent: u64,
}

impl Scope<'_> {
    /// Run `f` as a child span named `name`.
    pub fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.time(name, self.op, Some(self.parent), f).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let t0 = Instant::now();
        let ms = |n| t0 + std::time::Duration::from_millis(n);
        let parent = t.id();
        t.record(parent, "outer", 0, None, ms(0), ms(10));
        t.record(t.id(), "inner", 0, Some(parent), ms(10), ms(14));
        t.record(t.id(), "inner", 0, Some(parent), ms(14), ms(15));
        let r = t.rollup();
        assert_eq!(r["inner"].calls, 2);
        assert!((r["inner"].self_s - 0.005).abs() < 1e-9);
        assert!((r["outer"].self_s - 0.005).abs() < 1e-9);
    }
}
