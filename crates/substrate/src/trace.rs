//! Structured tracing and metrics for the simulator stack.
//!
//! Every layer of the reproduction — the DES engine, the cluster executor,
//! the SCF planner, the power-cap controller, the telemetry pipeline and the
//! §III-B measurement protocol — emits *typed spans*, *marks*, *counters*
//! and *gauges* through this module. Instrumentation is compiled in
//! unconditionally but costs one thread-local read when no session is
//! bound to the thread, so the hot paths (event delivery, per-op execution)
//! stay at their benchmarked throughput unless a trace session is active.
//!
//! # Model
//!
//! * A **span** is a named interval with enter/exit timestamps, a parent
//!   link (thread-local nesting) and a bag of typed fields. Open one with
//!   the [`span!`](crate::span) macro; it closes when the guard drops.
//! * A **mark** is a point event ([`mark`] / [`mark_with`]).
//! * A **counter** is a monotonically accumulated `u64` ([`counter`]);
//!   a **gauge** is a last-value-wins `f64` ([`gauge`]). Neither consumes
//!   ring-buffer capacity.
//! * A **histogram** is a fixed-bucket distribution ([`histogram`] /
//!   the [`histogram!`](crate::histogram) macro): per-metric static
//!   bucket bounds, rendered as cumulative `_bucket`/`_sum`/`_count`
//!   Prometheus series. Like counters, histograms never consume
//!   ring-buffer capacity.
//!
//! Alongside the per-session recorder there is one process-wide,
//! budget-bounded **log journal** ([`log_event!`](crate::log_event)):
//! leveled records in severity-partitioned buffers with per-level drop
//! accounting, read back exactly-once via [`logs_after`] cursors (the
//! serve module's `GET /logs`).
//!
//! Every session is a [`LocalSession`]: a recorder with a bounded event
//! budget (overflow drops the newest events and counts them, so a
//! truncated trace is detectable rather than silently misleading) that
//! records only on threads bound to it. [`session`] binds a fresh one to
//! the calling thread. Threads the substrate starts on that thread's
//! behalf inherit the binding — [`par_map`](crate::pool::par_map) workers,
//! and the `serve` module's views — and no other thread sees it, so
//! concurrent sessions (parallel tests, service jobs) never mix.
//! Each session keeps all of its state — the event log, counters, gauges
//! and histograms — behind **one lock**. An event gets its `seq` and
//! `t_ns` under that lock as it is appended, so the log is always dense
//! and ordered by both, and reads ([`LocalSession::snapshot`],
//! [`LocalSession::events_after`], [`LocalSession::finish`]) never sort.
//!
//! # Flight-recorder surface
//!
//! A finished session yields a [`TraceReport`]; beyond the raw events it
//! offers [`TraceReport::aggregate`] / [`TraceReport::aggregates_under`]
//! (per-phase wall/sim/energy roll-ups used as bench baselines and by the
//! `vpp trace diff` regression triage), [`TraceReport::to_jsonl`] (one
//! event per line, re-parseable by [`crate::json::parse`]) and
//! [`TraceReport::to_prom`] (Prometheus text exposition for scrapers).
//!
//! ```
//! use vpp_substrate::{span, trace};
//!
//! let session = trace::session(1024);
//! {
//!     let mut root = span!("demo.root", nodes = 4, cap_w = 400.0);
//!     trace::counter("demo.events", 3);
//!     root.record("converged", true);
//! }
//! let report = session.finish();
//! assert_eq!(report.spans().len(), 1);
//! assert_eq!(report.counters["demo.events"], 3);
//! assert!(report.well_formed().is_ok());
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::Value;

/// A typed field value attached to a span, mark, or report row.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer (counts, byte sizes, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (seconds, watts, joules).
    F64(f64),
    /// Short free-form string (benchmark names, verdict labels).
    Str(String),
}

impl FieldValue {
    /// Numeric view of the value, if it has one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(x) => Some(*x as f64),
            FieldValue::I64(x) => Some(*x as f64),
            FieldValue::F64(x) => Some(*x),
            FieldValue::Bool(_) | FieldValue::Str(_) => None,
        }
    }

    /// String view of the value, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn to_json(&self) -> Value {
        match self {
            FieldValue::Bool(b) => Value::Bool(*b),
            FieldValue::U64(x) => Value::Num(*x as f64),
            FieldValue::I64(x) => Value::Num(*x as f64),
            FieldValue::F64(x) => Value::Num(*x),
            FieldValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Bool(b) => write!(f, "{b}"),
            FieldValue::U64(x) => write!(f, "{x}"),
            FieldValue::I64(x) => write!(f, "{x}"),
            FieldValue::F64(x) => write!(f, "{x}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// A `(key, value)` pair attached to an event.
pub type Field = (&'static str, FieldValue);

/// What a raw [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened. `parent` is the enclosing span on the same thread in
    /// the same session, if any.
    Enter {
        /// Process-unique span id.
        span: u64,
        /// Enclosing span id, if nested.
        parent: Option<u64>,
    },
    /// A span closed; `fields` on the event carry values recorded via
    /// [`SpanGuard::record`].
    Exit {
        /// Span id being closed.
        span: u64,
    },
    /// A point event.
    Mark,
}

/// One raw entry in the recorder's event log.
#[derive(Debug, Clone)]
pub struct Event {
    /// Static event name (dot-separated vocabulary, e.g. `"scf.iter"`).
    pub name: &'static str,
    /// Per-session admission sequence number (0-based, assigned under the
    /// session's lock as the event is appended). Within a session, `seq`
    /// is unique and — below the event budget — dense, so a cursor
    /// (`/jobs/<id>/trace?after=SEQ`) can resume a stream exactly where
    /// the previous chunk stopped.
    pub seq: u64,
    /// Nanoseconds since the session started, stamped under the same lock
    /// as `seq`, so the two orders agree.
    pub t_ns: u64,
    /// Small per-session thread ordinal (0 = first thread seen).
    pub thread: u32,
    /// Enter / Exit / Mark.
    pub kind: EventKind,
    /// Typed payload.
    pub fields: Vec<Field>,
}

impl Event {
    /// Canonical JSON encoding — the line format of
    /// [`TraceReport::to_jsonl`]. Re-parsing the encoding with
    /// [`crate::json::parse`] yields a structurally equal value, so the
    /// JSONL stream round-trips through the in-tree parser.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let kind = match self.kind {
            EventKind::Enter { .. } => "enter",
            EventKind::Exit { .. } => "exit",
            EventKind::Mark => "mark",
        };
        let mut obj = vec![
            ("kind".to_string(), Value::Str(kind.to_string())),
            ("name".to_string(), Value::Str(self.name.to_string())),
            ("seq".to_string(), Value::Num(self.seq as f64)),
            ("t_ns".to_string(), Value::Num(self.t_ns as f64)),
            ("thread".to_string(), Value::Num(f64::from(self.thread))),
        ];
        match self.kind {
            EventKind::Enter { span, parent } => {
                obj.push(("span".to_string(), Value::Num(span as f64)));
                if let Some(p) = parent {
                    obj.push(("parent".to_string(), Value::Num(p as f64)));
                }
            }
            EventKind::Exit { span } => {
                obj.push(("span".to_string(), Value::Num(span as f64)));
            }
            EventKind::Mark => {}
        }
        obj.push((
            "fields".to_string(),
            Value::Obj(
                self.fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.to_json()))
                    .collect(),
            ),
        ));
        Value::Obj(obj)
    }
}

/// The recorder behind one [`LocalSession`] and its clones.
struct Recorder {
    id: u64,
    start: Instant,
    /// Maximum events the session will admit over its life.
    cap: usize,
    /// Everything recorded, behind the session's one lock.
    log: Mutex<Log>,
}

/// A session's recorded state.
struct Log {
    /// What a snapshot copies and `finish` drains: the events in `seq`
    /// order (and so in `t_ns` order), counters, gauges, histograms, and
    /// the dropped count, which a drain keeps.
    report: TraceReport,
    /// The `seq` the next admitted event gets: every event admitted so
    /// far, drained ones included, so never more than the cap.
    next_seq: u64,
    /// Threads that have recorded, indexed by their ordinal.
    threads: Vec<std::thread::ThreadId>,
}

impl Recorder {
    /// Append an event, or count it dropped once the budget is spent.
    /// `seq` and `t_ns` are taken under the lock, so every admitted event
    /// gets a unique `seq` below `cap`, the log stays dense and in `seq`
    /// order, and timestamps never run backwards along it.
    fn push(&self, name: &'static str, kind: EventKind, fields: Vec<Field>) {
        let mut log = lock(&self.log);
        if log.next_seq >= self.cap as u64 {
            log.report.dropped += 1;
            return;
        }
        let thread = log.thread_ordinal(self.id);
        let t_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let seq = log.next_seq;
        log.report.events.push(Event {
            name,
            seq,
            t_ns,
            thread,
            kind,
            fields,
        });
        log.next_seq += 1;
    }
}

impl Log {
    /// The calling thread's ordinal in this session (0 = first thread
    /// seen), cached in `THREAD_ORD` so the registry is searched once.
    fn thread_ordinal(&mut self, session: u64) -> u32 {
        THREAD_ORD.with(|c| {
            if let Some((sid, ord)) = c.get() {
                if sid == session {
                    return ord;
                }
            }
            let tid = std::thread::current().id();
            let ord = self
                .threads
                .iter()
                .position(|t| *t == tid)
                .unwrap_or_else(|| {
                    self.threads.push(tid);
                    self.threads.len() - 1
                }) as u32;
            c.set(Some((session, ord)));
            ord
        })
    }
}

/// One bounded read from a live event stream ([`LocalSession::events_after`]).
#[derive(Debug, Clone)]
pub struct CursorChunk {
    /// Events in sequence order, each delivered exactly once across chunks.
    pub events: Vec<Event>,
    /// Cursor to pass as `start`/`after` on the next poll.
    pub next: u64,
    /// Whether events beyond [`CursorChunk::next`] were already visible
    /// when this chunk was cut (poll again without waiting).
    pub more: bool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this thread as `(session_id, span_id)` pairs.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Cached `(session_id, ordinal)` so the thread registry is hit once.
    static THREAD_ORD: Cell<Option<(u64, u32)>> = const { Cell::new(None) };
    /// Recorder bound to this thread by a [`LocalBinding`], if any.
    static LOCAL_REC: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
    /// Cheap mirror of `LOCAL_REC.is_some()` for the [`enabled`] fast path.
    static LOCAL_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Whether instrumentation on this thread records anywhere, i.e. whether
/// a session is bound to it. One thread-local read.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    LOCAL_ACTIVE.with(Cell::get)
}

fn current() -> Option<Arc<Recorder>> {
    if !enabled() {
        return None;
    }
    LOCAL_REC.with(|l| l.borrow().clone())
}

/// The session bound to this thread, for the threads the substrate starts
/// on its behalf to inherit: [`par_map`](crate::pool::par_map) workers and
/// the `serve` module's views.
pub(crate) fn current_session() -> Option<LocalSession> {
    current().map(|rec| LocalSession { rec })
}

/// A trace session bound to the thread that opened it. Created by
/// [`session`]; instrumentation on that thread — and on the pool workers
/// and servers it starts — records into it until [`Session::finish`] (or
/// drop) unbinds it. Dereferences to its [`LocalSession`] for live reads
/// ([`LocalSession::snapshot`], [`LocalSession::events_after`]) and for
/// binding further threads.
pub struct Session {
    local: LocalSession,
    bind: LocalBinding,
}

/// Open a session with room for `capacity` events, bound to the calling
/// thread. Opened while another session is bound, it shadows that one
/// until it ends, like a nested [`LocalSession::bind`].
#[must_use]
pub fn session(capacity: usize) -> Session {
    let local = local_session(capacity);
    let bind = local.bind();
    Session { local, bind }
}

impl Session {
    /// Unbind the session and return everything it captured.
    #[must_use]
    pub fn finish(self) -> TraceReport {
        let Session { local, bind } = self;
        drop(bind);
        local.finish()
    }
}

impl std::ops::Deref for Session {
    type Target = LocalSession;

    fn deref(&self) -> &LocalSession {
        &self.local
    }
}

/// A tracing session: a recorder that captures events only from threads
/// bound to it ([`LocalSession::bind`]). Any number of sessions can run
/// concurrently — the multi-tenant job service gives each job its own —
/// and because a binding belongs to one thread, concurrent sessions
/// produce disjoint traces. [`session`] creates one already bound to the
/// calling thread.
///
/// Cloning is cheap (an `Arc` bump); every clone reads and writes the same
/// recorder, which is how the service thread snapshots a trace while the
/// job thread is still producing it.
#[derive(Clone)]
pub struct LocalSession {
    rec: Arc<Recorder>,
}

/// Create a detached recorder with room for `capacity` events. Nothing
/// records into it until a thread binds it via [`LocalSession::bind`].
#[must_use]
pub fn local_session(capacity: usize) -> LocalSession {
    LocalSession {
        rec: Arc::new(Recorder {
            id: NEXT_SESSION_ID.fetch_add(1, Ordering::SeqCst),
            start: Instant::now(),
            cap: capacity,
            log: Mutex::new(Log {
                report: TraceReport::empty(0),
                next_seq: 0,
                threads: Vec::new(),
            }),
        }),
    }
}

impl LocalSession {
    /// Route this thread's instrumentation into the session until the
    /// returned guard drops. Bindings nest: dropping the guard restores
    /// whatever this thread was bound to before (guards must drop in
    /// reverse bind order, which RAII scoping gives for free).
    #[must_use]
    pub fn bind(&self) -> LocalBinding {
        let prev = LOCAL_REC.with(|l| l.borrow_mut().replace(Arc::clone(&self.rec)));
        LOCAL_ACTIVE.with(|c| c.set(true));
        LocalBinding {
            prev,
            _not_send: PhantomData,
        }
    }

    /// Live, non-draining copy of everything captured so far — events
    /// (open spans included, their exits still pending), counters, gauges,
    /// histograms and the dropped count. The session keeps recording, so a
    /// scraper (the `serve` module's `/trace` and `/metrics` endpoints)
    /// can read an in-flight run from another thread.
    #[must_use]
    pub fn snapshot(&self) -> TraceReport {
        lock(&self.rec.log).report.clone()
    }

    /// Bounded cursor read: up to `limit` events with `seq >= start`, in
    /// admission order, each event delivered exactly once across chunks.
    /// The log is dense and in `seq` order, so this is a binary search and
    /// a clone of at most `limit` events; seqs a [`LocalSession::finish`]
    /// drained are skipped, not waited for. See [`CursorChunk`] for
    /// resumption semantics.
    #[must_use]
    pub fn events_after(&self, start: u64, limit: usize) -> CursorChunk {
        let log = lock(&self.rec.log);
        let events = &log.report.events;
        let from = events.partition_point(|e| e.seq < start);
        let to = from.saturating_add(limit).min(events.len());
        let chunk = events[from..to].to_vec();
        CursorChunk {
            next: chunk.last().map_or(start, |e| e.seq + 1),
            more: to < events.len(),
            events: chunk,
        }
    }

    /// Events admitted to the log over the session's life, drained ones
    /// included; never more than the event budget.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        lock(&self.rec.log).next_seq
    }

    /// Events refused because the budget was exhausted.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        lock(&self.rec.log).report.dropped
    }

    /// Drain everything captured and return the final report. Call after
    /// every bound thread has finished; later snapshots of surviving
    /// clones only see what was recorded after the drain (the dropped
    /// count and the `seq` numbering carry on).
    #[must_use]
    pub fn finish(self) -> TraceReport {
        let mut log = lock(&self.rec.log);
        let dropped = log.report.dropped;
        std::mem::replace(&mut log.report, TraceReport::empty(dropped))
    }
}

/// Scoped thread binding for a [`LocalSession`]. On drop, restores the
/// thread's previous binding, so a long-lived thread keeps no reference
/// to a session it no longer records into. Deliberately `!Send`: the
/// binding is a property of the thread that created it.
pub struct LocalBinding {
    prev: Option<Arc<Recorder>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for LocalBinding {
    fn drop(&mut self) {
        LOCAL_REC.with(|l| {
            let mut l = l.borrow_mut();
            *l = self.prev.take();
            LOCAL_ACTIVE.with(|c| c.set(l.is_some()));
        });
    }
}

/// Run `f` with no session bound to this thread, so nothing it does
/// records, and restore the thread's binding when `f` returns or unwinds.
/// For work whose events the trace already holds: the §III-B protocol's
/// read-out of the repeat it chose.
pub fn untraced<R>(f: impl FnOnce() -> R) -> R {
    let _restore = LocalBinding {
        prev: LOCAL_REC.with(|l| l.borrow_mut().take()),
        _not_send: PhantomData,
    };
    LOCAL_ACTIVE.with(|c| c.set(false));
    f()
}

/// RAII guard for an open span. Closes (emits the Exit event) on drop.
///
/// Deliberately `!Send`: a span measures an interval on one thread, and the
/// parent linkage is thread-local.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

struct ActiveSpan {
    rec: Arc<Recorder>,
    id: u64,
    name: &'static str,
    exit_fields: Vec<Field>,
}

impl SpanGuard {
    /// Open a span. `fields` is only invoked when a session is bound to
    /// this thread, so argument formatting costs nothing on the disabled
    /// path. Prefer the [`span!`](crate::span) macro.
    #[must_use]
    pub fn open<F: FnOnce() -> Vec<Field>>(name: &'static str, fields: F) -> SpanGuard {
        let Some(rec) = current() else {
            return SpanGuard {
                active: None,
                _not_send: PhantomData,
            };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .iter()
                .rev()
                .find(|(sid, _)| *sid == rec.id)
                .map(|&(_, span)| span);
            s.push((rec.id, id));
            parent
        });
        rec.push(name, EventKind::Enter { span: id, parent }, fields());
        SpanGuard {
            active: Some(ActiveSpan {
                rec,
                id,
                name,
                exit_fields: Vec::new(),
            }),
            _not_send: PhantomData,
        }
    }

    /// The recording session's id for this span, if one is active. Other
    /// events can carry it (e.g. a `link_span` field) to reference this
    /// span from outside its subtree — the §III-B protocol links
    /// re-collections to the measurement they rescued this way.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Attach a field to the span's Exit event (e.g. a result computed
    /// inside the span). No-op when tracing is disabled.
    pub fn record<V: Into<FieldValue>>(&mut self, key: &'static str, value: V) {
        if let Some(a) = &mut self.active {
            a.exit_fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s
                .iter()
                .rposition(|&(sid, span)| sid == a.rec.id && span == a.id)
            {
                s.remove(pos);
            }
        });
        a.rec
            .push(a.name, EventKind::Exit { span: a.id }, a.exit_fields);
    }
}

/// Open a span: `span!("name")` or `span!("name", key = value, ...)`.
/// Field values must convert [`Into`] a
/// [`FieldValue`](crate::trace::FieldValue). Returns a
/// [`SpanGuard`](crate::trace::SpanGuard); the span closes when it drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::open($name, Vec::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::trace::SpanGuard::open($name, || {
            vec![$((stringify!($k), $crate::trace::FieldValue::from($v))),+]
        })
    };
}

/// Add `delta` to the named counter. Counters aggregate in place and never
/// consume ring capacity.
pub fn counter(name: &'static str, delta: u64) {
    if let Some(rec) = current() {
        *lock(&rec.log).report.counters.entry(name).or_insert(0) += delta;
    }
}

/// Set the named gauge to `value` (last value wins).
pub fn gauge(name: &'static str, value: f64) {
    if let Some(rec) = current() {
        lock(&rec.log).report.gauges.insert(name, value);
    }
}

/// Emit a point event with no payload.
pub fn mark(name: &'static str) {
    mark_with(name, Vec::new);
}

/// Emit a point event; `fields` is only invoked when tracing is enabled.
pub fn mark_with<F: FnOnce() -> Vec<Field>>(name: &'static str, fields: F) {
    if let Some(rec) = current() {
        rec.push(name, EventKind::Mark, fields());
    }
}

// ---------------------------------------------------------------------------
// Histograms: the third metric primitive.
// ---------------------------------------------------------------------------

/// Bucket upper bounds for GPU power draw, watts. The edges straddle the
/// paper's two KDE modes — idle/host phases (~60–90 W) and the compute
/// mode (~300–400 W on an uncapped A100) — with a 200 W edge between
/// them, so cumulative bucket counts reconstruct high-power-mode
/// residency (the fraction of GPU time above [`HIGH_POWER_THRESHOLD_W`])
/// exactly from a live scrape.
pub const POWER_WATTS_BUCKETS: &[f64] = &[
    30.0, 60.0, 90.0, 120.0, 160.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 520.0,
];

/// The idle/compute divide for [`POWER_WATTS_BUCKETS`]: power above this
/// is "high-power mode" in the paper's sense. Deliberately one of the
/// bucket edges, so the residency fraction is exact, not interpolated.
pub const HIGH_POWER_THRESHOLD_W: f64 = 200.0;

/// Bucket upper bounds for service latencies, seconds (sub-millisecond
/// metric scrapes up to multi-second job submissions).
pub const SECONDS_BUCKETS: &[f64] = &[
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
];

/// Bucket upper bounds for simulated-clock durations, seconds (SCF
/// phases run simulated seconds to tens of minutes).
pub const SIM_SECONDS_BUCKETS: &[f64] = &[
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
];

/// Fallback bounds for metrics without a dedicated table: decades from
/// 0.001 to 1e6.
pub const DEFAULT_BUCKETS: &[f64] = &[
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10_000.0, 100_000.0, 1_000_000.0,
];

/// The static bucket table for a metric name: `*watts*` metrics get the
/// power edges, `*_seconds` metrics get wall or simulated-time edges,
/// everything else the decade fallback. [`histogram_with`] overrides.
#[must_use]
pub fn default_bounds(name: &str) -> &'static [f64] {
    if name.contains("watts") {
        POWER_WATTS_BUCKETS
    } else if name.ends_with("_seconds") || name.ends_with(".seconds") {
        if name.contains("sim") {
            SIM_SECONDS_BUCKETS
        } else {
            SECONDS_BUCKETS
        }
    } else {
        DEFAULT_BUCKETS
    }
}

/// Index of the bucket `value` falls into: the first bound `>= value`
/// (Prometheus `le` semantics), or the overflow bucket past the last.
fn bucket_index(bounds: &[f64], value: f64) -> usize {
    bounds
        .iter()
        .position(|b| value <= *b)
        .unwrap_or(bounds.len())
}

/// A fixed-bucket, mergeable histogram: per-bucket counts against static
/// upper bounds plus a running sum. The value type behind the
/// [`histogram!`](crate::histogram) primitive, and usable standalone
/// (the serve module keeps per-route latency histograms under its own
/// lock). Counts are observation *weights*: [`Histogram::observe_n`]
/// records `n` at once, which is how the executor weights each power
/// segment by its duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: &'static [f64],
    /// Per-bucket (non-cumulative) counts; one extra overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (finite, strictly ascending).
    ///
    /// # Panics
    /// If `bounds` is empty, unsorted, or contains a non-finite edge.
    #[must_use]
    pub fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        Self {
            bounds,
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        self.observe_n(value, 1);
    }

    /// Record `n` observations of `value` at once.
    pub fn observe_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(self.bounds, value)] += n;
        self.count += n;
        self.sum += value * n as f64;
    }

    /// Fold `other` into `self`. Same bounds merge bucket-by-bucket; a
    /// histogram with different bounds folds into the overflow bucket
    /// (total mass and sum preserved, shape degraded) — callers are
    /// expected to keep one bounds table per metric name.
    pub fn merge(&mut self, other: &Histogram) {
        if std::ptr::eq(self.bounds, other.bounds) || self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        } else {
            *self.counts.last_mut().expect("overflow bucket") += other.count;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The static bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the
    /// overflow (`+Inf`) bucket.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observed values (weighted).
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Total observation count (weighted).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fraction of observations strictly above `threshold`, which must be
    /// one of the bucket bounds for the answer to be exact — the
    /// high-power-mode residency read when `threshold` is
    /// [`HIGH_POWER_THRESHOLD_W`]. Returns 0 for an empty histogram.
    #[must_use]
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let above: u64 = self
            .bounds
            .iter()
            .zip(&self.counts)
            .filter(|(b, _)| **b > threshold)
            .map(|(_, c)| *c)
            .sum::<u64>()
            + self.counts[self.bounds.len()];
        above as f64 / self.count as f64
    }

    /// Append the Prometheus sample lines (`_bucket` cumulative over
    /// `le`, then `_sum` and `_count`) for this histogram. `metric` is
    /// the already-sanitised full metric name; `labels` is either empty
    /// or pre-rendered `key="value"` pairs (already escaped) that every
    /// sample carries in addition to `le`. The `# TYPE` line is the
    /// caller's job, so multi-label families declare it once.
    pub fn to_prom_lines(&self, metric: &str, labels: &str, out: &mut String) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cum = 0u64;
        for (b, c) in self.bounds.iter().zip(&self.counts) {
            cum += c;
            let _ = writeln!(
                out,
                "{metric}_bucket{{{labels}{sep}le=\"{}\"}} {cum}",
                prom_f64(*b)
            );
        }
        cum += self.counts[self.bounds.len()];
        let _ = writeln!(out, "{metric}_bucket{{{labels}{sep}le=\"+Inf\"}} {cum}");
        if labels.is_empty() {
            let _ = writeln!(out, "{metric}_sum {}", prom_f64(self.sum));
            let _ = writeln!(out, "{metric}_count {cum}");
        } else {
            let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", prom_f64(self.sum));
            let _ = writeln!(out, "{metric}_count{{{labels}}} {cum}");
        }
    }

    /// JSON view: bounds, per-bucket counts, sum, count.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "bounds".to_string(),
                Value::Arr(self.bounds.iter().map(|b| Value::Num(*b)).collect()),
            ),
            (
                "counts".to_string(),
                Value::Arr(self.counts.iter().map(|c| Value::Num(*c as f64)).collect()),
            ),
            ("sum".to_string(), Value::Num(self.sum)),
            ("count".to_string(), Value::Num(self.count as f64)),
        ])
    }
}

/// Record one observation into the named histogram, using the static
/// per-metric bucket table ([`default_bounds`]).
pub fn histogram(name: &'static str, value: f64) {
    observe(name, value, 1, || default_bounds(name));
}

/// Record one observation with explicit static bucket bounds. Every
/// recording site for a given metric name must use the same bounds.
pub fn histogram_with(name: &'static str, value: f64, bounds: &'static [f64]) {
    observe(name, value, 1, || bounds);
}

/// Record `n` observations of `value` at once (duration weighting: the
/// executor records each power segment with `n` = its length in
/// microseconds, so bucket counts measure GPU-time residency).
pub fn histogram_count(name: &'static str, value: f64, n: u64) {
    observe(name, value, n, || default_bounds(name));
}

/// Record `n` observations into the bound session's histogram `name`.
/// The bucket table is only resolved the first time the session records
/// that metric, so with no session bound this costs one thread-local read.
fn observe(name: &'static str, value: f64, n: u64, bounds: impl FnOnce() -> &'static [f64]) {
    if n == 0 {
        return;
    }
    if let Some(rec) = current() {
        lock(&rec.log)
            .report
            .histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds()))
            .observe_n(value, n);
    }
}

/// Record into a histogram: `histogram!("power_watts", 312.0)` (static
/// per-metric bucket table) or `histogram!("name", v, &BOUNDS)` with
/// explicit bounds. Like every trace primitive, a few nanoseconds when
/// no session is active.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::trace::histogram($name, $value)
    };
    ($name:expr, $value:expr, $bounds:expr) => {
        $crate::trace::histogram_with($name, $value, $bounds)
    };
}

// ---------------------------------------------------------------------------
// The process-wide structured log journal.
// ---------------------------------------------------------------------------

/// Severity of a [`LogRecord`]. Ordering is by severity: `Debug < Info <
/// Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Diagnostic chatter, below the journal's admission level: filtered.
    Debug = 0,
    /// Routine service events.
    Info = 1,
    /// Degradation the operator should know about (backpressure,
    /// evictions, peer scrape failures).
    Warn = 2,
    /// Failures (job panics, handler errors).
    Error = 3,
}

/// Number of severity partitions in the journal.
pub const LOG_LEVELS: usize = 4;

/// Per-level capacity of the journal: once a severity partition holds
/// this many records, further records *of that level* are dropped and
/// counted — a flood of one severity can never evict another's records,
/// and admitted sequence numbers stay dense.
pub const LOG_PARTITION_CAPACITY: usize = 4096;

impl LogLevel {
    /// Every level, ascending severity.
    pub const ALL: [LogLevel; LOG_LEVELS] =
        [LogLevel::Debug, LogLevel::Info, LogLevel::Warn, LogLevel::Error];

    /// Canonical lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LogLevel::ALL
            .into_iter()
            .find(|l| l.name() == s)
            .ok_or_else(|| format!("unknown log level '{s}' (expected debug|info|warn|error)"))
    }
}

/// One structured journal entry.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Dense admission sequence number (journal-global, all levels).
    pub seq: u64,
    /// Seconds since the journal's first use in this process.
    pub t_s: f64,
    /// Severity.
    pub level: LogLevel,
    /// Component that emitted the record (e.g. `serve.jobs`).
    pub target: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Typed payload fields.
    pub fields: Vec<Field>,
}

impl LogRecord {
    /// Compact JSON object — one line of the `/logs` jsonl stream.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("seq".to_string(), Value::Num(self.seq as f64)),
            ("t_s".to_string(), Value::Num(self.t_s)),
            ("level".to_string(), Value::Str(self.level.name().to_string())),
            ("target".to_string(), Value::Str(self.target.to_string())),
            ("msg".to_string(), Value::Str(self.message.clone())),
            (
                "fields".to_string(),
                Value::Obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The journal proper: severity-partitioned bounded buffers plus the
/// admission counter. One process-wide instance behind a mutex — log
/// rates are decision-point rates (backpressure, evictions, failures) —
/// and, as in a session's recorder, admission-under-lock is what keeps
/// the sequence stream dense (no in-flight gaps for the cursor reader).
struct JournalInner {
    next_seq: u64,
    admitted: [u64; LOG_LEVELS],
    dropped: [u64; LOG_LEVELS],
    partitions: [Vec<LogRecord>; LOG_LEVELS],
}

static JOURNAL: Mutex<JournalInner> = Mutex::new(JournalInner {
    next_seq: 0,
    admitted: [0; LOG_LEVELS],
    dropped: [0; LOG_LEVELS],
    partitions: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
});

/// Records below this severity are filtered at admission (not counted as
/// drops — they were never eligible).
const LOG_LEVEL: LogLevel = LogLevel::Info;

/// The journal's time origin, pinned at first use.
static LOG_EPOCH: OnceLock<Instant> = OnceLock::new();

/// The journal's admission level.
#[must_use]
pub fn log_level() -> LogLevel {
    LOG_LEVEL
}

/// Whether a record at `level` would be admitted — the cheap guard the
/// [`log_event!`](crate::log_event) macro checks before building the
/// message and fields.
#[inline]
#[must_use]
pub fn log_enabled(level: LogLevel) -> bool {
    level >= LOG_LEVEL
}

/// Append a record to the journal. Admission takes one short lock: the
/// sequence ticket is only consumed when the record is actually stored,
/// so admitted seqs are dense and a cursor reader never waits on a seq
/// that will never arrive. When the level's partition is full the record
/// is dropped and counted against that level.
pub fn log_event(
    level: LogLevel,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<Field>,
) {
    if !log_enabled(level) {
        return;
    }
    let t_s = LOG_EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64();
    let li = level as usize;
    let mut j = lock(&JOURNAL);
    if j.partitions[li].len() >= LOG_PARTITION_CAPACITY {
        j.dropped[li] += 1;
        return;
    }
    let seq = j.next_seq;
    j.next_seq += 1;
    j.admitted[li] += 1;
    j.partitions[li].push(LogRecord {
        seq,
        t_s,
        level,
        target,
        message: message.into(),
        fields,
    });
}

/// Emit a structured log record:
/// `log_event!(Warn, "serve.jobs", "queue full", queued = 32)`. The
/// message and field expressions are only evaluated when the level is
/// admitted.
#[macro_export]
macro_rules! log_event {
    ($level:ident, $target:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::trace::log_enabled($crate::trace::LogLevel::$level) {
            $crate::trace::log_event(
                $crate::trace::LogLevel::$level,
                $target,
                $msg,
                vec![$((stringify!($k), $crate::trace::FieldValue::from($v))),*],
            );
        }
    };
}

/// One bounded cursor read from the journal ([`logs_after`]).
#[derive(Debug, Clone)]
pub struct LogChunk {
    /// Records in sequence order, each delivered exactly once across
    /// chunks for a given `min_level`.
    pub records: Vec<LogRecord>,
    /// Cursor to pass as `after` on the next poll.
    pub next: u64,
    /// Whether more matching records were already admitted when this
    /// chunk was cut.
    pub more: bool,
    /// Per-level drop counts (records refused because their severity
    /// partition was full), indexed by `LogLevel as usize`.
    pub dropped: [u64; LOG_LEVELS],
}

/// Cursor read over the journal: up to `limit` records with
/// `seq >= after` and severity `>= min_level`, in sequence order.
///
/// Because sequence tickets are only consumed under the journal lock for
/// records that are actually stored, the admitted stream has no holes:
/// every matching record is delivered exactly once across chunks, and a
/// seq the reader skips can only belong to a record below `min_level`.
#[must_use]
pub fn logs_after(after: u64, limit: usize, min_level: LogLevel) -> LogChunk {
    let j = lock(&JOURNAL);
    let mut matching: Vec<&LogRecord> = j.partitions[min_level as usize..]
        .iter()
        .flat_map(|p| p.iter().filter(|r| r.seq >= after))
        .collect();
    matching.sort_by_key(|r| r.seq);
    let more = matching.len() > limit;
    let records: Vec<LogRecord> = matching.into_iter().take(limit).cloned().collect();
    let next = if more {
        records.last().expect("limit > 0 when more").seq + 1
    } else {
        // Caught up: everything admitted so far has been scanned.
        j.next_seq.max(after)
    };
    LogChunk {
        records,
        next,
        more,
        dropped: j.dropped,
    }
}

/// Journal health counters, read under one guard acquisition — what
/// `/healthz` renders.
#[derive(Debug, Clone, Copy)]
pub struct LogStats {
    /// Current admission level.
    pub level: LogLevel,
    /// Next sequence number to be assigned (== total admitted records).
    pub next_seq: u64,
    /// Per-level admitted counts, indexed by `LogLevel as usize`.
    pub admitted: [u64; LOG_LEVELS],
    /// Per-level drop counts, indexed by `LogLevel as usize`.
    pub dropped: [u64; LOG_LEVELS],
}

/// Snapshot the journal's health counters.
#[must_use]
pub fn log_stats() -> LogStats {
    let j = lock(&JOURNAL);
    LogStats {
        level: log_level(),
        next_seq: j.next_seq,
        admitted: j.admitted,
        dropped: j.dropped,
    }
}

/// One reconstructed span: enter/exit matched, fields merged.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name.
    pub name: &'static str,
    /// Process-unique id.
    pub id: u64,
    /// Enclosing span id, if nested.
    pub parent: Option<u64>,
    /// Per-session thread ordinal.
    pub thread: u32,
    /// Enter time, ns since session start.
    pub t_enter_ns: u64,
    /// Exit time, ns since session start; `None` if the span never closed
    /// (guard leaked or its Exit was dropped on ring overflow).
    pub t_exit_ns: Option<u64>,
    /// Enter fields followed by [`SpanGuard::record`]ed exit fields.
    pub fields: Vec<Field>,
}

impl SpanRecord {
    /// Wall duration in nanoseconds, if the span closed.
    #[must_use]
    pub fn duration_ns(&self) -> Option<u64> {
        self.t_exit_ns.map(|t| t.saturating_sub(self.t_enter_ns))
    }

    /// First field with the given key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Numeric field value, if present and numeric.
    #[must_use]
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.field(key).and_then(FieldValue::as_f64)
    }

    /// Simulated-clock duration `sim_t1 - sim_t0`, if the span carries a
    /// sim-time window (the executor's phase spans do).
    #[must_use]
    pub fn sim_duration_s(&self) -> Option<f64> {
        match (self.field_f64("sim_t0"), self.field_f64("sim_t1")) {
            (Some(t0), Some(t1)) => Some(t1 - t0),
            _ => None,
        }
    }
}

/// A span plus its children — one node of [`TraceReport::span_tree`].
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans in enter order.
    pub children: Vec<SpanNode>,
}

/// Everything a finished [`Session`] captured.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Raw events in admission (`seq`) order, which is also timestamp
    /// order; each thread's record order is preserved exactly.
    pub events: Vec<Event>,
    /// Aggregated counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-value gauges.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Per-metric histograms, every recording thread's observations merged.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Events discarded because the session's event budget was exhausted.
    pub dropped: u64,
}

impl TraceReport {
    fn empty(dropped: u64) -> TraceReport {
        TraceReport {
            events: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            dropped,
        }
    }

    /// Reconstruct spans (Enter/Exit matched by id) in enter order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = Vec::new();
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        for ev in &self.events {
            match ev.kind {
                EventKind::Enter { span, parent } => {
                    by_id.insert(span, out.len());
                    out.push(SpanRecord {
                        name: ev.name,
                        id: span,
                        parent,
                        thread: ev.thread,
                        t_enter_ns: ev.t_ns,
                        t_exit_ns: None,
                        fields: ev.fields.clone(),
                    });
                }
                EventKind::Exit { span } => {
                    if let Some(&i) = by_id.get(&span) {
                        out[i].t_exit_ns = Some(ev.t_ns);
                        out[i].fields.extend(ev.fields.iter().cloned());
                    }
                }
                EventKind::Mark => {}
            }
        }
        out
    }

    /// Point events (marks) in record order.
    #[must_use]
    pub fn marks(&self) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Mark))
            .collect()
    }

    /// Spans assembled into forests by parent linkage, roots in enter
    /// order. A span whose parent is missing (dropped) becomes a root.
    #[must_use]
    pub fn span_tree(&self) -> Vec<SpanNode> {
        let spans = self.spans();
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
        let mut children: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
        let mut roots: Vec<SpanRecord> = Vec::new();
        for s in spans {
            match s.parent {
                Some(p) if ids.contains(&p) => children.entry(p).or_default().push(s),
                _ => roots.push(s),
            }
        }
        fn build(rec: SpanRecord, children: &mut BTreeMap<u64, Vec<SpanRecord>>) -> SpanNode {
            let kids = children.remove(&rec.id).unwrap_or_default();
            SpanNode {
                record: rec,
                children: kids.into_iter().map(|k| build(k, children)).collect(),
            }
        }
        roots.into_iter().map(|r| build(r, &mut children)).collect()
    }

    /// The subtree rooted at span `id`, if that span is in the report.
    #[must_use]
    pub fn subtree(&self, id: u64) -> Option<SpanNode> {
        fn find(nodes: &[SpanNode], id: u64) -> Option<SpanNode> {
            for n in nodes {
                if n.record.id == id {
                    return Some(n.clone());
                }
                if let Some(hit) = find(&n.children, id) {
                    return Some(hit);
                }
            }
            None
        }
        find(&self.span_tree(), id)
    }

    /// Check that the trace is structurally sound: nothing dropped, and on
    /// every thread the Enter/Exit events form a properly nested (LIFO)
    /// sequence whose parent links match the enclosing span. This is the
    /// invariant the `par_map` concurrency property test asserts.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn well_formed(&self) -> Result<(), String> {
        if self.dropped > 0 {
            return Err(format!("{} events dropped by ring overflow", self.dropped));
        }
        let mut stacks: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for ev in &self.events {
            let stack = stacks.entry(ev.thread).or_default();
            match ev.kind {
                EventKind::Enter { span, parent } => {
                    if parent != stack.last().copied() {
                        return Err(format!(
                            "span {span} ('{}') on thread {} has parent {parent:?} \
                             but enclosing span is {:?}",
                            ev.name,
                            ev.thread,
                            stack.last()
                        ));
                    }
                    stack.push(span);
                }
                EventKind::Exit { span } => match stack.pop() {
                    Some(top) if top == span => {}
                    other => {
                        return Err(format!(
                            "exit of span {span} ('{}') on thread {} but open span is {other:?}",
                            ev.name, ev.thread
                        ));
                    }
                },
                EventKind::Mark => {}
            }
        }
        for (t, stack) in &stacks {
            if !stack.is_empty() {
                return Err(format!("thread {t} ended with {} span(s) open", stack.len()));
            }
        }
        Ok(())
    }

    /// Roll the whole report up into per-span-name totals plus counters.
    #[must_use]
    pub fn aggregate(&self) -> TraceAggregate {
        let mut agg = TraceAggregate::default();
        for s in self.spans() {
            agg.add_span(&s);
        }
        agg.counters = self
            .counters
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect();
        agg
    }

    /// One [`TraceAggregate`] per span named `root` (each covering that
    /// span's whole subtree, the root included). Results are ordered by
    /// the root's numeric `rep` field when present — the §III-B protocol
    /// stamps its repeat spans with one, which keeps per-repeat samples
    /// aligned between a stored baseline and a re-run even when a work
    /// pool finished the repeats out of order — and by enter time
    /// otherwise. Counters are session-global, so per-subtree aggregates
    /// carry none.
    #[must_use]
    pub fn aggregates_under(&self, root: &str) -> Vec<TraceAggregate> {
        fn walk(nodes: &[SpanNode], root: &str, out: &mut Vec<(f64, u64, TraceAggregate)>) {
            for n in nodes {
                if n.record.name == root {
                    let mut agg = TraceAggregate::default();
                    agg.add_subtree(n);
                    let rep = n.record.field_f64("rep").unwrap_or(f64::INFINITY);
                    out.push((rep, n.record.t_enter_ns, agg));
                } else {
                    walk(&n.children, root, out);
                }
            }
        }
        let mut found: Vec<(f64, u64, TraceAggregate)> = Vec::new();
        walk(&self.span_tree(), root, &mut found);
        found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        found.into_iter().map(|(_, _, agg)| agg).collect()
    }

    /// Render the report in the Prometheus text exposition format
    /// (version 0.0.4): counters as `vpp_<name>_total`, gauges as
    /// `vpp_<name>`, histograms as cumulative `vpp_<name>_bucket` series,
    /// and the per-span-name [`TraceReport::aggregate`] as a
    /// `vpp_span_duration_seconds` summary with a `span` label (open spans
    /// count with zero duration). Metric names are sanitised to the
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*` charset (the dots of the trace
    /// vocabulary become underscores); label values are escaped per the
    /// exposition spec. Counters only grow while a session runs, so the
    /// exposition of successive live snapshots is scrape-safe.
    #[must_use]
    pub fn to_prom(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let metric = format!("vpp_{}_total", prom_name(name));
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {v}");
        }
        for (name, v) in &self.gauges {
            let metric = format!("vpp_{}", prom_name(name));
            let _ = writeln!(out, "# TYPE {metric} gauge");
            let _ = writeln!(out, "{metric} {}", prom_f64(*v));
        }
        for (name, h) in &self.histograms {
            let metric = format!("vpp_{}", prom_name(name));
            let _ = writeln!(out, "# TYPE {metric} histogram");
            h.to_prom_lines(&metric, "", &mut out);
        }
        let spans = self.aggregate().spans;
        if !spans.is_empty() {
            let _ = writeln!(out, "# TYPE vpp_span_duration_seconds summary");
            for s in &spans {
                let label = prom_label_value(&s.name);
                let _ = writeln!(
                    out,
                    "vpp_span_duration_seconds_count{{span=\"{label}\"}} {}",
                    s.count
                );
                let _ = writeln!(
                    out,
                    "vpp_span_duration_seconds_sum{{span=\"{label}\"}} {}",
                    prom_f64(s.wall_ns as f64 / 1e9)
                );
            }
        }
        out
    }

    /// Serialise the report as a JSON value: span forest, marks, counters,
    /// gauges and the dropped-event count.
    #[must_use]
    pub fn to_json(&self) -> Value {
        fn fields_json(fields: &[Field]) -> Value {
            Value::Obj(
                fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.to_json()))
                    .collect(),
            )
        }
        fn node_json(n: &SpanNode) -> Value {
            let mut obj = vec![
                ("name".to_string(), Value::Str(n.record.name.to_string())),
                ("id".to_string(), Value::Num(n.record.id as f64)),
                ("thread".to_string(), Value::Num(f64::from(n.record.thread))),
                (
                    "t_enter_ns".to_string(),
                    Value::Num(n.record.t_enter_ns as f64),
                ),
            ];
            if let Some(t) = n.record.t_exit_ns {
                obj.push(("t_exit_ns".to_string(), Value::Num(t as f64)));
            }
            obj.push(("fields".to_string(), fields_json(&n.record.fields)));
            obj.push((
                "children".to_string(),
                Value::Arr(n.children.iter().map(node_json).collect()),
            ));
            Value::Obj(obj)
        }
        let marks = self
            .marks()
            .iter()
            .map(|m| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(m.name.to_string())),
                    ("t_ns".to_string(), Value::Num(m.t_ns as f64)),
                    ("thread".to_string(), Value::Num(f64::from(m.thread))),
                    ("fields".to_string(), fields_json(&m.fields)),
                ])
            })
            .collect();
        Value::Obj(vec![
            (
                "spans".to_string(),
                Value::Arr(self.span_tree().iter().map(node_json).collect()),
            ),
            ("marks".to_string(), Value::Arr(marks)),
            (
                "counters".to_string(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| ((*k).to_string(), h.to_json()))
                        .collect(),
                ),
            ),
            ("dropped".to_string(), Value::Num(self.dropped as f64)),
        ])
    }

    /// Serialise the raw event stream as JSON Lines: one compact JSON
    /// object per event ([`Event::to_json`]), in report order. Every line
    /// re-parses with [`crate::json::parse`]; counters and gauges are not
    /// events and live in [`TraceReport::to_json`] /
    /// [`TraceReport::to_prom`] instead.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json().compact());
            out.push('\n');
        }
        out
    }

    /// Serialise spans and marks as CSV with header
    /// `kind,name,id,parent,thread,t_ns,dur_ns,fields`. Field bags are
    /// `;`-joined `key=value` pairs inside one RFC-4180 quoted cell
    /// (embedded `"` doubled; commas and newlines survive verbatim).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,id,parent,thread,t_ns,dur_ns,fields\n");
        for s in self.spans() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let dur = s.duration_ns().map_or(String::new(), |d| d.to_string());
            out.push_str(&format!(
                "span,{},{},{},{},{},{},{}\n",
                s.name,
                s.id,
                parent,
                s.thread,
                s.t_enter_ns,
                dur,
                csv_fields_cell(&s.fields)
            ));
        }
        for m in self.marks() {
            out.push_str(&format!(
                "mark,{},,,{},{},,{}\n",
                m.name,
                m.thread,
                m.t_ns,
                csv_fields_cell(&m.fields)
            ));
        }
        out
    }
}

/// The one source of truth for trace export formats, shared by
/// `vpp trace --format`, the `serve` module's `/trace` endpoint and the
/// [`TraceReport`] exporters. Parsing ([`std::str::FromStr`]) and
/// rendering ([`fmt::Display`]) round-trip through [`ExportFormat::name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExportFormat {
    /// Human-readable span tree (interactive CLI rendering only — not a
    /// serialisation; [`TraceReport::render`] returns `None` for it).
    Tree,
    /// RFC-4180 CSV of spans and marks ([`TraceReport::to_csv`]).
    Csv,
    /// Pretty JSON document ([`TraceReport::to_json`]).
    Json,
    /// One compact JSON event per line ([`TraceReport::to_jsonl`]).
    Jsonl,
    /// Prometheus text exposition ([`TraceReport::to_prom`]).
    Prom,
}

impl ExportFormat {
    /// Every format, in `--help` listing order.
    pub const ALL: [ExportFormat; 5] = [
        ExportFormat::Tree,
        ExportFormat::Csv,
        ExportFormat::Json,
        ExportFormat::Jsonl,
        ExportFormat::Prom,
    ];

    /// Canonical lower-case name — the token [`std::str::FromStr`] accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExportFormat::Tree => "tree",
            ExportFormat::Csv => "csv",
            ExportFormat::Json => "json",
            ExportFormat::Jsonl => "jsonl",
            ExportFormat::Prom => "prom",
        }
    }

    /// `tree|csv|json|jsonl|prom` — for usage and error messages.
    #[must_use]
    pub fn choices() -> String {
        Self::ALL
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join("|")
    }

    /// MIME type for HTTP responses carrying this format.
    #[must_use]
    pub fn content_type(self) -> &'static str {
        match self {
            ExportFormat::Tree => "text/plain; charset=utf-8",
            ExportFormat::Csv => "text/csv; charset=utf-8",
            ExportFormat::Json => "application/json",
            ExportFormat::Jsonl => "application/x-ndjson",
            ExportFormat::Prom => "text/plain; version=0.0.4; charset=utf-8",
        }
    }
}

impl fmt::Display for ExportFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ExportFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .iter()
            .copied()
            .find(|f| f.name() == s)
            .ok_or_else(|| format!("unknown format '{s}' (expected {})", Self::choices()))
    }
}

impl TraceReport {
    /// Serialise the report in `fmt`. Returns `None` for
    /// [`ExportFormat::Tree`], which is an interactive rendering the CLI
    /// owns, not a serialisation of the report.
    #[must_use]
    pub fn render(&self, fmt: ExportFormat) -> Option<String> {
        match fmt {
            ExportFormat::Tree => None,
            ExportFormat::Csv => Some(self.to_csv()),
            ExportFormat::Json => {
                let mut doc = self.to_json().pretty();
                doc.push('\n');
                Some(doc)
            }
            ExportFormat::Jsonl => Some(self.to_jsonl()),
            ExportFormat::Prom => Some(self.to_prom()),
        }
    }
}

/// RFC-4180 quoting for the CSV `fields` cell: the cell is always quoted
/// and embedded quotes are doubled, so commas, newlines and `"` in field
/// values round-trip instead of being rewritten.
fn csv_fields_cell(fields: &[Field]) -> String {
    let joined = fields
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";");
    format!("\"{}\"", joined.replace('"', "\"\""))
}

/// Per-span-name totals over one trace (or one span subtree): how many
/// times the span ran, its wall-clock cost, and — where the span carries
/// the executor's `sim_t0`/`sim_t1`/`energy_j` fields — the simulated
/// duration and attributed energy. This is the unit a trace baseline
/// stores and `vpp trace diff` compares.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name (`phase.scf_iter`, `job.collective`, …).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total wall-clock nanoseconds (closed spans only).
    pub wall_ns: u64,
    /// Total simulated seconds (spans carrying a sim-time window).
    pub sim_s: f64,
    /// Total attributed energy, joules (spans carrying `energy_j`).
    pub energy_j: f64,
}

/// A rolled-up trace: per-span-name [`SpanStat`]s plus (for whole-report
/// aggregates) the session's counters. Serialises to/from the JSON stored
/// in `BENCH_results.json` baselines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceAggregate {
    /// Per-name totals, sorted by name.
    pub spans: Vec<SpanStat>,
    /// Session counters (empty for per-subtree aggregates — counters are
    /// session-global and cannot be attributed to one subtree).
    pub counters: BTreeMap<String, u64>,
}

impl TraceAggregate {
    fn stat_mut(&mut self, name: &str) -> &mut SpanStat {
        match self.spans.binary_search_by(|s| s.name.as_str().cmp(name)) {
            Ok(i) => &mut self.spans[i],
            Err(i) => {
                self.spans.insert(
                    i,
                    SpanStat {
                        name: name.to_string(),
                        count: 0,
                        wall_ns: 0,
                        sim_s: 0.0,
                        energy_j: 0.0,
                    },
                );
                &mut self.spans[i]
            }
        }
    }

    fn add_span(&mut self, s: &SpanRecord) {
        let energy = s.field_f64("energy_j").unwrap_or(0.0);
        let sim = s.sim_duration_s().unwrap_or(0.0);
        let stat = self.stat_mut(s.name);
        stat.count += 1;
        stat.wall_ns += s.duration_ns().unwrap_or(0);
        stat.sim_s += sim;
        stat.energy_j += energy;
    }

    fn add_subtree(&mut self, node: &SpanNode) {
        self.add_span(&node.record);
        for c in &node.children {
            self.add_subtree(c);
        }
    }

    /// The stat for a span name, if any span with that name was seen.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans
            .binary_search_by(|s| s.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.spans[i])
    }

    /// All span names in this aggregate, sorted.
    #[must_use]
    pub fn span_names(&self) -> Vec<&str> {
        self.spans.iter().map(|s| s.name.as_str()).collect()
    }

    /// Serialise for `BENCH_results.json`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "spans".to_string(),
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::Obj(vec![
                                ("name".to_string(), Value::Str(s.name.clone())),
                                ("count".to_string(), Value::Num(s.count as f64)),
                                ("wall_ns".to_string(), Value::Num(s.wall_ns as f64)),
                                ("sim_s".to_string(), Value::Num(s.sim_s)),
                                ("energy_j".to_string(), Value::Num(s.energy_j)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".to_string(),
                Value::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse an aggregate previously written by [`TraceAggregate::to_json`].
    ///
    /// # Errors
    /// Describes the first missing or mistyped member.
    pub fn from_json(v: &Value) -> Result<TraceAggregate, String> {
        let mut agg = TraceAggregate::default();
        let spans = v
            .get("spans")
            .and_then(Value::as_arr)
            .ok_or("aggregate: missing 'spans' array")?;
        for s in spans {
            let name = s
                .get("name")
                .and_then(Value::as_str)
                .ok_or("aggregate span: missing 'name'")?;
            let num = |key: &str| -> Result<f64, String> {
                s.get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("aggregate span '{name}': missing '{key}'"))
            };
            let stat = agg.stat_mut(name);
            stat.count = num("count")? as u64;
            stat.wall_ns = num("wall_ns")? as u64;
            stat.sim_s = num("sim_s")?;
            stat.energy_j = num("energy_j")?;
        }
        if let Some(Value::Obj(members)) = v.get("counters") {
            for (k, v) in members {
                let n = v
                    .as_f64()
                    .ok_or_else(|| format!("aggregate counter '{k}': not a number"))?;
                agg.counters.insert(k.clone(), n as u64);
            }
        }
        Ok(agg)
    }
}

/// Sanitise a trace name into the Prometheus metric-name charset.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escape a label value per the exposition format: `\`, `"`, newline.
pub(crate) fn prom_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Prometheus float rendering (`+Inf`/`-Inf`/`NaN` spellings).
fn prom_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_records_nothing_and_skips_field_closures() {
        assert!(!enabled());
        let mut closure_ran = false;
        {
            let mut g = SpanGuard::open("never", || {
                closure_ran = true;
                vec![]
            });
            g.record("x", 1u64);
            counter("never.count", 5);
            gauge("never.gauge", 1.0);
            mark("never.mark");
        }
        assert!(!closure_ran, "field closure must not run when disabled");
    }

    #[test]
    fn session_captures_spans_counters_gauges_and_marks() {
        let s = session(256);
        {
            let mut outer = span!("outer", nodes = 4, name = "Si256_hse");
            {
                let _inner = span!("inner", watts = 2.5);
                mark_with("tick", || vec![("i", FieldValue::from(7u64))]);
            }
            counter("c.events", 2);
            counter("c.events", 3);
            gauge("g.last", 1.0);
            gauge("g.last", 4.5);
            outer.record("done", true);
        }
        let report = s.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        assert_eq!(report.dropped, 0);
        assert_eq!(report.counters["c.events"], 5);
        assert!((report.gauges["g.last"] - 4.5).abs() < 1e-12);

        let spans = report.spans();
        assert_eq!(spans.len(), 2);
        let outer = &spans[0];
        let inner = &spans[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(outer.field_f64("nodes"), Some(4.0));
        assert_eq!(outer.field("name").and_then(FieldValue::as_str), Some("Si256_hse"));
        assert_eq!(outer.field("done"), Some(&FieldValue::Bool(true)));
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.t_enter_ns >= outer.t_enter_ns);
        assert!(inner.t_exit_ns.unwrap() <= outer.t_exit_ns.unwrap());

        let tree = report.span_tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].record.name, "outer");
        assert_eq!(tree[0].children.len(), 1);
        assert_eq!(tree[0].children[0].record.name, "inner");

        assert_eq!(report.marks().len(), 1);
        assert_eq!(report.marks()[0].name, "tick");
    }

    #[test]
    fn untraced_records_nothing_and_restores_the_binding() {
        let s = session(256);
        let mut outer = span!("outer");
        let bound_inside = untraced(|| {
            let mut g = span!("hidden", n = 1u64);
            g.record("x", 2u64);
            counter("hidden.count", 1);
            gauge("hidden.gauge", 1.0);
            histogram("hidden.hist", 1.0);
            mark("hidden.mark");
            enabled()
        });
        assert!(!bound_inside, "no session is bound inside");
        assert!(enabled(), "the binding is back after a return");
        let unwound = std::panic::catch_unwind(|| untraced(|| -> u8 { panic!("inside") }));
        assert!(unwound.is_err());
        assert!(enabled(), "the binding is back after an unwind");
        {
            let _inner = span!("inner");
            counter("after.count", 1);
        }
        outer.record("done", true);
        drop(outer);
        let report = s.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        let spans = report.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(spans[1].parent, Some(spans[0].id), "nesting survives");
        assert!(report.marks().is_empty());
        assert_eq!(report.counters.keys().copied().collect::<Vec<_>>(), ["after.count"]);
        assert!(report.gauges.is_empty());
        assert!(report.histograms.is_empty());
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let s = session(3);
        for _ in 0..4 {
            mark("m");
        }
        let report = s.finish();
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.dropped, 1);
        assert!(report.well_formed().is_err());
    }

    #[test]
    fn sessions_do_not_leak_across_finish() {
        let s = session(16);
        mark("first");
        let r1 = s.finish();
        assert_eq!(r1.events.len(), 1);
        mark("between"); // disabled: dropped silently
        let s2 = session(16);
        mark("second");
        let r2 = s2.finish();
        assert_eq!(r2.events.len(), 1);
        assert_eq!(r2.events[0].name, "second");
    }

    #[test]
    fn cross_thread_spans_have_independent_parents() {
        let s = session(1024);
        let sess: &LocalSession = &s;
        {
            let _root = span!("root");
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let _bind = sess.bind();
                        let _w = span!("worker");
                    });
                }
            });
        }
        let report = s.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        let spans = report.spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        // Worker threads have no enclosing span on their own thread.
        assert!(workers.iter().all(|w| w.parent.is_none()));
        // Thread ordinals are small and distinct from the main thread's.
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        assert!(workers.iter().all(|w| w.thread != root.thread));
    }

    #[test]
    fn buffered_appends_survive_unflushed_threads_and_preserve_order() {
        // Hundreds of events on the main thread plus worker threads that
        // end right after their last mark: everything must land in the
        // report, per-thread order intact (well_formed checks the
        // Enter/Exit pairing per thread).
        let s = session(1 << 14);
        let sess: &LocalSession = &s;
        {
            let _root = span!("root");
            for _ in 0..(256 + 17) {
                let _m = span!("main.iter");
            }
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    scope.spawn(|| {
                        let _bind = sess.bind();
                        for _ in 0..5 {
                            let _w = span!("worker.iter");
                        }
                        mark("worker.done");
                    });
                }
            });
        }
        let report = s.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        let spans = report.spans();
        assert_eq!(
            spans.iter().filter(|s| s.name == "main.iter").count(),
            256 + 17
        );
        assert_eq!(spans.iter().filter(|s| s.name == "worker.iter").count(), 15);
        assert_eq!(report.marks().len(), 3);
        // Timestamps are globally sorted.
        assert!(report.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn json_and_csv_exports_are_consistent() {
        let s = session(64);
        {
            let _g = span!("export.span", bytes = 1024u64);
            mark("export.mark");
        }
        counter_snapshot_helper();
        let report = s.finish();
        let json = report.to_json();
        let spans = json.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").and_then(Value::as_str),
            Some("export.span")
        );
        let reparsed = crate::json::parse(&json.pretty()).expect("valid JSON");
        assert_eq!(
            reparsed
                .get("counters")
                .and_then(|c| c.get("export.count"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        let csv = report.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("kind,name,id,parent,thread,t_ns,dur_ns,fields"));
        assert!(csv.contains("span,export.span"));
        assert!(csv.contains("mark,export.mark"));
    }

    fn counter_snapshot_helper() {
        counter("export.count", 2);
    }

    #[test]
    fn csv_fields_use_rfc4180_escaping() {
        let s = session(64);
        {
            let _g = span!("csv.span", label = "a\"b,c\nd");
        }
        let report = s.finish();
        let csv = report.to_csv();
        // The quote is doubled, the comma and newline survive verbatim.
        assert!(
            csv.contains("\"label=a\"\"b,c\nd\""),
            "cell must be RFC-4180 quoted: {csv}"
        );
        // Round-trip through a small RFC-4180 reader: the data row's
        // quoted cell reassembles the original value.
        let body = csv.strip_prefix("kind,name,id,parent,thread,t_ns,dur_ns,fields\n").unwrap();
        let cells = parse_csv_record(body);
        assert_eq!(cells[0], "span");
        assert_eq!(cells[1], "csv.span");
        assert_eq!(cells.last().unwrap(), "label=a\"b,c\nd");
    }

    /// Minimal RFC-4180 record reader (quoted cells, doubled quotes,
    /// embedded commas/newlines) for the round-trip test.
    fn parse_csv_record(text: &str) -> Vec<String> {
        let mut cells = vec![String::new()];
        let mut chars = text.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if !quoted => quoted = true,
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cells.last_mut().unwrap().push('"');
                    } else {
                        quoted = false;
                    }
                }
                ',' if !quoted => cells.push(String::new()),
                '\n' if !quoted => break,
                c => cells.last_mut().unwrap().push(c),
            }
        }
        cells
    }

    #[test]
    fn jsonl_lines_reparse_to_the_event_encoding() {
        let s = session(64);
        {
            let mut g = span!("line.span", bytes = 7u64, label = "x,\"y\"");
            mark_with("line.mark", || vec![("ok", true.into())]);
            g.record("result", 1.5);
        }
        let report = s.finish();
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), report.events.len());
        for (line, ev) in lines.iter().zip(&report.events) {
            let parsed = crate::json::parse(line).expect("line parses");
            assert_eq!(parsed, ev.to_json(), "line {line}");
        }
    }

    #[test]
    fn aggregate_rolls_up_per_name_totals() {
        let s = session(256);
        {
            let _outer = span!("agg.outer");
            for i in 0..3u64 {
                let mut g = span!("agg.phase", sim_t0 = i as f64);
                g.record("sim_t1", i as f64 + 2.0);
                g.record("energy_j", 10.0);
            }
        }
        counter("agg.count", 4);
        let report = s.finish();
        let agg = report.aggregate();
        let phase = agg.span("agg.phase").unwrap();
        assert_eq!(phase.count, 3);
        assert!((phase.sim_s - 6.0).abs() < 1e-12);
        assert!((phase.energy_j - 30.0).abs() < 1e-12);
        assert_eq!(agg.counters["agg.count"], 4);
        assert_eq!(agg.span("agg.outer").unwrap().count, 1);

        let back = TraceAggregate::from_json(&agg.to_json()).unwrap();
        assert_eq!(back, agg);
    }

    #[test]
    fn aggregates_under_orders_by_rep_field() {
        let s = session(256);
        {
            // Repeats recorded out of order, as a pool would.
            for rep in [2u64, 0, 1] {
                let _r = span!("agg.rep", rep = rep);
                let mut p = span!("agg.inner", sim_t0 = 0.0);
                p.record("sim_t1", (rep + 1) as f64);
            }
        }
        let report = s.finish();
        let samples = report.aggregates_under("agg.rep");
        assert_eq!(samples.len(), 3);
        let sims: Vec<f64> = samples
            .iter()
            .map(|a| a.span("agg.inner").unwrap().sim_s)
            .collect();
        assert_eq!(sims, vec![1.0, 2.0, 3.0], "sorted by rep, not record order");
        assert!(samples.iter().all(|a| a.counters.is_empty()));
    }

    #[test]
    fn prom_exposition_is_well_formed() {
        let s = session(64);
        {
            let _g = span!("prom.span");
        }
        counter("prom.hits", 3);
        gauge("prom.overshoot_w", 1.25);
        let report = s.finish();
        let prom = report.to_prom();
        assert!(prom.contains("# TYPE vpp_prom_hits_total counter"));
        assert!(prom.contains("vpp_prom_hits_total 3"));
        assert!(prom.contains("# TYPE vpp_prom_overshoot_w gauge"));
        assert!(prom.contains("vpp_prom_overshoot_w 1.25"));
        assert!(prom.contains("vpp_span_duration_seconds_count{span=\"prom.span\"} 1"));
    }

    #[test]
    fn prom_exposition_survives_hostile_names() {
        let s = session(64);
        {
            let _g = span!("evil\"span\nname{}");
        }
        counter("evil metric-name{inject=\"1\"}", 2);
        gauge("99 problems", 1.0);
        let report = s.finish();
        let prom = report.to_prom();
        // Characters outside [a-zA-Z0-9_:] collapse to underscores and a
        // leading digit gets a guard, so the injected label syntax never
        // reaches the metric name.
        assert!(prom.contains("vpp_evil_metric_name_inject__1___total 2"), "{prom}");
        assert!(prom.contains("vpp__99_problems 1"), "{prom}");
        // The hostile span name is escaped inside its label value: the
        // quote and newline cannot break out of the quoted string.
        assert!(prom.contains("span=\"evil\\\"span\\nname{}\""), "{prom}");
        // Every sample line still parses as `name{...} value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line shape");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
        }
    }

    #[test]
    fn live_snapshot_is_non_draining_and_sees_open_spans() {
        let s = session(4096);
        let live = {
            let mut g = span!("live.outer", nodes = 2);
            counter("live.ticks", 3);
            gauge("live.coverage", 0.75);
            let live = s.snapshot();
            g.record("done", true);
            live
        };
        // The open span is visible with its Enter only.
        let spans = live.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "live.outer");
        assert!(spans[0].t_exit_ns.is_none(), "span was still open");
        assert_eq!(live.counters["live.ticks"], 3);
        let metrics = s.snapshot();
        assert!((metrics.gauges["live.coverage"] - 0.75).abs() < 1e-12);
        assert!(metrics.aggregate().span("live.outer").is_some());
        // The snapshot drained nothing: finish still sees everything.
        let report = s.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        assert_eq!(report.spans().len(), 1);
        assert_eq!(report.counters["live.ticks"], 3);
        assert!(!enabled(), "finish unbinds the session");
    }

    #[test]
    fn live_snapshot_under_concurrent_writers_does_not_deadlock() {
        // Writers append under the session lock while the main thread
        // snapshots under the same lock; this storms both paths together.
        let s = session(1 << 16);
        let sess: &LocalSession = &s;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _bind = sess.bind();
                    for _ in 0..(2 * 256) {
                        let _g = span!("storm.iter");
                    }
                });
            }
            for _ in 0..50 {
                let _ = sess.snapshot();
            }
        });
        let report = s.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        assert_eq!(
            report.spans().iter().filter(|s| s.name == "storm.iter").count(),
            4 * 2 * 256
        );
    }

    #[test]
    fn export_format_round_trips_and_renders() {
        for fmt in ExportFormat::ALL {
            let back: ExportFormat = fmt.name().parse().expect("canonical name parses");
            assert_eq!(back, fmt);
            assert_eq!(format!("{fmt}"), fmt.name());
        }
        assert!("yaml".parse::<ExportFormat>().is_err());
        assert_eq!(ExportFormat::choices(), "tree|csv|json|jsonl|prom");

        let s = session(64);
        {
            let _g = span!("render.span");
        }
        counter("render.hits", 1);
        let report = s.finish();
        assert!(report.render(ExportFormat::Tree).is_none());
        assert_eq!(
            report.render(ExportFormat::Csv).unwrap(),
            report.to_csv()
        );
        assert_eq!(
            report.render(ExportFormat::Jsonl).unwrap(),
            report.to_jsonl()
        );
        assert!(report
            .render(ExportFormat::Json)
            .unwrap()
            .contains("render.span"));
        assert!(report
            .render(ExportFormat::Prom)
            .unwrap()
            .contains("vpp_render_hits_total 1"));
    }

    #[test]
    fn live_snapshot_counters_are_monotone() {
        let s = session(64);
        counter("mono.ticks", 2);
        let first = s.snapshot();
        counter("mono.ticks", 3);
        {
            let _g = span!("mono.span");
        }
        let second = s.snapshot();
        let _ = s.finish();
        assert_eq!(first.counters["mono.ticks"], 2);
        assert_eq!(second.counters["mono.ticks"], 5);
        assert!(first.aggregate().spans.is_empty());
        assert!(
            second.aggregate().span("mono.span").is_some(),
            "live snapshots carry span summaries"
        );
    }

    #[test]
    fn concurrent_local_sessions_record_disjoint_traces() {
        let a = local_session(1 << 12);
        let b = local_session(1 << 12);
        std::thread::scope(|scope| {
            let run = |sess: &LocalSession, name: &'static str, n: usize| {
                let sess = sess.clone();
                scope.spawn(move || {
                    let _bind = sess.bind();
                    for _ in 0..n {
                        let _g = span!(name);
                        counter(name, 1);
                    }
                });
            };
            run(&a, "tenant.a", 300);
            run(&b, "tenant.b", 500);
        });
        let ra = a.finish();
        let rb = b.finish();
        assert!(ra.well_formed().is_ok());
        assert!(rb.well_formed().is_ok());
        assert_eq!(ra.spans().len(), 300);
        assert_eq!(rb.spans().len(), 500);
        assert!(ra.spans().iter().all(|s| s.name == "tenant.a"));
        assert!(rb.spans().iter().all(|s| s.name == "tenant.b"));
        assert_eq!(ra.counters["tenant.a"], 300);
        assert!(!ra.counters.contains_key("tenant.b"));
        assert_eq!(rb.counters["tenant.b"], 500);
    }

    #[test]
    fn local_binding_shadows_and_restores() {
        let names = |r: &TraceReport| r.marks().iter().map(|m| m.name).collect::<Vec<_>>();
        assert!(!enabled());
        let outer = session(64);
        mark("outer.before");
        let local = local_session(64);
        {
            let _bind = local.bind();
            mark("local.mark");
        }
        // A second session on the same thread shadows the first too.
        let inner = session(64);
        mark("inner.mark");
        let inner = inner.finish();
        mark("outer.after");
        let outer = outer.finish();
        assert!(!enabled(), "finishing the outer session unbinds the thread");
        mark("after.unbind"); // nothing bound: dropped silently
        assert_eq!(names(&outer), ["outer.before", "outer.after"]);
        assert_eq!(names(&local.finish()), ["local.mark"]);
        assert_eq!(names(&inner), ["inner.mark"]);
    }

    #[test]
    fn sessions_stay_on_their_thread_and_pass_to_pool_workers() {
        // A thread started with std::thread::spawn sees none of the
        // caller's session, and can run its own alongside it.
        let s = session(1 << 12);
        mark("caller.mark");
        let theirs = std::thread::spawn(|| {
            assert!(!enabled(), "a spawned thread inherits no session");
            mark("spawned.unbound");
            let own = session(64);
            mark("spawned.own");
            own.finish()
        })
        .join()
        .expect("spawned thread");
        assert_eq!(theirs.marks().len(), 1);
        assert_eq!(theirs.marks()[0].name, "spawned.own");

        // Pool workers inherit the caller's session for the scope.
        let on = crate::pool::par_map((0..32u64).collect(), |i| {
            let _g = span!("pool.item", i = i);
            enabled()
        });
        assert!(on.iter().all(|e| *e), "every worker records");
        let report = s.finish();
        assert!(report.well_formed().is_ok(), "{:?}", report.well_formed());
        let marks: Vec<&str> = report.marks().iter().map(|m| m.name).collect();
        assert_eq!(
            marks,
            ["caller.mark"],
            "the spawned thread's marks stay out"
        );
        let items: Vec<SpanRecord> = report
            .spans()
            .into_iter()
            .filter(|sp| sp.name == "pool.item")
            .collect();
        assert_eq!(items.len(), 32);
        if crate::pool::workers_for(32) > 1 {
            // A fanned-out par_map runs every item on a worker thread.
            let caller = report.marks()[0].thread;
            assert!(
                items.iter().all(|sp| sp.thread != caller),
                "items ran on workers"
            );
        }

        // With no session bound, the workers record nothing.
        let off = crate::pool::par_map((0..32u64).collect(), |_| enabled());
        assert!(off.iter().all(|e| !*e));
    }

    #[test]
    fn local_binding_releases_the_recorder_on_teardown() {
        // A long-lived thread must not pin a finished session's recorder
        // in its thread-local state: once the binding and the session are
        // gone, every allocation must actually free (this is what makes a
        // registry's TTL eviction reclaim memory).
        let sess = local_session(64);
        let weak_rec = Arc::downgrade(&sess.rec);
        {
            let _bind = sess.bind();
            mark("teardown.mark");
            let _g = span!("teardown.span");
            histogram("teardown_watts", 300.0);
        }
        // Binding dropped: only the session holds the recorder.
        assert!(weak_rec.upgrade().is_some());
        drop(sess);
        assert!(
            weak_rec.upgrade().is_none(),
            "recorder outlived binding + session"
        );
    }

    #[test]
    fn sequence_numbers_are_dense_in_admission_order() {
        let sess = local_session(1 << 12);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sess = sess.clone();
                scope.spawn(move || {
                    let _bind = sess.bind();
                    for _ in 0..200 {
                        mark("seq.mark");
                    }
                });
            }
        });
        let admitted = sess.admitted();
        assert_eq!(admitted, 800);
        // The finished report is already in seq and t_ns order: both are
        // stamped under the session lock at append.
        let events = sess.finish().events;
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..800).collect::<Vec<u64>>());
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn cursor_chunks_deliver_each_event_exactly_once() {
        let sess = local_session(1 << 14);
        let reader = sess.clone();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let sess = sess.clone();
                scope.spawn(move || {
                    let _bind = sess.bind();
                    for _ in 0..(256 + 37) {
                        mark("cursor.mark");
                    }
                });
            }
            // Poll concurrently with the writers: chunks must never skip
            // or repeat a seq even while events are still in flight.
            let mut seen: Vec<u64> = Vec::new();
            let mut cursor = 0u64;
            loop {
                let chunk = reader.events_after(cursor, 64);
                assert!(chunk.events.len() <= 64);
                for (i, ev) in chunk.events.iter().enumerate() {
                    assert_eq!(ev.seq, cursor + i as u64, "contiguous from cursor");
                }
                seen.extend(chunk.events.iter().map(|e| e.seq));
                cursor = chunk.next;
                if !chunk.more && seen.len() as u64 >= 3 * (256 + 37) {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(seen, (0..3 * (256 + 37)).collect::<Vec<u64>>());
        });
        assert_eq!(sess.dropped(), 0);
    }

    #[test]
    fn cursor_follower_gets_past_a_drain() {
        // A clone that outlives `finish` keeps recording with seqs that
        // carry on from the drained ones; a follower polling from 0 must
        // reach the new events instead of waiting for drained seqs.
        let sess = local_session(64);
        let clone = sess.clone();
        {
            let _bind = sess.bind();
            for _ in 0..10 {
                mark("drain.before");
            }
        }
        assert_eq!(sess.finish().events.len(), 10);
        {
            let _bind = clone.bind();
            for _ in 0..5 {
                mark("drain.after");
            }
        }
        let mut seen: Vec<u64> = Vec::new();
        let mut cursor = 0u64;
        let mut more = true;
        // Bounded, so a follower stuck before the drained seqs fails the
        // test instead of spinning.
        for _ in 0..16 {
            let chunk = clone.events_after(cursor, 64);
            seen.extend(chunk.events.iter().map(|e| e.seq));
            cursor = chunk.next;
            more = chunk.more;
            if !more {
                break;
            }
        }
        assert_eq!(seen, (10..15).collect::<Vec<u64>>());
        assert!(!more, "the follower caught up");
    }

    #[test]
    fn histogram_records_fold_across_threads_and_render_prom() {
        let sess = local_session(1 << 10);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sess = sess.clone();
                scope.spawn(move || {
                    let _bind = sess.bind();
                    for i in 0..100u64 {
                        // Values straddle the 200 W edge deterministically.
                        let v = if (t + i) % 4 == 0 { 80.0 } else { 340.0 };
                        crate::histogram!("power_watts", v);
                    }
                    histogram_count("power_watts", 65.0, 10);
                });
            }
        });
        let report = sess.finish();
        let h = &report.histograms["power_watts"];
        assert_eq!(h.bounds(), POWER_WATTS_BUCKETS);
        assert_eq!(h.count(), 4 * 100 + 4 * 10);
        let lo = 4 * 25 + 40; // 100 per-thread values, every 4th low, plus the weighted 65 W
        let hi = 4 * 75;
        assert!((h.fraction_above(HIGH_POWER_THRESHOLD_W) - hi as f64 / (lo + hi) as f64).abs() < 1e-12);
        let expected_sum = (lo - 40) as f64 * 80.0 + 40.0 * 65.0 + hi as f64 * 340.0;
        assert!((h.sum() - expected_sum).abs() < 1e-6);

        let prom = report.to_prom();
        assert!(prom.contains("# TYPE vpp_power_watts histogram"), "{prom}");
        assert!(prom.contains("vpp_power_watts_bucket{le=\"+Inf\"} 440"), "{prom}");
        assert!(prom.contains("vpp_power_watts_count 440"), "{prom}");
        // Cumulative buckets are monotone and the 200 W edge carries
        // exactly the low-mode mass.
        assert!(prom.contains("vpp_power_watts_bucket{le=\"200\"} 140"), "{prom}");
    }

    #[test]
    fn histogram_disabled_records_nothing() {
        assert!(!enabled());
        crate::histogram!("never_watts", 100.0);
        histogram_count("never_watts", 100.0, 5);
        let sess = local_session(256);
        {
            let _bind = sess.bind();
        }
        assert!(sess.finish().histograms.is_empty());
    }

    #[test]
    fn histogram_drains_on_finish_and_surviving_clones_start_empty() {
        let sess = local_session(256);
        let clone = sess.clone();
        {
            let _bind = sess.bind();
            histogram("power_watts", 300.0);
        }
        let report = sess.finish();
        assert_eq!(report.histograms["power_watts"].count(), 1);
        // The drain emptied the histograms: a later snapshot through a
        // clone starts from empty rather than double counting.
        let again = clone.snapshot();
        assert_eq!(
            again.histograms.get("power_watts").map_or(0, Histogram::count),
            0
        );
    }

    #[test]
    fn histogram_merge_with_foreign_bounds_preserves_mass_in_overflow() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        let mut b = Histogram::new(&[10.0, 20.0]);
        b.observe(15.0);
        b.observe(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.counts()[2], 2, "foreign mass lands in +Inf");
        assert!((a.sum() - 18.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_index_uses_le_semantics() {
        let bounds = &[1.0, 2.0, 4.0];
        assert_eq!(bucket_index(bounds, 0.5), 0);
        assert_eq!(bucket_index(bounds, 1.0), 0, "le is inclusive");
        assert_eq!(bucket_index(bounds, 1.5), 1);
        assert_eq!(bucket_index(bounds, 4.0), 2);
        assert_eq!(bucket_index(bounds, 4.1), 3, "overflow bucket");
    }

    #[test]
    fn default_bounds_pick_per_metric_tables() {
        assert_eq!(default_bounds("power_watts"), POWER_WATTS_BUCKETS);
        assert_eq!(default_bounds("serve_request_seconds"), SECONDS_BUCKETS);
        assert_eq!(default_bounds("phase_sim_seconds"), SIM_SECONDS_BUCKETS);
        assert_eq!(default_bounds("queue_depth"), DEFAULT_BUCKETS);
    }

    #[test]
    fn journal_admission_is_dense_and_level_filtered() {
        let start = log_stats().next_seq;
        log_event(LogLevel::Info, "test.dense", "one", vec![]);
        log_event(LogLevel::Warn, "test.dense", "two", vec![("k", 7u64.into())]);
        log_event(LogLevel::Debug, "test.dense", "filtered", vec![]);
        let chunk = logs_after(start, 100, LogLevel::Debug);
        let mine: Vec<&LogRecord> = chunk
            .records
            .iter()
            .filter(|r| r.target == "test.dense")
            .collect();
        // Debug is below the Info admission level: never admitted.
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].message, "one");
        assert_eq!(mine[1].level, LogLevel::Warn);
        assert!(mine[1].seq > mine[0].seq);
        // Level filtering hides the info record but keeps seq order.
        let warn_only = logs_after(start, 100, LogLevel::Warn);
        assert!(warn_only
            .records
            .iter()
            .filter(|r| r.target == "test.dense")
            .all(|r| r.level >= LogLevel::Warn));
        // The jsonl line round-trips through the in-tree JSON parser.
        let line = mine[1].to_json().compact();
        let doc = crate::json::parse(&line).expect("record parses");
        assert_eq!(doc.get("level").and_then(Value::as_str), Some("warn"));
        assert_eq!(doc.get("fields").and_then(|f| f.get("k")).and_then(Value::as_f64), Some(7.0));
    }

    #[test]
    fn journal_concurrent_writers_never_tear_the_cursor_stream() {
        let start = log_stats().next_seq;
        const WRITERS: u64 = 4;
        const EACH: u64 = 200;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                scope.spawn(move || {
                    for i in 0..EACH {
                        crate::log_event!(Info, "test.concurrent", format!("{w}:{i}"));
                    }
                });
            }
        });
        let mut cursor = start;
        let mut mine: Vec<String> = Vec::new();
        let mut last_seq = None;
        loop {
            let chunk = logs_after(cursor, 97, LogLevel::Debug);
            for r in &chunk.records {
                assert!(Some(r.seq) > last_seq, "seqs strictly ascend across chunks");
                last_seq = Some(r.seq);
                if r.target == "test.concurrent" {
                    mine.push(r.message.clone());
                }
            }
            cursor = chunk.next;
            if !chunk.more {
                break;
            }
        }
        assert_eq!(mine.len() as u64, WRITERS * EACH, "each record exactly once");
        mine.sort();
        mine.dedup();
        assert_eq!(mine.len() as u64, WRITERS * EACH, "no duplicates");
    }
}

#[cfg(test)]
mod histogram_properties {
    use super::*;

    crate::properties! {
        /// Observations recorded from several threads must equal
        /// single-threaded accumulation of the same observations,
        /// regardless of how they are partitioned across threads.
        fn cross_thread_recording_equals_single_threaded_accumulation(rng) {
            let n_threads = 1 + rng.index(6);
            let per_thread: Vec<Vec<(f64, u64)>> = (0..n_threads)
                .map(|_| {
                    (0..rng.index(200))
                        .map(|_| (rng.uniform(0.0, 600.0), 1 + rng.index(4) as u64))
                        .collect()
                })
                .collect();

            let sess = local_session(64);
            std::thread::scope(|scope| {
                for obs in &per_thread {
                    let sess = sess.clone();
                    scope.spawn(move || {
                        let _bind = sess.bind();
                        for (v, n) in obs {
                            histogram_count("power_watts", *v, *n);
                        }
                    });
                }
            });
            let folded = sess.finish().histograms.remove("power_watts");

            let mut single = Histogram::new(POWER_WATTS_BUCKETS);
            for (v, n) in per_thread.iter().flatten() {
                single.observe_n(*v, *n);
            }
            match folded {
                Some(h) => {
                    assert_eq!(h.counts(), single.counts());
                    assert_eq!(h.count(), single.count());
                    assert!((h.sum() - single.sum()).abs() <= 1e-9 * single.sum().abs().max(1.0));
                }
                None => assert_eq!(single.count(), 0, "only an empty run may fold to nothing"),
            }
        }
    }
}
