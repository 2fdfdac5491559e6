//! Zero-dependency multi-tenant simulation service (DESIGN.md §3.7).
//!
//! A minimal HTTP/1.1 server over [`std::net::TcpListener`], modelled on
//! the pull-based collector stacks the paper's methodology uses
//! out-of-band (Cray PM → LDMS → OMNI): scrapers poll the process instead
//! of the process pushing samples. On top of the original read-only
//! observability endpoints, the server runs a bounded **job service**:
//!
//! * `POST /jobs` — submit a JSON job spec. The spec is validated by the
//!   installed [`JobHandler`] (the binary wires one that checks specs
//!   against the benchmark recipes), assigned an id and a dedicated
//!   [`trace::LocalSession`], and queued. At most `max_sessions` jobs run
//!   concurrently, each on its own thread with the session bound to it,
//!   so concurrent jobs produce disjoint traces. Replies `201` with a
//!   `Location` header and the job's status document.
//! * `GET /jobs` — registry listing: per-job id/state/workload plus
//!   running/queued counts.
//! * `GET /jobs/<id>` — full status: spec, state, timings, trace
//!   admission stats, result or error.
//! * `GET /jobs/<id>/trace?after=SEQ&limit=N` — **cursor-streamed**
//!   trace: a bounded jsonl chunk of events with `seq >= SEQ`, plus
//!   `X-Vpp-Next-Cursor` (pass back as `after`), `X-Vpp-More` (events
//!   beyond the chunk were already visible) and `X-Vpp-Job-State`
//!   headers. A follower polls until the state is terminal and `more` is
//!   false; each event is delivered exactly once across chunks, and no
//!   poll re-serialises the whole log.
//! * `GET /jobs/<id>/metrics` — the job session's own Prometheus
//!   exposition (counters, gauges, span summaries, admission stats).
//! * `DELETE /jobs/<id>` — cancel: a queued job is removed from the
//!   queue and terminal immediately; a running job gets its cooperative
//!   [`CancelToken`] set (`202`, the handler stops at its next check);
//!   an already-terminal job is a `409`.
//!
//! The service manages its own resource lifetimes:
//!
//! * **Keep-alive** — connections are persistent per RFC 9112 (the
//!   HTTP/1.1 default): one socket serves up to `MAX_CONN_REQUESTS`
//!   requests, bytes read past one body carry over as the next request's
//!   prefix (pipelining works), and the server closes when the client
//!   sends `Connection: close`, after a protocol error (`431`/`413`/
//!   `408` drain-and-close), or at the request cap. A request must arrive
//!   whole within the I/O timeout of its first byte, or it is answered
//!   `408`, so a client dripping bytes cannot hold a worker; a
//!   connection that never starts a request is closed quietly.
//! * **Retention bound** — every job that turns terminal joins one queue
//!   in finish order, and two triggers evict from its front: age past
//!   [`ServeConfig::job_ttl`] (default 15 min; `None` disables it), and
//!   more than 256 terminal jobs held at once. Eviction frees the jobs'
//!   session ring buffers; running and queued jobs are never evicted.
//!   Evicted ids answer `410 Gone` (not `404`), and evictions count in
//!   `vpp_serve_jobs_evicted_total`.
//! * **Backpressure** — the submission queue is bounded at
//!   [`ServeConfig::max_queue`] (default 32); a full queue answers `429`
//!   with `Retry-After` instead of growing without bound.
//!
//! Every 4xx/5xx answers one structured JSON shape,
//! `{"error": <reason phrase>, "detail": <what went wrong>}`, so clients
//! branch on a stable member instead of scraping prose.
//!
//! The original endpoints remain: `GET /metrics` (process exposition —
//! the server's session plus `vpp_up` / `vpp_serve_*` self-series), `GET
//! /healthz` (JSON run state) and `GET /trace?format=json|jsonl|csv`
//! (whole-log snapshot of the server's session). The server's session is
//! the one bound to the thread that called [`serve_with`], if any; with
//! none, `/metrics` carries only the self-series and `/trace` answers
//! `503`. With `federate` peers
//! configured, `/metrics` additionally scrapes each peer's `/metrics`
//! and merges the expositions into one document, tagging every peer
//! sample with a `peer="..."` label and reporting reachability as
//! `vpp_federate_peer_up`.
//!
//! The service also watches itself:
//!
//! * **Per-route telemetry** — every handled request lands in a
//!   [`trace::Histogram`] keyed by normalised route
//!   (`vpp_serve_request_seconds{route=...}`) plus a per-status counter
//!   (`vpp_serve_response_status_total{route=...,status=...}`), both
//!   rendered into `/metrics`. Routes are normalised to their patterns
//!   (`/jobs/<id>/trace`, not each id) so cardinality stays fixed.
//! * `GET /logs?after=SEQ&limit=N&level=warn` — cursor-streamed jsonl
//!   over the process-wide structured [`trace` journal](trace::logs_after)
//!   (same exactly-once scheme as `/jobs/<id>/trace`: seqs are dense
//!   because they are assigned under the lock that admits the record);
//!   the service emits warn/error records at its decision points (`429`
//!   backpressure, TTL eviction, `408` stalls, job failure/cancel,
//!   federation peer-down).
//!
//! Every `GET` route also answers `HEAD` with identical headers
//! (including `Content-Length`) and no body, per RFC 9110 §9.3.2.
//!
//! Design constraints, in order: **never perturb a run** (reads are
//! non-draining snapshots or bounded cursor chunks; the accept loop is a
//! fixed two-worker scoped pool), **shut down leak-free**
//! ([`ServeHandle::shutdown`] joins the acceptor, both workers and every
//! job-runner thread), and **stay std-only** (hand-rolled request
//! parser with bounded head and body, fixed `Content-Length` responses
//! framing each reply on the persistent connection). Each reply leaves
//! in one `write` on a `TCP_NODELAY` socket: a head written apart from
//! its body would wait for the client's delayed ACK (~40 ms) under
//! Nagle's algorithm on every kept-alive exchange.

use crate::json::{self, Value};
use crate::pool;
use crate::trace::{self, ExportFormat, LocalSession};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection workers sharing the accept loop. Scrapes are tiny and the
/// endpoints are cheap, so two are plenty; the point is the bound.
const WORKERS: usize = 2;
/// How often an idle worker re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// How long a connection may idle before its next request, how long a
/// request may take to arrive from its first byte, the socket write
/// timeout, and how long a [`scrape_peer`] answer may take to arrive.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body (job specs are small documents).
const MAX_BODY: usize = 256 * 1024;
/// Upper bound on a [`scrape_peer`] response (a federation peer's
/// `/metrics`, a `vpp logs` chunk), far above this service's own
/// exposition or a full `/logs` chunk. A peer that sends more counts as
/// down.
const MAX_PEER_RESPONSE: u64 = 4 << 20;
/// Event budget for each job's private trace session.
const JOB_TRACE_CAPACITY: usize = 1 << 20;
/// Cursor chunk size (`/jobs/<id>/trace`, `/logs`) when the query does
/// not pick one.
const CHUNK_DEFAULT: usize = 512;
/// Hard ceiling on a requested chunk size.
const CHUNK_MAX: usize = 4096;
/// Concurrent job sessions unless [`ServeConfig::max_sessions`] says
/// otherwise.
const DEFAULT_MAX_SESSIONS: usize = 2;
/// Requests one keep-alive connection may serve before the server closes
/// it (bounds how long a single client can monopolise a worker).
const MAX_CONN_REQUESTS: usize = 100;
/// Terminal jobs older than this are evicted unless
/// [`ServeConfig::job_ttl`] says otherwise.
const DEFAULT_JOB_TTL: Duration = Duration::from_secs(15 * 60);
/// Queued (not yet running) submissions unless [`ServeConfig::max_queue`]
/// raises the bound; a full queue answers `429`.
const DEFAULT_MAX_QUEUE: usize = 32;
/// Terminal jobs held at once; past it the earliest-finished are evicted.
/// 7.5x the default working set (2 sessions + 32 queued), and about
/// 34 MB at the ~0.13 MB a finished small protocol job holds.
const MAX_RETAINED_JOBS: usize = 256;
/// Minimum spacing between TTL eviction sweeps.
const SWEEP_INTERVAL_MS: u64 = 200;

/// Where the instrumented run currently is, for `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Server is up, workload not started.
    Idle,
    /// Workload in flight — scrapes see live, still-growing metrics.
    Running,
    /// Workload finished; the server keeps serving the final state.
    Done,
}

impl RunState {
    /// Lower-case token used in the `/healthz` JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RunState::Idle => "idle",
            RunState::Running => "running",
            RunState::Done => "done",
        }
    }

    fn from_u8(v: u8) -> RunState {
        match v {
            1 => RunState::Running,
            2 => RunState::Done,
            _ => RunState::Idle,
        }
    }
}

/// Cooperative cancellation flag shared between the service and one
/// running job. `DELETE /jobs/<id>` sets it; a well-behaved handler polls
/// [`CancelToken::is_canceled`] at its natural checkpoints (the protocol
/// handler checks between repeats) and returns early.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-set token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Runs validated job specs for the service. The substrate stays
/// workload-agnostic: the binary installs a handler that knows the
/// benchmark recipes, and tests install synthetic ones.
pub trait JobHandler: Send + Sync {
    /// Check a submitted spec and return its normalised form, or a
    /// human-readable rejection (`400` to the client).
    ///
    /// # Errors
    /// A message describing why the spec is invalid.
    fn validate(&self, spec: &Value) -> Result<Value, String>;

    /// Execute a validated spec and return the result document. Called on
    /// a dedicated thread with the job's [`LocalSession`] already bound,
    /// so everything the run instruments lands in the job's own trace.
    /// Long-running handlers should poll `cancel` at natural checkpoints
    /// and bail with an error; a job whose cancel token is set when the
    /// handler errors out lands in the `canceled` terminal state.
    ///
    /// # Errors
    /// A message describing the failure (`failed` state on the job, or
    /// `canceled` when the token was set).
    fn run(&self, spec: &Value, cancel: &CancelToken) -> Result<Value, String>;
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Canceled,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

/// One registered job: spec, lifecycle, private trace session, outcome.
struct JobEntry {
    spec: Value,
    state: JobState,
    session: LocalSession,
    cancel: CancelToken,
    result: Option<Value>,
    error: Option<String>,
    submitted_s: f64,
    started_s: Option<f64>,
    finished_s: Option<f64>,
}

/// Session registry: live jobs, the admission queue, the terminal jobs
/// in finish order (the eviction queue), and the runner threads that
/// shutdown must join. Entries leave `jobs` only by eviction, so an id
/// below `next_id` that `jobs` lacks was evicted.
#[derive(Default)]
struct Registry {
    next_id: u64,
    jobs: BTreeMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    finished: VecDeque<u64>,
    running: usize,
    runners: Vec<JoinHandle<()>>,
}

impl Registry {
    /// Job `id`'s entry, or the answer for a missing one: `410 Gone` if
    /// it was evicted, `404` if it never existed.
    fn job(&mut self, id: u64) -> Result<&mut JobEntry, Response> {
        let issued = id < self.next_id;
        self.jobs.get_mut(&id).ok_or_else(|| {
            if issued {
                Response::error(
                    410,
                    "Gone",
                    format!("job {id} was evicted; its results are no longer held\n"),
                )
            } else {
                Response::error(404, "Not Found", format!("no such job: {id}\n"))
            }
        })
    }

    /// Evict the `n` earliest-finished jobs, counting them in `evicted`
    /// under the caller's guard. The entries come back so the caller can
    /// drop them after releasing the guard: a finished job is thousands
    /// of small allocations.
    fn evict_oldest(&mut self, n: usize, evicted: &AtomicU64) -> Vec<JobEntry> {
        evicted.fetch_add(n as u64, Ordering::SeqCst);
        self.finished
            .drain(..n)
            .map(|id| self.jobs.remove(&id).expect("finished ids are registered"))
            .collect()
    }
}

/// Server configuration for [`serve_with`].
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (`0` picks an ephemeral port).
    pub port: u16,
    /// Concurrent job sessions; further jobs queue.
    pub max_sessions: usize,
    /// Peer `/metrics` endpoints to scrape and merge into this
    /// instance's exposition (`host:port` or `http://host:port[/path]`).
    pub federate: Vec<String>,
    /// Executes `POST /jobs` submissions; without one the job endpoints
    /// answer `503`.
    pub handler: Option<Arc<dyn JobHandler>>,
    /// Evict terminal jobs this long after they finish (`None` disables
    /// the TTL). Either way at most the 256 most recently finished jobs
    /// are kept. Evicted ids answer `410 Gone`.
    pub job_ttl: Option<Duration>,
    /// Bound on queued (not yet running) submissions; a full queue
    /// answers `429` with `Retry-After`.
    pub max_queue: usize,
}

impl ServeConfig {
    /// Defaults: no federation, no handler, two concurrent sessions,
    /// 15-minute TTL on terminal jobs, 32 queued submissions.
    #[must_use]
    pub fn new(port: u16) -> ServeConfig {
        ServeConfig {
            port,
            max_sessions: DEFAULT_MAX_SESSIONS,
            federate: Vec::new(),
            handler: None,
            job_ttl: Some(DEFAULT_JOB_TTL),
            max_queue: DEFAULT_MAX_QUEUE,
        }
    }

    /// Cap concurrent job sessions (clamped to at least 1).
    #[must_use]
    pub fn max_sessions(mut self, n: usize) -> ServeConfig {
        self.max_sessions = n.max(1);
        self
    }

    /// How long terminal jobs linger before the sweep evicts them and
    /// frees their trace sessions; `None` disables the TTL, leaving only
    /// the bound of 256 most recently finished jobs.
    #[must_use]
    pub fn job_ttl(mut self, ttl: Option<Duration>) -> ServeConfig {
        self.job_ttl = ttl;
        self
    }

    /// Bound the submission queue (clamped to at least 1); a full queue
    /// answers `429`.
    #[must_use]
    pub fn max_queue(mut self, n: usize) -> ServeConfig {
        self.max_queue = n.max(1);
        self
    }

    /// Scrape-and-merge these peers into `/metrics`.
    #[must_use]
    pub fn federate(mut self, peers: Vec<String>) -> ServeConfig {
        self.federate = peers;
        self
    }

    /// Install the job handler backing `POST /jobs`.
    #[must_use]
    pub fn handler(mut self, handler: Arc<dyn JobHandler>) -> ServeConfig {
        self.handler = Some(handler);
        self
    }
}

/// Per-route service telemetry: request latency distribution plus a
/// response count per status code. Lives under one mutex in [`Shared`];
/// route keys are the fixed route *patterns*, so the map's cardinality is
/// bounded by the routing table, not by traffic.
struct RouteStat {
    latency: trace::Histogram,
    status: BTreeMap<u16, u64>,
}

impl RouteStat {
    fn new() -> RouteStat {
        RouteStat {
            latency: trace::Histogram::new(trace::SECONDS_BUCKETS),
            status: BTreeMap::new(),
        }
    }
}

/// State shared between the handle and the worker threads.
struct Shared {
    started: Instant,
    shutdown: AtomicBool,
    state: AtomicU8,
    requests: AtomicU64,
    runs_completed: AtomicU64,
    runs_total: AtomicU64,
    workload: Mutex<String>,
    max_sessions: usize,
    federate: Vec<String>,
    handler: Option<Arc<dyn JobHandler>>,
    job_ttl: Option<Duration>,
    max_queue: usize,
    jobs: Mutex<Registry>,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_canceled: AtomicU64,
    jobs_evicted: AtomicU64,
    /// Uptime millisecond after which the next TTL sweep may run; the
    /// winner of the compare-exchange does the sweep.
    next_sweep_ms: AtomicU64,
    /// Per-route latency histograms and status counters, keyed by the
    /// normalised route pattern (see [`route_key`]).
    route_stats: Mutex<BTreeMap<&'static str, RouteStat>>,
    /// The trace session `/trace`, `/metrics` and `/healthz` report on:
    /// the one the caller had bound when it started the server.
    session: Option<LocalSession>,
}

impl Shared {
    fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A running service. Dropping the handle (or calling
/// [`ServeHandle::shutdown`]) stops the accept loop and joins every
/// worker and job-runner thread — no server threads survive the handle.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// Bind `127.0.0.1:port` (`0` picks an ephemeral port) and start serving
/// the observability endpoints with default [`ServeConfig`] (no job
/// handler, no federation).
///
/// # Errors
/// Propagates the bind failure (port in use, permission).
pub fn serve(port: u16) -> std::io::Result<ServeHandle> {
    serve_with(ServeConfig::new(port))
}

/// Bind and start serving with an explicit configuration. `/trace`,
/// `/metrics` and `/healthz` report on the trace session bound to the
/// calling thread ([`trace::session`]), so open it before the server.
///
/// # Errors
/// Propagates the bind failure (port in use, permission).
pub fn serve_with(cfg: ServeConfig) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    // Non-blocking accept + poll: shutdown needs no wake-up connection
    // and cannot race one worker stealing another's wake.
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        state: AtomicU8::new(0),
        requests: AtomicU64::new(0),
        runs_completed: AtomicU64::new(0),
        runs_total: AtomicU64::new(0),
        workload: Mutex::new(String::new()),
        max_sessions: cfg.max_sessions,
        federate: cfg.federate,
        handler: cfg.handler,
        job_ttl: cfg.job_ttl,
        max_queue: cfg.max_queue.max(1),
        jobs: Mutex::new(Registry::default()),
        jobs_submitted: AtomicU64::new(0),
        jobs_completed: AtomicU64::new(0),
        jobs_failed: AtomicU64::new(0),
        jobs_canceled: AtomicU64::new(0),
        jobs_evicted: AtomicU64::new(0),
        next_sweep_ms: AtomicU64::new(0),
        route_stats: Mutex::new(BTreeMap::new()),
        session: trace::current_session(),
    });
    let worker_shared = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("vpp-serve".to_string())
        .spawn(move || {
            std::thread::scope(|scope| {
                for _ in 0..WORKERS {
                    scope.spawn(|| worker(&listener, &worker_shared));
                }
            });
        })?;
    Ok(ServeHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

impl ServeHandle {
    /// The bound address (resolves the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current run state as reported by `/healthz`.
    #[must_use]
    pub fn state(&self) -> RunState {
        RunState::from_u8(self.shared.state.load(Ordering::SeqCst))
    }

    /// Advance the `/healthz` run state.
    pub fn set_state(&self, state: RunState) {
        let v = match state {
            RunState::Idle => 0,
            RunState::Running => 1,
            RunState::Done => 2,
        };
        self.shared.state.store(v, Ordering::SeqCst);
    }

    /// Name the workload and how many runs `/healthz` should expect.
    pub fn set_workload(&self, name: &str, runs_total: u64) {
        *lock(&self.shared.workload) = name.to_string();
        self.shared.runs_total.store(runs_total, Ordering::SeqCst);
    }

    /// Record one completed run (shows up in `/healthz` and `/metrics`).
    pub fn run_completed(&self) {
        self.shared.runs_completed.fetch_add(1, Ordering::SeqCst);
    }

    /// Requests served so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain the workers, join every thread (including
    /// job runners — in-flight jobs run to completion, queued jobs never
    /// start). Returns once no server thread remains.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            if acceptor.join().is_err() {
                // A worker panicked; the scope already tore the rest down.
                eprintln!("vpp-serve: worker thread panicked during shutdown");
            }
        }
        // A finishing runner can spawn a successor through pump() right up
        // to the moment the flag lands, so drain until the list stays
        // empty. Handles are taken with the lock released before joining:
        // runners take the registry lock on their way out.
        loop {
            let handles = std::mem::take(&mut lock(&self.shared.jobs).runners);
            if handles.is_empty() {
                break;
            }
            for h in handles {
                if h.join().is_err() {
                    eprintln!("vpp-serve: job runner panicked");
                }
            }
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        maybe_sweep(shared);
        match listener.accept() {
            Ok((stream, _peer)) => handle_connection(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets inherit nothing useful from the non-blocking
    // listener on Linux, but make the contract explicit either way.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Each reply is one write; nothing is gained by holding it back.
    let _ = stream.set_nodelay(true);
    // HTTP/1.1 keep-alive (RFC 9112 §9.3): one socket serves requests
    // until the client asks to close, a protocol error forces a close,
    // or the per-connection cap is reached. Bytes read past one request's
    // body carry over as the next request's prefix, so pipelined clients
    // work without any special casing.
    let mut carry: Vec<u8> = Vec::new();
    for served in 1..=MAX_CONN_REQUESTS {
        let req = match read_request(&mut stream, &mut carry) {
            Ok(req) => req,
            Err(ReadError::Respond(resp)) => {
                // The request was understood well enough to answer
                // (431/413/over-long body); these always close — the
                // connection's framing is no longer trustworthy.
                let _ = write_response(&mut stream, &resp, false, false);
                return;
            }
            Err(ReadError::TimedOutMidRequest) => {
                // The request did not arrive whole in time, from a peer
                // gone quiet or one dripping bytes: say so (RFC 9110
                // §15.5.9) and close.
                crate::log_event!(
                    Warn,
                    "serve.http",
                    "connection stalled mid-request; answered 408 and closed",
                    served = served - 1,
                );
                let resp = Response::error(
                    408,
                    "Request Timeout",
                    format!(
                        "no complete request within {} s of its first byte\n",
                        IO_TIMEOUT.as_secs()
                    ),
                );
                let _ = write_response(&mut stream, &resp, false, false);
                return;
            }
            // Idle between requests (or never sent one) / disconnected:
            // close quietly, there is nobody to talk to.
            Err(ReadError::Idle | ReadError::Drop) => return,
        };
        shared.requests.fetch_add(1, Ordering::SeqCst);
        maybe_sweep(shared);
        let head_only = req.method == "HEAD";
        let t0 = Instant::now();
        let response = route(&req, shared);
        record_route(shared, &req.target, response.status, t0.elapsed());
        let keep = !req.close && served < MAX_CONN_REQUESTS;
        if write_response(&mut stream, &response, head_only, keep).is_err() || !keep {
            return;
        }
    }
}

/// A parsed request: line, relevant headers, body.
struct Request {
    method: String,
    target: String,
    body: Vec<u8>,
    /// Client asked to close after this exchange (`Connection: close`,
    /// or HTTP/1.0 without `keep-alive`).
    close: bool,
}

/// Why [`read_request`] could not produce a request.
enum ReadError {
    /// An error the client should see (oversized head → `431`, oversized
    /// body → `413`, body past the declared length on a closing
    /// connection → `400`); write it, then close.
    Respond(Response),
    /// No byte of a new request arrived (fresh or kept-alive connection
    /// idled out, or the peer closed cleanly between requests).
    Idle,
    /// Part of a request arrived, but not all of it within
    /// [`IO_TIMEOUT`] of its first byte.
    TimedOutMidRequest,
    /// Malformed beyond answering, or the peer vanished mid-request.
    Drop,
}

fn timeout_kind(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// One `read` that waits no later than `deadline`; a deadline already
/// past reads as a timeout.
fn read_by(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> std::io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(std::io::ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(buf)
}

/// Read and parse one request from a (possibly kept-alive) connection.
/// `carry` holds bytes already read past the previous request's body —
/// the next request's prefix under pipelining — and is refilled with this
/// request's surplus on success. The connection may idle [`IO_TIMEOUT`]
/// before the request starts, and the whole request, head and body, must
/// arrive within [`IO_TIMEOUT`] of its first byte: a per-read timeout
/// alone would let a client sending a byte a second hold a worker forever.
fn read_request(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<Request, ReadError> {
    let mut head = std::mem::take(carry);
    let mut chunk = [0u8; 1024];
    let mut oversized = false;
    let mut deadline = Instant::now() + IO_TIMEOUT;
    let head_end = loop {
        if let Some(end) = head_terminator(&head) {
            break Some(end);
        }
        if head.len() > MAX_HEAD {
            // Answer 431 rather than silently dropping — but keep reading
            // (to a hard cap) so a client that is still sending sees our
            // response instead of a reset from closing on unread bytes.
            oversized = true;
            if head.len() > 16 * MAX_HEAD {
                break None;
            }
        }
        match read_by(stream, &mut chunk, deadline) {
            Ok(0) => {
                if head.is_empty() {
                    // Clean close between requests — not an error.
                    return Err(ReadError::Idle);
                }
                break None;
            }
            Ok(n) => {
                if head.is_empty() {
                    // The request's clock starts at its first byte.
                    deadline = Instant::now() + IO_TIMEOUT;
                }
                head.extend_from_slice(&chunk[..n]);
            }
            Err(e) if timeout_kind(&e) => {
                // An idle keep-alive connection is normal; a half-sent
                // request deserves a 408 so the client knows what died.
                return Err(if head.is_empty() {
                    ReadError::Idle
                } else {
                    ReadError::TimedOutMidRequest
                });
            }
            Err(_) => return Err(ReadError::Drop),
        }
    };
    if oversized {
        return Err(ReadError::Respond(Response::error(
            431,
            "Request Header Fields Too Large",
            format!("request head exceeds {MAX_HEAD} bytes\n"),
        )));
    }
    let Some(head_end) = head_end else {
        return Err(ReadError::Drop);
    };
    let (head_bytes, rest) = head.split_at(head_end);
    let text = String::from_utf8_lossy(head_bytes);
    let mut lines = text.lines();
    let request_line = lines.next().ok_or(ReadError::Drop)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(ReadError::Drop)?.to_string();
    let target = parts.next().ok_or(ReadError::Drop)?.to_string();
    let version = parts.next().ok_or(ReadError::Drop)?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Drop);
    }
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| ReadError::Drop)?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
    }
    // Persistent is the HTTP/1.1 default; HTTP/1.0 must opt in.
    let close = if version == "HTTP/1.0" {
        !connection.split(',').any(|t| t.trim() == "keep-alive")
    } else {
        connection.split(',').any(|t| t.trim() == "close")
    };
    if content_length > MAX_BODY {
        return Err(ReadError::Respond(Response::error(
            413,
            "Content Too Large",
            format!("request body exceeds {MAX_BODY} bytes\n"),
        )));
    }
    // Bytes past the terminator already read are the body's prefix.
    let mut body = rest.to_vec();
    while body.len() < content_length {
        match read_by(stream, &mut chunk, deadline) {
            Ok(0) => return Err(ReadError::Drop),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if timeout_kind(&e) => return Err(ReadError::TimedOutMidRequest),
            Err(_) => return Err(ReadError::Drop),
        }
    }
    // Surplus bytes are the next pipelined request — unless the client
    // declared this exchange final, in which case the body is simply
    // longer than its Content-Length and silently truncating it would
    // hide a framing bug on the client.
    *carry = body.split_off(content_length);
    if close && !carry.is_empty() {
        return Err(ReadError::Respond(Response::error(
            400,
            "Bad Request",
            format!("request body longer than the declared Content-Length ({content_length} bytes)\n"),
        )));
    }
    Ok(Request {
        method,
        target,
        body,
        close,
    })
}

/// Index just past the blank line ending the header block, accepting both
/// `\r\n\r\n` and the bare-`\n\n` form lenient clients send (RFC 9112
/// §2.2 recommends tolerating a missing CR).
fn head_terminator(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    allow: Option<&'static str>,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Response {
    fn json(status: u16, reason: &'static str, doc: &Value) -> Response {
        let mut body = doc.pretty();
        body.push('\n');
        Response {
            status,
            reason,
            content_type: "application/json",
            allow: None,
            headers: Vec::new(),
            body,
        }
    }

    /// The one error shape every 4xx/5xx answers with:
    /// `{"error": <reason phrase>, "detail": <what went wrong>}`.
    /// Clients branch on the stable `error` member; `detail` carries the
    /// full sentence a human (or a log line) wants.
    fn error(status: u16, reason: &'static str, detail: impl Into<String>) -> Response {
        let detail = detail.into();
        let doc = Value::Obj(vec![
            ("error".to_string(), Value::Str(reason.to_string())),
            (
                "detail".to_string(),
                Value::Str(detail.trim_end().to_string()),
            ),
        ]);
        Response::json(status, reason, &doc)
    }
}

/// The cursor-page contract shared by every jsonl stream endpoint
/// (`/jobs/<id>/trace`, `/logs`): the body stays pure jsonl while the
/// pagination state travels as headers — `X-Vpp-Next-Cursor` (pass back
/// as `after`), `X-Vpp-More` (records beyond this chunk were already
/// visible), one endpoint-specific state header, and `X-Vpp-Dropped`
/// (the endpoint's loss accounting).
fn cursor_page(
    body: String,
    next: u64,
    more: bool,
    state: (&'static str, String),
    dropped: String,
) -> Response {
    Response {
        status: 200,
        reason: "OK",
        content_type: ExportFormat::Jsonl.content_type(),
        allow: None,
        headers: vec![
            ("X-Vpp-Next-Cursor", next.to_string()),
            ("X-Vpp-More", more.to_string()),
            state,
            ("X-Vpp-Dropped", dropped),
        ],
        body,
    }
}

/// Write `r` as one buffer in one `write_all`, so the status line,
/// headers and body leave together rather than the body waiting on an
/// ACK for the head. For a HEAD request (`head_only`) the status line and
/// headers — including the `Content-Length` the GET would have — go out
/// with no body, per RFC 9110 §9.3.2. `keep_alive` picks the
/// `Connection` header: the fixed `Content-Length` frames each response,
/// so a kept-alive client knows exactly where the next one starts.
fn write_response(
    stream: &mut TcpStream,
    r: &Response,
    head_only: bool,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        r.status,
        r.reason,
        r.content_type,
        r.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(allow) = r.allow {
        out.push_str("Allow: ");
        out.push_str(allow);
        out.push_str("\r\n");
    }
    for (name, value) in &r.headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    if !head_only {
        out.push_str(&r.body);
    }
    stream.write_all(out.as_bytes())
}

/// Methods a known path answers; `None` means the path does not exist.
fn allowed_methods(path: &str) -> Option<&'static str> {
    match path {
        "/metrics" | "/healthz" | "/trace" | "/logs" => Some("GET, HEAD"),
        "/jobs" => Some("GET, HEAD, POST"),
        p => job_subpath(p).map(|(_, sub)| match sub {
            None => "GET, HEAD, DELETE",
            Some(_) => "GET, HEAD",
        }),
    }
}

/// Normalise a request target to its route *pattern* for per-route
/// telemetry: every `/jobs/17/trace` lands on `/jobs/<id>/trace`, and
/// unknown paths share one `<other>` bucket, so the label set is bounded
/// by the routing table regardless of traffic.
fn route_key(target: &str) -> &'static str {
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/trace" => "/trace",
        "/logs" => "/logs",
        "/jobs" => "/jobs",
        p => match job_subpath(p) {
            Some((_, None)) => "/jobs/<id>",
            Some((_, Some("trace"))) => "/jobs/<id>/trace",
            Some((_, Some("metrics"))) => "/jobs/<id>/metrics",
            _ => "<other>",
        },
    }
}

/// Fold one handled request into the per-route latency histogram and
/// status counter. One short lock per request; the map stays bounded
/// because [`route_key`] only ever returns route patterns.
fn record_route(shared: &Arc<Shared>, target: &str, status: u16, elapsed: Duration) {
    let key = route_key(target);
    let mut stats = lock(&shared.route_stats);
    let stat = stats.entry(key).or_insert_with(RouteStat::new);
    stat.latency.observe(elapsed.as_secs_f64());
    *stat.status.entry(status).or_insert(0) += 1;
}

/// Parse `/jobs/<id>[/trace|/metrics]` into `(id, subresource)`.
fn job_subpath(path: &str) -> Option<(u64, Option<&str>)> {
    let rest = path.strip_prefix("/jobs/")?;
    let mut segments = rest.split('/');
    let id: u64 = segments.next()?.parse().ok()?;
    let sub = segments.next();
    if segments.next().is_some() {
        return None;
    }
    match sub {
        None | Some("trace") | Some("metrics") => Some((id, sub)),
        Some(_) => None,
    }
}

fn route(req: &Request, shared: &Arc<Shared>) -> Response {
    let (path, query) = req.target.split_once('?').unwrap_or((&*req.target, ""));
    let Some(allow) = allowed_methods(path) else {
        return Response::error(
            404,
            "Not Found",
            "not found; endpoints: /metrics /healthz /trace?format=json|jsonl|csv \
             /logs?after=SEQ&level=warn /jobs /jobs/<id> (DELETE cancels) \
             /jobs/<id>/trace?after=SEQ /jobs/<id>/metrics\n",
        );
    };
    if !allow.split(", ").any(|m| m == req.method) {
        let mut r = Response::error(405, "Method Not Allowed", "method not allowed\n");
        r.allow = Some(allow);
        return r;
    }
    // HEAD takes the GET path; write_response withholds the body.
    let method = if req.method == "HEAD" { "GET" } else { &*req.method };
    match (method, path) {
        ("GET", "/metrics") => Response {
            status: 200,
            reason: "OK",
            content_type: ExportFormat::Prom.content_type(),
            allow: None,
            headers: Vec::new(),
            body: metrics_body(shared),
        },
        ("GET", "/healthz") => Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            allow: None,
            headers: Vec::new(),
            body: healthz_body(shared),
        },
        ("GET", "/trace") => trace_response(query, shared),
        ("GET", "/logs") => logs_response(query),
        ("POST", "/jobs") => post_job(&req.body, shared),
        ("GET", "/jobs") => jobs_list(shared),
        ("GET", _) => {
            let (id, sub) = job_subpath(path).expect("allowed_methods admitted the path");
            match sub {
                None => job_status(id, shared),
                Some("trace") => job_trace(id, query, shared),
                Some("metrics") => job_metrics(id, shared),
                Some(_) => unreachable!("job_subpath rejects other subresources"),
            }
        }
        ("DELETE", _) => {
            let (id, _) = job_subpath(path).expect("allowed_methods admitted the path");
            cancel_job(id, shared)
        }
        _ => unreachable!("allow list covers every dispatched method"),
    }
}

// ---------------------------------------------------------------------------
// Job service
// ---------------------------------------------------------------------------

fn post_job(body: &[u8], shared: &Arc<Shared>) -> Response {
    let Some(handler) = shared.handler.clone() else {
        return Response::error(
            503,
            "Service Unavailable",
            "no job handler installed; start the service via `vpp serve`\n",
        );
    };
    let Ok(text) = std::str::from_utf8(body) else {
        return Response::error(400, "Bad Request", "job spec is not UTF-8\n");
    };
    let spec = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "Bad Request", format!("job spec is not JSON: {e}\n")),
    };
    let normalised = match handler.validate(&spec) {
        Ok(v) => v,
        Err(e) => return Response::error(400, "Bad Request", format!("invalid job spec: {e}\n")),
    };
    // Backpressure check and insert share one guard, so two racing
    // submissions cannot both squeeze past the bound.
    let id = {
        let mut reg = lock(&shared.jobs);
        if reg.queue.len() >= shared.max_queue {
            crate::log_event!(
                Warn,
                "serve.jobs",
                "submission queue full; answered 429",
                queued = reg.queue.len(),
                max_queue = shared.max_queue,
            );
            let mut resp = Response::error(
                429,
                "Too Many Requests",
                format!(
                    "submission queue is full ({} queued, bound {}); retry shortly\n",
                    reg.queue.len(),
                    shared.max_queue
                ),
            );
            resp.headers.push(("Retry-After", "1".to_string()));
            return resp;
        }
        let id = reg.next_id;
        reg.next_id += 1;
        reg.jobs.insert(
            id,
            JobEntry {
                spec: normalised,
                state: JobState::Queued,
                session: trace::local_session(JOB_TRACE_CAPACITY),
                cancel: CancelToken::new(),
                result: None,
                error: None,
                submitted_s: shared.uptime_s(),
                started_s: None,
                finished_s: None,
            },
        );
        reg.queue.push_back(id);
        id
    };
    shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
    pump(shared);
    let reg = lock(&shared.jobs);
    let entry = reg.jobs.get(&id).expect("inserted above");
    let mut resp = Response::json(201, "Created", &job_status_value(id, entry));
    resp.headers.push(("Location", format!("/jobs/{id}")));
    resp
}

/// `DELETE /jobs/<id>`: cancel. A queued job is terminal immediately
/// (and leaves the queue); a running job gets its cooperative token set
/// and keeps running until the handler's next cancel check (`202`); a
/// terminal job is a `409`, an evicted one `410`.
fn cancel_job(id: u64, shared: &Arc<Shared>) -> Response {
    let mut reg = lock(&shared.jobs);
    let entry = match reg.job(id) {
        Ok(entry) => entry,
        Err(missing) => return missing,
    };
    match entry.state {
        JobState::Queued => {
            entry.state = JobState::Canceled;
            entry.cancel.cancel();
            entry.error = Some("canceled before start".to_string());
            reg.queue.retain(|q| *q != id);
            shared.jobs_canceled.fetch_add(1, Ordering::SeqCst);
            crate::log_event!(Warn, "serve.jobs", "queued job canceled", job = id);
            let evicted = retire(shared, &mut reg, id);
            let doc = job_status_value(id, &reg.jobs[&id]);
            drop(reg);
            drop(evicted);
            Response::json(200, "OK", &doc)
        }
        JobState::Running => {
            entry.cancel.cancel();
            Response::json(202, "Accepted", &job_status_value(id, entry))
        }
        terminal => Response::error(
            409,
            "Conflict",
            format!("job {id} is already terminal ({})\n", terminal.as_str()),
        ),
    }
}

/// Stamp job `id` terminal now and append it to the finish-ordered
/// eviction queue. Called under the guard that set the terminal state,
/// so the queue order is the `finished_s` order. Past
/// [`MAX_RETAINED_JOBS`] the earliest-finished jobs are evicted at once;
/// the count bound writes no `/logs` record (a warn per eviction would
/// fill the warn partition within 30 s at full load), only the counter.
/// Returns
/// the evicted entries for the caller to drop after releasing the guard.
fn retire(shared: &Shared, reg: &mut Registry, id: u64) -> Vec<JobEntry> {
    reg.jobs
        .get_mut(&id)
        .expect("only registered jobs turn terminal")
        .finished_s = Some(shared.uptime_s());
    reg.finished.push_back(id);
    let excess = reg.finished.len().saturating_sub(MAX_RETAINED_JOBS);
    reg.evict_oldest(excess, &shared.jobs_evicted)
}

/// Evict terminal jobs older than the TTL, freeing their trace sessions.
/// Cheap enough to call from the request path: a compare-exchange on the
/// due time elects one sweeper per [`SWEEP_INTERVAL_MS`] window, and the
/// sweep pops only the expired front of the finish-ordered queue. Runs
/// from both the worker idle loop (so eviction happens without traffic)
/// and the request loop (so held-open keep-alive workers still sweep).
fn maybe_sweep(shared: &Arc<Shared>) {
    let Some(ttl) = shared.job_ttl else { return };
    let now_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let due = shared.next_sweep_ms.load(Ordering::SeqCst);
    if now_ms < due
        || shared
            .next_sweep_ms
            .compare_exchange(due, now_ms + SWEEP_INTERVAL_MS, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
    {
        return;
    }
    let ttl_s = ttl.as_secs_f64();
    let now_s = shared.uptime_s();
    let mut reg = lock(&shared.jobs);
    let expired = reg
        .finished
        .iter()
        .take_while(|id| reg.jobs[id].finished_s.is_some_and(|t| now_s - t >= ttl_s))
        .count();
    // Dropping an entry drops its LocalSession — the last reference to
    // the job's ring buffer once any in-flight snapshot finishes.
    let evicted = reg.evict_oldest(expired, &shared.jobs_evicted);
    drop(reg);
    if !evicted.is_empty() {
        crate::log_event!(
            Warn,
            "serve.jobs",
            "TTL sweep evicted terminal jobs",
            evicted = evicted.len(),
            ttl_s = ttl_s,
        );
    }
}

/// Start queued jobs while session slots are free. Each runner gets its
/// own thread (named like the server threads so the leak tests count it)
/// and re-pumps when it finishes.
fn pump(shared: &Arc<Shared>) {
    let mut reg = lock(&shared.jobs);
    while reg.running < shared.max_sessions && !shared.shutdown.load(Ordering::SeqCst) {
        let Some(id) = reg.queue.pop_front() else {
            break;
        };
        if let Some(entry) = reg.jobs.get_mut(&id) {
            entry.state = JobState::Running;
            entry.started_s = Some(shared.uptime_s());
        }
        reg.running += 1;
        let runner_shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("vpp-serve".to_string())
            .spawn(move || run_job(&runner_shared, id))
            .expect("spawn job runner");
        reg.runners.push(handle);
    }
}

fn run_job(shared: &Arc<Shared>, id: u64) {
    let handler = shared
        .handler
        .clone()
        .expect("jobs only enqueue when a handler is installed");
    let (session, spec, cancel) = {
        let reg = lock(&shared.jobs);
        let e = reg.jobs.get(&id).expect("running jobs are never evicted");
        (e.session.clone(), e.spec.clone(), e.cancel.clone())
    };
    // Bind the job's session to this thread and keep the whole workload
    // here (pool::serial): concurrency comes from running many jobs, not
    // threads within one. catch_unwind keeps a panicking handler from
    // stalling the queue (the binding is inside, so unwinding restores
    // the thread's trace state).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _bind = session.bind();
        pool::serial(|| handler.run(&spec, &cancel))
    }));
    let evicted = {
        let mut reg = lock(&shared.jobs);
        let entry = reg.jobs.get_mut(&id).expect("running jobs are never evicted");
        match outcome {
            Ok(Ok(result)) => {
                // A completed result wins even when a cancel raced it.
                entry.state = JobState::Done;
                entry.result = Some(result);
                shared.jobs_completed.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Err(message)) if cancel.is_canceled() => {
                // The handler bailed after DELETE set the token: the
                // cancel, not a workload fault, is what stopped it.
                entry.state = JobState::Canceled;
                crate::log_event!(
                    Warn,
                    "serve.jobs",
                    "job canceled mid-run",
                    job = id,
                    reason = message.as_str(),
                );
                entry.error = Some(message);
                shared.jobs_canceled.fetch_add(1, Ordering::SeqCst);
            }
            Ok(Err(message)) => {
                entry.state = JobState::Failed;
                crate::log_event!(
                    Error,
                    "serve.jobs",
                    "job failed",
                    job = id,
                    error = message.as_str(),
                );
                entry.error = Some(message);
                shared.jobs_failed.fetch_add(1, Ordering::SeqCst);
            }
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                entry.state = JobState::Failed;
                crate::log_event!(
                    Error,
                    "serve.jobs",
                    "job handler panicked",
                    job = id,
                    reason = reason.as_str(),
                );
                entry.error = Some(format!("job handler panicked: {reason}"));
                shared.jobs_failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        reg.running -= 1;
        retire(shared, &mut reg, id)
    };
    drop(evicted);
    pump(shared);
}

fn job_status_value(id: u64, entry: &JobEntry) -> Value {
    let mut obj = vec![
        ("id".to_string(), Value::Num(id as f64)),
        (
            "state".to_string(),
            Value::Str(entry.state.as_str().to_string()),
        ),
        ("spec".to_string(), entry.spec.clone()),
        (
            "trace".to_string(),
            Value::Obj(vec![
                (
                    "admitted".to_string(),
                    Value::Num(entry.session.admitted() as f64),
                ),
                (
                    "dropped".to_string(),
                    Value::Num(entry.session.dropped() as f64),
                ),
            ]),
        ),
        ("submitted_s".to_string(), Value::Num(entry.submitted_s)),
    ];
    if entry.cancel.is_canceled() && !entry.state.terminal() {
        obj.push(("cancel_requested".to_string(), Value::Bool(true)));
    }
    if let Some(t) = entry.started_s {
        obj.push(("started_s".to_string(), Value::Num(t)));
    }
    if let Some(t) = entry.finished_s {
        obj.push(("finished_s".to_string(), Value::Num(t)));
    }
    if let Some(result) = &entry.result {
        obj.push(("result".to_string(), result.clone()));
    }
    if let Some(error) = &entry.error {
        obj.push(("error".to_string(), Value::Str(error.clone())));
    }
    Value::Obj(obj)
}

/// `GET /jobs`. The whole listing — per-job rows, `running`, `queued`,
/// `evicted` — reads under ONE registry guard, so the document is a
/// coherent snapshot (counts always tally with the rows) rather than a
/// torn read across separate lock acquisitions.
fn jobs_list(shared: &Arc<Shared>) -> Response {
    let reg = lock(&shared.jobs);
    let jobs: Vec<Value> = reg
        .jobs
        .iter()
        .map(|(id, entry)| {
            let mut obj = vec![
                ("id".to_string(), Value::Num(*id as f64)),
                (
                    "state".to_string(),
                    Value::Str(entry.state.as_str().to_string()),
                ),
                ("submitted_s".to_string(), Value::Num(entry.submitted_s)),
            ];
            if let Some(Value::Str(w)) = entry.spec.get("workload") {
                obj.push(("workload".to_string(), Value::Str(w.clone())));
            }
            Value::Obj(obj)
        })
        .collect();
    let doc = Value::Obj(vec![
        (
            "max_sessions".to_string(),
            Value::Num(shared.max_sessions as f64),
        ),
        (
            "max_queue".to_string(),
            Value::Num(shared.max_queue as f64),
        ),
        ("running".to_string(), Value::Num(reg.running as f64)),
        ("queued".to_string(), Value::Num(reg.queue.len() as f64)),
        (
            "evicted".to_string(),
            Value::Num(shared.jobs_evicted.load(Ordering::SeqCst) as f64),
        ),
        ("jobs".to_string(), Value::Arr(jobs)),
    ]);
    Response::json(200, "OK", &doc)
}

fn job_status(id: u64, shared: &Arc<Shared>) -> Response {
    match lock(&shared.jobs).job(id) {
        Ok(entry) => Response::json(200, "OK", &job_status_value(id, entry)),
        Err(missing) => missing,
    }
}

/// Cursor-streamed jsonl over one job's live trace. `after` is the cursor
/// from the previous chunk (0 for the first poll), `limit` bounds the
/// chunk. The next cursor and whether more events were already visible
/// travel as headers so the body stays pure jsonl.
fn job_trace(id: u64, query: &str, shared: &Arc<Shared>) -> Response {
    let cursor = cursor_query(query, "format", |value| {
        if value == "jsonl" {
            Ok(())
        } else {
            Err(format!("job traces stream as jsonl only, got '{value}'"))
        }
    });
    let (after, limit) = match cursor {
        Ok(c) => c,
        Err(bad) => return bad,
    };
    let (session, state) = match lock(&shared.jobs).job(id) {
        Ok(entry) => (entry.session.clone(), entry.state),
        Err(missing) => return missing,
    };
    let chunk = session.events_after(after, limit);
    let mut body = String::new();
    for ev in &chunk.events {
        body.push_str(&ev.to_json().compact());
        body.push('\n');
    }
    cursor_page(
        body,
        chunk.next,
        chunk.more,
        ("X-Vpp-Job-State", state.as_str().to_string()),
        session.dropped().to_string(),
    )
}

fn job_metrics(id: u64, shared: &Arc<Shared>) -> Response {
    let (session, state) = match lock(&shared.jobs).job(id) {
        Ok(entry) => (entry.session.clone(), entry.state),
        Err(missing) => return missing,
    };
    let mut body = session.snapshot().to_prom();
    body.push_str(&format!(
        "# TYPE vpp_job_trace_events_admitted counter\nvpp_job_trace_events_admitted {}\n\
         # TYPE vpp_job_trace_events_dropped counter\nvpp_job_trace_events_dropped {}\n\
         # TYPE vpp_job_terminal gauge\nvpp_job_terminal {}\n",
        session.admitted(),
        session.dropped(),
        u8::from(state.terminal()),
    ));
    Response {
        status: 200,
        reason: "OK",
        content_type: ExportFormat::Prom.content_type(),
        allow: None,
        headers: Vec::new(),
        body,
    }
}

// ---------------------------------------------------------------------------
// Query parsing
// ---------------------------------------------------------------------------

/// Strict query-string parse: every key must be in `allowed` (unknown
/// keys are a client error, not a shrug), and keys and values are decoded
/// as `application/x-www-form-urlencoded` (`%XX` escapes plus `+` as
/// space) so values survive proxy re-encoding and HTML-form submission.
fn parse_query(query: &str, allowed: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for part in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = part.split_once('=').unwrap_or((part, ""));
        let key = form_decode(key)?;
        let value = form_decode(value)?;
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown query key '{key}' (expected {})",
                allowed.join("|")
            ));
        }
        out.push((key, value));
    }
    Ok(out)
}

/// Decode a query component per `application/x-www-form-urlencoded`:
/// `%XX` escapes (RFC 3986) plus `+` as space — browsers and `curl -d`
/// both produce `+` for spaces, so pure percent-decoding mis-reads them.
/// Malformed escapes and non-UTF-8 results are errors rather than passed
/// through mangled.
fn form_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'+' {
            out.push(b' ');
            i += 1;
        } else if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .and_then(|h| std::str::from_utf8(h).ok())
                .ok_or_else(|| format!("truncated percent escape in '{s}'"))?;
            let decoded = u8::from_str_radix(hex, 16)
                .map_err(|_| format!("bad percent escape '%{hex}' in '{s}'"))?;
            out.push(decoded);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("'{s}' does not decode to UTF-8"))
}

/// Parse the query of a cursor endpoint: `after` (default 0) and `limit`
/// (default [`CHUNK_DEFAULT`], capped at [`CHUNK_MAX`]), plus the
/// endpoint's own `extra` key, whose values go to `on_extra` in query
/// order. Any malformed key or value is a `400`.
fn cursor_query(
    query: &str,
    extra: &str,
    mut on_extra: impl FnMut(&str) -> Result<(), String>,
) -> Result<(u64, usize), Response> {
    let bad = |detail: String| Response::error(400, "Bad Request", detail);
    let params = parse_query(query, &["after", "limit", extra]).map_err(bad)?;
    let mut after = 0u64;
    let mut limit = CHUNK_DEFAULT;
    for (key, value) in &params {
        // Form decoding turns `+` into a space (`?after=+5` arrives as
        // " 5"), so integer params trim before parsing.
        match key.as_str() {
            "after" => {
                after = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("'after' must be a cursor integer, got '{value}'")))?;
            }
            "limit" => match value.trim().parse::<usize>() {
                Ok(v) if v >= 1 => limit = v.min(CHUNK_MAX),
                _ => {
                    return Err(bad(format!(
                        "'limit' must be a positive integer, got '{value}'"
                    )))
                }
            },
            _ => on_extra(value).map_err(bad)?,
        }
    }
    Ok((after, limit))
}

// ---------------------------------------------------------------------------
// Observability endpoints
// ---------------------------------------------------------------------------

/// Live session exposition plus the server's own series; with federation
/// configured, peers' expositions are scraped and merged in with
/// `peer="..."` labels. The session part is empty (not an error) when the
/// server holds no session, so a scraper still sees `vpp_up 1`.
fn metrics_body(shared: &Arc<Shared>) -> String {
    let mut out = shared
        .session
        .as_ref()
        .map(|s| s.snapshot().to_prom())
        .unwrap_or_default();
    let uptime = shared.uptime_s();
    out.push_str("# TYPE vpp_up gauge\nvpp_up 1\n");
    out.push_str(&format!(
        "# TYPE vpp_serve_uptime_seconds gauge\nvpp_serve_uptime_seconds {uptime}\n"
    ));
    out.push_str(&format!(
        "# TYPE vpp_serve_requests_total counter\nvpp_serve_requests_total {}\n",
        shared.requests.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        "# TYPE vpp_serve_runs_completed_total counter\nvpp_serve_runs_completed_total {}\n",
        shared.runs_completed.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        "# TYPE vpp_serve_jobs_submitted_total counter\nvpp_serve_jobs_submitted_total {}\n",
        shared.jobs_submitted.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        "# TYPE vpp_serve_jobs_completed_total counter\nvpp_serve_jobs_completed_total {}\n",
        shared.jobs_completed.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        "# TYPE vpp_serve_jobs_failed_total counter\nvpp_serve_jobs_failed_total {}\n",
        shared.jobs_failed.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        "# TYPE vpp_serve_jobs_canceled_total counter\nvpp_serve_jobs_canceled_total {}\n",
        shared.jobs_canceled.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        "# TYPE vpp_serve_jobs_evicted_total counter\nvpp_serve_jobs_evicted_total {}\n",
        shared.jobs_evicted.load(Ordering::SeqCst)
    ));
    {
        let reg = lock(&shared.jobs);
        out.push_str(&format!(
            "# TYPE vpp_serve_jobs_running gauge\nvpp_serve_jobs_running {}\n\
             # TYPE vpp_serve_jobs_queued gauge\nvpp_serve_jobs_queued {}\n",
            reg.running,
            reg.queue.len()
        ));
    }
    route_stats_exposition(shared, &mut out);
    if !shared.federate.is_empty() {
        merge_federated(&mut out, &shared.federate);
    }
    out
}

/// Render the per-route request-latency histograms and status counters.
/// Both families' samples carry a `route` label (and `status` for the
/// counter); the `# TYPE` line is emitted once per family, ahead of the
/// first sample, as strict parsers require.
fn route_stats_exposition(shared: &Arc<Shared>, out: &mut String) {
    let stats = lock(&shared.route_stats);
    if stats.is_empty() {
        return;
    }
    out.push_str("# TYPE vpp_serve_request_seconds histogram\n");
    for (route, stat) in stats.iter() {
        let labels = format!("route=\"{}\"", trace::prom_label_value(route));
        stat.latency
            .to_prom_lines("vpp_serve_request_seconds", &labels, out);
    }
    out.push_str("# TYPE vpp_serve_response_status_total counter\n");
    for (route, stat) in stats.iter() {
        for (status, n) in &stat.status {
            out.push_str(&format!(
                "vpp_serve_response_status_total{{route=\"{}\",status=\"{status}\"}} {n}\n",
                trace::prom_label_value(route)
            ));
        }
    }
}

/// Scrape each peer's exposition and append it with a `peer="..."` label
/// on every sample. `# TYPE` lines are deduplicated against families this
/// document already declared, so the merged exposition still parses under
/// a strict "sample after its declaration" reader.
fn merge_federated(out: &mut String, peers: &[String]) {
    let mut declared: BTreeSet<String> = out
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    out.push_str("# TYPE vpp_federate_peer_up gauge\n");
    declared.insert("vpp_federate_peer_up".to_string());
    let mut merged = String::new();
    for peer in peers {
        let scraped = scrape_peer(peer).and_then(|(status, _, body)| match status {
            200 => Ok(body),
            _ => Err(format!("peer answered {status}")),
        });
        let up = match scraped {
            Ok(text) => {
                merge_exposition(&mut merged, &mut declared, peer, &text);
                1
            }
            Err(e) => {
                crate::log_event!(
                    Warn,
                    "serve.federate",
                    "peer scrape failed",
                    peer = peer.as_str(),
                    error = e.as_str(),
                );
                0
            }
        };
        out.push_str(&format!(
            "vpp_federate_peer_up{{peer=\"{}\"}} {up}\n",
            trace::prom_label_value(peer)
        ));
    }
    out.push_str(&merged);
}

/// Fold one peer exposition into `merged`, labelling every sample with
/// its origin. Comment lines other than undeclared `# TYPE`s are dropped.
fn merge_exposition(
    merged: &mut String,
    declared: &mut BTreeSet<String>,
    peer: &str,
    text: &str,
) {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some(name) = rest.split_whitespace().next() {
                if declared.insert(name.to_string()) {
                    merged.push_str(line);
                    merged.push('\n');
                }
            }
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((name_and_labels, value)) = line.rsplit_once(' ') else {
            continue; // not a sample line; skip rather than corrupt
        };
        let peer_label = format!("peer=\"{}\"", trace::prom_label_value(peer));
        let relabelled = match name_and_labels.split_once('{') {
            Some((name, labels)) => format!("{name}{{{peer_label},{labels}"),
            None => format!("{name_and_labels}{{{peer_label}}}"),
        };
        merged.push_str(&relabelled);
        merged.push(' ');
        merged.push_str(value);
        merged.push('\n');
    }
}

/// Minimal bounded HTTP GET, the one client behind federation scrapes
/// and `vpp logs`. Accepts `host:port` or `http://host:port[/path]` (the
/// path defaults to `/metrics`) and returns the status code, the head
/// (status line and headers) and the body. Connecting and the request
/// write each time out after 2 s, and the whole response must arrive
/// within 2 s of the request: a per-read timeout alone would let a peer
/// sending a byte a second hold the caller for as long as it likes.
///
/// # Errors
/// If the peer cannot be reached, the response is malformed, it is
/// longer than 4 MiB, or it is not complete within the deadline.
pub fn scrape_peer(peer: &str) -> Result<(u16, String, String), String> {
    let rest = peer.strip_prefix("http://").unwrap_or(peer);
    let (hostport, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/metrics"),
    };
    let addr = hostport
        .to_socket_addrs()
        .map_err(|e| format!("resolve {hostport}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {hostport}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {hostport}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send to {addr}: {e}"))?;
    let deadline = Instant::now() + IO_TIMEOUT;
    let (mut raw, mut chunk) = (Vec::new(), [0u8; 16 * 1024]);
    loop {
        match read_by(&mut stream, &mut chunk, deadline) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if timeout_kind(&e) => {
                return Err(format!(
                    "read from {addr}: no complete response within {} s",
                    IO_TIMEOUT.as_secs()
                ))
            }
            Err(e) => return Err(format!("read from {addr}: {e}")),
        }
        if raw.len() as u64 > MAX_PEER_RESPONSE {
            return Err(format!("{addr} sent more than {MAX_PEER_RESPONSE} bytes"));
        }
    }
    let raw = String::from_utf8(raw).map_err(|e| format!("read from {addr}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .ok_or_else(|| format!("malformed response from {addr}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed status line from {addr}"))?;
    Ok((status, head.to_string(), body.to_string()))
}

fn healthz_body(shared: &Arc<Shared>) -> String {
    let state = RunState::from_u8(shared.state.load(Ordering::SeqCst));
    let (running, queued) = {
        let reg = lock(&shared.jobs);
        (reg.running, reg.queue.len())
    };
    // Level and per-level drop counts come from one journal guard
    // acquisition, so the two can never disagree mid-snapshot.
    let log = trace::log_stats();
    let mut doc = Value::Obj(vec![
        (
            "state".to_string(),
            Value::Str(state.as_str().to_string()),
        ),
        (
            "workload".to_string(),
            Value::Str(lock(&shared.workload).clone()),
        ),
        ("uptime_s".to_string(), Value::Num(shared.uptime_s())),
        ("tracing".to_string(), Value::Bool(shared.session.is_some())),
        (
            "requests".to_string(),
            Value::Num(shared.requests.load(Ordering::SeqCst) as f64),
        ),
        (
            "runs_completed".to_string(),
            Value::Num(shared.runs_completed.load(Ordering::SeqCst) as f64),
        ),
        (
            "runs_total".to_string(),
            Value::Num(shared.runs_total.load(Ordering::SeqCst) as f64),
        ),
        ("jobs_running".to_string(), Value::Num(running as f64)),
        ("jobs_queued".to_string(), Value::Num(queued as f64)),
        (
            "jobs_evicted".to_string(),
            Value::Num(shared.jobs_evicted.load(Ordering::SeqCst) as f64),
        ),
        ("log_level".to_string(), Value::Str(log.level.name().to_string())),
        (
            "log_dropped".to_string(),
            Value::Obj(
                trace::LogLevel::ALL
                    .into_iter()
                    .map(|l| {
                        (
                            l.name().to_string(),
                            Value::Num(log.dropped[l as usize] as f64),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty();
    doc.push('\n');
    doc
}

fn trace_response(query: &str, shared: &Arc<Shared>) -> Response {
    let params = match parse_query(query, &["format"]) {
        Ok(p) => p,
        Err(e) => return Response::error(400, "Bad Request", format!("{e}\n")),
    };
    let requested = params
        .iter()
        .rev()
        .find(|(k, _)| k == "format")
        .map_or("json", |(_, v)| v.as_str());
    let fmt: ExportFormat = match requested.parse() {
        Ok(f) => f,
        Err(e) => return Response::error(400, "Bad Request", format!("{e}\n")),
    };
    if !matches!(
        fmt,
        ExportFormat::Json | ExportFormat::Jsonl | ExportFormat::Csv
    ) {
        return Response::error(
            400,
            "Bad Request",
            format!(
                "format '{fmt}' is not servable here; use json|jsonl|csv \
                 (the prometheus exposition lives at /metrics)\n"
            ),
        );
    }
    match &shared.session {
        Some(session) => Response {
            status: 200,
            reason: "OK",
            content_type: fmt.content_type(),
            allow: None,
            headers: Vec::new(),
            body: session
                .snapshot()
                .render(fmt)
                .expect("json|jsonl|csv always serialise"),
        },
        None => Response::error(503, "Service Unavailable", "no active trace session\n"),
    }
}

/// `GET /logs?after=SEQ&limit=N&level=warn`: cursor-streamed jsonl over
/// the process-wide structured journal. Mirrors `/jobs/<id>/trace`: the
/// body is pure jsonl, the next cursor and whether more records were
/// already admitted travel as headers, and because journal seqs are dense
/// every record at or above the requested level is delivered exactly once
/// across chunks.
fn logs_response(query: &str) -> Response {
    let mut min_level = trace::LogLevel::Debug;
    let cursor = cursor_query(query, "level", |value| {
        min_level = value.parse()?;
        Ok(())
    });
    let (after, limit) = match cursor {
        Ok(c) => c,
        Err(bad) => return bad,
    };
    let chunk = trace::logs_after(after, limit, min_level);
    let mut body = String::new();
    for rec in &chunk.records {
        body.push_str(&rec.to_json().compact());
        body.push('\n');
    }
    let dropped = trace::LogLevel::ALL
        .into_iter()
        .map(|l| format!("{}={}", l.name(), chunk.dropped[l as usize]))
        .collect::<Vec<_>>()
        .join(",");
    cursor_page(
        body,
        chunk.next,
        chunk.more,
        ("X-Vpp-Log-Level", trace::log_level().name().to_string()),
        dropped,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
        request(addr, "GET", target)
    }

    fn request(addr: SocketAddr, method: &str, target: &str) -> (u16, String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(
            s,
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        (status, head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_and_honours_content_length() {
        let h = serve(0).expect("bind ephemeral");
        let (status, head, body) = get(h.addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        assert!(body.contains("vpp_up 1"));
        assert!(body.contains("vpp_serve_requests_total"));
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length header")
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        h.shutdown();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let h = serve(0).expect("bind ephemeral");
        let (status, _, body) = get(h.addr(), "/nope");
        assert_eq!(status, 404);
        assert!(body.contains("/metrics"));
        let (status, head, _) = request(h.addr(), "POST", "/metrics");
        assert_eq!(status, 405);
        assert!(head.contains("Allow: GET, HEAD"));
        let (status, head, _) = request(h.addr(), "DELETE", "/jobs");
        assert_eq!(status, 405);
        assert!(head.contains("Allow: GET, HEAD, POST"));
        h.shutdown();
    }

    #[test]
    fn trace_endpoint_needs_a_session_and_a_servable_format() {
        let h = serve(0).expect("bind ephemeral");
        let (status, _, body) = get(h.addr(), "/trace");
        assert_eq!(status, 503, "no session active: {body}");
        let (status, _, body) = get(h.addr(), "/trace?format=yaml");
        assert_eq!(status, 400);
        assert!(body.contains("unknown format"));
        let (status, _, body) = get(h.addr(), "/trace?format=prom");
        assert_eq!(status, 400);
        assert!(body.contains("/metrics"));
        let (status, _, body) = get(h.addr(), "/trace?fmt=json");
        assert_eq!(status, 400, "unknown query keys are rejected");
        assert!(body.contains("unknown query key 'fmt'"), "{body}");
        h.shutdown();
    }

    #[test]
    fn healthz_reports_handle_state() {
        let h = serve(0).expect("bind ephemeral");
        h.set_workload("unit_bench", 3);
        let (status, _, body) = get(h.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\": \"idle\""), "{body}");
        assert!(
            body.contains("\"tracing\": false"),
            "no session bound: {body}"
        );
        h.set_state(RunState::Running);
        h.run_completed();
        let (_, _, body) = get(h.addr(), "/healthz");
        assert!(body.contains("\"state\": \"running\""), "{body}");
        assert!(body.contains("\"workload\": \"unit_bench\""), "{body}");
        h.set_state(RunState::Done);
        assert_eq!(h.state(), RunState::Done);
        assert!(h.requests() >= 2);
        h.shutdown();
    }

    #[test]
    fn percent_decoding_and_strictness() {
        assert_eq!(form_decode("jsonl").unwrap(), "jsonl");
        assert_eq!(form_decode("json%6C").unwrap(), "jsonl");
        assert_eq!(form_decode("a%20b").unwrap(), "a b");
        // x-www-form-urlencoded: `+` is a space, and an encoded `%2B`
        // is the only way to say a literal plus.
        assert_eq!(form_decode("a+b").unwrap(), "a b");
        assert_eq!(form_decode("a%2Bb").unwrap(), "a+b");
        assert!(form_decode("bad%2").is_err());
        assert!(form_decode("bad%zz").is_err());
        assert!(form_decode("%ff").is_err(), "lone 0xff is not UTF-8");

        let ok = parse_query("after=10&limit=5", &["after", "limit"]).unwrap();
        assert_eq!(ok, vec![
            ("after".to_string(), "10".to_string()),
            ("limit".to_string(), "5".to_string()),
        ]);
        assert!(parse_query("nope=1", &["after"]).is_err());
        assert!(parse_query("", &["after"]).unwrap().is_empty());
        // A proxy-encoded key still matches its allowed name.
        let enc = parse_query("%66ormat=json%6C", &["format"]).unwrap();
        assert_eq!(enc, vec![("format".to_string(), "jsonl".to_string())]);
        // `?after=+5` decodes to " 5"; the integer endpoints trim it.
        let plus = parse_query("after=+5", &["after"]).unwrap();
        assert_eq!(plus, vec![("after".to_string(), " 5".to_string())]);
    }

    #[test]
    fn head_terminator_accepts_both_line_endings() {
        assert_eq!(head_terminator(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(head_terminator(b"GET / HTTP/1.1\n\nrest"), Some(16));
        assert_eq!(head_terminator(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn bare_lf_requests_are_served() {
        let h = serve(0).expect("bind ephemeral");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Lenient head: LF-only line endings, no CR anywhere.
        s.write_all(b"GET /healthz HTTP/1.1\nHost: x\nConnection: close\n\n")
            .unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        h.shutdown();
    }

    #[test]
    fn oversized_head_gets_431_not_a_dropped_connection() {
        let h = serve(0).expect("bind ephemeral");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\n").unwrap();
        let filler = format!("X-Filler: {}\r\n", "y".repeat(1000));
        for _ in 0..(MAX_HEAD / filler.len() + 2) {
            s.write_all(filler.as_bytes()).unwrap();
        }
        s.write_all(b"\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 431"), "{raw}");
        h.shutdown();
    }

    #[test]
    fn head_requests_mirror_get_headers_without_a_body() {
        let h = serve(0).expect("bind ephemeral");
        let (get_status, get_head, get_body) = get(h.addr(), "/healthz");
        assert_eq!(get_status, 200);
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "HEAD /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.is_empty(), "HEAD must not carry a body: {body:?}");
        let cl = |h: &str| -> usize {
            h.lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("content-length")
                .parse()
                .unwrap()
        };
        // Content-Length advertises what GET would send (modulo the
        // uptime field's width, so compare against the GET's own body).
        assert!(cl(head) > 0);
        assert_eq!(cl(&get_head), get_body.len());
        h.shutdown();
    }

    #[test]
    fn job_endpoints_require_a_handler() {
        let h = serve(0).expect("bind ephemeral");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let body = "{}";
        write!(
            s,
            "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        // The registry endpoints still answer (empty).
        let (status, _, body) = get(h.addr(), "/jobs");
        assert_eq!(status, 200);
        assert!(body.contains("\"jobs\": []"), "{body}");
        let (status, _, _) = get(h.addr(), "/jobs/0");
        assert_eq!(status, 404);
        h.shutdown();
    }

    /// Read exactly one `Content-Length`-framed response off a kept-alive
    /// stream. Bytes past the framed body — the start of the next
    /// pipelined response, which the server may write back-to-back with
    /// this one — stay in `carry` for the next call.
    fn read_framed_with(s: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, String) {
        let mut buf = std::mem::take(carry);
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(end) = head_terminator(&buf) {
                break end;
            }
            let n = s.read(&mut chunk).expect("read head");
            assert!(n > 0, "connection closed before a full response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length header")
            .parse()
            .unwrap();
        let mut body = buf[head_end..].to_vec();
        while body.len() < len {
            let n = s.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            body.extend_from_slice(&chunk[..n]);
        }
        *carry = body.split_off(len);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        (status, head, String::from_utf8_lossy(&body).to_string())
    }

    /// `read_framed_with` for lockstep request/response exchanges, where
    /// no second response can be in flight behind the first.
    fn read_framed(s: &mut TcpStream) -> (u16, String, String) {
        let mut carry = Vec::new();
        let out = read_framed_with(s, &mut carry);
        assert!(carry.is_empty(), "over-read past the framed body");
        out
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_socket() {
        let h = serve(0).expect("bind ephemeral");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // No Connection header: HTTP/1.1 defaults to persistent.
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        // Same socket, second exchange.
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (status, head, body) = read_framed(&mut s);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        assert!(body.contains("vpp_up 1"), "{body}");
        // Asking to close is honored: the response says close and the
        // server hangs up after it.
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (status, head, _) = read_framed(&mut s);
        assert_eq!(status, 200);
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).expect("read to EOF");
        assert!(rest.is_empty(), "bytes after the final response");
        h.shutdown();
    }

    #[test]
    fn keep_alive_replies_do_not_wait_for_a_delayed_ack() {
        let h = serve(0).expect("bind ephemeral");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Linux starts a connection in quick-ACK mode, so only the later
        // exchanges of the 40 would show a reply held back by Nagle until
        // the client's delayed ACK (~40 ms) for an earlier segment.
        let mut round_trips: Vec<Duration> = (0..40)
            .map(|_| {
                let t0 = Instant::now();
                s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    .unwrap();
                let (status, _, _) = read_framed(&mut s);
                assert_eq!(status, 200);
                t0.elapsed()
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(10),
            "median kept-alive round trip {median:?}: {round_trips:?}"
        );
        h.shutdown();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let h = serve(0).expect("bind ephemeral");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Both requests in one write; the surplus past the first head
        // must carry over as the second request.
        s.write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        let mut carry = Vec::new();
        let (status, _, body) = read_framed_with(&mut s, &mut carry);
        assert_eq!(status, 200);
        assert!(body.contains("\"state\""), "{body}");
        let (status, _, body) = read_framed_with(&mut s, &mut carry);
        assert_eq!(status, 404, "{body}");
        assert!(carry.is_empty(), "bytes after the final response");
        h.shutdown();
    }

    #[test]
    fn half_sent_request_gets_408_idle_connection_closes_quietly() {
        let h = serve(0).expect("bind ephemeral");
        // A half-sent request times out into an explicit 408.
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"GET /healthz HT").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
        // A connection that never sends a byte is closed with no
        // response at all (and without wedging the worker pool).
        let mut idle = TcpStream::connect(h.addr()).expect("connect");
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut raw = String::new();
        idle.read_to_string(&mut raw).expect("read EOF");
        assert!(raw.is_empty(), "idle connection got a response: {raw}");
        h.shutdown();
    }

    #[test]
    fn body_longer_than_declared_is_rejected_on_a_closing_request() {
        let h = serve(0).expect("bind ephemeral");
        let mut s = TcpStream::connect(h.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Declares 2 bytes, sends 7, and says close — the extra bytes
        // cannot be a pipelined request, so this is a framing error.
        s.write_all(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}extra",
        )
        .unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read response");
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        assert!(raw.contains("longer than the declared Content-Length"), "{raw}");
        h.shutdown();
    }

    #[test]
    fn merged_expositions_label_peer_samples() {
        let mut declared = BTreeSet::new();
        declared.insert("vpp_up".to_string());
        let mut merged = String::new();
        let peer_text = "# TYPE vpp_up gauge\nvpp_up 1\n# TYPE foo_total counter\nfoo_total{a=\"b\"} 3\n";
        merge_exposition(&mut merged, &mut declared, "peer-1:9", peer_text);
        assert!(merged.contains("vpp_up{peer=\"peer-1:9\"} 1"), "{merged}");
        assert!(merged.contains("foo_total{peer=\"peer-1:9\",a=\"b\"} 3"), "{merged}");
        // The duplicate TYPE for vpp_up was dropped, foo_total's kept.
        assert!(!merged.contains("# TYPE vpp_up"), "{merged}");
        assert!(merged.contains("# TYPE foo_total counter"), "{merged}");
    }
}
