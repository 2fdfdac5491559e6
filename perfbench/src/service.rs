//! `serve_jobs`: the job service under a closed loop. An in-process
//! `serve_with` at its defaults (2 sessions, queue 32) with the
//! reproduction's `ProtocolJobHandler`, driven by 2 client threads on one
//! keep-alive connection each. A client submits a seeded small job,
//! drains its trace through the `?after=` cursor, reads its status, and
//! on every 10th job also scrapes `/metrics` and submits one more job
//! that it cancels. One op is one completed job, from submit until its
//! trace is drained.

use crate::http::{Client, Response};
use crate::report::{median, quantile, Layers, Report, Window};
use crate::spans::Tracer;
use crate::{alloc, timed_setups, traced_report, Config, SETUPS};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vpp_core::ProtocolJobHandler;
use vpp_substrate::json::{self, Value};
use vpp_substrate::serve::{serve_with, CancelToken, JobHandler, ServeConfig, ServeHandle};
use vpp_substrate::{pool, trace, Rng};

/// Client threads, each on its own keep-alive connection.
const CLIENTS: u64 = 2;
/// Benchmarks the clients draw from: the suite's small jobs.
const WORKLOADS: [&str; 4] = ["B.hR105_hse", "Si128_acfdtr", "Si256_hse", "PdO2"];
/// Pause after a trace poll that returned nothing new.
const EMPTY_POLL_PAUSE: Duration = Duration::from_millis(2);
/// Requests at least this slow carry the Nagle × delayed-ACK signature.
const SLOW_MS: f64 = 40.0;
/// The service's per-job trace event budget, for the direct-run
/// comparison under a bound session.
const JOB_TRACE_CAPACITY: usize = 1 << 20;

/// Every job spec the clients send at `seed`: each benchmark at 1–2
/// nodes and 1–2 repeats, with the seed salt following the workload seed.
#[must_use]
fn specs(seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    for w in WORKLOADS {
        for nodes in 1..=2 {
            for repeats in 1..=2 {
                out.push(format!(
                    r#"{{"workload":"{w}","nodes":{nodes},"repeats":{repeats},"seed_salt":{}}}"#,
                    seed & 0xFFFF
                ));
            }
        }
    }
    out
}

/// A client's seeded job sequence: [`specs`] in a fresh seeded order per
/// cycle, so every run sends the same mix and only the order follows
/// the seed.
struct SpecDraw {
    specs: Vec<String>,
    order: Vec<usize>,
    rng: Rng,
}

impl SpecDraw {
    #[must_use]
    fn new(seed: u64, client: u64) -> SpecDraw {
        SpecDraw {
            specs: specs(seed),
            order: Vec::new(),
            rng: Rng::new(seed).fork(client),
        }
    }

    /// The next spec of the sequence.
    fn next_spec(&mut self) -> String {
        if self.order.is_empty() {
            self.order = (0..self.specs.len()).collect();
            for i in (1..self.order.len()).rev() {
                let j = self.rng.index(i + 1);
                self.order.swap(i, j);
            }
        }
        let i = self.order.pop().expect("refilled above");
        self.specs[i].clone()
    }
}

/// The result a direct `ProtocolJobHandler::run` gives for `spec`, on
/// one thread as the service runs it.
///
/// # Errors
/// The handler's validation or run error.
fn direct_result(spec: &str) -> Result<Value, String> {
    let handler = ProtocolJobHandler;
    let doc = json::parse(spec).map_err(|e| format!("spec {spec}: {e}"))?;
    let normalised = handler.validate(&doc)?;
    pool::serial(|| handler.run(&normalised, &CancelToken::new()))
}

/// One HTTP exchange as the client saw it.
struct Exchange {
    route: &'static str,
    ms: f64,
}

/// One completed job as the client saw it.
struct JobSeen {
    op_ms: f64,
    spec: String,
    result: Option<Value>,
    queue_wait_ms: f64,
    run_ms: f64,
    events: usize,
    bytes: usize,
    /// The first failed check of the job (or of the extra requests that
    /// followed it).
    error: Option<String>,
}

/// What one client thread recorded.
#[derive(Default)]
struct ClientLog {
    exchanges: Vec<Exchange>,
    jobs: Vec<JobSeen>,
    connect_ms: Vec<f64>,
}

/// A client bound to one thread: its connection, log and span context.
struct LoadClient<'a> {
    http: Client,
    log: ClientLog,
    tracer: Option<&'a Tracer>,
    op: u64,
}

impl LoadClient<'_> {
    /// One request; fails on transport errors and on statuses the service
    /// does not document for it.
    fn call(
        &mut self,
        route: &'static str,
        method: &str,
        target: &str,
        body: Option<&str>,
        documented: &[u16],
    ) -> Result<Response, String> {
        let start = Instant::now();
        let out = self.http.request(method, target, body);
        let end = Instant::now();
        if let Some(t) = self.tracer {
            t.record(t.id(), route, self.op, None, start, end);
        }
        self.log.exchanges.push(Exchange {
            route,
            ms: end.duration_since(start).as_secs_f64() * 1e3,
        });
        let resp = out.map_err(|e| format!("{method} {target}: {e}"))?;
        if documented.contains(&resp.status) {
            Ok(resp)
        } else {
            Err(format!(
                "{method} {target}: undocumented status {} ({})",
                resp.status,
                resp.text().trim()
            ))
        }
    }

    /// Submit a job; returns its id.
    fn submit(&mut self, spec: &str) -> Result<u64, String> {
        let resp = self.call("serve.post_jobs", "POST", "/jobs", Some(spec), &[201])?;
        let doc = json::parse(&resp.text()).map_err(|e| format!("POST /jobs body: {e}"))?;
        doc.get("id")
            .and_then(Value::as_f64)
            .map(|id| id as u64)
            .ok_or_else(|| "POST /jobs: no id".to_string())
    }

    /// Submit `spec`, drain its trace, read its status: one op.
    fn job(&mut self, spec: String) -> JobSeen {
        let t0 = Instant::now();
        let mut seen = JobSeen {
            op_ms: 0.0,
            spec,
            result: None,
            queue_wait_ms: 0.0,
            run_ms: 0.0,
            events: 0,
            bytes: 0,
            error: None,
        };
        if let Err(e) = self.job_steps(t0, &mut seen) {
            seen.error = Some(e);
        }
        seen
    }

    fn job_steps(&mut self, t0: Instant, seen: &mut JobSeen) -> Result<(), String> {
        let id = self.submit(&seen.spec.clone())?;
        let mut after = 0u64;
        loop {
            let target = format!("/jobs/{id}/trace?after={after}");
            let resp = self.call("serve.get_trace", "GET", &target, None, &[200])?;
            seen.bytes += resp.body.len();
            let text = resp.text();
            for line in text.lines().filter(|l| !l.is_empty()) {
                let ev = json::parse(line).map_err(|e| format!("{target}: {e}"))?;
                let seq = ev
                    .get("seq")
                    .and_then(Value::as_f64)
                    .ok_or("event without seq")?;
                if seq != (seen.events as f64) {
                    return Err(format!(
                        "{target}: event seq {seq}, expected {}",
                        seen.events
                    ));
                }
                seen.events += 1;
            }
            let header = |name: &str| {
                resp.header(name)
                    .map(str::to_string)
                    .ok_or(format!("{target}: no {name}"))
            };
            after = header("X-Vpp-Next-Cursor")?
                .parse()
                .map_err(|e| format!("{target}: cursor {e}"))?;
            let more = header("X-Vpp-More")? == "true";
            let state = header("X-Vpp-Job-State")?;
            if matches!(state.as_str(), "done" | "failed" | "canceled") && !more {
                break;
            }
            if text.is_empty() && !more {
                std::thread::sleep(EMPTY_POLL_PAUSE);
            }
        }
        seen.op_ms = t0.elapsed().as_secs_f64() * 1e3;
        let resp = self.call("serve.get_job", "GET", &format!("/jobs/{id}"), None, &[200])?;
        let doc = json::parse(&resp.text()).map_err(|e| format!("GET /jobs/{id}: {e}"))?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("job {id}: no {k}"))
        };
        let state = doc.get("state").and_then(Value::as_str).unwrap_or("?");
        if state != "done" {
            return Err(format!("job {id}: state {state}"));
        }
        let admitted = doc
            .get("trace")
            .and_then(|t| t.get("admitted"))
            .and_then(Value::as_f64)
            .ok_or(format!("job {id}: no trace.admitted"))?;
        if admitted != seen.events as f64 {
            return Err(format!(
                "job {id}: streamed {} events, admitted {admitted}",
                seen.events
            ));
        }
        let (submitted, started, finished) =
            (num("submitted_s")?, num("started_s")?, num("finished_s")?);
        seen.queue_wait_ms = (started - submitted) * 1e3;
        seen.run_ms = (finished - started) * 1e3;
        seen.result = doc.get("result").cloned();
        Ok(())
    }

    /// Every 10th job: scrape `/metrics`, then submit one more job and
    /// cancel it.
    fn extras(&mut self, spec: &str) -> Result<(), String> {
        self.call("serve.get_metrics", "GET", "/metrics", None, &[200])?;
        let id = self.submit(spec)?;
        self.call(
            "serve.delete_job",
            "DELETE",
            &format!("/jobs/{id}"),
            None,
            &[200, 202, 409],
        )?;
        Ok(())
    }
}

/// One client's closed loop until `deadline` (at least one job).
fn client(
    addr: SocketAddr,
    seed: u64,
    index: u64,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let mut draw = SpecDraw::new(seed, index);
    let mut d = LoadClient {
        http: Client::new(addr),
        log: ClientLog::default(),
        tracer,
        op: 0,
    };
    let mut n = 0u64;
    loop {
        n += 1;
        d.op = n * CLIENTS + index;
        let mut job = d.job(draw.next_spec());
        if n.is_multiple_of(10) {
            let extra = draw.next_spec();
            if let Err(e) = d.extras(&extra) {
                job.error.get_or_insert(e);
            }
        }
        d.log.jobs.push(job);
        if Instant::now() >= deadline {
            break;
        }
    }
    d.log.connect_ms = std::mem::take(&mut d.http.connect_ms);
    d.log
}

/// Start the service and wait for its first `/healthz` 200.
fn start_service() -> (ServeHandle, Client) {
    let handle = serve_with(ServeConfig::new(0).handler(Arc::new(ProtocolJobHandler)))
        .expect("bind the job service on an ephemeral port");
    let mut http = Client::new(handle.addr());
    let health = http
        .request("GET", "/healthz", None)
        .expect("first /healthz");
    assert_eq!(health.status, 200, "first /healthz");
    (handle, http)
}

/// Both clients for `window`; the combined log and its wall time.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    window: Duration,
    tracer: Option<&Tracer>,
) -> (ClientLog, f64) {
    let start = Instant::now();
    let deadline = start + window;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| s.spawn(move || client(addr, seed, i, deadline, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut all = ClientLog::default();
    for log in logs {
        all.exchanges.extend(log.exchanges);
        all.jobs.extend(log.jobs);
        all.connect_ms.extend(log.connect_ms);
    }
    (all, secs)
}

/// Check every job (results against direct handler runs, one per
/// distinct spec) and fill the end-to-end window.
fn score(log: &ClientLog, secs: f64, w: &mut Window) {
    let mut direct: BTreeMap<&str, Result<Value, String>> = BTreeMap::new();
    for job in &log.jobs {
        let outcome = match (&job.error, &job.result) {
            (Some(e), _) => Err(e.clone()),
            (None, None) => Err("job finished without a result".to_string()),
            (None, Some(result)) => match direct
                .entry(&job.spec)
                .or_insert_with(|| direct_result(&job.spec))
            {
                Ok(expected) if expected == result => Ok(()),
                Ok(_) => Err(format!("result of {} differs from a direct run", job.spec)),
                Err(e) => Err(format!("direct run of {} failed: {e}", job.spec)),
            },
        };
        if outcome.is_ok() {
            w.latencies_ms.push(job.op_ms);
        }
        w.check(outcome);
    }
    w.ops_per_s = w.latencies_ms.len() as f64 / secs;
}

/// Direct handler runs of every spec, alternating no session and a bound
/// per-job session, for `window`: `(no-session p50 ms, session overhead)`.
fn direct_runs(seed: u64, window: Duration) -> (f64, f64) {
    let specs: Vec<Value> = specs(seed)
        .iter()
        .map(|s| {
            let doc = json::parse(s).expect("generated spec parses");
            ProtocolJobHandler
                .validate(&doc)
                .expect("generated spec is valid")
        })
        .collect();
    let handler = ProtocolJobHandler;
    let run = |spec: &Value| {
        let t = Instant::now();
        let out = pool::serial(|| handler.run(spec, &CancelToken::new()));
        std::hint::black_box(out).expect("a generated spec runs");
        t.elapsed().as_secs_f64()
    };
    let (mut plain_ms, mut plain_round, mut bound_round) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while round < 2 || start.elapsed() < window {
        let plain_first = round % 2 == 0;
        for with_session in [!plain_first, plain_first] {
            let mut total = 0.0;
            for spec in &specs {
                if with_session {
                    let session = trace::local_session(JOB_TRACE_CAPACITY);
                    let _bind = session.bind();
                    total += run(spec);
                } else {
                    let s = run(spec);
                    plain_ms.push(s * 1e3);
                    total += s;
                }
            }
            if with_session {
                bound_round.push(total);
            } else {
                plain_round.push(total);
            }
        }
        round += 1;
    }
    (
        median(&plain_ms),
        median(&bound_round) / median(&plain_round) - 1.0,
    )
}

/// The serve_jobs run.
#[must_use]
pub fn run(cfg: &Config) -> Report {
    let setups = if cfg.trace { 1 } else { SETUPS };
    let mut warm_up_errors = Vec::new();
    let (setup_s, handle) = timed_setups(setups, || {
        let (handle, http) = start_service();
        let mut warm = LoadClient {
            http,
            log: ClientLog::default(),
            tracer: None,
            op: 0,
        };
        // The same job on every seed, so set-up does the same work.
        let job = warm.job(specs(cfg.seed).swap_remove(0));
        warm_up_errors.extend(job.error);
        // Close the warm-up connection: an idle keep-alive socket would
        // hold one of the service's two connection workers.
        drop(warm);
        handle
    });
    let addr = handle.addr();
    let mut plain = Window {
        setup_s,
        ..Window::default()
    };
    for e in warm_up_errors {
        plain.check(Err(format!("warm-up job: {e}")));
    }
    if !cfg.trace {
        alloc::reset_peak();
        let (log, secs) = closed_loop(addr, cfg.seed, cfg.window(), None);
        plain.peak_heap_bytes = alloc::peak_bytes() as f64;
        handle.shutdown();
        score(&log, secs, &mut plain);
        return Report::untraced(&plain);
    }
    let third = cfg.window() / 3;
    let (log, secs) = closed_loop(addr, cfg.seed, third, None);
    score(&log, secs, &mut plain);
    let tracer = Tracer::default();
    let (log, secs) = closed_loop(addr, cfg.seed, third, Some(&tracer));
    handle.shutdown();
    let mut traced = Window::default();
    score(&log, secs, &mut traced);
    let (handler_p50_ms, session_overhead) = direct_runs(cfg.seed, third);
    let report = traced_report(
        &plain,
        &traced,
        layers(&log, handler_p50_ms, session_overhead),
    );
    crate::write_spans(&tracer, cfg);
    report
}

fn layers(log: &ClientLog, handler_p50_ms: f64, session_overhead: f64) -> Layers {
    let jobs: Vec<&JobSeen> = log.jobs.iter().filter(|j| j.error.is_none()).collect();
    let per_job = |x: f64| x / jobs.len().max(1) as f64;
    let route = |r: &str| -> Vec<f64> {
        log.exchanges
            .iter()
            .filter(|e| e.route == r)
            .map(|e| e.ms)
            .collect()
    };
    let slow = log.exchanges.iter().filter(|e| e.ms >= SLOW_MS).count();
    let waits: Vec<f64> = jobs.iter().map(|j| j.queue_wait_ms).collect();
    let runs: Vec<f64> = jobs.iter().map(|j| j.run_ms).collect();
    let mut l = Layers::default();
    l.set("core.handler.p50_ms", handler_p50_ms);
    l.set("trace.job_overhead_frac", session_overhead);
    l.set("serve.connect.calls", per_job(log.connect_ms.len() as f64));
    l.set("serve.connect.p50_ms", median(&log.connect_ms));
    l.set("serve.post_jobs.p50_ms", median(&route("serve.post_jobs")));
    l.set("serve.get_trace.p50_ms", median(&route("serve.get_trace")));
    l.set(
        "serve.get_trace.p90_ms",
        quantile(&route("serve.get_trace"), 0.9),
    );
    l.set("serve.get_job.p50_ms", median(&route("serve.get_job")));
    l.set(
        "serve.get_metrics.p50_ms",
        median(&route("serve.get_metrics")),
    );
    l.set(
        "serve.delete_job.p50_ms",
        median(&route("serve.delete_job")),
    );
    l.set(
        "serve.requests_per_job",
        per_job(log.exchanges.len() as f64),
    );
    l.set(
        "serve.trace.events_per_job",
        per_job(jobs.iter().map(|j| j.events as f64).sum()),
    );
    l.set(
        "serve.trace.bytes_per_job",
        per_job(jobs.iter().map(|j| j.bytes as f64).sum()),
    );
    l.set(
        "serve.slow_requests_frac",
        slow as f64 / log.exchanges.len().max(1) as f64,
    );
    l.set("serve.queue_wait.p50_ms", median(&waits));
    l.set("serve.run.p50_ms", median(&runs));
    l
}
