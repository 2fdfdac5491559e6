//! Integration tests for the multi-tenant job service: real HTTP clients
//! over `std::net::TcpStream` against a live [`serve_with`] instance
//! with a synthetic [`JobHandler`].
//!
//! The acceptance criteria this file pins:
//! - two concurrently POSTed jobs run simultaneously and record into
//!   disjoint per-session traces,
//! - `GET /jobs/<id>/trace?after=SEQ` delivers each event exactly once
//!   across chunks,
//! - a federated instance's `/metrics` parses as strict Prometheus text
//!   and carries both peers' series under `peer="..."` labels.
//!
//! Job runner threads are named `vpp-serve` like the acceptor/workers,
//! so the leak accounting here covers them too. Tests serialize on a
//! lock so thread counting cannot race another test's server.

use std::collections::BTreeSet;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use vasp_power_profiles::substrate::json::{self, Value};
use vasp_power_profiles::substrate::serve::{
    serve, serve_with, CancelToken, JobHandler, ServeConfig,
};
use vasp_power_profiles::substrate::trace;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Minimal HTTP/1.1 exchange: returns `(status, head, body)`.
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        s,
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
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

fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    request(addr, "GET", target, "")
}

/// The value of one response header, if present.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(": "))
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
}

/// POST a job spec and return its id from the 201 body.
fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, head, body) = request(addr, "POST", "/jobs", spec);
    assert_eq!(status, 201, "submit failed: {body}");
    assert!(header(&head, "Location").is_some(), "201 carries Location: {head}");
    let doc = json::parse(&body).expect("201 body is JSON");
    doc.get("id").and_then(Value::as_f64).expect("201 body has an id") as u64
}

/// Poll `GET /jobs/<id>` until the job reaches `state` (or panic after
/// ten seconds).
fn await_state(addr: SocketAddr, id: u64, state: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("status is JSON");
        if doc.get("state").and_then(Value::as_str) == Some(state) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never reached '{state}'; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A synthetic workload: `validate` demands a `tag`, `run` emits
/// `events` marks named after the tag. With `"rendezvous": true` the run
/// meets the test thread on `gate` once before emitting and once after,
/// which both proves two jobs are inside `run` simultaneously and lets
/// the test inspect a still-running job deterministically. With
/// `"await_cancel": true` the run parks until its [`CancelToken`] fires —
/// a deterministically cancellable long job. With `"panic": true` the
/// run panics.
struct TagHandler {
    gate: Arc<Barrier>,
}

impl JobHandler for TagHandler {
    fn validate(&self, spec: &Value) -> Result<Value, String> {
        spec.get("tag")
            .and_then(Value::as_str)
            .ok_or("'tag' (string) is required")?;
        Ok(spec.clone())
    }

    fn run(&self, spec: &Value, cancel: &CancelToken) -> Result<Value, String> {
        let tag = spec
            .get("tag")
            .and_then(Value::as_str)
            .ok_or("validated spec lost its tag")?
            .to_string();
        let events = spec.get("events").and_then(Value::as_f64).unwrap_or(8.0) as usize;
        let rendezvous = matches!(spec.get("rendezvous"), Some(Value::Bool(true)));
        if matches!(spec.get("panic"), Some(Value::Bool(true))) {
            panic!("tag {tag} exploded");
        }
        if matches!(spec.get("await_cancel"), Some(Value::Bool(true))) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cancel.is_canceled() {
                if Instant::now() >= deadline {
                    return Err("await_cancel job never saw its token fire".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            return Err("stopped at the cancel checkpoint".to_string());
        }
        if rendezvous {
            self.gate.wait();
        }
        for _ in 0..events {
            match tag.as_str() {
                "alpha" => trace::mark("job.alpha"),
                "beta" => trace::mark("job.beta"),
                _ => trace::mark("job.cursor"),
            }
        }
        if rendezvous {
            self.gate.wait();
        }
        Ok(Value::Obj(vec![
            ("tag".to_string(), Value::Str(tag)),
            ("events".to_string(), Value::Num(events as f64)),
        ]))
    }
}

/// Count live threads whose comm is `vpp-serve` (acceptor, workers and
/// job runners all set it), polling briefly since joined tasks can
/// linger in procfs for a moment.
fn serve_threads_settled() -> usize {
    let count = || {
        std::fs::read_dir("/proc/self/task")
            .expect("linux procfs")
            .filter_map(Result::ok)
            .filter_map(|e| std::fs::read_to_string(e.path().join("comm")).ok())
            .filter(|c| c.trim() == "vpp-serve")
            .count()
    };
    let mut remaining = count();
    for _ in 0..200 {
        if remaining == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        remaining = count();
    }
    remaining
}

/// Parse a jsonl trace body into `(seq, name)` pairs.
fn trace_lines(body: &str) -> Vec<(u64, String)> {
    body.lines()
        .map(|line| {
            let ev = json::parse(line).unwrap_or_else(|e| panic!("bad jsonl line '{line}': {e}"));
            (
                ev.get("seq").and_then(Value::as_f64).expect("event has a seq") as u64,
                ev.get("name")
                    .and_then(Value::as_str)
                    .expect("event has a name")
                    .to_string(),
            )
        })
        .collect()
}

/// A keep-alive HTTP client: one `TcpStream` reused for every request,
/// reading `Content-Length`-framed responses so the next exchange starts
/// exactly where the previous body ended. Reconnects — and counts it —
/// only when the server signals `Connection: close` (the per-connection
/// request cap) or the socket dies before a response.
struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    reconnects: usize,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: Client::dial(addr),
            reconnects: 0,
        }
    }

    fn dial(addr: SocketAddr) -> TcpStream {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    }

    fn reconnect(&mut self) {
        self.stream = Client::dial(self.addr);
        self.reconnects += 1;
    }

    fn get(&mut self, target: &str) -> (u16, String, String) {
        self.request("GET", target, "")
    }

    fn request(&mut self, method: &str, target: &str, body: &str) -> (u16, String, String) {
        let msg = format!(
            "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if self.stream.write_all(msg.as_bytes()).is_err() {
            // The server hung up between exchanges (request cap landed
            // right on the previous response); it never saw this request,
            // so resending on a fresh socket cannot double-submit.
            self.reconnect();
            self.stream.write_all(msg.as_bytes()).expect("send after reconnect");
        }
        let resp = match self.read_response() {
            Some(resp) => resp,
            None => {
                self.reconnect();
                self.stream.write_all(msg.as_bytes()).expect("send after reconnect");
                self.read_response().expect("response after reconnect")
            }
        };
        if header(&resp.1, "Connection") == Some("close") {
            self.reconnect();
        }
        resp
    }

    /// One framed response, or `None` when the connection closed before
    /// a response head arrived.
    fn read_response(&mut self) -> Option<(u16, String, String)> {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 2048];
        let head_end = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) if buf.is_empty() => return None,
                Ok(0) => panic!("connection closed mid-head: {:?}", String::from_utf8_lossy(&buf)),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) if buf.is_empty() => return None,
                Err(e) => panic!("read head: {e}"),
            }
        };
        let head = String::from_utf8_lossy(&buf[..head_end - 4]).to_string();
        let len: usize = header(&head, "Content-Length")
            .expect("framed response carries Content-Length")
            .parse()
            .expect("numeric Content-Length");
        let mut body = buf[head_end..].to_vec();
        while body.len() < len {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            body.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(body.len(), len, "read past the framed body");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        Some((status, head, String::from_utf8_lossy(&body).to_string()))
    }
}

#[test]
fn concurrent_jobs_run_simultaneously_with_disjoint_traces() {
    let _guard = locked();
    let gate = Arc::new(Barrier::new(3)); // two jobs + this test
    let h = serve_with(
        ServeConfig::new(0)
            .max_sessions(2)
            .handler(Arc::new(TagHandler { gate: gate.clone() })),
    )
    .expect("bind ephemeral");
    let addr = h.addr();

    let a = submit(addr, r#"{"tag": "alpha", "events": 40, "rendezvous": true}"#);
    let b = submit(addr, r#"{"tag": "beta", "events": 40, "rendezvous": true}"#);
    assert_ne!(a, b);

    // Both runs are inside `run` once the first rendezvous completes, and
    // neither can finish before the second — so this snapshot must show
    // two simultaneously running sessions.
    gate.wait();
    let (_, _, listing) = get(addr, "/jobs");
    gate.wait();

    let doc = json::parse(&listing).expect("listing is JSON");
    assert_eq!(doc.get("running").and_then(Value::as_f64), Some(2.0), "{listing}");
    let Some(Value::Arr(jobs)) = doc.get("jobs") else {
        panic!("listing has a jobs array: {listing}");
    };
    for job in jobs {
        assert_eq!(job.get("state").and_then(Value::as_str), Some("running"), "{listing}");
    }

    let done_a = await_state(addr, a, "done");
    let done_b = await_state(addr, b, "done");
    assert_eq!(
        done_a.get("result").and_then(|r| r.get("tag")).and_then(Value::as_str),
        Some("alpha")
    );
    assert_eq!(
        done_b.get("result").and_then(|r| r.get("tag")).and_then(Value::as_str),
        Some("beta")
    );

    // Each session's trace holds its own 40 marks and nothing of the
    // neighbour's, even though both ran at the same time.
    for (id, own, other) in [(a, "job.alpha", "job.beta"), (b, "job.beta", "job.alpha")] {
        let (status, _, body) = get(addr, &format!("/jobs/{id}/trace?limit=4096"));
        assert_eq!(status, 200);
        let lines = trace_lines(&body);
        assert_eq!(lines.len(), 40, "job {id} trace:\n{body}");
        assert!(lines.iter().all(|(_, name)| name == own), "{body}");
        assert!(lines.iter().all(|(_, name)| name != other), "{body}");
    }

    h.shutdown();
    assert_eq!(serve_threads_settled(), 0, "job runner threads survived shutdown");
}

#[test]
fn trace_cursor_delivers_each_event_exactly_once_across_chunks() {
    let _guard = locked();
    const EVENTS: usize = 1500; // several times the default chunk size
    let gate = Arc::new(Barrier::new(2)); // the job + this test
    let h = serve_with(
        ServeConfig::new(0)
            .max_sessions(1)
            .handler(Arc::new(TagHandler { gate: gate.clone() })),
    )
    .expect("bind ephemeral");
    let addr = h.addr();

    let id = submit(
        addr,
        &format!(r#"{{"tag": "cursor", "events": {EVENTS}, "rendezvous": true}}"#),
    );
    gate.wait(); // job starts emitting; it parks on the gate again when done

    // Page through the live trace with an odd chunk size. Every chunk
    // advertises the next cursor; the union of chunks must be exactly
    // seqs 0..EVENTS with no duplicates and no holes.
    let mut after = 0u64;
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut saw_more = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.len() < EVENTS && Instant::now() < deadline {
        let (status, head, body) = get(addr, &format!("/jobs/{id}/trace?after={after}&limit=257"));
        assert_eq!(status, 200, "{body}");
        for (seq, name) in trace_lines(&body) {
            assert_eq!(name, "job.cursor");
            assert!(seen.insert(seq), "seq {seq} delivered twice");
        }
        saw_more |= header(&head, "X-Vpp-More") == Some("true");
        let next: u64 = header(&head, "X-Vpp-Next-Cursor")
            .expect("chunk advertises a cursor")
            .parse()
            .expect("cursor is an integer");
        assert!(next >= after, "cursor went backwards: {next} < {after}");
        after = next;
        if body.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    gate.wait(); // release the job before asserting, so failures cannot deadlock shutdown

    assert_eq!(seen.len(), EVENTS, "missing events");
    assert_eq!(seen.iter().copied().collect::<Vec<_>>(), (0..EVENTS as u64).collect::<Vec<_>>());
    assert!(saw_more, "a 257-event chunk over 1500 events must set X-Vpp-More");

    let done = await_state(addr, id, "done");
    assert_eq!(
        done.get("trace").and_then(|t| t.get("admitted")).and_then(Value::as_f64),
        Some(EVENTS as f64)
    );

    // Caught up: an empty chunk that keeps the cursor and reports the
    // terminal state.
    let (status, head, body) = get(addr, &format!("/jobs/{id}/trace?after={after}"));
    assert_eq!(status, 200);
    assert!(body.is_empty(), "{body}");
    assert_eq!(header(&head, "X-Vpp-More"), Some("false"));
    assert_eq!(header(&head, "X-Vpp-Job-State"), Some("done"));

    // Strict query parsing guards the cursor protocol: unknown keys and
    // malformed cursors are client errors, not shrugs.
    let (status, _, body) = get(addr, &format!("/jobs/{id}/trace?cursor=5"));
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = get(addr, &format!("/jobs/{id}/trace?after=x"));
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = get(addr, &format!("/jobs/{id}/trace?limit=0"));
    assert_eq!(status, 400, "{body}");

    h.shutdown();
}

#[test]
fn a_panicking_job_fails_with_its_panic_message() {
    let _guard = locked();
    let gate = Arc::new(Barrier::new(1)); // unused: no rendezvous jobs here
    let h = serve_with(ServeConfig::new(0).handler(Arc::new(TagHandler { gate })))
        .expect("bind ephemeral");
    let id = submit(h.addr(), r#"{"tag": "gamma", "panic": true}"#);
    let doc = await_state(h.addr(), id, "failed");
    let error = doc
        .get("error")
        .and_then(Value::as_str)
        .expect("failed job has an error");
    assert!(error.contains("tag gamma exploded"), "{error}");
    h.shutdown();
}

#[test]
fn queued_jobs_wait_for_a_session_and_then_run() {
    let _guard = locked();
    let gate = Arc::new(Barrier::new(2)); // the first job + this test
    let h = serve_with(
        ServeConfig::new(0)
            .max_sessions(1)
            .handler(Arc::new(TagHandler { gate: gate.clone() })),
    )
    .expect("bind ephemeral");
    let addr = h.addr();

    let first = submit(addr, r#"{"tag": "alpha", "events": 4, "rendezvous": true}"#);
    let second = submit(addr, r#"{"tag": "beta", "events": 4}"#);

    // One session: while the first job holds it at the rendezvous, the
    // second must be queued, not running.
    gate.wait();
    let (_, _, listing) = get(addr, "/jobs");
    let (_, _, queued_status) = get(addr, &format!("/jobs/{second}"));
    gate.wait();

    let doc = json::parse(&listing).expect("listing is JSON");
    assert_eq!(doc.get("running").and_then(Value::as_f64), Some(1.0), "{listing}");
    assert_eq!(doc.get("queued").and_then(Value::as_f64), Some(1.0), "{listing}");
    let queued = json::parse(&queued_status).expect("status is JSON");
    assert_eq!(queued.get("state").and_then(Value::as_str), Some("queued"));

    await_state(addr, first, "done");
    await_state(addr, second, "done");

    // Invalid submissions are rejected up front and never enter the queue.
    let (status, _, body) = request(addr, "POST", "/jobs", r#"{"no_tag": 1}"#);
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = request(addr, "POST", "/jobs", "not json");
    assert_eq!(status, 400, "{body}");
    let (_, _, listing) = get(addr, "/jobs");
    let doc = json::parse(&listing).expect("listing is JSON");
    let Some(Value::Arr(jobs)) = doc.get("jobs") else {
        panic!("listing has a jobs array: {listing}");
    };
    assert_eq!(jobs.len(), 2, "rejected specs must not be registered: {listing}");

    h.shutdown();
    assert_eq!(serve_threads_settled(), 0, "job runner threads survived shutdown");
}

#[test]
fn one_keep_alive_connection_covers_submit_poll_cancel_and_eviction() {
    let _guard = locked();
    let gate = Arc::new(Barrier::new(1)); // unused: no rendezvous jobs here
    let h = serve_with(
        ServeConfig::new(0)
            .max_sessions(1)
            .job_ttl(Some(Duration::from_millis(250)))
            .handler(Arc::new(TagHandler { gate })),
    )
    .expect("bind ephemeral");
    let mut c = Client::connect(h.addr());

    // Submit a job that parks until canceled; it takes the only session.
    let (status, head, body) =
        c.request("POST", "/jobs", r#"{"tag": "alpha", "await_cancel": true}"#);
    assert_eq!(status, 201, "{body}");
    assert_eq!(header(&head, "Connection"), Some("keep-alive"), "{head}");
    let a = json::parse(&body).unwrap().get("id").and_then(Value::as_f64).unwrap() as u64;

    // A second submission must queue behind it...
    let (status, _, body) = c.request("POST", "/jobs", r#"{"tag": "beta"}"#);
    assert_eq!(status, 201, "{body}");
    let b = json::parse(&body).unwrap().get("id").and_then(Value::as_f64).unwrap() as u64;

    // ...and cancel instantly while queued: terminal right away.
    let (status, _, body) = c.request("DELETE", &format!("/jobs/{b}"), "");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("canceled"), "{body}");
    let (status, _, body) = c.request("DELETE", &format!("/jobs/{b}"), "");
    assert_eq!(status, 409, "cancel of a terminal job must conflict: {body}");

    // Cancel the running job: 202 now, canceled once the handler's
    // checkpoint fires.
    let (status, _, body) = c.request("DELETE", &format!("/jobs/{a}"), "");
    assert_eq!(status, 202, "{body}");
    let doc = json::parse(&body).unwrap();
    assert_eq!(doc.get("cancel_requested"), Some(&Value::Bool(true)), "{body}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = c.get(&format!("/jobs/{a}"));
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).unwrap();
        match doc.get("state").and_then(Value::as_str) {
            Some("canceled") => break,
            other => assert!(
                Instant::now() < deadline,
                "job {a} stuck in {other:?}: {body}"
            ),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _, _) = c.request("DELETE", &format!("/jobs/{a}"), "");
    assert_eq!(status, 409);

    // The freed session runs a fresh job; cursor-poll its whole trace
    // over the same socket.
    let (status, _, body) = c.request("POST", "/jobs", r#"{"tag": "cursor", "events": 30}"#);
    assert_eq!(status, 201, "{body}");
    let d = json::parse(&body).unwrap().get("id").and_then(Value::as_f64).unwrap() as u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut after = 0u64;
    let mut seen = 0usize;
    loop {
        let (status, head, body) = c.get(&format!("/jobs/{d}/trace?after={after}&limit=16"));
        assert_eq!(status, 200, "{body}");
        for (i, (seq, name)) in trace_lines(&body).into_iter().enumerate() {
            assert_eq!(seq, after + i as u64, "chunks are contiguous from the cursor");
            assert_eq!(name, "job.cursor");
        }
        seen += body.lines().count();
        after = header(&head, "X-Vpp-Next-Cursor").unwrap().parse().unwrap();
        let more = header(&head, "X-Vpp-More") == Some("true");
        let state = header(&head, "X-Vpp-Job-State").unwrap().to_string();
        if seen >= 30 && !more && state == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "trace never drained: seen {seen}, state {state}");
        if body.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    assert_eq!(seen, 30, "every event exactly once");

    // Everything above rode one connection.
    assert_eq!(c.reconnects, 0, "the whole walkthrough must fit one keep-alive connection");

    // TTL eviction: the canceled job ages out and its id answers 410
    // (requests themselves drive the sweep).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = c.get(&format!("/jobs/{b}"));
        if status == 410 {
            assert!(body.contains("evicted"), "{body}");
            assert!(
                body.contains("\"error\": \"Gone\""),
                "structured error shape: {body}"
            );
            break;
        }
        assert_eq!(status, 200, "{body}");
        assert!(Instant::now() < deadline, "job {b} never evicted: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, _, body) = c.get("/metrics");
    assert_eq!(status, 200);
    let evicted = body
        .lines()
        .find_map(|l| l.strip_prefix("vpp_serve_jobs_evicted_total "))
        .expect("exposition carries vpp_serve_jobs_evicted_total")
        .parse::<f64>()
        .unwrap();
    assert!(evicted >= 1.0, "{body}");
    // The pre-rename `vpp_serve_jobs_evicted` alias has completed its
    // one-release deprecation window: only the `_total` name is exposed.
    assert!(
        !body.lines().any(|l| l.starts_with("vpp_serve_jobs_evicted ")),
        "removed alias vpp_serve_jobs_evicted resurfaced"
    );
    let canceled = body
        .lines()
        .find_map(|l| l.strip_prefix("vpp_serve_jobs_canceled_total "))
        .expect("exposition carries vpp_serve_jobs_canceled_total")
        .parse::<f64>()
        .unwrap();
    assert_eq!(canceled, 2.0, "one queued + one running cancel");

    h.shutdown();
    assert_eq!(serve_threads_settled(), 0, "job runner threads survived shutdown");
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let _guard = locked();
    let gate = Arc::new(Barrier::new(2)); // the gated job + this test
    let h = serve_with(
        ServeConfig::new(0)
            .max_sessions(1)
            .max_queue(1)
            .handler(Arc::new(TagHandler { gate: gate.clone() })),
    )
    .expect("bind ephemeral");
    let addr = h.addr();

    // One job holds the session at its rendezvous, one fills the queue.
    let first = submit(addr, r#"{"tag": "alpha", "events": 4, "rendezvous": true}"#);
    let second = submit(addr, r#"{"tag": "beta", "events": 4}"#);

    // The queue is at its bound: the next submission is refused with
    // backpressure, not queued.
    let mark = trace::log_stats().next_seq;
    let (status, head, body) = request(addr, "POST", "/jobs", r#"{"tag": "gamma"}"#);
    assert_eq!(status, 429, "{body}");
    assert_eq!(header(&head, "Retry-After"), Some("1"), "{head}");
    assert!(body.contains("queue is full"), "{body}");

    // The refusal leaves a structured warn in the journal, fetchable
    // over HTTP with cursor + severity filtering.
    let (status, _, journal) = get(addr, &format!("/logs?after={mark}&level=warn"));
    assert_eq!(status, 200);
    assert!(
        journal
            .lines()
            .any(|l| l.contains("serve.jobs") && l.contains("queue full")),
        "429 left no warn record in /logs: {journal}"
    );

    // Nothing was registered for the refused submission.
    let (_, _, listing) = get(addr, "/jobs");
    let doc = json::parse(&listing).unwrap();
    let Some(Value::Arr(jobs)) = doc.get("jobs") else {
        panic!("listing has a jobs array: {listing}");
    };
    assert_eq!(jobs.len(), 2, "{listing}");

    // Release the gate: both admitted jobs complete, and a retry of the
    // refused submission now lands.
    gate.wait();
    gate.wait();
    await_state(addr, first, "done");
    await_state(addr, second, "done");
    let third = submit(addr, r#"{"tag": "gamma"}"#);
    await_state(addr, third, "done");

    h.shutdown();
    assert_eq!(serve_threads_settled(), 0, "job runner threads survived shutdown");
}

#[test]
fn soak_500_short_jobs_with_short_ttl_keeps_the_registry_bounded() {
    let _guard = locked();
    const JOBS: usize = 500;
    let gate = Arc::new(Barrier::new(2)); // the plug job + this test
    let h = serve_with(
        ServeConfig::new(0)
            .max_sessions(1)
            .max_queue(8)
            .job_ttl(Some(Duration::from_secs(1)))
            .handler(Arc::new(TagHandler { gate: gate.clone() })),
    )
    .expect("bind ephemeral");
    let mut c = Client::connect(h.addr());

    // Plug the only session at the rendezvous so the queue genuinely
    // fills: the soak must see real 429s, not a lucky drain.
    let (status, _, _) = c.request("POST", "/jobs", r#"{"tag": "alpha", "rendezvous": true}"#);
    assert_eq!(status, 201);
    let mut rejected = 0usize;
    let mut accepted = 1usize; // the plug
    let mut released = false;
    while accepted < JOBS {
        let (status, _, body) = c.request("POST", "/jobs", r#"{"tag": "beta", "events": 2}"#);
        match status {
            201 => accepted += 1,
            429 => {
                rejected += 1;
                if !released {
                    // Queue proven full under backpressure; unplug and
                    // let the soak throughput come from real drains.
                    gate.wait();
                    gate.wait();
                    released = true;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("submission answered {other}: {body}"),
        }
    }
    assert!(rejected > 0, "a bounded queue must refuse at least once");

    // Drain: every job terminal, then every job evicted by the 1 s TTL.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = c.get("/jobs");
        assert_eq!(status, 200);
        let doc = json::parse(&body).unwrap();
        let Some(Value::Arr(jobs)) = doc.get("jobs") else {
            panic!("listing has a jobs array: {body}");
        };
        // Bounded at every poll: live entries never exceed the working
        // set (sessions + queue) plus terminal jobs younger than the TTL.
        if jobs.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "registry never drained: {} entries left",
            jobs.len()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let (status, _, body) = c.get("/metrics");
    assert_eq!(status, 200);
    let evicted = body
        .lines()
        .find_map(|l| l.strip_prefix("vpp_serve_jobs_evicted_total "))
        .expect("exposition carries vpp_serve_jobs_evicted_total")
        .parse::<f64>()
        .unwrap();
    assert_eq!(evicted, JOBS as f64, "every accepted job must age out");
    let submitted = body
        .lines()
        .find_map(|l| l.strip_prefix("vpp_serve_jobs_submitted_total "))
        .expect("exposition carries vpp_serve_jobs_submitted_total")
        .parse::<f64>()
        .unwrap();
    assert_eq!(submitted, JOBS as f64, "429s must not count as submissions");

    h.shutdown();
    assert_eq!(serve_threads_settled(), 0, "job runner threads survived shutdown");
}

#[test]
fn federated_metrics_carry_both_peers_series() {
    let _guard = locked();
    let peer1 = serve(0).expect("bind peer 1");
    let peer2 = serve(0).expect("bind peer 2");
    let fed = serve_with(
        ServeConfig::new(0).federate(vec![peer1.addr().to_string(), peer2.addr().to_string()]),
    )
    .expect("bind federated instance");

    let (status, _, body) = get(fed.addr(), "/metrics");
    assert_eq!(status, 200);

    // Strict pass over the merged exposition: every sample parses and
    // follows its family's # TYPE declaration exactly once.
    let mut typed: Vec<String> = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().expect("type line names a metric");
            assert!(
                !typed.iter().any(|t| t == name),
                "family declared twice in the merge: {line}"
            );
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line");
        let name = name_and_labels.split('{').next().expect("metric name");
        assert!(value.parse::<f64>().is_ok(), "sample value is not a float: {line}");
        assert!(
            typed.iter().any(|t| name == t || name.starts_with(t.as_str())),
            "sample before its # TYPE declaration: {line}"
        );
    }

    // Both peers were scraped and their series are distinguishable by the
    // peer label; the federating instance's own series stay unlabelled.
    for peer in [&peer1, &peer2] {
        let label = format!("peer=\"{}\"", peer.addr());
        assert!(
            body.contains(&format!("vpp_federate_peer_up{{{label}}} 1")),
            "missing peer-up for {label}:\n{body}"
        );
        assert!(
            body.contains(&format!("vpp_up{{{label}}} 1")),
            "missing relabelled vpp_up for {label}:\n{body}"
        );
    }
    assert!(body.contains("\nvpp_up 1\n"), "own unlabelled vpp_up survives the merge");

    // An unreachable peer degrades to peer_up 0 instead of failing the
    // whole exposition.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a port");
        l.local_addr().expect("local addr")
    };
    // So does a peer that answers 200 and then keeps writing: the scraper
    // stops reading at its response bound, far below the flood.
    const FLOOD_BYTES: usize = 64 << 20;
    let flood = std::net::TcpListener::bind("127.0.0.1:0").expect("bind flooding peer");
    let flood_addr = flood.local_addr().expect("local addr");
    let flooder = std::thread::spawn(move || {
        let (mut s, _) = flood.accept().expect("the scrape connects");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut head, mut byte) = (Vec::new(), [0u8; 1]);
        while !head.ends_with(b"\r\n\r\n") && s.read(&mut byte).is_ok_and(|n| n == 1) {
            head.push(byte[0]);
        }
        let chunk = "vpp_flood_total 1\n".repeat(4096);
        let mut sent = 0;
        if s.write_all(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\n")
            .is_ok()
        {
            while sent < FLOOD_BYTES && s.write_all(chunk.as_bytes()).is_ok() {
                sent += chunk.len();
            }
        }
        sent
    });
    let fed2 =
        serve_with(ServeConfig::new(0).federate(vec![dead.to_string(), flood_addr.to_string()]))
            .expect("bind second federated instance");
    let (status, _, body) = get(fed2.addr(), "/metrics");
    assert_eq!(status, 200);
    for peer in [dead, flood_addr] {
        assert!(
            body.contains(&format!("vpp_federate_peer_up{{peer=\"{peer}\"}} 0")),
            "{body}"
        );
    }
    assert!(
        !body.contains("vpp_flood_total"),
        "nothing from the flood is merged"
    );
    let sent = flooder.join().expect("flooding peer");
    assert!(
        sent < FLOOD_BYTES,
        "the scraper read the whole flood ({sent} bytes)"
    );

    fed2.shutdown();
    fed.shutdown();
    peer2.shutdown();
    peer1.shutdown();
}
