//! Integration tests for the observability endpoint: a real scraper over
//! `std::net::TcpStream` against a live [`serve`] instance — Prometheus
//! text parsing, `/healthz` state transitions, request rejection, and
//! leak-free shutdown.
//!
//! The thread-count checks and the `/logs` journal are process-wide, so
//! the tests serialize on a lock instead of trusting the harness' thread
//! scheduling.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vasp_power_profiles::substrate::json::{self, Value};
use vasp_power_profiles::substrate::serve::{serve, RunState};
use vasp_power_profiles::substrate::{span, trace};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Minimal HTTP/1.1 GET: returns `(status, head, body)`.
fn get(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
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

/// Minimal HTTP/1.1 HEAD of the same target.
fn head_req(addr: SocketAddr, target: &str) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "HEAD {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
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

/// The value of one response header, if present.
fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(": "))
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
}

/// Count live threads whose comm is `vpp-serve`. Linux clones inherit the
/// parent thread's comm, so the acceptor and both scoped workers all
/// report the name the server sets.
fn serve_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("comm")).ok())
        .filter(|c| c.trim() == "vpp-serve")
        .count()
}

/// Joined threads can linger in `/proc/self/task` for a moment after
/// `join` returns (the kernel wakes the joiner before the task entry is
/// torn down), so zero-thread assertions poll briefly.
fn serve_threads_settled() -> usize {
    let mut remaining = serve_threads();
    for _ in 0..200 {
        if remaining == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        remaining = serve_threads();
    }
    remaining
}

#[test]
fn metrics_exposition_is_parseable_prometheus_text() {
    let _guard = locked();
    let session = trace::session(1 << 16);
    {
        let mut s = span!("serve_test.work", kind = 1);
        s.record("sim_t0", 0.0);
        s.record("sim_t1", 2.5);
        trace::counter("serve_test.ticks", 3);
        trace::gauge("serve_test.level", 0.75);
    }
    let h = serve(0).expect("bind ephemeral");
    let (status, head, body) = get(h.addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "{head}"
    );

    // Strict pass over the exposition: every line is a comment or a
    // `name value` sample with a well-formed metric name and float value,
    // and every sample's family was declared by a preceding # TYPE line.
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0;
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            typed.push(parts.next().expect("type line names a metric").to_string());
            let kind = parts.next().expect("type line names a kind");
            assert!(
                ["counter", "gauge", "summary", "histogram"].contains(&kind),
                "unknown metric kind: {line}"
            );
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample line");
        let name = name_and_labels
            .split('{')
            .next()
            .expect("metric name before labels");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "bad metric name in: {line}"
        );
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value is not a float: {line}"
        );
        assert!(
            typed.iter().any(|t| name == t || name.starts_with(t.as_str())),
            "sample before its # TYPE declaration: {line}"
        );
        samples += 1;
    }
    assert!(samples >= 4, "expected a non-trivial exposition:\n{body}");
    assert!(body.contains("vpp_up 1"), "{body}");
    assert!(body.contains("vpp_serve_test_ticks_total 3"), "{body}");
    assert!(body.contains("vpp_serve_test_level 0.75"), "{body}");

    h.shutdown();
    drop(session);
}

#[test]
fn healthz_walks_idle_running_done() {
    let _guard = locked();
    let h = serve(0).expect("bind ephemeral");
    let (status, head, body) = get(h.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(head.contains("Content-Type: application/json"), "{head}");
    assert!(body.contains("\"state\": \"idle\""), "{body}");

    // The journal's health rides along: current admission level plus
    // per-severity drop counts, one guard acquisition server-side.
    let doc = json::parse(&body).expect("healthz is JSON");
    assert_eq!(
        doc.get("log_level").and_then(Value::as_str),
        Some(trace::log_level().name()),
        "{body}"
    );
    let dropped = doc.get("log_dropped").expect("healthz reports log drops");
    for level in ["debug", "info", "warn", "error"] {
        assert!(
            dropped.get(level).and_then(Value::as_f64).is_some(),
            "log_dropped lacks '{level}': {body}"
        );
    }

    h.set_workload("serve_it", 2);
    h.set_state(RunState::Running);
    let (_, _, body) = get(h.addr(), "/healthz");
    assert!(body.contains("\"state\": \"running\""), "{body}");
    assert!(body.contains("\"workload\": \"serve_it\""), "{body}");
    assert!(body.contains("\"runs_total\": 2"), "{body}");

    h.run_completed();
    h.run_completed();
    h.set_state(RunState::Done);
    let (_, _, body) = get(h.addr(), "/healthz");
    assert!(body.contains("\"state\": \"done\""), "{body}");
    assert!(body.contains("\"runs_completed\": 2"), "{body}");
    h.shutdown();
}

#[test]
fn rejects_unknown_paths_and_non_get_methods() {
    let _guard = locked();
    let h = serve(0).expect("bind ephemeral");
    let (status, head, body) = get(h.addr(), "/not-an-endpoint");
    assert_eq!(status, 404);
    assert!(body.contains("/metrics"), "404 names the endpoints: {body}");
    // Errors answer one structured JSON shape: {"error": ..., "detail": ...}.
    assert!(
        head.contains("Content-Type: application/json"),
        "error bodies are JSON: {head}"
    );
    assert!(body.contains("\"error\": \"Not Found\""), "{body}");
    assert!(body.contains("\"detail\": "), "{body}");

    let mut s = TcpStream::connect(h.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "DELETE /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    assert!(raw.contains("Allow: GET"), "{raw}");
    h.shutdown();
}

#[test]
fn head_mirrors_get_on_every_route() {
    let _guard = locked();
    let session = trace::session(1 << 16);
    {
        let mut s = span!("serve_head.work", kind = 1);
        s.record("sim_t0", 0.0);
        s.record("sim_t1", 1.0);
    }
    let h = serve(0).expect("bind ephemeral");

    // RFC 9110 §9.3.2: HEAD answers with the status and header fields a
    // GET would produce — including Content-Length — and no body. That
    // holds on every route, 404s and 405s included.
    for target in ["/metrics", "/healthz", "/trace?format=jsonl", "/logs", "/jobs", "/nope"] {
        let (get_status, get_head, get_body) = get(h.addr(), target);
        let (head_status, head_head, head_body) = head_req(h.addr(), target);
        assert_eq!(head_status, get_status, "HEAD {target} diverged from GET");
        assert!(head_body.is_empty(), "HEAD {target} returned a body: {head_body}");
        assert_eq!(
            header(&head_head, "Content-Type"),
            header(&get_head, "Content-Type"),
            "HEAD {target} content type"
        );
        let announced: usize = header(&head_head, "Content-Length")
            .unwrap_or_else(|| panic!("HEAD {target} lacks Content-Length: {head_head}"))
            .parse()
            .expect("numeric Content-Length");
        assert!(
            announced > 0 || get_body.is_empty(),
            "HEAD {target} announced an empty body while GET returned {} bytes",
            get_body.len()
        );
    }

    // `/jobs` is byte-stable between consecutive requests, so HEAD's
    // announced length must equal the body GET actually sends.
    let (_, get_head, get_body) = get(h.addr(), "/jobs");
    let (_, head_head, _) = head_req(h.addr(), "/jobs");
    assert_eq!(
        header(&head_head, "Content-Length"),
        header(&get_head, "Content-Length")
    );
    assert_eq!(
        header(&get_head, "Content-Length"),
        Some(get_body.len().to_string().as_str())
    );

    // HEAD is advertised next to GET on a 405.
    let mut s = TcpStream::connect(h.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(s, "PUT /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    assert!(raw.contains("Allow: GET, HEAD"), "{raw}");

    h.shutdown();
    drop(session);
}

/// Group one histogram family's `_bucket` samples by their non-`le`
/// labels: `labels -> [(le, cumulative)]` in exposition order.
fn histogram_buckets(body: &str, family: &str) -> BTreeMap<String, Vec<(String, u64)>> {
    let mut groups: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
    let prefix = format!("{family}_bucket{{");
    for line in body.lines() {
        let Some(rest) = line.strip_prefix(prefix.as_str()) else {
            continue;
        };
        let (labels, value) = rest.rsplit_once(' ').expect("bucket sample line");
        let labels = labels.strip_suffix('}').expect("closing label brace");
        let mut le = None;
        let mut others = Vec::new();
        for part in labels.split(',') {
            match part.strip_prefix("le=\"") {
                Some(v) => le = Some(v.trim_end_matches('"').to_string()),
                None => others.push(part),
            }
        }
        groups.entry(others.join(",")).or_default().push((
            le.expect("every bucket sample carries le"),
            value.parse().expect("integer bucket count"),
        ));
    }
    groups
}

/// The float value of the sample whose `name{labels}` part is exactly
/// `name_and_labels`.
fn sample_value(body: &str, name_and_labels: &str) -> Option<f64> {
    body.lines()
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(n, _)| *n == name_and_labels)
        .map(|(_, v)| v.parse().expect("float sample value"))
}

#[test]
fn histogram_exposition_is_cumulative_and_internally_consistent() {
    let _guard = locked();
    let session = trace::session(1 << 16);
    // A bimodal power distribution straddling the 200 W bucket edge the
    // paper's idle/compute mode split keys on: 25 low observations and
    // 25 high, each weighted 3 (duration-weighted, like the executor).
    for i in 0..50u64 {
        let watts = if i % 2 == 0 { 70.0 } else { 330.0 };
        trace::histogram_count("power_watts", watts, 3);
    }
    let h = serve(0).expect("bind ephemeral");
    let (status, _, health) = get(h.addr(), "/healthz"); // populates per-route stats
    assert_eq!(status, 200);
    assert!(
        health.contains("\"tracing\": true"),
        "started under a session: {health}"
    );
    let (status, _, body) = get(h.addr(), "/metrics");
    assert_eq!(status, 200);

    // Every declared histogram family obeys the exposition contract:
    // cumulative bucket counts are monotone nondecreasing, the series
    // ends at le="+Inf", and that terminal count equals `_count` while
    // `_sum` is present and finite.
    let families: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.strip_suffix(" histogram"))
        .collect();
    assert!(families.contains(&"vpp_power_watts"), "{body}");
    assert!(families.contains(&"vpp_serve_request_seconds"), "{body}");
    for family in &families {
        let groups = histogram_buckets(&body, family);
        assert!(!groups.is_empty(), "# TYPE {family} histogram has no buckets");
        for (labels, buckets) in &groups {
            let mut prev = 0u64;
            for (le, cum) in buckets {
                assert!(
                    *cum >= prev,
                    "{family}{{{labels}}}: cumulative count decreased at le={le}"
                );
                prev = *cum;
            }
            let (last_le, total) = buckets.last().expect("at least one bucket");
            assert_eq!(last_le, "+Inf", "{family}{{{labels}}} missing +Inf bucket");
            let count_sample = if labels.is_empty() {
                format!("{family}_count")
            } else {
                format!("{family}_count{{{labels}}}")
            };
            assert_eq!(
                sample_value(&body, &count_sample),
                Some(*total as f64),
                "+Inf bucket != _count for {family}{{{labels}}}:\n{body}"
            );
            let sum_sample = if labels.is_empty() {
                format!("{family}_sum")
            } else {
                format!("{family}_sum{{{labels}}}")
            };
            let sum = sample_value(&body, &sum_sample)
                .unwrap_or_else(|| panic!("{family}{{{labels}}} lacks _sum:\n{body}"));
            assert!(sum.is_finite(), "{family}{{{labels}}} _sum is not finite");
        }
    }

    // The recorded distribution round-trips exactly: 150 weighted
    // observations, 75 at or below the 200 W edge, sum 30 000 W·obs.
    let power = &histogram_buckets(&body, "vpp_power_watts")[""];
    let le200 = power
        .iter()
        .find(|(le, _)| le == "200")
        .expect("200 W is a bucket edge of the power table");
    assert_eq!(le200.1, 75, "{body}");
    assert_eq!(sample_value(&body, "vpp_power_watts_count"), Some(150.0));
    assert_eq!(
        sample_value(&body, "vpp_power_watts_sum"),
        Some(3.0 * (25.0 * 70.0 + 25.0 * 330.0))
    );

    // The /healthz request above shows up as per-route service telemetry.
    let routes = histogram_buckets(&body, "vpp_serve_request_seconds");
    assert!(
        routes.keys().any(|k| k.contains(r#"route="/healthz""#)),
        "{body}"
    );
    let ok = sample_value(
        &body,
        r#"vpp_serve_response_status_total{route="/healthz",status="200"}"#,
    );
    assert!(ok.is_some_and(|v| v >= 1.0), "{body}");

    h.shutdown();
    drop(session);
}

#[test]
fn logs_cursor_is_exactly_once_under_concurrent_writers() {
    let _guard = locked();
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 150;
    let h = serve(0).expect("bind ephemeral");
    let addr = h.addr();

    // Watermark the process-global journal: records admitted by other
    // tests carry seqs below `start`, so the exactly-once accounting
    // below only counts our own target's records.
    let start = trace::log_stats().next_seq;
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    trace::log_event(
                        trace::LogLevel::Info,
                        "serve_test.cursor",
                        format!("writer {w} record {i}"),
                        vec![("writer", w.into()), ("i", i.into())],
                    );
                }
            })
        })
        .collect();

    // Page through /logs over real sockets while the writers are still
    // racing: an odd chunk size, the cursor taken from the response
    // header, every one of our records seen exactly once.
    let expected = (WRITERS * PER_WRITER) as usize;
    let mut after = start;
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen.len() < expected && Instant::now() < deadline {
        let (status, head, body) = get(addr, &format!("/logs?after={after}&limit=97&level=info"));
        assert_eq!(status, 200, "{body}");
        for line in body.lines() {
            let rec = json::parse(line).expect("jsonl record parses");
            let seq = rec.get("seq").and_then(Value::as_f64).expect("record has seq") as u64;
            if rec.get("target").and_then(Value::as_str) != Some("serve_test.cursor") {
                continue;
            }
            assert!(seq >= start, "stale record leaked past the watermark");
            assert!(seen.insert(seq), "seq {seq} delivered twice");
        }
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
    for t in threads {
        t.join().expect("writer thread");
    }
    assert_eq!(seen.len(), expected, "missing log records");

    // Drained: the final chunk is empty, keeps the cursor, and reports
    // no more matching records.
    let (status, head, body) = get(addr, &format!("/logs?after={after}&limit=97&level=info"));
    assert_eq!(status, 200);
    assert_eq!(header(&head, "X-Vpp-More"), Some("false"), "{body}");

    // Severity filtering composes with the cursor: at `level=warn` none
    // of our info-level records appear.
    let (status, _, body) = get(addr, &format!("/logs?after={start}&level=warn&limit=4096"));
    assert_eq!(status, 200);
    assert!(
        !body.contains("serve_test.cursor"),
        "info records leaked into level=warn: {body}"
    );

    // Malformed cursor parameters are client errors, not shrugs.
    let (status, _, _) = get(addr, "/logs?after=x");
    assert_eq!(status, 400);
    for bad_limit in ["/logs?limit=0", "/logs?limit=x"] {
        let (status, _, body) = get(addr, bad_limit);
        assert_eq!(status, 400, "{bad_limit}: {body}");
        assert!(
            body.contains("'limit' must be a positive integer"),
            "{body}"
        );
    }
    let (status, _, body) = get(addr, "/logs?level=noise");
    assert_eq!(status, 400);
    assert!(body.contains("unknown log level"), "{body}");
    assert!(
        body.contains("\"error\": \"Bad Request\""),
        "structured error shape: {body}"
    );

    h.shutdown();
}

#[test]
fn shutdown_joins_every_server_thread_and_releases_the_listener() {
    let _guard = locked();
    assert_eq!(serve_threads_settled(), 0, "no server threads before the test");
    let h = serve(0).expect("bind ephemeral");
    let addr = h.addr();
    let (status, _, _) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(serve_threads() >= 1, "server threads alive while serving");

    h.shutdown();
    assert_eq!(serve_threads_settled(), 0, "vpp-serve threads survived shutdown");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "listener still accepting after shutdown"
    );
}

#[test]
fn dropping_the_handle_is_a_clean_shutdown_too() {
    let _guard = locked();
    assert_eq!(serve_threads_settled(), 0);
    let addr;
    {
        let h = serve(0).expect("bind ephemeral");
        addr = h.addr();
        let (status, _, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
    }
    assert_eq!(serve_threads_settled(), 0, "drop did not join the server threads");
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err());
}
