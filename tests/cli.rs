//! Integration tests for the `vpp` and `repro` CLI binaries.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn vpp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vpp"))
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn repro_rejects_bad_arguments_with_usage_and_exit_2() {
    // A regular file cannot hold a directory, so `<file>/out` is
    // uncreatable even for root.
    let file = std::env::temp_dir().join(format!("vpp_repro_cli_{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("write scratch file");
    let uncreatable = file.join("out");
    let uncreatable = uncreatable.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], &str); 4] = [
        (&["--csv"], "--csv needs a directory"),
        (
            &["--csv", uncreatable, "table1"],
            "cannot create the CSV directory",
        ),
        (&["--qiuck", "table1"], "unknown flag '--qiuck'"),
        (&["nosuch"], "unknown section 'nosuch'"),
    ];
    for (args, reason) in cases {
        let out = repro().args(args).output().expect("repro runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {err}");
        assert!(err.contains(reason), "repro {args:?}: {err}");
        assert!(err.contains("usage: repro"), "repro {args:?}: {err}");
        assert_eq!(err.lines().count(), 2, "one error line plus usage: {err}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran a section");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn list_names_the_seven_benchmarks() {
    let out = vpp().arg("list").output().expect("vpp runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in [
        "Si256_hse",
        "B.hR105_hse",
        "PdO4",
        "PdO2",
        "GaAsBi-64",
        "CuC_vdw",
        "Si128_acfdtr",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn profile_reports_a_power_summary() {
    let out = vpp()
        .args(["profile", "B.hR105_hse", "--quick"])
        .output()
        .expect("vpp runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("node power"));
    assert!(text.contains("mode"));
}

#[test]
fn unknown_benchmark_fails_with_guidance() {
    let out = vpp().args(["profile", "NoSuchThing"]).output().expect("vpp runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("vpp list"), "{err}");
}

#[test]
fn unknown_flag_is_rejected() {
    let out = vpp()
        .args(["profile", "PdO2", "--bogus"])
        .output()
        .expect("vpp runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn flags_are_scoped_per_subcommand() {
    // --straggler belongs to `screen`; every other command rejects it with
    // an error that names the command it was offered to.
    let out = vpp()
        .args(["phases", "PdO2", "--straggler", "2:1.5"])
        .output()
        .expect("vpp runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--straggler'"), "{err}");
    assert!(err.contains("vpp phases"), "scoped to the command: {err}");
    assert!(err.contains("usage: vpp phases"), "usage follows: {err}");

    // --format belongs to `trace`, not `trace diff`.
    let out = vpp()
        .args(["trace", "diff", "B.hR105_hse", "--format", "json"])
        .output()
        .expect("vpp runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--format'"), "{err}");
    assert!(err.contains("vpp trace diff"), "{err}");
}

#[test]
fn cap_outside_the_gpu_window_is_rejected_before_any_run() {
    // Unchecked, NaN and infinities panic inside the GPU model, and other
    // caps outside 100..=400 W run clamped or uncapped under the label given.
    let mut cases: Vec<Vec<&str>> = ["nan", "inf", "-5", "50", "401"]
        .into_iter()
        .map(|cap| vec!["profile", "B.hR105_hse", "--quick", "--cap", cap])
        .collect();
    cases.push(vec!["trace", "B.hR105_hse", "--quick", "--cap", "nan"]);
    cases.push(vec!["campaign", "--jobs", "50", "--cap", "5000"]);
    cases.push(vec!["serve", "B.hR105_hse", "--quick", "--metrics-port", "0", "--cap", "nan"]);
    for args in cases {
        let out = vpp().args(&args).output().expect("vpp runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "vpp {args:?}: {err}");
        assert!(err.contains("--cap must be in 100..=400 W"), "vpp {args:?}: {err}");
        assert!(out.stdout.is_empty(), "vpp {args:?} started a run or bound a port");
    }
}

#[test]
fn every_subcommand_prints_generated_usage_on_help() {
    let commands: &[&[&str]] = &[
        &["list"],
        &["profile"],
        &["caps"],
        &["screen"],
        &["phases"],
        &["trace"],
        &["trace", "diff"],
        &["trace", "accept"],
        &["serve"],
    ];
    for words in commands {
        let mut args: Vec<&str> = words.to_vec();
        args.push("--help");
        let out = vpp().args(&args).output().expect("vpp runs");
        assert!(
            out.status.success(),
            "--help exits 0 for {words:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let expect = format!("usage: vpp {}", words.join(" "));
        assert!(text.starts_with(&expect), "{words:?} help:\n{text}");
    }
    let out = vpp().arg("--help").output().expect("vpp runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: vpp <command>"), "{text}");
    assert!(text.contains("trace accept"), "table lists every command: {text}");
    assert!(text.contains("serve"), "{text}");
}

/// One HTTP GET against a `vpp serve` child; returns the response body.
fn http_get(addr: &str, target: &str) -> Option<String> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    write!(s, "GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").ok()?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok()?;
    raw.split_once("\r\n\r\n").map(|(_, body)| body.to_string())
}

#[test]
fn serve_exposes_live_metrics_on_an_ephemeral_port() {
    let mut child = vpp()
        .args(["serve", "B.hR105_hse", "--quick", "--metrics-port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("vpp serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve prints its address before exiting")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.trim().to_string();
        }
    };

    // Poll until the run publishes protocol.coverage, then check the
    // other endpoints against the same live process.
    let deadline = Instant::now() + Duration::from_secs(120);
    let metrics = loop {
        if let Some(body) = http_get(&addr, "/metrics") {
            if body.contains("vpp_protocol_coverage") {
                break body;
            }
        }
        assert!(
            Instant::now() < deadline,
            "protocol.coverage never appeared on /metrics"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(metrics.contains("vpp_up 1"), "{metrics}");
    assert!(metrics.contains("vpp_serve_requests_total"), "{metrics}");

    let health = http_get(&addr, "/healthz").expect("healthz responds");
    assert!(health.contains("\"workload\": \"B.hR105_hse\""), "{health}");
    let trace = http_get(&addr, "/trace?format=jsonl").expect("trace responds");
    assert!(
        trace.lines().next().is_some_and(|l| l.starts_with('{')),
        "{trace}"
    );

    child.kill().expect("serve child killable");
    let _ = child.wait();
}

#[test]
fn missing_command_prints_usage() {
    let out = vpp().output().expect("vpp runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn screen_flags_injected_straggler() {
    let out = vpp()
        .args(["screen", "PdO4", "--nodes", "4", "--straggler", "2:1.5"])
        .output()
        .expect("vpp runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("OUTLIER"), "{text}");
}

#[test]
fn profile_accepts_an_input_deck_directory() {
    let dir = std::env::temp_dir().join(format!("vpp_cli_deck_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("INCAR"), "ALGO = Fast\nNELM = 12\n").unwrap();
    std::fs::write(
        dir.join("POSCAR"),
        "Si64\n1.0\n10.86 0 0\n0 10.86 0\n0 0 10.86\nSi\n64\nDirect\n",
    )
    .unwrap();
    let out = vpp()
        .args(["profile", dir.to_str().unwrap(), "--quick"])
        .output()
        .expect("vpp runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Si64"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_prom_format_emits_a_wellformed_exposition() {
    let out = vpp()
        .args(["trace", "B.hR105_hse", "--quick", "--format", "prom"])
        .output()
        .expect("vpp runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# TYPE vpp_job_ops_gpu_total counter"), "{text}");
    assert!(text.contains("vpp_span_duration_seconds"), "{text}");
}

#[test]
fn trace_jsonl_format_is_one_json_object_per_line() {
    let out = vpp()
        .args(["trace", "B.hR105_hse", "--quick", "--format", "jsonl"])
        .output()
        .expect("vpp runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().count() > 10, "expected an event stream");
    for line in text.lines() {
        assert!(
            line.starts_with("{\"kind\":") && line.ends_with('}'),
            "not a compact JSON object: {line}"
        );
    }
}

#[test]
fn trace_rejects_unknown_format_and_bad_perturb() {
    let out = vpp()
        .args(["trace", "B.hR105_hse", "--quick", "--format", "yaml"])
        .output()
        .expect("vpp runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --format"));

    let out = vpp()
        .args(["trace", "B.hR105_hse", "--perturb", "warmup:1.5"])
        .output()
        .expect("vpp runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown phase"));
}

#[test]
fn trace_accept_blesses_a_baseline_that_diff_then_accepts() {
    let path = std::env::temp_dir().join(format!("vpp_accept_{}.json", std::process::id()));
    let out = vpp()
        .env("VPP_BENCH_OUT", &path)
        .args([
            "trace",
            "accept",
            "B.hR105_hse",
            "--tolerance",
            "scf_iter:5",
            "--tolerance",
            "job.collective:10",
        ])
        .output()
        .expect("vpp runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("blessed"), "{text}");
    assert!(text.contains("phase.scf_iter"), "{text}");
    let stored = std::fs::read_to_string(&path).expect("baseline file written");
    assert!(stored.contains("\"tolerances\""), "{stored}");
    assert!(stored.contains("\"job.collective\""), "{stored}");

    // The blessed baseline round-trips: an unperturbed diff is clean.
    let out = vpp()
        .env("VPP_BENCH_OUT", &path)
        .args(["trace", "diff", "B.hR105_hse"])
        .output()
        .expect("vpp runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("clean"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_diff_without_a_stored_baseline_fails_with_guidance() {
    let out = vpp()
        .env("VPP_BENCH_OUT", "/nonexistent/bench.json")
        .args(["trace", "diff", "B.hR105_hse"])
        .output()
        .expect("vpp runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn logs_stops_reading_at_the_response_bound() {
    // A service that answers 200 and then keeps writing: `vpp logs`
    // reads through the same 4 MiB bound as a federation scrape and
    // fails instead of printing the flood.
    const FLOOD_BYTES: usize = 64 << 20;
    let flood = std::net::TcpListener::bind("127.0.0.1:0").expect("bind flooding service");
    let addr = flood.local_addr().expect("local addr").to_string();
    let flooder = std::thread::spawn(move || {
        let (mut s, _) = flood.accept().expect("vpp logs connects");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut head, mut byte) = (Vec::new(), [0u8; 1]);
        while !head.ends_with(b"\r\n\r\n") && s.read(&mut byte).is_ok_and(|n| n == 1) {
            head.push(byte[0]);
        }
        let chunk = "{\"seq\": 1}\n".repeat(4096);
        let mut sent = 0;
        if s.write_all(b"HTTP/1.1 200 OK\r\nX-Vpp-Next-Cursor: 1\r\n\r\n").is_ok() {
            while sent < FLOOD_BYTES && s.write_all(chunk.as_bytes()).is_ok() {
                sent += chunk.len();
            }
        }
        sent
    });
    let out = vpp().args(["logs", &addr]).output().expect("vpp runs");
    let sent = flooder.join().expect("flooding service");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("more than 4194304 bytes"), "{err}");
    assert!(out.stdout.is_empty(), "printed {} bytes", out.stdout.len());
    assert!(sent < FLOOD_BYTES, "vpp logs read the whole flood ({sent} bytes)");
}

#[test]
fn logs_gives_up_on_a_trickling_service_at_the_deadline() {
    // A service that answers a status line and then sends one byte per
    // 250 ms for 10 s: each read arrives well inside the per-read
    // timeout, so only a deadline on the whole response stops it.
    let trickle = std::net::TcpListener::bind("127.0.0.1:0").expect("bind trickling service");
    let addr = trickle.local_addr().expect("local addr").to_string();
    let trickler = std::thread::spawn(move || {
        let (mut s, _) = trickle.accept().expect("vpp logs connects");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut head, mut byte) = (Vec::new(), [0u8; 1]);
        while !head.ends_with(b"\r\n\r\n") && s.read(&mut byte).is_ok_and(|n| n == 1) {
            head.push(byte[0]);
        }
        let t0 = Instant::now();
        if s.write_all(b"HTTP/1.1 200 OK\r\n").is_ok() {
            while t0.elapsed() < Duration::from_secs(10) && s.write_all(b"x").is_ok() {
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    });
    let t0 = Instant::now();
    let out = vpp().args(["logs", &addr]).output().expect("vpp runs");
    let waited = t0.elapsed();
    trickler.join().expect("trickling service");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("no complete response within 2 s"), "{err}");
    assert!(waited < Duration::from_secs(4), "waited {waited:?}");
}
