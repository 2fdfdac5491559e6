//! Exporter contracts at the crate boundary: the Prometheus exposition,
//! the JSONL event stream, and the RFC-4180 CSV export of a trace
//! captured across real pool threads.

use vpp_substrate::json;
use vpp_substrate::{par_map, span, trace};

/// A session exercising every exporter-relevant feature: nested spans on
/// several threads, exit fields with CSV/prom-hostile characters,
/// counters, gauges, and marks.
fn recorded() -> trace::TraceReport {
    let session = trace::session(1 << 16);
    {
        let mut root = span!("export.root", benchmark = "Si256_hse", nodes = 4);
        let _: Vec<()> = par_map(vec![0u64, 1, 2, 3], |i| {
            let mut s = span!("export.worker", index = i);
            trace::counter("export.items", 1);
            s.record("note", "quoted \"value\", with, commas\nand a newline");
            trace::gauge("export.last_index", i as f64);
        });
        trace::mark_with("export.mark", || {
            vec![("detail", trace::FieldValue::from("a,b"))]
        });
        root.record("ok", true);
    }
    let report = session.finish();
    report.well_formed().expect("well-formed trace");
    report
}

#[test]
fn prom_exposition_follows_the_text_format() {
    let report = recorded();
    let prom = report.to_prom();
    let name_ok = |n: &str| {
        !n.is_empty()
            && !n.starts_with(|c: char| c.is_ascii_digit())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let mut seen_type_for: Vec<String> = Vec::new();
    for line in prom.lines() {
        assert!(!line.is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let metric = it.next().expect("metric name");
            let kind = it.next().expect("metric kind");
            assert!(name_ok(metric), "bad metric name {metric}");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "bad kind {kind}"
            );
            seen_type_for.push(metric.to_string());
        } else {
            let metric = line
                .split(['{', ' '])
                .next()
                .expect("sample metric");
            assert!(name_ok(metric), "bad sample name {metric}");
            // Summary samples use the base name plus `_sum` / `_count`.
            assert!(
                seen_type_for.iter().any(|m| {
                    metric == m
                        || metric == format!("{m}_sum")
                        || metric == format!("{m}_count")
                }),
                "sample {metric} appears before its TYPE line"
            );
            let value = line.rsplit(' ').next().expect("sample value");
            assert!(
                value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
                "unparseable sample value {value}"
            );
        }
    }
    assert!(prom.contains("vpp_export_items_total 4"));
    assert!(prom.contains("vpp_export_last_index"));
    assert!(prom.contains("vpp_span_duration_seconds"));
}

#[test]
fn live_counters_are_monotone_while_the_session_runs() {
    let session = trace::session(1 << 12);
    trace::counter("export.ticks", 1);
    let first = session.snapshot();
    trace::counter("export.ticks", 2);
    let second = session.snapshot();
    assert_eq!(first.counters["export.ticks"], 1);
    assert_eq!(second.counters["export.ticks"], 3);
    assert!(second.counters["export.ticks"] >= first.counters["export.ticks"]);
    let _ = session.finish();
}

#[test]
fn jsonl_lines_roundtrip_through_the_in_tree_parser() {
    let report = recorded();
    let jsonl = report.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), report.events.len(), "one line per event");
    for (line, event) in lines.iter().zip(&report.events) {
        let parsed = json::parse(line).expect("every line is valid JSON");
        assert_eq!(parsed, event.to_json(), "line differs from the encoding");
        assert_eq!(
            parsed.compact(),
            *line,
            "re-serialising the parse must reproduce the line"
        );
    }
}

/// Minimal RFC-4180 reader: fields separated by commas, quoted fields may
/// contain commas, newlines, and doubled quotes.
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row = Vec::new();
    let mut cell = String::new();
    let mut chars = text.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        if quoted {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cell.push('"');
                } else {
                    quoted = false;
                }
            } else {
                cell.push(c);
            }
        } else {
            match c {
                '"' => quoted = true,
                ',' => row.push(std::mem::take(&mut cell)),
                '\n' => {
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                }
                _ => cell.push(c),
            }
        }
    }
    if !cell.is_empty() || !row.is_empty() {
        row.push(cell);
        rows.push(row);
    }
    rows
}

#[test]
fn csv_export_survives_quotes_commas_and_newlines() {
    let report = recorded();
    let csv = report.to_csv();
    let rows = parse_csv(&csv);
    assert_eq!(rows[0][0], "kind", "header row first");
    let ncol = rows[0].len();
    for row in &rows {
        assert_eq!(row.len(), ncol, "ragged row: {row:?}");
    }
    // One span row per span, one mark row per mark — nothing split by the
    // embedded newline in the worker exit field.
    let spans = rows.iter().filter(|r| r[0] == "span").count();
    let marks = rows.iter().filter(|r| r[0] == "mark").count();
    assert_eq!(spans, report.spans().len());
    assert_eq!(marks, report.marks().len());
    let worker = rows
        .iter()
        .find(|r| r[1] == "export.worker")
        .expect("worker row");
    let fields = &worker[ncol - 1];
    assert!(
        fields.contains("quoted \"value\", with, commas\nand a newline"),
        "lossless field payload, got: {fields}"
    );
}
