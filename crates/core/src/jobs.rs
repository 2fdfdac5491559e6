//! Job specs for the multi-tenant `vpp serve` service.
//!
//! The substrate's [`serve`](vpp_substrate::serve) module is
//! workload-agnostic: it validates and runs jobs through the
//! [`JobHandler`] trait. This module supplies the reproduction's
//! implementation — a `POST /jobs` body is parsed into a
//! [`ServiceJobSpec`], checked against the Table I benchmark recipes and
//! the §III-B protocol's parameter ranges, and executed with
//! [`protocol::measure`](crate::protocol::measure) under the job's own trace session.

use crate::benchmarks::{suite, Benchmark};
use crate::protocol::{check_cap_w, measure_cancellable, Canceled, RunConfig, StudyContext};
use vpp_stats::PowerSummary;
use vpp_substrate::json::Value;
use vpp_substrate::serve::{CancelToken, JobHandler};

/// Bounds a submitted spec must respect. Nodes cover the paper's scaling
/// sweep with headroom; caps are checked by [`check_cap_w`]; repeats and
/// sampling keep one job's cost bounded on a shared service.
const MAX_NODES: usize = 128;
const MAX_REPEATS: usize = 16;
const SAMPLE_INTERVAL_RANGE_S: (f64, f64) = (0.01, 10.0);

/// A validated `POST /jobs` submission.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceJobSpec {
    /// Benchmark name from the Table I suite (e.g. `Si256_hse`).
    pub workload: String,
    /// Node count for the run.
    pub nodes: usize,
    /// Optional GPU power cap, watts.
    pub cap_w: Option<f64>,
    /// Protocol repeats (the paper uses 5; the service defaults to 2).
    pub repeats: usize,
    /// Telemetry sampling interval, seconds.
    pub sample_interval_s: f64,
    /// Seed salt so resubmitted jobs can draw distinct fleets.
    pub seed_salt: u64,
}

impl ServiceJobSpec {
    /// Parse and validate a submitted JSON document. Unknown keys are
    /// rejected outright — a typo like `"node"` silently defaulting would
    /// run the wrong experiment.
    ///
    /// # Errors
    /// A human-readable message naming the offending key or value.
    pub fn from_json(doc: &Value) -> Result<ServiceJobSpec, String> {
        let Value::Obj(entries) = doc else {
            return Err("job spec must be a JSON object".to_string());
        };
        const KNOWN: [&str; 6] = [
            "workload",
            "nodes",
            "cap_w",
            "repeats",
            "sample_interval_s",
            "seed_salt",
        ];
        for (key, _) in entries {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!(
                    "unknown key '{key}' (expected {})",
                    KNOWN.join("|")
                ));
            }
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("'workload' (string) is required")?
            .to_string();
        if !suite().iter().any(|b| b.name() == workload) {
            let names: Vec<String> =
                suite().iter().map(|b| b.name().to_string()).collect();
            return Err(format!(
                "unknown workload '{workload}'; the suite is {}",
                names.join(", ")
            ));
        }
        let nodes = match doc.get("nodes") {
            None => 1,
            Some(v) => as_count(v, "nodes")?,
        };
        if nodes == 0 || nodes > MAX_NODES {
            return Err(format!("'nodes' must be in 1..={MAX_NODES}, got {nodes}"));
        }
        let cap_w = match doc.get("cap_w") {
            None => None,
            Some(v) => {
                let cap = v
                    .as_f64()
                    .ok_or_else(|| format!("'cap_w' must be a number, got {}", v.compact()))?;
                Some(check_cap_w("'cap_w'", cap)?)
            }
        };
        let repeats = match doc.get("repeats") {
            None => StudyContext::quick().repeats,
            Some(v) => as_count(v, "repeats")?,
        };
        if repeats == 0 || repeats > MAX_REPEATS {
            return Err(format!(
                "'repeats' must be in 1..={MAX_REPEATS}, got {repeats}"
            ));
        }
        let sample_interval_s = match doc.get("sample_interval_s") {
            None => StudyContext::paper().sampler.interval_s,
            Some(v) => {
                let dt = v.as_f64().ok_or_else(|| {
                    format!("'sample_interval_s' must be a number, got {}", v.compact())
                })?;
                let (lo, hi) = SAMPLE_INTERVAL_RANGE_S;
                if !(lo..=hi).contains(&dt) {
                    return Err(format!(
                        "'sample_interval_s' must be in {lo}..={hi} s, got {dt}"
                    ));
                }
                dt
            }
        };
        let seed_salt = match doc.get("seed_salt") {
            None => 0,
            Some(v) => as_count(v, "seed_salt")? as u64,
        };
        Ok(ServiceJobSpec {
            workload,
            nodes,
            cap_w,
            repeats,
            sample_interval_s,
            seed_salt,
        })
    }

    /// The normalised document the service stores and echoes back —
    /// every default made explicit, so `GET /jobs/<id>` shows exactly
    /// what will run.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut obj = vec![
            (
                "workload".to_string(),
                Value::Str(self.workload.clone()),
            ),
            ("nodes".to_string(), Value::Num(self.nodes as f64)),
        ];
        if let Some(cap) = self.cap_w {
            obj.push(("cap_w".to_string(), Value::Num(cap)));
        }
        obj.push(("repeats".to_string(), Value::Num(self.repeats as f64)));
        obj.push((
            "sample_interval_s".to_string(),
            Value::Num(self.sample_interval_s),
        ));
        obj.push(("seed_salt".to_string(), Value::Num(self.seed_salt as f64)));
        Value::Obj(obj)
    }

    /// The benchmark this spec runs (validated to exist by `from_json`).
    #[must_use]
    pub fn benchmark(&self) -> Option<Benchmark> {
        suite().into_iter().find(|b| b.name() == self.workload)
    }
}

/// Parse a JSON number as a non-negative integer count.
fn as_count(v: &Value, key: &str) -> Result<usize, String> {
    let n = v
        .as_f64()
        .ok_or_else(|| format!("'{key}' must be a number, got {}", v.compact()))?;
    if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
        return Err(format!("'{key}' must be a non-negative integer, got {n}"));
    }
    Ok(n as usize)
}

/// The reproduction's [`JobHandler`]: specs validate against the
/// benchmark suite, and a run is one §III-B measurement
/// ([`protocol::measure`](crate::protocol::measure)) with the spec's repeats/sampling/cap applied.
/// The service binds the job's trace session to the runner thread, so the
/// per-repeat spans land in that job's trace alone, and keeps the whole
/// measurement on that thread (`pool::serial`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProtocolJobHandler;

impl JobHandler for ProtocolJobHandler {
    fn validate(&self, spec: &Value) -> Result<Value, String> {
        ServiceJobSpec::from_json(spec).map(|s| s.to_json())
    }

    fn run(&self, spec: &Value, cancel: &CancelToken) -> Result<Value, String> {
        let spec = ServiceJobSpec::from_json(spec)?;
        let bench = spec
            .benchmark()
            .ok_or_else(|| format!("workload '{}' vanished from the suite", spec.workload))?;
        let mut ctx = StudyContext::paper();
        ctx.repeats = spec.repeats;
        ctx.sampler.interval_s = spec.sample_interval_s;
        let mut cfg = RunConfig::nodes(spec.nodes);
        cfg.cap_w = spec.cap_w;
        cfg.seed_salt = spec.seed_salt;
        // The repeat boundary is the protocol's cancel checkpoint: a
        // DELETE on a running job takes effect before the next repeat.
        let measured = match measure_cancellable(&bench, &cfg, &ctx, &|| cancel.is_canceled()) {
            Ok(m) => m,
            Err(Canceled) => return Err("canceled between repeats".to_string()),
        };
        let mut result = vec![
            (
                "workload".to_string(),
                Value::Str(measured.name.clone()),
            ),
            ("nodes".to_string(), Value::Num(measured.nodes as f64)),
            ("runtime_s".to_string(), Value::Num(measured.runtime_s)),
            ("energy_j".to_string(), Value::Num(measured.energy_j)),
            ("node".to_string(), summary_json(&measured.node_summary)),
            ("gpu".to_string(), summary_json(&measured.gpu_summary)),
            (
                "quality_flagged".to_string(),
                Value::Bool(measured.quality_flagged),
            ),
        ];
        if let Some(cap) = measured.cap_w {
            result.insert(2, ("cap_w".to_string(), Value::Num(cap)));
        }
        Ok(Value::Obj(result))
    }
}

fn summary_json(s: &PowerSummary) -> Value {
    Value::Obj(vec![
        ("high_mode_w".to_string(), Value::Num(s.high_mode_w)),
        ("fwhm_w".to_string(), Value::Num(s.fwhm_w)),
        ("mean_w".to_string(), Value::Num(s.mean_w)),
        ("median_w".to_string(), Value::Num(s.median_w)),
        ("n_samples".to_string(), Value::Num(s.n_samples as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpp_substrate::json;

    fn parse(text: &str) -> Value {
        json::parse(text).expect("test literal parses")
    }

    #[test]
    fn minimal_spec_fills_defaults() {
        let spec =
            ServiceJobSpec::from_json(&parse(r#"{"workload": "B.hR105_hse"}"#)).unwrap();
        assert_eq!(spec.workload, "B.hR105_hse");
        assert_eq!(spec.nodes, 1);
        assert_eq!(spec.cap_w, None);
        assert_eq!(spec.repeats, StudyContext::quick().repeats);
        assert!((spec.sample_interval_s - 1.0).abs() < 1e-12);
        // Normalisation is idempotent.
        let round = ServiceJobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let cases = [
            (r#"[1,2]"#, "must be a JSON object"),
            (r#"{}"#, "'workload' (string) is required"),
            (r#"{"workload": "NotABench"}"#, "unknown workload"),
            (r#"{"workload": "Si256_hse", "node": 2}"#, "unknown key 'node'"),
            (r#"{"workload": "Si256_hse", "nodes": 0}"#, "'nodes' must be in"),
            (r#"{"workload": "Si256_hse", "nodes": 2.5}"#, "non-negative integer"),
            (r#"{"workload": "Si256_hse", "cap_w": 950}"#, "'cap_w' must be in"),
            (r#"{"workload": "Si256_hse", "cap_w": 99.5}"#, "'cap_w' must be in"),
            (r#"{"workload": "Si256_hse", "repeats": 99}"#, "'repeats' must be in"),
            (
                r#"{"workload": "Si256_hse", "sample_interval_s": 0}"#,
                "'sample_interval_s' must be in",
            ),
        ];
        for (text, needle) in cases {
            let err = ServiceJobSpec::from_json(&parse(text)).unwrap_err();
            assert!(err.contains(needle), "spec {text}: {err}");
        }
    }

    #[test]
    fn handler_runs_a_quick_measurement() {
        let handler = ProtocolJobHandler;
        let spec = handler
            .validate(&parse(
                r#"{"workload": "B.hR105_hse", "repeats": 1, "cap_w": 250}"#,
            ))
            .unwrap();
        let result = handler.run(&spec, &CancelToken::new()).unwrap();
        assert_eq!(
            result.get("workload").and_then(Value::as_str),
            Some("B.hR105_hse")
        );
        assert!(result.get("runtime_s").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(result.get("energy_j").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(result.get("cap_w").and_then(Value::as_f64).unwrap() == 250.0);
        assert!(result.get("node").and_then(|n| n.get("high_mode_w")).is_some());
    }

    #[test]
    fn handler_honours_a_preset_cancel_token() {
        let handler = ProtocolJobHandler;
        let spec = handler
            .validate(&parse(r#"{"workload": "B.hR105_hse", "repeats": 1}"#))
            .unwrap();
        // Token already set: the first repeat's checkpoint fires before
        // any fleet executes, so this returns quickly with the cancel
        // message rather than a measurement.
        let token = CancelToken::new();
        token.cancel();
        let err = handler.run(&spec, &token).unwrap_err();
        assert!(err.contains("canceled between repeats"), "{err}");
    }
}
