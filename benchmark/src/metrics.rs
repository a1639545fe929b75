//! Metric names, units and directions, and the record one workload run
//! produces.
//!
//! The two tables below are the benchmark's contract with its readers:
//! `BENCHMARK.json` lists the same names, units and directions (a test
//! checks it), and later changes cite them by name.

use crate::spans::SelfTime;
use crate::stats;
use domatic_telemetry::json::Json;
use std::collections::BTreeMap;

/// A metric's name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics: what a user of the library or the server sees.
/// Every workload reports every one of them, from an untraced run.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("throughput_per_s", "1/s", "higher"),
    def("p50_us", "us", "lower"),
    def("p90_us", "us", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics, from a traced run. A layer a workload leaves idle
/// reads 0 with no samples.
pub const PER_LAYER: &[Def] = &[
    def("graph.parse_us", "us", "lower"),
    def("graph.domination.checks", "count", "lower"),
    def("graph.domination.greedy_extractions", "count", "lower"),
    def("core.solve_ms.greedy", "ms", "lower"),
    def("core.solve_ms.uniform", "ms", "lower"),
    def("core.solve_ms.general", "ms", "lower"),
    def("core.solve_ms.ft", "ms", "lower"),
    def("core.solve_ms.tabu", "ms", "lower"),
    def("core.solve_ms.sa", "ms", "lower"),
    def("core.bound_us", "us", "lower"),
    def("core.lifetime_ratio", "ratio", "higher"),
    def("core.repairs", "count", "lower"),
    def("core.repair_fallbacks", "count", "lower"),
    def("core.incremental.overhead_us", "us", "lower"),
    def("schedule.validate_us", "us", "lower"),
    def("schedule.valid_ratio", "ratio", "higher"),
    def("server.protocol.parse_ns", "ns", "lower"),
    def("server.total_us.p50", "us", "lower"),
    def("server.total_us.p99", "us", "lower"),
    def("server.queue_us.p50", "us", "lower"),
    def("server.queue_us.p99", "us", "lower"),
    def("server.solve_us.p50", "us", "lower"),
    def("server.solve_us.p99", "us", "lower"),
    def("server.render_us.p50", "us", "lower"),
    def("server.render_us.p99", "us", "lower"),
    def("server.transport_us.p50", "us", "lower"),
    def("server.transport_us.p99", "us", "lower"),
    def("server.mutate_us.p50", "us", "lower"),
    def("server.mutate_us.p99", "us", "lower"),
    def("server.cache.hit_ratio", "ratio", "higher"),
    def("server.batch.join_ratio", "ratio", "higher"),
    def("server.cache.evictions", "count", "lower"),
    def("server.shed_ratio", "ratio", "lower"),
    def("server.cache.lineage_invalidations", "count", "lower"),
    def("server.cache.sibling_hit_ratio", "ratio", "higher"),
    def("telemetry.trace_overhead", "ratio", "higher"),
    def("bench.gen_lag_p99_us", "us", "lower"),
];

/// The four workloads, in run order.
pub const WORKLOADS: &[&str] = &["solve-mix", "serve-hot", "serve-solve", "churn"];

/// A measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it summarizes (windows, requests, calls or runs).
    pub n: usize,
}

/// Everything one workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Whether spans and the server's trace ring were on.
    pub traced: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed: an error response, or an output that
    /// did not pass its check.
    pub failed: u64,
    /// Every failed check, described (the first few are kept).
    pub violations: Vec<String>,
    /// Digest of the run's deterministic outputs; `None` when the phase
    /// was too short to reach the digested prefix.
    pub digest: Option<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, Value>,
    /// Span self time by span name (traced runs).
    pub self_ms: BTreeMap<String, SelfTime>,
}

impl Outcome {
    /// A fresh record for `workload`.
    pub fn new(workload: &str, traced: bool) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            traced,
            ..Outcome::default()
        }
    }

    /// Sets metric `name`.
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.metrics.insert(name.to_string(), Value { value, n });
    }

    /// Sets `name` to the nearest-rank `p` quantile of `samples` (0 with
    /// no samples: the layer was idle).
    pub fn put_quantile(&mut self, name: &str, samples: &[f64], p: f64) {
        let mut v = samples.to_vec();
        let q = stats::quantile(stats::sort(&mut v), p).unwrap_or(0.0);
        self.put(name, q, v.len());
    }

    /// Sets `name` to the nearest-rank `p` quantile of latency samples.
    pub fn put_latency(&mut self, name: &str, samples: &stats::Latencies, p: f64) {
        self.put(name, samples.quantile(p).unwrap_or(0.0), samples.len());
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// A metric's value (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |v| v.value)
    }

    /// The record as JSON.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::obj([
                        ("value".to_string(), Json::Num(v.value)),
                        ("n".to_string(), Json::Int(v.n as i128)),
                    ]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        let self_ms = self
            .self_ms
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::obj([
                        ("count".to_string(), Json::Int(s.count as i128)),
                        ("total_ms".to_string(), Json::Num(s.total_ms)),
                        ("self_ms".to_string(), Json::Num(s.self_ms)),
                    ]),
                )
            })
            .collect::<BTreeMap<_, _>>();
        Json::obj([
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("attempted".to_string(), Json::Int(self.attempted as i128)),
            ("failed".to_string(), Json::Int(self.failed as i128)),
            (
                "violations".to_string(),
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "digest".to_string(),
                self.digest.clone().map_or(Json::Null, Json::Str),
            ),
            ("metrics".to_string(), Json::Obj(metrics)),
            ("self_ms".to_string(), Json::Obj(self_ms)),
        ])
    }

    /// Reads a record written by [`Outcome::to_json`].
    pub fn from_json(v: &Json) -> Result<Outcome, String> {
        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let mut out = Outcome::new(
            v.get("workload")
                .and_then(Json::as_str)
                .ok_or("record lacks 'workload'")?,
            matches!(v.get("traced"), Some(Json::Bool(true))),
        );
        out.attempted = num(v, "attempted") as u64;
        out.failed = num(v, "failed") as u64;
        if let Some(Json::Arr(items)) = v.get("violations") {
            out.violations = items
                .iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect();
        }
        out.digest = v.get("digest").and_then(Json::as_str).map(String::from);
        if let Some(Json::Obj(m)) = v.get("metrics") {
            for (k, mv) in m {
                out.put(k, num(mv, "value"), num(mv, "n") as usize);
            }
        }
        if let Some(Json::Obj(m)) = v.get("self_ms") {
            for (k, s) in m {
                out.self_ms.insert(
                    k.clone(),
                    SelfTime {
                        count: num(s, "count") as u64,
                        total_ms: num(s, "total_ms"),
                        self_ms: num(s, "self_ms"),
                    },
                );
            }
        }
        Ok(out)
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_json() {
        let mut o = Outcome::new("churn", true);
        o.attempted = 12;
        o.fail("bad schedule".into());
        o.digest = Some("00ff".into());
        o.put("p50_us", 123.456789, 40);
        let back = Outcome::from_json(&o.to_json()).unwrap();
        assert_eq!(back.workload, "churn");
        assert!(back.traced);
        assert_eq!((back.attempted, back.failed), (12, 1));
        assert_eq!(back.violations, vec!["bad schedule".to_string()]);
        assert_eq!(back.digest.as_deref(), Some("00ff"));
        assert_eq!(
            back.metrics["p50_us"],
            Value {
                value: 123.456789,
                n: 40
            }
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(peak_rss_mb() > 0.0);
    }
}
