//! End-to-end benchmark of the domatic library and its serving tier.
//!
//! Four workloads (see `README.md`) each run in a child process of the
//! `bench` binary. A workload times calls into the layers' public
//! functions and reads counters the program already publishes (the
//! server's `stats` and `profile` ops and the telemetry registry); it
//! adds no tracing inside the program.

pub mod check;
pub mod churn;
pub mod client;
pub mod fixture;
pub mod metrics;
pub mod serve;
pub mod solve_mix;
pub mod spans;
pub mod stats;

use metrics::Outcome;
use std::time::Instant;

/// The seed whose output digests `digests.json` pins.
pub const DEFAULT_SEED: u64 = 1;

/// How one workload run is set up.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Record spans and size the server's trace ring to the phase.
    pub traced: bool,
    /// Small inputs and a single set-up, for smoke tests.
    pub quick: bool,
}

impl Ctx {
    /// How many times set-up runs; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            5
        }
    }

    /// The server's configuration: one shard and the default pool; in
    /// traced runs a trace ring large enough for a phase's requests.
    pub fn server_config(&self, cache_bytes: Option<usize>) -> domatic_server::ServerConfig {
        let mut cfg = domatic_server::ServerConfig {
            shards: 1,
            ..Default::default()
        };
        if let Some(bytes) = cache_bytes {
            cfg.cache_bytes = bytes;
        }
        if self.traced {
            cfg.trace_ring = 1 << 17;
        }
        cfg
    }
}

/// Runs `setup` `ctx.setups()` times, tearing down all but the last
/// fixture, and records the median set-up time as `setup_s`.
pub fn timed_setup<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..ctx.setups() {
        let t = Instant::now();
        let fixture = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 < ctx.setups() {
            teardown(fixture)?;
        } else {
            last = Some(fixture);
        }
    }
    out.put("setup_s", stats::median(&times), times.len());
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Where a traced run writes its spans, relative to the working
/// directory.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new("target/bench").join(format!("{workload}.trace.jsonl"))
}

/// Ends a traced run: writes its spans and records their self time.
pub fn finish_trace(spans: &spans::Spans, out: &mut Outcome) -> Result<(), String> {
    let path = trace_path(&out.workload);
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.self_ms = spans.self_times();
    Ok(())
}

/// The counters of the telemetry registry a workload reports deltas of.
pub fn domination_counters() -> [u64; 2] {
    let t = domatic_telemetry::global();
    [
        t.counter_value("graph.domination.checks"),
        t.counter_value("graph.domination.greedy_extractions"),
    ]
}

/// Records the domination counter deltas since `before`.
pub fn put_counter_deltas(out: &mut Outcome, before: [u64; 2]) {
    let after = domination_counters();
    out.put("graph.domination.checks", (after[0] - before[0]) as f64, 1);
    out.put(
        "graph.domination.greedy_extractions",
        (after[1] - before[1]) as f64,
        1,
    );
}

/// The span name and `core.solve_ms.*` metric for a solver name.
pub fn solve_names(alg: &str) -> Option<(&'static str, &'static str)> {
    Some(match alg {
        "greedy" => ("core.solve.greedy", "core.solve_ms.greedy"),
        "uniform" => ("core.solve.uniform", "core.solve_ms.uniform"),
        "general" => ("core.solve.general", "core.solve_ms.general"),
        "ft" => ("core.solve.ft", "core.solve_ms.ft"),
        "tabu" => ("core.solve.tabu", "core.solve_ms.tabu"),
        "sa" => ("core.solve.sa", "core.solve_ms.sa"),
        _ => return None,
    })
}
