//! # domatic-telemetry
//!
//! Workspace-wide observability: hierarchical span timers, named
//! counters, log-bucket histograms (p50/p90/p99), a thread-safe global
//! [`Registry`], a human-readable [`TableSink`], and the JSON encoding of
//! a [`Snapshot`] that machine-readable output embeds.
//!
//! The paper's claims are quantitative — round counts, per-node message
//! complexity, lifetime ratios — so every scheduler and simulator in the
//! workspace records what it does here, and the binaries decide whether
//! anyone is listening:
//!
//! - **Nobody listening (default):** spans elide to one relaxed atomic
//!   increment, counters are one atomic add. Library code never pays for
//!   instrumentation it can't see.
//! - **`domatic … --trace`:** span timing is enabled and the span tree
//!   prints after the subcommand.
//! - **`experiments … --json out.json`:** each experiment emits one
//!   JSON-lines record with its tables plus the telemetry snapshot —
//!   the experiments JSON-lines format.
//!
//! ## Recording
//!
//! ```
//! use domatic_telemetry as telemetry;
//!
//! telemetry::set_enabled(true); // binaries do this when a sink attaches
//! {
//!     let _span = telemetry::span!("readme.schedule");
//!     telemetry::count!("readme.domination.checks", 3);
//!     telemetry::global().observe("readme.rounds", 17);
//! }
//! let snap = telemetry::global().snapshot();
//! assert_eq!(snap.counters["readme.domination.checks"], 3);
//! assert_eq!(snap.spans["readme.schedule"].count, 1);
//! telemetry::set_enabled(false);
//! ```

pub mod hist;
pub mod json;
pub mod prometheus;
pub mod registry;
pub mod sink;
pub mod snapshot;
pub mod span;

pub use hist::{
    default_latency_buckets_us, BucketHistogram, BucketSummary, HistSummary, Histogram,
};
pub use registry::{label_string, Counter, Gauge, Registry, SpanStat};
pub use sink::TableSink;
pub use snapshot::{FamilySummary, Snapshot};
pub use span::{enabled, set_enabled, spans_elided, Span};

use std::sync::OnceLock;

/// The process-global registry all instrumented workspace code records
/// into. Binaries snapshot/reset it around units of work; libraries only
/// write.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
