//! Integration tests for domatic-telemetry: histogram boundaries,
//! nested span aggregation, concurrency, and JSON round-trips.
//!
//! Span tests share the process-global registry (the span stack is
//! global by design), so every test uses its own `name.` prefix rather
//! than resetting — tests run concurrently within this binary.

use domatic_telemetry as telemetry;
use telemetry::hist::{bucket_index, bucket_upper_bound, Histogram};
use telemetry::{json, Registry, TableSink};

/// Tests that flip the process-wide enabled flag take this lock so the
/// parallel test harness cannot interleave them.
static ENABLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn histogram_bucket_boundaries_are_powers_of_two() {
    // Exactly at and around each boundary up to 2^16.
    for exp in 1..16u32 {
        let v = 1u64 << exp;
        assert_eq!(bucket_index(v), exp as usize + 1, "at 2^{exp}");
        assert_eq!(bucket_index(v - 1), exp as usize, "below 2^{exp}");
        assert_eq!(bucket_index(v + 1), exp as usize + 1, "above 2^{exp}");
    }
    // A value is never above its bucket's upper bound…
    for v in [0u64, 1, 2, 3, 4, 5, 100, 1023, 1024, u64::MAX] {
        assert!(v <= bucket_upper_bound(bucket_index(v)), "{v}");
    }
    // …and the estimate is within 2× of the true value.
    let h = Histogram::new();
    h.record(1000);
    let p50 = h.quantile(0.5);
    assert!((1000..=2000).contains(&p50), "{p50}");
}

#[test]
fn nested_spans_aggregate_under_parent_paths() {
    let _serial = ENABLE_LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    for _ in 0..3 {
        let _outer = telemetry::span!("nest.outer");
        std::thread::sleep(std::time::Duration::from_millis(1));
        for _ in 0..2 {
            let _inner = telemetry::span!("nest.inner");
        }
    }
    telemetry::set_enabled(false);

    let spans = telemetry::global().snapshot().spans;
    let outer = spans["nest.outer"];
    let inner = spans["nest.outer/nest.inner"];
    assert_eq!(outer.count, 3);
    assert_eq!(inner.count, 6);
    // Wall-clock containment: the parent's total covers its children.
    assert!(
        outer.total_ns >= inner.total_ns,
        "outer {} < inner {}",
        outer.total_ns,
        inner.total_ns
    );
    // There is no bare "nest.inner" path — nesting was recorded.
    assert!(!spans.contains_key("nest.inner"));
}

#[test]
fn disabled_spans_are_elided_not_recorded() {
    let _serial = ENABLE_LOCK.lock().unwrap();
    assert!(!telemetry::enabled());
    let before = telemetry::spans_elided();
    {
        let _span = telemetry::span!("elide.me");
    }
    assert!(!telemetry::global()
        .snapshot()
        .spans
        .contains_key("elide.me"));
    assert!(telemetry::spans_elided() > before);
}

#[test]
fn concurrent_counter_increments_sum_exactly() {
    // Drive parallelism two ways: raw scoped threads *through the same
    // Counter API rayon users hit*, then the rayon pool itself below.
    let reg = Registry::new();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 25_000;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c = reg.counter("conc.hits");
            let h = reg.histogram("conc.obs");
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    c.incr();
                    if i % 1000 == 0 {
                        h.record(i);
                    }
                }
            });
        }
    });
    assert_eq!(reg.counter_value("conc.hits"), THREADS as u64 * PER_THREAD);
    assert_eq!(reg.histogram("conc.obs").count(), (THREADS * 25) as u64);

    // And incrementing from the rayon pool's own workers (par_iter over
    // a shared counter) agrees with the sequential sum — one relaxed
    // atomic add per item survives real work distribution.
    use rayon::prelude::*;
    let c = reg.counter("conc.rayon");
    (0..1000u64).into_par_iter().for_each(|_| c.incr());
    assert_eq!(reg.counter_value("conc.rayon"), 1000);
}

#[test]
fn json_sink_round_trips_through_parser() {
    let reg = Registry::new();
    reg.incr("rt.transmissions", 42);
    reg.incr("rt.rounds", 3);
    reg.observe("rt.latency_ns", 1_500);
    reg.observe("rt.latency_ns", 90_000);
    reg.record_span("rt.run", 123_456_789);
    reg.record_span("rt.run/rt.phase", 23_456_789);

    // The encoding `experiments --json` embeds in each record.
    let line = reg.snapshot().to_json().render();
    let tel = json::parse(&line).unwrap();
    let counters = tel.get("counters").unwrap();
    assert_eq!(counters.get("rt.transmissions").unwrap().as_int(), Some(42));
    assert_eq!(counters.get("rt.rounds").unwrap().as_int(), Some(3));
    let hist = tel.get("histograms").unwrap().get("rt.latency_ns").unwrap();
    assert_eq!(hist.get("count").unwrap().as_int(), Some(2));
    assert_eq!(hist.get("sum").unwrap().as_int(), Some(91_500));
    let spans = tel.get("spans").unwrap();
    assert_eq!(
        spans
            .get("rt.run")
            .unwrap()
            .get("total_ns")
            .unwrap()
            .as_int(),
        Some(123_456_789)
    );
    assert_eq!(
        spans
            .get("rt.run/rt.phase")
            .unwrap()
            .get("count")
            .unwrap()
            .as_int(),
        Some(1)
    );
}

#[test]
fn table_sink_renders_nested_tree() {
    let reg = Registry::new();
    reg.incr("tbl.checks", 5);
    reg.record_span("tbl.sched", 2_000_000);
    reg.record_span("tbl.sched/tbl.color", 500_000);
    let mut sink = TableSink::new(Vec::new());
    sink.emit("tbl", &reg.snapshot()).unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert!(text.contains("tbl.checks"));
    // The child renders indented under its parent, leaf name only.
    let child_line = text.lines().find(|l| l.contains("tbl.color")).unwrap();
    assert!(child_line.starts_with("    tbl.color") || child_line.contains("  tbl.color"));
    assert!(!child_line.contains("tbl.sched/"));
}

#[test]
fn snapshot_json_round_trips_every_section() {
    let reg = Registry::new();
    reg.incr("rtx.requests", 11);
    reg.set_gauge("rtx.inflight", 4);
    reg.observe("rtx.rounds", 3);
    reg.observe("rtx.rounds", 90);
    reg.observe_labeled("rtx.latency_us", &[("op", "solve")], 300);
    reg.observe_labeled("rtx.latency_us", &[("op", "bounds")], 2);
    reg.record_span("rtx.serve", 9_000);
    reg.record_span("rtx.serve/rtx.solve", 7_000);

    let snap = reg.snapshot();
    let back = telemetry::Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back, snap, "to_json/from_json must be a lossless inverse");

    // The empty snapshot round-trips too.
    let empty = Registry::new().snapshot();
    assert!(empty.is_empty());
    let back = telemetry::Snapshot::from_json(&empty.to_json()).unwrap();
    assert_eq!(back, empty);

    // Malformed sections error rather than default.
    let bad = json::parse(r#"{"counters":{"x":"not a number"}}"#).unwrap();
    assert!(telemetry::Snapshot::from_json(&bad).is_err());
}

#[test]
fn span_tree_rendering_is_deterministic_with_shared_prefixes() {
    let reg = Registry::new();
    // Shared prefixes and sibling order deliberately inserted unsorted.
    reg.record_span("det.b/det.z", 10);
    reg.record_span("det.b", 100);
    reg.record_span("det.a/det.mid/det.leaf", 7);
    reg.record_span("det.a", 50);
    reg.record_span("det.a/det.mid", 30);
    reg.incr("det.counter", 1);

    let snap = reg.snapshot();
    let first = snap.render_span_tree();
    let second = snap.render_span_tree();
    assert_eq!(first, second, "same snapshot renders byte-identically");

    // A re-recorded identical registry renders the same tree.
    let reg2 = Registry::new();
    reg2.record_span("det.a", 50);
    reg2.record_span("det.a/det.mid", 30);
    reg2.record_span("det.a/det.mid/det.leaf", 7);
    reg2.record_span("det.b", 100);
    reg2.record_span("det.b/det.z", 10);
    reg2.incr("det.counter", 1);
    assert_eq!(
        reg2.snapshot().render_span_tree(),
        first,
        "insertion order must not leak into the rendering"
    );

    // Children indent under parents exactly once per path.
    assert_eq!(first.matches("det.leaf").count(), 1);
    let empty = Registry::new().snapshot();
    assert_eq!(
        empty.render_span_tree(),
        "",
        "empty registry renders nothing"
    );
}

#[test]
fn snapshot_delta_subtracts_counters_histograms_and_labels() {
    let reg = Registry::new();
    reg.incr("d.reqs", 5);
    reg.observe_labeled("d.lat", &[("op", "a")], 10);
    let before = reg.snapshot();

    reg.incr("d.reqs", 3);
    reg.set_gauge("d.gauge", 17);
    reg.observe_labeled("d.lat", &[("op", "a")], 10);
    reg.observe_labeled("d.lat", &[("op", "a")], 1_000_000);
    reg.observe_labeled("d.lat", &[("op", "b")], 1);
    let after = reg.snapshot();

    let d = after.delta(&before);
    assert_eq!(d.counters["d.reqs"], 3, "counters subtract");
    assert_eq!(d.gauges["d.gauge"], 17, "gauges report current value");
    let a = &d.labeled["d.lat"]["op=\"a\""];
    assert_eq!(a.count, 2, "only the window's observations remain");
    assert_eq!(a.sum, 1_000_010);
    let b = &d.labeled["d.lat"]["op=\"b\""];
    assert_eq!(b.count, 1, "cells born inside the window survive");
    // Self-delta is empty counts everywhere.
    let zero = after.delta(&after);
    assert_eq!(zero.counters["d.reqs"], 0);
    assert_eq!(zero.labeled["d.lat"]["op=\"a\""].count, 0);
}

#[test]
fn prometheus_exposition_round_trips_through_parse_snapshot() {
    let reg = Registry::new();
    reg.incr("px.requests", 9);
    reg.set_gauge("px.bytes", 512);
    reg.observe_labeled("px.lat_us", &[("op", "solve")], 100);
    reg.record_span("px.run/px.step", 4_000);

    let text = telemetry::prometheus::render(&reg.snapshot());
    let snap = telemetry::prometheus::parse_snapshot(&text).unwrap();
    assert_eq!(snap.counters["px_requests"], 9);
    assert_eq!(snap.gauges["px_bytes"], 512);
    assert_eq!(snap.labeled["px_lat_us"]["op=\"solve\""].count, 1);
    assert_eq!(snap.spans["px.run/px.step"].total_ns, 4_000);
    // Render(parse(render(x))) is a fixed point for the labeled family.
    let text2 = telemetry::prometheus::render(&snap);
    let snap2 = telemetry::prometheus::parse_snapshot(&text2).unwrap();
    assert_eq!(snap2.labeled, snap.labeled);
    assert_eq!(snap2.counters, snap.counters);
}
