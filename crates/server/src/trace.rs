//! Request lifecycle tracing: per-request trace ids, structured
//! JSON-lines events, a bounded ring of completed-request records, and a
//! slow-request dump.
//!
//! Every solve-shaped request gets a trace id at admission and emits a
//! fixed event vocabulary as it moves through the server:
//! `received`, then `admitted` or `shed`, then `batch_joined` /
//! `cache_hit` / `cache_miss`, `solve_start` / `solve_end`, `rendered`,
//! and finally `written` (which carries the phase durations:
//! queue-wait, solve, render, total). Timestamps are microseconds on
//! the tracer's own monotonic clock, so events within one trace are
//! non-decreasing by construction. A request is charged only the part
//! of its solve that overlaps its own lifetime, so a request that joins
//! a solve halfway is charged half of it, and every record satisfies
//! `queue_us + solve_us + render_us == total_us`.
//!
//! **Invariant — tracing never changes response bytes.** Trace ids and
//! events exist only in access-log lines and the in-memory ring; they
//! are never rendered into a response. `tests/obs_cli.rs` pins the same
//! response digests with tracing on and off.
//!
//! The ring buffer is always on (bounded, a few hundred records) and
//! feeds the `profile` op; the JSON-lines sink is attached only when
//! `--access-log` is given, and the slow-request dump only when
//! `--slow-ms` is set.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn json_str(s: &str) -> String {
    domatic_telemetry::json::Json::Str(s.to_string()).render()
}

/// One completed request, as kept in the tracer's ring buffer and
/// returned by the `profile` op.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// The trace id (monotone per server).
    pub trace: u64,
    /// The client's request id.
    pub id: u64,
    /// Op name (`solve` / `bounds` / `adapt` / `mutate`).
    pub op: &'static str,
    /// Graph the request ran against.
    pub graph: String,
    /// Solver name; empty for `bounds` and `mutate`, which run none.
    pub alg: String,
    /// How the request ended: `ok`, `error`, `shed`, or `deadline`.
    pub outcome: &'static str,
    /// Microseconds since server start when the request was received.
    pub t0_us: u64,
    /// Received → written, µs.
    pub total_us: u64,
    /// Time not accounted to solve or render (admission, pool
    /// queueing, fan-out), µs.
    pub queue_us: u64,
    /// Solver time of the batch that served this request, within this
    /// request's lifetime, µs.
    pub solve_us: u64,
    /// Payload rendering time of that batch, within this request's
    /// lifetime, µs.
    pub render_us: u64,
}

impl TraceRecord {
    /// Renders the record as a JSON object with fixed (alphabetical)
    /// field order.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"alg\":{},\"graph\":{},\"id\":{},\"op\":\"{}\",\"outcome\":\"{}\",\"queue_us\":{},\"render_us\":{},\"solve_us\":{},\"t0_us\":{},\"total_us\":{},\"trace\":{}}}",
            json_str(&self.alg),
            json_str(&self.graph),
            self.id,
            self.op,
            self.outcome,
            self.queue_us,
            self.render_us,
            self.solve_us,
            self.t0_us,
            self.total_us,
            self.trace,
        )
    }
}

/// The phase boundaries of one solve, in µs on the tracer clock: the
/// solver runs from `solve_start` to `render_start`, rendering from
/// there to `render_end`. The default (all zero) is "no solve ran".
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveSpan {
    /// The solver started.
    pub solve_start: u64,
    /// The solver returned and rendering began.
    pub render_start: u64,
    /// The payload was rendered.
    pub render_end: u64,
}

/// Per-request trace state, shared between the transport thread and the
/// batch job via `Arc` (a batch waiter carries its own trace).
pub struct ReqTrace {
    /// The trace id.
    pub trace: u64,
    /// The client's request id.
    pub id: u64,
    /// Op name.
    pub op: &'static str,
    /// Graph name.
    pub graph: String,
    /// Solver name (empty when the op runs none).
    pub alg: String,
    t0_us: u64,
    events: Mutex<Vec<(&'static str, u64)>>,
}

/// The server's tracing spine: hands out trace ids, timestamps events,
/// writes access-log lines, and keeps the completed-request ring.
pub struct Tracer {
    start: Instant,
    next: AtomicU64,
    log: Mutex<Option<Box<dyn Write + Send>>>,
    ring: Mutex<VecDeque<TraceRecord>>,
    ring_cap: usize,
    slow_us: Option<u64>,
}

impl Tracer {
    /// A tracer keeping at most `ring_cap` completed records, dumping
    /// full lifecycles of requests slower than `slow_us` (if set).
    pub fn new(ring_cap: usize, slow_us: Option<u64>) -> Self {
        Tracer {
            start: Instant::now(),
            next: AtomicU64::new(0),
            log: Mutex::new(None),
            ring: Mutex::new(VecDeque::with_capacity(ring_cap.min(1024))),
            ring_cap,
            slow_us,
        }
    }

    /// Attaches the access-log sink; every subsequent event is written
    /// to it as one JSON line.
    pub fn set_log(&self, w: Box<dyn Write + Send>) {
        *lock(&self.log) = Some(w);
    }

    /// Microseconds since the tracer (server) started.
    pub fn now_us(&self) -> u64 {
        self.us_at(Instant::now())
    }

    /// `t` on the tracer clock, in µs since the tracer started.
    pub(crate) fn us_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_micros() as u64
    }

    fn log_line(&self, line: &str) {
        let mut guard = lock(&self.log);
        if let Some(w) = guard.as_mut() {
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
        }
    }

    /// Starts a trace for one request and emits its `received` event.
    pub fn begin(&self, id: u64, op: &'static str, graph: &str, alg: &str) -> Arc<ReqTrace> {
        let trace = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let t0_us = self.now_us();
        let rt = Arc::new(ReqTrace {
            trace,
            id,
            op,
            graph: graph.to_string(),
            alg: alg.to_string(),
            t0_us,
            events: Mutex::new(vec![("received", t0_us)]),
        });
        if lock(&self.log).is_some() {
            self.log_line(&format!(
                "{{\"alg\":{},\"event\":\"received\",\"graph\":{},\"id\":{},\"op\":\"{}\",\"t_us\":{},\"trace\":{}}}",
                json_str(&rt.alg),
                json_str(&rt.graph),
                rt.id,
                rt.op,
                t0_us,
                trace,
            ));
        }
        rt
    }

    /// Records a named lifecycle event on `rt`.
    pub fn event(&self, rt: &ReqTrace, name: &'static str) {
        let t_us = self.now_us();
        lock(&rt.events).push((name, t_us));
        if lock(&self.log).is_some() {
            self.log_line(&format!(
                "{{\"event\":\"{name}\",\"id\":{},\"op\":\"{}\",\"t_us\":{t_us},\"trace\":{}}}",
                rt.id, rt.op, rt.trace,
            ));
        }
    }

    /// Logs a connection lifecycle event (`conn_accepted`,
    /// `conn_closed`, `readable`) from a shard event loop. `conn` is the
    /// server-wide connection id, `shard` the owning event loop, and `n`
    /// the bytes involved (read bytes for `readable`, 0 otherwise).
    /// These events go to the access log only — they have no request
    /// trace and never touch the ring or responses.
    pub fn conn_event(&self, event: &'static str, shard: usize, conn: u64, n: u64) {
        if lock(&self.log).is_none() {
            return;
        }
        let t_us = self.now_us();
        self.log_line(&format!(
            "{{\"conn\":{conn},\"event\":\"{event}\",\"n\":{n},\"shard\":{shard},\"t_us\":{t_us}}}"
        ));
    }

    /// Records a `shed` event with a reason and completes the trace
    /// with outcome `shed`. Used for validation failures, overload, and
    /// drain rejections — requests that never reached a solve.
    pub fn shed(&self, rt: &ReqTrace, reason: &str) {
        let t_us = self.now_us();
        lock(&rt.events).push(("shed", t_us));
        if lock(&self.log).is_some() {
            self.log_line(&format!(
                "{{\"event\":\"shed\",\"id\":{},\"op\":\"{}\",\"reason\":{},\"t_us\":{t_us},\"trace\":{}}}",
                rt.id,
                rt.op,
                json_str(reason),
                rt.trace,
            ));
        }
        self.finish(rt, "shed", SolveSpan::default());
    }

    /// Completes a trace: emits the `written` event with phase
    /// durations, pushes a [`TraceRecord`] into the ring, observes the
    /// per-op latency histogram, and dumps the full lifecycle if the
    /// request was slower than the slow threshold. `span` is the solve
    /// that served the request; only its overlap with the request's own
    /// lifetime counts as this request's solve and render time.
    pub fn finish(&self, rt: &ReqTrace, outcome: &'static str, span: SolveSpan) {
        let t_us = self.now_us();
        let total_us = t_us.saturating_sub(rt.t0_us);
        let within = |from: u64, to: u64| to.min(t_us).saturating_sub(from.max(rt.t0_us));
        let solve_us = within(span.solve_start, span.render_start);
        let render_us = within(span.render_start, span.render_end);
        // Two adjacent intervals clipped to [t0, t] cover at most t - t0.
        let queue_us = total_us - solve_us - render_us;
        lock(&rt.events).push(("written", t_us));
        if lock(&self.log).is_some() {
            self.log_line(&format!(
                "{{\"event\":\"written\",\"id\":{},\"op\":\"{}\",\"outcome\":\"{outcome}\",\"queue_us\":{queue_us},\"render_us\":{render_us},\"solve_us\":{solve_us},\"t_us\":{t_us},\"total_us\":{total_us},\"trace\":{}}}",
                rt.id, rt.op, rt.trace,
            ));
        }
        domatic_telemetry::global().observe_labeled(
            "server.request_latency_us",
            &[("op", rt.op)],
            total_us,
        );
        let record = TraceRecord {
            trace: rt.trace,
            id: rt.id,
            op: rt.op,
            graph: rt.graph.clone(),
            alg: rt.alg.clone(),
            outcome,
            t0_us: rt.t0_us,
            total_us,
            queue_us,
            solve_us,
            render_us,
        };
        if self.ring_cap > 0 {
            let mut ring = lock(&self.ring);
            if ring.len() == self.ring_cap {
                ring.pop_front();
            }
            ring.push_back(record);
        }
        if self.slow_us.is_some_and(|limit| total_us >= limit) {
            self.dump_slow(rt, outcome, total_us);
        }
    }

    /// Writes a one-line lifecycle dump for a slow request — to the
    /// access log when attached, else to stderr so outliers are never
    /// silently dropped.
    fn dump_slow(&self, rt: &ReqTrace, outcome: &str, total_us: u64) {
        let mut events_json = String::from("[");
        for (i, (name, t)) in lock(&rt.events).iter().enumerate() {
            if i > 0 {
                events_json.push(',');
            }
            let _ = write!(events_json, "[\"{name}\",{t}]");
        }
        events_json.push(']');
        let line = format!(
            "{{\"alg\":{},\"event\":\"slow_request\",\"events\":{events_json},\"graph\":{},\"id\":{},\"op\":\"{}\",\"outcome\":\"{outcome}\",\"total_us\":{total_us},\"trace\":{}}}",
            json_str(&rt.alg),
            json_str(&rt.graph),
            rt.id,
            rt.op,
            rt.trace,
        );
        if lock(&self.log).is_some() {
            self.log_line(&line);
        } else {
            eprintln!("{line}");
        }
    }

    /// A copy of the completed-request ring, oldest first.
    pub fn ring_snapshot(&self) -> Vec<TraceRecord> {
        lock(&self.ring).iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    /// A Write that appends into a shared Vec<u8> (test sink).
    #[derive(Clone, Default)]
    struct Shared(StdArc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Busy-waits until the tracer clock reads at least `t_us`.
    fn spin_until(tracer: &Tracer, t_us: u64) {
        while tracer.now_us() < t_us {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn events_are_logged_as_json_lines_with_monotone_timestamps() {
        let tracer = Tracer::new(8, None);
        let buf = Shared::default();
        tracer.set_log(Box::new(buf.clone()));
        let rt = tracer.begin(7, "solve", "ring", "greedy");
        tracer.event(&rt, "admitted");
        tracer.event(&rt, "cache_miss");
        // A 120 µs solve and a 30 µs render, both inside the request.
        let span = SolveSpan {
            solve_start: rt.t0_us,
            render_start: rt.t0_us + 120,
            render_end: rt.t0_us + 150,
        };
        spin_until(&tracer, span.render_end);
        tracer.finish(&rt, "ok", span);
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        let mut last_t = 0u64;
        for line in &lines {
            let v = domatic_telemetry::json::parse(line).expect("valid JSON");
            let t = v.get("t_us").and_then(|t| t.as_int()).unwrap() as u64;
            assert!(t >= last_t, "timestamps regress in {text}");
            last_t = t;
            assert_eq!(v.get("trace").and_then(|t| t.as_int()), Some(1));
        }
        assert!(lines[0].contains("\"event\":\"received\""));
        assert!(lines[3].contains("\"event\":\"written\""));
        assert!(lines[3].contains("\"solve_us\":120"));
    }

    #[test]
    fn a_joiner_is_charged_only_the_solve_it_waited_for() {
        let tracer = Tracer::new(4, None);
        let leader = tracer.begin(1, "solve", "g", "greedy");
        spin_until(&tracer, leader.t0_us + 100);
        let joiner = tracer.begin(2, "solve", "g", "greedy");
        // The solve began with the leader and ends 50 µs after the
        // joiner arrived; rendering takes 10 µs more.
        let span = SolveSpan {
            solve_start: leader.t0_us,
            render_start: joiner.t0_us + 50,
            render_end: joiner.t0_us + 60,
        };
        spin_until(&tracer, span.render_end);
        tracer.finish(&leader, "ok", span);
        tracer.finish(&joiner, "ok", span);
        let ring = tracer.ring_snapshot();
        assert_eq!(ring[0].solve_us, span.render_start - leader.t0_us);
        assert_eq!((ring[1].solve_us, ring[1].render_us), (50, 10));
        for rec in &ring {
            assert_eq!(
                rec.queue_us + rec.solve_us + rec.render_us,
                rec.total_us,
                "{rec:?}"
            );
        }
    }

    #[test]
    fn ring_is_bounded_and_oldest_first() {
        let tracer = Tracer::new(2, None);
        for i in 0..5u64 {
            let rt = tracer.begin(i, "bounds", "g", "");
            tracer.finish(&rt, "ok", SolveSpan::default());
        }
        let ring = tracer.ring_snapshot();
        assert_eq!(ring.len(), 2);
        assert_eq!((ring[0].trace, ring[1].trace), (4, 5));
        assert!(ring[0].trace < ring[1].trace);
        domatic_telemetry::json::parse(&ring[0].render_json()).expect("record renders valid JSON");
    }

    #[test]
    fn shed_records_outcome_without_a_log_sink() {
        let tracer = Tracer::new(4, None);
        let rt = tracer.begin(1, "solve", "nope", "greedy");
        tracer.shed(&rt, "unknown_graph");
        let ring = tracer.ring_snapshot();
        assert_eq!(ring.len(), 1);
        assert_eq!(ring[0].outcome, "shed");
    }

    #[test]
    fn slow_dump_goes_to_the_log_when_attached() {
        let tracer = Tracer::new(4, Some(0)); // everything is "slow"
        let buf = Shared::default();
        tracer.set_log(Box::new(buf.clone()));
        let rt = tracer.begin(9, "adapt", "ring", "ft");
        tracer.finish(&rt, "ok", SolveSpan::default());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let slow: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"slow_request\""))
            .collect();
        assert_eq!(slow.len(), 1, "{text}");
        let v = domatic_telemetry::json::parse(slow[0]).unwrap();
        assert!(v.get("events").is_some());
    }
}
