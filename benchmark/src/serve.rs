//! `serve-hot` and `serve-solve`, and what every serve workload shares:
//! response bookkeeping, the checks run on recorded responses between
//! measured slices, and the join of client samples with the server's
//! `profile` ring by request id.

use crate::check::{check_reply, split_ok, Ask};
use crate::client::{Client, Response, Rng};
use crate::fixture::{load, ring, Fixture, STRUCTURE_SEED};
use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::{domination_counters, put_counter_deltas, solve_names, stats, timed_setup, Ctx};
use domatic_core::hash::CanonicalHasher;
use domatic_graph::generators::gnp::gnp_with_avg_degree;
use domatic_graph::Graph;
use domatic_schedule::Batteries;
use domatic_server::{parse_request, ServerStatsSnapshot};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Request ids at and above this are control ops (`profile`), outside
/// every phase's id range.
const CONTROL_ID: u64 = 1 << 60;

/// Request lines kept per traced phase for timing `parse_request`.
const PARSE_SAMPLE: usize = 4096;

/// How long a phase's backlog may take to drain after its last send.
const DRAIN: Duration = Duration::from_secs(10);

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Request ids whose answers a phase remembers in order, for its
/// prefix digest.
const PREFIX: usize = 256;

/// Client samples a traced phase keeps for the join with the server's
/// trace ring: the most recent ones, as many as the ring holds.
const JOIN_SAMPLES: usize = 1 << 17;

/// Settled questions a phase remembers; past this, the ones with no
/// request in flight are forgotten, so the client's memory does not
/// grow with the server's speed.
const KEEP_ASKS: usize = 4096;

fn digest(text: &str) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_str(text);
    h.finish()
}

/// What a phase knows about the answer to one question.
#[derive(Default)]
struct Entry {
    /// The first answer, until it is checked.
    unchecked: Option<String>,
    /// Digest of the first answer and whether it failed its check.
    settled: Option<(u64, bool)>,
    /// Responses that carried the answer.
    count: u64,
    /// Requests for it not yet answered.
    inflight: u32,
}

/// One phase's requests and responses. Responses to the same question
/// must be byte-identical. Each distinct answer is checked once, by
/// [`Tally::settle`] between measured slices, and its verdict applies
/// to every response carrying it. Memory is bounded: answers are kept
/// only until checked, and settled questions beyond `KEEP_ASKS` are
/// forgotten.
pub struct Tally {
    origin: Instant,
    base: u64,
    sent: u64,
    traced: bool,
    asks: HashMap<Ask, Entry>,
    /// The question of every request not yet answered.
    inflight: HashMap<u64, Ask>,
    /// Answer digests of the phase's first `PREFIX` requests.
    first: Vec<Option<u64>>,
    /// Summed `(lifetime, bound)` over checked solve answers.
    sums: (u64, u64),
    /// `(id, sent, received)` of the latest responses, traced phases
    /// only.
    pub samples: VecDeque<(u64, Instant, Instant)>,
    /// The first request lines sent, traced phases only.
    pub lines: Vec<String>,
}

impl Tally {
    /// A phase starting now whose first request id is `base`.
    pub fn new(base: u64, traced: bool) -> Tally {
        Tally {
            origin: Instant::now(),
            base,
            sent: 0,
            traced,
            asks: HashMap::new(),
            inflight: HashMap::new(),
            first: Vec::new(),
            sums: (0, 0),
            samples: VecDeque::new(),
            lines: Vec::new(),
        }
    }

    /// When the phase started.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Requests sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The id the next request gets.
    pub fn next_id(&self) -> u64 {
        self.base + self.sent
    }

    /// Queues `ask` on `conn`, due at `sched`; returns its request id.
    pub fn send(&mut self, client: &mut Client, conn: usize, ask: &Ask, sched: Instant) -> u64 {
        let id = self.next_id();
        self.sent += 1;
        self.asks.entry(ask.clone()).or_default().inflight += 1;
        self.inflight.insert(id, ask.clone());
        let line = ask.line(id);
        client.queue(conn, id, &line, sched);
        if self.traced && self.lines.len() < PARSE_SAMPLE {
            self.lines.push(line);
        }
        id
    }

    /// Records a response. An error response, a mismatched id or an
    /// answer that differs from an earlier answer to the same question
    /// counts as failed.
    pub fn receive(&mut self, r: &Response, out: &mut Outcome) {
        if self.traced {
            if self.samples.len() == JOIN_SAMPLES {
                self.samples.pop_front();
            }
            self.samples.push_back((r.seq, r.sent, r.recv));
        }
        let Some(ask) = self.inflight.remove(&r.seq) else {
            return out.fail(format!("response to unknown request {}", r.seq));
        };
        let entry = self.asks.get_mut(&ask).expect("asks in flight are kept");
        entry.inflight -= 1;
        let payload = match split_ok(&r.line) {
            Ok((id, _)) if id != r.seq => {
                return out.fail(format!("response id {id} answers request {}", r.seq))
            }
            Ok((_, p)) => p,
            Err(e) => return out.fail(e),
        };
        let h = digest(payload);
        if let Some(slot) = r.seq.checked_sub(self.base).filter(|&i| i < PREFIX as u64) {
            let slot = slot as usize;
            if self.first.len() <= slot {
                self.first.resize(slot + 1, None);
            }
            self.first[slot] = Some(h);
        }
        entry.count += 1;
        let same = match (&entry.settled, &entry.unchecked) {
            (Some((first, bad)), _) => {
                if *bad {
                    out.failed += 1;
                }
                *first == h
            }
            (None, Some(first)) => first == payload,
            (None, None) => {
                entry.unchecked = Some(payload.to_string());
                true
            }
        };
        if !same {
            out.fail(format!("two different answers to {ask:?}"));
        }
    }

    /// Checks every answer received since the last call against the
    /// benchmark's copy of its graph, then forgets settled questions
    /// beyond `KEEP_ASKS`.
    pub fn settle(
        &mut self,
        graphs: &[(&'static str, Graph)],
        out: &mut Outcome,
        spans: &mut Spans,
    ) {
        for (ask, entry) in self.asks.iter_mut() {
            let Some(payload) = entry.unchecked.take() else {
                continue;
            };
            let verdict = match graphs.iter().find(|(n, _)| *n == ask.graph()) {
                Some((_, g)) => check_reply(ask, &payload, g, &Batteries::uniform(g.n(), ask.b())),
                None => Err("names an unknown graph".to_string()),
            };
            let bad = match verdict {
                Ok(c) => {
                    record_check(spans, &c);
                    if c.schedule {
                        self.sums.0 += c.lifetime;
                        self.sums.1 += c.bound;
                    }
                    false
                }
                Err(e) => {
                    out.fail(format!("{ask:?}: {e}"));
                    out.failed += entry.count - 1;
                    true
                }
            };
            entry.settled = Some((digest(&payload), bad));
        }
        if self.asks.len() > KEEP_ASKS {
            self.asks.retain(|_, e| e.inflight > 0);
        }
    }

    /// Summed `(lifetime, bound)` over the checked solve answers.
    pub fn sums(&self) -> (u64, u64) {
        self.sums
    }

    /// Digest of the first `k` answers (at most `PREFIX`) in request
    /// order; `None` when fewer were answered.
    pub fn prefix_digest(&self, k: usize) -> Option<String> {
        let k = k.min(PREFIX);
        if self.first.len() < k {
            return None;
        }
        let mut h = CanonicalHasher::new();
        for d in &self.first[..k] {
            h.write_u64((*d)?);
        }
        Some(format!("{:016x}", h.finish()))
    }

    /// Digest of the set of distinct answers (for phases that ask a
    /// fixed handful of questions).
    pub fn set_digest(&self) -> String {
        let mut answers: Vec<u64> = self
            .asks
            .values()
            .filter_map(|e| e.settled.map(|(d, _)| d))
            .collect();
        answers.sort_unstable();
        let mut h = CanonicalHasher::new();
        for d in answers {
            h.write_u64(d);
        }
        format!("{:016x}", h.finish())
    }
}

/// Records the validate and bound calls a check made as spans. They ran
/// back to back just before now, so they are laid out ending now.
pub(crate) fn record_check(spans: &mut Spans, c: &crate::check::Checked) {
    let end = Instant::now();
    let mid = end - c.bound_time;
    if c.schedule {
        spans.add("schedule.validate", None, 0, mid - c.validate, mid);
    }
    spans.add("core.bound", None, 0, mid, end);
}

/// One completed request as the server's `profile` ring records it.
#[derive(Clone, Debug)]
pub struct Rec {
    /// Client request id.
    pub id: u64,
    /// `solve`, `bounds` or `mutate`.
    pub op: String,
    /// Solver name.
    pub alg: String,
    /// Graph name.
    pub graph: String,
    /// Received → written, µs.
    pub total: u64,
    /// Time outside solve and render, µs.
    pub queue: u64,
    /// Solver time of the batch that served it, µs (0 for a hit).
    pub solve: u64,
    /// Render time of that batch, µs.
    pub render: u64,
}

fn num_field(obj: &str, key: &str) -> Option<u64> {
    let at = obj.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits = obj[at..].bytes().take_while(u8::is_ascii_digit).count();
    obj[at..at + digits].parse().ok()
}

pub(crate) fn str_field(obj: &str, key: &str) -> String {
    obj.find(&format!("\"{key}\":\""))
        .map(|at| {
            let s = &obj[at + key.len() + 4..];
            s[..s.find('"').unwrap_or(s.len())].to_string()
        })
        .unwrap_or_default()
}

/// Parses the ring of a `profile` result. Records are flat objects with
/// a fixed field order and no nested braces; graph and solver names
/// here never contain quotes or braces.
pub fn parse_ring(payload: &str) -> Vec<Rec> {
    let Some(start) = payload.find("\"ring\":[") else {
        return Vec::new();
    };
    let end = payload.find("],\"spans\"").unwrap_or(payload.len());
    payload[start + 8..end]
        .split("},{")
        .filter_map(|obj| {
            Some(Rec {
                id: num_field(obj, "id")?,
                op: str_field(obj, "op"),
                alg: str_field(obj, "alg"),
                graph: str_field(obj, "graph"),
                total: num_field(obj, "total_us")?,
                queue: num_field(obj, "queue_us")?,
                solve: num_field(obj, "solve_us")?,
                render: num_field(obj, "render_us")?,
            })
        })
        .collect()
}

/// Fetches the server's trace ring over `client`.
pub fn profile(client: &mut Client) -> Result<Vec<Rec>, String> {
    let r = client
        .rpc(
            0,
            CONTROL_ID,
            &format!("{{\"id\":{CONTROL_ID},\"op\":\"profile\"}}"),
        )
        .map_err(err)?;
    let (_, payload) = split_ok(&r.line)?;
    Ok(parse_ring(payload))
}

/// Joins the client's `(id, sent, received)` samples with the server's
/// ring records by request id and records the server-side phase metrics
/// and their spans.
pub fn attribute<'a>(
    out: &mut Outcome,
    spans: &mut Spans,
    samples: impl Iterator<Item = &'a (u64, Instant, Instant)>,
    recs: &[Rec],
) {
    let by_id: HashMap<u64, &Rec> = recs.iter().map(|r| (r.id, r)).collect();
    let mut total = Vec::new();
    let mut queue = Vec::new();
    let mut solve = Vec::new();
    let mut render = Vec::new();
    let mut transport = Vec::new();
    for &(id, sent, recv) in samples {
        let Some(rec) = by_id.get(&id) else { continue };
        let rtt_ns = (recv - sent).as_nanos() as u64;
        let gap = rtt_ns.saturating_sub(rec.total * 1000);
        request_spans(spans, id, sent, recv, gap, rec);
        total.push(rec.total as f64);
        queue.push(rec.queue as f64);
        transport.push(gap as f64 / 1e3);
        if rec.solve + rec.render > 0 {
            solve.push(rec.solve as f64);
            render.push(rec.render as f64);
        }
    }
    for (name, v) in [
        ("server.total_us", &total),
        ("server.queue_us", &queue),
        ("server.solve_us", &solve),
        ("server.render_us", &render),
        ("server.transport_us", &transport),
    ] {
        out.put_quantile(&format!("{name}.p50"), v, 0.5);
        out.put_quantile(&format!("{name}.p99"), v, 0.99);
    }
    let mutate: Vec<f64> = recs
        .iter()
        .filter(|r| r.op == "mutate")
        .map(|r| r.total as f64)
        .collect();
    out.put_quantile("server.mutate_us.p50", &mutate, 0.5);
    out.put_quantile("server.mutate_us.p99", &mutate, 0.99);
    for alg in ["greedy", "uniform", "general", "ft", "tabu", "sa"] {
        let (_, metric) = solve_names(alg).expect("known solver");
        let ms: Vec<f64> = recs
            .iter()
            .filter(|r| r.op == "solve" && r.alg == alg && r.solve > 0)
            .map(|r| r.solve as f64 / 1e3)
            .collect();
        out.put_quantile(metric, &ms, 0.5);
    }
}

/// Records a request's span and, inside it, the server's phases. The
/// server reports durations only, on its own clock, so its spans are
/// centred in the client's round trip: the round trip's self time is
/// then exactly the transport time, client latency minus server total.
fn request_spans(spans: &mut Spans, id: u64, sent: Instant, recv: Instant, gap_ns: u64, rec: &Rec) {
    let root = spans.add("client.request", None, id, sent, recv);
    let us = Duration::from_micros;
    let start = sent + Duration::from_nanos(gap_ns / 2);
    let server = spans.add("server.total", root, id, start, start + us(rec.total));
    let mut t = start;
    for (name, d) in [
        ("server.queue", rec.queue),
        ("server.solve", rec.solve),
        ("server.render", rec.render),
    ] {
        if d > 0 {
            spans.add(name, server, id, t, t + us(d));
            t += us(d);
        }
    }
}

/// Times `parse_request` on the phase's own request lines.
pub fn time_parse(out: &mut Outcome, spans: &mut Spans, lines: &[String]) {
    let mut ns = Vec::new();
    for line in lines {
        let t = Instant::now();
        let parsed = parse_request(std::hint::black_box(line));
        let end = Instant::now();
        std::hint::black_box(parsed.is_ok());
        spans.add("server.protocol.parse", None, 0, t, end);
        ns.push((end - t).as_nanos() as f64);
    }
    out.put_quantile("server.protocol.parse_ns", &ns, 0.5);
}

/// Records the `stats` counter deltas over the measured phase.
pub fn put_stats_deltas(
    out: &mut Outcome,
    before: &ServerStatsSnapshot,
    after: &ServerStatsSnapshot,
) {
    let d = |f: fn(&ServerStatsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let cacheable = d(|s| s.cache_hits) + d(|s| s.cache_misses) + d(|s| s.batch_joined);
    let ratio = |x: f64, base: f64| if base > 0.0 { x / base } else { 0.0 };
    out.put(
        "server.cache.hit_ratio",
        ratio(d(|s| s.cache_hits), cacheable),
        cacheable as usize,
    );
    out.put(
        "server.batch.join_ratio",
        ratio(d(|s| s.batch_joined), cacheable),
        cacheable as usize,
    );
    out.put("server.cache.evictions", d(|s| s.cache_evictions), 1);
    let requests = d(|s| s.requests);
    out.put(
        "server.shed_ratio",
        ratio(d(|s| s.overloads), requests),
        requests as usize,
    );
    out.put(
        "server.cache.lineage_invalidations",
        d(|s| s.lineage_invalidations),
        1,
    );
    out.put("core.repairs", d(|s| s.repairs), 1);
    out.put("core.repair_fallbacks", d(|s| s.repair_fallbacks), 1);
}

/// Records the checks' per-layer results: lifetime ratio, valid share,
/// validate and bound call times.
pub fn put_check_metrics(out: &mut Outcome, spans: &Spans, lifetime: u64, bound: u64) {
    out.put(
        "core.lifetime_ratio",
        lifetime as f64 / bound.max(1) as f64,
        1,
    );
    let ok = out.attempted.saturating_sub(out.failed);
    out.put(
        "schedule.valid_ratio",
        ok as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    if spans.on() {
        out.put_quantile(
            "schedule.validate_us",
            &spans.durations_us("schedule.validate"),
            0.5,
        );
        out.put_quantile("core.bound_us", &spans.durations_us("core.bound"), 0.5);
        out.put_quantile("graph.parse_us", &spans.durations_us("graph.parse"), 0.5);
    }
}

/// Loads `graphs` into a fresh server and connects a two-connection
/// client to it.
pub fn start(
    ctx: &Ctx,
    graphs: &[(&'static str, Graph)],
    cache_bytes: Option<usize>,
    spans: &mut Spans,
) -> Result<(Fixture, Client), String> {
    let mut loaded = Vec::new();
    for (name, g) in graphs {
        loaded.push((name.to_string(), load(g, spans)?));
    }
    let fx = Fixture::start(loaded, ctx.server_config(cache_bytes)).map_err(err)?;
    let client = Client::connect(fx.addr(), 2).map_err(err)?;
    Ok((fx, client))
}

/// Stops a fixture and its client.
pub fn stop((fx, client): (Fixture, Client)) -> Result<(), String> {
    drop(client);
    fx.stop().map_err(err)
}

/// Sends `asks` one at a time and requires each to succeed: the warm-up
/// that fills caches before a phase.
pub fn warm(
    client: &mut Client,
    id: &mut u64,
    asks: impl IntoIterator<Item = Ask>,
) -> Result<(), String> {
    for ask in asks {
        let r = client.rpc(0, *id, &ask.line(*id)).map_err(err)?;
        split_ok(&r.line)?;
        *id += 1;
    }
    Ok(())
}

/// How one slice of a serve phase drives the server.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// An open loop: one arrival every `1/rate` s, round-robin over both
    /// connections, each request timed from its due time whatever the
    /// state of earlier ones.
    Open(f64),
    /// A closed loop with this many requests in flight per connection,
    /// each timed from its send.
    Closed(usize),
}

/// What a serve phase measured.
pub struct Measured {
    /// Latencies of the latency slices, µs.
    pub lat: stats::Latencies,
    /// Open-loop generator lag behind schedule, µs.
    pub lag: stats::Latencies,
    /// Completion rate of each capacity slice, requests/s.
    pub rates: Vec<f64>,
}

/// Length of one slice, s: a hundred open-loop arrivals at 200/s, one
/// deck of the serve-solve mix.
const SLICE_S: f64 = 0.5;

/// Runs a serve phase of `secs` seconds in slices. With a `capacity`
/// load, slices alternate: even ones under `latency` load give the
/// latency samples, odd ones under `capacity` load the completion
/// rates. Interleaving makes both metrics sample the whole phase, so a
/// stretch in which the machine runs slow weighs on each the same way.
/// Without one, every slice runs the `latency` load and gives both.
/// `next(timed)` returns the requests of the next arrival in a latency
/// (`true`) or capacity slice. Each slice drains before the next
/// starts, and the answers it received are checked before then too.
pub fn run_slices(
    client: &mut Client,
    tally: &mut Tally,
    out: &mut Outcome,
    secs: f64,
    (latency, capacity): (Load, Option<Load>),
    next: &mut dyn FnMut(bool) -> Vec<Ask>,
    (graphs, spans): (&[(&'static str, Graph)], &mut Spans),
) -> Result<Measured, String> {
    let mut m = Measured {
        lat: stats::Latencies::default(),
        lag: stats::Latencies::default(),
        rates: Vec::new(),
    };
    let slices = ((secs / SLICE_S).floor() as usize).max(2);
    let mut got = Vec::new();
    for i in 0..slices {
        let (timed, counted) = match capacity {
            Some(_) => (i % 2 == 0, i % 2 == 1),
            None => (true, true),
        };
        let load = if timed {
            latency
        } else {
            capacity.unwrap_or(latency)
        };
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(SLICE_S);
        let mut done = 0u64;
        let mut record = |got: &mut Vec<Response>, tally: &mut Tally, out: &mut Outcome| {
            for r in got.drain(..) {
                tally.receive(&r, out);
                done += u64::from(r.recv < end);
                if timed {
                    let us = match load {
                        Load::Open(_) => r.latency_us(),
                        Load::Closed(_) => r.rtt_us(),
                    };
                    m.lat.record(us);
                    m.lag.record((r.sent - r.sched).as_secs_f64() * 1e6);
                }
            }
        };
        match load {
            Load::Open(rate) => {
                let (mut arrival, mut rr) = (0u64, 0usize);
                let mut due = start;
                let mut batch = next(timed);
                while due < end {
                    if due <= Instant::now() {
                        for ask in &batch {
                            tally.send(client, rr % 2, ask, due);
                            rr += 1;
                        }
                        arrival += 1;
                        due = start + Duration::from_secs_f64(arrival as f64 / rate);
                        batch = next(timed);
                        continue;
                    }
                    client.flush().map_err(err)?;
                    client.poll(due, &mut got).map_err(err)?;
                    record(&mut got, tally, out);
                }
            }
            Load::Closed(depth) => {
                let mut refill = |client: &mut Client, tally: &mut Tally, conn: usize| {
                    while client.in_flight(conn) < depth {
                        for ask in next(timed) {
                            tally.send(client, conn, &ask, Instant::now());
                        }
                    }
                };
                refill(client, tally, 0);
                refill(client, tally, 1);
                while Instant::now() < end {
                    client.flush().map_err(err)?;
                    client
                        .poll(
                            end.min(Instant::now() + Duration::from_millis(50)),
                            &mut got,
                        )
                        .map_err(err)?;
                    let conns: Vec<usize> = got.iter().map(|r| r.conn).collect();
                    record(&mut got, tally, out);
                    if Instant::now() < end {
                        for c in conns {
                            refill(client, tally, c);
                        }
                    }
                }
            }
        }
        client.flush().map_err(err)?;
        client.drain(DRAIN, &mut got).map_err(err)?;
        record(&mut got, tally, out);
        if counted {
            m.rates.push(done as f64 / SLICE_S);
        }
        tally.settle(graphs, out, spans);
    }
    Ok(m)
}

/// Records what both serve workloads report: latency from the latency
/// slices, capacity from the capacity slices, checks, counter deltas
/// and, when traced, the server-side attribution.
pub fn report(
    ctx: &Ctx,
    out: &mut Outcome,
    spans: &mut Spans,
    tally: &Tally,
    m: &Measured,
    (before, after): (&ServerStatsSnapshot, &ServerStatsSnapshot),
    client: &mut Client,
) -> Result<(), String> {
    out.attempted = tally.sent();
    out.put("throughput_per_s", stats::median(&m.rates), m.rates.len());
    out.put_latency("p50_us", &m.lat, 0.5);
    out.put_latency("p90_us", &m.lat, 0.9);
    let (lifetime, bound) = tally.sums();
    put_check_metrics(out, spans, lifetime, bound);
    put_stats_deltas(out, before, after);
    if ctx.traced {
        let recs = profile(client)?;
        attribute(out, spans, tally.samples.iter(), &recs);
        time_parse(out, spans, &tally.lines);
        crate::finish_trace(spans, out)?;
    }
    Ok(())
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, in ascending order.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let r = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if r != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread it starts from now
/// on, to `cpu`; whether that took effect.
fn pin_to(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `serve-hot`: the serving tier's CI graphs and its synthetic
/// seven-key mix, two connections. After the warm-up every request is a
/// cache hit, so time goes to framing, `parse_request`, the cache
/// lookup, telemetry, rendering and the socket, never the solver.
///
/// A closed loop keeps one request in flight per connection, so each
/// latency is one whole round trip. The server's threads run on one
/// core and the client on another, as on two machines. Left to the
/// scheduler, or with eight requests in flight per connection, the
/// throughput of a run flips between two modes some 40% apart on a
/// shared two-core virtual machine; placed apart and unpipelined, it
/// holds within about 10%. Each slice gives both its latencies and its
/// rate.
pub fn serve_hot(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("serve-hot", ctx.traced);
    let mut spans = Spans::new(ctx.traced);
    // Threads the server starts in set-up inherit the first pin; the
    // client thread then moves to its own core.
    let cpus = allowed_cpus();
    let apart = cpus.len() >= 2 && pin_to(cpus[1]);
    let graphs = vec![("ring", ring(24)), ("gnp", gnp_with_avg_degree(40, 6.0, 1))];
    let base_seed = Rng::new(ctx.seed, 10).below(1 << 20);
    // The bench-serve synthetic mix: bounds on every 4th request, else
    // greedy or uniform with the seed cycling mod 3 — seven keys.
    let mix = |i: u64| {
        let graph = graphs[(i % 2) as usize].0;
        if i.is_multiple_of(4) {
            Ask::Bounds { graph, b: 3 }
        } else {
            Ask::Solve {
                graph,
                alg: if i.is_multiple_of(2) {
                    "greedy"
                } else {
                    "uniform"
                },
                b: 3,
                seed: base_seed + i % 3,
            }
        }
    };
    let mut id = 1u64;
    let (fx, mut client) = timed_setup(
        ctx,
        &mut out,
        || {
            let (fx, mut client) = start(ctx, &graphs, None, &mut spans)?;
            warm(&mut client, &mut id, (0..12).map(mix))?;
            Ok((fx, client))
        },
        stop,
    )?;
    if apart && !pin_to(cpus[0]) {
        return Err("cannot move the client to its own core".into());
    }

    let before = fx.server().stats();
    let counters = domination_counters();
    let mut i = 12u64;
    let mut next = |_| {
        i += 1;
        vec![mix(i)]
    };
    let mut tally = Tally::new(id, ctx.traced);
    let loads = (Load::Closed(1), None);
    let checks = (graphs.as_slice(), &mut spans);
    let m = run_slices(
        &mut client,
        &mut tally,
        &mut out,
        ctx.seconds,
        loads,
        &mut next,
        checks,
    )?;
    let after = fx.server().stats();
    put_counter_deltas(&mut out, counters);
    out.digest = Some(tally.set_digest());
    report(
        ctx,
        &mut out,
        &mut spans,
        &tally,
        &m,
        (&before, &after),
        &mut client,
    )?;
    stop((fx, client))?;
    Ok(out)
}

/// The `serve-solve` request generator: independent users asking new
/// questions. Arrivals come in shuffled decks of 100, one half-second
/// slice at 200 arrivals/s, so every slice asks the same mix: 72 fresh
/// keys (greedy, general or uniform at a fresh seed, bounds at a fresh
/// battery level; 16 greedy on the 400-node graph, 8 of each other kind
/// on each graph, so the slowest kind straddles the 90th percentile
/// rather than ending just under it),
/// 20 re-asks of a key sent at least `LAG` arrivals earlier (a cache hit
/// unless evicted) and 8 bursts of three identical fresh requests (the
/// second and third join the first one's batch).
struct Mix {
    rng: Rng,
    recent: VecDeque<Ask>,
    next_b: u64,
    deck: Vec<Card>,
}

#[derive(Clone, Copy)]
enum Card {
    Fresh(usize),
    Burst(usize),
    ReAsk,
}

/// The fresh-key kinds: a solver (or bounds) on a graph.
const KINDS: [(&str, &str); 8] = [
    ("greedy", "g400"),
    ("general", "g400"),
    ("uniform", "g400"),
    ("bounds", "g400"),
    ("greedy", "g200"),
    ("general", "g200"),
    ("uniform", "g200"),
    ("bounds", "g200"),
];

impl Mix {
    const LAG: usize = 32;
    const KEEP: usize = 96;

    fn new(seed: u64, stream: u64) -> Mix {
        let mut rng = Rng::new(seed, stream);
        let next_b = 10 + rng.below(1 << 30);
        Mix {
            rng,
            recent: VecDeque::new(),
            next_b,
            deck: Vec::new(),
        }
    }

    fn fresh(&mut self, kind: usize) -> Ask {
        let (alg, graph) = KINDS[kind];
        let ask = if alg == "bounds" {
            self.next_b += 1;
            Ask::Bounds {
                graph,
                b: self.next_b,
            }
        } else {
            Ask::Solve {
                graph,
                alg,
                b: 3,
                seed: self.rng.next_u64() >> 16,
            }
        };
        self.recent.push_back(ask.clone());
        if self.recent.len() > Self::KEEP {
            self.recent.pop_front();
        }
        ask
    }

    fn next(&mut self) -> Vec<Ask> {
        if self.deck.is_empty() {
            for (k, &(alg, graph)) in KINDS.iter().enumerate() {
                let n = if (alg, graph) == ("greedy", "g400") {
                    16
                } else {
                    8
                };
                self.deck.extend(std::iter::repeat_n(Card::Fresh(k), n));
                self.deck.push(Card::Burst(k));
            }
            self.deck.extend([Card::ReAsk; 20]);
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        match self.deck.pop().expect("deck refilled above") {
            Card::ReAsk if self.recent.len() > Self::LAG => {
                let k = self.rng.below((self.recent.len() - Self::LAG) as u64) as usize;
                vec![self.recent[k].clone()]
            }
            Card::ReAsk => {
                let k = self.rng.below(KINDS.len() as u64) as usize;
                vec![self.fresh(k)]
            }
            Card::Fresh(k) => vec![self.fresh(k)],
            Card::Burst(k) => vec![self.fresh(k); 3],
        }
    }
}

/// `serve-solve`: cache misses on generated graphs with a 1 MiB cache
/// that stays full and evicting. Latency slices are an open loop at a
/// fixed 200 requests/s, round-robin over two pipelined connections,
/// timed from each request's scheduled send; capacity slices are a
/// closed loop with eight requests in flight per connection. Keys come
/// from the run's own key space, so no slice is served from the warm-up.
pub fn serve_solve(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("serve-solve", ctx.traced);
    let mut spans = Spans::new(ctx.traced);
    let mut shape = Rng::new(STRUCTURE_SEED, 20);
    let graphs = vec![
        ("g400", gnp_with_avg_degree(400, 24.0, shape.next_u64())),
        ("g200", gnp_with_avg_degree(200, 12.0, shape.next_u64())),
    ];
    let mut id = 1u64;
    let mut warm_mix = Mix::new(ctx.seed, 21);
    let (fx, mut client) = timed_setup(
        ctx,
        &mut out,
        || {
            let (fx, mut client) = start(ctx, &graphs, Some(1 << 20), &mut spans)?;
            let asks: Vec<Ask> = (0..16).flat_map(|_| warm_mix.next()).collect();
            warm(&mut client, &mut id, asks)?;
            Ok((fx, client))
        },
        stop,
    )?;
    let before = fx.server().stats();
    let counters = domination_counters();
    let (mut lat_mix, mut cap_mix) = (Mix::new(ctx.seed, 22), Mix::new(ctx.seed, 23));
    let mut tally = Tally::new(id, ctx.traced);
    let loads = (Load::Open(200.0), Some(Load::Closed(8)));
    // Each kind of slice draws from its own deck, so every latency
    // slice asks exactly one deck.
    let mut next = |timed| {
        if timed {
            lat_mix.next()
        } else {
            cap_mix.next()
        }
    };
    let checks = (graphs.as_slice(), &mut spans);
    let m = run_slices(
        &mut client,
        &mut tally,
        &mut out,
        ctx.seconds,
        loads,
        &mut next,
        checks,
    )?;
    let after = fx.server().stats();
    put_counter_deltas(&mut out, counters);
    out.digest = tally.prefix_digest(128);
    out.put_latency("bench.gen_lag_p99_us", &m.lag, 0.99);
    report(
        ctx,
        &mut out,
        &mut spans,
        &tally,
        &m,
        (&before, &after),
        &mut client,
    )?;
    stop((fx, client))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_parse_field_by_field() {
        let payload = "{\"ring\":[{\"alg\":\"greedy\",\"graph\":\"g400\",\"id\":7,\"op\":\"solve\",\"outcome\":\"ok\",\"queue_us\":2100,\"render_us\":30,\"solve_us\":1500,\"t0_us\":5,\"total_us\":3630,\"trace\":1},{\"alg\":\"\",\"graph\":\"churn\",\"id\":8,\"op\":\"mutate\",\"outcome\":\"ok\",\"queue_us\":40,\"render_us\":0,\"solve_us\":0,\"t0_us\":9,\"total_us\":40,\"trace\":2}],\"spans\":{}}";
        let recs = parse_ring(payload);
        assert_eq!(recs.len(), 2);
        assert_eq!(
            (recs[0].id, recs[0].op.as_str(), recs[0].alg.as_str()),
            (7, "solve", "greedy")
        );
        assert_eq!(
            (recs[0].total, recs[0].queue, recs[0].solve, recs[0].render),
            (3630, 2100, 1500, 30)
        );
        assert_eq!(
            (recs[1].graph.as_str(), recs[1].op.as_str(), recs[1].total),
            ("churn", "mutate", 40)
        );
        assert!(parse_ring("{\"ring\":[],\"spans\":{}}").is_empty());
    }

    #[test]
    fn the_serve_solve_mix_has_its_shares_in_every_deck() {
        let mut mix = Mix::new(1, 22);
        let mut seen = std::collections::HashSet::new();
        for deck in 0..10 {
            let (mut fresh, mut reask, mut burst) = (0, 0, 0);
            for _ in 0..100 {
                let asks = mix.next();
                if asks.len() == 3 {
                    burst += 1;
                    assert!(asks[0] == asks[1] && asks[1] == asks[2]);
                } else if seen.contains(&asks[0]) {
                    reask += 1;
                } else {
                    fresh += 1;
                }
                seen.extend(asks);
            }
            assert_eq!(burst, 8);
            if deck > 0 {
                assert_eq!((fresh, reask), (72, 20));
            }
        }
    }
}
