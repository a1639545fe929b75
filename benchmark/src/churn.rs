//! `churn`: writes next to reads on one server's cache and graph table.
//!
//! Connection A runs cycles against graph `churn`: one seeded mutation
//! that is never a no-op, a `solve` at a fixed seed (the previous
//! version solved the same key, so the server takes its incremental
//! repair path), a `solve` at a fresh seed (no hint: the control), and
//! `bounds` every fourth cycle. Mutations flap an edge, drain and
//! recharge a battery, and remove then re-add a node, so `n` stays put.
//! Every answer is checked against a client-side replica maintained
//! with `GraphDelta::apply`. Connection B reads `sibling`, a
//! never-mutated twin of `churn`'s first version, at a fixed rate.
//! Throughput counts connection A's requests.

use crate::check::{check_reply, split_ok, Ask};
use crate::client::{Response, Rng};
use crate::fixture::STRUCTURE_SEED;
use crate::metrics::Outcome;
use crate::serve::{self, err, record_check, Tally};
use crate::spans::Spans;
use crate::{domination_counters, put_counter_deltas, stats, timed_setup, Ctx};
use domatic_core::hash::{versioned_graph_hash, CanonicalHasher};
use domatic_core::incremental::GraphDelta;
use domatic_graph::generators::gnp::gnp_with_avg_degree;
use domatic_graph::Graph;
use domatic_schedule::Batteries;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Battery level of every request.
const B: u64 = 3;

/// Cycles whose answers make up the digest.
const DIGEST_CYCLES: u64 = 32;

/// Request ids of connection B start here, apart from A's.
const READ_IDS: u64 = 1 << 40;

/// Connection B's fixed read rate, requests/s.
const READ_RATE: f64 = 1000.0;

/// The client's copy of graph `churn`: topology plus pinned batteries.
#[derive(Clone)]
struct Replica {
    graph: Graph,
    overrides: BTreeMap<u32, u64>,
}

impl Replica {
    /// Uniform level `b` with the pinned levels on top, as the server
    /// overlays them.
    fn batteries(&self, b: u64) -> Batteries {
        let mut v = vec![b; self.graph.n()];
        for (&node, &value) in &self.overrides {
            if let Some(x) = v.get_mut(node as usize) {
                *x = value;
            }
        }
        Batteries::from_vec(v)
    }

    fn hash(&self) -> String {
        format!(
            "{:016x}",
            versioned_graph_hash(&self.graph, &self.overrides)
        )
    }

    fn apply(&self, delta: &GraphDelta) -> Result<Replica, String> {
        let graph = delta.apply(&self.graph).map_err(err)?;
        let overrides = match delta {
            GraphDelta::SetBattery { node, value } => {
                let mut o = self.overrides.clone();
                o.insert(*node, *value);
                o
            }
            GraphDelta::RemoveNode { node } => self
                .overrides
                .iter()
                .filter(|(&k, _)| k != *node)
                .map(|(&k, &v)| (if k > *node { k - 1 } else { k }, v))
                .collect(),
            _ => self.overrides.clone(),
        };
        Ok(Replica { graph, overrides })
    }
}

/// The seeded mutation sequence.
struct Churner {
    rng: Rng,
    k: u64,
    flap: (u32, u32),
    drained: u32,
    removed: Vec<u32>,
}

impl Churner {
    fn next(&mut self, rep: &Replica) -> GraphDelta {
        let n = rep.graph.n() as u64;
        let k = self.k;
        self.k += 1;
        match k % 6 {
            0 => loop {
                let u = self.rng.below(n) as u32;
                let nb = rep.graph.neighbors(u);
                if !nb.is_empty() {
                    let v = nb[self.rng.below(nb.len() as u64) as usize];
                    self.flap = (u, v);
                    return GraphDelta::RemoveEdge { u, v };
                }
            },
            1 => GraphDelta::AddEdge {
                u: self.flap.0,
                v: self.flap.1,
            },
            2 => loop {
                let node = self.rng.below(n) as u32;
                if rep.overrides.get(&node) != Some(&1) {
                    self.drained = node;
                    return GraphDelta::SetBattery { node, value: 1 };
                }
            },
            3 => GraphDelta::SetBattery {
                node: self.drained,
                value: B,
            },
            4 => {
                let node = self.rng.below(n) as u32;
                self.removed = rep
                    .graph
                    .neighbors(node)
                    .iter()
                    .map(|&w| if w > node { w - 1 } else { w })
                    .collect();
                GraphDelta::RemoveNode { node }
            }
            _ => GraphDelta::AddNode {
                neighbors: std::mem::take(&mut self.removed),
            },
        }
    }
}

fn mutate_line(id: u64, delta: &GraphDelta) -> String {
    let fields = match delta {
        GraphDelta::AddNode { neighbors } => {
            let list: Vec<String> = neighbors.iter().map(u32::to_string).collect();
            format!("\"neighbors\":[{}]", list.join(","))
        }
        GraphDelta::RemoveNode { node } => format!("\"node\":{node}"),
        GraphDelta::AddEdge { u, v } | GraphDelta::RemoveEdge { u, v } => {
            format!("\"u\":{u},\"v\":{v}")
        }
        GraphDelta::SetBattery { node, value } => format!("\"node\":{node},\"value\":{value}"),
    };
    format!(
        "{{\"id\":{id},\"op\":\"mutate\",\"graph\":\"churn\",\"action\":\"{}\",{fields}}}",
        delta.action()
    )
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Mutate,
    Hinted,
    Control,
    Bounds,
}

/// Connection A's sequential cycle.
struct Writer {
    churner: Churner,
    replica: Replica,
    next: Option<Replica>,
    ask: Option<Ask>,
    step: Step,
    cycle: u64,
    fixed_seed: u64,
    id: u64,
    digest: CanonicalHasher,
    /// Summed `(lifetime, bound)` over the checked solve answers.
    sums: (u64, u64),
}

impl Writer {
    /// The next request line of the cycle, with its id.
    fn request(&mut self, spans: &mut Spans) -> Result<(u64, String), String> {
        self.id += 1;
        let ask = match self.step {
            Step::Mutate => {
                let delta = self.churner.next(&self.replica);
                let t = Instant::now();
                self.next = Some(self.replica.apply(&delta)?);
                spans.add("graph.delta_apply", None, self.id, t, Instant::now());
                return Ok((self.id, mutate_line(self.id, &delta)));
            }
            Step::Hinted | Step::Control => Ask::Solve {
                graph: "churn",
                alg: "greedy",
                b: B,
                seed: if self.step == Step::Hinted {
                    self.fixed_seed
                } else {
                    self.churner.rng.next_u64() >> 16
                },
            },
            Step::Bounds => Ask::Bounds {
                graph: "churn",
                b: B,
            },
        };
        let line = ask.line(self.id);
        self.ask = Some(ask);
        Ok((self.id, line))
    }

    /// Checks a response against the replica and advances the cycle;
    /// returns the step it answered.
    fn response(&mut self, r: &Response, out: &mut Outcome, spans: &mut Spans) -> Step {
        let step = self.step;
        if let Err(e) = self.check(r, spans) {
            out.fail(format!("cycle {} {step:?}: {e}", self.cycle));
        }
        self.step = match step {
            Step::Mutate => Step::Hinted,
            Step::Hinted => Step::Control,
            Step::Control if self.cycle.is_multiple_of(4) => Step::Bounds,
            Step::Control | Step::Bounds => {
                self.cycle += 1;
                Step::Mutate
            }
        };
        step
    }

    fn check(&mut self, r: &Response, spans: &mut Spans) -> Result<(), String> {
        let (id, payload) = split_ok(&r.line)?;
        if id != r.seq {
            return Err(format!("response id {id} answers request {}", r.seq));
        }
        if self.cycle < DIGEST_CYCLES {
            self.digest.write_str(payload);
        }
        let claimed = serve::str_field(payload, "graph_hash");
        if self.step == Step::Mutate {
            let next = self
                .next
                .take()
                .ok_or("mutation response without a mutation")?;
            if claimed != next.hash() {
                return Err(format!("server version {claimed}, replica {}", next.hash()));
            }
            self.replica = next;
            return Ok(());
        }
        if claimed != self.replica.hash() {
            return Err(format!(
                "answered version {claimed}, replica {}",
                self.replica.hash()
            ));
        }
        let ask = self.ask.take().ok_or("response without a question")?;
        let c = check_reply(
            &ask,
            payload,
            &self.replica.graph,
            &self.replica.batteries(B),
        )?;
        record_check(spans, &c);
        if c.schedule {
            self.sums.0 += c.lifetime;
            self.sums.1 += c.bound;
        }
        Ok(())
    }
}

/// Connection B's reads: three solves and a bounds on `sibling`.
fn reads(seed: u64) -> Vec<Ask> {
    let mut v: Vec<Ask> = (0..3)
        .map(|i| Ask::Solve {
            graph: "sibling",
            alg: "greedy",
            b: B,
            seed: seed + i,
        })
        .collect();
    v.push(Ask::Bounds {
        graph: "sibling",
        b: B,
    });
    v
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("churn", ctx.traced);
    let mut spans = Spans::new(ctx.traced);
    let mut rng = Rng::new(ctx.seed, 30);
    let g = gnp_with_avg_degree(400, 24.0, STRUCTURE_SEED);
    let graphs = vec![("churn", g.clone()), ("sibling", g)];
    let read_seed = rng.below(1 << 20);
    let fixed_seed = rng.below(1 << 20);
    let churn_seed = rng.next_u64();
    let sibling_reads = reads(read_seed);
    let mut read_id = READ_IDS;

    let ((fx, mut client), mut writer) = timed_setup(
        ctx,
        &mut out,
        || {
            let (fx, mut client) = serve::start(ctx, &graphs, None, &mut spans)?;
            serve::warm(&mut client, &mut read_id, sibling_reads.clone())?;
            let mut writer = Writer {
                churner: Churner {
                    rng: Rng::new(churn_seed, 31),
                    k: 0,
                    flap: (0, 0),
                    drained: 0,
                    removed: Vec::new(),
                },
                replica: Replica {
                    graph: graphs[0].1.clone(),
                    overrides: BTreeMap::new(),
                },
                next: None,
                ask: None,
                step: Step::Mutate,
                cycle: 0,
                fixed_seed,
                id: 0,
                digest: CanonicalHasher::new(),
                sums: (0, 0),
            };
            // One warm-up cycle puts the first repair hint in place.
            let mut warmup = Outcome::new("churn", false);
            let mut quiet = Spans::new(false);
            while writer.cycle == 0 {
                let (id, line) = writer.request(&mut quiet)?;
                let r = client.rpc(0, id, &line).map_err(err)?;
                writer.response(&r, &mut warmup, &mut quiet);
            }
            if warmup.failed > 0 {
                return Err(format!("warm-up cycle failed: {:?}", warmup.violations));
            }
            Ok(((fx, client), writer))
        },
        |(fixture, _)| serve::stop(fixture),
    )?;

    let before = fx.server().stats();
    let counters = domination_counters();
    let mut tally = Tally::new(read_id, ctx.traced);
    let start = tally.origin();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let (mut hinted, mut control) = (stats::Latencies::default(), stats::Latencies::default());
    let mut writes = stats::Windows::default();
    let mut a_samples = Vec::new();
    let (mut reads_sent, mut read_due) = (0u64, start);
    let (id, line) = writer.request(&mut spans)?;
    client.queue(0, id, &line, Instant::now());
    out.attempted += 1;
    let mut got = Vec::new();
    loop {
        let now = Instant::now();
        while read_due <= now && read_due < end {
            let ask = &sibling_reads[(reads_sent % 4) as usize];
            tally.send(&mut client, 1, ask, read_due);
            reads_sent += 1;
            read_due = start + Duration::from_secs_f64(reads_sent as f64 / READ_RATE);
        }
        client.flush().map_err(err)?;
        if now >= end && client.total_in_flight() == 0 {
            break;
        }
        if now > end + Duration::from_secs(10) {
            return Err("churn requests unanswered 10 s after the phase".into());
        }
        // The reader's schedule is loose: waking up to a millisecond
        // late costs nothing measured and keeps the client off the CPU
        // the solves need.
        let until = read_due.max(now + Duration::from_millis(1));
        client
            .poll(until.min(now + Duration::from_millis(50)), &mut got)
            .map_err(err)?;
        for r in got.drain(..) {
            if r.conn == 1 {
                tally.receive(&r, &mut out);
                continue;
            }
            writes.record((r.recv - start).as_secs_f64());
            if ctx.traced {
                a_samples.push((r.seq, r.sent, r.recv));
            }
            match writer.response(&r, &mut out, &mut spans) {
                Step::Hinted => hinted.record(r.rtt_us()),
                Step::Control => control.record(r.rtt_us()),
                _ => {}
            }
            if Instant::now() < end {
                let (id, line) = writer.request(&mut spans)?;
                client.queue(0, id, &line, Instant::now());
                out.attempted += 1;
            }
        }
    }
    let after = fx.server().stats();
    put_counter_deltas(&mut out, counters);

    out.attempted += tally.sent();
    let windows = writes.rates(ctx.seconds);
    out.put("throughput_per_s", stats::median(&windows), windows.len());
    out.put_latency("p50_us", &hinted, 0.5);
    out.put_latency("p90_us", &hinted, 0.9);
    let p50 = |l: &stats::Latencies| l.quantile(0.5).unwrap_or(0.0);
    out.put(
        "core.incremental.overhead_us",
        p50(&hinted) - p50(&control),
        hinted.len().min(control.len()),
    );
    tally.settle(&graphs, &mut out, &mut spans);
    let (lifetime, bound) = tally.sums();
    let (lifetime, bound) = (lifetime + writer.sums.0, bound + writer.sums.1);
    if writer.cycle >= DIGEST_CYCLES {
        let mut d = writer.digest;
        d.write_str(&tally.set_digest());
        out.digest = Some(format!("{:016x}", d.finish()));
    }
    serve::put_check_metrics(&mut out, &spans, lifetime, bound);
    serve::put_stats_deltas(&mut out, &before, &after);
    if ctx.traced {
        let recs = serve::profile(&mut client)?;
        let samples = a_samples.iter().chain(&tally.samples);
        serve::attribute(&mut out, &mut spans, samples, &recs);
        serve::time_parse(&mut out, &mut spans, &tally.lines);
        let sibling: Vec<&serve::Rec> = recs.iter().filter(|r| r.graph == "sibling").collect();
        let hits = sibling.iter().filter(|r| r.solve + r.render == 0).count();
        out.put(
            "server.cache.sibling_hit_ratio",
            hits as f64 / sibling.len().max(1) as f64,
            sibling.len(),
        );
        crate::finish_trace(&spans, &mut out)?;
    }
    serve::stop((fx, client))?;
    Ok(out)
}
