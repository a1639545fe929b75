//! The serve runtime: admission control, single-flight batching, cache,
//! fan-out.
//!
//! ## Life of a request
//!
//! 1. A transport thread parses the line and validates it (graph name,
//!    solver name, failure model) — malformed requests are answered
//!    immediately with a typed error and never occupy the pool.
//! 2. The request is canonicalized to a solve key. A cache hit is
//!    answered on the spot with the stored bytes.
//! 3. On a miss, the pending table is consulted *under one lock*: if the
//!    key is already being solved, the request joins that solve as a
//!    waiter (no new work); otherwise admission control runs — at or
//!    above `capacity` in-flight jobs the request is rejected with a
//!    typed `overloaded` error — and the key is entered as pending and
//!    its job `rayon::spawn`ed onto the vendored pool at once.
//! 4. The job re-checks the cache and solves once. The key stays pending
//!    for the whole solve, so identical requests that arrive meanwhile
//!    join it. The rendered payload enters the LRU cache; only then is
//!    the key removed from the pending table and the payload fanned out
//!    to every waiter. Waiters whose deadline passed get a typed
//!    `deadline` error instead, and if *all* waiters have expired when
//!    the job starts, the solve is skipped entirely.
//!
//! Every solver is deterministic at a fixed seed and payloads are
//! rendered with a fixed field order, so the bytes a waiter receives do
//! not depend on thread count, batching, or cache state.
//!
//! **Single flight.** From a key's first miss until its cache entry is
//! evicted or retired, the key is pending or cached, because a job
//! inserts its payload before it leaves the pending table. So each key
//! is solved once. A request that misses the cache just before that
//! insert and takes the pending lock just after the removal opens a new
//! batch, whose job finds the payload on its cache re-check. Errors, and
//! payloads the cache refuses, are not kept, so their keys solve again.

use crate::cache::SolveCache;
use crate::protocol::{self, Op, Request};
use crate::trace::{ReqTrace, SolveSpan, Tracer};
use domatic_core::error::DomaticError;
use domatic_core::hash::{config_hash, versioned_graph_hash, CanonicalHasher};
use domatic_core::incremental::GraphDelta;
use domatic_core::solver::make_solver;
use domatic_graph::Graph;
use domatic_netsim::{compare_static_adaptive, AdaptiveConfig, FailureModel, FailurePlan};
use domatic_schedule::Batteries;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Where a response line goes: any shared writer (a TCP stream, stdout,
/// or a test buffer). Writes are line-atomic under the mutex.
pub type ResponseSink = Arc<Mutex<dyn Write + Send>>;

/// Locks absorbing poison: the server must keep serving even if some
/// earlier holder panicked mid-section (sections below never leave
/// state half-updated across a panic boundary).
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn rlock<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn wlock<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum solve jobs in flight; admission beyond this returns a
    /// typed `overloaded` error (bounded-queue backpressure).
    pub capacity: usize,
    /// Byte budget of the LRU solve cache.
    pub cache_bytes: usize,
    /// Requests whose total latency reaches this many milliseconds get
    /// their full event lifecycle dumped to the access log (stderr when
    /// no log is attached). `None` disables the slow-request log.
    pub slow_ms: Option<u64>,
    /// How many completed-request trace records the in-memory ring
    /// keeps for the `profile` op.
    pub trace_ring: usize,
    /// Shard event loops for the TCP transport. Each shard owns a slice
    /// of connections end to end (reads, framing, writes) on one thread;
    /// solves still fan out to the shared pool. One shard saturates a
    /// single core; more shards spread readiness work on bigger hosts.
    pub shards: usize,
    /// Second load-shedding tier: once this many batch waiters are
    /// queued server-wide, even joins to open batches are rejected
    /// (`shed_tier: "join"`). The first tier (`"miss"`) sheds cache-miss
    /// traffic at `capacity`; cache hits are never shed. The default is
    /// high enough that only pathological fan-in reaches it.
    pub shed_join_waiters: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            capacity: 64,
            cache_bytes: 16 << 20,
            slow_ms: None,
            trace_ring: 256,
            shards: 1,
            shed_join_waiters: 65_536,
        }
    }
}

/// Monotone event counters, mirrored into `domatic-telemetry` so
/// `--trace` and JSON sinks see them alongside solver spans.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    solves: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    batch_joined: AtomicU64,
    overloads: AtomicU64,
    shed_miss: AtomicU64,
    shed_join: AtomicU64,
    deadline_expired: AtomicU64,
    errors: AtomicU64,
    mutations: AtomicU64,
    lineage_invalidations: AtomicU64,
}

fn bump(counter: &AtomicU64, telemetry_name: &str, delta: u64) {
    counter.fetch_add(delta, Ordering::Relaxed);
    domatic_telemetry::global().incr(telemetry_name, delta);
}

/// A point-in-time copy of the server's counters (the `stats` op).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Request lines parsed (including ones answered with errors).
    pub requests: u64,
    /// Underlying solves actually executed (batching and caching make
    /// this less than the solve-shaped request count).
    pub solves: u64,
    /// Responses served from the cache.
    pub cache_hits: u64,
    /// Cacheable requests that missed.
    pub cache_misses: u64,
    /// Entries evicted to hold the byte budget.
    pub cache_evictions: u64,
    /// Requests that joined an identical in-flight solve.
    pub batch_joined: u64,
    /// Requests rejected by admission control (both shed tiers).
    pub overloads: u64,
    /// Overloads from the first shed tier: cache-miss traffic rejected
    /// at `capacity` in-flight jobs.
    pub shed_miss: u64,
    /// Overloads from the second shed tier: batch joins rejected under
    /// severe waiter pressure (`shed_join_waiters`).
    pub shed_join: u64,
    /// Requests answered with a deadline error.
    pub deadline_expired: u64,
    /// Requests answered with any typed error.
    pub errors: u64,
    /// Graph mutations applied (each producing a new graph version).
    pub mutations: u64,
    /// Always 0: post-mutation solves are ordinary solves. Kept only
    /// for its one reader, `benchmark/src/serve.rs:469-470`; it goes
    /// with the next change to `benchmark/`.
    pub repairs: u64,
    /// Always 0, like `repairs`, and kept for the same one reader,
    /// `benchmark/src/serve.rs:469-470`.
    pub repair_fallbacks: u64,
    /// Cache entries dropped by hash-lineage invalidation (descendant
    /// versions superseding the entries' graph version).
    pub lineage_invalidations: u64,
    /// Payload bytes currently cached.
    pub cache_bytes: u64,
    /// Results currently cached.
    pub cache_entries: u64,
    /// Jobs currently in flight.
    pub inflight: u64,
    /// Live TCP connections (zero under the stdio transport).
    pub connections: u64,
}

/// The current version of a named graph.
struct NamedGraph {
    graph: Arc<Graph>,
    /// Content hash of this version (topology + battery overrides) —
    /// identical to what registering the same content fresh would hash.
    hash: u64,
    /// Per-node battery levels pinned by `set_battery` mutations,
    /// overlaying the per-request uniform level.
    overrides: Arc<BTreeMap<u32, u64>>,
    /// Version counter: 0 as registered, +1 per applied mutation.
    version: u64,
}

impl NamedGraph {
    fn fresh(graph: Graph, overrides: BTreeMap<u32, u64>) -> Self {
        let hash = versioned_graph_hash(&graph, &overrides);
        NamedGraph {
            graph: Arc::new(graph),
            hash,
            overrides: Arc::new(overrides),
            version: 0,
        }
    }
}

struct Waiter {
    id: u64,
    deadline: Option<Instant>,
    deadline_ms: u64,
    sink: ResponseSink,
    trace: Arc<ReqTrace>,
}

impl Waiter {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Everything a spawned job needs to compute its payload. The graph
/// fields are a snapshot taken at submit time: a mutation landing while
/// the job is in flight does not change what this job solves (its
/// insert is refused by the cache's retired set instead).
struct JobSpec {
    key: u64,
    req: Request,
    graph: Arc<Graph>,
    graph_hash: u64,
    overrides: Arc<BTreeMap<u32, u64>>,
}

/// The solve service. Construct with [`Server::new`], register graphs
/// with [`Server::add_graph`], then run a transport loop
/// ([`Server::serve_stdio`] / [`Server::serve_tcp`]) or drive
/// [`Server::handle_line`] directly (tests do).
pub struct Server {
    cfg: ServerConfig,
    graphs: RwLock<HashMap<String, NamedGraph>>,
    cache: Mutex<SolveCache>,
    /// Keys being solved, each with the requests waiting for its result.
    pending: Mutex<HashMap<u64, Vec<Waiter>>>,
    inflight: Mutex<usize>,
    idle: Condvar,
    accepting: AtomicBool,
    shutdown_requested: AtomicBool,
    counters: Counters,
    tracer: Tracer,
    /// Batch waiters currently queued server-wide (batch leaders and
    /// joiners alike); drives the `"join"` shed tier.
    queued_waiters: AtomicU64,
    /// Live TCP connections across all shards.
    connections: AtomicU64,
    /// Monotone connection-id source for trace events.
    conn_ids: AtomicU64,
}

impl Server {
    /// A server with no graphs yet.
    pub fn new(cfg: ServerConfig) -> Self {
        Server {
            cache: Mutex::new(SolveCache::new(cfg.cache_bytes)),
            tracer: Tracer::new(
                cfg.trace_ring,
                cfg.slow_ms.map(|ms| ms.saturating_mul(1000)),
            ),
            cfg,
            graphs: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            inflight: Mutex::new(0),
            idle: Condvar::new(),
            accepting: AtomicBool::new(true),
            shutdown_requested: AtomicBool::new(false),
            counters: Counters::default(),
            queued_waiters: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            conn_ids: AtomicU64::new(0),
        }
    }

    /// Attaches a JSON-lines access-log sink: every traced request
    /// writes its lifecycle events there. Trace output never touches
    /// response bytes, so responses stay byte-identical with or without
    /// a log attached.
    pub fn set_access_log(&self, w: Box<dyn Write + Send>) {
        self.tracer.set_log(w);
    }

    /// Registers a graph under `name`, hashing it once.
    pub fn add_graph(&self, name: impl Into<String>, graph: Graph) {
        self.add_graph_with_batteries(name, graph, BTreeMap::new());
    }

    /// Registers a graph under `name` with per-node battery overrides
    /// already pinned — the state a `set_battery` mutation history
    /// produces, registered fresh. The version hash covers the
    /// overrides, so a mutated graph and an identically configured
    /// fresh registration cache under the same keys.
    pub fn add_graph_with_batteries(
        &self,
        name: impl Into<String>,
        graph: Graph,
        overrides: BTreeMap<u32, u64>,
    ) {
        wlock(&self.graphs).insert(name.into(), NamedGraph::fresh(graph, overrides));
    }

    /// The registered graph names, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = rlock(&self.graphs).keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Test introspection: the distinct graph-version hashes current
    /// cache entries were solved against, sorted.
    #[doc(hidden)]
    pub fn cache_graph_hashes(&self) -> Vec<u64> {
        lock(&self.cache).graph_hashes()
    }

    /// Test introspection: a named graph's `(hash, version)`.
    #[doc(hidden)]
    pub fn graph_lineage(&self, name: &str) -> Option<(u64, u64)> {
        rlock(&self.graphs).get(name).map(|g| (g.hash, g.version))
    }

    /// Whether a `shutdown` request has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::Acquire)
    }

    /// Current counter values.
    pub fn stats(&self) -> ServerStatsSnapshot {
        let c = &self.counters;
        let (cache_bytes, cache_entries) = {
            let cache = lock(&self.cache);
            (cache.bytes() as u64, cache.len() as u64)
        };
        ServerStatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            solves: c.solves.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            cache_evictions: c.cache_evictions.load(Ordering::Relaxed),
            batch_joined: c.batch_joined.load(Ordering::Relaxed),
            overloads: c.overloads.load(Ordering::Relaxed),
            shed_miss: c.shed_miss.load(Ordering::Relaxed),
            shed_join: c.shed_join.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            mutations: c.mutations.load(Ordering::Relaxed),
            repairs: 0,
            repair_fallbacks: 0,
            lineage_invalidations: c.lineage_invalidations.load(Ordering::Relaxed),
            cache_bytes,
            cache_entries,
            inflight: *lock(&self.inflight) as u64,
            connections: self.connections.load(Ordering::Relaxed),
        }
    }

    /// The server's tracing spine, shared with the shard event loops.
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Accounts a newly accepted connection (gauge up) and hands out its
    /// server-wide connection id for trace events.
    pub(crate) fn conn_opened(&self) -> u64 {
        let live = self.connections.fetch_add(1, Ordering::Relaxed) + 1;
        domatic_telemetry::global().set_gauge("server.connections", live);
        self.conn_ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Accounts a closed connection (gauge down).
    pub(crate) fn conn_closed(&self) {
        let live = self
            .connections
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        domatic_telemetry::global().set_gauge("server.connections", live);
    }

    /// Stops admitting work and blocks until every in-flight job has
    /// fanned out — the graceful-drain half of shutdown. Idempotent.
    pub fn drain(&self) {
        self.accepting.store(false, Ordering::Release);
        let mut inflight = lock(&self.inflight);
        while *inflight > 0 {
            let (guard, _) = self
                .idle
                .wait_timeout(inflight, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            inflight = guard;
        }
    }

    /// Handles one request line, writing any response(s) to `sink`.
    /// Returns `true` when the line asked for shutdown (transports stop
    /// reading and drain).
    pub fn handle_line(self: &Arc<Self>, line: &str, sink: &ResponseSink) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return false;
        }
        bump(&self.counters.requests, "server.requests", 1);
        let req = match protocol::parse_request(line) {
            Ok(r) => r,
            Err((id, e)) => {
                self.respond_err(sink, id, &e);
                return false;
            }
        };
        match req.op {
            Op::Ping => {
                self.respond(sink, &protocol::ok_line(req.id, "{\"pong\":true}"));
                false
            }
            Op::Stats => {
                let payload = render_stats(&self.stats());
                self.respond(sink, &protocol::ok_line(req.id, &payload));
                false
            }
            Op::Metrics => {
                let payload = format!("{{\"exposition\":{}}}", json_str(&self.metrics_text()));
                self.respond(sink, &protocol::ok_line(req.id, &payload));
                false
            }
            Op::Profile => {
                let payload = self.render_profile();
                self.respond(sink, &protocol::ok_line(req.id, &payload));
                false
            }
            Op::Shutdown => {
                self.accepting.store(false, Ordering::Release);
                self.shutdown_requested.store(true, Ordering::Release);
                self.respond(sink, &protocol::ok_line(req.id, "{\"draining\":true}"));
                true
            }
            Op::Mutate => {
                // Mutations are applied inline on the transport thread,
                // under the graphs write lock: together with the
                // per-connection receipt-order dispatch, a client that
                // pipelines `mutate` then `solve` on one connection is
                // guaranteed to solve the mutated version.
                let rt = self.tracer.begin(req.id, "mutate", &req.graph, "");
                match self.apply_mutation(&req) {
                    Ok(payload) => {
                        self.tracer.event(&rt, "mutation_applied");
                        self.respond(sink, &protocol::ok_line(req.id, &payload));
                        self.tracer.finish(&rt, "ok", SolveSpan::default());
                    }
                    Err(e) => {
                        self.tracer.shed(&rt, "mutation_rejected");
                        self.respond_err(sink, req.id, &e);
                    }
                }
                false
            }
            Op::Solve | Op::Bounds | Op::Adapt => {
                self.submit(req, sink);
                false
            }
        }
    }

    /// Applies one churn delta to a named graph, producing a new
    /// version: the graph/overrides are swapped under the write lock and
    /// the superseded version's cache entries are retired. Returns the
    /// rendered mutate result payload.
    fn apply_mutation(&self, req: &Request) -> Result<String, DomaticError> {
        let Some(delta) = req.delta.as_ref() else {
            return Err(DomaticError::BadRequest {
                message: "mutate request carries no delta".into(),
            });
        };
        let mut graphs = wlock(&self.graphs);
        let named = graphs
            .get_mut(&req.graph)
            .ok_or_else(|| DomaticError::UnknownGraph {
                name: req.graph.clone(),
            })?;
        let (new_graph, new_overrides) = match delta {
            GraphDelta::SetBattery { node, value } => {
                let n = named.graph.n();
                if (*node as usize) >= n {
                    return Err(DomaticError::BadRequest {
                        message: format!("node {node} out of range for graph with {n} nodes"),
                    });
                }
                if named.overrides.get(node) == Some(value) {
                    return Err(DomaticError::BadRequest {
                        message: format!("node {node} battery is already {value}"),
                    });
                }
                let mut overrides = (*named.overrides).clone();
                overrides.insert(*node, *value);
                (Arc::clone(&named.graph), Arc::new(overrides))
            }
            GraphDelta::RemoveNode { node } => {
                let graph = delta.apply(&named.graph)?;
                // Override keys compact exactly like node ids do.
                let overrides: BTreeMap<u32, u64> = named
                    .overrides
                    .iter()
                    .filter(|(&k, _)| k != *node)
                    .map(|(&k, &v)| (if k > *node { k - 1 } else { k }, v))
                    .collect();
                (Arc::new(graph), Arc::new(overrides))
            }
            _ => (
                Arc::new(delta.apply(&named.graph)?),
                Arc::clone(&named.overrides),
            ),
        };
        let parent_hash = named.hash;
        let new_hash = versioned_graph_hash(&new_graph, &new_overrides);
        named.version += 1;
        named.graph = new_graph;
        named.overrides = new_overrides;
        named.hash = new_hash;
        let (version, n, m) = (named.version, named.graph.n(), named.graph.m());

        // Lineage invalidation: retire the superseded version — unless
        // some registered graph is still exactly that content, in which
        // case its (content-addressed, byte-identical) entries stay
        // valid. Live hashes are also revived: a mutation chain that
        // returns a graph to earlier content makes that content
        // cacheable again.
        let live: Vec<u64> = graphs.values().map(|g| g.hash).collect();
        {
            let mut cache = lock(&self.cache);
            if !live.contains(&parent_hash) {
                let dropped = cache.retire_graphs(&[parent_hash]);
                if dropped > 0 {
                    bump(
                        &self.counters.lineage_invalidations,
                        "cache.lineage_invalidations",
                        dropped,
                    );
                }
            }
            cache.revive_graphs(&live);
        }
        bump(&self.counters.mutations, "server.mutations", 1);
        Ok(format!(
            "{{\"action\":\"{}\",\"graph\":{},\"graph_hash\":\"{new_hash:016x}\",\"m\":{m},\"n\":{n},\"parent_hash\":\"{parent_hash:016x}\",\"version\":{version}}}",
            delta.action(),
            json_str(&req.graph),
        ))
    }

    /// Validates, canonicalizes, and routes one solve-shaped request
    /// through cache → batch-join → admission. Every request entering
    /// here gets a trace id; events flow to the access log and the
    /// profile ring, never into responses.
    fn submit(self: &Arc<Self>, req: Request, sink: &ResponseSink) {
        // `bounds` runs no solver, so its trace carries no `alg` (the
        // parser fills in a default that would otherwise show up).
        let (op_name, alg) = match req.op {
            Op::Solve => ("solve", req.alg.as_str()),
            Op::Bounds => ("bounds", ""),
            Op::Adapt => ("adapt", req.alg.as_str()),
            _ => unreachable!("only solve-shaped ops are submitted"),
        };
        let rt = self.tracer.begin(req.id, op_name, &req.graph, alg);
        // Snapshot the current graph version under the read lock: the
        // job solves exactly this version even if a mutation lands
        // while it is in flight (the cache then refuses its insert).
        let snapshot = {
            let graphs = rlock(&self.graphs);
            graphs.get(&req.graph).map(|named| {
                (
                    Arc::clone(&named.graph),
                    named.hash,
                    Arc::clone(&named.overrides),
                )
            })
        };
        let Some((graph, graph_hash, overrides)) = snapshot else {
            self.tracer.shed(&rt, "unknown_graph");
            self.respond_err(
                sink,
                req.id,
                &DomaticError::UnknownGraph {
                    name: req.graph.clone(),
                },
            );
            return;
        };
        // Validate cheaply on the transport thread so bad requests never
        // occupy pool capacity.
        if matches!(req.op, Op::Solve | Op::Adapt) {
            if let Err(e) = make_solver(&req.alg) {
                self.tracer.shed(&rt, "unknown_solver");
                self.respond_err(sink, req.id, &e);
                return;
            }
        }
        if req.op == Op::Adapt && req.cfg.hops > 1 {
            // The adaptive runtime's coverage census is 1-hop; accepting a
            // wider radius would plan d-hop schedules and then misjudge
            // them, so the combination is rejected rather than mis-served.
            // This is a config-shaped refusal (the solver configuration is
            // unsupported for this op), so it travels as a typed `config`
            // error rather than a generic bad request.
            let e = DomaticError::Config {
                message: "adapt does not support hops > 1".to_string(),
            };
            self.tracer.shed(&rt, "hops_unsupported");
            self.respond_err(sink, req.id, &e);
            return;
        }
        if req.op == Op::Adapt {
            if let Err(e) = failure_models(&req) {
                self.tracer.shed(&rt, "unknown_failure_model");
                self.respond_err(sink, req.id, &e);
                return;
            }
        }

        let spec = JobSpec {
            key: solve_key(&req, graph_hash),
            graph,
            graph_hash,
            overrides,
            req,
        };
        self.tracer.event(&rt, "admitted");

        if let Some(payload) = lock(&self.cache).get(spec.key) {
            bump(&self.counters.cache_hits, "server.cache.hit", 1);
            self.tracer.event(&rt, "cache_hit");
            self.respond(sink, &protocol::ok_line(spec.req.id, &payload));
            self.tracer.finish(&rt, "ok", SolveSpan::default());
            return;
        }

        let waiter = Waiter {
            id: spec.req.id,
            deadline: spec
                .req
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            deadline_ms: spec.req.deadline_ms.unwrap_or(0),
            sink: Arc::clone(sink),
            trace: Arc::clone(&rt),
        };

        // Join-or-open must be atomic per key, so the whole decision sits
        // under the pending lock (lock order: pending, then inflight).
        let mut pending = lock(&self.pending);
        if let Some(waiters) = pending.get_mut(&spec.key) {
            // Second shed tier: joins are normally free (no new work), but
            // each queued waiter holds a sink and response slot, so under
            // severe fan-in even joins are refused. Cache hits never reach
            // this path — they are served to the last.
            if self.queued_waiters.load(Ordering::Relaxed) >= self.cfg.shed_join_waiters as u64 {
                drop(pending);
                bump(&self.counters.overloads, "server.overload", 1);
                bump(&self.counters.shed_join, "server.shed.join", 1);
                self.tracer.shed(&rt, "overloaded_join");
                self.respond_err(
                    sink,
                    spec.req.id,
                    &DomaticError::Overloaded {
                        capacity: self.cfg.capacity,
                        tier: "join",
                    },
                );
                return;
            }
            bump(&self.counters.batch_joined, "server.batch.joined", 1);
            self.tracer.event(&rt, "batch_joined");
            self.queued_waiters.fetch_add(1, Ordering::Relaxed);
            waiters.push(waiter);
            return;
        }
        if !self.accepting.load(Ordering::Acquire) {
            drop(pending);
            self.tracer.shed(&rt, "shutting_down");
            self.respond_err(sink, spec.req.id, &DomaticError::ShuttingDown);
            return;
        }
        {
            let mut inflight = lock(&self.inflight);
            if *inflight >= self.cfg.capacity {
                drop(inflight);
                drop(pending);
                bump(&self.counters.overloads, "server.overload", 1);
                bump(&self.counters.shed_miss, "server.shed.miss", 1);
                self.tracer.shed(&rt, "overloaded_miss");
                self.respond_err(
                    sink,
                    spec.req.id,
                    &DomaticError::Overloaded {
                        capacity: self.cfg.capacity,
                        tier: "miss",
                    },
                );
                return;
            }
            *inflight += 1;
            domatic_telemetry::global().set_gauge("server.inflight", *inflight as u64);
        }
        // A miss is a request that had to open a batch; joiners count as
        // `batch_joined` instead, so hits + misses + joins partitions the
        // admitted cacheable traffic.
        bump(&self.counters.cache_misses, "server.cache.miss", 1);
        self.tracer.event(&rt, "cache_miss");
        self.queued_waiters.fetch_add(1, Ordering::Relaxed);
        pending.insert(spec.key, vec![waiter]);
        drop(pending);

        let server = Arc::clone(self);
        rayon::spawn(move || {
            server.run_job(spec, rt);
        });
    }

    /// The spawned half: solve once, cache, then close the batch and fan
    /// out. The key stays pending until its payload is cached, so
    /// identical requests that arrive mid-solve join this job instead of
    /// starting another. Runs on a vendored-rayon pool worker; the
    /// solver's own parallel iterators nest inside it. `leader` is the
    /// trace of the request that opened the batch.
    fn run_job(self: &Arc<Self>, spec: JobSpec, leader: Arc<ReqTrace>) {
        // Nobody is left to receive the result: close the batch and skip
        // the solve. Deciding and closing under one lock hold keeps a
        // joiner from slipping in between, so every waiter answered here
        // has expired.
        {
            let mut pending = lock(&self.pending);
            if pending
                .get(&spec.key)
                .is_some_and(|waiters| waiters.iter().all(Waiter::expired))
            {
                let waiters = pending.remove(&spec.key).unwrap_or_default();
                drop(pending);
                self.queued_waiters
                    .fetch_sub(waiters.len() as u64, Ordering::Relaxed);
                for w in &waiters {
                    self.expire(w, SolveSpan::default());
                }
                self.release_slot();
                return;
            }
        }

        // A prior batch may have filled the key between this leader's
        // admission miss and its opening this batch. The solve's phase
        // boundaries go on the leader's trace events and are clipped to
        // each waiter's own lifetime in its completion record.
        let cached = lock(&self.cache).get(spec.key);
        let mut span = SolveSpan::default();
        let outcome: Result<Arc<str>, DomaticError> = match cached {
            Some(payload) => {
                self.tracer.event(&leader, "cache_hit");
                Ok(payload)
            }
            None => {
                let solve_start = self.tracer.now_us();
                self.tracer.event(&leader, "solve_start");
                let computed = self.compute(&spec);
                let render_end = self.tracer.now_us();
                self.tracer.event(&leader, "solve_end");
                computed.map(|(payload, rendering)| {
                    span = SolveSpan {
                        solve_start,
                        render_start: self.tracer.us_at(rendering),
                        render_end,
                    };
                    if matches!(spec.req.op, Op::Solve | Op::Adapt) {
                        domatic_telemetry::global().observe_labeled(
                            "server.solve_latency_us",
                            &[("alg", &spec.req.alg), ("graph", &spec.req.graph)],
                            span.render_start.saturating_sub(solve_start),
                        );
                    }
                    self.tracer.event(&leader, "rendered");
                    let payload: Arc<str> = payload.into();
                    bump(&self.counters.solves, "server.solves", 1);
                    let (evicted, bytes) = {
                        let mut cache = lock(&self.cache);
                        let evicted = cache.insert(spec.key, spec.graph_hash, Arc::clone(&payload));
                        (evicted, cache.bytes() as u64)
                    };
                    if evicted > 0 {
                        bump(
                            &self.counters.cache_evictions,
                            "server.cache.eviction",
                            evicted,
                        );
                    }
                    domatic_telemetry::global().set_gauge("runtime.cache_bytes", bytes);
                    payload
                })
            }
        };
        // Close the batch only now that the payload is cached: a request
        // that finds no pending key from here on is answered by the cache.
        let waiters = lock(&self.pending).remove(&spec.key).unwrap_or_default();
        self.finish(&waiters, &outcome, span);
    }

    /// Fans a job outcome out to the waiters of a closed batch
    /// (deadline-checked per waiter) and releases the in-flight slot.
    /// `span` bounds the solve that served them; each waiter's trace
    /// completion is charged only the part of it that overlaps the
    /// waiter's own lifetime.
    fn finish(
        &self,
        waiters: &[Waiter],
        outcome: &Result<Arc<str>, DomaticError>,
        span: SolveSpan,
    ) {
        self.queued_waiters
            .fetch_sub(waiters.len() as u64, Ordering::Relaxed);
        for w in waiters {
            match outcome {
                _ if w.expired() => self.expire(w, span),
                Ok(payload) => {
                    self.respond(&w.sink, &protocol::ok_line(w.id, payload));
                    self.tracer.finish(&w.trace, "ok", span);
                }
                Err(e) => {
                    self.respond_err(&w.sink, w.id, e);
                    self.tracer.finish(&w.trace, "error", span);
                }
            }
        }
        self.release_slot();
    }

    /// Answers a waiter whose deadline passed before its batch closed.
    fn expire(&self, w: &Waiter, span: SolveSpan) {
        bump(
            &self.counters.deadline_expired,
            "server.deadline.expired",
            1,
        );
        self.tracer.event(&w.trace, "deadline_expired");
        self.respond_err(
            &w.sink,
            w.id,
            &DomaticError::DeadlineExceeded {
                deadline_ms: w.deadline_ms,
            },
        );
        self.tracer.finish(&w.trace, "deadline", span);
    }

    /// Releases a closed batch's in-flight slot, waking a drain that
    /// waits for the last one.
    fn release_slot(&self) {
        let mut inflight = lock(&self.inflight);
        *inflight -= 1;
        domatic_telemetry::global().set_gauge("server.inflight", *inflight as u64);
        if *inflight == 0 {
            self.idle.notify_all();
        }
    }

    /// Computes a request's payload and the instant its rendering began.
    /// Panics inside solver code are caught and surfaced as a typed
    /// error so one poisoned instance cannot take the worker (or the
    /// server) down.
    fn compute(&self, spec: &JobSpec) -> Result<(String, Instant), DomaticError> {
        catch_unwind(AssertUnwindSafe(|| compute_payload(spec))).unwrap_or_else(|_| {
            Err(DomaticError::BadRequest {
                message: "solver panicked on this instance".into(),
            })
        })
    }

    /// Renders the telemetry registry as Prometheus text exposition,
    /// refreshing point-in-time gauges (cache bytes/entries, in-flight)
    /// first so every scrape is current.
    pub fn metrics_text(&self) -> String {
        let t = domatic_telemetry::global();
        let (bytes, entries) = {
            let cache = lock(&self.cache);
            (cache.bytes() as u64, cache.len() as u64)
        };
        t.set_gauge("runtime.cache_bytes", bytes);
        t.set_gauge("server.cache_entries", entries);
        t.set_gauge("server.inflight", *lock(&self.inflight) as u64);
        domatic_telemetry::prometheus::render(&t.snapshot())
    }

    /// Renders the `profile` payload: the completed-request ring (oldest
    /// first) plus span aggregates, with fixed field order.
    fn render_profile(&self) -> String {
        let mut out = String::from("{\"ring\":[");
        for (i, rec) in self.tracer.ring_snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&rec.render_json());
        }
        out.push_str("],\"spans\":{");
        let snap = domatic_telemetry::global().snapshot();
        for (i, (path, stat)) in snap.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"total_ns\":{}}}",
                json_str(path),
                stat.count,
                stat.total_ns
            );
        }
        out.push_str("}}");
        out
    }

    fn respond(&self, sink: &ResponseSink, line: &str) {
        // A vanished client (broken pipe) must not take the server down;
        // the write result is deliberately discarded.
        let mut out = lock(sink);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }

    fn respond_err(&self, sink: &ResponseSink, id: u64, err: &DomaticError) {
        bump(&self.counters.errors, "server.errors", 1);
        self.respond(sink, &protocol::err_line(id, err));
    }

    /// Serves JSON-lines over stdin/stdout until EOF or a `shutdown`
    /// request, then drains.
    pub fn serve_stdio(self: &Arc<Self>) {
        let sink: ResponseSink = Arc::new(Mutex::new(std::io::stdout()));
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if self.handle_line(&line, &sink) {
                break;
            }
        }
        self.drain();
    }

    /// Serves JSON-lines over TCP on an evented, sharded readiness
    /// architecture: this thread accepts and hands each connection to
    /// one of `cfg.shards` epoll event loops, which own their
    /// connections end to end (non-blocking reads, incremental framing,
    /// write-interest-driven flushing). Requests pipelined on one
    /// connection are answered in receipt order. Returns after a
    /// `shutdown` request has been received, in-flight work has drained,
    /// and every shard thread has flushed, closed its connections, and
    /// been joined — no detached threads outlive this call.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        let shards = crate::event_loop::spawn_shards(self, self.cfg.shards.max(1))?;
        listener.set_nonblocking(true)?;
        let mut next = 0usize;
        while !self.shutdown_requested() {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    shards[next].shared.hand_off(stream);
                    next = (next + 1) % shards.len();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    crate::event_loop::finish_and_join(shards);
                    return Err(e);
                }
            }
        }
        // Close the listening socket before draining so new connects are
        // refused while in-flight work completes.
        drop(listener);
        self.drain();
        crate::event_loop::finish_and_join(shards);
        Ok(())
    }
}

/// The canonical cache/batch key: op-dependent so unrelated fields (a
/// solve seed, say) cannot split `bounds` requests into spurious misses.
fn solve_key(req: &Request, graph_hash: u64) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_u64(graph_hash);
    h.write_u64(req.b);
    match req.op {
        Op::Bounds => {
            h.write_str("bounds");
            h.write_u64(req.cfg.k as u64);
        }
        Op::Solve => {
            h.write_str("solve");
            h.write_str(&req.alg);
            h.write_u64(config_hash(&req.cfg));
        }
        Op::Adapt => {
            h.write_str("adapt");
            h.write_str(&req.alg);
            h.write_u64(config_hash(&req.cfg));
            h.write_str(&req.failures);
            h.write_u64(req.p.to_bits());
            h.write_u64(req.slots);
        }
        Op::Mutate | Op::Ping | Op::Stats | Op::Metrics | Op::Profile | Op::Shutdown => {
            unreachable!("not cacheable ops")
        }
    }
    h.finish()
}

/// The per-request battery vector: uniform at `b`, with any `set_battery`
/// overrides pinned on top.
fn overlay_batteries(n: usize, b: u64, overrides: &BTreeMap<u32, u64>) -> Batteries {
    if overrides.is_empty() {
        return Batteries::uniform(n, b);
    }
    let mut values = vec![b; n];
    for (&node, &value) in overrides {
        if (node as usize) < n {
            values[node as usize] = value;
        }
    }
    Batteries::from_vec(values)
}

/// Renders a payload for one solve-shaped request, returning the payload
/// plus the instant rendering began (the solve/render boundary). Field
/// order is fixed (alphabetical) and every formatting choice is
/// deterministic, so equal requests render byte-identical payloads on
/// any thread count — the timing is observational only and never feeds
/// the payload.
fn compute_payload(spec: &JobSpec) -> Result<(String, Instant), DomaticError> {
    let g = &*spec.graph;
    let req = &spec.req;
    let batteries = overlay_batteries(g.n(), req.b, &spec.overrides);
    match req.op {
        Op::Bounds => {
            let general = domatic_core::bounds::general_upper_bound(g, &batteries);
            let uniform = domatic_core::bounds::uniform_upper_bound(g, req.b);
            let ft = domatic_core::bounds::fault_tolerant_upper_bound(g, req.b, req.cfg.k.max(1));
            let rendering = Instant::now();
            Ok((format!(
                "{{\"b\":{},\"ft\":{ft},\"general\":{general},\"graph\":{},\"graph_hash\":\"{:016x}\",\"k\":{},\"m\":{},\"n\":{},\"uniform\":{uniform}}}",
                req.b,
                json_str(&req.graph),
                spec.graph_hash,
                req.cfg.k.max(1),
                g.m(),
                g.n(),
            ), rendering))
        }
        Op::Solve => {
            let solver = make_solver(&req.alg)?;
            let schedule = solver.schedule(g, &batteries, &req.cfg)?;
            let tolerance = solver.tolerance(&req.cfg);
            let bound = solver.upper_bound(g, &batteries, &req.cfg);
            let rendering = Instant::now();
            let mut sched_json = String::from("[");
            for (i, entry) in schedule.entries().iter().enumerate() {
                if i > 0 {
                    sched_json.push(',');
                }
                let _ = write!(sched_json, "[{},[", entry.duration);
                for (j, v) in entry.set.to_vec().into_iter().enumerate() {
                    if j > 0 {
                        sched_json.push(',');
                    }
                    let _ = write!(sched_json, "{v}");
                }
                sched_json.push_str("]]");
            }
            sched_json.push(']');
            Ok((format!(
                "{{\"alg\":{},\"b\":{},\"bound\":{bound},\"graph\":{},\"graph_hash\":\"{:016x}\",\"k\":{},\"lifetime\":{},\"n\":{},\"schedule\":{sched_json},\"seed\":{},\"steps\":{},\"tolerance\":{tolerance},\"trials\":{}}}",
                json_str(&req.alg),
                req.b,
                json_str(&req.graph),
                spec.graph_hash,
                req.cfg.k,
                schedule.lifetime(),
                g.n(),
                req.cfg.seed,
                schedule.num_steps(),
                req.cfg.trials,
            ), rendering))
        }
        Op::Adapt => {
            let solver = make_solver(&req.alg)?;
            let models = failure_models(req)?;
            let plan = FailurePlan::draw(&models, g.n(), req.slots, req.cfg.seed);
            let acfg = AdaptiveConfig {
                k: req.cfg.k,
                drift_tolerance: 2,
                max_retries: 2,
                max_slots: req.slots,
                max_replans: 64,
                record_curve: false,
            };
            let cmp =
                compare_static_adaptive(g, &batteries, solver.as_ref(), &req.cfg, &acfg, &plan)?;
            let rendering = Instant::now();
            Ok((format!(
                "{{\"adaptive_lifetime\":{},\"alg\":{},\"b\":{},\"deaths\":{},\"failures\":{},\"graph\":{},\"p\":{:?},\"planned\":{},\"replans\":{},\"seed\":{},\"slots\":{},\"static_lifetime\":{}}}",
                cmp.adaptive.lifetime,
                json_str(&req.alg),
                req.b,
                cmp.adaptive.deaths,
                json_str(&req.failures),
                json_str(&req.graph),
                req.p,
                cmp.planned,
                cmp.adaptive.replans,
                req.cfg.seed,
                req.slots,
                cmp.static_run.lifetime,
            ), rendering))
        }
        Op::Mutate | Op::Ping | Op::Stats | Op::Metrics | Op::Profile | Op::Shutdown => {
            unreachable!("answered inline")
        }
    }
}

/// The failure models an `adapt` request names, or the `BadRequest` an
/// unknown name gets.
fn failure_models(req: &Request) -> Result<Vec<FailureModel>, DomaticError> {
    FailureModel::parse(&req.failures, req.p).ok_or_else(|| DomaticError::BadRequest {
        message: format!(
            "unknown failure model '{}' (none|crash|battery-noise|transient-loss|all)",
            req.failures
        ),
    })
}

fn render_stats(s: &ServerStatsSnapshot) -> String {
    format!(
        "{{\"batch_joined\":{},\"cache_bytes\":{},\"cache_entries\":{},\"cache_evictions\":{},\"cache_hits\":{},\"cache_misses\":{},\"connections\":{},\"deadline_expired\":{},\"errors\":{},\"inflight\":{},\"lineage_invalidations\":{},\"mutations\":{},\"overloads\":{},\"requests\":{},\"shed_join\":{},\"shed_miss\":{},\"solves\":{}}}",
        s.batch_joined,
        s.cache_bytes,
        s.cache_entries,
        s.cache_evictions,
        s.cache_hits,
        s.cache_misses,
        s.connections,
        s.deadline_expired,
        s.errors,
        s.inflight,
        s.lineage_invalidations,
        s.mutations,
        s.overloads,
        s.requests,
        s.shed_join,
        s.shed_miss,
        s.solves,
    )
}

fn json_str(s: &str) -> String {
    domatic_telemetry::json::Json::Str(s.to_string()).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use domatic_graph::generators::regular::cycle;

    #[test]
    fn mutate_without_a_delta_is_a_bad_request() {
        let server = Server::new(ServerConfig::default());
        server.add_graph("c9", cycle(9));
        let line = r#"{"id":1,"op":"mutate","graph":"c9","action":"add_node"}"#;
        let mut req = protocol::parse_request(line).expect("a valid mutate request");
        req.delta = None;
        match server.apply_mutation(&req) {
            Err(DomaticError::BadRequest { message }) => {
                assert_eq!(message, "mutate request carries no delta")
            }
            other => panic!("expected a bad request, got {other:?}"),
        }
        // The graph kept its first version.
        assert_eq!(
            server.graph_lineage("c9").map(|(_, version)| version),
            Some(0)
        );
    }
}
