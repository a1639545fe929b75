//! # domatic-server
//!
//! A long-running JSON-lines solve service over the [`Solver`] registry:
//! the serving layer the ROADMAP's "heavy traffic" goal needs, where a
//! one-shot CLI invocation would re-pay graph loading and solver startup
//! on every query.
//!
//! One request is one JSON object on one line; one response is one JSON
//! object on one line, matched to its request by `id`. Requests run
//! against *named graphs preloaded at server start*, so steady-state
//! traffic never parses a topology. Transports: stdin/stdout
//! ([`Server::serve_stdio`]) and TCP ([`Server::serve_tcp`]).
//!
//! Three mechanisms amortize repeated work:
//!
//! - **Admission control** — at most `capacity` jobs in flight; requests
//!   beyond that are rejected *at admission* with a typed `overloaded`
//!   error instead of growing an unbounded queue (overload can never
//!   OOM the server).
//! - **Single-flight batching** — a request that canonicalizes to the
//!   same solve key (graph hash + op + solver + config) as a solve in
//!   flight joins that solve, whose result fans out to every waiter. A
//!   key stays in flight until its result is cached, so each key is
//!   solved once.
//! - **Content-addressed caching** — completed results enter a
//!   byte-bounded LRU keyed by the same canonical key; a hit is served
//!   from memory, byte-identical to the solve that filled it.
//!
//! Execution rides the vendored-rayon global pool: each admitted job is
//! `rayon::spawn`ed onto a pool worker, and the solvers' own parallel
//! iterators nest inside it (the pool's helping discipline makes that
//! safe at any pool size). Every solver is deterministic at a fixed
//! seed, so responses are byte-identical regardless of thread count,
//! batching, or cache state — the serve integration tests pin this.
//!
//! The TCP transport is evented and sharded: an acceptor thread hands
//! connections to `shards` epoll readiness loops (the `conn` and
//! `event_loop` modules, built on the vendored `mio` shim), each owning
//! its connections end to end. Requests pipelined on one connection are
//! answered in receipt order, and overload sheds in tiers (cache-miss
//! traffic first, batch joins under severe pressure, cache hits never).
//!
//! [`Solver`]: domatic_core::solver::Solver

pub mod cache;
mod conn;
mod event_loop;
pub mod protocol;
pub mod server;
pub mod trace;

pub use cache::SolveCache;
pub use protocol::{parse_request, Op, Request};
pub use server::{Server, ServerConfig, ServerStatsSnapshot};
pub use trace::{ReqTrace, TraceRecord, Tracer};
