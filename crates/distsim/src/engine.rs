//! The synchronous round engine (LOCAL model).
//!
//! Per round, every node first broadcasts (reading only its own state),
//! then folds its inbox (reading neighbors' just-published messages,
//! writing only its own state). The two phases are separated by a barrier,
//! so the outbox is immutable while inboxes are consumed — data-race
//! freedom by construction, the double-buffered-mailbox pattern. Both
//! phases fan out over scoped threads; counters are relaxed atomics (they
//! are pure tallies with no ordering dependencies).

use crate::message::Msg;
use crate::node::Protocol;
use crate::stats::RunStats;
use domatic_graph::{Graph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs `protocol` on every node of `g` for its full round count using
/// `threads` worker threads, returning each node's output plus the
/// communication cost.
pub fn run_protocol<P: Protocol>(
    g: &Graph,
    protocol: &P,
    threads: usize,
) -> (Vec<P::Output>, RunStats) {
    run_protocol_lossy(g, protocol, threads, 0.0, 0)
}

/// Deterministic per-edge-per-round delivery decision (SplitMix64 hash of
/// the tuple vs the loss threshold), so lossy runs are reproducible and
/// thread-invariant.
fn delivered(seed: u64, round: usize, sender: NodeId, receiver: NodeId, loss: f64) -> bool {
    if loss <= 0.0 {
        return true;
    }
    let mut z = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (sender as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (receiver as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) >= loss
}

/// [`run_protocol`] over an unreliable network: each point-to-point
/// delivery is dropped independently with probability `loss` (note this
/// breaks the paper's acknowledged-links assumption from §2 — which is
/// the point: it lets tests quantify how the protocols degrade when that
/// assumption fails).
pub fn run_protocol_lossy<P: Protocol>(
    g: &Graph,
    protocol: &P,
    threads: usize,
    loss: f64,
    loss_seed: u64,
) -> (Vec<P::Output>, RunStats) {
    let n = g.n();
    let threads = threads.max(1);
    let mut states: Vec<P::State> = (0..n as NodeId)
        .map(|v| protocol.init(v, g.degree(v)))
        .collect();
    let mut outbox: Vec<Option<Msg>> = (0..n).map(|_| None).collect();

    let transmissions = AtomicU64::new(0);
    let receptions = AtomicU64::new(0);
    let bytes_received = AtomicU64::new(0);

    let run_span = domatic_telemetry::span!("distsim.run");
    let rounds = protocol.rounds();
    for round in 0..rounds {
        let _round_span = domatic_telemetry::span!("distsim.round");
        // Phase 1: publish broadcasts.
        {
            let states = &states[..];
            parallel_indexed(&mut outbox, threads, |base, chunk| {
                let mut sent = 0u64;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    let v = (base + i) as NodeId;
                    *slot = protocol.broadcast(v, &states[base + i], round);
                    if slot.is_some() {
                        sent += 1;
                    }
                }
                transmissions.fetch_add(sent, Ordering::Relaxed);
            });
        }
        // Phase 2 (after the barrier): consume inboxes.
        {
            let outbox = &outbox[..];
            parallel_indexed(&mut states, threads, |base, chunk| {
                let mut inbox: Vec<Msg> = Vec::new();
                let mut recv = 0u64;
                let mut bytes = 0u64;
                for (i, state) in chunk.iter_mut().enumerate() {
                    let v = (base + i) as NodeId;
                    inbox.clear();
                    for &u in g.neighbors(v) {
                        if let Some(m) = outbox[u as usize] {
                            if !delivered(loss_seed, round, u, v, loss) {
                                continue;
                            }
                            inbox.push(m);
                            recv += 1;
                            bytes += m.size_bytes() as u64;
                        }
                    }
                    protocol.receive(v, state, round, &inbox);
                }
                receptions.fetch_add(recv, Ordering::Relaxed);
                bytes_received.fetch_add(bytes, Ordering::Relaxed);
            });
        }
    }

    let outputs = states
        .into_iter()
        .enumerate()
        .map(|(v, st)| protocol.finish(v as NodeId, st))
        .collect();
    let stats = RunStats {
        rounds,
        transmissions: transmissions.into_inner(),
        receptions: receptions.into_inner(),
        bytes_received: bytes_received.into_inner(),
    };
    stats.publish(domatic_telemetry::global());
    drop(run_span);
    (outputs, stats)
}

/// Splits `data` into `threads` contiguous chunks and runs `f(base_index,
/// chunk)` on scoped worker threads. Chunks are disjoint `&mut` slices, so
/// `f` may freely mutate its chunk while sharing read-only captures.
fn parallel_indexed<T: Send>(data: &mut [T], threads: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let len = data.len();
    if len == 0 {
        return;
    }
    let workers = threads.min(len);
    if workers == 1 {
        f(0, data);
        return;
    }
    let chunk = len.div_ceil(workers);
    std::thread::scope(|s| {
        for (i, part) in data.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || f(i * chunk, part));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Msg;
    use domatic_graph::generators::regular::{cycle, star};

    /// Toy protocol: each node broadcasts its degree once and records the
    /// maximum degree it heard.
    struct MaxDegreeGossip;

    impl Protocol for MaxDegreeGossip {
        type State = (u32, u32); // (own degree, max heard)
        type Output = u32;

        fn rounds(&self) -> usize {
            1
        }
        fn init(&self, _v: NodeId, degree: usize) -> Self::State {
            (degree as u32, degree as u32)
        }
        fn broadcast(&self, _v: NodeId, st: &Self::State, _round: usize) -> Option<Msg> {
            Some(Msg::Degree(st.0))
        }
        fn receive(&self, _v: NodeId, st: &mut Self::State, _round: usize, inbox: &[Msg]) {
            for m in inbox {
                if let Msg::Degree(d) = m {
                    st.1 = st.1.max(*d);
                }
            }
        }
        fn finish(&self, _v: NodeId, st: Self::State) -> Self::Output {
            st.1
        }
    }

    #[test]
    fn gossip_on_star() {
        let g = star(5);
        let (out, stats) = run_protocol(&g, &MaxDegreeGossip, 2);
        // Everyone hears the center's degree 4 (the center hears 1s).
        assert_eq!(out, vec![4, 4, 4, 4, 4]);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.transmissions, 5);
        assert_eq!(stats.receptions, 8); // Σ degrees = 2m
        assert_eq!(stats.bytes_received, 8 * 4);
    }

    #[test]
    fn thread_count_does_not_change_outputs() {
        let g = cycle(37);
        let (a, sa) = run_protocol(&g, &MaxDegreeGossip, 1);
        let (b, sb) = run_protocol(&g, &MaxDegreeGossip, 8);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn empty_graph_runs() {
        let g = domatic_graph::Graph::empty(0);
        let (out, stats) = run_protocol(&g, &MaxDegreeGossip, 4);
        assert!(out.is_empty());
        assert_eq!(stats.transmissions, 0);
    }

    #[test]
    fn zero_loss_is_identical_to_reliable() {
        let g = cycle(30);
        let (a, sa) = run_protocol(&g, &MaxDegreeGossip, 2);
        let (b, sb) = run_protocol_lossy(&g, &MaxDegreeGossip, 2, 0.0, 99);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn full_loss_delivers_nothing() {
        let g = star(6);
        let (out, stats) = run_protocol_lossy(&g, &MaxDegreeGossip, 2, 1.0, 1);
        // Everyone transmits but nobody hears: outputs = own degree.
        assert_eq!(stats.transmissions, 6);
        assert_eq!(stats.receptions, 0);
        for v in 0..6u32 {
            assert_eq!(out[v as usize] as usize, g.degree(v));
        }
    }

    #[test]
    fn partial_loss_is_deterministic_and_thread_invariant() {
        let g = cycle(40);
        let (a, sa) = run_protocol_lossy(&g, &MaxDegreeGossip, 1, 0.3, 7);
        let (b, sb) = run_protocol_lossy(&g, &MaxDegreeGossip, 8, 0.3, 7);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        // Loss actually drops something at 30%.
        assert!(sa.receptions < 2 * g.m() as u64);
        assert!(sa.receptions > 0);
        // Different loss seed → different drops (w.o.p. on 80 deliveries).
        let (_, sc) = run_protocol_lossy(&g, &MaxDegreeGossip, 1, 0.3, 8);
        assert_ne!(sa.receptions, sc.receptions);
    }

    /// Silent protocol: verifies `None` broadcasts cost nothing.
    struct Silent;
    impl Protocol for Silent {
        type State = ();
        type Output = ();
        fn rounds(&self) -> usize {
            3
        }
        fn init(&self, _: NodeId, _: usize) {}
        fn broadcast(&self, _: NodeId, _: &(), _: usize) -> Option<Msg> {
            None
        }
        fn receive(&self, _: NodeId, _: &mut (), _: usize, inbox: &[Msg]) {
            assert!(inbox.is_empty());
        }
        fn finish(&self, _: NodeId, _: ()) {}
    }

    #[test]
    fn silence_is_free() {
        let g = cycle(10);
        let (_, stats) = run_protocol(&g, &Silent, 3);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.transmissions, 0);
        assert_eq!(stats.receptions, 0);
        assert_eq!(stats.bytes_received, 0);
    }
}
