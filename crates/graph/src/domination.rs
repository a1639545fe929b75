//! Domination predicates: the correctness conditions every scheduler must
//! satisfy.
//!
//! A set `S ⊆ V` *dominates* `G` if every node is in `S` or has a neighbor
//! in `S` (closed-neighborhood coverage). A set is *k-dominating* if every
//! node has at least `k` members of `S` in its closed neighborhood — the
//! fault-tolerance notion of the paper's §6. The *d-hop* generalization
//! (arXiv:1404.6890) relaxes coverage to distance `d`: every node must have
//! `k` members of `S` within `d` hops, equivalently `S` must k-dominate the
//! graph power `G^d`.
//!
//! # Kernel dispatch
//!
//! Every predicate here bottoms out in one primitive — intersect `N⁺(v)`
//! with `S` and count — and each has two implementations that are verified
//! bit-identical (see `tests/kernel_equivalence.rs`):
//!
//! - the **scalar** CSR walk: one `NodeSet` probe per neighbor;
//! - the **bitset** kernel: an AND+popcount scan of the precomputed
//!   [`crate::bits::NeighborhoodBits`] row, branch-free and
//!   auto-vectorizable, early-exiting once `k` dominators are seen.
//!
//! Whole-graph predicates lazily build the rows above
//! [`BITS_BUILD_THRESHOLD`] nodes — but only on graphs dense enough that
//! the `⌈n/64⌉`-word row scan is no wider than the average adjacency walk
//! (and only when the memory budget admits the build) — and keep the rayon
//! chunked dispatch above [`crate::PAR_DISPATCH_THRESHOLD`], so both axes —
//! word-parallelism within a node and thread-parallelism across nodes —
//! compose. The `_scalar` / `_bitset` variants pin one kernel each for
//! benchmarks and equivalence tests; results never differ.

use crate::bits::NeighborhoodBits;
use crate::csr::{Graph, NodeId};
use crate::nodeset::NodeSet;
use domatic_telemetry::count;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Node count from which whole-graph predicates lazily build the bitmask
/// rows on first use. Below this the build cost cannot amortize within a
/// single check and per-node queries only use rows that some caller
/// already built ([`Graph::cached_neighborhood_bits`]).
pub const BITS_BUILD_THRESHOLD: usize = 512;

/// The rows to use for a whole-graph predicate: builds (and caches) them
/// for graphs at least [`BITS_BUILD_THRESHOLD`] nodes, otherwise only
/// reuses rows a previous caller built. `None` ⇒ stay on the CSR walk.
///
/// Gated by density: a row scan touches `⌈n/64⌉` words per node while the
/// CSR walk touches one neighbor per probe, so the rows only pay off when
/// the average closed degree is at least the row width (the crossover
/// measured in `docs/PROFILING.md`: 5-11x faster at degree ≈ 4x row
/// width, ~1.4x *slower* when the walk is narrower than the row).
fn bits_for(g: &Graph) -> Option<&NeighborhoodBits> {
    let n = g.n();
    if n == 0 || n.div_ceil(64) > 2 * g.m() / n + 1 {
        return None;
    }
    if n >= BITS_BUILD_THRESHOLD {
        g.neighborhood_bits()
    } else {
        g.cached_neighborhood_bits()
    }
}

/// Number of dominators of `v` in `set`: `|N⁺(v) ∩ set|`.
///
/// Uses the cached bitmask row when one exists *and* the row scan is no
/// wider than the adjacency walk (for sparse rows the CSR walk touches
/// fewer words); the two paths return identical counts either way.
#[inline]
pub fn dominator_count(g: &Graph, set: &NodeSet, v: NodeId) -> usize {
    if let Some(bits) = g.cached_neighborhood_bits() {
        if bits.words_per_row() <= g.closed_degree(v) {
            return bits.dominator_count(set, v);
        }
    }
    dominator_count_scalar(g, set, v)
}

/// The scalar CSR-walk dominator count: one membership probe per closed
/// neighbor. Reference implementation for the bitset kernels.
#[inline]
pub fn dominator_count_scalar(g: &Graph, set: &NodeSet, v: NodeId) -> usize {
    let mut c = usize::from(set.contains(v));
    for &u in g.neighbors(v) {
        c += usize::from(set.contains(u));
    }
    c
}

/// Whether `set` is a dominating set of `g`.
///
/// Auto-dispatches twice: graphs with at least [`crate::PAR_DISPATCH_THRESHOLD`]
/// nodes are checked across the rayon pool (when it has more than one
/// worker), and graphs with at least [`BITS_BUILD_THRESHOLD`] nodes use the
/// word-level bitmask kernel when it fits the memory budget. Use
/// [`is_dominating_set_par`] to force the parallel path and
/// [`is_k_dominating_set_scalar`] to force the CSR kernel.
pub fn is_dominating_set(g: &Graph, set: &NodeSet) -> bool {
    count!("graph.domination.checks");
    all_k_dominated(g, set, 1)
}

/// Whether `set` is a k-dominating set of `g` (every node has ≥ k
/// dominators in its closed neighborhood). Auto-dispatches like
/// [`is_dominating_set`].
pub fn is_k_dominating_set(g: &Graph, set: &NodeSet, k: usize) -> bool {
    count!("graph.domination.checks");
    all_k_dominated(g, set, k)
}

/// Shared auto-dispatching core of the k-domination predicates.
fn all_k_dominated(g: &Graph, set: &NodeSet, k: usize) -> bool {
    match bits_for(g) {
        Some(bits) => {
            if crate::use_parallel(g.n()) {
                bits_all_k_dominated_par(bits, set, k)
            } else {
                (0..g.n() as NodeId).all(|v| bits.has_k_dominators(set, v, k))
            }
        }
        None => {
            if crate::use_parallel(g.n()) {
                csr_all_k_dominated_par(g, set, k)
            } else {
                g.nodes().all(|v| dominator_count_scalar(g, set, v) >= k)
            }
        }
    }
}

/// The parallel CSR kernel: chunks of the node range fan out across the
/// pool, and the short-circuiting `all` cancels remaining chunks as soon
/// as any worker finds an under-dominated node.
fn csr_all_k_dominated_par(g: &Graph, set: &NodeSet, k: usize) -> bool {
    (0..g.n() as NodeId)
        .into_par_iter()
        .all(|v| dominator_count_scalar(g, set, v) >= k)
}

/// The parallel bitset kernel: same chunked fan-out, with each worker
/// running the early-exiting word scan instead of the adjacency walk.
fn bits_all_k_dominated_par(bits: &NeighborhoodBits, set: &NodeSet, k: usize) -> bool {
    (0..bits.n() as NodeId)
        .into_par_iter()
        .all(|v| bits.has_k_dominators(set, v, k))
}

/// Forced-CSR (scalar) k-domination check: never touches the bitmask rows,
/// but keeps the rayon dispatch above the parallel threshold. This is the
/// `scalar` column of the kernel bench matrix and the reference side of the
/// equivalence proptests.
pub fn is_k_dominating_set_scalar(g: &Graph, set: &NodeSet, k: usize) -> bool {
    count!("graph.domination.checks");
    if crate::use_parallel(g.n()) {
        csr_all_k_dominated_par(g, set, k)
    } else {
        g.nodes().all(|v| dominator_count_scalar(g, set, v) >= k)
    }
}

/// Forced-bitset k-domination check: builds the rows regardless of
/// [`BITS_BUILD_THRESHOLD`] (the `bitset` column of the kernel bench
/// matrix). Falls back to the CSR kernel only when the memory budget
/// rejects the build; the result is identical either way.
pub fn is_k_dominating_set_bitset(g: &Graph, set: &NodeSet, k: usize) -> bool {
    count!("graph.domination.checks");
    match g.neighborhood_bits() {
        Some(bits) => {
            if crate::use_parallel(g.n()) {
                bits_all_k_dominated_par(bits, set, k)
            } else {
                (0..g.n() as NodeId).all(|v| bits.has_k_dominators(set, v, k))
            }
        }
        None => {
            if crate::use_parallel(g.n()) {
                csr_all_k_dominated_par(g, set, k)
            } else {
                g.nodes().all(|v| dominator_count_scalar(g, set, v) >= k)
            }
        }
    }
}

/// All nodes with fewer than `k` dominators in `set` (empty ⇔ k-dominating),
/// in increasing id order.
pub fn uncovered_nodes(g: &Graph, set: &NodeSet, k: usize) -> Vec<NodeId> {
    count!("graph.domination.checks");
    match bits_for(g) {
        Some(bits) => g
            .nodes()
            .filter(|&v| !bits.has_k_dominators(set, v, k))
            .collect(),
        None => uncovered_nodes_scalar(g, set, k),
    }
}

/// Forced-CSR variant of [`uncovered_nodes`]; reference for the bitset path.
pub fn uncovered_nodes_scalar(g: &Graph, set: &NodeSet, k: usize) -> Vec<NodeId> {
    g.nodes()
        .filter(|&v| dominator_count_scalar(g, set, v) < k)
        .collect()
}

/// Forced-parallel domination check.
///
/// Semantically identical to [`is_dominating_set`] but always splits the
/// node range across the rayon pool, regardless of graph size. Most
/// callers should prefer [`is_dominating_set`], which dispatches by size.
pub fn is_dominating_set_par(g: &Graph, set: &NodeSet) -> bool {
    count!("graph.domination.checks");
    check_k_dominating_par(g, set, 1)
}

/// Forced-parallel k-domination check; see [`is_dominating_set_par`].
pub fn is_k_dominating_set_par(g: &Graph, set: &NodeSet, k: usize) -> bool {
    count!("graph.domination.checks");
    check_k_dominating_par(g, set, k)
}

/// Forced-parallel core: bitset rows when available, CSR walk otherwise.
fn check_k_dominating_par(g: &Graph, set: &NodeSet, k: usize) -> bool {
    match bits_for(g) {
        Some(bits) => bits_all_k_dominated_par(bits, set, k),
        None => csr_all_k_dominated_par(g, set, k),
    }
}

/// Checks that `sets` form a *domatic partition prefix*: pairwise disjoint
/// and each a dominating set. (A full domatic partition additionally covers
/// all of `V`; the algorithms in this workspace only need disjointness, as
/// unused nodes simply stay asleep.)
pub fn is_disjoint_dominating_family(g: &Graph, sets: &[NodeSet]) -> bool {
    for (i, s) in sets.iter().enumerate() {
        if !is_dominating_set(g, s) {
            return false;
        }
        for t in &sets[i + 1..] {
            if !s.is_disjoint(t) {
                return false;
            }
        }
    }
    true
}

/// Greedy minimum-dominating-set approximation (the classical `ln Δ + 1`
/// set-cover greedy): repeatedly add the node covering the most uncovered
/// nodes, breaking ties toward the lowest id.
///
/// `alive` restricts candidate dominators (nodes outside `alive` may still
/// *be covered* but cannot cover); the whole vertex set must still be
/// dominated, which is exactly the requirement when extracting successive
/// disjoint dominating sets for a domatic partition. Returns `None` if the
/// alive nodes cannot dominate `g` (some node has no alive closed neighbor).
///
/// The coverage-update inner loop runs word-parallel (`row(v) & !covered`)
/// when the bitmask rows are available; the chosen set is identical to the
/// scalar walk's in either case.
pub fn greedy_dominating_set(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    count!("graph.domination.greedy_extractions");
    greedy_impl(g, alive, bits_for(g))
}

/// Forced-CSR variant of [`greedy_dominating_set`] (the `scalar` column of
/// the kernel bench matrix); always returns the same set.
pub fn greedy_dominating_set_scalar(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    count!("graph.domination.greedy_extractions");
    greedy_impl(g, alive, None)
}

/// Forced-bitset variant of [`greedy_dominating_set`]: builds the rows
/// regardless of the density gate (the `bitset` column of the kernel bench
/// matrix). Falls back to the CSR walk only when the memory budget rejects
/// the build; the chosen set is identical in every case.
pub fn greedy_dominating_set_bitset(g: &Graph, alive: &NodeSet) -> Option<NodeSet> {
    count!("graph.domination.greedy_extractions");
    greedy_impl(g, alive, g.neighborhood_bits())
}

fn greedy_impl(g: &Graph, alive: &NodeSet, bits: Option<&NeighborhoodBits>) -> Option<NodeSet> {
    let n = g.n();
    let mut covered = NodeSet::new(n);
    let mut chosen = NodeSet::new(n);
    // gain[v] = number of currently uncovered nodes in N⁺(v), for alive v.
    let mut gain: Vec<usize> = (0..n as NodeId)
        .map(|v| {
            if alive.contains(v) {
                g.closed_degree(v)
            } else {
                0
            }
        })
        .collect();
    // Lazy-decrement max-heap over (gain, lowest-id-wins). Gains only
    // decrease, so an entry is pushed whenever a gain drops to a new
    // (positive) level and stale entries — whose recorded gain no longer
    // matches `gain[v]` — are discarded on pop. Total work is
    // O((n + m) log n) versus the previous O(n · |D|) full rescan per
    // round. `Reverse(v)` makes the heap break gain ties toward the
    // smallest id, exactly matching the scan it replaces.
    let mut heap: BinaryHeap<(usize, Reverse<NodeId>)> = (0..n as NodeId)
        .filter(|&v| gain[v as usize] > 0)
        .map(|v| (gain[v as usize], Reverse(v)))
        .collect();
    let mut num_covered = 0usize;
    let mut newly: Vec<NodeId> = Vec::new();
    while num_covered < n {
        let v = loop {
            let (gv, Reverse(v)) = heap.pop()?;
            if gain[v as usize] == gv {
                break v;
            }
        };
        chosen.insert(v);
        gain[v as usize] = 0;
        // Collect the newly covered nodes of N⁺(v). The multiset of gain
        // decrements below is order-independent, so the word-parallel path
        // (ascending bit order) and the scalar path (v first, then sorted
        // neighbors) choose identical sets.
        newly.clear();
        match bits {
            Some(b) => {
                // newly = row(v) & !covered, one AND-NOT per word.
                for (wi, (&rw, &cw)) in b.row(v).iter().zip(covered.words()).enumerate() {
                    let mut w = rw & !cw;
                    while w != 0 {
                        newly.push((wi * 64) as NodeId + w.trailing_zeros() as NodeId);
                        w &= w - 1;
                    }
                }
            }
            None => {
                if !covered.contains(v) {
                    newly.push(v);
                }
                for &u in g.neighbors(v) {
                    if !covered.contains(u) {
                        newly.push(u);
                    }
                }
            }
        }
        // Mark them covered and decrement gains of their closed neighbors.
        for &u in &newly {
            covered.insert(u);
            num_covered += 1;
            let decrement = |w: NodeId, gain: &mut Vec<usize>, heap: &mut BinaryHeap<_>| {
                if alive.contains(w) && gain[w as usize] > 0 {
                    gain[w as usize] -= 1;
                    if gain[w as usize] > 0 {
                        heap.push((gain[w as usize], Reverse(w)));
                    }
                }
            };
            decrement(u, &mut gain, &mut heap);
            for &w in g.neighbors(u) {
                decrement(w, &mut gain, &mut heap);
            }
        }
    }
    Some(chosen)
}

/// Reduces a dominating set to a *minimal* one by dropping redundant nodes
/// (highest id first). The result dominates `g` and no proper subset of it
/// does.
pub fn make_minimal(g: &Graph, set: &NodeSet) -> NodeSet {
    let mut s = set.clone();
    let members: Vec<NodeId> = s.to_vec();
    for &v in members.iter().rev() {
        s.remove(v);
        // v is droppable iff every node it was covering still has a
        // dominator; only N⁺(v) can be affected.
        let still_ok = dominator_count(g, &s, v) >= 1
            && g.neighbors(v)
                .iter()
                .all(|&u| dominator_count(g, &s, u) >= 1);
        if !still_ok {
            s.insert(v);
        }
    }
    s
}

// ---------------------------------------------------------------------------
// d-hop domination (distance-d coverage; arXiv:1404.6890)
// ---------------------------------------------------------------------------

/// One closed-neighborhood dilation of `set`: all nodes with a member of
/// `set` in their closed neighborhood, i.e. `set ∪ N(set)`. Applying this
/// `d` times yields the distance-`d` ball of `set`.
///
/// Uses the bitmask rows when available (one AND-any scan per node);
/// otherwise inserts each member's neighbors. Results are identical.
pub fn dilate(g: &Graph, set: &NodeSet) -> NodeSet {
    match bits_for(g) {
        Some(bits) => bits.dilate(set),
        None => {
            let mut out = set.clone();
            for v in set.iter() {
                for &u in g.neighbors(v) {
                    out.insert(u);
                }
            }
            out
        }
    }
}

/// The closed `d`-hop ball `B_d(v)`: all nodes within distance `d` of `v`,
/// including `v` itself. Computed as `d` dilations of `{v}` (so it runs on
/// the bitset kernel when the rows are available).
pub fn k_hop_closed_neighborhood(g: &Graph, v: NodeId, d: usize) -> NodeSet {
    let mut ball = NodeSet::new(g.n());
    ball.insert(v);
    for _ in 0..d {
        ball = dilate(g, &ball);
    }
    ball
}

/// Number of members of `set` within distance `d` of `v` (counting `v`
/// itself when it is a member): `|B_d(v) ∩ set|`. Bounded BFS from `v`;
/// `d = 1` coincides with [`dominator_count`].
pub fn d_hop_dominator_count(g: &Graph, set: &NodeSet, v: NodeId, d: usize) -> usize {
    let n = g.n();
    let mut seen = vec![false; n];
    seen[v as usize] = true;
    let mut c = usize::from(set.contains(v));
    let mut frontier: Vec<NodeId> = vec![v];
    let mut next: Vec<NodeId> = Vec::new();
    for _ in 0..d {
        next.clear();
        for &u in &frontier {
            for &w in g.neighbors(u) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    c += usize::from(set.contains(w));
                    next.push(w);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        if frontier.is_empty() {
            break;
        }
    }
    c
}

/// Whether every node is within `d` hops of some member of `set` (d-hop
/// domination; `d = 1` is ordinary domination). Shorthand for
/// [`is_d_hop_k_dominating_set`] with `k = 1`.
pub fn is_d_hop_dominating_set(g: &Graph, set: &NodeSet, d: usize) -> bool {
    is_d_hop_k_dominating_set(g, set, 1, d)
}

/// Whether every node has at least `k` members of `set` within `d` hops —
/// equivalently, whether `set` k-dominates the graph power `G^d`.
///
/// `k = 1` runs as `d` whole-set dilations followed by one fullness test
/// (the fast path the bitset kernel makes cheap); `k ≥ 2` falls back to a
/// per-node bounded BFS count, parallelized above
/// [`crate::PAR_DISPATCH_THRESHOLD`].
pub fn is_d_hop_k_dominating_set(g: &Graph, set: &NodeSet, k: usize, d: usize) -> bool {
    count!("graph.domination.checks");
    if d <= 1 {
        return all_k_dominated(g, set, k);
    }
    if k == 1 {
        let mut cover = set.clone();
        for _ in 0..d {
            cover = dilate(g, &cover);
        }
        return cover.len() == g.n();
    }
    if crate::use_parallel(g.n()) {
        (0..g.n() as NodeId)
            .into_par_iter()
            .all(|v| d_hop_dominator_count(g, set, v, d) >= k)
    } else {
        g.nodes().all(|v| d_hop_dominator_count(g, set, v, d) >= k)
    }
}

/// Forced-scalar d-hop check: a sequential per-node bounded BFS with no
/// bitset or rayon dispatch. Reference side of the bench matrix and the
/// equivalence proptests.
pub fn is_d_hop_k_dominating_set_scalar(g: &Graph, set: &NodeSet, k: usize, d: usize) -> bool {
    g.nodes().all(|v| d_hop_dominator_count(g, set, v, d) >= k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::{complete, cycle, star};

    #[test]
    fn single_center_dominates_star() {
        let g = star(6);
        let s = NodeSet::from_iter(6, [0]);
        assert!(is_dominating_set(&g, &s));
        let leaves = NodeSet::from_iter(6, [1, 2, 3, 4, 5]);
        assert!(is_dominating_set(&g, &leaves));
        let partial = NodeSet::from_iter(6, [1, 2]);
        assert!(!is_dominating_set(&g, &partial));
    }

    #[test]
    fn k_domination_on_complete_graph() {
        let g = complete(5);
        let s = NodeSet::from_iter(5, [0, 1, 2]);
        assert!(is_k_dominating_set(&g, &s, 3));
        assert!(!is_k_dominating_set(&g, &s, 4));
    }

    #[test]
    fn uncovered_nodes_reports_gaps() {
        let g = cycle(6);
        let s = NodeSet::from_iter(6, [0]);
        // 0 covers 5, 0, 1; uncovered: 2, 3, 4.
        assert_eq!(uncovered_nodes(&g, &s, 1), vec![2, 3, 4]);
        assert!(uncovered_nodes(&g, &NodeSet::full(6), 1).is_empty());
    }

    #[test]
    fn uncovered_nodes_counts_telemetry() {
        let reg = domatic_telemetry::global();
        let before = reg.counter_value("graph.domination.checks");
        let g = cycle(6);
        uncovered_nodes(&g, &NodeSet::full(6), 1);
        let after = reg.counter_value("graph.domination.checks");
        assert!(
            after > before,
            "uncovered_nodes must bump the check counter"
        );
    }

    #[test]
    fn parallel_check_matches_sequential() {
        let g = cycle(50);
        let s = NodeSet::from_iter(50, (0..50).step_by(3).map(|v| v as NodeId));
        assert_eq!(is_dominating_set(&g, &s), is_dominating_set_par(&g, &s));
        assert_eq!(
            is_k_dominating_set(&g, &s, 2),
            is_k_dominating_set_par(&g, &s, 2)
        );
    }

    #[test]
    fn scalar_and_bitset_paths_agree() {
        let g = cycle(40);
        for step in [2usize, 3, 5] {
            let s = NodeSet::from_iter(40, (0..40).step_by(step).map(|v| v as NodeId));
            for k in 1..4 {
                let scalar = is_k_dominating_set_scalar(&g, &s, k);
                assert_eq!(is_k_dominating_set_bitset(&g, &s, k), scalar);
                assert_eq!(is_k_dominating_set(&g, &s, k), scalar);
            }
            // The auto path now sees the cached rows; counts must not change.
            for v in g.nodes() {
                assert_eq!(
                    dominator_count(&g, &s, v),
                    dominator_count_scalar(&g, &s, v)
                );
            }
        }
    }

    #[test]
    fn empty_set_dominates_only_empty_graph() {
        let g = Graph::empty(0);
        assert!(is_dominating_set(&g, &NodeSet::new(0)));
        let g1 = Graph::empty(1);
        assert!(!is_dominating_set(&g1, &NodeSet::new(1)));
    }

    #[test]
    fn disjoint_family_check() {
        let g = complete(4);
        let a = NodeSet::from_iter(4, [0]);
        let b = NodeSet::from_iter(4, [1]);
        let c = NodeSet::from_iter(4, [1, 2]);
        assert!(is_disjoint_dominating_family(&g, &[a.clone(), b.clone()]));
        assert!(!is_disjoint_dominating_family(&g, &[b, c]));
        let bad = NodeSet::new(4);
        assert!(!is_disjoint_dominating_family(&g, &[a, bad]));
    }

    #[test]
    fn greedy_finds_center_of_star() {
        let g = star(10);
        let ds = greedy_dominating_set(&g, &NodeSet::full(10)).unwrap();
        assert_eq!(ds.to_vec(), vec![0]);
    }

    #[test]
    fn greedy_respects_alive_mask() {
        let g = star(5);
        let mut alive = NodeSet::full(5);
        alive.remove(0); // center dead: every leaf must self-cover, and the
                         // center must be covered by a leaf.
        let ds = greedy_dominating_set(&g, &alive).unwrap();
        assert!(is_dominating_set(&g, &ds));
        assert!(!ds.contains(0));
        assert_eq!(ds.len(), 4);
    }

    #[test]
    fn greedy_returns_none_when_impossible() {
        // Two isolated nodes, only one alive: the other cannot be covered.
        let g = Graph::empty(2);
        let alive = NodeSet::from_iter(2, [0]);
        assert!(greedy_dominating_set(&g, &alive).is_none());
    }

    #[test]
    fn greedy_bitset_path_chooses_identical_sets() {
        let g = crate::generators::gnp::gnp_with_avg_degree(120, 6.0, 9);
        g.neighborhood_bits().unwrap(); // force the word-parallel inner loop
        for seed in 0..4u32 {
            let alive = NodeSet::from_iter(120, (0..120u32).filter(|v| (v ^ seed) % 5 != 0));
            assert_eq!(
                greedy_dominating_set(&g, &alive),
                greedy_dominating_set_scalar(&g, &alive),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn make_minimal_strips_redundancy() {
        let g = star(8);
        let full = NodeSet::full(8);
        let min = make_minimal(&g, &full);
        assert!(is_dominating_set(&g, &min));
        // Minimality: removing any member breaks domination.
        for v in min.to_vec() {
            let mut s = min.clone();
            s.remove(v);
            assert!(!is_dominating_set(&g, &s), "set not minimal at {v}");
        }
    }

    #[test]
    fn dominator_count_counts_closed_neighborhood() {
        let g = cycle(5);
        let s = NodeSet::from_iter(5, [0, 1]);
        assert_eq!(dominator_count(&g, &s, 0), 2);
        assert_eq!(dominator_count(&g, &s, 2), 1);
        assert_eq!(dominator_count(&g, &s, 3), 0);
    }

    #[test]
    fn d_hop_ball_on_cycle() {
        let g = cycle(10);
        assert_eq!(k_hop_closed_neighborhood(&g, 0, 1).to_vec(), vec![0, 1, 9]);
        assert_eq!(
            k_hop_closed_neighborhood(&g, 0, 2).to_vec(),
            vec![0, 1, 2, 8, 9]
        );
        assert_eq!(k_hop_closed_neighborhood(&g, 0, 5).len(), 10);
    }

    #[test]
    fn d_hop_domination_on_cycle() {
        // On a 12-cycle, {0, 6} 2-hop dominates nodes 0..2, 4..8, 10..11 —
        // but 3 and 9 are at distance 3, so d = 2 fails and d = 3 works.
        let g = cycle(12);
        let s = NodeSet::from_iter(12, [0, 6]);
        assert!(!is_d_hop_dominating_set(&g, &s, 2));
        assert!(is_d_hop_dominating_set(&g, &s, 3));
        // d = 1 coincides with the plain predicate.
        assert_eq!(
            is_d_hop_dominating_set(&g, &s, 1),
            is_dominating_set(&g, &s)
        );
        // Every third node 2-hop dominates the cycle.
        let s3 = NodeSet::from_iter(12, [0, 3, 6, 9]);
        assert!(is_d_hop_dominating_set(&g, &s3, 2));
    }

    #[test]
    fn d_hop_k_domination_matches_power_graph() {
        let g = crate::generators::gnp::gnp_with_avg_degree(60, 4.0, 3);
        let s = NodeSet::from_iter(60, (0..60).step_by(4).map(|v| v as NodeId));
        for d in 1..4usize {
            let gp = g.power(d);
            for k in 1..4usize {
                let direct = is_d_hop_k_dominating_set(&g, &s, k, d);
                assert_eq!(direct, is_k_dominating_set(&gp, &s, k), "d = {d}, k = {k}");
                assert_eq!(
                    direct,
                    is_d_hop_k_dominating_set_scalar(&g, &s, k, d),
                    "scalar d = {d}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn d_hop_counts_match_power_graph_counts() {
        let g = cycle(15);
        let s = NodeSet::from_iter(15, [0, 4, 5, 11]);
        for d in 1..4usize {
            let gp = g.power(d);
            for v in g.nodes() {
                assert_eq!(
                    d_hop_dominator_count(&g, &s, v, d),
                    dominator_count(&gp, &s, v),
                    "d = {d}, v = {v}"
                );
            }
        }
    }
}
