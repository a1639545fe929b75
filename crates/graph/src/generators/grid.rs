//! 2D lattice graphs.

use crate::csr::{Graph, NodeId};

/// Neighborhood structure of a lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridKind {
    /// 4-neighborhood (von Neumann): up/down/left/right.
    FourConnected,
    /// 8-neighborhood (Moore): also diagonals.
    EightConnected,
}

/// Builds a `rows × cols` lattice. Node `(r, c)` has id `r * cols + c`.
/// With `torus = true` the lattice wraps around in both dimensions.
pub fn grid(rows: usize, cols: usize, kind: GridKind, torus: bool) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let deltas: &[(i64, i64)] = match kind {
        GridKind::FourConnected => &[(0, 1), (1, 0)],
        // Only "forward" deltas so each edge is generated once.
        GridKind::EightConnected => &[(0, 1), (1, 0), (1, 1), (1, -1)],
    };
    for r in 0..rows {
        for c in 0..cols {
            for &(dr, dc) in deltas {
                let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                let (nr, nc) = if torus {
                    (
                        nr.rem_euclid(rows as i64) as usize,
                        nc.rem_euclid(cols as i64) as usize,
                    )
                } else {
                    if nr < 0 || nc < 0 || nr >= rows as i64 || nc >= cols as i64 {
                        continue;
                    }
                    (nr as usize, nc as usize)
                };
                if (nr, nc) != (r, c) {
                    edges.push((id(r, c), id(nr, nc)));
                }
            }
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_connected_edge_count() {
        // rows*(cols-1) + cols*(rows-1)
        let g = grid(3, 4, GridKind::FourConnected, false);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 4 * 2);
    }

    #[test]
    fn corner_degrees() {
        let g = grid(3, 3, GridKind::FourConnected, false);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(1), 3); // edge
        assert_eq!(g.degree(4), 4); // center
    }

    #[test]
    fn eight_connected_center_degree() {
        let g = grid(3, 3, GridKind::EightConnected, false);
        assert_eq!(g.degree(4), 8);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn torus_is_regular() {
        let g = grid(4, 5, GridKind::FourConnected, true);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4, "node {v}");
        }
        assert_eq!(g.m(), 2 * 20);
    }

    #[test]
    fn torus_eight_connected_regular() {
        let g = grid(5, 5, GridKind::EightConnected, true);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 8);
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(grid(1, 1, GridKind::FourConnected, false).m(), 0);
        let line = grid(1, 5, GridKind::FourConnected, false);
        assert_eq!(line.m(), 4);
        // 1×n torus wraps into a cycle-like multigraph collapsed to simple
        // edges: 1×2 torus has a single edge after dedup.
        let tiny = grid(1, 2, GridKind::FourConnected, true);
        assert_eq!(tiny.m(), 1);
    }
}
