//! A minimal edge-list text format.
//!
//! ```text
//! # comments and blank lines are ignored
//! n <node-count>
//! <u> <v>
//! <u> <v>
//! …
//! ```
//!
//! Used by the examples to load/save topologies without pulling in a
//! serialization framework.

use crate::builder::{GraphBuilder, GraphError};
use crate::csr::Graph;

/// Parses the edge-list format described in the module docs.
pub fn parse_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut builder: Option<GraphBuilder> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().unwrap();
        if first == "n" {
            if builder.is_some() {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: "duplicate 'n' header".into(),
                });
            }
            let count: usize = parts
                .next()
                .ok_or_else(|| GraphError::Parse {
                    line: line_no,
                    message: "missing node count after 'n'".into(),
                })?
                .parse()
                .map_err(|_| GraphError::Parse {
                    line: line_no,
                    message: "invalid node count".into(),
                })?;
            builder = Some(GraphBuilder::new(count));
            continue;
        }
        let b = builder.as_mut().ok_or_else(|| GraphError::Parse {
            line: line_no,
            message: "edge before 'n' header".into(),
        })?;
        let u: u32 = first.parse().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("invalid node id '{first}'"),
        })?;
        let vs = parts.next().ok_or_else(|| GraphError::Parse {
            line: line_no,
            message: "missing second endpoint".into(),
        })?;
        let v: u32 = vs.parse().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("invalid node id '{vs}'"),
        })?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "trailing tokens after edge".into(),
            });
        }
        b.add_edge(u, v)?;
    }
    match builder {
        Some(b) => Ok(b.build()),
        None => Err(GraphError::Parse {
            line: 0,
            message: "missing 'n' header".into(),
        }),
    }
}

/// Serializes a graph to the edge-list format (inverse of
/// [`parse_edge_list`] up to comments/ordering).
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::with_capacity(16 + g.m() * 8);
    out.push_str(&format!("n {}\n", g.n()));
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::cycle;

    #[test]
    fn roundtrip() {
        let g = cycle(7);
        let text = to_edge_list(&g);
        let g2 = parse_edge_list(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parses_comments_and_blanks() {
        let g = parse_edge_list("# hi\n\nn 3\n0 1\n# mid\n1 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn rejects_edge_before_header() {
        let e = parse_edge_list("0 1\nn 2\n").unwrap_err();
        assert!(e.to_string().contains("before 'n'"));
    }

    #[test]
    fn rejects_bad_ids_and_extra_tokens() {
        assert!(parse_edge_list("n 2\nx 1\n").is_err());
        assert!(parse_edge_list("n 2\n0 y\n").is_err());
        assert!(parse_edge_list("n 2\n0 1 2\n").is_err());
        assert!(parse_edge_list("n 2\n0\n").is_err());
    }

    #[test]
    fn rejects_duplicate_header_and_missing_header() {
        assert!(parse_edge_list("n 2\nn 3\n").is_err());
        assert!(parse_edge_list("# only comments\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let e = parse_edge_list("n 2\n0 5\n").unwrap_err();
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = parse_edge_list("n 0\n").unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(to_edge_list(&g), "n 0\n");
    }
}
