//! Integration: the visualization pipeline — partition → topology SVG —
//! and the awake-set history a simulation observer records.

use domatic::core::greedy::greedy_domatic_partition;
use domatic::netsim::{simulate_observed, SimConfig, SingleMds};
use domatic::prelude::*;
use domatic::schedule::compact::compact;
use domatic::viz::{circular, from_positions, render_topology, spring, TopologyStyle};

/// Cheap well-formedness check: every opened tag closes or self-closes,
/// in order (sufficient for the flat SVG we emit).
fn tags_balanced(svg: &str) -> bool {
    let mut depth = 0i32;
    let mut i = 0;
    let bytes = svg.as_bytes();
    while let Some(start) = svg[i..].find('<').map(|o| i + o) {
        let end = match svg[start..].find('>') {
            Some(o) => start + o,
            None => return false,
        };
        if bytes[start + 1] == b'/' {
            depth -= 1;
        } else if bytes[end - 1] != b'/' && !svg[start..end].starts_with("<?") {
            depth += 1;
        }
        if depth < 0 {
            return false;
        }
        i = end + 1;
    }
    depth == 0
}

#[test]
fn partition_topology_svg_renders_every_node() {
    let gg = graph::generators::geometric::random_geometric(
        120,
        graph::generators::geometric::radius_for_avg_degree(120, 15.0),
        3,
    );
    let g = gg.graph;
    let classes = greedy_domatic_partition(&g);
    // Geometric graphs use their true positions.
    let layout = from_positions(&gg.positions);
    let svg = render_topology(&g, &layout, &classes, &TopologyStyle::default());
    assert!(tags_balanced(&svg), "unbalanced SVG");
    // Every node drawn (plus ≤ 8 legend dots).
    let circles = svg.matches("<circle").count();
    assert!(circles >= g.n() && circles <= g.n() + 8);
    assert_eq!(svg.matches("<line").count(), g.m());
}

#[test]
fn spring_and_circular_layouts_drive_the_same_renderer() {
    let g = graph::generators::regular::cycle(12);
    let classes = greedy_domatic_partition(&g);
    for layout in [circular(12), spring(&g, 40)] {
        let svg = render_topology(&g, &layout, &classes, &TopologyStyle::default());
        assert!(tags_balanced(&svg));
        assert_eq!(svg.matches("<line").count(), 12);
    }
}

#[test]
fn single_mds_trace_has_constant_awake_set_until_death() {
    let g = graph::generators::regular::star(8);
    let cfg = SimConfig {
        max_slots: 1000,
        ..SimConfig::default()
    };
    let mut awake = Vec::new();
    simulate_observed(&g, &[4.0; 8], &mut SingleMds::new(), &cfg, None, &mut |r| {
        awake.push((r.awake, 1))
    });
    // The first 4 slots all use {center}; compaction collapses them.
    let compacted = compact(&Schedule::from_entries(awake));
    assert!(compacted.num_steps() <= 2);
    assert_eq!(compacted.entries()[0].set.to_vec(), vec![0]);
}
