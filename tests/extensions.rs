//! Integration tests for the §7-extension pipelines: connected
//! clustering, general k-tolerance, epochs and augmentation.

use domatic::core::augment::augment_partition;
use domatic::core::cds::{all_entries_connected, connected_uniform_schedule};
use domatic::core::epochs::epoch_schedule;
use domatic::core::general::GeneralParams;
use domatic::core::general_fault_tolerant::{
    general_fault_tolerant_schedule, general_fault_tolerant_upper_bound,
};
use domatic::core::greedy::greedy_domatic_partition;
use domatic::core::uniform::UniformParams;
use domatic::graph::domination::is_disjoint_dominating_family;
use domatic::prelude::*;
use domatic::schedule::{longest_valid_prefix, validate_schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn batteries(n: usize, hi: u64, seed: u64) -> Batteries {
    let mut rng = StdRng::seed_from_u64(seed);
    Batteries::from_vec((0..n).map(|_| rng.random_range(1..=hi)).collect())
}

#[test]
fn connected_schedule_is_valid_and_connected_end_to_end() {
    let g = graph::generators::gnp::gnp_with_avg_degree(200, 70.0, 3);
    let b = 2u64;
    let run = connected_uniform_schedule(&g, b, &UniformParams { c: 3.0, seed: 5 });
    let batteries = Batteries::uniform(g.n(), b);
    validate_schedule(&g, &batteries, &run.schedule, 1).unwrap();
    assert!(all_entries_connected(&g, &run.schedule));
    assert!(run.connected_classes >= 1);
}

#[test]
fn general_ft_composes_with_epochs_bounds() {
    // Two independent extensions must both respect the same τ arithmetic.
    let g = graph::generators::gnp::gnp_with_avg_degree(250, 100.0, 6);
    let b = batteries(250, 5, 7);
    for k in [1usize, 2] {
        let run = general_fault_tolerant_schedule(&g, &b, k, &GeneralParams { c: 3.0, seed: 2 });
        let p = longest_valid_prefix(&g, &b, &run.schedule, k);
        assert!(p.lifetime() <= general_fault_tolerant_upper_bound(&g, &b, k));
    }
    let multi = epoch_schedule(&g, &b, &GeneralParams { c: 3.0, seed: 2 }, 15);
    validate_schedule(&g, &b, &multi.schedule, 1).unwrap();
    assert!(multi.schedule.lifetime() <= general_fault_tolerant_upper_bound(&g, &b, 1));
}

#[test]
fn augmentation_result_schedules_validly() {
    let g = graph::generators::gnp::gnp_with_avg_degree(200, 60.0, 9);
    let res = augment_partition(&g, greedy_domatic_partition(&g));
    assert!(is_disjoint_dominating_family(&g, &res.classes));
    // Turn the augmented family into a schedule and validate it.
    let b = 3u64;
    let schedule = Schedule::from_entries(res.classes.into_iter().map(|c| (c, b)));
    let batteries = Batteries::uniform(g.n(), b);
    validate_schedule(&g, &batteries, &schedule, 1).unwrap();
}

#[test]
fn connected_partition_respects_the_connectivity_ceiling() {
    // d_c(G) ≤ κ(G): every connected dominating set of a non-complete
    // graph must intersect every minimum vertex cut, and disjoint CDSs
    // need disjoint intersections.
    use domatic::core::cds::greedy_connected_partition;
    use domatic::graph::flow::vertex_connectivity;
    use domatic::graph::traversal::is_connected;
    for seed in 0..6 {
        let g = graph::generators::gnp::gnp_with_avg_degree(40, 8.0, seed);
        if !is_connected(&g) {
            continue;
        }
        let parts = greedy_connected_partition(&g);
        let kappa = vertex_connectivity(&g);
        assert!(
            parts.len() <= kappa.max(1),
            "seed {seed}: {} connected classes > κ = {kappa}",
            parts.len()
        );
    }
}

#[test]
fn fast_experiments_smoke() {
    // The cheap experiments must produce their expected table counts when
    // driven through the public registry (guards the binary's surface).
    for (id, tables) in [("e1", 1usize), ("e5", 1), ("e6", 2), ("e12", 1)] {
        let out = domatic::experiments::run_by_id(id).unwrap();
        assert_eq!(out.len(), tables, "{id}");
        for t in out {
            assert!(t.num_rows() > 0, "{id} produced an empty table");
        }
    }
}
