//! Regression: each `Solver` implementation is *bit-identical* to the
//! raw algorithm it wraps — best-of-R over the paper's schedule function,
//! validated with `longest_valid_prefix`, longest lifetime wins, ties to
//! the smallest seed. The deprecated `best_*` free functions used to be
//! that wrapper; they are gone, so this file pins the trait directly
//! against from-scratch references built on the raw entry points. The
//! solver matrix at the end pins every registry solver's output on two
//! fixed instances.

use domatic_core::fault_tolerant::fault_tolerant_schedule;
use domatic_core::general::{general_schedule, GeneralParams};
use domatic_core::greedy::greedy_general_schedule;
use domatic_core::solver::{
    make_solver, FaultTolerantSolver, GeneralSolver, GreedySolver, Solver, SolverConfig,
    UniformSolver,
};
use domatic_core::uniform::{uniform_schedule, UniformParams};
use domatic_core::DomaticError;
use domatic_graph::generators::geometric::{radius_for_avg_degree, random_geometric};
use domatic_graph::generators::gnp::gnp_with_avg_degree;
use domatic_graph::Graph;
use domatic_schedule::{longest_valid_prefix, Batteries, Schedule};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed-ordered best-of fold: the deterministic reference for what every
/// best-of-R solver must return.
fn best_of_reference<F: Fn(u64) -> Schedule>(trials: u64, base_seed: u64, f: F) -> Schedule {
    let mut best: Option<Schedule> = None;
    for i in 0..trials.max(1) {
        let s = f(base_seed.wrapping_add(i));
        best = match best {
            Some(b) if s.lifetime() <= b.lifetime() => Some(b),
            _ => Some(s),
        };
    }
    best.expect("at least one trial")
}

#[test]
fn uniform_solver_matches_raw_best_of() {
    let g = gnp_with_avg_degree(100, 20.0, 7);
    for (seed, trials, b) in [(0u64, 8u64, 2u64), (42, 4, 3), (1000, 1, 5)] {
        let cfg = SolverConfig::new().seed(seed).trials(trials);
        let batteries = Batteries::uniform(g.n(), b);
        let via_trait = UniformSolver.schedule(&g, &batteries, &cfg).unwrap();
        let direct = best_of_reference(trials, seed, |s| {
            let (raw, _) = uniform_schedule(&g, b, &UniformParams { c: cfg.c, seed: s });
            longest_valid_prefix(&g, &batteries, &raw, 1)
        });
        assert_eq!(via_trait, direct, "seed {seed} trials {trials} b {b}");
    }
}

#[test]
fn general_solver_matches_raw_best_of() {
    let g = gnp_with_avg_degree(100, 20.0, 7);
    let mut rng = StdRng::seed_from_u64(5);
    let batteries = Batteries::from_vec((0..100).map(|_| rng.random_range(1..6)).collect());
    for (seed, trials) in [(0u64, 8u64), (42, 4)] {
        let cfg = SolverConfig::new().seed(seed).trials(trials);
        let via_trait = GeneralSolver.schedule(&g, &batteries, &cfg).unwrap();
        let direct = best_of_reference(trials, seed, |s| {
            let (raw, _) = general_schedule(&g, &batteries, &GeneralParams { c: cfg.c, seed: s });
            longest_valid_prefix(&g, &batteries, &raw, 1)
        });
        assert_eq!(via_trait, direct, "seed {seed} trials {trials}");
    }
}

#[test]
fn fault_tolerant_solver_matches_raw_best_of() {
    let g = gnp_with_avg_degree(120, 40.0, 3);
    for (seed, k, b) in [(0u64, 2usize, 4u64), (7, 3, 6)] {
        let cfg = SolverConfig::new().seed(seed).trials(4).k(k);
        let batteries = Batteries::uniform(g.n(), b);
        let via_trait = FaultTolerantSolver.schedule(&g, &batteries, &cfg).unwrap();
        let direct = best_of_reference(4, seed, |s| {
            let run = fault_tolerant_schedule(&g, b, k, &UniformParams { c: cfg.c, seed: s });
            longest_valid_prefix(&g, &batteries, &run.schedule, k)
        });
        assert_eq!(via_trait, direct, "seed {seed} k {k}");
        assert_eq!(FaultTolerantSolver.tolerance(&cfg), k);
    }
}

#[test]
fn greedy_solver_matches_greedy_general_schedule() {
    let g = gnp_with_avg_degree(80, 15.0, 11);
    let mut rng = StdRng::seed_from_u64(2);
    let batteries = Batteries::from_vec((0..80).map(|_| rng.random_range(0..5)).collect());
    let cfg = SolverConfig::new();
    let via_trait = GreedySolver.schedule(&g, &batteries, &cfg).unwrap();
    assert_eq!(via_trait, greedy_general_schedule(&g, &batteries));
}

#[test]
fn prelude_exposes_the_registry() {
    // The satellite contract: `domatic_core::prelude::*` is enough to
    // look up and drive any registered solver.
    use domatic_core::prelude::*;
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let b = Batteries::uniform(4, 2);
    for name in solver_names() {
        let solver = make_solver(name).unwrap();
        let cfg = SolverConfig::new().trials(2);
        cfg.validate().unwrap();
        let s = solver.schedule(&g, &b, &cfg).unwrap();
        assert!(s.lifetime() >= 1, "{name}");
    }
    assert!(matches!(
        make_solver("bogus"),
        Err(DomaticError::UnknownSolver { .. })
    ));
}

/// FNV-1a over every slot's duration, size and members, in order: two
/// schedules share a checksum only if they are slot-for-slot identical.
fn schedule_checksum(s: &Schedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in s.entries() {
        let words = [e.duration, e.set.len() as u64];
        for x in words.into_iter().chain(e.set.iter().map(u64::from)) {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Every registry solver at `seed(3).trials(4)` on a dense uniform-battery
/// G(n,p) and a sparse mixed-battery RGG, pinned to its (lifetime,
/// schedule checksum); `None` marks a solver that must reject the
/// instance. The pool size is fixed per process and CI runs this binary
/// at one rayon thread and at four, so the same table pins both.
#[test]
fn solver_matrix_is_pinned() {
    type Cells = [(&'static str, Option<(u64, u64)>); 6];
    let gnp = gnp_with_avg_degree(240, 60.0, 240);
    let rgg = random_geometric(200, radius_for_avg_degree(200, 20.0), 200).graph;
    let mixed = Batteries::from_vec((0..rgg.n() as u64).map(|v| 1 + (v * 7 + 3) % 5).collect());
    let matrix: [(&str, Graph, Batteries, Cells); 2] = [
        (
            "gnp_n240_b3",
            gnp,
            Batteries::uniform(240, 3),
            [
                ("greedy", Some((69, 12765589152285193227))),
                ("uniform", Some((6, 2300991765076391468))),
                ("general", Some((6, 7721914816395521653))),
                ("tabu", Some((72, 1868269774867735230))),
                ("sa", Some((69, 12765589152285193227))),
                ("portfolio", Some((72, 1868269774867735230))),
            ],
        ),
        (
            "rgg_n200_mixed",
            rgg,
            mixed,
            [
                ("greedy", Some((19, 13058652645992421108))),
                ("uniform", None),
                ("general", Some((1, 8381503026950716231))),
                ("tabu", Some((19, 13058652645992421108))),
                ("sa", Some((19, 13058652645992421108))),
                ("portfolio", Some((19, 13058652645992421108))),
            ],
        ),
    ];
    let cfg = SolverConfig::new().seed(3).trials(4);
    for (instance, g, b, cells) in &matrix {
        for &(name, pinned) in cells {
            let got = make_solver(name).unwrap().schedule(g, b, &cfg);
            match pinned {
                Some(pin) => {
                    let s = got.unwrap_or_else(|e| panic!("{instance}/{name}: {e}"));
                    assert_eq!(
                        (s.lifetime(), schedule_checksum(&s)),
                        pin,
                        "{instance}/{name}"
                    );
                }
                None => assert!(
                    matches!(got, Err(DomaticError::NonUniformBatteries { .. })),
                    "{instance}/{name} must reject the instance"
                ),
            }
        }
    }
}
