//! E19 — extension: graceful degradation under failures, static vs
//! adaptive execution.
//!
//! The paper's schedules are computed once and executed open-loop; any
//! node crash or battery surprise silently ends coverage. The adaptive
//! runtime (`domatic_netsim::adaptive`) executes the same initial
//! schedule as a control loop: it watches for divergence and re-plans
//! over the surviving subgraph with the residual budgets. This
//! experiment quantifies what that buys under each failure model —
//! crashes, battery drift, transient radio loss, and all three at once —
//! at a fixed seed (the failure trace is pre-drawn, so static and
//! adaptive face *identical* adversity).

use crate::experiments::table::Table;
use crate::experiments::workloads::Family;
use domatic_core::solver::{GeneralSolver, SolverConfig};
use domatic_netsim::{compare_static_adaptive, AdaptiveConfig, FailureModel, FailurePlan};
use domatic_schedule::Batteries;

/// The failure regimes compared, as `(label, models)` rows.
fn regimes() -> Vec<(&'static str, Vec<FailureModel>)> {
    vec![
        ("crash", vec![FailureModel::Crash { p: 0.004 }]),
        (
            "battery-noise",
            vec![FailureModel::BatteryNoise { p: 0.15 }],
        ),
        (
            "transient-loss",
            vec![FailureModel::TransientLoss { p: 0.05 }],
        ),
        (
            "all",
            vec![
                FailureModel::Crash { p: 0.004 },
                FailureModel::BatteryNoise { p: 0.15 },
                FailureModel::TransientLoss { p: 0.05 },
            ],
        ),
    ]
}

/// Runs E19 and returns its tables.
pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E19 / failure survival — static (open-loop) vs adaptive (replanning) execution",
        &[
            "family", "n", "failures", "planned", "static", "adaptive", "delta", "replans",
            "retries", "deaths", "end",
        ],
    );
    let solver = GeneralSolver;
    let scfg = SolverConfig::new().seed(17).trials(8);
    for (family, n, b) in [
        (Family::Gnp { avg_degree: 25.0 }, 200usize, 6u64),
        (Family::Rgg { avg_degree: 20.0 }, 200, 6),
    ] {
        let g = family.build(n, 23 + n as u64);
        let batteries = Batteries::uniform(g.n(), b);
        for (label, models) in regimes() {
            let acfg = AdaptiveConfig {
                max_slots: 5_000,
                ..AdaptiveConfig::default()
            };
            let plan = FailurePlan::draw(&models, g.n(), acfg.max_slots, 90 + n as u64);
            let cmp = compare_static_adaptive(&g, &batteries, &solver, &scfg, &acfg, &plan)
                .expect("uniform batteries are always schedulable");
            t.row(vec![
                family.label(),
                n.to_string(),
                label.to_string(),
                cmp.planned.to_string(),
                cmp.static_run.lifetime.to_string(),
                cmp.adaptive.lifetime.to_string(),
                format!("{:+}", cmp.delta()),
                cmp.adaptive.replans.to_string(),
                cmp.adaptive.retries.to_string(),
                cmp.adaptive.deaths.to_string(),
                cmp.adaptive.end.label().to_string(),
            ]);
        }
    }
    t.note("both columns execute the same initial schedule against the same pre-drawn failure trace; only the control loop differs");
    t.note("crash: adaptive re-plans around dead nodes; battery-noise: drift telemetry triggers re-plans before brown-outs;");
    t.note("transient-loss: per-slot retries absorb radio fades; replanning also harvests residual energy the static plan strands");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table::assert_pinned;

    /// The acceptance bar: at a fixed seed, adaptive execution survives at
    /// least as long as static under *every* failure model.
    #[test]
    fn adaptive_never_worse_than_static_under_any_regime() {
        assert_pinned(&run(), &[8], "5785e465e0f6052b");
        let solver = GeneralSolver;
        let scfg = SolverConfig::new().seed(17).trials(4);
        let g = Family::Gnp { avg_degree: 25.0 }.build(120, 23 + 120);
        let batteries = Batteries::uniform(g.n(), 5);
        for (label, models) in regimes() {
            let acfg = AdaptiveConfig {
                max_slots: 2_000,
                ..AdaptiveConfig::default()
            };
            let plan = FailurePlan::draw(&models, g.n(), acfg.max_slots, 90 + 120);
            let cmp =
                compare_static_adaptive(&g, &batteries, &solver, &scfg, &acfg, &plan).unwrap();
            assert!(
                cmp.adaptive.lifetime >= cmp.static_run.lifetime,
                "{label}: adaptive {} < static {}",
                cmp.adaptive.lifetime,
                cmp.static_run.lifetime
            );
        }
    }
}
