//! The slot-by-slot network-lifetime simulation.
//!
//! Each slot: the strategy proposes an awake set; the simulator checks that
//! every *alive* node is k-dominated by awake serviceable nodes; awake
//! nodes pay the active cost, sleeping alive nodes pay the sleep cost; one
//! sensor reading per covered node counts as delivered. The network's
//! lifetime is the number of slots until coverage first fails — the
//! operational meaning of the paper's cluster-lifetime objective.

use crate::energy::EnergyModel;
use crate::failures::FailureInjector;
use crate::strategies::Strategy;
use domatic_graph::{Graph, NodeId, NodeSet};

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Energy model (active/sleep costs).
    pub model: EnergyModel,
    /// Required dominator count per alive node (1 = plain domination).
    pub k: usize,
    /// Hard stop (guards against immortal ideal-model runs).
    pub max_slots: u64,
    /// Extra energy a node pays in a slot where it wakes up after being
    /// asleep (cluster-handover beacons, neighbor re-discovery). The
    /// paper's schedules dwell `b` consecutive slots on each class —
    /// exactly the shape that minimizes this cost; experiment E15 ablates
    /// it against fine-grained rotation.
    pub switch_cost: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            model: EnergyModel::standard(),
            k: 1,
            max_slots: 1_000_000,
            switch_cost: 0.0,
        }
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Slots survived with full (k-)coverage of alive nodes.
    pub lifetime: u64,
    /// Total sensor readings delivered (alive covered nodes × slots).
    pub delivered: u64,
    /// Total energy drained from all batteries.
    pub energy_spent: f64,
    /// Time-weighted mean awake-set size.
    pub mean_active: f64,
    /// Sleep→awake transitions across the run (handover volume).
    pub wakeups: u64,
    /// Why the run ended.
    pub end: EndReason,
}

/// Why a simulation stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndReason {
    /// The strategy returned `None`.
    StrategyConceded,
    /// The proposed set failed to k-dominate the alive nodes.
    CoverageLost,
    /// `max_slots` reached (e.g. ideal model with sleepers immortal).
    SlotLimit,
    /// Every node died (battery or failure injection).
    AllDead,
}

/// One slot's observable state, passed to the observer of
/// [`simulate_observed`].
#[derive(Clone, Debug)]
pub struct SlotRecord {
    /// Slot index (0-based).
    pub slot: u64,
    /// The awake set that served this slot.
    pub awake: NodeSet,
    /// Alive nodes covered this slot.
    pub covered: u64,
    /// Alive nodes at the start of the slot.
    pub alive: u64,
}

/// Runs `strategy` until coverage fails.
///
/// `failures` optionally kills nodes over time (see
/// [`crate::failures::FailureInjector`]); dead nodes neither serve nor
/// require coverage.
pub fn simulate(
    g: &Graph,
    initial_energy: &[f64],
    strategy: &mut dyn Strategy,
    config: &SimConfig,
    failures: Option<&mut FailureInjector>,
) -> SimResult {
    simulate_observed(g, initial_energy, strategy, config, failures, &mut |_| {})
}

/// [`simulate`] with a per-slot observer, called once for every slot that
/// *succeeds* (maintains coverage). Use it to record traces without
/// paying for them when not needed.
pub fn simulate_observed(
    g: &Graph,
    initial_energy: &[f64],
    strategy: &mut dyn Strategy,
    config: &SimConfig,
    mut failures: Option<&mut FailureInjector>,
    observer: &mut dyn FnMut(SlotRecord),
) -> SimResult {
    assert_eq!(g.n(), initial_energy.len(), "graph/energy size mismatch");
    let _span = domatic_telemetry::span!("netsim.simulate");
    let n = g.n();
    let mut energy = initial_energy.to_vec();
    let mut dead = NodeSet::new(n);
    let mut lifetime = 0u64;
    let mut delivered = 0u64;
    let mut active_weighted = 0u128;
    let mut wakeups = 0u64;
    let mut prev_awake = NodeSet::new(n);

    let end = loop {
        if lifetime >= config.max_slots {
            break EndReason::SlotLimit;
        }
        // Battery deaths (sleep drain can kill a node outright).
        for (v, &e) in energy.iter().enumerate() {
            if e <= 0.0 {
                dead.insert(v as NodeId);
            }
        }
        // Injected failures.
        if let Some(inj) = failures.as_deref_mut() {
            let before = dead.len();
            inj.kill_this_slot(lifetime, &mut dead);
            domatic_telemetry::count!("netsim.injected_failures", (dead.len() - before) as u64);
        }
        if dead.len() == n {
            break EndReason::AllDead;
        }
        let Some(proposed) = strategy.next_active(g, &energy, &config.model, lifetime) else {
            break EndReason::StrategyConceded;
        };
        // Awake = proposed ∩ serviceable ∩ alive.
        let mut awake = proposed;
        awake.intersect_with(&crate::strategies::serviceable(&energy, &config.model));
        awake.difference_with(&dead);
        // Coverage check over alive nodes.
        let covered = |v: NodeId| -> bool {
            let mut c = usize::from(awake.contains(v));
            for &u in g.neighbors(v) {
                c += usize::from(awake.contains(u));
                if c >= config.k {
                    return true;
                }
            }
            c >= config.k
        };
        let mut all_covered = true;
        let mut covered_count = 0u64;
        for v in 0..n as NodeId {
            if dead.contains(v) {
                continue;
            }
            if covered(v) {
                covered_count += 1;
            } else {
                all_covered = false;
                break;
            }
        }
        if !all_covered {
            break EndReason::CoverageLost;
        }
        // Charge energy and record the slot.
        for v in 0..n as NodeId {
            if dead.contains(v) {
                continue;
            }
            let mut cost = if awake.contains(v) {
                config.model.active_cost
            } else {
                config.model.sleep_cost
            };
            if awake.contains(v) && !prev_awake.contains(v) {
                cost += config.switch_cost;
                wakeups += 1;
            }
            energy[v as usize] -= cost;
        }
        delivered += covered_count;
        active_weighted += awake.len() as u128;
        observer(SlotRecord {
            slot: lifetime,
            awake: awake.clone(),
            covered: covered_count,
            alive: n as u64 - dead.len() as u64,
        });
        prev_awake = awake;
        lifetime += 1;
    };

    let energy_spent: f64 = initial_energy
        .iter()
        .zip(&energy)
        .map(|(&e0, &e)| e0 - e.max(0.0))
        .sum();
    let telemetry = domatic_telemetry::global();
    domatic_telemetry::count!("netsim.slots", lifetime);
    domatic_telemetry::count!("netsim.delivered", delivered);
    domatic_telemetry::count!("netsim.wakeups", wakeups);
    domatic_telemetry::count!("netsim.deaths", dead.len() as u64);
    telemetry.observe_f64("netsim.energy_spent", energy_spent);
    SimResult {
        lifetime,
        delivered,
        energy_spent,
        mean_active: if lifetime == 0 {
            0.0
        } else {
            active_weighted as f64 / lifetime as f64
        },
        wakeups,
        end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{AllActive, DomaticRotation, SingleMds};
    use domatic_graph::generators::regular::star;
    use domatic_graph::NodeSet;

    /// Runs [`simulate_observed`] under the standard model at `k = 1` and
    /// collects every record the observer receives.
    fn observe(
        g: &Graph,
        energy: &[f64],
        strategy: &mut dyn Strategy,
    ) -> (Vec<SlotRecord>, SimResult) {
        let cfg = SimConfig {
            max_slots: 1000,
            ..SimConfig::default()
        };
        let mut records = Vec::new();
        let res = simulate_observed(g, energy, strategy, &cfg, None, &mut |r| records.push(r));
        (records, res)
    }

    #[test]
    fn observer_sees_each_successful_slot_once_in_order() {
        let (records, res) = observe(&star(5), &[3.0; 5], &mut SingleMds::new());
        assert!(res.lifetime > 0);
        assert_eq!(records.len() as u64, res.lifetime);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.slot, i as u64);
        }
    }

    #[test]
    fn observed_slots_cover_every_alive_node() {
        let (records, _) = observe(&star(6), &[4.0; 6], &mut SingleMds::new());
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(r.covered, r.alive, "slot {}", r.slot);
        }
    }

    #[test]
    fn empty_run_calls_no_observer() {
        let (records, res) = observe(&star(3), &[0.0; 3], &mut SingleMds::new());
        assert!(records.is_empty());
        assert_eq!(res.lifetime, 0);
    }

    #[test]
    fn observed_awake_sets_follow_the_rotation_dwell() {
        let classes = vec![
            NodeSet::from_iter(5, [0]),
            NodeSet::from_iter(5, [1, 2, 3, 4]),
        ];
        let mut rotation = DomaticRotation::new(classes.clone(), 2);
        let (records, res) = observe(&star(5), &[2.0; 5], &mut rotation);
        // Two slots on the center, then one on the leaves.
        assert_eq!(res.lifetime, 3);
        for r in &records {
            let dwelt = &classes[(r.slot / 2) as usize % classes.len()];
            assert_eq!(&r.awake, dwelt, "slot {}", r.slot);
        }
    }

    #[test]
    fn all_active_dies_fast_on_star() {
        let g = star(5);
        let mut strat = AllActive;
        let cfg = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 1000,
            switch_cost: 0.0,
        };
        let res = simulate(&g, &[3.0; 5], &mut strat, &cfg, None);
        // Everyone burns 1/slot: 3 slots, then all serviceable = ∅.
        assert_eq!(res.lifetime, 3);
        assert_eq!(res.delivered, 15);
        assert_eq!(res.mean_active, 5.0);
    }

    #[test]
    fn single_mds_lives_center_plus_leaves() {
        let g = star(5);
        let mut strat = SingleMds::new();
        let cfg = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 1000,
            switch_cost: 0.0,
        };
        let res = simulate(&g, &[3.0; 5], &mut strat, &cfg, None);
        // Center serves 3 slots, then the 4 leaves serve 3 more.
        assert_eq!(res.lifetime, 6);
        assert!(res.mean_active > 1.0 && res.mean_active < 4.0);
    }

    #[test]
    fn domatic_outlives_all_active() {
        let g = star(5);
        let classes = vec![
            NodeSet::from_iter(5, [0]),
            NodeSet::from_iter(5, [1, 2, 3, 4]),
        ];
        let cfg = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 1000,
            switch_cost: 0.0,
        };
        let mut domatic = DomaticRotation::new(classes, 3);
        let d = simulate(&g, &[3.0; 5], &mut domatic, &cfg, None);
        let mut all = AllActive;
        let a = simulate(&g, &[3.0; 5], &mut all, &cfg, None);
        assert!(
            d.lifetime > a.lifetime,
            "domatic {} vs all {}",
            d.lifetime,
            a.lifetime
        );
        assert_eq!(d.lifetime, 6);
    }

    #[test]
    fn sleep_drain_shortens_lifetime() {
        let g = star(5);
        let classes = vec![
            NodeSet::from_iter(5, [0]),
            NodeSet::from_iter(5, [1, 2, 3, 4]),
        ];
        let ideal = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 1000,
            switch_cost: 0.0,
        };
        let drain = SimConfig {
            model: EnergyModel {
                active_cost: 1.0,
                sleep_cost: 0.5,
            },
            k: 1,
            max_slots: 1000,
            switch_cost: 0.0,
        };
        let di = simulate(
            &g,
            &[4.0; 5],
            &mut DomaticRotation::new(classes.clone(), 4),
            &ideal,
            None,
        );
        let dd = simulate(
            &g,
            &[4.0; 5],
            &mut DomaticRotation::new(classes, 4),
            &drain,
            None,
        );
        assert!(dd.lifetime < di.lifetime);
    }

    #[test]
    fn k2_coverage_requires_two_dominators() {
        let g = star(5);
        let cfg = SimConfig {
            model: EnergyModel::ideal(),
            k: 2,
            max_slots: 100,
            switch_cost: 0.0,
        };
        // Only the center awake: leaves have 1 dominator (the center)…
        // and a leaf needs 2 → coverage lost immediately.
        let classes = vec![NodeSet::from_iter(5, [0])];
        let res = simulate(
            &g,
            &[5.0; 5],
            &mut DomaticRotation::new(classes, 1),
            &cfg,
            None,
        );
        assert_eq!(res.lifetime, 0);
        assert_eq!(res.end, EndReason::CoverageLost);
        // Center + one leaf: that leaf has 2 (self + center), others 1 → still lost.
        // Center + all leaves: everyone has ≥ 2.
        let all = vec![NodeSet::full(5)];
        let res2 = simulate(&g, &[5.0; 5], &mut DomaticRotation::new(all, 1), &cfg, None);
        assert!(res2.lifetime > 0);
    }

    #[test]
    fn slot_limit_guards_infinite_runs() {
        // Ideal model, classes that never deplete… sleepers immortal and
        // the two classes alternate forever on a big battery.
        let g = star(3);
        let classes = vec![NodeSet::from_iter(3, [0]), NodeSet::from_iter(3, [1, 2])];
        let cfg = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 50,
            switch_cost: 0.0,
        };
        let res = simulate(
            &g,
            &[1e9; 3],
            &mut DomaticRotation::new(classes, 1),
            &cfg,
            None,
        );
        assert_eq!(res.lifetime, 50);
        assert_eq!(res.end, EndReason::SlotLimit);
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let g = star(4);
        let cfg = SimConfig {
            model: EnergyModel::standard(),
            k: 1,
            max_slots: 100,
            switch_cost: 0.0,
        };
        let res = simulate(&g, &[2.0; 4], &mut SingleMds::new(), &cfg, None);
        // Spent = lifetime × (1 active + 3 sleepers × 0.01) while the
        // center serves (2 slots), then leaves take over.
        assert!(res.energy_spent > 0.0);
        assert!(res.energy_spent <= 8.0 + 1e-9);
    }

    #[test]
    fn wakeups_count_sleep_to_awake_transitions() {
        // Star, two classes, dwell 1 under the ideal model: the awake set
        // alternates every slot, so every slot after the first re-wakes
        // its whole class.
        let g = star(5);
        let classes = vec![
            NodeSet::from_iter(5, [0]),
            NodeSet::from_iter(5, [1, 2, 3, 4]),
        ];
        let cfg = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 6,
            switch_cost: 0.0,
        };
        let res = simulate(
            &g,
            &[100.0; 5],
            &mut DomaticRotation::new(classes.clone(), 1),
            &cfg,
            None,
        );
        // Slots: C0, C1, C0, C1, C0, C1 → wakeups 1 + 4 + 1 + 4 + 1 + 4.
        assert_eq!(res.wakeups, 15);
        // Dwell 3: C0 ×3 then C1 ×3 → wakeups 1 + 4.
        let res2 = simulate(
            &g,
            &[100.0; 5],
            &mut DomaticRotation::new(classes, 3),
            &cfg,
            None,
        );
        assert_eq!(res2.wakeups, 5);
    }

    #[test]
    fn switch_cost_shortens_fine_grained_rotations() {
        let g = star(5);
        let classes = vec![
            NodeSet::from_iter(5, [0]),
            NodeSet::from_iter(5, [1, 2, 3, 4]),
        ];
        let free = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 1000,
            switch_cost: 0.0,
        };
        let taxed = SimConfig {
            model: EnergyModel::ideal(),
            k: 1,
            max_slots: 1000,
            switch_cost: 0.5,
        };
        let energy = [6.0; 5];
        let l_free = simulate(
            &g,
            &energy,
            &mut DomaticRotation::new(classes.clone(), 1),
            &free,
            None,
        );
        let l_taxed = simulate(
            &g,
            &energy,
            &mut DomaticRotation::new(classes.clone(), 1),
            &taxed,
            None,
        );
        assert!(
            l_taxed.lifetime < l_free.lifetime,
            "{} !< {}",
            l_taxed.lifetime,
            l_free.lifetime
        );
        // Block dwell (the paper's schedule shape) pays the tax only once
        // per class and loses almost nothing.
        let l_block = simulate(
            &g,
            &energy,
            &mut DomaticRotation::new(classes, 6),
            &taxed,
            None,
        );
        assert!(l_block.lifetime > l_taxed.lifetime);
    }
}
