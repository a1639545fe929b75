//! Node-failure injection for fault-tolerance experiments (paper §6: "node
//! failure is an event of non-negligible probability").
//!
//! Two generations of machinery live here:
//!
//! - [`FailureInjector`] mutates a `dead` mask slot by slot as the
//!   simulator runs — fine for the forward simulator, but its draws
//!   depend on *when* it is called, so a runtime that replans (and hence
//!   changes its own call pattern) would perturb the failure sequence.
//! - [`FailurePlan`] **pre-draws** every failure event from a seeded RNG
//!   before execution starts: crash slots, battery-noise drain events,
//!   and transient radio losses are all fixed up front. The adaptive
//!   runtime reads the plan; two runs with the same seed see byte-for-byte
//!   identical failure histories no matter how differently they replan.

use domatic_graph::{NodeId, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Kills nodes during a simulation: independent per-slot crashes or a
/// scripted kill list.
#[derive(Clone, Debug)]
pub struct FailureInjector {
    /// Per-node, per-slot crash probability.
    pub p_crash: f64,
    rng: StdRng,
    scripted: Vec<(u64, NodeId)>,
}

impl FailureInjector {
    /// Random crashes only.
    pub fn random(p_crash: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_crash),
            "p_crash must be a probability"
        );
        FailureInjector {
            p_crash,
            rng: StdRng::seed_from_u64(seed),
            scripted: Vec::new(),
        }
    }

    /// Scripted failures only: `(slot, node)` pairs.
    pub fn scripted(kills: Vec<(u64, NodeId)>) -> Self {
        FailureInjector {
            p_crash: 0.0,
            rng: StdRng::seed_from_u64(0),
            scripted: kills,
        }
    }

    /// Applies this slot's failures to the `dead` mask. Called by the
    /// simulator once per slot with the slot index.
    pub fn kill_this_slot(&mut self, slot: u64, dead: &mut NodeSet) {
        for &(s, v) in &self.scripted {
            if s == slot && (v as usize) < dead.universe() {
                dead.insert(v);
            }
        }
        if self.p_crash > 0.0 {
            for v in 0..dead.universe() as NodeId {
                if !dead.contains(v) && self.rng.random::<f64>() < self.p_crash {
                    dead.insert(v);
                }
            }
        }
    }
}

/// A failure process the adaptive runtime can be subjected to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FailureModel {
    /// Per-node, per-slot probability of a permanent crash. A crashed
    /// node neither serves nor needs coverage.
    Crash {
        /// Crash probability per node per slot.
        p: f64,
    },
    /// Battery drift: with probability `p`, an *active* slot drains two
    /// budget units instead of one (calibration error, temperature, aging)
    /// — the node's real battery runs ahead of the planner's ledger.
    BatteryNoise {
        /// Double-drain probability per active slot.
        p: f64,
    },
    /// Transient radio loss: with probability `p` a node is unreachable
    /// for one slot (its battery still drains — the radio failed, not the
    /// node). Each loss carries a pre-drawn number of retry attempts
    /// after which the link recovers within the slot.
    TransientLoss {
        /// Loss probability per node per slot.
        p: f64,
    },
}

impl FailureModel {
    /// Short name for tables and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            FailureModel::Crash { .. } => "crash",
            FailureModel::BatteryNoise { .. } => "battery-noise",
            FailureModel::TransientLoss { .. } => "transient-loss",
        }
    }

    /// Parses a CLI spec: `crash`, `battery-noise`, `transient-loss`
    /// (with probability `p`), or `none`.
    pub fn parse(name: &str, p: f64) -> Option<Vec<FailureModel>> {
        match name {
            "none" => Some(vec![]),
            "crash" => Some(vec![FailureModel::Crash { p }]),
            "battery-noise" => Some(vec![FailureModel::BatteryNoise { p }]),
            "transient-loss" => Some(vec![FailureModel::TransientLoss { p }]),
            "all" => Some(vec![
                FailureModel::Crash { p },
                FailureModel::BatteryNoise { p },
                FailureModel::TransientLoss { p },
            ]),
            _ => None,
        }
    }
}

/// Draws slot gaps of a geometric distribution with success probability
/// `p` (`None` means "never" for `p <= 0`).
fn geometric(rng: &mut StdRng, p: f64) -> Option<u64> {
    if p <= 0.0 {
        return None;
    }
    if p >= 1.0 {
        return Some(0);
    }
    let u: f64 = rng.random::<f64>();
    Some((u.max(1e-300).ln() / (1.0 - p).ln()).floor() as u64)
}

/// Every failure event of a run, pre-drawn from one seeded RNG so runs
/// are reproducible under `--seed` regardless of how the consumer reacts.
#[derive(Clone, Debug, Default)]
pub struct FailurePlan {
    n: usize,
    horizon: u64,
    /// `crash_slot[v]` — the slot at whose start `v` crashes, if any.
    crash_slot: Vec<Option<u64>>,
    /// Active slots that drain double: `(slot, node)`.
    extra_drain: HashSet<(u64, NodeId)>,
    /// Transient losses: `(slot, node) → retry attempts needed to reach
    /// the node within that slot`.
    loss_attempts: HashMap<(u64, NodeId), u32>,
}

impl FailurePlan {
    /// A plan with no failures at all (the control arm).
    pub fn none(n: usize, horizon: u64) -> Self {
        FailurePlan {
            n,
            horizon,
            crash_slot: vec![None; n],
            extra_drain: HashSet::new(),
            loss_attempts: HashMap::new(),
        }
    }

    /// Pre-draws all events of the given models over `horizon` slots.
    /// The draw order is fixed (model by model, node by node), so a seed
    /// fully determines the plan.
    pub fn draw(models: &[FailureModel], n: usize, horizon: u64, seed: u64) -> Self {
        let mut plan = FailurePlan::none(n, horizon);
        let mut rng = StdRng::seed_from_u64(seed);
        for model in models {
            match *model {
                FailureModel::Crash { p } => {
                    for v in 0..n {
                        if let Some(g) = geometric(&mut rng, p) {
                            if g < horizon {
                                let prev = plan.crash_slot[v];
                                plan.crash_slot[v] = Some(prev.map_or(g, |old: u64| old.min(g)));
                            }
                        }
                    }
                }
                FailureModel::BatteryNoise { p } => {
                    for v in 0..n as NodeId {
                        let mut t = 0u64;
                        while let Some(g) = geometric(&mut rng, p) {
                            let Some(slot) = t.checked_add(g) else { break };
                            if slot >= horizon {
                                break;
                            }
                            plan.extra_drain.insert((slot, v));
                            t = slot + 1;
                        }
                    }
                }
                FailureModel::TransientLoss { p } => {
                    for v in 0..n as NodeId {
                        let mut t = 0u64;
                        while let Some(g) = geometric(&mut rng, p) {
                            let Some(slot) = t.checked_add(g) else { break };
                            if slot >= horizon {
                                break;
                            }
                            let attempts = rng.random_range(1..=3u32);
                            plan.loss_attempts.insert((slot, v), attempts);
                            t = slot + 1;
                        }
                    }
                }
            }
        }
        plan
    }

    /// Number of nodes the plan covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Slots the plan was drawn for.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The slot at whose start `v` crashes, if any.
    pub fn crash_slot(&self, v: NodeId) -> Option<u64> {
        self.crash_slot[v as usize]
    }

    /// Whether `v` has crashed by the start of `slot`.
    pub fn crashed(&self, v: NodeId, slot: u64) -> bool {
        self.crash_slot[v as usize].is_some_and(|s| s <= slot)
    }

    /// Nodes that crash exactly at `slot`.
    pub fn crashes_at(&self, slot: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.crash_slot
            .iter()
            .enumerate()
            .filter(move |(_, s)| **s == Some(slot))
            .map(|(v, _)| v as NodeId)
    }

    /// Whether an active slot `(slot, v)` drains double.
    pub fn double_drain(&self, slot: u64, v: NodeId) -> bool {
        self.extra_drain.contains(&(slot, v))
    }

    /// Retry attempts needed to reach `v` at `slot` (0 = reachable on the
    /// first try, i.e. no loss event).
    pub fn loss_attempts(&self, slot: u64, v: NodeId) -> u32 {
        self.loss_attempts.get(&(slot, v)).copied().unwrap_or(0)
    }

    /// Total pre-drawn events, for reporting.
    pub fn event_counts(&self) -> (usize, usize, usize) {
        (
            self.crash_slot.iter().filter(|s| s.is_some()).count(),
            self.extra_drain.len(),
            self.loss_attempts.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_kills_fire_on_their_slot() {
        let mut inj = FailureInjector::scripted(vec![(2, 1), (5, 3)]);
        let mut dead = NodeSet::new(6);
        inj.kill_this_slot(0, &mut dead);
        assert!(dead.is_empty());
        inj.kill_this_slot(2, &mut dead);
        assert_eq!(dead.to_vec(), vec![1]);
        inj.kill_this_slot(5, &mut dead);
        assert_eq!(dead.to_vec(), vec![1, 3]);
    }

    #[test]
    fn random_crashes_accumulate() {
        let mut inj = FailureInjector::random(0.5, 42);
        let mut dead = NodeSet::new(100);
        for slot in 0..10 {
            inj.kill_this_slot(slot, &mut dead);
        }
        // P[survive 10 slots] = 2^-10; essentially everyone is dead.
        assert!(dead.len() >= 95, "only {} dead", dead.len());
    }

    #[test]
    fn zero_probability_never_kills() {
        let mut inj = FailureInjector::random(0.0, 1);
        let mut dead = NodeSet::new(50);
        for slot in 0..100 {
            inj.kill_this_slot(slot, &mut dead);
        }
        assert!(dead.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut inj = FailureInjector::random(0.3, seed);
            let mut dead = NodeSet::new(40);
            inj.kill_this_slot(0, &mut dead);
            dead.to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        FailureInjector::random(1.5, 0);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let models = [
            FailureModel::Crash { p: 0.05 },
            FailureModel::BatteryNoise { p: 0.2 },
            FailureModel::TransientLoss { p: 0.1 },
        ];
        let a = FailurePlan::draw(&models, 30, 200, 9);
        let b = FailurePlan::draw(&models, 30, 200, 9);
        let c = FailurePlan::draw(&models, 30, 200, 10);
        assert_eq!(a.crash_slot, b.crash_slot);
        assert_eq!(a.extra_drain, b.extra_drain);
        assert_eq!(a.loss_attempts, b.loss_attempts);
        assert_ne!(
            (
                a.crash_slot.clone(),
                a.extra_drain.len(),
                a.loss_attempts.len()
            ),
            (
                c.crash_slot.clone(),
                c.extra_drain.len(),
                c.loss_attempts.len()
            )
        );
    }

    #[test]
    fn crash_queries_are_consistent() {
        let plan = FailurePlan::draw(&[FailureModel::Crash { p: 0.3 }], 50, 100, 3);
        for v in 0..50u32 {
            if let Some(s) = plan.crash_slot(v) {
                assert!(!plan.crashed(v, s.saturating_sub(1)) || s == 0);
                assert!(plan.crashed(v, s));
                assert!(plan.crashes_at(s).any(|u| u == v));
            }
        }
        // p = 0.3 over 100 slots: essentially everyone crashes.
        let (crashes, _, _) = plan.event_counts();
        assert!(crashes >= 45, "only {crashes} crashes");
    }

    #[test]
    fn none_plan_has_no_events() {
        let plan = FailurePlan::none(10, 50);
        assert_eq!(plan.event_counts(), (0, 0, 0));
        assert!(!plan.crashed(3, 49));
        assert!(!plan.double_drain(0, 0));
        assert_eq!(plan.loss_attempts(0, 0), 0);
    }

    #[test]
    fn loss_attempts_are_within_bounds() {
        let plan = FailurePlan::draw(&[FailureModel::TransientLoss { p: 0.5 }], 20, 100, 11);
        let (_, _, losses) = plan.event_counts();
        assert!(losses > 100, "expected many losses, got {losses}");
        for slot in 0..100 {
            for v in 0..20u32 {
                let a = plan.loss_attempts(slot, v);
                assert!(a <= 3);
            }
        }
    }

    #[test]
    fn model_parse_roundtrip() {
        assert_eq!(FailureModel::parse("none", 0.1), Some(vec![]));
        let crash = FailureModel::parse("crash", 0.1).unwrap();
        assert_eq!(crash, vec![FailureModel::Crash { p: 0.1 }]);
        assert_eq!(crash[0].label(), "crash");
        assert_eq!(FailureModel::parse("all", 0.2).unwrap().len(), 3);
        assert!(FailureModel::parse("meteor", 0.1).is_none());
    }
}
