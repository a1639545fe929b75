//! The energy model of the sensor-network simulation.
//!
//! The paper's premise (§1): "the energy consumed in the active mode …
//! is typically orders of magnitude higher than in the sleep mode." We
//! model per-slot costs for the two modes; the default ratio (100:1) is the
//! conservative end of that "orders of magnitude".

/// Per-slot energy costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Energy a node spends per slot while active (clusterhead duty:
    /// radio on, sensing, forwarding).
    pub active_cost: f64,
    /// Energy per slot while asleep (clock + wake-up radio).
    pub sleep_cost: f64,
}

impl EnergyModel {
    /// The default model: active = 1 unit/slot, sleep = 0.01 unit/slot.
    pub fn standard() -> Self {
        EnergyModel {
            active_cost: 1.0,
            sleep_cost: 0.01,
        }
    }

    /// An idealized model where sleeping is completely free — this matches
    /// the paper's abstraction, where `b_v` counts only active slots.
    pub fn ideal() -> Self {
        EnergyModel {
            active_cost: 1.0,
            sleep_cost: 0.0,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_ratio_is_100() {
        let m = EnergyModel::standard();
        assert!((m.active_cost / m.sleep_cost - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_sleep_is_free() {
        assert_eq!(EnergyModel::ideal().sleep_cost, 0.0);
    }
}
