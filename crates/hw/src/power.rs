//! Board power model.
//!
//! The paper measures board power with `xbutil` (FPGA) and `nvidia-smi`
//! (GPU): each U280 averages 45 W during inference — low not because of
//! underutilisation but because of the 200 MHz kernel clock (§VII-B).
//! The model splits that into a static floor plus an activity-scaled
//! dynamic component, so partially idle phases (e.g. synchronisation
//! waits) draw less.

use serde::{Deserialize, Serialize};

/// Power model of one accelerator card.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static power: shell, HBM refresh, transceivers (W).
    pub static_watts: f64,
    /// Dynamic power at 100% datapath activity (W).
    pub dynamic_watts: f64,
}

impl PowerModel {
    /// The U280 running the DFX core, calibrated so typical inference
    /// activity (~0.75) lands on the measured 45 W.
    pub fn u280_dfx() -> Self {
        PowerModel {
            static_watts: 24.0,
            dynamic_watts: 28.0,
        }
    }

    /// Average power at a given datapath activity in `[0, 1]`.
    pub fn average_watts(&self, activity: f64) -> f64 {
        self.static_watts + self.dynamic_watts * activity.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_activity_matches_measured_45_watts() {
        let p = PowerModel::u280_dfx();
        let w = p.average_watts(0.75);
        assert!((w - 45.0).abs() < 1.0, "{w} W");
    }

    #[test]
    fn activity_is_clamped() {
        let p = PowerModel::u280_dfx();
        assert_eq!(p.average_watts(1.5), p.average_watts(1.0));
        assert_eq!(p.average_watts(-1.0), p.static_watts);
    }
}
