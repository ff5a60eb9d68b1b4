//! Clocking of the simulated appliance.
//!
//! All timing-model costs are expressed in *kernel-clock cycles* of the
//! DFX core (200 MHz on the Alveo U280, paper §VI). Off-chip interfaces
//! with their own clocks (HBM at 410 MHz memory interface, Aurora serial
//! links) are converted to kernel-cycle-equivalent throughput at model
//! construction time.

use serde::{Deserialize, Serialize};

/// Kernel clock frequency of the DFX core (paper §VI: 200 MHz).
pub const CORE_CLOCK_HZ: f64 = 200.0e6;

/// A number of kernel-clock cycles.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Converts to seconds at the core clock.
    pub fn to_seconds(self) -> f64 {
        self.0 as f64 / CORE_CLOCK_HZ
    }

    /// Converts to milliseconds at the core clock.
    pub fn to_millis(self) -> f64 {
        self.to_seconds() * 1e3
    }

    /// Converts to microseconds at the core clock.
    pub fn to_micros(self) -> f64 {
        self.to_seconds() * 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl std::fmt::Display for Cycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrip() {
        let c = Cycles(200); // 1 µs at 200 MHz
        assert!((c.to_micros() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Cycles(3) + Cycles(4), Cycles(7));
        assert_eq!(Cycles(3) * 4, Cycles(12));
        assert_eq!(Cycles(3).saturating_sub(Cycles(5)), Cycles::ZERO);
        let total: Cycles = [Cycles(1), Cycles(2)].into_iter().sum();
        assert_eq!(total, Cycles(3));
    }
}
