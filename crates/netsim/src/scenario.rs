//! The named real-life network scenarios of the paper's evaluation.
//!
//! Tables 3–5 evaluate under contexts like "4G (weak) indoor" or "WiFi
//! outdoor slow": a radio technology, a signal condition and a mobility
//! pattern (static / slow / quick). Each preset here maps one such context
//! to bandwidth-process parameters: weak signal ⇒ lower means and more
//! dropouts; faster motion ⇒ faster regime switching and higher volatility.

use serde::{Deserialize, Serialize};

use crate::process::ProcessConfig;
use crate::trace::BandwidthTrace;

/// A named network context from the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// "4G (weak) indoor"
    FourGWeakIndoor,
    /// "4G indoor static"
    FourGIndoorStatic,
    /// "4G indoor slow"
    FourGIndoorSlow,
    /// "4G outdoor quick"
    FourGOutdoorQuick,
    /// "WiFi (weak) indoor"
    WifiWeakIndoor,
    /// "WiFi (weak) outdoor"
    WifiWeakOutdoor,
    /// "WiFi outdoor slow"
    WifiOutdoorSlow,
}

impl Scenario {
    /// All scenarios, in the row order of Table 3 (VGG11 / Phone section).
    pub const ALL: [Scenario; 7] = [
        Scenario::FourGWeakIndoor,
        Scenario::FourGIndoorStatic,
        Scenario::FourGIndoorSlow,
        Scenario::FourGOutdoorQuick,
        Scenario::WifiWeakIndoor,
        Scenario::WifiWeakOutdoor,
        Scenario::WifiOutdoorSlow,
    ];

    /// The display name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::FourGWeakIndoor => "4G (weak) indoor",
            Scenario::FourGIndoorStatic => "4G indoor static",
            Scenario::FourGIndoorSlow => "4G indoor slow",
            Scenario::FourGOutdoorQuick => "4G outdoor quick",
            Scenario::WifiWeakIndoor => "WiFi (weak) indoor",
            Scenario::WifiWeakOutdoor => "WiFi (weak) outdoor",
            Scenario::WifiOutdoorSlow => "WiFi outdoor slow",
        }
    }

    /// Whether the context is cellular (4G) rather than WiFi.
    pub fn is_4g(self) -> bool {
        matches!(
            self,
            Scenario::FourGWeakIndoor
                | Scenario::FourGIndoorStatic
                | Scenario::FourGIndoorSlow
                | Scenario::FourGOutdoorQuick
        )
    }

    /// Bandwidth-process parameters for this context.
    pub fn process_config(self) -> ProcessConfig {
        match self {
            Scenario::FourGWeakIndoor => ProcessConfig {
                mean_low: 1.2,
                mean_high: 4.5,
                reversion: 0.9,
                sigma: 1.2,
                switch_rate: 0.06,
                dropout_rate: 0.03,
                dropout_secs: 1.2,
                floor: 0.05,
            },
            Scenario::FourGIndoorStatic => ProcessConfig {
                mean_low: 8.0,
                mean_high: 10.0,
                reversion: 1.6,
                sigma: 0.8,
                switch_rate: 0.01,
                dropout_rate: 0.003,
                dropout_secs: 0.6,
                floor: 0.3,
            },
            Scenario::FourGIndoorSlow => ProcessConfig {
                mean_low: 4.0,
                mean_high: 9.0,
                reversion: 1.0,
                sigma: 1.8,
                switch_rate: 0.08,
                dropout_rate: 0.015,
                dropout_secs: 0.8,
                floor: 0.15,
            },
            Scenario::FourGOutdoorQuick => ProcessConfig {
                mean_low: 2.0,
                mean_high: 18.0,
                reversion: 0.8,
                sigma: 4.5,
                switch_rate: 0.30,
                dropout_rate: 0.05,
                dropout_secs: 0.7,
                floor: 0.1,
            },
            Scenario::WifiWeakIndoor => ProcessConfig {
                mean_low: 2.5,
                mean_high: 12.0,
                reversion: 1.1,
                sigma: 2.8,
                switch_rate: 0.12,
                dropout_rate: 0.04,
                dropout_secs: 1.0,
                floor: 0.1,
            },
            Scenario::WifiWeakOutdoor => ProcessConfig {
                mean_low: 1.8,
                mean_high: 10.0,
                reversion: 1.0,
                sigma: 3.2,
                switch_rate: 0.15,
                dropout_rate: 0.05,
                dropout_secs: 1.1,
                floor: 0.08,
            },
            Scenario::WifiOutdoorSlow => ProcessConfig {
                mean_low: 8.0,
                mean_high: 20.0,
                reversion: 1.0,
                sigma: 3.5,
                switch_rate: 0.10,
                dropout_rate: 0.02,
                dropout_secs: 0.8,
                floor: 0.3,
            },
        }
    }

    /// Synthesizes this scenario's reference trace (60 s at 10 Hz),
    /// deterministic for a given `seed`.
    pub fn trace(self, seed: u64) -> BandwidthTrace {
        let _span = cadmc_telemetry::span!("netsim.trace", scenario = self.name(), seed = seed,);
        BandwidthTrace::synthesize(
            self.process_config(),
            60_000.0,
            100.0,
            seed ^ self.seed_salt(),
        )
    }

    /// Stable position of this scenario in [`Scenario::ALL`].
    pub fn index(self) -> usize {
        match self {
            Scenario::FourGWeakIndoor => 0,
            Scenario::FourGIndoorStatic => 1,
            Scenario::FourGIndoorSlow => 2,
            Scenario::FourGOutdoorQuick => 3,
            Scenario::WifiWeakIndoor => 4,
            Scenario::WifiWeakOutdoor => 5,
            Scenario::WifiOutdoorSlow => 6,
        }
    }

    fn seed_salt(self) -> u64 {
        // Distinct streams per scenario even with the same user seed.
        self.index() as u64 * 0x9e37_79b9
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(Scenario::FourGWeakIndoor.name(), "4G (weak) indoor");
        assert_eq!(Scenario::WifiOutdoorSlow.name(), "WiFi outdoor slow");
    }

    #[test]
    fn weak_contexts_have_lower_means() {
        let weak = Scenario::FourGWeakIndoor.trace(1).mean();
        let strong = Scenario::FourGIndoorStatic.trace(1).mean();
        assert!(weak < strong, "weak {weak} vs static {strong}");
    }

    #[test]
    fn quick_mobility_is_most_volatile() {
        let quick = Scenario::FourGOutdoorQuick.trace(2).std_dev();
        let static_ = Scenario::FourGIndoorStatic.trace(2).std_dev();
        assert!(
            quick > 2.0 * static_,
            "quick σ={quick:.2} static σ={static_:.2}"
        );
    }

    #[test]
    fn static_context_has_tight_quartiles() {
        let t = Scenario::FourGIndoorStatic.trace(3);
        let (poor, good) = t.quartile_levels();
        assert!(
            good - poor < 4.0,
            "static quartile spread {:.2}",
            good - poor
        );
        let t2 = Scenario::FourGOutdoorQuick.trace(3);
        let (p2, g2) = t2.quartile_levels();
        assert!(g2 - p2 > good - poor, "quick should spread more");
    }

    #[test]
    fn traces_differ_across_scenarios_with_same_seed() {
        let a = Scenario::WifiWeakIndoor.trace(9);
        let b = Scenario::WifiWeakOutdoor.trace(9);
        assert_ne!(a, b);
    }

    #[test]
    fn all_traces_are_positive() {
        for s in Scenario::ALL {
            let t = s.trace(5);
            assert!(
                t.samples().iter().all(|&v| v > 0.0),
                "{s} has non-positive samples"
            );
        }
    }
}
