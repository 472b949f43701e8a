//! Transfer latency model — Eq. 6 of the paper:
//! `Tt = f(S|W) + S/W`, where `S` is the feature size in bytes, `W` the
//! bandwidth, and `f(·)` a linear function of `S` given `W` capturing the
//! first packet's propagation delay under pipelined transfer protocols.

use serde::{Deserialize, Serialize};

/// Bandwidth in megabits per second.
///
/// A newtype so bandwidths cannot be confused with latencies or sizes.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Mbps(pub f64);

impl Mbps {
    /// Bytes per millisecond at this bandwidth.
    pub fn bytes_per_ms(self) -> f64 {
        // Mbit/s = 1e6 bits/s = 125 bytes/ms per Mbps.
        self.0 * 125.0
    }

    /// Clamps to a sane positive range (avoids division blow-ups when a
    /// trace dips to zero during an outage).
    pub fn clamped(self) -> Mbps {
        Mbps(self.0.clamp(0.01, 10_000.0))
    }
}

impl std::fmt::Display for Mbps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} Mbps", self.0)
    }
}

/// Eq. 6 transfer-latency model.
///
/// `f(S|W)` is modeled as `half_rtt_ms + pipeline_factor · S/W`: a
/// bandwidth-independent propagation term plus a size-proportional term
/// with the same `S/W` scaling as the transmission delay (both are linear
/// in `S` given `W`, as the paper assumes for moderate file sizes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    /// One-way propagation delay for the first packet (ms).
    pub half_rtt_ms: f64,
    /// Extra per-byte pipeline overhead as a fraction of transmission time
    /// (protocol framing, ACK pacing).
    pub pipeline_factor: f64,
}

impl Default for TransferModel {
    /// Defaults modeling a cellular/WiFi uplink to a cloud endpoint:
    /// ~30 ms round trip (15 ms one-way first-packet delay, covering
    /// radio wake-up and connection overheads) plus 25 % pipeline
    /// overhead on the transmission time (framing, ACK pacing,
    /// slow-start ramp).
    fn default() -> Self {
        Self {
            half_rtt_ms: 15.0,
            pipeline_factor: 0.25,
        }
    }
}

impl TransferModel {
    /// Creates a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative.
    pub fn new(half_rtt_ms: f64, pipeline_factor: f64) -> Self {
        assert!(half_rtt_ms >= 0.0, "half RTT must be non-negative");
        assert!(
            pipeline_factor >= 0.0,
            "pipeline factor must be non-negative"
        );
        Self {
            half_rtt_ms,
            pipeline_factor,
        }
    }

    /// Transfer latency (ms) of `bytes` at bandwidth `bw` (Eq. 6).
    pub fn latency_ms(&self, bytes: u64, bw: Mbps) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let bw = bw.clamped();
        let transmission = bytes as f64 / bw.bytes_per_ms();
        self.half_rtt_ms + self.pipeline_factor * transmission + transmission
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        // The paper ignores the cost of returning the (tiny) final result.
        let m = TransferModel::default();
        assert_eq!(m.latency_ms(0, Mbps(10.0)), 0.0);
    }

    #[test]
    fn latency_is_linear_in_size_given_bandwidth() {
        let m = TransferModel::default();
        let bw = Mbps(20.0);
        let l1 = m.latency_ms(100_000, bw);
        let l2 = m.latency_ms(200_000, bw);
        let l3 = m.latency_ms(300_000, bw);
        // Equal increments in S give equal increments in latency.
        assert!(((l2 - l1) - (l3 - l2)).abs() < 1e-9);
    }

    #[test]
    fn latency_decreases_with_bandwidth() {
        let m = TransferModel::default();
        let lo = m.latency_ms(500_000, Mbps(2.0));
        let hi = m.latency_ms(500_000, Mbps(50.0));
        assert!(lo > hi);
    }

    #[test]
    fn bandwidth_clamp_prevents_blowup() {
        let m = TransferModel::default();
        let lat = m.latency_ms(1_000, Mbps(0.0));
        assert!(lat.is_finite());
    }

    #[test]
    fn realistic_magnitudes() {
        // 64 KB of features at 10 Mbps: tens of ms, dominated by the
        // transmission term but with a noticeable RTT floor.
        let m = TransferModel::default();
        let lat = m.latency_ms(64 * 1024, Mbps(10.0));
        assert!((50.0..110.0).contains(&lat), "latency {lat:.1} ms");
        // Tiny payloads still pay the RTT floor.
        let tiny = m.latency_ms(512, Mbps(10.0));
        assert!(tiny >= 10.0);
    }

    #[test]
    fn mbps_conversion() {
        assert_eq!(Mbps(8.0).bytes_per_ms(), 1000.0);
    }
}
