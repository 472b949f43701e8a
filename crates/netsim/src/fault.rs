//! Seeded, schedulable network fault processes.
//!
//! The primary synthesizer ([`crate::BandwidthProcess`]) makes bandwidth
//! *vary*; this module makes it *fail*. A [`FaultSchedule`] is a set of
//! time windows, each injecting one failure mode the executor's
//! degradation policy must survive:
//!
//! * [`FaultKind::Outage`] — the cloud uplink is down; transfers cannot
//!   start and time out.
//! * [`FaultKind::Collapse`] — bandwidth collapses to a hard floor
//!   (severe congestion); transfers crawl until the deadline fires.
//! * [`FaultKind::RttSpike`] — a burst of added round-trip latency on
//!   every transfer in the window.
//! * [`FaultKind::EstimatorFreeze`] — the bandwidth estimator stops
//!   refreshing (probe loss); Alg. 2 decisions see a stale estimate.
//!
//! Schedules are plain data: serializable, composable with any trace
//! family (the mean-reverting process, the Gilbert–Elliott chain, or a
//! recorded CSV) via [`FaultSchedule::faulted_trace`], and either built
//! deterministically ([`FaultSchedule::canned`]) or generated from a
//! seeded stochastic process ([`FaultSchedule::generate`]). Everything is
//! a pure function of `(schedule, time)`, so fault-injected runs replay
//! bit-identically for a given seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::trace::BandwidthTrace;

/// The failure mode a [`FaultWindow`] injects while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Cloud uplink fully down: effective bandwidth is zero.
    Outage,
    /// Bandwidth collapses to the window's `magnitude` (Mbps floor).
    Collapse,
    /// Every transfer pays `magnitude` extra milliseconds of RTT.
    RttSpike,
    /// The bandwidth estimator cannot refresh (stale estimate).
    EstimatorFreeze,
}

impl FaultKind {
    /// All kinds, in a stable order (used by the conformance matrix).
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Outage,
        FaultKind::Collapse,
        FaultKind::RttSpike,
        FaultKind::EstimatorFreeze,
    ];

    /// Stable kebab-case name (CLI preset / telemetry field value).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Outage => "outage",
            FaultKind::Collapse => "collapse",
            FaultKind::RttSpike => "rtt-spike",
            FaultKind::EstimatorFreeze => "stale-estimate",
        }
    }
}

/// One scheduled fault: a kind active over `[start_ms, start_ms +
/// duration_ms)` with a kind-specific magnitude (collapse floor in Mbps,
/// RTT spike in ms; ignored for outage and freeze).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// The injected failure mode.
    pub kind: FaultKind,
    /// Window start (trace time, ms).
    pub start_ms: f64,
    /// Window length (ms).
    pub duration_ms: f64,
    /// Kind-specific magnitude (see [`FaultWindow`] docs).
    pub magnitude: f64,
}

impl FaultWindow {
    /// Whether the window covers time `t_ms`.
    pub fn active(&self, t_ms: f64) -> bool {
        t_ms >= self.start_ms && t_ms < self.start_ms + self.duration_ms
    }

    /// Exclusive end of the window (ms).
    pub fn end_ms(&self) -> f64 {
        self.start_ms + self.duration_ms
    }
}

/// Parameters for [`FaultSchedule::generate`]: independent Poisson-like
/// window arrivals per fault kind, with mean durations and magnitudes.
/// A rate of 0 disables that kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProcessConfig {
    /// Outage windows per second.
    pub outage_rate: f64,
    /// Mean outage duration (s).
    pub outage_secs: f64,
    /// Collapse windows per second.
    pub collapse_rate: f64,
    /// Mean collapse duration (s).
    pub collapse_secs: f64,
    /// Collapse floor (Mbps).
    pub collapse_floor_mbps: f64,
    /// RTT-spike bursts per second.
    pub rtt_rate: f64,
    /// Mean burst duration (s).
    pub rtt_secs: f64,
    /// Added round-trip latency during a burst (ms).
    pub rtt_spike_ms: f64,
    /// Estimator-freeze windows per second.
    pub freeze_rate: f64,
    /// Mean freeze duration (s).
    pub freeze_secs: f64,
}

impl FaultProcessConfig {
    /// A harsh-but-survivable mix: occasional outages and collapses, RTT
    /// bursts and estimator freezes — the "degraded link" regime where
    /// the offload decision inverts.
    pub fn harsh() -> Self {
        Self {
            outage_rate: 0.04,
            outage_secs: 2.0,
            collapse_rate: 0.04,
            collapse_secs: 2.5,
            collapse_floor_mbps: 0.05,
            rtt_rate: 0.06,
            rtt_secs: 1.5,
            rtt_spike_ms: 120.0,
            freeze_rate: 0.04,
            freeze_secs: 2.0,
        }
    }
}

/// A deterministic schedule of fault windows over trace time.
///
/// The empty schedule (`FaultSchedule::none()`, also `Default`) injects
/// nothing: every query returns the no-fault answer and the executor's
/// zero-fault path is bit-identical to a run without fault support.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

impl FaultSchedule {
    /// The empty schedule: no faults, ever.
    pub fn none() -> Self {
        Self::default()
    }

    /// Wraps explicit windows, sorted by start time.
    ///
    /// # Panics
    ///
    /// Panics if any window has a non-finite or negative start, a
    /// non-positive duration, or a non-finite magnitude.
    pub fn new(mut windows: Vec<FaultWindow>) -> Self {
        for w in &windows {
            assert!(
                w.start_ms.is_finite() && w.start_ms >= 0.0,
                "fault window start must be finite and non-negative"
            );
            assert!(
                w.duration_ms.is_finite() && w.duration_ms > 0.0,
                "fault window duration must be finite and positive"
            );
            assert!(w.magnitude.is_finite(), "fault magnitude must be finite");
        }
        windows.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        Self { windows }
    }

    /// The scheduled windows, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The canned single-kind schedule used by the conformance matrix,
    /// golden-trace test and CI smoke: three fixed windows of `kind`
    /// spread over a standard 60 s trace.
    pub fn canned(kind: FaultKind) -> Self {
        let magnitude = match kind {
            FaultKind::Outage | FaultKind::EstimatorFreeze => 0.0,
            FaultKind::Collapse => 0.05,
            FaultKind::RttSpike => 150.0,
        };
        Self::new(
            [(5_000.0, 3_000.0), (22_000.0, 4_000.0), (43_000.0, 3_500.0)]
                .into_iter()
                .map(|(start_ms, duration_ms)| FaultWindow {
                    kind,
                    start_ms,
                    duration_ms,
                    magnitude,
                })
                .collect(),
        )
    }

    /// The canned cloud-link outage scenario (see [`FaultSchedule::canned`]).
    pub fn canned_outage() -> Self {
        Self::canned(FaultKind::Outage)
    }

    /// Resolves a CLI preset name: `none`, `outage`, `collapse`,
    /// `rtt-spike`, `stale-estimate` (each the canned schedule of that
    /// kind), `canned-outage` (alias of `outage`) or `harsh` (the seeded
    /// mixed process with seed 7 over 60 s).
    pub fn from_preset(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "none" => Some(Self::none()),
            "outage" | "canned-outage" => Some(Self::canned(FaultKind::Outage)),
            "collapse" => Some(Self::canned(FaultKind::Collapse)),
            "rtt-spike" => Some(Self::canned(FaultKind::RttSpike)),
            "stale-estimate" => Some(Self::canned(FaultKind::EstimatorFreeze)),
            "harsh" => Some(Self::generate(&FaultProcessConfig::harsh(), 60_000.0, 7)),
            _ => None,
        }
    }

    /// Generates a schedule over `[0, duration_ms)` from independent
    /// seeded arrival processes (100 ms resolution), deterministic per
    /// `(cfg, duration, seed)`.
    pub fn generate(cfg: &FaultProcessConfig, duration_ms: f64, seed: u64) -> Self {
        assert!(
            duration_ms.is_finite() && duration_ms > 0.0,
            "schedule duration must be finite and positive"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa01_7eed);
        let dt_s = 0.1;
        let steps = (duration_ms / 100.0).ceil() as usize;
        let mut windows = Vec::new();
        // Per-kind "busy until" horizon so windows of one kind never
        // overlap each other (overlaps across kinds are fine).
        let mut busy_until = [0.0f64; 4];
        for step in 0..steps {
            let t_ms = step as f64 * 100.0;
            for (slot, kind) in FaultKind::ALL.into_iter().enumerate() {
                let (rate, mean_secs, magnitude) = match kind {
                    FaultKind::Outage => (cfg.outage_rate, cfg.outage_secs, 0.0),
                    FaultKind::Collapse => (
                        cfg.collapse_rate,
                        cfg.collapse_secs,
                        cfg.collapse_floor_mbps,
                    ),
                    FaultKind::RttSpike => (cfg.rtt_rate, cfg.rtt_secs, cfg.rtt_spike_ms),
                    FaultKind::EstimatorFreeze => (cfg.freeze_rate, cfg.freeze_secs, 0.0),
                };
                // One draw per (step, kind) keeps the stream layout fixed
                // regardless of which kinds are enabled.
                let u: f64 = rng.random_range(0.0..1.0);
                let stretch: f64 = rng.random_range(0.5..1.5);
                if rate <= 0.0 || t_ms < busy_until[slot] || u >= rate * dt_s {
                    continue;
                }
                let duration_ms_w = (mean_secs * stretch * 1000.0).max(100.0);
                busy_until[slot] = t_ms + duration_ms_w;
                windows.push(FaultWindow {
                    kind,
                    start_ms: t_ms,
                    duration_ms: duration_ms_w,
                    magnitude,
                });
            }
        }
        Self::new(windows)
    }

    /// Derives this schedule's per-session variant: each window's start
    /// is phase-shifted by a deterministic, session-specific jitter of at
    /// most ±20 % of its duration (clamped at zero so the
    /// [`FaultSchedule::new`] invariants hold). Durations, kinds and
    /// magnitudes are untouched, so a session sees the *same* fault
    /// process as its neighbors but not in lockstep — the serving layer
    /// uses this so concurrent sessions don't all time out on the same
    /// millisecond. `for_session` is a pure function of
    /// `(self, session)`: the same id always yields the same schedule,
    /// and session ids live on each session's own timeline, independent
    /// of when the server admitted it.
    pub fn for_session(&self, session: u64) -> Self {
        if self.windows.is_empty() {
            return Self::none();
        }
        // SplitMix64: a well-mixed pure function of (session, index).
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let windows = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let r = mix(session ^ mix(i as u64 ^ 0x5e55_10f0));
                // Uniform in [-1, 1) from the top 53 bits.
                let unit = (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                let start_ms = (w.start_ms + unit * 0.2 * w.duration_ms).max(0.0);
                FaultWindow { start_ms, ..*w }
            })
            .collect();
        Self::new(windows)
    }

    /// Whether the cloud uplink is down at `t_ms` (an outage is active).
    pub fn link_down(&self, t_ms: f64) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == FaultKind::Outage && w.active(t_ms))
    }

    /// The tightest active collapse floor at `t_ms`, if any.
    pub fn bandwidth_cap(&self, t_ms: f64) -> Option<f64> {
        self.windows
            .iter()
            .filter(|w| w.kind == FaultKind::Collapse && w.active(t_ms))
            .map(|w| w.magnitude)
            .min_by(f64::total_cmp)
    }

    /// Effective bandwidth at `t_ms` given the true (trace) bandwidth:
    /// zero during an outage, capped during a collapse, unchanged
    /// otherwise.
    pub fn effective_bandwidth(&self, t_ms: f64, true_bandwidth: f64) -> f64 {
        if self.link_down(t_ms) {
            return 0.0;
        }
        match self.bandwidth_cap(t_ms) {
            Some(cap) => true_bandwidth.min(cap),
            None => true_bandwidth,
        }
    }

    /// Added round-trip latency on a transfer starting at `t_ms` (ms):
    /// the largest active RTT spike.
    pub fn extra_rtt_ms(&self, t_ms: f64) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.kind == FaultKind::RttSpike && w.active(t_ms))
            .map(|w| w.magnitude)
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Whether the bandwidth estimator is frozen (cannot refresh) at
    /// `t_ms`.
    pub fn estimator_frozen(&self, t_ms: f64) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == FaultKind::EstimatorFreeze && w.active(t_ms))
    }

    /// Composes the schedule's *bandwidth-shaping* faults (outage,
    /// collapse) into a trace, sample by sample — the bridge to the other
    /// trace families: any [`BandwidthTrace`] (synthesized, Gilbert–
    /// Elliott, or recorded CSV) can be degraded into a faulted one.
    /// Outage samples drop to 0.001 Mbps (a trace must stay positive for
    /// downstream quantile logic); RTT and freeze faults do not shape
    /// bandwidth and are ignored here.
    pub fn faulted_trace(&self, trace: &BandwidthTrace) -> BandwidthTrace {
        let samples = trace
            .samples()
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let t = i as f64 * trace.dt_ms();
                let eff = self.effective_bandwidth(t, v);
                if eff <= 0.0 {
                    0.001
                } else {
                    eff
                }
            })
            .collect();
        BandwidthTrace::new(trace.dt_ms(), samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gilbert::GilbertElliott;
    use crate::scenario::Scenario;

    #[test]
    fn empty_schedule_is_transparent() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        assert!(!s.link_down(0.0));
        assert_eq!(s.bandwidth_cap(1000.0), None);
        assert_eq!(s.effective_bandwidth(5.0, 9.0), 9.0);
        assert_eq!(s.extra_rtt_ms(5.0), 0.0);
        assert!(!s.estimator_frozen(5.0));
        let trace = Scenario::WifiWeakIndoor.trace(1);
        assert_eq!(s.faulted_trace(&trace), trace);
    }

    #[test]
    fn canned_outage_downs_the_link_in_windows_only() {
        let s = FaultSchedule::canned_outage();
        assert!(s.link_down(5_000.0));
        assert!(s.link_down(7_999.0));
        assert!(!s.link_down(8_000.0));
        assert!(!s.link_down(0.0));
        assert_eq!(s.effective_bandwidth(6_000.0, 10.0), 0.0);
        assert_eq!(s.effective_bandwidth(10_000.0, 10.0), 10.0);
    }

    #[test]
    fn collapse_caps_and_rtt_adds() {
        let c = FaultSchedule::canned(FaultKind::Collapse);
        assert_eq!(c.effective_bandwidth(5_500.0, 10.0), 0.05);
        assert_eq!(c.effective_bandwidth(5_500.0, 0.01), 0.01);
        let r = FaultSchedule::canned(FaultKind::RttSpike);
        assert_eq!(r.extra_rtt_ms(23_000.0), 150.0);
        assert_eq!(r.extra_rtt_ms(60_000.0 - 1.0), 0.0);
        let f = FaultSchedule::canned(FaultKind::EstimatorFreeze);
        assert!(f.estimator_frozen(44_000.0));
        assert!(!f.estimator_frozen(42_000.0));
    }

    #[test]
    fn presets_resolve_and_unknown_is_none() {
        for name in [
            "none",
            "outage",
            "canned-outage",
            "collapse",
            "rtt-spike",
            "stale-estimate",
            "harsh",
        ] {
            assert!(FaultSchedule::from_preset(name).is_some(), "{name}");
        }
        assert!(FaultSchedule::from_preset("solar-flare").is_none());
        assert_eq!(
            FaultSchedule::from_preset("outage"),
            FaultSchedule::from_preset("CANNED-OUTAGE")
        );
    }

    #[test]
    fn generate_is_deterministic_and_non_overlapping_per_kind() {
        let cfg = FaultProcessConfig::harsh();
        let a = FaultSchedule::generate(&cfg, 120_000.0, 9);
        let b = FaultSchedule::generate(&cfg, 120_000.0, 9);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::generate(&cfg, 120_000.0, 10));
        assert!(!a.is_empty(), "harsh config over 120 s should fault");
        for kind in FaultKind::ALL {
            let mut of_kind: Vec<&FaultWindow> =
                a.windows().iter().filter(|w| w.kind == kind).collect();
            of_kind.sort_by(|x, y| x.start_ms.total_cmp(&y.start_ms));
            for pair in of_kind.windows(2) {
                assert!(
                    pair[1].start_ms >= pair[0].end_ms(),
                    "{} windows overlap",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn faulted_trace_composes_with_gilbert_family() {
        let trace = GilbertElliott::lossy_wifi().trace(600, 100.0, 3);
        let faulted = FaultSchedule::canned_outage().faulted_trace(&trace);
        assert_eq!(faulted.len(), trace.len());
        // Outage windows force the floor sample.
        assert_eq!(faulted.at_ms(6_000.0), 0.001);
        // Outside windows the trace is untouched.
        assert_eq!(faulted.at_ms(15_000.0), trace.at_ms(15_000.0));
        assert!(faulted.samples().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn serde_roundtrip() {
        let s = FaultSchedule::canned(FaultKind::Collapse);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn for_session_is_deterministic_and_bounded() {
        let base = FaultSchedule::canned_outage();
        let a = base.for_session(3);
        let b = base.for_session(3);
        assert_eq!(a, b);
        // Same process, different phase for a different session.
        assert_ne!(a, base.for_session(4));
        // Kinds, durations and magnitudes are untouched; starts move by
        // at most 20 % of the window duration and never go negative.
        assert_eq!(a.windows().len(), base.windows().len());
        for (w, o) in a.windows().iter().zip(base.windows()) {
            assert_eq!(w.kind, o.kind);
            assert_eq!(w.duration_ms, o.duration_ms);
            assert_eq!(w.magnitude, o.magnitude);
            assert!((w.start_ms - o.start_ms).abs() <= 0.2 * o.duration_ms + 1e-9);
            assert!(w.start_ms >= 0.0);
        }
    }

    #[test]
    fn for_session_of_empty_schedule_is_empty() {
        assert!(FaultSchedule::none().for_session(9).is_empty());
    }

    #[test]
    fn for_session_keeps_new_invariants_near_zero() {
        // A window starting at 0 must clamp, not panic.
        let s = FaultSchedule::new(vec![FaultWindow {
            kind: FaultKind::Outage,
            start_ms: 0.0,
            duration_ms: 1_000.0,
            magnitude: 0.0,
        }]);
        for session in 0..64 {
            let shifted = s.for_session(session);
            assert!(shifted.windows()[0].start_ms >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn rejects_nonpositive_duration() {
        let _ = FaultSchedule::new(vec![FaultWindow {
            kind: FaultKind::Outage,
            start_ms: 0.0,
            duration_ms: 0.0,
            magnitude: 0.0,
        }]);
    }
}
