//! Per-tenant SLO tracking: error budgets and burn rates over virtual
//! time.
//!
//! An SLO here is two targets over a sliding window: a p99 latency
//! target (an observation slower than the target consumes budget even
//! when it succeeds) and an availability target (the fraction of
//! observations that must be good). The error budget is
//! `1 − availability`; the **burn rate** is how fast observations are
//! consuming it:
//!
//! ```text
//! burn = (bad / total) / (1 − availability)
//! ```
//!
//! `burn == 1.0` means the tenant is spending budget exactly as fast as
//! the SLO allows; sustained `burn ≥ burn_threshold` (with at least
//! `min_events` observations in the window) is a *breach*. Breaches are
//! edge-triggered — one [`SloBreach`] when a tenant crosses into breach,
//! re-armed only after its burn falls back below the threshold — so a
//! breach log is a list of transitions, not a sample per observation.
//!
//! Like [`window`](crate::window), the tracker runs entirely on the
//! caller's clock (virtual milliseconds in the scheduler, wall
//! milliseconds on the TCP path) and never reads `std::time` (lint L9).
//! All state is integer counts in `BTreeMap`s, so breach logs from the
//! same observation stream are byte-identical for any worker count.

use std::collections::BTreeMap;
use std::collections::VecDeque;

/// SLO targets shared by every tenant of one server.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// p99 latency target in milliseconds; an observation above this is
    /// "bad" even when it otherwise succeeded.
    pub p99_latency_ms: f64,
    /// Availability target in `(0, 1)`; the error budget is
    /// `1 − availability`.
    pub availability: f64,
    /// Sliding-window span (caller-clock milliseconds) observations
    /// count against.
    pub window_ms: f64,
    /// Burn rate at or above which the window is in breach.
    pub burn_threshold: f64,
    /// Minimum observations in the window before a breach can fire
    /// (keeps one early failure from tripping an empty window).
    pub min_events: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            p99_latency_ms: 1_000.0,
            availability: 0.9,
            window_ms: 60_000.0,
            burn_threshold: 2.0,
            min_events: 4,
        }
    }
}

impl SloConfig {
    /// The error-budget fraction `1 − availability`, floored at a tiny
    /// positive value so the burn rate stays finite.
    pub fn budget(&self) -> f64 {
        (1.0 - self.availability).max(1e-9)
    }
}

/// One observation in a tenant's window.
#[derive(Debug, Clone, PartialEq)]
struct Obs {
    t_ms: f64,
    bad: bool,
}

/// Per-tenant sliding-window state.
#[derive(Debug, Clone, Default)]
struct TenantSlo {
    window: VecDeque<Obs>,
    bad: u64,
    /// Whether the tenant is currently in breach (edge triggering).
    in_breach: bool,
    /// Lifetime totals (never expire; for reporting).
    total_seen: u64,
    total_bad: u64,
    breaches: u64,
}

/// An edge-triggered breach record: the moment a tenant's burn rate
/// crossed the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBreach {
    /// Tenant in breach.
    pub tenant: String,
    /// Caller-clock time of the observation that tripped it.
    pub t_ms: f64,
    /// Burn rate at the trip point.
    pub burn_rate: f64,
    /// Bad observations in the window at the trip point.
    pub bad: u64,
    /// Total observations in the window at the trip point.
    pub total: u64,
}

impl SloBreach {
    /// Canonical fixed-precision log line (byte-comparable).
    pub fn log_line(&self) -> String {
        format!(
            "slo.breach tenant={} t_ms={:.3} burn={:.3} bad={} total={}",
            self.tenant, self.t_ms, self.burn_rate, self.bad, self.total
        )
    }
}

/// Point-in-time view of one tenant's SLO state.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Tenant name.
    pub tenant: String,
    /// Observations currently in the window.
    pub total: u64,
    /// Bad observations currently in the window.
    pub bad: u64,
    /// Current burn rate.
    pub burn_rate: f64,
    /// Whether the tenant is currently in breach.
    pub in_breach: bool,
    /// Lifetime breach transitions.
    pub breaches: u64,
}

/// Sliding-window error-budget tracker for all tenants of one server.
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    cfg: SloConfig,
    tenants: BTreeMap<String, TenantSlo>,
}

impl SloTracker {
    /// A tracker with no observations.
    pub fn new(cfg: SloConfig) -> Self {
        SloTracker {
            cfg,
            tenants: BTreeMap::new(),
        }
    }

    /// The configured targets.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Records one terminal observation for `tenant` at `t_ms`: `ok` is
    /// the availability half (did the session end in a non-failed
    /// outcome), `latency_ms` the latency half (observations slower
    /// than the p99 target consume budget too). Returns a breach record
    /// when this observation *transitions* the tenant into breach.
    pub fn record(
        &mut self,
        t_ms: f64,
        tenant: &str,
        latency_ms: f64,
        ok: bool,
    ) -> Option<SloBreach> {
        let bad = !ok || latency_ms > self.cfg.p99_latency_ms;
        let window_ms = self.cfg.window_ms;
        let state = self.tenants.entry(tenant.to_string()).or_default();
        state.window.push_back(Obs { t_ms, bad });
        state.total_seen += 1;
        if bad {
            state.bad += 1;
            state.total_bad += 1;
        }
        // Expire observations older than the window (monotone caller
        // clocks make this a front-drain).
        while let Some(front) = state.window.front() {
            if front.t_ms < t_ms - window_ms {
                if front.bad {
                    state.bad -= 1;
                }
                state.window.pop_front();
            } else {
                break;
            }
        }
        let total = state.window.len() as u64;
        let burn = if total == 0 {
            0.0
        } else {
            (state.bad as f64 / total as f64) / self.cfg.budget()
        };
        let breaching = total >= self.cfg.min_events && burn >= self.cfg.burn_threshold;
        if breaching && !state.in_breach {
            state.in_breach = true;
            state.breaches += 1;
            return Some(SloBreach {
                tenant: tenant.to_string(),
                t_ms,
                burn_rate: burn,
                bad: state.bad,
                total,
            });
        }
        if !breaching {
            state.in_breach = false;
        }
        None
    }

    /// Current burn rate for `tenant` (0.0 when unseen).
    pub fn burn_rate(&self, tenant: &str) -> f64 {
        match self.tenants.get(tenant) {
            Some(s) if !s.window.is_empty() => {
                (s.bad as f64 / s.window.len() as f64) / self.cfg.budget()
            }
            _ => 0.0,
        }
    }

    /// Per-tenant status rows, sorted by tenant name.
    pub fn status(&self) -> Vec<SloStatus> {
        self.tenants
            .iter()
            .map(|(tenant, s)| SloStatus {
                tenant: tenant.clone(),
                total: s.window.len() as u64,
                bad: s.bad,
                burn_rate: if s.window.is_empty() {
                    0.0
                } else {
                    (s.bad as f64 / s.window.len() as f64) / self.cfg.budget()
                },
                in_breach: s.in_breach,
                breaches: s.breaches,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            p99_latency_ms: 100.0,
            availability: 0.9,
            window_ms: 10_000.0,
            burn_threshold: 2.0,
            min_events: 4,
        }
    }

    #[test]
    fn burn_rate_tracks_bad_fraction_over_budget() {
        let mut t = SloTracker::new(cfg());
        // 3 good + 1 bad => bad fraction 0.25, budget 0.1 => burn 2.5.
        for i in 0..3 {
            assert!(t.record(i as f64 * 10.0, "t0", 50.0, true).is_none());
        }
        let breach = t.record(30.0, "t0", 50.0, false);
        let b = breach.expect("burn 2.5 over threshold 2.0 with 4 events");
        assert_eq!(b.total, 4);
        assert_eq!(b.bad, 1);
        assert!((b.burn_rate - 2.5).abs() < 1e-9);
        assert!((t.burn_rate("t0") - 2.5).abs() < 1e-9);
    }

    #[test]
    fn slow_but_successful_observations_consume_budget() {
        let mut t = SloTracker::new(cfg());
        for i in 0..3 {
            t.record(i as f64, "t0", 10.0, true);
        }
        // Latency 500 > p99 target 100: bad despite ok=true.
        let b = t.record(3.0, "t0", 500.0, true);
        assert!(b.is_some());
    }

    #[test]
    fn breach_is_edge_triggered_and_rearms() {
        let mut t = SloTracker::new(cfg());
        for i in 0..3 {
            t.record(i as f64, "t0", 10.0, true);
        }
        assert!(t.record(3.0, "t0", 10.0, false).is_some());
        // Still breaching: no second record while in breach.
        assert!(t.record(4.0, "t0", 10.0, false).is_none());
        // Enough good observations drop burn below threshold -> re-arm.
        for i in 0..16 {
            assert!(t.record(5.0 + i as f64, "t0", 10.0, true).is_none());
        }
        assert!(t.burn_rate("t0") < 2.0);
        // Fresh bad burst trips a second breach.
        let mut second = None;
        for i in 0..6 {
            if let Some(b) = t.record(30.0 + i as f64, "t0", 10.0, false) {
                second = Some(b);
                break;
            }
        }
        assert!(second.is_some(), "re-armed breach never fired");
        let status = t.status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].breaches, 2);
    }

    #[test]
    fn min_events_gates_early_breaches() {
        let mut t = SloTracker::new(cfg());
        // One catastrophic observation alone cannot breach.
        assert!(t.record(0.0, "t0", 10.0, false).is_none());
        assert!(t.record(1.0, "t0", 10.0, false).is_none());
        assert!(t.record(2.0, "t0", 10.0, false).is_none());
        // Fourth observation reaches min_events.
        assert!(t.record(3.0, "t0", 10.0, false).is_some());
    }

    #[test]
    fn window_expiry_forgets_old_badness() {
        let mut t = SloTracker::new(cfg());
        for i in 0..4 {
            t.record(i as f64, "t0", 10.0, false);
        }
        assert!(t.burn_rate("t0") > 2.0);
        // 10 s later the bad observations have expired.
        t.record(20_000.0, "t0", 10.0, true);
        assert!((t.burn_rate("t0") - 0.0).abs() < 1e-9);
        assert_eq!(t.status()[0].total, 1);
    }

    #[test]
    fn tenants_are_independent() {
        let mut t = SloTracker::new(cfg());
        for i in 0..4 {
            t.record(i as f64, "bad-tenant", 10.0, false);
            t.record(i as f64, "good-tenant", 10.0, true);
        }
        assert!(t.burn_rate("bad-tenant") > 2.0);
        assert_eq!(t.burn_rate("good-tenant"), 0.0);
        let log: Vec<String> = t.status().iter().map(|s| s.tenant.clone()).collect();
        assert_eq!(log, vec!["bad-tenant", "good-tenant"]);
    }
}
