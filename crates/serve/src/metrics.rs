//! Serving-side observability: per-tenant counters, windowed latency
//! aggregation, SLO burn tracking and the Prometheus-style text
//! exposition.
//!
//! [`ObsState`] is fed from two places with two clocks: the
//! discrete-event replay feeds *virtual* milliseconds (one private
//! state per [`run_schedule`](crate::Server::run_schedule) call, so
//! snapshots are byte-identical across worker counts), and the TCP
//! live path feeds wall milliseconds into the server's shared state.
//! The state itself never reads `std::time` (lint L9) — every method
//! takes the caller's `t_ms`.
//!
//! The exposition format is hand-rolled (zero deps) but follows the
//! Prometheus text conventions: `# TYPE` comments, `_total` suffixes on
//! counters, `{label="value"}` selectors, `le`-style quantile labels
//! and `+Inf` spelled the Prometheus way. Lines render in `BTreeMap`
//! order with fixed-precision floats, so two scrapes of equal state are
//! byte-identical.

use std::collections::BTreeMap;

use cadmc_core::executor::ExecReport;
use cadmc_telemetry::{SloBreach, SloConfig, SloStatus, SloTracker, WindowAggregator, WindowConfig, WindowSnapshot};

use crate::config::ServerConfig;

/// Per-tenant monotonic counters over the server's lifetime (they never
/// expire with the window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantCounters {
    /// Sessions admitted.
    pub admitted: u64,
    /// Sessions shed or rejected.
    pub shed: u64,
    /// Admitted sessions that ended `retried`.
    pub retried: u64,
    /// Admitted sessions that ended `degraded`.
    pub degraded: u64,
    /// Admitted sessions that ended `failed`.
    pub failed: u64,
}

/// Mutable observability state for one server (or one schedule replay).
#[derive(Debug, Clone)]
pub struct ObsState {
    window: WindowAggregator,
    slo: SloTracker,
    tenants: BTreeMap<String, TenantCounters>,
    breaches: Vec<SloBreach>,
}

impl ObsState {
    /// Fresh state shaped by the server's SLO/window knobs.
    pub fn new(cfg: &ServerConfig) -> Self {
        ObsState {
            window: WindowAggregator::new(WindowConfig {
                window_ms: cfg.slo_window_ms,
                slice_ms: (cfg.slo_window_ms / 60.0).max(1.0),
                ..WindowConfig::default()
            }),
            slo: SloTracker::new(SloConfig {
                p99_latency_ms: cfg.slo_p99_ms,
                availability: cfg.slo_availability,
                window_ms: cfg.slo_window_ms,
                burn_threshold: cfg.slo_burn_threshold,
                min_events: cfg.slo_min_events,
            }),
            tenants: BTreeMap::new(),
            breaches: Vec::new(),
        }
    }

    /// Records an admission at `t_ms`.
    pub fn on_admit(&mut self, t_ms: f64, tenant: &str) {
        self.tenants.entry(tenant.to_string()).or_default().admitted += 1;
        self.window.observe_count(t_ms, tenant, "admitted", 1);
    }

    /// Records a shed/rejected arrival at `t_ms` under its typed label.
    pub fn on_shed(&mut self, t_ms: f64, tenant: &str, reason_label: &str) {
        self.tenants.entry(tenant.to_string()).or_default().shed += 1;
        self.window.observe_count(t_ms, tenant, reason_label, 1);
    }

    /// Records a session's terminal outcome at `t_ms`: every request
    /// latency lands in the `(tenant, outcome)` window histogram and
    /// the session becomes one SLO observation (bad when it `failed`
    /// or its mean latency missed the p99 target). Returns the breach
    /// when this observation transitions the tenant into breach.
    pub fn on_completion(
        &mut self,
        t_ms: f64,
        tenant: &str,
        label: &str,
        report: Option<&ExecReport>,
    ) -> Option<SloBreach> {
        let c = self.tenants.entry(tenant.to_string()).or_default();
        match label {
            "failed" => c.failed += 1,
            "degraded" => c.degraded += 1,
            "retried" => c.retried += 1,
            _ => {}
        }
        let mean_latency = match report {
            Some(r) => {
                for lat in &r.latencies_ms {
                    self.window.observe_latency(t_ms, tenant, label, *lat);
                }
                r.mean_latency_ms()
            }
            None => {
                self.window.observe_count(t_ms, tenant, label, 1);
                0.0
            }
        };
        let breach = self.slo.record(t_ms, tenant, mean_latency, label != "failed");
        if let Some(b) = &breach {
            self.breaches.push(b.clone());
        }
        breach
    }

    /// SLO breach transitions so far.
    pub fn breach_count(&self) -> usize {
        self.breaches.len()
    }

    /// Immutable snapshot of everything (window, SLO status, counters,
    /// breach log).
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            window: self.window.snapshot(),
            slo: self.slo.status(),
            tenants: self
                .tenants
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            breaches: self.breaches.clone(),
        }
    }
}

/// Point-in-time observability snapshot; all vectors are sorted by
/// tenant so renderings are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSnapshot {
    /// The sliding aggregation window.
    pub window: WindowSnapshot,
    /// Per-tenant SLO status rows.
    pub slo: Vec<SloStatus>,
    /// Per-tenant lifetime counters.
    pub tenants: Vec<(String, TenantCounters)>,
    /// Every breach transition so far, in occurrence order.
    pub breaches: Vec<SloBreach>,
}

impl ObsSnapshot {
    /// Canonical byte-comparable metrics log: the window rendering,
    /// one SLO status line per tenant and one line per breach. The
    /// chaos determinism suite compares this string across worker
    /// counts.
    pub fn metrics_log(&self) -> String {
        let mut out = self.window.render();
        for s in &self.slo {
            out.push_str(&format!(
                "slo tenant={} total={} bad={} burn={:.3} in_breach={} breaches={}\n",
                s.tenant, s.total, s.bad, s.burn_rate, s.in_breach, s.breaches
            ));
        }
        for b in &self.breaches {
            out.push_str(&b.log_line());
            out.push('\n');
        }
        out
    }
}

/// Live gauge values sampled at scrape time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeSet {
    /// Sessions waiting for a slot.
    pub queue_depth: usize,
    /// Slots currently executing a session.
    pub slots_busy: usize,
    /// Total configured slots.
    pub slots: usize,
    /// Whether the server is draining.
    pub draining: bool,
}

/// Cache hit/miss pairs for the two shared caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheRates {
    /// Memo-pool hits.
    pub memo_hits: usize,
    /// Memo-pool misses.
    pub memo_misses: usize,
    /// Tree-cache hits.
    pub tree_hits: usize,
    /// Tree-cache misses.
    pub tree_misses: usize,
}

fn hit_rate(hits: usize, misses: usize) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn fmt_quantile(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "+Inf".to_string()
    }
}

/// Renders the Prometheus-style text exposition for one snapshot plus
/// the live gauges and cache rates sampled alongside it.
pub fn render_exposition(obs: &ObsSnapshot, g: &GaugeSet, c: &CacheRates) -> String {
    let mut out = String::new();

    out.push_str("# TYPE cadmc_sessions_total counter\n");
    for (tenant, t) in &obs.tenants {
        out.push_str(&format!(
            "cadmc_sessions_total{{tenant=\"{tenant}\",state=\"admitted\"}} {}\n",
            t.admitted
        ));
        out.push_str(&format!(
            "cadmc_sessions_total{{tenant=\"{tenant}\",state=\"shed\"}} {}\n",
            t.shed
        ));
        out.push_str(&format!(
            "cadmc_sessions_total{{tenant=\"{tenant}\",state=\"retried\"}} {}\n",
            t.retried
        ));
        out.push_str(&format!(
            "cadmc_sessions_total{{tenant=\"{tenant}\",state=\"degraded\"}} {}\n",
            t.degraded
        ));
        out.push_str(&format!(
            "cadmc_sessions_total{{tenant=\"{tenant}\",state=\"failed\"}} {}\n",
            t.failed
        ));
    }

    out.push_str("# TYPE cadmc_shed_total counter\n");
    for ((tenant, outcome), cell) in &obs.window.cells {
        if outcome.starts_with("shed:") || outcome.starts_with("rejected:") {
            out.push_str(&format!(
                "cadmc_shed_total{{tenant=\"{tenant}\",reason=\"{outcome}\"}} {}\n",
                cell.count
            ));
        }
    }

    out.push_str("# TYPE cadmc_queue_depth gauge\n");
    out.push_str(&format!("cadmc_queue_depth {}\n", g.queue_depth));
    out.push_str("# TYPE cadmc_slots_busy gauge\n");
    out.push_str(&format!("cadmc_slots_busy {}\n", g.slots_busy));
    out.push_str("# TYPE cadmc_slot_occupancy gauge\n");
    out.push_str(&format!(
        "cadmc_slot_occupancy {:.4}\n",
        if g.slots == 0 {
            0.0
        } else {
            g.slots_busy as f64 / g.slots as f64
        }
    ));
    out.push_str("# TYPE cadmc_draining gauge\n");
    out.push_str(&format!("cadmc_draining {}\n", u8::from(g.draining)));

    out.push_str("# TYPE cadmc_memo_hit_rate gauge\n");
    out.push_str(&format!(
        "cadmc_memo_hit_rate {:.4}\n",
        hit_rate(c.memo_hits, c.memo_misses)
    ));
    out.push_str("# TYPE cadmc_tree_cache_hit_rate gauge\n");
    out.push_str(&format!(
        "cadmc_tree_cache_hit_rate {:.4}\n",
        hit_rate(c.tree_hits, c.tree_misses)
    ));

    out.push_str("# TYPE cadmc_latency_ms summary\n");
    for ((tenant, outcome), cell) in &obs.window.cells {
        if cell.latency.count == 0 {
            continue;
        }
        for (q, qs) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            out.push_str(&format!(
                "cadmc_latency_ms{{tenant=\"{tenant}\",outcome=\"{outcome}\",quantile=\"{qs}\"}} {}\n",
                fmt_quantile(cell.latency.quantile(q, &obs.window.latency_bounds_ms))
            ));
        }
        out.push_str(&format!(
            "cadmc_latency_ms_sum{{tenant=\"{tenant}\",outcome=\"{outcome}\"}} {:.3}\n",
            cell.latency.sum()
        ));
        out.push_str(&format!(
            "cadmc_latency_ms_count{{tenant=\"{tenant}\",outcome=\"{outcome}\"}} {}\n",
            cell.latency.count
        ));
    }

    out.push_str("# TYPE cadmc_slo_burn_rate gauge\n");
    for s in &obs.slo {
        out.push_str(&format!(
            "cadmc_slo_burn_rate{{tenant=\"{}\"}} {:.4}\n",
            s.tenant, s.burn_rate
        ));
    }
    out.push_str("# TYPE cadmc_slo_breaches_total counter\n");
    for s in &obs.slo {
        out.push_str(&format!(
            "cadmc_slo_breaches_total{{tenant=\"{}\"}} {}\n",
            s.tenant, s.breaches
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServerConfig {
        ServerConfig::default()
    }

    fn report(lats: &[f64]) -> ExecReport {
        ExecReport {
            latencies_ms: lats.to_vec(),
            accuracies: vec![0.9; lats.len()],
            outcomes: vec![cadmc_core::executor::RequestOutcome::Ok; lats.len()],
        }
    }

    #[test]
    fn counters_and_window_accumulate() {
        let mut obs = ObsState::new(&cfg());
        obs.on_admit(0.0, "t0");
        obs.on_shed(1.0, "t1", "shed:rate");
        obs.on_completion(100.0, "t0", "ok", Some(&report(&[10.0, 20.0])));
        let snap = obs.snapshot();
        let t0 = &snap.tenants.iter().find(|(t, _)| t == "t0").expect("t0").1;
        assert_eq!(t0.admitted, 1);
        let t1 = &snap.tenants.iter().find(|(t, _)| t == "t1").expect("t1").1;
        assert_eq!(t1.shed, 1);
        let cell = snap.window.cell("t0", "ok").expect("latency cell");
        assert_eq!(cell.latency.count, 2);
        assert_eq!(snap.slo.len(), 1);
    }

    #[test]
    fn exposition_renders_expected_families() {
        let mut obs = ObsState::new(&cfg());
        obs.on_admit(0.0, "t0");
        obs.on_shed(1.0, "t0", "shed:queue-full");
        obs.on_completion(50.0, "t0", "ok", Some(&report(&[5.0])));
        let text = render_exposition(
            &obs.snapshot(),
            &GaugeSet {
                queue_depth: 2,
                slots_busy: 1,
                slots: 2,
                draining: false,
            },
            &CacheRates {
                memo_hits: 3,
                memo_misses: 1,
                tree_hits: 1,
                tree_misses: 1,
            },
        );
        assert!(text.contains("cadmc_sessions_total{tenant=\"t0\",state=\"admitted\"} 1"));
        assert!(text.contains("cadmc_shed_total{tenant=\"t0\",reason=\"shed:queue-full\"} 1"));
        assert!(text.contains("cadmc_queue_depth 2"));
        assert!(text.contains("cadmc_slot_occupancy 0.5000"));
        assert!(text.contains("cadmc_memo_hit_rate 0.7500"));
        assert!(text.contains("cadmc_tree_cache_hit_rate 0.5000"));
        assert!(text.contains("cadmc_latency_ms{tenant=\"t0\",outcome=\"ok\",quantile=\"0.5\"} 5.000"));
        assert!(text.contains("cadmc_slo_burn_rate{tenant=\"t0\"}"));
        // Two renders of the same state are byte-identical.
        let again = render_exposition(
            &obs.snapshot(),
            &GaugeSet {
                queue_depth: 2,
                slots_busy: 1,
                slots: 2,
                draining: false,
            },
            &CacheRates {
                memo_hits: 3,
                memo_misses: 1,
                tree_hits: 1,
                tree_misses: 1,
            },
        );
        assert_eq!(text, again);
    }

    #[test]
    fn breach_flows_into_snapshot_log() {
        let mut tight = cfg();
        tight.slo_p99_ms = 0.001; // everything misses the target
        tight.slo_min_events = 2;
        let mut obs = ObsState::new(&tight);
        obs.on_completion(0.0, "t0", "ok", Some(&report(&[50.0])));
        let b = obs.on_completion(1.0, "t0", "ok", Some(&report(&[50.0])));
        assert!(b.is_some(), "tight SLO must breach");
        let log = obs.snapshot().metrics_log();
        assert!(log.contains("slo.breach tenant=t0"));
        assert!(log.contains("in_breach=true"));
    }
}
