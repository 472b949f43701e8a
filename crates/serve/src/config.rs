//! Server tuning knobs.

/// Configuration of the serving core. Every knob is deterministic state:
/// two servers built from equal configs replay a schedule identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Concurrent service slots (sessions executing at once, in virtual
    /// time for [`run_schedule`](crate::Server::run_schedule) and in
    /// wall time for the TCP front-end). Floored at 1.
    pub slots: usize,
    /// Bounded work-queue capacity; an arrival that finds every slot
    /// busy and the queue full is shed as `shed:queue-full`.
    pub queue_capacity: usize,
    /// Token-bucket refill rate: sustained admissions per second.
    pub rate_per_sec: f64,
    /// Token-bucket depth: how many admissions may burst at once.
    pub burst: usize,
    /// Max in-flight (running + queued) sessions per tenant; the next
    /// one is shed as `shed:quota`.
    pub tenant_quota: usize,
    /// Consecutive `failed` session outcomes that trip a tenant's
    /// circuit breaker (floored at 1).
    pub breaker_threshold: u32,
    /// How long a tripped breaker rejects that tenant (`shed:breaker`).
    pub breaker_cooldown_ms: f64,
    /// Server seed: tree-search RNG and the context distribution each
    /// scenario is discretized under.
    pub seed: u64,
    /// Tree-search episodes per distinct (model, context) cache key.
    pub episodes: usize,
    /// LRU tree-cache capacity (distinct (IR hash, context hash) trees).
    pub tree_cache_capacity: usize,
    /// Explicit per-attempt transfer deadline (ms) forwarded to the
    /// executor; `None` keeps the executor's derived deadlines and — on
    /// a fault-free session — its bit-identical zero-degradation path.
    pub deadline_ms: Option<f64>,
    /// Transfer retries before the executor degrades a request.
    pub max_retries: u32,
    /// Executor retry backoff quantum (ms).
    pub backoff_ms: f64,
    /// Idle gap between a session's consecutive requests (trace ms).
    pub think_time_ms: f64,
    /// Per-tenant SLO: p99 latency target (ms). A session whose mean
    /// request latency misses this consumes error budget even when it
    /// succeeded.
    pub slo_p99_ms: f64,
    /// Per-tenant SLO: availability target in `(0, 1)`; the error
    /// budget is `1 − availability`.
    pub slo_availability: f64,
    /// Sliding window (ms of the serving clock) SLO observations and
    /// metric samples count against.
    pub slo_window_ms: f64,
    /// Burn rate at or above which a tenant's window is in breach.
    pub slo_burn_threshold: f64,
    /// Observations required in the window before a breach can fire.
    pub slo_min_events: u64,
    /// Whether a breach transition also counts as one failure signal on
    /// that tenant's circuit breaker (sustained burn then trips it).
    pub slo_breaker_hook: bool,
    /// Whether per-session tree searches explore cut-tensor
    /// feature-compression actions (bottleneck × quantization). Off
    /// keeps the search space — and every cached tree — bit-identical
    /// to the pre-feature engine.
    pub feature_actions: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            slots: 2,
            queue_capacity: 4,
            rate_per_sec: 4.0,
            burst: 4,
            tenant_quota: 4,
            breaker_threshold: 2,
            breaker_cooldown_ms: 5_000.0,
            seed: 7,
            episodes: 6,
            tree_cache_capacity: 4,
            deadline_ms: None,
            max_retries: 2,
            backoff_ms: 80.0,
            think_time_ms: 400.0,
            slo_p99_ms: 2_500.0,
            slo_availability: 0.9,
            slo_window_ms: 60_000.0,
            slo_burn_threshold: 2.0,
            slo_min_events: 4,
            slo_breaker_hook: true,
            feature_actions: false,
        }
    }
}

impl ServerConfig {
    /// Sustained admission capacity in arrivals per second (the token
    /// refill rate) — the chaos harness derives its overload factor
    /// from this.
    pub fn admission_capacity_per_sec(&self) -> f64 {
        self.rate_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_self_consistent() {
        let cfg = ServerConfig::default();
        assert!(cfg.slots >= 1);
        assert!(cfg.rate_per_sec > 0.0);
        assert_eq!(cfg.admission_capacity_per_sec(), cfg.rate_per_sec);
    }
}
