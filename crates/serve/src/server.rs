//! The serving core: a deterministic discrete-event scheduler
//! ([`Server::run_schedule`]) plus a wall-clock live path
//! ([`Server::submit`]) for the TCP front-end.
//!
//! ## Determinism contract
//!
//! `run_schedule` runs in three serial phases:
//!
//! 1. **Resolve**: every arrival's model is checked and keyed.
//!    The server resolves each scenario's bandwidth context and each zoo
//!    model's checked form once, on first use, in a table it shares with
//!    the live path; inline IR, the context descriptor and the cache key
//!    are still worked out per arrival.
//! 2. **Warm** (arrival order): one tree search per distinct
//!    (IR hash, context hash) key fills the shared LRU cache with the
//!    tree's plan, so cache content never depends on replay decisions.
//! 3. **Replay**: a discrete-event loop over *virtual* time makes every
//!    admission, shed, breaker and drain decision. A session's outcome
//!    is computed when it takes a slot, at arrival or when it leaves the
//!    queue, and read again when it completes. Outcomes are pure
//!    functions of the session's spec (faults live on the session's own
//!    timeline), so computing them on demand changes no decision, and a
//!    shed session costs no execution.
//!
//! Each outcome runs in stream `index + 1` of one telemetry region, so a
//! traced session's records carry the same addresses in whatever order
//! the replay reaches them. The per-session outcome log and the metrics
//! log are therefore deterministic per schedule and configuration.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use cadmc_core::executor::ExecReport;
use cadmc_core::memo::MemoPool;
use cadmc_core::tree_cache::{CachedPlan, TreeCache};
use cadmc_telemetry as telemetry;

use crate::admission::{BoundedQueue, TokenBucket};
use crate::breaker::CircuitBreaker;
use crate::config::ServerConfig;
use crate::metrics::{render_exposition, CacheRates, GaugeSet, ObsSnapshot, ObsState};
use crate::session::{
    run_session, search_plan, RejectReason, ResolveTable, ServedContext, SessionOutcome,
    SessionSpec,
};

/// One scheduled request: a session spec arriving at a virtual instant.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Virtual arrival time (ms since schedule start).
    pub at_ms: f64,
    /// The session being submitted.
    pub spec: SessionSpec,
}

/// The scheduler's decision for one arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Admitted and ran to a terminal outcome.
    Admitted {
        /// Terminal outcome label (`ok`/`retried`/`degraded`/`failed`).
        outcome: String,
        /// When the session started executing (virtual ms).
        start_ms: f64,
        /// When it finished (virtual ms).
        end_ms: f64,
        /// Time spent queued between admission and a free slot.
        queued_ms: f64,
        /// Mean request latency (ms).
        mean_latency_ms: f64,
        /// Mean request accuracy.
        mean_accuracy: f64,
    },
    /// Not admitted (or not executed), with the typed reason.
    Rejected {
        /// Why (see [`RejectReason::label`]).
        reason: RejectReason,
    },
}

/// One arrival's record in the outcome log.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalRecord {
    /// Index of the arrival in the submitted schedule.
    pub session: usize,
    /// Tenant it was accounted against.
    pub tenant: String,
    /// Virtual arrival time.
    pub at_ms: f64,
    /// What the scheduler decided.
    pub decision: Decision,
}

/// Everything a chaos run needs to assert on: per-arrival records, the
/// surviving outcomes, counters and the queue watermark.
#[derive(Debug)]
pub struct ScheduleReport {
    /// One record per arrival, in submission order.
    pub records: Vec<ArrivalRecord>,
    /// Full outcome per *admitted* arrival (`None` for rejected ones).
    pub outcomes: Vec<Option<SessionOutcome>>,
    /// Arrivals admitted.
    pub admitted: usize,
    /// Arrivals not admitted (shed or rejected).
    pub shed: usize,
    /// Admitted sessions whose terminal outcome was `degraded`.
    pub degraded: usize,
    /// Admitted sessions whose terminal outcome was `failed`.
    pub failed: usize,
    /// Sessions that reached their terminal outcome after the drain
    /// signal (the "finish or degrade in-flight work" guarantee).
    pub drained: usize,
    /// Deepest the bounded work queue ever got.
    pub queue_watermark: usize,
    /// The queue's configured capacity (watermark ≤ capacity, always).
    pub queue_capacity: usize,
    /// Observability snapshot at end of replay: the sliding window,
    /// per-tenant SLO status and the breach log. Its
    /// [`metrics_log`](crate::metrics::ObsSnapshot::metrics_log) is
    /// byte-identical across worker counts, like [`log`](Self::log).
    pub obs: ObsSnapshot,
}

impl ScheduleReport {
    /// The canonical outcome log: one line per arrival, in submission
    /// order, fixed-precision — byte-identical across worker counts.
    pub fn log(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            match &r.decision {
                Decision::Admitted {
                    outcome,
                    start_ms,
                    end_ms,
                    queued_ms,
                    mean_latency_ms,
                    mean_accuracy,
                } => {
                    out.push_str(&format!(
                        "session={:04} tenant={} decision=admitted outcome={} \
                         start_ms={:.3} end_ms={:.3} queued_ms={:.3} \
                         mean_latency_ms={:.3} mean_accuracy={:.4}\n",
                        r.session,
                        r.tenant,
                        outcome,
                        start_ms,
                        end_ms,
                        queued_ms,
                        mean_latency_ms,
                        mean_accuracy
                    ));
                }
                Decision::Rejected { reason } => {
                    out.push_str(&format!(
                        "session={:04} tenant={} decision=rejected reason={}\n",
                        r.session,
                        r.tenant,
                        reason.label()
                    ));
                }
            }
        }
        out
    }
}

/// Live-path counters and gauges (wall-clock TCP front-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveStats {
    /// Sessions admitted.
    pub admitted: usize,
    /// Sessions shed or rejected.
    pub shed: usize,
    /// Sessions that ended `degraded`.
    pub degraded: usize,
    /// Sessions that ended `failed`.
    pub failed: usize,
    /// Sessions that reached a terminal outcome during drain.
    pub drained: usize,
    /// Deepest the wait set ever got (bounded by `queue_capacity`).
    pub waiting_watermark: usize,
    /// Sessions waiting for a slot right now.
    pub waiting: usize,
    /// Sessions holding a slot right now.
    pub active: usize,
    /// SLO breach transitions so far.
    pub slo_breaches: usize,
}

/// A live session's completion (wall-clock path).
#[derive(Debug)]
pub struct LiveCompletion {
    /// Server-assigned session id.
    pub session: u64,
    /// The terminal outcome.
    pub outcome: SessionOutcome,
}

/// The serving policy's state on one clock: the token bucket, the
/// per-tenant breakers and in-flight counts, the drain flag, the totals
/// and the observability state. The replay keeps a private ledger on
/// its virtual clock; the live path keeps one behind the server's mutex
/// on the wall clock. Slots and waiting are the caller's: the replay
/// runs a bounded queue, the live path parks on a condvar.
#[derive(Debug)]
struct Ledger {
    bucket: TokenBucket,
    breakers: BTreeMap<String, CircuitBreaker>,
    inflight: BTreeMap<String, usize>,
    draining: bool,
    totals: LiveStats,
    obs: ObsState,
}

impl Ledger {
    fn new(cfg: &ServerConfig) -> Self {
        Ledger {
            bucket: TokenBucket::new(cfg.rate_per_sec, cfg.burst),
            breakers: BTreeMap::new(),
            inflight: BTreeMap::new(),
            draining: false,
            totals: LiveStats::default(),
            obs: ObsState::new(cfg),
        }
    }

    /// The refusal ladder up to the slot: draining, then the caller's
    /// own check `pre`, then the tenant quota, the tenant breaker and
    /// one rate token. A refusal is recorded before it is returned. A
    /// pass reserves one of the tenant's quota places until
    /// [`complete`](Self::complete) or [`release`](Self::release).
    fn gate(
        &mut self,
        cfg: &ServerConfig,
        t: f64,
        tenant: &str,
        pre: Result<(), RejectReason>,
    ) -> Result<(), RejectReason> {
        let verdict = if self.draining {
            Err(RejectReason::Draining)
        } else if let Err(reason) = pre {
            Err(reason)
        } else if self.inflight.get(tenant).copied().unwrap_or(0) >= cfg.tenant_quota {
            Err(RejectReason::Quota)
        } else if self.breakers.get(tenant).is_some_and(|b| b.is_open(t)) {
            Err(RejectReason::Breaker)
        } else if !self.bucket.try_admit(t) {
            Err(RejectReason::Rate)
        } else {
            Ok(())
        };
        match verdict {
            Ok(()) => {
                *self.inflight.entry(tenant.to_string()).or_insert(0) += 1;
                Ok(())
            }
            Err(reason) => Err(self.refuse(t, tenant, reason)),
        }
    }

    /// Records a refusal at `t` and hands the reason back.
    fn refuse(&mut self, t: f64, tenant: &str, reason: RejectReason) -> RejectReason {
        self.totals.shed += 1;
        self.obs.on_shed(t, tenant, reason.label());
        reason
    }

    /// Records a refusal at `t` of a session that passed
    /// [`gate`](Self::gate), giving back its quota place.
    fn release(&mut self, t: f64, tenant: &str, reason: RejectReason) -> RejectReason {
        self.free_quota(tenant);
        self.refuse(t, tenant, reason)
    }

    fn free_quota(&mut self, tenant: &str) {
        if let Some(c) = self.inflight.get_mut(tenant) {
            *c = c.saturating_sub(1);
        }
    }

    /// Records an admission at `t`.
    fn admit(&mut self, t: f64, tenant: &str) {
        self.totals.admitted += 1;
        self.obs.on_admit(t, tenant);
    }

    /// Records an admitted session's terminal outcome at `t`: totals,
    /// quota place, the observation and the tenant's breaker.
    fn complete(
        &mut self,
        cfg: &ServerConfig,
        t: f64,
        tenant: &str,
        label: &str,
        report: Option<&ExecReport>,
    ) {
        match label {
            "failed" => self.totals.failed += 1,
            "degraded" => self.totals.degraded += 1,
            _ => {}
        }
        if self.draining {
            self.totals.drained += 1;
        }
        self.free_quota(tenant);
        let breach = self.obs.on_completion(t, tenant, label, report);
        if let Some(b) = &breach {
            telemetry::event!(
                "slo.breach",
                tenant = tenant,
                burn = b.burn_rate,
                bad = b.bad,
                total = b.total,
            );
        }
        if label == "failed" {
            self.breaker(cfg, tenant).record_failure(t);
        } else if let Some(b) = self.breakers.get_mut(tenant) {
            b.record_success();
        }
        // Sustained burn feeds the tenant's breaker: one breach
        // transition counts as one failure signal.
        if breach.is_some() && cfg.slo_breaker_hook {
            self.breaker(cfg, tenant).record_failure(t);
        }
    }

    /// The tenant's breaker, created closed on its first failure.
    fn breaker(&mut self, cfg: &ServerConfig, tenant: &str) -> &mut CircuitBreaker {
        self.breakers
            .entry(tenant.to_string())
            .or_insert_with(|| CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown_ms))
    }

    /// Live counters and gauges; breaches are counted by the
    /// observability state.
    fn stats(&self) -> LiveStats {
        LiveStats {
            slo_breaches: self.obs.breach_count(),
            ..self.totals
        }
    }
}

/// The multi-tenant serving core. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    memo: Arc<MemoPool>,
    cache: Arc<TreeCache>,
    /// Contexts and zoo models, resolved once for both paths.
    table: ResolveTable,
    sessions: AtomicU64,
    /// The live path's ledger; the condvar parks arrivals waiting for a
    /// slot (a bounded wait set, not a channel).
    live: Mutex<Ledger>,
    slot_freed: Condvar,
}

impl Server {
    /// A server with fresh shared state (memo pool + tree cache).
    pub fn new(cfg: ServerConfig) -> Self {
        Server {
            memo: Arc::new(MemoPool::new()),
            cache: Arc::new(TreeCache::new(cfg.tree_cache_capacity)),
            table: ResolveTable::new(cfg.seed),
            sessions: AtomicU64::new(0),
            live: Mutex::new(Ledger::new(&cfg)),
            slot_freed: Condvar::new(),
            cfg,
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The shared memo pool (hit/miss counters for reporting).
    pub fn memo(&self) -> &MemoPool {
        &self.memo
    }

    /// The shared tree cache.
    pub fn tree_cache(&self) -> &TreeCache {
        &self.cache
    }

    fn lock_live(&self) -> MutexGuard<'_, Ledger> {
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the live path's observability state. A schedule's
    /// snapshot is in its [`ScheduleReport::obs`].
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.lock_live().obs.snapshot()
    }

    /// The Prometheus-style text exposition served on
    /// `--metrics-listen`: per-tenant counters, queue/slot gauges,
    /// cache hit rates, latency quantiles and SLO burn rates.
    pub fn exposition(&self) -> String {
        let (obs, gauges) = {
            let st = self.lock_live();
            let gauges = GaugeSet {
                queue_depth: st.totals.waiting,
                slots_busy: st.totals.active,
                slots: self.cfg.slots.max(1),
                draining: st.draining,
            };
            (st.obs.snapshot(), gauges)
        };
        let memo_hits = self.memo.hits();
        let memo_misses = self.memo.misses();
        let rates = CacheRates {
            memo_hits,
            memo_misses,
            tree_hits: self.cache.hits(),
            tree_misses: self.cache.misses(),
        };
        render_exposition(&obs, &gauges, &rates)
    }

    // -----------------------------------------------------------------
    // Deterministic discrete-event path
    // -----------------------------------------------------------------

    /// Replays `arrivals` through admission, queueing, execution and
    /// (optionally) a drain signal at `drain_at_ms`, entirely in virtual
    /// time. `_workers` does nothing: the replay is serial and computes
    /// only the outcomes of sessions that take a slot. It stays in the
    /// signature for existing callers.
    pub fn run_schedule(
        &self,
        arrivals: &[Arrival],
        _workers: usize,
        drain_at_ms: Option<f64>,
    ) -> ScheduleReport {
        // Phase 1+2: resolve every arrival, warm the tree cache in
        // arrival order, check accuracy constraints.
        let prepared: Vec<Result<Prepared, RejectReason>> =
            arrivals.iter().map(|a| self.prepare(&a.spec)).collect();

        // Phase 3: virtual-time replay.
        self.replay(arrivals, &prepared, drain_at_ms)
    }

    /// Resolves a spec, warms the cache and applies the accuracy
    /// constraint. The schedule calls it in arrival order, before the
    /// replay, so cache content follows the arrivals alone.
    fn prepare(&self, spec: &SessionSpec) -> Result<Prepared, RejectReason> {
        let resolved = self.table.resolve(spec, &self.cfg)?;
        let plan = self.cache.get_or_insert_with(resolved.key.pair(), || {
            search_plan(&resolved, spec.device, &self.cfg, &self.memo)
        });
        let best_accuracy = plan.best_branch_accuracy();
        if best_accuracy < spec.min_accuracy {
            return Err(RejectReason::Constraint {
                best_accuracy,
                min_accuracy: spec.min_accuracy,
            });
        }
        Ok(Prepared {
            plan,
            context: resolved.context,
        })
    }

    fn replay(
        &self,
        arrivals: &[Arrival],
        prepared: &[Result<Prepared, RejectReason>],
        drain_at_ms: Option<f64>,
    ) -> ScheduleReport {
        let n = arrivals.len();
        let cfg = &self.cfg;
        let slots = cfg.slots.max(1);

        // Session `idx`'s outcome, computed when it takes a slot, in
        // stream `idx + 1` of the replay's region.
        let region = telemetry::open_region();
        let run = |idx: usize| {
            prepared[idx].as_ref().ok().map(|p| {
                telemetry::in_stream(region, idx as u64 + 1, || {
                    run_session(
                        idx as u64,
                        &arrivals[idx].spec,
                        &p.plan,
                        &p.context.exec_trace,
                        cfg,
                    )
                })
            })
        };
        let mut outcomes: Vec<Option<SessionOutcome>> = vec![None; n];

        // Arrival processing order: (time, submission index), stable.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            arrivals[a]
                .at_ms
                .total_cmp(&arrivals[b].at_ms)
                .then(a.cmp(&b))
        });

        // Private ledger, fed on the virtual clock only, so the log and
        // snapshots depend on nothing but the schedule.
        let mut ledger = Ledger::new(cfg);
        let mut queue: BoundedQueue<usize> = BoundedQueue::new(cfg.queue_capacity);
        let mut running: Vec<(f64, usize)> = Vec::with_capacity(slots);
        let mut decisions: Vec<Option<Decision>> = vec![None; n];
        let mut admit_ms: Vec<f64> = vec![0.0; n];
        let mut drain_pending = drain_at_ms;
        let mut pos = 0usize;

        loop {
            // Earliest (time, priority): completions release capacity
            // before a same-instant drain or arrival sees it, and drain
            // beats a same-instant arrival ("mid-burst" semantics).
            let next_completion = running
                .iter()
                .copied()
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut next: Option<(f64, u8)> = next_completion.map(|(t, _)| (t, 0u8));
            if let Some(t) = drain_pending {
                if next.is_none_or(|(bt, bp)| (t, 1u8) < (bt, bp)) {
                    next = Some((t, 1));
                }
            }
            if pos < n {
                let t = arrivals[order[pos]].at_ms;
                if next.is_none_or(|(bt, bp)| (t, 2u8) < (bt, bp)) {
                    next = Some((t, 2));
                }
            }
            let Some((t, kind)) = next else { break };

            match kind {
                0 => {
                    // Completion.
                    let Some((end_ms, idx)) = next_completion else { break };
                    if let Some(slot) = running.iter().position(|&(e, i)| e == end_ms && i == idx)
                    {
                        running.swap_remove(slot);
                    }
                    let tenant = arrivals[idx].spec.tenant.as_str();
                    let outcome = outcomes[idx].as_ref();
                    let label = outcome.map_or("failed", |o| o.label);
                    ledger.complete(cfg, end_ms, tenant, label, outcome.map(|o| &o.report));
                    let start_ms = admit_ms[idx];
                    decisions[idx] = Some(Decision::Admitted {
                        outcome: label.to_string(),
                        start_ms,
                        end_ms,
                        queued_ms: start_ms - arrivals[idx].at_ms,
                        mean_latency_ms: outcome.map_or(0.0, |o| o.report.mean_latency_ms()),
                        mean_accuracy: outcome.map_or(0.0, |o| o.report.mean_accuracy()),
                    });
                    let span = telemetry::span!(
                        "serve.session",
                        session = idx as u64,
                        tenant = tenant,
                    );
                    span.record("outcome", label);
                    drop(span);
                    // A freed slot immediately serves the queue head.
                    if running.len() < slots {
                        if let Some(next_idx) = queue.pop_front() {
                            admit_ms[next_idx] = end_ms;
                            outcomes[next_idx] = run(next_idx);
                            let dur = outcomes[next_idx]
                                .as_ref()
                                .map_or(1.0, |o| o.virtual_ms);
                            running.push((end_ms + dur, next_idx));
                        }
                    }
                }
                1 => {
                    // Drain signal: stop admitting; in-flight work keeps
                    // going until it finishes or degrades.
                    ledger.draining = true;
                    drain_pending = None;
                    telemetry::event!("serve.drain", at_ms = t);
                }
                _ => {
                    // Arrival.
                    let idx = order[pos];
                    pos += 1;
                    let tenant = arrivals[idx].spec.tenant.as_str();
                    let pre = prepared[idx].as_ref().map(|_| ()).map_err(Clone::clone);
                    let verdict = ledger.gate(cfg, t, tenant, pre).and_then(|()| {
                        if running.len() < slots {
                            admit_ms[idx] = t;
                            outcomes[idx] = run(idx);
                            let dur = outcomes[idx].as_ref().map_or(1.0, |o| o.virtual_ms);
                            running.push((t + dur, idx));
                            Ok(())
                        } else if queue.push_back(idx).is_ok() {
                            Ok(())
                        } else {
                            Err(ledger.release(t, tenant, RejectReason::QueueFull))
                        }
                    });
                    match verdict {
                        Ok(()) => ledger.admit(t, tenant),
                        Err(reason) => {
                            telemetry::event!(
                                "serve.shed",
                                session = idx as u64,
                                tenant = tenant,
                                reason = reason.label(),
                            );
                            decisions[idx] = Some(Decision::Rejected { reason });
                        }
                    }
                }
            }
        }

        let LiveStats {
            admitted,
            shed,
            degraded,
            failed,
            drained,
            slo_breaches,
            ..
        } = ledger.stats();
        let obs = ledger.obs.snapshot();
        telemetry::counter!("serve.admitted", admitted as u64);
        telemetry::counter!("serve.shed", shed as u64);
        telemetry::counter!("serve.degraded", degraded as u64);
        telemetry::counter!("serve.failed", failed as u64);
        telemetry::counter!("serve.drained", drained as u64);
        telemetry::counter!("serve.slo_breaches", slo_breaches as u64);
        telemetry::gauge!("serve.queue_watermark", queue.watermark() as f64);
        self.cache.publish_telemetry();
        self.memo.publish_telemetry();

        // Every arrival terminates: admitted ones complete (the loop only
        // ends with `running` empty), rejected ones carry their reason.
        let decisions: Vec<Decision> = decisions
            .into_iter()
            .map(|d| {
                d.unwrap_or(Decision::Rejected {
                    reason: RejectReason::Draining,
                })
            })
            .collect();
        let records = decisions
            .into_iter()
            .enumerate()
            .map(|(i, decision)| ArrivalRecord {
                session: i,
                tenant: arrivals[i].spec.tenant.clone(),
                at_ms: arrivals[i].at_ms,
                decision,
            })
            .collect();
        ScheduleReport {
            records,
            outcomes,
            admitted,
            shed,
            degraded,
            failed,
            drained,
            queue_watermark: queue.watermark(),
            queue_capacity: cfg.queue_capacity,
            obs,
        }
    }

    // -----------------------------------------------------------------
    // Wall-clock live path (TCP front-end)
    // -----------------------------------------------------------------

    /// Submits one session on the live path at wall-clock `t_ms`
    /// (milliseconds since the caller's epoch, monotone per caller).
    /// Blocks while queued; runs the session synchronously once a slot
    /// frees.
    ///
    /// # Errors
    ///
    /// Returns the typed [`RejectReason`] when the session is shed or
    /// rejected.
    pub fn submit(&self, spec: SessionSpec, t_ms: f64) -> Result<LiveCompletion, RejectReason> {
        let span = telemetry::span!("serve.session", tenant = spec.tenant.as_str());
        let result = self.run_live(&spec, t_ms, &span);
        span.record(
            "outcome",
            match &result {
                Ok(done) => done.outcome.label,
                Err(reason) => reason.label(),
            },
        );
        result
    }

    /// [`submit`](Self::submit) inside its `serve.session` span.
    fn run_live(
        &self,
        spec: &SessionSpec,
        t_ms: f64,
        span: &telemetry::Span,
    ) -> Result<LiveCompletion, RejectReason> {
        let tenant = spec.tenant.as_str();
        // Cheap static validation before consuming any admission budget.
        let resolved = match self.table.resolve(spec, &self.cfg) {
            Ok(r) => r,
            Err(reason) => return Err(self.lock_live().refuse(t_ms, tenant, reason)),
        };
        let session = self.sessions.fetch_add(1, Ordering::Relaxed);
        span.record("session", session);
        let slots = self.cfg.slots.max(1);
        let mut st = self.lock_live();
        st.gate(&self.cfg, t_ms, tenant, Ok(()))?;
        if st.totals.active >= slots {
            if st.totals.waiting >= self.cfg.queue_capacity {
                return Err(st.release(t_ms, tenant, RejectReason::QueueFull));
            }
            st.totals.waiting += 1;
            st.totals.waiting_watermark = st.totals.waiting_watermark.max(st.totals.waiting);
            while !st.draining && st.totals.active >= slots {
                st = self
                    .slot_freed
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.totals.waiting -= 1;
            if st.draining {
                let reason = st.release(t_ms, tenant, RejectReason::Draining);
                drop(st);
                self.slot_freed.notify_all();
                return Err(reason);
            }
        }
        st.totals.active += 1;
        drop(st);

        // Slot held; heavy work happens outside the lock.
        let plan = self.cache.get_or_insert_with(resolved.key.pair(), || {
            search_plan(&resolved, spec.device, &self.cfg, &self.memo)
        });
        let best_accuracy = plan.best_branch_accuracy();
        let mut st = self.lock_live();
        if best_accuracy < spec.min_accuracy {
            st.totals.active -= 1;
            let reason = st.release(
                t_ms,
                tenant,
                RejectReason::Constraint {
                    best_accuracy,
                    min_accuracy: spec.min_accuracy,
                },
            );
            drop(st);
            self.slot_freed.notify_all();
            return Err(reason);
        }
        st.admit(t_ms, tenant);
        drop(st);
        let outcome = run_session(
            session,
            spec,
            &plan,
            &resolved.context.exec_trace,
            &self.cfg,
        );

        // Observability rides on the submission timestamp (the live path
        // has no virtual completion instant); latency samples come from
        // the session's simulated per-request latencies.
        let mut st = self.lock_live();
        st.totals.active -= 1;
        st.complete(
            &self.cfg,
            t_ms,
            tenant,
            outcome.label,
            Some(&outcome.report),
        );
        drop(st);
        self.slot_freed.notify_all();
        Ok(LiveCompletion { session, outcome })
    }

    /// Starts a graceful drain: no new admissions; queued waiters are
    /// released with `shed:draining`; running sessions finish or
    /// degrade.
    pub fn begin_drain(&self) {
        let mut st = self.lock_live();
        st.draining = true;
        drop(st);
        self.slot_freed.notify_all();
    }

    /// Whether the live path is draining.
    pub fn is_draining(&self) -> bool {
        self.lock_live().draining
    }

    /// Blocks until no live session is running or waiting. Call after
    /// [`Server::begin_drain`].
    pub fn await_idle(&self) {
        let mut st = self.lock_live();
        while st.totals.active > 0 || st.totals.waiting > 0 {
            st = self
                .slot_freed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Live-path counters and gauges, read under one lock.
    pub fn live_stats(&self) -> LiveStats {
        self.lock_live().stats()
    }
}

/// Per-arrival state the scheduler carries between phases.
struct Prepared {
    plan: CachedPlan,
    context: Arc<ServedContext>,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{chaos_arrivals, ChaosConfig};

    #[test]
    fn admitted_outcomes_equal_a_fresh_run_on_the_same_plan() {
        let server = Server::new(ServerConfig::default());
        let chaos = ChaosConfig {
            sessions: 48,
            ..ChaosConfig::default()
        };
        let arrivals = chaos_arrivals(&chaos, server.config());
        let drain_at_ms = Some(arrivals[30].at_ms);
        let report = server.run_schedule(&arrivals, 1, drain_at_ms);
        assert!(report.admitted > 0 && report.shed > 0);
        for (i, (record, outcome)) in report.records.iter().zip(&report.outcomes).enumerate() {
            let admitted = matches!(record.decision, Decision::Admitted { .. });
            assert_eq!(outcome.is_some(), admitted, "session {i}");
            let Some(outcome) = outcome else { continue };
            let spec = &arrivals[i].spec;
            let p = server.prepare(spec).expect("an admitted session prepares");
            let fresh = run_session(i as u64, spec, &p.plan, &p.context.exec_trace, &server.cfg);
            assert_eq!(*outcome, fresh, "session {i}");
        }
    }
}
