//! Per-session model resolution and execution.
//!
//! A session is fully described by [`SessionSpec`]. Resolution turns the
//! spec into a [`ModelContextKey`] (rejecting malformed IR), one tree
//! search per *distinct* key warms the shared LRU cache with the tree's
//! [`TreePlan`], and [`run_session`] — a pure function of `(spec, plan,
//! trace, config, session id)` — streams the session's requests through
//! the executor's deadline/retry/fallback degradation policy. Purity is
//! what makes the discrete-event scheduler worker-count invariant:
//! outcomes can be precomputed in parallel in index order and replayed
//! serially.

use std::sync::{Arc, OnceLock};

use cadmc_core::executor::{ExecConfig, ExecReport, Mode, TreePlan};
use cadmc_core::memo::MemoPool;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::tree::ModelTree;
use cadmc_core::NetworkContext;
use cadmc_ir::{check_source, CheckedModel, ModelContextKey};
use cadmc_latency::Platform;
use cadmc_netsim::{BandwidthTrace, FaultSchedule, Scenario};
use cadmc_nn::{zoo, ModelSpec};

use crate::config::ServerConfig;

/// Number of discretized bandwidth levels every served context uses.
pub(crate) const CONTEXT_LEVELS: usize = 2;

/// Where a session's model comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSource {
    /// A built-in zoo model (`vgg11`, `vgg16`, `alexnet`, `mobilenet`,
    /// `squeezenet`, `tiny`).
    Zoo(String),
    /// Inline IR source text, statically checked before admission.
    Ir(String),
}

/// One client session: a model, an accuracy constraint, a device
/// profile and a bandwidth context, plus execution knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Tenant the session is accounted against (quotas, breaker).
    pub tenant: String,
    /// The model to reduce and serve.
    pub model: ModelSource,
    /// Minimum acceptable oracle accuracy of the served branch; a tree
    /// whose best branch falls below this is rejected up front
    /// (`rejected:constraint`) instead of executing.
    pub min_accuracy: f64,
    /// Edge device profile.
    pub device: Platform,
    /// Bandwidth scenario the session streams under.
    pub scenario: Scenario,
    /// Inference requests the session streams.
    pub requests: usize,
    /// Session RNG seed (estimator noise etc.).
    pub seed: u64,
    /// Base fault schedule on the session's own timeline; the server
    /// derives the per-session variant via
    /// [`FaultSchedule::for_session`].
    pub faults: FaultSchedule,
}

/// Why a session was not admitted (or not executed). `label()` is the
/// stable wire/log form — `shed:*` for load decisions that a client may
/// retry later, `rejected:*` for requests that are wrong as posed.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The server is draining and admits nothing new.
    Draining,
    /// The token bucket is empty: sustained arrival rate exceeds the
    /// configured admission capacity.
    Rate,
    /// Every service slot is busy and the bounded queue is full.
    QueueFull,
    /// The tenant is at its in-flight quota.
    Quota,
    /// The tenant's circuit breaker is open.
    Breaker,
    /// The model failed static checking (or named an unknown zoo entry).
    InvalidModel {
        /// What was wrong, in one line.
        detail: String,
    },
    /// The best branch the searched tree offers cannot meet the
    /// session's accuracy constraint.
    Constraint {
        /// Best available branch accuracy.
        best_accuracy: f64,
        /// The session's floor.
        min_accuracy: f64,
    },
    /// The request itself was malformed (unknown device/scenario/preset
    /// — produced by the wire layer, not the scheduler).
    BadRequest {
        /// What was wrong, in one line.
        detail: String,
    },
}

impl RejectReason {
    /// Stable typed label for logs and `Rejected{reason}` replies.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::Draining => "shed:draining",
            RejectReason::Rate => "shed:rate",
            RejectReason::QueueFull => "shed:queue-full",
            RejectReason::Quota => "shed:quota",
            RejectReason::Breaker => "shed:breaker",
            RejectReason::InvalidModel { .. } => "rejected:invalid-model",
            RejectReason::Constraint { .. } => "rejected:constraint",
            RejectReason::BadRequest { .. } => "rejected:bad-request",
        }
    }

    /// Whether this is a load-shedding decision (client may retry) as
    /// opposed to a malformed/unsatisfiable request.
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            RejectReason::Draining
                | RejectReason::Rate
                | RejectReason::QueueFull
                | RejectReason::Quota
                | RejectReason::Breaker
        )
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::InvalidModel { detail } => {
                write!(f, "{}: {detail}", self.label())
            }
            RejectReason::Constraint {
                best_accuracy,
                min_accuracy,
            } => write!(
                f,
                "{}: best branch accuracy {best_accuracy:.4} < floor {min_accuracy:.4}",
                self.label()
            ),
            RejectReason::BadRequest { detail } => {
                write!(f, "{}: {detail}", self.label())
            }
            other => write!(f, "{}", other.label()),
        }
    }
}

/// A scenario's served bandwidth context: the selection half a tree is
/// searched under and the held-out half sessions stream over.
#[derive(Debug)]
pub(crate) struct ServedContext {
    /// Context for tree search (selection half of the trace).
    pub search_ctx: NetworkContext,
    /// Held-out half the session actually streams over.
    pub exec_trace: BandwidthTrace,
}

/// A resolved session: the checked model plus the context it will be
/// searched and executed under.
#[derive(Debug)]
pub(crate) struct ResolvedSession {
    pub model: Arc<CheckedModel>,
    pub key: ModelContextKey,
    pub context: Arc<ServedContext>,
}

/// A zoo model's builder.
type ZooBuild = fn() -> ModelSpec;

/// The zoo models a session may name (case-insensitively), in
/// [`ResolveTable`] slot order.
const ZOO: [(&str, ZooBuild); 6] = [
    ("vgg11", zoo::vgg11_cifar),
    ("vgg16", zoo::vgg16_cifar),
    ("alexnet", zoo::alexnet_cifar),
    ("mobilenet", zoo::mobilenet_cifar),
    ("squeezenet", zoo::squeezenet_cifar),
    ("tiny", zoo::tiny_cnn),
];

/// What a server resolves once instead of on every arrival: each
/// scenario's [`ServedContext`] and each zoo model's [`CheckedModel`].
/// A slot is filled on first use and never evicted. Both domains are
/// closed (seven scenarios, six zoo names) and the context seed is fixed
/// per server, so the slot index is the whole key. Inline IR is checked
/// per arrival and never enters the table.
pub(crate) struct ResolveTable {
    seed: u64,
    contexts: [OnceLock<Arc<ServedContext>>; Scenario::ALL.len()],
    zoo: [OnceLock<Arc<CheckedModel>>; ZOO.len()],
}

impl ResolveTable {
    /// An empty table for contexts synthesized with `seed`.
    pub fn new(seed: u64) -> Self {
        ResolveTable {
            seed,
            contexts: Default::default(),
            zoo: Default::default(),
        }
    }

    /// `scenario`'s served context, characterized on first use.
    pub fn context(&self, scenario: Scenario) -> Arc<ServedContext> {
        let slot = &self.contexts[scenario.index()];
        Arc::clone(slot.get_or_init(|| {
            let ctx = NetworkContext::from_scenario(scenario, CONTEXT_LEVELS, self.seed);
            let (search_ctx, exec_trace) = ctx.train_test_split();
            Arc::new(ServedContext {
                search_ctx,
                exec_trace,
            })
        }))
    }

    /// The checked form of zoo model `name`, built on first use; `None`
    /// for a name the zoo does not have.
    pub fn zoo_model(&self, name: &str) -> Option<Arc<CheckedModel>> {
        let i = ZOO.iter().position(|(z, _)| z.eq_ignore_ascii_case(name))?;
        let build = ZOO[i].1;
        Some(Arc::clone(
            self.zoo[i].get_or_init(|| Arc::new(CheckedModel::from_spec(build()))),
        ))
    }

    /// Checks the spec's model and derives its cache key and context.
    ///
    /// The context descriptor canonicalizes everything the searched tree
    /// depends on besides the model itself: device profile, scenario,
    /// level count, server seed and episode budget. Two sessions with
    /// equal descriptors and equal IR hashes share one cached tree.
    ///
    /// The scenario's context and a zoo model's checked form come from
    /// the table; inline IR, the descriptor and the key are worked out
    /// on every call.
    pub fn resolve(
        &self,
        spec: &SessionSpec,
        cfg: &ServerConfig,
    ) -> Result<ResolvedSession, RejectReason> {
        debug_assert_eq!(cfg.seed, self.seed, "one table per server seed");
        let model = match &spec.model {
            ModelSource::Zoo(name) => match self.zoo_model(name) {
                Some(m) => m,
                None => {
                    return Err(RejectReason::InvalidModel {
                        detail: format!("unknown zoo model {name:?}"),
                    })
                }
            },
            ModelSource::Ir(src) => {
                let out = check_source(src);
                let clean = out.is_clean();
                match (out.model, clean) {
                    (Some(m), true) => Arc::new(m),
                    _ => {
                        let errors = out
                            .diagnostics
                            .iter()
                            .filter(|d| d.severity == cadmc_ir::Severity::Error)
                            .count();
                        let first = out
                            .diagnostics
                            .first()
                            .map(|d| d.message.clone())
                            .unwrap_or_else(|| "unparseable IR".to_string());
                        return Err(RejectReason::InvalidModel {
                            detail: format!("{errors} IR error(s); first: {first}"),
                        });
                    }
                }
            }
        };
        let device = match spec.device {
            Platform::Phone => "phone",
            Platform::Tx2 => "tx2",
            Platform::CloudServer => "cloud",
        };
        let descriptor = format!(
            "device={device}|scenario={}|k={CONTEXT_LEVELS}|seed={}|episodes={}|features={}",
            spec.scenario.name(),
            cfg.seed,
            cfg.episodes,
            cfg.feature_actions,
        );
        let key = ModelContextKey::new(&model, &descriptor);
        Ok(ResolvedSession {
            model,
            key,
            context: self.context(spec.scenario),
        })
    }
}

impl std::fmt::Debug for ResolveTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolveTable")
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// One tree search for a resolved session's cache key — the expensive
/// step the LRU cache amortizes across sessions — and the searched
/// tree's plan under `device`. Deterministic in `(model, context
/// descriptor, cfg)`; search failures fall back to the unsearched tree
/// root (all-edge static deployments remain valid), so serving never
/// panics on a pathological model.
pub(crate) fn search_plan(
    resolved: &ResolvedSession,
    device: Platform,
    cfg: &ServerConfig,
    memo: &MemoPool,
) -> TreePlan<'static> {
    let scfg = SearchConfig {
        episodes: cfg.episodes.max(1),
        feature_actions: cfg.feature_actions,
        ..SearchConfig::quick(cfg.seed)
    };
    let mut controllers = Controllers::new(&scfg);
    let env = cadmc_core::EvalEnv::for_edge(device);
    let n_blocks = resolved.model.blocks().unwrap_or(2);
    let search_ctx = &resolved.context.search_ctx;
    let levels = search_ctx.levels().to_vec();
    let tree = match cadmc_ir::entry::tree_search(
        &mut controllers,
        &resolved.model,
        &env,
        Some(&levels),
        Some(n_blocks),
        &scfg,
        memo,
        false,
        Some(search_ctx.trace()),
    ) {
        Ok(result) => result.tree,
        Err(_) => ModelTree::new(resolved.model.spec().clone(), n_blocks, levels),
    };
    TreePlan::new(env, tree)
}

/// Terminal outcome of one executed session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Worst request outcome: `failed` > `degraded` > `retried` > `ok`.
    pub label: &'static str,
    /// The full per-request report (latencies, accuracies, outcomes).
    pub report: ExecReport,
    /// Virtual service time the session occupies a slot for:
    /// `Σ latency + think_time × (requests − 1)`.
    pub virtual_ms: f64,
    /// Whether the session's tree had an all-edge fallback branch.
    pub has_edge_only_branch: bool,
    /// Best-branch oracle accuracy of the tree it ran against.
    pub best_accuracy: f64,
}

/// Runs one admitted session to its terminal outcome. Pure: the result
/// depends only on the arguments, never on wall time, worker count or
/// other sessions (the shared memo pool is value-deterministic, and the
/// plan's slots hold the same values whoever fills them).
pub(crate) fn run_session(
    session: u64,
    spec: &SessionSpec,
    plan: &TreePlan<'_>,
    exec_trace: &BandwidthTrace,
    cfg: &ServerConfig,
) -> SessionOutcome {
    let mut ec = ExecConfig::new(spec.requests.max(1), Mode::Emulation, spec.seed);
    ec.think_time_ms = cfg.think_time_ms;
    ec.deadline_ms = cfg.deadline_ms;
    ec.max_retries = cfg.max_retries;
    ec.backoff_ms = cfg.backoff_ms;
    ec.faults = spec.faults.for_session(session);
    let report = plan.execute(exec_trace, &ec);
    let label = if report.failed_count() > 0 {
        "failed"
    } else if report.degraded_count() > 0 {
        "degraded"
    } else if report.retried_count() > 0 {
        "retried"
    } else {
        "ok"
    };
    let virtual_ms = report.latencies_ms.iter().sum::<f64>()
        + cfg.think_time_ms * report.latencies_ms.len().saturating_sub(1) as f64;
    SessionOutcome {
        label,
        virtual_ms: virtual_ms.max(1.0),
        has_edge_only_branch: plan.has_edge_only_branch(),
        best_accuracy: plan.best_branch_accuracy(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SessionSpec {
        SessionSpec {
            tenant: "t0".to_string(),
            model: ModelSource::Zoo("tiny".to_string()),
            min_accuracy: 0.0,
            device: Platform::Phone,
            scenario: Scenario::FourGIndoorStatic,
            requests: 3,
            seed: 11,
            faults: FaultSchedule::none(),
        }
    }

    fn resolve(spec: &SessionSpec, cfg: &ServerConfig) -> Result<ResolvedSession, RejectReason> {
        ResolveTable::new(cfg.seed).resolve(spec, cfg)
    }

    #[test]
    fn zoo_session_resolves_and_runs() {
        let cfg = ServerConfig {
            episodes: 2,
            ..ServerConfig::default()
        };
        let spec = spec();
        let resolved = resolve(&spec, &cfg).expect("resolves");
        let memo = MemoPool::new();
        let plan = search_plan(&resolved, spec.device, &cfg, &memo);
        let out = run_session(0, &spec, &plan, &resolved.context.exec_trace, &cfg);
        assert_eq!(out.report.latencies_ms.len(), 3);
        assert_eq!(out.label, "ok");
        assert!(out.virtual_ms > 0.0);
    }

    #[test]
    fn unknown_zoo_and_bad_ir_are_invalid_model() {
        let cfg = ServerConfig::default();
        let table = ResolveTable::new(cfg.seed);
        let mut s = spec();
        s.model = ModelSource::Zoo("nope".to_string());
        let err = table
            .resolve(&s, &cfg)
            .expect_err("unknown zoo name rejected");
        assert_eq!(err.label(), "rejected:invalid-model");
        // A miss leaves no slot behind: the name is still unknown.
        assert!(table.zoo_model("nope").is_none());
        s.model = ModelSource::Ir("model broken {".to_string());
        let err = table.resolve(&s, &cfg).expect_err("bad IR rejected");
        assert_eq!(err.label(), "rejected:invalid-model");
        assert!(!err.is_shed());
    }

    #[test]
    fn same_spec_shares_a_cache_key_and_contexts_differ() {
        let cfg = ServerConfig::default();
        let a = resolve(&spec(), &cfg).expect("resolves");
        let b = resolve(&spec(), &cfg).expect("resolves");
        assert_eq!(a.key, b.key);
        let mut other = spec();
        other.scenario = Scenario::WifiWeakIndoor;
        let c = resolve(&other, &cfg).expect("resolves");
        assert_ne!(a.key, c.key);
        assert_eq!(a.key.ir_hash(), c.key.ir_hash());
    }

    #[test]
    fn table_contexts_equal_a_fresh_characterization() {
        let seed = ServerConfig::default().seed;
        let table = ResolveTable::new(seed);
        for scenario in Scenario::ALL {
            let cached = table.context(scenario);
            let fresh = NetworkContext::from_scenario(scenario, CONTEXT_LEVELS, seed);
            let (search_ctx, exec_trace) = fresh.train_test_split();
            let bits = |levels: &[f64]| levels.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(cached.search_ctx.levels()),
                bits(search_ctx.levels()),
                "{}",
                scenario.name()
            );
            assert_eq!(
                cached.search_ctx.trace().samples(),
                search_ctx.trace().samples()
            );
            assert_eq!(cached.exec_trace.samples(), exec_trace.samples());
            assert!(Arc::ptr_eq(&cached, &table.context(scenario)));
        }
    }

    #[test]
    fn table_zoo_models_equal_a_fresh_check() {
        let table = ResolveTable::new(ServerConfig::default().seed);
        for (name, build) in ZOO {
            let cached = table.zoo_model(name).expect("zoo name");
            let fresh = CheckedModel::from_spec(build());
            assert_eq!(cached.spec(), fresh.spec(), "{name}");
            assert_eq!(cached.ir_hash(), fresh.ir_hash(), "{name}");
            assert!(Arc::ptr_eq(
                &cached,
                &table.zoo_model(name).expect("zoo name")
            ));
            // Names match case-insensitively, onto the same slot.
            let upper = table
                .zoo_model(&name.to_ascii_uppercase())
                .expect("zoo name");
            assert!(Arc::ptr_eq(&cached, &upper));
        }
    }

    #[test]
    fn inline_ir_is_checked_per_call_and_shares_the_context() {
        let cfg = ServerConfig::default();
        let table = ResolveTable::new(cfg.seed);
        let ir = cadmc_ir::emit_model(&zoo::tiny_cnn());
        let s = SessionSpec {
            model: ModelSource::Ir(ir),
            ..spec()
        };
        let a = table.resolve(&s, &cfg).expect("clean IR");
        let b = table.resolve(&s, &cfg).expect("clean IR");
        assert!(!Arc::ptr_eq(&a.model, &b.model));
        assert_eq!(a.key, b.key);
        assert!(Arc::ptr_eq(&a.context, &b.context));
    }

    #[test]
    fn run_session_is_a_pure_function_of_its_inputs() {
        let cfg = ServerConfig {
            episodes: 2,
            ..ServerConfig::default()
        };
        let mut s = spec();
        s.faults = FaultSchedule::canned_outage();
        let resolved = resolve(&s, &cfg).expect("resolves");
        let memo = MemoPool::new();
        let plan = search_plan(&resolved, s.device, &cfg, &memo);
        let trace = &resolved.context.exec_trace;
        let a = run_session(5, &s, &plan, trace, &cfg);
        let b = run_session(5, &s, &plan, trace, &cfg);
        assert_eq!(a, b);
    }
}
