//! Online execution over a bandwidth trace: the paper's **emulation**
//! (§VII-B2) and **field test** (§VII-B3) harnesses.
//!
//! A stream of inference requests runs back-to-back against a replayed
//! bandwidth trace. Static policies (dynamic DNN surgery, optimal branch)
//! deploy one fixed candidate; the model-tree policy re-decides at every
//! block boundary from the currently *measured* bandwidth (Alg. 2), which
//! is exactly where its advantage under fluctuation comes from.
//!
//! The emulation mode uses the estimated latency model and perfect
//! bandwidth knowledge, like the paper's emulation. The field mode
//! injects the two error sources the paper blames for its emulation→field
//! gap: (i) latency-model inaccuracy — a systematic multiplicative bias
//! plus per-request jitter on compute times — and (ii) "a coarse
//! estimation of network conditions" — decisions see a smoothed, stale
//! bandwidth estimate while transfers pay the true instantaneous one.
//!
//! ## Fault injection and graceful degradation
//!
//! With a non-empty [`cadmc_netsim::FaultSchedule`] in [`ExecConfig`]
//! the network can also *fail*, not just vary: outages, collapses, RTT
//! spikes and estimator freezes. The executor then runs a degradation
//! policy per request: each transfer gets a deadline derived from the
//! branch's expected transfer latency, a timed-out transfer is retried
//! with deterministic exponential backoff, and when retries are
//! exhausted the request falls back to an edge-heavier composition
//! (validated by [`crate::validate`]) instead of hanging. The per-request
//! resolution is recorded as a [`RequestOutcome`]. With the default empty
//! schedule and no explicit deadline, the degradation machinery is fully
//! bypassed and the executor is bit-identical to the fault-free one.
//!
//! ## Planned once, decided per request
//!
//! Like the paper's device, which stores every transformed block of the
//! tree, a walk runs against a [`TreePlan`] that keeps what no request
//! changes: each node's estimated edge latency, and each branch's
//! transfer bytes, cloud latency, accuracy, edge-only flag and fallback
//! legality. A slot is filled the first time a walk reaches it. Per
//! request a walk does only the bandwidth estimate, the fork match, the
//! transfer at the traced bandwidth and the noise — in the same order,
//! on the same values, as composing the branch afresh would, so reports
//! are bit-identical. A static policy likewise works out its candidate's
//! figures once per [`execute`] call.
//!
//! A plan is bound to one [`EvalEnv`]: device profiles and oracle are
//! baked into its slots. [`execute`] builds a plan private to the call.
//! A caller that runs one tree many times under one environment builds
//! it once ([`TreePlan::new`]) and shares it — the serving layer keeps
//! one per tree-cache entry, so it lives and dies with the entry and the
//! sessions still holding it.

use std::borrow::Cow;
use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cadmc_latency::Mbps;
use cadmc_netsim::{BandwidthEstimator, BandwidthTrace, FaultSchedule};
use cadmc_nn::ModelSpec;
use cadmc_telemetry as telemetry;

use crate::candidate::Candidate;
use crate::env::EvalEnv;
use crate::reward::{Evaluation, RewardSpec};
use crate::tree::ModelTree;
use crate::validate;

/// What drives deployment decisions during execution.
#[derive(Debug, Clone)]
pub enum Policy<'a> {
    /// A fixed candidate chosen offline (surgery or optimal branch).
    Static(&'a Candidate),
    /// A context-aware model tree walked per Alg. 2.
    Tree(&'a ModelTree),
}

/// Fidelity mode of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Estimated latencies, perfect bandwidth knowledge (Table 4).
    Emulation,
    /// Noisy latencies, stale/coarse bandwidth estimation (Table 5).
    Field,
}

/// Execution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecConfig {
    /// Number of inference requests to stream.
    pub requests: usize,
    /// Emulation or field fidelity.
    pub mode: Mode,
    /// Noise / estimator seed.
    pub seed: u64,
    /// Idle gap between consecutive requests (ms of trace time). Choose
    /// it so the run spans the whole trace: back-to-back requests would
    /// otherwise sample only the first seconds of the context.
    pub think_time_ms: f64,
    /// Scheduled network faults. Empty (the default) means the network
    /// only varies, never fails, and the degradation policy is bypassed.
    pub faults: FaultSchedule,
    /// Explicit per-attempt transfer deadline (ms). `None` derives it
    /// from the branch's expected transfer latency
    /// (`DEADLINE_FACTOR × expected`, floored at `MIN_DEADLINE_MS`).
    pub deadline_ms: Option<f64>,
    /// Retries after the first timed-out transfer attempt.
    pub max_retries: u32,
    /// Base backoff quantum (ms); attempt `n` backs off `2ⁿ ×` this.
    pub backoff_ms: f64,
}

impl ExecConfig {
    /// A run with the given fidelity and default pacing/degradation knobs
    /// (400 ms think time, no faults, derived deadlines, 2 retries).
    pub fn new(requests: usize, mode: Mode, seed: u64) -> Self {
        Self {
            requests,
            mode,
            seed,
            think_time_ms: 400.0,
            faults: FaultSchedule::none(),
            deadline_ms: None,
            max_retries: 2,
            backoff_ms: 80.0,
        }
    }

    /// A standard emulation run (requests spread over a 60 s trace).
    pub fn emulation(requests: usize, seed: u64) -> Self {
        Self::new(requests, Mode::Emulation, seed)
    }

    /// A standard field run (requests spread over a 60 s trace).
    pub fn field(requests: usize, seed: u64) -> Self {
        Self::new(requests, Mode::Field, seed)
    }

    /// The same run under a fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }
}

/// How a single request resolved under the degradation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Completed on the first attempt (or needed no transfer at all).
    Ok,
    /// Completed after this many timed-out transfer attempts.
    Retried(u32),
    /// Transfer retries exhausted; completed via an edge-heavier
    /// fallback composition at degraded latency/accuracy.
    Degraded,
    /// No fallback could complete the request.
    Failed,
}

impl RequestOutcome {
    /// Stable label for CSV export and telemetry.
    pub fn label(self) -> String {
        match self {
            RequestOutcome::Ok => "ok".to_string(),
            RequestOutcome::Retried(n) => format!("retried:{n}"),
            RequestOutcome::Degraded => "degraded".to_string(),
            RequestOutcome::Failed => "failed".to_string(),
        }
    }
}

/// Per-run measurement report.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// End-to-end latency of each request (ms).
    pub latencies_ms: Vec<f64>,
    /// Oracle accuracy of the model each request actually ran.
    pub accuracies: Vec<f64>,
    /// How each request resolved (all `Ok` on the fault-free path).
    pub outcomes: Vec<RequestOutcome>,
}

impl ExecReport {
    /// Mean request latency (ms).
    pub fn mean_latency_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len().max(1) as f64
    }

    /// Mean accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        self.accuracies.iter().sum::<f64>() / self.accuracies.len().max(1) as f64
    }

    /// 95th-percentile latency (ms).
    pub fn p95_latency_ms(&self) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[((sorted.len() - 1) as f64 * 0.95).round() as usize]
    }

    /// The Eq. 7 evaluation of the run's mean accuracy and latency — how
    /// the paper's Tables 4–5 score each method.
    pub fn evaluation(&self, spec: &RewardSpec) -> Evaluation {
        Evaluation::new(self.mean_accuracy(), self.mean_latency_ms(), spec)
    }

    /// Writes the per-request timeline as `request,latency_ms,accuracy`
    /// CSV — handy for plotting how a policy adapts over a trace.
    ///
    /// # Errors
    ///
    /// Returns any write failure.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "request,latency_ms,accuracy")?;
        for (i, (l, a)) in self
            .latencies_ms
            .iter()
            .zip(&self.accuracies)
            .enumerate()
        {
            writeln!(w, "{i},{l},{a}")?;
        }
        Ok(())
    }

    /// Like [`ExecReport::write_csv`] with a fourth `outcome` column
    /// (`ok`, `retried:n`, `degraded`, `failed`) — the format the
    /// fault-matrix conformance suite compares byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns any write failure.
    pub fn write_csv_with_outcomes<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "request,latency_ms,accuracy,outcome")?;
        for (i, ((l, a), o)) in self
            .latencies_ms
            .iter()
            .zip(&self.accuracies)
            .zip(&self.outcomes)
            .enumerate()
        {
            writeln!(w, "{i},{l},{a},{}", o.label())?;
        }
        Ok(())
    }

    fn count_exact(&self, outcome: RequestOutcome) -> usize {
        self.outcomes.iter().filter(|&&o| o == outcome).count()
    }

    /// Requests that completed after at least one retry.
    pub fn retried_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Retried(_)))
            .count()
    }

    /// Requests that completed via the degradation fallback.
    pub fn degraded_count(&self) -> usize {
        self.count_exact(RequestOutcome::Degraded)
    }

    /// Requests no fallback could complete.
    pub fn failed_count(&self) -> usize {
        self.count_exact(RequestOutcome::Failed)
    }
}

struct NoiseModel {
    rng: StdRng,
    compute_bias: f64,
    active: bool,
}

impl NoiseModel {
    fn new(mode: Mode, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6669_656c_6421);
        let active = mode == Mode::Field;
        // Systematic latency-model error: real devices run hotter/slower
        // than the calibrated linear model (paper §VII-B3).
        let compute_bias = if active {
            1.45 + 0.15 * gauss(&mut rng).abs()
        } else {
            1.0
        };
        Self {
            rng,
            compute_bias,
            active,
        }
    }

    fn compute(&mut self, estimated_ms: f64) -> f64 {
        if !self.active {
            return estimated_ms;
        }
        let jitter = (1.0 + 0.08 * gauss(&mut self.rng)).max(0.5);
        estimated_ms * self.compute_bias * jitter
    }

    fn transfer(&mut self, estimated_ms: f64) -> f64 {
        if !self.active {
            return estimated_ms;
        }
        let jitter = (1.0 + 0.6 * gauss(&mut self.rng).abs()).max(0.5);
        estimated_ms * jitter
    }
}

fn gauss(rng: &mut StdRng) -> f64 {
    let s: f64 = (0..6).map(|_| rng.random_range(-0.5..0.5)).sum();
    s * (12.0f64 / 6.0).sqrt()
}

/// Histogram buckets for per-request end-to-end latency (ms).
const LATENCY_BOUNDS: &[f64] = &[5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0];

/// Derived transfer deadline = this factor × the expected transfer
/// latency. Chosen above the worst-case field-mode transfer jitter
/// (≈3.55×, bounded by the Irwin–Hall `gauss`), so a healthy link never
/// trips the deadline.
const DEADLINE_FACTOR: f64 = 4.0;

/// Floor on the derived deadline (ms), so tiny transfers on fast links
/// still get a meaningful wait before being declared failed.
const MIN_DEADLINE_MS: f64 = 10.0;

/// Streams `cfg.requests` inferences of `policy` against `trace` and
/// reports per-request latency and accuracy.
///
/// A tree policy runs against a [`TreePlan`] private to this call; a
/// caller that executes one tree many times under one environment can
/// build the plan once and call [`TreePlan::execute`] instead, with
/// bit-identical reports.
///
/// # Panics
///
/// Panics if `cfg.requests == 0`.
pub fn execute(
    env: &EvalEnv,
    base: &ModelSpec,
    policy: &Policy<'_>,
    trace: &BandwidthTrace,
    cfg: &ExecConfig,
) -> ExecReport {
    match policy {
        Policy::Static(candidate) => {
            let plan = StaticPlan::new(env, base, candidate);
            stream(trace, cfg, |run| {
                if run.degrade {
                    plan.run_degraded(env, run)
                } else {
                    let (latency, accuracy) = plan.run(env, run);
                    (latency, accuracy, RequestOutcome::Ok)
                }
            })
        }
        Policy::Tree(tree) => TreePlan::borrowed(env, base, tree).execute(trace, cfg),
    }
}

/// One run's clock and random state over a replayed trace: the virtual
/// time, the noise stream and the decision-side bandwidth estimator.
struct Run<'a> {
    trace: &'a BandwidthTrace,
    duration: f64,
    cfg: &'a ExecConfig,
    /// Whether the degradation policy is armed: only when something can
    /// actually fail (or the caller pinned a deadline). Disarmed, a run
    /// takes the fault-free walks: the arithmetic and RNG draws of a run
    /// with no degradation policy at all.
    degrade: bool,
    now: f64,
    noise: NoiseModel,
    estimator: BandwidthEstimator,
}

impl<'a> Run<'a> {
    fn new(trace: &'a BandwidthTrace, cfg: &'a ExecConfig) -> Self {
        Run {
            trace,
            duration: trace.duration_ms(),
            cfg,
            degrade: !cfg.faults.is_empty() || cfg.deadline_ms.is_some(),
            now: 0.0,
            noise: NoiseModel::new(cfg.mode, cfg.seed),
            estimator: match cfg.mode {
                Mode::Emulation => BandwidthEstimator::ideal(),
                Mode::Field => BandwidthEstimator::field(),
            },
        }
    }

    /// True bandwidth at trace time `t` (the trace loops).
    fn bw_at(&self, t: f64) -> f64 {
        self.trace.at_ms(t % self.duration)
    }

    /// Pays an estimated compute time through the noise model, advancing
    /// the clock; returns the time paid.
    fn compute(&mut self, estimated_ms: f64) -> f64 {
        let t = self.noise.compute(estimated_ms);
        self.now += t;
        t
    }

    /// Ships `bytes` at the true bandwidth now, advancing the clock;
    /// returns the time paid (the fault-free transfer).
    fn transfer(&mut self, env: &EvalEnv, bytes: u64) -> f64 {
        let bw = Mbps(self.bw_at(self.now));
        let t = self.noise.transfer(env.transfer.latency_ms(bytes, bw));
        self.now += t;
        t
    }
}

/// The request loop every policy shares: one `exec.run` span, one noise
/// stream and estimator, `request` per inference with the think time in
/// between.
fn stream(
    trace: &BandwidthTrace,
    cfg: &ExecConfig,
    mut request: impl FnMut(&mut Run<'_>) -> (f64, f64, RequestOutcome),
) -> ExecReport {
    assert!(cfg.requests > 0, "need at least one request");
    let _run_span = telemetry::span!(
        "exec.run",
        requests = cfg.requests,
        mode = match cfg.mode {
            Mode::Emulation => "emulation",
            Mode::Field => "field",
        },
    );
    let mut run = Run::new(trace, cfg);
    let mut latencies_ms = Vec::with_capacity(cfg.requests);
    let mut accuracies = Vec::with_capacity(cfg.requests);
    let mut outcomes = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        let (latency, accuracy, outcome) = request(&mut run);
        telemetry::hist!("exec.latency_ms", LATENCY_BOUNDS, latency);
        latencies_ms.push(latency);
        accuracies.push(accuracy);
        outcomes.push(outcome);
        run.now += cfg.think_time_ms;
    }
    ExecReport {
        latencies_ms,
        accuracies,
        outcomes,
    }
}

/// The request-independent figures of one composed deployment: all an
/// Alg. 2 walk needs once it has picked a branch, short of the transfer
/// latency at the traced bandwidth and the noise.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BranchPlan {
    /// Leading layers of the composed model that run on the edge.
    edge_layers: usize,
    /// Layers of the composed model.
    layers: usize,
    /// Bytes of the (feature-compressed) tensor crossing the cut.
    transfer_bytes: u64,
    /// Estimated cloud latency of the layers past the cut (ms).
    cloud_ms: f64,
    /// Oracle accuracy of the composed model on its base.
    accuracy: f64,
}

impl BranchPlan {
    /// The figures of `candidate`, composed from `base`, under `env`.
    fn of(env: &EvalEnv, base: &ModelSpec, candidate: &Candidate) -> Self {
        let m = &candidate.model;
        let cut = candidate.edge_layers;
        BranchPlan {
            edge_layers: cut,
            layers: m.len(),
            transfer_bytes: candidate.transfer_bytes(),
            cloud_ms: env.cloud.range_latency_ms(m, cut, m.len()),
            accuracy: env.oracle.evaluate(base, &candidate.actions),
        }
    }

    /// Whether the whole composed model runs on the edge (no transfer,
    /// no cloud part).
    fn edge_only(&self) -> bool {
        self.edge_layers >= self.layers
    }
}

/// A static candidate's figures, worked out once per [`execute`] call.
struct StaticPlan {
    branch: BranchPlan,
    /// Estimated edge latency of the layers before the cut (ms).
    edge_ms: f64,
    /// Estimated edge latency of the layers past the cut: the local tail
    /// a degraded request runs instead of the cloud part (ms).
    tail_ms: f64,
}

impl StaticPlan {
    fn new(env: &EvalEnv, base: &ModelSpec, candidate: &Candidate) -> Self {
        let m = &candidate.model;
        let cut = candidate.edge_layers;
        StaticPlan {
            branch: BranchPlan::of(env, base, candidate),
            edge_ms: env.edge.range_latency_ms(m, 0, cut),
            tail_ms: env.edge.range_latency_ms(m, cut, m.len()),
        }
    }

    fn run(&self, env: &EvalEnv, run: &mut Run<'_>) -> (f64, f64) {
        let b = &self.branch;
        let mut total = 0.0;
        total += run.compute(self.edge_ms);
        if !b.edge_only() {
            total += run.transfer(env, b.transfer_bytes);
            total += run.compute(b.cloud_ms);
        }
        (total, b.accuracy)
    }

    /// Under the degradation policy: on transfer exhaustion the remaining
    /// layers run locally — same model, same accuracy, edge-speed tail
    /// latency.
    fn run_degraded(&self, env: &EvalEnv, run: &mut Run<'_>) -> (f64, f64, RequestOutcome) {
        let b = &self.branch;
        let cfg = run.cfg;
        let mut total = 0.0;
        total += run.compute(self.edge_ms);
        if b.edge_only() {
            return (total, b.accuracy, RequestOutcome::Ok);
        }
        // The deadline reflects what the static deployment plan believed:
        // the healthy trace bandwidth at transfer time.
        let deadline = transfer_deadline_ms(env, b.transfer_bytes, run.bw_at(run.now), cfg);
        match transfer_with_retries(env, b.transfer_bytes, deadline, cfg.max_retries, run) {
            TransferPhase::Done {
                elapsed_ms,
                retries,
            } => {
                total += elapsed_ms;
                total += run.compute(b.cloud_ms);
                (total, b.accuracy, RequestOutcome::after(retries))
            }
            TransferPhase::Exhausted { elapsed_ms } => {
                total += elapsed_ms;
                total += run.compute(self.tail_ms);
                telemetry::event!(
                    "exec.fallback",
                    policy = "static",
                    edge_only = true,
                    edge_layers = b.layers,
                );
                telemetry::counter!("exec.fallbacks", 1);
                (total, b.accuracy, RequestOutcome::Degraded)
            }
        }
    }
}

impl RequestOutcome {
    /// A transfer that went through after `retries` timed-out attempts.
    fn after(retries: u32) -> Self {
        if retries == 0 {
            RequestOutcome::Ok
        } else {
            RequestOutcome::Retried(retries)
        }
    }
}

/// Everything of an Alg. 2 walk over one tree under one environment
/// that does not depend on the request, worked out on first use and
/// kept.
///
/// Per node it holds the estimated edge latency of the node's block.
/// Per terminal node — a partitioned node or a leaf, which fixes its
/// root→node path — it holds the composed branch's [`BranchPlan`] and
/// whether the branch may serve as a degradation fallback
/// ([`validate::candidate`]). Each slot is a [`OnceLock`] filled the
/// first time a walk reaches it, so concurrent walks over one shared
/// plan compose each branch once and then only read. A walk still does
/// the per-request work itself: the bandwidth estimate, the fork match,
/// the transfer at the traced bandwidth and the noise, in the same order
/// on the same values as composing afresh, so reports are bit-identical.
///
/// A plan is bound to the environment it was built with: the edge and
/// cloud profiles and the oracle are baked into every slot.
#[derive(Debug)]
pub struct TreePlan<'a> {
    env: Cow<'a, EvalEnv>,
    tree: Cow<'a, ModelTree>,
    /// The model accuracy and fallback legality are judged against,
    /// when it is not the tree's own base.
    base: Option<&'a ModelSpec>,
    edge_ms: Box<[OnceLock<Option<f64>>]>,
    branches: Box<[OnceLock<BranchPlan>]>,
    fallback_ok: Box<[OnceLock<bool>]>,
    best_accuracy: OnceLock<f64>,
    has_edge_only: OnceLock<bool>,
}

impl TreePlan<'static> {
    /// A plan owning `tree` and `env`, judging accuracy against the
    /// tree's own base model. Nothing is composed until a walk needs it.
    pub fn new(env: EvalEnv, tree: ModelTree) -> Self {
        Self::with(Cow::Owned(env), None, Cow::Owned(tree))
    }
}

impl<'a> TreePlan<'a> {
    /// A plan over borrowed inputs, judging accuracy against `base`: what
    /// [`execute`] builds for one call.
    fn borrowed(env: &'a EvalEnv, base: &'a ModelSpec, tree: &'a ModelTree) -> Self {
        Self::with(Cow::Borrowed(env), Some(base), Cow::Borrowed(tree))
    }

    fn with(env: Cow<'a, EvalEnv>, base: Option<&'a ModelSpec>, tree: Cow<'a, ModelTree>) -> Self {
        let n = tree.nodes().len();
        TreePlan {
            env,
            base,
            edge_ms: (0..n).map(|_| OnceLock::new()).collect(),
            branches: (0..n).map(|_| OnceLock::new()).collect(),
            fallback_ok: (0..n).map(|_| OnceLock::new()).collect(),
            tree,
            best_accuracy: OnceLock::new(),
            has_edge_only: OnceLock::new(),
        }
    }

    /// The planned tree.
    pub fn tree(&self) -> &ModelTree {
        &self.tree
    }

    fn base(&self) -> &ModelSpec {
        self.base.unwrap_or_else(|| self.tree.base())
    }

    /// Estimated edge latency of node `id`'s block, `None` when none of
    /// the block runs on the edge (the node partitions at its first
    /// layer).
    fn edge_ms(&self, id: usize) -> Option<f64> {
        *self.edge_ms[id].get_or_init(|| {
            self.tree
                .node_edge_spec(id)
                .map(|spec| self.env.edge.model_latency_ms(&spec))
        })
    }

    /// The composed branch of a root→terminal `path`, keyed by its last
    /// node.
    fn branch(&self, path: &[usize]) -> BranchPlan {
        let last = *path.last().expect("branch paths are non-empty");
        *self.branches[last]
            .get_or_init(|| BranchPlan::of(&self.env, self.base(), &self.tree.compose_path(path)))
    }

    /// Whether the composed branch of a root→terminal `path` passes
    /// [`validate::candidate`] — the gate every degradation fallback
    /// must pass before it may run.
    fn fallback_valid(&self, path: &[usize]) -> bool {
        let last = *path.last().expect("branch paths are non-empty");
        *self.fallback_ok[last]
            .get_or_init(|| validate::candidate(self.base(), &self.tree.compose_path(path)).is_ok())
    }

    /// Oracle accuracy of the branch with the highest leaf reward (the
    /// base model's own accuracy for an empty tree).
    pub fn best_branch_accuracy(&self) -> f64 {
        *self
            .best_accuracy
            .get_or_init(|| match self.tree.best_branch_path() {
                Some(path) => self.branch(&path).accuracy,
                None => self.env.oracle.evaluate(self.base(), &[]),
            })
    }

    /// Whether the tree offers at least one all-edge (cloud-free) branch
    /// — the precondition under which an outage must degrade, never
    /// fail.
    pub fn has_edge_only_branch(&self) -> bool {
        *self.has_edge_only.get_or_init(|| {
            self.tree
                .branches()
                .iter()
                .any(|path| self.branch(path).edge_only())
        })
    }

    /// Streams `cfg.requests` inferences of the tree against `trace`, as
    /// [`execute`] with [`Policy::Tree`] does.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.requests == 0` or the tree is empty.
    pub fn execute(&self, trace: &BandwidthTrace, cfg: &ExecConfig) -> ExecReport {
        let mut path = Vec::with_capacity(self.tree.n_blocks() + 1);
        stream(trace, cfg, |run| {
            if run.degrade {
                self.walk_degraded(run, &mut path)
            } else {
                let (latency, accuracy) = self.walk(run, &mut path);
                (latency, accuracy, RequestOutcome::Ok)
            }
        })
    }

    /// Alg. 2's descent: times each visited block and, at each fork,
    /// measures the bandwidth and takes the matching child. Leaves the
    /// visited root→terminal path in `path` and returns the edge time
    /// paid.
    ///
    /// Per-node edge latencies are estimated on each block in isolation
    /// (inputs taken from the base model's shapes). When an earlier
    /// block's rewrite changes its output channel count (W1 pruning at a
    /// block boundary), the next block's true cost in the composed model
    /// is very slightly lower than this estimate — a conservative,
    /// consistent approximation shared by all compared policies.
    ///
    /// Under the degradation policy a probe sees the *faulted* network,
    /// and when the uplink is down or the estimator is frozen the probe
    /// is *held*: the fork trusts the last (now stale) estimate, which
    /// is exactly how a chosen branch's uplink can disappear between the
    /// fork decision and the tensor transfer.
    fn descend(&self, run: &mut Run<'_>, path: &mut Vec<usize>) -> f64 {
        let tree = &*self.tree;
        let faults = &run.cfg.faults;
        let mut total = 0.0;
        let mut id = tree.root().expect("cannot execute an empty tree");
        path.clear();
        path.push(id);
        loop {
            if let Some(te) = self.edge_ms(id) {
                total += run.compute(te);
            }
            let node = &tree.nodes()[id];
            if node.partition_abs.is_some() || node.children.is_empty() {
                break;
            }
            // Alg. 2 line 5: measure current bandwidth, match to a fork.
            let t = run.now;
            let est = if !run.degrade {
                run.estimator.observe(t, run.bw_at(t))
            } else {
                let eff = faults.effective_bandwidth(t, run.bw_at(t));
                if faults.link_down(t) || faults.estimator_frozen(t) {
                    run.estimator.observe_held(t, eff)
                } else {
                    run.estimator.observe(t, eff)
                }
            };
            let k = tree.match_level(est);
            telemetry::event!(
                "compose.fork",
                level = node.level,
                bandwidth = est,
                child = k,
            );
            id = node.children[k];
            path.push(id);
        }
        total
    }

    /// One fault-free request: the descent, then the chosen branch's
    /// transfer and cloud part; returns its latency and accuracy.
    fn walk(&self, run: &mut Run<'_>, path: &mut Vec<usize>) -> (f64, f64) {
        let mut total = self.descend(run, path);
        let b = self.branch(path);
        if !b.edge_only() {
            total += run.transfer(&self.env, b.transfer_bytes);
            total += run.compute(b.cloud_ms);
        }
        (total, b.accuracy)
    }

    /// One request under the degradation policy. On transfer exhaustion
    /// the walk re-forks to the lowest-bandwidth child
    /// ([`ModelTree::fallback_paths`]), preferring an edge-only
    /// composition, and every fallback is checked by
    /// [`validate::candidate`] before it may run.
    fn walk_degraded(
        &self,
        run: &mut Run<'_>,
        path: &mut Vec<usize>,
    ) -> (f64, f64, RequestOutcome) {
        let cfg = run.cfg;
        let mut total = self.descend(run, path);
        let b = self.branch(path);
        if b.edge_only() {
            return (total, b.accuracy, RequestOutcome::Ok);
        }
        // Deadline from the bandwidth the walk believed it had (the
        // possibly stale estimate that chose this branch). A fork-free
        // walk never probed, so it believes the healthy trace bandwidth —
        // not the faulted one, which would be 0 in an outage and blow up
        // the budget.
        let believed_bw = run
            .estimator
            .current()
            .unwrap_or_else(|| run.bw_at(run.now));
        let deadline = transfer_deadline_ms(&self.env, b.transfer_bytes, believed_bw, cfg);
        match transfer_with_retries(&self.env, b.transfer_bytes, deadline, cfg.max_retries, run) {
            TransferPhase::Done {
                elapsed_ms,
                retries,
            } => {
                total += elapsed_ms;
                total += run.compute(b.cloud_ms);
                (total, b.accuracy, RequestOutcome::after(retries))
            }
            TransferPhase::Exhausted { elapsed_ms } => {
                total += elapsed_ms;
                self.fallback(path, total, run)
            }
        }
    }

    /// The fallback walk after transfer exhaustion: re-fork to the
    /// lowest-bandwidth child, deepest fork first, preferring an
    /// edge-only composition and otherwise the edge-heaviest one.
    /// Illegal compositions (per [`validate::candidate`]) are skipped. A
    /// fallback that still partitions gets one last transfer attempt; if
    /// that fails too, the request is `Failed`.
    fn fallback(
        &self,
        path: &[usize],
        mut total: f64,
        run: &mut Run<'_>,
    ) -> (f64, f64, RequestOutcome) {
        let cfg = run.cfg;
        let mut chosen: Option<(Vec<usize>, BranchPlan)> = None;
        for p in self.tree.fallback_paths(path) {
            // A fallback must never assemble an illegal model.
            if !self.fallback_valid(&p) {
                continue;
            }
            let b = self.branch(&p);
            if b.edge_only() {
                chosen = Some((p, b));
                break;
            }
            let better = match &chosen {
                Some((_, best)) => b.edge_layers > best.edge_layers,
                None => true,
            };
            if better {
                chosen = Some((p, b));
            }
        }
        let Some((fb_path, fb)) = chosen else {
            telemetry::counter!("exec.failed", 1);
            telemetry::event!("exec.fallback", policy = "tree", resolved = false);
            return (total, 0.0, RequestOutcome::Failed);
        };
        // Blocks up to the re-fork point were already computed; pay only
        // the new suffix of the fallback branch.
        let shared = path
            .iter()
            .zip(&fb_path)
            .take_while(|(a, b)| a == b)
            .count();
        for &nid in &fb_path[shared..] {
            if let Some(te) = self.edge_ms(nid) {
                total += run.compute(te);
            }
        }
        let edge_only = fb.edge_only();
        telemetry::event!(
            "exec.fallback",
            policy = "tree",
            resolved = true,
            edge_only = edge_only,
            edge_layers = fb.edge_layers,
            refork_depth = shared,
        );
        telemetry::counter!("exec.fallbacks", 1);
        if edge_only {
            return (total, fb.accuracy, RequestOutcome::Degraded);
        }
        // Last-ditch single transfer attempt for a fallback that still
        // partitions (the tree may have no edge-only branch at all).
        let believed_bw = cfg.faults.effective_bandwidth(run.now, run.bw_at(run.now));
        let deadline = transfer_deadline_ms(&self.env, fb.transfer_bytes, believed_bw, cfg);
        match transfer_with_retries(&self.env, fb.transfer_bytes, deadline, 0, run) {
            TransferPhase::Done { elapsed_ms, .. } => {
                total += elapsed_ms;
                total += run.compute(fb.cloud_ms);
                (total, fb.accuracy, RequestOutcome::Degraded)
            }
            TransferPhase::Exhausted { elapsed_ms } => {
                total += elapsed_ms;
                telemetry::counter!("exec.failed", 1);
                (total, 0.0, RequestOutcome::Failed)
            }
        }
    }
}

/// Resolution of the retry loop around one tensor transfer.
enum TransferPhase {
    /// The transfer went through; `elapsed_ms` is the total wall time of
    /// the phase including earlier timed-out attempts and backoffs.
    Done { elapsed_ms: f64, retries: u32 },
    /// Every attempt timed out; `elapsed_ms` covers all waits/backoffs.
    Exhausted { elapsed_ms: f64 },
}

/// Per-attempt transfer deadline for a `bytes`-sized transfer, derived
/// from its expected latency at the bandwidth the policy *believes* it
/// has (`cfg.deadline_ms` overrides).
fn transfer_deadline_ms(env: &EvalEnv, bytes: u64, expected_bw: f64, cfg: &ExecConfig) -> f64 {
    if let Some(d) = cfg.deadline_ms {
        return d;
    }
    let expected = env.transfer.latency_ms(bytes, Mbps(expected_bw.max(1e-6)));
    (DEADLINE_FACTOR * expected).max(MIN_DEADLINE_MS)
}

/// Attempts a `bytes`-sized tensor transfer up to `1 + retries` times
/// under the fault schedule. A timed-out attempt costs the full deadline
/// plus a deterministic exponential backoff (`backoff_ms × 2ⁿ`), so no
/// attempt ever overruns its deadline by more than one backoff quantum.
/// Advances the run's clock by the elapsed wall time.
fn transfer_with_retries(
    env: &EvalEnv,
    bytes: u64,
    deadline_ms: f64,
    retries: u32,
    run: &mut Run<'_>,
) -> TransferPhase {
    let cfg = run.cfg;
    let mut elapsed = 0.0;
    for attempt in 0..=retries {
        let t = run.now;
        let link_down = cfg.faults.link_down(t);
        if !link_down {
            let eff = cfg.faults.effective_bandwidth(t, run.bw_at(t));
            let actual = run
                .noise
                .transfer(env.transfer.latency_ms(bytes, Mbps(eff)))
                + cfg.faults.extra_rtt_ms(t);
            if actual <= deadline_ms {
                run.now += actual;
                elapsed += actual;
                return TransferPhase::Done {
                    elapsed_ms: elapsed,
                    retries: attempt,
                };
            }
        }
        // Timed out: either the uplink is down (nothing moves until the
        // deadline fires) or the transfer overran its budget and is
        // abandoned at the deadline.
        let backoff = if attempt < retries {
            cfg.backoff_ms * f64::from(1u32 << attempt.min(16))
        } else {
            0.0
        };
        telemetry::event!(
            "exec.fault",
            attempt = attempt,
            reason = if link_down { "outage" } else { "deadline" },
            waited_ms = deadline_ms,
            deadline_ms = deadline_ms,
            backoff_ms = backoff,
        );
        telemetry::counter!("exec.transfer_timeouts", 1);
        if attempt < retries {
            telemetry::counter!("exec.retries", 1);
        }
        run.now += deadline_ms + backoff;
        elapsed += deadline_ms + backoff;
    }
    TransferPhase::Exhausted {
        elapsed_ms: elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_netsim::Scenario;
    use cadmc_nn::zoo;

    fn flat_trace(mbps: f64) -> BandwidthTrace {
        BandwidthTrace::new(100.0, vec![mbps; 600])
    }

    #[test]
    fn static_emulation_matches_env_evaluate_on_flat_trace() {
        let env = EvalEnv::phone();
        let base = zoo::vgg11_cifar();
        let c = crate::surgery::plan(&base, &env, Mbps(10.0)).candidate;
        let trace = flat_trace(10.0);
        let report = execute(
            &env,
            &base,
            &Policy::Static(&c),
            &trace,
            &ExecConfig::emulation(5, 1),
        );
        let expected = env.latency_ms(&c, Mbps(10.0));
        for &l in &report.latencies_ms {
            assert!((l - expected).abs() < 1e-9, "{l} vs {expected}");
        }
    }

    #[test]
    fn field_mode_is_slower_than_emulation() {
        let env = EvalEnv::phone();
        let base = zoo::vgg11_cifar();
        let c = Candidate::base_all_edge(&base);
        let trace = Scenario::FourGWeakIndoor.trace(1);
        let emu = execute(
            &env,
            &base,
            &Policy::Static(&c),
            &trace,
            &ExecConfig::emulation(20, 2),
        );
        let field = execute(
            &env,
            &base,
            &Policy::Static(&c),
            &trace,
            &ExecConfig::field(20, 2),
        );
        assert!(
            field.mean_latency_ms() > 1.2 * emu.mean_latency_ms(),
            "field {:.1} vs emulation {:.1}",
            field.mean_latency_ms(),
            emu.mean_latency_ms()
        );
    }

    /// A hand-built 2-level tree: poor fork (child 0) = stay on edge;
    /// good fork (child 1) = partition to the cloud. The shape both the
    /// fluctuation test and the degradation tests rely on — its child 0
    /// is an **edge-only branch**, so a fallback can always complete.
    fn two_fork_tree(base: &ModelSpec) -> ModelTree {
        use crate::tree::TreeNode;
        let mut tree = ModelTree::new(base.clone(), 2, vec![1.0, 30.0]);
        let root = tree.push_node(
            None,
            TreeNode {
                level: 0,
                partition_abs: None,
                actions: vec![],
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: vec![],
                reward: 0.0,
            },
        );
        let r1 = tree.block_range(1);
        // Poor fork: finish on the edge.
        tree.push_node(
            Some(root),
            TreeNode {
                level: 1,
                partition_abs: None,
                actions: vec![],
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: vec![],
                reward: 0.0,
            },
        );
        // Good fork: offload the tail.
        tree.push_node(
            Some(root),
            TreeNode {
                level: 1,
                partition_abs: Some(r1.start),
                actions: vec![],
                feature: cadmc_compress::FeatureAction::IDENTITY,
                children: vec![],
                reward: 0.0,
            },
        );
        tree
    }

    #[test]
    fn tree_execution_adapts_to_fluctuation() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let tree = two_fork_tree(&base);
        // Alternate 0.5 / 60 Mbps every 300 ms so consecutive requests
        // (each a few tens of ms) see both regimes.
        let samples: Vec<f64> = (0..600)
            .map(|i| if (i / 3) % 2 == 0 { 0.5 } else { 60.0 })
            .collect();
        let trace = BandwidthTrace::new(100.0, samples);
        let report = execute(
            &env,
            &base,
            &Policy::Tree(&tree),
            &trace,
            &ExecConfig::emulation(40, 3),
        );
        // Latency distribution must be bimodal: some all-edge runs, some
        // offloaded runs.
        let min = report
            .latencies_ms
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = report
            .latencies_ms
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max > min + 2.0,
            "tree never changed its decision: min {min:.1} max {max:.1}"
        );
    }

    fn report_of(latencies_ms: Vec<f64>, accuracies: Vec<f64>) -> ExecReport {
        let outcomes = vec![RequestOutcome::Ok; latencies_ms.len()];
        ExecReport {
            latencies_ms,
            accuracies,
            outcomes,
        }
    }

    #[test]
    fn report_statistics() {
        let report = report_of(vec![10.0, 20.0, 30.0], vec![0.9, 0.9, 0.9]);
        assert!((report.mean_latency_ms() - 20.0).abs() < 1e-9);
        assert!((report.mean_accuracy() - 0.9).abs() < 1e-9);
        assert_eq!(report.p95_latency_ms(), 30.0);
        let eval = report.evaluation(&RewardSpec::default());
        assert!(eval.reward > 0.0);
    }

    #[test]
    fn p95_index_math_at_the_quantile_boundary() {
        // Convention: index = round((len - 1) × 0.95), matching
        // `BandwidthTrace::quantile`. Pin the boundary cases.
        assert_eq!(report_of(vec![], vec![]).p95_latency_ms(), 0.0);
        assert_eq!(report_of(vec![42.0], vec![0.9]).p95_latency_ms(), 42.0);
        // 19 elements 1..=19: round(18 × 0.95) = round(17.1) = 17 → 18.
        let v19: Vec<f64> = (1..=19).map(f64::from).collect();
        let a19 = vec![0.9; 19];
        assert_eq!(report_of(v19, a19).p95_latency_ms(), 18.0);
        // 20 elements 1..=20: round(19 × 0.95) = round(18.05) = 18 → 19.
        let v20: Vec<f64> = (1..=20).map(f64::from).collect();
        let a20 = vec![0.9; 20];
        assert_eq!(report_of(v20, a20).p95_latency_ms(), 19.0);
        // Order-independence: the index is into the *sorted* latencies.
        let mut v20r: Vec<f64> = (1..=20).map(f64::from).collect();
        v20r.reverse();
        assert_eq!(report_of(v20r, vec![0.9; 20]).p95_latency_ms(), 19.0);
    }

    #[test]
    fn csv_export_has_one_row_per_request() {
        let report = report_of(vec![10.0, 20.0], vec![0.9, 0.8]);
        let mut buf = Vec::new();
        report.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "request,latency_ms,accuracy");
        assert!(lines[1].starts_with("0,10"));
    }

    #[test]
    fn csv_with_outcomes_labels_every_row() {
        let report = ExecReport {
            latencies_ms: vec![10.0, 20.0, 30.0, 40.0],
            accuracies: vec![0.9, 0.8, 0.7, 0.0],
            outcomes: vec![
                RequestOutcome::Ok,
                RequestOutcome::Retried(2),
                RequestOutcome::Degraded,
                RequestOutcome::Failed,
            ],
        };
        let mut buf = Vec::new();
        report.write_csv_with_outcomes(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "request,latency_ms,accuracy,outcome");
        assert!(lines[1].ends_with(",ok"));
        assert!(lines[2].ends_with(",retried:2"));
        assert!(lines[3].ends_with(",degraded"));
        assert!(lines[4].ends_with(",failed"));
        assert_eq!(report.retried_count(), 1);
        assert_eq!(report.degraded_count(), 1);
        assert_eq!(report.failed_count(), 1);
    }

    #[test]
    fn zero_fault_schedule_is_bit_identical_to_fault_free_path() {
        // An armed degradation policy whose windows never fire must
        // reproduce the fault-free run exactly — same arithmetic, same
        // RNG draws — in both fidelity modes and for both policies.
        use cadmc_netsim::{FaultKind, FaultWindow};
        let env = EvalEnv::phone();
        let base = zoo::vgg11_cifar();
        let c = crate::surgery::plan(&base, &env, Mbps(10.0)).candidate;
        let tree = two_fork_tree(&base);
        let trace = Scenario::FourGWeakIndoor.trace(2);
        // Active schedule, but far beyond any request's timeline.
        let dormant = FaultSchedule::new(vec![FaultWindow {
            kind: FaultKind::Outage,
            start_ms: 1.0e12,
            duration_ms: 1_000.0,
            magnitude: 0.0,
        }]);
        for mode in [Mode::Emulation, Mode::Field] {
            for policy in [Policy::Static(&c), Policy::Tree(&tree)] {
                let plain = ExecConfig::new(40, mode, 5);
                let armed = ExecConfig::new(40, mode, 5).with_faults(dormant.clone());
                let a = execute(&env, &base, &policy, &trace, &plain);
                let b = execute(&env, &base, &policy, &trace, &armed);
                assert_eq!(a.latencies_ms, b.latencies_ms);
                assert_eq!(a.accuracies, b.accuracies);
                assert!(b.outcomes.iter().all(|&o| o == RequestOutcome::Ok));
            }
        }
    }

    #[test]
    fn canned_outage_degrades_but_never_fails_with_edge_only_branch() {
        // Steady 60 Mbps, so Alg. 2 always wants the partitioned fork;
        // during outage windows probes are lost, the held estimate keeps
        // choosing it, the transfer times out and the fallback walk must
        // re-fork onto the edge-only child — Degraded, never Failed.
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let tree = two_fork_tree(&base);
        let trace = flat_trace(60.0);
        let cfg = ExecConfig::emulation(150, 3).with_faults(FaultSchedule::canned_outage());
        let report = execute(&env, &base, &Policy::Tree(&tree), &trace, &cfg);
        assert_eq!(report.failed_count(), 0, "edge-only branch exists");
        assert!(
            report.degraded_count() > 0,
            "outage windows must force fallbacks"
        );
        assert_eq!(report.outcomes.len(), 150);
        // The degraded requests paid for the waits: slower than the
        // fault-free fast path.
        let clean = execute(
            &env,
            &base,
            &Policy::Tree(&tree),
            &trace,
            &ExecConfig::emulation(150, 3),
        );
        assert!(report.mean_latency_ms() > clean.mean_latency_ms());
    }

    #[test]
    fn static_policy_degrades_to_local_tail_under_collapse() {
        use cadmc_netsim::FaultKind;
        let env = EvalEnv::phone();
        let base = zoo::vgg11_cifar();
        let c = crate::surgery::plan(&base, &env, Mbps(10.0)).candidate;
        assert!(c.edge_layers < c.model.len(), "needs a partitioned plan");
        let trace = flat_trace(10.0);
        let cfg = ExecConfig::emulation(150, 3)
            .with_faults(FaultSchedule::canned(FaultKind::Collapse));
        let report = execute(&env, &base, &Policy::Static(&c), &trace, &cfg);
        assert_eq!(report.failed_count(), 0, "static always finishes locally");
        assert!(report.degraded_count() > 0, "collapse must blow the deadline");
        // Same model runs either way: accuracy is untouched.
        let clean = execute(
            &env,
            &base,
            &Policy::Static(&c),
            &trace,
            &ExecConfig::emulation(150, 3),
        );
        assert_eq!(report.accuracies, clean.accuracies);
        assert!(report.mean_latency_ms() > clean.mean_latency_ms());
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed_and_schedule() {
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let tree = two_fork_tree(&base);
        let trace = Scenario::WifiWeakIndoor.trace(4);
        let run = |seed| {
            let cfg = ExecConfig::field(30, seed).with_faults(FaultSchedule::canned_outage());
            execute(&env, &base, &Policy::Tree(&tree), &trace, &cfg)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn deterministic_per_seed() {
        let env = EvalEnv::phone();
        let base = zoo::alexnet_cifar();
        let c = Candidate::base_all_edge(&base);
        let trace = Scenario::WifiWeakIndoor.trace(4);
        let run = |seed| {
            execute(
                &env,
                &base,
                &Policy::Static(&c),
                &trace,
                &ExecConfig::field(10, seed),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A tree as the search emits it: 12 episodes of the default search
    /// under `scenario`, re-ranked on the scenario's trace or not.
    fn searched_tree(
        base: &ModelSpec,
        n_blocks: usize,
        scenario: Scenario,
        feature_actions: bool,
        rerank: bool,
    ) -> ModelTree {
        use crate::search::{Controllers, SearchConfig};
        let cfg = SearchConfig {
            episodes: 12,
            seed: 7,
            feature_actions,
            ..SearchConfig::default()
        };
        let mut controllers = Controllers::new(&cfg);
        let ctx = crate::NetworkContext::from_scenario(scenario, 2, 7);
        crate::tree_search::tree_search(
            &mut controllers,
            base,
            &EvalEnv::phone(),
            ctx.levels(),
            n_blocks,
            &cfg,
            &crate::memo::MemoPool::new(),
            true,
            rerank.then(|| ctx.trace()),
        )
        .expect("valid search inputs")
        .tree
    }

    /// A tree's branch count and how many of its branches partition.
    fn tree_branches_partitioned(tree: &ModelTree) -> (usize, usize) {
        let branches = tree.branches();
        let partitioned = branches
            .iter()
            .map(|p| tree.compose_path(p))
            .filter(|c| c.edge_layers < c.model.len())
            .count();
        (branches.len(), partitioned)
    }

    #[test]
    fn plan_equals_a_fresh_composition_on_every_branch() {
        let env = EvalEnv::phone();
        let (weak_wifi, weak_4g) = (Scenario::WifiWeakIndoor, Scenario::FourGWeakIndoor);
        let trees = [
            searched_tree(&zoo::tiny_cnn(), 2, weak_wifi, false, false),
            searched_tree(&zoo::vgg11_cifar(), 3, weak_wifi, false, true),
            searched_tree(&zoo::alexnet_cifar(), 3, weak_4g, false, false),
            searched_tree(&zoo::vgg11_cifar(), 3, weak_4g, true, true),
        ];
        // The shapes the plan must get right: forks below the root, a
        // partitioned branch beside an edge-only one, and a cut tensor
        // under feature compression.
        let partitioned = tree_branches_partitioned(&trees[2]);
        assert_eq!(partitioned, (4, 2), "(branches, partitioned) of alexnet");
        assert!(
            trees[3].nodes().iter().any(|n| !n.feature.is_identity()),
            "the feature-action tree compresses its cut tensor"
        );
        for tree in trees {
            let base = tree.base();
            let plan = TreePlan::new(env.clone(), tree.clone());
            let mut edge_only_seen = false;
            for path in tree.branches() {
                let c = tree.compose_path(&path);
                let m = &c.model;
                let b = plan.branch(&path);
                assert_eq!(b.edge_layers, c.edge_layers);
                assert_eq!(b.layers, m.len());
                assert_eq!(b.edge_only(), c.edge_layers == m.len());
                assert_eq!(b.transfer_bytes, c.transfer_bytes());
                let cloud = env.cloud.range_latency_ms(m, c.edge_layers, m.len());
                assert_eq!(b.cloud_ms.to_bits(), cloud.to_bits());
                let accuracy = env.oracle.evaluate(base, &c.actions);
                assert_eq!(b.accuracy.to_bits(), accuracy.to_bits());
                assert_eq!(
                    plan.fallback_valid(&path),
                    validate::candidate(base, &c).is_ok()
                );
                for &id in &path {
                    let fresh = tree
                        .node_edge_spec(id)
                        .map(|spec| env.edge.model_latency_ms(&spec).to_bits());
                    assert_eq!(plan.edge_ms(id).map(f64::to_bits), fresh, "node {id}");
                }
                edge_only_seen |= c.edge_layers == m.len();
            }
            assert_eq!(plan.has_edge_only_branch(), edge_only_seen);
            let (_, best) = tree.best_branch().expect("searched trees have branches");
            let best_accuracy = env.oracle.evaluate(base, &best.actions);
            assert_eq!(
                plan.best_branch_accuracy().to_bits(),
                best_accuracy.to_bits()
            );
        }
    }

    #[test]
    fn a_reused_plan_reports_like_fresh_execute_calls() {
        // The second walk over each slot reads it instead of composing;
        // both must agree with `execute`, which builds its own plan.
        let base = zoo::vgg11_cifar();
        let env = EvalEnv::phone();
        let tree = two_fork_tree(&base);
        let plan = TreePlan::new(env.clone(), tree.clone());
        let trace = Scenario::FourGWeakIndoor.trace(2);
        for cfg in [
            ExecConfig::emulation(40, 5),
            ExecConfig::field(40, 6),
            ExecConfig::emulation(150, 3).with_faults(FaultSchedule::canned_outage()),
        ] {
            let fresh = execute(&env, &base, &Policy::Tree(&tree), &trace, &cfg);
            for _ in 0..2 {
                assert_eq!(plan.execute(&trace, &cfg), fresh);
            }
        }
    }
}
