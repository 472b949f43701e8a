//! # cadmc-serve
//!
//! Multi-tenant serving core for context-aware model compression: many
//! heterogeneous clients submit a model (a zoo name or inline `.ir`
//! text), an accuracy constraint, a device profile and a bandwidth
//! context, and receive the outcome of running that session through the
//! search/executor stack — sharing the sharded memo pool and an LRU tree
//! cache keyed by `(IR hash, context-distribution hash)` across
//! sessions.
//!
//! The robustness layer is the point (DESIGN.md §14):
//!
//! - **Admission control** — a token bucket bounds the sustained
//!   admission rate, per-tenant quotas bound in-flight work per tenant,
//!   and a per-tenant circuit breaker trips after consecutive `failed`
//!   session outcomes.
//! - **Backpressure** — the work queue is bounded ([`BoundedQueue`]);
//!   overload produces typed `Rejected{reason}` responses
//!   ([`RejectReason`]), never silent drops or unbounded growth. A
//!   watermark counter pins the "never grew past capacity" claim.
//! - **Graceful degradation** — per-request deadlines reuse the
//!   executor's policy (bounded retries → validated re-fork to
//!   edge-heavy branches → static local tail), so admitted requests meet
//!   their deadline or end in a terminal degraded outcome.
//! - **Graceful drain** — a drain signal stops admission (`shed:draining`),
//!   lets in-flight sessions finish or degrade, flushes telemetry and
//!   closes all spans.
//!
//! Determinism contract: [`Server::run_schedule`] is a serial
//! discrete-event simulation in *virtual* time. Admission, queueing,
//! breaker and drain decisions replay on the virtual clock, and a
//! session's outcome, a pure function of its spec, is computed when it
//! takes a slot. The per-session outcome log therefore depends only on
//! the schedule and the configuration, and the chaos harness
//! ([`chaos`]) pins overload × fault schedules to goldens. The live TCP front-end ([`tcp`]) runs the same admission
//! and session machinery on the wall clock instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod chaos;
pub mod config;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod session;
pub mod tcp;

pub use admission::{BoundedQueue, TokenBucket};
pub use breaker::CircuitBreaker;
pub use chaos::{chaos_arrivals, ChaosConfig};
pub use config::ServerConfig;
pub use metrics::{render_exposition, CacheRates, GaugeSet, ObsSnapshot, ObsState, TenantCounters};
pub use protocol::{Request, Response};
pub use server::{Arrival, ArrivalRecord, Decision, ScheduleReport, Server};
pub use session::{ModelSource, RejectReason, SessionOutcome, SessionSpec};
