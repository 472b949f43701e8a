//! First-party telemetry for the cadmc workspace: structured spans,
//! metrics, and run reports — zero external dependencies.
//!
//! Registry crates are unavailable offline, so this layer is hand-rolled
//! around three ideas:
//!
//! 1. **Off by default, no-op when off.** Every entry point is gated on
//!    one relaxed atomic load ([`enabled`]); the `span!`/`event!`/
//!    `counter!`/`gauge!`/`hist!` macros check it *before* evaluating
//!    field expressions, so disabled call sites cost a load and a
//!    predictable branch.
//! 2. **Deterministic merge.** Events buffer per thread and carry a
//!    `(region, stream, seq)` address (see [`Event`]); at
//!    [`TelemetryHandle::finish`] the buffers are merged and sorted by
//!    that triple, so the event order is identical for any worker
//!    count — only the wall-clock `t_ns`/`dur_ns` values differ.
//! 3. **Pluggable sinks.** The finished [`RunReport`] is pushed through
//!    [`Sink`]s: a JSONL writer, an in-memory collector for tests, and
//!    a human-readable summary.
//!
//! # Quick start
//!
//! ```
//! use cadmc_telemetry as telemetry;
//!
//! let (out, report) = telemetry::testing::with_collector(|| {
//!     let _run = telemetry::span!("demo.run", items = 3usize);
//!     for i in 0..3usize {
//!         let _it = telemetry::span!("demo.item", index = i);
//!         telemetry::counter!("demo.items", 1);
//!     }
//!     42
//! });
//! assert_eq!(out, 42);
//! assert_eq!(report.metrics.counter("demo.items"), Some(3));
//! assert_eq!(report.events.iter().filter(|e| e.is_span()).count(), 4);
//! ```

mod event;
mod metrics;
pub mod report;
mod sink;
pub mod slo;
pub mod window;

pub use event::{Event, FieldValue};
pub use metrics::{Histogram, MetricsSnapshot};
pub use report::{RunReport, SchemaError, SCHEMA_VERSION};
pub use sink::{JsonlSink, MemorySink, Sink, SummarySink};
pub use slo::{SloBreach, SloConfig, SloStatus, SloTracker};
pub use window::{WindowAggregator, WindowConfig, WindowHist, WindowSnapshot};

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks a mutex, recovering the guard if a holder panicked; telemetry
/// state stays usable (a poisoned buffer is still a valid buffer).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Global collector state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every install *and* finish so thread-local caches can detect
/// staleness with one atomic load.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static STATE: Mutex<Option<Arc<Shared>>> = Mutex::new(None);

/// Collector shared by all threads for one telemetry session.
#[derive(Debug)]
struct Shared {
    start: Instant,
    collected: Mutex<Vec<Event>>,
    metrics: Mutex<metrics::MetricsState>,
    /// Next region id; fetched on the *caller* thread of a fan-out so
    /// region numbering is independent of worker count.
    next_region: AtomicU64,
    meta: Vec<(String, String)>,
}

/// True when a collector is installed. The one-load fast path every
/// macro checks before doing any work.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Per-thread buffers
// ---------------------------------------------------------------------------

/// Buffered events are handed to the collector in batches of this many.
const FLUSH_THRESHOLD: usize = 4096;

#[derive(Debug)]
struct OpenSpan {
    seq: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    started: Instant,
    fields: Vec<(String, FieldValue)>,
}

#[derive(Debug)]
struct ThreadState {
    generation: u64,
    shared: Option<Arc<Shared>>,
    region: u64,
    stream: u64,
    seq: u64,
    stack: Vec<OpenSpan>,
    buf: Vec<Event>,
}

impl ThreadState {
    const fn new() -> Self {
        ThreadState {
            generation: 0,
            shared: None,
            region: 0,
            stream: 0,
            seq: 0,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Re-reads the global collector after a generation change: closes
    /// any spans left open against the old collector, flushes, then
    /// adopts the new one with fresh `(region, stream, seq)` state.
    fn resync(&mut self, gen: u64) {
        self.close_all();
        self.flush();
        self.shared = lock(&STATE).clone();
        self.generation = gen;
        self.region = 0;
        self.stream = 0;
        self.seq = 0;
    }

    /// Closes every open span (used at stream exit, resync, and thread
    /// exit, so spans never leak even when guards are forgotten).
    fn close_all(&mut self) {
        while let Some(open) = self.stack.pop() {
            self.push_span(open);
        }
    }

    fn push_span(&mut self, open: OpenSpan) {
        let dur = open.started.elapsed().as_nanos() as u64;
        self.buf.push(Event {
            name: open.name,
            region: self.region,
            stream: self.stream,
            seq: open.seq,
            parent: open.parent,
            t_ns: open.start_ns,
            dur_ns: Some(dur),
            fields: open.fields,
        });
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        match &self.shared {
            Some(s) => lock(&s.collected).append(&mut self.buf),
            None => self.buf.clear(),
        }
    }

    fn maybe_flush(&mut self) {
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush();
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.close_all();
        self.flush();
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = const { RefCell::new(ThreadState::new()) };
}

/// Runs `f` against this thread's state when a collector is installed;
/// returns `None` (doing nothing) otherwise. Never panics: a destroyed
/// TLS slot (thread teardown) is treated as "disabled".
fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> Option<R> {
    TLS.try_with(|cell| {
        let mut ts = cell.borrow_mut();
        let gen = GENERATION.load(Ordering::Acquire);
        if ts.generation != gen {
            ts.resync(gen);
        }
        if ts.shared.is_some() {
            Some(f(&mut ts))
        } else {
            None
        }
    })
    .ok()
    .flatten()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Token {
    generation: u64,
    region: u64,
    stream: u64,
    seq: u64,
}

/// RAII guard for an open span; the span closes when the guard drops.
///
/// Guards are `!Send` (a span belongs to the stream of the thread that
/// opened it). Dropping out of LIFO order is tolerated: exiting a span
/// auto-closes anything opened inside it that is still open, and a
/// guard whose span was already auto-closed drops as a no-op — so
/// arbitrary enter/exit sequences never panic and never leak an open
/// span.
#[derive(Debug)]
#[must_use = "a span closes when this guard drops; bind it with `let _guard = ...`"]
pub struct Span {
    token: Option<Token>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// The no-op span returned when telemetry is disabled.
    pub fn disabled() -> Self {
        Span {
            token: None,
            _not_send: PhantomData,
        }
    }

    /// Opens a span. Prefer the [`span!`] macro, which skips field
    /// evaluation entirely when telemetry is disabled.
    pub fn enter(name: &str, fields: Vec<(&'static str, FieldValue)>) -> Self {
        let token = with_state(|ts| {
            let origin = match &ts.shared {
                Some(s) => s.start,
                None => return None,
            };
            let seq = ts.seq;
            ts.seq += 1;
            let parent = ts.stack.last().map(|o| o.seq);
            let now = Instant::now();
            ts.stack.push(OpenSpan {
                seq,
                parent,
                name: name.to_string(),
                start_ns: now.duration_since(origin).as_nanos() as u64,
                started: now,
                fields: fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            });
            Some(Token {
                generation: ts.generation,
                region: ts.region,
                stream: ts.stream,
                seq,
            })
        })
        .flatten();
        Span {
            token,
            _not_send: PhantomData,
        }
    }

    /// Attaches a field to the still-open span (no-op once closed or
    /// when telemetry is disabled). Lets a span record results computed
    /// after it was opened, e.g. an episode's reward.
    pub fn record(&self, key: &'static str, value: impl Into<FieldValue>) {
        let Some(tok) = self.token else { return };
        let value = value.into();
        let _ = with_state(move |ts| {
            if ts.generation != tok.generation
                || ts.region != tok.region
                || ts.stream != tok.stream
            {
                return;
            }
            if let Some(open) = ts.stack.iter_mut().rev().find(|o| o.seq == tok.seq) {
                open.fields.push((key.to_string(), value));
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(tok) = self.token.take() else { return };
        let _ = with_state(|ts| {
            if ts.generation != tok.generation
                || ts.region != tok.region
                || ts.stream != tok.stream
            {
                return; // span already auto-closed at a stream/session boundary
            }
            if !ts.stack.iter().any(|o| o.seq == tok.seq) {
                return; // already closed by an outer guard dropping first
            }
            while let Some(open) = ts.stack.pop() {
                let done = open.seq == tok.seq;
                ts.push_span(open);
                if done {
                    break;
                }
            }
            ts.maybe_flush();
        });
    }
}

/// Emits a point event. Prefer the [`event!`] macro.
pub fn emit(name: &str, fields: Vec<(&'static str, FieldValue)>) {
    let _ = with_state(|ts| {
        let origin = match &ts.shared {
            Some(s) => s.start,
            None => return,
        };
        let seq = ts.seq;
        ts.seq += 1;
        let parent = ts.stack.last().map(|o| o.seq);
        let ev = Event {
            name: name.to_string(),
            region: ts.region,
            stream: ts.stream,
            seq,
            parent,
            t_ns: Instant::now().duration_since(origin).as_nanos() as u64,
            dur_ns: None,
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        };
        ts.buf.push(ev);
        ts.maybe_flush();
    });
}

// ---------------------------------------------------------------------------
// Metrics entry points
// ---------------------------------------------------------------------------

/// Adds to a monotonic counter. Prefer the [`counter!`] macro.
pub fn counter_add(name: &str, delta: u64) {
    let _ = with_state(|ts| {
        if let Some(s) = &ts.shared {
            lock(&s.metrics).counter_add(name, delta);
        }
    });
}

/// Sets a gauge (last write wins; non-finite values are dropped).
/// Prefer the [`gauge!`] macro.
pub fn gauge_set(name: &str, value: f64) {
    let _ = with_state(|ts| {
        if let Some(s) = &ts.shared {
            lock(&s.metrics).gauge_set(name, value);
        }
    });
}

/// Records a histogram sample. `bounds` fixes the buckets on first use
/// for the name; later calls reuse the existing buckets. Prefer the
/// [`hist!`] macro.
pub fn hist_record(name: &str, bounds: &[f64], value: f64) {
    let _ = with_state(|ts| {
        if let Some(s) = &ts.shared {
            lock(&s.metrics).hist_record(name, bounds, value);
        }
    });
}

// ---------------------------------------------------------------------------
// Regions and streams (deterministic parallel merge)
// ---------------------------------------------------------------------------

/// Allocates a region id for a parallel fan-out. Must be called on the
/// thread that *launches* the fan-out (region numbering then follows
/// program order, independent of worker count). Returns 0 — the no-op
/// region — when telemetry is disabled.
pub fn open_region() -> u64 {
    if !enabled() {
        return 0;
    }
    with_state(|ts| {
        ts.shared
            .as_ref()
            .map(|s| s.next_region.fetch_add(1, Ordering::Relaxed) + 1)
    })
    .flatten()
    .unwrap_or(0)
}

/// Runs `f` with this thread's events attributed to `(region, stream)`,
/// with a fresh `seq` counter. The caller's previous stream state is
/// saved and restored (panic-safe), so the serial and threaded paths of
/// a fan-out produce identically-addressed events. `region == 0`
/// (disabled) runs `f` untouched.
pub fn in_stream<R>(region: u64, stream: u64, f: impl FnOnce() -> R) -> R {
    if region == 0 || !enabled() {
        return f();
    }
    let _guard = StreamGuard::enter(region, stream);
    f()
}

#[derive(Debug)]
struct SavedStream {
    region: u64,
    stream: u64,
    seq: u64,
    stack: Vec<OpenSpan>,
}

#[derive(Debug)]
struct StreamGuard {
    saved: Option<SavedStream>,
}

impl StreamGuard {
    fn enter(region: u64, stream: u64) -> Self {
        let saved = with_state(|ts| {
            let saved = SavedStream {
                region: ts.region,
                stream: ts.stream,
                seq: ts.seq,
                stack: std::mem::take(&mut ts.stack),
            };
            ts.region = region;
            ts.stream = stream;
            ts.seq = 0;
            saved
        });
        StreamGuard { saved }
    }
}

impl Drop for StreamGuard {
    fn drop(&mut self) {
        let Some(saved) = self.saved.take() else { return };
        let _ = with_state(|ts| {
            ts.close_all(); // spans opened inside the stream close with it
            ts.region = saved.region;
            ts.stream = saved.stream;
            ts.seq = saved.seq;
            ts.stack = saved.stack;
            ts.maybe_flush();
        });
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Opens a span and returns its guard; field expressions are evaluated
/// only when telemetry is enabled.
///
/// `let _s = span!("tree.search", episodes = cfg.episodes);`
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::Span::enter(
                $name,
                vec![$((stringify!($k), $crate::FieldValue::from($v))),*],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Emits a point event; field expressions are evaluated only when
/// telemetry is enabled.
///
/// `event!("compose.fork", level = lvl, bandwidth = bw, child = k);`
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit(
                $name,
                vec![$((stringify!($k), $crate::FieldValue::from($v))),*],
            );
        }
    };
}

/// Adds to a counter when telemetry is enabled: `counter!("memo.hits", n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr, $delta:expr) => {
        if $crate::enabled() {
            $crate::counter_add($name, $delta);
        }
    };
}

/// Sets a gauge when telemetry is enabled: `gauge!("net.bw_est", v)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::gauge_set($name, $value);
        }
    };
}

/// Records a histogram sample when telemetry is enabled:
/// `hist!("exec.latency_ms", &[50.0, 100.0, 200.0], v)`.
#[macro_export]
macro_rules! hist {
    ($name:expr, $bounds:expr, $value:expr) => {
        if $crate::enabled() {
            $crate::hist_record($name, $bounds, $value);
        }
    };
}

// ---------------------------------------------------------------------------
// Session lifecycle
// ---------------------------------------------------------------------------

/// Telemetry session setup error.
#[derive(Debug)]
pub enum TelemetryError {
    /// A collector is already installed (one session at a time).
    AlreadyInstalled,
    /// A sink failed while consuming the finished report.
    Io(std::io::Error),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::AlreadyInstalled => {
                write!(f, "a telemetry collector is already installed")
            }
            TelemetryError::Io(e) => write!(f, "telemetry sink error: {e}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

impl From<std::io::Error> for TelemetryError {
    fn from(e: std::io::Error) -> Self {
        TelemetryError::Io(e)
    }
}

/// Builder for a telemetry session: pick sinks, attach run metadata,
/// then [`install`](Telemetry::install).
#[derive(Debug, Default)]
pub struct Telemetry {
    sinks: Vec<Box<dyn Sink>>,
    meta: Vec<(String, String)>,
}

impl Telemetry {
    /// Starts a builder with no sinks. [`TelemetryHandle::finish`]
    /// still returns the [`RunReport`] even with zero sinks.
    pub fn builder() -> Self {
        Telemetry::default()
    }

    /// Adds an arbitrary sink.
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a JSONL trace file sink.
    pub fn with_jsonl(self, path: impl Into<PathBuf>) -> Self {
        self.with_sink(Box::new(JsonlSink::new(path)))
    }

    /// Adds a human-readable summary sink writing to stderr.
    pub fn with_summary_stderr(self) -> Self {
        self.with_sink(Box::new(SummarySink::stderr()))
    }

    /// Adds an in-memory sink and returns a handle to read the captured
    /// report after `finish`.
    pub fn with_memory(mut self) -> (Self, MemorySink) {
        let sink = MemorySink::new();
        self.sinks.push(Box::new(sink.clone()));
        (self, sink)
    }

    /// Attaches a `key=value` pair to the run's meta record.
    pub fn with_meta(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Installs the global collector and enables telemetry.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::AlreadyInstalled`] if a session is active.
    pub fn install(self) -> Result<TelemetryHandle, TelemetryError> {
        let mut state = lock(&STATE);
        if state.is_some() {
            return Err(TelemetryError::AlreadyInstalled);
        }
        GENERATION.fetch_add(1, Ordering::AcqRel);
        let shared = Arc::new(Shared {
            start: Instant::now(),
            collected: Mutex::new(Vec::new()),
            metrics: Mutex::new(metrics::MetricsState::default()),
            next_region: AtomicU64::new(0),
            meta: self.meta,
        });
        *state = Some(Arc::clone(&shared));
        drop(state);
        ENABLED.store(true, Ordering::Release);
        Ok(TelemetryHandle {
            shared,
            sinks: self.sinks,
            finished: false,
        })
    }
}

/// RAII handle for an installed telemetry session. Call
/// [`finish`](Self::finish) to flush, merge, and feed sinks; dropping
/// the handle finishes best-effort (sink errors discarded).
#[derive(Debug)]
pub struct TelemetryHandle {
    shared: Arc<Shared>,
    sinks: Vec<Box<dyn Sink>>,
    finished: bool,
}

impl TelemetryHandle {
    /// Disables telemetry, merges all buffered events deterministically
    /// (sorted by `(region, stream, seq)`), snapshots metrics, feeds
    /// every sink, and returns the report.
    ///
    /// Worker threads must have exited (the fan-outs in `core::parallel`
    /// are scoped, so this holds by construction); the calling thread's
    /// buffer is flushed here.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::Io`] if a sink fails.
    pub fn finish(mut self) -> Result<RunReport, TelemetryError> {
        self.finish_inner()
    }

    fn finish_inner(&mut self) -> Result<RunReport, TelemetryError> {
        if self.finished {
            return Ok(self.empty_report());
        }
        self.finished = true;
        ENABLED.store(false, Ordering::Release);
        let gen = GENERATION.fetch_add(1, Ordering::AcqRel) + 1;
        // Flush this thread's buffer into the collector before draining
        // it, and detach the TLS cache so later sessions start clean.
        let _ = TLS.try_with(|cell| {
            let mut ts = cell.borrow_mut();
            ts.close_all();
            ts.flush();
            ts.shared = None;
            ts.generation = gen;
            ts.region = 0;
            ts.stream = 0;
            ts.seq = 0;
        });
        *lock(&STATE) = None;
        let mut events = std::mem::take(&mut *lock(&self.shared.collected));
        events.sort_by_key(|e| (e.region, e.stream, e.seq));
        let metrics = lock(&self.shared.metrics).snapshot();
        let report = RunReport {
            version: SCHEMA_VERSION,
            meta: self.shared.meta.clone(),
            events,
            metrics,
        };
        for sink in &mut self.sinks {
            sink.consume(&report)?;
        }
        Ok(report)
    }

    fn empty_report(&self) -> RunReport {
        RunReport {
            version: SCHEMA_VERSION,
            meta: self.shared.meta.clone(),
            events: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }
}

impl Drop for TelemetryHandle {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.finish_inner();
        }
    }
}

// ---------------------------------------------------------------------------
// Test support
// ---------------------------------------------------------------------------

pub mod testing {
    //! Helpers for tests that need an installed collector.
    //!
    //! The collector is a process-wide singleton, so concurrent tests
    //! would race to install it; [`with_collector`] serializes through
    //! a global gate.

    use super::{lock, RunReport, Telemetry};
    use std::sync::Mutex;

    static TEST_GATE: Mutex<()> = Mutex::new(());

    /// Runs `f` holding the gate [`with_collector`] takes, so no
    /// collector is installed while `f` runs.
    pub(crate) fn with_gate<R>(f: impl FnOnce() -> R) -> R {
        let _gate = lock(&TEST_GATE);
        f()
    }

    /// Runs `f` with telemetry installed (no sinks) and returns `f`'s
    /// result plus the captured [`RunReport`]. Panics if a collector
    /// is already installed outside the gate — test-only code.
    pub fn with_collector<R>(f: impl FnOnce() -> R) -> (R, RunReport) {
        with_collector_meta(&[], f)
    }

    /// [`with_collector`] with run metadata attached.
    pub fn with_collector_meta<R>(
        meta: &[(&str, &str)],
        f: impl FnOnce() -> R,
    ) -> (R, RunReport) {
        with_gate(|| {
            let mut builder = Telemetry::builder();
            for (k, v) in meta {
                builder = builder.with_meta(k, v);
            }
            let handle = match builder.install() {
                Ok(h) => h,
                Err(e) => panic!("with_collector: {e}"),
            };
            let result = f();
            let report = match handle.finish() {
                Ok(r) => r,
                Err(e) => panic!("with_collector finish: {e}"),
            };
            (result, report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_are_noops() {
        // Sibling tests install the process-wide collector under the
        // gate; holding it keeps telemetry off for this whole test.
        testing::with_gate(|| {
            assert!(!enabled());
            let s = span!("nothing", x = 1u64);
            s.record("y", 2u64);
            drop(s);
            event!("nothing.ev", z = 3u64);
            counter!("c", 1);
            gauge!("g", 1.0);
            hist!("h", &[1.0], 0.5);
            assert_eq!(open_region(), 0);
            let v = in_stream(0, 5, || 7);
            assert_eq!(v, 7);
        });
    }

    #[test]
    fn span_nesting_and_parents() {
        let ((), report) = testing::with_collector(|| {
            let outer = span!("outer");
            {
                let _inner = span!("inner", k = "v");
            }
            drop(outer);
        });
        assert_eq!(report.events.len(), 2);
        // Sorted by seq: outer (seq 0) then inner (seq 1).
        assert_eq!(report.events[0].name, "outer");
        assert_eq!(report.events[0].parent, None);
        assert_eq!(report.events[1].name, "inner");
        assert_eq!(report.events[1].parent, Some(0));
        assert_eq!(
            report.events[1].field("k"),
            Some(&FieldValue::Str("v".into()))
        );
    }

    #[test]
    fn out_of_order_drop_auto_closes() {
        let ((), report) = testing::with_collector(|| {
            let outer = span!("outer");
            let inner = span!("inner");
            drop(outer); // closes inner too
            drop(inner); // no-op, already closed
        });
        assert_eq!(report.events.len(), 2);
        assert!(report.events.iter().all(Event::is_span));
    }

    #[test]
    fn record_appends_fields_until_close() {
        let ((), report) = testing::with_collector(|| {
            let s = span!("ep", index = 3usize);
            s.record("reward", 0.75);
            drop(s);
            s_record_after_close();
        });
        let ev = &report.events[0];
        assert_eq!(ev.field_f64("reward"), Some(0.75));
        assert_eq!(ev.field_f64("index"), Some(3.0));
    }

    fn s_record_after_close() {
        let s = span!("late");
        drop(s);
    }

    #[test]
    fn streams_reset_seq_and_restore() {
        let ((), report) = testing::with_collector(|| {
            let _main = span!("main");
            let region = open_region();
            assert_eq!(region, 1);
            for i in 0..2u64 {
                in_stream(region, i + 1, || {
                    let _s = span!("item");
                });
            }
            event!("after");
        });
        let main = report.events.iter().find(|e| e.name == "main").unwrap();
        assert_eq!((main.region, main.stream, main.seq), (0, 0, 0));
        let after = report.events.iter().find(|e| e.name == "after").unwrap();
        // seq continued on the main stream after the region.
        assert_eq!((after.region, after.stream, after.seq), (0, 0, 1));
        let items: Vec<_> = report.events.iter().filter(|e| e.name == "item").collect();
        assert_eq!(items.len(), 2);
        assert_eq!((items[0].region, items[0].stream, items[0].seq), (1, 1, 0));
        assert_eq!((items[1].region, items[1].stream, items[1].seq), (1, 2, 0));
    }

    #[test]
    fn metrics_accumulate() {
        let ((), report) = testing::with_collector(|| {
            counter!("hits", 2);
            counter!("hits", 3);
            gauge!("bw", 42.5);
            gauge!("bw", 17.25);
            hist!("lat", &[1.0, 2.0], 0.5);
            hist!("lat", &[1.0, 2.0], 1.5);
            hist!("lat", &[1.0, 2.0], 9.0);
        });
        assert_eq!(report.metrics.counter("hits"), Some(5));
        assert_eq!(report.metrics.gauge("bw"), Some(17.25));
        let h = report.metrics.histogram("lat").unwrap();
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert!((h.sum - 11.0).abs() < 1e-12);
    }

    #[test]
    fn sessions_are_isolated() {
        let ((), first) = testing::with_collector(|| {
            event!("one");
        });
        let ((), second) = testing::with_collector(|| {
            event!("two");
        });
        assert_eq!(first.events.len(), 1);
        assert_eq!(second.events.len(), 1);
        assert_eq!(second.events[0].name, "two");
        assert_eq!(second.events[0].seq, 0);
    }

    #[test]
    fn leaked_span_closes_at_finish() {
        let (leaked, report) = testing::with_collector(|| span!("leaky"));
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].name, "leaky");
        drop(leaked); // stale guard: must be a no-op
    }
}
