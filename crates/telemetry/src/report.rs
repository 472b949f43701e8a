//! Trace serialization (JSONL), strict schema validation, and the
//! human-readable run summary.
//!
//! # JSONL schema (version 1)
//!
//! One JSON object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"meta","version":1,"info":{"command":"search",...}}
//! {"type":"span","name":"branch.episode","region":1,"stream":4,"seq":0,
//!  "parent":null,"t_ns":123,"dur_ns":456,"fields":{"episode":3,"reward":0.5}}
//! {"type":"event","name":"compose.fork","region":0,"stream":0,"seq":7,
//!  "parent":2,"t_ns":789,"fields":{"level":1,"bandwidth":3.2,"child":0}}
//! {"type":"counter","name":"memo.hits","value":240}
//! {"type":"gauge","name":"net.bw_est","value":3.75}
//! {"type":"hist","name":"exec.latency_ms","bounds":[50.0,100.0],
//!  "counts":[10,5,1],"count":16,"sum":812.5}
//! ```
//!
//! The writer emits: the meta line, then events sorted by
//! `(region, stream, seq)`, then counters, gauges, and histograms in
//! name order. [`parse_jsonl`] is strict — every line must carry
//! exactly the keys of its type with the right shapes — so parsing a
//! trace *is* schema validation (the CI trace job relies on this).
//!
//! # Determinism rules
//!
//! Two traces of the same run configuration differ only in the values
//! of `t_ns` and `dur_ns` (and any timing-derived histogram, e.g.
//! latency buckets measured from the wall clock — the simulator's
//! latencies are seeded, so in practice those match too). Everything
//! else — event order, names, fields, counters — is byte-identical
//! across worker counts.

use std::collections::BTreeMap;
use std::fmt;

use serde::Value;

use crate::event::{Event, FieldValue};
use crate::metrics::{Histogram, MetricsSnapshot};

/// Current trace schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// Adapter: the vendored `serde_json` (de)serializes through the
/// `Serialize`/`Deserialize` traits, which the raw [`Value`] tree does
/// not implement; this wrapper passes a `Value` through untouched.
struct Raw(Value);

impl serde::Serialize for Raw {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Raw {
    fn deserialize(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Raw(v.clone()))
    }
}

/// Renders one JSONL line (infallible for the stub's value model).
fn json_line(v: Value) -> String {
    serde_json::to_string(&Raw(v)).unwrap_or_default()
}

/// A finished, merged telemetry session: what sinks consume and what
/// `cadmc report` renders.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u64,
    /// Free-form run metadata (command, model, seed, ...).
    pub meta: Vec<(String, String)>,
    /// Merged events, sorted by `(region, stream, seq)`.
    pub events: Vec<Event>,
    /// End-of-run metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// A line of a trace failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SchemaError {}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn field_to_json(v: &FieldValue) -> Value {
    match v {
        FieldValue::Bool(b) => Value::Bool(*b),
        FieldValue::I64(n) => Value::I64(*n),
        FieldValue::U64(n) => Value::U64(*n),
        FieldValue::F64(n) => Value::F64(*n),
        FieldValue::Str(s) => Value::Str(s.clone()),
    }
}

fn event_to_json(e: &Event) -> Value {
    let mut pairs = vec![
        (
            "type".to_string(),
            Value::Str(if e.is_span() { "span" } else { "event" }.to_string()),
        ),
        ("name".to_string(), Value::Str(e.name.clone())),
        ("region".to_string(), Value::U64(e.region)),
        ("stream".to_string(), Value::U64(e.stream)),
        ("seq".to_string(), Value::U64(e.seq)),
        (
            "parent".to_string(),
            match e.parent {
                Some(p) => Value::U64(p),
                None => Value::Null,
            },
        ),
        ("t_ns".to_string(), Value::U64(e.t_ns)),
    ];
    if let Some(d) = e.dur_ns {
        pairs.push(("dur_ns".to_string(), Value::U64(d)));
    }
    pairs.push((
        "fields".to_string(),
        Value::Object(
            e.fields
                .iter()
                .map(|(k, v)| (k.clone(), field_to_json(v)))
                .collect(),
        ),
    ));
    Value::Object(pairs)
}

/// Renders a report as JSON Lines text (ends with a newline).
pub fn to_jsonl(report: &RunReport) -> String {
    let mut lines = Vec::new();
    lines.push(json_line(Value::Object(vec![
        ("type".to_string(), Value::Str("meta".to_string())),
        ("version".to_string(), Value::U64(report.version)),
        (
            "info".to_string(),
            Value::Object(
                report
                    .meta
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
    ])));
    for e in &report.events {
        lines.push(json_line(event_to_json(e)));
    }
    for (name, value) in &report.metrics.counters {
        lines.push(json_line(Value::Object(vec![
            ("type".to_string(), Value::Str("counter".to_string())),
            ("name".to_string(), Value::Str(name.clone())),
            ("value".to_string(), Value::U64(*value)),
        ])));
    }
    for (name, value) in &report.metrics.gauges {
        lines.push(json_line(Value::Object(vec![
            ("type".to_string(), Value::Str("gauge".to_string())),
            ("name".to_string(), Value::Str(name.clone())),
            ("value".to_string(), Value::F64(*value)),
        ])));
    }
    for (name, h) in &report.metrics.histograms {
        lines.push(json_line(Value::Object(vec![
            ("type".to_string(), Value::Str("hist".to_string())),
            ("name".to_string(), Value::Str(name.clone())),
            (
                "bounds".to_string(),
                Value::Array(h.bounds.iter().map(|b| Value::F64(*b)).collect()),
            ),
            (
                "counts".to_string(),
                Value::Array(h.counts.iter().map(|c| Value::U64(*c)).collect()),
            ),
            ("count".to_string(), Value::U64(h.count)),
            ("sum".to_string(), Value::F64(h.sum)),
        ])));
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

// ---------------------------------------------------------------------------
// Parsing / validation
// ---------------------------------------------------------------------------

struct LineCx {
    line: usize,
}

impl LineCx {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, SchemaError> {
        Err(SchemaError {
            line: self.line,
            message: message.into(),
        })
    }

    fn as_u64(&self, v: &Value, what: &str) -> Result<u64, SchemaError> {
        match v {
            Value::U64(n) => Ok(*n),
            Value::I64(n) if *n >= 0 => Ok(*n as u64),
            other => self.err(format!("{what}: expected unsigned integer, got {}", other.kind())),
        }
    }

    fn as_f64(&self, v: &Value, what: &str) -> Result<f64, SchemaError> {
        match v {
            Value::F64(n) => Ok(*n),
            Value::I64(n) => Ok(*n as f64),
            Value::U64(n) => Ok(*n as f64),
            other => self.err(format!("{what}: expected number, got {}", other.kind())),
        }
    }

    fn as_str<'v>(&self, v: &'v Value, what: &str) -> Result<&'v str, SchemaError> {
        match v {
            Value::Str(s) => Ok(s),
            other => self.err(format!("{what}: expected string, got {}", other.kind())),
        }
    }

    /// Checks the object holds exactly `keys` (strict schema: unknown
    /// or missing keys are errors) and returns values in `keys` order.
    fn exact_keys<'v>(
        &self,
        pairs: &'v [(String, Value)],
        keys: &[&str],
    ) -> Result<Vec<&'v Value>, SchemaError> {
        for (k, _) in pairs {
            if !keys.contains(&k.as_str()) {
                return self.err(format!("unknown key `{k}`"));
            }
        }
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            match pairs.iter().find(|(k, _)| k == key) {
                Some((_, v)) => out.push(v),
                None => return self.err(format!("missing key `{key}`")),
            }
        }
        Ok(out)
    }

    fn parse_fields(&self, v: &Value) -> Result<Vec<(String, FieldValue)>, SchemaError> {
        let Value::Object(pairs) = v else {
            return self.err(format!("fields: expected object, got {}", v.kind()));
        };
        pairs
            .iter()
            .map(|(k, v)| {
                let fv = match v {
                    Value::Bool(b) => FieldValue::Bool(*b),
                    Value::I64(n) => FieldValue::I64(*n),
                    Value::U64(n) => FieldValue::U64(*n),
                    Value::F64(n) => FieldValue::F64(*n),
                    Value::Str(s) => FieldValue::Str(s.clone()),
                    // Non-finite floats serialize as null.
                    Value::Null => FieldValue::F64(f64::NAN),
                    other => {
                        return self
                            .err(format!("field `{k}`: expected scalar, got {}", other.kind()))
                    }
                };
                Ok((k.clone(), fv))
            })
            .collect()
    }

    fn parse_event(
        &self,
        pairs: &[(String, Value)],
        is_span: bool,
    ) -> Result<Event, SchemaError> {
        let keys: &[&str] = if is_span {
            &["type", "name", "region", "stream", "seq", "parent", "t_ns", "dur_ns", "fields"]
        } else {
            &["type", "name", "region", "stream", "seq", "parent", "t_ns", "fields"]
        };
        let vals = self.exact_keys(pairs, keys)?;
        let name = self.as_str(vals[1], "name")?.to_string();
        let region = self.as_u64(vals[2], "region")?;
        let stream = self.as_u64(vals[3], "stream")?;
        let seq = self.as_u64(vals[4], "seq")?;
        let parent = match vals[5] {
            Value::Null => None,
            other => Some(self.as_u64(other, "parent")?),
        };
        let t_ns = self.as_u64(vals[6], "t_ns")?;
        let (dur_ns, fields_v) = if is_span {
            (Some(self.as_u64(vals[7], "dur_ns")?), vals[8])
        } else {
            (None, vals[7])
        };
        Ok(Event {
            name,
            region,
            stream,
            seq,
            parent,
            t_ns,
            dur_ns,
            fields: self.parse_fields(fields_v)?,
        })
    }
}

/// Parses (and thereby strictly validates) JSONL trace text.
///
/// # Errors
///
/// [`SchemaError`] naming the first offending line: unparseable JSON,
/// an unknown record type, missing/unknown/mistyped keys, a histogram
/// whose counts do not match its bounds, or a missing/duplicated meta
/// line.
pub fn parse_jsonl(text: &str) -> Result<RunReport, SchemaError> {
    let (report, skipped) = parse_jsonl_impl(text, false)?;
    debug_assert_eq!(skipped, 0, "strict mode never skips");
    Ok(report)
}

/// Like [`parse_jsonl`], but a record whose `type` is unknown to this
/// schema-v1 reader is *skipped* instead of failing the whole trace;
/// returns how many lines were skipped so the caller can warn. Every
/// other validation stays strict — a known record with a bad shape is
/// still an error.
///
/// # Errors
///
/// [`SchemaError`] as for [`parse_jsonl`], except for unknown types.
pub fn parse_jsonl_lenient(text: &str) -> Result<(RunReport, usize), SchemaError> {
    parse_jsonl_impl(text, true)
}

fn parse_jsonl_impl(text: &str, lenient: bool) -> Result<(RunReport, usize), SchemaError> {
    let mut version: Option<u64> = None;
    let mut meta = Vec::new();
    let mut events = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    let mut skipped = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let cx = LineCx { line: idx + 1 };
        if raw.trim().is_empty() {
            return cx.err("blank line");
        }
        let value: Value = match serde_json::from_str::<Raw>(raw) {
            Ok(Raw(v)) => v,
            Err(e) => return cx.err(format!("invalid JSON: {e}")),
        };
        let Value::Object(pairs) = &value else {
            return cx.err(format!("expected object, got {}", value.kind()));
        };
        let ty = match pairs.iter().find(|(k, _)| k == "type") {
            Some((_, v)) => cx.as_str(v, "type")?,
            None => return cx.err("missing key `type`"),
        };
        match ty {
            "meta" => {
                if version.is_some() {
                    return cx.err("duplicate meta line");
                }
                if idx != 0 {
                    return cx.err("meta must be the first line");
                }
                let vals = cx.exact_keys(pairs, &["type", "version", "info"])?;
                let v = cx.as_u64(vals[1], "version")?;
                if v != SCHEMA_VERSION {
                    return cx.err(format!("unsupported schema version {v}"));
                }
                version = Some(v);
                let Value::Object(info) = vals[2] else {
                    return cx.err(format!("info: expected object, got {}", vals[2].kind()));
                };
                for (k, v) in info {
                    meta.push((k.clone(), cx.as_str(v, "info value")?.to_string()));
                }
            }
            "span" => events.push(cx.parse_event(pairs, true)?),
            "event" => events.push(cx.parse_event(pairs, false)?),
            "counter" => {
                let vals = cx.exact_keys(pairs, &["type", "name", "value"])?;
                metrics.counters.push((
                    cx.as_str(vals[1], "name")?.to_string(),
                    cx.as_u64(vals[2], "value")?,
                ));
            }
            "gauge" => {
                let vals = cx.exact_keys(pairs, &["type", "name", "value"])?;
                metrics.gauges.push((
                    cx.as_str(vals[1], "name")?.to_string(),
                    cx.as_f64(vals[2], "value")?,
                ));
            }
            "hist" => {
                let vals =
                    cx.exact_keys(pairs, &["type", "name", "bounds", "counts", "count", "sum"])?;
                let name = cx.as_str(vals[1], "name")?.to_string();
                let Value::Array(bs) = vals[2] else {
                    return cx.err(format!("bounds: expected array, got {}", vals[2].kind()));
                };
                let bounds = bs
                    .iter()
                    .map(|b| cx.as_f64(b, "bound"))
                    .collect::<Result<Vec<_>, _>>()?;
                let Value::Array(cs) = vals[3] else {
                    return cx.err(format!("counts: expected array, got {}", vals[3].kind()));
                };
                let counts = cs
                    .iter()
                    .map(|c| cx.as_u64(c, "count"))
                    .collect::<Result<Vec<_>, _>>()?;
                if counts.len() != bounds.len() + 1 {
                    return cx.err(format!(
                        "counts length {} != bounds length {} + 1",
                        counts.len(),
                        bounds.len()
                    ));
                }
                let count = cx.as_u64(vals[4], "count")?;
                if counts.iter().sum::<u64>() != count {
                    return cx.err("count does not equal the sum of bucket counts");
                }
                let sum = cx.as_f64(vals[5], "sum")?;
                metrics.histograms.push((
                    name,
                    Histogram {
                        bounds,
                        counts,
                        count,
                        sum,
                    },
                ));
            }
            other => {
                if lenient {
                    skipped += 1;
                } else {
                    return cx.err(format!("unknown record type `{other}`"));
                }
            }
        }
    }

    match version {
        Some(version) => Ok((
            RunReport {
                version,
                meta,
                events,
                metrics,
            },
            skipped,
        )),
        None => Err(SchemaError {
            line: 1,
            message: "empty trace (missing meta line)".to_string(),
        }),
    }
}

// ---------------------------------------------------------------------------
// Human-readable summary
// ---------------------------------------------------------------------------

/// Aggregation node of the span tree, keyed by name-path.
#[derive(Debug, Default)]
struct Agg {
    count: u64,
    total_ns: u128,
    self_ns: u128,
    children: BTreeMap<String, Agg>,
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

/// Renders the end-of-run summary: span tree with self/total times,
/// top hot spans, memo hit ratios, and per-episode reward trajectories.
pub fn render_summary(report: &RunReport) -> String {
    let mut out = String::new();
    let spans: Vec<&Event> = report.events.iter().filter(|e| e.is_span()).collect();
    let points = report.events.len() - spans.len();

    out.push_str(&format!(
        "== cadmc run report (schema v{}) ==\n",
        report.version
    ));
    if !report.meta.is_empty() {
        let kv: Vec<String> = report
            .meta
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!("meta: {}\n", kv.join(" ")));
    }
    out.push_str(&format!(
        "events: {} spans, {} point events\n",
        spans.len(),
        points
    ));

    // --- span tree, aggregated by name-path across regions/streams ---
    let mut root = Agg::default();
    let mut by_name: BTreeMap<&str, (u64, u128)> = BTreeMap::new();
    {
        // Group spans by (region, stream); within a stream, seq -> span.
        let mut streams: BTreeMap<(u64, u64), Vec<&Event>> = BTreeMap::new();
        for s in &spans {
            streams.entry((s.region, s.stream)).or_default().push(s);
        }
        for group in streams.values() {
            let mut child_total: BTreeMap<u64, u128> = BTreeMap::new();
            for s in group {
                if let Some(p) = s.parent {
                    *child_total.entry(p).or_insert(0) += u128::from(s.dur_ns.unwrap_or(0));
                }
            }
            let by_seq: BTreeMap<u64, &Event> =
                group.iter().map(|s| (s.seq, *s)).collect();
            for s in group {
                // Name-path from the stream root down to this span.
                let mut path = vec![s.name.as_str()];
                let mut cur = s.parent;
                while let Some(p) = cur {
                    match by_seq.get(&p) {
                        Some(ps) => {
                            path.push(ps.name.as_str());
                            cur = ps.parent;
                        }
                        None => break,
                    }
                }
                path.reverse();
                let mut node = &mut root;
                for part in &path {
                    node = node.children.entry((*part).to_string()).or_default();
                }
                let dur = u128::from(s.dur_ns.unwrap_or(0));
                let kids = child_total.get(&s.seq).copied().unwrap_or(0);
                node.count += 1;
                node.total_ns += dur;
                node.self_ns += dur.saturating_sub(kids);
                let slot = by_name.entry(s.name.as_str()).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += dur.saturating_sub(kids);
            }
        }
    }
    if !root.children.is_empty() {
        out.push_str("\nspan tree (count / total ms / self ms):\n");
        render_agg(&mut out, &root, 0);
    }

    // --- top hot spans by aggregate self time ---
    let mut hot: Vec<(&str, u64, u128)> = by_name
        .iter()
        .map(|(name, (count, self_ns))| (*name, *count, *self_ns))
        .collect();
    hot.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    if !hot.is_empty() {
        out.push_str("\nhot spans (by self time):\n");
        for (i, (name, count, self_ns)) in hot.iter().take(10).enumerate() {
            out.push_str(&format!(
                "  {:>2}. {:<24} {:>10.3} ms  ({count} calls)\n",
                i + 1,
                name,
                ms(*self_ns)
            ));
        }
    }

    // --- memo pool ---
    let hits = report.metrics.counter("memo.hits");
    let misses = report.metrics.counter("memo.misses");
    if let (Some(h), Some(m)) = (hits, misses) {
        let total = h + m;
        let ratio = if total == 0 {
            0.0
        } else {
            h as f64 / total as f64 * 100.0
        };
        out.push_str(&format!(
            "\nmemo pool: {h} hits / {m} misses ({ratio:.1}% hit ratio)\n"
        ));
    }

    // --- reward trajectories ---
    for (span_name, field) in [
        ("branch.episode", "reward"),
        ("tree.episode", "score"),
        ("baseline.episode", "reward"),
    ] {
        let rewards: Vec<f64> = report
            .events
            .iter()
            .filter(|e| e.name == span_name)
            .filter_map(|e| e.field_f64(field))
            .collect();
        if rewards.is_empty() {
            continue;
        }
        let n = rewards.len();
        let head = &rewards[..n.div_ceil(2)];
        let tail = &rewards[n / 2..];
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let best = rewards.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            "\n{span_name} {field} trajectory: n={n} first-half mean={:.4} \
             second-half mean={:.4} best={best:.4} final={:.4}\n",
            mean(head),
            mean(tail),
            rewards[n - 1]
        ));
    }

    // --- metrics tables ---
    if !report.metrics.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, v) in &report.metrics.counters {
            out.push_str(&format!("  {name:<28} {v}\n"));
        }
    }
    if !report.metrics.gauges.is_empty() {
        out.push_str("\ngauges:\n");
        for (name, v) in &report.metrics.gauges {
            out.push_str(&format!("  {name:<28} {v:.4}\n"));
        }
    }
    if !report.metrics.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        for (name, h) in &report.metrics.histograms {
            out.push_str(&format!(
                "  {name}: count={} mean={:.4}\n    ",
                h.count,
                h.mean()
            ));
            let mut parts = Vec::new();
            for (i, c) in h.counts.iter().enumerate() {
                if *c == 0 {
                    continue;
                }
                if i < h.bounds.len() {
                    parts.push(format!("<={}: {c}", h.bounds[i]));
                } else {
                    parts.push(format!(">{}: {c}", h.bounds.last().copied().unwrap_or(0.0)));
                }
            }
            if parts.is_empty() {
                parts.push("(empty)".to_string());
            }
            out.push_str(&parts.join("  "));
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Trace analytics: folded stacks, critical path, hotspots
// ---------------------------------------------------------------------------

/// One resolved span occurrence: its name-path from the lane root and
/// its timing split into total and self (total minus direct children).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Name-path from the `(region, stream)` lane root to this span.
    pub path: Vec<String>,
    /// `(region, stream)` the span was recorded on.
    pub lane: (u64, u64),
    /// Total wall time of the span.
    pub dur_ns: u64,
    /// Self time: total minus the summed duration of direct children.
    pub self_ns: u128,
}

/// Resolves every span into a [`SpanRow`]. Parent links are chased
/// within each `(region, stream)` lane; a span whose parent seq is
/// absent from its lane counts as a root. Children are charged against
/// a parent only when that parent exists, so self times telescope: the
/// sum of all self times equals the summed duration of the root spans.
pub fn span_rows(report: &RunReport) -> Vec<SpanRow> {
    let mut lanes: BTreeMap<(u64, u64), Vec<&Event>> = BTreeMap::new();
    for e in report.events.iter().filter(|e| e.is_span()) {
        lanes.entry((e.region, e.stream)).or_default().push(e);
    }
    let mut rows = Vec::new();
    for (lane, group) in &lanes {
        let by_seq: BTreeMap<u64, &Event> = group.iter().map(|s| (s.seq, *s)).collect();
        let mut child_total: BTreeMap<u64, u128> = BTreeMap::new();
        for s in group {
            if let Some(p) = s.parent {
                if by_seq.contains_key(&p) {
                    *child_total.entry(p).or_insert(0) += u128::from(s.dur_ns.unwrap_or(0));
                }
            }
        }
        for s in group {
            let mut path = vec![s.name.clone()];
            let mut cur = s.parent;
            while let Some(p) = cur {
                match by_seq.get(&p) {
                    Some(ps) => {
                        path.push(ps.name.clone());
                        cur = ps.parent;
                    }
                    None => break,
                }
            }
            path.reverse();
            let dur = u128::from(s.dur_ns.unwrap_or(0));
            let kids = child_total.get(&s.seq).copied().unwrap_or(0);
            rows.push(SpanRow {
                path,
                lane: *lane,
                dur_ns: s.dur_ns.unwrap_or(0),
                self_ns: dur.saturating_sub(kids),
            });
        }
    }
    rows
}

/// Renders folded stacks (`a;b;c <self_ns>`, one line per distinct
/// name-path, sorted by stack) — the format flamegraph tools such as
/// inferno and speedscope consume. Values are self time in
/// nanoseconds; because every span contributes its wall time exactly
/// once, the values sum to the total duration of the root spans.
pub fn folded_stacks(report: &RunReport) -> String {
    let mut agg: BTreeMap<String, u128> = BTreeMap::new();
    for row in span_rows(report) {
        *agg.entry(row.path.join(";")).or_insert(0) += row.self_ns;
    }
    let mut out = String::new();
    for (stack, ns) in agg {
        out.push_str(&format!("{stack} {ns}\n"));
    }
    out
}

/// One hop of the [`critical_path`].
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalHop {
    /// Span name at this hop.
    pub name: String,
    /// Total wall time of the hop's span.
    pub dur_ns: u64,
    /// Self time of the hop's span.
    pub self_ns: u128,
}

/// Extracts the critical path: starting from the longest root span in
/// the trace, repeatedly descend into the heaviest direct child. Ties
/// break toward the smallest `(region, stream, seq)`, so the result is
/// deterministic for a given trace.
pub fn critical_path(report: &RunReport) -> Vec<CriticalHop> {
    let mut lanes: BTreeMap<(u64, u64), Vec<&Event>> = BTreeMap::new();
    for e in report.events.iter().filter(|e| e.is_span()) {
        lanes.entry((e.region, e.stream)).or_default().push(e);
    }
    let mut best: Option<((u64, u64), &Event)> = None;
    for (lane, group) in &lanes {
        let by_seq: BTreeMap<u64, &Event> = group.iter().map(|s| (s.seq, *s)).collect();
        for s in group {
            let is_root = match s.parent {
                None => true,
                Some(p) => !by_seq.contains_key(&p),
            };
            if !is_root {
                continue;
            }
            let better = match best {
                None => true,
                // Lanes iterate in ascending order, so strict `>` keeps
                // the smallest (region, stream, seq) on ties.
                Some((_, b)) => s.dur_ns.unwrap_or(0) > b.dur_ns.unwrap_or(0),
            };
            if better {
                best = Some((*lane, s));
            }
        }
    }
    let Some((lane, root)) = best else {
        return Vec::new();
    };
    let group = &lanes[&lane];
    let by_seq: BTreeMap<u64, &Event> = group.iter().map(|s| (s.seq, *s)).collect();
    let mut children: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for s in group {
        if let Some(p) = s.parent {
            if by_seq.contains_key(&p) {
                children.entry(p).or_default().push(s);
            }
        }
    }
    let mut path = Vec::new();
    let mut cur = root;
    loop {
        let kids = children.get(&cur.seq).map(Vec::as_slice).unwrap_or(&[]);
        let kid_total: u128 = kids.iter().map(|k| u128::from(k.dur_ns.unwrap_or(0))).sum();
        let dur = u128::from(cur.dur_ns.unwrap_or(0));
        path.push(CriticalHop {
            name: cur.name.clone(),
            dur_ns: cur.dur_ns.unwrap_or(0),
            self_ns: dur.saturating_sub(kid_total),
        });
        // Heaviest child next; seq order within the lane breaks ties.
        let mut next: Option<&Event> = None;
        for k in kids {
            if next.is_none_or(|b| k.dur_ns.unwrap_or(0) > b.dur_ns.unwrap_or(0)) {
                next = Some(k);
            }
        }
        match next {
            Some(n) => cur = n,
            None => break,
        }
    }
    path
}

/// Renders the analytics section `cadmc report` appends to the
/// summary: the critical path and the top-`top` spans by aggregate
/// self time.
pub fn render_analytics(report: &RunReport, top: usize) -> String {
    let mut out = String::new();
    let path = critical_path(report);
    if !path.is_empty() {
        out.push_str("\ncritical path (heaviest child chain from the longest root span):\n");
        for (depth, hop) in path.iter().enumerate() {
            let label = format!("{}{}", "  ".repeat(depth + 1), hop.name);
            out.push_str(&format!(
                "{label:<30} {:>12.3} ms total {:>10.3} ms self\n",
                ms(u128::from(hop.dur_ns)),
                ms(hop.self_ns)
            ));
        }
    }
    let mut by_name: BTreeMap<&str, (u64, u128)> = BTreeMap::new();
    let rows = span_rows(report);
    for row in &rows {
        let slot = by_name.entry(row.path.last().map(String::as_str).unwrap_or("")).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += row.self_ns;
    }
    let mut hot: Vec<(&str, u64, u128)> =
        by_name.iter().map(|(n, (c, s))| (*n, *c, *s)).collect();
    hot.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    if !hot.is_empty() && top > 0 {
        out.push_str(&format!("\nhotspots (top {top} by aggregate self time):\n"));
        let total_self: u128 = hot.iter().map(|(_, _, s)| s).sum();
        for (i, (name, count, self_ns)) in hot.iter().take(top).enumerate() {
            let share = if total_self == 0 {
                0.0
            } else {
                *self_ns as f64 / total_self as f64 * 100.0
            };
            out.push_str(&format!(
                "  {:>2}. {:<24} {:>10.3} ms self  {:>5.1}%  ({count} calls)\n",
                i + 1,
                name,
                ms(*self_ns),
                share
            ));
        }
    }
    out
}

fn render_agg(out: &mut String, node: &Agg, depth: usize) {
    let mut kids: Vec<(&String, &Agg)> = node.children.iter().collect();
    kids.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    for (name, child) in kids {
        let label = format!("{}{}", "  ".repeat(depth + 1), name);
        out.push_str(&format!(
            "{label:<30} {:>6} {:>12.3} {:>10.3}\n",
            child.count,
            ms(child.total_ns),
            ms(child.self_ns)
        ));
        render_agg(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            version: SCHEMA_VERSION,
            meta: vec![("command".into(), "search".into())],
            events: vec![
                Event {
                    name: "outer".into(),
                    region: 0,
                    stream: 0,
                    seq: 0,
                    parent: None,
                    t_ns: 10,
                    dur_ns: Some(100),
                    fields: vec![
                        ("n".into(), FieldValue::U64(3)),
                        ("neg".into(), FieldValue::I64(-2)),
                        ("ok".into(), FieldValue::Bool(true)),
                        ("label".into(), FieldValue::Str("x".into())),
                        ("score".into(), FieldValue::F64(0.25)),
                    ],
                },
                Event {
                    name: "mark".into(),
                    region: 0,
                    stream: 0,
                    seq: 1,
                    parent: Some(0),
                    t_ns: 20,
                    dur_ns: None,
                    fields: vec![],
                },
            ],
            metrics: MetricsSnapshot {
                counters: vec![("memo.hits".into(), 3), ("memo.misses".into(), 1)],
                gauges: vec![("bw".into(), 2.5)],
                histograms: vec![(
                    "lat".into(),
                    Histogram {
                        bounds: vec![1.0, 2.0],
                        counts: vec![1, 0, 2],
                        count: 3,
                        sum: 7.5,
                    },
                )],
            },
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let report = sample_report();
        let text = to_jsonl(&report);
        let parsed = parse_jsonl(&text).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn rejects_malformed_lines() {
        let good = to_jsonl(&sample_report());
        let cases: Vec<(String, &str)> = vec![
            ("not json\n".to_string(), "invalid JSON"),
            ("{\"type\":\"meta\",\"version\":1,\"info\":{}}\nnull\n".to_string(), "expected object"),
            ("{\"type\":\"bogus\"}\n".to_string(), "unknown record type"),
            (
                good.replace("\"seq\":0,", ""),
                "missing key `seq`",
            ),
            (
                good.replace("\"t_ns\":20,", "\"t_ns\":20,\"extra\":1,"),
                "unknown key `extra`",
            ),
            (
                good.replace("\"counts\":[1,0,2]", "\"counts\":[1,0]"),
                "counts length",
            ),
            (
                good.replace("\"count\":3", "\"count\":9"),
                "sum of bucket counts",
            ),
            (
                good.replace("\"version\":1", "\"version\":7"),
                "unsupported schema version",
            ),
            ("{\"type\":\"span\"}\n".to_string(), "missing key"),
            ("".to_string(), "empty trace"),
        ];
        for (text, needle) in cases {
            let err = parse_jsonl(&text).expect_err(needle);
            assert!(
                err.message.contains(needle),
                "expected {needle:?} in {:?}",
                err.message
            );
        }
    }

    #[test]
    fn meta_must_lead() {
        let report = sample_report();
        let text = to_jsonl(&report);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.swap(0, 1);
        let swapped = lines.join("\n");
        let err = parse_jsonl(&swapped).expect_err("meta not first");
        assert!(err.message.contains("meta must be the first line"));
    }

    /// Nested spans on two lanes; children durations never exceed the
    /// parent's, mirroring what the monotonic span clock guarantees.
    fn nested_report() -> RunReport {
        let span = |name: &str, region: u64, stream: u64, seq: u64, parent, dur| Event {
            name: name.into(),
            region,
            stream,
            seq,
            parent,
            t_ns: 0,
            dur_ns: Some(dur),
            fields: vec![],
        };
        RunReport {
            version: SCHEMA_VERSION,
            meta: vec![],
            events: vec![
                span("root", 0, 0, 0, None, 1_000),
                span("mid", 0, 0, 1, Some(0), 600),
                span("leaf", 0, 0, 2, Some(1), 200),
                span("side", 0, 0, 3, Some(0), 100),
                span("other", 1, 0, 0, None, 50),
            ],
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn folded_stacks_reconcile_with_root_wall_time() {
        let report = nested_report();
        let folded = folded_stacks(&report);
        assert_eq!(
            folded,
            "other 50\nroot 300\nroot;mid 400\nroot;mid;leaf 200\nroot;side 100\n"
        );
        let folded_total: u128 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u128>().unwrap())
            .sum();
        let root_total: u128 = span_rows(&report)
            .iter()
            .filter(|r| r.path.len() == 1)
            .map(|r| u128::from(r.dur_ns))
            .sum();
        assert_eq!(folded_total, root_total, "self times must telescope");
    }

    #[test]
    fn critical_path_follows_heaviest_children() {
        let path = critical_path(&nested_report());
        let names: Vec<&str> = path.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["root", "mid", "leaf"]);
        assert_eq!(path[0].dur_ns, 1_000);
        assert_eq!(path[0].self_ns, 300);
        assert_eq!(path[2].self_ns, 200);
    }

    #[test]
    fn analytics_render_critical_path_and_hotspots() {
        let text = render_analytics(&nested_report(), 3);
        assert!(text.contains("critical path"));
        assert!(text.contains("hotspots (top 3"));
        // mid has the largest aggregate self time (400 ns).
        let hot_line = text.lines().find(|l| l.contains(" 1. ")).unwrap();
        assert!(hot_line.contains("mid"), "got {hot_line:?}");
    }

    #[test]
    fn lenient_parse_skips_unknown_record_kinds() {
        let good = to_jsonl(&sample_report());
        let mut text = good.clone();
        text.push_str("{\"type\":\"wibble\",\"x\":1}\n");
        text.push_str("{\"type\":\"wobble\"}\n");
        assert!(parse_jsonl(&text).is_err(), "strict must reject");
        let (report, skipped) = parse_jsonl_lenient(&text).expect("lenient parses");
        assert_eq!(skipped, 2);
        assert_eq!(report, parse_jsonl(&good).unwrap());
        // Lenient stays strict about malformed known records.
        let bad = good.replace("\"seq\":0,", "");
        assert!(parse_jsonl_lenient(&bad).is_err());
    }

    #[test]
    fn summary_mentions_key_sections() {
        let text = render_summary(&sample_report());
        assert!(text.contains("span tree"));
        assert!(text.contains("outer"));
        assert!(text.contains("hot spans"));
        assert!(text.contains("memo pool: 3 hits / 1 misses (75.0% hit ratio"));
        assert!(text.contains("counters:"));
        assert!(text.contains("histograms:"));
    }
}
