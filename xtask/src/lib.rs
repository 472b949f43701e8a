//! Custom source-level static analysis for the cadmc workspace.
//!
//! `cargo xtask lint` runs nine lightweight lints over first-party library
//! code (no external parser — a masking tokenizer plus line scanning, so
//! the pass works in the vendored-offline build):
//!
//! - **L1 panic-hygiene**: forbids `unwrap()`, `expect(`, `panic!`,
//!   `unreachable!`, `todo!` and `unimplemented!` in non-test library
//!   code of the six runtime crates. Justified sites live in the
//!   `lint.allow` allowlist, each with a reason.
//! - **L2 map-iteration**: forbids iterating `HashMap`/`HashSet` in
//!   search/reward/controller hot paths. Iteration order is
//!   nondeterministic, which silently breaks the bit-identical
//!   reproducibility contract of the parallel searches; keyed lookups
//!   (`get`/`insert`/`len`) stay allowed.
//! - **L3 nondeterminism sources**: forbids unseeded RNG construction
//!   (`thread_rng`, `from_entropy`, ...) and wall-clock reads
//!   (`Instant::now`, `SystemTime`) inside simulation/search code. All
//!   randomness must flow from explicit `StdRng::seed_from_u64` streams
//!   and all time from the simulated clock.
//! - **L4 float-equality**: forbids `==`/`!=` against floating-point
//!   literals (and `f32::`/`f64::` constants) outside approved epsilon
//!   helpers — exact float comparison is almost always a latent bug.
//! - **L5 print-in-library**: forbids `println!`/`eprintln!` (and the
//!   non-newline forms) in first-party library crates. Libraries report
//!   through the telemetry layer (`cadmc-telemetry` spans, metrics and
//!   sinks); only the CLI and bench binaries own stdout/stderr.
//! - **L6 hot-path model clone**: forbids wholesale `.clone()` of a
//!   `ModelSpec`/`ModelTree` in the search hot-path files (the L2 set).
//!   Episode loops must share the base spec via `Arc` and carry per-state
//!   deltas; a full-model clone per step is exactly the allocation storm
//!   the delta-state design removed. Justified one-time promotions go in
//!   `lint.allow`.
//! - **L7 lossy cast**: forbids narrowing `as` casts (`as u8`/`u16`/
//!   `u32`/`i8`/`i16`/`i32`/`f32`) in the cost-kernel and hot-path files
//!   where MACC/parameter/transfer-byte arithmetic lives. A silent
//!   truncation there corrupts rewards instead of failing; widen
//!   (`as u64`/`as u128`/`as f64`) or use checked conversions. Justified
//!   sites go in `lint.allow`.
//! - **L8 unbounded queue**: forbids unbounded channel/queue construction
//!   (`channel()` with no bound, `VecDeque::new` as a work queue) in the
//!   serving and executor paths. Backpressure requires every queue to
//!   have an explicit capacity (`sync_channel(n)`, `BoundedQueue`), so
//!   overload sheds with a typed rejection instead of growing memory.
//!   Justified sites go in `lint.allow`.
//! - **L9 wall clock in aggregation**: forbids `Instant::now(` and
//!   `SystemTime::now(` in the virtual-time aggregation paths — the
//!   windowed metrics, SLO tracking and serving schedule code whose
//!   byte-identical-across-workers contract rests on every timestamp
//!   flowing from the simulated clock. Span timing in the telemetry
//!   core and the live TCP surface keep their wall clocks (out of
//!   scope); anything else goes through `lint.allow` with a reason.
//!
//! The scanner masks comments and string literals (preserving line
//! structure), skips `#[cfg(test)]` items by brace tracking, and skips
//! test-only files entirely, so lints only fire on code that ships.

use std::fmt;
use std::path::{Path, PathBuf};

/// Maximum number of allowlist entries — a hard cap so the allowlist
/// stays a short list of justified exceptions rather than a dumping
/// ground.
pub const MAX_ALLOWLIST_ENTRIES: usize = 25;

/// The nine lint classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// Panic-hygiene: no `unwrap`/`expect`/`panic!` in library code.
    L1PanicSite,
    /// No `HashMap`/`HashSet` iteration in hot paths.
    L2MapIteration,
    /// No unseeded RNG or wall-clock reads in simulation/search code.
    L3Nondeterminism,
    /// No `==`/`!=` on float literals outside epsilon helpers.
    L4FloatEq,
    /// No `println!`/`eprintln!` in first-party library crates.
    L5PrintInLib,
    /// No wholesale `ModelSpec`/`ModelTree` clones in search hot paths.
    L6HotClone,
    /// No narrowing `as` casts in cost-kernel/hot-path arithmetic.
    L7LossyCast,
    /// No unbounded channel/queue construction in serving/executor paths.
    L8UnboundedQueue,
    /// No wall-clock reads in virtual-time aggregation paths.
    L9WallClockInAggregation,
}

impl Lint {
    /// Short code used in reports and the allowlist file.
    pub fn code(self) -> &'static str {
        match self {
            Lint::L1PanicSite => "L1",
            Lint::L2MapIteration => "L2",
            Lint::L3Nondeterminism => "L3",
            Lint::L4FloatEq => "L4",
            Lint::L5PrintInLib => "L5",
            Lint::L6HotClone => "L6",
            Lint::L7LossyCast => "L7",
            Lint::L8UnboundedQueue => "L8",
            Lint::L9WallClockInAggregation => "L9",
        }
    }

    /// Parses a lint code (`"L1"`..`"L9"`).
    pub fn from_code(code: &str) -> Option<Lint> {
        match code {
            "L1" => Some(Lint::L1PanicSite),
            "L2" => Some(Lint::L2MapIteration),
            "L3" => Some(Lint::L3Nondeterminism),
            "L4" => Some(Lint::L4FloatEq),
            "L5" => Some(Lint::L5PrintInLib),
            "L6" => Some(Lint::L6HotClone),
            "L7" => Some(Lint::L7LossyCast),
            "L8" => Some(Lint::L8UnboundedQueue),
            "L9" => Some(Lint::L9WallClockInAggregation),
            _ => None,
        }
    }

    /// One-line description shown in reports.
    pub fn description(self) -> &'static str {
        match self {
            Lint::L1PanicSite => "panic site in non-test library code",
            Lint::L2MapIteration => "HashMap/HashSet iteration in a hot path (nondeterministic order)",
            Lint::L3Nondeterminism => "unseeded RNG or wall-clock read in simulation/search code",
            Lint::L4FloatEq => "exact float equality comparison",
            Lint::L5PrintInLib => {
                "print to stdout/stderr in library code (report via cadmc-telemetry instead)"
            }
            Lint::L6HotClone => {
                "deep model clone in a search hot path (share via Arc or carry a delta instead)"
            }
            Lint::L7LossyCast => {
                "narrowing `as` cast in cost-kernel arithmetic (widen or use a checked conversion)"
            }
            Lint::L8UnboundedQueue => {
                "unbounded channel/queue construction in a serving/executor path (use an explicit capacity)"
            }
            Lint::L9WallClockInAggregation => {
                "wall-clock read in a virtual-time aggregation path (take a virtual timestamp instead)"
            }
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}\n    {}",
            self.lint,
            self.file,
            self.line,
            self.lint.description(),
            self.excerpt
        )
    }
}

/// One allowlist entry: `LINT|path-fragment|line-substring|reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The lint this entry silences.
    pub lint: Lint,
    /// Substring the violation's file path must contain.
    pub path_fragment: String,
    /// Substring the offending line must contain.
    pub line_fragment: String,
    /// Why the site is justified (required, non-empty).
    pub reason: String,
}

/// Errors from parsing the allowlist file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllowlistError {
    /// A line did not have four `|`-separated fields.
    Malformed {
        /// 1-based line number in the allowlist file.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// The first field was not a known lint code.
    UnknownLint {
        /// 1-based line number in the allowlist file.
        line: usize,
        /// The unrecognized code.
        code: String,
    },
    /// An entry had an empty reason field.
    MissingReason {
        /// 1-based line number in the allowlist file.
        line: usize,
    },
    /// More than [`MAX_ALLOWLIST_ENTRIES`] entries.
    TooManyEntries {
        /// Number of entries found.
        count: usize,
    },
}

impl fmt::Display for AllowlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllowlistError::Malformed { line, content } => write!(
                f,
                "allowlist line {line}: expected `LINT|path|substring|reason`, got {content:?}"
            ),
            AllowlistError::UnknownLint { line, code } => {
                write!(f, "allowlist line {line}: unknown lint code {code:?}")
            }
            AllowlistError::MissingReason { line } => {
                write!(f, "allowlist line {line}: entries must carry a non-empty reason")
            }
            AllowlistError::TooManyEntries { count } => write!(
                f,
                "allowlist has {count} entries; the cap is {MAX_ALLOWLIST_ENTRIES} — fix code instead of widening the allowlist"
            ),
        }
    }
}

impl std::error::Error for AllowlistError {}

/// Parses the allowlist format: one `LINT|path|substring|reason` entry
/// per line; blank lines and `#` comments are ignored.
///
/// # Errors
///
/// Returns [`AllowlistError`] for malformed lines, unknown lint codes,
/// empty reasons or more than [`MAX_ALLOWLIST_ENTRIES`] entries.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, AllowlistError> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.splitn(4, '|').collect();
        if fields.len() != 4 {
            return Err(AllowlistError::Malformed {
                line,
                content: trimmed.to_string(),
            });
        }
        let lint = Lint::from_code(fields[0].trim()).ok_or_else(|| AllowlistError::UnknownLint {
            line,
            code: fields[0].trim().to_string(),
        })?;
        let reason = fields[3].trim();
        if reason.is_empty() {
            return Err(AllowlistError::MissingReason { line });
        }
        entries.push(AllowEntry {
            lint,
            path_fragment: fields[1].trim().to_string(),
            line_fragment: fields[2].trim().to_string(),
            reason: reason.to_string(),
        });
    }
    if entries.len() > MAX_ALLOWLIST_ENTRIES {
        return Err(AllowlistError::TooManyEntries {
            count: entries.len(),
        });
    }
    Ok(entries)
}

/// Replaces comments, string literals and char literals with spaces,
/// preserving line structure, so the lint scan never fires inside
/// documentation, messages or test fixtures embedded as strings.
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;

    fn push_masked(out: &mut Vec<u8>, bytes: &[u8], from: usize, to: usize) {
        for &b in &bytes[from..to] {
            out.push(if b == b'\n' { b'\n' } else { b' ' });
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment (also covers /// and //! doc comments).
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            let end = bytes[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(bytes.len(), |p| i + p);
            push_masked(&mut out, bytes, i, end);
            i = end;
            continue;
        }
        // Block comment, possibly nested.
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && j + 1 < bytes.len() && bytes[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && j + 1 < bytes.len() && bytes[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            push_masked(&mut out, bytes, i, j);
            i = j;
            continue;
        }
        // Raw string literal r"..." / r#"..."# (and br variants).
        if (b == b'r' || b == b'b')
            && !prev_is_ident(bytes, i)
        {
            let start = i;
            let mut j = i;
            if bytes[j] == b'b' && j + 1 < bytes.len() && bytes[j + 1] == b'r' {
                j += 1;
            }
            if bytes[j] == b'r' {
                let mut k = j + 1;
                let mut hashes = 0;
                while k < bytes.len() && bytes[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b'"' {
                    // Scan to closing quote followed by `hashes` #s.
                    let mut m = k + 1;
                    'raw: while m < bytes.len() {
                        if bytes[m] == b'"' {
                            let mut h = 0;
                            while m + 1 + h < bytes.len() && h < hashes && bytes[m + 1 + h] == b'#'
                            {
                                h += 1;
                            }
                            if h == hashes {
                                m += 1 + hashes;
                                break 'raw;
                            }
                        }
                        m += 1;
                    }
                    push_masked(&mut out, bytes, start, m);
                    i = m;
                    continue;
                }
            }
        }
        // Plain or byte string literal.
        if b == b'"' || (b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'"' && !prev_is_ident(bytes, i)) {
            let start = i;
            let mut j = if b == b'b' { i + 2 } else { i + 1 };
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            push_masked(&mut out, bytes, start, j.min(bytes.len()));
            i = j.min(bytes.len());
            continue;
        }
        // Char literal vs lifetime: 'x' or '\n' is a literal; 'a in a
        // generic position is a lifetime and passes through.
        if b == b'\'' {
            let rest = &bytes[i + 1..];
            let lit_len = match rest.first() {
                Some(b'\\') => rest
                    .iter()
                    .skip(1)
                    .position(|&c| c == b'\'')
                    .map(|p| p + 3),
                Some(_) if rest.len() >= 2 && rest[1] == b'\'' => Some(3),
                _ => None,
            };
            if let Some(len) = lit_len {
                push_masked(&mut out, bytes, i, (i + len).min(bytes.len()));
                i = (i + len).min(bytes.len());
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    String::from_utf8(out).unwrap_or_default()
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Returns, for each line of the (masked) source, whether it belongs to a
/// `#[cfg(test)]` item — tracked by brace depth from the attribute to the
/// close of the item it gates.
pub fn test_line_mask(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut in_test = vec![false; lines.len()];
    let mut idx = 0;
    while idx < lines.len() {
        if lines[idx].contains("#[cfg(test)]") {
            // Skip forward to the gated item's opening brace (or a `;`
            // ending a braceless item like a gated `use`).
            let mut j = idx;
            let mut depth: i64 = 0;
            let mut opened = false;
            'item: while j < lines.len() {
                in_test[j] = true;
                for c in lines[j].chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth <= 0 {
                                break 'item;
                            }
                        }
                        ';' if !opened && depth == 0 => break 'item,
                        _ => {}
                    }
                }
                j += 1;
            }
            idx = j + 1;
        } else {
            idx += 1;
        }
    }
    in_test
}

/// True when the path is test-only and exempt from every lint: anything
/// under a `tests/`, `benches/` or `examples/` directory, and the
/// dedicated in-crate test files.
pub fn is_test_path(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
    {
        return true;
    }
    let file = parts.last().copied().unwrap_or("");
    file.ends_with("_tests.rs") || file == "proptests.rs"
}

const L1_CRATES: [&str; 8] = [
    "crates/core/src",
    "crates/nn/src",
    "crates/compress/src",
    "crates/latency/src",
    "crates/netsim/src",
    "crates/accuracy/src",
    "crates/ir/src",
    "crates/serve/src",
];

/// Hot-path files where map iteration order would leak into search
/// results: the searches themselves, reward/eval, the memo pool, the
/// controllers, and the autodiff tape and optimizers that train them (a
/// gradient norm summed in hash order changes the clipped Adam step).
const L2_HOT_PATHS: [&str; 12] = [
    "crates/core/src/search.rs",
    "crates/core/src/tree_search.rs",
    "crates/core/src/branch.rs",
    "crates/core/src/reward.rs",
    "crates/core/src/baselines.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/executor.rs",
    "crates/core/src/memo.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/controller/",
    "crates/autodiff/src/graph.rs",
    "crates/autodiff/src/optim.rs",
];

const L3_CRATES: [&str; 3] = ["crates/core/src", "crates/netsim/src", "crates/latency/src"];

const L4_CRATES: [&str; 8] = [
    "crates/core/src",
    "crates/nn/src",
    "crates/compress/src",
    "crates/latency/src",
    "crates/netsim/src",
    "crates/accuracy/src",
    "crates/autodiff/src",
    "crates/ir/src",
];

/// First-party *library* crates: everything except the CLI and the bench
/// binaries, which own stdout/stderr by design. The telemetry crate is in
/// scope too — its sinks write through `io::Write` handles, never via the
/// print macros.
const L5_CRATES: [&str; 10] = [
    "crates/core/src",
    "crates/nn/src",
    "crates/compress/src",
    "crates/latency/src",
    "crates/netsim/src",
    "crates/accuracy/src",
    "crates/autodiff/src",
    "crates/telemetry/src",
    "crates/ir/src",
    "crates/serve/src",
];

/// L7 scope: the files where MACC / parameter / transfer-byte arithmetic
/// lives. A narrowing cast here truncates silently and corrupts rewards.
/// `compress/src/feature.rs` is in scope because the feature-compression
/// knobs own the compressed-cut-tensor byte math the transfer overlay
/// trusts.
const L7_CAST_PATHS: [&str; 7] = [
    "crates/nn/src/model.rs",
    "crates/nn/src/layer.rs",
    "crates/core/src/delta.rs",
    "crates/core/src/candidate.rs",
    "crates/latency/src/",
    "crates/ir/src/analyze.rs",
    "crates/compress/src/feature.rs",
];

/// L8 scope: the serving core and the executor/scheduler paths — the
/// places where an unbounded queue turns overload into memory growth
/// instead of a typed `Rejected{reason}`.
const L8_QUEUE_PATHS: [&str; 3] = [
    "crates/serve/src",
    "crates/core/src/executor.rs",
    "crates/core/src/parallel.rs",
];

/// L9 scope: virtual-time aggregation paths — the windowed metrics and
/// SLO machinery plus the serving schedule/admission code. Their
/// byte-identical-across-workers snapshots require every timestamp to
/// be a virtual one. Deliberately *not* in scope: the telemetry core
/// (`telemetry/src/lib.rs` — span timing is wall clock by design) and
/// the live TCP surface (`serve/src/tcp.rs` — real sockets, real time).
const L9_VIRTUAL_TIME_PATHS: [&str; 8] = [
    "crates/telemetry/src/window.rs",
    "crates/telemetry/src/slo.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/admission.rs",
    "crates/serve/src/breaker.rs",
    "crates/serve/src/chaos.rs",
    "crates/serve/src/session.rs",
];

fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| rel.starts_with(s) || rel.contains(s))
}

/// Scans one file's source, returning every violation (before
/// allowlisting). `rel` is the workspace-relative path used for scoping
/// and reporting.
pub fn scan_source(rel: &str, src: &str) -> Vec<Violation> {
    if is_test_path(rel) || src.contains("#![cfg(test)]") {
        return Vec::new();
    }
    let masked = mask_source(src);
    let in_test = test_line_mask(&masked);
    let raw_lines: Vec<&str> = src.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();

    let mut out = Vec::new();
    let mut push = |lint: Lint, line_idx: usize| {
        out.push(Violation {
            lint,
            file: rel.to_string(),
            line: line_idx + 1,
            excerpt: raw_lines.get(line_idx).unwrap_or(&"").trim().to_string(),
        });
    };

    let l1 = in_scope(rel, &L1_CRATES);
    let l2 = in_scope(rel, &L2_HOT_PATHS);
    let l3 = in_scope(rel, &L3_CRATES);
    let l4 = in_scope(rel, &L4_CRATES);
    let l5 = in_scope(rel, &L5_CRATES);
    let l7 = in_scope(rel, &L7_CAST_PATHS);
    let l8 = in_scope(rel, &L8_QUEUE_PATHS);
    let l9 = in_scope(rel, &L9_VIRTUAL_TIME_PATHS);
    if !(l1 || l2 || l3 || l4 || l5 || l7 || l8 || l9) {
        return Vec::new();
    }

    let map_idents = if l2 { map_bindings(&masked_lines) } else { Vec::new() };
    // L6 shares L2's hot-path scope: the files where a per-episode model
    // clone would silently reintroduce the allocation storm.
    let spec_idents = if l2 { spec_bindings(&masked_lines) } else { Vec::new() };

    for (i, line) in masked_lines.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if l1 && has_panic_site(line) {
            push(Lint::L1PanicSite, i);
        }
        if l2 && iterates_map(line, &map_idents) {
            push(Lint::L2MapIteration, i);
        }
        if l3 && has_nondeterminism(line) {
            push(Lint::L3Nondeterminism, i);
        }
        if l4 && has_float_eq(line) {
            push(Lint::L4FloatEq, i);
        }
        if l5 && has_print_site(line) {
            push(Lint::L5PrintInLib, i);
        }
        if l2 && clones_model(line, &spec_idents) {
            push(Lint::L6HotClone, i);
        }
        if l7 && has_lossy_cast(line) {
            push(Lint::L7LossyCast, i);
        }
        if l8 && has_unbounded_queue(line) {
            push(Lint::L8UnboundedQueue, i);
        }
        if l9 && has_wall_clock(line) {
            push(Lint::L9WallClockInAggregation, i);
        }
    }
    out
}

/// L9: wall-clock reads. Narrower than the L3 token set on purpose —
/// the aggregation paths legitimately *mention* `UNIX_EPOCH` never and
/// construct no RNGs, so only the two clock constructors matter here.
fn has_wall_clock(line: &str) -> bool {
    line.contains("Instant::now(") || line.contains("SystemTime::now(")
}

/// L8: unbounded channel/queue construction. `channel()` with an empty
/// argument list catches `mpsc::channel()` and `unbounded_channel()`
/// while leaving `sync_channel(n)` (which always takes a bound) alone;
/// `VecDeque::new`/`with_capacity` are flagged because `with_capacity`
/// is an allocation hint, not a cap — a served work queue must refuse
/// pushes past its bound ([`cadmc-serve`]'s `BoundedQueue`).
fn has_unbounded_queue(line: &str) -> bool {
    // `sync_channel()` can't exist (it always takes a bound), so every
    // literal `channel()` — `mpsc::channel()`, `unbounded_channel()` —
    // is an unbounded construction.
    line.contains("channel()")
        || line.contains("VecDeque::new(")
        || line.contains("VecDeque::with_capacity(")
}

/// L7 narrowing cast targets. 64-bit and 128-bit targets (and `usize` on
/// the supported 64-bit platforms) are widening for this codebase's
/// dimension arithmetic and stay allowed.
const L7_LOSSY_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// L7: ` as <narrow-type>` with a token boundary on both sides, so
/// `as usize` / `as u64` / `as u128` never match.
fn has_lossy_cast(line: &str) -> bool {
    for t in L7_LOSSY_TARGETS {
        let needle = format!(" as {t}");
        for (pos, _) in line.match_indices(&needle) {
            let after = line.as_bytes().get(pos + needle.len()).copied();
            let boundary =
                after.is_none_or(|b| !(b.is_ascii_alphanumeric() || b == b'_'));
            if boundary {
                return true;
            }
        }
    }
    false
}

/// L5: stdout/stderr print macros. Matching `print!(`/`eprint!(` also
/// covers the `ln` forms' shared suffix, but each is listed explicitly so
/// an excerpt match in the allowlist stays precise.
fn has_print_site(line: &str) -> bool {
    ["println!(", "eprintln!(", "print!(", "eprint!("]
        .iter()
        .any(|t| line.contains(t))
}

/// L1: panic-site tokens. `.unwrap()` is matched exactly so
/// `unwrap_or(_else/_default)` stays allowed.
fn has_panic_site(line: &str) -> bool {
    line.contains(".unwrap()")
        || line.contains(".expect(")
        || line.contains("panic!(")
        || line.contains("unreachable!(")
        || line.contains("todo!(")
        || line.contains("unimplemented!(")
}

/// Extracts identifiers bound to a `HashMap`/`HashSet` in this file:
/// `let name: HashMap<..>`, `name: HashSet<..>` fields/params, and
/// `let name = HashMap::new()`-style constructions. The declared type
/// must *start* with the map type so `Vec<Mutex<HashMap<..>>>` bindings
/// are not mistaken for maps.
fn map_bindings(masked_lines: &[&str]) -> Vec<String> {
    let mut idents = Vec::new();
    for line in masked_lines {
        if !line.contains("HashMap") && !line.contains("HashSet") {
            continue;
        }
        // `name : HashMap<` / `name : HashSet<` (field, param or let).
        for (pos, _) in line.match_indices(':') {
            let after = line[pos + 1..].trim_start();
            let after = after
                .strip_prefix("std::collections::")
                .unwrap_or(after);
            if after.starts_with("HashMap") || after.starts_with("HashSet") {
                if let Some(name) = ident_before(line, pos) {
                    idents.push(name);
                }
            }
        }
        // `name = HashMap::new()` / `= HashSet::with_capacity(..)`.
        for (pos, _) in line.match_indices('=') {
            if pos > 0 && matches!(line.as_bytes()[pos - 1], b'=' | b'!' | b'<' | b'>') {
                continue;
            }
            let after = line[pos + 1..].trim_start();
            let after = after
                .strip_prefix("std::collections::")
                .unwrap_or(after);
            if after.starts_with("HashMap::") || after.starts_with("HashSet::") {
                if let Some(name) = ident_before(line, pos) {
                    idents.push(name);
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// The identifier immediately preceding byte `pos` (skipping whitespace
/// and a trailing `:` type ascription), if any.
fn ident_before(line: &str, pos: usize) -> Option<String> {
    let head = line[..pos].trim_end();
    // For `let mut name = ...` / `name: T = ...` take the trailing word,
    // dropping a `: Type` ascription if the `=` branch hit it.
    let head = head.split(':').next().unwrap_or(head).trim_end();
    let word: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if word.is_empty() || word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(word)
    }
}

/// L6 deep-clone target types: model-carrying values whose wholesale
/// `.clone()` inside a search loop undoes the shared-base/delta design.
const L6_CLONE_TYPES: [&str; 2] = ["ModelSpec", "ModelTree"];

/// Extracts identifiers bound to an [`L6_CLONE_TYPES`] type in this file:
/// `name: ModelSpec` / `name: &ModelTree` (field, param or let) and
/// `name = ModelSpec::...` constructions. `Arc<ModelSpec>` bindings are
/// deliberately *not* tracked — cloning the `Arc` is the fix, not the
/// problem.
fn spec_bindings(masked_lines: &[&str]) -> Vec<String> {
    let mut idents = Vec::new();
    for line in masked_lines {
        if !L6_CLONE_TYPES.iter().any(|t| line.contains(t)) {
            continue;
        }
        let bytes = line.as_bytes();
        // `name : ModelSpec` / `name : &mut ModelTree`.
        for (pos, _) in line.match_indices(':') {
            if bytes.get(pos + 1) == Some(&b':') || (pos > 0 && bytes[pos - 1] == b':') {
                continue; // a `::` path, not a type ascription
            }
            let after = line[pos + 1..].trim_start();
            let after = after.strip_prefix('&').unwrap_or(after);
            let after = after.strip_prefix("mut ").unwrap_or(after);
            let is_target = L6_CLONE_TYPES.iter().any(|t| {
                after.strip_prefix(t).is_some_and(|rest| {
                    rest.chars()
                        .next()
                        .is_none_or(|c| !c.is_ascii_alphanumeric() && c != '_' && c != '<')
                })
            });
            if is_target {
                if let Some(name) = ident_just_before(line, pos) {
                    idents.push(name);
                }
            }
        }
        // `name = ModelSpec::new(..)` / `= ModelTree::new(..)`.
        for (pos, _) in line.match_indices('=') {
            if pos > 0 && matches!(bytes[pos - 1], b'=' | b'!' | b'<' | b'>') {
                continue;
            }
            if bytes.get(pos + 1) == Some(&b'=') {
                continue;
            }
            let after = line[pos + 1..].trim_start();
            if L6_CLONE_TYPES
                .iter()
                .any(|t| after.strip_prefix(t).is_some_and(|r| r.starts_with("::")))
            {
                if let Some(name) = ident_before(line, pos) {
                    idents.push(name);
                }
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// The identifier whose last character sits immediately before byte
/// `pos` (after trailing whitespace), with no `:`-splitting — right for
/// type-ascription positions where the line holds several `name: Type`
/// pairs.
fn ident_just_before(line: &str, pos: usize) -> Option<String> {
    let head = line[..pos].trim_end();
    let word: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if word.is_empty() || word.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(word)
    }
}

/// L6: wholesale `.clone()` of a model-carrying value — a tracked
/// binding, or the `.model.clone()` / `.base.clone()` field forms the
/// search types expose their specs through.
fn clones_model(line: &str, spec_idents: &[String]) -> bool {
    if line.contains(".model.clone()") || line.contains(".base.clone()") {
        return true;
    }
    spec_idents.iter().any(|ident| {
        line.match_indices(&format!("{ident}.clone()")).any(|(pos, _)| {
            pos == 0 || {
                let b = line.as_bytes()[pos - 1];
                !(b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
            }
        })
    })
}

const ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".retain(",
];

/// L2: iteration over an identifier known to be a `HashMap`/`HashSet`,
/// or a `for .. in` loop over one.
fn iterates_map(line: &str, map_idents: &[String]) -> bool {
    for ident in map_idents {
        for m in ITER_METHODS {
            let needle = format!("{ident}{m}");
            if line.contains(&needle) {
                return true;
            }
        }
        if let Some(pos) = find_for_in(line) {
            let tail = line[pos..].trim_start();
            let tail = tail.strip_prefix('&').unwrap_or(tail);
            let tail = tail.strip_prefix("mut ").unwrap_or(tail);
            if tail.starts_with(ident.as_str()) {
                let rest = &tail[ident.len()..];
                if rest.is_empty()
                    || rest.starts_with(' ')
                    || rest.starts_with('{')
                    || rest.starts_with('.')
                {
                    return true;
                }
            }
        }
    }
    // Direct iteration on a fresh map expression.
    line.contains("HashMap::") && ITER_METHODS.iter().any(|m| line.contains(m))
        || line.contains("HashSet::") && ITER_METHODS.iter().any(|m| line.contains(m))
}

/// Byte offset just past `for .. in ` on this line, if present.
fn find_for_in(line: &str) -> Option<usize> {
    let f = line.find("for ")?;
    let in_pos = line[f..].find(" in ")? + f;
    Some(in_pos + 4)
}

const L3_TOKENS: [&str; 7] = [
    "thread_rng(",
    "from_entropy(",
    "from_os_rng(",
    "rand::random",
    "Instant::now(",
    "SystemTime::now(",
    "UNIX_EPOCH",
];

/// L3: unseeded RNG construction or wall-clock reads.
fn has_nondeterminism(line: &str) -> bool {
    L3_TOKENS.iter().any(|t| line.contains(t))
}

/// L4: `==`/`!=` where either operand is a float literal (`1.0`,
/// `-0.5e3`) or an `f32::`/`f64::` associated constant.
fn has_float_eq(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (pos, _) in line
        .match_indices("==")
        .chain(line.match_indices("!="))
    {
        // Skip `===`-like runs and `<=`, `>=` (pos of `!=`/`==` exact).
        if pos > 0 && matches!(bytes[pos - 1], b'<' | b'>' | b'=' | b'!') {
            continue;
        }
        if pos + 2 < bytes.len() && bytes[pos + 2] == b'=' {
            continue;
        }
        let before = line[..pos].trim_end();
        let after = line[pos + 2..].trim_start();
        if ends_with_float_literal(before)
            || starts_with_float_literal(after)
            || before.ends_with("f64::NAN")
            || before.ends_with("f32::NAN")
            || after.starts_with("f64::")
            || after.starts_with("f32::")
        {
            return true;
        }
    }
    false
}

fn starts_with_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i == 0 || i >= bytes.len() || bytes[i] != b'.' {
        return false;
    }
    i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit()
}

fn ends_with_float_literal(s: &str) -> bool {
    // Accept trailing forms like `1.0`, `-2.5`, `3.0f64`.
    let s = s.trim_end_matches("f32").trim_end_matches("f64");
    let bytes = s.as_bytes();
    let mut i = bytes.len();
    let mut frac = 0;
    while i > 0 && bytes[i - 1].is_ascii_digit() {
        i -= 1;
        frac += 1;
    }
    if frac == 0 || i == 0 || bytes[i - 1] != b'.' {
        return false;
    }
    // Digits must precede the dot (otherwise it's a tuple/field access
    // like `x.0` — wait, that IS digits after a dot; require a digit
    // before the dot so `bw.0` does not match but `10.0` does).
    i > 1 && bytes[i - 2].is_ascii_digit()
}

/// Result of a full workspace scan.
#[derive(Debug)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Allowlisted (suppressed) violation count.
    pub suppressed: usize,
    /// Allowlist entries that matched nothing (likely stale).
    pub unused_entries: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Applies the allowlist to raw violations, splitting them into
/// surviving violations and a suppressed count, and reporting unused
/// entries.
pub fn apply_allowlist(raw: Vec<Violation>, allow: &[AllowEntry]) -> LintReport {
    let mut used = vec![false; allow.len()];
    let mut violations = Vec::new();
    let mut suppressed = 0;
    for v in raw {
        let mut hit = false;
        for (i, e) in allow.iter().enumerate() {
            if e.lint == v.lint
                && v.file.contains(&e.path_fragment)
                && v.excerpt.contains(&e.line_fragment)
            {
                used[i] = true;
                hit = true;
                break;
            }
        }
        if hit {
            suppressed += 1;
        } else {
            violations.push(v);
        }
    }
    let unused_entries = allow
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    LintReport {
        violations,
        suppressed,
        unused_entries,
        files_scanned: 0,
    }
}

/// Recursively collects `.rs` files under `root`, skipping `target/`,
/// `vendor/`, `.git/` and the `xtask/` crate itself.
///
/// # Errors
///
/// Returns any directory-walk I/O error.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | ".git" | "xtask" | ".claude") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs the full lint over a workspace root with the given allowlist.
///
/// # Errors
///
/// Returns I/O errors from the file walk; unreadable files are skipped.
pub fn run_lint(root: &Path, allow: &[AllowEntry]) -> std::io::Result<LintReport> {
    let files = collect_rs_files(root)?;
    let mut raw = Vec::new();
    let mut scanned = 0;
    for f in &files {
        let Ok(src) = std::fs::read_to_string(f) else {
            continue;
        };
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        scanned += 1;
        raw.extend(scan_source(&rel, &src));
    }
    let mut report = apply_allowlist(raw, allow);
    report.files_scanned = scanned;
    Ok(report)
}
