//! The traced run: record a phase as schema-v1 JSONL through the
//! telemetry crate's `with_jsonl` sink, read the file back, and derive
//! every per-layer metric from it.

use std::collections::HashMap;
use std::path::PathBuf;

use cadmc_telemetry::report::{parse_jsonl, render_analytics, span_rows};
use cadmc_telemetry::{self as telemetry, Event, RunReport, Telemetry};

use crate::stats::median;
use crate::{Args, Report};

/// Which workload a trace came from: decides which spans stand for the
/// executor and the search on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Train,
    ServeHot,
    ServeChurn,
    Chaos,
}

/// Where a run's trace goes: `out/` beside this package's manifest,
/// which is inside the checkout the benchmark was built in.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Runs `f` as the traced phase (one `bench.phase` root span) and
/// returns its result with the trace parsed back from the JSONL file.
pub fn record<T>(
    args: &Args,
    meta: Vec<(String, String)>,
    f: impl FnOnce() -> T,
) -> Result<(T, RunReport), String> {
    let path = trace_path(args);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut builder = Telemetry::builder()
        .with_jsonl(&path)
        .with_meta("command", "perfbench")
        .with_meta("workload", &args.workload)
        .with_meta("seed", args.seed)
        .with_meta("workers", args.workers);
    for (k, v) in meta {
        builder = builder.with_meta(&k, v);
    }
    let handle = builder.install().map_err(|e| e.to_string())?;
    let out = {
        let _phase = telemetry::span!("bench.phase");
        f()
    };
    handle.finish().map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((out, report))
}

fn end(e: &Event) -> u64 {
    e.t_ns + e.dur_ns.unwrap_or(0)
}

fn lane(e: &Event) -> (u64, u64) {
    (e.region, e.stream)
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

struct Trace<'a> {
    rep: &'a RunReport,
    spans: Vec<&'a Event>,
    by_addr: HashMap<(u64, u64, u64), &'a Event>,
}

impl<'a> Trace<'a> {
    fn new(rep: &'a RunReport) -> Self {
        let spans: Vec<&Event> = rep.events.iter().filter(|e| e.is_span()).collect();
        let by_addr = spans
            .iter()
            .map(|e| ((e.region, e.stream, e.seq), *e))
            .collect();
        Trace {
            rep,
            spans,
            by_addr,
        }
    }

    fn named(&self, names: &[&str]) -> Vec<&'a Event> {
        self.spans
            .iter()
            .copied()
            .filter(|e| names.contains(&e.name.as_str()))
            .collect()
    }

    fn parent(&self, e: &Event) -> Option<&'a Event> {
        e.parent
            .and_then(|p| self.by_addr.get(&(e.region, e.stream, p)).copied())
    }

    fn has_ancestor(&self, e: &Event, name: &str) -> bool {
        let mut cur = self.parent(e);
        while let Some(p) = cur {
            if p.name == name {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    fn sum_ms(&self, names: &[&str]) -> f64 {
        self.named(names)
            .iter()
            .map(|e| e.dur_ns.unwrap_or(0) as f64)
            .sum::<f64>()
            / 1e6
    }

    fn p50_us(&self, names: &[&str]) -> f64 {
        let d: Vec<f64> = self
            .named(names)
            .iter()
            .map(|e| e.dur_ns.unwrap_or(0) as f64 / 1e3)
            .collect();
        median(&d)
    }

    fn counter(&self, name: &str) -> f64 {
        self.rep.metrics.counter(name).unwrap_or(0) as f64
    }

    fn gauge(&self, name: &str) -> f64 {
        self.rep.metrics.gauge(name).unwrap_or(0.0)
    }

    fn meta(&self, key: &str) -> f64 {
        self.rep
            .meta
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0.0)
    }

    /// Time inside `s` not covered by its same-lane children or by the
    /// fan-out lanes (regions opened after `s`'s own) that ran within
    /// its interval. Exact when one caller searches at a time; a lower
    /// bound when two callers' fan-outs overlap.
    fn exclusive_ns(&self, s: &Event) -> u64 {
        let (lo, hi) = (s.t_ns, end(s));
        let kids = self
            .spans
            .iter()
            .filter(|e| {
                (lane(e) == lane(s) && e.parent == Some(s.seq))
                    || (e.region > s.region
                        && e.t_ns >= lo
                        && end(e) <= hi
                        && self.parent(e).is_none())
            })
            .map(|e| (e.t_ns, end(e)))
            .collect();
        (hi - lo) - covered(kids, lo, hi)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Derives the per-layer metrics from a traced phase. `search_workers`
/// is the rollout pool size the workload's searches run with.
pub fn per_layer(rep: &RunReport, kind: Kind, search_workers: usize, r: &mut Report) {
    let t = Trace::new(rep);
    let ops = t.named(&["bench.op"]).len().max(1) as f64;
    let phase_s = t.sum_ms(&["bench.phase"]) / 1e3;

    // core::{branch, tree_search, controller}
    let tree_ms = if kind == Kind::Train {
        t.sum_ms(&["scene.tree"])
    } else {
        t.sum_ms(&["tree.search"])
    };
    let searches = t.named(&["tree.search", "branch.search"]);
    let episodes = t.named(&["tree.episode", "branch.episode"]);
    let controller_ms = searches
        .iter()
        .map(|s| t.exclusive_ns(s) as f64)
        .sum::<f64>()
        / 1e6;
    let top_level_ms = searches
        .iter()
        .filter(|s| !t.has_ancestor(s, "tree.search"))
        .map(|s| s.dur_ns.unwrap_or(0) as f64)
        .sum::<f64>()
        / 1e6;
    let episode_ms = episodes
        .iter()
        .map(|e| e.dur_ns.unwrap_or(0) as f64)
        .sum::<f64>()
        / 1e6;
    r.layer("search.tree_ms", tree_ms / ops, "ms");
    r.layer("search.branch_ms", t.sum_ms(&["scene.branch"]) / ops, "ms");
    r.layer(
        "search.episode_us",
        t.p50_us(&["tree.episode", "branch.episode"]),
        "us",
    );
    r.layer("search.controller_self_ms", controller_ms / ops, "ms");
    r.layer(
        "parallel.efficiency",
        ratio(episode_ms, top_level_ms * search_workers as f64),
        "ratio",
    );

    // core::memo — train_scene publishes its pools' counters (entries
    // summed over scenes); on the serve and chaos workloads the benchmark
    // reads the server's pool (resident entries at the end).
    let (mh, mm, entries) = if kind == Kind::Train {
        (
            t.counter("memo.hits"),
            t.counter("memo.misses"),
            t.counter("memo.entries") / ops,
        )
    } else {
        (
            t.counter("bench.memo.hits"),
            t.counter("bench.memo.misses"),
            t.gauge("bench.memo.entries"),
        )
    };
    r.layer("memo.hit_ratio", ratio(mh, mh + mm), "ratio");
    r.layer("memo.entries", entries, "count");

    // core::env / latency cost kernels
    r.layer("eval.candidate_us", t.p50_us(&["eval.candidate"]), "us");
    r.layer(
        "eval.count",
        t.named(&["eval.candidate"]).len() as f64,
        "count",
    );

    // core::executor: the benchmark's own span around `execute` on
    // train-emulate; the session executions (`exec.run` outside any
    // tree search) on the serve and chaos workloads.
    let search_windows: Vec<(u64, u64)> = t
        .named(&["tree.search"])
        .iter()
        .map(|s| (s.t_ns, end(s)))
        .collect();
    let exec: Vec<&Event> = match kind {
        Kind::Train => t.named(&["bench.execute"]),
        Kind::ServeHot | Kind::ServeChurn => t
            .named(&["exec.run"])
            .into_iter()
            .filter(|e| t.parent(e).is_some_and(|p| p.name == "bench.submit"))
            .collect(),
        Kind::Chaos => t
            .named(&["exec.run"])
            .into_iter()
            .filter(|e| {
                !search_windows
                    .iter()
                    .any(|&(a, b)| e.t_ns >= a && end(e) <= b)
            })
            .collect(),
    };
    let exec_requests: f64 = exec.iter().filter_map(|e| e.field_f64("requests")).sum();
    let exec_s = exec
        .iter()
        .map(|e| e.dur_ns.unwrap_or(0) as f64)
        .sum::<f64>()
        / 1e9;
    r.layer(
        "executor.requests_per_s",
        ratio(exec_requests, exec_s),
        "1/s",
    );
    r.layer("executor.fallbacks", t.counter("exec.fallbacks"), "count");

    // ir: the benchmark checks each inline IR it sends.
    r.layer("ir.check_us", t.p50_us(&["bench.ir.check"]), "us");
    r.layer(
        "ir.checks",
        t.named(&["bench.ir.check"]).len() as f64,
        "count",
    );

    // netsim: the context `resolve` builds on every submit.
    r.layer(
        "netsim.context_us",
        t.p50_us(&["bench.netsim.context"]),
        "us",
    );

    // core::tree_cache
    let (ch, cm, ev) = (
        t.counter("bench.tree_cache.hits"),
        t.counter("bench.tree_cache.misses"),
        t.counter("bench.tree_cache.evictions"),
    );
    let resident_growth =
        t.gauge("bench.tree_cache.entries_end") - t.gauge("bench.tree_cache.entries_start");
    r.layer("tree_cache.hit_ratio", ratio(ch, ch + cm), "ratio");
    r.layer("tree_cache.evictions", ev, "count");
    let duplicates = if matches!(kind, Kind::ServeHot | Kind::ServeChurn) {
        (cm - ev - resident_growth).max(0.0)
    } else {
        0.0
    };
    r.layer("tree_cache.duplicate_searches", duplicates, "count");

    // serve::server live path and serve::admission
    let submit_self: Vec<f64> = span_rows(rep)
        .iter()
        .filter(|row| row.path.last().is_some_and(|n| n == "bench.submit"))
        .map(|row| row.self_ns as f64 / 1e3)
        .collect();
    r.layer("serve.submit_us", t.p50_us(&["bench.submit"]), "us");
    r.layer("admission.queue_wait_us", median(&submit_self), "us");
    r.layer(
        "admission.waiting_watermark",
        t.gauge("bench.admission.waiting_watermark"),
        "count",
    );
    r.layer("admission.shed", t.counter("bench.admission.shed"), "count");

    // serve::{protocol, tcp}
    r.layer(
        "protocol.parse_us",
        t.p50_us(&["bench.protocol.parse"]),
        "us",
    );
    r.layer(
        "protocol.encode_us",
        t.p50_us(&["bench.protocol.encode"]),
        "us",
    );
    let wire = if matches!(kind, Kind::ServeHot | Kind::ServeChurn) {
        t.meta("tcp_p50_us") - t.meta("submit_p50_us")
    } else {
        0.0
    };
    r.layer("wire.overhead_us", wire, "us");

    // serve::server::run_schedule
    let (admitted, resolvable) = (
        t.counter("bench.schedule.admitted"),
        t.counter("bench.schedule.resolvable"),
    );
    let mut busy_ms = 0.0;
    let mut self_ms = 0.0;
    if kind == Kind::Chaos {
        for replay in t.named(&["bench.op"]) {
            let (lo, hi) = (replay.t_ns, end(replay));
            let runs: Vec<(u64, u64)> = exec
                .iter()
                .filter(|e| e.t_ns >= lo && end(e) <= hi)
                .map(|e| (e.t_ns, end(e)))
                .collect();
            busy_ms += runs.iter().map(|(a, b)| (b - a) as f64).sum::<f64>() / 1e6;
            self_ms += ((hi - lo) - covered(runs, lo, hi)) as f64 / 1e6;
        }
        r.note(format!(
            "schedule: {admitted} admitted of {resolvable} resolvable arrivals over {ops} replays"
        ));
    }
    r.layer(
        "schedule.precompute_useful_ratio",
        ratio(admitted, resolvable),
        "ratio",
    );
    r.layer("schedule.exec_busy_ms", busy_ms / ops, "ms");
    r.layer("schedule.self_ms", self_ms / ops, "ms");
    r.layer(
        "schedule.shed",
        t.counter("bench.schedule.shed") / ops,
        "count",
    );

    // telemetry: traced ÷ untraced throughput − 1 (negative = slower traced).
    let untraced = ratio(t.meta("untraced_ops"), t.meta("untraced_wall_s"));
    r.layer(
        "telemetry.overhead_ratio",
        ratio(ratio(ops, phase_s), untraced) - 1.0,
        "ratio",
    );

    for stage in [
        "delta compose",
        "controller forward vs backward",
        "memo probe time",
        "run_schedule phases (resolve, warm, precompute, replay)",
    ] {
        r.note(format!(
            "unmeasured: {stage} (no span reachable from outside the program)"
        ));
    }
    r.note(format!("trace: {} records", rep.events.len()));
    r.note(render_analytics(rep, 8));
}
