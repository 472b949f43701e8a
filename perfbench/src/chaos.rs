//! `chaos-replay`: the virtual-time scheduler on an overload burst under
//! a canned outage, one fresh server per replay.

use std::time::Instant;

use cadmc_serve::{
    chaos_arrivals, Arrival, ChaosConfig, Decision, RejectReason, ScheduleReport, Server,
    ServerConfig,
};
use cadmc_telemetry as telemetry;

use crate::gen::Rng;
use crate::stats::{Outcome, Tally};
use crate::{Args, Report};

const ARRIVALS: usize = 96;
/// Set-ups before the first op; the measured phase adds one after each
/// replay, as on `train-emulate`.
const SETUP_REPS: usize = 51;
const WARMUP_S: f64 = 1.0;
/// Replays in each phase of a traced run.
const TRACED_REPLAYS: usize = 20;

struct Setup {
    cfg: ServerConfig,
    arrivals: Vec<Arrival>,
}

/// Builds the schedule. The seed sets the session seeds and jitters
/// each arrival by up to half the arrival interval (order is kept).
fn setup(seed: u64) -> Setup {
    let cfg = ServerConfig::default();
    let chaos = ChaosConfig {
        sessions: ARRIVALS,
        overload: 2.0,
        seed,
        ..ChaosConfig::default()
    };
    let mut arrivals = chaos_arrivals(&chaos, &cfg);
    let interval_ms = 1_000.0 / (cfg.admission_capacity_per_sec() * chaos.overload);
    let mut rng = Rng::new(seed, 4);
    for a in &mut arrivals {
        a.at_ms += 0.5 * interval_ms * rng.unit();
    }
    Setup { cfg, arrivals }
}

/// Arrivals the scheduler could resolve and search (not rejected as
/// posed) — the ones whose outcome it precomputes.
fn resolvable(report: &ScheduleReport) -> usize {
    report
        .records
        .iter()
        .filter(|r| {
            !matches!(
                r.decision,
                Decision::Rejected {
                    reason: RejectReason::InvalidModel { .. }
                        | RejectReason::Constraint { .. }
                        | RejectReason::BadRequest { .. }
                }
            )
        })
        .count()
}

/// One op: a replay on a fresh server, checked against the reference log.
fn op(s: &Setup, reference: &str, workers: usize, r: &mut Report) -> Outcome {
    let _op = telemetry::span!("bench.op");
    let server = Server::new(s.cfg.clone());
    let report = server.run_schedule(&s.arrivals, workers, None);
    let cache = server.tree_cache().stats();
    telemetry::counter!("bench.tree_cache.hits", cache.hits as u64);
    telemetry::counter!("bench.tree_cache.misses", cache.misses as u64);
    telemetry::counter!("bench.tree_cache.evictions", cache.evictions as u64);
    telemetry::counter!("bench.memo.hits", server.memo().hits() as u64);
    telemetry::counter!("bench.memo.misses", server.memo().misses() as u64);
    telemetry::gauge!("bench.memo.entries", server.memo().len() as f64);
    telemetry::counter!("bench.schedule.admitted", report.admitted as u64);
    telemetry::counter!("bench.schedule.resolvable", resolvable(&report) as u64);
    telemetry::counter!("bench.schedule.shed", report.shed as u64);
    if report.log() == reference {
        Outcome::Done
    } else {
        r.note("WRONG replay log differs from the one-worker reference".to_string());
        Outcome::Wrong
    }
}

fn replays(s: &Setup, reference: &str, workers: usize, n: usize, r: &mut Report) -> (Tally, f64) {
    let mut tally = Tally::default();
    let t0 = Instant::now();
    for _ in 0..n {
        tally.add(op(s, reference, workers, r));
    }
    (tally, t0.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        s = Some(setup(args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let s = s.ok_or("no setup")?;
    // The reference outcome log: one worker, outside the timed set-up.
    let report = Server::new(s.cfg.clone()).run_schedule(&s.arrivals, 1, None);
    let reference = report.log();
    let admitted: Vec<(f64, f64)> = report
        .records
        .iter()
        .filter_map(|rec| match rec.decision {
            Decision::Admitted {
                mean_latency_ms,
                mean_accuracy,
                ..
            } => Some((mean_latency_ms, mean_accuracy)),
            Decision::Rejected { .. } => None,
        })
        .collect();
    if admitted.is_empty() {
        return Err("reference replay admitted no session".to_string());
    }
    let n = admitted.len() as f64;
    let plan = (
        admitted.iter().map(|a| a.0).sum::<f64>() / n,
        admitted.iter().map(|a| a.1).sum::<f64>() / n,
    );
    r.note(format!(
        "reference replay: {} of {} arrivals admitted ({} resolvable), {} shed, {} degraded, {} failed",
        report.admitted,
        ARRIVALS,
        resolvable(&report),
        report.shed,
        report.degraded,
        report.failed
    ));

    // Warm-up: replays for WARMUP_S.
    let mut warm = Tally::default();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < WARMUP_S {
        warm.add(op(&s, &reference, args.workers, &mut r));
    }
    r.phase("warmup", warm);

    if args.trace {
        let (untraced, u_wall) = replays(&s, &reference, args.workers, TRACED_REPLAYS, &mut r);
        r.phase("untraced", untraced);
        let meta = vec![
            ("untraced_ops".to_string(), untraced.sent.to_string()),
            ("untraced_wall_s".to_string(), u_wall.to_string()),
        ];
        let (traced, trace) = crate::trace::record(args, meta, || {
            replays(&s, &reference, args.workers, TRACED_REPLAYS, &mut r).0
        })?;
        r.phase("traced", traced);
        crate::trace::per_layer(&trace, crate::trace::Kind::Chaos, 1, &mut r);
        return Ok(r);
    }

    let mut tally = Tally::default();
    let mut lat_ms = Vec::new();
    let mut setup_in_phase = 0.0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let o = op(&s, &reference, args.workers, &mut r);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.add(o);
        let t = Instant::now();
        std::hint::black_box(setup(args.seed));
        setups.push(t.elapsed().as_secs_f64());
        setup_in_phase += setups[setups.len() - 1];
    }
    let wall = t0.elapsed().as_secs_f64() - setup_in_phase;
    r.phase("measured", tally);
    r.end_to_end(&setups, &lat_ms, 1, tally.done, wall, plan);
    Ok(r)
}
