//! Acceptance-criteria tests for the chaos harness: under a seeded
//! schedule combining overload (2× sustained admission capacity) and the
//! canned outage preset, the server sheds with typed rejections only, the
//! bounded queue never grows past capacity (watermark counter), admitted
//! sessions end in a terminal outcome, and the per-session outcome log is
//! **byte-identical** across 1, 2 and 8 workers. A server reused for a
//! second schedule replays it exactly as a fresh server would.

use cadmc_netsim::{FaultSchedule, Scenario};
use cadmc_serve::{chaos_arrivals, ChaosConfig, Decision, ModelSource, Server, ServerConfig};

fn run_log(workers: usize) -> (String, cadmc_serve::ScheduleReport) {
    let cfg = ServerConfig::default();
    let chaos = ChaosConfig {
        sessions: 12,
        ..ChaosConfig::default()
    };
    let arrivals = chaos_arrivals(&chaos, &cfg);
    let server = Server::new(cfg);
    let report = server.run_schedule(&arrivals, workers, None);
    (report.log(), report)
}

#[test]
fn outcome_log_is_byte_identical_across_1_2_8_workers() {
    let (log1, _) = run_log(1);
    let (log2, _) = run_log(2);
    let (log8, _) = run_log(8);
    assert!(!log1.is_empty());
    assert_eq!(log1, log2, "1-worker and 2-worker logs diverged");
    assert_eq!(log1, log8, "1-worker and 8-worker logs diverged");
}

#[test]
fn overload_sheds_with_typed_rejections_only() {
    let (_, report) = run_log(2);
    assert!(
        report.shed > 0,
        "a 2x overload burst must shed at least one session"
    );
    for rec in &report.records {
        if let Decision::Rejected { reason } = &rec.decision {
            let label = reason.label();
            assert!(
                label.starts_with("shed:") || label.starts_with("rejected:"),
                "untyped rejection {label:?}"
            );
        }
    }
}

#[test]
fn queue_never_grows_past_capacity() {
    let (_, report) = run_log(2);
    assert!(report.queue_capacity > 0);
    assert!(
        report.queue_watermark <= report.queue_capacity,
        "queue watermark {} exceeded capacity {}",
        report.queue_watermark,
        report.queue_capacity
    );
}

#[test]
fn every_admitted_session_reaches_a_terminal_outcome() {
    let (_, report) = run_log(2);
    assert!(report.admitted > 0);
    for (i, rec) in report.records.iter().enumerate() {
        match &rec.decision {
            Decision::Admitted { outcome, .. } => {
                assert!(
                    matches!(outcome.as_str(), "ok" | "retried" | "degraded" | "failed"),
                    "session {i}: non-terminal outcome {outcome:?}"
                );
                assert!(report.outcomes[i].is_some());
            }
            Decision::Rejected { .. } => assert!(report.outcomes[i].is_none()),
        }
    }
    assert_eq!(
        report.admitted + report.shed,
        report.records.len(),
        "every arrival must be accounted for"
    );
}

/// The graceful-degradation criterion: a request may only end `failed`
/// when its tree offers no all-edge branch to fall back to. Whenever an
/// edge-only branch exists, an outage degrades — never fails.
#[test]
fn no_failed_outcome_while_an_edge_only_branch_exists() {
    let (_, report) = run_log(2);
    for out in report.outcomes.iter().flatten() {
        if out.label == "failed" {
            assert!(
                !out.has_edge_only_branch,
                "session failed although its tree has an edge-only fallback branch"
            );
        }
    }
}

/// What a server keeps between schedules (resolved contexts and zoo
/// models, the tree cache, the memo pool) carries no replay state: two
/// schedules run back to back on one server log exactly what they log
/// on two fresh servers.
#[test]
fn a_reused_server_replays_like_fresh_servers() {
    let cfg = ServerConfig::default();
    let chaos = ChaosConfig {
        sessions: 12,
        ..ChaosConfig::default()
    };
    let first = chaos_arrivals(&chaos, &cfg);
    // The second schedule spreads over every scenario and two zoo
    // models, without faults, and is drained mid-burst.
    let mut second = chaos_arrivals(
        &ChaosConfig {
            sessions: 14,
            faults: FaultSchedule::none(),
            seed: 99,
            ..chaos
        },
        &cfg,
    );
    for (i, a) in second.iter_mut().enumerate() {
        a.spec.scenario = Scenario::ALL[i % Scenario::ALL.len()];
        if i % 2 == 1 {
            a.spec.model = ModelSource::Zoo("alexnet".to_string());
        }
    }
    let schedules = [(&first, None), (&second, Some(second[9].at_ms))];
    for workers in [1, 8] {
        let reused = Server::new(cfg.clone());
        for (i, &(arrivals, drain_at_ms)) in schedules.iter().enumerate() {
            let on_reused = reused.run_schedule(arrivals, workers, drain_at_ms).log();
            let on_fresh = Server::new(cfg.clone())
                .run_schedule(arrivals, workers, drain_at_ms)
                .log();
            assert!(on_reused.contains("decision=admitted"));
            assert_eq!(on_reused, on_fresh, "schedule {i}, {workers} workers");
        }
    }
}
