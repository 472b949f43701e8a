//! A replay executes only the sessions that take a slot: in a traced
//! 96-session chaos run at 2× overload, the session executions (`exec.run`
//! spans outside any `tree.search`, whose re-rank also executes trees)
//! number exactly the admitted sessions, not every resolvable arrival.

use cadmc_serve::{chaos_arrivals, ChaosConfig, Server, ServerConfig};
use cadmc_telemetry::{self as telemetry, Event};

fn end(e: &Event) -> u64 {
    e.t_ns + e.dur_ns.unwrap_or(0)
}

#[test]
fn only_admitted_sessions_execute() {
    let cfg = ServerConfig::default();
    let chaos = ChaosConfig {
        sessions: 96,
        ..ChaosConfig::default()
    };
    let arrivals = chaos_arrivals(&chaos, &cfg);
    let (report, trace) =
        telemetry::testing::with_collector(|| Server::new(cfg).run_schedule(&arrivals, 2, None));
    let spans = |name: &'static str| {
        trace
            .events
            .iter()
            .filter(move |e| e.is_span() && e.name == name)
    };
    let searches: Vec<(u64, u64)> = spans("tree.search").map(|s| (s.t_ns, end(s))).collect();
    assert!(!searches.is_empty(), "a cold server searches");
    let sessions = spans("exec.run")
        .filter(|e| !searches.iter().any(|&(a, b)| e.t_ns >= a && end(e) <= b))
        .count();
    assert!(
        report.admitted > 0 && report.admitted < arrivals.len(),
        "the burst must admit some arrivals and shed others"
    );
    assert_eq!(
        sessions, report.admitted,
        "one execution per admitted session"
    );
}
