//! Golden drain trace (ISSUE 8 satellite): a seeded server run that
//! receives a drain signal mid-burst must keep producing the checked-in
//! schema-v1 JSONL telemetry trace (wall-clock fields masked), with zero
//! open spans and every in-flight session ending in a terminal outcome.
//!
//! Regenerate intentionally with:
//! `UPDATE_GOLDEN=1 cargo test -p cadmc-serve --test drain_golden`

use cadmc_serve::{chaos_arrivals, ChaosConfig, Decision, Server, ServerConfig};
use cadmc_telemetry::report::{parse_jsonl, to_jsonl};
use cadmc_telemetry::testing::{assert_golden, mask_times};
use cadmc_telemetry::{self as telemetry, FieldValue};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/drain_trace.jsonl"
);

/// The canonical drained run: a small overload burst, zero faults (the
/// fault ladder has its own golden), drain landing mid-burst so some
/// sessions are refused with `shed:draining` and the in-flight ones
/// still reach terminal outcomes.
fn drained_run() -> (cadmc_serve::ScheduleReport, String) {
    let cfg = ServerConfig::default();
    let chaos = ChaosConfig {
        sessions: 8,
        requests: 3,
        faults: cadmc_netsim::FaultSchedule::none(),
        ..ChaosConfig::default()
    };
    let arrivals = chaos_arrivals(&chaos, &cfg);
    let drain_at_ms = Some(arrivals[4].at_ms + 1.0);
    let (report, trace) = telemetry::testing::with_collector(|| {
        let server = Server::new(cfg);
        server.run_schedule(&arrivals, 2, drain_at_ms)
    });
    (report, mask_times(&to_jsonl(&trace)))
}

#[test]
fn drain_trace_matches_checked_in_golden() {
    let (_, produced) = drained_run();
    assert_golden(GOLDEN, &produced);
}

#[test]
fn golden_is_schema_valid_with_zero_open_spans_and_terminal_outcomes() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden trace must be checked in");
    // The strict schema-v1 parser IS the validation: any malformed line,
    // missing meta or unknown record shape fails here.
    let trace = parse_jsonl(&golden).expect("golden must satisfy schema v1");

    let (report, _) = drained_run();
    let admitted = report.admitted;
    assert!(admitted > 0, "drain run must admit sessions");
    assert!(
        report.records.iter().any(|r| matches!(
            &r.decision,
            Decision::Rejected { reason } if reason.label() == "shed:draining"
        )),
        "drain must land mid-burst and refuse at least one arrival"
    );

    // Zero open spans: spans only serialize once closed, so every
    // admitted session must contribute exactly one *closed*
    // `serve.session` span, and each must carry its terminal outcome.
    let session_spans: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "serve.session")
        .collect();
    assert_eq!(
        session_spans.len(),
        admitted,
        "one closed serve.session span per admitted session"
    );
    for span in &session_spans {
        assert!(span.is_span(), "serve.session must be a closed span");
        match span.field("outcome") {
            Some(FieldValue::Str(s)) => assert!(
                matches!(s.as_str(), "ok" | "retried" | "degraded" | "failed"),
                "non-terminal span outcome {s:?}"
            ),
            other => panic!("serve.session span without terminal outcome: {other:?}"),
        }
    }

    // The drain itself and the server counters flushed into the trace.
    assert!(
        trace.events.iter().any(|e| e.name == "serve.drain"),
        "drain event missing from trace"
    );
    for counter in ["serve.admitted", "serve.shed", "serve.drained"] {
        assert!(
            trace.metrics.counter(counter).is_some(),
            "counter {counter} missing from flushed telemetry"
        );
    }
    assert_eq!(
        trace.metrics.counter("serve.admitted"),
        Some(admitted as u64)
    );
    assert_eq!(trace.metrics.counter("serve.shed"), Some(report.shed as u64));
}
