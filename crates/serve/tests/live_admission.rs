//! The live path's refusal ladder: serial `Server::submit` calls pin
//! each typed refusal label the wall-clock front-end can produce, the
//! places where its order differs from the virtual-time replay (model
//! resolution before the drain check, the accuracy constraint after the
//! rate token), and that the `live_stats()` totals agree with the
//! per-tenant counters of `obs_snapshot()`. A traced submit shows the
//! `serve.session` span covering the session's work. Concurrent first
//! submits on a cold server resolve exactly as serial ones do, and
//! concurrent submits sharing one cached tree plan run exactly as
//! serial ones do.

use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;

use cadmc_latency::Platform;
use cadmc_netsim::{FaultSchedule, Scenario};
use cadmc_serve::{ModelSource, RejectReason, Server, ServerConfig, SessionSpec};
use cadmc_telemetry::{self as telemetry, FieldValue};

/// The telemetry collector is process-wide, so the tests in this file
/// run one at a time to keep other tests' spans out of the traced one.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cfg() -> ServerConfig {
    ServerConfig {
        episodes: 2,
        ..ServerConfig::default()
    }
}

fn spec(tenant: &str) -> SessionSpec {
    SessionSpec {
        tenant: tenant.to_string(),
        model: ModelSource::Zoo("tiny".to_string()),
        min_accuracy: 0.0,
        device: Platform::Phone,
        scenario: Scenario::FourGIndoorStatic,
        requests: 1,
        seed: 5,
        faults: FaultSchedule::none(),
    }
}

fn bad_ir(tenant: &str) -> SessionSpec {
    SessionSpec {
        model: ModelSource::Ir("model broken { layer".to_string()),
        ..spec(tenant)
    }
}

/// The refusal label of a submit that must not be admitted.
fn refused(server: &Server, spec: SessionSpec, t_ms: f64) -> &'static str {
    match server.submit(spec, t_ms) {
        Err(reason) => reason.label(),
        Ok(done) => panic!("expected a refusal, got outcome {}", done.outcome.label),
    }
}

/// `live_stats()` counts exactly what the per-tenant counters count.
fn assert_totals_reconcile(server: &Server) {
    let stats = server.live_stats();
    let obs = server.obs_snapshot();
    assert_eq!(stats.slo_breaches, obs.breaches.len(), "breaches");
    let tenants = obs.tenants;
    let sum = |f: fn(&cadmc_serve::TenantCounters) -> u64| -> usize {
        tenants.iter().map(|(_, c)| f(c) as usize).sum()
    };
    assert_eq!(stats.admitted, sum(|c| c.admitted), "admitted");
    assert_eq!(stats.shed, sum(|c| c.shed), "shed");
    assert_eq!(stats.degraded, sum(|c| c.degraded), "degraded");
    assert_eq!(stats.failed, sum(|c| c.failed), "failed");
}

#[test]
fn invalid_model_is_rejected_even_while_draining() {
    let _serial = serial();
    let server = Server::new(cfg());
    assert_eq!(refused(&server, bad_ir("a"), 0.0), "rejected:invalid-model");
    // The live path resolves the model before it looks at the drain flag.
    server.begin_drain();
    assert_eq!(refused(&server, bad_ir("a"), 1.0), "rejected:invalid-model");
    assert_eq!(refused(&server, spec("a"), 2.0), "shed:draining");
    let stats = server.live_stats();
    assert_eq!((stats.admitted, stats.shed), (0, 3));
    assert_totals_reconcile(&server);
}

#[test]
fn quota_zero_sheds_every_session() {
    let _serial = serial();
    let server = Server::new(ServerConfig {
        tenant_quota: 0,
        ..cfg()
    });
    assert_eq!(refused(&server, spec("a"), 0.0), "shed:quota");
    assert_eq!(refused(&server, spec("b"), 0.0), "shed:quota");
    assert_eq!(server.live_stats().shed, 2);
    assert_totals_reconcile(&server);
}

#[test]
fn a_searching_session_holds_its_quota_place() {
    let _serial = serial();
    // Two slots, so only the quota can refuse the second session.
    let server = Server::new(ServerConfig {
        tenant_quota: 1,
        slots: 2,
        episodes: 200,
        ..cfg()
    });
    let vgg = SessionSpec {
        model: ModelSource::Zoo("vgg11".to_string()),
        ..spec("a")
    };
    // Both sessions miss the tree cache; whichever passes the gate first
    // searches long enough for the other to find its tenant's one place
    // taken.
    let start = Barrier::new(2);
    let labels: Vec<&'static str> = thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|i| {
                let (server, start, vgg) = (&server, &start, vgg.clone());
                s.spawn(move || {
                    start.wait();
                    match server.submit(vgg, f64::from(i)) {
                        Ok(done) => done.outcome.label,
                        Err(reason) => reason.label(),
                    }
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("submit thread"))
            .collect()
    });
    assert_eq!(
        labels.iter().filter(|&&l| l == "shed:quota").count(),
        1,
        "exactly one of {labels:?} is shed on quota"
    );
    let stats = server.live_stats();
    assert_eq!((stats.admitted, stats.shed), (1, 1));
    assert_totals_reconcile(&server);
}

#[test]
fn an_empty_bucket_sheds_on_rate() {
    let _serial = serial();
    let server = Server::new(ServerConfig {
        burst: 1,
        rate_per_sec: 1e-9,
        ..cfg()
    });
    server
        .submit(spec("a"), 0.0)
        .expect("the burst token admits");
    assert_eq!(refused(&server, spec("a"), 0.0), "shed:rate");
    assert_eq!(refused(&server, spec("b"), 10.0), "shed:rate");
    let stats = server.live_stats();
    assert_eq!((stats.admitted, stats.shed), (1, 2));
    assert_totals_reconcile(&server);
}

#[test]
fn a_constraint_reject_has_already_spent_its_token() {
    let _serial = serial();
    let server = Server::new(ServerConfig {
        burst: 1,
        rate_per_sec: 1e-9,
        ..cfg()
    });
    let impossible = SessionSpec {
        min_accuracy: 1.5,
        ..spec("a")
    };
    match server.submit(impossible, 0.0) {
        Err(reason @ RejectReason::Constraint { .. }) => {
            assert_eq!(reason.label(), "rejected:constraint");
        }
        Err(other) => panic!("expected a constraint reject, got {}", other.label()),
        Ok(_) => panic!("an unsatisfiable floor was admitted"),
    }
    // The constraint is checked after the rate token is taken, so the
    // next session at the same instant finds the bucket empty.
    assert_eq!(refused(&server, spec("a"), 0.0), "shed:rate");
    let stats = server.live_stats();
    assert_eq!((stats.admitted, stats.shed), (0, 2));
    assert_eq!(
        (stats.waiting, stats.active),
        (0, 0),
        "the slot was released"
    );
    assert_totals_reconcile(&server);
}

#[test]
fn slo_burn_opens_the_breaker_through_the_hook() {
    let _serial = serial();
    let server = Server::new(ServerConfig {
        slo_p99_ms: 0.001,
        slo_min_events: 1,
        slo_burn_threshold: 1.0,
        slo_breaker_hook: true,
        breaker_threshold: 1,
        ..cfg()
    });
    server.submit(spec("a"), 0.0).expect("first session admits");
    assert_eq!(server.obs_snapshot().breaches.len(), 1, "one breach");
    assert_eq!(refused(&server, spec("a"), 1.0), "shed:breaker");
    // The breaker is per tenant.
    server
        .submit(spec("b"), 2.0)
        .expect("another tenant admits");
    let stats = server.live_stats();
    assert_eq!((stats.admitted, stats.shed), (2, 1));
    assert_totals_reconcile(&server);
}

#[test]
fn draining_beats_every_later_rung() {
    let _serial = serial();
    let server = Server::new(ServerConfig {
        tenant_quota: 0,
        ..cfg()
    });
    server.begin_drain();
    assert_eq!(refused(&server, spec("a"), 0.0), "shed:draining");
    assert!(server.is_draining());
    assert_totals_reconcile(&server);
}

/// The server resolves each scenario's context and each zoo model once,
/// on first use. Sixteen threads racing to fill every slot of a fresh
/// server get the outcomes that serial submits on another fresh server
/// get, field for field apart from the session id.
#[test]
fn concurrent_first_submits_resolve_like_serial_ones() {
    let _serial = serial();
    let roomy = ServerConfig {
        slots: 16,
        queue_capacity: 16,
        rate_per_sec: 1e6,
        burst: 64,
        tenant_quota: 64,
        tree_cache_capacity: 16,
        ..cfg()
    };
    let specs: Vec<SessionSpec> = (0..16)
        .map(|i| SessionSpec {
            model: ModelSource::Zoo(if i % 2 == 0 { "tiny" } else { "alexnet" }.to_string()),
            scenario: Scenario::ALL[i % Scenario::ALL.len()],
            requests: 2,
            seed: i as u64,
            ..spec(&format!("t{i}"))
        })
        .collect();

    let racing = Server::new(roomy.clone());
    let start = Barrier::new(specs.len());
    let raced: Vec<_> = thread::scope(|s| {
        let runs: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (racing, start, spec) = (&racing, &start, spec.clone());
                s.spawn(move || {
                    start.wait();
                    racing.submit(spec, i as f64)
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("submit thread"))
            .collect()
    });

    let serial_server = Server::new(roomy);
    for (i, (spec, raced)) in specs.iter().zip(raced).enumerate() {
        let raced = raced.unwrap_or_else(|r| panic!("raced submit {i} refused: {r}"));
        let alone = serial_server
            .submit(spec.clone(), i as f64)
            .unwrap_or_else(|r| panic!("serial submit {i} refused: {r}"));
        assert_eq!(raced.outcome, alone.outcome, "session {i}");
    }
    assert_eq!(racing.live_stats().admitted, specs.len());
}

/// Sessions on one cache key walk one shared tree plan. Eight threads
/// submitting on a warm key at once, each with its own seed and request
/// count, get the outcomes serial submits on a fresh server get, field
/// for field apart from the session id.
#[test]
fn concurrent_submits_on_one_cached_key_run_like_serial_ones() {
    let _serial = serial();
    let roomy = ServerConfig {
        slots: 8,
        queue_capacity: 8,
        rate_per_sec: 1e6,
        burst: 64,
        tenant_quota: 64,
        ..cfg()
    };
    let specs: Vec<SessionSpec> = (0..8)
        .map(|i| SessionSpec {
            scenario: Scenario::WifiWeakIndoor,
            requests: 3 + i,
            seed: 40 + i as u64,
            ..spec(&format!("t{i}"))
        })
        .collect();

    let racing = Server::new(roomy.clone());
    // One search warms the key; the racers all hit it.
    racing
        .submit(specs[0].clone(), 0.0)
        .unwrap_or_else(|r| panic!("warm-up refused: {r}"));
    let start = Barrier::new(specs.len());
    let raced: Vec<_> = thread::scope(|s| {
        let runs: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (racing, start, spec) = (&racing, &start, spec.clone());
                s.spawn(move || {
                    start.wait();
                    racing.submit(spec, 1.0 + i as f64)
                })
            })
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("submit thread"))
            .collect()
    });
    let cache = racing.tree_cache().stats();
    assert_eq!((cache.misses, cache.hits), (1, specs.len()));

    let serial_server = Server::new(roomy);
    for (i, (spec, raced)) in specs.iter().zip(raced).enumerate() {
        let raced = raced.unwrap_or_else(|r| panic!("raced submit {i} refused: {r}"));
        let alone = serial_server
            .submit(spec.clone(), i as f64)
            .unwrap_or_else(|r| panic!("serial submit {i} refused: {r}"));
        assert_eq!(raced.outcome, alone.outcome, "session {i}");
    }
}

#[test]
fn the_session_span_covers_resolve_search_and_refusals() {
    let _serial = serial();
    let (results, trace) = telemetry::testing::with_collector(|| {
        let server = Server::new(cfg());
        let done = server.submit(spec("a"), 0.0).map(|d| d.outcome.label);
        let refused = server.submit(bad_ir("a"), 1.0).map(|d| d.outcome.label);
        (done, refused)
    });
    let done = results.0.expect("the first session admits");
    assert!(results.1.is_err());

    let sessions: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "serve.session")
        .collect();
    assert_eq!(sessions.len(), 2, "one span per submit, refused ones too");
    let outcome = |e: &telemetry::Event| e.field("outcome").cloned();
    assert_eq!(
        outcome(sessions[0]),
        Some(FieldValue::Str(done.to_string()))
    );
    assert_eq!(
        outcome(sessions[1]),
        Some(FieldValue::Str("rejected:invalid-model".to_string()))
    );

    // The cache miss searches inside the session span: the search span
    // is its child, and every episode of the search's fan-out runs
    // within its time bounds.
    let session = sessions[0];
    let search = trace
        .events
        .iter()
        .find(|e| e.name == "tree.search")
        .expect("a cache miss runs a tree search");
    assert_eq!(
        (search.region, search.stream),
        (session.region, session.stream)
    );
    assert_eq!(search.parent, Some(session.seq));
    let (lo, hi) = (session.t_ns, session.t_ns + session.dur_ns.unwrap_or(0));
    let episodes: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name == "tree.episode")
        .collect();
    assert!(!episodes.is_empty(), "the search runs episodes");
    for e in episodes {
        let end = e.t_ns + e.dur_ns.unwrap_or(0);
        assert!(
            lo <= e.t_ns && end <= hi,
            "episode [{}, {end}] outside session [{lo}, {hi}]",
            e.t_ns
        );
    }
}
