//! Acceptance tests for the serving observability layer: windowed
//! per-tenant metrics snapshots and SLO breach logs are byte-identical
//! across 1/2/8 workers on the chaos schedule, sustained error-budget
//! burn trips the tenant breaker through the SLO hook, the Stats
//! protocol message and the `--metrics-listen` exposition endpoint
//! serve the same counters over real sockets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cadmc_serve::{chaos_arrivals, tcp, ChaosConfig, Response, Server, ServerConfig};

fn chaos_obs(workers: usize, cfg: ServerConfig) -> (String, cadmc_serve::ScheduleReport) {
    let chaos = ChaosConfig::default(); // 24 sessions, 3 tenants, 2x overload
    let arrivals = chaos_arrivals(&chaos, &cfg);
    let server = Server::new(cfg);
    let report = server.run_schedule(&arrivals, workers, None);
    (report.obs.metrics_log(), report)
}

#[test]
fn metrics_snapshot_is_byte_identical_across_1_2_8_workers() {
    let (log1, _) = chaos_obs(1, ServerConfig::default());
    let (log2, _) = chaos_obs(2, ServerConfig::default());
    let (log8, _) = chaos_obs(8, ServerConfig::default());
    assert!(log1.contains("window "), "snapshot must render cells:\n{log1}");
    assert!(log1.contains("slo tenant="), "snapshot must render SLO lines");
    assert_eq!(log1, log2, "1-worker and 2-worker snapshots diverged");
    assert_eq!(log1, log8, "1-worker and 8-worker snapshots diverged");
}

#[test]
fn breach_logs_are_byte_identical_across_workers_under_tight_slo() {
    // A p99 target below any achievable latency makes every completion
    // consume error budget; the burn rate saturates immediately.
    let tight = ServerConfig {
        slo_p99_ms: 0.001,
        slo_min_events: 2,
        ..ServerConfig::default()
    };
    let (log1, report1) = chaos_obs(1, tight.clone());
    let (log8, report8) = chaos_obs(8, tight);
    assert!(
        !report1.obs.breaches.is_empty(),
        "tight SLO must breach under chaos load"
    );
    assert!(log1.contains("slo.breach tenant="));
    assert_eq!(log1, log8, "breach logs diverged across workers");
    assert_eq!(report1.obs.breaches.len(), report8.obs.breaches.len());
}

#[test]
fn tenant_counters_reconcile_with_schedule_totals() {
    let (_, report) = chaos_obs(2, ServerConfig::default());
    let admitted: u64 = report.obs.tenants.iter().map(|(_, c)| c.admitted).sum();
    let shed: u64 = report.obs.tenants.iter().map(|(_, c)| c.shed).sum();
    assert_eq!(admitted, report.admitted as u64);
    assert_eq!(shed, report.shed as u64);
    let window_total = report.obs.window.total();
    assert!(
        window_total >= admitted + shed,
        "window cells must cover every admission and shed"
    );
}

#[test]
fn sustained_burn_trips_the_breaker_via_the_slo_hook() {
    let cfg = ServerConfig {
        slo_p99_ms: 0.001,
        slo_min_events: 1,
        slo_burn_threshold: 1.0,
        breaker_threshold: 1,
        ..ServerConfig::default()
    };
    // Short sessions spread over a slow arrival window so completions
    // (and therefore breaches) land *between* later arrivals — the
    // default burst finishes arriving before the first completion and
    // would never consult the tripped breaker.
    let slow_chaos = ChaosConfig {
        requests: 1,
        overload: 0.5,
        ..ChaosConfig::default()
    };
    let run = |cfg: ServerConfig| {
        let arrivals = chaos_arrivals(&slow_chaos, &cfg);
        let server = Server::new(cfg);
        server.run_schedule(&arrivals, 1, None)
    };
    let report = run(cfg.clone());
    assert!(
        !report.obs.breaches.is_empty(),
        "must breach:\n{}",
        report.obs.metrics_log()
    );
    // With the hook on and threshold 1, the first breach opens the
    // breaker: later arrivals of that tenant shed as shed:breaker.
    let baseline = run(ServerConfig {
        slo_breaker_hook: false,
        ..cfg
    });
    let breaker_sheds = |r: &cadmc_serve::ScheduleReport| {
        r.records
            .iter()
            .filter(|rec| matches!(
                &rec.decision,
                cadmc_serve::Decision::Rejected { reason } if reason.label() == "shed:breaker"
            ))
            .count()
    };
    assert!(
        breaker_sheds(&report) > breaker_sheds(&baseline),
        "slo_breaker_hook must convert sustained burn into breaker sheds \
         (hook {} vs baseline {})",
        breaker_sheds(&report),
        breaker_sheds(&baseline)
    );
}

// --- live TCP surfaces ------------------------------------------------------

fn send_line(stream: &mut TcpStream, line: &str) -> Response {
    let mut msg = line.to_string();
    msg.push('\n');
    stream.write_all(msg.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    serde_json::from_str(&reply).expect("decodable response")
}

#[test]
fn stats_request_and_exposition_scrape_agree() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let metrics_listener = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let metrics_addr = metrics_listener.local_addr().expect("metrics addr");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let stop = Arc::new(AtomicBool::new(false));
    let metrics_thread = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || tcp::serve_metrics(&server, metrics_listener, &stop))
    };
    let server_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || tcp::serve(&server, listener))
    };

    let mut conn = TcpStream::connect(addr).expect("connect");
    let submit = r#"{"Submit":{"tenant":"t0","model":"tiny","ir":"","min_accuracy":0.0,"device":"phone","scenario":"4G indoor static","requests":2,"seed":3,"faults":""}}"#;
    assert!(matches!(send_line(&mut conn, submit), Response::Done { .. }));

    // Stats over the protocol: counters plus the full exposition text.
    let exposition = match send_line(&mut conn, "\"Stats\"") {
        Response::Stats {
            admitted,
            queue_depth,
            slots_busy,
            exposition,
            ..
        } => {
            assert_eq!(admitted, 1);
            assert_eq!(queue_depth, 0);
            assert_eq!(slots_busy, 0);
            exposition
        }
        other => panic!("expected Stats, got {other:?}"),
    };
    assert!(exposition.contains("# TYPE cadmc_sessions_total counter"));
    assert!(exposition.contains("cadmc_sessions_total{tenant=\"t0\",state=\"admitted\"} 1"));
    assert!(exposition.contains("# TYPE cadmc_latency_ms summary"));

    // The HTTP endpoint serves the same families with proper headers.
    let mut scrape = TcpStream::connect(metrics_addr).expect("connect metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    scrape.read_to_string(&mut body).expect("scrape");
    assert!(body.starts_with("HTTP/1.1 200 OK\r\n"));
    assert!(body.contains("Content-Type: text/plain; version=0.0.4"));
    assert!(body.contains("cadmc_sessions_total{tenant=\"t0\",state=\"admitted\"} 1"));
    assert!(body.contains("cadmc_queue_depth 0"));

    match send_line(&mut conn, "\"Drain\"") {
        Response::Draining { .. } => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    server_thread.join().expect("join").expect("io");
    stop.store(true, Ordering::SeqCst);
    tcp::unblock_metrics(metrics_addr);
    metrics_thread.join().expect("metrics join");
}
