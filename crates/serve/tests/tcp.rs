//! End-to-end test of the TCP front-end: a real `std::net` listener on
//! an ephemeral localhost port, a client speaking the line-delimited
//! JSON protocol, and a graceful drain shutting the server down.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use cadmc_serve::{tcp, Response, Server, ServerConfig};

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
fn tcp_session_lifecycle_ping_submit_drain() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let server_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || tcp::serve(&server, listener))
    };

    let mut conn = TcpStream::connect(addr).expect("connect");

    // Liveness.
    assert_eq!(send_line(&mut conn, "\"Ping\""), Response::Pong);

    // A malformed line is answered, not dropped.
    assert!(matches!(
        send_line(&mut conn, "{nope}"),
        Response::Error { .. }
    ));

    // A bad submit gets a typed rejection.
    let bad = r#"{"Submit":{"tenant":"t0","model":"tiny","ir":"","min_accuracy":0.0,"device":"toaster","scenario":"4G indoor static","requests":2,"seed":3,"faults":""}}"#;
    match send_line(&mut conn, bad) {
        Response::Rejected { reason, .. } => assert_eq!(reason, "rejected:bad-request"),
        other => panic!("expected Rejected, got {other:?}"),
    }

    // A well-formed submit runs to a terminal outcome.
    let ok = r#"{"Submit":{"tenant":"t0","model":"tiny","ir":"","min_accuracy":0.0,"device":"phone","scenario":"4G indoor static","requests":2,"seed":3,"faults":""}}"#;
    match send_line(&mut conn, ok) {
        Response::Done {
            outcome, requests, ..
        } => {
            assert_eq!(requests, 2);
            assert!(matches!(
                outcome.as_str(),
                "ok" | "retried" | "degraded" | "failed"
            ));
        }
        other => panic!("expected Done, got {other:?}"),
    }

    // Drain: acknowledged, then the server refuses new work and exits.
    match send_line(&mut conn, "\"Drain\"") {
        Response::Draining { .. } => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    server_thread
        .join()
        .expect("server thread")
        .expect("listener io");

    let stats = server.live_stats();
    assert_eq!(stats.admitted, 1);
    assert!(server.is_draining());
}

#[test]
fn submits_after_drain_are_shed() {
    let server = Server::new(ServerConfig::default());
    server.begin_drain();
    let spec = cadmc_serve::SessionSpec {
        tenant: "late".to_string(),
        model: cadmc_serve::ModelSource::Zoo("tiny".to_string()),
        min_accuracy: 0.0,
        device: cadmc_latency::Platform::Phone,
        scenario: cadmc_netsim::Scenario::FourGIndoorStatic,
        requests: 1,
        seed: 1,
        faults: cadmc_netsim::FaultSchedule::none(),
    };
    match server.submit(spec, 0.0) {
        Err(reason) => assert_eq!(reason.label(), "shed:draining"),
        Ok(_) => panic!("draining server admitted a session"),
    }
}

/// Writes `len` bytes of one unterminated line, then a newline, from its
/// own thread: the server stops reading partway and closes, so the rest
/// of the write may fail.
fn send_long_line(stream: &TcpStream, len: usize) -> std::thread::JoinHandle<()> {
    let mut w = stream.try_clone().expect("clone");
    std::thread::spawn(move || {
        let _ = w.write_all(&vec![b'x'; len]);
        let _ = w.write_all(b"\n");
    })
}

const TWO_MIB: usize = 2 << 20;
const _: () = assert!(TWO_MIB > tcp::MAX_LINE);

#[test]
fn an_over_long_request_line_is_refused_and_the_next_connection_served() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let server_thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || tcp::serve(&server, listener))
    };

    let conn = TcpStream::connect(addr).expect("connect");
    let writer = send_long_line(&conn, TWO_MIB);
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read the refusal");
    match serde_json::from_str(&reply).expect("decodable response") {
        Response::Error { detail } => assert!(detail.contains("exceeds"), "{detail}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The server closed the connection after answering.
    let mut rest = String::new();
    assert!(matches!(reader.read_line(&mut rest), Ok(0) | Err(_)));
    writer.join().expect("writer thread");

    // A fresh connection is served as usual.
    let mut conn = TcpStream::connect(addr).expect("reconnect");
    assert_eq!(send_line(&mut conn, "\"Ping\""), Response::Pong);
    let ok = r#"{"Submit":{"tenant":"t0","model":"tiny","ir":"","min_accuracy":0.0,"device":"phone","scenario":"4G indoor static","requests":2,"seed":3,"faults":""}}"#;
    assert!(matches!(send_line(&mut conn, ok), Response::Done { .. }));
    assert!(matches!(
        send_line(&mut conn, "\"Drain\""),
        Response::Draining { .. }
    ));
    server_thread
        .join()
        .expect("server thread")
        .expect("listener io");
    assert_eq!(server.live_stats().admitted, 1);
}

#[test]
fn an_over_long_metrics_head_is_dropped_and_the_next_scrape_served() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("addr");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let metrics_thread = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        std::thread::spawn(move || tcp::serve_metrics(&server, listener, &stop))
    };

    let conn = TcpStream::connect(addr).expect("connect");
    let writer = send_long_line(&conn, TWO_MIB);
    let mut reply = String::new();
    let read = BufReader::new(conn.try_clone().expect("clone")).read_line(&mut reply);
    assert!(
        matches!(read, Ok(0) | Err(_)),
        "an over-long head must get no response, got {reply:?}"
    );
    writer.join().expect("writer thread");

    let mut conn = TcpStream::connect(addr).expect("reconnect");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    std::io::Read::read_to_string(&mut conn, &mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    tcp::unblock_metrics(addr);
    metrics_thread.join().expect("metrics thread");
}
