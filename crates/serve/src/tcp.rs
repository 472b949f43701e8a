//! `std::net` TCP front-end for the line-delimited JSON protocol.
//!
//! One thread per connection; each `Submit` runs synchronously through
//! [`Server::submit`] (the wall-clock live path — admission uses
//! milliseconds since the listener started). `Drain` stops admission,
//! waits for in-flight sessions to finish or degrade, acknowledges with
//! `Draining` and shuts the accept loop down. The TCP path is the
//! *live* surface; determinism claims belong to the virtual-time
//! scheduler ([`Server::run_schedule`](crate::Server::run_schedule)).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::protocol::{encode_response, parse_request, submit_to_spec, Request, Response};
use crate::server::Server;
use crate::session::RejectReason;

/// Serves connections on `listener` until a client sends `Drain`.
///
/// # Errors
///
/// Returns the listener's I/O error, if any; per-connection errors only
/// terminate that connection.
pub fn serve(server: &Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let stop = &stop;
            let server = Arc::clone(server);
            scope.spawn(move || {
                handle_connection(&server, stream, started, stop);
                if stop.load(Ordering::SeqCst) {
                    // Unblock the accept loop so it can observe `stop`.
                    let _ = TcpStream::connect(local);
                }
            });
        }
    });
    Ok(())
}

/// Runs one connection's request loop. I/O failures end the loop; they
/// are the peer's problem, not the server's.
fn handle_connection(server: &Server, stream: TcpStream, started: Instant, stop: &AtomicBool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(&line) {
            Err(detail) => Response::Error { detail },
            Ok(Request::Ping) => Response::Pong,
            Ok(Request::Stats) => {
                let stats = server.live_stats();
                Response::Stats {
                    admitted: stats.admitted as u64,
                    shed: stats.shed as u64,
                    degraded: stats.degraded as u64,
                    failed: stats.failed as u64,
                    queue_depth: stats.waiting as u64,
                    slots_busy: stats.active as u64,
                    slo_breaches: stats.slo_breaches as u64,
                    exposition: server.exposition(),
                }
            }
            Ok(Request::Drain) => {
                server.begin_drain();
                server.await_idle();
                stop.store(true, Ordering::SeqCst);
                Response::Draining {
                    drained: server.live_stats().drained as u64,
                }
            }
            Ok(Request::Submit {
                tenant,
                model,
                ir,
                min_accuracy,
                device,
                scenario,
                requests,
                seed,
                faults,
            }) => {
                let t_ms = started.elapsed().as_secs_f64() * 1_000.0;
                match submit_to_spec(
                    &tenant,
                    &model,
                    &ir,
                    min_accuracy,
                    &device,
                    &scenario,
                    requests,
                    seed,
                    &faults,
                ) {
                    Err(reason) => rejected(&reason),
                    Ok(spec) => match server.submit(spec, t_ms) {
                        Ok(done) => Response::Done {
                            session: done.session,
                            outcome: done.outcome.label.to_string(),
                            requests: done.outcome.report.latencies_ms.len() as u64,
                            mean_latency_ms: done.outcome.report.mean_latency_ms(),
                            mean_accuracy: done.outcome.report.mean_accuracy(),
                            p95_latency_ms: done.outcome.report.p95_latency_ms(),
                        },
                        Err(reason) => rejected(&reason),
                    },
                }
            }
        };
        let drain_ack = matches!(response, Response::Draining { .. });
        let mut line = encode_response(&response);
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() {
            break;
        }
        let _ = writer.flush();
        if drain_ack {
            break;
        }
    }
}

fn rejected(reason: &RejectReason) -> Response {
    Response::Rejected {
        reason: reason.label().to_string(),
        detail: reason.to_string(),
    }
}

/// Serves the Prometheus-style text exposition on `listener`: every
/// connection gets one `HTTP/1.1 200` response carrying
/// [`Server::exposition`] and is closed (curl-compatible, hand-rolled —
/// the request itself is drained up to its blank line and otherwise
/// ignored). Runs until `stop` is set; use [`unblock_metrics`] to nudge
/// the accept loop afterwards.
pub fn serve_metrics(server: &Arc<Server>, listener: TcpListener, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = write_exposition(server, stream);
    }
}

/// Connects once to a metrics listener so its accept loop can observe a
/// freshly-set stop flag.
pub fn unblock_metrics(addr: std::net::SocketAddr) {
    let _ = TcpStream::connect(addr);
}

fn write_exposition(server: &Server, stream: TcpStream) -> std::io::Result<()> {
    let Ok(read_half) = stream.try_clone() else {
        return Ok(());
    };
    // Drain the request head (GET line + headers) without trusting it.
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line.trim().is_empty() {
            break;
        }
    }
    let body = server.exposition();
    let mut writer = stream;
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}
