//! `serve-hot` and `serve-churn`: served sessions from `Submit` to
//! `Done` over loopback TCP against an in-process `cadmc_serve::tcp::serve`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use cadmc_core::NetworkContext;
use cadmc_serve::protocol::{encode_response, parse_request, submit_to_spec};
use cadmc_serve::server::LiveCompletion;
use cadmc_serve::{Request, Response, Server, ServerConfig, SessionSpec};
use cadmc_telemetry as telemetry;

use crate::gen::{cnn_ir, cnn_widths, Rng, Zipf};
use crate::stats::{median, Outcome, Tally};
use crate::{Args, Report};

/// Requests streamed per session.
const REQUESTS: u64 = 16;
/// Bandwidth levels every served context uses: a copy of the server's
/// private constant (`resolve` discretizes each scenario into this
/// many). `bench.netsim.context` replicates `resolve`'s context build
/// with it, so it must follow the server's value.
const CONTEXT_LEVELS: usize = 2;
/// Set-ups before the first session; `measure` adds more between the
/// measured chunks.
const SETUP_REPS: usize = 11;
/// Chunks the measured phase is cut into, and set-ups run after each.
const CHUNKS: usize = 10;
const SETUPS_PER_CHUNK: usize = 2;
/// Length of each connection's seeded key sequence, which it cycles
/// through.
const SEQUENCE: usize = 2000;
const WARMUP_S: f64 = 1.0;
/// Sessions in each in-process phase of a traced run.
const TRACED_SESSIONS_HOT: usize = 3000;
const TRACED_SESSIONS_CHURN: usize = 600;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    Churn,
}

/// One cache key's session: the wire line the client sends and the
/// typed spec the server derives from it.
struct Key {
    label: String,
    ir: String,
    line: String,
    spec: SessionSpec,
}

/// The fields of a `Done` that depend on the session's spec and tree
/// (everything but the server-assigned session id).
#[derive(Debug, Clone, PartialEq)]
struct DoneView {
    outcome: String,
    requests: u64,
    mean_latency_ms: f64,
    mean_accuracy: f64,
    p95_latency_ms: f64,
}

enum Reply {
    Done(DoneView),
    Shed,
    Rejected,
    Error,
}

fn parse_reply(line: &str) -> Reply {
    match serde_json::from_str::<Response>(line.trim()) {
        Ok(Response::Done {
            outcome,
            requests,
            mean_latency_ms,
            mean_accuracy,
            p95_latency_ms,
            ..
        }) => Reply::Done(DoneView {
            outcome,
            requests,
            mean_latency_ms,
            mean_accuracy,
            p95_latency_ms,
        }),
        Ok(Response::Rejected { reason, .. }) if reason.starts_with("shed:") => Reply::Shed,
        Ok(Response::Rejected { .. }) => Reply::Rejected,
        _ => Reply::Error,
    }
}

/// The `Done` the TCP front-end would send for an in-process completion.
fn done_response(c: &LiveCompletion) -> Response {
    Response::Done {
        session: c.session,
        outcome: c.outcome.label.to_string(),
        requests: c.outcome.report.latencies_ms.len() as u64,
        mean_latency_ms: c.outcome.report.mean_latency_ms(),
        mean_accuracy: c.outcome.report.mean_accuracy(),
        p95_latency_ms: c.outcome.report.p95_latency_ms(),
    }
}

fn classify(line: &str, expected: &DoneView) -> Outcome {
    match parse_reply(line) {
        Reply::Done(v) if v == *expected => Outcome::Done,
        Reply::Done(_) => Outcome::Wrong,
        Reply::Shed => Outcome::Shed,
        Reply::Rejected => Outcome::Rejected,
        Reply::Error => Outcome::Error,
    }
}

fn make_key(
    label: String,
    model: &str,
    ir: String,
    device: &str,
    scenario: &str,
    seed: u64,
    tenant: &str,
) -> Result<Key, String> {
    let req = Request::Submit {
        tenant: tenant.to_string(),
        model: model.to_string(),
        ir: ir.clone(),
        min_accuracy: 0.0,
        device: device.to_string(),
        scenario: scenario.to_string(),
        requests: REQUESTS,
        seed,
        faults: String::new(),
    };
    let mut line = serde_json::to_string(&req).map_err(|e| e.to_string())?;
    line.push('\n');
    let spec = submit_to_spec(
        tenant, model, &ir, 0.0, device, scenario, REQUESTS, seed, "",
    )
    .map_err(|e| format!("{label}: {e}"))?;
    Ok(Key {
        label,
        ir,
        line,
        spec,
    })
}

/// The workload's key set, draw distribution and server config.
struct Inputs {
    /// Keys in popularity-rank order.
    keys: Vec<Key>,
    /// Key draw: Zipf over ranks (`serve-churn`), or uniform.
    zipf: Option<Zipf>,
    cfg: ServerConfig,
}

impl Inputs {
    /// `n` seeded key draws.
    fn sequence(&self, seed: u64, salt: u64, n: usize) -> Vec<usize> {
        let mut rng = Rng::new(seed, salt);
        (0..n)
            .map(|_| match &self.zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.below(self.keys.len()),
            })
            .collect()
    }
}

const SCENARIOS: [&str; 7] = [
    "4G (weak) indoor",
    "4G indoor static",
    "4G indoor slow",
    "4G outdoor quick",
    "WiFi (weak) indoor",
    "WiFi (weak) outdoor",
    "WiFi outdoor slow",
];

fn server_config() -> ServerConfig {
    // Defaults, except admission sized so nothing sheds at two
    // connections.
    ServerConfig {
        queue_capacity: 64,
        rate_per_sec: 1e9,
        burst: 1 << 30,
        tenant_quota: 1 << 30,
        ..ServerConfig::default()
    }
}

fn inputs(mode: Mode, seed: u64) -> Result<Inputs, String> {
    let cfg = server_config();
    let mut rng = Rng::new(seed, 1);
    match mode {
        Mode::Hot => {
            let fixed = [
                ("alexnet", "phone", "4G indoor static"),
                ("vgg11", "phone", "WiFi (weak) indoor"),
                ("mobilenet", "tx2", "WiFi (weak) outdoor"),
            ];
            let keys = fixed
                .iter()
                .enumerate()
                .map(|(i, (m, d, s))| {
                    let session_seed = rng.next_u64() >> 16;
                    make_key(
                        format!("{m}/{d}/{s}"),
                        m,
                        String::new(),
                        d,
                        s,
                        session_seed,
                        &format!("tenant-{i}"),
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            assert!(
                keys.len() <= cfg.tree_cache_capacity,
                "hot keys must fit the cache"
            );
            Ok(Inputs {
                zipf: None,
                keys,
                cfg,
            })
        }
        Mode::Churn => {
            // Zoo × scenario keys are fixed; the inline-IR keys are
            // seeded width variants on fixed scenarios. Ranks alternate
            // zoo and IR so that both halves are hits and misses under
            // any seed.
            let zoo = [
                ("alexnet", "phone", "4G indoor static"),
                ("vgg11", "phone", "WiFi (weak) indoor"),
                ("squeezenet", "phone", "4G indoor slow"),
                ("mobilenet", "tx2", "WiFi outdoor slow"),
                ("tiny", "phone", "4G outdoor quick"),
                ("alexnet", "tx2", "WiFi (weak) outdoor"),
            ];
            let n = 3 * cfg.tree_cache_capacity;
            let mut keys = Vec::with_capacity(n);
            let mut hashes = Vec::new();
            while keys.len() < n {
                let i = keys.len();
                let session_seed = rng.next_u64() >> 16;
                let tenant = format!("tenant-{}", i % 3);
                if i % 2 == 0 {
                    let (m, d, sc) = zoo[(i / 2) % zoo.len()];
                    keys.push(make_key(
                        format!("{m}/{d}/{sc}"),
                        m,
                        String::new(),
                        d,
                        sc,
                        session_seed,
                        &tenant,
                    )?);
                    continue;
                }
                let (c1, c2, fc) = cnn_widths(&mut rng);
                let ir = cnn_ir(c1, c2, fc);
                let checked = cadmc_ir::check_source(&ir);
                let hash = match checked.model {
                    Some(m) if checked.diagnostics.is_empty() => m.ir_hash(),
                    _ => return Err(format!("generated IR {c1}/{c2}/{fc} does not check clean")),
                };
                if hashes.contains(&hash) {
                    continue;
                }
                hashes.push(hash);
                let sc = SCENARIOS[(i / 2) % SCENARIOS.len()];
                keys.push(make_key(
                    format!("ir[{c1},{c2},{fc}]/phone/{sc}"),
                    "",
                    ir,
                    "phone",
                    sc,
                    session_seed,
                    &tenant,
                )?);
            }
            let skew = 1.35 + 0.1 * rng.unit();
            Ok(Inputs {
                keys,
                zipf: Some(Zipf::new(n, skew)),
                cfg,
            })
        }
    }
}

/// Each key's reference `Done`, from a separate in-process server.
fn reference(inp: &Inputs) -> Result<Vec<DoneView>, String> {
    let server = Server::new(inp.cfg.clone());
    inp.keys
        .iter()
        .map(|k| match server.submit(k.spec.clone(), 0.0) {
            Ok(c) => match parse_reply(&encode_response(&done_response(&c))) {
                Reply::Done(v) if v.outcome == "ok" => Ok(v),
                _ => Err(format!("{}: reference session did not end ok", k.label)),
            },
            Err(e) => Err(format!("{}: reference session rejected: {e}", k.label)),
        })
        .collect()
}

/// Puts the top-ranked keys' trees into `server`'s cache, as many as it
/// holds.
fn warm(server: &Server, inp: &Inputs, refs: &[DoneView]) -> Result<(), String> {
    for (key, expected) in inp.keys.iter().zip(refs).take(inp.cfg.tree_cache_capacity) {
        let c = server
            .submit(key.spec.clone(), 0.0)
            .map_err(|e| format!("warm {}: {e}", key.label))?;
        if classify(&encode_response(&done_response(&c)), expected) != Outcome::Done {
            return Err(format!("warm {}: differs from the reference", key.label));
        }
    }
    Ok(())
}

/// A served instance: the server, its TCP front-end thread and address.
struct Live {
    server: Arc<Server>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start(inp: &Inputs, refs: &[DoneView]) -> Result<Live, String> {
    let server = Arc::new(Server::new(inp.cfg.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let s = Arc::clone(&server);
    let thread = std::thread::spawn(move || cadmc_serve::tcp::serve(&s, listener));
    warm(&server, inp, refs)?;
    Ok(Live {
        server,
        addr,
        thread,
    })
}

/// Drains the server over the wire and joins its front-end thread.
fn stop(live: Live) -> Result<(), String> {
    let mut conn = Conn::connect(live.addr).map_err(|e| format!("drain connect: {e}"))?;
    let reply = conn
        .call("\"Drain\"\n")
        .map_err(|e| format!("drain: {e}"))?;
    if !reply.contains("Draining") {
        return Err(format!("drain: unexpected reply {reply}"));
    }
    drop(conn);
    match live.thread.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server: {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            reader,
            writer,
            buf: String::new(),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(&self.buf)
    }
}

/// One TCP session: when it was sent and answered (seconds since the
/// run started) and how it ended.
#[derive(Debug, Clone, Copy)]
struct Rec {
    start: f64,
    end: f64,
    outcome: Outcome,
}

/// Closed loop: one connection per key sequence, each cycling through
/// its sequence and sending the next session when the last one
/// answers, until `end_s` seconds.
fn tcp_run(
    live: &Live,
    inp: &Inputs,
    refs: &[DoneView],
    seqs: &[Vec<usize>],
    end_s: f64,
) -> Result<Vec<Rec>, String> {
    let conns = seqs
        .iter()
        .map(|_| Conn::connect(live.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let per_thread: Vec<Vec<Rec>> = std::thread::scope(|sc| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(seqs)
            .map(|(mut conn, seq)| {
                sc.spawn(move || {
                    let mut recs = Vec::new();
                    for &k in seq.iter().cycle() {
                        let start = now();
                        if start >= end_s {
                            break;
                        }
                        let outcome = match conn.call(&inp.keys[k].line) {
                            Ok(line) => classify(line, &refs[k]),
                            Err(_) => Outcome::Error,
                        };
                        recs.push(Rec {
                            start,
                            end: now(),
                            outcome,
                        });
                        if outcome == Outcome::Error {
                            break;
                        }
                    }
                    recs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Ok(per_thread.into_iter().flatten().collect())
}

/// Warm-up and measured tallies, measured latencies (ms) and the
/// measured phase's wall time.
struct Split {
    warm: Tally,
    meas: Tally,
    lat_ms: Vec<f64>,
    wall_s: f64,
}

/// Runs the warm-up, then the measured phase of `measure_s` seconds in
/// `CHUNKS` chunks. After each chunk, with no session in
/// flight, the set-up runs `SETUPS_PER_CHUNK` more times on a fresh
/// server, timed into `setups` when given: the host's speed shifts
/// within a run, and set-ups spread over the run sample it as the
/// sessions do, where a block at the start sees only its first moment.
fn measure(
    live: &Live,
    inp: &Inputs,
    refs: &[DoneView],
    seqs: &[Vec<usize>],
    measure_s: f64,
    mut setups: Option<&mut Vec<f64>>,
) -> Result<Split, String> {
    let mut s = Split {
        warm: Tally::default(),
        meas: Tally::default(),
        lat_ms: Vec::new(),
        wall_s: 0.0,
    };
    for r in tcp_run(live, inp, refs, seqs, WARMUP_S)? {
        s.warm.add(r.outcome);
    }
    for _ in 0..CHUNKS {
        let recs = tcp_run(live, inp, refs, seqs, measure_s / CHUNKS as f64)?;
        for r in &recs {
            s.meas.add(r.outcome);
            s.lat_ms.push((r.end - r.start) * 1e3);
        }
        s.wall_s += recs.iter().fold(0.0_f64, |a, r| a.max(r.end));
        if let Some(setups) = setups.as_deref_mut() {
            for _ in 0..SETUPS_PER_CHUNK {
                let t = Instant::now();
                let extra = start(inp, refs)?;
                setups.push(t.elapsed().as_secs_f64());
                stop(extra)?;
            }
        }
    }
    Ok(s)
}

/// Plan quality of the sessions the key sequences send: every `Done` is
/// checked equal to its key's reference, so this is the mean over the
/// executed plans, fixed by the seed rather than by how many sessions a
/// run fits.
fn plan(seqs: &[Vec<usize>], refs: &[DoneView]) -> (f64, f64) {
    let n = seqs.iter().map(Vec::len).sum::<usize>() as f64;
    let lat = seqs
        .iter()
        .flatten()
        .map(|&k| refs[k].mean_latency_ms)
        .sum::<f64>();
    let acc = seqs
        .iter()
        .flatten()
        .map(|&k| refs[k].mean_accuracy)
        .sum::<f64>();
    (lat / n, acc / n)
}

pub fn run(args: &Args, mode: Mode) -> Result<Report, String> {
    let mut r = Report::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let inp = inputs(mode, args.seed)?;
    let refs = reference(&inp)?;
    // Set-up is the program's: constructing the server, binding the
    // listener and warming the cache. The reference run above is the
    // benchmark's check and is not timed.
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..reps {
        let t = Instant::now();
        let live = start(&inp, &refs)?;
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            stop(live)?;
        } else {
            ready = Some(live);
        }
    }
    let live = ready.ok_or("no setup")?;
    for (k, key) in inp.keys.iter().enumerate() {
        let p = inp
            .zipf
            .as_ref()
            .map_or(1.0 / inp.keys.len() as f64, |z| z.prob(k));
        r.note(format!(
            "key {k:2} p={p:.4} {} -> plan latency {:.4} ms, accuracy {:.6}",
            key.label, refs[k].mean_latency_ms, refs[k].mean_accuracy
        ));
    }

    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let seqs: Vec<Vec<usize>> = (0..args.workers)
        .map(|c| inp.sequence(args.seed, 100 + c as u64, SEQUENCE))
        .collect();
    let cache0 = live.server.tree_cache().stats();
    let split = measure(
        &live,
        &inp,
        &refs,
        &seqs,
        measure_s,
        (!args.trace).then_some(&mut setups),
    );
    let cache = live.server.tree_cache().stats();
    let stats = live.server.live_stats();
    stop(live)?;
    let s = split?;
    let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
    r.note(format!(
        "server: admitted={} shed={} waiting_watermark={}; tree cache over the run: {hits} hits, {misses} misses (hit ratio {:.4})",
        stats.admitted,
        stats.shed,
        stats.waiting_watermark,
        hits as f64 / (hits + misses).max(1) as f64
    ));
    r.phase("warmup", s.warm);
    r.phase("measured", s.meas);

    if !args.trace {
        r.end_to_end(
            &setups,
            &s.lat_ms,
            1,
            s.meas.done,
            s.wall_s,
            plan(&seqs, &refs),
        );
        return Ok(r);
    }

    // Traced run: the same generated sessions through in-process
    // `Server::submit`, untraced then traced, each on a fresh server
    // warmed like the TCP one.
    let n = match mode {
        Mode::Hot => TRACED_SESSIONS_HOT,
        Mode::Churn => TRACED_SESSIONS_CHURN,
    };
    let list: Vec<usize> = seqs
        .iter()
        .flat_map(|q| &q[..n / seqs.len()])
        .copied()
        .collect();
    let (untraced, u_wall, u_submit_us) =
        inproc_run(&warmed(&inp, &refs)?, &inp, &refs, &list, args.workers);
    r.phase("untraced", untraced);
    let meta = vec![
        ("untraced_ops".to_string(), untraced.sent.to_string()),
        ("untraced_wall_s".to_string(), u_wall.to_string()),
        (
            "tcp_p50_us".to_string(),
            (median(&s.lat_ms) * 1e3).to_string(),
        ),
        (
            "submit_p50_us".to_string(),
            median(&u_submit_us).to_string(),
        ),
    ];
    let server = warmed(&inp, &refs)?;
    let ((traced, _, _), trace) = crate::trace::record(args, meta, || {
        inproc_run(&server, &inp, &refs, &list, args.workers)
    })?;
    r.phase("traced", traced);
    let kind = match mode {
        Mode::Hot => crate::trace::Kind::ServeHot,
        Mode::Churn => crate::trace::Kind::ServeChurn,
    };
    crate::trace::per_layer(&trace, kind, 1, &mut r);
    Ok(r)
}

/// A fresh server with the warm keys' trees cached, as after setup.
fn warmed(inp: &Inputs, refs: &[DoneView]) -> Result<Server, String> {
    let server = Server::new(inp.cfg.clone());
    warm(&server, inp, refs)?;
    Ok(server)
}

/// Sends `list` (key indices) through in-process `Server::submit` with
/// `workers` closed-loop threads. Every session
/// also runs the client-side stages the traced run times on its own
/// inputs (protocol parse/encode, IR check, network context), so the
/// untraced and traced phases do identical work. Returns the tally, the
/// wall time and each `submit`'s latency (µs).
fn inproc_run(
    server: &Server,
    inp: &Inputs,
    refs: &[DoneView],
    list: &[usize],
    workers: usize,
) -> (Tally, f64, Vec<f64>) {
    let cache0 = server.tree_cache().stats();
    let (memo_h0, memo_m0) = (server.memo().hits(), server.memo().misses());
    let shed0 = server.live_stats().shed;
    let region = telemetry::open_region();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let results: Vec<(Tally, Vec<f64>)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..workers)
            .map(|c| {
                let next = &next;
                sc.spawn(move || {
                    telemetry::in_stream(region, c as u64 + 1, || {
                        let mut tally = Tally::default();
                        let mut submit_us = Vec::new();
                        while let Some(&k) = list.get(next.fetch_add(1, Ordering::SeqCst)) {
                            let t_ms = t0.elapsed().as_secs_f64() * 1e3;
                            tally.add(inproc_session(
                                server,
                                inp,
                                &refs[k],
                                k,
                                t_ms,
                                &mut submit_us,
                            ));
                        }
                        (tally, submit_us)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let cache = server.tree_cache().stats();
    telemetry::counter!("bench.tree_cache.hits", (cache.hits - cache0.hits) as u64);
    telemetry::counter!(
        "bench.tree_cache.misses",
        (cache.misses - cache0.misses) as u64
    );
    telemetry::counter!(
        "bench.tree_cache.evictions",
        (cache.evictions - cache0.evictions) as u64
    );
    telemetry::gauge!("bench.tree_cache.entries_start", cache0.entries as f64);
    telemetry::gauge!("bench.tree_cache.entries_end", cache.entries as f64);
    telemetry::counter!("bench.memo.hits", (server.memo().hits() - memo_h0) as u64);
    telemetry::counter!(
        "bench.memo.misses",
        (server.memo().misses() - memo_m0) as u64
    );
    telemetry::gauge!("bench.memo.entries", server.memo().len() as f64);
    let live = server.live_stats();
    telemetry::counter!("bench.admission.shed", (live.shed - shed0) as u64);
    telemetry::gauge!(
        "bench.admission.waiting_watermark",
        live.waiting_watermark as f64
    );
    let mut tally = Tally::default();
    let mut submit_us = Vec::new();
    for (t, us) in results {
        tally.merge(&t);
        submit_us.extend(us);
    }
    (tally, wall, submit_us)
}

fn inproc_session(
    server: &Server,
    inp: &Inputs,
    expected: &DoneView,
    k: usize,
    t_ms: f64,
    submit_us: &mut Vec<f64>,
) -> Outcome {
    let key = &inp.keys[k];
    let _op = telemetry::span!("bench.op");
    let parsed = {
        let _p = telemetry::span!("bench.protocol.parse");
        parse_request(&key.line)
    };
    if !matches!(parsed, Ok(Request::Submit { .. })) {
        return Outcome::Error;
    }
    if !key.ir.is_empty() {
        let _c = telemetry::span!("bench.ir.check");
        if !cadmc_ir::check_source(&key.ir).is_clean() {
            return Outcome::Error;
        }
    }
    {
        let _n = telemetry::span!("bench.netsim.context");
        let ctx = NetworkContext::from_scenario(key.spec.scenario, CONTEXT_LEVELS, inp.cfg.seed);
        std::hint::black_box(ctx.train_test_split());
    }
    let t = Instant::now();
    let res = {
        let _s = telemetry::span!("bench.submit");
        server.submit(key.spec.clone(), t_ms)
    };
    submit_us.push(t.elapsed().as_secs_f64() * 1e6);
    match res {
        Ok(c) => {
            let line = {
                let _e = telemetry::span!("bench.protocol.encode");
                encode_response(&done_response(&c))
            };
            classify(&line, expected)
        }
        Err(reason) if reason.is_shed() => Outcome::Shed,
        Err(_) => Outcome::Rejected,
    }
}
