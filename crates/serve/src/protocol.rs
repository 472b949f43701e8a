//! Line-delimited JSON wire protocol.
//!
//! Every message is one JSON value on one line (`\n`-terminated,
//! externally tagged — unit variants are bare strings):
//!
//! ```text
//! request  = submit | "Drain" | "Ping" | "Stats"
//! submit   = {"Submit": {"tenant": string, "model": string,
//!             "ir": string, "min_accuracy": number, "device": string,
//!             "scenario": string, "requests": integer, "seed": integer,
//!             "faults": string}}
//! response = {"Done": {...}} | {"Rejected": {...}} | {"Error": {...}}
//!          | {"Draining": {...}} | "Pong" | {"Stats": {...}}
//! ```
//!
//! In `Submit`, `model` names a zoo entry unless `ir` is non-empty, in
//! which case `ir` carries inline IR source and `model` is ignored.
//! `device` is `phone`/`tx2`, `scenario` a paper scenario name (e.g.
//! `"4G indoor static"`), `faults` a netsim preset (`none`, `outage`,
//! `collapse`, `rtt-spike`, `stale-estimate`, `harsh`) or empty for
//! none. Every field is required — the vendored serde has no defaulting.

use serde::{Deserialize, Serialize};

use cadmc_latency::Platform;
use cadmc_netsim::{FaultSchedule, Scenario};

use crate::session::{ModelSource, RejectReason, SessionSpec};

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit one session.
    Submit {
        /// Tenant the session is accounted against.
        tenant: String,
        /// Zoo model name (ignored when `ir` is non-empty).
        model: String,
        /// Inline IR source; empty means "use `model`".
        ir: String,
        /// Minimum acceptable branch accuracy.
        min_accuracy: f64,
        /// Edge device profile: `phone` or `tx2`.
        device: String,
        /// Bandwidth scenario name.
        scenario: String,
        /// Inference requests to stream.
        requests: u64,
        /// Session seed.
        seed: u64,
        /// Fault-schedule preset name, empty for none.
        faults: String,
    },
    /// Gracefully drain and shut down the server.
    Drain,
    /// Liveness probe.
    Ping,
    /// Live metrics snapshot request.
    Stats,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The session ran to a terminal outcome.
    Done {
        /// Server-assigned session id.
        session: u64,
        /// Terminal outcome label (`ok`/`retried`/`degraded`/`failed`).
        outcome: String,
        /// Requests executed.
        requests: u64,
        /// Mean request latency (ms).
        mean_latency_ms: f64,
        /// Mean request accuracy.
        mean_accuracy: f64,
        /// 95th-percentile request latency (ms).
        p95_latency_ms: f64,
    },
    /// The session was shed or rejected; `reason` is the typed label
    /// (`shed:*` may be retried later, `rejected:*` will not improve).
    Rejected {
        /// Typed reason label.
        reason: String,
        /// One-line human detail.
        detail: String,
    },
    /// The line could not be parsed as a request.
    Error {
        /// What was wrong.
        detail: String,
    },
    /// Drain acknowledged; the server stops accepting connections.
    Draining {
        /// Sessions that reached a terminal outcome during the drain.
        drained: u64,
    },
    /// Liveness reply.
    Pong,
    /// Live metrics snapshot: headline counters/gauges plus the full
    /// Prometheus-style exposition text (what `--metrics-listen`
    /// serves) so one reply carries everything a scraper needs.
    Stats {
        /// Sessions admitted.
        admitted: u64,
        /// Sessions shed or rejected.
        shed: u64,
        /// Sessions that ended `degraded`.
        degraded: u64,
        /// Sessions that ended `failed`.
        failed: u64,
        /// Sessions currently waiting for a slot.
        queue_depth: u64,
        /// Slots currently executing a session.
        slots_busy: u64,
        /// SLO breach transitions observed so far.
        slo_breaches: u64,
        /// Full text exposition (Prometheus conventions).
        exposition: String,
    },
}

/// Parses one protocol line.
///
/// # Errors
///
/// Returns a one-line description when the line is not a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str::<Request>(line.trim()).map_err(|e| e.to_string())
}

/// Encodes a response as one line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    serde_json::to_string(resp).unwrap_or_else(|_| {
        // The vendored serializer is total over derived types; this arm
        // exists for the io::Error signature only.
        "{\"Error\":{\"detail\":\"encode failure\"}}".to_string()
    })
}

/// Converts a `Submit` body into a typed [`SessionSpec`].
///
/// # Errors
///
/// Returns [`RejectReason::BadRequest`] for unknown device, scenario or
/// fault-preset names.
#[allow(clippy::too_many_arguments)]
pub fn submit_to_spec(
    tenant: &str,
    model: &str,
    ir: &str,
    min_accuracy: f64,
    device: &str,
    scenario: &str,
    requests: u64,
    seed: u64,
    faults: &str,
) -> Result<SessionSpec, RejectReason> {
    let device = match device.to_ascii_lowercase().as_str() {
        "phone" => Platform::Phone,
        "tx2" => Platform::Tx2,
        other => {
            return Err(RejectReason::BadRequest {
                detail: format!("unknown device {other:?} (phone|tx2)"),
            })
        }
    };
    let scenario = match Scenario::ALL
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(scenario))
    {
        Some(s) => s,
        None => {
            return Err(RejectReason::BadRequest {
                detail: format!("unknown scenario {scenario:?}"),
            })
        }
    };
    let fault_schedule = if faults.is_empty() {
        FaultSchedule::none()
    } else {
        match FaultSchedule::from_preset(faults) {
            Some(f) => f,
            None => {
                return Err(RejectReason::BadRequest {
                    detail: format!("unknown fault preset {faults:?}"),
                })
            }
        }
    };
    let model = if ir.is_empty() {
        ModelSource::Zoo(model.to_string())
    } else {
        ModelSource::Ir(ir.to_string())
    };
    let requests = usize::try_from(requests).unwrap_or(usize::MAX).clamp(1, 10_000);
    Ok(SessionSpec {
        tenant: tenant.to_string(),
        model,
        min_accuracy,
        device,
        scenario,
        requests,
        seed,
        faults: fault_schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_on_one_line() {
        let req = Request::Submit {
            tenant: "t0".to_string(),
            model: "tiny".to_string(),
            ir: String::new(),
            min_accuracy: 0.5,
            device: "phone".to_string(),
            scenario: "4G indoor static".to_string(),
            requests: 4,
            seed: 7,
            faults: "outage".to_string(),
        };
        let line = serde_json::to_string(&req).expect("encodes");
        assert!(!line.contains('\n'));
        assert_eq!(parse_request(&line).expect("parses"), req);
        assert_eq!(parse_request("\"Ping\"").expect("parses"), Request::Ping);
        assert_eq!(parse_request("\"Drain\"").expect("parses"), Request::Drain);
        assert!(parse_request("{nope}").is_err());
    }

    #[test]
    fn a_one_mebibyte_string_field_parses_in_linear_time() {
        // Multi-byte chars and escapes between long plain runs; the
        // quadratic parser took ~0.36 s on 128 KiB in release.
        let unit = format!("{}é\\n\\\"", "x".repeat(1000));
        let tenant = unit.repeat((1 << 20) / unit.len());
        let line = format!(
            r#"{{"Submit":{{"tenant":"{tenant}","model":"tiny","ir":"","min_accuracy":0.0,"device":"phone","scenario":"4G indoor static","requests":1,"seed":1,"faults":""}}}}"#
        );
        assert!(line.len() > 1000 * 1000 && line.len() <= 1 << 20);
        let start = std::time::Instant::now();
        let req = parse_request(&line).expect("parses");
        let elapsed = start.elapsed();
        match req {
            Request::Submit { tenant: t, .. } => {
                let units = t.chars().filter(|&c| c == 'é').count();
                assert_eq!(units, (1 << 20) / unit.len());
                assert!(t.ends_with("é\n\""), "escapes decoded");
            }
            other => panic!("expected Submit, got {other:?}"),
        }
        assert!(elapsed.as_secs_f64() < 2.0, "parse took {elapsed:?}");
    }

    #[test]
    fn response_roundtrips() {
        let resp = Response::Rejected {
            reason: "shed:rate".to_string(),
            detail: "shed:rate".to_string(),
        };
        let line = encode_response(&resp);
        let back: Response = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, resp);
        let pong = encode_response(&Response::Pong);
        assert_eq!(pong, "\"Pong\"");
    }

    #[test]
    fn stats_roundtrips_with_multiline_exposition() {
        assert_eq!(parse_request("\"Stats\"").expect("parses"), Request::Stats);
        let resp = Response::Stats {
            admitted: 3,
            shed: 1,
            degraded: 0,
            failed: 0,
            queue_depth: 2,
            slots_busy: 1,
            slo_breaches: 0,
            exposition: "# TYPE cadmc_queue_depth gauge\ncadmc_queue_depth 2\n".to_string(),
        };
        let line = encode_response(&resp);
        assert!(!line.contains('\n'), "exposition newlines must be escaped");
        let back: Response = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, resp);
    }

    #[test]
    fn submit_to_spec_validates_names() {
        let ok = submit_to_spec("t", "tiny", "", 0.0, "phone", "4G indoor static", 3, 1, "");
        assert!(ok.is_ok());
        let bad_dev = submit_to_spec("t", "tiny", "", 0.0, "toaster", "4G indoor static", 3, 1, "");
        assert!(matches!(bad_dev, Err(RejectReason::BadRequest { .. })));
        let bad_scn = submit_to_spec("t", "tiny", "", 0.0, "phone", "5G moonbase", 3, 1, "");
        assert!(bad_scn.is_err());
        let bad_preset =
            submit_to_spec("t", "tiny", "", 0.0, "phone", "4G indoor static", 3, 1, "warp");
        assert!(bad_preset.is_err());
        // Zero requests clamp to one.
        let clamped = submit_to_spec("t", "tiny", "", 0.0, "phone", "4G indoor static", 0, 1, "")
            .expect("ok");
        assert_eq!(clamped.requests, 1);
    }
}
