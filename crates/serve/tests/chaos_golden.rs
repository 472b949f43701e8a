//! Golden chaos replay log: a 96-session burst at 2× overload under the
//! canned outage, once undrained and once drained at arrival 40, must
//! keep producing the checked-in outcome log and metrics log byte for
//! byte. The 1/2/8-worker suites prove a run agrees with itself; this
//! golden proves the replay agrees with the one that produced the file.
//!
//! Regenerate intentionally with:
//! `UPDATE_CHAOS_GOLDEN=1 cargo test -p cadmc-serve --test chaos_golden`

use cadmc_serve::{chaos_arrivals, ChaosConfig, Server, ServerConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chaos_log.txt");

/// Both runs' `log()` and `metrics_log()`, each under a header line.
fn produced() -> String {
    let cfg = ServerConfig::default();
    let chaos = ChaosConfig {
        sessions: 96,
        ..ChaosConfig::default()
    };
    let arrivals = chaos_arrivals(&chaos, &cfg);
    let mut out = String::new();
    for (name, drain_at_ms) in [("undrained", None), ("drained", Some(arrivals[40].at_ms))] {
        let report = Server::new(cfg.clone()).run_schedule(&arrivals, 2, drain_at_ms);
        out.push_str(&format!("# run={name}\n"));
        out.push_str(&report.log());
        out.push_str(&report.obs.metrics_log());
    }
    out
}

#[test]
fn chaos_log_matches_checked_in_golden() {
    let produced = produced();
    if std::env::var("UPDATE_CHAOS_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &produced).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden log must be checked in (UPDATE_CHAOS_GOLDEN=1 to create)");
    assert_eq!(
        produced, golden,
        "chaos replay log drifted from the checked-in golden; if the change \
         is intentional regenerate with UPDATE_CHAOS_GOLDEN=1"
    );
}
