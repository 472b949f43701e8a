//! In-process end-to-end tests of the CLI subcommands.

use cadmc_cli::args::Args;
use cadmc_cli::commands;

fn run(tokens: &[&str]) -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(tokens.iter().map(|s| s.to_string()))?;
    Ok(commands::run(&args)?)
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("cadmc-cli-test-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn scenarios_and_characterize_run() {
    run(&["scenarios"]).unwrap();
    run(&["characterize", "--scenario", "4G outdoor quick"]).unwrap();
}

#[test]
fn unknown_command_and_bad_inputs_error() {
    assert!(run(&["frobnicate"]).is_err());
    assert!(run(&["characterize", "--scenario", "5G lunar"]).is_err());
    assert!(run(&["train", "--model", "notanet", "--device", "phone", "--scenario", "4G indoor static", "--out", "/tmp/x"]).is_err());
    assert!(run(&["emulate", "--tree", "/nonexistent.json", "--model", "vgg11", "--device", "phone", "--scenario", "4G indoor static"]).is_err());
}

#[test]
fn train_show_emulate_pipeline() {
    let tree_path = tmp("tree.json");
    run(&[
        "train",
        "--model",
        "tiny",
        "--device",
        "phone",
        "--scenario",
        "WiFi (weak) indoor",
        "--episodes",
        "10",
        "--seed",
        "1",
        "--out",
        &tree_path,
    ])
    .unwrap();
    run(&["show", "--tree", &tree_path]).unwrap();
    run(&[
        "emulate",
        "--tree",
        &tree_path,
        "--model",
        "tiny",
        "--device",
        "phone",
        "--scenario",
        "WiFi (weak) indoor",
        "--requests",
        "20",
    ])
    .unwrap();
    run(&[
        "emulate",
        "--tree",
        &tree_path,
        "--model",
        "tiny",
        "--device",
        "phone",
        "--scenario",
        "WiFi (weak) indoor",
        "--requests",
        "20",
        "--field",
        "true",
    ])
    .unwrap();
    let _ = std::fs::remove_file(tree_path);
}

#[test]
fn export_and_reimport_trace() {
    let csv_path = tmp("trace.csv");
    run(&[
        "export-trace",
        "--scenario",
        "4G indoor slow",
        "--out",
        &csv_path,
    ])
    .unwrap();
    run(&["characterize", "--trace", &csv_path]).unwrap();
    let _ = std::fs::remove_file(csv_path);
}

/// One test fn for the whole traced-search → report round trip: telemetry
/// installs a process-global collector, so traced invocations must not
/// run concurrently with each other.
#[test]
fn traced_search_then_report() {
    let trace_path = tmp("run.jsonl");
    run(&[
        "search",
        "--model",
        "tiny",
        "--episodes",
        "12",
        "--seed",
        "3",
        "--workers",
        "2",
        "--trace",
        &trace_path,
    ])
    .unwrap();
    // Every line must pass strict schema validation, and the trace must
    // cover the span taxonomy end to end.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let report = cadmc_telemetry::report::parse_jsonl(&text).unwrap();
    let names: std::collections::HashSet<&str> =
        report.events.iter().map(|e| e.name.as_str()).collect();
    for required in [
        "scene.train",
        "scene.branch",
        "branch.search",
        "branch.episode",
        "tree.search",
        "compose.fork",
        "controller.epoch",
    ] {
        assert!(names.contains(required), "trace is missing {required:?}");
    }
    assert!(report.metrics.counter("memo.hits").is_some());
    // `report` renders the summary from the same artifact.
    run(&["report", &trace_path]).unwrap();
    // A second telemetry session must install cleanly after the first.
    let trace2 = tmp("run2.jsonl");
    run(&["plan", "--model", "tiny", "--device", "phone", "--bandwidth", "8", "--episodes", "8", "--trace", &trace2]).unwrap();
    assert!(std::fs::read_to_string(&trace2).unwrap().contains("branch.search"));
    let _ = std::fs::remove_file(trace_path);
    let _ = std::fs::remove_file(trace2);
}

#[test]
fn emulate_with_fault_presets_and_schedule_files() {
    let tree_path = tmp("fault-tree.json");
    run(&[
        "train",
        "--model",
        "tiny",
        "--device",
        "phone",
        "--scenario",
        "WiFi (weak) indoor",
        "--episodes",
        "10",
        "--seed",
        "1",
        "--out",
        &tree_path,
    ])
    .unwrap();
    // Preset schedule with degradation knobs; outcome CSV gains a column.
    let csv_path = tmp("fault-outcomes.csv");
    run(&[
        "emulate",
        "--tree",
        &tree_path,
        "--model",
        "tiny",
        "--device",
        "phone",
        "--scenario",
        "WiFi (weak) indoor",
        "--requests",
        "25",
        "--faults",
        "outage",
        "--deadline-ms",
        "120",
        "--max-retries",
        "3",
        "--out",
        &csv_path,
    ])
    .unwrap();
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("request,latency_ms,accuracy,outcome\n"));
    assert_eq!(csv.lines().count(), 26);
    // A schedule serialized to JSON round-trips through `--faults <file>`.
    let sched_path = tmp("fault-schedule.json");
    let schedule = cadmc_netsim::FaultSchedule::canned(cadmc_netsim::FaultKind::Collapse);
    std::fs::write(&sched_path, serde_json::to_string(&schedule).unwrap()).unwrap();
    run(&[
        "emulate",
        "--tree",
        &tree_path,
        "--model",
        "tiny",
        "--device",
        "phone",
        "--scenario",
        "WiFi (weak) indoor",
        "--requests",
        "15",
        "--faults",
        &sched_path,
    ])
    .unwrap();
    // An unknown preset (and non-existent file) is a usage error.
    assert!(run(&[
        "emulate",
        "--tree",
        &tree_path,
        "--model",
        "tiny",
        "--device",
        "phone",
        "--scenario",
        "WiFi (weak) indoor",
        "--faults",
        "solar-flare",
    ])
    .is_err());
    let _ = std::fs::remove_file(tree_path);
    let _ = std::fs::remove_file(csv_path);
    let _ = std::fs::remove_file(sched_path);
}

#[test]
fn search_with_faults_runs_degradation_smoke() {
    run(&[
        "search",
        "--model",
        "tiny",
        "--episodes",
        "10",
        "--seed",
        "5",
        "--faults",
        "canned-outage",
    ])
    .unwrap();
}

#[test]
fn plan_runs() {
    run(&[
        "plan",
        "--model",
        "alexnet",
        "--device",
        "phone",
        "--bandwidth",
        "10",
        "--episodes",
        "10",
    ])
    .unwrap();
}

#[test]
fn emit_ir_check_round_trip() {
    let ir_path = tmp("tiny.ir");
    run(&["emit-ir", "--model", "tiny", "--out", &ir_path]).unwrap();
    // The emitted file checks clean, in both render modes.
    run(&["check", &ir_path]).unwrap();
    run(&["check", &ir_path, "--json"]).unwrap();
    // Every subcommand taking --model accepts the IR file directly.
    run(&[
        "plan",
        "--model",
        &ir_path,
        "--device",
        "phone",
        "--bandwidth",
        "10",
        "--episodes",
        "5",
    ])
    .unwrap();
    let _ = std::fs::remove_file(&ir_path);
}

#[test]
fn check_rejects_malformed_ir() {
    let bad_path = tmp("bad.ir");
    std::fs::write(
        &bad_path,
        "model bad {\n  input (3, 8, 8)\n  layer c = conv(k=9, s=1, p=0, out=4) @class(3)\n}\n",
    )
    .unwrap();
    assert!(run(&["check", &bad_path]).is_err());
    // A failing IR file aborts any consuming subcommand too.
    assert!(run(&[
        "plan",
        "--model",
        &bad_path,
        "--device",
        "phone",
        "--bandwidth",
        "10"
    ])
    .is_err());
    assert!(run(&["check", "/nonexistent-model.ir"]).is_err());
    assert!(run(&["check"]).is_err());
    let _ = std::fs::remove_file(&bad_path);
}
