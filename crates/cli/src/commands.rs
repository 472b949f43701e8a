//! CLI subcommand implementations.

use cadmc_core::executor::{execute, ExecConfig, Mode, Policy};
use cadmc_core::experiments::{train_scene, Workload};
use cadmc_core::memo::MemoPool;
use cadmc_core::parallel::Parallelism;
use cadmc_core::search::{Controllers, SearchConfig};
use cadmc_core::{persist, validate};
use cadmc_core::{surgery, EvalEnv, NetworkContext};
use cadmc_latency::{Mbps, Platform};
use cadmc_netsim::{stats::trace_stats, FaultSchedule, Scenario};
use cadmc_nn::{zoo, ModelSpec};
use cadmc_telemetry::{report, Telemetry, TelemetryHandle};

use crate::args::Args;
use crate::error::CliError;

/// `cadmc help` text.
pub const HELP: &str = "\
cadmc — context-aware deep model compression for edge cloud computing

USAGE:
    cadmc <command> [--flag value ...]

COMMANDS:
    scenarios       list the evaluation network scenarios with statistics
    characterize    show a context's K=2 bandwidth levels and trace stats
                      --scenario <name> [--seed N]  (synthetic)
                      --trace <file.csv>            (recorded time_ms,mbps)
    train           run the offline phase and save the model tree as JSON
                      --model <vgg11|vgg16|alexnet|mobilenet|squeezenet>
                      --device <phone|tx2> --scenario <name> --out <file>
                      [--episodes N] [--seed N] [--workers N]
                      [--feature-actions]  (search cut-tensor bottleneck/
                      quantization knobs jointly with partition+compression)
    show            print a saved model tree's structure
                      --tree <file>
    emulate         stream requests against a saved tree (or baselines)
                      --tree <file> --model <name> --device <d>
                      --scenario <name> [--requests N] [--field true]
                      [--faults <preset|file.json>] [--deadline-ms MS]
                      [--max-retries N] [--out report.csv]
                      [--feature-actions]  (required to execute trees that
                      carry cut-tensor feature-compression actions)
    plan            one-shot branch search vs surgery at a fixed bandwidth
                      --model <name> --device <d> --bandwidth <Mbps>
                      [--episodes N] [--seed N] [--workers N]
                      [--feature-actions]
    search          run the offline phase with sensible defaults (made for
                    tracing: `cadmc search --trace run.jsonl`)
                      [--model <name>] [--device <d>] [--scenario <name>]
                      [--episodes N] [--seed N] [--workers N] [--out file]
                      [--feature-actions]  (enlarged action space)
                      [--faults <preset|file.json>]  (post-search smoke:
                      fault-injected emulation of the trained tree)
    report          render a telemetry trace as a human-readable summary,
                    with critical-path and self-time hotspot analytics
                      cadmc report <trace.jsonl> [--top N] [--flame]
                      (--flame prints folded stacks for flamegraph tools)
    validate        audit a saved model tree (or a named model) against
                    every model-graph invariant
                      --tree <file> | --model <name>
    check           statically analyze an IR source file: syntax, shape
                    inference, chain/partition legality, lints
                      cadmc check <file.ir> [--json]
    emit-ir         write a named model as canonical IR text
                      --model <name> [--out <file>]
                      [--blocks N] [--levels a,b,...]
                      [--bottleneck <2|4>] [--quant <8|4>]
    export-trace    write a scenario's synthesized trace as time_ms,mbps CSV
                      --scenario <name> --out <file> [--seed N]
    serve           multi-tenant serving core with admission control,
                    backpressure and per-session graceful degradation.
                    Default: a deterministic chaos schedule (overload x
                    faults) in virtual time, printing the outcome log
                      [--sessions N] [--tenants N] [--overload X]
                      [--faults <preset>] [--requests N] [--seed N]
                      [--drain-at-ms MS]
                      [--slots N] [--queue N] [--rate R] [--burst N]
                      [--quota N] [--episodes N] [--deadline-ms MS]
                      [--feature-actions]  (per-session searches explore
                      cut-tensor feature compression)
                    Observability (both modes): [--slo-p99-ms MS]
                      [--slo-availability F] [--slo-window-ms MS]
                      [--slo-burn-threshold X] [--slo-min-events N]
                      [--slo-breaker-hook B]
                    Live mode: --listen <addr> serves the line-delimited
                    JSON protocol over TCP until a client sends \"Drain\";
                    \"Stats\" returns a live metrics snapshot, and
                    --metrics-listen <addr> adds a Prometheus-style text
                    exposition endpoint
    help            this text

Anywhere a --model flag takes a zoo name (vgg11, vgg16, alexnet,
mobilenet, squeezenet, tiny), a path to a checked IR file (*.ir) is
accepted too.

Scenario names are the paper's: \"4G (weak) indoor\", \"4G indoor static\",
\"4G indoor slow\", \"4G outdoor quick\", \"WiFi (weak) indoor\",
\"WiFi (weak) outdoor\", \"WiFi outdoor slow\".

Fault presets for --faults: none, outage, collapse, rtt-spike,
stale-estimate, harsh — or a FaultSchedule JSON file.

TELEMETRY (any command except characterize/report):
    --trace <file.jsonl>   write a structured span/metric trace
    --metrics true         print an end-of-run summary to stderr
    CADMC_TRACE=<file>     environment fallback for --trace
";

/// Dispatches a parsed invocation.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, bad flags, invalid
/// inputs or failing I/O.
pub fn run(args: &Args) -> Result<(), CliError> {
    if !matches!(args.command.as_str(), "report" | "check") {
        if let Some(extra) = args.positionals().first() {
            return Err(CliError::Usage(format!("unexpected argument {extra:?}")));
        }
    }
    let handle = telemetry_setup(args)?;
    let result = dispatch(args);
    if let Some(handle) = handle {
        handle.finish()?;
    }
    result
}

fn dispatch(args: &Args) -> Result<(), CliError> {
    match args.command.as_str() {
        "scenarios" => scenarios(args),
        "characterize" => characterize(args),
        "train" => train(args),
        "show" => show(args),
        "emulate" => emulate(args),
        "plan" => plan(args),
        "search" => search(args),
        "report" => report_cmd(args),
        "validate" => validate_cmd(args),
        "check" => check_cmd(args),
        "emit-ir" => emit_ir_cmd(args),
        "export-trace" => export_trace(args),
        "serve" => serve_cmd(args),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?} (try `cadmc help`)"
        ))),
    }
}

/// Installs a telemetry session when `--trace`, `--metrics` or the
/// `CADMC_TRACE` environment variable asks for one. `characterize` keeps
/// its pre-existing `--trace` flag as a *CSV input*, and `report` reads
/// traces rather than producing them, so both are exempt.
fn telemetry_setup(args: &Args) -> Result<Option<TelemetryHandle>, CliError> {
    if matches!(args.command.as_str(), "characterize" | "report") {
        return Ok(None);
    }
    let trace_path = args
        .get("trace")
        .map(str::to_owned)
        .or_else(|| std::env::var("CADMC_TRACE").ok().filter(|v| !v.is_empty()));
    let metrics: bool = args.get_or("metrics", false)?;
    if trace_path.is_none() && !metrics {
        return Ok(None);
    }
    let mut builder = Telemetry::builder()
        .with_meta("command", &args.command)
        .with_meta("schema", report::SCHEMA_VERSION);
    if let Some(path) = &trace_path {
        builder = builder.with_jsonl(path);
    }
    if metrics {
        builder = builder.with_summary_stderr();
    }
    let handle = builder.install()?;
    if let Some(path) = trace_path {
        eprintln!("tracing to {path}");
    }
    Ok(Some(handle))
}

fn model_by_name(name: &str) -> Result<ModelSpec, CliError> {
    if name.ends_with(".ir") {
        return Ok(load_ir_model(name)?.into_spec());
    }
    Ok(match name.to_ascii_lowercase().as_str() {
        "vgg11" => zoo::vgg11_cifar(),
        "vgg16" => zoo::vgg16_cifar(),
        "alexnet" => zoo::alexnet_cifar(),
        "mobilenet" => zoo::mobilenet_cifar(),
        "squeezenet" => zoo::squeezenet_cifar(),
        "tiny" => zoo::tiny_cnn(),
        other => return Err(CliError::Usage(format!("unknown model {other:?}"))),
    })
}

/// Loads and statically checks an IR source file. Diagnostics (including
/// warnings on an otherwise clean file) render to stderr in rustc style;
/// any error-severity finding aborts with [`CliError::IrCheck`].
fn load_ir_model(path: &str) -> Result<cadmc_ir::CheckedModel, CliError> {
    let src = std::fs::read_to_string(path)?;
    let out = cadmc_ir::check_source(&src);
    if !out.diagnostics.is_empty() {
        eprint!("{}", out.render_text(path, &src));
    }
    match out.model {
        Some(model) => Ok(model),
        None => Err(CliError::IrCheck {
            file: path.to_string(),
            errors: out
                .diagnostics
                .iter()
                .filter(|d| d.severity == cadmc_ir::Severity::Error)
                .count(),
        }),
    }
}

/// `cadmc check <file.ir> [--json]`: run the full static-analysis
/// pipeline and render every diagnostic (text or JSON lines).
fn check_cmd(args: &Args) -> Result<(), CliError> {
    let path = args
        .positionals()
        .first()
        .map(String::as_str)
        .ok_or_else(|| {
            CliError::Usage("check needs an IR file: cadmc check <file.ir>".to_string())
        })?;
    let json: bool = args.get_or("json", false)?;
    let src = std::fs::read_to_string(path)?;
    let out = cadmc_ir::check_source(&src);
    if json {
        print!("{}", out.render_json(path, &src));
    } else {
        print!("{}", out.render_text(path, &src));
    }
    match out.model {
        Some(model) => {
            if !json {
                let spec = model.spec();
                println!(
                    "ok: {path} — model {} ({} layers, input {:?}, hash {:016x})",
                    spec.name(),
                    spec.len(),
                    spec.input_shape(),
                    model.ir_hash()
                );
            }
            Ok(())
        }
        None => Err(CliError::IrCheck {
            file: path.to_string(),
            errors: out
                .diagnostics
                .iter()
                .filter(|d| d.severity == cadmc_ir::Severity::Error)
                .count(),
        }),
    }
}

/// `cadmc emit-ir --model <name> [--out file] [--blocks N] [--levels a,b]
/// [--bottleneck N] [--quant N]`:
/// canonical IR emission of a zoo model (or re-emission of an IR file).
fn emit_ir_cmd(args: &Args) -> Result<(), CliError> {
    let model = model_by_name(args.require("model")?)?;
    let blocks: Option<usize> = match args.get("blocks") {
        Some(v) => Some(v.parse().map_err(|_| CliError::Usage(
            "invalid --blocks".to_string(),
        ))?),
        None => None,
    };
    let levels: Option<Vec<f64>> = match args.get("levels") {
        Some(v) => Some(
            v.split(',')
                .map(|p| p.trim().parse::<f64>())
                .collect::<Result<_, _>>()
                .map_err(|_| CliError::Usage("invalid --levels".to_string()))?,
        ),
        None => None,
    };
    let bottleneck: Option<u32> = match args.get("bottleneck") {
        Some(v) => Some(v.parse().map_err(|_| CliError::Usage(
            "invalid --bottleneck (expected a channel divisor, 2 or 4)".to_string(),
        ))?),
        None => None,
    };
    let quant: Option<u32> = match args.get("quant") {
        Some(v) => Some(v.parse().map_err(|_| CliError::Usage(
            "invalid --quant (expected a bit width, 8 or 4)".to_string(),
        ))?),
        None => None,
    };
    let text = cadmc_ir::emit_full(&model, blocks, levels.as_deref(), bottleneck, quant);
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &text)?;
            println!(
                "wrote {} ({} bytes, hash {:016x})",
                out,
                text.len(),
                cadmc_ir::ir_hash_full(&model, blocks, levels.as_deref(), bottleneck, quant)
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn device_by_name(name: &str) -> Result<Platform, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "phone" => Platform::Phone,
        "tx2" => Platform::Tx2,
        other => return Err(CliError::Usage(format!("unknown device {other:?}"))),
    })
}

fn scenario_by_name(name: &str) -> Result<Scenario, CliError> {
    Scenario::ALL
        .into_iter()
        .find(|s| s.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            CliError::Usage(format!("unknown scenario {name:?} (see `cadmc scenarios`)"))
        })
}

fn scenarios(args: &Args) -> Result<(), CliError> {
    let seed: u64 = args.get_or("seed", 7)?;
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "Scenario", "mean", "std", "poor", "good", "outage %"
    );
    for s in Scenario::ALL {
        let trace = s.trace(seed);
        let st = trace_stats(&trace, 1000.0);
        let (poor, good) = trace.quartile_levels();
        println!(
            "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.1}%",
            s.name(),
            st.mean,
            st.std_dev,
            poor,
            good,
            st.outage_fraction * 100.0
        );
    }
    Ok(())
}

fn characterize(args: &Args) -> Result<(), CliError> {
    // Either a named synthetic scenario or a recorded CSV trace.
    if let Some(path) = args.get("trace") {
        let file = std::fs::File::open(path)?;
        let trace = cadmc_netsim::io::read_csv(std::io::BufReader::new(file))?;
        let st = trace_stats(&trace, 1000.0);
        let (poor, good) = trace.quartile_levels();
        println!("trace    : {path} ({} samples, {:.0} s)", trace.len(), trace.duration_ms() / 1000.0);
        println!("levels   : poor {poor:.2} Mbps / good {good:.2} Mbps");
        println!(
            "stats    : mean {:.2} | std {:.2} | cv {:.2} | max 1s swing {:.2} | outage {:.1}%",
            st.mean, st.std_dev, st.cv, st.max_window_swing, st.outage_fraction * 100.0
        );
        return Ok(());
    }
    let scenario = scenario_by_name(args.require("scenario")?)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let ctx = NetworkContext::from_scenario(scenario, 2, seed);
    let st = trace_stats(ctx.trace(), 1000.0);
    println!("scenario : {}", scenario.name());
    println!("levels   : poor {:.2} Mbps / good {:.2} Mbps", ctx.levels()[0], ctx.levels()[1]);
    println!("median   : {:.2} Mbps", ctx.median_bandwidth());
    println!(
        "stats    : mean {:.2} | std {:.2} | cv {:.2} | max 1s swing {:.2} | outage {:.1}%",
        st.mean,
        st.std_dev,
        st.cv,
        st.max_window_swing,
        st.outage_fraction * 100.0
    );
    Ok(())
}

/// Rollout worker pool: `--workers N`, defaulting to the machine's
/// available parallelism. Purely a scheduling knob — results are
/// bit-identical for any value.
fn workers(args: &Args) -> Result<Parallelism, CliError> {
    Ok(match args.get("workers") {
        None => Parallelism::available(),
        Some(_) => Parallelism::new(args.get_or("workers", 1usize)?),
    })
}

fn train(args: &Args) -> Result<(), CliError> {
    let model = model_by_name(args.require("model")?)?;
    let device = device_by_name(args.require("device")?)?;
    let scenario = scenario_by_name(args.require("scenario")?)?;
    let out = args.require("out")?;
    let episodes: usize = args.get_or("episodes", 120)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let cfg = SearchConfig {
        episodes,
        seed,
        parallelism: workers(args)?,
        feature_actions: args.get_or("feature-actions", false)?,
        ..SearchConfig::default()
    };
    let w = Workload {
        model,
        device,
        scenario,
    };
    eprintln!("training {} ({episodes} episodes)...", w.label());
    let scene = train_scene(&w, &cfg, seed)?;
    persist::save_tree(&scene.tree.tree, out)?;
    println!(
        "saved model tree to {out}: {} nodes, {} branches, {:.2} MB edge storage",
        scene.tree.tree.nodes().len(),
        scene.tree.tree.branches().len(),
        scene.tree.tree.edge_storage_bytes() as f64 / 1e6
    );
    println!(
        "offline rewards: surgery {:.2} | branch {:.2} | tree(best branch) {:.2}",
        scene.surgery.evaluation.reward,
        scene.branch_reward,
        scene.tree.best_branch_reward
    );
    Ok(())
}

fn show(args: &Args) -> Result<(), CliError> {
    let tree = persist::load_tree(args.require("tree")?)?;
    println!(
        "model tree over {} — N = {} blocks, K = {} levels ({:?} Mbps)",
        tree.base().name(),
        tree.n_blocks(),
        tree.k(),
        tree.levels()
    );
    for (id, node) in tree.nodes().iter().enumerate() {
        let placement = match node.partition_abs {
            Some(0) => "offload everything".to_string(),
            Some(abs) => format!("cut before layer {abs}"),
            None => "stays on edge".to_string(),
        };
        let acts: Vec<String> = node
            .actions
            .iter()
            .map(|a| format!("{}@{}", a.technique.code(), a.layer_index))
            .collect();
        let feat = if node.feature.is_identity() {
            String::new()
        } else {
            format!(" | feature {}", node.feature.code())
        };
        println!(
            "  node {id}: level {} | {placement} | actions [{}]{feat} | children {:?}",
            node.level,
            acts.join(","),
            node.children
        );
    }
    for (i, path) in tree.branches().iter().enumerate() {
        let c = tree.compose_path(path);
        println!("  branch {i}: {:?} -> {}", path, c.summary());
    }
    Ok(())
}

fn emulate(args: &Args) -> Result<(), CliError> {
    let tree = persist::load_tree(args.require("tree")?)?;
    let features_used: Vec<String> = tree
        .nodes()
        .iter()
        .filter(|n| !n.feature.is_identity())
        .map(|n| n.feature.code())
        .collect();
    if !features_used.is_empty() && !args.get_or("feature-actions", false)? {
        return Err(CliError::Usage(format!(
            "tree carries feature-compression actions ({}); \
             pass --feature-actions to emulate it",
            features_used.join(", ")
        )));
    }
    let model = model_by_name(args.require("model")?)?;
    let device = device_by_name(args.require("device")?)?;
    let scenario = scenario_by_name(args.require("scenario")?)?;
    let requests: usize = args.get_or("requests", 150)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let field: bool = args.get_or("field", false)?;
    let env = EvalEnv::for_edge(device);
    let ctx = NetworkContext::from_scenario(scenario, 2, seed);
    let mut cfg = ExecConfig::new(
        requests,
        if field { Mode::Field } else { Mode::Emulation },
        seed,
    );
    cfg.faults = fault_schedule(args)?;
    cfg.deadline_ms = args
        .get("deadline-ms")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError::Usage("invalid --deadline-ms".to_string()))
        })
        .transpose()?;
    cfg.max_retries = args.get_or("max-retries", cfg.max_retries)?;
    let faulted = !cfg.faults.is_empty();
    let report = execute(&env, &model, &Policy::Tree(&tree), ctx.trace(), &cfg);
    let eval = report.evaluation(&env.reward);
    println!(
        "{} x{requests} requests ({}): mean {:.2} ms | p95 {:.2} ms | accuracy {:.2} % | reward {:.2}",
        scenario.name(),
        if field { "field" } else { "emulation" },
        report.mean_latency_ms(),
        report.p95_latency_ms(),
        report.mean_accuracy() * 100.0,
        eval.reward
    );
    if faulted {
        println!(
            "outcomes: ok {} | retried {} | degraded {} | failed {}",
            report.outcomes.len()
                - report.retried_count()
                - report.degraded_count()
                - report.failed_count(),
            report.retried_count(),
            report.degraded_count(),
            report.failed_count()
        );
    }
    if let Some(out) = args.get("out") {
        let file = std::fs::File::create(out)?;
        if faulted {
            report.write_csv_with_outcomes(std::io::BufWriter::new(file))?;
        } else {
            report.write_csv(std::io::BufWriter::new(file))?;
        }
        println!("wrote per-request timeline to {out}");
    }
    Ok(())
}

/// Parses `--faults <preset|file.json>` into a schedule. Absent flag (or
/// `none`) means no injected faults.
fn fault_schedule(args: &Args) -> Result<FaultSchedule, CliError> {
    let Some(v) = args.get("faults") else {
        return Ok(FaultSchedule::none());
    };
    if let Some(s) = FaultSchedule::from_preset(v) {
        return Ok(s);
    }
    if std::path::Path::new(v).exists() {
        let text = std::fs::read_to_string(v)?;
        return serde_json::from_str(&text)
            .map_err(|e| CliError::Usage(format!("invalid fault scenario {v}: {e}")));
    }
    Err(CliError::Usage(format!(
        "unknown fault scenario {v:?} (presets: none, outage, collapse, \
         rtt-spike, stale-estimate, harsh; or a FaultSchedule JSON file)"
    )))
}

fn validate_cmd(args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.get("tree") {
        // load_tree already audits every model-tree invariant; reaching
        // this point means the artifact passed.
        let tree = persist::load_tree(path)?;
        println!(
            "ok: {path} — {} over {} layers, N = {} blocks, K = {} levels, {} nodes, {} branches",
            tree.base().name(),
            tree.base().len(),
            tree.n_blocks(),
            tree.k(),
            tree.nodes().len(),
            tree.branches().len()
        );
        return Ok(());
    }
    let name = match args.get("model") {
        Some(m) => m,
        None => {
            return Err(CliError::Usage(
                "validate needs --tree <file> or --model <name>".to_string(),
            ))
        }
    };
    let model = model_by_name(name)?;
    validate::model_spec(&model)?;
    println!(
        "ok: model {} — {} layers, shape-consistent, input {:?} -> output {:?}",
        model.name(),
        model.len(),
        model.input_shape(),
        model.output_shape()
    );
    Ok(())
}

fn export_trace(args: &Args) -> Result<(), CliError> {
    let scenario = scenario_by_name(args.require("scenario")?)?;
    let out = args.require("out")?;
    let seed: u64 = args.get_or("seed", 7)?;
    let trace = scenario.trace(seed);
    let file = std::fs::File::create(out)?;
    cadmc_netsim::io::write_csv(&trace, std::io::BufWriter::new(file))?;
    println!(
        "wrote {} samples ({:.0} s at {:.0} ms) to {out}",
        trace.len(),
        trace.duration_ms() / 1000.0,
        trace.dt_ms()
    );
    Ok(())
}

/// `cadmc search`: the full offline phase on a default workload — the
/// quick way to produce a representative telemetry trace
/// (`cadmc search --trace run.jsonl && cadmc report run.jsonl`).
fn search(args: &Args) -> Result<(), CliError> {
    let model = model_by_name(args.get("model").unwrap_or("vgg11"))?;
    let device = device_by_name(args.get("device").unwrap_or("phone"))?;
    let scenario = scenario_by_name(args.get("scenario").unwrap_or("WiFi (weak) indoor"))?;
    let episodes: usize = args.get_or("episodes", 40)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let cfg = SearchConfig {
        episodes,
        seed,
        parallelism: workers(args)?,
        feature_actions: args.get_or("feature-actions", false)?,
        ..SearchConfig::default()
    };
    let w = Workload {
        model,
        device,
        scenario,
    };
    eprintln!("searching {} ({episodes} episodes)...", w.label());
    let scene = train_scene(&w, &cfg, seed)?;
    if let Some(out) = args.get("out") {
        persist::save_tree(&scene.tree.tree, out)?;
        println!("saved model tree to {out}");
    }
    println!(
        "offline rewards: surgery {:.2} | branch {:.2} | tree(best branch) {:.2}",
        scene.surgery.evaluation.reward,
        scene.branch_reward,
        scene.tree.best_branch_reward
    );
    if let Some(name) = args.get("faults") {
        let faults = fault_schedule(args)?;
        let mut ecfg = ExecConfig::emulation(60, seed).with_faults(faults);
        ecfg.max_retries = args.get_or("max-retries", ecfg.max_retries)?;
        let report = execute(
            &scene.env,
            &scene.workload.model,
            &Policy::Tree(&scene.tree.tree),
            &scene.test_trace,
            &ecfg,
        );
        println!(
            "fault-injected emulation ({name}): mean {:.2} ms | retried {} | degraded {} | failed {}",
            report.mean_latency_ms(),
            report.retried_count(),
            report.degraded_count(),
            report.failed_count()
        );
    }
    Ok(())
}

/// `cadmc report <trace.jsonl>`: validates the trace against the JSONL
/// schema and prints the human-readable run summary.
fn report_cmd(args: &Args) -> Result<(), CliError> {
    let path = args
        .positionals()
        .first()
        .map(String::as_str)
        .or_else(|| args.get("trace"))
        .ok_or_else(|| {
            CliError::Usage("report needs a trace file: cadmc report <trace.jsonl>".to_string())
        })?;
    let text = std::fs::read_to_string(path)?;
    let (run_report, skipped) = report::parse_jsonl_lenient(&text)?;
    if skipped > 0 {
        eprintln!(
            "warning: skipped {skipped} record line(s) of kinds unknown to this \
             schema-v{} reader",
            report::SCHEMA_VERSION
        );
    }
    if args.get_or("flame", false)? {
        // Folded stacks only: pipe straight into inferno/speedscope.
        print!("{}", report::folded_stacks(&run_report));
        return Ok(());
    }
    let top: usize = args.get_or("top", 10)?;
    print!("{}", report::render_summary(&run_report));
    print!("{}", report::render_analytics(&run_report, top));
    Ok(())
}

/// `cadmc serve`: the multi-tenant serving core. Without `--listen` it
/// runs a deterministic chaos schedule — an arrival burst at
/// `--overload ×` the admission capacity with a per-session fault
/// schedule — through the serial virtual-time scheduler and prints the
/// per-session outcome log (`--workers` changes nothing in it).
/// With `--listen <addr>` it serves the line-delimited JSON protocol
/// over TCP until a client sends `"Drain"`.
fn serve_cmd(args: &Args) -> Result<(), CliError> {
    let d = cadmc_serve::ServerConfig::default();
    let cfg = cadmc_serve::ServerConfig {
        slots: args.get_or("slots", d.slots)?,
        queue_capacity: args.get_or("queue", d.queue_capacity)?,
        rate_per_sec: args.get_or("rate", d.rate_per_sec)?,
        burst: args.get_or("burst", d.burst)?,
        tenant_quota: args.get_or("quota", d.tenant_quota)?,
        breaker_threshold: args.get_or("breaker-threshold", d.breaker_threshold)?,
        breaker_cooldown_ms: args.get_or("breaker-cooldown-ms", d.breaker_cooldown_ms)?,
        seed: args.get_or("seed", d.seed)?,
        episodes: args.get_or("episodes", d.episodes)?,
        tree_cache_capacity: args.get_or("tree-cache", d.tree_cache_capacity)?,
        deadline_ms: args
            .get("deadline-ms")
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| CliError::Usage("invalid --deadline-ms".to_string()))
            })
            .transpose()?,
        max_retries: args.get_or("max-retries", d.max_retries)?,
        backoff_ms: d.backoff_ms,
        think_time_ms: d.think_time_ms,
        slo_p99_ms: args.get_or("slo-p99-ms", d.slo_p99_ms)?,
        slo_availability: args.get_or("slo-availability", d.slo_availability)?,
        slo_window_ms: args.get_or("slo-window-ms", d.slo_window_ms)?,
        slo_burn_threshold: args.get_or("slo-burn-threshold", d.slo_burn_threshold)?,
        slo_min_events: args.get_or("slo-min-events", d.slo_min_events)?,
        slo_breaker_hook: args.get_or("slo-breaker-hook", d.slo_breaker_hook)?,
        feature_actions: args.get_or("feature-actions", false)?,
    };
    if let Some(addr) = args.get("listen") {
        let listener = std::net::TcpListener::bind(addr)?;
        println!(
            "cadmc serve listening on {} (send \"Drain\" to stop)",
            listener.local_addr()?
        );
        let server = std::sync::Arc::new(cadmc_serve::Server::new(cfg));
        // Optional Prometheus-style text endpoint, scraped over plain
        // HTTP while the protocol listener runs; stopped after drain.
        let metrics_listener = match args.get("metrics-listen") {
            Some(maddr) => {
                let l = std::net::TcpListener::bind(maddr)?;
                println!("metrics exposition on http://{}/metrics", l.local_addr()?);
                Some(l)
            }
            None => None,
        };
        let stop = std::sync::atomic::AtomicBool::new(false);
        let served = std::thread::scope(|scope| {
            let stop = &stop;
            let metrics_addr = match &metrics_listener {
                Some(l) => Some(l.local_addr()?),
                None => None,
            };
            if let Some(l) = metrics_listener {
                let server = std::sync::Arc::clone(&server);
                scope.spawn(move || cadmc_serve::tcp::serve_metrics(&server, l, stop));
            }
            let served = cadmc_serve::tcp::serve(&server, listener);
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            if let Some(addr) = metrics_addr {
                cadmc_serve::tcp::unblock_metrics(addr);
            }
            served
        });
        served?;
        let stats = server.live_stats();
        println!(
            "drained: admitted {} | shed {} | degraded {} | failed {} | drained {}",
            stats.admitted, stats.shed, stats.degraded, stats.failed, stats.drained
        );
        return Ok(());
    }
    let chaos = cadmc_serve::ChaosConfig {
        sessions: args.get_or("sessions", 24)?,
        tenants: args.get_or("tenants", 3)?,
        overload: args.get_or("overload", 2.0)?,
        faults: match args.get("faults") {
            Some(_) => fault_schedule(args)?,
            None => FaultSchedule::canned_outage(),
        },
        requests: args.get_or("requests", 16)?,
        seed: args.get_or("seed", 7)?,
    };
    let drain_at_ms: Option<f64> = args
        .get("drain-at-ms")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| CliError::Usage("invalid --drain-at-ms".to_string()))
        })
        .transpose()?;
    let server = cadmc_serve::Server::new(cfg);
    let arrivals = cadmc_serve::chaos_arrivals(&chaos, server.config());
    eprintln!(
        "chaos schedule: {} arrivals at {:.1}x capacity...",
        arrivals.len(),
        chaos.overload
    );
    let report = server.run_schedule(&arrivals, 1, drain_at_ms);
    print!("{}", report.log());
    println!(
        "summary: admitted {} | shed {} | degraded {} | failed {} | drained {} | queue watermark {}/{}",
        report.admitted,
        report.shed,
        report.degraded,
        report.failed,
        report.drained,
        report.queue_watermark,
        report.queue_capacity
    );
    // Deterministic observability snapshot, like the outcome log above.
    print!("{}", report.obs.metrics_log());
    Ok(())
}

fn plan(args: &Args) -> Result<(), CliError> {
    let model = model_by_name(args.require("model")?)?;
    let device = device_by_name(args.require("device")?)?;
    let bandwidth: f64 = args
        .require("bandwidth")?
        .parse()
        .map_err(|_| CliError::Usage("invalid --bandwidth".to_string()))?;
    let episodes: usize = args.get_or("episodes", 120)?;
    let seed: u64 = args.get_or("seed", 7)?;
    let env = EvalEnv::for_edge(device);
    let bw = Mbps(bandwidth);

    let s = surgery::plan(&model, &env, bw);
    println!(
        "surgery : {:<44} reward {:.2} ({:.1} ms)",
        s.candidate.summary(),
        s.evaluation.reward,
        s.evaluation.latency_ms
    );

    let cfg = SearchConfig {
        episodes,
        seed,
        parallelism: workers(args)?,
        feature_actions: args.get_or("feature-actions", false)?,
        ..SearchConfig::default()
    };
    let mut controllers = Controllers::new(&cfg);
    let memo = MemoPool::new();
    let outcome =
        cadmc_core::branch::optimal_branch(&mut controllers, &model, &env, bw, &cfg, &memo)?;
    println!(
        "branch  : {:<44} reward {:.2} ({:.1} ms)",
        outcome.best.summary(),
        outcome.best_eval.reward,
        outcome.best_eval.latency_ms
    );
    Ok(())
}
