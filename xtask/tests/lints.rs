//! Negative-case tests: every lint class must fire on a seeded violation,
//! and must stay silent on the constructs it is designed to permit
//! (comments, strings, test code, keyed map access, seeded RNG).

use xtask::{
    apply_allowlist, mask_source, parse_allowlist, scan_source, test_line_mask, AllowlistError,
    Lint, MAX_ALLOWLIST_ENTRIES,
};

fn lints_of(rel: &str, src: &str) -> Vec<Lint> {
    scan_source(rel, src).into_iter().map(|v| v.lint).collect()
}

const CORE: &str = "crates/core/src/branch.rs";

// --- L1: panic hygiene -------------------------------------------------

#[test]
fn l1_fires_on_unwrap() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    assert_eq!(lints_of(CORE, src), vec![Lint::L1PanicSite]);
}

#[test]
fn l1_fires_on_expect_panic_unreachable_todo() {
    for line in [
        "x.expect(\"boom\")",
        "panic!(\"boom\")",
        "unreachable!(\"boom\")",
        "todo!()",
        "unimplemented!()",
    ] {
        let src = format!("fn f() {{\n    {line};\n}}\n");
        assert_eq!(lints_of(CORE, &src), vec![Lint::L1PanicSite], "{line}");
    }
}

#[test]
fn l1_allows_unwrap_or_family() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0) + x.unwrap_or_else(|| 1) + x.unwrap_or_default()\n}\n";
    assert!(lints_of(CORE, src).is_empty());
}

#[test]
fn l1_ignores_out_of_scope_crates() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lints_of("crates/cli/src/commands.rs", src).is_empty());
    assert!(lints_of("crates/bench/src/bin/report.rs", src).is_empty());
}

// --- L2: map iteration -------------------------------------------------

#[test]
fn l2_fires_on_hashmap_iter() {
    let src = "use std::collections::HashMap;\n\
               fn f() {\n\
                   let scores: HashMap<u64, f64> = HashMap::new();\n\
                   for (k, v) in scores.iter() { let _ = (k, v); }\n\
               }\n";
    let found = lints_of("crates/core/src/reward.rs", src);
    assert!(found.contains(&Lint::L2MapIteration), "{found:?}");
}

#[test]
fn l2_fires_on_for_loop_over_hashset() {
    let src = "fn f() {\n\
                   let seen: HashSet<u64> = HashSet::new();\n\
                   for k in &seen { let _ = k; }\n\
               }\n";
    let found = lints_of("crates/core/src/memo.rs", src);
    assert!(found.contains(&Lint::L2MapIteration), "{found:?}");
}

#[test]
fn l2_fires_on_keys_values_drain_retain() {
    for call in ["m.keys()", "m.values()", "m.drain()", "m.retain(|_, _| true)"] {
        let src = format!(
            "fn f() {{\n    let mut m: HashMap<u64, f64> = HashMap::new();\n    let _ = {call};\n}}\n"
        );
        let found = lints_of("crates/core/src/engine.rs", &src);
        assert!(found.contains(&Lint::L2MapIteration), "{call}: {found:?}");
    }
}

#[test]
fn l2_allows_keyed_access() {
    let src = "fn f() {\n\
                   let mut m: HashMap<u64, f64> = HashMap::new();\n\
                   m.insert(1, 2.5);\n\
                   let _ = m.get(&1);\n\
                   let _ = m.len();\n\
                   let _ = m.contains_key(&1);\n\
               }\n";
    assert!(lints_of("crates/core/src/memo.rs", src).is_empty());
}

#[test]
fn l2_not_fooled_by_vec_of_map_shards() {
    // A Vec *containing* maps may be iterated — Vec order is stable.
    let src = "struct Pool {\n\
                   shards: Vec<Mutex<HashMap<u64, f64>>>,\n\
               }\n\
               impl Pool {\n\
                   fn total(&self) -> usize {\n\
                       self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len()).sum()\n\
                   }\n\
               }\n";
    assert!(lints_of("crates/core/src/memo.rs", src).is_empty());
}

#[test]
fn l2_fires_on_gradient_norm_summed_over_map_values() {
    // The controllers' gradient norm: a float sum in hash order makes the
    // clipped optimizer step depend on the process's hash seed.
    let src = "pub struct Gradients {\n\
                   by_param: HashMap<ParamId, Matrix>,\n\
               }\n\
               impl Gradients {\n\
                   pub fn global_norm(&self) -> f32 {\n\
                       self.by_param.values().map(|m| m.frobenius_norm()).sum::<f32>()\n\
                   }\n\
               }\n";
    for file in ["crates/autodiff/src/graph.rs", "crates/autodiff/src/optim.rs"] {
        let found = lints_of(file, src);
        assert!(found.contains(&Lint::L2MapIteration), "{file}: {found:?}");
    }
}

#[test]
fn l2_ignores_non_hot_path_files() {
    let src = "fn f() {\n    let m: HashMap<u64, u64> = HashMap::new();\n    for k in m.keys() { let _ = k; }\n}\n";
    assert!(!lints_of("crates/core/src/persist.rs", src).contains(&Lint::L2MapIteration));
}

// --- L3: nondeterminism ------------------------------------------------

#[test]
fn l3_fires_on_unseeded_rng_and_clocks() {
    for line in [
        "let mut rng = thread_rng();",
        "let mut rng = StdRng::from_entropy();",
        "let mut rng = StdRng::from_os_rng();",
        "let x: f64 = rand::random();",
        "let t = Instant::now();",
        "let t = SystemTime::now();",
        "let t = UNIX_EPOCH;",
    ] {
        let src = format!("fn f() {{\n    {line}\n}}\n");
        let found = lints_of("crates/netsim/src/trace.rs", &src);
        assert!(found.contains(&Lint::L3Nondeterminism), "{line}: {found:?}");
    }
}

#[test]
fn l3_allows_seeded_rng() {
    let src = "fn f(seed: u64) {\n    let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1ab1e);\n}\n";
    assert!(lints_of("crates/core/src/parallel.rs", src).is_empty());
}

#[test]
fn l3_ignores_out_of_scope_crates() {
    let src = "fn f() { let t = Instant::now(); }\n";
    assert!(lints_of("crates/bench/src/bin/timing.rs", src).is_empty());
}

// --- L4: float equality ------------------------------------------------

#[test]
fn l4_fires_on_float_literal_equality() {
    for expr in ["x == 0.0", "0.5 == y", "x != 1.0", "x == -2.5", "x == 3.0f64"] {
        let src = format!("fn f(x: f64, y: f64) -> bool {{\n    {expr}\n}}\n");
        let found = lints_of("crates/core/src/reward.rs", &src);
        assert!(found.contains(&Lint::L4FloatEq), "{expr}: {found:?}");
    }
}

#[test]
fn l4_fires_on_float_const_equality() {
    let src = "fn f(x: f64) -> bool {\n    x == f64::INFINITY\n}\n";
    assert!(lints_of(CORE, src).contains(&Lint::L4FloatEq));
}

#[test]
fn l4_allows_integer_equality_and_comparisons() {
    let src = "fn f(x: u32, y: f64, t: (f64, f64)) -> bool {\n\
                   x == 3 && y <= 1.5 && y >= 0.5 && t.0 < 1.0\n\
               }\n";
    assert!(lints_of(CORE, src).is_empty());
}

#[test]
fn l4_allows_tuple_field_access() {
    // `bw.0 == cap.0` compares tuple fields, not float literals.
    let src = "fn f(bw: (u32,), cap: (u32,)) -> bool {\n    bw.0 == cap.0\n}\n";
    assert!(lints_of(CORE, src).is_empty());
}

// --- L5: print in library code -----------------------------------------

#[test]
fn l5_fires_on_print_macros_in_library_crates() {
    for stmt in [
        "println!(\"progress: {x}\");",
        "eprintln!(\"warning\");",
        "print!(\"partial\");",
        "eprint!(\"partial\");",
    ] {
        let src = format!("fn f(x: u32) {{\n    {stmt}\n}}\n");
        assert_eq!(
            lints_of("crates/nn/src/zoo.rs", &src),
            vec![Lint::L5PrintInLib],
            "should fire on {stmt:?}"
        );
        assert_eq!(
            lints_of("crates/telemetry/src/lib.rs", &src),
            vec![Lint::L5PrintInLib],
            "telemetry crate is in L5 scope"
        );
    }
}

#[test]
fn l5_exempts_cli_bench_and_tests() {
    let src = "fn f() {\n    println!(\"ok\");\n}\n";
    assert!(lints_of("crates/cli/src/commands.rs", src).is_empty());
    assert!(lints_of("crates/cli/src/main.rs", src).is_empty());
    assert!(lints_of("crates/bench/src/bin/table3.rs", src).is_empty());
    let test_src = "#[cfg(test)]\nmod tests {\n    fn f() { println!(\"dbg\"); }\n}\n";
    assert!(lints_of("crates/nn/src/zoo.rs", test_src).is_empty());
}

#[test]
fn l5_ignores_prints_in_docs_and_strings() {
    let src = "/// Call `println!(\"x\")` yourself if needed.\n\
               fn f() -> &'static str {\n\
                   \"println!(not a call)\"\n\
               }\n";
    assert!(lints_of("crates/nn/src/zoo.rs", src).is_empty());
}

// --- L6: hot-path model clone ------------------------------------------

#[test]
fn l6_fires_on_clone_of_tracked_spec_binding() {
    let src = "fn f(base: &ModelSpec) -> ModelSpec {\n    base.clone()\n}\n";
    let found = lints_of("crates/core/src/tree_search.rs", src);
    assert!(found.contains(&Lint::L6HotClone), "{found:?}");
}

#[test]
fn l6_fires_on_tree_constructor_binding_and_field_forms() {
    let src = "fn f(s: &State) {\n\
                   let tree = ModelTree::new(spec, 3);\n\
                   let a = tree.clone();\n\
                   let b = s.model.clone();\n\
                   let c = s.base.clone();\n\
               }\n";
    let found = lints_of("crates/core/src/branch.rs", src);
    assert_eq!(
        found.iter().filter(|&&l| l == Lint::L6HotClone).count(),
        3,
        "{found:?}"
    );
}

#[test]
fn l6_does_not_track_arc_or_vec_wrapped_bindings() {
    // Cloning an Arc<ModelSpec> is the cheap share we *want*; Vec<ModelTree>
    // is a container, not a deep model copy.
    let src = "fn f(base: &Arc<ModelSpec>, pool: &Vec<ModelTree>) {\n\
                   let a = base.clone();\n\
                   let b = pool.clone();\n\
               }\n";
    assert!(lints_of("crates/core/src/tree_search.rs", src).is_empty());
}

#[test]
fn l6_scoped_to_hot_path_files() {
    let src = "fn f(base: &ModelSpec) -> ModelSpec {\n    base.clone()\n}\n";
    assert!(lints_of("crates/core/src/experiments/mod.rs", src).is_empty());
    assert!(lints_of("crates/core/src/tree.rs", src).is_empty());
}

#[test]
fn l6_suppressed_by_allowlist_entry() {
    let allow = parse_allowlist(
        "L6|tree_search.rs|Arc::new(base.clone())|one-time promotion per search\n",
    )
    .expect("valid allowlist");
    let src = "fn f(base: &ModelSpec) {\n    let shared = Arc::new(base.clone());\n}\n";
    let raw = scan_source("crates/core/src/tree_search.rs", src);
    assert_eq!(raw.len(), 1);
    let report = apply_allowlist(raw, &allow);
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1);
}

// --- masking and test exemption ---------------------------------------

#[test]
fn masking_hides_comments_and_strings() {
    let src = "fn f() {\n\
               // x.unwrap() in a comment\n\
               /* panic!(\"nested /* block */ comment\") */\n\
               let s = \"y.unwrap() in a string\";\n\
               let r = r#\"z.unwrap() in a raw \"string\"\"#;\n\
               let c = '\"';\n\
               }\n";
    assert!(lints_of(CORE, src).is_empty());
    let masked = mask_source(src);
    assert!(!masked.contains("unwrap"));
    assert!(!masked.contains("panic"));
    assert_eq!(masked.lines().count(), src.lines().count());
}

#[test]
fn masking_handles_escaped_quotes_and_lifetimes() {
    let src = "fn f<'a>(x: &'a str) -> &'a str {\n\
                   let s = \"quote \\\" then x.unwrap()\";\n\
                   x\n\
               }\n";
    assert!(lints_of(CORE, src).is_empty());
    // Lifetimes must survive masking (not treated as char literals).
    assert!(mask_source(src).contains("<'a>"));
}

#[test]
fn cfg_test_modules_are_exempt() {
    let src = "fn shipped() -> u32 { 1 }\n\
               \n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() {\n\
                       let x: Option<u32> = Some(1);\n\
                       assert_eq!(x.unwrap(), 1);\n\
                       panic!(\"only in tests\");\n\
                   }\n\
               }\n";
    assert!(lints_of(CORE, src).is_empty());
}

#[test]
fn code_after_cfg_test_module_is_still_linted() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
                   fn t() { let _ = Some(1).unwrap(); }\n\
               }\n\
               \n\
               fn shipped(x: Option<u32>) -> u32 {\n\
                   x.unwrap()\n\
               }\n";
    let v = scan_source(CORE, src);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].line, 7);
}

#[test]
fn test_line_mask_tracks_braces() {
    let masked = "#[cfg(test)]\nmod t {\n  fn a() {}\n}\nfn b() {}\n";
    let mask = test_line_mask(masked);
    assert_eq!(mask, vec![true, true, true, true, false]);
}

#[test]
fn test_files_are_fully_exempt() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    for rel in [
        "crates/core/tests/end_to_end.rs",
        "crates/core/benches/search.rs",
        "crates/core/examples/quickstart.rs",
        "crates/core/src/search_tests.rs",
        "crates/core/src/proptests.rs",
    ] {
        assert!(lints_of(rel, src).is_empty(), "{rel}");
    }
}

// --- allowlist ---------------------------------------------------------

#[test]
fn allowlist_parses_and_suppresses() {
    let allow = parse_allowlist(
        "# comment\n\
         \n\
         L1|branch.rs|episodes >= 1|validated upstream\n",
    )
    .expect("valid allowlist");
    assert_eq!(allow.len(), 1);

    let src = "fn f(best: Option<u32>) {\n    let _ = best.expect(\"episodes >= 1\");\n}\n";
    let raw = scan_source(CORE, src);
    assert_eq!(raw.len(), 1);
    let report = apply_allowlist(raw, &allow);
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1);
    assert!(report.unused_entries.is_empty());
}

#[test]
fn allowlist_entries_are_lint_specific() {
    // An L1 entry must not silence an L4 violation on a matching line.
    let allow = parse_allowlist("L1|policy.rs|== 0.0|wrong lint\n").expect("valid allowlist");
    let src = "fn f(x: f64) -> bool {\n    x == 0.0\n}\n";
    let raw = scan_source("crates/core/src/controller/policy.rs", src);
    let report = apply_allowlist(raw, &allow);
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.unused_entries.len(), 1);
}

#[test]
fn allowlist_reports_unused_entries() {
    let allow = parse_allowlist("L1|nowhere.rs|no such line|stale\n").expect("valid allowlist");
    let report = apply_allowlist(Vec::new(), &allow);
    assert_eq!(report.unused_entries.len(), 1);
}

#[test]
fn allowlist_rejects_missing_reason() {
    let err = parse_allowlist("L1|f.rs|x.unwrap()|   \n").expect_err("reason required");
    assert!(matches!(err, AllowlistError::MissingReason { line: 1 }));
}

#[test]
fn allowlist_rejects_malformed_and_unknown_lint() {
    assert!(matches!(
        parse_allowlist("L1|only|three\n"),
        Err(AllowlistError::Malformed { line: 1, .. })
    ));
    assert!(matches!(
        parse_allowlist("L99|f.rs|x|reason\n"),
        Err(AllowlistError::UnknownLint { line: 1, .. })
    ));
}

#[test]
fn allowlist_enforces_entry_cap() {
    let text: String = (0..MAX_ALLOWLIST_ENTRIES + 1)
        .map(|i| format!("L1|file{i}.rs|site{i}|reason {i}\n"))
        .collect();
    assert!(matches!(
        parse_allowlist(&text),
        Err(AllowlistError::TooManyEntries { count }) if count == MAX_ALLOWLIST_ENTRIES + 1
    ));
}

// --- integration: the real workspace must be clean ---------------------

#[test]
fn workspace_is_clean_under_committed_allowlist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives in the workspace root");
    let allow_text =
        std::fs::read_to_string(root.join("lint.allow")).expect("lint.allow exists at repo root");
    let allow = parse_allowlist(&allow_text).expect("committed allowlist parses");
    let report = xtask::run_lint(root, &allow).expect("scan succeeds");
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.unused_entries.is_empty(),
        "stale allowlist entries: {:?}",
        report.unused_entries
    );
    assert!(report.files_scanned > 50, "scan should cover the workspace");
}

// --- L7: lossy casts in cost kernels -----------------------------------

const COST_KERNEL: &str = "crates/nn/src/layer.rs";

#[test]
fn l7_fires_on_narrowing_casts() {
    for cast in [
        "x as u8", "x as u16", "x as u32", "x as i8", "x as i16", "x as i32", "x as f32",
    ] {
        let src = format!("fn f(x: u64) {{\n    let _ = {cast};\n}}\n");
        assert_eq!(lints_of(COST_KERNEL, &src), vec![Lint::L7LossyCast], "{cast}");
    }
}

#[test]
fn l7_allows_widening_casts() {
    let src = "fn f(x: u32, y: f64) {\n    let _ = x as u64 + x as usize as u64;\n    let _ = x as u128;\n    let _ = x as f64 + y as u64 as f64;\n    let _ = x as i64;\n}\n";
    assert_eq!(lints_of(COST_KERNEL, src), vec![]);
}

#[test]
fn l7_respects_scope_comments_and_tests() {
    let src = "fn f(x: u64) {\n    let _ = x as u32;\n}\n";
    // Out of scope: a core search file that is not a cost kernel.
    assert_eq!(lints_of("crates/core/src/search.rs", src), vec![]);
    // Masked: comments and strings never fire.
    let masked = "fn f() {\n    // let _ = x as u32;\n    let _ = \"x as u32\";\n}\n";
    assert_eq!(lints_of(COST_KERNEL, masked), vec![]);
    // Test code is exempt.
    let test_src =
        "#[cfg(test)]\nmod tests {\n    fn g(x: u64) {\n        let _ = x as u32;\n    }\n}\n";
    assert_eq!(lints_of(COST_KERNEL, test_src), vec![]);
}

#[test]
fn l7_allowlist_escape_works() {
    let src = "fn f(x: u64) {\n    let q = x as u32;\n}\n";
    let raw = scan_source(COST_KERNEL, src);
    assert_eq!(raw.len(), 1);
    let allow = parse_allowlist(
        "L7|crates/nn/src/layer.rs|x as u32|quantized weight export needs the narrow type\n",
    )
    .unwrap();
    let report = apply_allowlist(raw, &allow);
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1);
    assert!(report.unused_entries.is_empty());
}

// --- feature-compression module wiring ---------------------------------

#[test]
fn feature_modules_are_in_l1_and_l4_scope() {
    let panic_src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let float_src = "fn f(x: f64) -> bool {\n    x == 0.5\n}\n";
    for rel in [
        "crates/compress/src/feature.rs",
        "crates/core/src/controller/feature.rs",
    ] {
        assert!(
            lints_of(rel, panic_src).contains(&Lint::L1PanicSite),
            "{rel} must be in L1 scope"
        );
        assert!(
            lints_of(rel, float_src).contains(&Lint::L4FloatEq),
            "{rel} must be in L4 scope"
        );
    }
}

#[test]
fn feature_controller_is_in_l6_hot_path_scope() {
    // The feature controller samples once per episode; a wholesale model
    // clone there is exactly the allocation storm L6 exists to catch.
    let src = "fn f(base: &ModelSpec) -> ModelSpec {\n    base.clone()\n}\n";
    let found = lints_of("crates/core/src/controller/feature.rs", src);
    assert!(found.contains(&Lint::L6HotClone), "{found:?}");
}

#[test]
fn feature_byte_math_is_in_l7_cast_scope() {
    let src = "fn f(x: u64) {\n    let _ = x as u32;\n}\n";
    assert_eq!(
        lints_of("crates/compress/src/feature.rs", src),
        vec![Lint::L7LossyCast],
        "the compressed-cut-tensor byte math must reject narrowing casts"
    );
    // The rest of the compress crate stays out of L7 scope.
    assert_eq!(lints_of("crates/compress/src/technique.rs", src), vec![]);
}

// --- L8: unbounded queues in serving/executor paths --------------------

const SERVE: &str = "crates/serve/src/server.rs";

#[test]
fn l8_fires_on_unbounded_channel_construction() {
    for line in [
        "let (tx, rx) = std::sync::mpsc::channel();",
        "let (tx, rx) = mpsc::channel();",
        "let (tx, rx) = unbounded_channel();",
    ] {
        let src = format!("fn f() {{\n    {line}\n}}\n");
        assert_eq!(
            lints_of(SERVE, &src),
            vec![Lint::L8UnboundedQueue],
            "{line}"
        );
    }
}

#[test]
fn l8_fires_on_vecdeque_used_as_work_queue() {
    for line in [
        "let q: VecDeque<Job> = VecDeque::new();",
        "let q = VecDeque::with_capacity(64);",
    ] {
        let src = format!("fn f() {{\n    {line}\n}}\n");
        assert_eq!(
            lints_of(SERVE, &src),
            vec![Lint::L8UnboundedQueue],
            "{line}"
        );
    }
}

#[test]
fn l8_allows_bounded_constructions() {
    let src = "fn f() {\n    let (tx, rx) = std::sync::mpsc::sync_channel(4);\n    let q = BoundedQueue::new(4);\n    let v: Vec<u32> = Vec::with_capacity(4);\n    let _ = (tx, rx, q, v);\n}\n";
    assert_eq!(lints_of(SERVE, src), vec![]);
}

#[test]
fn l8_scope_covers_executor_and_parallel_but_not_search() {
    let src = "fn f() {\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n";
    assert_eq!(
        lints_of("crates/core/src/executor.rs", src),
        vec![Lint::L8UnboundedQueue]
    );
    assert_eq!(
        lints_of("crates/core/src/parallel.rs", src),
        vec![Lint::L8UnboundedQueue]
    );
    // Out of scope: search code doesn't carry work queues.
    assert_eq!(lints_of("crates/core/src/search.rs", src), vec![]);
}

#[test]
fn l8_respects_comments_strings_and_tests() {
    let masked = "fn f() {\n    // mpsc::channel()\n    let s = \"VecDeque::new()\";\n    let _ = s;\n}\n";
    assert_eq!(lints_of(SERVE, masked), vec![]);
    let test_src = "#[cfg(test)]\nmod tests {\n    fn g() {\n        let (_tx, _rx) = std::sync::mpsc::channel();\n    }\n}\n";
    assert_eq!(lints_of(SERVE, test_src), vec![]);
}

// --- L9: wall clock in virtual-time aggregation paths -------------------

#[test]
fn l9_fires_on_clock_reads_across_the_aggregation_scope() {
    for line in ["let t = Instant::now();", "let t = SystemTime::now();"] {
        let src = format!("fn f() {{\n    {line}\n}}\n");
        for rel in [
            "crates/telemetry/src/window.rs",
            "crates/telemetry/src/slo.rs",
            "crates/serve/src/metrics.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/admission.rs",
            "crates/serve/src/breaker.rs",
            "crates/serve/src/chaos.rs",
            "crates/serve/src/session.rs",
        ] {
            let found = lints_of(rel, &src);
            assert!(
                found.contains(&Lint::L9WallClockInAggregation),
                "{rel}: {line}: {found:?}"
            );
        }
    }
}

#[test]
fn l9_exempts_span_timing_and_the_tcp_surface() {
    // The telemetry core times spans with Instant by design, and the
    // live TCP loop deals in real sockets and real time.
    let src = "fn f() {\n    let t = Instant::now();\n}\n";
    assert!(!lints_of("crates/telemetry/src/lib.rs", src)
        .contains(&Lint::L9WallClockInAggregation));
    assert!(!lints_of("crates/serve/src/tcp.rs", src)
        .contains(&Lint::L9WallClockInAggregation));
}

#[test]
fn l9_allows_virtual_time_and_elapsed_arithmetic() {
    let src = "fn f(now_ms: f64, agg: &mut WindowAggregator) {\n\
                   agg.advance(now_ms);\n\
                   let instant = now_ms + 1.0;\n\
                   let _ = instant;\n\
               }\n";
    assert_eq!(lints_of("crates/telemetry/src/window.rs", src), vec![]);
}

#[test]
fn l9_respects_comments_strings_and_tests() {
    let masked = "fn f() {\n    // Instant::now() would break determinism\n    let s = \"SystemTime::now()\";\n    let _ = s;\n}\n";
    assert_eq!(lints_of("crates/serve/src/server.rs", masked), vec![]);
    let test_src = "#[cfg(test)]\nmod tests {\n    fn g() {\n        let _ = std::time::Instant::now();\n    }\n}\n";
    assert_eq!(lints_of("crates/serve/src/server.rs", test_src), vec![]);
}

#[test]
fn l9_allowlist_escape_works() {
    let src = "fn f() {\n    let scrape_started = Instant::now();\n}\n";
    let raw = scan_source("crates/serve/src/metrics.rs", src);
    assert_eq!(raw.len(), 1);
    let allow = parse_allowlist(
        "L9|crates/serve/src/metrics.rs|scrape_started|scrape duration is operator-facing, never aggregated\n",
    )
    .unwrap();
    let report = apply_allowlist(raw, &allow);
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1);
    assert!(report.unused_entries.is_empty());
}

#[test]
fn l8_allowlist_escape_works() {
    let src = "fn f() {\n    let (tx, rx) = mpsc::channel();\n    let _ = (tx, rx);\n}\n";
    let raw = scan_source(SERVE, src);
    assert_eq!(raw.len(), 1);
    let allow = parse_allowlist(
        "L8|crates/serve/src/server.rs|mpsc::channel()|drain ack channel is provably single-message\n",
    )
    .unwrap();
    let report = apply_allowlist(raw, &allow);
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1);
    assert!(report.unused_entries.is_empty());
}
