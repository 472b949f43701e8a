//! Golden diagnostics corpus: one malformed fixture per stable code
//! under `tests/diagnostics/`, with the full rustc-style rendering pinned
//! in a sibling `.expected` file.
//!
//! Regenerate after an intentional format change with:
//! `UPDATE_GOLDEN=1 cargo test -p cadmc-ir --test diagnostics`

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use cadmc_ir::diag::ALL_CODES;
use cadmc_ir::{check_source, Code};
use cadmc_telemetry::testing::assert_golden;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/diagnostics")
}

/// The code a fixture is named after (`ir101.ir` → IR101).
fn code_of_stem(stem: &str) -> Code {
    let want = stem.to_ascii_uppercase();
    ALL_CODES
        .into_iter()
        .find(|c| c.as_str() == want)
        .unwrap_or_else(|| panic!("fixture {stem}.ir does not name a known code"))
}

#[test]
fn golden_corpus_is_pinned_and_covers_every_code() {
    let dir = corpus_dir();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 12,
        "corpus must exercise at least 12 codes, found {}",
        fixtures.len()
    );

    let mut covered: BTreeSet<Code> = BTreeSet::new();
    for path in &fixtures {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 stem")
            .to_string();
        let named_code = code_of_stem(&stem);
        let src = fs::read_to_string(path).expect("fixture readable");
        let out = check_source(&src);
        let file_label = format!("{stem}.ir");
        let rendered = out.render_text(&file_label, &src);
        assert!(
            out.diagnostics.iter().any(|d| d.code == named_code),
            "fixture {stem}.ir must produce {}, got {:?}",
            named_code.as_str(),
            out.diagnostics.iter().map(|d| d.code).collect::<Vec<_>>()
        );
        covered.extend(out.diagnostics.iter().map(|d| d.code));

        assert_golden(path.with_extension("expected"), &rendered);
    }

    for code in ALL_CODES {
        assert!(
            covered.contains(&code),
            "no fixture exercises {}",
            code.as_str()
        );
    }
}

#[test]
fn json_rendering_is_stable_for_a_representative_fixture() {
    let path = corpus_dir().join("ir101.ir");
    let src = fs::read_to_string(path).expect("fixture");
    let out = check_source(&src);
    let json = out.render_json("ir101.ir", &src);
    assert_eq!(
        json,
        "{\"file\":\"ir101.ir\",\"code\":\"IR101\",\"severity\":\"error\",\
         \"line\":3,\"col\":3,\"end_line\":3,\"end_col\":49,\
         \"message\":\"kernel 7 (stride 1) does not fit the padded input 3x4x4\"}\n"
    );
}
