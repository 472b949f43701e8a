//! # cadmc-ir
//!
//! A compact text IR for the DNN graphs this repo searches over, plus a
//! zero-dependency static-analysis front-end: hand-rolled lexer →
//! recursive-descent parser → graph AST → semantic analyzer. Every pass
//! is deterministic, every failure is a span-carrying [`Diagnostic`]
//! with a stable `IRnnn` code, and arbitrary input never panics (pinned
//! by a fuzz proptest).
//!
//! The payoff is the [`CheckedModel`] type: IR text becomes a searchable
//! `ModelSpec` only through analysis (its [`spec`](CheckedModel::spec)
//! feeds any `cadmc-core` search; [`entry`] adds a tree search that
//! reads the model's annotations). Analysis proves shape legality,
//! chain/partition legality (reusing `core::validate`) and — via a
//! 128-bit checked mirror of the nn crate's cost kernels — that no
//! accepted model can overflow the native MACC / transfer-byte
//! arithmetic.
//!
//! ```text
//! model tiny @blocks(2) @levels(2, 20) {
//!   input (3, 32, 32)
//!   layer c0  = conv(k=3, s=1, p=1, out=16) @class(1)
//!   layer p0  = maxpool(k=2, s=2)
//!   layer g   = gap
//!   layer f   = flatten
//!   layer out = fc(out=10) @class(5)
//! }
//! ```
//!
//! See DESIGN.md §13 for the grammar (EBNF), the pass order and the
//! full diagnostics catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod cache;
pub mod diag;
pub mod emit;
pub mod entry;
pub mod lexer;
pub mod parser;

pub use analyze::{analyze, Analysis, CheckedModel};
pub use cache::{context_hash, ModelContextKey};
pub use diag::{render_json, render_text, Code, Diagnostic, Severity, Span};
pub use emit::{emit_full, emit_model, emit_with, ir_hash, ir_hash_full, EmitIr};
pub use parser::parse;

/// Outcome of checking one IR source file.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The checked model, present iff no error-severity diagnostic.
    pub model: Option<CheckedModel>,
    /// Every diagnostic, in deterministic order.
    pub diagnostics: Vec<Diagnostic>,
}

impl CheckOutcome {
    /// True when no error-severity diagnostic was produced (warnings are
    /// allowed).
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }

    /// Renders all diagnostics in rustc style for terminal output.
    pub fn render_text(&self, file: &str, src: &str) -> String {
        render_text(file, src, &self.diagnostics)
    }

    /// Renders all diagnostics as JSON lines for tooling.
    pub fn render_json(&self, file: &str, src: &str) -> String {
        render_json(file, src, &self.diagnostics)
    }
}

/// Checks IR source end to end: lex → parse → analyze. Lexical and
/// syntactic failures surface as a single diagnostic; semantic analysis
/// reports as many findings as it can.
pub fn check_source(src: &str) -> CheckOutcome {
    match parser::parse(src) {
        Ok(ast) => {
            let analysis = analyze::analyze(&ast);
            CheckOutcome {
                model: analysis.model,
                diagnostics: analysis.diagnostics,
            }
        }
        Err(diag) => CheckOutcome {
            model: None,
            diagnostics: vec![diag],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_round_trips_emission() {
        let spec = cadmc_nn::zoo::tiny_cnn();
        let text = spec.emit_ir();
        let out = check_source(&text);
        assert!(out.is_clean(), "diagnostics: {:?}", out.diagnostics);
        let model = out.model.expect("model");
        assert_eq!(model.spec(), &spec);
        // Re-emission is byte-identical: emission is the canonical form.
        assert_eq!(model.spec().emit_ir(), text);
    }

    #[test]
    fn feature_annotations_round_trip_emission() {
        let spec = cadmc_nn::zoo::tiny_cnn();
        let text = emit_full(&spec, Some(2), Some(&[2.0, 20.0]), Some(4), Some(8));
        let out = check_source(&text);
        assert!(out.is_clean(), "diagnostics: {:?}", out.diagnostics);
        let model = out.model.expect("model");
        assert_eq!(model.feature().code(), "B4Q8");
        // Re-emission from the checked model is byte-identical, and the
        // structural hash covers the feature knobs.
        let re = emit_full(
            model.spec(),
            model.blocks(),
            model.levels(),
            model.bottleneck_divisor(),
            model.quant_bits(),
        );
        assert_eq!(re, text);
        assert_eq!(
            model.ir_hash(),
            ir_hash_full(&spec, Some(2), Some(&[2.0, 20.0]), Some(4), Some(8))
        );
        assert_ne!(model.ir_hash(), ir_hash(&spec, Some(2), Some(&[2.0, 20.0])));
    }

    #[test]
    fn check_source_reports_syntax_errors_as_one_diagnostic() {
        let out = check_source("model { not a model");
        assert!(!out.is_clean());
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.model.is_none());
    }
}
