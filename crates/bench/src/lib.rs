//! # cadmc-bench
//!
//! The paper reproduction harness. The `repro` binary prints every table
//! and figure of the paper's evaluation (§VII) and the extension
//! experiments, one [`Section`] each, from one set of trained scenes:
//! `repro > results/full_run.txt` regenerates the checked-in record.
//! `telemetry_overhead` gates the disabled-instrumentation bound.
//! End-to-end and per-layer performance is measured by the separate
//! `perfbench` package. The section selector, the run [`Budget`] and
//! shared formatting helpers live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

use cadmc_core::parallel::Parallelism;
use cadmc_core::search::SearchConfig;

/// One section of the reproduction, named after the binary that printed
/// it before the sections shared one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Table 1: inference latencies on the phone.
    Table1Latency,
    /// Fig. 1: synthesized bandwidth traces.
    Fig1Traces,
    /// Table 2: the compression techniques on VGG11.
    Table2Compression,
    /// Fig. 5: latency-model fits.
    Fig5LatencyModel,
    /// Fig. 7: search-method comparison.
    Fig7SearchComparison,
    /// Fig. 8: the strategies under two contexts.
    Fig8BranchExample,
    /// Table 3: offline training reward.
    Table3Offline,
    /// Table 4: emulation results.
    Table4Emulation,
    /// Table 5: field-test results.
    Table5Field,
    /// Extension: the N/K tree-shape sweep.
    SweepNk,
    /// Extension: per-inference device energy.
    EnergyReport,
    /// Extension: quality ablations of the search's design choices.
    AblationQuality,
    /// Extension: trees executed in contexts they were not trained for.
    MismatchMatrix,
    /// Per-layer latency and cut-point table of VGG11.
    LatencyBreakdown,
    /// The shape claims of Tables 3–5 over several seeds.
    SeedVariance,
}

impl Section {
    /// Every section, in the order of `results/full_run.txt`.
    pub const ALL: [Section; 15] = [
        Section::Table1Latency,
        Section::Fig1Traces,
        Section::Table2Compression,
        Section::Fig5LatencyModel,
        Section::Fig7SearchComparison,
        Section::Fig8BranchExample,
        Section::Table3Offline,
        Section::Table4Emulation,
        Section::Table5Field,
        Section::SweepNk,
        Section::EnergyReport,
        Section::AblationQuality,
        Section::MismatchMatrix,
        Section::LatencyBreakdown,
        Section::SeedVariance,
    ];

    /// The name that selects the section and heads it in the output.
    pub fn name(self) -> &'static str {
        match self {
            Section::Table1Latency => "table1_latency",
            Section::Fig1Traces => "fig1_traces",
            Section::Table2Compression => "table2_compression",
            Section::Fig5LatencyModel => "fig5_latency_model",
            Section::Fig7SearchComparison => "fig7_search_comparison",
            Section::Fig8BranchExample => "fig8_branch_example",
            Section::Table3Offline => "table3_offline",
            Section::Table4Emulation => "table4_emulation",
            Section::Table5Field => "table5_field",
            Section::SweepNk => "sweep_nk",
            Section::EnergyReport => "energy_report",
            Section::AblationQuality => "ablation_quality",
            Section::MismatchMatrix => "mismatch_matrix",
            Section::LatencyBreakdown => "latency_breakdown",
            Section::SeedVariance => "seed_variance",
        }
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Section {
    type Err = SelectError;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Section::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| SelectError::Unknown(name.to_string()))
    }
}

/// Why a list of section names was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// A name that is no section.
    Unknown(String),
    /// A section named more than once.
    Repeated(Section),
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::Unknown(name) => {
                let valid: Vec<&str> = Section::ALL.iter().map(|s| s.name()).collect();
                write!(
                    f,
                    "unknown section `{name}`; valid sections: {}",
                    valid.join(", ")
                )
            }
            SelectError::Repeated(s) => write!(f, "section `{s}` is named more than once"),
        }
    }
}

impl std::error::Error for SelectError {}

/// The sections named by `args`, in the order given; no names selects
/// every section in [`Section::ALL`] order.
///
/// # Errors
///
/// Returns [`SelectError`] for a name that is no section or a section
/// named twice.
pub fn select(args: &[String]) -> Result<Vec<Section>, SelectError> {
    if args.is_empty() {
        return Ok(Section::ALL.to_vec());
    }
    let mut sections = Vec::with_capacity(args.len());
    for arg in args {
        let section: Section = arg.parse()?;
        if sections.contains(&section) {
            return Err(SelectError::Repeated(section));
        }
        sections.push(section);
    }
    Ok(sections)
}

/// The run budget every section shares, read once from the environment:
/// `CADMC_EPISODES` (default 120), `CADMC_REQUESTS` (150), `CADMC_SEED`
/// (7) and `CADMC_WORKERS` (the machine's available parallelism). An
/// unset variable takes its default; a set one that does not parse is a
/// [`BudgetError`]. Worker count never affects results, only wall-clock
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Search episodes per method and scene.
    pub episodes: usize,
    /// Requests streamed per executed run.
    pub requests: usize,
    /// Characterization and search seed.
    pub seed: u64,
    /// Rollout worker pool.
    pub workers: Parallelism,
}

/// A budget variable set to a value that does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// The variable's name.
    pub var: &'static str,
    /// The value it was set to.
    pub value: String,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is not a non-negative integer",
            self.var, self.value
        )
    }
}

impl std::error::Error for BudgetError {}

impl Budget {
    /// Reads the budget from the `CADMC_*` variables.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError`] for the first variable (in the order
    /// listed on [`Budget`]) whose value does not parse.
    pub fn from_env() -> Result<Self, BudgetError> {
        Self::from_lookup(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Reads the budget through `lookup`, which maps a variable name to
    /// its value (`None` when unset).
    ///
    /// # Errors
    ///
    /// As [`Budget::from_env`].
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, BudgetError> {
        fn var<T: FromStr>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &'static str,
        ) -> Result<Option<T>, BudgetError> {
            lookup(name)
                .map(|value| {
                    value.parse().map_err(|_| BudgetError {
                        var: name,
                        value: value.clone(),
                    })
                })
                .transpose()
        }
        Ok(Budget {
            episodes: var(&lookup, "CADMC_EPISODES")?.unwrap_or(120),
            requests: var(&lookup, "CADMC_REQUESTS")?.unwrap_or(150),
            seed: var(&lookup, "CADMC_SEED")?.unwrap_or(7),
            workers: var(&lookup, "CADMC_WORKERS")?
                .map_or_else(Parallelism::available, Parallelism::new),
        })
    }

    /// The search configuration of this budget under `seed`.
    pub fn search_config(&self, seed: u64) -> SearchConfig {
        SearchConfig {
            episodes: self.episodes,
            seed,
            parallelism: self.workers,
            ..SearchConfig::default()
        }
    }
}

/// A horizontal rule of the given width.
#[must_use]
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Formats a `(reward, latency, accuracy)` triple as table cells.
pub fn triple(v: (f64, f64, f64)) -> String {
    format!("{:>8.2} {:>9.2} {:>7.2}", v.0, v.1, v.2 * 100.0)
}

/// Renders a simple ASCII sparkline of a series (for reward curves).
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-9);
    values
        .iter()
        .map(|v| {
            let idx = (((v - min) / span) * (TICKS.len() - 1) as f64).round() as usize;
            TICKS[idx.min(TICKS.len() - 1)]
        })
        .collect()
}

/// Downsamples a series to at most `n` evenly spaced points.
pub fn downsample(values: &[f64], n: usize) -> Vec<f64> {
    if values.len() <= n || n == 0 {
        return values.to_vec();
    }
    (0..n)
        .map(|i| values[i * (values.len() - 1) / (n - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_section_name_parses_and_no_names_select_all_in_order() {
        for s in Section::ALL {
            assert_eq!(s.name().parse::<Section>(), Ok(s));
        }
        let all = select(&[]).expect("no names select all");
        assert_eq!(all, Section::ALL);
        let names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        assert_eq!(names[0], "table1_latency");
        assert_eq!(names[12], "mismatch_matrix");
        assert_eq!(
            select(&args(&["table3_offline", "fig7_search_comparison"])),
            Ok(vec![Section::Table3Offline, Section::Fig7SearchComparison])
        );
    }

    #[test]
    fn unknown_or_repeated_names_are_typed_errors() {
        let err = select(&args(&["table3_offline", "table9"])).unwrap_err();
        assert_eq!(err, SelectError::Unknown("table9".to_string()));
        let msg = err.to_string();
        for s in Section::ALL {
            assert!(msg.contains(s.name()), "{msg} lacks {s}");
        }
        assert_eq!(
            select(&args(&["", "--help"])),
            Err(SelectError::Unknown(String::new()))
        );
        assert_eq!(
            select(&args(&["sweep_nk", "table1_latency", "sweep_nk"])),
            Err(SelectError::Repeated(Section::SweepNk))
        );
        assert_eq!(
            "TABLE1_LATENCY".parse::<Section>(),
            Err(SelectError::Unknown("TABLE1_LATENCY".to_string()))
        );
    }

    fn lookup<'a>(vars: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn budget_reads_good_values_and_defaults_missing_ones() {
        let b = Budget::from_lookup(lookup(&[
            ("CADMC_EPISODES", "12"),
            ("CADMC_SEED", "9001"),
            ("CADMC_WORKERS", "3"),
        ]))
        .expect("good values parse");
        assert_eq!(b.episodes, 12);
        assert_eq!(b.requests, 150, "a missing value takes its default");
        assert_eq!(b.seed, 9001);
        assert_eq!(b.workers, Parallelism::new(3));
        let defaults = Budget::from_lookup(lookup(&[])).expect("nothing set");
        assert_eq!((defaults.episodes, defaults.seed), (120, 7));
    }

    #[test]
    fn budget_rejects_a_bad_value_naming_the_variable() {
        for (var, value) in [
            ("CADMC_EPISODES", "12x"),
            ("CADMC_REQUESTS", "-1"),
            ("CADMC_SEED", ""),
            ("CADMC_WORKERS", "two"),
        ] {
            let vars = [(var, value), ("CADMC_EPISODES", "8")];
            let err = Budget::from_lookup(lookup(&vars)).unwrap_err();
            assert_eq!(
                err,
                BudgetError {
                    var,
                    value: value.to_string()
                }
            );
            let msg = err.to_string();
            assert!(
                msg.contains(var) && msg.contains(&format!("{value:?}")),
                "{msg}"
            );
        }
    }

    #[test]
    fn sparkline_length_matches_input() {
        let s = sparkline(&[1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 3);
    }

    #[test]
    fn downsample_preserves_endpoints() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = downsample(&v, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], 0.0);
        assert_eq!(*d.last().unwrap(), 99.0);
    }

    #[test]
    fn triple_formats_percentages() {
        let s = triple((350.0, 50.0, 0.92));
        assert!(s.contains("92.00"));
    }
}
