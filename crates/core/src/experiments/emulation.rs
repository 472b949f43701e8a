//! Tables 4 and 5 — emulation and field-test execution of the three
//! methods against replayed bandwidth traces.

use crate::executor::{execute, ExecConfig, Mode, Policy};

use super::TrainedScene;

/// One Table 4/5 row: reward, latency and accuracy of each method.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedRow {
    /// Workload label.
    pub label: String,
    /// Base model name.
    pub model: String,
    /// Device name.
    pub device: String,
    /// Scenario name.
    pub scenario: String,
    /// (reward, latency ms, accuracy) of dynamic DNN surgery.
    pub surgery: (f64, f64, f64),
    /// (reward, latency ms, accuracy) of the optimal branch.
    pub branch: (f64, f64, f64),
    /// (reward, latency ms, accuracy) of the model tree.
    pub tree: (f64, f64, f64),
}

impl ExecutedRow {
    /// Accuracy loss of the tree versus surgery, in percentage points.
    pub fn tree_accuracy_loss_pp(&self) -> f64 {
        100.0 * (self.surgery.2 - self.tree.2)
    }
}

/// Executes every scene's three deployments in `mode` and produces the
/// table rows. `requests` inference requests are streamed per run.
pub fn emulation_table(
    scenes: &[TrainedScene],
    mode: Mode,
    requests: usize,
    seed: u64,
) -> Vec<ExecutedRow> {
    scenes
        .iter()
        .map(|s| {
            let cfg = ExecConfig::new(requests, mode, seed);
            let base = &s.workload.model;
            // Execute on the held-out trace, never the training one.
            let trace = &s.test_trace;
            let run = |policy: Policy<'_>| {
                let report = execute(&s.env, base, &policy, trace, &cfg);
                let e = report.evaluation(&s.env.reward);
                (e.reward, e.latency_ms, e.accuracy)
            };
            let surgery = run(Policy::Static(&s.surgery.candidate));
            let branch = run(Policy::Static(&s.branch));
            let tree = run(Policy::Tree(&s.tree.tree));
            ExecutedRow {
                label: s.workload.label(),
                model: s.workload.model.name().to_string(),
                device: s.workload.device.name().to_string(),
                scenario: s.workload.scenario.name().to_string(),
                surgery,
                branch,
                tree,
            }
        })
        .collect()
}

/// Column means over a set of rows: `(surgery, branch, tree)` triples of
/// `(reward, latency, accuracy)`.
pub fn averages(rows: &[ExecutedRow]) -> [(f64, f64, f64); 3] {
    let n = rows.len().max(1) as f64;
    let mut out = [(0.0, 0.0, 0.0); 3];
    for r in rows {
        for (acc, v) in out.iter_mut().zip([r.surgery, r.branch, r.tree]) {
            acc.0 += v.0 / n;
            acc.1 += v.1 / n;
            acc.2 += v.2 / n;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{train_scene, Workload};
    use crate::search::SearchConfig;
    use cadmc_latency::Platform;
    use cadmc_netsim::Scenario;
    use cadmc_nn::zoo;

    fn scene(scenario: Scenario, seed: u64) -> TrainedScene {
        let w = Workload {
            model: zoo::vgg11_cifar(),
            device: Platform::Phone,
            scenario,
        };
        let cfg = SearchConfig {
            episodes: 40,
            ..SearchConfig::quick(seed)
        };
        train_scene(&w, &cfg, seed).expect("valid inputs")
    }

    #[test]
    fn emulation_tree_wins_volatile_contexts_on_average() {
        // Executed tables replay *held-out* traces, so any single draw can
        // favor the static baseline; the claim is about the average.
        let scenes: Vec<TrainedScene> = [2u64, 3, 4]
            .into_iter()
            .map(|seed| scene(Scenario::FourGOutdoorQuick, seed))
            .collect();
        let rows = emulation_table(&scenes, Mode::Emulation, 60, 1);
        let mean = |f: fn(&ExecutedRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
        let tree = mean(|r| r.tree.0);
        let surgery = mean(|r| r.surgery.0);
        assert!(
            tree >= surgery - 1.0,
            "tree mean reward {tree:.2} below surgery {surgery:.2}"
        );
        for r in &rows {
            // Accuracy stays within the paper's loss band in every draw.
            assert!(r.tree_accuracy_loss_pp() < 4.0);
        }
    }

    #[test]
    fn field_is_slower_than_emulation_for_all_methods() {
        let s = scene(Scenario::WifiWeakIndoor, 3);
        let emu = emulation_table(std::slice::from_ref(&s), Mode::Emulation, 40, 1);
        let field = emulation_table(std::slice::from_ref(&s), Mode::Field, 40, 1);
        for (e, f) in emu.iter().zip(&field) {
            assert!(f.surgery.1 > e.surgery.1);
            assert!(f.branch.1 > e.branch.1);
            assert!(f.tree.1 > e.tree.1);
        }
    }

    #[test]
    fn averages_are_columnwise_means() {
        let row = ExecutedRow {
            label: "x".into(),
            model: "m".into(),
            device: "d".into(),
            scenario: "s".into(),
            surgery: (300.0, 80.0, 0.92),
            branch: (310.0, 60.0, 0.91),
            tree: (320.0, 50.0, 0.91),
        };
        let rows = vec![row.clone(), row];
        let avg = averages(&rows);
        assert!((avg[0].1 - 80.0).abs() < 1e-9);
        assert!((avg[2].0 - 320.0).abs() < 1e-9);
    }
}
