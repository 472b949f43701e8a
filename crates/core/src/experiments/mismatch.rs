//! Context-mismatch robustness — an extension experiment.
//!
//! The paper trains and evaluates within the same scenario. A natural
//! deployment question it leaves open: what happens when the context
//! characterization is *wrong* — the device trained for scene A but finds
//! itself in scene B? This experiment executes the tree trained for each
//! source scenario against every target scenario, producing a reward
//! matrix whose diagonal is the matched case.

use crate::executor::{execute, ExecConfig, Mode, Policy};

use super::TrainedScene;

/// The reward matrix of a mismatch study.
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchMatrix {
    /// Scenario labels, in order (rows = trained-on, columns = executed-on).
    pub scenarios: Vec<&'static str>,
    /// `rewards[i][j]` = executed reward of the tree trained on scenario
    /// `i` when run in scenario `j`.
    pub rewards: Vec<Vec<f64>>,
}

impl MismatchMatrix {
    /// Mean advantage of the matched (diagonal) deployment over mismatched
    /// deployments executed in the same target column.
    pub fn mean_diagonal_advantage(&self) -> f64 {
        let n = self.scenarios.len();
        let mut total = 0.0;
        let mut count = 0;
        for j in 0..n {
            for i in 0..n {
                if i != j {
                    total += self.rewards[j][j] - self.rewards[i][j];
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// Cross-executes each trained scene's tree against every scene's
/// held-out trace, streaming `requests` per cell.
pub fn mismatch_matrix(scenes: &[&TrainedScene], requests: usize, seed: u64) -> MismatchMatrix {
    let exec = ExecConfig::new(requests, Mode::Emulation, seed);
    let rewards = scenes
        .iter()
        .map(|trained| {
            scenes
                .iter()
                .map(|target| {
                    let report = execute(
                        &trained.env,
                        &trained.workload.model,
                        &Policy::Tree(&trained.tree.tree),
                        &target.test_trace,
                        &exec,
                    );
                    report.evaluation(&trained.env.reward).reward
                })
                .collect()
        })
        .collect();
    MismatchMatrix {
        scenarios: scenes.iter().map(|s| s.workload.scenario.name()).collect(),
        rewards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{train_scene, Workload};
    use crate::search::SearchConfig;
    use cadmc_latency::Platform;
    use cadmc_netsim::Scenario;
    use cadmc_nn::zoo;

    #[test]
    fn matrix_is_square_and_bounded() {
        let cfg = SearchConfig {
            episodes: 20,
            ..SearchConfig::quick(1)
        };
        let scenes: Vec<TrainedScene> = [Scenario::FourGIndoorStatic, Scenario::WifiWeakIndoor]
            .into_iter()
            .map(|scenario| {
                let w = Workload {
                    model: zoo::alexnet_cifar(),
                    device: Platform::Phone,
                    scenario,
                };
                train_scene(&w, &cfg, 1).expect("valid inputs")
            })
            .collect();
        let m = mismatch_matrix(&scenes.iter().collect::<Vec<_>>(), 40, 1);
        assert_eq!(m.scenarios.len(), 2);
        assert_eq!(m.rewards.len(), 2);
        for row in &m.rewards {
            assert_eq!(row.len(), 2);
            for &r in row {
                assert!((0.0..=400.0).contains(&r));
            }
        }
        // The diagonal advantage is finite (sign depends on scenes).
        assert!(m.mean_diagonal_advantage().is_finite());
    }
}
