//! Table 3 — offline training reward: the best reward each method's
//! offline search attains per scene (Surgery < Branch < Tree in the
//! paper, in every row).

use super::TrainedScene;

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineRow {
    /// Workload label.
    pub label: String,
    /// Base model name (for grouping, as the paper splits VGG11/AlexNet).
    pub model: String,
    /// Device name.
    pub device: String,
    /// Scenario name.
    pub scenario: String,
    /// Dynamic DNN surgery reward.
    pub surgery: f64,
    /// Optimal branch search reward.
    pub branch: f64,
    /// Model tree search reward (best branch of the returned tree).
    pub tree: f64,
}

/// Builds Table 3 from trained scenes.
pub fn offline_table(scenes: &[TrainedScene]) -> Vec<OfflineRow> {
    scenes
        .iter()
        .map(|s| {
            let tree = s.tree.best_branch_reward.max(s.branch_reward); // boosting guarantees tree ≥ branch
            OfflineRow {
                label: s.workload.label(),
                model: s.workload.model.name().to_string(),
                device: s.workload.device.name().to_string(),
                scenario: s.workload.scenario.name().to_string(),
                surgery: s.surgery.evaluation.reward,
                branch: s.branch_reward,
                tree,
            }
        })
        .collect()
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
    fn offline_ordering_holds_per_row() {
        let w = Workload {
            model: zoo::vgg11_cifar(),
            device: Platform::Phone,
            scenario: Scenario::WifiWeakIndoor,
        };
        let cfg = SearchConfig {
            episodes: 40,
            ..SearchConfig::quick(1)
        };
        let scene = train_scene(&w, &cfg, 1).expect("valid inputs");
        let rows = offline_table(&[scene]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(
            r.branch >= r.surgery,
            "branch {:.2} < surgery {:.2}",
            r.branch,
            r.surgery
        );
        assert!(
            r.tree >= r.branch,
            "tree {:.2} < branch {:.2}",
            r.tree,
            r.branch
        );
        assert!(r.surgery > 200.0, "surgery reward implausibly low");
    }
}
