//! Oracle validation against real training.
//!
//! The decision engine trusts [`AccuracyOracle`] as
//! a stand-in for the paper's distillation-and-measure loop. This module
//! quantifies the substitution at the scale where we *can* really train:
//! apply a set of single-technique plans to TinyCnn, distill each student,
//! and compare the oracle's predicted accuracy ordering to the measured
//! one (rank agreement), plus the directional claim that compression costs
//! some accuracy.

use cadmc_compress::{CompressionPlan, Technique};
use cadmc_nn::dataset::Dataset;
use cadmc_nn::trainer::TrainConfig;
use cadmc_nn::ModelSpec;

use crate::evaluator::{AccuracyEvaluator, TrainedEvaluator};
use crate::oracle::AccuracyOracle;

/// One validation data point: a plan with the oracle's prediction and the
/// really-measured post-distillation accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationPoint {
    /// Human-readable plan summary.
    pub plan: String,
    /// Oracle-predicted accuracy.
    pub predicted: f64,
    /// Accuracy measured after distillation with the real runtime.
    pub measured: f64,
}

/// Result of a validation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Teacher's measured test accuracy (the empirical base).
    pub teacher_accuracy: f64,
    /// Per-plan points.
    pub points: Vec<ValidationPoint>,
}

impl ValidationReport {
    /// Kendall-tau-style rank agreement in `[-1, 1]` between predicted and
    /// measured accuracies across the points (1 = identical ordering).
    pub fn rank_agreement(&self) -> f64 {
        let n = self.points.len();
        if n < 2 {
            return 1.0;
        }
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..n {
            for j in (i + 1)..n {
                let dp = self.points[i].predicted - self.points[j].predicted;
                let dm = self.points[i].measured - self.points[j].measured;
                let s = dp * dm;
                if s > 0.0 {
                    concordant += 1;
                } else if s < 0.0 {
                    discordant += 1;
                }
            }
        }
        let total = concordant + discordant;
        if total == 0 {
            0.0
        } else {
            (concordant - discordant) as f64 / total as f64
        }
    }
}

/// Runs the validation sweep: distills each plan's student for real and
/// compares with the oracle (whose base accuracy is re-anchored to the
/// measured teacher so the comparison isolates the *degradation* model).
///
/// # Errors
///
/// Propagates compile/plan failures from the real-training path.
pub fn validate_oracle(
    base: &ModelSpec,
    plans: &[CompressionPlan],
    data: Dataset,
    cfg: &TrainConfig,
) -> Result<ValidationReport, Box<dyn std::error::Error>> {
    let evaluator = TrainedEvaluator::new(base, data, cfg)?;
    let teacher_accuracy = evaluator.teacher_accuracy();
    let mut oracle = AccuracyOracle::standard();
    oracle.register(base.name().to_string(), teacher_accuracy);
    let mut points = Vec::with_capacity(plans.len());
    for plan in plans {
        let predicted = oracle.accuracy(base, plan);
        let measured = evaluator.distilled_accuracy(base, plan)?;
        points.push(ValidationPoint {
            plan: plan.summary(),
            predicted,
            measured,
        });
    }
    Ok(ValidationReport {
        teacher_accuracy,
        points,
    })
}

/// A default set of single-technique plans applicable to `base` (one per
/// technique that applies anywhere), for quick validation sweeps.
pub fn single_technique_plans(base: &ModelSpec) -> Vec<CompressionPlan> {
    Technique::ALL
        .into_iter()
        .filter_map(|t| {
            let idx = (0..base.len()).find(|&i| t.applicable(base, i))?;
            let mut plan = CompressionPlan::identity(base.len());
            plan.set(idx, Some(t));
            Some(plan)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_nn::{dataset, zoo};

    #[test]
    fn rank_agreement_of_identical_orderings_is_one() {
        let report = ValidationReport {
            teacher_accuracy: 0.9,
            points: vec![
                ValidationPoint {
                    plan: "a".into(),
                    predicted: 0.8,
                    measured: 0.7,
                },
                ValidationPoint {
                    plan: "b".into(),
                    predicted: 0.85,
                    measured: 0.75,
                },
                ValidationPoint {
                    plan: "c".into(),
                    predicted: 0.9,
                    measured: 0.8,
                },
            ],
        };
        assert_eq!(report.rank_agreement(), 1.0);
    }

    #[test]
    fn rank_agreement_of_reversed_orderings_is_minus_one() {
        let report = ValidationReport {
            teacher_accuracy: 0.9,
            points: vec![
                ValidationPoint {
                    plan: "a".into(),
                    predicted: 0.9,
                    measured: 0.7,
                },
                ValidationPoint {
                    plan: "b".into(),
                    predicted: 0.8,
                    measured: 0.8,
                },
            ],
        };
        assert_eq!(report.rank_agreement(), -1.0);
    }

    #[test]
    fn oracle_stays_within_striking_distance_of_real_training() {
        // Real-gradient check at tiny scale: the oracle's predictions for
        // a couple of single-technique plans should land within a few
        // points of measured post-distillation accuracy, and never predict
        // an accuracy *gain*. Plans are restricted to F1 and C1: F2's
        // KSVD rank on TinyCnn's fc(32) is 5 — below the 10 classes — so
        // whether that bottleneck converges at this scale is seed lottery,
        // not a statement about the oracle.
        let base = zoo::tiny_cnn();
        let data = dataset::synthetic(260, 0.5, 19);
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 20,
            lr: 8e-3,
            seed: 2,
            clip_norm: Some(5.0),
        };
        let plans: Vec<CompressionPlan> = single_technique_plans(&base)
            .into_iter()
            .filter(|p| {
                let s = p.summary();
                s.starts_with("F1") || s.starts_with("C1")
            })
            .collect();
        assert_eq!(plans.len(), 2);
        assert!(!plans.is_empty());
        let report = validate_oracle(&base, &plans, data, &cfg).unwrap();
        assert!(report.teacher_accuracy > 0.5);
        for p in &report.points {
            assert!(
                p.predicted <= report.teacher_accuracy + 1e-9,
                "oracle predicted a gain for {}",
                p.plan
            );
            assert!(
                (p.predicted - p.measured).abs() < 0.25,
                "{}: predicted {:.3} vs measured {:.3}",
                p.plan,
                p.predicted,
                p.measured
            );
        }
    }
}
