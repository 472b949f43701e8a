//! Pluggable accuracy evaluation.
//!
//! [`AccuracyEvaluator`] abstracts over "how do we score a transformed
//! model's accuracy": the decision engine uses the fast calibrated
//! [`AccuracyOracle`]; [`TrainedEvaluator`] really trains (distills) the
//! candidate on the synthetic dataset with the `cadmc-nn` runtime —
//! feasible only at TinyCnn scale, and used by tests/examples to validate
//! that the oracle's *direction* (compression loses a little accuracy,
//! distillation recovers most of it) holds for real gradients.

use cadmc_compress::CompressionPlan;
use cadmc_nn::dataset::Dataset;
use cadmc_nn::runtime::RuntimeModel;
use cadmc_nn::trainer::{self, TrainConfig};
use cadmc_nn::ModelSpec;

use crate::oracle::{AccuracyOracle, AppliedAction};

/// Scores the accuracy of a base model transformed by a compression plan.
pub trait AccuracyEvaluator {
    /// Accuracy in `[0, 1]` of `base` after applying `plan` (with
    /// distillation fine-tuning, conceptually or actually).
    fn accuracy(&self, base: &ModelSpec, plan: &CompressionPlan) -> f64;
}

impl AccuracyEvaluator for AccuracyOracle {
    fn accuracy(&self, base: &ModelSpec, plan: &CompressionPlan) -> f64 {
        let actions: Vec<AppliedAction> = plan
            .actions()
            .iter()
            .enumerate()
            .filter_map(|(layer_index, t)| {
                t.map(|technique| AppliedAction {
                    layer_index,
                    technique,
                })
            })
            .collect();
        self.evaluate(base, &actions)
    }
}

/// Really trains candidates: teacher = trained base model, student =
/// compressed model distilled from the teacher.
#[derive(Debug)]
pub struct TrainedEvaluator {
    data: Dataset,
    test: Dataset,
    teacher: RuntimeModel,
    distill_cfg: TrainConfig,
    temperature: f32,
}

impl TrainedEvaluator {
    /// Trains a teacher for `base` on `data` (split 80/20 train/test).
    ///
    /// # Errors
    ///
    /// Returns the runtime compile error if `base` cannot be lowered.
    pub fn new(
        base: &ModelSpec,
        data: Dataset,
        train_cfg: &TrainConfig,
    ) -> Result<Self, cadmc_nn::runtime::CompileError> {
        let split = data.len() * 4 / 5;
        let (train_set, test_set) = data.split(split);
        let mut teacher = RuntimeModel::compile(base, 42)?;
        trainer::train(&mut teacher, &train_set, train_cfg);
        Ok(Self {
            data: train_set,
            test: test_set,
            teacher,
            distill_cfg: train_cfg.clone(),
            temperature: 2.0,
        })
    }

    /// The trained teacher's test accuracy.
    pub fn teacher_accuracy(&self) -> f64 {
        f64::from(
            self.teacher
                .accuracy(self.test.images(), self.test.labels()),
        )
    }

    /// Distills a compressed candidate and returns its test accuracy.
    ///
    /// # Errors
    ///
    /// Propagates plan application or compile failures.
    pub fn distilled_accuracy(
        &self,
        base: &ModelSpec,
        plan: &CompressionPlan,
    ) -> Result<f64, Box<dyn std::error::Error>> {
        let compressed = plan.apply(base)?;
        let mut student = RuntimeModel::compile(&compressed, 7)?;
        trainer::distill(
            &mut student,
            &self.teacher,
            &self.data,
            self.temperature,
            &self.distill_cfg,
        );
        Ok(f64::from(
            student.accuracy(self.test.images(), self.test.labels()),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadmc_compress::Technique;
    use cadmc_nn::{dataset, zoo};

    #[test]
    fn oracle_implements_evaluator_via_plan() {
        let oracle = AccuracyOracle::standard();
        let base = zoo::vgg11_cifar();
        let mut plan = CompressionPlan::identity(base.len());
        plan.set(2, Some(Technique::C1MobileNet));
        let acc = oracle.accuracy(&base, &plan);
        assert!(acc < 0.9201);
        let id = CompressionPlan::identity(base.len());
        assert_eq!(oracle.accuracy(&base, &id), 0.9201);
    }

    #[test]
    fn trained_evaluator_validates_oracle_direction() {
        // Real training at tiny scale: the compressed+distilled model
        // should stay within a few points of the teacher — the qualitative
        // claim the oracle encodes.
        let base = zoo::tiny_cnn();
        let data = dataset::synthetic(300, 0.08, 11);
        let cfg = TrainConfig {
            epochs: 5,
            batch_size: 20,
            lr: 8e-3,
            seed: 1,
            clip_norm: Some(5.0),
        };
        let eval = TrainedEvaluator::new(&base, data, &cfg).unwrap();
        let teacher_acc = eval.teacher_accuracy();
        assert!(teacher_acc > 0.55, "teacher too weak: {teacher_acc}");

        let mut plan = CompressionPlan::identity(base.len());
        plan.set(2, Some(Technique::C1MobileNet));
        let student_acc = eval.distilled_accuracy(&base, &plan).unwrap();
        assert!(
            student_acc > teacher_acc - 0.25,
            "distilled student collapsed: {student_acc} vs teacher {teacher_acc}"
        );
    }
}
