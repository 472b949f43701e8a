//! Minibatch training and knowledge distillation for [`RuntimeModel`]s.
//!
//! The paper fine-tunes every transformed (compressed) model with
//! **knowledge distillation** — training the student against the base
//! model's output logits instead of ground-truth labels (§VI-D) — to speed
//! up convergence and recover accuracy. [`distill`] implements exactly
//! that; [`train`] is plain supervised training for teachers.

use cadmc_autodiff::{Adam, Graph, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dataset::Dataset;
use crate::runtime::RuntimeModel;

/// Hyper-parameters for [`train`] and [`distill`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Passes over the dataset.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Optional global-norm gradient clip.
    pub clip_norm: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 16,
            lr: 5e-3,
            seed: 0,
            clip_norm: Some(5.0),
        }
    }
}

/// Per-epoch loss trace returned by the trainers.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch, in order.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Loss after the final epoch.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }

    /// Whether the loss decreased from first to last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(a), Some(b)) => b < a,
            _ => false,
        }
    }
}

fn shuffled_indices(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

fn gather_rows(images: &Matrix, idx: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(idx.len(), images.cols());
    for (r, &i) in idx.iter().enumerate() {
        out.data_mut()[r * images.cols()..(r + 1) * images.cols()].copy_from_slice(images.row(i));
    }
    out
}

/// Supervised training with softmax cross-entropy against hard labels.
///
/// # Panics
///
/// Panics if `cfg.batch_size == 0` or the dataset is empty.
pub fn train(model: &mut RuntimeModel, data: &Dataset, cfg: &TrainConfig) -> TrainReport {
    run(model, data, cfg, None)
}

/// Knowledge distillation: trains `student` against `teacher`'s
/// temperature-softened softmax outputs (§VI-D of the paper).
///
/// # Panics
///
/// Panics if the teacher and student disagree on input width or class
/// count, if `temperature` is not positive, or on an empty dataset.
pub fn distill(
    student: &mut RuntimeModel,
    teacher: &RuntimeModel,
    data: &Dataset,
    temperature: f32,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(temperature > 0.0, "temperature must be positive");
    assert_eq!(
        student.classes(),
        teacher.classes(),
        "student/teacher class mismatch"
    );
    run(student, data, cfg, Some((teacher, temperature)))
}

fn run(
    model: &mut RuntimeModel,
    data: &Dataset,
    cfg: &TrainConfig,
    teacher: Option<(&RuntimeModel, f32)>,
) -> TrainReport {
    assert!(cfg.batch_size > 0, "batch size must be positive");
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for _ in 0..cfg.epochs {
        let order = shuffled_indices(data.len(), &mut rng);
        let mut total = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let images = gather_rows(data.images(), chunk);
            let targets = match teacher {
                Some((t, temp)) => {
                    // Temperature-softened teacher distribution.
                    let logits = t.forward(&images);
                    logits.map(|v| v / temp).softmax_rows()
                }
                None => {
                    let mut oh = Matrix::zeros(chunk.len(), model.classes());
                    for (r, &i) in chunk.iter().enumerate() {
                        *oh.at_mut(r, data.labels()[i]) = 1.0;
                    }
                    oh
                }
            };
            let mut g = Graph::new();
            let x = g.constant(images);
            let mut logits = model.forward_graph(&mut g, x);
            if let Some((_, temp)) = teacher {
                logits = g.scale(logits, 1.0 / temp);
            }
            let loss = g.softmax_cross_entropy(logits, targets);
            total += g.value(loss).at(0, 0);
            batches += 1;
            let mut grads = g.backward(loss);
            if let Some(max) = cfg.clip_norm {
                grads.clip_global_norm(max);
            }
            opt.step(model.params_mut(), &grads);
        }
        epoch_losses.push(total / batches as f32);
    }
    TrainReport { epoch_losses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::synthetic;
    use crate::runtime::RuntimeModel;
    use crate::zoo;

    fn quick_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 20,
            lr: 8e-3,
            seed: 0,
            clip_norm: Some(5.0),
        }
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let data = synthetic(200, 0.08, 1);
        let (train_set, test_set) = data.split(160);
        let mut model = RuntimeModel::compile(&zoo::tiny_cnn(), 7).unwrap();
        let report = train(&mut model, &train_set, &quick_cfg(6));
        assert!(report.improved(), "loss trace: {:?}", report.epoch_losses);
        let acc = model.accuracy(test_set.images(), test_set.labels());
        assert!(acc > 0.5, "test accuracy too low: {acc}");
    }

    #[test]
    fn distillation_transfers_teacher_behaviour() {
        let data = synthetic(160, 0.08, 2);
        let mut teacher = RuntimeModel::compile(&zoo::tiny_cnn(), 7).unwrap();
        train(&mut teacher, &data, &quick_cfg(6));

        // Student: a narrower spec (as compression would produce).
        use crate::layer::{LayerSpec, Shape};
        let student_spec = crate::model::ModelSpec::new(
            "student",
            Shape::new(3, 12, 12),
            vec![
                LayerSpec::conv(3, 1, 1, 6),
                LayerSpec::max_pool(2, 2),
                LayerSpec::conv(3, 1, 1, 12),
                LayerSpec::max_pool(2, 2),
                LayerSpec::Flatten,
                LayerSpec::fc(24),
                LayerSpec::fc(10),
            ],
        )
        .unwrap();
        let mut student = RuntimeModel::compile(&student_spec, 13).unwrap();
        let before = student.accuracy(data.images(), data.labels());
        let report = distill(&mut student, &teacher, &data, 2.0, &quick_cfg(6));
        assert!(report.improved());
        let after = student.accuracy(data.images(), data.labels());
        assert!(
            after > before + 0.2,
            "distillation did not help: {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn distill_rejects_zero_temperature() {
        let data = synthetic(10, 0.05, 1);
        let teacher = RuntimeModel::compile(&zoo::tiny_cnn(), 1).unwrap();
        let mut student = RuntimeModel::compile(&zoo::tiny_cnn(), 2).unwrap();
        let _ = distill(&mut student, &teacher, &data, 0.0, &quick_cfg(1));
    }

    #[test]
    fn report_final_loss_matches_last_epoch() {
        let report = TrainReport {
            epoch_losses: vec![2.0, 1.0, 0.5],
        };
        assert_eq!(report.final_loss(), 0.5);
        assert!(report.improved());
    }
}
