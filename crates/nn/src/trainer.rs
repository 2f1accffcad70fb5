//! Mini-batch training loop with optional early stopping and weight
//! constraints (used by the minimization passes for masked/clustered
//! retraining).

use crate::dataset::Dataset;
use crate::error::NnError;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::mlp::{Mlp, MlpScratch};
use crate::optimizer::{Adam, Optimizer};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (clamped to at least 1).
    pub batch_size: usize,
    /// Initial learning rate handed to the optimizer.
    pub learning_rate: f32,
    /// Loss function.
    pub loss: Loss,
    /// Multiplicative learning-rate decay applied after each epoch
    /// (`1.0` disables decay).
    pub lr_decay: f32,
    /// Stop early when the validation accuracy has not improved for this many
    /// epochs (`None` disables early stopping; requires a validation set).
    pub patience: Option<usize>,
    /// L2 weight-decay coefficient added to the gradients (`0.0` disables).
    pub weight_decay: f32,
    /// Record the full-train-set accuracy in [`TrainReport::train_accuracy`]
    /// every epoch (`true` by default). When a validation set drives
    /// best-model tracking this is pure reporting — inner-loop fine-tuning
    /// (QAT, pruning, clustering) disables it, since the extra full forward
    /// pass per epoch is a measurable share of each candidate evaluation.
    /// Ignored (accuracy is always computed) when no validation set is given,
    /// because best-model tracking then needs it.
    pub track_train_accuracy: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            batch_size: 32,
            learning_rate: 0.01,
            loss: Loss::SoftmaxCrossEntropy,
            lr_decay: 1.0,
            patience: None,
            weight_decay: 0.0,
            track_train_accuracy: true,
        }
    }
}

impl TrainConfig {
    /// A configuration tuned for the fast fine-tuning passes used inside the
    /// genetic-algorithm loop (few epochs, slightly higher learning rate, no
    /// per-epoch full-train-set accuracy pass).
    pub fn fine_tune(epochs: usize) -> Self {
        TrainConfig {
            epochs,
            learning_rate: 0.02,
            track_train_accuracy: false,
            ..TrainConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when any hyper-parameter is outside
    /// its admissible range.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.epochs == 0 {
            return Err(NnError::InvalidConfig {
                context: "epochs must be >= 1".into(),
            });
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(NnError::InvalidConfig {
                context: format!("learning_rate must be positive, got {}", self.learning_rate),
            });
        }
        // Written so that NaN fails: every comparison with NaN is false.
        if !(self.lr_decay > 0.0 && self.lr_decay <= 1.0) {
            return Err(NnError::InvalidConfig {
                context: format!("lr_decay must be in (0,1], got {}", self.lr_decay),
            });
        }
        if !(self.weight_decay >= 0.0 && self.weight_decay.is_finite()) {
            return Err(NnError::InvalidConfig {
                context: format!(
                    "weight_decay must be finite and >= 0, got {}",
                    self.weight_decay
                ),
            });
        }
        Ok(())
    }
}

/// Per-epoch history and final metrics of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Training accuracy per epoch (empty when
    /// [`TrainConfig::track_train_accuracy`] is off and a validation set was
    /// supplied).
    pub train_accuracy: Vec<f64>,
    /// Validation accuracy per epoch (empty when no validation set given).
    pub val_accuracy: Vec<f64>,
    /// Number of epochs actually run (may be less than configured when early
    /// stopping triggers).
    pub epochs_run: usize,
    /// Best validation accuracy seen (or best training accuracy when no
    /// validation set was supplied).
    pub best_accuracy: f64,
}

/// A hook invoked after every parameter update, letting callers constrain the
/// weights (re-apply pruning masks, snap to cluster centroids, fake-quantize).
///
/// The hook receives the network after the optimizer update has been applied.
pub trait WeightConstraint {
    /// Re-establishes the constraint on the model in place.
    fn apply(&mut self, mlp: &mut Mlp);
}

/// A no-op constraint used by plain training.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoConstraint;

impl WeightConstraint for NoConstraint {
    fn apply(&mut self, _mlp: &mut Mlp) {}
}

impl<F: FnMut(&mut Mlp)> WeightConstraint for F {
    fn apply(&mut self, mlp: &mut Mlp) {
        self(mlp)
    }
}

/// Mini-batch gradient-descent trainer.
///
/// # Example
///
/// ```
/// use pmlp_nn::{Trainer, TrainConfig};
/// let trainer = Trainer::new(TrainConfig { epochs: 5, ..TrainConfig::default() });
/// assert_eq!(trainer.config().epochs, 5);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `mlp` on `train`, optionally tracking accuracy on `validation`.
    ///
    /// Uses Adam with the configured learning rate. Equivalent to
    /// [`Trainer::fit_constrained`] with [`NoConstraint`].
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or when dataset and
    /// model shapes disagree.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        mlp: &mut Mlp,
        train: &Dataset,
        validation: Option<&Dataset>,
        rng: &mut R,
    ) -> Result<TrainReport, NnError> {
        self.fit_constrained(mlp, train, validation, &mut NoConstraint, rng)
    }

    /// Trains `mlp` while re-applying `constraint` after every update.
    ///
    /// This is the entry point used by quantization-aware training (the
    /// constraint fake-quantizes the weights), pruning fine-tuning (the
    /// constraint re-applies the sparsity mask) and clustering fine-tuning
    /// (the constraint snaps weights back onto their shared centroids).
    ///
    /// A step is [`Mlp::compute_gradients`], the weight-decay term, one
    /// fused in-place [`Adam`] pass and the constraint. Every buffer is sized
    /// during the first epoch and reused afterwards, so later epochs make no
    /// heap allocation of their own (the constraint's are its own business).
    ///
    /// # Errors
    ///
    /// Returns an error when the configuration is invalid or when dataset and
    /// model shapes disagree.
    pub fn fit_constrained<R, C>(
        &self,
        mlp: &mut Mlp,
        train: &Dataset,
        validation: Option<&Dataset>,
        constraint: &mut C,
        rng: &mut R,
    ) -> Result<TrainReport, NnError>
    where
        R: Rng + ?Sized,
        C: WeightConstraint + ?Sized,
    {
        self.config.validate()?;
        if train.feature_count() != mlp.input_size() {
            return Err(NnError::ShapeMismatch {
                context: "training features vs model input".into(),
                left: (train.len(), train.feature_count()),
                right: (1, mlp.input_size()),
            });
        }
        if train.class_count() > mlp.output_size() {
            return Err(NnError::InvalidConfig {
                context: format!(
                    "dataset has {} classes but model only outputs {}",
                    train.class_count(),
                    mlp.output_size()
                ),
            });
        }

        let mut optimizer = Adam::new(self.config.learning_rate);
        let epochs = self.config.epochs;
        let track_train = self.config.track_train_accuracy || validation.is_none();
        // Reserved up front so the per-epoch pushes do not reallocate;
        // bounded, since `epochs` comes from the caller.
        let history = epochs.min(1 << 16);
        let mut report = TrainReport {
            train_loss: Vec::with_capacity(history),
            train_accuracy: Vec::with_capacity(if track_train { history } else { 0 }),
            val_accuracy: Vec::with_capacity(if validation.is_some() { history } else { 0 }),
            ..TrainReport::default()
        };
        let mut best_accuracy = 0.0_f64;
        let mut best_model = mlp.clone();
        let mut epochs_since_best = 0usize;

        // Ensure the model starts from a constraint-satisfying point.
        constraint.apply(mlp);

        // Every buffer of the loop lives for the whole run, so after the
        // first epoch a run allocates nothing: the shuffled index
        // permutation, the gathered batch, the model's activation, gradient
        // and moment buffers (also used by the accuracy passes) and the
        // best-model copy.
        let batch_size = self.config.batch_size.max(1);
        let mut shuffled: Vec<usize> = Vec::with_capacity(train.len());
        let mut batch_features = Matrix::zeros(0, train.feature_count());
        let mut batch_labels: Vec<usize> = Vec::with_capacity(batch_size);
        let mut scratch = MlpScratch::default();
        let weight_decay = self.config.weight_decay;

        for epoch in 0..epochs {
            let mut epoch_loss = 0.0_f32;
            let mut batches = 0usize;
            train.shuffle_indices_into(&mut shuffled, rng);
            for batch in shuffled.chunks(batch_size) {
                train.gather_batch(batch, &mut batch_features, &mut batch_labels);
                epoch_loss += mlp.compute_gradients(
                    &batch_features,
                    &batch_labels,
                    self.config.loss,
                    &mut scratch,
                )?;
                batches += 1;
                if weight_decay > 0.0 {
                    for (grad, layer) in scratch.gradients_mut().iter_mut().zip(mlp.layers()) {
                        for (g, &w) in grad
                            .weights
                            .as_mut_slice()
                            .iter_mut()
                            .zip(layer.weights().as_slice())
                        {
                            *g += w * weight_decay;
                        }
                    }
                }
                optimizer.step(mlp, scratch.gradients())?;
                constraint.apply(mlp);
            }
            report.train_loss.push(if batches > 0 {
                epoch_loss / batches as f32
            } else {
                0.0
            });
            // The full-train-set accuracy pass is skippable only when a
            // validation set drives best-model tracking.
            if track_train {
                report
                    .train_accuracy
                    .push(mlp.accuracy_with(train, &mut scratch));
            }
            report.epochs_run = epoch + 1;

            let tracked_acc = match validation {
                Some(val) => {
                    let acc = mlp.accuracy_with(val, &mut scratch);
                    report.val_accuracy.push(acc);
                    acc
                }
                None => *report
                    .train_accuracy
                    .last()
                    .expect("train accuracy recorded when no validation set"),
            };

            if tracked_acc > best_accuracy {
                best_accuracy = tracked_acc;
                best_model.clone_from(mlp);
                epochs_since_best = 0;
            } else {
                epochs_since_best += 1;
            }

            if let Some(patience) = self.config.patience {
                if validation.is_some() && epochs_since_best > patience {
                    break;
                }
            }

            if self.config.lr_decay < 1.0 {
                let lr = optimizer.learning_rate() * self.config.lr_decay;
                optimizer.set_learning_rate(lr);
            }
        }

        // Keep the best model seen (matters when early stopping or when the
        // last epochs overfit).
        if best_accuracy > 0.0 {
            *mlp = best_model;
        }
        report.best_accuracy = best_accuracy;
        Ok(report)
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer::new(TrainConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::mlp::MlpBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two well-separated Gaussian-ish blobs, linearly separable.
    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -1.0 } else { 1.0 };
            xs.push(vec![
                center + rng.gen_range(-0.3_f32..0.3),
                center + rng.gen_range(-0.3_f32..0.3),
            ]);
            ys.push(class);
        }
        Dataset::from_rows(xs, ys, 2).unwrap()
    }

    fn xor_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.gen_range(0.0..1.0_f32);
            let b = rng.gen_range(0.0..1.0_f32);
            let label = usize::from((a > 0.5) != (b > 0.5));
            xs.push(vec![a, b]);
            ys.push(label);
        }
        Dataset::from_rows(xs, ys, 2).unwrap()
    }

    #[test]
    fn config_validation_catches_bad_values() {
        assert!(TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            learning_rate: -1.0,
            ..TrainConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            lr_decay: 1.5,
            ..TrainConfig::default()
        }
        .validate()
        .is_err());
        assert!(TrainConfig {
            weight_decay: -0.1,
            ..TrainConfig::default()
        }
        .validate()
        .is_err());
        // Non-finite values: comparisons with NaN are false, so they must be
        // rejected explicitly.
        for lr_decay in [f32::NAN, f32::INFINITY, 0.0] {
            assert!(TrainConfig {
                lr_decay,
                ..TrainConfig::default()
            }
            .validate()
            .is_err());
        }
        for weight_decay in [f32::NAN, f32::INFINITY] {
            assert!(TrainConfig {
                weight_decay,
                ..TrainConfig::default()
            }
            .validate()
            .is_err());
        }
        for learning_rate in [f32::NAN, f32::INFINITY] {
            assert!(TrainConfig {
                learning_rate,
                ..TrainConfig::default()
            }
            .validate()
            .is_err());
        }
        assert!(TrainConfig::default().validate().is_ok());
    }

    #[test]
    fn trains_linearly_separable_blobs_to_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(100);
        let data = blobs(200, 7);
        let mut mlp = MlpBuilder::new(2)
            .hidden(4, Activation::ReLU)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
        assert!(
            report.best_accuracy > 0.95,
            "accuracy {}",
            report.best_accuracy
        );
        assert_eq!(report.train_loss.len(), report.epochs_run);
    }

    #[test]
    fn trains_xor_with_hidden_layer() {
        let mut rng = StdRng::seed_from_u64(201);
        let data = xor_data(400, 9);
        let mut mlp = MlpBuilder::new(2)
            .hidden(12, Activation::ReLU)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 120,
            learning_rate: 0.02,
            batch_size: 32,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
        assert!(
            report.best_accuracy > 0.9,
            "xor accuracy {}",
            report.best_accuracy
        );
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut rng = StdRng::seed_from_u64(300);
        let data = blobs(200, 11);
        let mut mlp = MlpBuilder::new(2)
            .hidden(6, Activation::ReLU)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn early_stopping_limits_epochs() {
        let mut rng = StdRng::seed_from_u64(400);
        let data = blobs(200, 13);
        let (train, val) = data.stratified_split(0.8, &mut rng).unwrap();
        let mut mlp = MlpBuilder::new(2)
            .hidden(4, Activation::ReLU)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 200,
            patience: Some(3),
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut mlp, &train, Some(&val), &mut rng).unwrap();
        assert!(report.epochs_run < 200, "early stopping never triggered");
        assert_eq!(report.val_accuracy.len(), report.epochs_run);
    }

    #[test]
    fn rejects_feature_width_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = blobs(20, 1);
        let mut mlp = MlpBuilder::new(5)
            .hidden(4, Activation::ReLU)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::default();
        assert!(trainer.fit(&mut mlp, &data, None, &mut rng).is_err());
    }

    #[test]
    fn rejects_too_few_model_outputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = blobs(20, 1); // two classes
        let mut mlp = MlpBuilder::new(2).output(1).build(&mut rng).unwrap();
        let trainer = Trainer::default();
        assert!(trainer.fit(&mut mlp, &data, None, &mut rng).is_err());
    }

    #[test]
    fn constraint_is_enforced_throughout_training() {
        // Constraint: the (0,0) weight of layer 0 must stay exactly zero.
        let mut rng = StdRng::seed_from_u64(17);
        let data = blobs(100, 3);
        let mut mlp = MlpBuilder::new(2)
            .hidden(4, Activation::ReLU)
            .output(2)
            .build(&mut rng)
            .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        });
        let mut constraint = |m: &mut Mlp| {
            m.layers_mut()[0].weights_mut().set(0, 0, 0.0);
        };
        trainer
            .fit_constrained(&mut mlp, &data, None, &mut constraint, &mut rng)
            .unwrap();
        assert_eq!(mlp.layers()[0].weights().get(0, 0), 0.0);
    }

    #[test]
    fn weight_decay_shrinks_weight_norm() {
        let mut rng = StdRng::seed_from_u64(19);
        let data = blobs(100, 5);
        let build = |rng: &mut StdRng| {
            MlpBuilder::new(2)
                .hidden(8, Activation::ReLU)
                .output(2)
                .build(rng)
                .unwrap()
        };
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut mlp_plain = build(&mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(21);
        let mut mlp_decay = build(&mut rng_b);

        let plain = Trainer::new(TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        });
        let decay = Trainer::new(TrainConfig {
            epochs: 30,
            weight_decay: 0.05,
            ..TrainConfig::default()
        });
        plain.fit(&mut mlp_plain, &data, None, &mut rng).unwrap();
        decay.fit(&mut mlp_decay, &data, None, &mut rng).unwrap();

        let norm = |m: &Mlp| -> f32 {
            m.layers()
                .iter()
                .map(|l| l.weights().frobenius_norm())
                .sum()
        };
        assert!(norm(&mlp_decay) < norm(&mlp_plain));
    }

    #[test]
    fn deterministic_given_same_seed() {
        let data = blobs(100, 23);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mlp = MlpBuilder::new(2)
                .hidden(4, Activation::ReLU)
                .output(2)
                .build(&mut rng)
                .unwrap();
            let trainer = Trainer::new(TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            });
            trainer.fit(&mut mlp, &data, None, &mut rng).unwrap();
            mlp.flatten_weights()
        };
        assert_eq!(run(77), run(77));
    }
}
