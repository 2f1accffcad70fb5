//! Loss functions for classification training.

use crate::activation::{softmax_rows, softmax_rows_inplace};
use crate::error::NnError;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Loss function used by the trainer.
///
/// The printed-MLP classifiers are trained with
/// [`Loss::SoftmaxCrossEntropy`]; [`Loss::MeanSquaredError`] is provided for
/// regression-style sanity tests and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Loss {
    /// Softmax over the logits followed by categorical cross-entropy.
    #[default]
    SoftmaxCrossEntropy,
    /// Mean squared error against one-hot targets.
    MeanSquaredError,
}

impl Loss {
    /// Computes the scalar loss for a batch.
    ///
    /// `logits` is `batch x classes`, `targets` holds the class index of each
    /// sample.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `targets.len() != logits.rows()`
    /// and [`NnError::InvalidDataset`] when a target index is out of range.
    pub fn compute(self, logits: &Matrix, targets: &[usize]) -> Result<f32, NnError> {
        self.validate(logits, targets)?;
        let n = logits.rows() as f32;
        match self {
            Loss::SoftmaxCrossEntropy => {
                let probs = softmax_rows(logits);
                let mut total = 0.0;
                for (r, &t) in targets.iter().enumerate() {
                    let p = probs.get(r, t).max(1e-12);
                    total -= p.ln();
                }
                Ok(total / n)
            }
            Loss::MeanSquaredError => {
                let mut total = 0.0;
                for (r, &t) in targets.iter().enumerate() {
                    for c in 0..logits.cols() {
                        let target = if c == t { 1.0 } else { 0.0 };
                        let diff = logits.get(r, c) - target;
                        total += diff * diff;
                    }
                }
                Ok(total / (n * logits.cols() as f32))
            }
        }
    }

    /// Gradient of the loss with respect to the logits, averaged over the
    /// batch (so learning rates are batch-size independent).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::compute`].
    pub fn gradient(self, logits: &Matrix, targets: &[usize]) -> Result<Matrix, NnError> {
        let mut grad = Matrix::default();
        self.loss_and_gradient_into(logits, targets, &mut grad)?;
        Ok(grad)
    }

    /// Computes the scalar loss and writes its gradient w.r.t. the logits
    /// into `grad`, reusing its allocation. The softmax (the dominant
    /// transcendental cost) is computed once, in place in `grad`, and shared
    /// by the two. The training step calls this every batch.
    ///
    /// Bit-for-bit identical to [`Loss::compute`] and [`Loss::gradient`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::compute`].
    pub(crate) fn loss_and_gradient_into(
        self,
        logits: &Matrix,
        targets: &[usize],
        grad: &mut Matrix,
    ) -> Result<f32, NnError> {
        self.validate(logits, targets)?;
        let n = logits.rows() as f32;
        grad.clone_from(logits);
        match self {
            Loss::SoftmaxCrossEntropy => {
                softmax_rows_inplace(grad);
                let mut total = 0.0;
                for (r, &t) in targets.iter().enumerate() {
                    let p = grad.get(r, t);
                    total -= p.max(1e-12).ln();
                    grad.set(r, t, p - 1.0);
                }
                let inv_n = 1.0 / n;
                grad.map_inplace(|x| x * inv_n);
                Ok(total / n)
            }
            Loss::MeanSquaredError => {
                for (r, &t) in targets.iter().enumerate() {
                    for (c, g) in grad.row_mut(r).iter_mut().enumerate() {
                        let target = if c == t { 1.0 } else { 0.0 };
                        *g = 2.0 * (*g - target);
                    }
                }
                let scale = 1.0 / (n * logits.cols() as f32);
                grad.map_inplace(|x| x * scale);
                self.compute(logits, targets)
            }
        }
    }

    fn validate(self, logits: &Matrix, targets: &[usize]) -> Result<(), NnError> {
        if targets.len() != logits.rows() {
            return Err(NnError::ShapeMismatch {
                context: "loss targets".into(),
                left: logits.shape(),
                right: (targets.len(), 1),
            });
        }
        if let Some(&bad) = targets.iter().find(|&&t| t >= logits.cols()) {
            return Err(NnError::InvalidDataset {
                context: format!(
                    "target class {bad} out of range for {} classes",
                    logits.cols()
                ),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Loss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Loss::SoftmaxCrossEntropy => "softmax_cross_entropy",
            Loss::MeanSquaredError => "mean_squared_error",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_entropy_is_low_for_confident_correct_prediction() {
        let logits = Matrix::from_rows(&[vec![10.0, -10.0]]).unwrap();
        let loss = Loss::SoftmaxCrossEntropy.compute(&logits, &[0]).unwrap();
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_is_high_for_confident_wrong_prediction() {
        let logits = Matrix::from_rows(&[vec![10.0, -10.0]]).unwrap();
        let loss = Loss::SoftmaxCrossEntropy.compute(&logits, &[1]).unwrap();
        assert!(loss > 5.0);
    }

    #[test]
    fn uniform_logits_give_log_of_class_count() {
        let logits = Matrix::zeros(1, 4);
        let loss = Loss::SoftmaxCrossEntropy.compute(&logits, &[2]).unwrap();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_shapes_match_logits() {
        let logits = Matrix::zeros(3, 5);
        let grad = Loss::SoftmaxCrossEntropy
            .gradient(&logits, &[0, 1, 2])
            .unwrap();
        assert_eq!(grad.shape(), (3, 5));
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.2, -0.4, 0.7]]).unwrap();
        let targets = [2usize];
        let grad = Loss::SoftmaxCrossEntropy
            .gradient(&logits, &targets)
            .unwrap();
        let eps = 1e-3_f32;
        for c in 0..3 {
            let mut lp = logits.clone();
            lp.set(0, c, logits.get(0, c) + eps);
            let mut lm = logits.clone();
            lm.set(0, c, logits.get(0, c) - eps);
            let numeric = (Loss::SoftmaxCrossEntropy.compute(&lp, &targets).unwrap()
                - Loss::SoftmaxCrossEntropy.compute(&lm, &targets).unwrap())
                / (2.0 * eps);
            assert!((numeric - grad.get(0, c)).abs() < 1e-3);
        }
    }

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let logits = Matrix::from_rows(&[vec![0.9, -0.3]]).unwrap();
        let targets = [0usize];
        let grad = Loss::MeanSquaredError.gradient(&logits, &targets).unwrap();
        let eps = 1e-3_f32;
        for c in 0..2 {
            let mut lp = logits.clone();
            lp.set(0, c, logits.get(0, c) + eps);
            let mut lm = logits.clone();
            lm.set(0, c, logits.get(0, c) - eps);
            let numeric = (Loss::MeanSquaredError.compute(&lp, &targets).unwrap()
                - Loss::MeanSquaredError.compute(&lm, &targets).unwrap())
                / (2.0 * eps);
            assert!((numeric - grad.get(0, c)).abs() < 1e-3);
        }
    }

    #[test]
    fn loss_and_gradient_into_matches_separate_calls() {
        let logits = Matrix::from_rows(&[vec![0.2, -0.4, 0.7], vec![3.0, 1.0, -2.0]]).unwrap();
        let targets = [2usize, 0];
        for loss in [Loss::SoftmaxCrossEntropy, Loss::MeanSquaredError] {
            // A stale buffer of the wrong shape is resized and overwritten.
            let mut grad = Matrix::filled(5, 1, 9.0);
            let value = loss
                .loss_and_gradient_into(&logits, &targets, &mut grad)
                .unwrap();
            let expected = loss.compute(&logits, &targets).unwrap();
            assert_eq!(value.to_bits(), expected.to_bits(), "{loss}");
            assert_eq!(grad, loss.gradient(&logits, &targets).unwrap(), "{loss}");
        }
    }

    #[test]
    fn rejects_target_length_mismatch() {
        let logits = Matrix::zeros(2, 2);
        assert!(Loss::SoftmaxCrossEntropy.compute(&logits, &[0]).is_err());
    }

    #[test]
    fn rejects_out_of_range_class() {
        let logits = Matrix::zeros(1, 2);
        assert!(matches!(
            Loss::SoftmaxCrossEntropy.compute(&logits, &[5]),
            Err(NnError::InvalidDataset { .. })
        ));
    }

    #[test]
    fn mse_loss_zero_for_exact_one_hot() {
        let logits = Matrix::from_rows(&[vec![1.0, 0.0, 0.0]]).unwrap();
        let loss = Loss::MeanSquaredError.compute(&logits, &[0]).unwrap();
        assert!(loss.abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn cross_entropy_is_non_negative(
            v in proptest::collection::vec(-10.0f32..10.0, 6),
            t in 0usize..3
        ) {
            let logits = Matrix::from_vec(2, 3, v).unwrap();
            let loss = Loss::SoftmaxCrossEntropy.compute(&logits, &[t, (t + 1) % 3]).unwrap();
            prop_assert!(loss >= 0.0);
            prop_assert!(loss.is_finite());
        }

        #[test]
        fn gradient_rows_of_cross_entropy_sum_to_zero(
            v in proptest::collection::vec(-5.0f32..5.0, 4),
            t in 0usize..4
        ) {
            let logits = Matrix::from_vec(1, 4, v).unwrap();
            let grad = Loss::SoftmaxCrossEntropy.gradient(&logits, &[t]).unwrap();
            let sum: f32 = grad.row(0).iter().sum();
            // softmax probabilities sum to 1 and the target subtracts exactly 1
            prop_assert!(sum.abs() < 1e-4);
        }
    }
}
