//! Activation functions and their derivatives.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Activation function applied element-wise after a dense layer.
///
/// Printed bespoke MLPs favour activations that map to cheap hardware:
/// [`Activation::ReLU`] is a comparator + mux, [`Activation::HardSigmoid`] and
/// [`Activation::HardTanh`] are clamped linear segments. [`Activation::Sigmoid`]
/// and [`Activation::Tanh`] are included for software baselines, and
/// [`Activation::Identity`] is used on output layers trained with a softmax
/// cross-entropy loss.
///
/// # Example
///
/// ```
/// use pmlp_nn::Activation;
///
/// assert_eq!(Activation::ReLU.apply(-1.5), 0.0);
/// assert_eq!(Activation::ReLU.apply(2.0), 2.0);
/// assert_eq!(Activation::ReLU.derivative(2.0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    #[default]
    ReLU,
    /// Logistic sigmoid, `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Piecewise-linear sigmoid approximation `clamp(0.2 x + 0.5, 0, 1)` —
    /// hardware friendly (shift and add only).
    HardSigmoid,
    /// Piecewise-linear tanh approximation `clamp(x, -1, 1)`.
    HardTanh,
    /// Identity (no activation); typically used before a softmax loss.
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::HardSigmoid => (0.2 * x + 0.5).clamp(0.0, 1.0),
            Activation::HardTanh => x.clamp(-1.0, 1.0),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation with respect to its pre-activation input.
    ///
    /// For the piecewise-linear activations the derivative at the kink points
    /// follows the usual sub-gradient convention used for training (the value
    /// of the right-continuous branch).
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = Activation::Sigmoid.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::HardSigmoid => {
                if (-2.5..=2.5).contains(&x) {
                    0.2
                } else {
                    0.0
                }
            }
            Activation::HardTanh => {
                if (-1.0..=1.0).contains(&x) {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Identity => 1.0,
        }
    }

    /// Applies the activation to every element of a matrix.
    pub fn apply_matrix(self, m: &Matrix) -> Matrix {
        m.map(|x| self.apply(x))
    }

    /// Element-wise derivative over a matrix of pre-activations.
    pub fn derivative_matrix(self, m: &Matrix) -> Matrix {
        m.map(|x| self.derivative(x))
    }

    /// `true` when the activation is implementable with comparators, muxes and
    /// shifts only (no exponentials), i.e. suitable for bespoke printed
    /// hardware.
    pub fn is_hardware_friendly(self) -> bool {
        matches!(
            self,
            Activation::ReLU
                | Activation::HardSigmoid
                | Activation::HardTanh
                | Activation::Identity
        )
    }

    /// All supported activations, useful for exhaustive sweeps and tests.
    pub fn all() -> [Activation; 6] {
        [
            Activation::ReLU,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::HardSigmoid,
            Activation::HardTanh,
            Activation::Identity,
        ]
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::ReLU => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::HardSigmoid => "hard_sigmoid",
            Activation::HardTanh => "hard_tanh",
            Activation::Identity => "identity",
        };
        f.write_str(name)
    }
}

/// Row-wise softmax with the usual max-subtraction for numerical stability.
///
/// # Example
///
/// ```
/// use pmlp_nn::{Matrix, activation::softmax_rows};
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let logits = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]])?;
/// let probs = softmax_rows(&logits);
/// let sum: f32 = probs.row(0).iter().sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// [`softmax_rows`] in place: replaces every row of `m` by its softmax.
pub(crate) fn softmax_rows_inplace(m: &mut Matrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negative_values() {
        assert_eq!(Activation::ReLU.apply(-3.0), 0.0);
        assert_eq!(Activation::ReLU.apply(0.0), 0.0);
        assert_eq!(Activation::ReLU.apply(4.5), 4.5);
    }

    #[test]
    fn sigmoid_is_bounded_and_symmetric() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(s.apply(10.0) > 0.999);
        assert!(s.apply(-10.0) < 0.001);
        assert!((s.apply(2.0) + s.apply(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_matches_std() {
        assert!((Activation::Tanh.apply(0.7) - 0.7f32.tanh()).abs() < 1e-7);
    }

    #[test]
    fn hard_sigmoid_clamps() {
        let h = Activation::HardSigmoid;
        assert_eq!(h.apply(-10.0), 0.0);
        assert_eq!(h.apply(10.0), 1.0);
        assert!((h.apply(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn hard_tanh_clamps() {
        let h = Activation::HardTanh;
        assert_eq!(h.apply(-3.0), -1.0);
        assert_eq!(h.apply(3.0), 1.0);
        assert_eq!(h.apply(0.25), 0.25);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3_f32;
        for act in Activation::all() {
            // Avoid the kink points of the piecewise-linear activations.
            for &x in &[-2.0f32, -0.7, 0.3, 1.7] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act}: derivative mismatch at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn hardware_friendly_classification() {
        assert!(Activation::ReLU.is_hardware_friendly());
        assert!(Activation::HardSigmoid.is_hardware_friendly());
        assert!(!Activation::Sigmoid.is_hardware_friendly());
        assert!(!Activation::Tanh.is_hardware_friendly());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let logits = Matrix::from_rows(&[vec![1.0, 3.0, 2.0], vec![-1.0, -1.0, -1.0]]).unwrap();
        let p = softmax_rows(&logits);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!(p.argmax_rows()[0], 1);
        assert!(p.row(0)[1] > p.row(0)[2]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = Matrix::from_rows(&[vec![1000.0, 1001.0]]).unwrap();
        let p = softmax_rows(&logits);
        assert!(p.row(0).iter().all(|x| x.is_finite()));
        assert!(p.row(0)[1] > p.row(0)[0]);
    }

    #[test]
    fn display_names_are_snake_case() {
        assert_eq!(Activation::HardSigmoid.to_string(), "hard_sigmoid");
        assert_eq!(Activation::ReLU.to_string(), "relu");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn relu_output_is_non_negative(x in -100.0f32..100.0) {
            prop_assert!(Activation::ReLU.apply(x) >= 0.0);
        }

        #[test]
        fn sigmoid_output_in_unit_interval(x in -50.0f32..50.0) {
            let y = Activation::Sigmoid.apply(x);
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn hard_variants_are_bounded(x in -50.0f32..50.0) {
            prop_assert!((0.0..=1.0).contains(&Activation::HardSigmoid.apply(x)));
            prop_assert!((-1.0..=1.0).contains(&Activation::HardTanh.apply(x)));
        }

        #[test]
        fn softmax_rows_are_probability_distributions(
            v in proptest::collection::vec(-20.0f32..20.0, 5)
        ) {
            let m = Matrix::from_rows(&[v]).unwrap();
            let p = softmax_rows(&m);
            let sum: f32 = p.row(0).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(0).iter().all(|&x| x >= 0.0));
        }
    }
}
