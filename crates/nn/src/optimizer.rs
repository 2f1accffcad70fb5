//! Gradient-descent optimizers.
//!
//! An [`Optimizer`] turns the raw parameter gradients of a training step
//! (one [`LayerGradient`] per layer) into a parameter update and applies it
//! to the [`Mlp`] in place, in one pass per layer: no update matrices are
//! materialised. Weight constraints (pruning masks, cluster snapping,
//! fake quantization) run after the step; see [`crate::Trainer`].

use crate::error::NnError;
use crate::layer::LayerGradient;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// Strategy that updates a network's parameters from its gradients.
///
/// Implementations may carry per-layer state (momentum buffers, Adam moments)
/// indexed by the layer's position, so one optimizer instance must only ever
/// be used with a single network.
pub trait Optimizer {
    /// Applies one update to every layer of `mlp` in place, from the raw
    /// gradients of one training step (one per layer, input to output).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the number of gradients
    /// differs from the number of layers, and [`NnError::ShapeMismatch`]
    /// when a gradient's shape differs from its layer's parameters.
    fn step(&mut self, mlp: &mut Mlp, gradients: &[LayerGradient]) -> Result<(), NnError>;

    /// Resets any internal state (momentum buffers etc.).
    fn reset(&mut self);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by learning-rate schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Checks that `gradients` has one entry per layer of `mlp`, each shaped
/// like that layer's parameters.
fn check_gradients(mlp: &Mlp, gradients: &[LayerGradient]) -> Result<(), NnError> {
    if gradients.len() != mlp.layers().len() {
        return Err(NnError::InvalidConfig {
            context: format!(
                "{} gradients for {} layers",
                gradients.len(),
                mlp.layers().len()
            ),
        });
    }
    for (layer, gradient) in mlp.layers().iter().zip(gradients) {
        if gradient.weights.shape() != layer.weights().shape() {
            return Err(NnError::ShapeMismatch {
                context: "weight gradient".into(),
                left: gradient.weights.shape(),
                right: layer.weights().shape(),
            });
        }
        if gradient.biases.len() != layer.biases().len() {
            return Err(NnError::ShapeMismatch {
                context: "bias gradient".into(),
                left: (1, gradient.biases.len()),
                right: (1, layer.biases().len()),
            });
        }
    }
    Ok(())
}

/// Plain stochastic gradient descent: `p <- p - lr * grad`.
///
/// # Example
///
/// ```
/// use pmlp_nn::{Sgd, Optimizer};
/// let opt = Sgd::new(0.05);
/// assert_eq!(opt.learning_rate(), 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates a new SGD optimizer with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Default for Sgd {
    fn default() -> Self {
        Sgd::new(0.1)
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, mlp: &mut Mlp, gradients: &[LayerGradient]) -> Result<(), NnError> {
        check_gradients(mlp, gradients)?;
        let lr = self.lr;
        for (layer, gradient) in mlp.layers_mut().iter_mut().zip(gradients) {
            for (w, &g) in layer
                .weights_mut()
                .as_mut_slice()
                .iter_mut()
                .zip(gradient.weights.as_slice())
            {
                *w -= g * lr;
            }
            for (b, &g) in layer.biases_mut().iter_mut().zip(&gradient.biases) {
                *b -= g * lr;
            }
        }
        Ok(())
    }

    fn reset(&mut self) {}

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// SGD with classical momentum: `v <- mu v + grad; p <- p - lr * v`.
#[derive(Debug, Clone, Default)]
pub struct Momentum {
    lr: f32,
    mu: f32,
    velocity: Vec<LayerGradient>,
}

impl Momentum {
    /// Creates a momentum optimizer with learning rate `lr` and momentum `mu`.
    pub fn new(lr: f32, mu: f32) -> Self {
        Momentum {
            lr,
            mu,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Momentum {
    fn step(&mut self, mlp: &mut Mlp, gradients: &[LayerGradient]) -> Result<(), NnError> {
        check_gradients(mlp, gradients)?;
        let (lr, mu) = (self.lr, self.mu);
        if self.velocity.is_empty() {
            // The first velocity is the gradient itself.
            self.velocity = gradients.to_vec();
        } else {
            for (velocity, gradient) in self.velocity.iter_mut().zip(gradients) {
                for (v, &g) in velocity
                    .weights
                    .as_mut_slice()
                    .iter_mut()
                    .zip(gradient.weights.as_slice())
                {
                    *v = mu * *v + g;
                }
                for (v, &g) in velocity.biases.iter_mut().zip(&gradient.biases) {
                    *v = mu * *v + g;
                }
            }
        }
        for (layer, velocity) in mlp.layers_mut().iter_mut().zip(&self.velocity) {
            for (w, &v) in layer
                .weights_mut()
                .as_mut_slice()
                .iter_mut()
                .zip(velocity.weights.as_slice())
            {
                *w -= v * lr;
            }
            for (b, &v) in layer.biases_mut().iter_mut().zip(&velocity.biases) {
                *b -= v * lr;
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    first_moment: Vec<LayerGradient>,
    second_moment: Vec<LayerGradient>,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and the standard
    /// default hyper-parameters (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    pub fn new(lr: f32) -> Self {
        Adam::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with fully explicit hyper-parameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, epsilon: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            epsilon,
            t: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }
}

impl Default for Adam {
    fn default() -> Self {
        Adam::new(0.01)
    }
}

impl Optimizer for Adam {
    /// One fused pass per parameter: both moments are updated in place and
    /// the bias-corrected update `lr * m_hat / (v_hat.sqrt() + eps)` is
    /// subtracted from the parameter straight away. Every element sees the
    /// textbook arithmetic in the textbook order.
    fn step(&mut self, mlp: &mut Mlp, gradients: &[LayerGradient]) -> Result<(), NnError> {
        check_gradients(mlp, gradients)?;
        if self.first_moment.is_empty() {
            let zeros: Vec<LayerGradient> = gradients
                .iter()
                .map(|g| LayerGradient {
                    weights: Matrix::zeros(g.weights.rows(), g.weights.cols()),
                    biases: vec![0.0; g.biases.len()],
                })
                .collect();
            self.first_moment = zeros.clone();
            self.second_moment = zeros;
        }
        self.t += 1;
        let t = self.t as f32;
        let (beta1, beta2) = (self.beta1, self.beta2);
        let bias1 = 1.0 - beta1.powf(t);
        let bias2 = 1.0 - beta2.powf(t);
        let (lr, eps) = (self.lr, self.epsilon);
        let adamize = |m: f32, v: f32| -> f32 {
            let m_hat = m / bias1;
            let v_hat = v / bias2;
            lr * m_hat / (v_hat.sqrt() + eps)
        };

        for (((layer, gradient), m), v) in mlp
            .layers_mut()
            .iter_mut()
            .zip(gradients)
            .zip(&mut self.first_moment)
            .zip(&mut self.second_moment)
        {
            for (((w, &g), m), v) in layer
                .weights_mut()
                .as_mut_slice()
                .iter_mut()
                .zip(gradient.weights.as_slice())
                .zip(m.weights.as_mut_slice())
                .zip(v.weights.as_mut_slice())
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (g * g) * (1.0 - beta2);
                *w -= adamize(*m, *v);
            }
            for (((b, &g), m), v) in layer
                .biases_mut()
                .iter_mut()
                .zip(&gradient.biases)
                .zip(&mut m.biases)
                .zip(&mut v.biases)
            {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                *b -= adamize(*m, *v);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.t = 0;
        self.first_moment.clear();
        self.second_moment.clear();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::DenseLayer;

    /// A network of `layers` 2x2 layers with every parameter at `value`.
    fn network(layers: usize, value: f32) -> Mlp {
        Mlp::from_layers(
            (0..layers)
                .map(|_| {
                    DenseLayer::from_parameters(
                        Matrix::filled(2, 2, value),
                        vec![value; 2],
                        Activation::Identity,
                    )
                    .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    fn gradient(value: f32) -> LayerGradient {
        LayerGradient {
            weights: Matrix::filled(2, 2, value),
            biases: vec![value; 2],
        }
    }

    /// The change one step made to `(weight, bias)` of `layer`.
    fn moved(before: &Mlp, after: &Mlp, layer: usize) -> (f32, f32) {
        let (b, a) = (&before.layers()[layer], &after.layers()[layer]);
        (
            b.weights().get(0, 0) - a.weights().get(0, 0),
            b.biases()[0] - a.biases()[0],
        )
    }

    /// Runs one step from a copy of `mlp`; returns the parameter change of
    /// layer 0 and the stepped network.
    fn step(opt: &mut dyn Optimizer, mlp: &Mlp, grads: &[LayerGradient]) -> ((f32, f32), Mlp) {
        let mut after = mlp.clone();
        opt.step(&mut after, grads).unwrap();
        (moved(mlp, &after, 0), after)
    }

    #[test]
    fn sgd_scales_gradient_by_learning_rate() {
        let mut opt = Sgd::new(0.5);
        let (change, after) = step(&mut opt, &network(1, 3.0), &[gradient(2.0)]);
        assert_eq!(change, (1.0, 1.0));
        assert_eq!(after.layers()[0].weights(), &Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = Momentum::new(1.0, 0.5);
        let (u1, after) = step(&mut opt, &network(1, 0.0), &[gradient(1.0)]);
        let (u2, _) = step(&mut opt, &after, &[gradient(1.0)]);
        // v1 = 1, v2 = 0.5*1 + 1 = 1.5
        assert_eq!(u1.0, 1.0);
        assert_eq!(u2.0, 1.5);
    }

    #[test]
    fn momentum_layers_do_not_interfere() {
        let mut opt = Momentum::new(1.0, 0.9);
        let mlp = network(2, 0.0);
        let mut after = mlp.clone();
        opt.step(&mut after, &[gradient(1.0), gradient(4.0)])
            .unwrap();
        // Each layer's first update is its own gradient.
        assert_eq!(moved(&mlp, &after, 0), (1.0, 1.0));
        assert_eq!(moved(&mlp, &after, 1), (4.0, 4.0));
    }

    #[test]
    fn momentum_reset_clears_velocity() {
        let mut opt = Momentum::new(1.0, 0.5);
        let (_, after) = step(&mut opt, &network(1, 0.0), &[gradient(1.0)]);
        opt.reset();
        let (u, _) = step(&mut opt, &after, &[gradient(1.0)]);
        assert_eq!(u.0, 1.0);
    }

    #[test]
    fn adam_first_step_is_close_to_learning_rate() {
        // With bias correction, the very first Adam update has magnitude ~lr
        // regardless of gradient scale.
        let mlp = network(1, 0.0);
        let (update, _) = step(&mut Adam::new(0.01), &mlp, &[gradient(5.0)]);
        assert!((update.0 - 0.01).abs() < 1e-3);
        let (update2, _) = step(&mut Adam::new(0.01), &mlp, &[gradient(0.001)]);
        assert!((update2.0 - 0.01).abs() < 1e-3);
    }

    #[test]
    fn adam_update_sign_follows_gradient_sign() {
        let (update, _) = step(&mut Adam::new(0.01), &network(1, 0.0), &[gradient(-3.0)]);
        assert!(update.0 < 0.0);
        assert!(update.1 < 0.0);
    }

    #[test]
    fn adam_step_matches_textbook_update_bit_for_bit() {
        let mut opt = Adam::new(0.01);
        let mut mlp = network(1, 0.25);
        let grads = [gradient(0.3), gradient(-0.7)];
        let (mut m, mut v, mut w) = (0.0_f32, 0.0_f32, 0.25_f32);
        for (t, g) in grads.iter().enumerate() {
            opt.step(&mut mlp, std::slice::from_ref(g)).unwrap();
            let g = g.weights.get(0, 0);
            m = 0.9 * m + (1.0 - 0.9) * g;
            v = 0.999 * v + (g * g) * (1.0 - 0.999);
            let t = (t + 1) as f32;
            let m_hat = m / (1.0 - 0.9_f32.powf(t));
            let v_hat = v / (1.0 - 0.999_f32.powf(t));
            w -= 0.01 * m_hat / (v_hat.sqrt() + 1e-8);
            assert_eq!(mlp.layers()[0].weights().get(0, 0).to_bits(), w.to_bits());
        }
    }

    #[test]
    fn learning_rate_can_be_adjusted() {
        let mut opt: Box<dyn Optimizer> = Box::new(Adam::new(0.01));
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    fn adam_reset_restores_initial_behaviour() {
        let mut opt = Adam::new(0.01);
        let mlp = network(1, 0.0);
        let (first, mut after) = step(&mut opt, &mlp, &[gradient(1.0)]);
        for _ in 0..5 {
            after = step(&mut opt, &after, &[gradient(1.0)]).1;
        }
        opt.reset();
        let (after_reset, _) = step(&mut opt, &mlp, &[gradient(1.0)]);
        assert!((first.0 - after_reset.0).abs() < 1e-6);
    }

    #[test]
    fn step_moves_parameters_in_negative_gradient_direction() {
        let mut mlp = network(1, 1.0);
        Sgd::new(1.0)
            .step(
                &mut mlp,
                &[LayerGradient {
                    weights: Matrix::filled(2, 2, 0.25),
                    biases: vec![0.5; 2],
                }],
            )
            .unwrap();
        assert_eq!(mlp.layers()[0].weights().get(0, 0), 0.75);
        assert_eq!(mlp.layers()[0].biases()[0], 0.5);
    }

    #[test]
    fn step_rejects_mismatched_gradient_shapes() {
        let bad_weights = LayerGradient {
            weights: Matrix::zeros(3, 2),
            biases: vec![0.0; 2],
        };
        let bad_biases = LayerGradient {
            weights: Matrix::zeros(2, 2),
            biases: vec![0.0; 3],
        };
        for bad in [bad_weights, bad_biases] {
            let grads = [bad];
            assert!(Sgd::new(0.1).step(&mut network(1, 0.0), &grads).is_err());
            assert!(Momentum::new(0.1, 0.9)
                .step(&mut network(1, 0.0), &grads)
                .is_err());
            assert!(Adam::new(0.1).step(&mut network(1, 0.0), &grads).is_err());
        }
    }

    #[test]
    fn step_validates_gradient_count() {
        let mut mlp = network(2, 0.0);
        assert!(Adam::new(0.1).step(&mut mlp, &[gradient(1.0)]).is_err());
        assert!(Sgd::new(0.1).step(&mut mlp, &[]).is_err());
    }
}
