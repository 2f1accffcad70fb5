//! Dense (fully-connected) layer with forward and backward passes.

use crate::activation::Activation;
use crate::error::NnError;
use crate::init::WeightInit;
use crate::matrix::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer computing `y = act(x W + b)`.
///
/// Weights are stored as an `inputs x outputs` matrix so that a batch of
/// samples (one per row) can be pushed through with a single matrix product.
///
/// # Example
///
/// ```
/// use pmlp_nn::{DenseLayer, Activation, WeightInit, Matrix};
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(3);
/// let layer = DenseLayer::new(3, 2, Activation::ReLU, WeightInit::XavierUniform, &mut rng)?;
/// let x = Matrix::from_rows(&[vec![0.1, -0.2, 0.3]])?;
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), (1, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct DenseLayer {
    weights: Matrix,
    biases: Vec<f32>,
    activation: Activation,
}

impl Clone for DenseLayer {
    fn clone(&self) -> Self {
        DenseLayer {
            weights: self.weights.clone(),
            biases: self.biases.clone(),
            activation: self.activation,
        }
    }

    /// Reuses the existing allocations — the trainer copies the best model
    /// seen into one persistent model.
    fn clone_from(&mut self, source: &Self) {
        self.weights.clone_from(&source.weights);
        self.biases.clone_from(&source.biases);
        self.activation = source.activation;
    }
}

/// Gradients of the loss with respect to one layer's parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerGradient {
    /// Gradient w.r.t. the weight matrix (inputs x outputs).
    pub weights: Matrix,
    /// Gradient w.r.t. the bias vector (length = outputs).
    pub biases: Vec<f32>,
}

/// One layer's training buffers, written by [`DenseLayer::forward_train`]
/// and [`DenseLayer::backward_into`]. The trainer keeps one set per layer
/// for a whole run (inside [`crate::MlpScratch`]), so a training step
/// allocates nothing once the buffers have their size.
#[derive(Debug, Clone, Default)]
pub(crate) struct LayerBuffers {
    /// Pre-activation values `x W + b` (batch x outputs).
    pub(crate) pre_activation: Matrix,
    /// Activations `act(x W + b)` (batch x outputs).
    pub(crate) output: Matrix,
    /// Gradient of the loss (batch x outputs): w.r.t. [`Self::output`] on
    /// entry to [`DenseLayer::backward_into`], w.r.t.
    /// [`Self::pre_activation`] after it.
    pub(crate) grad: Matrix,
    input_t: Matrix,
    weights_t: Matrix,
}

impl DenseLayer {
    /// Creates a layer with `inputs` inputs and `outputs` outputs.
    ///
    /// Biases start at zero; weights follow `init`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDimension`] when `inputs` or `outputs` is zero.
    pub fn new<R: Rng + ?Sized>(
        inputs: usize,
        outputs: usize,
        activation: Activation,
        init: WeightInit,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        if inputs == 0 || outputs == 0 {
            return Err(NnError::InvalidDimension {
                context: format!("dense layer must have non-zero size, got {inputs}x{outputs}"),
            });
        }
        Ok(DenseLayer {
            weights: init.matrix(inputs, outputs, rng),
            biases: vec![0.0; outputs],
            activation,
        })
    }

    /// Builds a layer directly from a weight matrix and bias vector.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `biases.len() != weights.cols()`.
    pub fn from_parameters(
        weights: Matrix,
        biases: Vec<f32>,
        activation: Activation,
    ) -> Result<Self, NnError> {
        if biases.len() != weights.cols() {
            return Err(NnError::ShapeMismatch {
                context: "dense layer biases".into(),
                left: weights.shape(),
                right: (1, biases.len()),
            });
        }
        Ok(DenseLayer {
            weights,
            biases,
            activation,
        })
    }

    /// Number of inputs (fan-in).
    pub fn inputs(&self) -> usize {
        self.weights.rows()
    }

    /// Number of outputs (fan-out, i.e. neurons in this layer).
    pub fn outputs(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weight matrix (inputs x outputs).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable access to the weight matrix (used by minimization passes that
    /// rewrite weights in place, e.g. pruning masks and clustering).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Immutable access to the bias vector.
    pub fn biases(&self) -> &[f32] {
        &self.biases
    }

    /// Mutable access to the bias vector.
    pub fn biases_mut(&mut self) -> &mut [f32] {
        &mut self.biases
    }

    /// Replaces the activation function.
    pub fn set_activation(&mut self, activation: Activation) {
        self.activation = activation;
    }

    /// Total number of weight parameters (excluding biases).
    pub fn weight_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of weights equal to exactly zero (pruned connections).
    pub fn zero_weight_count(&self) -> usize {
        self.weights.count_zeros()
    }

    /// Forward pass for a batch: `act(x W + b)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let mut out = Matrix::default();
        self.forward_into(x, &mut out)?;
        Ok(out)
    }

    /// Inference forward pass into a caller-owned matrix, reusing its
    /// allocation: one matrix product, then bias and activation fused into
    /// one in-place pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub(crate) fn forward_into(&self, x: &Matrix, out: &mut Matrix) -> Result<(), NnError> {
        x.matmul_into(&self.weights, out)?;
        let activation = self.activation;
        for row in out.as_mut_slice().chunks_exact_mut(self.biases.len()) {
            for (v, &b) in row.iter_mut().zip(&self.biases) {
                *v = activation.apply(*v + b);
            }
        }
        Ok(())
    }

    /// Training forward pass: writes `x W + b` into
    /// [`LayerBuffers::pre_activation`] and its activation into
    /// [`LayerBuffers::output`], with bias and activation fused into one
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.inputs()`.
    pub(crate) fn forward_train(
        &self,
        x: &Matrix,
        buffers: &mut LayerBuffers,
    ) -> Result<(), NnError> {
        let pre = &mut buffers.pre_activation;
        x.matmul_into(&self.weights, pre)?;
        buffers.output.resize(pre.rows(), pre.cols());
        let activation = self.activation;
        let width = self.biases.len();
        for (pre_row, out_row) in pre
            .as_mut_slice()
            .chunks_exact_mut(width)
            .zip(buffers.output.as_mut_slice().chunks_exact_mut(width))
        {
            for ((p, o), &b) in pre_row.iter_mut().zip(out_row).zip(&self.biases) {
                *p += b;
                *o = activation.apply(*p);
            }
        }
        Ok(())
    }

    /// Backward pass over the buffers of the matching
    /// [`DenseLayer::forward_train`] call, whose input was `x`.
    ///
    /// On entry `buffers.grad` holds the gradient of the loss w.r.t. this
    /// layer's activations. The activation derivative is folded into it in
    /// place (leaving `dL/dpre`), the parameter gradients are written into
    /// `gradient`, and, when `grad_input` is given, `dL/dx` is written into
    /// it. The first layer of a network passes `None`: nothing consumes its
    /// input gradient, and that product is a quarter of its backward work.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `buffers.grad` does not match
    /// the pre-activation shape or `x` does not match the batch.
    pub(crate) fn backward_into(
        &self,
        x: &Matrix,
        buffers: &mut LayerBuffers,
        gradient: &mut LayerGradient,
        grad_input: Option<&mut Matrix>,
    ) -> Result<(), NnError> {
        let dpre = &mut buffers.grad;
        if dpre.shape() != buffers.pre_activation.shape() {
            return Err(NnError::ShapeMismatch {
                context: "dense backward".into(),
                left: dpre.shape(),
                right: buffers.pre_activation.shape(),
            });
        }
        if x.shape() != (dpre.rows(), self.inputs()) {
            return Err(NnError::ShapeMismatch {
                context: "dense backward input".into(),
                left: x.shape(),
                right: (dpre.rows(), self.inputs()),
            });
        }
        // dL/dpre = dL/dout * act'(pre), in place.
        for (g, &pre) in dpre
            .as_mut_slice()
            .iter_mut()
            .zip(buffers.pre_activation.as_slice())
        {
            *g *= self.activation.derivative(pre);
        }
        // dL/dW = x^T dpre ; dL/db = column sums of dpre
        x.transpose_into(&mut buffers.input_t);
        buffers.input_t.matmul_into(dpre, &mut gradient.weights)?;
        dpre.sum_rows_into(&mut gradient.biases);
        // dL/dx = dpre W^T
        if let Some(grad_input) = grad_input {
            self.weights.transpose_into(&mut buffers.weights_t);
            dpre.matmul_into(&buffers.weights_t, grad_input)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(inputs: usize, outputs: usize, act: Activation) -> DenseLayer {
        let mut rng = StdRng::seed_from_u64(11);
        DenseLayer::new(inputs, outputs, act, WeightInit::XavierUniform, &mut rng).unwrap()
    }

    #[test]
    fn rejects_zero_sized_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(DenseLayer::new(0, 4, Activation::ReLU, WeightInit::Zeros, &mut rng).is_err());
        assert!(DenseLayer::new(4, 0, Activation::ReLU, WeightInit::Zeros, &mut rng).is_err());
    }

    #[test]
    fn forward_shape_is_batch_by_outputs() {
        let l = layer(5, 3, Activation::ReLU);
        let x = Matrix::zeros(7, 5);
        assert_eq!(l.forward(&x).unwrap().shape(), (7, 3));
    }

    #[test]
    fn forward_rejects_wrong_input_width() {
        let l = layer(5, 3, Activation::ReLU);
        let x = Matrix::zeros(7, 4);
        assert!(l.forward(&x).is_err());
    }

    #[test]
    fn identity_layer_with_known_weights_computes_affine_map() {
        let w = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0]]).unwrap();
        let l = DenseLayer::from_parameters(w, vec![1.0, -1.0], Activation::Identity).unwrap();
        let x = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.row(0), &[4.0, 7.0]);
    }

    #[test]
    fn relu_layer_zeroes_negative_preactivations() {
        let w = Matrix::from_rows(&[vec![1.0]]).unwrap();
        let l = DenseLayer::from_parameters(w, vec![0.0], Activation::ReLU).unwrap();
        let x = Matrix::from_rows(&[vec![-5.0], vec![5.0]]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.column(0), vec![0.0, 5.0]);
    }

    #[test]
    fn from_parameters_validates_bias_length() {
        let w = Matrix::zeros(2, 3);
        assert!(DenseLayer::from_parameters(w, vec![0.0; 2], Activation::ReLU).is_err());
    }

    /// Forward + backward of `l` on `x` with `dL/dout = 1` (i.e.
    /// `L = sum(y)`); returns the parameter and input gradients.
    fn sum_loss_gradients(l: &DenseLayer, x: &Matrix) -> (LayerGradient, Matrix) {
        let mut buffers = LayerBuffers::default();
        l.forward_train(x, &mut buffers).unwrap();
        buffers.grad = Matrix::filled(x.rows(), l.outputs(), 1.0);
        let mut grads = LayerGradient::default();
        let mut grad_in = Matrix::default();
        l.backward_into(x, &mut buffers, &mut grads, Some(&mut grad_in))
            .unwrap();
        (grads, grad_in)
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        // Single sample, identity activation, check dL/dW numerically with
        // L = sum(y).
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = DenseLayer::new(
            3,
            2,
            Activation::Identity,
            WeightInit::XavierUniform,
            &mut rng,
        )
        .unwrap();
        let x = Matrix::from_rows(&[vec![0.3, -0.7, 0.2]]).unwrap();
        let (grads, _) = sum_loss_gradients(&l, &x);
        assert_eq!(grads.biases, vec![1.0, 1.0]);

        let eps = 1e-3_f32;
        for r in 0..3 {
            for c in 0..2 {
                let orig = l.weights().get(r, c);
                l.weights_mut().set(r, c, orig + eps);
                let plus = l.forward(&x).unwrap().sum();
                l.weights_mut().set(r, c, orig - eps);
                let minus = l.forward(&x).unwrap().sum();
                l.weights_mut().set(r, c, orig);
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = grads.weights.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "dW[{r},{c}] numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(6);
        let l =
            DenseLayer::new(3, 2, Activation::Tanh, WeightInit::XavierUniform, &mut rng).unwrap();
        let x = Matrix::from_rows(&[vec![0.5, -0.1, 0.9]]).unwrap();
        let (_, grad_in) = sum_loss_gradients(&l, &x);

        let eps = 1e-3_f32;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let numeric =
                (l.forward(&xp).unwrap().sum() - l.forward(&xm).unwrap().sum()) / (2.0 * eps);
            assert!((numeric - grad_in.get(0, c)).abs() < 1e-2);
        }
    }

    #[test]
    fn forward_train_matches_forward_bit_for_bit() {
        let l = layer(4, 3, Activation::Tanh);
        let x = Matrix::from_rows(&[vec![0.5, -0.1, 0.9, 2.0], vec![-1.0, 0.3, 0.0, 0.7]]).unwrap();
        let mut buffers = LayerBuffers::default();
        l.forward_train(&x, &mut buffers).unwrap();
        assert_eq!(buffers.output, l.forward(&x).unwrap());
        let pre = x.matmul(l.weights()).unwrap();
        let pre = pre.add_row_broadcast(l.biases()).unwrap();
        assert_eq!(buffers.pre_activation, pre);
    }

    #[test]
    fn backward_rejects_mismatched_buffers() {
        let l = layer(2, 2, Activation::ReLU);
        let x = Matrix::zeros(3, 2);
        let mut buffers = LayerBuffers::default();
        l.forward_train(&x, &mut buffers).unwrap();
        let mut grads = LayerGradient::default();
        buffers.grad = Matrix::zeros(2, 2);
        assert!(l.backward_into(&x, &mut buffers, &mut grads, None).is_err());
        buffers.grad = Matrix::zeros(3, 2);
        let wrong_x = Matrix::zeros(3, 5);
        assert!(l
            .backward_into(&wrong_x, &mut buffers, &mut grads, None)
            .is_err());
    }

    #[test]
    fn zero_weight_count_tracks_pruning() {
        let mut l = layer(4, 4, Activation::ReLU);
        assert_eq!(l.zero_weight_count(), 0);
        l.weights_mut().set(0, 0, 0.0);
        l.weights_mut().set(1, 2, 0.0);
        assert_eq!(l.zero_weight_count(), 2);
    }
}
