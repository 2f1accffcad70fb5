//! The multilayer perceptron model and its builder.

use crate::activation::Activation;
use crate::dataset::Dataset;
use crate::error::NnError;
use crate::init::WeightInit;
use crate::layer::{DenseLayer, LayerBuffers, LayerGradient};
use crate::loss::Loss;
use crate::matrix::{argmax, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward multilayer perceptron.
///
/// The model is a plain sequence of [`DenseLayer`]s. The output layer
/// produces raw logits (use [`Mlp::predict`] for class decisions); training
/// with a softmax cross-entropy loss is handled by [`crate::Trainer`].
///
/// # Example
///
/// ```
/// use pmlp_nn::{MlpBuilder, Activation, Matrix};
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = MlpBuilder::new(4)
///     .hidden(10, Activation::ReLU)
///     .output(3)
///     .build(&mut rng)?;
/// assert_eq!(mlp.input_size(), 4);
/// assert_eq!(mlp.output_size(), 3);
/// let x = Matrix::zeros(2, 4);
/// assert_eq!(mlp.forward(&x)?.shape(), (2, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Clone for Mlp {
    fn clone(&self) -> Self {
        Mlp {
            layers: self.layers.clone(),
        }
    }

    /// Reuses every layer's allocations — best-model tracking copies the
    /// model into one persistent copy whenever validation accuracy improves.
    fn clone_from(&mut self, source: &Self) {
        self.layers.clone_from(&source.layers);
    }
}

/// Reusable buffers of one network's training step: per layer, the
/// pre-activations, activations and gradient buffers, and one
/// [`LayerGradient`]. The trainer's accuracy passes reuse them too. Sized
/// lazily on first use, so one `MlpScratch::default()` serves any model;
/// after the first step of a given shape, [`Mlp::compute_gradients`]
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    layers: Vec<LayerBuffers>,
    gradients: Vec<LayerGradient>,
}

impl MlpScratch {
    /// Parameter gradients of the last [`Mlp::compute_gradients`] call, one
    /// per layer, input to output.
    pub fn gradients(&self) -> &[LayerGradient] {
        &self.gradients
    }

    /// Mutable gradients, for terms the trainer adds (weight decay).
    pub(crate) fn gradients_mut(&mut self) -> &mut [LayerGradient] {
        &mut self.gradients
    }

    /// Logits of the last forward pass through these buffers.
    ///
    /// # Panics
    ///
    /// Panics when no pass has run yet.
    pub(crate) fn logits(&self) -> &Matrix {
        &self.layers.last().expect("no forward pass has run").output
    }

    fn fit_to(&mut self, layer_count: usize) {
        if self.layers.len() != layer_count {
            self.layers.clear();
            self.layers.resize_with(layer_count, LayerBuffers::default);
            self.gradients.clear();
            self.gradients
                .resize_with(layer_count, LayerGradient::default);
        }
    }
}

impl Mlp {
    /// Builds an MLP from pre-constructed layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `layers` is empty or consecutive
    /// layer sizes do not chain (`layer[i].outputs() != layer[i+1].inputs()`).
    pub fn from_layers(layers: Vec<DenseLayer>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig {
                context: "mlp needs at least one layer".into(),
            });
        }
        for (i, pair) in layers.windows(2).enumerate() {
            if pair[0].outputs() != pair[1].inputs() {
                return Err(NnError::InvalidConfig {
                    context: format!(
                        "layer {i} has {} outputs but layer {} expects {} inputs",
                        pair[0].outputs(),
                        i + 1,
                        pair[1].inputs()
                    ),
                });
            }
        }
        Ok(Mlp { layers })
    }

    /// Number of input features.
    pub fn input_size(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Number of output classes (logits).
    pub fn output_size(&self) -> usize {
        self.layers
            .last()
            .expect("mlp has at least one layer")
            .outputs()
    }

    /// The layers of the network, input to output.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable access to the layers; used by the minimization passes.
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// Layer sizes as `[inputs, hidden..., outputs]` (the paper's topology
    /// notation, e.g. `[11, 30, 7]` for a WhiteWine MLP).
    pub fn topology(&self) -> Vec<usize> {
        let mut t = vec![self.input_size()];
        t.extend(self.layers.iter().map(|l| l.outputs()));
        t
    }

    /// Total number of weights across all layers (excluding biases).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.weight_count()).sum()
    }

    /// Total number of weights equal to exactly zero (pruned connections).
    pub fn zero_weight_count(&self) -> usize {
        self.layers.iter().map(|l| l.zero_weight_count()).sum()
    }

    /// Overall sparsity: fraction of weights that are zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        if self.weight_count() == 0 {
            0.0
        } else {
            self.zero_weight_count() as f64 / self.weight_count() as f64
        }
    }

    /// Forward pass producing raw logits for a batch (one sample per row).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != self.input_size()`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let (first, rest) = self
            .layers
            .split_first()
            .expect("mlp has at least one layer");
        let mut out = first.forward(x)?;
        for layer in rest {
            out = layer.forward(&out)?;
        }
        Ok(out)
    }

    /// One training step's gradients, without allocating: forward pass of
    /// `x` into `scratch`, `loss` against `targets` and its gradient, then
    /// the backward pass. The gradients land in
    /// [`MlpScratch::gradients`]; the batch loss is returned.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input width is wrong, or
    /// the errors of [`Loss::compute`] for bad targets.
    pub fn compute_gradients(
        &self,
        x: &Matrix,
        targets: &[usize],
        loss: Loss,
        scratch: &mut MlpScratch,
    ) -> Result<f32, NnError> {
        self.forward_buffers(x, scratch, DenseLayer::forward_train)?;
        let last = scratch
            .layers
            .last_mut()
            .expect("mlp has at least one layer");
        let batch_loss = loss.loss_and_gradient_into(&last.output, targets, &mut last.grad)?;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (before, rest) = scratch.layers.split_at_mut(i);
            let gradient = &mut scratch.gradients[i];
            match before.last_mut() {
                Some(LayerBuffers { output, grad, .. }) => {
                    layer.backward_into(output, &mut rest[0], gradient, Some(grad))?
                }
                None => layer.backward_into(x, &mut rest[0], gradient, None)?,
            }
        }
        Ok(batch_loss)
    }

    /// Runs `step` for every layer, feeding each layer the previous layer's
    /// [`LayerBuffers::output`] (the first layer gets `x`).
    fn forward_buffers(
        &self,
        x: &Matrix,
        scratch: &mut MlpScratch,
        step: impl Fn(&DenseLayer, &Matrix, &mut LayerBuffers) -> Result<(), NnError>,
    ) -> Result<(), NnError> {
        scratch.fit_to(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let (before, rest) = scratch.layers.split_at_mut(i);
            let input = before.last().map_or(x, |prev| &prev.output);
            step(layer, input, &mut rest[0])?;
        }
        Ok(())
    }

    /// Predicted class index for every sample in `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the input width is wrong.
    pub fn predict(&self, x: &Matrix) -> Result<Vec<usize>, NnError> {
        Ok(self.forward(x)?.argmax_rows())
    }

    /// Classification accuracy on a dataset, in `[0, 1]`.
    ///
    /// Returns `0.0` when the forward pass fails (wrong feature width), so the
    /// method can be used directly as a fitness value.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        self.accuracy_with(data, &mut MlpScratch::default())
    }

    /// [`Mlp::accuracy`] through caller-owned buffers, allocation-free once
    /// they have their size — the trainer's per-epoch validation pass.
    /// Predictions are those of [`Mlp::predict`].
    pub(crate) fn accuracy_with(&self, data: &Dataset, scratch: &mut MlpScratch) -> f64 {
        let labels = data.labels();
        if labels.is_empty()
            || self
                .forward_buffers(data.features(), scratch, |layer, x, buffers| {
                    layer.forward_into(x, &mut buffers.output)
                })
                .is_err()
        {
            return 0.0;
        }
        let correct = scratch
            .logits()
            .iter_rows()
            .zip(labels)
            .filter(|&(row, &label)| argmax(row) == label)
            .count();
        correct as f64 / labels.len() as f64
    }

    /// Collects every weight of the network into a flat vector
    /// (layer by layer, row-major), useful for clustering and statistics.
    pub fn flatten_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.weight_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights().as_slice());
        }
        out
    }

    /// Largest absolute weight in the network (used to size fixed-point
    /// formats).
    pub fn max_abs_weight(&self) -> f32 {
        self.layers
            .iter()
            .map(|l| l.weights().max_abs())
            .fold(0.0, f32::max)
    }
}

/// Builder for [`Mlp`] instances.
///
/// # Example
///
/// ```
/// use pmlp_nn::{MlpBuilder, Activation, WeightInit};
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), pmlp_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let mlp = MlpBuilder::new(16)
///     .hidden(20, Activation::ReLU)
///     .hidden(10, Activation::ReLU)
///     .output(10)
///     .weight_init(WeightInit::HeUniform)
///     .build(&mut rng)?;
/// assert_eq!(mlp.topology(), vec![16, 20, 10, 10]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MlpBuilder {
    input_size: usize,
    hidden: Vec<(usize, Activation)>,
    output_size: Option<usize>,
    output_activation: Activation,
    weight_init: WeightInit,
}

impl MlpBuilder {
    /// Starts a builder for a network with `input_size` input features.
    pub fn new(input_size: usize) -> Self {
        MlpBuilder {
            input_size,
            hidden: Vec::new(),
            output_size: None,
            output_activation: Activation::Identity,
            weight_init: WeightInit::XavierUniform,
        }
    }

    /// Appends a hidden layer of `size` neurons with the given activation.
    #[must_use]
    pub fn hidden(mut self, size: usize, activation: Activation) -> Self {
        self.hidden.push((size, activation));
        self
    }

    /// Sets the output layer size (number of classes). The output activation
    /// defaults to [`Activation::Identity`] because training applies softmax
    /// inside the loss.
    #[must_use]
    pub fn output(mut self, size: usize) -> Self {
        self.output_size = Some(size);
        self
    }

    /// Overrides the output activation.
    #[must_use]
    pub fn output_activation(mut self, activation: Activation) -> Self {
        self.output_activation = activation;
        self
    }

    /// Overrides the weight initialization scheme (default:
    /// [`WeightInit::XavierUniform`]).
    #[must_use]
    pub fn weight_init(mut self, init: WeightInit) -> Self {
        self.weight_init = init;
        self
    }

    /// Builds the network, sampling initial weights from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when no output size was set, or
    /// [`NnError::InvalidDimension`] when any layer size is zero.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Mlp, NnError> {
        let output_size = self.output_size.ok_or_else(|| NnError::InvalidConfig {
            context: "MlpBuilder: output size not set".into(),
        })?;
        if self.input_size == 0 {
            return Err(NnError::InvalidDimension {
                context: "input size is zero".into(),
            });
        }
        let mut layers = Vec::with_capacity(self.hidden.len() + 1);
        let mut prev = self.input_size;
        for &(size, activation) in &self.hidden {
            layers.push(DenseLayer::new(
                prev,
                size,
                activation,
                self.weight_init,
                rng,
            )?);
            prev = size;
        }
        layers.push(DenseLayer::new(
            prev,
            output_size,
            self.output_activation,
            self.weight_init,
            rng,
        )?);
        Mlp::from_layers(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp() -> Mlp {
        let mut rng = StdRng::seed_from_u64(2);
        MlpBuilder::new(3)
            .hidden(5, Activation::ReLU)
            .output(2)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn builder_requires_output() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MlpBuilder::new(3)
            .hidden(4, Activation::ReLU)
            .build(&mut rng)
            .is_err());
    }

    #[test]
    fn builder_rejects_zero_input() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MlpBuilder::new(0).output(2).build(&mut rng).is_err());
    }

    #[test]
    fn topology_reports_all_layer_sizes() {
        let mlp = tiny_mlp();
        assert_eq!(mlp.topology(), vec![3, 5, 2]);
        assert_eq!(mlp.weight_count(), 3 * 5 + 5 * 2);
    }

    #[test]
    fn from_layers_rejects_size_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        let l1 =
            DenseLayer::new(3, 4, Activation::ReLU, WeightInit::XavierUniform, &mut rng).unwrap();
        let l2 = DenseLayer::new(
            5,
            2,
            Activation::Identity,
            WeightInit::XavierUniform,
            &mut rng,
        )
        .unwrap();
        assert!(Mlp::from_layers(vec![l1, l2]).is_err());
    }

    #[test]
    fn from_layers_rejects_empty() {
        assert!(Mlp::from_layers(vec![]).is_err());
    }

    #[test]
    fn forward_produces_logits_per_class() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(4, 3);
        let y = mlp.forward(&x).unwrap();
        assert_eq!(y.shape(), (4, 2));
    }

    #[test]
    fn predict_returns_one_class_per_sample() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(6, 3);
        let preds = mlp.predict(&x).unwrap();
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn accuracy_on_wrong_width_input_is_zero() {
        let mlp = tiny_mlp();
        let data = Dataset::from_rows(vec![vec![0.0; 7]; 3], vec![0, 1, 0], 2).unwrap();
        assert_eq!(mlp.accuracy(&data), 0.0);
    }

    #[test]
    fn sparsity_reflects_zeroed_weights() {
        let mut mlp = tiny_mlp();
        assert_eq!(mlp.sparsity(), 0.0);
        let total = mlp.weight_count();
        // Zero out the entire first layer.
        let first_count = mlp.layers()[0].weight_count();
        mlp.layers_mut()[0].weights_mut().map_inplace(|_| 0.0);
        let expected = first_count as f64 / total as f64;
        assert!((mlp.sparsity() - expected).abs() < 1e-9);
    }

    #[test]
    fn flatten_weights_has_weight_count_entries() {
        let mlp = tiny_mlp();
        assert_eq!(mlp.flatten_weights().len(), mlp.weight_count());
    }

    #[test]
    fn backward_returns_one_gradient_per_layer() {
        let mlp = tiny_mlp();
        let x = Matrix::zeros(2, 3);
        let mut scratch = MlpScratch::default();
        mlp.compute_gradients(&x, &[0, 1], Loss::SoftmaxCrossEntropy, &mut scratch)
            .unwrap();
        let grads = scratch.gradients();
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0].weights.shape(), (3, 5));
        assert_eq!(grads[1].weights.shape(), (5, 2));
        assert_eq!(scratch.logits(), &mlp.forward(&x).unwrap());
    }

    #[test]
    fn accuracy_with_matches_predict() {
        let mlp = tiny_mlp();
        let rows: Vec<Vec<f32>> = (0..9)
            .map(|i| vec![i as f32 * 0.3 - 1.0, (i % 3) as f32, -(i as f32) * 0.1])
            .collect();
        let labels: Vec<usize> = (0..9).map(|i| i % 2).collect();
        let data = Dataset::from_rows(rows, labels, 2).unwrap();
        let predictions = mlp.predict(data.features()).unwrap();
        let expected = crate::metrics::accuracy(&predictions, data.labels());
        let mut scratch = MlpScratch::default();
        assert_eq!(mlp.accuracy_with(&data, &mut scratch), expected);
        // Again through the same, now sized, buffers.
        assert_eq!(mlp.accuracy_with(&data, &mut scratch), expected);
        assert_eq!(mlp.accuracy(&data), expected);
    }

    #[test]
    fn serde_round_trip_preserves_model() {
        let mlp = tiny_mlp();
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, mlp);
    }

    #[test]
    fn end_to_end_gradient_matches_finite_difference() {
        let mut mlp = tiny_mlp();
        let x = Matrix::from_rows(&[vec![0.4, -0.2, 0.8]]).unwrap();
        let targets = [1usize];
        let mut scratch = MlpScratch::default();
        mlp.compute_gradients(&x, &targets, Loss::SoftmaxCrossEntropy, &mut scratch)
            .unwrap();
        let grads = scratch.gradients().to_vec();

        let eps = 1e-2_f32;
        // Check a handful of weights in each layer.
        for (li, grad) in grads.iter().enumerate() {
            let (rows, cols) = mlp.layers()[li].weights().shape();
            for &(r, c) in &[(0usize, 0usize), (rows - 1, cols - 1)] {
                let orig = mlp.layers()[li].weights().get(r, c);
                mlp.layers_mut()[li].weights_mut().set(r, c, orig + eps);
                let lp = Loss::SoftmaxCrossEntropy
                    .compute(&mlp.forward(&x).unwrap(), &targets)
                    .unwrap();
                mlp.layers_mut()[li].weights_mut().set(r, c, orig - eps);
                let lm = Loss::SoftmaxCrossEntropy
                    .compute(&mlp.forward(&x).unwrap(), &targets)
                    .unwrap();
                mlp.layers_mut()[li].weights_mut().set(r, c, orig);
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grad.weights.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "layer {li} weight ({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn clone_from_copies_the_model_exactly() {
        let source = tiny_mlp();
        let mut rng = StdRng::seed_from_u64(9);
        let mut target = MlpBuilder::new(3)
            .hidden(5, Activation::Tanh)
            .output(2)
            .build(&mut rng)
            .unwrap();
        target.clone_from(&source);
        assert_eq!(target, source);
    }
}
