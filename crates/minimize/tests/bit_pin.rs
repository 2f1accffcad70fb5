//! Bit-level pins of fixed-seed fine-tunes.
//!
//! Every fine-tune below runs the real trainer end to end (forward, loss,
//! backward, Adam, the constraint, the validation pass and best-model
//! tracking) and is reduced to two u64 fingerprints: one over the bits of
//! the trained parameters and one over the bits of the `TrainReport`. The
//! trainer's kernels may be rewritten for speed, but every f32 operation
//! must keep its order, so these fingerprints must never move. A change that
//! moves one changes the numbers the reproduction reports.

use pmlp_data::{load, UciDataset};
use pmlp_minimize::cluster::{cluster_and_fine_tune, ClusteringConfig};
use pmlp_minimize::prune::prune_and_fine_tune;
use pmlp_minimize::qat::{quantization_aware_train, QatConfig};
use pmlp_minimize::QuantizationConfig;
use pmlp_nn::{Activation, Dataset, Mlp, MlpBuilder, TrainConfig, TrainReport, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Fingerprint of `flatten_weights()` followed by every layer's biases.
fn model_fingerprint(mlp: &Mlp) -> u64 {
    let mut h = Fnv::new();
    for w in mlp.flatten_weights() {
        h.word(u64::from(w.to_bits()));
    }
    for layer in mlp.layers() {
        for b in layer.biases() {
            h.word(u64::from(b.to_bits()));
        }
    }
    h.0
}

fn report_fingerprint(report: &TrainReport) -> u64 {
    let mut h = Fnv::new();
    h.word(report.epochs_run as u64);
    h.word(report.best_accuracy.to_bits());
    for &loss in &report.train_loss {
        h.word(u64::from(loss.to_bits()));
    }
    for &acc in report.train_accuracy.iter().chain(&report.val_accuracy) {
        h.word(acc.to_bits());
    }
    h.0
}

/// Seeds (7 features, 3 classes) split into train and validation, and a
/// 7-20-3 baseline trained on it. The hidden width puts the first layer's
/// products in the widest register-kernel class; the ragged final batch of
/// each epoch exercises row counts that are not a multiple of four.
fn baseline() -> (Mlp, TrainReport, Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(2023);
    let data = load(UciDataset::Seeds, 5).unwrap();
    let (train, val) = data.stratified_split(0.8, &mut rng).unwrap();
    let mut mlp = MlpBuilder::new(train.feature_count())
        .hidden(20, Activation::ReLU)
        .output(train.class_count())
        .build(&mut rng)
        .unwrap();
    // Covers weight decay, learning-rate decay, the per-epoch train
    // accuracy pass and early stopping on top of the plain loop.
    let config = TrainConfig {
        epochs: 12,
        weight_decay: 1e-3,
        lr_decay: 0.95,
        patience: Some(4),
        track_train_accuracy: true,
        ..TrainConfig::default()
    };
    let report = Trainer::new(config)
        .fit(&mut mlp, &train, Some(&val), &mut rng)
        .unwrap();
    (mlp, report, train, val)
}

fn fine_tune() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        learning_rate: 0.005,
        track_train_accuracy: false,
        ..TrainConfig::default()
    }
}

fn assert_pinned(stage: &str, mlp: &Mlp, report: &TrainReport, expected: (u64, u64)) {
    let actual = (model_fingerprint(mlp), report_fingerprint(report));
    assert_eq!(
        actual, expected,
        "{stage}: fingerprints moved to ({:#018x}, {:#018x})",
        actual.0, actual.1
    );
}

#[test]
fn unconstrained_fit_is_bit_pinned() {
    let (mlp, report, _, _) = baseline();
    assert_pinned(
        "fit",
        &mlp,
        &report,
        (0x60c411c6439dd95a, 0xd886a062c4a15778),
    );
}

#[test]
fn unconstrained_fit_without_validation_is_bit_pinned() {
    let (mut mlp, _, train, _) = baseline();
    let mut rng = StdRng::seed_from_u64(7);
    let report = Trainer::new(fine_tune())
        .fit(&mut mlp, &train, None, &mut rng)
        .unwrap();
    assert_pinned(
        "fit without validation",
        &mlp,
        &report,
        (0xcc7f098d7e01c909, 0xa5245ab3f6074473),
    );
}

#[test]
fn prune_fine_tune_is_bit_pinned() {
    let (mut mlp, _, train, val) = baseline();
    let mut rng = StdRng::seed_from_u64(11);
    let (_, report) =
        prune_and_fine_tune(&mut mlp, &train, Some(&val), 0.4, &fine_tune(), &mut rng).unwrap();
    assert_pinned(
        "prune",
        &mlp,
        &report,
        (0x064eb61630511d9a, 0x857890d346474479),
    );
}

#[test]
fn cluster_fine_tune_is_bit_pinned() {
    let (mut mlp, _, train, val) = baseline();
    let mut rng = StdRng::seed_from_u64(13);
    let (_, report) = cluster_and_fine_tune(
        &mut mlp,
        &train,
        Some(&val),
        &ClusteringConfig::new(3),
        &fine_tune(),
        &mut rng,
    )
    .unwrap();
    assert_pinned(
        "cluster",
        &mlp,
        &report,
        (0xa05dfd39131ae854, 0x088f518106a7611f),
    );
}

#[test]
fn qat_fine_tune_is_bit_pinned() {
    let (mlp, _, train, val) = baseline();
    let mut rng = StdRng::seed_from_u64(17);
    let config = QatConfig {
        quantization: QuantizationConfig {
            weight_bits: 4,
            input_bits: 4,
        },
        training: fine_tune(),
    };
    let (quantized, report) =
        quantization_aware_train(&mlp, &train, Some(&val), &config, &mut rng).unwrap();
    assert_pinned(
        "qat",
        &quantized.model,
        &report,
        (0xdab836eb60cf6622, 0x19b094a7e788ad7e),
    );
}
