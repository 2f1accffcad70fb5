//! Replay of a traced iteration's work through the public stage functions.
//!
//! Some layers run only inside another layer's function: the `minimize`
//! stages inside `evaluate_config_detailed`, `Trainer::fit` inside
//! `BaselineDesign::train_with`, integer accuracy and the fast cost model
//! inside the engine. Replay re-runs the candidates an iteration computed,
//! single-threaded, with the engine's seeds, through `prune_and_fine_tune`,
//! `cluster_and_fine_tune`, `quantization_aware_train`, `quantize_mlp`,
//! `integer_accuracy` and `estimate_area`, and times each stage. Every
//! replayed candidate must reproduce the accuracy and area the engine
//! reported; the ones that do not are counted.

use pmlp_core::baseline::{BaselineConfig, BaselineDesign};
use pmlp_core::bridge::estimate_area;
use pmlp_core::experiment::Effort;
use pmlp_core::objective::integer_accuracy;
use pmlp_hw::SharingStrategy;
use pmlp_minimize::cluster::{cluster_and_fine_tune, ClusteringConfig};
use pmlp_minimize::prune::prune_and_fine_tune;
use pmlp_minimize::qat::{quantization_aware_train, QatConfig};
use pmlp_minimize::quantize::{quantize_mlp, QuantizationConfig};
use pmlp_minimize::MinimizationConfig;
use pmlp_nn::{Activation, MlpBuilder, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// What replay needs of one dataset of a traced iteration.
pub struct DatasetWork {
    pub baseline: BaselineDesign,
    /// Whether the baseline was trained here (not loaded from the store).
    pub trained: bool,
    /// Computed candidates with the accuracy and area the engine reported.
    pub candidates: Vec<(MinimizationConfig, Option<(f64, f64)>)>,
}

/// Per-layer numbers measured by replaying an iteration's work. Times are
/// in seconds: totals, or one entry per candidate for the vectors.
#[derive(Default)]
pub struct Replay {
    pub generate_s: f64,
    pub fit_s: f64,
    pub fit_epochs: usize,
    pub prune_s: f64,
    pub cluster_s: f64,
    pub qat_s: f64,
    pub quantize_s: f64,
    pub fine_tune_epochs: usize,
    pub candidate_s: Vec<f64>,
    pub int_accuracy_s: Vec<f64>,
    pub fast_cost_s: Vec<f64>,
    pub mismatches: usize,
}

/// The per-candidate seed mix of `pmlp_core::objective` (FNV-1a over the
/// configuration), so replayed candidates see the engine's random stream.
fn config_hash(config: &MinimizationConfig) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(config.weight_bits.map(u64::from).unwrap_or(99));
    mix(config.sparsity.map(|s| (s * 1000.0) as u64).unwrap_or(9999));
    mix(config.clusters_per_input.map(|c| c as u64).unwrap_or(77777));
    mix(u64::from(config.input_bits));
    h
}

/// Times `f`, adding its seconds to `total`.
fn timed<T>(total: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *total += start.elapsed().as_secs_f64();
    value
}

/// Replays one dataset's data generation, baseline fit (when it was
/// trained) and every computed candidate through the public stage
/// functions, in the order `BaselineDesign::train_with` and
/// `minimize` run them.
pub fn replay_dataset(work: &DatasetWork, replay: &mut Replay) -> Result<(), String> {
    let baseline = &work.baseline;
    let config: BaselineConfig = Effort::Full.baseline_config();
    let descriptor = baseline.dataset.descriptor();
    let err = |e: &dyn std::fmt::Display| format!("replay {}: {e}", baseline.dataset);
    let data = timed(&mut replay.generate_s, || {
        descriptor.generate(baseline.seed)
    })
    .map_err(|e| err(&e))?;
    if work.trained {
        let mut rng = StdRng::seed_from_u64(baseline.seed ^ 0xBA5E);
        let (train, test) = data
            .stratified_split(config.train_fraction, &mut rng)
            .map_err(|e| err(&e))?;
        let mut model = MlpBuilder::new(descriptor.feature_count)
            .hidden(descriptor.hidden_neurons, Activation::ReLU)
            .output(descriptor.class_count)
            .build(&mut rng)
            .map_err(|e| err(&e))?;
        let trainer = Trainer::new(TrainConfig {
            epochs: config.epochs,
            batch_size: config.batch_size,
            learning_rate: config.learning_rate,
            track_train_accuracy: false,
            ..TrainConfig::default()
        });
        let report = timed(&mut replay.fit_s, || {
            trainer.fit(&mut model, &train, Some(&test), &mut rng)
        })
        .map_err(|e| err(&e))?;
        replay.fit_epochs += report.epochs_run;
        if model != baseline.model {
            replay.mismatches += 1;
        }
    }
    for &(config, scored) in &work.candidates {
        let replayed = replay_candidate(baseline, config, replay).map_err(|e| err(&e))?;
        if scored != Some(replayed) {
            replay.mismatches += 1;
        }
    }
    Ok(())
}

/// Replays one candidate; returns its accuracy and fast-path area.
fn replay_candidate(
    baseline: &BaselineDesign,
    requested: MinimizationConfig,
    replay: &mut Replay,
) -> Result<(f64, f64), String> {
    let mut config = requested;
    config.input_bits = baseline.input_bits;
    config.fine_tune_epochs = Effort::Full.fine_tune_epochs();
    let mut rng = StdRng::seed_from_u64(baseline.seed ^ config_hash(&config));
    config.validate().map_err(|e| e.to_string())?;
    let fine_tune = TrainConfig {
        epochs: config.fine_tune_epochs,
        learning_rate: 0.005,
        track_train_accuracy: false,
        ..TrainConfig::default()
    };
    let (train, test) = (&baseline.train, Some(&baseline.test));
    let started = Instant::now();
    let mut model = baseline.model.clone();
    let mut mask = None;
    if let Some(sparsity) = config.sparsity.filter(|&s| s > 0.0) {
        let (m, report) = timed(&mut replay.prune_s, || {
            prune_and_fine_tune(&mut model, train, test, sparsity, &fine_tune, &mut rng)
        })
        .map_err(|e| e.to_string())?;
        replay.fine_tune_epochs += report.epochs_run;
        mask = Some(m);
    }
    let mut clusters = None;
    if let Some(k) = config.clusters_per_input {
        let (assignment, report) = timed(&mut replay.cluster_s, || {
            let outcome = cluster_and_fine_tune(
                &mut model,
                train,
                test,
                &ClusteringConfig::new(k),
                &fine_tune,
                &mut rng,
            )?;
            if let Some(m) = &mask {
                m.apply(&mut model)?;
            }
            Ok::<_, pmlp_minimize::MinimizeError>(outcome)
        })
        .map_err(|e| e.to_string())?;
        replay.fine_tune_epochs += report.epochs_run;
        clusters = Some(assignment);
    }
    let layers = match config.weight_bits {
        Some(bits) => {
            let quantization = QuantizationConfig {
                weight_bits: bits,
                input_bits: config.input_bits,
            };
            let qat = QatConfig {
                quantization,
                training: fine_tune.clone(),
            };
            let (mut q, report) = timed(&mut replay.qat_s, || {
                quantization_aware_train(&model, train, test, &qat, &mut rng)
            })
            .map_err(|e| e.to_string())?;
            replay.fine_tune_epochs += report.epochs_run;
            timed(&mut replay.quantize_s, || {
                if let Some(m) = &mask {
                    m.apply(&mut q.model)?;
                }
                if let Some(c) = &mut clusters {
                    c.refit_and_apply(&mut q.model)?;
                    if let Some(m) = &mask {
                        m.apply(&mut q.model)?;
                    }
                }
                quantize_mlp(&q.model, &quantization)
            })
            .map_err(|e| e.to_string())?
            .layers
        }
        None => {
            timed(&mut replay.quantize_s, || {
                quantize_mlp(
                    &model,
                    &QuantizationConfig {
                        weight_bits: 8,
                        input_bits: config.input_bits,
                    },
                )
            })
            .map_err(|e| e.to_string())?
            .layers
        }
    };
    replay.candidate_s.push(started.elapsed().as_secs_f64());
    let sharing = if clusters.is_some() {
        SharingStrategy::SharedPerInput
    } else {
        SharingStrategy::None
    };
    let start = Instant::now();
    let accuracy = integer_accuracy(
        &layers,
        config.input_bits,
        sharing,
        &baseline.test_rows,
        baseline.test.labels(),
    )
    .map_err(|e| e.to_string())?;
    replay.int_accuracy_s.push(start.elapsed().as_secs_f64());
    let start = Instant::now();
    let cost = estimate_area(&layers, config.input_bits, &baseline.library, sharing)
        .map_err(|e| e.to_string())?;
    replay.fast_cost_s.push(start.elapsed().as_secs_f64());
    Ok((accuracy, cost.area_mm2))
}
