//! The fine-tuning loop allocates nothing after its first epoch.
//!
//! This binary installs a counting global allocator. A fit of `N` epochs
//! and a fit of one epoch, from the same model and seed, must make the same
//! number of heap allocations: epoch 1 sizes every buffer (batch, scratch,
//! Adam moments, best-model copy, report vectors), and epochs 2..N reuse
//! them. Checked for the three constraints the minimization passes use:
//! none, a pruning mask and a cluster refit.

use pmlp_data::{load, UciDataset};
use pmlp_minimize::cluster::{cluster_weights, ClusteringConfig};
use pmlp_minimize::PruningMask;
use pmlp_nn::trainer::{NoConstraint, WeightConstraint};
use pmlp_nn::{Activation, Dataset, Mlp, MlpBuilder, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations (and reallocations) per thread, so tests running in
/// parallel threads do not see each other's.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Seeds split into train (168 rows: five full batches of 32 and a short
/// one of 8) and validation, and a trained 7-12-3 model.
fn setup() -> (Mlp, Dataset, Dataset) {
    let mut rng = StdRng::seed_from_u64(5);
    let data = load(UciDataset::Seeds, 3).unwrap();
    let (train, val) = data.stratified_split(0.8, &mut rng).unwrap();
    let mut mlp = MlpBuilder::new(train.feature_count())
        .hidden(12, Activation::ReLU)
        .output(train.class_count())
        .build(&mut rng)
        .unwrap();
    Trainer::new(TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    })
    .fit(&mut mlp, &train, Some(&val), &mut rng)
    .unwrap();
    (mlp, train, val)
}

/// Heap allocations made by one `fit_constrained` run of `epochs` epochs
/// from `mlp`, with a validation set and every optional per-epoch pass on.
fn fit_allocations<C: WeightConstraint>(
    mlp: &Mlp,
    train: &Dataset,
    val: &Dataset,
    epochs: usize,
    constraint: &mut C,
) -> usize {
    let trainer = Trainer::new(TrainConfig {
        epochs,
        weight_decay: 1e-4,
        lr_decay: 0.9,
        track_train_accuracy: true,
        ..TrainConfig::fine_tune(epochs)
    });
    let mut model = mlp.clone();
    let mut rng = StdRng::seed_from_u64(99);
    let before = allocations();
    trainer
        .fit_constrained(&mut model, train, Some(val), constraint, &mut rng)
        .unwrap();
    allocations() - before
}

/// Asserts that epochs 2..6 of a run allocate nothing beyond epoch 1.
fn assert_epochs_after_the_first_allocate_nothing<C: WeightConstraint>(
    mlp: &Mlp,
    train: &Dataset,
    val: &Dataset,
    constraint: &mut C,
) {
    let one = fit_allocations(mlp, train, val, 1, constraint);
    let six = fit_allocations(mlp, train, val, 6, constraint);
    assert!(one > 0, "the counting allocator saw no allocation");
    assert_eq!(
        six - one,
        0,
        "epochs 2..6 made {} heap allocations",
        six - one
    );
}

#[test]
fn unconstrained_epochs_after_the_first_allocate_nothing() {
    let (mlp, train, val) = setup();
    assert_epochs_after_the_first_allocate_nothing(&mlp, &train, &val, &mut NoConstraint);
}

#[test]
fn pruning_mask_epochs_after_the_first_allocate_nothing() {
    let (mut mlp, train, val) = setup();
    let mask = PruningMask::magnitude_global(&mlp, 0.4).unwrap();
    mask.apply(&mut mlp).unwrap();
    let mut constraint = mask.constraint(&mlp).unwrap();
    assert_epochs_after_the_first_allocate_nothing(&mlp, &train, &val, &mut constraint);
}

#[test]
fn cluster_refit_epochs_after_the_first_allocate_nothing() {
    let (mut mlp, train, val) = setup();
    let mut assignment = cluster_weights(&mut mlp, &ClusteringConfig::new(3)).unwrap();
    let mut constraint = assignment.refit_constraint(&mlp).unwrap();
    assert_epochs_after_the_first_allocate_nothing(&mlp, &train, &val, &mut constraint);
}
