//! Integration tests of the fast-path cost model: every search candidate is
//! priced analytically, and finalization re-synthesizes it gate by gate. The
//! two must be indistinguishable everywhere the search can observe them.

use printed_mlp::core::baseline::BaselineConfig;
use printed_mlp::core::engine::{EvalEngine, Evaluator};
use printed_mlp::data::UciDataset;
use printed_mlp::minimize::MinimizationConfig;

fn quick_engine() -> EvalEngine {
    EvalEngine::train_with(
        UciDataset::Seeds,
        13,
        &BaselineConfig {
            epochs: 10,
            ..BaselineConfig::default()
        },
    )
    .unwrap()
    .with_fine_tune_epochs(2)
}

fn candidate_configs() -> Vec<MinimizationConfig> {
    vec![
        MinimizationConfig::baseline(),
        MinimizationConfig::default().with_weight_bits(3),
        MinimizationConfig::default().with_weight_bits(6),
        MinimizationConfig::default().with_sparsity(0.5),
        MinimizationConfig::default().with_clusters(3),
        MinimizationConfig::default()
            .with_weight_bits(4)
            .with_sparsity(0.4)
            .with_clusters(4),
    ]
}

#[test]
fn finalize_verifies_the_fast_path_against_a_real_netlist() {
    let engine = quick_engine();
    for config in candidate_configs() {
        let finalized = engine.finalize(&config).unwrap();
        assert!(
            finalized.matches_fast_path,
            "full synthesis diverged from the fast path for {}",
            config.describe()
        );
        assert_eq!(finalized.full.area_mm2, finalized.point.area_mm2);
        assert_eq!(finalized.full.power_uw, finalized.point.power_uw);
        assert_eq!(finalized.full.critical_path_us, finalized.point.delay_us);
        assert_eq!(finalized.full.gate_count, finalized.point.gate_count);
    }
    let stats = engine.stats();
    // Every candidate was priced by the fast path once (a miss) and
    // re-synthesized once (the finalist verification).
    assert_eq!(stats.full_synthesis, candidate_configs().len());
    // Finalization reuses the cached minimized layers instead of re-running
    // the pipeline.
    assert_eq!(stats.misses, candidate_configs().len());
}

#[test]
fn finalize_checks_delay_unless_the_point_predates_it() {
    use printed_mlp::core::engine::EvalKey;
    use printed_mlp::core::store::{EvalRecord, MemoryBackend, StoreBackend};

    // A fresh point whose delay the fast path got wrong must fail the check.
    let engine = quick_engine();
    let config = MinimizationConfig::default().with_weight_bits(4);
    let fresh = engine.evaluate(&config).unwrap();
    let key = EvalKey {
        weight_bits: 4,
        sparsity_millis: u32::MAX,
        clusters: 0,
        input_bits: engine.baseline().input_bits,
        fine_tune_epochs: engine.fine_tune_epochs(),
        salt: 0,
    };
    let seed_store = |delay_us: f64| {
        let backend = MemoryBackend::new();
        let record = EvalRecord {
            key,
            point: printed_mlp::core::DesignPoint {
                delay_us,
                ..fresh.clone()
            },
            artifacts: None,
        };
        let name = engine.baseline().dataset.to_string();
        backend
            .append(&name, engine.fingerprint(), &record)
            .unwrap();
        quick_engine().with_backend(Box::new(backend)).unwrap()
    };

    let skewed = seed_store(fresh.delay_us * 2.0);
    assert_eq!(skewed.stats().warmed, 1);
    let finalized = skewed.finalize(&config).unwrap();
    assert_eq!(finalized.point.delay_us, fresh.delay_us * 2.0);
    assert!(!finalized.matches_fast_path, "a wrong delay must be caught");

    // A point loaded from a record written before delay was persisted has a
    // NaN delay; it still matches on area, power and gate count.
    let legacy = seed_store(f64::NAN);
    let finalized = legacy.finalize(&config).unwrap();
    assert!(finalized.point.delay_us.is_nan());
    assert!(finalized.matches_fast_path);
    assert_eq!(finalized.full.critical_path_us, fresh.delay_us);
}

#[test]
fn multiplier_cache_fills_and_reports_hits() {
    let engine = quick_engine();
    let _ = engine
        .evaluate(&MinimizationConfig::default().with_weight_bits(5))
        .unwrap();
    let stats = engine.stats();
    let total = stats.multiplier_cache_hits + stats.multiplier_cache_misses;
    assert!(total > 0, "fast path must consult the multiplier cache");
    // Weight codes repeat heavily inside one circuit, so hits dominate.
    assert!(
        stats.multiplier_cache_hit_rate() > 0.5,
        "hit rate {}",
        stats.multiplier_cache_hit_rate()
    );
}
