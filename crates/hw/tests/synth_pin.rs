//! Bit-level pins of full gate-level synthesis.
//!
//! For a fixed set of circuit specs this suite freezes everything the
//! synthesized netlist reports: the area, power and critical-path `f64`s by
//! their bit patterns, the gate count, the per-kind gate tally and a 64-bit
//! FNV-1a hash of the structural Verilog export. The Verilog text lists every
//! gate in insertion order with its pins in cell order, so the hash pins gate
//! order and pin order as well. A change to the netlist's storage or analysis
//! code must leave every value here unchanged.

use pmlp_hw::constmul::RecodingStrategy;
use pmlp_hw::verilog::{to_verilog, VerilogOptions};
use pmlp_hw::{
    BespokeMlpCircuit, CellKind, CellLibrary, CircuitSpec, HwActivation, LayerSpec, SharingStrategy,
};

/// What one synthesized spec must reproduce exactly.
struct Pin {
    area_bits: u64,
    power_bits: u64,
    critical_path_bits: u64,
    gate_count: usize,
    by_kind: &'static [(CellKind, usize)],
    verilog_fnv: u64,
}

/// 64-bit FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn check(
    name: &str,
    spec: &CircuitSpec,
    sharing: SharingStrategy,
    recoding: RecodingStrategy,
    pin: &Pin,
) {
    let library = CellLibrary::egt();
    let circuit = BespokeMlpCircuit::synthesize_with(spec, &library, sharing, recoding).unwrap();
    let netlist = circuit.netlist();
    let area = circuit.area();
    let power = circuit.power();
    let timing = circuit.timing();
    let by_kind: Vec<(CellKind, usize)> = netlist.count_by_kind().into_iter().collect();
    let verilog = fnv1a(&to_verilog(netlist, &VerilogOptions::default()));
    assert_eq!(area.total_mm2.to_bits(), pin.area_bits, "{name}: area");
    assert_eq!(power.total_uw.to_bits(), pin.power_bits, "{name}: power");
    assert_eq!(
        timing.critical_path_us.to_bits(),
        pin.critical_path_bits,
        "{name}: critical path"
    );
    assert_eq!(netlist.gate_count(), pin.gate_count, "{name}: gate count");
    assert_eq!(area.gate_count, pin.gate_count, "{name}: area gate count");
    assert_eq!(by_kind, pin.by_kind, "{name}: gates by kind");
    assert_eq!(verilog, pin.verilog_fnv, "{name}: Verilog hash");
}

/// A WhiteWine-shaped spec (11 inputs, 25 hidden, 5 outputs) with
/// deterministic pseudo-random 5-bit weights, as in the `hw_synthesis` bench.
fn whitewine_like_spec() -> CircuitSpec {
    let weight = |i: usize, j: usize| -> i64 { ((i * 31 + j * 17 + 7) % 31) as i64 - 15 };
    let hidden: Vec<Vec<i64>> = (0..25)
        .map(|n| (0..11).map(|i| weight(n, i)).collect())
        .collect();
    let output: Vec<Vec<i64>> = (0..5)
        .map(|n| (0..25).map(|i| weight(n + 100, i)).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::new(hidden, 5, HwActivation::ReLU).unwrap(),
            LayerSpec::new(output, 5, HwActivation::Argmax).unwrap(),
        ],
    )
    .unwrap()
}

/// Three weight values per input position, with biases: the shape weight
/// clustering leaves behind.
fn clustered_spec() -> CircuitSpec {
    let centroids = [-11_i64, 3, 9];
    let hidden: Vec<Vec<i64>> = (0..8)
        .map(|n| (0..6).map(|i| centroids[(n * 5 + i * 7) % 3]).collect())
        .collect();
    let hidden_biases: Vec<i64> = (0..8).map(|n| (n as i64 - 4) * 37).collect();
    let output: Vec<Vec<i64>> = (0..3)
        .map(|n| (0..8).map(|i| centroids[(n + i * 2) % 3]).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::with_biases(hidden, hidden_biases, 5, HwActivation::ReLU).unwrap(),
            LayerSpec::with_biases(output, vec![-90, 0, 145], 5, HwActivation::Argmax).unwrap(),
        ],
    )
    .unwrap()
}

/// Dense 7-bit weights, used with plain binary recoding.
fn binary_spec() -> CircuitSpec {
    let weight = |i: usize, j: usize| -> i64 { ((i * 53 + j * 29 + 11) % 127) as i64 - 63 };
    let hidden: Vec<Vec<i64>> = (0..6)
        .map(|n| (0..5).map(|i| weight(n, i)).collect())
        .collect();
    let output: Vec<Vec<i64>> = (0..4)
        .map(|n| (0..6).map(|i| weight(n + 40, i)).collect())
        .collect();
    CircuitSpec::new(
        3,
        vec![
            LayerSpec::new(hidden, 7, HwActivation::ReLU).unwrap(),
            LayerSpec::new(output, 7, HwActivation::Argmax).unwrap(),
        ],
    )
    .unwrap()
}

/// Roughly 60% of the weights pruned to zero, including whole rows and
/// columns.
fn pruned_spec() -> CircuitSpec {
    let weight = |i: usize, j: usize| -> i64 {
        if (i * 7 + j * 3) % 5 < 3 || j == 2 {
            0
        } else {
            ((i * 13 + j * 19 + 5) % 15) as i64 - 7
        }
    };
    let mut hidden: Vec<Vec<i64>> = (0..10)
        .map(|n| (0..7).map(|i| weight(n, i)).collect())
        .collect();
    hidden[4] = vec![0; 7];
    let output: Vec<Vec<i64>> = (0..4)
        .map(|n| (0..10).map(|i| weight(n + 20, i)).collect())
        .collect();
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::new(hidden, 4, HwActivation::ReLU).unwrap(),
            LayerSpec::new(output, 4, HwActivation::Argmax).unwrap(),
        ],
    )
    .unwrap()
}

/// Every weight and bias zero: only the argmax tree remains.
fn all_zero_spec() -> CircuitSpec {
    CircuitSpec::new(
        4,
        vec![
            LayerSpec::new(vec![vec![0; 4]; 3], 4, HwActivation::ReLU).unwrap(),
            LayerSpec::new(vec![vec![0; 3]; 3], 4, HwActivation::Argmax).unwrap(),
        ],
    )
    .unwrap()
}

#[test]
fn whitewine_like_spec_is_pinned() {
    check(
        "whitewine",
        &whitewine_like_spec(),
        SharingStrategy::None,
        RecodingStrategy::Csd,
        &Pin {
            area_bits: 0x40a1_6789_374b_c6a8,
            power_bits: 0x40f1_ad27_5c28_f5c3,
            critical_path_bits: 0x40c1_8dc0_0000_0000,
            gate_count: 15376,
            by_kind: &[
                (CellKind::Inverter, 3738),
                (CellKind::And2, 375),
                (CellKind::Mux2, 120),
                (CellKind::HalfAdder, 515),
                (CellKind::FullAdder, 10628),
            ],
            verilog_fnv: 0xd5c2_33c5_cd07_b029,
        },
    );
}

#[test]
fn clustered_spec_with_shared_products_is_pinned() {
    check(
        "clustered",
        &clustered_spec(),
        SharingStrategy::SharedPerInput,
        RecodingStrategy::Csd,
        &Pin {
            area_bits: 0x4076_420c_49ba_5e36,
            power_bits: 0x40c6_9b14_7ae1_47ae,
            critical_path_bits: 0x40b1_e180_0000_0000,
            gate_count: 2368,
            by_kind: &[
                (CellKind::Inverter, 434),
                (CellKind::And2, 104),
                (CellKind::Mux2, 50),
                (CellKind::HalfAdder, 98),
                (CellKind::FullAdder, 1682),
            ],
            verilog_fnv: 0x304e_e4e0_b8ba_6339,
        },
    );
}

#[test]
fn binary_recoding_spec_is_pinned() {
    check(
        "binary",
        &binary_spec(),
        SharingStrategy::None,
        RecodingStrategy::Binary,
        &Pin {
            area_bits: 0x4080_d937_4bc6_a7f0,
            power_bits: 0x40d1_1c9c_28f5_c28f,
            critical_path_bits: 0x40bb_da00_0000_0000,
            gate_count: 3417,
            by_kind: &[
                (CellKind::Inverter, 513),
                (CellKind::And2, 86),
                (CellKind::Mux2, 87),
                (CellKind::HalfAdder, 156),
                (CellKind::FullAdder, 2575),
            ],
            verilog_fnv: 0x320d_5c2e_b741_2366,
        },
    );
}

#[test]
fn pruned_spec_is_pinned() {
    check(
        "pruned",
        &pruned_spec(),
        SharingStrategy::None,
        RecodingStrategy::Csd,
        &Pin {
            area_bits: 0x405d_a1ca_c083_126f,
            power_bits: 0x40ae_1851_eb85_1eb9,
            critical_path_bits: 0x40b1_0d00_0000_0000,
            gate_count: 960,
            by_kind: &[
                (CellKind::Inverter, 278),
                (CellKind::And2, 87),
                (CellKind::Mux2, 55),
                (CellKind::HalfAdder, 24),
                (CellKind::FullAdder, 516),
            ],
            verilog_fnv: 0x8ebb_5067_5fdb_dd00,
        },
    );
}

#[test]
fn all_zero_spec_is_pinned() {
    check(
        "all_zero",
        &all_zero_spec(),
        SharingStrategy::None,
        RecodingStrategy::Csd,
        &Pin {
            area_bits: 0x3ffc_ed91_6872_b021,
            power_bits: 0x404d_6147_ae14_7ae1,
            critical_path_bits: 0x4075_e000_0000_0000,
            gate_count: 22,
            by_kind: &[
                (CellKind::Inverter, 7),
                (CellKind::And2, 3),
                (CellKind::Mux2, 8),
                (CellKind::FullAdder, 4),
            ],
            verilog_fnv: 0x3730_bcee_9fba_2982,
        },
    );
}
