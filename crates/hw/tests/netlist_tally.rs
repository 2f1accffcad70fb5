//! Property tests of the netlist's per-kind tally and its timing walk.
//!
//! Random netlists are built through the word-level adder builders, the
//! constant-multiplier builder and [`Netlist::absorb`]. For each one the
//! cached per-kind instance counts must match a recount over the gates, area
//! and power must equal the per-kind products summed in ascending kind order
//! (compared bit for bit), and the critical path must equal an arrival-time
//! computation over an independently computed Kahn order, both for the
//! netlist as built and for a copy whose gates were inserted in reverse order.

use pmlp_hw::adder::{self, Word};
use pmlp_hw::constmul::{constant_multiplier, RecodingStrategy};
use pmlp_hw::{CellKind, CellLibrary, Netlist};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One builder step: `(operation, first operand, second operand, constant)`.
type Op = (u8, usize, usize, i64);

/// Applies `ops` to a netlist holding `inputs` primary-input words of
/// `width` bits; every result joins the pool of words later steps draw from.
fn build(inputs: usize, width: usize, ops: &[Op]) -> Netlist {
    let mut n = Netlist::new("random");
    let mut pool: Vec<Word> = (0..inputs)
        .map(|_| adder::input_word(&mut n, width))
        .collect();
    for &(op, i, j, constant) in ops {
        let a = pool[i % pool.len()].clone();
        let b = pool[j % pool.len()].clone();
        let word = match op {
            0 => adder::add(&mut n, &a, &b),
            1 => adder::sub(&mut n, &a, &b),
            2 => adder::negate(&mut n, &a),
            3 => adder::relu(&mut n, &a),
            4 => vec![adder::greater_than(&mut n, &a, &b)],
            5 => {
                let sel = b[0];
                adder::mux_word(&mut n, sel, &a, &b)
            }
            6 => constant_multiplier(&mut n, &a, constant, RecodingStrategy::Csd),
            7 => constant_multiplier(&mut n, &a, constant, RecodingStrategy::Binary),
            8 => adder::adder_tree(&mut n, &[a, b, pool[(i + j) % pool.len()].clone()]),
            _ => {
                // Absorb a separately built multiplier and keep its output.
                let mut part = Netlist::new("part");
                let x = adder::input_word(&mut part, width);
                let y = constant_multiplier(&mut part, &x, constant, RecodingStrategy::Csd);
                let mapping = n.absorb(&part);
                y.iter().map(|&net| mapping[net]).collect()
            }
        };
        // Keep the pool's words narrow enough for the adders to stay small.
        pool.push(word.into_iter().take(12).collect());
    }
    n
}

/// The same gates and nets as `netlist`, inserted in reverse order.
fn reversed(netlist: &Netlist) -> Netlist {
    let mut r = Netlist::new("reversed");
    while r.net_count() < netlist.net_count() {
        r.add_net();
    }
    for gate in netlist.gates().iter().rev() {
        r.add_gate(gate.kind(), gate.inputs(), gate.outputs());
    }
    r
}

/// Gate indices in a Kahn order over producer -> consumer edges, ties broken
/// by lowest index.
fn kahn_order(netlist: &Netlist) -> Vec<usize> {
    let gates = netlist.gates();
    let mut producers: Vec<Vec<usize>> = vec![Vec::new(); netlist.net_count()];
    for (gi, gate) in gates.iter().enumerate() {
        for &out in gate.outputs() {
            producers[out].push(gi);
        }
    }
    let mut pending: Vec<usize> = gates
        .iter()
        .map(|g| g.inputs().iter().map(|&n| producers[n].len()).sum())
        .collect();
    let mut order = Vec::with_capacity(gates.len());
    let mut done = vec![false; gates.len()];
    while order.len() < gates.len() {
        let next = (0..gates.len())
            .find(|&gi| !done[gi] && pending[gi] == 0)
            .expect("builder netlists are acyclic");
        done[next] = true;
        order.push(next);
        for (gi, gate) in gates.iter().enumerate() {
            for &input in gate.inputs() {
                if producers[input].contains(&next) {
                    pending[gi] -= 1;
                }
            }
        }
    }
    order
}

/// Critical path by relaxing arrival times along `kahn_order`.
fn reference_critical_path(netlist: &Netlist, library: &CellLibrary) -> f64 {
    let mut arrival = vec![0.0_f64; netlist.net_count()];
    for gi in kahn_order(netlist) {
        let gate = &netlist.gates()[gi];
        let start = gate
            .inputs()
            .iter()
            .map(|&n| arrival[n])
            .fold(0.0_f64, f64::max);
        let t = start + library.params(gate.kind()).delay_us;
        for &out in gate.outputs() {
            arrival[out] = arrival[out].max(t);
        }
    }
    arrival.iter().copied().fold(0.0_f64, f64::max)
}

fn check_tally(netlist: &Netlist, library: &CellLibrary) {
    let mut recount: BTreeMap<CellKind, usize> = BTreeMap::new();
    for gate in netlist.gates() {
        *recount.entry(gate.kind()).or_insert(0) += 1;
    }
    assert_eq!(netlist.count_by_kind(), recount.clone());

    let (mut area, mut power) = (0.0_f64, 0.0_f64);
    for kind in CellKind::all() {
        if let Some(&count) = recount.get(&kind) {
            area += library.params(kind).area_mm2 * count as f64;
            power += library.params(kind).power_uw * count as f64;
        }
    }
    let area_report = netlist.area(library);
    assert_eq!(area_report.total_mm2.to_bits(), area.to_bits());
    assert_eq!(area_report.gate_count, netlist.gates().len());
    assert_eq!(netlist.power(library).total_uw.to_bits(), power.to_bits());
    let counts: BTreeMap<CellKind, usize> = area_report
        .by_kind
        .iter()
        .map(|(&kind, &(count, _))| (kind, count))
        .collect();
    assert_eq!(counts, recount);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn tally_and_timing_match_recomputation(
        inputs in 1_usize..4,
        width in 2_usize..6,
        ops in proptest::collection::vec((0_u8..10, 0_usize..64, 0_usize..64, -100_i64..100), 0..12),
    ) {
        let library = CellLibrary::egt();
        let netlist = build(inputs, width, &ops);
        check_tally(&netlist, &library);
        let expected = reference_critical_path(&netlist, &library);
        prop_assert_eq!(netlist.timing(&library).critical_path_us.to_bits(), expected.to_bits());

        let backwards = reversed(&netlist);
        check_tally(&backwards, &library);
        prop_assert_eq!(backwards.timing(&library).critical_path_us.to_bits(), expected.to_bits());
    }
}
