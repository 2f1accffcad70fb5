//! Analytic fast-path cost model: area / power / timing of a bespoke MLP
//! circuit **without materializing a netlist**.
//!
//! [`estimate_circuit`] walks a [`CircuitSpec`] with exactly the same
//! structural decisions as [`crate::BespokeMlpCircuit::synthesize_with`] — CSD/binary
//! recoding, shift-add multipliers, balanced adder trees, ReLU masks, the
//! argmax comparator tree and per-input multiplier sharing — but instead of
//! appending gates it only *accounts* for them: per-[`CellKind`] instance
//! counts and per-bit signal arrival times. Area and static power are linear
//! in the instance counts and the critical path is the maximum arrival time,
//! so the resulting [`CostReport`] is **bit-for-bit identical** to running
//! full synthesis followed by [`Netlist::area`](crate::Netlist::area) /
//! [`Netlist::power`](crate::Netlist::power) /
//! [`Netlist::timing`](crate::Netlist::timing) — at a small fraction of the
//! cost (no gate/net allocation, no topological sort, no arrival array).
//!
//! This is what makes hardware-in-the-loop search loops cheap: the NSGA-II /
//! sweep layers evaluate thousands of candidates through this fast path and
//! reserve full synthesis for Pareto-front finalists that need a verifiable
//! netlist (functional simulation, Verilog export).
//!
//! Constant-multiplier costs are memoized process-wide in a `CostCache`
//! keyed by `(code, input width, recoding strategy)`: candidate populations
//! re-use a small set of weight codes over and over, so after warm-up a
//! multiplier costs one hash lookup. [`multiplier_cache_stats`] exposes the
//! hit/miss counters for engine-level reporting.
//!
//! # Example
//!
//! ```
//! use pmlp_hw::{CircuitSpec, LayerSpec, HwActivation, CellLibrary, BespokeMlpCircuit};
//! use pmlp_hw::constmul::RecodingStrategy;
//! use pmlp_hw::cost::estimate_circuit;
//! use pmlp_hw::SharingStrategy;
//!
//! # fn main() -> Result<(), pmlp_hw::HwError> {
//! let spec = CircuitSpec::new(
//!     4,
//!     vec![LayerSpec::new(vec![vec![3, -2], vec![0, 5]], 4, HwActivation::Argmax)?],
//! )?;
//! let library = CellLibrary::egt();
//! let fast = estimate_circuit(&spec, &library, SharingStrategy::None, RecodingStrategy::Csd)?;
//! let full = BespokeMlpCircuit::synthesize(&spec, &library)?;
//! assert_eq!(fast.area, full.area());
//! assert_eq!(fast.power, full.power());
//! assert_eq!(fast.timing, full.timing());
//! # Ok(())
//! # }
//! ```

use crate::analysis::{AreaReport, PowerReport, TimingReport};
use crate::cell::{CellCounts, CellKind, CellLibrary};
use crate::circuit::{CircuitSpec, HwActivation, SharingStrategy};
use crate::constmul::{MultiplierCost, RecodingStrategy};
use crate::csd::CsdDigits;
use crate::error::HwError;
use crate::neuron::min_signed_width;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The fast-path counterpart of a full synthesis run: the same three analysis
/// reports a [`BespokeMlpCircuit`](crate::BespokeMlpCircuit) produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    /// Cell-area breakdown (identical to [`crate::Netlist::area`]).
    pub area: AreaReport,
    /// Static-power breakdown (identical to [`crate::Netlist::power`]).
    pub power: PowerReport,
    /// Critical-path timing (identical to [`crate::Netlist::timing`]).
    pub timing: TimingReport,
}

impl CostReport {
    /// Total gate count of the modelled circuit.
    pub fn gate_count(&self) -> usize {
        self.area.gate_count
    }

    /// Energy per inference in picojoules, `power × critical path`
    /// (µW × µs = pJ) — the fast-path counterpart of
    /// [`SynthesisReport::energy_pj`](crate::SynthesisReport::energy_pj),
    /// bit-identical to it because both factors are.
    pub fn energy_pj(&self) -> f64 {
        self.power.total_uw * self.timing.critical_path_us
    }
}

/// A signal word in the cost model: one arrival time (µs) per bit,
/// little-endian like [`crate::adder::Word`]. Constant bits arrive at 0.
type ArrWord = Vec<f64>;

/// Key of one memoized constant multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MulKey {
    code: i64,
    input_bits: u8,
    recoding: RecodingStrategy,
}

/// Memoized structural cost of one constant multiplier: its recoded shift-add
/// terms and the gates it instantiates for a given input width.
#[derive(Debug, Clone)]
struct MulEntry {
    terms: Arc<[(u32, i8)]>,
    counts: CellCounts,
    cost: MultiplierCost,
}

/// Process-wide memo of constant-multiplier costs.
///
/// Keyed by `(code, input word width, recoding strategy)` — everything a
/// shift-add multiplier's structure depends on. Sharing strategies do not
/// change the per-multiplier cost (they change *how many* multipliers a layer
/// instantiates), so shared and unshared synthesis hit the same entries.
struct CostCache {
    entries: Mutex<HashMap<MulKey, MulEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

static COST_CACHE: OnceLock<CostCache> = OnceLock::new();

fn cost_cache() -> &'static CostCache {
    COST_CACHE.get_or_init(|| CostCache {
        entries: Mutex::new(HashMap::new()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Snapshot of the process-wide multiplier-cost cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostCacheStats {
    /// Multiplier cost requests answered from the cache.
    pub hits: u64,
    /// Multiplier cost requests that recoded and walked the multiplier.
    pub misses: u64,
    /// Number of distinct `(code, width, recoding)` entries cached.
    pub entries: usize,
}

impl CostCacheStats {
    /// Fraction of requests answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Returns the current process-wide multiplier-cache counters.
///
/// The cache is shared by every [`estimate_circuit`] call in the process (and
/// by [`multiplier_cost_cached`]), so concurrent engines all contribute to the
/// same counters.
pub fn multiplier_cache_stats() -> CostCacheStats {
    let cache = cost_cache();
    CostCacheStats {
        hits: cache.hits.load(Ordering::Relaxed),
        misses: cache.misses.load(Ordering::Relaxed),
        entries: cache.entries.lock().expect("cost cache lock").len(),
    }
}

/// Memoized variant of [`crate::constmul::multiplier_cost`]: identical result,
/// but repeated queries for the same `(code, input width, recoding)` are
/// answered from the process-wide `CostCache`.
pub fn multiplier_cost_cached(
    code: i64,
    input_bits: usize,
    recoding: RecodingStrategy,
) -> MultiplierCost {
    if code == 0 {
        // Mirror `constant_multiplier`: a zero constant is pruned wiring and
        // never touches the cache.
        return crate::constmul::multiplier_cost(0, recoding);
    }
    lookup_multiplier(code, input_bits, recoding).cost
}

fn recode_terms(code: i64, recoding: RecodingStrategy) -> Vec<(u32, i8)> {
    match recoding {
        RecodingStrategy::Csd => CsdDigits::from_value(code).terms(),
        RecodingStrategy::Binary => {
            let negative = code < 0;
            let magnitude = code.unsigned_abs();
            (0..64)
                .filter(|&i| (magnitude >> i) & 1 == 1)
                .map(|i| (i as u32, if negative { -1_i8 } else { 1_i8 }))
                .collect()
        }
    }
}

/// Fetches (or computes and inserts) the memo entry of one multiplier.
///
/// The whole lookup-or-fill runs under one lock acquisition so concurrent
/// engines never recompute the same cold entry and the hit/miss counters are
/// exact (the fill itself is a microsecond-scale arithmetic walk, so the
/// critical section stays negligible).
fn lookup_multiplier(code: i64, input_bits: usize, recoding: RecodingStrategy) -> MulEntry {
    let key = MulKey {
        code,
        input_bits: input_bits.min(u8::MAX as usize) as u8,
        recoding,
    };
    let cache = cost_cache();
    let mut entries = cache.entries.lock().expect("cost cache lock");
    if let Some(entry) = entries.get(&key) {
        cache.hits.fetch_add(1, Ordering::Relaxed);
        return entry.clone();
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);

    let terms: Arc<[(u32, i8)]> = recode_terms(code, recoding).into();
    // Walk the multiplier once against a zero-arrival input of the right
    // width, purely to count its gates.
    let mut probe = Estimator::probe();
    let input = vec![0.0; input_bits];
    let before = probe.counts;
    let _ = probe.multiplier_from_terms(&input, &terms);
    let counts = probe.counts.diff(&before);
    let nonzero = terms.len();
    let entry = MulEntry {
        terms,
        counts,
        cost: MultiplierCost {
            adders: nonzero.saturating_sub(1),
            nonzero_digits: nonzero,
            is_free: nonzero <= 1,
        },
    };
    entries.insert(key, entry.clone());
    entry
}

/// The structural walker: mirrors the netlist builders gate for gate,
/// accumulating instance counts and per-bit arrival times instead of gates.
struct Estimator {
    delays: [f64; CellKind::COUNT],
    counts: CellCounts,
    max_arrival: f64,
    /// When `false`, gates update arrival times but not the instance counts
    /// (used after a multiplier-cache hit, where the counts are bulk-added).
    counting: bool,
}

impl Estimator {
    fn new(library: &CellLibrary) -> Self {
        Estimator {
            delays: library.delay_table(),
            counts: CellCounts::default(),
            max_arrival: 0.0,
            counting: true,
        }
    }

    /// A library-independent estimator used only to count gates (delays 0).
    fn probe() -> Self {
        Estimator {
            delays: [0.0; CellKind::COUNT],
            counts: CellCounts::default(),
            max_arrival: 0.0,
            counting: true,
        }
    }

    /// Accounts for one gate and returns its output arrival time.
    #[inline]
    fn gate(&mut self, kind: CellKind, input_arrival: f64) -> f64 {
        if self.counting {
            self.counts.bump(kind);
        }
        let t = input_arrival + self.delays[kind.index()];
        if t > self.max_arrival {
            self.max_arrival = t;
        }
        t
    }

    /// Mirror of `adder::resize`: sign extension / truncation, pure wiring.
    fn resize(word: &[f64], width: usize) -> ArrWord {
        let sign = *word.last().expect("non-empty word");
        (0..width)
            .map(|i| if i < word.len() { word[i] } else { sign })
            .collect()
    }

    /// Mirror of `adder::add_with_carry` (via `adder::add` / `adder::sub`):
    /// `sub` inverts `b` and seeds the carry with the constant one.
    fn add_with_carry(&mut self, a: &[f64], b: &[f64], subtract: bool) -> ArrWord {
        let width = a.len().max(b.len()) + 1;
        let a_ext = Self::resize(a, width);
        let b_ext = Self::resize(b, width);
        let mut carry = 0.0_f64; // both constants arrive at t = 0
        let mut sum = Vec::with_capacity(width);
        for i in 0..width {
            let b_bit = if subtract {
                self.gate(CellKind::Inverter, b_ext[i])
            } else {
                b_ext[i]
            };
            // The netlist builder uses a half adder exactly when the carry-in
            // net is the constant zero: the first stage of a plain addition.
            let t = if i == 0 && !subtract {
                self.gate(CellKind::HalfAdder, a_ext[i].max(b_bit))
            } else {
                self.gate(CellKind::FullAdder, a_ext[i].max(b_bit).max(carry))
            };
            sum.push(t);
            carry = t;
        }
        sum
    }

    fn add(&mut self, a: &[f64], b: &[f64]) -> ArrWord {
        self.add_with_carry(a, b, false)
    }

    fn sub(&mut self, a: &[f64], b: &[f64]) -> ArrWord {
        self.add_with_carry(a, b, true)
    }

    /// Mirror of `adder::negate`: subtraction from a constant-zero word.
    fn negate(&mut self, a: &[f64]) -> ArrWord {
        let zero = vec![0.0; a.len()];
        self.sub(&zero, a)
    }

    /// Mirror of `adder::adder_tree`: balanced pairwise reduction.
    fn adder_tree(&mut self, operands: &[ArrWord]) -> ArrWord {
        match operands.len() {
            0 => vec![0.0],
            1 => operands[0].clone(),
            _ => {
                let mut level: Vec<ArrWord> = operands.to_vec();
                while level.len() > 1 {
                    let mut next = Vec::with_capacity(level.len().div_ceil(2));
                    for chunk in level.chunks(2) {
                        if chunk.len() == 2 {
                            next.push(self.add(&chunk[0], &chunk[1]));
                        } else {
                            next.push(chunk[0].clone());
                        }
                    }
                    level = next;
                }
                level.pop().expect("adder tree leaves a single word")
            }
        }
    }

    /// Mirror of `adder::relu`: sign inverter plus one AND mask per bit.
    fn relu(&mut self, a: &[f64]) -> ArrWord {
        let sign = *a.last().expect("non-empty word");
        let not_sign = self.gate(CellKind::Inverter, sign);
        a.iter()
            .map(|&bit| self.gate(CellKind::And2, bit.max(not_sign)))
            .collect()
    }

    /// Mirror of `adder::greater_than`: the sign of `b - a`.
    fn greater_than(&mut self, a: &[f64], b: &[f64]) -> f64 {
        let diff = self.sub(b, a);
        *diff.last().expect("difference word is non-empty")
    }

    /// Mirror of `adder::mux_word`: one 2:1 mux per bit of the wider word.
    fn mux_word(&mut self, sel: f64, on_false: &[f64], on_true: &[f64]) -> ArrWord {
        let width = on_false.len().max(on_true.len());
        let f = Self::resize(on_false, width);
        let t = Self::resize(on_true, width);
        (0..width)
            .map(|i| self.gate(CellKind::Mux2, sel.max(f[i]).max(t[i])))
            .collect()
    }

    /// Mirror of `constmul::constant_multiplier`, with the recoded terms (and
    /// gate counts) served from the process-wide [`CostCache`].
    fn constant_multiplier(
        &mut self,
        input: &[f64],
        constant: i64,
        recoding: RecodingStrategy,
    ) -> ArrWord {
        if constant == 0 {
            return vec![0.0];
        }
        let entry = lookup_multiplier(constant, input.len(), recoding);
        // The entry's counts already cover this multiplier: bulk-add them and
        // walk only for arrival times.
        let was_counting = self.counting;
        if was_counting {
            self.counts.add(&entry.counts);
            self.counting = false;
        }
        let out = self.multiplier_from_terms(input, &entry.terms);
        self.counting = was_counting;
        out
    }

    /// The shift-add/sub walk shared by the cache fill and the arrival pass.
    fn multiplier_from_terms(&mut self, input: &[f64], terms: &[(u32, i8)]) -> ArrWord {
        let shift = |word: &[f64], k: usize| -> ArrWord {
            let mut out = vec![0.0; k];
            out.extend_from_slice(word);
            out
        };
        let positive: Vec<ArrWord> = terms
            .iter()
            .filter(|&&(_, sign)| sign > 0)
            .map(|&(k, _)| shift(input, k as usize))
            .collect();
        let negative: Vec<ArrWord> = terms
            .iter()
            .filter(|&&(_, sign)| sign < 0)
            .map(|&(k, _)| shift(input, k as usize))
            .collect();
        let pos_sum = self.adder_tree(&positive);
        let neg_sum = self.adder_tree(&negative);
        match (positive.is_empty(), negative.is_empty()) {
            (true, true) => vec![0.0],
            (false, true) => pos_sum,
            (true, false) => self.negate(&neg_sum),
            (false, false) => self.sub(&pos_sum, &neg_sum),
        }
    }

    /// Mirror of `neuron::build_neuron`.
    fn neuron(
        &mut self,
        inputs: &[ArrWord],
        weights: &[i64],
        bias: i64,
        relu: bool,
        cache: Option<&mut HashMap<(usize, i64), ArrWord>>,
        recoding: RecodingStrategy,
    ) -> ArrWord {
        let mut operands: Vec<ArrWord> = Vec::new();
        match cache {
            Some(cache) => {
                for (i, (&w, input)) in weights.iter().zip(inputs.iter()).enumerate() {
                    if w == 0 {
                        continue;
                    }
                    if let Some(product) = cache.get(&(i, w)) {
                        operands.push(product.clone());
                    } else {
                        let built = self.constant_multiplier(input, w, recoding);
                        cache.insert((i, w), built.clone());
                        operands.push(built);
                    }
                }
            }
            None => {
                for (&w, input) in weights.iter().zip(inputs.iter()) {
                    if w == 0 {
                        continue;
                    }
                    operands.push(self.constant_multiplier(input, w, recoding));
                }
            }
        }
        if bias != 0 {
            operands.push(vec![0.0; min_signed_width(bias)]);
        }
        let sum = self.adder_tree(&operands);
        if relu {
            self.relu(&sum)
        } else {
            sum
        }
    }

    /// Mirror of `circuit::build_argmax`.
    fn argmax(&mut self, outputs: &[ArrWord]) -> ArrWord {
        let n = outputs.len();
        let index_bits = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
        let mut best_value = outputs[0].clone();
        let mut best_index: ArrWord = vec![0.0; index_bits + 1];
        for candidate in outputs.iter().skip(1) {
            let is_greater = self.greater_than(candidate, &best_value);
            best_value = self.mux_word(is_greater, &best_value, candidate);
            let candidate_index = vec![0.0; index_bits + 1];
            best_index = self.mux_word(is_greater, &best_index, &candidate_index);
        }
        best_index
    }
}

/// Estimates area, power and timing of the bespoke circuit for `spec` without
/// building its netlist.
///
/// The result is identical (including float bit patterns) to synthesizing the
/// circuit with [`BespokeMlpCircuit::synthesize_with`](crate::BespokeMlpCircuit::synthesize_with)
/// and running the three netlist analyses — the equivalence test suite in this
/// module and in `pmlp-core` asserts exact equality.
///
/// # Errors
///
/// Returns the same validation errors full synthesis would:
/// [`HwError::InvalidSpec`] / [`HwError::InvalidBitWidth`] for inconsistent
/// specs and an argmax activation on a non-output layer.
pub fn estimate_circuit(
    spec: &CircuitSpec,
    library: &CellLibrary,
    sharing: SharingStrategy,
    recoding: RecodingStrategy,
) -> Result<CostReport, HwError> {
    // Same re-validation as full synthesis, so hand-constructed specs cannot
    // bypass the checks.
    spec.validate()?;
    let mut est = Estimator::new(library);

    let width = spec.input_bits as usize + 1;
    let mut current: Vec<ArrWord> = (0..spec.input_count()).map(|_| vec![0.0; width]).collect();

    let layer_count = spec.layers.len();
    for (li, layer) in spec.layers.iter().enumerate() {
        let mut cache: HashMap<(usize, i64), ArrWord> = HashMap::new();
        let mut outputs: Vec<ArrWord> = Vec::with_capacity(layer.neuron_count());
        for (ni, row) in layer.weights.iter().enumerate() {
            let cache_ref = match sharing {
                SharingStrategy::SharedPerInput => Some(&mut cache),
                SharingStrategy::None => None,
            };
            let out = est.neuron(
                &current,
                row,
                layer.biases[ni],
                layer.activation == HwActivation::ReLU,
                cache_ref,
                recoding,
            );
            outputs.push(out);
        }
        if layer.activation == HwActivation::Argmax {
            if li != layer_count - 1 {
                return Err(HwError::InvalidSpec {
                    context: format!("argmax activation on non-output layer {li}"),
                });
            }
            let _ = est.argmax(&outputs);
        }
        current = outputs;
    }

    let gate_count = est.counts.total();
    let (area_by_kind, total_mm2) = est.counts.report_map(|k| library.params(k).area_mm2);
    let (power_by_kind, total_uw) = est.counts.report_map(|k| library.params(k).power_uw);
    let critical = est.max_arrival;
    Ok(CostReport {
        area: AreaReport {
            total_mm2,
            gate_count,
            by_kind: area_by_kind,
        },
        power: PowerReport {
            total_uw,
            by_kind: power_by_kind,
        },
        timing: TimingReport {
            critical_path_us: critical,
            max_frequency_hz: if critical > 0.0 {
                1e6 / critical
            } else {
                f64::INFINITY
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{BespokeMlpCircuit, LayerSpec};

    fn assert_equivalent(spec: &CircuitSpec, sharing: SharingStrategy, recoding: RecodingStrategy) {
        let library = CellLibrary::egt();
        let fast = estimate_circuit(spec, &library, sharing, recoding).expect("fast path");
        let full =
            BespokeMlpCircuit::synthesize_with(spec, &library, sharing, recoding).expect("full");
        assert_eq!(fast.area, full.area(), "area mismatch ({sharing:?})");
        assert_eq!(fast.power, full.power(), "power mismatch ({sharing:?})");
        assert_eq!(fast.timing, full.timing(), "timing mismatch ({sharing:?})");
        assert_eq!(fast.gate_count(), full.netlist().gate_count());
        assert_eq!(
            fast.energy_pj(),
            full.report().energy_pj(),
            "energy mismatch ({sharing:?})"
        );
    }

    fn simple_spec() -> CircuitSpec {
        CircuitSpec::new(
            4,
            vec![
                LayerSpec::with_biases(
                    vec![vec![2, -1, 3], vec![-2, 4, 1]],
                    vec![3, -5],
                    4,
                    HwActivation::ReLU,
                )
                .unwrap(),
                LayerSpec::new(vec![vec![1, -2], vec![-3, 2]], 4, HwActivation::Argmax).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_full_synthesis_on_the_simple_spec() {
        for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
            for recoding in [RecodingStrategy::Csd, RecodingStrategy::Binary] {
                assert_equivalent(&simple_spec(), sharing, recoding);
            }
        }
    }

    #[test]
    fn matches_full_synthesis_with_clustered_weights() {
        // Fully clustered weights exercise the product-sharing path.
        let layer = LayerSpec::new(vec![vec![5, -3, 7]; 6], 4, HwActivation::Identity).unwrap();
        let spec = CircuitSpec::new(4, vec![layer]).unwrap();
        assert_equivalent(
            &spec,
            SharingStrategy::SharedPerInput,
            RecodingStrategy::Csd,
        );
        assert_equivalent(&spec, SharingStrategy::None, RecodingStrategy::Csd);
    }

    #[test]
    fn matches_full_synthesis_on_degenerate_specs() {
        // All-zero weights: no gates at all.
        let zero = CircuitSpec::new(
            3,
            vec![LayerSpec::new(vec![vec![0, 0]], 4, HwActivation::Identity).unwrap()],
        )
        .unwrap();
        assert_equivalent(&zero, SharingStrategy::None, RecodingStrategy::Csd);
        // Single argmax output (no comparator tree is built for n = 1).
        let single = CircuitSpec::new(
            3,
            vec![LayerSpec::new(vec![vec![3, -1]], 4, HwActivation::Argmax).unwrap()],
        )
        .unwrap();
        assert_equivalent(&single, SharingStrategy::None, RecodingStrategy::Csd);
        // Power-of-two and negated power-of-two weights (pure wiring / negate).
        let pow2 = CircuitSpec::new(
            4,
            vec![LayerSpec::new(vec![vec![4, -8, 1, -1]], 5, HwActivation::ReLU).unwrap()],
        )
        .unwrap();
        assert_equivalent(&pow2, SharingStrategy::None, RecodingStrategy::Csd);
    }

    #[test]
    fn rejects_the_same_specs_as_full_synthesis() {
        let l1 = LayerSpec::new(vec![vec![1, 2], vec![2, 1]], 4, HwActivation::Argmax).unwrap();
        let l2 = LayerSpec::new(vec![vec![1, 1]], 4, HwActivation::Identity).unwrap();
        let spec = CircuitSpec::new(4, vec![l1, l2]).unwrap();
        let library = CellLibrary::egt();
        assert!(estimate_circuit(
            &spec,
            &library,
            SharingStrategy::None,
            RecodingStrategy::Csd
        )
        .is_err());
        assert!(BespokeMlpCircuit::synthesize(&spec, &library).is_err());
    }

    #[test]
    fn multiplier_cost_cached_matches_uncached() {
        for code in -40_i64..=40 {
            for recoding in [RecodingStrategy::Csd, RecodingStrategy::Binary] {
                assert_eq!(
                    multiplier_cost_cached(code, 6, recoding),
                    crate::constmul::multiplier_cost(code, recoding),
                    "code {code} ({recoding:?})"
                );
            }
        }
    }

    #[test]
    fn cache_reports_hits_after_reuse() {
        let before = multiplier_cache_stats();
        // A fresh, unusual key guarantees one miss followed by hits.
        let code = 0x5A5A;
        let _ = multiplier_cost_cached(code, 9, RecodingStrategy::Csd);
        let _ = multiplier_cost_cached(code, 9, RecodingStrategy::Csd);
        let _ = multiplier_cost_cached(code, 9, RecodingStrategy::Csd);
        let after = multiplier_cache_stats();
        assert!(after.misses > before.misses);
        assert!(after.hits >= before.hits + 2);
        assert!(after.entries > 0);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn estimate_is_much_lighter_than_synthesis_for_big_specs() {
        // Not a timing assertion (CI noise), just a sanity check that the
        // fast path scales to a realistically-sized spec and agrees.
        let weight = |i: usize, j: usize| -> i64 { ((i * 31 + j * 17 + 7) % 31) as i64 - 15 };
        let hidden: Vec<Vec<i64>> = (0..20)
            .map(|n| (0..11).map(|i| weight(n, i)).collect())
            .collect();
        let output: Vec<Vec<i64>> = (0..5)
            .map(|n| (0..20).map(|i| weight(n + 100, i)).collect())
            .collect();
        let spec = CircuitSpec::new(
            4,
            vec![
                LayerSpec::new(hidden, 5, HwActivation::ReLU).unwrap(),
                LayerSpec::new(output, 5, HwActivation::Argmax).unwrap(),
            ],
        )
        .unwrap();
        assert_equivalent(&spec, SharingStrategy::None, RecodingStrategy::Csd);
        assert_equivalent(
            &spec,
            SharingStrategy::SharedPerInput,
            RecodingStrategy::Csd,
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::circuit::{BespokeMlpCircuit, LayerSpec};
    use proptest::prelude::*;

    /// Random layer stacks covering bit-widths 2–8, biases, ReLU/identity
    /// hidden activations and an argmax output.
    fn arbitrary_spec() -> impl Strategy<Value = CircuitSpec> {
        (
            (2_u8..=8, 2_usize..=4),    // (weight bits, inputs)
            (1_usize..=4, 2_usize..=3), // (hidden neurons, outputs)
            0_u64..u64::MAX,            // weight seed
            0_u8..2,                    // hidden relu?
        )
            .prop_map(|((bits, inputs), (hidden, outputs), seed, relu)| {
                let relu = relu == 1;
                let lo = -(1_i64 << (bits - 1));
                let hi = (1_i64 << (bits - 1)) - 1;
                let mut state = seed | 1;
                let mut next = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let span = (hi - lo + 1) as u64;
                    lo + ((state >> 33) % span) as i64
                };
                let h: Vec<Vec<i64>> = (0..hidden)
                    .map(|_| (0..inputs).map(|_| next()).collect())
                    .collect();
                let hb: Vec<i64> = (0..hidden).map(|_| next()).collect();
                let o: Vec<Vec<i64>> = (0..outputs)
                    .map(|_| (0..hidden).map(|_| next()).collect())
                    .collect();
                let activation = if relu {
                    HwActivation::ReLU
                } else {
                    HwActivation::Identity
                };
                CircuitSpec::new(
                    4,
                    vec![
                        LayerSpec::with_biases(h, hb, bits, activation).unwrap(),
                        LayerSpec::new(o, bits, HwActivation::Argmax).unwrap(),
                    ],
                )
                .unwrap()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn fast_path_matches_full_synthesis(spec in arbitrary_spec()) {
            let library = CellLibrary::egt();
            for sharing in [SharingStrategy::None, SharingStrategy::SharedPerInput] {
                let fast =
                    estimate_circuit(&spec, &library, sharing, RecodingStrategy::Csd).unwrap();
                let full = BespokeMlpCircuit::synthesize_with(
                    &spec,
                    &library,
                    sharing,
                    RecodingStrategy::Csd,
                )
                .unwrap();
                prop_assert_eq!(&fast.area, &full.area());
                prop_assert_eq!(&fast.power, &full.power());
                prop_assert_eq!(&fast.timing, &full.timing());
            }
        }
    }
}
