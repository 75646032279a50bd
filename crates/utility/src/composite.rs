//! Composite utilities: runtime-polymorphic [`AnyUtility`] and the
//! multi-target sum `Σ_i U_i(S)` ([`SumUtility`]).
//!
//! §II-C/§II-D: the overall utility of a multi-target WSN at a slot is the
//! (symmetric) sum of per-target utilities, each evaluated on the activated
//! sensors that can monitor that target. Sums of monotone submodular
//! functions are monotone submodular, so the greedy guarantee carries over.
//!
//! # Sparse evaluation
//!
//! Marginal-gain queries against the sum only need the parts whose
//! [support](UtilityFunction::support) contains the queried sensor: every
//! other part contributes **exactly** `0.0`. [`SumUtility`] therefore builds
//! a CSR inverted index `sensor → incident part ids` ([`IncidenceIndex`]) at
//! construction, and its evaluator ([`SparseSumEvaluator`]) answers
//! `gain`/`loss`/`insert`/`remove` in O(deg(v)) work instead of O(m).
//! Incident parts are visited in increasing part-id order — the same
//! relative order as the dense walk — so sparse gains and losses are
//! *bitwise equal* to the dense ones and every scheduler produces identical
//! assignments.
//!
//! The sparse evaluator runs on the struct-of-arrays engine in
//! [`soa`](crate::soa): parts are grouped by family at construction and
//! queries execute six family-batched kernels over contiguous scalar state
//! instead of enum-dispatching into per-part evaluators. One oracle is
//! kept and checked bitwise against it: the dense all-parts walk
//! ([`SumEvaluator`], [`SumUtility::dense_evaluator`], [`DenseSumUtility`]),
//! Eq. 1 term by term — COOL-E024 in `cool check`, the `soa_props` suite
//! and the `soa_smoke_*` large-instance replays.

use crate::coverage::{CoverageEvaluator, CoverageUtility};
use crate::detection::{DetectionEvaluator, DetectionUtility};
use crate::facility::{FacilityEvaluator, FacilityLocationUtility};
use crate::kcover::{KCoverageEvaluator, KCoverageUtility};
use crate::linear::{LinearEvaluator, LinearUtility};
use crate::logsum::{LogSumEvaluator, LogSumUtility};
use crate::soa::{SoaLayout, SparseSumEvaluator};
use crate::traits::{Evaluator, PerSlot, UtilityFunction};
use cool_common::{SensorId, SensorSet};
use std::borrow::Cow;
use std::sync::Arc;

/// Any of the crate's built-in utilities, for heterogeneous composition.
///
/// # Examples
///
/// ```
/// use cool_utility::{AnyUtility, DetectionUtility, LinearUtility, UtilityFunction};
/// use cool_common::SensorSet;
///
/// let parts: Vec<AnyUtility> = vec![
///     DetectionUtility::uniform(3, 0.4).into(),
///     LinearUtility::new(vec![0.0, 1.0, 0.0]).into(),
/// ];
/// assert!(parts.iter().all(|u| u.universe() == 3));
/// ```
#[derive(Clone, Debug)]
pub enum AnyUtility {
    /// Detection probability `1 − Π(1−p)` (§II-C).
    Detection(DetectionUtility),
    /// Log-sum `ln(1 + Σw)` (§III gadget).
    LogSum(LogSumUtility),
    /// Modular `Σw`.
    Linear(LinearUtility),
    /// Weighted-area coverage (Eq. 2).
    Coverage(CoverageUtility),
    /// Facility location `Σ max`.
    Facility(FacilityLocationUtility),
    /// k-coverage `Σ w·min(count, k)/k`.
    KCover(KCoverageUtility),
}

macro_rules! dispatch {
    ($self:expr, $u:ident => $body:expr) => {
        match $self {
            AnyUtility::Detection($u) => $body,
            AnyUtility::LogSum($u) => $body,
            AnyUtility::Linear($u) => $body,
            AnyUtility::Coverage($u) => $body,
            AnyUtility::Facility($u) => $body,
            AnyUtility::KCover($u) => $body,
        }
    };
}

impl UtilityFunction for AnyUtility {
    type Evaluator = AnyEvaluator;

    fn universe(&self) -> usize {
        dispatch!(self, u => u.universe())
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        dispatch!(self, u => u.eval(set))
    }

    fn max_value(&self) -> f64 {
        dispatch!(self, u => u.max_value())
    }

    fn evaluator(&self) -> AnyEvaluator {
        match self {
            AnyUtility::Detection(u) => AnyEvaluator::Detection(u.evaluator()),
            AnyUtility::LogSum(u) => AnyEvaluator::LogSum(u.evaluator()),
            AnyUtility::Linear(u) => AnyEvaluator::Linear(u.evaluator()),
            AnyUtility::Coverage(u) => AnyEvaluator::Coverage(u.evaluator()),
            AnyUtility::Facility(u) => AnyEvaluator::Facility(u.evaluator()),
            AnyUtility::KCover(u) => AnyEvaluator::KCover(u.evaluator()),
        }
    }

    fn support(&self) -> SensorSet {
        dispatch!(self, u => u.support())
    }
}

impl From<DetectionUtility> for AnyUtility {
    fn from(value: DetectionUtility) -> Self {
        AnyUtility::Detection(value)
    }
}

impl From<LogSumUtility> for AnyUtility {
    fn from(value: LogSumUtility) -> Self {
        AnyUtility::LogSum(value)
    }
}

impl From<LinearUtility> for AnyUtility {
    fn from(value: LinearUtility) -> Self {
        AnyUtility::Linear(value)
    }
}

impl From<CoverageUtility> for AnyUtility {
    fn from(value: CoverageUtility) -> Self {
        AnyUtility::Coverage(value)
    }
}

impl From<FacilityLocationUtility> for AnyUtility {
    fn from(value: FacilityLocationUtility) -> Self {
        AnyUtility::Facility(value)
    }
}

impl From<KCoverageUtility> for AnyUtility {
    fn from(value: KCoverageUtility) -> Self {
        AnyUtility::KCover(value)
    }
}

/// Evaluator companion of [`AnyUtility`].
#[derive(Clone, Debug)]
pub enum AnyEvaluator {
    /// Detection evaluator.
    Detection(DetectionEvaluator),
    /// Log-sum evaluator.
    LogSum(LogSumEvaluator),
    /// Linear evaluator.
    Linear(LinearEvaluator),
    /// Coverage evaluator.
    Coverage(CoverageEvaluator),
    /// Facility evaluator.
    Facility(FacilityEvaluator),
    /// k-coverage evaluator.
    KCover(KCoverageEvaluator),
}

macro_rules! dispatch_eval {
    ($self:expr, $e:ident => $body:expr) => {
        match $self {
            AnyEvaluator::Detection($e) => $body,
            AnyEvaluator::LogSum($e) => $body,
            AnyEvaluator::Linear($e) => $body,
            AnyEvaluator::Coverage($e) => $body,
            AnyEvaluator::Facility($e) => $body,
            AnyEvaluator::KCover($e) => $body,
        }
    };
}

impl Evaluator for AnyEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        dispatch_eval!(self, e => e.value())
    }

    fn gain(&self, v: SensorId) -> f64 {
        dispatch_eval!(self, e => e.gain(v))
    }

    fn loss(&self, v: SensorId) -> f64 {
        dispatch_eval!(self, e => e.loss(v))
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        dispatch_eval!(self, e => e.insert(v))
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        dispatch_eval!(self, e => e.remove(v))
    }

    fn contains(&self, v: SensorId) -> bool {
        dispatch_eval!(self, e => e.contains(v))
    }

    fn current_set(&self) -> SensorSet {
        dispatch_eval!(self, e => e.current_set())
    }
}

/// The multi-target overall utility `U(S) = Σ_i U_i(S)` (Eq. 1).
///
/// Per-target coverage restriction `S ∩ V(O_i)` is the support of each part
/// (e.g. the covering sensors a detection part stores probabilities for —
/// see [`DetectionUtility::uniform_on`]).
///
/// # Examples
///
/// ```
/// use cool_common::SensorSet;
/// use cool_utility::{DetectionUtility, SumUtility, UtilityFunction};
///
/// // Two targets: V(O₀) = {0,1}, V(O₁) = {1,2}, p = 0.4 everywhere.
/// let u = SumUtility::new(vec![
///     DetectionUtility::uniform_on(&SensorSet::from_indices(3, [0, 1]), 0.4).into(),
///     DetectionUtility::uniform_on(&SensorSet::from_indices(3, [1, 2]), 0.4).into(),
/// ]);
/// let only_shared = SensorSet::from_indices(3, [1]);
/// assert!((u.eval(&only_shared) - 0.8).abs() < 1e-12); // 0.4 per target
/// ```
#[derive(Clone, Debug)]
pub struct SumUtility {
    parts: Vec<AnyUtility>,
    universe: usize,
    /// CSR inverted index `sensor → incident part ids`, shared with every
    /// evaluator.
    index: Arc<IncidenceIndex>,
    /// Struct-of-arrays layout of the parts (family grouping, per-sensor
    /// family runs, flat scalar state), shared with every evaluator.
    soa: Arc<SoaLayout>,
}

impl SumUtility {
    /// Creates the sum from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the parts disagree on universe size.
    pub fn new(parts: Vec<AnyUtility>) -> Self {
        assert!(!parts.is_empty(), "sum utility needs at least one part");
        let universe = parts[0].universe();
        assert!(
            parts.iter().all(|p| p.universe() == universe),
            "all parts must share one universe"
        );
        let index = Arc::new(IncidenceIndex::build(universe, &parts));
        let soa = Arc::new(SoaLayout::build(universe, &parts, &index));
        SumUtility {
            parts,
            universe,
            index,
            soa,
        }
    }

    /// The paper's multi-target detection instance: target `i` is watched by
    /// `coverages[i]`, every covering sensor detects with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `coverages` is empty, universes disagree, or `p ∉ [0, 1]`.
    pub fn multi_target_detection(coverages: &[SensorSet], p: f64) -> Self {
        assert!(!coverages.is_empty(), "need at least one target");
        SumUtility::new(
            coverages
                .iter()
                .map(|cov| DetectionUtility::uniform_on(cov, p).into())
                .collect(),
        )
    }

    /// The parts `U_i`.
    pub fn parts(&self) -> &[AnyUtility] {
        &self.parts
    }

    /// Number of targets (parts).
    pub fn n_targets(&self) -> usize {
        self.parts.len()
    }

    /// The CSR incidence index `sensor → incident part ids`.
    pub fn incidence(&self) -> &IncidenceIndex {
        &self.index
    }

    /// Per-part values at `set` — the per-target utility breakdown.
    ///
    /// Goes through the sparse evaluator: each member insertion touches
    /// only its incident parts, so the breakdown costs
    /// O(m + Σ_{v∈S} deg(v)) instead of O(m·eval).
    pub fn eval_parts(&self, set: &SensorSet) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.parts.len());
        self.eval_parts_into(set, &mut out);
        out
    }

    /// [`eval_parts`](SumUtility::eval_parts) into a caller-provided buffer
    /// (cleared first) — the allocation-free form for batch paths that
    /// request the breakdown repeatedly.
    pub fn eval_parts_into(&self, set: &SensorSet, out: &mut Vec<f64>) {
        assert_eq!(set.universe(), self.universe, "set universe mismatch");
        let mut e = self.evaluator();
        for v in set {
            e.insert(v);
        }
        e.part_values_into(out);
    }

    /// A dense (all-parts-per-query) evaluator — the one differential
    /// oracle the SoA kernels are checked against (COOL-E024, `soa_props`,
    /// `soa_smoke_*`).
    pub fn dense_evaluator(&self) -> SumEvaluator {
        SumEvaluator {
            parts: self.parts.iter().map(UtilityFunction::evaluator).collect(),
            members: SensorSet::new(self.universe),
        }
    }

    /// The shared struct-of-arrays layout (crate-internal seam to the
    /// kernel engine in [`soa`](crate::soa)).
    #[cfg(test)]
    pub(crate) fn soa_layout(&self) -> &SoaLayout {
        &self.soa
    }
}

impl UtilityFunction for SumUtility {
    type Evaluator = SparseSumEvaluator;

    fn universe(&self) -> usize {
        self.universe
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.universe, "set universe mismatch");
        let mut e = self.evaluator();
        for v in set {
            e.insert(v);
        }
        e.value()
    }

    fn max_value(&self) -> f64 {
        self.parts.iter().map(UtilityFunction::max_value).sum()
    }

    fn target_count(&self) -> usize {
        self.parts.len()
    }

    fn evaluator(&self) -> SparseSumEvaluator {
        SparseSumEvaluator::new(
            Arc::clone(&self.soa),
            Arc::clone(&self.index),
            self.universe,
        )
    }

    fn support(&self) -> SensorSet {
        SensorSet::from_indices(
            self.universe,
            (0..self.universe).filter(|&v| self.index.degree(SensorId(v)) > 0),
        )
    }
}

/// CSR inverted index `sensor → incident part ids` over the parts of a
/// [`SumUtility`].
///
/// Built once at construction from the parts'
/// [supports](UtilityFunction::support). For each sensor `v`,
/// [`incident`](IncidenceIndex::incident) returns the ids of the parts whose
/// support contains `v`, **in increasing part-id order** — the invariant
/// that makes sparse marginal gains bitwise equal to dense ones (the dense
/// walk visits parts in the same order, and skipped parts contribute an
/// exact `0.0`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncidenceIndex {
    /// `offsets[v]..offsets[v+1]` brackets `v`'s slice of `part_ids`;
    /// length `universe + 1`.
    offsets: Vec<u32>,
    /// Concatenated incident part-id lists.
    part_ids: Vec<u32>,
}

impl IncidenceIndex {
    /// Builds the index from each part's support: the stored sensor ids of
    /// detection, linear and log-sum parts are read in place, and the other
    /// families' support sets are collected as id lists one part at a time.
    ///
    /// # Panics
    ///
    /// Panics if the universe, the number of parts or the number of index
    /// entries exceeds `u32::MAX` (the offsets and ids are `u32`, and
    /// release builds would wrap them silently).
    pub fn build(universe: usize, parts: &[AnyUtility]) -> Self {
        assert!(u32::try_from(universe).is_ok(), "universe fits in u32");
        assert!(u32::try_from(parts.len()).is_ok(), "part count fits in u32");
        let supports: Vec<Cow<'_, [u32]>> = parts.iter().map(support_ids).collect();
        let entries: usize = supports.iter().map(|sup| sup.len()).sum();
        assert!(
            u32::try_from(entries).is_ok(),
            "incidence entry count fits in u32"
        );
        let mut offsets = vec![0u32; universe + 1];
        for sup in &supports {
            for &v in sup.iter() {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..universe].to_vec();
        let mut part_ids = vec![0u32; entries];
        // Parts are scanned in increasing id order, so each sensor's slice
        // comes out sorted — the order invariant documented above.
        for (i, sup) in supports.iter().enumerate() {
            let id = i as u32;
            for &v in sup.iter() {
                let c = &mut cursor[v as usize];
                part_ids[*c as usize] = id;
                *c += 1;
            }
        }
        IncidenceIndex { offsets, part_ids }
    }

    /// Number of sensors the index covers.
    pub fn universe(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The part ids incident to `v`, in increasing order.
    pub fn incident(&self, v: SensorId) -> &[u32] {
        &self.part_ids[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// `deg(v)`: number of parts whose support contains `v`.
    pub fn degree(&self, v: SensorId) -> usize {
        self.incident(v).len()
    }

    /// Total number of (sensor, part) incidences.
    pub fn n_entries(&self) -> usize {
        self.part_ids.len()
    }
}

/// A part's support as increasing sensor ids: borrowed from the sparse
/// storage of detection, linear and log-sum parts, collected from
/// [`support`](UtilityFunction::support) for the others.
fn support_ids(part: &AnyUtility) -> Cow<'_, [u32]> {
    match part {
        AnyUtility::Detection(d) => Cow::Borrowed(d.probs().ids()),
        AnyUtility::LogSum(u) => Cow::Borrowed(u.weights().ids()),
        AnyUtility::Linear(u) => Cow::Borrowed(u.weights().ids()),
        other => Cow::Owned(other.support().iter().map(|v| v.index() as u32).collect()),
    }
}

/// Dense-evaluation wrapper around a [`SumUtility`] — every query walks all
/// parts. The baseline arm of the `perf_sparse` benchmark and the oracle
/// side of the COOL-E024 differential relation, the `soa_props` suite and
/// the `soa_smoke_*` replays; schedulers should use [`SumUtility`]
/// directly.
#[derive(Clone, Debug)]
pub struct DenseSumUtility {
    inner: SumUtility,
}

impl DenseSumUtility {
    /// Wraps the sum.
    pub fn new(inner: SumUtility) -> Self {
        DenseSumUtility { inner }
    }

    /// The wrapped sum.
    pub fn inner(&self) -> &SumUtility {
        &self.inner
    }
}

impl UtilityFunction for DenseSumUtility {
    type Evaluator = SumEvaluator;

    fn universe(&self) -> usize {
        self.inner.universe
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.inner.universe, "set universe mismatch");
        self.inner.parts.iter().map(|p| p.eval(set)).sum()
    }

    fn max_value(&self) -> f64 {
        self.inner.max_value()
    }

    fn target_count(&self) -> usize {
        self.inner.parts.len()
    }

    fn evaluator(&self) -> SumEvaluator {
        self.inner.dense_evaluator()
    }

    fn support(&self) -> SensorSet {
        self.inner.support()
    }
}

/// Evaluator companion of [`SumUtility`].
#[derive(Clone, Debug)]
pub struct SumEvaluator {
    parts: Vec<AnyEvaluator>,
    members: SensorSet,
}

impl Evaluator for SumEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        self.parts.iter().map(Evaluator::value).sum()
    }

    // Delta chains are seeded with +0.0 (not `.sum()`, whose f64 identity
    // is -0.0) so that the accumulator's zero sign matches the sparse
    // evaluator's bit-for-bit: zeros folded into a +0.0-seeded accumulator
    // never flip its sign, and non-incident parts contribute exact zeros.

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            return 0.0;
        }
        self.parts.iter().fold(0.0, |acc, p| acc + p.gain(v))
    }

    fn loss(&self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        self.parts.iter().fold(0.0, |acc, p| acc + p.loss(v))
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        self.parts.iter_mut().fold(0.0, |acc, p| acc + p.insert(v))
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        self.parts.iter_mut().fold(0.0, |acc, p| acc + p.remove(v))
    }

    fn contains(&self, v: SensorId) -> bool {
        self.members.contains(v)
    }

    fn current_set(&self) -> SensorSet {
        self.members.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::KahanChain;
    use proptest::prelude::*;

    fn two_target_sum() -> SumUtility {
        SumUtility::multi_target_detection(
            &[
                SensorSet::from_indices(4, [0, 1]),
                SensorSet::from_indices(4, [1, 2, 3]),
            ],
            0.4,
        )
    }

    #[test]
    fn sum_adds_per_target_values() {
        let u = two_target_sum();
        assert_eq!(u.n_targets(), 2);
        let s = SensorSet::from_indices(4, [0, 2]);
        let parts = u.eval_parts(&s);
        assert!((parts[0] - 0.4).abs() < 1e-12);
        assert!((parts[1] - 0.4).abs() < 1e-12);
        assert!((u.eval(&s) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn max_value_sums_part_maxima() {
        let u = two_target_sum();
        let expected = (1.0 - 0.6f64.powi(2)) + (1.0 - 0.6f64.powi(3));
        assert!((u.max_value() - expected).abs() < 1e-12);
    }

    #[test]
    fn any_utility_dispatch_consistency() {
        let base = DetectionUtility::uniform(3, 0.5);
        let any: AnyUtility = base.clone().into();
        let s = SensorSet::from_indices(3, [0, 2]);
        assert_eq!(any.eval(&s), base.eval(&s));
        assert_eq!(any.universe(), 3);
        let lin: AnyUtility = LinearUtility::new(vec![1.0]).into();
        assert_eq!(lin.eval(&SensorSet::full(1)), 1.0);
        let log: AnyUtility = LogSumUtility::new(vec![1.0]).into();
        assert!(log.eval(&SensorSet::full(1)) > 0.0);
        let fac: AnyUtility = FacilityLocationUtility::new(vec![vec![2.0]]).into();
        assert_eq!(fac.eval(&SensorSet::full(1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "share one universe")]
    fn mixed_universes_panic() {
        let _ = SumUtility::new(vec![
            DetectionUtility::uniform(2, 0.4).into(),
            DetectionUtility::uniform(3, 0.4).into(),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn empty_sum_panics() {
        let _ = SumUtility::new(vec![]);
    }

    #[test]
    fn incidence_index_lists_supporting_parts_in_order() {
        let u = two_target_sum();
        let idx = u.incidence();
        assert_eq!(idx.universe(), 4);
        assert_eq!(idx.incident(SensorId(0)), &[0]);
        assert_eq!(idx.incident(SensorId(1)), &[0, 1]);
        assert_eq!(idx.incident(SensorId(2)), &[1]);
        assert_eq!(idx.incident(SensorId(3)), &[1]);
        assert_eq!(idx.n_entries(), 5);
        assert_eq!(idx.degree(SensorId(1)), 2);
    }

    #[test]
    fn sum_support_is_union_of_part_supports() {
        let u = SumUtility::multi_target_detection(
            &[
                SensorSet::from_indices(5, [0, 1]),
                SensorSet::from_indices(5, [1, 3]),
            ],
            0.4,
        );
        assert_eq!(u.support(), SensorSet::from_indices(5, [0, 1, 3]));
    }

    #[test]
    fn sparse_gain_is_exactly_zero_outside_support() {
        let u = two_target_sum(); // no part's support contains... all do here
        let parts: Vec<AnyUtility> = vec![
            DetectionUtility::uniform_on(&SensorSet::from_indices(4, [0]), 0.4).into(),
            LinearUtility::new(vec![0.0, 2.0, 0.0, 0.0]).into(),
        ];
        let sparse_only = SumUtility::new(parts);
        let e = sparse_only.evaluator();
        assert_eq!(e.gain(SensorId(2)), 0.0);
        assert_eq!(e.gain(SensorId(3)), 0.0);
        assert!(e.gain(SensorId(0)) > 0.0);
        let _ = u;
    }

    /// The load-bearing property of the sparse representation: gains,
    /// losses and deltas are **bitwise** equal to the dense walk's
    /// (non-incident parts contribute an exact `0.0`, incident parts are
    /// visited in the same relative order), so schedulers produce identical
    /// assignments; the running value is bitwise the Kahan chain over those
    /// deltas.
    #[test]
    fn sparse_matches_dense_bitwise_on_trace() {
        let u = two_target_sum();
        let mut sparse = u.evaluator();
        let mut dense = u.dense_evaluator();
        let mut chain = KahanChain::default();
        let trace: Vec<(bool, usize)> = vec![
            (true, 1),
            (true, 0),
            (false, 1),
            (true, 3),
            (true, 2),
            (false, 0),
            (true, 1),
        ];
        for (add, raw) in trace {
            let v = SensorId(raw);
            for probe in 0..4 {
                let p = SensorId(probe);
                assert_eq!(sparse.gain(p).to_bits(), dense.gain(p).to_bits());
                assert_eq!(sparse.loss(p).to_bits(), dense.loss(p).to_bits());
            }
            if add {
                let d = dense.insert(v);
                assert_eq!(sparse.insert(v).to_bits(), d.to_bits());
                chain.push(d, &dense);
            } else {
                let d = dense.remove(v);
                assert_eq!(sparse.remove(v).to_bits(), d.to_bits());
                chain.push(-d, &dense);
            }
            assert_eq!(sparse.current_set(), dense.current_set());
            assert_eq!(sparse.value().to_bits(), chain.value().to_bits());
            assert!((sparse.value() - dense.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn running_value_survives_rebuild_cadence() {
        let u = two_target_sum();
        let mut e = u.evaluator();
        // Far more mutations than the rebuild cadence.
        for round in 0..(SparseSumEvaluator::REBUILD_CADENCE + 17) {
            let v = SensorId((round % 4) as usize);
            if e.contains(v) {
                e.remove(v);
            } else {
                e.insert(v);
            }
            let direct: f64 = e.part_values().iter().sum();
            assert!((e.value() - direct).abs() < 1e-9, "round {round}");
        }
    }

    /// Satellite of the configurable-cadence change: whatever cadence an
    /// evaluator rebuilds at, the Kahan chain must stay bit-identical on
    /// families whose deltas are exact in binary (detection with `p = 0.5`:
    /// every per-part value is a dyadic rational). Cadence 1 rebuilds after
    /// every mutation; `u32::MAX` effectively never rebuilds — the running
    /// value, the realised deltas, and the gain/loss queries must agree
    /// bitwise across all of them at every trace step.
    #[test]
    fn rebuild_cadence_is_observationally_bit_identical() {
        let u = SumUtility::multi_target_detection(
            &[
                SensorSet::from_indices(5, [0, 1, 2]),
                SensorSet::from_indices(5, [1, 3]),
                SensorSet::from_indices(5, [2, 3, 4]),
            ],
            0.5,
        );
        let mut evals: Vec<SparseSumEvaluator> =
            [1, 3, SparseSumEvaluator::REBUILD_CADENCE, u32::MAX]
                .iter()
                .map(|&c| u.evaluator().with_rebuild_cadence(c))
                .collect();
        assert_eq!(evals[0].rebuild_cadence(), 1);
        for round in 0..64u32 {
            let v = SensorId((round as usize * 7 + 3) % 5);
            let deltas: Vec<u64> = evals
                .iter_mut()
                .map(|e| {
                    if e.contains(v) {
                        e.remove(v).to_bits()
                    } else {
                        e.insert(v).to_bits()
                    }
                })
                .collect();
            let values: Vec<u64> = evals.iter().map(|e| e.value().to_bits()).collect();
            let gains: Vec<u64> = evals
                .iter()
                .map(|e| e.gain(SensorId(0)).to_bits())
                .collect();
            for i in 1..evals.len() {
                assert_eq!(deltas[0], deltas[i], "delta diverged at round {round}");
                assert_eq!(values[0], values[i], "value diverged at round {round}");
                assert_eq!(gains[0], gains[i], "gain diverged at round {round}");
            }
        }
    }

    #[test]
    fn rebuild_cadence_clamps_to_one() {
        let u = two_target_sum();
        let mut e = u.evaluator();
        e.set_rebuild_cadence(0);
        assert_eq!(e.rebuild_cadence(), 1);
    }

    #[test]
    fn eval_parts_matches_per_part_eval() {
        let u = two_target_sum();
        let s = SensorSet::from_indices(4, [1, 3]);
        let via_evaluator = u.eval_parts(&s);
        let direct: Vec<f64> = u.parts().iter().map(|p| p.eval(&s)).collect();
        assert_eq!(via_evaluator.len(), direct.len());
        for (a, b) in via_evaluator.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_wrapper_agrees_with_sparse_sum() {
        let u = two_target_sum();
        let dense = DenseSumUtility::new(u.clone());
        let s = SensorSet::from_indices(4, [0, 2, 3]);
        assert!((dense.eval(&s) - u.eval(&s)).abs() < 1e-12);
        assert_eq!(dense.universe(), u.universe());
        assert_eq!(dense.target_count(), u.target_count());
        assert_eq!(dense.support(), u.support());
        assert_eq!(dense.max_value(), u.max_value());
        assert_eq!(dense.inner().n_targets(), 2);
    }

    #[test]
    fn sparse_queries_advance_stats_counters() {
        let u = two_target_sum();
        let e = u.evaluator();
        let before = crate::stats::snapshot();
        let _ = e.gain(SensorId(1)); // deg 2
        let after = crate::stats::snapshot();
        assert!(after.gain_queries > before.gain_queries);
        assert!(after.parts_touched >= before.parts_touched + 2);
    }

    proptest! {
        /// Sparse and dense evaluators agree on arbitrary mixed-family
        /// traces (the in-crate twin of the COOL-E024 check relation).
        #[test]
        fn sparse_matches_dense_on_random_traces(
            cov1 in proptest::collection::vec(0usize..6, 1..5),
            weights in proptest::collection::vec(0.0f64..4.0, 6),
            p in 0.05f64..0.95,
            ops in proptest::collection::vec((any::<bool>(), 0usize..6), 0..40),
        ) {
            let u = SumUtility::new(vec![
                DetectionUtility::uniform_on(
                    &SensorSet::from_indices(6, cov1.iter().copied()), p).into(),
                LinearUtility::new(weights.clone()).into(),
                LogSumUtility::new(weights).into(),
            ]);
            let mut sparse = u.evaluator();
            let mut dense = u.dense_evaluator();
            for (add, raw) in ops {
                let v = SensorId(raw % 6);
                prop_assert_eq!(sparse.gain(v).to_bits(), dense.gain(v).to_bits());
                prop_assert_eq!(sparse.loss(v).to_bits(), dense.loss(v).to_bits());
                if add {
                    prop_assert_eq!(sparse.insert(v).to_bits(), dense.insert(v).to_bits());
                } else {
                    prop_assert_eq!(sparse.remove(v).to_bits(), dense.remove(v).to_bits());
                }
                prop_assert!((sparse.value() - dense.value()).abs() < 1e-9);
            }
        }

        #[test]
        fn sum_evaluator_matches_eval(
            cov1 in proptest::collection::vec(0usize..5, 1..5),
            cov2 in proptest::collection::vec(0usize..5, 1..5),
            p in 0.05f64..0.95,
            ops in proptest::collection::vec((any::<bool>(), 0usize..5), 0..25),
        ) {
            let u = SumUtility::multi_target_detection(
                &[
                    SensorSet::from_indices(5, cov1.iter().copied()),
                    SensorSet::from_indices(5, cov2.iter().copied()),
                ],
                p,
            );
            let mut e = u.evaluator();
            for (add, raw) in ops {
                let v = SensorId(raw % 5);
                if add {
                    let predicted = e.gain(v);
                    prop_assert!((predicted - e.insert(v)).abs() < 1e-9);
                } else {
                    let predicted = e.loss(v);
                    prop_assert!((predicted - e.remove(v)).abs() < 1e-9);
                }
                prop_assert!((e.value() - u.eval(&e.current_set())).abs() < 1e-9);
            }
        }
    }
}
