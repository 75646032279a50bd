//! Property tests for the sparse incidence-indexed evaluation engine:
//! support-set soundness and minimality, CSR index round-trips under
//! sensor relabeling, and the bitwise pins of the support-only part
//! storage ([`SparseVector`]) against the dense per-sensor formulas.

use cool_common::{SensorId, SensorSet};
use cool_utility::{
    AnyEvaluator, AnyUtility, CoverageUtility, DetectionUtility, Evaluator,
    FacilityLocationUtility, KCoverageUtility, LinearUtility, LogSumUtility, SparseVector,
    SumUtility, UtilityFunction,
};
use proptest::prelude::*;

const N: usize = 8;

/// One instance of every family over `N` sensors, parameterised by a
/// sensor subset that carries all the "mass" (probability, weight, value,
/// benefit) — sensors outside `active` must fall outside every support.
fn family_instances(active: &SensorSet, level: f64) -> Vec<AnyUtility> {
    let weights: Vec<f64> = (0..N)
        .map(|v| {
            if active.contains(SensorId(v)) {
                level
            } else {
                0.0
            }
        })
        .collect();
    let p = (level / 10.0).clamp(0.0, 1.0);
    vec![
        DetectionUtility::uniform_on(active, p).into(),
        LinearUtility::new(weights.clone()).into(),
        LogSumUtility::new(weights.clone()).into(),
        CoverageUtility::from_parts(N, vec![active.clone()], vec![level]).into(),
        KCoverageUtility::new(vec![active.clone()], vec![2], vec![level]).into(),
        FacilityLocationUtility::new(vec![weights]).into(),
    ]
}

fn set_from_bits(bits: &[bool]) -> SensorSet {
    SensorSet::from_indices(
        bits.len(),
        bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
    )
}

proptest! {
    /// Soundness: a sensor outside the reported support never changes the
    /// value — `U(S ∪ {v}) == U(S)` **exactly**, for every family and
    /// every set.
    #[test]
    fn support_is_sound(
        active_bits in proptest::collection::vec(any::<bool>(), N),
        s_bits in proptest::collection::vec(any::<bool>(), N),
        level in 0.5f64..9.5,
    ) {
        let active = set_from_bits(&active_bits);
        let s = set_from_bits(&s_bits);
        for u in family_instances(&active, level) {
            let support = u.support();
            for raw in 0..N {
                let v = SensorId(raw);
                if support.contains(v) {
                    continue;
                }
                let mut with_v = s.clone();
                with_v.insert(v);
                prop_assert_eq!(
                    u.eval(&with_v).to_bits(),
                    u.eval(&s).to_bits(),
                    "family {:?} moved on out-of-support sensor {}",
                    std::mem::discriminant(&u),
                    raw
                );
                prop_assert_eq!(u.marginal_gain(&s, v), 0.0);
            }
        }
    }

    /// Minimality on exactly-representable (quantised) weights: every
    /// sensor in the reported support has a strictly positive gain at the
    /// empty set — the support contains no dead sensors.
    #[test]
    fn support_is_minimal_at_empty_set(
        active_bits in proptest::collection::vec(any::<bool>(), N),
        quarter_steps in 2u32..40,
    ) {
        let active = set_from_bits(&active_bits);
        let level = f64::from(quarter_steps) * 0.25;
        for u in family_instances(&active, level) {
            let empty = SensorSet::new(N);
            for v in &u.support() {
                prop_assert!(
                    u.marginal_gain(&empty, v) > 0.0,
                    "family {:?} support contains dead sensor {}",
                    std::mem::discriminant(&u),
                    v.index()
                );
            }
        }
    }

    /// The CSR index round-trips under sensor relabeling: relabeling the
    /// sensors of every part by a permutation `π` relabels the index, with
    /// `incident(π(v))` after == `incident(v)` before (same part ids, same
    /// order).
    #[test]
    fn csr_round_trips_under_relabeling(
        covs in proptest::collection::vec(
            proptest::collection::vec(0usize..N, 1..4), 1..6),
        seed_shuffle in proptest::collection::vec(0u32..1000, N),
        p in 0.05f64..0.95,
    ) {
        // Build a permutation by sorting sensor ids by random keys.
        let mut perm: Vec<usize> = (0..N).collect();
        perm.sort_by_key(|&v| (seed_shuffle[v], v));

        let coverages: Vec<SensorSet> = covs
            .iter()
            .map(|ids| SensorSet::from_indices(N, ids.iter().copied()))
            .collect();
        let relabeled: Vec<SensorSet> = coverages
            .iter()
            .map(|cov| SensorSet::from_indices(N, cov.iter().map(|v| perm[v.index()])))
            .collect();

        let u = SumUtility::multi_target_detection(&coverages, p);
        let u_perm = SumUtility::multi_target_detection(&relabeled, p);

        prop_assert_eq!(u.incidence().n_entries(), u_perm.incidence().n_entries());
        for (v, &pv) in perm.iter().enumerate() {
            prop_assert_eq!(
                u.incidence().incident(SensorId(v)),
                u_perm.incidence().incident(SensorId(pv)),
                "sensor {} vs relabeled {}", v, pv
            );
        }

        // And the relabeled sparse evaluator computes relabeled gains.
        let mut e = u.evaluator();
        let mut e_perm = u_perm.evaluator();
        for (v, &pv) in perm.iter().enumerate() {
            prop_assert_eq!(
                e.gain(SensorId(v)).to_bits(),
                e_perm.gain(SensorId(pv)).to_bits()
            );
        }
        e.insert(SensorId(0));
        e_perm.insert(SensorId(perm[0]));
        for (v, &pv) in perm.iter().enumerate().skip(1) {
            prop_assert_eq!(
                e.gain(SensorId(v)).to_bits(),
                e_perm.gain(SensorId(pv)).to_bits()
            );
        }
    }
}

/// The three families that store a [`SparseVector`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Scalar {
    Detection,
    Linear,
    LogSum,
}

const SCALARS: [Scalar; 3] = [Scalar::Detection, Scalar::Linear, Scalar::LogSum];

/// A dense per-sensor vector from `(kind, x)` draws: kind 0 is a zero,
/// kind 3 a detection certainty (`p = 1`) or a heavy weight, anything else
/// `x` itself.
fn dense_vector(family: Scalar, draws: &[(u8, f64)]) -> Vec<f64> {
    draws
        .iter()
        .map(|&(kind, x)| match (kind, family) {
            (0, _) => 0.0,
            (3, Scalar::Detection) => 1.0,
            (3, _) => 8.0 * x,
            _ => x,
        })
        .collect()
}

/// The part built by the compacting dense constructor and by the sparse
/// one (from ids and values gathered here, independently of
/// [`SparseVector::from_dense`]).
fn both_constructions(family: Scalar, dense: &[f64]) -> [AnyUtility; 2] {
    let (ids, values): (Vec<u32>, Vec<f64>) = (0..dense.len())
        .filter(|&v| dense[v] != 0.0)
        .map(|v| (v as u32, dense[v]))
        .unzip();
    let sparse = SparseVector::from_sorted(dense.len(), ids, values);
    match family {
        Scalar::Detection => [
            DetectionUtility::new(dense.to_vec()).into(),
            DetectionUtility::from_sparse(sparse).into(),
        ],
        Scalar::Linear => [
            LinearUtility::new(dense.to_vec()).into(),
            LinearUtility::from_sparse(sparse).into(),
        ],
        Scalar::LogSum => [
            LogSumUtility::new(dense.to_vec()).into(),
            LogSumUtility::from_sparse(sparse).into(),
        ],
    }
}

/// `U(S)` by the dense formulas: every member of `set` is visited, zero
/// entries included, in increasing sensor order.
fn dense_eval(family: Scalar, x: &[f64], set: &SensorSet) -> f64 {
    match family {
        Scalar::Detection => {
            let miss: f64 = set.iter().map(|v| 1.0 - x[v.index()]).product();
            1.0 - miss
        }
        Scalar::Linear => set.iter().map(|v| x[v.index()]).sum(),
        Scalar::LogSum => {
            let sum: f64 = set.iter().map(|v| x[v.index()]).sum();
            (1.0 + sum).ln()
        }
    }
}

/// The dense incremental evaluator: the per-family state updates with an
/// n-length lookup table, for bitwise comparison along traces.
struct DenseEvaluator {
    family: Scalar,
    x: Vec<f64>,
    members: SensorSet,
    miss: f64,
    certain: usize,
    sum: f64,
}

impl DenseEvaluator {
    fn new(family: Scalar, x: &[f64]) -> Self {
        DenseEvaluator {
            family,
            x: x.to_vec(),
            members: SensorSet::new(x.len()),
            miss: 1.0,
            certain: 0,
            sum: 0.0,
        }
    }

    fn effective_miss(&self) -> f64 {
        if self.certain > 0 {
            0.0
        } else {
            self.miss
        }
    }

    fn value(&self) -> f64 {
        match self.family {
            Scalar::Detection => 1.0 - self.effective_miss(),
            Scalar::Linear => self.sum,
            Scalar::LogSum => (1.0 + self.sum).ln(),
        }
    }

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            return 0.0;
        }
        let x = self.x[v.index()];
        match self.family {
            Scalar::Detection => self.effective_miss() * x,
            Scalar::Linear => x,
            Scalar::LogSum => (1.0 + self.sum + x).ln() - self.value(),
        }
    }

    fn loss(&self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        let x = self.x[v.index()];
        match self.family {
            Scalar::Detection if x >= 1.0 => {
                if self.certain > 1 {
                    0.0
                } else {
                    self.miss
                }
            }
            Scalar::Detection if self.certain > 0 => 0.0,
            Scalar::Detection => self.miss / (1.0 - x) * x,
            Scalar::Linear => x,
            Scalar::LogSum => self.value() - (1.0 + self.sum - x).max(1.0).ln(),
        }
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let x = self.x[v.index()];
        match self.family {
            Scalar::Detection => {
                let gain = self.effective_miss() * x;
                if x >= 1.0 {
                    self.certain += 1;
                } else {
                    self.miss *= 1.0 - x;
                }
                gain
            }
            Scalar::Linear => {
                self.sum += x;
                x
            }
            Scalar::LogSum => {
                let before = self.value();
                self.sum += x;
                self.value() - before
            }
        }
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        let x = self.x[v.index()];
        match self.family {
            Scalar::Detection if x >= 1.0 => {
                self.certain -= 1;
                if self.certain > 0 {
                    0.0
                } else {
                    self.miss
                }
            }
            Scalar::Detection => {
                self.miss /= 1.0 - x;
                if self.certain > 0 {
                    0.0
                } else {
                    self.miss * x
                }
            }
            Scalar::Linear => {
                self.sum -= x;
                x
            }
            Scalar::LogSum => {
                let before = self.value();
                self.sum = (self.sum - x).max(0.0);
                before - self.value()
            }
        }
    }
}

fn assert_same_bits(got: f64, want: f64, what: &str) {
    assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
}

proptest! {
    /// The compacting dense constructor, the sparse constructor and the
    /// dense formulas agree bit for bit on `support()`, `eval`,
    /// `max_value`, and every evaluator `value`/`gain`/`loss`/`insert`/
    /// `remove` along a random trace — with zeros and detection
    /// certainties in the vector.
    #[test]
    fn sparse_parts_match_the_dense_formulas_bitwise(
        draws in proptest::collection::vec((0u8..4, 0.01f64..0.99), 1..12),
        sets in proptest::collection::vec(proptest::collection::vec(any::<bool>(), 12), 1..6),
        ops in proptest::collection::vec((any::<bool>(), 0usize..12), 0..40),
    ) {
        for family in SCALARS {
            let dense = dense_vector(family, &draws);
            let n = dense.len();
            let [compacted, sparse] = both_constructions(family, &dense);
            let support = SensorSet::from_indices(n, (0..n).filter(|&v| dense[v] > 0.0));
            let full = SensorSet::full(n);
            for u in [&compacted, &sparse] {
                prop_assert_eq!(&u.support(), &support);
                let max = match family {
                    Scalar::Detection => {
                        let miss: f64 = dense.iter().map(|p| 1.0 - p).product();
                        1.0 - miss
                    }
                    _ => dense_eval(family, &dense, &full),
                };
                assert_same_bits(u.max_value(), max, "max_value");
                for bits in &sets {
                    let set = set_from_bits(&bits[..n]);
                    assert_same_bits(u.eval(&set), dense_eval(family, &dense, &set), "eval");
                }
            }

            let mut evals: [AnyEvaluator; 2] = [compacted.evaluator(), sparse.evaluator()];
            let mut oracle = DenseEvaluator::new(family, &dense);
            for &(add, raw) in &ops {
                let v = SensorId(raw % n);
                for e in &evals {
                    assert_same_bits(e.gain(v), oracle.gain(v), "gain");
                    assert_same_bits(e.loss(v), oracle.loss(v), "loss");
                }
                let want = if add { oracle.insert(v) } else { oracle.remove(v) };
                for e in &mut evals {
                    let got = if add { e.insert(v) } else { e.remove(v) };
                    assert_same_bits(got, want, if add { "insert" } else { "remove" });
                    assert_same_bits(e.value(), oracle.value(), "value");
                }
            }
        }
    }

    /// A sum of sparse parts with zeros in their vectors: the incidence
    /// index lists exactly the parts whose `support()` holds each sensor,
    /// and the struct-of-arrays kernels (whose scalar entries come from
    /// the part-major scatter) match the dense all-parts walk bit for bit.
    #[test]
    fn sum_of_sparse_parts_matches_the_dense_walk(
        parts in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0u8..4, 0.01f64..0.99), N)), 1..8),
        ops in proptest::collection::vec((any::<bool>(), 0usize..N), 0..40),
    ) {
        let parts: Vec<AnyUtility> = parts
            .iter()
            .map(|(kind, draws)| {
                let family = SCALARS[usize::from(*kind)];
                let [u, _] = both_constructions(family, &dense_vector(family, draws));
                u
            })
            .collect();
        let u = SumUtility::new(parts.clone());
        for raw in 0..N {
            let v = SensorId(raw);
            let expected: Vec<u32> = (0..parts.len() as u32)
                .filter(|&pid| parts[pid as usize].support().contains(v))
                .collect();
            prop_assert_eq!(u.incidence().incident(v), &expected[..]);
        }
        let mut sparse = u.evaluator();
        let mut dense = u.dense_evaluator();
        for (add, raw) in ops {
            let v = SensorId(raw);
            assert_same_bits(sparse.gain(v), dense.gain(v), "gain");
            assert_same_bits(sparse.loss(v), dense.loss(v), "loss");
            let (got, want) = if add {
                (sparse.insert(v), dense.insert(v))
            } else {
                (sparse.remove(v), dense.remove(v))
            };
            assert_same_bits(got, want, "delta");
        }
    }
}

/// The signed-zero trap: f64's `Sum` starts at `−0.0`, so the dense sum
/// over a set that holds only zero-weight members is `+0.0` while a walk
/// that skips those members would return the seed's `−0.0`. Both walk
/// directions (set smaller or larger than the support) must keep the
/// dense signs.
#[test]
fn linear_sums_keep_the_dense_sign_of_zero() {
    let u = LinearUtility::new(vec![0.0, 2.0, 0.0, 0.0, 0.0]);
    let pos = 0.0f64.to_bits();
    let neg = (-0.0f64).to_bits();
    assert_eq!(u.eval(&SensorSet::new(5)).to_bits(), neg, "empty set");
    assert_eq!(
        u.eval(&SensorSet::from_indices(5, [0])).to_bits(),
        pos,
        "one zero-weight member, set no larger than the support"
    );
    assert_eq!(
        u.eval(&SensorSet::from_indices(5, [0, 2, 3])).to_bits(),
        pos,
        "zero-weight members only, set larger than the support"
    );
    assert_eq!(u.eval(&SensorSet::from_indices(5, [0, 1])), 2.0);

    let zeros = LinearUtility::new(vec![0.0; 3]);
    assert_eq!(zeros.max_value().to_bits(), pos);
    assert_eq!(LinearUtility::new(Vec::new()).max_value().to_bits(), neg);
    assert_eq!(
        LogSumUtility::new(vec![0.0; 3]).total_weight().to_bits(),
        pos
    );
    let mut e = zeros.evaluator();
    assert_eq!(e.insert(SensorId(1)).to_bits(), pos);
    assert_eq!(e.value().to_bits(), pos);
}

/// A zero probability leaves `uniform_on` with an empty support, exactly
/// as the dense all-zero vector does.
#[test]
fn uniform_on_zero_probability_has_an_empty_support() {
    let cov = SensorSet::from_indices(6, [1, 3, 4]);
    let u = DetectionUtility::uniform_on(&cov, 0.0);
    assert!(u.probs().is_empty());
    assert!(u.support().is_empty());
    assert_eq!(u, DetectionUtility::new(vec![0.0; 6]));
    assert_eq!(u.max_value().to_bits(), 0.0f64.to_bits());
    assert_eq!(u.eval(&cov).to_bits(), 0.0f64.to_bits());
    let sum = SumUtility::multi_target_detection(&[cov], 0.0);
    assert_eq!(sum.incidence().n_entries(), 0);
}
