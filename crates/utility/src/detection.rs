//! The detection-probability utility of §II-C.
//!
//! "For each sensor `v_j` that can monitor `O_i`, let `p_j` be the
//! probability that the sensor `v_j` will detect a certain event happened at
//! target `O_i`. Then the utility `U_i(S) = 1 − Π_{v_j∈S}(1 − p_j)` denotes
//! the probability that the event happened at the target `O_i` will be
//! detected by these `S` sensors."
//!
//! The part stores `p_j` for the sensors of `V(O_i)` only, as a
//! [`SparseVector`]: a sensor outside `V(O_i)` has `p_j = 0`, its factor
//! `1 − p_j` is exactly `1`, and skipping it changes no bit of the product.
//! Evaluation and queries therefore cost O(deg) or O(log deg) instead of
//! O(n), and a sum of m targets stores Σ deg entries instead of n·m.

use crate::sparse::SparseVector;
use crate::traits::{Evaluator, PerSlot, UtilityFunction};
use cool_common::{SensorId, SensorSet};

/// `U(S) = 1 − Π_{v∈S}(1 − p_v)` for one target.
///
/// # Examples
///
/// ```
/// use cool_common::SensorSet;
/// use cool_utility::{DetectionUtility, UtilityFunction};
///
/// let u = DetectionUtility::new(vec![0.4, 0.0, 0.9]); // sensor 1 can't see the target
/// let all = SensorSet::full(3);
/// assert!((u.eval(&all) - (1.0 - 0.6 * 1.0 * 0.1)).abs() < 1e-12);
/// assert_eq!(u.probs().ids(), &[0, 2]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DetectionUtility {
    /// The positive probabilities, shared with every evaluator (evaluators
    /// carry only mutable state, so spawning one per slot stays cheap at
    /// large part counts).
    probs: SparseVector,
}

impl DetectionUtility {
    /// Creates the utility from per-sensor detection probabilities
    /// (`0` for sensors that cannot monitor the target), keeping only the
    /// positive ones.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or not finite.
    #[allow(clippy::needless_pass_by_value)] // the dense signature every caller uses; the vector is compacted
    pub fn new(probs: Vec<f64>) -> Self {
        assert_probabilities(&probs);
        DetectionUtility {
            probs: SparseVector::from_dense(&probs),
        }
    }

    /// Creates the utility from the probabilities of the covering sensors.
    ///
    /// # Panics
    ///
    /// Panics if any stored probability exceeds `1` or is not finite.
    pub fn from_sparse(probs: SparseVector) -> Self {
        assert_probabilities(probs.values());
        DetectionUtility { probs }
    }

    /// All `n` sensors monitor the target with the same probability `p` —
    /// the paper's single-target evaluation setting (`p = 0.4`, §VI-B).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`.
    pub fn uniform(n: usize, p: f64) -> Self {
        DetectionUtility::new(vec![p; n])
    }

    /// Restricts a uniform probability to the sensors in `coverage` —
    /// `V(O_i)` with identical per-sensor quality. A zero `p` leaves the
    /// support empty.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`.
    pub fn uniform_on(coverage: &SensorSet, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        DetectionUtility {
            probs: SparseVector::uniform(coverage.universe(), coverage, p),
        }
    }

    /// The positive probabilities: the covering sensors and their `p_v`.
    pub fn probs(&self) -> &SparseVector {
        &self.probs
    }

    /// The set of sensors with a positive detection probability — `V(O_i)`.
    pub fn coverage(&self) -> SensorSet {
        self.probs.support()
    }
}

fn assert_probabilities(probs: &[f64]) {
    assert!(
        probs
            .iter()
            .all(|p| p.is_finite() && (0.0..=1.0).contains(p)),
        "detection probabilities must lie in [0, 1]"
    );
}

impl UtilityFunction for DetectionUtility {
    type Evaluator = DetectionEvaluator;

    fn universe(&self) -> usize {
        self.probs.universe()
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.universe(), "set universe mismatch");
        // Members off the support multiply by exactly 1.0, so the product
        // over `set ∩ V(O_i)` is bitwise the product over `set`.
        let miss = self.probs.fold_over(set, 1.0, |acc, p| acc * (1.0 - p));
        1.0 - miss
    }

    fn max_value(&self) -> f64 {
        let miss: f64 = self.probs.values().iter().map(|p| 1.0 - p).product();
        1.0 - miss
    }

    fn evaluator(&self) -> DetectionEvaluator {
        DetectionEvaluator {
            probs: self.probs.clone(),
            members: SensorSet::new(self.universe()),
            miss_product: 1.0,
            certain_members: 0,
        }
    }

    fn support(&self) -> SensorSet {
        self.coverage()
    }
}

/// Incremental evaluator for [`DetectionUtility`].
///
/// Maintains `Π(1−p_v)` over the members with `p_v < 1` plus a count of
/// members with `p_v = 1` (whose factor is exactly zero and cannot be
/// divided back out on removal).
#[derive(Clone, Debug)]
pub struct DetectionEvaluator {
    probs: SparseVector,
    members: SensorSet,
    /// Product of `(1 − p_v)` over members with `p_v < 1`.
    miss_product: f64,
    /// Number of members with `p_v = 1`.
    certain_members: usize,
}

impl DetectionEvaluator {
    fn effective_miss(&self) -> f64 {
        if self.certain_members > 0 {
            0.0
        } else {
            self.miss_product
        }
    }
}

impl Evaluator for DetectionEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        1.0 - self.effective_miss()
    }

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            return 0.0;
        }
        self.effective_miss() * self.probs.get(v)
    }

    fn loss(&self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        let p = self.probs.get(v);
        if p >= 1.0 {
            if self.certain_members > 1 {
                0.0
            } else {
                // v was the only certain member; removing it restores the
                // finite product.
                self.miss_product
            }
        } else if self.certain_members > 0 {
            0.0
        } else {
            // miss without v = miss_product / (1−p); loss = miss_without·p.
            self.miss_product / (1.0 - p) * p
        }
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let p = self.probs.get(v);
        let gain = self.effective_miss() * p;
        if p >= 1.0 {
            self.certain_members += 1;
        } else {
            self.miss_product *= 1.0 - p;
        }
        gain
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        // Single pass: the state update *is* the loss computation (the
        // same `p ≥ 1` / certain-member branches `loss` walks), so the
        // branch work is not done twice. Arithmetic is kept identical to
        // `loss(v)` — a regression test pins `remove == prior loss`
        // bit-for-bit.
        let p = self.probs.get(v);
        if p >= 1.0 {
            self.certain_members -= 1;
            if self.certain_members > 0 {
                0.0
            } else {
                // v was the only certain member; removing it restores the
                // finite product.
                self.miss_product
            }
        } else {
            let miss_without = self.miss_product / (1.0 - p);
            let had_certain = self.certain_members > 0;
            self.miss_product = miss_without;
            if had_certain {
                0.0
            } else {
                miss_without * p
            }
        }
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
    use proptest::prelude::*;

    #[test]
    fn matches_closed_form() {
        let u = DetectionUtility::uniform(5, 0.4);
        for k in 0..=5usize {
            let s = SensorSet::from_indices(5, 0..k);
            let expected = 1.0 - 0.6f64.powi(i32::try_from(k).unwrap());
            assert!((u.eval(&s) - expected).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn empty_set_is_zero() {
        let u = DetectionUtility::uniform(4, 0.7);
        assert_eq!(u.eval(&SensorSet::new(4)), 0.0);
    }

    #[test]
    fn zero_probability_sensor_contributes_nothing() {
        let u = DetectionUtility::new(vec![0.5, 0.0]);
        let one = SensorSet::from_indices(2, [0]);
        let both = SensorSet::full(2);
        assert_eq!(u.eval(&one), u.eval(&both));
        assert_eq!(u.coverage().len(), 1);
    }

    #[test]
    fn uniform_on_restricts_coverage() {
        let cov = SensorSet::from_indices(5, [1, 3]);
        let u = DetectionUtility::uniform_on(&cov, 0.4);
        assert_eq!(u.coverage(), cov);
        assert_eq!(u.probs().get(SensorId(0)), 0.0);
        assert_eq!(u.probs().get(SensorId(1)), 0.4);
    }

    #[test]
    #[should_panic(expected = "detection probabilities")]
    fn invalid_probability_panics() {
        let _ = DetectionUtility::new(vec![1.5]);
    }

    #[test]
    fn evaluator_handles_certain_sensor() {
        let u = DetectionUtility::new(vec![1.0, 0.5]);
        let mut e = u.evaluator();
        assert_eq!(e.insert(SensorId(0)), 1.0);
        assert_eq!(e.value(), 1.0);
        assert_eq!(e.gain(SensorId(1)), 0.0, "already certain");
        assert_eq!(e.insert(SensorId(1)), 0.0);
        // Removing the certain sensor leaves the 0.5 one.
        let loss = e.remove(SensorId(0));
        assert!((e.value() - 0.5).abs() < 1e-12);
        assert!((loss - 0.5).abs() < 1e-12);
    }

    /// Regression for the single-pass `remove`: its return value must be
    /// bit-for-bit the `loss(v)` observed immediately before, across
    /// certain (`p = 1`) and fractional members in every order.
    #[test]
    fn remove_returns_exactly_prior_loss() {
        let u = DetectionUtility::new(vec![1.0, 1.0, 0.5, 0.25, 0.0]);
        for removal_order in [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 3, 1, 4]] {
            let mut e = u.evaluator();
            for v in 0..5 {
                e.insert(SensorId(v));
            }
            for v in removal_order {
                let prior_loss = e.loss(SensorId(v));
                let removed = e.remove(SensorId(v));
                assert_eq!(
                    removed.to_bits(),
                    prior_loss.to_bits(),
                    "remove({v}) diverged from prior loss"
                );
            }
            assert_eq!(e.value(), 0.0);
        }
    }

    #[test]
    fn evaluator_noop_on_duplicate_ops() {
        let u = DetectionUtility::uniform(3, 0.4);
        let mut e = u.evaluator();
        assert!(e.insert(SensorId(1)) > 0.0);
        assert_eq!(e.insert(SensorId(1)), 0.0);
        assert_eq!(e.remove(SensorId(2)), 0.0);
        assert!(e.contains(SensorId(1)));
        assert!(!e.contains(SensorId(0)));
    }

    proptest! {
        /// Evaluator value/gain/loss agree with from-scratch evaluation
        /// under arbitrary insert/remove sequences.
        #[test]
        fn evaluator_matches_eval(
            probs in proptest::collection::vec(0.0f64..=1.0, 1..10),
            ops in proptest::collection::vec((any::<bool>(), 0usize..10), 0..40),
        ) {
            let n = probs.len();
            let u = DetectionUtility::new(probs);
            let mut e = u.evaluator();
            for (add, raw) in ops {
                let v = SensorId(raw % n);
                let before = e.current_set();
                if add {
                    let predicted = e.gain(v);
                    let got = e.insert(v);
                    prop_assert!((predicted - got).abs() < 1e-9);
                } else {
                    let predicted = e.loss(v);
                    let got = e.remove(v);
                    prop_assert!((predicted - got).abs() < 1e-9);
                }
                let _ = before;
                prop_assert!((e.value() - u.eval(&e.current_set())).abs() < 1e-9);
            }
        }

        /// The function is submodular and monotone (checker-based test lives
        /// in checker.rs; this is a direct spot check).
        #[test]
        fn diminishing_returns(
            p in 0.0f64..=1.0,
            k1 in 0usize..4,
            k2 in 4usize..8,
        ) {
            let u = DetectionUtility::uniform(10, p);
            let s1 = SensorSet::from_indices(10, 0..k1);
            let s2 = SensorSet::from_indices(10, 0..k2);
            let v = SensorId(9);
            prop_assert!(
                u.marginal_gain(&s1, v) + 1e-12 >= u.marginal_gain(&s2, v)
            );
        }
    }
}
