//! The log-sum utility `U(S) = log(1 + Σ_{v∈S} w_v)`.
//!
//! §III uses exactly this function to reduce Subset-Sum to the scheduling
//! problem: with `T = 2` slots, the total two-slot utility
//! `log(1+Σ_A w) + log(1+Σ_{A^c} w)` is maximised when the weights split in
//! half — deciding the split decides Subset-Sum. It is also a natural
//! "information value" model with hard diminishing returns. The positive
//! weights are stored as a [`SparseVector`].

use crate::sparse::SparseVector;
use crate::traits::{Evaluator, PerSlot, UtilityFunction};
use cool_common::{SensorId, SensorSet};

/// `U(S) = ln(1 + Σ_{v∈S} w_v)` with non-negative weights.
///
/// # Examples
///
/// ```
/// use cool_common::SensorSet;
/// use cool_utility::{LogSumUtility, UtilityFunction};
///
/// let u = LogSumUtility::new(vec![1.0, 2.0, 4.0]);
/// let s = SensorSet::from_indices(3, [0, 2]);
/// assert!((u.eval(&s) - (1.0f64 + 5.0).ln()).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LogSumUtility {
    /// The positive weights, shared with every evaluator (evaluators carry
    /// only mutable state, so spawning one per slot stays cheap at large
    /// part counts).
    weights: SparseVector,
}

impl LogSumUtility {
    /// Creates the utility from per-sensor weights, keeping only the
    /// positive ones.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or not finite.
    #[allow(clippy::needless_pass_by_value)] // the dense signature every caller uses; the vector is compacted
    pub fn new(weights: Vec<f64>) -> Self {
        assert_weights(&weights);
        LogSumUtility {
            weights: SparseVector::from_dense(&weights),
        }
    }

    /// Creates the utility from the positive weights.
    ///
    /// # Panics
    ///
    /// Panics if any stored weight is not finite.
    pub fn from_sparse(weights: SparseVector) -> Self {
        assert_weights(weights.values());
        LogSumUtility { weights }
    }

    /// Creates the §III hardness gadget from Subset-Sum integers.
    pub fn from_integers(integers: &[u64]) -> Self {
        LogSumUtility::new(integers.iter().map(|&x| x as f64).collect())
    }

    /// The positive weights.
    pub fn weights(&self) -> &SparseVector {
        &self.weights
    }

    /// Sum of all weights.
    pub fn total_weight(&self) -> f64 {
        self.weights.dense_sum()
    }
}

fn assert_weights(weights: &[f64]) {
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "log-sum weights must be non-negative"
    );
}

impl UtilityFunction for LogSumUtility {
    type Evaluator = LogSumEvaluator;

    fn universe(&self) -> usize {
        self.weights.universe()
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.universe(), "set universe mismatch");
        (1.0 + self.weights.sum_over(set)).ln()
    }

    fn max_value(&self) -> f64 {
        (1.0 + self.total_weight()).ln()
    }

    fn evaluator(&self) -> LogSumEvaluator {
        LogSumEvaluator {
            weights: self.weights.clone(),
            members: SensorSet::new(self.universe()),
            sum: 0.0,
        }
    }

    fn support(&self) -> SensorSet {
        self.weights.support()
    }
}

/// Incremental evaluator for [`LogSumUtility`] — tracks the running weight
/// sum.
#[derive(Clone, Debug)]
pub struct LogSumEvaluator {
    weights: SparseVector,
    members: SensorSet,
    sum: f64,
}

impl Evaluator for LogSumEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        (1.0 + self.sum).ln()
    }

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            return 0.0;
        }
        (1.0 + self.sum + self.weights.get(v)).ln() - self.value()
    }

    fn loss(&self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        self.value() - (1.0 + self.sum - self.weights.get(v)).max(1.0).ln()
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let before = self.value();
        self.sum += self.weights.get(v);
        self.value() - before
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        let before = self.value();
        self.sum = (self.sum - self.weights.get(v)).max(0.0);
        before - self.value()
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
    fn empty_is_zero() {
        let u = LogSumUtility::new(vec![3.0, 5.0]);
        assert_eq!(u.eval(&SensorSet::new(2)), 0.0);
    }

    #[test]
    fn from_integers_matches() {
        let u = LogSumUtility::from_integers(&[1, 2, 3]);
        assert_eq!(u.total_weight(), 6.0);
        assert!((u.eval(&SensorSet::full(3)) - 7.0f64.ln()).abs() < 1e-12);
    }

    /// The §III reduction property: a balanced split of the weights across
    /// two slots maximises the two-slot utility.
    #[test]
    fn balanced_split_maximizes_two_slot_utility() {
        // Weights 3,1,2,2: total 8, balanced split 4/4 exists.
        let u = LogSumUtility::from_integers(&[3, 1, 2, 2]);
        let total = u.total_weight();
        let balanced_value = 2.0 * (1.0 + total / 2.0).ln();

        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..16 {
            let a = SensorSet::from_indices(4, (0..4).filter(|i| mask >> i & 1 == 1));
            let b = SensorSet::from_indices(4, (0..4).filter(|i| mask >> i & 1 == 0));
            best = best.max(u.eval(&a) + u.eval(&b));
        }
        assert!(
            (best - balanced_value).abs() < 1e-12,
            "optimum {best} equals balanced bound {balanced_value}"
        );
    }

    /// With weights that cannot split evenly, the optimum stays strictly
    /// below the balanced bound — the other direction of the reduction.
    #[test]
    fn unbalanced_instance_stays_below_bound() {
        let u = LogSumUtility::from_integers(&[1, 1, 5]);
        let total = u.total_weight();
        let balanced_value = 2.0 * (1.0 + total / 2.0).ln();
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..8 {
            let a = SensorSet::from_indices(3, (0..3).filter(|i| mask >> i & 1 == 1));
            let b = SensorSet::from_indices(3, (0..3).filter(|i| mask >> i & 1 == 0));
            best = best.max(u.eval(&a) + u.eval(&b));
        }
        assert!(best < balanced_value - 1e-9, "{best} < {balanced_value}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        let _ = LogSumUtility::new(vec![-1.0]);
    }

    proptest! {
        #[test]
        fn evaluator_matches_eval(
            weights in proptest::collection::vec(0.0f64..100.0, 1..8),
            ops in proptest::collection::vec((any::<bool>(), 0usize..8), 0..30),
        ) {
            let n = weights.len();
            let u = LogSumUtility::new(weights);
            let mut e = u.evaluator();
            for (add, raw) in ops {
                let v = SensorId(raw % n);
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
