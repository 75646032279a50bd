//! The linear (modular) utility `U(S) = Σ_{v∈S} w_v`.
//!
//! The degenerate boundary of the submodular family: marginal gains are
//! constant, so LP relaxation + rounding is exact and the greedy is optimal
//! per slot. Used as a baseline and to validate the LP pipeline. The
//! positive weights are stored as a [`SparseVector`].

use crate::sparse::SparseVector;
use crate::traits::{Evaluator, PerSlot, UtilityFunction};
use cool_common::{SensorId, SensorSet};

/// `U(S) = Σ_{v∈S} w_v` with non-negative weights.
///
/// # Examples
///
/// ```
/// use cool_common::SensorSet;
/// use cool_utility::{LinearUtility, UtilityFunction};
///
/// let u = LinearUtility::new(vec![1.0, 2.0, 4.0]);
/// assert_eq!(u.eval(&SensorSet::from_indices(3, [0, 2])), 5.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LinearUtility {
    /// The positive weights, shared with every evaluator (evaluators carry
    /// only mutable state, so spawning one per slot stays cheap at large
    /// part counts).
    weights: SparseVector,
}

impl LinearUtility {
    /// Creates the utility from per-sensor weights, keeping only the
    /// positive ones.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or not finite.
    #[allow(clippy::needless_pass_by_value)] // the dense signature every caller uses; the vector is compacted
    pub fn new(weights: Vec<f64>) -> Self {
        assert_weights(&weights);
        LinearUtility {
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
        LinearUtility { weights }
    }

    /// The positive weights.
    pub fn weights(&self) -> &SparseVector {
        &self.weights
    }
}

fn assert_weights(weights: &[f64]) {
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "linear weights must be non-negative"
    );
}

impl UtilityFunction for LinearUtility {
    type Evaluator = LinearEvaluator;

    fn universe(&self) -> usize {
        self.weights.universe()
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.universe(), "set universe mismatch");
        self.weights.sum_over(set)
    }

    fn max_value(&self) -> f64 {
        self.weights.dense_sum()
    }

    fn evaluator(&self) -> LinearEvaluator {
        LinearEvaluator {
            weights: self.weights.clone(),
            members: SensorSet::new(self.universe()),
            sum: 0.0,
        }
    }

    fn support(&self) -> SensorSet {
        self.weights.support()
    }
}

/// Incremental evaluator for [`LinearUtility`].
#[derive(Clone, Debug)]
pub struct LinearEvaluator {
    weights: SparseVector,
    members: SensorSet,
    sum: f64,
}

impl Evaluator for LinearEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        self.sum
    }

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            0.0
        } else {
            self.weights.get(v)
        }
    }

    fn loss(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            self.weights.get(v)
        } else {
            0.0
        }
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let w = self.weights.get(v);
        self.sum += w;
        w
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        let w = self.weights.get(v);
        self.sum -= w;
        w
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
    fn eval_sums_member_weights() {
        let u = LinearUtility::new(vec![1.0, 10.0, 100.0]);
        assert_eq!(u.eval(&SensorSet::new(3)), 0.0);
        assert_eq!(u.eval(&SensorSet::full(3)), 111.0);
        assert_eq!(u.max_value(), 111.0);
    }

    #[test]
    fn marginal_gain_is_constant_in_set() {
        let u = LinearUtility::new(vec![1.0, 10.0, 100.0]);
        let empty = SensorSet::new(3);
        let some = SensorSet::from_indices(3, [0]);
        assert_eq!(u.marginal_gain(&empty, SensorId(2)), 100.0);
        assert_eq!(u.marginal_gain(&some, SensorId(2)), 100.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_weight_panics() {
        let _ = LinearUtility::new(vec![f64::NAN]);
    }

    proptest! {
        #[test]
        fn evaluator_matches_eval(
            weights in proptest::collection::vec(0.0f64..100.0, 1..8),
            ops in proptest::collection::vec((any::<bool>(), 0usize..8), 0..30),
        ) {
            let n = weights.len();
            let u = LinearUtility::new(weights);
            let mut e = u.evaluator();
            for (add, raw) in ops {
                let v = SensorId(raw % n);
                if add { e.insert(v); } else { e.remove(v); }
                prop_assert!((e.value() - u.eval(&e.current_set())).abs() < 1e-9);
            }
        }
    }
}
