//! k-coverage utility: targets want `k` *simultaneous* observers.
//!
//! Triangulation, localisation and fault-tolerant sensing applications
//! value a target by how close it is to being `k`-covered:
//!
//! ```text
//! U(S) = Σ_i w_i · min(|S ∩ V(O_i)|, k_i) / k_i
//! ```
//!
//! Each target's term is a concave function of its active-coverer count,
//! so the sum is monotone submodular and slots directly into the paper's
//! scheduling machinery. This instance is not in the paper's evaluation —
//! it is an extension exercising the framework with "hard" (piecewise
//! linear) diminishing returns instead of the detection utility's smooth
//! geometric ones.

use crate::traits::{Evaluator, PerSlot, UtilityFunction};
use cool_common::{SensorId, SensorSet};
use std::sync::Arc;

/// `U(S) = Σ_i w_i · min(|S ∩ V(O_i)|, k_i)/k_i`.
///
/// # Examples
///
/// ```
/// use cool_common::SensorSet;
/// use cool_utility::{KCoverageUtility, UtilityFunction};
///
/// // One target wanting 2-of-{0,1,2} coverage.
/// let u = KCoverageUtility::new(
///     vec![SensorSet::from_indices(3, [0, 1, 2])],
///     vec![2],
///     vec![1.0],
/// );
/// assert_eq!(u.eval(&SensorSet::from_indices(3, [0])), 0.5);
/// assert_eq!(u.eval(&SensorSet::from_indices(3, [0, 1])), 1.0);
/// assert_eq!(u.eval(&SensorSet::full(3)), 1.0, "third coverer is surplus");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KCoverageUtility {
    coverages: Vec<SensorSet>,
    /// Shared with every evaluator (evaluators carry only mutable state,
    /// so spawning one per slot stays cheap at large part counts).
    k: Arc<Vec<u32>>,
    weights: Arc<Vec<f64>>,
    /// Per-sensor target lists (inverted coverage index), built once here
    /// rather than on every `evaluator()` call.
    sensor_targets: Arc<Vec<Vec<usize>>>,
    universe: usize,
}

impl KCoverageUtility {
    /// Creates the utility from per-target coverage sets `V(O_i)`,
    /// requirements `k_i ≥ 1` and weights `w_i ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if the lists are empty or of unequal length, universes
    /// disagree, any `k_i == 0`, or any weight is negative/not finite.
    pub fn new(coverages: Vec<SensorSet>, k: Vec<u32>, weights: Vec<f64>) -> Self {
        assert!(!coverages.is_empty(), "need at least one target");
        assert_eq!(coverages.len(), k.len(), "one k per target");
        assert_eq!(coverages.len(), weights.len(), "one weight per target");
        let universe = coverages[0].universe();
        assert!(
            coverages.iter().all(|c| c.universe() == universe),
            "coverage sets must share one universe"
        );
        assert!(k.iter().all(|&ki| ki >= 1), "k must be at least 1");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative"
        );
        let mut sensor_targets = vec![Vec::new(); universe];
        for (i, cov) in coverages.iter().enumerate() {
            for v in cov {
                sensor_targets[v.index()].push(i);
            }
        }
        KCoverageUtility {
            coverages,
            k: Arc::new(k),
            weights: Arc::new(weights),
            sensor_targets: Arc::new(sensor_targets),
            universe,
        }
    }

    /// Uniform variant: every target requires `k` coverers at weight 1.
    ///
    /// # Panics
    ///
    /// As [`KCoverageUtility::new`].
    pub fn uniform(coverages: Vec<SensorSet>, k: u32) -> Self {
        let m = coverages.len();
        KCoverageUtility::new(coverages, vec![k; m], vec![1.0; m])
    }

    /// Number of targets.
    pub fn n_targets(&self) -> usize {
        self.coverages.len()
    }

    /// Per-target requirements `k_i` (SoA layout seam).
    pub(crate) fn requirements(&self) -> &[u32] {
        &self.k
    }

    /// Per-target weights `w_i` (SoA layout seam).
    pub(crate) fn target_weights(&self) -> &[f64] {
        &self.weights
    }

    /// Target indices covered by sensor `v` (SoA layout seam).
    pub(crate) fn targets_of(&self, v: SensorId) -> &[usize] {
        &self.sensor_targets[v.index()]
    }

    /// Concave-envelope LP items `(cap, per-sensor mass)`: per target,
    /// `cap = w_i` and `q_v = 1/k_i` for covering sensors — **exact** for
    /// this utility, since `w·min(count, k)/k = cap·min(1, Σ q)`.
    pub fn lp_items(&self) -> Vec<(f64, Vec<f64>)> {
        self.coverages
            .iter()
            .zip(self.k.iter())
            .zip(self.weights.iter())
            .filter(|(_, &w)| w > 0.0)
            .map(|((cov, &k), &w)| {
                let mut q = vec![0.0; self.universe];
                for v in cov {
                    q[v.index()] = 1.0 / f64::from(k);
                }
                (w, q)
            })
            .collect()
    }
}

impl UtilityFunction for KCoverageUtility {
    type Evaluator = KCoverageEvaluator;

    fn universe(&self) -> usize {
        self.universe
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.universe, "set universe mismatch");
        self.coverages
            .iter()
            .zip(self.k.iter())
            .zip(self.weights.iter())
            .map(|((cov, &k), &w)| {
                let count = cov.intersection_len(set) as u32;
                w * f64::from(count.min(k)) / f64::from(k)
            })
            .sum()
    }

    fn target_count(&self) -> usize {
        self.coverages.len()
    }

    fn evaluator(&self) -> KCoverageEvaluator {
        KCoverageEvaluator {
            k: Arc::clone(&self.k),
            weights: Arc::clone(&self.weights),
            sensor_targets: Arc::clone(&self.sensor_targets),
            counts: vec![0; self.coverages.len()],
            members: SensorSet::new(self.universe),
            value: 0.0,
        }
    }

    fn support(&self) -> SensorSet {
        // A sensor matters only if it covers a positively-weighted target.
        SensorSet::from_indices(
            self.universe,
            self.sensor_targets
                .iter()
                .enumerate()
                .filter(|(_, targets)| targets.iter().any(|&i| self.weights[i] > 0.0))
                .map(|(v, _)| v),
        )
    }
}

/// Incremental evaluator for [`KCoverageUtility`] — per-target coverer
/// counts.
#[derive(Clone, Debug)]
pub struct KCoverageEvaluator {
    k: Arc<Vec<u32>>,
    weights: Arc<Vec<f64>>,
    sensor_targets: Arc<Vec<Vec<usize>>>,
    counts: Vec<u32>,
    members: SensorSet,
    value: f64,
}

impl Evaluator for KCoverageEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        self.value
    }

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            return 0.0;
        }
        self.sensor_targets[v.index()]
            .iter()
            .filter(|&&i| self.counts[i] < self.k[i])
            .map(|&i| self.weights[i] / f64::from(self.k[i]))
            .sum()
    }

    fn loss(&self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        self.sensor_targets[v.index()]
            .iter()
            .filter(|&&i| self.counts[i] <= self.k[i])
            .map(|&i| self.weights[i] / f64::from(self.k[i]))
            .sum()
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let mut gained = 0.0;
        for &i in &self.sensor_targets[v.index()] {
            if self.counts[i] < self.k[i] {
                gained += self.weights[i] / f64::from(self.k[i]);
            }
            self.counts[i] += 1;
        }
        self.value += gained;
        gained
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        let mut lost = 0.0;
        for &i in &self.sensor_targets[v.index()] {
            self.counts[i] -= 1;
            if self.counts[i] < self.k[i] {
                lost += self.weights[i] / f64::from(self.k[i]);
            }
        }
        self.value -= lost;
        lost
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
    use crate::check_utility;
    use cool_common::SeedSequence;
    use proptest::prelude::*;

    fn two_targets() -> KCoverageUtility {
        KCoverageUtility::new(
            vec![
                SensorSet::from_indices(4, [0, 1, 2]),
                SensorSet::from_indices(4, [2, 3]),
            ],
            vec![2, 1],
            vec![1.0, 3.0],
        )
    }

    #[test]
    fn eval_counts_capped_coverage() {
        let u = two_targets();
        assert_eq!(u.eval(&SensorSet::new(4)), 0.0);
        assert_eq!(u.eval(&SensorSet::from_indices(4, [0])), 0.5);
        assert_eq!(u.eval(&SensorSet::from_indices(4, [0, 1])), 1.0);
        assert_eq!(u.eval(&SensorSet::from_indices(4, [0, 1, 2])), 4.0);
        assert_eq!(u.eval(&SensorSet::full(4)), 4.0);
        assert_eq!(u.max_value(), 4.0);
        assert_eq!(u.target_count(), 2);
    }

    #[test]
    fn surplus_coverers_add_nothing() {
        let u = KCoverageUtility::uniform(vec![SensorSet::full(5)], 2);
        let two = SensorSet::from_indices(5, [0, 1]);
        let five = SensorSet::full(5);
        assert_eq!(u.eval(&two), u.eval(&five));
    }

    #[test]
    fn axioms_hold() {
        let mut rng = SeedSequence::new(61).nth_rng(0);
        check_utility(&two_targets(), 300, &mut rng).unwrap();
        check_utility(
            &KCoverageUtility::uniform(
                vec![
                    SensorSet::from_indices(6, [0, 2, 4]),
                    SensorSet::from_indices(6, [1, 3, 5]),
                ],
                3,
            ),
            300,
            &mut rng,
        )
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let _ = KCoverageUtility::new(vec![SensorSet::new(1)], vec![0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "one k per target")]
    fn mismatched_lengths_panic() {
        let _ = KCoverageUtility::new(vec![SensorSet::new(1)], vec![], vec![1.0]);
    }

    proptest! {
        #[test]
        fn evaluator_matches_eval(
            cov1 in proptest::collection::vec(0usize..6, 1..6),
            cov2 in proptest::collection::vec(0usize..6, 1..6),
            k1 in 1u32..4, k2 in 1u32..4,
            ops in proptest::collection::vec((any::<bool>(), 0usize..6), 0..30),
        ) {
            let u = KCoverageUtility::new(
                vec![
                    SensorSet::from_indices(6, cov1.iter().copied()),
                    SensorSet::from_indices(6, cov2.iter().copied()),
                ],
                vec![k1, k2],
                vec![1.0, 2.0],
            );
            let mut e = u.evaluator();
            for (add, raw) in ops {
                let v = SensorId(raw % 6);
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
