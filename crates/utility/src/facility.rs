//! Facility-location utility `U(S) = Σ_i max_{v∈S} b_{iv}`.
//!
//! A classic monotone submodular function: each target takes the benefit of
//! the *best* active sensor watching it (e.g. highest-resolution camera,
//! closest microphone). Not used in the paper's evaluation but squarely
//! inside its utility model — included as an extension instance and for
//! scheduler stress-testing with heterogeneous per-sensor quality.

use crate::traits::{Evaluator, PerSlot, UtilityFunction};
use cool_common::{SensorId, SensorSet};
use std::sync::Arc;

/// `U(S) = Σ_i max_{v∈S} b_{iv}` (with `max over ∅ = 0`), benefits
/// non-negative.
///
/// # Examples
///
/// ```
/// use cool_common::SensorSet;
/// use cool_utility::{FacilityLocationUtility, UtilityFunction};
///
/// // Two targets, three sensors; rows are targets.
/// let u = FacilityLocationUtility::new(vec![
///     vec![0.9, 0.4, 0.0],
///     vec![0.1, 0.8, 0.5],
/// ]);
/// let s = SensorSet::from_indices(3, [1, 2]);
/// assert!((u.eval(&s) - (0.4 + 0.8)).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FacilityLocationUtility {
    /// `benefits[i][v]`: value target `i` receives from sensor `v`. Shared
    /// with every evaluator (evaluators carry only mutable state, so
    /// spawning one per slot stays cheap at large part counts).
    benefits: Arc<Vec<Vec<f64>>>,
    universe: usize,
}

impl FacilityLocationUtility {
    /// Creates the utility from a targets × sensors benefit matrix.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged or contain negative/non-finite entries, or
    /// if the matrix is empty (universe undeterminable).
    pub fn new(benefits: Vec<Vec<f64>>) -> Self {
        assert!(!benefits.is_empty(), "need at least one target row");
        let universe = benefits[0].len();
        assert!(
            benefits.iter().all(|row| row.len() == universe),
            "benefit rows must have equal length"
        );
        assert!(
            benefits
                .iter()
                .flatten()
                .all(|b| b.is_finite() && *b >= 0.0),
            "benefits must be non-negative"
        );
        FacilityLocationUtility {
            benefits: Arc::new(benefits),
            universe,
        }
    }

    /// Number of targets (rows).
    pub fn n_targets(&self) -> usize {
        self.benefits.len()
    }

    /// The benefit matrix rows (SoA layout seam).
    pub(crate) fn benefit_rows(&self) -> &[Vec<f64>] {
        &self.benefits
    }

    /// The shared benefit matrix (SoA layout seam).
    pub(crate) fn benefit_rows_arc(&self) -> &Arc<Vec<Vec<f64>>> {
        &self.benefits
    }

    /// Concave-envelope LP items `(cap, per-sensor mass)` with
    /// `U(S) ≤ Σ_k cap_k · min(1, Σ_{v∈S} q_{k,v})`: per target,
    /// `cap = max_v b_v` and `q_v = b_v / cap` (valid because
    /// `max_{v∈S} b_v ≤ min(cap, Σ_{v∈S} b_v)` for non-negative benefits).
    pub fn lp_items(&self) -> Vec<(f64, Vec<f64>)> {
        self.benefits
            .iter()
            .filter_map(|row| {
                let cap = row.iter().copied().fold(0.0, f64::max);
                if cap <= 0.0 {
                    return None;
                }
                Some((cap, row.iter().map(|b| b / cap).collect()))
            })
            .collect()
    }
}

impl UtilityFunction for FacilityLocationUtility {
    type Evaluator = FacilityEvaluator;

    fn universe(&self) -> usize {
        self.universe
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.universe, "set universe mismatch");
        self.benefits
            .iter()
            .map(|row| set.iter().map(|v| row[v.index()]).fold(0.0, f64::max))
            .sum()
    }

    fn evaluator(&self) -> FacilityEvaluator {
        FacilityEvaluator {
            benefits: Arc::clone(&self.benefits),
            members: SensorSet::new(self.universe),
            best: vec![0.0; self.benefits.len()],
        }
    }

    fn support(&self) -> SensorSet {
        // A sensor matters only if some target receives a positive benefit
        // from it (an all-zero column can never raise any per-target max).
        SensorSet::from_indices(
            self.universe,
            (0..self.universe).filter(|&v| self.benefits.iter().any(|row| row[v] > 0.0)),
        )
    }
}

/// Incremental evaluator for [`FacilityLocationUtility`] — per-target
/// current best benefit. Insertion is O(m); removal recomputes the max over
/// remaining members for the targets `v` was best at, O(m·|S|) worst case.
#[derive(Clone, Debug)]
pub struct FacilityEvaluator {
    benefits: Arc<Vec<Vec<f64>>>,
    members: SensorSet,
    best: Vec<f64>,
}

impl Evaluator for FacilityEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        self.best.iter().sum()
    }

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            return 0.0;
        }
        self.benefits
            .iter()
            .zip(&self.best)
            .map(|(row, &b)| (row[v.index()] - b).max(0.0))
            .sum()
    }

    fn loss(&self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        let mut lost = 0.0;
        for (i, row) in self.benefits.iter().enumerate() {
            if row[v.index()] >= self.best[i] && self.best[i] > 0.0 {
                let next_best = self
                    .members
                    .iter()
                    .filter(|&u| u != v)
                    .map(|u| row[u.index()])
                    .fold(0.0, f64::max);
                lost += self.best[i] - next_best;
            }
        }
        lost
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let mut gained = 0.0;
        for (i, row) in self.benefits.iter().enumerate() {
            let b = row[v.index()];
            if b > self.best[i] {
                gained += b - self.best[i];
                self.best[i] = b;
            }
        }
        gained
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        self.members.remove(v);
        let mut lost = 0.0;
        for (i, row) in self.benefits.iter().enumerate() {
            if row[v.index()] >= self.best[i] && self.best[i] > 0.0 {
                let next_best = self
                    .members
                    .iter()
                    .map(|u| row[u.index()])
                    .fold(0.0, f64::max);
                lost += self.best[i] - next_best;
                self.best[i] = next_best;
            }
        }
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
    use proptest::prelude::*;

    fn sample() -> FacilityLocationUtility {
        FacilityLocationUtility::new(vec![vec![0.9, 0.4, 0.0], vec![0.1, 0.8, 0.5]])
    }

    #[test]
    fn eval_takes_best_per_target() {
        let u = sample();
        assert_eq!(u.eval(&SensorSet::new(3)), 0.0);
        assert!((u.eval(&SensorSet::full(3)) - 1.7).abs() < 1e-12);
        assert_eq!(u.n_targets(), 2);
    }

    #[test]
    fn insertion_gain_is_improvement_only() {
        let u = sample();
        let mut e = u.evaluator();
        assert!((e.insert(SensorId(1)) - 1.2).abs() < 1e-12); // 0.4 + 0.8
        assert!((e.gain(SensorId(0)) - 0.5).abs() < 1e-12); // only target 0 improves
        assert!((e.gain(SensorId(2)) - 0.0).abs() < 1e-12); // strictly worse everywhere
    }

    #[test]
    fn removal_falls_back_to_next_best() {
        let u = sample();
        let mut e = u.evaluator();
        e.insert(SensorId(0));
        e.insert(SensorId(1));
        // Removing v0: target 0 falls back from 0.9 to 0.4.
        assert!((e.loss(SensorId(0)) - 0.5).abs() < 1e-12);
        assert!((e.remove(SensorId(0)) - 0.5).abs() < 1e-12);
        assert!((e.value() - 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_matrix_panics() {
        let _ = FacilityLocationUtility::new(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    proptest! {
        #[test]
        fn evaluator_matches_eval(
            rows in proptest::collection::vec(
                proptest::collection::vec(0.0f64..5.0, 4), 1..5),
            ops in proptest::collection::vec((any::<bool>(), 0usize..4), 0..25),
        ) {
            let u = FacilityLocationUtility::new(rows);
            let mut e = u.evaluator();
            for (add, raw) in ops {
                let v = SensorId(raw % 4);
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
