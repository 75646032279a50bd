//! The weighted-area region-monitoring utility of Eq. (2).
//!
//! `U(S) = Σ_i I_i(S)·w_i·|A_i|` over the subregions of the arrangement
//! (Fig. 3(b)): a subregion contributes its weighted area iff at least one
//! active sensor covers it. This is a weighted coverage function — monotone
//! and submodular.

use crate::traits::{Evaluator, PerSlot, UtilityFunction};
use cool_common::{SensorId, SensorSet};
use cool_geometry::Arrangement;
use std::sync::Arc;

/// Eq. (2): weighted area covered by the active set.
///
/// # Examples
///
/// ```
/// use cool_common::SensorSet;
/// use cool_geometry::{AnyRegion, Arrangement, Disk, Point, Rect};
/// use cool_utility::{CoverageUtility, UtilityFunction};
///
/// let regions: Vec<AnyRegion> = vec![
///     Disk::new(Point::new(3.0, 5.0), 2.0).into(),
///     Disk::new(Point::new(5.0, 5.0), 2.0).into(),
/// ];
/// let arr = Arrangement::build(Rect::square(10.0), &regions, 128);
/// let u = CoverageUtility::new(&arr);
/// let both = SensorSet::full(2);
/// assert!((u.eval(&both) - arr.total_coverable_weight()).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct CoverageUtility {
    universe: usize,
    /// Weighted area `w_i · |A_i|` per subregion. Shared with every
    /// evaluator (evaluators carry only mutable state, so spawning one per
    /// slot stays cheap at large part counts).
    values: Arc<Vec<f64>>,
    /// Signature per subregion.
    signatures: Vec<SensorSet>,
    /// Subregion indices covered by each sensor. Shared with evaluators.
    sensor_subregions: Arc<Vec<Vec<usize>>>,
}

impl CoverageUtility {
    /// Builds the utility from an [`Arrangement`].
    pub fn new(arrangement: &Arrangement) -> Self {
        let universe = arrangement.n_sensors();
        let subs = arrangement.subregions();
        let values: Vec<f64> = subs.iter().map(|s| s.weight * s.area).collect();
        let signatures: Vec<SensorSet> = subs.iter().map(|s| s.signature.clone()).collect();
        let mut sensor_subregions = vec![Vec::new(); universe];
        for (idx, sig) in signatures.iter().enumerate() {
            for v in sig {
                sensor_subregions[v.index()].push(idx);
            }
        }
        CoverageUtility {
            universe,
            values: Arc::new(values),
            signatures,
            sensor_subregions: Arc::new(sensor_subregions),
        }
    }

    /// Builds directly from parallel `(signature, weighted_area)` lists —
    /// for synthetic coverage instances without geometry.
    ///
    /// # Panics
    ///
    /// Panics if lists differ in length, a signature universe differs from
    /// `universe`, or a value is negative/not finite.
    pub fn from_parts(universe: usize, signatures: Vec<SensorSet>, values: Vec<f64>) -> Self {
        assert_eq!(signatures.len(), values.len(), "parallel lists must match");
        assert!(
            signatures.iter().all(|s| s.universe() == universe),
            "signature universe mismatch"
        );
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "subregion values must be non-negative"
        );
        let mut sensor_subregions = vec![Vec::new(); universe];
        for (idx, sig) in signatures.iter().enumerate() {
            for v in sig {
                sensor_subregions[v.index()].push(idx);
            }
        }
        CoverageUtility {
            universe,
            values: Arc::new(values),
            signatures,
            sensor_subregions: Arc::new(sensor_subregions),
        }
    }

    /// Number of subregions.
    pub fn n_subregions(&self) -> usize {
        self.values.len()
    }

    /// Weighted area per subregion (SoA layout seam).
    pub(crate) fn subregion_values(&self) -> &[f64] {
        &self.values
    }

    /// Subregion indices covered by sensor `v` (SoA layout seam).
    pub(crate) fn subregions_of(&self, v: SensorId) -> &[usize] {
        &self.sensor_subregions[v.index()]
    }

    /// Concave-envelope LP items `(cap, per-sensor mass)` with
    /// `U(S) = Σ_k cap_k · min(1, Σ_{v∈S} q_{k,v})` **exactly** for this
    /// utility (one item per subregion, indicator masses) — consumed by the
    /// LP-relaxation scheduler.
    pub fn lp_items(&self) -> Vec<(f64, Vec<f64>)> {
        self.signatures
            .iter()
            .zip(self.values.iter())
            .filter(|(_, &value)| value > 0.0)
            .map(|(sig, &value)| {
                let mut q = vec![0.0; self.universe];
                for v in sig {
                    q[v.index()] = 1.0;
                }
                (value, q)
            })
            .collect()
    }
}

impl UtilityFunction for CoverageUtility {
    type Evaluator = CoverageEvaluator;

    fn universe(&self) -> usize {
        self.universe
    }

    fn eval(&self, set: &SensorSet) -> f64 {
        assert_eq!(set.universe(), self.universe, "set universe mismatch");
        self.signatures
            .iter()
            .zip(self.values.iter())
            .filter(|(sig, _)| !sig.is_disjoint(set))
            .map(|(_, value)| value)
            .sum()
    }

    fn max_value(&self) -> f64 {
        self.values.iter().sum()
    }

    fn evaluator(&self) -> CoverageEvaluator {
        CoverageEvaluator {
            values: Arc::clone(&self.values),
            sensor_subregions: Arc::clone(&self.sensor_subregions),
            cover_counts: vec![0; self.values.len()],
            members: SensorSet::new(self.universe),
            covered_value: 0.0,
        }
    }

    fn support(&self) -> SensorSet {
        // A sensor matters only if it covers a subregion with positive
        // weighted area (zero-area subregions contribute exactly 0.0).
        SensorSet::from_indices(
            self.universe,
            self.sensor_subregions
                .iter()
                .enumerate()
                .filter(|(_, subs)| subs.iter().any(|&s| self.values[s] > 0.0))
                .map(|(v, _)| v),
        )
    }
}

/// Incremental evaluator for [`CoverageUtility`] — per-subregion cover
/// counts.
#[derive(Clone, Debug)]
pub struct CoverageEvaluator {
    values: Arc<Vec<f64>>,
    sensor_subregions: Arc<Vec<Vec<usize>>>,
    cover_counts: Vec<u32>,
    members: SensorSet,
    covered_value: f64,
}

impl Evaluator for CoverageEvaluator {
    type Slots = PerSlot<Self>;

    fn value(&self) -> f64 {
        self.covered_value
    }

    fn gain(&self, v: SensorId) -> f64 {
        if self.members.contains(v) {
            return 0.0;
        }
        self.sensor_subregions[v.index()]
            .iter()
            .filter(|&&s| self.cover_counts[s] == 0)
            .map(|&s| self.values[s])
            .sum()
    }

    fn loss(&self, v: SensorId) -> f64 {
        if !self.members.contains(v) {
            return 0.0;
        }
        self.sensor_subregions[v.index()]
            .iter()
            .filter(|&&s| self.cover_counts[s] == 1)
            .map(|&s| self.values[s])
            .sum()
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let mut gained = 0.0;
        for &s in &self.sensor_subregions[v.index()] {
            if self.cover_counts[s] == 0 {
                gained += self.values[s];
            }
            self.cover_counts[s] += 1;
        }
        self.covered_value += gained;
        gained
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        let mut lost = 0.0;
        for &s in &self.sensor_subregions[v.index()] {
            self.cover_counts[s] -= 1;
            if self.cover_counts[s] == 0 {
                lost += self.values[s];
            }
        }
        self.covered_value -= lost;
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
    use cool_geometry::{AnyRegion, Disk, Point, Rect};
    use proptest::prelude::*;

    fn synthetic() -> CoverageUtility {
        // 3 sensors, 4 subregions:
        //   A0 {v0}: 2.0,  A1 {v0,v1}: 3.0,  A2 {v1,v2}: 1.0,  A3 {v2}: 5.0
        CoverageUtility::from_parts(
            3,
            vec![
                SensorSet::from_indices(3, [0]),
                SensorSet::from_indices(3, [0, 1]),
                SensorSet::from_indices(3, [1, 2]),
                SensorSet::from_indices(3, [2]),
            ],
            vec![2.0, 3.0, 1.0, 5.0],
        )
    }

    #[test]
    fn eval_counts_each_subregion_once() {
        let u = synthetic();
        assert_eq!(u.eval(&SensorSet::from_indices(3, [0])), 5.0);
        assert_eq!(u.eval(&SensorSet::from_indices(3, [1])), 4.0);
        assert_eq!(u.eval(&SensorSet::from_indices(3, [0, 1])), 6.0);
        assert_eq!(u.eval(&SensorSet::full(3)), 11.0);
        assert_eq!(u.max_value(), 11.0);
        assert_eq!(u.n_subregions(), 4);
    }

    #[test]
    fn from_arrangement_matches_covered_weighted_area() {
        let regions: Vec<AnyRegion> = vec![
            Disk::new(Point::new(3.0, 5.0), 2.0).into(),
            Disk::new(Point::new(5.0, 5.0), 2.0).into(),
            Disk::new(Point::new(8.0, 2.0), 1.5).into(),
        ];
        let arr = Arrangement::build(Rect::square(10.0), &regions, 128);
        let u = CoverageUtility::new(&arr);
        for indices in [vec![], vec![0], vec![1, 2], vec![0, 1, 2]] {
            let s = SensorSet::from_indices(3, indices.iter().copied());
            assert!(
                (u.eval(&s) - arr.covered_weighted_area(&s)).abs() < 1e-9,
                "mismatch at {indices:?}"
            );
        }
    }

    #[test]
    fn evaluator_gain_loss_roundtrip() {
        let u = synthetic();
        let mut e = u.evaluator();
        assert_eq!(e.gain(SensorId(0)), 5.0);
        assert_eq!(e.insert(SensorId(0)), 5.0);
        assert_eq!(e.gain(SensorId(1)), 1.0, "A1 already covered by v0");
        assert_eq!(e.insert(SensorId(1)), 1.0);
        assert_eq!(e.loss(SensorId(0)), 2.0, "only A0 uniquely v0's now");
        assert_eq!(e.remove(SensorId(0)), 2.0);
        assert_eq!(e.value(), 4.0);
    }

    #[test]
    #[should_panic(expected = "parallel lists")]
    fn mismatched_parts_panic() {
        let _ = CoverageUtility::from_parts(1, vec![SensorSet::new(1)], vec![]);
    }

    proptest! {
        #[test]
        fn evaluator_matches_eval(
            // Random subregions over 6 sensors.
            subs in proptest::collection::vec(
                (proptest::collection::vec(0usize..6, 1..4), 0.0f64..10.0), 1..12),
            ops in proptest::collection::vec((any::<bool>(), 0usize..6), 0..30),
        ) {
            let signatures: Vec<SensorSet> = subs
                .iter()
                .map(|(ids, _)| SensorSet::from_indices(6, ids.iter().copied()))
                .collect();
            let values: Vec<f64> = subs.iter().map(|&(_, v)| v).collect();
            let u = CoverageUtility::from_parts(6, signatures, values);
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
