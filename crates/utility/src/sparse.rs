//! Sparse per-sensor vectors: the storage behind the detection, linear and
//! log-sum parts.
//!
//! The per-target utility of §II-C ranges only over `V(O_i)`, the sensors
//! that can monitor target `O_i`: every other sensor carries a zero
//! probability or weight. In a multi-target instance each target sees a
//! handful of sensors, so an n-length vector per part would cost O(n·m)
//! for m targets. [`SparseVector`] stores the support only — sorted sensor
//! ids plus their values — so a sum of m parts costs O(Σ deg), and the
//! incidence index and struct-of-arrays layout of
//! [`SumUtility`](crate::SumUtility) read the entries directly.
//!
//! # Dense semantics, bit for bit
//!
//! A `SparseVector` reads as the dense vector it stores:
//! [`get`](SparseVector::get) is `+0.0` off the support, its sums are
//! bitwise the dense `iter().sum()`, and its set walks visit the stored
//! entries in increasing sensor order — the order a dense walk meets them
//! in — so the skipped zeros (a `+ 0.0` or a `* (1 − 0.0)`) are exactly the
//! operations that cannot change an f64. Zeros of either sign are dropped,
//! so a `−0.0` entry reads back as `+0.0`.

use cool_common::{SensorId, SensorSet};
use std::sync::Arc;

/// A per-sensor vector over a universe of `n` sensors that stores only its
/// positive entries: strictly increasing sensor ids and their values, each
/// behind an `Arc` so every evaluator spawned from a part shares them.
///
/// # Examples
///
/// ```
/// use cool_common::SensorId;
/// use cool_utility::SparseVector;
///
/// let x = SparseVector::from_dense(&[0.0, 0.4, 0.0, 0.9]);
/// assert_eq!(x.ids(), &[1, 3]);
/// assert_eq!(x.values(), &[0.4, 0.9]);
/// assert_eq!(x.get(SensorId(2)), 0.0);
/// assert_eq!(x, SparseVector::from_sorted(4, vec![1, 3], vec![0.4, 0.9]));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVector {
    universe: usize,
    ids: Arc<[u32]>,
    values: Arc<[f64]>,
}

impl SparseVector {
    /// Compacts a dense vector: keeps its positive entries.
    ///
    /// # Panics
    ///
    /// Panics if a positive entry's index does not fit in `u32`.
    pub fn from_dense(dense: &[f64]) -> Self {
        let (ids, values) = dense
            .iter()
            .enumerate()
            .filter(|(_, &x)| x > 0.0)
            .map(|(v, &x)| (sensor_id(v), x))
            .unzip();
        SparseVector::from_sorted(dense.len(), ids, values)
    }

    /// The value `x` on every sensor `ids` yields (in strictly increasing
    /// order), zero elsewhere. Empty when `x` is zero.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative or NaN, or if the ids are not strictly
    /// increasing or fall outside the universe.
    pub fn uniform<I: IntoIterator<Item = SensorId>>(universe: usize, ids: I, x: f64) -> Self {
        assert!(x >= 0.0, "a uniform value must be non-negative");
        if x == 0.0 {
            return SparseVector::from_sorted(universe, Vec::new(), Vec::new());
        }
        let ids: Vec<u32> = ids.into_iter().map(|v| sensor_id(v.index())).collect();
        let values = vec![x; ids.len()];
        SparseVector::from_sorted(universe, ids, values)
    }

    /// Builds the vector from its stored entries.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ, the ids are not strictly increasing or
    /// fall outside the universe, or a value is not positive.
    pub fn from_sorted(universe: usize, ids: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(ids.len(), values.len(), "one value per sensor id");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "sensor ids must be strictly increasing"
        );
        assert!(
            ids.last().is_none_or(|&v| (v as usize) < universe),
            "sensor id outside the universe of {universe}"
        );
        assert!(
            values.iter().all(|&x| x > 0.0),
            "stored values must be positive"
        );
        SparseVector {
            universe,
            ids: ids.into(),
            values: values.into(),
        }
    }

    /// Number of sensors in the universe (the dense length).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of stored (positive) entries — the support size.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if every entry is zero.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The support: sensor ids with a positive value, increasing.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The values of the support, aligned with [`ids`](SparseVector::ids).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The entry of sensor `v` — `+0.0` off the support. O(log len).
    pub fn get(&self, v: SensorId) -> f64 {
        self.position(v).map_or(0.0, |i| self.values[i])
    }

    /// The stored entries as `(sensor, value)`, in increasing sensor order.
    pub fn iter(&self) -> impl Iterator<Item = (SensorId, f64)> + '_ {
        self.ids
            .iter()
            .zip(self.values.iter())
            .map(|(&v, &x)| (SensorId(v as usize), x))
    }

    /// The support as a set over the universe.
    pub(crate) fn support(&self) -> SensorSet {
        SensorSet::from_indices(self.universe, self.ids.iter().map(|&v| v as usize))
    }

    /// The dense n-length vector.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut dense = vec![0.0; self.universe];
        for (v, x) in self.iter() {
            dense[v.index()] = x;
        }
        dense
    }

    /// The sum of all n entries, bitwise the dense `iter().sum()`. f64's
    /// `Sum` starts at `−0.0`, which only an empty universe returns: any
    /// `+0.0` entry turns it positive.
    pub(crate) fn dense_sum(&self) -> f64 {
        let seed = if self.universe == 0 { -0.0 } else { 0.0 };
        self.values.iter().fold(seed, |acc, &x| acc + x)
    }

    /// `Σ_{v∈set} x_v`, bitwise the dense
    /// `set.iter().map(|v| dense[v]).sum()`: `−0.0` for the empty set,
    /// `+0.0` for a set that meets only zero entries (the signed-zero trap
    /// of skipping them), and the support terms in increasing sensor order
    /// otherwise.
    pub(crate) fn sum_over(&self, set: &SensorSet) -> f64 {
        let seed = if set.is_empty() { -0.0 } else { 0.0 };
        self.fold_over(set, seed, |acc, x| acc + x)
    }

    /// Folds `f` over the stored values of the sensors in `set`, in
    /// increasing sensor order. Walks whichever of `set` and the support
    /// is smaller; both visit the same entries in the same order.
    pub(crate) fn fold_over(
        &self,
        set: &SensorSet,
        init: f64,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> f64 {
        if set.len() < self.len() {
            set.iter().fold(init, |acc, v| match self.position(v) {
                Some(i) => f(acc, self.values[i]),
                None => acc,
            })
        } else {
            self.iter()
                .filter(|&(v, _)| set.contains(v))
                .fold(init, |acc, (_, x)| f(acc, x))
        }
    }

    fn position(&self, v: SensorId) -> Option<usize> {
        let id = u32::try_from(v.index()).ok()?;
        self.ids.binary_search(&id).ok()
    }
}

#[allow(clippy::expect_used)] // sensor ids are u32 throughout the incidence index and SoA layout
fn sensor_id(v: usize) -> u32 {
    u32::try_from(v).expect("sensor id fits in u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_keeps_positive_entries_in_order() {
        let x = SparseVector::from_dense(&[0.0, 2.0, -0.0, 0.5, 0.0]);
        assert_eq!(x.universe(), 5);
        assert_eq!(x.ids(), &[1, 3]);
        assert_eq!(x.values(), &[2.0, 0.5]);
        assert_eq!(x.to_dense(), vec![0.0, 2.0, 0.0, 0.5, 0.0]);
        assert_eq!(x.get(SensorId(2)).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_ids_panic() {
        let _ = SparseVector::from_sorted(4, vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn out_of_range_id_panics() {
        let _ = SparseVector::from_sorted(2, vec![2], vec![1.0]);
    }
}
