//! The [`UtilityFunction`] and [`Evaluator`] traits, and the
//! [`SlotState`] seam through which the lazy greedy holds one evaluator
//! state per time slot.

use cool_common::{SensorId, SensorSet};

/// A non-decreasing submodular set function `U : 2^V → ℝ≥0` with
/// `U(∅) = 0`, over a universe of `universe()` sensors.
///
/// Implementors must satisfy (and the crate's property tests verify
/// numerically via [`check_utility`](crate::check_utility)):
///
/// * normalisation: `eval(∅) == 0`;
/// * monotonicity: `S₁ ⊆ S₂ ⇒ eval(S₁) ≤ eval(S₂)`;
/// * submodularity: `S₁ ⊆ S₂, v ∉ S₂ ⇒`
///   `eval(S₁∪{v}) − eval(S₁) ≥ eval(S₂∪{v}) − eval(S₂)`.
///
/// The greedy scheduler's ½-approximation guarantee (Lemma 4.1 of the
/// paper) relies on exactly these properties.
pub trait UtilityFunction {
    /// The incremental evaluator companion type.
    type Evaluator: Evaluator;

    /// Number of sensors in the universe `V`.
    fn universe(&self) -> usize;

    /// Evaluates `U(S)` from scratch.
    ///
    /// # Panics
    ///
    /// Implementations panic when `set.universe() != self.universe()`.
    fn eval(&self, set: &SensorSet) -> f64;

    /// The largest value the function can attain, `U(V)`.
    fn max_value(&self) -> f64 {
        self.eval(&SensorSet::full(self.universe()))
    }

    /// Number of monitored targets this utility aggregates over — used to
    /// normalise "average utility per target per time-slot" (§VI-B).
    /// Defaults to 1; composites such as
    /// [`SumUtility`](crate::SumUtility) override it with their part count.
    fn target_count(&self) -> usize {
        1
    }

    /// Marginal gain `U(S ∪ {v}) − U(S)` computed from scratch; prefer an
    /// [`Evaluator`] in hot loops.
    fn marginal_gain(&self, set: &SensorSet, v: SensorId) -> f64 {
        let mut with_v = set.clone();
        if !with_v.insert(v) {
            return 0.0;
        }
        self.eval(&with_v) - self.eval(set)
    }

    /// The **support set**: the sensors that can have a nonzero effect on
    /// the function's value. For every `v` outside the support and every
    /// set `S`, `U(S ∪ {v}) = U(S)` **exactly** (no tolerance) — the
    /// contract the sparse incidence index in
    /// [`SumUtility`](crate::SumUtility) is built on.
    ///
    /// The default is the full universe (always sound); concrete utilities
    /// override it with the minimal set (sensors with positive probability,
    /// weight, subregion value, or benefit).
    fn support(&self) -> SensorSet {
        SensorSet::full(self.universe())
    }

    /// Creates a fresh incremental evaluator positioned at `S = ∅`.
    fn evaluator(&self) -> Self::Evaluator;
}

/// Incremental evaluation state for one [`UtilityFunction`]: tracks a
/// current set `S` and answers marginal-gain/loss queries without
/// re-evaluating from scratch.
///
/// The greedy hill-climbing scheduler (Algorithm 1) performs `O(n²·T)`
/// marginal-gain queries naively; exact incremental state turns each query
/// from `O(eval)` into `O(1)`–`O(#touched-targets)`.
///
/// Implementations must agree exactly (up to floating-point roundoff) with
/// the owning function: after any sequence of `insert`/`remove`,
/// `value() == U(S)` and `gain(v) == U(S∪{v}) − U(S)`.
///
/// Evaluators are `Clone`: a clone is an independent evaluator in the same
/// state. [`into_slots`](Evaluator::into_slots) turns one into the state
/// of `T` time slots, which is how the lazy greedy starts its slots from
/// one build.
pub trait Evaluator: Clone {
    /// The state of `T` evaluators of this one's utility, one per time
    /// slot: [`PerSlot`] for every evaluator but
    /// [`SparseSumEvaluator`](crate::SparseSumEvaluator), whose
    /// [`SparseSumSlots`](crate::SparseSumSlots) answers a row from one
    /// walk.
    type Slots: SlotState<Evaluator = Self>;

    /// Current value `U(S)`.
    fn value(&self) -> f64;

    /// Marginal gain `U(S ∪ {v}) − U(S)`; `0` if `v ∈ S`.
    fn gain(&self, v: SensorId) -> f64;

    /// Marginal loss `U(S) − U(S \ {v})`; `0` if `v ∉ S`.
    ///
    /// Used by the `ρ ≤ 1` scheduler, which greedily allocates **passive**
    /// slots by minimum decremental utility (§IV-B).
    fn loss(&self, v: SensorId) -> f64;

    /// Adds `v` to `S`; returns the realised gain. No-op (returning `0`)
    /// if already present.
    fn insert(&mut self, v: SensorId) -> f64;

    /// Removes `v` from `S`; returns the realised loss. No-op (returning
    /// `0`) if absent.
    fn remove(&mut self, v: SensorId) -> f64;

    /// `true` if `v ∈ S`.
    fn contains(&self, v: SensorId) -> bool;

    /// The current set `S` (materialised).
    fn current_set(&self) -> SensorSet;

    /// The state of `slots` time slots, each starting from this
    /// evaluator's state, which the slot state takes over.
    fn into_slots(self, slots: usize) -> Self::Slots {
        Self::Slots::new(self, slots)
    }
}

/// `T` evaluators of one utility, one per time slot: the state the lazy
/// greedy queries a sensor's whole row of slot values from.
///
/// Slot `t` answers bitwise as a lone evaluator holding slot `t`'s set:
/// `out[t]` of [`gains_into`](SlotState::gains_into) is that evaluator's
/// `gain(v)`, and [`insert`](SlotState::insert) returns its realised gain.
pub trait SlotState: Sized {
    /// The evaluator each slot's state is that of.
    type Evaluator: Evaluator;

    /// `slots` slots, each in `start`'s state.
    fn new(start: Self::Evaluator, slots: usize) -> Self;

    /// The marginal gain of `v` in every slot: `out[t]` is bitwise slot
    /// `t`'s `gain(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold one value per slot.
    fn gains_into(&self, v: SensorId, out: &mut [f64]);

    /// The marginal loss of `v` in every slot: `out[t]` is bitwise slot
    /// `t`'s `loss(v)`.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not hold one value per slot.
    fn losses_into(&self, v: SensorId, out: &mut [f64]);

    /// Adds `v` to slot `slot`'s set; returns the realised gain, as
    /// [`Evaluator::insert`].
    fn insert(&mut self, slot: usize, v: SensorId) -> f64;

    /// Removes `v` from slot `slot`'s set; returns the realised loss, as
    /// [`Evaluator::remove`].
    fn remove(&mut self, slot: usize, v: SensorId) -> f64;
}

/// One evaluator per slot: the slot state of every evaluator without a
/// lane walk, which answers a row with one lone query per slot.
#[derive(Clone, Debug)]
pub struct PerSlot<E>(Vec<E>);

impl<E: Evaluator> SlotState for PerSlot<E> {
    type Evaluator = E;

    fn new(start: E, slots: usize) -> PerSlot<E> {
        PerSlot(vec![start; slots])
    }

    fn gains_into(&self, v: SensorId, out: &mut [f64]) {
        assert_eq!(out.len(), self.0.len(), "one output per slot");
        for (slot, o) in self.0.iter().zip(out) {
            *o = slot.gain(v);
        }
    }

    fn losses_into(&self, v: SensorId, out: &mut [f64]) {
        assert_eq!(out.len(), self.0.len(), "one output per slot");
        for (slot, o) in self.0.iter().zip(out) {
            *o = slot.loss(v);
        }
    }

    fn insert(&mut self, slot: usize, v: SensorId) -> f64 {
        self.0[slot].insert(v)
    }

    fn remove(&mut self, slot: usize, v: SensorId) -> f64 {
        self.0[slot].remove(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearUtility;

    #[test]
    fn default_marginal_gain_matches_eval_difference() {
        let u = LinearUtility::new(vec![1.0, 2.0, 3.0]);
        let s = SensorSet::from_indices(3, [0]);
        assert_eq!(u.marginal_gain(&s, SensorId(2)), 3.0);
        assert_eq!(u.marginal_gain(&s, SensorId(0)), 0.0, "already present");
    }

    #[test]
    fn max_value_is_full_set() {
        let u = LinearUtility::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(u.max_value(), 6.0);
    }
}
