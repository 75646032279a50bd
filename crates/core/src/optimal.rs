//! Exact optimal schedules for small instances.
//!
//! §VI-B compares the greedy against "the optimal solution […] obtained by
//! enumerating all possible scheduling". [`exhaustive_optimal`] is that
//! enumerator (`T^n` assignments); [`branch_and_bound`] prunes with a
//! submodularity-derived upper bound and returns the same schedule orders of
//! magnitude faster, extending the reachable instance sizes.

use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::SensorId;
use cool_utility::{Evaluator, UtilityFunction};

/// Enumerates every assignment of `n` sensors to `slots` slots and returns
/// a utility-maximising schedule (ties break toward the lexicographically
/// smallest assignment, which is also the first found).
///
/// Complexity `O(slots^n · cost(eval))` — intended for `n ≲ 10`.
///
/// # Panics
///
/// Panics if `slots == 0`.
///
/// # Examples
///
/// ```
/// use cool_core::optimal::exhaustive_optimal;
/// use cool_core::schedule::ScheduleMode;
/// use cool_utility::DetectionUtility;
///
/// let u = DetectionUtility::uniform(4, 0.4);
/// let opt = exhaustive_optimal(&u, 2, ScheduleMode::ActiveSlot);
/// // 4 identical sensors over 2 slots: optimum splits 2/2.
/// assert_eq!(opt.active_set(0).len(), 2);
/// ```
pub fn exhaustive_optimal<U: UtilityFunction>(
    utility: &U,
    slots: usize,
    mode: ScheduleMode,
) -> PeriodSchedule {
    assert!(slots > 0, "need at least one slot");
    let n = utility.universe();
    let mut assignment = vec![0usize; n];
    let mut best_assignment = vec![0usize; n];
    let mut best_value = f64::NEG_INFINITY;

    // Odometer enumeration.
    loop {
        let schedule = PeriodSchedule::new(mode, slots, assignment.clone());
        let value = schedule.period_utility(utility);
        if value > best_value + 1e-12 {
            best_value = value;
            best_assignment.copy_from_slice(&assignment);
        }
        // Increment.
        let mut i = 0;
        loop {
            if i == n {
                return PeriodSchedule::new(mode, slots, best_assignment);
            }
            assignment[i] += 1;
            if assignment[i] < slots {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Branch & bound over sensor-by-sensor assignment with a submodular upper
/// bound: after fixing a prefix, each remaining sensor's best possible
/// contribution is its maximum marginal gain *with respect to the current
/// prefix only* — an upper bound because gains only shrink as more sensors
/// are added. Returns a schedule with the same value as
/// [`exhaustive_optimal`] (possibly a different, equally-good assignment).
///
/// Only supports [`ScheduleMode::ActiveSlot`] (the `ρ > 1` case the paper
/// enumerates); passive-mode exact solving goes through
/// [`exhaustive_optimal`].
///
/// # Panics
///
/// Panics if `slots == 0`.
pub fn branch_and_bound<U: UtilityFunction>(utility: &U, slots: usize) -> PeriodSchedule {
    struct Search<'a, U: UtilityFunction> {
        evaluators: &'a mut Vec<U::Evaluator>,
        assignment: Vec<usize>,
        best_value: f64,
        best_assignment: Vec<usize>,
        slots: usize,
        n: usize,
    }

    impl<U: UtilityFunction> Search<'_, U> {
        fn recurse(&mut self, depth: usize, current_value: f64) {
            if depth == self.n {
                if current_value > self.best_value + 1e-12 {
                    self.best_value = current_value;
                    self.best_assignment.copy_from_slice(&self.assignment);
                }
                return;
            }
            // Upper bound: current value + Σ over remaining sensors of
            // their best single-slot gain w.r.t. the current prefix.
            let mut bound = current_value;
            for v in depth..self.n {
                let best_gain = (0..self.slots)
                    .map(|t| self.evaluators[t].gain(SensorId(v)))
                    .fold(0.0, f64::max);
                bound += best_gain;
            }
            if bound <= self.best_value + 1e-12 {
                return;
            }
            for t in 0..self.slots {
                let gain = self.evaluators[t].insert(SensorId(depth));
                self.assignment[depth] = t;
                self.recurse(depth + 1, current_value + gain);
                self.evaluators[t].remove(SensorId(depth));
            }
        }
    }

    assert!(slots > 0, "need at least one slot");
    let n = utility.universe();
    let mut evaluators: Vec<U::Evaluator> = (0..slots).map(|_| utility.evaluator()).collect();
    let assignment = vec![0usize; n];

    // Seed the incumbent with the greedy solution for strong initial pruning.
    // `slots > 0` was checked above, so only a non-finite utility can fail.
    let greedy =
        crate::greedy::greedy_active_lazy(utility, slots).unwrap_or_else(|e| panic!("{e}"));
    let best_value = greedy.period_utility(utility);
    let best_assignment = greedy.assignment().to_vec();

    let mut search = Search::<U> {
        evaluators: &mut evaluators,
        assignment,
        best_value,
        best_assignment,
        slots,
        n,
    };
    search.recurse(0, 0.0);
    PeriodSchedule::new(ScheduleMode::ActiveSlot, slots, search.best_assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::SeedSequence;
    use cool_utility::{DetectionUtility, LinearUtility, LogSumUtility};
    use proptest::prelude::*;

    #[test]
    fn exhaustive_splits_identical_sensors_evenly() {
        let u = DetectionUtility::uniform(4, 0.5);
        let opt = exhaustive_optimal(&u, 2, ScheduleMode::ActiveSlot);
        assert_eq!(opt.active_set(0).len(), 2);
        assert_eq!(opt.active_set(1).len(), 2);
        // Value: 2 slots × (1 − 0.25) = 1.5, beats 3/1 split (0.875 + 0.5).
        assert!((opt.period_utility(&u) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn exhaustive_passive_mode() {
        // ρ ≤ 1 with T = 2: passive slot assignment; 2 sensors. The optimum
        // staggers passive slots so one sensor is always on.
        let u = DetectionUtility::uniform(2, 0.9);
        let opt = exhaustive_optimal(&u, 2, ScheduleMode::PassiveSlot);
        assert_ne!(
            opt.assigned_slot(SensorId(0)),
            opt.assigned_slot(SensorId(1)),
            "staggered passive slots"
        );
    }

    #[test]
    fn subset_sum_hardness_gadget() {
        // §III: weights {3,1,2,2} (total 8) admit a perfect 4/4 split, so
        // the optimal two-slot log-sum utility hits 2·log(1 + 4).
        let u = LogSumUtility::from_integers(&[3, 1, 2, 2]);
        let opt = exhaustive_optimal(&u, 2, ScheduleMode::ActiveSlot);
        let expected = 2.0 * (1.0f64 + 4.0).ln();
        assert!((opt.period_utility(&u) - expected).abs() < 1e-12);
    }

    #[test]
    fn single_slot_puts_everyone_together() {
        let u = DetectionUtility::uniform(3, 0.4);
        let opt = exhaustive_optimal(&u, 1, ScheduleMode::ActiveSlot);
        assert_eq!(opt.active_set(0).len(), 3);
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_value() {
        let seq = SeedSequence::new(7);
        for trial in 0..15u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 2 + (trial as usize % 6);
            let m = 1 + (trial as usize % 3);
            let u = crate::instances::random_multi_target(n, m, 0.6, 0.5, &mut rng);
            let slots = 2 + (trial as usize % 3);
            let ex = exhaustive_optimal(&u, slots, ScheduleMode::ActiveSlot);
            let bb = branch_and_bound(&u, slots);
            assert!(
                (ex.period_utility(&u) - bb.period_utility(&u)).abs() < 1e-9,
                "trial {trial}: exhaustive {} vs B&B {}",
                ex.period_utility(&u),
                bb.period_utility(&u)
            );
        }
    }

    #[test]
    fn linear_utility_any_assignment_is_optimal() {
        let u = LinearUtility::new(vec![1.0, 2.0]);
        let opt = exhaustive_optimal(&u, 3, ScheduleMode::ActiveSlot);
        assert!((opt.period_utility(&u) - 3.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// B&B equals exhaustive on random instances (value).
        #[test]
        fn bb_equals_exhaustive(n in 1usize..6, slots in 1usize..4, seed in any::<u64>()) {
            let mut rng = SeedSequence::new(seed).nth_rng(0);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.4, &mut rng);
            let ex = exhaustive_optimal(&u, slots, ScheduleMode::ActiveSlot);
            let bb = branch_and_bound(&u, slots);
            prop_assert!((ex.period_utility(&u) - bb.period_utility(&u)).abs() < 1e-9);
        }
    }
}
