//! Local-search post-optimisation of period schedules.
//!
//! The greedy's ½-guarantee is a floor; on most instances it already lands
//! on the optimum (see `repro approx`). For the residue, a classic
//! 1-exchange local search — repeatedly move a single sensor to the slot
//! where it is worth most — can only improve the schedule and converges to
//! a local optimum where *no single reassignment helps*. For submodular
//! utilities such exchange-stable solutions are themselves
//! ½-approximate, so the combination keeps the guarantee while closing
//! empirical gaps.
//!
//! Each exchange probes every slot with gain/loss queries against the
//! per-slot evaluators from [`UtilityFunction::evaluator`] — O(deg(v))
//! incident parts per query for a multi-target
//! [`SumUtility`](cool_utility::SumUtility) thanks to its sparse
//! incidence index.

use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::SensorId;
use cool_utility::{Evaluator, UtilityFunction};

/// Result of a local-search pass.
#[derive(Clone, Debug)]
pub struct LocalSearchOutcome {
    /// The improved (or unchanged) schedule.
    pub schedule: PeriodSchedule,
    /// Utility before local search.
    pub initial_value: f64,
    /// Utility after convergence.
    pub final_value: f64,
    /// Number of single-sensor moves applied.
    pub moves: usize,
    /// Full sweeps over all sensors until no move helped.
    pub sweeps: usize,
}

impl LocalSearchOutcome {
    /// Relative improvement over the input schedule (`0.0` when the input
    /// was already exchange-stable).
    pub fn improvement(&self) -> f64 {
        if self.initial_value <= 0.0 {
            0.0
        } else {
            self.final_value / self.initial_value - 1.0
        }
    }
}

/// Improves an active-slot schedule by single-sensor exchange moves until
/// no move increases the period utility (or `max_sweeps` full sweeps have
/// run). Deterministic: sensors are scanned in index order, destination
/// ties break toward the lower slot.
///
/// # Panics
///
/// Panics if the schedule's mode is not
/// [`ScheduleMode::ActiveSlot`] or universes mismatch.
///
/// # Examples
///
/// ```
/// use cool_core::greedy::greedy_active_lazy;
/// use cool_core::local_search::improve_schedule;
/// use cool_utility::DetectionUtility;
///
/// let u = DetectionUtility::uniform(9, 0.4);
/// let greedy = greedy_active_lazy(&u, 3).unwrap();
/// let improved = improve_schedule(greedy, &u, 8);
/// assert!(improved.final_value + 1e-12 >= improved.initial_value);
/// ```
// The schedule is taken by value deliberately: local search is the next
// pipeline stage after a scheduler, which hands its result over entirely.
#[allow(clippy::needless_pass_by_value)]
pub fn improve_schedule<U: UtilityFunction>(
    schedule: PeriodSchedule,
    utility: &U,
    max_sweeps: usize,
) -> LocalSearchOutcome {
    assert_eq!(
        schedule.mode(),
        ScheduleMode::ActiveSlot,
        "local search operates on active-slot schedules"
    );
    assert_eq!(
        utility.universe(),
        schedule.n_sensors(),
        "utility universe mismatch"
    );
    let n = schedule.n_sensors();
    let slots = schedule.slots_per_period();
    let initial_value = schedule.period_utility(utility);

    // Mutable state: per-slot evaluators loaded with the current sets.
    let mut assignment = schedule.assignment().to_vec();
    let mut evaluators: Vec<U::Evaluator> = (0..slots).map(|_| utility.evaluator()).collect();
    for (v, &t) in assignment.iter().enumerate() {
        evaluators[t].insert(SensorId(v));
    }

    let mut moves = 0usize;
    let mut sweeps = 0usize;
    while sweeps < max_sweeps {
        sweeps += 1;
        let mut improved = false;
        #[allow(clippy::needless_range_loop)] // `assignment[v]` is also written below
        for v in 0..n {
            let from = assignment[v];
            let loss = evaluators[from].loss(SensorId(v));
            // Best destination gain, evaluated with v removed from `from`.
            evaluators[from].remove(SensorId(v));
            let mut best = (0.0f64, from); // (net improvement, slot)
            for (t, evaluator) in evaluators.iter().enumerate() {
                if t == from {
                    continue;
                }
                let net = evaluator.gain(SensorId(v)) - loss;
                if net > best.0 + 1e-12 {
                    best = (net, t);
                }
            }
            let destination = best.1;
            evaluators[destination].insert(SensorId(v));
            if destination != from {
                assignment[v] = destination;
                moves += 1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }

    let schedule = PeriodSchedule::new(ScheduleMode::ActiveSlot, slots, assignment);
    let final_value = schedule.period_utility(utility);
    LocalSearchOutcome {
        schedule,
        initial_value,
        final_value,
        moves,
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_active_naive;
    use crate::optimal::exhaustive_optimal;
    use cool_common::SeedSequence;
    use cool_utility::DetectionUtility;
    use proptest::prelude::*;

    #[test]
    fn never_degrades() {
        let mut rng = SeedSequence::new(314).nth_rng(0);
        for trial in 0..20u64 {
            let n = 3 + (trial as usize % 8);
            let u = crate::instances::random_multi_target(n, 2, 0.6, 0.4, &mut rng);
            let greedy = greedy_active_naive(&u, 4).unwrap();
            let out = improve_schedule(greedy, &u, 16);
            assert!(
                out.final_value + 1e-12 >= out.initial_value,
                "trial {trial}"
            );
            assert!(out
                .schedule
                .is_feasible(cool_energy::ChargeCycle::paper_sunny()));
        }
    }

    #[test]
    fn repairs_a_bad_schedule_to_optimal() {
        // Start from the worst case: everyone in slot 0 of a symmetric
        // instance — local search must fan them out to the balanced optimum.
        let u = DetectionUtility::uniform(8, 0.4);
        let awful = PeriodSchedule::new(ScheduleMode::ActiveSlot, 4, vec![0; 8]);
        let out = improve_schedule(awful, &u, 32);
        let opt = exhaustive_optimal(&u, 4, ScheduleMode::ActiveSlot).period_utility(&u);
        assert!(
            (out.final_value - opt).abs() < 1e-9,
            "local search reached {} vs optimal {opt}",
            out.final_value
        );
        assert!(out.moves >= 6, "most sensors had to move");
        assert!(out.improvement() > 1.0, "more than doubled the awful start");
    }

    #[test]
    fn greedy_output_is_often_already_stable() {
        let u = DetectionUtility::uniform(12, 0.4);
        let greedy = greedy_active_naive(&u, 4).unwrap();
        let out = improve_schedule(greedy, &u, 8);
        assert_eq!(out.moves, 0, "balanced greedy is exchange-stable");
        assert_eq!(out.sweeps, 1);
        assert_eq!(out.improvement(), 0.0);
    }

    #[test]
    #[should_panic(expected = "active-slot")]
    fn passive_mode_panics() {
        let u = DetectionUtility::uniform(2, 0.4);
        let s = PeriodSchedule::new(ScheduleMode::PassiveSlot, 2, vec![0, 1]);
        let _ = improve_schedule(s, &u, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Exchange-stability: after convergence no single move helps
        /// (verified from scratch), and the value never drops.
        #[test]
        fn converges_to_exchange_stable(n in 2usize..7, slots in 2usize..4, seed in any::<u64>()) {
            let mut rng = SeedSequence::new(seed).nth_rng(0);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.4, &mut rng);
            let greedy = greedy_active_naive(&u, slots).unwrap();
            let out = improve_schedule(greedy, &u, 64);
            prop_assert!(out.final_value + 1e-12 >= out.initial_value);

            // No single reassignment improves the final schedule.
            let base = out.schedule.period_utility(&u);
            for v in 0..n {
                let from = out.schedule.assigned_slot(cool_common::SensorId(v)).index();
                for t in 0..slots {
                    if t == from { continue; }
                    let mut assignment = out.schedule.assignment().to_vec();
                    assignment[v] = t;
                    let moved = PeriodSchedule::new(ScheduleMode::ActiveSlot, slots, assignment);
                    prop_assert!(
                        moved.period_utility(&u) <= base + 1e-9,
                        "move v{} {}→{} improves a 'stable' schedule", v, from, t
                    );
                }
            }
        }
    }
}
