//! Warm-start schedule repair for mutating instances (cool-session).
//!
//! A deployed schedule rarely needs to be rebuilt from nothing: when a
//! delta touches only a few sensors, the rest of the assignment is still
//! the product of the same greedy order and can be kept verbatim. This
//! module re-greedies only the **dirty** sensors — those whose marginal
//! contribution may have changed — against per-slot evaluators warm-started
//! with every untouched sensor pinned to its previous slot, visiting
//! `O(|dirty| · T)` cells per greedy step instead of `O(n · T)`. Each step
//! answers a dirty sensor's `T` cells with one lane-batched query
//! ([`Evaluator::gains_into`] / [`Evaluator::losses_into`]), bitwise the
//! `T` single-slot queries.
//!
//! When the dirty fraction exceeds [`RepairConfig::full_threshold`] (or the
//! previous schedule is structurally incompatible with the new instance —
//! different mode, period length, or universe), repair falls back to a
//! from-scratch solve with the CELF greedy
//! ([`greedy_active_lazy`](crate::greedy::greedy_active_lazy) /
//! [`greedy_passive_lazy`](crate::greedy::greedy_passive_lazy)), so the
//! result is bit-for-bit what a cold solve, lazy or naive, would produce.
//! An **empty** dirty set on a compatible instance returns the previous
//! schedule unchanged, also bit-for-bit.
//!
//! The greedy step shares the tie-breaking total order of
//! [`crate::greedy`] (larger gain / smaller loss, then lower sensor, then
//! lower slot), so a full-dirty incremental repair and a scratch solve
//! agree exactly; partial repairs keep the ½-approximation guarantee
//! empirically (enforced by cool-check relation `COOL-E027`).

use crate::errors::ScheduleBuildError;
use crate::greedy::{check_finite, greedy_lazy_walks, max_by_gain, min_by_loss};
use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::{SensorId, SensorSet};
use cool_energy::ChargeCycle;
use cool_utility::{Evaluator, UtilityFunction};

/// Tuning knobs for [`repair_schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairConfig {
    /// Dirty-sensor fraction above which repair abandons the warm start
    /// and re-solves from scratch. `0.0` forces a full solve on any
    /// non-empty delta; `1.0` never falls back on size alone.
    pub full_threshold: f64,
}

impl RepairConfig {
    /// Default fallback threshold: re-solve when more than a quarter of
    /// the fleet is dirty. It was chosen against the naive re-solve. The
    /// warm start costs `T · d(d+1)/2` cells for `d` dirty sensors, the
    /// CELF re-solve about `n · T`, so the warm start is already the
    /// slower path from ≈ 17–25 % dirty at n = 400 and ≈ 7–15 % at
    /// n = 2000 (EXPERIMENTS.md, "Incremental repair against the CELF
    /// re-solve"); the default stands until it is re-derived.
    pub const DEFAULT_FULL_THRESHOLD: f64 = 0.25;
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            full_threshold: Self::DEFAULT_FULL_THRESHOLD,
        }
    }
}

/// Which path [`repair_schedule`] actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Warm start: untouched sensors kept their slots, only dirty
    /// sensors were re-greedied.
    Incremental,
    /// Fallback: the instance was re-solved from scratch with the CELF
    /// greedy (bit-for-bit identical to a cold solve, lazy or naive).
    Full,
}

impl RepairMode {
    /// Stable label for metrics and logs.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RepairMode::Incremental => "incremental",
            RepairMode::Full => "full",
        }
    }
}

/// Result of a repair: the schedule plus the decision telemetry the
/// session layer exports on `/metrics`.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired per-period schedule.
    pub schedule: PeriodSchedule,
    /// Which path produced it.
    pub mode: RepairMode,
    /// Marginal-utility queries performed ((sensor, slot) cells visited).
    /// For [`RepairMode::Full`] this is `T` times the row walks the CELF
    /// re-solve made: at least `n · T` (one walk per sensor), and at most
    /// the naive greedy's `T · n(n+1)/2`.
    pub cells_touched: u64,
    /// Size of the dirty set the caller passed in.
    pub dirty_sensors: usize,
}

/// Repairs `previous` after a mutation whose affected sensors are
/// `dirty`, against the **post-mutation** `utility` and `cycle`.
///
/// Contract (checked by cool-check relation `session-repair-equal`,
/// `COOL-E027`):
///
/// * empty `dirty` on a compatible instance → `previous` returned
///   bit-for-bit, zero cells touched;
/// * incompatible instance or dirty fraction above
///   [`RepairConfig::full_threshold`] → from-scratch CELF greedy
///   ([`RepairMode::Full`]), bit-for-bit equal to a cold solve;
/// * otherwise → warm-start incremental repair, always feasible, value
///   within the greedy approximation bound of a cold solve.
///
/// # Errors
///
/// Returns [`ScheduleBuildError::EmptySlotCount`] (`COOL-E002`) when the
/// cycle has zero slots per period, and
/// [`ScheduleBuildError::NonFiniteGain`] (`COOL-E015`) when the utility
/// produces a NaN or infinite marginal value.
pub fn repair_schedule<U: UtilityFunction>(
    utility: &U,
    cycle: ChargeCycle,
    previous: &PeriodSchedule,
    dirty: &SensorSet,
    config: &RepairConfig,
) -> Result<RepairOutcome, ScheduleBuildError> {
    let slots = cycle.slots_per_period();
    if slots == 0 {
        return Err(ScheduleBuildError::EmptySlotCount);
    }
    let n = utility.universe();
    let mode = if cycle.rho() > 1.0 {
        ScheduleMode::ActiveSlot
    } else {
        ScheduleMode::PassiveSlot
    };
    let compatible = previous.mode() == mode
        && previous.slots_per_period() == slots
        && previous.n_sensors() == n
        && dirty.universe() == n
        && previous.assignment().iter().all(|&t| t < slots);

    if compatible && dirty.is_empty() {
        return Ok(RepairOutcome {
            schedule: previous.clone(),
            mode: RepairMode::Incremental,
            cells_touched: 0,
            dirty_sensors: 0,
        });
    }

    let dirty_fraction = if n == 0 {
        0.0
    } else {
        dirty.len() as f64 / n as f64
    };
    if !compatible || dirty_fraction > config.full_threshold {
        let (schedule, walks) = greedy_lazy_walks(utility, slots, mode)?;
        return Ok(RepairOutcome {
            schedule,
            mode: RepairMode::Full,
            cells_touched: walks * slots as u64,
            dirty_sensors: dirty.len(),
        });
    }

    let (schedule, cells_touched) = match mode {
        ScheduleMode::ActiveSlot => repair_active(utility, slots, previous, dirty)?,
        ScheduleMode::PassiveSlot => repair_passive(utility, slots, previous, dirty)?,
    };
    Ok(RepairOutcome {
        schedule,
        mode: RepairMode::Incremental,
        cells_touched,
        dirty_sensors: dirty.len(),
    })
}

/// ρ > 1 warm start: pin every clean sensor to its previous active slot,
/// then run the naive max-gain loop over the dirty sensors only.
fn repair_active<U: UtilityFunction>(
    utility: &U,
    slots: usize,
    previous: &PeriodSchedule,
    dirty: &SensorSet,
) -> Result<(PeriodSchedule, u64), ScheduleBuildError> {
    let n = utility.universe();
    let mut evaluators: Vec<U::Evaluator> = (0..slots).map(|_| utility.evaluator()).collect();
    let mut assignment = vec![usize::MAX; n];
    let mut unassigned: Vec<usize> = Vec::with_capacity(dirty.len());
    for (v, slot) in assignment.iter_mut().enumerate() {
        if dirty.contains(SensorId(v)) {
            unassigned.push(v);
        } else {
            let t = previous.assignment()[v];
            evaluators[t].insert(SensorId(v));
            *slot = t;
        }
    }

    let mut cells = 0u64;
    let mut row = vec![0.0f64; slots];
    for _step in 0..unassigned.len() {
        let mut best: Option<(f64, usize, usize)> = None; // (gain, sensor, slot)
        for &v in &unassigned {
            // One walk answers every slot of the dirty sensor.
            U::Evaluator::gains_into(&evaluators, SensorId(v), &mut row);
            cells += slots as u64;
            check_finite(v, &row)?;
            for (t, &gain) in row.iter().enumerate() {
                let candidate = (gain, v, t);
                best = Some(match best {
                    None => candidate,
                    Some(current) => max_by_gain(current, candidate),
                });
            }
        }
        let Some((gain, v, t)) = best else {
            break;
        };
        cool_common::invariant!(
            gain >= -1e-9,
            "negative marginal gain {gain} for sensor {v} in slot {t}"
        );
        evaluators[t].insert(SensorId(v));
        assignment[v] = t;
        unassigned.retain(|&u| u != v);
    }
    Ok((
        PeriodSchedule::new(ScheduleMode::ActiveSlot, slots, assignment),
        cells,
    ))
}

/// ρ ≤ 1 warm start: everyone active everywhere, clean sensors rest in
/// their previous passive slot, then the naive min-loss loop allocates
/// the dirty sensors' passive slots.
fn repair_passive<U: UtilityFunction>(
    utility: &U,
    slots: usize,
    previous: &PeriodSchedule,
    dirty: &SensorSet,
) -> Result<(PeriodSchedule, u64), ScheduleBuildError> {
    let n = utility.universe();
    let mut evaluators: Vec<U::Evaluator> = (0..slots)
        .map(|_| {
            let mut e = utility.evaluator();
            for v in 0..n {
                e.insert(SensorId(v));
            }
            e
        })
        .collect();
    let mut assignment = vec![usize::MAX; n];
    let mut unassigned: Vec<usize> = Vec::with_capacity(dirty.len());
    for (v, slot) in assignment.iter_mut().enumerate() {
        if dirty.contains(SensorId(v)) {
            unassigned.push(v);
        } else {
            let t = previous.assignment()[v];
            evaluators[t].remove(SensorId(v));
            *slot = t;
        }
    }

    let mut cells = 0u64;
    let mut row = vec![0.0f64; slots];
    for _step in 0..unassigned.len() {
        let mut best: Option<(f64, usize, usize)> = None; // (loss, sensor, slot)
        for &v in &unassigned {
            // One walk answers every slot of the dirty sensor.
            U::Evaluator::losses_into(&evaluators, SensorId(v), &mut row);
            cells += slots as u64;
            check_finite(v, &row)?;
            for (t, &loss) in row.iter().enumerate() {
                let candidate = (loss, v, t);
                best = Some(match best {
                    None => candidate,
                    Some(current) => min_by_loss(current, candidate),
                });
            }
        }
        let Some((loss, v, t)) = best else {
            break;
        };
        cool_common::invariant!(
            loss >= -1e-9,
            "negative marginal loss {loss} for sensor {v} in slot {t}"
        );
        evaluators[t].remove(SensorId(v));
        assignment[v] = t;
        unassigned.retain(|&u| u != v);
    }
    Ok((
        PeriodSchedule::new(ScheduleMode::PassiveSlot, slots, assignment),
        cells,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_schedule;
    use crate::problem::Problem;
    use cool_utility::{DetectionUtility, SumUtility};

    fn active_cycle() -> ChargeCycle {
        ChargeCycle::from_rho(3.0, 15.0).unwrap() // ρ = 3, T = 4
    }

    fn passive_cycle() -> ChargeCycle {
        ChargeCycle::from_minutes(45.0, 15.0).unwrap() // ρ = 1/3, T = 4
    }

    fn multi_target(n: usize) -> SumUtility {
        let targets: Vec<SensorSet> = (0..3)
            .map(|k| SensorSet::from_indices(n, (0..n).filter(|v| v % 3 == k)))
            .collect();
        SumUtility::multi_target_detection(&targets, 0.5)
    }

    #[test]
    fn empty_dirty_returns_previous_bit_for_bit() {
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(9);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let previous = greedy_schedule(&problem);
            let outcome = repair_schedule(
                &utility,
                cycle,
                &previous,
                &SensorSet::new(9),
                &RepairConfig::default(),
            )
            .unwrap();
            assert_eq!(outcome.mode, RepairMode::Incremental);
            assert_eq!(outcome.cells_touched, 0);
            assert_eq!(outcome.schedule.assignment(), previous.assignment());
            assert_eq!(outcome.schedule.mode(), previous.mode());
        }
    }

    #[test]
    fn all_dirty_full_fallback_equals_scratch() {
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(9);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let previous = greedy_schedule(&problem);
            let outcome = repair_schedule(
                &utility,
                cycle,
                &previous,
                &SensorSet::full(9),
                &RepairConfig::default(),
            )
            .unwrap();
            assert_eq!(outcome.mode, RepairMode::Full);
            assert_eq!(outcome.schedule.assignment(), previous.assignment());
        }
    }

    #[test]
    fn full_dirty_incremental_equals_scratch() {
        // With every sensor dirty and the threshold disabled, the warm
        // start degenerates to the naive greedy and must agree exactly.
        let config = RepairConfig {
            full_threshold: 1.0,
        };
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(9);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let scratch = greedy_schedule(&problem);
            let stale = PeriodSchedule::new(scratch.mode(), scratch.slots_per_period(), vec![0; 9]);
            let outcome =
                repair_schedule(&utility, cycle, &stale, &SensorSet::full(9), &config).unwrap();
            assert_eq!(outcome.mode, RepairMode::Incremental);
            assert_eq!(outcome.schedule.assignment(), scratch.assignment());
            assert!(outcome.cells_touched > 0);
        }
    }

    #[test]
    fn incremental_repair_is_feasible_and_near_scratch() {
        for cycle in [active_cycle(), passive_cycle()] {
            let utility = multi_target(12);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let previous = greedy_schedule(&problem);
            let dirty = SensorSet::from_indices(12, [4, 7]);
            let outcome = repair_schedule(
                &utility,
                cycle,
                &previous,
                &dirty,
                &RepairConfig {
                    full_threshold: 0.5,
                },
            )
            .unwrap();
            assert_eq!(outcome.mode, RepairMode::Incremental);
            assert!(outcome.schedule.is_feasible(cycle));
            let repaired = outcome.schedule.period_utility(&utility);
            let scratch = previous.period_utility(&utility);
            assert!(
                repaired >= 0.5 * scratch - 1e-9,
                "repaired {repaired} below half of scratch {scratch}"
            );
        }
    }

    #[test]
    fn threshold_forces_full_resolve() {
        let cycle = active_cycle();
        let utility = multi_target(8);
        let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
        let previous = greedy_schedule(&problem);
        let dirty = SensorSet::from_indices(8, [0, 1, 2, 3]); // 50% dirty
        let outcome = repair_schedule(
            &utility,
            cycle,
            &previous,
            &dirty,
            &RepairConfig {
                full_threshold: 0.25,
            },
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Full);
        assert_eq!(outcome.schedule.assignment(), previous.assignment());
        // T × the CELF re-solve's row walks (8 initial, 1 per stale pop):
        // between one walk per sensor, n·T, and the naive greedy's
        // T·n(n+1)/2.
        let (n, t) = (8, 4);
        assert!(
            (n * t..=t * n * (n + 1) / 2).contains(&outcome.cells_touched),
            "{}",
            outcome.cells_touched
        );
        assert_eq!(outcome.cells_touched, 60);
    }

    #[test]
    fn incompatible_previous_forces_full_resolve() {
        let cycle = active_cycle();
        let utility = multi_target(6);
        // Previous schedule from a different universe size.
        let stale = PeriodSchedule::new(ScheduleMode::ActiveSlot, 4, vec![0; 5]);
        let outcome = repair_schedule(
            &utility,
            cycle,
            &stale,
            &SensorSet::new(6),
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.mode, RepairMode::Full);
        let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
        assert_eq!(
            outcome.schedule.assignment(),
            greedy_schedule(&problem).assignment()
        );
    }

    #[test]
    fn detection_single_target_repair_matches_scratch_value() {
        let cycle = active_cycle();
        let utility = DetectionUtility::uniform(10, 0.4);
        let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
        let previous = greedy_schedule(&problem);
        let dirty = SensorSet::from_indices(10, [9]);
        let outcome =
            repair_schedule(&utility, cycle, &previous, &dirty, &RepairConfig::default()).unwrap();
        assert_eq!(outcome.mode, RepairMode::Incremental);
        assert!(outcome.schedule.is_feasible(cycle));
        // Uniform instance: re-placing one sensor greedily cannot lose
        // value relative to the previous schedule.
        assert!(
            outcome.schedule.period_utility(&utility) >= previous.period_utility(&utility) - 1e-9
        );
    }
}
