//! Warm-start schedule repair for mutating instances (cool-session).
//!
//! A deployed schedule rarely needs to be rebuilt from nothing: when a
//! delta touches only a few sensors, the rest of the assignment is still
//! the product of the same greedy order and can be kept verbatim. This
//! module re-greedies only the **dirty** sensors — those whose marginal
//! contribution may have changed — with the CELF greedy of
//! [`crate::greedy`], started from a slot state that holds every
//! untouched sensor pinned to its previous slot. The heap makes one row
//! walk ([`SlotState::gains_into`](cool_utility::SlotState::gains_into) /
//! [`losses_into`](cool_utility::SlotState::losses_into), `T` cells) per
//! dirty sensor plus one per stale pop, where the naive loop from the
//! same start rescans every remaining dirty sensor at every step
//! (`T · d(d+1)/2` cells for `d` dirty sensors). Submodularity makes a
//! recorded value a bound from any start, so both loops place the same
//! pairs.
//!
//! When the dirty fraction exceeds [`RepairConfig::full_threshold`] (or the
//! previous schedule is structurally incompatible with the new instance —
//! different mode, period length, or universe), repair falls back to a
//! from-scratch solve with the same CELF loop from a cold start, so the
//! result is bit-for-bit what a cold solve, lazy or naive, would produce.
//! An **empty** dirty set on a compatible instance returns the previous
//! schedule unchanged, also bit-for-bit.
//!
//! Both paths share the tie-breaking total order of [`crate::greedy`]
//! (larger gain / smaller loss, then lower sensor, then lower slot), so a
//! full-dirty incremental repair and a scratch solve agree exactly;
//! partial repairs keep the ½-approximation guarantee empirically
//! (enforced by cool-check relation `COOL-E027`).

use crate::errors::ScheduleBuildError;
use crate::greedy::lazy_rows;
use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::SensorSet;
use cool_energy::ChargeCycle;
use cool_utility::UtilityFunction;

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
    /// the fleet is dirty. With both paths on the CELF loop, the warm start
    /// is the cheaper one at every share up to this one (2–4× at 25 % on
    /// n = 2000 / m = 20 000, EXPERIMENTS.md "One CELF loop builds every
    /// schedule"), so the threshold is a quality policy: a delta that
    /// unsettles more than a quarter of the fleet gets the cold greedy's
    /// schedule rather than a patched one.
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
    /// Marginal-utility queries performed ((sensor, slot) cells visited):
    /// `T` times the row walks the CELF loop made, one per sensor it placed
    /// (the `d` dirty ones, or all `n` for [`RepairMode::Full`]) plus one
    /// per stale pop. For `k` placed sensors that is at least `k · T` and
    /// at most the naive loop's `T · k(k+1)/2`.
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
    let full = !compatible || dirty_fraction > config.full_threshold;
    let assignment = if full {
        vec![usize::MAX; n]
    } else {
        // Pin every clean sensor to its previous slot; the dirty ones are
        // placed again.
        let mut pinned = previous.assignment().to_vec();
        for v in dirty {
            pinned[v.index()] = usize::MAX;
        }
        pinned
    };
    let (schedule, walks) = lazy_rows(utility, slots, mode, assignment)?;
    Ok(RepairOutcome {
        schedule,
        mode: if full {
            RepairMode::Full
        } else {
            RepairMode::Incremental
        },
        cells_touched: walks * slots as u64,
        dirty_sensors: dirty.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_schedule, naive_rows};
    use crate::problem::Problem;
    use cool_common::{SeedSequence, SensorId};
    use cool_geometry::Rect;
    use cool_utility::{DetectionUtility, LinearUtility, LogSumUtility, SumUtility};
    use proptest::prelude::*;
    use rand::Rng;

    /// The oracle of the incremental path: the naive loop from the same
    /// warm start (clean sensors pinned to their `previous` slots), with
    /// the start derived here rather than by the code under test.
    fn naive_repair<U: UtilityFunction>(
        utility: &U,
        cycle: ChargeCycle,
        previous: &PeriodSchedule,
        dirty: &SensorSet,
    ) -> Result<PeriodSchedule, ScheduleBuildError> {
        let mode = if cycle.rho() > 1.0 {
            ScheduleMode::ActiveSlot
        } else {
            ScheduleMode::PassiveSlot
        };
        let start = (0..previous.n_sensors())
            .map(|v| {
                if dirty.contains(SensorId(v)) {
                    usize::MAX
                } else {
                    previous.assignment()[v]
                }
            })
            .collect();
        naive_rows(utility, cycle.slots_per_period(), mode, start)
    }

    /// `ρ = ratio` (sunny, active slots) or `ρ = 1/ratio` (rainy, passive
    /// slots): `T = ratio + 1`.
    fn weather(sunny: bool, ratio: usize) -> ChargeCycle {
        let (d, r) = (15.0, 15.0 * ratio as f64);
        if sunny {
            ChargeCycle::from_minutes(d, r).unwrap()
        } else {
            ChargeCycle::from_minutes(r, d).unwrap()
        }
    }

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

    #[test]
    fn warm_start_errs_with_the_naive_warm_start_on_non_finite_values() {
        // The non-finite fixtures of the greedy's
        // `lazy_errs_with_the_naive_oracle_on_non_finite_values`, repaired
        // from every previous schedule of their three sensors and every
        // non-empty dirty set: the CELF warm start returns what the naive
        // warm start returns, the same error or the same schedule. As
        // there, the log-sum runs only in the active dual: the passive
        // start holds every sensor in every slot, which overflows it.
        let inf_at_start = SumUtility::new(vec![
            LinearUtility::new(vec![f64::MAX, 1.0, 0.0]).into(),
            LinearUtility::new(vec![f64::MAX, 0.0, 1.0]).into(),
        ]);
        let inf_after_a_step =
            SumUtility::new(vec![
                LogSumUtility::new(vec![f64::MAX, f64::MAX, 1.0]).into()
            ]);
        let config = RepairConfig {
            full_threshold: 1.0,
        };
        let mut errors = 0;
        for (sunny, ratio) in [(true, 3), (true, 4), (false, 1), (false, 3)] {
            let cycle = weather(sunny, ratio);
            let slots = cycle.slots_per_period();
            let (mode, fixtures) = if sunny {
                let both = vec![
                    ("inf at start", &inf_at_start),
                    ("inf after a step", &inf_after_a_step),
                ];
                (ScheduleMode::ActiveSlot, both)
            } else {
                (
                    ScheduleMode::PassiveSlot,
                    vec![("inf at start", &inf_at_start)],
                )
            };
            for (label, u) in fixtures {
                for code in 0..slots.pow(3) {
                    let slots_of = vec![code % slots, code / slots % slots, code / slots / slots];
                    let previous = PeriodSchedule::new(mode, slots, slots_of);
                    for mask in 1..8usize {
                        let dirty =
                            SensorSet::from_indices(3, (0..3).filter(|v| mask >> v & 1 == 1));
                        let naive = naive_repair(u, cycle, &previous, &dirty);
                        let celf = repair_schedule(u, cycle, &previous, &dirty, &config);
                        let what = format!("{label}, {cycle:?}, {previous:?}, dirty {dirty:?}");
                        match (naive, celf) {
                            (Err(naive), Err(celf)) => {
                                // Debug form, since a NaN value is unequal to itself.
                                assert_eq!(format!("{celf:?}"), format!("{naive:?}"), "{what}");
                                errors += 1;
                            }
                            (Ok(naive), Ok(celf)) => {
                                assert_eq!(celf.mode, RepairMode::Incremental, "{what}");
                                assert_eq!(
                                    celf.schedule.assignment(),
                                    naive.assignment(),
                                    "{what}"
                                );
                            }
                            (naive, celf) => panic!("{what}: naive {naive:?}, CELF {celf:?}"),
                        }
                    }
                }
            }
        }
        assert!(errors > 0, "no fixture erred");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// An incremental repair of an arbitrary previous schedule (random
        /// slots, not a greedy's) with a random dirty set equals the naive
        /// warm start, in both weathers and for T = 2..=9, and reports `T`
        /// cells per row walk: between one walk per dirty sensor and the
        /// naive loop's `d(d+1)/2`.
        #[test]
        fn incremental_repair_equals_the_naive_warm_start(
            n in 1usize..14,
            ratio in 1usize..9,
            sunny in any::<bool>(),
            dirty_share in 1usize..=4,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(6);
            let utility = crate::instances::random_multi_target(n, 3, 0.5, 0.4, &mut rng);
            let cycle = weather(sunny, ratio);
            let slots = cycle.slots_per_period();
            let mode = if cycle.rho() > 1.0 {
                ScheduleMode::ActiveSlot
            } else {
                ScheduleMode::PassiveSlot
            };
            let previous = PeriodSchedule::new(
                mode,
                slots,
                (0..n).map(|_| rng.random_range(0..slots)).collect(),
            );
            let dirty = SensorSet::from_indices(
                n,
                (0..n).filter(|_| rng.random_range(0..4usize) < dirty_share),
            );
            let config = RepairConfig {
                full_threshold: 1.0,
            };
            let outcome = repair_schedule(&utility, cycle, &previous, &dirty, &config).unwrap();
            let naive = naive_repair(&utility, cycle, &previous, &dirty).unwrap();
            prop_assert_eq!(outcome.mode, RepairMode::Incremental);
            prop_assert_eq!(outcome.schedule.assignment(), naive.assignment());
            prop_assert_eq!(outcome.schedule.mode(), mode);
            prop_assert!(outcome.schedule.is_feasible(cycle));
            let (d, t) = (dirty.len() as u64, slots as u64);
            prop_assert_eq!(outcome.dirty_sensors, dirty.len());
            prop_assert!(
                (d * t..=t * d * (d + 1) / 2).contains(&outcome.cells_touched),
                "{} cells for {} dirty sensors over T = {}", outcome.cells_touched, d, t
            );
        }
    }

    /// The CELF warm start equals the naive one at `run-large` scale: the
    /// geometric instance of n = 2000 sensors and m = 20 000 targets
    /// (region 2000, radius 100, p = 0.4), in both weathers, with 5 % and
    /// 25 % of the sensors dirty. `#[ignore]`d because the naive warm start
    /// rescans every remaining dirty sensor per step; run it in release,
    /// with the CELF invariant ("no key rises") as a hard assert:
    ///
    /// ```sh
    /// cargo test -p cool-core --release --features cool-common/hard-invariants \
    ///     --lib -- --ignored warm_start_equals_naive_at_run_large_scale
    /// ```
    #[test]
    #[ignore = "runs the naive warm start at run-large scale; run explicitly in release"]
    fn warm_start_equals_naive_at_run_large_scale() {
        let n = 2000;
        let mut rng = SeedSequence::new(1).nth_rng(0);
        let (utility, _, _) = crate::instances::geometric_multi_target(
            Rect::square(2000.0),
            n,
            20_000,
            100.0,
            0.4,
            &mut rng,
        );
        for sunny in [true, false] {
            let cycle = weather(sunny, 3);
            let problem = Problem::new(utility.clone(), cycle, 1).unwrap();
            let previous = crate::greedy::greedy_schedule_lazy(&problem);
            for dirty_count in [n / 20, n / 4] {
                let mut dirty = SensorSet::new(n);
                while dirty.len() < dirty_count {
                    dirty.insert(SensorId(rng.random_range(0..n)));
                }
                let outcome =
                    repair_schedule(&utility, cycle, &previous, &dirty, &RepairConfig::default())
                        .unwrap();
                assert_eq!(outcome.mode, RepairMode::Incremental);
                let naive = naive_repair(&utility, cycle, &previous, &dirty).unwrap();
                assert_eq!(
                    outcome.schedule.assignment(),
                    naive.assignment(),
                    "sunny = {sunny}, {dirty_count} dirty: CELF and naive warm starts disagree"
                );
            }
        }
    }
}
