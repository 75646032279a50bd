//! The scheduling problem instance (§II-D).

use crate::schedule::PeriodSchedule;
use cool_energy::ChargeCycle;
use cool_utility::UtilityFunction;
use std::fmt;

/// Error constructing a [`Problem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemError {
    /// The utility's universe is empty.
    NoSensors,
    /// Zero periods requested.
    NoPeriods,
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::NoSensors => write!(f, "problem needs at least one sensor"),
            ProblemError::NoPeriods => write!(f, "working time must span at least one period"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A scheduling instance: per-slot utility `U`, the charging cycle (which
/// fixes `ρ` and the `T` slots per period), and the horizon `L = αT`.
///
/// The utility is evaluated on the set of sensors active in a slot; the
/// schedule's total utility is `Σ_{t=0}^{L−1} U(S(t))`. For multi-target
/// instances use a [`SumUtility`](cool_utility::SumUtility) (Eq. 1).
#[derive(Clone, Debug)]
pub struct Problem<U> {
    utility: U,
    cycle: ChargeCycle,
    periods: usize,
}

impl<U: UtilityFunction> Problem<U> {
    /// Creates a problem with working time `L = periods · T`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] for an empty universe or zero periods.
    pub fn new(utility: U, cycle: ChargeCycle, periods: usize) -> Result<Self, ProblemError> {
        if utility.universe() == 0 {
            return Err(ProblemError::NoSensors);
        }
        if periods == 0 {
            return Err(ProblemError::NoPeriods);
        }
        Ok(Problem {
            utility,
            cycle,
            periods,
        })
    }

    /// The per-slot utility function.
    pub fn utility(&self) -> &U {
        &self.utility
    }

    /// The charging cycle.
    pub fn cycle(&self) -> ChargeCycle {
        self.cycle
    }

    /// Number of sensors `n`.
    pub fn n_sensors(&self) -> usize {
        self.utility.universe()
    }

    /// Slots per period `T`.
    pub fn slots_per_period(&self) -> usize {
        self.cycle.slots_per_period()
    }

    /// Number of periods `α`.
    pub fn periods(&self) -> usize {
        self.periods
    }

    /// Working time in slots, `L = αT`, saturating at `usize::MAX` for a
    /// working time too long to count.
    pub fn horizon_slots(&self) -> usize {
        self.periods.saturating_mul(self.slots_per_period())
    }

    /// Total utility of `schedule` over the horizon: `α ×` its per-period
    /// utility (the schedule repeats every period — Theorem 4.3).
    ///
    /// # Panics
    ///
    /// Panics if the schedule's shape does not match the problem.
    pub fn total_utility(&self, schedule: &PeriodSchedule) -> f64 {
        self.periods as f64 * schedule.period_utility(&self.utility)
    }

    /// Average utility per slot: `total / L`. `L` is counted in floating
    /// point, exactly as long as it stays below 2^53, so a working time of
    /// more than `usize::MAX` slots does not overflow.
    pub fn average_utility_per_slot(&self, schedule: &PeriodSchedule) -> f64 {
        self.total_utility(schedule) / (self.periods as f64 * self.slots_per_period() as f64)
    }

    /// The paper's headline metric (§VI-B): **average utility per target per
    /// time-slot**. The target count is taken from the utility when it is a
    /// sum ([`Problem::n_targets`]); for single-part utilities it is 1.
    pub fn average_utility_per_target_slot(&self, schedule: &PeriodSchedule) -> f64 {
        self.average_utility_per_slot(schedule) / self.n_targets() as f64
    }

    /// Number of targets `m` for normalisation — the utility's
    /// [`target_count`](UtilityFunction::target_count) (the part count for
    /// a [`SumUtility`](cool_utility::SumUtility), 1 otherwise).
    pub fn n_targets(&self) -> usize {
        self.utility.target_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleMode;
    use cool_utility::DetectionUtility;

    fn problem() -> Problem<DetectionUtility> {
        Problem::new(
            DetectionUtility::uniform(8, 0.4),
            ChargeCycle::paper_sunny(),
            12,
        )
        .unwrap()
    }

    #[test]
    fn dimensions() {
        let p = problem();
        assert_eq!(p.n_sensors(), 8);
        assert_eq!(p.slots_per_period(), 4);
        assert_eq!(p.periods(), 12);
        assert_eq!(p.horizon_slots(), 48);
        assert_eq!(p.n_targets(), 1);
    }

    #[test]
    fn rejects_degenerate_instances() {
        assert_eq!(
            Problem::new(
                DetectionUtility::uniform(0, 0.4),
                ChargeCycle::paper_sunny(),
                1
            )
            .unwrap_err(),
            ProblemError::NoSensors
        );
        assert_eq!(
            Problem::new(
                DetectionUtility::uniform(3, 0.4),
                ChargeCycle::paper_sunny(),
                0
            )
            .unwrap_err(),
            ProblemError::NoPeriods
        );
    }

    #[test]
    fn total_utility_scales_with_periods() {
        let p = problem();
        // Round-robin-ish: sensor i active in slot i mod 4.
        let schedule =
            PeriodSchedule::new(ScheduleMode::ActiveSlot, 4, (0..8).map(|i| i % 4).collect());
        let per_period = schedule.period_utility(p.utility());
        assert!((p.total_utility(&schedule) - 12.0 * per_period).abs() < 1e-12);
        assert!((p.average_utility_per_slot(&schedule) - per_period / 4.0).abs() < 1e-12);
        // A horizon of more slots than `usize` counts averages the same.
        let long = Problem::new(p.utility().clone(), p.cycle(), usize::MAX).unwrap();
        assert!((long.average_utility_per_slot(&schedule) - per_period / 4.0).abs() < 1e-12);
    }

    #[test]
    fn sum_utility_target_count() {
        use cool_common::SensorSet;
        use cool_utility::SumUtility;
        let u = SumUtility::multi_target_detection(
            &[
                SensorSet::from_indices(4, [0, 1]),
                SensorSet::from_indices(4, [2, 3]),
            ],
            0.4,
        );
        let p = Problem::new(u, ChargeCycle::paper_sunny(), 1).unwrap();
        assert_eq!(p.n_targets(), 2);
    }

    #[test]
    fn error_display() {
        assert!(ProblemError::NoSensors.to_string().contains("sensor"));
        assert!(ProblemError::NoPeriods.to_string().contains("period"));
    }
}
