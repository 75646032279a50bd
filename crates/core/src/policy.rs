//! Dynamic activation policies.
//!
//! A [`PeriodSchedule`] is a static plan; an [`ActivationPolicy`] is the
//! online object the testbed simulator drives: at every slot it is told
//! which sensors are currently able to activate and answers with the set it
//! wants active. [`SchedulePolicy`] replays a static schedule;
//! [`AdaptivePolicy`] re-plans with the greedy whenever the charging
//! pattern changes (the paper's "we may choose different charging pattern
//! each day for different weather condition").

use crate::greedy;
use crate::schedule::PeriodSchedule;
use cool_common::SensorSet;
use cool_energy::ChargeCycle;
use cool_utility::UtilityFunction;

/// An online activation decision-maker.
pub trait ActivationPolicy {
    /// The set of sensors to request active at global slot `slot`, given
    /// the sensors currently able to activate. Implementations should
    /// return a subset of their intent; the simulator enforces energy
    /// feasibility regardless.
    fn decide(&mut self, slot: usize, ready: &SensorSet) -> SensorSet;

    /// Slots per period of the underlying plan (for alignment/reporting).
    fn slots_per_period(&self) -> usize;
}

/// Replays a fixed [`PeriodSchedule`], period after period.
///
/// # Examples
///
/// ```
/// use cool_core::policy::{ActivationPolicy, SchedulePolicy};
/// use cool_core::schedule::{PeriodSchedule, ScheduleMode};
/// use cool_common::SensorSet;
///
/// let plan = PeriodSchedule::new(ScheduleMode::ActiveSlot, 2, vec![0, 1]);
/// let mut policy = SchedulePolicy::new(plan);
/// let ready = SensorSet::full(2);
/// assert_eq!(policy.decide(0, &ready).len(), 1);
/// assert_eq!(policy.decide(5, &ready).len(), 1); // slot 5 ≡ slot 1 (mod 2)
/// ```
#[derive(Clone, Debug)]
pub struct SchedulePolicy {
    schedule: PeriodSchedule,
}

impl SchedulePolicy {
    /// Wraps a schedule.
    pub fn new(schedule: PeriodSchedule) -> Self {
        SchedulePolicy { schedule }
    }

    /// The underlying schedule.
    pub fn schedule(&self) -> &PeriodSchedule {
        &self.schedule
    }
}

impl ActivationPolicy for SchedulePolicy {
    fn decide(&mut self, slot: usize, ready: &SensorSet) -> SensorSet {
        let want = self
            .schedule
            .active_set(slot % self.schedule.slots_per_period());
        want.intersection(ready)
    }

    fn slots_per_period(&self) -> usize {
        self.schedule.slots_per_period()
    }
}

/// Re-plans with the greedy whenever the charging cycle changes — the
/// weather-adaptive controller for week-long deployments.
#[derive(Clone, Debug)]
pub struct AdaptivePolicy<U> {
    utility: U,
    cycle: ChargeCycle,
    current: PeriodSchedule,
    replans: usize,
}

impl<U: UtilityFunction> AdaptivePolicy<U> {
    /// Creates the policy with an initial cycle (planning immediately).
    pub fn new(utility: U, cycle: ChargeCycle) -> Self {
        let current = Self::plan(&utility, cycle);
        AdaptivePolicy {
            utility,
            cycle,
            current,
            replans: 0,
        }
    }

    fn plan(utility: &U, cycle: ChargeCycle) -> PeriodSchedule {
        // A valid `ChargeCycle` always has ≥ 2 slots, so only a
        // non-finite utility can fail here.
        let planned = if cycle.rho() > 1.0 {
            greedy::greedy_active_lazy(utility, cycle.slots_per_period())
        } else {
            greedy::greedy_passive_lazy(utility, cycle.slots_per_period())
        };
        planned.unwrap_or_else(|e| panic!("{e}"))
    }

    /// Informs the policy of a new charging pattern (e.g. tomorrow's
    /// weather estimate); re-plans if it differs from the current one.
    pub fn update_cycle(&mut self, cycle: ChargeCycle) {
        if cycle != self.cycle {
            self.cycle = cycle;
            self.current = Self::plan(&self.utility, cycle);
            self.replans += 1;
        }
    }

    /// The active cycle.
    pub fn cycle(&self) -> ChargeCycle {
        self.cycle
    }

    /// The current plan.
    pub fn current_schedule(&self) -> &PeriodSchedule {
        &self.current
    }

    /// How many times the policy re-planned.
    pub fn replans(&self) -> usize {
        self.replans
    }
}

impl<U: UtilityFunction> ActivationPolicy for AdaptivePolicy<U> {
    fn decide(&mut self, slot: usize, ready: &SensorSet) -> SensorSet {
        let want = self
            .current
            .active_set(slot % self.current.slots_per_period());
        want.intersection(ready)
    }

    fn slots_per_period(&self) -> usize {
        self.current.slots_per_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleMode;
    use cool_utility::DetectionUtility;

    #[test]
    fn schedule_policy_intersects_ready() {
        let plan = PeriodSchedule::new(ScheduleMode::ActiveSlot, 2, vec![0, 0, 1]);
        let mut policy = SchedulePolicy::new(plan);
        let mut ready = SensorSet::full(3);
        ready.remove(cool_common::SensorId(0));
        let decided = policy.decide(0, &ready);
        assert_eq!(
            decided.len(),
            1,
            "sensor 0 not ready, only sensor 1 requested"
        );
        assert!(decided.contains(cool_common::SensorId(1)));
        assert_eq!(policy.slots_per_period(), 2);
        assert_eq!(policy.schedule().n_sensors(), 3);
    }

    #[test]
    fn adaptive_policy_replans_on_cycle_change() {
        let u = DetectionUtility::uniform(6, 0.4);
        let sunny = ChargeCycle::paper_sunny();
        let overcast = ChargeCycle::from_rho(12.0, 15.0).unwrap();
        let mut policy = AdaptivePolicy::new(u, sunny);
        assert_eq!(policy.replans(), 0);
        assert_eq!(policy.slots_per_period(), 4);

        policy.update_cycle(sunny);
        assert_eq!(policy.replans(), 0, "same cycle, no replan");

        policy.update_cycle(overcast);
        assert_eq!(policy.replans(), 1);
        assert_eq!(policy.slots_per_period(), 13, "ρ = 12 → 13 slots");
        assert_eq!(policy.cycle(), overcast);
    }

    #[test]
    fn adaptive_policy_handles_fast_recharge() {
        let u = DetectionUtility::uniform(4, 0.4);
        let fast = ChargeCycle::from_rho(0.5, 10.0).unwrap();
        let policy = AdaptivePolicy::new(u, fast);
        assert_eq!(policy.current_schedule().mode(), ScheduleMode::PassiveSlot);
    }
}
