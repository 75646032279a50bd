//! Scheduling under the §V random charging model.
//!
//! The paper: replace `ρ` with `ρ' = T̄_r/T̄_d` (expectations of the random
//! recharge/discharge processes) and feed it to the LP-based solution;
//! extending the greedy analysis is left open. This module supplies:
//!
//! * [`rho_prime_cycle`] — quantising `ρ'` into a scheduler-ready
//!   [`ChargeCycle`];
//! * [`simulate_schedule`] — a slot-level Monte-Carlo evaluation of *any*
//!   period schedule under the stochastic energy process (Poisson event
//!   drain while active, Normal recharge while depleted), reporting the
//!   achieved average utility;
//! * [`stochastic_greedy`] — the pragmatic pipeline the paper hints at:
//!   greedy on the `ρ'` cycle, evaluated by simulation. The greedy stage
//!   inherits the lazy CELF machinery of [`crate::greedy`], including
//!   sparse O(deg) gain queries for multi-target
//!   [`SumUtility`](cool_utility::SumUtility) instances.

use crate::greedy;
use crate::schedule::PeriodSchedule;
use cool_common::{SensorId, SensorSet};
use cool_energy::{ChargeCycle, CycleError, RandomChargeModel};
use cool_utility::UtilityFunction;
use rand::Rng;

/// Builds the `ρ'`-based cycle: `ρ' = T̄_r/T̄_d` rounded to the nearest
/// integer ratio with slot length `T̄_d` normalised to `slot_minutes`.
///
/// # Errors
///
/// Propagates [`CycleError`] for degenerate ratios.
///
/// # Examples
///
/// ```
/// use cool_core::stochastic::rho_prime_cycle;
/// use cool_energy::RandomChargeModel;
///
/// let model = RandomChargeModel::new(15.0, 0.2, 2.0, 112.5, 5.0).unwrap();
/// // T̄_d = 37.5, ρ' = 3.
/// let cycle = rho_prime_cycle(&model).unwrap();
/// assert_eq!(cycle.slots_per_period(), 4);
/// ```
pub fn rho_prime_cycle(model: &RandomChargeModel) -> Result<ChargeCycle, CycleError> {
    let rho = model.rho_prime();
    if rho >= 1.0 {
        ChargeCycle::from_rho(rho.round().max(1.0), model.mean_discharge_minutes())
    } else {
        let inv = (1.0 / rho).round().max(1.0);
        ChargeCycle::from_rho(1.0 / inv, model.mean_recharge_minutes())
    }
}

/// Greedy on the `ρ'` cycle (the paper's pragmatic §V pipeline).
///
/// # Errors
///
/// Propagates [`CycleError`] from [`rho_prime_cycle`].
pub fn stochastic_greedy<U: UtilityFunction>(
    utility: &U,
    model: &RandomChargeModel,
) -> Result<(ChargeCycle, PeriodSchedule), CycleError> {
    let cycle = rho_prime_cycle(model)?;
    // A valid `ChargeCycle` always has ≥ 2 slots, so only a non-finite
    // utility can fail here.
    let schedule = if cycle.rho() > 1.0 {
        greedy::greedy_active_lazy(utility, cycle.slots_per_period())
    } else {
        greedy::greedy_passive_lazy(utility, cycle.slots_per_period())
    };
    Ok((cycle, schedule.unwrap_or_else(|e| panic!("{e}"))))
}

/// Error from the §V LP pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum StochasticLpError {
    /// The `ρ'` ratio could not be quantised into a cycle.
    Cycle(CycleError),
    /// The LP solve failed.
    Lp(crate::simplex::SimplexError),
    /// The **raw** ratio `ρ' ≤ 1`, which the §V LP pipeline does not
    /// cover. The check uses the un-quantised `ρ'`: a ratio like 1.3
    /// rounds down to a cycle with `ρ = 1`, but it is still a
    /// slow-recharge regime and must not be rejected.
    FastRecharge,
}

impl std::fmt::Display for StochasticLpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StochasticLpError::Cycle(e) => write!(f, "cycle error: {e}"),
            StochasticLpError::Lp(e) => write!(f, "lp error: {e}"),
            StochasticLpError::FastRecharge => {
                write!(
                    f,
                    "rho' <= 1: the LP pipeline covers the slow-recharge case only"
                )
            }
        }
    }
}

impl std::error::Error for StochasticLpError {}

/// The paper's **literal** §V proposal: "we can use the new defined ratio
/// ρ' in the linear programming based solution" — LP relaxation +
/// randomised rounding on the `ρ'` cycle.
///
/// # Errors
///
/// [`StochasticLpError`] on quantisation/LP failure, or when `ρ' ≤ 1`
/// (the LP formulation covers the slow-recharge case).
pub fn stochastic_lp<R: Rng + ?Sized>(
    utility: &cool_utility::SumUtility,
    model: &RandomChargeModel,
    rounding_trials: usize,
    rng: &mut R,
) -> Result<(ChargeCycle, PeriodSchedule), StochasticLpError> {
    // Gate on the RAW ratio, not the quantised cycle: ρ' ∈ (1, 1.5)
    // rounds to a cycle with ρ = 1 (where active-slot scheduling is still
    // feasible), and rejecting it here would silently drop the boundary.
    if model.rho_prime() <= 1.0 {
        return Err(StochasticLpError::FastRecharge);
    }
    let cycle = rho_prime_cycle(model).map_err(StochasticLpError::Cycle)?;
    let problem = crate::problem::Problem::new(utility.clone(), cycle, 1)
        .unwrap_or_else(|e| unreachable!("non-empty utility and one period: {e}"));
    let outcome = crate::lp::LpScheduler::new(rounding_trials)
        .schedule(&problem, rng)
        .map_err(StochasticLpError::Lp)?;
    Ok((cycle, outcome.schedule))
}

/// Slot-level Monte-Carlo evaluation of a schedule under the stochastic
/// model. Per sensor, per active slot, the energy drained is the sampled
/// event-monitoring time within the slot (Poisson arrivals × exponential
/// durations); a depleted sensor recharges for a sampled
/// `Normal(T̄_r, σ)` wall-time. Returns the achieved **average utility per
/// slot** over `periods` repetitions of the schedule.
///
/// # Panics
///
/// Panics if `periods == 0` or `slot_minutes ≤ 0`.
pub fn simulate_schedule<U: UtilityFunction, R: Rng + ?Sized>(
    utility: &U,
    schedule: &PeriodSchedule,
    model: &RandomChargeModel,
    slot_minutes: f64,
    periods: usize,
    rng: &mut R,
) -> f64 {
    #[derive(Clone, Copy)]
    enum EnergyState {
        /// Remaining continuous-monitoring budget in minutes.
        Available(f64),
        /// Remaining recharge wall-time in minutes.
        Recharging(f64),
    }

    assert!(periods > 0, "need at least one period");
    assert!(slot_minutes > 0.0, "slot length must be positive");
    let n = schedule.n_sensors();
    let t_slots = schedule.slots_per_period();

    let full_budget = |_rng: &mut R| model_budget(model);
    let mut states: Vec<EnergyState> = (0..n)
        .map(|_| EnergyState::Available(full_budget(rng)))
        .collect();

    let mut total = 0.0;
    let mut slots = 0usize;
    for _period in 0..periods {
        for t in 0..t_slots {
            let mut active = SensorSet::new(n);
            for (v, state) in states.iter_mut().enumerate() {
                let scheduled = schedule.is_active(SensorId(v), t);
                match *state {
                    EnergyState::Available(budget) if scheduled => {
                        // Event-monitoring minutes within this slot.
                        let drain = sample_slot_drain(model, slot_minutes, rng);
                        active.insert(SensorId(v));
                        let budget = budget - drain;
                        *state = if budget <= 0.0 {
                            EnergyState::Recharging(model.sample_recharge_minutes(rng))
                        } else {
                            EnergyState::Available(budget)
                        };
                    }
                    EnergyState::Available(_) => {}
                    EnergyState::Recharging(remaining) => {
                        let remaining = remaining - slot_minutes;
                        *state = if remaining <= 0.0 {
                            EnergyState::Available(model_budget(model))
                        } else {
                            EnergyState::Recharging(remaining)
                        };
                    }
                }
            }
            total += utility.eval(&active);
            slots += 1;
        }
    }
    total / slots as f64
}

/// The continuous-monitoring budget of a full battery: the model's
/// continuous discharge time `T_d`.
fn model_budget(model: &RandomChargeModel) -> f64 {
    model.continuous_discharge_minutes()
}

/// Minutes of event activity within one slot: arrivals are Poisson with
/// rate `λ_a`, each contributing an `Exp(λ_d)` duration, the total capped
/// at the slot length (concurrent events saturate the sensor).
fn sample_slot_drain<R: Rng + ?Sized>(
    model: &RandomChargeModel,
    slot_minutes: f64,
    rng: &mut R,
) -> f64 {
    let mean_events = model.arrival_rate_per_minute() * slot_minutes;
    let events = sample_poisson(mean_events, rng);
    let mut drain = 0.0;
    for _ in 0..events {
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        drain += -model.mean_event_minutes() * u.ln();
    }
    drain.min(slot_minutes)
}

fn sample_poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> usize {
    // Knuth's method — means here are O(slot_minutes · λ_a), small.
    let threshold = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random_range(0.0f64..1.0);
        if p <= threshold {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // safety valve for extreme means
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::SeedSequence;
    use cool_utility::DetectionUtility;

    fn model() -> RandomChargeModel {
        // duty 0.4, T̄_d = 37.5 min, T̄_r = 112.5 min → ρ' = 3.
        RandomChargeModel::new(15.0, 0.2, 2.0, 112.5, 5.0).unwrap()
    }

    #[test]
    fn rho_prime_cycle_quantizes() {
        let c = rho_prime_cycle(&model()).unwrap();
        assert_eq!(c.slots_per_period(), 4);
        assert!((c.rho() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rho_prime_cycle_fast_recharge() {
        // T̄_d = 37.5, T̄_r = 9 → ρ' ≈ 0.24 → quantized 1/4.
        let m = RandomChargeModel::new(15.0, 0.2, 2.0, 9.0, 1.0).unwrap();
        let c = rho_prime_cycle(&m).unwrap();
        assert!((c.rho() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn stochastic_greedy_produces_feasible_plan() {
        let u = DetectionUtility::uniform(10, 0.4);
        let (cycle, schedule) = stochastic_greedy(&u, &model()).unwrap();
        assert!(schedule.is_feasible(cycle));
    }

    #[test]
    fn simulation_yields_positive_utility() {
        let u = DetectionUtility::uniform(10, 0.4);
        let (cycle, schedule) = stochastic_greedy(&u, &model()).unwrap();
        let mut rng = SeedSequence::new(70).nth_rng(0);
        let avg = simulate_schedule(&u, &schedule, &model(), cycle.slot_minutes(), 50, &mut rng);
        assert!(avg > 0.0 && avg <= 1.0, "avg utility {avg}");
    }

    #[test]
    fn greedy_on_rho_prime_beats_static_under_simulation() {
        let u = DetectionUtility::uniform(12, 0.4);
        let m = model();
        let (cycle, greedy_plan) = stochastic_greedy(&u, &m).unwrap();
        let static_plan = PeriodSchedule::new(
            crate::schedule::ScheduleMode::ActiveSlot,
            cycle.slots_per_period(),
            vec![0; 12],
        );
        let mut rng = SeedSequence::new(71).nth_rng(0);
        let g = simulate_schedule(&u, &greedy_plan, &m, cycle.slot_minutes(), 100, &mut rng);
        let mut rng = SeedSequence::new(71).nth_rng(0);
        let s = simulate_schedule(&u, &static_plan, &m, cycle.slot_minutes(), 100, &mut rng);
        assert!(g > s, "greedy {g} should beat static {s} under uncertainty");
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let u = DetectionUtility::uniform(6, 0.4);
        let (cycle, schedule) = stochastic_greedy(&u, &model()).unwrap();
        let run = |seed| {
            let mut rng = SeedSequence::new(seed).nth_rng(0);
            simulate_schedule(&u, &schedule, &model(), cycle.slot_minutes(), 20, &mut rng)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn stochastic_lp_produces_feasible_plan() {
        use cool_common::SensorSet;
        let u = cool_utility::SumUtility::multi_target_detection(&[SensorSet::full(8)], 0.4);
        let mut rng = SeedSequence::new(72).nth_rng(0);
        let (cycle, schedule) = stochastic_lp(&u, &model(), 8, &mut rng).unwrap();
        assert!(schedule.is_feasible(cycle));
    }

    #[test]
    fn stochastic_lp_accepts_rho_prime_just_above_one() {
        // Regression (promoted from examples/bugprobe.rs): ρ' = 1.3
        // quantises to a cycle with ρ = 1, and the old gate on the
        // *quantised* ratio wrongly returned FastRecharge for this
        // slow-recharge model. The raw-ρ' gate must let it through and
        // produce a feasible plan on the ρ = 1 cycle.
        use cool_common::SensorSet;
        let u = cool_utility::SumUtility::multi_target_detection(&[SensorSet::full(6)], 0.4);
        // T̄_d = 15/(0.2·2) … = 37.5 min, T̄_r = 48.75 min → ρ' = 1.3.
        let m = RandomChargeModel::new(15.0, 0.2, 2.0, 48.75, 1.0).unwrap();
        assert!((m.rho_prime() - 1.3).abs() < 1e-9);
        let mut rng = SeedSequence::new(74).nth_rng(0);
        let (cycle, schedule) = stochastic_lp(&u, &m, 8, &mut rng)
            .expect("rho' in (1, 1.5) is slow-recharge and must be accepted");
        assert!((cycle.rho() - 1.0).abs() < 1e-12, "quantises to rho = 1");
        assert!(schedule.is_feasible(cycle));
    }

    #[test]
    fn stochastic_lp_rejects_fast_recharge() {
        use cool_common::SensorSet;
        let u = cool_utility::SumUtility::multi_target_detection(&[SensorSet::full(4)], 0.4);
        let m = RandomChargeModel::new(15.0, 0.2, 2.0, 9.0, 1.0).unwrap(); // rho' = 1/4
        let mut rng = SeedSequence::new(73).nth_rng(0);
        let err = stochastic_lp(&u, &m, 2, &mut rng).unwrap_err();
        assert_eq!(err, StochasticLpError::FastRecharge);
        assert!(err.to_string().contains("rho'"));
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_periods_panics() {
        let u = DetectionUtility::uniform(2, 0.4);
        let (cycle, schedule) = stochastic_greedy(&u, &model()).unwrap();
        let mut rng = SeedSequence::new(0).nth_rng(0);
        let _ = simulate_schedule(&u, &schedule, &model(), cycle.slot_minutes(), 0, &mut rng);
    }
}
