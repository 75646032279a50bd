//! Upper bounds on the optimal schedule utility.
//!
//! §VI-B computes the single-target bound
//! `Ū* = 1 − (1−p)^n̄` with `n̄ = ⌈n/T⌉`: no slot of an optimal schedule can
//! do better than concentrating an exact `1/T` share of the sensors, because
//! the per-slot utility is symmetric and concave in the active count.
//! [`trivial_period_bound`] generalises this to any utility via the
//! partition argument `OPT ≤ Σ_t U(S*_t) ≤ T · max_{|S| ≤ ⌈n/T⌉+…}` made
//! safe: we use the trivially-valid `OPT ≤ T · U(V)` cap plus the
//! cardinality bound when the utility exposes symmetric structure.

use cool_energy::FleetGrid;
use cool_utility::{AnyUtility, SumUtility, UtilityFunction};

/// The paper's single-target per-slot upper bound on **average utility per
/// slot**: `1 − (1−p)^⌈n/T⌉` (§VI-B).
///
/// Why it is a bound: per-period, the optimum assigns each sensor one of
/// the `T` slots; the per-slot utility `1−(1−p)^k` is concave in the slot's
/// sensor count `k`, so by Jensen the per-slot average is maximised by the
/// most balanced partition, whose largest share is `⌈n/T⌉`… and
/// `1−(1−p)^{⌈n/T⌉}` dominates the average of any feasible partition.
///
/// # Panics
///
/// Panics if `t == 0` or `p ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use cool_core::bounds::single_target_upper_bound;
///
/// // The paper's headline setting: n = 100, T = 4, p = 0.4.
/// let bound = single_target_upper_bound(100, 4, 0.4);
/// assert!((bound - (1.0 - 0.6f64.powi(25))).abs() < 1e-12);
/// ```
///
/// Note: the paper prints `0.999380` for this bound, which the stated
/// formula with `p = 0.4` does not reproduce (it gives `0.9999972`); the
/// printed value corresponds to an effective per-sensor detection
/// probability of ≈ 0.256 — see EXPERIMENTS.md. We implement the formula
/// as stated.
pub fn single_target_upper_bound(n: usize, t: usize, p: f64) -> f64 {
    single_target_upper_bound_with_budget(n, t, 1, p)
}

/// Generalisation of [`single_target_upper_bound`] to sensors that may be
/// active `budget` slots per period (`budget = T − 1` for `ρ ≤ 1`): the
/// per-slot average active count is at most `n·budget/T`, and by concavity
/// the per-slot utility average is at most `1 − (1−p)^⌈n·budget/T⌉`.
///
/// # Panics
///
/// Panics if `t == 0`, `budget == 0`, `budget > t`, or `p ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use cool_core::bounds::single_target_upper_bound_with_budget;
///
/// // ρ = 1/3 ⇒ T = 4 slots, 3 of them active: 8 sensors yield at most
/// // ⌈8·3/4⌉ = 6 simultaneously-active sensors on average.
/// let bound = single_target_upper_bound_with_budget(8, 4, 3, 0.3);
/// assert!((bound - (1.0 - 0.7f64.powi(6))).abs() < 1e-12);
/// ```
pub fn single_target_upper_bound_with_budget(n: usize, t: usize, budget: usize, p: f64) -> f64 {
    assert!(t > 0, "need at least one slot per period");
    assert!(budget > 0 && budget <= t, "budget must be in 1..=T");
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let share = (n * budget).div_ceil(t);
    1.0 - (1.0 - p).powi(i32::try_from(share).unwrap_or(i32::MAX))
}

/// A universally-valid upper bound on the **per-period total utility** of
/// any feasible schedule: `T · U(V)` capped by the tighter
/// `Σ over the T best disjoint greedy shares` is not safely computable in
/// general, so this returns `min(T · U(V), n̄-balanced single-target bound)`
/// when applicable and `T · U(V)` otherwise.
///
/// For calibrated bounds on specific instances use
/// [`exhaustive_optimal`](crate::optimal::exhaustive_optimal) (small `n`)
/// or the LP relaxation value ([`crate::lp`]), which upper-bounds OPT for
/// coverage-style utilities.
pub fn trivial_period_bound<U: UtilityFunction>(utility: &U, slots: usize) -> f64 {
    assert!(slots > 0, "need at least one slot per period");
    slots as f64 * utility.max_value()
}

/// Sensor `v`'s maximum fraction of hyperperiod ticks it can spend active,
/// by battery accounting from a full charge: `a/d_v ≤ 1 + (H−a)/r_v` gives
/// `a ≤ d_v(r_v + H)/P_v`, i.e. the steady-state duty cycle `d_v/P_v` plus
/// the one-off full-battery slack `d_v·r_v/(P_v·H)`.
fn duty_fraction(grid: &FleetGrid, v: usize) -> f64 {
    let d = grid.discharge_ticks(v) as f64;
    let r = grid.recharge_ticks(v) as f64;
    let p = grid.period_ticks(v) as f64;
    let h = grid.hyperperiod() as f64;
    (d / p + d * r / (p * h)).min(1.0)
}

/// Jensen/duty-cycle upper bound on the **hyperperiod total utility** of
/// ANY energy-feasible schedule on a heterogeneous grid — periodic or not.
///
/// Per detection part with per-sensor probabilities `p_v`, write the
/// per-tick value as `h(Σ_{v active} c_v)` with `c_v = −ln(1−p_v)` and
/// `h(y) = 1 − e^{−y}` concave increasing. Averaging over the `H` ticks
/// and applying Jensen, the per-tick average is at most
/// `h(Σ_v c_v·x_v)` where `x_v` is the sensor's maximum active fraction
/// ([`duty_fraction`]). Non-detection parts are capped by their
/// `max_value()`. The bound needs no schedule — it dominates the optimum,
/// so it is what `cool-check` holds the baselines to (COOL-E029).
///
/// # Examples
///
/// ```
/// use cool_core::bounds::grid_duty_upper_bound;
/// use cool_core::hetero::hetero_greedy_lazy;
/// use cool_energy::{ChargeCycle, Fleet, FleetGrid};
/// use cool_utility::{AnyUtility, DetectionUtility, SumUtility};
///
/// let fleet = Fleet::from_cycles(vec![
///     ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
///     ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
/// ]).unwrap();
/// let grid = FleetGrid::build(&fleet).unwrap();
/// let u = SumUtility::new(vec![
///     AnyUtility::Detection(DetectionUtility::uniform(2, 0.7)),
/// ]);
/// let greedy = hetero_greedy_lazy(&u, &grid).unwrap();
/// assert!(greedy.hyperperiod_utility(&u) <= grid_duty_upper_bound(&u, &grid));
/// ```
pub fn grid_duty_upper_bound(utility: &SumUtility, grid: &FleetGrid) -> f64 {
    let h = grid.hyperperiod() as f64;
    let mut per_tick_total = 0.0;
    for part in utility.parts() {
        let per_tick = match part {
            AnyUtility::Detection(d) => {
                let mut y = 0.0;
                let mut saturated = false;
                for (v, p) in d.probs().iter() {
                    if p >= 1.0 {
                        // x_v > 0 always (d_v ≥ 1), so a certain detector
                        // saturates the part outright; summing would hit
                        // ∞ · x and NaN.
                        saturated = true;
                        break;
                    }
                    y += -(1.0 - p).ln() * duty_fraction(grid, v.index());
                }
                if saturated {
                    1.0
                } else {
                    1.0 - (-y).exp()
                }
            }
            other => other.max_value(),
        };
        per_tick_total += per_tick;
    }
    h * per_tick_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_active_naive;
    use crate::schedule::ScheduleMode;
    use cool_common::SeedSequence;
    use cool_utility::DetectionUtility;
    use proptest::prelude::*;

    #[test]
    fn headline_bound_value() {
        // §VI-B claims an upper bound of 0.999380 for n = 100, T = 4,
        // p = 0.4; the formula as stated gives 1 − 0.6²⁵ ≈ 0.9999972. We
        // pin the formula's value and record the paper-number mismatch in
        // EXPERIMENTS.md (the printed value matches p ≈ 0.256).
        let bound = single_target_upper_bound(100, 4, 0.4);
        assert!(
            (bound - (1.0 - 0.6f64.powi(25))).abs() < 1e-12,
            "got {bound}"
        );
        assert!(
            bound > 0.99938,
            "the formula dominates the paper's printed bound"
        );
    }

    #[test]
    fn bound_dominates_exhaustive_optimum_per_slot() {
        // Small single-target instances: bound ≥ OPT average per slot.
        for n in 1..=6usize {
            let u = DetectionUtility::uniform(n, 0.4);
            let t = 3;
            let opt = crate::optimal::exhaustive_optimal(&u, t, ScheduleMode::ActiveSlot);
            let per_slot = opt.period_utility(&u) / t as f64;
            let bound = single_target_upper_bound(n, t, 0.4);
            assert!(per_slot <= bound + 1e-12, "n={n}: {per_slot} > {bound}");
        }
    }

    #[test]
    fn bound_is_tight_when_n_divides_t() {
        // n = kT: the balanced schedule achieves the bound exactly.
        let (n, t, p) = (8usize, 4usize, 0.4);
        let u = DetectionUtility::uniform(n, p);
        let greedy = greedy_active_naive(&u, t).unwrap();
        let per_slot = greedy.period_utility(&u) / t as f64;
        let bound = single_target_upper_bound(n, t, p);
        assert!((per_slot - bound).abs() < 1e-12, "{per_slot} vs {bound}");
    }

    #[test]
    fn trivial_bound_dominates_any_schedule() {
        let u = DetectionUtility::uniform(7, 0.5);
        let greedy = greedy_active_naive(&u, 3).unwrap();
        assert!(greedy.period_utility(&u) <= trivial_period_bound(&u, 3) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = single_target_upper_bound(5, 0, 0.4);
    }

    fn mixed_grid() -> cool_energy::FleetGrid {
        use cool_energy::{ChargeCycle, Fleet, FleetGrid};
        FleetGrid::build(
            &Fleet::from_cycles(vec![
                ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
                ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
                ChargeCycle::from_minutes(15.0, 15.0).unwrap(),
                ChargeCycle::from_minutes(30.0, 15.0).unwrap(),
            ])
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn duty_bound_dominates_greedy_and_baselines() {
        let grid = mixed_grid();
        let mut rng = SeedSequence::new(21).nth_rng(0);
        let u = crate::instances::random_multi_target(4, 3, 0.6, 0.5, &mut rng);
        let bound = grid_duty_upper_bound(&u, &grid);
        let greedy = crate::hetero::hetero_greedy_naive(&u, &grid)
            .unwrap()
            .hyperperiod_utility(&u);
        let rsc = crate::baselines::rsc_schedule(&u, &grid)
            .unwrap()
            .hyperperiod_utility(&u);
        let so = crate::baselines::set_once_schedule(&grid).hyperperiod_utility(&u);
        assert!(greedy <= bound + 1e-9, "greedy {greedy} > bound {bound}");
        assert!(rsc <= bound + 1e-9, "rsc {rsc} > bound {bound}");
        assert!(so <= bound + 1e-9, "set-once {so} > bound {bound}");
    }

    #[test]
    fn duty_bound_survives_certain_detection() {
        // p = 1 makes c_v = ∞; the bound must saturate at H per part, not
        // go NaN.
        let grid = mixed_grid();
        let u = cool_utility::SumUtility::multi_target_detection(
            &[cool_common::SensorSet::full(4)],
            1.0,
        );
        let bound = grid_duty_upper_bound(&u, &grid);
        assert!(bound.is_finite());
        assert!((bound - grid.hyperperiod() as f64).abs() < 1e-12);
    }

    #[test]
    fn duty_bound_on_uniform_grid_matches_slot_intuition() {
        // Uniform ρ = 3 fleet: x_v = (1 + 3/H)/4; one target covering
        // everyone. With H = P the bound is h(n·c·x) on a per-tick basis.
        use cool_energy::{ChargeCycle, Fleet, FleetGrid};
        let n = 8;
        let grid =
            FleetGrid::build(&Fleet::uniform_from_cycle(n, ChargeCycle::paper_sunny()).unwrap())
                .unwrap();
        let u = cool_utility::SumUtility::multi_target_detection(
            &[cool_common::SensorSet::full(n)],
            0.4,
        );
        let bound = grid_duty_upper_bound(&u, &grid);
        let x: f64 = (0.25 + 0.75 / 4.0_f64).min(1.0);
        let expected = 4.0 * (1.0 - (0.6f64.ln() * 8.0 * x).exp());
        assert!((bound - expected).abs() < 1e-12, "{bound} vs {expected}");
    }

    proptest! {
        /// The single-target bound dominates the greedy per-slot average on
        /// arbitrary (n, T, p).
        #[test]
        fn bound_dominates_greedy(n in 1usize..40, t in 1usize..6, p in 0.0f64..=1.0) {
            let u = DetectionUtility::uniform(n, p);
            let greedy = greedy_active_naive(&u, t).unwrap();
            let per_slot = greedy.period_utility(&u) / t as f64;
            prop_assert!(per_slot <= single_target_upper_bound(n, t, p) + 1e-9);
        }

        /// Proptest-checked exhaustive domination on tiny instances.
        #[test]
        fn bound_dominates_optimum(n in 1usize..5, t in 1usize..4, seed in any::<u64>()) {
            let mut rng = SeedSequence::new(seed).nth_rng(0);
            let p: f64 = rng.random_range(0.05..0.95);
            let u = DetectionUtility::uniform(n, p);
            let opt = crate::optimal::exhaustive_optimal(&u, t, ScheduleMode::ActiveSlot);
            prop_assert!(
                opt.period_utility(&u) / t as f64
                    <= single_target_upper_bound(n, t, p) + 1e-9
            );
        }
    }
}
