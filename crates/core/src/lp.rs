//! The LP-relaxation scheduler of §IV-A.1.
//!
//! The paper's integer program maximises `Σ_t Σ_j U_j(S_X(O_j, t))` subject
//! to each sensor being active at most once per period; relaxing
//! `x(v_i, t) ∈ {0,1}` to `[0,1]` yields a linear program, after which the
//! schedule is obtained by randomised rounding ("let each node v_i be active
//! at time-slot t with probability x(v_i, t)").
//!
//! A submodular objective is not linear, so — as is standard for coverage
//! objectives — we solve the LP over the **concave envelope**
//! `U(S) ≤ Σ_k w_k · min(1, Σ_{v∈S} q_{k,v})`, which every built-in utility
//! admits exactly ([`coverage_items`]):
//!
//! | utility | items |
//! |---|---|
//! | detection `1−Π(1−p)` | one item, cap 1, mass `p_v` |
//! | weighted coverage (Eq. 2) | one item per subregion, cap `w·\|A\|`, mass `1` |
//! | linear | one item per sensor (exact) |
//! | log-sum | one item, cap `ln(1+W)`, mass `w_v/cap` |
//! | facility location | one item per target, cap `max_v b`, mass `b_v/cap` |
//!
//! The LP optimum therefore **upper-bounds** the true optimum (useful as a
//! certificate), and rounding yields a feasible schedule whose true utility
//! is reported alongside. Because the per-period constraint is
//! `Σ_t x(v,t) ≤ 1`, sampling each sensor's slot from its LP row is feasible
//! *by construction* — the iterated-rounding repair of the paper's \[13\]
//! reduces, in the one-period form, to re-sampling, which
//! [`LpScheduler::rounding_trials`] performs, keeping the best draw.
//!
//! The rounding repair scores candidate slots with per-slot evaluators
//! from [`UtilityFunction::evaluator`]; for a multi-target
//! [`SumUtility`] each such gain/loss query is O(deg(v)) via the sparse
//! incidence index rather than O(m) over all parts.

use crate::problem::Problem;
use crate::schedule::{PeriodSchedule, ScheduleMode};
use crate::simplex::{LinearProgram, Relation, SimplexError};
use cool_common::SensorId;
use cool_utility::{AnyUtility, Evaluator, SumUtility, UtilityFunction};
use rand::Rng;

/// Decomposes a utility into concave-envelope coverage items
/// `(cap w_k, per-sensor mass q_k)` with
/// `U(S) ≤ Σ_k w_k · min(1, Σ_{v∈S} q_{k,v})` for every integral `S`.
pub fn coverage_items(utility: &AnyUtility) -> Vec<(f64, Vec<f64>)> {
    // The LP rows are dense, so the sparse parts' masses are materialised
    // here, one part at a time.
    match utility {
        AnyUtility::Detection(d) => vec![(1.0, d.probs().to_dense())],
        AnyUtility::Linear(l) => l
            .weights()
            .iter()
            .map(|(v, w)| {
                let mut q = vec![0.0; l.universe()];
                q[v.index()] = 1.0;
                (w, q)
            })
            .collect(),
        AnyUtility::LogSum(l) => {
            let cap = (1.0 + l.total_weight()).ln();
            if cap <= 0.0 {
                return Vec::new();
            }
            vec![(
                cap,
                l.weights().to_dense().iter().map(|w| w / cap).collect(),
            )]
        }
        // One item per subregion: cap = weighted area, indicator masses.
        AnyUtility::Coverage(c) => c.lp_items(),
        AnyUtility::Facility(fac) => fac.lp_items(),
        AnyUtility::KCover(kc) => kc.lp_items(),
    }
}

/// Outcome of the LP pipeline.
#[derive(Clone, Debug)]
pub struct LpOutcome {
    /// Optimal value of the relaxation for **one period** — an upper bound
    /// on any feasible period's true utility.
    pub lp_value: f64,
    /// The best rounded schedule.
    pub schedule: PeriodSchedule,
    /// True (submodular) period utility of `schedule`.
    pub rounded_value: f64,
}

/// The LP-based scheduler.
///
/// # Examples
///
/// ```
/// use cool_core::{lp::LpScheduler, problem::Problem};
/// use cool_common::{SeedSequence, SensorSet};
/// use cool_energy::ChargeCycle;
/// use cool_utility::SumUtility;
///
/// let u = SumUtility::multi_target_detection(
///     &[SensorSet::full(8)], 0.4);
/// let p = Problem::new(u, ChargeCycle::paper_sunny(), 1).unwrap();
/// let out = LpScheduler::new(16)
///     .schedule(&p, &mut SeedSequence::new(3).nth_rng(0))
///     .unwrap();
/// assert!(out.schedule.is_feasible(p.cycle()));
/// assert!(out.rounded_value <= out.lp_value + 1e-9);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct LpScheduler {
    rounding_trials: usize,
}

impl LpScheduler {
    /// Creates a scheduler performing `rounding_trials` independent
    /// rounding passes (the paper's iterated rounding), keeping the best.
    ///
    /// # Panics
    ///
    /// Panics if `rounding_trials == 0`.
    pub fn new(rounding_trials: usize) -> Self {
        assert!(rounding_trials > 0, "need at least one rounding trial");
        LpScheduler { rounding_trials }
    }

    /// Number of rounding passes.
    pub fn rounding_trials(&self) -> usize {
        self.rounding_trials
    }

    /// Runs the pipeline on a problem over [`SumUtility`].
    ///
    /// For `ρ > 1` this is the paper's active-slot LP (`Σ_t x(v,t) ≤ 1`
    /// active slot per period). For `ρ ≤ 1` it solves the **passive
    /// dual**: `x(v,t)` relaxes the indicator "sensor `v` takes its
    /// passive slot at `t`" with `Σ_t x(v,t) = 1`, the coverage link
    /// becomes `y(k,t) + Σ_v q_{k,v}·x(v,t) ≤ Σ_v q_{k,v}` (mass lost to
    /// the sensors resting at `t`), and rounding samples each sensor's
    /// passive slot, emitting a [`ScheduleMode::PassiveSlot`] schedule.
    /// In both regimes `lp_value` upper-bounds `rounded_value`.
    ///
    /// # Errors
    ///
    /// Propagates [`SimplexError`] from the LP solve (a well-formed
    /// scheduling LP is never infeasible or unbounded, so this signals a
    /// malformed utility decomposition).
    pub fn schedule<R: Rng + ?Sized>(
        &self,
        problem: &Problem<SumUtility>,
        rng: &mut R,
    ) -> Result<LpOutcome, SimplexError> {
        if problem.cycle().rho() > 1.0 {
            self.schedule_active(problem, rng)
        } else {
            self.schedule_passive(problem, rng)
        }
    }

    /// `ρ > 1`: one active slot per sensor per period.
    fn schedule_active<R: Rng + ?Sized>(
        self,
        problem: &Problem<SumUtility>,
        rng: &mut R,
    ) -> Result<LpOutcome, SimplexError> {
        let utility = problem.utility();
        let n = problem.n_sensors();
        let t_slots = problem.slots_per_period();

        // Gather items across all parts.
        let items: Vec<(f64, Vec<f64>)> = utility.parts().iter().flat_map(coverage_items).collect();
        let k_items = items.len();

        // Variables: x(v,t) laid out v*T + t, then y(k,t) at n*T + k*T + t.
        let n_x = n * t_slots;
        let n_vars = n_x + k_items * t_slots;
        let mut lp = LinearProgram::new(n_vars);

        let mut objective = vec![0.0; n_vars];
        for (k, (cap, _)) in items.iter().enumerate() {
            for t in 0..t_slots {
                objective[n_x + k * t_slots + t] = *cap;
            }
        }
        lp.set_objective(objective);

        // Σ_t x(v,t) ≤ 1 per sensor.
        for v in 0..n {
            let mut row = vec![0.0; n_vars];
            for t in 0..t_slots {
                row[v * t_slots + t] = 1.0;
            }
            lp.add_constraint(row, Relation::Le, 1.0);
        }
        // y(k,t) ≤ 1 and y(k,t) ≤ Σ_v q_{k,v} x(v,t).
        for (k, (_, masses)) in items.iter().enumerate() {
            for t in 0..t_slots {
                let y = n_x + k * t_slots + t;
                let mut cap_row = vec![0.0; n_vars];
                cap_row[y] = 1.0;
                lp.add_constraint(cap_row, Relation::Le, 1.0);

                let mut link = vec![0.0; n_vars];
                link[y] = 1.0;
                for (v, &q) in masses.iter().enumerate() {
                    if q != 0.0 {
                        link[v * t_slots + t] = -q;
                    }
                }
                lp.add_constraint(link, Relation::Le, 0.0);
            }
        }

        let solution = lp.solve()?;
        let x = &solution.x[..n_x];

        // Randomised rounding, repeated; greedy completion for sensors whose
        // LP row leaves them unscheduled (activating more never hurts a
        // monotone utility).
        let mut best: Option<(f64, PeriodSchedule)> = None;
        for _ in 0..self.rounding_trials {
            let mut assignment = vec![usize::MAX; n];
            let mut evaluators: Vec<_> = (0..t_slots).map(|_| utility.evaluator()).collect();
            for v in 0..n {
                // The simplex solution must be a (sub-)probability row per
                // sensor for the rounding below to be well-defined.
                cool_common::invariant!(
                    (0..t_slots).all(|t| {
                        let p = x[v * t_slots + t];
                        (-1e-9..=1.0 + 1e-9).contains(&p)
                    }),
                    "LP slot-assignment variables for sensor {v} outside [0, 1]"
                );
                cool_common::invariant!(
                    (0..t_slots).map(|t| x[v * t_slots + t]).sum::<f64>() <= 1.0 + 1e-6,
                    "LP slot-assignment row for sensor {v} exceeds probability mass 1"
                );
                let mut u: f64 = rng.random_range(0.0..1.0);
                for t in 0..t_slots {
                    let p = x[v * t_slots + t];
                    if u < p {
                        assignment[v] = t;
                        break;
                    }
                    u -= p;
                }
            }
            for (v, slot) in assignment.iter_mut().enumerate() {
                if *slot == usize::MAX {
                    // Greedy completion.
                    let (_, best_t) = (0..t_slots)
                        .map(|t| (evaluators[t].gain(SensorId(v)), t))
                        .fold(
                            (f64::NEG_INFINITY, 0),
                            |acc, c| if c.0 > acc.0 { c } else { acc },
                        );
                    *slot = best_t;
                }
                evaluators[*slot].insert(SensorId(v));
            }
            let schedule = PeriodSchedule::new(ScheduleMode::ActiveSlot, t_slots, assignment);
            let value = schedule.period_utility(utility);
            if best.as_ref().is_none_or(|(b, _)| value > *b) {
                best = Some((value, schedule));
            }
        }
        let Some((rounded_value, schedule)) = best else {
            unreachable!("trials >= 1, so at least one rounding attempt ran")
        };
        // The envelope relaxation dominates every integral assignment.
        cool_common::invariant!(
            rounded_value <= solution.objective_value + 1e-6,
            "rounded value {rounded_value} exceeds LP bound {}",
            solution.objective_value
        );
        Ok(LpOutcome {
            lp_value: solution.objective_value,
            schedule,
            rounded_value,
        })
    }

    /// `ρ ≤ 1`: one passive slot per sensor per period (the dual form).
    #[allow(clippy::too_many_lines)] // one linear recipe: build rows, solve, round, complete
    fn schedule_passive<R: Rng + ?Sized>(
        self,
        problem: &Problem<SumUtility>,
        rng: &mut R,
    ) -> Result<LpOutcome, SimplexError> {
        let utility = problem.utility();
        let n = problem.n_sensors();
        let t_slots = problem.slots_per_period();

        let items: Vec<(f64, Vec<f64>)> = utility.parts().iter().flat_map(coverage_items).collect();
        let k_items = items.len();

        // Variables: x(v,t) = P(sensor v rests at slot t) laid out v*T + t,
        // then y(k,t) at n*T + k*T + t.
        let n_x = n * t_slots;
        let n_vars = n_x + k_items * t_slots;
        let mut lp = LinearProgram::new(n_vars);

        let mut objective = vec![0.0; n_vars];
        for (k, (cap, _)) in items.iter().enumerate() {
            for t in 0..t_slots {
                objective[n_x + k * t_slots + t] = *cap;
            }
        }
        lp.set_objective(objective);

        // Σ_t x(v,t) = 1 per sensor: everyone rests exactly once.
        for v in 0..n {
            let mut row = vec![0.0; n_vars];
            for t in 0..t_slots {
                row[v * t_slots + t] = 1.0;
            }
            lp.add_constraint(row, Relation::Eq, 1.0);
        }
        // y(k,t) ≤ 1 and y(k,t) ≤ Σ_v q_{k,v} (1 − x(v,t)), i.e.
        // y(k,t) + Σ_v q_{k,v} x(v,t) ≤ Σ_v q_{k,v}.
        for (k, (_, masses)) in items.iter().enumerate() {
            let total_mass: f64 = masses.iter().sum();
            for t in 0..t_slots {
                let y = n_x + k * t_slots + t;
                let mut cap_row = vec![0.0; n_vars];
                cap_row[y] = 1.0;
                lp.add_constraint(cap_row, Relation::Le, 1.0);

                let mut link = vec![0.0; n_vars];
                link[y] = 1.0;
                for (v, &q) in masses.iter().enumerate() {
                    if q != 0.0 {
                        link[v * t_slots + t] = q;
                    }
                }
                lp.add_constraint(link, Relation::Le, total_mass);
            }
        }

        let solution = lp.solve()?;
        let x = &solution.x[..n_x];

        // Round by sampling each sensor's passive slot from its LP row;
        // numerical leftovers fall back to the minimum-loss slot given the
        // draws so far (resting where it hurts least).
        let mut best: Option<(f64, PeriodSchedule)> = None;
        for _ in 0..self.rounding_trials {
            let mut assignment = vec![usize::MAX; n];
            let mut evaluators: Vec<_> = (0..t_slots)
                .map(|_| {
                    let mut e = utility.evaluator();
                    for v in 0..n {
                        e.insert(SensorId(v));
                    }
                    e
                })
                .collect();
            for v in 0..n {
                cool_common::invariant!(
                    (0..t_slots).all(|t| {
                        let p = x[v * t_slots + t];
                        (-1e-9..=1.0 + 1e-9).contains(&p)
                    }),
                    "LP passive-slot variables for sensor {v} outside [0, 1]"
                );
                cool_common::invariant!(
                    ((0..t_slots).map(|t| x[v * t_slots + t]).sum::<f64>() - 1.0).abs() <= 1e-6,
                    "LP passive-slot row for sensor {v} is not a probability row"
                );
                let mut u: f64 = rng.random_range(0.0..1.0);
                for t in 0..t_slots {
                    let p = x[v * t_slots + t];
                    if u < p {
                        assignment[v] = t;
                        break;
                    }
                    u -= p;
                }
            }
            for (v, slot) in assignment.iter_mut().enumerate() {
                if *slot == usize::MAX {
                    let (_, best_t) = (0..t_slots)
                        .map(|t| (evaluators[t].loss(SensorId(v)), t))
                        .fold(
                            (f64::INFINITY, 0),
                            |acc, c| if c.0 < acc.0 { c } else { acc },
                        );
                    *slot = best_t;
                }
                evaluators[*slot].remove(SensorId(v));
            }
            let schedule = PeriodSchedule::new(ScheduleMode::PassiveSlot, t_slots, assignment);
            let value = schedule.period_utility(utility);
            if best.as_ref().is_none_or(|(b, _)| value > *b) {
                best = Some((value, schedule));
            }
        }
        let Some((rounded_value, schedule)) = best else {
            unreachable!("trials >= 1, so at least one rounding attempt ran")
        };
        cool_common::invariant!(
            rounded_value <= solution.objective_value + 1e-6,
            "rounded value {rounded_value} exceeds LP bound {}",
            solution.objective_value
        );
        Ok(LpOutcome {
            lp_value: solution.objective_value,
            schedule,
            rounded_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_schedule;
    use cool_common::{SeedSequence, SensorSet};
    use cool_energy::ChargeCycle;

    fn rng() -> rand::rngs::StdRng {
        SeedSequence::new(55).nth_rng(0)
    }

    fn single_target_problem(n: usize) -> Problem<SumUtility> {
        let u = SumUtility::multi_target_detection(&[SensorSet::full(n)], 0.4);
        Problem::new(u, ChargeCycle::paper_sunny(), 1).unwrap()
    }

    #[test]
    fn lp_value_upper_bounds_optimum() {
        let p = single_target_problem(6);
        let out = LpScheduler::new(8).schedule(&p, &mut rng()).unwrap();
        let opt = crate::optimal::exhaustive_optimal(
            p.utility(),
            p.slots_per_period(),
            ScheduleMode::ActiveSlot,
        );
        let opt_value = opt.period_utility(p.utility());
        assert!(
            out.lp_value + 1e-9 >= opt_value,
            "LP {} should dominate OPT {}",
            out.lp_value,
            opt_value
        );
        assert!(out.rounded_value <= opt_value + 1e-9);
    }

    #[test]
    fn rounded_schedule_is_feasible() {
        let p = single_target_problem(10);
        let out = LpScheduler::new(4).schedule(&p, &mut rng()).unwrap();
        assert!(out.schedule.is_feasible(p.cycle()));
        assert_eq!(out.schedule.n_sensors(), 10);
    }

    #[test]
    fn lp_rounding_is_competitive_with_greedy() {
        // On the paper's single-target instances the LP+rounding result
        // should land within 25% of greedy (usually equal).
        let p = single_target_problem(12);
        let out = LpScheduler::new(32).schedule(&p, &mut rng()).unwrap();
        let g = greedy_schedule(&p).period_utility(p.utility());
        assert!(
            out.rounded_value >= 0.75 * g,
            "LP rounding {} too far below greedy {}",
            out.rounded_value,
            g
        );
    }

    #[test]
    fn multi_target_lp_runs() {
        let mut r = rng();
        let u = crate::instances::random_multi_target(8, 3, 0.5, 0.4, &mut r);
        let p = Problem::new(u, ChargeCycle::paper_sunny(), 1).unwrap();
        let out = LpScheduler::new(8).schedule(&p, &mut r).unwrap();
        assert!(out.lp_value > 0.0);
        assert!(out.schedule.is_feasible(p.cycle()));
    }

    #[test]
    fn items_respect_envelope_inequality() {
        // For random sets: U(S) ≤ Σ_k w_k min(1, Σ q).
        let mut r = rng();
        let u = crate::instances::random_multi_target(10, 4, 0.5, 0.4, &mut r);
        let items: Vec<(f64, Vec<f64>)> = u.parts().iter().flat_map(coverage_items).collect();
        for trial in 0..100 {
            let members: Vec<usize> = (0..10).filter(|_| r.random_range(0.0..1.0) < 0.5).collect();
            let s = SensorSet::from_indices(10, members.iter().copied());
            let envelope: f64 = items
                .iter()
                .map(|(cap, q)| {
                    let mass: f64 = s.iter().map(|v| q[v.index()]).sum();
                    cap * mass.min(1.0)
                })
                .sum();
            assert!(
                u.eval(&s) <= envelope + 1e-9,
                "trial {trial}: U={} > envelope={}",
                u.eval(&s),
                envelope
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rounding trial")]
    fn zero_trials_panics() {
        let _ = LpScheduler::new(0);
    }

    #[test]
    fn passive_lp_schedules_fast_recharge_problems() {
        // Regression (promoted from examples/bugprobe.rs, probe 1): the
        // scheduler used to emit an ActiveSlot plan regardless of ρ, which
        // is infeasible on a ρ ≤ 1 cycle. The passive dual must produce a
        // feasible PassiveSlot schedule bounded by the LP value.
        let u = SumUtility::multi_target_detection(&[SensorSet::full(6)], 0.4);
        let cycle = ChargeCycle::from_rho(0.5, 10.0).unwrap();
        let p = Problem::new(u, cycle, 1).unwrap();
        let out = LpScheduler::new(4).schedule(&p, &mut rng()).unwrap();
        assert_eq!(out.schedule.mode(), ScheduleMode::PassiveSlot);
        assert!(out.schedule.is_feasible(p.cycle()));
        assert!(
            out.rounded_value <= out.lp_value + 1e-9,
            "rounded {} must not exceed LP bound {}",
            out.rounded_value,
            out.lp_value
        );
        assert!(out.rounded_value > 0.0);
    }

    #[test]
    fn passive_lp_value_upper_bounds_passive_optimum() {
        let u = SumUtility::multi_target_detection(&[SensorSet::full(5)], 0.4);
        let cycle = ChargeCycle::from_rho(1.0 / 3.0, 10.0).unwrap();
        let p = Problem::new(u, cycle, 1).unwrap();
        let out = LpScheduler::new(8).schedule(&p, &mut rng()).unwrap();
        let opt = crate::optimal::exhaustive_optimal(
            p.utility(),
            p.slots_per_period(),
            ScheduleMode::PassiveSlot,
        );
        let opt_value = opt.period_utility(p.utility());
        assert!(
            out.lp_value + 1e-9 >= opt_value,
            "LP {} should dominate passive OPT {}",
            out.lp_value,
            opt_value
        );
        assert!(out.rounded_value <= opt_value + 1e-9);
    }

    #[test]
    fn rounded_value_never_exceeds_lp_value() {
        // Regression (promoted from examples/bugprobe.rs, probe 3): the
        // envelope relaxation upper-bounds every rounded draw, including
        // greedy-completed ones, in both ρ regimes.
        let mut r = rng();
        for seed in 0..8u64 {
            let mut trial_rng = SeedSequence::new(seed).nth_rng(4);
            let u = crate::instances::random_multi_target(6, 2, 0.5, 0.4, &mut trial_rng);
            for cycle in [
                ChargeCycle::paper_sunny(),
                ChargeCycle::from_rho(0.5, 10.0).unwrap(),
            ] {
                let p = Problem::new(u.clone(), cycle, 1).unwrap();
                let out = LpScheduler::new(16).schedule(&p, &mut r).unwrap();
                assert!(
                    out.rounded_value <= out.lp_value + 1e-9,
                    "seed {seed} rho {}: rounded {} > lp {}",
                    cycle.rho(),
                    out.rounded_value,
                    out.lp_value
                );
            }
        }
    }
}
