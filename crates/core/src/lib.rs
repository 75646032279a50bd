//! Dynamic node-activation scheduling for solar-powered sensor coverage.
//!
//! This crate is the primary contribution of *"Cool: On Coverage with
//! Solar-Powered Sensors"* (Tang, Li, Shen, Zhang, Dai, Das — ICDCS 2011):
//! given `n` homogeneous solar-rechargeable sensors whose charging period
//! spans `T` time slots, and a non-decreasing submodular utility over the
//! set of simultaneously active sensors, compute an activation schedule for
//! a working time `L = αT` maximising total (equivalently average) utility.
//!
//! # What's here
//!
//! * [`Problem`] — the instance: utility + [`ChargeCycle`](cool_energy::ChargeCycle) + horizon
//!   ([`problem`]);
//! * [`PeriodSchedule`] / feasibility checking ([`schedule`]);
//! * **Greedy hill-climbing** (Algorithm 1) with naive and lazy (CELF)
//!   implementations, for both the `ρ > 1` active-slot allocation and the
//!   `ρ ≤ 1` passive-slot allocation — ½-approximate (Lemma 4.1,
//!   Theorems 4.3, 4.4) ([`greedy`]);
//! * **LP relaxation** (§IV-A.1): the integer program's linear relaxation
//!   solved by an in-crate two-phase simplex, then randomised rounding
//!   ([`lp`], [`simplex`]);
//! * **Exact solvers** — exhaustive enumeration and submodularity-pruned
//!   branch & bound, used as the "optimal by enumeration" reference of
//!   Fig. 8 ([`optimal`]);
//! * the single-target closed-form upper bound `1 − (1−p)^⌈n/T⌉` of §VI-B
//!   and companions ([`bounds`]);
//! * baselines (random, round-robin, static) ([`baselines`]);
//! * activation policies for driving a simulator ([`policy`]);
//! * the §V stochastic-charging scheduling pipeline (`ρ'`-based) and its
//!   Monte-Carlo evaluation ([`stochastic`]);
//! * random/geometric instance generators shared by tests, benches and the
//!   experiment harness ([`instances`]).
//!
//! # Example: the paper's single-target experiment in miniature
//!
//! ```
//! use cool_core::{greedy::greedy_schedule_lazy, problem::Problem};
//! use cool_energy::ChargeCycle;
//! use cool_utility::DetectionUtility;
//!
//! // 12 sensors, one target, p = 0.4, sunny cycle (T = 4 slots).
//! let problem = Problem::new(
//!     DetectionUtility::uniform(12, 0.4),
//!     ChargeCycle::paper_sunny(),
//!     12, // α periods — a 12-hour day
//! ).unwrap();
//! let schedule = greedy_schedule_lazy(&problem);
//! assert!(schedule.is_feasible(problem.cycle()));
//! let avg = problem.average_utility_per_target_slot(&schedule);
//! assert!(avg > 0.5, "greedy is at least half of the (≤1) optimum");
//! ```

pub mod baselines;
pub mod bounds;
pub mod errors;
pub mod greedy;
pub mod hetero;
pub mod horizon;
pub mod instances;
pub mod local_search;
pub mod lp;
pub mod lp_window;
pub mod optimal;
pub mod policy;
pub mod problem;
pub mod repair;
pub mod schedule;
pub mod simplex;
pub mod stochastic;
pub mod symmetric;

pub use baselines::{
    hef_schedule, random_schedule, round_robin_schedule, rsc_schedule, set_once_schedule,
    static_schedule,
};
pub use bounds::{grid_duty_upper_bound, single_target_upper_bound};
pub use errors::ScheduleBuildError;
pub use greedy::{
    greedy_schedule, greedy_schedule_lazy, try_greedy_schedule, try_greedy_schedule_lazy,
};
pub use hetero::{
    hetero_greedy_lazy, hetero_greedy_naive, phases_from_period_schedule, FleetSchedule,
    GridSchedule,
};
pub use horizon::{greedy_horizon, HorizonSchedule};
pub use local_search::{improve_schedule, LocalSearchOutcome};
pub use lp::{LpOutcome, LpScheduler};
pub use lp_window::{solve_window_lp, RepairStrategy, WindowLpOutcome};
pub use optimal::{branch_and_bound, exhaustive_optimal};
pub use problem::{Problem, ProblemError};
pub use repair::{repair_schedule, RepairConfig, RepairMode, RepairOutcome};
pub use schedule::{PeriodSchedule, ScheduleMode};
pub use simplex::{LinearProgram, SimplexError, SimplexSolution};
pub use symmetric::{balanced_partition, optimal_partition_dp, SymmetricOptimum};
