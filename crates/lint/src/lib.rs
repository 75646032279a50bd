//! Static invariant analysis for Cool scenarios, schedules, and utilities.
//!
//! Everything the schedulers and the testbed simulator *assume* — the slot
//! algebra of §II-B, per-sensor energy budgets, the submodular-utility
//! axioms behind the greedy's ½-approximation (Lemma 4.1), and the scenario
//! file grammar — is checkable **before** anything executes. This crate
//! performs those checks and reports findings as [`Diagnostic`]s carrying
//! stable, append-only [`CoolCode`]s (`COOL-E001`, `COOL-W004`, …),
//! severity levels, and source locations into scenario files; a [`Report`]
//! renders them for humans or as JSON for tooling.
//!
//! # Entry points
//!
//! * [`lint_scenario_text`] / [`lint_scenario_path`] — scenario files
//!   (`cool lint <scenario>` in the CLI), the composition of two stages
//!   that callers can also run apart: [`lint_scenario_fields`], the text
//!   stage (tolerant parse and field checks, microseconds), and
//!   [`lint_scenario_instance`], the instance stage (instance derivation,
//!   geometry and the utility axioms, which a sum of detection parts has
//!   by theorem; a pure function of the parsed `cool_scenario::Scenario`
//!   that also returns the utility it derived). Both read the grammar and
//!   derive the instance through `cool_scenario`, which owns them;
//! * [`lint_schedule`] / [`lint_horizon`] — schedules against charge
//!   cycles;
//! * [`lint_utility`] / [`lint_universe`] — utility implementations against
//!   the submodular axioms, by sampling;
//! * [`preflight`] — the bundle of checks the testbed simulator runs before
//!   accepting a plan.
//!
//! # Example
//!
//! ```
//! use cool_lint::lint_scenario_text;
//! use cool_common::CoolCode;
//!
//! let report = lint_scenario_text("detection_p = 1.5\n", "bad.txt");
//! assert!(!report.is_clean());
//! assert!(report.has_code(CoolCode::InvalidProbability));
//! assert!(report.to_json().contains("COOL-E005"));
//! ```

pub mod abstract_energy;
pub mod audit;
pub mod connectivity;
pub mod diag;
pub mod dominance;
pub mod sarif;
pub mod scenario;
pub mod schedule;
pub mod utility;

pub use abstract_energy::{
    feasible_region, grid_feasible_region, grid_sensor_replay_clean, interval_step, interval_tick,
    lint_grid_schedule_abstract, lint_schedule_abstract, proves_feasible_for_all,
    proves_grid_feasible_for_all, sensor_replay_clean, FeasibleRegion,
};
pub use audit::{audit_scenario_path, audit_scenario_text, AuditOptions, AuditOutcome};
pub use connectivity::lint_connectivity;
pub use cool_common::CoolCode;
pub use diag::{Diagnostic, Report, Severity};
pub use dominance::{lint_dead_slots, lint_dominance};
pub use sarif::to_sarif;
pub use scenario::{
    lint_geometry, lint_scenario_fields, lint_scenario_instance, lint_scenario_path,
    lint_scenario_text, FieldLint, InstanceLint,
};
pub use schedule::{lint_grid_schedule, lint_horizon, lint_schedule, lint_schedule_from};
pub use utility::{lint_universe, lint_utility};

use cool_common::SeedSequence;
use cool_utility::UtilityFunction;

/// Sampling trials used by [`preflight`]'s utility-axiom check — small
/// enough to be negligible next to a simulation run, large enough to catch
/// the systematic violations that break the greedy's guarantee.
const PREFLIGHT_TRIALS: usize = 64;

/// The mandatory pre-flight bundle for a simulator entry: universe/size
/// consistency, a non-empty horizon, and a sampled utility-axiom
/// conformance check (deterministic — the RNG is fixed, so a given input
/// always produces the same report).
pub fn preflight<U: UtilityFunction>(utility: &U, n_nodes: usize, slots: usize) -> Report {
    let mut report = Report::new();
    if slots == 0 {
        report.push(
            Diagnostic::new(CoolCode::EmptySlotCount, "simulation horizon is zero slots")
                .with_help("run the simulator for at least one slot"),
        );
    }
    report.merge(lint_universe(utility, n_nodes));
    if report.is_clean() {
        report.merge(lint_utility(
            utility,
            PREFLIGHT_TRIALS,
            &mut SeedSequence::new(0).nth_rng(0),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_utility::DetectionUtility;

    #[test]
    fn preflight_accepts_conforming_input() {
        let u = DetectionUtility::uniform(6, 0.4);
        let r = preflight(&u, 6, 48);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn preflight_rejects_universe_mismatch() {
        let u = DetectionUtility::uniform(6, 0.4);
        let r = preflight(&u, 7, 48);
        assert!(r.has_code(CoolCode::UniverseMismatch), "{r}");
    }

    #[test]
    fn preflight_rejects_zero_slots() {
        let u = DetectionUtility::uniform(6, 0.4);
        let r = preflight(&u, 6, 0);
        assert!(r.has_code(CoolCode::EmptySlotCount), "{r}");
    }

    #[test]
    fn preflight_is_deterministic() {
        let u = DetectionUtility::uniform(6, 0.4);
        assert_eq!(preflight(&u, 6, 48), preflight(&u, 6, 48));
    }
}
