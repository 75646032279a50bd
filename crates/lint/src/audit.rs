//! `cool audit`: the whole-scenario static-analysis bundle.
//!
//! Runs every lint pass over one scenario file in a fixed order and merges
//! the findings into a single [`Report`]:
//!
//! 1. the scenario-file lint: its text stage
//!    ([`crate::scenario::lint_scenario_fields`]) and, on clean fields, its
//!    instance stage ([`crate::scenario::lint_scenario_instance`]);
//! 2. on lintable scenarios, the instance-derived passes, over the exact
//!    instance the scenario runs (`Scenario::instance`) and the greedy
//!    schedule built on it:
//!    * concrete schedule replay ([`crate::schedule::lint_schedule`]);
//!    * abstract-interpretation energy audit over the configured
//!      initial-charge interval
//!      ([`crate::abstract_energy::lint_schedule_abstract`], `COOL-E025`)
//!      plus the ∀-initial-charges feasibility proof;
//!    * dominated sensors / dead slots
//!      ([`crate::dominance`], `COOL-W007`/`W008`);
//!    * communication-graph connectivity
//!      ([`crate::connectivity`], `COOL-W009`, opt-in via `comms_radius`).
//! 3. on scenarios with per-sensor profile lists (`battery`, `mu_d`,
//!    `mu_r`, `solar_eff`), the heterogeneous passes instead: the fleet
//!    grid (`Scenario::build_fleet`) and heterogeneous greedy schedule are
//!    derived, replayed concretely
//!    ([`crate::schedule::lint_grid_schedule`]) and abstractly
//!    ([`crate::abstract_energy::lint_grid_schedule_abstract`]) with each
//!    sensor's **own** drain/refill rates — the `--initial-charge`
//!    interval is a fraction of each sensor's own capacity, never of one
//!    global battery.
//!
//! Everything is deterministic: the same scenario text and options always
//! produce the same report, byte for byte.

use crate::abstract_energy::{
    lint_grid_schedule_abstract, lint_schedule_abstract, proves_feasible_for_all,
    proves_grid_feasible_for_all,
};
use crate::connectivity::lint_connectivity;
use crate::diag::Report;
use crate::dominance::{lint_dead_slots, lint_dominance};
use crate::scenario::{self, FieldLint};
use crate::schedule::{lint_grid_schedule, lint_schedule};
use cool_common::Interval;
use cool_core::greedy::{greedy_active_lazy, greedy_passive_lazy};
use cool_core::hetero::hetero_greedy_lazy;
use cool_energy::ChargeCycle;
use cool_scenario::{BuiltFleetScenario, Scenario};

/// Audit configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditOptions {
    /// Initial battery charges the energy audit must prove the schedule
    /// feasible for. The default, the point `[1, 1]`, is the deployment
    /// contract (nodes ship fully charged) under which a clean `cool lint`
    /// scenario also audits clean; widen it (`--initial-charge 0:1` in the
    /// CLI) to audit cold-start deployments.
    pub initial_charge: Interval,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            initial_charge: Interval::point(1.0),
        }
    }
}

/// The audit verdict: the merged report plus the energy-proof summary.
#[derive(Clone, Debug)]
pub struct AuditOutcome {
    /// Every finding, in pass order.
    pub report: Report,
    /// `true` when the abstract interpreter proved the derived schedule
    /// energy-feasible for **every** initial charge in `[0, 1]` — the
    /// ∀-upgrade of the single-trajectory `COOL-E004` replay.
    pub universally_feasible: bool,
}

/// Audits scenario text, attributing diagnostics to `file`: the scenario
/// lint's text and instance stages, then the deep passes.
#[must_use]
pub fn audit_scenario_text(text: &str, file: &str, options: &AuditOptions) -> AuditOutcome {
    let FieldLint { mut report, spec } = scenario::lint_scenario_fields(text, file);
    let Some(spec) = spec else {
        // Structural or field errors: the deep passes would derive an
        // instance from unusable fields; the text stage already said why.
        return AuditOutcome {
            report,
            universally_feasible: false,
        };
    };
    report.merge(scenario::lint_scenario_instance(&spec).report);
    if !report.is_clean() {
        return AuditOutcome {
            report,
            universally_feasible: false,
        };
    }
    let universally_feasible = run_instance_passes(&spec, options, &mut report);
    AuditOutcome {
        report,
        universally_feasible,
    }
}

/// Reads and audits a scenario file from disk.
///
/// # Errors
///
/// Returns the I/O error message when the file cannot be read.
pub fn audit_scenario_path(path: &str, options: &AuditOptions) -> Result<AuditOutcome, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(audit_scenario_text(&text, path, options))
}

/// The instance-derived passes; returns the ∀-feasibility verdict.
fn run_instance_passes(spec: &Scenario, options: &AuditOptions, report: &mut Report) -> bool {
    if spec.has_profiles() {
        return run_fleet_passes(spec, options, report);
    }
    let Ok(cycle) = ChargeCycle::from_minutes(spec.discharge_minutes, spec.recharge_minutes) else {
        return false; // the field lint already reported the cycle error
    };
    let Ok((utility, positions, targets)) = spec.instance() else {
        return false; // the field lint already reported the geometry error
    };
    let slots = cycle.slots_per_period();
    let built = if cycle.rho() > 1.0 {
        greedy_active_lazy(&utility, slots)
    } else {
        greedy_passive_lazy(&utility, slots)
    };
    let Ok(schedule) = built else {
        return false; // unbuildable schedule: field lint owns the cause
    };

    report.merge(lint_schedule(&schedule, cycle));
    report.merge(lint_schedule_abstract(
        &schedule,
        cycle,
        options.initial_charge,
    ));
    report.merge(lint_dominance(&utility));
    report.merge(lint_dead_slots(&schedule));
    report.merge(lint_connectivity(
        &positions,
        &targets,
        spec.radius,
        spec.comms_radius,
        &schedule,
    ));
    proves_feasible_for_all(&schedule, cycle, Interval::UNIT)
}

/// The heterogeneous analogue of the instance passes: when the scenario
/// sets per-sensor profile lists, the audit derives the fleet grid and the
/// heterogeneous greedy schedule, replays it concretely and abstractly
/// with each sensor's **own** drain/refill rates, and interprets the
/// `--initial-charge` interval as a fraction of each sensor's own battery
/// capacity (not one global capacity). Dead-slot and connectivity passes
/// are slot-grid-shaped and do not apply here.
fn run_fleet_passes(spec: &Scenario, options: &AuditOptions, report: &mut Report) -> bool {
    let Ok(BuiltFleetScenario { utility, grid, .. }) = spec.build_fleet() else {
        return false; // bad profile, grid or geometry: the field lint owns it
    };
    let Ok(schedule) = hetero_greedy_lazy(&utility, &grid) else {
        return false; // non-finite utility gain: nothing sound to replay
    };
    let schedule = schedule.to_grid_schedule();
    report.merge(lint_grid_schedule(&schedule, &grid));
    report.merge(lint_grid_schedule_abstract(
        &schedule,
        &grid,
        options.initial_charge,
    ));
    report.merge(lint_dominance(&utility));
    proves_grid_feasible_for_all(&schedule, &grid, Interval::UNIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::CoolCode;

    #[test]
    fn default_scenario_audits_clean_under_deployment_contract() {
        let out = audit_scenario_text("", "default.txt", &AuditOptions::default());
        assert!(out.report.is_clean(), "{}", out.report);
        assert!(
            !out.report.has_code(CoolCode::AbstractEnergyInfeasible),
            "{}",
            out.report
        );
    }

    #[test]
    fn cold_start_audit_flags_early_slots() {
        // From an empty battery, sensors assigned to early slots provably
        // refuse their activation: widening the audited interval to [0, 1]
        // must surface COOL-E025 on the paper testbed.
        let options = AuditOptions {
            initial_charge: Interval::UNIT,
        };
        let out = audit_scenario_text("", "default.txt", &options);
        assert!(
            out.report.has_code(CoolCode::AbstractEnergyInfeasible),
            "{}",
            out.report
        );
        assert!(
            !out.universally_feasible,
            "a schedule with cold-start failures is not universally feasible"
        );
    }

    #[test]
    fn broken_scenario_skips_instance_passes() {
        let out = audit_scenario_text("sensors = lots\n", "bad.txt", &AuditOptions::default());
        assert!(!out.report.is_clean());
        assert!(!out.universally_feasible);
        assert!(!out.report.has_code(CoolCode::DominatedSensor));
    }

    #[test]
    fn audit_is_deterministic() {
        let a = audit_scenario_text("sensors = 30\n", "s.txt", &AuditOptions::default());
        let b = audit_scenario_text("sensors = 30\n", "s.txt", &AuditOptions::default());
        assert_eq!(a.report, b.report);
        assert_eq!(a.universally_feasible, b.universally_feasible);
    }

    #[test]
    fn mixed_fleet_audit_normalises_charge_to_each_sensors_capacity() {
        // Two profiles differing only in battery (30 Wh vs 60 Wh): the
        // deployment contract audits clean, and widening the audited
        // interval surfaces per-sensor COOL-E025 thresholds expressed as
        // fractions of each sensor's OWN capacity. The greedy tie-break
        // pins the first run at tick 0, so a cold start provably fails.
        let text = "sensors = 2\nbattery = 30, 60\n";
        let out = audit_scenario_text(text, "fleet.txt", &AuditOptions::default());
        assert!(out.report.is_clean(), "{}", out.report);
        assert!(
            !out.universally_feasible,
            "a tick-0 run cannot be honoured from an empty battery"
        );
        let options = AuditOptions {
            initial_charge: Interval::UNIT,
        };
        let cold = audit_scenario_text(text, "fleet.txt", &options);
        assert!(
            cold.report.has_code(CoolCode::AbstractEnergyInfeasible),
            "{}",
            cold.report
        );
        assert!(
            cold.report.to_string().contains("of its own capacity"),
            "{}",
            cold.report
        );
    }

    #[test]
    fn mixed_fleet_audit_is_deterministic() {
        let text = "sensors = 3\nbattery = 30, 60\nsolar_eff = 1, 1, 0.5\n";
        let options = AuditOptions {
            initial_charge: Interval::new(0.25, 1.0),
        };
        let a = audit_scenario_text(text, "fleet.txt", &options);
        let b = audit_scenario_text(text, "fleet.txt", &options);
        assert_eq!(a.report, b.report);
        assert_eq!(a.universally_feasible, b.universally_feasible);
    }

    #[test]
    fn broken_profile_list_skips_fleet_passes() {
        let out = audit_scenario_text(
            "sensors = 2\nbattery = 30, nope\n",
            "bad.txt",
            &AuditOptions::default(),
        );
        assert!(!out.report.is_clean());
        assert!(!out.universally_feasible);
        assert!(!out.report.has_code(CoolCode::AbstractEnergyInfeasible));
    }

    #[test]
    fn connectivity_pass_is_wired_through_comms_radius() {
        // A sparse deployment with a tiny comms radius: if the greedy's
        // active sets are coverage-complete anywhere, W009 can fire; either
        // way the audit must stay deterministic and warning-only.
        let text = "sensors = 12\ntargets = 3\ncomms_radius = 1\n";
        let out = audit_scenario_text(text, "s.txt", &AuditOptions::default());
        assert!(out.report.is_clean(), "W009 is a warning: {}", out.report);
    }
}
