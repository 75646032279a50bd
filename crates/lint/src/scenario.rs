//! Scenario-file linting.
//!
//! [`lint_scenario_text`] reads the `key = value` scenario grammar of
//! `cool_scenario` *tolerantly*: it walks the same [`assignments`] as
//! [`Scenario::parse`] and parses each value with the same
//! [`Scenario::assign`], but instead of stopping at the first malformed
//! input it records every problem as a [`Diagnostic`] with a line number.
//! When the fields are usable it goes on to check the physical invariants
//! the schedulers assume (slot algebra, probabilities, geometry) and, on
//! the instance [`Scenario::instance`] derives, the placement of every
//! sensor and the weight of every target. Nothing here executes a
//! scheduler or the simulator.
//!
//! The lint runs in two stages, and [`lint_scenario_text`] is exactly
//! their composition:
//!
//! 1. the **text stage**, [`lint_scenario_fields`]: the tolerant parse and
//!    the field checks — microseconds, and the only stage that sees the
//!    text itself (line numbers, duplicate keys);
//! 2. the **instance stage**, [`lint_scenario_instance`]: instance
//!    derivation, geometry and the utility axioms — about the cost of the
//!    derivation, and a deterministic function of the parsed [`Scenario`]
//!    alone. It runs only when the text stage is clean, and returns the
//!    utility it derived so a caller can solve on it
//!    ([`Scenario::build_with`]) instead of deriving it again.
//!
//! The utility axioms are proved, not sampled, for the utility every
//! scenario derives: a sum of detection parts (Eq. 1) is normalised,
//! monotone, submodular and finite by theorem. Only a utility of another
//! shape would go through the sampled [`lint_utility`], which stays the
//! check's oracle (`tests/lint_soundness.rs`).

use crate::diag::{Diagnostic, Report};
use crate::utility::{lint_universe, lint_utility};
use cool_common::{CoolCode, SeedSequence};
use cool_energy::{ChargeCycle, CycleError, Fleet, FleetError, FleetGrid};
use cool_geometry::deployment::DiskIndex;
use cool_geometry::{Point, Rect};
use cool_scenario::{assignments, Scenario, ScenarioError, KEYS};
use cool_utility::{AnyUtility, SumUtility};

/// Trials for the sampled utility-axiom conformance check of an instance
/// utility that is not a sum of detection parts.
const AXIOM_TRIALS: usize = 200;

/// Lints scenario text, attributing diagnostics to `file`: the text stage
/// followed, on clean fields, by the instance stage.
///
/// The returned [`Report`] is clean (possibly with warnings) exactly when
/// the scenario can be handed to the scheduler pipeline without panicking
/// or producing a meaningless result.
pub fn lint_scenario_text(text: &str, file: &str) -> Report {
    let FieldLint { mut report, spec } = lint_scenario_fields(text, file);
    if let Some(spec) = spec {
        report.merge(lint_scenario_instance(&spec).report);
    }
    report
}

/// The text stage's verdict on one scenario text.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldLint {
    /// Parse and field-check diagnostics, attributed to the linted file.
    pub report: Report,
    /// The parsed scenario when every present field parsed and the report
    /// is clean — the input of [`lint_scenario_instance`]; `None`
    /// otherwise.
    pub spec: Option<Scenario>,
}

/// The text stage: the tolerant parse and the field-level (value-range and
/// slot-algebra) checks, attributing diagnostics to `file`. It derives no
/// instance, so it costs microseconds.
pub fn lint_scenario_fields(text: &str, file: &str) -> FieldLint {
    let mut report = Report::for_file(file);
    let (spec, seen, fields_usable) = parse_tolerant(text, &mut report);
    check_fields(&spec, &seen, &mut report);
    // Deeper, instance-level checks only make sense on well-formed fields.
    let spec = (fields_usable && report.is_clean()).then_some(spec);
    FieldLint { report, spec }
}

/// The instance stage's verdict on one parsed scenario.
#[derive(Clone, Debug)]
pub struct InstanceLint {
    /// Instance diagnostics; they carry no file or line.
    pub report: Report,
    /// The instance utility the stage derived ([`Scenario::instance`]) and
    /// linted, for [`Scenario::build_with`]; `None` when the derivation
    /// failed.
    pub utility: Option<SumUtility>,
}

/// The instance stage: derive the geometric instance the scenario runs
/// ([`Scenario::instance`]) and inspect each sensor's placement, each
/// target's weight, the utility universe, and the submodular-utility
/// axioms the greedy's approximation guarantee rests on
/// ([`lint_instance_utility`]). A pure function of `spec`.
///
/// Its geometry findings are those [`lint_geometry`] returns on the derived
/// positions, without a second coverage index: a derived target always has
/// a coverer (`geometric_multi_target` keeps only covered candidates, and
/// its fallback places the target on a sensor), so COOL-W004 cannot fire.
pub fn lint_scenario_instance(spec: &Scenario) -> InstanceLint {
    let mut report = Report::new();
    let (utility, positions, targets) = match spec.instance() {
        Ok(instance) => instance,
        Err(message) => {
            // Unreachable after a clean text stage, which rejects the same
            // geometry with line numbers.
            report.push(Diagnostic::new(CoolCode::ScenarioFieldInvalid, message));
            return InstanceLint {
                report,
                utility: None,
            };
        }
    };

    report.merge(lint_sensor_region(&positions, Rect::square(spec.region)));
    if spec.detection_p == 0.0 {
        for k in 0..targets.len() {
            report.push(zero_weight_target(k));
        }
    }
    report.merge(lint_derived_utility(&utility, spec));
    InstanceLint {
        report,
        utility: Some(utility),
    }
}

/// The instance stage's checks of the derived utility: empty detection
/// parts, the universe, and the axioms.
fn lint_derived_utility(utility: &SumUtility, spec: &Scenario) -> Report {
    let mut report = Report::new();
    // Defence in depth: any detection part whose probabilities are all zero
    // (an empty support over a non-empty universe) despite a positive
    // detection_p (degenerate instance construction).
    for (k, part) in utility.parts().iter().enumerate() {
        if let AnyUtility::Detection(d) = part {
            if spec.detection_p > 0.0 && d.probs().universe() > 0 && d.probs().is_empty() {
                report.push(Diagnostic::new(
                    CoolCode::ZeroWeightTarget,
                    format!("target {k}'s detection probabilities are all zero"),
                ));
            }
        }
    }
    report.merge(lint_universe(utility, spec.sensors));
    report.merge(lint_instance_utility(utility, spec.seed));
    report
}

/// The utility axioms of the instance of a scenario seeded `seed`. A sum of
/// detection parts ([`is_detection_sum`]) has them by theorem and gets no
/// finding; any other sum is sampled by [`lint_utility`] on
/// [`AXIOM_TRIALS`] set pairs drawn from the seed's last stream.
fn lint_instance_utility(utility: &SumUtility, seed: u64) -> Report {
    if is_detection_sum(utility) {
        return Report::new();
    }
    lint_utility(
        utility,
        AXIOM_TRIALS,
        &mut SeedSequence::new(seed).nth_rng(u64::MAX),
    )
}

/// `true` when every part is a detection part `1 − Π_{v∈S}(1 − p_v)` whose
/// stored probabilities are finite and in `[0, 1]`. Such a sum is
/// normalised (the empty product is 1), finite (each part lies in
/// `[0, 1]`), monotone and submodular: adding `v` to `S` gains
/// `p_v · Π_{u∈S}(1 − p_u) ≥ 0` in each part, and every factor `1 − p_u`
/// is at most 1, so the gain can only shrink as `S` grows. COOL-E009–E011
/// and E015 cannot fire on it.
fn is_detection_sum(utility: &SumUtility) -> bool {
    utility.parts().iter().all(|part| match part {
        AnyUtility::Detection(d) => d.probs().values().iter().all(|p| (0.0..=1.0).contains(p)),
        _ => false,
    })
}

/// Reads and lints a scenario file from disk.
///
/// # Errors
///
/// Returns the I/O error message when the file cannot be read (an unreadable
/// file is not a lint finding — there is nothing to attach a line to).
pub fn lint_scenario_path(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(lint_scenario_text(&text, path))
}

/// Tolerant `key = value` parse: every malformed line, unknown key,
/// duplicate key, and unparsable value becomes a diagnostic, and parsing
/// continues. Returns the scenario (defaults where a value was unusable),
/// each known key's assignment lines in order, and whether every *present*
/// field parsed.
fn parse_tolerant<'a>(
    text: &'a str,
    report: &mut Report,
) -> (Scenario, Vec<(&'a str, usize)>, bool) {
    let mut spec = Scenario::default();
    let mut seen: Vec<(&str, usize)> = Vec::new();
    let mut usable = true;

    for (lineno, assignment) in assignments(text) {
        let (key, value) = match assignment {
            Ok(pair) => pair,
            Err(raw) => {
                report.push(
                    Diagnostic::new(
                        CoolCode::ScenarioLineMalformed,
                        format!("expected `key = value`, got `{raw}`"),
                    )
                    .with_line(lineno)
                    .with_help("write one `key = value` assignment per line; `#` starts a comment"),
                );
                usable = false;
                continue;
            }
        };

        if !KEYS.contains(&key) {
            report.push(
                Diagnostic::new(CoolCode::UnknownScenarioKey, format!("unknown key `{key}`"))
                    .with_line(lineno)
                    .with_help(format!("known keys: {}", KEYS.join(", "))),
            );
            continue;
        }
        if let Some((_, first)) = seen.iter().find(|(k, _)| *k == key) {
            report.push(
                Diagnostic::new(
                    CoolCode::DuplicateScenarioKey,
                    format!("`{key}` was already set on line {first}; the later value wins"),
                )
                .with_line(lineno),
            );
        }
        seen.push((key, lineno));

        // `KEYS` holds every key `assign` knows, so the only error left is
        // a value that does not parse; ranges are `check_fields`' job.
        if let Err(ScenarioError::BadValue { expected, .. }) = spec.assign(key, value) {
            report.push(
                Diagnostic::new(
                    CoolCode::ScenarioFieldInvalid,
                    format!("bad value `{value}` for `{key}`"),
                )
                .with_line(lineno)
                .with_help(format!("expected {expected}")),
            );
            usable = false;
        }
    }
    (spec, seen, usable)
}

/// Field-level (value-range and slot-algebra) invariants.
// One flat checklist, one check per field — splitting it would only
// scatter the field order.
#[allow(clippy::too_many_lines)]
fn check_fields(spec: &Scenario, seen: &[(&str, usize)], report: &mut Report) {
    // The line that last assigned `key`, for diagnostics.
    let line_of = |key: &str| {
        seen.iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|&(_, lineno)| lineno)
    };
    if spec.sensors == 0 {
        report.push(
            Diagnostic::new(
                CoolCode::ScenarioFieldInvalid,
                "`sensors` must be at least 1",
            )
            .with_line(line_of("sensors").unwrap_or(1)),
        );
    }
    if spec.targets == 0 {
        report.push(
            Diagnostic::new(
                CoolCode::ScenarioFieldInvalid,
                "`targets` must be at least 1",
            )
            .with_line(line_of("targets").unwrap_or(1)),
        );
    }
    if !spec.detection_p.is_finite() || !(0.0..=1.0).contains(&spec.detection_p) {
        let mut d = Diagnostic::new(
            CoolCode::InvalidProbability,
            format!("detection_p = {} is not a probability", spec.detection_p),
        )
        .with_help("per-slot detection probability must lie in [0, 1]");
        if let Some(line) = line_of("detection_p") {
            d = d.with_line(line);
        }
        report.push(d);
    }

    // Slot algebra (§II-B): both durations positive and ρ (or 1/ρ) integral.
    let mut durations_ok = true;
    for (label, value, line) in [
        (
            "discharge_minutes",
            spec.discharge_minutes,
            line_of("discharge_minutes"),
        ),
        (
            "recharge_minutes",
            spec.recharge_minutes,
            line_of("recharge_minutes"),
        ),
        ("hours", spec.hours, line_of("hours")),
    ] {
        if !value.is_finite() || value <= 0.0 {
            durations_ok = false;
            let mut d = Diagnostic::new(
                CoolCode::NonPositiveDuration,
                format!("{label} = {value} must be positive and finite"),
            );
            if let Some(line) = line {
                d = d.with_line(line);
            }
            report.push(d);
        }
    }
    // Per-sensor profiles: range-check each list, then the per-sensor slot
    // algebra and the LCM grid (profiles override the duration keys).
    if spec.has_profiles() {
        let mut profiles_ok = spec.sensors > 0;
        for (label, values, line, max) in [
            ("battery", &spec.battery, line_of("battery"), f64::INFINITY),
            ("mu_d", &spec.mu_d, line_of("mu_d"), f64::INFINITY),
            ("mu_r", &spec.mu_r, line_of("mu_r"), f64::INFINITY),
            ("solar_eff", &spec.solar_eff, line_of("solar_eff"), 1.0),
        ] {
            for (i, &x) in values.iter().enumerate() {
                if !x.is_finite() || x <= 0.0 || x > max {
                    profiles_ok = false;
                    let bound = if max.is_finite() {
                        " and at most 1"
                    } else {
                        ""
                    };
                    let mut d = Diagnostic::new(
                        CoolCode::ScenarioFieldInvalid,
                        format!("{label}[{i}] = {x} must be positive and finite{bound}"),
                    );
                    if let Some(line) = line {
                        d = d.with_line(line);
                    }
                    report.push(d);
                }
            }
        }
        if profiles_ok && durations_ok {
            let profile_line = line_of("battery")
                .or(line_of("mu_d"))
                .or(line_of("mu_r"))
                .or(line_of("solar_eff"));
            match Fleet::new(spec.profiles()).and_then(|fleet| FleetGrid::build(&fleet)) {
                Ok(grid) => {
                    let hyper_minutes = grid.ticks_to_minutes(grid.hyperperiod());
                    if spec.hours * 60.0 < hyper_minutes {
                        let mut d = Diagnostic::new(
                            CoolCode::DegenerateHorizon,
                            format!(
                                "working time of {} h is shorter than one fleet hyperperiod \
                                 ({hyper_minutes} min)",
                                spec.hours
                            ),
                        )
                        .with_help("extend `hours` to cover at least one full hyperperiod");
                        if let Some(line) = line_of("hours") {
                            d = d.with_line(line);
                        }
                        report.push(d);
                    }
                }
                Err(FleetError::BadProfile {
                    sensor,
                    source: CycleError::NonIntegralRatio,
                }) => {
                    let mut d = Diagnostic::new(
                        CoolCode::NonIntegralRho,
                        format!(
                            "sensor {sensor}'s profile gives a non-slot-decomposable \
                             rho_v (neither rho_v nor 1/rho_v is an integer)"
                        ),
                    )
                    .with_help(
                        "pick mu_d, mu_r and solar_eff so mu_d/(mu_r*solar_eff) \
                                or its reciprocal is integral",
                    );
                    if let Some(line) = profile_line {
                        d = d.with_line(line);
                    }
                    report.push(d);
                }
                Err(err) => {
                    let mut d = Diagnostic::new(CoolCode::ScenarioFieldInvalid, err.to_string());
                    if let Some(line) = profile_line {
                        d = d.with_line(line);
                    }
                    report.push(d);
                }
            }
        }
    } else if durations_ok {
        match ChargeCycle::from_minutes(spec.discharge_minutes, spec.recharge_minutes) {
            // The cap `Scenario::build` puts on one period, as a fleet grid
            // does on its hyperperiod.
            Ok(cycle) if cycle.within_slot_cap().is_err() => {
                let max = FleetGrid::MAX_HYPERPERIOD_TICKS;
                let mut d = Diagnostic::new(
                    CoolCode::ScenarioFieldInvalid,
                    format!(
                        "rho = {}/{} = {} gives a period of more than {max} slots",
                        spec.recharge_minutes,
                        spec.discharge_minutes,
                        cycle.rho()
                    ),
                )
                .with_help(format!(
                    "keep the longer of discharge_minutes and recharge_minutes at most {} \
                     times the shorter",
                    max - 1
                ));
                let (long, short) = if cycle.rho() >= 1.0 {
                    ("recharge_minutes", "discharge_minutes")
                } else {
                    ("discharge_minutes", "recharge_minutes")
                };
                if let Some(line) = line_of(long).or(line_of(short)) {
                    d = d.with_line(line);
                }
                report.push(d);
            }
            Ok(cycle) => {
                if cycle.periods_in_hours(spec.hours) == 0 {
                    let mut d = Diagnostic::new(
                        CoolCode::DegenerateHorizon,
                        format!(
                            "working time of {} h is shorter than one charging period ({} min)",
                            spec.hours,
                            cycle.period_minutes()
                        ),
                    )
                    .with_help("extend `hours` to cover at least one full charge/discharge period");
                    if let Some(line) = line_of("hours") {
                        d = d.with_line(line);
                    }
                    report.push(d);
                }
            }
            Err(CycleError::NonIntegralRatio) => {
                let rho = spec.recharge_minutes / spec.discharge_minutes;
                let mut d = Diagnostic::new(
                    CoolCode::NonIntegralRho,
                    format!(
                        "rho = {}/{} = {rho} is not an integer (nor is 1/rho), so the period \
                         does not divide into equal slots",
                        spec.recharge_minutes, spec.discharge_minutes
                    ),
                )
                .with_help("choose recharge/discharge minutes with an integral ratio");
                if let Some(line) = line_of("recharge_minutes").or(line_of("discharge_minutes")) {
                    d = d.with_line(line);
                }
                report.push(d);
            }
            // Positive, finite durations cannot raise NonPositiveDuration.
            Err(CycleError::NonPositiveDuration) => unreachable!("durations checked above"),
        }
    }

    // Geometry.
    if !spec.region.is_finite() || spec.region <= 0.0 {
        let mut d = Diagnostic::new(
            CoolCode::ScenarioFieldInvalid,
            format!(
                "region = {} must be a positive, finite side length",
                spec.region
            ),
        );
        if let Some(line) = line_of("region") {
            d = d.with_line(line);
        }
        report.push(d);
    }
    if !spec.comms_radius.is_finite() || spec.comms_radius < 0.0 {
        let mut d = Diagnostic::new(
            CoolCode::ScenarioFieldInvalid,
            format!(
                "comms_radius = {} must be a non-negative, finite radius",
                spec.comms_radius
            ),
        )
        .with_help("set comms_radius = 0 to disable the connectivity lint");
        if let Some(line) = line_of("comms_radius") {
            d = d.with_line(line);
        }
        report.push(d);
    }
    if !spec.radius.is_finite() || spec.radius <= 0.0 {
        let mut d = Diagnostic::new(
            CoolCode::DegenerateSensingDisk,
            format!(
                "radius = {} gives every sensor an empty sensing disk",
                spec.radius
            ),
        )
        .with_help("the sensing radius must be positive and finite");
        if let Some(line) = line_of("radius") {
            d = d.with_line(line);
        }
        report.push(d);
    } else if spec.region.is_finite() && spec.region > 0.0 {
        // A disk that reaches the far corner from anywhere covers the whole
        // region: coverage geometry degenerates to "everyone sees everything".
        let diagonal = spec.region * std::f64::consts::SQRT_2;
        if spec.radius >= diagonal {
            let mut d = Diagnostic::new(
                CoolCode::DiskCoversRegion,
                format!(
                    "radius {} covers the whole {}x{} region (diagonal {diagonal:.1}) from \
                     any position, so target geometry is irrelevant",
                    spec.radius, spec.region, spec.region
                ),
            );
            if let Some(line) = line_of("radius") {
                d = d.with_line(line);
            }
            report.push(d);
        }
    }
}

/// Geometry-level checks on an explicit deployment: sensors outside the
/// region ([`CoolCode::SensorOutsideRegion`]), targets no sensor can reach
/// ([`CoolCode::UnreachableTarget`]), and targets whose coverage is moot
/// because `detection_p = 0` ([`CoolCode::ZeroWeightTarget`]).
///
/// Coverage is computed from the geometry, not a utility: with
/// `detection_p = 0` the utility-level coverage is empty everywhere and
/// could not distinguish "out of range" from "zero-weight".
pub fn lint_geometry(
    positions: &[Point],
    targets: &[Point],
    omega: Rect,
    radius: f64,
    detection_p: f64,
) -> Report {
    let mut report = lint_sensor_region(positions, omega);
    let index = DiskIndex::new(positions, radius);
    for (k, target) in targets.iter().enumerate() {
        if index.covering(*target).is_empty() {
            report.push(
                Diagnostic::new(
                    CoolCode::UnreachableTarget,
                    format!(
                        "target {k} at ({:.1}, {:.1}) is outside every sensor's range",
                        target.x, target.y
                    ),
                )
                .with_help("increase `radius`, add sensors, or shrink the region"),
            );
        } else if detection_p == 0.0 {
            report.push(zero_weight_target(k));
        }
    }
    report
}

/// COOL-W006 for every sensor outside `omega`, in sensor order.
fn lint_sensor_region(positions: &[Point], omega: Rect) -> Report {
    let mut report = Report::new();
    for (i, p) in positions.iter().enumerate() {
        if !omega.contains(*p) {
            report.push(Diagnostic::new(
                CoolCode::SensorOutsideRegion,
                format!(
                    "sensor {i} at ({}, {}) lies outside the deployment region",
                    p.x, p.y
                ),
            ));
        }
    }
    report
}

/// The finding for target `k` of a scenario with `detection_p = 0`.
fn zero_weight_target(k: usize) -> Diagnostic {
    Diagnostic::new(
        CoolCode::ZeroWeightTarget,
        format!("target {k} contributes zero utility (detection_p = 0)"),
    )
    .with_help("a zero detection probability makes coverage of this target moot")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(text: &str) -> Report {
        lint_scenario_text(text, "test.txt")
    }

    #[test]
    fn default_scenario_is_clean() {
        let r = lint("");
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.diagnostics().len(), 0, "{r}");
    }

    #[test]
    fn malformed_line_is_e008() {
        let r = lint("sensors = 10\nnot a key value\n");
        assert!(r.has_code(CoolCode::ScenarioLineMalformed));
        assert_eq!(r.diagnostics()[0].line, Some(2));
        assert!(!r.is_clean());
    }

    #[test]
    fn unknown_key_is_w001_and_stays_clean() {
        let r = lint("volume = 11\n");
        assert!(r.has_code(CoolCode::UnknownScenarioKey));
        assert!(r.is_clean(), "unknown keys warn, they do not error: {r}");
    }

    #[test]
    fn duplicate_key_is_w002() {
        let r = lint("sensors = 10\nsensors = 20\n");
        assert!(r.has_code(CoolCode::DuplicateScenarioKey));
        assert!(r.diagnostics()[0].message.contains("line 1"));
    }

    #[test]
    fn unparsable_value_is_e007() {
        let r = lint("sensors = lots\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid));
        assert!(!r.is_clean());
    }

    #[test]
    fn zero_sensors_is_e007() {
        let r = lint("sensors = 0\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid));
    }

    #[test]
    fn out_of_range_probability_is_e005() {
        let r = lint("detection_p = 1.5\n");
        assert!(r.has_code(CoolCode::InvalidProbability));
        assert_eq!(r.diagnostics()[0].line, Some(1));
    }

    #[test]
    fn nan_probability_is_e005() {
        let r = lint("detection_p = NaN\n");
        assert!(r.has_code(CoolCode::InvalidProbability));
    }

    #[test]
    fn non_positive_duration_is_e013() {
        let r = lint("discharge_minutes = -3\n");
        assert!(r.has_code(CoolCode::NonPositiveDuration));
    }

    #[test]
    fn non_integral_rho_is_e012() {
        let r = lint("discharge_minutes = 15\nrecharge_minutes = 40\n");
        assert!(r.has_code(CoolCode::NonIntegralRho));
        assert_eq!(r.diagnostics()[0].line, Some(2), "blames the recharge line");
    }

    #[test]
    fn period_over_the_slot_cap_is_e007_on_the_duration_line() {
        for (text, line) in [
            ("hours = 1e30\nrecharge_minutes = 1.5e19\n", 2),
            (
                "discharge_minutes = 18446744073709551616\nhours = 1e30\n",
                1,
            ),
            (
                "recharge_minutes = 61455\nscheduler = rsc\nhours = 2000\n",
                1,
            ),
            // The long duration keeps its default: blame the short one.
            ("hours = 2000\ndischarge_minutes = 0.01\n", 2),
        ] {
            let r = lint(text);
            assert_eq!(r.diagnostics().len(), 1, "{text}: {r}");
            let d = &r.diagnostics()[0];
            assert_eq!(d.code, CoolCode::ScenarioFieldInvalid, "{text}: {r}");
            assert!(d.message.contains("more than 4096 slots"), "{r}");
            assert_eq!(d.line, Some(line), "{text}: {r}");
        }
        // rho = 4095 fills the cap exactly.
        let r = lint("recharge_minutes = 61425\nhours = 2000\n");
        assert!(r.diagnostics().is_empty(), "{r}");
    }

    #[test]
    fn reciprocal_rho_is_accepted() {
        // ρ = 1/3: the fast-recharge case must not be flagged.
        let r = lint("discharge_minutes = 45\nrecharge_minutes = 15\n");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn short_horizon_is_e014() {
        // Period is 60 min; half an hour holds no whole period.
        let r = lint("hours = 0.5\n");
        assert!(r.has_code(CoolCode::DegenerateHorizon));
    }

    #[test]
    fn zero_radius_is_e006() {
        let r = lint("radius = 0\n");
        assert!(r.has_code(CoolCode::DegenerateSensingDisk));
    }

    #[test]
    fn negative_comms_radius_is_e007() {
        let r = lint("comms_radius = -5\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid), "{r}");
        assert!(lint("comms_radius = 200\n").is_clean());
        assert!(
            lint("comms_radius = 0\n").is_clean(),
            "0 disables the check"
        );
    }

    #[test]
    fn oversized_radius_is_w003() {
        let r = lint("region = 100\nradius = 200\n");
        assert!(r.has_code(CoolCode::DiskCoversRegion));
        assert!(
            r.is_clean(),
            "covering the region is legal, just degenerate: {r}"
        );
    }

    #[test]
    fn zero_detection_p_warns_zero_weight_targets() {
        let r = lint("detection_p = 0\nsensors = 10\ntargets = 2\nregion = 100\nradius = 50\n");
        assert!(r.has_code(CoolCode::ZeroWeightTarget), "{r}");
        assert!(r.is_clean());
    }

    #[test]
    fn bad_scheduler_is_e007() {
        let r = lint("scheduler = quantum\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid));
    }

    #[test]
    fn profile_lists_lint_clean() {
        let r = lint("battery = 30,60\nmu_d = 120\nmu_r = 40\nsolar_eff = 1,0.5\n");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn grid_schedulers_are_known() {
        for s in ["rsc", "set-once", "hef"] {
            let r = lint(&format!("scheduler = {s}\n"));
            assert!(r.is_clean(), "{s}: {r}");
        }
    }

    #[test]
    fn out_of_range_profile_entry_is_e007() {
        let r = lint("solar_eff = 1.5\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid), "{r}");
        let r = lint("battery = 30,-2\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid), "{r}");
        let r = lint("mu_d = 120,abc\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid), "{r}");
    }

    #[test]
    fn non_decomposable_profile_is_e012() {
        // mu_d/mu_r = 120/50 = 2.4: neither integral nor reciprocal.
        let r = lint("mu_r = 50\n");
        assert!(r.has_code(CoolCode::NonIntegralRho), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn mixed_fleet_horizon_checks_the_hyperperiod() {
        // Batteries 30 and 60 Wh: hyperperiod 8 ticks of 15 min = 2 h.
        let r = lint("battery = 30,60\nhours = 1\n");
        assert!(r.has_code(CoolCode::DegenerateHorizon), "{r}");
        let r = lint("battery = 30,60\nhours = 2\n");
        assert!(!r.has_code(CoolCode::DegenerateHorizon), "{r}");
    }

    #[test]
    fn profiles_override_duration_keys() {
        // Non-integral legacy ratio must NOT be flagged when profiles
        // define the energy model.
        let r = lint("discharge_minutes = 15\nrecharge_minutes = 40\nbattery = 30\n");
        assert!(!r.has_code(CoolCode::NonIntegralRho), "{r}");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn multiple_diagnostics_accumulate() {
        let r = lint("sensors = none\ndetection_p = 2\nmystery = 1\nbroken line\n");
        assert!(r.has_code(CoolCode::ScenarioFieldInvalid));
        assert!(r.has_code(CoolCode::InvalidProbability));
        assert!(r.has_code(CoolCode::UnknownScenarioKey));
        assert!(r.has_code(CoolCode::ScenarioLineMalformed));
        assert!(
            r.diagnostics().len() >= 4,
            "a tolerant parser reports everything: {r}"
        );
    }

    #[test]
    fn instance_stage_depends_only_on_the_parsed_fields() {
        // Comments, blank lines, key order and a duplicated key change the
        // text stage, never the fields the instance stage runs on.
        let plain = lint_scenario_fields("sensors = 12\ntargets = 3\n", "a.txt");
        let noisy = lint_scenario_fields(
            "# deployment\n\ntargets = 3\nsensors = 40\nsensors = 12  # final\n",
            "b.txt",
        );
        assert!(noisy.report.has_code(CoolCode::DuplicateScenarioKey));
        assert_eq!(plain.spec, noisy.spec);
        let spec = plain.spec.expect("clean fields");
        assert_eq!(
            lint_scenario_instance(&spec).report,
            lint_scenario_instance(&spec).report
        );
    }

    #[test]
    fn the_instance_stage_returns_the_utility_it_derived() {
        let spec = Scenario::parse("sensors = 12\ntargets = 3\n").unwrap();
        let InstanceLint { report, utility } = lint_scenario_instance(&spec);
        assert!(report.diagnostics().is_empty(), "{report}");
        let derived = spec.instance().unwrap().0;
        assert_eq!(
            format!("{:?}", utility.expect("derived").parts()),
            format!("{:?}", derived.parts())
        );
    }

    #[test]
    fn a_utility_that_is_not_a_detection_sum_is_sampled() {
        use cool_utility::{DetectionUtility, LinearUtility};
        // Two finite weights whose sum overflows: E015 on the full set.
        let linear = SumUtility::new(vec![
            DetectionUtility::uniform(2, 0.4).into(),
            LinearUtility::new(vec![f64::MAX, f64::MAX]).into(),
        ]);
        let detection = SumUtility::new(vec![DetectionUtility::uniform(2, 0.4).into()]);
        assert!(is_detection_sum(&detection));
        assert!(!is_detection_sum(&linear));
        let seed = 7;
        let sampled = lint_utility(
            &linear,
            AXIOM_TRIALS,
            &mut SeedSequence::new(seed).nth_rng(u64::MAX),
        );
        assert!(sampled.has_code(CoolCode::NonFiniteUtility), "{sampled}");
        assert_eq!(lint_instance_utility(&linear, seed), sampled);
        assert!(lint_instance_utility(&detection, seed)
            .diagnostics()
            .is_empty());
    }

    #[test]
    fn instance_checks_only_run_on_clean_fields() {
        // The malformed probability must not crash the instance derivation.
        let r = lint("detection_p = 7\nsensors = 4\n");
        assert!(!r.is_clean());
    }

    #[test]
    fn unreachable_target_is_w004() {
        // One sensor at the origin, a target far outside its 5-unit disk.
        let positions = vec![Point::new(0.0, 0.0)];
        let targets = vec![Point::new(50.0, 50.0)];
        let r = lint_geometry(&positions, &targets, Rect::square(100.0), 5.0, 0.4);
        assert!(r.has_code(CoolCode::UnreachableTarget), "{r}");
        assert!(r.is_clean(), "unreachable targets warn, they do not error");
    }

    #[test]
    fn covered_target_is_not_w004() {
        let positions = vec![Point::new(0.0, 0.0)];
        let targets = vec![Point::new(3.0, 0.0)];
        let r = lint_geometry(&positions, &targets, Rect::square(100.0), 5.0, 0.4);
        assert!(!r.has_code(CoolCode::UnreachableTarget), "{r}");
        assert!(r.diagnostics().is_empty());
    }

    #[test]
    fn sensor_outside_region_is_w006() {
        let positions = vec![Point::new(150.0, 10.0)];
        let targets = vec![];
        let r = lint_geometry(&positions, &targets, Rect::square(100.0), 5.0, 0.4);
        assert!(r.has_code(CoolCode::SensorOutsideRegion), "{r}");
    }

    #[test]
    fn instance_stage_geometry_equals_lint_geometry_on_derived_instances() {
        // The Fig. 8/9 grid in both weathers, `detection_p = 0`, and a
        // sparse region where candidates fall back onto sensors.
        let grid = [
            (20, 1),
            (60, 4),
            (100, 5),
            (100, 10),
            (200, 20),
            (300, 30),
            (400, 40),
            (500, 50),
        ];
        let mut texts = Vec::new();
        for (n, m) in grid {
            let region = 500.0 * (f64::from(n) / 100.0).powf(0.4);
            for (discharge, recharge) in [(15, 45), (45, 15)] {
                texts.push(format!(
                    "sensors = {n}\ntargets = {m}\nregion = {region:.1}\nradius = 100\n\
                     discharge_minutes = {discharge}\nrecharge_minutes = {recharge}\nseed = {n}\n"
                ));
            }
        }
        let zero_p = "sensors = 30\ntargets = 6\nregion = 300\nradius = 100\ndetection_p = 0\n";
        let sparse = "sensors = 5\ntargets = 12\nregion = 100000\nradius = 1\n";
        texts.push(zero_p.to_string());
        texts.push(sparse.to_string());
        for text in &texts {
            let spec = Scenario::parse(text).unwrap();
            let (utility, positions, targets) = spec.instance().unwrap();
            let mut full = lint_geometry(
                &positions,
                &targets,
                Rect::square(spec.region),
                spec.radius,
                spec.detection_p,
            );
            full.merge(lint_derived_utility(&utility, &spec));
            assert_eq!(lint_scenario_instance(&spec).report, full, "{text}");
            if text.as_str() == zero_p {
                assert!(full.has_code(CoolCode::ZeroWeightTarget), "{full}");
            }
            if text.as_str() == sparse {
                assert!(
                    targets.iter().any(|t| positions.contains(t)),
                    "no target fell back onto a sensor"
                );
            }
        }
    }

    #[test]
    fn zero_weight_target_is_w005() {
        let positions = vec![Point::new(0.0, 0.0)];
        let targets = vec![Point::new(1.0, 0.0)];
        let r = lint_geometry(&positions, &targets, Rect::square(100.0), 5.0, 0.0);
        assert!(r.has_code(CoolCode::ZeroWeightTarget), "{r}");
    }
}
