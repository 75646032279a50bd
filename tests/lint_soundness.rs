//! Lint soundness: a scenario that passes `cool lint` must execute.
//!
//! The linter's contract is `report.is_clean()` ⇒ the scheduler pipeline
//! accepts the scenario (no panic, no error, a feasible schedule). These
//! tests pin that implication on the shipped scenario files and on randomly
//! generated field assignments — both well-formed and corrupted — and pin
//! that the linter's tolerant parse and `Scenario::parse` read the same
//! grammar the same way.
//!
//! They also keep the sampled axiom check as the oracle of the instance
//! stage's structural one: the stage proves the utility axioms for every
//! sum of detection parts instead of sampling them, so the sampler must
//! find nothing on the instances scenarios derive.

use cool::common::SeedSequence;
use cool::lint::{lint_scenario_fields, lint_scenario_text, lint_utility, CoolCode, Report};
use cool::scenario::{Scenario, KEYS};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Values for generated `key = value` lines: valid for some keys,
/// unparsable or out of range for others.
const VALUES: [&str; 24] = [
    "0",
    "1",
    "-1",
    "12",
    "0.5",
    "1.5",
    "abc",
    "NaN",
    "inf",
    "-inf",
    "40",
    "45",
    "15",
    "1e400",
    "30,60",
    "30,-2",
    "1,0.5",
    ",",
    "greedy",
    "lazy",
    "rsc",
    "quantum",
    "18446744073709551616",
    "3.0",
];

/// Renders a scenario file from explicit fields.
#[allow(clippy::too_many_arguments)]
fn scenario_text(
    sensors: usize,
    targets: usize,
    detection_p: f64,
    discharge: f64,
    recharge: f64,
    hours: f64,
    region: f64,
    radius: f64,
    seed: u64,
) -> String {
    format!(
        "sensors = {sensors}\ntargets = {targets}\ndetection_p = {detection_p}\n\
         discharge_minutes = {discharge}\nrecharge_minutes = {recharge}\nhours = {hours}\n\
         region = {region}\nradius = {radius}\nseed = {seed}\n"
    )
}

/// The sampled axiom check's report on the instance `text` derives, with
/// the trials and the RNG stream the instance stage sampled with before it
/// proved the axioms instead.
fn sampled_axioms(text: &str) -> Result<Report, String> {
    let scenario = Scenario::parse(text).map_err(|e| e.to_string())?;
    let (utility, _, _) = scenario.instance()?;
    let mut rng = SeedSequence::new(scenario.seed).nth_rng(u64::MAX);
    Ok(lint_utility(&utility, 200, &mut rng))
}

/// Runs the full CLI pipeline the linter vouches for.
fn execute(text: &str) -> Result<(), String> {
    let scenario = Scenario::parse(text).map_err(|e| e.to_string())?;
    // Mirror the CLI dispatch: profile lists and strip-cover schedulers
    // run on the LCM tick grid, everything else on the slot path.
    if scenario.has_profiles() || scenario.scheduler.is_grid_scheduler() {
        let outcome = scenario.run_fleet()?;
        if outcome.schedule.is_feasible(&outcome.grid) {
            Ok(())
        } else {
            Err("grid schedule infeasible".into())
        }
    } else {
        let outcome = scenario.run()?;
        if outcome.schedule.is_feasible(outcome.cycle) {
            Ok(())
        } else {
            Err("schedule infeasible".into())
        }
    }
}

#[test]
fn shipped_scenarios_lint_clean_and_run() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "txt") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let report = lint_scenario_text(&text, &path.display().to_string());
        assert!(report.is_clean(), "{report}");
        execute(&text).unwrap_or_else(|e| panic!("{} failed to run: {e}", path.display()));
        checked += 1;
    }
    assert!(
        checked >= 3,
        "expected the three shipped scenario files, found {checked}"
    );
}

#[test]
fn paper_grid_instances_pass_the_sampled_axioms() {
    // The Fig. 8/9 (n, m) grid on its geometric deployments, in both
    // weathers: rho = 3 (sunny) and rho = 1/3.
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
    for (n, m) in grid {
        let region = 500.0 * (n as f64 / 100.0).powf(0.4);
        for (discharge, recharge) in [(15.0, 45.0), (45.0, 15.0)] {
            for seed in [1, 2011, u64::MAX >> 16] {
                let text = scenario_text(n, m, 0.4, discharge, recharge, 12.0, region, 100.0, seed);
                let report = lint_scenario_text(&text, "grid.txt");
                assert!(report.diagnostics().is_empty(), "{report}\n{text}");
                let sampled = sampled_axioms(&text).unwrap();
                assert!(sampled.diagnostics().is_empty(), "{sampled}\n{text}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Well-formed random scenarios: lint is clean and execution succeeds.
    #[test]
    fn clean_scenarios_execute(
        sensors in 1usize..30,
        targets in 1usize..5,
        p in 0.05f64..0.95,
        slot in 5.0f64..30.0,
        ratio in 1usize..6,
        invert in any::<bool>(),
        periods in 1usize..6,
        seed in any::<u64>(),
    ) {
        let (discharge, recharge) = if invert {
            (slot * ratio as f64, slot) // rho = 1/ratio
        } else {
            (slot, slot * ratio as f64) // rho = ratio
        };
        let period_minutes = discharge + recharge;
        // Half a period of slack so float rounding never lands the horizon a
        // hair short of the intended whole number of periods.
        let hours = period_minutes * (periods as f64 + 0.5) / 60.0;
        let text = scenario_text(
            sensors, targets, p, discharge, recharge, hours, 200.0, 80.0, seed,
        );
        let report = lint_scenario_text(&text, "generated.txt");
        prop_assert!(report.is_clean(), "{}", report);
        let sampled = sampled_axioms(&text);
        prop_assert!(
            sampled.as_ref().is_ok_and(|r| r.diagnostics().is_empty()),
            "{:?}\n{}",
            sampled,
            text
        );
        prop_assert!(execute(&text).is_ok());
    }
}

proptest! {
    // Enough cases for the rare corruptions (a period over the slot cap
    // under a horizon long enough to lint clean) to come up.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The implication itself, on scenarios corrupted at random: whenever
    /// the linter stays quiet, execution must succeed. (The converse — the
    /// linter being *complete* — is deliberately not asserted; extra
    /// strictness like the degenerate-horizon error is allowed.)
    #[test]
    fn lint_clean_implies_run_succeeds(
        sensors in 0usize..20,
        targets in 0usize..4,
        p in -0.5f64..1.5,
        discharge in prop::sample::select(vec![0.0, 10.0, 15.0, 27.0]),
        recharge in prop::sample::select(vec![0.0, 15.0, 40.0, 45.0, 180.0, 1.5e19, 61455.0]),
        hours in prop::sample::select(vec![0.2, 6.0, 12.0, 1e30]),
        radius in prop::sample::select(vec![0.0, 50.0, 400.0]),
        scheduler in prop::sample::select(vec!["greedy", "rsc"]),
        seed in any::<u64>(),
    ) {
        let text = scenario_text(
            sensors, targets, p, discharge, recharge, hours, 250.0, radius, seed,
        ) + &format!("scheduler = {scheduler}\n");
        let report = lint_scenario_text(&text, "generated.txt");
        if report.is_clean() {
            prop_assert!(
                execute(&text).is_ok(),
                "lint saw nothing wrong but execution failed:\n{}",
                text
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The strict parse and the linter's text stage are two modes of one
    /// grammar: where both accept a text they read the same scenario, and
    /// a text stage that is clean and saw no unknown key (the one input the
    /// strict mode rejects on purpose) means the strict parse accepts it.
    #[test]
    fn strict_and_tolerant_parses_agree(
        base in any::<bool>(),
        sensors in 0usize..20,
        p in -0.5f64..1.5,
        radius in prop::sample::select(vec![0.0, 50.0, 400.0]),
        seed in any::<u64>(),
        lines in collection::vec((0usize..10, 0usize..KEYS.len(), 0usize..VALUES.len()), 0..8),
    ) {
        let mut text = if base {
            scenario_text(sensors, 3, p, 15.0, 45.0, 12.0, 250.0, radius, seed)
        } else {
            String::new()
        };
        // The canonical form lists every key in `KEYS` order: line `k`
        // assigns key `k` its default, which puts that key back in range.
        let defaults = Scenario::default().canonical();
        let defaults: Vec<&str> = defaults.lines().collect();
        for (kind, k, value) in lines {
            let (key, value) = (KEYS[k], VALUES[value]);
            match kind {
                0 => writeln!(text, "# a comment"),
                1 => writeln!(text),
                2 => writeln!(text, "volume = {value}"),
                3 => writeln!(text, "{key} {value}"),
                4..=6 => writeln!(text, "{key} = {value}  # trailing"),
                _ => writeln!(text, "{}", defaults[k]),
            }
            .unwrap();
        }
        let fields = lint_scenario_fields(&text, "generated.txt");
        let strict = Scenario::parse(&text);
        if let (Some(tolerant), Ok(strict)) = (&fields.spec, &strict) {
            prop_assert_eq!(tolerant, strict, "{}", text);
        }
        if fields.report.is_clean() && !fields.report.has_code(CoolCode::UnknownScenarioKey) {
            prop_assert!(
                strict.is_ok(),
                "text stage clean but the strict parse failed: {:?}\n{}",
                strict,
                text
            );
        }
    }
}
