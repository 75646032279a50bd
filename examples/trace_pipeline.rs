//! The full §VI measurement-to-schedule pipeline as a library user would
//! run it on real data: export (or receive) a harvest-trace CSV, estimate
//! the charging pattern per 2-hour window, quantise it into a charge
//! cycle, and schedule the day with the greedy.
//!
//! ```sh
//! cargo run --example trace_pipeline
//! ```

use cool::common::SeedSequence;
use cool::core::{greedy::greedy_schedule_lazy, problem::Problem};
use cool::energy::{
    core_window_stability, estimate_pattern, fit_pattern, HarvestConfig, HarvestTrace, Weather,
};
use cool::utility::DetectionUtility;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A day of measurements lands as CSV (here: synthesised overcast
    //    weather, but `HarvestTrace::from_csv` accepts any logger output in
    //    the same format).
    let measured = HarvestTrace::generate(
        HarvestConfig {
            weather: Weather::Overcast,
            ..HarvestConfig::default()
        },
        &mut SeedSequence::new(77).nth_rng(0),
    );
    let csv = measured.to_csv();
    println!(
        "received {} samples ({} bytes of CSV)",
        measured.samples().len(),
        csv.len()
    );

    // 2. Parse it back (the adopter path) and estimate the pattern.
    let trace = HarvestTrace::from_csv(HarvestConfig::default(), &csv)?;
    let windows = estimate_pattern(&trace, 120.0, 30.0);
    for w in &windows {
        println!(
            "  window {:>4.0}–{:<4.0}: {:5.2} mA → T_r ≈ {:6.1} min",
            w.start_minute, w.end_minute, w.mean_current_ma, w.recharge_minutes
        );
    }
    if let Some(cv) = core_window_stability(&windows) {
        println!("pattern stability across core windows: CV = {cv:.3}");
    }

    // 3. Quantise into a scheduler-ready cycle.
    let pattern = fit_pattern(&windows, 15.0).ok_or("no usable charging window")?;
    let cycle = pattern.quantize()?;
    println!("fitted {pattern} → cycle {cycle}");

    // 4. Schedule the day against it.
    let utility = DetectionUtility::uniform(60, 0.4);
    let problem = Problem::new(utility, cycle, cycle.periods_in_hours(12.0).max(1))?;
    let schedule = greedy_schedule_lazy(&problem);
    assert!(schedule.is_feasible(cycle));
    println!(
        "greedy schedule: {:.4} average utility over a {}-slot day",
        problem.average_utility_per_target_slot(&schedule),
        problem.horizon_slots()
    );
    Ok(())
}
