//! The paper's §VIII future work in action: a heterogeneous fleet (sunny
//! vs shaded panels → different ρ per sensor) with partially-recharged
//! activation, scheduled over the whole horizon by `greedy_horizon`, and a
//! k-coverage utility (each zone wants two simultaneous observers).
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

// Examples favour brevity: unwrap keeps the algorithmic story readable.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use cool::common::{SensorId, SensorSet};
use cool::core::greedy::greedy_active_lazy;
use cool::core::horizon::{greedy_horizon, HorizonSchedule};
use cool::energy::ChargeCycle;
use cool::utility::{KCoverageUtility, UtilityFunction};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 12 sensors: 0–5 in full sun (ρ = 3), 6–9 half-shaded (ρ = 7),
    // 10–11 with a big panel that recharges fast (ρ = 1: active every
    // other slot).
    let mut cycles = Vec::new();
    cycles.extend(std::iter::repeat_n(ChargeCycle::from_rho(3.0, 15.0)?, 6));
    cycles.extend(std::iter::repeat_n(ChargeCycle::from_rho(7.0, 15.0)?, 4));
    cycles.extend(std::iter::repeat_n(ChargeCycle::from_rho(1.0, 15.0)?, 2));

    // Three zones, each wanting 2 simultaneous observers.
    let utility = KCoverageUtility::uniform(
        vec![
            SensorSet::from_indices(12, [0, 1, 2, 6, 10]),
            SensorSet::from_indices(12, [3, 4, 7, 8, 11]),
            SensorSet::from_indices(12, [5, 6, 9, 10, 11]),
        ],
        2,
    );

    let horizon = 24; // six hours of 15-minute slots
    let schedule = greedy_horizon(&utility, &cycles, horizon);
    assert!(schedule.is_feasible(&cycles));

    println!("horizon greedy (per-sensor cycles, partial-recharge activation):");
    println!(
        "  average 2-coverage per slot = {:.4} of {:.0} zones",
        schedule.average_utility(&utility),
        utility.max_value()
    );
    println!("\nactivations per sensor over {horizon} slots:");
    for (v, cycle) in cycles.iter().enumerate() {
        let rho = cycle.rho();
        println!(
            "  v{v:<2} (rho={rho:>2.0})  {:>2} activations  {}",
            schedule.activation_count(SensorId(v)),
            bars(&schedule, v)
        );
    }

    // Contrast: force everyone onto the *worst* sensor's period (the only
    // way to use the homogeneous scheduler) — the fleet's fast rechargers
    // are wasted.
    let worst = ChargeCycle::from_rho(7.0, 15.0)?;
    let homogeneous = greedy_active_lazy(&utility, worst.slots_per_period()).unwrap();
    let unrolled = HorizonSchedule::from_period(&homogeneous, horizon / worst.slots_per_period());
    println!(
        "\nhomogeneous fallback (everyone at rho=7): {:.4} per slot → horizon greedy wins by {:.1}%",
        unrolled.average_utility(&utility),
        (schedule.average_utility(&utility) / unrolled.average_utility(&utility) - 1.0) * 100.0
    );
    Ok(())
}

fn bars(schedule: &cool::core::horizon::HorizonSchedule, v: usize) -> String {
    (0..schedule.horizon())
        .map(|t| {
            if schedule.active_set(t).contains(SensorId(v)) {
                '#'
            } else {
                '.'
            }
        })
        .collect()
}
