//! Quickstart: schedule 100 solar-powered sensors watching one target and
//! compare the greedy schedule against the paper's closed-form upper bound.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cool::core::baselines::{round_robin_schedule, static_schedule};
use cool::core::bounds::single_target_upper_bound;
use cool::core::greedy::greedy_schedule_lazy;
use cool::core::problem::Problem;
use cool::energy::ChargeCycle;
use cool::utility::DetectionUtility;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's testbed setting: sunny weather (discharge 15 min,
    // recharge 45 min → ρ = 3, T = 4 slots), 100 sensors, each detecting an
    // event at the target with probability 0.4, working a 12-hour day.
    let cycle = ChargeCycle::paper_sunny();
    let utility = DetectionUtility::uniform(100, 0.4);
    let problem = Problem::new(utility, cycle, cycle.periods_in_hours(12.0))?;

    println!("cycle: {cycle}");
    println!(
        "horizon: {} slots over {} periods\n",
        problem.horizon_slots(),
        problem.periods()
    );

    let greedy = greedy_schedule_lazy(&problem);
    assert!(greedy.is_feasible(problem.cycle()));

    let bound = single_target_upper_bound(problem.n_sensors(), problem.slots_per_period(), 0.4);
    println!("greedy hill-climbing (Algorithm 1):");
    println!(
        "  average utility  = {:.6}",
        problem.average_utility_per_target_slot(&greedy)
    );
    println!("  optimum is below = {bound:.6}  (1 − (1−p)^⌈n/T⌉)");

    for (name, schedule) in [
        ("round-robin", round_robin_schedule(&problem)),
        ("static (all in slot 0)", static_schedule(&problem)),
    ] {
        println!(
            "  {name:<22} = {:.6}",
            problem.average_utility_per_target_slot(&schedule)
        );
    }

    // Peek at one period of the plan.
    println!("\nfirst period of the greedy schedule:");
    for t in 0..problem.slots_per_period() {
        println!("  slot {t}: {} sensors active", greedy.active_set(t).len());
    }
    Ok(())
}
