//! Multi-target surveillance at Fig. 9 scale: 300 sensors and 25 targets
//! deployed geometrically; greedy vs LP-relaxation (on a subsampled
//! instance) vs baselines, plus the exact optimum on a small cut-down copy.
//!
//! ```sh
//! cargo run --release --example multi_target
//! ```

use cool::common::SeedSequence;
use cool::core::baselines::{random_schedule, round_robin_schedule};
use cool::core::greedy::greedy_schedule_lazy;
use cool::core::instances::{geometric_multi_target, random_multi_target};
use cool::core::lp::LpScheduler;
use cool::core::optimal::branch_and_bound;
use cool::core::problem::Problem;
use cool::energy::ChargeCycle;
use cool::geometry::Rect;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seeds = SeedSequence::new(2011);
    let mut rng = seeds.nth_rng(0);
    let cycle = ChargeCycle::paper_sunny();

    // Large geometric instance.
    let (utility, positions, targets) =
        geometric_multi_target(Rect::square(800.0), 300, 25, 100.0, 0.4, &mut rng);
    println!(
        "{} sensors, {} targets; first target at {} covered by {} sensors",
        positions.len(),
        targets.len(),
        targets[0],
        match &utility.parts()[0] {
            cool::utility::AnyUtility::Detection(d) => d.probs().len(),
            _ => unreachable!(),
        }
    );

    let problem = Problem::new(utility, cycle, cycle.periods_in_hours(12.0))?;
    let greedy = greedy_schedule_lazy(&problem);
    println!("\naverage utility per target per slot:");
    println!(
        "  greedy (lazy)  = {:.4}",
        problem.average_utility_per_target_slot(&greedy)
    );
    println!(
        "  round-robin    = {:.4}",
        problem.average_utility_per_target_slot(&round_robin_schedule(&problem))
    );
    println!(
        "  random         = {:.4}",
        problem.average_utility_per_target_slot(&random_schedule(&problem, &mut rng))
    );

    // LP pipeline + exact optimum are exponential/heavier — demonstrate on a
    // small instance of the same flavour.
    let small = random_multi_target(10, 3, 0.5, 0.4, &mut rng);
    let small_problem = Problem::new(small.clone(), cycle, 1)?;
    let lp = LpScheduler::new(32).schedule(&small_problem, &mut rng)?;
    let greedy_small = greedy_schedule_lazy(&small_problem).period_utility(&small);
    let optimal = branch_and_bound(&small, cycle.slots_per_period()).period_utility(&small);
    println!("\nsmall instance (n=10, m=3), one period:");
    println!("  LP relaxation value (upper bound) = {:.4}", lp.lp_value);
    println!(
        "  LP + randomized rounding          = {:.4}",
        lp.rounded_value
    );
    println!("  greedy                            = {greedy_small:.4}");
    println!("  exact optimum (branch & bound)    = {optimal:.4}");
    println!(
        "  greedy/optimal                    = {:.4}",
        greedy_small / optimal
    );
    Ok(())
}
