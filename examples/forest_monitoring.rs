//! Forest monitoring with the region utility of Eq. (2): sensors with
//! heterogeneous sensing shapes cover a forest block; a fire-prone ridge is
//! weighted 3× the valley floor. The arrangement subdivides the region into
//! signature subregions (Fig. 3(b) of the paper), the greedy spreads the
//! sensors so weighted covered area stays high every slot.
//!
//! ```sh
//! cargo run --example forest_monitoring
//! ```

use cool::common::SeedSequence;
use cool::core::baselines::round_robin_schedule;
use cool::core::greedy::greedy_schedule_lazy;
use cool::core::problem::Problem;
use cool::energy::Weather;
use cool::geometry::{AnyRegion, Arrangement, Disk, Point, Rect, Sector};
use cool::utility::{CoverageUtility, UtilityFunction};
use rand::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeedSequence::new(7).nth_rng(0);

    // A 1 km × 1 km forest block. 40 ground sensors (disks) plus 8 ridge
    // cameras (directional sectors facing downhill).
    let omega = Rect::square(1000.0);
    let mut regions: Vec<AnyRegion> = Vec::new();
    for _ in 0..40 {
        let p = Point::new(rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0));
        regions.push(Disk::new(p, rng.random_range(80.0..140.0)).into());
    }
    for k in 0..8 {
        let x = 60.0 + 120.0 * f64::from(k);
        regions.push(
            Sector::new(
                Point::new(x, 950.0),
                260.0,
                -std::f64::consts::FRAC_PI_2,
                0.6,
            )
            .into(),
        );
    }

    // The ridge (top fifth of the block) is fire-prone: weight 3.
    let arrangement =
        Arrangement::build(omega, &regions, 256)
            .with_weights(|p| if p.y > 800.0 { 3.0 } else { 1.0 });
    println!(
        "arrangement: {} subregions, {:.0} m² coverable ({:.0} weighted)",
        arrangement.subregions().len(),
        arrangement.total_coverable_area(),
        arrangement.total_coverable_weight()
    );

    let utility = CoverageUtility::new(&arrangement);
    let max = utility.max_value();

    // Overcast week: recharge is slow (ρ = 12 ⇒ 13 slots/period).
    let cycle = Weather::Overcast.charge_cycle()?;
    let problem = Problem::new(utility, cycle, cycle.periods_in_hours(12.0).max(1))?;
    println!("cycle: {cycle}");

    let greedy = greedy_schedule_lazy(&problem);
    let rr = round_robin_schedule(&problem);
    println!("\nweighted-area utility per slot (fraction of max {max:.0}):");
    println!(
        "  greedy      = {:.1}%",
        problem.average_utility_per_slot(&greedy) / max * 100.0
    );
    println!(
        "  round-robin = {:.1}%",
        problem.average_utility_per_slot(&rr) / max * 100.0
    );

    // Where do the ridge cameras land? The greedy staggers them so the
    // weighted ridge keeps coverage in as many slots as possible.
    let camera_slots: Vec<usize> = (40..48)
        .map(|v| greedy.assigned_slot(cool::common::SensorId(v)).index())
        .collect();
    println!("\nridge-camera active slots: {camera_slots:?}");
    let distinct: std::collections::BTreeSet<_> = camera_slots.iter().collect();
    println!(
        "cameras spread over {} distinct slots of {}",
        distinct.len(),
        cycle.slots_per_period()
    );
    Ok(())
}
