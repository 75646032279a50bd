//! §VI-B — the 30-day, 100-node testbed run, end to end: weather evolves
//! day by day, each morning the charging pattern is estimated from the
//! previous day's harvest trace and the adaptive policy re-plans, then the
//! day executes on the simulated rooftop against a multi-target coverage
//! utility (10 monitored spots on the roof).

use crate::ExperimentReport;
use cool_common::{OnlineStats, SeedSequence, SensorSet, Table};
use cool_core::policy::{ActivationPolicy, AdaptivePolicy};
use cool_energy::{
    estimate_pattern, fit_pattern, ChargeCycle, HarvestConfig, HarvestTrace, Weather,
    WeatherGenerator,
};
use cool_geometry::deployment::{uniform_point, DiskIndex};
use cool_testbed::{RooftopDeployment, TestbedSim};
use cool_utility::SumUtility;

const DAYS: usize = 30;
const TARGETS: usize = 10;
const SENSING_RADIUS: f64 = 12.0;
const DETECTION_P: f64 = 0.4;

/// Runs the 30-day campaign. Reports **average utility per target per
/// slot**, the paper's metric.
pub fn run(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("testbed30");
    let seeds = SeedSequence::new(seed);
    let mut rng = seeds.nth_rng(0);

    let deployment = RooftopDeployment::paper_layout(&mut rng);

    // Ten monitored spots on the roof; a node covers a spot within sensing
    // range. Spots that land outside everyone's range are re-drawn inside
    // the deployment generator's contract by simple rejection here.
    let nodes = deployment.nodes();
    let index = DiskIndex::new(nodes, SENSING_RADIUS);
    let mut coverages = Vec::with_capacity(TARGETS);
    while coverages.len() < TARGETS {
        let cov = index.covering(uniform_point(deployment.roof(), &mut rng));
        if !cov.is_empty() {
            coverages.push(SensorSet::from_indices(
                nodes.len(),
                cov.iter().map(|&v| v as usize),
            ));
        }
    }
    let utility = SumUtility::multi_target_detection(&coverages, DETECTION_P);

    let mut weather_gen = WeatherGenerator::new(Weather::Sunny);
    let mut policy = AdaptivePolicy::new(utility.clone(), ChargeCycle::paper_sunny());

    let mut days_table = Table::new([
        "day",
        "weather",
        "cycle",
        "slots",
        "avg utility/target",
        "activation rate",
    ]);
    let mut overall = OnlineStats::new();
    let mut per_weather = std::collections::BTreeMap::<String, OnlineStats>::new();

    for day in 0..DAYS {
        let weather = if day == 0 {
            Weather::Sunny
        } else {
            weather_gen.next_day(&mut rng)
        };

        // Morning: estimate the day's charging pattern from a harvest trace
        // (the §VI-A measurement pipeline) and re-plan.
        let trace = HarvestTrace::generate(
            HarvestConfig {
                weather,
                ..HarvestConfig::default()
            },
            &mut seeds.child(1).nth_rng(day as u64),
        );
        let fitted = fit_pattern(&estimate_pattern(&trace, 120.0, 30.0), 15.0);
        let cycle = fitted
            .and_then(|p| p.quantize().ok())
            .unwrap_or_else(|| weather.charge_cycle().expect("weather cycles are valid"));
        policy.update_cycle(cycle);

        // Daytime: 12 hours of slots on a fresh-battery testbed.
        let slots = cycle.slots_in_hours(12.0).max(1);
        let mut sim = TestbedSim::new(deployment.clone(), cycle);
        let metrics = sim.run(
            SnapshotPolicy(&mut policy),
            &utility,
            slots,
            &mut seeds.child(2).nth_rng(day as u64),
        );

        let per_target = metrics.average_utility() / TARGETS as f64;
        overall.push(per_target);
        per_weather
            .entry(weather.to_string())
            .or_default()
            .push(per_target);
        days_table.row([
            (day + 1).to_string(),
            weather.to_string(),
            format!("rho={:.0}", cycle.rho()),
            slots.to_string(),
            format!("{per_target:.4}"),
            format!("{:.3}", metrics.activation_success_rate()),
        ]);
    }
    report.add_table("daily", days_table);

    let mut summary = Table::new(["weather", "days", "mean utility", "min", "max"]);
    for (weather, stats) in &per_weather {
        summary.row([
            weather.clone(),
            stats.count().to_string(),
            format!("{:.4}", stats.mean()),
            format!("{:.4}", stats.min()),
            format!("{:.4}", stats.max()),
        ]);
    }
    summary.row([
        "ALL".to_string(),
        overall.count().to_string(),
        format!("{:.4}", overall.mean()),
        format!("{:.4}", overall.min()),
        format!("{:.4}", overall.max()),
    ]);
    report.add_table("summary", summary);

    report.add_note(format!(
        "30-day mean utility per target per slot: {:.4} (paper's 100-node testbed \
         reports 0.9834 for its single whole-network target under July weather). \
         Sunny days run near the schedule's ideal; overcast/rainy days stretch the \
         charging period (larger ρ ⇒ fewer simultaneously active sensors), pulling \
         days down — the mechanism behind the paper's per-weather pattern \
         selection (§II-B).",
        overall.mean()
    ));
    report
}

/// Borrow adapter: lets the day loop keep ownership of the adaptive policy
/// across days while each day's simulation drives it by `&mut`.
struct SnapshotPolicy<'a>(&'a mut AdaptivePolicy<SumUtility>);

impl ActivationPolicy for SnapshotPolicy<'_> {
    fn decide(&mut self, slot: usize, ready: &cool_common::SensorSet) -> cool_common::SensorSet {
        self.0.decide(slot, ready)
    }

    fn slots_per_period(&self) -> usize {
        self.0.slots_per_period()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_days_complete_with_high_sunny_utility() {
        let r = run(2011);
        let (_, daily) = &r.tables()[0];
        assert_eq!(daily.len(), DAYS);
        let (_, summary) = r.tables().iter().find(|(n, _)| n == "summary").unwrap();
        let csv = summary.to_csv();
        let sunny = csv
            .lines()
            .find(|l| l.starts_with("sunny"))
            .expect("some sunny days");
        let mean: f64 = sunny.split(',').nth(2).unwrap().parse().unwrap();
        assert!(
            mean > 0.8,
            "sunny-day per-target utility is high, got {mean}"
        );
        let min: f64 = sunny.split(',').nth(3).unwrap().parse().unwrap();
        assert!(min > 0.0, "per-weather min tracks real observations");
    }

    #[test]
    fn bad_weather_costs_utility() {
        let r = run(2011);
        let (_, summary) = r.tables().iter().find(|(n, _)| n == "summary").unwrap();
        let csv = summary.to_csv();
        let mean_of = |prefix: &str| -> Option<f64> {
            csv.lines()
                .find(|l| l.starts_with(prefix))
                .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
        };
        let sunny = mean_of("sunny").expect("sunny days exist");
        if let Some(rainy) = mean_of("rainy") {
            assert!(rainy < sunny, "rainy {rainy} < sunny {sunny}");
        }
    }

    #[test]
    fn activation_rate_is_perfect_on_feasible_plans() {
        let r = run(2012);
        let (_, daily) = &r.tables()[0];
        for line in daily.to_csv().lines().skip(1) {
            let rate: f64 = line.split(',').next_back().unwrap().parse().unwrap();
            assert!(rate > 0.99, "adaptive plans stay feasible: {line}");
        }
    }
}
