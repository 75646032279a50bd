//! Seeded case generation: scenarios across both charging regimes and
//! instance materialisation across every utility family in `cool-utility`.
//!
//! A [`CheckCase`] is a plain [`Scenario`] plus a [`UtilityFamily`] tag, so
//! every failing case — whatever its family — shrinks to an ordinary
//! `scenarios/`-format file (the family rides along in a comment directive
//! the scenario parser ignores). All randomness flows from
//! [`SeedSequence`]: the geometry is the scenario's own instance
//! ([`Scenario::instance`], the one [`Scenario::build`] runs), and the extra
//! per-family weight draws come from a dedicated child sequence, so a case
//! is a pure function of `(scenario file, family)`.

use cool_common::{SeedSequence, SensorSet};
use cool_core::problem::Problem;
use cool_energy::{ChargeCycle, Fleet, FleetGrid};
use cool_scenario::Scenario;
use cool_utility::{
    AnyUtility, CoverageUtility, FacilityLocationUtility, KCoverageUtility, LinearUtility,
    LogSumUtility, SumUtility,
};
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// Child-sequence index reserved for the per-family weight draws (streams
/// 0–2 of the root are taken by instance generation, the random baseline,
/// and LP rounding).
const FAMILY_STREAM: u64 = 7;

/// Child-sequence index for the per-case scenario-parameter draws.
const CASE_STREAM: u64 = 11;

/// Child-sequence index for the heterogeneous-fleet profile draws.
const FLEET_STREAM: u64 = 23;

/// Per-sensor profile palette `(battery Wh, μ_d W, μ_r W, solar_eff)` for
/// heterogeneous cases. Every entry lands on a 15-minute tick and every
/// combination keeps the LCM hyperperiod at ≤ 24 ticks (periods 4, 8, 2,
/// 3, 4, 4), so hetero schedules stay cheap to cross-examine.
const FLEET_PALETTE: [(f64, f64, f64, f64); 6] = [
    (30.0, 120.0, 40.0, 1.0),  // (15, 45): the paper's sunny cycle
    (60.0, 120.0, 40.0, 1.0),  // (30, 90): double capacity, period 8
    (30.0, 120.0, 120.0, 1.0), // (15, 15): ρ = 1, period 2
    (30.0, 60.0, 120.0, 1.0),  // (30, 15): ρ = 1/2, period 3
    (45.0, 180.0, 60.0, 1.0),  // (15, 45) again but a 45 Wh battery
    (30.0, 120.0, 80.0, 0.5),  // (15, 45) via half solar efficiency
];

/// Which utility family a check case materialises over the scenario's
/// deployment geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UtilityFamily {
    /// Per-target detection probability `1 − Π(1−p)` — the scenario's own
    /// instance, bit-identical to [`Scenario::build`].
    Detection,
    /// Modular `Σ w_v` with quantised per-sensor weights.
    Linear,
    /// Per-target `ln(1 + Σ w_v)` over the covering sensors.
    LogSum,
    /// Weighted-area coverage with per-target signatures (Eq. 2 shape).
    Coverage,
    /// Facility location `Σ_i max_v b_{iv}` with quantised benefits.
    Facility,
    /// k-coverage `Σ_i w_i · min(count, k_i)/k_i`.
    KCover,
}

impl UtilityFamily {
    /// Every family, in the order the generator cycles through them.
    pub fn all() -> &'static [UtilityFamily] {
        &[
            UtilityFamily::Detection,
            UtilityFamily::Linear,
            UtilityFamily::LogSum,
            UtilityFamily::Coverage,
            UtilityFamily::Facility,
            UtilityFamily::KCover,
        ]
    }

    /// The stable slug used in output and counterexample directives.
    pub fn slug(self) -> &'static str {
        match self {
            UtilityFamily::Detection => "detection",
            UtilityFamily::Linear => "linear",
            UtilityFamily::LogSum => "logsum",
            UtilityFamily::Coverage => "coverage",
            UtilityFamily::Facility => "facility",
            UtilityFamily::KCover => "kcover",
        }
    }

    /// Whether `U` scales linearly under a uniform positive weight scaling
    /// (detection composes probabilities and log-sum is logarithmic, so
    /// neither admits the scaling metamorphic relation).
    pub fn is_scalable(self) -> bool {
        !matches!(self, UtilityFamily::Detection | UtilityFamily::LogSum)
    }

    /// Index within [`UtilityFamily::all`] — the per-family rng stream.
    fn stream(self) -> u64 {
        match self {
            UtilityFamily::Detection => 0,
            UtilityFamily::Linear => 1,
            UtilityFamily::LogSum => 2,
            UtilityFamily::Coverage => 3,
            UtilityFamily::Facility => 4,
            UtilityFamily::KCover => 5,
        }
    }
}

impl fmt::Display for UtilityFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

impl FromStr for UtilityFamily {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        UtilityFamily::all()
            .iter()
            .copied()
            .find(|f| f.slug() == s)
            .ok_or_else(|| format!("unknown utility family `{s}` (expected one of detection | linear | logsum | coverage | facility | kcover)"))
    }
}

/// One generated check case: a scenario plus the utility family to
/// materialise over its deployment.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckCase {
    /// 0-based index within the generated batch (0 for replayed cases).
    pub index: usize,
    /// The scenario — fully determines geometry, cycle, and horizon.
    pub scenario: Scenario,
    /// The utility family built over the scenario's deployment.
    pub family: UtilityFamily,
}

/// A materialised case: the problem instance plus everything the oracle
/// relations need.
#[derive(Clone, Debug)]
pub struct CheckInstance {
    /// The schedulable instance (utility + cycle + periods).
    pub problem: Problem<SumUtility>,
    /// The derived charging cycle.
    pub cycle: ChargeCycle,
    /// Whole periods in the scenario's working time.
    pub periods: usize,
    /// Small enough for the `T^n` exhaustive enumerator.
    pub tiny: bool,
}

/// A materialised heterogeneous case: the family's utility over the
/// scenario's deployment geometry plus the fleet's LCM tick grid. Built
/// only for cases whose scenario sets per-sensor profile lists — the
/// oracle runs its heterogeneous battery on these instead of the
/// homogeneous relations.
#[derive(Clone, Debug)]
pub struct FleetCheckInstance {
    /// The family utility (same materials path as the homogeneous build).
    pub utility: SumUtility,
    /// The per-sensor energy profiles and cycles.
    pub fleet: Fleet,
    /// The LCM tick grid all per-sensor periods embed into.
    pub grid: FleetGrid,
}

/// The deterministic raw materials a family's utility is assembled from.
/// Relabeling and scaling transforms operate on these (not on the finished
/// utility), so permuted/scaled variants are built by the same constructor
/// path as the original.
#[derive(Clone, Debug)]
struct Materials {
    n: usize,
    p: f64,
    /// Per-target covering sets from the deployment geometry.
    coverages: Vec<SensorSet>,
    /// Quantised per-sensor weights (quarter steps — exact in binary
    /// floats, with genuine exact ties for the tie-break oracle).
    sensor_weights: Vec<f64>,
    /// Quantised per-target weights.
    target_weights: Vec<f64>,
    /// Quantised targets × sensors benefit matrix (zero off-coverage).
    benefits: Vec<Vec<f64>>,
}

/// A quantised positive draw in `{0.25, 0.5, …, 2.0}` — exact in binary
/// floating point, so scaling by powers of two commutes with every
/// downstream arithmetic operation.
fn quantized<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    f64::from(1 + rng.random_range(0..8u32)) / 4.0
}

fn materials(case: &CheckCase) -> Result<Materials, String> {
    let s = &case.scenario;
    // The scenario's own instance, so the Detection family is bit-identical
    // to `Scenario::build`.
    let (detection, _positions, _targets) = s.instance()?;
    let coverages: Vec<SensorSet> = detection
        .parts()
        .iter()
        .map(|part| match part {
            AnyUtility::Detection(d) => d.coverage(),
            _ => unreachable!("geometric_multi_target emits detection parts"),
        })
        .collect();

    let mut rng = SeedSequence::new(s.seed)
        .child(FAMILY_STREAM)
        .nth_rng(case.family.stream());
    let sensor_weights: Vec<f64> = (0..s.sensors).map(|_| quantized(&mut rng)).collect();
    let target_weights: Vec<f64> = (0..s.targets).map(|_| quantized(&mut rng)).collect();
    let benefits: Vec<Vec<f64>> = coverages
        .iter()
        .map(|cov| {
            let mut row = vec![0.0; s.sensors];
            for v in cov {
                row[v.index()] = quantized(&mut rng);
            }
            row
        })
        .collect();

    Ok(Materials {
        n: s.sensors,
        p: s.detection_p,
        coverages,
        sensor_weights,
        target_weights,
        benefits,
    })
}

/// Applies a sensor relabeling `perm[old] = new` to a coverage set.
fn permute_set(set: &SensorSet, perm: &[usize]) -> SensorSet {
    SensorSet::from_indices(set.universe(), set.iter().map(|v| perm[v.index()]))
}

/// Applies a relabeling to a per-sensor vector.
fn permute_vec(values: &[f64], perm: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0; values.len()];
    for (old, &value) in values.iter().enumerate() {
        out[perm[old]] = value;
    }
    out
}

/// Assembles the family's utility from materials, optionally relabeled by
/// `perm` (old index → new index) and uniformly scaled by `scale`.
///
/// `scale` must be `1.0` for non-[scalable](UtilityFamily::is_scalable)
/// families.
fn utility_from(
    family: UtilityFamily,
    m: &Materials,
    perm: Option<&[usize]>,
    scale: f64,
) -> SumUtility {
    debug_assert!(
        scale == 1.0 || family.is_scalable(),
        "scaling applied to a non-scalable family"
    );
    let identity: Vec<usize> = (0..m.n).collect();
    let perm = perm.unwrap_or(&identity);
    let coverages: Vec<SensorSet> = m.coverages.iter().map(|c| permute_set(c, perm)).collect();

    let parts: Vec<AnyUtility> = match family {
        UtilityFamily::Detection => coverages
            .iter()
            .map(|cov| cool_utility::DetectionUtility::uniform_on(cov, m.p).into())
            .collect(),
        UtilityFamily::Linear => {
            let weights: Vec<f64> = permute_vec(&m.sensor_weights, perm)
                .iter()
                .map(|w| w * scale)
                .collect();
            vec![LinearUtility::new(weights).into()]
        }
        UtilityFamily::LogSum => coverages
            .iter()
            .map(|cov| {
                let mut weights = vec![0.0; m.n];
                let permuted = permute_vec(&m.sensor_weights, perm);
                for v in cov {
                    weights[v.index()] = permuted[v.index()];
                }
                LogSumUtility::new(weights).into()
            })
            .collect(),
        UtilityFamily::Coverage => {
            let values: Vec<f64> = m.target_weights.iter().map(|w| w * scale).collect();
            vec![CoverageUtility::from_parts(m.n, coverages, values).into()]
        }
        UtilityFamily::Facility => {
            let benefits: Vec<Vec<f64>> = m
                .benefits
                .iter()
                .map(|row| permute_vec(row, perm).iter().map(|b| b * scale).collect())
                .collect();
            vec![FacilityLocationUtility::new(benefits).into()]
        }
        UtilityFamily::KCover => {
            let k: Vec<u32> = m
                .coverages
                .iter()
                .map(|cov| u32::try_from(cov.len().min(2)).unwrap_or(1).max(1))
                .collect();
            let weights: Vec<f64> = m.target_weights.iter().map(|w| w * scale).collect();
            vec![KCoverageUtility::new(coverages, k, weights).into()]
        }
    };
    SumUtility::new(parts)
}

/// Budget above which the exhaustive enumerator is skipped.
const TINY_BUDGET: f64 = 20_000.0;

impl CheckCase {
    /// Materialises the case into a problem instance, with the cycle
    /// [`Scenario::cycle`] derives for [`Scenario::build`].
    ///
    /// # Errors
    ///
    /// Returns a rendered message for invalid cycle parameters (a period
    /// over the slot cap included), a working time over the horizon bound
    /// ([`Scenario::horizon_slots`]: every case runs the horizon greedy),
    /// degenerate horizons or bad geometry (the generator never produces
    /// these; replayed hand-edited files can).
    pub fn build(&self) -> Result<CheckInstance, String> {
        let s = &self.scenario;
        let cycle = s.cycle()?;
        s.horizon_slots()?;
        let periods = cycle.periods_in_hours(s.hours).max(1);
        let utility = utility_from(self.family, &materials(self)?, None, 1.0);
        let problem = Problem::new(utility, cycle, periods).map_err(|e| e.to_string())?;
        let t = cycle.slots_per_period();
        let tiny = (t as f64).powi(i32::try_from(s.sensors).unwrap_or(i32::MAX)) <= TINY_BUDGET;
        Ok(CheckInstance {
            problem,
            cycle,
            periods,
            tiny,
        })
    }

    /// Materialises a heterogeneous case: the scenario's profile lists
    /// become a [`Fleet`] and its LCM tick grid, and the family utility is
    /// assembled by the same materials path as [`CheckCase::build`].
    ///
    /// # Errors
    ///
    /// Returns a rendered message when the scenario has no profile lists,
    /// a profile is invalid, the fleet does not embed into a grid, or the
    /// geometry is bad (the generator's palette never produces these;
    /// hand-edited replays can).
    pub fn build_fleet(&self) -> Result<FleetCheckInstance, String> {
        if !self.scenario.has_profiles() {
            return Err("scenario has no per-sensor profile lists".into());
        }
        let fleet = self.scenario.fleet()?;
        let grid = FleetGrid::build(&fleet).map_err(|e| e.to_string())?;
        let utility = utility_from(self.family, &materials(self)?, None, 1.0);
        Ok(FleetCheckInstance {
            utility,
            fleet,
            grid,
        })
    }

    /// The case's utility relabeled by `perm` (old index → new index).
    ///
    /// # Errors
    ///
    /// As [`CheckCase::build`] for bad geometry.
    pub fn permuted_utility(&self, perm: &[usize]) -> Result<SumUtility, String> {
        Ok(utility_from(
            self.family,
            &materials(self)?,
            Some(perm),
            1.0,
        ))
    }

    /// The case's utility with every weight scaled by `scale` (a power of
    /// two keeps the arithmetic exact). Only valid for
    /// [scalable](UtilityFamily::is_scalable) families.
    ///
    /// # Errors
    ///
    /// As [`CheckCase::build`] for bad geometry.
    pub fn scaled_utility(&self, scale: f64) -> Result<SumUtility, String> {
        Ok(utility_from(self.family, &materials(self)?, None, scale))
    }

    /// A deterministic sensor relabeling for the metamorphic oracle
    /// (Fisher–Yates from the case's own seed).
    pub fn relabeling(&self) -> Vec<usize> {
        let n = self.scenario.sensors;
        let mut rng = SeedSequence::new(self.scenario.seed)
            .child(FAMILY_STREAM + 1)
            .nth_rng(self.family.stream());
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            perm.swap(i, j);
        }
        perm
    }
}

/// Active-regime `(discharge, recharge)` minute pairs: ρ ∈ {3, 2, 4}.
const ACTIVE_CYCLES: [(f64, f64); 3] = [(15.0, 45.0), (15.0, 30.0), (10.0, 40.0)];
/// Passive-regime pairs: ρ ∈ {1/3, 1/2, 1}.
const PASSIVE_CYCLES: [(f64, f64); 3] = [(45.0, 15.0), (30.0, 15.0), (15.0, 15.0)];

/// Generates `count` deterministic cases from `seed`, cycling through
/// every utility family and alternating the ρ>1 / ρ≤1 regimes. Every
/// third case is tiny enough for the exhaustive optimal oracle.
pub fn generate_cases(seed: u64, count: usize) -> Vec<CheckCase> {
    let seeds = SeedSequence::new(seed).child(CASE_STREAM);
    (0..count)
        .map(|i| {
            let mut rng = seeds.nth_rng(i as u64);
            let family = UtilityFamily::all()[i % UtilityFamily::all().len()];
            let active = i % 2 == 0;
            let (discharge, recharge) = if active {
                ACTIVE_CYCLES[rng.random_range(0..ACTIVE_CYCLES.len())]
            } else {
                PASSIVE_CYCLES[rng.random_range(0..PASSIVE_CYCLES.len())]
            };
            let sensors = if i % 3 == 0 {
                3 + rng.random_range(0..4usize) // tiny: 3..=6
            } else {
                8 + rng.random_range(0..13usize) // 8..=20
            };
            let targets = 1 + rng.random_range(0..3usize);
            let detection_p = [0.3, 0.4, 0.5, 0.6][rng.random_range(0..4usize)];
            let periods = 1 + rng.random_range(0..2usize);
            // One spare minute so `periods_in_hours` floors to exactly
            // `periods` despite float division.
            let hours = (periods as f64 * (discharge + recharge) + 1.0) / 60.0;

            let mut scenario = Scenario {
                sensors,
                targets,
                detection_p,
                discharge_minutes: discharge,
                recharge_minutes: recharge,
                hours,
                region: 200.0,
                radius: 60.0 + 20.0 * f64::from(rng.random_range(0..3u32)),
                seed: seeds.nth_seed(1_000_000 + i as u64),
                ..Scenario::default()
            };
            if i % 4 == 3 {
                // Heterogeneous fleet: per-sensor profile lists drawn from
                // the palette (assigned cyclically over the sensors). The
                // profiles then define the energy model; the duration keys
                // above are ignored by the builder.
                let mut fleet_rng = SeedSequence::new(seed)
                    .child(FLEET_STREAM)
                    .nth_rng(i as u64);
                let k = 2 + fleet_rng.random_range(0..3usize);
                for _ in 0..k {
                    let (b, d, r, e) =
                        FLEET_PALETTE[fleet_rng.random_range(0..FLEET_PALETTE.len())];
                    scenario.battery.push(b);
                    scenario.mu_d.push(d);
                    scenario.mu_r.push(r);
                    scenario.solar_eff.push(e);
                }
                // One spare minute past the worst-case hyperperiod
                // (24 ticks × 15 minutes) so at least one whole
                // hyperperiod always fits the working time.
                scenario.hours = (24.0 * 15.0 + 1.0) / 60.0;
            }
            CheckCase {
                index: i,
                scenario,
                family,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_utility::UtilityFunction;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_cases(42, 12);
        let b = generate_cases(42, 12);
        assert_eq!(a, b);
        let c = generate_cases(43, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn cases_cover_both_regimes_and_all_families() {
        let cases = generate_cases(7, 12);
        assert!(cases.iter().any(|c| {
            c.scenario.recharge_minutes > c.scenario.discharge_minutes // ρ > 1
        }));
        assert!(cases
            .iter()
            .any(|c| c.scenario.recharge_minutes <= c.scenario.discharge_minutes));
        for family in UtilityFamily::all() {
            assert!(cases.iter().any(|c| c.family == *family), "{family}");
        }
        assert!(cases.iter().any(|c| c.build().unwrap().tiny));
    }

    #[test]
    fn every_family_builds_a_valid_instance() {
        for case in generate_cases(3, 6) {
            // A fleet case is built on its grid, as the oracle builds it: a
            // mixed fleet has no homogeneous cycle.
            let (utility, slots) = if case.scenario.has_profiles() {
                assert!(case.build().is_err(), "a mixed fleet has no one cycle");
                let instance = case.build_fleet().unwrap_or_else(|e| panic!("{e}"));
                (instance.utility, instance.grid.hyperperiod())
            } else {
                let instance = case.build().unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(instance.problem.n_sensors(), case.scenario.sensors);
                let slots = instance.cycle.slots_per_period();
                (instance.problem.utility().clone(), slots)
            };
            // The sampled axiom checker accepts every generated utility.
            let report = cool_lint::preflight(&utility, case.scenario.sensors, slots);
            assert!(report.is_clean(), "{}: {report}", case.family);
        }
    }

    #[test]
    fn detection_family_matches_scenario_build() {
        let case = &generate_cases(11, 1)[0];
        assert_eq!(case.family, UtilityFamily::Detection);
        let built = case.scenario.build().unwrap();
        let ours = case.build().unwrap();
        let full = SensorSet::full(case.scenario.sensors);
        assert_eq!(
            built.problem.utility().eval(&full),
            ours.problem.utility().eval(&full),
            "detection family must replay Scenario::build bit-for-bit"
        );
        assert_eq!(built.periods, ours.periods);
    }

    #[test]
    fn relabeling_is_a_permutation() {
        let case = &generate_cases(5, 2)[1];
        let perm = case.relabeling();
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        let permuted = case.permuted_utility(&perm).unwrap();
        let base = case.build().unwrap();
        let full = SensorSet::full(case.scenario.sensors);
        assert!(
            (permuted.eval(&full) - base.problem.utility().eval(&full)).abs() < 1e-12,
            "full-set value is relabeling-invariant"
        );
    }

    #[test]
    fn every_fourth_case_is_a_heterogeneous_fleet() {
        let cases = generate_cases(9, 12);
        for case in &cases {
            assert_eq!(
                case.index % 4 == 3,
                case.scenario.has_profiles(),
                "case {}",
                case.index
            );
        }
        for case in cases.iter().filter(|c| c.scenario.has_profiles()) {
            let instance = case
                .build_fleet()
                .unwrap_or_else(|e| panic!("case {}: {e}", case.index));
            assert_eq!(instance.fleet.len(), case.scenario.sensors);
            assert!(
                instance.grid.hyperperiod() <= 24,
                "palette promises a small hyperperiod, got {}",
                instance.grid.hyperperiod()
            );
            // Fleet cases survive the counterexample round trip: profile
            // lists are part of the canonical grammar.
            let parsed = Scenario::parse(&case.scenario.canonical()).unwrap();
            assert_eq!(parsed, case.scenario);
        }
        assert!(generate_cases(9, 4)[3].build_fleet().is_ok());
        assert!(generate_cases(9, 1)[0].build_fleet().is_err());
    }

    #[test]
    fn family_slugs_round_trip() {
        for family in UtilityFamily::all() {
            assert_eq!(family.slug().parse::<UtilityFamily>().unwrap(), *family);
        }
        assert!("quantum".parse::<UtilityFamily>().is_err());
    }
}
