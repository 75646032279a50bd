//! The live, mutable instance a session schedules.
//!
//! A [`SessionInstance`] is an **explicit** multi-target detection
//! instance: unlike [`cool_scenario::Scenario`] (a generator recipe), it
//! stores every target's full coverage set plus an `alive` mask over the
//! fixed sensor universe, so deltas are cheap set operations and
//! `Remove∘Add` of the same sensor round-trips to the exact original
//! canonical form. The effective utility is built from
//! `coverage ∩ alive` per target, leaving the full coverage sets intact
//! for later resurrection.
//!
//! Every part of that utility is a detection part `1 − Π(1 − p)` with
//! `p ∈ [0, 1]` over the instance's `n` sensors, and there is always at
//! least one ([`SessionInstance::new`] and [`crate::Delta`] application
//! refuse any other probability, an empty target list and a period over
//! the slot cap). Such a sum is normalised, monotone and submodular by
//! theorem (the argument `cool-lint`'s instance stage rests on), so this
//! is the session's gate: neither creation nor a patch samples the
//! axioms or re-runs a lint over the utility.

use cool_common::{SensorId, SensorSet};
use cool_core::{greedy::try_greedy_schedule, PeriodSchedule, Problem};
use cool_energy::ChargeCycle;
use cool_scenario::Scenario;
use cool_utility::{AnyUtility, DetectionUtility, SparseVector, SumUtility, UtilityFunction};
use std::fmt;

/// One watched target: who can see it, and with what per-sensor
/// detection probability (the target's weight in the sum utility).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    /// Full coverage set over the fixed sensor universe (dead sensors
    /// included — aliveness is applied at utility-build time).
    pub coverage: SensorSet,
    /// Per-sensor detection probability `p ∈ [0, 1]`.
    pub p: f64,
}

/// A live scheduling instance: fixed sensor universe, mutable target
/// list, alive mask, and charge-cycle parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInstance {
    n: usize,
    targets: Vec<TargetSpec>,
    alive: SensorSet,
    discharge_minutes: f64,
    recharge_minutes: f64,
    hours: f64,
}

impl SessionInstance {
    /// Builds an instance directly from its parts.
    ///
    /// # Errors
    ///
    /// Rejects an empty universe, an empty target list, a coverage set
    /// over the wrong universe, an out-of-range probability, or cycle
    /// parameters `ChargeCycle` refuses, including a period over the slot
    /// cap ([`ChargeCycle::within_slot_cap`]).
    pub fn new(
        n: usize,
        targets: Vec<TargetSpec>,
        discharge_minutes: f64,
        recharge_minutes: f64,
        hours: f64,
    ) -> Result<Self, String> {
        if n == 0 {
            return Err("session instance needs at least one sensor".into());
        }
        if targets.is_empty() {
            return Err("session instance needs at least one target".into());
        }
        for (i, t) in targets.iter().enumerate() {
            if t.coverage.universe() != n {
                return Err(format!(
                    "target {i} coverage universe {} != n {n}",
                    t.coverage.universe()
                ));
            }
            if !(0.0..=1.0).contains(&t.p) {
                return Err(format!("target {i} probability {} outside [0, 1]", t.p));
            }
        }
        ChargeCycle::from_minutes(discharge_minutes, recharge_minutes)
            .map_err(|e| e.to_string())?
            .within_slot_cap()?;
        if !(hours.is_finite() && hours > 0.0) {
            return Err(format!("working time {hours} h must be positive"));
        }
        Ok(SessionInstance {
            n,
            targets,
            alive: SensorSet::full(n),
            discharge_minutes,
            recharge_minutes,
            hours,
        })
    }

    /// Materialises a [`Scenario`] into an explicit instance: the
    /// scenario's geometric build is run once and its per-target
    /// coverage sets are extracted verbatim, so the instance's scratch
    /// solve matches the scenario's. The same as
    /// [`SessionInstance::from_scenario_with`]`(scenario, None)`.
    ///
    /// # Errors
    ///
    /// Propagates [`Scenario::build`] failures as rendered strings.
    pub fn from_scenario(scenario: &Scenario) -> Result<Self, String> {
        Self::from_scenario_with(scenario, None)
    }

    /// [`SessionInstance::from_scenario`] around an instance utility
    /// already derived, as [`Scenario::build_with`] takes one: `utility`,
    /// when given, must be the one [`Scenario::instance`] returns for
    /// `scenario` (`cool serve` hands over the utility its lint instance
    /// stage derived), and its coverage sets are extracted instead of
    /// deriving the instance again.
    ///
    /// # Errors
    ///
    /// As [`SessionInstance::from_scenario`].
    pub fn from_scenario_with(
        scenario: &Scenario,
        utility: Option<SumUtility>,
    ) -> Result<Self, String> {
        let built = scenario.build_with(utility)?;
        let targets: Vec<TargetSpec> = built
            .problem
            .utility()
            .parts()
            .iter()
            .map(|part| match part {
                AnyUtility::Detection(d) => Ok(TargetSpec {
                    coverage: d.coverage(),
                    p: scenario.detection_p,
                }),
                other => Err(format!(
                    "scenario produced a non-detection part ({}-universe); \
                     sessions only speak multi-target detection",
                    other.universe()
                )),
            })
            .collect::<Result<_, _>>()?;
        SessionInstance::new(
            scenario.sensors,
            targets,
            scenario.discharge_minutes,
            scenario.recharge_minutes,
            scenario.hours,
        )
    }

    /// Sensor universe size `n` (fixed for the session's lifetime).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The watched targets.
    pub fn targets(&self) -> &[TargetSpec] {
        &self.targets
    }

    /// The alive mask (sensors currently deployed).
    pub fn alive(&self) -> &SensorSet {
        &self.alive
    }

    /// Working time in hours.
    pub fn hours(&self) -> f64 {
        self.hours
    }

    /// The current charge cycle.
    ///
    /// # Panics
    ///
    /// Never: constructors and [`crate::Delta`] application validate the
    /// minutes before storing them.
    pub fn cycle(&self) -> ChargeCycle {
        match ChargeCycle::from_minutes(self.discharge_minutes, self.recharge_minutes) {
            Ok(c) => c,
            Err(_) => unreachable!("stored cycle parameters are pre-validated"),
        }
    }

    /// Whole charging periods in the working time (at least 1).
    pub fn periods(&self) -> usize {
        self.cycle().periods_in_hours(self.hours).max(1)
    }

    /// The effective utility: one detection part per target over
    /// `coverage ∩ alive`, built straight from the live coverers. Dead
    /// sensors fall outside every support.
    pub fn utility(&self) -> SumUtility {
        SumUtility::new(
            self.targets
                .iter()
                .map(|t| {
                    let live = t.coverage.iter().filter(|&v| self.alive.contains(v));
                    DetectionUtility::from_sparse(SparseVector::uniform(self.n, live, t.p)).into()
                })
                .collect(),
        )
    }

    /// Solves the instance from scratch with the naive greedy — the
    /// oracle the sessions' CELF solve and repair are checked against
    /// (cool-check `COOL-E027`, `cool serve --session-smoke`).
    ///
    /// # Errors
    ///
    /// Propagates scheduler build errors as rendered strings.
    pub fn solve(&self) -> Result<PeriodSchedule, String> {
        let problem = Problem::new(self.utility(), self.cycle(), self.periods())
            .map_err(|e| e.to_string())?;
        try_greedy_schedule(&problem).map_err(|e| e.to_string())
    }

    /// Sets the cycle minutes (pre-validated by the caller via
    /// [`ChargeCycle::from_minutes`] and [`ChargeCycle::within_slot_cap`]).
    pub(crate) fn set_cycle_minutes(&mut self, discharge: f64, recharge: f64) {
        self.discharge_minutes = discharge;
        self.recharge_minutes = recharge;
    }

    pub(crate) fn alive_mut(&mut self) -> &mut SensorSet {
        &mut self.alive
    }

    pub(crate) fn targets_mut(&mut self) -> &mut Vec<TargetSpec> {
        &mut self.targets
    }

    /// Sensors whose marginal contribution a change to target `j` can
    /// affect: the target's live coverage.
    pub(crate) fn live_coverage(&self, j: usize) -> SensorSet {
        self.targets[j].coverage.intersection(&self.alive)
    }

    /// Sensors incident (through any shared target) to sensor `v`,
    /// including `v` itself — the O(deg) dirty neighbourhood of a sensor
    /// delta.
    pub(crate) fn neighbourhood(&self, v: usize) -> SensorSet {
        let mut dirty = SensorSet::new(self.n);
        dirty.insert(SensorId(v));
        for t in &self.targets {
            if t.coverage.contains(SensorId(v)) {
                dirty.union_with(&t.coverage.intersection(&self.alive));
            }
        }
        dirty
    }

    /// The deterministic canonical normal form: fixed key order, one
    /// line per field, targets in list order with sorted member lists.
    /// Two instances with equal state always render identically, so this
    /// string is the content-addressing key for session ids.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = self.write_canonical(&mut out);
        out
    }

    /// Writes the canonical form into `out`: the one renderer behind
    /// [`canonical`](SessionInstance::canonical) and the session id, which
    /// streams the same bytes into its hash without building the string.
    pub(crate) fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        writeln!(out, "session_v1")?;
        writeln!(out, "n={}", self.n)?;
        writeln!(out, "discharge_minutes={}", self.discharge_minutes)?;
        writeln!(out, "recharge_minutes={}", self.recharge_minutes)?;
        writeln!(out, "hours={}", self.hours)?;
        write!(out, "alive=")?;
        write_members(out, &self.alive)?;
        writeln!(out)?;
        for t in &self.targets {
            write!(out, "target p={} cover=", t.p)?;
            write_members(out, &t.coverage)?;
            writeln!(out)?;
        }
        Ok(())
    }
}

/// Writes a set's members as a sorted space-separated list (`-` when
/// empty, so the line shape stays fixed). Each member goes out in one
/// write with its separator, its decimal digits (the text `{}` renders)
/// built in a stack buffer: a large instance lists hundreds of thousands
/// of members, and the formatting machinery per member cost more than
/// hashing the text.
fn write_members(out: &mut impl fmt::Write, set: &SensorSet) -> fmt::Result {
    if set.is_empty() {
        return out.write_str("-");
    }
    // A separator and the 20 digits of `usize::MAX`.
    let mut buf = [0u8; 21];
    for (i, v) in set.iter().enumerate() {
        let mut at = buf.len();
        let mut rest = v.0;
        loop {
            at -= 1;
            buf[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if i > 0 {
            at -= 1;
            buf[at] = b' ';
        }
        out.write_str(std::str::from_utf8(&buf[at..]).map_err(|_| fmt::Error)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SessionInstance {
        SessionInstance::new(
            6,
            vec![
                TargetSpec {
                    coverage: SensorSet::from_indices(6, [0, 1, 2]),
                    p: 0.5,
                },
                TargetSpec {
                    coverage: SensorSet::from_indices(6, [2, 3, 4, 5]),
                    p: 0.25,
                },
            ],
            15.0,
            45.0,
            12.0,
        )
        .unwrap()
    }

    #[test]
    fn canonical_is_deterministic_and_complete() {
        let a = small();
        let b = small();
        assert_eq!(a.canonical(), b.canonical());
        let c = a.canonical();
        assert!(c.contains("n=6"));
        assert!(c.contains("alive=0 1 2 3 4 5"));
        assert!(c.contains("target p=0.5 cover=0 1 2"));
    }

    #[test]
    fn members_render_as_display_joined_by_spaces() {
        let ids = [0, 7, 9, 10, 99, 100, 1009, 65_536, 999_999];
        let set = SensorSet::from_indices(1_000_000, ids);
        let mut out = String::new();
        write_members(&mut out, &set).unwrap();
        let want: Vec<String> = ids.iter().map(ToString::to_string).collect();
        assert_eq!(out, want.join(" "));
        out.clear();
        write_members(&mut out, &SensorSet::new(3)).unwrap();
        assert_eq!(out, "-");
    }

    #[test]
    fn from_scenario_matches_scratch_solve() {
        let scenario = Scenario {
            sensors: 20,
            targets: 3,
            ..Default::default()
        };
        let instance = SessionInstance::from_scenario(&scenario).unwrap();
        assert_eq!(instance.n(), 20);
        assert_eq!(instance.targets().len(), 3);
        let session_schedule = instance.solve().unwrap();
        let built = scenario.build().unwrap();
        let scratch = try_greedy_schedule(&built.problem).unwrap();
        assert_eq!(session_schedule.assignment(), scratch.assignment());
    }

    #[test]
    fn validate_accepts_well_formed_instance() {
        // The sampled pre-flight is the oracle of the theorem the session
        // gate relies on.
        let instance = small();
        let report = cool_lint::preflight(
            &instance.utility(),
            instance.n(),
            instance.cycle().slots_per_period(),
        );
        assert_eq!(report.error_count(), 0, "{report}");
    }

    #[test]
    fn rejects_bad_probability_and_universe() {
        let bad_p = SessionInstance::new(
            3,
            vec![TargetSpec {
                coverage: SensorSet::full(3),
                p: 1.5,
            }],
            15.0,
            45.0,
            12.0,
        );
        assert!(bad_p.is_err());
        let bad_universe = SessionInstance::new(
            3,
            vec![TargetSpec {
                coverage: SensorSet::full(4),
                p: 0.5,
            }],
            15.0,
            45.0,
            12.0,
        );
        assert!(bad_universe.is_err());
        // ρ = 4096: a 4097-slot period, one over the cap.
        let over_cap = SessionInstance::new(
            3,
            vec![TargetSpec {
                coverage: SensorSet::full(3),
                p: 0.5,
            }],
            1.0,
            4096.0,
            12.0,
        );
        assert!(over_cap.unwrap_err().contains("more than 4096 slots"));
    }
}
