//! Scenario files: declarative scheduling runs for the `cool` CLI and the
//! `cool-serve` daemon.
//!
//! A scenario is a tiny `key = value` text format (comments with `#`)
//! describing a deployment, a utility, a charging pattern and a scheduler;
//! [`Scenario::parse`] reads it, [`Scenario::build`] materialises the
//! [`Problem`] instance for any scheduler to consume, and
//! [`Scenario::run`] executes the scenario's own scheduler and returns a
//! [`ScenarioOutcome`] the CLI renders. [`Scenario::canonical`] renders a
//! normal form used as the content-addressed cache key by the serving
//! layer.
//!
//! This crate is the one owner of the scenario grammar and of the instance
//! recipe. [`assignments`] splits a text into its `key = value` lines and
//! [`KEYS`] lists every key, in canonical order. [`Scenario::assign`]
//! parses one value into its field and checks nothing else;
//! [`Scenario::set`] is `assign` plus the value ranges, and
//! [`Scenario::parse`] is `assign` over every assignment plus the range
//! check of each key's last one, stopping at the first error. `cool-lint`
//! walks the same assignments with `assign` to report every problem at
//! once. [`Scenario::instance`] derives the
//! geometric instance and [`Scenario::profiles`] the per-sensor energy
//! profiles; every consumer, the linter included, goes through them.
//! Example:
//!
//! ```text
//! # 100 sensors watching 5 targets through a sunny day
//! sensors            = 100
//! targets            = 5
//! detection_p        = 0.4
//! discharge_minutes  = 15
//! recharge_minutes   = 45
//! hours              = 12
//! region             = 500
//! radius             = 100
//! seed               = 7
//! scheduler          = greedy
//! ```

use cool_common::{SeedSequence, Table};
use cool_core::baselines::{
    hef_schedule, random_schedule, round_robin_schedule, rsc_schedule, set_once_schedule,
    static_schedule,
};
use cool_core::bounds::{grid_duty_upper_bound, single_target_upper_bound_with_budget};
use cool_core::greedy::greedy_schedule_lazy;
use cool_core::hetero::{hetero_greedy_lazy, GridSchedule};
use cool_core::instances::geometric_multi_target;
use cool_core::problem::Problem;
use cool_core::schedule::PeriodSchedule;
use cool_energy::{ChargeCycle, Fleet, FleetGrid, SensorProfile};
use cool_geometry::{Point, Rect};
use cool_utility::{AnyUtility, SumUtility};
use std::fmt;
use std::str::FromStr;

/// Every scenario key, in the order [`Scenario::canonical`] renders them.
pub const KEYS: [&str; 15] = [
    "sensors",
    "targets",
    "detection_p",
    "discharge_minutes",
    "recharge_minutes",
    "hours",
    "region",
    "radius",
    "comms_radius",
    "seed",
    "scheduler",
    "battery",
    "mu_d",
    "mu_r",
    "solar_eff",
];

/// The values the `scheduler` key accepts.
const SCHEDULER_NAMES: &str =
    "greedy | lazy | round-robin | random | static | rsc | set-once | hef";

/// The assignments of a scenario text. Each line that is not blank once its
/// `#` comment is cut yields its 1-based number and either the trimmed
/// `(key, value)` of a `key = value` line or, for any other line, the whole
/// trimmed line.
pub fn assignments(text: &str) -> impl Iterator<Item = (usize, Result<(&str, &str), &str>)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return None;
        }
        let assignment = line
            .split_once('=')
            .map(|(key, value)| (key.trim(), value.trim()))
            .ok_or(raw.trim());
        Some((idx + 1, assignment))
    })
}

/// Which scheduling algorithm a scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Greedy hill-climbing (Algorithm 1), built by its CELF form
    /// (bitwise the naive loop); `lazy` is a spelling of it.
    #[default]
    Greedy,
    /// Round-robin baseline.
    RoundRobin,
    /// Uniform random baseline.
    Random,
    /// Everyone-in-slot-0 baseline.
    Static,
    /// Restricted Strip Covering baseline (grid path).
    Rsc,
    /// Set-Once Strip Cover baseline (grid path).
    SetOnce,
    /// High-Energy-First baseline (grid path).
    Hef,
}

impl SchedulerKind {
    /// `true` for the schedulers that run on the heterogeneous LCM tick
    /// grid ([`Scenario::run_fleet`]) rather than the homogeneous
    /// period-schedule path.
    pub fn is_grid_scheduler(self) -> bool {
        matches!(
            self,
            SchedulerKind::Rsc | SchedulerKind::SetOnce | SchedulerKind::Hef
        )
    }
}

impl FromStr for SchedulerKind {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "greedy" | "lazy" => Ok(SchedulerKind::Greedy),
            "round-robin" | "round_robin" => Ok(SchedulerKind::RoundRobin),
            "random" => Ok(SchedulerKind::Random),
            "static" => Ok(SchedulerKind::Static),
            "rsc" => Ok(SchedulerKind::Rsc),
            "set-once" | "set_once" => Ok(SchedulerKind::SetOnce),
            "hef" => Ok(SchedulerKind::Hef),
            other => Err(bad_value("scheduler", other, SCHEDULER_NAMES)),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchedulerKind::Greedy => "greedy",
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::Random => "random",
            SchedulerKind::Static => "static",
            SchedulerKind::Rsc => "rsc",
            SchedulerKind::SetOnce => "set-once",
            SchedulerKind::Hef => "hef",
        };
        f.write_str(s)
    }
}

/// Error parsing a scenario file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// A line was not `key = value` or a comment.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// An unknown key.
    UnknownKey {
        /// The key.
        key: String,
    },
    /// A value failed to parse or was out of range.
    BadValue {
        /// The key.
        key: String,
        /// The raw value.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadLine { line, text } => {
                write!(f, "line {line}: expected `key = value`, got `{text}`")
            }
            ScenarioError::UnknownKey { key } => write!(f, "unknown key `{key}`"),
            ScenarioError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "bad value `{value}` for `{key}` (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The position of `key` in [`KEYS`].
fn key_index(key: &str) -> Option<usize> {
    KEYS.iter().position(|&known| known == key)
}

/// The line each of [`KEYS`] is last assigned on in `text` (0 for none).
fn last_assignment_lines(text: &str) -> [usize; KEYS.len()] {
    let mut last = [0; KEYS.len()];
    for (line, assignment) in assignments(text) {
        if let Some(k) = assignment.ok().and_then(|(key, _)| key_index(key)) {
            last[k] = line;
        }
    }
    last
}

/// The error for `key = value` when the field takes `expected`.
fn bad_value(key: &str, value: &str, expected: &str) -> ScenarioError {
    ScenarioError::BadValue {
        key: key.into(),
        value: value.into(),
        expected: expected.into(),
    }
}

/// Parses `value` into `field`; `false` (and `field` untouched) when it
/// does not parse.
fn parse_into<T: FromStr>(field: &mut T, value: &str) -> bool {
    value.parse().map(|parsed| *field = parsed).is_ok()
}

/// Parses a comma-separated list of numbers into `field`. An empty value
/// clears the list back to "unset".
fn parse_list(field: &mut Vec<f64>, value: &str) -> bool {
    if value.trim().is_empty() {
        field.clear();
        return true;
    }
    let items: Result<Vec<f64>, _> = value.split(',').map(|item| item.trim().parse()).collect();
    items.map(|items| *field = items).is_ok()
}

/// `true` when every entry is positive, finite and at most `max`.
fn all_positive(values: &[f64], max: f64) -> bool {
    values.iter().all(|&x| x.is_finite() && x > 0.0 && x <= max)
}

/// Renders a profile list for [`Scenario::canonical`]: comma-joined, empty
/// when unset.
fn render_list(values: &[f64]) -> String {
    values
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// A declarative scheduling run.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Number of sensors `n`.
    pub sensors: usize,
    /// Number of targets `m`.
    pub targets: usize,
    /// Per-sensor detection probability `p`.
    pub detection_p: f64,
    /// Discharge time `T_d` in minutes.
    pub discharge_minutes: f64,
    /// Recharge time `T_r` in minutes.
    pub recharge_minutes: f64,
    /// Working time in hours.
    pub hours: f64,
    /// Square region side length.
    pub region: f64,
    /// Sensing radius.
    pub radius: f64,
    /// Communication radius for the `cool audit` connectivity lint; `0`
    /// (the default) disables the check.
    pub comms_radius: f64,
    /// Root random seed.
    pub seed: u64,
    /// Scheduler to run.
    pub scheduler: SchedulerKind,
    /// Per-sensor battery capacities in watt-hours (comma list, assigned
    /// cyclically: sensor `v` gets `battery[v mod len]`). Empty = the
    /// default capacity. When ANY of the four profile lists is non-empty,
    /// the profiles define the energy model and `discharge_minutes` /
    /// `recharge_minutes` are ignored.
    pub battery: Vec<f64>,
    /// Per-sensor active power draws in milliwatts (comma list, cyclic).
    pub mu_d: Vec<f64>,
    /// Per-sensor recharge powers in milliwatts (comma list, cyclic).
    pub mu_r: Vec<f64>,
    /// Per-sensor solar efficiencies in `(0, 1]` (comma list, cyclic).
    pub solar_eff: Vec<f64>,
}

impl Default for Scenario {
    /// The paper's testbed setting: 100 sensors, 5 targets, `p = 0.4`,
    /// sunny cycle, 12-hour day.
    fn default() -> Self {
        Scenario {
            sensors: 100,
            targets: 5,
            detection_p: 0.4,
            discharge_minutes: 15.0,
            recharge_minutes: 45.0,
            hours: 12.0,
            region: 500.0,
            radius: 100.0,
            comms_radius: 0.0,
            seed: 2011,
            scheduler: SchedulerKind::Greedy,
            battery: Vec::new(),
            mu_d: Vec::new(),
            mu_r: Vec::new(),
            solar_eff: Vec::new(),
        }
    }
}

/// A scenario materialised into a schedulable instance: the problem, its
/// charging cycle, and the horizon in whole periods.
#[derive(Clone, Debug)]
pub struct BuiltScenario {
    /// The instance any scheduler in `cool-core` accepts.
    pub problem: Problem<SumUtility>,
    /// The derived charging cycle.
    pub cycle: ChargeCycle,
    /// Whole charging periods in the working time (at least 1).
    pub periods: usize,
}

/// A scenario materialised onto the heterogeneous LCM tick grid.
#[derive(Clone, Debug)]
pub struct BuiltFleetScenario {
    /// The geometric utility instance.
    pub utility: SumUtility,
    /// The per-sensor energy profiles and cycles.
    pub fleet: Fleet,
    /// The LCM tick grid.
    pub grid: FleetGrid,
    /// Whole hyperperiods in the working time (at least 1).
    pub hyperperiods: usize,
}

/// The result of running a [`Scenario`] on the fleet grid
/// ([`Scenario::run_fleet`]).
#[derive(Clone, Debug)]
pub struct FleetScenarioOutcome {
    /// The scenario that produced this outcome.
    pub scenario: Scenario,
    /// The LCM tick grid the schedule lives on.
    pub grid: FleetGrid,
    /// The produced (feasible) per-tick schedule.
    pub schedule: GridSchedule,
    /// Average utility per target per tick.
    pub average: f64,
    /// The duty-cycle upper bound, averaged the same way.
    pub bound: f64,
}

impl fmt::Display for FleetScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario: {} sensors, {} targets, p = {}, {} scheduler (fleet grid)",
            self.scenario.sensors,
            self.scenario.targets,
            self.scenario.detection_p,
            self.scenario.scheduler
        )?;
        writeln!(f, "grid:     {}", self.grid)?;
        writeln!(f)?;
        let mut table = Table::new(["metric", "value"]);
        table.row([
            "avg utility / target / tick",
            &format!("{:.6}", self.average),
        ]);
        table.row(["duty-cycle upper bound", &format!("{:.6}", self.bound)]);
        table.row([
            "fraction of bound",
            &format!("{:.2}%", self.average / self.bound * 100.0),
        ]);
        write!(f, "{table}")?;
        writeln!(f)?;
        writeln!(f, "per-tick active counts (one hyperperiod):")?;
        for t in 0..self.grid.hyperperiod() {
            writeln!(
                f,
                "  t{t}: {:>4} sensors",
                self.schedule.active_set(t).len()
            )?;
        }
        Ok(())
    }
}

impl Scenario {
    /// Parses a scenario file; unspecified keys keep their defaults. A key
    /// assigned twice takes its later value, and only that value is
    /// range-checked.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] for the first malformed line, unknown
    /// key, unparsable value or out-of-range value.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let mut scenario = Scenario::default();
        let mut last_lines = None;
        for (line, assignment) in assignments(text) {
            let (key, value) = assignment.map_err(|text| ScenarioError::BadLine {
                line,
                text: text.into(),
            })?;
            let expected = scenario.assign(key, value)?;
            if !scenario.in_range(key) {
                let last = last_lines.get_or_insert_with(|| last_assignment_lines(text));
                if key_index(key).is_some_and(|k| last[k] == line) {
                    return Err(bad_value(key, value, expected));
                }
            }
        }
        Ok(scenario)
    }

    /// Applies one `key = value` override (also used for CLI `--set`):
    /// [`Scenario::assign`], then the field's range check. Counts are at
    /// least 1, `detection_p` lies in `[0, 1]`, `comms_radius` is finite and
    /// non-negative, and every profile-list entry is positive and finite
    /// (`solar_eff` entries at most 1). Durations and geometry are checked
    /// where they are used: [`Scenario::build`] and [`Scenario::instance`].
    ///
    /// # Errors
    ///
    /// As [`Scenario::parse`]. A value that parses but is out of range stays
    /// assigned.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ScenarioError> {
        let expected = self.assign(key, value)?;
        if self.in_range(key) {
            Ok(())
        } else {
            Err(bad_value(key, value, expected))
        }
    }

    /// The range check [`Scenario::set`] makes on the field `key` names.
    fn in_range(&self, key: &str) -> bool {
        match key {
            "sensors" => self.sensors >= 1,
            "targets" => self.targets >= 1,
            "detection_p" => (0.0..=1.0).contains(&self.detection_p),
            "comms_radius" => self.comms_radius.is_finite() && self.comms_radius >= 0.0,
            "battery" => all_positive(&self.battery, f64::INFINITY),
            "mu_d" => all_positive(&self.mu_d, f64::INFINITY),
            "mu_r" => all_positive(&self.mu_r, f64::INFINITY),
            "solar_eff" => all_positive(&self.solar_eff, 1.0),
            _ => true,
        }
    }

    /// Parses `value` into the field `key` names, with no range check: the
    /// typed half of [`Scenario::set`], which the linter's tolerant parse
    /// calls so it can report every out-of-range field itself. Returns the
    /// text describing the values the field accepts.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownKey`] for a key outside [`KEYS`];
    /// [`ScenarioError::BadValue`], carrying that text, for a value that
    /// does not parse. The field keeps its old value on error.
    pub fn assign(&mut self, key: &str, value: &str) -> Result<&'static str, ScenarioError> {
        let (parsed, expected) = match key {
            "sensors" => (parse_into(&mut self.sensors, value), "a positive integer"),
            "targets" => (parse_into(&mut self.targets, value), "a positive integer"),
            "detection_p" => (
                parse_into(&mut self.detection_p, value),
                "a probability in [0, 1]",
            ),
            "discharge_minutes" => (
                parse_into(&mut self.discharge_minutes, value),
                "minutes > 0",
            ),
            "recharge_minutes" => (parse_into(&mut self.recharge_minutes, value), "minutes > 0"),
            "hours" => (parse_into(&mut self.hours, value), "hours > 0"),
            "region" => (parse_into(&mut self.region, value), "a side length > 0"),
            "radius" => (parse_into(&mut self.radius, value), "a radius > 0"),
            "comms_radius" => (parse_into(&mut self.comms_radius, value), "a radius >= 0"),
            "seed" => (parse_into(&mut self.seed, value), "an unsigned integer"),
            "scheduler" => (parse_into(&mut self.scheduler, value), SCHEDULER_NAMES),
            "battery" => (
                parse_list(&mut self.battery, value),
                "a comma-separated list of watt-hours > 0",
            ),
            "mu_d" => (
                parse_list(&mut self.mu_d, value),
                "a comma-separated list of milliwatts > 0",
            ),
            "mu_r" => (
                parse_list(&mut self.mu_r, value),
                "a comma-separated list of milliwatts > 0",
            ),
            "solar_eff" => (
                parse_list(&mut self.solar_eff, value),
                "a comma-separated list of efficiencies in (0, 1]",
            ),
            other => return Err(ScenarioError::UnknownKey { key: other.into() }),
        };
        if parsed {
            Ok(expected)
        } else {
            Err(bad_value(key, value, expected))
        }
    }

    /// `true` when any per-sensor profile list is set — the scenario then
    /// describes a (possibly heterogeneous) fleet and the profile fields,
    /// not `discharge_minutes`/`recharge_minutes`, define the energy model.
    pub fn has_profiles(&self) -> bool {
        !self.battery.is_empty()
            || !self.mu_d.is_empty()
            || !self.mu_r.is_empty()
            || !self.solar_eff.is_empty()
    }

    /// A template scenario file with the defaults spelled out.
    pub fn template() -> String {
        let d = Scenario::default();
        format!(
            "# cool scheduling scenario\n\
             sensors            = {}\n\
             targets            = {}\n\
             detection_p        = {}\n\
             discharge_minutes  = {}\n\
             recharge_minutes   = {}\n\
             hours              = {}\n\
             region             = {}\n\
             radius             = {}\n\
             comms_radius       = {}   # 0 disables the connectivity lint\n\
             seed               = {}\n\
             scheduler          = {}   # greedy (alias lazy) | round-robin | random | static | rsc | set-once | hef\n\
             # Heterogeneous fleets: uncomment any of the four per-sensor\n\
             # profile lists (comma-separated, assigned cyclically). When\n\
             # any is set, the profiles define the energy model and the\n\
             # discharge/recharge keys above are ignored.\n\
             # battery          = 30,60       # watt-hours\n\
             # mu_d             = 120         # active draw, mW\n\
             # mu_r             = 40          # recharge power, mW\n\
             # solar_eff        = 1,0.5       # panel derating in (0, 1]\n",
            d.sensors,
            d.targets,
            d.detection_p,
            d.discharge_minutes,
            d.recharge_minutes,
            d.hours,
            d.region,
            d.radius,
            d.comms_radius,
            d.seed,
            d.scheduler
        )
    }

    /// The canonical normal form of this scenario: one `key=value` per
    /// line, fixed key order, no comments or whitespace variation. Two
    /// scenario texts that parse to the same [`Scenario`] always
    /// canonicalise identically, so this string (not the raw input) is the
    /// right content-addressed cache key.
    pub fn canonical(&self) -> String {
        format!(
            "sensors={}\ntargets={}\ndetection_p={}\ndischarge_minutes={}\n\
             recharge_minutes={}\nhours={}\nregion={}\nradius={}\ncomms_radius={}\nseed={}\n\
             scheduler={}\nbattery={}\nmu_d={}\nmu_r={}\nsolar_eff={}\n",
            self.sensors,
            self.targets,
            self.detection_p,
            self.discharge_minutes,
            self.recharge_minutes,
            self.hours,
            self.region,
            self.radius,
            self.comms_radius,
            self.seed,
            self.scheduler,
            render_list(&self.battery),
            render_list(&self.mu_d),
            render_list(&self.mu_r),
            render_list(&self.solar_eff),
        )
    }

    /// Materialises the scenario into a [`Problem`] without running any
    /// scheduler — the entry point for callers (like `cool-serve`) that
    /// choose the algorithm themselves. The same as
    /// [`Scenario::build_with`]`(None)`.
    ///
    /// # Errors
    ///
    /// Returns a rendered error string for invalid cycle parameters (e.g. a
    /// non-integral ρ, or a period of more than
    /// [`FleetGrid::MAX_HYPERPERIOD_TICKS`] slots), degenerate horizons or
    /// bad geometry ([`Scenario::instance`]).
    pub fn build(&self) -> Result<BuiltScenario, String> {
        self.build_with(None)
    }

    /// [`Scenario::build`] around an instance utility already derived:
    /// `utility`, when given, must be the one [`Scenario::instance`]
    /// returns for this scenario, and is used instead of deriving it again
    /// (`cool-serve` hands over the utility its pre-flight linted).
    ///
    /// # Errors
    ///
    /// As [`Scenario::build`]; bad geometry only when `utility` is `None`.
    pub fn build_with(&self, utility: Option<SumUtility>) -> Result<BuiltScenario, String> {
        let cycle = self.cycle()?;
        let periods = cycle.periods_in_hours(self.hours).max(1);

        let utility = match utility {
            Some(utility) => utility,
            None => self.instance()?.0,
        };
        let problem = Problem::new(utility, cycle, periods).map_err(|e| e.to_string())?;
        Ok(BuiltScenario {
            problem,
            cycle,
            periods,
        })
    }

    /// The scenario's homogeneous charging cycle: the one cycle its profile
    /// lists share when any is set, otherwise the cycle of its two
    /// durations. Every build derives it here, [`Scenario::build`] and
    /// `cool check`'s alike.
    ///
    /// # Errors
    ///
    /// Returns a rendered error string for a mixed fleet, invalid cycle
    /// parameters (e.g. a non-integral ρ), or a period of more than
    /// [`FleetGrid::MAX_HYPERPERIOD_TICKS`] slots
    /// ([`ChargeCycle::within_slot_cap`]).
    pub fn cycle(&self) -> Result<ChargeCycle, String> {
        let cycle = if self.has_profiles() {
            let fleet = self.fleet()?;
            fleet.uniform_cycle().ok_or_else(|| {
                "scenario defines a mixed fleet; homogeneous consumers cannot run it — \
                 use build_fleet()/run_fleet() (CLI: cool run with scheduler = greedy | \
                 lazy | rsc | set-once | hef)"
                    .to_string()
            })?
        } else {
            ChargeCycle::from_minutes(self.discharge_minutes, self.recharge_minutes)
                .map_err(|e| e.to_string())?
        };
        cycle.within_slot_cap()
    }

    /// The working time in slots, `L = periods × T`, that the per-sensor
    /// horizon greedy plans slot by slot (`cool serve`'s `"horizon"`
    /// algorithm, `cool check`'s horizon relations).
    ///
    /// # Errors
    ///
    /// As [`Scenario::cycle`], and when `L` is more than
    /// [`FleetGrid::MAX_HYPERPERIOD_TICKS`] slots: the bound on one period
    /// bounds the whole horizon too, before anything is allocated for it.
    pub fn horizon_slots(&self) -> Result<usize, String> {
        let cycle = self.cycle()?;
        let slots = cycle
            .periods_in_hours(self.hours)
            .max(1)
            .saturating_mul(cycle.slots_per_period());
        if slots > FleetGrid::MAX_HYPERPERIOD_TICKS {
            return Err(format!(
                "hours = {} spans more than {} slots, the most a horizon schedule plans",
                self.hours,
                FleetGrid::MAX_HYPERPERIOD_TICKS
            ));
        }
        Ok(slots)
    }

    /// The scenario's geometric instance, deterministic in `seed`: sensors
    /// and targets drawn by `geometric_multi_target` over the
    /// `region`-sided square from seed stream 0. Returns the utility with
    /// the sensor and target positions. Every consumer derives the instance
    /// here: the builds, the linter and `cool check`.
    ///
    /// # Errors
    ///
    /// Returns a rendered error string when `region` or `radius` is not
    /// positive and finite.
    ///
    /// # Panics
    ///
    /// When `sensors`, `targets` or `detection_p` is outside the range
    /// [`Scenario::set`] enforces.
    pub fn instance(&self) -> Result<(SumUtility, Vec<Point>, Vec<Point>), String> {
        for (key, value) in [("region", self.region), ("radius", self.radius)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("{key} = {value} must be positive and finite"));
            }
        }
        let mut rng = SeedSequence::new(self.seed).nth_rng(0);
        Ok(geometric_multi_target(
            Rect::square(self.region),
            self.sensors,
            self.targets,
            self.radius,
            self.detection_p,
            &mut rng,
        ))
    }

    /// The per-sensor energy profiles the four lists assign cyclically:
    /// sensor `v` takes entry `v mod len` of each set list and the default
    /// of each unset one.
    pub fn profiles(&self) -> Vec<SensorProfile> {
        let defaults = SensorProfile::default();
        let pick = |values: &[f64], v: usize, default: f64| {
            if values.is_empty() {
                default
            } else {
                values[v % values.len()]
            }
        };
        (0..self.sensors)
            .map(|v| SensorProfile {
                battery: pick(&self.battery, v, defaults.battery),
                mu_d: pick(&self.mu_d, v, defaults.mu_d),
                mu_r: pick(&self.mu_r, v, defaults.mu_r),
                solar_eff: pick(&self.solar_eff, v, defaults.solar_eff),
            })
            .collect()
    }

    /// The scenario's fleet: [`Scenario::profiles`] when any profile list
    /// is set, otherwise `sensors` copies of the homogeneous cycle stored
    /// verbatim.
    ///
    /// # Errors
    ///
    /// Returns a rendered error string for degenerate profiles or cycles.
    pub fn fleet(&self) -> Result<Fleet, String> {
        if self.has_profiles() {
            Fleet::new(self.profiles()).map_err(|e| e.to_string())
        } else {
            let cycle = ChargeCycle::from_minutes(self.discharge_minutes, self.recharge_minutes)
                .map_err(|e| e.to_string())?;
            Fleet::uniform_from_cycle(self.sensors, cycle).map_err(|e| e.to_string())
        }
    }

    /// Materialises the scenario onto the heterogeneous LCM tick grid —
    /// the entry point for mixed fleets and the grid schedulers
    /// (`rsc`/`set-once`/`hef`), which work on homogeneous scenarios too.
    ///
    /// # Errors
    ///
    /// As [`Scenario::fleet`], plus grid-construction failures
    /// (non-commensurable durations, hyperperiod over the cap) and bad
    /// geometry ([`Scenario::instance`]).
    pub fn build_fleet(&self) -> Result<BuiltFleetScenario, String> {
        let fleet = self.fleet()?;
        let grid = FleetGrid::build(&fleet).map_err(|e| e.to_string())?;
        let hyperperiod_minutes = grid.ticks_to_minutes(grid.hyperperiod());
        let hyperperiods = ((self.hours * 60.0 / hyperperiod_minutes).floor() as usize).max(1);
        let (utility, _positions, _targets) = self.instance()?;
        Ok(BuiltFleetScenario {
            utility,
            fleet,
            grid,
            hyperperiods,
        })
    }

    /// Executes the scenario on the LCM tick grid with its own scheduler
    /// selection — the heterogeneous counterpart of [`Scenario::run`].
    ///
    /// # Errors
    ///
    /// As [`Scenario::build_fleet`]; also rejects the homogeneous-only
    /// baselines (`round-robin`/`random`/`static`) and infeasible output.
    pub fn run_fleet(&self) -> Result<FleetScenarioOutcome, String> {
        let built = self.build_fleet()?;
        let BuiltFleetScenario {
            utility,
            fleet,
            grid,
            ..
        } = &built;
        let schedule: GridSchedule = match self.scheduler {
            SchedulerKind::Greedy => hetero_greedy_lazy(utility, grid)
                .map_err(|e| e.to_string())?
                .to_grid_schedule(),
            SchedulerKind::Rsc => rsc_schedule(utility, grid).map_err(|e| e.to_string())?,
            SchedulerKind::SetOnce => set_once_schedule(grid),
            SchedulerKind::Hef => hef_schedule(utility, fleet, grid)
                .map_err(|e| e.to_string())?
                .to_grid_schedule(),
            other => {
                return Err(format!(
                    "scheduler `{other}` does not support fleet scheduling; \
                     use greedy | lazy | rsc | set-once | hef"
                ))
            }
        };
        if !schedule.is_feasible(grid) {
            return Err("scheduler produced an energy-infeasible fleet schedule".into());
        }
        let h = grid.hyperperiod() as f64;
        let m = utility.n_targets() as f64;
        let average = schedule.hyperperiod_utility(utility) / (h * m);
        let bound = grid_duty_upper_bound(utility, grid) / (h * m);
        Ok(FleetScenarioOutcome {
            scenario: self.clone(),
            grid: grid.clone(),
            schedule,
            average,
            bound,
        })
    }

    /// Executes the scenario with its own `scheduler` selection.
    ///
    /// # Errors
    ///
    /// As [`Scenario::build`], plus an infeasible-schedule report if a
    /// scheduler misbehaves.
    pub fn run(&self) -> Result<ScenarioOutcome, String> {
        let built = self.build()?;
        let BuiltScenario { problem, cycle, .. } = &built;
        let seeds = SeedSequence::new(self.seed);

        let schedule = match self.scheduler {
            SchedulerKind::Greedy => greedy_schedule_lazy(problem),
            SchedulerKind::RoundRobin => round_robin_schedule(problem),
            SchedulerKind::Random => random_schedule(problem, &mut seeds.nth_rng(1)),
            SchedulerKind::Static => static_schedule(problem),
            grid @ (SchedulerKind::Rsc | SchedulerKind::SetOnce | SchedulerKind::Hef) => {
                return Err(format!(
                    "scheduler `{grid}` runs on the fleet grid; use run_fleet() \
                     (CLI: cool run dispatches it automatically)"
                ))
            }
        };
        if !schedule.is_feasible(*cycle) {
            return Err("scheduler produced an infeasible schedule".into());
        }

        let average = problem.average_utility_per_target_slot(&schedule);
        let bound = self.average_bound(problem, *cycle);
        Ok(ScenarioOutcome {
            scenario: self.clone(),
            cycle: *cycle,
            schedule,
            average,
            bound,
        })
    }

    /// The per-target-averaged optimum upper bound for this scenario's
    /// instance (§VI-B closed form per detection part, 1.0 otherwise).
    pub fn average_bound(&self, problem: &Problem<SumUtility>, cycle: ChargeCycle) -> f64 {
        let t = cycle.slots_per_period();
        let budget = cycle.active_slots_per_period();
        let bounds: Vec<f64> = problem
            .utility()
            .parts()
            .iter()
            .map(|part| match part {
                AnyUtility::Detection(d) => single_target_upper_bound_with_budget(
                    d.probs().len().max(1),
                    t,
                    budget,
                    self.detection_p,
                ),
                _ => 1.0,
            })
            .collect();
        bounds.iter().sum::<f64>() / bounds.len() as f64
    }
}

/// The result of running a [`Scenario`].
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario that produced this outcome.
    pub scenario: Scenario,
    /// The derived charging cycle.
    pub cycle: ChargeCycle,
    /// The produced (feasible) schedule.
    pub schedule: PeriodSchedule,
    /// Average utility per target per slot.
    pub average: f64,
    /// Per-target-averaged optimum upper bound.
    pub bound: f64,
}

impl fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario: {} sensors, {} targets, p = {}, {} scheduler",
            self.scenario.sensors,
            self.scenario.targets,
            self.scenario.detection_p,
            self.scenario.scheduler
        )?;
        writeln!(f, "cycle:    {}", self.cycle)?;
        writeln!(
            f,
            "horizon:  {} h = {} periods",
            self.scenario.hours,
            self.cycle.periods_in_hours(self.scenario.hours).max(1)
        )?;
        writeln!(f)?;
        let mut table = Table::new(["metric", "value"]);
        table.row([
            "avg utility / target / slot",
            &format!("{:.6}", self.average),
        ]);
        table.row(["optimum upper bound", &format!("{:.6}", self.bound)]);
        table.row([
            "fraction of bound",
            &format!("{:.2}%", self.average / self.bound * 100.0),
        ]);
        write!(f, "{table}")?;
        writeln!(f)?;
        writeln!(f, "per-slot active counts (one period):")?;
        for t in 0..self.schedule.slots_per_period() {
            writeln!(
                f,
                "  t{t}: {:>4} sensors",
                self.schedule.active_set(t).len()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::greedy::greedy_schedule;

    #[test]
    fn template_round_trips() {
        let template = Scenario::template();
        let parsed = Scenario::parse(&template).unwrap();
        assert_eq!(parsed, Scenario::default());
    }

    #[test]
    fn parse_with_comments_and_overrides() {
        let s =
            Scenario::parse("# comment\n\nsensors = 10  # trailing comment\nscheduler = lazy\n")
                .unwrap();
        assert_eq!(s.sensors, 10);
        assert_eq!(s.scheduler, SchedulerKind::Greedy);
        assert_eq!(s.targets, Scenario::default().targets);
        // `lazy` is a spelling of `greedy`: the same scenario, the same
        // canonical form.
        let greedy = Scenario::parse("sensors = 10\nscheduler = greedy\n").unwrap();
        assert_eq!(s, greedy);
        assert_eq!(s.canonical(), greedy.canonical());
    }

    #[test]
    fn parse_errors_are_specific() {
        assert!(matches!(
            Scenario::parse("nonsense line"),
            Err(ScenarioError::BadLine { line: 1, .. })
        ));
        assert!(matches!(
            Scenario::parse("volume = 11"),
            Err(ScenarioError::UnknownKey { .. })
        ));
        assert!(matches!(
            Scenario::parse("detection_p = 1.5"),
            Err(ScenarioError::BadValue { .. })
        ));
        assert!(matches!(
            Scenario::parse("sensors = 0"),
            Err(ScenarioError::BadValue { .. })
        ));
        assert!(matches!(
            Scenario::parse("scheduler = quantum"),
            Err(ScenarioError::BadValue { .. })
        ));
        let err = Scenario::parse("scheduler = quantum").unwrap_err();
        assert!(err.to_string().contains("greedy"));
    }

    #[test]
    fn a_later_assignment_overrides_an_out_of_range_one() {
        let s = Scenario::parse("sensors = 0\nsensors = 5\nbattery = 30,-2\nbattery =\n").unwrap();
        assert_eq!(s.sensors, 5);
        assert!(!s.has_profiles());
        // The value that stands is still checked, and an unparsable value
        // fails wherever it is.
        assert!(Scenario::parse("sensors = 5\nsensors = 0\n").is_err());
        assert!(Scenario::parse("sensors = abc\nsensors = 5\n").is_err());
    }

    #[test]
    fn run_small_scenario() {
        let mut s = Scenario::default();
        s.set("sensors", "20").unwrap();
        s.set("targets", "3").unwrap();
        s.set("region", "100").unwrap();
        s.set("radius", "40").unwrap();
        let outcome = s.run().unwrap();
        assert!(outcome.average > 0.0 && outcome.average <= 1.0);
        assert!(outcome.average <= outcome.bound + 1e-9);
        assert!(outcome.schedule.is_feasible(outcome.cycle));
        let text = outcome.to_string();
        assert!(text.contains("avg utility"));
    }

    #[test]
    fn fast_recharge_bound_dominates() {
        // ρ ≤ 1 regression: the bound must account for multi-slot activity.
        let mut s = Scenario::default();
        s.set("sensors", "30").unwrap();
        s.set("targets", "4").unwrap();
        s.set("detection_p", "0.3").unwrap();
        s.set("discharge_minutes", "45").unwrap();
        s.set("recharge_minutes", "15").unwrap();
        s.set("region", "200").unwrap();
        s.set("radius", "60").unwrap();
        let outcome = s.run().unwrap();
        assert!(
            outcome.average <= outcome.bound + 1e-9,
            "utility {} exceeded bound {}",
            outcome.average,
            outcome.bound
        );
    }

    #[test]
    fn all_schedulers_run() {
        for kind in ["greedy", "lazy", "round-robin", "random", "static"] {
            let mut s = Scenario::default();
            s.set("sensors", "12").unwrap();
            s.set("targets", "2").unwrap();
            s.set("scheduler", kind).unwrap();
            let outcome = s.run().unwrap();
            assert!(outcome.schedule.is_feasible(outcome.cycle), "{kind}");
        }
    }

    #[test]
    fn rejects_non_integral_rho() {
        let mut s = Scenario::default();
        s.set("recharge_minutes", "40").unwrap(); // 40/15 not integral
        let err = s.run().unwrap_err();
        assert!(err.contains("integer"));
    }

    #[test]
    fn a_period_over_the_grid_cap_is_an_error_not_a_panic() {
        // rho = 4095 is the longest period the cap admits: 4096 slots.
        let mut s = Scenario::default();
        s.set("sensors", "4").unwrap();
        s.set("targets", "1").unwrap();
        s.set("recharge_minutes", "61425").unwrap();
        assert_eq!(s.build().unwrap().cycle.slots_per_period(), 4096);
        for overrides in [
            &[("recharge_minutes", "61440")][..],
            &[("recharge_minutes", "1.5e19"), ("hours", "1e30")],
            &[("discharge_minutes", "18446744073709551616")],
            &[("recharge_minutes", "1e300")],
            &[("mu_r", "0.01")],
        ] {
            let mut s = Scenario::default();
            for (key, value) in overrides {
                s.set(key, value).unwrap();
            }
            let err = s.build().unwrap_err();
            assert!(
                err.ends_with("gives a period of more than 4096 slots"),
                "{err}"
            );
            assert!(s.run().is_err(), "{overrides:?}");
        }
    }

    #[test]
    fn canonical_ignores_surface_syntax() {
        let a = Scenario::parse("sensors = 10   # c\n\nseed=7\n").unwrap();
        let b = Scenario::parse("seed = 7\nsensors = 10\n").unwrap();
        assert_eq!(a.canonical(), b.canonical());
        let c = Scenario::parse("sensors = 11\nseed = 7\n").unwrap();
        assert_ne!(a.canonical(), c.canonical());
        // Every key participates in the normal form, in `KEYS` order, and
        // the normal form parses back to the same scenario.
        let canonical = a.canonical();
        let keys: Vec<&str> = assignments(&canonical)
            .map(|(_, assignment)| assignment.unwrap().0)
            .collect();
        assert_eq!(keys, KEYS);
        assert_eq!(Scenario::parse(&canonical).unwrap(), a);
    }

    #[test]
    fn assignments_skip_comments_and_keep_raw_bad_lines() {
        let text = "# header

  sensors = 10  # trailing
broken line # c
=
";
        let lines: Vec<_> = assignments(text).collect();
        assert_eq!(
            lines,
            vec![
                (3, Ok(("sensors", "10"))),
                (4, Err("broken line # c")),
                (5, Ok(("", ""))),
            ]
        );
    }

    #[test]
    fn assign_parses_without_range_checks_and_set_adds_them() {
        let mut s = Scenario::default();
        assert_eq!(s.assign("sensors", "0"), Ok("a positive integer"));
        assert_eq!(s.sensors, 0);
        s.assign("solar_eff", "1.5,-2").unwrap();
        assert_eq!(s.solar_eff, vec![1.5, -2.0]);
        // A value that does not parse leaves the field as it was.
        let err = s.assign("sensors", "lots").unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad value `lots` for `sensors` (expected a positive integer)"
        );
        assert_eq!(s.sensors, 0);
        assert!(matches!(
            s.assign("volume", "1"),
            Err(ScenarioError::UnknownKey { .. })
        ));
        // `set` reports a range failure with the same expected text.
        for (key, value) in [
            ("sensors", "0"),
            ("targets", "0"),
            ("detection_p", "NaN"),
            ("comms_radius", "inf"),
            ("battery", "30,-2"),
            ("solar_eff", "1.5"),
        ] {
            let mut s = Scenario::default();
            let expected = s.assign(key, value).unwrap();
            assert_eq!(
                Scenario::default().set(key, value),
                Err(bad_value(key, value, expected)),
                "{key} = {value}"
            );
        }
    }

    #[test]
    fn bad_geometry_is_an_error_not_a_panic() {
        // A uniform fleet builds on both paths, so each reaches the geometry.
        let fleet = Scenario {
            battery: vec![60.0],
            ..Scenario::default()
        };
        for (key, value) in [
            ("radius", "0"),
            ("radius", "-1"),
            ("radius", "NaN"),
            ("radius", "inf"),
            ("radius", "-inf"),
            ("radius", "1e400"),
            ("region", "0"),
            ("region", "-1"),
            ("region", "NaN"),
            ("region", "inf"),
            ("region", "-inf"),
            ("region", "1e400"),
        ] {
            for base in [Scenario::default(), fleet.clone()] {
                let mut s = base;
                s.set(key, value).unwrap();
                let err = s.instance().unwrap_err();
                assert!(err.starts_with(key), "{key} = {value}: {err}");
                assert!(err.ends_with("must be positive and finite"), "{err}");
                assert_eq!(s.build().unwrap_err(), err, "{key} = {value}");
                assert_eq!(s.build_fleet().unwrap_err(), err, "{key} = {value}");
            }
        }
    }

    #[test]
    fn comms_radius_parses_and_rejects_negatives() {
        let s = Scenario::parse("comms_radius = 150\n").unwrap();
        assert_eq!(s.comms_radius, 150.0);
        assert!(Scenario::parse("comms_radius = -1\n").is_err());
    }

    #[test]
    fn profile_lists_parse_and_canonicalise() {
        let s = Scenario::parse("battery = 30, 60\nsolar_eff = 0.5\n").unwrap();
        assert_eq!(s.battery, vec![30.0, 60.0]);
        assert_eq!(s.solar_eff, vec![0.5]);
        assert!(s.has_profiles());
        assert!(s.canonical().contains("battery=30,60\n"));
        assert!(s.canonical().contains("solar_eff=0.5\n"));
        // Empty value clears a list back to unset.
        let mut s = s;
        s.set("battery", "").unwrap();
        s.set("solar_eff", "").unwrap();
        assert!(!s.has_profiles());
        assert!(s.canonical().contains("battery=\n"));
        // Bad entries are rejected.
        assert!(Scenario::parse("battery = 30,zero\n").is_err());
        assert!(Scenario::parse("mu_d = -5\n").is_err());
        assert!(Scenario::parse("solar_eff = 1.5\n").is_err());
    }

    #[test]
    fn uniform_profiles_take_the_homogeneous_path() {
        // battery=60 at default currents: T_d = 30, T_r = 90 — same ρ = 3,
        // longer period. build() must accept it and derive the cycle from
        // the profiles, ignoring discharge/recharge_minutes.
        let mut s = Scenario::default();
        s.set("sensors", "12").unwrap();
        s.set("targets", "2").unwrap();
        s.set("battery", "60").unwrap();
        s.set("discharge_minutes", "999").unwrap(); // must be ignored
        let built = s.build().unwrap();
        assert_eq!(built.cycle.discharge_minutes(), 30.0);
        assert_eq!(built.cycle.recharge_minutes(), 90.0);
        let outcome = s.run().unwrap();
        assert!(outcome.schedule.is_feasible(outcome.cycle));
    }

    #[test]
    fn mixed_fleet_is_rejected_on_the_homogeneous_path() {
        let mut s = Scenario::default();
        s.set("sensors", "8").unwrap();
        s.set("battery", "30,60").unwrap();
        let err = s.build().unwrap_err();
        assert!(err.contains("mixed fleet"), "{err}");
        // ...and therefore by everything that goes through build():
        let err = s.run().unwrap_err();
        assert!(err.contains("mixed fleet"), "{err}");
    }

    #[test]
    fn run_fleet_handles_mixed_fleets_and_grid_schedulers() {
        for kind in ["greedy", "lazy", "rsc", "set-once", "hef"] {
            let mut s = Scenario::default();
            s.set("sensors", "10").unwrap();
            s.set("targets", "2").unwrap();
            s.set("region", "100").unwrap();
            s.set("radius", "60").unwrap();
            s.set("battery", "30,60").unwrap();
            s.set("solar_eff", "1,1,0.5").unwrap();
            s.set("scheduler", kind).unwrap();
            let outcome = s.run_fleet().unwrap();
            assert!(outcome.schedule.is_feasible(&outcome.grid), "{kind}");
            assert!(
                outcome.average <= outcome.bound + 1e-9,
                "{kind}: {} > {}",
                outcome.average,
                outcome.bound
            );
            let text = outcome.to_string();
            assert!(text.contains("fleet grid"), "{kind}");
        }
        // The homogeneous-only baselines refuse the fleet path.
        let mut s = Scenario::default();
        s.set("battery", "30,60").unwrap();
        s.set("scheduler", "static").unwrap();
        assert!(s.run_fleet().unwrap_err().contains("fleet"));
    }

    #[test]
    fn grid_schedulers_work_on_homogeneous_scenarios_too() {
        let mut s = Scenario::default();
        s.set("sensors", "9").unwrap();
        s.set("targets", "2").unwrap();
        s.set("scheduler", "rsc").unwrap();
        assert!(s.scheduler.is_grid_scheduler());
        // run() refuses and points at the grid path...
        assert!(s.run().unwrap_err().contains("fleet grid"));
        // ...which synthesises a uniform fleet from the legacy cycle keys.
        let outcome = s.run_fleet().unwrap();
        assert_eq!(outcome.grid.hyperperiod(), 4);
        assert!(outcome.schedule.is_feasible(&outcome.grid));
    }

    #[test]
    fn build_matches_run() {
        let s = Scenario::parse("sensors = 15\ntargets = 2\nregion = 150\nradius = 50\n").unwrap();
        let built = s.build().unwrap();
        assert_eq!(built.cycle.slots_per_period(), 4);
        assert_eq!(built.periods, built.problem.periods());
        let schedule = greedy_schedule(&built.problem);
        let outcome = s.run().unwrap();
        assert_eq!(
            built.problem.average_utility_per_target_slot(&schedule),
            outcome.average,
            "build() + greedy must reproduce run() exactly"
        );
        // Handing over the derived instance builds the same problem.
        let handed = s.build_with(Some(s.instance().unwrap().0)).unwrap();
        let parts = |b: &BuiltScenario| format!("{:?}", b.problem.utility().parts());
        assert_eq!(parts(&handed), parts(&built));
        assert_eq!((handed.cycle, handed.periods), (built.cycle, built.periods));
    }
}
