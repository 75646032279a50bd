//! Greedy scheduling of heterogeneous fleets on the LCM tick grid.
//!
//! With per-sensor energy profiles there is no single `ρ` and no uniform
//! slot grid; scheduling happens on the [`FleetGrid`]: every sensor `v`
//! repeats a `P_v = d_v + r_v`-tick period inside the hyperperiod
//! `H = lcm(P_v)`, being active in one contiguous run of `d_v` ticks per
//! period. A periodic schedule is therefore one **phase** `φ_v ∈ 0..P_v`
//! per sensor — the tick its active run starts at ([`FleetSchedule`]).
//! Any phase vector is energy-feasible from a full battery (the run drains
//! exactly the battery at `1/d_v` per tick, the complement refills it at
//! `1/r_v`), which generalises the paper's Theorem 4.3 structure.
//!
//! The greedy generalises both homogeneous regimes in one pass:
//!
//! * **Phase A** — sensors with `ρ_v ≤ 1` (recharge no slower than
//!   discharge) start active in *every* tick, and the greedy carves out
//!   each one's passive run by **minimum decremental utility**, exactly
//!   like §IV-B but over `r_v`-tick runs;
//! * **Phase B** — sensors with `ρ_v > 1` are inserted run-by-run by
//!   **maximum incremental utility**, exactly like Algorithm 1 but over
//!   `d_v`-tick runs.
//!
//! On a fleet whose profiles are all identical, Phase A candidates are
//! enumerated by passive-run start and Phase B candidates by active-run
//! start, in the same `(value, sensor, slot)` total order as
//! [`crate::greedy`] — so the schedule reduces **bit-for-bit** to
//! [`greedy_active_naive`]/[`greedy_passive_naive`] under the canonical
//! phase mapping ([`phases_from_period_schedule`]). `cool-check` pins this
//! as relation `hetero-homog-reduce` (COOL-E028).
//!
//! [`hetero_greedy_lazy`] is the CELF form, and the one `cool run` and
//! `cool audit` build fleet schedules with: one heap loop serves both
//! phases, keyed by run gains (Phase B) or negated run losses (Phase A).
//! Per-tick version stamps summed over a run detect staleness (versions
//! only grow, so the sums are equal iff every tick is unchanged), and the
//! usual submodularity argument — stale gains only shrink, stale losses
//! only grow — makes the first fresh pop exact, in the same tie order.
//! [`hetero_greedy_naive`] stays as its oracle.

use crate::errors::ScheduleBuildError;
use crate::greedy::{max_by_gain, min_by_loss};
use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::{SensorId, SensorSet};
use cool_energy::{tick_transition, FleetGrid};
use cool_utility::{Evaluator, UtilityFunction};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// A periodic heterogeneous schedule: `phases[v] ∈ 0..P_v` is the tick
/// (within sensor `v`'s own period) where its active run starts.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSchedule {
    grid: FleetGrid,
    phases: Vec<usize>,
}

impl FleetSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics when the phase count differs from the grid's sensor count or
    /// any phase is outside its sensor's period.
    pub fn new(grid: FleetGrid, phases: Vec<usize>) -> Self {
        assert_eq!(phases.len(), grid.n_sensors(), "one phase per sensor");
        for (v, &phase) in phases.iter().enumerate() {
            assert!(
                phase < grid.period_ticks(v),
                "phase {phase} outside sensor {v}'s period {}",
                grid.period_ticks(v)
            );
        }
        FleetSchedule { grid, phases }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &FleetGrid {
        &self.grid
    }

    /// The per-sensor active-run start ticks.
    pub fn phases(&self) -> &[usize] {
        &self.phases
    }

    /// Number of sensors.
    pub fn n_sensors(&self) -> usize {
        self.phases.len()
    }

    /// Is sensor `v` active at grid tick `tick`?
    pub fn is_active(&self, v: usize, tick: usize) -> bool {
        self.grid.active_at(v, self.phases[v], tick)
    }

    /// The active set at grid tick `tick`.
    pub fn active_set(&self, tick: usize) -> SensorSet {
        let mut set = SensorSet::new(self.phases.len());
        for v in 0..self.phases.len() {
            if self.is_active(v, tick) {
                set.insert(SensorId(v));
            }
        }
        set
    }

    /// Total utility over one hyperperiod, `Σ_{t<H} U(S(t))`.
    ///
    /// # Panics
    ///
    /// Panics if the utility universe does not match the sensor count.
    pub fn hyperperiod_utility<U: UtilityFunction>(&self, utility: &U) -> f64 {
        assert_eq!(
            utility.universe(),
            self.phases.len(),
            "utility universe does not match schedule"
        );
        (0..self.grid.hyperperiod())
            .map(|t| utility.eval(&self.active_set(t)))
            .sum()
    }

    /// Materialises the periodic pattern as explicit per-tick sets.
    pub fn to_grid_schedule(&self) -> GridSchedule {
        GridSchedule::new(
            (0..self.grid.hyperperiod())
                .map(|t| self.active_set(t))
                .collect(),
        )
    }

    /// Replays every sensor's battery automaton (its own per-tick rates)
    /// through two hyperperiods from a full charge; `true` when every
    /// activation request is honoured, including across the wrap.
    pub fn is_feasible(&self) -> bool {
        self.to_grid_schedule().is_feasible(&self.grid)
    }
}

impl fmt::Display for FleetSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FleetSchedule (H={} ticks of {}min):",
            self.grid.hyperperiod(),
            self.grid.tick_minutes()
        )?;
        for t in 0..self.grid.hyperperiod() {
            let set = self.active_set(t);
            write!(f, "  t{t}: ")?;
            for (k, v) in set.iter().enumerate() {
                if k > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// An explicit per-tick activation table over one hyperperiod — the
/// representation for schedules that are *not* periodic per sensor period,
/// like the single-run literature baselines (RSC, Set-Once Strip Cover).
/// Replay is cyclic: tick `t` of hyperperiod `k` shows `active[t]`.
#[derive(Clone, Debug, PartialEq)]
pub struct GridSchedule {
    active: Vec<SensorSet>,
}

impl GridSchedule {
    /// Creates a schedule from per-tick active sets.
    ///
    /// # Panics
    ///
    /// Panics on an empty tick list or mismatched universes.
    pub fn new(active: Vec<SensorSet>) -> Self {
        assert!(!active.is_empty(), "need at least one tick");
        let universe = active[0].universe();
        assert!(
            active.iter().all(|s| s.universe() == universe),
            "all ticks must share one sensor universe"
        );
        GridSchedule { active }
    }

    /// Ticks per hyperperiod.
    pub fn hyperperiod(&self) -> usize {
        self.active.len()
    }

    /// Number of sensors.
    pub fn n_sensors(&self) -> usize {
        self.active[0].universe()
    }

    /// The active set at tick `tick`.
    pub fn active_set(&self, tick: usize) -> &SensorSet {
        &self.active[tick]
    }

    /// Is sensor `v` active at tick `tick`?
    pub fn is_active(&self, v: usize, tick: usize) -> bool {
        self.active[tick].contains(SensorId(v))
    }

    /// Total utility over one hyperperiod.
    ///
    /// # Panics
    ///
    /// Panics if the utility universe does not match the sensor count.
    pub fn hyperperiod_utility<U: UtilityFunction>(&self, utility: &U) -> f64 {
        assert_eq!(
            utility.universe(),
            self.n_sensors(),
            "utility universe does not match schedule"
        );
        self.active.iter().map(|s| utility.eval(s)).sum()
    }

    /// Replays every sensor's battery automaton (per-tick drain `1/d_v`,
    /// refill `1/r_v` of its own capacity) through two cyclic hyperperiods
    /// from a full charge; `true` when every activation is honoured.
    pub fn is_feasible(&self, grid: &FleetGrid) -> bool {
        if grid.n_sensors() != self.n_sensors() || grid.hyperperiod() != self.hyperperiod() {
            return false;
        }
        let h = self.hyperperiod();
        (0..self.n_sensors()).all(|v| {
            let need = grid.need_per_tick(v);
            let refill = grid.refill_per_tick(v);
            let mut fraction = 1.0;
            for tick in 0..2 * h {
                let want = self.is_active(v, tick % h);
                let out = tick_transition(need, refill, fraction, want, 0.0, 0.0);
                if want && !out.active {
                    return false;
                }
                fraction = out.fraction;
            }
            true
        })
    }
}

/// Maps a homogeneous [`PeriodSchedule`] onto a **uniform** fleet grid's
/// phase vector:
///
/// * active mode (`ρ > 1`, `d_v = 1`): the assigned slot *is* the active
///   run start, `φ_v = slot`;
/// * passive mode (`ρ ≤ 1`, `r_v = 1`): the active run starts right after
///   the assigned passive slot, `φ_v = (slot + 1) mod P`.
///
/// # Panics
///
/// Panics when the grid is not the schedule's uniform slot structure
/// (hyperperiod ≠ slots per period, or run lengths inconsistent with the
/// mode).
pub fn phases_from_period_schedule(grid: &FleetGrid, schedule: &PeriodSchedule) -> Vec<usize> {
    let p = schedule.slots_per_period();
    assert_eq!(grid.hyperperiod(), p, "grid is not the uniform slot grid");
    assert_eq!(grid.n_sensors(), schedule.n_sensors());
    (0..schedule.n_sensors())
        .map(|v| {
            assert_eq!(grid.period_ticks(v), p, "sensor {v} period mismatch");
            match schedule.mode() {
                ScheduleMode::ActiveSlot => {
                    assert_eq!(grid.discharge_ticks(v), 1, "active mode needs d_v = 1");
                    schedule.assignment()[v]
                }
                ScheduleMode::PassiveSlot => {
                    assert_eq!(grid.recharge_ticks(v), 1, "passive mode needs r_v = 1");
                    (schedule.assignment()[v] + 1) % p
                }
            }
        })
        .collect()
}

/// The grid ticks of one per-period run `(period, start, len)`, repeated
/// over every period in the hyperperiod, in canonical order: period by
/// period, then run-relative offset ascending (wrapping within the
/// period). Summation order over these ticks is part of the bit-for-bit
/// contract between the naive and lazy variants.
fn run_ticks(
    (period, start, len): (usize, usize, usize),
    hyperperiod: usize,
) -> impl Iterator<Item = usize> {
    (0..hyperperiod / period)
        .flat_map(move |k| (0..len).map(move |j| k * period + (start + j) % period))
}

/// Which run a greedy phase places: `PassiveSlot` carves a passive-kind
/// sensor's `r_v`-tick passive run (Phase A), `ActiveSlot` inserts an
/// active-kind sensor's `d_v`-tick active run (Phase B).
fn run_len(grid: &FleetGrid, v: usize, mode: ScheduleMode) -> usize {
    match mode {
        ScheduleMode::ActiveSlot => grid.discharge_ticks(v),
        ScheduleMode::PassiveSlot => grid.recharge_ticks(v),
    }
}

/// Sums the per-tick gain (`ActiveSlot`) or loss (`PassiveSlot`) of
/// sensor `v` over a run, surfacing non-finite values as the scheduler's
/// typed error.
fn sum_run<E: Evaluator>(
    evaluators: &[E],
    v: usize,
    run: (usize, usize, usize),
    mode: ScheduleMode,
) -> Result<f64, ScheduleBuildError> {
    let mut total = 0.0;
    for tick in run_ticks(run, evaluators.len()) {
        let value = match mode {
            ScheduleMode::ActiveSlot => evaluators[tick].gain(SensorId(v)),
            ScheduleMode::PassiveSlot => evaluators[tick].loss(SensorId(v)),
        };
        if !value.is_finite() {
            return Err(ScheduleBuildError::NonFiniteGain {
                sensor: v,
                slot: tick,
                value,
            });
        }
        total += value;
    }
    Ok(total)
}

/// Places sensor `v`'s run starting at `start` and returns its phase:
/// the run's own start for an active run, the tick after a passive run.
fn place_run<E: Evaluator>(
    evaluators: &mut [E],
    v: usize,
    run: (usize, usize, usize),
    mode: ScheduleMode,
) -> usize {
    let (period, start, len) = run;
    for tick in run_ticks(run, evaluators.len()) {
        match mode {
            ScheduleMode::ActiveSlot => evaluators[tick].insert(SensorId(v)),
            ScheduleMode::PassiveSlot => evaluators[tick].remove(SensorId(v)),
        };
    }
    match mode {
        ScheduleMode::ActiveSlot => start,
        ScheduleMode::PassiveSlot => (start + len) % period,
    }
}

/// The sensors each greedy phase places, Phase A's first: the
/// passive-kind sensors (`ρ_v ≤ 1`, matching the homogeneous dispatcher)
/// carve passive runs, then the active-kind ones insert active runs.
fn fleet_phases(grid: &FleetGrid) -> [(ScheduleMode, Vec<usize>); 2] {
    let of_kind = |passive: bool| {
        (0..grid.n_sensors())
            .filter(|&v| (grid.cycle(v).rho() <= 1.0) == passive)
            .collect()
    };
    [
        (ScheduleMode::PassiveSlot, of_kind(true)),
        (ScheduleMode::ActiveSlot, of_kind(false)),
    ]
}

/// Where both phases start: one evaluator per grid tick holding every
/// passive-kind sensor.
fn fleet_start<U: UtilityFunction>(
    utility: &U,
    grid: &FleetGrid,
    passive_kind: &[usize],
) -> Vec<U::Evaluator> {
    assert_eq!(
        utility.universe(),
        grid.n_sensors(),
        "utility universe does not match grid"
    );
    let mut base = utility.evaluator();
    for &v in passive_kind {
        base.insert(SensorId(v));
    }
    vec![base; grid.hyperperiod()]
}

/// The two-phase heterogeneous greedy (see the module docs). Deterministic:
/// ties break toward the lower sensor index, then the lower run-start tick
/// — the same total order as [`crate::greedy`].
///
/// # Errors
///
/// [`ScheduleBuildError::NonFiniteGain`] when the utility produces a NaN
/// or infinite marginal value.
///
/// # Panics
///
/// Panics when the utility universe does not match the grid.
pub fn hetero_greedy_naive<U: UtilityFunction>(
    utility: &U,
    grid: &FleetGrid,
) -> Result<FleetSchedule, ScheduleBuildError> {
    let phases_of = fleet_phases(grid);
    let mut evaluators = fleet_start(utility, grid, &phases_of[0].1);
    let mut phases = vec![usize::MAX; grid.n_sensors()];
    for (mode, mut unassigned) in phases_of {
        // Phase A: minimum decremental utility; Phase B: maximum
        // incremental utility.
        while !unassigned.is_empty() {
            let mut best: Option<(f64, usize, usize)> = None; // (value, sensor, start)
            for &v in &unassigned {
                let (p, len) = (grid.period_ticks(v), run_len(grid, v, mode));
                for start in 0..p {
                    let value = sum_run(&evaluators, v, (p, start, len), mode)?;
                    let candidate = (value, v, start);
                    best = Some(match best {
                        None => candidate,
                        Some(current) if mode == ScheduleMode::ActiveSlot => {
                            max_by_gain(current, candidate)
                        }
                        Some(current) => min_by_loss(current, candidate),
                    });
                }
            }
            let Some((value, v, start)) = best else {
                break;
            };
            cool_common::invariant!(
                value >= -1e-9,
                "negative {mode:?} run value {value} for sensor {v} at start {start}"
            );
            let run = (grid.period_ticks(v), start, run_len(grid, v, mode));
            phases[v] = place_run(&mut evaluators, v, run, mode);
            unassigned.retain(|&u| u != v);
        }
    }
    Ok(FleetSchedule::new(grid.clone(), phases))
}

/// A (sensor, run start) pair in the lazy heap: its key (a gain, or a
/// negated loss) and the sum of the per-tick versions over the run when
/// the key was computed. Versions only grow, so equal sums ⇒ every tick
/// unchanged.
#[derive(Debug, Clone, Copy)]
struct RunNode {
    key: f64,
    sensor: usize,
    start: usize,
    stamp: u64,
}

impl PartialEq for RunNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for RunNode {}
impl PartialOrd for RunNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RunNode {
    /// Max-heap on the key; ties toward the lower sensor then the lower
    /// run start (the [`max_by_gain`] order, and [`min_by_loss`]'s on
    /// negated losses).
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.sensor.cmp(&self.sensor))
            .then_with(|| other.start.cmp(&self.start))
    }
}

/// Lazy (CELF-style) form of [`hetero_greedy_naive`]; identical output
/// (asserted by this module's property tests and the `cool-check`
/// differential relation). Both phases run one heap loop, keyed by run
/// gains (Phase B) or negated run losses (Phase A).
///
/// # Errors
///
/// As [`hetero_greedy_naive`].
///
/// # Panics
///
/// Panics when the utility universe does not match the grid.
pub fn hetero_greedy_lazy<U: UtilityFunction>(
    utility: &U,
    grid: &FleetGrid,
) -> Result<FleetSchedule, ScheduleBuildError> {
    let phases_of = fleet_phases(grid);
    let mut evaluators = fleet_start(utility, grid, &phases_of[0].1);
    let h = grid.hyperperiod();
    let mut tick_version = vec![0u32; h];
    let mut phases = vec![usize::MAX; grid.n_sensors()];
    let stamp_of =
        |versions: &[u32], run| -> u64 { run_ticks(run, h).map(|t| u64::from(versions[t])).sum() };
    for (mode, sensors) in phases_of {
        let key_of = |evaluators: &[U::Evaluator], v, run| {
            let value = sum_run(evaluators, v, run, mode)?;
            Ok::<f64, ScheduleBuildError>(match mode {
                ScheduleMode::ActiveSlot => value,
                ScheduleMode::PassiveSlot => -value,
            })
        };
        let mut heap = BinaryHeap::new();
        for v in sensors {
            let (p, len) = (grid.period_ticks(v), run_len(grid, v, mode));
            for start in 0..p {
                heap.push(RunNode {
                    key: key_of(&evaluators, v, (p, start, len))?,
                    sensor: v,
                    start,
                    stamp: stamp_of(&tick_version, (p, start, len)),
                });
            }
        }
        // Every unplaced sensor keeps all its starts queued, so the heap
        // outlasts the phase; the starts of placed sensors are skipped.
        while let Some(node) = heap.pop() {
            let v = node.sensor;
            if phases[v] != usize::MAX {
                continue;
            }
            let run = (grid.period_ticks(v), node.start, run_len(grid, v, mode));
            let stamp = stamp_of(&tick_version, run);
            if node.stamp != stamp {
                let key = key_of(&evaluators, v, run)?;
                // Stale gains only shrink and stale losses only grow, so
                // no key rises.
                cool_common::invariant!(
                    key <= node.key + 1e-9,
                    "{mode:?} run key of sensor {v} rose from {} to {key}: \
                     utility is not submodular",
                    node.key
                );
                heap.push(RunNode { key, stamp, ..node });
                continue;
            }
            for tick in run_ticks(run, h) {
                tick_version[tick] += 1;
            }
            phases[v] = place_run(&mut evaluators, v, run, mode);
        }
    }
    Ok(FleetSchedule::new(grid.clone(), phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_active_naive, greedy_passive_naive};
    use cool_common::SeedSequence;
    use cool_energy::{ChargeCycle, Fleet};
    use cool_utility::DetectionUtility;
    use proptest::prelude::*;

    fn uniform_grid(n: usize, cycle: ChargeCycle) -> FleetGrid {
        FleetGrid::build(&Fleet::uniform_from_cycle(n, cycle).unwrap()).unwrap()
    }

    fn mixed_grid() -> FleetGrid {
        // (15,45) ρ=3, (30,90) ρ=3 double battery, (15,15) ρ=1, (30,15) ρ=1/2.
        let cycles = vec![
            ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
            ChargeCycle::from_minutes(15.0, 15.0).unwrap(),
            ChargeCycle::from_minutes(30.0, 15.0).unwrap(),
        ];
        FleetGrid::build(&Fleet::from_cycles(cycles).unwrap()).unwrap()
    }

    #[test]
    fn uniform_active_fleet_reduces_to_homogeneous_greedy() {
        let seq = SeedSequence::new(91);
        let cycle = ChargeCycle::paper_sunny();
        for trial in 0..10u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 8);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.4, &mut rng);
            let grid = uniform_grid(n, cycle);
            let homog = greedy_active_naive(&u, cycle.slots_per_period()).unwrap();
            let hetero = hetero_greedy_naive(&u, &grid).unwrap();
            assert_eq!(
                hetero.phases(),
                phases_from_period_schedule(&grid, &homog).as_slice(),
                "trial {trial}: hetero did not reduce to the homogeneous active greedy"
            );
        }
    }

    #[test]
    fn uniform_passive_fleet_reduces_to_homogeneous_greedy() {
        let seq = SeedSequence::new(92);
        let cycle = ChargeCycle::from_minutes(45.0, 15.0).unwrap(); // ρ = 1/3
        for trial in 0..10u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 8);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.4, &mut rng);
            let grid = uniform_grid(n, cycle);
            let homog = greedy_passive_naive(&u, cycle.slots_per_period()).unwrap();
            let hetero = hetero_greedy_naive(&u, &grid).unwrap();
            assert_eq!(
                hetero.phases(),
                phases_from_period_schedule(&grid, &homog).as_slice(),
                "trial {trial}: hetero did not reduce to the homogeneous passive greedy"
            );
        }
    }

    #[test]
    fn mixed_fleet_schedule_is_feasible_and_periodic() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let s = hetero_greedy_naive(&u, &grid).unwrap();
        assert!(s.is_feasible());
        let h = grid.hyperperiod();
        assert_eq!(h, 24); // lcm(4, 8, 2, 3)
        for v in 0..4 {
            let active = (0..h).filter(|&t| s.is_active(v, t)).count();
            assert_eq!(
                active,
                grid.discharge_ticks(v) * grid.runs_per_hyperperiod(v),
                "sensor {v} duty cycle"
            );
        }
        // The ρ ≤ 1 sensors went through Phase A, the ρ > 1 ones through
        // Phase B; every phase is in range (checked by the constructor).
        assert_eq!(s.phases().len(), 4);
    }

    #[test]
    fn grid_schedule_round_trip_and_feasibility() {
        let grid = mixed_grid();
        let u = DetectionUtility::uniform(4, 0.5);
        let s = hetero_greedy_naive(&u, &grid).unwrap();
        let g = s.to_grid_schedule();
        assert_eq!(g.hyperperiod(), grid.hyperperiod());
        assert!(g.is_feasible(&grid));
        assert!(
            (g.hyperperiod_utility(&u) - s.hyperperiod_utility(&u)).abs() < 1e-12,
            "materialised utility must match"
        );
        // An always-on sensor is energy-infeasible.
        let bad = GridSchedule::new(vec![SensorSet::full(4); grid.hyperperiod()]);
        assert!(!bad.is_feasible(&grid));
    }

    #[test]
    fn display_lists_ticks() {
        let grid = uniform_grid(2, ChargeCycle::paper_sunny());
        let s = hetero_greedy_naive(&DetectionUtility::uniform(2, 0.4), &grid).unwrap();
        let text = s.to_string();
        assert!(text.contains("H=4 ticks"));
        assert!(text.contains("t0:"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The lazy CELF variant agrees with the naive two-phase greedy on
        /// arbitrary mixed fleets (phase-identical, not just equal value).
        #[test]
        fn hetero_lazy_equals_naive(
            n_extra in 0usize..5,
            m in 1usize..3,
            seed in any::<u64>(),
        ) {
            let mut cycles = vec![
                ChargeCycle::from_minutes(15.0, 45.0).unwrap(),
                ChargeCycle::from_minutes(30.0, 90.0).unwrap(),
                ChargeCycle::from_minutes(15.0, 15.0).unwrap(),
                ChargeCycle::from_minutes(30.0, 15.0).unwrap(),
            ];
            for k in 0..n_extra {
                cycles.push(cycles[k % 4]);
            }
            let n = cycles.len();
            let grid = FleetGrid::build(&Fleet::from_cycles(cycles).unwrap()).unwrap();
            let mut rng = SeedSequence::new(seed).nth_rng(4);
            let u = crate::instances::random_multi_target(n, m, 0.5, 0.4, &mut rng);
            let naive = hetero_greedy_naive(&u, &grid).unwrap();
            let lazy = hetero_greedy_lazy(&u, &grid).unwrap();
            prop_assert_eq!(naive.phases(), lazy.phases());
            prop_assert!(naive.is_feasible());
        }

        /// Uniform fleets: the hetero path (naive AND lazy) reduces
        /// bit-for-bit to the homogeneous greedy of the matching regime.
        #[test]
        fn uniform_reduction_both_variants(
            n in 1usize..10,
            ratio in 1usize..4,
            invert in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let rho = if invert { 1.0 / ratio as f64 } else { ratio as f64 };
            let cycle = ChargeCycle::from_rho(rho, 10.0).unwrap();
            let grid = uniform_grid(n, cycle);
            let mut rng = SeedSequence::new(seed).nth_rng(5);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.5, &mut rng);
            let homog = if cycle.rho() > 1.0 {
                greedy_active_naive(&u, cycle.slots_per_period()).unwrap()
            } else {
                greedy_passive_naive(&u, cycle.slots_per_period()).unwrap()
            };
            let expected = phases_from_period_schedule(&grid, &homog);
            let naive = hetero_greedy_naive(&u, &grid).unwrap();
            let lazy = hetero_greedy_lazy(&u, &grid).unwrap();
            prop_assert_eq!(naive.phases(), expected.as_slice());
            prop_assert_eq!(lazy.phases(), expected.as_slice());
        }
    }
}
