//! The differential oracle: every relation between schedulers that is a
//! theorem (or a pinned implementation contract) of this codebase, checked
//! on one materialised case.
//!
//! Relations and their diagnostic codes:
//!
//! | relation | code | statement |
//! |---|---|---|
//! | `naive-lazy-equal` | `COOL-E020` | naive and lazy greedy produce identical assignments (incl. tie-break order) |
//! | `schedule-replay` | lint's own code | every produced schedule replays cleanly through `cool-lint` |
//! | `greedy-le-lp` | `COOL-E021` | greedy period value ≤ LP relaxation value |
//! | `rounded-le-lp` | `COOL-E021` | rounded schedule value ≤ LP relaxation value |
//! | `optimal-ge-greedy` | `COOL-E021` | exhaustive optimum dominates greedy (tiny cases) |
//! | `optimal-ge-rounded` | `COOL-E021` | exhaustive optimum dominates LP rounding (tiny cases) |
//! | `optimal-le-lp` | `COOL-E021` | exhaustive optimum ≤ LP relaxation value (tiny cases) |
//! | `greedy-ratio` | `COOL-E021` | greedy ≥ ratio · optimum (tiny cases; Lemma 4.1's ½ by default) |
//! | `horizon-replay` | lint's own code | per-sensor horizon greedy replays cleanly |
//! | `horizon-le-max` | `COOL-E021` | horizon total ≤ L · max utility |
//! | `rotate-invariant` | `COOL-E022` | rotating a schedule within the period preserves its value and feasibility |
//! | `relabel-eval` | `COOL-E022` | relabeling sensors and the utility together preserves a schedule's value |
//! | `scale-exact` | `COOL-E022` | scaling weights by a power of two scales the greedy value exactly and keeps the assignment |
//! | `sparse-dense-equal` | `COOL-E024` | sparse (incidence-indexed) and dense sum evaluators agree on a random insert/remove/gain/loss trace — gains/losses bitwise, values within `EXACT_TOL` |
//! | `support-zero-gain` | `COOL-E024` | sparse gain/loss is **exactly** 0 for every sensor outside the sum's support, at every trace state |
//! | `abstract-unsound` | `COOL-E026` | the abstract energy interpreter's feasible regions agree with sampled concrete replays: verified-failing charges fail, charges ≥ θ replay clean, and a ∀-feasibility proof implies every sensor's region is `All` |
//! | `session-repair-equal` | `COOL-E027` | warm-start session repair tracks a from-scratch solve: an empty dirty set reproduces the previous schedule bit-for-bit at zero cost, every patched schedule stays energy-feasible with value ≥ ratio · scratch, and a full-mode repair **is** the scratch solve (identical assignment) |
//! | `hetero-homog-reduce` | `COOL-E028` | on a uniform fleet synthesised from the case's own cycle, the heterogeneous greedy (naive **and** lazy) reproduces the homogeneous greedy's schedule bit-for-bit through the phase embedding |
//! | `baseline-sound` | `COOL-E029` | every grid baseline (RSC, Set-Once, HEF) replays clean through the per-sensor energy automaton and never beats the duty-cycle upper bound (nor, on uniform fleets, the LP relaxation) |
//! | `greedy-le-duty` | `COOL-E021` | the heterogeneous greedy's hyperperiod value ≤ the duty-cycle upper bound |
//!
//! Cases whose scenario sets per-sensor profile lists run a dedicated
//! heterogeneous battery instead of the homogeneous relations: naive/lazy
//! fleet-greedy equality (`naive-lazy-equal`), concrete grid replay
//! (`schedule-replay`), the duty bound, `baseline-sound`, and a sampled
//! soundness check of the per-sensor abstract interpreter
//! (`abstract-unsound`).
//!
//! A note on what is deliberately **not** asserted: the *value achieved by
//! greedy* is not relabeling-invariant. On tie-heavy instances (e.g. the
//! detection family with a uniform `p`) the index-based tie-break picks a
//! different winner after renaming, and the choice cascades to a genuinely
//! different final value (observed: seed 53, ~5% gap). Evaluation
//! invariance (`relabel-eval`) is the theorem; greedy-value invariance is
//! not, which is exactly why `naive-lazy-equal` pins both implementations
//! to one tie order instead.

use crate::gen::CheckCase;
use cool_common::{CoolCode, Interval, SeedSequence, SensorId, SensorSet};
use cool_core::greedy::{
    greedy_active_naive, greedy_passive_naive, try_greedy_schedule, try_greedy_schedule_lazy,
};
use cool_core::hetero::{hetero_greedy_lazy, hetero_greedy_naive, phases_from_period_schedule};
use cool_core::horizon::greedy_horizon;
use cool_core::lp::LpScheduler;
use cool_core::optimal::exhaustive_optimal;
use cool_core::repair::{repair_schedule, RepairConfig, RepairMode};
use cool_core::schedule::{PeriodSchedule, ScheduleMode};
use cool_core::{grid_duty_upper_bound, hef_schedule, rsc_schedule, set_once_schedule};
use cool_energy::{Fleet, FleetGrid};
use cool_lint::{
    feasible_region, grid_feasible_region, grid_sensor_replay_clean, lint_grid_schedule,
    lint_horizon, lint_schedule, lint_schedule_abstract, proves_feasible_for_all,
    proves_grid_feasible_for_all, sensor_replay_clean, FeasibleRegion, Report,
};
use cool_session::{Delta, SessionEntry, SessionInstance};
use cool_utility::{Evaluator, SumUtility, UtilityFunction};
use rand::Rng;
use std::fmt;

/// Absolute tolerance for inequality relations between independently
/// computed values (LP pivots and rounding accumulate real error).
pub const VALUE_TOL: f64 = 1e-6;

/// Absolute tolerance for equality relations whose two sides perform the
/// same arithmetic in a different order.
pub const EXACT_TOL: f64 = 1e-9;

/// Oracle knobs.
#[derive(Clone, Copy, Debug)]
pub struct OracleSettings {
    /// Rounding trials for the LP scheduler.
    pub lp_trials: usize,
    /// Required greedy/optimal ratio on tiny cases. Lemma 4.1 proves ½ for
    /// this partition-matroid setting; the classic `1 − 1/e` holds only
    /// for cardinality constraints, so asserting it here would be wrong —
    /// the default stays at the proven bound.
    pub ratio: f64,
}

impl Default for OracleSettings {
    fn default() -> Self {
        OracleSettings {
            lp_trials: 8,
            ratio: 0.5,
        }
    }
}

/// One violated relation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The stable diagnostic code (`COOL-E020`…`E022`, or the replayed
    /// lint diagnostic's own code).
    pub code: CoolCode,
    /// The relation slug from the module-level table.
    pub relation: &'static str,
    /// Human-readable specifics: the values on both sides.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.code.as_str(),
            self.relation,
            self.detail
        )
    }
}

/// The oracle's verdict on one case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Relations actually evaluated (tiny-only relations are skipped on
    /// large cases).
    pub relations_checked: usize,
    /// Every violated relation, in check order.
    pub violations: Vec<Violation>,
    /// Whether the exhaustive-optimal relations ran.
    pub tiny: bool,
    /// Greedy period value (reported for the run summary).
    pub greedy_value: f64,
    /// LP relaxation value.
    pub lp_value: f64,
}

impl CaseOutcome {
    /// `true` when every checked relation held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Dispatches the naive greedy matching [`try_greedy_schedule`]'s regime
/// choice, but on a bare utility (used for transformed variants that share
/// the case's cycle).
fn naive_for_mode(
    utility: &SumUtility,
    slots: usize,
    mode: ScheduleMode,
) -> Result<PeriodSchedule, String> {
    let result = match mode {
        ScheduleMode::ActiveSlot => greedy_active_naive(utility, slots),
        ScheduleMode::PassiveSlot => greedy_passive_naive(utility, slots),
    };
    result.map_err(|e| e.to_string())
}

/// Folds every error-severity diagnostic of a lint replay into violations
/// that carry the lint diagnostic's own code.
fn replay(violations: &mut Vec<Violation>, relation: &'static str, label: &str, report: &Report) {
    for d in report.diagnostics() {
        if d.severity() == cool_lint::Severity::Error {
            violations.push(Violation {
                code: d.code,
                relation,
                detail: format!("{label}: {}", d.message),
            });
        }
    }
}

/// The `baseline-sound` (`COOL-E029`) contract for one grid baseline: a
/// clean per-sensor energy replay, a hyperperiod value at or below the
/// duty-cycle upper bound, and — when `lp_cap` applies (uniform fleets,
/// whose hyperperiod is one period) — at or below the LP relaxation value.
fn check_baseline_sound(
    violations: &mut Vec<Violation>,
    name: &str,
    schedule: &cool_core::GridSchedule,
    grid: &FleetGrid,
    utility: &SumUtility,
    bound: f64,
    lp_cap: Option<f64>,
) {
    let report = lint_grid_schedule(schedule, grid);
    for d in report.diagnostics() {
        if d.severity() == cool_lint::Severity::Error {
            violations.push(Violation {
                code: CoolCode::BaselineUnsound,
                relation: "baseline-sound",
                detail: format!("{name}: {}", d.message),
            });
        }
    }
    let value = schedule.hyperperiod_utility(utility);
    if value > bound + VALUE_TOL {
        violations.push(Violation {
            code: CoolCode::BaselineUnsound,
            relation: "baseline-sound",
            detail: format!("{name}: value {value} > duty bound {bound}"),
        });
    }
    if let Some(cap) = lp_cap {
        if value > cap + VALUE_TOL {
            violations.push(Violation {
                code: CoolCode::BaselineUnsound,
                relation: "baseline-sound",
                detail: format!("{name}: value {value} > lp {cap}"),
            });
        }
    }
}

/// Runs every applicable relation on one case.
///
/// # Errors
///
/// Returns a rendered message when the case itself cannot be materialised
/// or a scheduler fails outright (distinct from an oracle violation: the
/// harness treats it as a violation of the `schedulers-run` meta-relation
/// at the call site).
#[allow(clippy::too_many_lines)] // one relation after another, linear and flat
pub fn check_case(case: &CheckCase, settings: &OracleSettings) -> Result<CaseOutcome, String> {
    if case.scenario.has_profiles() {
        return check_fleet_case(case);
    }
    let instance = case.build()?;
    let problem = &instance.problem;
    let utility = problem.utility();
    let t = problem.slots_per_period();
    let mut violations = Vec::new();
    let mut checked = 0usize;

    // --- E020: the two greedy implementations are interchangeable. ---
    let naive = try_greedy_schedule(problem).map_err(|e| e.to_string())?;
    let lazy = try_greedy_schedule_lazy(problem).map_err(|e| e.to_string())?;
    checked += 1;
    if naive.assignment() != lazy.assignment() || naive.mode() != lazy.mode() {
        violations.push(Violation {
            code: CoolCode::DifferentialMismatch,
            relation: "naive-lazy-equal",
            detail: format!(
                "naive {:?} vs lazy {:?} (modes {:?}/{:?})",
                naive.assignment(),
                lazy.assignment(),
                naive.mode(),
                lazy.mode()
            ),
        });
    }
    let greedy_value = naive.period_utility(utility);

    // --- LP relaxation and rounding (stream 2 by workspace convention). ---
    let mut lp_rng = SeedSequence::new(case.scenario.seed).nth_rng(2);
    let lp = LpScheduler::new(settings.lp_trials)
        .schedule(problem, &mut lp_rng)
        .map_err(|e| format!("LP scheduler failed: {e:?}"))?;
    checked += 2;
    if lp.rounded_value > lp.lp_value + VALUE_TOL {
        violations.push(Violation {
            code: CoolCode::OracleBoundViolated,
            relation: "rounded-le-lp",
            detail: format!("rounded {} > lp {}", lp.rounded_value, lp.lp_value),
        });
    }
    if greedy_value > lp.lp_value + VALUE_TOL {
        violations.push(Violation {
            code: CoolCode::OracleBoundViolated,
            relation: "greedy-le-lp",
            detail: format!("greedy {} > lp {}", greedy_value, lp.lp_value),
        });
    }

    // --- Energy-feasibility replay through cool-lint. ---
    checked += 2;
    replay(
        &mut violations,
        "schedule-replay",
        "greedy",
        &lint_schedule(&naive, instance.cycle),
    );
    replay(
        &mut violations,
        "schedule-replay",
        "lp-rounded",
        &lint_schedule(&lp.schedule, instance.cycle),
    );

    // --- Exhaustive optimum on tiny cases. ---
    if instance.tiny {
        let opt = exhaustive_optimal(utility, t, naive.mode());
        let opt_value = opt.period_utility(utility);
        checked += 4;
        if opt_value + VALUE_TOL < greedy_value {
            violations.push(Violation {
                code: CoolCode::OracleBoundViolated,
                relation: "optimal-ge-greedy",
                detail: format!("opt {opt_value} < greedy {greedy_value}"),
            });
        }
        if opt_value + VALUE_TOL < lp.rounded_value {
            violations.push(Violation {
                code: CoolCode::OracleBoundViolated,
                relation: "optimal-ge-rounded",
                detail: format!("opt {opt_value} < rounded {}", lp.rounded_value),
            });
        }
        if opt_value > lp.lp_value + VALUE_TOL {
            violations.push(Violation {
                code: CoolCode::OracleBoundViolated,
                relation: "optimal-le-lp",
                detail: format!("opt {opt_value} > lp {}", lp.lp_value),
            });
        }
        if greedy_value + VALUE_TOL < settings.ratio * opt_value {
            violations.push(Violation {
                code: CoolCode::OracleBoundViolated,
                relation: "greedy-ratio",
                detail: format!(
                    "greedy {greedy_value} < {} × opt {opt_value}",
                    settings.ratio
                ),
            });
        }
    }

    // --- Per-sensor horizon greedy: feasible and bounded. ---
    let cycles = vec![instance.cycle; problem.n_sensors()];
    let horizon = greedy_horizon(utility, &cycles, problem.horizon_slots());
    checked += 2;
    replay(
        &mut violations,
        "horizon-replay",
        "horizon",
        &lint_horizon(&horizon, &cycles),
    );
    let horizon_cap = problem.horizon_slots() as f64 * utility.max_value();
    let horizon_total = horizon.total_utility(utility);
    if horizon_total > horizon_cap + VALUE_TOL {
        violations.push(Violation {
            code: CoolCode::OracleBoundViolated,
            relation: "horizon-le-max",
            detail: format!("horizon {horizon_total} > cap {horizon_cap}"),
        });
    }

    // --- Metamorphic: slot rotation within the period. ---
    for offset in [1, t.saturating_sub(1)] {
        if offset == 0 || offset >= t {
            continue;
        }
        checked += 1;
        let rotated = naive.rotated(offset);
        let rotated_value = rotated.period_utility(utility);
        if (rotated_value - greedy_value).abs() > EXACT_TOL {
            violations.push(Violation {
                code: CoolCode::MetamorphicVariance,
                relation: "rotate-invariant",
                detail: format!(
                    "rotation by {offset} changed value {greedy_value} → {rotated_value}"
                ),
            });
        }
        if !rotated.is_feasible(instance.cycle) {
            violations.push(Violation {
                code: CoolCode::MetamorphicVariance,
                relation: "rotate-invariant",
                detail: format!("rotation by {offset} broke feasibility"),
            });
        }
        if offset == t - 1 {
            break; // t == 2: both offsets coincide
        }
    }

    // --- Metamorphic: sensor relabeling. ---
    let perm = case.relabeling();
    let permuted_utility = case.permuted_utility(&perm)?;
    // (a) Evaluation invariance: relabeling the schedule and the utility
    // together is a pure renaming, so the value is identical.
    let mut permuted_assignment = vec![0usize; naive.n_sensors()];
    for (old, &slot) in naive.assignment().iter().enumerate() {
        permuted_assignment[perm[old]] = slot;
    }
    let permuted_schedule = PeriodSchedule::new(naive.mode(), t, permuted_assignment);
    let permuted_value = permuted_schedule.period_utility(&permuted_utility);
    checked += 1;
    if (permuted_value - greedy_value).abs() > EXACT_TOL {
        violations.push(Violation {
            code: CoolCode::MetamorphicVariance,
            relation: "relabel-eval",
            detail: format!("relabeled schedule value {permuted_value} ≠ {greedy_value}"),
        });
    }
    // Greedy-value invariance under relabeling is deliberately NOT
    // asserted — see the module doc (tie cascades make it false).

    // --- Metamorphic: exact power-of-two weight scaling. ---
    if case.family.is_scalable() {
        const SCALE: f64 = 4.0;
        let scaled_utility = case.scaled_utility(SCALE)?;
        let scaled = naive_for_mode(&scaled_utility, t, naive.mode())?;
        checked += 1;
        // Greedy compares gains exactly (no epsilon), and scaling by a
        // power of two commutes with every rounding step, so both the
        // assignment and the (scaled) value must match bit-for-bit.
        if scaled.assignment() == naive.assignment() {
            let scaled_value = scaled.period_utility(&scaled_utility);
            if scaled_value != SCALE * greedy_value {
                violations.push(Violation {
                    code: CoolCode::MetamorphicVariance,
                    relation: "scale-exact",
                    detail: format!(
                        "×{SCALE} scaling: value {scaled_value} ≠ {SCALE} × {greedy_value}"
                    ),
                });
            }
        } else {
            violations.push(Violation {
                code: CoolCode::MetamorphicVariance,
                relation: "scale-exact",
                detail: format!(
                    "×{SCALE} scaling changed the assignment: {:?} → {:?}",
                    naive.assignment(),
                    scaled.assignment()
                ),
            });
        }
    }

    // --- E024: sparse (incidence-indexed) vs dense evaluator agreement. ---
    // A seeded random insert/remove/gain/loss trace over the case's own
    // (mixed-family) sum utility. Gains/losses must match bitwise — the
    // sparse walk visits the incident parts in the dense walk's order and
    // skipped parts contribute an exact 0.0 — and the running Kahan value
    // must track the dense from-scratch sum within EXACT_TOL. Outside the
    // support, sparse gain/loss must be *exactly* zero at every state.
    {
        let n = utility.universe();
        let support = utility.support();
        let mut trace_rng = SeedSequence::new(case.scenario.seed).nth_rng(13);
        let mut sparse = utility.evaluator();
        let mut dense = utility.dense_evaluator();
        checked += 2;
        'trace: for step in 0..64u32 {
            let v = SensorId(trace_rng.random_range(0..n));
            let add: bool = trace_rng.random();
            let (s, d) = if add {
                (sparse.insert(v), dense.insert(v))
            } else {
                (sparse.remove(v), dense.remove(v))
            };
            let probe = SensorId(trace_rng.random_range(0..n));
            // Deltas and gains/losses must be *exactly* equal (IEEE `==`,
            // no tolerance — only the sign of zero may differ, from empty
            // vs. non-empty summation); the running value gets EXACT_TOL
            // for Kahan-vs-from-scratch accumulation order.
            #[allow(clippy::float_cmp)]
            let diverged = s != d
                || sparse.gain(probe) != dense.gain(probe)
                || sparse.loss(probe) != dense.loss(probe)
                || (sparse.value() - dense.value()).abs() > EXACT_TOL;
            if diverged {
                violations.push(Violation {
                    code: CoolCode::EvaluatorDivergence,
                    relation: "sparse-dense-equal",
                    detail: format!(
                        "step {step} ({}{}): delta {s} vs {d}, value {} vs {}",
                        if add { "+" } else { "-" },
                        v.index(),
                        sparse.value(),
                        dense.value()
                    ),
                });
                break 'trace;
            }
            for raw in 0..n {
                let w = SensorId(raw);
                if support.contains(w) {
                    continue;
                }
                let g = if sparse.contains(w) {
                    sparse.loss(w)
                } else {
                    sparse.gain(w)
                };
                if g != 0.0 {
                    violations.push(Violation {
                        code: CoolCode::EvaluatorDivergence,
                        relation: "support-zero-gain",
                        detail: format!(
                            "step {step}: sensor {raw} outside support has gain/loss {g}"
                        ),
                    });
                    break 'trace;
                }
            }
        }
    }

    // --- E026: abstract energy interpreter vs. sampled concrete replay. ---
    // `feasible_region` bisects each sensor's minimal feasible initial
    // charge θ with concretely verified endpoints; differential sampling
    // checks its claims against the shared `slot_transition` function:
    // charges inside the verified-failing interval `[0, last_failing]`
    // must fail the concrete replay, charges in `[θ, 1]` must replay
    // clean, and an interval-interpreter ∀-feasibility proof must imply
    // every sensor's region is `All`.
    {
        const REGION_SAMPLES: usize = 4;
        let cycle = instance.cycle;
        let mut abs_rng = SeedSequence::new(case.scenario.seed).nth_rng(17);
        checked += 1;
        let for_all = proves_feasible_for_all(&naive, cycle, Interval::UNIT);
        let mut regions_all_clean = true;
        'sensors: for sensor in 0..naive.n_sensors() {
            let region = feasible_region(&naive, cycle, sensor);
            if region != FeasibleRegion::All {
                regions_all_clean = false;
            }
            match region {
                FeasibleRegion::All => {
                    // Clean from an empty battery: by the monotone-threshold
                    // structure, every initial charge must replay clean.
                    for _ in 0..REGION_SAMPLES {
                        let init = abs_rng.random::<f64>();
                        if !sensor_replay_clean(&naive, cycle, sensor, init) {
                            violations.push(Violation {
                                code: CoolCode::AbstractReplayUnsound,
                                relation: "abstract-unsound",
                                detail: format!(
                                    "sensor {sensor}: region is All but concrete replay \
                                     fails from initial charge {init}"
                                ),
                            });
                            break 'sensors;
                        }
                    }
                }
                FeasibleRegion::Above {
                    theta,
                    last_failing,
                } => {
                    for _ in 0..REGION_SAMPLES {
                        let failing = abs_rng.random::<f64>() * last_failing;
                        if sensor_replay_clean(&naive, cycle, sensor, failing) {
                            violations.push(Violation {
                                code: CoolCode::AbstractReplayUnsound,
                                relation: "abstract-unsound",
                                detail: format!(
                                    "sensor {sensor}: {failing} ≤ verified-failing bound \
                                     {last_failing} but the concrete replay succeeds"
                                ),
                            });
                            break 'sensors;
                        }
                        let clean = theta + abs_rng.random::<f64>() * (1.0 - theta);
                        if !sensor_replay_clean(&naive, cycle, sensor, clean) {
                            violations.push(Violation {
                                code: CoolCode::AbstractReplayUnsound,
                                relation: "abstract-unsound",
                                detail: format!(
                                    "sensor {sensor}: {clean} ≥ θ = {theta} but the \
                                     concrete replay fails"
                                ),
                            });
                            break 'sensors;
                        }
                    }
                }
                FeasibleRegion::None => {
                    // Fails even from a full battery ⇒ fails from every
                    // initial charge (downward-closed failing set).
                    for _ in 0..REGION_SAMPLES {
                        let init = abs_rng.random::<f64>();
                        if sensor_replay_clean(&naive, cycle, sensor, init) {
                            violations.push(Violation {
                                code: CoolCode::AbstractReplayUnsound,
                                relation: "abstract-unsound",
                                detail: format!(
                                    "sensor {sensor}: region is None but concrete replay \
                                     succeeds from initial charge {init}"
                                ),
                            });
                            break 'sensors;
                        }
                    }
                }
            }
        }
        if for_all && !regions_all_clean {
            violations.push(Violation {
                code: CoolCode::AbstractReplayUnsound,
                relation: "abstract-unsound",
                detail: "interval interpreter proved ∀-feasibility but some sensor's \
                         bisected feasible region excludes low charges"
                    .to_string(),
            });
        }
        // E025 must fire over [0, 1] exactly when some region is not All.
        let report = lint_schedule_abstract(&naive, cycle, Interval::UNIT);
        let flagged = report.has_code(CoolCode::AbstractEnergyInfeasible);
        if flagged == regions_all_clean {
            violations.push(Violation {
                code: CoolCode::AbstractReplayUnsound,
                relation: "abstract-unsound",
                detail: format!(
                    "lint_schedule_abstract over [0, 1] {} COOL-E025 but bisection says \
                     every region is {}",
                    if flagged { "reports" } else { "omits" },
                    if regions_all_clean { "All" } else { "not All" },
                ),
            });
        }
    }

    // --- E028/E029: the heterogeneous layer against the uniform fleet. ---
    // A fleet synthesised from the case's own cycle must reduce the
    // heterogeneous greedy — naive AND lazy — to the homogeneous schedule
    // bit-for-bit through the phase embedding (this is the new code path
    // homogeneous scenarios take, so the reduction IS the compatibility
    // guarantee). The grid baselines must be sound: clean per-sensor
    // replays, below the duty-cycle bound, and — because a uniform fleet's
    // hyperperiod is exactly one period — below the LP relaxation value.
    {
        let fleet = Fleet::uniform_from_cycle(problem.n_sensors(), instance.cycle)
            .map_err(|e| e.to_string())?;
        let grid = FleetGrid::build(&fleet).map_err(|e| e.to_string())?;
        let hetero_naive = hetero_greedy_naive(utility, &grid).map_err(|e| e.to_string())?;
        let hetero_lazy = hetero_greedy_lazy(utility, &grid).map_err(|e| e.to_string())?;
        let expected = phases_from_period_schedule(&grid, &naive);
        checked += 1;
        if hetero_naive.phases() != expected.as_slice()
            || hetero_lazy.phases() != expected.as_slice()
        {
            violations.push(Violation {
                code: CoolCode::HeteroReductionMismatch,
                relation: "hetero-homog-reduce",
                detail: format!(
                    "homogeneous phases {:?} vs hetero naive {:?} / lazy {:?}",
                    expected,
                    hetero_naive.phases(),
                    hetero_lazy.phases()
                ),
            });
        }
        let bound = grid_duty_upper_bound(utility, &grid);
        let hef = hef_schedule(utility, &fleet, &grid)
            .map_err(|e| e.to_string())?
            .to_grid_schedule();
        let rsc = rsc_schedule(utility, &grid).map_err(|e| e.to_string())?;
        let once = set_once_schedule(&grid);
        checked += 9; // three baselines × (replay, duty bound, LP cap)
        for (name, schedule) in [("hef", &hef), ("rsc", &rsc), ("set-once", &once)] {
            check_baseline_sound(
                &mut violations,
                name,
                schedule,
                &grid,
                utility,
                bound,
                Some(lp.lp_value),
            );
        }
    }

    // --- E027: warm-start session repair vs. from-scratch solve. ---
    // The scenario's own detection instance becomes a live session; a
    // seeded delta script (stream 19 by workspace convention) mutates it
    // patch by patch. Contracts: an empty dirty set reproduces the
    // previous schedule bit-for-bit at zero cost; every patched schedule
    // is energy-feasible and its value is within the greedy approximation
    // ratio of a from-scratch solve of the *mutated* instance; and when
    // the repair engine decided on a full re-solve, the result IS the
    // scratch solve — identical assignment, not just equal value.
    {
        let mut entry = SessionInstance::from_scenario(&case.scenario)
            .and_then(SessionEntry::solve)
            .map_err(|e| format!("session solve failed: {e}"))?;
        checked += 2;

        let n = entry.instance().n();
        let base_utility = entry.instance().utility();
        let untouched = repair_schedule(
            &base_utility,
            entry.instance().cycle(),
            entry.schedule(),
            &SensorSet::new(n),
            &RepairConfig::default(),
        )
        .map_err(|e| format!("empty-dirty repair failed: {e}"))?;
        if untouched.schedule.assignment() != entry.schedule().assignment()
            || untouched.mode != RepairMode::Incremental
            || untouched.cells_touched != 0
        {
            violations.push(Violation {
                code: CoolCode::SessionRepairMismatch,
                relation: "session-repair-equal",
                detail: format!(
                    "empty dirty set was not a {}-cost bit-for-bit no-op (mode {:?}, {} cells)",
                    0, untouched.mode, untouched.cells_touched
                ),
            });
        }

        let mut delta_rng = SeedSequence::new(case.scenario.seed).nth_rng(19);
        let script_len = 1 + delta_rng.random_range(0..3usize);
        'patches: for step in 0..script_len {
            let delta = random_session_delta(&mut delta_rng, entry.instance());
            let stats = entry
                .patch(&delta, &RepairConfig::default())
                .map_err(|e| format!("session patch `{}` failed: {e}", delta.render()))?;
            let scratch = entry
                .instance()
                .solve()
                .map_err(|e| format!("scratch solve failed: {e}"))?;
            let scratch_value = scratch.period_utility(&entry.instance().utility());
            if !entry.schedule().is_feasible(entry.instance().cycle()) {
                violations.push(Violation {
                    code: CoolCode::SessionRepairMismatch,
                    relation: "session-repair-equal",
                    detail: format!(
                        "step {step} `{}`: repaired schedule is energy-infeasible",
                        delta.render()
                    ),
                });
                break 'patches;
            }
            if stats.value + VALUE_TOL < settings.ratio * scratch_value {
                violations.push(Violation {
                    code: CoolCode::SessionRepairMismatch,
                    relation: "session-repair-equal",
                    detail: format!(
                        "step {step} `{}` ({}): repaired {} < {} × scratch {scratch_value}",
                        delta.render(),
                        stats.mode.as_str(),
                        stats.value,
                        settings.ratio
                    ),
                });
                break 'patches;
            }
            if stats.mode == RepairMode::Full
                && entry.schedule().assignment() != scratch.assignment()
            {
                violations.push(Violation {
                    code: CoolCode::SessionRepairMismatch,
                    relation: "session-repair-equal",
                    detail: format!(
                        "step {step} `{}`: full re-solve diverged from scratch: {:?} vs {:?}",
                        delta.render(),
                        entry.schedule().assignment(),
                        scratch.assignment()
                    ),
                });
                break 'patches;
            }
        }
    }

    Ok(CaseOutcome {
        relations_checked: checked,
        violations,
        tiny: instance.tiny,
        greedy_value,
        lp_value: lp.lp_value,
    })
}

/// The heterogeneous battery run on profile-list cases (see module docs):
/// naive/lazy fleet-greedy equality, concrete per-sensor grid replay, the
/// duty-cycle bound, baseline soundness, a sampled soundness check of the
/// per-sensor abstract interpreter, and — when the drawn palette happens
/// to be cycle-uniform — the homogeneous reduction.
#[allow(clippy::too_many_lines)] // one relation after another, linear and flat
fn check_fleet_case(case: &CheckCase) -> Result<CaseOutcome, String> {
    let instance = case.build_fleet()?;
    let utility = &instance.utility;
    let grid = &instance.grid;
    let mut violations = Vec::new();
    let mut checked = 0usize;

    // --- E020: naive and lazy fleet greedy are interchangeable. ---
    let naive = hetero_greedy_naive(utility, grid).map_err(|e| e.to_string())?;
    let lazy = hetero_greedy_lazy(utility, grid).map_err(|e| e.to_string())?;
    checked += 1;
    if naive.phases() != lazy.phases() {
        violations.push(Violation {
            code: CoolCode::DifferentialMismatch,
            relation: "naive-lazy-equal",
            detail: format!(
                "naive phases {:?} vs lazy {:?}",
                naive.phases(),
                lazy.phases()
            ),
        });
    }
    let greedy = naive.to_grid_schedule();
    let greedy_value = greedy.hyperperiod_utility(utility);

    // --- Per-sensor energy replay through cool-lint. ---
    checked += 1;
    replay(
        &mut violations,
        "schedule-replay",
        "hetero-greedy",
        &lint_grid_schedule(&greedy, grid),
    );

    // --- E021: the duty-cycle upper bound dominates greedy. ---
    let bound = grid_duty_upper_bound(utility, grid);
    checked += 1;
    if greedy_value > bound + VALUE_TOL {
        violations.push(Violation {
            code: CoolCode::OracleBoundViolated,
            relation: "greedy-le-duty",
            detail: format!("greedy {greedy_value} > duty bound {bound}"),
        });
    }

    // --- E029: the literature baselines are sound. ---
    let hef = hef_schedule(utility, &instance.fleet, grid)
        .map_err(|e| e.to_string())?
        .to_grid_schedule();
    let rsc = rsc_schedule(utility, grid).map_err(|e| e.to_string())?;
    let once = set_once_schedule(grid);
    checked += 6; // three baselines × (replay, duty bound)
    for (name, schedule) in [("hef", &hef), ("rsc", &rsc), ("set-once", &once)] {
        check_baseline_sound(&mut violations, name, schedule, grid, utility, bound, None);
    }

    // --- E026: per-sensor abstract interpreter vs. sampled replays. ---
    // Same contract as the homogeneous relation, but every sensor is
    // bisected against its own drain/refill rates (fractions of its own
    // capacity). Stream 17 by workspace convention.
    {
        const REGION_SAMPLES: usize = 4;
        let mut abs_rng = SeedSequence::new(case.scenario.seed).nth_rng(17);
        checked += 1;
        let for_all = proves_grid_feasible_for_all(&greedy, grid, Interval::UNIT);
        let mut regions_all_clean = true;
        'sensors: for sensor in 0..grid.n_sensors() {
            let region = grid_feasible_region(&greedy, grid, sensor);
            if region != FeasibleRegion::All {
                regions_all_clean = false;
            }
            match region {
                FeasibleRegion::All => {
                    for _ in 0..REGION_SAMPLES {
                        let init = abs_rng.random::<f64>();
                        if !grid_sensor_replay_clean(&greedy, grid, sensor, init) {
                            violations.push(Violation {
                                code: CoolCode::AbstractReplayUnsound,
                                relation: "abstract-unsound",
                                detail: format!(
                                    "sensor {sensor}: region is All but concrete replay \
                                     fails from initial charge {init}"
                                ),
                            });
                            break 'sensors;
                        }
                    }
                }
                FeasibleRegion::Above {
                    theta,
                    last_failing,
                } => {
                    for _ in 0..REGION_SAMPLES {
                        let failing = abs_rng.random::<f64>() * last_failing;
                        if grid_sensor_replay_clean(&greedy, grid, sensor, failing) {
                            violations.push(Violation {
                                code: CoolCode::AbstractReplayUnsound,
                                relation: "abstract-unsound",
                                detail: format!(
                                    "sensor {sensor}: {failing} ≤ verified-failing bound \
                                     {last_failing} but the concrete replay succeeds"
                                ),
                            });
                            break 'sensors;
                        }
                        let clean = theta + abs_rng.random::<f64>() * (1.0 - theta);
                        if !grid_sensor_replay_clean(&greedy, grid, sensor, clean) {
                            violations.push(Violation {
                                code: CoolCode::AbstractReplayUnsound,
                                relation: "abstract-unsound",
                                detail: format!(
                                    "sensor {sensor}: {clean} ≥ θ = {theta} but the \
                                     concrete replay fails"
                                ),
                            });
                            break 'sensors;
                        }
                    }
                }
                FeasibleRegion::None => {
                    violations.push(Violation {
                        code: CoolCode::AbstractReplayUnsound,
                        relation: "abstract-unsound",
                        detail: format!(
                            "sensor {sensor}: greedy schedule fails even from a full \
                             battery, yet its replay lint was clean"
                        ),
                    });
                    break 'sensors;
                }
            }
        }
        if for_all && !regions_all_clean {
            violations.push(Violation {
                code: CoolCode::AbstractReplayUnsound,
                relation: "abstract-unsound",
                detail: "interval interpreter proved ∀-feasibility but some sensor's \
                         bisected feasible region excludes low charges"
                    .to_string(),
            });
        }
    }

    // --- E028 when the drawn palette is cycle-uniform. ---
    // Profiles may differ (battery 30 vs 45, or a solar_eff rescale) while
    // inducing the same charge cycle; the schedulers only see the cycles,
    // so the homogeneous reduction must still hold bit-for-bit.
    if let Some(cycle) = instance.fleet.uniform_cycle() {
        let mode = if cycle.rho() > 1.0 {
            ScheduleMode::ActiveSlot
        } else {
            ScheduleMode::PassiveSlot
        };
        let homog = naive_for_mode(utility, cycle.slots_per_period(), mode)?;
        let expected = phases_from_period_schedule(grid, &homog);
        checked += 1;
        if naive.phases() != expected.as_slice() {
            violations.push(Violation {
                code: CoolCode::HeteroReductionMismatch,
                relation: "hetero-homog-reduce",
                detail: format!(
                    "uniform-cycle fleet: homogeneous phases {:?} vs hetero {:?}",
                    expected,
                    naive.phases()
                ),
            });
        }
    }

    Ok(CaseOutcome {
        relations_checked: checked,
        violations,
        tiny: false,
        greedy_value,
        // No LP relaxation runs on the heterogeneous path; the duty-cycle
        // bound is the reported upper envelope.
        lp_value: bound,
    })
}

/// Draws one delta that is valid for the session's current state: sensor
/// toggles respect liveness, target indices stay in range, the last
/// target is never removed, and ρ changes stay on quantised minute pairs
/// spanning both regimes (so period reshapes exercise the full-repair
/// fallback).
fn random_session_delta<R: Rng + ?Sized>(rng: &mut R, instance: &SessionInstance) -> Delta {
    let n = instance.n();
    let targets = instance.targets().len();
    loop {
        match rng.random_range(0..6u32) {
            0 | 1 => {
                // Toggle a random sensor's liveness (the common failure).
                let sensor = rng.random_range(0..n);
                return if instance.alive().contains(SensorId(sensor)) {
                    Delta::RemoveSensor { sensor }
                } else {
                    Delta::AddSensor { sensor }
                };
            }
            2 => {
                return Delta::Reweight {
                    target: rng.random_range(0..targets),
                    p: [0.3, 0.45, 0.6][rng.random_range(0..3usize)],
                }
            }
            3 => {
                let size = 1 + rng.random_range(0..3usize);
                return Delta::AddTarget {
                    p: 0.4,
                    coverage: (0..size).map(|_| rng.random_range(0..n)).collect(),
                };
            }
            4 if targets > 1 => {
                return Delta::RemoveTarget {
                    target: rng.random_range(0..targets),
                }
            }
            5 => {
                let (discharge_minutes, recharge_minutes) =
                    [(15.0, 30.0), (15.0, 45.0), (30.0, 15.0), (15.0, 15.0)]
                        [rng.random_range(0..4usize)];
                return Delta::RhoChange {
                    discharge_minutes,
                    recharge_minutes,
                };
            }
            _ => {} // RemoveTarget drawn with a single target: redraw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_cases;

    #[test]
    fn default_cases_are_clean() {
        for case in generate_cases(42, 12) {
            let outcome = check_case(&case, &OracleSettings::default())
                .unwrap_or_else(|e| panic!("case {} ({}): {e}", case.index, case.family));
            assert!(
                outcome.is_clean(),
                "case {} ({}): {:?}",
                case.index,
                case.family,
                outcome.violations
            );
            assert!(outcome.relations_checked >= 8);
        }
    }

    #[test]
    fn tiny_cases_exercise_the_optimal_relations() {
        let cases = generate_cases(42, 12);
        let outcomes: Vec<CaseOutcome> = cases
            .iter()
            .map(|c| check_case(c, &OracleSettings::default()).unwrap())
            .collect();
        assert!(outcomes.iter().any(|o| o.tiny));
        assert!(outcomes.iter().any(|o| !o.tiny));
    }

    #[test]
    fn impossible_ratio_is_caught_on_tiny_cases() {
        // ratio = 1.01 demands greedy beat the optimum — every tiny case
        // with a non-trivial gap must flag it, proving the relation is live.
        let settings = OracleSettings {
            ratio: 1.01,
            ..OracleSettings::default()
        };
        let flagged = generate_cases(42, 12)
            .iter()
            .filter(|c| c.build().unwrap().tiny)
            .map(|c| check_case(c, &settings).unwrap())
            .any(|o| o.violations.iter().any(|v| v.relation == "greedy-ratio"));
        assert!(flagged, "no tiny case flagged an impossible ratio");
    }

    #[test]
    fn fleet_cases_run_the_hetero_battery_clean() {
        let cases = generate_cases(42, 12);
        let fleet_cases: Vec<_> = cases.iter().filter(|c| c.scenario.has_profiles()).collect();
        assert_eq!(fleet_cases.len(), 3, "every fourth case is a fleet");
        for case in fleet_cases {
            let outcome = check_case(case, &OracleSettings::default())
                .unwrap_or_else(|e| panic!("case {} ({}): {e}", case.index, case.family));
            assert!(
                outcome.is_clean(),
                "case {} ({}): {:?}",
                case.index,
                case.family,
                outcome.violations
            );
            assert!(outcome.relations_checked >= 6);
            assert!(!outcome.tiny, "fleet cases skip the exhaustive oracle");
            assert!(
                outcome.greedy_value <= outcome.lp_value + VALUE_TOL,
                "greedy must sit below the duty envelope"
            );
        }
    }

    #[test]
    fn baseline_sound_relation_is_live() {
        // An always-on "baseline" violates both halves of the contract:
        // the per-sensor replay refuses and the value beats the duty
        // bound. Every resulting violation must carry COOL-E029.
        use cool_energy::ChargeCycle;
        use cool_utility::LinearUtility;
        let fleet = Fleet::uniform_from_cycle(3, ChargeCycle::paper_sunny()).unwrap();
        let grid = FleetGrid::build(&fleet).unwrap();
        let utility = SumUtility::new(vec![LinearUtility::new(vec![1.0; 3]).into()]);
        let bad = cool_core::GridSchedule::new(vec![SensorSet::full(3); grid.hyperperiod()]);
        let bound = grid_duty_upper_bound(&utility, &grid);
        let mut violations = Vec::new();
        check_baseline_sound(&mut violations, "bogus", &bad, &grid, &utility, bound, None);
        assert!(!violations.is_empty());
        assert!(violations
            .iter()
            .all(|v| v.relation == "baseline-sound" && v.code == CoolCode::BaselineUnsound));
    }

    #[test]
    fn violation_renders_code_and_relation() {
        let v = Violation {
            code: CoolCode::OracleBoundViolated,
            relation: "greedy-le-lp",
            detail: "greedy 2 > lp 1".into(),
        };
        assert_eq!(v.to_string(), "COOL-E021 greedy-le-lp: greedy 2 > lp 1");
    }
}
