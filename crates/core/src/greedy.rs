//! The Greedy Hill-Climbing Activation Scheme (Algorithm 1, §IV).
//!
//! `ρ > 1`: schedule sensors one by one, each time assigning the
//! (sensor, slot) pair with the **maximum incremental utility** given
//! everything scheduled so far; ½-approximate for `L = T` (Lemma 4.1) and
//! for `L = αT` by repeating the period schedule (Theorem 4.3).
//!
//! `ρ ≤ 1`: start from "everyone active everywhere" and allocate each
//! sensor's **passive** slot with the **minimum decremental utility**
//! (§IV-B, Theorem 4.4) — also ½-approximate.
//!
//! Two implementations are provided with identical outputs:
//!
//! * [`greedy_schedule_lazy`] — the fast path every product caller runs:
//!   a lazy-evaluation (CELF-style) variant exploiting submodularity.
//!   For `ρ > 1` stale recorded gains only ever *shrink*; for `ρ ≤ 1`
//!   stale recorded losses only ever *grow*,
//!   because removing sensors shrinks the base set and marginal
//!   contributions rise under diminishing returns. Either way, touching
//!   slot `t` only perturbs values *within slot `t`*, which makes lazy
//!   evaluation particularly effective here;
//! * [`greedy_schedule`] — the literal O(n²·T)-gain-query loop of
//!   Algorithm 1 (with incremental evaluators, each query is cheap), kept
//!   as the oracle the lazy loop is checked against.
//!
//! Both loops start from a partial assignment, whose placed sensors the
//! per-slot evaluators hold from the outset. A cold start places nothing;
//! warm-start repair ([`crate::repair`]) pins the sensors it keeps and
//! runs the same CELF loop over the rest. The argument below holds from
//! any start, since the evaluators only ever gain (or, for `ρ ≤ 1`, lose)
//! sensors.
//!
//! The lazy heap holds one node per unassigned sensor, keyed by the best
//! value recorded over the sensor's `T` slots. Every (sensor, slot) pair
//! keeps its recorded value and the slot version it was computed at. The
//! `T` slots' evaluators are one [`SlotState`]
//! ([`Evaluator::into_slots`]). When the popped node's slot has moved on,
//! one row query ([`SlotState::gains_into`] / [`SlotState::losses_into`])
//! refreshes the sensor's whole row, and the node is re-queued; when it is
//! fresh, the sensor is assigned. A sum utility's slot state answers a
//! row from one walk over lane-strided state; every other evaluator asks
//! each slot in turn. The initial rows take one walk per unplaced sensor
//! (`n` from a cold start). Losses are stored negated, so one max-heap
//! serves both regimes, and each node is one packed integer (`RowKey`)
//! whose integer order is the tie order below.
//!
//! Refreshing slots that were not asked about is safe. Every recorded
//! value is an upper bound on the pair's true gain (a lower bound on its
//! true loss), and exact where fresh. When the popped node's slot is
//! fresh, its value is exact and, under the shared tie order, at least
//! every other recorded value, hence at least every other true value: it
//! is the pair the naive loop would pick, however many other pairs have
//! been evaluated. So extra exact evaluations never change which pair is
//! assigned, and the schedule stays bitwise the naive one.
//!
//! All variants obtain their per-slot evaluators through
//! [`UtilityFunction::evaluator`], so a multi-target
//! [`SumUtility`](cool_utility::SumUtility) answers each gain/loss query
//! in O(deg(v)) incident parts via its CSR incidence index rather than
//! walking all `m` parts — sparse gains are bitwise equal to dense ones
//! (non-incident parts contribute an exact `0.0`), so this is purely a
//! representation change; schedules are unaffected.
//!
//! # Tie-breaking
//!
//! Every implementation in this module shares one total order, pinned by
//! the `tie_break_*` regression tests and the naive≡lazy property tests:
//! **the larger gain (or smaller loss) wins; exact ties go to the lower
//! sensor index, then the lower slot index.** DESIGN.md and the README
//! defer to this paragraph — it is the single normative statement of the
//! order.

use crate::errors::ScheduleBuildError;
use crate::problem::Problem;
use crate::schedule::{PeriodSchedule, ScheduleMode};
use cool_common::SensorId;
use cool_utility::{Evaluator, SlotState, UtilityFunction};
use std::collections::BinaryHeap;

/// Runs Algorithm 1 (or its `ρ ≤ 1` dual) as written and returns the
/// per-period schedule: the oracle of [`greedy_schedule_lazy`], which
/// builds the same schedule faster. Deterministic: ties break toward the
/// lower sensor index, then the lower slot (see the module-level
/// *Tie-breaking* section).
///
/// # Panics
///
/// Panics only if the utility produces a non-finite marginal gain
/// ([`Problem`] construction rules out every other failure mode); use
/// [`try_greedy_schedule`] for a `COOL`-coded error instead.
///
/// # Examples
///
/// ```
/// use cool_core::{greedy::greedy_schedule, problem::Problem};
/// use cool_energy::ChargeCycle;
/// use cool_utility::DetectionUtility;
///
/// let p = Problem::new(DetectionUtility::uniform(9, 0.4),
///                      ChargeCycle::from_rho(5.0, 15.0).unwrap(), 1).unwrap();
/// let s = greedy_schedule(&p);
/// assert!(s.is_feasible(p.cycle()));
/// ```
pub fn greedy_schedule<U: UtilityFunction>(problem: &Problem<U>) -> PeriodSchedule {
    try_greedy_schedule(problem).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`greedy_schedule`].
///
/// # Errors
///
/// Returns a [`ScheduleBuildError`] (with a stable `COOL` code) when the
/// utility produces a non-finite marginal value.
pub fn try_greedy_schedule<U: UtilityFunction>(
    problem: &Problem<U>,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    if problem.cycle().rho() > 1.0 {
        greedy_active_naive(problem.utility(), problem.slots_per_period())
    } else {
        greedy_passive_naive(problem.utility(), problem.slots_per_period())
    }
}

/// Lazy (CELF-style) greedy; identical output to [`greedy_schedule`]
/// (asserted by the crate's property tests), asymptotically faster on large
/// instances.
///
/// # Panics
///
/// As [`greedy_schedule`]; use [`try_greedy_schedule_lazy`] for a
/// `COOL`-coded error instead.
pub fn greedy_schedule_lazy<U: UtilityFunction>(problem: &Problem<U>) -> PeriodSchedule {
    try_greedy_schedule_lazy(problem).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible form of [`greedy_schedule_lazy`].
///
/// # Errors
///
/// As [`try_greedy_schedule`].
pub fn try_greedy_schedule_lazy<U: UtilityFunction>(
    problem: &Problem<U>,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    if problem.cycle().rho() > 1.0 {
        greedy_active_lazy(problem.utility(), problem.slots_per_period())
    } else {
        greedy_passive_lazy(problem.utility(), problem.slots_per_period())
    }
}

/// ρ > 1 naive greedy on raw parts, the oracle of [`greedy_active_lazy`].
/// `slots` is the period length `T`.
///
/// # Errors
///
/// Returns [`ScheduleBuildError::EmptySlotCount`] (`COOL-E002`) if
/// `slots == 0`, and [`ScheduleBuildError::NonFiniteGain`] (`COOL-E015`)
/// if the utility produces a NaN or infinite marginal gain.
pub fn greedy_active_naive<U: UtilityFunction>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    let cold = vec![usize::MAX; utility.universe()];
    naive_rows(utility, slots, ScheduleMode::ActiveSlot, cold)
}

/// ρ ≤ 1 naive greedy: allocate passive slots by minimum decremental
/// utility. The oracle of [`greedy_passive_lazy`].
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_passive_naive<U: UtilityFunction>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    let cold = vec![usize::MAX; utility.universe()];
    naive_rows(utility, slots, ScheduleMode::PassiveSlot, cold)
}

/// Lazy-evaluation ρ > 1 greedy (CELF).
///
/// Key structural fact: inserting a sensor into slot `t` leaves the
/// evaluators of all other slots untouched, so a recorded gain for a slot
/// `t' ≠ t` stays exact. Per-slot version stamps mark which recorded gains
/// a slot's advance has made stale; by submodularity a stale gain is an
/// upper bound on the true one.
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_active_lazy<U: UtilityFunction>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    let cold = vec![usize::MAX; utility.universe()];
    lazy_rows(utility, slots, ScheduleMode::ActiveSlot, cold).map(|(schedule, _)| schedule)
}

/// Lazy-evaluation ρ ≤ 1 greedy: the CELF *dual* of
/// [`greedy_active_lazy`], minimising decremental losses.
///
/// Correctness mirrors the active case with the inequality flipped. The
/// loss of removing `v` from slot `t` equals the marginal gain of `v` on
/// the base set `S_t ∖ {v}`; every assignment removes a sensor, so the base
/// only *shrinks*, and by submodularity marginal gains on smaller bases are
/// *larger* — a stale recorded loss is therefore a **lower bound** on the
/// true loss, and assigning a fresh minimum is safe (every other pair's
/// true loss is at least its recorded one, which is at least the fresh
/// minimum). As in the active case, removing from slot `t` only perturbs
/// `evaluators[t]`, so per-slot version stamps keep other slots exact.
///
/// The full evaluator (everyone active) is built once and becomes the
/// start of all `T` slots.
///
/// # Errors
///
/// As [`greedy_active_naive`].
pub fn greedy_passive_lazy<U: UtilityFunction>(
    utility: &U,
    slots: usize,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    let cold = vec![usize::MAX; utility.universe()];
    lazy_rows(utility, slots, ScheduleMode::PassiveSlot, cold).map(|(schedule, _)| schedule)
}

/// Puts sensor `v` in the slot `evaluator` tracks: active there for
/// `ActiveSlot`, passive there for `PassiveSlot`.
fn place<E: Evaluator>(evaluator: &mut E, v: usize, mode: ScheduleMode) {
    match mode {
        ScheduleMode::ActiveSlot => evaluator.insert(SensorId(v)),
        ScheduleMode::PassiveSlot => evaluator.remove(SensorId(v)),
    };
}

/// Algorithm 1 (`ActiveSlot`) or its dual (`PassiveSlot`) as written, the
/// oracle of [`lazy_rows`], from the partial `assignment` (a slot per
/// sensor, `usize::MAX` for a sensor still to place). Each slot's
/// evaluator is built on its own: empty, or holding every sensor for
/// `PassiveSlot`, then that slot's placed sensors put in ascending order.
/// Each step then queries one gain or loss per (unplaced sensor, slot)
/// cell and places the best pair under the shared tie order.
///
/// # Errors
///
/// [`ScheduleBuildError::EmptySlotCount`] (`COOL-E002`) without slots, and
/// [`ScheduleBuildError::NonFiniteGain`] (`COOL-E015`) naming the first
/// cell of a step whose value is not finite.
pub(crate) fn naive_rows<U: UtilityFunction>(
    utility: &U,
    slots: usize,
    mode: ScheduleMode,
    mut assignment: Vec<usize>,
) -> Result<PeriodSchedule, ScheduleBuildError> {
    if slots == 0 {
        return Err(ScheduleBuildError::EmptySlotCount);
    }
    let mut evaluators: Vec<U::Evaluator> = (0..slots)
        .map(|t| {
            let mut e = utility.evaluator();
            if mode == ScheduleMode::PassiveSlot {
                for v in 0..utility.universe() {
                    e.insert(SensorId(v));
                }
            }
            for v in (0..assignment.len()).filter(|&v| assignment[v] == t) {
                place(&mut e, v, mode);
            }
            e
        })
        .collect();
    let mut unassigned: Vec<usize> = (0..assignment.len())
        .filter(|&v| assignment[v] == usize::MAX)
        .collect();
    while !unassigned.is_empty() {
        let mut best: Option<(f64, usize, usize)> = None; // (gain or loss, sensor, slot)
        for &v in &unassigned {
            for (t, eval) in evaluators.iter().enumerate() {
                let value = match mode {
                    ScheduleMode::ActiveSlot => eval.gain(SensorId(v)),
                    ScheduleMode::PassiveSlot => eval.loss(SensorId(v)),
                };
                if !value.is_finite() {
                    return Err(ScheduleBuildError::NonFiniteGain {
                        sensor: v,
                        slot: t,
                        value,
                    });
                }
                let candidate = (value, v, t);
                best = Some(match best {
                    None => candidate,
                    Some(current) if mode == ScheduleMode::ActiveSlot => {
                        max_by_gain(current, candidate)
                    }
                    Some(current) => min_by_loss(current, candidate),
                });
            }
        }
        let Some((value, v, t)) = best else {
            break;
        };
        // Monotonicity invariant: marginal gains and losses of a monotone
        // utility are never negative (beyond roundoff).
        cool_common::invariant!(
            value >= -1e-9,
            "negative marginal {mode:?} value {value} for sensor {v} in slot {t}"
        );
        place(&mut evaluators[t], v, mode);
        assignment[v] = t;
        unassigned.retain(|&u| u != v);
    }
    Ok(PeriodSchedule::new(mode, slots, assignment))
}

/// Puts sensor `v` in slot `t` of `state`: active there for `ActiveSlot`,
/// passive there for `PassiveSlot`.
fn place_in<S: SlotState>(state: &mut S, t: usize, v: usize, mode: ScheduleMode) {
    match mode {
        ScheduleMode::ActiveSlot => state.insert(t, SensorId(v)),
        ScheduleMode::PassiveSlot => state.remove(t, SensorId(v)),
    };
}

/// The row-refreshing CELF heap behind both lazy duals and warm-start
/// repair, from the partial `assignment` (as [`naive_rows`]). The start
/// evaluator (empty, or holding every sensor for `PassiveSlot`) is built
/// once and becomes the start of every slot of one slot state, then every
/// placed sensor is put in its slot in ascending order; the heap holds one
/// node per unplaced sensor. Keys are gains, or negated losses, so one
/// max-heap under one tie order serves both duals. Submodularity makes a
/// recorded value a bound from any start, so the schedule is
/// [`naive_rows`]' from the same start. Returns the schedule and the row
/// walks made: one per unplaced sensor plus one per stale pop.
///
/// # Errors
///
/// As [`naive_rows`].
///
/// # Panics
///
/// Panics if the sensor or slot count does not fit in `u32` (a
/// [`RowKey`] packs both).
pub(crate) fn lazy_rows<U: UtilityFunction>(
    utility: &U,
    slots: usize,
    mode: ScheduleMode,
    mut assignment: Vec<usize>,
) -> Result<(PeriodSchedule, u64), ScheduleBuildError> {
    if slots == 0 {
        return Err(ScheduleBuildError::EmptySlotCount);
    }
    let n = assignment.len();
    assert!(
        u32::try_from(n).is_ok() && u32::try_from(slots).is_ok(),
        "a heap key packs the sensor and the slot into 32 bits each"
    );
    let mut start = utility.evaluator();
    if mode == ScheduleMode::PassiveSlot {
        for v in 0..utility.universe() {
            start.insert(SensorId(v));
        }
    }
    let mut state = start.into_slots(slots);
    for (v, &t) in assignment.iter().enumerate() {
        if t != usize::MAX {
            place_in(&mut state, t, v, mode);
        }
    }

    let mut walks = 0u64;
    let mut keys = vec![0.0f64; n * slots];
    let mut stamps = vec![0u32; n * slots];
    let mut slot_version = vec![0u32; slots];
    let mut heap = BinaryHeap::with_capacity(n);
    for (v, row) in keys.chunks_exact_mut(slots).enumerate() {
        if assignment[v] == usize::MAX {
            query_keys(&state, v, mode, row)?;
            walks += 1;
            heap.push(RowKey::best_of(v, row));
        }
    }

    let mut fresh = vec![0.0f64; slots];
    // Each unplaced sensor has exactly one node, and a placed one is not
    // re-queued, so the heap empties when every sensor has its slot.
    while let Some(node) = heap.pop() {
        let (v, t) = (node.sensor(), node.slot());
        let row = v * slots..(v + 1) * slots;
        if stamps[row.start + t] != slot_version[t] {
            // Stale: the slot advanced since this value was recorded.
            // Refresh the whole row in one walk and re-queue the sensor.
            query_keys(&state, v, mode, &mut fresh)?;
            walks += 1;
            // The CELF invariant, per lane: stale gains only shrink and
            // stale losses only grow, so no key rises.
            for (slot, (&new, &old)) in fresh.iter().zip(&keys[row.clone()]).enumerate() {
                cool_common::invariant!(
                    new <= old + 1e-9,
                    "{mode:?} key of sensor {v} in slot {slot} rose from {old} to {new}: \
                     utility is not submodular"
                );
            }
            keys[row.clone()].copy_from_slice(&fresh);
            stamps[row.clone()].copy_from_slice(&slot_version);
            heap.push(RowKey::best_of(v, &keys[row]));
            continue;
        }
        // Fresh best pair: assign it.
        place_in(&mut state, t, v, mode);
        slot_version[t] += 1;
        assignment[v] = t;
    }
    Ok((PeriodSchedule::new(mode, slots, assignment), walks))
}

/// Fills `row` with sensor `v`'s keys against every slot of `state` from
/// one row query: gains for `ActiveSlot`, negated losses for
/// `PassiveSlot`.
///
/// # Errors
///
/// [`ScheduleBuildError::NonFiniteGain`] (`COOL-E015`) naming the first
/// slot whose gain or loss is not finite.
fn query_keys<S: SlotState>(
    state: &S,
    v: usize,
    mode: ScheduleMode,
    row: &mut [f64],
) -> Result<(), ScheduleBuildError> {
    match mode {
        ScheduleMode::ActiveSlot => state.gains_into(SensorId(v), row),
        ScheduleMode::PassiveSlot => state.losses_into(SensorId(v), row),
    }
    check_finite(v, row)?;
    if mode == ScheduleMode::PassiveSlot {
        for key in row {
            *key = -*key;
        }
    }
    Ok(())
}

/// `Err(COOL-E015)` naming the first slot of sensor `v`'s `row` whose value
/// is not finite.
fn check_finite(v: usize, row: &[f64]) -> Result<(), ScheduleBuildError> {
    match row.iter().position(|x| !x.is_finite()) {
        Some(slot) => Err(ScheduleBuildError::NonFiniteGain {
            sensor: v,
            slot,
            value: row[slot],
        }),
        None => Ok(()),
    }
}

/// Greedy tie-breaking total order, shared by the naive loop, the lazy
/// heap and the warm-start repair engine so they produce identical
/// schedules: larger gain wins; ties go to the lower sensor index, then
/// the lower slot.
pub(crate) fn max_by_gain(
    current: (f64, usize, usize),
    candidate: (f64, usize, usize),
) -> (f64, usize, usize) {
    let better = candidate.0 > current.0
        || (candidate.0 == current.0 && (candidate.1, candidate.2) < (current.1, current.2));
    if better {
        candidate
    } else {
        current
    }
}

/// Dual order for the passive allocation: smaller loss wins; ties go to the
/// lower sensor index, then the lower slot.
pub(crate) fn min_by_loss(
    current: (f64, usize, usize),
    candidate: (f64, usize, usize),
) -> (f64, usize, usize) {
    let better = candidate.0 < current.0
        || (candidate.0 == current.0 && (candidate.1, candidate.2) < (current.1, current.2));
    if better {
        candidate
    } else {
        current
    }
}

/// A sensor's place in the lazy heap, packed into one integer: the best
/// key recorded over its row (a gain, or a negated loss) and the slot
/// holding it. The high 64 bits are the key's sortable bits, with -0.0
/// merged into +0.0; below them sit the inverted sensor and the inverted
/// slot, 32 bits each. So the heap compares one `u128`, and its order is
/// the shared tie order: the larger key wins (`max_by_gain`, and
/// `min_by_loss` on negated losses), and equal keys go to the lower
/// sensor, then the lower slot. Keys are checked finite before they are
/// packed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RowKey(u128);

impl RowKey {
    /// Packs `key` for `sensor` in `slot`; both indices fit in `u32`.
    fn new(key: f64, sensor: usize, slot: usize) -> RowKey {
        // -0.0 == 0.0, so this maps -0.0 to +0.0 and keeps every other key.
        let key = if key == 0.0 { 0.0 } else { key };
        let bits = key.to_bits();
        // Flip every bit of a negative key and only the sign bit of a
        // positive one: unsigned order is then numeric order.
        let sortable = if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        };
        let low = (u64::from(!(sensor as u32)) << 32) | u64::from(!(slot as u32));
        RowKey((u128::from(sortable) << 64) | u128::from(low))
    }

    /// The node of sensor `sensor` whose recorded keys are `row`: the
    /// largest key, ties to the lower slot.
    fn best_of(sensor: usize, row: &[f64]) -> RowKey {
        let mut best = 0;
        for (slot, &key) in row.iter().enumerate().skip(1) {
            if key > row[best] {
                best = slot;
            }
        }
        RowKey::new(row[best], sensor, best)
    }

    fn sensor(self) -> usize {
        !((self.0 >> 32) as u32) as usize
    }

    fn slot(self) -> usize {
        !(self.0 as u32) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::{CoolCode, SeedSequence, SensorSet};
    use cool_energy::ChargeCycle;
    use cool_utility::{
        AnyUtility, CoverageUtility, DetectionUtility, FacilityLocationUtility, KCoverageUtility,
        LinearUtility, LogSumUtility, SumUtility,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A sum over all six part families on `n` sensors, drawn from `rng`:
    /// detection parts with some `p = 1`, zero-weight parts and empty
    /// supports. `uniform` makes every sensor identical in every part, so
    /// every greedy step is a mass tie.
    fn mixed_family(n: usize, uniform: bool, rng: &mut StdRng) -> SumUtility {
        let mut draw = |choices: &[f64]| -> Vec<f64> {
            if uniform {
                vec![choices[rng.random_range(0..choices.len())]; n]
            } else {
                (0..n)
                    .map(|_| choices[rng.random_range(0..choices.len())])
                    .collect()
            }
        };
        let mut parts: Vec<AnyUtility> = vec![
            DetectionUtility::new(draw(&[0.0, 0.3, 0.5, 1.0])).into(),
            DetectionUtility::new(draw(&[0.0, 1.0])).into(),
            LogSumUtility::new(draw(&[0.0, 0.5, 2.0])).into(),
            LinearUtility::new(draw(&[0.0, 1.0, 0.25])).into(),
            FacilityLocationUtility::new(vec![draw(&[0.0, 0.4, 0.9]), draw(&[0.0, 0.8])]).into(),
            DetectionUtility::new(vec![0.0; n]).into(),
        ];
        let sets = |rng: &mut StdRng, k: usize| -> Vec<SensorSet> {
            (0..k)
                .map(|_| {
                    if uniform {
                        SensorSet::full(n)
                    } else {
                        SensorSet::from_indices(n, (0..n).filter(|_| rng.random_range(0..3) > 0))
                    }
                })
                .collect()
        };
        let cov = sets(rng, 3);
        parts.push(CoverageUtility::from_parts(n, cov, vec![2.0, 0.0, 1.5]).into());
        let kc = sets(rng, 2);
        parts.push(KCoverageUtility::new(kc, vec![2, 1], vec![1.0, 3.0]).into());
        SumUtility::new(parts)
    }

    fn sunny_problem(n: usize) -> Problem<DetectionUtility> {
        Problem::new(
            DetectionUtility::uniform(n, 0.4),
            ChargeCycle::paper_sunny(),
            1,
        )
        .unwrap()
    }

    #[test]
    fn greedy_balances_identical_sensors() {
        // 8 identical sensors over 4 slots → 2 per slot (any imbalance
        // would contradict diminishing returns).
        let p = sunny_problem(8);
        let s = greedy_schedule(&p);
        for t in 0..4 {
            assert_eq!(s.active_set(t).len(), 2, "slot {t}");
        }
        assert!(s.is_feasible(p.cycle()));
    }

    #[test]
    fn greedy_spreads_before_stacking() {
        // 3 sensors, 4 slots: each goes to its own slot.
        let p = sunny_problem(3);
        let s = greedy_schedule(&p);
        let sizes: Vec<usize> = (0..4).map(|t| s.active_set(t).len()).collect();
        assert_eq!(sizes.iter().filter(|&&x| x == 1).count(), 3);
        assert_eq!(sizes.iter().filter(|&&x| x == 0).count(), 1);
    }

    #[test]
    fn lazy_matches_naive_on_random_instances() {
        let seq = SeedSequence::new(33);
        for trial in 0..20u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 10);
            let m = 1 + (trial as usize % 4);
            let u = crate::instances::random_multi_target(n, m, 0.5, 0.4, &mut rng);
            let naive = greedy_active_naive(&u, 4).unwrap();
            let lazy = greedy_active_lazy(&u, 4).unwrap();
            assert_eq!(
                naive.assignment(),
                lazy.assignment(),
                "trial {trial}: naive and lazy greedy disagree"
            );
        }
    }

    #[test]
    fn passive_lazy_matches_naive_on_random_instances() {
        let seq = SeedSequence::new(34);
        for trial in 0..20u64 {
            let mut rng = seq.nth_rng(trial);
            let n = 3 + (trial as usize % 10);
            let m = 1 + (trial as usize % 4);
            let u = crate::instances::random_multi_target(n, m, 0.5, 0.4, &mut rng);
            let naive = greedy_passive_naive(&u, 4).unwrap();
            let lazy = greedy_passive_lazy(&u, 4).unwrap();
            assert_eq!(
                naive.assignment(),
                lazy.assignment(),
                "trial {trial}: naive and lazy passive greedy disagree"
            );
            assert_eq!(lazy.mode(), ScheduleMode::PassiveSlot);
        }
    }

    #[test]
    fn tie_break_prefers_lower_sensor_then_lower_slot() {
        // The normative order (module doc): ties go to the lower SENSOR
        // first, then the lower slot. (sensor 0, slot 1) must beat
        // (sensor 2, slot 0) at equal gain/loss in every comparator.
        assert_eq!(max_by_gain((1.0, 2, 0), (1.0, 0, 1)), (1.0, 0, 1));
        assert_eq!(max_by_gain((1.0, 0, 1), (1.0, 2, 0)), (1.0, 0, 1));
        assert_eq!(max_by_gain((1.0, 0, 1), (1.0, 0, 2)), (1.0, 0, 1));
        assert_eq!(min_by_loss((1.0, 2, 0), (1.0, 0, 1)), (1.0, 0, 1));
        assert_eq!(min_by_loss((1.0, 0, 2), (1.0, 0, 1)), (1.0, 0, 1));
        // A strictly better value always wins regardless of indices.
        assert_eq!(max_by_gain((1.0, 0, 0), (2.0, 9, 9)), (2.0, 9, 9));
        assert_eq!(min_by_loss((1.0, 0, 0), (0.5, 9, 9)), (0.5, 9, 9));

        // The lazy heap: gains are keys, losses are negated keys.
        let node = RowKey::new;
        let mut heap = BinaryHeap::from([node(1.0, 2, 0), node(1.0, 0, 1), node(1.0, 0, 2)]);
        let first = heap.pop().unwrap();
        assert_eq!((first.sensor(), first.slot()), (0, 1), "gain tie order");

        let mut pheap = BinaryHeap::from([node(-1.0, 2, 0), node(-1.0, 0, 1), node(-1.0, 0, 2)]);
        let pfirst = pheap.pop().unwrap();
        assert_eq!((pfirst.sensor(), pfirst.slot()), (0, 1), "loss tie order");
        let psecond = pheap.pop().unwrap();
        assert_eq!((psecond.sensor(), psecond.slot()), (0, 2));

        // A strictly better key wins regardless of indices.
        let mut heap = BinaryHeap::from([node(1.0, 0, 0), node(2.0, 9, 9)]);
        assert_eq!(heap.pop().unwrap().sensor(), 9);
        let mut pheap = BinaryHeap::from([node(-1.0, 0, 0), node(-0.5, 9, 9)]);
        assert_eq!(pheap.pop().unwrap().sensor(), 9);

        // Within a row, equal keys go to the lower slot; +0.0 and -0.0 tie.
        assert_eq!(RowKey::best_of(3, &[1.0, 2.0, 2.0]).slot(), 1);
        assert_eq!(RowKey::best_of(3, &[-0.0, 0.0]).slot(), 0);
        assert_eq!(RowKey::best_of(3, &[0.0, -0.0]).slot(), 0);
        assert_eq!(RowKey::best_of(3, &[-1.0, -0.5, -0.5]).slot(), 1);
    }

    #[test]
    fn packed_keys_order_as_the_tie_order() {
        // Keys across the f64 range: ±0.0, subnormals, ±f64::MAX and
        // neighbours that differ in the last bit.
        let tiny = f64::from_bits(1);
        let keys = [
            -f64::MAX,
            -1.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -tiny,
            -0.0,
            0.0,
            tiny,
            f64::from_bits(2),
            f64::MIN_POSITIVE,
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1),
            f64::MAX,
        ];
        let sensors = [0, 1, 7, u32::MAX as usize - 1, u32::MAX as usize];
        let slots = [0, 1, 3, 4094, 4095];
        let mut cells = Vec::new();
        for &key in &keys {
            for &sensor in &sensors {
                for &slot in &slots {
                    cells.push((key, sensor, slot));
                }
            }
        }
        for &a in &cells {
            let packed = RowKey::new(a.0, a.1, a.2);
            assert_eq!((packed.sensor(), packed.slot()), (a.1, a.2), "{a:?}");
            for &b in &cells {
                let (pa, pb) = (packed, RowKey::new(b.0, b.1, b.2));
                // `pa` pops first exactly when `max_by_gain` picks it, and
                // exactly when `min_by_loss` picks it as a negated loss.
                let gain_pick = max_by_gain(b, a) == a && a != b;
                assert_eq!(pa > pb, gain_pick, "gains {a:?} against {b:?}");
                let loss = |c: (f64, usize, usize)| (-c.0, c.1, c.2);
                let loss_pick = min_by_loss(loss(b), loss(a)) == loss(a) && a != b;
                assert_eq!(pa > pb, loss_pick, "losses {a:?} against {b:?}");
            }
        }
        // ±0.0 tie, so the lower slot wins; the lower sensor before it.
        assert!(RowKey::new(-0.0, 5, 0) > RowKey::new(0.0, 5, 1));
        assert!(RowKey::new(0.0, 5, 0) > RowKey::new(-0.0, 5, 1));
        assert!(RowKey::new(-0.0, 4, 4095) > RowKey::new(0.0, 5, 0));
        assert_eq!(RowKey::new(-0.0, 5, 1), RowKey::new(0.0, 5, 1));
    }

    #[test]
    fn tie_break_pins_assignment_across_all_variants() {
        // 6 identical sensors over T = 4: every greedy step is a mass tie,
        // so the schedule is determined entirely by the tie-break order.
        // Active: sensor v takes the lowest-index emptiest slot → v mod 4.
        // Passive (everyone starts active everywhere): same spread, since
        // removing from a fuller slot costs least and ties resolve the
        // same way.
        let u = DetectionUtility::uniform(6, 0.4);
        let expected = vec![0, 1, 2, 3, 0, 1];
        let runs: [(&str, PeriodSchedule); 4] = [
            ("active naive", greedy_active_naive(&u, 4).unwrap()),
            ("active lazy", greedy_active_lazy(&u, 4).unwrap()),
            ("passive naive", greedy_passive_naive(&u, 4).unwrap()),
            ("passive lazy", greedy_passive_lazy(&u, 4).unwrap()),
        ];
        for (label, s) in runs {
            assert_eq!(s.assignment(), expected.as_slice(), "{label}");
        }
        // The same mass tie through the lane walk of a sum.
        let sum = SumUtility::multi_target_detection(&[SensorSet::full(6)], 0.4);
        assert_eq!(greedy_active_lazy(&sum, 4).unwrap().assignment(), expected);
        assert_eq!(greedy_passive_lazy(&sum, 4).unwrap().assignment(), expected);
    }

    #[test]
    fn lazy_errs_with_the_naive_oracle_on_non_finite_values() {
        // Two linear parts of weight f64::MAX on sensor 0: its gain (and
        // loss) is +inf from the start.
        let inf_at_start = SumUtility::new(vec![
            LinearUtility::new(vec![f64::MAX, 1.0, 0.0]).into(),
            LinearUtility::new(vec![f64::MAX, 0.0, 1.0]).into(),
        ]);
        // A log-sum whose gains are finite until one slot holds a sensor of
        // weight f64::MAX: the next gain there is ln(inf) − ln(MAX) = +inf.
        // (Only the active dual: filling every slot with it overflows.)
        let inf_after_a_step =
            SumUtility::new(vec![
                LogSumUtility::new(vec![f64::MAX, f64::MAX, 1.0]).into()
            ]);
        for slots in [1usize, 2, 4, 5] {
            for (label, u) in [
                ("inf at start", &inf_at_start),
                ("inf after a step", &inf_after_a_step),
            ] {
                let naive = greedy_active_naive(u, slots).unwrap_err();
                assert_eq!(naive.code(), CoolCode::NonFiniteUtility, "{label}");
                let lazy = greedy_active_lazy(u, slots).unwrap_err();
                assert_eq!(lazy, naive, "active, {label}, T = {slots}");
            }
            let naive = greedy_passive_naive(&inf_at_start, slots).unwrap_err();
            assert_eq!(naive.code(), CoolCode::NonFiniteUtility);
            let lazy = greedy_passive_lazy(&inf_at_start, slots).unwrap_err();
            assert_eq!(lazy, naive, "passive, T = {slots}");
        }
    }

    #[test]
    fn passive_greedy_is_feasible_and_balanced() {
        // ρ = 1/3 → T = 4, one passive slot each; 8 identical sensors →
        // passive slots spread 2 per slot.
        let cycle = ChargeCycle::from_rho(1.0 / 3.0, 15.0).unwrap();
        let p = Problem::new(DetectionUtility::uniform(8, 0.4), cycle, 1).unwrap();
        let s = greedy_schedule(&p);
        assert_eq!(s.mode(), ScheduleMode::PassiveSlot);
        assert!(s.is_feasible(cycle));
        for t in 0..4 {
            assert_eq!(s.active_set(t).len(), 6, "slot {t}: 8 − 2 passive");
        }
    }

    #[test]
    fn single_sensor_gets_a_slot() {
        let p = sunny_problem(1);
        let s = greedy_schedule(&p);
        assert_eq!(s.n_sensors(), 1);
        assert!(s.assigned_slot(SensorId(0)).index() < 4);
    }

    #[test]
    fn linear_utility_greedy_achieves_everything() {
        // Modular utility: every assignment achieves Σw per period; greedy
        // must too.
        let u = LinearUtility::new(vec![1.0, 2.0, 3.0]);
        let s = greedy_active_naive(&u, 4).unwrap();
        assert!((s.period_utility(&u) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn multi_target_greedy_covers_each_target_every_slot_when_possible() {
        // Two disjoint targets with 4 sensors each over T=4: greedy should
        // leave no slot without coverage of either target.
        let cov0 = SensorSet::from_indices(8, 0..4);
        let cov1 = SensorSet::from_indices(8, 4..8);
        let u = SumUtility::multi_target_detection(&[cov0.clone(), cov1.clone()], 0.4);
        let s = greedy_active_naive(&u, 4).unwrap();
        for t in 0..4 {
            let active = s.active_set(t);
            assert!(!active.is_disjoint(&cov0), "target 0 uncovered at slot {t}");
            assert!(!active.is_disjoint(&cov1), "target 1 uncovered at slot {t}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lemma 4.1 (empirical): greedy ≥ ½ · OPT on exhaustively solved
        /// instances.
        #[test]
        fn greedy_is_half_optimal(
            n in 2usize..7,
            m in 1usize..3,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(0);
            let u = crate::instances::random_multi_target(n, m, 0.6, 0.4, &mut rng);
            let slots = 3;
            let greedy = greedy_active_naive(&u, slots).unwrap();
            let opt = crate::optimal::exhaustive_optimal(&u, slots, ScheduleMode::ActiveSlot);
            let g = greedy.period_utility(&u);
            let o = opt.period_utility(&u);
            prop_assert!(g + 1e-9 >= 0.5 * o, "greedy {} < half of optimal {}", g, o);
            prop_assert!(g <= o + 1e-9, "greedy cannot beat optimal");
        }

        /// Theorem 4.4 (empirical): the passive-slot greedy is ≥ ½ · OPT.
        #[test]
        fn passive_greedy_is_half_optimal(
            n in 2usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(1);
            let u = crate::instances::random_multi_target(n, 2, 0.6, 0.4, &mut rng);
            let slots = 3;
            let greedy = greedy_passive_naive(&u, slots).unwrap();
            let opt = crate::optimal::exhaustive_optimal(&u, slots, ScheduleMode::PassiveSlot);
            let g = greedy.period_utility(&u);
            let o = opt.period_utility(&u);
            prop_assert!(g + 1e-9 >= 0.5 * o, "greedy {} < half of optimal {}", g, o);
        }

        /// Lazy and naive agree on every instance, for every lane count
        /// the walk chunks (T = 1..=9 covers full chunks and remainders).
        #[test]
        fn lazy_equals_naive(
            n in 1usize..12,
            slots in 1usize..10,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(2);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.5, &mut rng);
            let naive = greedy_active_naive(&u, slots).unwrap();
            let lazy = greedy_active_lazy(&u, slots).unwrap();
            prop_assert_eq!(naive.assignment(), lazy.assignment());
        }

        /// The passive CELF dual and the naive minimum-loss loop agree on
        /// every instance (assignment-identical, not just equal utility).
        #[test]
        fn passive_lazy_equals_naive(
            n in 1usize..12,
            slots in 1usize..10,
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(3);
            let u = crate::instances::random_multi_target(n, 2, 0.5, 0.5, &mut rng);
            let naive = greedy_passive_naive(&u, slots).unwrap();
            let lazy = greedy_passive_lazy(&u, slots).unwrap();
            prop_assert_eq!(naive.assignment(), lazy.assignment());
        }

        /// Both duals agree with the naive oracle on sums over all six
        /// families, including `p = 1` detection, zero-weight parts and
        /// uniform instances where every step is a mass tie.
        #[test]
        fn lazy_equals_naive_on_mixed_families(
            n in 1usize..10,
            slots in 1usize..10,
            uniform in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(4);
            let u = mixed_family(n, uniform, &mut rng);
            let naive = greedy_active_naive(&u, slots).unwrap();
            let lazy = greedy_active_lazy(&u, slots).unwrap();
            prop_assert_eq!(naive.assignment(), lazy.assignment());
            let naive = greedy_passive_naive(&u, slots).unwrap();
            let lazy = greedy_passive_lazy(&u, slots).unwrap();
            prop_assert_eq!(naive.assignment(), lazy.assignment());
        }

        /// From any start — a random partial assignment, each sensor pinned
        /// to a random slot with probability `pinned / 4` — the CELF loop
        /// places the rest exactly as the naive loop does, in both duals,
        /// over all six families and on mass ties (the start warm-start
        /// repair runs from). Pinned sensors keep their slots, and the heap
        /// walks each unplaced sensor's row at least once and at most once
        /// per remaining step.
        #[test]
        fn lazy_equals_naive_from_pinned_starts(
            n in 1usize..10,
            slots in 1usize..10,
            pinned in 0usize..=4,
            uniform in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = SeedSequence::new(seed).nth_rng(5);
            let u = mixed_family(n, uniform, &mut rng);
            let start: Vec<usize> = (0..n)
                .map(|_| {
                    if rng.random_range(0..4usize) < pinned {
                        rng.random_range(0..slots)
                    } else {
                        usize::MAX
                    }
                })
                .collect();
            let unplaced = start.iter().filter(|&&t| t == usize::MAX).count() as u64;
            for mode in [ScheduleMode::ActiveSlot, ScheduleMode::PassiveSlot] {
                let naive = naive_rows(&u, slots, mode, start.clone()).unwrap();
                let (lazy, walks) = lazy_rows(&u, slots, mode, start.clone()).unwrap();
                prop_assert_eq!(naive.assignment(), lazy.assignment(), "{:?}", mode);
                prop_assert_eq!(lazy.mode(), mode);
                for (v, &t) in start.iter().enumerate() {
                    if t != usize::MAX {
                        prop_assert_eq!(lazy.assignment()[v], t, "pinned sensor {} moved", v);
                    }
                }
                prop_assert!(
                    (unplaced..=unplaced * (unplaced + 1) / 2).contains(&walks),
                    "{} walks for {} unplaced sensors", walks, unplaced
                );
            }
        }
    }
}
