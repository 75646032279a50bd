//! Struct-of-arrays engine behind [`SparseSumEvaluator`] and its slot
//! state [`SparseSumSlots`]: family-batched marginal-gain kernels over
//! contiguous scalar state, answering one sensor against one evaluator or
//! against every time slot (lane) of a slot state in a single walk.
//!
//! Walking the incident parts through a `Vec<AnyEvaluator>` one part at a
//! time costs an enum `match`, an `Arc` deref and a pointer chase into
//! that part's own heap allocations per visit. At large part counts that
//! memory layout — not the O(deg) algorithm — dominates the query cost
//! (BENCH_PR10.json records such a per-part walk 23× slower at the
//! n = 10 000 / m = 100 000 cell).
//!
//! [`SoaLayout`] regroups the same parts **by family** at construction:
//!
//! * a stable permutation `part id → (family, family slot)` keeps part
//!   identities (`eval_parts`, `support()`, COOL-E024 traces and check
//!   output are unchanged);
//! * each family's immutable per-part scalars live in flat arrays with
//!   CSR-style per-part offsets (detection probabilities, linear/log-sum
//!   weights, coverage subregion values, k-cover `k` and `w/k`, facility
//!   benefit rows);
//! * per-sensor incidence is pre-resolved into **family runs**: the
//!   incident parts of a sensor, in increasing part-id order, split into
//!   maximal runs of consecutive same-family parts. A query loops over the
//!   runs and does **one `match` per run** (one per family in the common
//!   grouped case) instead of one per part, streaming through contiguous
//!   entry slices the autovectorizer can chew on;
//! * all mutable scalar state (miss products, weight sums, cover counts,
//!   facility bests, …) lives in one arena — a single `Vec<f64>` plus a
//!   single `Vec<u32>` — allocated once and reused across every query and
//!   mutation, so hot-path queries are allocation-free and a reset never
//!   reallocates. The detection state carries a mirror
//!   `eff = if cert > 0 { 0.0 } else { miss }`, kept up to date by every
//!   mutation, so a gain reads one `f64` per entry;
//! * the arena is **lane-strided**: it holds the state of `lanes`
//!   evaluators of one utility, and lane `t` of state element `j` (a
//!   part's family slot, or a subregion, target or benefit row) sits at
//!   `j · lanes + t`. A lone evaluator is the one-lane case; a slot state
//!   holds all `T` slots, so one part's `T` values are one contiguous
//!   block;
//! * one walk serves every query: a row query of [`SparseSumSlots`]
//!   ([`SlotState::gains_into`] / [`SlotState::losses_into`]) reads a
//!   sensor's runs once and feeds each run to all lanes, four at a time,
//!   with each lane's arithmetic exactly a lone query's; `gain`/`loss` are
//!   the one-lane call of that walk, and one insert and one remove kernel
//!   serve both owners.
//!
//! # Bitwise equality with the oracle
//!
//! The kernels replicate the exact floating-point expressions, operand
//! order and accumulator seeds of the per-part evaluators, and runs are
//! visited in the original increasing part-id order, so every `gain`,
//! `loss`, `insert` and `remove` is **bit-for-bit** equal to the dense
//! [`SumEvaluator`](crate::SumEvaluator) oracle (the COOL-E024 relation in
//! `cool check`), and every slot of a [`SparseSumSlots`] answers bitwise
//! as a lone evaluator holding the same set. Per-part subtotals are folded
//! into the +0.0-seeded composite chain the dense walk uses, and each
//! part's value is bitwise that part's own evaluator fed the members in
//! its support. The running value is a Kahan-compensated sum of the
//! realised deltas, rebuilt from the part values every
//! [`REBUILD_CADENCE`](SparseSumEvaluator::REBUILD_CADENCE) mutations, so
//! the tests pin it bitwise against a replica of that chain.

use crate::composite::{AnyUtility, IncidenceIndex};
use crate::stats;
use crate::traits::{Evaluator, SlotState, UtilityFunction};
use cool_common::{invariant, SensorId, SensorSet};
use std::sync::Arc;

/// The six part families of [`AnyUtility`], in variant order.
///
/// The discriminant doubles as the bit index of the per-family query
/// counters in [`stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Family {
    /// Detection probability `1 − Π(1−p)`.
    Detection = 0,
    /// Log-sum `ln(1 + Σw)`.
    LogSum = 1,
    /// Modular `Σw`.
    Linear = 2,
    /// Weighted-area coverage.
    Coverage = 3,
    /// Facility location `Σ max`.
    Facility = 4,
    /// k-coverage `Σ w·min(count, k)/k`.
    KCover = 5,
}

impl Family {
    /// Classifies a part.
    pub fn of(part: &AnyUtility) -> Family {
        match part {
            AnyUtility::Detection(_) => Family::Detection,
            AnyUtility::LogSum(_) => Family::LogSum,
            AnyUtility::Linear(_) => Family::Linear,
            AnyUtility::Coverage(_) => Family::Coverage,
            AnyUtility::Facility(_) => Family::Facility,
            AnyUtility::KCover(_) => Family::KCover,
        }
    }

    /// Prometheus label of the family (shared with `cool-serve`).
    pub fn label(self) -> &'static str {
        stats::FAMILY_LABELS[self as usize]
    }
}

/// A section of the arena: state elements `off..off + len` of the `f64`
/// or `u32` backing vector, each element `lanes` wide.
#[derive(Clone, Copy, Debug, Default)]
struct Sect {
    off: usize,
    len: usize,
}

impl Sect {
    /// The section in an arena of `lanes` lanes.
    fn of<T>(self, backing: &[T], lanes: usize) -> &[T] {
        &backing[self.off * lanes..(self.off + self.len) * lanes]
    }

    fn of_mut<T>(self, backing: &mut [T], lanes: usize) -> &mut [T] {
        &mut backing[self.off * lanes..(self.off + self.len) * lanes]
    }
}

/// One maximal run of consecutive same-family incident parts of a sensor;
/// `start..start + len` indexes that family's entry array.
#[derive(Clone, Copy, Debug)]
struct Run {
    family: Family,
    start: u32,
    len: u32,
}

/// A scalar incidence entry: the part's family slot plus the per-sensor
/// scalar (detection probability or linear/log-sum weight). Packed, so an
/// entry takes 12 bytes rather than 16 with the `f64` aligned; fields are
/// only ever read by value.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C, packed)]
struct ScalarEntry {
    slot: u32,
    x: f64,
}

/// A list incidence entry: the part's family slot plus `start..start+len`
/// into the family's flat per-sensor id list.
#[derive(Clone, Copy, Debug)]
struct ListEntry {
    slot: u32,
    start: u32,
    len: u32,
}

/// A facility incidence item: the global benefit-row id and the queried
/// sensor's (positive) benefit in that row.
#[derive(Clone, Copy, Debug)]
struct FacInc {
    row: u32,
    benefit: f64,
}

/// Per-part facility data kept for the loss/removal member scans (the only
/// kernel that must look beyond the incident slices).
#[derive(Clone, Debug)]
struct FacPart {
    benefits: Arc<Vec<Vec<f64>>>,
    support: SensorSet,
}

/// The immutable struct-of-arrays layout of a
/// [`SumUtility`](crate::SumUtility)'s parts, shared (via `Arc`) by every
/// [`SparseSumEvaluator`] spawned from it.
#[derive(Clone, Debug)]
pub(crate) struct SoaLayout {
    n_parts: usize,
    /// Stable permutation: part id → (family, family slot). Family slots
    /// are assigned in increasing part-id order, so the grouping is a
    /// stable sort by family.
    part_map: Vec<(Family, u32)>,

    /// `run_off[v]..run_off[v+1]` brackets sensor `v`'s runs.
    run_off: Vec<u32>,
    runs: Vec<Run>,

    /// Family incidence entries, sensor-major (a run's entries are
    /// contiguous).
    det: Vec<ScalarEntry>,
    log: Vec<ScalarEntry>,
    lin: Vec<ScalarEntry>,
    cov: Vec<ListEntry>,
    /// Global subregion ids covered by (sensor, coverage-part) pairs.
    cov_inc: Vec<u32>,
    kc: Vec<ListEntry>,
    /// Global target ids covered by (sensor, k-cover-part) pairs.
    kc_inc: Vec<u32>,
    fac: Vec<ListEntry>,
    /// Positive-benefit rows of (sensor, facility-part) pairs.
    fac_inc: Vec<FacInc>,

    /// Flat weighted subregion areas, concatenated in part order (global
    /// subregion ids index directly into it).
    cov_values: Vec<f64>,
    /// Flat per-target `k` and precomputed `w/k` (the same division the
    /// k-cover part evaluator performs per query, hoisted to construction).
    kc_k: Vec<u32>,
    kc_wk: Vec<f64>,
    /// Per-part facility data plus global benefit-row offsets.
    fac_parts: Vec<FacPart>,
    fac_part_off: Vec<u32>,

    /// Arena sections into the `f64` vector, in state elements (an arena
    /// of `lanes` lanes holds `lanes` values per element).
    f_len: usize,
    det_miss: Sect,
    /// Mirror of the detection state, `if cert > 0 { 0.0 } else { miss }`,
    /// directly after `det_miss` so both can be borrowed mutably at once.
    det_eff: Sect,
    log_sum: Sect,
    lin_sum: Sect,
    cov_value: Sect,
    kc_value: Sect,
    fac_best: Sect,
    /// Arena sections into the `u32` vector, in state elements.
    u_len: usize,
    det_cert: Sect,
    cov_counts: Sect,
    kc_counts: Sect,
}

impl SoaLayout {
    /// Groups `parts` by family and pre-resolves the per-sensor family
    /// runs from the incidence index.
    ///
    /// # Panics
    ///
    /// Panics if any entry count overflows `u32` (the incidence index
    /// already guarantees the part count fits).
    #[allow(clippy::too_many_lines)] // two linear passes: group parts by family, then lay out per-sensor runs
    pub(crate) fn build(
        universe: usize,
        parts: &[AnyUtility],
        index: &IncidenceIndex,
    ) -> SoaLayout {
        // Pass 1: the stable family permutation plus per-family immutable
        // part data.
        let mut part_map = Vec::with_capacity(parts.len());
        let (mut n_det, mut n_log, mut n_lin) = (0u32, 0u32, 0u32);
        let mut cov_values = Vec::new();
        let mut cov_part_off = vec![0u32];
        let mut kc_k = Vec::new();
        let mut kc_wk = Vec::new();
        let mut kc_part_off = vec![0u32];
        let mut fac_parts: Vec<FacPart> = Vec::new();
        let mut fac_part_off = vec![0u32];
        for part in parts {
            match part {
                AnyUtility::Detection(_) => {
                    part_map.push((Family::Detection, n_det));
                    n_det += 1;
                }
                AnyUtility::LogSum(_) => {
                    part_map.push((Family::LogSum, n_log));
                    n_log += 1;
                }
                AnyUtility::Linear(_) => {
                    part_map.push((Family::Linear, n_lin));
                    n_lin += 1;
                }
                AnyUtility::Coverage(c) => {
                    part_map.push((Family::Coverage, cov_part_off.len() as u32 - 1));
                    cov_values.extend_from_slice(c.subregion_values());
                    cov_part_off.push(as_u32(cov_values.len()));
                }
                AnyUtility::Facility(f) => {
                    part_map.push((Family::Facility, fac_part_off.len() as u32 - 1));
                    let rows = as_u32(f.benefit_rows().len());
                    fac_part_off.push(fac_part_off.last().copied().unwrap_or(0) + rows);
                    fac_parts.push(FacPart {
                        benefits: Arc::clone(f.benefit_rows_arc()),
                        support: f.support(),
                    });
                }
                AnyUtility::KCover(k) => {
                    part_map.push((Family::KCover, kc_part_off.len() as u32 - 1));
                    kc_k.extend_from_slice(k.requirements());
                    kc_wk.extend(
                        k.target_weights()
                            .iter()
                            .zip(k.requirements())
                            .map(|(&w, &ki)| w / f64::from(ki)),
                    );
                    kc_part_off.push(as_u32(kc_k.len()));
                }
            }
        }

        // Pass 2: per-sensor family runs and the per-family incidence
        // entries, sensor-major so a run's entries stream contiguously.
        // Scalar entries (detection, log-sum, linear) are only counted
        // here: `scalar_at[family][v]` records where sensor v's entries of
        // that family begin, and the part-major scatter below fills them.
        // Both arrays are indexed by the family discriminant (0, 1, 2).
        let mut run_off = Vec::with_capacity(universe + 1);
        run_off.push(0u32);
        let mut runs = Vec::new();
        let mut n_scalar = [0usize; 3];
        let mut scalar_at: [Vec<u32>; 3] = Default::default();
        let mut cov = Vec::new();
        let mut cov_inc = Vec::new();
        let mut kc = Vec::new();
        let mut kc_inc = Vec::new();
        let mut fac = Vec::new();
        let mut fac_inc = Vec::new();
        for raw in 0..universe {
            for (at, &n) in scalar_at.iter_mut().zip(&n_scalar) {
                at.push(as_u32(n));
            }
            let mut last: Option<Family> = None;
            for &pid in index.incident(SensorId(raw)) {
                let (family, slot) = part_map[pid as usize];
                if last != Some(family) {
                    let start = match family {
                        Family::Detection | Family::LogSum | Family::Linear => {
                            n_scalar[family as usize]
                        }
                        Family::Coverage => cov.len(),
                        Family::Facility => fac.len(),
                        Family::KCover => kc.len(),
                    };
                    runs.push(Run {
                        family,
                        start: as_u32(start),
                        len: 0,
                    });
                    last = Some(family);
                }
                if let Some(run) = runs.last_mut() {
                    run.len += 1;
                }
                match &parts[pid as usize] {
                    AnyUtility::Detection(_) | AnyUtility::LogSum(_) | AnyUtility::Linear(_) => {
                        n_scalar[family as usize] += 1;
                    }
                    AnyUtility::Coverage(c) => {
                        let base = cov_part_off[slot as usize];
                        let start = as_u32(cov_inc.len());
                        cov_inc.extend(
                            c.subregions_of(SensorId(raw))
                                .iter()
                                .map(|&s| base + as_u32(s)),
                        );
                        cov.push(ListEntry {
                            slot,
                            start,
                            len: as_u32(cov_inc.len()) - start,
                        });
                    }
                    AnyUtility::Facility(f) => {
                        let base = fac_part_off[slot as usize];
                        let start = as_u32(fac_inc.len());
                        for (i, row) in f.benefit_rows().iter().enumerate() {
                            let benefit = row[raw];
                            if benefit > 0.0 {
                                fac_inc.push(FacInc {
                                    row: base + as_u32(i),
                                    benefit,
                                });
                            }
                        }
                        fac.push(ListEntry {
                            slot,
                            start,
                            len: as_u32(fac_inc.len()) - start,
                        });
                    }
                    AnyUtility::KCover(k) => {
                        let base = kc_part_off[slot as usize];
                        let start = as_u32(kc_inc.len());
                        kc_inc.extend(
                            k.targets_of(SensorId(raw))
                                .iter()
                                .map(|&i| base + as_u32(i)),
                        );
                        kc.push(ListEntry {
                            slot,
                            start,
                            len: as_u32(kc_inc.len()) - start,
                        });
                    }
                }
            }
            run_off.push(as_u32(runs.len()));
        }
        // The part-major scatter: each scalar part writes its stored
        // entries at its sensors' cursors. Parts go in increasing id order,
        // so each sensor's entries land in the order its runs expect.
        let [mut det, mut log, mut lin] = n_scalar.map(|n| vec![ScalarEntry::default(); n]);
        for (part, &(family, slot)) in parts.iter().zip(&part_map) {
            let (entries, stored) = match part {
                AnyUtility::Detection(d) => (&mut det, d.probs()),
                AnyUtility::LogSum(u) => (&mut log, u.weights()),
                AnyUtility::Linear(u) => (&mut lin, u.weights()),
                _ => continue,
            };
            let cursor = &mut scalar_at[family as usize];
            for (&v, &x) in stored.ids().iter().zip(stored.values()) {
                let c = &mut cursor[v as usize];
                entries[*c as usize] = ScalarEntry { slot, x };
                *c += 1;
            }
        }
        invariant!(
            det.len() + log.len() + lin.len() + cov.len() + fac.len() + kc.len()
                == index.n_entries(),
            "family runs must cover every incidence entry exactly once"
        );

        // The arena: one f64 section and one u32 section per family state.
        let mut f_len = 0usize;
        let mut fsect = |len: usize| {
            let s = Sect { off: f_len, len };
            f_len += len;
            s
        };
        let det_miss = fsect(n_det as usize);
        let det_eff = fsect(n_det as usize);
        let log_sum = fsect(n_log as usize);
        let lin_sum = fsect(n_lin as usize);
        let cov_value = fsect(cov_part_off.len() - 1);
        let kc_value = fsect(kc_part_off.len() - 1);
        let fac_best = fsect(fac_part_off.last().copied().unwrap_or(0) as usize);
        let mut u_len = 0usize;
        let mut usect = |len: usize| {
            let s = Sect { off: u_len, len };
            u_len += len;
            s
        };
        let det_cert = usect(n_det as usize);
        let cov_counts = usect(cov_values.len());
        let kc_counts = usect(kc_k.len());

        SoaLayout {
            n_parts: parts.len(),
            part_map,
            run_off,
            runs,
            det,
            log,
            lin,
            cov,
            cov_inc,
            kc,
            kc_inc,
            fac,
            fac_inc,
            cov_values,
            kc_k,
            kc_wk,
            fac_parts,
            fac_part_off,
            f_len,
            det_miss,
            det_eff,
            log_sum,
            lin_sum,
            cov_value,
            kc_value,
            fac_best,
            u_len,
            det_cert,
            cov_counts,
            kc_counts,
        }
    }

    /// The stable part-id permutation: part id → (family, family slot).
    #[cfg(test)]
    pub(crate) fn family_of(&self, pid: usize) -> (Family, u32) {
        self.part_map[pid]
    }

    fn runs_for(&self, v: SensorId) -> &[Run] {
        &self.runs[self.run_off[v.index()] as usize..self.run_off[v.index() + 1] as usize]
    }

    /// A fresh one-lane arena: detection miss products and their mirror
    /// at 1.0, everything else at zero.
    fn fresh_arena(&self) -> Arena {
        let mut arena = Arena {
            f: vec![0.0; self.f_len],
            u: vec![0; self.u_len],
        };
        self.reset_arena(&mut arena);
        arena
    }

    /// Re-initialises a one-lane arena without reallocating.
    fn reset_arena(&self, arena: &mut Arena) {
        arena.f.fill(0.0);
        let (miss, eff, _) = self.det_state_mut(arena, 1);
        miss.fill(1.0);
        eff.fill(1.0);
        arena.u.fill(0);
    }

    /// The detection state `(miss, eff, cert)` of an arena of `lanes`
    /// lanes, mutably.
    fn det_state_mut<'a>(
        &self,
        arena: &'a mut Arena,
        lanes: usize,
    ) -> (&'a mut [f64], &'a mut [f64], &'a mut [u32]) {
        let (miss, eff) = arena.f
            [self.det_miss.off * lanes..(self.det_eff.off + self.det_eff.len) * lanes]
            .split_at_mut(self.det_miss.len * lanes);
        (miss, eff, self.det_cert.of_mut(&mut arena.u, lanes))
    }

    /// `true` when lane `lane` of detection slot `i` holds a mirror
    /// bitwise `if cert > 0 { 0.0 } else { miss }`.
    fn det_mirror_holds(&self, view: View<'_>, i: usize, lane: usize) -> bool {
        let at = i * view.lanes + lane;
        let want = if self.det_cert.of(view.u, view.lanes)[at] > 0 {
            0.0
        } else {
            self.det_miss.of(view.f, view.lanes)[at]
        };
        self.det_eff.of(view.f, view.lanes)[at].to_bits() == want.to_bits()
    }

    /// The current value of part `pid` in a one-lane arena — bitwise the
    /// per-part evaluator's `value()`.
    fn part_value(&self, pid: usize, arena: &Arena) -> f64 {
        let (family, slot) = self.part_map[pid];
        let s = slot as usize;
        match family {
            Family::Detection => 1.0 - self.det_eff.of(&arena.f, 1)[s],
            Family::LogSum => (1.0 + self.log_sum.of(&arena.f, 1)[s]).ln(),
            Family::Linear => self.lin_sum.of(&arena.f, 1)[s],
            Family::Coverage => self.cov_value.of(&arena.f, 1)[s],
            Family::KCover => self.kc_value.of(&arena.f, 1)[s],
            Family::Facility => {
                let best = self.fac_best.of(&arena.f, 1);
                best[self.fac_part_off[s] as usize..self.fac_part_off[s + 1] as usize]
                    .iter()
                    .sum()
            }
        }
    }
}

/// Lanes one kernel call carries. Each chunk's accumulators stay in
/// registers across a run's entries; `T = 4` slots is one chunk.
const LANE_CHUNK: usize = 4;

impl Run {
    /// `start..start + len` as `usize` bounds into the family's entries.
    fn range(&self) -> (usize, usize) {
        (self.start as usize, (self.start + self.len) as usize)
    }
}

impl ListEntry {
    /// `start..start + len` into the family's flat per-sensor list.
    fn items(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A borrowed arena of `lanes` lanes and each lane's member set: what the
/// query kernels read.
#[derive(Clone, Copy)]
struct View<'a> {
    f: &'a [f64],
    u: &'a [u32],
    members: &'a [SensorSet],
    lanes: usize,
}

impl SoaLayout {
    /// The one walk behind every gain and loss query: feeds `v`'s family
    /// runs to `per_run` in part-id order, and counts one query and
    /// `deg(v)` touched parts, whatever the lane count. Lane sums start at
    /// +0.0 rather than `.sum()`: f64's `Sum` identity is -0.0, which would
    /// leak a negative zero out of empty (or all-zero) incident slices and
    /// break bitwise agreement with the dense walk.
    #[inline]
    fn walk(&self, index: &IncidenceIndex, v: SensorId, mut per_run: impl FnMut(&Run)) {
        stats::record_query(index.degree(v));
        let mut families = 0u8;
        for run in self.runs_for(v) {
            families |= 1 << run.family as u8;
            per_run(run);
        }
        stats::record_family_queries(families);
    }

    /// `run`'s gain (`LOSS = false`) or loss kernel over lanes
    /// `lane0..lane0 + W` of `view`.
    #[inline(always)] // folds the lone call's one-lane stride to a constant
    #[allow(clippy::inline_always)]
    fn run<const W: usize, const LOSS: bool>(
        &self,
        run: &Run,
        v: SensorId,
        view: View<'_>,
        lane0: usize,
        acc: &mut [f64; W],
    ) {
        if LOSS {
            self.loss_run(run, v, view, lane0, acc);
        } else {
            self.gain_run(run, view, lane0, acc);
        }
    }

    /// Adds the marginal gains of `run`'s parts to the sums of lanes
    /// `lane0..lane0 + W` in `acc`, each lane's arithmetic exactly that of
    /// a lone query. A part's `W` lanes are one contiguous block.
    #[inline(always)] // folds the lone call's one-lane stride to a constant
    #[allow(clippy::inline_always)]
    fn gain_run<const W: usize>(
        &self,
        run: &Run,
        view: View<'_>,
        lane0: usize,
        acc: &mut [f64; W],
    ) {
        let mut a = *acc;
        let (s, e) = run.range();
        let lanes = view.lanes;
        let block = |j: usize| j * lanes + lane0..j * lanes + lane0 + W;
        match run.family {
            Family::Detection => {
                let eff = self.det_eff.of(view.f, lanes);
                for ent in &self.det[s..e] {
                    let i = ent.slot as usize;
                    invariant!(
                        (lane0..lane0 + W).all(|t| self.det_mirror_holds(view, i, t)),
                        "detection mirror out of date at slot {i}"
                    );
                    for (a, eff) in a.iter_mut().zip(&eff[block(i)]) {
                        *a += eff * ent.x;
                    }
                }
            }
            Family::LogSum => {
                let sum = self.log_sum.of(view.f, lanes);
                for ent in &self.log[s..e] {
                    for (a, &ws) in a.iter_mut().zip(&sum[block(ent.slot as usize)]) {
                        *a += (1.0 + ws + ent.x).ln() - (1.0 + ws).ln();
                    }
                }
            }
            Family::Linear => {
                for ent in &self.lin[s..e] {
                    for a in &mut a {
                        *a += ent.x;
                    }
                }
            }
            Family::Coverage => {
                let counts = self.cov_counts.of(view.u, lanes);
                for ent in &self.cov[s..e] {
                    let subs = &self.cov_inc[ent.items()];
                    for (t, a) in (lane0..).zip(&mut a) {
                        let part: f64 = subs
                            .iter()
                            .filter(|&&sub| counts[sub as usize * lanes + t] == 0)
                            .map(|&sub| self.cov_values[sub as usize])
                            .sum();
                        *a += part;
                    }
                }
            }
            Family::Facility => {
                let best = self.fac_best.of(view.f, lanes);
                for ent in &self.fac[s..e] {
                    let rows = &self.fac_inc[ent.items()];
                    for (t, a) in (lane0..).zip(&mut a) {
                        let mut part = 0.0f64;
                        for inc in rows {
                            part += (inc.benefit - best[inc.row as usize * lanes + t]).max(0.0);
                        }
                        *a += part;
                    }
                }
            }
            Family::KCover => {
                let counts = self.kc_counts.of(view.u, lanes);
                for ent in &self.kc[s..e] {
                    let tgts = &self.kc_inc[ent.items()];
                    for (t, a) in (lane0..).zip(&mut a) {
                        let part: f64 = tgts
                            .iter()
                            .filter(|&&i| counts[i as usize * lanes + t] < self.kc_k[i as usize])
                            .map(|&i| self.kc_wk[i as usize])
                            .sum();
                        *a += part;
                    }
                }
            }
        }
        *acc = a;
    }

    /// Adds the marginal losses of `v` in `run`'s parts to the sums of
    /// lanes `lane0..lane0 + W` in `acc`, each lane's arithmetic exactly
    /// that of a lone query.
    #[inline(always)] // folds the lone call's one-lane stride to a constant
    #[allow(clippy::inline_always)]
    #[allow(clippy::too_many_lines)] // one kernel per family, linear and flat
    fn loss_run<const W: usize>(
        &self,
        run: &Run,
        v: SensorId,
        view: View<'_>,
        lane0: usize,
        acc: &mut [f64; W],
    ) {
        let mut a = *acc;
        let (s, e) = run.range();
        let lanes = view.lanes;
        let block = |j: usize| j * lanes + lane0..j * lanes + lane0 + W;
        match run.family {
            Family::Detection => {
                let eff = self.det_eff.of(view.f, lanes);
                let miss = self.det_miss.of(view.f, lanes);
                let cert = self.det_cert.of(view.u, lanes);
                for ent in &self.det[s..e] {
                    let i = ent.slot as usize;
                    let p = ent.x;
                    invariant!(
                        (lane0..lane0 + W).all(|t| self.det_mirror_holds(view, i, t)),
                        "detection mirror out of date at slot {i}"
                    );
                    if p >= 1.0 {
                        let state = a.iter_mut().zip(&miss[block(i)]).zip(&cert[block(i)]);
                        for ((a, &miss), &cert) in state {
                            *a += if cert > 1 { 0.0 } else { miss };
                        }
                    } else {
                        // `eff` is 0.0 when a certain member is present, and
                        // 0.0 / (1 − p) · p is that same +0.0.
                        for (a, eff) in a.iter_mut().zip(&eff[block(i)]) {
                            *a += eff / (1.0 - p) * p;
                        }
                    }
                }
            }
            Family::LogSum => {
                let sum = self.log_sum.of(view.f, lanes);
                for ent in &self.log[s..e] {
                    for (a, &ws) in a.iter_mut().zip(&sum[block(ent.slot as usize)]) {
                        *a += (1.0 + ws).ln() - (1.0 + ws - ent.x).max(1.0).ln();
                    }
                }
            }
            Family::Linear => {
                for ent in &self.lin[s..e] {
                    for a in &mut a {
                        *a += ent.x;
                    }
                }
            }
            Family::Coverage => {
                let counts = self.cov_counts.of(view.u, lanes);
                for ent in &self.cov[s..e] {
                    let subs = &self.cov_inc[ent.items()];
                    for (t, a) in (lane0..).zip(&mut a) {
                        let part: f64 = subs
                            .iter()
                            .filter(|&&sub| counts[sub as usize * lanes + t] == 1)
                            .map(|&sub| self.cov_values[sub as usize])
                            .sum();
                        *a += part;
                    }
                }
            }
            Family::Facility => {
                let best = self.fac_best.of(view.f, lanes);
                for ent in &self.fac[s..e] {
                    let fp = &self.fac_parts[ent.slot as usize];
                    let base = self.fac_part_off[ent.slot as usize] as usize;
                    let rows = &self.fac_inc[ent.items()];
                    for (t, a) in (lane0..).zip(&mut a) {
                        let mut part = 0.0f64;
                        for inc in rows {
                            let i = inc.row as usize;
                            let b = best[i * lanes + t];
                            if inc.benefit >= b && b > 0.0 {
                                let row = &fp.benefits[i - base];
                                let next = view.members[t]
                                    .iter()
                                    .filter(|&u| u != v && fp.support.contains(u))
                                    .map(|u| row[u.index()])
                                    .fold(0.0, f64::max);
                                part += b - next;
                            }
                        }
                        *a += part;
                    }
                }
            }
            Family::KCover => {
                let counts = self.kc_counts.of(view.u, lanes);
                for ent in &self.kc[s..e] {
                    let tgts = &self.kc_inc[ent.items()];
                    for (t, a) in (lane0..).zip(&mut a) {
                        let part: f64 = tgts
                            .iter()
                            .filter(|&&i| counts[i as usize * lanes + t] <= self.kc_k[i as usize])
                            .map(|&i| self.kc_wk[i as usize])
                            .sum();
                        *a += part;
                    }
                }
            }
        }
        *acc = a;
    }

    /// Adds `v` to lane `lane` of an arena of `lanes` lanes (its caller has
    /// added `v` to that lane's member set) and returns the realised gain:
    /// the one insert kernel of the lone evaluator and the slot state.
    #[inline(always)] // folds the lone call's one-lane stride to a constant
    #[allow(clippy::inline_always)]
    fn insert(&self, arena: &mut Arena, lanes: usize, lane: usize, v: SensorId) -> f64 {
        let at = |j: usize| j * lanes + lane;
        let mut delta = 0.0;
        for run in self.runs_for(v) {
            let (s, e) = run.range();
            match run.family {
                Family::Detection => {
                    let (miss, eff, cert) = self.det_state_mut(arena, lanes);
                    for ent in &self.det[s..e] {
                        let i = at(ent.slot as usize);
                        let p = ent.x;
                        delta += eff[i] * p;
                        if p >= 1.0 {
                            cert[i] += 1;
                        } else {
                            miss[i] *= 1.0 - p;
                        }
                        eff[i] = if cert[i] > 0 { 0.0 } else { miss[i] };
                    }
                }
                Family::LogSum => {
                    let sum = self.log_sum.of_mut(&mut arena.f, lanes);
                    for ent in &self.log[s..e] {
                        let i = at(ent.slot as usize);
                        let before = (1.0 + sum[i]).ln();
                        sum[i] += ent.x;
                        delta += (1.0 + sum[i]).ln() - before;
                    }
                }
                Family::Linear => {
                    let sum = self.lin_sum.of_mut(&mut arena.f, lanes);
                    for ent in &self.lin[s..e] {
                        sum[at(ent.slot as usize)] += ent.x;
                        delta += ent.x;
                    }
                }
                Family::Coverage => {
                    let value = self.cov_value.of_mut(&mut arena.f, lanes);
                    let counts = self.cov_counts.of_mut(&mut arena.u, lanes);
                    for ent in &self.cov[s..e] {
                        let subs = &self.cov_inc[ent.items()];
                        let mut gained = 0.0;
                        for &sub in subs {
                            let j = sub as usize;
                            if counts[at(j)] == 0 {
                                gained += self.cov_values[j];
                            }
                            counts[at(j)] += 1;
                        }
                        value[at(ent.slot as usize)] += gained;
                        delta += gained;
                    }
                }
                Family::Facility => {
                    let best = self.fac_best.of_mut(&mut arena.f, lanes);
                    for ent in &self.fac[s..e] {
                        let rows = &self.fac_inc[ent.items()];
                        let mut gained = 0.0;
                        for inc in rows {
                            let i = at(inc.row as usize);
                            if inc.benefit > best[i] {
                                gained += inc.benefit - best[i];
                                best[i] = inc.benefit;
                            }
                        }
                        delta += gained;
                    }
                }
                Family::KCover => {
                    let value = self.kc_value.of_mut(&mut arena.f, lanes);
                    let counts = self.kc_counts.of_mut(&mut arena.u, lanes);
                    for ent in &self.kc[s..e] {
                        let tgts = &self.kc_inc[ent.items()];
                        let mut gained = 0.0;
                        for &t in tgts {
                            let j = t as usize;
                            if counts[at(j)] < self.kc_k[j] {
                                gained += self.kc_wk[j];
                            }
                            counts[at(j)] += 1;
                        }
                        value[at(ent.slot as usize)] += gained;
                        delta += gained;
                    }
                }
            }
        }
        invariant!(
            delta >= 0.0,
            "insert delta must be non-negative (monotone utility)"
        );
        delta
    }

    /// Removes `v` from lane `lane` of an arena of `lanes` lanes, whose
    /// member set `members` no longer holds it, and returns the realised
    /// loss: the one remove kernel of the lone evaluator and the slot
    /// state.
    #[inline(always)] // folds the lone call's one-lane stride to a constant
    #[allow(clippy::inline_always)]
    #[allow(clippy::too_many_lines)] // one kernel per family, linear and flat
    fn remove(
        &self,
        arena: &mut Arena,
        lanes: usize,
        lane: usize,
        members: &SensorSet,
        v: SensorId,
    ) -> f64 {
        let at = |j: usize| j * lanes + lane;
        let mut delta = 0.0;
        for run in self.runs_for(v) {
            let (s, e) = run.range();
            match run.family {
                Family::Detection => {
                    let (miss, eff, cert) = self.det_state_mut(arena, lanes);
                    for ent in &self.det[s..e] {
                        let i = at(ent.slot as usize);
                        let p = ent.x;
                        delta += if p >= 1.0 {
                            invariant!(cert[i] > 0, "certain-member count must not underflow");
                            cert[i] -= 1;
                            if cert[i] > 0 {
                                0.0
                            } else {
                                miss[i]
                            }
                        } else {
                            let miss_without = miss[i] / (1.0 - p);
                            let had_certain = cert[i] > 0;
                            miss[i] = miss_without;
                            if had_certain {
                                0.0
                            } else {
                                miss_without * p
                            }
                        };
                        eff[i] = if cert[i] > 0 { 0.0 } else { miss[i] };
                    }
                }
                Family::LogSum => {
                    let sum = self.log_sum.of_mut(&mut arena.f, lanes);
                    for ent in &self.log[s..e] {
                        let i = at(ent.slot as usize);
                        let before = (1.0 + sum[i]).ln();
                        sum[i] = (sum[i] - ent.x).max(0.0);
                        delta += before - (1.0 + sum[i]).ln();
                    }
                }
                Family::Linear => {
                    let sum = self.lin_sum.of_mut(&mut arena.f, lanes);
                    for ent in &self.lin[s..e] {
                        sum[at(ent.slot as usize)] -= ent.x;
                        delta += ent.x;
                    }
                }
                Family::Coverage => {
                    let value = self.cov_value.of_mut(&mut arena.f, lanes);
                    let counts = self.cov_counts.of_mut(&mut arena.u, lanes);
                    for ent in &self.cov[s..e] {
                        let subs = &self.cov_inc[ent.items()];
                        let mut lost = 0.0;
                        for &sub in subs {
                            let j = sub as usize;
                            invariant!(counts[at(j)] > 0, "cover count must not underflow");
                            counts[at(j)] -= 1;
                            if counts[at(j)] == 0 {
                                lost += self.cov_values[j];
                            }
                        }
                        value[at(ent.slot as usize)] -= lost;
                        delta += lost;
                    }
                }
                Family::Facility => {
                    let best = self.fac_best.of_mut(&mut arena.f, lanes);
                    for ent in &self.fac[s..e] {
                        let fp = &self.fac_parts[ent.slot as usize];
                        let base = self.fac_part_off[ent.slot as usize] as usize;
                        let rows = &self.fac_inc[ent.items()];
                        let mut lost = 0.0;
                        for inc in rows {
                            let row_id = inc.row as usize;
                            let i = at(row_id);
                            if inc.benefit >= best[i] && best[i] > 0.0 {
                                let row = &fp.benefits[row_id - base];
                                // `v` is already out of the member set, so
                                // the scan needs no `u != v` filter — the
                                // same shape as the facility part's removal.
                                let next = members
                                    .iter()
                                    .filter(|&u| fp.support.contains(u))
                                    .map(|u| row[u.index()])
                                    .fold(0.0, f64::max);
                                lost += best[i] - next;
                                best[i] = next;
                            }
                        }
                        delta += lost;
                    }
                }
                Family::KCover => {
                    let value = self.kc_value.of_mut(&mut arena.f, lanes);
                    let counts = self.kc_counts.of_mut(&mut arena.u, lanes);
                    for ent in &self.kc[s..e] {
                        let tgts = &self.kc_inc[ent.items()];
                        let mut lost = 0.0;
                        for &t in tgts {
                            let j = t as usize;
                            invariant!(counts[at(j)] > 0, "coverer count must not underflow");
                            counts[at(j)] -= 1;
                            if counts[at(j)] < self.kc_k[j] {
                                lost += self.kc_wk[j];
                            }
                        }
                        value[at(ent.slot as usize)] -= lost;
                        delta += lost;
                    }
                }
            }
        }
        invariant!(
            delta >= 0.0,
            "remove delta must be non-negative (monotone utility)"
        );
        delta
    }
}

#[allow(clippy::expect_used)] // entry counts are bounded by the incidence index, already u32-sized
fn as_u32(x: usize) -> u32 {
    u32::try_from(x).expect("SoA layout size fits in u32")
}

/// The mutable state of one or more evaluators: every family's scalar
/// state, packed into one `f64` and one `u32` vector, lane-strided (see
/// the module docs). Allocated once and reused across all queries and
/// mutations.
#[derive(Clone, Debug)]
struct Arena {
    f: Vec<f64>,
    u: Vec<u32>,
}

/// Spreads a one-lane arena vector over `lanes` lanes in place: element
/// `j` becomes the block `j · lanes..(j + 1) · lanes`, each lane a copy.
fn widen<T: Copy + Default>(backing: &mut Vec<T>, lanes: usize) {
    let len = backing.len();
    backing.resize(len * lanes, T::default());
    if lanes > 0 {
        // Descending, so each element is read before a block covers it.
        for j in (0..len).rev() {
            let x = backing[j];
            backing[j * lanes..(j + 1) * lanes].fill(x);
        }
    }
}

/// Sparse evaluator companion of [`SumUtility`](crate::SumUtility):
/// O(deg(v)) marginal-gain queries answered by family-batched kernels over
/// the struct-of-arrays layout, plus an O(1) running
/// [`value`](Evaluator::value).
///
/// Queries walk the sensor's pre-resolved family runs — one `match` per
/// run instead of one per part — and stream through contiguous entry
/// slices; all mutable state lives in a one-lane arena, so the hot path
/// never allocates. Results are bit-for-bit equal to the dense
/// [`SumEvaluator`](crate::SumEvaluator) oracle.
///
/// The running value uses Kahan-compensated summation of insert/remove
/// deltas and is rebuilt from the per-part state every
/// [`REBUILD_CADENCE`](SparseSumEvaluator::REBUILD_CADENCE) mutations, so
/// it tracks the dense from-scratch value to well under the pinned `1e-9`
/// differential tolerance (and exactly on integer-weight families, where
/// every delta is exact).
#[derive(Clone, Debug)]
pub struct SparseSumEvaluator {
    layout: Arc<SoaLayout>,
    index: Arc<IncidenceIndex>,
    members: SensorSet,
    arena: Arena,
    /// Kahan-compensated running sum of realised deltas.
    value: f64,
    /// Kahan compensation term.
    comp: f64,
    /// Mutations since the last full rebuild.
    mutations: u32,
    /// Mutations between rebuilds for *this* evaluator; defaults to
    /// [`REBUILD_CADENCE`](SparseSumEvaluator::REBUILD_CADENCE).
    cadence: u32,
}

impl SparseSumEvaluator {
    /// Default mutations between full accumulator rebuilds — bounds
    /// worst-case drift at roughly `CADENCE · ulp(value)` between rebuilds.
    /// Long-lived evaluators (e.g. `cool-session` state that survives many
    /// patches) should lower it with
    /// [`set_rebuild_cadence`](SparseSumEvaluator::set_rebuild_cadence).
    pub const REBUILD_CADENCE: u32 = 4096;

    pub(crate) fn new(
        layout: Arc<SoaLayout>,
        index: Arc<IncidenceIndex>,
        universe: usize,
    ) -> SparseSumEvaluator {
        let arena = layout.fresh_arena();
        SparseSumEvaluator {
            layout,
            index,
            members: SensorSet::new(universe),
            arena,
            value: 0.0,
            comp: 0.0,
            mutations: 0,
            cadence: SparseSumEvaluator::REBUILD_CADENCE,
        }
    }

    /// The current rebuild cadence.
    #[must_use]
    pub fn rebuild_cadence(&self) -> u32 {
        self.cadence
    }

    /// Sets the rebuild cadence (clamped to at least 1). Gain/loss queries
    /// and insert/remove deltas are computed from the per-part state, so
    /// they are bitwise independent of the cadence; only the drift bound of
    /// the O(1) running [`value`](Evaluator::value) changes. Takes effect
    /// from the next mutation.
    pub fn set_rebuild_cadence(&mut self, cadence: u32) {
        self.cadence = cadence.max(1);
    }

    /// Builder form of [`set_rebuild_cadence`](SparseSumEvaluator::set_rebuild_cadence).
    #[must_use]
    pub fn with_rebuild_cadence(mut self, cadence: u32) -> Self {
        self.set_rebuild_cadence(cadence);
        self
    }

    /// Per-part values of the current set — the per-target breakdown, in
    /// part-id order.
    pub fn part_values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.layout.n_parts);
        self.part_values_into(&mut out);
        out
    }

    /// Writes the per-part breakdown into `out` (cleared first), reusing
    /// its capacity — the allocation-free form for batch paths that read
    /// the breakdown repeatedly.
    pub fn part_values_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.layout.n_parts).map(|pid| self.layout.part_value(pid, &self.arena)));
    }

    /// Returns the evaluator to `S = ∅` without reallocating: the arena,
    /// the member set and the running value are cleared in place. The
    /// rebuild cadence is preserved.
    pub fn reset(&mut self) {
        self.members.clear();
        self.layout.reset_arena(&mut self.arena);
        self.value = 0.0;
        self.comp = 0.0;
        self.mutations = 0;
    }

    fn kahan_add(&mut self, x: f64) {
        let t = self.value + x;
        if self.value.abs() >= x.abs() {
            self.comp += (self.value - t) + x;
        } else {
            self.comp += (x - t) + self.value;
        }
        self.value = t;
    }

    fn after_mutation(&mut self) {
        self.mutations += 1;
        if self.mutations >= self.cadence {
            self.rebuild();
        }
    }

    /// Recomputes the running value from the per-part state (same part
    /// order as the dense walk), discarding accumulated drift.
    fn rebuild(&mut self) {
        self.value = (0..self.layout.n_parts)
            .map(|pid| self.layout.part_value(pid, &self.arena))
            .sum();
        self.comp = 0.0;
        self.mutations = 0;
    }

    /// A lone gain (`LOSS = false`) or loss of `v`: the one-lane call of
    /// the walk and kernels the slot state's row queries run.
    fn lone<const LOSS: bool>(&self, v: SensorId) -> f64 {
        if self.members.contains(v) != LOSS {
            return 0.0;
        }
        let l = &*self.layout;
        let view = View {
            f: &self.arena.f,
            u: &self.arena.u,
            members: std::slice::from_ref(&self.members),
            lanes: 1,
        };
        let mut acc = [0.0];
        l.walk(&self.index, v, |run| {
            l.run::<1, LOSS>(run, v, view, 0, &mut acc);
        });
        acc[0]
    }
}

impl Evaluator for SparseSumEvaluator {
    type Slots = SparseSumSlots;

    fn value(&self) -> f64 {
        self.value + self.comp
    }

    fn gain(&self, v: SensorId) -> f64 {
        self.lone::<false>(v)
    }

    fn loss(&self, v: SensorId) -> f64 {
        self.lone::<true>(v)
    }

    fn insert(&mut self, v: SensorId) -> f64 {
        if !self.members.insert(v) {
            return 0.0;
        }
        let delta = self.layout.insert(&mut self.arena, 1, 0, v);
        self.kahan_add(delta);
        self.after_mutation();
        delta
    }

    fn remove(&mut self, v: SensorId) -> f64 {
        if !self.members.remove(v) {
            return 0.0;
        }
        let delta = self.layout.remove(&mut self.arena, 1, 0, &self.members, v);
        self.kahan_add(-delta);
        self.after_mutation();
        delta
    }

    fn contains(&self, v: SensorId) -> bool {
        self.members.contains(v)
    }

    fn current_set(&self) -> SensorSet {
        self.members.clone()
    }
}

/// The slot state of [`SparseSumEvaluator`]: `T` evaluators of one
/// [`SumUtility`](crate::SumUtility), one per time slot, in one
/// lane-strided arena, so a row query reads one contiguous block of `T`
/// values per incident part. Built by [`Evaluator::into_slots`], which
/// widens the start evaluator's arena in place.
///
/// Row queries walk the sensor's runs once and feed each run to the slots
/// four at a time (remainder slots one at a time). Slot `t`'s
/// answers and deltas are bitwise those of a lone evaluator holding slot
/// `t`'s set; a slot where the answer is trivially zero (`v` already in
/// its set for a gain, absent for a loss) gets an exact `0.0`, and if
/// every slot's is, nothing is walked and nothing is counted.
#[derive(Clone, Debug)]
pub struct SparseSumSlots {
    layout: Arc<SoaLayout>,
    index: Arc<IncidenceIndex>,
    /// Each slot's member set, in slot order.
    members: Vec<SensorSet>,
    arena: Arena,
}

impl SparseSumSlots {
    /// Every slot's marginal gain (`LOSS = false`) or loss (`LOSS = true`)
    /// of `v` in `out`, from one walk of its runs.
    fn query<const LOSS: bool>(&self, v: SensorId, out: &mut [f64]) {
        assert_eq!(out.len(), self.members.len(), "one output per slot");
        let trivial = |members: &SensorSet| members.contains(v) != LOSS;
        out.fill(0.0);
        if self.members.iter().all(trivial) {
            return;
        }
        let l = &*self.layout;
        let view = View {
            f: &self.arena.f,
            u: &self.arena.u,
            members: &self.members,
            lanes: self.members.len(),
        };
        let (chunks, rest) = out.as_chunks_mut::<LANE_CHUNK>();
        let rest_at = chunks.len() * LANE_CHUNK;
        l.walk(&self.index, v, |run| {
            for (c, acc) in chunks.iter_mut().enumerate() {
                l.run::<LANE_CHUNK, LOSS>(run, v, view, c * LANE_CHUNK, acc);
            }
            for (t, acc) in (rest_at..).zip(rest.iter_mut()) {
                l.run::<1, LOSS>(run, v, view, t, std::array::from_mut(acc));
            }
        });
        for (members, o) in self.members.iter().zip(out) {
            if trivial(members) {
                *o = 0.0;
            }
        }
    }
}

impl SlotState for SparseSumSlots {
    type Evaluator = SparseSumEvaluator;

    fn new(start: SparseSumEvaluator, slots: usize) -> SparseSumSlots {
        let SparseSumEvaluator {
            layout,
            index,
            members,
            mut arena,
            ..
        } = start;
        widen(&mut arena.f, slots);
        widen(&mut arena.u, slots);
        SparseSumSlots {
            layout,
            index,
            members: vec![members; slots],
            arena,
        }
    }

    fn gains_into(&self, v: SensorId, out: &mut [f64]) {
        self.query::<false>(v, out);
    }

    fn losses_into(&self, v: SensorId, out: &mut [f64]) {
        self.query::<true>(v, out);
    }

    fn insert(&mut self, slot: usize, v: SensorId) -> f64 {
        if !self.members[slot].insert(v) {
            return 0.0;
        }
        let lanes = self.members.len();
        self.layout.insert(&mut self.arena, lanes, slot, v)
    }

    fn remove(&mut self, slot: usize, v: SensorId) -> f64 {
        if !self.members[slot].remove(v) {
            return 0.0;
        }
        let lanes = self.members.len();
        self.layout
            .remove(&mut self.arena, lanes, slot, &self.members[slot], v)
    }
}

/// Test-side replica of [`SparseSumEvaluator`]'s running value, built from
/// the realised deltas alone: the same Kahan-compensated addition, rebuilt
/// from the dense walk's from-scratch value every
/// [`REBUILD_CADENCE`](SparseSumEvaluator::REBUILD_CADENCE) mutations.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct KahanChain {
    value: f64,
    comp: f64,
    mutations: u32,
}

#[cfg(test)]
impl KahanChain {
    /// Adds one mutation's signed delta (`-loss` for a removal); `dense`
    /// holds the set after the mutation.
    pub(crate) fn push(&mut self, delta: f64, dense: &crate::SumEvaluator) {
        let t = self.value + delta;
        if self.value.abs() >= delta.abs() {
            self.comp += (self.value - t) + delta;
        } else {
            self.comp += (delta - t) + self.value;
        }
        self.value = t;
        self.mutations += 1;
        if self.mutations >= SparseSumEvaluator::REBUILD_CADENCE {
            *self = KahanChain {
                value: dense.value(),
                ..KahanChain::default()
            };
        }
    }

    /// The chain's running value.
    pub(crate) fn value(&self) -> f64 {
        self.value + self.comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AnyEvaluator, CoverageUtility, DetectionUtility, FacilityLocationUtility, KCoverageUtility,
        LinearUtility, LogSumUtility, SumUtility,
    };

    fn six_family_sum() -> SumUtility {
        SumUtility::new(vec![
            DetectionUtility::new(vec![0.4, 0.0, 0.9, 0.0, 0.25]).into(),
            LogSumUtility::new(vec![0.0, 2.0, 0.0, 1.0, 0.0]).into(),
            LinearUtility::new(vec![1.0, 0.0, 0.0, 0.5, 0.0]).into(),
            CoverageUtility::from_parts(
                5,
                vec![
                    SensorSet::from_indices(5, [0, 1]),
                    SensorSet::from_indices(5, [1, 4]),
                    SensorSet::from_indices(5, [2]),
                ],
                vec![2.0, 0.0, 3.0],
            )
            .into(),
            FacilityLocationUtility::new(vec![
                vec![0.9, 0.0, 0.4, 0.0, 0.0],
                vec![0.0, 0.8, 0.0, 0.0, 0.5],
            ])
            .into(),
            KCoverageUtility::new(
                vec![
                    SensorSet::from_indices(5, [0, 2, 3]),
                    SensorSet::from_indices(5, [3, 4]),
                ],
                vec![2, 1],
                vec![1.0, 3.0],
            )
            .into(),
            DetectionUtility::new(vec![0.0, 0.3, 0.0, 0.3, 0.0]).into(),
        ])
    }

    #[test]
    fn permutation_is_stable_within_each_family() {
        let u = six_family_sum();
        let l = u.soa_layout();
        assert_eq!(l.family_of(0), (Family::Detection, 0));
        assert_eq!(l.family_of(1), (Family::LogSum, 0));
        assert_eq!(l.family_of(2), (Family::Linear, 0));
        assert_eq!(l.family_of(3), (Family::Coverage, 0));
        assert_eq!(l.family_of(4), (Family::Facility, 0));
        assert_eq!(l.family_of(5), (Family::KCover, 0));
        // The second detection part keeps part-id order within the family.
        assert_eq!(l.family_of(6), (Family::Detection, 1));
    }

    #[test]
    fn runs_split_on_family_change_and_cover_all_entries() {
        let u = six_family_sum();
        let l = u.soa_layout();
        let total: u32 = l.runs.iter().map(|r| r.len).sum();
        assert_eq!(total as usize, u.incidence().n_entries());
        // Sensor 3 is incident to LogSum(1), Linear(2), KCover(5), Det(6):
        // four single-part runs (families alternate along the id order).
        let runs = l.runs_for(SensorId(3));
        let fams: Vec<Family> = runs.iter().map(|r| r.family).collect();
        assert_eq!(
            fams,
            vec![
                Family::LogSum,
                Family::Linear,
                Family::KCover,
                Family::Detection
            ]
        );
        assert!(runs.iter().all(|r| r.len == 1));
    }

    #[test]
    fn kernels_match_the_dense_walk_bitwise_on_a_trace() {
        let u = six_family_sum();
        let mut soa = u.evaluator();
        let mut dense = u.dense_evaluator();
        let mut chain = KahanChain::default();
        // Per-part oracle: each part's own evaluator, fed only the trace
        // steps whose sensor lies in that part's support.
        let supports: Vec<SensorSet> = u.parts().iter().map(UtilityFunction::support).collect();
        let mut parts: Vec<AnyEvaluator> =
            u.parts().iter().map(UtilityFunction::evaluator).collect();
        let trace = [
            (true, 1),
            (true, 3),
            (true, 0),
            (false, 3),
            (true, 4),
            (true, 2),
            (false, 1),
            (true, 3),
            (false, 0),
        ];
        for (step, (add, raw)) in trace.into_iter().enumerate() {
            let v = SensorId(raw);
            for probe in 0..5 {
                let p = SensorId(probe);
                assert_eq!(
                    soa.gain(p).to_bits(),
                    dense.gain(p).to_bits(),
                    "gain({probe}) diverged at step {step}"
                );
                assert_eq!(
                    soa.loss(p).to_bits(),
                    dense.loss(p).to_bits(),
                    "loss({probe}) diverged at step {step}"
                );
            }
            let (a, b) = if add {
                (soa.insert(v), dense.insert(v))
            } else {
                (soa.remove(v), dense.remove(v))
            };
            assert_eq!(a.to_bits(), b.to_bits(), "delta diverged at step {step}");
            chain.push(if add { b } else { -b }, &dense);
            assert_eq!(soa.value().to_bits(), chain.value().to_bits());
            for (part, support) in parts.iter_mut().zip(&supports) {
                if support.contains(v) {
                    if add {
                        part.insert(v);
                    } else {
                        part.remove(v);
                    }
                }
            }
            for (pid, (x, part)) in soa.part_values().iter().zip(&parts).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    part.value().to_bits(),
                    "part {pid} value diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn slot_queries_match_lone_queries_and_the_dense_walk_bitwise() {
        let u = six_family_sum();
        let trace = [
            (true, 1),
            (true, 3),
            (true, 0),
            (false, 3),
            (true, 4),
            (true, 2),
            (false, 1),
            (true, 3),
            (false, 0),
        ];
        for slots in [1usize, 2, 3, 4, 5, 8] {
            // Slot k has taken the first 3k mod 10 steps of the trace, so
            // the slots hold different sets: a probe is a member of some
            // (gain 0) and absent from others (loss 0).
            let mut state = u.evaluator().into_slots(slots);
            let mut soa = vec![u.evaluator(); slots];
            let mut dense = vec![u.dense_evaluator(); slots];
            for (k, (s, d)) in soa.iter_mut().zip(&mut dense).enumerate() {
                for &(add, raw) in &trace[..(3 * k) % (trace.len() + 1)] {
                    let v = SensorId(raw);
                    if add {
                        d.insert(v);
                        assert_eq!(state.insert(k, v).to_bits(), s.insert(v).to_bits());
                    } else {
                        d.remove(v);
                        assert_eq!(state.remove(k, v).to_bits(), s.remove(v).to_bits());
                    }
                }
            }
            let mut gains = vec![f64::NAN; slots];
            let mut losses = vec![f64::NAN; slots];
            for probe in 0..5 {
                let p = SensorId(probe);
                state.gains_into(p, &mut gains);
                state.losses_into(p, &mut losses);
                for t in 0..slots {
                    let at = format!("{slots} slots, slot {t}, sensor {probe}");
                    assert_eq!(gains[t].to_bits(), soa[t].gain(p).to_bits(), "{at}");
                    assert_eq!(gains[t].to_bits(), dense[t].gain(p).to_bits(), "{at}");
                    assert_eq!(losses[t].to_bits(), soa[t].loss(p).to_bits(), "{at}");
                    assert_eq!(losses[t].to_bits(), dense[t].loss(p).to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one output per slot")]
    fn slot_queries_need_one_output_per_slot() {
        let u = six_family_sum();
        let state = u.evaluator().into_slots(3);
        state.gains_into(SensorId(0), &mut [0.0; 2]);
    }

    #[test]
    fn slot_lane_t_of_element_j_sits_at_j_times_lanes_plus_t() {
        // Sensor 1 is certain (p = 1) in the second detection part, so its
        // insert zeroes that part's mirror in its own lane only.
        let u = SumUtility::new(vec![
            DetectionUtility::new(vec![0.5, 0.0]).into(),
            DetectionUtility::new(vec![0.0, 1.0]).into(),
        ]);
        let mut start = u.evaluator();
        start.insert(SensorId(0));
        let mut state = start.into_slots(3);
        state.insert(2, SensorId(1));
        let l = u.soa_layout();
        let eff = l.det_eff.of(&state.arena.f, 3);
        assert_eq!(eff, &[0.5, 0.5, 0.5, 1.0, 1.0, 0.0]);
        assert_eq!(l.det_cert.of(&state.arena.u, 3), &[0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn the_detection_mirror_tracks_insert_remove_and_reset() {
        // Certain members (p = 1) zero the mirror; removing the last one
        // restores the miss product.
        let u = SumUtility::new(vec![
            DetectionUtility::new(vec![1.0, 0.5, 1.0, 0.0, 0.3]).into(),
            DetectionUtility::new(vec![0.0, 1.0, 0.2, 0.0, 0.0]).into(),
        ]);
        let mut e = u.evaluator();
        let l = u.soa_layout();
        let holds = |e: &SparseSumEvaluator| {
            let view = View {
                f: &e.arena.f,
                u: &e.arena.u,
                members: std::slice::from_ref(&e.members),
                lanes: 1,
            };
            (0..2).all(|i| l.det_mirror_holds(view, i, 0))
        };
        assert!(holds(&e));
        let trace = [
            (true, 1),
            (true, 0),
            (true, 2),
            (true, 4),
            (false, 0),
            (false, 2),
            (false, 1),
        ];
        for (add, raw) in trace {
            if add {
                e.insert(SensorId(raw));
            } else {
                e.remove(SensorId(raw));
            }
            assert!(holds(&e), "after {add} {raw}");
        }
        e.reset();
        assert!(holds(&e));
        assert_eq!(l.det_eff.of(&e.arena.f, 1), &[1.0, 1.0]);
    }

    #[test]
    fn reset_restores_a_fresh_evaluator_without_reallocating() {
        let u = six_family_sum();
        let mut e = u.evaluator().with_rebuild_cadence(2);
        for v in 0..5 {
            e.insert(SensorId(v));
        }
        let f_ptr = e.arena.f.as_ptr();
        let u_ptr = e.arena.u.as_ptr();
        e.reset();
        assert_eq!(e.arena.f.as_ptr(), f_ptr, "f64 arena must not reallocate");
        assert_eq!(e.arena.u.as_ptr(), u_ptr, "u32 arena must not reallocate");
        assert_eq!(e.rebuild_cadence(), 2, "cadence survives reset");
        assert_eq!(e.value().to_bits(), 0.0f64.to_bits());
        assert_eq!(e.current_set(), SensorSet::new(5));
        let fresh = u.evaluator();
        for v in 0..5 {
            let p = SensorId(v);
            assert_eq!(e.gain(p).to_bits(), fresh.gain(p).to_bits());
        }
    }

    #[test]
    fn part_values_into_reuses_the_buffer() {
        let u = six_family_sum();
        let mut e = u.evaluator();
        e.insert(SensorId(1));
        let mut buf = Vec::new();
        e.part_values_into(&mut buf);
        assert_eq!(buf.len(), 7);
        let cap_ptr = buf.as_ptr();
        e.insert(SensorId(0));
        e.part_values_into(&mut buf);
        assert_eq!(buf.as_ptr(), cap_ptr, "buffer must be reused, not regrown");
        assert_eq!(buf, e.part_values());
    }

    #[test]
    fn family_labels_line_up_with_discriminants() {
        for (i, fam) in [
            Family::Detection,
            Family::LogSum,
            Family::Linear,
            Family::Coverage,
            Family::Facility,
            Family::KCover,
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(fam as usize, i);
            assert_eq!(fam.label(), stats::FAMILY_LABELS[i]);
        }
    }

    #[test]
    fn gain_records_per_family_counters() {
        let u = six_family_sum();
        let e = u.evaluator();
        let before = stats::snapshot();
        // Sensor 3 touches LogSum, Linear, KCover and Detection parts.
        let _ = e.gain(SensorId(3));
        let after = stats::snapshot();
        for fam in [
            Family::LogSum,
            Family::Linear,
            Family::KCover,
            Family::Detection,
        ] {
            assert!(
                after.family_queries[fam as usize] > before.family_queries[fam as usize],
                "{} counter did not advance",
                fam.label()
            );
        }
    }
}
