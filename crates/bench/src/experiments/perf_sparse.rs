//! Wall-clock comparison of the sparse incidence-indexed sum evaluator
//! against the dense O(m) walk, across target counts, sensor counts, and
//! both allocation families.
//!
//! Each cell builds a synthetic multi-target detection instance with a
//! *small coverage degree* (every target watched by a handful of sensors,
//! so `deg(v) ≪ m`) and runs the same lazy greedy twice: once on the
//! plain [`SumUtility`] (sparse [`SparseSumEvaluator`] via the evaluator
//! seam) and once on the [`DenseSumUtility`] wrapper (dense
//! [`SumEvaluator`](cool_utility::SumEvaluator) oracle). Sparse gains are
//! bitwise equal to dense ones, so the two runs must produce **identical
//! assignments** — a cell with `identical = false` is a correctness bug,
//! not a measurement artifact.
//!
//! Besides the report table, `run` emits `BENCH_PR5.json` in the working
//! directory — the machine-readable baseline the CI `bench-smoke` job
//! checks (sparse must not be slower than dense at the largest `m`, and
//! every row must be `identical`).
//!
//! Since PR 10 the run also emits `BENCH_PR10.json`: a three-arm sweep of
//! the struct-of-arrays kernels ([`SparseSumEvaluator`]) against the
//! retained per-part enum walk ([`PartWalkSumUtility`]) and the dense
//! oracle. The dense arm only runs at the small sizes (it is O(m) per
//! query); setting [`BIG_CELL_ENV`]`=1` adds the n = 10 000 / m = 100 000
//! cell (soa vs partwalk only; CI validates the checked-in JSON instead of
//! re-timing it, and its hard-invariants lane re-solves the cell for
//! identity in `soa_smoke_big`).
//!
//! [`SparseSumEvaluator`]: cool_utility::SparseSumEvaluator

use crate::ExperimentReport;
use cool_common::{SeedSequence, SensorId, SensorSet, Table};
use cool_core::greedy::{greedy_active_lazy_with_threads, greedy_passive_lazy_with_threads};
use cool_utility::{DenseSumUtility, DetectionUtility, PartWalkSumUtility, SumUtility};
use rand::Rng;
use std::time::Instant;

/// The (m targets, n sensors) grid the benchmark sweeps.
pub const SIZES: [(usize, usize); 6] = [
    (100, 200),
    (100, 800),
    (1000, 200),
    (1000, 800),
    (5000, 200),
    (5000, 800),
];

/// Environment variable that, when set to `1`, adds the [`BIG_CELL`] row
/// to the three-arm sweep of [`measure_pr10`]. Off by default: the
/// part-walk arm takes seconds and hundreds of MB at that size, so the
/// timing is measured once locally and the resulting `BENCH_PR10.json` is
/// checked in for CI to validate.
pub const BIG_CELL_ENV: &str = "COOL_BENCH_PR10_BIG";

/// The (m targets, n sensors) of the env-gated large PR 10 cell.
pub const BIG_CELL: (usize, usize) = (100_000, 10_000);

/// Sensors covering each target — keeps `deg(v) = m·COVER/n ≪ m` so the
/// sparse walk has something to skip.
const COVER: usize = 6;

/// Slots per period in every cell.
const T_SLOTS: usize = 4;

/// Per-sensor detection probability of the synthetic targets.
const DETECT_P: f64 = 0.4;

/// One measured (family, m, n) cell.
#[derive(Clone, Debug)]
pub struct SparseCell {
    /// `"active"` (`ρ > 1`) or `"passive"` (`ρ ≤ 1`).
    pub family: &'static str,
    /// Number of utility parts (targets).
    pub m: usize,
    /// Sensor count.
    pub n: usize,
    /// Slots per period.
    pub t_slots: usize,
    /// Lazy greedy on the dense O(m)-walk evaluator, milliseconds.
    pub dense_ms: f64,
    /// Lazy greedy on the sparse O(deg) evaluator, milliseconds.
    pub sparse_ms: f64,
    /// Mean incidence degree over sensors (`index.n_entries() / n`).
    pub avg_degree: f64,
    /// Whether both runs produced the same assignment (they must).
    pub identical: bool,
}

/// One measured (family, m, n) cell of the PR 10 three-arm sweep.
#[derive(Clone, Debug)]
pub struct Pr10Cell {
    /// `"active"` (`ρ > 1`) or `"passive"` (`ρ ≤ 1`).
    pub family: &'static str,
    /// Number of utility parts (targets).
    pub m: usize,
    /// Sensor count.
    pub n: usize,
    /// Slots per period.
    pub t_slots: usize,
    /// Lazy greedy on the struct-of-arrays kernels, milliseconds.
    pub soa_ms: f64,
    /// Lazy greedy on the retained per-part enum walk, milliseconds.
    pub partwalk_ms: f64,
    /// Lazy greedy on the dense O(m)-walk oracle, milliseconds; `None` at
    /// the big cell, where the dense arm is prohibitively slow.
    pub dense_ms: Option<f64>,
    /// Mean incidence degree over sensors (`index.n_entries() / n`).
    pub avg_degree: f64,
    /// Whether every measured arm produced the same assignment (they must).
    pub identical: bool,
}

fn time_ms<S>(f: impl FnOnce() -> S) -> (f64, S) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// A random low-degree multi-target detection instance: `m` targets, each
/// covered by [`COVER`] distinct sensors out of `n`. Each part is built as
/// soon as its coverage is drawn, so one n-bit set is alive at a time.
pub fn sparse_instance(n: usize, m: usize, rng: &mut impl Rng) -> SumUtility {
    let parts = (0..m)
        .map(|_| {
            let mut cov = SensorSet::new(n);
            while cov.len() < COVER.min(n) {
                cov.insert(SensorId(rng.random_range(0..n)));
            }
            DetectionUtility::uniform_on(&cov, DETECT_P).into()
        })
        .collect();
    SumUtility::new(parts)
}

/// Measures the full grid. Deterministic per seed; assignments are
/// cross-checked so any sparse/dense divergence shows up as
/// `identical = false` rather than a silently wrong speedup.
pub fn measure(seed: u64) -> Vec<SparseCell> {
    let seeds = SeedSequence::new(seed);
    let mut cells = Vec::with_capacity(2 * SIZES.len());
    for (i, &(m, n)) in SIZES.iter().enumerate() {
        let mut rng = seeds.child(1).nth_rng(i as u64);
        let sparse = sparse_instance(n, m, &mut rng);
        let avg_degree = sparse.incidence().n_entries() as f64 / n as f64;
        let dense = DenseSumUtility::new(sparse.clone());

        let (dense_ms, d) =
            time_ms(|| greedy_active_lazy_with_threads(&dense, T_SLOTS, 1).unwrap());
        let (sparse_ms, s) =
            time_ms(|| greedy_active_lazy_with_threads(&sparse, T_SLOTS, 1).unwrap());
        cells.push(SparseCell {
            family: "active",
            m,
            n,
            t_slots: T_SLOTS,
            dense_ms,
            sparse_ms,
            avg_degree,
            identical: d.assignment() == s.assignment(),
        });

        let (dense_ms, d) =
            time_ms(|| greedy_passive_lazy_with_threads(&dense, T_SLOTS, 1).unwrap());
        let (sparse_ms, s) =
            time_ms(|| greedy_passive_lazy_with_threads(&sparse, T_SLOTS, 1).unwrap());
        cells.push(SparseCell {
            family: "passive",
            m,
            n,
            t_slots: T_SLOTS,
            dense_ms,
            sparse_ms,
            avg_degree,
            identical: d.assignment() == s.assignment(),
        });
    }
    cells
}

/// Measures one PR 10 cell: soa and partwalk arms always, the dense arm
/// only when `with_dense` (small sizes). All measured arms must agree on
/// the assignment — the SoA kernels are bitwise equal to the enum walk,
/// so a mismatch is a correctness bug.
fn measure_pr10_cell(
    family: &'static str,
    m: usize,
    n: usize,
    soa: &SumUtility,
    walk: &PartWalkSumUtility,
    dense: Option<&DenseSumUtility>,
    avg_degree: f64,
) -> Pr10Cell {
    let active = family == "active";
    let run_soa = |u: &SumUtility| {
        if active {
            greedy_active_lazy_with_threads(u, T_SLOTS, 1).unwrap()
        } else {
            greedy_passive_lazy_with_threads(u, T_SLOTS, 1).unwrap()
        }
    };
    let (soa_ms, s) = time_ms(|| run_soa(soa));
    let (partwalk_ms, w) = time_ms(|| {
        if active {
            greedy_active_lazy_with_threads(walk, T_SLOTS, 1).unwrap()
        } else {
            greedy_passive_lazy_with_threads(walk, T_SLOTS, 1).unwrap()
        }
    });
    let mut identical = s.assignment() == w.assignment();
    let dense_ms = dense.map(|du| {
        let (ms, d) = time_ms(|| {
            if active {
                greedy_active_lazy_with_threads(du, T_SLOTS, 1).unwrap()
            } else {
                greedy_passive_lazy_with_threads(du, T_SLOTS, 1).unwrap()
            }
        });
        identical &= d.assignment() == s.assignment();
        ms
    });
    Pr10Cell {
        family,
        m,
        n,
        t_slots: T_SLOTS,
        soa_ms,
        partwalk_ms,
        dense_ms,
        avg_degree,
        identical,
    }
}

/// Measures the PR 10 three-arm grid: every [`SIZES`] cell with all three
/// arms, plus — when [`BIG_CELL_ENV`] is `1` — the n = 10 000 /
/// m = 100 000 cell (active family, soa vs partwalk only).
pub fn measure_pr10(seed: u64) -> Vec<Pr10Cell> {
    let seeds = SeedSequence::new(seed);
    let mut cells = Vec::with_capacity(2 * SIZES.len() + 1);
    for (i, &(m, n)) in SIZES.iter().enumerate() {
        let mut rng = seeds.child(2).nth_rng(i as u64);
        let soa = sparse_instance(n, m, &mut rng);
        let avg_degree = soa.incidence().n_entries() as f64 / n as f64;
        let walk = PartWalkSumUtility::new(soa.clone());
        let dense = DenseSumUtility::new(soa.clone());
        for family in ["active", "passive"] {
            cells.push(measure_pr10_cell(
                family,
                m,
                n,
                &soa,
                &walk,
                Some(&dense),
                avg_degree,
            ));
        }
    }
    if std::env::var(BIG_CELL_ENV).as_deref() == Ok("1") {
        let (m, n) = BIG_CELL;
        let mut rng = seeds.child(2).nth_rng(SIZES.len() as u64);
        let soa = sparse_instance(n, m, &mut rng);
        let avg_degree = soa.incidence().n_entries() as f64 / n as f64;
        let walk = PartWalkSumUtility::new(soa.clone());
        cells.push(measure_pr10_cell(
            "active", m, n, &soa, &walk, None, avg_degree,
        ));
    }
    cells
}

/// Renders the cells as the `BENCH_PR5.json` document (no external JSON
/// dependency; shape is pinned by the unit tests and the CI smoke check).
#[must_use]
pub fn to_json(seed: u64, cells: &[SparseCell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"bench\":\"perf_sparse\",\"seed\":{seed},\"rows\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"family\":\"{}\",\"m\":{},\"n\":{},\"t_slots\":{},\"dense_ms\":{:.3},\"sparse_ms\":{:.3},\"avg_degree\":{:.2},\"identical\":{}}}",
            c.family, c.m, c.n, c.t_slots, c.dense_ms, c.sparse_ms, c.avg_degree, c.identical
        );
    }
    out.push_str("]}\n");
    out
}

/// Renders the PR 10 cells as the `BENCH_PR10.json` document. The dense
/// arm is `null` where it was skipped (the big cell).
#[must_use]
pub fn to_json_pr10(seed: u64, cells: &[Pr10Cell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"bench\":\"perf_sparse_pr10\",\"seed\":{seed},\"rows\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dense = c
            .dense_ms
            .map_or_else(|| "null".to_string(), |ms| format!("{ms:.3}"));
        let _ = write!(
            out,
            "{{\"family\":\"{}\",\"m\":{},\"n\":{},\"t_slots\":{},\"soa_ms\":{:.3},\"partwalk_ms\":{:.3},\"dense_ms\":{},\"avg_degree\":{:.2},\"identical\":{}}}",
            c.family, c.m, c.n, c.t_slots, c.soa_ms, c.partwalk_ms, dense, c.avg_degree, c.identical
        );
    }
    out.push_str("]}\n");
    out
}

/// Runs the benchmark, writes `BENCH_PR5.json` to the working directory,
/// and returns the report.
pub fn run(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("perf_sparse");
    let cells = measure(seed);

    let mut table = Table::new([
        "family",
        "m",
        "n",
        "avg deg",
        "dense ms",
        "sparse ms",
        "speedup",
        "identical",
    ]);
    for c in &cells {
        table.row([
            c.family.to_string(),
            c.m.to_string(),
            c.n.to_string(),
            format!("{:.1}", c.avg_degree),
            format!("{:.1}", c.dense_ms),
            format!("{:.1}", c.sparse_ms),
            format!("{:.1}×", c.dense_ms / c.sparse_ms.max(1e-6)),
            c.identical.to_string(),
        ]);
    }
    report.add_table("wallclock", table);

    let json = to_json(seed, &cells);
    match std::fs::write("BENCH_PR5.json", &json) {
        Ok(()) => {
            report.add_note("wrote BENCH_PR5.json (machine-readable perf baseline)");
        }
        Err(e) => {
            report.add_note(format!("could not write BENCH_PR5.json: {e}"));
        }
    }
    report.add_note(
        "The sparse evaluator is a pure acceleration (identical assignments): \
         marginal gains only visit incident parts, so each query costs \
         O(deg) instead of O(m) and the win grows with the target count.",
    );

    let pr10 = measure_pr10(seed);
    let mut table = Table::new([
        "family",
        "m",
        "n",
        "avg deg",
        "soa ms",
        "partwalk ms",
        "dense ms",
        "soa speedup",
        "identical",
    ]);
    for c in &pr10 {
        table.row([
            c.family.to_string(),
            c.m.to_string(),
            c.n.to_string(),
            format!("{:.1}", c.avg_degree),
            format!("{:.1}", c.soa_ms),
            format!("{:.1}", c.partwalk_ms),
            c.dense_ms
                .map_or_else(|| "—".to_string(), |ms| format!("{ms:.1}")),
            format!("{:.1}×", c.partwalk_ms / c.soa_ms.max(1e-6)),
            c.identical.to_string(),
        ]);
    }
    report.add_table("soa_vs_partwalk", table);

    let json = to_json_pr10(seed, &pr10);
    match std::fs::write("BENCH_PR10.json", &json) {
        Ok(()) => {
            report.add_note("wrote BENCH_PR10.json (SoA kernel perf baseline)");
        }
        Err(e) => {
            report.add_note(format!("could not write BENCH_PR10.json: {e}"));
        }
    }
    if std::env::var(BIG_CELL_ENV).as_deref() != Ok("1") {
        report.add_note(format!(
            "big cell (m = {}, n = {}) skipped; set {}=1 to measure it",
            BIG_CELL.0, BIG_CELL.1, BIG_CELL_ENV
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::json::{self, Value};

    #[test]
    fn json_parses_and_covers_the_grid() {
        // A tiny hand-built cell list: the JSON shape is the contract the
        // CI smoke check scripts against.
        let cells = vec![
            SparseCell {
                family: "active",
                m: 5000,
                n: 800,
                t_slots: 4,
                dense_ms: 100.0,
                sparse_ms: 5.0,
                avg_degree: 37.5,
                identical: true,
            },
            SparseCell {
                family: "passive",
                m: 100,
                n: 200,
                t_slots: 4,
                dense_ms: 1.0,
                sparse_ms: 0.5,
                avg_degree: 3.0,
                identical: true,
            },
        ];
        let doc = json::parse(&to_json(7, &cells)).unwrap();
        assert_eq!(
            doc.get("bench").and_then(Value::as_str),
            Some("perf_sparse")
        );
        assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("m").and_then(Value::as_f64), Some(5000.0));
        assert_eq!(
            rows[0].get("identical").and_then(Value::as_bool),
            Some(true)
        );
    }

    #[test]
    fn pr10_json_parses_and_renders_the_skipped_dense_arm_as_null() {
        let cells = vec![
            Pr10Cell {
                family: "active",
                m: 100_000,
                n: 10_000,
                t_slots: 4,
                soa_ms: 1000.0,
                partwalk_ms: 2500.0,
                dense_ms: None,
                avg_degree: 60.0,
                identical: true,
            },
            Pr10Cell {
                family: "passive",
                m: 5000,
                n: 800,
                t_slots: 4,
                soa_ms: 4.0,
                partwalk_ms: 9.0,
                dense_ms: Some(120.0),
                avg_degree: 37.5,
                identical: true,
            },
        ];
        let doc = json::parse(&to_json_pr10(7, &cells)).unwrap();
        assert_eq!(
            doc.get("bench").and_then(Value::as_str),
            Some("perf_sparse_pr10")
        );
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("dense_ms"), Some(&Value::Null));
        assert_eq!(rows[0].get("soa_ms").and_then(Value::as_f64), Some(1000.0));
        assert_eq!(rows[1].get("dense_ms").and_then(Value::as_f64), Some(120.0));
        assert_eq!(
            rows[0].get("identical").and_then(Value::as_bool),
            Some(true)
        );
    }

    #[test]
    fn small_pr10_measurement_is_identical_across_all_arms() {
        let mut rng = SeedSequence::new(11).child(2).nth_rng(0);
        let soa = sparse_instance(40, 60, &mut rng);
        let walk = PartWalkSumUtility::new(soa.clone());
        let dense = DenseSumUtility::new(soa.clone());
        for family in ["active", "passive"] {
            let cell = measure_pr10_cell(family, 60, 40, &soa, &walk, Some(&dense), 9.0);
            assert!(cell.identical, "{family} arms diverged");
        }
    }

    /// An active greedy solve on the SoA kernels must match the per-part
    /// enum walk assignment-for-assignment (gains are bitwise equal, so the
    /// lazy heap pops in the same order), with a bit-identical period
    /// utility.
    fn assert_soa_matches_part_walk(n: usize, m: usize, stream: u64) {
        let mut rng = SeedSequence::new(23).child(3).nth_rng(stream);
        let soa = sparse_instance(n, m, &mut rng);
        let walk = PartWalkSumUtility::new(soa.clone());
        let s = greedy_active_lazy_with_threads(&soa, T_SLOTS, 1).unwrap();
        let w = greedy_active_lazy_with_threads(&walk, T_SLOTS, 1).unwrap();
        assert_eq!(s.assignment(), w.assignment());
        assert_eq!(
            s.period_utility(&soa).to_bits(),
            w.period_utility(&walk).to_bits()
        );
    }

    /// CI `hard-invariants` smoke of the large regime: 10 000 sensors,
    /// 20 000 targets. `#[ignore]`d — under a second and about 120 MB in
    /// release, run explicitly via `-- --ignored soa_smoke`.
    #[test]
    #[ignore = "large instance; run explicitly (CI hard-invariants job)"]
    fn soa_smoke_10k() {
        assert_soa_matches_part_walk(10_000, 20_000, 0);
    }

    /// CI `hard-invariants` smoke of the [`BIG_CELL`] (10 000 sensors,
    /// 100 000 targets), which fits in a CI runner because parts store only
    /// their support. `#[ignore]`d — a few seconds and about 560 MB in release
    /// (the part walk's per-part evaluators, each with an n-bit member
    /// set, dominate), run explicitly via `-- --ignored soa_smoke`.
    #[test]
    #[ignore = "large instance; run explicitly (CI hard-invariants job)"]
    fn soa_smoke_big() {
        let (m, n) = BIG_CELL;
        assert_soa_matches_part_walk(n, m, 1);
    }

    #[test]
    fn small_measurement_is_identical_across_evaluators() {
        // Measure only a small cell (cheap): sparse and dense greedy runs
        // must agree on the assignment for both families.
        let mut rng = SeedSequence::new(11).child(1).nth_rng(0);
        let sparse = sparse_instance(60, 40, &mut rng);
        let dense = DenseSumUtility::new(sparse.clone());
        let s = greedy_active_lazy_with_threads(&sparse, 4, 1).unwrap();
        let d = greedy_active_lazy_with_threads(&dense, 4, 1).unwrap();
        assert_eq!(s.assignment(), d.assignment());
        let s = greedy_passive_lazy_with_threads(&sparse, 4, 1).unwrap();
        let d = greedy_passive_lazy_with_threads(&dense, 4, 1).unwrap();
        assert_eq!(s.assignment(), d.assignment());
    }
}
