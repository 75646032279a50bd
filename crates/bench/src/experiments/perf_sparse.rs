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
//! The [`BIG_CELL`] (n = 10 000, m = 100 000) is too large for the dense
//! arm's timing; the CI hard-invariants lane replays an SoA greedy solve
//! of that size against the dense walk instead (`soa_smoke_big`), and the
//! `profile_pr10` binary times the SoA solve alone. The checked-in
//! `BENCH_PR10.json` keeps the recorded SoA-vs-part-walk sweep.
//!
//! [`SparseSumEvaluator`]: cool_utility::SparseSumEvaluator

use crate::ExperimentReport;
use cool_common::{SeedSequence, SensorId, SensorSet, Table};
use cool_core::greedy::{greedy_active_lazy, greedy_passive_lazy};
use cool_utility::{DenseSumUtility, DetectionUtility, SumUtility};
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

/// The (m targets, n sensors) of the big cell: the ROADMAP's
/// 10k-sensor / 100k-target regime.
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

        let (dense_ms, d) = time_ms(|| greedy_active_lazy(&dense, T_SLOTS).unwrap());
        let (sparse_ms, s) = time_ms(|| greedy_active_lazy(&sparse, T_SLOTS).unwrap());
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

        let (dense_ms, d) = time_ms(|| greedy_passive_lazy(&dense, T_SLOTS).unwrap());
        let (sparse_ms, s) = time_ms(|| greedy_passive_lazy(&sparse, T_SLOTS).unwrap());
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

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::json::{self, Value};
    use cool_utility::{Evaluator, SparseSumEvaluator, SumEvaluator, UtilityFunction};

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

    /// Replica of the SoA evaluator's running value from its realised
    /// deltas: Kahan-compensated addition, rebuilt from the dense walk's
    /// from-scratch value every `REBUILD_CADENCE` mutations.
    #[derive(Default)]
    struct KahanChain {
        value: f64,
        comp: f64,
        mutations: u32,
    }

    impl KahanChain {
        /// Adds one insert's delta; `dense` holds the set after it.
        fn push(&mut self, delta: f64, dense: &SumEvaluator) {
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

        fn value(&self) -> f64 {
            self.value + self.comp
        }
    }

    /// Every this-many inserts, gain and loss are compared on every
    /// this-many-th sensor (each dense query walks all `m` parts).
    const PROBE_STRIDE: usize = 256;

    /// Gain and loss of every [`PROBE_STRIDE`]-th of `n` sensors, bitwise.
    fn assert_probes_match(fast: &SparseSumEvaluator, dense: &SumEvaluator, n: usize, slot: usize) {
        for v in (0..n).step_by(PROBE_STRIDE).map(SensorId) {
            assert_eq!(
                fast.gain(v).to_bits(),
                dense.gain(v).to_bits(),
                "slot {slot}: gain({v:?})"
            );
            assert_eq!(
                fast.loss(v).to_bits(),
                dense.loss(v).to_bits(),
                "slot {slot}: loss({v:?})"
            );
        }
    }

    /// An active greedy solve on the SoA kernels, replayed slot by slot on
    /// the dense walk: each slot's active set goes, in sensor order, into
    /// a fresh SoA evaluator and a fresh dense one. Every insert delta is
    /// bitwise equal, `value()` is bitwise the Kahan chain over those
    /// deltas, gain and loss are bitwise equal on a [`PROBE_STRIDE`]
    /// stride, and the period utility is within 1e-9 (relative) of the
    /// dense from-scratch sum.
    fn assert_soa_matches_dense_replay(n: usize, m: usize, stream: u64) {
        let mut rng = SeedSequence::new(23).child(3).nth_rng(stream);
        let soa = sparse_instance(n, m, &mut rng);
        let schedule = greedy_active_lazy(&soa, T_SLOTS).unwrap();
        for slot in 0..T_SLOTS {
            let mut fast = soa.evaluator();
            let mut dense = soa.dense_evaluator();
            let mut chain = KahanChain::default();
            let active = (0..n)
                .filter(|&v| schedule.assignment()[v] == slot)
                .map(SensorId);
            for (i, v) in active.enumerate() {
                if i % PROBE_STRIDE == 0 {
                    assert_probes_match(&fast, &dense, n, slot);
                }
                let d = dense.insert(v);
                assert_eq!(
                    fast.insert(v).to_bits(),
                    d.to_bits(),
                    "slot {slot}: insert({v:?})"
                );
                chain.push(d, &dense);
                assert_eq!(
                    fast.value().to_bits(),
                    chain.value().to_bits(),
                    "slot {slot}: value after insert({v:?})"
                );
            }
            assert_probes_match(&fast, &dense, n, slot);
        }
        let fast = schedule.period_utility(&soa);
        let dense = schedule.period_utility(&DenseSumUtility::new(soa.clone()));
        assert!(
            (fast - dense).abs() <= 1e-9 * dense.abs(),
            "period utility {fast} vs dense {dense}"
        );
    }

    /// CI `hard-invariants` smoke of the large regime: 10 000 sensors,
    /// 20 000 targets. `#[ignore]`d — a few seconds and tens of MB in
    /// release, run explicitly via `-- --ignored soa_smoke`.
    #[test]
    #[ignore = "large instance; run explicitly (CI hard-invariants job)"]
    fn soa_smoke_10k() {
        assert_soa_matches_dense_replay(10_000, 20_000, 0);
    }

    /// CI `hard-invariants` smoke of the [`BIG_CELL`] (10 000 sensors,
    /// 100 000 targets). `#[ignore]`d — half a minute or more and under
    /// 200 MB in release (one dense evaluator at a time, each part with an
    /// n-bit member set), run explicitly via `-- --ignored soa_smoke`.
    #[test]
    #[ignore = "large instance; run explicitly (CI hard-invariants job)"]
    fn soa_smoke_big() {
        let (m, n) = BIG_CELL;
        assert_soa_matches_dense_replay(n, m, 1);
    }

    #[test]
    fn small_measurement_is_identical_across_evaluators() {
        // Measure only a small cell (cheap): sparse and dense greedy runs
        // must agree on the assignment for both families.
        let mut rng = SeedSequence::new(11).child(1).nth_rng(0);
        let sparse = sparse_instance(60, 40, &mut rng);
        let dense = DenseSumUtility::new(sparse.clone());
        let s = greedy_active_lazy(&sparse, 4).unwrap();
        let d = greedy_active_lazy(&dense, 4).unwrap();
        assert_eq!(s.assignment(), d.assignment());
        let s = greedy_passive_lazy(&sparse, 4).unwrap();
        let d = greedy_passive_lazy(&dense, 4).unwrap();
        assert_eq!(s.assignment(), d.assignment());
    }
}
