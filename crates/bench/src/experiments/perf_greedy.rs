//! Wall-clock comparison of the greedy implementations: naive loop vs
//! lazy (CELF), for both the active (`ρ > 1`) and passive (`ρ ≤ 1`)
//! allocation families.
//!
//! Besides the usual report table, `run` emits `BENCH_PR3.json` in the
//! working directory — the machine-readable perf baseline the CI
//! `bench-smoke` job checks (lazy must not be slower than naive at the
//! largest size).

use crate::ExperimentReport;
use cool_common::{SeedSequence, Table};
use cool_core::greedy::{
    greedy_active_lazy, greedy_active_naive, greedy_passive_lazy, greedy_passive_naive,
};
use cool_core::instances::fig9_instance;
use std::time::Instant;

/// The (n, T) grid the benchmark sweeps.
pub const SIZES: [(usize, usize); 6] =
    [(50, 4), (50, 16), (200, 4), (200, 16), (800, 4), (800, 16)];

/// One measured (family, n, T) cell.
#[derive(Clone, Debug)]
pub struct PerfCell {
    /// `"active"` (`ρ > 1`) or `"passive"` (`ρ ≤ 1`).
    pub family: &'static str,
    /// Sensor count.
    pub n: usize,
    /// Slots per period.
    pub t_slots: usize,
    /// Naive O(n²·T) loop, milliseconds.
    pub naive_ms: f64,
    /// Lazy heap, milliseconds.
    pub lazy_ms: f64,
    /// Whether both produced the same assignment (they must).
    pub identical: bool,
}

fn time_ms<S>(f: impl FnOnce() -> S) -> (f64, S) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Measures the full grid. Deterministic per seed; assignments are
/// cross-checked so a tie-break or staleness regression shows up as
/// `identical = false` rather than a silently wrong speedup.
pub fn measure(seed: u64) -> Vec<PerfCell> {
    let seeds = SeedSequence::new(seed);
    let mut cells = Vec::with_capacity(2 * SIZES.len());
    for (i, &(n, t_slots)) in SIZES.iter().enumerate() {
        let mut rng = seeds.child(1).nth_rng(i as u64);
        let u = fig9_instance(n, (n / 10).max(1), &mut rng);

        let (naive_ms, naive) = time_ms(|| greedy_active_naive(&u, t_slots).unwrap());
        let (lazy_ms, lazy) = time_ms(|| greedy_active_lazy(&u, t_slots).unwrap());
        cells.push(PerfCell {
            family: "active",
            n,
            t_slots,
            naive_ms,
            lazy_ms,
            identical: naive.assignment() == lazy.assignment(),
        });

        let (naive_ms, naive) = time_ms(|| greedy_passive_naive(&u, t_slots).unwrap());
        let (lazy_ms, lazy) = time_ms(|| greedy_passive_lazy(&u, t_slots).unwrap());
        cells.push(PerfCell {
            family: "passive",
            n,
            t_slots,
            naive_ms,
            lazy_ms,
            identical: naive.assignment() == lazy.assignment(),
        });
    }
    cells
}

/// Renders the cells as the `BENCH_PR3.json` document (no external JSON
/// dependency; shape is pinned by the unit tests and the CI smoke check).
#[must_use]
pub fn to_json(seed: u64, cells: &[PerfCell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"bench\":\"perf_greedy\",\"seed\":{seed},\"rows\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"family\":\"{}\",\"n\":{},\"t_slots\":{},\"naive_ms\":{:.3},\"lazy_ms\":{:.3},\"identical\":{}}}",
            c.family, c.n, c.t_slots, c.naive_ms, c.lazy_ms, c.identical
        );
    }
    out.push_str("]}\n");
    out
}

/// Runs the benchmark, writes `BENCH_PR3.json` to the working directory,
/// and returns the report.
pub fn run(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("perf_greedy");
    let cells = measure(seed);

    let mut table = Table::new([
        "family",
        "n",
        "T",
        "naive ms",
        "lazy ms",
        "lazy speedup",
        "identical",
    ]);
    for c in &cells {
        table.row([
            c.family.to_string(),
            c.n.to_string(),
            c.t_slots.to_string(),
            format!("{:.1}", c.naive_ms),
            format!("{:.1}", c.lazy_ms),
            format!("{:.1}×", c.naive_ms / c.lazy_ms.max(1e-6)),
            c.identical.to_string(),
        ]);
    }
    report.add_table("wallclock", table);

    let json = to_json(seed, &cells);
    match std::fs::write("BENCH_PR3.json", &json) {
        Ok(()) => {
            report.add_note("wrote BENCH_PR3.json (machine-readable perf baseline)");
        }
        Err(e) => {
            report.add_note(format!("could not write BENCH_PR3.json: {e}"));
        }
    }
    report.add_note("Lazy evaluation is a pure acceleration (identical assignments).");
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
            PerfCell {
                family: "active",
                n: 800,
                t_slots: 16,
                naive_ms: 100.0,
                lazy_ms: 10.0,
                identical: true,
            },
            PerfCell {
                family: "passive",
                n: 50,
                t_slots: 4,
                naive_ms: 1.0,
                lazy_ms: 0.5,
                identical: true,
            },
        ];
        let doc = json::parse(&to_json(7, &cells)).unwrap();
        assert_eq!(
            doc.get("bench").and_then(Value::as_str),
            Some("perf_greedy")
        );
        assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("n").and_then(Value::as_f64), Some(800.0));
        assert_eq!(
            rows[0].get("identical").and_then(Value::as_bool),
            Some(true)
        );
    }

    #[test]
    fn small_measurement_is_identical_across_variants() {
        // Measure only the smallest grid cell shape (cheap): every variant
        // must agree on the assignment.
        let seeds = SeedSequence::new(11);
        let mut rng = seeds.child(1).nth_rng(0);
        let u = fig9_instance(50, 5, &mut rng);
        let naive = greedy_active_naive(&u, 4).unwrap();
        let lazy = greedy_active_lazy(&u, 4).unwrap();
        assert_eq!(naive.assignment(), lazy.assignment());
        let pnaive = greedy_passive_naive(&u, 4).unwrap();
        let plazy = greedy_passive_lazy(&u, 4).unwrap();
        assert_eq!(pnaive.assignment(), plazy.assignment());
    }
}
