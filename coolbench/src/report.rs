//! Metric names and units, and the two output forms: the JSON result line
//! and the human-readable table with sample counts.

use crate::{Args, Workload};
use cool_common::stats::percentile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, exactly as `BENCHMARK.json` lists them.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Most slices a timed window is cut into.
const MAX_SLICES: usize = 10;

/// Printed with `--trace 0`; every workload reports every one of these.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s"),
    def("ops_per_s", "1/s"),
    def("p50_ms", "ms"),
    def("cpu_ms_per_op", "ms"),
    def("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`. A layer that does not run on a workload
/// reports 0 there.
pub const PER_LAYER: [Def; 22] = [
    def("lint.preflight_ms", "ms"),
    def("serve.unaccounted_cpu_ms", "ms"),
    def("serve.parse_us", "us"),
    def("serve.cache_lookup_us", "us"),
    def("serve.compute_ms", "ms"),
    def("serve.render_us", "us"),
    def("serve.transport_ms", "ms"),
    def("serve.keepalive_reuse_ratio", "ratio"),
    def("serve.cache_hit_ratio", "ratio"),
    def("serve.cache_evictions", "count"),
    def("serve.shed_429", "count"),
    def("serve.timeout_408", "count"),
    def("scenario.build_ms", "ms"),
    def("core.solve_ms", "ms"),
    def("utility.gain_queries_per_op", "count"),
    def("utility.parts_per_query", "count"),
    def("session.patch_ms", "ms"),
    def("session.cells_per_patch", "count"),
    def("session.full_repair_share", "ratio"),
    def("bench.client_cpu_ms_per_op", "ms"),
    def("bench.trace_overhead_pct", "%"),
    def("bench.error_share", "ratio"),
];

/// One workload run's outcome.
#[derive(Default)]
pub struct Report {
    /// Timed operations sent.
    pub attempted: u64,
    /// Timed operations that failed: transport error, non-2xx, or an
    /// output that failed its correctness check.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Checks and validity gates that held, for the table.
    passed: Vec<String>,
    /// Checks and validity gates that broke; any makes the run invalid.
    problems: Vec<String>,
}

impl Report {
    /// Records a metric value with a note on how it was sampled.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        if value.is_finite() {
            self.values.insert(name, value);
        } else {
            self.problems
                .push(format!("{name} is not finite ({value})"));
            self.values.insert(name, 0.0);
        }
        self.notes.insert(name, note.into());
    }

    /// Records a correctness check or validity gate.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if ok {
            self.passed.push(what.into());
        } else {
            self.problems.push(what.into());
        }
    }

    /// Records `ops_per_s` and the median latency of the timed window
    /// from its successful operations, given as (send time in seconds,
    /// latency in ms); the 95th and 99th percentiles go into the median's
    /// note.
    ///
    /// Each figure is a median over equal time slices of the window, so a
    /// burst of interference on a shared machine moves only the slices it
    /// falls in. `ops_per_s` uses `MAX_SLICES` slices; a percentile uses
    /// as many (at most `MAX_SLICES`) as leave every slice ten samples
    /// beyond it on average, down to one slice — the plain pooled
    /// percentile. The tails are shown, not gated: their run-to-run spread
    /// on a shared machine is wider than any bound a regression check can
    /// use.
    pub fn timed_ops(&mut self, ops: &[(f64, f64)], window_s: f64) {
        let slice = |n: usize| {
            let width = window_s / n as f64;
            let mut cut: Vec<Vec<f64>> = vec![Vec::new(); n];
            for &(sent_s, latency_ms) in ops {
                cut[((sent_s / width) as usize).min(n - 1)].push(latency_ms);
            }
            cut.retain(|c| !c.is_empty());
            for c in &mut cut {
                c.sort_by(f64::total_cmp);
            }
            (width, cut)
        };
        let (width, cut) = slice(MAX_SLICES);
        let rates: Vec<f64> = cut.iter().map(|c| c.len() as f64 / width).collect();
        self.set(
            "ops_per_s",
            median(&rates),
            format!(
                "median of {MAX_SLICES} slices of {width:.2} s; {} ops",
                ops.len()
            ),
        );
        let tail = |q: f64| {
            let n = ((ops.len() as f64 * (1.0 - q) / 10.0) as usize).clamp(1, MAX_SLICES);
            let (_, cut) = slice(n);
            let per_slice: Vec<f64> = cut.iter().map(|c| percentile(c, q)).collect();
            let beyond: usize = cut
                .iter()
                .zip(&per_slice)
                .map(|(c, v)| c.iter().filter(|&&x| x > *v).count())
                .sum();
            (median(&per_slice), n, beyond)
        };
        let (p50, n, beyond) = tail(0.50);
        let mut note = format!(
            "median of {n} slices; {} samples, {beyond} beyond",
            ops.len()
        );
        for (label, q) in [("p95", 0.95), ("p99", 0.99)] {
            let (value, n, beyond) = tail(q);
            let _ = write!(
                note,
                "; {label} {value:.4} ms ({n} slices, {beyond} beyond)"
            );
        }
        self.set("p50_ms", p50, note);
    }

    /// A recorded metric's value (NaN when not recorded).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// `correct`: every check and gate held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: end-to-end metrics, or per-layer ones when traced.
    pub fn json(&self, traced: bool) -> String {
        let defs: &[Def] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let value = self.values.get(d.name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table with units and sample counts.
    pub fn table(&self, workload: Workload, args: &Args) -> String {
        let mut out = format!(
            "coolbench {} · seed {} · {} s window · trace {}\n  attempted {}, failed {}\n",
            workload.name(),
            args.seed,
            args.seconds,
            if args.trace { "on" } else { "off" },
            self.attempted,
            self.failed,
        );
        for (title, defs) in [
            ("end-to-end", &END_TO_END[..]),
            ("per-layer", &PER_LAYER[..]),
        ] {
            let _ = writeln!(out, "  {title}");
            for d in defs {
                let Some(value) = self.values.get(d.name) else {
                    continue;
                };
                let note = self.notes.get(d.name).map_or("", String::as_str);
                let _ = writeln!(out, "    {:<29} {value:>14.4} {:<6} {note}", d.name, d.unit);
            }
        }
        for ok in &self.passed {
            let _ = writeln!(out, "  ok       {ok}");
        }
        for bad in &self.problems {
            let _ = writeln!(out, "  INVALID  {bad}");
        }
        out
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}
