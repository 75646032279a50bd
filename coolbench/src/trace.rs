//! In-memory spans for the traced replay: name, start, end, parent and
//! request id, recorded around calls into each layer's public functions
//! and written out when the run ends.

use crate::report::{median, Report};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Span name of one replayed request; its duration is the request's
/// service time.
pub const OP: &str = "op";
/// Span name of the side measurements a replay takes after a request
/// (not part of the request's service time).
pub const PROBE: &str = "probe";

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, runs the wrapped calls untouched so
/// the replay's cost without tracing can be measured.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `request`; spans opened by
    /// `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut totals = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(children);
        }
        totals
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// Replays `ops` requests twice, interleaved request by request — once
/// untraced on `off`, once into `tracer` on `on` — alternating which side
/// goes first, so drift on a shared machine falls on both sides alike.
/// Returns each request's untraced and traced replay seconds.
pub fn paired<S>(
    ops: usize,
    tracer: &mut Tracer,
    off: &mut S,
    on: &mut S,
    mut step: impl FnMut(usize, &mut S, &mut Tracer) -> Result<(), String>,
) -> Result<Vec<(f64, f64)>, String> {
    let mut untraced = Tracer::new(false);
    let mut seconds = Vec::with_capacity(ops);
    for req in 0..ops {
        let (mut off_s, mut on_s) = (0.0, 0.0);
        for traced in [req % 2 == 1, req % 2 == 0] {
            let started = Instant::now();
            if traced {
                step(req, on, tracer)?;
                on_s = started.elapsed().as_secs_f64();
            } else {
                step(req, off, &mut untraced)?;
                off_s = started.elapsed().as_secs_f64();
            }
        }
        seconds.push((off_s, on_s));
    }
    Ok(seconds)
}

/// `bench.trace_overhead_pct`: the median over requests of the traced
/// replay's time over the untraced one's.
pub fn report_overhead(report: &mut Report, seconds: &[(f64, f64)]) {
    let ratios: Vec<f64> = seconds
        .iter()
        .map(|(off, on)| (on / off - 1.0) * 100.0)
        .collect();
    let (off, on) = seconds
        .iter()
        .fold((0.0, 0.0), |(a, b), (off, on)| (a + off, b + on));
    report.set(
        "bench.trace_overhead_pct",
        median(&ratios),
        format!(
            "median of {} paired requests; {on:.3} s traced vs {off:.3} s untraced",
            seconds.len()
        ),
    );
}

/// Per-layer metrics from a traced replay of `ops` requests.
pub fn report_replay(report: &mut Report, t: &Tracer, seconds: &[(f64, f64)]) {
    let ops = seconds.len();
    let self_ns = t.self_ns();
    let per_op = |name: &str, scale: f64| {
        self_ns.get(name).copied().unwrap_or(0) as f64 / scale / ops.max(1) as f64
    };
    let note = format!("traced replay, {ops} requests");
    report.set("lint.preflight_ms", per_op("lint.preflight", 1e6), &note);
    report.set("serve.parse_us", per_op("serve.parse", 1e3), &note);
    report.set(
        "serve.cache_lookup_us",
        per_op("serve.cache_lookup", 1e3),
        &note,
    );
    report.set("serve.compute_ms", per_op("serve.compute", 1e6), &note);
    report.set("serve.render_us", per_op("serve.render", 1e3), &note);
    report.set("session.patch_ms", per_op("session.patch", 1e6), &note);
    for (metric, span) in [
        ("scenario.build_ms", "scenario.build"),
        ("core.solve_ms", "core.solve"),
    ] {
        let d = t.durations_ms(span);
        let mean = if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        };
        report.set(metric, mean, format!("mean of {} calls", d.len()));
    }
    let service = t.durations_ms(OP);
    let mean = service.iter().sum::<f64>() / service.len().max(1) as f64;
    let cpu = report.value("cpu_ms_per_op");
    report.set(
        "serve.unaccounted_cpu_ms",
        cpu - mean,
        format!("cpu_ms_per_op {cpu:.4} − replay span total {mean:.4} per request"),
    );
    let p50 = report.value("p50_ms");
    let service_p50 = median(&service);
    report.set(
        "serve.transport_ms",
        p50 - service_p50,
        format!("p50_ms {p50:.4} − replay p50 service {service_p50:.4}"),
    );
    report_overhead(report, seconds);
}
