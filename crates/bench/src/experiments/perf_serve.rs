//! Serving-layer throughput and latency of the daemon: the `poll(2)`
//! event loop with HTTP keep-alive and sharded caches and queues.
//!
//! Each cell boots a real daemon on an ephemeral port and drives it with
//! the deterministic closed-loop `cool loadgen` engine at a fixed
//! concurrency, one keep-alive connection per worker for the whole cell.
//!
//! Besides the report table, `run` emits `BENCH_PR8.json` in the working
//! directory — the machine-readable rows the CI bench-smoke job checks
//! (transport errors per row, and the light-load median). The checked-in
//! copy of that file also records the comparison against the retired
//! thread-per-connection transport.

use crate::ExperimentReport;
use cool_common::Table;
use cool_serve::{run_loadgen, LoadgenConfig, Server, ServerConfig};

/// Client concurrency levels the benchmark sweeps.
pub const CONCURRENCY: [usize; 3] = [1, 8, 32];

/// Worker threads per daemon.
const THREADS: usize = 4;

/// Cache, session and queue shards per daemon.
const SHARDS: usize = 4;

/// One measured concurrency cell.
#[derive(Clone, Debug)]
pub struct ServeCell {
    /// Concurrent loadgen workers.
    pub concurrency: usize,
    /// Requests completed in the cell.
    pub requests: u64,
    /// Transport errors (0 on a healthy daemon).
    pub errors: u64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, milliseconds.
    pub p999_ms: f64,
}

/// Boots a daemon, drives one closed-loop loadgen cell against it, shuts
/// it down, and returns the cell.
fn measure_cell(concurrency: usize, seed: u64, cell_ms: u64) -> ServeCell {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: THREADS,
        shards: SHARDS,
        queue_cap: 1024,
        cache_cap: 64,
        timeout_ms: 30_000,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());

    let report = run_loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        duration_ms: cell_ms,
        concurrency,
        distinct: 8,
        seed,
        shutdown_after: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen cell completes");
    handle
        .join()
        .expect("server thread exits")
        .expect("server loop clean");

    ServeCell {
        concurrency,
        requests: report.requests,
        errors: report.errors,
        throughput_rps: report.throughput_rps,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        p999_ms: report.p999_ms,
    }
}

/// Measures every [`CONCURRENCY`] level, `cell_ms` of traffic per cell.
/// Deterministic request streams per seed (wall-clock counts are
/// machine-dependent, as with every perf experiment).
pub fn measure(seed: u64, cell_ms: u64) -> Vec<ServeCell> {
    CONCURRENCY
        .iter()
        .map(|&concurrency| measure_cell(concurrency, seed, cell_ms))
        .collect()
}

/// Renders the cells as the `BENCH_PR8.json` document (no external JSON
/// dependency; shape is pinned by the unit tests and the CI smoke check).
#[must_use]
pub fn to_json(seed: u64, cells: &[ServeCell]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"bench\":\"perf_serve\",\"seed\":{seed},\"rows\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"concurrency\":{},\"requests\":{},\"errors\":{},\
             \"throughput_rps\":{:.3},\"p50_ms\":{:.6},\"p99_ms\":{:.6},\"p999_ms\":{:.6}}}",
            c.concurrency, c.requests, c.errors, c.throughput_rps, c.p50_ms, c.p99_ms, c.p999_ms
        );
    }
    out.push_str("]}\n");
    out
}

/// Runs the benchmark, writes `BENCH_PR8.json` to the working directory,
/// and returns the report.
pub fn run(seed: u64) -> ExperimentReport {
    let mut report = ExperimentReport::new("perf_serve");
    let cells = measure(seed, 1_000);

    let mut table = Table::new([
        "concurrency",
        "requests",
        "errors",
        "req/s",
        "p50 ms",
        "p99 ms",
        "p999 ms",
    ]);
    for c in &cells {
        table.row([
            c.concurrency.to_string(),
            c.requests.to_string(),
            c.errors.to_string(),
            format!("{:.0}", c.throughput_rps),
            format!("{:.3}", c.p50_ms),
            format!("{:.3}", c.p99_ms),
            format!("{:.3}", c.p999_ms),
        ]);
    }
    report.add_table("event loop", table);

    let json = to_json(seed, &cells);
    match std::fs::write("BENCH_PR8.json", &json) {
        Ok(()) => {
            report.add_note("wrote BENCH_PR8.json (machine-readable serving baseline)");
        }
        Err(e) => {
            report.add_note(format!("could not write BENCH_PR8.json: {e}"));
        }
    }
    report.add_note(
        "Keep-alive amortizes the TCP handshake over a worker's whole cell, \
         and sharded caches/queues let concurrent requests for different \
         content addresses proceed without contending on one lock.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::json::{self, Value};

    #[test]
    fn json_parses_and_pins_the_row_shape() {
        let cells = vec![ServeCell {
            concurrency: 8,
            requests: 1200,
            errors: 0,
            throughput_rps: 2400.0,
            p50_ms: 0.8,
            p99_ms: 4.5,
            p999_ms: 9.0,
        }];
        let doc = json::parse(&to_json(7, &cells)).unwrap();
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some("perf_serve"));
        assert_eq!(doc.get("seed").and_then(Value::as_f64), Some(7.0));
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("concurrency").and_then(Value::as_f64),
            Some(8.0)
        );
        assert_eq!(rows[0].get("errors").and_then(Value::as_f64), Some(0.0));
        assert_eq!(rows[0].get("p99_ms").and_then(Value::as_f64), Some(4.5));
    }

    #[test]
    fn event_cell_serves_cleanly_with_low_p50_under_light_load() {
        // Regression for the 5 ms accept-poll sleep the event loop
        // replaced: a single closed-loop client against an idle daemon
        // must see a median far below the old polling granularity stack-up
        // (loose bound — debug build, shared CI hardware).
        let cell = measure_cell(1, 11, 250);
        assert_eq!(cell.errors, 0, "{cell:?}");
        assert!(cell.requests > 0, "{cell:?}");
        assert!(cell.p50_ms < 50.0, "light-load p50 too high: {cell:?}");
    }
}
