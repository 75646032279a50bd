//! The daemon's metric surface, rendered on `GET /metrics` in Prometheus
//! text exposition format.
//!
//! Every series is prefixed `cool_` and built from the shared primitives
//! in [`cool_common::metrics`]; scrape-side dashboards get request counts
//! by endpoint/status, a latency histogram, cache hit/miss/eviction
//! counters, live queue/in-flight gauges, and the event loop's
//! connection, keep-alive and per-shard series.

use cool_common::metrics::{Counter, CounterVec, Gauge, Histogram};
use std::fmt::Write as _;
use std::time::Instant;

/// All metrics the service exports.
#[derive(Debug)]
pub struct ServeMetrics {
    /// `cool_requests_total{endpoint=...,status=...}`.
    pub requests: CounterVec,
    /// `cool_request_seconds` — request latency, cache lookup included:
    /// from the completed parse to the response.
    pub latency: Histogram,
    /// `cool_cache_hits_total`.
    pub cache_hits: Counter,
    /// `cool_cache_misses_total`.
    pub cache_misses: Counter,
    /// `cool_preflights_total` — lint pre-flights run past the text stage
    /// (the instance stage, with the `audit` bundle when requested): one
    /// per cache miss or instance-stage rejection, none per hit.
    pub preflights: Counter,
    /// `cool_cache_evictions_total`.
    pub cache_evictions: Counter,
    /// `cool_cache_entries` — current cache population.
    pub cache_entries: Gauge,
    /// `cool_queue_depth` — jobs accepted but not yet picked up.
    pub queue_depth: Gauge,
    /// `cool_inflight_requests` — jobs a worker is currently executing.
    pub in_flight: Gauge,
    /// `cool_queue_rejections_total` — requests shed with 429.
    pub queue_rejections: Counter,
    /// `cool_request_timeouts_total` — requests abandoned with 408.
    pub timeouts: Counter,
    /// `cool_sessions_active` — live sessions in the session store.
    pub sessions_active: Gauge,
    /// `cool_session_repairs_total{mode="incremental|full"}`.
    pub session_repairs: CounterVec,
    /// `cool_session_cells_touched_total` — (sensor, slot) cells the
    /// warm-start repairs re-evaluated.
    pub session_cells_touched: Counter,
    /// `cool_session_repair_seconds` — patch-to-repaired latency.
    pub session_repair_seconds: Histogram,
    /// `cool_connections_total` — TCP connections accepted.
    pub connections: Counter,
    /// `cool_keepalive_reuses_total` — requests served on an
    /// already-established keep-alive connection (second and later).
    pub keepalive_reuses: Counter,
    /// `cool_shard_queue_depth{shard=...}` — queued jobs per worker shard.
    pub shard_queue_depth: Vec<Gauge>,
    /// `cool_shard_cache_entries{shard=...}` — entries per cache shard.
    pub shard_cache_entries: Vec<Gauge>,
    started: Instant,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// A fresh registry with one shard; uptime counts from now.
    #[must_use]
    pub fn new() -> Self {
        ServeMetrics::with_shards(1, 1)
    }

    /// A fresh registry sized for `worker_shards` queue gauges and
    /// `cache_shards` cache gauges.
    #[must_use]
    pub fn with_shards(worker_shards: usize, cache_shards: usize) -> Self {
        ServeMetrics {
            requests: CounterVec::new(),
            latency: Histogram::latency_seconds(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            preflights: Counter::new(),
            cache_evictions: Counter::new(),
            cache_entries: Gauge::new(),
            queue_depth: Gauge::new(),
            in_flight: Gauge::new(),
            queue_rejections: Counter::new(),
            timeouts: Counter::new(),
            sessions_active: Gauge::new(),
            session_repairs: CounterVec::new(),
            session_cells_touched: Counter::new(),
            session_repair_seconds: Histogram::latency_seconds(),
            connections: Counter::new(),
            keepalive_reuses: Counter::new(),
            shard_queue_depth: (0..worker_shards.max(1)).map(|_| Gauge::new()).collect(),
            shard_cache_entries: (0..cache_shards.max(1)).map(|_| Gauge::new()).collect(),
            started: Instant::now(),
        }
    }

    /// Renders a labeled per-shard gauge family in the same exposition
    /// format the shared primitives emit.
    fn render_shard_gauges(out: &mut String, name: &str, help: &str, shards: &[Gauge]) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for (shard, gauge) in shards.iter().enumerate() {
            let _ = writeln!(out, "{name}{{shard=\"{shard}\"}} {}", gauge.get());
        }
    }

    /// Records one session repair (shared by PUT scratch solves and
    /// PATCH warm starts).
    pub fn observe_repair(&self, mode: &str, cells_touched: u64, seconds: f64) {
        self.session_repairs.inc(&format!("mode=\"{mode}\""));
        self.session_cells_touched.add(cells_touched);
        self.session_repair_seconds.observe(seconds);
    }

    /// Records one finished request.
    pub fn observe_request(&self, endpoint: &str, status: u16, seconds: f64) {
        self.requests
            .inc(&format!("endpoint=\"{endpoint}\",status=\"{status}\""));
        self.latency.observe(seconds);
    }

    /// The full Prometheus text page.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        self.requests.render(
            &mut out,
            "cool_requests_total",
            "Requests served, by endpoint and HTTP status.",
        );
        self.latency.render(
            &mut out,
            "cool_request_seconds",
            "Wall-clock seconds from the parsed request to its response, cache lookup included.",
        );
        self.cache_hits.render(
            &mut out,
            "cool_cache_hits_total",
            "Schedule requests answered from the LRU cache.",
        );
        self.cache_misses.render(
            &mut out,
            "cool_cache_misses_total",
            "Schedule requests computed cold.",
        );
        self.preflights.render(
            &mut out,
            "cool_preflights_total",
            "Lint pre-flights run past the text stage: one per cache miss, none per hit.",
        );
        self.cache_evictions.render(
            &mut out,
            "cool_cache_evictions_total",
            "Cache entries evicted by the LRU policy.",
        );
        self.cache_entries.render(
            &mut out,
            "cool_cache_entries",
            "Entries currently held by the schedule cache.",
        );
        self.queue_depth.render(
            &mut out,
            "cool_queue_depth",
            "Accepted connections waiting for a worker.",
        );
        self.in_flight.render(
            &mut out,
            "cool_inflight_requests",
            "Requests currently being executed by workers.",
        );
        self.queue_rejections.render(
            &mut out,
            "cool_queue_rejections_total",
            "Connections shed with HTTP 429 because the queue was full.",
        );
        self.timeouts.render(
            &mut out,
            "cool_request_timeouts_total",
            "Requests abandoned with HTTP 408 after the wall-clock budget.",
        );
        self.connections.render(
            &mut out,
            "cool_connections_total",
            "TCP connections accepted by the daemon.",
        );
        self.keepalive_reuses.render(
            &mut out,
            "cool_keepalive_reuses_total",
            "Requests served on an already-established keep-alive connection.",
        );
        Self::render_shard_gauges(
            &mut out,
            "cool_shard_queue_depth",
            "Queued jobs per worker shard.",
            &self.shard_queue_depth,
        );
        Self::render_shard_gauges(
            &mut out,
            "cool_shard_cache_entries",
            "Schedule-cache entries per cache shard.",
            &self.shard_cache_entries,
        );
        self.sessions_active.render(
            &mut out,
            "cool_sessions_active",
            "Live sessions currently held by the session store.",
        );
        self.session_repairs.render(
            &mut out,
            "cool_session_repairs_total",
            "Session schedule repairs, by mode (incremental warm start vs full re-solve).",
        );
        self.session_cells_touched.render(
            &mut out,
            "cool_session_cells_touched_total",
            "(sensor, slot) cells re-evaluated by session repairs.",
        );
        self.session_repair_seconds.render(
            &mut out,
            "cool_session_repair_seconds",
            "Wall-clock seconds spent repairing session schedules.",
        );
        // Sparse-evaluation observability: process-wide totals maintained by
        // cool-utility's SparseSumEvaluator. parts_touched / gain_queries is
        // the realised average degree — compare against the target count to
        // see the O(deg) win over the dense O(m) walk.
        let stats = cool_utility::stats::snapshot();
        let gain_queries = Counter::new();
        gain_queries.add(stats.gain_queries);
        gain_queries.render(
            &mut out,
            "cool_gain_queries_total",
            "Marginal gain/loss queries answered by sparse sum evaluators.",
        );
        // Per-family attribution from the SoA kernels (a mixed-family query
        // counts once per family it reached, so the labeled series can sum
        // to more than the bare total). All six labels are always emitted so
        // scrapes see a stable series set.
        for (i, label) in cool_utility::stats::FAMILY_LABELS.iter().enumerate() {
            let _ = writeln!(
                out,
                "cool_gain_queries_total{{family=\"{label}\"}} {}",
                stats.family_queries[i]
            );
        }
        let parts_touched = Counter::new();
        parts_touched.add(stats.parts_touched);
        parts_touched.render(
            &mut out,
            "cool_parts_touched_total",
            "Incident utility parts visited by those gain/loss queries.",
        );
        let uptime = Gauge::new();
        uptime.set(i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX));
        uptime.render(
            &mut out,
            "cool_uptime_seconds",
            "Seconds since the daemon started.",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_contains_every_family() {
        let m = ServeMetrics::new();
        m.observe_request("schedule", 200, 0.012);
        m.observe_request("schedule", 422, 0.001);
        m.cache_hits.inc();
        m.cache_misses.inc();
        m.queue_depth.set(3);
        m.sessions_active.set(2);
        m.observe_repair("incremental", 12, 0.004);
        m.observe_repair("full", 40, 0.009);
        let page = m.render();
        for series in [
            "cool_requests_total{endpoint=\"schedule\",status=\"200\"} 1",
            "cool_requests_total{endpoint=\"schedule\",status=\"422\"} 1",
            "cool_request_seconds_bucket",
            "cool_request_seconds_count 2",
            "cool_cache_hits_total 1",
            "cool_cache_misses_total 1",
            "cool_preflights_total 0",
            "cool_cache_evictions_total 0",
            "cool_queue_depth 3",
            "cool_inflight_requests 0",
            "cool_queue_rejections_total 0",
            "cool_request_timeouts_total 0",
            "cool_sessions_active 2",
            "cool_session_repairs_total{mode=\"incremental\"} 1",
            "cool_session_repairs_total{mode=\"full\"} 1",
            "cool_session_cells_touched_total 52",
            "cool_session_repair_seconds_count 2",
            "cool_connections_total 0",
            "cool_keepalive_reuses_total 0",
            "cool_shard_queue_depth{shard=\"0\"} 0",
            "cool_shard_cache_entries{shard=\"0\"} 0",
            "cool_gain_queries_total",
            "cool_gain_queries_total{family=\"detection\"}",
            "cool_gain_queries_total{family=\"logsum\"}",
            "cool_gain_queries_total{family=\"linear\"}",
            "cool_gain_queries_total{family=\"coverage\"}",
            "cool_gain_queries_total{family=\"facility\"}",
            "cool_gain_queries_total{family=\"kcover\"}",
            "cool_parts_touched_total",
            "cool_uptime_seconds",
        ] {
            assert!(page.contains(series), "missing `{series}` in:\n{page}");
        }
    }

    #[test]
    fn shard_gauges_render_one_series_per_shard() {
        let m = ServeMetrics::with_shards(2, 3);
        m.shard_queue_depth[1].set(4);
        m.shard_cache_entries[2].set(9);
        let page = m.render();
        assert!(
            page.contains("cool_shard_queue_depth{shard=\"0\"} 0"),
            "{page}"
        );
        assert!(
            page.contains("cool_shard_queue_depth{shard=\"1\"} 4"),
            "{page}"
        );
        assert!(
            page.contains("cool_shard_cache_entries{shard=\"2\"} 9"),
            "{page}"
        );
        assert!(!page.contains("cool_shard_queue_depth{shard=\"2\"}"));
    }

    /// The sparse-evaluation counters on the page reflect
    /// `cool_utility::stats` — driving a sparse evaluator between renders
    /// must advance the reported totals.
    #[test]
    fn sparse_query_counters_advance_between_renders() {
        use cool_common::{SensorId, SensorSet};
        use cool_utility::{Evaluator, SumUtility, UtilityFunction};

        let m = ServeMetrics::new();
        let before = cool_utility::stats::snapshot();
        let u = SumUtility::multi_target_detection(
            &[
                SensorSet::from_indices(3, [0, 1]),
                SensorSet::from_indices(3, [1, 2]),
            ],
            0.4,
        );
        let e = u.evaluator();
        let _ = e.gain(SensorId(1)); // touches 2 parts
        let after = cool_utility::stats::snapshot();
        assert!(after.gain_queries > before.gain_queries);
        assert!(after.parts_touched >= before.parts_touched + 2);
        let page = m.render();
        let line = page
            .lines()
            .find(|l| l.starts_with("cool_gain_queries_total"))
            .expect("series rendered");
        let rendered: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        // Global counters shared with concurrently-running tests: the page
        // must report at least everything recorded up to the render.
        assert!(rendered >= after.gain_queries);
        // The detection-family series advanced too (the query above only
        // touched detection parts) and reports at least the snapshot value.
        assert!(after.family_queries[0] > before.family_queries[0]);
        let family_line = page
            .lines()
            .find(|l| l.starts_with("cool_gain_queries_total{family=\"detection\"}"))
            .expect("family series rendered");
        let rendered: u64 = family_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(rendered >= after.family_queries[0]);
    }

    #[test]
    fn histogram_buckets_accumulate() {
        let m = ServeMetrics::new();
        m.observe_request("lint", 200, 0.002);
        m.observe_request("lint", 200, 0.2);
        let page = m.render();
        assert!(page.contains("cool_request_seconds_bucket{le=\"+Inf\"} 2"));
    }
}
