//! `cool loadgen` — a deterministic HTTP load generator for the daemon.
//!
//! Drives a mix of schedule (`POST /v1/schedule`) and session
//! (`PUT`/`PATCH /v1/scenario`) traffic from `concurrency` worker threads,
//! each over its own keep-alive connection, either **closed-loop** (each
//! worker fires its next request the moment the previous response lands —
//! measures capacity) or **open-loop** (requests are paced at a fixed
//! aggregate rate regardless of response times — measures latency under a
//! target arrival process, without coordinated omission from slow
//! responses gating arrivals).
//!
//! Workers draw per-thread RNG streams from one seed
//! ([`cool_common::SeedSequence`]), so a given config replays the same
//! request sequence.

use crate::client::{self, ClientConn, Response};
use cool_common::SeedSequence;
use rand::Rng as _;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tunables for one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Target daemon, e.g. `127.0.0.1:7311`.
    pub addr: String,
    /// Wall-clock duration of the run in milliseconds.
    pub duration_ms: u64,
    /// Concurrent client workers.
    pub concurrency: usize,
    /// Open-loop aggregate request rate (requests/second across all
    /// workers); `None` runs closed-loop.
    pub rate: Option<f64>,
    /// Fraction of requests that exercise the `/v1/scenario` session
    /// endpoints instead of `/v1/schedule` (0.0..=1.0).
    pub session_ratio: f64,
    /// Distinct scenario bodies to rotate through (cache keys touched).
    pub distinct: usize,
    /// Root seed for the per-worker request streams.
    pub seed: u64,
    /// POST `/v1/shutdown` to the daemon when the run finishes.
    pub shutdown_after: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7311".to_string(),
            duration_ms: 2_000,
            concurrency: 8,
            rate: None,
            session_ratio: 0.0,
            distinct: 8,
            seed: 42,
            shutdown_after: false,
        }
    }
}

/// Aggregated results of a run.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Requests that completed with any HTTP status.
    pub requests: u64,
    /// Transport-level failures (connect/read/write errors).
    pub errors: u64,
    /// Measured wall-clock duration in seconds.
    pub duration_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Latency percentiles over completed requests, in milliseconds.
    pub p50_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// 99.9th percentile latency (ms).
    pub p999_ms: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Worst observed latency (ms).
    pub max_ms: f64,
    /// Completed requests by HTTP status.
    pub by_status: BTreeMap<u16, u64>,
}

impl LoadgenReport {
    /// A human-readable one-screen summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "requests   {}", self.requests);
        let _ = writeln!(out, "errors     {}", self.errors);
        let _ = writeln!(out, "duration   {:.3} s", self.duration_s);
        let _ = writeln!(out, "throughput {:.1} req/s", self.throughput_rps);
        let _ = writeln!(
            out,
            "latency    p50 {:.3} ms · p99 {:.3} ms · p999 {:.3} ms · mean {:.3} ms · max {:.3} ms",
            self.p50_ms, self.p99_ms, self.p999_ms, self.mean_ms, self.max_ms
        );
        let statuses: Vec<String> = self
            .by_status
            .iter()
            .map(|(status, count)| format!("{status}:{count}"))
            .collect();
        let _ = writeln!(out, "statuses   {}", statuses.join(" "));
        out
    }

    /// A deterministic JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"requests\":{},\"errors\":{},\"duration_s\":{:.6},\"throughput_rps\":{:.3},\
             \"p50_ms\":{:.6},\"p99_ms\":{:.6},\"p999_ms\":{:.6},\"mean_ms\":{:.6},\"max_ms\":{:.6},\
             \"by_status\":{{",
            self.requests,
            self.errors,
            self.duration_s,
            self.throughput_rps,
            self.p50_ms,
            self.p99_ms,
            self.p999_ms,
            self.mean_ms,
            self.max_ms,
        );
        for (i, (status, count)) in self.by_status.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{status}\":{count}");
        }
        out.push_str("}}");
        out
    }
}

/// The latency tally one worker brings home.
#[derive(Default)]
struct WorkerTally {
    latencies_ms: Vec<f64>,
    by_status: BTreeMap<u16, u64>,
    errors: u64,
}

/// The schedule body for rotation slot `idx` — `distinct` bodies touch
/// `distinct` cache keys, so after one rotation the run is cache-hot.
fn schedule_body(idx: usize, distinct: usize) -> String {
    let variant = 1 + idx % distinct.max(1);
    format!("{{\"scenario\":\"sensors = 12\\ntargets = {variant}\\n\"}}")
}

/// The scenario each worker PUTs once for its session traffic (distinct
/// per worker so session shards spread).
fn session_scenario(worker: usize) -> String {
    let sensors = 8 + worker % 8;
    format!("{{\"scenario\":\"sensors = {sensors}\\ntargets = 2\\n\"}}")
}

/// One request over the worker's keep-alive connection, (re)connecting
/// when it has none.
fn fire(
    addr: SocketAddr,
    conn: &mut Option<ClientConn>,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<Response> {
    if conn.is_none() {
        *conn = Some(ClientConn::connect(addr)?);
    }
    let live = conn.as_mut().unwrap_or_else(|| unreachable!());
    match live.request(method, path, &[], body) {
        Ok(response) => {
            // The server announces when a response is the last on this
            // connection (request cap, shutdown); reconnect next time
            // rather than misreading the coming EOF as a transport error.
            if response.header("connection") == Some("close") {
                *conn = None;
            }
            Ok(response)
        }
        Err(e) => {
            // An unannounced close (idle timeout while paced open-loop);
            // reconnect once before reporting an error.
            *conn = None;
            Err(e)
        }
    }
}

/// The percentile `p` (0..=100) of `sorted` latencies.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = (rank.round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// Runs the configured load against a live daemon and aggregates.
///
/// # Errors
///
/// Address-resolution failure, or every request erroring (a daemon that
/// is not there at all). Individual request failures are tallied, not
/// fatal.
#[allow(clippy::too_many_lines)]
pub fn run_loadgen(config: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let addr: SocketAddr =
        config.addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "unresolvable address")
        })?;
    let duration = Duration::from_millis(config.duration_ms.max(1));
    let concurrency = config.concurrency.max(1);
    let seeds = SeedSequence::new(config.seed);
    // Open loop: each worker fires every (concurrency / rate) seconds so
    // the aggregate arrival rate is `rate`, regardless of response times.
    let pace = config
        .rate
        .map(|rate| Duration::from_secs_f64((concurrency as f64 / rate.max(0.001)).min(60.0)));

    let started = Instant::now();
    let deadline = started + duration;
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                let mut rng = seeds.nth_rng(worker as u64);
                let config = config.clone();
                scope.spawn(move || {
                    let mut tally = WorkerTally::default();
                    let mut conn: Option<ClientConn> = None;
                    let mut session_id: Option<String> = None;
                    let mut idx = worker; // stagger cache-key rotations
                    let mut reweight_flip = false;
                    let mut next_fire = Instant::now();
                    while Instant::now() < deadline {
                        if let Some(pace) = pace {
                            let now = Instant::now();
                            if now < next_fire {
                                std::thread::sleep(next_fire - now);
                            }
                            // When behind, fire immediately — open loop
                            // does not let slow responses gate arrivals.
                            next_fire += pace;
                        }
                        let session = config.session_ratio > 0.0
                            && rng.random_range(0.0..1.0) < config.session_ratio;
                        let (method, path, body);
                        if session {
                            if let Some(id) = &session_id {
                                method = "PATCH";
                                path = format!("/v1/scenario/{id}");
                                let w = if reweight_flip { "0.75" } else { "0.5" };
                                reweight_flip = !reweight_flip;
                                body = format!("{{\"deltas\":\"reweight 0 {w}\\n\"}}");
                            } else {
                                method = "PUT";
                                path = "/v1/scenario".to_string();
                                body = session_scenario(worker);
                            }
                        } else {
                            method = "POST";
                            path = "/v1/schedule".to_string();
                            body = schedule_body(idx, config.distinct);
                            idx += 1;
                        }
                        let fired = Instant::now();
                        match fire(addr, &mut conn, method, &path, &body) {
                            Ok(response) => {
                                tally
                                    .latencies_ms
                                    .push(fired.elapsed().as_secs_f64() * 1_000.0);
                                *tally.by_status.entry(response.status).or_insert(0) += 1;
                                if session && session_id.is_none() && response.status == 200 {
                                    session_id = extract_session_id(&response.body);
                                }
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let duration_s = started.elapsed().as_secs_f64();

    if config.shutdown_after {
        let _ = client::request(addr, "POST", "/v1/shutdown", &[], "");
    }

    let mut latencies: Vec<f64> = Vec::new();
    let mut by_status: BTreeMap<u16, u64> = BTreeMap::new();
    let mut errors = 0u64;
    for tally in tallies {
        latencies.extend(tally.latencies_ms);
        errors += tally.errors;
        for (status, count) in tally.by_status {
            *by_status.entry(status).or_insert(0) += count;
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let requests = latencies.len() as u64;
    if requests == 0 && errors > 0 {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("all {errors} requests failed — is the daemon up at {addr}?"),
        ));
    }
    let mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    Ok(LoadgenReport {
        requests,
        errors,
        duration_s,
        #[allow(clippy::cast_precision_loss)]
        throughput_rps: requests as f64 / duration_s.max(1e-9),
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        p999_ms: percentile(&latencies, 99.9),
        mean_ms,
        max_ms: latencies.last().copied().unwrap_or(0.0),
        by_status,
    })
}

/// Pulls the `"session"` id out of a PUT response body.
fn extract_session_id(body: &str) -> Option<String> {
    cool_common::json::parse(body)
        .ok()?
        .get("session")
        .and_then(cool_common::json::Value::as_str)
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    #[test]
    fn percentiles_pick_sane_indices() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&sorted, 50.0) - 50.0).abs() <= 1.0);
        assert!((percentile(&sorted, 99.0) - 99.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.9), 7.5);
    }

    #[test]
    fn schedule_bodies_rotate_distinct_cache_keys() {
        assert_eq!(schedule_body(0, 4), schedule_body(4, 4));
        assert_ne!(schedule_body(0, 4), schedule_body(1, 4));
        assert!(cool_common::json::parse(&schedule_body(3, 4)).is_ok());
        assert!(cool_common::json::parse(&session_scenario(2)).is_ok());
    }

    #[test]
    fn report_renders_text_and_json() {
        let report = LoadgenReport {
            requests: 10,
            errors: 1,
            duration_s: 0.5,
            throughput_rps: 20.0,
            p50_ms: 1.0,
            p99_ms: 2.0,
            p999_ms: 2.5,
            mean_ms: 1.2,
            max_ms: 3.0,
            by_status: BTreeMap::from([(200, 9), (429, 1)]),
        };
        let text = report.render();
        assert!(text.contains("throughput 20.0 req/s"), "{text}");
        assert!(text.contains("200:9"), "{text}");
        let json = cool_common::json::parse(&report.to_json()).unwrap();
        assert_eq!(
            json.get("requests")
                .and_then(cool_common::json::Value::as_f64),
            Some(10.0)
        );
        assert!(json.get("by_status").is_some());
    }

    /// End-to-end: a short mixed closed-loop run against a live event-mode
    /// daemon produces 200s for both traffic classes.
    #[test]
    fn loadgen_drives_a_live_daemon() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run());
        let report = run_loadgen(&LoadgenConfig {
            addr: addr.to_string(),
            duration_ms: 300,
            concurrency: 2,
            session_ratio: 0.3,
            distinct: 2,
            shutdown_after: true,
            ..LoadgenConfig::default()
        })
        .unwrap();
        assert!(report.requests > 0, "{report:?}");
        assert!(report.by_status.contains_key(&200), "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        handle.join().unwrap().unwrap();
    }
}
