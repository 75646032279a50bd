//! The daemon itself: request routing, the sharded content-addressed
//! schedule cache and session store, per-request wall-clock budgets, and
//! graceful drain on shutdown.
//!
//! Request flow (DESIGN.md §8/§13): accept → parse → bounded worker queue
//! (429 when full) → route → lint text stage → cache lookup → on a miss,
//! lint instance stage → `cool-core` compute → cache fill → response.
//! Single-item hits are answered on the I/O thread after the same text
//! stage and lookup. `POST /v1/shutdown` flips a flag the event loop
//! polls; accepted work is drained before the listener closes.
//!
//! The transport is the non-blocking `poll(2)` event loop in
//! [`crate::event`], with HTTP/1.1 keep-alive and request pipelining.

use crate::api::{
    self, parse_lint_body, parse_schedule_body, ApiError, ScheduleBody, ScheduleItem,
};
use crate::http::Request;
use crate::metrics::ServeMetrics;
use crate::session_api;
use crate::shard::{ShardedCache, ShardedSessions};
use cool_common::parallel::default_sweep_threads;
use cool_common::CoolCode;
use cool_core::RepairConfig;
use cool_lint::{lint_scenario_fields, lint_scenario_instance, lint_scenario_text, FieldLint};
use cool_scenario::Scenario;
use cool_session::{SessionEntry, SessionInstance, SessionStoreError};
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tunables for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7311` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests.
    pub threads: usize,
    /// Bounded queue capacity; beyond it requests are shed with 429.
    /// Split evenly across worker shards.
    pub queue_cap: usize,
    /// Schedule-cache capacity in entries (split across cache shards).
    pub cache_cap: usize,
    /// Per-request wall-clock budget in milliseconds (408 past it).
    pub timeout_ms: u64,
    /// Maximum live sessions in the `/v1/scenario` store; past it the
    /// least recently used session is evicted (its id answers 410).
    pub session_cap: usize,
    /// Dirty-sensor fraction above which a session PATCH abandons the
    /// warm start and re-solves from scratch.
    pub repair_threshold: f64,
    /// Shards for the cache, session store, and worker queue (worker
    /// shards are additionally capped by `threads`). One shard reproduces
    /// the single-lock PR 2 behaviour exactly.
    pub shards: usize,
    /// Requests served per keep-alive connection before the server closes
    /// it.
    pub keep_alive_max: usize,
    /// Milliseconds a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout_ms: u64,
    /// Honour `x-cool-test-sleep-ms` request headers (tests only) so e2e
    /// suites can deterministically saturate the queue or exceed budgets.
    pub test_hooks: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7311".to_string(),
            threads: default_sweep_threads(),
            queue_cap: 64,
            cache_cap: 128,
            timeout_ms: 30_000,
            session_cap: 64,
            repair_threshold: RepairConfig::DEFAULT_FULL_THRESHOLD,
            shards: default_sweep_threads(),
            keep_alive_max: 100,
            idle_timeout_ms: 5_000,
            test_hooks: false,
        }
    }
}

impl ServerConfig {
    /// Worker-queue shards: never more than worker threads (a shard with
    /// no thread would queue jobs nobody drains), never less than one.
    #[must_use]
    pub fn worker_shards(&self) -> usize {
        self.shards.clamp(1, self.threads.max(1))
    }

    /// Cache/session shards.
    #[must_use]
    pub fn cache_shards(&self) -> usize {
        self.shards.max(1)
    }
}

/// State shared by the acceptor and every worker.
pub(crate) struct AppState {
    pub(crate) config: ServerConfig,
    pub(crate) cache: ShardedCache,
    pub(crate) sessions: ShardedSessions,
    pub(crate) metrics: ServeMetrics,
    pub(crate) shutdown: AtomicBool,
}

impl AppState {
    pub(crate) fn new(config: ServerConfig) -> AppState {
        AppState {
            cache: ShardedCache::new(config.cache_shards(), config.cache_cap),
            sessions: ShardedSessions::new(config.cache_shards(), config.session_cap),
            metrics: ServeMetrics::with_shards(config.worker_shards(), config.cache_shards()),
            shutdown: AtomicBool::new(false),
            config,
        }
    }
}

/// A bound, not-yet-running daemon. [`Server::run`] consumes it and blocks
/// until `POST /v1/shutdown` is received and in-flight work has drained.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
}

impl Server {
    /// Binds the listener described by `config`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures from the OS.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            state: Arc::new(AppState::new(config)),
        })
    }

    /// The actual bound address (useful with `:0` ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates `getsockname` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown is requested, then drains accepted requests
    /// and returns.
    ///
    /// # Errors
    ///
    /// Only setup failures surface here; per-connection I/O errors are
    /// contained within their worker.
    pub fn run(self) -> io::Result<()> {
        crate::event::run(self.listener, self.state)
    }
}

/// The endpoint label used in metrics for a request target.
pub(crate) fn endpoint_label(target: &str) -> &'static str {
    if target == "/v1/scenario" || target.starts_with("/v1/scenario/") {
        return "session";
    }
    match target {
        "/v1/schedule" => "schedule",
        "/v1/lint" => "lint",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/v1/shutdown" => "shutdown",
        _ => "other",
    }
}

/// The content type for a routed response.
pub(crate) fn content_type_for(endpoint: &str, status: u16) -> &'static str {
    if endpoint == "metrics" && status == 200 {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    }
}

pub(crate) type Routed = (u16, Vec<(String, String)>, String);

/// Dispatches a parsed request to its handler.
pub(crate) fn route(state: &AppState, request: &Request, accepted_at: Instant) -> Routed {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/v1/schedule") => handle_schedule(state, request, accepted_at),
        ("POST", "/v1/lint") => handle_lint(request),
        ("GET", "/healthz") => (
            200,
            Vec::new(),
            "{\"status\":\"ok\",\"service\":\"cool-serve\"}".to_string(),
        ),
        ("GET", "/metrics") => {
            let entries = state.cache.len();
            state
                .metrics
                .cache_entries
                .set(i64::try_from(entries).unwrap_or(i64::MAX));
            for shard in 0..state.cache.shard_count() {
                state.metrics.shard_cache_entries[shard]
                    .set(i64::try_from(state.cache.shard_len(shard)).unwrap_or(i64::MAX));
            }
            (200, Vec::new(), state.metrics.render())
        }
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            (
                200,
                Vec::new(),
                "{\"status\":\"ok\",\"message\":\"draining in-flight requests\"}".to_string(),
            )
        }
        (_, target) if target == "/v1/scenario" || target.starts_with("/v1/scenario/") => {
            route_session(state, request)
        }
        (_, "/v1/schedule" | "/v1/lint" | "/healthz" | "/metrics" | "/v1/shutdown") => {
            let err = ApiError::malformed("method not allowed for this path");
            (405, Vec::new(), err.body())
        }
        _ => {
            let err = ApiError::malformed("no such endpoint");
            (404, Vec::new(), err.body())
        }
    }
}

/// Runs one schedule item through text stage → cache lookup → instance
/// stage → compute, returning the response body and whether it was served
/// from cache. Only a miss pays for the instance stage, once, and the
/// compute reuses the instance utility the stage derived.
fn process_item(state: &AppState, item: &ScheduleItem) -> Result<(String, bool), ApiError> {
    let resolved = api::resolve(item)?;
    if let Some(body) = state.cache.get(&resolved.key) {
        state.metrics.cache_hits.inc();
        return Ok((body, true));
    }
    state.metrics.preflights.inc();
    let (warnings, utility) = api::preflight(item, &resolved)?;
    let body = api::compute_response_with(&resolved.scenario, utility, &item.algorithm, &warnings)?;
    state.metrics.cache_misses.inc();
    let key = resolved.key;
    let shard = state.cache.shard_of(&key);
    let (evicted, shard_len) = state.cache.insert(key, body.clone());
    if evicted.is_some() {
        state.metrics.cache_evictions.inc();
    }
    state.metrics.shard_cache_entries[shard].set(i64::try_from(shard_len).unwrap_or(i64::MAX));
    state
        .metrics
        .cache_entries
        .set(i64::try_from(state.cache.len()).unwrap_or(i64::MAX));
    Ok((body, false))
}

/// The I/O-thread fast path: a single-item
/// `POST /v1/schedule` whose response is already memoised is answered
/// without the worker handoff (two context switches saved per request on
/// the hot cache-hit path). Only the text stage runs here — the key is the
/// same one [`process_item`] looks up. Anything else — misses, rejections,
/// batches, other endpoints, or a daemon running with test hooks — returns
/// `None` and takes the queued path with its usual 429 backpressure.
pub(crate) fn schedule_cache_hit(state: &AppState, request: &Request) -> Option<String> {
    if state.config.test_hooks || request.method != "POST" || request.target != "/v1/schedule" {
        return None;
    }
    let ScheduleBody::Single(item) = parse_schedule_body(&request.body).ok()? else {
        return None;
    };
    let key = api::resolve(&item).ok()?.key;
    let body = state.cache.get(&key)?;
    state.metrics.cache_hits.inc();
    Some(body)
}

/// `POST /v1/schedule` — single or batch.
fn handle_schedule(state: &AppState, request: &Request, accepted_at: Instant) -> Routed {
    if state.config.test_hooks {
        if let Some(ms) = request
            .header("x-cool-test-sleep-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            std::thread::sleep(Duration::from_millis(ms.min(60_000)));
        }
    }
    let budget = Duration::from_millis(state.config.timeout_ms);
    let over_budget = |at: Instant| at.elapsed() > budget;
    if over_budget(accepted_at) {
        state.metrics.timeouts.inc();
        let err = ApiError::timeout(u128::from(state.config.timeout_ms));
        return (err.status, Vec::new(), err.body());
    }

    let parsed = match parse_schedule_body(&request.body) {
        Ok(parsed) => parsed,
        Err(err) => return (err.status, Vec::new(), err.body()),
    };

    let routed = match parsed {
        ScheduleBody::Single(item) => match process_item(state, &item) {
            Ok((body, cached)) => {
                let cache_header = if cached { "hit" } else { "miss" };
                (
                    200,
                    vec![("x-cool-cache".to_string(), cache_header.to_string())],
                    body,
                )
            }
            Err(err) => (err.status, Vec::new(), err.body()),
        },
        ScheduleBody::Batch(items) => {
            let threads = state.config.threads.max(1);
            let results =
                cool_common::parallel_map(threads, items, |item| process_item(state, &item));
            let mut hits = 0usize;
            let mut body = String::from("{\"status\":\"ok\",\"results\":[");
            for (i, result) in results.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                match result {
                    Ok((item_body, cached)) => {
                        hits += usize::from(*cached);
                        let _ = write!(
                            body,
                            "{{\"http_status\":200,\"cached\":{cached},\"response\":{item_body}}}"
                        );
                    }
                    Err(err) => {
                        let _ = write!(
                            body,
                            "{{\"http_status\":{},\"cached\":false,\"response\":{}}}",
                            err.status,
                            err.body()
                        );
                    }
                }
            }
            let _ = write!(
                body,
                "],\"count\":{},\"cache_hits\":{hits}}}",
                results.len()
            );
            (200, Vec::new(), body)
        }
    };

    // The compute itself may have blown the budget (e.g. a huge instance);
    // answer 408 rather than pretend the deadline held.
    if over_budget(accepted_at) {
        state.metrics.timeouts.inc();
        let err = ApiError::timeout(u128::from(state.config.timeout_ms));
        return (err.status, Vec::new(), err.body());
    }
    routed
}

/// Dispatches the `/v1/scenario` session family:
/// `PUT /v1/scenario`, `PATCH|DELETE /v1/scenario/{id}`,
/// `GET /v1/scenario/{id}/schedule`.
fn route_session(state: &AppState, request: &Request) -> Routed {
    let method = request.method.as_str();
    let rest = request
        .target
        .strip_prefix("/v1/scenario")
        .unwrap_or_default();
    match (method, rest) {
        ("PUT", "") => handle_session_put(state, request),
        (_, "") => {
            let err = ApiError::malformed("use PUT to create a session");
            (405, Vec::new(), err.body())
        }
        (_, _) => {
            let id = rest.trim_start_matches('/');
            if let Some(id) = id.strip_suffix("/schedule") {
                if method == "GET" {
                    return handle_session_schedule(state, id);
                }
                let err = ApiError::malformed("use GET on /schedule");
                return (405, Vec::new(), err.body());
            }
            match method {
                "PATCH" => handle_session_patch(state, request, id),
                "DELETE" => handle_session_delete(state, id),
                _ => {
                    let err =
                        ApiError::malformed("use PATCH or DELETE on a session, GET on /schedule");
                    (405, Vec::new(), err.body())
                }
            }
        }
    }
}

/// Maps a store miss to its HTTP error.
fn session_miss(id: &str, miss: SessionStoreError) -> Routed {
    let err = match miss {
        SessionStoreError::Gone => session_api::session_gone(id),
        SessionStoreError::NotFound => session_api::session_not_found(id),
    };
    (err.status, Vec::new(), err.body())
}

/// `PUT /v1/scenario` — lint, solve from scratch, store as a session.
/// The lint runs as its two stages (together, `lint_scenario_text`), so
/// the session is built on the instance utility the instance stage
/// derived.
fn handle_session_put(state: &AppState, request: &Request) -> Routed {
    let text = match parse_lint_body(&request.body) {
        Ok(text) => text,
        Err(err) => return (err.status, Vec::new(), err.body()),
    };
    let FieldLint { mut report, spec } = lint_scenario_fields(&text, "request");
    let mut utility = None;
    if let Some(spec) = spec {
        let instance = lint_scenario_instance(&spec);
        report.merge(instance.report);
        utility = instance.utility;
    }
    if report.error_count() > 0 {
        let code = report
            .diagnostics()
            .iter()
            .find(|d| d.code.is_error())
            .map_or(CoolCode::ScenarioFieldInvalid, |d| d.code);
        let err = ApiError {
            status: 422,
            code,
            message: "scenario rejected by cool-lint".to_string(),
            lint_json: Some(report.to_json()),
        };
        return (err.status, Vec::new(), err.body());
    }
    let scenario = match Scenario::parse(&text) {
        Ok(scenario) => scenario,
        Err(e) => {
            let err = ApiError::from(e);
            return (err.status, Vec::new(), err.body());
        }
    };
    let entry =
        SessionInstance::from_scenario_with(&scenario, utility).and_then(SessionEntry::solve);
    let entry = match entry {
        Ok(entry) => entry,
        Err(message) => {
            let mut err = ApiError::malformed(message);
            err.status = 422;
            return (err.status, Vec::new(), err.body());
        }
    };
    let (id, evicted) = state.sessions.put(entry);
    state
        .metrics
        .sessions_active
        .set(i64::try_from(state.sessions.len()).unwrap_or(i64::MAX));
    let mut sessions = state.sessions.lock_for(&id);
    let body = match sessions.get(&id) {
        Ok(entry) => session_api::render_put_response(&id, entry, evicted.as_deref()),
        Err(miss) => return session_miss(&id, miss),
    };
    (200, Vec::new(), body)
}

/// `PATCH /v1/scenario/{id}` — apply deltas sequentially with warm-start
/// repair. Deltas apply in order; the first invalid one aborts the
/// remainder with 422 (earlier deltas in the body stay applied).
fn handle_session_patch(state: &AppState, request: &Request, id: &str) -> Routed {
    let deltas = match session_api::parse_patch_body(&request.body) {
        Ok(deltas) => deltas,
        Err(err) => return (err.status, Vec::new(), err.body()),
    };
    let config = RepairConfig {
        full_threshold: state.config.repair_threshold,
    };
    let mut sessions = state.sessions.lock_for(id);
    let entry = match sessions.get(id) {
        Ok(entry) => entry,
        Err(miss) => return session_miss(id, miss),
    };
    let mut repairs = Vec::with_capacity(deltas.len());
    for (i, delta) in deltas.iter().enumerate() {
        let started = Instant::now();
        match entry.patch(delta, &config) {
            Ok(stats) => {
                state.metrics.observe_repair(
                    stats.mode.as_str(),
                    stats.cells_touched,
                    started.elapsed().as_secs_f64(),
                );
                repairs.push(stats);
            }
            Err(message) => {
                let mut err = ApiError::malformed(format!(
                    "delta {} rejected after {} applied: {message}",
                    i + 1,
                    repairs.len()
                ));
                err.status = 422;
                return (err.status, Vec::new(), err.body());
            }
        }
    }
    let body = session_api::render_patch_response(id, entry, &repairs);
    (200, Vec::new(), body)
}

/// `GET /v1/scenario/{id}/schedule` — the session's current schedule.
fn handle_session_schedule(state: &AppState, id: &str) -> Routed {
    let mut sessions = state.sessions.lock_for(id);
    match sessions.get(id) {
        Ok(entry) => (
            200,
            Vec::new(),
            session_api::render_schedule_response(id, entry),
        ),
        Err(miss) => session_miss(id, miss),
    }
}

/// `DELETE /v1/scenario/{id}` — drop the session, leaving a tombstone.
fn handle_session_delete(state: &AppState, id: &str) -> Routed {
    match state.sessions.delete(id) {
        Ok(()) => {
            state
                .metrics
                .sessions_active
                .set(i64::try_from(state.sessions.len()).unwrap_or(i64::MAX));
            (200, Vec::new(), session_api::render_delete_response(id))
        }
        Err(miss) => session_miss(id, miss),
    }
}

/// `POST /v1/lint` — the pre-flight as a standalone endpoint.
fn handle_lint(request: &Request) -> Routed {
    let text = match parse_lint_body(&request.body) {
        Ok(text) => text,
        Err(err) => return (err.status, Vec::new(), err.body()),
    };
    let report = lint_scenario_text(&text, "request");
    if report.is_clean() {
        (
            200,
            Vec::new(),
            format!("{{\"status\":\"ok\",\"lint\":{}}}", report.to_json()),
        )
    } else {
        let code = report
            .diagnostics()
            .iter()
            .find(|d| d.code.is_error())
            .map_or(CoolCode::ScenarioFieldInvalid, |d| d.code);
        let err = ApiError {
            status: 422,
            code,
            message: "scenario rejected by cool-lint".to_string(),
            lint_json: Some(report.to_json()),
        };
        (err.status, Vec::new(), err.body())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(config: ServerConfig) -> AppState {
        AppState::new(config)
    }

    fn request(method: &str, target: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn worker_shards_are_capped_by_threads() {
        let config = ServerConfig {
            threads: 1,
            shards: 8,
            ..ServerConfig::default()
        };
        assert_eq!(config.worker_shards(), 1, "no shard without a thread");
        assert_eq!(config.cache_shards(), 8);
        let config = ServerConfig {
            threads: 8,
            shards: 0,
            ..ServerConfig::default()
        };
        assert_eq!(config.worker_shards(), 1);
        assert_eq!(config.cache_shards(), 1);
    }

    #[test]
    fn routes_healthz_and_unknown_paths() {
        let state = test_state(ServerConfig::default());
        let (status, _, body) = route(&state, &request("GET", "/healthz", ""), Instant::now());
        assert_eq!(status, 200);
        assert!(body.contains("cool-serve"));
        let (status, _, body) = route(&state, &request("GET", "/nope", ""), Instant::now());
        assert_eq!(status, 404);
        assert!(body.contains("COOL-E019"));
        let (status, _, _) = route(&state, &request("DELETE", "/metrics", ""), Instant::now());
        assert_eq!(status, 405);
    }

    #[test]
    fn schedule_single_then_cached() {
        let state = test_state(ServerConfig::default());
        let body = r#"{"scenario":"sensors = 12\ntargets = 2\n"}"#;
        let (status, extra, first) = route(
            &state,
            &request("POST", "/v1/schedule", body),
            Instant::now(),
        );
        assert_eq!(status, 200, "{first}");
        assert_eq!(extra[0].1, "miss");
        let (status, extra, second) = route(
            &state,
            &request("POST", "/v1/schedule", body),
            Instant::now(),
        );
        assert_eq!(status, 200);
        assert_eq!(extra[0].1, "hit");
        assert_eq!(first, second, "cache hit must be byte-identical");
        assert_eq!(state.metrics.cache_hits.get(), 1);
        assert_eq!(state.metrics.cache_misses.get(), 1);
        assert_eq!(
            state.metrics.preflights.get(),
            1,
            "a hit skips the pre-flight"
        );
    }

    #[test]
    fn lazy_spellings_hit_the_greedy_cache_entry() {
        let state = test_state(ServerConfig::default());
        let body = |algorithm: &str| {
            format!(r#"{{"scenario":"sensors = 12\ntargets = 2\n","algorithm":"{algorithm}"}}"#)
        };
        let (status, extra, greedy) = route(
            &state,
            &request("POST", "/v1/schedule", &body("greedy")),
            Instant::now(),
        );
        assert_eq!(status, 200, "{greedy}");
        assert_eq!(extra[0].1, "miss");
        for spelling in ["greedy-lazy", "greedy_lazy", "lazy"] {
            let (status, extra, lazy) = route(
                &state,
                &request("POST", "/v1/schedule", &body(spelling)),
                Instant::now(),
            );
            assert_eq!(status, 200, "{lazy}");
            assert_eq!(extra[0].1, "hit", "{spelling} must hit greedy's entry");
            assert_eq!(lazy, greedy, "{spelling} must return greedy's bytes");
        }
        assert_eq!(state.metrics.cache_misses.get(), 1);
        assert_eq!(state.metrics.cache_hits.get(), 3);
        assert_eq!(state.metrics.preflights.get(), 1);
    }

    #[test]
    fn schedule_batch_mixes_success_and_failure() {
        let state = test_state(ServerConfig::default());
        let body = r#"{"batch":[
            {"scenario":"sensors = 12\n"},
            {"scenario":"recharge_minutes = 40\n"}
        ]}"#;
        let (status, _, rendered) = route(
            &state,
            &request("POST", "/v1/schedule", body),
            Instant::now(),
        );
        assert_eq!(status, 200);
        assert!(rendered.contains("\"http_status\":200"));
        assert!(rendered.contains("\"http_status\":422"));
        assert!(rendered.contains("\"count\":2"));
        assert!(cool_common::json::parse(&rendered).is_ok(), "{rendered}");
    }

    #[test]
    fn lint_endpoint_reports_both_verdicts() {
        let state = test_state(ServerConfig::default());
        let (status, _, body) = route(
            &state,
            &request("POST", "/v1/lint", r#"{"scenario":"sensors = 10\n"}"#),
            Instant::now(),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"ok\""));
        let (status, _, body) = route(
            &state,
            &request(
                "POST",
                "/v1/lint",
                r#"{"scenario":"recharge_minutes = 40\n"}"#,
            ),
            Instant::now(),
        );
        assert_eq!(status, 422);
        assert!(body.contains("COOL-E012"), "{body}");
        assert!(body.contains("\"diagnostics\""));
    }

    #[test]
    fn timed_out_requests_get_408() {
        let config = ServerConfig {
            timeout_ms: 0,
            ..ServerConfig::default()
        };
        let state = test_state(config);
        let started = Instant::now()
            .checked_sub(Duration::from_millis(50))
            .unwrap();
        let (status, _, body) = route(
            &state,
            &request("POST", "/v1/schedule", r#"{"scenario":"sensors = 4\n"}"#),
            started,
        );
        assert_eq!(status, 408);
        assert!(body.contains("COOL-E017"));
        assert_eq!(state.metrics.timeouts.get(), 1);
    }

    #[test]
    fn shutdown_endpoint_flips_the_flag() {
        let state = test_state(ServerConfig::default());
        assert!(!state.shutdown.load(Ordering::SeqCst));
        let (status, _, _) = route(&state, &request("POST", "/v1/shutdown", ""), Instant::now());
        assert_eq!(status, 200);
        assert!(state.shutdown.load(Ordering::SeqCst));
    }

    /// Pulls the `"session"` id out of a PUT/PATCH response body.
    fn session_id_of(body: &str) -> String {
        cool_common::json::parse(body)
            .unwrap()
            .get("session")
            .and_then(cool_common::json::Value::as_str)
            .unwrap_or_else(|| panic!("no session id in {body}"))
            .to_string()
    }

    #[test]
    fn session_lifecycle_over_routes() {
        let state = test_state(ServerConfig::default());
        let put_body = r#"{"scenario":"sensors = 12\ntargets = 2\n"}"#;
        let (status, _, body) = route(
            &state,
            &request("PUT", "/v1/scenario", put_body),
            Instant::now(),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"evicted\":null"));
        let id = session_id_of(&body);
        assert_eq!(state.metrics.sessions_active.get(), 1);

        // An identical PUT re-derives the same content address.
        let (_, _, again) = route(
            &state,
            &request("PUT", "/v1/scenario", put_body),
            Instant::now(),
        );
        assert_eq!(session_id_of(&again), id);

        let patch_body = r#"{"deltas":"remove_sensor 0\nreweight 0 0.9\n"}"#;
        let (status, _, body) = route(
            &state,
            &request("PATCH", &format!("/v1/scenario/{id}"), patch_body),
            Instant::now(),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"applied\":2"), "{body}");
        assert!(body.contains("\"repairs\":["), "{body}");

        let (status, _, body) = route(
            &state,
            &request("GET", &format!("/v1/scenario/{id}/schedule"), ""),
            Instant::now(),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"assignment\":["), "{body}");

        let (status, _, _) = route(
            &state,
            &request("DELETE", &format!("/v1/scenario/{id}"), ""),
            Instant::now(),
        );
        assert_eq!(status, 200);
        assert_eq!(state.metrics.sessions_active.get(), 0);

        let (status, _, body) = route(
            &state,
            &request("GET", &format!("/v1/scenario/{id}/schedule"), ""),
            Instant::now(),
        );
        assert_eq!(status, 410, "{body}");
        let (status, _, _) = route(
            &state,
            &request("GET", "/v1/scenario/ffffffffffffffff/schedule", ""),
            Instant::now(),
        );
        assert_eq!(status, 404);
    }

    #[test]
    fn session_put_rejects_what_lint_rejects() {
        let state = test_state(ServerConfig::default());
        // A lint error, and an unknown key: a lint warning that the strict
        // scenario parse refuses.
        for (scenario, message) in [
            (r"recharge_minutes = 40\n", "scenario rejected by cool-lint"),
            (r"sensors = 12\nwarp = 9\n", "unknown key `warp`"),
        ] {
            let (status, _, body) = route(
                &state,
                &request(
                    "PUT",
                    "/v1/scenario",
                    &format!(r#"{{"scenario":"{scenario}"}}"#),
                ),
                Instant::now(),
            );
            assert_eq!(status, 422, "{body}");
            assert!(body.contains("COOL-E"), "{body}");
            assert!(body.contains(message), "{body}");
        }
        assert_eq!(state.metrics.sessions_active.get(), 0);
    }

    #[test]
    fn session_patch_applies_a_prefix_then_rejects() {
        let state = test_state(ServerConfig::default());
        let (_, _, body) = route(
            &state,
            &request(
                "PUT",
                "/v1/scenario",
                r#"{"scenario":"sensors = 12\ntargets = 2\n"}"#,
            ),
            Instant::now(),
        );
        let id = session_id_of(&body);

        // Malformed grammar never touches the session.
        let (status, _, body) = route(
            &state,
            &request(
                "PATCH",
                &format!("/v1/scenario/{id}"),
                r#"{"deltas":"warp 9"}"#,
            ),
            Instant::now(),
        );
        assert_eq!(status, 400, "{body}");

        // Well-formed but invalid second delta: the first stays applied.
        let (status, _, body) = route(
            &state,
            &request(
                "PATCH",
                &format!("/v1/scenario/{id}"),
                r#"{"deltas":"remove_sensor 3\nremove_sensor 3\n"}"#,
            ),
            Instant::now(),
        );
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("delta 2 rejected after 1 applied"), "{body}");
        let (_, _, body) = route(
            &state,
            &request("GET", &format!("/v1/scenario/{id}/schedule"), ""),
            Instant::now(),
        );
        assert!(body.contains("\"alive\":11"), "{body}");
    }

    #[test]
    fn session_family_rejects_wrong_methods() {
        let state = test_state(ServerConfig::default());
        let (status, _, _) = route(&state, &request("POST", "/v1/scenario", ""), Instant::now());
        assert_eq!(status, 405);
        let (status, _, _) = route(
            &state,
            &request("POST", "/v1/scenario/abc/schedule", ""),
            Instant::now(),
        );
        assert_eq!(status, 405);
        let (status, _, _) = route(
            &state,
            &request("GET", "/v1/scenario/abc", ""),
            Instant::now(),
        );
        assert_eq!(status, 405);
    }

    #[test]
    fn metrics_route_reports_cache_population() {
        let state = test_state(ServerConfig::default());
        let body = r#"{"scenario":"sensors = 8\n"}"#;
        let _ = route(
            &state,
            &request("POST", "/v1/schedule", body),
            Instant::now(),
        );
        let (status, _, page) = route(&state, &request("GET", "/metrics", ""), Instant::now());
        assert_eq!(status, 200);
        assert!(page.contains("cool_cache_entries 1"), "{page}");
        assert!(page.contains("cool_cache_misses_total 1"));
        assert!(
            page.contains("cool_shard_cache_entries{shard=\"0\"}"),
            "{page}"
        );
    }
}
