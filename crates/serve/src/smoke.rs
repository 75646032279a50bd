//! An end-to-end smoke check the CI pipeline (and `cool serve --smoke`)
//! runs against a real scenario file: boot the daemon on an ephemeral
//! port, drive the full protocol over TCP, and verify the serving path
//! agrees with the offline `cool run` path bit-for-bit where it must.
//!
//! Checks, in order: `/healthz` answers; `POST /v1/schedule` returns the
//! same average utility as [`Scenario::run`]; an identical second request
//! is a recorded cache hit with a byte-identical body, and so is a
//! comment-decorated copy of the scenario and the same scenario requested
//! as `greedy-lazy` (a spelling of `greedy`); the same
//! scenario with `"audit": true` is a miss whose body equals the in-process
//! cold compute; a lint-rejected scenario comes back 422 with a COOL code;
//! `/metrics` exposes the request/latency/cache/queue/pre-flight series and
//! counts exactly one pre-flight per miss; shutdown drains cleanly.

use crate::api::{compute_response, parse_schedule_body, resolve_and_lint, ScheduleBody};
use crate::client;
use crate::server::{Server, ServerConfig};
use cool_common::json::{self, escape, Value};
use cool_scenario::Scenario;
use std::net::SocketAddr;

/// Metric families the scrape must expose for dashboards to work.
pub const REQUIRED_METRICS: [&str; 6] = [
    "cool_requests_total",
    "cool_request_seconds_bucket",
    "cool_cache_hits_total",
    "cool_cache_misses_total",
    "cool_preflights_total",
    "cool_queue_depth",
];

fn post_schedule(addr: SocketAddr, scenario_text: &str) -> Result<client::Response, String> {
    let body = format!("{{\"scenario\":{}}}", escape(scenario_text));
    client::request(addr, "POST", "/v1/schedule", &[], &body)
        .map_err(|e| format!("schedule request failed: {e}"))
}

/// The body the daemon should answer for `request` on an empty cache,
/// computed in-process by the same calls it makes.
fn cold_compute(request: &str) -> Result<String, String> {
    let Ok(ScheduleBody::Single(item)) = parse_schedule_body(request.as_bytes()) else {
        return Err(format!("not a single schedule request: {request}"));
    };
    resolve_and_lint(&item)
        .and_then(|(scenario, warnings)| compute_response(&scenario, &item.algorithm, &warnings))
        .map_err(|e| format!("in-process cold compute failed: {}", e.body()))
}

/// The value of an unlabeled counter on a `/metrics` page.
fn counter(page: &str, name: &str) -> Result<u64, String> {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| format!("metrics page lacks a `{name}` value"))
}

/// The lookup key covers the whole body, and only the body: a
/// comment-decorated copy of the scenario is a byte-identical hit on
/// `first_body`'s entry, while the same scenario with `"audit": true` is a
/// miss whose body equals the in-process cold compute.
fn check_cache_key_contract(
    addr: SocketAddr,
    scenario_text: &str,
    first_body: &str,
) -> Result<(), String> {
    // Comments and blank lines reach neither the canonical form nor the
    // body's warnings, so a decorated copy shares the first request's key.
    // They go after the last line: a `COOL-W002` message names a line.
    let decorated = post_schedule(
        addr,
        &format!("{scenario_text}\n\n# smoke: a comment-decorated copy\n"),
    )?;
    if decorated.header("x-cool-cache") != Some("hit") || decorated.body != first_body {
        return Err("comment-decorated copy was not a byte-identical cache hit".to_string());
    }

    // The audit bundle shapes the body's warnings: its own entry, never a
    // replay of the plain body.
    let audit_body = format!("{{\"scenario\":{},\"audit\":true}}", escape(scenario_text));
    let audit = client::request(addr, "POST", "/v1/schedule", &[], &audit_body)
        .map_err(|e| format!("audit request failed: {e}"))?;
    if audit.status != 200 || audit.header("x-cool-cache") != Some("miss") {
        return Err(format!(
            "audit request was not a cold miss: {} {}",
            audit.status, audit.body
        ));
    }
    if audit.body != cold_compute(&audit_body)? {
        return Err("audit body differs from the in-process cold compute".to_string());
    }
    Ok(())
}

fn drive(addr: SocketAddr, scenario_text: &str, expected_average: f64) -> Result<String, String> {
    let health = client::request(addr, "GET", "/healthz", &[], "")
        .map_err(|e| format!("healthz request failed: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz returned {}", health.status));
    }

    let first = post_schedule(addr, scenario_text)?;
    if first.status != 200 {
        return Err(format!(
            "schedule returned {}: {}",
            first.status, first.body
        ));
    }
    if first.header("x-cool-cache") != Some("miss") {
        return Err("first schedule request was not a cache miss".to_string());
    }
    let doc = json::parse(&first.body).map_err(|e| format!("schedule body is not JSON: {e}"))?;
    let served = doc
        .get("utility")
        .and_then(|u| u.get("average_per_target_slot"))
        .and_then(Value::as_f64)
        .ok_or_else(|| "schedule body lacks utility.average_per_target_slot".to_string())?;
    if (served - expected_average).abs() > 1e-12 {
        return Err(format!(
            "service utility {served} disagrees with offline run {expected_average}"
        ));
    }

    let second = post_schedule(addr, scenario_text)?;
    if second.header("x-cool-cache") != Some("hit") {
        return Err("second identical request was not a cache hit".to_string());
    }
    if second.body != first.body {
        return Err("cache hit body differs from cold compute".to_string());
    }

    check_cache_key_contract(addr, scenario_text, &first.body)?;

    // `greedy-lazy` is a spelling of `greedy`: a byte-identical hit on the
    // first body's entry.
    let lazy_body = format!(
        "{{\"scenario\":{},\"algorithm\":\"greedy-lazy\"}}",
        escape(scenario_text)
    );
    let lazy = client::request(addr, "POST", "/v1/schedule", &[], &lazy_body)
        .map_err(|e| format!("greedy-lazy request failed: {e}"))?;
    if lazy.status != 200 {
        return Err(format!(
            "greedy-lazy returned {}: {}",
            lazy.status, lazy.body
        ));
    }
    if lazy.header("x-cool-cache") != Some("hit") {
        return Err("greedy-lazy must hit the greedy cache entry".to_string());
    }
    if lazy.body != first.body {
        return Err("greedy-lazy body differs from the greedy body".to_string());
    }

    let rejected = post_schedule(addr, "recharge_minutes = 40\n")?;
    if rejected.status != 422 || !rejected.body.contains("COOL-E") {
        return Err(format!(
            "lint pre-flight did not reject: {} {}",
            rejected.status, rejected.body
        ));
    }

    let metrics = client::request(addr, "GET", "/metrics", &[], "")
        .map_err(|e| format!("metrics request failed: {e}"))?;
    if metrics.status != 200 {
        return Err(format!("metrics returned {}", metrics.status));
    }
    for key in REQUIRED_METRICS {
        if !metrics.body.contains(key) {
            return Err(format!("metrics page lacks `{key}`"));
        }
    }
    let hits = counter(&metrics.body, "cool_cache_hits_total")?;
    if hits != 3 {
        return Err(format!("metrics recorded {hits} cache hits, wanted 3"));
    }
    let misses = counter(&metrics.body, "cool_cache_misses_total")?;
    let preflights = counter(&metrics.body, "cool_preflights_total")?;
    if preflights != misses {
        return Err(format!(
            "{preflights} lint pre-flights for {misses} cache misses; hits must skip it"
        ));
    }
    Ok(metrics.body)
}

/// Boots a daemon on an ephemeral port, drives the full protocol against
/// `scenario_path`, shuts it down, and returns the final `/metrics` page.
///
/// # Errors
///
/// A human-readable description of the first failed check.
pub fn run_smoke(scenario_path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(scenario_path)
        .map_err(|e| format!("cannot read {scenario_path}: {e}"))?;
    let scenario =
        Scenario::parse(&text).map_err(|e| format!("cannot parse {scenario_path}: {e}"))?;
    let expected = scenario
        .run()
        .map_err(|e| format!("offline run failed: {e}"))?
        .average;

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?;
    let handle = std::thread::spawn(move || server.run());

    let outcome = drive(addr, &text, expected);

    let shutdown = client::request(addr, "POST", "/v1/shutdown", &[], "")
        .map_err(|e| format!("shutdown request failed: {e}"));
    let joined = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())
        .and_then(|r| r.map_err(|e| format!("server loop failed: {e}")));

    let metrics_page = outcome?;
    let shutdown = shutdown?;
    if shutdown.status != 200 {
        return Err(format!("shutdown returned {}", shutdown.status));
    }
    joined?;
    Ok(metrics_page)
}

/// The session metric families the scrape must expose after a PATCH.
pub const REQUIRED_SESSION_METRICS: [&str; 4] = [
    "cool_sessions_active",
    "cool_session_repairs_total",
    "cool_session_cells_touched_total",
    "cool_session_repair_seconds",
];

/// The delta script the session smoke replays: two incremental-friendly
/// mutations, then a ρ change that reshapes the period and forces a full
/// re-solve — so the final schedule must be **bit-identical** to a
/// from-scratch solve of the mutated instance.
const SMOKE_DELTAS: &str = "remove_sensor 0\nreweight 0 0.75\nrho 15 30\n";

fn extract_assignment(doc: &Value) -> Result<Vec<usize>, String> {
    doc.get("schedule")
        .and_then(|s| s.get("assignment"))
        .and_then(Value::as_array)
        .ok_or_else(|| "schedule body lacks schedule.assignment".to_string())?
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|t| t as usize)
                .ok_or_else(|| "non-numeric slot in assignment".to_string())
        })
        .collect()
}

/// The oracle the session smoke compares against: replay the smoke
/// deltas offline and solve the final instance from scratch.
fn offline_final_schedule(scenario: &Scenario) -> Result<cool_core::PeriodSchedule, String> {
    let mut expected = cool_session::SessionInstance::from_scenario(scenario)
        .map_err(|e| format!("offline instance failed: {e}"))?;
    for delta in cool_session::parse_deltas(SMOKE_DELTAS)
        .map_err(|e| format!("smoke delta script is invalid: {e}"))?
    {
        expected
            .apply(&delta)
            .map_err(|e| format!("offline delta failed: {e}"))?;
    }
    expected
        .solve()
        .map_err(|e| format!("offline solve failed: {e}"))
}

/// End-of-life contract: DELETE answers 200, the dead id answers
/// `410 Gone`, a never-stored id answers `404 Not Found`.
fn check_session_teardown(addr: SocketAddr, id: &str) -> Result<(), String> {
    let del = client::request(addr, "DELETE", &format!("/v1/scenario/{id}"), &[], "")
        .map_err(|e| format!("session DELETE failed: {e}"))?;
    if del.status != 200 {
        return Err(format!("session DELETE returned {}", del.status));
    }
    let gone = client::request(addr, "GET", &format!("/v1/scenario/{id}/schedule"), &[], "")
        .map_err(|e| format!("post-delete GET failed: {e}"))?;
    if gone.status != 410 {
        return Err(format!(
            "deleted session answered {} instead of 410 Gone",
            gone.status
        ));
    }
    let missing = client::request(
        addr,
        "GET",
        "/v1/scenario/ffffffffffffffff/schedule",
        &[],
        "",
    )
    .map_err(|e| format!("unknown-id GET failed: {e}"))?;
    if missing.status != 404 {
        return Err(format!(
            "never-stored session answered {} instead of 404",
            missing.status
        ));
    }
    Ok(())
}

fn drive_session(addr: SocketAddr, scenario: &Scenario, text: &str) -> Result<String, String> {
    let expected_schedule = offline_final_schedule(scenario)?;

    let put_body = format!("{{\"scenario\":{}}}", escape(text));
    let put = client::request(addr, "PUT", "/v1/scenario", &[], &put_body)
        .map_err(|e| format!("session PUT failed: {e}"))?;
    if put.status != 200 {
        return Err(format!("session PUT returned {}: {}", put.status, put.body));
    }
    let put_doc = json::parse(&put.body).map_err(|e| format!("PUT body is not JSON: {e}"))?;
    let id = put_doc
        .get("session")
        .and_then(Value::as_str)
        .ok_or_else(|| "PUT body lacks a session id".to_string())?
        .to_string();

    let patch_body = format!("{{\"deltas\":{}}}", escape(SMOKE_DELTAS));
    let patch = client::request(
        addr,
        "PATCH",
        &format!("/v1/scenario/{id}"),
        &[],
        &patch_body,
    )
    .map_err(|e| format!("session PATCH failed: {e}"))?;
    if patch.status != 200 {
        return Err(format!(
            "session PATCH returned {}: {}",
            patch.status, patch.body
        ));
    }
    let patch_doc = json::parse(&patch.body).map_err(|e| format!("PATCH body is not JSON: {e}"))?;
    let applied = patch_doc.get("applied").and_then(Value::as_f64);
    if applied != Some(3.0) {
        return Err(format!("PATCH applied {applied:?} deltas, wanted 3"));
    }
    let repairs = patch_doc
        .get("repairs")
        .and_then(Value::as_array)
        .ok_or_else(|| "PATCH body lacks repairs".to_string())?;
    let last_mode = repairs
        .last()
        .and_then(|r| r.get("mode"))
        .and_then(Value::as_str);
    if last_mode != Some("full") {
        return Err(format!(
            "ρ-reshaping delta repaired in mode {last_mode:?}, wanted full"
        ));
    }

    let got = client::request(addr, "GET", &format!("/v1/scenario/{id}/schedule"), &[], "")
        .map_err(|e| format!("schedule GET failed: {e}"))?;
    if got.status != 200 {
        return Err(format!(
            "schedule GET returned {}: {}",
            got.status, got.body
        ));
    }
    let got_doc = json::parse(&got.body).map_err(|e| format!("GET body is not JSON: {e}"))?;
    let served = extract_assignment(&got_doc)?;
    if served != expected_schedule.assignment() {
        return Err(format!(
            "repaired assignment diverged from the from-scratch solve:\n  served  {served:?}\n  \
             expected {:?}",
            expected_schedule.assignment()
        ));
    }

    let metrics = client::request(addr, "GET", "/metrics", &[], "")
        .map_err(|e| format!("metrics request failed: {e}"))?;
    for key in REQUIRED_SESSION_METRICS {
        if !metrics.body.contains(key) {
            return Err(format!("metrics page lacks `{key}`"));
        }
    }
    if !metrics.body.contains("cool_sessions_active 1") {
        return Err("session gauge does not report the live session".to_string());
    }

    check_session_teardown(addr, &id)?;
    Ok(metrics.body)
}

/// Boots a daemon on an ephemeral port and drives the full session
/// lifecycle against `scenario_path`: PUT, a three-delta PATCH whose
/// final ρ change forces a full re-solve, a GET whose assignment must be
/// bit-identical to an offline from-scratch solve of the mutated
/// instance, metrics exposure, and DELETE → 410 / unknown → 404.
///
/// Returns the `/metrics` page captured while the session was live.
///
/// # Errors
///
/// A human-readable description of the first failed check.
pub fn run_session_smoke(scenario_path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(scenario_path)
        .map_err(|e| format!("cannot read {scenario_path}: {e}"))?;
    let scenario =
        Scenario::parse(&text).map_err(|e| format!("cannot parse {scenario_path}: {e}"))?;

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr failed: {e}"))?;
    let handle = std::thread::spawn(move || server.run());

    let outcome = drive_session(addr, &scenario, &text);

    let shutdown = client::request(addr, "POST", "/v1/shutdown", &[], "")
        .map_err(|e| format!("shutdown request failed: {e}"));
    let joined = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())
        .and_then(|r| r.map_err(|e| format!("server loop failed: {e}")));

    let metrics_page = outcome?;
    let shutdown = shutdown?;
    if shutdown.status != 200 {
        return Err(format!("shutdown returned {}", shutdown.status));
    }
    joined?;
    Ok(metrics_page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_against_the_paper_testbed() {
        // The workspace root holds the scenario; resolve relative to the
        // crate manifest so `cargo test -p cool-serve` works from anywhere.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/paper_testbed.txt"
        );
        let page = run_smoke(path).unwrap_or_else(|e| panic!("smoke failed: {e}"));
        for key in REQUIRED_METRICS {
            assert!(page.contains(key));
        }
    }

    #[test]
    fn session_smoke_passes_against_the_paper_testbed() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/paper_testbed.txt"
        );
        let page = run_session_smoke(path).unwrap_or_else(|e| panic!("session smoke failed: {e}"));
        for key in REQUIRED_SESSION_METRICS {
            assert!(page.contains(key));
        }
        assert!(page.contains("cool_session_repairs_total{mode=\"full\"}"));
    }

    #[test]
    fn session_smoke_reports_missing_files() {
        let err = run_session_smoke("/nonexistent/scenario.txt").unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn smoke_reports_missing_files() {
        let err = run_smoke("/nonexistent/scenario.txt").unwrap_err();
        assert!(err.contains("cannot read"));
    }
}
