//! End-to-end tests of the `cool-serve` daemon over real sockets.
//!
//! Each test boots a server on an ephemeral port and drives it with raw
//! `std::net::TcpStream` writes — no client library — covering the happy
//! path (schedule + cache hit), the cache key contract (no body leaks
//! between audit, plain and duplicate-key requests; one lint pre-flight
//! per miss), the lint pre-flight rejection, queue saturation (429),
//! request timeouts (408), the `/metrics` scrape, and the
//! graceful-shutdown drain contract.

// The raw-socket helpers below sit outside `#[test]` functions, where the
// lint wall's in-test unwrap allowance does not reach; panicking on
// transport failures is exactly what an e2e harness should do.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use cool::serve::api::{compute_response, parse_schedule_body, resolve_and_lint, ScheduleBody};
use cool::serve::{Server, ServerConfig};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

/// Boots a daemon on `127.0.0.1:0` and returns its address plus the
/// serving thread.
fn boot(mut config: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    config.addr = "127.0.0.1:0".to_string();
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// One raw HTTP/1.1 exchange: hand-written request bytes in, full response
/// text out, parsed into (status, head, body).
fn raw_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(request, "{name}: {value}\r\n");
    }
    request.push_str("\r\n");
    request.push_str(body);
    stream.write_all(request.as_bytes()).expect("write request");

    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    (status, head.to_string(), body.to_string())
}

fn schedule_body(scenario: &str) -> String {
    format!("{{\"scenario\":{}}}", cool::common::json::escape(scenario))
}

/// One hand-written request that asks to keep the connection open (or pass
/// `connection: "close"` to end it).
fn keep_alive_bytes(method: &str, path: &str, connection: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Reads exactly one `Content-Length`-framed response off a live keep-alive
/// connection; surplus bytes stay in `pending` for the next call.
fn read_framed(stream: &mut TcpStream, pending: &mut Vec<u8>) -> (u16, String, String) {
    let mut chunk = [0u8; 4096];
    let (head_end, content_length) = loop {
        if let Some(pos) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&pending[..pos]).expect("utf-8 head");
            let length = head
                .lines()
                .skip(1)
                .find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    name.trim()
                        .eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse::<usize>().expect("content-length"))
                })
                .unwrap_or(0);
            break (pos, length);
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "connection closed mid-head: {pending:?}");
        pending.extend_from_slice(&chunk[..n]);
    };
    let total = head_end + 4 + content_length;
    while pending.len() < total {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        pending.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&pending[..head_end]).to_string();
    let body = String::from_utf8_lossy(&pending[head_end + 4..total]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    pending.drain(..total);
    (status, head, body)
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let (status, _, _) = raw_request(addr, "POST", "/v1/shutdown", &[], "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread exits")
        .expect("server loop clean");
}

#[test]
fn schedule_cache_lint_and_metrics_over_the_wire() {
    let (addr, handle) = boot(ServerConfig::default());

    let (status, _, health) = raw_request(addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    assert!(health.contains("\"status\":\"ok\""));

    // Schedule the paper testbed scenario; first request is a cold miss.
    let scenario = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/paper_testbed.txt"
    ))
    .expect("bundled scenario");
    let body = schedule_body(&scenario);
    let (status, head, first) = raw_request(addr, "POST", "/v1/schedule", &[], &body);
    assert_eq!(status, 200, "{first}");
    assert!(head.contains("x-cool-cache: miss"), "{head}");
    assert!(first.contains("\"average_per_target_slot\""));

    // Identical second request: recorded cache hit, byte-identical body.
    let (status, head, second) = raw_request(addr, "POST", "/v1/schedule", &[], &body);
    assert_eq!(status, 200);
    assert!(head.contains("x-cool-cache: hit"), "{head}");
    assert_eq!(first, second, "cache hit must replay the exact bytes");

    // Lint pre-flight rejection carries COOL codes.
    let bad = schedule_body("recharge_minutes = 40\n");
    let (status, _, rejected) = raw_request(addr, "POST", "/v1/schedule", &[], &bad);
    assert_eq!(status, 422, "{rejected}");
    assert!(rejected.contains("COOL-E012"), "{rejected}");
    assert!(rejected.contains("\"lint\":{"), "{rejected}");

    // Unparsable JSON is COOL-E019.
    let (status, _, garbage) = raw_request(addr, "POST", "/v1/schedule", &[], "not json");
    assert_eq!(status, 400);
    assert!(garbage.contains("COOL-E019"));

    // The scrape reflects everything above.
    let (status, _, page) = raw_request(addr, "GET", "/metrics", &[], "");
    assert_eq!(status, 200);
    for series in [
        "cool_requests_total{endpoint=\"schedule\",status=\"200\"} 2",
        "cool_requests_total{endpoint=\"schedule\",status=\"422\"} 1",
        "cool_request_seconds_bucket",
        "cool_cache_hits_total 1",
        "cool_cache_misses_total 1",
        "cool_cache_entries 1",
        "cool_queue_depth",
        "cool_inflight_requests",
    ] {
        assert!(page.contains(series), "missing `{series}` in:\n{page}");
    }

    shutdown(addr, handle);
}

#[test]
fn batch_requests_fan_out_and_report_per_item_status() {
    let (addr, handle) = boot(ServerConfig::default());
    let body = r#"{"batch":[
        {"scenario":"sensors = 10\n"},
        {"scenario":"sensors = 10\n","algorithm":"horizon"},
        {"scenario":"recharge_minutes = 40\n"}
    ]}"#;
    let (status, _, response) = raw_request(addr, "POST", "/v1/schedule", &[], body);
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"count\":3"));
    assert!(response.contains("\"http_status\":200"));
    assert!(response.contains("\"http_status\":422"));
    assert!(response.contains("COOL-E012"));
    shutdown(addr, handle);
}

#[test]
fn periods_over_the_slot_cap_answer_422_and_every_worker_stays_up() {
    let threads = 2;
    let (addr, handle) = boot(ServerConfig {
        threads,
        ..ServerConfig::default()
    });
    // Lint-clean before periods were capped at 4096 slots: each one made
    // the worker that solved it panic allocating one period's slots.
    let over = [
        "recharge_minutes = 1.5e19\nhours = 1e30\n",
        "discharge_minutes = 18446744073709551616\nhours = 1e30\n",
    ];
    for k in 0..=threads {
        let body = schedule_body(over[k % over.len()]);
        let (status, _, response) = raw_request(addr, "POST", "/v1/schedule", &[], &body);
        assert_eq!(status, 422, "{response}");
        assert!(response.contains("COOL-E007"), "{response}");
    }
    // Lint-clean with a 4-slot period, but a horizon of more than 4096
    // slots: before horizons were bounded, `periods × T` wrapped and the
    // horizon greedy's worker panicked allocating the schedule.
    let horizon = format!(
        "{{\"scenario\":{},\"algorithm\":\"horizon\"}}",
        cool::common::json::escape("hours = 1e30\n")
    );
    for _ in 0..=threads {
        let (status, _, response) = raw_request(addr, "POST", "/v1/schedule", &[], &horizon);
        assert_eq!(status, 422, "{response}");
        assert!(response.contains("COOL-E007"), "{response}");
    }
    // A session's `rho` delta is held to the same cap: before, a period of
    // 10^15 + 1 slots aborted the daemon allocating the repair's slots, and
    // one of 5001 slots was solved.
    let (status, _, response) = raw_request(
        addr,
        "PUT",
        "/v1/scenario",
        &[],
        &schedule_body("sensors = 6\n"),
    );
    assert_eq!(status, 200, "{response}");
    let session = cool::common::json::parse(&response)
        .ok()
        .and_then(|v| v.get("session")?.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("no session id in {response}"));
    let path = format!("/v1/scenario/{session}");
    let patch = |deltas: &str| {
        let body = format!("{{\"deltas\":{}}}", cool::common::json::escape(deltas));
        raw_request(addr, "PATCH", &path, &[], &body)
    };
    for deltas in ["rho 1 1e15\n", "rho 1 5000\n"] {
        let (status, _, response) = patch(deltas);
        assert_eq!(status, 422, "{deltas}: {response}");
        assert!(response.contains("more than 4096 slots"), "{response}");
    }
    let (status, _, response) = patch("remove_sensor 0\n");
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"patches\":1"), "{response}");
    let (status, _, response) = raw_request(addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "{response}");
    // A plain miss still finds a worker, within the client's read timeout.
    let (status, head, body) = raw_request(
        addr,
        "POST",
        "/v1/schedule",
        &[],
        &schedule_body("sensors = 7\n"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("x-cool-cache: miss"), "{head}");
    shutdown(addr, handle);
}

/// The body `cool serve` answers for a single request on an empty cache,
/// computed in-process by the same public calls the server makes.
fn cold_compute(request: &str) -> String {
    let Ok(ScheduleBody::Single(item)) = parse_schedule_body(request.as_bytes()) else {
        panic!("not a single schedule request: {request}");
    };
    let (scenario, warnings) = resolve_and_lint(&item).expect("pre-flight passes");
    compute_response(&scenario, &item.algorithm, &warnings).expect("compute succeeds")
}

/// The value of an unlabeled counter on a `/metrics` page.
fn metric(page: &str, name: &str) -> usize {
    page.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` in:\n{page}"))
}

/// A scenario whose `cool audit` bundle adds `COOL-W007` warnings the
/// scenario lint does not emit, so audit and plain bodies differ.
const DOMINATED: &str = "sensors = 12\ntargets = 3\nregion = 150\nradius = 60\n";

/// Pairs of requests for one scenario whose bodies differ: the audit flag
/// either way round, and a duplicated key (`COOL-W002`) before the clean
/// text.
fn leak_pairs() -> [(String, String); 3] {
    let plain = schedule_body(DOMINATED);
    let audit = format!(
        "{{\"scenario\":{},\"audit\":true}}",
        cool::common::json::escape(DOMINATED)
    );
    let duplicate = schedule_body(&format!("sensors = 30\n{DOMINATED}"));
    [
        (audit.clone(), plain.clone()),
        (plain.clone(), audit),
        (duplicate, plain),
    ]
}

#[test]
fn cached_bodies_never_leak_across_audit_or_duplicate_key_requests() {
    // Default config: the second request takes the inline-hit path on the
    // I/O thread, and must miss there rather than replay the first's body.
    for (first, second) in leak_pairs() {
        let (addr, handle) = boot(ServerConfig::default());
        let (status, _, body) = raw_request(addr, "POST", "/v1/schedule", &[], &first);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, cold_compute(&first));
        let (status, head, body) = raw_request(addr, "POST", "/v1/schedule", &[], &second);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("x-cool-cache: miss"), "{second}: {head}");
        assert_eq!(body, cold_compute(&second), "after {first}");
        // Each request now hits its own entry.
        for request in [&first, &second] {
            let (_, head, body) = raw_request(addr, "POST", "/v1/schedule", &[], request);
            assert!(head.contains("x-cool-cache: hit"), "{request}: {head}");
            assert_eq!(body, cold_compute(request));
        }
        shutdown(addr, handle);
    }
}

#[test]
fn batched_bodies_never_leak_across_audit_or_duplicate_key_requests() {
    // The second request as a batch item: the worker path (`process_item`)
    // must look up the same full key as the inline path.
    for (first, second) in leak_pairs() {
        let (addr, handle) = boot(ServerConfig::default());
        let (status, _, body) = raw_request(addr, "POST", "/v1/schedule", &[], &first);
        assert_eq!(status, 200, "{body}");
        let batch = format!("{{\"batch\":[{second}]}}");
        let (status, _, body) = raw_request(addr, "POST", "/v1/schedule", &[], &batch);
        assert_eq!(status, 200, "{body}");
        let expected = format!(
            "{{\"status\":\"ok\",\"results\":[{{\"http_status\":200,\"cached\":false,\
             \"response\":{}}}],\"count\":1,\"cache_hits\":0}}",
            cold_compute(&second)
        );
        assert_eq!(body, expected, "after {first}");
        shutdown(addr, handle);
    }
}

#[test]
fn preflights_run_once_per_miss_and_never_for_hits() {
    let (addr, handle) = boot(ServerConfig::default());
    let distinct: Vec<String> = vec![
        schedule_body("sensors = 8\n"),
        schedule_body("sensors = 9\n"),
        schedule_body(&format!("# commented copy\n\n{DOMINATED}")),
        format!(
            "{{\"scenario\":{},\"audit\":true}}",
            cool::common::json::escape(DOMINATED)
        ),
        r#"{"scenario":"sensors = 8\n","algorithm":"horizon"}"#.to_string(),
        // An override that changes the instance the raw text derives.
        r#"{"scenario":"sensors = 8\n","set":{"seed":5}}"#.to_string(),
    ];
    for request in &distinct {
        let (status, head, body) = raw_request(addr, "POST", "/v1/schedule", &[], request);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("x-cool-cache: miss"), "{request}: {head}");
    }
    // Repeats: each distinct request again as a single (inline path), the
    // undecorated spelling of the commented copy, then all of them again
    // in one batch (worker path).
    let mut repeats = 0;
    for request in distinct.iter().chain([&schedule_body(DOMINATED)]) {
        let (_, head, body) = raw_request(addr, "POST", "/v1/schedule", &[], request);
        assert!(head.contains("x-cool-cache: hit"), "{request}: {head}");
        assert_eq!(body, cold_compute(request));
        repeats += 1;
    }
    let batch = format!("{{\"batch\":[{}]}}", distinct.join(","));
    let (status, _, body) = raw_request(addr, "POST", "/v1/schedule", &[], &batch);
    assert_eq!(status, 200, "{body}");
    assert!(
        body.ends_with(&format!("\"cache_hits\":{}}}", distinct.len())),
        "{body}"
    );
    repeats += distinct.len();

    let (_, _, page) = raw_request(addr, "GET", "/metrics", &[], "");
    assert_eq!(metric(&page, "cool_preflights_total"), distinct.len());
    assert_eq!(metric(&page, "cool_cache_misses_total"), distinct.len());
    assert_eq!(metric(&page, "cool_cache_hits_total"), repeats);
    shutdown(addr, handle);
}

#[test]
fn saturated_queue_sheds_load_with_429() {
    let (addr, handle) = boot(ServerConfig {
        threads: 1,
        queue_cap: 1,
        test_hooks: true,
        ..ServerConfig::default()
    });

    // Six concurrent slow requests against one worker and a one-slot
    // queue: at most two can be in the system, the rest must be shed.
    let workers: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let body = schedule_body("sensors = 6\n");
                let (status, _, response) = raw_request(
                    addr,
                    "POST",
                    "/v1/schedule",
                    &[("x-cool-test-sleep-ms", "400")],
                    &body,
                );
                (status, response)
            })
        })
        .collect();
    let outcomes: Vec<(u16, String)> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let served = outcomes.iter().filter(|(s, _)| *s == 200).count();
    let shed: Vec<&(u16, String)> = outcomes.iter().filter(|(s, _)| *s == 429).collect();
    assert!(served >= 1, "no request was served: {outcomes:?}");
    assert!(
        !shed.is_empty(),
        "bounded queue never shed load: {outcomes:?}"
    );
    for (_, response) in &shed {
        assert!(response.contains("COOL-E018"), "{response}");
    }

    let (_, _, page) = raw_request(addr, "GET", "/metrics", &[], "");
    assert!(
        !page.contains("cool_queue_rejections_total 0"),
        "rejections not recorded:\n{page}"
    );
    shutdown(addr, handle);
}

#[test]
fn requests_past_their_budget_answer_408() {
    let (addr, handle) = boot(ServerConfig {
        timeout_ms: 100,
        test_hooks: true,
        ..ServerConfig::default()
    });
    let body = schedule_body("sensors = 6\n");
    let (status, _, response) = raw_request(
        addr,
        "POST",
        "/v1/schedule",
        &[("x-cool-test-sleep-ms", "400")],
        &body,
    );
    assert_eq!(status, 408, "{response}");
    assert!(response.contains("COOL-E017"), "{response}");
    let (_, _, page) = raw_request(addr, "GET", "/metrics", &[], "");
    assert!(page.contains("cool_request_timeouts_total 1"), "{page}");
    shutdown(addr, handle);
}

#[test]
fn pipelined_request_after_a_4xx_is_still_answered() {
    let (addr, handle) = boot(ServerConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // One burst, two requests: the first draws a route-level 400 (bad
    // JSON), which must not tear down the connection before the pipelined
    // follower is answered.
    let mut burst = keep_alive_bytes("POST", "/v1/schedule", "keep-alive", "not json");
    burst.extend_from_slice(&keep_alive_bytes("GET", "/healthz", "keep-alive", ""));
    stream.write_all(&burst).expect("write burst");

    let mut pending = Vec::new();
    let (status, head, body) = read_framed(&mut stream, &mut pending);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("COOL-E019"), "{body}");
    assert!(head.contains("connection: keep-alive"), "{head}");
    let (status, _, body) = read_framed(&mut stream, &mut pending);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""));

    drop(stream);
    shutdown(addr, handle);
}

#[test]
fn idle_keep_alive_connections_are_closed_by_the_idle_timeout() {
    let (addr, handle) = boot(ServerConfig {
        idle_timeout_ms: 100,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&keep_alive_bytes("GET", "/healthz", "keep-alive", ""))
        .expect("write");
    let mut pending = Vec::new();
    let (status, head, _) = read_framed(&mut stream, &mut pending);
    assert_eq!(status, 200);
    assert!(head.contains("connection: keep-alive"), "{head}");

    // Then silence: the daemon must close the idle connection on its own.
    let start = std::time::Instant::now();
    let mut sink = [0u8; 64];
    let n = stream.read(&mut sink).expect("EOF, not a reset or timeout");
    assert_eq!(n, 0, "expected idle-timeout close, read {n} bytes");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "idle close took {:?}",
        start.elapsed()
    );
    shutdown(addr, handle);
}

#[test]
fn connection_close_overrides_the_http11_keep_alive_default() {
    let (addr, handle) = boot(ServerConfig::default());
    // raw_request sends HTTP/1.1 with `connection: close`; the response
    // must advertise the close and actually end the connection (the
    // read_to_string inside raw_request only returns on EOF).
    let (status, head, _) = raw_request(addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    assert!(head.contains("connection: close"), "{head}");
    shutdown(addr, handle);
}

#[test]
fn keep_alive_request_cap_forces_a_close() {
    let (addr, handle) = boot(ServerConfig {
        keep_alive_max: 2,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut pending = Vec::new();

    stream
        .write_all(&keep_alive_bytes("GET", "/healthz", "keep-alive", ""))
        .expect("write first");
    let (status, head, _) = read_framed(&mut stream, &mut pending);
    assert_eq!(status, 200);
    assert!(head.contains("connection: keep-alive"), "{head}");

    // The capping request is still answered, but with `connection: close`.
    stream
        .write_all(&keep_alive_bytes("GET", "/healthz", "keep-alive", ""))
        .expect("write second");
    let (status, head, _) = read_framed(&mut stream, &mut pending);
    assert_eq!(status, 200);
    assert!(head.contains("connection: close"), "{head}");
    let mut sink = [0u8; 64];
    assert_eq!(
        stream.read(&mut sink).expect("EOF after cap"),
        0,
        "connection must close once the request cap is reached"
    );
    shutdown(addr, handle);
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let (addr, handle) = boot(ServerConfig {
        threads: 2,
        test_hooks: true,
        ..ServerConfig::default()
    });

    // A slow request occupies a worker while shutdown is requested.
    let slow = std::thread::spawn(move || {
        let body = schedule_body("sensors = 8\n");
        raw_request(
            addr,
            "POST",
            "/v1/schedule",
            &[("x-cool-test-sleep-ms", "500")],
            &body,
        )
    });
    // Let the slow request reach its worker before asking for shutdown.
    std::thread::sleep(Duration::from_millis(150));
    let (status, _, _) = raw_request(addr, "POST", "/v1/shutdown", &[], "");
    assert_eq!(status, 200);

    // Drain contract: the accepted slow request still completes with 200.
    let (status, _, response) = slow.join().expect("slow request thread");
    assert_eq!(
        status, 200,
        "in-flight request dropped on shutdown: {response}"
    );
    handle
        .join()
        .expect("server thread exits")
        .expect("server loop clean");

    // And the listener is really gone.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}
