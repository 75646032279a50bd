//! The non-blocking `poll(2)` event loop behind [`Server::run`]
//! (DESIGN.md §13), the daemon's only transport.
//!
//! One acceptor/IO thread multiplexes every connection through
//! [`crate::poll::PollSet`]; parsed requests are handed to sharded
//! [`WorkerPool`]s (bounded queues: a full shard answers 429, and
//! shutdown drains every accepted job) and completed responses come back
//! over a loopback wake socket, so the loop never blocks on anything but
//! `poll(2)` itself.
//!
//! [`Server::run`]: crate::Server::run
//!
//! Per-connection state machine:
//!
//! ```text
//!           ┌────────────── keep-alive ──────────────┐
//!           ▼                                        │
//! accept → Reading ──parse──▶ Queued ──worker──▶ Writing ──close──▶ drop
//!           │                                        ▲
//!           └── parse error / overload / timeout ────┘
//! ```
//!
//! `POLLIN` is only armed while a connection is `Reading`, so a client
//! that pipelines aggressively is throttled by the kernel socket buffer
//! rather than ballooning server memory.

use crate::http::{parse_request, render_response, Parse, ParseError, Request};
use crate::poll::PollSet;
use crate::server::{content_type_for, endpoint_label, route, AppState};
use cool_common::hash::StableHasher;
use cool_common::parallel::WorkerPool;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Poll-set token for the listener.
const TOKEN_LISTENER: usize = usize::MAX;
/// Poll-set token for the wake socket.
const TOKEN_WAKE: usize = usize::MAX - 1;
/// Upper bound on one `poll` wait, so the shutdown flag and deadline
/// sweeps run at least this often.
const MAX_POLL_MS: i32 = 500;
/// Bytes read from one connection per readiness event before yielding to
/// the others.
const READ_QUANTUM: usize = 256 * 1024;

/// A parsed request travelling to a worker shard.
struct Job {
    conn_id: usize,
    request: Request,
    accepted_at: Instant,
    keep_alive: bool,
}

/// A rendered response travelling back from a worker.
struct Completion {
    conn_id: usize,
    bytes: Vec<u8>,
    keep_alive: bool,
}

/// Where a connection is in its request/response cycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Waiting for (more of) a request.
    Reading,
    /// A request is queued or executing on a worker shard.
    Queued,
    /// A response is being flushed.
    Writing,
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (and pipelined followers).
    buf: Vec<u8>,
    /// Response bytes being flushed.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    /// Set when `buf` holds a partial request; drives the 408 budget.
    request_started: Option<Instant>,
    /// Last byte received or response finished; drives the idle timeout.
    last_activity: Instant,
    /// Requests dispatched on this connection (keep-alive cap).
    requests: usize,
    /// The peer half-closed its write side.
    read_closed: bool,
    close_after_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            request_started: None,
            last_activity: Instant::now(),
            requests: 0,
            read_closed: false,
            close_after_write: false,
        }
    }
}

/// Builds the loopback socket pair workers use to wake the poll loop
/// (std offers no pipes; a localhost TCP pair is the portable stand-in).
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    let _ = tx.set_nodelay(true);
    Ok((rx, tx))
}

/// Nudges the poll loop; failures are ignored because a full wake-socket
/// buffer already guarantees the loop has a pending readable event.
fn wake(tx: &TcpStream) {
    let _ = (&mut &*tx).write(&[1u8]);
}

/// The worker shard a request routes to: FNV-1a of (target, body), so
/// identical content — the cache-hit case — always lands on the same
/// shard and its cache shard stays warm.
fn shard_of(request: &Request, shards: usize) -> usize {
    let mut h = StableHasher::new();
    h.write(request.target.as_bytes());
    h.write_sep();
    h.write(&request.body);
    usize::try_from(h.finish() % shards as u64).unwrap_or(0)
}

/// What to do with a connection after an event is handled.
enum After {
    Keep,
    Drop,
}

/// Runs the event loop until shutdown is requested and every accepted
/// request has drained.
///
/// Takes the listener and state by value: this function IS the I/O
/// thread and owns both for the daemon's lifetime.
#[allow(clippy::too_many_lines, clippy::needless_pass_by_value)]
pub(crate) fn run(listener: TcpListener, state: Arc<AppState>) -> io::Result<()> {
    let (wake_rx, wake_tx) = wake_pair()?;
    let wake_tx = Arc::new(wake_tx);
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

    let worker_shards = state.config.worker_shards();
    let threads = state.config.threads.max(1);
    let per_shard_cap = (state.config.queue_cap / worker_shards).max(1);
    let base_threads = threads / worker_shards;
    let extra_threads = threads % worker_shards;
    let pools: Vec<WorkerPool<Job>> = (0..worker_shards)
        .map(|shard| {
            let state = Arc::clone(&state);
            let completions = Arc::clone(&completions);
            let wake_tx = Arc::clone(&wake_tx);
            let shard_threads = base_threads + usize::from(shard < extra_threads);
            WorkerPool::new(shard_threads, per_shard_cap, move |job: Job| {
                state.metrics.queue_depth.dec();
                state.metrics.shard_queue_depth[shard].dec();
                state.metrics.in_flight.inc();
                let endpoint = endpoint_label(&job.request.target);
                let (status, extra, body) = route(&state, &job.request, job.accepted_at);
                let extra_refs: Vec<(&str, &str)> = extra
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                let bytes = render_response(
                    status,
                    content_type_for(endpoint, status),
                    &extra_refs,
                    body.as_bytes(),
                    job.keep_alive,
                );
                state.metrics.observe_request(
                    endpoint,
                    status,
                    job.accepted_at.elapsed().as_secs_f64(),
                );
                state.metrics.in_flight.dec();
                completions
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Completion {
                        conn_id: job.conn_id,
                        bytes,
                        keep_alive: job.keep_alive,
                    });
                wake(&wake_tx);
            })
        })
        .collect();

    let budget = Duration::from_millis(state.config.timeout_ms.max(1));
    let idle_limit = Duration::from_millis(state.config.idle_timeout_ms.max(1));
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_id: usize = 0;
    let mut poll_set = PollSet::new();
    let mut draining = false;

    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            draining = true;
        }
        if draining {
            // Idle keep-alive connections have nothing owed to them.
            conns.retain(|_, conn| !(conn.state == ConnState::Reading && conn.buf.is_empty()));
            if conns.is_empty() {
                break;
            }
        }

        poll_set.clear();
        if !draining {
            poll_set.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false);
        }
        poll_set.register(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false);
        for (&id, conn) in &conns {
            let read = conn.state == ConnState::Reading && !conn.read_closed;
            let write = conn.state == ConnState::Writing;
            if read || write {
                poll_set.register(conn.stream.as_raw_fd(), id, read, write);
            }
        }

        let timeout = next_deadline_ms(&conns, budget, idle_limit);
        poll_set.wait(timeout)?;

        let ready: Vec<(usize, bool, bool)> = poll_set.ready().collect();
        for &(token, readable, writable) in &ready {
            match token {
                TOKEN_LISTENER => accept_all(&listener, &state, &mut conns, &mut next_id),
                TOKEN_WAKE => drain_wake(&wake_rx),
                id => {
                    let Some(conn) = conns.get_mut(&id) else {
                        continue;
                    };
                    let after = if readable && conn.state == ConnState::Reading {
                        on_readable(&state, &pools, id, conn)
                    } else if writable && conn.state == ConnState::Writing {
                        on_writable(conn)
                    } else {
                        After::Keep
                    };
                    if matches!(after, After::Drop) {
                        conns.remove(&id);
                    }
                }
            }
        }

        apply_completions(&state, &pools, &completions, &mut conns);
        sweep_deadlines(&state, &mut conns, budget, idle_limit, draining);
    }

    for pool in pools {
        pool.shutdown();
    }
    Ok(())
}

/// Milliseconds until the nearest budget/idle deadline, clamped to
/// `[0, MAX_POLL_MS]`.
fn next_deadline_ms(conns: &HashMap<usize, Conn>, budget: Duration, idle_limit: Duration) -> i32 {
    let now = Instant::now();
    let mut nearest: Option<Duration> = None;
    for conn in conns.values() {
        if conn.state != ConnState::Reading {
            continue;
        }
        let deadline = match conn.request_started {
            Some(started) => started + budget,
            None => conn.last_activity + idle_limit,
        };
        let left = deadline.saturating_duration_since(now);
        nearest = Some(nearest.map_or(left, |n| n.min(left)));
    }
    match nearest {
        Some(left) => i32::try_from(
            left.as_millis()
                .min(u128::try_from(MAX_POLL_MS).unwrap_or(0)),
        )
        .unwrap_or(MAX_POLL_MS),
        None => MAX_POLL_MS,
    }
}

/// Accepts every pending connection (the listener is level-triggered, but
/// draining the backlog here saves a poll round-trip per connection).
fn accept_all(
    listener: &TcpListener,
    state: &AppState,
    conns: &mut HashMap<usize, Conn>,
    next_id: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                state.metrics.connections.inc();
                let id = *next_id;
                // Skip the reserved control tokens on wraparound.
                *next_id = next_id.wrapping_add(1);
                if *next_id >= TOKEN_WAKE {
                    *next_id = 0;
                }
                conns.insert(id, Conn::new(stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Discards pending wake bytes.
fn drain_wake(wake_rx: &TcpStream) {
    let mut sink = [0u8; 64];
    loop {
        match (&mut &*wake_rx).read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Reads what the socket has, then tries to dispatch a complete request.
fn on_readable(state: &AppState, pools: &[WorkerPool<Job>], id: usize, conn: &mut Conn) -> After {
    let mut chunk = [0u8; 16 * 1024];
    let mut taken = 0usize;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                taken += n;
                if taken >= READ_QUANTUM {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return After::Drop,
        }
    }
    try_dispatch(state, pools, id, conn)
}

/// Parses the front of `conn.buf`; dispatches a complete request to its
/// worker shard or answers protocol errors inline.
fn try_dispatch(state: &AppState, pools: &[WorkerPool<Job>], id: usize, conn: &mut Conn) -> After {
    loop {
        if conn.state != ConnState::Reading {
            return After::Keep;
        }
        match parse_request(&conn.buf) {
            Ok(Parse::Complete(outcome)) => {
                // The request's clock starts here, before the inline cache
                // lookup: `cool_request_seconds` and the 408 budget both
                // cover the lookup, whichever path answers.
                let accepted_at = Instant::now();
                conn.buf.drain(..outcome.consumed);
                conn.request_started = None;
                conn.requests += 1;
                if conn.requests > 1 {
                    state.metrics.keepalive_reuses.inc();
                }
                let keep_alive =
                    outcome.keep_alive && conn.requests < state.config.keep_alive_max.max(1);

                // Memoised schedule responses are answered right here on
                // the IO thread — no queue, no worker wake, no completion
                // round trip. Everything else takes the queued path.
                if let Some(body) = crate::server::schedule_cache_hit(state, &outcome.request) {
                    conn.out = render_response(
                        200,
                        content_type_for("schedule", 200),
                        &[("x-cool-cache", "hit")],
                        body.as_bytes(),
                        keep_alive,
                    );
                    conn.out_pos = 0;
                    conn.close_after_write = !keep_alive;
                    conn.state = ConnState::Writing;
                    state.metrics.observe_request(
                        "schedule",
                        200,
                        accepted_at.elapsed().as_secs_f64(),
                    );
                    match flush(conn) {
                        After::Drop => return After::Drop,
                        // Fully flushed and back to Reading: serve the next
                        // pipelined request without another poll round.
                        After::Keep if conn.state == ConnState::Reading && !conn.buf.is_empty() => {
                            continue;
                        }
                        After::Keep => return After::Keep,
                    }
                }

                let shard = shard_of(&outcome.request, pools.len());
                let job = Job {
                    conn_id: id,
                    request: outcome.request,
                    accepted_at,
                    keep_alive,
                };
                state.metrics.queue_depth.inc();
                state.metrics.shard_queue_depth[shard].inc();
                return match pools[shard].try_submit(job) {
                    Ok(()) => {
                        conn.state = ConnState::Queued;
                        After::Keep
                    }
                    Err(rejected) => {
                        state.metrics.queue_depth.dec();
                        state.metrics.shard_queue_depth[shard].dec();
                        state.metrics.queue_rejections.inc();
                        let job = rejected.into_job();
                        let err = crate::api::ApiError::overloaded();
                        inline_response(
                            state,
                            conn,
                            endpoint_label(&job.request.target),
                            err.status,
                            &err.body(),
                            job.accepted_at,
                        )
                    }
                };
            }
            Ok(Parse::Partial(stage)) => {
                if conn.buf.is_empty() {
                    conn.request_started = None;
                } else if conn.request_started.is_none() {
                    conn.request_started = Some(Instant::now());
                }
                if conn.read_closed {
                    if conn.buf.is_empty() {
                        return After::Drop; // clean EOF between requests
                    }
                    let err = crate::api::ApiError::malformed(stage.truncation_message());
                    let started = conn.request_started.unwrap_or_else(Instant::now);
                    return inline_response(state, conn, "other", err.status, &err.body(), started);
                }
                return After::Keep;
            }
            Err(ParseError::BadRequest(message)) => {
                let err = crate::api::ApiError::malformed(message);
                let started = conn.request_started.unwrap_or_else(Instant::now);
                return inline_response(state, conn, "other", err.status, &err.body(), started);
            }
            Err(ParseError::TooLarge) => {
                let mut err = crate::api::ApiError::malformed("request exceeds size limits");
                err.status = 413;
                let started = conn.request_started.unwrap_or_else(Instant::now);
                return inline_response(state, conn, "other", err.status, &err.body(), started);
            }
        }
    }
}

/// Starts flushing an error/shed response generated on the IO thread;
/// these responses always close the connection.
fn inline_response(
    state: &AppState,
    conn: &mut Conn,
    endpoint: &str,
    status: u16,
    body: &str,
    started: Instant,
) -> After {
    conn.out = render_response(status, "application/json", &[], body.as_bytes(), false);
    conn.out_pos = 0;
    conn.close_after_write = true;
    conn.state = ConnState::Writing;
    conn.request_started = None;
    state
        .metrics
        .observe_request(endpoint, status, started.elapsed().as_secs_f64());
    flush(conn)
}

/// Continues flushing `conn.out`.
fn on_writable(conn: &mut Conn) -> After {
    flush(conn)
}

/// Writes as much of the pending response as the socket accepts, then
/// transitions the state machine.
fn flush(conn: &mut Conn) -> After {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return After::Drop,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return After::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return After::Drop,
        }
    }
    if conn.close_after_write {
        return After::Drop;
    }
    conn.out = Vec::new();
    conn.out_pos = 0;
    conn.state = ConnState::Reading;
    conn.last_activity = Instant::now();
    After::Keep
}

/// Moves finished worker responses onto their connections and starts
/// writing; keep-alive connections immediately try the next pipelined
/// request already sitting in their buffer.
fn apply_completions(
    state: &AppState,
    pools: &[WorkerPool<Job>],
    completions: &Mutex<Vec<Completion>>,
    conns: &mut HashMap<usize, Conn>,
) {
    let done: Vec<Completion> =
        std::mem::take(&mut *completions.lock().unwrap_or_else(PoisonError::into_inner));
    for completion in done {
        let Some(conn) = conns.get_mut(&completion.conn_id) else {
            continue;
        };
        conn.out = completion.bytes;
        conn.out_pos = 0;
        conn.close_after_write = !completion.keep_alive;
        conn.state = ConnState::Writing;
        let mut after = flush(conn);
        if matches!(after, After::Keep) && conn.state == ConnState::Reading && !conn.buf.is_empty()
        {
            after = try_dispatch(state, pools, completion.conn_id, conn);
        }
        if matches!(after, After::Drop) {
            conns.remove(&completion.conn_id);
        }
    }
}

/// Enforces the per-request budget (typed 408 on stalled partial
/// requests — the slow-loris defence) and the keep-alive idle timeout
/// (silent close; the peer owes us nothing).
fn sweep_deadlines(
    state: &AppState,
    conns: &mut HashMap<usize, Conn>,
    budget: Duration,
    idle_limit: Duration,
    draining: bool,
) {
    let mut expired: Vec<usize> = Vec::new();
    let mut idle: Vec<usize> = Vec::new();
    for (&id, conn) in conns.iter() {
        if conn.state != ConnState::Reading {
            continue;
        }
        match conn.request_started {
            Some(started) if started.elapsed() > budget => expired.push(id),
            None if conn.buf.is_empty()
                && (draining || conn.last_activity.elapsed() > idle_limit) =>
            {
                idle.push(id);
            }
            _ => {}
        }
    }
    for id in idle {
        conns.remove(&id);
    }
    for id in expired {
        let Some(conn) = conns.get_mut(&id) else {
            continue;
        };
        state.metrics.timeouts.inc();
        let err = crate::api::ApiError::timeout(u128::from(state.config.timeout_ms));
        let started = conn.request_started.unwrap_or_else(Instant::now);
        if matches!(
            inline_response(state, conn, "other", err.status, &err.body(), started),
            After::Drop
        ) {
            conns.remove(&id);
        }
    }
}
