//! # cool-serve — the scheduling daemon
//!
//! A std-only HTTP/1.1 JSON service around the `cool-core` schedulers,
//! turning the offline `cool run` pipeline into a long-lived daemon with
//! request batching, schedule caching, and an operational metrics surface.
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/v1/schedule` | POST | lint text stage → cache lookup → on a miss, lint instance stage → compute (greedy / lp-rounding / horizon) → schedule + per-slot utility JSON; `{"batch":[...]}` fans out over the worker pool |
//! | `/v1/lint` | POST | the `cool-lint` pre-flight as a standalone check |
//! | `/v1/scenario` | PUT | create a live session: lint, solve, store (LRU-bounded; evicted/deleted ids answer 410) |
//! | `/v1/scenario/{id}` | PATCH | apply a delta sequence with warm-start schedule repair |
//! | `/v1/scenario/{id}/schedule` | GET | the session's current schedule |
//! | `/v1/scenario/{id}` | DELETE | drop the session |
//! | `/healthz` | GET | liveness probe |
//! | `/metrics` | GET | Prometheus text: request counts, latency histogram, cache hit/miss, lint pre-flights, queue depth |
//! | `/v1/shutdown` | POST | graceful drain: stop intake, finish accepted work, exit |
//!
//! Architecture (DESIGN.md §8/§13): a non-blocking `poll(2)` event loop
//! multiplexes HTTP/1.1 keep-alive connections (request pipelining, idle
//! timeout, per-connection request cap) and feeds parsed requests to
//! **bounded** worker-queue shards backed by
//! [`cool_common::parallel::WorkerPool`]; a full shard sheds load with
//! HTTP 429 (`COOL-E018`), requests past their wall-clock budget answer
//! 408 (`COOL-E017`), and successful schedule bodies are memoised in a
//! content-addressed, N-way-sharded LRU cache — sound because a body is a
//! pure function of its lookup key (canonical scenario, algorithm, `audit`
//! flag, the lint text stage's warnings, and any overrides), which the
//! cheap text stage computes; only a miss runs the lint instance stage
//! ([`api::resolve`], [`api::preflight`]).
//!
//! Everything here is `std`-only: no TLS, no async runtime, no serde. The
//! protocol subset (`Content-Length` bodies only, bounded lines/headers)
//! is deliberately small and fully bounded. The transport is built on
//! `poll(2)`, so the crate builds on unix targets only.

#[cfg(not(unix))]
compile_error!("cool-serve needs poll(2): its event loop builds on unix targets only");

pub mod api;
pub mod cache;
pub mod client;
pub(crate) mod event;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod poll;
pub mod server;
pub mod session_api;
pub mod shard;
pub mod smoke;

pub use api::{Algorithm, ApiError};
pub use cache::{CacheKey, LruCache};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use server::{Server, ServerConfig};
pub use smoke::{run_session_smoke, run_smoke};
