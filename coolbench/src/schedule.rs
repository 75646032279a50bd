//! `hit-paper` and `miss-paper`: `POST /v1/schedule` over the Fig. 8/9
//! grid, every timed request a cache hit or every one a miss.

use crate::inputs::{paper_body, paper_set, stream};
use crate::load::{drive, Call, Exchange, Lane};
use crate::report::Report;
use crate::serve::{lane_count, report_timed, timed};
use crate::trace::{paired, report_replay, Tracer, OP, PROBE};
use crate::Args;
use cool_common::{parallel_map, SeedSequence};
use cool_core::greedy::greedy_schedule_lazy;
use cool_serve::api::{
    cache_key, compute_response, parse_schedule_body, resolve_and_lint, ScheduleBody,
};
use cool_serve::shard::ShardedCache;
use cool_serve::ServerConfig;
use rand::Rng;
use std::collections::HashMap;
use std::io;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A fixed set that fits the default cache, filled during set-up.
    Hit,
    /// A fresh scenario seed per request.
    Miss,
}

/// `hit-paper` bodies per (grid cell, weather): 48 in all, so even if every
/// key hashed to one cache shard it would still fit the default cache.
const HIT_PER_CELL: usize = 3;
/// Requests replayed with spans, per pass (≈ 2 s of replay each).
const TRACED_OPS: usize = 400;

/// The body `cool serve` should answer for a request, computed in-process
/// by the same public calls the server makes.
fn expected_body(request: &str) -> Option<String> {
    let ScheduleBody::Single(item) = parse_schedule_body(request.as_bytes()).ok()? else {
        return None;
    };
    let (scenario, warnings) = resolve_and_lint(&item).ok()?;
    compute_response(&scenario, &item.algorithm, &warnings).ok()
}

fn expected_bodies(requests: Vec<&str>) -> Vec<Option<String>> {
    parallel_map(lane_count(), requests, expected_body)
}

fn post(body: String) -> Call {
    Call {
        method: "POST",
        path: "/v1/schedule".into(),
        body,
    }
}

pub fn run(args: &Args, mode: Mode) -> io::Result<Report> {
    let seeds = SeedSequence::new(args.seed);
    // Set-up sends `warm` once: the hit set fills the cache; for misses it
    // warms the daemon on requests the timed window never repeats.
    let warm = match mode {
        Mode::Hit => paper_set(seeds.child(stream::HIT_ITEMS), HIT_PER_CELL),
        Mode::Miss => paper_set(seeds.child(stream::MISS_WARMUP), 1),
    };
    let warm_expected: HashMap<&str, String> = warm
        .iter()
        .map(String::as_str)
        .zip(expected_bodies(warm.iter().map(String::as_str).collect()))
        .map(|(request, body)| body.map(|b| (request, b)))
        .collect::<Option<_>>()
        .ok_or_else(|| io::Error::other("a generated body failed in-process"))?;

    let mut warm_mismatches = 0usize;
    let warm_up = |addr, lanes: &mut [Lane]| {
        let n = lanes.len();
        let gens = (0..n)
            .map(|l| {
                let mut bodies = warm.iter().skip(l).step_by(n).cloned();
                move || bodies.next().map(post)
            })
            .collect();
        let logs = drive(addr, lanes, gens, Instant::now(), None);
        warm_mismatches += logs
            .iter()
            .flatten()
            .filter(|e| e.body() != warm_expected.get(e.call.body.as_str()).map(String::as_str))
            .count();
        Ok(())
    };
    let gens = || {
        (0..lane_count() as u64)
            .map(|lane| {
                let mut rng = seeds.child(stream::LANES).nth_rng(lane);
                let warm = &warm;
                move || {
                    Some(post(match mode {
                        Mode::Hit => warm[rng.random_range(0..warm.len())].clone(),
                        Mode::Miss => paper_body(&mut rng),
                    }))
                }
            })
            .collect::<Vec<_>>()
    };
    let (t, server) = timed(args, warm_up, gens)?;
    server.shutdown()?;

    let mut report = Report::default();
    report.check(
        warm_mismatches == 0,
        format!("set-up: {warm_mismatches} warm-up bodies differ from compute_response"),
    );

    // Correctness, outside the window: every 200 body byte-identical to
    // compute_response on the same request, computed in-process.
    let exchanges: Vec<&Exchange> = t.logs.iter().flatten().collect();
    let expected: Vec<Option<String>> = match mode {
        Mode::Hit => exchanges
            .iter()
            .map(|e| warm_expected.get(e.call.body.as_str()).cloned())
            .collect(),
        Mode::Miss => expected_bodies(
            exchanges
                .iter()
                .map(|e| if e.ok() { e.call.body.as_str() } else { "" })
                .collect(),
        ),
    };
    let mut good = Vec::new();
    for (e, want) in exchanges.iter().zip(&expected) {
        report.attempted += 1;
        match (e.body(), want) {
            (Some(got), Some(want)) if got == want => good.push((e.sent_s, e.latency_ms)),
            _ => report.failed += 1,
        }
    }
    report.check(
        report.failed == 0,
        format!(
            "{} of {} timed responses are 200 and byte-identical to compute_response",
            good.len(),
            report.attempted
        ),
    );
    let d = t.delta();
    let (hits, misses, evictions) = (
        d.of("cool_cache_hits_total"),
        d.of("cool_cache_misses_total"),
        d.of("cool_cache_evictions_total"),
    );
    match mode {
        Mode::Hit => report.check(
            hits == report.attempted as f64 && misses == 0.0 && evictions == 0.0,
            format!(
                "gate: {hits} hits, {misses} misses, {evictions} evictions for {} requests",
                report.attempted
            ),
        ),
        Mode::Miss => report.check(hits == 0.0, format!("gate: {hits} cache hits")),
    }
    report_timed(&mut report, &t, &good);

    if args.trace {
        let ops: Vec<&str> = interleave(&t.logs)
            .filter(|(_, e)| e.ok())
            .take(TRACED_OPS)
            .map(|(_, e)| e.call.body.as_str())
            .collect();
        let warm_cache: Vec<_> = match mode {
            Mode::Hit => warm_expected
                .iter()
                .map(|(request, body)| (key_of(request), body.clone()))
                .collect(),
            Mode::Miss => Vec::new(),
        };
        let fresh_cache = || {
            let config = ServerConfig::default();
            let cache = ShardedCache::new(config.cache_shards(), config.cache_cap);
            for (key, body) in &warm_cache {
                cache.insert(key.clone(), body.clone());
            }
            cache
        };
        let mut tracer = Tracer::new(true);
        let seconds = paired(
            ops.len(),
            &mut tracer,
            &mut fresh_cache(),
            &mut fresh_cache(),
            |req, cache, t| replay(req as u64, ops[req], cache, t),
        )
        .map_err(io::Error::other)?;
        report_replay(&mut report, &tracer, &seconds);
        tracer.write(&args.out.join(format!(
            "spans-{}-{}.jsonl",
            if mode == Mode::Hit {
                "hit-paper"
            } else {
                "miss-paper"
            },
            args.seed
        )))?;
    }
    Ok(report)
}

/// Exchanges with their lane, in send order across lanes: first of each
/// lane, then second…
pub fn interleave(logs: &[Vec<Exchange>]) -> impl Iterator<Item = (usize, &Exchange)> {
    let longest = logs.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(move |i| {
        logs.iter()
            .enumerate()
            .filter_map(move |(lane, log)| log.get(i).map(|e| (lane, e)))
    })
}

fn key_of(request: &str) -> cool_serve::CacheKey {
    let ScheduleBody::Single(item) = parse_schedule_body(request.as_bytes()).expect("checked")
    else {
        unreachable!("generated bodies are single items")
    };
    let (scenario, _) = resolve_and_lint(&item).expect("checked");
    cache_key(&scenario, &item.algorithm)
}

/// Replays one request in-process in the server's order — parse, lint
/// pre-flight, canonical hash and cache lookup, and on a miss compute and
/// cache fill. After a miss, a probe span times the scenario build and the
/// solve that `compute_response` made inside.
fn replay(req: u64, body: &str, cache: &ShardedCache, t: &mut Tracer) -> Result<(), String> {
    let miss = t.span(OP, req, |t| {
        let parsed = t.span("serve.parse", req, |_| parse_schedule_body(body.as_bytes()));
        let Ok(ScheduleBody::Single(item)) = parsed else {
            return Err("replayed body no longer parses".to_string());
        };
        let (scenario, warnings) = t
            .span("lint.preflight", req, |_| resolve_and_lint(&item))
            .map_err(|e| e.message)?;
        let (key, hit) = t.span("serve.cache_lookup", req, |_| {
            let key = cache_key(&scenario, &item.algorithm);
            let hit = cache.get(&key);
            (key, hit)
        });
        if hit.is_some() {
            return Ok(None);
        }
        let response = t
            .span("serve.compute", req, |_| {
                compute_response(&scenario, &item.algorithm, &warnings)
            })
            .map_err(|e| e.message)?;
        t.span("serve.cache_insert", req, |_| cache.insert(key, response));
        Ok(Some(scenario))
    })?;
    if let Some(scenario) = miss {
        t.span(PROBE, req, |t| {
            let built = t
                .span("scenario.build", req, |_| scenario.build())
                .map_err(|e| e.to_string())?;
            t.span("core.solve", req, |_| greedy_schedule_lazy(&built.problem));
            Ok::<(), String>(())
        })?;
    }
    Ok(())
}
