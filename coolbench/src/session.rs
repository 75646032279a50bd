//! `session-patch`: each connection owns one n=400/m=40 session and
//! PATCHes it one valid delta at a time.

use crate::inputs::{paper_region, patch_body, scenario_text, schedule_body, stream, DeltaGen};
use crate::load::{drive, Call, Exchange, Lane};
use crate::report::Report;
use crate::schedule::interleave;
use crate::serve::{lane_count, report_timed, timed};
use crate::trace::{paired, report_replay, Tracer, OP, PROBE};
use crate::Args;
use cool_common::json;
use cool_common::{parallel_map, SeedSequence};
use cool_core::RepairConfig;
use cool_scenario::Scenario;
use cool_serve::client;
use cool_serve::session_api::{parse_patch_body, render_patch_response, render_schedule_response};
use cool_serve::shard::ShardedSessions;
use cool_serve::ServerConfig;
use cool_session::{SessionEntry, SessionInstance, SessionStore};
use std::cell::RefCell;
use std::io;
use std::time::Instant;

const SENSORS: usize = 400;
const TARGETS: usize = 40;
/// PATCHes replayed with spans, per pass (≈ 2 s of replay each).
const TRACED_OPS: usize = 4000;

/// One connection's session: its scenario and starting instance.
struct Owned {
    text: String,
    instance: SessionInstance,
}

/// Lane `lane`'s session: ρ = 3 on even lanes and ρ = 1/3 on odd ones.
/// Seeds are drawn until the session's id maps to the lane's own store
/// shard of a default daemon, so the lanes' PATCH streams never wait on
/// each other's shard lock and throughput does not flip between two
/// levels from seed to seed.
fn owned(seeds: SeedSequence, lane: usize) -> io::Result<Owned> {
    let config = ServerConfig::default();
    let store = ShardedSessions::new(config.cache_shards(), config.session_cap);
    let sunny = lane.is_multiple_of(2);
    for k in 0.. {
        let seed = seeds.nth_seed(lane as u64 * 1_000 + k) >> 16;
        let text = scenario_text(SENSORS, TARGETS, paper_region(SENSORS), sunny, seed);
        let scenario = Scenario::parse(&text).map_err(|e| io::Error::other(e.to_string()))?;
        let instance = SessionInstance::from_scenario(&scenario).map_err(io::Error::other)?;
        if store.shard_for_instance(&instance) == lane % store.shard_count() {
            return Ok(Owned { text, instance });
        }
    }
    unreachable!("the seed search is unbounded")
}

pub fn run(args: &Args) -> io::Result<Report> {
    let seeds = SeedSequence::new(args.seed).child(stream::SESSIONS);
    let sessions: Vec<Owned> = (0..lane_count())
        .map(|lane| owned(seeds, lane))
        .collect::<io::Result<_>>()?;

    let ids = RefCell::new(Vec::new());
    let warm_up = |addr, lanes: &mut [Lane]| {
        let gens = sessions
            .iter()
            .map(|s| {
                let mut put = Some(Call {
                    method: "PUT",
                    path: "/v1/scenario".into(),
                    body: schedule_body(&s.text),
                });
                move || put.take()
            })
            .collect();
        let logs = drive(addr, lanes, gens, Instant::now(), None);
        *ids.borrow_mut() = logs
            .iter()
            .map(|log| {
                log.first()
                    .and_then(Exchange::body)
                    .and_then(|b| json::parse(b).ok())
                    .and_then(|v| v.get("session")?.as_str().map(str::to_string))
                    .ok_or_else(|| io::Error::other("PUT /v1/scenario failed"))
            })
            .collect::<io::Result<_>>()?;
        Ok(())
    };
    let gens = || {
        let ids = ids.borrow();
        sessions
            .iter()
            .zip(ids.iter())
            .enumerate()
            .map(|(lane, (s, id))| {
                let mut deltas = DeltaGen::new(&s.instance, seeds.nth_rng(100 + lane as u64));
                let path = format!("/v1/scenario/{id}");
                move || {
                    Some(Call {
                        method: "PATCH",
                        path: path.clone(),
                        body: patch_body(&deltas.next_delta()),
                    })
                }
            })
            .collect::<Vec<_>>()
    };
    let (t, server) = timed(args, warm_up, gens)?;
    let ids = ids.into_inner();
    let finals: Vec<Option<String>> = ids
        .iter()
        .map(|id| {
            client::request(
                server.addr,
                "GET",
                &format!("/v1/scenario/{id}/schedule"),
                &[],
                "",
            )
            .ok()
            .filter(|r| r.status == 200)
            .map(|r| r.body)
        })
        .collect();
    server.shutdown()?;

    // Correctness, outside the window: replay each session's delta
    // sequence offline through SessionEntry::patch; every PATCH response
    // and the final schedule must match byte for byte.
    let config = RepairConfig {
        full_threshold: ServerConfig::default().repair_threshold,
    };
    let lanes: Vec<usize> = (0..sessions.len()).collect();
    let verdicts = parallel_map(lane_count(), lanes, |lane| {
        check_session(
            &sessions[lane],
            &ids[lane],
            &t.logs[lane],
            finals[lane].as_deref(),
            &config,
        )
    });
    let mut report = Report::default();
    let mut good = Vec::new();
    for (lane, (matched, final_ok)) in verdicts.into_iter().enumerate() {
        let log = &t.logs[lane];
        report.attempted += log.len() as u64;
        report.failed += (log.len() - matched) as u64;
        good.extend(log[..matched].iter().map(|e| (e.sent_s, e.latency_ms)));
        report.check(
            final_ok,
            format!("session {lane}: final GET schedule equals the offline replay"),
        );
    }
    report.check(
        report.failed == 0,
        format!(
            "{} of {} PATCH responses are 200 and byte-identical to the offline replay",
            good.len(),
            report.attempted
        ),
    );
    let d = t.delta();
    let full = d.of("cool_session_repairs_total{mode=\"full\"}");
    let incremental = d.of("cool_session_repairs_total{mode=\"incremental\"}");
    report.check(full == 0.0, format!("gate: {full} full re-solves"));
    report_timed(&mut report, &t, &good);
    report.set(
        "session.full_repair_share",
        full / (full + incremental).max(1.0),
        format!("of {} repairs", full + incremental),
    );

    if args.trace {
        let ops: Vec<(usize, &str)> = interleave(&t.logs)
            .take(TRACED_OPS)
            .map(|(lane, e)| (lane, e.call.body.as_str()))
            .collect();
        let fresh = || -> io::Result<(Vec<SessionEntry>, u64)> {
            let entries = sessions
                .iter()
                .map(|s| SessionEntry::solve(s.instance.clone()).map_err(io::Error::other))
                .collect::<io::Result<_>>()?;
            Ok((entries, 0))
        };
        let mut tracer = Tracer::new(true);
        let mut traced = fresh()?;
        let seconds = paired(
            ops.len(),
            &mut tracer,
            &mut fresh()?,
            &mut traced,
            |req, (entries, cells), t| {
                let (lane, body) = ops[req];
                *cells += replay(req as u64, body, &ids[lane], &mut entries[lane], &config, t)?;
                Ok(())
            },
        )
        .map_err(io::Error::other)?;
        let cells = traced.1;
        for (lane, s) in sessions.iter().enumerate() {
            let scenario = Scenario::parse(&s.text).map_err(|e| io::Error::other(e.to_string()))?;
            tracer
                .span(PROBE, lane as u64, |t| {
                    t.span("scenario.build", lane as u64, |_| scenario.build())
                })
                .map_err(io::Error::other)?;
        }
        report_replay(&mut report, &tracer, &seconds);
        report.set(
            "session.cells_per_patch",
            cells as f64 / ops.len().max(1) as f64,
            format!("PatchStats.cells_touched, {} patches", ops.len()),
        );
        tracer.write(
            &args
                .out
                .join(format!("spans-session-patch-{}.jsonl", args.seed)),
        )?;
    }
    Ok(report)
}

/// Replays one lane's exchanges from a freshly created session. Returns
/// how many leading exchanges matched (replay stops at the first that did
/// not: later state is unknown) and whether the final schedule matched.
fn check_session(
    owned: &Owned,
    id: &str,
    log: &[Exchange],
    final_body: Option<&str>,
    config: &RepairConfig,
) -> (usize, bool) {
    let Ok(mut entry) = SessionEntry::solve(owned.instance.clone()) else {
        return (0, false);
    };
    if SessionStore::session_id(entry.instance()) != id {
        return (0, false);
    }
    for (i, e) in log.iter().enumerate() {
        let Some(got) = e.body() else {
            return (i, false);
        };
        let Ok(deltas) = parse_patch_body(e.call.body.as_bytes()) else {
            return (i, false);
        };
        let Ok(stats) = deltas
            .iter()
            .map(|d| entry.patch(d, config))
            .collect::<Result<Vec<_>, _>>()
        else {
            return (i, false);
        };
        if render_patch_response(id, &entry, &stats) != got {
            return (i, false);
        }
    }
    (
        log.len(),
        final_body == Some(render_schedule_response(id, &entry).as_str()),
    )
}

/// Replays one PATCH in-process in the server's order — parse the body,
/// patch the session, render the response. Returns the cells the repairs
/// touched.
fn replay(
    req: u64,
    body: &str,
    id: &str,
    entry: &mut SessionEntry,
    config: &RepairConfig,
    t: &mut Tracer,
) -> Result<u64, String> {
    t.span(OP, req, |t| {
        let deltas = t
            .span("serve.parse", req, |_| parse_patch_body(body.as_bytes()))
            .map_err(|e| e.message)?;
        let stats = t.span("session.patch", req, |_| {
            deltas
                .iter()
                .map(|d| entry.patch(d, config))
                .collect::<Result<Vec<_>, _>>()
        })?;
        t.span("serve.render", req, |_| {
            render_patch_response(id, entry, &stats)
        });
        Ok(stats.iter().map(|s| s.cells_touched).sum())
    })
}
