//! `run-large`: the calls `cool run` makes, in-process — `Scenario::build`
//! once, then `greedy_schedule_lazy` again and again — on n = 2000,
//! m = 20000.

use crate::inputs::{scenario_text, stream};
use crate::report::{median, Report};
use crate::serve::{cpu_seconds, peak_rss_mb};
use crate::trace::{paired, report_overhead, Tracer, OP, PROBE};
use crate::Args;
use cool_common::SeedSequence;
use cool_core::greedy::greedy_schedule_lazy;
use cool_core::PeriodSchedule;
use cool_scenario::{BuiltScenario, Scenario};
use std::io;
use std::time::{Duration, Instant};

const SENSORS: usize = 2_000;
const TARGETS: usize = 20_000;
const REGION: f64 = 2_000.0;
/// Builds per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Solves replayed with spans, per pass.
const TRACED_SOLVES: usize = 30;

fn build(scenario: &Scenario) -> io::Result<BuiltScenario> {
    scenario.build().map_err(io::Error::other)
}

pub fn run(args: &Args) -> io::Result<Report> {
    let seed = SeedSequence::new(args.seed).nth_seed(stream::LARGE) >> 16;
    let text = scenario_text(SENSORS, TARGETS, REGION, true, seed);
    let scenario = Scenario::parse(&text).map_err(|e| io::Error::other(e.to_string()))?;

    let mut report = Report::default();
    let mut setups_s = Vec::new();
    let mut built = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(built.take());
        let started = Instant::now();
        built = Some(build(&scenario)?);
        setups_s.push(started.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one build");

    let cpu = cpu_seconds("self")?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut latencies = Vec::new();
    let mut first: Option<PeriodSchedule> = None;
    let mut differing = 0u64;
    while Instant::now() < deadline {
        let sent = Instant::now();
        let schedule = greedy_schedule_lazy(&built.problem);
        let op = (
            sent.duration_since(started).as_secs_f64(),
            sent.elapsed().as_secs_f64() * 1e3,
        );
        match &first {
            Some(f) if f.assignment() != schedule.assignment() => differing += 1,
            Some(_) => latencies.push(op),
            None => {
                first = Some(schedule);
                latencies.push(op);
            }
        }
    }
    let cpu_s = cpu_seconds("self")? - cpu;
    let rss = peak_rss_mb("self")?;
    let first = first.ok_or_else(|| io::Error::other("no solve finished in the window"))?;

    // Correctness: one schedule, feasible and within the optimum's bound.
    report.attempted = latencies.len() as u64 + differing;
    report.failed = differing;
    let average = built.problem.average_utility_per_target_slot(&first);
    let bound = scenario.average_bound(&built.problem, built.cycle);
    let feasible = first.is_feasible(built.cycle);
    if !(feasible && average <= bound) {
        report.failed = report.attempted;
    }
    report.check(feasible, "the schedule is feasible for the charge cycle");
    report.check(
        average <= bound,
        format!("average utility {average:.6} ≤ bound {bound:.6}"),
    );
    report.check(
        differing == 0,
        format!("{differing} solves differ from the first"),
    );
    let ops = (report.attempted - report.failed) as f64;
    report.set(
        "setup_s",
        median(&setups_s),
        format!("Scenario::build, median of {}", setups_s.len()),
    );
    report.timed_ops(&latencies, args.seconds);
    report.set(
        "cpu_ms_per_op",
        cpu_s * 1e3 / ops,
        format!("benchmark process user+sys {cpu_s:.2} s"),
    );
    report.set("peak_rss_mb", rss, "benchmark process VmHWM");
    report.set(
        "bench.client_cpu_ms_per_op",
        cpu_s * 1e3 / ops,
        "in-process: the benchmark is the process under test",
    );
    report.set(
        "bench.error_share",
        report.failed as f64 / report.attempted as f64,
        format!("{} of {}", report.failed, report.attempted),
    );

    if args.trace {
        drop(built);
        let mut tracer = Tracer::new(true);
        let built = tracer.span(PROBE, 0, |t| {
            t.span("scenario.build", 0, |_| build(&scenario))
        })?;
        let stats = cool_utility::stats::snapshot();
        let seconds = paired(
            TRACED_SOLVES,
            &mut tracer,
            &mut (),
            &mut (),
            |req, (), t| {
                let req = req as u64;
                t.span(OP, req, |t| {
                    t.span("core.solve", req, |_| greedy_schedule_lazy(&built.problem))
                });
                Ok(())
            },
        )
        .map_err(io::Error::other)?;
        let after = cool_utility::stats::snapshot();
        // Both sides of the pairing solve, so halve the query count.
        let queries = (after.gain_queries - stats.gain_queries) as f64 / 2.0;
        let parts = (after.parts_touched - stats.parts_touched) as f64 / 2.0;
        for (metric, span) in [
            ("scenario.build_ms", "scenario.build"),
            ("core.solve_ms", "core.solve"),
        ] {
            let d = tracer.durations_ms(span);
            report.set(
                metric,
                d.iter().sum::<f64>() / d.len() as f64,
                format!("traced replay, mean of {} calls", d.len()),
            );
        }
        report.set(
            "utility.gain_queries_per_op",
            queries / TRACED_SOLVES as f64,
            "cool_utility::stats delta per solve",
        );
        report.set(
            "utility.parts_per_query",
            if queries > 0.0 { parts / queries } else { 0.0 },
            "cool_utility::stats delta",
        );
        report_overhead(&mut report, &seconds);
        tracer.write(
            &args
                .out
                .join(format!("spans-run-large-{}.jsonl", args.seed)),
        )?;
    }
    Ok(report)
}
