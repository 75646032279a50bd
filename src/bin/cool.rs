//! `cool` — schedule solar-powered sensor coverage from a scenario file,
//! and run the charging-pattern measurement pipeline on harvest traces.
//!
//! ```text
//! cool run [scenario.txt] [--set key=value]...   # run a scenario (mixed fleets
//!                                                # and rsc/set-once/hef go to
//!                                                # the LCM tick grid)
//! cool lint <scenario.txt>... [--format text|json|sarif]
//!                                                # static checks, COOL-coded diagnostics
//! cool audit <scenario.txt>... [--format text|json|sarif] [--initial-charge LO[:HI]]
//!                                                # deep static analysis: abstract energy
//!                                                # proofs, dominance, connectivity
//! cool template                                  # print a scenario template
//! cool trace [--weather W] [--seed N] [--out F]  # synthesize a day's harvest trace (CSV)
//! cool estimate <trace.csv> [--discharge M] [--capacity MAH]
//!                                                # fit (T_d, T_r, rho) from a trace
//! cool serve [--addr A] [--threads N] [--queue-cap N] [--cache-cap N]
//!            [--timeout-ms N] [--session-cap N] [--shards N]
//!            [--keep-alive-max N] [--idle-timeout-ms N]
//!            [--smoke scenario.txt] [--session-smoke scenario.txt]
//!                                                # HTTP scheduling daemon
//! cool loadgen [--addr A] [--duration-ms N] [--concurrency N] [--rate R]
//!              [--session-ratio F] [--distinct N] [--seed N]
//!              [--shutdown] [--json]
//!                                                # drive load at a daemon,
//!                                                # report throughput + latency
//! cool session --replay <deltas.txt> [scenario.txt] [--set key=value]...
//!                                                # replay a delta script with
//!                                                # warm-start schedule repair
//! cool check [--seed N] [--cases N] [--lp-trials N] [--ratio R]
//!            [--no-serve] [--out DIR] [--replay FILE]
//!                                                # differential-testing harness
//! cool --version                                 # print the version
//! ```
//!
//! `cool lint` and `cool audit` exit 0 when every file is clean (warnings
//! allowed), 1 when any carries errors, and 2 on usage or I/O problems.
//! Malformed flag values (a non-numeric `--threads`, a `--set` without
//! `key=value`, …) exit 2 with a message naming the offending flag.

use cool::check::CheckConfig;
use cool::common::SeedSequence;
use cool::core::RepairConfig;
use cool::energy::{
    core_window_stability, estimate_pattern, fit_pattern, HarvestConfig, HarvestTrace, Weather,
};
use cool::scenario::Scenario;
use cool::serve::{run_loadgen, run_session_smoke, run_smoke, LoadgenConfig, Server, ServerConfig};
use cool::session::{parse_deltas, SessionEntry, SessionInstance};
use std::process::ExitCode;

/// Writes to stdout, exiting quietly if the reader closed the pipe early
/// (`cool ... | head` must not panic).
fn emit(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

/// Reports a malformed flag value: exit 2 with a message that names the
/// offending flag instead of dumping the whole usage text.
fn flag_error(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {message}");
    eprintln!("run `cool` without arguments for usage");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--version" | "-V" | "version") => {
            emit(concat!("cool ", env!("CARGO_PKG_VERSION"), "\n"));
            ExitCode::SUCCESS
        }
        Some("template") => {
            emit(&Scenario::template());
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("audit") => audit(&args[1..]),
        Some("trace") => trace(&args[1..]),
        Some("estimate") => estimate(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("loadgen") => loadgen(&args[1..]),
        Some("session") => session(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => usage(),
    }
}

/// Rendering for `cool lint` / `cool audit` reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutputFormat {
    /// Human-readable text (the `Report` `Display` impl).
    Text,
    /// The stable JSON diagnostics contract.
    Json,
    /// SARIF v2.1.0 for CI code-scanning pipelines.
    Sarif,
}

impl OutputFormat {
    fn parse(s: &str) -> Option<OutputFormat> {
        match s {
            "text" => Some(OutputFormat::Text),
            "json" => Some(OutputFormat::Json),
            "sarif" => Some(OutputFormat::Sarif),
            _ => None,
        }
    }

    /// Renders one report (text ends with its own newline already).
    fn render(self, report: &cool::lint::Report) {
        match self {
            OutputFormat::Text => emit(&report.to_string()),
            OutputFormat::Json => {
                emit(&report.to_json());
                emit("\n");
            }
            OutputFormat::Sarif => {
                emit(&cool::lint::to_sarif(report));
                emit("\n");
            }
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = OutputFormat::Text;
    let mut paths: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => format = OutputFormat::Json, // legacy alias
            "--format" => {
                let Some(f) = iter
                    .next()
                    .map(String::as_str)
                    .and_then(OutputFormat::parse)
                else {
                    return flag_error("--format needs text | json | sarif");
                };
                format = f;
            }
            path if !path.starts_with('-') => paths.push(arg),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    if paths.is_empty() {
        eprintln!("lint needs at least one scenario file");
        return usage();
    }
    let mut worst = ExitCode::SUCCESS;
    for path in paths {
        match cool::lint::lint_scenario_path(path) {
            Ok(report) => {
                format.render(&report);
                if !report.is_clean() {
                    worst = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    worst
}

/// Parses `--initial-charge LO[:HI]` into a battery-fraction interval.
fn parse_charge_interval(spec: &str) -> Result<cool::common::Interval, String> {
    let (lo_text, hi_text) = match spec.split_once(':') {
        Some((lo, hi)) => (lo, hi),
        None => (spec, spec),
    };
    let parse = |s: &str| -> Result<f64, String> {
        s.trim()
            .parse::<f64>()
            .map_err(|_| format!("--initial-charge: `{s}` is not a number"))
    };
    let (lo, hi) = (parse(lo_text)?, parse(hi_text)?);
    if !(lo.is_finite() && hi.is_finite() && (0.0..=1.0).contains(&lo) && lo <= hi && hi <= 1.0) {
        return Err(format!(
            "--initial-charge: need 0 <= LO <= HI <= 1, got `{spec}`"
        ));
    }
    Ok(cool::common::Interval::new(lo, hi))
}

/// `cool audit` — the whole-scenario static-analysis bundle: scenario lint
/// plus abstract-interpretation energy proofs (`COOL-E025`), dominance and
/// dead-slot analysis (`COOL-W007`/`W008`), and the connectivity lint
/// (`COOL-W009`). Exit codes match `cool lint`.
fn audit(args: &[String]) -> ExitCode {
    let mut format = OutputFormat::Text;
    let mut options = cool::lint::AuditOptions::default();
    let mut paths: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => format = OutputFormat::Json,
            "--format" => {
                let Some(f) = iter
                    .next()
                    .map(String::as_str)
                    .and_then(OutputFormat::parse)
                else {
                    return flag_error("--format needs text | json | sarif");
                };
                format = f;
            }
            "--initial-charge" => {
                let Some(spec) = iter.next() else {
                    return flag_error(
                        "--initial-charge needs LO or LO:HI (battery fractions in [0, 1])",
                    );
                };
                match parse_charge_interval(spec) {
                    Ok(interval) => options.initial_charge = interval,
                    Err(e) => return flag_error(e),
                }
            }
            path if !path.starts_with('-') => paths.push(arg),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    if paths.is_empty() {
        eprintln!("audit needs at least one scenario file");
        return usage();
    }
    let mut worst = ExitCode::SUCCESS;
    for path in paths {
        match cool::lint::audit_scenario_path(path, &options) {
            Ok(outcome) => {
                format.render(&outcome.report);
                if format == OutputFormat::Text {
                    eprintln!(
                        "{path}: ∀-initial-charge feasibility {}",
                        if outcome.universally_feasible {
                            "proved"
                        } else {
                            "not proved"
                        }
                    );
                }
                if !outcome.report.is_clean() {
                    worst = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    worst
}

/// Reads the scenario arguments `cool run` and `cool session` share: a
/// scenario file (exit 1 when it cannot be read or parsed) and `--set
/// key=value` overrides (exit 2 when malformed). Every other argument goes
/// to `other`, with the iterator to take its value from; it returns the
/// exit code to bail with.
fn scenario_args<'a>(
    args: &'a [String],
    mut other: impl FnMut(&str, &mut std::slice::Iter<'a, String>) -> Result<(), ExitCode>,
) -> Result<Scenario, ExitCode> {
    let mut scenario = Scenario::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--set" => {
                let Some(pair) = iter.next() else {
                    return Err(flag_error("--set needs key=value"));
                };
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(flag_error(format!("--set needs key=value, got `{pair}`")));
                };
                if let Err(e) = scenario.set(key.trim(), value.trim()) {
                    return Err(flag_error(format!("--set {pair}: {e}")));
                }
            }
            path if !path.starts_with('-') => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    eprintln!("cannot read {path}: {e}");
                    ExitCode::FAILURE
                })?;
                scenario = Scenario::parse(&text).map_err(|e| {
                    eprintln!("error in {path}: {e}");
                    ExitCode::FAILURE
                })?;
            }
            flag => other(flag, &mut iter)?,
        }
    }
    Ok(scenario)
}

fn run(args: &[String]) -> ExitCode {
    let scenario = match scenario_args(args, |other, _| {
        eprintln!("unknown argument `{other}`");
        Err(usage())
    }) {
        Ok(scenario) => scenario,
        Err(code) => return code,
    };
    // Mixed fleets (per-sensor profile lists) and the strip-cover
    // schedulers live on the LCM tick grid; everything else keeps the
    // homogeneous slot path bit-for-bit.
    if scenario.has_profiles() || scenario.scheduler.is_grid_scheduler() {
        return match scenario.run_fleet() {
            Ok(outcome) => {
                emit(&outcome.to_string());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match scenario.run() {
        Ok(outcome) => {
            emit(&outcome.to_string());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_weather(s: &str) -> Option<Weather> {
    match s {
        "sunny" => Some(Weather::Sunny),
        "partly-cloudy" => Some(Weather::PartlyCloudy),
        "overcast" => Some(Weather::Overcast),
        "rainy" => Some(Weather::Rainy),
        _ => None,
    }
}

fn trace(args: &[String]) -> ExitCode {
    let mut weather = Weather::Sunny;
    let mut seed = 2011u64;
    let mut out: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--weather" => {
                let Some(w) = iter.next().map(String::as_str).and_then(parse_weather) else {
                    return flag_error("--weather needs sunny | partly-cloudy | overcast | rainy");
                };
                weather = w;
            }
            "--seed" => {
                let Some(s) = iter.next().and_then(|s| s.parse().ok()) else {
                    return flag_error("--seed needs a non-negative integer");
                };
                seed = s;
            }
            "--out" => {
                let Some(path) = iter.next() else {
                    return flag_error("--out needs a path");
                };
                out = Some(path.clone());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let config = HarvestConfig {
        weather,
        ..HarvestConfig::default()
    };
    let trace = HarvestTrace::generate(config, &mut SeedSequence::new(seed).nth_rng(0));
    let csv = trace.to_csv();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path} ({weather}, seed {seed})");
        }
        None => emit(&csv),
    }
    ExitCode::SUCCESS
}

fn estimate(args: &[String]) -> ExitCode {
    use std::fmt::Write as _;
    let mut path: Option<&String> = None;
    let mut discharge = 15.0f64;
    let mut capacity = 30.0f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--discharge" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(v) if v > 0.0 => discharge = v,
                _ => return flag_error("--discharge needs positive minutes"),
            },
            "--capacity" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(v) if v > 0.0 => capacity = v,
                _ => return flag_error("--capacity needs positive mAh"),
            },
            p if !p.starts_with('-') => path = Some(arg),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let Some(path) = path else {
        eprintln!("estimate needs a trace CSV path");
        return usage();
    };
    let csv = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match HarvestTrace::from_csv(HarvestConfig::default(), &csv) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let windows = estimate_pattern(&trace, 120.0, capacity);
    let mut out = format!("2-hour windows (battery {capacity} mAh):\n");
    for w in &windows {
        let _ = writeln!(
            out,
            "  {:>5.0}–{:<5.0} min  mean {:>6.2} mA  T_r ≈ {:>7.1} min",
            w.start_minute, w.end_minute, w.mean_current_ma, w.recharge_minutes
        );
    }
    if let Some(cv) = core_window_stability(&windows) {
        let _ = writeln!(out, "core-window stability (CV): {cv:.3}");
    }
    if let Some(pattern) = fit_pattern(&windows, discharge) {
        let _ = writeln!(out, "fitted pattern: {pattern}");
        match pattern.quantize() {
            Ok(cycle) => {
                let _ = writeln!(out, "quantized cycle: {cycle}");
            }
            Err(e) => {
                let _ = writeln!(out, "quantization failed: {e}");
            }
        }
        emit(&out);
        ExitCode::SUCCESS
    } else {
        eprintln!("error: no usable charging window in the trace");
        ExitCode::FAILURE
    }
}

#[allow(clippy::too_many_lines)]
fn serve(args: &[String]) -> ExitCode {
    let mut config = ServerConfig::default();
    let mut smoke: Option<String> = None;
    let mut session_smoke: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(addr) = iter.next() else {
                    return flag_error("--addr needs host:port");
                };
                config.addr.clone_from(addr);
            }
            "--threads" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.threads = n,
                _ => return flag_error("--threads needs a positive integer"),
            },
            "--queue-cap" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.queue_cap = n,
                _ => return flag_error("--queue-cap needs a positive integer"),
            },
            "--cache-cap" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.cache_cap = n,
                _ => return flag_error("--cache-cap needs a positive integer"),
            },
            "--timeout-ms" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => config.timeout_ms = n,
                _ => return flag_error("--timeout-ms needs a positive integer"),
            },
            "--session-cap" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.session_cap = n,
                _ => return flag_error("--session-cap needs a positive integer"),
            },
            "--shards" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.shards = n,
                _ => return flag_error("--shards needs a positive integer"),
            },
            "--keep-alive-max" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.keep_alive_max = n,
                _ => return flag_error("--keep-alive-max needs a positive integer"),
            },
            "--idle-timeout-ms" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => config.idle_timeout_ms = n,
                _ => return flag_error("--idle-timeout-ms needs a positive integer"),
            },
            "--smoke" => {
                let Some(path) = iter.next() else {
                    return flag_error("--smoke needs a scenario path");
                };
                smoke = Some(path.clone());
            }
            "--session-smoke" => {
                let Some(path) = iter.next() else {
                    return flag_error("--session-smoke needs a scenario path");
                };
                session_smoke = Some(path.clone());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    if let Some(path) = smoke {
        // Self-contained CI probe: boot on an ephemeral port, drive the
        // full protocol, print the final /metrics page for scraping.
        return match run_smoke(&path) {
            Ok(page) => {
                emit(&page);
                eprintln!("serve smoke: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = session_smoke {
        // The session-lifecycle CI probe: PUT → PATCH (with a full-repair
        // forcing ρ change) → GET must match an offline from-scratch
        // solve bit-for-bit → DELETE answers 410 afterwards.
        return match run_session_smoke(&path) {
            Ok(page) => {
                emit(&page);
                eprintln!("session smoke: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("session smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Ok(addr) = server.local_addr() {
        eprintln!("cool-serve listening on http://{addr} (POST /v1/shutdown to stop)");
    }
    match server.run() {
        Ok(()) => {
            eprintln!("cool-serve drained in-flight requests and stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `cool loadgen` — drive deterministic schedule/session traffic at a
/// running daemon and report throughput and latency percentiles.
/// Exit codes: 0 on a completed run, 1 when the daemon is unreachable,
/// 2 on usage problems.
fn loadgen(args: &[String]) -> ExitCode {
    let mut config = LoadgenConfig::default();
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(addr) = iter.next() else {
                    return flag_error("--addr needs host:port");
                };
                config.addr.clone_from(addr);
            }
            "--duration-ms" => match iter.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) if n >= 1 => config.duration_ms = n,
                _ => return flag_error("--duration-ms needs a positive integer"),
            },
            "--concurrency" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.concurrency = n,
                _ => return flag_error("--concurrency needs a positive integer"),
            },
            "--rate" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(r) if r > 0.0 && r.is_finite() => config.rate = Some(r),
                _ => return flag_error("--rate needs positive requests/second"),
            },
            "--session-ratio" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => config.session_ratio = f,
                _ => return flag_error("--session-ratio needs a fraction in [0, 1]"),
            },
            "--distinct" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.distinct = n,
                _ => return flag_error("--distinct needs a positive integer"),
            },
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) => config.seed = n,
                None => return flag_error("--seed needs a non-negative integer"),
            },
            "--shutdown" => config.shutdown_after = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    match run_loadgen(&config) {
        Ok(report) => {
            if json {
                emit(&report.to_json());
                emit("\n");
            } else {
                emit(&report.render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the `cool session` arguments into (scenario, delta-file path),
/// or the exit code to bail with.
fn parse_session_args(args: &[String]) -> Result<(Scenario, String), ExitCode> {
    let mut replay_path: Option<String> = None;
    let scenario = scenario_args(args, |arg, iter| {
        match arg {
            "--replay" => {
                let Some(path) = iter.next() else {
                    return Err(flag_error("--replay needs a delta file"));
                };
                replay_path = Some(path.clone());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return Err(usage());
            }
        }
        Ok(())
    })?;
    let Some(replay_path) = replay_path else {
        eprintln!("session needs --replay <delta-file>");
        return Err(usage());
    };
    Ok((scenario, replay_path))
}

/// `cool session` — replay a delta script against a scenario with
/// warm-start schedule repair, printing per-delta repair telemetry.
/// Exit codes: 0 when every delta applies, 1 when one is rejected or the
/// instance cannot be solved, 2 on usage problems.
fn session(args: &[String]) -> ExitCode {
    use std::fmt::Write as _;
    let (scenario, replay_path) = match parse_session_args(args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let script = match std::fs::read_to_string(&replay_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {replay_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let deltas = match parse_deltas(&script) {
        Ok(deltas) => deltas,
        Err(e) => {
            eprintln!("error in {replay_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut entry = match SessionInstance::from_scenario(&scenario).and_then(SessionEntry::solve) {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = format!(
        "session: {} sensors, {} targets, rho {}, initial value {:.6}\n",
        entry.instance().n(),
        entry.instance().targets().len(),
        entry.instance().cycle().rho(),
        entry.value(),
    );
    for (i, delta) in deltas.iter().enumerate() {
        match entry.patch(delta, &RepairConfig::default()) {
            Ok(stats) => {
                let _ = writeln!(
                    out,
                    "  delta {:>3}  {:<28} {:>11}  cells {:>8}  dirty {:>4}  value {:.6}",
                    i + 1,
                    delta.render(),
                    stats.mode.as_str(),
                    stats.cells_touched,
                    stats.dirty_sensors,
                    stats.value,
                );
            }
            Err(e) => {
                emit(&out);
                eprintln!(
                    "error: delta {} (`{}`) rejected: {e}",
                    i + 1,
                    delta.render()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = writeln!(
        out,
        "applied {} deltas; final value {:.6} over {} sensors alive",
        deltas.len(),
        entry.value(),
        entry.instance().alive().len(),
    );
    emit(&out);
    ExitCode::SUCCESS
}

/// `cool check` — the deterministic differential-testing harness.
/// Exit codes: 0 every relation held, 1 any violation or harness error,
/// 2 usage problems.
fn check(args: &[String]) -> ExitCode {
    let mut config = CheckConfig::default();
    let mut out_dir: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) => config.seed = n,
                None => return flag_error("--seed needs a non-negative integer"),
            },
            "--cases" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.cases = n,
                _ => return flag_error("--cases needs a positive integer"),
            },
            "--lp-trials" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => config.lp_trials = n,
                _ => return flag_error("--lp-trials needs a positive integer"),
            },
            "--ratio" => match iter.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(r) if r > 0.0 && r.is_finite() => config.ratio = r,
                _ => return flag_error("--ratio needs a positive number"),
            },
            "--no-serve" => config.serve_faults = false,
            "--out" => {
                let Some(dir) = iter.next() else {
                    return flag_error("--out needs a directory path");
                };
                out_dir = Some(dir.clone());
            }
            "--replay" => {
                let Some(path) = iter.next() else {
                    return flag_error("--replay needs a counterexample file");
                };
                replay_path = Some(path.clone());
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let report = match replay_path {
        Some(path) => {
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => return flag_error(format!("--replay: cannot read {path}: {e}")),
            };
            match cool::check::replay(&text, &config) {
                Ok(report) => report,
                Err(e) => return flag_error(format!("--replay {path}: {e}")),
            }
        }
        None => cool::check::run(&config),
    };

    emit(&report.render());
    for ce in &report.counterexamples {
        let dir = out_dir.clone().unwrap_or_else(|| ".".to_string());
        let path = std::path::Path::new(&dir).join(&ce.file_name);
        match std::fs::write(&path, &ce.contents) {
            Ok(()) => eprintln!("wrote counterexample {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cool run [scenario.txt] [--set key=value]... \
         | cool lint <scenario.txt>... [--format text|json|sarif] \
         | cool audit <scenario.txt>... [--format text|json|sarif] \
         [--initial-charge LO[:HI]] \
         | cool template \
         | cool trace [--weather W] [--seed N] [--out F] \
         | cool estimate <trace.csv> [--discharge M] [--capacity MAH] \
         | cool serve [--addr A] [--threads N] [--queue-cap N] [--cache-cap N] \
         [--timeout-ms N] [--session-cap N] \
         [--shards N] [--keep-alive-max N] [--idle-timeout-ms N] \
         [--smoke scenario.txt] [--session-smoke scenario.txt] \
         | cool loadgen [--addr A] [--duration-ms N] [--concurrency N] [--rate R] \
         [--session-ratio F] [--distinct N] [--seed N] [--shutdown] [--json] \
         | cool session --replay <deltas.txt> [scenario.txt] [--set key=value]... \
         | cool check [--seed N] [--cases N] [--lp-trials N] [--ratio R] \
         [--no-serve] [--out DIR] [--replay FILE] \
         | cool --version"
    );
    ExitCode::from(2)
}
