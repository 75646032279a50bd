//! `coolbench` — the repository benchmark.
//!
//! Drives the two surfaces users see: a `cool serve` child process (over
//! keep-alive HTTP, closed loop, one connection per core) and the calls
//! `cool run` makes (`Scenario::build`, then `greedy_schedule_lazy`), made
//! in-process. One invocation runs one workload for a fixed window and
//! prints one JSON result line last on stdout; a human-readable table with
//! sample counts goes to stderr. See `coolbench/README.md` for why each
//! workload exists and which metric each layer should move.
//!
//! ```text
//! coolbench --cool <path to cool binary> --workload <name|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```

mod inputs;
mod large;
mod load;
mod report;
mod schedule;
mod serve;
mod session;
mod spin;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// The four workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HitPaper,
    MissPaper,
    SessionPatch,
    RunLarge,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::HitPaper,
        Workload::MissPaper,
        Workload::SessionPatch,
        Workload::RunLarge,
    ];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitPaper => "hit-paper",
            Workload::MissPaper => "miss-paper",
            Workload::SessionPatch => "session-patch",
            Workload::RunLarge => "run-large",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub cool: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn usage(message: &str) -> ExitCode {
    eprintln!("coolbench: {message}");
    eprintln!(
        "usage: coolbench --cool <path> --workload <hit-paper|miss-paper|session-patch|run-large|all> \
         --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--spin") {
        spin::spin();
        return ExitCode::SUCCESS;
    }
    let mut cool = None;
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--cool" => cool = Some(PathBuf::from(value)),
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => match Workload::parse(value) {
                Some(w) => workloads = Some(vec![w]),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed needs an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = Some(s),
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace needs 0 or 1"),
            },
            "--out" => out = PathBuf::from(value),
            other => return usage(&format!("unknown flag `{other}`")),
        }
    }
    let (Some(cool), Some(workloads), Some(seed), Some(seconds), Some(trace)) =
        (cool, workloads, seed, seconds, trace)
    else {
        return usage("--cool, --workload, --seed, --seconds and --trace are required");
    };
    let args = Args {
        cool,
        seed,
        seconds,
        trace,
        out,
    };

    let spinners = match spin::Spinners::start() {
        Ok(spinners) => spinners,
        Err(e) => {
            eprintln!("coolbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for workload in workloads {
        let result = match workload {
            Workload::HitPaper => schedule::run(&args, schedule::Mode::Hit),
            Workload::MissPaper => schedule::run(&args, schedule::Mode::Miss),
            Workload::SessionPatch => session::run(&args),
            Workload::RunLarge => large::run(&args),
        };
        match result {
            Ok(report) => emit(workload, &args, &report),
            Err(e) => {
                eprintln!("coolbench {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    drop(spinners);
    ExitCode::SUCCESS
}

/// Prints the table (stderr) and the result line (stdout, last).
fn emit(workload: Workload, args: &Args, report: &Report) {
    eprint!("{}", report.table(workload, args));
    println!("{}", report.json(args.trace));
}
