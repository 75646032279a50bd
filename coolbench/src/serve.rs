//! The `cool serve` child process, `/proc` readings of a process's CPU
//! time and peak memory, and `/metrics` scrapes.

use crate::load::{drive, Call, Exchange, Lane};
use crate::report::{median, Report};
use crate::Args;
use cool_serve::client;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, fixed at 100 per
/// second in the Linux user ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of a process (`"self"` or a pid), all
/// threads included.
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| bad("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SECOND)
            .ok_or_else(|| bad("malformed /proc stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or_else(|| bad("no VmHWM in /proc status"))?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// A running `cool serve` at its defaults, on an ephemeral loopback port.
pub struct ServeChild {
    child: Child,
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

impl ServeChild {
    /// Spawns the daemon and waits until it reports its listening address.
    pub fn spawn(cool: &Path) -> io::Result<ServeChild> {
        let mut child = Command::new(cool)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot start {}: {e}", cool.display()))
            })?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or_else(|| bad("no stderr pipe"))?);
        let mut line = String::new();
        loop {
            line.clear();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.wait();
                return Err(bad("cool serve exited before listening"));
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| bad("unparsable listening address"))?;
                return Ok(ServeChild {
                    child,
                    stderr,
                    addr,
                });
            }
        }
    }

    /// The child's pid, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to drain and stop, and waits for it to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let response = client::request(self.addr, "POST", "/v1/shutdown", &[], "")?;
        if response.status != 200 {
            return Err(bad("shutdown refused"));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                let mut rest = String::new();
                let _ = io::Read::read_to_string(&mut self.stderr, &mut rest);
                return if status.success() {
                    Ok(())
                } else {
                    Err(bad(&format!("cool serve exited with {status}: {rest}")))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(bad("cool serve did not stop within 20 s of shutdown"))
    }
}

impl Drop for ServeChild {
    /// A daemon left running by an early error is killed and reaped.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One `/metrics` page: series (name plus labels) to value.
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Fetches the page on its own connection.
    pub fn take(addr: SocketAddr) -> io::Result<Scrape> {
        let page = client::request(addr, "GET", "/metrics", &[], "")?;
        if page.status != 200 {
            return Err(bad("/metrics did not answer 200"));
        }
        let series = page
            .body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect();
        Ok(Scrape(series))
    }

    /// A series' value (0 when absent).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Requests served, every endpoint but `/metrics` itself.
    pub fn requests(&self) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.starts_with("cool_requests_total{") && !k.contains("endpoint=\"metrics\"")
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// Counter movement between two scrapes.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn of(&self, series: &str) -> f64 {
        self.after.get(series) - self.before.get(series)
    }

    pub fn requests(&self) -> f64 {
        self.after.requests() - self.before.requests()
    }
}

/// Set-ups repeated per run, for a steady `setup_s` median.
const SETUPS: usize = 5;

/// Client connections: one per core, at most two.
pub fn lane_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A serve workload's set-ups and timed window.
pub struct Timed {
    /// Seconds from spawning `cool serve` to the end of each warm-up.
    pub setups_s: Vec<f64>,
    /// Each lane's timed exchanges, send times counted from the start of
    /// the window.
    pub logs: Vec<Vec<Exchange>>,
    pub window_s: f64,
    /// CPU of the `cool serve` child during the window.
    pub server_cpu_s: f64,
    /// CPU of this benchmark process during the window.
    pub client_cpu_s: f64,
    pub peak_rss_mb: f64,
    pub before: Scrape,
    pub after: Scrape,
}

impl Timed {
    pub fn delta(&self) -> Delta<'_> {
        Delta {
            before: &self.before,
            after: &self.after,
        }
    }
}

/// Spawns `cool serve` and warms it up `SETUPS` times (once when traced),
/// keeping the last daemon; then scrapes `/metrics`, runs the lanes'
/// generators closed-loop for `--seconds`, and scrapes again. Returns the
/// daemon still running, for checks that read its state.
pub fn timed<W, G>(
    args: &Args,
    mut warm_up: W,
    gens: impl FnOnce() -> Vec<G>,
) -> io::Result<(Timed, ServeChild)>
where
    W: FnMut(SocketAddr, &mut [Lane]) -> io::Result<()>,
    G: FnMut() -> Option<Call> + Send,
{
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setups_s = Vec::new();
    let mut server = None;
    let mut lanes = Vec::new();
    for _ in 0..setups {
        if let Some(old) = server.take() {
            lanes.clear();
            ServeChild::shutdown(old)?;
        }
        let started = Instant::now();
        let child = ServeChild::spawn(&args.cool)?;
        lanes = (0..lane_count()).map(|_| Lane::default()).collect();
        warm_up(child.addr, &mut lanes)?;
        setups_s.push(started.elapsed().as_secs_f64());
        server = Some(child);
    }
    let server = server.expect("at least one set-up");
    let pid = server.pid();

    let before = Scrape::take(server.addr)?;
    let server_cpu = cpu_seconds(&pid)?;
    let client_cpu = cpu_seconds("self")?;
    let window_s = args.seconds;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(window_s);
    let logs = drive(server.addr, &mut lanes, gens(), started, Some(deadline));
    let server_cpu_s = cpu_seconds(&pid)? - server_cpu;
    let client_cpu_s = cpu_seconds("self")? - client_cpu;
    let after = Scrape::take(server.addr)?;
    let peak_rss_mb = peak_rss_mb(&pid)?;
    Ok((
        Timed {
            setups_s,
            logs,
            window_s,
            server_cpu_s,
            client_cpu_s,
            peak_rss_mb,
            before,
            after,
        },
        server,
    ))
}

/// Records the end-to-end metrics of a serve workload and the per-layer
/// readings taken from `/metrics` and `/proc` during its timed window.
/// `good` are the (send time, latency) of the timed exchanges that passed
/// every check.
pub fn report_timed(report: &mut Report, t: &Timed, good: &[(f64, f64)]) {
    let ops = good.len() as f64;
    report.set(
        "setup_s",
        median(&t.setups_s),
        format!("median of {} set-ups", t.setups_s.len()),
    );
    report.timed_ops(good, t.window_s);
    report.set(
        "cpu_ms_per_op",
        t.server_cpu_s * 1e3 / ops,
        format!("cool serve user+sys {:.2} s", t.server_cpu_s),
    );
    report.set("peak_rss_mb", t.peak_rss_mb, "cool serve VmHWM");

    let d = t.delta();
    let requests = d.requests();
    report.set(
        "serve.keepalive_reuse_ratio",
        d.of("cool_keepalive_reuses_total") / requests,
        format!("of {requests} requests"),
    );
    let hits = d.of("cool_cache_hits_total");
    let lookups = hits + d.of("cool_cache_misses_total");
    report.set(
        "serve.cache_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        format!("of {lookups} schedule lookups"),
    );
    report.set(
        "serve.cache_evictions",
        d.of("cool_cache_evictions_total"),
        "timed window",
    );
    let shed = d.of("cool_queue_rejections_total");
    let timeouts = d.of("cool_request_timeouts_total");
    report.set("serve.shed_429", shed, "timed window");
    report.set("serve.timeout_408", timeouts, "timed window");
    report.check(shed == 0.0, format!("gate: {shed} requests shed with 429"));
    report.check(
        timeouts == 0.0,
        format!("gate: {timeouts} requests timed out with 408"),
    );
    let queries = d.of("cool_gain_queries_total");
    report.set(
        "utility.gain_queries_per_op",
        queries / ops,
        "cool_gain_queries_total per op",
    );
    report.set(
        "utility.parts_per_query",
        if queries > 0.0 {
            d.of("cool_parts_touched_total") / queries
        } else {
            0.0
        },
        "cool_parts_touched_total per query",
    );
    report.set(
        "bench.client_cpu_ms_per_op",
        t.client_cpu_s * 1e3 / ops,
        format!("benchmark user+sys {:.2} s", t.client_cpu_s),
    );
    report.set(
        "bench.error_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        format!("{} of {}", report.failed, report.attempted),
    );
}
