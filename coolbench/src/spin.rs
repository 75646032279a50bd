//! Idle-priority spinners that keep every core busy while the benchmark
//! measures.
//!
//! On a virtual machine a core with nothing to run halts, and the next
//! wake-up — here, every request of a closed loop — waits for the
//! hypervisor to schedule the virtual CPU again. On a shared host that
//! wait shows as CPU steal and adds milliseconds to a sub-millisecond
//! request, by however busy the neighbours happen to be. One spinner per
//! core under `SCHED_IDLE` keeps the cores from halting; it runs only
//! when nothing else wants the core, so the kernel hands the core to a
//! woken benchmark or server thread at once.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A spinner stops by itself after this long, should its parent vanish
/// without closing the pipe.
const MAX_LIFETIME: Duration = Duration::from_mins(15);

/// The spinner processes; dropping this stops and reaps them.
pub struct Spinners(Vec<Child>);

impl Spinners {
    /// Starts one spinner per core.
    pub fn start() -> io::Result<Spinners> {
        let exe = std::env::current_exe()?;
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let mut spinners = Spinners(Vec::new());
        for _ in 0..cores {
            let child = Command::new("nice")
                .args(["-n", "19"])
                .arg(&exe)
                .arg("--spin")
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| io::Error::new(e.kind(), format!("cannot start nice: {e}")))?;
            spinners.0.push(child);
        }
        Ok(spinners)
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The spinner's body: spin until stdin closes (the parent is gone or
/// done) or `MAX_LIFETIME` passes.
pub fn spin() {
    let started = Instant::now();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = std::sync::Arc::clone(&done);
    std::thread::spawn(move || {
        let _ = io::stdin().read_to_end(&mut Vec::new());
        watcher.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    while !done.load(std::sync::atomic::Ordering::Relaxed) && started.elapsed() < MAX_LIFETIME {
        for _ in 0..10_000 {
            std::hint::spin_loop();
        }
    }
}
