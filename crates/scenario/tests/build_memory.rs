//! Peak-memory regression test for `Scenario::build` on the `run-large`
//! shape (n = 2000 sensors, m = 20 000 targets, ≈ 15 sensors per target).
//!
//! Each detection part stores only its covering sensors, so the built
//! instance is O(Σ deg) rather than O(n·m): a release build peaks at about
//! 15 MB of RSS on x86-64 Linux, where an n-length probability vector per
//! part would take about 324 MB.
//!
//! The test is the only one in this file, so the test binary's process is
//! its alone and `VmHWM` measures this build and nothing else. It is
//! `#[ignore]`d (about 30 ms of build in release, with coverage from the
//! grid index; a debug build is much slower) and Linux-only
//! (`/proc/self/status`). Run it with
//!
//! ```sh
//! cargo test -p cool-scenario --release --test build_memory -- --ignored
//! ```

#[cfg(target_os = "linux")]
#[test]
#[ignore = "builds the run-large instance; run explicitly in release"]
fn run_large_build_peak_rss_stays_under_64_mb() {
    use cool_scenario::Scenario;

    const LIMIT_MB: f64 = 64.0;
    let scenario = Scenario::parse(
        "sensors = 2000\ntargets = 20000\nregion = 2000\nradius = 100\n\
         detection_p = 0.4\ndischarge_minutes = 15\nrecharge_minutes = 45\nseed = 1\n",
    )
    .expect("the run-large scenario parses");
    let built = scenario.build().expect("the run-large scenario builds");
    assert_eq!(built.problem.utility().n_targets(), 20_000);

    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    let mb = kb / 1024.0;
    assert!(
        mb < LIMIT_MB,
        "Scenario::build peaked at {mb:.1} MB of RSS (limit {LIMIT_MB} MB)"
    );
}
