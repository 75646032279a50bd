//! End-to-end tests of the `cool` CLI binary.

use std::process::Command;

fn cool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cool"))
}

#[test]
fn template_round_trips_through_a_file() {
    let out = cool().arg("template").output().expect("binary runs");
    assert!(out.status.success());
    let template = String::from_utf8(out.stdout).expect("utf-8");
    assert!(template.contains("sensors"));

    let dir = std::env::temp_dir().join(format!("cool_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.txt");
    std::fs::write(&path, &template).unwrap();

    let out = cool()
        .args([
            "run",
            path.to_str().unwrap(),
            "--set",
            "sensors=16",
            "--set",
            "targets=2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("16 sensors, 2 targets"));
    assert!(text.contains("avg utility / target / slot"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_without_file_uses_defaults_with_overrides() {
    let out = cool()
        .args([
            "run",
            "--set",
            "sensors=12",
            "--set",
            "scheduler=round-robin",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("round-robin scheduler"));

    // `lazy` is a spelling of the default `greedy`: the same output.
    let stdout = |extra: &[&str]| {
        let out = cool()
            .args(["run", "--set", "sensors=12"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{extra:?}");
        out.stdout
    };
    assert_eq!(stdout(&["--set", "scheduler=lazy"]), stdout(&[]));
}

#[test]
fn bad_key_fails_with_message() {
    let out = cool()
        .args(["run", "--set", "volume=11"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key"));
}

#[test]
fn bad_cycle_fails_with_message() {
    let out = cool()
        .args(["run", "--set", "recharge_minutes=40"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("integer"));

    // Bad geometry, and a charging period of more slots than the fleet
    // grid's cap, are errors, not panics: exit 1 with a message.
    let fails_cleanly = |out: std::process::Output, what: &str| {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains("error") || stdout.contains("ERROR"),
            "{what}: {stdout}{stderr}"
        );
    };
    let bad: [&[&str]; 14] = [
        &["radius=0"],
        &["radius=-1"],
        &["radius=NaN"],
        &["radius=inf"],
        &["radius=-inf"],
        &["radius=1e400"],
        &["region=0"],
        &["region=-1"],
        &["region=NaN"],
        &["region=inf"],
        &["region=-inf"],
        &["region=1e400"],
        &["recharge_minutes=1.5e19", "hours=1e30"],
        &["discharge_minutes=18446744073709551616"],
    ];
    for kvs in bad {
        let mut run = cool();
        run.arg("run");
        for kv in kvs {
            run.args(["--set", kv]);
        }
        fails_cleanly(run.output().unwrap(), &format!("run --set {kvs:?}"));
    }
    let deltas = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/patch_day.deltas");
    fails_cleanly(
        cool()
            .args(["session", "--replay", deltas, "--set", "radius=0"])
            .output()
            .unwrap(),
        "session --set radius=0",
    );
    let dir = std::env::temp_dir().join(format!("cool_cli_geometry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Bad geometry; a period over the slot cap; a 4-slot period whose
    // working time is over the horizon bound.
    let replays = [
        ("bad_region.txt", "sensors = 6\nregion = NaN\n"),
        (
            "long_period.txt",
            "sensors = 8\ntargets = 2\nrecharge_minutes = 1.5e19\nhours = 1e30\n",
        ),
        (
            "long_horizon.txt",
            "sensors = 8\ntargets = 2\nhours = 1e30\n",
        ),
    ];
    for (name, text) in replays {
        let file = dir.join(name);
        std::fs::write(&file, text).unwrap();
        fails_cleanly(
            cool()
                .args(["check", "--no-serve", "--replay"])
                .arg(&file)
                .output()
                .unwrap(),
            &format!("check --replay {name}"),
        );
    }
    // A session `rho` delta over the slot cap: a period of 10^15 + 1 slots
    // used to abort (exit 134) allocating the repair's slots, and one of
    // 5001 slots was solved.
    let testbed = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/paper_testbed.txt");
    for (name, deltas) in [
        ("rho_1e15.deltas", "rho 1 1e15\n"),
        ("rho_5000.deltas", "rho 1 5000\n"),
    ] {
        let file = dir.join(name);
        std::fs::write(&file, deltas).unwrap();
        fails_cleanly(
            cool()
                .args(["session", "--replay"])
                .arg(&file)
                .arg(testbed)
                .output()
                .unwrap(),
            &format!("session --replay {name}"),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_fails_cleanly() {
    let out = cool()
        .args(["run", "/nonexistent/scenario.txt"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn usage_on_no_arguments() {
    let out = cool().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn trace_estimate_pipeline_round_trips() {
    let dir = std::env::temp_dir().join(format!("cool_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sunny.csv");

    let out = cool()
        .args([
            "trace",
            "--weather",
            "sunny",
            "--seed",
            "9",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = cool()
        .args(["estimate", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("fitted pattern"), "{text}");
    assert!(
        text.contains("rho=3.0"),
        "sunny trace quantizes to the paper cycle: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn estimate_rejects_garbage() {
    let dir = std::env::temp_dir().join(format!("cool_cli_garbage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.csv");
    std::fs::write(&path, "not,a,trace\n").unwrap();
    let out = cool()
        .args(["estimate", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("header"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_flag_prints_the_workspace_version() {
    for flag in ["--version", "-V", "version"] {
        let out = cool().arg(flag).output().expect("binary runs");
        assert!(out.status.success(), "{flag}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            text.trim(),
            format!("cool {}", env!("CARGO_PKG_VERSION")),
            "{flag}"
        );
    }
}

#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    // Satellite contract: a bad value for a known flag names that flag and
    // exits 2 — it does not dump the full usage text.
    for (args, flag) in [
        (vec!["run", "--set", "sensors"], "--set"),
        (vec!["run", "--set", "sensors=abc"], "--set"),
        (vec!["run", "--set", "volume=11"], "--set"),
        (vec!["trace", "--seed", "soon"], "--seed"),
        (vec!["trace", "--weather", "hail"], "--weather"),
        (
            vec!["estimate", "x.csv", "--discharge", "-4"],
            "--discharge",
        ),
        (
            vec!["estimate", "x.csv", "--capacity", "zero"],
            "--capacity",
        ),
        (vec!["serve", "--threads", "many"], "--threads"),
        (vec!["serve", "--queue-cap", "0"], "--queue-cap"),
        (vec!["serve", "--cache-cap", "-1"], "--cache-cap"),
        (vec!["serve", "--timeout-ms", "1.5"], "--timeout-ms"),
        (vec!["serve", "--smoke"], "--smoke"),
    ] {
        let out = cool().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("usage:"),
            "named-flag errors must not dump usage ({args:?}): {stderr}"
        );
    }
}

#[test]
fn usage_lists_the_serve_subcommand_and_its_flags() {
    let out = cool().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    for needle in [
        "cool serve",
        "--addr",
        "--threads",
        "--queue-cap",
        "--cache-cap",
        "--timeout-ms",
        "--smoke",
        "--version",
    ] {
        assert!(stderr.contains(needle), "usage lacks `{needle}`: {stderr}");
    }
}

#[test]
fn serve_smoke_runs_the_full_protocol() {
    let path = format!("{}/scenarios/paper_testbed.txt", env!("CARGO_MANIFEST_DIR"));
    let out = cool()
        .args(["serve", "--smoke", &path])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let page = String::from_utf8_lossy(&out.stdout).to_string();
    for series in [
        "cool_requests_total",
        "cool_request_seconds_bucket",
        "cool_cache_hits_total",
        "cool_cache_misses_total",
        "cool_preflights_total",
        "cool_queue_depth",
    ] {
        assert!(page.contains(series), "missing `{series}`:\n{page}");
    }
}

#[test]
fn bundled_scenarios_run() {
    for file in [
        "paper_testbed.txt",
        "overcast_week.txt",
        "dense_fast_recharge.txt",
    ] {
        let path = format!("{}/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
        let out = cool().args(["run", &path]).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{file} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        // The bound must dominate the achieved utility in every bundle.
        let pick = |label: &str| -> f64 {
            text.lines()
                .find(|l| l.contains(label))
                .and_then(|l| l.split('|').nth(2))
                .and_then(|c| c.trim().trim_end_matches('%').parse().ok())
                .unwrap_or_else(|| panic!("missing {label} in output:\n{text}"))
        };
        let avg = pick("avg utility / target / slot");
        let bound = pick("optimum upper bound");
        assert!(avg <= bound + 1e-9, "{file}: {avg} > {bound}");
    }
}

#[test]
fn check_is_byte_for_byte_reproducible() {
    let run = || {
        cool()
            .args(["check", "--seed", "42", "--cases", "4", "--no-serve"])
            .output()
            .expect("binary runs")
    };
    let first = run();
    assert!(
        first.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = run();
    assert_eq!(
        first.stdout, second.stdout,
        "same seed must render byte-identical output"
    );
    let text = String::from_utf8_lossy(&first.stdout).to_string();
    assert!(text.contains("summary: 4 cases"), "{text}");
    assert!(text.trim_end().ends_with("ok"), "{text}");
}

#[test]
fn check_flags_follow_the_exit_2_contract() {
    for (args, flag) in [
        (vec!["check", "--seed", "soon"], "--seed"),
        (vec!["check", "--cases", "0"], "--cases"),
        (vec!["check", "--ratio", "-1"], "--ratio"),
        (vec!["check", "--lp-trials", "few"], "--lp-trials"),
        (vec!["check", "--replay", "/nonexistent/ce.txt"], "--replay"),
    ] {
        let out = cool().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}

#[test]
fn check_replays_a_written_counterexample() {
    // An impossible ratio manufactures a violation; the shrunk file it
    // writes must replay (exit 1, "still reproduces") under the same
    // settings and come up clean under the defaults.
    let dir = std::env::temp_dir().join(format!("cool_cli_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let out = cool()
        .args([
            "check",
            "--seed",
            "42",
            "--cases",
            "3",
            "--ratio",
            "1.01",
            "--no-serve",
            "--out",
        ])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "impossible ratio must fail");

    let ce = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().contains("greedy-ratio"))
        })
        .expect("a greedy-ratio counterexample was written");

    let out = cool()
        .args(["check", "--ratio", "1.01", "--no-serve", "--out"])
        .arg(&dir)
        .arg("--replay")
        .arg(&ce)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("still reproduces"), "{text}");

    let out = cool()
        .args(["check", "--no-serve", "--out"])
        .arg(&dir)
        .arg("--replay")
        .arg(&ce)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "fixed ratio must replay clean");
    std::fs::remove_dir_all(&dir).ok();
}
