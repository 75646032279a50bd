//! `Scenario::instance` takes each target's coverers from the grid index
//! (`DiskIndex`). These tests re-derive the instance with a local copy of
//! the placement loop that tested every candidate against every disk
//! (`sensors_covering`, the index's oracle) and assert the two agree bit
//! for bit: sensor positions, target positions, and every detection part's
//! sensors and probabilities.
//!
//! The big cell (n = 10 000, m = 100 000) is `#[ignore]`d: the scan alone
//! is 10⁹ distance tests, about two seconds in release. Run it with
//!
//! ```sh
//! cargo test -p cool-scenario --release --test instance_identity -- --ignored
//! ```

#![allow(clippy::expect_used)]

use cool_common::SeedSequence;
use cool_geometry::deployment::{disks_at, sensors_covering, uniform_point};
use cool_geometry::{DeploymentKind, DeploymentSpec, Point, Rect};
use cool_scenario::Scenario;
use cool_utility::{AnyUtility, DetectionUtility};
use rand::Rng;

/// The instance as the full scan derives it: the same draws from seed
/// stream 0, each candidate's coverage from a test against every disk.
fn scanned_instance(s: &Scenario) -> (Vec<Point>, Vec<Point>, Vec<DetectionUtility>) {
    let mut rng = SeedSequence::new(s.seed).nth_rng(0);
    let omega = Rect::square(s.region);
    let spec = DeploymentSpec::new(omega, s.sensors, DeploymentKind::UniformRandom);
    let positions = spec.generate(&mut rng);
    let disks = disks_at(&positions, s.radius);
    let mut targets = Vec::with_capacity(s.targets);
    let mut parts = Vec::with_capacity(s.targets);
    for _ in 0..s.targets {
        let mut placed = None;
        for _ in 0..64 {
            let candidate = uniform_point(omega, &mut rng);
            let cov = sensors_covering(candidate, &disks);
            if !cov.is_empty() {
                placed = Some((candidate, cov));
                break;
            }
        }
        let (target, cov) = placed.unwrap_or_else(|| {
            let anchor = positions[rng.random_range(0..s.sensors)];
            (anchor, sensors_covering(anchor, &disks))
        });
        targets.push(target);
        parts.push(DetectionUtility::uniform_on(&cov, s.detection_p));
    }
    (positions, targets, parts)
}

fn bits(points: &[Point]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// Asserts `Scenario::instance` equals the scanned derivation bit for bit.
fn assert_same_instance(text: &str) {
    let scenario = Scenario::parse(text).expect("the scenario parses");
    let (utility, positions, targets) = scenario.instance().expect("the instance derives");
    let (scan_positions, scan_targets, scan_parts) = scanned_instance(&scenario);
    assert_eq!(
        bits(&positions),
        bits(&scan_positions),
        "sensors of\n{text}"
    );
    assert_eq!(bits(&targets), bits(&scan_targets), "targets of\n{text}");
    assert_eq!(utility.parts().len(), scan_parts.len(), "{text}");
    for (k, (part, scan)) in utility.parts().iter().zip(&scan_parts).enumerate() {
        let AnyUtility::Detection(part) = part else {
            panic!("target {k} of\n{text}\nis not a detection part");
        };
        let (ours, theirs) = (part.probs(), scan.probs());
        assert_eq!(ours.universe(), theirs.universe(), "target {k} of\n{text}");
        assert_eq!(ours.ids(), theirs.ids(), "target {k} of\n{text}");
        let values = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            values(ours.values()),
            values(theirs.values()),
            "target {k} of\n{text}"
        );
    }
}

fn scenario(n: usize, m: usize, region: f64, p: f64, seed: u64) -> String {
    format!(
        "sensors = {n}\ntargets = {m}\nregion = {region}\nradius = 100\n\
         detection_p = {p}\nseed = {seed}\n"
    )
}

#[test]
fn paper_grid_instances_equal_the_scanned_ones() {
    // The Fig. 8/9 (n, m) cells on their geometric deployments.
    for (n, m) in [
        (20, 1),
        (60, 4),
        (100, 5),
        (100, 10),
        (200, 20),
        (300, 30),
        (400, 40),
        (500, 50),
    ] {
        let region = 500.0 * (n as f64 / 100.0).powf(0.4);
        for seed in [1, 2011, u64::MAX >> 16] {
            assert_same_instance(&scenario(n, m, region, 0.4, seed));
        }
    }
}

#[test]
fn sparse_and_zero_probability_instances_equal_the_scanned_ones() {
    // `detection_p = 0`: every part is empty, the draws are unchanged.
    assert_same_instance(&scenario(200, 20, 1000.0, 0.0, 7));
    // A region so sparse that candidates miss and targets snap to sensors.
    assert_same_instance(&scenario(20, 30, 1e5, 0.4, 3));
}

#[test]
fn run_large_instance_equals_the_scanned_one() {
    assert_same_instance(&scenario(2_000, 20_000, 2_000.0, 0.4, 1));
}

#[test]
#[ignore = "the big cell's scan is 10^9 distance tests; run explicitly in release"]
fn big_cell_instance_equals_the_scanned_one() {
    assert_same_instance(&scenario(10_000, 100_000, 4_472.1, 0.4, 1));
}
