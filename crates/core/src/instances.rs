//! Random and geometric instance generators.
//!
//! Shared by the unit/property tests, the Criterion benches and the
//! figure-reproduction harness, so every consumer draws instances from the
//! same distributions:
//!
//! * [`random_multi_target`] — coverage-matrix instances (Fig. 8 style):
//!   each sensor covers each target with a fixed probability, every target
//!   guaranteed at least one coverer;
//! * [`geometric_multi_target`] — disk-coverage instances over a square
//!   region (Fig. 9 style): uniform sensor deployment, uniform targets,
//!   `V(O_i)` = sensors within sensing range;
//! * [`fig8_instance`] / [`fig9_instance`] — the exact parameterisations
//!   used by the paper-reproduction experiments.

use cool_common::{SensorId, SensorSet};
use cool_geometry::deployment::{self, DiskIndex};
use cool_geometry::{DeploymentKind, DeploymentSpec, Point, Rect};
use cool_utility::{DetectionUtility, SparseVector, SumUtility};
use rand::Rng;

/// Random multi-target detection instance: `n` sensors, `m` targets, each
/// sensor covering each target independently with probability
/// `coverage_prob`; covering sensors detect with probability `p`. Every
/// target is guaranteed at least one coverer (a uniformly random sensor is
/// added when the draw leaves a target uncovered — the paper's instances
/// never feature unmonitorable targets).
///
/// # Panics
///
/// Panics if `n == 0`, `m == 0`, or a probability is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use cool_core::instances::random_multi_target;
/// use cool_common::SeedSequence;
/// use cool_utility::UtilityFunction;
///
/// let mut rng = SeedSequence::new(5).nth_rng(0);
/// let u = random_multi_target(20, 4, 0.5, 0.4, &mut rng);
/// assert_eq!(u.universe(), 20);
/// assert_eq!(u.n_targets(), 4);
/// ```
pub fn random_multi_target<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    coverage_prob: f64,
    p: f64,
    rng: &mut R,
) -> SumUtility {
    assert!(n > 0, "need at least one sensor");
    assert!(m > 0, "need at least one target");
    assert!(
        (0.0..=1.0).contains(&coverage_prob),
        "coverage_prob in [0,1]"
    );
    assert!((0.0..=1.0).contains(&p), "p in [0,1]");
    let coverages: Vec<SensorSet> = (0..m)
        .map(|_| {
            let mut cov = SensorSet::new(n);
            for v in 0..n {
                if rng.random_range(0.0..1.0) < coverage_prob {
                    cov.insert(SensorId(v));
                }
            }
            if cov.is_empty() {
                cov.insert(SensorId(rng.random_range(0..n)));
            }
            cov
        })
        .collect();
    SumUtility::multi_target_detection(&coverages, p)
}

/// Geometric instance: sensors deployed uniformly in `omega`, `m` uniform
/// targets, a sensor covers a target within `sensing_radius`. Targets that
/// land outside everyone's range are re-drawn (up to 64 attempts, then
/// snapped to a random sensor's position), matching the paper's setting
/// where every target is monitorable.
///
/// Each candidate's coverers come from a [`DiskIndex`] over the sensors
/// (the 3×3 grid cells around it), in increasing id order, and a placed
/// target's detection part is built straight from that list — `p` on
/// every coverer, empty when `p = 0`. The placement loop reads only
/// whether a list is empty, so the draws are those of a scan over every
/// disk.
///
/// Every target has at least one coverer: a drawn candidate is kept only
/// when its list is non-empty, and the fallback anchor lies on a sensor.
/// `cool-lint`'s instance stage relies on this and does not look for
/// unreachable targets (COOL-W004) in derived instances.
///
/// Returns the utility plus the sensor and target positions for callers
/// that also need the geometry (e.g. the testbed simulator).
///
/// # Panics
///
/// Panics if `n == 0`, `m == 0`, `sensing_radius <= 0`, or `p ∉ [0, 1]`.
pub fn geometric_multi_target<R: Rng + ?Sized>(
    omega: Rect,
    n: usize,
    m: usize,
    sensing_radius: f64,
    p: f64,
    rng: &mut R,
) -> (SumUtility, Vec<Point>, Vec<Point>) {
    assert!(n > 0, "need at least one sensor");
    assert!(m > 0, "need at least one target");
    assert!(sensing_radius > 0.0, "sensing radius must be positive");
    assert!((0.0..=1.0).contains(&p), "p in [0,1]");

    let spec = DeploymentSpec::new(omega, n, DeploymentKind::UniformRandom);
    let positions = spec.generate(rng);
    let index = DiskIndex::new(&positions, sensing_radius);

    let mut targets = Vec::with_capacity(m);
    let mut parts = Vec::with_capacity(m);
    for _ in 0..m {
        let mut placed = None;
        for _ in 0..64 {
            let candidate = deployment::uniform_point(omega, rng);
            let cov = index.covering(candidate);
            if !cov.is_empty() {
                placed = Some((candidate, cov));
                break;
            }
        }
        let (target, cov) = placed.unwrap_or_else(|| {
            let anchor = positions[rng.random_range(0..n)];
            (anchor, index.covering(anchor))
        });
        cool_common::invariant!(!cov.is_empty(), "a placed target has no coverer");
        targets.push(target);
        let probs = if p == 0.0 {
            SparseVector::from_sorted(n, Vec::new(), Vec::new())
        } else {
            let values = vec![p; cov.len()];
            SparseVector::from_sorted(n, cov, values)
        };
        parts.push(DetectionUtility::from_sparse(probs).into());
    }
    (SumUtility::new(parts), positions, targets)
}

/// The Fig. 8 instance family: `n` sensors, `m ∈ {1,2,3,4}` targets,
/// `p = 0.4`. For `m = 1` every sensor covers the target (the paper's
/// single-target setting); multi-target coverage draws follow
/// [`random_multi_target`] with coverage probability 0.5.
pub fn fig8_instance<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> SumUtility {
    const P: f64 = 0.4;
    if m == 1 {
        SumUtility::multi_target_detection(&[SensorSet::full(n)], P)
    } else {
        random_multi_target(n, m, 0.5, P, rng)
    }
}

/// The Fig. 9 instance family: `n ∈ {100..500}` sensors and `m ∈ {10..50}`
/// targets, sensing radius 100, `p = 0.4`, deployed in a square whose side
/// grows as `500 · (n/100)^0.4`.
///
/// The paper does not state its region size; a fixed region makes expected
/// per-target coverage grow linearly in `n` and saturates the utility well
/// before `n = 500`, while constant density keeps it flat. The mildly
/// densifying exponent reproduces the paper's reported bands — average
/// utility ≈ 0.69–0.75 for `n = 100–200` and ≈ 0.78–0.84 for
/// `n = 300–500` (see EXPERIMENTS.md).
pub fn fig9_instance<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> SumUtility {
    let side = 500.0 * (n as f64 / 100.0).powf(0.4);
    let omega = Rect::square(side);
    let (u, _, _) = geometric_multi_target(omega, n, m, 100.0, 0.4, rng);
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::SeedSequence;
    use cool_utility::{check_utility, AnyUtility, UtilityFunction};

    fn rng() -> rand::rngs::StdRng {
        SeedSequence::new(2024).nth_rng(0)
    }

    fn coverage_of(part: &AnyUtility) -> SensorSet {
        match part {
            AnyUtility::Detection(d) => d.coverage(),
            _ => panic!("instances are detection sums"),
        }
    }

    #[test]
    fn every_target_has_a_coverer() {
        let mut r = rng();
        for _ in 0..20 {
            let u = random_multi_target(10, 5, 0.1, 0.4, &mut r);
            for part in u.parts() {
                assert!(!coverage_of(part).is_empty());
            }
        }
    }

    #[test]
    fn generated_instances_are_valid_utilities() {
        let mut r = rng();
        let u = random_multi_target(12, 4, 0.5, 0.4, &mut r);
        check_utility(&u, 200, &mut r).unwrap();
    }

    #[test]
    fn geometric_instance_coverage_respects_radius() {
        let mut r = rng();
        let omega = Rect::square(100.0);
        let (u, positions, targets) = geometric_multi_target(omega, 30, 5, 20.0, 0.4, &mut r);
        assert_eq!(positions.len(), 30);
        assert_eq!(targets.len(), 5);
        for (target_idx, part) in u.parts().iter().enumerate() {
            let cov = coverage_of(part);
            assert!(!cov.is_empty(), "target {target_idx} covered");
            for v in &cov {
                assert!(
                    positions[v.index()].distance(targets[target_idx]) <= 20.0 + 1e-9,
                    "coverer within radius"
                );
            }
        }
    }

    #[test]
    fn fig8_single_target_is_full_coverage() {
        let u = fig8_instance(25, 1, &mut rng());
        assert_eq!(u.n_targets(), 1);
        assert_eq!(coverage_of(&u.parts()[0]).len(), 25);
        // p = 0.4: max value = 1 − 0.6^25.
        assert!((u.max_value() - (1.0 - 0.6f64.powi(25))).abs() < 1e-12);
    }

    #[test]
    fn fig9_instance_has_requested_shape() {
        let u = fig9_instance(100, 10, &mut rng());
        assert_eq!(u.universe(), 100);
        assert_eq!(u.n_targets(), 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_multi_target(8, 3, 0.5, 0.4, &mut SeedSequence::new(1).nth_rng(7));
        let b = random_multi_target(8, 3, 0.5, 0.4, &mut SeedSequence::new(1).nth_rng(7));
        for (pa, pb) in a.parts().iter().zip(b.parts()) {
            assert_eq!(coverage_of(pa), coverage_of(pb));
        }
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn zero_targets_panics() {
        let _ = random_multi_target(5, 0, 0.5, 0.4, &mut rng());
    }
}
