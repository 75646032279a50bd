//! Property tests for the session delta language: any sequence of
//! **valid** deltas leaves the instance lint-clean, a patched entry's
//! schedule stays feasible, its CELF solve and full re-solves are bitwise
//! the naive greedy's, and `Remove∘Add` of the same sensor round-trips to
//! the exact original canonical form.

#![allow(clippy::expect_used, clippy::unwrap_used)]

use cool_common::SensorSet;
use cool_core::{RepairConfig, RepairMode};
use cool_session::{Delta, SessionEntry, SessionInstance, TargetSpec};
use proptest::prelude::*;

/// The sampled `cool-lint` pre-flight: the oracle of the theorem that a
/// session utility (a sum of detection parts) has the utility axioms.
fn preflight_is_clean(instance: &SessionInstance) -> bool {
    let slots = instance.cycle().slots_per_period();
    cool_lint::preflight(&instance.utility(), instance.n(), slots).error_count() == 0
}

/// Builds a valid instance from raw generator material: `n` sensors and
/// one target per coverage word (bit `v` of word `i` ⇒ sensor `v` covers
/// target `i`), each forced non-empty; ρ = 3, or ρ = 1/3 when `sunny` is
/// false.
fn instance_from(n: usize, words: &[u32], p: f64, sunny: bool) -> SessionInstance {
    let targets: Vec<TargetSpec> = words
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let members = (0..n).filter(|v| w & (1 << v) != 0);
            let mut coverage = SensorSet::from_indices(n, members);
            if coverage.is_empty() {
                coverage = SensorSet::from_indices(n, [i % n]);
            }
            TargetSpec { coverage, p }
        })
        .collect();
    let (discharge, recharge) = if sunny { (15.0, 45.0) } else { (45.0, 15.0) };
    SessionInstance::new(n, targets, discharge, recharge, 12.0)
        .expect("generator material is valid")
}

/// Interprets raw generator words as a delta against the current state,
/// steering indices into range so most draws are valid (invalid ones are
/// exercised too — they must be rejected without mutating).
fn delta_from(instance: &SessionInstance, kind: u8, a: usize, b: u32, p: f64) -> Delta {
    let n = instance.n();
    match kind % 6 {
        0 => Delta::AddSensor { sensor: a % n },
        1 => Delta::RemoveSensor { sensor: a % n },
        2 => {
            let coverage: Vec<usize> = (0..n).filter(|v| b & (1 << v) != 0).collect();
            Delta::AddTarget {
                p,
                coverage: if coverage.is_empty() {
                    vec![a % n]
                } else {
                    coverage
                },
            }
        }
        3 => Delta::RemoveTarget {
            target: a % instance.targets().len().max(1),
        },
        4 => Delta::Reweight {
            target: a % instance.targets().len().max(1),
            p,
        },
        _ => {
            // Integral ρ both ways: ρ ∈ {2, 3} or 1/ρ ∈ {2, 3}.
            let k = f64::from(b % 2 + 2);
            if a.is_multiple_of(2) {
                Delta::RhoChange {
                    discharge_minutes: 15.0,
                    recharge_minutes: 15.0 * k,
                }
            } else {
                Delta::RhoChange {
                    discharge_minutes: 15.0 * k,
                    recharge_minutes: 15.0,
                }
            }
        }
    }
}

proptest! {
    /// Every successfully applied delta sequence leaves the instance
    /// passing the cool-lint pre-flight, and the canonical form parses
    /// back through the replay grammar where applicable.
    #[test]
    fn valid_delta_sequences_stay_lint_clean(
        n in 3usize..8,
        words in proptest::collection::vec(any::<u32>(), 1..4),
        p in 0.1f64..0.9,
        script in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<u32>(), 0.05f64..0.95), 1..12),
    ) {
        let mut instance = instance_from(n, &words, p, true);
        prop_assert!(preflight_is_clean(&instance));
        for (kind, a, b, q) in script {
            let delta = delta_from(&instance, kind, a, b, q);
            let before = instance.canonical();
            match instance.apply(&delta) {
                Ok(dirty) => {
                    prop_assert!(dirty.universe() == n);
                    prop_assert!(
                        preflight_is_clean(&instance),
                        "lint pre-flight failed after {delta:?}"
                    );
                }
                Err(_) => prop_assert_eq!(instance.canonical(), before),
            }
        }
    }

    /// A patched entry always carries a feasible schedule whose stored
    /// value matches the schedule re-evaluated against the instance. The
    /// entry's CELF solve, and every full re-solve a patch makes, is
    /// bitwise the naive greedy's scratch solve ([`SessionInstance::solve`])
    /// in both regimes; a zero threshold sends every non-empty delta down
    /// the full path.
    #[test]
    fn patched_entries_stay_feasible(
        n in 3usize..7,
        words in proptest::collection::vec(any::<u32>(), 1..3),
        sunny in any::<bool>(),
        script in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), any::<u32>(), 0.05f64..0.95), 1..6),
    ) {
        let instance = instance_from(n, &words, 0.5, sunny);
        let oracle = instance.solve().expect("naive solve");
        for config in [RepairConfig::default(), RepairConfig { full_threshold: 0.0 }] {
            let mut entry =
                SessionEntry::solve(instance.clone()).expect("generated instance solvable");
            prop_assert_eq!(entry.schedule(), &oracle);
            for &(kind, a, b, q) in &script {
                let delta = delta_from(entry.instance(), kind, a, b, q);
                if let Ok(stats) = entry.patch(&delta, &config) {
                    prop_assert!(entry.schedule().is_feasible(entry.instance().cycle()));
                    let expect = entry.schedule().period_utility(&entry.instance().utility());
                    prop_assert!((entry.value() - expect).abs() < 1e-12);
                    if stats.mode == RepairMode::Full {
                        let scratch = entry.instance().solve().expect("naive solve");
                        prop_assert_eq!(entry.schedule(), &scratch, "after {:?}", delta);
                    }
                }
            }
        }
    }

    /// `Remove∘Add` of the same alive sensor is the identity on the
    /// canonical form (full coverage sets survive the death).
    #[test]
    fn remove_add_round_trips(
        n in 3usize..8,
        words in proptest::collection::vec(any::<u32>(), 1..4),
        victim in any::<usize>(),
    ) {
        let mut instance = instance_from(n, &words, 0.5, true);
        let v = victim % n;
        let before = instance.canonical();
        instance.apply(&Delta::RemoveSensor { sensor: v }).expect("alive sensor removable");
        instance.apply(&Delta::AddSensor { sensor: v }).expect("dead sensor resurrectable");
        prop_assert_eq!(instance.canonical(), before);
    }
}
