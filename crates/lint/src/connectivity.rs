//! Connectivity linting of per-slot active sets (`COOL-W009`).
//!
//! The paper optimises *coverage* and never models the communication
//! graph, but a slot whose active set covers every target while splitting
//! into several communication components cannot relay its detections to a
//! sink — the coverage is real, the data is stranded. Khasteh et al. show
//! coverage implies connectivity only when the communication radius is at
//! least twice the sensing radius; below that threshold this lint is the
//! static check that catches the gap.
//!
//! The pass is opt-in: scenarios enable it with a positive `comms_radius`
//! key (`0`, the default, disables it — the paper's model).

use crate::diag::{Diagnostic, Report};
use cool_common::{CoolCode, SensorId, UnionFind};
use cool_core::schedule::PeriodSchedule;
use cool_geometry::deployment::DiskIndex;
use cool_geometry::Point;

/// Flags every slot whose active set is coverage-complete (every target
/// geometrically covered by some active sensor) yet splits into more than
/// one component of the communication graph — edges join active sensors at
/// distance ≤ `comms_radius`. Returns an empty report when
/// `comms_radius <= 0` (check disabled) or there are no targets.
#[must_use]
pub fn lint_connectivity(
    positions: &[Point],
    targets: &[Point],
    radius: f64,
    comms_radius: f64,
    schedule: &PeriodSchedule,
) -> Report {
    let mut report = Report::new();
    if comms_radius <= 0.0 || targets.is_empty() {
        return report;
    }
    let index = DiskIndex::new(positions, radius);
    let coverers: Vec<Vec<u32>> = targets.iter().map(|&t| index.covering(t)).collect();

    for t in 0..schedule.slots_per_period() {
        let active = schedule.active_set(t);
        if active.is_empty() {
            continue; // statically dead: COOL-W008's finding, not ours
        }
        let complete = coverers
            .iter()
            .all(|cov| cov.iter().any(|&v| active.contains(SensorId(v as usize))));
        if !complete {
            continue; // incomplete coverage is not a connectivity finding
        }
        let members: Vec<usize> = active.iter().map(SensorId::index).collect();
        let mut uf = UnionFind::new(members.len());
        for (a, &va) in members.iter().enumerate() {
            for (b, &vb) in members.iter().enumerate().skip(a + 1) {
                if positions[va].distance(positions[vb]) <= comms_radius {
                    uf.union(a, b);
                }
            }
        }
        if uf.components() > 1 {
            report.push(
                Diagnostic::new(
                    CoolCode::DisconnectedCover,
                    format!(
                        "slot {t}'s active set covers every target but splits into {} \
                         communication components (comms_radius = {comms_radius})",
                        uf.components()
                    ),
                )
                .with_help(
                    "coverage only implies connectivity when the communication radius is at \
                     least twice the sensing radius; raise comms_radius or densify the \
                     deployment",
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::schedule::ScheduleMode;

    /// Two sensors 100 apart, each covering its own nearby target.
    fn split_deployment() -> (Vec<Point>, Vec<Point>) {
        let positions = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let targets = vec![Point::new(1.0, 0.0), Point::new(99.0, 0.0)];
        (positions, targets)
    }

    /// Both sensors share slot 0 of a 2-slot period.
    fn both_active() -> PeriodSchedule {
        PeriodSchedule::new(ScheduleMode::ActiveSlot, 2, vec![0, 0])
    }

    #[test]
    fn disconnected_complete_cover_is_w009() {
        let (positions, targets) = split_deployment();
        let r = lint_connectivity(&positions, &targets, 10.0, 20.0, &both_active());
        assert!(r.has_code(CoolCode::DisconnectedCover), "{r}");
        assert!(r.is_clean(), "W009 warns, it does not error");
    }

    #[test]
    fn connected_cover_is_clean() {
        let (positions, targets) = split_deployment();
        let r = lint_connectivity(&positions, &targets, 10.0, 150.0, &both_active());
        assert!(r.diagnostics().is_empty(), "{r}");
    }

    #[test]
    fn incomplete_cover_is_not_flagged() {
        // Only sensor 0 active in slot 0: target 1 uncovered, so the slot
        // is an incomplete (not a disconnected) cover.
        let (positions, targets) = split_deployment();
        let s = PeriodSchedule::new(ScheduleMode::ActiveSlot, 2, vec![0, 1]);
        let r = lint_connectivity(&positions, &targets, 10.0, 20.0, &s);
        assert!(r.diagnostics().is_empty(), "{r}");
    }

    #[test]
    fn zero_comms_radius_disables_the_check() {
        let (positions, targets) = split_deployment();
        let r = lint_connectivity(&positions, &targets, 10.0, 0.0, &both_active());
        assert!(r.diagnostics().is_empty());
    }
}
