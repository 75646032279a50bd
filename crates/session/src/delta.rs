//! The typed delta language sessions are patched with.
//!
//! Text format: one delta per line, `#` starts a comment, blank lines
//! ignored. The grammar (spaces separate tokens):
//!
//! ```text
//! add_sensor <v>
//! remove_sensor <v>
//! add_target <p> <v1> <v2> ...
//! remove_target <j>
//! reweight <j> <p>
//! rho <discharge_minutes> <recharge_minutes>
//! ```
//!
//! Every delta is validated against the instance before mutating it;
//! [`SessionInstance::apply`] additionally returns the **dirty set** —
//! the sensors whose (sensor, slot) cells the warm-start repair must
//! revisit. Sensor deltas dirty the sensor's live neighbourhood (itself
//! plus every live sensor sharing a target); target deltas dirty the
//! target's live coverage; `rho` dirties nothing (a period-shape change
//! is caught by the repair engine's compatibility check instead).

use crate::instance::{SessionInstance, TargetSpec};
use cool_common::{SensorId, SensorSet};
use cool_energy::ChargeCycle;

/// One mutation of a live [`SessionInstance`].
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Resurrect (or newly deploy) sensor `sensor` — it must currently
    /// be dead.
    AddSensor {
        /// Sensor index in `0..n`.
        sensor: usize,
    },
    /// Kill sensor `sensor` — it must currently be alive. Its coverage
    /// memberships are retained so a later `AddSensor` round-trips.
    RemoveSensor {
        /// Sensor index in `0..n`.
        sensor: usize,
    },
    /// Append a new watched target.
    AddTarget {
        /// Per-sensor detection probability of the new target.
        p: f64,
        /// Covering sensors (indices in `0..n`, deduplicated).
        coverage: Vec<usize>,
    },
    /// Drop target `target` (index into the current target list); the
    /// last remaining target cannot be removed.
    RemoveTarget {
        /// Target index.
        target: usize,
    },
    /// Set target `target`'s per-sensor detection probability — its
    /// weight in the sum utility.
    Reweight {
        /// Target index.
        target: usize,
        /// New probability in `[0, 1]`.
        p: f64,
    },
    /// Replace the charge-cycle parameters (weather change).
    RhoChange {
        /// New discharge time `T_d` in minutes.
        discharge_minutes: f64,
        /// New recharge time `T_r` in minutes.
        recharge_minutes: f64,
    },
}

impl Delta {
    /// Renders the delta in the replay-file grammar (no newline).
    pub fn render(&self) -> String {
        match self {
            Delta::AddSensor { sensor } => format!("add_sensor {sensor}"),
            Delta::RemoveSensor { sensor } => format!("remove_sensor {sensor}"),
            Delta::AddTarget { p, coverage } => {
                let members: Vec<String> = coverage.iter().map(ToString::to_string).collect();
                format!("add_target {p} {}", members.join(" "))
            }
            Delta::RemoveTarget { target } => format!("remove_target {target}"),
            Delta::Reweight { target, p } => format!("reweight {target} {p}"),
            Delta::RhoChange {
                discharge_minutes,
                recharge_minutes,
            } => format!("rho {discharge_minutes} {recharge_minutes}"),
        }
    }

    /// Parses one delta line (comments/blank lines already stripped).
    ///
    /// # Errors
    ///
    /// Returns a rendered message naming the malformed token.
    pub fn parse(line: &str) -> Result<Delta, String> {
        fn num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
            let tok = tok.ok_or_else(|| format!("missing {what}"))?;
            tok.parse()
                .map_err(|_| format!("bad {what} {tok:?} in delta"))
        }
        let mut toks = line.split_whitespace();
        let verb = toks.next().ok_or_else(|| "empty delta line".to_string())?;
        let delta = match verb {
            "add_sensor" => Delta::AddSensor {
                sensor: num(toks.next(), "sensor index")?,
            },
            "remove_sensor" => Delta::RemoveSensor {
                sensor: num(toks.next(), "sensor index")?,
            },
            "add_target" => {
                let p = num(toks.next(), "probability")?;
                let coverage: Vec<usize> = toks
                    .by_ref()
                    .map(|t| num(Some(t), "sensor index"))
                    .collect::<Result<_, _>>()?;
                Delta::AddTarget { p, coverage }
            }
            "remove_target" => Delta::RemoveTarget {
                target: num(toks.next(), "target index")?,
            },
            "reweight" => Delta::Reweight {
                target: num(toks.next(), "target index")?,
                p: num(toks.next(), "probability")?,
            },
            "rho" => Delta::RhoChange {
                discharge_minutes: num(toks.next(), "discharge minutes")?,
                recharge_minutes: num(toks.next(), "recharge minutes")?,
            },
            other => return Err(format!("unknown delta verb {other:?}")),
        };
        if toks.next().is_some() {
            return Err(format!("trailing tokens after {verb:?} delta"));
        }
        Ok(delta)
    }
}

/// Parses a replay file: one delta per line, `#` comments, blank lines
/// skipped.
///
/// # Errors
///
/// Returns `"line N: <message>"` for the first malformed line.
pub fn parse_deltas(text: &str) -> Result<Vec<Delta>, String> {
    let mut deltas = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let delta = Delta::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        deltas.push(delta);
    }
    Ok(deltas)
}

/// Renders a delta sequence in the replay-file grammar, one per line.
pub fn render_deltas(deltas: &[Delta]) -> String {
    let mut out = String::new();
    for d in deltas {
        out.push_str(&d.render());
        out.push('\n');
    }
    out
}

impl SessionInstance {
    /// Validates and applies one delta, returning the dirty sensor set
    /// the warm-start repair must revisit. The instance is unchanged on
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a rendered message when the delta is invalid against the
    /// current state (out-of-range index, double add/remove, removing
    /// the last target, non-integral ρ, a period over the slot cap,
    /// probability outside `[0, 1]`).
    pub fn apply(&mut self, delta: &Delta) -> Result<SensorSet, String> {
        match *delta {
            Delta::AddSensor { sensor } => {
                self.check_sensor(sensor)?;
                if self.alive().contains(SensorId(sensor)) {
                    return Err(format!("add_sensor {sensor}: sensor is already alive"));
                }
                self.alive_mut().insert(SensorId(sensor));
                Ok(self.neighbourhood(sensor))
            }
            Delta::RemoveSensor { sensor } => {
                self.check_sensor(sensor)?;
                if !self.alive().contains(SensorId(sensor)) {
                    return Err(format!("remove_sensor {sensor}: sensor is already dead"));
                }
                // Dirty the neighbourhood as seen *before* the kill so
                // the victim's former co-coverers get re-greedied.
                let dirty = self.neighbourhood(sensor);
                self.alive_mut().remove(SensorId(sensor));
                Ok(dirty)
            }
            Delta::AddTarget { p, ref coverage } => {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("add_target: probability {p} outside [0, 1]"));
                }
                let mut cover = SensorSet::new(self.n());
                for &v in coverage {
                    self.check_sensor(v)?;
                    cover.insert(SensorId(v));
                }
                if cover.is_empty() {
                    return Err("add_target: coverage must name at least one sensor".into());
                }
                let dirty = cover.intersection(self.alive());
                self.targets_mut().push(TargetSpec { coverage: cover, p });
                Ok(dirty)
            }
            Delta::RemoveTarget { target } => {
                self.check_target(target)?;
                if self.targets().len() == 1 {
                    return Err("remove_target: cannot remove the last target".into());
                }
                let dirty = self.live_coverage(target);
                self.targets_mut().remove(target);
                Ok(dirty)
            }
            Delta::Reweight { target, p } => {
                self.check_target(target)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("reweight: probability {p} outside [0, 1]"));
                }
                let dirty = self.live_coverage(target);
                self.targets_mut()[target].p = p;
                Ok(dirty)
            }
            Delta::RhoChange {
                discharge_minutes,
                recharge_minutes,
            } => {
                ChargeCycle::from_minutes(discharge_minutes, recharge_minutes)
                    .map_err(|e| e.to_string())
                    .and_then(ChargeCycle::within_slot_cap)
                    .map_err(|e| format!("rho: {e}"))?;
                self.set_cycle_minutes(discharge_minutes, recharge_minutes);
                // A period-shape change is handled by the repair
                // engine's compatibility check, not by dirtying cells.
                Ok(SensorSet::new(self.n()))
            }
        }
    }

    fn check_sensor(&self, v: usize) -> Result<(), String> {
        if v >= self.n() {
            return Err(format!("sensor index {v} outside universe 0..{}", self.n()));
        }
        Ok(())
    }

    fn check_target(&self, j: usize) -> Result<(), String> {
        if j >= self.targets().len() {
            return Err(format!(
                "target index {j} outside 0..{}",
                self.targets().len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SessionInstance {
        SessionInstance::new(
            6,
            vec![
                TargetSpec {
                    coverage: SensorSet::from_indices(6, [0, 1, 2]),
                    p: 0.5,
                },
                TargetSpec {
                    coverage: SensorSet::from_indices(6, [2, 3, 4, 5]),
                    p: 0.25,
                },
            ],
            15.0,
            45.0,
            12.0,
        )
        .unwrap()
    }

    #[test]
    fn parse_render_round_trips() {
        let text = "# weather flips\nadd_sensor 3\nremove_sensor 1\n\
                    add_target 0.5 0 2 4\nremove_target 1\nreweight 0 0.75\nrho 15 45\n";
        let deltas = parse_deltas(text).unwrap();
        assert_eq!(deltas.len(), 6);
        let rendered = render_deltas(&deltas);
        assert_eq!(parse_deltas(&rendered).unwrap(), deltas);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_deltas("warp 9").is_err());
        assert!(parse_deltas("add_sensor").is_err());
        assert!(parse_deltas("add_sensor 1 2").is_err());
        assert!(parse_deltas("reweight 0 nope").is_err());
    }

    #[test]
    fn remove_add_round_trips_canonical_form() {
        let mut inst = small();
        let before = inst.canonical();
        inst.apply(&Delta::RemoveSensor { sensor: 2 }).unwrap();
        assert_ne!(inst.canonical(), before);
        inst.apply(&Delta::AddSensor { sensor: 2 }).unwrap();
        assert_eq!(inst.canonical(), before);
    }

    #[test]
    fn sensor_delta_dirty_is_live_neighbourhood() {
        let mut inst = small();
        // Sensor 2 shares targets with everyone.
        let dirty = inst.apply(&Delta::RemoveSensor { sensor: 2 }).unwrap();
        assert_eq!(dirty.len(), 6);
        // Sensor 0 only shares target 0 (with 1 and the now-dead 2).
        let dirty = inst.apply(&Delta::RemoveSensor { sensor: 0 }).unwrap();
        let expect = SensorSet::from_indices(6, [0, 1]);
        assert_eq!(dirty, expect);
    }

    #[test]
    fn invalid_deltas_leave_instance_unchanged() {
        let mut inst = small();
        let before = inst.canonical();
        for bad in [
            Delta::AddSensor { sensor: 0 },    // already alive
            Delta::RemoveSensor { sensor: 9 }, // out of range
            Delta::Reweight { target: 5, p: 0.5 },
            Delta::Reweight { target: 0, p: 1.5 },
            Delta::AddTarget {
                p: 0.5,
                coverage: vec![],
            },
            Delta::RhoChange {
                discharge_minutes: 10.0,
                recharge_minutes: 25.0, // ρ = 2.5, non-integral
            },
            Delta::RhoChange {
                discharge_minutes: 1.0,
                recharge_minutes: 4096.0, // a 4097-slot period
            },
        ] {
            assert!(inst.apply(&bad).is_err(), "{bad:?} should be rejected");
            assert_eq!(inst.canonical(), before);
        }
    }

    #[test]
    fn remove_target_guards_last_target() {
        let mut inst = small();
        inst.apply(&Delta::RemoveTarget { target: 1 }).unwrap();
        assert!(inst.apply(&Delta::RemoveTarget { target: 0 }).is_err());
    }

    #[test]
    fn rho_change_validates_and_applies() {
        let mut inst = small();
        inst.apply(&Delta::RhoChange {
            discharge_minutes: 45.0,
            recharge_minutes: 15.0,
        })
        .unwrap();
        assert!(inst.cycle().rho() < 1.0);
    }
}
