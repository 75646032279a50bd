//! The slot algebra of §II-B.
//!
//! Time is divided into equal slots; the paper normalises the slot length to
//! `T_d` when `ρ = T_r/T_d > 1` and to `T_r` when `ρ ≤ 1`, so that one
//! charging period `T = T_r + T_d` always spans an integer number of slots:
//! `ρ + 1` in the first case, `1 + 1/ρ` in the second (Fig. 2). For
//! simplicity of exposition the paper assumes `ρ` (or `1/ρ`) is an integer;
//! [`ChargeCycle`] enforces the same and exposes the derived quantities.

use crate::FleetGrid;
use std::fmt;

/// Error constructing a [`ChargeCycle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleError {
    /// A duration was zero, negative, or not finite.
    NonPositiveDuration,
    /// Neither `ρ` nor `1/ρ` is an integer (within tolerance), so the period
    /// does not decompose into equal slots.
    NonIntegralRatio,
}

impl fmt::Display for CycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CycleError::NonPositiveDuration => {
                write!(
                    f,
                    "discharge and recharge times must be positive and finite"
                )
            }
            CycleError::NonIntegralRatio => {
                write!(
                    f,
                    "neither rho nor 1/rho is an integer, period does not slot evenly"
                )
            }
        }
    }
}

impl std::error::Error for CycleError {}

/// The charge/discharge cycle of a homogeneous solar-powered deployment:
/// `T_d`, `T_r`, `ρ = T_r/T_d`, `T = T_r + T_d`.
///
/// # Examples
///
/// ```
/// use cool_energy::ChargeCycle;
///
/// // Fast recharge (ρ ≤ 1): discharge 40 min, recharge 10 min → ρ = 1/4.
/// let cycle = ChargeCycle::from_minutes(40.0, 10.0)?;
/// assert_eq!(cycle.rho(), 0.25);
/// assert_eq!(cycle.slot_minutes(), 10.0);        // one slot = T_r
/// assert_eq!(cycle.slots_per_period(), 5);       // 1/ρ + 1
/// assert_eq!(cycle.active_slots_per_period(), 4);
/// assert_eq!(cycle.passive_slots_per_period(), 1);
/// # Ok::<(), cool_energy::CycleError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChargeCycle {
    discharge_minutes: f64,
    recharge_minutes: f64,
}

impl ChargeCycle {
    /// Tolerance for the "ρ is an integer" check, as a fraction of ρ.
    const RATIO_TOLERANCE: f64 = 1e-9;

    /// Creates a cycle from the discharge time `T_d` and recharge time `T_r`
    /// in minutes.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::NonPositiveDuration`] for non-positive or
    /// non-finite inputs and [`CycleError::NonIntegralRatio`] when neither
    /// `T_r/T_d` nor `T_d/T_r` is an integer.
    pub fn from_minutes(discharge_minutes: f64, recharge_minutes: f64) -> Result<Self, CycleError> {
        let valid = discharge_minutes.is_finite()
            && discharge_minutes > 0.0
            && recharge_minutes.is_finite()
            && recharge_minutes > 0.0;
        if !valid {
            return Err(CycleError::NonPositiveDuration);
        }
        let rho = recharge_minutes / discharge_minutes;
        let ratio = if rho >= 1.0 { rho } else { 1.0 / rho };
        if (ratio - ratio.round()).abs() > Self::RATIO_TOLERANCE * ratio {
            return Err(CycleError::NonIntegralRatio);
        }
        Ok(ChargeCycle {
            discharge_minutes,
            recharge_minutes,
        })
    }

    /// Creates a cycle from `ρ` directly, with slot length `slot_minutes`.
    ///
    /// When `ρ ≥ 1` the slot is the discharge time (`T_d = slot`,
    /// `T_r = ρ·slot`); when `ρ < 1` the slot is the recharge time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChargeCycle::from_minutes`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cool_energy::ChargeCycle;
    /// let c = ChargeCycle::from_rho(3.0, 15.0)?;
    /// assert_eq!(c.discharge_minutes(), 15.0);
    /// assert_eq!(c.recharge_minutes(), 45.0);
    /// # Ok::<(), cool_energy::CycleError>(())
    /// ```
    pub fn from_rho(rho: f64, slot_minutes: f64) -> Result<Self, CycleError> {
        let valid = rho.is_finite() && rho > 0.0 && slot_minutes.is_finite() && slot_minutes > 0.0;
        if !valid {
            return Err(CycleError::NonPositiveDuration);
        }
        if rho >= 1.0 {
            ChargeCycle::from_minutes(slot_minutes, rho * slot_minutes)
        } else {
            ChargeCycle::from_minutes(slot_minutes / rho, slot_minutes)
        }
    }

    /// The sunny-day pattern measured on the paper's testbed (§VI-A):
    /// `T_d = 15 min`, `T_r = 45 min`, so `ρ = 3`.
    pub fn paper_sunny() -> Self {
        match ChargeCycle::from_minutes(15.0, 45.0) {
            Ok(cycle) => cycle,
            Err(_) => unreachable!("paper constants are valid"),
        }
    }

    /// Discharge time `T_d` in minutes.
    pub fn discharge_minutes(&self) -> f64 {
        self.discharge_minutes
    }

    /// Recharge time `T_r` in minutes.
    pub fn recharge_minutes(&self) -> f64 {
        self.recharge_minutes
    }

    /// The ratio `ρ = T_r / T_d`.
    pub fn rho(&self) -> f64 {
        self.recharge_minutes / self.discharge_minutes
    }

    /// `true` when `ρ > 1` (recharging slower than discharging) — the case
    /// §IV-A schedules by choosing each sensor's single **active** slot.
    pub fn is_slow_recharge(&self) -> bool {
        self.rho() > 1.0
    }

    /// Charging period `T = T_r + T_d` in minutes.
    pub fn period_minutes(&self) -> f64 {
        self.discharge_minutes + self.recharge_minutes
    }

    /// Length of one normalised time slot in minutes: `T_d` if `ρ ≥ 1`,
    /// otherwise `T_r`.
    pub fn slot_minutes(&self) -> f64 {
        if self.rho() >= 1.0 {
            self.discharge_minutes
        } else {
            self.recharge_minutes
        }
    }

    /// Slots per charging period: `ρ + 1` when `ρ ≥ 1`, else `1/ρ + 1`,
    /// saturating at `usize::MAX` for a ratio too large to count.
    pub fn slots_per_period(&self) -> usize {
        let rho = self.rho();
        let ratio = if rho >= 1.0 { rho } else { 1.0 / rho };
        (ratio.round() as usize).saturating_add(1)
    }

    /// The cycle itself when one period spans at most
    /// [`FleetGrid::MAX_HYPERPERIOD_TICKS`] slots, the bound a fleet grid
    /// puts on its hyperperiod, so that one period of slots is always small
    /// enough to allocate. The one owner of that cap: scenario builds,
    /// session instances and their `rho` deltas take their cycle through
    /// here, and `cool lint` asks it before reporting `COOL-E007`.
    ///
    /// # Errors
    ///
    /// `rho = <ρ> gives a period of more than 4096 slots` for a longer
    /// period.
    pub fn within_slot_cap(self) -> Result<Self, String> {
        if self.slots_per_period() > FleetGrid::MAX_HYPERPERIOD_TICKS {
            return Err(format!(
                "rho = {} gives a period of more than {} slots",
                self.rho(),
                FleetGrid::MAX_HYPERPERIOD_TICKS
            ));
        }
        Ok(self)
    }

    /// Slots per period a sensor may be **active**: `1` when `ρ ≥ 1`,
    /// `1/ρ` otherwise.
    pub fn active_slots_per_period(&self) -> usize {
        if self.rho() >= 1.0 {
            1
        } else {
            self.slots_per_period() - 1
        }
    }

    /// Slots per period a sensor must be **passive** (recharging):
    /// `ρ` when `ρ ≥ 1`, else `1`.
    pub fn passive_slots_per_period(&self) -> usize {
        self.slots_per_period() - self.active_slots_per_period()
    }

    /// Number of whole slots in a working time of `hours` hours.
    ///
    /// The paper takes `L` to be a multiple of `T`; this helper truncates.
    pub fn slots_in_hours(&self, hours: f64) -> usize {
        (hours * 60.0 / self.slot_minutes()).floor() as usize
    }

    /// Number of whole periods `α` such that `L = αT` fits in `hours`.
    pub fn periods_in_hours(&self, hours: f64) -> usize {
        (hours * 60.0 / self.period_minutes()).floor() as usize
    }

    /// Energy drawn from a full battery per active slot, as a fraction of
    /// battery capacity: `1/active_slots_per_period`.
    ///
    /// With `ρ ≥ 1` an active slot drains the battery completely (`1.0`);
    /// with `ρ < 1` it drains `ρ` of it (the battery sustains `1/ρ` active
    /// slots).
    pub fn discharge_fraction_per_slot(&self) -> f64 {
        1.0 / self.active_slots_per_period() as f64
    }

    /// Energy restored per passive slot as a fraction of battery capacity:
    /// `1/passive_slots_per_period` (`ρ ≥ 1` ⇒ `1/ρ`; `ρ < 1` ⇒ `1.0`).
    pub fn recharge_fraction_per_slot(&self) -> f64 {
        1.0 / self.passive_slots_per_period() as f64
    }
}

impl fmt::Display for ChargeCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T_d={}min T_r={}min (rho={}, T={} slots of {}min)",
            self.discharge_minutes,
            self.recharge_minutes,
            self.rho(),
            self.slots_per_period(),
            self.slot_minutes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_sunny_constants() {
        let c = ChargeCycle::paper_sunny();
        assert_eq!(c.rho(), 3.0);
        assert_eq!(c.period_minutes(), 60.0);
        assert_eq!(c.slots_per_period(), 4);
        assert_eq!(c.active_slots_per_period(), 1);
        assert_eq!(c.passive_slots_per_period(), 3);
        // Paper example: L = 12 h → 720 min → 48 slots → 12 periods.
        assert_eq!(c.slots_in_hours(12.0), 48);
        assert_eq!(c.periods_in_hours(12.0), 12);
    }

    #[test]
    fn fast_recharge_case() {
        let c = ChargeCycle::from_minutes(30.0, 10.0).unwrap();
        assert_eq!(c.rho(), 1.0 / 3.0);
        assert!(!c.is_slow_recharge());
        assert_eq!(c.slot_minutes(), 10.0);
        assert_eq!(c.slots_per_period(), 4);
        assert_eq!(c.active_slots_per_period(), 3);
        assert_eq!(c.passive_slots_per_period(), 1);
        assert!((c.discharge_fraction_per_slot() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.recharge_fraction_per_slot(), 1.0);
    }

    #[test]
    fn rho_equal_one() {
        let c = ChargeCycle::from_minutes(20.0, 20.0).unwrap();
        assert_eq!(c.rho(), 1.0);
        assert!(!c.is_slow_recharge());
        assert_eq!(c.slots_per_period(), 2);
        assert_eq!(c.active_slots_per_period(), 1);
        assert_eq!(c.passive_slots_per_period(), 1);
    }

    #[test]
    fn huge_ratios_saturate_the_slot_count() {
        for (d, r) in [(15.0, 1e300), (1e300, 15.0), (1e-300, 1e300)] {
            let c = ChargeCycle::from_minutes(d, r).unwrap();
            assert_eq!(c.slots_per_period(), usize::MAX, "T_d = {d}, T_r = {r}");
        }
    }

    #[test]
    fn from_rho_round_trips() {
        let c = ChargeCycle::from_rho(5.0, 15.0).unwrap();
        assert_eq!(c.discharge_minutes(), 15.0);
        assert_eq!(c.recharge_minutes(), 75.0);
        let c = ChargeCycle::from_rho(0.5, 10.0).unwrap();
        assert_eq!(c.recharge_minutes(), 10.0);
        assert_eq!(c.discharge_minutes(), 20.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            ChargeCycle::from_minutes(0.0, 10.0),
            Err(CycleError::NonPositiveDuration)
        );
        assert_eq!(
            ChargeCycle::from_minutes(10.0, f64::NAN),
            Err(CycleError::NonPositiveDuration)
        );
        assert_eq!(
            ChargeCycle::from_minutes(10.0, 25.0),
            Err(CycleError::NonIntegralRatio)
        );
        assert_eq!(
            ChargeCycle::from_rho(-1.0, 10.0),
            Err(CycleError::NonPositiveDuration)
        );
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = ChargeCycle::from_minutes(10.0, 25.0).unwrap_err();
        assert!(e.to_string().contains("integer"));
    }

    proptest! {
        /// Fig. 2 identity: the period always decomposes into
        /// active + passive slots, and their durations sum to T.
        #[test]
        fn period_decomposes_into_slots(ratio in 1usize..20, slot in 1.0f64..120.0, invert in any::<bool>()) {
            let rho = if invert { 1.0 / ratio as f64 } else { ratio as f64 };
            let c = ChargeCycle::from_rho(rho, slot).unwrap();
            prop_assert_eq!(
                c.active_slots_per_period() + c.passive_slots_per_period(),
                c.slots_per_period()
            );
            let total = c.slots_per_period() as f64 * c.slot_minutes();
            prop_assert!((total - c.period_minutes()).abs() < 1e-6 * c.period_minutes());
            // Energy balance: a period's worth of activity exactly drains and
            // refills the battery.
            let drained = c.active_slots_per_period() as f64 * c.discharge_fraction_per_slot();
            let refilled = c.passive_slots_per_period() as f64 * c.recharge_fraction_per_slot();
            prop_assert!((drained - 1.0).abs() < 1e-9);
            prop_assert!((refilled - 1.0).abs() < 1e-9);
        }
    }
}
