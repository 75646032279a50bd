//! Submodular utility functions over sensor sets.
//!
//! §II-C of the paper assumes the quality of coverage service delivered by a
//! set `S` of activated sensors is a **non-decreasing submodular** function
//! `U(S)` with `U(∅) = 0`:
//!
//! ```text
//! U(S₁) ≤ U(S₂)                         for S₁ ⊆ S₂          (monotone)
//! U(S₁∪A) − U(S₁) ≥ U(S₂∪A) − U(S₂)     for S₁ ⊆ S₂          (diminishing returns)
//! ```
//!
//! This crate provides:
//!
//! * the [`UtilityFunction`] trait and its incremental [`Evaluator`]
//!   companion — exact O(1)-ish marginal gains/losses, the workhorse of the
//!   greedy scheduler ([`traits`]);
//! * the paper's concrete utilities:
//!   [`DetectionUtility`] (`U_i(S) = 1 − Π(1−p_j)`, §II-C),
//!   [`LogSumUtility`] (`log(1 + Σ I_i)`, the NP-hardness gadget of §III),
//!   [`CoverageUtility`] (Eq. 2 weighted-area region monitoring),
//!   [`LinearUtility`] (the modular special case, where LP rounding is
//!   exact), and [`FacilityLocationUtility`] (a further classic submodular
//!   instance);
//! * [`SparseVector`] — the support-only per-sensor storage of the
//!   detection, linear and log-sum parts ([`sparse`]);
//! * [`SumUtility`] / [`AnyUtility`] — the multi-target composite
//!   `Σᵢ U_i(S ∩ V(O_i))` ([`composite`]), evaluated sparsely: a CSR
//!   incidence index over the parts' [support
//!   sets](UtilityFunction::support) makes each marginal-gain query
//!   O(deg(v)) instead of O(m), and the struct-of-arrays engine in [`soa`]
//!   answers it with family-batched kernels over contiguous scalar state
//!   ([`SparseSumEvaluator`]). The dense [`SumEvaluator`] (Eq. 1 term by
//!   term, via [`SumUtility::dense_evaluator`] or [`DenseSumUtility`]) is
//!   kept as the one bitwise differential oracle, with query counters in
//!   [`stats`];
//! * a numerical submodularity/monotonicity checker used by the property
//!   tests ([`checker`]).
//!
//! # Examples
//!
//! ```
//! use cool_common::{SensorId, SensorSet};
//! use cool_utility::{DetectionUtility, Evaluator, UtilityFunction};
//!
//! // Three sensors watch a target, each detecting with probability 0.4.
//! let u = DetectionUtility::uniform(3, 0.4);
//! let two = SensorSet::from_indices(3, [0, 1]);
//! assert!((u.eval(&two) - (1.0 - 0.6 * 0.6)).abs() < 1e-12);
//!
//! // Incremental evaluator: marginal gain of the third sensor.
//! let mut eval = u.evaluator();
//! eval.insert(cool_common::SensorId(0));
//! eval.insert(cool_common::SensorId(1));
//! assert!((eval.gain(cool_common::SensorId(2)) - 0.36 * 0.4).abs() < 1e-12);
//! ```

pub mod checker;
pub mod composite;
pub mod coverage;
pub mod detection;
pub mod facility;
pub mod kcover;
pub mod linear;
pub mod logsum;
pub mod soa;
pub mod sparse;
pub mod stats;
pub mod traits;

pub use checker::{check_utility, UtilityViolation};
pub use composite::{
    AnyEvaluator, AnyUtility, DenseSumUtility, IncidenceIndex, SumEvaluator, SumUtility,
};
pub use coverage::{CoverageEvaluator, CoverageUtility};
pub use detection::{DetectionEvaluator, DetectionUtility};
pub use facility::{FacilityEvaluator, FacilityLocationUtility};
pub use kcover::{KCoverageEvaluator, KCoverageUtility};
pub use linear::{LinearEvaluator, LinearUtility};
pub use logsum::{LogSumEvaluator, LogSumUtility};
pub use soa::{Family, SparseSumEvaluator, SparseSumSlots};
pub use sparse::SparseVector;
pub use traits::{Evaluator, PerSlot, SlotState, UtilityFunction};
