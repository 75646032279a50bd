//! Incremental scheduling sessions over mutating instances.
//!
//! The schedulers in `cool-core` treat an instance as frozen; a real
//! deployment mutates continuously — a sensor dies, a target moves,
//! weather flips ρ. This crate keeps a **live** instance plus its current
//! schedule and repairs the schedule after each mutation instead of
//! re-solving from scratch:
//!
//! * [`SessionInstance`] — an explicit multi-target detection instance
//!   (full per-target coverage sets, an `alive` mask, the charge cycle
//!   parameters) with a deterministic [canonical form]
//!   (`SessionInstance::canonical`) used for content addressing;
//! * [`Delta`] — the typed mutation language (`AddSensor`,
//!   `RemoveSensor`, `AddTarget`, `RemoveTarget`, `Reweight`,
//!   `RhoChange`) with a line-oriented text format for replay files;
//! * [`SessionEntry`] — instance + schedule + the long-lived
//!   [`SparseSumEvaluator`](cool_utility::SparseSumEvaluator) (rebuild
//!   cadence lowered for long sessions); [`SessionEntry::solve`] solves
//!   an instance with the CELF greedy, and [`SessionEntry::patch`]
//!   applies a delta and warm-start repairs via
//!   [`cool_core::repair_schedule`];
//! * [`SessionStore`] — a bounded LRU map from content-addressed session
//!   ids to entries, with tombstones so deleted/evicted ids answer
//!   `410 Gone` rather than `404`.
//!
//! The repair contract (empty delta ⇒ bit-for-bit identical schedule;
//! non-empty delta ⇒ value within the greedy approximation bound of a
//! from-scratch solve) is enforced end-to-end by cool-check relation
//! `session-repair-equal` (`COOL-E027`).

pub mod delta;
pub mod instance;
pub mod store;

pub use delta::{parse_deltas, render_deltas, Delta};
pub use instance::{SessionInstance, TargetSpec};
pub use store::{
    PatchStats, SessionEntry, SessionStore, SessionStoreError, SESSION_REBUILD_CADENCE,
};
