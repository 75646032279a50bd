//! Live session entries and the bounded content-addressed store.

use crate::delta::Delta;
use crate::instance::SessionInstance;
use cool_common::hash::StableHasher;
use cool_core::greedy::try_greedy_schedule_lazy;
use cool_core::{repair_schedule, PeriodSchedule, Problem, RepairConfig, RepairMode};
use cool_utility::{Evaluator, SparseSumEvaluator, SumUtility, UtilityFunction};
use std::collections::VecDeque;

/// Rebuild cadence for a session's long-lived evaluator: long sessions
/// mutate for hours, so the running Kahan value is re-anchored far more
/// often than the solver default (bit-identical either way — pinned by
/// the `rebuild_cadence` regression test in `cool-utility`).
pub const SESSION_REBUILD_CADENCE: u32 = 64;

/// Telemetry from one [`SessionEntry::patch`] call, surfaced on
/// `/metrics` by cool-serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchStats {
    /// Which repair path ran.
    pub mode: RepairMode,
    /// Marginal-utility queries the repair performed.
    pub cells_touched: u64,
    /// Dirty sensors the delta produced.
    pub dirty_sensors: usize,
    /// Period utility of the repaired schedule.
    pub value: f64,
}

/// A live session: the instance, its current schedule, and the
/// long-lived sparse evaluator tracking the all-alive coverage value.
#[derive(Debug, Clone)]
pub struct SessionEntry {
    instance: SessionInstance,
    utility: SumUtility,
    evaluator: SparseSumEvaluator,
    schedule: PeriodSchedule,
    value: f64,
    patches: u64,
}

impl SessionEntry {
    /// Solves the instance from scratch with the CELF greedy, bitwise the
    /// naive [`SessionInstance::solve`]. No axioms are sampled: a session
    /// utility has them by theorem (see [`crate::instance`]). The
    /// instance's utility is built once, for the solve, the value and the
    /// live evaluator.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures as rendered strings.
    pub fn solve(instance: SessionInstance) -> Result<SessionEntry, String> {
        let utility = instance.utility();
        let problem = Problem::new(utility.clone(), instance.cycle(), instance.periods())
            .map_err(|e| e.to_string())?;
        let schedule = try_greedy_schedule_lazy(&problem).map_err(|e| e.to_string())?;
        let evaluator = live_evaluator(&utility, &instance);
        let value = schedule.period_utility(&utility);
        Ok(SessionEntry {
            instance,
            utility,
            evaluator,
            schedule,
            value,
            patches: 0,
        })
    }

    /// The live instance.
    pub fn instance(&self) -> &SessionInstance {
        &self.instance
    }

    /// The current schedule.
    pub fn schedule(&self) -> &PeriodSchedule {
        &self.schedule
    }

    /// Period utility of the current schedule.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Utility of the instance with every alive sensor active at once —
    /// the O(1) running value of the session's sparse evaluator.
    pub fn all_active_value(&self) -> f64 {
        self.evaluator.value()
    }

    /// Deltas successfully applied since the session was created.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Applies one delta: validates it against the live instance and
    /// warm-start repairs the schedule (every delta preserves the
    /// sum-of-detection-parts family, whose axioms hold by theorem). The
    /// mutated instance's utility is built once, for the repair, the
    /// value and the live evaluator. The entry is unchanged on error.
    ///
    /// # Errors
    ///
    /// Returns a rendered message for an invalid delta or a scheduler
    /// failure.
    pub fn patch(&mut self, delta: &Delta, config: &RepairConfig) -> Result<PatchStats, String> {
        let mut next = self.instance.clone();
        let dirty = next.apply(delta)?;
        let utility = next.utility();
        let outcome = repair_schedule(&utility, next.cycle(), &self.schedule, &dirty, config)
            .map_err(|e| e.to_string())?;
        let value = outcome.schedule.period_utility(&utility);
        self.evaluator = live_evaluator(&utility, &next);
        self.instance = next;
        self.utility = utility;
        self.schedule = outcome.schedule;
        self.value = value;
        self.patches += 1;
        Ok(PatchStats {
            mode: outcome.mode,
            cells_touched: outcome.cells_touched,
            dirty_sensors: outcome.dirty_sensors,
            value,
        })
    }
}

/// Builds the session's long-lived evaluator: all alive sensors
/// inserted, rebuild cadence lowered to [`SESSION_REBUILD_CADENCE`].
fn live_evaluator(utility: &SumUtility, instance: &SessionInstance) -> SparseSumEvaluator {
    let mut evaluator = utility
        .evaluator()
        .with_rebuild_cadence(SESSION_REBUILD_CADENCE);
    for v in instance.alive() {
        evaluator.insert(v);
    }
    evaluator
}

/// Why a session id could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStoreError {
    /// The id once existed but was deleted or evicted — HTTP `410 Gone`.
    Gone,
    /// The id was never seen — HTTP `404 Not Found`.
    NotFound,
}

/// Bounded LRU map from content-addressed session ids to live entries.
///
/// Ids are derived from the instance's canonical form at `put` time and
/// stay fixed for the session's lifetime (patches mutate the instance
/// but not the handle). Deleted and evicted ids are remembered in a
/// bounded tombstone ring so clients get `Gone` instead of `NotFound`.
#[derive(Debug)]
pub struct SessionStore {
    capacity: usize,
    /// LRU order: least recently used first.
    entries: Vec<(String, SessionEntry)>,
    tombstones: VecDeque<String>,
    max_tombstones: usize,
}

impl SessionStore {
    /// Creates a store holding at most `capacity` live sessions
    /// (clamped to at least 1) and remembering up to `4 × capacity`
    /// dead ids.
    pub fn new(capacity: usize) -> SessionStore {
        let capacity = capacity.max(1);
        SessionStore {
            capacity,
            entries: Vec::new(),
            tombstones: VecDeque::new(),
            max_tombstones: capacity * 4,
        }
    }

    /// The content-addressed session id of an instance: the FNV-1a hash
    /// of its canonical form, rendered as 16 hex digits. The form streams
    /// into the hash; no string of it is built.
    pub fn session_id(instance: &SessionInstance) -> String {
        let mut hasher = StableHasher::new();
        let _ = instance.write_canonical(&mut hasher);
        format!("{:016x}", hasher.finish())
    }

    /// Maximum number of live sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no session is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts (or replaces) an entry under its content-addressed `id`,
    /// [`SessionStore::session_id`] of its instance as the caller rendered
    /// it (a sharded store renders it once, to pick the shard), and
    /// returns `(id, evicted)` where `evicted` names the LRU session
    /// pushed out to make room, if any.
    pub fn put(&mut self, id: String, entry: SessionEntry) -> (String, Option<String>) {
        self.tombstones.retain(|t| t != &id);
        if let Some(pos) = self.position(&id) {
            self.entries.remove(pos);
            self.entries.push((id.clone(), entry));
            return (id, None);
        }
        self.entries.push((id.clone(), entry));
        let evicted = if self.entries.len() > self.capacity {
            let (dead, _) = self.entries.remove(0);
            self.bury(dead.clone());
            Some(dead)
        } else {
            None
        };
        (id, evicted)
    }

    /// Looks up a live session, refreshing its LRU recency.
    ///
    /// # Errors
    ///
    /// [`SessionStoreError::Gone`] for a deleted/evicted id,
    /// [`SessionStoreError::NotFound`] for an unknown one.
    pub fn get(&mut self, id: &str) -> Result<&mut SessionEntry, SessionStoreError> {
        let Some(pos) = self.position(id) else {
            return Err(self.missing(id));
        };
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        match self.entries.last_mut() {
            Some((_, e)) => Ok(e),
            None => unreachable!("entry was just pushed"),
        }
    }

    /// Deletes a live session, leaving a tombstone.
    ///
    /// # Errors
    ///
    /// As [`SessionStore::get`].
    pub fn delete(&mut self, id: &str) -> Result<(), SessionStoreError> {
        let Some(pos) = self.position(id) else {
            return Err(self.missing(id));
        };
        let (dead, _) = self.entries.remove(pos);
        self.bury(dead);
        Ok(())
    }

    fn position(&self, id: &str) -> Option<usize> {
        self.entries.iter().position(|(k, _)| k == id)
    }

    fn missing(&self, id: &str) -> SessionStoreError {
        if self.tombstones.iter().any(|t| t == id) {
            SessionStoreError::Gone
        } else {
            SessionStoreError::NotFound
        }
    }

    fn bury(&mut self, id: String) {
        if self.tombstones.len() == self.max_tombstones {
            self.tombstones.pop_front();
        }
        self.tombstones.push_back(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TargetSpec;
    use cool_common::{fnv1a_64, SensorSet};
    use proptest::prelude::*;

    fn instance(seed_target: usize) -> SessionInstance {
        SessionInstance::new(
            8,
            vec![
                TargetSpec {
                    coverage: SensorSet::from_indices(8, [seed_target % 8, 1, 2]),
                    p: 0.5,
                },
                TargetSpec {
                    coverage: SensorSet::from_indices(8, [3, 4, 5, 6, 7]),
                    p: 0.25,
                },
            ],
            15.0,
            45.0,
            12.0,
        )
        .unwrap()
    }

    /// Solves `instance` and stores it under its content address.
    fn put(store: &mut SessionStore, instance: SessionInstance) -> (String, Option<String>) {
        let id = SessionStore::session_id(&instance);
        store.put(id, SessionEntry::solve(instance).unwrap())
    }

    #[test]
    fn entry_patch_updates_schedule_and_counts() {
        let mut entry = SessionEntry::solve(instance(0)).unwrap();
        let before = entry.value();
        let stats = entry
            .patch(
                &Delta::Reweight { target: 0, p: 1.0 },
                &RepairConfig::default(),
            )
            .unwrap();
        assert_eq!(entry.patches(), 1);
        assert!(stats.value >= before - 1e-9, "reweighting up cannot hurt");
        assert!(stats.dirty_sensors > 0);
    }

    #[test]
    fn entry_patch_rejects_invalid_delta_without_mutating() {
        let mut entry = SessionEntry::solve(instance(0)).unwrap();
        let canonical = entry.instance().canonical();
        let schedule = entry.schedule().clone();
        // An out-of-range sensor, and periods of 10^15 + 1 and 5001 slots,
        // over the 4096-slot cap (the first used to abort allocating its
        // repair's evaluators).
        for bad in [
            Delta::RemoveSensor { sensor: 99 },
            Delta::RhoChange {
                discharge_minutes: 1.0,
                recharge_minutes: 1e15,
            },
            Delta::RhoChange {
                discharge_minutes: 1.0,
                recharge_minutes: 5000.0,
            },
        ] {
            let err = entry.patch(&bad, &RepairConfig::default()).unwrap_err();
            if matches!(bad, Delta::RhoChange { .. }) {
                assert!(err.contains("more than 4096 slots"), "{err}");
            }
            assert_eq!(entry.instance().canonical(), canonical);
            assert_eq!(entry.schedule(), &schedule);
            assert_eq!(entry.patches(), 0);
        }
    }

    #[test]
    fn store_round_trip_and_recency() {
        let mut store = SessionStore::new(2);
        let (id, evicted) = put(&mut store, instance(0));
        assert!(evicted.is_none());
        assert_eq!(id.len(), 16);
        assert!(store.get(&id).is_ok());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_evicts_lru_and_remembers_tombstones() {
        let mut store = SessionStore::new(2);
        let (id0, _) = put(&mut store, instance(0));
        let (id1, _) = put(&mut store, instance(6));
        // Touch id0 so id1 is the LRU victim.
        store.get(&id0).unwrap();
        let (_id2, evicted) = put(&mut store, instance(7));
        assert_eq!(evicted.as_deref(), Some(id1.as_str()));
        assert!(matches!(store.get(&id1), Err(SessionStoreError::Gone)));
        assert!(matches!(
            store.get("0000000000000000"),
            Err(SessionStoreError::NotFound)
        ));
    }

    #[test]
    fn delete_tombstones_and_re_put_resurrects() {
        let mut store = SessionStore::new(2);
        let (id, _) = put(&mut store, instance(0));
        store.delete(&id).unwrap();
        assert!(matches!(store.get(&id), Err(SessionStoreError::Gone)));
        assert_eq!(store.delete(&id), Err(SessionStoreError::Gone));
        let (again, _) = put(&mut store, instance(0));
        assert_eq!(again, id);
        assert!(store.get(&id).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The streamed id hashes exactly the bytes of the canonical
        /// string, on random instances with dead sensors, removed targets,
        /// empty coverages and probabilities whose shortest decimal form
        /// is long.
        #[test]
        fn session_id_hashes_the_canonical_form(
            n in 1usize..40,
            targets in proptest::collection::vec(
                (proptest::collection::vec(0usize..40, 0..8), 0usize..5),
                1..8,
            ),
            kills in proptest::collection::vec(0usize..40, 0..10),
            drops in proptest::collection::vec(0usize..8, 0..4),
            sunny in any::<bool>(),
        ) {
            let specs = targets
                .iter()
                .map(|(ids, k)| TargetSpec {
                    coverage: SensorSet::from_indices(n, ids.iter().map(|&v| v % n)),
                    p: [0.0, 0.25, 0.4, 0.1 + 0.2, 1.0][*k],
                })
                .collect();
            let (discharge, recharge) = if sunny { (15.0, 45.0) } else { (45.0, 15.0) };
            let mut inst = SessionInstance::new(n, specs, discharge, recharge, 12.0).unwrap();
            for &v in &kills {
                let _ = inst.apply(&Delta::RemoveSensor { sensor: v % n });
            }
            for &t in &drops {
                let _ = inst.apply(&Delta::RemoveTarget { target: t });
            }
            let want = format!("{:016x}", fnv1a_64(inst.canonical().as_bytes()));
            prop_assert_eq!(SessionStore::session_id(&inst), want);
        }
    }

    #[test]
    fn session_id_is_stable_content_address() {
        let a = SessionStore::session_id(&instance(0));
        let b = SessionStore::session_id(&instance(0));
        let c = SessionStore::session_id(&instance(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
