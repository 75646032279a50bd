//! Process-wide counters for sparse-evaluation observability.
//!
//! [`SparseSumEvaluator`](crate::SparseSumEvaluator) records every
//! marginal-gain/loss query and the number of incident parts it touched.
//! A query is one walk of a sensor's incident parts, whatever its lane
//! count: a row query of the slot state
//! ([`gains_into`](crate::SlotState::gains_into) /
//! [`losses_into`](crate::SlotState::losses_into) on
//! [`SparseSumSlots`](crate::SparseSumSlots)) over `T` slots counts one
//! query and `deg(v)` parts, the same as a lone `gain`, so
//! `parts_touched / gain_queries` stays the average degree and the query
//! count is the number of walks (on the `run-large` trace, the lazy
//! greedy's row walks). `cool-serve` exposes the totals as
//! `cool_gain_queries_total` / `cool_parts_touched_total` in `/metrics`,
//! making the O(deg) win (ratio `parts_touched / gain_queries` = average
//! degree, vs. `m` for the dense walk) observable in production.
//!
//! Since PR 10 queries are additionally attributed to the utility families
//! they touched (`cool_gain_queries_total{family="..."}`): the SoA kernels
//! know each query's family set for free from its run list, and the
//! breakdown shows which kernels a workload actually exercises.
//!
//! Counters are global, relaxed, and monotone — cheap enough for the query
//! hot path and race-free to scrape.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of utility families ([`Family`](crate::Family) variants).
pub const N_FAMILIES: usize = 6;

/// Prometheus `family` label values, indexed by
/// [`Family`](crate::Family) discriminant.
pub const FAMILY_LABELS: [&str; N_FAMILIES] = [
    "detection",
    "logsum",
    "linear",
    "coverage",
    "facility",
    "kcover",
];

static GAIN_QUERIES: AtomicU64 = AtomicU64::new(0);
static PARTS_TOUCHED: AtomicU64 = AtomicU64::new(0);
static FAMILY_QUERIES: [AtomicU64; N_FAMILIES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// A consistent-enough snapshot of the counters (individually atomic reads).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Total marginal-gain/loss queries answered by sparse evaluators.
    pub gain_queries: u64,
    /// Total incident parts visited by those queries.
    pub parts_touched: u64,
    /// Queries per family touched (a mixed-family query counts once per
    /// family it reached), indexed like [`FAMILY_LABELS`].
    pub family_queries: [u64; N_FAMILIES],
}

/// Records one gain/loss walk that touched `parts` incident parts.
#[inline]
pub fn record_query(parts: usize) {
    GAIN_QUERIES.fetch_add(1, Ordering::Relaxed);
    PARTS_TOUCHED.fetch_add(parts as u64, Ordering::Relaxed);
}

/// Records which families one query touched, as a bitmask of
/// [`Family`](crate::Family) discriminants (bit `f` set ⇒ one count for
/// family `f`).
#[inline]
pub fn record_family_queries(mut families: u8) {
    while families != 0 {
        let f = families.trailing_zeros() as usize;
        FAMILY_QUERIES[f].fetch_add(1, Ordering::Relaxed);
        families &= families - 1;
    }
}

/// Current counter totals.
pub fn snapshot() -> StatsSnapshot {
    let mut family_queries = [0u64; N_FAMILIES];
    for (out, counter) in family_queries.iter_mut().zip(&FAMILY_QUERIES) {
        *out = counter.load(Ordering::Relaxed);
    }
    StatsSnapshot {
        gain_queries: GAIN_QUERIES.load(Ordering::Relaxed),
        parts_touched: PARTS_TOUCHED.load(Ordering::Relaxed),
        family_queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_advances_both_counters() {
        // Counters are global and other tests run concurrently, so assert
        // on deltas being *at least* what we contributed.
        let before = snapshot();
        record_query(7);
        record_query(0);
        let after = snapshot();
        assert!(after.gain_queries >= before.gain_queries + 2);
        assert!(after.parts_touched >= before.parts_touched + 7);
    }

    #[test]
    fn family_mask_attributes_each_set_bit_once() {
        let before = snapshot();
        record_family_queries(0b10_0101); // detection, linear, kcover
        record_family_queries(0b00_0001); // detection again
        let after = snapshot();
        assert!(after.family_queries[0] >= before.family_queries[0] + 2);
        assert!(after.family_queries[2] > before.family_queries[2]);
        assert!(after.family_queries[5] > before.family_queries[5]);
        // An empty mask records nothing and terminates.
        record_family_queries(0);
    }

    #[test]
    fn labels_cover_all_families() {
        assert_eq!(FAMILY_LABELS.len(), N_FAMILIES);
        let mut sorted: Vec<&str> = FAMILY_LABELS.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), N_FAMILIES, "labels must be distinct");
    }
}
