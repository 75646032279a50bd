//! The struct-of-arrays grouping permutation round-trips.
//!
//! [`SumUtility`] reorders its parts by family internally (stable
//! permutation, family-batched kernels); these properties pin that the
//! reordering is observationally invisible across random mixes of all six
//! families. The oracle is the dense walk ([`SumUtility::dense_evaluator`],
//! Eq. 1 term by term): gains, losses and insert/remove deltas along random
//! traces are **bit-identical** to it, and `eval` and the running value are
//! bit-identical to a Kahan chain over its deltas. `eval_parts` is
//! bit-identical to each part's own evaluator fed the set members in that
//! part's support. Every slot of the slot state
//! ([`Evaluator::into_slots`], one lane-strided arena for `T` slots)
//! answers its row queries and deltas bit-identically to a lone evaluator
//! and to the dense walk holding the same set.

use cool_common::{SensorId, SensorSet};
use cool_utility::{
    AnyUtility, CoverageUtility, DenseSumUtility, DetectionUtility, Evaluator,
    FacilityLocationUtility, KCoverageUtility, LinearUtility, LogSumUtility, SlotState,
    SparseSumEvaluator, SparseSumSlots, SumEvaluator, SumUtility, UtilityFunction,
};
use proptest::prelude::*;

const N: usize = 7;

/// One random part of any of the six families over `N` sensors (the first
/// tuple element selects the family; the vendored proptest shim has no
/// `prop_oneof`, so the unused payloads are simply discarded).
fn any_part() -> impl Strategy<Value = AnyUtility> {
    let probs = proptest::collection::vec(0.0f64..0.95, N);
    let weights = proptest::collection::vec(0.0f64..4.0, N);
    let subregions = proptest::collection::vec(
        (proptest::collection::vec(0usize..N, 1..4), 0.0f64..5.0),
        1..6,
    );
    let rows = proptest::collection::vec(proptest::collection::vec(0.0f64..3.0, N), 1..4);
    let targets = proptest::collection::vec(
        (
            proptest::collection::vec(0usize..N, 1..5),
            1u32..4,
            0.0f64..3.0,
        ),
        1..4,
    );
    (0u8..6, probs, weights, subregions, rows, targets).prop_map(
        |(kind, p, w, subs, rows, tgts)| match kind {
            0 => DetectionUtility::new(p).into(),
            1 => LogSumUtility::new(w).into(),
            2 => LinearUtility::new(w).into(),
            3 => {
                let signatures = subs
                    .iter()
                    .map(|(ids, _)| SensorSet::from_indices(N, ids.iter().copied()))
                    .collect();
                let values = subs.iter().map(|&(_, v)| v).collect();
                CoverageUtility::from_parts(N, signatures, values).into()
            }
            4 => FacilityLocationUtility::new(rows).into(),
            _ => {
                let coverages = tgts
                    .iter()
                    .map(|(ids, _, _)| SensorSet::from_indices(N, ids.iter().copied()))
                    .collect();
                let k = tgts.iter().map(|&(_, ki, _)| ki).collect();
                let wt = tgts.iter().map(|&(_, _, wi)| wi).collect();
                KCoverageUtility::new(coverages, k, wt).into()
            }
        },
    )
}

fn mixed_sum() -> impl Strategy<Value = SumUtility> {
    proptest::collection::vec(any_part(), 1..10).prop_map(SumUtility::new)
}

/// Replica of [`SparseSumEvaluator`]'s running value from the realised
/// deltas alone: Kahan-compensated addition, rebuilt from the dense walk's
/// from-scratch value every `REBUILD_CADENCE` mutations.
#[derive(Default)]
struct KahanChain {
    value: f64,
    comp: f64,
    mutations: u32,
}

impl KahanChain {
    /// Adds one mutation's signed delta (`-loss` for a removal); `dense`
    /// holds the set after the mutation.
    fn push(&mut self, delta: f64, dense: &SumEvaluator) {
        let t = self.value + delta;
        if self.value.abs() >= delta.abs() {
            self.comp += (self.value - t) + delta;
        } else {
            self.comp += (delta - t) + self.value;
        }
        self.value = t;
        self.mutations += 1;
        if self.mutations >= SparseSumEvaluator::REBUILD_CADENCE {
            *self = KahanChain {
                value: dense.value(),
                ..KahanChain::default()
            };
        }
    }

    fn value(&self) -> f64 {
        self.value + self.comp
    }
}

/// Asserts that every slot of `state` answers each sensor's gain and loss
/// bitwise as the lone evaluator `lone[t]` and the dense `dense[t]` do.
fn rows_match(state: &SparseSumSlots, lone: &[SparseSumEvaluator], dense: &[SumEvaluator]) {
    let mut gains = vec![f64::NAN; lone.len()];
    let mut losses = vec![f64::NAN; lone.len()];
    for probe in (0..N).map(SensorId) {
        state.gains_into(probe, &mut gains);
        state.losses_into(probe, &mut losses);
        for (t, (l, d)) in lone.iter().zip(dense).enumerate() {
            let at = format!("slot {t} of {}, sensor {}", lone.len(), probe.0);
            assert_eq!(gains[t].to_bits(), l.gain(probe).to_bits(), "gain, {at}");
            assert_eq!(gains[t].to_bits(), d.gain(probe).to_bits(), "gain, {at}");
            assert_eq!(losses[t].to_bits(), l.loss(probe).to_bits(), "loss, {at}");
            assert_eq!(losses[t].to_bits(), d.loss(probe).to_bits(), "loss, {at}");
        }
    }
}

fn sensor_sets() -> impl Strategy<Value = SensorSet> {
    proptest::collection::vec(any::<bool>(), N).prop_map(|bits| {
        SensorSet::from_indices(
            N,
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
        )
    })
}

proptest! {
    /// `eval` is bit-identical to the Kahan chain over the dense walk's
    /// insert deltas and agrees with the dense from-scratch sum to the
    /// pinned tolerance.
    #[test]
    fn eval_round_trips_through_the_grouping(u in mixed_sum(), set in sensor_sets()) {
        let mut dense = u.dense_evaluator();
        let mut chain = KahanChain::default();
        for v in &set {
            let d = dense.insert(v);
            chain.push(d, &dense);
        }
        prop_assert_eq!(u.eval(&set).to_bits(), chain.value().to_bits());
        let dense = DenseSumUtility::new(u.clone());
        prop_assert!((u.eval(&set) - dense.eval(&set)).abs() < 1e-9);
    }

    /// `eval_parts` (the per-target breakdown, in part-id order) is
    /// bit-identical to each part's own evaluator fed the members of `set`
    /// that lie in its support.
    #[test]
    fn eval_parts_round_trips_through_the_grouping(u in mixed_sum(), set in sensor_sets()) {
        let soa = u.eval_parts(&set);
        let expected: Vec<f64> = u
            .parts()
            .iter()
            .map(|part| {
                let support = part.support();
                let mut e = part.evaluator();
                for v in set.iter().filter(|&v| support.contains(v)) {
                    e.insert(v);
                }
                e.value()
            })
            .collect();
        prop_assert_eq!(soa.len(), expected.len());
        for (pid, (a, b)) in soa.iter().zip(&expected).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "part {} diverged", pid);
        }
        // The reusable-buffer form returns the same bits.
        let mut buf = vec![f64::NAN; 3];
        u.eval_parts_into(&set, &mut buf);
        prop_assert_eq!(buf.len(), soa.len());
        for (a, b) in buf.iter().zip(&soa) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// `support()` is the union of the parts' supports, unchanged by the
    /// grouping.
    #[test]
    fn support_round_trips_through_the_grouping(u in mixed_sum()) {
        let union = u
            .parts()
            .iter()
            .fold(SensorSet::new(N), |acc, part| acc.union(&part.support()));
        prop_assert_eq!(u.support(), union);
        let dense = DenseSumUtility::new(u.clone());
        prop_assert_eq!(u.support(), dense.support());
    }

    /// Gains, losses and insert/remove deltas are bit-identical to the
    /// dense walk along random mixed-family traces, and the running value
    /// is bit-identical to the Kahan chain over those deltas.
    #[test]
    fn kernels_match_the_dense_walk_on_random_traces(
        u in mixed_sum(),
        ops in proptest::collection::vec((any::<bool>(), 0usize..N), 0..30),
    ) {
        let mut soa = u.evaluator();
        let mut dense = u.dense_evaluator();
        let mut chain = KahanChain::default();
        for (add, raw) in ops {
            let v = SensorId(raw);
            prop_assert_eq!(soa.gain(v).to_bits(), dense.gain(v).to_bits());
            prop_assert_eq!(soa.loss(v).to_bits(), dense.loss(v).to_bits());
            // A no-op insert or remove is no mutation: the chain skips it.
            let mutates = add != dense.contains(v);
            let delta = if add {
                let d = dense.insert(v);
                prop_assert_eq!(soa.insert(v).to_bits(), d.to_bits());
                d
            } else {
                let d = dense.remove(v);
                prop_assert_eq!(soa.remove(v).to_bits(), d.to_bits());
                -d
            };
            if mutates {
                chain.push(delta, &dense);
            }
            prop_assert_eq!(soa.value().to_bits(), chain.value().to_bits());
            prop_assert_eq!(soa.current_set(), dense.current_set());
        }
    }

    /// Every slot of the slot state answers bitwise as `T` lone evaluators
    /// and `T` dense walks holding the same sets, for T = 1..=9 (full
    /// chunks of four, remainder slots, and strides that are not a
    /// multiple of four): each slot's row gain and loss of every sensor
    /// from the start and after every insert and remove, and each realised
    /// delta. All six families are in the mix, plus a detection part with
    /// certain (`p = 1`) and zero-probability sensors and an all-zero
    /// linear part (an empty support); the slots start from a random set,
    /// as a passive or warm start does.
    #[test]
    fn slot_queries_match_lone_and_dense_evaluators(
        u in mixed_sum(),
        probs in proptest::collection::vec(0usize..3, N),
        slots in 1usize..10,
        start in sensor_sets(),
        ops in proptest::collection::vec((0usize..9, any::<bool>(), 0usize..N), 0..24),
    ) {
        let mut parts = u.parts().to_vec();
        parts.push(DetectionUtility::new(probs.iter().map(|&k| [0.0, 0.5, 1.0][k]).collect()).into());
        parts.push(LinearUtility::new(vec![0.0; N]).into());
        let u = SumUtility::new(parts);
        let (mut lone, mut dense) = (u.evaluator(), u.dense_evaluator());
        for v in &start {
            lone.insert(v);
            dense.insert(v);
        }
        let mut state = lone.clone().into_slots(slots);
        let mut lone = vec![lone; slots];
        let mut dense = vec![dense; slots];
        rows_match(&state, &lone, &dense);
        for (slot, add, raw) in ops {
            let (t, v) = (slot % slots, SensorId(raw));
            let (got, want, oracle) = if add {
                (state.insert(t, v), lone[t].insert(v), dense[t].insert(v))
            } else {
                (state.remove(t, v), lone[t].remove(v), dense[t].remove(v))
            };
            prop_assert_eq!(got.to_bits(), want.to_bits(), "delta, slot {}", t);
            prop_assert_eq!(got.to_bits(), oracle.to_bits(), "delta, slot {}", t);
            rows_match(&state, &lone, &dense);
        }
    }
}
