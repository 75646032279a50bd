//! The lazy greedy equals the naive oracle on the `run-large` instance
//! (n = 2000 sensors, m = 20 000 targets): the row-refreshing CELF heap
//! against the literal Algorithm 1 loop, assignment for assignment. At the
//! benchmark's T = 4 in both weathers, and at T = 5 in both duals, where a
//! row walk feeds one chunk of four slots plus a remainder slot over a
//! five-lane (40-byte) stride of the slot state.
//!
//! `#[ignore]`d: the naive greedy takes about 3–5 s per solve in a release
//! build. Run it with the CELF and detection-mirror invariants as hard
//! asserts:
//!
//! ```sh
//! cargo test -p cool-scenario --release --features cool-common/hard-invariants \
//!     --test lazy_identity -- --ignored
//! ```

#![allow(clippy::expect_used)]

use cool_common::SeedSequence;
use cool_core::greedy::{greedy_schedule, greedy_schedule_lazy};
use cool_core::schedule::ScheduleMode;
use cool_scenario::Scenario;

/// The `run-large` scenario text with the given charge cycle, seeded as
/// the benchmark's seed 1.
fn run_large(discharge: u32, recharge: u32) -> String {
    let seed = SeedSequence::new(1).nth_seed(4) >> 16;
    format!(
        "sensors = 2000\ntargets = 20000\ndetection_p = 0.4\ndischarge_minutes = {discharge}\n\
         recharge_minutes = {recharge}\nhours = 12\nregion = 2000.0\nradius = 100\n\
         seed = {seed}\nscheduler = greedy\n"
    )
}

/// Solves the instance both ways and asserts equal assignments; returns
/// the mode and the period length.
fn lazy_equals_naive(discharge: u32, recharge: u32) -> (ScheduleMode, usize) {
    let scenario =
        Scenario::parse(&run_large(discharge, recharge)).expect("the run-large scenario parses");
    let built = scenario.build().expect("the run-large scenario builds");
    assert_eq!(built.problem.utility().n_targets(), 20_000);
    let lazy = greedy_schedule_lazy(&built.problem);
    let naive = greedy_schedule(&built.problem);
    assert_eq!(lazy.mode(), naive.mode());
    assert_eq!(
        lazy.assignment(),
        naive.assignment(),
        "discharge {discharge}, recharge {recharge}: lazy and naive greedy disagree"
    );
    (lazy.mode(), built.problem.slots_per_period())
}

#[test]
#[ignore = "runs the naive greedy on the run-large instance; run explicitly in release"]
fn lazy_equals_naive_on_the_run_large_instance() {
    // Sunny (ρ = 3) and rainy (ρ = 1/3).
    for (discharge, recharge) in [(15, 45), (45, 15)] {
        let (_, slots) = lazy_equals_naive(discharge, recharge);
        assert_eq!(slots, 4);
    }
}

#[test]
#[ignore = "runs the naive greedy on the run-large instance; run explicitly in release"]
fn lazy_equals_naive_at_five_slots_on_the_run_large_instance() {
    // ρ = 4 (active slots) and ρ = 1/4 (passive slots), T = 5 both.
    for (discharge, recharge, mode) in [
        (15, 60, ScheduleMode::ActiveSlot),
        (60, 15, ScheduleMode::PassiveSlot),
    ] {
        assert_eq!(lazy_equals_naive(discharge, recharge), (mode, 5));
    }
}
