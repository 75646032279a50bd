//! The lazy greedy equals the naive oracle on the `run-large` instance
//! (n = 2000 sensors, m = 20 000 targets, T = 4) in both weathers: the
//! row-refreshing CELF heap against the literal Algorithm 1 loop,
//! assignment for assignment.
//!
//! `#[ignore]`d: the naive greedy takes about 3 s (sunny) and 4 s (rainy)
//! in a release build. Run it with the CELF and detection-mirror
//! invariants as hard asserts:
//!
//! ```sh
//! cargo test -p cool-scenario --release --features cool-common/hard-invariants \
//!     --test lazy_identity -- --ignored
//! ```

use cool_common::SeedSequence;
use cool_core::greedy::{greedy_schedule, greedy_schedule_lazy};
use cool_scenario::Scenario;

/// The `run-large` scenario text, seeded as the benchmark's seed 1.
fn run_large(sunny: bool) -> String {
    let (discharge, recharge) = if sunny { (15, 45) } else { (45, 15) };
    let seed = SeedSequence::new(1).nth_seed(4) >> 16;
    format!(
        "sensors = 2000\ntargets = 20000\ndetection_p = 0.4\ndischarge_minutes = {discharge}\n\
         recharge_minutes = {recharge}\nhours = 12\nregion = 2000.0\nradius = 100\n\
         seed = {seed}\nscheduler = greedy\n"
    )
}

#[test]
#[ignore = "runs the naive greedy on the run-large instance; run explicitly in release"]
fn lazy_equals_naive_on_the_run_large_instance() {
    for sunny in [true, false] {
        let scenario = Scenario::parse(&run_large(sunny)).expect("the run-large scenario parses");
        let built = scenario.build().expect("the run-large scenario builds");
        assert_eq!(built.problem.utility().n_targets(), 20_000);
        let lazy = greedy_schedule_lazy(&built.problem);
        let naive = greedy_schedule(&built.problem);
        assert_eq!(lazy.mode(), naive.mode());
        assert_eq!(
            lazy.assignment(),
            naive.assignment(),
            "sunny = {sunny}: lazy and naive greedy disagree"
        );
    }
}
