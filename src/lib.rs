//! `cool` — coverage scheduling for solar-powered wireless sensor networks.
//!
//! A from-scratch Rust reproduction of *"Cool: On Coverage with
//! Solar-Powered Sensors"* (Tang, Li, Shen, Zhang, Dai, Das — ICDCS 2011):
//! dynamic node-activation scheduling that maximises a submodular coverage
//! utility subject to solar recharge cycles, with the paper's greedy
//! hill-climbing ½-approximation at its centre.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `cool-common` | sensor-set bitsets, ids, stats, seeds, tables |
//! | [`geometry`] | `cool-geometry` | sensing regions, deployments, arrangements |
//! | [`energy`] | `cool-energy` | ρ/T slot algebra, batteries, solar harvest, weather |
//! | [`utility`] | `cool-utility` | submodular utilities + incremental evaluators |
//! | [`core`] | `cool-core` | greedy / LP / exact schedulers, bounds, baselines |
//! | [`lint`] | `cool-lint` | static invariant analysis with `COOL-Exxx` diagnostics |
//! | [`scenario`] | `cool-scenario` | declarative `key = value` scenario files |
//! | [`session`] | `cool-session` | live instances, delta patches, warm-start repair |
//! | [`serve`] | `cool-serve` | HTTP/1.1 JSON scheduling daemon with caching + metrics |
//! | [`check`] | `cool-check` | differential-testing + fault-injection harness |
//! | [`testbed`] | `cool-testbed` | the simulated rooftop testbed |
//!
//! # Quickstart
//!
//! ```
//! use cool::core::{greedy::greedy_schedule_lazy, problem::Problem};
//! use cool::energy::ChargeCycle;
//! use cool::utility::DetectionUtility;
//!
//! // 100 solar sensors watch one target (p = 0.4); sunny recharge cycle.
//! let problem = Problem::new(
//!     DetectionUtility::uniform(100, 0.4),
//!     ChargeCycle::paper_sunny(),
//!     12, // a 12-hour working day
//! )?;
//! let schedule = greedy_schedule_lazy(&problem);
//! assert!(schedule.is_feasible(problem.cycle()));
//! println!("average utility: {:.4}", problem.average_utility_per_target_slot(&schedule));
//! # Ok::<(), cool::core::problem::ProblemError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `cargo run -p cool-bench --bin repro -- list` for the paper-figure
//! reproduction harness.

pub use cool_check as check;
pub use cool_common as common;
pub use cool_core as core;
pub use cool_energy as energy;
pub use cool_geometry as geometry;
pub use cool_lint as lint;
pub use cool_scenario as scenario;
pub use cool_serve as serve;
pub use cool_session as session;
pub use cool_testbed as testbed;
pub use cool_utility as utility;
