//! A discrete-event simulator of the paper's rooftop solar testbed.
//!
//! §VI deploys 100 TelosB motes with solar cells on a building roof, a sink
//! in a lab, and several relay nodes; the experiments (a) measure charging
//! patterns per weather condition and (b) run the scheduling algorithms for
//! 30 daytime periods. With no hardware available, this crate simulates
//! that testbed end-to-end (the substitution is documented in DESIGN.md):
//!
//! * [`RooftopDeployment`] — the 10×10 jittered node grid, sink and relays
//!   ([`deployment`]);
//! * [`RadioModel`] — per-slot energy expenditure (idle listening / rx /
//!   tx) with the paper's measured property that active-slot consumption
//!   fluctuates only slightly ([`radio`]);
//! * [`CollectionTree`] — min-hop routing to the sink, giving per-node
//!   forwarding load ([`network`]);
//! * [`TestbedSim`] — drives any
//!   [`ActivationPolicy`](cool_core::policy::ActivationPolicy) against
//!   per-node energy state machines slot by slot, recording achieved
//!   utility and energy/packet metrics ([`sim`], [`metrics`]);
//! * [`NodeTraceSet`] — multi-day, multi-node light/voltage traces under
//!   evolving weather: the Fig. 7 data generator ([`trace`]).
//!
//! # Examples
//!
//! ```
//! use cool_common::SeedSequence;
//! use cool_core::{greedy::greedy_schedule_lazy, policy::SchedulePolicy, problem::Problem};
//! use cool_energy::ChargeCycle;
//! use cool_testbed::{RooftopDeployment, TestbedSim};
//! use cool_utility::DetectionUtility;
//!
//! let deployment = RooftopDeployment::paper_layout(&mut SeedSequence::new(1).nth_rng(0));
//! let utility = DetectionUtility::uniform(deployment.n_nodes(), 0.4);
//! let problem = Problem::new(utility.clone(), ChargeCycle::paper_sunny(), 4).unwrap();
//! let policy = SchedulePolicy::new(greedy_schedule_lazy(&problem));
//!
//! let mut sim = TestbedSim::new(deployment, ChargeCycle::paper_sunny());
//! let metrics = sim.run(policy, &utility, 16, &mut SeedSequence::new(1).nth_rng(1));
//! assert_eq!(metrics.slots(), 16);
//! assert!(metrics.average_utility() > 0.5);
//! ```

pub mod deployment;
pub mod events;
pub mod link;
pub mod metrics;
pub mod network;
pub mod radio;
pub mod sim;
pub mod trace;

pub use deployment::RooftopDeployment;
pub use events::{analytic_detection, simulate_detection, DetectionOutcome};
pub use link::LinkQuality;
pub use metrics::SimMetrics;
pub use network::CollectionTree;
pub use radio::{RadioModel, SlotEnergyBreakdown};
pub use sim::TestbedSim;
pub use trace::{NodeTrace, NodeTraceSet};
