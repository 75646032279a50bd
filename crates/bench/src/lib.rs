//! Experiment runners reproducing every figure and table of the paper.
//!
//! This crate is application code, not a library surface: a broken
//! instance, a full disk, or an impossible cycle should abort the run
//! loudly, and runner functions are long linear recipes mirroring their
//! figures — hence the allowances below.
//!
//! Each experiment module exposes `run(seed) -> ExperimentReport`; the
//! `repro` binary dispatches on experiment id, prints the report's tables
//! (the same rows/series the paper reports) and writes CSVs under
//! `results/`.
//!
//! | id | paper artefact | module |
//! |---|---|---|
//! | `fig7` | charging-pattern traces + 2-hour stability (§VI-A, Fig. 7) | [`experiments::fig7`] |
//! | `fig8` | greedy vs optimal/upper bound, m = 1..4 (Fig. 8) | [`experiments::fig8`] |
//! | `headline` | the §VI-B single-target numbers | [`experiments::headline`] |
//! | `fig9` | utility vs (n, m) at scale (Fig. 9) | [`experiments::fig9`] |
//! | `hardness` | the §III Subset-Sum gadget behaving as proved | [`experiments::hardness`] |
//! | `approx` | empirical ½-approximation (Lemma 4.1 / Thms 4.3, 4.4) | [`experiments::approx`] |
//! | `lp` | LP relaxation vs rounding vs greedy (§IV-A.1) | [`experiments::lp`] |
//! | `randmodel` | the §V stochastic-charging pipeline | [`experiments::randmodel`] |
//! | `testbed30` | the 30-day, 100-node testbed run (§VI-B) | [`experiments::testbed30`] |
//! | `ablation` | lazy vs naive greedy, rounding trials, baselines, leakage | [`experiments::ablation`] |
//! | `horizon` | §VIII extensions: heterogeneous fleets, partial recharge | [`experiments::horizon`] |
//! | `region` | region monitoring with Eq. 2 over the Fig. 3 arrangement | [`experiments::region`] |
//! | `kcover` | k-coverage extension through the same scheduler | [`experiments::kcover`] |
//! | `perf_greedy` | naive vs lazy greedy wall-clock (emits `BENCH_PR3.json`) | [`experiments::perf_greedy`] |
//! | `perf_sparse` | SoA-kernel vs dense-walk sum-evaluator wall-clock (emits `BENCH_PR5.json`); the 10k-sensor/100k-part big cell is profiled via the `profile_pr10` binary | [`experiments::perf_sparse`] |
//! | `perf_session` | warm-start session repair vs from-scratch re-solve (emits `BENCH_PR7.json`) | [`experiments::perf_session`] |
//! | `perf_serve` | event-loop keep-alive daemon throughput and latency at concurrency 1, 8 and 32 (emits `BENCH_PR8.json`) | [`experiments::perf_serve`] |
//! | `perf_hetero` | heterogeneous greedy vs RSC/Set-Once/HEF across ρ mixtures (emits `BENCH_PR9.json`) | [`experiments::perf_hetero`] |
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::too_many_lines)]

pub mod experiments;
pub mod report;
pub mod svg;

pub use report::ExperimentReport;
