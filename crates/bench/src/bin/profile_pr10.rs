//! Profiling harness for the big cell: one greedy solve of the
//! n = 10 000-sensor / m = 100 000-target instance on the struct-of-arrays
//! kernels, so a sampling profiler sees nothing but their hot path.
//!
//! ```text
//! cargo build --release -p cool-bench --bin profile_pr10
//! gprofng collect app -o soa.er ./target/release/profile_pr10 [m] [n]
//! gprofng display text -functions soa.er
//! ```
//!
//! The instance and seed are those of the big-cell row in the checked-in
//! `BENCH_PR10.json` (seed 2011, `SeedSequence` child 2, index
//! `SIZES.len()`), so the printed wall-clock is comparable with that row.
//! `m` and `n` can be overridden as arguments for smaller profile runs.
#![allow(clippy::unwrap_used)] // application binary: a broken solve should abort loudly

use cool_bench::experiments::perf_sparse::{sparse_instance, BIG_CELL, SIZES};
use cool_common::SeedSequence;
use cool_core::greedy::greedy_active_lazy;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let m = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(BIG_CELL.0);
    let n = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(BIG_CELL.1);

    let mut rng = SeedSequence::new(2011).child(2).nth_rng(SIZES.len() as u64);
    eprintln!("building m = {m}, n = {n} instance…");
    let utility = sparse_instance(n, m, &mut rng);

    let start = Instant::now();
    let schedule = greedy_active_lazy(&utility, 4).unwrap();
    let ms = start.elapsed().as_secs_f64() * 1e3;

    // FNV-1a over the assignment: a cheap identity witness across runs.
    let hash = schedule
        .assignment()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &s| {
            (h ^ s as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    println!("soa: {ms:.1} ms, assignment hash {hash:016x}");
}
