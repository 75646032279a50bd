//! Seeded input generation. Every input derives from the `--seed`
//! argument; the program under test only ever sees the generated bodies.

use cool_common::json::escape;
use cool_common::{SeedSequence, SensorId};
use cool_session::{Delta, SessionInstance};
use rand::rngs::StdRng;
use rand::Rng;

/// Independent seed streams, one per use.
pub mod stream {
    /// The fixed `hit-paper` item set.
    pub const HIT_ITEMS: u64 = 0;
    /// `miss-paper` warm-up items.
    pub const MISS_WARMUP: u64 = 1;
    /// Per-connection request choices in the timed window.
    pub const LANES: u64 = 2;
    /// `session-patch` scenarios and delta streams.
    pub const SESSIONS: u64 = 3;
    /// The `run-large` instance.
    pub const LARGE: u64 = 4;
}

/// The Fig. 8/9 (n, m) grid.
pub const PAPER_GRID: [(usize, usize); 8] = [
    (20, 1),
    (60, 4),
    (100, 5),
    (100, 10),
    (200, 20),
    (300, 30),
    (400, 40),
    (500, 50),
];

/// Region side of the geometric deployments behind Figs. 8/9.
pub fn paper_region(n: usize) -> f64 {
    500.0 * (n as f64 / 100.0).powf(0.4)
}

/// One scenario of the paper's family, as scenario-file text.
///
/// `sunny` is ρ = 3 (T_d = 15 min, T_r = 45 min: active-slot greedy);
/// otherwise ρ = 1/3 (T_d = 45, T_r = 15: passive-slot greedy).
pub fn scenario_text(n: usize, m: usize, region: f64, sunny: bool, seed: u64) -> String {
    let (discharge, recharge) = if sunny { (15, 45) } else { (45, 15) };
    format!(
        "sensors = {n}\ntargets = {m}\ndetection_p = 0.4\ndischarge_minutes = {discharge}\n\
         recharge_minutes = {recharge}\nhours = 12\nregion = {region:.1}\nradius = 100\n\
         seed = {seed}\nscheduler = greedy\n"
    )
}

/// A `POST /v1/schedule` body for the default (greedy) algorithm.
pub fn schedule_body(scenario: &str) -> String {
    format!("{{\"scenario\":{}}}", escape(scenario))
}

/// A random Fig. 8/9 request: grid cell and weather uniform, fresh seed.
pub fn paper_body(rng: &mut StdRng) -> String {
    let (n, m) = PAPER_GRID[rng.random_range(0..PAPER_GRID.len())];
    let sunny = rng.random_bool(0.5);
    let seed = rng.random::<u64>() >> 16;
    schedule_body(&scenario_text(n, m, paper_region(n), sunny, seed))
}

/// `per_cell` bodies for every grid cell and both weathers, so the set
/// covers the whole grid evenly.
pub fn paper_set(seeds: SeedSequence, per_cell: usize) -> Vec<String> {
    let mut bodies = Vec::new();
    let mut k = 0;
    for &(n, m) in &PAPER_GRID {
        for sunny in [true, false] {
            for _ in 0..per_cell {
                let seed = seeds.nth_seed(k) >> 16;
                k += 1;
                bodies.push(schedule_body(&scenario_text(
                    n,
                    m,
                    paper_region(n),
                    sunny,
                    seed,
                )));
            }
        }
    }
    bodies
}

/// A `PATCH /v1/scenario/{id}` body carrying one delta.
pub fn patch_body(delta: &Delta) -> String {
    format!("{{\"deltas\":{}}}", escape(&delta.render()))
}

/// Draws deltas that are valid against a session's current state.
///
/// It mirrors the session (alive sensors, target list) so every delta it
/// draws applies cleanly, keeps the instance near its starting size, and
/// skips deltas whose dirty set would push the warm-start repair past its
/// full re-solve threshold. `rho` deltas are never drawn: they force a
/// full re-solve.
pub struct DeltaGen {
    rng: StdRng,
    n: usize,
    alive: Vec<bool>,
    dead: Vec<usize>,
    targets: Vec<(Vec<usize>, f64)>,
    parked: Vec<(Vec<usize>, f64)>,
    min_targets: usize,
    max_dead: usize,
    max_dirty: usize,
}

impl DeltaGen {
    pub fn new(instance: &SessionInstance, rng: StdRng) -> DeltaGen {
        let n = instance.n();
        let targets: Vec<(Vec<usize>, f64)> = instance
            .targets()
            .iter()
            .map(|t| (t.coverage.iter().map(|v| v.0).collect(), t.p))
            .collect();
        let alive = (0..n)
            .map(|v| instance.alive().contains(SensorId(v)))
            .collect();
        DeltaGen {
            rng,
            n,
            alive,
            dead: Vec::new(),
            min_targets: targets.len().saturating_sub(5).max(1),
            targets,
            parked: Vec::new(),
            max_dead: n / 20,
            // The server re-solves from scratch past a quarter of the
            // fleet dirty; stay well under it.
            max_dirty: n / 5,
        }
    }

    /// The next delta, already applied to the mirror.
    pub fn next_delta(&mut self) -> Delta {
        loop {
            let delta = match self.rng.random_range(0..10) {
                0..=3 => self.reweight(),
                4..=7 => self.toggle_sensor(),
                _ => self.toggle_target(),
            };
            if let Some(delta) = delta {
                return delta;
            }
        }
    }

    fn reweight(&mut self) -> Option<Delta> {
        let target = self.rng.random_range(0..self.targets.len());
        let p = f64::from(self.rng.random_range(20u32..=60)) / 100.0;
        self.targets[target].1 = p;
        Some(Delta::Reweight { target, p })
    }

    fn toggle_sensor(&mut self) -> Option<Delta> {
        let remove =
            self.dead.is_empty() || (self.dead.len() < self.max_dead && self.rng.random_bool(0.5));
        if remove {
            let sensor = self.rng.random_range(0..self.n);
            if !self.alive[sensor] || self.neighbourhood(sensor) > self.max_dirty {
                return None;
            }
            self.alive[sensor] = false;
            self.dead.push(sensor);
            Some(Delta::RemoveSensor { sensor })
        } else {
            let i = self.rng.random_range(0..self.dead.len());
            let sensor = self.dead[i];
            if self.neighbourhood(sensor) > self.max_dirty {
                return None;
            }
            self.dead.swap_remove(i);
            self.alive[sensor] = true;
            Some(Delta::AddSensor { sensor })
        }
    }

    fn toggle_target(&mut self) -> Option<Delta> {
        let remove = self.parked.is_empty()
            || (self.targets.len() > self.min_targets && self.rng.random_bool(0.5));
        if remove {
            let target = self.rng.random_range(0..self.targets.len());
            if self.targets.len() < 2 || self.live(&self.targets[target].0) > self.max_dirty {
                return None;
            }
            self.parked.push(self.targets.remove(target));
            Some(Delta::RemoveTarget { target })
        } else {
            let i = self.rng.random_range(0..self.parked.len());
            if self.live(&self.parked[i].0) > self.max_dirty {
                return None;
            }
            let (coverage, p) = self.parked.swap_remove(i);
            self.targets.push((coverage.clone(), p));
            Some(Delta::AddTarget { p, coverage })
        }
    }

    /// Live members of a coverage list.
    fn live(&self, coverage: &[usize]) -> usize {
        coverage.iter().filter(|&&v| self.alive[v]).count()
    }

    /// Size of the dirty set a delta on `sensor` produces: the sensor plus
    /// every live sensor sharing a target with it.
    fn neighbourhood(&self, sensor: usize) -> usize {
        let mut dirty = vec![false; self.n];
        dirty[sensor] = true;
        for (coverage, _) in &self.targets {
            if coverage.contains(&sensor) {
                for &v in coverage {
                    dirty[v] |= self.alive[v];
                }
            }
        }
        dirty.iter().filter(|&&d| d).count()
    }
}
