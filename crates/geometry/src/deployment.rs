//! Deployment generators: where sensors and targets are placed.
//!
//! The paper's testbed deploys 100 solar TelosB motes on a rooftop (§VI) and
//! its larger simulation scales to 500 sensors and 50 targets (Fig. 9).
//! These generators produce the positions for such synthetic deployments,
//! deterministically from a caller-supplied RNG.

use crate::{Disk, Point, Rect, Region};
use cool_common::{SensorId, SensorSet};
use rand::Rng;
use std::ops::RangeInclusive;

/// The spatial law used to place sensors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeploymentKind {
    /// Independent uniform positions in `Ω`.
    UniformRandom,
    /// A near-square grid, row-major, centred in each cell.
    Grid,
    /// Grid positions with independent uniform jitter of at most
    /// `jitter` × cell-size in each coordinate — models hand-placed testbeds.
    JitteredGrid {
        /// Fraction of a grid cell by which each node may deviate, in `[0, 0.5]`.
        jitter: f64,
    },
    /// `clusters` uniform cluster centres, nodes scattered around a random
    /// centre with Gaussian spread `spread` — models clustered field drops.
    Clustered {
        /// Number of cluster centres.
        clusters: usize,
        /// Standard deviation of the per-node scatter.
        spread: f64,
    },
    /// Dart-throwing Poisson-disk: uniform proposals rejected when closer
    /// than `min_distance` to an accepted node (best effort — falls back to
    /// accepting after many failed proposals so `n` is always reached).
    PoissonDisk {
        /// Desired minimum pairwise distance.
        min_distance: f64,
    },
}

/// A deployment request: how many sensors, where, with what law.
///
/// # Examples
///
/// ```
/// use cool_geometry::{DeploymentKind, DeploymentSpec, Rect};
/// use cool_common::SeedSequence;
///
/// let spec = DeploymentSpec::new(Rect::square(100.0), 100, DeploymentKind::UniformRandom);
/// let mut rng = SeedSequence::new(1).nth_rng(0);
/// let positions = spec.generate(&mut rng);
/// assert_eq!(positions.len(), 100);
/// assert!(positions.iter().all(|&p| spec.omega().contains(p)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeploymentSpec {
    omega: Rect,
    n: usize,
    kind: DeploymentKind,
}

impl DeploymentSpec {
    /// Creates a deployment spec.
    ///
    /// # Panics
    ///
    /// Panics if parameters are out of range (`jitter ∉ [0, 0.5]`,
    /// `clusters == 0`, negative `spread`/`min_distance`).
    pub fn new(omega: Rect, n: usize, kind: DeploymentKind) -> Self {
        match kind {
            DeploymentKind::JitteredGrid { jitter } => {
                assert!(
                    (0.0..=0.5).contains(&jitter),
                    "jitter must be in [0, 0.5], got {jitter}"
                );
            }
            DeploymentKind::Clustered { clusters, spread } => {
                assert!(clusters > 0, "need at least one cluster");
                assert!(
                    spread.is_finite() && spread >= 0.0,
                    "spread must be non-negative"
                );
            }
            DeploymentKind::PoissonDisk { min_distance } => {
                assert!(
                    min_distance.is_finite() && min_distance >= 0.0,
                    "min distance must be non-negative"
                );
            }
            DeploymentKind::UniformRandom | DeploymentKind::Grid => {}
        }
        DeploymentSpec { omega, n, kind }
    }

    /// The area of interest.
    pub fn omega(&self) -> Rect {
        self.omega
    }

    /// Number of sensors to place.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The placement law.
    pub fn kind(&self) -> DeploymentKind {
        self.kind
    }

    /// Generates the sensor positions.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Point> {
        match self.kind {
            DeploymentKind::UniformRandom => (0..self.n)
                .map(|_| uniform_point(self.omega, rng))
                .collect(),
            DeploymentKind::Grid => self.grid_points(0.0, rng),
            DeploymentKind::JitteredGrid { jitter } => self.grid_points(jitter, rng),
            DeploymentKind::Clustered { clusters, spread } => {
                let centers: Vec<Point> = (0..clusters)
                    .map(|_| uniform_point(self.omega, rng))
                    .collect();
                (0..self.n)
                    .map(|_| {
                        let c = centers[rng.random_range(0..centers.len())];
                        let p =
                            Point::new(c.x + gaussian(rng) * spread, c.y + gaussian(rng) * spread);
                        clamp_to(self.omega, p)
                    })
                    .collect()
            }
            DeploymentKind::PoissonDisk { min_distance } => {
                let mut accepted: Vec<Point> = Vec::with_capacity(self.n);
                let d2 = min_distance * min_distance;
                while accepted.len() < self.n {
                    let mut placed = false;
                    for _ in 0..64 {
                        let p = uniform_point(self.omega, rng);
                        if accepted.iter().all(|q| q.distance_squared(p) >= d2) {
                            accepted.push(p);
                            placed = true;
                            break;
                        }
                    }
                    if !placed {
                        // Saturated: accept an unconstrained point so the
                        // requested count is always met.
                        accepted.push(uniform_point(self.omega, rng));
                    }
                }
                accepted
            }
        }
    }

    fn grid_points<R: Rng + ?Sized>(&self, jitter: f64, rng: &mut R) -> Vec<Point> {
        if self.n == 0 {
            return Vec::new();
        }
        let cols = (self.n as f64).sqrt().ceil() as usize;
        let rows = self.n.div_ceil(cols);
        let cw = self.omega.width() / cols as f64;
        let ch = self.omega.height() / rows as f64;
        (0..self.n)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                let base = Point::new(
                    self.omega.min().x + (c as f64 + 0.5) * cw,
                    self.omega.min().y + (r as f64 + 0.5) * ch,
                );
                let p = if jitter > 0.0 {
                    Point::new(
                        base.x + rng.random_range(-jitter..jitter) * cw,
                        base.y + rng.random_range(-jitter..jitter) * ch,
                    )
                } else {
                    base
                };
                clamp_to(self.omega, p)
            })
            .collect()
    }
}

/// Builds identical-radius disk sensing regions at the given positions.
pub fn disks_at(positions: &[Point], radius: f64) -> Vec<Disk> {
    positions.iter().map(|&p| Disk::new(p, radius)).collect()
}

/// The set of sensors (by index into `disks`) covering `target` —
/// the paper's `V(O_i)` — by testing every disk. This linear scan is the
/// oracle [`DiskIndex`] is checked against; programs query the index.
///
/// # Examples
///
/// ```
/// use cool_geometry::{deployment::{disks_at, sensors_covering}, Point};
///
/// let disks = disks_at(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 2.0);
/// let cover = sensors_covering(Point::new(1.0, 0.0), &disks);
/// assert_eq!(cover.len(), 1);
/// assert!(cover.contains(cool_common::SensorId(0)));
/// ```
pub fn sensors_covering(target: Point, disks: &[Disk]) -> SensorSet {
    let mut set = SensorSet::new(disks.len());
    for (i, d) in disks.iter().enumerate() {
        if d.contains(target) {
            set.insert(SensorId(i));
        }
    }
    set
}

/// Absolute slack in a cell's side: at least the largest distance, about
/// 2⁻⁵³⁵, by which underflow in the squared distance or in `r²` can let
/// [`Disk::contains`] accept beyond `r(1 + 4u)`.
const UNDERFLOW_SLACK: f64 = 1e-150;

/// Relative slack in a cell's side, far above the few units of roundoff
/// (`u = 2⁻⁵³`) the coverage test and the cell coordinates can add up to.
const ROUNDING_SLACK: f64 = 1e-9;

/// A uniform grid over identical-radius sensing disks, answering "which
/// sensors cover this point" from the 3×3 cells around it instead of
/// testing every disk — the same answer as [`sensors_covering`], in the
/// form detection parts store it.
///
/// Built once per deployment in O(n): sensor ids are bucketed by cell with
/// a counting sort, ascending within each cell (row-major cells, so one
/// row's three cells are one contiguous run of ids). A query tests the
/// sensors of at most nine cells with the exact [`Disk::contains`]
/// predicate and returns the coverers in ascending id order.
///
/// **Extent and memory.** The grid spans the bounding box of the finite
/// sensor positions (not a region: a sensor may lie outside the region it
/// was meant for). The cell side is the larger of
/// `(r + 10⁻¹⁵⁰)(1 + 10⁻⁹)` and `extent / ⌈√n⌉`, so there are at most
/// `⌈√n⌉ + 1` cells per axis and O(n) cells however small `r` is. A
/// sensor at a non-finite position covers no point while `r²` is finite
/// (its squared distance is infinite or NaN), so it is left out and never
/// widens the grid.
///
/// **Every coverer is in the 3×3 block.** Write `u = 2⁻⁵³`. Each of
/// `x − x'`, its square, the sum of squares and `r²` rounds once, so when
/// `Disk::contains` accepts sensor `s` for point `p`, the exact gap on
/// each axis is at most `r(1 + 4u)` plus less than 2⁻⁵³⁵ that only
/// underflow adds: under the side by a relative margin of about 10⁻⁹.
/// A cell coordinate `⌊(x − x₀) / side⌋` rounds twice on a value whose
/// magnitude is at most `⌈√n⌉ + 2 ≤ 2¹⁷` for any coverer, an error under
/// 2⁻³⁵ each, ≪ 10⁻⁹. So the rounded coordinates of `s` and `p` differ
/// by less than one cell, and their floors by at most one: `s` lies in
/// `p`'s cell or a neighbour, on both axes. The sensors' own cells are
/// floors of the same monotone expression, so the largest is the last
/// column or row.
///
/// **One cell when distance stops mattering.** If `r²` overflows,
/// `Disk::contains` accepts at any distance that is not NaN, non-finite
/// positions included; and if the extent plus two cells overflows, the
/// cell coordinates no longer bound distance. Either way the grid is one
/// cell holding every sensor, and every query tests all of them, as the
/// scan does.
///
/// # Examples
///
/// ```
/// use cool_geometry::deployment::DiskIndex;
/// use cool_geometry::Point;
///
/// let sensors = [Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(2.0, 0.0)];
/// let index = DiskIndex::new(&sensors, 2.0);
/// assert_eq!(index.covering(Point::new(1.0, 0.0)), vec![0, 2]);
/// assert!(index.covering(Point::new(5.0, 5.0)).is_empty());
/// ```
#[derive(Debug)]
pub struct DiskIndex {
    disks: Vec<Disk>,
    /// Lower corner of the finite sensors' bounding box.
    origin: Point,
    /// Cell side; infinite for the one-cell grid that is scanned whole.
    side: f64,
    cols: usize,
    rows: usize,
    /// Row-major cell `c` holds `ids[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl DiskIndex {
    /// Indexes the disks of radius `radius` centred at `positions`; sensor
    /// `i` is `positions[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite, or if there are more
    /// than `u32::MAX` sensors.
    #[allow(clippy::expect_used)] // ids are u32, as detection parts store them
    pub fn new(positions: &[Point], radius: f64) -> Self {
        let disks = disks_at(positions, radius);
        let n = u32::try_from(disks.len()).expect("at most u32::MAX sensors");
        let finite = |p: &&Point| p.x.is_finite() && p.y.is_finite();
        let (lo, hi) = positions.iter().filter(finite).fold(
            (
                Point::new(f64::INFINITY, f64::INFINITY),
                Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            ),
            |(lo, hi), p| {
                (
                    Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                    Point::new(hi.x.max(p.x), hi.y.max(p.y)),
                )
            },
        );
        let extent = (hi.x - lo.x).max(hi.y - lo.y);
        let per_axis = f64::from(n).sqrt().ceil();
        let side = ((radius + UNDERFLOW_SLACK) * (1.0 + ROUNDING_SLACK)).max(extent / per_axis);
        // No finite sensor (a negative extent), an overflowing `r²`, or a
        // grid too wide for its cell coordinates to bound distance.
        if !(extent >= 0.0 && (radius * radius).is_finite() && (extent + 2.0 * side).is_finite()) {
            return DiskIndex::one_cell(disks, n);
        }
        // `v − origin` is never negative for a sensor, so the truncating
        // cast is the floor.
        let cell = |v: f64, origin: f64| ((v - origin) / side) as usize;
        let (cols, rows) = (cell(hi.x, lo.x) + 1, cell(hi.y, lo.y) + 1);
        let cells: Vec<Option<usize>> = positions
            .iter()
            .map(|p| finite(&p).then(|| cell(p.y, lo.y) * cols + cell(p.x, lo.x)))
            .collect();

        // Counting sort: count per cell, sum the counts so `start[c]` ends
        // cell `c`, then fill each cell from its end with decreasing ids,
        // which leaves its run ascending and `start[c]` at its beginning.
        let mut start = vec![0u32; cols * rows + 1];
        for &c in cells.iter().flatten() {
            start[c] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut ids = vec![0u32; start[cols * rows] as usize];
        for (id, c) in (0..n).zip(&cells).rev() {
            if let Some(c) = *c {
                start[c] -= 1;
                ids[start[c] as usize] = id;
            }
        }
        DiskIndex {
            disks,
            origin: lo,
            side,
            cols,
            rows,
            start,
            ids,
        }
    }

    /// The degenerate grid: one cell holding all `n` sensors.
    fn one_cell(disks: Vec<Disk>, n: u32) -> Self {
        DiskIndex {
            origin: Point::ORIGIN,
            side: f64::INFINITY,
            cols: 1,
            rows: 1,
            start: vec![0, n],
            ids: (0..n).collect(),
            disks,
        }
    }

    /// The sensors whose disk contains `target`, in increasing id order:
    /// exactly the members of [`sensors_covering`]`(target, disks)`.
    pub fn covering(&self, target: Point) -> Vec<u32> {
        let mut coverers = Vec::new();
        let (Some(cols), Some(rows)) = (
            self.span(target.x, self.origin.x, self.cols),
            self.span(target.y, self.origin.y, self.rows),
        ) else {
            return coverers;
        };
        for row in rows {
            let first = row * self.cols + cols.start();
            let last = row * self.cols + cols.end();
            let run = self.start[first] as usize..self.start[last + 1] as usize;
            coverers.extend(
                self.ids[run]
                    .iter()
                    .filter(|&&id| self.disks[id as usize].contains(target)),
            );
        }
        coverers.sort_unstable();
        coverers
    }

    /// The cells along one axis a query at coordinate `v` scans: its own
    /// and both neighbours, clipped to the grid's `cells`. `None` when
    /// none of them is in the grid — `v` is NaN, infinite, or more than a
    /// cell beyond the sensors, so no sensor covers it.
    fn span(&self, v: f64, origin: f64, cells: usize) -> Option<RangeInclusive<usize>> {
        if self.side == f64::INFINITY {
            return Some(0..=0);
        }
        let c = ((v - origin) / self.side).floor();
        let last = (cells - 1) as f64;
        if !(c >= -1.0 && c <= last + 1.0) {
            return None;
        }
        Some((c - 1.0).max(0.0) as usize..=(c + 1.0).min(last) as usize)
    }
}

/// One point drawn uniformly in `omega` (a target candidate, or a sensor
/// of a uniform deployment).
///
/// # Examples
///
/// ```
/// use cool_geometry::{deployment::uniform_point, Rect};
/// use cool_common::SeedSequence;
///
/// let mut rng = SeedSequence::new(2).nth_rng(0);
/// let target = uniform_point(Rect::square(50.0), &mut rng);
/// assert!(Rect::square(50.0).contains(target));
/// ```
pub fn uniform_point<R: Rng + ?Sized>(omega: Rect, rng: &mut R) -> Point {
    Point::new(
        rng.random_range(omega.min().x..=omega.max().x),
        rng.random_range(omega.min().y..=omega.max().y),
    )
}

fn clamp_to(omega: Rect, p: Point) -> Point {
    Point::new(
        p.x.clamp(omega.min().x, omega.max().x),
        p.y.clamp(omega.min().y, omega.max().y),
    )
}

/// Standard normal via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_common::SeedSequence;

    fn rng() -> rand::rngs::StdRng {
        SeedSequence::new(42).nth_rng(0)
    }

    #[test]
    fn uniform_stays_in_omega() {
        let spec = DeploymentSpec::new(Rect::square(100.0), 500, DeploymentKind::UniformRandom);
        let pts = spec.generate(&mut rng());
        assert_eq!(pts.len(), 500);
        assert!(pts.iter().all(|&p| spec.omega().contains(p)));
    }

    #[test]
    fn grid_is_deterministic_and_even() {
        let spec = DeploymentSpec::new(Rect::square(100.0), 100, DeploymentKind::Grid);
        let a = spec.generate(&mut rng());
        let b = spec.generate(&mut rng());
        assert_eq!(a, b, "grid ignores the RNG");
        // 10×10 grid: first point at (5, 5).
        assert_eq!(a[0], Point::new(5.0, 5.0));
        assert_eq!(a[99], Point::new(95.0, 95.0));
    }

    #[test]
    fn non_square_grid_count_is_respected() {
        let spec = DeploymentSpec::new(Rect::square(100.0), 7, DeploymentKind::Grid);
        assert_eq!(spec.generate(&mut rng()).len(), 7);
    }

    #[test]
    fn jittered_grid_stays_in_omega() {
        let spec = DeploymentSpec::new(
            Rect::square(10.0),
            50,
            DeploymentKind::JitteredGrid { jitter: 0.5 },
        );
        let pts = spec.generate(&mut rng());
        assert!(pts.iter().all(|&p| spec.omega().contains(p)));
        let grid =
            DeploymentSpec::new(Rect::square(10.0), 50, DeploymentKind::Grid).generate(&mut rng());
        assert_ne!(pts, grid, "jitter moves points");
    }

    #[test]
    fn clustered_points_cluster() {
        let spec = DeploymentSpec::new(
            Rect::square(1000.0),
            200,
            DeploymentKind::Clustered {
                clusters: 2,
                spread: 5.0,
            },
        );
        let pts = spec.generate(&mut rng());
        assert_eq!(pts.len(), 200);
        // Mean nearest-neighbour distance must be far below the uniform
        // expectation (~0.5·√(A/n) ≈ 35) because points concentrate.
        let mean_nn: f64 = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                pts.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &q)| p.distance(q))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / pts.len() as f64;
        assert!(
            mean_nn < 10.0,
            "clustered mean-NN {mean_nn} should be small"
        );
    }

    #[test]
    fn poisson_disk_respects_min_distance_when_feasible() {
        let spec = DeploymentSpec::new(
            Rect::square(100.0),
            20,
            DeploymentKind::PoissonDisk { min_distance: 10.0 },
        );
        let pts = spec.generate(&mut rng());
        assert_eq!(pts.len(), 20);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                assert!(
                    pts[i].distance(pts[j]) >= 10.0 - 1e-9,
                    "pair ({i},{j}) too close"
                );
            }
        }
    }

    #[test]
    fn poisson_disk_saturated_still_returns_n() {
        // 100 nodes at min distance 50 in a 10×10 box is impossible; the
        // generator must fall back rather than loop forever.
        let spec = DeploymentSpec::new(
            Rect::square(10.0),
            100,
            DeploymentKind::PoissonDisk { min_distance: 50.0 },
        );
        assert_eq!(spec.generate(&mut rng()).len(), 100);
    }

    #[test]
    fn sensors_covering_respects_radius() {
        let disks = disks_at(&[Point::new(0.0, 0.0), Point::new(4.0, 0.0)], 2.5);
        let cover = sensors_covering(Point::new(2.0, 0.0), &disks);
        assert_eq!(cover.len(), 2);
        let cover = sensors_covering(Point::new(-2.0, 0.0), &disks);
        assert_eq!(cover.len(), 1);
        let cover = sensors_covering(Point::new(100.0, 0.0), &disks);
        assert!(cover.is_empty());
    }

    #[test]
    fn grid_cells_are_bounded_by_the_sensor_count() {
        let spec = DeploymentSpec::new(Rect::square(1e4), 1000, DeploymentKind::UniformRandom);
        let mut positions = spec.generate(&mut rng());
        // Far-off non-finite sensors must not stretch the grid either.
        positions.extend([Point::new(f64::INFINITY, 0.0), Point::new(f64::NAN, 1e300)]);
        let per_axis = (positions.len() as f64).sqrt().ceil() as usize + 1;
        for radius in [1e-9, 1.0, 100.0, 1e6] {
            let index = DiskIndex::new(&positions, radius);
            assert!(
                index.cols <= per_axis && index.rows <= per_axis,
                "r = {radius}"
            );
            assert_eq!(index.start.len(), index.cols * index.rows + 1);
            assert_eq!(index.ids.len(), 1000, "non-finite sensors are not indexed");
        }
        // A radius of the sensors' spread: one cell.
        let index = DiskIndex::new(&positions, 2e4);
        assert_eq!((index.cols, index.rows), (1, 1));
    }

    #[test]
    fn generation_is_reproducible_from_seed() {
        let spec = DeploymentSpec::new(Rect::square(10.0), 30, DeploymentKind::UniformRandom);
        let a = spec.generate(&mut SeedSequence::new(5).nth_rng(1));
        let b = spec.generate(&mut SeedSequence::new(5).nth_rng(1));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn excessive_jitter_panics() {
        let _ = DeploymentSpec::new(
            Rect::square(1.0),
            1,
            DeploymentKind::JitteredGrid { jitter: 0.9 },
        );
    }

    #[test]
    fn zero_sensors_is_fine() {
        let spec = DeploymentSpec::new(Rect::square(1.0), 0, DeploymentKind::Grid);
        assert!(spec.generate(&mut rng()).is_empty());
    }
}
