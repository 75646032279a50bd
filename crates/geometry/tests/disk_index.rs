//! Property test: the grid index answers every coverage query exactly as
//! the linear scan over every disk (`sensors_covering`, its oracle) —
//! same sensors, ascending — on the inputs where a grid can go wrong:
//! points on cell borders, coverers at exactly the radius, duplicate
//! positions, a single sensor, targets outside the sensors' bounding box,
//! one cell (radius ≥ region), cells set by the sensor count (radius ≪
//! region), non-finite coordinates, and the degenerate grids.

use cool_geometry::deployment::{disks_at, sensors_covering, DiskIndex};
use cool_geometry::Point;
use proptest::prelude::*;
use proptest::sample::select;
use rand::rngs::StdRng;

/// Asserts the index and the scan agree on every query.
fn assert_agrees(positions: &[Point], radius: f64, queries: &[Point]) {
    let index = DiskIndex::new(positions, radius);
    let disks = disks_at(positions, radius);
    for &q in queries {
        let scanned: Vec<u32> = sensors_covering(q, &disks)
            .iter()
            .map(|v| v.index() as u32)
            .collect();
        assert_eq!(
            index.covering(q),
            scanned,
            "query ({:e}, {:e}), radius {radius:e}, sensors {positions:?}",
            q.x,
            q.y
        );
    }
}

/// `v` and its two float neighbours.
fn nudged(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

/// The sensors of one case: `layout` 0 is uniform in the region, 1 a
/// lattice of step `radius` (coverers at exactly the radius along both
/// axes, and duplicates), 2 at most three distinct points, each repeated.
fn sensors(n: usize, region: f64, radius: f64, layout: u8, rng: &mut StdRng) -> Vec<Point> {
    let distinct: Vec<Point> = (0..3)
        .map(|_| {
            Point::new(
                rng.random_range(0.0..=region),
                rng.random_range(0.0..=region),
            )
        })
        .collect();
    (0..n)
        .map(|_| match layout {
            0 => Point::new(
                rng.random_range(0.0..=region),
                rng.random_range(0.0..=region),
            ),
            1 => Point::new(
                f64::from(rng.random_range(0..6u32)) * radius,
                f64::from(rng.random_range(0..6u32)) * radius,
            ),
            _ => distinct[rng.random_range(0..distinct.len())],
        })
        .collect()
}

/// Points the grid's rounding argument is about, for the given sensors.
fn queries(positions: &[Point], radius: f64, rng: &mut StdRng) -> Vec<Point> {
    let finite: Vec<Point> = positions
        .iter()
        .copied()
        .filter(|p| p.x.is_finite() && p.y.is_finite())
        .collect();
    let mut out = Vec::new();
    // At exactly the radius, along each axis and on two diagonals (the
    // 3-4-5 one and 45°), and one float either side.
    let (a, b) = (0.6 * radius, 0.8 * radius);
    let d = radius * std::f64::consts::FRAC_1_SQRT_2;
    for s in &finite {
        for (dx, dy) in [
            (0.0, 0.0),
            (radius, 0.0),
            (-radius, 0.0),
            (0.0, radius),
            (0.0, -radius),
            (a, b),
            (-b, -a),
            (d, d),
            (-d, d),
        ] {
            for x in nudged(s.x + dx) {
                out.push(Point::new(x, s.y + dy));
            }
            for y in nudged(s.y + dy) {
                out.push(Point::new(s.x + dx, y));
            }
        }
    }
    // Cell borders under either rule for the side, from the bounding box
    // of the finite sensors, and past it on every side.
    if let Some(first) = finite.first() {
        let lo = finite
            .iter()
            .fold(*first, |lo, p| Point::new(lo.x.min(p.x), lo.y.min(p.y)));
        let hi = finite
            .iter()
            .fold(*first, |hi, p| Point::new(hi.x.max(p.x), hi.y.max(p.y)));
        let per_axis = (positions.len() as f64).sqrt().ceil();
        let extent = (hi.x - lo.x).max(hi.y - lo.y);
        for side in [radius * (1.0 + 1e-9), extent / per_axis] {
            if side > 0.0 {
                // The first and last borders, and a sample between: a tiny
                // radius has millions.
                let last = (extent / side).ceil().min(1e9) as i64;
                let between = (0..8).map(|_| rng.random_range(0..=last));
                let borders: Vec<i64> =
                    (-2..=2).chain(last - 2..=last + 2).chain(between).collect();
                for j in borders {
                    let off = j as f64 * side;
                    let y = rng.random_range(lo.y - radius..=hi.y + radius);
                    let x = rng.random_range(lo.x - radius..=hi.x + radius);
                    for v in nudged(lo.x + off) {
                        out.push(Point::new(v, y));
                    }
                    for v in nudged(lo.y + off) {
                        out.push(Point::new(x, v));
                    }
                    for (vx, vy) in nudged(lo.x + off).into_iter().zip(nudged(lo.y + off)) {
                        out.push(Point::new(vx, vy));
                    }
                }
            }
        }
        out.extend([
            Point::new(lo.x - 3.0 * radius, lo.y),
            Point::new(hi.x + 3.0 * radius, hi.y),
            Point::new(lo.x, hi.y + 1e300),
            Point::new(-1e300, 1e300),
        ]);
        for _ in 0..16 {
            out.push(Point::new(
                rng.random_range(lo.x - 2.0 * radius..=hi.x + 2.0 * radius),
                rng.random_range(lo.y - 2.0 * radius..=hi.y + 2.0 * radius),
            ));
        }
    }
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        out.extend([Point::new(v, 0.0), Point::new(0.0, v), Point::new(v, v)]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn index_answers_exactly_as_the_scan(
        n in 1usize..40,
        region in select(vec![1.0, 100.0, 1e4]),
        radius_share in select(vec![1e-7, 0.01, 0.1, 0.3, 1.0, 4.0]),
        layout in 0u8..3,
        non_finite in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let radius = region * radius_share;
        let mut positions = sensors(n, region, radius, layout, &mut rng);
        // Non-finite sensors cover nothing and must not widen the grid.
        for k in 0..non_finite.min(n - 1) {
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][k % 3];
            let i = rng.random_range(0..n);
            positions[i] = if rng.random::<bool>() {
                Point::new(bad, positions[i].y)
            } else {
                Point::new(bad, bad)
            };
        }
        let queries = queries(&positions, radius, &mut rng);
        assert_agrees(&positions, radius, &queries);
    }
}

#[test]
fn degenerate_grids_answer_as_the_scan() {
    let near = |p: Point, r: f64| {
        vec![
            p,
            Point::new(p.x + r, p.y),
            Point::new(p.x - r, p.y - r),
            Point::new(p.x + 1e300, p.y),
            Point::new(f64::INFINITY, p.y),
            Point::new(f64::NEG_INFINITY, f64::INFINITY),
            Point::new(f64::NAN, p.y),
        ]
    };
    // `r²` overflows: every sensor covers every point at a non-NaN
    // distance, infinite ones included.
    let spread = [
        Point::new(0.0, 0.0),
        Point::new(1e10, -1e10),
        Point::new(f64::INFINITY, 0.0),
        Point::new(f64::NAN, 1.0),
    ];
    assert_agrees(&spread, 1e200, &near(Point::new(5.0, 5.0), 1e200));
    // The extent overflows a float.
    let huge = [Point::new(-1.5e308, 0.0), Point::new(1.5e308, 1.0)];
    assert_agrees(&huge, 10.0, &near(huge[1], 10.0));
    assert_agrees(&huge, 10.0, &near(huge[0], 10.0));
    // No finite sensor; no sensor at all.
    let lost = [Point::new(f64::NAN, 0.0), Point::new(f64::INFINITY, 1.0)];
    assert_agrees(&lost, 1.0, &near(Point::new(0.0, 0.0), 1.0));
    assert_agrees(&[], 1.0, &near(Point::new(0.0, 0.0), 1.0));
    // Radius zero, and radii whose squares underflow: only points a
    // squared distance that rounds to zero away are covered.
    let tiny = [
        Point::new(0.0, 0.0),
        Point::new(1e-170, 0.0),
        Point::new(3e-160, 1e-200),
    ];
    for r in [0.0, 1e-200, 1e-160, f64::MIN_POSITIVE] {
        let mut at = near(Point::new(0.0, 0.0), r);
        at.extend([
            Point::new(1e-165, 0.0),
            Point::new(2e-160, 0.0),
            Point::new(0.0, 1e-162),
        ]);
        assert_agrees(&tiny, r, &at);
    }
    // One sensor; a whole deployment on one spot.
    assert_agrees(
        &[Point::new(3.0, 4.0)],
        5.0,
        &near(Point::new(0.0, 0.0), 5.0),
    );
    let stack = vec![Point::new(7.0, 7.0); 9];
    assert_agrees(&stack, 2.0, &near(Point::new(7.0, 5.0), 2.0));
}
