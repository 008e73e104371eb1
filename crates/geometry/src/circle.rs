//! Circles and the smallest enclosing circle (Welzl's algorithm).

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::Point;

/// A circle given by its centre and radius.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Circle {
    /// Centre of the circle.
    pub center: Point,
    /// Radius (non-negative).
    pub radius: f64,
}

impl Circle {
    /// Creates a circle from centre and radius.
    pub fn new(center: Point, radius: f64) -> Self {
        Circle { center, radius }
    }

    /// The degenerate circle of radius zero around a point.
    ///
    /// This is the initial estimate of every agent in the paper's
    /// circumscribing-circle example: `(x, y, r) = (X_a, Y_a, 0)`.
    pub fn point(p: Point) -> Self {
        Circle {
            center: p,
            radius: 0.0,
        }
    }

    /// Returns `true` if `p` lies inside or on the circle, within `eps`.
    pub fn contains(&self, p: Point, eps: f64) -> bool {
        self.center.distance(p) <= self.radius + eps
    }

    /// Returns `true` if `other` lies entirely inside or on this circle,
    /// within `eps`.
    pub fn contains_circle(&self, other: &Circle, eps: f64) -> bool {
        self.center.distance(other.center) + other.radius <= self.radius + eps
    }

    /// The circle through two diametrically opposite points.
    pub fn from_diameter(a: Point, b: Point) -> Self {
        let center = a.midpoint(b);
        Circle {
            center,
            radius: center.distance(a),
        }
    }

    /// The circumcircle of three points, or `None` if they are (nearly)
    /// collinear.
    pub fn circumscribed(a: Point, b: Point, c: Point) -> Option<Self> {
        let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
        if d.abs() < 1e-12 {
            return None;
        }
        let a2 = a.x * a.x + a.y * a.y;
        let b2 = b.x * b.x + b.y * b.y;
        let c2 = c.x * c.x + c.y * c.y;
        let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
        let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
        let center = Point::new(ux, uy);
        Some(Circle {
            center,
            radius: center.distance(a),
        })
    }

    /// The area of the circle.
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }
}

/// Computes the smallest circle enclosing all `points` (the paper's
/// *circumscribing circle*) using Welzl's algorithm.
///
/// The expected-linear-time algorithm requires a random permutation of the
/// input; a fixed-seed deterministic RNG is used so results are reproducible
/// across runs.  An empty input yields the degenerate circle of radius zero
/// at the origin.
pub fn smallest_enclosing_circle(points: &[Point]) -> Circle {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort();
    pts.dedup();
    if pts.is_empty() {
        return Circle::point(Point::origin());
    }
    // detlint::allow(seed-provenance, reason = "fixed shuffle seed gives Welzl its expected-linear time; any permutation yields the same circle, so the output is seed-independent")
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e1f_51a1);
    pts.shuffle(&mut rng);
    welzl(&pts)
}

fn welzl(points: &[Point]) -> Circle {
    // Iterative incremental variant of Welzl's algorithm (avoids deep
    // recursion for large inputs).
    let mut circle = Circle::point(points[0]);
    for i in 1..points.len() {
        if circle.contains(points[i], 1e-9) {
            continue;
        }
        circle = Circle::point(points[i]);
        for j in 0..i {
            if circle.contains(points[j], 1e-9) {
                continue;
            }
            circle = Circle::from_diameter(points[i], points[j]);
            for k in 0..j {
                if circle.contains(points[k], 1e-9) {
                    continue;
                }
                circle = Circle::circumscribed(points[i], points[j], points[k])
                    .unwrap_or_else(|| enclosing_of_collinear(points[i], points[j], points[k]));
            }
        }
    }
    circle
}

/// Computes (to high precision) the smallest circle enclosing all of the
/// given `circles` — the generalisation of the circumscribing circle that the
/// naive algorithm of §4.5 maintains as the agents' running estimates.
///
/// The centre is found by minimising the convex function
/// `c ↦ max_i (‖c − c_i‖ + r_i)` with an adaptive grid search; the radius is
/// the value of that function at the optimum.  An empty input yields the
/// degenerate circle at the origin.
pub fn enclosing_circle_of_circles(circles: &[Circle]) -> Circle {
    if circles.is_empty() {
        return Circle::point(Point::origin());
    }
    if circles.len() == 1 {
        return circles[0];
    }
    // If every radius is (numerically) zero, fall back to the exact
    // point-based algorithm.
    if circles.iter().all(|c| c.radius.abs() < 1e-12) {
        return smallest_enclosing_circle(&circles.iter().map(|c| c.center).collect::<Vec<_>>());
    }
    let objective = |p: Point| -> f64 {
        circles
            .iter()
            .map(|c| p.distance(c.center) + c.radius)
            .fold(0.0f64, f64::max)
    };
    // Start from the bounding box of the centres and shrink around the best
    // grid point; the objective is convex, so this converges to the optimum.
    let (mut min_x, mut max_x, mut min_y, mut max_y) = circles.iter().fold(
        (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ),
        |(lx, hx, ly, hy), c| {
            (
                lx.min(c.center.x - c.radius),
                hx.max(c.center.x + c.radius),
                ly.min(c.center.y - c.radius),
                hy.max(c.center.y + c.radius),
            )
        },
    );
    let mut best = Point::new((min_x + max_x) / 2.0, (min_y + max_y) / 2.0);
    let mut best_val = objective(best);
    for _ in 0..120 {
        let grid = 8;
        for i in 0..=grid {
            for j in 0..=grid {
                let p = Point::new(
                    min_x + (max_x - min_x) * i as f64 / grid as f64,
                    min_y + (max_y - min_y) * j as f64 / grid as f64,
                );
                let v = objective(p);
                if v < best_val {
                    best_val = v;
                    best = p;
                }
            }
        }
        let shrink = 0.6;
        let half_w = (max_x - min_x) * shrink / 2.0;
        let half_h = (max_y - min_y) * shrink / 2.0;
        min_x = best.x - half_w;
        max_x = best.x + half_w;
        min_y = best.y - half_h;
        max_y = best.y + half_h;
        if half_w.max(half_h) < 1e-12 {
            break;
        }
    }
    Circle::new(best, best_val)
}

fn enclosing_of_collinear(a: Point, b: Point, c: Point) -> Circle {
    // For three (nearly) collinear points the smallest enclosing circle has
    // the two farthest-apart points as a diameter.
    let candidates = [
        Circle::from_diameter(a, b),
        Circle::from_diameter(a, c),
        Circle::from_diameter(b, c),
    ];
    candidates
        .into_iter()
        .max_by(|p, q| p.radius.total_cmp(&q.radius))
        .expect("three candidate circles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_of_one_point_is_degenerate() {
        let p = Point::new(2.0, 3.0);
        let c = smallest_enclosing_circle(&[p]);
        assert_eq!(c.center, p);
        assert_eq!(c.radius, 0.0);
    }

    #[test]
    fn circle_of_two_points_has_them_as_diameter() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let c = smallest_enclosing_circle(&[a, b]);
        assert_eq!(c.center, Point::new(2.0, 0.0));
        assert!((c.radius - 2.0).abs() < 1e-9);
    }

    #[test]
    fn circle_of_right_triangle_is_hypotenuse_diameter() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ];
        let c = smallest_enclosing_circle(&pts);
        assert!((c.radius - 2.5).abs() < 1e-9);
        assert!(c.center.distance(Point::new(2.0, 1.5)) < 1e-9);
    }

    #[test]
    fn circle_of_equilateral_triangle_is_circumcircle() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 3f64.sqrt() / 2.0),
        ];
        let c = smallest_enclosing_circle(&pts);
        let expected_r = 1.0 / 3f64.sqrt();
        assert!((c.radius - expected_r).abs() < 1e-9);
    }

    #[test]
    fn enclosing_circle_contains_all_points() {
        let pts: Vec<Point> = (0..40)
            .map(|i| {
                let x = ((i * 37) % 100) as f64 / 10.0;
                let y = ((i * 61) % 100) as f64 / 10.0;
                Point::new(x, y)
            })
            .collect();
        let c = smallest_enclosing_circle(&pts);
        for p in &pts {
            assert!(c.contains(*p, 1e-6), "{p} outside {c:?}");
        }
    }

    #[test]
    fn enclosing_circle_is_minimal_for_square() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let c = smallest_enclosing_circle(&pts);
        let expected_r = (0.5f64 * 0.5 + 0.5 * 0.5).sqrt();
        assert!((c.radius - expected_r).abs() < 1e-9);
    }

    #[test]
    fn collinear_points_use_extremes_as_diameter() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(3.0, 3.0),
        ];
        let c = smallest_enclosing_circle(&pts);
        assert!(
            (c.radius - Point::new(0.0, 0.0).distance(Point::new(3.0, 3.0)) / 2.0).abs() < 1e-9
        );
    }

    #[test]
    fn empty_input_is_origin_point_circle() {
        let c = smallest_enclosing_circle(&[]);
        assert_eq!(c.radius, 0.0);
        assert_eq!(c.center, Point::origin());
    }

    #[test]
    fn determinism_across_calls() {
        let pts: Vec<Point> = (0..25)
            .map(|i| Point::new((i % 7) as f64, (i % 5) as f64))
            .collect();
        let a = smallest_enclosing_circle(&pts);
        let b = smallest_enclosing_circle(&pts);
        assert_eq!(a, b);
    }

    #[test]
    fn contains_circle_checks_full_inclusion() {
        let big = Circle::new(Point::origin(), 5.0);
        let small = Circle::new(Point::new(1.0, 1.0), 2.0);
        let overlapping = Circle::new(Point::new(4.0, 0.0), 2.0);
        assert!(big.contains_circle(&small, 1e-9));
        assert!(!big.contains_circle(&overlapping, 1e-9));
        assert!(!small.contains_circle(&big, 1e-9));
    }

    #[test]
    fn circumscribed_rejects_collinear() {
        assert!(Circle::circumscribed(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0)
        )
        .is_none());
    }

    #[test]
    fn area_scales_with_radius() {
        let c = Circle::new(Point::origin(), 2.0);
        assert!((c.area() - 4.0 * std::f64::consts::PI).abs() < 1e-12);
    }
}

#[cfg(test)]
mod circle_of_circles_tests {
    use super::*;

    #[test]
    fn circle_of_one_circle_is_itself() {
        let c = Circle::new(Point::new(1.0, 2.0), 3.0);
        assert_eq!(enclosing_circle_of_circles(&[c]), c);
        assert_eq!(enclosing_circle_of_circles(&[]).radius, 0.0);
    }

    #[test]
    fn circle_of_degenerate_circles_matches_point_algorithm() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ];
        let circles: Vec<Circle> = pts.iter().map(|p| Circle::point(*p)).collect();
        let via_circles = enclosing_circle_of_circles(&circles);
        let via_points = smallest_enclosing_circle(&pts);
        assert!((via_circles.radius - via_points.radius).abs() < 1e-9);
    }

    #[test]
    fn circle_and_outside_point_spans_both() {
        // Smallest circle containing a circle of radius 1 at the origin and
        // the point (5, 0): centred at (2, 0) with radius 3.
        let c = Circle::new(Point::origin(), 1.0);
        let p = Circle::point(Point::new(5.0, 0.0));
        let result = enclosing_circle_of_circles(&[c, p]);
        assert!(
            (result.radius - 3.0).abs() < 1e-6,
            "radius = {}",
            result.radius
        );
        assert!(result.center.distance(Point::new(2.0, 0.0)) < 1e-5);
    }

    #[test]
    fn enclosing_circle_contains_every_input_circle() {
        let circles = vec![
            Circle::new(Point::new(0.0, 0.0), 0.5),
            Circle::new(Point::new(3.0, 1.0), 1.0),
            Circle::new(Point::new(-1.0, 2.0), 0.25),
            Circle::new(Point::new(1.0, -2.0), 0.75),
        ];
        let big = enclosing_circle_of_circles(&circles);
        for c in &circles {
            assert!(big.contains_circle(c, 1e-5), "{c:?} not inside {big:?}");
        }
    }

    #[test]
    fn contained_circle_does_not_grow_the_result() {
        let big = Circle::new(Point::origin(), 5.0);
        let small = Circle::new(Point::new(1.0, 0.0), 1.0);
        let result = enclosing_circle_of_circles(&[big, small]);
        assert!((result.radius - 5.0).abs() < 1e-6);
    }
}
