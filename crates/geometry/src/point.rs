//! Points in the plane with a total order.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in the plane.
///
/// Coordinates are `f64` but the type provides `Eq`/`Ord`/`Hash` (via
/// `f64::total_cmp` and bit patterns) so points can be stored in the ordered
/// collections used by the self-similar framework (multisets of agent
/// states, `BTreeSet`s of hull vertices).  NaN coordinates are not rejected
/// but compare consistently under the total order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub fn origin() -> Self {
        Point { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (no square root, exact for
    /// comparisons).
    pub fn distance_squared(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint of the segment from `self` to `other`.
    pub fn midpoint(&self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// The 2-D cross product `(b - a) × (c - a)`; positive when the triple
    /// `(a, b, c)` makes a counter-clockwise turn.
    pub fn cross(a: Point, b: Point, c: Point) -> f64 {
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.x.total_cmp(&other.x) == Ordering::Equal
            && self.y.total_cmp(&other.y) == Ordering::Equal
    }
}

impl Eq for Point {}

impl PartialOrd for Point {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Point {
    fn cmp(&self, other: &Self) -> Ordering {
        self.x
            .total_cmp(&other.x)
            .then_with(|| self.y.total_cmp(&other.y))
    }
}

impl std::hash::Hash for Point {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.x.to_bits().hash(state);
        self.y.to_bits().hash(state);
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_squared(b), 25.0);
        assert_eq!(b.distance(a), 5.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::new(0.0, 2.0);
        let b = Point::new(4.0, 0.0);
        assert_eq!(a.midpoint(b), Point::new(2.0, 1.0));
    }

    #[test]
    fn cross_sign_encodes_turn_direction() {
        let a = Point::origin();
        let b = Point::new(1.0, 0.0);
        let ccw = Point::new(1.0, 1.0);
        let cw = Point::new(1.0, -1.0);
        let col = Point::new(2.0, 0.0);
        assert!(Point::cross(a, b, ccw) > 0.0);
        assert!(Point::cross(a, b, cw) < 0.0);
        assert_eq!(Point::cross(a, b, col), 0.0);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut pts = vec![
            Point::new(1.0, 2.0),
            Point::new(0.0, 5.0),
            Point::new(1.0, 0.0),
        ];
        pts.sort();
        assert_eq!(
            pts,
            vec![
                Point::new(0.0, 5.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 2.0),
            ]
        );
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(0.5, 3.0);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn display_formats_coordinates() {
        assert_eq!(Point::new(1.0, 2.5).to_string(), "(1, 2.5)");
    }
}
