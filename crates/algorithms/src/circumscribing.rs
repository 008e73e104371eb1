//! §4.5 (first half) — the **naive** circumscribing-circle function.
//!
//! Each agent is a point in the plane and maintains an estimate of the
//! circumscribing circle of all the points (initially the degenerate circle
//! of radius zero around itself).  The natural distributed function —
//! replace every estimate by the smallest circle containing all current
//! estimates — is idempotent but **not super-idempotent**: Figure 2 of the
//! paper shows three points whose exact circumscribing circle, combined with
//! a fourth point, yields a *different* (larger) circle than the
//! circumscribing circle of the four points computed directly.
//!
//! Because of that, no objective function can rescue the naive formulation;
//! the paper generalises the problem to the convex hull (see
//! [`crate::convex_hull`]), from which the circumscribing circle is
//! recovered at the end.  This module provides the agent state, the one
//! adopt-enclosing-circle rule ([`adopt_enclosing_circle`]), the naive
//! function built on it, and the machinery needed to reproduce the Figure 2
//! counterexample mechanically.  It offers no `system` constructor: a
//! runnable system built from the rule (as the campaign's
//! `circumscribing-circle` algorithm is) exists only to measure the
//! failure.

use selfsim_core::FnDistributedFunction;
use selfsim_geometry::{enclosing_circle_of_circles, Circle, Point};
use selfsim_multiset::Multiset;

/// The agent state of the naive formulation: the (fixed) coordinates of the
/// agent and its current estimate of the circumscribing circle, stored as
/// `(site, centre, radius)` rounded to a fixed grid so the state is `Ord`.
///
/// Coordinates are scaled by [`SCALE`] and stored as integers; this keeps
/// multiset equality exact, which the super-idempotence checkers need.
pub type State = (i64, i64, i64, i64, i64);

/// Fixed-point scale used to store coordinates in the agent state.
pub const SCALE: f64 = 1_000_000.0;

/// Builds the agent state for a site with the given estimate.
pub fn make_state(site: Point, estimate: Circle) -> State {
    (
        (site.x * SCALE).round() as i64,
        (site.y * SCALE).round() as i64,
        (estimate.center.x * SCALE).round() as i64,
        (estimate.center.y * SCALE).round() as i64,
        (estimate.radius * SCALE).round() as i64,
    )
}

/// The initial state of an agent at `site`: its estimate is the degenerate
/// circle of radius zero at the site.
pub fn initial_state(site: Point) -> State {
    make_state(site, Circle::point(site))
}

/// Reads the circle estimate out of an agent state.
pub fn estimate_of(state: &State) -> Circle {
    Circle::new(
        Point::new(state.2 as f64 / SCALE, state.3 as f64 / SCALE),
        state.4 as f64 / SCALE,
    )
}

/// Reads the (fixed) site coordinates out of an agent state.
pub fn site_of(state: &State) -> Point {
    Point::new(state.0 as f64 / SCALE, state.1 as f64 / SCALE)
}

/// The adopt-enclosing-circle rule: every agent of `states` keeps its site
/// and adopts the smallest circle enclosing all their current estimates,
/// taken in the order given.  [`naive_function`] applies it to the whole
/// multiset; a group step applies it to one group.
pub fn adopt_enclosing_circle(states: &[State]) -> Vec<State> {
    let circles: Vec<Circle> = states.iter().map(estimate_of).collect();
    let enclosing = enclosing_circle_of_circles(&circles);
    (states.iter())
        .map(|state| make_state(site_of(state), enclosing))
        .collect()
}

/// The naive distributed function: the adopt-enclosing-circle rule over
/// every agent, in ascending state order.
pub fn naive_function() -> impl selfsim_core::DistributedFunction<State> {
    FnDistributedFunction::new("circumscribing-circle", |s: &Multiset<State>| {
        let states: Vec<State> = s.iter().copied().collect();
        adopt_enclosing_circle(&states).into_iter().collect()
    })
}

/// The Figure 2 counterexample: returns `(direct, via_f)` where `direct` is
/// `f(S_B ⊎ S_C)`'s common radius and `via_f` is `f(f(S_B) ⊎ S_C)`'s common
/// radius, for `B` = three points forming a wide triangle and `C` = one
/// point outside the triangle's circumscribed circle.  The two radii differ,
/// demonstrating that the naive function is not super-idempotent.
pub fn figure2_counterexample() -> (f64, f64) {
    // Three points whose circumscribed circle is centred near the origin,
    // plus a fourth point to the far right (the paper's "agent 4").
    let b_sites = [
        Point::new(-1.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.2),
    ];
    let c_site = Point::new(3.0, 0.0);
    let f = naive_function();
    let b: Multiset<State> = b_sites.iter().map(|p| initial_state(*p)).collect();
    let c: Multiset<State> = Multiset::singleton(initial_state(c_site));

    let direct = selfsim_core::DistributedFunction::apply(&f, &b.union(&c));
    let via_f = selfsim_core::DistributedFunction::apply(
        &f,
        &selfsim_core::DistributedFunction::apply(&f, &b).union(&c),
    );

    let radius_of =
        |ms: &Multiset<State>| -> f64 { estimate_of(ms.iter().next().expect("non-empty")).radius };
    (radius_of(&direct), radius_of(&via_f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_core::super_idempotence::{check_idempotent, check_super_idempotent};
    use selfsim_core::DistributedFunction;

    fn sample_sites() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(3.0, 1.0),
        ]
    }

    #[test]
    fn state_round_trips_through_fixed_point() {
        let site = Point::new(1.25, -2.5);
        let circle = Circle::new(Point::new(0.5, 0.75), 3.25);
        let state = make_state(site, circle);
        assert_eq!(site_of(&state), site);
        let back = estimate_of(&state);
        assert!(back.center.distance(circle.center) < 1e-6);
        assert!((back.radius - circle.radius).abs() < 1e-6);
    }

    #[test]
    fn initial_estimate_is_the_site_itself() {
        let s = initial_state(Point::new(4.0, 5.0));
        assert_eq!(estimate_of(&s).radius, 0.0);
        assert_eq!(estimate_of(&s).center, Point::new(4.0, 5.0));
    }

    #[test]
    fn naive_function_gives_every_agent_the_same_estimate() {
        let f = naive_function();
        let states: Multiset<State> = sample_sites().iter().map(|p| initial_state(*p)).collect();
        let out = f.apply(&states);
        let estimates: Vec<Circle> = out.iter().map(estimate_of).collect();
        let first = estimates[0];
        assert!(estimates
            .iter()
            .all(|c| c.center.distance(first.center) < 1e-6
                && (c.radius - first.radius).abs() < 1e-6));
        // Every site is inside the common estimate.
        for p in sample_sites() {
            assert!(first.contains(p, 1e-5));
        }
    }

    #[test]
    fn naive_function_is_idempotent_on_samples() {
        let f = naive_function();
        let samples: Vec<Multiset<State>> = vec![
            sample_sites().iter().map(|p| initial_state(*p)).collect(),
            sample_sites()[..2]
                .iter()
                .map(|p| initial_state(*p))
                .collect(),
        ];
        assert!(check_idempotent(&f, &samples).is_ok());
    }

    #[test]
    fn figure2_shows_non_super_idempotence() {
        let (direct, via_f) = figure2_counterexample();
        assert!(
            (direct - via_f).abs() > 1e-3,
            "radii should differ: direct = {direct}, via f = {via_f}"
        );
        // Replacing the three points by their circumscribing circle can only
        // make the final enclosing circle larger, never smaller.
        assert!(via_f > direct);
    }

    #[test]
    fn checker_also_finds_the_violation() {
        let f = naive_function();
        let b: Multiset<State> = [
            Point::new(-1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.2),
        ]
        .iter()
        .map(|p| initial_state(*p))
        .collect();
        let c: Multiset<State> = Multiset::singleton(initial_state(Point::new(3.0, 0.0)));
        assert!(check_super_idempotent(&f, &[b, c]).is_err());
    }
}
