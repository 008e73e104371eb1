//! Convex hull and circumscribing circle of mobile agents (§4.5), run on the
//! asynchronous message-passing runtime.
//!
//! Each agent sits at a point in the plane and wants the circumscribing
//! circle of all agents.  The naive formulation (everyone maintains a circle
//! estimate) is not super-idempotent — this example first demonstrates the
//! Figure 2 counterexample numerically — so the agents instead gossip convex
//! hulls, which *is* super-idempotent, and extract the circle at the end.
//!
//! Communication is asynchronous: agents exchange messages with latency and
//! a 30% drop rate over a ring whose links churn, matching the remark at the
//! end of §4.5 that the hull-merging relation is easy to implement by
//! message passing.
//!
//! Run with:
//!
//! ```text
//! cargo run --example geo_hull
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "an example prints what it demonstrates"
)]

use self_similar::algorithms::{circumscribing, convex_hull};
use self_similar::env::{RandomChurnEnv, Topology};
use self_similar::geometry::{smallest_enclosing_circle, Point};
use self_similar::runtime::{AsyncKnobs, DeliveryRule, ExecutionMode};

fn main() {
    // Figure 2: the naive circumscribing-circle function is not
    // super-idempotent.
    let (direct, via_f) = circumscribing::figure2_counterexample();
    println!("Figure 2 (naive circumscribing circle):");
    println!("  radius of f(S_B ∪ S_C)        = {direct:.4}");
    println!("  radius of f(f(S_B) ∪ S_C)     = {via_f:.4}");
    println!("  different ⇒ f is not super-idempotent; generalise to convex hulls.");
    println!();

    // A cloud of 12 agents.
    let sites: Vec<Point> = (0..12)
        .map(|i| {
            let a = i as f64 * 0.7;
            Point::new((a.cos() * 10.0).round(), (a.sin() * 7.0).round())
        })
        .collect();
    let n = sites.len();
    let system = convex_hull::system(&sites, Topology::ring(n));

    let mut env = RandomChurnEnv::new(Topology::ring(n), 0.5, 0.95);
    let knobs = AsyncKnobs::new(0.6, 4, 0.3, DeliveryRule::default()).expect("valid knobs");
    let report = ExecutionMode::Async(knobs).run(&system, &mut env, 9, 200_000);

    println!(
        "asynchronous hull gossip over a churning ring: converged in {:?} ticks, {} messages sent",
        report.rounds_to_convergence(),
        report.metrics.messages
    );
    assert!(report.converged());

    // Every agent now holds the global hull; recover the circumscribing
    // circle and check it against the direct geometric computation.
    let circle = convex_hull::circumscribing_circle(&report.final_state[0]);
    let reference = smallest_enclosing_circle(&sites);
    println!(
        "recovered circumscribing circle: centre ({:.3}, {:.3}), radius {:.3}",
        circle.center.x, circle.center.y, circle.radius
    );
    assert!(circle.center.distance(reference.center) < 1e-9);
    assert!((circle.radius - reference.radius).abs() < 1e-9);
    for p in &sites {
        assert!(circle.contains(*p, 1e-9));
    }
    println!("matches the directly computed smallest enclosing circle of all sites.");
}
