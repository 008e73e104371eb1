//! Distributed sum (§4.2): a non-consensus aggregation and its fairness needs.
//!
//! The sum cannot be solved by plain consensus; the self-similar formulation
//! concentrates the total onto a single agent while everyone else drops to
//! zero, and — unlike the consensus examples — it needs the *complete* graph
//! as its fairness assumption, because zero-valued agents carry no
//! information and cannot act as relays.
//!
//! This example runs the sum under a complete-graph environment with heavy
//! churn (works), and then shows what the paper's fairness analysis
//! predicts: if the environment only ever enables a spanning tree of links
//! (violating the complete-graph assumption), the computation can get stuck
//! with the total split between agents that never meet.
//!
//! Run with:
//!
//! ```text
//! cargo run --example distributed_sum
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "an example prints what it demonstrates"
)]

use self_similar::algorithms::sum;
use self_similar::env::{RandomChurnEnv, StaticEnv, Topology};
use self_similar::runtime::ExecutionMode;

fn main() {
    let values = [3i64, 5, 3, 7, 11, 2, 8, 1];
    let n = values.len();
    let total: i64 = values.iter().sum();
    let system = sum::system(&values, Topology::complete(n));

    println!("distributed sum over {n} agents, values {values:?}, total {total}");
    println!();

    // 1. Complete-graph fairness with heavy churn: converges.
    let mut churny = RandomChurnEnv::new(Topology::complete(n), 0.25, 0.85);
    let report = ExecutionMode::sync().run(&system, &mut churny, 11, 100_000);
    println!(
        "complete graph + churn: converged in {:?} rounds; final state {:?}",
        report.rounds_to_convergence(),
        report.final_state
    );
    assert!(report.converged());
    assert_eq!(report.final_state.iter().sum::<i64>(), total);
    assert_eq!(
        report.final_state.iter().filter(|v| **v != 0).count(),
        1,
        "exactly one agent holds the total"
    );

    // 2. The same algorithm under an environment that only ever enables a
    //    star of links (a connected but not complete fairness graph).  The
    //    conservation law still holds — no value is ever lost — but the run
    //    may stall short of full concentration, which is exactly why §4.2
    //    requires the complete graph.
    let star_only = Topology::star(n);
    let mut star_env = StaticEnv::new(star_only);
    let stalled = ExecutionMode::sync().run(&system, &mut star_env, 12, 2_000);
    println!(
        "star-only environment: converged? {} (final state {:?})",
        stalled.converged(),
        stalled.final_state
    );
    // The total is conserved no matter what.
    assert_eq!(stalled.final_state.iter().sum::<i64>(), total);
    println!();
    println!(
        "note: under the star the hub can still collect everything, but under a\n\
         line or a two-star environment concentration can stall — run experiment\n\
         E8 (`cargo run -p selfsim-bench --bin experiments`) for the sweep."
    );
}
