//! Quickstart: minimum consensus on a small dynamic network.
//!
//! Builds the §4.1 minimum-consensus system over a ring of 8 agents, runs it
//! under three environments of increasing hostility (static, random churn,
//! the minimally-fair adversary), and prints how long each run takes — the
//! paper's "algorithms speed up or slow down depending on the resources
//! available" in miniature.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "an example prints what it demonstrates"
)]

use self_similar::algorithms::minimum;
use self_similar::env::{AdversarialEnv, Environment, RandomChurnEnv, StaticEnv, Topology};
use self_similar::runtime::ExecutionMode;

fn main() {
    let values = [9i64, 4, 7, 1, 5, 14, 3, 8];
    let topology = Topology::ring(values.len());
    let system = minimum::system(&values, topology.clone());

    println!("minimum consensus over a ring of {} agents", values.len());
    println!("initial values: {values:?}");
    println!(
        "target: every agent holds {}",
        values.iter().min().expect("at least one agent")
    );
    println!();

    let mode = ExecutionMode::sync();

    let mut environments: Vec<Box<dyn Environment>> = vec![
        Box::new(StaticEnv::new(topology.clone())),
        Box::new(RandomChurnEnv::new(topology.clone(), 0.3, 0.9)),
        Box::new(AdversarialEnv::new(topology.clone(), 4)),
    ];

    println!(
        "{:<18} {:>10} {:>12} {:>10}",
        "environment", "rounds", "group steps", "messages"
    );
    for env in environments.iter_mut() {
        let report = mode.run(&system, env.as_mut(), 42, 100_000);
        let rounds = report
            .rounds_to_convergence()
            .map(|r| r.to_string())
            .unwrap_or_else(|| "did not converge".to_string());
        println!(
            "{:<18} {:>10} {:>12} {:>10}",
            report.metrics.environment, rounds, report.metrics.group_steps, report.metrics.messages
        );
        assert_eq!(report.final_state, vec![1; values.len()]);
    }

    println!();
    println!("all three runs converged to the same answer; only the speed differs.");
}
