//! Distributed sorting (§4.4) on a line of agents with link churn.
//!
//! Each agent owns one slot of a distributed array (its index) and one
//! value; groups of currently-connected agents permute their values to
//! reduce the squared-displacement objective.  The fairness assumption only
//! needs the line graph in index order, so the run uses exactly that
//! topology, with every link flapping randomly.
//!
//! The example runs both admissible group relations from the library — the
//! full group sort and the one-swap-at-a-time step — to illustrate that `R`
//! is a *class* of algorithms, all refining the same relation `D`.
//!
//! Run with:
//!
//! ```text
//! cargo run --example sorting_network
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "an example prints what it demonstrates"
)]

use self_similar::algorithms::sorting;
use self_similar::env::{RandomChurnEnv, Topology};
use self_similar::runtime::ExecutionMode;

fn main() {
    // A reversed array of 16 distinct values.
    let values: Vec<i64> = (1..=16).rev().collect();
    let n = values.len();
    println!("sorting {n} values held one-per-agent on a line: {values:?}");
    println!();

    let run = |name: &str, system: &self_similar::core::SelfSimilarSystem<(i64, i64)>| {
        let mut env = RandomChurnEnv::new(Topology::line(n), 0.5, 1.0);
        let report = ExecutionMode::sync().run(system, &mut env, 3, 200_000);
        println!(
            "{name:<12} rounds to convergence: {:?}, effective group steps: {}",
            report.rounds_to_convergence(),
            report.metrics.effective_group_steps
        );
        // The final array is sorted by index.
        let mut final_by_index = report.final_state.clone();
        final_by_index.sort_by_key(|(i, _)| *i);
        let final_values: Vec<i64> = final_by_index.iter().map(|(_, x)| *x).collect();
        assert!(final_values.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.converged());
        report.metrics.rounds_to_convergence.unwrap_or(0)
    };

    let full_sort = sorting::system(&values);
    let one_swap = sorting::system_with_step(&values, sorting::swap_one_step());

    let fast = run("group-sort", &full_sort);
    let slow = run("one-swap", &one_swap);

    println!();
    println!(
        "both strategies refine the same relation D and both sort the array;\n\
         the single-swap strategy needs more rounds ({slow} vs {fast}), which is\n\
         the efficiency/robustness latitude the methodology leaves to the designer."
    );
}
