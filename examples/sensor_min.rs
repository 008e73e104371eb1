//! Sensor network scenario: minimum of sensor readings under battery churn.
//!
//! The paper's motivating scenario: agents are battery-powered sensors that
//! "cease functioning after they run out of battery power and resume
//! operation when they gain access to other sources of power".  We model a
//! grid of sensors whose links are always physically present but whose nodes
//! crash and restart at random, and compute the minimum reading (e.g. the
//! lowest temperature) with the §4.1 algorithm.
//!
//! The example also records the run through its round observer.
//! It asserts that the conservation law and the descent of `h` held at every
//! recorded state.  It also runs a finite-trace recurrence test standing in
//! for the fairness assumption `□◇Q_e` that the correctness theorem
//! conditions on: from every recorded state except the last `len/4`, each
//! grid link must be usable (both endpoints up) at that state or a later
//! one.  A finite trace can neither prove nor refute `□◇`, and a short run
//! under crash/restart churn can leave a link unusable through its end, so
//! this test prints the links it flags and asserts nothing.
//!
//! Run with:
//!
//! ```text
//! cargo run --example sensor_min
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "an example prints what it demonstrates"
)]

use self_similar::algorithms::minimum;
use self_similar::core::proof;
use self_similar::env::{CrashRestartEnv, Topology};
use self_similar::runtime::ExecutionMode;
use self_similar::temporal::{Trace, Verdict};
use self_similar::trace::EventLog;

fn main() {
    // A 4×5 grid of sensors with pseudo-random readings in [50, 150).
    let rows = 4;
    let cols = 5;
    let topology = Topology::grid(rows, cols);
    let readings: Vec<i64> = (0..rows * cols)
        .map(|i| 50 + ((i as i64 * 37 + 11) % 100))
        .collect();
    let system = minimum::system(&readings, topology.clone());
    let expected = *readings.iter().min().expect("at least one reading");

    println!("sensor grid {rows}x{cols}, readings: {readings:?}");
    println!("true minimum reading: {expected}");
    println!();

    // Sensors crash with probability 0.15 per round and restart with
    // probability 0.30 per round.
    let mut environment = CrashRestartEnv::new(topology, 0.15, 0.30);
    // Keep the state multiset (from S(0) on) and the environment state of
    // every round; the run itself keeps no history.
    let mut state_trace = vec![system.initial_multiset().clone()];
    let mut env_trace = Trace::new();
    let report = ExecutionMode::Sync { cooldown: 25 }.run_with(
        &system,
        &mut environment,
        7,
        200_000,
        &mut EventLog::disabled(),
        |round| {
            state_trace.push(round.states.clone());
            env_trace.push(round.env_state());
        },
    );

    match report.rounds_to_convergence() {
        Some(rounds) => println!("converged in {rounds} rounds despite battery churn"),
        None => println!("did not converge within the round budget"),
    }
    println!(
        "group steps: {} ({} of them changed state), messages: {}",
        report.metrics.group_steps, report.metrics.effective_group_steps, report.metrics.messages
    );
    assert_eq!(report.final_state, vec![expected; rows * cols]);

    // Audit the run: the conservation law f(S) = f(S(0)) and the descent of
    // h must hold along the whole recorded trace.
    let relation = system.relation();
    let audit = proof::check_trace_invariants(&relation, &state_trace);
    println!(
        "trace audit: {} checks, {} violations",
        audit.checks_run,
        audit.violations.len()
    );
    assert!(audit.passed());

    // The finite-trace recurrence test for `□◇Q_e` (reported, not
    // asserted): every grid link usable at or after each recorded state
    // except the last `len/4`.
    let tolerance = env_trace.len() / 4;
    let violations = system.fairness().check_trace(&env_trace, tolerance);
    println!(
        "finite-trace recurrence test (tolerance {tolerance} of {} states, not asserted): \
         {} of {} links unusable from some state on",
        env_trace.len(),
        violations.len(),
        system.fairness().edges().len()
    );
    for (edge, verdict) in &violations {
        if let Verdict::Violated { position, .. } = verdict {
            println!("  link {edge}: unusable from state {position} to the end");
        }
    }
    println!();
    println!("every sensor now reports the minimum reading {expected}.");
}
