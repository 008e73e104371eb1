//! Recording reads a run; it never changes one.
//!
//! `ExecutionMode::run` is `run_with` with a disabled event log and an
//! observer that does nothing.  Here every mode also runs with an enabled
//! log and an observer that materialises every round's environment state
//! and clones its multiset, over seeded builtin environments (and every
//! delivery rule for the message-passing mode).  Both runs must report
//! the same metrics and final state, and the observer must see each
//! executed round exactly once, in order.

use selfsim_algorithms::minimum;
use selfsim_core::SelfSimilarSystem;
use selfsim_env::{
    AdversarialEnv, ComposedEnv, CrashRestartEnv, Environment, MarkovLinkEnv, PeriodicPartitionEnv,
    RandomChurnEnv, StaticEnv, Topology,
};
use selfsim_runtime::{AsyncKnobs, DeliveryRule, ExecutionMode};
use selfsim_trace::EventLog;

/// The environment kinds covered, each built fresh per run.
const ENVIRONMENTS: [&str; 7] = [
    "static",
    "churn",
    "markov",
    "partition",
    "crash",
    "adversary",
    "composed",
];

fn environment(kind: &str, topo: &Topology) -> Box<dyn Environment> {
    let topo = topo.clone();
    match kind {
        "static" => Box::new(StaticEnv::new(topo)),
        "churn" => Box::new(RandomChurnEnv::new(topo, 0.4, 0.9)),
        "markov" => Box::new(MarkovLinkEnv::new(topo, 0.3, 0.6)),
        "partition" => Box::new(PeriodicPartitionEnv::new(topo, 2, 4)),
        "crash" => Box::new(CrashRestartEnv::new(topo, 0.1, 0.5)),
        "adversary" => Box::new(AdversarialEnv::new(topo, 2)),
        _ => Box::new(ComposedEnv::new(
            MarkovLinkEnv::new(topo.clone(), 0.3, 0.6),
            CrashRestartEnv::new(topo, 0.1, 0.5),
        )),
    }
}

/// Runs `system()` in `mode` twice on fresh environments of `kind`: once
/// with `run`, once with `run_with`, an enabled log and a recording
/// observer.  The two reports must agree and the observer must have seen
/// ticks `1..=rounds_executed`.
fn assert_recording_is_inert(mode: ExecutionMode, seed: u64, budget: usize, kind: &str) {
    let system = system();
    let topo = Topology::ring(8);
    let expected = mode.run(&system, environment(kind, &topo).as_mut(), seed, budget);
    let mut ticks = Vec::new();
    let mut env_states = Vec::new();
    let mut states = Vec::new();
    let mut events = EventLog::enabled();
    let actual = mode.run_with(
        &system,
        environment(kind, &topo).as_mut(),
        seed,
        budget,
        &mut events,
        |round| {
            ticks.push(round.tick);
            env_states.push(round.env_state());
            states.push(round.states.clone());
        },
    );
    let context = format!(
        "{}, seed {seed}, budget {budget} under {kind}",
        mode.label()
    );
    assert_eq!(actual.metrics, expected.metrics, "metrics, {context}");
    assert_eq!(
        actual.final_state, expected.final_state,
        "final state, {context}"
    );
    let rounds = expected.metrics.rounds_executed;
    assert_eq!(
        ticks,
        (1..=rounds).collect::<Vec<_>>(),
        "observed ticks, {context}"
    );
    assert_eq!(env_states.len(), rounds, "{context}");
    assert_eq!(states.len(), rounds, "{context}");
    assert_eq!(
        events.into_events().is_empty(),
        rounds == 0,
        "every executed round emits, {context}"
    );
}

fn system() -> SelfSimilarSystem<i64> {
    minimum::system(&[9, 4, 7, 1, 5, 14, 3, 8], Topology::ring(8))
}

#[test]
fn recording_never_changes_a_round_run() {
    for seed in 0..4 {
        for cooldown in [0, 8] {
            for kind in ENVIRONMENTS {
                for mode in [
                    ExecutionMode::Sync { cooldown },
                    ExecutionMode::Event { cooldown },
                ] {
                    assert_recording_is_inert(mode, seed, 2_000, kind);
                }
            }
        }
    }
}

#[test]
fn recording_never_changes_an_async_run() {
    for seed in 0..4 {
        for rule in DeliveryRule::all() {
            let knobs = AsyncKnobs::new(0.5, 3, 0.1, rule).expect("valid knobs");
            for kind in ENVIRONMENTS {
                assert_recording_is_inert(ExecutionMode::Async(knobs), seed, 2_000, kind);
            }
        }
    }
}

#[test]
fn a_zero_budget_run_is_never_observed() {
    assert_recording_is_inert(ExecutionMode::sync(), 0, 0, "churn");
    assert_recording_is_inert(ExecutionMode::asynchronous(), 0, 0, "churn");
}
