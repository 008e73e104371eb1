//! Recording reads a run; it never changes one.
//!
//! Every simulator's `run` is its `run_with` with a disabled event log and
//! an observer that does nothing.  Here each one also runs with an enabled
//! log and an observer that materialises every round's environment state
//! and clones its multiset, over seeded builtin environments (and every
//! delivery rule for the message-passing runtime).  Both runs must report
//! the same metrics and final state, and the observer must see each
//! executed round exactly once, in order.

use selfsim_algorithms::minimum;
use selfsim_core::SelfSimilarSystem;
use selfsim_env::{
    AdversarialEnv, ComposedEnv, CrashRestartEnv, Environment, MarkovLinkEnv, PeriodicPartitionEnv,
    RandomChurnEnv, StaticEnv, Topology,
};
use selfsim_runtime::{
    AsyncConfig, AsyncKnobs, AsyncSimulator, DeliveryRule, EventSimulator, Round, SimulationReport,
    SyncConfig, SyncSimulator,
};
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

/// Runs `run` twice on fresh environments of `kind`: once as `plain`, once
/// through `recorded` with an enabled log and a recording observer.  The
/// two reports must agree and the observer must have seen ticks
/// `1..=rounds_executed`.
fn assert_recording_is_inert(
    context: &str,
    kind: &str,
    topo: &Topology,
    plain: impl Fn(&mut dyn Environment) -> SimulationReport<i64>,
    recorded: impl Fn(
        &mut dyn Environment,
        &mut EventLog,
        &mut dyn FnMut(&Round<'_, i64>),
    ) -> SimulationReport<i64>,
) {
    let expected = plain(environment(kind, topo).as_mut());
    let mut ticks = Vec::new();
    let mut env_states = Vec::new();
    let mut states = Vec::new();
    let mut events = EventLog::enabled();
    let actual = recorded(
        environment(kind, topo).as_mut(),
        &mut events,
        &mut |round| {
            ticks.push(round.tick);
            env_states.push(round.env_state());
            states.push(round.states.clone());
        },
    );
    let context = format!("{context} under {kind}");
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
    let system = system();
    let topo = Topology::ring(8);
    for seed in 0..4 {
        for cooldown_rounds in [0, 8] {
            let config = SyncConfig {
                max_rounds: 2_000,
                cooldown_rounds,
                seed,
            };
            for kind in ENVIRONMENTS {
                let sync = SyncSimulator::new(config.clone());
                assert_recording_is_inert(
                    &format!("sync, seed {seed}, cooldown {cooldown_rounds}"),
                    kind,
                    &topo,
                    |env| sync.run(&system, env),
                    |env, events, observe| sync.run_with(&system, env, events, observe),
                );
                let event = EventSimulator::new(config.clone());
                assert_recording_is_inert(
                    &format!("event, seed {seed}, cooldown {cooldown_rounds}"),
                    kind,
                    &topo,
                    |env| event.run(&system, env),
                    |env, events, observe| event.run_with(&system, env, events, observe),
                );
            }
        }
    }
}

#[test]
fn recording_never_changes_an_async_run() {
    let system = system();
    let topo = Topology::ring(8);
    for seed in 0..4 {
        for rule in DeliveryRule::all() {
            let simulator = AsyncSimulator::new(AsyncConfig {
                max_ticks: 2_000,
                knobs: AsyncKnobs::new(0.5, 3, 0.1, rule).expect("valid knobs"),
                seed,
            });
            for kind in ENVIRONMENTS {
                assert_recording_is_inert(
                    &format!("async, seed {seed}, {}", rule.label()),
                    kind,
                    &topo,
                    |env| simulator.run(&system, env),
                    |env, events, observe| simulator.run_with(&system, env, events, observe),
                );
            }
        }
    }
}

#[test]
fn a_zero_budget_run_is_never_observed() {
    let system = system();
    let topo = Topology::ring(8);
    let sync = SyncSimulator::new(SyncConfig {
        max_rounds: 0,
        ..SyncConfig::default()
    });
    assert_recording_is_inert(
        "sync, zero budget",
        "churn",
        &topo,
        |env| sync.run(&system, env),
        |env, events, observe| sync.run_with(&system, env, events, observe),
    );
    let simulator = AsyncSimulator::new(AsyncConfig {
        max_ticks: 0,
        ..AsyncConfig::default()
    });
    assert_recording_is_inert(
        "async, zero budget",
        "churn",
        &topo,
        |env| simulator.run(&system, env),
        |env, events, observe| simulator.run_with(&system, env, events, observe),
    );
}
