//! The round loop against a dense reference.
//!
//! [`SyncSimulator`] and [`EventSimulator`] share one round loop that folds
//! environment deltas into a group index, elides randomness-free fixpoint
//! groups and caches the objective.  The oracle below is the paper's
//! transition system written out with none of that: every round it calls
//! [`Environment::step`], recomputes the partition with
//! [`EnvState::groups`], steps every group and re-evaluates the objective
//! and the convergence check.  Both simulators must produce exactly the
//! oracle's report — metrics and final state — and, when a run is
//! recorded through `run_with`, exactly the oracle's per-round
//! environment states and state multisets and its structured event
//! stream.  The event simulator must differ only in its `event/` prefix
//! and its two event columns.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use selfsim_algorithms::{minimum, sorting, sum};
use selfsim_core::{FnGroupStep, GroupStep, SelfSimilarSystem, StepScratch};
use selfsim_env::{
    AdversarialEnv, ComposedEnv, CrashRestartEnv, EnvState, Environment, MarkovLinkEnv,
    PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology,
};
use selfsim_multiset::Multiset;
use selfsim_runtime::{EventSimulator, Round, SimulationReport, SyncConfig, SyncSimulator};
use selfsim_temporal::Trace;
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

/// What a recorded run leaves behind: the environment state and the state
/// multiset after every round, and the structured event stream.
#[derive(Debug, PartialEq)]
struct Recording<S: Ord> {
    env_states: Trace<EnvState>,
    states: Vec<Multiset<S>>,
    events: Vec<TraceEvent>,
}

/// Runs a simulator through `run`, or, when `recorded`, through `run_with`
/// with an enabled event log and an observer that keeps every round's
/// environment state and multiset.
fn run_maybe_recorded<S: Ord + Clone>(
    recorded: bool,
    run: impl FnOnce() -> SimulationReport<S>,
    run_with: impl FnOnce(&mut EventLog, &mut dyn FnMut(&Round<'_, S>)) -> SimulationReport<S>,
) -> (SimulationReport<S>, Option<Recording<S>>) {
    if !recorded {
        return (run(), None);
    }
    let mut env_states = Trace::new();
    let mut states = Vec::new();
    let mut events = EventLog::enabled();
    let report = run_with(&mut events, &mut |round| {
        env_states.push(round.env_state());
        states.push(round.states.clone());
    });
    let recording = Recording {
        env_states,
        states,
        events: events.into_events(),
    };
    (report, Some(recording))
}

/// The dense reference loop: full environment states, a fresh partition and
/// every group stepped every round, the objective evaluated every round.
/// It always records.
fn oracle<S>(
    config: &SyncConfig,
    system: &SelfSimilarSystem<S>,
    environment: &mut dyn Environment,
) -> (SimulationReport<S>, Recording<S>)
where
    S: Ord + Clone + std::fmt::Debug,
{
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = system.initial_state().clone();
    let mut metrics = RunMetrics::new(system.name(), environment.name(), system.agent_count());
    let mut env_states = Trace::new();
    let mut states = Vec::new();
    let mut events = EventLog::enabled();
    let mut global = system.initial_multiset().clone();
    let mut scratch = StepScratch::new();
    metrics
        .objective_trajectory
        .push(system.objective_of(&global));
    let mut converged_at: Option<usize> = None;
    let mut cooldown_left = config.cooldown_rounds;

    for round in 1..=config.max_rounds {
        let tick = round as u64;
        let env_state = environment.step(&mut rng);
        let usable = env_state
            .enabled_edges()
            .iter()
            .filter(|edge| env_state.can_communicate(edge.lo(), edge.hi()))
            .count();
        events.emit(|| TraceEvent::EnvTransition {
            tick,
            edges: usable,
        });
        for group in env_state.groups() {
            metrics.group_steps += 1;
            metrics.messages += group.len();
            let changed = system
                .apply_group_step_with(
                    &mut state,
                    &group,
                    &mut rng,
                    &mut scratch,
                    Some(&mut global),
                )
                .multiset_changed;
            metrics.effective_group_steps += usize::from(changed);
            events.emit(|| TraceEvent::GroupStep {
                tick,
                size: group.len(),
                changed,
            });
        }
        env_states.push(env_state);
        states.push(global.clone());
        metrics.rounds_executed = round;
        metrics
            .objective_trajectory
            .push(system.objective_of(&global));

        if system.is_converged_multiset(&global) {
            if converged_at.is_none() {
                converged_at = Some(round);
                events.emit(|| TraceEvent::ConvergenceEntered { tick });
            }
            if cooldown_left == 0 {
                break;
            }
            cooldown_left -= 1;
        } else {
            if converged_at.is_some() {
                events.emit(|| TraceEvent::ConvergenceLeft { tick });
            }
            converged_at = None;
            cooldown_left = config.cooldown_rounds;
        }
    }

    metrics.rounds_to_convergence = converged_at;
    let report = SimulationReport {
        metrics,
        final_state: state,
    };
    let recording = Recording {
        env_states,
        states,
        events: events.into_events(),
    };
    (report, recording)
}

/// An environment that implements only [`Environment::step`], so the
/// simulators see the default `step_delta` fallback (every delta a full
/// state) even though the wrapped environment has an incremental one.
struct StepOnly<E>(E);

impl<E: Environment> Environment for StepOnly<E> {
    fn topology(&self) -> &Topology {
        self.0.topology()
    }

    fn step(&mut self, rng: &mut dyn rand::RngCore) -> EnvState {
        self.0.step(rng)
    }

    fn name(&self) -> &'static str {
        "step-only"
    }
}

/// The number of environments [`environment`] builds.
const ENVIRONMENTS: usize = 8;

/// Environment `which` of the seven builtin ones plus [`StepOnly`] over
/// `topo`, parameterised from the three knobs so that proptest cases sweep
/// their behaviours (always-changing, mostly-quiet, phase-switching).
fn environment(which: usize, topo: &Topology, p: f64, q: f64, k: usize) -> Box<dyn Environment> {
    let topo = topo.clone();
    match which {
        0 => Box::new(StaticEnv::new(topo)),
        1 => Box::new(RandomChurnEnv::new(topo, p, q)),
        2 => Box::new(MarkovLinkEnv::new(topo, p, q)),
        3 => Box::new(PeriodicPartitionEnv::new(topo, 1 + k % 3, 1 + k % 8)),
        4 => Box::new(CrashRestartEnv::new(topo, p / 2.0, q)),
        5 => Box::new(AdversarialEnv::new(topo, k % 4)),
        6 => Box::new(ComposedEnv::new(
            MarkovLinkEnv::new(topo.clone(), p, q),
            CrashRestartEnv::new(topo, q / 2.0, p),
        )),
        _ => Box::new(StepOnly(MarkovLinkEnv::new(topo, p, q))),
    }
}

/// Runs the oracle and both simulators, each on a fresh environment from
/// `make_env`, and asserts that all three reports agree — and, when
/// `recorded`, that the simulators' recordings equal the oracle's.
fn assert_matches_oracle<S>(
    system: &SelfSimilarSystem<S>,
    config: &SyncConfig,
    recorded: bool,
    make_env: impl Fn() -> Box<dyn Environment>,
) where
    S: Ord + Clone + std::fmt::Debug,
{
    let (expected, expected_recording) = oracle(config, system, make_env().as_mut());
    let context = format!(
        "{} under {}, {config:?}, recorded: {recorded}",
        system.name(),
        expected.metrics.environment
    );
    let check_recording = |recording: Option<Recording<S>>, context: &str| {
        if let Some(recording) = recording {
            assert_same_recording(&recording, &expected_recording, context);
        }
    };

    let simulator = SyncSimulator::new(config.clone());
    let (sync, recording) = run_maybe_recorded(
        recorded,
        || simulator.run(system, make_env().as_mut()),
        |events, observe| simulator.run_with(system, make_env().as_mut(), events, observe),
    );
    let sync_context = format!("sync: {context}");
    assert_same_report(&sync, &expected, &sync_context);
    check_recording(recording, &sync_context);

    let simulator = EventSimulator::new(config.clone());
    let (mut event, recording) = run_maybe_recorded(
        recorded,
        || simulator.run(system, make_env().as_mut()),
        |events, observe| simulator.run_with(system, make_env().as_mut(), events, observe),
    );
    let metrics = &mut event.metrics;
    assert_eq!(
        metrics.environment,
        format!("event/{}", expected.metrics.environment),
        "{context}"
    );
    metrics.environment = expected.metrics.environment.clone();
    // One environment and one boundary event per round, plus at most one
    // event per group step; the queue never held more than a round's worth.
    let rounds = metrics.rounds_executed;
    assert!(
        (2 * rounds..=2 * rounds + metrics.group_steps).contains(&metrics.events_processed),
        "event columns out of range: {context}"
    );
    assert!(
        metrics.peak_queue_depth <= metrics.group_steps + 1,
        "{context}"
    );
    assert_eq!(metrics.peak_queue_depth == 0, rounds == 0, "{context}");
    metrics.events_processed = 0;
    metrics.peak_queue_depth = 0;
    let event_context = format!("event: {context}");
    assert_same_report(&event, &expected, &event_context);
    check_recording(recording, &event_context);
}

fn assert_same_report<S>(
    actual: &SimulationReport<S>,
    expected: &SimulationReport<S>,
    context: &str,
) where
    S: Ord + Clone + std::fmt::Debug,
{
    assert_eq!(actual.metrics, expected.metrics, "metrics, {context}");
    assert_eq!(
        actual.final_state, expected.final_state,
        "final state, {context}"
    );
}

fn assert_same_recording<S>(actual: &Recording<S>, expected: &Recording<S>, context: &str)
where
    S: Ord + Clone + std::fmt::Debug,
{
    assert!(
        actual.env_states == expected.env_states,
        "env states, {context}"
    );
    assert_eq!(actual.states, expected.states, "state multisets, {context}");
    assert_eq!(actual.events, expected.events, "events, {context}");
}

fn topology(choice: u8, n: usize) -> Topology {
    match choice % 4 {
        0 => Topology::ring(n),
        1 => Topology::line(n),
        2 => Topology::complete(n),
        _ => Topology::star(n),
    }
}

/// `n` pairwise-distinct non-negative values (sorting needs them distinct).
fn values(n: usize, salt: u64) -> Vec<i64> {
    (0..n as i64)
        .map(|i| (i * 7_919 + salt as i64 * 104_729) % 1_000_003)
        .collect()
}

/// Adopt-the-minimum that also draws once per step, so a converged group is
/// a positional fixpoint that still consumes randomness and must never be
/// elided.
fn drawing_min_step() -> impl GroupStep<i64> {
    FnGroupStep::new(
        "drawing-min",
        |states: &[i64], rng: &mut dyn rand::RngCore| {
            rng.next_u64();
            let min = states.iter().copied().min().unwrap_or(0);
            vec![min; states.len()]
        },
    )
}

/// The algorithms the oracle is checked on: the minimum, the sum, the
/// sorting example (positional movement with an unchanged multiset), the
/// partial-descent minimum (draws that depend on the state) and
/// [`drawing_min_step`] (identity steps that still consume draws).
fn check_algorithm(
    algorithm: u8,
    topo: &Topology,
    salt: u64,
    config: &SyncConfig,
    recorded: bool,
    env: &dyn Fn() -> Box<dyn Environment>,
) {
    let n = topo.agent_count();
    match algorithm {
        0 => assert_matches_oracle(
            &minimum::system(&values(n, salt), topo.clone()),
            config,
            recorded,
            env,
        ),
        1 => assert_matches_oracle(
            &sum::system(&values(n, salt), Topology::complete(n)),
            config,
            recorded,
            env,
        ),
        2 => assert_matches_oracle(&sorting::system(&values(n, salt)), config, recorded, env),
        3 => assert_matches_oracle(
            &minimum::system_with_step(
                &values(n, salt),
                topo.clone(),
                minimum::partial_descent_step(),
            ),
            config,
            recorded,
            env,
        ),
        _ => assert_matches_oracle(
            &minimum::system_with_step(&values(n, salt), topo.clone(), drawing_min_step()),
            config,
            recorded,
            env,
        ),
    }
}

proptest! {
    /// The core property: for every environment, every algorithm, with and
    /// without cooldown, recorded or not, and over budgets from zero up,
    /// both simulators reproduce the dense oracle's report (and recording)
    /// exactly.
    #[test]
    fn every_environment_matches_the_dense_oracle(
        seed in 0u64..1_000,
        choice in 0u8..8,
        n in 3usize..12,
        p in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
        k in 0usize..10,
        algorithm in 0u8..5,
        cooldown in 0usize..2,
        max_rounds in 0usize..300,
        recorded in 0u8..2,
    ) {
        let topo = if algorithm == 2 { Topology::line(n) } else { topology(choice, n) };
        let config = SyncConfig {
            max_rounds,
            cooldown_rounds: cooldown * 16,
            seed,
        };
        for which in 0..ENVIRONMENTS {
            check_algorithm(
                algorithm,
                &topo,
                seed,
                &config,
                recorded == 1,
                &|| environment(which, &topo, p, q, k),
            );
        }
    }
}

fn rounds(seed: u64, cooldown_rounds: usize) -> SyncConfig {
    SyncConfig {
        max_rounds: 10_000,
        cooldown_rounds,
        seed,
    }
}

#[test]
fn static_environments_match_the_oracle() {
    for topo in [Topology::line(5), Topology::ring(9), Topology::complete(6)] {
        let system = minimum::system(&values(topo.agent_count(), 3), topo.clone());
        assert_matches_oracle(&system, &rounds(1, 0), true, || {
            Box::new(StaticEnv::new(topo.clone()))
        });
    }
}

#[test]
fn positional_movement_with_unchanged_multisets_matches_the_oracle() {
    // Sorting permutes positions while the multiset (and hence the
    // `changed` flag) stays put: the fixpoint detector must look at
    // positions, not multisets, or it would freeze a still-sorting group.
    let system = sorting::system(&[5, 3, 1, 4, 2, 6]);
    let line = Topology::line(6);
    let report = SyncSimulator::new(rounds(2, 0)).run(&system, &mut StaticEnv::new(line.clone()));
    assert!(report.converged(), "sorting converges on the static line");
    assert_matches_oracle(&system, &rounds(2, 0), true, || {
        Box::new(StaticEnv::new(line.clone()))
    });
    assert_matches_oracle(&system, &rounds(9, 0), true, || {
        Box::new(MarkovLinkEnv::new(line.clone(), 0.5, 0.3))
    });
}

#[test]
fn cooldown_rounds_match_the_oracle() {
    let complete = Topology::complete(3);
    let system = minimum::system(&[5, 2, 9], complete.clone());
    let report =
        SyncSimulator::new(rounds(4, 16)).run(&system, &mut StaticEnv::new(complete.clone()));
    assert!(report.metrics.rounds_executed > report.rounds_to_convergence().expect("converges"));
    for cooldown in [0, 10, 16] {
        assert_matches_oracle(&system, &rounds(4, cooldown), true, || {
            Box::new(StaticEnv::new(complete.clone()))
        });
    }
    // Under churn the system can leave and re-enter the target during the
    // cooldown only if the algorithm is broken; the reset path still has
    // to agree with the oracle round for round.
    let ring = Topology::ring(8);
    let system = minimum::system(&values(8, 5), ring.clone());
    assert_matches_oracle(&system, &rounds(7, 16), true, || {
        Box::new(RandomChurnEnv::new(ring.clone(), 0.4, 0.9))
    });
}

#[test]
fn traces_and_events_match_the_oracle() {
    let ring = Topology::ring(6);
    let system = minimum::system(&[6, 5, 4, 3, 2, 1], ring.clone());
    for which in 0..ENVIRONMENTS {
        assert_matches_oracle(&system, &rounds(7, 0), true, || {
            environment(which, &ring, 0.4, 0.9, 3)
        });
    }
}

#[test]
fn zero_round_budget_matches_the_oracle() {
    let line = Topology::line(4);
    let system = minimum::system(&[4, 3, 2, 1], line.clone());
    let config = SyncConfig {
        max_rounds: 0,
        ..rounds(1, 16)
    };
    assert_matches_oracle(&system, &config, true, || {
        Box::new(StaticEnv::new(line.clone()))
    });
}
