//! Integration tests of the paper's temporal specification and proof
//! obligations, checked on actual recorded executions of every runtime.
//!
//! Specification (4)–(5): `stable (S = f(S))` and `(S = S) ⇝ (S = f(S))`.
//! Conservation law: `□ (f(S) = f(S(0)))`.
//! Environment assumption (2): `□◇ Q_e` for every fairness edge.
//!
//! A run keeps no history; each run here records its own through the
//! observer `ExecutionMode::run_with` takes.

use self_similar::algorithms::{minimum, sorting};
use self_similar::core::{proof, SelfSimilarSystem};
use self_similar::env::{EnvState, Environment, PeriodicPartitionEnv, RandomChurnEnv, Topology};
use self_similar::multiset::Multiset;
use self_similar::runtime::{ExecutionMode, SimulationReport};
use self_similar::temporal::{Formula, Trace};
use self_similar::trace::EventLog;

/// One run of one runtime, and what its observer kept: the state multiset
/// at the start and after every round or tick, and the environment state of
/// every round or tick.
struct Recorded<S: Ord> {
    runtime: &'static str,
    report: SimulationReport<S>,
    states: Trace<Multiset<S>>,
    env_states: Trace<EnvState>,
}

/// Runs `system` on the sync, event and async runtimes, each under a fresh
/// environment from `make_env`, recording every run's history through the
/// observer.  The round runtimes run `cooldown` rounds past convergence;
/// the async runtime stops at convergence.
fn recorded_runs<S: Ord + Clone + std::fmt::Debug>(
    system: &SelfSimilarSystem<S>,
    make_env: impl Fn() -> Box<dyn Environment>,
    seed: u64,
    cooldown: usize,
) -> [Recorded<S>; 3] {
    [
        ("sync", ExecutionMode::Sync { cooldown }),
        ("event", ExecutionMode::Event { cooldown }),
        ("async", ExecutionMode::asynchronous()),
    ]
    .map(|(runtime, mode)| {
        let mut states = Trace::new();
        let mut env_states = Trace::new();
        states.push(system.initial_multiset().clone());
        let report = mode.run_with(
            system,
            make_env().as_mut(),
            seed,
            100_000,
            &mut EventLog::disabled(),
            |round| {
                states.push(round.states.clone());
                env_states.push(round.env_state());
            },
        );
        Recorded {
            runtime,
            report,
            states,
            env_states,
        }
    })
}

#[test]
fn recorded_runs_satisfy_the_ltl_specification() {
    let values = [9i64, 4, 7, 1, 5, 14, 3, 8];
    let topology = Topology::ring(values.len());
    let system = minimum::system(&values, topology.clone());
    let target = system.target();

    let runs = recorded_runs(
        &system,
        || Box::new(RandomChurnEnv::new(topology.clone(), 0.4, 0.9)),
        1,
        30,
    );
    for run in runs {
        let runtime = run.runtime;
        assert!(run.report.converged(), "{runtime}");
        let trace = &run.states;

        // (3): ◇□ (S = f(S(0))).
        let t1 = target.clone();
        let spec3 =
            Formula::eventually_always(Formula::atom("S = S*", move |s: &Multiset<i64>| *s == t1));
        assert!(spec3.holds(trace), "{runtime}: {}", spec3.check(trace));

        // (4): stable (S = f(S)) — once the target is reached it is never left.
        let t2 = target.clone();
        let spec4 = Formula::stable(move |s: &Multiset<i64>| *s == t2);
        assert!(spec4.holds(trace), "{runtime}");

        // (5): (S = S(0)) ⇝ (S = f(S(0))).
        let s0: Multiset<i64> = values.iter().copied().collect();
        let t3 = target.clone();
        let spec5 = Formula::leads_to(
            Formula::atom("S = S(0)", move |s: &Multiset<i64>| *s == s0),
            Formula::atom("S = S*", move |s: &Multiset<i64>| *s == t3),
        );
        assert!(spec5.holds(trace), "{runtime}");

        // Conservation law: □ (f(S) = f(S(0))).
        let f = minimum::function();
        let t4 = target.clone();
        let conservation = Formula::always(Formula::atom("f(S) = S*", move |s: &Multiset<i64>| {
            use self_similar::core::DistributedFunction;
            f.apply(s) == t4
        }));
        assert!(conservation.holds(trace), "{runtime}");

        // Environment assumption (2): every fairness edge recurs (with a
        // tolerance window at the tail of the finite trace).
        let tolerance = run.env_states.len() / 4;
        assert!(
            system
                .fairness()
                .trace_satisfies(&run.env_states, tolerance),
            "{runtime}"
        );
    }
}

#[test]
fn every_worked_example_passes_the_three_proof_obligations() {
    use rand::SeedableRng;

    let systems: Vec<Box<dyn Fn() -> proof::AuditReport>> = vec![
        Box::new(|| {
            let sys = minimum::system(&[3, 5, 3, 7], Topology::line(4));
            proof::audit_system(&sys, &[], 3, &mut rand::rngs::StdRng::seed_from_u64(1))
        }),
        Box::new(|| {
            let sys = self_similar::algorithms::maximum::system(&[3, 5, 3, 7], Topology::ring(4));
            proof::audit_system(&sys, &[], 3, &mut rand::rngs::StdRng::seed_from_u64(2))
        }),
        Box::new(|| {
            let sys = self_similar::algorithms::sum::system(&[3, 5, 3, 7], Topology::complete(4));
            proof::audit_system(&sys, &[], 3, &mut rand::rngs::StdRng::seed_from_u64(3))
        }),
        Box::new(|| {
            let sys =
                self_similar::algorithms::second_smallest::system(&[3, 5, 3, 7], Topology::line(4));
            proof::audit_system(&sys, &[], 3, &mut rand::rngs::StdRng::seed_from_u64(4))
        }),
        Box::new(|| {
            let sys = sorting::system(&[7, 5, 6, 4, 3, 2, 1]);
            proof::audit_system(&sys, &[], 2, &mut rand::rngs::StdRng::seed_from_u64(5))
        }),
    ];
    for (i, audit) in systems.iter().enumerate() {
        let report = audit();
        assert!(report.passed(), "system #{i}: {:?}", report.violations);
        assert!(report.checks_run > 0);
    }
}

#[test]
fn sorting_trace_invariants_hold_under_partitions() {
    let values: Vec<i64> = vec![10, 2, 8, 4, 6, 1, 9, 3];
    let system = sorting::system(&values);
    let topology = Topology::line(values.len());
    let runs = recorded_runs(
        &system,
        || Box::new(PeriodicPartitionEnv::new(topology.clone(), 2, 4)),
        8,
        0,
    );
    let relation = system.relation();
    for run in runs {
        let runtime = run.runtime;
        // The blocks merge for one tick in four and a message takes one to
        // three ticks, so under the default valid-at-delivery rule no
        // cross-block message is ever delivered and the async run stalls
        // (see the `delivery` module).  The invariants hold on every tick
        // regardless.
        assert_eq!(run.report.converged(), runtime != "async", "{runtime}");
        let states: Vec<_> = run.states.into_iter().collect();
        let audit = proof::check_trace_invariants(&relation, &states);
        assert!(audit.passed(), "{runtime}: {:?}", audit.violations);
    }
}
