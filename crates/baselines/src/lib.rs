//! Baseline aggregation strategies the paper contrasts with (§5): repeated
//! global snapshots and flooding.
//!
//! The paper's related-work section argues that classical approaches —
//! "repeated global snapshots or group communication protocols" — work well
//! in static systems but are inefficient in dynamic ones, because they need
//! the *whole* system (or at least a coordinator-to-everyone path) to be up
//! at once, whereas a self-similar algorithm makes progress inside whatever
//! fragments the environment happens to connect.  These baselines make that
//! comparison quantitative (experiment E7):
//!
//! * [`SnapshotAggregator`] — a fixed coordinator repeatedly tries to read
//!   every agent's value; a round succeeds only when the coordinator can
//!   reach all agents in that round's environment state.
//! * [`FloodingAggregator`] — every agent re-broadcasts everything it knows
//!   to its currently-reachable neighbours; an agent terminates when it has
//!   heard from everyone.
//!
//! Both compute the same aggregate (parameterised by a fold function) so the
//! results can be cross-checked against the self-similar systems.  Each has
//! one entry point, `run`, that takes an
//! [`ExecutionMode`](selfsim_runtime::ExecutionMode): `Sync` and
//! `Event` run the round-based protocol, `Async` its message-passing
//! variant.  Every tick of either advances the environment by one
//! [`Environment::step_delta`] and folds it into a [`Connectivity`] — the
//! same fold the self-similar runtimes use — from which the baselines read
//! groups, usable edges and pairwise reachability.  The message-passing
//! variants send and settle their messages through the same message layer
//! as the self-similar async runtime
//! ([`AsyncKnobs`](selfsim_runtime::AsyncKnobs)); each keeps its own queue
//! and counts message cost in its own unit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flooding;
mod snapshot;

pub use flooding::FloodingAggregator;
pub use snapshot::SnapshotAggregator;

use rand::rngs::StdRng;
use rand::SeedableRng;

use selfsim_env::{Connectivity, Environment, Topology};
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

/// What one tick of a baseline loop sees.
struct Tick<'a> {
    /// Zero-based tick (round) number.
    tick: usize,
    rng: &'a mut StdRng,
    connectivity: &'a Connectivity,
    topology: &'a Topology,
    metrics: &'a mut RunMetrics,
    events: &'a mut EventLog,
}

/// The loop both baselines share: each of at most `max_rounds` ticks
/// advances `environment` by one delta, folds it into one
/// [`Connectivity`], emits the `env-transition` event and runs `body`.
/// The first tick whose body returns `true` has learned the aggregate: the
/// loop records convergence and stops, returning `true`.
fn drive<E: Environment + ?Sized>(
    environment: &mut E,
    seed: u64,
    max_rounds: usize,
    metrics: &mut RunMetrics,
    events: &mut EventLog,
    mut body: impl FnMut(Tick<'_>) -> bool,
) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut connectivity = Connectivity::default();
    for tick in 0..max_rounds {
        let delta = environment.step_delta(&mut rng);
        let topology = environment.topology();
        connectivity.advance(delta, topology);
        metrics.rounds_executed = tick + 1;
        events.emit(|| TraceEvent::EnvTransition {
            tick: (tick + 1) as u64,
            edges: connectivity.usable_edge_count(topology),
        });
        let done = body(Tick {
            tick,
            rng: &mut rng,
            connectivity: &connectivity,
            topology,
            metrics,
            events,
        });
        if done {
            metrics.rounds_to_convergence = Some(tick + 1);
            events.emit(|| TraceEvent::ConvergenceEntered {
                tick: (tick + 1) as u64,
            });
            return true;
        }
    }
    false
}

/// The aggregate of a converged run.
fn aggregate(values: &[i64], fold: impl FnMut(i64, i64) -> i64) -> i64 {
    values
        .iter()
        .copied()
        .reduce(fold)
        .expect("at least one agent")
}
