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
//! variant.  Either is a body of the runtime's one tick loop,
//! [`Driver`](selfsim_runtime::Driver), like the self-similar runtimes:
//! it reads the driver's connectivity, and the driver records convergence
//! at the first tick that has learned the aggregate, with no cooldown.
//! The message-passing variants send and settle their messages through the
//! same message layer as the self-similar async runtime
//! ([`AsyncKnobs`](selfsim_runtime::AsyncKnobs)); each keeps its own queue
//! and counts message cost in its own unit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flooding;
mod snapshot;

pub use flooding::FloodingAggregator;
pub use snapshot::SnapshotAggregator;

/// The aggregate of a converged run.
fn aggregate(values: &[i64], fold: impl FnMut(i64, i64) -> i64) -> i64 {
    values
        .iter()
        .copied()
        .reduce(fold)
        .expect("at least one agent")
}
