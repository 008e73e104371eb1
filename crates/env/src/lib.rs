//! Environment models for dynamic distributed systems.
//!
//! In the model of Chandy & Charpentier (ICDCS 2007) the *environment* is an
//! adversary-controlled component whose state determines which agents may
//! change state and which sets of agents may communicate.  Designers cannot
//! choose the environment; they can only assume a set `Q` of predicates on
//! environment states, each of which holds infinitely often (`□◇Q`).
//!
//! This crate provides the executable counterpart of that model:
//!
//! * [`Topology`] — the underlying communication graph `(A, E)` whose edges
//!   define the fairness predicates `Q_e` ("edge `e` exists and is available
//!   for communication");
//! * [`EnvState`] — one environment state: the set of currently available
//!   edges and the set of currently enabled agents, together with the
//!   grouping of agents into communicating groups (connected components) it
//!   induces — the partition `π` of the paper's transition relation;
//! * [`Environment`] — a trait for environment processes that produce a new
//!   [`EnvState`] at every system step, with implementations ranging from a
//!   benign static network to random churn, Markov on/off links, periodic
//!   partitions, crash/restart of agents, and a minimally-fair adversary;
//! * [`Connectivity`] — the groups, usable edges and pairwise reachability
//!   of the current state, maintained from the environment's
//!   [`EnvDelta`] stream; every runtime and baseline reads it;
//! * [`FairnessSpec`] — the set `Q_E` of per-edge fairness predicates and a
//!   checker that a recorded environment trace satisfied `□◇Q_e` for every
//!   edge.
//!
//! # Example
//!
//! ```
//! use selfsim_env::{Connectivity, Environment, RandomChurnEnv, Topology};
//! use rand::SeedableRng;
//!
//! let topo = Topology::ring(6);
//! let mut env = RandomChurnEnv::new(topo, 0.5, 0.9);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut connectivity = Connectivity::default();
//! connectivity.advance(env.step_delta(&mut rng), env.topology());
//! // Each group is a set of agents that can run a collaborative step now.
//! for i in 0..connectivity.group_count() {
//!     assert!(!connectivity.group(i).is_empty());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod environment;
mod fairness;
mod groups;
pub mod params;
mod state;
mod topology;

pub use csr::Csr;
pub use environment::{
    AdversarialEnv, ComposedEnv, CrashRestartEnv, EnvChanges, EnvDelta, Environment, MarkovLinkEnv,
    PeriodicPartitionEnv, RandomChurnEnv, StaticEnv,
};
pub use fairness::FairnessSpec;
pub use groups::{Connectivity, GroupIndex};
pub use params::{parse_label, split_top_level, validate_probability, Params};
pub use state::EnvState;
pub use topology::{AgentId, Edge, Topology};
