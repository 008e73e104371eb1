//! Umbrella crate for the reproduction of *Self-Similar Algorithms for
//! Dynamic Distributed Systems* (K. M. Chandy & M. Charpentier, ICDCS 2007).
//!
//! This crate simply re-exports the workspace members under stable names so
//! that examples, integration tests and downstream users can depend on a
//! single crate:
//!
//! * [`core`] — the methodology: distributed functions, super-idempotence,
//!   variant functions, the relation `D`, proof obligations;
//! * [`algorithms`] — the paper's worked examples (§4) and extensions;
//! * [`env`](mod@env) — environments: topologies, churn, partitions, fairness `Q`;
//! * [`runtime`] — `ExecutionMode`: synchronous, event-driven and asynchronous runs;
//! * [`baselines`] — snapshot and flooding baselines (§5 comparison);
//! * [`multiset`], [`geometry`], [`temporal`], [`trace`] — substrates.
//!
//! # Quickstart
//!
//! ```
//! use self_similar::algorithms::minimum;
//! use self_similar::env::{RandomChurnEnv, Topology};
//! use self_similar::runtime::ExecutionMode;
//!
//! let topology = Topology::ring(8);
//! let system = minimum::system(&[9, 4, 7, 1, 5, 14, 3, 8], topology.clone());
//! let mut environment = RandomChurnEnv::new(topology, 0.5, 0.9);
//! // Seed 42, at most 10 000 rounds.
//! let report = ExecutionMode::sync().run(&system, &mut environment, 42, 10_000);
//! assert!(report.converged());
//! assert_eq!(report.final_state, vec![1; 8]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use selfsim_algorithms as algorithms;
pub use selfsim_baselines as baselines;
pub use selfsim_core as core;
pub use selfsim_env as env;
pub use selfsim_geometry as geometry;
pub use selfsim_multiset as multiset;
pub use selfsim_runtime as runtime;
pub use selfsim_temporal as temporal;
pub use selfsim_trace as trace;
