//! A declarative, parallel experiment-campaign engine for self-similar
//! algorithms.
//!
//! The paper's thesis — one algorithm, any environment, any execution model
//! — is only convincing when the same algorithm is shown converging across
//! *many* adversarial environments, topologies, scales and runtimes, and
//! shown *beating the baselines* exactly where the environment fragments.
//! This crate turns that comparison into a first-class object:
//!
//! * [`CampaignAlgorithm`] / [`Registry`] — the open algorithm API: an
//!   object-safe trait every worked example of the paper implements, plus
//!   the §5 baselines (snapshot, flooding) and the circumscribing-circle
//!   counterexample (whose *non*-convergence under fragmentation is an
//!   assertable [`Expectation`]).  User algorithms register by label.
//! * [`EnvFactory`] / [`TopologyFactory`] — the open environment and
//!   topology dimensions.  [`AlgorithmRef`], [`EnvRef`] and [`TopoRef`]
//!   are the shared handles scenarios carry; each derefs to its trait;
//! * [`LabelRegistry`] — the one registry type behind all three named
//!   dimensions ([`Registry`], [`EnvRegistry`], [`TopologyRegistry`]),
//!   resolving labels through one `name(k=v,…)` grammar;
//! * [`Scenario`] / [`ScenarioGrid`] — a declarative spec of algorithm ×
//!   topology family × environment model × execution mode × size × trials,
//!   with builder and cartesian grid expansion;
//! * [`ExecutionMode`] — the runtime dimension: the same cell runs in
//!   synchronous rounds, event-driven rounds or asynchronous message
//!   passing (latency, drops), through [`ExecutionMode::run_with`] from
//!   `selfsim-runtime`;
//! * [`Campaign`] — a *streaming* runner that executes trials on a worker
//!   pool with *derived* per-trial seeds and spills each finished record
//!   (and, on request, its event trace) through an ordered reorder window
//!   in one engine, [`Campaign::stream`], so emitted bytes are identical
//!   no matter how many threads run them and memory stays `O(threads)`
//!   (records are only retained by the opt-in [`Campaign::run_collect`]);
//! * [`ShardSpec`] / [`merge_shards`] — stride sharding across processes:
//!   shard `i/k` runs every `k`-th job, and one round-robin merge, block
//!   by block, rebuilds either stream ([`StreamKind`]: record lines or
//!   trace blocks) byte-identical to an unsharded run, while
//!   [`MergeOrder`] checks the merged trial order of both — the
//!   determinism contract (same bytes for a given `(scenarios, seed)`,
//!   regardless of threads *or* shards) is the system's headline
//!   invariant;
//! * [`Aggregator`] — streaming per-scenario statistics (via
//!   [`selfsim_trace::Summary`]) that never retain per-round trajectories;
//! * [`emit`] — byte-deterministic JSON-lines and markdown emitters, used
//!   by the `campaign` CLI binary;
//! * [`ProgressThrottle`] — a lock-free rate limiter so million-trial runs
//!   don't serialize on progress output.
//!
//! # Example: self-similar vs. baseline, sync vs. async, one grid
//!
//! ```
//! use selfsim_campaign::{Campaign, EnvRegistry, ExecutionMode, Registry, ScenarioGrid,
//!                        TopologyRegistry};
//!
//! let registry = Registry::builtin();
//! let scenarios = ScenarioGrid::new()
//!     .algorithms([
//!         registry.resolve("minimum").expect("builtin label"),
//!         registry.resolve("snapshot").expect("builtin label"),
//!         registry.resolve("flooding").expect("builtin label"),
//!     ])
//!     .topologies([TopologyRegistry::builtin_ref().resolve("complete").expect("builtin label")])
//!     .envs([EnvRegistry::builtin_ref().resolve("churn(e=0.5,a=0.9)").expect("builtin label")])
//!     .modes(ExecutionMode::both())
//!     .sizes([8])
//!     .trials(3)
//!     .expand();
//! let result = Campaign::new(scenarios).seed(42).run();
//! println!("{}", selfsim_campaign::emit::markdown_summary(&result.summaries));
//! ```
//!
//! Every grid dimension is named by its label, exactly as it appears in
//! records: algorithms, environments and topologies resolve through one
//! registry type, [`LabelRegistry`], execution modes through
//! [`ExecutionMode::parse_label`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod algorithm;
pub mod cli;
mod dimension;
pub mod emit;
mod runner;
mod scenario;
mod shard;
mod trial;

pub use aggregate::{Aggregator, ScenarioSummary};
pub use algorithm::{
    run_system, AlgorithmRef, CampaignAlgorithm, Expectation, Registry, TrialSetup,
};
pub use dimension::{
    EnvFactory, EnvRef, EnvRegistry, LabelRegistry, RegistryEntry, TopoRef, TopologyFactory,
    TopologyRegistry,
};
pub use runner::{Campaign, CampaignConfig, CampaignResult, CollectedResult, ProgressThrottle};
pub use scenario::{distribute_trials, grid_dims, Scenario, ScenarioBuilder, ScenarioGrid};
pub use selfsim_env::{parse_label, split_top_level, Params};
pub use selfsim_runtime::{AsyncKnobs, DeliveryRule, ExecutionMode};
pub use shard::{merge_shards, MergeOrder, ShardSpec, StreamKind};
pub use trial::{run_trial, TrialRecord};
