//! Declarative scenario specifications and grid expansion.
//!
//! A [`Scenario`] names one *cell* of an experiment campaign: an algorithm
//! (an [`AlgorithmRef`] from the registry), a topology family (a
//! [`TopoRef`]), an environment model (an [`EnvRef`]), an execution mode, a
//! system size and a number of trials.  Scenarios are cheap shareable data
//! — building the actual algorithm instance and
//! [`Environment`](selfsim_env::Environment) happens per trial in the
//! runner, so scenarios can be freely sent across threads and expanded into
//! grids.
//!
//! Every grid dimension is named one way: algorithms, environments and
//! topologies by label against their registries
//! ([`Registry`](crate::Registry), [`EnvRegistry`](crate::EnvRegistry),
//! [`TopologyRegistry`](crate::TopologyRegistry)), execution modes by
//! [`ExecutionMode::parse_label`].

use selfsim_runtime::ExecutionMode;

use crate::algorithm::AlgorithmRef;
use crate::dimension::{EnvRef, RingTopology, StaticEnvFactory, TopoRef};

/// Distributes a total trial budget *exactly* over expanded scenarios:
/// every cell gets `total / cells` trials and the first `total % cells`
/// cells one more, so the campaign runs precisely `total` trials (no
/// `div_ceil` overshoot).  Returns `(base, extra)` for reporting.
///
/// Both the `campaign` CLI and the `bench_campaign` regression gate use
/// this one split, so the benched workload is the shipped workload.
///
/// **When `total < cells` the trailing cells get zero trials** and will be
/// absent from records and summaries — callers should surface that to
/// their users the way the CLI does (it prints a warning naming how many
/// cells run empty).  `base == 0` on return is the signal:
///
/// ```
/// use selfsim_campaign::{distribute_trials, Registry, Scenario};
///
/// let minimum = Registry::builtin().resolve("minimum").expect("builtin label");
/// let mut cells: Vec<Scenario> = (0..4)
///     .map(|i| Scenario::builder(minimum.clone()).agents(4 + 2 * i).build())
///     .collect();
/// // 10 trials over 4 cells: 2 each, the first two get one more.
/// assert_eq!(distribute_trials(&mut cells, 10), (2, 2));
/// assert_eq!(cells.iter().map(|s| s.trials).collect::<Vec<_>>(), [3, 3, 2, 2]);
/// // Fewer trials than cells: base == 0 — the last cell runs nothing.
/// assert_eq!(distribute_trials(&mut cells, 3), (0, 3));
/// assert_eq!(cells[3].trials, 0);
/// ```
///
/// # Panics
///
/// Panics if `scenarios` is empty (there is nothing to distribute over).
pub fn distribute_trials(scenarios: &mut [Scenario], total: u64) -> (u64, u64) {
    let cells = scenarios.len() as u64;
    assert!(cells > 0, "cannot distribute trials over an empty grid");
    let (base, extra) = (total / cells, total % cells);
    for (i, scenario) in scenarios.iter_mut().enumerate() {
        scenario.trials = base + u64::from((i as u64) < extra);
    }
    (base, extra)
}

/// Splits `n` into the most-square `rows × cols` factorisation (`rows ≤
/// cols`, `rows * cols == n`).
///
/// **Primes degenerate to a line**: a prime `n` has no divisor between 1
/// and itself, so the `grid` topology family silently becomes the path
/// graph — sweeps comparing `grid` against `line` should pick composite
/// sizes, or the two families' cells coincide:
///
/// ```
/// use selfsim_campaign::grid_dims;
///
/// assert_eq!(grid_dims(12), (3, 4));
/// assert_eq!(grid_dims(16), (4, 4));
/// assert_eq!(grid_dims(13), (1, 13)); // prime → line
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn grid_dims(n: usize) -> (usize, usize) {
    assert!(n > 0, "need at least one agent");
    let mut rows = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            rows = d;
        }
        d += 1;
    }
    (rows, n / rows)
}

/// One cell of a campaign: every field needed to reproduce its trials.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The algorithm to run.
    pub algorithm: AlgorithmRef,
    /// The communication-graph family.
    pub topology: TopoRef,
    /// The adversary model.
    pub env: EnvRef,
    /// Which runtime executes the cell's trials.
    pub mode: ExecutionMode,
    /// Number of agents.
    pub n: usize,
    /// Number of independent trials (distinct derived seeds).
    pub trials: u64,
    /// Round (sync) or tick (async) budget per trial.
    pub max_rounds: usize,
}

impl Scenario {
    /// Starts a builder with the given algorithm, on the ring topology in
    /// the static environment unless the algorithm forces its topology.
    pub fn builder(algorithm: AlgorithmRef) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                topology: algorithm
                    .forced_topology()
                    .unwrap_or_else(|| TopoRef::new(RingTopology)),
                algorithm,
                env: EnvRef::new(StaticEnvFactory),
                mode: ExecutionMode::sync(),
                n: 16,
                trials: 10,
                max_rounds: 200_000,
            },
        }
    }

    /// The stable, human-readable identity of this cell; used as the
    /// grouping key by the aggregator and in every emitted record.  Each
    /// segment round-trips through its registry or parser, so the name (or
    /// any column of a JSONL record) identifies the cell exactly.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/{}/n={}/{}",
            self.algorithm.label(),
            self.topology.label(),
            self.env.label(),
            self.n,
            self.mode.label(),
        )
    }

    /// The name used for per-trial seed derivation: [`Scenario::name`] with
    /// the mode segment replaced by
    /// [`ExecutionMode::seed_label`](selfsim_runtime::ExecutionMode::seed_label).
    /// For sync and async cells this *is* the cell name (their seeds are
    /// anchored to themselves, so every historical record is unchanged);
    /// event cells share the seed stream of the matching-cooldown sync
    /// cell, which is what lets CI compare their records byte for byte.
    pub fn seed_name(&self) -> String {
        format!(
            "{}/{}/{}/n={}/{}",
            self.algorithm.label(),
            self.topology.label(),
            self.env.label(),
            self.n,
            self.mode.seed_label(),
        )
    }

    /// `true` when this cell's execution can take a collaborative group
    /// step on a *proper* subset of the agents: a fragmenting environment
    /// or the pairwise asynchronous mode.  At `n = 2` nothing ever
    /// fragments — singleton groups are no-ops and any pair step is a
    /// whole-system step — so two-agent cells never count as fragmenting.
    pub fn fragmenting(&self) -> bool {
        self.n > 2 && (self.mode.is_async() || self.env.can_fragment())
    }
}

/// Fluent construction of a single [`Scenario`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Sets the topology family (ignored — forced — for sum and sorting).
    pub fn topology(mut self, family: TopoRef) -> Self {
        self.scenario.topology = self.scenario.algorithm.forced_topology().unwrap_or(family);
        self
    }

    /// Sets the environment model.
    pub fn env(mut self, model: EnvRef) -> Self {
        self.scenario.env = model;
        self
    }

    /// Sets the execution mode.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.scenario.mode = mode;
        self
    }

    /// Sets the number of agents.
    pub fn agents(mut self, n: usize) -> Self {
        assert!(n >= 2, "campaign scenarios need at least two agents");
        self.scenario.n = n;
        self
    }

    /// Sets the number of trials.
    pub fn trials(mut self, trials: u64) -> Self {
        self.scenario.trials = trials;
        self
    }

    /// Sets the per-trial round budget.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.scenario.max_rounds = max_rounds;
        self
    }

    /// Finishes the scenario.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

/// Cartesian-product expansion of scenario dimensions — the "sweep" half of
/// the declarative API.
///
/// Algorithms with a forced topology (sorting, sum) contribute one scenario
/// per environment/size instead of one per topology, so the grid never
/// contains unsatisfiable cells.  The execution-mode dimension defaults to
/// `[sync]` when unset, so pre-mode callers are unaffected.
#[derive(Clone, Debug)]
pub struct ScenarioGrid {
    algorithms: Vec<AlgorithmRef>,
    topologies: Vec<TopoRef>,
    envs: Vec<EnvRef>,
    modes: Vec<ExecutionMode>,
    sizes: Vec<usize>,
    trials: u64,
    max_rounds: usize,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        ScenarioGrid::new()
    }
}

impl ScenarioGrid {
    /// An empty grid with 10 trials and a 200k-round budget per cell.
    pub fn new() -> Self {
        ScenarioGrid {
            algorithms: Vec::new(),
            topologies: Vec::new(),
            envs: Vec::new(),
            modes: Vec::new(),
            sizes: Vec::new(),
            trials: 10,
            max_rounds: 200_000,
        }
    }

    /// Adds algorithms to the sweep.
    pub fn algorithms(mut self, algorithms: impl IntoIterator<Item = AlgorithmRef>) -> Self {
        self.algorithms.extend(algorithms);
        self
    }

    /// Adds topology families to the sweep.
    pub fn topologies(mut self, topologies: impl IntoIterator<Item = TopoRef>) -> Self {
        self.topologies.extend(topologies);
        self
    }

    /// Adds environment models to the sweep.
    pub fn envs(mut self, envs: impl IntoIterator<Item = EnvRef>) -> Self {
        self.envs.extend(envs);
        self
    }

    /// Adds execution modes to the sweep (defaults to synchronous-only when
    /// never called).
    pub fn modes(mut self, modes: impl IntoIterator<Item = ExecutionMode>) -> Self {
        self.modes.extend(modes);
        self
    }

    /// Adds system sizes to the sweep.
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = usize>) -> Self {
        self.sizes.extend(sizes);
        self
    }

    /// Sets trials per cell.
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the per-trial round budget.
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Expands the grid into concrete scenarios (deduplicated by name, in
    /// deterministic algorithm-major order).
    ///
    /// # Panics
    ///
    /// Panics if any size is below two agents — the same invariant
    /// [`ScenarioBuilder::agents`] enforces (a "campaign" over zero or one
    /// agent would report meaningless instant convergence).
    pub fn expand(&self) -> Vec<Scenario> {
        if let Some(&n) = self.sizes.iter().find(|&&n| n < 2) {
            panic!("campaign scenarios need at least two agents, got size {n}");
        }
        let modes: Vec<ExecutionMode> = if self.modes.is_empty() {
            vec![ExecutionMode::sync()]
        } else {
            self.modes.clone()
        };
        let mut out: Vec<Scenario> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for algorithm in &self.algorithms {
            let topologies: Vec<TopoRef> = match algorithm.forced_topology() {
                Some(forced) => vec![forced],
                None => self.topologies.clone(),
            };
            for topology in &topologies {
                for env in &self.envs {
                    for &n in &self.sizes {
                        // Modes innermost: a cell and its cross-runtime
                        // sibling sit next to each other in the output.
                        for &mode in &modes {
                            let scenario = Scenario {
                                algorithm: algorithm.clone(),
                                topology: topology.clone(),
                                env: env.clone(),
                                mode,
                                n,
                                trials: self.trials,
                                max_rounds: self.max_rounds,
                            };
                            if seen.insert(scenario.name()) {
                                out.push(scenario);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::test_labels::{algorithm, env, topology};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distribute_trials_is_exact() {
        let mut scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                Scenario::builder(algorithm("minimum"))
                    .agents(4 + 2 * i)
                    .build()
            })
            .collect();
        let (base, extra) = distribute_trials(&mut scenarios, 100);
        assert_eq!((base, extra), (16, 4));
        let per_cell: Vec<u64> = scenarios.iter().map(|s| s.trials).collect();
        assert_eq!(per_cell, vec![17, 17, 17, 17, 16, 16]);
        assert_eq!(per_cell.iter().sum::<u64>(), 100);
        // Fewer trials than cells: trailing cells get zero.
        let (base, extra) = distribute_trials(&mut scenarios, 4);
        assert_eq!((base, extra), (0, 4));
        assert_eq!(scenarios.iter().map(|s| s.trials).sum::<u64>(), 4);
        assert_eq!(scenarios[5].trials, 0);
    }

    #[test]
    fn grid_dims_factorises() {
        assert_eq!(grid_dims(12), (3, 4));
        assert_eq!(grid_dims(16), (4, 4));
        assert_eq!(grid_dims(7), (1, 7)); // prime → line
        assert_eq!(grid_dims(1), (1, 1));
        // Larger primes degenerate to a line too — the documented caveat
        // for grid-vs-line sweeps.
        assert_eq!(grid_dims(31), (1, 31));
    }

    #[test]
    fn topology_families_have_right_size() {
        let mut rng = StdRng::seed_from_u64(1);
        for label in ["ring", "line", "grid", "complete", "star", "random(p=0.4)"] {
            let topo = topology(label).build(12, &mut rng);
            assert_eq!(topo.agent_count(), 12, "{label}");
            assert!(topo.is_connected(), "{label}");
        }
    }

    #[test]
    fn random_topology_is_seed_deterministic() {
        let family = topology("random(p=0.3)");
        let a = family.build(10, &mut StdRng::seed_from_u64(9));
        let b = family.build(10, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_names_are_stable_keys() {
        let s = Scenario::builder(algorithm("minimum"))
            .topology(topology("ring"))
            .env(env("churn(e=0.5,a=0.9)"))
            .agents(8)
            .build();
        assert_eq!(s.name(), "minimum/ring/churn(e=0.5,a=0.9)/n=8/sync");
        let a = Scenario::builder(algorithm("minimum"))
            .mode(ExecutionMode::asynchronous())
            .build();
        assert!(a.name().ends_with("/async"));
    }

    #[test]
    fn registry_refs_build_scenarios_like_shim_variants() {
        // The builder's default dimensions are factory values built
        // directly; the registry labels must name the same cells.
        assert_eq!(topology("ring"), TopoRef::new(RingTopology));
        assert_eq!(env("static"), EnvRef::new(StaticEnvFactory));
        let via_registry = Scenario::builder(algorithm("minimum"))
            .topology(topology("ring"))
            .env(env("static"))
            .agents(8)
            .build();
        let via_factory = Scenario::builder(algorithm("minimum"))
            .topology(TopoRef::new(RingTopology))
            .env(EnvRef::new(StaticEnvFactory))
            .agents(8)
            .build();
        assert_eq!(via_registry.name(), via_factory.name());
        assert_eq!(via_registry.fragmenting(), via_factory.fragmenting());
    }

    #[test]
    fn can_fragment_is_parameter_aware() {
        for (label, fragments) in [
            ("static", false),
            // Dynamic in name only: every edge and agent up every round.
            ("churn(e=1,a=1)", false),
            ("churn(e=0.5,a=1)", true),
            ("markov(up=0.5,down=0)", false),
            ("partition(b=1,t=4)", false),
            ("crash(c=0,r=1)", false),
            ("adversary(s=0)", true),
            ("churn+crash(e=1,c=0,r=1)", false),
            ("churn+crash(e=1,c=0.1,r=1)", true),
        ] {
            assert_eq!(env(label).can_fragment(), fragments, "{label}");
        }
    }

    #[test]
    fn fragmenting_tracks_env_and_mode() {
        let sync_static = Scenario::builder(algorithm("minimum")).build();
        assert!(!sync_static.fragmenting());
        let async_static = Scenario::builder(algorithm("minimum"))
            .mode(ExecutionMode::asynchronous())
            .build();
        assert!(async_static.fragmenting());
        let sync_churn = Scenario::builder(algorithm("minimum"))
            .env(env("churn(e=0.5,a=0.9)"))
            .build();
        assert!(sync_churn.fragmenting());
        // Two agents can never take a proper-subgroup step: singleton
        // groups idle and a pair step is the whole system.
        let two_async = Scenario::builder(algorithm("minimum"))
            .mode(ExecutionMode::asynchronous())
            .env(env("churn(e=0.5,a=0.9)"))
            .agents(2)
            .build();
        assert!(!two_async.fragmenting());
    }

    #[test]
    fn registry_labels_build_scenarios_like_shim_variants() {
        // Every algorithm label names a cell under the builder defaults.
        for label in crate::Registry::builtin_ref().labels() {
            let scenario = Scenario::builder(algorithm(&label)).build();
            assert_eq!(scenario.algorithm.label(), label);
            assert!(scenario.name().ends_with("/static/n=16/sync"), "{label}");
        }
        // Baselines are ordinary grid citizens.
        let snapshot = Scenario::builder(algorithm("snapshot")).build();
        assert_eq!(snapshot.name(), "snapshot/ring/static/n=16/sync");
    }

    #[test]
    fn grid_mode_dimension_multiplies_cells_and_defaults_to_sync() {
        let base = ScenarioGrid::new()
            .algorithms([algorithm("minimum")])
            .topologies([topology("ring")])
            .envs([env("static")])
            .sizes([8]);
        let sync_only = base.clone().expand();
        assert_eq!(sync_only.len(), 1);
        assert_eq!(sync_only[0].mode, ExecutionMode::sync());
        let both = base.modes(ExecutionMode::both()).expand();
        assert_eq!(both.len(), 2);
        assert!(both[0].name().ends_with("/sync"));
        assert!(both[1].name().ends_with("/async"));
    }

    #[test]
    fn sorting_topology_is_forced_to_line() {
        let s = Scenario::builder(algorithm("sorting"))
            .topology(topology("complete"))
            .build();
        assert_eq!(s.topology.label(), "line");
    }

    #[test]
    fn grid_expansion_covers_product_and_dedups_sorting() {
        let scenarios = ScenarioGrid::new()
            .algorithms([algorithm("minimum"), algorithm("sorting")])
            .topologies([topology("ring"), topology("complete")])
            .envs([env("static"), env("adversary(s=1)")])
            .sizes([8, 12])
            .expand();
        // minimum: 2 topologies × 2 envs × 2 sizes = 8; sorting: line only
        // × 2 envs × 2 sizes = 4.
        assert_eq!(scenarios.len(), 12);
        let names: std::collections::BTreeSet<String> =
            scenarios.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 12, "names are unique");
    }

    #[test]
    fn grid_mixes_shim_variants_and_registry_refs() {
        let scenarios = ScenarioGrid::new()
            .algorithms([algorithm("minimum")])
            .topologies([TopoRef::new(RingTopology), topology("random(p=0.15)")])
            .envs([EnvRef::new(StaticEnvFactory), env("churn(e=0.3,a=0.8)")])
            .sizes([8])
            .expand();
        assert_eq!(scenarios.len(), 4);
        assert!(scenarios
            .iter()
            .any(|s| s.name() == "minimum/random(p=0.15)/churn(e=0.3,a=0.8)/n=8/sync"));
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn grid_expansion_rejects_degenerate_sizes() {
        let _ = ScenarioGrid::new()
            .algorithms([algorithm("minimum")])
            .topologies([topology("ring")])
            .envs([env("static")])
            .sizes([8, 1])
            .expand();
    }

    #[test]
    fn labels_parse_back() {
        let algorithms = crate::Registry::builtin_ref();
        for label in algorithms.labels() {
            let resolved = algorithms.resolve(&label).expect("builtin label");
            assert_eq!(resolved.label(), label);
        }
        assert_eq!(topology("grid").label(), "grid");
        assert_eq!(env("churn").label(), "churn(e=0.5,a=0.9)");
        assert!(crate::EnvRegistry::builtin_ref()
            .resolve("nonsense")
            .is_err());
    }

    #[test]
    fn shim_parse_defaults_match_registry_defaults() {
        // A bare family label takes the factory's default parameters; the
        // label it reports spells those defaults out and must name the
        // same cell.
        let envs = crate::EnvRegistry::builtin_ref();
        for family in envs.families() {
            let bare = env(&family);
            assert_eq!(env(&bare.label()), bare, "{family}");
        }
        let topologies = crate::TopologyRegistry::builtin_ref();
        for family in topologies.families() {
            let bare = topology(&family);
            assert_eq!(topology(&bare.label()), bare, "{family}");
        }
    }

    // Out-of-range parameters fail at label resolution with the parameter
    // named, not mid-campaign on a worker thread.

    #[test]
    #[should_panic(expected = "parameter `e` must be a probability")]
    fn shim_resolve_rejects_out_of_range_probabilities_at_construction() {
        let _ = env("churn(e=1.7,a=0.5)");
    }

    #[test]
    #[should_panic(expected = "parameter `b` must be at least 1")]
    fn shim_resolve_rejects_zero_partition_blocks() {
        let _ = env("partition(b=0,t=8)");
    }

    #[test]
    #[should_panic(expected = "parameter `p` must be a probability")]
    fn shim_resolve_rejects_out_of_range_random_topology() {
        let _ = topology("random(p=-0.5)");
    }
}

/// Builtin labels resolved for unit tests across the crate.
#[cfg(test)]
pub(crate) mod test_labels {
    use crate::{AlgorithmRef, EnvRef, EnvRegistry, Registry, TopoRef, TopologyRegistry};

    pub(crate) fn algorithm(label: &str) -> AlgorithmRef {
        Registry::builtin_ref()
            .resolve(label)
            .expect("builtin label")
    }

    pub(crate) fn topology(label: &str) -> TopoRef {
        TopologyRegistry::builtin_ref()
            .resolve(label)
            .expect("builtin label")
    }

    pub(crate) fn env(label: &str) -> EnvRef {
        EnvRegistry::builtin_ref()
            .resolve(label)
            .expect("builtin label")
    }
}
