//! The open algorithm API: an object-safe trait, a label registry, and the
//! builtin adapters.
//!
//! A [`CampaignAlgorithm`] is everything a campaign needs to run one trial
//! of one algorithm: a stable label, an optional forced topology, an
//! [`Expectation`] (the paper's counterexamples make *non*-convergence an
//! assertable outcome), and a `run` method that builds a fresh instance from
//! the trial's topology/RNG and executes it on the scenario's
//! [`ExecutionMode`].  Because the trait hides the per-algorithm state type
//! (and whether there is a [`SelfSimilarSystem`] at all), the paper's §5
//! baselines — snapshot and flooding — plug into the same grid as the
//! self-similar algorithms, which is exactly the comparison the paper
//! claims: one self-similar design everywhere, versus centralised protocols
//! that stall wherever the environment fragments.
//!
//! The [`Registry`] maps labels to shared algorithm factories.  It ships
//! with every worked example of the paper plus the baselines
//! ([`Registry::builtin`]), and accepts user-defined algorithms through
//! [`Registry::register`].

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use selfsim_algorithms::circumscribing;
use selfsim_baselines::{FloodingAggregator, SnapshotAggregator};
use selfsim_core::{FnGroupStep, SelfSimilarSystem, SummationObjective};
use selfsim_env::{Environment, FairnessSpec, Topology};
use selfsim_geometry::{enclosing_circle_of_circles, Circle, Point};
use selfsim_runtime::{DeliveryRule, ExecutionMode};
use selfsim_trace::{EventLog, RunMetrics, TraceEvent};

use crate::dimension::{CompleteTopology, LineTopology, TopoRef};

/// The assertable outcome an algorithm claims for its trials.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Must reach (and hold) the target under any fair environment — the
    /// paper's guarantee for a correctly-designed self-similar algorithm.
    Converge,
    /// The known counterexamples (a non-super-idempotent `f`): fragmented
    /// group steps overshoot the target irrecoverably, so the run must
    /// *not* converge whenever the execution fragments groups — and still
    /// converges when it does not (static environment, global rounds).
    DivergeUnderFragmentation,
}

impl Expectation {
    /// Short stable label used in records and reports.
    pub fn label(&self) -> &str {
        match self {
            Expectation::Converge => "converge",
            Expectation::DivergeUnderFragmentation => "diverge-under-fragmentation",
        }
    }

    /// Whether an observed trial outcome matches this expectation.
    /// `fragmenting` is true when the cell's execution can split agents
    /// into proper subgroups (any dynamic environment, or the pairwise
    /// asynchronous mode).
    pub fn met(&self, converged: bool, fragmenting: bool) -> bool {
        match self {
            Expectation::Converge => converged,
            Expectation::DivergeUnderFragmentation => {
                if fragmenting {
                    !converged
                } else {
                    converged
                }
            }
        }
    }
}

/// Everything a trial hands an algorithm so it can build and run one fresh
/// instance: the materialised topology, the execution mode, the per-trial
/// budget and seed, and the setup RNG that initial values are drawn from.
pub struct TrialSetup<'a> {
    /// Number of agents.
    pub n: usize,
    /// The communication graph this trial runs over.
    pub topology: Topology,
    /// Which runtime executes the trial.
    pub mode: ExecutionMode,
    /// Round (sync) or tick (async) budget.
    pub max_rounds: usize,
    /// The derived per-trial seed driving all simulator randomness.
    pub seed: u64,
    /// Setup randomness (initial values); already past the topology draws,
    /// so algorithms see the same stream regardless of topology family.
    pub rng: &'a mut StdRng,
    /// When present, the trial's structured [`TraceEvent`] stream is
    /// appended here (the campaign's `--trace` path).  `None` — the
    /// default — keeps event recording disabled and costs one branch per
    /// would-be event.
    pub events: Option<&'a mut Vec<TraceEvent>>,
}

/// An algorithm the campaign engine can run — object-safe so registries can
/// hold boxed factories and scenarios can carry them across threads.
///
/// Implementations are stateless factories: every [`CampaignAlgorithm::run`]
/// call builds a fresh instance from the [`TrialSetup`], so one shared
/// object serves arbitrarily many concurrent trials.
pub trait CampaignAlgorithm: Send + Sync {
    /// Short stable label: the registry key, scenario-name segment and
    /// report column.  Borrowed from `self` so runtime-parameterised
    /// algorithms can carry owned labels (e.g. `format!("{k}-smallest")`).
    fn label(&self) -> &str;

    /// One-line human description for `--list-algorithms`.
    fn description(&self) -> &str {
        ""
    }

    /// The topology family the algorithm's fairness argument requires, if
    /// any (sorting → line, sum → complete).  Returns a [`TopoRef`], so
    /// user algorithms can force user-registered families too.
    fn forced_topology(&self) -> Option<TopoRef> {
        None
    }

    /// The assertable outcome of this algorithm's trials.
    fn expectation(&self) -> Expectation {
        Expectation::Converge
    }

    /// Builds one fresh instance and runs it to completion (or budget
    /// exhaustion) under `env` on the setup's execution mode.
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics;
}

/// Runs a [`SelfSimilarSystem`] on the setup's execution mode — the one-line
/// body shared by every self-similar adapter, and the hook user-defined
/// algorithms reuse.
pub fn run_system<S: Ord + Clone + std::fmt::Debug>(
    system: &SelfSimilarSystem<S>,
    setup: &mut TrialSetup<'_>,
    env: &mut dyn Environment,
) -> RunMetrics {
    let report = setup
        .mode
        .runtime::<S>(setup.seed, setup.max_rounds, false, setup.events.is_some())
        .execute(system, env);
    if let Some(events) = setup.events.as_deref_mut() {
        events.extend(report.events);
    }
    report.metrics
}

/// A shared, cloneable handle to a registered algorithm — what scenarios
/// carry.
#[derive(Clone)]
pub struct AlgorithmRef(Arc<dyn CampaignAlgorithm>);

impl AlgorithmRef {
    /// Wraps an algorithm implementation.
    pub fn new(algorithm: impl CampaignAlgorithm + 'static) -> Self {
        AlgorithmRef(Arc::new(algorithm))
    }

    /// The algorithm's stable label.
    pub fn label(&self) -> &str {
        self.0.label()
    }

    /// The algorithm's one-line description.
    pub fn description(&self) -> &str {
        self.0.description()
    }

    /// The forced topology family, if any.
    pub fn forced_topology(&self) -> Option<TopoRef> {
        self.0.forced_topology()
    }

    /// The assertable outcome of this algorithm's trials.
    pub fn expectation(&self) -> Expectation {
        self.0.expectation()
    }

    /// Runs one trial (see [`CampaignAlgorithm::run`]).
    pub fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        self.0.run(setup, env)
    }
}

impl std::fmt::Debug for AlgorithmRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlgorithmRef({})", self.label())
    }
}

impl PartialEq for AlgorithmRef {
    fn eq(&self, other: &Self) -> bool {
        self.label() == other.label()
    }
}

/// Maps labels to algorithm factories.  [`Registry::builtin`] covers every
/// worked example of the paper plus the §5 baselines; [`Registry::register`]
/// adds (or replaces) entries.
#[derive(Clone, Default)]
pub struct Registry {
    entries: BTreeMap<String, AlgorithmRef>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The builtin registry: all ten algorithm modules (including the
    /// circumscribing-circle counterexample) and both baselines.
    ///
    /// The returned value is a cheap clone (label → `Arc` map) of a shared
    /// instance; use [`Registry::builtin_ref`] when a borrow suffices.
    pub fn builtin() -> Self {
        Registry::builtin_ref().clone()
    }

    /// Borrowed view of the shared builtin registry, built once per
    /// process — what label lookups on the hot path should use.
    pub fn builtin_ref() -> &'static Registry {
        static BUILTIN: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
        BUILTIN.get_or_init(Registry::build_builtin)
    }

    fn build_builtin() -> Self {
        let mut registry = Registry::new();
        for algorithm in [
            AlgorithmRef::new(MinimumAlgo),
            AlgorithmRef::new(MaximumAlgo),
            AlgorithmRef::new(SumAlgo),
            AlgorithmRef::new(SortingAlgo),
            AlgorithmRef::new(SecondSmallestAlgo),
            AlgorithmRef::new(ConvexHullAlgo),
            AlgorithmRef::new(BooleanOrAlgo),
            AlgorithmRef::new(BooleanAndAlgo),
            AlgorithmRef::new(KSmallestAlgo),
            AlgorithmRef::new(SetUnionAlgo),
            AlgorithmRef::new(CircumscribingAlgo),
            AlgorithmRef::new(SnapshotBaseline),
            AlgorithmRef::new(FloodingBaseline),
        ] {
            registry.register(algorithm);
        }
        registry
    }

    /// Registers an algorithm under its label, replacing any previous entry
    /// with the same label.
    pub fn register(&mut self, algorithm: AlgorithmRef) {
        self.entries
            .insert(algorithm.label().to_string(), algorithm);
    }

    /// Looks a label up.
    pub fn get(&self, label: &str) -> Option<AlgorithmRef> {
        self.entries.get(label).cloned()
    }

    /// Looks a label up, producing an error that names every registered
    /// label on a miss (what the CLI surfaces for typos).
    pub fn resolve(&self, label: &str) -> Result<AlgorithmRef, String> {
        self.get(label).ok_or_else(|| {
            format!(
                "unknown algorithm `{label}`; registered algorithms: {}",
                self.labels().join(", ")
            )
        })
    }

    /// All registered labels, sorted.
    pub fn labels(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Iterates over the registered algorithms in label order.
    pub fn iter(&self) -> impl Iterator<Item = &AlgorithmRef> {
        self.entries.values()
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Positive, pairwise-distinct integer initial values (the sum example
/// requires non-negative values, sorting requires distinct ones).
///
/// Cells up to 4096 agents draw from the historical `1..=9999` pool so
/// their RNG streams (and hence every committed record) are byte-stable;
/// larger cells — the event-runtime scaling curves go to 10⁶ agents —
/// widen the pool to keep rejection sampling cheap.
pub(crate) fn int_values(n: usize, rng: &mut impl Rng) -> Vec<i64> {
    let pool_max: i64 = if n <= 4096 { 9999 } else { n as i64 * 4 };
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.gen_range(1..=pool_max);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// Integer-grid sites for the geometric examples.
pub(crate) fn point_values(n: usize, rng: &mut impl Rng) -> Vec<Point> {
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(-50i64..=50) as f64,
                rng.gen_range(-50i64..=50) as f64,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Builtin adapters: the self-similar worked examples.
// ---------------------------------------------------------------------------

struct MinimumAlgo;
impl CampaignAlgorithm for MinimumAlgo {
    fn label(&self) -> &str {
        "minimum"
    }
    fn description(&self) -> &str {
        "§4.1 — every agent adopts the minimum"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let sys = selfsim_algorithms::minimum::system(&values, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

struct MaximumAlgo;
impl CampaignAlgorithm for MaximumAlgo {
    fn label(&self) -> &str {
        "maximum"
    }
    fn description(&self) -> &str {
        "extension — every agent adopts the maximum"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let sys = selfsim_algorithms::maximum::system(&values, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

struct SumAlgo;
impl CampaignAlgorithm for SumAlgo {
    fn label(&self) -> &str {
        "sum"
    }
    fn description(&self) -> &str {
        "§4.2 — one agent concentrates the sum (complete fairness graph)"
    }
    fn forced_topology(&self) -> Option<TopoRef> {
        Some(TopoRef::new(CompleteTopology))
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let sys = selfsim_algorithms::sum::system(&values, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

struct SortingAlgo;
impl CampaignAlgorithm for SortingAlgo {
    fn label(&self) -> &str {
        "sorting"
    }
    fn description(&self) -> &str {
        "§4.4 — values sort themselves along a line"
    }
    fn forced_topology(&self) -> Option<TopoRef> {
        Some(TopoRef::new(LineTopology))
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let sys = selfsim_algorithms::sorting::system(&values);
        run_system(&sys, setup, env)
    }
}

struct SecondSmallestAlgo;
impl CampaignAlgorithm for SecondSmallestAlgo {
    fn label(&self) -> &str {
        "second-smallest"
    }
    fn description(&self) -> &str {
        "§4.3 — every agent learns the pair (smallest, second smallest)"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let sys = selfsim_algorithms::second_smallest::system(&values, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

struct ConvexHullAlgo;
impl CampaignAlgorithm for ConvexHullAlgo {
    fn label(&self) -> &str {
        "convex-hull"
    }
    fn description(&self) -> &str {
        "§4.5 — every agent learns the convex hull of all sites"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let sites = point_values(setup.n, setup.rng);
        let sys = selfsim_algorithms::convex_hull::system(&sites, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

struct BooleanOrAlgo;
impl CampaignAlgorithm for BooleanOrAlgo {
    fn label(&self) -> &str {
        "boolean-or"
    }
    fn description(&self) -> &str {
        "extension — event detection: one random agent holds true, all adopt the disjunction"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let hot = setup.rng.gen_range(0..setup.n);
        let initial: Vec<bool> = (0..setup.n).map(|i| i == hot).collect();
        let sys = selfsim_algorithms::boolean::or_system(&initial, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

struct BooleanAndAlgo;
impl CampaignAlgorithm for BooleanAndAlgo {
    fn label(&self) -> &str {
        "boolean-and"
    }
    fn description(&self) -> &str {
        "extension — agreement: one random agent holds false, all adopt the conjunction"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let cold = setup.rng.gen_range(0..setup.n);
        let initial: Vec<bool> = (0..setup.n).map(|i| i != cold).collect();
        let sys = selfsim_algorithms::boolean::and_system(&initial, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

/// How many smallest distinct values the `k-smallest` adapter tracks.
const K_SMALLEST_K: usize = 3;

struct KSmallestAlgo;
impl CampaignAlgorithm for KSmallestAlgo {
    fn label(&self) -> &str {
        "k-smallest"
    }
    fn description(&self) -> &str {
        "extension — every agent learns the 3 smallest distinct values"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let sys =
            selfsim_algorithms::k_smallest::system(&values, K_SMALLEST_K, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

struct SetUnionAlgo;
impl CampaignAlgorithm for SetUnionAlgo {
    fn label(&self) -> &str {
        "set-union"
    }
    fn description(&self) -> &str {
        "extension — gossip dissemination: every agent learns the union of all knowledge"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        // The canonical dissemination instance: agent i initially knows
        // exactly item i, so the universe has one item per agent.
        let initial: Vec<std::collections::BTreeSet<i64>> =
            (0..setup.n).map(|i| [i as i64].into()).collect();
        let sys = selfsim_algorithms::set_union::system(&initial, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

// ---------------------------------------------------------------------------
// The circumscribing-circle counterexample (§4.5 first half, Figure 2).
// ---------------------------------------------------------------------------

/// Builds a runnable system around the **naive** circumscribing-circle
/// function.  The function is idempotent but not super-idempotent, so
/// group-wise application can overshoot the global circle irrecoverably —
/// this system exists to make that failure measurable, not to compute
/// anything.
fn circumscribing_system(
    sites: &[Point],
    topology: Topology,
) -> SelfSimilarSystem<circumscribing::State> {
    use circumscribing::{estimate_of, initial_state, make_state, site_of, SCALE};
    let initial: Vec<circumscribing::State> = sites.iter().map(|p| initial_state(*p)).collect();
    SelfSimilarSystem::new(
        "circumscribing-circle",
        circumscribing::naive_function(),
        // Sum of estimate radii: descends nowhere (estimates only grow) —
        // the paper's point is that no objective can rescue this f.
        SummationObjective::new("estimate-radius", |s: &circumscribing::State| {
            s.4 as f64 / SCALE
        }),
        FnGroupStep::new(
            "adopt-enclosing-circle",
            |states: &[circumscribing::State], _rng: &mut dyn rand::RngCore| {
                let circles: Vec<Circle> = states.iter().map(estimate_of).collect();
                let enclosing = enclosing_circle_of_circles(&circles);
                states
                    .iter()
                    .map(|s| make_state(site_of(s), enclosing))
                    .collect()
            },
        ),
        initial,
        FairnessSpec::for_graph(&topology),
    )
}

struct CircumscribingAlgo;
impl CampaignAlgorithm for CircumscribingAlgo {
    fn label(&self) -> &str {
        "circumscribing-circle"
    }
    fn description(&self) -> &str {
        "§4.5 counterexample — naive (non-super-idempotent) f; diverges once groups fragment"
    }
    fn expectation(&self) -> Expectation {
        Expectation::DivergeUnderFragmentation
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let sites = point_values(setup.n, setup.rng);
        let sys = circumscribing_system(&sites, setup.topology.clone());
        run_system(&sys, setup, env)
    }
}

// ---------------------------------------------------------------------------
// The §5 baselines.
//
// Both adapters map `Sync` cells onto the baselines' round-based protocol
// and `Async` cells onto their message-passing variants.  The `Sync`
// cooldown knob is a *stability* audit (`stable (S = f(S))`) that only
// makes sense for self-similar systems; the baselines terminate the moment
// their aggregate is known, so a non-zero cooldown is ignored — compare
// baseline cells on `rounds_to_convergence`/`messages`, not
// `rounds_executed`.
// ---------------------------------------------------------------------------

/// The one dispatch site mapping an [`ExecutionMode`] onto a baseline's
/// round-based / message-passing entry points.  The delivery rule rides
/// along with the other async knobs, so baselines and the self-similar
/// runtime always judge blocked messages by the same rule — and the event
/// log is handed to whichever entry point runs, so traced cells observe
/// baselines through the same stream as the self-similar runtimes.
fn dispatch_baseline<R>(
    mode: ExecutionMode,
    env: &mut dyn Environment,
    events: &mut EventLog,
    sync: impl FnOnce(&mut dyn Environment, &mut EventLog) -> R,
    asynchronous: impl FnOnce(&mut dyn Environment, f64, usize, f64, DeliveryRule, &mut EventLog) -> R,
) -> R {
    match mode {
        // The baselines terminate on their own; the event-driven runtime's
        // queue is an execution strategy for the synchronous round
        // semantics, so event cells run the same round-based entry point.
        ExecutionMode::Sync { .. } | ExecutionMode::Event { .. } => sync(env, events),
        ExecutionMode::Async {
            interaction_rate,
            max_latency,
            drop_rate,
            delivery,
        } => asynchronous(
            env,
            interaction_rate,
            max_latency,
            drop_rate,
            delivery,
            events,
        ),
    }
}

/// An [`EventLog`] matching a [`TrialSetup`]'s event request, plus the
/// flush gluing its recording back onto the setup's sink — the shared
/// prologue/epilogue of both baseline adapters.
fn baseline_event_log(setup: &TrialSetup<'_>) -> EventLog {
    if setup.events.is_some() {
        EventLog::enabled()
    } else {
        EventLog::disabled()
    }
}

fn flush_baseline_events(setup: &mut TrialSetup<'_>, log: EventLog) {
    if let Some(events) = setup.events.as_deref_mut() {
        events.extend(log.into_events());
    }
}

struct SnapshotBaseline;
impl CampaignAlgorithm for SnapshotBaseline {
    fn label(&self) -> &str {
        "snapshot"
    }
    fn description(&self) -> &str {
        "§5 baseline — coordinator-driven global snapshots; stalls whenever the system fragments"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let baseline = SnapshotAggregator::new(values, setup.max_rounds);
        let seed = setup.seed;
        let mut log = baseline_event_log(setup);
        let (metrics, _) = dispatch_baseline(
            setup.mode,
            env,
            &mut log,
            |env, ev| baseline.run_observed(env, seed, i64::min, ev),
            |env, i, l, d, dv, ev| {
                baseline.run_async_observed(env, seed, i, l, d, dv, i64::min, ev)
            },
        );
        flush_baseline_events(setup, log);
        metrics
    }
}

struct FloodingBaseline;
impl CampaignAlgorithm for FloodingBaseline {
    fn label(&self) -> &str {
        "flooding"
    }
    fn description(&self) -> &str {
        "§5 baseline — full-information flooding; robust to churn, pays in message volume"
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        let values = int_values(setup.n, setup.rng);
        let baseline = FloodingAggregator::new(values, setup.max_rounds);
        let seed = setup.seed;
        let mut log = baseline_event_log(setup);
        let (metrics, _) = dispatch_baseline(
            setup.mode,
            env,
            &mut log,
            |env, ev| baseline.run_observed(env, seed, i64::min, ev),
            |env, i, l, d, dv, ev| {
                baseline.run_async_observed(env, seed, i, l, d, dv, i64::min, ev)
            },
        );
        flush_baseline_events(setup, log);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use selfsim_env::StaticEnv;

    fn setup_for<'a>(
        n: usize,
        mode: ExecutionMode,
        rng: &'a mut StdRng,
    ) -> (TrialSetup<'a>, Box<dyn Environment>) {
        let topology = Topology::ring(n);
        let env = Box::new(StaticEnv::new(topology.clone()));
        (
            TrialSetup {
                n,
                topology,
                mode,
                max_rounds: 100_000,
                seed: 42,
                rng,
                events: None,
            },
            env,
        )
    }

    #[test]
    fn builtin_registry_round_trips_every_label() {
        let registry = Registry::builtin();
        assert_eq!(registry.len(), 13);
        for label in registry.labels() {
            let algorithm = registry.resolve(&label).expect("registered");
            assert_eq!(algorithm.label(), label);
        }
    }

    #[test]
    fn resolve_error_lists_the_registry_contents() {
        let registry = Registry::builtin();
        let err = registry.resolve("nonsense").unwrap_err();
        assert!(err.contains("unknown algorithm `nonsense`"));
        for label in registry.labels() {
            assert!(err.contains(&label), "error must list {label}");
        }
    }

    #[test]
    fn register_replaces_by_label() {
        let mut registry = Registry::new();
        assert!(registry.is_empty());
        registry.register(AlgorithmRef::new(MinimumAlgo));
        registry.register(AlgorithmRef::new(MinimumAlgo));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn runtime_parameterised_algorithms_register_with_owned_labels() {
        // A user variant built at runtime: k-smallest for a swept k, with a
        // label owned by the instance (impossible under &'static str keys).
        struct ParamKSmallest {
            k: usize,
            label: String,
        }
        impl CampaignAlgorithm for ParamKSmallest {
            fn label(&self) -> &str {
                &self.label
            }
            fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
                let values = int_values(setup.n, setup.rng);
                let sys =
                    selfsim_algorithms::k_smallest::system(&values, self.k, setup.topology.clone());
                run_system(&sys, setup, env)
            }
        }
        let mut registry = Registry::builtin();
        for k in [2usize, 4] {
            registry.register(AlgorithmRef::new(ParamKSmallest {
                k,
                label: format!("{k}-smallest"),
            }));
        }
        assert_eq!(registry.len(), 15);
        let algorithm = registry.resolve("4-smallest").unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let topology = Topology::ring(6);
        let mut env: Box<dyn Environment> = Box::new(StaticEnv::new(topology.clone()));
        let mut setup = TrialSetup {
            n: 6,
            topology,
            mode: ExecutionMode::sync(),
            max_rounds: 10_000,
            seed: 8,
            rng: &mut rng,
            events: None,
        };
        let metrics = algorithm.run(&mut setup, env.as_mut());
        assert!(metrics.converged());
    }

    #[test]
    fn every_converging_builtin_converges_on_a_static_ring_sync() {
        for algorithm in Registry::builtin().iter() {
            if algorithm.expectation() != Expectation::Converge {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(7);
            let topology = algorithm
                .forced_topology()
                .unwrap_or_else(|| TopoRef::new(crate::dimension::RingTopology))
                .build(6, &mut rng);
            let mut env: Box<dyn Environment> = Box::new(StaticEnv::new(topology.clone()));
            let mut setup = TrialSetup {
                n: 6,
                topology,
                mode: ExecutionMode::sync(),
                max_rounds: 100_000,
                seed: 42,
                rng: &mut rng,
                events: None,
            };
            let metrics = algorithm.run(&mut setup, env.as_mut());
            assert!(
                metrics.converged(),
                "{} did not converge",
                algorithm.label()
            );
        }
    }

    #[test]
    fn counterexample_converges_without_fragmentation_and_diverges_with_it() {
        let algorithm = Registry::builtin()
            .resolve("circumscribing-circle")
            .unwrap();
        assert_eq!(
            algorithm.expectation(),
            Expectation::DivergeUnderFragmentation
        );

        // Global synchronous rounds: one whole-system step computes the
        // exact circle — converges.
        let mut rng = StdRng::seed_from_u64(3);
        let (mut setup, mut env) = setup_for(6, ExecutionMode::sync(), &mut rng);
        let metrics = algorithm.run(&mut setup, env.as_mut());
        assert!(metrics.converged());

        // Pairwise asynchronous interactions fragment every step: the
        // estimates overshoot and the target is never reached.
        let mut rng = StdRng::seed_from_u64(3);
        let (mut setup, mut env) = setup_for(6, ExecutionMode::asynchronous(), &mut rng);
        setup.max_rounds = 2_000;
        let metrics = algorithm.run(&mut setup, env.as_mut());
        assert!(!metrics.converged(), "fragmented steps must overshoot");
    }

    #[test]
    fn expectation_met_logic() {
        use Expectation::*;
        assert!(Converge.met(true, true));
        assert!(!Converge.met(false, true));
        assert!(DivergeUnderFragmentation.met(false, true));
        assert!(!DivergeUnderFragmentation.met(true, true));
        assert!(DivergeUnderFragmentation.met(true, false));
        assert!(!DivergeUnderFragmentation.met(false, false));
    }

    #[test]
    fn baselines_run_in_both_modes() {
        for label in ["snapshot", "flooding"] {
            let algorithm = Registry::builtin().resolve(label).unwrap();
            for mode in ExecutionMode::both() {
                let mut rng = StdRng::seed_from_u64(9);
                let topology = Topology::complete(5);
                let mut env: Box<dyn Environment> = Box::new(StaticEnv::new(topology.clone()));
                let mut setup = TrialSetup {
                    n: 5,
                    topology,
                    mode,
                    max_rounds: 10_000,
                    seed: 4,
                    rng: &mut rng,
                    events: None,
                };
                let metrics = algorithm.run(&mut setup, env.as_mut());
                assert!(
                    metrics.converged(),
                    "{label} under {} on a static complete graph",
                    mode.label()
                );
            }
        }
    }
}
