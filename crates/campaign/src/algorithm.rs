//! The open algorithm API: an object-safe trait, its registry, and the
//! builtin algorithms.
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
//! The [`Registry`] is the [`LabelRegistry`] every grid dimension uses,
//! over [`AlgorithmRef`] entries: algorithm labels resolve through the
//! same `name(k=v,…)` grammar as environment and topology labels, with no
//! parameters.  It ships with every worked example of the paper plus the
//! baselines ([`Registry::builtin`]), and accepts user-defined algorithms
//! through [`LabelRegistry::register`].  The builtins are values of one
//! private struct whose `run` field holds each algorithm's trial body.

use std::ops::Deref;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use selfsim_algorithms::circumscribing;
use selfsim_baselines::{FloodingAggregator, SnapshotAggregator};
use selfsim_core::{FnGroupStep, SelfSimilarSystem, SummationObjective};
use selfsim_env::{Environment, FairnessSpec, Params, Topology};
use selfsim_geometry::{enclosing_circle_of_circles, Circle, Point};
use selfsim_runtime::ExecutionMode;
use selfsim_trace::{EventLog, RunMetrics};

use crate::dimension::{Fixed, LabelRegistry, RegistryEntry, TopoRef, COMPLETE, LINE};

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
    /// Where the trial's structured [`selfsim_trace::TraceEvent`] stream
    /// goes: runtimes and baselines alike emit into it.  The campaign's
    /// `--trace` path passes an enabled log; untraced trials pass
    /// [`EventLog::disabled`], which costs one branch per would-be event.
    pub events: &'a mut EventLog,
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
/// body shared by every self-similar builtin, and the hook user-defined
/// algorithms reuse.
pub fn run_system<S: Ord + Clone + std::fmt::Debug>(
    system: &SelfSimilarSystem<S>,
    setup: &mut TrialSetup<'_>,
    env: &mut dyn Environment,
) -> RunMetrics {
    setup
        .mode
        .run_with(
            system,
            env,
            setup.seed,
            setup.max_rounds,
            setup.events,
            |_| {},
        )
        .metrics
}

/// A shared, cloneable handle to a registered algorithm — what scenarios
/// carry.  It derefs to [`CampaignAlgorithm`]; equality is by label.
#[derive(Clone)]
pub struct AlgorithmRef(Arc<dyn CampaignAlgorithm>);

impl AlgorithmRef {
    /// Wraps an algorithm implementation.
    pub fn new(algorithm: impl CampaignAlgorithm + 'static) -> Self {
        AlgorithmRef(Arc::new(algorithm))
    }
}

impl Deref for AlgorithmRef {
    type Target = dyn CampaignAlgorithm;

    fn deref(&self) -> &Self::Target {
        &*self.0
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

/// An algorithm's family is its label, and it takes no parameters.
impl RegistryEntry for AlgorithmRef {
    const NOUN: &'static str = "algorithm";
    const NOUN_PLURAL: &'static str = "algorithms";

    fn family_name(&self) -> &str {
        self.label()
    }

    fn instantiate_params(&self, params: Params) -> Result<Self, String> {
        params.finish(&[])?;
        Ok(self.clone())
    }
}

/// The algorithm registry: [`LabelRegistry`] over [`AlgorithmRef`]
/// entries.
pub type Registry = LabelRegistry<AlgorithmRef>;

impl LabelRegistry<AlgorithmRef> {
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
        BUILTIN.get_or_init(|| BUILTINS.into_iter().map(AlgorithmRef::new).collect())
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

/// Builds a runnable system around the **naive** circumscribing-circle
/// function (§4.5 first half, Figure 2).  The function is idempotent but
/// not super-idempotent, so group-wise application can overshoot the
/// global circle irrecoverably — this system exists to make that failure
/// measurable, not to compute anything.
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

/// How many smallest distinct values the `k-smallest` builtin tracks.
const K_SMALLEST_K: usize = 3;

/// A builtin algorithm: the data [`CampaignAlgorithm`] reports, and `run`,
/// the body that builds one fresh instance and runs it.
struct Builtin {
    label: &'static str,
    description: &'static str,
    forced_topology: Option<Fixed>,
    expectation: Expectation,
    run: fn(&mut TrialSetup<'_>, &mut dyn Environment) -> RunMetrics,
}

impl CampaignAlgorithm for Builtin {
    fn label(&self) -> &str {
        self.label
    }
    fn description(&self) -> &str {
        self.description
    }
    fn forced_topology(&self) -> Option<TopoRef> {
        self.forced_topology.map(TopoRef::new)
    }
    fn expectation(&self) -> Expectation {
        self.expectation
    }
    fn run(&self, setup: &mut TrialSetup<'_>, env: &mut dyn Environment) -> RunMetrics {
        (self.run)(setup, env)
    }
}

/// The builtins: the self-similar worked examples, the
/// circumscribing-circle counterexample, and the §5 baselines.
///
/// Both baselines hand the cell's mode to the baseline's one entry point:
/// `Sync` and `Event` cells run its round-based protocol, `Async` cells its
/// message-passing variant under the same delivery rule as the self-similar
/// runtime.  The `Sync` cooldown knob is a *stability* audit
/// (`stable (S = f(S))`) that only makes sense for self-similar systems; the
/// baselines terminate the moment their aggregate is known, so a non-zero
/// cooldown is ignored — compare baseline cells on
/// `rounds_to_convergence`/`messages`, not `rounds_executed`.
const BUILTINS: [Builtin; 13] = [
    Builtin {
        label: "minimum",
        description: "§4.1 — every agent adopts the minimum",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let values = int_values(setup.n, setup.rng);
            let sys = selfsim_algorithms::minimum::system(&values, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "maximum",
        description: "extension — every agent adopts the maximum",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let values = int_values(setup.n, setup.rng);
            let sys = selfsim_algorithms::maximum::system(&values, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "sum",
        description: "§4.2 — one agent concentrates the sum (complete fairness graph)",
        forced_topology: Some(COMPLETE),
        expectation: Expectation::Converge,
        run: |setup, env| {
            let values = int_values(setup.n, setup.rng);
            let sys = selfsim_algorithms::sum::system(&values, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "sorting",
        description: "§4.4 — values sort themselves along a line",
        forced_topology: Some(LINE),
        expectation: Expectation::Converge,
        run: |setup, env| {
            let values = int_values(setup.n, setup.rng);
            let sys = selfsim_algorithms::sorting::system(&values);
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "second-smallest",
        description: "§4.3 — every agent learns the pair (smallest, second smallest)",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let values = int_values(setup.n, setup.rng);
            let sys = selfsim_algorithms::second_smallest::system(&values, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "convex-hull",
        description: "§4.5 — every agent learns the convex hull of all sites",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let sites = point_values(setup.n, setup.rng);
            let sys = selfsim_algorithms::convex_hull::system(&sites, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "boolean-or",
        description:
            "extension — event detection: one random agent holds true, all adopt the disjunction",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let hot = setup.rng.gen_range(0..setup.n);
            let initial: Vec<bool> = (0..setup.n).map(|i| i == hot).collect();
            let sys = selfsim_algorithms::boolean::or_system(&initial, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "boolean-and",
        description:
            "extension — agreement: one random agent holds false, all adopt the conjunction",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let cold = setup.rng.gen_range(0..setup.n);
            let initial: Vec<bool> = (0..setup.n).map(|i| i != cold).collect();
            let sys = selfsim_algorithms::boolean::and_system(&initial, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "k-smallest",
        description: "extension — every agent learns the 3 smallest distinct values",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let values = int_values(setup.n, setup.rng);
            let sys = selfsim_algorithms::k_smallest::system(
                &values,
                K_SMALLEST_K,
                setup.topology.clone(),
            );
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "set-union",
        description:
            "extension — gossip dissemination: every agent learns the union of all knowledge",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            // The canonical dissemination instance: agent i initially knows
            // exactly item i, so the universe has one item per agent.
            let initial: Vec<std::collections::BTreeSet<i64>> =
                (0..setup.n).map(|i| [i as i64].into()).collect();
            let sys = selfsim_algorithms::set_union::system(&initial, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "circumscribing-circle",
        description:
            "§4.5 counterexample — naive (non-super-idempotent) f; diverges once groups fragment",
        forced_topology: None,
        expectation: Expectation::DivergeUnderFragmentation,
        run: |setup, env| {
            let sites = point_values(setup.n, setup.rng);
            let sys = circumscribing_system(&sites, setup.topology.clone());
            run_system(&sys, setup, env)
        },
    },
    Builtin {
        label: "snapshot",
        description:
            "§5 baseline — coordinator-driven global snapshots; stalls whenever the system fragments",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let baseline =
                SnapshotAggregator::new(int_values(setup.n, setup.rng), setup.max_rounds);
            baseline.run(env, setup.seed, setup.mode, i64::min, setup.events).0
        },
    },
    Builtin {
        label: "flooding",
        description:
            "§5 baseline — full-information flooding; robust to churn, pays in message volume",
        forced_topology: None,
        expectation: Expectation::Converge,
        run: |setup, env| {
            let baseline =
                FloodingAggregator::new(int_values(setup.n, setup.rng), setup.max_rounds);
            baseline.run(env, setup.seed, setup.mode, i64::min, setup.events).0
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use selfsim_env::StaticEnv;

    fn setup_for<'a>(
        n: usize,
        mode: ExecutionMode,
        rng: &'a mut StdRng,
        events: &'a mut EventLog,
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
                events,
            },
            env,
        )
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
            events: &mut EventLog::disabled(),
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
                .unwrap_or_else(|| TopoRef::new(crate::dimension::RING))
                .build(6, &mut rng);
            let mut env: Box<dyn Environment> = Box::new(StaticEnv::new(topology.clone()));
            let mut setup = TrialSetup {
                n: 6,
                topology,
                mode: ExecutionMode::sync(),
                max_rounds: 100_000,
                seed: 42,
                rng: &mut rng,
                events: &mut EventLog::disabled(),
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
        let mut events = EventLog::disabled();
        let (mut setup, mut env) = setup_for(6, ExecutionMode::sync(), &mut rng, &mut events);
        let metrics = algorithm.run(&mut setup, env.as_mut());
        assert!(metrics.converged());

        // Pairwise asynchronous interactions fragment every step: the
        // estimates overshoot and the target is never reached.
        let mut rng = StdRng::seed_from_u64(3);
        let mut events = EventLog::disabled();
        let (mut setup, mut env) =
            setup_for(6, ExecutionMode::asynchronous(), &mut rng, &mut events);
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
                    events: &mut EventLog::disabled(),
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
