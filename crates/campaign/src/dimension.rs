//! The open grid dimensions: object-safe factory traits, the one label
//! registry every named dimension shares, and the builtin environment and
//! topology families.
//!
//! The paper defines a self-similar algorithm against an *arbitrary*
//! environment process constrained only by the fairness assumption `□◇Q` —
//! so the campaign grid's environment and topology dimensions are as open
//! as its algorithm dimension:
//!
//! * [`EnvFactory`] / [`TopologyFactory`] — object-safe traits describing
//!   one *parameterised instance* of an environment or topology family:
//!   its family name (the registry key), its exact round-trippable label,
//!   how to materialise it, and — for environments — whether its
//!   parameters can split the agents into proper subgroups
//!   ([`EnvFactory::can_fragment`], which is what lets user-registered
//!   environments participate in [`Expectation`] checking);
//! * [`EnvRef`] / [`TopoRef`] — shared cloneable handles, what scenarios
//!   carry across threads; like [`AlgorithmRef`] they deref to their
//!   trait, so a handle answers every trait method;
//! * [`LabelRegistry`] — the one label → family map behind all three
//!   named dimensions: [`Registry`] (algorithms), [`EnvRegistry`] and
//!   [`TopologyRegistry`] are its aliases.
//!   Resolution goes through the shared `name(k=v,…)` grammar
//!   ([`selfsim_env::params`]): `churn(e=0.3,a=0.8)` splits into the
//!   family `churn` and its parameters, and the family's
//!   [`EnvFactory::instantiate`] validates each field by name (algorithms
//!   take none, so `minimum(k=3)` names `k` as unknown).  Because
//!   instances *emit* labels through the same grammar, every label in a
//!   JSONL record or markdown table parses back to the identical cell —
//!   the round-trip law.
//!
//! A label is the only way to name a builtin family from outside this
//! crate: `EnvRegistry::builtin_ref().resolve("churn(e=0.5,a=0.9)")`.
//!
//! [`AlgorithmRef`]: crate::AlgorithmRef
//! [`Registry`]: crate::Registry
//! [`Expectation`]: crate::Expectation

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

use rand::RngCore;
use selfsim_env::{
    parse_label, AdversarialEnv, ComposedEnv, CrashRestartEnv, Environment, MarkovLinkEnv, Params,
    PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology,
};

use crate::scenario::grid_dims;

// ---------------------------------------------------------------------------
// The environment dimension.
// ---------------------------------------------------------------------------

/// One parameterised environment family member the campaign can sweep —
/// object-safe so registries can hold boxed factories and scenarios can
/// carry them across threads.
///
/// Implementations are stateless beyond their parameters: every
/// [`EnvFactory::build`] call materialises a fresh process, so one shared
/// instance serves arbitrarily many concurrent trials.
pub trait EnvFactory: Send + Sync {
    /// Family name — the registry key and the part of the label before the
    /// parameter list (e.g. `churn`).
    fn family(&self) -> &str;

    /// One-line human description for `--list-environments`.
    fn description(&self) -> &str {
        ""
    }

    /// The exact label of this instance (`churn(e=0.5,a=0.9)`).  Must
    /// round-trip: resolving it against a registry holding this family
    /// reconstructs an instance with the identical label.
    fn label(&self) -> String;

    /// `true` when this instance's *parameters* allow it to split the
    /// agents into proper subgroups — e.g. churn with `p_edge = 1.0` and
    /// `p_agent = 1.0` is dynamic in name only and never fragments.
    /// Together with the execution mode this decides whether a
    /// [`DivergeUnderFragmentation`](crate::Expectation) cell is expected
    /// to converge.  (This is a per-cell expectation: a genuinely
    /// fragmenting environment can still draw a fully-connected first
    /// round, so treat the `meets_expectation` column as a measurement,
    /// not an invariant.)
    fn can_fragment(&self) -> bool;

    /// Materialises the environment process over `topology`.
    fn build(&self, topology: Topology) -> Box<dyn Environment>;

    /// Constructs the family member named by `params` (an empty list keeps
    /// every default), validating each field by name and rejecting unknown
    /// parameters — how registries turn `churn(e=0.3,a=0.8)` into a cell.
    fn instantiate(&self, params: Params) -> Result<EnvRef, String>;
}

/// A shared, cloneable handle to an environment-family instance — what
/// scenarios carry.  It derefs to [`EnvFactory`]; equality is by label,
/// which is exactly cell identity.
#[derive(Clone)]
pub struct EnvRef(Arc<dyn EnvFactory>);

impl EnvRef {
    /// Wraps an environment-factory implementation.
    pub fn new(factory: impl EnvFactory + 'static) -> Self {
        EnvRef(Arc::new(factory))
    }
}

impl Deref for EnvRef {
    type Target = dyn EnvFactory;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for EnvRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EnvRef({})", self.label())
    }
}

impl PartialEq for EnvRef {
    fn eq(&self, other: &Self) -> bool {
        self.label() == other.label()
    }
}

/// A family entry a [`LabelRegistry`] can hold — implemented by the three
/// dimension handles ([`AlgorithmRef`](crate::AlgorithmRef), [`EnvRef`],
/// [`TopoRef`]).  The `NOUN`s feed the registry's error messages.
pub trait RegistryEntry: Clone {
    /// The dimension noun for error messages (`"environment"`).
    const NOUN: &'static str;
    /// The plural used when listing the registry (`"environments"`).
    const NOUN_PLURAL: &'static str;

    /// The entry's family name — its registry key.
    fn family_name(&self) -> &str;

    /// Constructs the family member named by `params` (see
    /// [`EnvFactory::instantiate`]).
    fn instantiate_params(&self, params: Params) -> Result<Self, String>;
}

impl RegistryEntry for EnvRef {
    const NOUN: &'static str = "environment";
    const NOUN_PLURAL: &'static str = "environments";

    fn family_name(&self) -> &str {
        self.family()
    }

    fn instantiate_params(&self, params: Params) -> Result<Self, String> {
        self.instantiate(params)
    }
}

impl RegistryEntry for TopoRef {
    const NOUN: &'static str = "topology";
    const NOUN_PLURAL: &'static str = "topologies";

    fn family_name(&self) -> &str {
        self.family()
    }

    fn instantiate_params(&self, params: Params) -> Result<Self, String> {
        self.instantiate(params)
    }
}

/// Maps family names to parameterisable factories — the one registry
/// mechanism behind every named grid dimension ([`Registry`](crate::Registry),
/// [`EnvRegistry`], [`TopologyRegistry`]).  Resolution parses labels
/// through the shared grammar and hands the parameters to the family's
/// factory.
#[derive(Clone)]
pub struct LabelRegistry<R: RegistryEntry> {
    entries: BTreeMap<String, R>,
}

/// The environment registry: `LabelRegistry` over [`EnvRef`] entries.
pub type EnvRegistry = LabelRegistry<EnvRef>;

/// The topology registry: `LabelRegistry` over [`TopoRef`] entries.
pub type TopologyRegistry = LabelRegistry<TopoRef>;

impl<R: RegistryEntry> Default for LabelRegistry<R> {
    fn default() -> Self {
        LabelRegistry {
            entries: BTreeMap::new(),
        }
    }
}

/// Collects entries into a registry, later entries replacing earlier ones
/// of the same family (as [`LabelRegistry::register`] does).
impl<R: RegistryEntry> FromIterator<R> for LabelRegistry<R> {
    fn from_iter<I: IntoIterator<Item = R>>(entries: I) -> Self {
        let mut registry = LabelRegistry::new();
        for entry in entries {
            registry.register(entry);
        }
        registry
    }
}

impl<R: RegistryEntry> LabelRegistry<R> {
    /// An empty registry.
    pub fn new() -> Self {
        LabelRegistry::default()
    }

    /// Registers a family under its name, replacing any previous entry.
    /// The registered instance's parameters become the family's defaults
    /// (what a bare `name` label resolves to).
    pub fn register(&mut self, factory: R) {
        self.entries
            .insert(factory.family_name().to_string(), factory);
    }

    /// Resolves a (possibly parameterised) label into an instance:
    /// `minimum`, `churn`, `churn(e=0.3,a=0.8)` and every label a record's
    /// `algorithm`/`environment`/`topology` column can contain.  Unknown
    /// families list the registry contents; malformed, unknown or
    /// out-of-range parameters name the offending field.
    pub fn resolve(&self, label: &str) -> Result<R, String> {
        let (family, params) = parse_label(label)?;
        let entry = self.entries.get(family).ok_or_else(|| {
            format!(
                "unknown {} `{family}`; registered {}: {}",
                R::NOUN,
                R::NOUN_PLURAL,
                self.families().join(", ")
            )
        })?;
        entry.instantiate_params(params)
    }

    /// All registered family names, sorted.
    pub fn families(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    /// Iterates over the registered default instances in family order.
    pub fn iter(&self) -> impl Iterator<Item = &R> {
        self.entries.values()
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl LabelRegistry<EnvRef> {
    /// The builtin registry: every stock environment family in its default
    /// parameterisation.
    ///
    /// The returned value is a cheap clone (family → `Arc` map) of a
    /// shared instance; use [`EnvRegistry::builtin_ref`] when a borrow
    /// suffices.
    pub fn builtin() -> Self {
        EnvRegistry::builtin_ref().clone()
    }

    /// Borrowed view of the shared builtin registry, built once per
    /// process.  Each family's struct literal here is its default.
    pub fn builtin_ref() -> &'static EnvRegistry {
        static BUILTIN: std::sync::OnceLock<EnvRegistry> = std::sync::OnceLock::new();
        BUILTIN.get_or_init(|| {
            [
                EnvRef::new(StaticEnvFactory),
                EnvRef::new(ChurnEnvFactory {
                    p_edge: 0.5,
                    p_agent: 0.9,
                }),
                EnvRef::new(MarkovEnvFactory {
                    p_up: 0.3,
                    p_down: 0.3,
                }),
                EnvRef::new(PartitionEnvFactory {
                    blocks: 3,
                    period: 8,
                }),
                EnvRef::new(CrashEnvFactory {
                    p_crash: 0.05,
                    p_restart: 0.5,
                }),
                EnvRef::new(AdversaryEnvFactory { silence: 1 }),
                EnvRef::new(ChurnPlusCrashEnvFactory {
                    p_edge: 0.6,
                    p_crash: 0.05,
                    p_restart: 0.5,
                }),
            ]
            .into_iter()
            .collect()
        })
    }
}

// ---------------------------------------------------------------------------
// The topology dimension.
// ---------------------------------------------------------------------------

/// One parameterised topology family member — the communication-graph
/// counterpart of [`EnvFactory`].
pub trait TopologyFactory: Send + Sync {
    /// Family name — the registry key (e.g. `random`).
    fn family(&self) -> &str;

    /// One-line human description for `--list-topologies`.
    fn description(&self) -> &str {
        ""
    }

    /// The exact, round-trippable label of this instance
    /// (`random(p=0.15)`).
    fn label(&self) -> String;

    /// Materialises the graph for `n` agents, drawing any randomness from
    /// `rng` (so random families are deterministic per trial).
    fn build(&self, n: usize, rng: &mut dyn RngCore) -> Topology;

    /// Constructs the family member named by `params` (see
    /// [`EnvFactory::instantiate`]).
    fn instantiate(&self, params: Params) -> Result<TopoRef, String>;
}

/// A shared, cloneable handle to a topology-family instance.  It derefs
/// to [`TopologyFactory`]; equality is by label.
#[derive(Clone)]
pub struct TopoRef(Arc<dyn TopologyFactory>);

impl TopoRef {
    /// Wraps a topology-factory implementation.
    pub fn new(factory: impl TopologyFactory + 'static) -> Self {
        TopoRef(Arc::new(factory))
    }
}

impl Deref for TopoRef {
    type Target = dyn TopologyFactory;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl std::fmt::Debug for TopoRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TopoRef({})", self.label())
    }
}

impl PartialEq for TopoRef {
    fn eq(&self, other: &Self) -> bool {
        self.label() == other.label()
    }
}

impl LabelRegistry<TopoRef> {
    /// The builtin registry: every stock topology family in its default
    /// parameterisation (a cheap clone of a shared instance).
    pub fn builtin() -> Self {
        TopologyRegistry::builtin_ref().clone()
    }

    /// Borrowed view of the shared builtin registry, built once per
    /// process.
    pub fn builtin_ref() -> &'static TopologyRegistry {
        static BUILTIN: std::sync::OnceLock<TopologyRegistry> = std::sync::OnceLock::new();
        BUILTIN.get_or_init(|| {
            [
                TopoRef::new(RING),
                TopoRef::new(LINE),
                TopoRef::new(Fixed {
                    family: "grid",
                    description:
                        "near-square grid (largest divisor split; primes degenerate to a line)",
                    build: |n| {
                        let (rows, cols) = grid_dims(n);
                        Topology::grid(rows, cols)
                    },
                }),
                TopoRef::new(COMPLETE),
                TopoRef::new(Fixed {
                    family: "star",
                    description: "star with agent 0 at the centre",
                    build: Topology::star,
                }),
                TopoRef::new(RandomTopology { p: 0.3 }),
            ]
            .into_iter()
            .collect()
        })
    }
}

// ---------------------------------------------------------------------------
// Builtin environment families.
// ---------------------------------------------------------------------------

/// Fully benign: every edge available, every agent enabled.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StaticEnvFactory;

impl EnvFactory for StaticEnvFactory {
    fn family(&self) -> &str {
        "static"
    }
    fn description(&self) -> &str {
        "fully benign: every edge available, every agent enabled"
    }
    fn label(&self) -> String {
        "static".into()
    }
    fn can_fragment(&self) -> bool {
        false
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(StaticEnv::new(topology))
    }
    fn instantiate(&self, params: Params) -> Result<EnvRef, String> {
        params.finish(&[])?;
        Ok(EnvRef::new(StaticEnvFactory))
    }
}

/// Independent per-round churn (`churn(e=…,a=…)`).
#[derive(Clone, Copy, Debug)]
struct ChurnEnvFactory {
    p_edge: f64,
    p_agent: f64,
}

impl EnvFactory for ChurnEnvFactory {
    fn family(&self) -> &str {
        "churn"
    }
    fn description(&self) -> &str {
        "independent per-round churn: edge up w.p. e, agent enabled w.p. a"
    }
    fn label(&self) -> String {
        format!("churn(e={},a={})", self.p_edge, self.p_agent)
    }
    fn can_fragment(&self) -> bool {
        self.p_edge < 1.0 || self.p_agent < 1.0
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(RandomChurnEnv::new(topology, self.p_edge, self.p_agent))
    }
    fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
        let p_edge = params.take_probability("e")?.unwrap_or(self.p_edge);
        let p_agent = params.take_probability("a")?.unwrap_or(self.p_agent);
        params.finish(&["e", "a"])?;
        Ok(EnvRef::new(ChurnEnvFactory { p_edge, p_agent }))
    }
}

/// Two-state Markov on/off links (`markov(up=…,down=…)`).
#[derive(Clone, Copy, Debug)]
struct MarkovEnvFactory {
    p_up: f64,
    p_down: f64,
}

impl EnvFactory for MarkovEnvFactory {
    fn family(&self) -> &str {
        "markov"
    }
    fn description(&self) -> &str {
        "two-state Markov on/off links (down→up w.p. up, up→down w.p. down)"
    }
    fn label(&self) -> String {
        format!("markov(up={},down={})", self.p_up, self.p_down)
    }
    fn can_fragment(&self) -> bool {
        // Links start up and only fragment once one goes down.
        self.p_down > 0.0
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(MarkovLinkEnv::new(topology, self.p_up, self.p_down))
    }
    fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
        let p_up = params.take_probability("up")?.unwrap_or(self.p_up);
        let p_down = params.take_probability("down")?.unwrap_or(self.p_down);
        params.finish(&["up", "down"])?;
        Ok(EnvRef::new(MarkovEnvFactory { p_up, p_down }))
    }
}

/// Periodic partition into blocks with periodic global merges
/// (`partition(b=…,t=…)`).
#[derive(Clone, Copy, Debug)]
struct PartitionEnvFactory {
    blocks: usize,
    period: usize,
}

impl EnvFactory for PartitionEnvFactory {
    fn family(&self) -> &str {
        "partition"
    }
    fn description(&self) -> &str {
        "periodic partition into b contiguous blocks, global merge every t rounds"
    }
    fn label(&self) -> String {
        format!("partition(b={},t={})", self.blocks, self.period)
    }
    fn can_fragment(&self) -> bool {
        // A single block never partitions anything.
        self.blocks > 1
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(
            PeriodicPartitionEnv::validated(topology, self.blocks, self.period)
                .expect("`instantiate` takes only positive `b` and `t`"),
        )
    }
    fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
        let blocks = params.take_positive("b")?.unwrap_or(self.blocks);
        let period = params.take_positive("t")?.unwrap_or(self.period);
        params.finish(&["b", "t"])?;
        Ok(EnvRef::new(PartitionEnvFactory { blocks, period }))
    }
}

/// Agent crash/restart faults (`crash(c=…,r=…)`).
#[derive(Clone, Copy, Debug)]
struct CrashEnvFactory {
    p_crash: f64,
    p_restart: f64,
}

impl EnvFactory for CrashEnvFactory {
    fn family(&self) -> &str {
        "crash"
    }
    fn description(&self) -> &str {
        "agent crash/restart faults (crash w.p. c, restart w.p. r)"
    }
    fn label(&self) -> String {
        format!("crash(c={},r={})", self.p_crash, self.p_restart)
    }
    fn can_fragment(&self) -> bool {
        // Agents start up and only drop out if they can crash.
        self.p_crash > 0.0
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(CrashRestartEnv::new(topology, self.p_crash, self.p_restart))
    }
    fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
        let p_crash = params.take_probability("c")?.unwrap_or(self.p_crash);
        let p_restart = params.take_probability("r")?.unwrap_or(self.p_restart);
        params.finish(&["c", "r"])?;
        Ok(EnvRef::new(CrashEnvFactory { p_crash, p_restart }))
    }
}

/// Minimally fair adversary: one edge every `silence + 1` rounds
/// (`adversary(s=…)`).
#[derive(Clone, Copy, Debug)]
struct AdversaryEnvFactory {
    silence: usize,
}

impl EnvFactory for AdversaryEnvFactory {
    fn family(&self) -> &str {
        "adversary"
    }
    fn description(&self) -> &str {
        "minimally fair adversary: one edge every s+1 rounds, silence between"
    }
    fn label(&self) -> String {
        format!("adversary(s={})", self.silence)
    }
    fn can_fragment(&self) -> bool {
        // One edge at a time is maximal fragmentation by construction.
        true
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(AdversarialEnv::new(topology, self.silence))
    }
    fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
        let silence = params.take::<usize>("s")?.unwrap_or(self.silence);
        params.finish(&["s"])?;
        Ok(EnvRef::new(AdversaryEnvFactory { silence }))
    }
}

/// Link churn composed with crash/restart faults
/// (`churn+crash(e=…,c=…,r=…)`).
#[derive(Clone, Copy, Debug)]
struct ChurnPlusCrashEnvFactory {
    p_edge: f64,
    p_crash: f64,
    p_restart: f64,
}

impl EnvFactory for ChurnPlusCrashEnvFactory {
    fn family(&self) -> &str {
        "churn+crash"
    }
    fn description(&self) -> &str {
        "link churn composed with crash/restart faults"
    }
    fn label(&self) -> String {
        format!(
            "churn+crash(e={},c={},r={})",
            self.p_edge, self.p_crash, self.p_restart
        )
    }
    fn can_fragment(&self) -> bool {
        self.p_edge < 1.0 || self.p_crash > 0.0
    }
    fn build(&self, topology: Topology) -> Box<dyn Environment> {
        Box::new(ComposedEnv::new(
            RandomChurnEnv::new(topology.clone(), self.p_edge, 1.0),
            CrashRestartEnv::new(topology, self.p_crash, self.p_restart),
        ))
    }
    fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
        let p_edge = params.take_probability("e")?.unwrap_or(self.p_edge);
        let p_crash = params.take_probability("c")?.unwrap_or(self.p_crash);
        let p_restart = params.take_probability("r")?.unwrap_or(self.p_restart);
        params.finish(&["e", "c", "r"])?;
        Ok(EnvRef::new(ChurnPlusCrashEnvFactory {
            p_edge,
            p_crash,
            p_restart,
        }))
    }
}

// ---------------------------------------------------------------------------
// Builtin topology families.
// ---------------------------------------------------------------------------

/// A parameterless graph family: its label is its family name and `build`
/// makes the graph from the agent count alone.
#[derive(Clone, Copy)]
pub(crate) struct Fixed {
    family: &'static str,
    description: &'static str,
    build: fn(usize) -> Topology,
}

impl TopologyFactory for Fixed {
    fn family(&self) -> &str {
        self.family
    }
    fn description(&self) -> &str {
        self.description
    }
    fn label(&self) -> String {
        self.family.into()
    }
    fn build(&self, n: usize, _rng: &mut dyn RngCore) -> Topology {
        (self.build)(n)
    }
    fn instantiate(&self, params: Params) -> Result<TopoRef, String> {
        params.finish(&[])?;
        Ok(TopoRef::new(*self))
    }
}

/// Cycle on `n` agents — the builder's default topology.
pub(crate) const RING: Fixed = Fixed {
    family: "ring",
    description: "cycle on n agents",
    build: Topology::ring,
};

/// Path on `n` agents — the topology sorting forces.
pub(crate) const LINE: Fixed = Fixed {
    family: "line",
    description: "path on n agents",
    build: Topology::line,
};

/// Complete graph on `n` agents — the topology sum forces.
pub(crate) const COMPLETE: Fixed = Fixed {
    family: "complete",
    description: "complete graph on n agents",
    build: Topology::complete,
};

/// Connected Erdős–Rényi graph with edge probability `p`, re-sampled per
/// trial from the trial's seed (`random(p=…)`).
#[derive(Clone, Copy, Debug)]
struct RandomTopology {
    p: f64,
}

impl TopologyFactory for RandomTopology {
    fn family(&self) -> &str {
        "random"
    }
    fn description(&self) -> &str {
        "connected Erdős–Rényi graph, edge probability p, re-sampled per trial"
    }
    fn label(&self) -> String {
        format!("random(p={})", self.p)
    }
    fn build(&self, n: usize, mut rng: &mut dyn RngCore) -> Topology {
        Topology::random_connected(n, self.p, &mut rng)
    }
    fn instantiate(&self, mut params: Params) -> Result<TopoRef, String> {
        let p = params.take_probability("p")?.unwrap_or(self.p);
        params.finish(&["p"])?;
        Ok(TopoRef::new(RandomTopology { p }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builtin_registries_cover_the_stock_families() {
        assert_eq!(EnvRegistry::builtin().len(), 7);
        assert_eq!(TopologyRegistry::builtin().len(), 6);
        assert_eq!(
            EnvRegistry::builtin().families(),
            vec![
                "adversary",
                "churn",
                "churn+crash",
                "crash",
                "markov",
                "partition",
                "static"
            ]
        );
        assert_eq!(
            TopologyRegistry::builtin().families(),
            vec!["complete", "grid", "line", "random", "ring", "star"]
        );
        assert_eq!(
            crate::Registry::builtin().families(),
            vec![
                "boolean-and",
                "boolean-or",
                "circumscribing-circle",
                "convex-hull",
                "flooding",
                "k-smallest",
                "maximum",
                "minimum",
                "second-smallest",
                "set-union",
                "snapshot",
                "sorting",
                "sum"
            ]
        );
        // Registering a family again replaces its entry.
        let mut algorithms = crate::Registry::new();
        assert!(algorithms.is_empty());
        let minimum = crate::Registry::builtin_ref()
            .resolve("minimum")
            .expect("builtin label");
        algorithms.register(minimum.clone());
        algorithms.register(minimum);
        assert_eq!(algorithms.len(), 1);
    }

    #[test]
    fn every_builtin_label_round_trips_to_the_identical_cell() {
        let envs = EnvRegistry::builtin();
        for entry in envs.iter() {
            let reparsed = envs.resolve(&entry.label()).expect("own label resolves");
            assert_eq!(reparsed.label(), entry.label());
            assert_eq!(reparsed.can_fragment(), entry.can_fragment());
        }
        let topos = TopologyRegistry::builtin();
        for entry in topos.iter() {
            let reparsed = topos.resolve(&entry.label()).expect("own label resolves");
            assert_eq!(reparsed.label(), entry.label());
        }
        let algorithms = crate::Registry::builtin();
        assert_eq!(algorithms.len(), 13);
        for entry in algorithms.iter() {
            let reparsed = algorithms
                .resolve(entry.label())
                .expect("own label resolves");
            assert_eq!(reparsed.label(), entry.label());
            assert_eq!(reparsed.expectation(), entry.expectation());
            assert_eq!(reparsed.forced_topology(), entry.forced_topology());
        }
    }

    #[test]
    fn parameterised_labels_resolve_to_the_named_cell() {
        let envs = EnvRegistry::builtin();
        let cell = envs
            .resolve("churn(e=0.3,a=0.8)")
            .expect("valid churn label");
        assert_eq!(cell.label(), "churn(e=0.3,a=0.8)");
        assert!(cell.can_fragment());
        // Parameters can switch fragmentation off entirely.
        let benign = envs.resolve("churn(e=1,a=1)").expect("valid churn label");
        assert!(!benign.can_fragment());
        // Omitted parameters keep the registered defaults.
        let partial = envs.resolve("churn(e=0.3)").expect("valid churn label");
        assert_eq!(partial.label(), "churn(e=0.3,a=0.9)");
        let topo = TopologyRegistry::builtin()
            .resolve("random(p=0.15)")
            .expect("valid random-topology label");
        assert_eq!(topo.label(), "random(p=0.15)");
    }

    #[test]
    fn resolution_errors_name_the_failure() {
        let envs = EnvRegistry::builtin();
        let err = envs.resolve("nonsense").unwrap_err();
        assert!(err.contains("unknown environment `nonsense`"), "{err}");
        for family in envs.families() {
            assert!(err.contains(&family), "error must list {family}");
        }
        let err = envs.resolve("churn(e=1.5)").unwrap_err();
        assert!(err.contains("`e`"), "{err}");
        assert!(err.contains("probability"), "{err}");
        let err = envs.resolve("churn(q=0.5)").unwrap_err();
        assert!(err.contains("unknown parameter q"), "{err}");
        assert!(err.contains("expected e, a"), "{err}");
        let err = envs.resolve("partition(b=0)").unwrap_err();
        assert!(err.contains("`b` must be at least 1"), "{err}");
        let err = envs.resolve("static(x=1)").unwrap_err();
        assert!(err.contains("unknown parameter x"), "{err}");
        let err = TopologyRegistry::builtin()
            .resolve("random(p=2)")
            .unwrap_err();
        assert!(err.contains("`p`"), "{err}");
        let err = TopologyRegistry::builtin().resolve("torus").unwrap_err();
        assert!(err.contains("unknown topology `torus`"), "{err}");
        // Algorithm labels go through the same grammar: a parameter list
        // on a parameterless family names the parameter, an unknown name
        // lists the registry, and surrounding blanks are trimmed.
        let algorithms = crate::Registry::builtin_ref();
        let err = algorithms.resolve("minimum(k=3)").unwrap_err();
        assert!(err.contains("unknown parameter k"), "{err}");
        assert!(err.contains("expected no parameters"), "{err}");
        let err = algorithms.resolve("nonsense").unwrap_err();
        assert!(
            err.contains("unknown algorithm `nonsense`; registered algorithms:"),
            "{err}"
        );
        assert_eq!(algorithms.iter().count(), 13);
        for algorithm in algorithms.iter() {
            assert!(
                err.contains(algorithm.label()),
                "error must list {algorithm:?}"
            );
        }
        let trimmed = algorithms.resolve(" minimum ").expect("blanks are trimmed");
        assert_eq!(trimmed.label(), "minimum");
    }

    #[test]
    fn builtin_topologies_build_connected_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        for entry in TopologyRegistry::builtin().iter() {
            let topo = entry.build(12, &mut rng);
            assert_eq!(topo.agent_count(), 12, "{}", entry.label());
            assert!(topo.is_connected(), "{}", entry.label());
        }
    }

    #[test]
    fn user_families_register_and_resolve_by_label() {
        // A user environment: every edge up on even rounds, none on odd
        // rounds — registered without touching any enum.
        struct Blinker {
            period: usize,
        }
        struct BlinkerEnv {
            topology: Topology,
            period: usize,
            tick: usize,
        }
        impl Environment for BlinkerEnv {
            fn topology(&self) -> &Topology {
                &self.topology
            }
            fn step(&mut self, _rng: &mut dyn RngCore) -> selfsim_env::EnvState {
                let on = (self.tick / self.period).is_multiple_of(2);
                self.tick += 1;
                if on {
                    selfsim_env::EnvState::fully_enabled(&self.topology)
                } else {
                    selfsim_env::EnvState::fully_disabled(self.topology.agent_count())
                }
            }
        }
        impl EnvFactory for Blinker {
            fn family(&self) -> &str {
                "blinker"
            }
            fn label(&self) -> String {
                format!("blinker(t={})", self.period)
            }
            fn can_fragment(&self) -> bool {
                false
            }
            fn build(&self, topology: Topology) -> Box<dyn Environment> {
                Box::new(BlinkerEnv {
                    topology,
                    period: self.period,
                    tick: 0,
                })
            }
            fn instantiate(&self, mut params: Params) -> Result<EnvRef, String> {
                let period = params.take_positive("t")?.unwrap_or(self.period);
                params.finish(&["t"])?;
                Ok(EnvRef::new(Blinker { period }))
            }
        }
        let mut registry = EnvRegistry::builtin();
        registry.register(EnvRef::new(Blinker { period: 2 }));
        assert_eq!(registry.len(), 8);
        let cell = registry.resolve("blinker(t=5)").expect("registered above");
        assert_eq!(cell.label(), "blinker(t=5)");
        let mut env = cell.build(Topology::ring(4));
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(env.step(&mut rng).enabled_edges().len(), 4);
    }
}
