//! Environment processes: generators of environment-state sequences.
//!
//! The paper places *no* constraints on individual environment transitions;
//! only the fairness assumption `□◇Q` restricts infinite behaviours.  Each
//! implementation below is one point in that design space, from a fully
//! benign static network to a minimally fair adversary.  All of them are
//! deterministic given the caller-supplied RNG, so simulations are
//! reproducible.

use rand::Rng;

use crate::{AgentId, Edge, EnvState, Topology};

/// An incremental connectivity update: the edges and agents whose enabled
/// status flipped since the previous environment state.
///
/// Produced by [`Environment::step_delta`] and consumed by
/// [`EnvState::apply_changes`]; the lists are disjoint (an edge is either
/// up or down, never both) and may be in any order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnvChanges {
    /// Edges that became available.
    pub edges_up: Vec<Edge>,
    /// Edges that became unavailable.
    pub edges_down: Vec<Edge>,
    /// Agents that became enabled.
    pub agents_up: Vec<AgentId>,
    /// Agents that became disabled.
    pub agents_down: Vec<AgentId>,
}

impl EnvChanges {
    /// `true` when no edge or agent flipped.
    pub fn is_empty(&self) -> bool {
        self.edges_up.is_empty()
            && self.edges_down.is_empty()
            && self.agents_up.is_empty()
            && self.agents_down.is_empty()
    }
}

/// One environment transition expressed incrementally, for
/// [`Connectivity`](crate::Connectivity), which maintains connectivity
/// across rounds instead of rescanning a full [`EnvState`] every tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnvDelta {
    /// Connectivity is identical to the previous step.
    Unchanged,
    /// Every topology edge is available and every agent enabled — the
    /// benign state, expressed without materialising the edge set (which
    /// matters for symbolic cliques).
    AllEnabled,
    /// The listed edges/agents flipped relative to the previous step.
    Changes(EnvChanges),
    /// A full rescan: the complete next state, with no relation to the
    /// previous one.  This is the universal fallback.
    Full(EnvState),
}

/// An environment process: at every system step it produces the next
/// environment state `G`.
///
/// Implementations may use the supplied RNG (probabilistic churn) or ignore
/// it (deterministic schedules such as the adversary).  The topology is the
/// set of edges that can ever be enabled; the environment never enables an
/// edge outside it.
pub trait Environment {
    /// The underlying communication graph.
    fn topology(&self) -> &Topology;

    /// Produces the environment state for the next step.
    fn step(&mut self, rng: &mut dyn rand::RngCore) -> EnvState;

    /// Produces the next transition as an [`EnvDelta`] relative to the
    /// state this method last produced (the first call is absolute).
    ///
    /// **Contract:** a run must use either `step` or `step_delta`
    /// exclusively, and the two must consume *identical* RNG streams and
    /// describe identical state sequences — folding the deltas with
    /// [`EnvState::apply_changes`] reproduces `step`'s states byte for
    /// byte.  That equivalence is what lets every runtime and baseline
    /// read a [`Connectivity`](crate::Connectivity) fold of the deltas in
    /// place of `step`'s states, and the `delta_equivalence` proptests pin
    /// it for every builtin.
    ///
    /// The builtins meet the contract by construction: churn and Markov
    /// links compute one transition for both methods, and the partition's
    /// `step_delta` takes its state from `step`.  A custom environment
    /// implements `step`, and the default here wraps it as a full rescan,
    /// so it is delta-capable for free.
    fn step_delta(&mut self, rng: &mut dyn rand::RngCore) -> EnvDelta {
        EnvDelta::Full(self.step(rng))
    }

    /// A short human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "environment"
    }
}

/// A benign, static environment: every topology edge is always available and
/// every agent is always enabled.
///
/// Under this environment a self-similar algorithm behaves like a classical
/// distributed algorithm on a fixed network; it is the "efficient when
/// conditions permit" end of the paper's spectrum.
#[derive(Clone, Debug)]
pub struct StaticEnv {
    topology: Topology,
}

impl StaticEnv {
    /// Creates a static environment over `topology`.
    pub fn new(topology: Topology) -> Self {
        StaticEnv { topology }
    }
}

impl Environment for StaticEnv {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn step(&mut self, _rng: &mut dyn rand::RngCore) -> EnvState {
        EnvState::fully_enabled(&self.topology)
    }

    fn step_delta(&mut self, _rng: &mut dyn rand::RngCore) -> EnvDelta {
        // Symbolic, like `step` (which consumes no RNG either): the benign
        // state never needs the edge set expanded.
        EnvDelta::AllEnabled
    }

    fn name(&self) -> &'static str {
        "static"
    }
}

/// The next-state rule of one kind of two-state chain.
#[derive(Clone, Copy, Debug)]
enum Rule {
    /// Memoryless: on with probability `p`, whatever the current state.
    Fresh(f64),
    /// A two-state Markov chain: `off → on` with probability `p_on`,
    /// `on → off` with probability `p_off`.
    Markov { p_on: f64, p_off: f64 },
    /// Never changes, and draws nothing.
    Fixed,
}

impl Rule {
    fn next(self, rng: &mut dyn rand::RngCore, on: bool) -> bool {
        match self {
            Rule::Fresh(p) => rng.gen_bool(p),
            Rule::Markov { p_off, .. } if on => !rng.gen_bool(p_off),
            Rule::Markov { p_on, .. } => rng.gen_bool(p_on),
            Rule::Fixed => on,
        }
    }
}

/// Per-element two-state chains, the kernel that churn, Markov links and
/// crash/restart share, each with its own rules: one enabled flag per
/// topology edge (sorted order) and per agent (ascending order), the
/// orders the draws are made in.
#[derive(Clone, Debug)]
struct Chains {
    edges: Vec<bool>,
    edge_rule: Rule,
    agents: Vec<bool>,
    agent_rule: Rule,
    // True once a transition has been emitted, so deltas have a base.
    based: bool,
}

impl Chains {
    /// One transition: each edge chain, then each agent chain, draws once
    /// through its rule.  Returns the flips.
    fn transition(&mut self, topology: &Topology, rng: &mut dyn rand::RngCore) -> EnvChanges {
        let mut changes = EnvChanges::default();
        let (edge_rule, agent_rule) = (self.edge_rule, self.agent_rule);
        flip(
            &mut self.edges,
            topology.edges().iter().copied(),
            |on| edge_rule.next(rng, on),
            (&mut changes.edges_up, &mut changes.edges_down),
        );
        flip(
            &mut self.agents,
            topology.agents(),
            |on| agent_rule.next(rng, on),
            (&mut changes.agents_up, &mut changes.agents_down),
        );
        changes
    }

    fn step(&mut self, topology: &Topology, rng: &mut dyn rand::RngCore) -> EnvState {
        self.transition(topology, rng);
        EnvState::new(
            topology.agent_count(),
            enabled(&self.edges, topology.edges().iter().copied()),
            enabled(&self.agents, topology.agents()),
        )
    }

    /// The same transition as [`Chains::step`], as a delta: the flips,
    /// except that the first transition is absolute (deltas need a base).
    fn step_delta(&mut self, topology: &Topology, rng: &mut dyn rand::RngCore) -> EnvDelta {
        if !std::mem::replace(&mut self.based, true) {
            return EnvDelta::Full(self.step(topology, rng));
        }
        let changes = self.transition(topology, rng);
        if changes.is_empty() {
            EnvDelta::Unchanged
        } else {
            EnvDelta::Changes(changes)
        }
    }
}

/// The one flip loop: draws each flag once through `next(on)` and pushes
/// the element of every flag that flips onto `up` or `down`.
fn flip<T>(
    flags: &mut [bool],
    elements: impl Iterator<Item = T>,
    mut next: impl FnMut(bool) -> bool,
    (up, down): (&mut Vec<T>, &mut Vec<T>),
) {
    for (on, element) in flags.iter_mut().zip(elements) {
        let now = next(*on);
        if now != *on {
            *on = now;
            if now {
                up.push(element);
            } else {
                down.push(element);
            }
        }
    }
}

/// The elements whose flag is on.
fn enabled<'a, T: 'a>(
    flags: &'a [bool],
    elements: impl Iterator<Item = T> + 'a,
) -> impl Iterator<Item = T> + 'a {
    elements
        .zip(flags)
        .filter_map(|(element, &on)| on.then_some(element))
}

/// Independent random churn: at each step every topology edge is available
/// with probability `p_edge` and every agent is enabled with probability
/// `p_agent`, independently of everything else.
///
/// With any `p_edge, p_agent > 0` every fairness predicate `Q_e` holds
/// infinitely often with probability 1, so assumption (2) is satisfied
/// almost surely.
#[derive(Clone, Debug)]
pub struct RandomChurnEnv {
    topology: Topology,
    chains: Chains,
}

impl RandomChurnEnv {
    /// Creates a churn environment.
    ///
    /// # Panics
    ///
    /// Panics with the [`RandomChurnEnv::validated`] message when either
    /// probability is outside `[0, 1]` (they used to be silently clamped,
    /// which made `churn(e=1.7,…)` report a cell that never ran).  Callers
    /// handling untrusted input (the CLI, the environment registry)
    /// validate first.
    pub fn new(topology: Topology, p_edge: f64, p_agent: f64) -> Self {
        Self::validated(topology, p_edge, p_agent)
            .unwrap_or_else(|message| panic!("RandomChurnEnv: {message}"))
    }

    /// Creates a churn environment, naming the offending field when a
    /// probability is out of range.
    pub fn validated(topology: Topology, p_edge: f64, p_agent: f64) -> Result<Self, String> {
        let chains = Chains {
            edges: vec![false; topology.edge_count()],
            edge_rule: Rule::Fresh(crate::validate_probability("p_edge", p_edge)?),
            agents: vec![false; topology.agent_count()],
            agent_rule: Rule::Fresh(crate::validate_probability("p_agent", p_agent)?),
            based: false,
        };
        Ok(RandomChurnEnv { topology, chains })
    }
}

impl Environment for RandomChurnEnv {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn step(&mut self, rng: &mut dyn rand::RngCore) -> EnvState {
        self.chains.step(&self.topology, rng)
    }

    fn step_delta(&mut self, rng: &mut dyn rand::RngCore) -> EnvDelta {
        self.chains.step_delta(&self.topology, rng)
    }

    fn name(&self) -> &'static str {
        "random-churn"
    }
}

/// Markov on/off links: each edge is an independent two-state Markov chain
/// (`down → up` with probability `p_up`, `up → down` with probability
/// `p_down`).  Models wireless links with correlated-in-time outages, which
/// independent churn does not capture.
#[derive(Clone, Debug)]
pub struct MarkovLinkEnv {
    topology: Topology,
    chains: Chains,
}

impl MarkovLinkEnv {
    /// Creates a Markov link environment with all links initially up.
    ///
    /// # Panics
    ///
    /// Panics with the [`MarkovLinkEnv::validated`] message when either
    /// probability is outside `[0, 1]`.
    pub fn new(topology: Topology, p_up: f64, p_down: f64) -> Self {
        Self::validated(topology, p_up, p_down)
            .unwrap_or_else(|message| panic!("MarkovLinkEnv: {message}"))
    }

    /// Creates a Markov link environment, naming the offending field when
    /// a probability is out of range.
    pub fn validated(topology: Topology, p_up: f64, p_down: f64) -> Result<Self, String> {
        let chains = Chains {
            edges: vec![true; topology.edge_count()],
            edge_rule: Rule::Markov {
                p_on: crate::validate_probability("p_up", p_up)?,
                p_off: crate::validate_probability("p_down", p_down)?,
            },
            agents: vec![true; topology.agent_count()],
            agent_rule: Rule::Fixed,
            based: false,
        };
        Ok(MarkovLinkEnv { topology, chains })
    }

    /// Creates a Markov link environment with all links initially down.
    pub fn new_all_down(topology: Topology, p_up: f64, p_down: f64) -> Self {
        let mut env = Self::new(topology, p_up, p_down);
        env.chains.edges.fill(false);
        env
    }
}

impl Environment for MarkovLinkEnv {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn step(&mut self, rng: &mut dyn rand::RngCore) -> EnvState {
        self.chains.step(&self.topology, rng)
    }

    fn step_delta(&mut self, rng: &mut dyn rand::RngCore) -> EnvDelta {
        self.chains.step_delta(&self.topology, rng)
    }

    fn name(&self) -> &'static str {
        "markov-links"
    }
}

/// Periodic partitions: the agent set is split into `blocks` contiguous
/// blocks; during a partitioned phase only intra-block topology edges are
/// available.  Every `period` steps one *merge* step occurs in which all
/// topology edges are available, which is what makes every `Q_e` recur.
///
/// Models a network that is split most of the time (e.g. teams out of radio
/// range) with occasional global connectivity.
#[derive(Clone, Debug)]
pub struct PeriodicPartitionEnv {
    topology: Topology,
    period: usize,
    tick: usize,
    // The two phase states and the cross-block edges that flip at every
    // phase boundary are pure functions of (topology, blocks), so they are
    // computed once at construction (setup, not simulation time); `step`
    // serves O(1) clones of the `Arc`-backed states from then on.
    cross: Vec<Edge>,
    partitioned: EnvState,
    merged: EnvState,
}

impl PeriodicPartitionEnv {
    /// Creates a periodic-partition environment.
    ///
    /// # Panics
    ///
    /// Panics with the [`PeriodicPartitionEnv::validated`] message if
    /// `blocks` is zero or `period` is zero.
    pub fn new(topology: Topology, blocks: usize, period: usize) -> Self {
        Self::validated(topology, blocks, period).expect("PeriodicPartitionEnv")
    }

    /// Creates a periodic-partition environment, naming the offending
    /// field when `blocks` or `period` is zero.
    pub fn validated(topology: Topology, blocks: usize, period: usize) -> Result<Self, String> {
        if blocks == 0 {
            return Err("blocks must be positive, got 0".to_string());
        }
        if period == 0 {
            return Err("period must be positive, got 0".to_string());
        }
        let n = topology.agent_count();
        let block_size = n.div_ceil(blocks).max(1);
        let block_of = |agent: AgentId| agent.index() / block_size;
        // One pass splits the sorted edges into two sorted lists; both
        // states share one agent array, and the merged state aliases the
        // topology's edge array.
        let (intra, cross): (Vec<Edge>, Vec<Edge>) = topology
            .edges()
            .iter()
            .partition(|e| block_of(e.lo()) == block_of(e.hi()));
        let merged = EnvState::fully_enabled(&topology);
        let partitioned = merged.with_enabled_edges(intra);
        Ok(PeriodicPartitionEnv {
            topology,
            period,
            tick: 0,
            cross,
            partitioned,
            merged,
        })
    }

    /// The phase rule: whether step number `tick` (from 0) is a merge step.
    fn merges(&self, tick: usize) -> bool {
        tick % self.period == self.period - 1
    }
}

impl Environment for PeriodicPartitionEnv {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn step(&mut self, _rng: &mut dyn rand::RngCore) -> EnvState {
        let merge_step = self.merges(self.tick);
        self.tick += 1;
        if merge_step {
            self.merged.clone()
        } else {
            self.partitioned.clone()
        }
    }

    fn step_delta(&mut self, rng: &mut dyn rand::RngCore) -> EnvDelta {
        // The state is a pure function of the phase; within a phase nothing
        // changes, and a phase boundary flips exactly the cross-block edges
        // (none when there is one block).  The first state is absolute.
        let state = self.step(rng);
        if self.tick == 1 {
            return EnvDelta::Full(state);
        }
        let merging = self.merges(self.tick - 1);
        if merging == self.merges(self.tick - 2) || self.cross.is_empty() {
            return EnvDelta::Unchanged;
        }
        let mut changes = EnvChanges::default();
        if merging {
            changes.edges_up = self.cross.clone();
        } else {
            changes.edges_down = self.cross.clone();
        }
        EnvDelta::Changes(changes)
    }

    fn name(&self) -> &'static str {
        "periodic-partition"
    }
}

/// Crash/restart faults: each agent is an independent two-state Markov chain
/// (`down → up` with probability `p_restart`, `up → down` with probability
/// `p_crash`).  All topology edges between two *up* agents are available.
///
/// A crashed agent is *disabled* in the paper's sense: it takes no steps and
/// its state is preserved until it restarts (battery exhaustion and
/// recharge, in the paper's motivating scenario).
#[derive(Clone, Debug)]
pub struct CrashRestartEnv {
    topology: Topology,
    // Edges follow their endpoints, so only the agents are chains.
    chains: Chains,
}

impl CrashRestartEnv {
    /// Creates a crash/restart environment with all agents initially up.
    ///
    /// # Panics
    ///
    /// Panics with the [`CrashRestartEnv::validated`] message when either
    /// probability is outside `[0, 1]`.
    pub fn new(topology: Topology, p_crash: f64, p_restart: f64) -> Self {
        Self::validated(topology, p_crash, p_restart)
            .unwrap_or_else(|message| panic!("CrashRestartEnv: {message}"))
    }

    /// Creates a crash/restart environment, naming the offending field
    /// when a probability is out of range.
    pub fn validated(topology: Topology, p_crash: f64, p_restart: f64) -> Result<Self, String> {
        let p_off = crate::validate_probability("p_crash", p_crash)?;
        let p_on = crate::validate_probability("p_restart", p_restart)?;
        let chains = Chains {
            edges: Vec::new(),
            edge_rule: Rule::Fixed,
            agents: vec![true; topology.agent_count()],
            agent_rule: Rule::Markov { p_on, p_off },
            based: false,
        };
        Ok(CrashRestartEnv { topology, chains })
    }
}

impl Environment for CrashRestartEnv {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    // No `step_delta` override: an agent flip also flips the agent's
    // edges, so deltas stay the default full rescan.
    fn step(&mut self, rng: &mut dyn rand::RngCore) -> EnvState {
        self.chains.transition(&self.topology, rng);
        let up = &self.chains.agents;
        let is_up = |a: AgentId| up.get(a.index()) == Some(&true);
        EnvState::new(
            self.topology.agent_count(),
            self.topology
                .edges()
                .iter()
                .copied()
                .filter(|e| is_up(e.lo()) && is_up(e.hi())),
            enabled(up, self.topology.agents()),
        )
    }

    fn name(&self) -> &'static str {
        "crash-restart"
    }
}

/// A minimally fair adversary: it keeps the system as disconnected as it can
/// while still satisfying `□◇Q_e` for every topology edge.
///
/// Concretely it cycles through the topology edges and, every
/// `silence + 1` steps, enables exactly one edge (and only its two
/// endpoints); in the intervening `silence` steps nothing is enabled at all.
/// This is the slowest environment against which the paper's algorithms must
/// still converge, and is the worst case used in the adaptivity experiments.
#[derive(Clone, Debug)]
pub struct AdversarialEnv {
    topology: Topology,
    silence: usize,
    tick: usize,
}

impl AdversarialEnv {
    /// Creates an adversary over `topology` that stays silent for `silence`
    /// steps between consecutive single-edge activations.
    pub fn new(topology: Topology, silence: usize) -> Self {
        AdversarialEnv {
            topology,
            silence,
            tick: 0,
        }
    }
}

impl Environment for AdversarialEnv {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn step(&mut self, _rng: &mut dyn rand::RngCore) -> EnvState {
        let n = self.topology.agent_count();
        let tick = self.tick;
        self.tick += 1;
        // Tick `tick` opens cycle `tick / (silence + 1)`.  At the largest
        // silence the cycle is longer than any run, so only tick 0 opens one.
        let opened = match self.silence.checked_add(1) {
            Some(cycle) => tick.is_multiple_of(cycle).then(|| tick / cycle),
            None => (tick == 0).then_some(0),
        };
        // Cycle `c` enables the topology's `c mod |E|`-th sorted edge, and
        // an edgeless topology is always silent.
        let edges = self.topology.edges();
        let picked = opened.and_then(|cycle| edges.get(cycle.checked_rem(edges.len())?));
        let Some(&edge) = picked else {
            return EnvState::fully_disabled(n);
        };
        EnvState::new(n, [edge], [edge.lo(), edge.hi()])
    }

    fn name(&self) -> &'static str {
        "adversarial"
    }
}

/// The conjunction of two environments over the same topology: an edge or
/// agent is enabled only when both components enable it.
///
/// Useful to combine orthogonal failure modes, e.g. link churn *and* agent
/// crashes.  Note that the composition may violate a fairness assumption
/// that each component satisfies individually; the experiment harness always
/// re-checks `□◇Q` on the generated trace.
pub struct ComposedEnv<E1, E2> {
    first: E1,
    second: E2,
}

impl<E1: Environment, E2: Environment> ComposedEnv<E1, E2> {
    /// Composes two environments.
    ///
    /// # Panics
    ///
    /// Panics if the two environments disagree on the number of agents.
    pub fn new(first: E1, second: E2) -> Self {
        assert_eq!(
            first.topology().agent_count(),
            second.topology().agent_count(),
            "composed environments must have the same agent count"
        );
        ComposedEnv { first, second }
    }
}

impl<E1: Environment, E2: Environment> Environment for ComposedEnv<E1, E2> {
    fn topology(&self) -> &Topology {
        self.first.topology()
    }

    fn step(&mut self, rng: &mut dyn rand::RngCore) -> EnvState {
        let a = self.first.step(rng);
        let b = self.second.step(rng);
        a.intersect(&b)
    }

    fn name(&self) -> &'static str {
        "composed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn static_env_is_always_fully_enabled() {
        let mut env = StaticEnv::new(Topology::ring(5));
        let mut r = rng();
        for _ in 0..10 {
            let s = env.step(&mut r);
            assert_eq!(s, EnvState::fully_enabled(&Topology::ring(5)));
            assert_eq!(s.groups(), vec![(0..5).map(AgentId).collect::<Vec<_>>()]);
        }
        assert_eq!(env.name(), "static");
    }

    #[test]
    fn zero_probability_churn_disables_everything() {
        let mut env = RandomChurnEnv::new(Topology::complete(4), 0.0, 0.0);
        let s = env.step(&mut rng());
        assert!(s.enabled_edges().is_empty());
        assert!(s.enabled_agents().is_empty());
    }

    #[test]
    fn full_probability_churn_enables_everything() {
        let mut env = RandomChurnEnv::new(Topology::complete(4), 1.0, 1.0);
        let s = env.step(&mut rng());
        assert_eq!(s.enabled_edges().len(), 6);
        assert_eq!(s.enabled_agents().len(), 4);
    }

    #[test]
    fn out_of_range_probabilities_are_rejected_with_the_field_named() {
        // Construction used to silently clamp (churn(e=7) quietly became
        // e=1 — a cell label that lied about what ran); now the offending
        // field is named at construction.
        let err = RandomChurnEnv::validated(Topology::line(3), 7.0, 0.5).unwrap_err();
        assert!(err.contains("p_edge"), "{err}");
        assert!(err.contains("7"), "{err}");
        let err = RandomChurnEnv::validated(Topology::line(3), 0.5, -2.0).unwrap_err();
        assert!(err.contains("p_agent"), "{err}");
        let err = MarkovLinkEnv::validated(Topology::line(3), 1.5, 0.5).unwrap_err();
        assert!(err.contains("p_up"), "{err}");
        let err = CrashRestartEnv::validated(Topology::line(3), 0.5, 2.0).unwrap_err();
        assert!(err.contains("p_restart"), "{err}");
        // Boundary values remain valid.
        assert!(RandomChurnEnv::validated(Topology::line(3), 0.0, 1.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "p_edge must be a probability")]
    fn churn_new_panics_on_out_of_range_probability() {
        let _ = RandomChurnEnv::new(Topology::line(3), 7.0, 0.5);
    }

    #[test]
    fn churn_eventually_enables_every_edge() {
        let topo = Topology::line(5);
        let mut env = RandomChurnEnv::new(topo.clone(), 0.3, 1.0);
        let mut r = rng();
        let mut seen: BTreeSet<Edge> = BTreeSet::new();
        for _ in 0..200 {
            let s = env.step(&mut r);
            seen.extend(s.enabled_edges().iter().copied());
        }
        assert!(seen.iter().eq(topo.edges()));
    }

    #[test]
    fn markov_links_start_up_and_stay_up_with_zero_down_probability() {
        let mut env = MarkovLinkEnv::new(Topology::ring(4), 0.5, 0.0);
        let mut r = rng();
        for _ in 0..5 {
            let s = env.step(&mut r);
            assert_eq!(s.enabled_edges().len(), 4);
        }
    }

    #[test]
    fn markov_links_all_down_never_recover_with_zero_up_probability() {
        let mut env = MarkovLinkEnv::new_all_down(Topology::ring(4), 0.0, 0.3);
        let mut r = rng();
        for _ in 0..5 {
            let s = env.step(&mut r);
            assert!(s.enabled_edges().is_empty());
        }
    }

    #[test]
    fn periodic_partition_merges_every_period() {
        let topo = Topology::complete(6);
        let mut env = PeriodicPartitionEnv::new(topo, 2, 4);
        let mut r = rng();
        let mut merged_steps = Vec::new();
        for step in 0..8 {
            let s = env.step(&mut r);
            if s.groups() == [(0..6).map(AgentId).collect::<Vec<_>>()] {
                merged_steps.push(step);
            } else {
                // During partitioned phases there are exactly two groups.
                assert_eq!(s.groups().len(), 2);
            }
        }
        assert_eq!(merged_steps, vec![3, 7]);
    }

    #[test]
    fn periodic_partition_states_match_hand_built_ones() {
        // n = 10 is not a multiple of 3 blocks; ring, grid and clique
        // cross the block boundaries in different patterns.
        for topo in [
            Topology::ring(10),
            Topology::grid(2, 5),
            Topology::complete(10),
        ] {
            for blocks in [1, 2, 3] {
                let env = PeriodicPartitionEnv::new(topo.clone(), blocks, 4);
                let block_of = |a: AgentId| a.index() / 10usize.div_ceil(blocks);
                let (intra, cross): (Vec<Edge>, Vec<Edge>) = topo
                    .edges()
                    .iter()
                    .partition(|e| block_of(e.lo()) == block_of(e.hi()));
                let agents = || topo.agents();
                assert_eq!(env.partitioned, EnvState::new(10, intra, agents()));
                assert_eq!(
                    env.merged,
                    EnvState::new(10, topo.edges().iter().copied(), agents())
                );
                assert_eq!(env.cross, cross, "{topo:?}, {blocks} blocks");
                assert_eq!(
                    env.merged.enabled_agents(),
                    env.partitioned.enabled_agents()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn periodic_partition_rejects_zero_period() {
        let _ = PeriodicPartitionEnv::new(Topology::line(2), 1, 0);
    }

    #[test]
    fn periodic_partition_validated_names_the_zero_field() {
        let err =
            PeriodicPartitionEnv::validated(Topology::line(2), 0, 4).expect_err("zero blocks");
        assert!(err.contains("blocks"), "{err}");
        let err =
            PeriodicPartitionEnv::validated(Topology::line(2), 1, 0).expect_err("zero period");
        assert!(err.contains("period"), "{err}");
        assert!(PeriodicPartitionEnv::validated(Topology::line(2), 1, 1).is_ok());
    }

    #[test]
    fn crash_restart_disables_crashed_agents() {
        let mut env = CrashRestartEnv::new(Topology::complete(5), 1.0, 0.0);
        let mut r = rng();
        let s = env.step(&mut r);
        // Everyone crashes immediately and never restarts.
        assert!(s.enabled_agents().is_empty());
        let s2 = env.step(&mut r);
        assert!(s2.enabled_agents().is_empty());
    }

    #[test]
    fn crash_free_environment_keeps_all_agents_up() {
        let mut env = CrashRestartEnv::new(Topology::complete(5), 0.0, 1.0);
        let s = env.step(&mut rng());
        assert_eq!(s.enabled_agents().len(), 5);
        assert_eq!(s.groups(), vec![(0..5).map(AgentId).collect::<Vec<_>>()]);
    }

    #[test]
    fn adversary_enables_one_edge_per_cycle() {
        let topo = Topology::line(4); // edges 0-1, 1-2, 2-3
        let mut env = AdversarialEnv::new(topo.clone(), 2);
        let mut r = rng();
        let mut active_edges = Vec::new();
        for _ in 0..9 {
            let s = env.step(&mut r);
            assert!(s.enabled_edges().len() <= 1);
            if let Some(e) = s.enabled_edges().iter().next() {
                // Only the endpoints of the active edge are enabled.
                assert_eq!(s.enabled_agents().len(), 2);
                active_edges.push(*e);
            } else {
                assert!(s.enabled_agents().is_empty());
            }
        }
        // Over 9 steps with silence 2 (cycle length 3) we see 3 activations,
        // one per topology edge, in order.
        assert_eq!(active_edges.len(), 3);
        let expected: Vec<Edge> = topo.edges().to_vec();
        assert_eq!(active_edges, expected);
    }

    #[test]
    fn adversary_with_the_largest_silence_activates_only_at_tick_zero() {
        let topo = Topology::line(3);
        let mut env = AdversarialEnv::new(topo.clone(), usize::MAX);
        let mut r = rng();
        let first = env.step(&mut r);
        let expected: Vec<Edge> = topo.edges().iter().take(1).copied().collect();
        assert_eq!(first.enabled_edges().to_vec(), expected);
        for _ in 0..5 {
            assert!(env.step(&mut r).enabled_edges().is_empty());
        }
    }

    #[test]
    fn adversary_over_edgeless_topology_is_always_silent() {
        let mut env = AdversarialEnv::new(Topology::empty(3), 0);
        let s = env.step(&mut rng());
        assert!(s.enabled_edges().is_empty());
    }

    #[test]
    fn composed_env_intersects_components() {
        let topo = Topology::complete(4);
        let churn = RandomChurnEnv::new(topo.clone(), 1.0, 1.0);
        let crash = CrashRestartEnv::new(topo.clone(), 1.0, 0.0); // everyone down
        let mut env = ComposedEnv::new(churn, crash);
        let s = env.step(&mut rng());
        assert!(s.enabled_agents().is_empty());
        assert_eq!(env.name(), "composed");
        assert_eq!(env.topology().agent_count(), 4);
    }

    #[test]
    #[should_panic(expected = "same agent count")]
    fn composed_env_rejects_mismatched_sizes() {
        let a = StaticEnv::new(Topology::line(3));
        let b = StaticEnv::new(Topology::line(4));
        let _ = ComposedEnv::new(a, b);
    }

    // Folds one delta into the tracked state the way a delta consumer
    // (the event-driven runtime) does.
    fn apply_delta(current: &mut Option<EnvState>, delta: EnvDelta, topo: &Topology) {
        match delta {
            EnvDelta::Unchanged => {
                assert!(current.is_some(), "Unchanged before any base state");
            }
            EnvDelta::AllEnabled => *current = Some(EnvState::fully_enabled(topo)),
            EnvDelta::Full(s) => *current = Some(s),
            EnvDelta::Changes(c) => current
                .as_mut()
                .expect("Changes before any base state")
                .apply_changes(&c),
        }
    }

    #[test]
    fn static_delta_is_symbolically_all_enabled() {
        let mut env = StaticEnv::new(Topology::ring(5));
        let mut r = rng();
        for _ in 0..3 {
            assert_eq!(env.step_delta(&mut r), EnvDelta::AllEnabled);
        }
    }

    #[test]
    fn markov_deltas_match_full_rescans() {
        let topo = Topology::ring(8);
        let mut by_step = MarkovLinkEnv::new(topo.clone(), 0.4, 0.4);
        let mut by_delta = by_step.clone();
        let (mut r1, mut r2) = (rng(), rng());
        let mut current: Option<EnvState> = None;
        let mut saw_changes = false;
        for _ in 0..30 {
            let expected = by_step.step(&mut r1);
            let delta = by_delta.step_delta(&mut r2);
            saw_changes |= matches!(delta, EnvDelta::Changes(_));
            apply_delta(&mut current, delta, &topo);
            assert_eq!(current.as_ref(), Some(&expected));
        }
        assert!(saw_changes, "p=0.4 churn over 30 rounds must flip an edge");
    }

    #[test]
    fn partition_deltas_are_unchanged_within_phases() {
        let topo = Topology::complete(6);
        let mut by_step = PeriodicPartitionEnv::new(topo.clone(), 2, 4);
        let mut by_delta = PeriodicPartitionEnv::new(topo.clone(), 2, 4);
        let (mut r1, mut r2) = (rng(), rng());
        let mut current: Option<EnvState> = None;
        let mut unchanged = 0;
        for _ in 0..12 {
            let expected = by_step.step(&mut r1);
            let delta = by_delta.step_delta(&mut r2);
            if delta == EnvDelta::Unchanged {
                unchanged += 1;
            }
            apply_delta(&mut current, delta, &topo);
            assert_eq!(current.as_ref(), Some(&expected));
        }
        // 12 rounds at period 4: only the merge rounds and the returns to
        // partition force a rescan; the rest are free.
        assert_eq!(unchanged, 6);
    }

    #[test]
    fn default_step_delta_falls_back_to_full_rescan() {
        let topo = Topology::complete(5);
        let mut by_step = CrashRestartEnv::new(topo.clone(), 0.3, 0.5);
        let mut by_delta = by_step.clone();
        let (mut r1, mut r2) = (rng(), rng());
        for _ in 0..10 {
            let expected = by_step.step(&mut r1);
            assert_eq!(by_delta.step_delta(&mut r2), EnvDelta::Full(expected));
        }
    }
}
