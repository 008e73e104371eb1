//! Instantaneous environment states and the agent grouping they induce.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::topology::connected_components;
use crate::{AgentId, Edge, EnvChanges, Topology};

/// One state `G` of the environment: which edges are currently available
/// for communication and which agents are currently enabled.
///
/// An [`EnvState`] induces a partition of the agents into *groups*: the
/// connected components of the enabled subgraph restricted to enabled
/// agents.  Each group can execute one collaborative step of the group
/// transition relation `R`; disabled agents are frozen (they take no step
/// and keep their state), which realises the paper's reflexivity requirement
/// for them.
///
/// The enabled sets are held behind `Arc` and mutated copy-on-write, so
/// cloning a state — which environments do per round — is O(1)
/// and never forces a million-entry set copy.  Equality still compares the
/// set *contents* (with a pointer-identity fast path).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnvState {
    agent_count: usize,
    enabled_edges: Arc<BTreeSet<Edge>>,
    enabled_agents: Arc<BTreeSet<AgentId>>,
}

impl EnvState {
    /// Creates an environment state for `agent_count` agents with the given
    /// enabled edges and enabled agents.
    ///
    /// Edges whose endpoints are out of range are rejected with a panic, as
    /// are enabled agents out of range.
    pub fn new(
        agent_count: usize,
        enabled_edges: impl IntoIterator<Item = Edge>,
        enabled_agents: impl IntoIterator<Item = AgentId>,
    ) -> Self {
        let enabled_edges: BTreeSet<Edge> = enabled_edges.into_iter().collect();
        let enabled_agents: BTreeSet<AgentId> = enabled_agents.into_iter().collect();
        for e in &enabled_edges {
            assert!(
                e.hi().index() < agent_count,
                "edge {e} out of range for {agent_count} agents"
            );
        }
        for a in &enabled_agents {
            assert!(
                a.index() < agent_count,
                "agent {a} out of range for {agent_count} agents"
            );
        }
        EnvState {
            agent_count,
            enabled_edges: Arc::new(enabled_edges),
            enabled_agents: Arc::new(enabled_agents),
        }
    }

    /// A fully benign state: every edge of `topology` is available and every
    /// agent is enabled.  The edge set is aliased from the topology (not
    /// copied); the state is exactly equal to one built by hand.
    pub fn fully_enabled(topology: &Topology) -> Self {
        EnvState {
            agent_count: topology.agent_count(),
            enabled_edges: topology.shared_edges(),
            enabled_agents: Arc::new(topology.agents().collect()),
        }
    }

    /// This state with `edges` as its enabled edges, sharing (not copying)
    /// its enabled-agent set.  `edges` must lie within the agent range,
    /// as a topology's edges do; only debug builds check it.
    pub(crate) fn with_enabled_edges(&self, edges: BTreeSet<Edge>) -> Self {
        debug_assert!(edges.iter().all(|e| e.hi().index() < self.agent_count));
        EnvState {
            agent_count: self.agent_count,
            enabled_edges: Arc::new(edges),
            enabled_agents: Arc::clone(&self.enabled_agents),
        }
    }

    /// A fully adversarial state: no edges, no enabled agents — nothing can
    /// happen.  (The paper: without assumptions, "the environment can
    /// permanently disable all agents".)
    pub fn fully_disabled(agent_count: usize) -> Self {
        EnvState::new(agent_count, [], [])
    }

    /// Number of agents in the system (enabled or not).
    pub fn agent_count(&self) -> usize {
        self.agent_count
    }

    /// The set of currently available (enabled) edges.
    pub fn enabled_edges(&self) -> &BTreeSet<Edge> {
        &self.enabled_edges
    }

    /// The set of currently enabled agents.
    pub fn enabled_agents(&self) -> &BTreeSet<AgentId> {
        &self.enabled_agents
    }

    /// Returns `true` if `agent` is enabled in this state.
    pub fn is_agent_enabled(&self, agent: AgentId) -> bool {
        self.enabled_agents.contains(&agent)
    }

    /// Returns `true` if the edge `{a, b}` is available *and* both endpoints
    /// are enabled, i.e. the two agents can actually collaborate now.
    pub fn can_communicate(&self, a: AgentId, b: AgentId) -> bool {
        a != b
            && self.is_agent_enabled(a)
            && self.is_agent_enabled(b)
            && self.enabled_edges.contains(&Edge::new(a, b))
    }

    /// Returns `true` if `other` induces the same agent partition as `self`:
    /// identical enabled-edge and enabled-agent sets.  Connected components
    /// only change when the enabled sets change, and set equality is far
    /// cheaper than recomputing them.
    pub fn same_connectivity(&self, other: &EnvState) -> bool {
        // The enabled sets plus the agent count are the whole state, so the
        // derived equality is exactly the connectivity fingerprint; aliased
        // sets short-circuit without a content comparison.
        self.agent_count == other.agent_count
            && (Arc::ptr_eq(&self.enabled_edges, &other.enabled_edges)
                || self.enabled_edges == other.enabled_edges)
            && (Arc::ptr_eq(&self.enabled_agents, &other.enabled_agents)
                || self.enabled_agents == other.enabled_agents)
    }

    /// The partition `π` induced by this environment state: connected
    /// components of the enabled subgraph restricted to enabled agents.
    ///
    /// Every enabled agent appears in exactly one group (isolated enabled
    /// agents form singleton groups); disabled agents appear in no group.
    /// Groups are returned sorted by their smallest member.
    ///
    /// This full BFS is the oracle: runs read their groups from the
    /// delta-fed [`Connectivity`](crate::Connectivity), and the tests check
    /// that fold against this method.
    pub fn groups(&self) -> Vec<Vec<AgentId>> {
        connected_components(self.agent_count, &self.enabled_edges, |a| {
            self.enabled_agents.contains(&a)
        })
    }

    /// Applies an incremental connectivity update in place: downed edges
    /// and agents are removed, upped ones inserted.  The result must equal
    /// the state a full rescan would have produced — that is the
    /// [`Environment::step_delta`](crate::Environment::step_delta)
    /// contract, and the delta-equivalence proptests enforce it for every
    /// builtin environment.
    ///
    /// # Panics
    ///
    /// Panics if an upped edge or agent is out of range (the same guard as
    /// [`EnvState::new`]).
    pub fn apply_changes(&mut self, changes: &EnvChanges) {
        if !changes.edges_down.is_empty() || !changes.edges_up.is_empty() {
            let edges = Arc::make_mut(&mut self.enabled_edges);
            for e in &changes.edges_down {
                edges.remove(e);
            }
            for e in &changes.edges_up {
                assert!(
                    e.hi().index() < self.agent_count,
                    "edge {e} out of range for {} agents",
                    self.agent_count
                );
                edges.insert(*e);
            }
        }
        if !changes.agents_down.is_empty() || !changes.agents_up.is_empty() {
            let agents = Arc::make_mut(&mut self.enabled_agents);
            for a in &changes.agents_down {
                agents.remove(a);
            }
            for a in &changes.agents_up {
                assert!(
                    a.index() < self.agent_count,
                    "agent {a} out of range for {} agents",
                    self.agent_count
                );
                agents.insert(*a);
            }
        }
    }

    /// Intersection of two states over the same agent set: an edge or agent
    /// is enabled only if it is enabled in both.  Used to compose
    /// environments (e.g. link churn ∧ crash faults).
    pub fn intersect(&self, other: &EnvState) -> EnvState {
        assert_eq!(
            self.agent_count, other.agent_count,
            "cannot intersect states over different agent sets"
        );
        EnvState {
            agent_count: self.agent_count,
            enabled_edges: Arc::new(
                self.enabled_edges
                    .intersection(&other.enabled_edges)
                    .copied()
                    .collect(),
            ),
            enabled_agents: Arc::new(
                self.enabled_agents
                    .intersection(&other.enabled_agents)
                    .copied()
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo4() -> Topology {
        Topology::line(4)
    }

    #[test]
    fn fully_enabled_state_has_one_group() {
        let s = EnvState::fully_enabled(&topo4());
        assert_eq!(s.groups(), vec![(0..4).map(AgentId).collect::<Vec<_>>()]);
        assert!(s.can_communicate(AgentId(0), AgentId(1)));
        assert!(!s.can_communicate(AgentId(0), AgentId(2))); // no direct edge
    }

    #[test]
    fn fully_disabled_state_has_no_groups() {
        let s = EnvState::fully_disabled(4);
        assert!(s.groups().is_empty());
        assert!(!s.can_communicate(AgentId(0), AgentId(1)));
    }

    #[test]
    fn disabled_agent_is_excluded_from_groups() {
        let topo = topo4();
        let s = EnvState::new(
            4,
            topo.edges().iter().copied(),
            [AgentId(0), AgentId(1), AgentId(3)], // agent 2 disabled
        );
        let groups = s.groups();
        // 0-1 form a group; 3 is isolated because 2 is down.
        assert_eq!(groups, vec![vec![AgentId(0), AgentId(1)], vec![AgentId(3)]]);
        assert!(!s.can_communicate(AgentId(1), AgentId(2)));
    }

    #[test]
    fn missing_edge_partitions_the_line() {
        let s = EnvState::new(
            4,
            [
                Edge::new(AgentId(0), AgentId(1)),
                Edge::new(AgentId(2), AgentId(3)),
            ],
            (0..4).map(AgentId),
        );
        let groups = s.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![AgentId(0), AgentId(1)]);
        assert_eq!(groups[1], vec![AgentId(2), AgentId(3)]);
    }

    #[test]
    fn isolated_enabled_agents_are_singleton_groups() {
        let s = EnvState::new(3, [], (0..3).map(AgentId));
        let groups = s.groups();
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn same_connectivity_tracks_enabled_sets() {
        let topo = topo4();
        let a = EnvState::fully_enabled(&topo);
        let b = EnvState::fully_enabled(&topo);
        assert!(a.same_connectivity(&b));
        let c = EnvState::new(
            4,
            topo.edges().iter().copied(),
            [AgentId(0), AgentId(1), AgentId(3)],
        );
        assert!(!a.same_connectivity(&c));
        assert!(!a.same_connectivity(&EnvState::fully_disabled(5)));
    }

    #[test]
    fn intersect_is_pointwise_and() {
        let topo = topo4();
        let all = EnvState::fully_enabled(&topo);
        let only_edge01 =
            EnvState::new(4, [Edge::new(AgentId(0), AgentId(1))], (0..4).map(AgentId));
        let both = all.intersect(&only_edge01);
        assert_eq!(both.enabled_edges().len(), 1);
        assert_eq!(both.enabled_agents().len(), 4);

        let crash2 = EnvState::new(
            4,
            topo.edges().iter().copied(),
            [AgentId(0), AgentId(1), AgentId(3)],
        );
        let composed = only_edge01.intersect(&crash2);
        assert!(composed.can_communicate(AgentId(0), AgentId(1)));
        assert!(!composed.can_communicate(AgentId(2), AgentId(3)));
    }

    #[test]
    #[should_panic(expected = "different agent sets")]
    fn intersect_requires_same_agent_count() {
        let a = EnvState::fully_disabled(3);
        let b = EnvState::fully_disabled(4);
        let _ = a.intersect(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = EnvState::new(2, [Edge::new(AgentId(0), AgentId(5))], []);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_agent_rejected() {
        let _ = EnvState::new(2, [], [AgentId(2)]);
    }
}
