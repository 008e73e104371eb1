//! Instantaneous environment states and the agent grouping they induce.

use std::sync::Arc;

use crate::topology::{connected_components, sorted};
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
/// The enabled edges and agents are sorted, deduplicated arrays behind
/// `Arc`, so cloning a state — which environments do per round — is O(1),
/// and membership is a binary search.  A fully enabled state aliases its
/// topology's edge array instead of copying it.  Equality compares the
/// contents (with a pointer-identity fast path).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnvState {
    agent_count: usize,
    enabled_edges: Arc<Vec<Edge>>,
    enabled_agents: Arc<Vec<AgentId>>,
}

/// `set` without the elements of `down`, plus those of `up`, sorted and
/// deduplicated.
fn applied<T: Ord + Copy>(set: &[T], down: &[T], up: &[T]) -> Vec<T> {
    let down = sorted(down.iter().copied());
    sorted(
        set.iter()
            .filter(|x| down.binary_search(x).is_err())
            .chain(up)
            .copied(),
    )
}

/// Panics if an edge endpoint or an agent is out of range.
fn assert_in_range(agent_count: usize, edges: &[Edge], agents: &[AgentId]) {
    for e in edges {
        assert!(
            e.hi().index() < agent_count,
            "edge {e} out of range for {agent_count} agents"
        );
    }
    for a in agents {
        assert!(
            a.index() < agent_count,
            "agent {a} out of range for {agent_count} agents"
        );
    }
}

/// Equal slices, comparing aliased ones by pointer alone.
pub(crate) fn same<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    std::ptr::eq(a, b) || a == b
}

impl EnvState {
    /// Creates an environment state for `agent_count` agents with the given
    /// enabled edges and enabled agents, in any order; repeats count once.
    ///
    /// Edges whose endpoints are out of range are rejected with a panic, as
    /// are enabled agents out of range.
    pub fn new(
        agent_count: usize,
        enabled_edges: impl IntoIterator<Item = Edge>,
        enabled_agents: impl IntoIterator<Item = AgentId>,
    ) -> Self {
        let enabled_edges = sorted(enabled_edges);
        let enabled_agents = sorted(enabled_agents);
        assert_in_range(agent_count, &enabled_edges, &enabled_agents);
        EnvState {
            agent_count,
            enabled_edges: Arc::new(enabled_edges),
            enabled_agents: Arc::new(enabled_agents),
        }
    }

    /// A fully benign state: every edge of `topology` is available and every
    /// agent is enabled.  The edge array is aliased from the topology (not
    /// copied); the state is exactly equal to one built by hand.
    pub fn fully_enabled(topology: &Topology) -> Self {
        EnvState {
            agent_count: topology.agent_count(),
            enabled_edges: topology.csr().shared_edges(),
            enabled_agents: Arc::new(topology.agents().collect()),
        }
    }

    /// This state with `edges` as its enabled edges, sharing (not copying)
    /// its enabled-agent array.  `edges` must be sorted, distinct and
    /// within the agent range, as a subsequence of a topology's edges is;
    /// only debug builds check it.
    pub(crate) fn with_enabled_edges(&self, edges: Vec<Edge>) -> Self {
        debug_assert!(edges.is_sorted_by(|a, b| a < b));
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

    /// The currently available (enabled) edges, sorted ascending.
    pub fn enabled_edges(&self) -> &[Edge] {
        &self.enabled_edges
    }

    /// The currently enabled agents, sorted ascending.
    pub fn enabled_agents(&self) -> &[AgentId] {
        &self.enabled_agents
    }

    /// Returns `true` if `agent` is enabled in this state.
    pub fn is_agent_enabled(&self, agent: AgentId) -> bool {
        self.enabled_agents.binary_search(&agent).is_ok()
    }

    /// Returns `true` if `edge` is available, whatever its endpoints.
    pub(crate) fn is_edge_enabled(&self, edge: &Edge) -> bool {
        self.enabled_edges.binary_search(edge).is_ok()
    }

    /// Returns `true` if the edge `{a, b}` is available *and* both endpoints
    /// are enabled, i.e. the two agents can actually collaborate now.
    pub fn can_communicate(&self, a: AgentId, b: AgentId) -> bool {
        a != b
            && self.is_agent_enabled(a)
            && self.is_agent_enabled(b)
            && self.is_edge_enabled(&Edge::new(a, b))
    }

    /// Returns `true` if `other` induces the same agent partition as `self`:
    /// identical enabled-edge and enabled-agent sets.  Connected components
    /// only change when the enabled sets change, and set equality is far
    /// cheaper than recomputing them.
    pub fn same_connectivity(&self, other: &EnvState) -> bool {
        // The enabled sets plus the agent count are the whole state, so the
        // derived equality is exactly the connectivity fingerprint; aliased
        // arrays short-circuit without a content comparison.
        self.agent_count == other.agent_count
            && same(&self.enabled_edges, &other.enabled_edges)
            && same(&self.enabled_agents, &other.enabled_agents)
    }

    /// The partition `π` induced by this environment state: connected
    /// components of the enabled subgraph restricted to enabled agents.
    ///
    /// Every enabled agent appears in exactly one group (isolated enabled
    /// agents form singleton groups); disabled agents appear in no group.
    /// Groups are returned sorted by their smallest member.
    ///
    /// This full labelling is the oracle: runs read their groups from the
    /// delta-fed [`Connectivity`](crate::Connectivity), and the tests check
    /// that fold against this method.
    pub fn groups(&self) -> Vec<Vec<AgentId>> {
        connected_components(self.agent_count, &self.enabled_edges, |a| {
            self.is_agent_enabled(a)
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
        assert_in_range(self.agent_count, &changes.edges_up, &changes.agents_up);
        if !changes.edges_down.is_empty() || !changes.edges_up.is_empty() {
            self.enabled_edges = Arc::new(applied(
                &self.enabled_edges,
                &changes.edges_down,
                &changes.edges_up,
            ));
        }
        if !changes.agents_down.is_empty() || !changes.agents_up.is_empty() {
            self.enabled_agents = Arc::new(applied(
                &self.enabled_agents,
                &changes.agents_down,
                &changes.agents_up,
            ));
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
                    .iter()
                    .filter(|e| other.is_edge_enabled(e))
                    .copied()
                    .collect(),
            ),
            enabled_agents: Arc::new(
                self.enabled_agents
                    .iter()
                    .filter(|a| other.is_agent_enabled(**a))
                    .copied()
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

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
    fn new_sorts_and_deduplicates() {
        let e = |a: usize, b: usize| Edge::new(AgentId(a), AgentId(b));
        let edges = [e(0, 1), e(0, 3), e(1, 2), e(2, 3)];
        let agents = [0, 1, 3].map(AgentId);
        let sorted = EnvState::new(4, edges, agents);
        assert_eq!(sorted.enabled_edges(), edges);
        assert_eq!(sorted.enabled_agents(), agents);
        let cases = [
            (
                vec![e(2, 3), e(1, 2), e(0, 3), e(0, 1)],
                vec![AgentId(3), AgentId(1), AgentId(0)],
            ),
            (
                vec![e(3, 2), e(2, 1), e(3, 0), e(1, 0)],
                vec![AgentId(0), AgentId(3), AgentId(1)],
            ),
            (
                vec![e(1, 2), e(0, 1), e(1, 2), e(3, 2), e(0, 3), e(0, 1)],
                vec![AgentId(1), AgentId(0), AgentId(1), AgentId(3), AgentId(3)],
            ),
        ];
        for (listed_edges, listed_agents) in cases {
            let state = EnvState::new(4, listed_edges, listed_agents);
            assert_eq!(state, sorted);
            assert!(state.same_connectivity(&sorted));
            assert_eq!(state.groups(), sorted.groups());
        }
    }

    /// A random subset of `items`, each kept with probability `keep`.
    fn subset<T: Copy>(items: &[T], keep: f64, rng: &mut StdRng) -> Vec<T> {
        items
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(keep))
            .collect()
    }

    /// `k` random picks from `items`, repeats allowed.
    fn picks<T: Copy>(items: &[T], k: usize, rng: &mut StdRng) -> Vec<T> {
        if items.is_empty() {
            return Vec::new();
        }
        (0..k)
            .map(|_| items[rng.gen_range(0..items.len())])
            .collect()
    }

    #[test]
    fn sorted_arrays_match_a_btree_set_oracle() {
        let mut rng = StdRng::seed_from_u64(22);
        for topo in [
            Topology::ring(12),
            Topology::grid(3, 4),
            Topology::complete(7),
            Topology::random_connected_sparse(40, 3.0, &mut rng),
            Topology::empty(3),
        ] {
            let n = topo.agent_count();
            let all_edges = topo.edges().to_vec();
            let all_agents: Vec<AgentId> = topo.agents().collect();
            let random_state = |rng: &mut StdRng| {
                let edges = subset(&all_edges, 0.5, rng);
                let agents = subset(&all_agents, 0.7, rng);
                let oracle = (
                    edges.iter().copied().collect::<BTreeSet<Edge>>(),
                    agents.iter().copied().collect::<BTreeSet<AgentId>>(),
                );
                (EnvState::new(n, edges, agents), oracle)
            };
            for _ in 0..50 {
                let (mut state, (mut edges, mut agents)) = random_state(&mut rng);
                // Change sets drawn from all elements, so they include
                // redundant flips (downing a down edge, upping an up agent)
                // and repeats.
                let changes = EnvChanges {
                    edges_up: picks(&all_edges, rng.gen_range(0..5), &mut rng),
                    edges_down: picks(&all_edges, rng.gen_range(0..5), &mut rng),
                    agents_up: picks(&all_agents, rng.gen_range(0..4), &mut rng),
                    agents_down: picks(&all_agents, rng.gen_range(0..4), &mut rng),
                };
                state.apply_changes(&changes);
                for e in &changes.edges_down {
                    edges.remove(e);
                }
                edges.extend(changes.edges_up.iter().copied());
                for a in &changes.agents_down {
                    agents.remove(a);
                }
                agents.extend(changes.agents_up.iter().copied());
                assert!(state.enabled_edges().iter().eq(&edges));
                assert!(state.enabled_agents().iter().eq(&agents));

                let (other, (other_edges, other_agents)) = random_state(&mut rng);
                let both = state.intersect(&other);
                assert!(both
                    .enabled_edges()
                    .iter()
                    .eq(edges.intersection(&other_edges)));
                assert!(both
                    .enabled_agents()
                    .iter()
                    .eq(agents.intersection(&other_agents)));

                for a in 0..n + 1 {
                    assert_eq!(
                        state.is_agent_enabled(AgentId(a)),
                        agents.contains(&AgentId(a))
                    );
                    for b in 0..n {
                        let oracle = a != b
                            && agents.contains(&AgentId(a))
                            && agents.contains(&AgentId(b))
                            && edges.contains(&Edge::new(AgentId(a), AgentId(b)));
                        assert_eq!(state.can_communicate(AgentId(a), AgentId(b)), oracle);
                    }
                }
            }
        }
    }

    #[test]
    fn topology_csr_and_fully_enabled_state_share_one_edge_array() {
        let mut rng = StdRng::seed_from_u64(5);
        for topo in [
            Topology::ring(100),
            Topology::grid(7, 9),
            Topology::random_connected_sparse(500, 4.0, &mut rng),
        ] {
            let state = EnvState::fully_enabled(&topo);
            let ptr = topo.edges().as_ptr();
            assert_eq!(topo.csr().edges().as_ptr(), ptr, "{topo:?}");
            assert_eq!(state.enabled_edges().as_ptr(), ptr, "{topo:?}");
            assert_eq!(state.enabled_edges(), topo.edges());
        }
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
