//! Fairness assumptions `Q` on the environment and their trace-level checker.
//!
//! The only constraint designers may place on the environment is a set `Q`
//! of predicates on environment states, each of which must hold infinitely
//! often: `∀Q ∈ Q : □◇Q` (assumption (2) of the paper).  All of the paper's
//! examples instantiate `Q` as `Q_E = { Q_e | e ∈ E }` for a graph `E`,
//! where `Q_e` reads "edge `e` exists and is available for communication".
//!
//! [`FairnessSpec`] represents such a `Q_E` and can check, using the
//! finite-trace `□◇` semantics of `selfsim-temporal`, whether a recorded
//! sequence of environment states satisfied every `Q_e`.

use selfsim_temporal::{Formula, Trace, Verdict};

use crate::{Edge, EnvState, Topology};

/// A fairness specification `Q_E`: one recurrence predicate per edge of a
/// graph `E`.
///
/// The graph is held as a [`Topology`], so a spec shares its graph's sorted
/// edge array and a clique spec stays symbolic:
/// `FairnessSpec::complete(100000)` is O(1) like the topology it mirrors.
///
/// `Q_e` has one reading: it is *satisfied* by an environment state when
/// the edge is available **and** both its endpoints are enabled.  That is
/// the reading under which the endpoints can actually take a collaborative
/// step, which is what the paper's escape arguments need; where the
/// environment never disables an agent it is plain edge availability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FairnessSpec {
    graph: Topology,
}

impl FairnessSpec {
    /// The fairness set `Q_E` for every edge of `graph`.  The graph is
    /// shared, not copied, so this is cheap even for symbolic cliques.
    pub fn for_graph(graph: &Topology) -> Self {
        FairnessSpec {
            graph: graph.clone(),
        }
    }

    /// The fairness set of the *sum* example (§4.2): every pair of agents
    /// must be able to communicate infinitely often (complete graph).
    pub fn complete(agent_count: usize) -> Self {
        Self::for_graph(&Topology::complete(agent_count))
    }

    /// The fairness set of the *sorting* example (§4.4): a line graph in
    /// index order.
    pub fn line(agent_count: usize) -> Self {
        Self::for_graph(&Topology::line(agent_count))
    }

    /// The number of agents this spec refers to.
    pub fn agent_count(&self) -> usize {
        self.graph.agent_count()
    }

    /// The edges whose availability must recur, sorted ascending.  A
    /// symbolic clique is materialised (once) on first access;
    /// [`FairnessSpec::is_complete`] never expands it.
    pub fn edges(&self) -> &[Edge] {
        self.graph.edges()
    }

    /// Returns `true` if the single predicate `Q_e` holds in `state`: the
    /// edge is up and both its endpoints are enabled.
    pub fn edge_satisfied(&self, edge: Edge, state: &EnvState) -> bool {
        state.can_communicate(edge.lo(), edge.hi())
    }

    /// Checks `□◇Q_e` for every edge `e` of the spec over a recorded
    /// environment trace, with `tolerance` trailing states exempted (see
    /// [`Formula::always_eventually`]).
    ///
    /// Returns the edges whose recurrence was violated, with the verdict of
    /// the first violation; an empty vector means the trace satisfies the
    /// fairness assumption (2).
    pub fn check_trace(&self, trace: &Trace<EnvState>, tolerance: usize) -> Vec<(Edge, Verdict)> {
        let mut violations = Vec::new();
        for &edge in self.edges() {
            let spec = self.clone();
            let formula = Formula::always_eventually(
                Formula::atom(format!("Q_{edge}"), move |s: &EnvState| {
                    spec.edge_satisfied(edge, s)
                }),
                tolerance,
            );
            let verdict = formula.check(trace);
            if !verdict.is_holds() {
                violations.push((edge, verdict));
            }
        }
        violations
    }

    /// Convenience wrapper around [`FairnessSpec::check_trace`] that returns
    /// a boolean.
    pub fn trace_satisfies(&self, trace: &Trace<EnvState>, tolerance: usize) -> bool {
        self.check_trace(trace, tolerance).is_empty()
    }

    /// Returns, for each edge, the number of recorded states in which its
    /// predicate held — a quantitative view of how generous the environment
    /// was (used by the adaptivity experiments).
    pub fn satisfaction_counts(&self, trace: &Trace<EnvState>) -> Vec<(Edge, usize)> {
        self.edges()
            .iter()
            .map(|&e| {
                let count = trace.iter().filter(|s| self.edge_satisfied(e, s)).count();
                (e, count)
            })
            .collect()
    }

    /// Returns `true` if the fairness graph is the complete graph on all
    /// agents.
    pub fn is_complete(&self) -> bool {
        let n = self.agent_count();
        self.graph.edge_count() == n * n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgentId, Environment, RandomChurnEnv, StaticEnv};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn record<E: Environment>(env: &mut E, steps: usize, seed: u64) -> Trace<EnvState> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trace = Trace::new();
        for _ in 0..steps {
            trace.push(env.step(&mut rng));
        }
        trace
    }

    #[test]
    fn static_environment_satisfies_its_fairness_spec() {
        let topo = Topology::ring(6);
        let spec = FairnessSpec::for_graph(&topo);
        let mut env = StaticEnv::new(topo);
        let trace = record(&mut env, 20, 1);
        assert!(spec.trace_satisfies(&trace, 0));
        assert!(spec.check_trace(&trace, 0).is_empty());
    }

    #[test]
    fn dead_environment_violates_fairness() {
        let topo = Topology::ring(4);
        let spec = FairnessSpec::for_graph(&topo);
        let mut env = RandomChurnEnv::new(topo, 0.0, 0.0);
        let trace = record(&mut env, 20, 2);
        let violations = spec.check_trace(&trace, 0);
        assert_eq!(violations.len(), 4); // every edge starves
        assert!(!spec.trace_satisfies(&trace, 0));
    }

    #[test]
    fn churny_environment_satisfies_fairness_with_tolerance() {
        let topo = Topology::line(5);
        let spec = FairnessSpec::for_graph(&topo);
        let mut env = RandomChurnEnv::new(topo, 0.4, 1.0);
        let trace = record(&mut env, 300, 3);
        // With a tolerance window at the end the recurrence should hold with
        // overwhelming probability for this seed.
        assert!(spec.trace_satisfies(&trace, 30));
    }

    #[test]
    fn edge_satisfied_requires_enabled_endpoints_by_default() {
        let topo = Topology::line(3);
        let spec = FairnessSpec::for_graph(&topo);
        let edge = Edge::new(AgentId(0), AgentId(1));
        let edge_up_agent_down = EnvState::new(3, [edge], [AgentId(0)]);
        assert!(!spec.edge_satisfied(edge, &edge_up_agent_down));
        let both_up = EnvState::new(3, [edge], [AgentId(0), AgentId(1)]);
        assert!(spec.edge_satisfied(edge, &both_up));
    }

    #[test]
    fn connectivity_and_completeness_helpers() {
        assert!(FairnessSpec::complete(5).is_complete());
        assert!(!FairnessSpec::line(5).is_complete());
        // A spec shares its graph, so the graph answers for connectivity.
        let sparse = Topology::from_edges(4, [(0, 1)]);
        assert!(!sparse.is_connected());
        assert!(!FairnessSpec::for_graph(&sparse).is_complete());
    }

    #[test]
    fn for_edges_sorts_and_deduplicates() {
        let e = |a: usize, b: usize| Edge::new(AgentId(a), AgentId(b));
        let spec_of = |pairs: &[(usize, usize)]| {
            FairnessSpec::for_graph(&Topology::from_edges(4, pairs.iter().copied()))
        };
        let expected = [e(0, 1), e(0, 3), e(1, 2), e(2, 3)];
        let sorted = spec_of(&[(0, 1), (0, 3), (1, 2), (2, 3)]);
        assert_eq!(sorted.edges(), expected);
        for listed in [
            vec![(2, 3), (1, 2), (0, 3), (0, 1)],
            vec![(3, 2), (2, 1), (3, 0), (1, 0)],
            vec![(1, 2), (0, 1), (1, 2), (3, 2), (0, 3), (0, 1)],
        ] {
            let spec = spec_of(&listed);
            assert_eq!(spec, sorted);
            assert_eq!(spec.edges(), expected);
        }
    }

    #[test]
    fn satisfaction_counts_count_states() {
        let topo = Topology::line(3);
        let spec = FairnessSpec::for_graph(&topo);
        let e01 = Edge::new(AgentId(0), AgentId(1));
        let e12 = Edge::new(AgentId(1), AgentId(2));
        let trace = Trace::from_states(vec![
            EnvState::new(3, [e01], (0..3).map(AgentId)),
            EnvState::new(3, [e01, e12], (0..3).map(AgentId)),
            EnvState::fully_disabled(3),
        ]);
        let counts = spec.satisfaction_counts(&trace);
        assert_eq!(counts, vec![(e01, 2), (e12, 1)]);
    }

    #[test]
    fn symbolic_complete_spec_is_cheap_and_equal_to_explicit() {
        // No call below may expand the 100k-agent clique.
        let spec = FairnessSpec::complete(100_000);
        assert!(spec.is_complete());
        // Semantic equality across representations at a checkable size.
        let small = FairnessSpec::complete(5);
        let explicit = FairnessSpec::for_graph(&Topology::from_edges(
            5,
            (0..5).flat_map(|i| ((i + 1)..5).map(move |j| (i, j))),
        ));
        assert_eq!(small, explicit);
        assert_eq!(small.edges(), explicit.edges());
    }

    #[test]
    fn single_agent_spec_is_trivially_connected_and_complete() {
        let graph = Topology::empty(1);
        let spec = FairnessSpec::for_graph(&graph);
        assert!(graph.is_connected());
        assert!(spec.is_complete());
        assert!(spec.trace_satisfies(&Trace::from_states(vec![EnvState::fully_disabled(1)]), 0));
    }
}
