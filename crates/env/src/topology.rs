//! Agents, communication edges and the underlying topology graph.

use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::Rng;

use crate::csr::Csr;

/// Identifier of an agent (process) in the fixed agent set `A`.
///
/// The paper keeps agent identities out of the *algorithms* (self-similar
/// computations are identity-agnostic) but the *infrastructure* — topology,
/// environment, simulators — still needs to address individual agents.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AgentId(pub usize);

impl AgentId {
    /// The numeric index of the agent.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// An undirected communication edge between two distinct agents.
///
/// Edges are stored in normalised form (smaller endpoint first) so that
/// `Edge::new(a, b) == Edge::new(b, a)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    lo: AgentId,
    hi: AgentId,
}

impl Edge {
    /// Creates the (normalised) edge between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; self-loops carry no communication meaning in the
    /// model (an agent can always "communicate" with itself).
    pub fn new(a: AgentId, b: AgentId) -> Self {
        assert_ne!(a, b, "self-loop edges are not allowed");
        if a < b {
            Edge { lo: a, hi: b }
        } else {
            Edge { lo: b, hi: a }
        }
    }

    /// The endpoint with the smaller id.
    pub fn lo(&self) -> AgentId {
        self.lo
    }

    /// The endpoint with the larger id.
    pub fn hi(&self) -> AgentId {
        self.hi
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}—{}", self.lo, self.hi)
    }
}

/// Edge storage of a [`Topology`]: either an explicit edge set, held as
/// its flat adjacency (the [`Csr`]'s sorted edge array *is* the set), or
/// the complete graph on `n` agents held *symbolically* so that
/// `complete(100000)` costs O(1) instead of materialising ~5·10⁹ edges.
///
/// Both variants are shared by clones: an explicit set is immutable, and a
/// clique's adjacency, built on first demand, is built once for all clones.
#[derive(Clone)]
enum EdgeSet {
    /// An explicit edge set: the adjacency's edge array.
    Explicit(Arc<Csr>),
    Complete {
        /// Number of agents the clique spans.
        n: usize,
        /// The expanded clique, for the few callers that need every edge
        /// (per-edge environment churn, the connectivity index).
        csr: Arc<OnceLock<Arc<Csr>>>,
    },
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeSet::Explicit(csr) => f.debug_set().entries(csr.edges()).finish(),
            EdgeSet::Complete { n, .. } => write!(f, "Complete({n})"),
        }
    }
}

/// The number of edges of the clique on `n` agents.
fn complete_len(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// The communication graph `(A, E)`: a fixed set of `n` agents
/// (`AgentId(0) .. AgentId(n-1)`) and an immutable set of undirected edges.
///
/// The topology is the *potential* connectivity; at any instant the
/// environment enables some subset of its edges (see
/// [`EnvState`](crate::EnvState)).  The fairness sets `Q_E` of the paper's
/// examples are defined over topology edges.
///
/// An explicit topology builds its flat CSR adjacency ([`Csr`](crate::Csr))
/// once, in its constructor; that adjacency's sorted edge array is the
/// topology's only copy of its edges, and clones share it via `Arc`.
/// Complete graphs are held symbolically, so [`Topology::complete`] is O(1)
/// and clique queries never expand the edge set; only
/// [`Topology::edges`] and [`Topology::csr`] do, once.
///
/// Equality is *semantic*: a symbolic complete graph equals the explicit
/// graph of the same edges, so representation never changes cell identity.
#[derive(Clone)]
pub struct Topology {
    n: usize,
    edges: EdgeSet,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        // A set of C(n,2) distinct normalised edges with every endpoint
        // below n *is* the clique on n, so count + range check is exact.
        let is_clique = |csr: &Csr, n: usize| {
            csr.edge_count() == complete_len(n) && csr.edges().iter().all(|e| e.hi().index() < n)
        };
        self.n == other.n
            && match (&self.edges, &other.edges) {
                (EdgeSet::Explicit(a), EdgeSet::Explicit(b)) => a.edges() == b.edges(),
                (EdgeSet::Complete { n: a, .. }, EdgeSet::Complete { n: b, .. }) => {
                    complete_len(*a) == complete_len(*b)
                }
                (EdgeSet::Explicit(csr), EdgeSet::Complete { n, .. })
                | (EdgeSet::Complete { n, .. }, EdgeSet::Explicit(csr)) => is_clique(csr, *n),
            }
    }
}

impl Eq for Topology {}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("n", &self.n)
            .field("edges", &self.edges)
            .finish()
    }
}

impl Topology {
    /// The topology of `n` agents over `edges`, which need not be sorted
    /// or distinct: its CSR is built here, in one bulk pass.
    fn with_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        Topology {
            n,
            edges: EdgeSet::Explicit(Arc::new(Csr::new(n, edges.into_iter().collect()))),
        }
    }

    /// Creates a topology with `n` agents and no edges.
    pub fn empty(n: usize) -> Self {
        Topology::with_edges(n, [])
    }

    /// Creates a topology from an explicit edge list, in any order and
    /// orientation; repeated pairs count once.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is out of range, or if an edge is a
    /// self-loop (`(a, a)`).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        Topology::with_edges(
            n,
            edges
                .into_iter()
                .map(|(a, b)| checked_edge(n, AgentId(a), AgentId(b))),
        )
    }

    /// The complete graph on `n` agents (every pair may communicate).
    ///
    /// This is the fairness graph required by the *sum* example (§4.2).
    /// The clique is held symbolically — construction is O(1) and clique
    /// queries have closed forms — so `complete(100000)` is a sweepable
    /// cell rather than a 5-billion-edge allocation.
    pub fn complete(n: usize) -> Self {
        Topology {
            n,
            edges: EdgeSet::Complete {
                n,
                csr: Arc::default(),
            },
        }
    }

    /// The line (path) graph `0 — 1 — … — n-1`.
    ///
    /// This is the fairness graph used by the *sorting* example (§4.4):
    /// each agent need only communicate with its index neighbours.
    pub fn line(n: usize) -> Self {
        Topology::with_edges(n, path_edges(n))
    }

    /// The ring (cycle) graph on `n` agents.
    pub fn ring(n: usize) -> Self {
        // Listed in ascending order, so the build need not sort: the
        // closing edge {0, n-1} comes second.
        let closing = (n > 2).then(|| Edge::new(AgentId(0), AgentId(n - 1)));
        let mut path = path_edges(n);
        Topology::with_edges(n, path.next().into_iter().chain(closing).chain(path))
    }

    /// The star graph with agent 0 at the centre.
    pub fn star(n: usize) -> Self {
        Topology::with_edges(n, (1..n).map(|i| Edge::new(AgentId(0), AgentId(i))))
    }

    /// A `rows × cols` grid graph.
    pub fn grid(rows: usize, cols: usize) -> Self {
        // Agent by agent, right edge before down edge: ascending order.
        let edges = (0..rows * cols).flat_map(move |i| {
            let right = ((i + 1) % cols != 0).then(|| Edge::new(AgentId(i), AgentId(i + 1)));
            let down = (i + cols < rows * cols).then(|| Edge::new(AgentId(i), AgentId(i + cols)));
            right.into_iter().chain(down)
        });
        Topology::with_edges(rows * cols, edges)
    }

    /// An Erdős–Rényi `G(n, p)` random graph, re-sampled until connected
    /// (so it can serve as a fairness graph for the consensus examples).
    pub fn random_connected(n: usize, p: f64, rng: &mut impl Rng) -> Self {
        assert!(n > 0, "need at least one agent");
        loop {
            let mut edges = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        edges.push(Edge::new(AgentId(i), AgentId(j)));
                    }
                }
            }
            let topo = Topology::with_edges(n, edges.iter().copied());
            if topo.is_connected() {
                return topo;
            }
            // Below the connectivity threshold a connected draw may take
            // many re-samples, so guarantee termination: add a random
            // spanning tree (each agent joined to a random smaller one) to
            // this draw.  A tree edge already drawn counts once.
            if p < 2.0 * (n as f64).ln() / (n as f64) {
                for i in 1..n {
                    let j = rng.gen_range(0..i);
                    edges.push(Edge::new(AgentId(i), AgentId(j)));
                }
                return Topology::with_edges(n, edges);
            }
        }
    }

    /// A sparse Erdős–Rényi-style `G(n, p)` graph with expected degree
    /// `expected_degree`, patched to be connected, built in `O(n + m)` time.
    ///
    /// [`Topology::random_connected`] draws one Bernoulli per pair — all
    /// `C(n, 2)` of them — which is unusable beyond ~10⁴ agents.  This
    /// constructor geometrically skips through each agent's candidate
    /// neighbour row (one `f64` draw per *present* edge plus one per row),
    /// then deterministically chains any leftover components together by a
    /// min-member-to-min-member edge, consuming no further randomness.  The
    /// result is a connected sparse graph suitable for 10⁵–10⁶-agent
    /// benchmark cells.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `expected_degree` is negative or non-finite.
    pub fn random_connected_sparse(n: usize, expected_degree: f64, rng: &mut impl Rng) -> Self {
        assert!(n > 0, "need at least one agent");
        assert!(
            expected_degree.is_finite() && expected_degree >= 0.0,
            "expected_degree must be finite and non-negative"
        );
        let p = if n > 1 {
            (expected_degree / (n as f64 - 1.0)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        if p >= 1.0 {
            // Degenerate dense request: every pair is present.
            return Topology::with_edges(n, clique_edges(n));
        }
        let mut edges = Vec::new();
        if p > 0.0 {
            let ln_q = (1.0 - p).ln();
            for i in 0..n.saturating_sub(1) {
                let mut j = i;
                loop {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    // Geometric skip: number of absent candidates before the
                    // next present edge.  `u == 0` maps to an infinite skip,
                    // i.e. no further edge in this row.
                    let skip = if u > 0.0 {
                        (u.ln() / ln_q).floor()
                    } else {
                        f64::INFINITY
                    };
                    if !skip.is_finite() || skip >= (n - j) as f64 {
                        break;
                    }
                    j += 1 + skip as usize;
                    if j >= n {
                        break;
                    }
                    edges.push(Edge::new(AgentId(i), AgentId(j)));
                }
            }
        }
        let topo = Topology::with_edges(n, edges);
        // Deterministic connectivity patch: chain each component's smallest
        // member to the previous component's smallest member.  A connected
        // draw is returned as built.
        let comps = topo.components();
        if comps.len() <= 1 {
            return topo;
        }
        let mins: Vec<AgentId> = comps.iter().filter_map(|c| c.first().copied()).collect();
        let patch = mins.windows(2).filter_map(|pair| match pair {
            [a, b] => Some(Edge::new(*a, *b)),
            _ => None,
        });
        Topology::with_edges(n, topo.edges().iter().copied().chain(patch))
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.n
    }

    /// Iterates over all agent ids.
    pub fn agents(&self) -> impl Iterator<Item = AgentId> {
        (0..self.n).map(AgentId)
    }

    /// The edges, sorted ascending: the CSR's edge array.  A symbolic
    /// complete graph is materialised (once) on first access; prefer the
    /// closed-form queries ([`Topology::has_edge`], [`Topology::edge_count`],
    /// [`Topology::components`]) on huge cliques.
    pub fn edges(&self) -> &[Edge] {
        self.adjacency().edges()
    }

    /// Number of edges (closed form for symbolic cliques).
    pub fn edge_count(&self) -> usize {
        match &self.edges {
            EdgeSet::Explicit(csr) => csr.edge_count(),
            EdgeSet::Complete { n, .. } => complete_len(*n),
        }
    }

    /// The flat CSR adjacency of this topology, shared via `Arc` (so
    /// consumers can hold it across mutable borrows of the environment
    /// that owns the topology).
    ///
    /// A symbolic clique is materialised by the first call — callers that
    /// can stay symbolic (e.g. the event runtime's fully-enabled fast path)
    /// should not ask for a CSR.
    pub fn csr(&self) -> Arc<Csr> {
        Arc::clone(self.adjacency())
    }

    /// The adjacency, building a clique's on first use.
    fn adjacency(&self) -> &Arc<Csr> {
        match &self.edges {
            EdgeSet::Explicit(csr) => csr,
            EdgeSet::Complete { n, csr } => {
                csr.get_or_init(|| Arc::new(Csr::new(*n, clique_edges(*n).collect())))
            }
        }
    }

    /// Returns `true` if the edge `{a, b}` is in the topology.
    pub fn has_edge(&self, a: AgentId, b: AgentId) -> bool {
        if a == b || a.0 >= self.n || b.0 >= self.n {
            return false;
        }
        match &self.edges {
            EdgeSet::Explicit(csr) => csr.edge_id(&Edge::new(a, b)).is_some(),
            // Both endpoints are in range, and the clique spans all `n`.
            EdgeSet::Complete { .. } => true,
        }
    }

    /// Returns `true` if the graph is connected (or has at most one agent).
    pub fn is_connected(&self) -> bool {
        match &self.edges {
            EdgeSet::Explicit(csr) => {
                // One component per root: an agent that is its own parent.
                let parent = linked(self.n, csr.edges(), |_| true);
                (parent.iter().enumerate())
                    .filter(|&(i, &p)| p == i as u32)
                    .count()
                    <= 1
            }
            // The clique spans all `n` agents (see `components`).
            EdgeSet::Complete { .. } => true,
        }
    }

    /// The connected components of the topology, each sorted, ordered by
    /// their smallest member.
    pub fn components(&self) -> Vec<Vec<AgentId>> {
        match &self.edges {
            EdgeSet::Explicit(csr) => connected_components(self.n, csr.edges(), |_| true),
            // `complete(n)` is the only constructor of a symbolic clique,
            // and its clique spans all `n` agents: one component.
            EdgeSet::Complete { n: 0, .. } => Vec::new(),
            EdgeSet::Complete { n, .. } => vec![(0..*n).map(AgentId).collect()],
        }
    }
}

/// The edge `{a, b}` of an `n`-agent topology.
///
/// # Panics
///
/// Panics if an endpoint is out of range or the edge is a self-loop.
fn checked_edge(n: usize, a: AgentId, b: AgentId) -> Edge {
    assert!(
        a.0 < n && b.0 < n,
        "edge endpoint out of range: {a}, {b} with n = {n}"
    );
    Edge::new(a, b)
}

/// The path `0 — 1 — … — n-1`, in ascending edge order.
fn path_edges(n: usize) -> impl Iterator<Item = Edge> {
    (1..n).map(|i| Edge::new(AgentId(i - 1), AgentId(i)))
}

/// Every pair of `n` agents, in ascending edge order.
fn clique_edges(n: usize) -> impl Iterator<Item = Edge> {
    (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| Edge::new(AgentId(i), AgentId(j))))
}

/// Computes the connected components of the subgraph of the `n`-agent graph
/// with the edges `edges`, restricted to the agents accepted by `include`.
///
/// Agents excluded by `include` do not appear in any component.  Every
/// component comes out ascending, and components are ordered by their
/// minimum: after [`link_edges`] and [`flatten`] each agent's label is its
/// component's minimum, which the ascending scan meets first, so it opens
/// the component.
pub(crate) fn connected_components(
    n: usize,
    edges: &[Edge],
    include: impl Fn(AgentId) -> bool,
) -> Vec<Vec<AgentId>> {
    let mut comp = linked(n, edges, include);
    // Each minimum's component size, then its component's position.
    let mut slot = vec![0u32; n];
    flatten(&mut comp, |root| *at_mut(&mut slot, root as usize) += 1);
    let mut components: Vec<Vec<AgentId>> = Vec::new();
    for (i, &label) in comp.iter().enumerate() {
        if label == i as u32 {
            let size = std::mem::replace(at_mut(&mut slot, i), components.len() as u32);
            components.push(Vec::with_capacity(size as usize));
        }
        if label != NONE {
            at_mut(&mut components, at(&slot, label as usize) as usize).push(AgentId(i));
        }
    }
    components
}

/// The union-find parents of `n` agents linked along `edges` (see
/// [`link_edges`]), with the agents `include` rejects excluded.
fn linked(n: usize, edges: &[Edge], include: impl Fn(AgentId) -> bool) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..n)
        .map(|i| if include(AgentId(i)) { i as u32 } else { NONE })
        .collect();
    link_edges(&mut parent, edges);
    parent
}

/// `items` sorted ascending and deduplicated: one check pass when they
/// already are.
pub(crate) fn sorted<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut items: Vec<T> = items.into_iter().collect();
    if !items.is_sorted_by(|a, b| a < b) {
        items.sort_unstable();
        items.dedup();
    }
    items
}

/// Checked slice read used throughout the flat connectivity core: identical
/// codegen to `v[i]` but without raw indexing (detlint's panic budget counts
/// `[idx]` in library code).
#[inline]
pub(crate) fn at<T: Copy>(v: &[T], i: usize) -> T {
    *v.get(i).expect("flat-core index in range")
}

/// Checked mutable slice access; see [`at`].
#[inline]
pub(crate) fn at_mut<T>(v: &mut [T], i: usize) -> &mut T {
    v.get_mut(i).expect("flat-core index in range")
}

/// The parent of an agent excluded from a union-find pass (see
/// [`link_edges`]), and the flat connectivity core's "no label".
pub(crate) const NONE: u32 = u32::MAX;

/// Links the components of `parent` along `edges` (union-find).
///
/// `parent` holds one entry per agent: `NONE` for an excluded agent, else
/// its parent, which is never larger than the agent (seed included agents
/// with their own index: every agent its own root).  An edge with an
/// excluded endpoint is skipped; of two roots, the larger goes under the
/// smaller, so every root stays its component's minimum.  Returns how many
/// edges had both endpoints included.
pub(crate) fn link_edges<'a>(
    parent: &mut [u32],
    edges: impl IntoIterator<Item = &'a Edge>,
) -> usize {
    let mut linked = 0;
    for e in edges {
        let (a, b) = (e.lo().index(), e.hi().index());
        if at(parent, a) == NONE || at(parent, b) == NONE {
            continue;
        }
        linked += 1;
        let (ra, rb) = (root(parent, a as u32), root(parent, b as u32));
        if ra != rb {
            *at_mut(parent, ra.max(rb) as usize) = ra.min(rb);
        }
    }
    linked
}

/// The root of `x`'s tree.  Path halving moves each visited agent up to
/// its grandparent, which keeps every parent no larger than its child.
fn root(parent: &mut [u32], mut x: u32) -> u32 {
    loop {
        let p = at(parent, x as usize);
        let g = at(parent, p as usize);
        if p == g {
            return p;
        }
        *at_mut(parent, x as usize) = g;
        x = g;
    }
}

/// Points every included agent of a linked `parent` (see [`link_edges`])
/// straight at its root, its component's minimum, and calls `each` with
/// that root.  One ascending pass suffices: a parent is never larger than
/// its child, so it is flattened first.
pub(crate) fn flatten(parent: &mut [u32], mut each: impl FnMut(u32)) {
    for i in 0..parent.len() {
        let p = at(parent, i);
        if p != NONE {
            let r = at(parent, p as usize);
            *at_mut(parent, i) = r;
            each(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    #[test]
    fn edge_is_normalised_and_symmetric() {
        let e1 = Edge::new(AgentId(3), AgentId(1));
        let e2 = Edge::new(AgentId(1), AgentId(3));
        assert_eq!(e1, e2);
        assert_eq!(e1.lo(), AgentId(1));
        assert_eq!(e1.hi(), AgentId(3));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_edges_panic() {
        let _ = Edge::new(AgentId(2), AgentId(2));
    }

    #[test]
    fn complete_graph_edge_count() {
        let t = Topology::complete(5);
        assert_eq!(t.agent_count(), 5);
        assert_eq!(t.edge_count(), 10);
        assert!(t.is_connected());
        assert!(t.has_edge(AgentId(0), AgentId(4)));
    }

    /// The neighbours of `agent`, read off the adjacency of the sorted
    /// edge list (so in ascending id order).
    fn neighbours(t: &Topology, agent: AgentId) -> Vec<AgentId> {
        (t.csr().neighbors(agent.index()))
            .map(|(b, _)| AgentId(b as usize))
            .collect()
    }

    #[test]
    fn line_graph_structure() {
        let t = Topology::line(4);
        assert_eq!(t.edge_count(), 3);
        assert!(t.has_edge(AgentId(0), AgentId(1)));
        assert!(!t.has_edge(AgentId(0), AgentId(2)));
        assert!(t.is_connected());
        assert_eq!(neighbours(&t, AgentId(1)), [AgentId(0), AgentId(2)]);
        assert_eq!(neighbours(&t, AgentId(0)), [AgentId(1)]);
    }

    #[test]
    fn ring_graph_structure() {
        let t = Topology::ring(5);
        assert_eq!(t.edge_count(), 5);
        assert!(t.has_edge(AgentId(4), AgentId(0)));
        let tiny = Topology::ring(2);
        assert_eq!(tiny.edge_count(), 1);
    }

    #[test]
    fn star_graph_structure() {
        let t = Topology::star(5);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(neighbours(&t, AgentId(0)).len(), 4);
        assert_eq!(neighbours(&t, AgentId(3)), [AgentId(0)]);
    }

    #[test]
    fn grid_graph_structure() {
        let t = Topology::grid(2, 3);
        assert_eq!(t.agent_count(), 6);
        // 2 rows × 2 horizontal edges + 3 vertical edges
        assert_eq!(t.edge_count(), 2 * 2 + 3);
        assert!(t.is_connected());
    }

    #[test]
    fn empty_graph_components_are_singletons() {
        let t = Topology::empty(3);
        assert!(!t.is_connected());
        let comps = t.components();
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn components_of_disconnected_graph() {
        let t = Topology::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let comps = t.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![AgentId(0), AgentId(1), AgentId(2)]);
        assert_eq!(comps[1], vec![AgentId(3), AgentId(4)]);
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for &p in &[0.05, 0.3, 0.9] {
            let t = Topology::random_connected(12, p, &mut rng);
            assert!(t.is_connected(), "p = {p}");
        }
    }

    #[test]
    fn random_connected_sparse_is_connected_and_sparse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for &(n, deg) in &[(1usize, 4.0), (2, 1.0), (50, 4.0), (400, 6.0)] {
            let t = Topology::random_connected_sparse(n, deg, &mut rng);
            assert!(t.is_connected(), "n = {n}, deg = {deg}");
            // Sparse: nowhere near the C(n,2) clique for the larger sizes.
            if n >= 50 {
                assert!(t.edge_count() < n * 8, "n = {n}: {} edges", t.edge_count());
                assert!(t.edge_count() >= n - 1);
            }
        }
        // Determinism given a seed.
        let a =
            Topology::random_connected_sparse(64, 5.0, &mut rand::rngs::StdRng::seed_from_u64(3));
        let b =
            Topology::random_connected_sparse(64, 5.0, &mut rand::rngs::StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        // Degenerate dense request collapses to the clique.
        let dense =
            Topology::random_connected_sparse(6, 10.0, &mut rand::rngs::StdRng::seed_from_u64(1));
        assert_eq!(dense, Topology::complete(6));
    }

    /// The edge set of `pairs`, grown one insert at a time into a
    /// `BTreeSet`: the sorted, deduplicated reference a bulk build must
    /// match.
    fn grown(pairs: impl IntoIterator<Item = (usize, usize)>) -> Vec<Edge> {
        let set: BTreeSet<Edge> = pairs
            .into_iter()
            .map(|(a, b)| Edge::new(AgentId(a), AgentId(b)))
            .collect();
        set.into_iter().collect()
    }

    /// Asserts that `t` has `n` agents and exactly the edges `expected`.
    fn assert_built(t: &Topology, n: usize, expected: &[Edge], what: &str) {
        assert_eq!(t.agent_count(), n, "{what}");
        assert_eq!(t.edges(), expected, "{what}");
        assert_eq!(t.edge_count(), expected.len(), "{what}");
    }

    fn connected(n: usize, edges: &BTreeSet<Edge>) -> bool {
        let edges: Vec<Edge> = edges.iter().copied().collect();
        connected_components(n, &edges, |_| true).len() <= 1
    }

    /// `Topology::random_connected`, edge by edge into a `BTreeSet`, in its
    /// draw order; also returns how many spanning-tree edges repeated an
    /// edge already drawn.
    fn random_connected_grown(n: usize, p: f64, rng: &mut impl Rng) -> (Vec<Edge>, usize) {
        loop {
            let mut set = BTreeSet::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        set.insert(Edge::new(AgentId(i), AgentId(j)));
                    }
                }
            }
            if connected(n, &set) {
                return (set.into_iter().collect(), 0);
            }
            if p < 2.0 * (n as f64).ln() / (n as f64) {
                let mut repeats = 0;
                for i in 1..n {
                    let j = rng.gen_range(0..i);
                    repeats += usize::from(!set.insert(Edge::new(AgentId(i), AgentId(j))));
                }
                return (set.into_iter().collect(), repeats);
            }
        }
    }

    /// `Topology::random_connected_sparse`, edge by edge into a `BTreeSet`,
    /// in its draw order.
    fn random_connected_sparse_grown(n: usize, degree: f64, rng: &mut impl Rng) -> Vec<Edge> {
        let p = if n > 1 {
            (degree / (n as f64 - 1.0)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        if p >= 1.0 {
            return grown((0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j))));
        }
        let mut set = BTreeSet::new();
        if p > 0.0 {
            let ln_q = (1.0 - p).ln();
            for i in 0..n.saturating_sub(1) {
                let mut j = i;
                loop {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let skip = if u > 0.0 {
                        (u.ln() / ln_q).floor()
                    } else {
                        f64::INFINITY
                    };
                    if !skip.is_finite() || skip >= (n - j) as f64 {
                        break;
                    }
                    j += 1 + skip as usize;
                    if j >= n {
                        break;
                    }
                    set.insert(Edge::new(AgentId(i), AgentId(j)));
                }
            }
        }
        let edges: Vec<Edge> = set.iter().copied().collect();
        let mins: Vec<usize> = connected_components(n, &edges, |_| true)
            .iter()
            .filter_map(|c| c.first().map(|a| a.0))
            .collect();
        for pair in mins.windows(2) {
            set.insert(Edge::new(AgentId(pair[0]), AgentId(pair[1])));
        }
        set.into_iter().collect()
    }

    const SIZES: [usize; 6] = [0, 1, 2, 3, 8, 1_000];

    #[test]
    fn bulk_constructors_match_edge_by_edge_growth() {
        for n in SIZES {
            let path = || (1..n).map(|i| (i - 1, i));
            assert_built(&Topology::line(n), n, &grown(path()), "line");
            let closing = (n > 2).then(|| (n - 1, 0));
            assert_built(&Topology::ring(n), n, &grown(path().chain(closing)), "ring");
            assert_built(
                &Topology::star(n),
                n,
                &grown((1..n).map(|i| (0, i))),
                "star",
            );
            // Duplicates, both orientations, unsorted input.
            let listed: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| {
                    [
                        (i, (7 * i + 3) % n),
                        ((5 * i + 1) % n, i),
                        (i, (7 * i + 3) % n),
                    ]
                })
                .filter(|(a, b)| a != b)
                .collect();
            let expected = grown(listed.iter().copied());
            assert_built(
                &Topology::from_edges(n, listed.iter().copied()),
                n,
                &expected,
                "from_edges",
            );
            // The same pairs reversed, each pair flipped, and every pair
            // repeated build the same topology as the sorted, distinct list.
            let sorted = Topology::from_edges(n, expected.iter().map(|e| (e.lo().0, e.hi().0)));
            for variant in [
                listed.iter().rev().copied().collect::<Vec<_>>(),
                listed.iter().map(|&(a, b)| (b, a)).collect(),
                listed.iter().flat_map(|&pair| [pair, pair]).collect(),
            ] {
                assert_eq!(Topology::from_edges(n, variant), sorted, "n = {n}");
            }
        }
        for (rows, cols) in [(0, 3), (1, 1), (1, 2), (1, 3), (2, 4), (25, 40)] {
            let id = |r: usize, c: usize| r * cols + c;
            let mut edges = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if c + 1 < cols {
                        edges.push((id(r, c), id(r, c + 1)));
                    }
                    if r + 1 < rows {
                        edges.push((id(r, c), id(r + 1, c)));
                    }
                }
            }
            assert_built(
                &Topology::grid(rows, cols),
                rows * cols,
                &grown(edges),
                &format!("grid({rows}×{cols})"),
            );
        }
    }

    #[test]
    fn random_constructors_match_growth_and_draw_order() {
        use rand::rngs::StdRng;
        for n in SIZES.into_iter().filter(|&n| n > 0) {
            // Low p takes the spanning fall-back; high p a re-sample loop.
            for (seed, p) in [(1, 0.05), (2, 0.4), (3, 0.9)] {
                if n == 1_000 && p > 0.05 {
                    continue;
                }
                let (mut bulk, mut edge_by_edge) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                assert_built(
                    &Topology::random_connected(n, p, &mut bulk),
                    n,
                    &random_connected_grown(n, p, &mut edge_by_edge).0,
                    &format!("random_connected({n}, {p})"),
                );
                assert_eq!(bulk.gen::<u64>(), edge_by_edge.gen::<u64>());
            }
            // Degree 0 and 0.5 leave components to patch; n - 1 is dense.
            for (seed, degree) in [(4, 0.0), (5, 0.5), (6, 16.0), (7, (n - 1) as f64)] {
                let (mut bulk, mut edge_by_edge) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                assert_built(
                    &Topology::random_connected_sparse(n, degree, &mut bulk),
                    n,
                    &random_connected_sparse_grown(n, degree, &mut edge_by_edge),
                    &format!("random_connected_sparse({n}, {degree})"),
                );
                assert_eq!(bulk.gen::<u64>(), edge_by_edge.gen::<u64>());
            }
        }
    }

    #[test]
    fn random_spanning_fallback_counts_a_repeated_edge_once() {
        use rand::rngs::StdRng;
        // p = 0.3 on 8 agents is below the fall-back threshold 2 ln n / n
        // and dense enough that spanning-tree edges often repeat a drawn one.
        let (n, p) = (8, 0.3);
        let mut repeats = 0;
        for seed in 0..40 {
            let t = Topology::random_connected(n, p, &mut StdRng::seed_from_u64(seed));
            let (expected, repeated) =
                random_connected_grown(n, p, &mut StdRng::seed_from_u64(seed));
            assert!(t.edges().is_sorted_by(|a, b| a < b), "seed {seed}");
            assert_built(&t, n, &expected, &format!("seed {seed}"));
            assert!(t.is_connected());
            repeats += repeated;
        }
        assert!(repeats > 0, "no seed repeated an edge");
    }

    /// Connectivity by a BFS over `edges()` alone, the CSR-free oracle.
    fn bfs_connected(t: &Topology) -> bool {
        let mut adjacency = vec![Vec::new(); t.agent_count()];
        for e in t.edges() {
            adjacency[e.lo().0].push(e.hi().0);
            adjacency[e.hi().0].push(e.lo().0);
        }
        let mut seen = vec![false; t.agent_count()];
        let mut stack: Vec<usize> = (t.agent_count() > 0).then_some(0).into_iter().collect();
        while let Some(a) = stack.pop() {
            if !std::mem::replace(&mut seen[a], true) {
                stack.extend(&adjacency[a]);
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn csr_connectivity_agrees_with_edge_walks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut graphs = vec![
            Topology::ring(8),
            Topology::line(1_000),
            Topology::from_edges(5, [(0, 1), (1, 2), (3, 4)]),
            Topology::from_edges(6, [(4, 5), (0, 5), (2, 3)]),
            Topology::star(6),
        ];
        for n in SIZES {
            graphs.push(Topology::empty(n));
            graphs.push(Topology::complete(n));
            // Sparse random edge lists: mostly disconnected.
            let edges: Vec<(usize, usize)> = (0..n / 2)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|(a, b)| a != b)
                .collect();
            graphs.push(Topology::from_edges(n, edges));
        }
        for t in &graphs {
            assert_eq!(t.is_connected(), bfs_connected(t), "{t:?}");
            assert_eq!(
                t.components(),
                connected_components(t.agent_count(), t.edges(), |_| true),
                "{t:?}"
            );
        }
    }

    #[test]
    fn clones_share_one_csr() {
        let t = Topology::ring(6);
        assert!(Arc::ptr_eq(&t.clone().csr(), &t.csr()));
        // A clique builds its adjacency on first use, once for all clones,
        // whether they were taken before or after the build.
        let clique = Topology::complete(5);
        let early = clique.clone();
        assert!(Arc::ptr_eq(&early.csr(), &clique.csr()));
        assert!(Arc::ptr_eq(&clique.clone().csr(), &early.csr()));
        assert_eq!(clique.csr().edge_count(), 10);
    }

    #[test]
    #[should_panic(expected = "self-loop edges are not allowed")]
    fn from_edges_rejects_self_loops() {
        let _ = Topology::from_edges(3, [(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = Topology::from_edges(2, [(0, 5)]);
    }

    #[test]
    fn single_agent_topology_is_connected() {
        let t = Topology::empty(1);
        assert!(t.is_connected());
        assert_eq!(t.components(), vec![vec![AgentId(0)]]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(AgentId(3).to_string(), "a3");
        assert_eq!(Edge::new(AgentId(1), AgentId(0)).to_string(), "a0—a1");
    }

    #[test]
    fn symbolic_complete_matches_explicit_clique() {
        let symbolic = Topology::complete(6);
        let explicit =
            Topology::from_edges(6, (0..6).flat_map(|i| ((i + 1)..6).map(move |j| (i, j))));
        assert_eq!(symbolic, explicit);
        assert_eq!(explicit, symbolic);
        assert_eq!(symbolic.edges(), explicit.edges());
        assert_eq!(symbolic.components(), explicit.components());
        assert_eq!(symbolic.clone(), symbolic);
        assert_ne!(symbolic, Topology::ring(6));
    }

    #[test]
    fn huge_complete_graph_is_cheap_without_materialising() {
        // 100k agents ⇒ ~5·10⁹ edges if expanded; every query below must
        // use the closed forms.
        let t = Topology::complete(100_000);
        assert_eq!(t.edge_count(), 100_000 * 99_999 / 2);
        assert!(t.has_edge(AgentId(0), AgentId(99_999)));
        assert!(!t.has_edge(AgentId(0), AgentId(0)));
        assert!(!t.has_edge(AgentId(0), AgentId(100_000)));
        assert!(t.is_connected());
        assert_eq!(t.components().len(), 1);
        let _ = t.clone(); // clones stay symbolic (and cheap)
    }
}
