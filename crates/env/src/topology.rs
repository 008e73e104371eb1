//! Agents, communication edges and the underlying topology graph.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize, Value};

/// Identifier of an agent (process) in the fixed agent set `A`.
///
/// The paper keeps agent identities out of the *algorithms* (self-similar
/// computations are identity-agnostic) but the *infrastructure* — topology,
/// environment, simulators — still needs to address individual agents.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
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

    /// Both endpoints, smaller id first.
    pub fn endpoints(&self) -> (AgentId, AgentId) {
        (self.lo, self.hi)
    }

    /// Returns `true` if `agent` is one of the endpoints.
    pub fn touches(&self, agent: AgentId) -> bool {
        self.lo == agent || self.hi == agent
    }

    /// Given one endpoint, returns the other; `None` if `agent` is not an
    /// endpoint.
    pub fn other(&self, agent: AgentId) -> Option<AgentId> {
        if agent == self.lo {
            Some(self.hi)
        } else if agent == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}—{}", self.lo, self.hi)
    }
}

/// Edge storage shared by [`Topology`] and
/// [`FairnessSpec`](crate::FairnessSpec): either an explicit sorted set, or
/// the complete graph on `n` agents held *symbolically* so that
/// `complete(100000)` costs O(1) instead of materialising ~5·10⁹ edges.
///
/// All queries (`len`, `contains`, neighbours, components) have closed
/// forms for the complete case; [`EdgeSet::materialized`] lazily expands
/// the set once for the few callers that genuinely need every edge
/// (serialization, per-edge environment churn), and caches the expansion.
///
/// Equality is *semantic* — a symbolic complete graph equals the explicit
/// set of the same edges — so representation changes never change cell
/// identity.
#[derive(Debug)]
pub(crate) enum EdgeSet {
    /// An explicit edge set, shared copy-on-write so that cloning a
    /// topology (and deriving environment states from it) is O(1).
    Explicit(Arc<BTreeSet<Edge>>),
    /// The complete graph on agents `0..n`, expanded on demand.
    Complete {
        /// Number of agents the clique spans.
        n: usize,
        /// Lazily materialised edge set (for `edges()`/serialization).
        cache: OnceLock<BTreeSet<Edge>>,
    },
}

impl EdgeSet {
    fn complete_len(n: usize) -> usize {
        n * n.saturating_sub(1) / 2
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EdgeSet::Explicit(edges) => edges.len(),
            EdgeSet::Complete { n, .. } => EdgeSet::complete_len(*n),
        }
    }

    pub(crate) fn contains(&self, edge: &Edge) -> bool {
        match self {
            EdgeSet::Explicit(edges) => edges.contains(edge),
            // Edges are normalised (lo < hi), so `hi < n` implies both
            // endpoints are in the clique.
            EdgeSet::Complete { n, .. } => edge.hi().index() < *n,
        }
    }

    /// The explicit edge set, expanding (and caching) a symbolic clique.
    pub(crate) fn materialized(&self) -> &BTreeSet<Edge> {
        match self {
            EdgeSet::Explicit(edges) => edges.as_ref(),
            EdgeSet::Complete { n, cache } => cache.get_or_init(|| {
                let mut edges = BTreeSet::new();
                for i in 0..*n {
                    for j in (i + 1)..*n {
                        edges.insert(Edge::new(AgentId(i), AgentId(j)));
                    }
                }
                edges
            }),
        }
    }

    /// The edge set as a shareable `Arc` (materialising a clique), for
    /// consumers that want to alias rather than copy the set.
    pub(crate) fn shared(&self) -> Arc<BTreeSet<Edge>> {
        match self {
            EdgeSet::Explicit(edges) => Arc::clone(edges),
            complete @ EdgeSet::Complete { .. } => Arc::new(complete.materialized().clone()),
        }
    }
}

impl Clone for EdgeSet {
    fn clone(&self) -> Self {
        match self {
            // O(1): the set is copy-on-write (see `Topology::add_edge`).
            EdgeSet::Explicit(edges) => EdgeSet::Explicit(Arc::clone(edges)),
            // The cache is per-instance scratch; clones start cold.
            EdgeSet::Complete { n, .. } => EdgeSet::Complete {
                n: *n,
                cache: OnceLock::new(),
            },
        }
    }
}

impl PartialEq for EdgeSet {
    fn eq(&self, other: &Self) -> bool {
        // A set of C(n,2) distinct normalised edges with every endpoint
        // below n *is* the clique on n, so count + range check is exact.
        let matches_complete = |edges: &BTreeSet<Edge>, n: usize| {
            edges.len() == EdgeSet::complete_len(n) && edges.iter().all(|e| e.hi().index() < n)
        };
        match (self, other) {
            (EdgeSet::Explicit(a), EdgeSet::Explicit(b)) => a == b,
            (EdgeSet::Complete { n: a, .. }, EdgeSet::Complete { n: b, .. }) => {
                EdgeSet::complete_len(*a) == EdgeSet::complete_len(*b)
            }
            (EdgeSet::Explicit(edges), EdgeSet::Complete { n, .. })
            | (EdgeSet::Complete { n, .. }, EdgeSet::Explicit(edges)) => {
                matches_complete(edges, *n)
            }
        }
    }
}

impl Eq for EdgeSet {}

/// The communication graph `(A, E)`: a fixed set of `n` agents
/// (`AgentId(0) .. AgentId(n-1)`) and a set of undirected edges.
///
/// The topology is the *potential* connectivity; at any instant the
/// environment enables some subset of its edges (see
/// [`EnvState`](crate::EnvState)).  The fairness sets `Q_E` of the paper's
/// examples are defined over topology edges.
///
/// Complete graphs are held symbolically (see [`EdgeSet`]), so
/// [`Topology::complete`] is O(1) and clique queries never expand the edge
/// set; only [`Topology::edges`] does, lazily.
///
/// The flat CSR adjacency ([`Csr`](crate::Csr)) is likewise built lazily —
/// at most once per topology — and shared via `Arc` with every consumer
/// (see [`Topology::csr`]).
pub struct Topology {
    n: usize,
    edges: EdgeSet,
    /// Lazily built flat adjacency; per-instance scratch like the clique
    /// cache, so it participates in neither equality nor cloning.
    csr: OnceLock<std::sync::Arc<crate::csr::Csr>>,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        // A clone has the identical agent and edge sets, so an already
        // built CSR stays valid — share it instead of rebuilding (any
        // later mutation invalidates it on both sides independently,
        // because `add_edge` replaces rather than edits the Arc).
        let csr = OnceLock::new();
        if let Some(built) = self.csr.get() {
            let _ = csr.set(Arc::clone(built));
        }
        Topology {
            n: self.n,
            edges: self.edges.clone(),
            csr,
        }
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.edges == other.edges
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

// Hand-written serde keeping the exact `{ "n": …, "edges": [...] }` wire
// shape the old derive produced, so records and golden files are unchanged;
// serializing a symbolic clique materialises it.
impl Serialize for Topology {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("n".into(), self.n.to_value()),
            ("edges".into(), self.edges.materialized().to_value()),
        ])
    }
}

impl Deserialize for Topology {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| serde::Error(format!("Topology missing field `{name}`")))
        };
        Ok(Topology {
            n: usize::from_value(field("n")?)?,
            edges: EdgeSet::Explicit(Arc::new(BTreeSet::from_value(field("edges")?)?)),
            csr: OnceLock::new(),
        })
    }
}

impl Topology {
    /// Creates a topology with `n` agents and no edges.
    pub fn empty(n: usize) -> Self {
        Topology {
            n,
            edges: EdgeSet::Explicit(Arc::new(BTreeSet::new())),
            csr: OnceLock::new(),
        }
    }

    /// Creates a topology from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics if any edge endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut topo = Topology::empty(n);
        for (a, b) in edges {
            topo.add_edge(AgentId(a), AgentId(b));
        }
        topo
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
                cache: OnceLock::new(),
            },
            csr: OnceLock::new(),
        }
    }

    /// The line (path) graph `0 — 1 — … — n-1`.
    ///
    /// This is the fairness graph used by the *sorting* example (§4.4):
    /// each agent need only communicate with its index neighbours.
    pub fn line(n: usize) -> Self {
        let mut topo = Topology::empty(n);
        for i in 1..n {
            topo.add_edge(AgentId(i - 1), AgentId(i));
        }
        topo
    }

    /// The ring (cycle) graph on `n` agents.
    pub fn ring(n: usize) -> Self {
        let mut topo = Topology::line(n);
        if n > 2 {
            topo.add_edge(AgentId(n - 1), AgentId(0));
        }
        topo
    }

    /// The star graph with agent 0 at the centre.
    pub fn star(n: usize) -> Self {
        let mut topo = Topology::empty(n);
        for i in 1..n {
            topo.add_edge(AgentId(0), AgentId(i));
        }
        topo
    }

    /// A `rows × cols` grid graph.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        let mut topo = Topology::empty(n);
        let id = |r: usize, c: usize| AgentId(r * cols + c);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    topo.add_edge(id(r, c), id(r, c + 1));
                }
                if r + 1 < rows {
                    topo.add_edge(id(r, c), id(r + 1, c));
                }
            }
        }
        topo
    }

    /// An Erdős–Rényi `G(n, p)` random graph, re-sampled until connected
    /// (so it can serve as a fairness graph for the consensus examples).
    pub fn random_connected(n: usize, p: f64, rng: &mut impl Rng) -> Self {
        assert!(n > 0, "need at least one agent");
        loop {
            let mut topo = Topology::empty(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        topo.add_edge(AgentId(i), AgentId(j));
                    }
                }
            }
            if topo.is_connected() {
                return topo;
            }
            // Guarantee termination for tiny p by falling back to a ring
            // after an unlucky streak is unlikely but possible; add one
            // random spanning structure instead of looping forever.
            if p < 2.0 * (n as f64).ln() / (n as f64) {
                for i in 1..n {
                    let j = rng.gen_range(0..i);
                    topo.add_edge(AgentId(i), AgentId(j));
                }
                return topo;
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
        let mut topo = Topology::empty(n);
        let p = if n > 1 {
            (expected_degree / (n as f64 - 1.0)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        if p >= 1.0 {
            // Degenerate dense request: every pair is present.
            for i in 0..n {
                for j in (i + 1)..n {
                    topo.add_edge(AgentId(i), AgentId(j));
                }
            }
            return topo;
        }
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
                    topo.add_edge(AgentId(i), AgentId(j));
                }
            }
        }
        // Deterministic connectivity patch: chain each component's smallest
        // member to the previous component's smallest member.
        let comps = topo.components();
        let mins: Vec<AgentId> = comps.iter().filter_map(|c| c.first().copied()).collect();
        for pair in mins.windows(2) {
            if let [a, b] = pair {
                topo.add_edge(*a, *b);
            }
        }
        topo
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.n
    }

    /// Iterates over all agent ids.
    pub fn agents(&self) -> impl Iterator<Item = AgentId> {
        (0..self.n).map(AgentId)
    }

    /// The edge set.  A symbolic complete graph is materialised (once) on
    /// first access; prefer the closed-form queries ([`Topology::has_edge`],
    /// [`Topology::edge_count`], [`Topology::components`]) on huge cliques.
    pub fn edges(&self) -> &BTreeSet<Edge> {
        self.edges.materialized()
    }

    /// The internal edge representation, shared with
    /// [`FairnessSpec`](crate::FairnessSpec) so clique specs stay symbolic.
    pub(crate) fn edge_set(&self) -> &EdgeSet {
        &self.edges
    }

    /// The edge set as a shareable `Arc` (materialising a clique), so
    /// derived structures ([`EnvState::fully_enabled`](crate::EnvState))
    /// can alias it instead of copying a million edges.
    pub(crate) fn shared_edges(&self) -> Arc<BTreeSet<Edge>> {
        self.edges.shared()
    }

    /// Number of edges (closed form for symbolic cliques).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The flat CSR adjacency of this topology, built at most once and
    /// shared via `Arc` (so consumers can hold it across mutable borrows of
    /// the environment that owns the topology).
    ///
    /// A symbolic clique is materialised by the build — callers that can
    /// stay symbolic (e.g. the event runtime's fully-enabled fast path)
    /// should not ask for a CSR.
    pub fn csr(&self) -> std::sync::Arc<crate::csr::Csr> {
        self.csr
            .get_or_init(|| std::sync::Arc::new(crate::csr::Csr::new(self)))
            .clone()
    }

    /// Adds an (undirected) edge.  A symbolic clique is expanded first —
    /// mutation forfeits the compact representation.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the edge is a self-loop.
    pub fn add_edge(&mut self, a: AgentId, b: AgentId) {
        assert!(
            a.0 < self.n && b.0 < self.n,
            "edge endpoint out of range: {a}, {b} with n = {}",
            self.n
        );
        // Mutation invalidates the cached flat adjacency.
        self.csr.take();
        if let EdgeSet::Complete { .. } = self.edges {
            self.edges = EdgeSet::Explicit(self.edges.shared());
        }
        match &mut self.edges {
            EdgeSet::Explicit(edges) => {
                // Copy-on-write: clones sharing this set are unaffected.
                Arc::make_mut(edges).insert(Edge::new(a, b));
            }
            EdgeSet::Complete { .. } => unreachable!("clique expanded above"),
        }
    }

    /// Returns `true` if the edge `{a, b}` is in the topology.
    pub fn has_edge(&self, a: AgentId, b: AgentId) -> bool {
        // The clique's closed form needs the explicit range check the
        // set-containment path got for free.
        a != b && a.0 < self.n && b.0 < self.n && self.edges.contains(&Edge::new(a, b))
    }

    /// The neighbours of `agent` in the topology, in ascending id order.
    pub fn neighbors(&self, agent: AgentId) -> Vec<AgentId> {
        match &self.edges {
            EdgeSet::Explicit(edges) => edges.iter().filter_map(|e| e.other(agent)).collect(),
            EdgeSet::Complete { n, .. } => {
                if agent.0 >= *n {
                    return Vec::new();
                }
                (0..*n).map(AgentId).filter(|&a| a != agent).collect()
            }
        }
    }

    /// Returns `true` if the graph is connected (or has at most one agent).
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// The connected components of the topology.
    pub fn components(&self) -> Vec<Vec<AgentId>> {
        match &self.edges {
            EdgeSet::Explicit(edges) => connected_components(self.n, edges, |_| true),
            EdgeSet::Complete { n, .. } => {
                // Agents inside the clique form one component; agents
                // beyond it (possible only via deserialized data) would be
                // isolated, but `complete(n)` always has `n == self.n`.
                let clique: Vec<AgentId> = (0..*n.min(&self.n)).map(AgentId).collect();
                let mut components = Vec::new();
                if !clique.is_empty() {
                    components.push(clique);
                }
                for i in *n..self.n {
                    components.push(vec![AgentId(i)]);
                }
                components
            }
        }
    }
}

/// Computes the connected components of the subgraph of the `n`-agent graph
/// with edge set `edges`, restricted to the agents accepted by `include`.
///
/// Agents excluded by `include` do not appear in any component.
///
/// This is the flat-core formulation: a `Vec`-backed CSR adjacency built in
/// two passes, then an ascending component-labelling sweep.  Because labels
/// are assigned in ascending order of each component's smallest member, and
/// members are emitted by one final ascending pass over all agents, every
/// component comes out sorted and components are ordered by their minimum —
/// byte-identical to the old `BTreeMap`-adjacency BFS, at a fraction of the
/// cost.
pub(crate) fn connected_components(
    n: usize,
    edges: &BTreeSet<Edge>,
    include: impl Fn(AgentId) -> bool,
) -> Vec<Vec<AgentId>> {
    const NONE: u32 = u32::MAX;
    // Pass 1: collect the live (both-endpoints-included) edges once, so the
    // `include` closure runs a single time per endpoint.
    let live: Vec<(u32, u32)> = edges
        .iter()
        .map(|e| e.endpoints())
        .filter(|&(a, b)| include(a) && include(b))
        .map(|(a, b)| (a.index() as u32, b.index() as u32))
        .collect();
    // Pass 2: CSR adjacency — degree count, prefix sum, fill.
    let mut xadj = vec![0u32; n + 1];
    for &(a, b) in &live {
        *at_mut(&mut xadj, a as usize + 1) += 1;
        *at_mut(&mut xadj, b as usize + 1) += 1;
    }
    for i in 1..=n {
        *at_mut(&mut xadj, i) += at(&xadj, i - 1);
    }
    let mut cursor: Vec<u32> = xadj.iter().copied().take(n).collect();
    let mut adj = vec![0u32; at(&xadj, n) as usize];
    for &(a, b) in &live {
        let ca = at_mut(&mut cursor, a as usize);
        *at_mut(&mut adj, *ca as usize) = b;
        *ca += 1;
        let cb = at_mut(&mut cursor, b as usize);
        *at_mut(&mut adj, *cb as usize) = a;
        *cb += 1;
    }
    // Pass 3: label components, scanning start agents in ascending order so
    // label k's component has the k-th smallest minimum member.
    let mut comp = vec![NONE; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut sizes: Vec<u32> = Vec::new();
    for i in 0..n {
        if at(&comp, i) != NONE || !include(AgentId(i)) {
            continue;
        }
        let label = sizes.len() as u32;
        let mut size = 0u32;
        *at_mut(&mut comp, i) = label;
        stack.push(i as u32);
        while let Some(a) = stack.pop() {
            size += 1;
            let lo = at(&xadj, a as usize) as usize;
            let hi = at(&xadj, a as usize + 1) as usize;
            for t in lo..hi {
                let b = at(&adj, t) as usize;
                if at(&comp, b) == NONE {
                    *at_mut(&mut comp, b) = label;
                    stack.push(b as u32);
                }
            }
        }
        sizes.push(size);
    }
    // Pass 4: emit members ascending — components arrive pre-sorted.
    let mut components: Vec<Vec<AgentId>> = sizes
        .iter()
        .map(|&s| Vec::with_capacity(s as usize))
        .collect();
    for (i, &label) in comp.iter().enumerate() {
        if label != NONE {
            at_mut(&mut components, label as usize).push(AgentId(i));
        }
    }
    components
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn edge_is_normalised_and_symmetric() {
        let e1 = Edge::new(AgentId(3), AgentId(1));
        let e2 = Edge::new(AgentId(1), AgentId(3));
        assert_eq!(e1, e2);
        assert_eq!(e1.lo(), AgentId(1));
        assert_eq!(e1.hi(), AgentId(3));
        assert_eq!(e1.other(AgentId(1)), Some(AgentId(3)));
        assert_eq!(e1.other(AgentId(3)), Some(AgentId(1)));
        assert_eq!(e1.other(AgentId(7)), None);
        assert!(e1.touches(AgentId(1)));
        assert!(!e1.touches(AgentId(2)));
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

    #[test]
    fn line_graph_structure() {
        let t = Topology::line(4);
        assert_eq!(t.edge_count(), 3);
        assert!(t.has_edge(AgentId(0), AgentId(1)));
        assert!(!t.has_edge(AgentId(0), AgentId(2)));
        assert!(t.is_connected());
        assert_eq!(t.neighbors(AgentId(1)), vec![AgentId(0), AgentId(2)]);
        assert_eq!(t.neighbors(AgentId(0)), vec![AgentId(1)]);
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
        assert_eq!(t.neighbors(AgentId(0)).len(), 4);
        assert_eq!(t.neighbors(AgentId(3)), vec![AgentId(0)]);
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut t = Topology::empty(2);
        t.add_edge(AgentId(0), AgentId(5));
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
        let mut explicit = Topology::empty(6);
        for i in 0..6 {
            for j in (i + 1)..6 {
                explicit.add_edge(AgentId(i), AgentId(j));
            }
        }
        assert_eq!(symbolic, explicit);
        assert_eq!(explicit, symbolic);
        assert_eq!(symbolic.edges(), explicit.edges());
        assert_eq!(
            symbolic.neighbors(AgentId(2)),
            explicit.neighbors(AgentId(2))
        );
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
        assert_eq!(t.neighbors(AgentId(5)).len(), 99_999);
        assert!(t.neighbors(AgentId(100_000)).is_empty());
        let _ = t.clone(); // clones stay symbolic (and cheap)
    }

    #[test]
    fn complete_graph_mutation_expands_the_clique() {
        let mut t = Topology::complete(3);
        t.add_edge(AgentId(0), AgentId(1)); // already present
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t, Topology::complete(3));
    }

    #[test]
    fn topology_wire_shape_is_representation_independent() {
        let symbolic = Topology::complete(3);
        let explicit = Topology::from_edges(3, [(0, 1), (0, 2), (1, 2)]);
        assert_eq!(symbolic.to_value(), explicit.to_value());
        let back = Topology::from_value(&symbolic.to_value()).expect("round-trips");
        assert_eq!(back, symbolic);
        assert!(Topology::from_value(&Value::Null).is_err());
    }
}
