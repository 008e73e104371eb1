//! Flat CSR (compressed sparse row) adjacency for a [`Topology`].
//!
//! The connectivity hot path (incremental group maintenance, see
//! [`GroupIndex`](crate::GroupIndex)) addresses edges by a dense integer id
//! and walks neighbourhoods through two flat arrays instead of chasing
//! `BTreeMap`/`BTreeSet` nodes.  A [`Csr`] is built once per edge set
//! (cached in a `OnceLock` that a topology's clones share, and handed out
//! via `Arc`), so repeated delta applications pay only for the *change*,
//! never for rebuilding the adjacency.
//!
//! Symbolic complete topologies keep their closed forms everywhere else in
//! this crate; a CSR is only ever built when a caller genuinely needs
//! per-edge addressing (the same boundary at which the old code materialised
//! the clique into an `EnvState`).

use crate::topology::{at, at_mut};
use crate::{Edge, Topology};

/// Flat adjacency of a topology: `xadj`/`adj` row pointers plus a parallel
/// array mapping each adjacency entry to its dense edge id.
///
/// Edge ids are assigned in ascending [`Edge`] order (the iteration order of
/// the topology's sorted edge set), so `edges[id]` recovers the edge and a
/// binary search recovers the id.
#[derive(Debug)]
pub struct Csr {
    n: usize,
    /// Row pointers, length `n + 1`.
    xadj: Vec<u32>,
    /// Neighbour agent indices; each undirected edge appears twice.
    adj: Vec<u32>,
    /// Dense edge id of each adjacency entry, parallel to `adj`.
    adj_eid: Vec<u32>,
    /// Edge id → edge, sorted ascending.
    edges: Vec<Edge>,
}

impl Csr {
    /// Builds the CSR adjacency of `topology`.  A symbolic complete topology
    /// is materialised first — callers that can stay symbolic should not
    /// build a CSR at all.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.agent_count();
        let edges: Vec<Edge> = topology.edges().iter().copied().collect();
        let mut xadj = vec![0u32; n + 1];
        for e in &edges {
            *at_mut(&mut xadj, e.lo().index() + 1) += 1;
            *at_mut(&mut xadj, e.hi().index() + 1) += 1;
        }
        for i in 1..=n {
            *at_mut(&mut xadj, i) += at(&xadj, i - 1);
        }
        let total = at(&xadj, n) as usize;
        let mut cursor: Vec<u32> = xadj.iter().copied().take(n).collect();
        let mut adj = vec![0u32; total];
        let mut adj_eid = vec![0u32; total];
        for (eid, e) in edges.iter().enumerate() {
            let (lo, hi) = (e.lo().index(), e.hi().index());
            for (src, dst) in [(lo, hi), (hi, lo)] {
                let c = at_mut(&mut cursor, src);
                *at_mut(&mut adj, *c as usize) = dst as u32;
                *at_mut(&mut adj_eid, *c as usize) = eid as u32;
                *c += 1;
            }
        }
        Csr {
            n,
            xadj,
            adj,
            adj_eid,
            edges,
        }
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.n
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge with dense id `id`.
    pub fn edge(&self, id: u32) -> Edge {
        at(&self.edges, id as usize)
    }

    /// All edges in dense-id (ascending) order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The dense id of `edge`, or `None` if it is not in the topology.
    pub fn edge_id(&self, edge: &Edge) -> Option<u32> {
        self.edges.binary_search(edge).ok().map(|i| i as u32)
    }

    /// Degree of agent `a` in the topology.
    pub fn degree(&self, a: usize) -> usize {
        (at(&self.xadj, a + 1) - at(&self.xadj, a)) as usize
    }

    /// The row pointers and neighbour array, for whole-graph walks.
    pub(crate) fn rows(&self) -> (&[u32], &[u32]) {
        (&self.xadj, &self.adj)
    }

    /// Iterates the neighbours of agent `a` as `(neighbour index, edge id)`
    /// pairs.
    pub fn neighbors(&self, a: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = at(&self.xadj, a) as usize;
        let hi = at(&self.xadj, a + 1) as usize;
        let nbrs = self.adj.get(lo..hi).expect("CSR row in range");
        let eids = self.adj_eid.get(lo..hi).expect("CSR row in range");
        nbrs.iter().copied().zip(eids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AgentId;

    #[test]
    fn csr_matches_topology_adjacency() {
        let topo = Topology::from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 4)]);
        let csr = Csr::new(&topo);
        assert_eq!(csr.agent_count(), 5);
        assert_eq!(csr.edge_count(), 4);
        for a in 0..5 {
            let mut nbrs: Vec<AgentId> =
                csr.neighbors(a).map(|(b, _)| AgentId(b as usize)).collect();
            nbrs.sort();
            assert_eq!(nbrs, topo.neighbors(AgentId(a)), "agent {a}");
        }
        // Edge ids round-trip and the eid annotation agrees with `edge()`.
        for (eid, e) in csr.edges().iter().enumerate() {
            assert_eq!(csr.edge_id(e), Some(eid as u32));
            assert_eq!(csr.edge(eid as u32), *e);
        }
        for (b, eid) in csr.neighbors(0) {
            let e = csr.edge(eid);
            assert!(e.touches(AgentId(0)));
            assert!(e.touches(AgentId(b as usize)));
        }
        assert_eq!(
            csr.edge_id(&Edge::new(AgentId(2), AgentId(3))),
            None,
            "absent edge has no id"
        );
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(2), 1);
    }

    #[test]
    fn csr_of_complete_topology_materialises() {
        let csr = Csr::new(&Topology::complete(4));
        assert_eq!(csr.edge_count(), 6);
        assert_eq!(csr.degree(0), 3);
    }
}
