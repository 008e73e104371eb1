//! Flat CSR (compressed sparse row) adjacency over a sorted edge array.
//!
//! A [`Csr`] owns the one sorted, deduplicated edge array of an edge set:
//! an explicit [`Topology`] builds its CSR in its constructor and answers
//! [`Topology::edges`] from it, and a fully enabled
//! [`EnvState`](crate::EnvState) aliases the same array.  The connectivity
//! hot path (incremental group maintenance, see
//! [`GroupIndex`](crate::GroupIndex)) addresses edges by their index in
//! that array and walks neighbourhoods through two flat arrays, so repeated
//! delta applications pay only for the *change*, never for rebuilding the
//! adjacency.
//!
//! Symbolic complete topologies keep their closed forms everywhere else in
//! this crate; their CSR is only built when a caller genuinely needs
//! per-edge addressing.

use std::sync::Arc;

use crate::topology::{at, at_mut, sorted};
use crate::Edge;

/// Flat adjacency of an edge set: `xadj`/`adj` row pointers plus a parallel
/// array mapping each adjacency entry to its dense edge id.
///
/// Edge ids are positions in the ascending [`Edge`] array, so `edges[id]`
/// recovers the edge and a binary search recovers the id.
#[derive(Debug)]
pub struct Csr {
    n: usize,
    /// Row pointers, length `n + 1`.
    xadj: Vec<u32>,
    /// Neighbour agent indices; each undirected edge appears twice.
    adj: Vec<u32>,
    /// Dense edge id of each adjacency entry, parallel to `adj`.
    adj_eid: Vec<u32>,
    /// Edge id → edge, sorted ascending and deduplicated; shared with the
    /// environment states that enable every edge.
    edges: Arc<Vec<Edge>>,
}

impl Csr {
    /// The adjacency of `n` agents over `edges`, which are sorted and
    /// deduplicated here.  Every endpoint must be below `n`.
    pub(crate) fn new(n: usize, edges: Vec<Edge>) -> Self {
        let mut edges = sorted(edges);
        edges.shrink_to_fit();
        let mut xadj = vec![0u32; n + 1];
        for e in &edges {
            *at_mut(&mut xadj, e.lo().index() + 1) += 1;
            *at_mut(&mut xadj, e.hi().index() + 1) += 1;
        }
        for i in 1..=n {
            *at_mut(&mut xadj, i) += at(&xadj, i - 1);
        }
        let total = at(&xadj, n) as usize;
        let mut adj = vec![0u32; total];
        let mut adj_eid = vec![0u32; total];
        // Each row pointer serves as its row's fill cursor, so it ends at
        // the next row's start; one shift restores the row starts.
        for (eid, e) in edges.iter().enumerate() {
            let (lo, hi) = (e.lo().index(), e.hi().index());
            for (src, dst) in [(lo, hi), (hi, lo)] {
                let c = at_mut(&mut xadj, src);
                *at_mut(&mut adj, *c as usize) = dst as u32;
                *at_mut(&mut adj_eid, *c as usize) = eid as u32;
                *c += 1;
            }
        }
        xadj.copy_within(0..n, 1);
        *at_mut(&mut xadj, 0) = 0;
        Csr {
            n,
            xadj,
            adj,
            adj_eid,
            edges: Arc::new(edges),
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

    /// All edges in dense-id (ascending) order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge array itself, for states that alias it.
    pub(crate) fn shared_edges(&self) -> Arc<Vec<Edge>> {
        Arc::clone(&self.edges)
    }

    /// The dense id of `edge`, or `None` if it is not in the edge set.
    pub fn edge_id(&self, edge: &Edge) -> Option<u32> {
        self.edges.binary_search(edge).ok().map(|i| i as u32)
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
    use crate::{AgentId, Topology};

    #[test]
    fn csr_matches_topology_adjacency() {
        let pairs = [(0, 1), (1, 2), (3, 4), (0, 4)];
        let topo = Topology::from_edges(5, pairs);
        let csr = topo.csr();
        assert_eq!(csr.agent_count(), 5);
        assert_eq!(csr.edge_count(), 4);
        for a in 0..5 {
            let mut nbrs: Vec<usize> = csr.neighbors(a).map(|(b, _)| b as usize).collect();
            nbrs.sort();
            let mut listed: Vec<usize> = (pairs.iter())
                .flat_map(|&(x, y)| [(x, y), (y, x)])
                .filter(|&(x, _)| x == a)
                .map(|(_, y)| y)
                .collect();
            listed.sort();
            assert_eq!(nbrs, listed, "agent {a}");
        }
        // Edge ids round-trip and the eid annotation names the edge to
        // the neighbour.
        for (eid, e) in csr.edges().iter().enumerate() {
            assert_eq!(csr.edge_id(e), Some(eid as u32));
        }
        for (b, eid) in csr.neighbors(0) {
            assert_eq!(
                csr.edges().get(eid as usize),
                Some(&Edge::new(AgentId(0), AgentId(b as usize)))
            );
        }
        assert_eq!(
            csr.edge_id(&Edge::new(AgentId(2), AgentId(3))),
            None,
            "absent edge has no id"
        );
        assert_eq!(csr.neighbors(0).count(), 2);
        assert_eq!(csr.neighbors(2).count(), 1);
    }

    #[test]
    fn csr_of_complete_topology_materialises() {
        let csr = Topology::complete(4).csr();
        assert_eq!(csr.edge_count(), 6);
        assert_eq!(csr.neighbors(0).count(), 3);
    }
}
