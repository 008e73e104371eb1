//! Incremental group maintenance over the flat CSR core.
//!
//! A [`GroupIndex`] tracks the partition of agents into groups — connected
//! components of the enabled subgraph restricted to enabled agents — under
//! a stream of [`EnvChanges`] deltas.  The partition lives in three flat
//! arrays: `comp_of` maps each agent to its group's position, `members`
//! holds every enabled agent grouped (groups in ascending-min order, each
//! group ascending), and group `i` is `members[starts[i]..starts[i + 1]]`.
//!
//! A delta first moves *labels* in `comp_of`, at cost proportional to the
//! change:
//!
//! - **edge up / agent up** merges two groups by re-labelling the smaller
//!   one (a scan of its `members` run if no earlier change in the delta
//!   touched it, else a BFS confined to its old label), never the merged
//!   group;
//! - a **lone edge down** runs a bidirectional BFS probe confined to the
//!   affected group and, if the endpoints really separated, re-labels only
//!   the side that exhausted first;
//! - an **edge-down batch** or an **agent down** re-labels each affected
//!   group over the final masks, one BFS per piece, seeded at the touched
//!   endpoints.
//!
//! If any label or member changed, one counting pass over the agents in
//! ascending order then renumbers labels to positions and rebuilds
//! `members` and `starts`; ascending-min order falls out of the scan.  A
//! delta that moves no label (a probe that met, flips of unusable edges)
//! rebuilds nothing.  [`EnvDelta::Full`](crate::EnvDelta::Full) falls back
//! to a full BFS labelling followed by the same pass
//! ([`GroupIndex::reset_from_state`]).
//!
//! Every buffer is sized to the agent count in [`GroupIndex::new`], so no
//! update allocates.  Groups come out exactly as [`EnvState::groups`]
//! produces them, so records derived from either path are byte-identical.

use std::sync::Arc;

use crate::csr::Csr;
use crate::topology::{at, at_mut};
use crate::{AgentId, Edge, EnvChanges, EnvState, Topology};

const NONE: u32 = u32::MAX;

/// Incrementally maintained agent partition (see module docs).
#[derive(Debug)]
pub struct GroupIndex {
    csr: Arc<Csr>,
    /// Enablement bitmask indexed by dense CSR edge id.
    edge_enabled: Vec<bool>,
    /// Enablement bitmask indexed by agent index.
    agent_enabled: Vec<bool>,
    enabled_edge_count: usize,
    enabled_agent_count: usize,
    /// Enabled edges whose endpoints are both enabled (the edges a group
    /// step can actually use).
    usable_edge_count: usize,
    /// Agent index → its group's position (`NONE` for disabled agents).
    /// During an update it holds labels, which [`Self::rebuild`] renumbers.
    comp_of: Vec<u32>,
    /// Every enabled agent, grouped; see the module docs.
    members: Vec<AgentId>,
    /// Group `i` is `members[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Label → group size.  Labels live in `0..2n`: an update starts with
    /// at most `n` in use and creates at most `n` more before a rebuild.
    size: Vec<u32>,
    /// Label → whether the group is still exactly its `members` run (only
    /// labels untouched since the last rebuild).
    intact: Vec<bool>,
    /// Label → position, used by the rebuild.
    pos_of: Vec<u32>,
    next_label: u32,
    /// A label or a membership changed since the last rebuild.
    stale: bool,
    /// Epoch-stamped BFS scratch.
    visited: Vec<u32>,
    epoch: u32,
    queue_a: Vec<u32>,
    queue_b: Vec<u32>,
}

impl GroupIndex {
    /// Creates an index over `topology` with *nothing* enabled.
    ///
    /// Building the index materialises the topology's CSR adjacency (and
    /// thus a symbolic clique); callers that can stay symbolic should not
    /// construct one.
    pub fn new(topology: &Topology) -> Self {
        let csr = topology.csr();
        let n = csr.agent_count();
        let m = csr.edge_count();
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        GroupIndex {
            edge_enabled: vec![false; m],
            agent_enabled: vec![false; n],
            enabled_edge_count: 0,
            enabled_agent_count: 0,
            usable_edge_count: 0,
            comp_of: vec![NONE; n],
            members: Vec::with_capacity(n),
            starts,
            size: vec![0; 2 * n],
            intact: vec![false; 2 * n],
            pos_of: vec![0; 2 * n],
            next_label: 0,
            stale: false,
            visited: vec![0; n],
            epoch: 0,
            queue_a: Vec::with_capacity(n),
            queue_b: Vec::with_capacity(n),
            csr,
        }
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.agent_enabled.len()
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The `i`-th group in ascending-minimum order, sorted ascending.
    pub fn group(&self, i: usize) -> &[AgentId] {
        let (lo, hi) = (at(&self.starts, i), at(&self.starts, i + 1));
        self.members
            .get(lo as usize..hi as usize)
            .expect("group position in range")
    }

    /// All groups, in the same order and encoding as
    /// [`EnvState::groups`].
    pub fn groups(&self) -> Vec<Vec<AgentId>> {
        (0..self.group_count())
            .map(|i| self.group(i).to_vec())
            .collect()
    }

    /// Enabled edges whose two endpoints are both enabled.
    pub fn usable_edge_count(&self) -> usize {
        self.usable_edge_count
    }

    /// Reconstructs the equivalent [`EnvState`] (for trace recording and
    /// tests; not on the hot path).
    pub fn to_env_state(&self) -> EnvState {
        let edges = self
            .csr
            .edges()
            .iter()
            .zip(self.edge_enabled.iter())
            .filter(|(_, &on)| on)
            .map(|(e, _)| *e);
        let agents = self
            .agent_enabled
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(i, _)| AgentId(i));
        EnvState::new(self.agent_count(), edges, agents)
    }

    /// Enables every edge and agent, then rescans.
    pub fn reset_all_enabled(&mut self) {
        self.edge_enabled.fill(true);
        self.agent_enabled.fill(true);
        self.enabled_edge_count = self.edge_enabled.len();
        self.enabled_agent_count = self.agent_enabled.len();
        self.usable_edge_count = self.enabled_edge_count;
        self.relabel_all();
    }

    /// Full-rescan fallback: adopts `state`'s enabled sets wholesale.
    ///
    /// Edges outside the topology are ignored — the
    /// [`Environment`](crate::Environment) contract says they never occur.
    pub fn reset_from_state(&mut self, state: &EnvState) {
        self.edge_enabled.fill(false);
        self.agent_enabled.fill(false);
        self.enabled_edge_count = 0;
        self.enabled_agent_count = 0;
        // Two-pointer walk: both the state's edge set and the CSR edge list
        // iterate in ascending edge order.
        let mut ids = self.csr.edges().iter().enumerate();
        let mut cursor = ids.next();
        for e in state.enabled_edges() {
            while let Some((_, ce)) = cursor {
                if ce < e {
                    cursor = ids.next();
                } else {
                    break;
                }
            }
            if let Some((eid, ce)) = cursor {
                if ce == e {
                    *at_mut(&mut self.edge_enabled, eid) = true;
                    self.enabled_edge_count += 1;
                    cursor = ids.next();
                }
            }
        }
        for a in state.enabled_agents() {
            if a.index() < self.agent_enabled.len() {
                *at_mut(&mut self.agent_enabled, a.index()) = true;
                self.enabled_agent_count += 1;
            }
        }
        self.recount_usable();
        self.relabel_all();
    }

    /// Returns `true` if this index describes exactly the connectivity of
    /// `state` — the incremental analogue of
    /// [`EnvState::same_connectivity`].
    pub fn same_connectivity(&self, state: &EnvState) -> bool {
        if state.agent_count() != self.agent_count()
            || state.enabled_agents().len() != self.enabled_agent_count
            || state.enabled_edges().len() != self.enabled_edge_count
        {
            return false;
        }
        for a in state.enabled_agents() {
            if a.index() >= self.agent_enabled.len() || !at(&self.agent_enabled, a.index()) {
                return false;
            }
        }
        // Equal counts + every member present ⇒ equal sets.
        let mut ids = self.csr.edges().iter().enumerate();
        let mut cursor = ids.next();
        for e in state.enabled_edges() {
            loop {
                match cursor {
                    Some((eid, ce)) if ce == e => {
                        if !at(&self.edge_enabled, eid) {
                            return false;
                        }
                        cursor = ids.next();
                        break;
                    }
                    Some((_, ce)) if ce < e => cursor = ids.next(),
                    // The state enables an edge the topology lacks.
                    _ => return false,
                }
            }
        }
        true
    }

    /// Applies one incremental connectivity update, maintaining the group
    /// partition at cost proportional to the change.  Mirrors
    /// [`EnvState::apply_changes`]: downed edges/agents are removed, upped
    /// ones inserted, and redundant entries (downing a down edge, upping an
    /// up agent) are no-ops.
    pub fn apply_changes(&mut self, changes: &EnvChanges) {
        // A lone downed edge gets the bounded bidirectional probe; a batch
        // is resolved against the final masks with one re-label per affected
        // group, so k edges leaving one group cost one sweep, not k.
        match changes.edges_down.as_slice() {
            [] => {}
            [e] => {
                if let Some((a, b)) = self.flip_edge(e, false) {
                    self.probe_split(a, b);
                }
            }
            batch => self.edges_down_batch(batch),
        }
        for e in &changes.edges_up {
            if let Some((a, b)) = self.flip_edge(e, true) {
                self.merge(a, b);
            }
        }
        for a in &changes.agents_down {
            self.agent_down(*a);
        }
        for a in &changes.agents_up {
            self.agent_up(*a);
        }
        if self.stale {
            self.rebuild();
        }
    }

    /// Sets edge `e`'s mask to `on`.  Returns its endpoints if that flipped
    /// a usable edge (both endpoints enabled); redundant flips and edges
    /// outside the topology (unreachable by contract) return `None`.
    fn flip_edge(&mut self, e: &Edge, on: bool) -> Option<(u32, u32)> {
        let eid = self.csr.edge_id(e)? as usize;
        if at(&self.edge_enabled, eid) == on {
            return None;
        }
        *at_mut(&mut self.edge_enabled, eid) = on;
        let (a, b) = (e.lo().index(), e.hi().index());
        let usable = at(&self.agent_enabled, a) && at(&self.agent_enabled, b);
        if on {
            self.enabled_edge_count += 1;
            self.usable_edge_count += usize::from(usable);
        } else {
            self.enabled_edge_count -= 1;
            self.usable_edge_count -= usize::from(usable);
        }
        usable.then_some((a as u32, b as u32))
    }

    /// Batched edge-downs: flips every mask first, then re-labels each
    /// piece of every affected group once against the final masks.  Every
    /// piece touches a downed usable edge, so seeding one BFS at each
    /// not-yet-relabelled endpoint covers them all without paying one
    /// bidirectional probe per edge.
    fn edges_down_batch(&mut self, edges: &[Edge]) {
        let (seed, _) = self.fresh_epochs();
        for e in edges {
            if let Some((a, b)) = self.flip_edge(e, false) {
                *at_mut(&mut self.visited, a as usize) = seed;
                *at_mut(&mut self.visited, b as usize) = seed;
            }
        }
        self.make_label_room();
        // Labels below `first` are pre-batch; a seed still holding one has
        // not been swept into an earlier piece.
        let first = self.next_label;
        for x in edges.iter().flat_map(|e| [e.lo().index(), e.hi().index()]) {
            if self.visited.get(x) == Some(&seed) && at(&self.comp_of, x) < first {
                self.split_off(x as u32);
            }
        }
    }

    fn agent_up(&mut self, a: AgentId) {
        let i = a.index();
        if i >= self.agent_enabled.len() || at(&self.agent_enabled, i) {
            return;
        }
        self.make_label_room();
        *at_mut(&mut self.agent_enabled, i) = true;
        self.enabled_agent_count += 1;
        // New singleton group for `a`, then a merge across every usable
        // incident edge.
        let label = self.fresh_label();
        *at_mut(&mut self.comp_of, i) = label;
        *at_mut(&mut self.size, label as usize) = 1;
        self.stale = true;
        let csr = Arc::clone(&self.csr);
        for (nbr, eid) in csr.neighbors(i) {
            if at(&self.edge_enabled, eid as usize) && at(&self.agent_enabled, nbr as usize) {
                self.usable_edge_count += 1;
                self.merge(i as u32, nbr);
            }
        }
    }

    fn agent_down(&mut self, a: AgentId) {
        let i = a.index();
        if i >= self.agent_enabled.len() || !at(&self.agent_enabled, i) {
            return;
        }
        *at_mut(&mut self.agent_enabled, i) = false;
        self.enabled_agent_count -= 1;
        let label = at(&self.comp_of, i);
        *at_mut(&mut self.comp_of, i) = NONE;
        *at_mut(&mut self.size, label as usize) -= 1;
        self.stale = true;
        // Every piece of the rest of the group holds a usable neighbour of
        // `a`; each gets a fresh label, so `label` dies.
        self.make_label_room();
        let first = self.next_label;
        let csr = Arc::clone(&self.csr);
        for (nbr, eid) in csr.neighbors(i) {
            if at(&self.edge_enabled, eid as usize) && at(&self.agent_enabled, nbr as usize) {
                self.usable_edge_count -= 1;
                if at(&self.comp_of, nbr as usize) < first {
                    self.split_off(nbr);
                }
            }
        }
    }

    /// Merges the groups of agents `a` and `b` (no-op if already one) by
    /// re-labelling the smaller one with the larger one's label: a scan of
    /// its `members` run while that is intact, else a BFS confined to it.
    fn merge(&mut self, a: u32, b: u32) {
        let (la, lb) = (at(&self.comp_of, a as usize), at(&self.comp_of, b as usize));
        if la == lb {
            return;
        }
        let (seed, from, to) = if at(&self.size, la as usize) < at(&self.size, lb as usize) {
            (a, la, lb)
        } else {
            (b, lb, la)
        };
        if at(&self.intact, from as usize) {
            for k in at(&self.starts, from as usize)..at(&self.starts, from as usize + 1) {
                let m = at(&self.members, k as usize);
                *at_mut(&mut self.comp_of, m.index()) = to;
            }
        } else {
            self.flood(seed, from, to);
        }
        *at_mut(&mut self.size, to as usize) += at(&self.size, from as usize);
        *at_mut(&mut self.intact, to as usize) = false;
        self.stale = true;
    }

    /// Gives the piece of `seed`'s group reachable over the current masks a
    /// fresh label.
    fn split_off(&mut self, seed: u32) {
        let from = at(&self.comp_of, seed as usize);
        let to = self.fresh_label();
        let moved = self.flood(seed, from, to);
        *at_mut(&mut self.size, to as usize) = moved;
        *at_mut(&mut self.intact, from as usize) = false;
        self.stale = true;
    }

    /// Re-labels `from` → `to` on every agent reachable from `seed` over
    /// usable edges through agents labelled `from` (`NONE` labels a full
    /// rescan), and returns how many it re-labelled.
    fn flood(&mut self, seed: u32, from: u32, to: u32) -> u32 {
        *at_mut(&mut self.comp_of, seed as usize) = to;
        self.queue_a.clear();
        self.queue_a.push(seed);
        let mut head = 0;
        while head < self.queue_a.len() {
            let x = at(&self.queue_a, head);
            head += 1;
            for (nbr, eid) in self.csr.neighbors(x as usize) {
                if at(&self.edge_enabled, eid as usize)
                    && at(&self.agent_enabled, nbr as usize)
                    && at(&self.comp_of, nbr as usize) == from
                {
                    *at_mut(&mut self.comp_of, nbr as usize) = to;
                    self.queue_a.push(nbr);
                }
            }
        }
        self.queue_a.len() as u32
    }

    /// After disabling the usable edge `(a, b)`: decides connectivity with a
    /// bidirectional BFS confined to the affected group and, if the
    /// endpoints separated, re-labels the side that exhausted first.
    fn probe_split(&mut self, a: u32, b: u32) {
        debug_assert_eq!(at(&self.comp_of, a as usize), at(&self.comp_of, b as usize));
        let (ea, eb) = self.fresh_epochs();
        let mut qa = std::mem::take(&mut self.queue_a);
        let mut qb = std::mem::take(&mut self.queue_b);
        qa.clear();
        qb.clear();
        qa.push(a);
        *at_mut(&mut self.visited, a as usize) = ea;
        qb.push(b);
        *at_mut(&mut self.visited, b as usize) = eb;
        let (mut ha, mut hb) = (0usize, 0usize);
        // Lockstep expansion: the exhausted side is the (smaller) split-off
        // candidate; meeting the other side's stamp proves connectivity.
        let exhausted = loop {
            match self.expand_one(&mut qa, &mut ha, ea, eb) {
                Expand::Connected => break None,
                Expand::Exhausted => break Some(&qa),
                Expand::Progress => {}
            }
            match self.expand_one(&mut qb, &mut hb, eb, ea) {
                Expand::Connected => break None,
                Expand::Exhausted => break Some(&qb),
                Expand::Progress => {}
            }
        };
        if let Some(side) = exhausted {
            self.make_label_room();
            let from = at(&self.comp_of, a as usize);
            let to = self.fresh_label();
            for &x in side {
                *at_mut(&mut self.comp_of, x as usize) = to;
            }
            *at_mut(&mut self.size, to as usize) = side.len() as u32;
            *at_mut(&mut self.size, from as usize) -= side.len() as u32;
            *at_mut(&mut self.intact, from as usize) = false;
            self.stale = true;
        }
        self.queue_a = qa;
        self.queue_b = qb;
    }

    /// Expands one node of one BFS side; see `probe_split`.
    fn expand_one(&mut self, q: &mut Vec<u32>, head: &mut usize, own: u32, other: u32) -> Expand {
        if *head == q.len() {
            return Expand::Exhausted;
        }
        let x = at(q, *head);
        *head += 1;
        for (nbr, eid) in self.csr.neighbors(x as usize) {
            if !at(&self.edge_enabled, eid as usize) || !at(&self.agent_enabled, nbr as usize) {
                continue;
            }
            let v = at(&self.visited, nbr as usize);
            if v == own {
                continue;
            }
            if v == other {
                return Expand::Connected;
            }
            *at_mut(&mut self.visited, nbr as usize) = own;
            q.push(nbr);
        }
        Expand::Progress
    }

    /// Full rescan: labels every group by BFS from the current masks, then
    /// rebuilds.
    fn relabel_all(&mut self) {
        self.comp_of.fill(NONE);
        self.next_label = 0;
        for i in 0..self.agent_count() {
            if at(&self.agent_enabled, i) && at(&self.comp_of, i) == NONE {
                let label = self.fresh_label();
                let size = self.flood(i as u32, NONE, label);
                *at_mut(&mut self.size, label as usize) = size;
            }
        }
        self.rebuild();
    }

    /// The counting pass, over the agents in ascending order: a label met
    /// for the first time belongs to the group with the next-smallest
    /// minimum, so it takes the next position, and its run starts where the
    /// previous run ends (`size` is exact for every live label); each agent
    /// is then placed at its run's cursor and renumbered to the position.
    fn rebuild(&mut self) {
        self.pos_of
            .get_mut(..self.next_label as usize)
            .expect("labels in range")
            .fill(NONE);
        self.starts.clear();
        self.starts.push(0);
        self.members.clear();
        self.members.resize(self.enabled_agent_count, AgentId(0));
        let mut end = 0;
        // The current label's position and cursor stay in locals while
        // consecutive agents share it; a label left mid-run parks its cursor
        // in `size`, which holds only a size until the label is first met.
        let (mut run, mut pos, mut cursor) = (NONE, 0, 0);
        for (i, label) in self.comp_of.iter_mut().enumerate() {
            if *label == NONE {
                continue;
            }
            if *label != run {
                if run != NONE {
                    *at_mut(&mut self.size, run as usize) = cursor;
                }
                run = *label;
                pos = at(&self.pos_of, run as usize);
                if pos == NONE {
                    pos = (self.starts.len() - 1) as u32;
                    *at_mut(&mut self.pos_of, run as usize) = pos;
                    cursor = end;
                    end += at(&self.size, run as usize);
                    self.starts.push(end);
                } else {
                    cursor = at(&self.size, run as usize);
                }
            }
            *at_mut(&mut self.members, cursor as usize) = AgentId(i);
            cursor += 1;
            *label = pos;
        }
        let groups = self.group_count();
        for g in 0..groups {
            *at_mut(&mut self.size, g) = at(&self.starts, g + 1) - at(&self.starts, g);
            *at_mut(&mut self.intact, g) = true;
        }
        self.next_label = groups as u32;
        self.stale = false;
    }

    /// Rebuilds early if fewer than `n` labels are left, so the next
    /// operation (which creates at most `n`) stays inside `0..2n`.
    fn make_label_room(&mut self) {
        if self.next_label as usize > self.agent_count() {
            self.rebuild();
        }
    }

    fn fresh_label(&mut self) -> u32 {
        let label = self.next_label;
        *at_mut(&mut self.intact, label as usize) = false;
        self.next_label += 1;
        label
    }

    /// Two epochs no `visited` entry holds yet.
    fn fresh_epochs(&mut self) -> (u32, u32) {
        if self.epoch >= u32::MAX - 2 {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        (self.epoch - 1, self.epoch)
    }

    fn recount_usable(&mut self) {
        self.usable_edge_count = self
            .csr
            .edges()
            .iter()
            .zip(self.edge_enabled.iter())
            .filter(|(e, &on)| {
                on && at(&self.agent_enabled, e.lo().index())
                    && at(&self.agent_enabled, e.hi().index())
            })
            .count();
    }
}

enum Expand {
    /// One node expanded without meeting the other side.
    Progress,
    /// This side's frontier is exhausted: it is a separate group.
    Exhausted,
    /// This side reached a node stamped by the other side: still connected.
    Connected,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn changes(
        edges_down: Vec<Edge>,
        edges_up: Vec<Edge>,
        agents_down: Vec<AgentId>,
        agents_up: Vec<AgentId>,
    ) -> EnvChanges {
        EnvChanges {
            edges_down,
            edges_up,
            agents_down,
            agents_up,
        }
    }

    fn edge(a: usize, b: usize) -> Edge {
        Edge::new(AgentId(a), AgentId(b))
    }

    #[test]
    fn tracks_groups_under_edge_and_agent_flips() {
        let topo = Topology::ring(6);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        let mut state = EnvState::fully_enabled(&topo);
        assert_eq!(gi.groups(), state.groups());
        assert_eq!(gi.usable_edge_count(), 6);

        let steps = [
            changes(vec![edge(0, 1), edge(3, 4)], vec![], vec![], vec![]),
            changes(vec![], vec![], vec![AgentId(2)], vec![]),
            changes(vec![], vec![edge(0, 1)], vec![], vec![]),
            changes(vec![], vec![], vec![], vec![AgentId(2)]),
            changes(vec![edge(5, 0)], vec![edge(3, 4)], vec![AgentId(1)], vec![]),
            // Redundant flips are no-ops.
            changes(
                vec![edge(5, 0)],
                vec![edge(3, 4)],
                vec![AgentId(1)],
                vec![AgentId(0)],
            ),
        ];
        for (i, c) in steps.iter().enumerate() {
            state.apply_changes(c);
            gi.apply_changes(c);
            assert_eq!(gi.groups(), state.groups(), "step {i}");
            assert_eq!(gi.to_env_state(), state, "step {i}");
            let usable = state
                .enabled_edges()
                .iter()
                .filter(|e| state.can_communicate(e.lo(), e.hi()))
                .count();
            assert_eq!(gi.usable_edge_count(), usable, "step {i}");
        }
    }

    #[test]
    fn full_rescan_fallback_matches_state_groups() {
        let topo = Topology::from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (0, 6)]);
        let state = EnvState::new(
            7,
            [edge(0, 1), edge(2, 3), edge(4, 5)],
            [0, 1, 2, 3, 4, 5].map(AgentId),
        );
        let mut gi = GroupIndex::new(&topo);
        gi.reset_from_state(&state);
        assert_eq!(gi.groups(), state.groups());
        assert!(gi.same_connectivity(&state));
        assert!(!gi.same_connectivity(&EnvState::fully_enabled(&topo)));
        assert!(!gi.same_connectivity(&EnvState::fully_disabled(7)));
        assert_eq!(gi.to_env_state(), state);
    }

    #[test]
    fn split_keeps_ascending_min_order() {
        // Ring 0-1-2-3-0: dropping 1-2 and 3-0 splits {0,1} / {2,3}; the
        // slot with min 0 must stay first.
        let topo = Topology::ring(4);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        gi.apply_changes(&changes(vec![edge(1, 2)], vec![], vec![], vec![]));
        assert_eq!(gi.group_count(), 1, "still a path");
        gi.apply_changes(&changes(vec![edge(3, 0)], vec![], vec![], vec![]));
        assert_eq!(gi.group_count(), 2);
        assert_eq!(gi.group(0), [AgentId(0), AgentId(1)]);
        assert_eq!(gi.group(1), [AgentId(2), AgentId(3)]);
    }

    #[test]
    fn one_delta_can_spend_more_than_n_labels() {
        // Shatter a star, re-join it, shatter it again at the center and
        // bring the center back, all in one delta: more than `n` fresh
        // labels, so the label space is compacted mid-delta.
        let topo = Topology::star(5);
        let spokes: Vec<Edge> = (1..5).map(|i| edge(0, i)).collect();
        let c = changes(spokes.clone(), spokes, vec![AgentId(0)], vec![AgentId(0)]);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        let mut state = EnvState::fully_enabled(&topo);
        gi.apply_changes(&c);
        state.apply_changes(&c);
        assert_eq!(gi.groups(), state.groups());
        assert_eq!(gi.group_count(), 1);
    }

    #[test]
    fn agent_down_can_shatter_a_group() {
        let topo = Topology::star(5);
        let mut gi = GroupIndex::new(&topo);
        gi.reset_all_enabled();
        assert_eq!(gi.group_count(), 1);
        gi.apply_changes(&changes(vec![], vec![], vec![AgentId(0)], vec![]));
        assert_eq!(gi.group_count(), 4, "leaves become singletons");
        let mut state = EnvState::fully_enabled(&topo);
        state.apply_changes(&changes(vec![], vec![], vec![AgentId(0)], vec![]));
        assert_eq!(gi.groups(), state.groups());
        gi.apply_changes(&changes(vec![], vec![], vec![], vec![AgentId(0)]));
        assert_eq!(gi.group_count(), 1, "center restores the star");
    }
}
