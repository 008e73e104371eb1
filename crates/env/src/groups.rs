//! Incremental group maintenance over the flat CSR core.
//!
//! A [`GroupIndex`] tracks the partition of agents into groups — connected
//! components of the enabled subgraph restricted to enabled agents — under
//! a stream of [`EnvChanges`] deltas.  The partition lives in three flat
//! arrays: `comp_of` maps each agent to its group's position, `members`
//! holds every enabled agent grouped (groups in ascending-min order, each
//! group ascending), and group `i` is `members[starts[i]..starts[i + 1]]`.
//!
//! [`GroupIndex::apply_changes`] picks its path by what a delta does.  A
//! delta that flips no agent and downs at most one edge takes the
//! per-flip path, whose two operations each cost at most the smaller side
//! of the change; they move *labels* in `comp_of`:
//!
//! - a **lone edge down** runs a bidirectional BFS probe confined to the
//!   affected group and, if the endpoints really separated, re-labels only
//!   the side that exhausted first;
//! - each **edge up** merges two groups by re-labelling the smaller one (a
//!   scan of its `members` run if no earlier change in the delta touched
//!   it, else a BFS confined to its old label), never the merged group.
//!
//! If any label changed, one counting pass over the agents in ascending
//! order then renumbers labels to positions and rebuilds `members` and
//! `starts`; ascending-min order falls out of the scan.  A delta that
//! moves no label (a probe that met, flips of unusable edges) rebuilds
//! nothing.
//!
//! Every other delta (two or more edge downs, or any agent flip) sets the
//! masks and takes the **full pass**, which relabels from the masks alone:
//! one union-find pass over the usable edges in CSR edge order, with the
//! parents in `comp_of` (a root is always linked under the smaller root,
//! so every root is its component's minimum), then one ascending pass that
//! flattens the labels and counts the sizes, then the same rebuild.  Such
//! a delta may split groups at several places, and re-labelling the pieces
//! one flood at a time costs a whole group per piece, which on a sparse
//! graph with a giant component is several times the pass.  The pass also
//! serves [`EnvDelta::Full`](crate::EnvDelta::Full)
//! ([`GroupIndex::reset_from_state`]) and the fully enabled state.  About
//! 92% of an 8-agent ring's churn rounds and every churn round on a
//! 10⁵-agent random graph take the pass; a million-agent ring's two-edge
//! split takes it and its heal merges.
//!
//! Every buffer is sized to the agent count in [`GroupIndex::new`], so no
//! update allocates.  Groups come out exactly as [`EnvState::groups`]
//! produces them, so records derived from either path are byte-identical.
//!
//! [`Connectivity`] is the fold every run uses: it keeps the fully enabled
//! state symbolic and switches to a `GroupIndex` on the first delta that
//! needs one.

use std::sync::Arc;

use crate::csr::Csr;
use crate::state::same;
use crate::topology::{at, at_mut, flatten, link_edges, NONE};
use crate::{AgentId, Edge, EnvChanges, EnvDelta, EnvState, Topology};

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
    /// step can actually use): kept by every per-flip update, counted
    /// afresh by the full pass.
    usable_edge_count: usize,
    /// Agent index → its group's position (`NONE` for disabled agents).
    /// During an update it holds labels, which [`Self::rebuild`] renumbers.
    comp_of: Vec<u32>,
    /// Every enabled agent, grouped; see the module docs.
    members: Vec<AgentId>,
    /// Group `i` is `members[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Label → group size.  Labels live in `0..=n`: a delta starts with at
    /// most `n` in use and the per-flip path creates at most one more.
    size: Vec<u32>,
    /// Label → whether the group is still exactly its `members` run (only
    /// labels untouched since the last rebuild).
    intact: Vec<bool>,
    /// Label → position, used by the rebuild.
    pos_of: Vec<u32>,
    next_label: u32,
    /// A label changed since the last rebuild.
    stale: bool,
    /// Epoch-stamped BFS scratch.
    visited: Vec<u32>,
    epoch: u32,
    queue_a: Vec<u32>,
    queue_b: Vec<u32>,
    /// Sends every delta to the full pass, so tests can compare the rule
    /// against it.
    #[cfg(test)]
    forced_pass: bool,
    /// Full passes taken so far, so tests can pin the rule.
    #[cfg(test)]
    passes: usize,
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
            // The label arrays stay `2n`: see ROADMAP, Maintenance › Benchmark.
            size: vec![0; 2 * n],
            intact: vec![false; 2 * n],
            pos_of: vec![0; 2 * n],
            next_label: 0,
            stale: false,
            visited: vec![0; n],
            epoch: 0,
            queue_a: Vec::with_capacity(n),
            queue_b: Vec::with_capacity(n),
            #[cfg(test)]
            forced_pass: false,
            #[cfg(test)]
            passes: 0,
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

    /// The usable edges (enabled, both endpoints enabled), in ascending
    /// [`Edge`] order: CSR edge ids already follow it.
    pub fn usable_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.csr
            .edges()
            .iter()
            .zip(self.edge_enabled.iter())
            .filter(|(e, &on)| {
                on && at(&self.agent_enabled, e.lo().index())
                    && at(&self.agent_enabled, e.hi().index())
            })
            .map(|(e, _)| *e)
    }

    /// Returns `true` if `a` and `b` are distinct enabled agents joined by
    /// an enabled edge — the analogue of [`EnvState::can_communicate`].
    pub fn can_communicate(&self, a: AgentId, b: AgentId) -> bool {
        let enabled = |x: AgentId| self.agent_enabled.get(x.index()) == Some(&true);
        a != b
            && enabled(a)
            && enabled(b)
            && self
                .csr
                .edge_id(&Edge::new(a, b))
                .is_some_and(|eid| at(&self.edge_enabled, eid as usize))
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

    /// Enables every edge and agent, then takes the full pass.
    pub fn reset_all_enabled(&mut self) {
        self.edge_enabled.fill(true);
        self.agent_enabled.fill(true);
        self.relabel_all();
    }

    /// Full-rescan fallback: adopts `state`'s enabled sets wholesale, then
    /// takes the full pass.
    ///
    /// Edges outside the topology are ignored — the
    /// [`Environment`](crate::Environment) contract says they never occur.
    pub fn reset_from_state(&mut self, state: &EnvState) {
        self.edge_enabled.fill(false);
        self.agent_enabled.fill(false);
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
                    cursor = ids.next();
                }
            }
        }
        for a in state.enabled_agents() {
            if let Some(on) = self.agent_enabled.get_mut(a.index()) {
                *on = true;
            }
        }
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

    /// Applies one incremental connectivity update.  Mirrors
    /// [`EnvState::apply_changes`]: downed edges/agents are removed, upped
    /// ones inserted, and redundant entries (downing a down edge, upping an
    /// up agent) are no-ops.  A delta that flips no agent and downs at most
    /// one edge takes the per-flip path; every other delta sets the masks
    /// and takes the full pass (see the module docs).
    pub fn apply_changes(&mut self, changes: &EnvChanges) {
        let per_flip = changes.agents_down.is_empty()
            && changes.agents_up.is_empty()
            && changes.edges_down.len() <= 1;
        #[cfg(test)]
        let per_flip = per_flip && !self.forced_pass;
        if per_flip {
            self.apply_flips(changes);
        } else {
            self.set_masks(changes);
            self.relabel_all();
        }
    }

    /// Applies `changes` to the masks only, downs before ups as
    /// [`EnvState::apply_changes`] does; the full pass recounts.
    fn set_masks(&mut self, changes: &EnvChanges) {
        for (edges, on) in [(&changes.edges_down, false), (&changes.edges_up, true)] {
            for e in edges {
                if let Some(eid) = self.csr.edge_id(e) {
                    *at_mut(&mut self.edge_enabled, eid as usize) = on;
                }
            }
        }
        for (agents, on) in [(&changes.agents_down, false), (&changes.agents_up, true)] {
            for a in agents {
                if let Some(slot) = self.agent_enabled.get_mut(a.index()) {
                    *slot = on;
                }
            }
        }
    }

    /// The per-flip path of [`Self::apply_changes`]: the probe for a lone
    /// downed edge, then a merge per upped edge.
    fn apply_flips(&mut self, changes: &EnvChanges) {
        if let [e] = changes.edges_down.as_slice() {
            if let Some((a, b)) = self.flip_edge(e, false) {
                self.probe_split(a, b);
            }
        }
        for e in &changes.edges_up {
            if let Some((a, b)) = self.flip_edge(e, true) {
                self.merge(a, b);
            }
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

    /// Re-labels `from` → `to` on every agent reachable from `seed` over
    /// usable edges through agents labelled `from`.
    fn flood(&mut self, seed: u32, from: u32, to: u32) {
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
            let from = at(&self.comp_of, a as usize);
            let to = self.next_label;
            self.next_label += 1;
            *at_mut(&mut self.intact, to as usize) = false;
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

    /// The full pass (see the module docs): links the usable edges in CSR
    /// edge order with the parents in `comp_of`, flattens every agent's
    /// label to its group's minimum while counting `size`, then rebuilds.
    /// The enabled and usable counts are recounted on the way.
    fn relabel_all(&mut self) {
        #[cfg(test)]
        {
            self.passes += 1;
        }
        let mut agents = 0;
        for (i, (parent, &on)) in self.comp_of.iter_mut().zip(&self.agent_enabled).enumerate() {
            *parent = if on { i as u32 } else { NONE };
            agents += usize::from(on);
        }
        let mut edges = 0;
        let enabled = (self.csr.edges().iter())
            .zip(&self.edge_enabled)
            .filter_map(|(e, &on)| {
                edges += usize::from(on);
                on.then_some(e)
            });
        self.usable_edge_count = link_edges(&mut self.comp_of, enabled);
        self.enabled_agent_count = agents;
        self.enabled_edge_count = edges;
        let n = self.agent_count();
        let size = self.size.get_mut(..n).expect("labels in range");
        size.fill(0);
        flatten(&mut self.comp_of, |root| *at_mut(size, root as usize) += 1);
        self.next_label = n as u32;
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

    /// Two epochs no `visited` entry holds yet.
    fn fresh_epochs(&mut self) -> (u32, u32) {
        if self.epoch >= u32::MAX - 2 {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        (self.epoch - 1, self.epoch)
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

/// The current connectivity of a run, folded from its [`EnvDelta`] stream
/// and kept symbolic while the environment allows it.
///
/// This is the one fold of environment deltas: the runtime's tick loop
/// (`selfsim_runtime::Driver`) advances one of these with every
/// [`Environment::step_delta`](crate::Environment::step_delta), and every
/// execution it drives — rounds, message passing, the baselines — reads
/// groups, usable edges and pairwise reachability from it.  Every query
/// takes the topology the deltas were folded against.  A new fold is
/// empty: nothing enabled until the first (absolute) delta.
#[derive(Debug, Default)]
pub struct Connectivity(Repr);

#[derive(Debug, Default)]
enum Repr {
    /// Nothing enabled yet — the placeholder before the first absolute
    /// delta (the `step_delta` contract makes the first delta absolute, so
    /// this is never read as real connectivity; it just lets a
    /// contract-violating `Unchanged` first delta degrade to an empty
    /// partition instead of a panic).
    #[default]
    Empty,
    /// Every topology edge available and every agent enabled, with the
    /// topology's components as the partition — represented without
    /// materialising the edge set, so complete graphs stay cheap.
    Full(Vec<Vec<AgentId>>),
    /// An incrementally maintained group index over the topology's flat CSR
    /// adjacency.  Boxed: the index is ~3 hundred bytes of inline `Vec`
    /// headers.
    Tracked(Box<GroupIndex>),
}

impl Connectivity {
    /// Folds one environment transition in; `true` when the partition may
    /// have changed (it is `true` whenever the groups did change).
    pub fn advance(&mut self, delta: EnvDelta, topology: &Topology) -> bool {
        match delta {
            EnvDelta::Unchanged => false,
            EnvDelta::AllEnabled => {
                if matches!(self.0, Repr::Full(_)) {
                    return false;
                }
                self.0 = Repr::Full(topology.components());
                true
            }
            EnvDelta::Full(next) => {
                let same = match &self.0 {
                    Repr::Empty => {
                        next.enabled_edges().is_empty() && next.enabled_agents().is_empty()
                    }
                    // Cheap count rejection first: the closed form avoids
                    // materialising a symbolic clique unless the counts match.
                    // Sorted, distinct, in-range agents are all `n` agents
                    // when there are `n` of them.  A state that aliases the
                    // topology's edge array compares by pointer.
                    Repr::Full(_) => {
                        next.agent_count() == topology.agent_count()
                            && next.enabled_agents().len() == topology.agent_count()
                            && next.enabled_edges().len() == topology.edge_count()
                            && same(next.enabled_edges(), topology.edges())
                    }
                    Repr::Tracked(index) => index.same_connectivity(&next),
                };
                if !same {
                    let mut index = self.take_index(topology);
                    index.reset_from_state(&next);
                    self.0 = Repr::Tracked(index);
                }
                !same
            }
            EnvDelta::Changes(changes) => {
                let mut index = self.take_index(topology);
                index.apply_changes(&changes);
                self.0 = Repr::Tracked(index);
                !changes.is_empty()
            }
        }
    }

    /// Moves the connectivity out as a group index over `topology`,
    /// building one for the symbolic variants.
    fn take_index(&mut self, topology: &Topology) -> Box<GroupIndex> {
        match std::mem::take(&mut self.0) {
            Repr::Tracked(index) => index,
            Repr::Empty => Box::new(GroupIndex::new(topology)),
            Repr::Full(_) => {
                let mut index = Box::new(GroupIndex::new(topology));
                index.reset_all_enabled();
                index
            }
        }
    }

    /// Number of groups.
    #[inline]
    pub fn group_count(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::Full(groups) => groups.len(),
            Repr::Tracked(index) => index.group_count(),
        }
    }

    /// The `i`-th group in ascending-minimum order, sorted ascending.
    #[inline]
    pub fn group(&self, i: usize) -> &[AgentId] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::Full(groups) => groups.get(i).map_or(&[], Vec::as_slice),
            Repr::Tracked(index) => index.group(i),
        }
    }

    /// Number of edges whose endpoints can communicate — the
    /// `env-transition` digest.
    pub fn usable_edge_count(&self, topology: &Topology) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::Full(_) => topology.edge_count(),
            Repr::Tracked(index) => index.usable_edge_count(),
        }
    }

    /// The edges whose endpoints can communicate, in ascending [`Edge`]
    /// order.  The symbolic `Full` case walks the topology's edge set, which
    /// materialises a symbolic clique once.
    pub fn usable_edges<'a>(&'a self, topology: &'a Topology) -> impl Iterator<Item = Edge> + 'a {
        let (full, tracked) = match &self.0 {
            Repr::Empty => (None, None),
            Repr::Full(_) => (Some(topology.edges().iter().copied()), None),
            Repr::Tracked(index) => (None, Some(index.usable_edges())),
        };
        full.into_iter()
            .flatten()
            .chain(tracked.into_iter().flatten())
    }

    /// Returns `true` if `a` and `b` can collaborate now: distinct enabled
    /// agents joined by an enabled edge.
    pub fn can_communicate(&self, a: AgentId, b: AgentId, topology: &Topology) -> bool {
        match &self.0 {
            Repr::Empty => false,
            Repr::Full(_) => topology.has_edge(a, b),
            Repr::Tracked(index) => index.can_communicate(a, b),
        }
    }

    /// The equivalent [`EnvState`] (for trace recording; not on the hot
    /// path).
    pub fn to_env_state(&self, topology: &Topology) -> EnvState {
        match &self.0 {
            Repr::Empty => EnvState::fully_disabled(topology.agent_count()),
            Repr::Full(_) => EnvState::fully_enabled(topology),
            Repr::Tracked(index) => index.to_env_state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Two fully enabled indexes over `topo`, the first following the rule
    /// of `apply_changes` and the second sending every delta to the full
    /// pass, so each targeted test holds the rule to the pass.
    fn both_paths(topo: &Topology) -> [GroupIndex; 2] {
        [false, true].map(|pass| {
            let mut gi = GroupIndex::new(topo);
            gi.forced_pass = pass;
            gi.reset_all_enabled();
            gi
        })
    }

    #[test]
    fn tracks_groups_under_edge_and_agent_flips() {
        let topo = Topology::ring(6);
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
        for mut gi in both_paths(&topo) {
            let mut state = EnvState::fully_enabled(&topo);
            assert_eq!(gi.groups(), state.groups());
            assert_eq!(gi.usable_edge_count(), 6);
            for (i, c) in steps.iter().enumerate() {
                let what = format!("step {i}, pass forced: {}", gi.forced_pass);
                state.apply_changes(c);
                gi.apply_changes(c);
                assert_eq!(gi.groups(), state.groups(), "{what}");
                assert_eq!(gi.to_env_state(), state, "{what}");
                let usable = state
                    .enabled_edges()
                    .iter()
                    .filter(|e| state.can_communicate(e.lo(), e.hi()))
                    .count();
                assert_eq!(gi.usable_edge_count(), usable, "{what}");
            }
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
        for mut gi in both_paths(&Topology::ring(4)) {
            gi.apply_changes(&changes(vec![edge(1, 2)], vec![], vec![], vec![]));
            assert_eq!(gi.group_count(), 1, "still a path");
            gi.apply_changes(&changes(vec![edge(3, 0)], vec![], vec![], vec![]));
            assert_eq!(gi.group_count(), 2);
            assert_eq!(gi.group(0), [AgentId(0), AgentId(1)]);
            assert_eq!(gi.group(1), [AgentId(2), AgentId(3)]);
        }
    }

    #[test]
    fn splits_and_agent_flips_take_the_pass() {
        // Each delta on a ring of 6, from fully enabled, and whether it
        // takes the full pass.
        let ring = Topology::ring(6);
        let steps = [
            // Two edges down: {1, 2, 3} and {4, 5, 0}.
            (
                changes(vec![edge(0, 1), edge(3, 4)], vec![], vec![], vec![]),
                true,
            ),
            // A lone edge down plus an edge up: the probe cuts 1 off, the
            // merge joins it to {4, 5, 0}.
            (
                changes(vec![edge(1, 2)], vec![edge(0, 1)], vec![], vec![]),
                false,
            ),
            (changes(vec![], vec![], vec![AgentId(2)], vec![]), true),
            // Edges up only: 3 joins the rest.
            (changes(vec![], vec![edge(3, 4)], vec![], vec![]), false),
            (changes(vec![], vec![], vec![], vec![AgentId(2)]), true),
            // An agent flip among edge flips.
            (
                changes(vec![edge(5, 0)], vec![edge(1, 2)], vec![AgentId(4)], vec![]),
                true,
            ),
        ];
        let mut gi = GroupIndex::new(&ring);
        gi.reset_all_enabled();
        let mut state = EnvState::fully_enabled(&ring);
        for (i, (c, pass)) in steps.iter().enumerate() {
            let before = gi.passes;
            state.apply_changes(c);
            gi.apply_changes(c);
            assert_eq!(gi.passes - before, usize::from(*pass), "step {i}");
            assert_eq!(gi.groups(), state.groups(), "step {i}");
        }
        // Shatter a star, re-join it, shatter it again at the center and
        // bring the center back, all in one delta.
        let star = Topology::star(5);
        let spokes: Vec<Edge> = (1..5).map(|i| edge(0, i)).collect();
        let c = changes(spokes.clone(), spokes, vec![AgentId(0)], vec![AgentId(0)]);
        let mut state = EnvState::fully_enabled(&star);
        state.apply_changes(&c);
        let mut gi = GroupIndex::new(&star);
        gi.reset_all_enabled();
        let before = gi.passes;
        gi.apply_changes(&c);
        assert_eq!(gi.passes - before, 1);
        assert_eq!(gi.groups(), state.groups());
        assert_eq!(gi.group_count(), 1);
    }

    #[test]
    fn agent_down_can_shatter_a_group() {
        let topo = Topology::star(5);
        let mut state = EnvState::fully_enabled(&topo);
        state.apply_changes(&changes(vec![], vec![], vec![AgentId(0)], vec![]));
        for mut gi in both_paths(&topo) {
            assert_eq!(gi.group_count(), 1);
            gi.apply_changes(&changes(vec![], vec![], vec![AgentId(0)], vec![]));
            assert_eq!(gi.group_count(), 4, "leaves become singletons");
            assert_eq!(gi.groups(), state.groups());
            gi.apply_changes(&changes(vec![], vec![], vec![], vec![AgentId(0)]));
            assert_eq!(gi.group_count(), 1, "center restores the star");
        }
    }

    /// One delta over `topo`: random lists of topology edges, edges
    /// outside it and agents out of range, or (one time in eight) nothing.
    /// Nothing is drawn against the current state, so redundant flips and
    /// repeats are common.
    fn arbitrary_changes(topo: &Topology, rng: &mut StdRng) -> EnvChanges {
        let n = topo.agent_count();
        let mut c = EnvChanges::default();
        if rng.gen_range(0..8) == 0 {
            return c;
        }
        let budget = n + topo.edge_count() + 1;
        let any_edge = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => edge(n + 1, rng.gen_range(0..n + 1)),
            1 if n > 2 => edge(0, n - 1 - rng.gen_range(0..2)),
            _ if topo.edge_count() > 0 => topo.edges()[rng.gen_range(0..topo.edge_count())],
            _ => edge(n, n + 2),
        };
        let agent = |rng: &mut StdRng| AgentId(rng.gen_range(0..n + 2));
        for _ in 0..rng.gen_range(0..budget) {
            match rng.gen_range(0..4) {
                0 => c.edges_down.push(any_edge(rng)),
                1 => c.edges_up.push(any_edge(rng)),
                2 => c.agents_down.push(agent(rng)),
                _ => c.agents_up.push(agent(rng)),
            }
        }
        c
    }

    /// The rule of `apply_changes` against the full pass alone, over
    /// arbitrary deltas.
    #[test]
    fn full_pass_and_per_flip_path_agree() {
        let mut rng = StdRng::seed_from_u64(33);
        let topologies = [
            Topology::empty(0),
            Topology::empty(1),
            Topology::empty(2),
            Topology::line(2),
            Topology::line(5),
            Topology::ring(8),
            Topology::star(7),
            Topology::grid(3, 4),
            Topology::complete(6),
            Topology::random_connected_sparse(16, 3.0, &mut rng),
        ];
        for topo in &topologies {
            let [mut by_rule, mut by_pass] = both_paths(topo);
            for step in 0..400 {
                let c = arbitrary_changes(topo, &mut rng);
                by_pass.apply_changes(&c);
                by_rule.apply_changes(&c);
                let what = format!("{topo:?} step {step} after {c:?}");
                let state = by_rule.to_env_state();
                assert_eq!(by_pass.to_env_state(), state, "{what}");
                assert!(by_pass.same_connectivity(&state), "{what}");
                assert_eq!(by_pass.groups(), by_rule.groups(), "{what}");
                assert_eq!(by_pass.groups(), state.groups(), "{what}");
                assert_eq!(
                    by_pass.usable_edge_count(),
                    by_rule.usable_edge_count(),
                    "{what}"
                );
                assert_eq!(
                    by_pass.usable_edge_count(),
                    by_pass.usable_edges().count(),
                    "{what}"
                );
            }
        }
    }

    /// The rule and the full pass over the delta streams of every builtin
    /// environment on small rings, lines, cliques and stars, against the
    /// folded state: the streams that `tests/delta_equivalence.rs` feeds
    /// the default index, with the pass alone as a second opinion.
    #[test]
    fn both_paths_follow_builtin_delta_streams() {
        use crate::{
            AdversarialEnv, ComposedEnv, CrashRestartEnv, Environment, MarkovLinkEnv,
            PeriodicPartitionEnv, RandomChurnEnv, StaticEnv,
        };
        let mut seed = 0;
        for n in 3..10 {
            let topologies = [
                Topology::ring(n),
                Topology::line(n),
                Topology::complete(n),
                Topology::star(n),
            ];
            for topo in &topologies {
                for (p, q, k) in [(0.05, 0.9, 0), (0.3, 0.5, 4), (0.7, 0.2, 7), (1.0, 1.0, 9)] {
                    let envs: Vec<Box<dyn Environment>> = vec![
                        Box::new(StaticEnv::new(topo.clone())),
                        Box::new(RandomChurnEnv::new(topo.clone(), p, q)),
                        Box::new(MarkovLinkEnv::new(topo.clone(), p, q)),
                        Box::new(MarkovLinkEnv::new_all_down(topo.clone(), p, q)),
                        Box::new(PeriodicPartitionEnv::new(
                            topo.clone(),
                            1 + k % 3,
                            1 + k % 5,
                        )),
                        Box::new(CrashRestartEnv::new(topo.clone(), p, q)),
                        Box::new(AdversarialEnv::new(topo.clone(), k % 4)),
                        Box::new(ComposedEnv::new(
                            RandomChurnEnv::new(topo.clone(), p, 1.0),
                            CrashRestartEnv::new(topo.clone(), q, p),
                        )),
                    ];
                    for mut env in envs {
                        seed += 1;
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut indexes = both_paths(topo);
                        let mut state = EnvState::fully_enabled(topo);
                        for round in 0..30 {
                            let delta = env.step_delta(&mut rng);
                            for gi in &mut indexes {
                                match &delta {
                                    EnvDelta::Unchanged => {}
                                    EnvDelta::AllEnabled => gi.reset_all_enabled(),
                                    EnvDelta::Full(s) => gi.reset_from_state(s),
                                    EnvDelta::Changes(c) => gi.apply_changes(c),
                                }
                            }
                            match delta {
                                EnvDelta::Unchanged => {}
                                EnvDelta::AllEnabled => state = EnvState::fully_enabled(topo),
                                EnvDelta::Full(s) => state = s,
                                EnvDelta::Changes(c) => state.apply_changes(&c),
                            }
                            for gi in &indexes {
                                let what = format!(
                                    "{} on {topo:?} (seed {seed}) round {round}, pass forced: {}",
                                    env.name(),
                                    gi.forced_pass
                                );
                                assert_eq!(gi.groups(), state.groups(), "{what}");
                                assert!(gi.same_connectivity(&state), "{what}");
                                assert_eq!(gi.to_env_state(), state, "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
}
