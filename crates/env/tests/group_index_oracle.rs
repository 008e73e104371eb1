//! `GroupIndex` against the `EnvState` oracle over arbitrary change
//! streams.
//!
//! The environments' own delta streams (see `delta_equivalence.rs`) are
//! well-formed diffs.  Here the deltas are arbitrary [`EnvChanges`] on
//! rings, stars, complete graphs and random connected sparse graphs with up
//! to 48 agents, and the streams deliberately include:
//!
//! - redundant flips (downing a down edge, upping an up agent, repeats
//!   within one list);
//! - lone usable edge-downs, which take the bidirectional-probe path;
//! - an edge-up together with an endpoint's agent-down in one delta;
//! - pure merges (edge-ups only) and scattered mixed batches.
//!
//! After every delta the index must report exactly the oracle's groups (in
//! order), usable-edge count, enabled sets and connectivity.
//!
//! The second property puts small topologies (ring, line, star, grid,
//! clique, sparse random; 1 to 16 agents) under heavy churn: every edge and
//! agent flips with a probability up to 1, so most deltas down several
//! edges or flip an agent and take the index's full union-find pass; the
//! rest (at most one edge down, no agent flipped) take its per-flip path.
//!
//! The third property drives [`Connectivity`] — the fold every runtime and
//! baseline reads — with streams of all four [`EnvDelta`] variants and
//! checks each of its queries against an `EnvState` fold of the same
//! stream.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfsim_env::{
    AgentId, Connectivity, Edge, EnvChanges, EnvDelta, EnvState, GroupIndex, Topology,
};

fn topology(choice: u8, n: usize, rng: &mut StdRng) -> Topology {
    match choice % 4 {
        0 => Topology::ring(n),
        1 => Topology::star(n),
        2 => Topology::complete(n),
        _ => Topology::random_connected_sparse(n, 3.0, rng),
    }
}

fn usable_edges(state: &EnvState) -> Vec<Edge> {
    state
        .enabled_edges()
        .iter()
        .filter(|e| state.can_communicate(e.lo(), e.hi()))
        .copied()
        .collect()
}

fn pick<T: Copy>(items: &[T], rng: &mut StdRng) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

/// One delta of the stream, drawn against the oracle's current state so
/// the targeted paths are actually exercised.
fn draw_changes(topo: &Topology, state: &EnvState, rng: &mut StdRng) -> EnvChanges {
    let edges: Vec<Edge> = topo.edges().to_vec();
    let n = topo.agent_count();
    let mut changes = EnvChanges::default();
    let agent = |rng: &mut StdRng| AgentId(rng.gen_range(0..n));
    match rng.gen_range(0..6) {
        // A lone usable edge-down: the probe path.
        0 => changes.edges_down.extend(pick(&usable_edges(state), rng)),
        // Edge-ups only: pure merges.
        1 => {
            for _ in 0..rng.gen_range(1..4) {
                changes.edges_up.extend(pick(&edges, rng));
            }
        }
        // An edge comes up while one of its endpoints goes down.
        2 => {
            if let Some(e) = pick(&edges, rng) {
                changes.edges_up.push(e);
                changes
                    .agents_down
                    .push(if rng.gen_bool(0.5) { e.lo() } else { e.hi() });
            }
        }
        // Redundant flips only: already-down edges down, up agents up.
        3 => {
            let down: Vec<Edge> = edges
                .iter()
                .filter(|e| !state.enabled_edges().contains(e))
                .copied()
                .collect();
            changes.edges_down.extend(pick(&down, rng));
            changes.edges_down.extend(pick(&down, rng));
            changes.agents_up.extend(pick(state.enabled_agents(), rng));
        }
        // Agent churn alone (shatters and re-joins groups).
        4 => {
            for _ in 0..rng.gen_range(1..3) {
                changes.agents_down.push(agent(rng));
            }
            for _ in 0..rng.gen_range(0..3) {
                changes.agents_up.push(agent(rng));
            }
        }
        // A scattered mixed batch, repeats included.
        _ => {
            let k = rng.gen_range(0..=edges.len().min(8));
            for _ in 0..k {
                changes.edges_down.extend(pick(&edges, rng));
            }
            for _ in 0..rng.gen_range(0..=k) {
                changes.edges_up.extend(pick(&edges, rng));
            }
            for _ in 0..rng.gen_range(0..3) {
                changes.agents_down.push(agent(rng));
            }
            for _ in 0..rng.gen_range(0..3) {
                changes.agents_up.push(agent(rng));
            }
        }
    }
    changes
}

/// A random starting state over `topo` (each edge and agent kept with
/// probability `keep`).
fn random_state(topo: &Topology, keep: f64, rng: &mut StdRng) -> EnvState {
    let edges: Vec<Edge> = topo
        .edges()
        .iter()
        .filter(|_| rng.gen_bool(keep))
        .copied()
        .collect();
    let agents: Vec<AgentId> = topo.agents().filter(|_| rng.gen_bool(keep)).collect();
    EnvState::new(topo.agent_count(), edges, agents)
}

fn small_topology(choice: u8, n: usize, rng: &mut StdRng) -> Topology {
    match choice % 6 {
        0 => Topology::ring(n),
        1 => Topology::line(n),
        2 => Topology::star(n),
        3 => {
            let rows = rng.gen_range(1..=n.min(4));
            Topology::grid(rows, n / rows)
        }
        4 => Topology::complete(n),
        _ => Topology::random_connected_sparse(n, 2.5, rng),
    }
}

/// A churn delta against `state`: each topology edge and each agent
/// flips with probability `rate`, so the diff is well formed; one time in
/// four the first downed edge is listed twice.
fn churn_changes(topo: &Topology, state: &EnvState, rate: f64, rng: &mut StdRng) -> EnvChanges {
    let mut changes = EnvChanges::default();
    for e in topo.edges() {
        if rng.gen_bool(rate) {
            if state.enabled_edges().contains(e) {
                changes.edges_down.push(*e);
            } else {
                changes.edges_up.push(*e);
            }
        }
    }
    for a in topo.agents() {
        if rng.gen_bool(rate) {
            if state.is_agent_enabled(a) {
                changes.agents_down.push(a);
            } else {
                changes.agents_up.push(a);
            }
        }
    }
    if rng.gen_bool(0.25) {
        let repeat = changes.edges_down.first().copied();
        changes.edges_down.extend(repeat);
    }
    changes
}

/// One delta of any variant, drawn against the oracle's current state: the
/// absolute ones sometimes restate the current state, so the "nothing
/// changed" paths run too.
fn draw_delta(topo: &Topology, state: &EnvState, rng: &mut StdRng) -> EnvDelta {
    match rng.gen_range(0..8) {
        0 => EnvDelta::Unchanged,
        1 => EnvDelta::AllEnabled,
        2 => EnvDelta::Full(random_state(topo, rng.gen_range(0.0..=1.0), rng)),
        3 => EnvDelta::Full(match rng.gen_range(0..3) {
            0 => state.clone(),
            1 => EnvState::fully_enabled(topo),
            _ => EnvState::fully_disabled(topo.agent_count()),
        }),
        _ => EnvDelta::Changes(draw_changes(topo, state, rng)),
    }
}

/// The oracle's fold of one delta.
fn fold(state: &mut EnvState, delta: &EnvDelta, topo: &Topology) {
    match delta {
        EnvDelta::Unchanged => {}
        EnvDelta::AllEnabled => *state = EnvState::fully_enabled(topo),
        EnvDelta::Full(next) => *state = next.clone(),
        EnvDelta::Changes(changes) => state.apply_changes(changes),
    }
}

fn groups_of(connectivity: &Connectivity) -> Vec<Vec<AgentId>> {
    (0..connectivity.group_count())
        .map(|i| connectivity.group(i).to_vec())
        .collect()
}

proptest! {
    #[test]
    fn group_index_matches_oracle_over_arbitrary_change_streams(
        seed in 0u64..1_000_000,
        choice in 0u8..4,
        n in 2usize..=48,
        keep in 0.0f64..=1.0,
        deltas in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = topology(choice, n, &mut rng);
        let mut index = GroupIndex::new(&topo);
        let mut state = if rng.gen_bool(0.5) {
            index.reset_all_enabled();
            EnvState::fully_enabled(&topo)
        } else {
            let state = random_state(&topo, keep, &mut rng);
            index.reset_from_state(&state);
            state
        };
        for step in 0..deltas {
            let changes = draw_changes(&topo, &state, &mut rng);
            state.apply_changes(&changes);
            index.apply_changes(&changes);
            prop_assert!(
                index.groups() == state.groups(),
                "groups diverged at step {} (seed {}) after {:?}: {:?} vs {:?}",
                step,
                seed,
                changes,
                index.groups(),
                state.groups()
            );
            prop_assert_eq!(index.usable_edge_count(), usable_edges(&state).len());
            prop_assert!(index.to_env_state() == state, "to_env_state diverged at step {}", step);
            prop_assert!(
                index.same_connectivity(&state),
                "same_connectivity disagreed at step {}",
                step
            );
        }
    }

    #[test]
    fn group_index_matches_oracle_under_heavy_churn(
        seed in 0u64..1_000_000,
        choice in 0u8..6,
        n in 1usize..=16,
        keep in 0.0f64..=1.0,
        rate in 0.0f64..=1.0,
        deltas in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = small_topology(choice, n, &mut rng);
        let mut state = random_state(&topo, keep, &mut rng);
        let mut index = GroupIndex::new(&topo);
        index.reset_from_state(&state);
        for step in 0..deltas {
            let changes = churn_changes(&topo, &state, rate, &mut rng);
            state.apply_changes(&changes);
            index.apply_changes(&changes);
            prop_assert!(
                index.groups() == state.groups(),
                "groups diverged at step {} (seed {}) after {:?}: {:?} vs {:?}",
                step,
                seed,
                changes,
                index.groups(),
                state.groups()
            );
            prop_assert_eq!(index.usable_edge_count(), usable_edges(&state).len());
            prop_assert!(index.to_env_state() == state, "to_env_state diverged at step {}", step);
        }
    }

    #[test]
    fn connectivity_matches_oracle_over_every_delta_variant(
        seed in 0u64..1_000_000,
        choice in 0u8..4,
        n in 2usize..=48,
        deltas in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = topology(choice, n, &mut rng);
        let mut connectivity = Connectivity::default();
        let mut state = EnvState::fully_disabled(n);
        for step in 0..deltas {
            let delta = draw_delta(&topo, &state, &mut rng);
            let before = state.groups();
            fold(&mut state, &delta, &topo);
            let changed = connectivity.advance(delta, &topo);
            let groups = state.groups();
            prop_assert!(
                groups_of(&connectivity) == groups,
                "groups diverged at step {}",
                step
            );
            prop_assert!(
                changed || groups == before,
                "a group change went unreported at step {}",
                step
            );
            let usable = usable_edges(&state);
            prop_assert!(
                connectivity.usable_edges(&topo).collect::<Vec<_>>() == usable,
                "usable edges diverged at step {}",
                step
            );
            prop_assert_eq!(connectivity.usable_edge_count(&topo), usable.len());
            for a in topo.agents() {
                for b in topo.agents() {
                    prop_assert!(
                        connectivity.can_communicate(a, b, &topo) == state.can_communicate(a, b),
                        "can_communicate({}, {}) diverged at step {}",
                        a,
                        b,
                        step
                    );
                }
            }
            prop_assert!(
                connectivity.to_env_state(&topo) == state,
                "to_env_state diverged at step {}",
                step
            );
        }
    }
}
