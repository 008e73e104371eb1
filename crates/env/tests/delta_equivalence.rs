//! The `step_delta` contract, property-tested for every builtin
//! environment: an environment advanced through [`Environment::step_delta`]
//! with the deltas folded into an [`EnvState`] must traverse exactly the
//! state sequence (and consume exactly the RNG stream) that the same
//! environment advanced through [`Environment::step`] traverses.  This is
//! what entitles the event-driven runtime to apply connectivity updates
//! incrementally.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfsim_env::{
    AdversarialEnv, ComposedEnv, CrashRestartEnv, EnvDelta, EnvState, Environment, GroupIndex,
    MarkovLinkEnv, PeriodicPartitionEnv, RandomChurnEnv, StaticEnv, Topology,
};

fn topology(choice: u8, n: usize) -> Topology {
    match choice % 4 {
        0 => Topology::ring(n),
        1 => Topology::line(n),
        2 => Topology::complete(n),
        _ => Topology::star(n),
    }
}

/// Every builtin environment over `topo`, one per constructor path,
/// parameterised from the three probability-ish knobs so the proptest
/// cases sweep their behaviours (always-changing, mostly-quiet,
/// phase-switching, fallback-only).
fn builtin_envs(topo: &Topology, p: f64, q: f64, k: usize) -> Vec<Box<dyn Environment>> {
    vec![
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
            MarkovLinkEnv::new(topo.clone(), p, q),
            CrashRestartEnv::new(topo.clone(), q, p),
        )),
        // The environment registry's `churn+crash` shape.
        Box::new(ComposedEnv::new(
            RandomChurnEnv::new(topo.clone(), p, 1.0),
            CrashRestartEnv::new(topo.clone(), q, p),
        )),
    ]
}

/// Folds one delta into the running state; `current` is `None` before the
/// first (absolute, per the contract) delta arrives.
fn fold(current: &mut Option<EnvState>, delta: EnvDelta, topo: &Topology) {
    match delta {
        EnvDelta::Unchanged => {
            assert!(
                current.is_some(),
                "contract violation: the first delta must be absolute"
            );
        }
        EnvDelta::AllEnabled => *current = Some(EnvState::fully_enabled(topo)),
        EnvDelta::Full(state) => *current = Some(state),
        EnvDelta::Changes(changes) => current
            .as_mut()
            .expect("contract violation: the first delta must be absolute")
            .apply_changes(&changes),
    }
}

proptest! {
    /// The core property: over random topologies, parameters and seeds,
    /// the folded delta stream equals the full-rescan stream round for
    /// round, for every builtin environment.
    #[test]
    fn folded_deltas_equal_full_rescans(
        seed in 0u64..500,
        choice in 0u8..8,
        n in 3usize..10,
        p in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
        k in 0usize..10,
        rounds in 1usize..30,
    ) {
        let topo = topology(choice, n);
        let stepped = builtin_envs(&topo, p, q, k);
        let delta_stepped = builtin_envs(&topo, p, q, k);
        for (mut a, mut b) in stepped.into_iter().zip(delta_stepped) {
            let name = a.name();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut folded: Option<EnvState> = None;
            for round in 0..rounds {
                let full = a.step(&mut rng_a);
                fold(&mut folded, b.step_delta(&mut rng_b), &topo);
                let folded = folded.as_ref().expect("absolute after first delta");
                prop_assert!(
                    folded == &full,
                    "{} diverged at round {} (seed {})",
                    name,
                    round,
                    seed
                );
            }
            // Identical RNG streams: both copies must be at the same point.
            prop_assert!(
                rng_a.next_u64() == rng_b.next_u64(),
                "{} desynced its RNG stream",
                name
            );
        }
    }

    /// Incremental group maintenance equals a from-scratch labelling: a
    /// [`GroupIndex`] fed the delta stream of every builtin environment
    /// (merges on edge-up, bounded re-splits on edge-down, agent churn)
    /// reports exactly the groups — in exactly the ascending-min order —
    /// that a full rescan of the folded [`EnvState`] reports.  On graphs
    /// this small most churn deltas take the full pass; the unit test
    /// `groups::tests::both_paths_follow_builtin_delta_streams` holds each
    /// path in turn to the same kind of streams.
    #[test]
    fn group_index_equals_bfs_recompute_over_delta_streams(
        seed in 0u64..500,
        choice in 0u8..8,
        n in 3usize..10,
        p in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
        k in 0usize..10,
        rounds in 1usize..30,
    ) {
        let topo = topology(choice, n);
        for mut env in builtin_envs(&topo, p, q, k) {
            let name = env.name();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut folded: Option<EnvState> = None;
            let mut index = GroupIndex::new(&topo);
            for round in 0..rounds {
                let delta = env.step_delta(&mut rng);
                // Mirror the event runtime's handling of each delta kind.
                match &delta {
                    EnvDelta::Unchanged => {}
                    EnvDelta::AllEnabled => index.reset_all_enabled(),
                    EnvDelta::Full(state) => index.reset_from_state(state),
                    EnvDelta::Changes(changes) => index.apply_changes(changes),
                }
                fold(&mut folded, delta, &topo);
                let folded = folded.as_ref().expect("absolute after first delta");
                prop_assert!(
                    index.groups() == folded.groups(),
                    "{} group index diverged from the full labelling at round {} (seed {}): {:?} vs {:?}",
                    name,
                    round,
                    seed,
                    index.groups(),
                    folded.groups()
                );
                prop_assert!(
                    index.same_connectivity(folded),
                    "{} same_connectivity disagreed at round {}",
                    name,
                    round
                );
                prop_assert!(
                    index.to_env_state() == *folded,
                    "{} to_env_state round-trip diverged at round {}",
                    name,
                    round
                );
            }
        }
    }
}
