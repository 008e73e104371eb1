//! The engine steps groups through `GroupStep::step_in_place`; the proof
//! obligations go through `GroupStep::step`.  These tests pin the two to
//! each other for every builtin group step, and pin
//! `SelfSimilarSystem::apply_group_step_with`'s run detection to the
//! positional meaning of a group.

use std::collections::BTreeSet;
use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use self_similar::algorithms::{
    boolean, convex_hull, k_smallest, maximum, minimum, second_smallest, set_union, sorting, sum,
};
use self_similar::core::{GroupStates, GroupStep, SelfSimilarSystem, StepScratch};
use self_similar::env::{AgentId, Topology};
use self_similar::geometry::Point;
use self_similar::multiset::SignedCounts;

/// Counts the draws made through it.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    fn new(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

fn nonzero<S: Ord + Clone>(delta: &SignedCounts<S>) -> Vec<(S, isize)> {
    delta.iter_nonzero().map(|(v, c)| (v.clone(), c)).collect()
}

/// Steps `before` once by copy and once in place from the same seed, and
/// checks that the two agree on the result and the RNG use, and that the
/// in-place step accounted exactly for what it changed.
fn check_in_place_matches_step<S: Ord + Clone + Debug>(
    step: &dyn GroupStep<S>,
    before: &[S],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut by_copy_rng = CountingRng::new(seed);
    let after = step.step(before, &mut by_copy_rng);

    let mut in_place_rng = CountingRng::new(seed);
    let mut states = before.to_vec();
    let mut delta = SignedCounts::new();
    let mut group = GroupStates::new(&mut states, &mut delta);
    step.step_in_place(&mut group, &mut in_place_rng);
    let moved = group.moved();
    let delta = nonzero(group.delta());

    prop_assert_eq!(&states, &after);
    prop_assert_eq!(in_place_rng.draws, by_copy_rng.draws);
    prop_assert_eq!(in_place_rng.next_u64(), by_copy_rng.next_u64());
    let mut expected = SignedCounts::new();
    for v in before {
        expected.add(v.clone(), -1);
    }
    for v in &after {
        expected.add(v.clone(), 1);
    }
    prop_assert_eq!(delta, nonzero(&expected));
    prop_assert_eq!(moved, after.as_slice() != before);
    Ok(())
}

fn points(coords: &[(i64, i64)]) -> Vec<Point> {
    coords
        .iter()
        .map(|&(x, y)| Point::new(x as f64, y as f64))
        .collect()
}

proptest! {
    /// Groups of up to 24 members over up to 24 consecutive values, so
    /// both groups whose range holds no more values than members (the
    /// `minimum` steps open a value window) and groups whose range holds
    /// more (they do not) occur, with negative and positive values.
    #[test]
    fn integer_steps_in_place_match_step(
        values in (-1_000i64..1_000, 1i64..25, vec(0i64..24, 1..25))
            .prop_map(|(lo, width, raw)| raw.iter().map(|r| lo + r % width).collect::<Vec<_>>()),
        seed in 0u64..1_000_000,
    ) {
        let steps: Vec<Box<dyn GroupStep<i64>>> = vec![
            Box::new(minimum::adopt_min_step()),
            Box::new(minimum::partial_descent_step()),
            Box::new(maximum::adopt_max_step()),
            Box::new(sum::concentrate_step()),
            Box::new(sum::trickle_step()),
        ];
        for step in &steps {
            check_in_place_matches_step(step.as_ref(), &values, seed)?;
        }
    }

    #[test]
    fn boolean_steps_in_place_match_step(
        bits in vec(0u8..2, 1..9),
        seed in 0u64..1_000_000,
    ) {
        let states: Vec<bool> = bits.iter().map(|&b| b == 1).collect();
        check_in_place_matches_step(&boolean::or_step(), &states, seed)?;
        check_in_place_matches_step(&boolean::and_step(), &states, seed)?;
    }

    #[test]
    fn pair_steps_in_place_match_step(
        pairs in vec((0i64..8, 0i64..8), 1..9),
        seed in 0u64..1_000_000,
    ) {
        check_in_place_matches_step(&sorting::sort_group_step(), &pairs, seed)?;
        check_in_place_matches_step(&sorting::swap_one_step(), &pairs, seed)?;
        check_in_place_matches_step(&second_smallest::adopt_step(), &pairs, seed)?;
    }

    #[test]
    fn collection_steps_in_place_match_step(
        lists in vec(vec(0i64..10, 0..4), 1..7),
        k in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let sorted: Vec<Vec<i64>> = lists
            .iter()
            .map(|l| {
                let mut l = l.clone();
                l.sort_unstable();
                l.dedup();
                l.truncate(k);
                l
            })
            .collect();
        check_in_place_matches_step(&k_smallest::adopt_step(k), &sorted, seed)?;
        let sets: Vec<BTreeSet<i64>> =
            lists.iter().map(|l| l.iter().copied().collect()).collect();
        check_in_place_matches_step(&set_union::merge_step(), &sets, seed)?;
    }

    #[test]
    fn hull_steps_in_place_match_step(
        sites in vec(((0i64..6, 0i64..6), vec((0i64..6, 0i64..6), 0..4)), 1..6),
        seed in 0u64..1_000_000,
    ) {
        let states: Vec<convex_hull::State> = sites
            .iter()
            .map(|(site, extra)| {
                let site = points(&[*site]).remove(0);
                let mut known = points(extra);
                known.push(site);
                (site, convex_hull::canonical_hull(&known))
            })
            .collect();
        check_in_place_matches_step(&convex_hull::merge_all_step(), &states, seed)?;
        check_in_place_matches_step(&convex_hull::one_learns_step(), &states, seed)?;
    }
}

/// Steps `group` the positional way: gather its members' states in group
/// order, run `step` and write position `k` back to member `k`.
fn positional_step<S: Ord + Clone + Debug>(
    system: &SelfSimilarSystem<S>,
    state: &mut [S],
    group: &[AgentId],
    seed: u64,
) {
    let before: Vec<S> = group.iter().map(|a| state[a.index()].clone()).collect();
    let after = system
        .group_step()
        .step(&before, &mut StdRng::seed_from_u64(seed));
    for (a, v) in group.iter().zip(after) {
        state[a.index()] = v;
    }
}

/// `apply_group_step_with` must give the positional result, and keep the
/// caller's multiset in step with the state.
fn check_matches_positional<S: Ord + Clone + Debug>(
    system: &SelfSimilarSystem<S>,
    group: &[AgentId],
) {
    let mut expected = system.initial_state().clone();
    positional_step(system, &mut expected, group, 5);

    let mut state = system.initial_state().clone();
    let mut global = system.multiset(&state);
    let outcome = system.apply_group_step_with(
        &mut state,
        group,
        &mut StdRng::seed_from_u64(5),
        &mut StepScratch::new(),
        Some(&mut global),
    );
    assert_eq!(state, expected, "group {group:?}");
    assert_eq!(global, system.multiset(&state));
    assert_eq!(outcome.positionally_fixed, state == *system.initial_state());
}

#[test]
fn descending_pair_steps_positionally() {
    // The async runtime hands over an interaction as (initiator,
    // responder), so a pair can come in descending id order.
    let k = 3;
    let pair = [AgentId(k + 1), AgentId(k)];
    let sorting = sorting::system_with_step(&[6, 5, 4, 9, 1, 8, 2], sorting::swap_one_step());
    check_matches_positional(&sorting, &pair);
    // Concentrate breaks ties by position: the first member of the pair
    // keeps the mass, so stepping the run `k..=k+1` instead would move it
    // to the other agent.
    let sum = sum::system_with_step(
        &[1, 2, 3, 4, 4, 5, 6],
        Topology::complete(7),
        sum::concentrate_step(),
    );
    check_matches_positional(&sum, &pair);
}

#[test]
fn gapped_group_steps_positionally() {
    let gapped = [AgentId(0), AgentId(2), AgentId(5)];
    let sorting = sorting::system_with_step(&[6, 5, 4, 9, 1, 8, 2], sorting::swap_one_step());
    check_matches_positional(&sorting, &gapped);
    let minimum = minimum::system_with_step(
        &[9, 5, 3, 7, 8, 1, 4],
        Topology::line(7),
        minimum::partial_descent_step(),
    );
    check_matches_positional(&minimum, &gapped);
}

#[test]
fn contiguous_group_steps_positionally() {
    let run: Vec<AgentId> = (1..6).map(AgentId).collect();
    let minimum = minimum::system_with_step(
        &[9, 5, 3, 7, 8, 1, 4],
        Topology::line(7),
        minimum::partial_descent_step(),
    );
    check_matches_positional(&minimum, &run);
    let sorting = sorting::system_with_step(&[6, 5, 4, 9, 1, 8, 2], sorting::sort_group_step());
    check_matches_positional(&sorting, &run);
}
