//! §4.1 — Minimum of a set, as a consensus problem.
//!
//! Every agent holds one non-negative integer; the goal is for every agent
//! to end up holding the minimum of the initial values.
//!
//! * `f` maps a multiset to a multiset of the same cardinality in which all
//!   values equal the minimum: `f({3,5,3,7}) = {3,3,3,3}`.  It is defined by
//!   a commutative associative operator, hence super-idempotent.
//! * `h(S) = Σ_a x_a` — non-negative and integer-valued, so well-founded.
//! * `R`: any group step that keeps the group minimum while reducing the
//!   group sum.  [`AdoptMinStep`] makes every member adopt the group
//!   minimum (the fastest admissible move); [`PartialDescentStep`] lets
//!   every member move to a random value between the group minimum and its
//!   current value (the paper's "any value between their current value and
//!   the minimum of the group").  Both rules are written once, in place
//!   ([`GroupStep::step_in_place`]), so the engine steps a contiguous group
//!   without copying it.  Both write only inside the group's value range
//!   `min..=max`, found in the same pass as the minimum: when that range
//!   holds no more values than the group has members, the step opens a
//!   value window over it ([`GroupStates::open_window`]) and each move is
//!   counted into the window's slot for its value in O(1), not by a search
//!   of the step's multiset delta.
//! * `Q`: `Q_E` for any connected graph `E`.

use rand::Rng;

use selfsim_core::{
    ConsensusFunction, GroupStates, GroupStep, SelfSimilarSystem, SummationObjective,
};
use selfsim_env::{FairnessSpec, Topology};
use selfsim_multiset::{Multiset, SignedCounts};

/// The agent state: a single non-negative integer.
pub type State = i64;

/// The distributed function `f`: every agent adopts the minimum.
pub fn function() -> impl selfsim_core::DistributedFunction<State> {
    ConsensusFunction::new("min", |s: &Multiset<State>| {
        s.min_value().copied().unwrap_or(0)
    })
}

/// The objective `h(S) = Σ_a x_a` in summation form (8).
pub fn objective() -> SummationObjective<State, impl Fn(&State) -> f64> {
    SummationObjective::new("sum-of-values", |v: &State| *v as f64)
}

/// The "adopt the group minimum" group step: the fastest refinement of `D`.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdoptMinStep;

impl GroupStep<State> for AdoptMinStep {
    fn step(&self, states: &[State], rng: &mut dyn rand::RngCore) -> Vec<State> {
        step_copy(self, states, rng)
    }

    fn step_in_place(&self, group: &mut GroupStates<'_, State>, _rng: &mut dyn rand::RngCore) {
        let m = group_min_with_window(group);
        for k in 0..group.len() {
            group.set_windowed(k, m);
        }
    }

    fn name(&self) -> &str {
        "adopt-min"
    }
}

/// A slower admissible step: every member moves to a uniformly random value
/// between the group minimum and its current value (inclusive).  Still
/// conserves the minimum and never increases the sum; the step only counts
/// as a change when at least one member actually moved.
///
/// It draws once per member above the group minimum, in member order.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartialDescentStep;

impl GroupStep<State> for PartialDescentStep {
    fn step(&self, states: &[State], rng: &mut dyn rand::RngCore) -> Vec<State> {
        step_copy(self, states, rng)
    }

    fn step_in_place(&self, group: &mut GroupStates<'_, State>, rng: &mut dyn rand::RngCore) {
        let m = group_min_with_window(group);
        let mut first_above = None;
        for k in 0..group.len() {
            match group.as_slice().get(k) {
                Some(&x) if x > m => {
                    first_above.get_or_insert((k, x));
                    group.set_windowed(k, rng.gen_range(m..=x));
                }
                _ => {}
            }
        }
        // Guarantee strict descent whenever descent is possible: if the
        // random draws all stayed put but some member is above the
        // minimum, pull the first of them down by one.
        if let (false, Some((k, x))) = (group.moved(), first_above) {
            group.set_windowed(k, x - 1);
        }
    }

    fn name(&self) -> &str {
        "partial-descent"
    }
}

/// The minimum of a group's states (0 for an empty group), after opening
/// a value window over the group's range `min..=max`, which holds every
/// value a minimum step writes or overwrites.
fn group_min_with_window(group: &mut GroupStates<'_, State>) -> State {
    let Some(&first) = group.as_slice().first() else {
        return 0;
    };
    let (min, max) = group
        .as_slice()
        .iter()
        .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    group.open_window(min, max);
    min
}

/// `step` for a step whose rule lives in `step_in_place`: runs it on a
/// copy of `states`.
fn step_copy(
    step: &impl GroupStep<State>,
    states: &[State],
    rng: &mut dyn rand::RngCore,
) -> Vec<State> {
    let mut out = states.to_vec();
    let mut delta = SignedCounts::new();
    step.step_in_place(&mut GroupStates::new(&mut out, &mut delta), rng);
    out
}

/// The "adopt the group minimum" group step ([`AdoptMinStep`]).
pub fn adopt_min_step() -> AdoptMinStep {
    AdoptMinStep
}

/// The partial-descent group step ([`PartialDescentStep`]).
pub fn partial_descent_step() -> PartialDescentStep {
    PartialDescentStep
}

/// The fairness assumption: `Q_E` for the given (connected) graph.
pub fn fairness(topology: &Topology) -> FairnessSpec {
    FairnessSpec::for_graph(topology)
}

/// Builds the complete system for the given initial values over `topology`
/// (which doubles as the fairness graph), using [`adopt_min_step`].
///
/// # Panics
///
/// Panics if any initial value is negative (the paper assumes
/// `x_a(0) ≥ 0` so that `h` is well-founded) or if `topology` is not
/// connected.
pub fn system(initial: &[State], topology: Topology) -> SelfSimilarSystem<State> {
    system_with_step(initial, topology, adopt_min_step())
}

/// Builds the system with a caller-chosen group step (e.g.
/// [`partial_descent_step`]).
pub fn system_with_step(
    initial: &[State],
    topology: Topology,
    step: impl GroupStep<State> + 'static,
) -> SelfSimilarSystem<State> {
    assert!(
        initial.iter().all(|v| *v >= 0),
        "the minimum example assumes non-negative initial values"
    );
    assert!(
        topology.is_connected(),
        "the minimum example requires a connected fairness graph"
    );
    assert_eq!(initial.len(), topology.agent_count());
    SelfSimilarSystem::new(
        "minimum",
        function(),
        objective(),
        step,
        initial.to_vec(),
        fairness(&topology),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfsim_core::super_idempotence::{
        check_idempotent, check_local_conservation_implies_global, check_super_idempotent,
        check_super_idempotent_single_element,
    };
    use selfsim_core::{proof, DistributedFunction, ObjectiveFunction};

    fn samples() -> Vec<Multiset<State>> {
        vec![
            Multiset::new(),
            [0].into(),
            [3, 5].into(),
            [3, 5, 3, 7].into(),
            [9, 9, 9].into(),
            [1, 100, 50].into(),
        ]
    }

    #[test]
    fn paper_example_value() {
        assert_eq!(function().apply(&[3, 5, 3, 7].into()), [3, 3, 3, 3].into());
    }

    #[test]
    fn f_is_super_idempotent() {
        let f = function();
        assert!(check_idempotent(&f, &samples()).is_ok());
        assert!(check_super_idempotent(&f, &samples()).is_ok());
        assert!(check_super_idempotent_single_element(&f, &samples(), &[0, 2, 6, 11]).is_ok());
        assert!(check_local_conservation_implies_global(&f, &samples()).is_ok());
    }

    #[test]
    fn objective_is_nonnegative_on_nonnegative_states() {
        let h = objective();
        for s in samples() {
            assert!(h.eval(&s) >= 0.0);
        }
        assert_eq!(h.eval(&[3, 5, 3, 7].into()), 18.0);
    }

    #[test]
    fn adopt_min_step_refines_d() {
        let sys = system(&[3, 5, 3, 7], Topology::line(4));
        let mut rng = StdRng::seed_from_u64(1);
        let report = proof::audit_system(&sys, &[], 3, &mut rng);
        assert!(report.passed(), "{:?}", report.violations);
    }

    #[test]
    fn partial_descent_step_refines_d() {
        let sys = system_with_step(&[3, 5, 3, 7], Topology::line(4), partial_descent_step());
        let mut rng = StdRng::seed_from_u64(2);
        let report = proof::audit_system(&sys, &[vec![10, 0, 4], vec![7, 7]], 10, &mut rng);
        assert!(report.passed(), "{:?}", report.violations);
    }

    #[test]
    fn partial_descent_makes_progress_when_possible() {
        let step = partial_descent_step();
        let mut rng = StdRng::seed_from_u64(3);
        // From a non-optimal group state the step must change something
        // (needed for the escape obligation).
        let before = vec![5i64, 5, 5, 2];
        let after = step.step(&before, &mut rng);
        assert_ne!(before, after);
        assert_eq!(after.iter().copied().min(), Some(2));
        assert!(after.iter().sum::<i64>() < before.iter().sum::<i64>());
    }

    /// The closure form of partial descent, before its rule moved into
    /// `step_in_place`: the in-place rule must draw and move exactly as
    /// this does, or every recorded ring trajectory changes.
    fn partial_descent_reference(states: &[State], rng: &mut dyn rand::RngCore) -> Vec<State> {
        let m = states.iter().copied().min().unwrap_or(0);
        let mut out: Vec<State> = states
            .iter()
            .map(|&x| if x > m { rng.gen_range(m..=x) } else { x })
            .collect();
        if out == states {
            if let Some(i) = out.iter().position(|&x| x > m) {
                out[i] -= 1;
            }
        }
        out
    }

    #[test]
    fn partial_descent_keeps_its_draws_and_moves() {
        let mut gen = StdRng::seed_from_u64(4);
        for seed in 0..500 {
            let len = gen.gen_range(1..9usize);
            let before: Vec<State> = (0..len).map(|_| gen.gen_range(0..4)).collect();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let after = partial_descent_step().step(&before, &mut a);
            assert_eq!(
                after,
                partial_descent_reference(&before, &mut b),
                "{before:?}"
            );
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "{before:?}");
        }
    }

    #[test]
    fn target_is_all_minimum() {
        let sys = system(&[9, 4, 7], Topology::complete(3));
        assert_eq!(sys.target(), [4, 4, 4].into());
        assert!(sys.is_converged(&[4, 4, 4]));
        assert!(!sys.is_converged(&[4, 4, 7]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_initial_values_are_rejected() {
        let _ = system(&[3, -1], Topology::line(2));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_fairness_graph_is_rejected() {
        let _ = system(&[3, 1, 2], Topology::empty(3));
    }
}
