//! The complete description of a self-similar algorithm instance.

use std::sync::OnceLock;

use selfsim_env::{AgentId, FairnessSpec};
use selfsim_multiset::{Multiset, SignedCounts};

use crate::{DistributedFunction, GroupStates, GroupStep, ObjectiveFunction, RelationD};

/// Reusable scratch buffers for [`SelfSimilarSystem::apply_group_step_with`]:
/// the gather buffer for groups that are not a contiguous run of agent ids,
/// and the signed multiset delta of the last step.
///
/// A simulator allocates one of these per run and threads it through every
/// group step; the buffers grow to the largest group seen and are then
/// reused, so the steady-state step loop performs no allocation for the
/// change-detection bookkeeping.  A value window that a step opens over
/// the delta ([`GroupStates::open_window`]) holds at most one entry per
/// member, so the delta's buffer still grows only with the largest group.
#[derive(Default)]
pub struct StepScratch<S: Ord> {
    before: Vec<S>,
    delta: SignedCounts<S>,
}

impl<S: Ord> StepScratch<S> {
    /// Creates empty scratch buffers.
    pub fn new() -> Self {
        StepScratch {
            before: Vec::new(),
            delta: SignedCounts::new(),
        }
    }
}

/// What a single group step did, as observed by
/// [`SelfSimilarSystem::apply_group_step_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// `true` if the group's *multiset* of states changed — the paper's
    /// notion of a productive transition.
    pub multiset_changed: bool,
    /// `true` if no agent's positional state changed at all (a fixpoint of
    /// `R` on this group; implies `!multiset_changed`).
    pub positionally_fixed: bool,
}

/// The positional state of the whole agent set: `state[i]` is the state of
/// `AgentId(i)`.
///
/// The paper's multiset view is recovered with [`SelfSimilarSystem::multiset`];
/// the positional form is what the environment-driven simulators need in
/// order to write group-step results back to the right agents.
pub type SystemState<S> = Vec<S>;

/// A self-similar algorithm instance: the distributed function `f` to
/// compute, the variant `h`, the group algorithm `R`, the initial states,
/// and the fairness assumption `Q` under which convergence is claimed.
///
/// The components are stored as boxed trait objects so that algorithm
/// constructors (in `selfsim-algorithms`) can build instances from closures
/// without leaking unnameable types, and so that simulators and experiment
/// harnesses can treat all algorithms uniformly.
pub struct SelfSimilarSystem<S: Ord + Clone> {
    name: String,
    f: Box<dyn DistributedFunction<S>>,
    h: Box<dyn ObjectiveFunction<S>>,
    step: Box<dyn GroupStep<S>>,
    initial: SystemState<S>,
    fairness: FairnessSpec,
    // `f(S(0))` is a constant of the instance but `is_converged` runs once
    // per simulated round; computing it lazily once removes the dominant
    // allocation from the convergence check.
    target: OnceLock<Multiset<S>>,
    // The multiset view of `S(0)` is also a constant, and every simulator
    // builds it at t0 — an O(n log n) collect that dominates startup at
    // n = 10^6.  Cached so repeated runs over one instance pay it once.
    initial_multiset: OnceLock<Multiset<S>>,
}

impl<S: Ord + Clone + std::fmt::Debug> SelfSimilarSystem<S> {
    /// Packages an algorithm instance.
    ///
    /// # Panics
    ///
    /// Panics if the fairness spec's agent count does not match the number
    /// of initial states.
    pub fn new(
        name: impl Into<String>,
        f: impl DistributedFunction<S> + 'static,
        h: impl ObjectiveFunction<S> + 'static,
        step: impl GroupStep<S> + 'static,
        initial: SystemState<S>,
        fairness: FairnessSpec,
    ) -> Self {
        assert_eq!(
            fairness.agent_count(),
            initial.len(),
            "fairness spec is over {} agents but there are {} initial states",
            fairness.agent_count(),
            initial.len()
        );
        SelfSimilarSystem {
            name: name.into(),
            f: Box::new(f),
            h: Box::new(h),
            step: Box::new(step),
            initial,
            fairness,
            target: OnceLock::new(),
            initial_multiset: OnceLock::new(),
        }
    }

    /// The instance's name (e.g. `"minimum"`, `"sorting"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of agents.
    pub fn agent_count(&self) -> usize {
        self.initial.len()
    }

    /// The initial positional state `S(0)`.
    pub fn initial_state(&self) -> &SystemState<S> {
        &self.initial
    }

    /// The fairness assumption `Q` under which the instance is claimed to
    /// converge.
    pub fn fairness(&self) -> &FairnessSpec {
        &self.fairness
    }

    /// The distributed function `f`.
    pub fn function(&self) -> &dyn DistributedFunction<S> {
        self.f.as_ref()
    }

    /// The objective `h`.
    pub fn objective(&self) -> &dyn ObjectiveFunction<S> {
        self.h.as_ref()
    }

    /// The group algorithm `R`.
    pub fn group_step(&self) -> &dyn GroupStep<S> {
        self.step.as_ref()
    }

    /// The relation `D` induced by `f` and `h`.
    pub fn relation(&self) -> RelationD<&dyn DistributedFunction<S>, &dyn ObjectiveFunction<S>> {
        RelationD::new(self.f.as_ref(), self.h.as_ref())
    }

    /// The multiset view of a positional state.
    pub fn multiset(&self, state: &[S]) -> Multiset<S> {
        state.iter().cloned().collect()
    }

    /// Borrowed multiset view of the initial state `S(0)`; computed once
    /// per instance and shared by every simulator's t0 setup.
    pub fn initial_multiset(&self) -> &Multiset<S> {
        self.initial_multiset
            .get_or_init(|| self.multiset(&self.initial))
    }

    /// The target multiset `S* = f(S(0))` — the conserved quantity of the
    /// conservation law and the state the system must reach and maintain.
    pub fn target(&self) -> Multiset<S> {
        self.target_ref().clone()
    }

    /// Borrowed view of the target multiset; computed once per instance
    /// (`f(S(0))` is constant) from the cached [`Self::initial_multiset`]
    /// and shared by every convergence check.
    pub fn target_ref(&self) -> &Multiset<S> {
        self.target
            .get_or_init(|| self.f.apply(self.initial_multiset()))
    }

    /// Returns `true` if `state` is optimal: its multiset equals the target
    /// `f(S(0))` (equivalently, by the conservation law, `S = f(S)`).
    pub fn is_converged(&self, state: &[S]) -> bool {
        self.multiset(state) == *self.target_ref()
    }

    /// The global objective value `h(S)` of a multiset view that the caller
    /// already maintains (see [`Self::apply_group_step_with`]).
    ///
    /// Because `h` folds the multiset in ascending value order, the value
    /// depends only on the multiset, not on how it was built — a simulator
    /// that maintains the multiset incrementally reproduces the exact `f64`
    /// trajectory of one that rebuilds it with [`Self::multiset`] every
    /// round.
    pub fn objective_of(&self, multiset: &Multiset<S>) -> f64 {
        self.h.eval(multiset)
    }

    /// Convergence check against a caller-maintained multiset view:
    /// equivalent to [`Self::is_converged`] on any positional state with the
    /// same multiset.
    pub fn is_converged_multiset(&self, multiset: &Multiset<S>) -> bool {
        *multiset == *self.target_ref()
    }

    /// Applies one collaborative step of `R` to the members of `group`
    /// (given as agent ids), writing the results back into `state`.  The
    /// returned [`StepOutcome`] says whether the group's multiset of states
    /// changed and whether any member moved.
    ///
    /// `group` lists distinct agent ids; a group of three or more members
    /// must list them in ascending order, as every partition producer does
    /// (`GroupIndex::group`, `EnvState::groups`, `Topology::components`).
    /// Pairs may come in either order.  Under that precondition the group
    /// is a contiguous run of `state` exactly when
    /// `last == first + len - 1`; a run is stepped in place, with no copy.
    /// Any other group is gathered into `scratch`, stepped there and
    /// scattered back only if it moved.
    ///
    /// `scratch`'s buffers keep their capacity across calls.  If `global`
    /// is given, it must be the multiset view of `state` *before* the step
    /// and is updated in place to the view after the step, letting a
    /// simulator maintain the whole-system multiset incrementally instead of
    /// rebuilding it (O(n log n)) every round.
    ///
    /// # Panics
    ///
    /// Panics if the group step returns a different number of states than
    /// the group has members, or if a group member index is out of range.
    /// Debug builds also panic on a group of three or more members that is
    /// not in ascending order, and on a `global` that holds fewer copies of
    /// a value than the step overwrote.
    pub fn apply_group_step_with(
        &self,
        state: &mut SystemState<S>,
        group: &[AgentId],
        rng: &mut dyn rand::RngCore,
        scratch: &mut StepScratch<S>,
        global: Option<&mut Multiset<S>>,
    ) -> StepOutcome {
        let (Some(first), Some(last)) = (group.first(), group.last()) else {
            return StepOutcome {
                multiset_changed: false,
                positionally_fixed: true,
            };
        };
        debug_assert!(
            group.len() <= 2 || group.windows(2).all(|w| w.first() < w.get(1)),
            "groups of three or more members must list their agent ids in ascending order"
        );
        let lo = first.index();
        let run = last.index() == lo + group.len() - 1;
        if !run {
            scratch.before.clear();
            scratch.before.extend(group.iter().map(|a| {
                state
                    .get(a.index())
                    .unwrap_or_else(|| panic!("agent {a} out of range"))
                    .clone()
            }));
        }
        let members = if run {
            state
                .get_mut(lo..=last.index())
                .unwrap_or_else(|| panic!("agent {last} out of range"))
        } else {
            scratch.before.as_mut_slice()
        };
        let mut members = GroupStates::new(members, &mut scratch.delta);
        self.step.step_in_place(&mut members, rng);
        let moved = members.moved();
        if moved && !run {
            // Every id was range-checked by the gather above.
            for (agent, value) in group.iter().zip(scratch.before.drain(..)) {
                if let Some(slot) = state.get_mut(agent.index()) {
                    *slot = value;
                }
            }
        }
        let multiset_changed = !scratch.delta.is_balanced();
        if let Some(ms) = global {
            for (v, c) in scratch.delta.iter_nonzero() {
                if c > 0 {
                    ms.insert_n(v.clone(), c as usize);
                } else {
                    let removed = ms.remove_n(v, c.unsigned_abs());
                    debug_assert_eq!(
                        removed,
                        c.unsigned_abs(),
                        "`global` held fewer {v:?} than the group it was stepped from"
                    );
                }
            }
        }
        StepOutcome {
            multiset_changed,
            positionally_fixed: !moved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConsensusFunction, FnGroupStep, SummationObjective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfsim_env::Topology;

    fn min_system(initial: Vec<i64>) -> SelfSimilarSystem<i64> {
        let n = initial.len();
        SelfSimilarSystem::new(
            "minimum",
            ConsensusFunction::new("min", |s: &Multiset<i64>| {
                s.min_value().copied().unwrap_or(0)
            }),
            SummationObjective::new("sum", |v: &i64| *v as f64),
            FnGroupStep::new(
                "adopt-min",
                |states: &[i64], _rng: &mut dyn rand::RngCore| {
                    let m = states.iter().copied().min().unwrap_or(0);
                    vec![m; states.len()]
                },
            ),
            initial,
            FairnessSpec::for_graph(&Topology::line(n)),
        )
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn target_is_f_of_initial_state() {
        let sys = min_system(vec![3, 5, 3, 7]);
        assert_eq!(sys.target(), [3, 3, 3, 3].into());
        assert_eq!(sys.agent_count(), 4);
        assert_eq!(sys.name(), "minimum");
    }

    #[test]
    fn target_is_computed_once_and_shared() {
        let sys = min_system(vec![3, 5, 3, 7]);
        let first = sys.target_ref() as *const Multiset<i64>;
        let second = sys.target_ref() as *const Multiset<i64>;
        assert_eq!(first, second, "target must be cached, not recomputed");
        assert_eq!(sys.target(), [3, 3, 3, 3].into());
        assert!(sys.is_converged(&[3, 3, 3, 3]));
    }

    #[test]
    fn convergence_and_conservation_checks() {
        let sys = min_system(vec![3, 5, 3, 7]);
        let conserves = |state: &[i64]| {
            sys.function()
                .conserves(sys.initial_multiset(), &sys.multiset(state))
        };
        assert!(!sys.is_converged(&[3, 5, 3, 7]));
        assert!(conserves(&[3, 5, 3, 7]));
        assert!(sys.is_converged(&[3, 3, 3, 3]));
        assert!(conserves(&[3, 3, 3, 3]));
        // A state with the minimum lost violates the conservation law.
        assert!(!conserves(&[4, 5, 4, 7]));
        assert_eq!(sys.objective_of(&sys.multiset(&[3, 5, 3, 7])), 18.0);
    }

    #[test]
    fn apply_group_step_updates_only_group_members() {
        let sys = min_system(vec![9, 5, 3, 7]);
        let mut state = sys.initial_state().clone();
        let mut scratch = StepScratch::new();
        let mut step = |state: &mut Vec<i64>, group: &[AgentId]| {
            sys.apply_group_step_with(state, group, &mut rng(), &mut scratch, None)
                .multiset_changed
        };
        let changed = step(&mut state, &[AgentId(0), AgentId(1)]);
        assert!(changed);
        assert_eq!(state, vec![5, 5, 3, 7]);
        // A singleton group can only idle under this R.
        let changed = step(&mut state, &[AgentId(3)]);
        assert!(!changed);
        assert_eq!(state, vec![5, 5, 3, 7]);
        // Empty groups are no-ops.
        assert!(!step(&mut state, &[]));
    }

    #[test]
    fn apply_partition_step_steps_every_group() {
        let sys = min_system(vec![9, 5, 3, 7]);
        let mut state = sys.initial_state().clone();
        let mut scratch = StepScratch::new();
        // One agent transition of the paper: every group takes one step.
        let mut transition = |state: &mut Vec<i64>, groups: &[Vec<AgentId>]| {
            let mut rng = rng();
            groups
                .iter()
                .filter(|group| {
                    sys.apply_group_step_with(state, group, &mut rng, &mut scratch, None)
                        .multiset_changed
                })
                .count()
        };
        let groups = vec![vec![AgentId(0), AgentId(1)], vec![AgentId(2), AgentId(3)]];
        let changed = transition(&mut state, &groups);
        assert_eq!(changed, 2);
        assert_eq!(state, vec![5, 5, 3, 3]);
        // One more whole-system step converges.
        let all = vec![vec![AgentId(0), AgentId(1), AgentId(2), AgentId(3)]];
        transition(&mut state, &all);
        assert!(sys.is_converged(&state));
    }

    #[test]
    fn scratch_step_matches_allocating_step_and_maintains_multiset() {
        let sys = min_system(vec![9, 5, 3, 7]);
        let mut state = sys.initial_state().clone();
        let mut global: Multiset<i64> = sys.multiset(&state);
        let mut scratch = StepScratch::new();
        let out = sys.apply_group_step_with(
            &mut state,
            &[AgentId(0), AgentId(1)],
            &mut rng(),
            &mut scratch,
            Some(&mut global),
        );
        assert!(out.multiset_changed);
        assert!(!out.positionally_fixed);
        assert_eq!(state, vec![5, 5, 3, 7]);
        assert_eq!(
            global,
            sys.multiset(&state),
            "incremental view tracks state"
        );
        assert_eq!(
            sys.objective_of(&global),
            sys.objective().eval(&sys.multiset(&state))
        );
        // A fixed group reports positionally_fixed and leaves the view alone.
        let out = sys.apply_group_step_with(
            &mut state,
            &[AgentId(2)],
            &mut rng(),
            &mut scratch,
            Some(&mut global),
        );
        assert!(!out.multiset_changed);
        assert!(out.positionally_fixed);
        assert_eq!(global, sys.multiset(&state));
        // Converge and check the multiset-view convergence test agrees.
        let all = vec![AgentId(0), AgentId(1), AgentId(2), AgentId(3)];
        sys.apply_group_step_with(
            &mut state,
            &all,
            &mut rng(),
            &mut scratch,
            Some(&mut global),
        );
        assert!(sys.is_converged(&state));
        assert!(sys.is_converged_multiset(&global));
        // Empty group short-circuits.
        let out = sys.apply_group_step_with(&mut state, &[], &mut rng(), &mut scratch, None);
        assert!(out.positionally_fixed && !out.multiset_changed);
    }

    #[test]
    fn relation_is_exposed() {
        let sys = min_system(vec![4, 2]);
        let d = sys.relation();
        assert!(d.relates(&[4, 2].into(), &[2, 2].into()));
        assert!(!d.relates(&[4, 2].into(), &[4, 4].into()));
    }

    #[test]
    #[should_panic(expected = "fairness spec is over")]
    fn mismatched_fairness_spec_is_rejected() {
        let _ = SelfSimilarSystem::new(
            "broken",
            ConsensusFunction::new("min", |s: &Multiset<i64>| {
                s.min_value().copied().unwrap_or(0)
            }),
            SummationObjective::new("sum", |v: &i64| *v as f64),
            crate::IdentityStep,
            vec![1, 2, 3],
            FairnessSpec::for_graph(&Topology::line(5)),
        );
    }

    #[test]
    fn gathered_groups_match_positional_step() {
        let sys = min_system(vec![9, 5, 3, 7]);
        let mut state = sys.initial_state().clone();
        let mut global = sys.multiset(&state);
        let mut scratch = StepScratch::new();
        // A descending pair and a gapped group both take the gather path.
        for group in [vec![AgentId(1), AgentId(0)], vec![AgentId(0), AgentId(3)]] {
            sys.apply_group_step_with(
                &mut state,
                &group,
                &mut rng(),
                &mut scratch,
                Some(&mut global),
            );
        }
        assert_eq!(state, vec![5, 5, 3, 5]);
        assert_eq!(global, sys.multiset(&state));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascending order")]
    fn unordered_group_that_looks_like_a_run_is_rejected() {
        // First and last are two apart over three members, but the middle
        // member is out of order: stepping `state[0..=2]` would be wrong.
        let sys = min_system(vec![9, 5, 3, 7]);
        let mut state = sys.initial_state().clone();
        let group = [AgentId(0), AgentId(3), AgentId(2)];
        sys.apply_group_step_with(
            &mut state,
            &group,
            &mut rng(),
            &mut StepScratch::new(),
            None,
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "held fewer")]
    fn global_that_drifted_from_state_is_rejected() {
        // `global` says {3, 5, 7, 9} but agent 1 holds 6: stepping the
        // pair {6, 3} overwrites a 6 that `global` does not have.
        let sys = min_system(vec![9, 6, 3, 7]);
        let mut state = sys.initial_state().clone();
        let mut global: Multiset<i64> = [9, 5, 3, 7].into();
        sys.apply_group_step_with(
            &mut state,
            &[AgentId(1), AgentId(2)],
            &mut rng(),
            &mut StepScratch::new(),
            Some(&mut global),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_group_member_panics() {
        let sys = min_system(vec![1, 2]);
        let mut state = sys.initial_state().clone();
        sys.apply_group_step_with(
            &mut state,
            &[AgentId(7)],
            &mut rng(),
            &mut StepScratch::new(),
            None,
        );
    }
}
