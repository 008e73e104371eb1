//! Group transition relations `R` — the concrete algorithms executed by
//! groups of communicating agents.

use selfsim_multiset::SignedCounts;

/// The states of one group's members, borrowed for one in-place step of `R`.
///
/// Reads go through [`as_slice`](Self::as_slice); the only write is
/// [`set`](Self::set), which records every change in a signed multiset
/// delta as it writes it.  A group step therefore cannot change a state
/// without the change being accounted for: after the step,
/// [`delta`](Self::delta) is `multiset(after) − multiset(before)` and
/// [`moved`](Self::moved) says whether any member's state changed.
///
/// An integer step whose writes all lie in a range it knows can ask for a
/// value window over that range first
/// ([`open_window`](Self::open_window)) and write through
/// [`set_windowed`](Self::set_windowed), which counts a value
/// inside the window into its slot of the delta directly instead of
/// searching the delta for it.  The delta, and so every caller's view of
/// the step, is the same either way.
pub struct GroupStates<'a, S: Ord> {
    states: &'a mut [S],
    delta: &'a mut SignedCounts<S>,
    moved: bool,
}

impl<'a, S: Ord + Clone> GroupStates<'a, S> {
    /// Borrows `states` for one step, accounting changes in `delta` (which
    /// is cleared first).
    pub fn new(states: &'a mut [S], delta: &'a mut SignedCounts<S>) -> Self {
        delta.clear();
        GroupStates {
            states,
            delta,
            moved: false,
        }
    }

    /// The members' current states, in member order.
    pub fn as_slice(&self) -> &[S] {
        self.states
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the group has no members.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Sets member `k`'s state to `value`.  Writing the state a member
    /// already holds is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a member index (`k >= self.len()`).
    #[inline]
    pub fn set(&mut self, k: usize, value: S) {
        let slot = self
            .states
            .get_mut(k)
            .expect("GroupStates::set: member index out of range");
        if *slot != value {
            self.delta.add(std::mem::replace(slot, value), -1);
            self.delta.add(slot.clone(), 1);
            self.moved = true;
        }
    }

    /// `true` if some member's state changed since [`new`](Self::new).
    pub fn moved(&self) -> bool {
        self.moved
    }

    /// The signed change of the group's multiset since [`new`](Self::new):
    /// `+1` per value written, `-1` per value overwritten.
    pub fn delta(&self) -> &SignedCounts<S> {
        self.delta
    }
}

impl GroupStates<'_, i64> {
    /// Opens a value window over `lo..=hi` in the delta if no member has
    /// moved yet and the range holds at most as many values as the
    /// group has members, so that filling and folding the window cost no
    /// more than one pass over the members.  Returns whether it opened.
    pub fn open_window(&mut self, lo: i64, hi: i64) -> bool {
        self.delta.open_window(lo, hi, self.states.len())
    }

    /// [`set`](Self::set), counting a value inside the open window into
    /// its slot of the delta directly.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a member index (`k >= self.len()`).
    #[inline]
    pub fn set_windowed(&mut self, k: usize, value: i64) {
        let slot = self
            .states
            .get_mut(k)
            .expect("GroupStates::set_windowed: member index out of range");
        if *slot != value {
            self.delta.add_windowed(std::mem::replace(slot, value), -1);
            self.delta.add_windowed(value, 1);
            self.moved = true;
        }
    }
}

/// One collaborative step of a group of agents — the executable form of the
/// paper's relation `R`.
///
/// A step receives the current states of the members of one group (one slice
/// entry per member, in a fixed order chosen by the caller) and returns
/// their new states, **in the same order and of the same length** — each
/// position corresponds to the same agent before and after.  Returning the
/// input unchanged is always allowed (`R` is reflexive: a group may idle).
///
/// The multiset view the paper works with is obtained by forgetting the
/// positions; the simulators need the positional form to write the new
/// states back to the right agents.
///
/// The engine steps groups through [`step_in_place`](Self::step_in_place),
/// which by default runs [`step`](Self::step) and writes its result back.
/// A step whose rule is cheap next to a copy of the group (the `minimum`
/// steps of `selfsim-algorithms`) overrides `step_in_place` instead and
/// makes `step` a copying adapter over it.
pub trait GroupStep<S: Ord + Clone> {
    /// Performs one collaborative step for a group currently holding
    /// `states`.  Implementations may use `rng` for randomised strategies.
    fn step(&self, states: &[S], rng: &mut dyn rand::RngCore) -> Vec<S>;

    /// Performs the same step as [`step`](Self::step) on `group` in place.
    ///
    /// It must draw from `rng` exactly as `step` does, and leave `group`
    /// holding what `step` would have returned.
    ///
    /// # Panics
    ///
    /// The default panics if `step` returns a different number of states
    /// than the group has members.
    fn step_in_place(&self, group: &mut GroupStates<'_, S>, rng: &mut dyn rand::RngCore) {
        let after = self.step(group.as_slice(), rng);
        assert_eq!(
            group.len(),
            after.len(),
            "group step `{}` changed the group size",
            self.name()
        );
        for (k, value) in after.into_iter().enumerate() {
            group.set(k, value);
        }
    }

    /// A short name used in reports and error messages.
    fn name(&self) -> &str {
        "R"
    }
}

impl<S: Ord + Clone, R: GroupStep<S> + ?Sized> GroupStep<S> for &R {
    fn step(&self, states: &[S], rng: &mut dyn rand::RngCore) -> Vec<S> {
        (**self).step(states, rng)
    }
    fn step_in_place(&self, group: &mut GroupStates<'_, S>, rng: &mut dyn rand::RngCore) {
        (**self).step_in_place(group, rng)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A group step defined by a closure.
pub struct FnGroupStep<S, R> {
    name: String,
    func: R,
    _marker: std::marker::PhantomData<fn(&S)>,
}

impl<S, R> FnGroupStep<S, R>
where
    S: Ord + Clone,
    R: Fn(&[S], &mut dyn rand::RngCore) -> Vec<S>,
{
    /// Wraps `func` as a [`GroupStep`] named `name`.
    pub fn new(name: impl Into<String>, func: R) -> Self {
        FnGroupStep {
            name: name.into(),
            func,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S, R> GroupStep<S> for FnGroupStep<S, R>
where
    S: Ord + Clone,
    R: Fn(&[S], &mut dyn rand::RngCore) -> Vec<S>,
{
    fn step(&self, states: &[S], rng: &mut dyn rand::RngCore) -> Vec<S> {
        (self.func)(states, rng)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// The trivial group step that never changes anything — the reflexive part
/// of `R` on its own.  Useful as a baseline and in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityStep;

impl<S: Ord + Clone> GroupStep<S> for IdentityStep {
    fn step(&self, states: &[S], _rng: &mut dyn rand::RngCore) -> Vec<S> {
        states.to_vec()
    }

    fn name(&self) -> &str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(9)
    }

    /// All agents adopt the group minimum in one step.
    fn min_step() -> FnGroupStep<i64, impl Fn(&[i64], &mut dyn rand::RngCore) -> Vec<i64>> {
        FnGroupStep::new(
            "adopt-min",
            |states: &[i64], _rng: &mut dyn rand::RngCore| {
                let m = states.iter().copied().min().unwrap_or(0);
                vec![m; states.len()]
            },
        )
    }

    #[test]
    fn identity_step_changes_nothing() {
        let s = vec![4i64, 2, 9];
        let out = IdentityStep.step(&s, &mut rng());
        assert_eq!(out, s);
        assert_eq!(GroupStep::<i64>::name(&IdentityStep), "identity");
    }

    #[test]
    fn fn_group_step_applies_closure() {
        let step = min_step();
        assert_eq!(step.step(&[5, 3, 9], &mut rng()), vec![3, 3, 3]);
        assert_eq!(step.name(), "adopt-min");
    }

    #[test]
    fn group_states_account_every_write() {
        let mut states = vec![5i64, 3, 9];
        let mut delta = SignedCounts::new();
        delta.add(42, 1); // stale entries are cleared by `new`
        let mut group = GroupStates::new(&mut states, &mut delta);
        assert!(!group.moved() && group.delta().is_balanced());
        group.set(1, 3); // same value: no change
        assert!(!group.moved());
        group.set(0, 9);
        group.set(2, 5); // a swap keeps the multiset
        assert!(group.moved() && group.delta().is_balanced());
        group.set(0, 3);
        let nz: Vec<(i64, isize)> = group.delta().iter_nonzero().map(|(v, c)| (*v, c)).collect();
        assert_eq!(nz, vec![(3, 1), (9, -1)]);
        assert_eq!(group.as_slice(), &[3, 3, 5]);
        assert_eq!(states, vec![3, 3, 5]);
    }

    #[test]
    fn default_step_in_place_writes_the_step_result() {
        let mut states = vec![5i64, 3, 9];
        let mut delta = SignedCounts::new();
        let mut group = GroupStates::new(&mut states, &mut delta);
        min_step().step_in_place(&mut group, &mut rng());
        assert!(group.moved() && !group.delta().is_balanced());
        assert_eq!(states, vec![3, 3, 3]);
        let mut group = GroupStates::new(&mut states, &mut delta);
        IdentityStep.step_in_place(&mut group, &mut rng());
        assert!(!group.moved());
    }

    #[test]
    #[should_panic(expected = "changed the group size")]
    fn default_step_in_place_rejects_size_changes() {
        let buggy = FnGroupStep::new(
            "drop-one",
            |states: &[i64], _rng: &mut dyn rand::RngCore| states[1..].to_vec(),
        );
        let mut states = vec![5i64, 3];
        let mut delta = SignedCounts::new();
        buggy.step_in_place(&mut GroupStates::new(&mut states, &mut delta), &mut rng());
    }

    #[test]
    fn reference_to_step_is_also_a_step() {
        let step = min_step();
        let via_ref: &dyn GroupStep<i64> = &step;
        assert_eq!(via_ref.step(&[2, 8], &mut rng()), vec![2, 2]);
        let double_ref = &&step;
        assert_eq!(double_ref.step(&[2, 8], &mut rng()), vec![2, 2]);
    }
}
