//! The constrained-optimisation relation `D` of §3.6.

use selfsim_multiset::Multiset;

use crate::{DistributedFunction, ObjectiveFunction};

/// The relation `D` that every concrete group algorithm `R` must refine:
///
/// ```text
/// S_B ▷ S'_B  ≡  f(S_B) = f(S'_B)  ∧  h(S_B) > h(S'_B)
/// S_B D S'_B  ≡  (S_B ▷ S'_B) ∨ (S_B = S'_B)
/// ```
///
/// `D` captures "groups of agents take optimisation steps in which `f` is
/// conserved and `h` decreases" and is the pivot of the whole methodology:
/// the proof obligations of §3.7 are stated in terms of `D`, and the
/// correctness theorem says any `R` refining `D` (under an escapable-states
/// fairness assumption) computes `f(S(0))`.
pub struct RelationD<F, H> {
    f: F,
    h: H,
}

impl<F, H> RelationD<F, H> {
    /// Packages a distributed function and an objective into the relation
    /// they induce.
    pub fn new(f: F, h: H) -> Self {
        RelationD { f, h }
    }

    /// The conserved function `f`.
    pub fn function(&self) -> &F {
        &self.f
    }

    /// The objective `h`.
    pub fn objective(&self) -> &H {
        &self.h
    }
}

impl<F, H> RelationD<F, H> {
    /// The strict part `▷`: `f` conserved and `h` strictly decreased.
    pub fn strictly_improves<S>(&self, before: &Multiset<S>, after: &Multiset<S>) -> bool
    where
        S: Ord + Clone,
        F: DistributedFunction<S>,
        H: ObjectiveFunction<S>,
    {
        self.f.conserves(before, after) && self.h.strictly_decreases(before, after)
    }

    /// The full relation `D`: either a strict improvement or no change.
    pub fn relates<S>(&self, before: &Multiset<S>, after: &Multiset<S>) -> bool
    where
        S: Ord + Clone,
        F: DistributedFunction<S>,
        H: ObjectiveFunction<S>,
    {
        before == after || self.strictly_improves(before, after)
    }

    /// Explains why `D` does *not* relate `before` to `after`; returns
    /// `None` when it does.  Used by the proof-obligation checkers to
    /// produce actionable error messages.
    pub fn explain_violation<S>(&self, before: &Multiset<S>, after: &Multiset<S>) -> Option<String>
    where
        S: Ord + Clone + std::fmt::Debug,
        F: DistributedFunction<S>,
        H: ObjectiveFunction<S>,
    {
        if self.relates(before, after) {
            return None;
        }
        if !self.f.conserves(before, after) {
            Some(format!(
                "step does not conserve `{}`: f(before) = {:?}, f(after) = {:?}",
                self.f.name(),
                self.f.apply(before),
                self.f.apply(after),
            ))
        } else {
            Some(format!(
                "step does not strictly decrease `{}`: h(before) = {}, h(after) = {} (states differ)",
                self.h.name(),
                self.h.eval(before),
                self.h.eval(after),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConsensusFunction, SummationObjective};

    #[allow(
        clippy::type_complexity,
        reason = "spelling the full generic relation type out is the point of this helper"
    )]
    fn min_relation() -> RelationD<
        ConsensusFunction<i64, impl Fn(&Multiset<i64>) -> i64>,
        SummationObjective<i64, impl Fn(&i64) -> f64>,
    > {
        RelationD::new(
            ConsensusFunction::new("min", |s: &Multiset<i64>| {
                s.min_value().copied().unwrap_or(0)
            }),
            SummationObjective::new("sum", |v: &i64| *v as f64),
        )
    }

    #[test]
    fn identity_steps_are_related() {
        let d = min_relation();
        let s: Multiset<i64> = [3, 5].into();
        assert!(d.relates(&s, &s));
        assert!(!d.strictly_improves(&s, &s));
    }

    #[test]
    fn conserving_improving_steps_are_related() {
        let d = min_relation();
        let before: Multiset<i64> = [3, 5, 7].into();
        let after: Multiset<i64> = [3, 3, 5].into();
        assert!(d.strictly_improves(&before, &after));
        assert!(d.relates(&before, &after));
        assert!(d.explain_violation(&before, &after).is_none());
    }

    #[test]
    fn non_conserving_steps_are_rejected() {
        let d = min_relation();
        let before: Multiset<i64> = [3, 5].into();
        let after: Multiset<i64> = [4, 4].into(); // min changed from 3 to 4
        assert!(!d.relates(&before, &after));
        let why = d
            .explain_violation(&before, &after)
            .expect("the step is rejected");
        assert!(why.contains("conserve"));
    }

    #[test]
    fn non_improving_changes_are_rejected() {
        let d = min_relation();
        let before: Multiset<i64> = [3, 5].into();
        let after: Multiset<i64> = [3, 6].into(); // conserves min, increases sum
        assert!(!d.relates(&before, &after));
        let why = d
            .explain_violation(&before, &after)
            .expect("the step is rejected");
        assert!(why.contains("strictly decrease"));
    }

    #[test]
    fn accessors_expose_components() {
        let d = min_relation();
        assert_eq!(d.function().name(), "min");
        assert_eq!(d.objective().name(), "sum");
    }
}
