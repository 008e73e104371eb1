//! Temporal formulas over finite traces.

use std::fmt;
use std::rc::Rc;

use crate::Trace;

/// The result of evaluating a formula on a trace, with an explanation of the
/// first violation when it does not hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The formula holds on the trace.
    Holds,
    /// The formula is violated; the payload describes where and why.
    Violated {
        /// Position in the trace where the violation was detected.
        position: usize,
        /// Human-readable explanation.
        reason: String,
    },
}

impl Verdict {
    /// Returns `true` if the verdict is [`Verdict::Holds`].
    pub fn is_holds(&self) -> bool {
        matches!(self, Verdict::Holds)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => write!(f, "holds"),
            Verdict::Violated { position, reason } => {
                write!(f, "violated at position {position}: {reason}")
            }
        }
    }
}

type Pred<S> = Rc<dyn Fn(&S) -> bool>;

/// A temporal formula over states of type `S`, evaluated on finite traces.
///
/// Formulas are reference-counted trees of closures; cloning is cheap.  The
/// operators mirror those used in the paper: `□` ([`Formula::always`]),
/// `◇` ([`Formula::eventually`]), `□◇` ([`Formula::always_eventually`]),
/// `⇝` ([`Formula::leads_to`]) and `stable` ([`Formula::stable`]).
pub enum Formula<S> {
    /// An atomic state predicate with a label used in violation reports.
    Atom(String, Pred<S>),
    /// Negation.
    Not(Box<Formula<S>>),
    /// Conjunction.
    And(Box<Formula<S>>, Box<Formula<S>>),
    /// Disjunction.
    Or(Box<Formula<S>>, Box<Formula<S>>),
    /// Implication.
    Implies(Box<Formula<S>>, Box<Formula<S>>),
    /// `□ φ`: φ holds at every position of the trace suffix.
    Always(Box<Formula<S>>),
    /// `◇ φ`: φ holds at some position of the trace suffix.
    Eventually(Box<Formula<S>>),
    /// `□◇ φ` with a tolerance: from every position (except the last
    /// `tolerance` positions), φ holds at some later-or-equal position.
    AlwaysEventually {
        /// The recurring formula.
        inner: Box<Formula<S>>,
        /// Number of trailing positions exempted from the recurrence
        /// requirement (finite traces necessarily truncate the future).
        tolerance: usize,
    },
    /// `φ ⇝ ψ`: whenever φ holds, ψ holds then or at some later position.
    LeadsTo(Box<Formula<S>>, Box<Formula<S>>),
}

impl<S> Clone for Formula<S> {
    fn clone(&self) -> Self {
        match self {
            Formula::Atom(label, pred) => Formula::Atom(label.clone(), Rc::clone(pred)),
            Formula::Not(x) => Formula::Not(x.clone()),
            Formula::And(a, b) => Formula::And(a.clone(), b.clone()),
            Formula::Or(a, b) => Formula::Or(a.clone(), b.clone()),
            Formula::Implies(a, b) => Formula::Implies(a.clone(), b.clone()),
            Formula::Always(x) => Formula::Always(x.clone()),
            Formula::Eventually(x) => Formula::Eventually(x.clone()),
            Formula::AlwaysEventually { inner, tolerance } => Formula::AlwaysEventually {
                inner: inner.clone(),
                tolerance: *tolerance,
            },
            Formula::LeadsTo(a, b) => Formula::LeadsTo(a.clone(), b.clone()),
        }
    }
}

impl<S> Formula<S> {
    /// An atomic predicate; `label` appears in violation messages.
    pub fn atom(label: impl Into<String>, pred: impl Fn(&S) -> bool + 'static) -> Self {
        Formula::Atom(label.into(), Rc::new(pred))
    }

    /// Logical negation.
    #[allow(
        clippy::should_implement_trait,
        reason = "a combinator-DSL constructor like `and`/`or`, not an operator: \
                  `std::ops::Not` would take `self` by value and break the symmetry"
    )]
    pub fn not(inner: Formula<S>) -> Self {
        Formula::Not(Box::new(inner))
    }

    /// Logical conjunction.
    pub fn and(lhs: Formula<S>, rhs: Formula<S>) -> Self {
        Formula::And(Box::new(lhs), Box::new(rhs))
    }

    /// Logical disjunction.
    pub fn or(lhs: Formula<S>, rhs: Formula<S>) -> Self {
        Formula::Or(Box::new(lhs), Box::new(rhs))
    }

    /// Logical implication.
    pub fn implies(lhs: Formula<S>, rhs: Formula<S>) -> Self {
        Formula::Implies(Box::new(lhs), Box::new(rhs))
    }

    /// `□ φ` — henceforth.
    pub fn always(inner: Formula<S>) -> Self {
        Formula::Always(Box::new(inner))
    }

    /// `◇ φ` — eventually.
    pub fn eventually(inner: Formula<S>) -> Self {
        Formula::Eventually(Box::new(inner))
    }

    /// `□◇ φ` — infinitely often, read on a finite trace as "recurs until
    /// the last `tolerance` states".
    pub fn always_eventually(inner: Formula<S>, tolerance: usize) -> Self {
        Formula::AlwaysEventually {
            inner: Box::new(inner),
            tolerance,
        }
    }

    /// `φ ⇝ ψ` — leads-to: `□(φ ⇒ ◇ψ)`.
    pub fn leads_to(antecedent: Formula<S>, consequent: Formula<S>) -> Self {
        Formula::LeadsTo(Box::new(antecedent), Box::new(consequent))
    }

    /// `stable P` — once `P` holds it holds forever: `□(P ⇒ □P)`.
    pub fn stable(pred: impl Fn(&S) -> bool + 'static) -> Self {
        let atom = Formula::atom("stable-predicate", pred);
        Formula::always(Formula::implies(atom.clone(), Formula::always(atom)))
    }

    /// Convenience: `◇□ φ` — eventually forever (the shape of the paper's
    /// problem statement (3)).
    pub fn eventually_always(inner: Formula<S>) -> Self {
        Formula::eventually(Formula::always(inner))
    }

    /// Evaluates the formula on the whole trace (position 0).
    pub fn holds(&self, trace: &Trace<S>) -> bool {
        self.check(trace).is_holds()
    }

    /// Evaluates the formula on the whole trace, returning an explanation of
    /// the first violation if it does not hold.
    pub fn check(&self, trace: &Trace<S>) -> Verdict {
        self.check_at(trace, 0)
    }

    /// Evaluates the formula on the suffix of `trace` starting at `pos`.
    pub fn check_at(&self, trace: &Trace<S>, pos: usize) -> Verdict {
        let n = trace.len();
        match self {
            Formula::Atom(label, pred) => match trace.get(pos) {
                Some(s) if pred(s) => Verdict::Holds,
                Some(_) => Verdict::Violated {
                    position: pos,
                    reason: format!("atom `{label}` is false"),
                },
                None => Verdict::Violated {
                    position: pos,
                    reason: format!("atom `{label}` evaluated past the end of the trace"),
                },
            },
            Formula::Not(inner) => match inner.check_at(trace, pos) {
                Verdict::Holds => Verdict::Violated {
                    position: pos,
                    reason: "negated formula holds".to_string(),
                },
                Verdict::Violated { .. } => Verdict::Holds,
            },
            Formula::And(lhs, rhs) => match lhs.check_at(trace, pos) {
                Verdict::Holds => rhs.check_at(trace, pos),
                violated => violated,
            },
            Formula::Or(lhs, rhs) => match lhs.check_at(trace, pos) {
                Verdict::Holds => Verdict::Holds,
                _ => rhs.check_at(trace, pos),
            },
            Formula::Implies(lhs, rhs) => match lhs.check_at(trace, pos) {
                Verdict::Holds => rhs.check_at(trace, pos),
                Verdict::Violated { .. } => Verdict::Holds,
            },
            Formula::Always(inner) => {
                for i in pos..n {
                    if let Verdict::Violated { position, reason } = inner.check_at(trace, i) {
                        return Verdict::Violated {
                            position,
                            reason: format!("always: {reason}"),
                        };
                    }
                }
                Verdict::Holds
            }
            Formula::Eventually(inner) => {
                for i in pos..n {
                    if inner.check_at(trace, i).is_holds() {
                        return Verdict::Holds;
                    }
                }
                Verdict::Violated {
                    position: pos,
                    reason: "eventually: no position satisfies the inner formula".to_string(),
                }
            }
            Formula::AlwaysEventually { inner, tolerance } => {
                let limit = n.saturating_sub(*tolerance);
                for i in pos..limit {
                    let mut found = false;
                    for j in i..n {
                        if inner.check_at(trace, j).is_holds() {
                            found = true;
                            break;
                        }
                    }
                    if !found {
                        return Verdict::Violated {
                            position: i,
                            reason:
                                "always-eventually: inner formula never recurs after this position"
                                    .to_string(),
                        };
                    }
                }
                Verdict::Holds
            }
            Formula::LeadsTo(antecedent, consequent) => {
                for i in pos..n {
                    if antecedent.check_at(trace, i).is_holds() {
                        let mut found = false;
                        for j in i..n {
                            if consequent.check_at(trace, j).is_holds() {
                                found = true;
                                break;
                            }
                        }
                        if !found {
                            return Verdict::Violated {
                                position: i,
                                reason: "leads-to: antecedent holds but consequent never follows"
                                    .to_string(),
                            };
                        }
                    }
                }
                Verdict::Holds
            }
        }
    }
}

impl<S> fmt::Debug for Formula<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(label, _) => write!(f, "atom({label})"),
            Formula::Not(x) => write!(f, "¬{x:?}"),
            Formula::And(a, b) => write!(f, "({a:?} ∧ {b:?})"),
            Formula::Or(a, b) => write!(f, "({a:?} ∨ {b:?})"),
            Formula::Implies(a, b) => write!(f, "({a:?} ⇒ {b:?})"),
            Formula::Always(x) => write!(f, "□{x:?}"),
            Formula::Eventually(x) => write!(f, "◇{x:?}"),
            Formula::AlwaysEventually { inner, tolerance } => {
                write!(f, "□◇[tol={tolerance}]{inner:?}")
            }
            Formula::LeadsTo(a, b) => write!(f, "({a:?} ⇝ {b:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq(v: i32) -> Formula<i32> {
        Formula::atom(format!("x = {v}"), move |s: &i32| *s == v)
    }

    fn ge(v: i32) -> Formula<i32> {
        Formula::atom(format!("x >= {v}"), move |s: &i32| *s >= v)
    }

    #[test]
    fn atom_checks_single_position() {
        let t = Trace::from_states(vec![1, 2, 3]);
        assert!(eq(1).check_at(&t, 0).is_holds());
        assert!(!eq(1).check_at(&t, 1).is_holds());
        assert!(!eq(1).check_at(&t, 99).is_holds());
    }

    #[test]
    fn always_requires_all_positions() {
        let t = Trace::from_states(vec![2, 3, 4]);
        assert!(Formula::always(ge(2)).holds(&t));
        assert!(!Formula::always(ge(3)).holds(&t));
    }

    #[test]
    fn always_on_empty_trace_holds_vacuously() {
        let t: Trace<i32> = Trace::new();
        assert!(Formula::always(eq(0)).holds(&t));
        assert!(!Formula::eventually(eq(0)).holds(&t));
    }

    #[test]
    fn eventually_finds_later_positions() {
        let t = Trace::from_states(vec![0, 1, 5]);
        assert!(Formula::eventually(eq(5)).holds(&t));
        assert!(!Formula::eventually(eq(7)).holds(&t));
    }

    #[test]
    fn eventually_always_matches_convergence() {
        let t = Trace::from_states(vec![5, 4, 3, 3, 3]);
        assert!(Formula::eventually_always(eq(3)).holds(&t));
        let t2 = Trace::from_states(vec![5, 3, 4, 3]);
        // 3 appears but the trace does not *end* in a suffix of 3s of length > 1
        // starting where always begins... actually [3] suffix at last position
        // satisfies always(eq(3)).
        assert!(Formula::eventually_always(eq(3)).holds(&t2));
        let t3 = Trace::from_states(vec![5, 3, 4]);
        assert!(!Formula::eventually_always(eq(3)).holds(&t3));
    }

    #[test]
    fn stable_detects_violations() {
        let good = Trace::from_states(vec![1, 2, 3, 3, 3]);
        assert!(Formula::stable(|s: &i32| *s == 3).holds(&good));
        let bad = Trace::from_states(vec![1, 3, 2, 3]);
        assert!(!Formula::stable(|s: &i32| *s == 3).holds(&bad));
    }

    #[test]
    fn stable_of_never_true_predicate_holds() {
        let t = Trace::from_states(vec![1, 2, 1]);
        assert!(Formula::stable(|s: &i32| *s == 9).holds(&t));
    }

    #[test]
    fn leads_to_requires_consequent_after_antecedent() {
        let t = Trace::from_states(vec![0, 1, 0, 2]);
        // every 1 is eventually followed by a 2
        assert!(Formula::leads_to(eq(1), eq(2)).holds(&t));
        // every 0 is eventually followed by a 2 (the last 0 at index 2 sees 2 at 3)
        assert!(Formula::leads_to(eq(0), eq(2)).holds(&t));
        // every 2 is followed by a 1: fails at the final 2
        let v = Formula::leads_to(eq(2), eq(1)).check(&t);
        assert!(!v.is_holds());
        assert!(matches!(v, Verdict::Violated { position: 3, .. }));
    }

    #[test]
    fn leads_to_is_vacuous_when_antecedent_never_holds() {
        let t = Trace::from_states(vec![0, 0]);
        assert!(Formula::leads_to(eq(9), eq(1)).holds(&t));
    }

    #[test]
    fn always_eventually_with_tolerance() {
        // 1 recurs except in the last two states.
        let t = Trace::from_states(vec![1, 0, 1, 0, 0]);
        assert!(!Formula::always_eventually(eq(1), 0).holds(&t));
        assert!(Formula::always_eventually(eq(1), 2).holds(&t));
    }

    #[test]
    fn boolean_connectives() {
        let t = Trace::from_states(vec![2]);
        assert!(Formula::and(ge(1), ge(2)).holds(&t));
        assert!(!Formula::and(ge(1), ge(3)).holds(&t));
        assert!(Formula::or(ge(3), ge(1)).holds(&t));
        assert!(!Formula::or(ge(3), ge(4)).holds(&t));
        assert!(Formula::implies(ge(3), ge(4)).holds(&t)); // vacuous
        assert!(Formula::implies(ge(1), ge(2)).holds(&t));
        assert!(!Formula::implies(ge(1), ge(3)).holds(&t));
        assert!(Formula::not(ge(3)).holds(&t));
        assert!(!Formula::not(ge(2)).holds(&t));
    }

    #[test]
    fn verdict_reports_position_and_reason() {
        let t = Trace::from_states(vec![3, 3, 1]);
        let v = Formula::always(ge(2)).check(&t);
        match v {
            Verdict::Violated { position, reason } => {
                assert_eq!(position, 2);
                assert!(reason.contains("always"));
            }
            Verdict::Holds => panic!("expected violation"),
        }
        assert!(format!("{}", Formula::always(ge(2)).check(&t)).contains("violated"));
    }

    #[test]
    fn debug_rendering_mentions_operators() {
        let f = Formula::always(Formula::eventually(eq(1)));
        let s = format!("{f:?}");
        assert!(s.contains('□') && s.contains('◇'));
    }
}
