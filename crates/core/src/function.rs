//! Distributed functions `f` over multisets of agent states, and the
//! idempotence / super-idempotence checks of §3.4.

use selfsim_multiset::Multiset;

/// A distributed function `f` from multisets of agent states to multisets of
/// agent states.
///
/// The problem specification of §3.1 asks the agents to reach and maintain
/// `S = f(S(0))`.  `f` must be *idempotent* (`f(f(S)) = f(S)`), and for the
/// self-similar methodology to apply it must be **super-idempotent**:
/// `f(X ⊎ Y) = f(f(X) ⊎ Y)` for all multisets `X`, `Y` (§3.4).  The
/// cardinality of `f(S)` must equal the cardinality of `S` — `f` reassigns
/// values to the same number of agents, it never adds or removes agents.
pub trait DistributedFunction<S: Ord + Clone> {
    /// Applies the function to a multiset of agent states.
    fn apply(&self, states: &Multiset<S>) -> Multiset<S>;

    /// A short name used in reports and error messages.
    fn name(&self) -> &str {
        "f"
    }

    /// Returns `true` if two multisets have the same image under `f` —
    /// i.e. they satisfy the conservation law relative to each other.
    fn conserves(&self, before: &Multiset<S>, after: &Multiset<S>) -> bool {
        self.apply(before) == self.apply(after)
    }
}

impl<S: Ord + Clone, F: DistributedFunction<S> + ?Sized> DistributedFunction<S> for &F {
    fn apply(&self, states: &Multiset<S>) -> Multiset<S> {
        (**self).apply(states)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A distributed function defined by an arbitrary closure over the whole
/// multiset.
///
/// Every `f` that is not a plain [`ConsensusFunction`] summary takes this
/// form (sorting, sum concentration, the convex hull, the `k` smallest
/// values), as does the naive circumscribing-circle function the paper
/// uses as a counterexample.
pub struct FnDistributedFunction<S, F> {
    name: String,
    func: F,
    _marker: std::marker::PhantomData<fn(&S)>,
}

impl<S, F> FnDistributedFunction<S, F>
where
    S: Ord + Clone,
    F: Fn(&Multiset<S>) -> Multiset<S>,
{
    /// Wraps `func` as a [`DistributedFunction`] named `name`.
    pub fn new(name: impl Into<String>, func: F) -> Self {
        FnDistributedFunction {
            name: name.into(),
            func,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S, F> DistributedFunction<S> for FnDistributedFunction<S, F>
where
    S: Ord + Clone,
    F: Fn(&Multiset<S>) -> Multiset<S>,
{
    fn apply(&self, states: &Multiset<S>) -> Multiset<S> {
        (self.func)(states)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A consensus-shaped distributed function: every agent ends up holding the
/// same summary value computed from the whole multiset.
///
/// `f(X) = { summary(X), summary(X), …  }` with the same cardinality as `X`.
/// When the summary only depends on the *set* of values in a way compatible
/// with pairwise combination (minimum, maximum, boolean or/and, set union of
/// knowledge, …) the resulting function is super-idempotent; the checkers in
/// this module verify it for concrete instances.
pub struct ConsensusFunction<S, G> {
    name: String,
    summary: G,
    _marker: std::marker::PhantomData<fn(&S)>,
}

impl<S, G> ConsensusFunction<S, G>
where
    S: Ord + Clone,
    G: Fn(&Multiset<S>) -> S,
{
    /// Creates a consensus function from a summary of the multiset.
    pub fn new(name: impl Into<String>, summary: G) -> Self {
        ConsensusFunction {
            name: name.into(),
            summary,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S, G> DistributedFunction<S> for ConsensusFunction<S, G>
where
    S: Ord + Clone,
    G: Fn(&Multiset<S>) -> S,
{
    fn apply(&self, states: &Multiset<S>) -> Multiset<S> {
        if states.is_empty() {
            return Multiset::new();
        }
        states.fill_with((self.summary)(states))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Checks idempotence `f(f(X)) = f(X)` on every sample multiset; returns the
/// first counterexample if one exists.
#[allow(
    clippy::type_complexity,
    clippy::result_large_err,
    reason = "the Err tuple is the counterexample the proof-obligation callers pattern-match \
              on; boxing or naming it would bury the diagnostic payload"
)]
pub fn check_idempotent<S: Ord + Clone>(
    f: &impl DistributedFunction<S>,
    samples: &[Multiset<S>],
) -> Result<(), (Multiset<S>, Multiset<S>, Multiset<S>)> {
    for x in samples {
        let fx = f.apply(x);
        let ffx = f.apply(&fx);
        if fx != ffx {
            return Err((x.clone(), fx, ffx));
        }
    }
    Ok(())
}

/// Checks the super-idempotence definition `f(X ⊎ Y) = f(f(X) ⊎ Y)` on all
/// pairs of sample multisets; returns the first counterexample `(X, Y)` if
/// one exists.
pub fn check_super_idempotent<S: Ord + Clone>(
    f: &impl DistributedFunction<S>,
    samples: &[Multiset<S>],
) -> Result<(), (Multiset<S>, Multiset<S>)> {
    for x in samples {
        let fx = f.apply(x);
        for y in samples {
            let direct = f.apply(&x.union(y));
            let via_fx = f.apply(&fx.union(y));
            if direct != via_fx {
                return Err((x.clone(), y.clone()));
            }
        }
    }
    Ok(())
}

/// Checks the single-element criterion (6): `f(X ⊎ {v}) = f(f(X) ⊎ {v})`
/// for every sample multiset `X` and sample element `v`.  Together with
/// idempotence this is equivalent to full super-idempotence (the paper's
/// second theorem of §3.4) but is much cheaper to test.
pub fn check_super_idempotent_single_element<S: Ord + Clone>(
    f: &impl DistributedFunction<S>,
    samples: &[Multiset<S>],
    elements: &[S],
) -> Result<(), (Multiset<S>, S)> {
    for x in samples {
        let fx = f.apply(x);
        for v in elements {
            let single = Multiset::singleton(v.clone());
            let direct = f.apply(&x.union(&single));
            let via_fx = f.apply(&fx.union(&single));
            if direct != via_fx {
                return Err((x.clone(), v.clone()));
            }
        }
    }
    Ok(())
}

/// Checks the "local conservation implies global conservation" property of
/// §3.3 on the sample data: for all `X, X', Y, Y'` drawn from `samples` with
/// `f(X) = f(X')` and `f(Y) = f(Y')`, verify `f(X ⊎ Y) = f(X' ⊎ Y')`.
///
/// The theorem of §3.4 says this holds exactly for super-idempotent `f`, and
/// the test-suite uses this function to confirm both directions on the
/// paper's examples.
#[allow(
    clippy::type_complexity,
    clippy::result_large_err,
    reason = "the Err tuple is the counterexample the proof-obligation callers pattern-match \
              on; boxing or naming it would bury the diagnostic payload"
)]
pub fn check_local_conservation_implies_global<S: Ord + Clone>(
    f: &impl DistributedFunction<S>,
    samples: &[Multiset<S>],
) -> Result<(), (Multiset<S>, Multiset<S>, Multiset<S>, Multiset<S>)> {
    for x in samples {
        for x_prime in samples {
            if f.apply(x) != f.apply(x_prime) {
                continue;
            }
            for y in samples {
                for y_prime in samples {
                    if f.apply(y) != f.apply(y_prime) {
                        continue;
                    }
                    let left = f.apply(&x.union(y));
                    let right = f.apply(&x_prime.union(y_prime));
                    if left != right {
                        return Err((x.clone(), x_prime.clone(), y.clone(), y_prime.clone()));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn min_consensus() -> ConsensusFunction<i64, impl Fn(&Multiset<i64>) -> i64> {
        ConsensusFunction::new("min", |s: &Multiset<i64>| {
            s.min_value().copied().unwrap_or(0)
        })
    }

    fn samples() -> Vec<Multiset<i64>> {
        vec![
            Multiset::new(),
            [1].into(),
            [3, 5].into(),
            [3, 5, 3, 7].into(),
            [2, 2, 2].into(),
            [10, 1, 4].into(),
        ]
    }

    #[test]
    fn consensus_function_fills_with_summary() {
        let f = min_consensus();
        assert_eq!(f.apply(&[3, 5, 3, 7].into()), [3, 3, 3, 3].into());
        assert_eq!(f.apply(&Multiset::new()), Multiset::new());
        assert_eq!(f.name(), "min");
    }

    #[test]
    fn min_consensus_is_idempotent_and_super_idempotent() {
        let f = min_consensus();
        assert!(check_idempotent(&f, &samples()).is_ok());
        assert!(check_super_idempotent(&f, &samples()).is_ok());
        let elements = [0i64, 1, 5, 9];
        assert!(check_super_idempotent_single_element(&f, &samples(), &elements).is_ok());
        assert!(check_local_conservation_implies_global(&f, &samples()).is_ok());
    }

    #[test]
    fn second_smallest_consensus_is_not_super_idempotent() {
        // The paper's §4.3 counterexample: X = {1,3}, Y = {2}.
        let f = ConsensusFunction::new("second-smallest", |s: &Multiset<i64>| {
            let min = s.min_value().copied().unwrap_or(0);
            s.iter().copied().filter(|v| *v != min).min().unwrap_or(min)
        });
        let samples = vec![
            Multiset::from([1i64, 3]),
            Multiset::from([3i64, 3]), // f({1,3}) = f({3,3}) = {3,3}
            Multiset::from([2i64]),
            Multiset::from([1i64, 2, 3]),
        ];
        assert!(check_idempotent(&f, &samples).is_ok());
        let err = check_super_idempotent(&f, &samples).unwrap_err();
        // The returned counterexample really is a violation.
        let (x, y) = err;
        assert_ne!(f.apply(&x.union(&y)), f.apply(&f.apply(&x).union(&y)));
        // And local-conservation-implies-global fails too, matching the
        // "exactly for super-idempotent functions" theorem.
        assert!(check_local_conservation_implies_global(&f, &samples).is_err());
    }

    #[test]
    fn fn_distributed_function_delegates() {
        let f = FnDistributedFunction::new("identity", |s: &Multiset<i64>| s.clone());
        let x: Multiset<i64> = [4, 2].into();
        assert_eq!(f.apply(&x), x);
        assert_eq!(f.name(), "identity");
        assert!(f.conserves(&x, &x));
        assert!(check_idempotent(&f, &samples()).is_ok());
        assert!(check_super_idempotent(&f, &samples()).is_ok());
    }

    #[test]
    fn conserves_compares_images() {
        let f = min_consensus();
        let a: Multiset<i64> = [3, 5].into();
        let b: Multiset<i64> = [3, 9].into();
        assert!(f.conserves(&a, &b)); // both have min 3 and cardinality 2
        let c: Multiset<i64> = [4, 9].into();
        assert!(!f.conserves(&a, &c));
    }

    #[test]
    fn idempotence_counterexample_is_reported() {
        // "Add one to every value" is not idempotent.
        let f = FnDistributedFunction::new("inc", |s: &Multiset<i64>| s.map(|v| v + 1));
        let err = check_idempotent(&f, &samples()).unwrap_err();
        let (x, fx, ffx) = err;
        assert_eq!(fx, f.apply(&x));
        assert_ne!(fx, ffx);
    }

    #[test]
    fn reference_to_function_is_also_a_function() {
        let f = min_consensus();
        let fref: &dyn Fn() = &|| {};
        let _ = fref; // silence unused closure warning trick not needed
        let via_ref: &ConsensusFunction<_, _> = &f;
        assert_eq!(via_ref.apply(&[5, 1].into()), [1, 1].into());
    }
}
