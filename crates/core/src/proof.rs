//! Executable forms of the three proof obligations of §3.7.
//!
//! The paper's correctness theorem says that an algorithm `R` together with
//! a fairness set `Q` solves the problem of computing `f(S(0))` provided:
//!
//! 1. **`R` implements `D`** — every step of `R` either leaves the group's
//!    multiset unchanged or conserves `f` and strictly decreases `h`;
//! 2. **non-optimal states are escapable** — whenever `S ≠ S*`, some
//!    predicate `Q ∈ Q` enables a transition out of `S`;
//! 3. **local-to-global** — concurrent `D`-steps by disjoint groups compose
//!    into a `D`-step of their union.
//!
//! The original proofs are in a technical report we do not have; instead
//! this module provides checkers that *test* each obligation mechanically —
//! exhaustively on caller-supplied small models and statistically through
//! randomised sampling — which is how the test-suite and the experiment
//! harness audit every algorithm in `selfsim-algorithms`.

use rand::Rng;

use selfsim_multiset::Multiset;

use crate::{RelationD, SelfSimilarSystem};

/// A violation discovered by one of the proof-obligation checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which obligation was violated (`"R-implements-D"`,
    /// `"escape"`, `"local-to-global"`).
    pub obligation: &'static str,
    /// Human-readable description of the counterexample.
    pub description: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.obligation, self.description)
    }
}

/// Report of a full proof-obligation audit of a system.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All violations found; empty means every check passed.
    pub violations: Vec<Violation>,
    /// How many individual checks were executed.
    pub checks_run: usize,
}

impl AuditReport {
    /// `true` when no violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.violations.extend(other.violations);
        self.checks_run += other.checks_run;
    }
}

/// **Obligation 1 (`R` implements `D`)** — runs the group step `trials`
/// times on every sample group state and checks each resulting transition
/// against `D`.
pub fn check_r_implements_d<S>(
    system: &SelfSimilarSystem<S>,
    sample_groups: &[Vec<S>],
    trials: usize,
    rng: &mut impl Rng,
) -> AuditReport
where
    S: Ord + Clone + std::fmt::Debug,
{
    let relation = system.relation();
    let mut report = AuditReport::default();
    for group in sample_groups {
        if group.is_empty() {
            continue;
        }
        for _ in 0..trials.max(1) {
            report.checks_run += 1;
            let after = system.group_step().step(group, rng);
            if after.len() != group.len() {
                report.violations.push(Violation {
                    obligation: "R-implements-D",
                    description: format!(
                        "step changed group size from {} to {} on {group:?}",
                        group.len(),
                        after.len()
                    ),
                });
                continue;
            }
            let before_ms: Multiset<S> = group.iter().cloned().collect();
            let after_ms: Multiset<S> = after.iter().cloned().collect();
            if let Some(reason) = relation.explain_violation(&before_ms, &after_ms) {
                report.violations.push(Violation {
                    obligation: "R-implements-D",
                    description: format!("{reason} (group {group:?} -> {after:?})"),
                });
            }
        }
    }
    report
}

/// **Obligation 2 (escape)** — for every sample *global* state that is not
/// yet optimal, checks that at least one fairness edge, when enabled, lets
/// the corresponding two-agent group change its state (within `attempts`
/// invocations of the possibly-randomised step).
///
/// This is the executable reading of (9): `S ≠ S* ⇒ ∃Q ∈ Q : S ⤳ Q` — if
/// the environment grants any one of the assumed edges, the agents can make
/// progress.  Larger groups only make escape easier, so checking pairs is
/// the conservative choice.
pub fn check_escape<S>(
    system: &SelfSimilarSystem<S>,
    sample_states: &[Vec<S>],
    attempts: usize,
    rng: &mut impl Rng,
) -> AuditReport
where
    S: Ord + Clone + std::fmt::Debug,
{
    let mut report = AuditReport::default();
    for state in sample_states {
        if state.len() != system.agent_count() {
            report.violations.push(Violation {
                obligation: "escape",
                description: format!(
                    "sample state has {} agents, system has {}",
                    state.len(),
                    system.agent_count()
                ),
            });
            continue;
        }
        if system.is_converged(state) {
            continue;
        }
        report.checks_run += 1;
        let mut escapable = false;
        'edges: for edge in system.fairness().edges() {
            let group = vec![
                state[edge.lo().index()].clone(),
                state[edge.hi().index()].clone(),
            ];
            let before_ms: Multiset<S> = group.iter().cloned().collect();
            for _ in 0..attempts.max(1) {
                let after = system.group_step().step(&group, rng);
                let after_ms: Multiset<S> = after.iter().cloned().collect();
                if after_ms != before_ms {
                    escapable = true;
                    break 'edges;
                }
            }
        }
        if !escapable {
            report.violations.push(Violation {
                obligation: "escape",
                description: format!(
                    "non-optimal state {state:?} cannot escape under any fairness edge of `{}`",
                    system.name()
                ),
            });
        }
    }
    report
}

/// **Obligation 3 (local-to-global)** — for every ordered pair of sample
/// group states `(B, C)`, lets each group take one step of `R` and checks
/// that the union transition is still related by `D`.
///
/// For super-idempotent `f` and summation-form `h` this must always pass
/// (the theorems of §3.4 and §3.5); for the counterexample objectives of the
/// paper (Figure 1) it fails, and the test-suite asserts both outcomes.
pub fn check_local_to_global<S>(
    system: &SelfSimilarSystem<S>,
    sample_groups: &[Vec<S>],
    rng: &mut impl Rng,
) -> AuditReport
where
    S: Ord + Clone + std::fmt::Debug,
{
    let relation = system.relation();
    let mut report = AuditReport::default();
    for b in sample_groups {
        for c in sample_groups {
            if b.is_empty() && c.is_empty() {
                continue;
            }
            report.checks_run += 1;
            let b_after = if b.is_empty() {
                Vec::new()
            } else {
                system.group_step().step(b, rng)
            };
            let c_after = if c.is_empty() {
                Vec::new()
            } else {
                system.group_step().step(c, rng)
            };
            let before: Multiset<S> = b.iter().chain(c.iter()).cloned().collect();
            let after: Multiset<S> = b_after.iter().chain(c_after.iter()).cloned().collect();
            if !relation.relates(&before, &after) {
                let reason = relation
                    .explain_violation(&before, &after)
                    .unwrap_or_else(|| "unknown".to_string());
                report.violations.push(Violation {
                    obligation: "local-to-global",
                    description: format!(
                        "union of concurrent steps is not a D-step: {reason} (B = {b:?}, C = {c:?})"
                    ),
                });
            }
        }
    }
    report
}

/// Runs all three obligations on a system, with sample group states derived
/// from the initial state: every pair and triple of initial agent states,
/// plus the full initial state, plus `extra_groups`.
pub fn audit_system<S>(
    system: &SelfSimilarSystem<S>,
    extra_groups: &[Vec<S>],
    trials: usize,
    rng: &mut impl Rng,
) -> AuditReport
where
    S: Ord + Clone + std::fmt::Debug,
{
    let initial = system.initial_state();
    let n = initial.len();
    let mut groups: Vec<Vec<S>> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            groups.push(vec![initial[i].clone(), initial[j].clone()]);
            for k in (j + 1)..n {
                groups.push(vec![
                    initial[i].clone(),
                    initial[j].clone(),
                    initial[k].clone(),
                ]);
            }
        }
    }
    groups.push(initial.clone());
    groups.extend(extra_groups.iter().cloned());

    let mut report = AuditReport::default();
    report.merge(check_r_implements_d(system, &groups, trials, rng));
    report.merge(check_local_to_global(system, &groups, rng));
    report.merge(check_escape(
        system,
        std::slice::from_ref(initial),
        trials.max(4),
        rng,
    ));
    report
}

/// Checks the **conservation law** (§3.2) and the **descent of `h`** along a
/// recorded sequence of global states: `f(S)` must equal `f(S(0))` at every
/// point, and `h` must never increase across an agent transition.
///
/// The runtime records one entry per agent transition, so this audits an
/// actual execution rather than sampled steps.
pub fn check_trace_invariants<S>(
    relation: &RelationD<impl crate::DistributedFunction<S>, impl crate::ObjectiveFunction<S>>,
    states: &[Multiset<S>],
) -> AuditReport
where
    S: Ord + Clone + std::fmt::Debug,
{
    let mut report = AuditReport::default();
    if states.is_empty() {
        return report;
    }
    let target = relation.function().apply(&states[0]);
    for (i, s) in states.iter().enumerate() {
        report.checks_run += 1;
        if relation.function().apply(s) != target {
            report.violations.push(Violation {
                obligation: "R-implements-D",
                description: format!("conservation law violated at position {i}: f(S) != f(S(0))"),
            });
        }
    }
    for (i, w) in states.windows(2).enumerate() {
        report.checks_run += 1;
        if !relation.relates(&w[0], &w[1]) {
            report.violations.push(Violation {
                obligation: "R-implements-D",
                description: format!(
                    "transition {i} -> {} is not a D-step (h increased or f changed)",
                    i + 1
                ),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConsensusFunction, FnGroupStep, SummationObjective};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selfsim_env::{FairnessSpec, Topology};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

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

    fn buggy_system(initial: Vec<i64>) -> SelfSimilarSystem<i64> {
        // Adopt-max fails to conserve the minimum.
        let n = initial.len();
        SelfSimilarSystem::new(
            "buggy-minimum",
            ConsensusFunction::new("min", |s: &Multiset<i64>| {
                s.min_value().copied().unwrap_or(0)
            }),
            SummationObjective::new("sum", |v: &i64| *v as f64),
            FnGroupStep::new(
                "adopt-max",
                |states: &[i64], _rng: &mut dyn rand::RngCore| {
                    let m = states.iter().copied().max().unwrap_or(0);
                    vec![m; states.len()]
                },
            ),
            initial,
            FairnessSpec::for_graph(&Topology::line(n)),
        )
    }

    #[test]
    fn correct_algorithm_passes_full_audit() {
        let sys = min_system(vec![3, 5, 3, 7]);
        let report = audit_system(&sys, &[], 3, &mut rng());
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.checks_run > 0);
    }

    #[test]
    fn buggy_algorithm_fails_r_implements_d() {
        let sys = buggy_system(vec![3, 5, 3, 7]);
        let report = check_r_implements_d(&sys, &[vec![3, 5]], 1, &mut rng());
        assert!(!report.passed());
        assert_eq!(report.violations[0].obligation, "R-implements-D");
        assert!(report.violations[0].to_string().contains("R-implements-D"));
    }

    #[test]
    fn stuck_algorithm_fails_escape() {
        // The identity step can never leave a non-optimal state.
        let sys = SelfSimilarSystem::new(
            "stuck",
            ConsensusFunction::new("min", |s: &Multiset<i64>| {
                s.min_value().copied().unwrap_or(0)
            }),
            SummationObjective::new("sum", |v: &i64| *v as f64),
            crate::IdentityStep,
            vec![3, 5],
            FairnessSpec::for_graph(&Topology::line(2)),
        );
        let report = check_escape(&sys, &[vec![3, 5]], 3, &mut rng());
        assert!(!report.passed());
        assert_eq!(report.violations[0].obligation, "escape");
    }

    #[test]
    fn escape_skips_converged_states_and_rejects_bad_sizes() {
        let sys = min_system(vec![3, 5]);
        let report = check_escape(&sys, &[vec![3, 3]], 2, &mut rng());
        assert!(report.passed());
        assert_eq!(report.checks_run, 0);
        let report = check_escape(&sys, &[vec![1, 2, 3]], 2, &mut rng());
        assert!(!report.passed());
    }

    #[test]
    fn local_to_global_holds_for_summation_objective() {
        let sys = min_system(vec![3, 5, 3, 7]);
        let groups = vec![vec![3i64, 5], vec![3, 7], vec![5, 7, 9]];
        let report = check_local_to_global(&sys, &groups, &mut rng());
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn trace_invariants_accept_valid_runs_and_reject_invalid_ones() {
        let relation = RelationD::new(
            ConsensusFunction::new("min", |s: &Multiset<i64>| {
                s.min_value().copied().unwrap_or(0)
            }),
            SummationObjective::new("sum", |v: &i64| *v as f64),
        );
        let good: Vec<Multiset<i64>> = vec![
            [3, 5, 7].into(),
            [3, 5, 5].into(),
            [3, 3, 3].into(),
            [3, 3, 3].into(),
        ];
        assert!(check_trace_invariants(&relation, &good).passed());

        let conservation_broken: Vec<Multiset<i64>> = vec![[3, 5].into(), [4, 5].into()];
        let report = check_trace_invariants(&relation, &conservation_broken);
        assert!(!report.passed());

        let objective_increased: Vec<Multiset<i64>> = vec![[3, 5].into(), [3, 6].into()];
        assert!(!check_trace_invariants(&relation, &objective_increased).passed());

        let empty: Vec<Multiset<i64>> = Vec::new();
        assert!(check_trace_invariants(&relation, &empty).passed());
    }

    #[test]
    fn audit_report_merges() {
        let mut a = AuditReport {
            violations: vec![],
            checks_run: 2,
        };
        let b = AuditReport {
            violations: vec![Violation {
                obligation: "escape",
                description: "x".into(),
            }],
            checks_run: 3,
        };
        a.merge(b);
        assert_eq!(a.checks_run, 5);
        assert!(!a.passed());
    }
}
