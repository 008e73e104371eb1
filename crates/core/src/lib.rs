//! Self-similar algorithms for dynamic distributed systems.
//!
//! This crate is the executable form of the methodology of K. Mani Chandy
//! and Michel Charpentier, *Self-Similar Algorithms for Dynamic Distributed
//! Systems* (ICDCS 2007).  The paper's design recipe for computing an
//! idempotent function `f` of the initial agent states in a system whose
//! communication is governed by an adversarial environment is:
//!
//! 1. pick a **super-idempotent** distributed function `f`
//!    ([`DistributedFunction`], [`super_idempotence`]) — if the given `f`
//!    isn't super-idempotent, generalise the problem until it is;
//! 2. pick a **variant (objective) function** `h` into a well-founded order,
//!    preferably in **summation form** ([`ObjectiveFunction`],
//!    [`SummationObjective`]) so that local improvements compose into global
//!    improvements;
//! 3. let every group of currently-communicating agents take **constrained
//!    optimisation steps**: conserve `f` of the group, strictly decrease `h`
//!    of the group ([`RelationD`], [`GroupStep`]);
//! 4. discharge the three **proof obligations** — `R` refines `D`,
//!    non-optimal states are escapable under the fairness assumption, and
//!    the local-to-global composition property — for which this crate
//!    provides executable checkers ([`proof`]).
//!
//! The [`SelfSimilarSystem`] type packages `f`, `h`, `R`, the initial states
//! and the fairness assumption into a single description that the
//! simulators in `selfsim-runtime` can execute against any environment, and
//! that the checkers can audit.
//!
//! # Quick example: minimum consensus
//!
//! ```
//! use selfsim_core::{ConsensusFunction, DistributedFunction, SummationObjective,
//!                    ObjectiveFunction};
//! use selfsim_multiset::Multiset;
//!
//! // f: every agent ends up holding the minimum of the initial values.
//! let f = ConsensusFunction::new("min", |s: &Multiset<i64>| {
//!     s.min_value().copied().unwrap_or(0)
//! });
//! let s0: Multiset<i64> = [3, 5, 3, 7].into();
//! assert_eq!(f.apply(&s0), [3, 3, 3, 3].into());
//!
//! // h: the sum of the values (well-founded because values are bounded below).
//! let h = SummationObjective::new("sum", |v: &i64| *v as f64);
//! assert_eq!(h.eval(&s0), 18.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod function;
mod objective;
mod partition;
pub mod proof;
mod relation;
mod step;
mod system;

pub use function::{
    ConsensusFunction, DistributedFunction, FnDistributedFunction, OperatorFunction,
};
pub use objective::{
    check_local_to_global_improvement, FnObjective, ObjectiveFunction, SummationObjective, EPSILON,
};
pub use partition::{all_partitions, bell_number, random_partition, split_in_two};
pub use relation::RelationD;
pub use step::{FnGroupStep, GroupStates, GroupStep, IdentityStep};
pub use system::{SelfSimilarSystem, StepOutcome, StepScratch, SystemState};

/// Super-idempotence checks (definition, single-element criterion, and the
/// local-to-global conservation equivalence of §3.4).
pub mod super_idempotence {
    pub use crate::function::{
        check_idempotent, check_local_conservation_implies_global, check_super_idempotent,
        check_super_idempotent_single_element,
    };
}
