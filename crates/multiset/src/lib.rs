//! Multisets (bags) of agent states.
//!
//! The model of Chandy & Charpentier (ICDCS 2007) represents the collective
//! state of a set of agents as a *multiset* of agent states: two agents may
//! be in the same local state, and the identity of agents is deliberately
//! abstracted away (self-similar algorithms treat every group of agents the
//! same way, regardless of identities).
//!
//! [`Multiset<T>`] is an ordered multiset backed by a `BTreeMap<T, usize>`,
//! giving deterministic iteration order, cheap union (the paper's `⊎`
//! operator), and value/multiplicity queries.  All of the paper's algebraic
//! machinery — super-idempotent functions, the conservation law, variant
//! functions in summation form — is expressed over this type.
//!
//! # Examples
//!
//! ```
//! use selfsim_multiset::Multiset;
//!
//! let x: Multiset<i64> = [3, 5, 3, 7].into_iter().collect();
//! assert_eq!(x.len(), 4);
//! assert_eq!(x.count(&3), 2);
//!
//! let y: Multiset<i64> = [3, 9].into_iter().collect();
//! let u = x.union(&y);
//! assert_eq!(u.len(), 6);
//! assert_eq!(u.count(&3), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod multiset;
mod signed;

pub use multiset::{IntoIter, Iter, Multiset};
pub use signed::SignedCounts;
