//! Signed multiset deltas for zero-allocation change detection.
//!
//! A group step replaces the multiset of a group's agent states with a new
//! multiset of the same cardinality.  Deciding whether anything *changed*
//! does not require materialising either multiset: it is enough to keep a
//! signed counter per value — `-1` for every element of the old multiset,
//! `+1` for every element of the new one — and ask whether any counter is
//! non-zero.  [`SignedCounts`] is that counter, backed by a sorted `Vec`
//! so small deltas (the common case: groups of a handful of agents) stay in
//! one or two cache lines and the buffer can be reused across steps without
//! reallocating.

use std::fmt;

/// A reusable signed counter over values of type `T`.
///
/// Conceptually a map `T → isize` that tracks how many entries are currently
/// non-zero.  The entries `Vec` keeps its capacity across
/// [`clear`](SignedCounts::clear), so a long-running simulation performs no
/// per-step allocation once the buffer has grown to the largest group seen.
#[derive(Clone, Default)]
pub struct SignedCounts<T: Ord> {
    /// Sorted by value; zero-count entries are retained until [`clear`]
    /// (`SignedCounts::clear`) so insertion never shifts the tail twice.
    entries: Vec<(T, isize)>,
    /// Number of entries whose count is non-zero.
    imbalance: usize,
}

impl<T: Ord> SignedCounts<T> {
    /// Creates an empty counter.
    pub fn new() -> Self {
        SignedCounts {
            entries: Vec::new(),
            imbalance: 0,
        }
    }

    /// Adds `delta` to the counter for `value`.
    pub fn add(&mut self, value: T, delta: isize) {
        if delta == 0 {
            return;
        }
        match self.entries.binary_search_by(|(v, _)| v.cmp(&value)) {
            Ok(pos) => {
                let entry = self
                    .entries
                    .get_mut(pos)
                    .expect("binary_search hit is in range");
                let before = entry.1;
                entry.1 += delta;
                if before == 0 {
                    self.imbalance += 1;
                } else if entry.1 == 0 {
                    self.imbalance -= 1;
                }
            }
            Err(pos) => {
                self.entries.insert(pos, (value, delta));
                self.imbalance += 1;
            }
        }
    }

    /// Returns `true` if every counter is zero — i.e. the `+` and `-` sides
    /// seen so far describe identical multisets.
    pub fn is_balanced(&self) -> bool {
        self.imbalance == 0
    }

    /// Iterates the non-zero `(value, count)` pairs in ascending value order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (&T, isize)> {
        self.entries
            .iter()
            .filter(|(_, c)| *c != 0)
            .map(|(v, c)| (v, *c))
    }

    /// Resets all counters, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.imbalance = 0;
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for SignedCounts<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_nonzero()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_when_sides_match() {
        let mut d: SignedCounts<i32> = SignedCounts::new();
        assert!(d.is_balanced());
        for v in [3, 5, 3] {
            d.add(v, -1);
        }
        for v in [3, 3, 5] {
            d.add(v, 1);
        }
        assert!(d.is_balanced());
        assert_eq!(d.iter_nonzero().count(), 0);
    }

    #[test]
    fn imbalanced_when_sides_differ() {
        let mut d: SignedCounts<i32> = SignedCounts::new();
        d.add(3, -1);
        d.add(5, 1);
        assert!(!d.is_balanced());
        let nz: Vec<(i32, isize)> = d.iter_nonzero().map(|(v, c)| (*v, c)).collect();
        assert_eq!(nz, vec![(3, -1), (5, 1)]);
    }

    #[test]
    fn clear_resets_but_reuses() {
        let mut d: SignedCounts<i32> = SignedCounts::new();
        d.add(1, 4);
        d.add(1, -4);
        assert!(d.is_balanced());
        // Zeroed entry is retained until clear.
        d.add(1, 2);
        assert!(!d.is_balanced());
        d.clear();
        assert!(d.is_balanced());
        assert_eq!(d.iter_nonzero().count(), 0);
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut d: SignedCounts<i32> = SignedCounts::new();
        d.add(7, 0);
        assert!(d.is_balanced());
        assert_eq!(d.iter_nonzero().count(), 0);
    }
}
