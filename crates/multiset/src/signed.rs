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
//!
//! # The value window
//!
//! A step whose writes and overwrites all lie in a known integer range
//! `lo..=hi` (the `minimum` steps write between a member's value and the
//! group minimum) can open a *window* over that range on an empty
//! `SignedCounts<i64>` ([`open_window`](SignedCounts::open_window)).  It
//! pre-fills the sorted entries with one zero-count entry per value, so
//! value `v`'s entry sits at a fixed offset `v − lo` from the window's
//! start, and [`add_windowed`](SignedCounts::add_windowed) counts into it
//! after one compare instead of a binary search.  A value outside the
//! window takes the binary search of [`add`](SignedCounts::add), which
//! moves the window's start when it inserts before it.  The entries stay
//! one sorted `Vec`, so [`is_balanced`](SignedCounts::is_balanced) and
//! [`iter_nonzero`](SignedCounts::iter_nonzero) read the same either way.
//! The caller bounds the window's width; a group step bounds it by the
//! group's length, so pre-filling and folding the window cost no more
//! than the step's own pass over its members.

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
    /// The open value window; only a `SignedCounts<i64>` opens one.
    window: Window,
}

/// A run of `entries` holding the consecutive values `lo, lo + 1, …`.
#[derive(Clone, Copy, Default)]
struct Window {
    /// The smallest value in the window.
    lo: i64,
    /// The index in `entries` of `lo`'s entry.
    start: usize,
    /// Number of values in the window; 0 when no window is open.
    len: usize,
}

impl<T: Ord> SignedCounts<T> {
    /// Creates an empty counter.
    pub fn new() -> Self {
        SignedCounts {
            entries: Vec::new(),
            imbalance: 0,
            window: Window::default(),
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
                count(&mut entry.1, delta, &mut self.imbalance);
            }
            Err(pos) => {
                // A value below an open window lands before its start
                // (with no window open, `start` is unused).
                if pos <= self.window.start {
                    self.window.start += 1;
                }
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

    /// Resets all counters and closes the window, keeping the allocated
    /// capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.imbalance = 0;
        self.window = Window::default();
    }
}

impl SignedCounts<i64> {
    /// Opens a window over the values `lo..=hi` if the counter is empty and
    /// the window holds at most `max_len` values; returns whether it
    /// opened.  No window opens when `hi < lo` or when `hi − lo` overflows.
    ///
    /// The window's entries count as zero until written, so opening one
    /// changes neither [`is_balanced`](Self::is_balanced) nor
    /// [`iter_nonzero`](Self::iter_nonzero).  It stays open until
    /// [`clear`](Self::clear).
    pub fn open_window(&mut self, lo: i64, hi: i64, max_len: usize) -> bool {
        let len = hi
            .checked_sub(lo)
            .and_then(|span| usize::try_from(span).ok())
            .and_then(|span| span.checked_add(1));
        match len {
            Some(len) if len <= max_len && self.entries.is_empty() => {
                self.entries.extend((lo..=hi).map(|v| (v, 0)));
                self.window = Window { lo, start: 0, len };
                true
            }
            _ => false,
        }
    }

    /// [`add`](Self::add), counting a value inside the open window into
    /// its entry directly.
    #[inline]
    pub fn add_windowed(&mut self, value: i64, delta: isize) {
        if delta == 0 {
            return;
        }
        // `value − lo` modulo 2⁶⁴ is below `len` exactly when `value` is
        // in the window, so one compare covers both ends.
        let offset = value.wrapping_sub(self.window.lo) as u64;
        let slot = if offset < self.window.len as u64 {
            self.entries.get_mut(self.window.start + offset as usize)
        } else {
            None
        };
        match slot {
            Some(entry) => count(&mut entry.1, delta, &mut self.imbalance),
            None => self.add(value, delta),
        }
    }
}

/// Adds a non-zero `delta` to an existing entry's `counter`, keeping the
/// count of non-zero entries in `imbalance`.
#[inline]
fn count(counter: &mut isize, delta: isize, imbalance: &mut usize) {
    let before = *counter;
    *counter += delta;
    if before == 0 {
        *imbalance += 1;
    } else if *counter == 0 {
        *imbalance -= 1;
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
    use proptest::prelude::*;

    fn nonzero(d: &SignedCounts<i64>) -> Vec<(i64, isize)> {
        d.iter_nonzero().map(|(v, c)| (*v, c)).collect()
    }

    /// Replays `adds` into a plain counter with [`SignedCounts::add`], and
    /// with [`SignedCounts::add_windowed`] into one that asked for the
    /// window `lo..=hi`, checking after every add that the two agree.
    /// Returns whether the window opened, and whether the windowed counter
    /// ends balanced.
    fn replay_windowed(lo: i64, hi: i64, max_len: usize, adds: &[(i64, isize)]) -> (bool, bool) {
        let mut plain = SignedCounts::new();
        let mut windowed = SignedCounts::new();
        let opened = windowed.open_window(lo, hi, max_len);
        assert!(windowed.is_balanced() && nonzero(&windowed).is_empty());
        for &(v, c) in adds {
            plain.add(v, c);
            windowed.add_windowed(v, c);
            assert_eq!(
                nonzero(&windowed),
                nonzero(&plain),
                "after adding {c} to {v}"
            );
            assert_eq!(windowed.is_balanced(), plain.is_balanced());
        }
        (opened, windowed.is_balanced())
    }

    #[test]
    fn window_counts_values_inside_and_outside_it() {
        let adds = [
            (0, -1),
            (4, 1),
            (-3, -1),
            (-10, 1), // below the window: shifts its start
            (2, 1),
            (-11, -1), // below it again
            (-3, 1),   // in the window after two shifts
            (9, 2),    // above it
            (0, 1),
            (4, -1),
            (-10, -1),
            (-11, 1),
            (9, -2),
            (2, -1),
        ];
        // Every add above is cancelled by a later one.
        assert_eq!(replay_windowed(-3, 4, 8, &adds), (true, true));
        assert_eq!(replay_windowed(-3, 4, 8, &adds[..7]), (true, false));
    }

    #[test]
    fn one_value_window() {
        let adds = [(7, -1), (6, 1), (7, 1), (8, 1), (7, 1), (6, -1)];
        assert_eq!(replay_windowed(7, 7, 1, &adds), (true, false));
    }

    #[test]
    fn window_opens_only_within_its_bound_on_an_empty_counter() {
        assert!(!replay_windowed(0, 9, 9, &[(3, 1), (12, -1)]).0);
        assert!(replay_windowed(0, 9, 10, &[(3, 1), (12, -1)]).0);
        assert!(!replay_windowed(5, 4, usize::MAX, &[(4, 1), (5, -1)]).0);
        let mut d = SignedCounts::new();
        d.add(3, 1);
        assert!(!d.open_window(0, 9, 10), "the counter is not empty");
        d.clear();
        assert!(d.open_window(0, 9, 10));
        assert!(d.is_balanced());
    }

    #[test]
    fn window_at_the_ends_of_i64() {
        // `max − min` overflows: no window opens, however large the bound.
        let ends = [(i64::MIN, 1), (i64::MAX, -1), (0, 1), (i64::MIN, -1)];
        assert!(!replay_windowed(i64::MIN, i64::MAX, usize::MAX, &ends).0);
        assert!(!replay_windowed(-1, i64::MAX, usize::MAX, &ends).0);
        assert!(!replay_windowed(i64::MIN, 1, usize::MAX, &ends).0);
        // Windows ending at either end: the offset of the far end wraps
        // and must still read as outside.
        assert!(replay_windowed(i64::MAX - 2, i64::MAX, 3, &ends).0);
        assert!(replay_windowed(i64::MIN, i64::MIN + 2, 3, &ends).0);
        assert!(replay_windowed(i64::MIN, i64::MIN, 1, &ends).0);
    }

    proptest! {
        #[test]
        fn windowed_adds_match_plain_adds(
            lo in -20i64..20,
            width in 0i64..12,
            adds in proptest::collection::vec((-40i64..40, -2isize..3), 0..64),
        ) {
            prop_assert!(replay_windowed(lo, lo + width, 12, &adds).0);
        }
    }

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
