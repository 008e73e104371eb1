//! The [`Multiset`] container.

use std::collections::BTreeMap;
use std::fmt;
use std::iter::FromIterator;

/// An ordered multiset (bag) of values.
///
/// Elements must implement [`Ord`]; the container stores each distinct value
/// with a multiplicity and iterates in ascending value order, so two
/// multisets constructed from the same elements in different orders are
/// structurally identical.  This determinism matters for the reproduction:
/// the distributed functions `f` of the paper are functions *of multisets*,
/// and the test-suite compares their outputs for equality.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Multiset<T: Ord> {
    counts: BTreeMap<T, usize>,
    len: usize,
}

impl<T: Ord> Default for Multiset<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> Multiset<T> {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        Multiset {
            counts: BTreeMap::new(),
            len: 0,
        }
    }

    /// Creates a multiset containing a single element.
    pub fn singleton(value: T) -> Self {
        let mut m = Multiset::new();
        m.insert(value);
        m
    }

    /// Returns the total number of elements, counting multiplicities.
    ///
    /// The paper calls this the *cardinality* of the multiset of agent
    /// states; it always equals the number of agents in the group.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the multiset contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the number of *distinct* values.
    pub fn distinct_len(&self) -> usize {
        self.counts.len()
    }

    /// Returns the multiplicity of `value`.
    pub fn count(&self, value: &T) -> usize {
        self.counts.get(value).copied().unwrap_or(0)
    }

    /// Returns `true` if `value` occurs at least once.
    pub fn contains(&self, value: &T) -> bool {
        self.counts.contains_key(value)
    }

    /// Inserts one occurrence of `value`.
    pub fn insert(&mut self, value: T) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.len += 1;
    }

    /// Inserts `n` occurrences of `value`.
    pub fn insert_n(&mut self, value: T, n: usize) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.len += n;
    }

    /// Removes one occurrence of `value`; returns `true` if an occurrence
    /// was present and removed.
    pub fn remove(&mut self, value: &T) -> bool {
        match self.counts.get_mut(value) {
            Some(c) if *c > 1 => {
                *c -= 1;
                self.len -= 1;
                true
            }
            Some(_) => {
                self.counts.remove(value);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes up to `n` occurrences of `value`, returning how many were
    /// actually removed (saturating at the current multiplicity).
    pub fn remove_n(&mut self, value: &T, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        match self.counts.get_mut(value) {
            Some(c) if *c > n => {
                *c -= n;
                self.len -= n;
                n
            }
            Some(&mut c) => {
                self.counts.remove(value);
                self.len -= c;
                c
            }
            None => 0,
        }
    }

    /// Removes all occurrences of `value`, returning how many were removed.
    pub fn remove_all(&mut self, value: &T) -> usize {
        match self.counts.remove(value) {
            Some(c) => {
                self.len -= c;
                c
            }
            None => 0,
        }
    }

    /// The smallest element, if any.
    pub fn min_value(&self) -> Option<&T> {
        self.counts.keys().next()
    }

    /// The largest element, if any.
    pub fn max_value(&self) -> Option<&T> {
        self.counts.keys().next_back()
    }

    /// Iterates over the elements in ascending order, repeating each value
    /// according to its multiplicity.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: self.counts.iter(),
            current: None,
        }
    }

    /// Iterates over `(value, multiplicity)` pairs in ascending value order.
    pub fn iter_counts(&self) -> impl Iterator<Item = (&T, usize)> {
        self.counts.iter().map(|(v, &c)| (v, c))
    }

    /// Iterates over the distinct values in ascending order.
    pub fn distinct(&self) -> impl Iterator<Item = &T> {
        self.counts.keys()
    }

    /// Multiset union `self ⊎ other` (multiplicities add).
    ///
    /// This is the paper's `∪` on bold (multiset) operands: for disjoint
    /// agent groups `B` and `C`, `S_{B∪C} = S_B ⊎ S_C`.
    pub fn union(&self, other: &Self) -> Self
    where
        T: Clone,
    {
        let mut out = self.clone();
        for (v, c) in other.iter_counts() {
            out.insert_n(v.clone(), c);
        }
        out
    }

    /// Multiset difference: multiplicities subtract, saturating at zero.
    pub fn difference(&self, other: &Self) -> Self
    where
        T: Clone,
    {
        let mut out = Multiset::new();
        for (v, c) in self.iter_counts() {
            let o = other.count(v);
            if c > o {
                out.insert_n(v.clone(), c - o);
            }
        }
        out
    }

    /// Multiset intersection: multiplicities take the minimum.
    pub fn intersection(&self, other: &Self) -> Self
    where
        T: Clone,
    {
        let mut out = Multiset::new();
        for (v, c) in self.iter_counts() {
            let o = other.count(v);
            if o > 0 {
                out.insert_n(v.clone(), c.min(o));
            }
        }
        out
    }

    /// Returns `true` if `self` is a sub-multiset of `other` (every value's
    /// multiplicity in `self` is at most its multiplicity in `other`).
    pub fn is_subset(&self, other: &Self) -> bool {
        self.iter_counts().all(|(v, c)| c <= other.count(v))
    }

    /// Applies `g` to every element, producing a new multiset.
    pub fn map<U: Ord>(&self, mut g: impl FnMut(&T) -> U) -> Multiset<U> {
        let mut out = Multiset::new();
        for (v, c) in self.iter_counts() {
            // `g` may map distinct inputs to equal outputs; re-inserting n
            // times keeps multiplicities correct in that case.
            let mapped = g(v);
            out.insert_n(mapped, c);
        }
        out
    }

    /// Sums `g` over all elements (with multiplicity).
    pub fn fold<Acc>(&self, init: Acc, mut g: impl FnMut(Acc, &T) -> Acc) -> Acc {
        let mut acc = init;
        for v in self.iter() {
            acc = g(acc, v);
        }
        acc
    }

    /// Collects the elements into a sorted `Vec`, repeating multiplicities.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.iter().cloned().collect()
    }

    /// Replaces every element with `value`, preserving cardinality.
    ///
    /// This is the shape of consensus-style distributed functions: the
    /// minimum example maps every agent state to the group minimum.
    pub fn fill_with(&self, value: T) -> Self
    where
        T: Clone,
    {
        let mut out = Multiset::new();
        out.insert_n(value, self.len);
        out
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.len = 0;
    }
}

impl<T: Ord + fmt::Debug> fmt::Debug for Multiset<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{v:?}")?;
        }
        f.write_str("}")
    }
}

impl<T: Ord> FromIterator<T> for Multiset<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut m = Multiset::new();
        for v in iter {
            m.insert(v);
        }
        m
    }
}

impl<T: Ord + Clone> From<&[T]> for Multiset<T> {
    fn from(slice: &[T]) -> Self {
        slice.iter().cloned().collect()
    }
}

impl<T: Ord, const N: usize> From<[T; N]> for Multiset<T> {
    fn from(values: [T; N]) -> Self {
        values.into_iter().collect()
    }
}

impl<T: Ord> Extend<T> for Multiset<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

/// Borrowing iterator over elements of a [`Multiset`], with multiplicity.
pub struct Iter<'a, T> {
    inner: std::collections::btree_map::Iter<'a, T, usize>,
    current: Option<(&'a T, usize)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some((v, remaining)) = self.current {
                if remaining > 0 {
                    self.current = Some((v, remaining - 1));
                    return Some(v);
                }
                self.current = None;
            }
            match self.inner.next() {
                Some((v, &c)) => self.current = Some((v, c)),
                None => return None,
            }
        }
    }
}

impl<'a, T: Ord> IntoIterator for &'a Multiset<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// Owning iterator over elements of a [`Multiset`], with multiplicity.
pub struct IntoIter<T> {
    inner: std::collections::btree_map::IntoIter<T, usize>,
    current: Option<(T, usize)>,
}

impl<T: Clone> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        loop {
            if let Some((v, remaining)) = self.current.take() {
                if remaining > 0 {
                    let out = v.clone();
                    self.current = Some((v, remaining - 1));
                    return Some(out);
                }
            }
            match self.inner.next() {
                Some((v, c)) => self.current = Some((v, c)),
                None => return None,
            }
        }
    }
}

impl<T: Ord + Clone> IntoIterator for Multiset<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter {
            inner: self.counts.into_iter(),
            current: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_multiset_has_no_elements() {
        let m: Multiset<i32> = Multiset::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.distinct_len(), 0);
        assert_eq!(m.min_value(), None);
        assert_eq!(m.max_value(), None);
    }

    #[test]
    fn insert_and_count() {
        let mut m = Multiset::new();
        m.insert(3);
        m.insert(3);
        m.insert(5);
        assert_eq!(m.len(), 3);
        assert_eq!(m.distinct_len(), 2);
        assert_eq!(m.count(&3), 2);
        assert_eq!(m.count(&5), 1);
        assert_eq!(m.count(&7), 0);
        assert!(m.contains(&3));
        assert!(!m.contains(&7));
    }

    #[test]
    fn insert_n_zero_is_noop() {
        let mut m: Multiset<i32> = Multiset::new();
        m.insert_n(3, 0);
        assert!(m.is_empty());
        assert!(!m.contains(&3));
    }

    #[test]
    fn remove_decrements_multiplicity() {
        let mut m: Multiset<i32> = [1, 1, 2].into();
        assert!(m.remove(&1));
        assert_eq!(m.count(&1), 1);
        assert!(m.remove(&1));
        assert_eq!(m.count(&1), 0);
        assert!(!m.remove(&1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_n_saturates_at_multiplicity() {
        let mut m: Multiset<i32> = [4, 4, 4, 9].into();
        assert_eq!(m.remove_n(&4, 0), 0);
        assert_eq!(m.remove_n(&4, 2), 2);
        assert_eq!(m.count(&4), 1);
        assert_eq!(m.remove_n(&4, 5), 1);
        assert!(!m.contains(&4));
        assert_eq!(m.remove_n(&4, 1), 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_all_removes_every_occurrence() {
        let mut m: Multiset<i32> = [4, 4, 4, 9].into();
        assert_eq!(m.remove_all(&4), 3);
        assert_eq!(m.remove_all(&4), 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iteration_is_sorted_with_multiplicity() {
        let m: Multiset<i32> = [5, 3, 7, 3].into();
        let v: Vec<i32> = m.iter().copied().collect();
        assert_eq!(v, vec![3, 3, 5, 7]);
        let v2: Vec<i32> = m.clone().into_iter().collect();
        assert_eq!(v2, vec![3, 3, 5, 7]);
    }

    #[test]
    fn union_adds_multiplicities() {
        let x: Multiset<i32> = [3, 5, 3].into();
        let y: Multiset<i32> = [3, 9].into();
        let u = x.union(&y);
        assert_eq!(u.len(), 5);
        assert_eq!(u.count(&3), 3);
        assert_eq!(u.count(&9), 1);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let x: Multiset<i32> = [1, 2, 2].into();
        let e = Multiset::new();
        assert_eq!(x.union(&e), x);
        assert_eq!(e.union(&x), x);
    }

    #[test]
    fn difference_saturates() {
        let x: Multiset<i32> = [1, 1, 2, 3].into();
        let y: Multiset<i32> = [1, 2, 2].into();
        let d = x.difference(&y);
        assert_eq!(d.to_vec(), vec![1, 3]);
    }

    #[test]
    fn intersection_takes_minimum_multiplicity() {
        let x: Multiset<i32> = [1, 1, 2, 3].into();
        let y: Multiset<i32> = [1, 2, 2].into();
        let i = x.intersection(&y);
        assert_eq!(i.to_vec(), vec![1, 2]);
    }

    #[test]
    fn subset_relation() {
        let x: Multiset<i32> = [1, 2].into();
        let y: Multiset<i32> = [1, 1, 2, 3].into();
        assert!(x.is_subset(&y));
        assert!(!y.is_subset(&x));
        assert!(Multiset::<i32>::new().is_subset(&x));
    }

    #[test]
    fn map_preserves_cardinality_and_merges_collisions() {
        let x: Multiset<i32> = [1, 2, 3, 4].into();
        let y = x.map(|v| v % 2);
        assert_eq!(y.len(), 4);
        assert_eq!(y.count(&0), 2);
        assert_eq!(y.count(&1), 2);
    }

    #[test]
    fn fill_with_is_consensus_shape() {
        let x: Multiset<i32> = [3, 5, 3, 7].into();
        let y = x.fill_with(3);
        assert_eq!(y.len(), 4);
        assert_eq!(y.count(&3), 4);
    }

    #[test]
    fn fold_sums_with_multiplicity() {
        let x: Multiset<i64> = [3, 5, 3, 7].into();
        let s = x.fold(0i64, |acc, v| acc + v);
        assert_eq!(s, 18);
    }

    #[test]
    fn min_max() {
        let x: Multiset<i32> = [3, 5, 3, 7].into();
        assert_eq!(x.min_value(), Some(&3));
        assert_eq!(x.max_value(), Some(&7));
    }

    #[test]
    fn equality_is_order_insensitive() {
        let x: Multiset<i32> = [3, 5, 3, 7].into();
        let y: Multiset<i32> = [7, 3, 5, 3].into();
        assert_eq!(x, y);
        let z: Multiset<i32> = [3, 5, 7].into();
        assert_ne!(x, z);
    }

    #[test]
    fn debug_format_lists_elements() {
        let x: Multiset<i32> = [2, 1, 2].into();
        assert_eq!(format!("{x:?}"), "{1, 2, 2}");
    }

    #[test]
    fn singleton_and_clear() {
        let mut m = Multiset::singleton(42);
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn extend_adds_elements() {
        let mut m: Multiset<i32> = [1].into();
        m.extend([2, 2, 3]);
        assert_eq!(m.len(), 4);
        assert_eq!(m.count(&2), 2);
    }
}
