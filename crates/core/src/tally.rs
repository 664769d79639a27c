//! Vote bookkeeping for a single task.
//!
//! A [`VoteTally`] counts the results reported by jobs of one task. It is
//! n-ary — results are arbitrary `Ord + Clone` values — so the same type
//! serves the paper's binary worst case (§2.2) and the non-binary relaxation
//! of §5.3. Ties are broken deterministically by `Ord` so simulations are
//! reproducible.

/// Counts of results reported for one task.
///
/// # Examples
///
/// ```
/// use smartred_core::tally::VoteTally;
///
/// let mut tally = VoteTally::new();
/// tally.record(true);
/// tally.record(true);
/// tally.record(false);
/// assert_eq!(tally.total(), 3);
/// assert_eq!(tally.leader(), Some((&true, 2)));
/// assert_eq!(tally.margin(), 1); // leader minus runner-up
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VoteTally<V: Ord> {
    /// `(value, count)` per distinct value, sorted by value. A task sees a
    /// handful of distinct values, so a sorted `Vec` beats a tree.
    counts: Vec<(V, usize)>,
    total: usize,
}

impl<V: Ord + Clone> VoteTally<V> {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Records one job result.
    pub fn record(&mut self, value: V) {
        self.record_n(value, 1);
    }

    /// Records `n` identical job results at once.
    pub fn record_n(&mut self, value: V, n: usize) {
        if n == 0 {
            return;
        }
        match self.find(&value) {
            Ok(i) => self.counts[i].1 += n,
            Err(i) => {
                // One slot at a time: a binary tally never holds more than
                // two, and `Vec`'s first growth to four costs memory.
                self.counts.reserve_exact(1);
                self.counts.insert(i, (value, n));
            }
        }
        self.total += n;
    }

    /// Where `value` is in `counts`, or where it would go.
    fn find(&self, value: &V) -> Result<usize, usize> {
        self.counts.binary_search_by(|(v, _)| v.cmp(value))
    }

    /// Returns the number of votes for `value` (zero if never reported).
    pub fn count(&self, value: &V) -> usize {
        self.find(value).map_or(0, |i| self.counts[i].1)
    }

    /// Returns the total number of votes recorded.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Returns `true` if no votes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Returns the number of distinct result values seen.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Returns the value with the most votes and its count.
    ///
    /// Ties are broken toward the smallest value under `Ord`, which keeps
    /// executions deterministic. Returns `None` on an empty tally.
    pub fn leader(&self) -> Option<(&V, usize)> {
        let mut best: Option<(&V, usize)> = None;
        for (value, count) in self.iter() {
            match best {
                Some((_, best_count)) if count <= best_count => {}
                _ => best = Some((value, count)),
            }
        }
        best
    }

    /// Returns the count of the second-most-voted value (zero if fewer than
    /// two distinct values have been reported).
    pub fn runner_up_count(&self) -> usize {
        let leader = match self.leader() {
            Some((value, _)) => value.clone(),
            None => return 0,
        };
        self.iter()
            .filter(|&(value, _)| *value != leader)
            .map(|(_, count)| count)
            .max()
            .unwrap_or(0)
    }

    /// Returns the margin between the leader and the runner-up.
    ///
    /// For a binary tally with `a` majority and `b` minority votes this is
    /// `a - b`, the quantity iterative redundancy compares against `d`
    /// (Fig. 4). An empty tally has margin zero.
    pub fn margin(&self) -> usize {
        match self.leader() {
            Some((_, count)) => count - self.runner_up_count(),
            None => 0,
        }
    }

    /// Returns the number of votes *not* cast for the leader.
    ///
    /// In the binary model this is the minority count `b`.
    pub fn dissent(&self) -> usize {
        match self.leader() {
            Some((_, count)) => self.total - count,
            None => 0,
        }
    }

    /// Iterates over `(value, count)` pairs in `Ord` order of the values.
    pub fn iter(&self) -> impl Iterator<Item = (&V, usize)> {
        self.counts.iter().map(|(v, c)| (v, *c))
    }
}

impl<V: Ord + Clone> FromIterator<V> for VoteTally<V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        let mut tally = VoteTally::new();
        for value in iter {
            tally.record(value);
        }
        tally
    }
}

impl<V: Ord + Clone> Extend<V> for VoteTally<V> {
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        for value in iter {
            self.record(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tally_has_no_leader() {
        let tally: VoteTally<bool> = VoteTally::new();
        assert!(tally.is_empty());
        assert_eq!(tally.leader(), None);
        assert_eq!(tally.margin(), 0);
        assert_eq!(tally.dissent(), 0);
        assert_eq!(tally.distinct(), 0);
    }

    #[test]
    fn binary_margin_is_a_minus_b() {
        let mut tally = VoteTally::new();
        tally.record_n(true, 6);
        tally.record_n(false, 2);
        assert_eq!(tally.leader(), Some((&true, 6)));
        assert_eq!(tally.margin(), 4);
        assert_eq!(tally.dissent(), 2);
        assert_eq!(tally.total(), 8);
    }

    #[test]
    fn tie_breaks_toward_smallest_value() {
        let mut tally = VoteTally::new();
        tally.record(7u32);
        tally.record(3u32);
        // Tie at one vote each: the smaller value wins deterministically.
        assert_eq!(tally.leader(), Some((&3, 1)));
        assert_eq!(tally.margin(), 0);
    }

    #[test]
    fn nary_margin_uses_runner_up_not_total_dissent() {
        let mut tally = VoteTally::new();
        tally.record_n("four", 5);
        tally.record_n("five", 2);
        tally.record_n("three", 2);
        // Leader 5, runner-up 2 → margin 3 even though dissent is 4.
        assert_eq!(tally.margin(), 3);
        assert_eq!(tally.dissent(), 4);
        assert_eq!(tally.distinct(), 3);
    }

    #[test]
    fn record_n_zero_is_a_no_op() {
        let mut tally = VoteTally::new();
        tally.record_n(true, 0);
        assert!(tally.is_empty());
        assert_eq!(tally.count(&true), 0);
    }

    #[test]
    fn from_iterator_counts_everything() {
        let tally: VoteTally<u8> = [1, 1, 2, 1, 3].into_iter().collect();
        assert_eq!(tally.count(&1), 3);
        assert_eq!(tally.count(&2), 1);
        assert_eq!(tally.count(&3), 1);
        assert_eq!(tally.total(), 5);
    }

    #[test]
    fn extend_adds_to_existing_counts() {
        let mut tally: VoteTally<u8> = [1, 2].into_iter().collect();
        tally.extend([2, 2]);
        assert_eq!(tally.count(&2), 3);
        assert_eq!(tally.leader(), Some((&2, 3)));
    }

    #[test]
    fn iter_is_ordered_by_value() {
        let tally: VoteTally<u8> = [3, 1, 2].into_iter().collect();
        let values: Vec<u8> = tally.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn count_of_unseen_value_is_zero() {
        let tally: VoteTally<bool> = [true].into_iter().collect();
        assert_eq!(tally.count(&false), 0);
    }
}
