//! Bounded best-`k` accumulation — the shared machinery behind every
//! top-k search in the workspace: the engine's searcher
//! (`onex_core::search`, whose every offer publishes [`BestK::bound`] to
//! the query's [`SharedBound`](crate::SharedBound)), the exhaustive scan
//! it is tested against (`onex_core::exhaustive`), the fan-out merge, and
//! the comparison systems' scans (UCR Suite windows, FRM's incremental
//! nearest-neighbour traversal, ...). Keys tie-break on the payload, so
//! the engine and its oracle order tied windows the same way.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Total-ordered f64 heap key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Entries a top-k accumulator reserves up front, whatever its `k`: a
/// request's `k` is unchecked, and reserving `k` of them aborts the
/// process on a large one.
pub const TOP_K_RESERVE: usize = 64;

/// A bounded best-`k` accumulator: a max-heap of at most `k`
/// `(key, payload)` entries whose root is the current k-th best key,
/// exposed as the pruning bound a search threads through its scan.
///
/// ```
/// use onex_api::BestK;
///
/// let mut acc: BestK<&'static str> = BestK::new(2);
/// assert!(acc.bound().is_infinite()); // underfull: nothing provably out
/// acc.offer(3.0, "far");
/// acc.offer(1.0, "near");
/// acc.offer(2.0, "mid"); // evicts "far"
/// assert_eq!(acc.bound(), 2.0);
/// assert_eq!(acc.into_sorted(), vec![(1.0, "near"), (2.0, "mid")]);
/// ```
#[derive(Debug, Clone)]
pub struct BestK<P> {
    k: usize,
    heap: BinaryHeap<(OrdF64, P)>,
}

impl<P: Ord> BestK<P> {
    /// Accumulator keeping the `k` entries with the smallest keys
    /// (`k` must be positive). `k` may be anything a request names: the
    /// heap reserves at most [`TOP_K_RESERVE`] entries and grows as
    /// entries are kept, so a `k` past the candidate count keeps them all.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        BestK {
            k,
            heap: BinaryHeap::with_capacity(k.min(TOP_K_RESERVE) + 1),
        }
    }

    /// Current pruning bound: the k-th best key, or infinity while fewer
    /// than `k` entries have been kept (nothing can be ruled out yet).
    pub fn bound(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().expect("heap non-empty").0 .0
        }
    }

    /// Keep `(key, payload)` if it beats the current k-th best, evicting
    /// the worst entry when over capacity. Returns the updated bound.
    pub fn offer(&mut self, key: f64, payload: P) -> f64 {
        if key < self.bound() {
            self.heap.push((OrdF64(key), payload));
            if self.heap.len() > self.k {
                self.heap.pop();
            }
        }
        self.bound()
    }

    /// Number of entries currently kept (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The kept entries, ascending by `(key, payload)` — deterministic
    /// even under key ties.
    pub fn into_sorted(self) -> Vec<(f64, P)> {
        let mut out: Vec<(f64, P)> = self.heap.into_iter().map(|(k, p)| (k.0, p)).collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_k_smallest_and_reports_the_bound() {
        let mut acc: BestK<usize> = BestK::new(3);
        for (i, key) in [5.0, 1.0, 4.0, 2.0, 3.0, 0.5].into_iter().enumerate() {
            acc.offer(key, i);
        }
        assert_eq!(acc.len(), 3);
        assert_eq!(acc.bound(), 2.0);
        let sorted = acc.into_sorted();
        assert_eq!(
            sorted.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![0.5, 1.0, 2.0]
        );
    }

    #[test]
    fn underfull_bound_is_infinite_and_ties_break_by_payload() {
        let mut acc: BestK<u32> = BestK::new(4);
        assert!(acc.bound().is_infinite());
        assert!(acc.is_empty());
        acc.offer(1.0, 7);
        acc.offer(1.0, 3);
        assert!(acc.bound().is_infinite(), "still underfull");
        assert_eq!(acc.into_sorted(), vec![(1.0, 3), (1.0, 7)]);
    }

    #[test]
    fn entries_at_or_above_the_bound_are_rejected() {
        let mut acc: BestK<u32> = BestK::new(1);
        acc.offer(1.0, 0);
        let bound = acc.offer(1.0, 1); // equal key: not an improvement
        assert_eq!(bound, 1.0);
        assert_eq!(acc.into_sorted(), vec![(1.0, 0)]);
    }

    #[test]
    fn a_k_past_any_candidate_count_keeps_what_it_is_offered() {
        let mut acc: BestK<u32> = BestK::new(usize::MAX);
        for (i, key) in [3.0, 1.0, 2.0].into_iter().enumerate() {
            assert!(acc.offer(key, i as u32).is_infinite(), "never full");
        }
        assert_eq!(acc.into_sorted(), vec![(1.0, 1), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_is_rejected() {
        let _ = BestK::<u32>::new(0);
    }
}
