//! Bounded best-`k` accumulation — the shared machinery behind every
//! top-k search in the workspace: the engine's searcher
//! (`onex_core::search`, whose every offer publishes [`BestK::bound`] to
//! the query's [`SharedBound`](crate::SharedBound)), the exhaustive scan
//! it is tested against (`onex_core::exhaustive`), the fan-out merge, and
//! the comparison systems' scans (UCR Suite windows, FRM's incremental
//! nearest-neighbour traversal, ...).
//!
//! **The answer order.** Every top-k answer in the workspace is the first
//! `k` entries under `(key, payload)` — for a subsequence search,
//! (normalised distance, window) — whatever order the candidates are
//! offered in. [`BestK::offer`] keeps an entry when it sorts below the
//! current k-th `(key, payload)`, so a tie at the k-th key goes to the
//! smaller payload, not to whichever was offered first; the bound the
//! searches prune against is the k-th *key*, and every exact prune test
//! drops only what *exceeds* it, so every entry tied at the bound reaches
//! the accumulator. One searcher, N shards racing on a shared bound, the
//! fan-out merge and the exhaustive oracle therefore return the same
//! entries, bit for bit.

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

    /// Keep `(key, payload)` if it sorts below the current k-th
    /// `(key, payload)` — any finite key while fewer than `k` are kept —
    /// evicting the k-th. What is kept does not depend on the order of
    /// the offers. Returns the updated bound.
    pub fn offer(&mut self, key: f64, payload: P) -> f64 {
        let entry = (OrdF64(key), payload);
        if self.heap.len() < self.k {
            if key < f64::INFINITY {
                self.heap.push(entry);
            }
        } else if let Some(mut kth) = self.heap.peek_mut() {
            if entry < *kth {
                *kth = entry;
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
        acc.offer(0.5, 9);
        acc.offer(1.0, 5);
        // Full: a tie at the k-th key goes to the smaller payload.
        assert_eq!(acc.offer(1.0, 4), 1.0);
        assert_eq!(
            acc.into_sorted(),
            vec![(0.5, 9), (1.0, 3), (1.0, 4), (1.0, 5)]
        );
    }

    #[test]
    fn entries_at_or_above_the_bound_are_rejected() {
        let mut acc: BestK<u32> = BestK::new(1);
        acc.offer(1.0, 0);
        let bound = acc.offer(1.0, 1); // equal key, larger payload
        assert_eq!(bound, 1.0);
        acc.offer(2.0, 0);
        assert_eq!(acc.into_sorted(), vec![(1.0, 0)]);
    }

    #[test]
    fn non_finite_keys_are_never_kept() {
        let mut acc: BestK<u32> = BestK::new(2);
        acc.offer(f64::INFINITY, 0);
        acc.offer(f64::NAN, 1);
        assert!(acc.is_empty());
        acc.offer(1.0, 2);
        acc.offer(2.0, 3);
        acc.offer(f64::NAN, 0);
        assert_eq!(acc.into_sorted(), vec![(1.0, 2), (2.0, 3)]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Keys from a handful of values, so most of them tie: two
            /// permutations of the same offers keep the same entries.
            #[test]
            fn the_kept_entries_do_not_depend_on_the_offer_order(
                keys in proptest::collection::vec(0u8..4, 1..40),
                k in 1usize..12,
                seeds in (any::<u64>(), any::<u64>()),
            ) {
                let offers: Vec<(f64, usize)> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, &key)| (f64::from(key) * 0.5, i))
                    .collect();
                let run = |seed: u64| {
                    let mut order = offers.clone();
                    shuffle(&mut order, seed);
                    let mut acc = BestK::new(k);
                    for (key, payload) in order {
                        acc.offer(key, payload);
                    }
                    acc.into_sorted()
                };
                let mut want = offers.clone();
                want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                want.truncate(k);
                prop_assert_eq!(run(seeds.0), want.clone());
                prop_assert_eq!(run(seeds.1), want);
            }
        }

        /// Fisher–Yates under a SplitMix64 stream.
        fn shuffle<T>(items: &mut [T], mut state: u64) {
            for i in (1..items.len()).rev() {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                items.swap(i, (z % (i as u64 + 1)) as usize);
            }
        }
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
