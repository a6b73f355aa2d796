use crate::OnexError;

/// Distance semantics a backend answers queries under. The four engines
/// the ONEX demo compares occupy four different points of this ladder —
/// the whole point of experiments E5/E10/E11 — so the unified trait keeps
/// the semantics explicit instead of pretending the numbers are
/// interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Metric {
    /// Raw-scale Euclidean distance over fixed-length windows (FRM \[4\]).
    RawEuclidean,
    /// Raw-scale DTW over indexed subsequences (ONEX itself).
    RawDtw,
    /// Z-normalised, band-constrained DTW (UCR Suite \[6\]).
    ZNormalizedDtw,
    /// Unconstrained subsequence DTW with free endpoints (SPRING \[7\],
    /// EBSM \[1\]).
    SubsequenceDtw,
}

impl Metric {
    /// Human-readable label (used by the server's JSON payloads and the
    /// bench tables).
    pub fn label(&self) -> &'static str {
        match self {
            Metric::RawEuclidean => "raw ED",
            Metric::RawDtw => "raw DTW",
            Metric::ZNormalizedDtw => "z-norm DTW",
            Metric::SubsequenceDtw => "subsequence DTW",
        }
    }
}

/// What a backend can and cannot do — capability introspection so generic
/// drivers (the bench harness, the server's `?backend=` route) adapt
/// without downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Distance semantics of reported [`BackendMatch::distance`] values.
    pub metric: Metric,
    /// Whether answers are exact under the backend's own metric (EBSM is
    /// the approximate one; ONEX is exact under the `Seed` policy).
    pub exact: bool,
    /// Whether matches may have a length different from the query's.
    pub multi_length: bool,
    /// Whether the backend can monitor unbounded streams (SPRING's
    /// `SpringBackend::monitor` in `onex-baselines`).
    pub streaming: bool,
    /// Whether `k_best` reports at most one match per stored series
    /// (engines built around per-series best-window scans).
    pub one_match_per_series: bool,
    /// Whether answers may be served from a result cache (a decorator
    /// like `CachedSearch`). Cached answers are bit-identical replays of
    /// a prior computation — work counters included — never approximations.
    pub cached: bool,
}

/// One answer of a [`SimilaritySearch::k_best`] query: a window of a
/// stored series, identified positionally so it resolves against any
/// representation of the collection (a `Dataset`, plain vectors, ...).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendMatch {
    /// Index of the series in the backend's collection (load order).
    pub series: u32,
    /// Start offset of the matched window.
    pub start: usize,
    /// Length of the matched window in samples.
    pub len: usize,
    /// Distance to the query under the backend's [`Metric`].
    pub distance: f64,
}

impl BackendMatch {
    /// End offset (exclusive).
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Backend-neutral work counters for one query. Each engine maps its
/// native accounting (group scans, lower-bound cascades, R-tree visits,
/// embedding refinements) onto these three, so generic drivers can
/// compare effort across engines.
///
/// `examined` and `pruned` are **disjoint** candidate sets: a candidate
/// is either dismissed by a filter (pruned) or actually evaluated
/// (examined), never both — so `pruned / (examined + pruned)` is a
/// meaningful cross-engine prune rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Candidates that survived every filter and were actually evaluated.
    pub examined: usize,
    /// Candidates dismissed by a filter before any distance computation.
    pub pruned: usize,
    /// Full distance computations started (DTW DP runs, ED verifications).
    pub distance_computations: usize,
    /// Where the pruning happened, per cascade tier. Backends without a
    /// tiered cascade leave this at zero; when populated, the tier prune
    /// counts it covers are a breakdown of (a subset of) `pruned`.
    pub tiers: TierPrunes,
}

/// Per-tier breakdown of a backend's lower-bound cascade: how many
/// candidates each tier rejected, plus how many surviving DTW runs
/// abandoned mid-DP. Tiers a backend does not implement stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierPrunes {
    /// Rejected by the quantised L0 sketch prefilter (before any f64
    /// data was resolved).
    pub l0: u64,
    /// Rejected by an LB_Kim-style corner bound.
    pub kim: u64,
    /// Rejected by an LB_Keogh-style envelope bound.
    pub keogh: u64,
    /// DTW computations that abandoned early instead of completing.
    pub dtw_abandoned: u64,
}

impl std::ops::AddAssign for TierPrunes {
    fn add_assign(&mut self, rhs: TierPrunes) {
        self.l0 += rhs.l0;
        self.kim += rhs.kim;
        self.keogh += rhs.keogh;
        self.dtw_abandoned += rhs.dtw_abandoned;
    }
}

impl BackendStats {
    /// Total effort proxy: examined candidates plus distance computations.
    /// Monotone in `k` for every backend in the workspace — the
    /// conformance suite asserts this.
    pub fn work(&self) -> usize {
        self.examined + self.distance_computations
    }
}

impl std::ops::AddAssign for BackendStats {
    fn add_assign(&mut self, rhs: BackendStats) {
        self.examined += rhs.examined;
        self.pruned += rhs.pruned;
        self.distance_computations += rhs.distance_computations;
        self.tiers += rhs.tiers;
    }
}

/// How much of a partitioned collection actually answered a query.
///
/// Single-process backends always see their whole collection, so they
/// leave [`SearchOutcome::coverage`] at `None`; a distributed fan-out
/// fills it in so callers can tell a complete answer from a degraded one
/// (some shard slots had no live replica) *typed*, instead of inferring
/// it from a shorter match list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shard slots that contributed their partition to this answer.
    pub shards_answered: u32,
    /// Shard slots the collection is partitioned over.
    pub shards_total: u32,
}

impl Coverage {
    /// Full coverage over `total` shards — every slot answered.
    pub fn full(total: u32) -> Self {
        Coverage {
            shards_answered: total,
            shards_total: total,
        }
    }

    /// Whether part of the collection is missing from the answer
    /// (`shards_answered < shards_total`).
    pub fn degraded(&self) -> bool {
        self.shards_answered < self.shards_total
    }
}

/// What a distributed fan-out does when a shard slot cannot answer
/// (every replica dead or erroring): the caller's availability/
/// completeness trade-off, made explicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradePolicy {
    /// Strict: any failed shard slot fails the whole query with that
    /// slot's typed error (the historical all-or-nothing behaviour).
    Fail,
    /// Available: answer over whatever shards survive — even one — and
    /// report the gap through [`Coverage`].
    Partial,
    /// Middle ground: answer if at least `q` shard slots contributed,
    /// otherwise fail with the first slot error. `Quorum(total)` is
    /// `Fail`; `Quorum(1)` is `Partial` (except that zero survivors
    /// always fail, under every policy).
    Quorum(u32),
}

impl DegradePolicy {
    /// Minimum number of answering shard slots (out of `total`) this
    /// policy demands before an answer may be returned.
    pub fn required(&self, total: u32) -> u32 {
        match self {
            DegradePolicy::Fail => total,
            DegradePolicy::Partial => 1.min(total),
            DegradePolicy::Quorum(q) => (*q).clamp(1, total.max(1)).min(total),
        }
    }

    /// Stable human-readable label (server JSON, bench tables).
    pub fn label(&self) -> &'static str {
        match self {
            DegradePolicy::Fail => "fail",
            DegradePolicy::Partial => "partial",
            DegradePolicy::Quorum(_) => "quorum",
        }
    }
}

/// A completed query: the matches (best first) and the work they cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchOutcome {
    /// Up to `k` matches, sorted by ascending distance (ascending
    /// length-normalised distance for multi-length backends).
    pub matches: Vec<BackendMatch>,
    /// Per-query work counters.
    pub stats: BackendStats,
    /// Shard coverage of the answer — `None` for backends that always
    /// see their whole collection, `Some` for distributed fan-outs (see
    /// [`Coverage`]).
    pub coverage: Option<Coverage>,
}

impl SearchOutcome {
    /// The best match, if any.
    pub fn best(&self) -> Option<&BackendMatch> {
        self.matches.first()
    }

    /// Whether this answer is missing part of the collection (see
    /// [`Coverage::degraded`]); `false` when coverage is untracked.
    pub fn degraded(&self) -> bool {
        self.coverage.is_some_and(|c| c.degraded())
    }
}

/// The unified similarity-search surface every engine in the workspace
/// implements: ONEX's grouping-based engine and the baselines it is
/// demonstrated against (UCR Suite, FRM/ST-index, EBSM, SPRING).
///
/// The contract, which `tests/backend_conformance.rs` checks for every
/// implementation:
///
/// * a query cut verbatim from a stored series comes back with distance
///   ≈ 0 as the best match;
/// * `k_best` returns at most `k` matches, sorted best-first, all
///   referring to distinct windows;
/// * [`BackendStats::work`] is monotone non-decreasing in `k`;
/// * an empty query, `k == 0`, or a non-finite sample yields
///   `Err(OnexError::InvalidQuery)` — never a panic.
pub trait SimilaritySearch {
    /// Short stable identifier (`"onex"`, `"ucrsuite"`, `"frm"`,
    /// `"ebsm"`, `"spring"`), used by the server's `?backend=` parameter
    /// and the bench tables.
    fn name(&self) -> &'static str;

    /// What this backend can do and what its distances mean.
    fn capabilities(&self) -> Capabilities;

    /// The `k` most similar stored windows, best first.
    ///
    /// # Errors
    /// [`OnexError::InvalidQuery`] when `k == 0`, the query is empty or
    /// contains non-finite values, or the query violates a backend
    /// length constraint.
    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError>;

    /// The single best match (`k_best` with `k = 1`).
    ///
    /// # Errors
    /// Same conditions as [`SimilaritySearch::k_best`].
    fn best_match(&self, query: &[f64]) -> Result<SearchOutcome, OnexError> {
        self.k_best(query, 1)
    }

    /// The data epoch this backend currently answers from (see
    /// [`Epoch`](crate::Epoch)). Mutable backends bump it on every
    /// committed ingest, so decorators (result caches, epoch-pinned
    /// fan-outs) can detect staleness without exclusive access; the
    /// default — for backends over immutable collections — is a constant
    /// `0`.
    fn epoch(&self) -> crate::Epoch {
        0
    }
}

/// Shared argument validation for `k_best` implementations: rejects
/// `k == 0`, empty queries and non-finite samples with
/// [`OnexError::InvalidQuery`].
pub fn validate_query(query: &[f64], k: usize) -> Result<(), OnexError> {
    if k == 0 {
        return Err(OnexError::invalid_query("k must be positive"));
    }
    if query.is_empty() {
        return Err(OnexError::invalid_query("query must be non-empty"));
    }
    if let Some(i) = query.iter().position(|v| !v.is_finite()) {
        return Err(OnexError::invalid_query(format!(
            "query sample {i} is not finite"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_query_catches_the_panic_cases() {
        assert!(matches!(
            validate_query(&[1.0], 0),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            validate_query(&[], 1),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            validate_query(&[1.0, f64::NAN], 1),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(validate_query(&[1.0, 2.0], 3).is_ok());
    }

    #[test]
    fn outcome_helpers() {
        let mut o = SearchOutcome::default();
        assert!(o.best().is_none());
        o.matches.push(BackendMatch {
            series: 2,
            start: 5,
            len: 8,
            distance: 0.25,
        });
        assert_eq!(o.best().unwrap().end(), 13);
        let mut s = BackendStats {
            examined: 3,
            pruned: 1,
            distance_computations: 2,
            tiers: TierPrunes {
                l0: 1,
                kim: 0,
                keogh: 0,
                dtw_abandoned: 1,
            },
        };
        s += BackendStats {
            examined: 1,
            pruned: 0,
            distance_computations: 1,
            tiers: TierPrunes {
                l0: 2,
                kim: 1,
                keogh: 3,
                dtw_abandoned: 0,
            },
        };
        assert_eq!(s.work(), 7);
        assert_eq!(s.tiers.l0, 3);
        assert_eq!(s.tiers.kim, 1);
        assert_eq!(s.tiers.keogh, 3);
        assert_eq!(s.tiers.dtw_abandoned, 1);
    }

    #[test]
    fn coverage_flags_degradation_exactly_when_partial() {
        assert!(!Coverage::full(4).degraded());
        assert!(Coverage {
            shards_answered: 3,
            shards_total: 4
        }
        .degraded());
        let mut o = SearchOutcome::default();
        assert!(!o.degraded(), "untracked coverage is not degraded");
        o.coverage = Some(Coverage {
            shards_answered: 1,
            shards_total: 2,
        });
        assert!(o.degraded());
        o.coverage = Some(Coverage::full(2));
        assert!(!o.degraded());
    }

    #[test]
    fn degrade_policy_required_counts() {
        assert_eq!(DegradePolicy::Fail.required(4), 4);
        assert_eq!(DegradePolicy::Partial.required(4), 1);
        assert_eq!(DegradePolicy::Partial.required(0), 0);
        assert_eq!(DegradePolicy::Quorum(3).required(4), 3);
        // A quorum larger than the fleet clamps to Fail semantics, and a
        // zero quorum still demands one survivor.
        assert_eq!(DegradePolicy::Quorum(9).required(4), 4);
        assert_eq!(DegradePolicy::Quorum(0).required(4), 1);
        for p in [
            DegradePolicy::Fail,
            DegradePolicy::Partial,
            DegradePolicy::Quorum(2),
        ] {
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn metric_labels_are_distinct() {
        let labels = [
            Metric::RawEuclidean.label(),
            Metric::RawDtw.label(),
            Metric::ZNormalizedDtw.label(),
            Metric::SubsequenceDtw.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
