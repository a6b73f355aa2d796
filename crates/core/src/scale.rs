//! Scale-out search: sharding and caching behind the same
//! [`SimilaritySearch`] seam every other engine implements.
//!
//! The paper's pitch is interactive-speed exploration; the ROADMAP's
//! north star is serving that experience under heavy concurrent traffic.
//! One engine over one partition caps out on both axes, so this module
//! provides the first two scale-out building blocks:
//!
//! * [`ShardedEngine`] — partitions a dataset across N in-process
//!   shards, builds one ONEX engine per shard **in parallel** and answers
//!   every query through the shared fan-out core ([`crate::fanout`]:
//!   round-robin placement, one persistent lane per shard, one
//!   query-global [`onex_api::SharedBound`], one deadline, one merge).
//!   What this engine adds on top is the **pinned shard map**: the
//!   shards' snapshots are published together, a query pins one map for
//!   its whole fan-out, so every shard answers from the same epoch no
//!   matter what appends commit mid-flight. Because each shard runs the
//!   exact two-phase plan over its own subsequence space, and every tie
//!   goes to the smaller window on every shard and in the merge, the
//!   merged top-k is the single-engine answer over the whole dataset,
//!   window for window (the conformance suite, the tied-collection test
//!   and benches E13/E14 assert this).
//! * [`CachedSearch`] — a decorator over *any* backend with a bounded
//!   LRU keyed on `(query values, k)`. Interactive exploration repeats
//!   queries constantly (brushing the same window, comparing backends);
//!   a hit replays the exact prior outcome — work counters included —
//!   at hash-map cost.
//!
//! Both register in [`crate::backends`] and are reachable through the
//! server's `?backend=sharded` / `?backend=cached` routes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use onex_api::{Capabilities, Epoch, OnexError, SearchOutcome, SimilaritySearch, Versioned};
use onex_grouping::{BaseConfig, BuildReport, RepresentativePolicy};
use onex_tseries::{Dataset, TimeSeries};

use crate::engine::EngineSnapshot;
use crate::fanout::{partition, slot_of, Fanout, PoolStats, Task};
use crate::{Onex, QueryOptions};

// ---------------------------------------------------------------------
// ShardedEngine
// ---------------------------------------------------------------------

/// What building a [`ShardedEngine`] cost: the per-shard construction
/// reports plus the wall-clock of the whole parallel build (shorter than
/// the per-shard sum — that difference is the build-side speedup).
#[derive(Debug, Clone)]
pub struct ShardedBuildReport {
    /// One construction report per shard, in shard order.
    pub per_shard: Vec<BuildReport>,
    /// Wall-clock of the parallel build across all shards.
    pub elapsed: Duration,
}

impl ShardedBuildReport {
    /// Total subsequences indexed across all shards.
    pub fn subsequences(&self) -> usize {
        self.per_shard.iter().map(|r| r.subsequences).sum()
    }

    /// Total groups created across all shards.
    pub fn groups(&self) -> usize {
        self.per_shard.iter().map(|r| r.groups).sum()
    }

    /// Sum of per-shard build times — what a sequential build of the same
    /// shards would have cost; divide by [`ShardedBuildReport::elapsed`]
    /// for the construction-side parallel speedup.
    pub fn serial_equivalent(&self) -> Duration {
        self.per_shard.iter().map(|r| r.elapsed).sum()
    }
}

/// The ONEX engine scaled across N in-process shards behind the unified
/// trait.
///
/// Series are partitioned round-robin (global series `g` → shard
/// `g mod N`, local id `g / N`), so shards stay balanced regardless of
/// load order, and every query runs through the shared [`Fanout`] core.
/// Per-shard [`onex_api::BackendStats`] sum into one report — the shards
/// index disjoint subsequence spaces, so the counters stay disjoint
/// (their *values* depend on how fast the shards tightened each other's
/// bounds; disable sharing via [`ShardedEngine::sharing_bound`] for
/// scheduling-independent per-shard counters). In-process shards share
/// one fate, so the engine runs under [`onex_api::DegradePolicy::Fail`]
/// and every answer reports full coverage.
///
/// Under an exact configuration the merged top-k is the single engine's,
/// window for window and bit for bit, ties included: windows tied at the
/// k-th distance (duplicated series, constant segments) go to the
/// smaller window whichever shard holds them and however the shards
/// raced on the bound.
///
/// ```
/// use onex_api::SimilaritySearch;
/// use onex_core::scale::ShardedEngine;
/// use onex_grouping::BaseConfig;
/// use onex_tseries::gen::{sine_mix_dataset, SyntheticConfig};
///
/// let ds = sine_mix_dataset(SyntheticConfig { series: 8, len: 64, seed: 5 }, 3, 0.1);
/// let query = ds.series(2).unwrap().subsequence(10, 16).unwrap().to_vec();
/// let (sharded, report) = ShardedEngine::build(&ds, BaseConfig::new(0.5, 16, 16), 4).unwrap();
/// assert_eq!(report.per_shard.len(), 4);
/// let best = sharded.best_match(&query).unwrap();
/// assert!(best.best().unwrap().distance < 1e-9);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    /// The shard engines themselves — stable for the engine's lifetime;
    /// appends go *through* them (each is its own [`Versioned`] cell).
    engines: Vec<Arc<Onex>>,
    /// The published shard map: one pinned snapshot per shard. A query
    /// pins one read transaction of this for its whole fan-out, so every
    /// shard answers from the same epoch;
    /// [`ShardedEngine::append_series`] publishes the next map atomically
    /// after the owning shard commits.
    state: Versioned<Vec<EngineSnapshot>>,
    fanout: Fanout,
}

/// One shard's work for one query: search the pinned snapshot.
fn local_task(snapshot: EngineSnapshot) -> Task {
    Box::new(move |job| {
        job.reply(
            snapshot
                .k_best_bounded(&job.query, job.k, &job.opts, &job.bound)
                .map(|(matches, stats)| crate::backends::outcome(matches, stats)),
        )
    })
}

impl ShardedEngine {
    /// Partition `dataset` across `shards` shards and build one engine
    /// per shard in parallel (each through [`Onex::build`], which spreads
    /// its own lengths over workers too). A shard count exceeding the
    /// series count is clamped — an empty shard answers nothing and only
    /// costs threads.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] when `shards == 0`, the dataset is
    /// empty, or `config` is invalid; [`OnexError::Internal`] when a
    /// shard build worker fails.
    pub fn build(
        dataset: &Dataset,
        config: BaseConfig,
        shards: usize,
    ) -> Result<(Self, ShardedBuildReport), OnexError> {
        if shards == 0 {
            return Err(OnexError::invalid_config("shard count must be positive"));
        }
        if dataset.is_empty() {
            return Err(OnexError::invalid_config("cannot shard an empty dataset"));
        }
        let start = Instant::now();
        let parts = partition(dataset, shards);
        let shards = parts.len();

        // Build every shard in parallel; a panicking worker is reported
        // as a typed Internal error instead of aborting the process.
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|ds| {
                    let config = config.clone();
                    scope.spawn(move || Onex::build(ds, config))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| OnexError::Internal("shard build worker panicked".into()))
                })
                .collect::<Vec<_>>()
        });

        let mut per_shard = Vec::with_capacity(shards);
        let mut engines = Vec::with_capacity(shards);
        for result in results {
            let (engine, report) = result??;
            per_shard.push(report);
            engines.push(Arc::new(engine));
        }
        let snapshots = engines.iter().map(|e| e.snapshot()).collect();
        Ok((
            ShardedEngine {
                fanout: Fanout::new("shard", engines.len()),
                engines,
                state: Versioned::new(snapshots),
            },
            ShardedBuildReport {
                per_shard,
                elapsed: start.elapsed(),
            },
        ))
    }

    /// Append a series to the sharded collection: the series lands on the
    /// shard the round-robin partition assigns to its global id, that
    /// shard's engine extends its own base ([`Onex::append_series`] —
    /// build-aside, atomic publish), and then the shard map with that
    /// shard's re-pinned snapshot is published atomically as the sharded
    /// engine's next epoch.
    ///
    /// In-flight and concurrent queries are never blocked: they keep
    /// answering from the shard map they pinned, every shard at that
    /// map's epoch. A failed append publishes nothing at either level.
    ///
    /// # Errors
    /// Same conditions as [`Onex::append_series`]; additionally
    /// [`OnexError::DatasetMismatch`] when the name is already taken by
    /// *any* shard — the per-shard engine can only see its own slice of
    /// the collection, so the global uniqueness check lives here.
    pub fn append_series(&self, series: TimeSeries) -> Result<BuildReport, OnexError> {
        let mut txn = self.state.write();
        let map = txn.base();
        if map
            .iter()
            .any(|s| s.dataset().by_name(series.name()).is_some())
        {
            return Err(OnexError::DatasetMismatch(format!(
                "duplicate series name {:?}",
                series.name()
            )));
        }
        let total: usize = map.iter().map(|s| s.dataset().len()).sum();
        let s = slot_of(total as u32, self.engines.len());
        // The shard engine commits its own epoch first; an error here
        // drops our transaction with the map untouched.
        let mut report = self.engines[s].append_series(series)?;
        txn.value_mut()[s] = self.engines[s].snapshot();
        // The shard's report, restamped for the collection as a whole.
        report.series = total + 1;
        report.epoch = txn.commit();
        Ok(report)
    }

    /// The currently-published shard-map epoch (bumped by every committed
    /// [`ShardedEngine::append_series`]).
    pub fn epoch(&self) -> Epoch {
        self.state.epoch()
    }

    /// Builder-style: run every trait query under `opts`. Series ids in
    /// the options (`exclude_series`, `only_series`, `exclude_windows`)
    /// use the **global** numbering; they are translated per shard.
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.fanout.opts = opts;
        self
    }

    /// Builder-style: share one query-global [`onex_api::SharedBound`]
    /// across the shards of each query (`true`, the default) or give
    /// every shard an independent bound (`false` — the pre-sharing
    /// behaviour, whose per-shard work counters do not depend on
    /// scheduling; bench E14 measures both).
    pub fn sharing_bound(mut self, share: bool) -> Self {
        self.fanout.share_bound = share;
        self
    }

    /// Counters of the persistent query-worker pool. `threads_spawned`
    /// equals the shard count for the engine's whole lifetime — queries
    /// are channel sends, never spawns.
    pub fn pool_stats(&self) -> PoolStats {
        self.fanout.pool_stats()
    }

    /// Number of shards actually built (≤ the requested count).
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// Fan `query` out and return **each shard's own outcome** (in shard
    /// order, series ids still shard-local) — the per-shard view behind
    /// [`SimilaritySearch::k_best`], exposed for diagnostics and the
    /// bench harness's critical-path accounting: the slowest shard's
    /// touched candidates (examined + pruned + distance computations)
    /// bound the parallel query's critical path, so `single-engine
    /// touches / max shard touches` is the speedup the decomposition
    /// makes available independent of core count (bench E13's
    /// machine-independent speedup column). With bound sharing on,
    /// per-shard *work counters* depend on how the shards interleaved;
    /// the merged *matches* do not.
    ///
    /// # Errors
    /// Same conditions as [`SimilaritySearch::k_best`].
    pub fn shard_outcomes(&self, query: &[f64], k: usize) -> Result<Vec<SearchOutcome>, OnexError> {
        let map = self.state.read();
        let per_slot = self
            .fanout
            .per_slot(query, k, |s| local_task(map[s].clone()))?;
        per_slot.into_iter().collect()
    }
}

impl SimilaritySearch for ShardedEngine {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn capabilities(&self) -> Capabilities {
        // All shards share one config; the first speaks for all.
        self.fanout
            .capabilities(self.engines[0].base().config().policy == RepresentativePolicy::Seed)
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        // One read transaction pins the shard map for the whole fan-out:
        // a concurrent append cannot give this query a mixed-epoch answer.
        let map = self.state.read();
        self.fanout.k_best(query, k, |s| local_task(map[s].clone()))
    }

    fn epoch(&self) -> Epoch {
        self.state.epoch()
    }
}

// ---------------------------------------------------------------------
// CachedSearch
// ---------------------------------------------------------------------

/// Cache key: the query's exact bit patterns plus `k`. Backend
/// parameters do not appear because a [`CachedSearch`] wraps one backend
/// instance whose parameters are fixed for its lifetime; the backend's
/// *data* version is tracked separately — every entry lives under the
/// [`SimilaritySearch::epoch`] the cache was filled at, and the whole
/// cache clears the moment the backend answers from a newer epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    query: Vec<u64>,
    k: usize,
}

impl CacheKey {
    fn new(query: &[f64], k: usize) -> Self {
        CacheKey {
            query: query.iter().map(|v| v.to_bits()).collect(),
            k,
        }
    }
}

/// The LRU state behind the mutex: entries stamped with a monotone
/// counter; eviction drops the smallest stamp. Eviction scans the map
/// (O(capacity)), which is deliberate — capacities are small (hundreds),
/// and the scan keeps the structure a single flat map with no unsafe
/// pointer links.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    stamp: u64,
    /// The backend epoch every cached entry was computed against. The
    /// map never mixes epochs: `sync_epoch` clears it whenever the
    /// backend has moved on.
    epoch: Epoch,
    map: HashMap<CacheKey, (SearchOutcome, u64)>,
}

impl Lru {
    /// Align the map with the backend epoch `now`: if the backend has
    /// published anything since the entries were computed, drop them all.
    /// Epochs are monotone, so equality means "same data".
    fn sync_epoch(&mut self, now: Epoch) {
        if self.epoch != now {
            self.map.clear();
            self.epoch = now;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<SearchOutcome> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.map.get_mut(key).map(|(outcome, used)| {
            *used = stamp;
            outcome.clone()
        })
    }

    fn insert(&mut self, key: CacheKey, outcome: SearchOutcome) {
        self.stamp += 1;
        self.map.insert(key, (outcome, self.stamp));
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("map over capacity is non-empty");
            self.map.remove(&oldest);
        }
    }
}

/// Observability counters of a [`CachedSearch`] (all monotone except
/// `entries`, which is bounded by `capacity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: usize,
    /// Queries answered by the wrapped backend (and then cached).
    pub misses: usize,
    /// Entries currently cached (≤ `capacity`).
    pub entries: usize,
    /// Maximum entries kept.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all answered queries (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded-LRU caching decorator over any [`SimilaritySearch`] backend.
///
/// A hit replays the stored [`SearchOutcome`] bit-for-bit — matches *and*
/// work counters — so callers observe exactly what the original
/// computation reported (keeping the conformance suite's stats
/// monotonicity intact). Only successful answers are cached; errors
/// always revalidate.
///
/// **Staleness contract:** invalidation is *epoch-based*. Every entry is
/// stamped with the backend's [`SimilaritySearch::epoch`] at the time it
/// was computed; on every lookup the cache first compares its stamp with
/// the backend's current epoch and clears itself if the backend has
/// published anything since — so a result computed before an append can
/// never be served after it, even when the mutation happened through a
/// shared handle (`Arc<Onex>`, [`ShardedEngine`]) that never touched the
/// cache. Because epochs are monotone, a computed result is inserted only
/// if the backend is *still* on the epoch captured before the compute
/// began — a concurrent append between compute and insert discards the
/// result instead of caching it against the wrong epoch.
///
/// ```
/// use std::sync::Arc;
///
/// use onex_api::SimilaritySearch;
/// use onex_core::backends::OnexBackend;
/// use onex_core::scale::CachedSearch;
/// use onex_core::Onex;
/// use onex_grouping::BaseConfig;
/// use onex_tseries::gen::{sine_mix_dataset, SyntheticConfig};
///
/// let ds = sine_mix_dataset(SyntheticConfig { series: 4, len: 64, seed: 5 }, 3, 0.1);
/// let query = ds.series(0).unwrap().subsequence(20, 16).unwrap().to_vec();
/// let (engine, _) = Onex::build(ds, BaseConfig::new(0.5, 16, 16)).unwrap();
/// let cached = CachedSearch::new(OnexBackend::new(Arc::new(engine)), 64).unwrap();
/// let first = cached.k_best(&query, 3).unwrap();
/// let replay = cached.k_best(&query, 3).unwrap();
/// assert_eq!(first, replay);
/// assert_eq!(cached.cache_stats().hits, 1);
/// assert_eq!(cached.cache_stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct CachedSearch<B> {
    inner: B,
    cache: Mutex<Lru>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<B: SimilaritySearch> CachedSearch<B> {
    /// Wrap `inner` with a cache of at most `capacity` entries.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] when `capacity == 0`.
    pub fn new(inner: B, capacity: usize) -> Result<Self, OnexError> {
        if capacity == 0 {
            return Err(OnexError::invalid_config("cache capacity must be positive"));
        }
        let epoch = inner.epoch();
        Ok(CachedSearch {
            inner,
            cache: Mutex::new(Lru {
                capacity,
                stamp: 0,
                epoch,
                map: HashMap::new(),
            }),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        })
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.inner
    }

    /// Current counters. `hits + misses` equals the number of
    /// successfully answered queries; errored queries touch neither.
    pub fn cache_stats(&self) -> CacheStats {
        let lru = self.cache.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: lru.map.len(),
            capacity: lru.capacity,
        }
    }
}

impl<B: SimilaritySearch> SimilaritySearch for CachedSearch<B> {
    fn name(&self) -> &'static str {
        "cached"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            cached: true,
            ..self.inner.capabilities()
        }
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        let key = CacheKey::new(query, k);
        // Capture the backend epoch *before* computing: whatever answer
        // the backend gives was computed against this epoch or a later
        // one, so it is only safe to cache if the backend is still on
        // exactly this epoch afterwards (epochs are monotone).
        let epoch = self.inner.epoch();
        {
            let mut lru = self.cache.lock();
            lru.sync_epoch(epoch);
            if let Some(outcome) = lru.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(outcome);
            }
        }
        // Compute outside the lock: concurrent misses on the same key may
        // duplicate work, but never block each other behind a slow query.
        let outcome = self.inner.k_best(query, k)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut lru = self.cache.lock();
        // Insert only if nothing was published while we computed — both
        // on the backend side and in the cache's own stamp. Otherwise
        // the (correct) answer is returned uncached.
        if lru.epoch == epoch && self.inner.epoch() == epoch {
            lru.insert(key, outcome.clone());
        }
        drop(lru);
        Ok(outcome)
    }

    fn epoch(&self) -> Epoch {
        self.inner.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::OnexBackend;
    use crate::LengthSelection;
    use onex_api::BackendStats;
    use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};

    const LEN: usize = 16;

    fn dataset(series: usize) -> Dataset {
        random_walk_dataset(SyntheticConfig {
            series,
            len: 96,
            seed: 0xD15C,
        })
    }

    /// Exact configuration: Seed policy + exact scan, so both the single
    /// engine and every shard return the provably best answers and the
    /// merge must reproduce the single-engine top-k exactly.
    fn exact_config() -> BaseConfig {
        BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(0.5, LEN, LEN)
        }
    }

    fn single(ds: &Dataset) -> OnexBackend {
        let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
        OnexBackend::new(Arc::new(engine))
    }

    #[test]
    fn round_robin_partition_is_balanced_and_complete() {
        let ds = dataset(10);
        let (sharded, report) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        assert_eq!(sharded.shard_count(), 4);
        let sizes: Vec<usize> = sharded
            .state
            .read()
            .iter()
            .map(|s| s.dataset().len())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
        assert_eq!(report.per_shard.len(), 4);
        assert!(report.subsequences() > 0);
        // Placement is arithmetic, before and after live appends: shard
        // `s` holds global series `local * N + s` as its `local`-th, so
        // every global id appears in exactly one shard.
        let placed = |sharded: &ShardedEngine, names: &[String]| {
            let map = sharded.state.read();
            let n = sharded.shard_count();
            let mut seen = 0;
            for (s, snapshot) in map.iter().enumerate() {
                for (local, series) in snapshot.dataset().iter() {
                    let g = crate::fanout::global(local, s, n) as usize;
                    assert_eq!(series.name(), names[g], "shard {s} local {local}");
                    seen += 1;
                }
            }
            assert_eq!(seen, names.len());
        };
        let mut names: Vec<String> = ds.iter().map(|(_, s)| s.name().to_owned()).collect();
        placed(&sharded, &names);
        for m in 0..5 {
            let values: Vec<f64> = (0..40)
                .map(|i| ((i * (m + 2)) as f64 * 0.37).sin() * 3.0)
                .collect();
            let report = sharded
                .append_series(TimeSeries::new(format!("live-{m}"), values.clone()))
                .unwrap();
            names.push(format!("live-{m}"));
            assert_eq!(report.series, names.len());
            placed(&sharded, &names);
            // The merged answer names the appended series by its global id.
            let best = sharded.best_match(&values[3..3 + LEN]).unwrap();
            let best = best.best().unwrap();
            assert_eq!((best.series as usize, best.start), (names.len() - 1, 3));
        }
    }

    #[test]
    fn sharded_top_k_matches_the_single_engine() {
        let ds = dataset(9);
        let single = single(&ds);
        for shards in [1, 2, 3, 4] {
            let (sharded, _) = ShardedEngine::build(&ds, exact_config(), shards).unwrap();
            for (sid, start) in [(0u32, 5usize), (4, 30), (8, 61)] {
                let query = ds
                    .series(sid)
                    .unwrap()
                    .subsequence(start, LEN)
                    .unwrap()
                    .to_vec();
                let a = single.k_best(&query, 5).unwrap();
                let b = sharded.k_best(&query, 5).unwrap();
                assert_eq!(a.matches, b.matches, "{shards} shards");
            }
        }
    }

    #[test]
    fn sharded_stats_aggregate_disjointly() {
        let ds = dataset(8);
        // Independent bounds make per-shard work scheduling-independent,
        // so the merged counters must be the exact sums of direct
        // per-shard queries.
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let sharded = sharded.sharing_bound(false);
        let query = ds.series(1).unwrap().subsequence(10, LEN).unwrap().to_vec();
        let merged = sharded.k_best(&query, 3).unwrap().stats;
        let mut expect = BackendStats::default();
        for engine in &sharded.engines {
            let out = OnexBackend::new(Arc::clone(engine))
                .k_best(&query, 3)
                .unwrap();
            expect += out.stats;
        }
        assert_eq!(merged, expect);
        assert!(merged.work() > 0);
    }

    #[test]
    fn shared_bound_answers_identically_and_saves_work_over_a_batch() {
        let ds = dataset(12);
        let (shared, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let (independent, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let independent = independent.sharing_bound(false);
        // Answers are compared per query; work only over the batch, and
        // only as "some round saved some". A per-query `shared <=
        // independent` is not a theorem: a shard compares a candidate
        // with a bound up to one 64-slot block (L0) or three candidates
        // (the 4-lane DTW queue) stale, and a bound a peer tightened
        // moves which candidates share a batch. A candidate that queued
        // *behind* the DTW whose result would have dismissed it at
        // LB_Keogh in the independent run can, with an earlier candidate
        // gone from the queue, land in the *same* batch as that DTW and
        // start — a few more DTWs on one shard (146 against 143 in 7 of
        // 60 loaded runs), the answers untouched. How much sharing saves
        // depends on shard interleaving too, so the batch is retried a
        // few times and must save work in at least one round.
        let mut any_savings = false;
        for _round in 0..3 {
            let (mut with, mut without) = (0, 0);
            for (sid, start) in [(0u32, 5usize), (3, 22), (7, 41), (11, 60)] {
                let query = ds
                    .series(sid)
                    .unwrap()
                    .subsequence(start, LEN)
                    .unwrap()
                    .to_vec();
                let a = shared.k_best(&query, 3).unwrap();
                let b = independent.k_best(&query, 3).unwrap();
                assert_eq!(a.matches, b.matches);
                with += a.stats.work();
                without += b.stats.work();
            }
            any_savings |= with < without;
            if any_savings {
                break;
            }
        }
        assert!(
            any_savings,
            "the shared bound saved nothing over three batches of 4 fan-outs"
        );
    }

    #[test]
    fn query_pool_is_reused_across_queries_never_respawned() {
        let ds = dataset(9);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 3).unwrap();
        let before = sharded.pool_stats();
        assert_eq!(before.workers, 3, "one worker per shard");
        assert_eq!(before.threads_spawned, 3);
        const QUERIES: usize = 20;
        for i in 0..QUERIES {
            let query = ds
                .series((i % 9) as u32)
                .unwrap()
                .subsequence(i % 40, LEN)
                .unwrap()
                .to_vec();
            let out = sharded.k_best(&query, 2).unwrap();
            assert!(!out.matches.is_empty());
        }
        let after = sharded.pool_stats();
        assert_eq!(
            after.threads_spawned, 3,
            "queries must never spawn threads — the pool is the lifetime"
        );
        assert_eq!(
            after.jobs_executed,
            before.jobs_executed + QUERIES * 3,
            "every query fans exactly one job to each shard"
        );
    }

    #[test]
    fn sharded_respects_global_series_options() {
        let ds = dataset(8);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 3).unwrap();
        let query = ds.series(5).unwrap().subsequence(20, LEN).unwrap().to_vec();

        // Excluding the query's own series removes its verbatim window.
        let excl = ShardedEngine::build(&ds, exact_config(), 3)
            .unwrap()
            .0
            .with_options(QueryOptions::default().excluding_series(Some(5)));
        let out = excl.k_best(&query, 4).unwrap();
        assert!(out.matches.iter().all(|m| m.series != 5));

        // only_series pins every answer to one global series (which lives
        // in exactly one shard; the others contribute nothing).
        let only = ShardedEngine::build(&ds, exact_config(), 3)
            .unwrap()
            .0
            .with_options(QueryOptions::default().within_series(5));
        let out = only.k_best(&query, 4).unwrap();
        assert!(!out.matches.is_empty());
        assert!(out.matches.iter().all(|m| m.series == 5));
        assert_eq!(out.matches[0].start, 20, "verbatim window wins");

        // And the unfiltered engine finds the verbatim window globally.
        let best = sharded.best_match(&query).unwrap();
        let best = best.best().unwrap();
        assert_eq!((best.series, best.start), (5, 20));
        assert!(best.distance < 1e-9);
    }

    #[test]
    fn sharded_config_errors_are_typed() {
        let ds = dataset(4);
        assert!(matches!(
            ShardedEngine::build(&ds, exact_config(), 0),
            Err(OnexError::InvalidConfig(_))
        ));
        assert!(matches!(
            ShardedEngine::build(&Dataset::new(), exact_config(), 2),
            Err(OnexError::InvalidConfig(_))
        ));
        // Shard count clamps to the series count instead of erroring.
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 64).unwrap();
        assert_eq!(sharded.shard_count(), 4);
        // Invalid queries are typed, never panics.
        assert!(matches!(
            sharded.k_best(&[], 1),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            sharded.k_best(&[1.0; LEN], 0),
            Err(OnexError::InvalidQuery(_))
        ));
    }

    #[test]
    fn sharded_capabilities_track_policy_and_options() {
        let ds = dataset(6);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 2).unwrap();
        let caps = sharded.capabilities();
        assert!(caps.exact, "Seed policy + exact scan is exact");
        assert!(!caps.multi_length);
        assert!(!caps.cached);
        let near = ShardedEngine::build(&ds, exact_config(), 2)
            .unwrap()
            .0
            .with_options(QueryOptions::default().lengths(LengthSelection::Nearest(3)));
        assert!(near.capabilities().multi_length);
        let centroid = ShardedEngine::build(&ds, BaseConfig::new(0.5, LEN, LEN), 2)
            .unwrap()
            .0;
        assert!(!centroid.capabilities().exact, "centroid policy drifts");
    }

    #[test]
    fn cache_hits_replay_the_exact_outcome() {
        let ds = dataset(6);
        let cached = CachedSearch::new(single(&ds), 8).unwrap();
        let q1 = ds.series(0).unwrap().subsequence(3, LEN).unwrap().to_vec();
        let q2 = ds.series(2).unwrap().subsequence(9, LEN).unwrap().to_vec();
        let first = cached.k_best(&q1, 3).unwrap();
        assert_eq!(cached.cache_stats().misses, 1);
        assert_eq!(cached.cache_stats().hits, 0);
        let replay = cached.k_best(&q1, 3).unwrap();
        assert_eq!(first, replay, "hit replays matches and stats verbatim");
        assert_eq!(cached.cache_stats().hits, 1);
        // Different k is a different key.
        let _ = cached.k_best(&q1, 2).unwrap();
        let _ = cached.k_best(&q2, 3).unwrap();
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
        assert!(stats.hit_rate() > 0.24 && stats.hit_rate() < 0.26);
    }

    #[test]
    fn cache_is_bounded_lru() {
        let ds = dataset(5);
        let cached = CachedSearch::new(single(&ds), 2).unwrap();
        let q = |i: u32| ds.series(i).unwrap().subsequence(0, LEN).unwrap().to_vec();
        cached.k_best(&q(0), 1).unwrap();
        cached.k_best(&q(1), 1).unwrap();
        cached.k_best(&q(0), 1).unwrap(); // touch 0 — now 1 is the LRU
        cached.k_best(&q(2), 1).unwrap(); // evicts 1
        assert_eq!(cached.cache_stats().entries, 2);
        cached.k_best(&q(0), 1).unwrap();
        assert_eq!(cached.cache_stats().hits, 2, "0 stayed cached");
        cached.k_best(&q(1), 1).unwrap();
        assert_eq!(cached.cache_stats().misses, 4, "1 was evicted");
    }

    #[test]
    fn cache_never_serves_stale_results_after_extend() {
        let ds = dataset(5);
        let query = ds.series(1).unwrap().subsequence(12, LEN).unwrap().to_vec();
        let other = ds.series(3).unwrap().subsequence(40, LEN).unwrap().to_vec();
        let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
        let engine = Arc::new(engine);
        // The query's own series is excluded, so until the append the
        // best match lies elsewhere.
        let backend = OnexBackend::new(Arc::clone(&engine))
            .with_options(QueryOptions::default().excluding_series(Some(1)));
        let cached = CachedSearch::new(backend, 16).unwrap();
        let before = cached.k_best(&query, 1).unwrap();
        assert_eq!(cached.k_best(&query, 1).unwrap(), before);
        cached.k_best(&other, 1).unwrap();
        let warm = cached.cache_stats();
        assert_eq!((warm.hits, warm.misses, warm.entries), (1, 2, 2));
        assert!(before.best().unwrap().distance > 1e-9);

        // Append an exact clone of series 1 through the shared engine,
        // never touching the cache: the backend's epoch moves on, and the
        // next lookup drops every entry computed before it.
        let epoch = cached.epoch();
        engine
            .append_series(TimeSeries::new(
                "clone",
                ds.series(1).unwrap().values().to_vec(),
            ))
            .unwrap();
        assert!(cached.epoch() > epoch);
        let after = cached.k_best(&query, 1).unwrap();
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 1));
        let best = after.best().unwrap();
        assert_eq!(best.series, 5, "answer reflects the extended dataset");
        assert!(best.distance < 1e-9);
    }

    #[test]
    fn cache_capabilities_and_errors() {
        let ds = dataset(4);
        assert!(matches!(
            CachedSearch::new(single(&ds), 0),
            Err(OnexError::InvalidConfig(_))
        ));
        let cached = CachedSearch::new(single(&ds), 4).unwrap();
        assert_eq!(cached.name(), "cached");
        assert!(cached.capabilities().cached);
        assert_eq!(
            cached.capabilities().metric,
            cached.backend().capabilities().metric
        );
        // Errors pass through untouched and touch no counters.
        assert!(matches!(
            cached.k_best(&[], 1),
            Err(OnexError::InvalidQuery(_))
        ));
        let stats = cached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn sharding_composes_with_caching() {
        let ds = dataset(8);
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 4).unwrap();
        let cached = CachedSearch::new(sharded, 8).unwrap();
        let query = ds.series(3).unwrap().subsequence(7, LEN).unwrap().to_vec();
        let a = cached.k_best(&query, 3).unwrap();
        let b = cached.k_best(&query, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(cached.cache_stats().hits, 1);
        assert!(cached.capabilities().cached);
        assert_eq!(cached.capabilities().metric, onex_api::Metric::RawDtw);
    }
}
