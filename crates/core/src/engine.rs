use std::ops::Deref;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use onex_api::{validate_query, Epoch, OnexError, ReadTxn, SharedBound, Versioned, TOP_K_RESERVE};
use onex_grouping::persist::BaseSegment;
use onex_grouping::{BaseBuilder, BaseConfig, BuildReport, OnexBase, ResidentIndex};
use onex_tseries::Dataset;

use crate::search::Searcher;
use crate::seasonal::{seasonal_patterns, SeasonalOptions};
use crate::threshold::{recommend, ThresholdRecommendation};
use crate::{Match, QueryOptions, QueryStats, SeasonalPattern};

/// The dataset and its base, published together as one immutable epoch:
/// a query that pins this pair can never see a dataset/base mismatch,
/// whatever appends do concurrently.
#[derive(Debug, Clone)]
struct EngineState {
    dataset: Dataset,
    base: OnexBase,
    /// Where the base came from, when it was opened or installed from an
    /// image; `None` for a base built in memory.
    source: Option<BaseSource>,
}

/// The writer's nearest-representative index, kept between appends so
/// one append costs what its new windows cost. It lives beside the
/// writer lock and is touched only inside a write transaction (and read
/// by [`Onex::resident_index`]).
#[derive(Debug, Default)]
struct Resident {
    index: ResidentIndex,
    /// The published epoch whose base `index` mirrors. `None` before the
    /// first append and from the moment an append starts mutating the
    /// index until its commit — so an append that fails, panics or is
    /// rolled back leaves a stamp no epoch matches, and the next append
    /// re-seeds instead of trusting admissions that were never published.
    epoch: Option<Epoch>,
}

/// What [`Onex::resident_index`] reports about the writer's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentReport {
    /// `"grid"`, or `"none"` when nothing is seeded: no append yet, or the
    /// index was dropped.
    pub kind: &'static str,
    /// Representatives indexed, over all lengths.
    pub entries: usize,
    /// The epoch the index mirrors; `None` when the next append will
    /// re-seed it.
    pub epoch: Option<Epoch>,
    /// Length columns seeded from the base so far. One per length after
    /// the first append and constant from then on; growth per append
    /// means something keeps invalidating the index.
    pub seeds: u64,
    /// Heap bytes the index keeps (its own estimate, from capacities): 0
    /// until the first append seeds it.
    pub bytes: usize,
}

/// Provenance of a base opened or installed from an image
/// ([`Onex::base_source`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseSource {
    /// File the base was opened from (`None` when it arrived as bytes,
    /// e.g. shipped to a shard over the wire).
    pub path: Option<PathBuf>,
}

/// The ONEX engine: a dataset, its precomputed base, and the paper's
/// exploratory operations (Fig 1's query processor).
///
/// Queries take `&self`, so one engine can serve many threads (the demo's
/// client–server architecture); cumulative work counters are kept behind a
/// mutex and exposed through [`Onex::lifetime_stats`].
///
/// Both the dataset and the base live in one snapshot-versioned cell
/// ([`Versioned`]): every query pins an immutable [`EngineSnapshot`] for
/// its whole run, while [`Onex::append_series`] builds the next epoch off
/// to the side and publishes it atomically — readers never block on an
/// in-progress append and never observe a partially-extended base, and a
/// failed append leaves the current epoch untouched (see the
/// [`onex_api::Versioned`] docs for the lifecycle).
///
/// ```
/// use onex_core::{Onex, QueryOptions};
/// use onex_grouping::BaseConfig;
/// use onex_tseries::gen::{sine_mix_dataset, SyntheticConfig};
///
/// let data = sine_mix_dataset(
///     SyntheticConfig { series: 8, len: 64, seed: 7 },
///     3,
///     0.1,
/// );
/// let (engine, report) = Onex::build(data, BaseConfig::new(0.5, 16, 16)).unwrap();
/// assert!(report.groups > 0);
///
/// // Query with a window cut from the collection: it finds itself.
/// let query = engine.dataset().series(0).unwrap().subsequence(10, 16).unwrap().to_vec();
/// let (best, _) = engine.best_match(&query, &QueryOptions::default()).unwrap();
/// assert!(best.unwrap().distance < 1e-9);
/// ```
#[derive(Debug)]
pub struct Onex {
    state: Versioned<EngineState>,
    lifetime: Arc<Mutex<QueryStats>>,
    /// Seeded by the first append (never at build/open), and re-seeded
    /// whenever its stamp is not the epoch being extended: after
    /// [`Onex::install_base`], or an append that did not commit.
    resident: Mutex<Resident>,
    /// Test-only fault injection: make the next append fail after the
    /// extension has run (dataset grown, resident index mutated),
    /// exercising the rollback path — the published epoch must be
    /// untouched and the index discarded.
    #[cfg(test)]
    fail_next_extend: std::sync::atomic::AtomicBool,
}

impl Onex {
    /// Build the base over `dataset` and wrap both in an engine — the
    /// demo's "Data Loading into ONEX" step. Construction spreads the
    /// lengths over the cores this process may run on.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] for an invalid configuration;
    /// [`OnexError::Internal`] when a construction worker panics (the
    /// failure is reported instead of unwinding through the caller, so a
    /// server can answer the load request with a 500 and keep serving).
    pub fn build(dataset: Dataset, config: BaseConfig) -> Result<(Self, BuildReport), OnexError> {
        Self::build_with(dataset, config, BaseBuilder::build)
    }

    /// [`Onex::build`] through `build`, the construction step.
    fn build_with(
        dataset: Dataset,
        config: BaseConfig,
        build: impl FnOnce(&BaseBuilder, &Dataset) -> (OnexBase, BuildReport),
    ) -> Result<(Self, BuildReport), OnexError> {
        let builder = BaseBuilder::new(config)?;
        let built = std::panic::catch_unwind(AssertUnwindSafe(|| build(&builder, &dataset)));
        let (base, report) = built.map_err(|panic| {
            OnexError::Internal(format!(
                "a construction worker failed: {}",
                panic_message(panic.as_ref())
            ))
        })?;
        Ok((Self::from_parts(dataset, base)?, report))
    }

    /// Wrap a base the builder just made over `dataset`, sketches and
    /// all.
    ///
    /// # Errors
    /// [`OnexError::DatasetMismatch`] when the base was built over a
    /// different number of series.
    fn from_parts(dataset: Dataset, base: OnexBase) -> Result<Self, OnexError> {
        if base.source_series() != dataset.len() {
            return Err(OnexError::DatasetMismatch(format!(
                "base was built over {} series but dataset has {}",
                base.source_series(),
                dataset.len()
            )));
        }
        Ok(Self::over(EngineState {
            dataset,
            base,
            source: None,
        }))
    }

    /// An engine publishing `state` as its first epoch.
    fn over(state: EngineState) -> Self {
        Onex {
            state: Versioned::new(state),
            lifetime: Arc::new(Mutex::new(QueryStats::default())),
            resident: Mutex::default(),
            #[cfg(test)]
            fail_next_extend: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Start from a base image file: validate the segment (structure and
    /// checksums), check that `dataset` is the one the base was built
    /// over, and decode the whole base — the engine that comes back is
    /// the one [`Onex::build`] made, minus the construction (experiment
    /// E18 times the first answer).
    ///
    /// # Errors
    /// [`OnexError::Io`] when the file cannot be read,
    /// [`OnexError::Storage`] when it is not a valid base image,
    /// [`OnexError::DatasetMismatch`] when it was built over another
    /// dataset (another series count, or other lengths or samples).
    pub fn open(path: impl AsRef<Path>, dataset: Dataset) -> Result<Self, OnexError> {
        let path = path.as_ref();
        Self::from_segment(BaseSegment::open(path)?, dataset, Some(path.to_path_buf()))
    }

    /// [`Onex::open`] over an in-memory file image (how a shard engine
    /// adopts a base shipped over the wire).
    ///
    /// # Errors
    /// Same as [`Onex::open`], minus the I/O cases.
    pub fn open_bytes(bytes: Vec<u8>, dataset: Dataset) -> Result<Self, OnexError> {
        Self::from_segment(BaseSegment::from_bytes(bytes)?, dataset, None)
    }

    fn from_segment(
        segment: BaseSegment,
        dataset: Dataset,
        path: Option<PathBuf>,
    ) -> Result<Self, OnexError> {
        let base = segment.decode(&dataset)?;
        Ok(Self::over(EngineState {
            dataset,
            base,
            source: Some(BaseSource { path }),
        }))
    }

    /// Replace this engine's base with a shipped base image — the
    /// `ShipBase` handler on shard servers: the image is decoded whole,
    /// as [`Onex::open_bytes`] decodes it, and published as the next
    /// epoch.
    ///
    /// # Errors
    /// [`OnexError::Storage`] when the bytes are not a valid base image,
    /// [`OnexError::DatasetMismatch`] when it was built over another
    /// dataset than the one this engine currently holds. On error nothing
    /// is published: the current base keeps serving, untouched.
    pub fn install_base(&self, bytes: Vec<u8>) -> Result<(), OnexError> {
        let segment = BaseSegment::from_bytes(bytes)?;
        let mut txn = self.state.write();
        let state = txn.value_mut();
        state.base = segment.decode(&state.dataset)?;
        state.source = Some(BaseSource { path: None });
        txn.commit();
        Ok(())
    }

    /// Persist the current base as a base image file (the image
    /// [`Onex::open`] starts from and `ShipBase` deploys).
    ///
    /// # Errors
    /// [`OnexError::Io`] when the file cannot be written.
    pub fn save_base(&self, path: impl AsRef<Path>) -> Result<(), OnexError> {
        onex_grouping::persist::save_v2_file(&self.state.read().base, path)
    }

    /// Where the base came from, when it was opened or installed from an
    /// image; `None` for a base built in memory — the `/api/summary`
    /// endpoint uses that distinction to report how the engine came up.
    pub fn base_source(&self) -> Option<BaseSource> {
        self.state.read().source.clone()
    }

    /// Pin the currently-published epoch: the returned snapshot keeps
    /// answering from exactly this dataset/base pair no matter how many
    /// appends commit after it was taken. Cheap (two `Arc` clones) and
    /// never blocked by an in-progress append.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            state: self.state.read(),
            lifetime: Arc::clone(&self.lifetime),
        }
    }

    /// The currently-published data epoch (bumped by every committed
    /// [`Onex::append_series`]).
    pub fn epoch(&self) -> Epoch {
        self.state.epoch()
    }

    /// The dataset being explored, pinned at the current epoch. The
    /// guard derefs to [`Dataset`]; bind it (`let ds = engine.dataset();`)
    /// to hold one consistent view across several statements.
    pub fn dataset(&self) -> DatasetRef {
        DatasetRef {
            state: self.state.read(),
        }
    }

    /// The precomputed base, pinned at the current epoch (guard derefs to
    /// [`OnexBase`]).
    pub fn base(&self) -> BaseRef {
        BaseRef {
            state: self.state.read(),
        }
    }

    /// Best time-warped match for `query`, or `None` when no indexed
    /// subsequence passes the options' filters. Also returns the query's
    /// work counters.
    ///
    /// # Errors
    /// [`OnexError::InvalidQuery`] when `query` is empty or contains a
    /// non-finite sample.
    pub fn best_match(
        &self,
        query: &[f64],
        opts: &QueryOptions,
    ) -> Result<(Option<Match>, QueryStats), OnexError> {
        let (mut matches, stats) = self.k_best(query, 1, opts)?;
        Ok((matches.pop(), stats))
    }

    /// The `k` most similar indexed subsequences, best first.
    ///
    /// # Errors
    /// [`OnexError::InvalidQuery`] when `k == 0`, `query` is empty, or
    /// `query` contains a non-finite sample — the cases that used to
    /// panic in earlier revisions of this API.
    pub fn k_best(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
    ) -> Result<(Vec<Match>, QueryStats), OnexError> {
        self.k_best_bounded(query, k, opts, &SharedBound::new())
    }

    /// [`Onex::k_best`] pruning against (and tightening) a caller-owned
    /// query-global bound. This is the fan-out entry point: run one
    /// search per shard, hand every searcher the *same* [`SharedBound`],
    /// and a k-th best discovered by any of them immediately shrinks the
    /// others' candidate cascades. The bound must be fresh per logical
    /// query (`∞`-seeded) — reusing one across queries would prune
    /// against a threshold the current query never established. Results
    /// are identical to the unshared search, ties included: a peer's
    /// bound prunes only what exceeds it, and ties at the k-th distance
    /// go to the smaller window. A cancelled bound
    /// ([`SharedBound::cancel`]) starts no further DTW.
    ///
    /// # Errors
    /// Same conditions as [`Onex::k_best`].
    pub fn k_best_bounded(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
        bound: &SharedBound,
    ) -> Result<(Vec<Match>, QueryStats), OnexError> {
        self.snapshot().k_best_bounded(query, k, opts, bound)
    }

    /// The `k` best *mutually non-overlapping* matches: greedy repeated
    /// best-match with each winner's window excluded from the next round.
    /// This is what an analyst wants from "show me other places this
    /// pattern occurs" — k distinct sites, not k shifted copies of one.
    ///
    /// # Errors
    /// [`OnexError::InvalidQuery`] under the same conditions as
    /// [`Onex::k_best`].
    pub fn k_best_nonoverlapping(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
    ) -> Result<(Vec<Match>, QueryStats), OnexError> {
        validate_query(query, k)?;
        // One pinned epoch for every greedy round: concurrent appends
        // cannot make the rounds answer from different bases.
        let snapshot = self.snapshot();
        let mut opts = opts.clone();
        let mut out = Vec::with_capacity(k.min(TOP_K_RESERVE));
        let mut total = QueryStats::default();
        for _ in 0..k {
            let (mut ms, stats) = snapshot.k_best_bounded(query, 1, &opts, &SharedBound::new())?;
            total += stats;
            match ms.pop() {
                Some(m) => {
                    opts.exclude_windows.push(m.subseq);
                    out.push(m);
                }
                None => break,
            }
        }
        Ok((out, total))
    }

    /// Direct comparison of two named series (the Fig 3 "contrasting
    /// trends across multiple linked perspectives" operation): DTW
    /// distance, warping path, and the Euclidean distance when lengths
    /// allow it.
    ///
    /// # Errors
    /// [`OnexError::UnknownSeries`] when either series is unknown,
    /// [`OnexError::InvalidQuery`] when either is empty.
    pub fn compare(
        &self,
        series_a: &str,
        series_b: &str,
        band: onex_distance::Band,
    ) -> Result<Comparison, OnexError> {
        let state = self.state.read();
        let a = state
            .dataset
            .by_name(series_a)
            .ok_or_else(|| OnexError::UnknownSeries(series_a.into()))?;
        let b = state
            .dataset
            .by_name(series_b)
            .ok_or_else(|| OnexError::UnknownSeries(series_b.into()))?;
        if a.is_empty() || b.is_empty() {
            return Err(OnexError::invalid_query("cannot compare empty series"));
        }
        let (dtw, path) = onex_distance::dtw_with_path(a.values(), b.values(), band);
        let euclidean = (a.len() == b.len()).then(|| onex_distance::ed(a.values(), b.values()));
        Ok(Comparison {
            dtw,
            normalized: crate::search::normalize(dtw, a.len(), b.len()),
            euclidean,
            path,
        })
    }

    /// Recurring patterns within one series (the Seasonal View).
    ///
    /// # Errors
    /// [`OnexError::UnknownSeries`] when `series` is not in the dataset.
    pub fn seasonal(
        &self,
        series: &str,
        opts: &SeasonalOptions,
    ) -> Result<Vec<SeasonalPattern>, OnexError> {
        let state = self.state.read();
        let id = state
            .dataset
            .id_of(series)
            .ok_or_else(|| OnexError::UnknownSeries(series.into()))?;
        Ok(seasonal_patterns(&state.dataset, &state.base, id, opts))
    }

    /// Data-driven threshold recommendation at a given subsequence length
    /// (see [`crate::threshold`]).
    pub fn recommend_threshold(
        &self,
        len: usize,
        max_pairs: usize,
        seed: u64,
    ) -> Option<ThresholdRecommendation> {
        recommend(&self.state.read().dataset, len, max_pairs, seed)
    }

    /// Cumulative work counters across all queries served so far.
    pub fn lifetime_stats(&self) -> QueryStats {
        *self.lifetime.lock()
    }

    /// What the writer's resident index currently holds (see the
    /// [`ResidentReport`] fields) — `/api/summary` serves it so a
    /// re-seed storm is visible from outside. Waits for an append in
    /// progress to finish.
    pub fn resident_index(&self) -> ResidentReport {
        let resident = self.resident.lock();
        ResidentReport {
            kind: resident.index.kind(),
            entries: resident.index.entries(),
            epoch: resident.epoch,
            seeds: resident.index.seeds(),
            bytes: resident.index.resident_bytes(),
        }
    }

    /// Append a series and index it incrementally — the demo's interactive
    /// data loading without rebuilding the existing base. Returns the
    /// updated construction report, stamped with the epoch this append
    /// published and the series count at that epoch.
    ///
    /// Appends serialise against each other but never block queries: the
    /// next dataset/base pair is derived aside from the published one —
    /// sharing every series, group and set of sketch planes the append
    /// does not change — and published atomically on success
    /// ([`onex_api::WriteTxn`]). The lookups run against the writer's
    /// resident index, so the cost follows the appended windows, not the
    /// base. On **any** error the transaction is dropped uncommitted and
    /// the resident index discarded, so the engine keeps answering from
    /// the prior epoch exactly as if the append had never been attempted;
    /// a name already taken, or a sample no query could be cut from (NaN,
    /// ±∞ — what the file loaders refuse too), is refused before anything
    /// is copied, the resident index still stamped.
    ///
    /// # Errors
    /// [`OnexError::InvalidData`] naming the first sample that is not
    /// finite; [`OnexError::DatasetMismatch`] when the series name is
    /// already taken (a conflict with the current collection state);
    /// [`OnexError::InvalidConfig`]/[`OnexError::Internal`] when
    /// re-validating the configuration or extending the base fails.
    pub fn append_series(
        &self,
        series: onex_tseries::TimeSeries,
    ) -> Result<BuildReport, OnexError> {
        reject_non_finite(&series)?;
        reject_empty_name(&series)?;
        reject_taken_name(&self.state.read().dataset, series.name())?;
        let mut txn = self.state.write();
        let published = txn.base();
        // Authoritative now that the writer lock is held: another append
        // may have taken the name since the check above.
        reject_taken_name(&published.dataset, series.name())?;
        let mut resident = self.resident.lock();
        if resident.epoch != Some(txn.base_epoch()) {
            resident.index.clear();
        }
        // Unstamped until the commit below: any earlier exit leaves an
        // index no epoch matches, and the next append re-seeds.
        resident.epoch = None;
        let mut dataset = published.dataset.clone();
        dataset.push(series)?;
        let builder = BaseBuilder::new(published.base.config().clone())?;
        let (base, mut report) =
            builder.extend_resident(&published.base, &dataset, &mut resident.index)?;
        #[cfg(test)]
        if self
            .fail_next_extend
            .swap(false, std::sync::atomic::Ordering::SeqCst)
        {
            return Err(OnexError::Internal(
                "injected extension failure while appending".into(),
            ));
        }
        let source = published.source.clone();
        txn.replace(EngineState {
            dataset,
            base,
            source,
        });
        report.epoch = txn.commit();
        resident.epoch = Some(report.epoch);
        Ok(report)
    }
}

/// A window over NaN or ±∞ has no distance to anything and no query may
/// be cut from it: unprocessable data, a 422.
fn reject_non_finite(series: &onex_tseries::TimeSeries) -> Result<(), OnexError> {
    match series.values().iter().position(|v| !v.is_finite()) {
        Some(at) => Err(OnexError::InvalidData(format!(
            "series {:?}: sample {at} is not finite ({})",
            series.name(),
            series.values()[at]
        ))),
        None => Ok(()),
    }
}

/// A series no request can name again (`?series=`, `?target=`) is
/// unprocessable data, a 422.
fn reject_empty_name(series: &onex_tseries::TimeSeries) -> Result<(), OnexError> {
    if series.name().is_empty() {
        return Err(OnexError::InvalidData("series name is empty".into()));
    }
    Ok(())
}

/// A name collision conflicts with the published collection — HTTP-wise
/// a 409, not a malformed request.
fn reject_taken_name(dataset: &Dataset, name: &str) -> Result<(), OnexError> {
    match dataset.by_name(name) {
        Some(_) => Err(OnexError::DatasetMismatch(format!(
            "duplicate series name {name:?}"
        ))),
        None => Ok(()),
    }
}

/// A query-lifetime pin on one published engine epoch: an immutable
/// dataset/base pair plus the engine's shared lifetime counters. Obtained
/// from [`Onex::snapshot`]; cheap to clone, safe to send to worker
/// threads, and unaffected by any append committed after it was taken.
/// Every column of the base is there from the first snapshot on: an
/// opened or installed image is decoded whole before it is published.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    state: ReadTxn<EngineState>,
    lifetime: Arc<Mutex<QueryStats>>,
}

impl EngineSnapshot {
    /// The epoch this snapshot pinned.
    pub fn epoch(&self) -> Epoch {
        self.state.epoch()
    }

    /// The pinned dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.state.dataset
    }

    /// The pinned base.
    pub fn base(&self) -> &OnexBase {
        &self.state.base
    }

    /// [`Onex::k_best`] against this pinned epoch.
    ///
    /// # Errors
    /// Same conditions as [`Onex::k_best`].
    pub fn k_best(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
    ) -> Result<(Vec<Match>, QueryStats), OnexError> {
        self.k_best_bounded(query, k, opts, &SharedBound::new())
    }

    /// [`Onex::k_best_bounded`] against this pinned epoch — the fan-out
    /// entry point shard workers run, guaranteed to see one consistent
    /// dataset/base pair however the engine is appended to meanwhile.
    ///
    /// # Errors
    /// Same conditions as [`Onex::k_best`].
    pub fn k_best_bounded(
        &self,
        query: &[f64],
        k: usize,
        opts: &QueryOptions,
        bound: &SharedBound,
    ) -> Result<(Vec<Match>, QueryStats), OnexError> {
        validate_query(query, k)?;
        let searcher = Searcher::new(&self.state.dataset, &self.state.base, query, opts, k, bound);
        let (matches, stats) = searcher.run();
        *self.lifetime.lock() += stats;
        Ok((matches, stats))
    }
}

/// Epoch-pinned access to the engine's dataset (derefs to [`Dataset`]).
/// Returned by [`Onex::dataset`]; holding it keeps one consistent view
/// while appends publish new epochs alongside.
#[derive(Debug)]
pub struct DatasetRef {
    state: ReadTxn<EngineState>,
}

impl Deref for DatasetRef {
    type Target = Dataset;

    fn deref(&self) -> &Dataset {
        &self.state.dataset
    }
}

/// Epoch-pinned access to the engine's base (derefs to [`OnexBase`]).
/// Returned by [`Onex::base`].
#[derive(Debug)]
pub struct BaseRef {
    state: ReadTxn<EngineState>,
}

impl Deref for BaseRef {
    type Target = OnexBase;

    fn deref(&self) -> &OnexBase {
        &self.state.base
    }
}

/// Result of a direct pairwise comparison ([`Onex::compare`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// DTW distance under the requested band.
    pub dtw: f64,
    /// Length-normalised DTW (comparable across pairs of any lengths).
    pub normalized: f64,
    /// Euclidean distance, defined only for equal lengths.
    pub euclidean: Option<f64>,
    /// The warping alignment (for the linked views).
    pub path: onex_distance::WarpingPath,
}

/// Best-effort human-readable message from a worker panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LengthSelection;
    use onex_tseries::gen::{matters_collection, MattersConfig};
    use onex_tseries::{SubseqRef, TimeSeries};

    fn growth_engine() -> Onex {
        let cfg = MattersConfig {
            indicators: vec![onex_tseries::gen::Indicator::GrowthRate],
            ..MattersConfig::default()
        };
        let ds = matters_collection(&cfg);
        let (engine, report) = Onex::build(ds, BaseConfig::new(1.5, 6, 10)).unwrap();
        assert!(report.groups > 0);
        engine
    }

    #[test]
    fn best_match_returns_a_close_neighbour() {
        let engine = growth_engine();
        let ds = engine.dataset();
        let ma = ds.by_name("MA-GrowthRate").unwrap();
        let query = ma.subsequence(4, 8).unwrap().to_vec();
        let opts =
            QueryOptions::default().excluding_series(engine.dataset().id_of("MA-GrowthRate"));
        let (m, stats) = engine.best_match(&query, &opts).unwrap();
        let m = m.expect("a match exists");
        assert_ne!(m.series_name, "MA-GrowthRate");
        assert!(m.distance.is_finite());
        assert!(m.path.is_valid(query.len(), m.subseq.len as usize));
        assert!(stats.groups_examined > 0);
    }

    #[test]
    fn self_query_finds_itself_when_not_excluded() {
        let engine = growth_engine();
        let ds = engine.dataset();
        let ma = ds.by_name("MA-GrowthRate").unwrap();
        let query = ma.subsequence(2, 8).unwrap().to_vec();
        let (m, _) = engine.best_match(&query, &QueryOptions::default()).unwrap();
        let m = m.unwrap();
        assert!(m.distance < 1e-9, "own window is a perfect match");
        assert_eq!(m.subseq.start, 2);
        assert_eq!(m.series_name, "MA-GrowthRate");
    }

    #[test]
    fn k_best_is_sorted_and_distinct() {
        let engine = growth_engine();
        let query = engine
            .dataset()
            .by_name("TX-GrowthRate")
            .unwrap()
            .subsequence(0, 8)
            .unwrap()
            .to_vec();
        let (matches, _) = engine.k_best(&query, 5, &QueryOptions::default()).unwrap();
        assert_eq!(matches.len(), 5);
        for w in matches.windows(2) {
            assert!(w[0].normalized <= w[1].normalized);
        }
        let distinct: std::collections::HashSet<SubseqRef> =
            matches.iter().map(|m| m.subseq).collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn cross_length_search_ranks_by_normalized() {
        let engine = growth_engine();
        let query = engine
            .dataset()
            .by_name("NY-GrowthRate")
            .unwrap()
            .subsequence(3, 9)
            .unwrap()
            .to_vec();
        let opts = QueryOptions::default().lengths(LengthSelection::Nearest(3));
        let (matches, _) = engine.k_best(&query, 8, &opts).unwrap();
        assert!(!matches.is_empty());
        let lens: std::collections::HashSet<u32> = matches.iter().map(|m| m.subseq.len).collect();
        assert!(lens.len() >= 2, "nearest-length search spans lengths");
    }

    #[test]
    fn query_length_missing_from_base() {
        let engine = growth_engine();
        let query = vec![1.0; 50]; // no groups at length 50
        let (m, stats) = engine.best_match(&query, &QueryOptions::default()).unwrap();
        assert!(m.is_none());
        assert_eq!(stats.groups_examined, 0);
        // Nearest mode still answers.
        let opts = QueryOptions::default().lengths(LengthSelection::Nearest(1));
        let (m2, _) = engine.best_match(&query, &opts).unwrap();
        assert!(m2.is_some());
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let engine = growth_engine();
        let query = engine
            .dataset()
            .by_name("CA-GrowthRate")
            .unwrap()
            .subsequence(0, 7)
            .unwrap()
            .to_vec();
        assert_eq!(engine.lifetime_stats(), QueryStats::default());
        let (_, s1) = engine.best_match(&query, &QueryOptions::default()).unwrap();
        let (_, s2) = engine.best_match(&query, &QueryOptions::default()).unwrap();
        let total = engine.lifetime_stats();
        assert_eq!(
            total.groups_examined,
            s1.groups_examined + s2.groups_examined
        );
    }

    #[test]
    fn nonoverlapping_k_best_yields_distinct_sites() {
        let engine = growth_engine();
        let query = engine
            .dataset()
            .by_name("GA-GrowthRate")
            .unwrap()
            .subsequence(2, 8)
            .unwrap()
            .to_vec();
        let (matches, _) = engine
            .k_best_nonoverlapping(&query, 6, &QueryOptions::default())
            .unwrap();
        assert!(!matches.is_empty());
        for i in 0..matches.len() {
            for j in i + 1..matches.len() {
                assert!(
                    !matches[i].subseq.overlaps(&matches[j].subseq),
                    "{:?} overlaps {:?}",
                    matches[i].subseq,
                    matches[j].subseq
                );
            }
        }
        // Distances are non-decreasing (greedy order).
        for w in matches.windows(2) {
            assert!(w[0].normalized <= w[1].normalized + 1e-12);
        }
    }

    #[test]
    fn compare_reports_both_distances() {
        let engine = growth_engine();
        let c = engine
            .compare("MA-GrowthRate", "NY-GrowthRate", onex_distance::Band::Full)
            .unwrap();
        assert!(c.dtw.is_finite());
        let ed = c.euclidean.expect("equal annual panels");
        assert!(c.dtw <= ed + 1e-9, "DTW ≤ ED for equal lengths");
        assert!(c.path.is_valid(16, 16));
        let self_cmp = engine
            .compare("MA-GrowthRate", "MA-GrowthRate", onex_distance::Band::Full)
            .unwrap();
        assert!(self_cmp.dtw < 1e-12);
        assert!(engine
            .compare("MA-GrowthRate", "Nowhere", onex_distance::Band::Full)
            .is_err());
    }

    #[test]
    fn append_series_is_immediately_queryable() {
        let engine = growth_engine();
        let before = engine.base().stats().members;
        assert_eq!(engine.epoch(), 0);
        // A synthetic 51st "state" tracking MA exactly.
        let ma: Vec<f64> = engine
            .dataset()
            .by_name("MA-GrowthRate")
            .unwrap()
            .values()
            .to_vec();
        let report = engine
            .append_series(TimeSeries::new("ZZ-GrowthRate", ma.clone()))
            .unwrap();
        assert!(report.subsequences > before);
        assert_eq!(engine.dataset().len(), 51);
        assert_eq!(engine.epoch(), 1, "a committed append publishes an epoch");
        // Excluding MA itself, the new clone is now the best match.
        let query = &ma[4..12];
        let opts =
            QueryOptions::default().excluding_series(engine.dataset().id_of("MA-GrowthRate"));
        let (m, _) = engine.best_match(query, &opts).unwrap();
        let m = m.unwrap();
        assert_eq!(m.series_name, "ZZ-GrowthRate");
        assert!(m.distance < 1e-9);
        // Duplicate names are rejected and leave the engine intact.
        assert!(engine
            .append_series(TimeSeries::new("ZZ-GrowthRate", vec![0.0; 16]))
            .is_err());
        assert_eq!(engine.dataset().len(), 51);
        assert_eq!(engine.epoch(), 1, "a failed append publishes nothing");
    }

    #[test]
    fn snapshots_pin_the_epoch_they_were_taken_at() {
        let engine = growth_engine();
        let pinned = engine.snapshot();
        let ma: Vec<f64> = pinned
            .dataset()
            .by_name("MA-GrowthRate")
            .unwrap()
            .values()
            .to_vec();
        let query = &ma[4..12];
        let opts =
            QueryOptions::default().excluding_series(pinned.dataset().id_of("MA-GrowthRate"));
        let (before, _) = pinned.k_best(query, 1, &opts).unwrap();
        engine
            .append_series(TimeSeries::new("ZZ-GrowthRate", ma.clone()))
            .unwrap();
        // The pinned snapshot still answers from epoch 0 — it cannot see
        // the clone — while the engine's fresh snapshots do.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.dataset().len(), 50);
        let (after, _) = pinned.k_best(query, 1, &opts).unwrap();
        assert_eq!(before, after);
        let fresh = engine.snapshot();
        assert_eq!(fresh.epoch(), 1);
        let (m, _) = fresh.k_best(query, 1, &opts).unwrap();
        assert_eq!(m[0].series_name, "ZZ-GrowthRate");
    }

    #[test]
    fn failed_extend_mid_append_leaves_the_engine_on_the_prior_epoch() {
        let engine = growth_engine();
        let ds0 = engine.dataset();
        let ma = ds0.by_name("MA-GrowthRate").unwrap();
        let query = ma.subsequence(4, 8).unwrap().to_vec();
        drop(ds0);
        let (reference, _) = engine.best_match(&query, &QueryOptions::default()).unwrap();

        // Inject a failure *after* the next dataset/base pair has been
        // built aside: the publish must not happen.
        engine
            .fail_next_extend
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let err = engine
            .append_series(TimeSeries::new("ZZ-GrowthRate", vec![0.5; 16]))
            .expect_err("injected failure");
        assert!(matches!(err, OnexError::Internal(_)), "{err:?}");

        // Prior epoch intact: same series count, same epoch, and queries
        // answer exactly as before the failed append.
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.dataset().len(), 50);
        assert!(engine.dataset().by_name("ZZ-GrowthRate").is_none());
        let (again, _) = engine.best_match(&query, &QueryOptions::default()).unwrap();
        assert_eq!(reference, again);

        // And the same append succeeds once the fault clears.
        engine
            .append_series(TimeSeries::new("ZZ-GrowthRate", vec![0.5; 16]))
            .unwrap();
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.dataset().len(), 51);
    }

    #[test]
    fn a_failed_append_discards_the_resident_index_and_leaves_no_residue() {
        let engine = growth_engine();
        // Appended values stay inside the collection's value range, so a
        // batch build of the final collection freezes the same sketch
        // parameters and the planes can be compared byte for byte.
        let reversed = |name: &str, donor: &str| {
            let mut values = engine.dataset().by_name(donor).unwrap().values().to_vec();
            values.reverse();
            TimeSeries::new(name, values)
        };
        let lengths = engine.base().lengths().count() as u64;
        assert_eq!(
            engine.resident_index().kind,
            "none",
            "nothing seeded at build"
        );

        engine
            .append_series(reversed("R1", "MA-GrowthRate"))
            .unwrap();
        let seeded = engine.resident_index();
        assert_eq!((seeded.epoch, seeded.seeds), (Some(1), lengths));
        assert_eq!(seeded.entries, engine.base().group_count());

        // The injected failure strikes after the extension ran: the index
        // has admitted R2's windows, the epoch that would hold them is
        // never published, so the index must not survive.
        engine
            .fail_next_extend
            .store(true, std::sync::atomic::Ordering::SeqCst);
        engine
            .append_series(reversed("R2", "NY-GrowthRate"))
            .expect_err("injected failure");
        assert_eq!(engine.resident_index().epoch, None);
        assert_eq!(engine.epoch(), 1);

        engine
            .append_series(reversed("R2", "NY-GrowthRate"))
            .unwrap();
        let reseeded = engine.resident_index();
        assert_eq!((reseeded.epoch, reseeded.seeds), (Some(2), 2 * lengths));
        // From here the index is resident again: no further seeding.
        engine
            .append_series(reversed("R3", "TX-GrowthRate"))
            .unwrap();
        assert_eq!(engine.resident_index().seeds, 2 * lengths);

        let builder = BaseBuilder::new(engine.base().config().clone()).unwrap();
        let (batch, _) = builder.build(&engine.dataset());
        assert!(*engine.base() == batch, "groups differ from a batch build");
        assert!(
            engine.base().sketches() == batch.sketches(),
            "sketch planes differ from a batch build"
        );
    }

    #[test]
    fn malformed_queries_error_instead_of_panicking() {
        use onex_api::OnexError;
        let engine = growth_engine();
        let opts = QueryOptions::default();
        assert!(matches!(
            engine.k_best(&[], 3, &opts),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            engine.k_best(&[1.0, 2.0], 0, &opts),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            engine.best_match(&[f64::NAN, 1.0], &opts),
            Err(OnexError::InvalidQuery(_))
        ));
        assert!(matches!(
            engine.k_best_nonoverlapping(&[], 2, &opts),
            Err(OnexError::InvalidQuery(_))
        ));
        // Errors leave the lifetime counters untouched.
        assert_eq!(engine.lifetime_stats(), QueryStats::default());
    }

    #[test]
    fn from_parts_rejects_mismatched_dataset() {
        let engine = growth_engine();
        let base = engine.base().clone();
        let wrong =
            Dataset::from_series(vec![TimeSeries::new("only", vec![1.0, 2.0, 3.0])]).unwrap();
        assert!(Onex::from_parts(wrong, base).is_err());
    }

    #[test]
    fn exclude_windows_forces_next_best() {
        let engine = growth_engine();
        let ds = engine.dataset();
        let ma = ds.by_name("MA-GrowthRate").unwrap();
        let query = ma.subsequence(2, 8).unwrap().to_vec();
        let ma_id = engine.dataset().id_of("MA-GrowthRate").unwrap();
        let opts = QueryOptions::default().excluding_window(SubseqRef::new(ma_id, 2, 8));
        let (m, _) = engine.best_match(&query, &opts).unwrap();
        let m = m.unwrap();
        assert!(
            m.subseq.series != ma_id || m.subseq.start != 2,
            "excluded window must not return"
        );
    }

    /// A cold engine over the warm engine's saved base, plus the query
    /// both must agree on.
    fn cold_twin() -> (Onex, Onex, Vec<f64>) {
        let warm = growth_engine();
        let bytes = onex_grouping::persist::save_v2(&warm.base());
        let cold = Onex::open_bytes(bytes, warm.dataset().clone()).unwrap();
        let query = warm
            .dataset()
            .by_name("MA-GrowthRate")
            .unwrap()
            .subsequence(4, 8)
            .unwrap()
            .to_vec();
        (warm, cold, query)
    }

    #[test]
    fn an_opened_engine_answers_like_the_built_one() {
        let (warm, cold, query) = cold_twin();
        let src = cold.base_source().expect("opened engines report a source");
        assert!(src.path.is_none(), "opened from bytes, not a file");
        // The whole base is there before any query, sketch planes too.
        assert!(*cold.base() == *warm.base());
        assert!(cold.base().sketches() == warm.base().sketches());

        // The first query prunes with L0: the sketches came with the
        // image, nothing waits for a re-encode.
        let (_, first) = cold.k_best(&query, 5, &QueryOptions::default()).unwrap();
        assert!(first.members_l0_pruned > 0, "{first:?}");
        // Every plan answers as the warm engine does, counters too.
        let unindexed: Vec<f64> = query.iter().chain(&query[..4]).copied().collect();
        for (query, selection) in [
            (&query, LengthSelection::Exact),
            (&unindexed, LengthSelection::Exact),
            (&query, LengthSelection::Range(9, 10)),
            (&query, LengthSelection::Nearest(3)),
        ] {
            let opts = QueryOptions::default().lengths(selection);
            let (w, warm_stats) = warm.k_best(query, 5, &opts).unwrap();
            let (c, cold_stats) = cold.k_best(query, 5, &opts).unwrap();
            assert_eq!(w, c, "{opts:?}");
            assert_eq!(cold_stats, warm_stats, "{opts:?}");
        }
    }

    #[test]
    fn cold_open_via_file_reports_its_path() {
        let warm = growth_engine();
        let dir = std::env::temp_dir().join("onex_engine_cold_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("growth.onexbase");
        warm.save_base(&path).unwrap();
        let cold = Onex::open(&path, warm.dataset().clone()).unwrap();
        assert_eq!(cold.base_source().unwrap().path.as_deref(), Some(&*path));
        // Saved before any query, an opened engine saves all of it.
        cold.save_base(&path).unwrap();
        assert!(std::fs::read(&path).unwrap() == onex_grouping::persist::save_v2(&warm.base()));
        let patterns = cold
            .seasonal("MA-GrowthRate", &crate::SeasonalOptions::default())
            .unwrap();
        let reference = warm
            .seasonal("MA-GrowthRate", &crate::SeasonalOptions::default())
            .unwrap();
        assert_eq!(patterns, reference);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cold_open_rejects_a_mismatched_dataset() {
        let warm = growth_engine();
        let bytes = onex_grouping::persist::save_v2(&warm.base());
        let wrong =
            Dataset::from_series(vec![TimeSeries::new("only", vec![1.0, 2.0, 3.0])]).unwrap();
        assert!(matches!(
            Onex::open_bytes(bytes, wrong),
            Err(OnexError::DatasetMismatch(_))
        ));
    }

    #[test]
    fn an_image_is_refused_beside_any_other_dataset() {
        let warm = growth_engine();
        let image = onex_grouping::persist::save_v2(&warm.base());
        let series: Vec<TimeSeries> = warm.dataset().iter().map(|(_, s)| s.clone()).collect();
        let variant = |edit: &dyn Fn(&mut Vec<TimeSeries>)| {
            let mut all = series.clone();
            edit(&mut all);
            Dataset::from_series(all).unwrap()
        };
        let flipped = variant(&|all| {
            let mut values = all[7].values().to_vec();
            values[3] = f64::from_bits(values[3].to_bits() ^ 1);
            all[7] = TimeSeries::new(all[7].name(), values);
        });
        let truncated = variant(&|all| {
            let values = all[12].values()[1..].to_vec();
            all[12] = TimeSeries::new(all[12].name(), values);
        });
        let swapped = variant(&|all| all.swap(0, 1));
        let query = series[3].values()[2..10].to_vec();
        let opts = QueryOptions::default();
        for (what, other) in [
            ("flipped", flipped),
            ("truncated", truncated),
            ("swapped", swapped),
        ] {
            assert!(
                matches!(
                    Onex::open_bytes(image.clone(), other.clone()),
                    Err(OnexError::DatasetMismatch(_))
                ),
                "{what}"
            );
            // An engine over that dataset refuses the image as a shipped
            // base too, and keeps answering from the base it has.
            let (engine, _) = Onex::build(other, BaseConfig::new(1.5, 6, 10)).unwrap();
            let (before, _) = engine.k_best(&query, 3, &opts).unwrap();
            assert!(
                matches!(
                    engine.install_base(image.clone()),
                    Err(OnexError::DatasetMismatch(_))
                ),
                "{what}"
            );
            assert_eq!(engine.epoch(), 0, "{what}: nothing published");
            assert!(engine.base_source().is_none(), "{what}");
            assert_eq!(engine.k_best(&query, 3, &opts).unwrap().0, before, "{what}");
        }
    }

    #[test]
    fn append_after_cold_open_materialises_the_whole_base_first() {
        let (warm, cold, query) = cold_twin();
        let ma: Vec<f64> = warm
            .dataset()
            .by_name("MA-GrowthRate")
            .unwrap()
            .values()
            .to_vec();
        for engine in [&warm, &cold] {
            let series = TimeSeries::new("ZZ-GrowthRate", ma.clone());
            engine.append_series(series).unwrap();
        }
        // The opened engine extends every column, as the built one does.
        assert!(*cold.base() == *warm.base());
        assert!(cold.base().sketches() == warm.base().sketches());
        assert!(cold.base_source().is_some(), "the provenance stays");
        let opts = QueryOptions::default().excluding_series(cold.dataset().id_of("MA-GrowthRate"));
        let (m, _) = cold.best_match(&query, &opts).unwrap();
        assert_eq!(m.unwrap().series_name, "ZZ-GrowthRate");
    }

    #[test]
    fn install_base_swaps_in_a_shipped_image() {
        let warm = growth_engine();
        let shipped = onex_grouping::persist::save_v2(&warm.base());
        // A second engine over the same dataset, built with a different
        // threshold — distinguishable from the shipped base.
        let (other, _) = Onex::build(warm.dataset().clone(), BaseConfig::new(2.5, 6, 10)).unwrap();
        assert!(*other.base() != *warm.base());
        let epoch_before = other.epoch();
        other.install_base(shipped).unwrap();
        assert_eq!(other.epoch(), epoch_before + 1, "the swap publishes");
        let src = other.base_source().expect("adopted a shipped base");
        assert!(src.path.is_none());
        assert!(*other.base() == *warm.base(), "the whole base, at once");
        assert!(other.base().sketches() == warm.base().sketches());
        let query = warm
            .dataset()
            .by_name("MA-GrowthRate")
            .unwrap()
            .subsequence(4, 8)
            .unwrap()
            .to_vec();
        let (w, _) = warm.k_best(&query, 4, &QueryOptions::default()).unwrap();
        let (o, _) = other.k_best(&query, 4, &QueryOptions::default()).unwrap();
        assert_eq!(w, o, "the shipped base answers");

        // A mismatched image is rejected and the current base keeps
        // serving.
        let tiny = Dataset::from_series(vec![TimeSeries::new("t", vec![0.0; 16])]).unwrap();
        let (tiny_engine, _) = Onex::build(tiny, BaseConfig::new(1.0, 6, 10)).unwrap();
        let foreign = onex_grouping::persist::save_v2(&tiny_engine.base());
        assert!(matches!(
            other.install_base(foreign),
            Err(OnexError::DatasetMismatch(_))
        ));
        let (again, _) = other.k_best(&query, 4, &QueryOptions::default()).unwrap();
        assert_eq!(again, o);
    }

    #[test]
    fn parallel_worker_failure_is_a_typed_error_not_a_process_abort() {
        let ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 4,
            len: 30,
            seed: 3,
        });
        let cfg = BaseConfig::new(0.8, 6, 12);
        // A construction one of whose workers panics, as the builder's
        // do: the panic reaches the caller once the others have stopped.
        let err = Onex::build_with(ds.clone(), cfg.clone(), |builder, dataset| {
            std::thread::scope(|scope| {
                let built = scope.spawn(|| builder.build(dataset));
                let failed = scope.spawn(|| panic!("injected construction failure at length 9"));
                let built = built.join().expect("the other worker finishes");
                failed
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                built
            })
        })
        .expect_err("a poisoned length must surface as an error");
        match err {
            OnexError::Internal(msg) => {
                assert!(msg.contains("injected construction failure"), "{msg}");
                assert!(msg.contains("worker failed"), "{msg}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // Nothing is left behind: the same build succeeds.
        let (engine, _) = Onex::build(ds, cfg).unwrap();
        assert!(engine.base().stats().groups > 0);
    }
}
