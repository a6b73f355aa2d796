use std::collections::BTreeMap;
use std::sync::{LazyLock, Mutex};
use std::time::{Duration, Instant};

use onex_api::{Epoch, OnexError};
use onex_tseries::Dataset;

use crate::group::{series_table, SeriesTable};
use crate::repindex::{IndexWork, PaaGrid, ResidentIndex};
use crate::sketch;
use crate::{BaseConfig, GroupColumn, OnexBase, RepresentativePolicy, SubsequenceSpace};

/// Workers a construction run spreads its lengths over: the cores this
/// process may run on.
static WORKERS: LazyLock<usize> =
    LazyLock::new(|| std::thread::available_parallelism().map_or(1, usize::from));

/// Constructs the ONEX base from a dataset (paper §3.1, the
/// "pre-processing step" at the top of Fig 1).
///
/// There is one construction path. A batch build ([`BaseBuilder::build`])
/// extends an empty base; an incremental [`BaseBuilder::extend`] extends
/// the base it is given. Either way every new subsequence runs through one
/// admission rule (the private `assign_one`) and the exact
/// nearest-representative grid ([`PaaGrid`]), one length at a time.
/// Lengths are independent, so each goes to a worker of its own — as many
/// as [`std::thread::available_parallelism`] allows — which owns that
/// length's column and grid, admits its windows and syncs its sketches.
/// The base, its sketches and the [`IndexWork`] do not depend on how many
/// workers there were.
///
/// ```
/// use onex_grouping::{BaseBuilder, BaseConfig};
/// use onex_tseries::{Dataset, TimeSeries};
///
/// let data = Dataset::from_series(vec![
///     TimeSeries::new("flat", vec![0.0; 8]),
///     TimeSeries::new("near", vec![0.1; 8]),
///     TimeSeries::new("far", vec![9.0; 8]),
/// ]).unwrap();
/// let builder = BaseBuilder::new(BaseConfig::new(1.0, 4, 4)).unwrap();
/// let (base, report) = builder.build(&data);
/// // flat and near share groups, far stays apart.
/// assert_eq!(report.groups, 2);
/// assert!(base.audit(&data).violations == 0 || report.compaction() > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct BaseBuilder {
    config: BaseConfig,
    /// Test-only fault injection: fail the worker of this length before
    /// it admits anything.
    #[cfg(test)]
    fail_len: Option<usize>,
}

/// What a construction run did — reported by experiment E7/E12 and the
/// data loading step of the demo ("loading a new dataset triggers the
/// preprocessing of this data at the server side").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildReport {
    /// Wall-clock construction time.
    pub elapsed: Duration,
    /// Of which the passes that sketch the members (every length ends
    /// with one: over every member in a batch build, over the ones an
    /// extension admitted). Workers sketch side by side, so this is the
    /// share of `elapsed` they spent sketching: their sketching time over
    /// their busy time, times `elapsed` — comparable with `elapsed`
    /// whatever the worker count.
    pub sketch: Duration,
    /// Number of distinct subsequence lengths indexed.
    pub lengths: usize,
    /// Total subsequences assigned to groups.
    pub subsequences: usize,
    /// Total groups created.
    pub groups: usize,
    /// Nearest-representative lookup effort (representatives examined /
    /// pruned / distance calls), mirroring the query-side
    /// `onex_api::BackendStats` so construction cost reads the way query
    /// cost does.
    pub work: IndexWork,
    /// Column blocks (one column a length) this run allocated: all of them for a batch build,
    /// for an extension the ones it wrote to — every other block of the
    /// extended base is the previous base's own
    /// ([`OnexBase::shared_blocks`]).
    pub blocks_copied: usize,
    /// Column blocks the reported base is kept in, over all lengths.
    pub blocks_total: usize,
    /// Series in the collection the reported base covers.
    pub series: usize,
    /// Epoch the engine published that base under: 0 from the builder
    /// itself and for an engine's initial build; an engine's
    /// `append_series` stamps the epoch its commit returned, so the
    /// caller need not re-read state another writer may already have
    /// moved on.
    pub epoch: Epoch,
}

impl BuildReport {
    /// Subsequences per group — the compaction the paper's speed-up rests
    /// on ("the use of the compact ONEX base instead of the entire
    /// dataset … guarantees speed-up").
    pub fn compaction(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.subsequences as f64 / self.groups as f64
        }
    }

    /// Construction throughput in subsequences per second (0 when the
    /// clock read as zero).
    pub fn subsequences_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.subsequences as f64 / secs
        } else {
            0.0
        }
    }
}

/// What every length's worker of one construction run reads.
struct Pass<'a> {
    dataset: &'a Dataset,
    series: &'a SeriesTable,
    space: SubsequenceSpace,
    /// Series the base already covers; the windows of the rest are
    /// admitted.
    seen: usize,
    /// A batch build: each column is new, its grid goes with its worker
    /// and its slack is given back. An extension keeps the grids for the
    /// resident index.
    batch: bool,
}

/// What one length's worker did.
struct Admitted {
    work: IndexWork,
    windows: usize,
    /// An extension's grid, in step with the extended column, and whether
    /// it was seeded for the call.
    grid: Option<(PaaGrid, bool)>,
    busy: Duration,
    sketch: Duration,
}

impl BaseBuilder {
    /// Create a builder after validating the configuration.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: BaseConfig) -> Result<Self, OnexError> {
        config.validate()?;
        Ok(BaseBuilder {
            config,
            #[cfg(test)]
            fail_len: None,
        })
    }

    /// The configuration this builder applies.
    pub fn config(&self) -> &BaseConfig {
        &self.config
    }

    /// Batch construction: the extension of an empty base by every series
    /// of `dataset`, its lengths spread over the cores this process may
    /// run on.
    ///
    /// # Panics
    /// When a worker panics: with that worker's panic, once every worker
    /// has stopped (an engine's build turns it into a typed error).
    pub fn build(&self, dataset: &Dataset) -> (OnexBase, BuildReport) {
        let empty = OnexBase::from_parts(self.config.clone(), BTreeMap::new(), Default::default());
        self.construct(&empty, dataset, None, *WORKERS)
            .unwrap_or_else(|e| panic!("construction failed: {e}"))
    }

    /// Extend an existing base with the series appended to `dataset`
    /// since the base was built (incremental data loading: the demo adds
    /// collections "with a click of a button" without rebuilding what is
    /// already indexed).
    ///
    /// The new subsequences run through the same online admission rule as
    /// a batch build (the shared `assign_one`, continued from the
    /// existing groups), so all base invariants continue to hold; the
    /// result can differ from a from-scratch rebuild (online grouping is
    /// order-dependent), exactly as a demo session's base depends on its
    /// loading order.
    ///
    /// The base is borrowed, never consumed: extension works on a
    /// build-aside copy and the caller's base is untouched on **every**
    /// path, success or failure — an erroring extend is observationally a
    /// no-op (there is no half-indexed intermediate to leak). The copy
    /// is structural: it shares every column block with `base`, and copies
    /// the blocks it writes — the tail a group is seeded into, the block
    /// of a group that admits a member — so an extension costs what its
    /// new windows cost ([`BuildReport::blocks_copied`]).
    ///
    /// This is [`Self::extend_resident`] over an index that is seeded
    /// for the call and dropped with it.
    ///
    /// # Errors
    /// [`OnexError::DatasetMismatch`] when the base was built under a
    /// different configuration or the dataset has fewer series than the
    /// base has seen; [`OnexError::Internal`] when an internal indexing
    /// invariant fails mid-extension.
    pub fn extend(
        &self,
        base: &OnexBase,
        dataset: &Dataset,
    ) -> Result<(OnexBase, BuildReport), OnexError> {
        self.extend_resident(base, dataset, &mut ResidentIndex::new())
    }

    /// [`Self::extend`] through a caller-kept [`ResidentIndex`]: columns
    /// the index already holds are looked up as they are, columns it
    /// lacks are seeded from `base` first, and every admission is
    /// mirrored into it — so on success it indexes the returned base,
    /// and the next extension of *that* base costs what its new windows
    /// cost, not what the base costs.
    ///
    /// The caller guarantees that a non-empty `resident` mirrors `base`
    /// (it came back from the call that produced `base`);
    /// [`ResidentIndex::clear`] it otherwise.
    ///
    /// # Errors
    /// As [`Self::extend`]. On any error `resident` is cleared: it may
    /// hold admissions of a base that was never returned.
    pub fn extend_resident(
        &self,
        base: &OnexBase,
        dataset: &Dataset,
        resident: &mut ResidentIndex,
    ) -> Result<(OnexBase, BuildReport), OnexError> {
        self.construct(base, dataset, Some(resident), *WORKERS)
    }

    /// The construction path: extend `base` by the series `dataset` holds
    /// past the ones it covers, over `workers` workers, keeping
    /// `resident` in step when there is one and building a batch base
    /// (each length's grid dropped by its worker) when there is none.
    /// On an error `resident` is cleared.
    pub(crate) fn construct(
        &self,
        base: &OnexBase,
        dataset: &Dataset,
        mut resident: Option<&mut ResidentIndex>,
        workers: usize,
    ) -> Result<(OnexBase, BuildReport), OnexError> {
        let constructed = self.construct_through(base, dataset, resident.as_deref_mut(), workers);
        if let (Err(_), Some(resident)) = (&constructed, resident) {
            resident.clear();
        }
        constructed
    }

    fn construct_through(
        &self,
        base: &OnexBase,
        dataset: &Dataset,
        mut resident: Option<&mut ResidentIndex>,
        workers: usize,
    ) -> Result<(OnexBase, BuildReport), OnexError> {
        if base.config() != &self.config {
            return Err(OnexError::DatasetMismatch(
                "base was built under a different configuration".into(),
            ));
        }
        let start = Instant::now();
        let seen = base.source_series();
        if dataset.len() < seen {
            return Err(OnexError::DatasetMismatch(format!(
                "dataset has {} series but the base has already indexed {}",
                dataset.len(),
                seen
            )));
        }
        let mut longest_new = 0usize;
        for sid in seen..dataset.len() {
            let series = dataset.series(sid as u32).ok_or_else(|| {
                OnexError::Internal(format!("series {sid} vanished while extending the base"))
            })?;
            longest_new = longest_new.max(series.len());
        }
        let series = series_table(dataset);
        // The space owns the window enumeration — per length, series-major
        // then start-ascending — so a batch build and an extension admit
        // the windows of a series in one order.
        let pass = Pass {
            dataset,
            series: &series,
            space: SubsequenceSpace::new(dataset, &self.config),
            seen,
            batch: resident.is_none(),
        };
        let lengths: Vec<usize> = (self.config.min_len..=self.config.max_len.min(longest_new))
            .filter(|&len| {
                (seen..dataset.len()).any(|sid| pass.space.count_for_series_len(sid, len) > 0)
            })
            .collect();
        // Build aside: all mutation below happens on this copy, which
        // shares its column blocks with `base` until it writes to them.
        let mut extended = base.clone();
        let jobs: Vec<_> = lengths
            .iter()
            .zip(extended.columns_mut(&lengths))
            .map(|(&len, groups)| {
                (
                    len,
                    groups,
                    resident.as_deref_mut().and_then(|r| r.take(len)),
                )
            })
            .collect();
        let admitted = across(jobs, workers, |(len, groups, grid)| {
            self.admit_length(&pass, len, groups, grid)
        });
        let mut work = IndexWork::default();
        let (mut windows, mut busy, mut sketch) = (0, Duration::ZERO, Duration::ZERO);
        let mut failure = None;
        for (&len, admitted) in lengths.iter().zip(admitted) {
            match admitted {
                Ok(length) => {
                    work += length.work;
                    windows += length.windows;
                    busy += length.busy;
                    sketch += length.sketch;
                    if let (Some(resident), Some((grid, seeded))) =
                        (resident.as_deref_mut(), length.grid)
                    {
                        resident.put(len, grid, seeded);
                    }
                }
                Err(e) => failure = failure.or(Some(e)),
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        extended.admitted(series, windows);
        let sketch_share = if busy > Duration::ZERO {
            sketch.as_secs_f64() / busy.as_secs_f64()
        } else {
            0.0
        };
        let report = self.report(&extended, base, start, sketch_share, work);
        Ok((extended, report))
    }

    /// One length's worker: bring the length's grid in step with its
    /// column (`grid` is the resident one, if any), admit the windows of
    /// every series the base does not cover yet, and sketch the groups
    /// that took them.
    fn admit_length(
        &self,
        pass: &Pass<'_>,
        len: usize,
        groups: &mut GroupColumn,
        grid: Option<PaaGrid>,
    ) -> Result<Admitted, OnexError> {
        #[cfg(test)]
        if self.fail_len == Some(len) {
            return Err(OnexError::Internal(format!(
                "injected construction failure at length {len}"
            )));
        }
        let started = Instant::now();
        let admission = self.config.admission_radius(len);
        let admission_sq = admission * admission;
        // New seeds are read in place from the series the dataset gained.
        groups.adopt_series(pass.series);
        let (mut index, seeded) = ResidentIndex::mirror(grid, len, admission, groups);
        let mut work = IndexWork::default();
        let mut touched: Vec<u32> = Vec::new();
        if !pass.batch {
            let series = pass.seen..pass.dataset.len();
            touched.reserve_exact(
                series
                    .map(|sid| pass.space.count_for_series_len(sid, len))
                    .sum(),
            );
        }
        let mut windows = 0;
        for sid in pass.seen..pass.dataset.len() {
            for r in pass.space.refs_for_series_len(sid, len) {
                let taken = self
                    .assign_one(pass.dataset, groups, &mut index, r, admission_sq, &mut work)
                    .ok_or_else(|| {
                        OnexError::Internal(format!(
                            "subsequence reference {r} fell out of bounds mid-construction"
                        ))
                    })?;
                if !pass.batch {
                    touched.push(taken as u32);
                }
                windows += 1;
            }
        }
        let grid = (!pass.batch).then_some((index, seeded));
        let synced = if pass.batch {
            // The column lives as long as the base: give back the block
            // list's and the member lists' slack, then sketch everything.
            groups.shrink_to_fit();
            let synced = Instant::now();
            let all = 0..groups.len();
            sketch::sync_length(pass.dataset, groups, all);
            synced
        } else {
            // The prior sketches came along with the copy (parameters stay
            // frozen); sketch the newly admitted members only.
            let synced = Instant::now();
            sketch::sync_length(
                pass.dataset,
                groups,
                touched.into_iter().map(|gi| gi as usize),
            );
            synced
        };
        Ok(Admitted {
            work,
            windows,
            grid,
            busy: started.elapsed(),
            sketch: synced.elapsed(),
        })
    }

    /// The admission rule applied to one subsequence — the single place
    /// every construction runs through: join the nearest group within
    /// `ST/2`, else seed a new one, keeping the index in sync with seeded
    /// groups and drifting centroids. A seeded group's representative is
    /// `r`'s window read in place from `dataset`'s shared series,
    /// whatever the policy; a centroid takes its own copy the first time
    /// it moves. Returns the index of the group that took the member —
    /// `None`, with nothing changed, when `r` does not resolve in
    /// `dataset` or in the series `groups` reads.
    fn assign_one(
        &self,
        dataset: &Dataset,
        groups: &mut GroupColumn,
        index: &mut PaaGrid,
        r: onex_tseries::SubseqRef,
        admission_sq: f64,
        work: &mut IndexWork,
    ) -> Option<usize> {
        let xs = dataset.resolve(r).ok()?;
        let centroid = self.config.policy == RepresentativePolicy::Centroid;
        Some(match index.nearest_within(xs, admission_sq, groups, work) {
            Some((gi, d_sq)) => {
                groups.admit(gi, r, xs, d_sq.sqrt(), centroid);
                if centroid {
                    index.update(gi, groups.at(gi).representative());
                }
                gi
            }
            None => {
                if !groups.push_seed(r) {
                    return None;
                }
                index.insert(groups.len() - 1, xs);
                groups.len() - 1
            }
        })
    }

    /// The receipt for `base`, built aside from `previous`, its workers
    /// having spent `sketch_share` of their time sketching.
    fn report(
        &self,
        base: &OnexBase,
        previous: &OnexBase,
        start: Instant,
        sketch_share: f64,
        work: IndexWork,
    ) -> BuildReport {
        let elapsed = start.elapsed();
        let blocks_total = base.block_count();
        BuildReport {
            elapsed,
            sketch: elapsed.mul_f64(sketch_share),
            lengths: base.lengths().count(),
            subsequences: base.member_count(),
            groups: base.group_count(),
            work,
            blocks_copied: blocks_total - base.shared_blocks(previous),
            blocks_total,
            series: base.source_series(),
            epoch: 0,
        }
    }
}

/// Run `task` over `items` on up to `workers` threads — the calling one
/// and scoped ones beside it — each taking the next item as it finishes
/// one, and give the results back in item order. When a task panics the
/// panic is resumed on the caller once every worker has stopped.
fn across<T: Send, R: Send>(items: Vec<T>, workers: usize, task: impl Fn(T) -> R + Sync) -> Vec<R> {
    let workers = workers.clamp(1, items.len().max(1));
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("no task runs under the lock").next();
            let Some((at, item)) = next else { break done };
            done.push((at, task(item)));
        }
    };
    let mut panic = None;
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // A panic here unwinds out of the scope once the others stop.
        let mut done = work();
        for other in others {
            match other.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        done.into_iter()
            .for_each(|(at, result)| results[at] = Some(result));
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|result| result.expect("every item ran"))
        .collect()
}

#[cfg(test)]
#[path = "../tests/model/mod.rs"]
mod model;

#[cfg(test)]
mod tests {
    use super::*;
    use onex_distance::ed;
    use onex_tseries::TimeSeries;

    fn tiny() -> Dataset {
        Dataset::from_series(vec![
            TimeSeries::new("flat", vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            TimeSeries::new("near", vec![0.1, 0.1, 0.1, 0.1, 0.1, 0.1]),
            TimeSeries::new("far", vec![9.0, 9.0, 9.0, 9.0, 9.0, 9.0]),
        ])
        .unwrap()
    }

    #[test]
    fn similar_series_share_groups_dissimilar_do_not() {
        let cfg = BaseConfig::new(1.0, 4, 4); // admission radius 0.5·√4 = 1
        let (base, report) = BaseBuilder::new(cfg).unwrap().build(&tiny());
        // 3 windows per series of length 4 → 9 subsequences. flat/near are
        // within 0.1·√4 = 0.2 in raw ED of each other, far is ~18 away.
        assert_eq!(report.subsequences, 9);
        assert_eq!(report.groups, 2, "flat+near merge, far isolates");
        assert!(report.compaction() > 4.0);
        assert!(report.work.examined > 0 && report.work.distance_calls > 0);
        let groups = base.groups_for_len(4);
        let cardinalities: Vec<usize> = groups.iter().map(|g| g.cardinality()).collect();
        assert!(cardinalities.contains(&6) && cardinalities.contains(&3));
    }

    #[test]
    fn tiny_threshold_isolates_everything() {
        let cfg = BaseConfig::new(1e-9, 4, 4);
        let (_, report) = BaseBuilder::new(cfg).unwrap().build(&tiny());
        // Identical windows (within one constant series) still merge at
        // distance 0; distinct series values do not.
        assert_eq!(report.groups, 3);
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let cfg = BaseConfig::new(1e6, 4, 4);
        let (_, report) = BaseBuilder::new(cfg).unwrap().build(&tiny());
        assert_eq!(report.groups, 1);
        assert_eq!(report.compaction(), 9.0);
    }

    /// What `build` does, over `workers` workers.
    fn built_on(
        builder: &BaseBuilder,
        dataset: &Dataset,
        workers: usize,
    ) -> (OnexBase, BuildReport) {
        let empty =
            OnexBase::from_parts(builder.config.clone(), BTreeMap::new(), Default::default());
        builder.construct(&empty, dataset, None, workers).unwrap()
    }

    fn walks(series: usize, len: usize, seed: u64) -> Dataset {
        onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series,
            len,
            seed,
        })
    }

    #[test]
    fn parallel_build_is_identical() {
        // Lengths are independent: at any worker count a build, and an
        // extension through a fresh and then a kept index, give one base,
        // one set of sketches and one account of the work.
        let ds = walks(8, 40, 21);
        let mut grown = ds.clone();
        grown
            .push(TimeSeries::new(
                "short",
                onex_tseries::gen::random_walk(14, 1.0, 5),
            ))
            .unwrap();
        grown
            .push(TimeSeries::new(
                "long",
                onex_tseries::gen::random_walk(40, 1.0, 6),
            ))
            .unwrap();
        let mut later = grown.clone();
        later
            .push(TimeSeries::new(
                "later",
                onex_tseries::gen::random_walk(33, 1.0, 7),
            ))
            .unwrap();
        for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
            let builder = BaseBuilder::new(BaseConfig {
                policy,
                ..BaseConfig::new(0.8, 6, 20)
            })
            .unwrap();
            let run = |workers: usize| {
                let (base, built) = built_on(&builder, &ds, workers);
                let mut resident = ResidentIndex::new();
                let extend = |base: &OnexBase, ds: &Dataset, resident: &mut ResidentIndex| {
                    builder
                        .construct(base, ds, Some(resident), workers)
                        .unwrap()
                };
                let (first, once) = extend(&base, &grown, &mut resident);
                let (second, twice) = extend(&first, &later, &mut resident);
                let reports =
                    [built, once, twice].map(|r| (r.work, r.blocks_copied, r.blocks_total));
                (
                    base,
                    first,
                    second,
                    reports,
                    resident.seeds(),
                    resident.entries(),
                )
            };
            let (base, first, second, reports, seeds, entries) = run(1);
            assert_eq!((seeds, entries), (15, second.group_count()), "{policy:?}");
            for workers in [2, 3, 9] {
                let what = format!("{policy:?}, {workers} workers");
                let other = run(workers);
                for (mine, theirs) in [(&other.0, &base), (&other.1, &first), (&other.2, &second)] {
                    assert_eq!(mine, theirs, "{what}");
                    assert!(mine.sketches() == theirs.sketches(), "{what}");
                }
                assert_eq!(other.3, reports, "{what}");
                assert_eq!((other.4, other.5), (seeds, entries), "{what}");
            }
            assert_eq!(builder.build(&ds).0, base, "{policy:?}");
        }
    }

    #[test]
    fn a_failed_length_fails_the_build_at_every_worker_count() {
        let ds = walks(4, 30, 3);
        let mut builder = BaseBuilder::new(BaseConfig::new(0.8, 6, 12)).unwrap();
        builder.fail_len = Some(9);
        for workers in [1, 2, 3, 9] {
            let empty =
                OnexBase::from_parts(builder.config.clone(), BTreeMap::new(), Default::default());
            match builder.construct(&empty, &ds, None, workers) {
                Err(OnexError::Internal(msg)) => assert!(msg.contains("injected"), "{msg}"),
                other => panic!("{workers} workers: expected Internal, got {other:?}"),
            }
        }
        // `build` has no error to return: it panics on the caller, which
        // the engine's build turns into a typed error.
        let panic = std::panic::catch_unwind(|| builder.build(&ds)).expect_err("must panic");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            message.contains("injected construction failure at length 9"),
            "{message}"
        );
        // The builder remains usable after a failed run.
        builder.fail_len = None;
        assert!(builder.build(&ds).0.stats().groups > 0);
    }

    #[test]
    fn a_panicking_task_is_resumed_on_the_caller_once_every_worker_stops() {
        for workers in [1, 2, 3, 9] {
            let squares = across((0..20).collect(), workers, |x: u64| x * x);
            assert_eq!(
                squares,
                (0..20).map(|x| x * x).collect::<Vec<_>>(),
                "{workers}"
            );
            let ran = std::sync::atomic::AtomicUsize::new(0);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                across((0..20).collect(), workers, |x: usize| {
                    assert_ne!(x, 7, "task seven fails");
                    ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                })
            }))
            .expect_err("the panic reaches the caller");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("task seven fails"), "{message}");
            // On one worker nothing runs after the panic; on more, the
            // others drain the queue before the panic is resumed.
            let ran = ran.into_inner();
            assert_eq!(ran, if workers == 1 { 7 } else { 19 }, "{workers} workers");
        }
    }

    #[test]
    fn seed_policy_invariant_holds_exactly() {
        let ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 6,
            len: 30,
            seed: 4,
        });
        let cfg = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(1.0, 5, 12)
        };
        let (base, _) = BaseBuilder::new(cfg).unwrap().build(&ds);
        for len in base.lengths() {
            let admission = base.config().admission_radius(len);
            for g in base.groups_for_len(len) {
                for m in g.members() {
                    let xs = ds.resolve(m).unwrap();
                    let d = ed(xs, g.representative());
                    assert!(
                        d <= admission + 1e-9,
                        "member {m} at {d} > admission {admission}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_subsequence_lands_in_exactly_one_group() {
        let ds = tiny();
        let cfg = BaseConfig::new(0.5, 3, 5);
        let (base, report) = BaseBuilder::new(cfg.clone()).unwrap().build(&ds);
        let space = SubsequenceSpace::new(&ds, &cfg);
        let mut seen = std::collections::HashSet::new();
        for len in base.lengths() {
            for g in base.groups_for_len(len) {
                for m in g.members() {
                    assert!(seen.insert(m), "duplicate member {m}");
                }
            }
        }
        assert_eq!(seen.len(), space.total());
        assert_eq!(report.subsequences, space.total());
    }

    #[test]
    fn builder_rejects_invalid_config() {
        assert!(BaseBuilder::new(BaseConfig::new(-1.0, 4, 8)).is_err());
    }

    #[test]
    fn indexed_build_is_identical_to_linear_reference() {
        // The end-to-end harness's `cluster` / `ingest` shape cut down:
        // random walks, lengths 16..=24, ST 1.0 — a base that barely
        // compacts, where the lookup is most of construction.
        let ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 12,
            len: 96,
            seed: 77,
        });
        for policy in [RepresentativePolicy::Seed, RepresentativePolicy::Centroid] {
            let cfg = BaseConfig {
                policy,
                ..BaseConfig::new(1.0, 16, 24)
            };
            let model = model::build(&ds, &cfg);
            let (base, report) = BaseBuilder::new(cfg).unwrap().build(&ds);
            model::assert_matches(&model, &base, &format!("{policy:?}"));
            // The grid must do the linear scan's job in far fewer
            // comparisons, and account for every representative it did
            // not compare.
            assert_eq!(
                report.work.examined + report.work.pruned,
                model.scanned,
                "{policy:?}"
            );
            assert!(
                report.work.examined * 4 < model.scanned,
                "{policy:?}: grid examined {} vs linear {}",
                report.work.examined,
                model.scanned
            );
        }
    }

    #[test]
    fn extend_indexes_only_the_new_series() {
        let mut ds = tiny();
        let cfg = BaseConfig::new(1.0, 4, 4);
        let builder = BaseBuilder::new(cfg.clone()).unwrap();
        let (base, before) = builder.build(&ds);
        ds.push(TimeSeries::new("near2", vec![0.05; 6])).unwrap();
        let (extended, after) = builder.extend(&base, &ds).unwrap();
        // 3 new windows of length 4, all near the flat/near group.
        assert_eq!(after.subsequences, before.subsequences + 3);
        assert_eq!(
            after.groups, before.groups,
            "new windows join existing groups"
        );
        assert_eq!(extended.source_series(), 4);
        // The space partition still covers everything exactly once.
        let space = SubsequenceSpace::new(&ds, &cfg);
        let members: usize = extended
            .groups_for_len(4)
            .iter()
            .map(|g| g.cardinality())
            .sum();
        assert_eq!(members, space.total());
    }

    #[test]
    fn extend_creates_new_lengths_and_groups_when_needed() {
        let mut ds = tiny();
        let cfg = BaseConfig::new(1.0, 4, 10);
        let builder = BaseBuilder::new(cfg).unwrap();
        let (base, _) = builder.build(&ds);
        assert!(
            base.groups_for_len(8).is_empty(),
            "no series long enough yet"
        );
        // A longer, very different series: new lengths and new groups.
        ds.push(TimeSeries::new(
            "long",
            (0..10).map(|i| i as f64 * 50.0).collect(),
        ))
        .unwrap();
        let (extended, _) = builder.extend(&base, &ds).unwrap();
        assert!(!extended.groups_for_len(8).is_empty());
        assert!(!extended.groups_for_len(10).is_empty());
        let audit = extended.audit(&ds);
        assert_eq!(audit.unresolvable, 0);
    }

    #[test]
    fn extend_preserves_seed_invariant() {
        let mut ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 4,
            len: 30,
            seed: 61,
        });
        let cfg = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(1.0, 5, 12)
        };
        let builder = BaseBuilder::new(cfg).unwrap();
        let (base, _) = builder.build(&ds);
        for extra in 0..3 {
            ds.push(TimeSeries::new(
                format!("extra-{extra}"),
                onex_tseries::gen::random_walk(30, 1.0, 100 + extra),
            ))
            .unwrap();
        }
        let (extended, _) = builder.extend(&base, &ds).unwrap();
        let audit = extended.audit(&ds);
        assert_eq!(audit.violations, 0, "{audit:?}");
        assert_eq!(extended.source_series(), 7);
    }

    #[test]
    fn extend_rejects_mismatches() {
        let ds = tiny();
        let builder_a = BaseBuilder::new(BaseConfig::new(1.0, 4, 4)).unwrap();
        let builder_b = BaseBuilder::new(BaseConfig::new(2.0, 4, 4)).unwrap();
        let (base, _) = builder_a.build(&ds);
        assert!(builder_b.extend(&base, &ds).is_err(), "config mismatch");
        let smaller = Dataset::new();
        assert!(builder_a.extend(&base, &smaller).is_err(), "shrunk dataset");
    }

    #[test]
    fn extend_with_no_new_series_is_identity() {
        let ds = tiny();
        let builder = BaseBuilder::new(BaseConfig::new(1.0, 4, 4)).unwrap();
        let (base, _) = builder.build(&ds);
        let (extended, report) = builder.extend(&base, &ds).unwrap();
        assert_eq!(extended, base);
        assert_eq!(report.work, IndexWork::default(), "no lookups performed");
    }

    #[test]
    fn a_failed_mid_extend_leaves_the_base_untouched() {
        let mut ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 4,
            len: 30,
            seed: 9,
        });
        let cfg = BaseConfig::new(0.8, 6, 12);
        let mut builder = BaseBuilder::new(cfg).unwrap();
        let (base, _) = builder.build(&ds);
        let pristine = base.clone();
        ds.push(TimeSeries::new(
            "late",
            onex_tseries::gen::random_walk(30, 1.0, 200),
        ))
        .unwrap();
        // Fail one length while the others are re-indexed into the
        // working copy: the caller's base must not see any of it.
        builder.fail_len = Some(9);
        let err = builder.extend(&base, &ds).expect_err("injected failure");
        assert!(matches!(err, OnexError::Internal(_)), "{err:?}");
        assert_eq!(base, pristine, "failed extend mutated the caller's base");
        // The same builder completes the extension once the fault clears,
        // exactly as if the failed attempt never happened.
        builder.fail_len = None;
        let (extended, _) = builder.extend(&base, &ds).unwrap();
        let clean = BaseBuilder::new(BaseConfig::new(0.8, 6, 12)).unwrap();
        let (reference, _) = clean.extend(&pristine, &ds).unwrap();
        assert_eq!(extended, reference);
    }

    #[test]
    fn a_failed_extend_clears_the_resident_index_and_a_kept_one_is_reused() {
        let mut ds = walks(4, 30, 9);
        let mut builder = BaseBuilder::new(BaseConfig::new(0.8, 6, 12)).unwrap();
        let (base, _) = builder.build(&ds);
        ds.push(TimeSeries::new(
            "late",
            onex_tseries::gen::random_walk(30, 1.0, 200),
        ))
        .unwrap();
        let (reference, _) = builder.extend(&base, &ds).unwrap();
        let mut later = ds.clone();
        later
            .push(TimeSeries::new(
                "later",
                onex_tseries::gen::random_walk(30, 1.0, 201),
            ))
            .unwrap();

        for workers in [1, 2, 3, 9] {
            // Every length but 9 is extended — its column seeded and
            // mutated — beside the failure at 9: none of that may be
            // trusted again.
            let mut resident = ResidentIndex::new();
            builder.fail_len = Some(9);
            builder
                .construct(&base, &ds, Some(&mut resident), workers)
                .expect_err("injected failure");
            assert_eq!((resident.kind(), resident.entries()), ("none", 0));
            assert_eq!(resident.seeds(), 6, "lengths 6..=12 but 9 had been seeded");

            builder.fail_len = None;
            let (extended, first) = builder
                .construct(&base, &ds, Some(&mut resident), workers)
                .unwrap();
            assert_eq!(extended, reference, "{workers} workers");
            assert_eq!(extended.sketches(), reference.sketches());
            assert_eq!((resident.kind(), resident.seeds()), ("grid", 6 + 7));
            assert_eq!(resident.entries(), extended.group_count());

            // Extending the returned base finds every column resident and
            // gives the stateless path's result.
            let (stateless, _) = builder.extend(&extended, &later).unwrap();
            let (kept, second) = builder
                .construct(&extended, &later, Some(&mut resident), workers)
                .unwrap();
            assert_eq!(kept, stateless, "{workers} workers");
            assert_eq!(kept.sketches(), stateless.sketches());
            assert_eq!(resident.seeds(), 13, "nothing was re-seeded");
            assert_eq!((first.series, second.series, second.epoch), (5, 6, 0));
        }
    }
}
