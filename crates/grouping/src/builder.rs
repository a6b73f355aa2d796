use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use onex_api::{Epoch, OnexError};
use onex_tseries::Dataset;

use crate::group::{series_table, SeriesTable};
use crate::repindex::{IndexWork, PaaGrid, ResidentIndex};
use crate::{BaseConfig, GroupColumn, OnexBase, RepresentativePolicy, SubsequenceSpace};

/// Constructs the ONEX base from a dataset (paper §3.1, the
/// "pre-processing step" at the top of Fig 1).
///
/// All three construction paths — [`BaseBuilder::build`],
/// [`BaseBuilder::build_parallel`] and the incremental
/// [`BaseBuilder::extend`] — share one admission rule (the private
/// `assign_one`) driven through the exact nearest-representative grid
/// ([`PaaGrid`]), so they produce identical assignments.
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
    /// Test-only fault injection: panic while constructing this length,
    /// exercising the parallel builder's worker-failure propagation.
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
    /// Of which the pass that sketches the members (every construction
    /// path ends with one: a batch build over every member, an extension
    /// over the ones it admitted).
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
    /// Column blocks (one column a length: groups and their sketches in
    /// the same blocks) this run allocated: all of them for a batch build,
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

    /// Sequential construction.
    pub fn build(&self, dataset: &Dataset) -> (OnexBase, BuildReport) {
        let start = Instant::now();
        let space = SubsequenceSpace::new(dataset, &self.config);
        let series = series_table(dataset);
        let mut per_length = BTreeMap::new();
        let mut work = IndexWork::default();
        for len in space.lengths() {
            let (groups, w) = self.build_length(dataset, &series, &space, len);
            work += w;
            per_length.insert(len, groups);
        }
        self.finish(dataset, series, per_length, start, work)
    }

    /// Length-parallel construction over `threads` workers. Lengths are
    /// independent, so the result is identical to [`Self::build`]
    /// regardless of the thread count.
    ///
    /// # Errors
    /// [`OnexError::Internal`] when a construction worker panics: the
    /// failure is reported instead of poisoning the calling process, so a
    /// server can answer the load request with a 500 and keep serving.
    pub fn build_parallel(
        &self,
        dataset: &Dataset,
        threads: usize,
    ) -> Result<(OnexBase, BuildReport), OnexError> {
        let start = Instant::now();
        let space = SubsequenceSpace::new(dataset, &self.config);
        let lengths = space.lengths();
        let threads = threads.clamp(1, lengths.len().max(1));
        if threads <= 1 {
            return Ok(self.build(dataset));
        }
        let series = series_table(dataset);
        // Interleave lengths across workers so long lengths (slower rows)
        // spread out; each worker returns its (len, groups, work) rows.
        let mut per_length = BTreeMap::new();
        let mut work = IndexWork::default();
        let mut failures: Vec<String> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let my_lengths: Vec<usize> =
                    lengths.iter().copied().skip(t).step_by(threads).collect();
                let (space, series) = (&space, &series);
                handles.push(scope.spawn(move |_| {
                    my_lengths
                        .into_iter()
                        .map(|len| (len, self.build_length(dataset, series, space, len)))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(rows) => {
                        for (len, (groups, w)) in rows {
                            work += w;
                            per_length.insert(len, groups);
                        }
                    }
                    Err(panic) => failures.push(panic_message(panic.as_ref())),
                }
            }
        })
        .expect("every worker is joined explicitly");
        if !failures.is_empty() {
            return Err(OnexError::Internal(format!(
                "{} of {threads} construction workers failed; first failure: {}",
                failures.len(),
                failures[0]
            )));
        }
        Ok(self.finish(dataset, series, per_length, start, work))
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
        let extended = self.extend_through(base, dataset, resident);
        if extended.is_err() {
            resident.clear();
        }
        extended
    }

    fn extend_through(
        &self,
        base: &OnexBase,
        dataset: &Dataset,
        resident: &mut ResidentIndex,
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
        // Build aside: all mutation below happens on this copy, which
        // shares its column blocks with `base` until it writes to them.
        let mut extended = base.clone();
        let mut work = IndexWork::default();
        // Per length, new subsequences arrive series-major then
        // start-ascending — the same order `build_length` consumes — and
        // group lists of different lengths are independent, so iterating
        // length-outer here (instead of the append order) assigns every
        // window exactly as the batch path would. The space owns the
        // window enumeration, so batch and incremental paths cannot
        // drift apart.
        let space = SubsequenceSpace::new(dataset, &self.config);
        let series = series_table(dataset);
        let mut admitted = 0usize;
        let mut touched = Vec::new();
        let mut longest_new = 0usize;
        for sid in seen..dataset.len() {
            let series = dataset.series(sid as u32).ok_or_else(|| {
                OnexError::Internal(format!("series {sid} vanished while extending the base"))
            })?;
            longest_new = longest_new.max(series.len());
        }
        let mut sketch = Duration::ZERO;
        for len in self.config.min_len..=self.config.max_len.min(longest_new) {
            #[cfg(test)]
            if self.fail_len == Some(len) {
                return Err(OnexError::Internal(format!(
                    "injected extension failure at length {len}"
                )));
            }
            let new_windows: usize = (seen..dataset.len())
                .map(|sid| space.count_for_series_len(sid, len))
                .sum();
            if new_windows == 0 {
                continue;
            }
            let admission = self.config.admission_radius(len);
            let admission_sq = admission * admission;
            let groups = extended.column_mut(len);
            // New seeds are read in place from the series the dataset
            // gained.
            groups.adopt_series(&series);
            let index = resident.column(len, admission, groups);
            touched.clear();
            for sid in seen..dataset.len() {
                for r in space.refs_for_series_len(sid, len) {
                    let taken = self
                        .assign_one(dataset, groups, index, r, admission_sq, &mut work)
                        .ok_or_else(|| {
                            OnexError::Internal(format!(
                                "subsequence reference {r} fell out of bounds mid-extension"
                            ))
                        })?;
                    touched.push(taken);
                }
            }
            admitted += new_windows;
            // The prior sketches came along with the copy (params stay
            // frozen); append slots for the newly admitted members only.
            let synced = Instant::now();
            extended.sync_sketches_of(dataset, len, &touched);
            sketch += synced.elapsed();
        }
        extended.admitted(series, admitted);
        let report = self.report(&extended, Some(base), start, sketch, work);
        Ok((extended, report))
    }

    /// Online assignment for one length: each subsequence joins the
    /// nearest group whose representative is within the admission radius,
    /// else seeds a new group. The lookup goes through a [`PaaGrid`] that
    /// lives as long as the call.
    fn build_length(
        &self,
        dataset: &Dataset,
        series: &SeriesTable,
        space: &SubsequenceSpace,
        len: usize,
    ) -> (GroupColumn, IndexWork) {
        #[cfg(test)]
        if self.fail_len == Some(len) {
            panic!("injected construction failure at length {len}");
        }
        let admission = self.config.admission_radius(len);
        let admission_sq = admission * admission;
        let mut groups = GroupColumn::over(SeriesTable::clone(series));
        let mut index = PaaGrid::new(len, admission);
        let mut work = IndexWork::default();
        for r in space.refs_for_len(len) {
            self.assign_one(dataset, &mut groups, &mut index, r, admission_sq, &mut work)
                .expect("space references are in bounds");
        }
        // The column lives as long as the base: give back the block
        // list's and the member lists' slack.
        groups.shrink_to_fit();
        (groups, work)
    }

    /// The admission rule applied to one subsequence — the single place
    /// every construction path (batch, parallel, incremental) runs
    /// through: join the nearest group within `ST/2`, else seed a new one,
    /// keeping the index in sync with seeded groups and drifting
    /// centroids. A seeded group's representative is `r`'s window read in
    /// place from `dataset`'s shared series, whatever the policy; a
    /// centroid takes its own copy the first time it moves. Returns the
    /// index of the group that took the member — `None`, with nothing
    /// changed, when `r` does not resolve in `dataset` or in the series
    /// `groups` reads.
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

    fn finish(
        &self,
        dataset: &Dataset,
        series: SeriesTable,
        per_length: BTreeMap<usize, GroupColumn>,
        start: Instant,
        work: IndexWork,
    ) -> (OnexBase, BuildReport) {
        let mut base = OnexBase::from_parts(self.config.clone(), per_length, series);
        let synced = Instant::now();
        base.sync_sketches(dataset);
        let report = self.report(&base, None, start, synced.elapsed(), work);
        (base, report)
    }

    /// The receipt for `base`, built aside from `previous` (from nothing
    /// when `None`).
    fn report(
        &self,
        base: &OnexBase,
        previous: Option<&OnexBase>,
        start: Instant,
        sketch: Duration,
        work: IndexWork,
    ) -> BuildReport {
        let blocks_total = base.block_count();
        let shared = previous.map_or(0, |previous| base.shared_blocks(previous));
        BuildReport {
            elapsed: start.elapsed(),
            sketch,
            lengths: base.lengths().count(),
            subsequences: base.member_count(),
            groups: base.group_count(),
            work,
            blocks_copied: blocks_total - shared,
            blocks_total,
            series: base.source_series(),
            epoch: 0,
        }
    }
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

    #[test]
    fn parallel_build_is_identical() {
        let ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 8,
            len: 40,
            seed: 21,
        });
        let cfg = BaseConfig::new(0.8, 6, 20);
        let builder = BaseBuilder::new(cfg).unwrap();
        let (seq, seq_report) = builder.build(&ds);
        for threads in [1, 2, 3, 7, 32] {
            let (par, par_report) = builder.build_parallel(&ds, threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(seq_report.work, par_report.work, "threads={threads}");
        }
    }

    #[test]
    fn parallel_worker_failure_is_a_typed_error_not_a_process_abort() {
        let ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 4,
            len: 30,
            seed: 3,
        });
        let mut builder = BaseBuilder::new(BaseConfig::new(0.8, 6, 12)).unwrap();
        builder.fail_len = Some(9);
        let err = builder
            .build_parallel(&ds, 3)
            .expect_err("poisoned length must surface as an error");
        match err {
            OnexError::Internal(msg) => {
                assert!(msg.contains("injected construction failure"), "{msg}");
                assert!(msg.contains("workers failed"), "{msg}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The builder remains usable after a failed run.
        builder.fail_len = None;
        let (base, _) = builder.build_parallel(&ds, 3).unwrap();
        assert!(base.stats().groups > 0);
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
                for &m in g.members() {
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
                for &m in g.members() {
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
        // Fail after several lengths have already been re-indexed into
        // the working copy: the caller's base must not see any of it.
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
        let mut ds = onex_tseries::gen::random_walk_dataset(onex_tseries::gen::SyntheticConfig {
            series: 4,
            len: 30,
            seed: 9,
        });
        let mut builder = BaseBuilder::new(BaseConfig::new(0.8, 6, 12)).unwrap();
        let (base, _) = builder.build(&ds);
        ds.push(TimeSeries::new(
            "late",
            onex_tseries::gen::random_walk(30, 1.0, 200),
        ))
        .unwrap();
        let (reference, _) = builder.extend(&base, &ds).unwrap();

        // Lengths 6..9 are extended — their columns seeded and mutated —
        // before the failure at 9: none of that may be trusted again.
        let mut resident = ResidentIndex::new();
        builder.fail_len = Some(9);
        builder
            .extend_resident(&base, &ds, &mut resident)
            .expect_err("injected failure");
        assert_eq!((resident.kind(), resident.entries()), ("none", 0));
        assert_eq!(resident.seeds(), 3, "lengths 6, 7 and 8 had been seeded");

        builder.fail_len = None;
        let (extended, first) = builder.extend_resident(&base, &ds, &mut resident).unwrap();
        assert_eq!(extended, reference);
        assert_eq!(extended.sketches(), reference.sketches());
        assert_eq!((resident.kind(), resident.seeds()), ("grid", 3 + 7));
        assert_eq!(resident.entries(), extended.group_count());

        // Extending the returned base finds every column resident and
        // gives the stateless path's result.
        ds.push(TimeSeries::new(
            "later",
            onex_tseries::gen::random_walk(30, 1.0, 201),
        ))
        .unwrap();
        let (stateless, _) = builder.extend(&extended, &ds).unwrap();
        let (kept, second) = builder
            .extend_resident(&extended, &ds, &mut resident)
            .unwrap();
        assert_eq!(kept, stateless);
        assert_eq!(kept.sketches(), stateless.sketches());
        assert_eq!(resident.seeds(), 10, "nothing was re-seeded");
        assert_eq!((first.series, second.series, second.epoch), (5, 6, 0));
    }
}
