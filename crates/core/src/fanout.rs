//! The one fan-out core under both partitioned engines:
//! [`crate::scale::ShardedEngine`] (N in-process shards) and
//! `onex_net::ClusterEngine` (N shard servers) each own a [`Fanout`] and
//! hand it one [`Task`] per slot per query. Everything else a partitioned
//! query needs lives here, once:
//!
//! * **Placement.** The collection is partitioned round-robin: global
//!   series `g` lives on slot [`slot_of`]`(g, n)` as local id `g / n`,
//!   and [`global`] reconstructs `local · n + slot`. [`localize`]
//!   translates a global-id option set into one slot's numbering.
//! * **Lanes.** One persistent worker thread per slot behind a std
//!   `sync_channel` of two; a query is a channel send per slot, never a
//!   thread spawn. A panicking task costs one typed
//!   [`OnexError::Internal`] reply, a dead lane is respawned by the next
//!   query that needs it.
//! * **Bound.** Every query gets a fresh `∞`-seeded [`SharedBound`] —
//!   one for all its slots, or one per slot when sharing is off — so
//!   concurrent queries can never prune each other's answers.
//! * **Deadline.** Replies come back on one `sync_channel` per query
//!   with room for every slot's, collected under one per-query deadline;
//!   passing it cancels the query's bounds (in-flight work finishes
//!   trivially) and returns a typed
//!   [`NetworkErrorKind::Timeout`].
//! * **Policy.** [`DegradePolicy`] decides what failed slots cost; every
//!   answer carries its [`Coverage`].
//! * **Merge.** Per-slot matches merge through [`BestK`] under the
//!   length-normalised ranking the single engine uses; per-slot
//!   [`BackendStats`] sum (the slots index disjoint subsequence spaces).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use onex_api::{
    validate_query, BackendMatch, BackendStats, BestK, Capabilities, Coverage, DegradePolicy,
    Metric, NetworkErrorKind, OnexError, SearchOutcome, SharedBound,
};
use onex_tseries::{Dataset, SubseqRef, TimeSeries};

use crate::search::normalize;
use crate::{LengthSelection, QueryOptions, ScanBreadth};

/// The per-query reply deadline an engine gets unless it sets its own.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(60);

/// The slot that owns global series `g` among `n` slots.
pub fn slot_of(g: u32, n: usize) -> usize {
    g as usize % n
}

/// `dataset` split round-robin over `n` slots, `n` clamped to the
/// series count: part `s` holds every series [`slot_of`] places on slot
/// `s`, in global order, so its local id `l` is global [`global`]`(l, s, n)`.
pub fn partition(dataset: &Dataset, n: usize) -> Vec<Dataset> {
    let n = n.min(dataset.len());
    let mut parts: Vec<Vec<TimeSeries>> = vec![Vec::new(); n];
    for (g, series) in dataset.iter() {
        parts[slot_of(g, n)].push(series.clone());
    }
    parts
        .into_iter()
        .map(|part| Dataset::from_series(part).expect("a part of a dataset has unique names"))
        .collect()
}

/// The global id of slot `slot`'s local series `local` among `n` slots.
pub fn global(local: u32, slot: usize, n: usize) -> u32 {
    local * n as u32 + slot as u32
}

/// Translate the global series ids in `opts` into slot `slot`'s local
/// ids. `None` means the slot cannot contribute at all: an `only_series`
/// filter names a series another slot owns.
pub fn localize(opts: &QueryOptions, slot: usize, n: usize) -> Option<QueryOptions> {
    let local = |g: u32| (slot_of(g, n) == slot).then_some(g / n as u32);
    let mut o = opts.clone();
    o.exclude_series = o.exclude_series.and_then(local);
    if let Some(g) = o.only_series {
        o.only_series = Some(local(g)?);
    }
    o.exclude_windows = o
        .exclude_windows
        .iter()
        .filter_map(|w| local(w.series).map(|l| SubseqRef::new(l, w.start, w.len)))
        .collect();
    Some(o)
}

/// One slot's share of one query: what to search for, under which
/// slot-local options and pruning bound, and where the answer goes.
pub struct Job {
    /// The query values.
    pub query: Arc<[f64]>,
    /// How many matches the caller asked for.
    pub k: usize,
    /// The engine's options in this slot's local series numbering.
    pub opts: QueryOptions,
    /// The pruning bound this slot tightens and observes.
    pub bound: Arc<SharedBound>,
    slot: usize,
    replied: AtomicBool,
    reply: SyncSender<(usize, Result<SearchOutcome, OnexError>)>,
}

impl Job {
    /// Deliver this slot's answer. A task may call this before it
    /// returns (a hedged race answers with the winner, then joins the
    /// loser); only the first delivery counts.
    pub fn reply(&self, result: Result<SearchOutcome, OnexError>) {
        if !self.replied.swap(true, Ordering::SeqCst) {
            // A send error means the query side gave up; the result is moot.
            let _ = self.reply.send((self.slot, result));
        }
    }
}

/// What a slot does with its [`Job`]: the engine builds one per slot per
/// query, capturing whatever that slot needs (a pinned snapshot, a
/// replica set). It runs on the slot's lane and must [`Job::reply`].
pub type Task = Box<dyn FnOnce(&Job) + Send>;

/// Counters of a [`Fanout`]'s lane pool. `threads_spawned` equals
/// `workers` for the pool's lifetime unless a dead lane was respawned:
/// queries are channel sends, never spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker lanes the pool runs (one per slot).
    pub workers: usize,
    /// Threads ever spawned: `workers` plus one per respawned lane.
    pub threads_spawned: usize,
    /// Tasks executed so far (each query contributes one per slot that
    /// can contribute).
    pub jobs_executed: usize,
}

struct Lane {
    tx: Option<SyncSender<(Job, Task)>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Lane {
    /// Disconnect the worker and join it. The lane refuses sends from
    /// then on, which is what makes the next query respawn it.
    fn close(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A partitioned query's machinery — see the [module docs](self). The
/// four public fields are the whole configuration; the owning engine's
/// builder methods set them.
pub struct Fanout {
    name: &'static str,
    lanes: Vec<Mutex<Lane>>,
    threads_spawned: AtomicUsize,
    jobs_executed: Arc<AtomicUsize>,
    /// Query options, series ids in the **global** numbering.
    pub opts: QueryOptions,
    /// One bound for all slots of a query (`true`, the default) or an
    /// independent bound per slot — the before-picture benches e14 and
    /// e16 measure against.
    pub share_bound: bool,
    /// What failed slots cost the query.
    pub policy: DegradePolicy,
    /// How long one query waits for its slots' replies.
    pub deadline: Duration,
}

impl Fanout {
    /// A pool of `slots` lanes whose threads are named `{name}-{slot}`,
    /// with default options, a shared bound, [`DegradePolicy::Fail`] and
    /// [`DEFAULT_DEADLINE`].
    pub fn new(name: &'static str, slots: usize) -> Self {
        let mut fanout = Fanout {
            name,
            lanes: Vec::new(),
            threads_spawned: AtomicUsize::new(0),
            jobs_executed: Arc::new(AtomicUsize::new(0)),
            opts: QueryOptions::default(),
            share_bound: true,
            policy: DegradePolicy::Fail,
            deadline: DEFAULT_DEADLINE,
        };
        fanout.lanes = (0..slots)
            .map(|slot| Mutex::new(fanout.spawn_lane(slot)))
            .collect();
        fanout
    }

    fn spawn_lane(&self, slot: usize) -> Lane {
        // Capacity 2: one query's task plus one queued behind it; past
        // that, submission blocks (backpressure).
        let (tx, rx) = sync_channel::<(Job, Task)>(2);
        self.threads_spawned.fetch_add(1, Ordering::Relaxed);
        let jobs = Arc::clone(&self.jobs_executed);
        let name = self.name;
        let handle = std::thread::Builder::new()
            .name(format!("{name}-{slot}"))
            .spawn(move || {
                while let Ok((job, task)) = rx.recv() {
                    jobs.fetch_add(1, Ordering::Relaxed);
                    // A panicking task costs one typed reply, not the lane.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(&job)));
                    job.reply(Err(OnexError::Internal(format!(
                        "{name} slot {slot}: task panicked or returned without replying"
                    ))));
                }
            })
            .expect("spawn fan-out lane");
        Lane {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Queue `work` on `slot`'s lane, respawning the lane once if its
    /// worker is gone.
    fn dispatch(&self, slot: usize, work: (Job, Task)) -> Result<(), OnexError> {
        let mut lane = self.lanes[slot].lock();
        let work = match &lane.tx {
            Some(tx) => match tx.send(work) {
                Ok(()) => return Ok(()),
                Err(returned) => returned.0,
            },
            None => work,
        };
        let mut dead = std::mem::replace(&mut *lane, self.spawn_lane(slot));
        dead.close();
        let tx = lane.tx.as_ref().expect("a spawned lane is open");
        tx.send(work)
            .map_err(|_| OnexError::Internal(format!("{} slot {slot}: lane exited", self.name)))
    }

    /// Counters of the lane pool.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats {
            workers: self.lanes.len(),
            threads_spawned: self.threads_spawned.load(Ordering::Relaxed),
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
        }
    }

    /// Kill `slot`'s worker thread and join it (test hook for the
    /// respawn path); the next query respawns the lane.
    #[doc(hidden)]
    pub fn debug_kill_lane(&self, slot: usize) {
        if let Some(lane) = self.lanes.get(slot) {
            lane.lock().close();
        }
    }

    /// What the engine over this fan-out can promise: exact iff every
    /// shard is (`shards_exact`) and the options keep the scan exhaustive.
    pub fn capabilities(&self, shards_exact: bool) -> Capabilities {
        Capabilities {
            metric: Metric::RawDtw,
            exact: shards_exact
                && self.opts.breadth == ScanBreadth::Exact
                && self.opts.band == onex_distance::Band::Full,
            multi_length: !matches!(self.opts.lengths, LengthSelection::Exact),
            streaming: false,
            one_match_per_series: false,
            cached: false,
        }
    }

    /// Fan `query` out and return **each slot's own result** in slot
    /// order, series ids still slot-local. `task(slot)` builds the work
    /// of every slot that can contribute; a slot that cannot (see
    /// [`localize`]) answers empty without touching its lane.
    ///
    /// # Errors
    /// [`OnexError::InvalidQuery`] for an invalid query; a typed
    /// [`NetworkErrorKind::Timeout`] when the deadline passes before
    /// every slot replied; [`OnexError::Internal`] when a lane cannot be
    /// respawned or a reply is lost.
    pub fn per_slot(
        &self,
        query: &[f64],
        k: usize,
        task: impl Fn(usize) -> Task,
    ) -> Result<Vec<Result<SearchOutcome, OnexError>>, OnexError> {
        validate_query(query, k)?;
        let n = self.lanes.len();
        let query: Arc<[f64]> = Arc::from(query);
        // Fresh per query, never reused: concurrent queries cannot
        // contaminate each other.
        let shared = Arc::new(SharedBound::new());
        let mut bounds = Vec::with_capacity(n);
        let mut results: Vec<Option<Result<SearchOutcome, OnexError>>> =
            (0..n).map(|_| None).collect();
        // At least one slot of room: capacity 0 would make a reply a rendezvous.
        let (reply, replies) = sync_channel(n.max(1));
        for (slot, result) in results.iter_mut().enumerate() {
            let Some(opts) = localize(&self.opts, slot, n) else {
                *result = Some(Ok(SearchOutcome::default()));
                continue;
            };
            let bound = if self.share_bound {
                Arc::clone(&shared)
            } else {
                Arc::new(SharedBound::new())
            };
            bounds.push(Arc::clone(&bound));
            let job = Job {
                query: Arc::clone(&query),
                k,
                opts,
                bound,
                slot,
                replied: AtomicBool::new(false),
                reply: reply.clone(),
            };
            self.dispatch(slot, (job, task(slot)))?;
        }
        drop(reply);

        let started = Instant::now();
        for collected in 0..bounds.len() {
            let remaining = self.deadline.saturating_sub(started.elapsed());
            match replies.recv_timeout(remaining) {
                Ok((slot, result)) => results[slot] = Some(result),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(OnexError::Internal(format!(
                        "{} query reply lost",
                        self.name
                    )));
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Nobody is waiting any more: a cancelled bound
                    // prunes everything, so in-flight work finishes
                    // trivially.
                    for bound in &bounds {
                        bound.cancel();
                    }
                    return Err(OnexError::network(
                        NetworkErrorKind::Timeout,
                        format!(
                            "{} reply deadline {:?} passed with {collected}/{} slot replies",
                            self.name,
                            self.deadline,
                            bounds.len()
                        ),
                    ));
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every slot replied exactly once"))
            .collect())
    }

    /// [`Fanout::per_slot`], then the policy check and the merge: the
    /// partitioned engine's whole `k_best`.
    ///
    /// # Errors
    /// As [`Fanout::per_slot`]; additionally the first failed slot's
    /// error when fewer slots answered than [`Fanout::policy`] requires.
    pub fn k_best(
        &self,
        query: &[f64],
        k: usize,
        task: impl Fn(usize) -> Task,
    ) -> Result<SearchOutcome, OnexError> {
        let per_slot = self.per_slot(query, k, task)?;
        let n = per_slot.len();
        let mut acc: BestK<(u32, usize, usize, u64)> = BestK::new(k);
        let mut stats = BackendStats::default();
        let mut answered = 0u32;
        let mut first_err = None;
        for (slot, result) in per_slot.into_iter().enumerate() {
            match result {
                Ok(outcome) => {
                    answered += 1;
                    stats += outcome.stats;
                    for m in outcome.matches {
                        acc.offer(
                            normalize(m.distance, query.len(), m.len),
                            (
                                global(m.series, slot, n),
                                m.start,
                                m.len,
                                m.distance.to_bits(),
                            ),
                        );
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) if answered < self.policy.required(n as u32) => Err(e),
            _ => Ok(SearchOutcome {
                matches: acc
                    .into_sorted()
                    .into_iter()
                    .map(|(_, (series, start, len, bits))| BackendMatch {
                        series,
                        start,
                        len,
                        distance: f64::from_bits(bits),
                    })
                    .collect(),
                stats,
                coverage: Some(Coverage {
                    shards_answered: answered,
                    shards_total: n as u32,
                }),
            }),
        }
    }
}

impl Drop for Fanout {
    fn drop(&mut self) {
        // Join so no worker outlives the engine half-way through a task.
        for lane in &self.lanes {
            lane.lock().close();
        }
    }
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout")
            .field("name", &self.name)
            .field("pool", &self.pool_stats())
            .field("share_bound", &self.share_bound)
            .field("policy", &self.policy)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const QUERY: [f64; 4] = [1.0, 2.0, 3.0, 4.0];

    /// A slot answering one local match: series 0 at distance `slot + 1`.
    fn answering(slot: usize) -> Task {
        Box::new(move |job| {
            job.reply(Ok(SearchOutcome {
                matches: vec![BackendMatch {
                    series: 0,
                    start: 0,
                    len: job.query.len(),
                    distance: (slot + 1) as f64,
                }],
                ..SearchOutcome::default()
            }))
        })
    }

    fn failing(slot: usize) -> Task {
        Box::new(move |job| {
            job.reply(Err(OnexError::network(
                NetworkErrorKind::Unreachable,
                format!("slot {slot} down"),
            )))
        })
    }

    #[test]
    fn answers_merge_under_global_ids_best_first_with_full_coverage() {
        let fanout = Fanout::new("test", 3);
        let out = fanout.k_best(&QUERY, 2, answering).unwrap();
        let got: Vec<_> = out.matches.iter().map(|m| (m.series, m.distance)).collect();
        assert_eq!(
            got,
            vec![(0, 1.0), (1, 2.0)],
            "local 0 on slot s is global s"
        );
        assert_eq!(out.coverage, Some(Coverage::full(3)));
        assert_eq!(fanout.pool_stats().jobs_executed, 3);
        assert!(matches!(
            fanout.k_best(&[], 1, answering),
            Err(OnexError::InvalidQuery(_))
        ));
    }

    #[test]
    fn a_panicking_task_costs_one_typed_internal_and_the_lane_serves_on() {
        let fanout = Fanout::new("test", 2);
        let err = fanout
            .k_best(&QUERY, 1, |slot| {
                if slot == 1 {
                    Box::new(|_| panic!("task bug"))
                } else {
                    answering(slot)
                }
            })
            .unwrap_err();
        assert!(matches!(err, OnexError::Internal(_)), "got {err:?}");
        let out = fanout.k_best(&QUERY, 1, answering).unwrap();
        assert_eq!(out.coverage, Some(Coverage::full(2)));
        assert_eq!(fanout.pool_stats().threads_spawned, 2, "no lane was lost");
    }

    #[test]
    fn a_killed_lane_respawns_exactly_once() {
        let fanout = Fanout::new("test", 3);
        fanout.k_best(&QUERY, 1, answering).unwrap();
        fanout.debug_kill_lane(1);
        for _ in 0..2 {
            let out = fanout.k_best(&QUERY, 3, answering).unwrap();
            assert_eq!(out.matches.len(), 3);
        }
        let pool = fanout.pool_stats();
        assert_eq!((pool.workers, pool.threads_spawned), (3, 4));
    }

    #[test]
    fn a_silent_task_is_the_typed_timeout_and_the_bound_collapses() {
        let mut fanout = Fanout::new("test", 2);
        fanout.deadline = Duration::from_millis(50);
        let (seen_tx, seen) = sync_channel::<Arc<SharedBound>>(1);
        let (release, released) = sync_channel::<()>(1);
        let released = Mutex::new(Some(released));
        let started = Instant::now();
        let err = fanout
            .k_best(&QUERY, 1, |slot| {
                if slot == 0 {
                    return answering(slot);
                }
                let seen_tx = seen_tx.clone();
                let released = released.lock().take().expect("one silent slot");
                Box::new(move |job| {
                    seen_tx.send(Arc::clone(&job.bound)).unwrap();
                    let _ = released.recv();
                })
            })
            .unwrap_err();
        assert!(
            matches!(&err, OnexError::Network(e) if e.kind == NetworkErrorKind::Timeout),
            "got {err:?}"
        );
        assert!(started.elapsed() >= Duration::from_millis(50));
        assert_eq!(
            seen.recv().unwrap().get(),
            f64::NEG_INFINITY,
            "in-flight work is cancelled"
        );
        release.send(()).unwrap();
    }

    #[test]
    fn the_policy_decides_what_failed_slots_cost() {
        const N: usize = 4;
        let mut fanout = Fanout::new("test", N);
        let policies = [
            DegradePolicy::Fail,
            DegradePolicy::Partial,
            DegradePolicy::Quorum(3),
        ];
        for policy in policies {
            fanout.policy = policy;
            for failed in 0..=N {
                let got = fanout.k_best(&QUERY, N, |slot| {
                    if slot < failed {
                        failing(slot)
                    } else {
                        answering(slot)
                    }
                });
                let answered = (N - failed) as u32;
                if answered >= policy.required(N as u32) {
                    let out = got.unwrap();
                    assert_eq!(out.matches.len(), answered as usize);
                    assert_eq!(
                        out.coverage,
                        Some(Coverage {
                            shards_answered: answered,
                            shards_total: N as u32
                        })
                    );
                } else {
                    let err = got.unwrap_err();
                    assert!(
                        err.to_string().contains("slot 0 down"),
                        "{policy:?}, {failed} failed: the first failed slot's error, got {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_private_bound_per_slot_when_sharing_is_off() {
        let mut fanout = Fanout::new("test", 2);
        let tighten: fn(usize) -> Task = |slot| {
            Box::new(move |job| {
                let before = job.bound.get();
                job.bound.tighten(slot as f64 + 1.0);
                job.reply(Ok(SearchOutcome {
                    stats: BackendStats {
                        examined: before.is_infinite() as usize,
                        ..BackendStats::default()
                    },
                    ..SearchOutcome::default()
                }))
            })
        };
        fanout.share_bound = false;
        assert_eq!(fanout.k_best(&QUERY, 1, tighten).unwrap().stats.examined, 2);
        // A later query starts from a fresh bound again.
        assert_eq!(fanout.k_best(&QUERY, 1, tighten).unwrap().stats.examined, 2);
    }

    #[test]
    fn a_partition_places_every_series_where_slot_of_says() {
        let ds = Dataset::from_series(
            (0..7)
                .map(|i| TimeSeries::new(format!("s{i}"), vec![i as f64; 4]))
                .collect(),
        )
        .unwrap();
        for n in 1..=9 {
            let parts = partition(&ds, n);
            assert_eq!(parts.len(), n.min(ds.len()));
            for (slot, part) in parts.iter().enumerate() {
                for (local, series) in part.iter() {
                    let g = global(local, slot, parts.len());
                    assert_eq!(series, ds.series(g).unwrap(), "n={n}");
                }
            }
            let held: usize = parts.iter().map(Dataset::len).sum();
            assert_eq!(held, ds.len(), "n={n}");
        }
        assert!(partition(&Dataset::new(), 3).is_empty());
    }

    proptest! {
        #[test]
        fn placement_round_trips_and_foreign_filters_cannot_contribute(
            n in 1usize..=8,
            g in 0u32..10_000,
            other in 0u32..10_000,
        ) {
            let owner = slot_of(g, n);
            let opts = QueryOptions::default()
                .within_series(g)
                .excluding_series(Some(other));
            for slot in 0..n {
                match localize(&opts, slot, n) {
                    Some(local) => {
                        prop_assert_eq!(slot, owner);
                        prop_assert_eq!(global(local.only_series.unwrap(), slot, n), g);
                        match local.exclude_series {
                            Some(l) => prop_assert_eq!(global(l, slot, n), other),
                            None => prop_assert_ne!(slot_of(other, n), slot),
                        }
                    }
                    None => prop_assert_ne!(slot, owner),
                }
            }
        }
    }
}
