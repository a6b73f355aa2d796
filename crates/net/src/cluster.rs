//! [`ClusterEngine`]: N remote shard slots composed behind one
//! [`SimilaritySearch`]. The query itself — round-robin placement, one
//! lane per slot, one fresh query-global [`SharedBound`], the reply
//! deadline, the degrade policy and the merge — is the shared fan-out
//! core, [`onex_core::fanout`]; this module is what a *remote* slot adds
//! on top of it: replicas, breakers, hedging and the bound's trip over
//! the wire.
//!
//! In-process, every shard prunes against the same atomic. Across
//! processes the atomic cannot be shared, so each [`RemoteBackend`]
//! *gossips*: tightenings a shard discovers stream back to this client,
//! land in the query's shared bound, and the other shards' connections —
//! subscribed to that bound for as long as the query runs — write them
//! onward from the thread that applied them. The bound stays monotone end
//! to end, so gossip can only ever prune candidates that a tighter local
//! bound would also have pruned — it never costs an answer.
//!
//! ## Fault tolerance
//!
//! Each shard **slot** may hold several replicas (`"a|a2"` in the
//! address list). A query tries the slot's preferred replica and fails
//! over on typed [`OnexError::Network`] errors — at most one attempt per
//! replica per query, so the retry budget is bounded by the replica
//! count. Every replica carries a lock-free circuit [`Breaker`]: a
//! replica that keeps failing (or whose latency EWMA blows its budget)
//! is skipped *without dialling* until a background
//! [`InfoRequest`](crate::Message::InfoRequest) probe closes the breaker
//! again. The probe sleeps on a stop channel between rounds, so dropping
//! the engine ends it at once. Optionally a query **hedges**: if the
//! preferred replica has not answered within
//! [`ClusterConfig::hedge_after`], the same request is raced against the
//! next live replica and the first answer wins — the loser is cancelled
//! through its private bound ([`SharedBound::cancel`]), which makes its
//! remaining search trivially prunable.
//!
//! When a whole slot is down, [`DegradePolicy`] decides: `Fail`
//! propagates the slot's typed error (the strict historical behaviour),
//! `Partial` answers over the surviving shards, `Quorum(q)` demands at
//! least `q` surviving slots. Degraded answers are *typed*: the outcome
//! carries [`onex_api::Coverage`] so callers can tell 5-of-8 from 8-of-8
//! without guessing from match counts.
//!
//! ## Identity
//!
//! The cluster assumes the collection was partitioned by the fan-out
//! core's round-robin rule: global series `g` lives on slot `g % N` as
//! local id `g / N` (what the `onex_server --shard-serve` operator docs
//! prescribe). Replicas of one slot host the same partition.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{
    Capabilities, DegradePolicy, Epoch, NetworkErrorKind, OnexError, SearchOutcome, SharedBound,
    SimilaritySearch,
};
use onex_core::fanout::{slot_of, Fanout, Job, DEFAULT_DEADLINE};
use onex_core::{PoolStats, QueryOptions};
use parking_lot::Mutex;

use crate::client::{RemoteBackend, RemoteConfig, RemoteInfo};
use crate::health::{Breaker, BreakerConfig, BreakerSnapshot, BreakerState};

/// Cluster-level tuning: everything beyond the per-connection
/// [`RemoteConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-replica connection settings.
    pub remote: RemoteConfig,
    /// Circuit-breaker thresholds, shared by every replica.
    pub breaker: BreakerConfig,
    /// What to do when a whole slot cannot answer (default
    /// [`DegradePolicy::Fail`] — the strict historical behaviour).
    pub degrade: DegradePolicy,
    /// Overall per-query deadline on collecting shard replies. Passing
    /// it is a typed [`NetworkErrorKind::Timeout`] (HTTP 504).
    pub query_deadline: Duration,
    /// When set, a slot query that has not answered within this
    /// threshold is raced against the slot's next live replica; first
    /// answer wins, the loser is cancelled through its bound.
    pub hedge_after: Option<Duration>,
    /// Cadence of the background breaker probe thread; `None` disables
    /// probing (open breakers then only re-close through query-path
    /// half-open trials).
    pub probe_interval: Option<Duration>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            remote: RemoteConfig::default(),
            breaker: BreakerConfig::default(),
            degrade: DegradePolicy::Fail,
            query_deadline: DEFAULT_DEADLINE,
            hedge_after: None,
            probe_interval: Some(Duration::from_millis(250)),
        }
    }
}

struct Replica {
    remote: Arc<RemoteBackend>,
    breaker: Arc<Breaker>,
}

/// One shard slot: the replicas hosting one round-robin partition, in
/// preference order, plus the slot's hedge counters.
struct Slot {
    index: usize,
    replicas: Vec<Replica>,
    hedges_fired: AtomicUsize,
    hedge_wins: AtomicUsize,
}

impl Slot {
    /// Highest epoch any replica of this slot last reported.
    fn last_epoch(&self) -> Epoch {
        self.replicas
            .iter()
            .map(|r| r.remote.epoch())
            .max()
            .unwrap_or(0)
    }
}

/// Health of one replica, for `/api/health` and the resilience bench.
#[derive(Debug, Clone)]
pub struct ReplicaHealth {
    /// The replica's address.
    pub addr: String,
    /// Its breaker's current state and counters.
    pub breaker: BreakerSnapshot,
}

/// Health of one shard slot: its replicas in preference order.
#[derive(Debug, Clone)]
pub struct SlotHealth {
    /// Slot index (the round-robin partition it hosts).
    pub slot: usize,
    /// Replica health, in preference order.
    pub replicas: Vec<ReplicaHealth>,
}

/// A similarity-search backend fanned out over N shard slots, each
/// backed by one or more replica servers.
pub struct ClusterEngine {
    slots: Vec<Arc<Slot>>,
    /// The query machinery; its options, bound sharing (gossip), degrade
    /// policy and deadline are this engine's.
    fanout: Fanout,
    /// Series count per slot, maintained across appends — the source of
    /// round-robin routing for new series.
    sizes: Mutex<Vec<u64>>,
    infos: Vec<RemoteInfo>,
    hedge_after: Option<Duration>,
    /// The breaker probe: dropping the sender stops it at once.
    probe: Option<(SyncSender<()>, std::thread::JoinHandle<()>)>,
}

impl ClusterEngine {
    /// Connect to every shard slot with default cluster tuning (strict
    /// [`DegradePolicy::Fail`], 60 s query deadline, no hedging).
    ///
    /// Each element of `addrs` names one slot; replicas within a slot
    /// are separated by `|` (`"127.0.0.1:7001|127.0.0.1:7101"`). A slot
    /// is usable when **any** replica answers the identity exchange;
    /// a slot with *no* live replica at connect is a typed
    /// [`OnexError::Network`] — a cluster whose data is partly
    /// unreachable at startup is a configuration error, not something
    /// to paper over.
    pub fn connect<S: AsRef<str>>(addrs: &[S], config: RemoteConfig) -> Result<Self, OnexError> {
        Self::connect_with(
            addrs,
            ClusterConfig {
                remote: config,
                ..ClusterConfig::default()
            },
        )
    }

    /// [`ClusterEngine::connect`] with explicit cluster tuning.
    pub fn connect_with<S: AsRef<str>>(
        addrs: &[S],
        config: ClusterConfig,
    ) -> Result<Self, OnexError> {
        if addrs.is_empty() {
            return Err(OnexError::invalid_config(
                "a cluster needs at least one shard address",
            ));
        }
        let mut slots = Vec::with_capacity(addrs.len());
        let mut infos = Vec::with_capacity(addrs.len());
        for (index, spec) in addrs.iter().enumerate() {
            let replica_addrs: Vec<&str> = spec
                .as_ref()
                .split('|')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if replica_addrs.is_empty() {
                return Err(OnexError::invalid_config(format!(
                    "slot {index} lists no replica address"
                )));
            }
            let replicas: Vec<Replica> = replica_addrs
                .iter()
                .map(|a| Replica {
                    remote: Arc::new(RemoteBackend::new(*a, config.remote.clone())),
                    breaker: Arc::new(Breaker::new(config.breaker.clone())),
                })
                .collect();
            // The slot identity comes from the first replica that
            // answers; dead replicas are recorded on their breakers but
            // only a fully dead slot fails the connect.
            let mut info = None;
            let mut first_err = None;
            for rep in &replicas {
                match rep.remote.info() {
                    Ok(i) => {
                        rep.breaker.on_success(Duration::ZERO);
                        info = Some(i);
                        break;
                    }
                    Err(e) => {
                        rep.breaker.on_failure();
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            let Some(info) = info else {
                return Err(first_err.unwrap_or_else(|| {
                    OnexError::network(
                        NetworkErrorKind::Unreachable,
                        format!("slot {index}: no replica answered"),
                    )
                }));
            };
            infos.push(info);
            slots.push(Arc::new(Slot {
                index,
                replicas,
                hedges_fired: AtomicUsize::new(0),
                hedge_wins: AtomicUsize::new(0),
            }));
        }
        let sizes = infos.iter().map(|i| i.series).collect();
        let mut fanout = Fanout::new("cluster-slot", slots.len());
        fanout.policy = config.degrade;
        fanout.deadline = config.query_deadline;

        let probe = config.probe_interval.map(|interval| {
            let (stop, stopped) = sync_channel(1);
            (stop, spawn_probe(slots.clone(), interval, stopped))
        });

        Ok(ClusterEngine {
            slots,
            fanout,
            sizes: Mutex::new(sizes),
            infos,
            hedge_after: config.hedge_after,
            probe,
        })
    }

    /// Builder-style query options (global series ids; localised per
    /// slot at fan-out time).
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.fanout.opts = opts;
        self
    }

    /// Toggle cross-shard bound gossip (default on). With gossip off,
    /// every shard prunes against a private bound — the ablation mode
    /// bench e16 measures against.
    pub fn gossip(mut self, share: bool) -> Self {
        self.fanout.share_bound = share;
        self
    }

    /// Number of shard slots in the cluster.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The active degrade policy.
    pub fn degrade_policy(&self) -> DegradePolicy {
        self.fanout.policy
    }

    /// Replica addresses per slot, in preference order — the cluster's
    /// topology as the server's health endpoints report it.
    pub fn topology(&self) -> Vec<Vec<String>> {
        self.slots
            .iter()
            .map(|s| s.replicas.iter().map(|r| r.remote.addr().into()).collect())
            .collect()
    }

    /// Breaker state and counters for every replica of every slot.
    pub fn health(&self) -> Vec<SlotHealth> {
        self.slots
            .iter()
            .map(|s| SlotHealth {
                slot: s.index,
                replicas: s
                    .replicas
                    .iter()
                    .map(|r| ReplicaHealth {
                        addr: r.remote.addr().into(),
                        breaker: r.breaker.snapshot(),
                    })
                    .collect(),
            })
            .collect()
    }

    /// `(hedges fired, hedges the backup won)` over the engine lifetime.
    pub fn hedge_counters(&self) -> (usize, usize) {
        self.slots.iter().fold((0, 0), |(fired, wins), s| {
            (
                fired + s.hedges_fired.load(Ordering::Relaxed),
                wins + s.hedge_wins.load(Ordering::Relaxed),
            )
        })
    }

    /// Counters of the persistent per-slot worker pool.
    /// `threads_spawned` equals the slot count for the engine's whole
    /// lifetime unless a lane died and was respawned — queries are
    /// channel sends, never spawns.
    pub fn pool_stats(&self) -> PoolStats {
        self.fanout.pool_stats()
    }

    /// Aggregate `(sent, received)` gossip tighten-frame counters across
    /// all replica connections.
    pub fn gossip_counters(&self) -> (usize, usize) {
        self.slots
            .iter()
            .flat_map(|s| s.replicas.iter())
            .map(|r| r.remote.gossip_counters())
            .fold((0, 0), |(s, r), (ds, dr)| (s + ds, r + dr))
    }

    /// Append one series; it lands on slot `total % N`, preserving the
    /// round-robin identity, and is written to **every** replica of that
    /// slot (writes are strict even when reads degrade — a replica that
    /// misses an append would silently diverge). Returns the cluster
    /// epoch after the append.
    pub fn append_series(&self, name: &str, values: Vec<f64>) -> Result<Epoch, OnexError> {
        let mut sizes = self.sizes.lock();
        let total: u64 = sizes.iter().sum();
        let shard = slot_of(total as u32, self.slots.len());
        let mut series = sizes[shard];
        for rep in &self.slots[shard].replicas {
            let (_, s) = rep.remote.append(name, values.clone())?;
            series = s;
        }
        sizes[shard] = series;
        Ok(self.epoch())
    }

    /// Deploy a segment-format-v2 base file image to one slot — the
    /// provisioning step for a freshly joined (or rebalanced) member.
    /// The image is shipped to every replica of the slot; each decodes
    /// it whole beside its dataset and publishes it before it replies, so
    /// the next query answers from the deployed base. Returns the last
    /// replica's `(epoch, length columns offered)`. Images over one frame (16 MiB) fail the send typed —
    /// there is no chunking.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] for an out-of-range slot index;
    /// otherwise whatever a replica reported (storage validation,
    /// dataset mismatch) or a typed transport failure.
    pub fn deploy_base(&self, shard: usize, bytes: Vec<u8>) -> Result<(Epoch, u64), OnexError> {
        let slot = self.slots.get(shard).ok_or_else(|| {
            OnexError::invalid_config(format!(
                "shard {shard} out of range (cluster has {})",
                self.slots.len()
            ))
        })?;
        let mut last = None;
        for rep in &slot.replicas {
            last = Some(rep.remote.ship_base(bytes.clone())?);
        }
        last.ok_or_else(|| OnexError::Internal("slot has no replicas".into()))
    }

    /// Kill slot `index`'s worker thread (test hook for the lane-respawn
    /// path); the next query transparently respawns the lane.
    #[doc(hidden)]
    pub fn debug_kill_worker(&self, index: usize) {
        self.fanout.debug_kill_lane(index);
    }
}

fn is_network(e: &OnexError) -> bool {
    matches!(e, OnexError::Network(_))
}

/// One attempt against one replica, with breaker bookkeeping. A panic
/// inside the client is this attempt's typed failure: a raced attempt
/// runs off the lane, and its peer must still get an answer to wait for.
fn attempt(rep: &Replica, job: &Job, bound: &Arc<SharedBound>) -> Result<SearchOutcome, OnexError> {
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rep.remote
            .k_best_bounded_with(&job.query, job.k, &job.opts, bound)
    }))
    .unwrap_or_else(|_| {
        Err(OnexError::Internal(
            "cluster replica attempt panicked".into(),
        ))
    });
    match &result {
        Ok(_) => rep.breaker.on_success(t0.elapsed()),
        // Only wire faults say something about replica health; an
        // engine-side rejection (bad query) is a healthy answer.
        Err(e) if is_network(e) => rep.breaker.on_failure(),
        Err(_) => {}
    }
    result.map(|(outcome, _epoch)| outcome)
}

/// Race `primary` against the slot's next live replica (from `*next` on)
/// once `after` passes without an answer. The first answer is delivered
/// through `job` at once — before the scope joins the loser, so the
/// caller never waits for a cancelled straggler — and is `Ok`; when no
/// attempt answered, `Err` carries every attempt's error.
fn race(
    slot: &Slot,
    job: &Job,
    primary: &Replica,
    next: &mut usize,
    after: Duration,
) -> Result<(), Vec<OnexError>> {
    let mut errors = Vec::new();
    let mut replied = false;
    std::thread::scope(|s| {
        let (tx, rx) = sync_channel(2);
        let primary_tx = tx.clone();
        s.spawn(move || {
            let _ = primary_tx.send((false, attempt(primary, job, &job.bound)));
        });
        let mut backup_bound: Option<Arc<SharedBound>> = None;
        let mut outstanding = 1;
        let mut hedge_timer = Some(after);
        while outstanding > 0 {
            let received = match hedge_timer.take() {
                Some(after) => rx.recv_timeout(after),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match received {
                Ok((from_backup, Ok(outcome))) => {
                    match &backup_bound {
                        Some(_) if from_backup => {
                            slot.hedge_wins.fetch_add(1, Ordering::Relaxed);
                        }
                        // Cancel the losing backup: a cancelled bound
                        // prunes everything, so it finishes trivially.
                        Some(bound) => bound.cancel(),
                        None => {}
                    }
                    job.reply(Ok(outcome));
                    replied = true;
                    return;
                }
                Ok((_, Err(e))) => {
                    errors.push(e);
                    outstanding -= 1;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Fire the hedge at the next live replica; with none,
                    // just wait the primary out. The backup prunes
                    // against a *private* bound seeded from the shared
                    // one: cancelling it later stops only the loser,
                    // never the query.
                    while *next < slot.replicas.len() && backup_bound.is_none() {
                        let backup = &slot.replicas[*next];
                        *next += 1;
                        if backup.breaker.admit() {
                            slot.hedges_fired.fetch_add(1, Ordering::Relaxed);
                            let bound = Arc::new(SharedBound::new());
                            bound.tighten(job.bound.get());
                            backup_bound = Some(Arc::clone(&bound));
                            outstanding += 1;
                            let backup_tx = tx.clone();
                            s.spawn(move || {
                                let _ = backup_tx.send((true, attempt(backup, job, &bound)));
                            });
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    errors.push(OnexError::Internal("hedge race vanished".into()));
                    return;
                }
            }
        }
    });
    if replied {
        Ok(())
    } else {
        Err(errors)
    }
}

/// One slot's work for one query: failover across replicas in preference
/// order, with optional hedging. Replies exactly once.
fn execute(slot: &Slot, job: &Job, hedge_after: Option<Duration>) {
    let reps = &slot.replicas;
    let mut last_err: Option<OnexError> = None;
    let mut next = 0usize;
    while next < reps.len() {
        let rep = &reps[next];
        next += 1;
        if !rep.breaker.admit() {
            continue;
        }
        let tried = match hedge_after.filter(|_| next < reps.len()) {
            None => attempt(rep, job, &job.bound)
                .map(|outcome| job.reply(Ok(outcome)))
                .map_err(|e| vec![e]),
            Some(after) => race(slot, job, rep, &mut next, after),
        };
        let Err(errors) = tried else { return };
        for e in errors {
            if !is_network(&e) {
                // Engine-side errors (bad query, panic) are not fixed by
                // trying another replica.
                return job.reply(Err(e));
            }
            // Typed wire fault: fail over to the next replica.
            last_err = Some(e);
        }
    }
    job.reply(Err(last_err.unwrap_or_else(|| {
        OnexError::network(
            NetworkErrorKind::Unreachable,
            format!(
                "slot {}: no live replica ({} breaker(s) open)",
                slot.index,
                slot.replicas.len()
            ),
        )
    })));
}

/// The background breaker-probe loop: every `interval` (at least a
/// millisecond), each non-closed breaker that will admit a trial gets an
/// `InfoRequest`; success closes it, failure re-opens it. The loop waits
/// on `stop`, so dropping its sender ends the probe at once.
fn spawn_probe(
    slots: Vec<Arc<Slot>>,
    interval: Duration,
    stop: Receiver<()>,
) -> std::thread::JoinHandle<()> {
    let interval = interval.max(Duration::from_millis(1));
    std::thread::Builder::new()
        .name("cluster-probe".into())
        .spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
                for slot in &slots {
                    for rep in &slot.replicas {
                        if rep.breaker.state() == BreakerState::Closed || !rep.breaker.admit() {
                            continue;
                        }
                        let t0 = Instant::now();
                        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            rep.remote.info().is_ok()
                        }))
                        .unwrap_or(false);
                        if ok {
                            rep.breaker.on_success(t0.elapsed());
                        } else {
                            rep.breaker.on_failure();
                        }
                    }
                }
            }
        })
        .expect("spawn cluster probe")
}

impl std::fmt::Debug for ClusterEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterEngine")
            .field("topology", &self.topology())
            .field("fanout", &self.fanout)
            .finish_non_exhaustive()
    }
}

impl Drop for ClusterEngine {
    fn drop(&mut self) {
        if let Some((stop, probe)) = self.probe.take() {
            drop(stop);
            let _ = probe.join();
        }
    }
}

impl SimilaritySearch for ClusterEngine {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn capabilities(&self) -> Capabilities {
        // A degraded answer is still exact *over the shards it covers*;
        // the coverage record is what reports the gap.
        self.fanout
            .capabilities(self.infos.iter().all(|i| i.caps.exact))
    }

    fn k_best(&self, query: &[f64], k: usize) -> Result<SearchOutcome, OnexError> {
        let hedge_after = self.hedge_after;
        self.fanout.k_best(query, k, |s| {
            let slot = Arc::clone(&self.slots[s]);
            Box::new(move |job| execute(&slot, job, hedge_after))
        })
    }

    /// Sum of the slots' last-observed epochs: any append anywhere
    /// bumps it, so epoch-keyed caches invalidate correctly. Updated as
    /// replies arrive — eventually consistent between requests.
    fn epoch(&self) -> Epoch {
        self.slots.iter().map(|s| s.last_epoch()).sum()
    }
}
