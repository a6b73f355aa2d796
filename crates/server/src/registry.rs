//! The `?backend=` registry: every engine `/api/match` can route to,
//! built lazily, looked up by name in exactly one place
//! ([`Registry::lookup`]) — `/api/match` and `/api/backends` both go
//! through it.

use std::sync::{Arc, Mutex, OnceLock};

use onex_api::{DegradePolicy, Epoch, OnexError, SimilaritySearch};
use onex_baselines::{EbsmBackend, FrmBackend, SpringBackend, UcrSuiteBackend};
use onex_core::backends::{CachedSearch, OnexBackend, ShardedEngine};
use onex_core::{LengthSelection, Onex, QueryOptions};
use onex_net::{ClusterConfig, ClusterEngine};

/// Every name [`Registry::lookup`] accepts, in listing order.
pub(crate) const NAMES: [&str; 8] = [
    "onex", "ucrsuite", "frm", "ebsm", "spring", "sharded", "cached", "cluster",
];

/// One lazily-built baseline index, stamped with the engine epoch it was
/// built against. [`Slot::at`] returns the cached value while the engine
/// is still on that epoch and rebuilds it the first time it is asked for
/// a newer one — so after a live `/api/append` no `?backend=` route can
/// keep answering from the dataset the engine has outgrown. Building
/// happens inside the slot lock: concurrent first requests serialise
/// instead of racing duplicate index builds.
struct Slot<T>(Mutex<Option<(Epoch, Arc<T>)>>);

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot(Mutex::new(None))
    }
}

impl<T> Slot<T> {
    fn at(&self, epoch: Epoch, build: impl FnOnce() -> T) -> Arc<T> {
        let mut slot = self.0.lock().unwrap_or_else(|p| p.into_inner());
        match slot.as_ref() {
            Some((e, v)) if *e == epoch => Arc::clone(v),
            _ => {
                let built = Arc::new(build());
                *slot = Some((epoch, Arc::clone(&built)));
                built
            }
        }
    }
}

/// The baseline engines the `?backend=` parameter selects between.
/// Each index is built lazily on first use against the engine's
/// then-current epoch, so deployments that never ask for a baseline pay
/// nothing beyond the ONEX base itself — and deployments that ingest
/// live data get each baseline rebuilt on its next use after an append.
/// The caching decorator needs no epoch slot: [`CachedSearch`] tracks
/// the backend epoch itself and drops stale entries on the first lookup
/// after a bump, while its hit/miss counters survive for the process.
#[derive(Default)]
struct Baselines {
    ucr: Slot<UcrSuiteBackend>,
    frm: Slot<FrmBackend<4>>,
    ebsm: Slot<EbsmBackend>,
    spring: Slot<SpringBackend>,
    sharded: Slot<ShardedEngine>,
    cached: OnceLock<Arc<CachedSearch<OnexBackend>>>,
}

/// The shard servers a `?backend=cluster` request fans out over, plus
/// the lazily-established [`ClusterEngine`] talking to them. Connecting
/// is deferred to the first cluster request and retried on the next one
/// if it fails — the HTTP server must come up (and serve every local
/// backend) even while its shard fleet is still booting.
struct ClusterSlot {
    addrs: Vec<String>,
    engine: Mutex<Option<Arc<ClusterEngine>>>,
}

/// What a `?backend=` name resolved to: the engine a query runs on,
/// concrete where the route reports more than the trait carries (pool,
/// gossip and cache counters come from the very engine that answered).
pub(crate) enum Backend {
    /// ONEX itself or one of the four baselines.
    Plain(Arc<dyn SimilaritySearch>),
    Sharded(Arc<ShardedEngine>),
    Cached(Arc<CachedSearch<OnexBackend>>),
    Cluster(Arc<ClusterEngine>),
}

impl Backend {
    pub(crate) fn search(&self) -> &dyn SimilaritySearch {
        match self {
            Backend::Plain(b) => &**b,
            Backend::Sharded(b) => &**b,
            Backend::Cached(b) => &**b,
            Backend::Cluster(b) => &**b,
        }
    }
}

/// Every selectable backend over one live engine.
#[derive(Clone)]
pub(crate) struct Registry {
    engine: Arc<Onex>,
    baselines: Arc<Baselines>,
    cluster: Option<Arc<ClusterSlot>>,
}

impl Registry {
    pub(crate) fn new(engine: Arc<Onex>) -> Self {
        Registry {
            engine,
            baselines: Arc::default(),
            cluster: None,
        }
    }

    /// Configure the shard servers `cluster` fans out over.
    pub(crate) fn set_cluster(&mut self, addrs: Vec<String>) {
        self.cluster = Some(Arc::new(ClusterSlot {
            addrs,
            engine: Mutex::new(None),
        }));
    }

    /// Whether a cluster is configured (connected or not).
    pub(crate) fn has_cluster(&self) -> bool {
        self.cluster.is_some()
    }

    /// The length policy every `/api/match` backend serves.
    fn match_options() -> QueryOptions {
        QueryOptions::default().lengths(LengthSelection::Nearest(3))
    }

    /// The onex backend exactly as `/api/match` serves it, so capability
    /// introspection and query answers never disagree.
    fn onex(&self, exclude: Option<u32>) -> OnexBackend {
        OnexBackend::new(self.engine.clone())
            .with_options(Self::match_options().excluding_series(exclude))
    }

    /// The caching decorator over the same onex configuration
    /// `/api/match` serves. It wraps the live engine directly, and
    /// [`CachedSearch`] invalidates itself on every engine epoch bump —
    /// so it needs no rebuild slot, keeps its hit/miss counters for the
    /// process lifetime, and still never serves a pre-append answer
    /// after an append commits.
    pub(crate) fn cached(&self) -> Arc<CachedSearch<OnexBackend>> {
        Arc::clone(self.baselines.cached.get_or_init(|| {
            Arc::new(CachedSearch::new(self.onex(None), 256).expect("capacity is positive"))
        }))
    }

    /// The SPRING index at the engine's current epoch — concrete, because
    /// `/api/monitor` calls [`SpringBackend::monitor`], which the trait
    /// does not carry.
    pub(crate) fn spring(&self) -> Arc<SpringBackend> {
        let snap = self.engine.snapshot();
        self.baselines
            .spring
            .at(snap.epoch(), || SpringBackend::from_dataset(snap.dataset()))
    }

    /// The cross-process scale-out engine: a [`ClusterEngine`] over the
    /// configured shard-server addresses. Errors are typed: unconfigured
    /// is an [`OnexError::InvalidConfig`] (400, client picked an absent
    /// backend) while an unreachable or protocol-mismatched shard is an
    /// [`OnexError::Network`] (502/504, the gateway's upstream is at
    /// fault) — and a failed connect leaves the slot empty so the next
    /// request retries.
    fn cluster(&self) -> Result<Arc<ClusterEngine>, OnexError> {
        let Some(slot) = &self.cluster else {
            return Err(OnexError::invalid_config(
                "no cluster configured; start the server with shard addresses \
                 (onex_server --cluster a:port,b:port) to enable ?backend=cluster",
            ));
        };
        if let Some(engine) = self.cluster_peek() {
            return Ok(engine);
        }
        // Dial with the slot lock released: a booting fleet costs a
        // connect timeout per silent replica, and `/api/health` peeks
        // under that lock. The HTTP gateway prefers availability: a dead
        // shard slot degrades the answer (with coverage reported in the
        // JSON) instead of failing the request.
        let dialled = Arc::new(
            ClusterEngine::connect_with(
                &slot.addrs,
                ClusterConfig {
                    degrade: DegradePolicy::Partial,
                    ..ClusterConfig::default()
                },
            )?
            .with_options(Self::match_options()),
        );
        // Two first requests may both have dialled: the first stored wins.
        let mut guard = slot.engine.lock().unwrap_or_else(|p| p.into_inner());
        Ok(Arc::clone(guard.get_or_insert(dialled)))
    }

    /// The already-connected cluster engine, if any — a peek that never
    /// dials and never waits for a dial, for observability routes that
    /// must stay cheap.
    pub(crate) fn cluster_peek(&self) -> Option<Arc<ClusterEngine>> {
        let slot = self.cluster.as_ref()?;
        slot.engine
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Resolve a `?backend=` name. `exclude` is the series the onex
    /// backend leaves out of its answers (the query's own, by default);
    /// the other engines take no per-request options.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] for an unknown name or an
    /// unconfigured cluster; [`OnexError::Network`] when the cluster
    /// cannot be reached.
    pub(crate) fn lookup(&self, name: &str, exclude: Option<u32>) -> Result<Backend, OnexError> {
        let snap = self.engine.snapshot();
        let (epoch, dataset, config) = (snap.epoch(), snap.dataset(), snap.base().config());
        // FRM needs window ≥ 2 × retained coefficients (D = 4 → 4); EBSM
        // takes the same floor for its reference length.
        let window = config.min_len.max(4);
        let slots = &*self.baselines;
        Ok(match name {
            "onex" => Backend::Plain(Arc::new(self.onex(exclude))),
            "ucrsuite" | "ucr" => Backend::Plain(
                slots
                    .ucr
                    .at(epoch, || UcrSuiteBackend::from_dataset(dataset)),
            ),
            "frm" => Backend::Plain(slots.frm.at(epoch, || {
                FrmBackend::from_dataset(dataset, window)
                    .expect("the window is clamped to FRM's floor")
            })),
            "ebsm" => Backend::Plain(slots.ebsm.at(epoch, || {
                EbsmBackend::from_dataset(
                    dataset,
                    onex_baselines::embedding::EbsmConfig {
                        ref_len: window,
                        ..onex_baselines::embedding::EbsmConfig::default()
                    },
                )
                .expect("server EBSM config is valid")
            })),
            "spring" => Backend::Plain(self.spring()),
            // The same dataset re-partitioned across four in-process
            // shards, built in parallel on first use at this epoch.
            "sharded" => Backend::Sharded(slots.sharded.at(epoch, || {
                let (engine, _) = ShardedEngine::build(dataset, config.clone(), 4)
                    .expect("server dataset is non-empty and its config valid");
                engine.with_options(Self::match_options())
            })),
            "cached" => Backend::Cached(self.cached()),
            "cluster" => Backend::Cluster(self.cluster()?),
            other => {
                return Err(OnexError::invalid_config(format!(
                    "unknown backend {other:?}; one of {}",
                    NAMES.join(", ")
                )))
            }
        })
    }
}
