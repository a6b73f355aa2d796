use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use onex_api::OnexError;
use onex_core::{BuildReport, LengthSelection, Onex, PoolStats, QueryOptions, SeasonalOptions};
use onex_grouping::BaseConfig;
use onex_net::ClusterEngine;
use onex_tseries::{Dataset, TimeSeries};
use onex_viz::{
    ConnectedScatter, MultiLineChart, OverviewPane, QueryPreview, RadialChart, SeasonalView,
};

use crate::http::{Request, Response};
use crate::json::Json;
use crate::registry::{Backend, Registry, NAMES};

/// How [`App::serve`] runs. The accept loop itself — a fixed worker pool
/// over a bounded connection queue with exponential accept backoff —
/// lives in `onex_net` now (the binary shard server runs the identical
/// loop); these options are its knobs under the server's historical name.
pub use onex_net::AcceptOptions as ServeOptions;

/// The ONEX demo application: routes requests to the engine and, through
/// the [`onex_api::SimilaritySearch`] trait, to the baseline engines the paper
/// compares against.
#[derive(Clone)]
pub struct App {
    engine: Arc<Onex>,
    /// Every `?backend=` engine over `engine`, built on first use.
    backends: Registry,
    /// Construction report of the dataset-load step, when this app loaded
    /// the dataset itself ([`App::build`]); reported by `/api/summary`.
    build: Option<BuildReport>,
}

impl App {
    /// Wrap an already-built engine. Baseline indexes are built on first
    /// use. No construction report is available on this path — prefer
    /// [`App::build`] when the server is the one loading the data.
    pub fn new(engine: Arc<Onex>) -> App {
        App {
            backends: Registry::new(Arc::clone(&engine)),
            engine,
            build: None,
        }
    }

    /// Configure the shard servers `?backend=cluster` fans out over
    /// (round-robin partition, see `onex_net::ClusterEngine`). The
    /// connection is established lazily on the first cluster request and
    /// re-attempted on later requests if it fails, so a booting shard
    /// fleet never blocks HTTP startup.
    pub fn with_cluster<S: Into<String>>(mut self, addrs: Vec<S>) -> App {
        self.backends
            .set_cluster(addrs.into_iter().map(Into::into).collect());
        self
    }

    /// Attach the construction report of an engine built elsewhere (the
    /// server binary builds its own when no base file covers startup) so
    /// `/api/summary` keeps reporting the preprocessing cost.
    pub fn with_build_report(mut self, report: BuildReport) -> App {
        self.build = Some(report);
        self
    }

    /// The demo's dataset-load path: preprocess `dataset` into the ONEX
    /// base and remember the [`BuildReport`], including its work
    /// counters, for `/api/summary`.
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] for an invalid configuration.
    pub fn build(dataset: Dataset, config: BaseConfig) -> Result<App, OnexError> {
        let (engine, report) = Onex::build(dataset, config)?;
        Ok(App::new(Arc::new(engine)).with_build_report(report))
    }

    /// The construction report of the load step, when this app built the
    /// engine itself.
    pub fn build_report(&self) -> Option<&BuildReport> {
        self.build.as_ref()
    }

    /// The cluster's replica topology — per slot, every replica's address
    /// and breaker state and counters — as a JSON array: `slots` in the
    /// health object, `topology` in the `/api/backends` entry.
    fn cluster_topology_json(engine: &ClusterEngine) -> Json {
        let slots = engine.health().into_iter().map(|slot| {
            let replicas = slot.replicas.into_iter().map(|r| {
                Json::obj(vec![
                    ("addr", Json::s(r.addr)),
                    ("state", Json::s(r.breaker.state.label())),
                    (
                        "consecutive_failures",
                        (r.breaker.consecutive_failures as usize).into(),
                    ),
                    ("ewma_ms", r.breaker.ewma_ms.into()),
                    ("opens", (r.breaker.opens as usize).into()),
                    ("probes", (r.breaker.probes as usize).into()),
                    ("successes", (r.breaker.successes as usize).into()),
                    ("failures", (r.breaker.failures as usize).into()),
                    ("skips", (r.breaker.skips as usize).into()),
                ])
            });
            Json::obj(vec![
                ("slot", slot.slot.into()),
                ("replicas", Json::Arr(replicas.collect())),
            ])
        });
        Json::Arr(slots.collect())
    }

    /// The configured cluster's fault-tolerance posture, shared by
    /// `/api/health` and `/api/summary`. Never dials and never waits for
    /// a dial in progress: an unconnected fleet shows `connected: false`
    /// until the first `?backend=cluster` request establishes it.
    fn cluster_health(&self) -> Json {
        let Some(engine) = self.backends.cluster_peek() else {
            return Json::obj(vec![("connected", Json::Bool(false))]);
        };
        let (fired, wins) = engine.hedge_counters();
        Json::obj(vec![
            ("connected", Json::Bool(true)),
            ("shards", engine.shard_count().into()),
            ("degrade", Json::s(engine.degrade_policy().label())),
            ("slots", Self::cluster_topology_json(&engine)),
            (
                "hedges",
                Json::obj(vec![("fired", fired.into()), ("wins", wins.into())]),
            ),
        ])
    }

    /// `/api/health` — liveness plus, when a cluster is configured, the
    /// full fault-tolerance picture: replica topology, breaker states
    /// and counters, degrade policy, hedge counters. Never dials: a
    /// configured-but-not-yet-connected cluster reports
    /// `connected: false` rather than forcing a connect from a health
    /// probe.
    fn health_api(&self) -> Response {
        let cluster = if self.backends.has_cluster() {
            self.cluster_health()
        } else {
            Json::Null
        };
        Response::json(
            Json::obj(vec![
                ("status", Json::s("ok")),
                ("epoch", (self.engine.epoch() as usize).into()),
                ("cluster", cluster),
            ])
            .render(),
        )
    }

    /// Dispatch one request — pure (no I/O), hence directly testable.
    pub fn handle(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return Response::error(405, "only GET is served");
        }
        let result = match req.path.as_str() {
            "/" => Ok(self.index()),
            "/api/summary" => Ok(self.summary()),
            "/api/health" => Ok(self.health_api()),
            "/api/series" => Ok(self.series_list()),
            "/api/backends" => Ok(self.backends_list()),
            "/api/match" => self.match_api(req),
            "/api/append" => self.append_api(req),
            "/api/seasonal" => self.seasonal_api(req),
            "/api/threshold" => self.threshold_api(req),
            "/api/monitor" => self.monitor_api(req),
            "/view/overview.svg" => self.overview_svg(req),
            "/view/preview.svg" => self.preview_svg(req),
            "/view/match.svg" => self.match_svg(req),
            "/view/radial.svg" => self.pair_svg(req, PairView::Radial),
            "/view/scatter.svg" => self.pair_svg(req, PairView::Scatter),
            "/view/seasonal.svg" => self.seasonal_svg(req),
            _ => Err(Response::error(404, "no such route; see / for the index")),
        };
        result.unwrap_or_else(|r| r)
    }

    /// Serve forever on an already-bound listener under
    /// [`ServeOptions::default`]: a fixed worker pool over a bounded
    /// queue (the engine is `&self`-threaded, so workers share one app).
    pub fn serve(self, listener: TcpListener) -> std::io::Result<()> {
        self.serve_with(listener, ServeOptions::default())
    }

    /// [`App::serve`] with explicit pool/backoff settings.
    pub fn serve_with(self, listener: TcpListener, opts: ServeOptions) -> std::io::Result<()> {
        self.serve_streams(listener.incoming(), &opts)
    }

    /// The accept loop over any stream source (injectable for tests):
    /// the shared hardened loop in [`onex_net::serve_streams`] — a fixed
    /// worker pool over a bounded queue, exponential accept backoff —
    /// with one app clone per worker handling connections.
    fn serve_streams<I>(self, incoming: I, opts: &ServeOptions) -> std::io::Result<()>
    where
        I: Iterator<Item = std::io::Result<TcpStream>>,
    {
        onex_net::serve_streams(incoming, opts, move |stream| self.handle_stream(stream))
    }

    /// How long an idle keep-alive connection may sit between requests
    /// before the worker reclaims it. Generous for a human poking an
    /// API, far too short to let idle sockets starve the fixed pool.
    const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

    /// One connection: parse, dispatch, write — run on a pool worker.
    /// The connection is reused for further requests only when the
    /// client opted in with `Connection: keep-alive`; everything else
    /// stays one-shot, exactly as before.
    fn handle_stream(&self, stream: TcpStream) {
        let Ok(out) = stream.try_clone() else { return };
        let _ = stream.set_read_timeout(Some(Self::KEEP_ALIVE_IDLE));
        let mut reader = BufReader::new(stream);
        let mut served_any = false;
        loop {
            match Request::read_from(&mut reader) {
                // Peer hung up between requests: the normal end of a
                // keep-alive connection (and of a no-op connect).
                Ok(None) => return,
                Ok(Some(req)) => {
                    let keep_alive = req.keep_alive;
                    let response = self.handle(&req);
                    if response.write_keep_alive_to(&out, keep_alive).is_err() || !keep_alive {
                        return;
                    }
                    served_any = true;
                }
                Err(e) => {
                    // Garbage on a fresh connection earns a 400 and an
                    // over-long line or header block its 414 / 431,
                    // whenever it comes; a read timeout on an
                    // already-served keep-alive socket is just idleness —
                    // close without a parting error.
                    if !served_any || e.status() != 400 {
                        let _ = Response::error(e.status(), &e.to_string()).write_to(&out);
                    }
                    return;
                }
            }
        }
    }

    // ---- helpers -------------------------------------------------------

    /// Map a typed engine error onto the HTTP status space via
    /// [`OnexError::http_status`] — an **exhaustive** match in the
    /// defining crate, so adding an error variant without deciding its
    /// status fails the build instead of silently becoming a 500.
    fn onex_error(e: &OnexError) -> Response {
        Response::error(e.http_status(), &e.to_string())
    }

    /// A numeric query parameter with a default; malformed values are a
    /// 400 carrying the parameter name and offending text.
    fn num_param<T: std::str::FromStr>(
        req: &Request,
        name: &str,
        default: T,
    ) -> Result<T, Response> {
        req.param_as(name)
            .map(|v| v.unwrap_or(default))
            .map_err(|e| Response::error(400, &e.to_string()))
    }

    fn query_window(&self, req: &Request) -> Result<(String, usize, usize, Vec<f64>), Response> {
        let series = req
            .param("series")
            .ok_or_else(|| Response::error(400, "missing ?series="))?
            .to_owned();
        let ds = self.engine.dataset();
        let s = ds
            .by_name(&series)
            .ok_or_else(|| Response::error(404, "unknown series"))?;
        let start: usize = Self::num_param(req, "start", 0)?;
        let len: usize = Self::num_param(req, "len", s.len().min(8))?;
        let window = s
            .subsequence(start, len)
            .ok_or_else(|| Response::error(400, "window out of bounds"))?;
        Ok((series, start, len, window.to_vec()))
    }

    /// The engine-native best-k used by the SVG views (they need the
    /// warping path, which the backend-neutral trait does not carry).
    fn best_matches(
        &self,
        req: &Request,
        query: &[f64],
        series: &str,
        k: usize,
    ) -> Result<Vec<onex_core::Match>, Response> {
        let mut opts = QueryOptions::default().lengths(LengthSelection::Nearest(3));
        if req.param("include_self") != Some("true") {
            opts = opts.excluding_series(self.engine.dataset().id_of(series));
        }
        let (matches, _) = self
            .engine
            .k_best(query, k.max(1), &opts)
            .map_err(|e| Self::onex_error(&e))?;
        Ok(matches)
    }

    fn series_name(&self, id: u32) -> String {
        self.engine
            .dataset()
            .series(id)
            .map(|s| s.name().to_owned())
            .unwrap_or_else(|| format!("#{id}"))
    }

    // ---- routes --------------------------------------------------------

    fn index(&self) -> Response {
        let example = self
            .engine
            .dataset()
            .series(0)
            .map(|s| s.name().to_owned())
            .unwrap_or_default();
        let body = format!(
            "<!doctype html><html><head><title>ONEX</title></head><body>\
             <h1>ONEX — Online Exploration of Time Series</h1>\
             <p>{} loaded. Try:</p><ul>\
             <li><a href=\"/api/summary\">/api/summary</a></li>\
             <li><a href=\"/api/series\">/api/series</a></li>\
             <li><a href=\"/api/backends\">/api/backends</a></li>\
             <li><a href=\"/api/match?series={e}&amp;start=0&amp;len=8\">/api/match?series={e}</a></li>\
             <li><a href=\"/api/match?series={e}&amp;start=0&amp;len=8&amp;backend=ucrsuite\">/api/match?backend=ucrsuite&amp;…</a></li>\
             <li><a href=\"/api/monitor?series={e}&amp;start=0&amp;len=8&amp;target={e}&amp;eps=1\">/api/monitor?series={e}&amp;target=…</a></li>\
             <li><a href=\"/view/overview.svg\">/view/overview.svg</a></li>\
             <li><a href=\"/view/match.svg?series={e}&amp;start=0&amp;len=8\">/view/match.svg?series={e}</a></li>\
             <li><a href=\"/view/seasonal.svg?series={e}\">/view/seasonal.svg?series={e}</a></li>\
             </ul></body></html>",
            self.engine.dataset().summary(),
            e = example
        );
        Response::html(body)
    }

    fn summary(&self) -> Response {
        let stats = self.engine.base().stats();
        let per_length: Vec<Json> = stats
            .per_length
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("len", l.len.into()),
                    ("groups", l.groups.into()),
                    ("subsequences", l.subsequences.into()),
                    ("max_cardinality", l.max_cardinality.into()),
                ])
            })
            .collect();
        let lifetime = self.engine.lifetime_stats();
        let mut fields = vec![
            ("series", self.engine.dataset().len().into()),
            ("samples", self.engine.dataset().total_samples().into()),
            ("groups", stats.groups.into()),
            ("members", stats.members.into()),
            ("compaction", stats.compaction.into()),
            // Which SIMD tier the distance kernels selected at startup
            // ("scalar" or "avx2") — the level every distance in
            // this process runs at.
            (
                "kernel_level",
                Json::s(onex_distance::kernels::level().label()),
            ),
            // Lifetime per-tier prune counters of the pruning cascade
            // (L0 sketch → LB_Kim → LB_Keogh → early-abandoned DTW).
            (
                "tier_prunes",
                Json::obj(vec![
                    ("l0", lifetime.members_l0_pruned.into()),
                    ("kim", lifetime.members_kim_pruned.into()),
                    ("keogh", lifetime.members_lb_pruned.into()),
                    ("dtw_abandoned", lifetime.dtw_abandoned.into()),
                ]),
            ),
            ("per_length", Json::Arr(per_length)),
        ];
        // The writer's index over group representatives: `kind: "none"`
        // until the first append seeds it, then a stamp that follows the
        // engine's epoch and a `seeds` count that stays put. A null
        // stamp or `seeds` growing with every append is a re-seed storm:
        // something (failed appends, base installs) keeps invalidating it.
        let index = self.engine.resident_index();
        fields.push((
            "resident_index",
            Json::obj(vec![
                ("kind", Json::s(index.kind)),
                ("entries", index.entries.into()),
                (
                    "epoch",
                    index.epoch.map_or(Json::Null, |e| (e as usize).into()),
                ),
                ("seeds", (index.seeds as usize).into()),
            ]),
        ));
        // A cold-started engine reports where its base came from and how
        // far lazy resolution has progressed — operators can tell a
        // mapped base file from an in-memory build at a glance.
        if let Some(src) = self.engine.base_source() {
            fields.push((
                "base_file",
                Json::obj(vec![
                    (
                        "path",
                        match &src.path {
                            Some(p) => Json::s(p.display().to_string()),
                            None => Json::Null,
                        },
                    ),
                    ("epoch", (self.engine.epoch() as usize).into()),
                    ("resolved_lengths", src.resolved_lengths.into()),
                    ("total_lengths", src.total_lengths.into()),
                ]),
            ));
        }
        // When this server performed the load step itself, report what
        // the construction cost — the demo's "preprocessing at the server
        // side" made observable, work counters included.
        if let Some(r) = &self.build {
            // What the base it built costs to keep now, appends included:
            // column blocks (8 bytes and a bit a group: first member's
            // series and start, and whether it owns more; a pointer for
            // each that does), and what groups of two and more own behind
            // them — members,
            // planes, drifted means — from lengths and cardinalities; and
            // beside it what the writer's index costs once an append has
            // seeded it.
            let resident = self.engine.base().footprint().total();
            fields.push((
                "build",
                Json::obj(vec![
                    ("elapsed_ms", (r.elapsed.as_secs_f64() * 1e3).into()),
                    ("lengths", r.lengths.into()),
                    ("subsequences", r.subsequences.into()),
                    ("groups", r.groups.into()),
                    ("compaction", r.compaction().into()),
                    ("subsequences_per_sec", r.subsequences_per_sec().into()),
                    ("resident_bytes", resident.into()),
                    (
                        "resident_bytes_per_subseq",
                        (resident as f64 / stats.members.max(1) as f64).into(),
                    ),
                    ("resident_index_bytes", index.bytes.into()),
                    (
                        "work",
                        Json::obj(vec![
                            ("reps_examined", r.work.examined.into()),
                            ("reps_pruned", r.work.pruned.into()),
                            ("distance_calls", r.work.distance_calls.into()),
                        ]),
                    ),
                ]),
            ));
        }
        if self.backends.has_cluster() {
            fields.push(("cluster", self.cluster_health()));
        }
        Response::json(Json::obj(fields).render())
    }

    fn series_list(&self) -> Response {
        let names: Vec<Json> = self
            .engine
            .dataset()
            .iter()
            .map(|(_, s)| {
                Json::obj(vec![
                    ("name", Json::s(s.name())),
                    ("len", s.len().into()),
                    ("axis_start", s.axis().start.into()),
                    ("axis_step", s.axis().step.into()),
                ])
            })
            .collect();
        Response::json(Json::Arr(names).render())
    }

    /// Capability introspection for every selectable backend — the onex
    /// entry describes the same configuration `/api/match` serves.
    fn backends_list(&self) -> Response {
        let mut items = Vec::new();
        for name in NAMES {
            // The cluster appears only when configured *and* reachable:
            // capability introspection reflects what a query could
            // actually use right now, and an unreachable fleet will be
            // retried on the next listing.
            let Ok(backend) = self.backends.lookup(name, None) else {
                continue;
            };
            let caps = backend.search().capabilities();
            let mut fields = vec![
                ("name", Json::s(backend.search().name())),
                ("metric", Json::s(caps.metric.label())),
                ("exact", Json::Bool(caps.exact)),
                ("multi_length", Json::Bool(caps.multi_length)),
                ("streaming", Json::Bool(caps.streaming)),
                ("cached", Json::Bool(caps.cached)),
            ];
            // The cluster entry additionally reports its fault-tolerance
            // shape: the degrade policy in force and the replica
            // topology per slot, breaker states included.
            if let Backend::Cluster(c) = &backend {
                fields.push(("degrade", Json::s(c.degrade_policy().label())));
                fields.push(("topology", Self::cluster_topology_json(c)));
            }
            items.push(Json::obj(fields));
        }
        Response::json(Json::Arr(items).render())
    }

    /// `/api/match` — every backend is driven through the same
    /// [`onex_api::SimilaritySearch`] trait object; `?backend=` picks which.
    fn match_api(&self, req: &Request) -> Result<Response, Response> {
        let (series, _, _, query) = self.query_window(req)?;
        let k: usize = Self::num_param(req, "k", 5)?;
        let name = req.param("backend").unwrap_or("onex");

        let exclude = match req.param("include_self") {
            Some("true") => None,
            _ => self.engine.dataset().id_of(&series),
        };
        let resolved = self
            .backends
            .lookup(name, exclude)
            .map_err(|e| Self::onex_error(&e))?;
        let backend = resolved.search();

        // k = 0 flows through as a typed InvalidQuery → 400, exactly
        // like every other SimilaritySearch caller.
        let outcome = backend
            .k_best(&query, k)
            .map_err(|e| Self::onex_error(&e))?;
        let caps = backend.capabilities();
        let items: Vec<Json> = outcome
            .matches
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("series", Json::s(self.series_name(m.series))),
                    ("start", m.start.into()),
                    ("len", m.len.into()),
                    ("distance", m.distance.into()),
                ])
            })
            .collect();
        let mut fields = vec![
            ("backend", Json::s(backend.name())),
            ("metric", Json::s(caps.metric.label())),
            ("exact", Json::Bool(caps.exact)),
            ("matches", Json::Arr(items)),
        ];
        // Fan-out backends report their coverage: how many shard slots
        // contributed to this answer. `degraded: true` is the typed
        // signal that some slots were down and the answer spans only the
        // survivors.
        if let Some(cov) = outcome.coverage {
            fields.push((
                "coverage",
                Json::obj(vec![
                    ("shards_answered", (cov.shards_answered as usize).into()),
                    ("shards_total", (cov.shards_total as usize).into()),
                    ("degraded", Json::Bool(cov.degraded())),
                ]),
            ));
        }
        fields.extend(vec![(
            "stats",
            Json::obj(vec![
                ("examined", outcome.stats.examined.into()),
                ("pruned", outcome.stats.pruned.into()),
                (
                    "distance_computations",
                    outcome.stats.distance_computations.into(),
                ),
                (
                    "tiers",
                    Json::obj(vec![
                        ("l0", (outcome.stats.tiers.l0 as usize).into()),
                        ("kim", (outcome.stats.tiers.kim as usize).into()),
                        ("keogh", (outcome.stats.tiers.keogh as usize).into()),
                        (
                            "dtw_abandoned",
                            (outcome.stats.tiers.dtw_abandoned as usize).into(),
                        ),
                    ]),
                ),
            ]),
        )]);
        // Extra counters come from the very engine that answered — after
        // a concurrent append a second lookup could be a rebuilt one.
        let pool = |p: PoolStats| {
            Json::obj(vec![
                ("workers", p.workers.into()),
                ("threads_spawned", p.threads_spawned.into()),
                ("jobs_executed", p.jobs_executed.into()),
            ])
        };
        match &resolved {
            Backend::Plain(_) => {}
            // Workers and threads_spawned stay constant across requests
            // (queries are channel sends, never thread spawns) while
            // jobs_executed grows by one per shard per query.
            Backend::Sharded(e) => fields.push(("pool", pool(e.pool_stats()))),
            // The cluster adds its gossip traffic: tighten frames pushed
            // to and received from the shard servers, accumulated across
            // requests.
            Backend::Cluster(c) => {
                let (sent, received) = c.gossip_counters();
                fields.push(("pool", pool(c.pool_stats())));
                fields.push((
                    "gossip",
                    Json::obj(vec![
                        ("shards", c.shard_count().into()),
                        ("tightenings_sent", sent.into()),
                        ("tightenings_received", received.into()),
                    ]),
                ));
            }
            // The caching decorator reports its hits accumulating across
            // requests.
            Backend::Cached(c) => {
                let c = c.cache_stats();
                fields.push((
                    "cache",
                    Json::obj(vec![
                        ("hits", c.hits.into()),
                        ("misses", c.misses.into()),
                        ("entries", c.entries.into()),
                        ("capacity", c.capacity.into()),
                    ]),
                ));
            }
        }
        Ok(Response::json(Json::obj(fields).render()))
    }

    /// `/api/append?name=..&values=v1,v2,…` — live ingest over HTTP:
    /// append one series to the engine and publish the next epoch.
    /// Queries already in flight keep answering from the snapshot they
    /// pinned; baseline backends rebuild from the new epoch on their
    /// next use and the caching decorator drops its now-stale entries —
    /// no route ever answers from a dataset the engine has outgrown. A
    /// duplicate name is a 409 (conflict with the published collection),
    /// and a failed append leaves every backend on the prior epoch.
    fn append_api(&self, req: &Request) -> Result<Response, Response> {
        let Some(name) = req.param("name") else {
            return Err(Response::error(400, "missing ?name="));
        };
        let Some(values) = req.param("values") else {
            return Err(Response::error(400, "missing ?values= (comma-separated)"));
        };
        let values: Vec<f64> = values
            .split(',')
            .map(|v| v.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| Response::error(400, &format!("invalid ?values=: {e}")))?;
        let report = self
            .engine
            .append_series(TimeSeries::new(name, values))
            .map_err(|e| Self::onex_error(&e))?;
        // Epoch and series count are the ones this append committed,
        // carried out of the write transaction — re-reading the engine
        // here could report a concurrent writer's later epoch.
        Ok(Response::json(
            Json::obj(vec![
                ("appended", Json::s(name)),
                ("epoch", (report.epoch as usize).into()),
                ("series", report.series.into()),
                ("subsequences", report.subsequences.into()),
                ("groups", report.groups.into()),
                ("elapsed_ms", (report.elapsed.as_secs_f64() * 1e3).into()),
                (
                    "work",
                    Json::obj(vec![
                        ("examined", report.work.examined.into()),
                        ("pruned", report.work.pruned.into()),
                        ("distance_calls", report.work.distance_calls.into()),
                    ]),
                ),
                // Column blocks this append wrote to, of those the base
                // is kept in (one column a length, groups and sketches in
                // the same blocks): every other one is the previous
                // epoch's.
                (
                    "blocks",
                    Json::obj(vec![
                        ("copied", report.blocks_copied.into()),
                        ("total", report.blocks_total.into()),
                    ]),
                ),
            ])
            .render(),
        ))
    }

    fn seasonal_api(&self, req: &Request) -> Result<Response, Response> {
        let Some(series) = req.param("series") else {
            return Err(Response::error(400, "missing ?series="));
        };
        let opts = SeasonalOptions {
            min_occurrences: Self::num_param(req, "min_occurrences", 2)?,
            max_patterns: Self::num_param(req, "max_patterns", 8)?,
            ..SeasonalOptions::default()
        };
        let patterns = self
            .engine
            .seasonal(series, &opts)
            .map_err(|e| Self::onex_error(&e))?;
        let items: Vec<Json> = patterns
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("len", p.len.into()),
                    ("count", p.count().into()),
                    ("tightness", p.tightness.into()),
                    (
                        "occurrences",
                        Json::Arr(
                            p.occurrences
                                .iter()
                                .map(|o| (o.start as usize).into())
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Ok(Response::json(Json::Arr(items).render()))
    }

    fn threshold_api(&self, req: &Request) -> Result<Response, Response> {
        let len = Self::num_param(req, "len", 8)?;
        match self.engine.recommend_threshold(len, 8000, 7) {
            Some(rec) => {
                let ladder: Vec<Json> = rec
                    .ladder
                    .iter()
                    .map(|&(q, t)| Json::obj(vec![("quantile", q.into()), ("st", t.into())]))
                    .collect();
                Ok(Response::json(
                    Json::obj(vec![
                        ("len", len.into()),
                        ("suggested", rec.suggested.into()),
                        ("pairs_sampled", rec.pairs_sampled.into()),
                        ("ladder", Json::Arr(ladder)),
                    ])
                    .render(),
                ))
            }
            None => Err(Response::error(400, "not enough data at that length")),
        }
    }

    /// SPRING stream monitoring (paper reference [7]) over a stored
    /// series, through [`SpringBackend::monitor`](onex_baselines::SpringBackend::monitor):
    /// all disjoint subsequences of `target` within `eps` of the query
    /// window, exactly as a live monitor would have reported them.
    fn monitor_api(&self, req: &Request) -> Result<Response, Response> {
        let (_, _, _, pattern) = self.query_window(req)?;
        let Some(target) = req.param("target") else {
            return Err(Response::error(400, "missing ?target= (series to monitor)"));
        };
        let Some(target_id) = self.engine.dataset().id_of(target) else {
            return Err(Response::error(404, "unknown target series"));
        };
        let eps: f64 = Self::num_param(req, "eps", 1.0)?;
        let hits = self
            .backends
            .spring()
            .monitor(target_id, &pattern, eps)
            .map_err(|e| Self::onex_error(&e))?;
        let items: Vec<Json> = hits
            .iter()
            .map(|h| {
                Json::obj(vec![
                    ("start", h.start.into()),
                    ("end", h.end.into()),
                    ("dtw", h.dist.into()),
                ])
            })
            .collect();
        Ok(Response::json(
            Json::obj(vec![
                ("target", Json::s(target)),
                ("eps", eps.into()),
                ("matches", Json::Arr(items)),
            ])
            .render(),
        ))
    }

    fn overview_svg(&self, req: &Request) -> Result<Response, Response> {
        let len = match Self::num_param(req, "len", 0)? {
            0 => self.engine.base().lengths().next().unwrap_or(8),
            l => l,
        };
        let pane = OverviewPane::from_base(&self.engine.base(), len, 24);
        Ok(Response::svg(pane.render()))
    }

    fn preview_svg(&self, req: &Request) -> Result<Response, Response> {
        let (series, start, len, _) = self.query_window(req)?;
        let ds = self.engine.dataset();
        let s = ds.by_name(&series).expect("validated");
        Ok(Response::svg(
            QueryPreview::for_series(560, s).brush(start, len).render(),
        ))
    }

    fn match_svg(&self, req: &Request) -> Result<Response, Response> {
        let (series, _, _, query) = self.query_window(req)?;
        match self.best_matches(req, &query, &series, 1)?.first() {
            Some(best) => Ok(Response::svg(
                MultiLineChart::for_match(&query, best, &self.engine.dataset()).render(),
            )),
            None => Err(Response::error(404, "no match found")),
        }
    }

    fn pair_svg(&self, req: &Request, view: PairView) -> Result<Response, Response> {
        let (series, _, _, query) = self.query_window(req)?;
        let Some(best) = self
            .best_matches(req, &query, &series, 1)?
            .into_iter()
            .next()
        else {
            return Err(Response::error(404, "no match found"));
        };
        let matched = self
            .engine
            .dataset()
            .resolve(best.subseq)
            .expect("match resolves")
            .to_vec();
        let title = format!("{} vs {}", series, best.series_name);
        let svg = match view {
            PairView::Radial => RadialChart::new(420, title)
                .add_series(&series, &query)
                .add_series(&best.series_name, &matched)
                .render(),
            PairView::Scatter => ConnectedScatter::new(420, title, &query, &matched)
                .with_path(&best.path)
                .render(),
        };
        Ok(Response::svg(svg))
    }

    fn seasonal_svg(&self, req: &Request) -> Result<Response, Response> {
        let Some(series) = req.param("series") else {
            return Err(Response::error(400, "missing ?series="));
        };
        let ds = self.engine.dataset();
        let Some(s) = ds.by_name(series) else {
            return Err(Response::error(404, "unknown series"));
        };
        let patterns = self
            .engine
            .seasonal(series, &SeasonalOptions::default())
            .expect("series validated");
        let mut view = SeasonalView::new(900, format!("{series} — seasonal view"), s.values());
        for p in patterns.iter().take(3) {
            view = view.add_engine_pattern(p);
        }
        Ok(Response::svg(view.render()))
    }
}

enum PairView {
    Radial,
    Scatter,
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_api::SimilaritySearch;
    use onex_grouping::BaseConfig;
    use onex_tseries::gen::{matters_collection, Indicator, MattersConfig};

    fn app() -> App {
        let ds = matters_collection(&MattersConfig {
            indicators: vec![Indicator::GrowthRate],
            ..MattersConfig::default()
        });
        App::build(ds, BaseConfig::new(1.0, 6, 10)).unwrap()
    }

    fn get(app: &App, target: &str) -> Response {
        app.handle(&Request::get(target).unwrap())
    }

    #[test]
    fn index_links_the_api() {
        let r = get(&app(), "/");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("/api/summary"));
        assert!(body.contains("backend=ucrsuite"));
        assert!(body.contains("ONEX"));
    }

    #[test]
    fn summary_reports_base_stats() {
        let r = get(&app(), "/api/summary");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"series\":50"), "{body}");
        assert!(body.contains("\"per_length\":["));
    }

    #[test]
    fn summary_reports_kernel_level_and_tier_prunes() {
        let a = app();
        let body = String::from_utf8(get(&a, "/api/summary").body).unwrap();
        let level = onex_distance::kernels::level().label();
        assert!(
            body.contains(&format!("\"kernel_level\":\"{level}\"")),
            "{body}"
        );
        assert!(body.contains("\"tier_prunes\":{\"l0\":"), "{body}");
        // Run a query, then the lifetime tier counters must be visible
        // (and the cascade must have done *something*: pruned or run DTW).
        let q = get(&a, "/api/match?series=MA-GrowthRate&start=4&len=8&k=3");
        assert_eq!(q.status, 200);
        let body = String::from_utf8(get(&a, "/api/summary").body).unwrap();
        let tiers = body.split("\"tier_prunes\":").nth(1).expect("tiers field");
        assert!(tiers.contains("\"kim\":"), "{tiers}");
        assert!(tiers.contains("\"keogh\":"), "{tiers}");
        assert!(tiers.contains("\"dtw_abandoned\":"), "{tiers}");
    }

    #[test]
    fn summary_reports_the_load_steps_build_report() {
        let a = app();
        let r = get(&a, "/api/summary");
        let body = String::from_utf8(r.body).unwrap();
        // The dataset-load path went through the indexed builder and the
        // construction report — work counters included — is in the JSON.
        assert!(body.contains("\"build\":{"), "{body}");
        for key in [
            "\"elapsed_ms\":",
            "\"subsequences\":",
            "\"subsequences_per_sec\":",
            "\"resident_bytes_per_subseq\":",
            "\"resident_index_bytes\":0,",
            "\"work\":{",
            "\"reps_examined\":",
            "\"reps_pruned\":",
            "\"distance_calls\":",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        // The footprint served is the live base's own estimate.
        let resident = a.engine.base().footprint().total();
        assert!(resident > 0);
        assert!(
            body.contains(&format!("\"resident_bytes\":{resident},")),
            "{body}"
        );
        let parsed = crate::json::Json::parse(&body).expect("valid JSON");
        let crate::json::Json::Obj(fields) = parsed else {
            panic!("summary is an object");
        };
        assert!(fields.iter().any(|(k, _)| k == "build"));
        let report = a.build_report().expect("App::build keeps the report");
        assert!(report.work.distance_calls > 0);
        assert!(report.subsequences >= report.groups);
    }

    #[test]
    fn wrapped_engines_have_no_build_report() {
        let ds = matters_collection(&MattersConfig {
            indicators: vec![Indicator::GrowthRate],
            ..MattersConfig::default()
        });
        let (engine, _) = Onex::build(ds, BaseConfig::new(1.0, 6, 10)).unwrap();
        let a = App::new(Arc::new(engine));
        assert!(a.build_report().is_none());
        let body = String::from_utf8(get(&a, "/api/summary").body).unwrap();
        assert!(!body.contains("\"build\":"), "{body}");
    }

    #[test]
    fn summary_reports_base_file_provenance_on_cold_started_engines() {
        // Warm engines carry no base_file object…
        let a = app();
        let body = String::from_utf8(get(&a, "/api/summary").body).unwrap();
        assert!(!body.contains("\"base_file\":"), "{body}");

        // …an engine cold-started from a saved base reports its source
        // and resolution progress, advancing as queries resolve columns.
        let ds = matters_collection(&MattersConfig {
            indicators: vec![Indicator::GrowthRate],
            ..MattersConfig::default()
        });
        let dir = std::env::temp_dir().join("onex_app_coldstart_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summary.onexbase");
        a.engine.save_base(&path).unwrap();
        let cold = Onex::open(&path, ds).unwrap();
        let total = a.engine.base().lengths().count();
        let a2 = App::new(Arc::new(cold));
        let body = String::from_utf8(get(&a2, "/api/summary").body).unwrap();
        assert!(
            body.contains(&format!(
                "\"base_file\":{{\"path\":\"{}\",\"epoch\":0,\"resolved_lengths\":0,\"total_lengths\":{total}}}",
                path.display()
            )),
            "{body}"
        );
        // The match endpoint queries with Nearest(3): exactly the three
        // neighbouring columns resolve, nothing else.
        let q = get(&a2, "/api/match?series=MA-GrowthRate&start=4&len=8&k=3");
        assert_eq!(q.status, 200);
        let body = String::from_utf8(get(&a2, "/api/summary").body).unwrap();
        assert!(body.contains("\"resolved_lengths\":3"), "{body}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn series_listing() {
        let r = get(&app(), "/api/series");
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"MA-GrowthRate\""));
        assert!(body.contains("\"axis_start\":2001"));
    }

    #[test]
    fn backends_listing_names_all_engines() {
        let r = get(&app(), "/api/backends");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        for name in [
            "onex", "ucrsuite", "frm", "ebsm", "spring", "sharded", "cached",
        ] {
            assert!(body.contains(&format!("\"name\":\"{name}\"")), "{body}");
        }
        // Capability introspection includes the caching flag, true only
        // for the caching decorator.
        assert_eq!(body.matches("\"cached\":true").count(), 1, "{body}");
    }

    #[test]
    fn match_api_excludes_self_by_default() {
        let a = app();
        let r = get(&a, "/api/match?series=MA-GrowthRate&start=4&len=8&k=3");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"backend\":\"onex\""), "{body}");
        assert!(!body.contains("\"MA-GrowthRate\""), "{body}");
        assert_eq!(body.matches("\"distance\":").count(), 3);
        // include_self=true lets the own window win.
        let r2 = get(
            &a,
            "/api/match?series=MA-GrowthRate&start=4&len=8&k=1&include_self=true",
        );
        let body2 = String::from_utf8(r2.body).unwrap();
        assert!(body2.contains("\"MA-GrowthRate\""));
        assert!(body2.contains("\"distance\":0"));
    }

    #[test]
    fn match_api_serves_every_backend_through_the_trait() {
        let a = app();
        for (backend, metric) in [
            ("onex", "raw DTW"),
            ("ucrsuite", "z-norm DTW"),
            ("frm", "raw ED"),
            ("ebsm", "subsequence DTW"),
            ("spring", "subsequence DTW"),
            ("sharded", "raw DTW"),
            ("cached", "raw DTW"),
        ] {
            let r = get(
                &a,
                &format!("/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend={backend}"),
            );
            assert_eq!(r.status, 200, "{backend}");
            let body = String::from_utf8(r.body).unwrap();
            assert!(
                body.contains(&format!("\"backend\":\"{backend}\"")),
                "{body}"
            );
            assert!(body.contains(&format!("\"metric\":\"{metric}\"")), "{body}");
            assert!(body.contains("\"matches\":["), "{body}");
            assert!(body.contains("\"examined\":"), "{body}");
            // Every backend reports the per-tier prune breakdown (zeroes
            // for engines without a tiered cascade).
            assert!(body.contains("\"tiers\":{\"l0\":"), "{body}");
        }
        // The baselines index the same data, so the verbatim window is
        // found at distance ~0 by every engine.
        let r = get(
            &a,
            "/api/match?series=MA-GrowthRate&start=4&len=8&k=1&backend=frm",
        );
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"distance\":0"), "{body}");
        // Unknown backends are a 400, not a fallback.
        let r = get(
            &a,
            "/api/match?series=MA-GrowthRate&start=4&len=8&backend=oracle",
        );
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("oracle"), "{body}");
    }

    #[test]
    fn k_zero_is_a_typed_400_not_a_silent_k_one() {
        let a = app();
        for backend in [
            "onex", "ucrsuite", "frm", "ebsm", "spring", "sharded", "cached",
        ] {
            let r = get(
                &a,
                &format!("/api/match?series=MA-GrowthRate&start=4&len=8&k=0&backend={backend}"),
            );
            assert_eq!(r.status, 400, "{backend}");
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.contains("invalid query"), "{backend}: {body}");
        }
    }

    #[test]
    fn sharded_backend_agrees_with_onex_over_http() {
        let a = app();
        let target = "/api/match?series=MA-GrowthRate&start=4&len=8&k=3&include_self=true";
        let onex = String::from_utf8(get(&a, target).body).unwrap();
        let sharded =
            String::from_utf8(get(&a, &format!("{target}&backend=sharded")).body).unwrap();
        // Same matches (names, windows, distances) from both engines;
        // only the backend label and work counters differ.
        let matches_of = |body: &str| {
            let json = crate::json::Json::parse(body).expect("valid JSON");
            let crate::json::Json::Obj(fields) = json else {
                panic!("object: {body}");
            };
            fields
                .into_iter()
                .find(|(k, _)| k == "matches")
                .map(|(_, v)| v.render())
                .expect("matches field")
        };
        assert_eq!(matches_of(&onex), matches_of(&sharded));
        assert!(sharded.contains("\"backend\":\"sharded\""));
        // In-process shards share one fate: always all four.
        assert!(
            sharded.contains(
                "\"coverage\":{\"shards_answered\":4,\"shards_total\":4,\"degraded\":false}"
            ),
            "{sharded}"
        );
    }

    #[test]
    fn sharded_backend_reuses_one_worker_pool_across_requests() {
        let a = app();
        let target = "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=sharded";
        let pool_of = |body: &str| {
            let json = crate::json::Json::parse(body).expect("valid JSON");
            let crate::json::Json::Obj(fields) = json else {
                panic!("object: {body}");
            };
            let (_, pool) = fields
                .into_iter()
                .find(|(k, _)| k == "pool")
                .expect("sharded responses carry pool counters");
            let crate::json::Json::Obj(pool) = pool else {
                panic!("pool is an object");
            };
            let num = |name: &str| -> f64 {
                pool.iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| v.render().parse().unwrap())
                    .unwrap_or_else(|| panic!("missing {name}"))
            };
            (
                num("workers") as usize,
                num("threads_spawned") as usize,
                num("jobs_executed") as usize,
            )
        };
        let first = pool_of(&String::from_utf8(get(&a, target).body).unwrap());
        let second = pool_of(&String::from_utf8(get(&a, target).body).unwrap());
        let third = pool_of(&String::from_utf8(get(&a, target).body).unwrap());
        assert_eq!(first.0, 4, "server shards across 4 workers");
        // The pool outlives requests: the spawn counter never moves…
        assert_eq!(first.1, 4);
        assert_eq!(second.1, 4);
        assert_eq!(third.1, 4);
        // …while work flows through it, one job per shard per query.
        assert_eq!(second.2, first.2 + 4);
        assert_eq!(third.2, second.2 + 4);
    }

    #[test]
    fn cached_backend_reports_hits_across_requests() {
        let a = app();
        let target = "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cached";
        let first = String::from_utf8(get(&a, target).body).unwrap();
        assert!(first.contains("\"cache\":{"), "{first}");
        assert!(first.contains("\"hits\":0"), "{first}");
        assert!(first.contains("\"misses\":1"), "{first}");
        let second = String::from_utf8(get(&a, target).body).unwrap();
        assert!(second.contains("\"hits\":1"), "{second}");
        // The cached answer is the same answer.
        let strip = |b: &str| b.split("\"cache\"").next().unwrap().to_owned();
        assert_eq!(strip(&first), strip(&second));
    }

    #[test]
    fn append_over_http_bumps_the_epoch_and_serves_the_new_series() {
        let a = app();
        // Clone an existing series' opening window into a new series so
        // the verbatim match target is unambiguous.
        let donor = String::from_utf8(
            get(
                &a,
                "/api/match?series=MA-GrowthRate&start=0&len=8&k=1&include_self=true",
            )
            .body,
        )
        .unwrap();
        assert!(donor.contains("\"distance\":0"), "{donor}");
        let values: Vec<String> = {
            let ds = a.engine.dataset();
            ds.by_name("MA-GrowthRate")
                .unwrap()
                .subsequence(0, 8)
                .unwrap()
                .iter()
                .map(|v| v.to_string())
                .collect()
        };
        let r = get(
            &a,
            &format!("/api/append?name=Fresh&values={}", values.join(",")),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8(r.body.clone()));
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"appended\":\"Fresh\""), "{body}");
        assert!(body.contains("\"epoch\":1"), "{body}");
        assert!(body.contains("\"series\":51"), "{body}");
        // What the append copied, out of the blocks the live base is in.
        let blocks = a.engine.base().block_count();
        assert!(body.contains("\"blocks\":{\"copied\":"), "{body}");
        assert!(body.contains(&format!("\"total\":{blocks}}}")), "{body}");
        // The engine itself serves the new series…
        let direct = get(
            &a,
            "/api/match?series=Fresh&start=0&len=8&k=2&include_self=true",
        );
        assert_eq!(direct.status, 200);
        let direct = String::from_utf8(direct.body).unwrap();
        assert!(direct.contains("\"Fresh\""), "{direct}");
        assert!(direct.contains("\"distance\":0"), "{direct}");
        // …and /api/series lists it.
        let listing = String::from_utf8(get(&a, "/api/series").body).unwrap();
        assert!(listing.contains("\"Fresh\""), "{listing}");
    }

    #[test]
    fn concurrent_appends_each_report_the_epoch_they_committed() {
        const WRITERS: usize = 2;
        const EACH: usize = 6;
        let a = app();
        let initial = a.engine.dataset().len();
        let start = std::sync::Barrier::new(WRITERS);
        let reports: Vec<(usize, usize)> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (a, start) = (&a, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..EACH)
                            .map(|i| {
                                let values = (0..16)
                                    .map(|j| ((w * 31 + i * 7 + j) % 11).to_string())
                                    .collect::<Vec<_>>();
                                let r = get(
                                    a,
                                    &format!(
                                        "/api/append?name=w{w}-{i}&values={}",
                                        values.join(",")
                                    ),
                                );
                                assert_eq!(r.status, 200);
                                let body = Json::parse(std::str::from_utf8(&r.body).unwrap())
                                    .expect("append answers valid JSON");
                                let Json::Obj(fields) = body else {
                                    panic!("append answers an object");
                                };
                                let num = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                                    Some((_, Json::Num(n))) => *n as usize,
                                    other => panic!("{key}: {other:?}"),
                                };
                                (num("epoch"), num("series"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().expect("writer thread"))
                .collect()
        });
        // Every append committed exactly one epoch and says which: the
        // epochs are 1..=n with none repeated, and each response's series
        // count is the collection's at *its* epoch, whatever the other
        // writer committed in the meantime.
        let mut epochs: Vec<usize> = reports.iter().map(|&(epoch, _)| epoch).collect();
        epochs.sort_unstable();
        assert_eq!(epochs, (1..=WRITERS * EACH).collect::<Vec<_>>());
        for (epoch, series) in reports {
            assert_eq!(series, initial + epoch);
        }
        assert_eq!(a.engine.epoch() as usize, WRITERS * EACH);
    }

    #[test]
    fn baseline_backends_rebuild_after_an_append_instead_of_going_stale() {
        let a = app();
        // Warm every rebuildable baseline at epoch 0 — the exact setup
        // in which the old process-lifetime OnceLocks froze forever.
        for backend in ["ucrsuite", "frm", "ebsm", "spring", "sharded"] {
            let r = get(
                &a,
                &format!("/api/match?series=MA-GrowthRate&start=4&len=8&k=1&backend={backend}"),
            );
            assert_eq!(r.status, 200, "{backend}");
        }
        let values: Vec<String> = {
            let ds = a.engine.dataset();
            ds.by_name("MA-GrowthRate")
                .unwrap()
                .subsequence(4, 8)
                .unwrap()
                .iter()
                .map(|v| v.to_string())
                .collect()
        };
        let r = get(
            &a,
            &format!("/api/append?name=Fresh&values={}", values.join(",")),
        );
        assert_eq!(r.status, 200);
        // After the append each baseline must answer over the grown
        // dataset: querying the appended window with the donor excluded
        // finds the fresh series verbatim. (exclude-self is onex-only,
        // so ask for enough matches that Fresh must appear.)
        for backend in ["ucrsuite", "frm", "sharded"] {
            let r = get(
                &a,
                &format!("/api/match?series=Fresh&start=0&len=8&k=3&backend={backend}"),
            );
            assert_eq!(r.status, 200, "{backend}");
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.contains("\"Fresh\""), "{backend} went stale: {body}");
        }
        // The trait-level epochs agree: the cached decorator tracks the
        // live engine, the sharded rebuild starts a fresh cell at 0.
        assert_eq!(a.engine.epoch(), 1);
        assert_eq!(a.backends.cached().epoch(), 1);
    }

    #[test]
    fn cached_backend_survives_appends_without_serving_stale_answers() {
        let a = app();
        let target = "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cached";
        let first = String::from_utf8(get(&a, target).body).unwrap();
        assert!(first.contains("\"misses\":1"), "{first}");
        let warm = String::from_utf8(get(&a, target).body).unwrap();
        assert!(warm.contains("\"hits\":1"), "{warm}");
        // Append a verbatim clone of the queried window as a new series.
        let values: Vec<String> = {
            let ds = a.engine.dataset();
            ds.by_name("MA-GrowthRate")
                .unwrap()
                .subsequence(4, 8)
                .unwrap()
                .iter()
                .map(|v| v.to_string())
                .collect()
        };
        assert_eq!(
            get(
                &a,
                &format!("/api/append?name=Fresh&values={}", values.join(","))
            )
            .status,
            200
        );
        // The same request must now be a miss (epoch bumped → entries
        // dropped) and its answer must include the fresh verbatim clone;
        // the traffic counters survived the invalidation.
        let after = String::from_utf8(get(&a, target).body).unwrap();
        assert!(after.contains("\"hits\":1"), "{after}");
        assert!(after.contains("\"misses\":2"), "{after}");
        assert!(after.contains("\"Fresh\""), "stale cache: {after}");
    }

    #[test]
    fn append_rejects_bad_requests_with_typed_statuses() {
        let a = app();
        assert_eq!(get(&a, "/api/append").status, 400);
        assert_eq!(get(&a, "/api/append?name=X").status, 400);
        assert_eq!(get(&a, "/api/append?name=X&values=1,2,banana").status, 400);
        // A duplicate name conflicts with the published collection: 409.
        let r = get(&a, "/api/append?name=MA-GrowthRate&values=1,2,3,4,5,6");
        assert_eq!(r.status, 409, "{:?}", String::from_utf8(r.body));
        // `"NaN".parse::<f64>()` succeeds; a series no query may be cut
        // from is unprocessable data all the same: 422.
        let summary = get(&a, "/api/summary").body;
        for bad in ["NaN", "inf", "-inf", "+infinity"] {
            let r = get(
                &a,
                &format!("/api/append?name=bad&values=1,2,3,4,5,{bad},7"),
            );
            let body = String::from_utf8(r.body).unwrap();
            assert_eq!(r.status, 422, "{bad}: {body}");
            assert!(body.contains("invalid data"), "{body}");
            assert!(body.contains("sample 5 is not finite"), "{body}");
        }
        // None of the rejected appends published an epoch or left a trace.
        assert_eq!(a.engine.epoch(), 0);
        assert_eq!(get(&a, "/api/summary").body, summary);
    }

    #[test]
    fn malformed_numeric_params_are_400s_with_the_offending_value() {
        let a = app();
        for target in [
            "/api/match?series=MA-GrowthRate&start=4&len=8&k=banana",
            "/api/match?series=MA-GrowthRate&start=x&len=8",
            "/api/match?series=MA-GrowthRate&start=4&len=eight",
            "/api/seasonal?series=MA-GrowthRate&min_occurrences=2.5",
            "/api/seasonal?series=MA-GrowthRate&max_patterns=-3",
            "/api/threshold?len=tall",
            "/api/monitor?series=MA-GrowthRate&start=0&len=6&target=MA-GrowthRate&eps=wide",
        ] {
            let r = get(&a, target);
            assert_eq!(r.status, 400, "{target}");
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.contains("invalid value"), "{target}: {body}");
        }
    }

    #[test]
    fn monitor_api_reports_disjoint_matches() {
        let a = app();
        // Monitor a series for its own opening window: the verbatim
        // occurrence must be reported at distance ~0.
        let r = get(
            &a,
            "/api/monitor?series=MA-GrowthRate&start=0&len=6&target=MA-GrowthRate&eps=0.001",
        );
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"target\":\"MA-GrowthRate\""), "{body}");
        assert!(body.contains("\"start\":0"), "{body}");
        // Missing/unknown target are 4xx, not panics.
        assert_eq!(
            get(&a, "/api/monitor?series=MA-GrowthRate&start=0&len=6").status,
            400
        );
        assert_eq!(
            get(
                &a,
                "/api/monitor?series=MA-GrowthRate&start=0&len=6&target=Nope"
            )
            .status,
            404
        );
    }

    #[test]
    fn cluster_backend_without_configuration_is_a_400_not_a_panic() {
        let a = app();
        let r = get(
            &a,
            "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cluster",
        );
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("no cluster configured"), "{body}");
        // And an unconfigured cluster never shows up in introspection.
        let listing = String::from_utf8(get(&a, "/api/backends").body).unwrap();
        assert!(!listing.contains("\"cluster\""), "{listing}");
    }

    #[test]
    fn cluster_backend_with_dead_shards_is_a_502_bad_gateway() {
        // Reserve a port and close it: connecting must fail fast.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let a = app().with_cluster(vec![dead]);
        let t0 = std::time::Instant::now();
        let r = get(
            &a,
            "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cluster",
        );
        assert_eq!(r.status, 502, "{:?}", String::from_utf8(r.body));
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "dead peers must fail fast, not hang: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn health_and_summary_never_wait_behind_a_dialling_cluster_request() {
        // A shard that takes the connection and then says nothing: the
        // dial sits in the hello exchange until the test lets it go.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let a = app().with_cluster(vec![silent.local_addr().unwrap().to_string()]);
        std::thread::scope(|scope| {
            let dialling = scope.spawn(|| {
                get(
                    &a,
                    "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cluster",
                )
            });
            // Accepting is the proof that the dial is in flight.
            let (held, _) = silent.accept().unwrap();
            for route in ["/api/health", "/api/summary"] {
                let t0 = std::time::Instant::now();
                let r = get(&a, route);
                let waited = t0.elapsed();
                assert_eq!(r.status, 200, "{route}");
                let body = String::from_utf8(r.body).unwrap();
                assert!(body.contains("\"connected\":false"), "{route}: {body}");
                assert!(
                    waited < Duration::from_millis(200),
                    "{route} waited {waited:?} behind the dial"
                );
            }
            // Hang up mid-hello: the dialling request ends typed.
            drop(held);
            let r = dialling.join().unwrap();
            let body = String::from_utf8(r.body).unwrap();
            assert_eq!(r.status, 502, "{body}");
            assert!(body.contains("network error"), "{body}");
        });
    }

    /// Round-robin partition the app's dataset over `n` live shard
    /// servers; returns their addresses.
    fn spawn_matters_shards(n: usize) -> Vec<String> {
        let ds = matters_collection(&MattersConfig {
            indicators: vec![Indicator::GrowthRate],
            ..MattersConfig::default()
        });
        (0..n)
            .map(|s| {
                let part: Vec<TimeSeries> = (0..ds.len())
                    .filter(|g| g % n == s)
                    .map(|g| ds.series(g as u32).unwrap().clone())
                    .collect();
                let (engine, _) = Onex::build(
                    Dataset::from_series(part).unwrap(),
                    BaseConfig::new(1.0, 6, 10),
                )
                .unwrap();
                let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                let server = onex_net::ShardServer::new(Arc::new(engine));
                std::thread::spawn(move || {
                    let _ = server.serve_with(
                        listener,
                        &onex_net::AcceptOptions {
                            workers: 2,
                            queue: 8,
                            ..onex_net::AcceptOptions::default()
                        },
                    );
                });
                addr
            })
            .collect()
    }

    #[test]
    fn health_and_match_report_cluster_coverage_and_breakers_over_http() {
        let shards = spawn_matters_shards(2);
        // Shard 1 goes through a chaos proxy so the test can kill and
        // restart it without process management.
        let proxy = onex_net::ChaosProxy::spawn(shards[1].clone(), Vec::new()).unwrap();
        let a = app().with_cluster(vec![shards[0].clone(), proxy.addr().to_string()]);

        // Before the first cluster request, health reports the fleet as
        // configured but unconnected — and never dials.
        let body = String::from_utf8(get(&a, "/api/health").body).unwrap();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"connected\":false"), "{body}");

        // A healthy cluster query reports full coverage.
        let r = get(
            &a,
            "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cluster",
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8(r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(
            body.contains(
                "\"coverage\":{\"shards_answered\":2,\"shards_total\":2,\"degraded\":false}"
            ),
            "{body}"
        );

        // Health now exposes the topology and closed breakers.
        let body = String::from_utf8(get(&a, "/api/health").body).unwrap();
        assert!(body.contains("\"connected\":true"), "{body}");
        assert!(body.contains("\"degrade\":\"partial\""), "{body}");
        assert!(body.contains("\"state\":\"closed\""), "{body}");
        assert!(body.contains(&shards[0]), "{body}");
        assert!(body.contains("\"hedges\""), "{body}");

        // The backends listing carries the same topology per slot.
        let body = String::from_utf8(get(&a, "/api/backends").body).unwrap();
        assert!(body.contains("\"cluster\""), "{body}");
        assert!(body.contains("\"topology\""), "{body}");
        assert!(body.contains("\"degrade\":\"partial\""), "{body}");
        // And the summary reports the cluster's posture.
        let body = String::from_utf8(get(&a, "/api/summary").body).unwrap();
        assert!(body.contains("\"cluster\":{\"connected\":true"), "{body}");

        // Kill shard 1: the gateway's Partial policy keeps answering,
        // and the JSON says exactly what was missing.
        proxy.set_fault(Some(onex_net::Fault::Drop));
        let r = get(
            &a,
            "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cluster",
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8(r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(
            body.contains(
                "\"coverage\":{\"shards_answered\":1,\"shards_total\":2,\"degraded\":true}"
            ),
            "{body}"
        );
        // The dead replica's breaker recorded the failure.
        let body = String::from_utf8(get(&a, "/api/health").body).unwrap();
        assert!(body.contains("\"failures\":"), "{body}");
    }

    #[test]
    fn bad_requests_get_4xx() {
        let a = app();
        assert_eq!(get(&a, "/api/match").status, 400);
        assert_eq!(get(&a, "/api/match?series=Nowhere").status, 404);
        assert_eq!(
            get(&a, "/api/match?series=MA-GrowthRate&start=99&len=8").status,
            400
        );
        assert_eq!(get(&a, "/nope").status, 404);
        let mut post = Request::get("/").unwrap();
        post.method = "POST".into();
        assert_eq!(a.handle(&post).status, 405);
    }

    #[test]
    fn svg_views_render() {
        let a = app();
        for target in [
            "/view/overview.svg",
            "/view/overview.svg?len=8",
            "/view/preview.svg?series=MA-GrowthRate&start=6&len=8",
            "/view/match.svg?series=MA-GrowthRate&start=6&len=8",
            "/view/radial.svg?series=MA-GrowthRate&start=6&len=8",
            "/view/scatter.svg?series=MA-GrowthRate&start=6&len=8",
            "/view/seasonal.svg?series=MA-GrowthRate",
        ] {
            let r = get(&a, target);
            assert_eq!(r.status, 200, "{target}");
            assert_eq!(r.content_type, "image/svg+xml");
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.starts_with("<svg"), "{target}");
        }
    }

    #[test]
    fn threshold_api() {
        let r = get(&app(), "/api/threshold?len=8");
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"suggested\":"));
        assert!(body.contains("\"ladder\":["));
    }

    #[test]
    fn seasonal_api() {
        let a = app();
        let r = get(&a, "/api/seasonal?series=MA-GrowthRate");
        assert_eq!(r.status, 200);
        assert_eq!(get(&a, "/api/seasonal?series=zz").status, 404);
        assert_eq!(get(&a, "/api/seasonal").status, 400);
    }

    // ---- serve loop hardening ------------------------------------------

    /// A per-connection race: never counts toward the give-up threshold.
    fn transient_error() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::ConnectionAborted, "peer aborted")
    }

    /// A listener-level failure: counts toward the give-up threshold.
    fn fatal_error() -> std::io::Error {
        std::io::Error::other("accept failed")
    }

    #[test]
    fn persistent_accept_failures_back_off_then_bail() {
        let a = app();
        let opts = ServeOptions {
            workers: 1,
            queue: 4,
            max_consecutive_accept_failures: 5,
            accept_backoff: Duration::from_millis(2),
        };
        // An endlessly failing listener: without the failure cap this
        // loop would never return (and before the fix it would not even
        // sleep — a hot busy-loop).
        let failures = std::iter::repeat_with(|| Err(fatal_error()));
        let t0 = std::time::Instant::now();
        let err = a.serve_streams(failures, &opts).unwrap_err();
        assert!(err.to_string().contains("accept failed"), "{err}");
        // 4 backoff sleeps before the 5th failure bails: 2+4+8+16 ms.
        assert!(
            t0.elapsed() >= Duration::from_millis(20),
            "backoff must actually sleep: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn transient_accept_errors_never_trip_the_failure_cap() {
        let a = app();
        let opts = ServeOptions {
            workers: 1,
            queue: 4,
            max_consecutive_accept_failures: 3,
            accept_backoff: Duration::ZERO,
        };
        // A flood of per-connection races far beyond the cap: they back
        // off but must not shut the server down (the iterator ending is
        // the only reason the loop returns, cleanly).
        let aborts = (0..50).map(|_| Err(transient_error()));
        a.serve_streams(aborts, &opts)
            .expect("connection races are not listener failures");
    }

    #[test]
    fn transient_accept_failures_recover_and_the_pool_serves() {
        use std::io::{Read as _, Write as _};

        let a = app();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let clients: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    write!(s, "GET /api/series HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
                    let mut buf = String::new();
                    s.read_to_string(&mut buf).unwrap();
                    assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
                })
            })
            .collect();
        let accepted: Vec<std::io::Result<TcpStream>> =
            (0..3).map(|_| listener.accept().map(|(s, _)| s)).collect();
        // Failures interleaved below the threshold: successes reset the
        // consecutive count, so the loop survives and ends cleanly when
        // the source is exhausted.
        let mut items = vec![Err(fatal_error()), Err(fatal_error())];
        items.extend(accepted);
        items.push(Err(fatal_error()));
        let opts = ServeOptions {
            workers: 2,
            queue: 2,
            max_consecutive_accept_failures: 3,
            accept_backoff: Duration::from_millis(1),
        };
        a.serve_streams(items.into_iter(), &opts)
            .expect("transient failures below the threshold are survivable");
        for c in clients {
            c.join().unwrap();
        }
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        use std::io::{Read as _, Write as _};

        let a = app();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            // Two pipelined requests: the first opts into keep-alive, the
            // second does not — the server must answer both on this one
            // socket and close only after the second.
            write!(
                s,
                "GET /api/series HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
                 GET /api/summary HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            .unwrap();
            let mut buf = String::new();
            s.read_to_string(&mut buf).unwrap();
            assert_eq!(buf.matches("HTTP/1.1 200 OK").count(), 2, "{buf}");
            let (first, second) = buf.split_at(buf.rfind("HTTP/1.1").unwrap());
            assert!(first.contains("Connection: keep-alive\r\n"), "{first}");
            assert!(second.contains("Connection: close\r\n"), "{second}");
            assert!(second.contains("\"per_length\""), "{second}");
        });
        let accepted = listener.accept().map(|(s, _)| s);
        let opts = ServeOptions {
            workers: 1,
            queue: 1,
            max_consecutive_accept_failures: 3,
            accept_backoff: Duration::from_millis(1),
        };
        a.serve_streams(std::iter::once(accepted), &opts).unwrap();
        client.join().unwrap();
    }

    #[test]
    fn worker_pool_is_fixed_size_yet_serves_more_clients_than_workers() {
        use std::io::{Read as _, Write as _};

        let a = app();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        const CLIENTS: usize = 8;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    write!(s, "GET /api/summary HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
                    let mut buf = String::new();
                    s.read_to_string(&mut buf).unwrap();
                    assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
                })
            })
            .collect();
        let accepted: Vec<std::io::Result<TcpStream>> = (0..CLIENTS)
            .map(|_| listener.accept().map(|(s, _)| s))
            .collect();
        // Two workers, a two-slot queue, eight connections: every one is
        // served (backpressure, not drops) by a bounded thread pool.
        let opts = ServeOptions {
            workers: 2,
            queue: 2,
            max_consecutive_accept_failures: 3,
            accept_backoff: Duration::from_millis(1),
        };
        a.serve_streams(accepted.into_iter(), &opts).unwrap();
        for c in clients {
            c.join().unwrap();
        }
    }
}
