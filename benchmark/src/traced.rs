//! The traced run of one workload: one client, a fixed prefix of the
//! schedule, every request replayed at successively inner boundaries with a
//! span around each call. Per-layer numbers come from here; end-to-end
//! numbers never do.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{OnexError, SearchOutcome, SimilaritySearch};
use onex_core::backends::{CachedSearch, OnexBackend, ShardedEngine};
use onex_core::{Match, Onex};
use onex_grouping::persist::save_v2;
use onex_grouping::{BaseBuilder, OnexBase};
use onex_net::{ClusterEngine, RemoteBackend, RemoteConfig};
use onex_server::http::Request;
use onex_storage::Segment;
use onex_tseries::Dataset;

use crate::check::{match_options, oracle, rank, served};
use crate::client::{open_loop, Client};
use crate::json::Json;
use crate::metrics::{Outcome, Tally};
use crate::micro;
use crate::rig::{append_target, serve_shard, Rig};
use crate::spec::{Window, Workload, K};
use crate::stats::{median, percentile};
use crate::timed::set_up;
use crate::trace::Tracer;

/// `/api/health` round trips behind the keep-alive floor.
const FLOOR_REQUESTS: usize = 30;
/// Appends replayed at each of the three append boundaries.
const APPENDS: usize = 3;
/// Requests of the side passes that only read counters off the JSON.
const COUNTER_REQUESTS: usize = 8;
/// Requests of the prefix checked against the exhaustive oracle.
const ORACLE_CHECKS: usize = 3;
/// Restarts (image bytes -> open -> first answer) behind the medians.
const RESTART_CYCLES: usize = 9;
/// Shard servers behind the cluster replays of every workload.
const SHARDS: usize = 2;

type Metrics = Vec<(&'static str, f64)>;

fn fail(e: OnexError) -> String {
    e.to_string()
}

fn outcome_ranks(out: &SearchOutcome, query_len: usize) -> Vec<f64> {
    out.matches
        .iter()
        .map(|m| rank(m.distance, query_len, m.len))
        .collect()
}

fn match_ranks(matches: &[Match], query_len: usize) -> Vec<f64> {
    matches
        .iter()
        .map(|m| rank(m.distance, query_len, m.subseq.len as usize))
        .collect()
}

fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A direct handle on every layer below the socket, over the rig's collection.
struct Layers {
    builder: BaseBuilder,
    base: OnexBase,
    /// The base as a format-v2 file image.
    image: Vec<u8>,
    engine: Arc<Onex>,
    sharded: ShardedEngine,
    /// One loopback shard server hosting `engine`, the whole collection.
    remote: RemoteBackend,
    /// The rig's shard servers, each hosting its part.
    cluster: ClusterEngine,
    cached: CachedSearch<OnexBackend>,
}

/// Build them, one set-up span per stage.
fn layers(t: &mut Tracer, rig: &Rig) -> Result<Layers, String> {
    let dataset = &rig.dataset;
    let builder = BaseBuilder::new(rig.config.clone()).map_err(fail)?;
    let (base, _) = t.stage("grouping.build", || builder.build(dataset));
    let image = t.stage("grouping.save_v2", || save_v2(&base));
    let bytes = image.clone();
    t.stage("storage.open", || Segment::from_bytes(bytes))
        .map_err(fail)?;

    let (engine, _) = t
        .stage("core.build", || {
            Onex::build(dataset.clone(), rig.config.clone())
        })
        .map_err(fail)?;
    let engine = Arc::new(engine);
    let (sharded, _) = t
        .stage("core.sharded_build", || {
            ShardedEngine::build(dataset, rig.config.clone(), 4)
        })
        .map_err(fail)?;
    let whole = match_options(None);
    let remote = RemoteBackend::new(serve_shard(Arc::clone(&engine))?, RemoteConfig::default())
        .with_options(whole.clone());
    let cluster = t
        .stage("net.connect", || {
            ClusterEngine::connect(&rig.shard_addrs, RemoteConfig::default())
        })
        .map_err(fail)?
        .with_options(whole.clone());
    let cached = CachedSearch::new(
        OnexBackend::new(Arc::clone(&engine)).with_options(whole.clone()),
        256,
    )
    .map_err(fail)?;
    Ok(Layers {
        builder,
        base,
        image,
        engine,
        sharded: sharded.with_options(whole),
        remote,
        cluster,
        cached,
    })
}

/// `App::handle` without the socket, the body parsed.
fn handle_json(rig: &Rig, target: &str) -> Result<Json, String> {
    let request = Request::get(target).map_err(|e| e.to_string())?;
    let response = rig.app.handle(&request);
    let body = String::from_utf8_lossy(&response.body);
    if response.status != 200 {
        return Err(format!("status {}: {body}", response.status));
    }
    Json::parse(&body)
}

/// What the server reports about its own work: per-query counts off the
/// traced answers, gossip and cache counters off the backends that carry
/// them, construction counts off `/api/summary`.
fn served_counters(
    w: &Workload,
    rig: &Rig,
    prefix: &[Window],
    answers: &[&Json],
    image_bytes: usize,
) -> Result<Metrics, String> {
    let mean = |path: &str| -> f64 {
        let values: Vec<f64> = answers
            .iter()
            .filter_map(|j| j.path(path).and_then(Json::num))
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    };
    let dtw = mean("stats.distance_computations");
    let abandoned = mean("stats.tiers.dtw_abandoned");

    // The same route on another backend, for the counters only that backend
    // reports; taken from the traced answers when they already are its.
    let side_pass = |backend: &str, rounds: usize| -> Result<Vec<Json>, String> {
        let mut out = Vec::new();
        for _ in 0..rounds {
            for window in prefix.iter().take(COUNTER_REQUESTS) {
                out.push(handle_json(rig, &window.target_on(backend, &rig.dataset))?);
            }
        }
        Ok(out)
    };
    let gossip: Vec<Json> = if w.backend == "cluster" {
        answers.iter().map(|j| (*j).clone()).collect()
    } else {
        side_pass("cluster", 1)?
    };
    // The counters are cumulative: per query, the growth over the pass.
    let per_query = |path: &str| -> f64 {
        let readings: Vec<f64> = gossip
            .iter()
            .filter_map(|j| j.path(path).and_then(Json::num))
            .collect();
        match (readings.first(), readings.last()) {
            (Some(a), Some(b)) if readings.len() > 1 => (b - a) / (readings.len() - 1) as f64,
            _ => f64::NAN,
        }
    };
    let degraded = gossip
        .iter()
        .filter(|j| j.path("coverage.degraded") == Some(&Json::Bool(true)))
        .count();
    // Twice over the same windows: the second round hits.
    let cache = if w.backend == "cached" {
        answers.last().map(|j| (*j).clone())
    } else {
        side_pass("cached", 2)?.pop()
    };
    let cache_num = |key: &str| -> f64 {
        cache
            .as_ref()
            .and_then(|j| j.path(key).and_then(Json::num))
            .unwrap_or(f64::NAN)
    };
    let (hits, misses) = (cache_num("cache.hits"), cache_num("cache.misses"));
    let summary = handle_json(rig, "/api/summary")?;
    let build = |key: &str| summary.path(key).and_then(Json::num).unwrap_or(f64::NAN);
    let subsequences = build("build.subsequences");

    Ok(vec![
        ("core.examined_per_q", mean("stats.examined")),
        ("core.pruned_per_q", mean("stats.pruned")),
        ("core.dtw_per_q", dtw),
        ("core.l0_rejects_per_q", mean("stats.tiers.l0")),
        ("core.kim_rejects_per_q", mean("stats.tiers.kim")),
        ("core.keogh_rejects_per_q", mean("stats.tiers.keogh")),
        ("core.dtw_abandoned_per_q", abandoned),
        (
            "core.dtw_useful_ratio",
            if dtw > 0.0 {
                (dtw - abandoned) / dtw
            } else {
                1.0
            },
        ),
        ("core.cache_hit_ratio", hits / (hits + misses)),
        (
            "net.tighten_sent_per_q",
            per_query("gossip.tightenings_sent"),
        ),
        (
            "net.tighten_recv_per_q",
            per_query("gossip.tightenings_received"),
        ),
        ("net.degraded_answers", degraded as f64),
        (
            "grouping.build_distance_calls",
            build("build.work.distance_calls"),
        ),
        ("grouping.subsequences", subsequences),
        ("grouping.groups", build("build.groups")),
        ("grouping.compaction", build("build.compaction")),
        (
            "grouping.image_bytes_per_subseq",
            image_bytes as f64 / subsequences,
        ),
    ])
}

/// Appends at their three boundaries: over the socket on the open-loop clock,
/// `Onex::append_series` direct, `BaseBuilder::extend` direct. Returns how late
/// the open-loop writer sent each.
fn replay_appends(
    t: &mut Tracer,
    tally: &mut Tally,
    rig: &Rig,
    layers: &Layers,
    every: Duration,
) -> Result<Vec<f64>, String> {
    let over_http: Vec<String> = rig.spares[..APPENDS].iter().map(append_target).collect();
    let writes = open_loop(rig.http, &over_http, Instant::now(), every);
    let mut late_ms = Vec::with_capacity(APPENDS);
    let mut grown = rig.dataset.clone();
    grown
        .push(rig.spares[APPENDS].clone())
        .map_err(|e| e.to_string())?;
    for (i, (sample, spare)) in writes.iter().zip(&rig.spares[APPENDS..]).enumerate() {
        tally.attempted += 1;
        if let Err(e) = &sample.outcome {
            tally.fail(format!("append {i}: {e}"));
        }
        late_ms.push(sample.late_ms());
        let http = t.record("client.append", Some(i), None, sample.sent, sample.received);
        let (result, core) = t.span("core.append", Some(i), Some(http), || {
            layers.engine.append_series(spare.clone())
        });
        result.map_err(fail)?;
        t.span("grouping.extend", Some(i), Some(core), || {
            layers.builder.extend(&layers.base, &grown)
        })
        .0
        .map_err(fail)?;
    }
    Ok(late_ms)
}

/// A restart, `RESTART_CYCLES` times: the v2 image bytes in memory ->
/// `Onex::open_bytes` -> first `k_best`, each on another window of the prefix,
/// the answer equal to the warm engine's.
fn replay_restarts(
    t: &mut Tracer,
    tally: &mut Tally,
    w: &Workload,
    rig: &Rig,
    layers: &Layers,
    prefix: &[Window],
) -> Result<(), String> {
    for cycle in 0..RESTART_CYCLES {
        let window = &prefix[cycle % prefix.len()];
        let query = window.values(&rig.dataset);
        let opts = match_options(w.excludes_own_series().then_some(window.series as u32));
        let (bytes, dataset) = (layers.image.clone(), rig.dataset.clone());
        let (cold, _) = t.span("core.open", Some(cycle), None, || {
            Onex::open_bytes(bytes, dataset)
        });
        let cold = cold.map_err(fail)?;
        let (first, _) = t.span("core.first_kbest", Some(cycle), None, || {
            cold.k_best(query, K, &opts)
        });
        let (expect, _) = layers.engine.k_best(query, K, &opts).map_err(fail)?;
        tally.expect_same(
            &format!("restart cycle {cycle}"),
            &match_ranks(&first.map_err(fail)?.0, query.len()),
            &match_ranks(&expect, query.len()),
        );
    }
    Ok(())
}

pub fn run(w: &Workload, seed: u64, trace_out: &Path) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let mut tally = Tally::default();

    // ---- set-up, one span per stage --------------------------------------
    let ready = set_up(w, seed, 2 * APPENDS, SHARDS)?;
    let rig = &ready.rig;
    for (name, start, end) in &rig.stages {
        t.record(name, None, None, *start, *end);
    }
    let dataset: &Dataset = &rig.dataset;
    let prefix = &ready.windows[..w.traced_prefix.min(ready.windows.len())];
    let targets = &ready.targets[..prefix.len()];
    let layers = layers(&mut t, rig)?;

    // ---- the socket: keep-alive floor, then the prefix untraced and traced
    let mut client = Client::new(rig.http);
    for i in 0..FLOOR_REQUESTS {
        tally.attempted += 1;
        let (reply, _) = t.span("client.health", Some(i), None, || {
            client.fetch("/api/health")
        });
        if let Err(e) = reply {
            tally.fail(format!("health: {e}"));
        }
    }
    if w.backend == "cached" {
        // Fill the server's cache first, so every later pass over the prefix
        // sees the same thing (a hit) at every boundary.
        for target in targets {
            handle_json(rig, target)?;
        }
    }
    let mut fetch = |i: usize| {
        client
            .fetch(&targets[i])
            .and_then(|body| served(&body, prefix[i].len))
            .map_err(|e| format!("match {}: {e}", targets[i]))
    };
    tally.attempted += 2 * prefix.len();
    let mut untraced_ms = Vec::with_capacity(prefix.len());
    for i in 0..prefix.len() {
        let clock = Instant::now();
        fetch(i)?;
        untraced_ms.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    let mut http_ids = Vec::with_capacity(prefix.len());
    let mut answers = Vec::with_capacity(prefix.len());
    for i in 0..prefix.len() {
        let (answer, id) = t.span("client.http", Some(i), None, || fetch(i));
        http_ids.push(id);
        answers.push(answer?);
    }

    // ---- inner boundaries --------------------------------------------------
    // Each replay must give the answer the socket gave, or the spans would be
    // timing different work.
    let agree = |tally: &mut Tally, what: &str, i: usize, got: &[f64], want: &[f64]| {
        tally.expect_same(&format!("{what} of {}", targets[i]), got, want);
    };
    let mut handle_ids = Vec::with_capacity(prefix.len());
    for i in 0..prefix.len() {
        let request = Request::get(&targets[i]).map_err(|e| e.to_string())?;
        let (response, id) = t.span("server.handle", Some(i), Some(http_ids[i]), || {
            rig.app.handle(&request)
        });
        handle_ids.push(id);
        let got = served(&String::from_utf8_lossy(&response.body), prefix[i].len)?;
        agree(
            &mut tally,
            "server.handle",
            i,
            &got.ranks,
            &answers[i].ranks,
        );
    }
    // The handle spans are the parents of this workload's own backend only.
    let own = |backend: &str| (w.backend == backend).then_some(&handle_ids);

    // The engine under the options this workload's route uses, then over the
    // whole collection, which is all the fan-out, remote and cached backends
    // can be asked for: the base their ratios are taken on.
    let engine_pass = |t: &mut Tracer,
                       name: &'static str,
                       parents: Option<&Vec<usize>>,
                       exclude_own: bool|
     -> Result<Vec<Vec<f64>>, String> {
        let mut all = Vec::with_capacity(prefix.len());
        for (i, window) in prefix.iter().enumerate() {
            let query = window.values(dataset);
            let opts = match_options(exclude_own.then_some(window.series as u32));
            let parent = parents.map(|ids| ids[i]);
            let (result, _) = t.span(name, Some(i), parent, || {
                layers.engine.k_best(query, K, &opts)
            });
            all.push(match_ranks(&result.map_err(fail)?.0, query.len()));
        }
        Ok(all)
    };
    let own_ranks = engine_pass(&mut t, "core.kbest", own("onex"), w.excludes_own_series())?;
    for (i, ranks) in own_ranks.iter().enumerate() {
        agree(&mut tally, "core.kbest", i, ranks, &answers[i].ranks);
    }
    let (whole_name, whole) = if w.excludes_own_series() {
        let name = "core.kbest_whole";
        (name, engine_pass(&mut t, name, None, false)?)
    } else {
        ("core.kbest", own_ranks)
    };

    let replay = |t: &mut Tracer,
                  tally: &mut Tally,
                  name: &'static str,
                  backend: &dyn SimilaritySearch,
                  parents: Option<&Vec<usize>>|
     -> Result<Vec<usize>, String> {
        let mut ids = Vec::with_capacity(prefix.len());
        for (i, window) in prefix.iter().enumerate() {
            let query = window.values(dataset);
            let parent = parents.map(|ids| ids[i]);
            let (result, id) = t.span(name, Some(i), parent, || backend.k_best(query, K));
            let ranks = outcome_ranks(&result.map_err(fail)?, query.len());
            agree(tally, name, i, &ranks, &whole[i]);
            ids.push(id);
        }
        Ok(ids)
    };
    replay(
        &mut t,
        &mut tally,
        "core.sharded_kbest",
        &layers.sharded,
        None,
    )?;
    let cluster_ids = replay(
        &mut t,
        &mut tally,
        "net.cluster_kbest",
        &layers.cluster,
        own("cluster"),
    )?;
    let under_cluster = own("cluster").and(Some(&cluster_ids));
    replay(
        &mut t,
        &mut tally,
        "net.remote_kbest",
        &layers.remote,
        under_cluster,
    )?;
    for window in prefix {
        // Misses fill the cache; the traced pass then times hits.
        layers
            .cached
            .k_best(window.values(dataset), K)
            .map_err(fail)?;
    }
    replay(
        &mut t,
        &mut tally,
        "core.cached_kbest",
        &layers.cached,
        own("cached"),
    )?;

    // ---- oracle ------------------------------------------------------------
    for n in 0..ORACLE_CHECKS.min(prefix.len()) {
        let i = n * (prefix.len() - 1) / (ORACLE_CHECKS - 1).max(1);
        let want = oracle(dataset, w, &prefix[i], w.excludes_own_series())?;
        agree(&mut tally, "oracle", i, &answers[i].ranks, &want);
    }

    // ---- restarts, counters, appends ---------------------------------------
    replay_restarts(&mut t, &mut tally, w, rig, &layers, prefix)?;
    let jsons: Vec<&Json> = answers.iter().map(|a| &a.json).collect();
    let mut metrics = served_counters(w, rig, prefix, &jsons, layers.image.len())?;
    let every = w.append_every.unwrap_or(Duration::from_secs(1));
    let late_ms = replay_appends(&mut t, &mut tally, rig, &layers, every)?;

    // ---- the numbers -------------------------------------------------------
    let http_ms = t.ms("client.http");
    let innermost = match w.backend {
        "cluster" => "net.cluster_kbest",
        "cached" => "core.cached_kbest",
        _ => "core.kbest",
    };
    let whole_p50 = p50(&t.ms(whole_name));
    let (opens, firsts) = (t.ms("core.open"), t.ms("core.first_kbest"));
    let restarts: Vec<f64> = opens.iter().zip(&firsts).map(|(o, f)| o + f).collect();
    let stage_ms = |name: &str| t.ms(name).first().copied().unwrap_or(f64::NAN);
    let subsequences = metrics
        .iter()
        .find(|(name, _)| *name == "grouping.subsequences")
        .map_or(f64::NAN, |(_, v)| *v);
    metrics.extend([
        ("client.samples", http_ms.len() as f64),
        ("client.req_p99_ms", percentile(&http_ms, 99.0)),
        ("client.req_max_ms", percentile(&http_ms, 100.0)),
        ("client.append_late_p95_ms", percentile(&late_ms, 95.0)),
        (
            "client.trace_overhead_ratio",
            p50(&http_ms) / p50(&untraced_ms),
        ),
        ("server.http_floor_p50_ms", p50(&t.ms("client.health"))),
        ("server.handle_p50_ms", p50(&t.ms("server.handle"))),
        (
            "server.socket_self_p50_ms",
            p50(&t.self_ms("client.http", "server.handle")),
        ),
        (
            "server.handle_self_p50_ms",
            p50(&t.self_ms("server.handle", innermost)),
        ),
        ("core.kbest_p50_ms", p50(&t.ms("core.kbest"))),
        ("core.kbest_p95_ms", percentile(&t.ms("core.kbest"), 95.0)),
        (
            "core.sharded_kbest_p50_ms",
            p50(&t.ms("core.sharded_kbest")),
        ),
        (
            "core.sharded_over_engine_ratio",
            p50(&t.ms("core.sharded_kbest")) / whole_p50,
        ),
        ("core.cached_hit_us", p50(&t.ms("core.cached_kbest")) * 1e3),
        ("core.append_p50_ms", p50(&t.ms("core.append"))),
        ("core.open_ms", p50(&opens)),
        ("core.first_kbest_cold_ms", p50(&firsts)),
        ("core.restart_first_answer_ms", p50(&restarts)),
        ("grouping.build_ms", stage_ms("grouping.build")),
        (
            "grouping.build_subseq_per_s",
            subsequences / (stage_ms("grouping.build") / 1e3),
        ),
        ("grouping.extend_ms", median(&t.ms("grouping.extend"))),
        ("grouping.save_v2_ms", stage_ms("grouping.save_v2")),
        ("storage.open_ms", stage_ms("storage.open")),
        (
            "storage.image_mb",
            layers.image.len() as f64 / (1024.0 * 1024.0),
        ),
        ("net.remote_kbest_p50_ms", p50(&t.ms("net.remote_kbest"))),
        (
            "net.wire_self_p50_ms",
            p50(&t.self_ms("net.remote_kbest", whole_name)),
        ),
        ("net.cluster_kbest_p50_ms", p50(&t.ms("net.cluster_kbest"))),
        (
            "net.cluster_over_engine_ratio",
            p50(&t.ms("net.cluster_kbest")) / whole_p50,
        ),
        ("net.connect_ms", stage_ms("net.connect")),
        ("tseries.gen_ms", stage_ms("tseries.gen")),
    ]);
    metrics.extend(micro::distance(seed));
    metrics.extend(micro::api(seed));
    let typical = Request::get(&targets[0]).map_err(|e| e.to_string())?;
    metrics.extend(micro::server(&targets[0], &rig.app.handle(&typical)));
    metrics.extend(micro::net(prefix[0].values(dataset)));

    t.write_to(trace_out)
        .map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    let notes = vec![format!(
        "{} traced requests, spans in {}",
        prefix.len(),
        trace_out.display()
    )];
    Ok(tally.into_outcome(metrics, notes))
}
