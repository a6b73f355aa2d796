//! The shared conformance suite for the [`SimilaritySearch`] trait: every
//! backend in the workspace — ONEX itself, the UCR Suite, the
//! FRM/ST-index, EBSM and SPRING — is run through the same contract:
//!
//! 1. **Self-match**: a query cut verbatim from a stored series comes
//!    back as the best match at distance ≈ 0 (each backend under its own
//!    metric — raw DTW, z-norm DTW, raw ED, subsequence DTW — all of
//!    which are zero on an identical window).
//! 2. **k ordering**: `k_best` returns at most `k` matches, sorted
//!    best-first, all referring to distinct windows.
//! 3. **Stats monotonicity**: [`onex::BackendStats::work`] never
//!    decreases as `k` grows — a backend cannot claim less effort for a
//!    larger answer — wherever the search runs under a private bound;
//!    a fan-out whose shards race on a shared bound must instead give
//!    answers that agree across `k`.
//! 4. **Typed failures**: `k == 0`, empty and non-finite queries are
//!    `Err(OnexError::InvalidQuery)`, never panics.
//!
//! The scale-out engines — [`ShardedEngine`] fanning the query across
//! per-shard ONEX bases, [`CachedSearch`] decorating the single engine,
//! and the cross-process [`ClusterEngine`] fanning out over loopback
//! shard servers — run through the identical contract, plus a
//! cross-backend agreement check: the sharded and cluster top-k must
//! equal the single-engine top-k on the same dataset, and — for a query
//! longer than every indexed length, so the whole cascade runs across
//! lengths — every ONEX-backed engine's top-k must equal the exhaustive
//! scan's.

use std::net::TcpListener;
use std::sync::Arc;

use onex::baselines::{EbsmBackend, FrmBackend, SpringBackend, UcrSuiteBackend};
use onex::engine::backends::{CachedSearch, OnexBackend, ShardedEngine};
use onex::engine::fanout::partition;
use onex::engine::{exhaustive, LengthSelection, Onex, QueryOptions};
use onex::grouping::BaseConfig;
use onex::net::{AcceptOptions, ClusterEngine, RemoteBackend, RemoteConfig, ShardServer};
use onex::tseries::{Dataset, TimeSeries};
use onex::{BackendMatch, OnexError, SimilaritySearch};

const QLEN: usize = 16;

/// Start one binary shard server over `ds` on an ephemeral loopback
/// port (detached for the process lifetime — one worker is enough, the
/// cluster keeps one connection per shard).
fn spawn_shard(ds: Dataset, config: BaseConfig) -> String {
    let (engine, _) = Onex::build(ds, config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = ShardServer::new(Arc::new(engine));
    std::thread::spawn(move || {
        let _ = server.serve_with(
            listener,
            &AcceptOptions {
                workers: 1,
                queue: 4,
                ..AcceptOptions::default()
            },
        );
    });
    addr
}

/// Partition `ds` round-robin (the identity [`ClusterEngine`] assumes),
/// start one shard server per part, and connect a cluster over the fleet.
fn spawn_cluster(ds: &Dataset, config: &BaseConfig, n: usize) -> ClusterEngine {
    let addrs: Vec<String> = partition(ds, n)
        .into_iter()
        .map(|part| spawn_shard(part, config.clone()))
        .collect();
    ClusterEngine::connect(&addrs, RemoteConfig::default()).expect("loopback shards are reachable")
}

/// An answer as comparable data: each window with the bits of its
/// distance.
fn windows_and_bits(matches: &[BackendMatch]) -> Vec<((u32, usize, usize), u64)> {
    matches
        .iter()
        .map(|m| ((m.series, m.start, m.len), m.distance.to_bits()))
        .collect()
}

fn collection() -> Dataset {
    // Six diverse, non-constant series so every metric (including
    // z-normalised DTW) is well-conditioned.
    let series: Vec<TimeSeries> = (0..6)
        .map(|i| {
            let phase = i as f64 * 0.9;
            let values: Vec<f64> = (0..96)
                .map(|t| {
                    let x = t as f64;
                    (x * 0.21 + phase).sin() * 2.0
                        + (x * 0.043 + phase * 0.5).cos()
                        + (x * 1.31 + phase).sin() * 0.25
                })
                .collect();
            TimeSeries::new(format!("series-{i}"), values)
        })
        .collect();
    Dataset::from_series(series).unwrap()
}

/// Every backend under test, boxed behind the trait — the four baseline
/// engines, ONEX itself, and the three scale-out engines (in-process
/// shards, the caching decorator, and the cross-process cluster over
/// loopback shard servers) built over the same collection.
fn backends(ds: &Dataset) -> Vec<Box<dyn SimilaritySearch>> {
    let (engine, _) = Onex::build(ds.clone(), BaseConfig::new(0.8, QLEN, QLEN)).unwrap();
    let (cache_engine, _) = Onex::build(ds.clone(), BaseConfig::new(0.8, QLEN, QLEN)).unwrap();
    let (sharded, _) = ShardedEngine::build(ds, BaseConfig::new(0.8, QLEN, QLEN), 3).unwrap();
    vec![
        Box::new(OnexBackend::new(Arc::new(engine))),
        Box::new(UcrSuiteBackend::from_dataset(ds)),
        Box::new(FrmBackend::<4>::from_dataset(ds, 8).unwrap()),
        Box::new(
            EbsmBackend::from_dataset(ds, onex::baselines::embedding::EbsmConfig::default())
                .unwrap(),
        ),
        Box::new(SpringBackend::from_dataset(ds)),
        Box::new(sharded),
        Box::new(CachedSearch::new(OnexBackend::new(Arc::new(cache_engine)), 64).unwrap()),
        Box::new(spawn_cluster(ds, &BaseConfig::new(0.8, QLEN, QLEN), 2)),
    ]
}

#[test]
fn self_match_at_distance_zero() {
    let ds = collection();
    let query = ds
        .series(3)
        .unwrap()
        .subsequence(40, QLEN)
        .unwrap()
        .to_vec();
    for b in backends(&ds) {
        let out = b.best_match(&query).unwrap();
        let best = out
            .best()
            .unwrap_or_else(|| panic!("{}: no match for a stored window", b.name()));
        assert!(
            best.distance < 1e-6,
            "{}: verbatim window at distance {}",
            b.name(),
            best.distance
        );
        // The match covers the queried site (multi-length backends may
        // trim or extend the window slightly).
        if !b.capabilities().multi_length {
            assert_eq!(best.len, QLEN, "{}", b.name());
        }
    }
}

#[test]
fn k_best_is_sorted_and_distinct() {
    let ds = collection();
    let query = ds
        .series(1)
        .unwrap()
        .subsequence(22, QLEN)
        .unwrap()
        .to_vec();
    for b in backends(&ds) {
        let k = 3;
        let out = b.k_best(&query, k).unwrap();
        assert!(
            !out.matches.is_empty() && out.matches.len() <= k,
            "{}: {} matches",
            b.name(),
            out.matches.len()
        );
        for w in out.matches.windows(2) {
            assert!(
                w[0].distance <= w[1].distance + 1e-12,
                "{}: unsorted answers",
                b.name()
            );
        }
        let distinct: std::collections::HashSet<(u32, usize, usize)> = out
            .matches
            .iter()
            .map(|m| (m.series, m.start, m.len))
            .collect();
        assert_eq!(
            distinct.len(),
            out.matches.len(),
            "{}: duplicate windows",
            b.name()
        );
        // one_match_per_series backends must honour their declaration.
        if b.capabilities().one_match_per_series {
            let per_series: std::collections::HashSet<u32> =
                out.matches.iter().map(|m| m.series).collect();
            assert_eq!(per_series.len(), out.matches.len(), "{}", b.name());
        }
    }
}

#[test]
fn stats_work_is_monotone_in_k() {
    let ds = collection();
    let query = ds
        .series(4)
        .unwrap()
        .subsequence(10, QLEN)
        .unwrap()
        .to_vec();
    let config = BaseConfig::new(0.8, QLEN, QLEN);
    // Under a private bound a search is a deterministic function of
    // (query, k) and a larger k only ever loosens it, so work cannot
    // fall: the single engine, the baselines, the cache over it, and a
    // fan-out whose shards do not share their bound.
    let (private_sharded, _) = ShardedEngine::build(&ds, config.clone(), 3).unwrap();
    let (raced, mut private): (Vec<_>, Vec<_>) = backends(&ds)
        .into_iter()
        .partition(|b| matches!(b.name(), "sharded" | "cluster"));
    private.push(Box::new(private_sharded.sharing_bound(false)));
    private.push(Box::new(spawn_cluster(&ds, &config, 2).gossip(false)));
    assert_eq!(private.len(), 8, "six private backends and two fan-outs");
    for b in private {
        let [w1, w3, w5] = [1, 3, 5].map(|k| b.k_best(&query, k).unwrap().stats.work());
        assert!(w1 > 0, "{}: no work reported", b.name());
        assert!(
            w1 <= w3 && w3 <= w5,
            "{}: work not monotone in k ({w1}, {w3}, {w5})",
            b.name()
        );
    }
    // A fan-out under a shared bound prunes against whatever another
    // shard happened to find first, so its work depends on the schedule
    // and is ordered by nothing. What does not depend on it is the
    // answer: the best k are a prefix of the best k + 2.
    assert_eq!(raced.len(), 2, "the sharded engine and the cluster");
    for b in raced {
        let [a1, a3, a5] = [1, 3, 5].map(|k| b.k_best(&query, k).unwrap());
        for out in [&a1, &a3, &a5] {
            assert!(out.stats.work() > 0, "{}: no work reported", b.name());
        }
        assert_eq!((a1.matches.len(), a3.matches.len()), (1, 3), "{}", b.name());
        for (short, long) in [(&a1, &a3), (&a3, &a5)] {
            for (s, l) in short.matches.iter().zip(&long.matches) {
                assert_eq!(
                    (s.series, s.start, s.len, s.distance.to_bits()),
                    (l.series, l.start, l.len, l.distance.to_bits()),
                    "{}: the best {} are not a prefix of the best {}",
                    b.name(),
                    short.matches.len(),
                    long.matches.len()
                );
            }
        }
    }
}

#[test]
fn malformed_queries_are_typed_errors() {
    let ds = collection();
    let query = ds.series(0).unwrap().subsequence(0, QLEN).unwrap().to_vec();
    for b in backends(&ds) {
        assert!(
            matches!(b.k_best(&[], 1), Err(OnexError::InvalidQuery(_))),
            "{}: empty query must be InvalidQuery",
            b.name()
        );
        assert!(
            matches!(b.k_best(&query, 0), Err(OnexError::InvalidQuery(_))),
            "{}: k = 0 must be InvalidQuery",
            b.name()
        );
        let mut bad = query.clone();
        bad[3] = f64::INFINITY;
        assert!(
            matches!(b.k_best(&bad, 1), Err(OnexError::InvalidQuery(_))),
            "{}: non-finite query must be InvalidQuery",
            b.name()
        );
    }
}

#[test]
fn capabilities_match_reported_behaviour() {
    let ds = collection();
    let query = ds
        .series(2)
        .unwrap()
        .subsequence(30, QLEN)
        .unwrap()
        .to_vec();
    for b in backends(&ds) {
        let caps = b.capabilities();
        let out = b.k_best(&query, 4).unwrap();
        if !caps.multi_length {
            assert!(
                out.matches.iter().all(|m| m.len == QLEN),
                "{}: fixed-length backend returned a different length",
                b.name()
            );
        }
        // Names are stable identifiers the server routes on.
        assert!(
            ["onex", "ucrsuite", "frm", "ebsm", "spring", "sharded", "cached", "cluster"]
                .contains(&b.name()),
            "{}: unexpected name",
            b.name()
        );
        // Only the caching decorator declares itself cached.
        assert_eq!(caps.cached, b.name() == "cached", "{}", b.name());
    }
}

// ---------------------------------------------------------------------
// Cross-backend agreement: scale-out must not change answers.
// ---------------------------------------------------------------------

/// Exact configuration (Seed policy) so both the single engine and every
/// shard provably return the best indexed subsequences — under it the
/// shard-merged top-k must equal the single-engine top-k bit for bit.
fn exact_config() -> BaseConfig {
    BaseConfig {
        policy: onex::grouping::RepresentativePolicy::Seed,
        ..BaseConfig::new(0.8, QLEN, QLEN)
    }
}

#[test]
fn sharded_top_k_equals_single_engine_top_k() {
    let ds = collection();
    let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let single = OnexBackend::new(Arc::new(engine));
    for shards in [2, 3, 5] {
        let (sharded, _) = ShardedEngine::build(&ds, exact_config(), shards).unwrap();
        for (sid, start) in [(0u32, 12usize), (2, 44), (5, 70)] {
            let query = ds
                .series(sid)
                .unwrap()
                .subsequence(start, QLEN)
                .unwrap()
                .to_vec();
            let a = single.k_best(&query, 6).unwrap();
            let b = sharded.k_best(&query, 6).unwrap();
            assert_eq!(
                windows_and_bits(&a.matches),
                windows_and_bits(&b.matches),
                "{shards} shards, query ({sid}, {start})"
            );
        }
    }
}

/// The cross-length case every ONEX-backed engine inherits: the base
/// indexes lengths `QLEN−2 ..= QLEN+2`, the query is `QLEN+5` points long,
/// so under `Nearest(3)` all three searched lengths differ from the
/// query's and L0, LB_Kim, LB_Keogh and the phase-1 ranking all run on the
/// cross-length envelope — locally, per shard, behind the cache, and
/// behind the wire. Seed policy: the answer must be the exhaustive scan's.
#[test]
fn cross_length_top_k_equals_the_exhaustive_scan() {
    let ds = collection();
    let config = BaseConfig {
        policy: onex::grouping::RepresentativePolicy::Seed,
        ..BaseConfig::new(0.8, QLEN - 2, QLEN + 2)
    };
    let opts = QueryOptions::default().lengths(LengthSelection::Nearest(3));
    let query = ds
        .series(3)
        .unwrap()
        .subsequence(31, QLEN + 5)
        .unwrap()
        .to_vec();
    let k = 5;
    let lengths = [QLEN + 2, QLEN + 1, QLEN];
    let truth = exhaustive::scan_k(&ds, &query, &lengths, 1, &opts, k, true).unwrap();
    assert_eq!(truth.len(), k);

    let engine = |ds: &Dataset| Arc::new(Onex::build(ds.clone(), config.clone()).unwrap().0);
    let (sharded, _) = ShardedEngine::build(&ds, config.clone(), 3).unwrap();
    let engines: Vec<Box<dyn SimilaritySearch>> = vec![
        Box::new(OnexBackend::new(engine(&ds)).with_options(opts.clone())),
        Box::new(sharded.with_options(opts.clone())),
        Box::new(
            CachedSearch::new(OnexBackend::new(engine(&ds)).with_options(opts.clone()), 8).unwrap(),
        ),
        Box::new(
            RemoteBackend::new(
                spawn_shard(ds.clone(), config.clone()),
                RemoteConfig::default(),
            )
            .with_options(opts.clone()),
        ),
        Box::new(spawn_cluster(&ds, &config, 2).with_options(opts.clone())),
    ];
    let want: Vec<_> = truth
        .iter()
        .map(|t| {
            let window = (
                t.subseq.series,
                t.subseq.start as usize,
                t.subseq.len as usize,
            );
            (window, t.distance.to_bits())
        })
        .collect();
    for b in engines {
        let out = b.k_best(&query, k).unwrap();
        assert_eq!(windows_and_bits(&out.matches), want, "{}", b.name());
    }
}

/// Property: on random collections, random queries and every shard
/// count, the shared-bound sharded top-k — in-process *and* across
/// processes, via a [`ClusterEngine`] over loopback shard servers —
/// equals the single-engine top-k, window for window and bit for bit
/// (Seed policy; ties go to the smaller window everywhere). This is the
/// load-bearing exactness claim of the query-global bound: a bound
/// published by one shard prunes the others *without ever pruning a
/// true answer*, whether it travels through an atomic or over a socket.
mod shared_bound_properties {
    use super::*;
    use onex::tseries::gen::{random_walk_dataset, SyntheticConfig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn shared_bound_sharded_top_k_is_exact(
            seed in 0u64..10_000,
            sid in 0u32..8,
            start in 0usize..(96 - QLEN),
            k in 1usize..7,
        ) {
            let ds = random_walk_dataset(SyntheticConfig {
                series: 8,
                len: 96,
                seed,
            });
            let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
            let single = OnexBackend::new(Arc::new(engine));
            let query = ds
                .series(sid)
                .unwrap()
                .subsequence(start, QLEN)
                .unwrap()
                .to_vec();
            let reference = windows_and_bits(&single.k_best(&query, k).unwrap().matches);
            for shards in [2usize, 3, 5] {
                let (sharded, _) = ShardedEngine::build(&ds, exact_config(), shards).unwrap();
                let merged = sharded.k_best(&query, k).unwrap();
                prop_assert_eq!(windows_and_bits(&merged.matches), reference.clone());
                // The same partition behind real sockets, with the bound
                // travelling by gossip instead of a shared atomic.
                let cluster = spawn_cluster(&ds, &exact_config(), shards);
                let remote = cluster.k_best(&query, k).unwrap();
                prop_assert_eq!(windows_and_bits(&remote.matches), reference.clone());
            }
        }
    }
}

/// The bound-isolation hammer, over either partitioned engine (3 slots):
/// concurrent queries must never observe each other's bounds. Every query
/// gets a fresh `∞`-seeded `SharedBound`, so a near-zero bound established
/// by a self-match query cannot prune away the (much more distant) true
/// answers of a far query running at the same time — whether the bound
/// travels through a shared atomic or by gossip. A leak would surface as
/// missing or wrong matches on the far queries. The engine's worker pool
/// must also stay fixed-size throughout — no per-query thread spawns.
fn hammer_never_cross_contaminates_bounds(
    engine: &(dyn SimilaritySearch + Sync),
    pool_stats: &(dyn Fn() -> onex::engine::PoolStats + Sync),
) {
    const THREADS: usize = 8;
    const ROUNDS: usize = 6;

    let ds = collection();
    let (single, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let single = OnexBackend::new(Arc::new(single));

    // Interleave "near" queries (stored windows — the k-th best bound
    // collapses towards 0 almost immediately) with "far" queries (offset
    // far outside the data — the bound stays large). If
    // any bound state leaked between concurrent queries, the near
    // queries' tight bounds would prune the far queries' entire
    // candidate space.
    let mut queries: Vec<Vec<f64>> = Vec::new();
    for (i, &(sid, start)) in [(0u32, 5usize), (2, 30), (4, 55), (1, 12), (3, 70), (5, 40)]
        .iter()
        .enumerate()
    {
        let mut q = ds
            .series(sid)
            .unwrap()
            .subsequence(start, QLEN)
            .unwrap()
            .to_vec();
        if i % 2 == 1 {
            for (j, v) in q.iter_mut().enumerate() {
                *v += 6.0 + (j as f64) * 0.1;
            }
        }
        queries.push(q);
    }
    let reference: Vec<_> = queries
        .iter()
        .map(|q| windows_and_bits(&single.k_best(q, 4).unwrap().matches))
        .collect();

    let before = pool_stats();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let queries = &queries;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let qi = (t + round) % queries.len();
                    let out = engine.k_best(&queries[qi], 4).unwrap();
                    assert_eq!(
                        windows_and_bits(&out.matches),
                        reference[qi],
                        "thread {t} round {round}: a leaked bound changed the answer"
                    );
                }
            });
        }
    });
    let pool = pool_stats();
    assert_eq!(
        pool.threads_spawned, before.threads_spawned,
        "the hammer must not have spawned query threads"
    );
    assert_eq!(pool.threads_spawned, 3, "one persistent worker per slot");
    assert!(
        pool.jobs_executed >= before.jobs_executed + THREADS * ROUNDS * 3,
        "every query fans out to every slot"
    );
}

#[test]
fn concurrent_sharded_queries_never_cross_contaminate_bounds() {
    let (sharded, _) = ShardedEngine::build(&collection(), exact_config(), 3).unwrap();
    hammer_never_cross_contaminates_bounds(&sharded, &|| sharded.pool_stats());
}

#[test]
fn concurrent_cluster_queries_never_cross_contaminate_bounds() {
    let cluster = spawn_cluster(&collection(), &exact_config(), 3);
    hammer_never_cross_contaminates_bounds(&cluster, &|| cluster.pool_stats());
}

#[test]
fn cached_replays_are_bit_identical_to_the_first_answer() {
    let ds = collection();
    let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let cached = CachedSearch::new(OnexBackend::new(Arc::new(engine)), 16).unwrap();
    let query = ds
        .series(4)
        .unwrap()
        .subsequence(33, QLEN)
        .unwrap()
        .to_vec();
    let first = cached.k_best(&query, 4).unwrap();
    for _ in 0..3 {
        assert_eq!(cached.k_best(&query, 4).unwrap(), first);
    }
    let stats = cached.cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 1));
}
