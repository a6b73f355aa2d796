//! The demo's client–server architecture: one engine, many concurrent
//! analysts. Queries take `&self`, so the engine must answer identically
//! and without data races when shared across threads.

use std::sync::Arc;

use onex::engine::{Onex, QueryOptions, SeasonalOptions};
use onex::grouping::BaseConfig;
use onex::tseries::gen::{matters_collection, Indicator, MattersConfig};

fn engine() -> Arc<Onex> {
    let ds = matters_collection(&MattersConfig {
        indicators: vec![Indicator::GrowthRate],
        ..MattersConfig::default()
    });
    let (e, _) = Onex::build(ds, BaseConfig::new(1.0, 6, 10)).unwrap();
    Arc::new(e)
}

#[test]
fn concurrent_queries_agree_with_serial_answers() {
    let engine = engine();
    let states = ["MA", "NY", "CA", "TX", "OH", "GA", "WA", "FL"];
    // Serial reference answers.
    let mut reference = Vec::new();
    for s in &states {
        let name = format!("{s}-GrowthRate");
        let q = engine
            .dataset()
            .by_name(&name)
            .unwrap()
            .subsequence(4, 8)
            .unwrap()
            .to_vec();
        let opts = QueryOptions::default().excluding_series(engine.dataset().id_of(&name));
        let (m, _) = engine.best_match(&q, &opts).unwrap();
        reference.push(m.unwrap());
    }
    // The same queries, four threads, several rounds each.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let engine = Arc::clone(&engine);
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..3 {
                    let idx = (t + round * 2) % states.len();
                    let name = format!("{}-GrowthRate", states[idx]);
                    let q = engine
                        .dataset()
                        .by_name(&name)
                        .unwrap()
                        .subsequence(4, 8)
                        .unwrap()
                        .to_vec();
                    let opts =
                        QueryOptions::default().excluding_series(engine.dataset().id_of(&name));
                    let (m, _) = engine.best_match(&q, &opts).unwrap();
                    let m = m.unwrap();
                    assert_eq!(m.subseq, reference[idx].subseq, "thread {t} round {round}");
                    assert!((m.distance - reference[idx].distance).abs() < 1e-12);
                }
            });
        }
    });
    // Lifetime stats observed every query without losing updates:
    // 8 serial + 4 threads × 3 rounds = 20 best_match calls.
    let total = engine.lifetime_stats();
    assert!(total.groups_examined >= 20, "{total:?}");
}

#[test]
fn mixed_operation_kinds_run_concurrently() {
    let engine = engine();
    std::thread::scope(|scope| {
        let e1 = Arc::clone(&engine);
        scope.spawn(move || {
            for _ in 0..5 {
                let q = e1
                    .dataset()
                    .by_name("MN-GrowthRate")
                    .unwrap()
                    .subsequence(0, 8)
                    .unwrap()
                    .to_vec();
                let (m, _) = e1.k_best(&q, 3, &QueryOptions::default()).unwrap();
                assert_eq!(m.len(), 3);
            }
        });
        let e2 = Arc::clone(&engine);
        scope.spawn(move || {
            for _ in 0..5 {
                let patterns = e2
                    .seasonal("IA-GrowthRate", &SeasonalOptions::default())
                    .unwrap();
                // Annual growth data may or may not have recurrences;
                // the call just must not race or panic.
                let _ = patterns.len();
            }
        });
        let e3 = Arc::clone(&engine);
        scope.spawn(move || {
            for seed in 0..5 {
                let rec = e3.recommend_threshold(8, 500, seed).unwrap();
                assert!(rec.suggested > 0.0);
            }
        });
    });
}

// ---------------------------------------------------------------------
// The baseline indexes must be shareable across query threads too.
// ---------------------------------------------------------------------

#[test]
fn frm_and_ebsm_answer_concurrently() {
    use onex::baselines::embedding::{EbsmConfig, EbsmIndex};
    use onex::baselines::frm::{StConfig, StIndex};

    let series: Vec<Vec<f64>> = (0..8)
        .map(|p| {
            (0..120)
                .map(|i| ((i + 13 * p) as f64 * 0.23).sin() * 2.0)
                .collect()
        })
        .collect();
    let frm = StIndex::<4>::build(
        series.clone(),
        StConfig {
            window: 16,
            subtrail_max: 16,
            cost_scale: 1.0,
        },
    );
    let ebsm = EbsmIndex::build(
        series.clone(),
        EbsmConfig {
            references: 4,
            ref_len: 16,
            candidates: 8,
            refine_factor: 2,
            seed: 3,
        },
    );
    std::thread::scope(|scope| {
        for t in 0..4 {
            let frm = &frm;
            let ebsm = &ebsm;
            let series = &series;
            scope.spawn(move || {
                let query = series[t % series.len()][10..26].to_vec();
                let (fh, _) = frm.best_match(&query).expect("non-empty index");
                assert!(fh.dist < 1e-9, "FRM is exact: verbatim window must win");
                // EBSM is approximate — a verbatim window may rank below
                // the candidate budget when the database embedding sees
                // more context than the query embedding — but it must
                // return a faithful finite answer under concurrent use.
                let (eh, _) = ebsm.best_match(&query).expect("non-empty index");
                assert!(eh.dist.is_finite());
            });
        }
    });
}

// ---------------------------------------------------------------------
// Concurrency conformance: every SimilaritySearch backend — the four
// baselines, ONEX, and the scale-out engines — must answer a hammered
// shared instance identically from every thread, with race-free stats.
// ---------------------------------------------------------------------

#[test]
fn every_backend_answers_identically_under_thread_hammer() {
    use onex::baselines::{EbsmBackend, FrmBackend, SpringBackend, UcrSuiteBackend};
    use onex::engine::backends::{CachedSearch, OnexBackend, ShardedEngine};
    use onex::SimilaritySearch;

    const QLEN: usize = 16;
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;

    // Six diverse series so every metric is well-conditioned (the same
    // shape the conformance suite uses).
    let series: Vec<onex::tseries::TimeSeries> = (0..6)
        .map(|i| {
            let phase = i as f64 * 0.9;
            let values: Vec<f64> = (0..96)
                .map(|t| {
                    let x = t as f64;
                    (x * 0.21 + phase).sin() * 2.0 + (x * 0.043 + phase * 0.5).cos()
                })
                .collect();
            onex::tseries::TimeSeries::new(format!("series-{i}"), values)
        })
        .collect();
    let ds = onex::tseries::Dataset::from_series(series).unwrap();
    let cfg = || BaseConfig::new(0.8, QLEN, QLEN);

    let (plain_engine, _) = onex::engine::Onex::build(ds.clone(), cfg()).unwrap();
    let plain_engine = Arc::new(plain_engine);
    let (cache_engine, _) = onex::engine::Onex::build(ds.clone(), cfg()).unwrap();
    let cached = CachedSearch::new(OnexBackend::new(Arc::new(cache_engine)), 64).unwrap();
    // Independent per-shard bounds: this test demands *stats* determinism
    // per query, which cross-shard bound sharing deliberately trades away
    // (work depends on how fast shards tighten each other). The
    // sharing-on hammer lives in backend_conformance.rs and asserts what
    // sharing does guarantee — identical matches.
    let (sharded, _) = ShardedEngine::build(&ds, cfg(), 3).unwrap();
    let sharded = sharded.sharing_bound(false);

    let backends: Vec<Box<dyn SimilaritySearch + Send + Sync>> = vec![
        Box::new(OnexBackend::new(Arc::clone(&plain_engine))),
        Box::new(UcrSuiteBackend::from_dataset(&ds)),
        Box::new(FrmBackend::<4>::from_dataset(&ds, 8).unwrap()),
        Box::new(
            EbsmBackend::from_dataset(&ds, onex::baselines::embedding::EbsmConfig::default())
                .unwrap(),
        ),
        Box::new(SpringBackend::from_dataset(&ds)),
        Box::new(sharded),
    ];

    let queries: Vec<Vec<f64>> = [(0u32, 10usize), (2, 40), (4, 71)]
        .iter()
        .map(|&(sid, start)| {
            ds.series(sid)
                .unwrap()
                .subsequence(start, QLEN)
                .unwrap()
                .to_vec()
        })
        .collect();

    for backend in &backends {
        // Serial reference answers (and per-call stats) first.
        let reference: Vec<_> = queries
            .iter()
            .map(|q| backend.k_best(q, 4).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let backend = &backend;
                let queries = &queries;
                let reference = &reference;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        let qi = (t + round) % queries.len();
                        let out = backend.k_best(&queries[qi], 4).unwrap();
                        assert_eq!(
                            out.matches,
                            reference[qi].matches,
                            "{}: thread {t} round {round} diverged",
                            backend.name()
                        );
                        assert_eq!(
                            out.stats,
                            reference[qi].stats,
                            "{}: stats must be per-query deterministic",
                            backend.name()
                        );
                    }
                });
            }
        });
    }

    // The ONEX engine's lifetime counters observed every one of the
    // (serial + hammered) queries without losing an update.
    let per_query: usize = queries
        .iter()
        .map(|q| {
            let (_, s) = plain_engine
                .k_best(q, 4, &onex::engine::QueryOptions::default())
                .unwrap();
            s.groups_examined
        })
        .sum();
    assert!(per_query > 0);
    let total = plain_engine.lifetime_stats().groups_examined;
    // Every query ran the same number of times through this engine: once
    // in the serial reference pass, once per thread in the hammer
    // (ROUNDS == queries.len(), so `(t + round) % len` covers each query
    // exactly once per thread), and once in the measurement just above.
    assert_eq!(ROUNDS, queries.len(), "hammer covers queries uniformly");
    let calls_per_query = 1 + THREADS + 1;
    assert_eq!(
        total,
        per_query * calls_per_query,
        "lifetime counters lost updates under concurrency"
    );

    // The cache's counters are exact under the same hammer: warmed
    // serially (one miss per query), every concurrent call is a hit.
    let warm: Vec<_> = queries
        .iter()
        .map(|q| cached.k_best(q, 4).unwrap())
        .collect();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cached = &cached;
            let queries = &queries;
            let warm = &warm;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let qi = (t + round) % queries.len();
                    let out = cached.k_best(&queries[qi], 4).unwrap();
                    assert_eq!(out, warm[qi], "cached: thread {t} round {round}");
                }
            });
        }
    });
    let stats = cached.cache_stats();
    assert_eq!(stats.misses, queries.len(), "one miss per distinct query");
    assert_eq!(stats.hits, THREADS * ROUNDS, "every hammered call hit");
    assert_eq!(stats.entries, queries.len());
}

#[test]
fn spring_monitors_run_per_thread() {
    use onex::baselines::spring::SpringMonitor;

    let pattern = [0.0, 1.0, 2.0, 1.0, 0.0];
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let pattern = pattern.to_vec();
            std::thread::spawn(move || {
                let mut mon = SpringMonitor::new(&pattern, 0.5).expect("valid pattern");
                let mut stream = vec![9.0; 5 + t];
                stream.extend_from_slice(&pattern);
                stream.extend(vec![9.0; 4]);
                let mut found = Vec::new();
                for &x in &stream {
                    found.extend(mon.push(x));
                }
                found.extend(mon.finish());
                assert_eq!(found.len(), 1);
                assert_eq!(found[0].start, 5 + t);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panic");
    }
}
