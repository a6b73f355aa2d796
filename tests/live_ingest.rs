//! Live-ingest linearisability: concurrent readers hammering `k_best`
//! while a writer appends series must always observe *some* published
//! epoch's exact answer — never a mixture of two epochs, never a block,
//! never a panic. The guarantee is checked across the plain engine
//! backend, the caching decorator and the sharded engine, and the
//! failure leg checks that a rejected append leaves every backend
//! answering from the prior epoch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use onex::api::SimilaritySearch;
use onex::engine::backends::OnexBackend;
use onex::engine::{CachedSearch, Onex, ShardedEngine};
use onex::grouping::{BaseConfig, RepresentativePolicy};
use onex::tseries::gen::{random_walk_dataset, SyntheticConfig};
use onex::tseries::{Dataset, TimeSeries};

const LEN: usize = 16;
const APPENDS: usize = 6;
const K: usize = 3;

fn exact_config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.5, LEN, LEN)
    }
}

fn base_dataset() -> Dataset {
    random_walk_dataset(SyntheticConfig {
        series: 10,
        len: 64,
        seed: 0x1A6E57,
    })
}

/// The fixed query: a perturbed window of base series 0, so every
/// distance in every oracle is distinct (no ties to blur epochs).
fn query(ds: &Dataset) -> Vec<f64> {
    let mut q = ds.series(0).unwrap().subsequence(10, LEN).unwrap().to_vec();
    for (i, v) in q.iter_mut().enumerate() {
        *v += 0.05 * ((i as f64) * 1.7).sin();
    }
    q
}

/// Appended series `i`: a strictly-closer near-clone of the query, so
/// each published epoch has a *different* top-k — an answer therefore
/// identifies exactly one epoch, and a mixed-epoch answer matches none.
fn ingest_series(q: &[f64], i: usize) -> TimeSeries {
    let eps = 0.04 / (1 << i) as f64;
    let values = q
        .iter()
        .enumerate()
        .map(|(j, v)| v + eps * ((j as f64) * 2.3).cos())
        .collect::<Vec<_>>();
    TimeSeries::new(format!("ingest-{i}"), values)
}

/// One epoch's ground truth, from a fresh batch build over the prefix —
/// incremental extension is bit-identical to batch construction (the
/// grouping property tests prove it), so this is the pinnable oracle.
fn oracle_answer(prefix: &Dataset, q: &[f64]) -> Vec<(u32, usize, usize, f64)> {
    let (engine, _) = Onex::build(prefix.clone(), exact_config()).unwrap();
    let out = OnexBackend::new(Arc::new(engine)).k_best(q, K).unwrap();
    out.matches
        .iter()
        .map(|m| (m.series, m.start, m.len, m.distance))
        .collect()
}

/// Which oracle epoch `answer` reproduces, if any: windows must match
/// exactly and distances to within float-merge tolerance.
fn epoch_of(
    oracles: &[Vec<(u32, usize, usize, f64)>],
    answer: &[(u32, usize, usize, f64)],
) -> Option<usize> {
    oracles.iter().position(|o| {
        o.len() == answer.len()
            && o.iter()
                .zip(answer)
                .all(|(a, b)| (a.0, a.1, a.2) == (b.0, b.1, b.2) && (a.3 - b.3).abs() < 1e-9)
    })
}

fn flatten(out: &onex::api::SearchOutcome) -> Vec<(u32, usize, usize, f64)> {
    out.matches
        .iter()
        .map(|m| (m.series, m.start, m.len, m.distance))
        .collect()
}

#[test]
fn hammered_readers_always_observe_a_single_pinnable_epoch() {
    let ds = base_dataset();
    let q = query(&ds);

    // Ground truth for every epoch 0..=APPENDS.
    let mut oracles = Vec::new();
    let mut prefix = ds.clone();
    oracles.push(oracle_answer(&prefix, &q));
    for i in 0..APPENDS {
        prefix.push(ingest_series(&q, i)).unwrap();
        oracles.push(oracle_answer(&prefix, &q));
    }
    // Every epoch's answer is distinguishable from every other's.
    for e in 1..oracles.len() {
        assert_ne!(oracles[e - 1], oracles[e], "epoch {e} must be observable");
    }

    // The three backends under test, over two live collections: the
    // plain engine (also wrapped by the cache) and the sharded engine.
    let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let engine = Arc::new(engine);
    let plain = OnexBackend::new(Arc::clone(&engine));
    let cached = CachedSearch::new(OnexBackend::new(Arc::clone(&engine)), 32).unwrap();
    let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 3).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The writer: publish APPENDS epochs on both collections while
        // the readers hammer away.
        let writer_engine = Arc::clone(&engine);
        let writer_sharded = &sharded;
        let writer_q = q.clone();
        let done_flag = &done;
        scope.spawn(move || {
            for i in 0..APPENDS {
                writer_engine
                    .append_series(ingest_series(&writer_q, i))
                    .expect("live append");
                writer_sharded
                    .append_series(ingest_series(&writer_q, i))
                    .expect("live append");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done_flag.store(true, Ordering::SeqCst);
        });

        // Three readers per backend kind, each checking every answer
        // against the oracle set and that observed epochs never rewind.
        for reader in 0..3 {
            let backends: Vec<(&str, &(dyn SimilaritySearch + Sync))> = vec![
                ("plain", &plain),
                ("cached", &cached),
                ("sharded", &sharded),
            ];
            let oracles = &oracles;
            let q = &q;
            let done = &done;
            scope.spawn(move || {
                let mut last_epoch = vec![0usize; backends.len()];
                let mut rounds = 0usize;
                while !done.load(Ordering::SeqCst) || rounds == 0 {
                    for (b, (name, backend)) in backends.iter().enumerate() {
                        let out = backend.k_best(q, K).unwrap_or_else(|e| {
                            panic!("reader {reader}: {name} errored mid-ingest: {e}")
                        });
                        let answer = flatten(&out);
                        let epoch = epoch_of(oracles, &answer).unwrap_or_else(|| {
                            panic!(
                                "reader {reader}: {name} answered a mixture of epochs: \
                                 {answer:?}"
                            )
                        });
                        assert!(
                            epoch >= last_epoch[b],
                            "reader {reader}: {name} rewound from epoch {} to {epoch}",
                            last_epoch[b]
                        );
                        last_epoch[b] = epoch;
                    }
                    rounds += 1;
                }
            });
        }
    });

    // Quiesced: every backend answers the final epoch's oracle exactly.
    assert_eq!(engine.epoch(), APPENDS as u64);
    assert_eq!(sharded.epoch(), APPENDS as u64);
    for backend in [&plain as &(dyn SimilaritySearch + Sync), &cached, &sharded] {
        let answer = flatten(&backend.k_best(&q, K).unwrap());
        assert_eq!(
            epoch_of(&oracles, &answer),
            Some(APPENDS),
            "{} must land on the final epoch",
            backend.name()
        );
    }
}

#[test]
fn a_rejected_append_leaves_every_backend_on_the_prior_epoch() {
    let ds = base_dataset();
    let q = query(&ds);

    let (engine, _) = Onex::build(ds.clone(), exact_config()).unwrap();
    let engine = Arc::new(engine);
    let plain = OnexBackend::new(Arc::clone(&engine));
    let cached = CachedSearch::new(OnexBackend::new(Arc::clone(&engine)), 32).unwrap();
    let (sharded, _) = ShardedEngine::build(&ds, exact_config(), 3).unwrap();

    let before: Vec<_> = [&plain as &(dyn SimilaritySearch + Sync), &cached, &sharded]
        .iter()
        .map(|b| flatten(&b.k_best(&q, K).unwrap()))
        .collect();
    assert_eq!(cached.cache_stats().misses, 1);

    // A duplicate name conflicts with the published collection: the
    // append is rejected and NOTHING is published — on either engine.
    let taken = ds.series(3).unwrap().name().to_owned();
    let dup = || TimeSeries::new(taken.clone(), vec![0.0; LEN]);
    assert!(engine.append_series(dup()).is_err());
    assert!(sharded.append_series(dup()).is_err());
    assert_eq!(engine.epoch(), 0, "failed append must not publish");
    assert_eq!(sharded.epoch(), 0, "failed append must not publish");

    // All three keep answering from the prior epoch, bit-for-bit; the
    // cache still serves its (valid!) entry as a hit.
    for (b, backend) in [&plain as &(dyn SimilaritySearch + Sync), &cached, &sharded]
        .iter()
        .enumerate()
    {
        let after = flatten(&backend.k_best(&q, K).unwrap());
        assert_eq!(after, before[b], "{} changed its answer", backend.name());
    }
    assert_eq!(cached.cache_stats().hits, 1, "entry survived the rejection");

    // And a subsequent valid append still works: the failure left no
    // wedged writer lock or half-state behind.
    engine.append_series(ingest_series(&q, 0)).unwrap();
    sharded.append_series(ingest_series(&q, 0)).unwrap();
    assert_eq!((engine.epoch(), sharded.epoch()), (1, 1));
    let fresh = flatten(&plain.k_best(&q, K).unwrap());
    assert_ne!(fresh, before[0], "the new epoch is live");
    assert_eq!(fresh, flatten(&sharded.k_best(&q, K).unwrap()));
}
