//! The chaos suite: a live two-shard cluster queried while one shard's
//! link is sabotaged by [`ChaosProxy`] under every fault class and under
//! a seeded random schedule.
//!
//! The invariant under *any* fault is three-fold:
//! * a query returns either a correct answer (full or degraded, checked
//!   against per-partition oracles) or a **typed** [`OnexError::Network`]
//!   — never `Internal`, never a panic;
//! * a degraded answer says so: `coverage` reports exactly how many
//!   slots answered;
//! * nothing hangs — every query completes well inside the client read
//!   timeout.
//!
//! The schedule seed comes from `ONEX_CHAOS_SEED` (decimal), so CI can
//! re-run the same suite under a different deterministic schedule
//! without a code change.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{DegradePolicy, OnexError, SimilaritySearch};
use onex_core::fanout::partition;
use onex_core::Onex;
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_net::{
    AcceptOptions, BreakerState, ChaosProxy, ClusterConfig, ClusterEngine, Fault, RemoteConfig,
    ShardServer,
};
use onex_tseries::{Dataset, TimeSeries};

const QLEN: usize = 16;

fn chaos_seed() -> u64 {
    std::env::var("ONEX_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn exact_config() -> BaseConfig {
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.8, QLEN, QLEN)
    }
}

fn collection(series: usize, len: usize) -> Dataset {
    let all: Vec<TimeSeries> = (0..series)
        .map(|i| {
            let phase = i as f64 * 0.7;
            let values: Vec<f64> = (0..len)
                .map(|t| {
                    let x = t as f64;
                    (x * 0.23 + phase).sin() * 2.0 + (x * 0.051 + phase * 0.4).cos()
                })
                .collect();
            TimeSeries::new(format!("s{i}"), values)
        })
        .collect();
    Dataset::from_series(all).unwrap()
}

fn test_config() -> RemoteConfig {
    RemoteConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(10),
        connect_attempts: 1,
        reconnect_backoff: Duration::from_millis(10),
    }
}

fn spawn_shard(ds: Dataset, config: BaseConfig) -> String {
    let (engine, _) = Onex::build(ds, config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = ShardServer::new(Arc::new(engine));
    std::thread::spawn(move || {
        let _ = server.serve_with(
            listener,
            &AcceptOptions {
                workers: 2,
                queue: 8,
                ..AcceptOptions::default()
            },
        );
    });
    addr
}

/// Top-k the surviving shard (partition 0) would answer alone, with
/// series ids mapped back to global (local * 2 + 0).
fn shard0_oracle(parts: &[Dataset], query: &[f64], k: usize) -> Vec<(u32, usize, usize, f64)> {
    let (engine, _) = Onex::build(parts[0].clone(), exact_config()).unwrap();
    let backend = onex_core::backends::OnexBackend::new(Arc::new(engine));
    backend
        .k_best(query, k)
        .unwrap()
        .matches
        .into_iter()
        .map(|m| (m.series * 2, m.start, m.len, m.distance))
        .collect()
}

/// The chaos harness: shard 0 direct, shard 1 through a proxy.
struct Rig {
    cluster: ClusterEngine,
    proxy: ChaosProxy,
    parts: Vec<Dataset>,
    full_oracle: Vec<Vec<(u32, usize, usize, f64)>>,
    queries: Vec<Vec<f64>>,
}

fn rig(degrade: DegradePolicy) -> Rig {
    let ds = collection(8, 96);
    let parts = partition(&ds, 2);
    let shard0 = spawn_shard(parts[0].clone(), exact_config());
    let shard1 = spawn_shard(parts[1].clone(), exact_config());
    let proxy = ChaosProxy::spawn(shard1, Vec::new()).unwrap();
    let cluster = ClusterEngine::connect_with(
        &[shard0, proxy.addr().to_string()],
        ClusterConfig {
            remote: test_config(),
            degrade,
            probe_interval: Some(Duration::from_millis(100)),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    let queries: Vec<Vec<f64>> = (0..ds.len())
        .map(|i| ds.series(i as u32).unwrap().values()[7..7 + QLEN].to_vec())
        .collect();
    // Full-cluster expected answers, computed while everything is
    // healthy.
    let full_oracle = queries
        .iter()
        .map(|q| {
            cluster
                .k_best(q, 4)
                .unwrap()
                .matches
                .into_iter()
                .map(|m| (m.series, m.start, m.len, m.distance))
                .collect()
        })
        .collect();
    Rig {
        cluster,
        proxy,
        parts,
        full_oracle,
        queries,
    }
}

/// Run one query under chaos and enforce the suite invariant. Returns
/// whether the answer was degraded (for coverage accounting).
fn check_query(r: &Rig, qi: usize, context: &str) -> bool {
    let query = &r.queries[qi];
    let t0 = Instant::now();
    let result = r.cluster.k_best(query, 4);
    let wall = t0.elapsed();
    assert!(
        wall < Duration::from_secs(15),
        "{context}: query took {wall:?} — the suite must never hang"
    );
    match result {
        Ok(out) => {
            let cov = out.coverage.expect("cluster answers always carry coverage");
            assert_eq!(cov.shards_total, 2, "{context}");
            let got: Vec<(u32, usize, usize, f64)> = out
                .matches
                .iter()
                .map(|m| (m.series, m.start, m.len, m.distance))
                .collect();
            if out.degraded() {
                assert_eq!(cov.shards_answered, 1, "{context}");
                assert_eq!(
                    got,
                    shard0_oracle(&r.parts, query, 4),
                    "{context}: degraded answer must equal the surviving-shard oracle"
                );
                true
            } else {
                assert_eq!(
                    got, r.full_oracle[qi],
                    "{context}: full-coverage answer must equal the healthy answer"
                );
                false
            }
        }
        Err(e) => {
            assert!(
                matches!(e, OnexError::Network(_)),
                "{context}: failures must be typed Network errors, got {e:?}"
            );
            true
        }
    }
}

#[test]
fn every_fault_class_yields_typed_errors_or_correct_degraded_answers() {
    let r = rig(DegradePolicy::Partial);
    let faults = [
        Fault::Drop,
        Fault::Delay(Duration::from_millis(30)),
        Fault::Truncate(9),
        Fault::BitFlip(5),
        Fault::SlowDrip(Duration::from_millis(2)),
        Fault::CloseMidFrame,
        Fault::Healthy,
    ];
    for fault in faults {
        r.proxy.set_fault(Some(fault));
        for qi in 0..r.queries.len() {
            // Under Partial, every fault mode still yields an answer:
            // either full (the fault was survivable, e.g. a delay) or
            // degraded-and-oracle-exact.
            let degraded = check_query(&r, qi, &format!("fault {fault:?} query {qi}"));
            let _ = degraded;
        }
    }
    // Clear the chaos; the probe revives shard 1 and coverage returns
    // to full.
    r.proxy.set_fault(None);
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let out = r.cluster.k_best(&r.queries[0], 4).unwrap();
        if !out.degraded() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster never healed after chaos: {:?}",
            r.cluster.health()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn seeded_schedule_runs_deterministically_and_never_breaks_the_invariant() {
    let seed = chaos_seed();
    let r = rig(DegradePolicy::Partial);
    let schedule = Fault::schedule_from_seed(seed, 48);
    // Feed the schedule through the forced-fault override so it applies
    // per *query* regardless of how connections are reused.
    let mut degraded_count = 0usize;
    for (i, fault) in schedule.iter().enumerate() {
        r.proxy.set_fault(Some(*fault));
        let qi = i % r.queries.len();
        if check_query(&r, qi, &format!("seed {seed} step {i} fault {fault:?}")) {
            degraded_count += 1;
        }
    }
    // A schedule cycling through all fault classes must actually have
    // exercised the degraded path.
    assert!(
        degraded_count > 0,
        "seed {seed}: chaos schedule never degraded a query"
    );
    // The shard-1 breaker saw real failures and recorded them.
    let health = r.cluster.health();
    let shard1 = &health[1].replicas[0].breaker;
    assert!(
        shard1.failures > 0,
        "seed {seed}: breaker recorded no failures under chaos: {shard1:?}"
    );
}

#[test]
fn strict_policy_under_chaos_is_all_or_typed_error() {
    let r = rig(DegradePolicy::Fail);
    let schedule = Fault::schedule_from_seed(chaos_seed() ^ 0x5EED, 24);
    for (i, fault) in schedule.iter().enumerate() {
        r.proxy.set_fault(Some(*fault));
        let query = &r.queries[i % r.queries.len()];
        let t0 = Instant::now();
        match r.cluster.k_best(query, 4) {
            Ok(out) => {
                // Strict mode never returns partial answers.
                assert!(!out.degraded(), "step {i} fault {fault:?}");
            }
            Err(e) => assert!(
                matches!(e, OnexError::Network(_)),
                "step {i} fault {fault:?}: got {e:?}"
            ),
        }
        assert!(
            Instant::now() - t0 < Duration::from_secs(15),
            "step {i} hung"
        );
    }
}

#[test]
fn killed_shard_opens_the_breaker_and_restart_recloses_it() {
    let r = rig(DegradePolicy::Partial);
    r.proxy.set_fault(Some(Fault::Drop));
    // Hammer until the breaker opens (default threshold is 3 failures).
    for qi in 0..6 {
        let _ = r.cluster.k_best(&r.queries[qi % r.queries.len()], 4);
    }
    let opened = r.cluster.health()[1].replicas[0].breaker.opens;
    assert!(opened >= 1, "breaker never opened under a killed shard");

    r.proxy.set_fault(None);
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if r.cluster.health()[1].replicas[0].breaker.state == BreakerState::Closed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "probe never re-closed the breaker: {:?}",
            r.cluster.health()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let out = r.cluster.k_best(&r.queries[0], 4).unwrap();
    assert!(
        !out.degraded(),
        "healed cluster must answer at full coverage"
    );
}
