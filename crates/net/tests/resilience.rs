//! Fault-tolerance tests over real loopback sockets: replica failover,
//! circuit-breaker lifecycle, degrade policies with an oracle check,
//! query deadlines, worker-lane respawn, and hedged requests. Faults are
//! injected deterministically through [`ChaosProxy`] so "kill a shard"
//! and "restart it" are one method call each.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use onex_api::{Coverage, DegradePolicy, NetworkErrorKind, OnexError, SimilaritySearch};
use onex_core::fanout::partition;
use onex_core::Onex;
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_net::{
    AcceptOptions, BreakerConfig, BreakerState, ChaosProxy, ClusterConfig, ClusterEngine, Fault,
    RemoteConfig, ShardServer,
};
use onex_tseries::{Dataset, TimeSeries};

const QLEN: usize = 16;

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
        read_timeout: Duration::from_secs(20),
        connect_attempts: 1,
        reconnect_backoff: Duration::from_millis(10),
    }
}

/// Cluster tuning for tests: fast-failing client, no background probe
/// (tests that exercise the probe opt back in explicitly).
fn test_cluster_config() -> ClusterConfig {
    ClusterConfig {
        remote: test_config(),
        probe_interval: None,
        ..ClusterConfig::default()
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

fn spawn_cluster_shards(ds: &Dataset, config: &BaseConfig, n: usize) -> Vec<String> {
    partition(ds, n)
        .into_iter()
        .map(|part| spawn_shard(part, config.clone()))
        .collect()
}

fn query_from(ds: &Dataset) -> Vec<f64> {
    ds.series(1).unwrap().values()[10..10 + QLEN].to_vec()
}

/// An address on which nothing listens (bind, take the port, drop).
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

#[test]
fn failover_to_a_live_replica_answers_with_full_coverage() {
    let ds = collection(6, 96);
    let shards = spawn_cluster_shards(&ds, &exact_config(), 2);
    let oracle = ClusterEngine::connect_with(&shards, test_cluster_config()).unwrap();

    // Slot 0 prefers a dead replica; the live one is second choice.
    let specs = vec![format!("{}|{}", dead_addr(), shards[0]), shards[1].clone()];
    let cluster = ClusterEngine::connect_with(&specs, test_cluster_config()).unwrap();

    let query = query_from(&ds);
    let want = oracle.k_best(&query, 4).unwrap();
    let got = cluster.k_best(&query, 4).unwrap();
    assert_eq!(got.matches, want.matches);
    // Failover happened *within* the slot, so nothing is missing.
    assert_eq!(got.coverage, Some(Coverage::full(2)));
    assert!(!got.degraded());
    // The dead replica's breaker recorded the failures.
    let health = cluster.health();
    assert!(health[0].replicas[0].breaker.failures >= 1);
    assert_eq!(health[0].replicas[1].breaker.failures, 0);
}

#[test]
fn partial_degrade_matches_a_surviving_shard_oracle() {
    let ds = collection(8, 96);
    let parts = partition(&ds, 2);
    let shard0 = spawn_shard(parts[0].clone(), exact_config());
    let shard1 = spawn_shard(parts[1].clone(), exact_config());
    let proxy = ChaosProxy::spawn(shard1, Vec::new()).unwrap();

    let cluster = ClusterEngine::connect_with(
        &[shard0, proxy.addr().to_string()],
        ClusterConfig {
            degrade: DegradePolicy::Partial,
            ..test_cluster_config()
        },
    )
    .unwrap();

    let query = query_from(&ds);
    let full = cluster.k_best(&query, 4).unwrap();
    assert_eq!(full.coverage, Some(Coverage::full(2)));

    // Kill shard 1 mid-workload; the cluster keeps answering, flagged.
    proxy.set_fault(Some(Fault::Drop));
    let degraded = cluster.k_best(&query, 4).unwrap();
    assert_eq!(
        degraded.coverage,
        Some(Coverage {
            shards_answered: 1,
            shards_total: 2
        })
    );
    assert!(degraded.degraded());

    // Oracle: a single engine over only the surviving shard's series.
    // Global ids differ (cluster reports local * 2 + 0), so compare on
    // the mapped identity.
    let (oracle, _) = Onex::build(parts[0].clone(), exact_config()).unwrap();
    let backend = onex_core::backends::OnexBackend::new(Arc::new(oracle));
    let want = backend.k_best(&query, 4).unwrap();
    assert_eq!(degraded.matches.len(), want.matches.len());
    for (got, want) in degraded.matches.iter().zip(want.matches.iter()) {
        assert_eq!(got.series, want.series * 2, "round-robin identity");
        assert_eq!((got.start, got.len), (want.start, want.len));
        assert_eq!(got.distance, want.distance);
    }

    // Restart the shard: coverage returns to full.
    proxy.set_fault(None);
    let healed = cluster.k_best(&query, 4).unwrap();
    assert_eq!(healed.coverage, Some(Coverage::full(2)));
    assert_eq!(healed.matches, full.matches);
}

#[test]
fn strict_fail_policy_propagates_the_dead_slot_error() {
    let ds = collection(6, 96);
    let parts = partition(&ds, 2);
    let shard0 = spawn_shard(parts[0].clone(), exact_config());
    let shard1 = spawn_shard(parts[1].clone(), exact_config());
    let proxy = ChaosProxy::spawn(shard1, Vec::new()).unwrap();

    // Default policy: strict — exactly the historical all-or-nothing.
    let cluster =
        ClusterEngine::connect_with(&[shard0, proxy.addr().to_string()], test_cluster_config())
            .unwrap();
    assert_eq!(cluster.degrade_policy(), DegradePolicy::Fail);

    proxy.set_fault(Some(Fault::Drop));
    let err = cluster.k_best(&query_from(&ds), 4).unwrap_err();
    assert!(
        matches!(err, OnexError::Network(_)),
        "strict degrade must surface the typed slot error, got {err:?}"
    );
}

#[test]
fn quorum_policy_counts_surviving_slots() {
    let ds = collection(9, 96);
    let parts = partition(&ds, 3);
    let shard0 = spawn_shard(parts[0].clone(), exact_config());
    let shard1 = spawn_shard(parts[1].clone(), exact_config());
    let shard2 = spawn_shard(parts[2].clone(), exact_config());
    let proxy = ChaosProxy::spawn(shard2, Vec::new()).unwrap();
    let specs = vec![shard0, shard1, proxy.addr().to_string()];

    let quorum2 = ClusterEngine::connect_with(
        &specs,
        ClusterConfig {
            degrade: DegradePolicy::Quorum(2),
            ..test_cluster_config()
        },
    )
    .unwrap();
    let quorum3 = ClusterEngine::connect_with(
        &specs,
        ClusterConfig {
            degrade: DegradePolicy::Quorum(3),
            ..test_cluster_config()
        },
    )
    .unwrap();

    proxy.set_fault(Some(Fault::Drop));
    let query = query_from(&ds);
    let ok = quorum2.k_best(&query, 4).unwrap();
    assert_eq!(
        ok.coverage,
        Some(Coverage {
            shards_answered: 2,
            shards_total: 3
        })
    );
    let err = quorum3.k_best(&query, 4).unwrap_err();
    assert!(matches!(err, OnexError::Network(_)), "got {err:?}");
}

#[test]
fn breaker_opens_on_failures_and_the_probe_recloses_after_restart() {
    let ds = collection(4, 96);
    let shard = spawn_shard(ds.clone(), exact_config());
    let proxy = ChaosProxy::spawn(shard, Vec::new()).unwrap();
    let cluster = ClusterEngine::connect_with(
        &[proxy.addr().to_string()],
        ClusterConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                // Long enough that the skip-assertions below run while
                // the breaker is still open, short enough that the
                // probe re-closes it promptly after the restart.
                open_for: Duration::from_millis(300),
                ..BreakerConfig::default()
            },
            probe_interval: Some(Duration::from_millis(50)),
            ..test_cluster_config()
        },
    )
    .unwrap();

    let query = query_from(&ds);
    proxy.set_fault(Some(Fault::Drop));
    // Enough failures to trip the breaker.
    for _ in 0..3 {
        let _ = cluster.k_best(&query, 2);
    }
    let snap = &cluster.health()[0].replicas[0].breaker;
    assert!(snap.opens >= 1, "breaker should have opened: {snap:?}");

    // While open, the slot fails without dialling: the proxy sees no
    // new connections.
    let before = proxy.connections();
    let err = cluster.k_best(&query, 2).unwrap_err();
    assert!(matches!(err, OnexError::Network(_)));
    assert_eq!(
        proxy.connections(),
        before,
        "open breaker must skip the dial"
    );

    // Restart the shard; the background probe closes the breaker again
    // without any query traffic.
    proxy.set_fault(None);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if cluster.health()[0].replicas[0].breaker.state == BreakerState::Closed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "probe never re-closed the breaker: {:?}",
            cluster.health()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let healed = cluster.k_best(&query, 2).unwrap();
    assert!(!healed.degraded());
}

#[test]
fn dropping_the_engine_stops_an_idle_probe_at_once() {
    let ds = collection(4, 96);
    let cluster = ClusterEngine::connect_with(
        &[spawn_shard(ds, exact_config())],
        ClusterConfig {
            probe_interval: Some(Duration::from_secs(30)),
            ..test_cluster_config()
        },
    )
    .unwrap();
    let t0 = Instant::now();
    drop(cluster);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "drop waited for the probe's next round: {:?}",
        t0.elapsed()
    );
}

/// A peer that speaks the protocol far enough to pass connect (hello +
/// info) and then goes silent on queries — the worst kind of stall,
/// which the per-query deadline has to bound.
fn spawn_stall_server() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let mut stream = stream;
                let _ = onex_net::write_hello(&mut stream);
                if onex_net::read_hello(&mut stream).is_err() {
                    return;
                }
                let mut reader = onex_net::FrameReader::new();
                loop {
                    match reader.poll_frame(&mut stream) {
                        Ok(onex_net::Poll::Frame(kind, payload)) => {
                            match onex_net::Message::decode(kind, &payload) {
                                Ok(onex_net::Message::InfoRequest) => {
                                    let reply = onex_net::Message::Info {
                                        name: "stall".into(),
                                        caps: onex_api::Capabilities {
                                            metric: onex_api::Metric::RawDtw,
                                            exact: true,
                                            multi_length: false,
                                            streaming: false,
                                            one_match_per_series: false,
                                            cached: false,
                                        },
                                        series: 1,
                                        epoch: 0,
                                    };
                                    let (k, p) = reply.encode();
                                    if onex_net::write_frame(&mut stream, k, &p).is_err() {
                                        return;
                                    }
                                }
                                // Queries (and everything else) are
                                // swallowed: never answer, never close.
                                Ok(_) => {}
                                Err(_) => return,
                            }
                        }
                        Ok(onex_net::Poll::TimedOut) => {}
                        _ => return,
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn query_deadline_is_a_typed_timeout_not_an_internal_stall() {
    let stall = spawn_stall_server();
    let cluster = ClusterEngine::connect_with(
        &[stall],
        ClusterConfig {
            query_deadline: Duration::from_millis(150),
            remote: RemoteConfig {
                // Keep the client-side read timeout above the cluster
                // deadline (so the deadline is what fires) but small
                // enough that engine drop doesn't wait on the stalled
                // worker for long.
                read_timeout: Duration::from_secs(2),
                ..test_config()
            },
            ..test_cluster_config()
        },
    )
    .unwrap();

    let t0 = Instant::now();
    let err = cluster.k_best(&[1.0; QLEN], 2).unwrap_err();
    let wall = t0.elapsed();
    match &err {
        OnexError::Network(e) => assert_eq!(e.kind, NetworkErrorKind::Timeout, "{err:?}"),
        other => panic!("expected typed timeout, got {other:?}"),
    }
    assert_eq!(err.http_status(), 504);
    assert!(
        wall < Duration::from_secs(1),
        "deadline must bound the stall (took {wall:?})"
    );
}

#[test]
fn poisoned_worker_costs_one_reply_not_the_engine() {
    let ds = collection(6, 96);
    let shards = spawn_cluster_shards(&ds, &exact_config(), 2);
    let cluster = ClusterEngine::connect_with(&shards, test_cluster_config()).unwrap();
    assert_eq!(cluster.pool_stats().threads_spawned, 2);

    let query = query_from(&ds);
    let want = cluster.k_best(&query, 4).unwrap();

    // Kill slot 0's worker thread; the next query respawns the lane
    // transparently and still answers correctly.
    cluster.debug_kill_worker(0);
    let got = cluster.k_best(&query, 4).unwrap();
    assert_eq!(got.matches, want.matches);
    assert_eq!(
        cluster.pool_stats().threads_spawned,
        3,
        "exactly one respawn"
    );
    assert!(!got.degraded());
}

#[test]
fn hedge_races_a_slow_replica_and_the_backup_wins() {
    let ds = collection(6, 96);
    let parts = partition(&ds, 2);
    let shard0 = spawn_shard(parts[0].clone(), exact_config());
    let shard0b = spawn_shard(parts[0].clone(), exact_config());
    let shard1 = spawn_shard(parts[1].clone(), exact_config());

    // Slot 0's preferred replica answers, but only after a long stall.
    let slow = ChaosProxy::spawn(shard0, Vec::new()).unwrap();
    slow.set_fault(Some(Fault::Delay(Duration::from_secs(3))));

    let specs = vec![format!("{}|{}", slow.addr(), shard0b), shard1.clone()];
    let cluster = ClusterEngine::connect_with(
        &specs,
        ClusterConfig {
            hedge_after: Some(Duration::from_millis(60)),
            ..test_cluster_config()
        },
    )
    .unwrap();

    let oracle =
        ClusterEngine::connect_with(&[shard0b.clone(), shard1.clone()], test_cluster_config())
            .unwrap();

    let query = query_from(&ds);
    let want = oracle.k_best(&query, 4).unwrap();
    let t0 = Instant::now();
    let got = cluster.k_best(&query, 4).unwrap();
    let wall = t0.elapsed();

    assert_eq!(got.matches, want.matches);
    assert!(
        wall < Duration::from_secs(2),
        "hedge must beat the 3 s stall (took {wall:?})"
    );
    let (fired, wins) = cluster.hedge_counters();
    assert!(fired >= 1, "hedge should have fired");
    assert!(wins >= 1, "backup should have won the race");
    assert_eq!(got.coverage, Some(Coverage::full(2)));
}

#[test]
fn connect_fails_typed_only_when_a_whole_slot_is_dead() {
    let ds = collection(4, 96);
    let live = spawn_shard(ds, exact_config());

    // A dead *backup* is tolerated at connect…
    let ok =
        ClusterEngine::connect_with(&[format!("{live}|{}", dead_addr())], test_cluster_config());
    assert!(ok.is_ok());

    // …a dead *slot* is not.
    let err = ClusterEngine::connect_with(
        &[format!("{}|{}", dead_addr(), dead_addr())],
        test_cluster_config(),
    )
    .unwrap_err();
    assert!(matches!(err, OnexError::Network(_)), "got {err:?}");

    // An empty replica list is a configuration error.
    let err = ClusterEngine::connect_with(&["|"], test_cluster_config()).unwrap_err();
    assert!(matches!(err, OnexError::InvalidConfig(_)), "got {err:?}");
}

#[test]
fn a_silent_peer_costs_a_timeout_at_the_deadline_not_a_tick_later() {
    let read_timeout = Duration::from_millis(200);
    let remote = onex_net::RemoteBackend::new(
        spawn_stall_server(),
        RemoteConfig {
            read_timeout,
            ..test_config()
        },
    );
    // Connected and past the hello: the stall server answers this one.
    remote.info().unwrap();

    let t0 = Instant::now();
    let err = remote.k_best(&[1.0; QLEN], 2).unwrap_err();
    let wall = t0.elapsed();
    assert!(
        matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Timeout),
        "{err:?}"
    );
    assert!(wall >= read_timeout, "gave up early, after {wall:?}");
    assert!(
        wall < read_timeout + Duration::from_millis(50),
        "the deadline was noticed {:?} late",
        wall - read_timeout
    );
}

#[test]
fn a_peer_closing_mid_frame_is_closed_not_a_decode_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        use std::io::Write;
        let (mut stream, _) = listener.accept().unwrap();
        onex_net::write_hello(&mut stream).unwrap();
        onex_net::read_hello(&mut stream).unwrap();
        // Take the request, start a reply, hang up inside it.
        let _ = onex_net::FrameReader::new().poll_frame(&mut stream);
        let mut frame = Vec::new();
        let (kind, payload) = onex_net::Message::Appended {
            epoch: 1,
            series: 1,
        }
        .encode();
        onex_net::write_frame(&mut frame, kind, &payload).unwrap();
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
    });
    let remote = onex_net::RemoteBackend::new(addr, test_config());
    let t0 = Instant::now();
    let err = remote.k_best(&[1.0; QLEN], 1).unwrap_err();
    assert!(
        matches!(err, OnexError::Network(ref n) if n.kind == NetworkErrorKind::Closed),
        "{err:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(5));
}

#[test]
fn a_client_vanishing_mid_query_frees_the_worker_before_the_search_would_end() {
    // One worker, and a query that asks for more matches than there are
    // candidates: no local k-th best ever forms, so the bound stays `∞`,
    // no tier can prune, and each of the ~5 000 candidates costs a full
    // 64x64 DTW unless the shared bound says otherwise.
    const LEN: usize = 64;
    const K: usize = 10_000;
    let ds = collection(12, 480);
    let config = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.8, LEN, LEN)
    };
    let (engine, _) = Onex::build(ds.clone(), config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = ShardServer::new(Arc::new(engine));
    std::thread::spawn(move || {
        let _ = server.serve_with(
            listener,
            &AcceptOptions {
                workers: 1,
                queue: 8,
                ..AcceptOptions::default()
            },
        );
    });
    let patient = RemoteConfig {
        // The second client queues behind the first for the one worker:
        // its hello must outwait a search that is *not* abandoned.
        connect_timeout: Duration::from_secs(60),
        ..test_config()
    };
    let opts = onex_core::QueryOptions::default();
    let query: Vec<f64> = ds.series(1).unwrap().values()[7..7 + LEN].to_vec();

    let t0 = Instant::now();
    onex_net::RemoteBackend::new(addr.clone(), patient.clone())
        .with_options(opts.clone())
        .k_best(&query, K)
        .unwrap();
    let full = t0.elapsed();

    // The same query from a client that hangs up as soon as it is sent.
    {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        onex_net::write_hello(&mut stream).unwrap();
        onex_net::read_hello(&mut stream).unwrap();
        let (kind, payload) = onex_net::Message::Query {
            k: K as u32,
            seed: f64::INFINITY,
            opts,
            query,
        }
        .encode();
        onex_net::write_frame(&mut stream, kind, &payload).unwrap();
    }
    let t0 = Instant::now();
    onex_net::RemoteBackend::new(addr, patient).info().unwrap();
    let waited = t0.elapsed();
    assert!(
        waited < full / 4,
        "the next connection waited {waited:?} for a worker; the abandoned search takes {full:?}"
    );
}
