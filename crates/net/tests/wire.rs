//! Properties of the event-driven wire that only a whole process can
//! show: what a connection costs in threads once it is gone, and what a
//! round-trip costs in time. Both read process-wide state (the thread
//! count, the scheduler), so this file is its own test binary and its
//! tests take turns.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use onex_api::SimilaritySearch;
use onex_core::Onex;
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_net::{AcceptOptions, RemoteBackend, RemoteConfig, ShardServer};
use onex_tseries::{Dataset, TimeSeries};

const QLEN: usize = 32;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A 4-series engine behind a live shard server; returns its address and
/// a query cut from the collection.
fn spawn_small_shard(workers: usize) -> (String, Vec<f64>) {
    let series: Vec<TimeSeries> = (0..4)
        .map(|i| {
            let phase = i as f64 * 0.7;
            let values = (0..48)
                .map(|t| (t as f64 * 0.23 + phase).sin() * 2.0 + (t as f64 * 0.051).cos())
                .collect();
            TimeSeries::new(format!("s{i}"), values)
        })
        .collect();
    let query = series[1].values()[7..7 + QLEN].to_vec();
    let config = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(0.8, QLEN, QLEN)
    };
    let (engine, _) = Onex::build(Dataset::from_series(series).unwrap(), config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = ShardServer::new(Arc::new(engine));
    std::thread::spawn(move || {
        let _ = server.serve_with(
            listener,
            &AcceptOptions {
                workers,
                queue: 8,
                ..AcceptOptions::default()
            },
        );
    });
    (addr, query)
}

fn config() -> RemoteConfig {
    RemoteConfig {
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(20),
        connect_attempts: 1,
        reconnect_backoff: Duration::from_millis(10),
    }
}

/// `Threads:` of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

#[test]
fn connections_leave_no_thread_behind_on_either_end() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (addr, query) = spawn_small_shard(2);
    // A peer that takes the hello and hangs up on the first request: the
    // client's discard-on-error path must reap its reader as well.
    let rude = TcpListener::bind("127.0.0.1:0").unwrap();
    let rude_addr = rude.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for mut stream in rude.incoming().flatten() {
            let _ = onex_net::write_hello(&mut stream);
            let _ = onex_net::read_hello(&mut stream);
            let _ = onex_net::FrameReader::new().poll_frame(&mut stream);
        }
    });
    let cycle = || {
        let remote = RemoteBackend::new(addr.clone(), config());
        assert_eq!(remote.k_best(&query, 2).unwrap().matches.len(), 2);
        let remote = RemoteBackend::new(rude_addr.clone(), config());
        remote.k_best(&query, 2).unwrap_err();
        // The client survives the failure and would dial again.
        remote.k_best(&query, 2).unwrap_err();
    };
    cycle();
    let before = thread_count();
    for _ in 0..200 {
        cycle();
    }
    // The shard notices each hang-up on its own schedule: give the last
    // few connections a moment to unwind.
    let mut after = thread_count();
    for _ in 0..100 {
        if after <= before + 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        after = thread_count();
    }
    assert!(
        after <= before + 2,
        "{before} threads before 200 connect/query/drop cycles, {after} after"
    );
}

/// One jiffy is 4 ms at HZ = 250 and a socket timeout waits at least one:
/// a median round-trip under 3 ms says no socket timeout sits anywhere on
/// the query path. The query asks for more matches than the 68
/// candidates, so the bound stays `∞`, no tier can prune, and the shard
/// spends a few hundred microseconds in full DTWs — long enough that the
/// peer is genuinely waited for, which is when a timeout-driven wait
/// shows. Release only: a debug build
/// spends longer than a tick in those DTWs alone.
#[cfg(not(debug_assertions))]
#[test]
fn a_loopback_round_trip_takes_less_than_a_timer_tick() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (addr, query) = spawn_small_shard(1);
    let remote = RemoteBackend::new(addr, config());
    let round_trip = || assert_eq!(remote.k_best(&query, 1000).unwrap().matches.len(), 68);
    round_trip();
    let mut trips: Vec<Duration> = (0..101)
        .map(|_| {
            let t0 = std::time::Instant::now();
            round_trip();
            t0.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_millis(3),
        "median of 101 loopback k_best round-trips: {median:?}"
    );
}
