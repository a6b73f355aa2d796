//! Run the ONEX demo server — the library twin of the paper's live
//! demonstration. Loads the synthetic MATTERS growth rates (or your CSV),
//! preprocesses the base, and serves the exploration API plus browser-
//! renderable views.
//!
//! ```sh
//! cargo run --example onex_server --release              # 127.0.0.1:7878
//! cargo run --example onex_server --release -- 0.0.0.0:8080
//! cargo run --example onex_server --release -- 127.0.0.1:7878 data.csv 0.5
//! ```
//!
//! Then open <http://127.0.0.1:7878/> in a browser.
//!
//! ## Distributed mode
//!
//! Serve this process's collection as a binary shard server (the
//! `onex::net` wire protocol instead of HTTP):
//!
//! ```sh
//! cargo run --example onex_server --release -- --shard-serve 127.0.0.1:7001 shard0.csv
//! cargo run --example onex_server --release -- --shard-serve 127.0.0.1:7002 shard1.csv
//! ```
//!
//! and point an HTTP gateway's `?backend=cluster` at the fleet:
//!
//! ```sh
//! cargo run --example onex_server --release -- --cluster 127.0.0.1:7001,127.0.0.1:7002
//! ```
//!
//! The cluster assumes a round-robin partition: global series `g` lives
//! on shard `g % N` (in file order), as `ClusterEngine` documents.
//!
//! Each comma-separated entry is one shard **slot**; a slot may list
//! replica addresses separated by `|` (every replica hosts the same
//! partition — start them from the same CSV/base file):
//!
//! ```sh
//! cargo run --example onex_server --release -- \
//!     --cluster '127.0.0.1:7001|127.0.0.1:7101,127.0.0.1:7002|127.0.0.1:7102'
//! ```
//!
//! Queries prefer the first replica of each slot and fail over on typed
//! network errors; per-replica circuit breakers skip dead peers and
//! background probes revive them. The HTTP gateway runs the cluster
//! with the `partial` degrade policy: when a whole slot is down,
//! `/api/match?backend=cluster` still answers over the surviving shards
//! and reports a `coverage` object saying so. Breaker states, replica
//! topology, and hedge counters are served at `/api/health`.
//!
//! ## Base files
//!
//! `--base-file base.onexbase` makes startup stateful: if the file
//! exists the server cold-starts from it (the whole base decoded beside
//! the dataset, no construction); if not, the base is built once and
//! saved there for the next launch. Works in
//! both HTTP and `--shard-serve` modes.

use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;

use onex::engine::Onex;
use onex::grouping::{BaseConfig, BuildReport};
use onex::net::ShardServer;
use onex::server::App;
use onex::tseries::gen::{matters_collection, Indicator, MattersConfig};
use onex::tseries::io;
use onex::tseries::Dataset;

fn main() {
    let mut shard_serve: Option<String> = None;
    let mut cluster: Vec<String> = Vec::new();
    let mut base_file: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shard-serve" => {
                shard_serve = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--shard-serve needs an address, e.g. 127.0.0.1:7001");
                    std::process::exit(2);
                }));
            }
            "--base-file" => {
                base_file = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--base-file needs a path, e.g. base.onexbase");
                    std::process::exit(2);
                }));
            }
            "--cluster" => {
                let list = args.next().unwrap_or_else(|| {
                    eprintln!("--cluster needs a comma-separated shard list");
                    std::process::exit(2);
                });
                cluster = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            _ => positional.push(arg),
        }
    }
    // Positional order: `addr csv st` — except in shard-serve mode, where
    // the listen address came with the flag, so positionals are `csv st`.
    let mut positional = positional.into_iter();
    let addr = if shard_serve.is_some() {
        String::new()
    } else {
        positional.next().unwrap_or_else(|| "127.0.0.1:7878".into())
    };
    let csv = positional.next();
    let st: f64 = positional
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    if let Some(extra) = positional.next() {
        eprintln!("unexpected argument {extra:?}");
        std::process::exit(2);
    }

    let dataset = match &csv {
        Some(path) => {
            let f = std::fs::File::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            });
            // Arbitrary user files may be ragged (including the padded
            // form write_csv_columns emits), so load through the
            // gap-tolerant reader rather than the strict one.
            io::read_csv_columns_padded(f).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                std::process::exit(1);
            })
        }
        None => matters_collection(&MattersConfig {
            indicators: vec![Indicator::GrowthRate],
            ..MattersConfig::default()
        }),
    };
    println!("loaded: {}", dataset.summary());

    // Shard-server mode: host this collection behind the binary wire
    // protocol on the same hardened accept loop, and exit when it does.
    if let Some(shard_addr) = shard_serve {
        let (engine, report) =
            make_engine(dataset, BaseConfig::new(st, 6, 12), base_file.as_deref());
        if let Some(report) = report {
            println!(
                "shard base ready: {} groups / {} subsequences in {:?}",
                report.groups, report.subsequences, report.elapsed
            );
        }
        let listener = TcpListener::bind(&shard_addr).unwrap_or_else(|e| {
            eprintln!("cannot bind {shard_addr}: {e}");
            std::process::exit(1);
        });
        println!("ONEX shard server listening on {shard_addr} (binary protocol) — ctrl-c to stop");
        ShardServer::new(Arc::new(engine))
            .serve(listener)
            .expect("shard serve loop");
        return;
    }

    // The server performs the load step itself (the demo's one-click
    // preprocessing), so /api/summary reports the construction cost —
    // unless a base file covers it, in which case startup decodes the file
    // and /api/summary reports its provenance instead.
    let (engine, report) = make_engine(dataset, BaseConfig::new(st, 6, 12), base_file.as_deref());
    let mut app = App::new(Arc::new(engine));
    if let Some(report) = report {
        println!(
            "base ready: {} groups / {} subsequences ({:.1}×) in {:?} — \
             {} representatives examined, {} pruned, {} distance calls",
            report.groups,
            report.subsequences,
            report.compaction(),
            report.elapsed,
            report.work.examined,
            report.work.pruned,
            report.work.distance_calls
        );
        app = app.with_build_report(report);
    }
    if !cluster.is_empty() {
        println!(
            "cluster backend enabled over {} shard(s): {}",
            cluster.len(),
            cluster.join(", ")
        );
        app = app.with_cluster(cluster);
    }

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!("ONEX server listening on http://{addr}/ — ctrl-c to stop");
    app.serve(listener).expect("serve loop");
}

/// Engine startup, optionally backed by a base file: an existing file
/// cold-starts the engine (the whole base decoded beside the dataset,
/// no construction), a missing one is created after a fresh build so the
/// *next* launch skips preprocessing. The report is `None` exactly when
/// the file path was taken.
fn make_engine(
    dataset: Dataset,
    config: BaseConfig,
    base_file: Option<&str>,
) -> (Onex, Option<BuildReport>) {
    if let Some(path) = base_file {
        if Path::new(path).exists() {
            let engine = Onex::open(path, dataset).unwrap_or_else(|e| {
                eprintln!("cannot open base file {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "cold start from {path}: {} length column(s), {} groups decoded",
                engine.base().lengths().count(),
                engine.base().group_count()
            );
            return (engine, None);
        }
    }
    let (engine, report) = Onex::build(dataset, config).unwrap_or_else(|e| {
        eprintln!("cannot build base: {e}");
        std::process::exit(1);
    });
    if let Some(path) = base_file {
        engine.save_base(path).unwrap_or_else(|e| {
            eprintln!("cannot save base file {path}: {e}");
            std::process::exit(1);
        });
        println!("base saved to {path} — the next launch cold-starts from it");
    }
    (engine, Some(report))
}
