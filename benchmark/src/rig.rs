//! The system under test, stood up inside this process: the real
//! `App::serve` HTTP server and real `ShardServer`s on loopback TCP, under
//! their default options. Their accept loops have no shutdown, so the threads
//! live until the process exits; each run is its own process.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use onex_core::Onex;
use onex_grouping::BaseConfig;
use onex_net::ShardServer;
use onex_server::App;
use onex_tseries::{Dataset, TimeSeries};

use crate::client::closed_loop;
use crate::spec::{Workload, CLIENTS, WARMUP_REQUESTS};

pub struct Rig {
    pub dataset: Dataset,
    /// Further series of the same kind, not loaded: the append pool.
    pub spares: Vec<TimeSeries>,
    pub config: BaseConfig,
    /// A handle on the served application, for replays without the socket.
    pub app: App,
    pub http: SocketAddr,
    pub shard_addrs: Vec<String>,
    /// `(stage, start, end)` of the set-up, in order.
    pub stages: Vec<(&'static str, Instant, Instant)>,
}

fn listen() -> Result<(TcpListener, SocketAddr), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    Ok((listener, addr))
}

/// Host `engine` behind the wire protocol on a loopback port.
pub fn serve_shard(engine: Arc<Onex>) -> Result<String, String> {
    let (listener, addr) = listen()?;
    std::thread::spawn(move || {
        let _ = ShardServer::new(engine).serve(listener);
    });
    Ok(addr.to_string())
}

impl Rig {
    /// Generate the collection, build every base, start the servers.
    /// `shards` > 0 also partitions the collection round-robin (global series
    /// `g` on shard `g % shards`, the identity `ClusterEngine` assumes) over
    /// that many shard servers and points the app's cluster backend at them.
    pub fn start(w: &Workload, seed: u64, spare: usize, shards: usize) -> Result<Rig, String> {
        let mut stages = Vec::new();
        let mut clock = Instant::now();
        let mut lap = |name: &'static str| {
            let now = Instant::now();
            stages.push((name, clock, now));
            clock = now;
        };

        let (dataset, spares) = w.generate(seed, spare);
        lap("tseries.gen");
        let config = w.config();
        let mut app = App::build(dataset.clone(), config.clone()).map_err(|e| e.to_string())?;
        lap("server.build");

        let mut shard_addrs = Vec::new();
        for s in 0..shards {
            let part: Vec<TimeSeries> = dataset
                .iter()
                .filter(|(g, _)| *g as usize % shards == s)
                .map(|(_, series)| series.clone())
                .collect();
            let part = Dataset::from_series(part).map_err(|e| e.to_string())?;
            let (engine, _) = Onex::build(part, config.clone()).map_err(|e| e.to_string())?;
            shard_addrs.push(serve_shard(Arc::new(engine))?);
        }
        if shards > 0 {
            app = app.with_cluster(shard_addrs.clone());
            lap("net.shards");
        }

        let (listener, http) = listen()?;
        let served = app.clone();
        std::thread::spawn(move || {
            let _ = served.serve(listener);
        });
        lap("server.serve");

        Ok(Rig {
            dataset,
            spares,
            config,
            app,
            http,
            shard_addrs,
            stages,
        })
    }

    /// The first `WARMUP_REQUESTS` requests of the schedule, untimed, over
    /// the same number of connections the timed phase uses. The first
    /// `backend=cluster` request is also what makes the app dial its shards.
    /// Returns how many requests each client consumed.
    pub fn warm_up(&self, targets: &[String], clients: usize) -> Result<usize, String> {
        let each = WARMUP_REQUESTS.div_ceil(CLIENTS);
        let failures: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || closed_loop(self.http, targets, c, clients, |n| n >= each))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("warm-up client panicked"))
                .filter_map(|s| s.outcome.err())
                .collect()
        });
        match failures.first() {
            Some(first) => Err(format!(
                "{} warm-up requests failed, first: {first}",
                failures.len()
            )),
            None => Ok(each),
        }
    }
}

/// `/api/append` target for one series; values print with every digit, so the
/// server parses back exactly the numbers the oracle later scans.
pub fn append_target(series: &TimeSeries) -> String {
    let values: Vec<String> = series.values().iter().map(|v| v.to_string()).collect();
    format!(
        "/api/append?name={}&values={}",
        series.name(),
        values.join(",")
    )
}
