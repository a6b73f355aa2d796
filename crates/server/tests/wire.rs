//! Over-the-wire test: a real TCP listener, a real client socket.
//!
//! This is the ROADMAP's end-to-end smoke test: bind an ephemeral port,
//! run [`App::serve`] on a thread, issue real HTTP requests, and assert
//! status codes plus *parseable* JSON (via the strict [`Json::parse`]).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use onex_core::Onex;
use onex_grouping::BaseConfig;
use onex_net::{AcceptOptions, ShardServer};
use onex_server::json::Json;
use onex_server::App;
use onex_tseries::gen::{matters_collection, Indicator, MattersConfig};
use onex_tseries::{Dataset, TimeSeries};

fn fetch(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn spawn_server() -> std::net::SocketAddr {
    let ds = matters_collection(&MattersConfig {
        indicators: vec![Indicator::GrowthRate],
        ..MattersConfig::default()
    });
    // The server loads the dataset itself, so the wire-visible summary
    // includes the construction report of the indexed builder.
    let app = App::build(ds, BaseConfig::new(1.0, 6, 10)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = app.serve(listener);
    });
    addr
}

#[test]
fn serves_real_sockets() {
    let addr = spawn_server();

    // One real GET /api/summary: 200 + parseable JSON with the expected
    // top-level keys.
    let (status, body) = fetch(addr, "/api/summary");
    assert_eq!(status, 200);
    let summary = Json::parse(&body).expect("summary is valid JSON");
    let Json::Obj(pairs) = &summary else {
        panic!("summary is an object: {body}");
    };
    assert!(pairs
        .iter()
        .any(|(k, v)| k == "series" && *v == Json::Num(50.0)));
    assert!(pairs.iter().any(|(k, _)| k == "per_length"));
    // The load step's construction report, work counters included.
    let build = pairs
        .iter()
        .find(|(k, _)| k == "build")
        .map(|(_, v)| v)
        .expect("summary reports the build step");
    let Json::Obj(build_fields) = build else {
        panic!("build is an object: {body}");
    };
    for key in ["elapsed_ms", "subsequences_per_sec", "work"] {
        assert!(
            build_fields.iter().any(|(k, _)| k == key),
            "missing {key}: {body}"
        );
    }

    let (status, body) = fetch(addr, "/api/match?series=MA-GrowthRate&start=4&len=8&k=2");
    assert_eq!(status, 200);
    assert!(Json::parse(&body).is_ok(), "{body}");
    assert_eq!(body.matches("\"distance\":").count(), 2);

    // The ?backend= route over a real socket.
    let (status, body) = fetch(
        addr,
        "/api/match?series=MA-GrowthRate&start=4&len=8&k=1&backend=ucrsuite",
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"backend\":\"ucrsuite\""), "{body}");
    assert!(Json::parse(&body).is_ok(), "{body}");

    // The scale-out backends (sharded fan-out, caching decorator) are
    // reachable through the same route.
    for backend in ["sharded", "cached"] {
        let (status, body) = fetch(
            addr,
            &format!("/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend={backend}"),
        );
        assert_eq!(status, 200, "{backend}");
        assert!(
            body.contains(&format!("\"backend\":\"{backend}\"")),
            "{body}"
        );
        assert!(Json::parse(&body).is_ok(), "{body}");
    }
    // A repeated cached request is a hit, visible in the wire payload.
    let (_, body) = fetch(
        addr,
        "/api/match?series=MA-GrowthRate&start=4&len=8&k=2&backend=cached",
    );
    assert!(body.contains("\"hits\":1"), "{body}");

    // Typed errors surface as proper status codes over the wire too.
    let (status, _) = fetch(addr, "/api/match?series=MA-GrowthRate&start=4&len=8&k=zero");
    assert_eq!(status, 400);

    let (status, body) = fetch(addr, "/view/overview.svg");
    assert_eq!(status, 200);
    assert!(body.starts_with("<svg"));

    let (status, _) = fetch(addr, "/definitely/not/here");
    assert_eq!(status, 404);

    // Concurrent clients.
    let mut joins = Vec::new();
    for _ in 0..4 {
        joins.push(std::thread::spawn(move || {
            let (status, body) = fetch(addr, "/api/series");
            assert_eq!(status, 200);
            assert!(Json::parse(&body).is_ok());
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    let Json::Obj(pairs) = json else {
        panic!("{key}: not an object: {json:?}");
    };
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing {key}: {json:?}"))
}

/// `/api/append` reports what the append cost next to what it committed,
/// and `/api/summary` shows the writer's resident index before and after.
#[test]
fn append_reports_its_work_and_summary_the_resident_index_over_the_wire() {
    let addr = spawn_server();
    let (_, body) = fetch(addr, "/api/summary");
    let before = Json::parse(&body).expect("summary is valid JSON");
    let resident = field(&before, "resident_index");
    assert_eq!(*field(resident, "kind"), Json::Str("none".into()), "{body}");
    assert_eq!(*field(resident, "entries"), Json::Num(0.0));
    assert_eq!(*field(resident, "epoch"), Json::Null);
    assert_eq!(*field(resident, "seeds"), Json::Num(0.0));

    let values = (0..16).map(|i| format!("{}.5", i % 5)).collect::<Vec<_>>();
    let (status, body) = fetch(
        addr,
        &format!("/api/append?name=Fresh&values={}", values.join(",")),
    );
    assert_eq!(status, 200, "{body}");
    let appended = Json::parse(&body).expect("append answers valid JSON");
    // The fields clients already read…
    assert_eq!(*field(&appended, "appended"), Json::Str("Fresh".into()));
    assert_eq!(*field(&appended, "epoch"), Json::Num(1.0));
    assert_eq!(*field(&appended, "series"), Json::Num(51.0));
    let Json::Num(groups) = *field(&appended, "groups") else {
        panic!("groups is a number: {body}");
    };
    assert!(matches!(*field(&appended, "subsequences"), Json::Num(n) if n >= groups));
    // …and what the append cost.
    assert!(matches!(*field(&appended, "elapsed_ms"), Json::Num(ms) if ms >= 0.0));
    let work = field(&appended, "work");
    let count = |key: &str| match *field(work, key) {
        Json::Num(n) if n >= 0.0 => n,
        _ => panic!("{key} is a count: {body}"),
    };
    // A window the bound dismisses everywhere starts no distance call;
    // every lookup still accounts for each representative one way or the
    // other.
    assert!(count("distance_calls") <= count("examined"), "{body}");
    assert!(count("examined") + count("pruned") > 0.0, "{body}");

    let (_, body) = fetch(addr, "/api/summary");
    let after = Json::parse(&body).expect("summary is valid JSON");
    let resident = field(&after, "resident_index");
    assert_eq!(*field(resident, "kind"), Json::Str("grid".into()), "{body}");
    assert_eq!(*field(resident, "entries"), Json::Num(groups));
    assert_eq!(*field(resident, "epoch"), Json::Num(1.0));
    // One seeding per indexed length (6..=10), by the first append.
    assert_eq!(*field(resident, "seeds"), Json::Num(5.0));
}

/// Send `head` and read the answer's status line, whatever the server
/// left unread when it closed.
fn status_of(addr: std::net::SocketAddr, head: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    // The server stops reading at its limit: a refused write past it is
    // the point, not a failure.
    let _ = stream.write_all(head);
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let raw = String::from_utf8_lossy(&raw);
    raw.lines().next().unwrap_or_default().to_owned()
}

/// A client that never ends its request line, or its headers, gets a
/// typed refusal after the server has read its limit — the worker buffers
/// no more — while appends of 256 and 4 096 points still fit.
#[test]
fn over_long_request_lines_and_header_blocks_are_refused_and_appends_still_fit() {
    use onex_server::http::{MAX_HEADER_BYTES, MAX_REQUEST_LINE};
    let addr = spawn_server();
    let endless_line = format!("GET /api/summary?pad={}", "x".repeat(MAX_REQUEST_LINE));
    assert_eq!(
        status_of(addr, endless_line.as_bytes()),
        "HTTP/1.1 414 URI Too Long"
    );
    let pad = format!("X-Pad: {}\r\n", "p".repeat(1000));
    let endless_headers = format!(
        "GET /api/summary HTTP/1.1\r\n{}",
        pad.repeat(MAX_HEADER_BYTES / pad.len() + 1)
    );
    assert_eq!(
        status_of(addr, endless_headers.as_bytes()),
        "HTTP/1.1 431 Request Header Fields Too Large"
    );

    for (name, points) in [("Quarter", 256), ("Long", 4096)] {
        let values = onex_tseries::gen::random_walk(points, 1.0, points as u64);
        // Every digit, as a client that round-trips its samples sends them.
        let values: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
        let target = format!("/api/append?name={name}&values={}", values.join(","));
        assert!(target.len() > points * 15, "{} bytes", target.len());
        let (status, body) = fetch(addr, &target);
        assert_eq!(status, 200, "{points} points: {body}");
    }
    let (status, _) = fetch(addr, "/api/summary");
    assert_eq!(status, 200, "the server serves on");
}

/// A refused client still sending its request, which reads the answer
/// only 100 ms later, gets its status and a clean close: the server shuts
/// its side after the status and reads what the client still sends before
/// it closes, so no reset overtakes the refusal — nor answers what the
/// client sends after it.
#[test]
fn a_refused_client_that_reads_late_gets_its_status_and_a_clean_close() {
    use onex_server::http::{MAX_HEADER_BYTES, MAX_REQUEST_LINE};
    let addr = spawn_server();
    let past = 256 << 10;
    let line = format!(
        "GET /api/summary?pad={}",
        "x".repeat(MAX_REQUEST_LINE + past)
    );
    let pad = format!("X-Pad: {}\r\n", "p".repeat(1000));
    let headers = format!(
        "GET /api/summary HTTP/1.1\r\n{}",
        pad.repeat((MAX_HEADER_BYTES + past) / pad.len())
    );
    for (head, status) in [
        (line, "HTTP/1.1 414 URI Too Long"),
        (headers, "HTTP/1.1 431 Request Header Fields Too Large"),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connects");
        stream
            .write_all(head.as_bytes())
            .expect("the server reads what it refuses");
        std::thread::sleep(std::time::Duration::from_millis(100));
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .expect("a clean close, not a reset");
        let raw = String::from_utf8_lossy(&raw);
        assert_eq!(raw.lines().next(), Some(status));
        for _ in 0..2 {
            stream.write_all(&[b'x'; 4096]).expect("no reset came back");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
}

/// End-to-end distributed path: two binary shard servers behind an HTTP
/// gateway, `?backend=cluster` agreeing with `?backend=onex` over real
/// sockets all the way down.
#[test]
fn cluster_backend_over_http_agrees_with_onex() {
    let ds = matters_collection(&MattersConfig {
        indicators: vec![Indicator::GrowthRate],
        ..MattersConfig::default()
    });
    let config = BaseConfig::new(1.0, 6, 10);

    // Round-robin partition (global g → shard g % 2, local g / 2): the
    // identity ClusterEngine assumes, over the exact dataset the gateway
    // serves locally.
    let shard_addrs: Vec<String> = (0..2)
        .map(|s| {
            let part: Vec<TimeSeries> = (0..ds.len())
                .filter(|g| g % 2 == s)
                .map(|g| ds.series(g as u32).unwrap().clone())
                .collect();
            let (engine, _) = Onex::build(Dataset::from_series(part).unwrap(), config.clone())
                .expect("shard builds");
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
        })
        .collect();

    let (engine, _) = Onex::build(ds, config).unwrap();
    let app = App::new(Arc::new(engine)).with_cluster(shard_addrs);
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral port");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = app.serve(listener);
    });

    // include_self=true so the onex baseline skips its self-exclusion —
    // the cluster scans everything, exactly like a plain k-best.
    let target = "/api/match?series=MA-GrowthRate&start=4&len=8&k=3&include_self=true";
    let (status, onex_body) = fetch(addr, target);
    assert_eq!(status, 200, "{onex_body}");
    let (status, cluster_body) = fetch(addr, &format!("{target}&backend=cluster"));
    assert_eq!(status, 200, "{cluster_body}");
    assert!(
        cluster_body.contains("\"backend\":\"cluster\""),
        "{cluster_body}"
    );

    // Same matches (names, windows, distances); only labels and work
    // counters differ between the local engine and the shard fleet.
    let matches_of = |body: &str| {
        let Json::Obj(fields) = Json::parse(body).expect("valid JSON") else {
            panic!("object: {body}");
        };
        fields
            .into_iter()
            .find(|(k, _)| k == "matches")
            .map(|(_, v)| v.render())
            .expect("matches field")
    };
    assert_eq!(matches_of(&onex_body), matches_of(&cluster_body));

    // The distributed response carries its pool and gossip observability.
    assert!(cluster_body.contains("\"gossip\":{"), "{cluster_body}");
    assert!(cluster_body.contains("\"shards\":2"), "{cluster_body}");
    assert!(
        cluster_body.contains("\"tightenings_sent\":"),
        "{cluster_body}"
    );

    // Capability introspection lists the connectable cluster.
    let (_, listing) = fetch(addr, "/api/backends");
    assert!(listing.contains("\"name\":\"cluster\""), "{listing}");
}
