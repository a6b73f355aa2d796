//! Micro-runs of single calls that are too short to time inside a request:
//! the dispatching distance kernels at `kernels::level()`, the top-k
//! accumulator and shared bound, HTTP parse and write, the wire codec.

use std::hint::black_box;
use std::time::Instant;

use onex_api::{BackendMatch, BackendStats, BestK, SharedBound};
use onex_distance::kernels::{env_excess_sq, sliding_minmax, sum_sq_diff_ea, EnvAffine};
use onex_distance::sketch::encode_into;
use onex_distance::{dtw_sq, Band, Envelope, QuerySketch, SketchParams, SKETCH_STRIDE};
use onex_net::Message;
use onex_server::http::{Request, Response};

use crate::check::match_options;
use crate::spec::{Rng, K};
use crate::stats::median;

/// Length of the seeded buffers the kernels run over.
const LEN: usize = 32;
const BATCHES: usize = 15;

/// Median over batches of the mean nanoseconds one call of `f` takes.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let batch = |f: &mut dyn FnMut()| {
        let clock = Instant::now();
        for _ in 0..calls {
            f();
        }
        clock.elapsed().as_nanos() as f64 / calls as f64
    };
    batch(&mut f); // warm caches and branch predictors
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch(&mut f)).collect();
    median(&samples)
}

fn buffer(rng: &mut Rng, n: usize) -> Vec<f64> {
    let mut x = 0.0;
    (0..n)
        .map(|_| {
            x += rng.unit() - 0.5;
            x
        })
        .collect()
}

pub fn distance(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::new(seed ^ 0xD157);
    let (x, y) = (buffer(&mut rng, LEN), buffer(&mut rng, LEN));
    // The radius the engine's envelopes use under its unconstrained band.
    let radius = Band::Full.radius(LEN, LEN);
    let env = Envelope::build(&y, radius);
    let extremes = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &a| {
                (lo.min(a), hi.max(a))
            })
    };
    let (lo, hi) = extremes(&[x.as_slice(), y.as_slice()].concat());
    let params = SketchParams::fit(lo, hi);
    let sketch = QuerySketch::new(&x, &Envelope::build(&x, radius), params);
    let mut encoded = [0u8; SKETCH_STRIDE];
    encode_into(&params, &y, &mut encoded);

    let inf = f64::INFINITY;
    let ed = ns_per_call(20_000, || {
        black_box(sum_sq_diff_ea(black_box(&x), black_box(&y), inf));
    });
    let keogh = ns_per_call(20_000, || {
        black_box(env_excess_sq(
            black_box(&x),
            &env.lower,
            &env.upper,
            EnvAffine::IDENTITY,
            inf,
        ));
    });
    let envelope = ns_per_call(5_000, || {
        black_box(sliding_minmax(black_box(&y), radius));
    });
    let dtw = ns_per_call(2_000, || {
        black_box(dtw_sq(black_box(&x), black_box(&y), Band::Full));
    });
    let l0 = ns_per_call(20_000, || {
        black_box(sketch.bound_sq(black_box(&encoded)));
    });
    vec![
        ("distance.ed_ns_per_elem", ed / LEN as f64),
        ("distance.keogh_ns_per_elem", keogh / LEN as f64),
        ("distance.envelope_ns_per_elem", envelope / LEN as f64),
        ("distance.dtw_ns_per_cell", dtw / (LEN * LEN) as f64),
        ("distance.l0_bound_ns", l0),
    ]
}

pub fn api(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::new(seed ^ 0xA91);
    let keys: Vec<f64> = (0..1024).map(|_| rng.unit()).collect();
    let offer = ns_per_call(200, || {
        let mut best = BestK::<u32>::new(K);
        for (i, &key) in keys.iter().enumerate() {
            black_box(best.offer(key, i as u32));
        }
        black_box(best);
    });
    let tighten = ns_per_call(200, || {
        let bound = SharedBound::new();
        for &key in &keys {
            black_box(bound.tighten(key));
        }
    });
    vec![
        ("api.bestk_offer_ns", offer / keys.len() as f64),
        ("api.bound_tighten_ns", tighten / keys.len() as f64),
    ]
}

/// `target` is a typical request of the workload, `response` the server's
/// answer to it.
pub fn server(target: &str, response: &Response) -> Vec<(&'static str, f64)> {
    let raw = format!("GET {target} HTTP/1.1\r\nHost: onex\r\nConnection: keep-alive\r\n\r\n");
    let parse = ns_per_call(5_000, || {
        black_box(Request::parse(black_box(raw.as_bytes())).expect("the request parses"));
    });
    let mut wire = Vec::new();
    let write = ns_per_call(5_000, || {
        wire.clear();
        response
            .write_keep_alive_to(&mut wire, true)
            .expect("writing to memory");
        black_box(&wire);
    });
    vec![
        ("server.parse_us", parse / 1e3),
        ("server.write_us", write / 1e3),
        ("server.resp_bytes", wire.len() as f64),
    ]
}

/// Encode and decode one Query and one k = 5 Answer, as a cluster request
/// does once per shard.
pub fn net(query: &[f64]) -> Vec<(&'static str, f64)> {
    let ask = Message::Query {
        k: K as u32,
        seed: f64::INFINITY,
        opts: match_options(None),
        query: query.to_vec(),
    };
    let answer = Message::Answer {
        epoch: 1,
        matches: (0..K)
            .map(|i| BackendMatch {
                series: i as u32,
                start: 10 * i,
                len: query.len(),
                distance: i as f64 * 0.25,
            })
            .collect(),
        stats: BackendStats::default(),
        coverage: None,
    };
    let codec = ns_per_call(5_000, || {
        for msg in [&ask, &answer] {
            let (kind, payload) = black_box(msg).encode();
            black_box(Message::decode(kind, &payload).expect("own encoding decodes"));
        }
    });
    vec![("net.codec_us", codec / 1e3)]
}
