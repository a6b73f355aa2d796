//! The four workloads: what each one loads, what it asks, and why it exists.
//! Everything a run feeds the system under test is derived here from `--seed`.

use std::time::Duration;

use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_tseries::gen::{clustered_dataset, random_walk_dataset, SyntheticConfig};
use onex_tseries::{Dataset, TimeSeries};

/// Matches asked for by every `/api/match` request.
pub const K: usize = 5;
/// Requests answered before the clock starts, shared among the clients.
pub const WARMUP_REQUESTS: usize = 16;
/// Closed-loop clients, each on its own keep-alive connection and thread.
pub const CLIENTS: usize = 2;
/// Requests per workload checked against the exhaustive oracle.
pub const GATE_REQUESTS: usize = 12;
/// Reader answers per `ingest` run checked against the epochs they overlap.
pub const INGEST_GATE_SAMPLES: usize = 8;
/// `/api/append` calls made after the timed phase on workloads without a writer.
pub const TAIL_APPENDS: usize = 3;
/// How often the set-up is repeated (in child processes) behind `setup_s`.
pub const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `clustered_dataset`: a few shape families, so a few huge groups.
    Clustered { archetypes: usize, jitter: f64 },
    /// `random_walk_dataset`: nothing compacts, groups ~ subsequences.
    RandomWalk,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Seconds-sized inputs for the smoke tests.
    Toy,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub series: usize,
    pub points: usize,
    pub min_len: usize,
    pub max_len: usize,
    pub st: f64,
    /// `?backend=` of every timed request.
    pub backend: &'static str,
    /// Shard servers behind `backend=cluster` (0: no cluster is started).
    pub shards: usize,
    /// Distinct query windows the schedule draws from.
    pub windows: usize,
    /// `(hot windows, share of requests drawn from them)`.
    pub hot: Option<(usize, f64)>,
    /// Open-loop writer beside the readers: one append per interval.
    pub append_every: Option<Duration>,
    /// Requests replayed boundary by boundary in the traced run.
    pub traced_prefix: usize,
}

/// In the order they are listed and run: the compute-bound workload last, so
/// that whatever a machine does right after a build does not land on it.
pub const NAMES: [&str; 4] = ["repeat", "cluster", "ingest", "explore"];

pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let mut w = match name {
        "explore" => Workload {
            name: "explore",
            why: "clustered 128x512 collection, lengths 30-32, backend onex: group pruning cannot \
                  help, so the member cascade and the distance kernels are the request",
            shape: Shape::Clustered {
                archetypes: 8,
                jitter: 0.08,
            },
            series: 128,
            points: 512,
            min_len: 30,
            max_len: 32,
            st: 1.0,
            backend: "onex",
            shards: 0,
            windows: 4000,
            hot: None,
            append_every: None,
            traced_prefix: 16,
        },
        "cluster" => Workload {
            name: "cluster",
            why: "random-walk 48x256, lengths 16-24, backend cluster over 2 loopback shard \
                  servers: the group bound kills the search, so codec, sockets and pump ticks in \
                  net are the request",
            shape: Shape::RandomWalk,
            series: 48,
            points: 256,
            min_len: 16,
            max_len: 24,
            st: 1.0,
            backend: "cluster",
            shards: 2,
            windows: 4000,
            hot: None,
            append_every: None,
            traced_prefix: 60,
        },
        "ingest" => Workload {
            name: "ingest",
            why: "the same random-walk collection, 1 closed-loop reader beside 1 open-loop writer \
                  appending a series every second: BaseBuilder::extend and the epoch publish \
                  work while reads must stay unaffected",
            shape: Shape::RandomWalk,
            series: 48,
            points: 256,
            min_len: 16,
            max_len: 24,
            st: 1.0,
            backend: "onex",
            shards: 0,
            windows: 4000,
            hot: None,
            append_every: Some(Duration::from_secs(1)),
            traced_prefix: 60,
        },
        "repeat" => Workload {
            name: "repeat",
            why: "tiny clustered 48x256 collection, length 16, backend cached, 90% of requests \
                  from 32 hot windows: server, socket and CachedSearch are the request; the \
                  bypass workload for engine changes",
            shape: Shape::Clustered {
                archetypes: 8,
                jitter: 0.08,
            },
            series: 48,
            points: 256,
            min_len: 16,
            max_len: 16,
            st: 2.0,
            backend: "cached",
            shards: 0,
            windows: 4000,
            hot: Some((32, 0.9)),
            append_every: None,
            traced_prefix: 60,
        },
        _ => return None,
    };
    if scale == Scale::Toy {
        w.series = 8;
        w.points = 64;
        w.windows = 64;
        w.hot = w.hot.map(|(_, share)| (8, share));
        w.append_every = w.append_every.map(|_| Duration::from_millis(400));
        w.traced_prefix = 4;
    }
    Some(w)
}

impl Workload {
    pub fn config(&self) -> BaseConfig {
        BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(self.st, self.min_len, self.max_len)
        }
    }

    /// Only the `onex` route leaves the query's own series out; the cached
    /// and cluster routes always search the whole collection.
    pub fn excludes_own_series(&self) -> bool {
        self.backend == "onex"
    }

    /// The collection loaded at set-up plus `spare` further series of the same
    /// kind to append later. Both come from one generator call, so the spares
    /// belong to the same shape families and carry names the collection lacks.
    pub fn generate(&self, seed: u64, spare: usize) -> (Dataset, Vec<TimeSeries>) {
        let cfg = SyntheticConfig {
            series: self.series + spare,
            len: self.points,
            seed,
        };
        let all = match self.shape {
            Shape::Clustered { archetypes, jitter } => clustered_dataset(cfg, archetypes, jitter),
            Shape::RandomWalk => random_walk_dataset(cfg),
        };
        let mut series: Vec<TimeSeries> = all.iter().map(|(_, s)| s.clone()).collect();
        let spares = series.split_off(self.series);
        let dataset = Dataset::from_series(series).expect("generated names are unique");
        (dataset, spares)
    }

    /// The lengths `LengthSelection::Nearest(3)` searches for a query of `len`.
    pub fn candidate_lengths(&self, len: usize) -> Vec<usize> {
        let mut lens: Vec<usize> = (self.min_len..=self.max_len).collect();
        lens.sort_by_key(|&l| (l.abs_diff(len), l));
        lens.truncate(3);
        lens
    }
}

/// One query window cut from the loaded collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    pub series: usize,
    pub start: usize,
    pub len: usize,
}

impl Window {
    pub fn target(&self, w: &Workload, dataset: &Dataset) -> String {
        self.target_on(w.backend, dataset)
    }

    pub fn target_on(&self, backend: &str, dataset: &Dataset) -> String {
        let name = dataset
            .series(self.series as u32)
            .expect("window cut from this dataset")
            .name();
        format!(
            "/api/match?series={name}&start={}&len={}&k={K}&backend={backend}",
            self.start, self.len
        )
    }

    pub fn values<'a>(&self, dataset: &'a Dataset) -> &'a [f64] {
        dataset
            .series(self.series as u32)
            .and_then(|s| s.subsequence(self.start, self.len))
            .expect("window cut from this dataset")
    }
}

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `w.windows` distinct seeded windows (fewer only if the collection has fewer).
pub fn windows(w: &Workload, seed: u64) -> Vec<Window> {
    let mut rng = Rng::new(seed ^ 0x57AD_0115);
    let possible = w.series
        * (w.min_len..=w.max_len)
            .map(|l| w.points - l + 1)
            .sum::<usize>();
    let want = w.windows.min(possible);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(want);
    while out.len() < want {
        let len = w.min_len + rng.below(w.max_len - w.min_len + 1);
        let window = Window {
            series: rng.below(w.series),
            start: rng.below(w.points - len + 1),
            len,
        };
        if seen.insert(window) {
            out.push(window);
        }
    }
    out
}

/// The order in which windows are asked for: every window once in seeded
/// order, or, with a hot set, a seeded mix of hot and cold draws. Clients walk
/// it in strides and wrap around.
pub fn schedule(w: &Workload, seed: u64) -> Vec<Window> {
    let all = windows(w, seed);
    let Some((hot, share)) = w.hot else {
        return all;
    };
    let hot = hot.min(all.len());
    let mut rng = Rng::new(seed ^ 0x5C4E_D01E);
    (0..all.len())
        .map(|_| {
            if hot == all.len() || rng.unit() < share {
                all[rng.below(hot)]
            } else {
                all[hot + rng.below(all.len() - hot)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_list(name: &str, seed: u64) -> String {
        let w = workload(name, Scale::Toy).unwrap();
        let (dataset, _) = w.generate(seed, 0);
        schedule(&w, seed)
            .iter()
            .map(|win| win.target(&w, &dataset))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for name in NAMES {
            assert_eq!(request_list(name, 7), request_list(name, 7), "{name}");
            assert_ne!(request_list(name, 7), request_list(name, 8), "{name}");
        }
    }

    #[test]
    fn same_seed_same_collection() {
        for name in NAMES {
            let w = workload(name, Scale::Toy).unwrap();
            let (a, spare_a) = w.generate(3, 2);
            let (b, spare_b) = w.generate(3, 2);
            let (c, _) = w.generate(4, 2);
            assert_eq!(a.len(), w.series);
            assert_eq!(spare_a.len(), 2);
            assert_eq!(spare_a, spare_b);
            let values = |d: &Dataset| -> Vec<Vec<f64>> {
                d.iter().map(|(_, s)| s.values().to_vec()).collect()
            };
            assert_eq!(values(&a), values(&b), "{name}");
            assert_ne!(values(&a), values(&c), "{name}");
            // Spares never collide with loaded names.
            assert!(spare_a.iter().all(|s| a.by_name(s.name()).is_none()));
        }
    }

    #[test]
    fn windows_are_distinct_and_in_bounds() {
        for name in NAMES {
            let w = workload(name, Scale::Toy).unwrap();
            let ws = windows(&w, 11);
            let unique: std::collections::HashSet<_> = ws.iter().collect();
            assert_eq!(unique.len(), ws.len());
            assert!(ws.iter().all(|x| x.series < w.series
                && x.start + x.len <= w.points
                && (w.min_len..=w.max_len).contains(&x.len)));
        }
    }

    #[test]
    fn hot_set_takes_its_share() {
        let w = workload("repeat", Scale::Full).unwrap();
        let all = windows(&w, 5);
        let hot: std::collections::HashSet<_> = all[..32].iter().collect();
        let s = schedule(&w, 5);
        let share = s.iter().filter(|x| hot.contains(x)).count() as f64 / s.len() as f64;
        assert!((share - 0.9).abs() < 0.03, "hot share {share}");
    }

    #[test]
    fn nearest_three_lengths() {
        let w = workload("cluster", Scale::Full).unwrap();
        assert_eq!(w.candidate_lengths(16), vec![16, 17, 18]);
        assert_eq!(w.candidate_lengths(20), vec![20, 19, 21]);
        assert_eq!(w.candidate_lengths(24), vec![24, 23, 22]);
        let r = workload("repeat", Scale::Full).unwrap();
        assert_eq!(r.candidate_lengths(16), vec![16]);
    }
}
