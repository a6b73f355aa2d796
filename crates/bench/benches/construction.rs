//! E7 bench — base construction: threshold sweep, sequential vs parallel,
//! and incremental extension (E18 times the base image round trip).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use onex_bench::workloads;
use onex_grouping::{BaseBuilder, BaseConfig};
use std::hint::black_box;

fn bench_construction(c: &mut Criterion) {
    let ds = workloads::sine_collection(20, 96);
    let mut g = c.benchmark_group("e7_construction");
    g.sample_size(10);
    for st in [0.1f64, 0.35, 1.0] {
        let cfg = BaseConfig::new(st, 16, 24);
        let builder = BaseBuilder::new(cfg).unwrap();
        g.bench_with_input(
            BenchmarkId::new("build_st", format!("{st}")),
            &st,
            |b, _| b.iter(|| black_box(builder.build(&ds))),
        );
    }
    let cfg = BaseConfig::new(0.35, 16, 24);
    let builder = BaseBuilder::new(cfg).unwrap();
    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("build_parallel", threads),
            &threads,
            |b, &t| b.iter(|| black_box(builder.build_parallel(&ds, t).unwrap())),
        );
    }
    let (base, _) = builder.build(&ds);
    // Incremental extension: one new series against a warm base.
    let mut grown = ds.clone();
    grown
        .push(onex_tseries::TimeSeries::new(
            "extra",
            onex_tseries::gen::sine_mix(96, 3, 0.25, 999),
        ))
        .unwrap();
    g.bench_function("extend_one_series", |b| {
        b.iter(|| black_box(builder.extend(&base, &grown).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
