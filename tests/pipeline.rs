//! End-to-end pipeline tests spanning every crate (the Fig 1 loop): load →
//! preprocess → persist/reload → query → visualise.

use onex::engine::{LengthSelection, Onex, QueryOptions, SeasonalOptions};
use onex::grouping::{persist, BaseConfig};
use onex::tseries::gen::{
    electricity_load, matters_collection, ElectricityConfig, Indicator, MattersConfig,
};
use onex::viz::{MultiLineChart, OverviewPane, SeasonalView};

fn growth() -> onex::tseries::Dataset {
    matters_collection(&MattersConfig {
        indicators: vec![Indicator::GrowthRate],
        ..MattersConfig::default()
    })
}

#[test]
fn matters_pipeline_end_to_end() {
    let ds = growth();
    let (engine, report) = Onex::build(ds, BaseConfig::new(1.0, 6, 10)).unwrap();
    assert!(report.groups > 0);
    assert!(report.compaction() >= 1.0);

    let ds = engine.dataset();
    let ma = ds.by_name("MA-GrowthRate").unwrap();
    let query = ma.subsequence(6, 8).unwrap().to_vec();
    let opts = QueryOptions::default().excluding_series(engine.dataset().id_of("MA-GrowthRate"));
    let (m, stats) = engine.best_match(&query, &opts).unwrap();
    let m = m.expect("another state matches");
    assert_ne!(m.series_name, "MA-GrowthRate");
    assert!(m.distance.is_finite() && m.distance >= 0.0);
    assert!(stats.groups_examined > 0);
    assert!(m.path.is_valid(query.len(), m.subseq.len as usize));

    // Visualise: the SVG is structurally sound and mentions the match.
    let svg = MultiLineChart::for_match(&query, &m, &engine.dataset()).render();
    assert!(svg.starts_with("<svg"));
    assert!(svg.ends_with("</svg>\n"));
    assert_eq!(svg.matches("<polyline").count(), 2);
    assert!(svg.contains(&m.series_name));

    let pane = OverviewPane::from_base(&engine.base(), 8, 12);
    assert!(!pane.is_empty());
    assert!(pane.render().contains("ONEX base overview"));
}

#[test]
fn persisted_base_answers_identically() {
    let ds = growth();
    let (engine, _) = Onex::build(ds.clone(), BaseConfig::new(1.0, 6, 10)).unwrap();
    let engine2 = Onex::open_bytes(persist::save_v2(&engine.base()), ds).unwrap();

    let query = engine
        .dataset()
        .by_name("TX-GrowthRate")
        .unwrap()
        .subsequence(3, 8)
        .unwrap()
        .to_vec();
    let opts = QueryOptions::default();
    let (a, _) = engine.best_match(&query, &opts).unwrap();
    let (b, _) = engine2.best_match(&query, &opts).unwrap();
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a.subseq, b.subseq);
    assert!((a.distance - b.distance).abs() < 1e-12);
}

#[test]
fn parallel_and_sequential_engines_agree() {
    // An engine's build spreads its lengths over workers; one length is
    // built on the calling thread. Every column must be the one-length
    // engine's, sketches included.
    let ds = growth();
    let cfg = BaseConfig::new(1.0, 6, 10);
    let (par_engine, _) = Onex::build(ds.clone(), cfg.clone()).unwrap();
    for len in 6..=10 {
        let single = BaseConfig {
            min_len: len,
            max_len: len,
            ..cfg.clone()
        };
        let (seq_engine, _) = Onex::build(ds.clone(), single).unwrap();
        let (par, seq) = (par_engine.base(), seq_engine.base());
        assert!(
            par.groups_for_len(len) == seq.groups_for_len(len),
            "length {len}"
        );
        assert!(
            par.sketches().for_len(len) == seq.sketches().for_len(len),
            "length {len}"
        );
    }
}

#[test]
fn electricity_seasonal_end_to_end() {
    let ds = electricity_load(&ElectricityConfig {
        households: 1,
        days: 10 * 7,
        samples_per_day: 24,
        noise: 0.05,
        seed: 3,
    });
    let cfg = BaseConfig {
        stride: 24,
        ..BaseConfig::new(0.6, 24, 24)
    };
    let (engine, _) = Onex::build(ds, cfg).unwrap();
    let patterns = engine
        .seasonal("household-0", &SeasonalOptions::default())
        .unwrap();
    assert!(
        !patterns.is_empty(),
        "households repeat daily habits — patterns must exist"
    );
    let top = &patterns[0];
    assert!(top.count() >= 2);
    for w in top.occurrences.windows(2) {
        assert!(w[0].end() <= w[1].start, "occurrences do not overlap");
    }
    // All occurrences are day-aligned because the base stride is 24.
    assert!(top.occurrences.iter().all(|o| o.start % 24 == 0));

    let ds = engine.dataset();
    let series = ds.by_name("household-0").unwrap();
    let svg = SeasonalView::new(800, "hh0", series.values())
        .add_engine_pattern(top)
        .render();
    assert!(svg.contains("occurrences"));
    assert!(svg.matches("<rect").count() >= top.count());
}

#[test]
fn variable_length_query_on_ragged_collection() {
    // The paper's core pitch: heterogeneous, variable-length, misaligned
    // collections. Ragged MATTERS series + a query length not present in
    // every series still answer.
    let ds = matters_collection(&MattersConfig {
        indicators: vec![Indicator::GrowthRate],
        ragged: true,
        ..MattersConfig::default()
    });
    let (engine, _) = Onex::build(ds, BaseConfig::new(1.0, 6, 12)).unwrap();
    let query = engine
        .dataset()
        .by_name("CA-GrowthRate")
        .unwrap()
        .values()
        .to_vec();
    let opts = QueryOptions::default().lengths(LengthSelection::Nearest(4));
    let (matches, _) = engine.k_best(&query, 5, &opts).unwrap();
    assert!(!matches.is_empty());
    for m in &matches {
        assert!(m.normalized.is_finite());
        assert!(m.path.is_valid(query.len(), m.subseq.len as usize));
    }
}

#[test]
fn lifetime_stats_observe_all_queries() {
    let ds = growth();
    let (engine, _) = Onex::build(ds, BaseConfig::new(1.0, 8, 8)).unwrap();
    let q = engine
        .dataset()
        .by_name("OH-GrowthRate")
        .unwrap()
        .subsequence(0, 8)
        .unwrap()
        .to_vec();
    for _ in 0..3 {
        let _ = engine.best_match(&q, &QueryOptions::default()).unwrap();
    }
    let total = engine.lifetime_stats();
    assert!(total.groups_examined >= 3);
    assert!(total.dtw_invocations() >= 3);
}
