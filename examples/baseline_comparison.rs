//! One query, five engines: the paper's related-work section as a
//! runnable program.
//!
//! The ONEX introduction names four prior systems — fast scans (UCR
//! Suite [6]), exact stream monitors (SPRING [7]), Euclidean indexing
//! (FRM [4]) and approximate embeddings (EBSM [1]) — and positions ONEX
//! between them. This example runs the *same* best-match question
//! through all five and prints what each one answers, how long it took,
//! and what its answer actually means.
//!
//! ```sh
//! cargo run --example baseline_comparison --release
//! ```

use std::time::Instant;

use onex::baselines::embedding::{EbsmConfig, EbsmIndex};
use onex::baselines::frm::{StConfig, StIndex};
use onex::baselines::spring::spring_best_match;
use onex::baselines::ucrsuite::{ucr_dtw_search_dataset, DtwSearchConfig};
use onex::distance::{dtw, Band};
use onex::engine::{Onex, QueryOptions};
use onex::grouping::BaseConfig;
use onex::tseries::gen::{matters_collection, Indicator, MattersConfig};
use onex::viz::ascii::sparkline;

fn main() {
    // The MATTERS growth-rate collection (50 states, quarterly).
    let ds = matters_collection(&MattersConfig {
        indicators: vec![Indicator::GrowthRate],
        years: 24,
        ..MattersConfig::default()
    });
    let qlen = 16;
    // The baselines have no "exclude this series" knob, so give them the
    // collection without MA (ONEX uses its own exclusion option).
    let others: Vec<(String, Vec<f64>)> = ds
        .iter()
        .filter(|(_, s)| s.name() != "MA-GrowthRate")
        .map(|(_, s)| (s.name().to_string(), s.values().to_vec()))
        .collect();
    let series: Vec<Vec<f64>> = others.iter().map(|(_, v)| v.clone()).collect();
    let ds_others = {
        use onex::tseries::{Dataset, TimeSeries};
        Dataset::from_series(
            others
                .iter()
                .map(|(n, v)| TimeSeries::new(n.clone(), v.clone()))
                .collect(),
        )
        .expect("non-empty")
    };

    // The question: which state's recent growth trajectory most
    // resembles Massachusetts' most recent years?
    let ma = ds.by_name("MA-GrowthRate").expect("MA exists");
    let query = ma.values()[ma.len() - qlen..].to_vec();
    println!("query: MA last {qlen} years  {}", sparkline(&query));
    println!();

    // --- ONEX -----------------------------------------------------------
    let t = Instant::now();
    let (engine, report) =
        Onex::build(ds.clone(), BaseConfig::new(1.0, qlen, qlen)).expect("valid config");
    let build = t.elapsed();
    let opts = QueryOptions::default().excluding_series(ds.id_of("MA-GrowthRate"));
    let t = Instant::now();
    let (best, _) = engine.best_match(&query, &opts).unwrap();
    let q = t.elapsed();
    let m = best.expect("collection is non-empty");
    println!(
        "ONEX (exact)    build {build:>9.2?}  query {q:>9.2?}  -> {} dtw {:.3}   [raw-scale DTW over {} groups]",
        m.series_name, m.distance, report.groups
    );

    // --- UCR Suite -------------------------------------------------------
    let t = Instant::now();
    let hit = ucr_dtw_search_dataset(&ds_others, &query, &DtwSearchConfig::default());
    let q = t.elapsed();
    if let Some((h, stats)) = hit {
        let name = ds_others.series(h.series).expect("hit resolves").name();
        println!(
            "UCR Suite [6]   build {:>9}  query {q:>9.2?}  -> {} dtw(z) {:.3}   [z-normalised, {:.0}% pruned]",
            "none", name, h.distance, stats.prune_rate() * 100.0
        );
    }

    // --- SPRING ----------------------------------------------------------
    // SPRING answers per-series streams; run it across all states.
    let t = Instant::now();
    let mut best_spring = None;
    for (sid, s) in series.iter().enumerate() {
        if let Some(m) = spring_best_match(s, &query) {
            let improves = best_spring.as_ref().is_none_or(
                |(_, b): &(usize, onex::baselines::spring::SpringMatch)| m.dist < b.dist,
            );
            if improves {
                best_spring = Some((sid, m));
            }
        }
    }
    let q = t.elapsed();
    if let Some((sid, m)) = best_spring {
        let name = &others[sid].0;
        println!(
            "SPRING [7]      build {:>9}  query {q:>9.2?}  -> {} dtw {:.3}   [variable-length subsequence, streaming-exact]",
            "none", name, m.dist
        );
    }

    // --- FRM / ST-index ----------------------------------------------------
    let t = Instant::now();
    let frm = StIndex::<4>::build(
        series.clone(),
        StConfig {
            window: qlen,
            subtrail_max: 32,
            cost_scale: 1.0,
        },
    );
    let build = t.elapsed();
    let t = Instant::now();
    let (fh, fstats) = frm.best_match(&query).expect("collection is non-empty");
    let q = t.elapsed();
    let fname = &others[fh.series as usize].0;
    let f_dtw = dtw(
        &series[fh.series as usize][fh.start..fh.start + qlen],
        &query,
        Band::Full,
    );
    println!(
        "FRM [4]         build {build:>9.2?}  query {q:>9.2?}  -> {} ed {:.3}   [raw ED; that window's DTW = {:.3}; {} candidates verified]",
        fname, fh.dist, f_dtw, fstats.candidates
    );

    // --- EBSM --------------------------------------------------------------
    let t = Instant::now();
    let ebsm = EbsmIndex::build(
        series.clone(),
        EbsmConfig {
            references: 8,
            ref_len: qlen,
            candidates: 24,
            refine_factor: 2,
            seed: 99,
        },
    );
    let build = t.elapsed();
    let t = Instant::now();
    let (eh, estats) = ebsm.best_match(&query).expect("collection is non-empty");
    let q = t.elapsed();
    let ename = &others[eh.series as usize].0;
    println!(
        "EBSM [1]        build {build:>9.2?}  query {q:>9.2?}  -> {} dtw {:.3}   [approximate; {} of {} positions refined]",
        ename, eh.dist, estats.refined, estats.positions_total
    );

    println!();
    println!("note: the engines answer different questions (raw vs z-normalised,");
    println!("fixed vs variable length, exact vs approximate) — the point of the");
    println!("comparison, and of ONEX's position in it. See EXPERIMENTS.md E11.");
}
