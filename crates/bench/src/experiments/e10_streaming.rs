//! E10 — stream monitoring: SPRING (paper reference \[7\]) vs re-scanning.
//!
//! The paper's state-of-the-art section positions ONEX between two
//! poles: exact stream monitors "at the expense of responsiveness" \[7\]
//! and fast scans over static data \[6\]. This experiment makes that
//! triangle concrete. A pattern is monitored over a growing stream
//! three ways:
//!
//! * **SPRING** — O(m) per point, exact unconstrained subsequence DTW,
//!   single fixed pattern;
//! * **UCR re-scan** — rerun the UCR Suite over the stream seen so far
//!   at every report interval (what a scan-based system must do);
//! * **ONEX incremental** — append the new chunk to the engine's base
//!   and re-query (ad-hoc queries stay cheap, but indexing pays per
//!   append).
//!
//! Expected shape: SPRING's total cost is linear in the stream with a
//! tiny constant and flat per-point latency; the re-scan's per-report
//! cost grows linearly (quadratic in total); ONEX sits between — costlier
//! per update than SPRING but able to answer *any* query, not just the
//! fixed pattern.

use std::time::{Duration, Instant};

use onex_baselines::spring::SpringMonitor;
use onex_baselines::ucrsuite::{ucr_dtw_search, DtwSearchConfig};
use onex_core::{Onex, QueryOptions};
use onex_grouping::BaseConfig;
use onex_tseries::{Dataset, TimeSeries};

use crate::harness::{fmt_duration, Table};
use crate::workloads;

struct Row {
    points: usize,
    spring_total: Duration,
    spring_matches: usize,
    ucr_total: Duration,
    onex_total: Duration,
}

fn stream_with_plants(len: usize, pattern: &[f64], every: usize) -> Vec<f64> {
    // household_year samples hourly (24 points/day).
    let ds = workloads::household_year(len / 24 + 2);
    let base = ds.series(0).expect("household stream").values().to_vec();
    let mut stream: Vec<f64> = base[..len.min(base.len())].to_vec();
    let mut at = every;
    while at + pattern.len() < stream.len() {
        for (k, &p) in pattern.iter().enumerate() {
            stream[at + k] = p;
        }
        at += every;
    }
    stream
}

fn measure(len: usize, report_every: usize) -> Row {
    let pattern: Vec<f64> = (0..24)
        .map(|i| 2.0 + (i as f64 / 24.0 * std::f64::consts::TAU).sin() * 3.0)
        .collect();
    let stream = stream_with_plants(len, &pattern, len / 6);
    let eps = 1.5;

    // SPRING: one pass, exact, reports as the stream flows.
    let t0 = Instant::now();
    let mut mon = SpringMonitor::new(&pattern, eps).expect("valid pattern");
    let mut matches = 0usize;
    for &x in &stream {
        if mon.push(x).is_some() {
            matches += 1;
        }
    }
    if mon.finish().is_some() {
        matches += 1;
    }
    let spring_total = t0.elapsed();

    // UCR Suite re-scan at every report interval over the prefix so far.
    let cfg = DtwSearchConfig::default();
    let t0 = Instant::now();
    let mut at = report_every;
    while at <= stream.len() {
        let _ = ucr_dtw_search(&stream[..at], &pattern, &cfg);
        at += report_every;
    }
    let ucr_total = t0.elapsed();

    // ONEX: append each chunk to the base, re-query after each append.
    let t0 = Instant::now();
    let first = TimeSeries::new("stream", stream[..report_every].to_vec());
    let ds = Dataset::from_series(vec![first]).expect("non-empty");
    let base_cfg = BaseConfig::new(eps, pattern.len(), pattern.len());
    let (engine, _) = Onex::build(ds, base_cfg).expect("valid config");
    let opts = QueryOptions::default().top_groups(1);
    let mut at = report_every;
    while at + report_every <= stream.len() {
        let chunk = TimeSeries::new(
            format!("chunk-{at}"),
            stream[at..at + report_every].to_vec(),
        );
        engine.append_series(chunk).expect("append");
        let _ = engine.best_match(&pattern, &opts).unwrap();
        at += report_every;
    }
    let onex_total = t0.elapsed();

    Row {
        points: stream.len(),
        spring_total,
        spring_matches: matches,
        ucr_total,
        onex_total,
    }
}

/// Run the stream-length sweep.
pub fn run(quick: bool) -> Vec<Table> {
    let lens: &[usize] = if quick {
        &[2_000, 4_000]
    } else {
        &[2_000, 8_000, 32_000, 64_000]
    };
    let mut t = Table::new(
        "E10 stream monitoring: total cost to monitor one pattern (SPRING [7] vs UCR re-scan [6] vs ONEX incremental)",
        &[
            "stream points",
            "SPRING total",
            "SPRING ns/point",
            "matches",
            "UCR re-scan total",
            "ONEX incremental total",
            "re-scan / SPRING",
        ],
    );
    for &len in lens {
        let r = measure(len, len / 8);
        t.row(vec![
            r.points.to_string(),
            fmt_duration(r.spring_total),
            format!("{:.0}", r.spring_total.as_nanos() as f64 / r.points as f64),
            r.spring_matches.to_string(),
            fmt_duration(r.ucr_total),
            fmt_duration(r.onex_total),
            format!(
                "{:.1}x",
                r.ucr_total.as_secs_f64() / r.spring_total.as_secs_f64()
            ),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_rows() {
        let tables = run(true);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
    }

    #[test]
    fn planted_patterns_are_found() {
        let r = measure(2_000, 500);
        assert!(r.spring_matches >= 1, "no matches reported");
    }
}
