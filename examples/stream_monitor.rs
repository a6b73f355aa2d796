//! Live stream monitoring: watching an electricity feed for a usage
//! pattern with SPRING (paper reference [7]) while keeping the ONEX base
//! incrementally up to date for ad-hoc exploration.
//!
//! The demo paper positions ONEX against exact stream monitors: SPRING
//! answers *one fixed pattern* exactly in O(|pattern|) per point, while
//! ONEX answers *any* exploratory query over everything indexed so far.
//! A real deployment wants both — this example runs them side by side on
//! the same feed.
//!
//! ```sh
//! cargo run --example stream_monitor --release
//! ```

use onex::baselines::spring::SpringMonitor;
use onex::engine::{Onex, QueryOptions};
use onex::grouping::BaseConfig;
use onex::tseries::gen::{electricity_load, ElectricityConfig};
use onex::tseries::{Dataset, TimeSeries};
use onex::viz::ascii::sparkline;
use onex::viz::{StackedLines, StripScale};

fn main() {
    // The feed: four weeks of hourly consumption, arriving day by day.
    let feed = electricity_load(&ElectricityConfig {
        households: 1,
        days: 28,
        samples_per_day: 24,
        noise: 0.08,
        seed: 0x57AE,
    });
    let stream = feed.series(0).expect("one household").values().to_vec();

    // The pattern to watch for: an "evening peak" day shape.
    let pattern: Vec<f64> = (0..24)
        .map(|h| {
            let base = 0.4;
            let evening = (-((h as f64 - 19.0) / 2.5).powi(2)).exp() * 3.0;
            base + evening
        })
        .collect();
    println!("pattern to monitor: {}", sparkline(&pattern));

    let mut monitor = SpringMonitor::new(&pattern, 2.0).expect("valid pattern");

    // The exploratory side: a day-aligned ONEX base, extended per day.
    let first_day = TimeSeries::new("day-0", stream[..24].to_vec());
    let ds = Dataset::from_series(vec![first_day]).expect("non-empty");
    let (engine, _) = Onex::build(ds, BaseConfig::new(1.2, 24, 24)).expect("valid config");

    let mut found = Vec::new();
    for (t, &x) in stream.iter().enumerate() {
        if let Some(m) = monitor.push(x) {
            println!(
                "hour {:>4}: SPRING match at hours {}..={} (day {}), dtw {:.3}",
                t,
                m.start,
                m.end,
                m.start / 24,
                m.dist
            );
            found.push(m);
        }
        // A new day completes: extend the ONEX base.
        if t > 0 && t % 24 == 23 && t + 1 < stream.len() {
            let day = t / 24;
            if day >= 1 {
                let chunk = TimeSeries::new(
                    format!("day-{day}"),
                    stream[day * 24..(day + 1) * 24].to_vec(),
                );
                engine.append_series(chunk).expect("fresh day appends");
            }
        }
    }
    if let Some(m) = monitor.finish() {
        println!(
            "stream end: pending match at hours {}..={}, dtw {:.3}",
            m.start, m.end, m.dist
        );
        found.push(m);
    }
    let stats = monitor.stats();
    println!(
        "\nSPRING processed {} points with {} cell updates ({} per point)",
        stats.points,
        stats.cells,
        stats.cells / stats.points.max(1)
    );

    // Ad-hoc exploration over everything indexed so far: which indexed
    // day best matches the pattern, per the ONEX engine?
    let (best, qstats) = engine
        .best_match(&pattern, &QueryOptions::default())
        .unwrap();
    match best {
        Some(m) => println!(
            "ONEX ad-hoc query: best indexed day is {} (dtw {:.3}), {} DTW calls",
            m.series_name,
            m.distance,
            qstats.dtw_invocations()
        ),
        None => println!("ONEX ad-hoc query found no match"),
    }

    // Stacked view: the pattern strip above the matched days.
    let mut chart = StackedLines::new(640, 420, "pattern and SPRING-matched days")
        .add_series("pattern", &pattern)
        .scale(StripScale::PerSeries);
    for m in found.iter().take(4) {
        let day = m.start / 24;
        let lo = day * 24;
        let hi = (lo + 24).min(stream.len());
        chart = chart.add_series(format!("day {day}"), &stream[lo..hi]);
    }
    let svg = chart.render();
    let path = std::env::temp_dir().join("onex_stream_monitor.svg");
    std::fs::write(&path, svg).expect("write svg");
    println!("stacked view written to {}", path.display());
}
