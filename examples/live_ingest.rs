//! Ingest while querying: a SPRING monitor watches the live feed and a
//! writer thread appends each completed day to the ONEX base, while
//! analyst threads keep running ad-hoc queries the whole time.
//!
//! This is the demo paper's deployment story under write load. The
//! engine's snapshot-versioned base makes it safe: every query pins one
//! published epoch (an immutable dataset/base pair) for its whole run,
//! appends build the next epoch off to the side and publish it
//! atomically, and readers never block and never observe a
//! half-extended base. The analyst threads print the epoch each answer
//! was pinned to, so you can watch the collection grow mid-query.
//!
//! ```sh
//! cargo run --example live_ingest --release
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use onex::baselines::spring::SpringMonitor;
use onex::engine::{Onex, QueryOptions};
use onex::grouping::BaseConfig;
use onex::tseries::gen::{electricity_load, ElectricityConfig};
use onex::tseries::{Dataset, TimeSeries};
use onex::viz::ascii::sparkline;

const HOURS: usize = 24;
const WARM_DAYS: usize = 7;

fn main() {
    // The feed: six weeks of hourly consumption for one household, of
    // which the first week is already indexed before the stream starts.
    let feed = electricity_load(&ElectricityConfig {
        households: 1,
        days: 42,
        samples_per_day: HOURS,
        noise: 0.08,
        seed: 0x11FE,
    });
    let stream = feed.series(0).expect("one household").values().to_vec();

    let warm: Vec<TimeSeries> = (0..WARM_DAYS)
        .map(|d| {
            TimeSeries::new(
                format!("day-{d}"),
                stream[d * HOURS..(d + 1) * HOURS].to_vec(),
            )
        })
        .collect();
    let ds = Dataset::from_series(warm).expect("non-empty");
    let (engine, _) = Onex::build(ds, BaseConfig::new(1.2, HOURS, HOURS)).expect("valid config");
    let engine = Arc::new(engine);
    println!(
        "indexed {WARM_DAYS} days up front; epoch {} published",
        engine.epoch()
    );

    // The pattern both sides care about: an "evening peak" day shape.
    let pattern: Vec<f64> = (0..HOURS)
        .map(|h| 0.4 + (-((h as f64 - 19.0) / 2.5).powi(2)).exp() * 3.0)
        .collect();
    println!("pattern: {}", sparkline(&pattern));

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The writer: streams the remaining hours through SPRING and
        // appends every completed day. Each append builds the next base
        // aside and publishes it as a new epoch; readers are untouched.
        let writer = Arc::clone(&engine);
        let spring_pattern = pattern.clone();
        let feed = &stream;
        let done_flag = &done;
        scope.spawn(move || {
            let mut monitor = SpringMonitor::new(&spring_pattern, 2.0).expect("valid pattern");
            for (t, &x) in feed.iter().enumerate().skip(WARM_DAYS * HOURS) {
                if let Some(m) = monitor.push(x) {
                    println!(
                        "[writer ] hour {t:>4}: SPRING match, hours {}..={} (dtw {:.3})",
                        m.start, m.end, m.dist
                    );
                }
                if (t + 1) % HOURS == 0 {
                    let day = t / HOURS;
                    let chunk = TimeSeries::new(
                        format!("day-{day}"),
                        feed[day * HOURS..(day + 1) * HOURS].to_vec(),
                    );
                    writer.append_series(chunk).expect("fresh day appends");
                    println!(
                        "[writer ] day {day} indexed — epoch {} published",
                        writer.epoch()
                    );
                }
            }
            done_flag.store(true, Ordering::SeqCst);
        });

        // The analysts: ad-hoc exploration the whole time the ingest
        // runs. Each query pins one snapshot; the answer is consistent
        // with exactly that epoch however many appends land meanwhile.
        for analyst in 0..2 {
            let reader = Arc::clone(&engine);
            let q = pattern.clone();
            let done = &done;
            scope.spawn(move || {
                let mut last = (0u64, 0usize);
                while !done.load(Ordering::SeqCst) {
                    let snap = reader.snapshot();
                    let (matches, stats) = snap
                        .k_best(&q, 3, &QueryOptions::default())
                        .expect("pinned query");
                    let now = (snap.epoch(), snap.dataset().len());
                    if now != last {
                        let best = matches
                            .first()
                            .map(|m| format!("{} (dtw {:.3})", m.series_name, m.distance))
                            .unwrap_or_else(|| "none".into());
                        println!(
                            "[query-{analyst}] epoch {:>2} pins {:>2} days: best {} after {} DTW calls",
                            now.0,
                            now.1,
                            best,
                            stats.dtw_invocations()
                        );
                        last = now;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
    });

    // Quiesced: the final epoch holds every streamed day.
    let snap = engine.snapshot();
    println!(
        "\nstream drained: epoch {} holds {} days; {} lifetime DTW calls served",
        snap.epoch(),
        snap.dataset().len(),
        engine.lifetime_stats().dtw_invocations()
    );
}
