//! Base files through the live mutation path: a base saved *after*
//! `append_series` must cold-start back to the exact same engine — the
//! L0 sketches byte-identical (v2 persists them verbatim under
//! their frozen quantisation parameters, so a loaded base prunes with
//! the same rejections, not statistically similar ones) and the top-k
//! unchanged whether the L0 prefilter is on or off.

use onex::engine::{Match, Onex, QueryOptions};
use onex::grouping::BaseConfig;
use onex::tseries::gen::{random_walk_dataset, SyntheticConfig};
use onex::tseries::TimeSeries;

const K: usize = 4;

fn windows(matches: &[Match]) -> Vec<(u32, u32, u32, String)> {
    matches
        .iter()
        .map(|m| {
            (
                m.subseq.series,
                m.subseq.start,
                m.subseq.len,
                format!("{:.12}", m.distance),
            )
        })
        .collect()
}

#[test]
fn base_saved_after_appends_reloads_with_identical_sketches_and_topk() {
    let ds = random_walk_dataset(SyntheticConfig {
        series: 8,
        len: 48,
        seed: 0xBA5EF11E,
    });
    let (engine, _) = Onex::build(ds, BaseConfig::new(0.8, 8, 16)).expect("valid config");

    // Grow the base through the live path — the saved file must capture
    // the *extended* engine, including sketch slots appended for the new
    // members under the per-length parameters frozen at first sync.
    for (i, seed) in [0x0Au64, 0x0B].iter().enumerate() {
        let mut x = *seed as f64 / 7.0;
        let values: Vec<f64> = (0..48)
            .map(|t| {
                x += ((t as f64 * 0.37 + *seed as f64).sin()) * 0.5;
                x
            })
            .collect();
        engine
            .append_series(TimeSeries::new(format!("appended-{i}"), values))
            .expect("valid series");
    }

    let dir = std::env::temp_dir().join("onex_base_files_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("after_append.onexbase");
    engine.save_base(&path).expect("writable temp dir");

    let reloaded = Onex::open(&path, engine.dataset().clone()).expect("own file");
    reloaded.resolve_all().expect("own file");
    std::fs::remove_file(&path).ok();

    // The sketch index is byte-exact (PartialEq over planes + params):
    // nothing was re-quantised on the way through the file.
    assert_eq!(
        *reloaded.base().sketches(),
        *engine.base().sketches(),
        "reloaded sketches must be byte-identical to the saved engine's"
    );
    assert_eq!(*reloaded.base(), *engine.base(), "full base round-trips");

    // Top-k equality across the reload, with the L0 prefilter on and
    // off: the prefilter is an optimisation, never an approximation, and
    // the persisted sketches must not change which candidates survive.
    let query: Vec<f64> = engine.dataset().series(8).unwrap().values()[3..15].to_vec();
    let on = QueryOptions::default();
    let off = QueryOptions::default().without_l0();
    let reference = windows(&engine.k_best(&query, K, &on).expect("valid query").0);
    assert!(!reference.is_empty(), "the query must actually match");
    for (label, engine_under_test, opts) in [
        ("saved engine, L0 off", &engine, &off),
        ("reloaded, L0 on", &reloaded, &on),
        ("reloaded, L0 off", &reloaded, &off),
    ] {
        let got = windows(
            &engine_under_test
                .k_best(&query, K, opts)
                .expect("valid query")
                .0,
        );
        assert_eq!(got, reference, "{label}: top-{K} diverged");
    }
}
