//! The standard workloads every experiment draws from. Seeds are fixed so
//! `repro` output is stable run to run.

use onex_tseries::gen::{
    clustered_dataset, electricity_load, matters_collection, sine_mix_dataset, ElectricityConfig,
    Indicator, MattersConfig, SyntheticConfig,
};
use onex_tseries::{Dataset, TimeSeries};

/// MATTERS growth rates: 50 states × 16 annual observations.
pub fn growth_rates() -> Dataset {
    matters_collection(&MattersConfig {
        indicators: vec![Indicator::GrowthRate],
        ..MattersConfig::default()
    })
}

/// MATTERS unemployment: same panel, head-count scale (for E8's threshold
/// contrast).
pub fn unemployment() -> Dataset {
    matters_collection(&MattersConfig {
        indicators: vec![Indicator::Unemployment],
        ..MattersConfig::default()
    })
}

/// MATTERS tech employment with a longer panel (for the Fig 3 views).
pub fn tech_employment() -> Dataset {
    matters_collection(&MattersConfig {
        indicators: vec![Indicator::TechEmployment],
        years: 24,
        ..MattersConfig::default()
    })
}

/// One household's hourly load for a year (Fig 4 workload).
pub fn household_year(days: usize) -> Dataset {
    electricity_load(&ElectricityConfig {
        households: 1,
        days,
        samples_per_day: 24,
        noise: 0.06,
        seed: 0xE1EC,
    })
}

/// A groupable collection for the speed experiments: series fall into 8
/// shape families with small jitter, the regime the ONEX base compacts
/// best — mirroring the periodic UCR-archive data the original evaluation
/// used (many recordings of a few underlying processes).
pub fn sine_collection(series: usize, len: usize) -> Dataset {
    clustered_dataset(
        SyntheticConfig {
            series,
            len,
            seed: 0x51E5,
        },
        8,
        0.08,
    )
}

/// Fully independent sine mixtures (no shared families) for tests that
/// need diverse but smooth series.
pub fn diverse_sines(series: usize, len: usize) -> Dataset {
    sine_mix_dataset(
        SyntheticConfig {
            series,
            len,
            seed: 0x51E5,
        },
        3,
        0.25,
    )
}

/// A hard-to-group collection (independent random walks) used as the
/// adversarial counterpart in E5/E7.
pub fn walk_collection(series: usize, len: usize) -> Dataset {
    onex_tseries::gen::random_walk_dataset(SyntheticConfig {
        series,
        len,
        seed: 0x1A1C,
    })
}

/// White noise — i.i.d. N(0, 1) samples, the increments of
/// [`walk_collection`]'s walks. No two windows are near each other and
/// all of them have nearly the same means: the regime in which no
/// summary of a window can stand in for comparing it (E12).
pub fn noise_collection(series: usize, len: usize) -> Dataset {
    let walks = walk_collection(series, len);
    let noise = walks.iter().map(|(_, walk)| {
        let steps = walk.values().iter().scan(0.0, |at, &x| {
            let step = x - *at;
            *at = x;
            Some(step)
        });
        TimeSeries::new(walk.name(), steps.collect::<Vec<f64>>())
    });
    Dataset::from_series(noise.collect()).expect("walk names are unique")
}

/// `count` near-miss queries of `len` points ([`perturbed_query`], noise
/// 0.05): query `i` is cut from series `i · series_step` at offset
/// `i · start_step`, each wrapped to fit, each a near miss rather than a
/// stored window.
pub fn spread_queries(
    ds: &Dataset,
    count: usize,
    len: usize,
    (series_step, start_step): (usize, usize),
) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            let series = ds
                .series((i * series_step % ds.len()) as u32)
                .expect("wrapped id");
            let start = (i * start_step) % (series.len() - len);
            perturbed_query(ds, series.name(), start, len, 0.05)
        })
        .collect()
}

/// Cut a query of `len` starting at `start` from a named series, with a
/// small deterministic perturbation so queries are near-misses rather than
/// exact members (the realistic analyst case).
pub fn perturbed_query(ds: &Dataset, series: &str, start: usize, len: usize, eps: f64) -> Vec<f64> {
    let s = ds.by_name(series).expect("workload series exists");
    let window = s.subsequence(start, len).expect("window in bounds");
    window
        .iter()
        .enumerate()
        .map(|(i, &v)| v + eps * ((i as f64 * 2.7 + start as f64).sin()))
        .collect()
}

/// Cut a window and apply a *local time warp*: the window is resampled
/// with a sinusoidally varying speed (fast first half, slow second half by
/// `strength`), then lightly value-perturbed. This is the regime the
/// paper's accuracy claim lives in — the true best match requires genuine
/// warping, which a narrow Sakoe–Chiba band cannot express.
pub fn warped_query(
    ds: &Dataset,
    series: &str,
    start: usize,
    len: usize,
    strength: f64,
    eps: f64,
) -> Vec<f64> {
    let s = ds.by_name(series).expect("workload series exists");
    // Source window slightly longer than the query so warping has room.
    let src_len = len + (len as f64 * strength).ceil() as usize + 1;
    let window = s
        .subsequence(start, src_len.min(s.len() - start))
        .expect("window in bounds");
    let m = window.len();
    (0..len)
        .map(|i| {
            // Monotone warp map [0,1] → [0,1]: u + strength·sin(πu)·u(1−u).
            let u = i as f64 / (len - 1).max(1) as f64;
            let warped =
                (u + strength * (std::f64::consts::PI * u).sin() * u * (1.0 - u)).clamp(0.0, 1.0);
            let pos = warped * (m - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            let v = window[lo] + (window[hi.min(m - 1)] - window[lo]) * frac;
            v + eps * ((i as f64 * 2.3 + start as f64).cos())
        })
        .collect()
}

/// Concatenate a dataset into one long series (the UCR Suite's native
/// input form) — series joined end to end.
pub fn concatenated(ds: &Dataset) -> TimeSeries {
    let mut values = Vec::with_capacity(ds.total_samples());
    for (_, s) in ds.iter() {
        values.extend_from_slice(s.values());
    }
    TimeSeries::new("concatenated", values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        assert_eq!(growth_rates().len(), 50);
        assert_eq!(unemployment().len(), 50);
        assert_eq!(
            tech_employment()
                .by_name("MA-TechEmployment")
                .unwrap()
                .len(),
            24
        );
        assert_eq!(household_year(30).series(0).unwrap().len(), 30 * 24);
        assert_eq!(sine_collection(10, 64).len(), 10);
        assert_eq!(walk_collection(5, 32).series(0).unwrap().len(), 32);
    }

    #[test]
    fn perturbed_query_is_near_but_not_exact() {
        let ds = growth_rates();
        let q = perturbed_query(&ds, "MA-GrowthRate", 4, 8, 0.05);
        let w = ds
            .by_name("MA-GrowthRate")
            .unwrap()
            .subsequence(4, 8)
            .unwrap();
        let dist = onex_distance::ed(&q, w);
        assert!(dist > 0.0 && dist < 1.0, "perturbation is small: {dist}");
    }

    #[test]
    fn concatenation_preserves_sample_count() {
        let ds = sine_collection(4, 32);
        assert_eq!(concatenated(&ds).len(), 4 * 32);
    }

    #[test]
    fn warped_query_needs_warping() {
        use onex_distance::{dtw, Band};
        let ds = sine_collection(4, 96);
        let name = ds.series(0).unwrap().name().to_owned();
        let q = warped_query(&ds, &name, 10, 24, 0.5, 0.02);
        assert_eq!(q.len(), 24);
        let w = ds.series(0).unwrap().subsequence(10, 24).unwrap();
        let unconstrained = dtw(&q, w, Band::Full);
        let tight = dtw(&q, w, Band::SakoeChiba(1));
        assert!(
            unconstrained < tight * 0.9,
            "warping must matter: full {unconstrained} vs banded {tight}"
        );
    }
}
