//! Is an answer right? Served top-k lists are compared with the exhaustive
//! scan by their ranking values, not by which window carries them: two
//! windows at the same distance may legitimately swap places.

use onex_core::{exhaustive, LengthSelection, QueryOptions};
use onex_tseries::Dataset;

use crate::json::Json;
use crate::spec::{Window, Workload, K};

/// The options every `/api/match` backend searches under, with or without
/// the query's own series.
pub fn match_options(exclude: Option<u32>) -> QueryOptions {
    QueryOptions::default()
        .lengths(LengthSelection::Nearest(3))
        .excluding_series(exclude)
}

/// Length-normalised distance, the value matches of different lengths are
/// ranked by.
pub fn rank(distance: f64, query_len: usize, match_len: usize) -> f64 {
    distance / (query_len.max(match_len) as f64).sqrt()
}

/// A 200 `/api/match` body, accepted: parsable, `K` matches, full coverage.
pub struct Served {
    pub json: Json,
    /// Ranking values, ascending.
    pub ranks: Vec<f64>,
}

pub fn served(body: &str, query_len: usize) -> Result<Served, String> {
    let json = Json::parse(body)?;
    let matches = json
        .get("matches")
        .and_then(Json::arr)
        .ok_or("answer without matches")?;
    if matches.len() < K {
        return Err(format!("{} matches, wanted {K}", matches.len()));
    }
    if json.path("coverage.degraded") == Some(&Json::Bool(true)) {
        return Err("degraded answer".into());
    }
    let mut ranks = Vec::with_capacity(matches.len());
    for m in matches {
        let field = |name: &str| m.get(name).and_then(Json::num);
        match (field("distance"), field("len")) {
            (Some(d), Some(len)) => ranks.push(rank(d, query_len, len as usize)),
            _ => return Err("match without distance or len".into()),
        }
    }
    ranks.sort_by(f64::total_cmp);
    Ok(Served { json, ranks })
}

/// Tie-aware equality: the same multiset of ranking values, each within 1e-9
/// relative (both lists ascending).
pub fn same_ranks(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0))
}

/// Ranking values of the true top-k by exhaustive scan over the lengths and
/// exclusion the served query ran under.
pub fn oracle(
    dataset: &Dataset,
    w: &Workload,
    window: &Window,
    exclude_own: bool,
) -> Result<Vec<f64>, String> {
    let query = window.values(dataset);
    let opts = match_options(exclude_own.then_some(window.series as u32));
    let lengths = w.candidate_lengths(query.len());
    let hits = exhaustive::scan_k(dataset, query, &lengths, 1, &opts, K, true)
        .map_err(|e| e.to_string())?;
    Ok(hits.iter().map(|h| h.normalized).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_compare_by_value_not_by_identity() {
        assert!(same_ranks(&[0.5, 0.5, 1.0], &[0.5, 0.5, 1.0 + 5e-10]));
        assert!(!same_ranks(&[0.5, 0.5, 1.0], &[0.5, 0.6, 1.0]));
        assert!(!same_ranks(&[0.5, 1.0], &[0.5, 1.0, 1.0]));
        assert!(same_ranks(&[0.0], &[1e-12]));
        assert!(same_ranks(&[], &[]));
    }

    #[test]
    fn served_answers_are_vetted() {
        let m = r#"{"series":"a","start":0,"len":16,"distance":2}"#;
        let five = [m; 5].join(",");
        let ok = served(&format!(r#"{{"matches":[{five}]}}"#), 16).unwrap();
        assert_eq!(ok.ranks, vec![0.5; 5]);
        assert!(served(&format!(r#"{{"matches":[{m}]}}"#), 16).is_err());
        assert!(served("not json", 16).is_err());
        let degraded = format!(r#"{{"matches":[{five}],"coverage":{{"degraded":true}}}}"#);
        assert!(served(&degraded, 16).is_err());
    }
}
