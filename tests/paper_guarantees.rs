//! The formal guarantees the demo paper states, tested as written.
//!
//! §3.1: groups "contain sequences that are similar to each other within
//! the similarity threshold ST, while each sequence is similar to the
//! representative within half of the similarity threshold."
//!
//! §3.2: "the best match to a sample sequence seq is found in the group
//! with the 'best match representative' and the DTW between seq and its
//! best match is always within the similarity threshold ST" — the second
//! clause holding in the regime the demo operates in (the query is a
//! lightly perturbed member of the collection, so its own group contains
//! it).

use onex::distance::bounds::{dtw_upper_via_representative, warp_multiplicity};
use onex::distance::{dtw, ed, Band};
use onex::engine::{Onex, QueryOptions};
use onex::grouping::{BaseConfig, RepresentativePolicy};
use onex::tseries::gen::{clustered_dataset, SyntheticConfig};

fn engine(st: f64) -> Onex {
    let ds = clustered_dataset(
        SyntheticConfig {
            series: 16,
            len: 64,
            seed: 97,
        },
        4,
        0.05,
    );
    let cfg = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(st, 16, 16)
    };
    let (e, _) = Onex::build(ds, cfg).unwrap();
    e
}

#[test]
fn section_3_1_group_invariants() {
    let e = engine(0.4);
    let ds = e.dataset();
    for len in e.base().lengths() {
        let admission = e.base().config().admission_radius(len);
        let pairwise = e.base().config().pairwise_threshold(len);
        for g in e.base().groups_for_len(len) {
            let members: Vec<&[f64]> = g.members().iter().map(|m| ds.resolve(m).unwrap()).collect();
            // Each member within ST/2 of the representative.
            for m in &members {
                assert!(ed(m, g.representative()) <= admission + 1e-9);
            }
            // Any two members within ST of each other (check full pairwise
            // on small groups, a spot sample on large ones).
            let limit = members.len().min(8);
            for i in 0..limit {
                for j in i + 1..limit {
                    assert!(
                        ed(members[i], members[j]) <= pairwise + 1e-9,
                        "pairwise ST violated at len {len}"
                    );
                }
            }
        }
    }
}

#[test]
fn section_3_2_best_group_bound() {
    // For the paper's top-1 query mode, the returned distance obeys the
    // bridge bound: DTW(q, answer) ≤ DTW(q, best representative) + √W·r,
    // where r is the certified radius of the winning group.
    let e = engine(0.4);
    let ds = e.dataset();
    let opts = QueryOptions::default().top_groups(1);
    for (sid, start) in [(0u32, 3usize), (5, 20), (11, 40), (15, 0)] {
        let mut query = ds
            .series(sid)
            .unwrap()
            .subsequence(start, 16)
            .unwrap()
            .to_vec();
        for (i, v) in query.iter_mut().enumerate() {
            *v += 0.02 * ((i as f64) * 1.1).sin();
        }
        let (m, _) = e.best_match(&query, &opts).unwrap();
        let m = m.unwrap();
        // Recompute the winning group's representative distance and radius.
        let base = e.base();
        let group = base.group(m.group).unwrap();
        let d_rep = dtw(&query, group.representative(), Band::Full);
        let w = warp_multiplicity(query.len(), group.len(), Band::Full);
        let bound = dtw_upper_via_representative(d_rep, group.radius(), w);
        assert!(
            m.distance <= bound + 1e-9,
            "answer {} above the bridge bound {bound}",
            m.distance
        );
    }
}

#[test]
fn section_3_2_member_query_within_st() {
    // A query that *is* a member (the analyst brushes a window of the
    // data) must come back with DTW ≤ ST — trivially, distance 0 to
    // itself; and even in the paper's top-1 mode the winning group is its
    // own group, whose every member is within the bridge reach.
    let e = engine(0.4);
    let ds = e.dataset();
    let st_raw = e.base().config().pairwise_threshold(16);
    for (sid, start) in [(2u32, 10usize), (7, 30), (13, 48)] {
        let query = ds
            .series(sid)
            .unwrap()
            .subsequence(start, 16)
            .unwrap()
            .to_vec();
        let (m, _) = e
            .best_match(&query, &QueryOptions::default().top_groups(1))
            .unwrap();
        let m = m.unwrap();
        assert!(
            m.distance <= st_raw + 1e-9,
            "member query answered at {} > ST {st_raw}",
            m.distance
        );
    }
}
