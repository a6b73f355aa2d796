//! A model of the paper's §3.1 admission rule over plain `Vec`s: the
//! oracle every construction path — build, parallel build, extension
//! through a throw-away or a resident index — is held to, group by
//! group and bit for bit. It shares no code with the builder:
//!
//! * windows in `SubsequenceSpace` order — length by length, then
//!   series-major, start-ascending, every `stride`-th start;
//! * the nearest representative by a linear scan with
//!   `ed_early_abandon_sq`, its bound tightened to the best `d²` so far:
//!   a finite `d²` only, strictly closer wins, so a tie goes to the
//!   lowest group id;
//! * no representative within the admission radius seeds a group;
//! * a group's radius is the running max of its admissions' `√d²`, and
//!   under `Centroid` its representative the running mean
//!   `r += (v − r)/k`.
//!
//! Included by `#[path]` where a test needs it; the including module
//! supplies `BaseConfig`, `OnexBase` and `RepresentativePolicy`.

#![allow(dead_code)] // every includer uses a different part

use onex_distance::ed::ed_early_abandon_sq;
use onex_tseries::{Dataset, SubseqRef};

use super::{BaseConfig, OnexBase, RepresentativePolicy};

/// One group as the model keeps it.
#[derive(Debug)]
pub struct Group {
    pub members: Vec<SubseqRef>,
    pub representative: Vec<f64>,
    pub radius: f64,
}

/// The base the model builds.
#[derive(Debug)]
pub struct Model {
    /// The groups of every length that has a window, ascending.
    pub lengths: Vec<(usize, Vec<Group>)>,
    /// Representatives the linear scan examined over the whole run: what
    /// a grid must examine or prune.
    pub scanned: usize,
}

/// Run the admission rule over every window of `ds` under `cfg`.
pub fn build(ds: &Dataset, cfg: &BaseConfig) -> Model {
    let centroid = cfg.policy == RepresentativePolicy::Centroid;
    let longest = ds.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut model = Model {
        lengths: Vec::new(),
        scanned: 0,
    };
    for len in cfg.min_len..=cfg.max_len.min(longest) {
        let admission = cfg.admission_radius(len);
        let radius_sq = admission * admission;
        let mut groups: Vec<Group> = Vec::new();
        for (sid, series) in ds.iter() {
            if series.len() < len {
                continue;
            }
            for start in (0..=series.len() - len).step_by(cfg.stride) {
                let member = SubseqRef::new(sid, start as u32, len as u32);
                let xs = ds.resolve(member).expect("a window of the series");
                model.scanned += groups.len();
                let mut best: Option<(usize, f64)> = None;
                for (gi, g) in groups.iter().enumerate() {
                    let bound_sq = best.map_or(radius_sq, |(_, b)| b);
                    let d_sq = ed_early_abandon_sq(xs, &g.representative, bound_sq);
                    if d_sq.is_finite() && best.is_none_or(|(_, b)| d_sq < b) {
                        best = Some((gi, d_sq));
                    }
                }
                let Some((gi, d_sq)) = best else {
                    groups.push(Group {
                        members: vec![member],
                        representative: xs.to_vec(),
                        radius: 0.0,
                    });
                    continue;
                };
                let g = &mut groups[gi];
                g.members.push(member);
                g.radius = g.radius.max(d_sq.sqrt());
                if centroid {
                    let k = g.members.len() as f64;
                    for (r, &v) in g.representative.iter_mut().zip(xs) {
                        *r += (v - *r) / k;
                    }
                }
            }
        }
        if !groups.is_empty() {
            model.lengths.push((len, groups));
        }
    }
    model
}

/// Panic, naming `what` and the first group that differs, unless `base`
/// holds the model's groups: the same lengths, and per group the same
/// members in order, representative bits and radius bits.
pub fn assert_matches(model: &Model, base: &OnexBase, what: &str) {
    let lengths: Vec<usize> = model.lengths.iter().map(|(len, _)| *len).collect();
    assert_eq!(base.lengths().collect::<Vec<_>>(), lengths, "{what}");
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (len, groups) in &model.lengths {
        let column = base.groups_for_len(*len);
        assert_eq!(column.len(), groups.len(), "{what}: groups of length {len}");
        for (gi, (got, want)) in column.iter().zip(groups).enumerate() {
            let at = format!("{what}: g{gi}@{len}");
            assert_eq!(got.members(), &want.members[..], "{at}: members");
            assert_eq!(
                bits(got.representative()),
                bits(&want.representative),
                "{at}: representative"
            );
            assert_eq!(
                got.radius().to_bits(),
                want.radius.to_bits(),
                "{at}: radius"
            );
        }
    }
}
