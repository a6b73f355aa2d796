//! The base image layout on [`onex_storage`].
//!
//! One [`onex_storage::Segment`] with six sections, every record
//! fixed-stride and little-endian so any column can be located by
//! arithmetic alone:
//!
//! | section    | stride | record                                                  |
//! |------------|--------|---------------------------------------------------------|
//! | `CONFIG`   | 40 B   | st f64, min/max_len u32, stride u32, policy u8, normalized u8, layout u8, pad u8, source_series u64, dataset u64 |
//! | `LENGTHS`  | 64 B   | len, group_start, group_count, member_start, member_count, rep_start (all u64), sketch vmin f64, step f64 |
//! | `GROUPS`   | 24 B   | rep u64 (record index into `REPS`, or `u64::MAX`: none), member_count u64, radius f64 |
//! | `REPS`     | 8 B    | the samples of every mean a group owns, f64, in group order |
//! | `MEMBERS`  | 8 B    | series u32, start u32                                   |
//! | `SKETCHES` | 24 B   | one L0 sketch record per member of a group of two and more, in `MEMBERS` order |
//!
//! `*_start` and `rep` fields are record indices (not byte offsets) into
//! the target section; groups, members, means and sketches are laid out
//! contiguously in (length asc, group asc, admission) order, so one
//! length's entire column is a single slice of each section, and
//! [`BaseSegment::decode`] reads every section once, front to back, with
//! a running cursor each. A length's slice of `REPS` ends where the next
//! length's starts; `SKETCHES` has no start in the table: its records
//! follow the groups of two and more in order.
//!
//! `REPS` holds only what the dataset does not: the means of the
//! `Centroid` groups whose representative drifted. Every other group —
//! every `Seed` group, every group of one — has its first member's window
//! for representative, and the decoder reads that window in place from
//! the dataset beside it. `CONFIG`'s `dataset` field is an FNV-1a over the
//! first `source_series` series of the dataset the base was built over
//! (each one's length, then its samples' bits), and an image opened
//! beside any other dataset is refused ([`BaseSegment::decode`]).
//! `layout` is 2. Layout 1 kept a sketch record for every member, a
//! group of one's included; images written before the field existed hold
//! 0 there. Both are refused as an unsupported version.
//!
//! `SKETCHES` and the per-length quantisation parameters in `LENGTHS`
//! restore the sketches *verbatim*, preserving the frozen
//! [`SketchParams`] so appended members keep encoding under the same
//! quantisation. The section is an array of 24-byte records whatever the
//! base holds in memory: the decode transposes each group's run of records
//! into the group's own planes as it copies them, deriving the planes'
//! zones (one per 64 members) from the records and the members' series,
//! and a save writes records back: zones are never stored, so the image
//! is the one a base without them wrote. A group of one has no record: it
//! keeps no sketch.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use onex_api::{OnexError, StorageErrorKind};
use onex_distance::{SketchParams, SKETCH_STRIDE};
use onex_storage::{put_f64, put_u32, put_u64, put_u8, Fnv1a, Segment, SegmentBuilder};
use onex_tseries::{Dataset, TimeSeries};

use crate::group::{series_table, Member};
use crate::{BaseConfig, GroupColumn, OnexBase, RepresentativePolicy};

/// Section id: the fixed-size configuration record.
pub const SEC_CONFIG: u32 = 1;
/// Section id: the per-length table.
pub const SEC_LENGTHS: u32 = 2;
/// Section id: group records.
pub const SEC_GROUPS: u32 = 3;
/// Section id: the means groups own (f64 samples).
pub const SEC_REPS: u32 = 4;
/// Section id: member references.
pub const SEC_MEMBERS: u32 = 5;
/// Section id: L0 sketch records of the members of groups of two and more.
pub const SEC_SKETCHES: u32 = 6;

/// The layout of the sections above, recorded in `CONFIG`.
const BASE_LAYOUT: u8 = 2;

const CONFIG_BYTES: usize = 40;
const LENGTH_STRIDE: usize = 64;
const GROUP_STRIDE: usize = 24;
const MEMBER_STRIDE: usize = 8;

/// A `GROUPS` record's `rep` for a group that owns no mean.
const NO_REP: u64 = u64::MAX;

/// Human-readable name of a section id (`repro --inspect-base`).
pub fn section_name(id: u32) -> &'static str {
    match id {
        SEC_CONFIG => "CONFIG",
        SEC_LENGTHS => "LENGTHS",
        SEC_GROUPS => "GROUPS",
        SEC_REPS => "REPS",
        SEC_MEMBERS => "MEMBERS",
        SEC_SKETCHES => "SKETCHES",
        _ => "UNKNOWN",
    }
}

fn corrupt(msg: impl Into<String>) -> OnexError {
    OnexError::storage(
        StorageErrorKind::Corrupt,
        format!("base image: {}", msg.into()),
    )
}

/// FNV-1a over `series`: each one's length, then its samples' bits.
fn fingerprint<'a>(series: impl Iterator<Item = &'a TimeSeries>) -> u64 {
    let mut hash = Fnv1a::default();
    for s in series {
        hash.update(&(s.len() as u64).to_le_bytes());
        for v in s.values() {
            hash.update(&v.to_bits().to_le_bytes());
        }
    }
    hash.finish()
}

/// Serialise a base as a segment image.
///
/// # Panics
/// When a group's sketches do not cover its members — never for a base
/// a [`crate::BaseBuilder`] built or extended, or one decoded from an
/// image: every construction path ends with a sketch sync.
pub fn save_v2(base: &OnexBase) -> Vec<u8> {
    let cfg = base.config();
    let mut lengths_sec = Vec::new();
    let mut groups_sec = Vec::new();
    let mut reps_sec = Vec::new();
    let mut members_sec = Vec::new();
    let mut sketches_sec = Vec::new();
    let (mut group_cursor, mut member_cursor, mut rep_cursor) = (0u64, 0u64, 0u64);
    for len in base.lengths() {
        let gs = base.groups_for_len(len);
        let params = gs.params().expect("every column is sketched");
        let member_count: usize = gs.iter().map(|g| g.cardinality()).sum();
        put_u64(&mut lengths_sec, len as u64);
        put_u64(&mut lengths_sec, group_cursor);
        put_u64(&mut lengths_sec, gs.len() as u64);
        put_u64(&mut lengths_sec, member_cursor);
        put_u64(&mut lengths_sec, member_count as u64);
        put_u64(&mut lengths_sec, rep_cursor);
        put_f64(&mut lengths_sec, params.vmin);
        put_f64(&mut lengths_sec, params.step);
        for g in gs {
            match g.own_representative() {
                Some(mean) => {
                    put_u64(&mut groups_sec, rep_cursor);
                    mean.iter().for_each(|&v| put_f64(&mut reps_sec, v));
                    rep_cursor += len as u64;
                }
                None => put_u64(&mut groups_sec, NO_REP),
            }
            put_u64(&mut groups_sec, g.cardinality() as u64);
            put_f64(&mut groups_sec, g.radius());
            for m in g.members() {
                put_u32(&mut members_sec, m.series);
                put_u32(&mut members_sec, m.start);
            }
            if g.cardinality() > 1 {
                let planes = g.planes().expect("every member is sketched");
                planes.write_records(&mut sketches_sec);
            }
            member_cursor += g.cardinality() as u64;
        }
        group_cursor += gs.len() as u64;
    }

    let mut config_sec = Vec::with_capacity(CONFIG_BYTES);
    put_f64(&mut config_sec, cfg.st);
    put_u32(&mut config_sec, cfg.min_len as u32);
    put_u32(&mut config_sec, cfg.max_len as u32);
    put_u32(&mut config_sec, cfg.stride as u32);
    put_u8(
        &mut config_sec,
        match cfg.policy {
            RepresentativePolicy::Centroid => 0,
            RepresentativePolicy::Seed => 1,
        },
    );
    put_u8(&mut config_sec, cfg.length_normalized as u8);
    put_u8(&mut config_sec, BASE_LAYOUT);
    put_u8(&mut config_sec, 0);
    put_u64(&mut config_sec, base.source_series() as u64);
    put_u64(
        &mut config_sec,
        fingerprint(base.series().iter().map(|s| &**s)),
    );
    debug_assert_eq!(config_sec.len(), CONFIG_BYTES);

    let mut b = SegmentBuilder::new();
    b.section(SEC_CONFIG, config_sec);
    b.section(SEC_LENGTHS, lengths_sec);
    b.section(SEC_GROUPS, groups_sec);
    b.section(SEC_REPS, reps_sec);
    b.section(SEC_MEMBERS, members_sec);
    b.section(SEC_SKETCHES, sketches_sec);
    b.finish()
}

/// Save a base to `path` as a segment image.
///
/// # Errors
/// [`OnexError::Io`] if the file cannot be written.
pub fn save_v2_file(base: &OnexBase, path: impl AsRef<Path>) -> Result<(), OnexError> {
    std::fs::write(path, save_v2(base))?;
    Ok(())
}

/// One validated `LENGTHS` entry (record indices into the sections).
#[derive(Debug, Clone, Copy)]
struct LengthEntry {
    len: usize,
    group_start: usize,
    group_count: usize,
    member_start: usize,
    member_count: usize,
    rep_start: usize,
    /// Where the length's means end in `REPS`: the next length's
    /// `rep_start`, or the end of the section.
    rep_end: usize,
    vmin: f64,
    step: f64,
}

/// A validated base image: configuration and length table decoded (they
/// are a few dozen bytes per length), group columns still encoded until
/// [`BaseSegment::decode`] turns the whole image into a base beside its
/// dataset — what `Onex::open` does before it answers anything.
#[derive(Debug)]
pub struct BaseSegment {
    seg: Segment,
    config: BaseConfig,
    source_series: usize,
    /// `CONFIG`'s fingerprint of the dataset the base was built over.
    dataset: u64,
    lengths: Vec<LengthEntry>,
}

impl BaseSegment {
    /// Open and validate a base image file without decoding a column.
    ///
    /// # Errors
    /// [`OnexError::Io`] if reading fails; [`OnexError::Storage`] if
    /// the bytes are not a valid base image.
    pub fn open(path: impl AsRef<Path>) -> Result<BaseSegment, OnexError> {
        BaseSegment::from_bytes(std::fs::read(path)?)
    }

    /// Validate an in-memory base image (see [`BaseSegment::open`]).
    ///
    /// Container-level structure and checksums are verified by
    /// [`Segment::from_bytes`]; this layer then decodes the fixed-size
    /// `CONFIG` record and the `LENGTHS` table and cross-checks that the
    /// per-length column spans tile the `GROUPS`/`REPS`/`MEMBERS`
    /// sections exactly — so [`BaseSegment::decode`] can walk them with
    /// running cursors. `SKETCHES` it finds present; whether its records
    /// add up to the groups of two and more, the decode checks.
    ///
    /// # Errors
    /// [`OnexError::Storage`] describing the first violated rule:
    /// `UnsupportedVersion` for an image in another layout, `Corrupt`
    /// for a missing section or spans that do not tile.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<BaseSegment, OnexError> {
        let seg = Segment::from_bytes(bytes)?;
        let sec = |id: u32| {
            seg.section(id)
                .ok_or_else(|| corrupt(format!("missing section {}", section_name(id))))
        };

        let config_sec = sec(SEC_CONFIG)?;
        if config_sec.len() != CONFIG_BYTES {
            return Err(corrupt(format!(
                "CONFIG is {} bytes, expected {CONFIG_BYTES}",
                config_sec.len()
            )));
        }
        let mut r = onex_storage::Reader::new(config_sec, "section CONFIG");
        let st = r.f64()?;
        let min_len = r.u32()? as usize;
        let max_len = r.u32()? as usize;
        let stride = r.u32()? as usize;
        let (policy, length_normalized, layout) = (r.u8()?, r.u8()?, r.u8()?);
        r.u8()?;
        let source_series = usize::try_from(r.u64()?)
            .map_err(|_| corrupt("source_series does not fit this platform"))?;
        let dataset = r.u64()?;
        r.finish()?;
        if layout != BASE_LAYOUT {
            return Err(OnexError::storage(
                StorageErrorKind::UnsupportedVersion,
                format!(
                    "base image in layout {layout}; this build reads layout {BASE_LAYOUT} \
                     (rebuild the base and save it again)"
                ),
            ));
        }
        let policy = match policy {
            0 => RepresentativePolicy::Centroid,
            1 => RepresentativePolicy::Seed,
            other => {
                return Err(corrupt(format!(
                    "unknown representative policy tag {other}"
                )))
            }
        };
        let length_normalized = match length_normalized {
            0 => false,
            1 => true,
            other => {
                return Err(corrupt(format!(
                    "bad boolean tag {other} for length_normalized"
                )))
            }
        };
        let config = BaseConfig {
            st,
            min_len,
            max_len,
            stride,
            policy,
            length_normalized,
        };
        config
            .validate()
            .map_err(|e| corrupt(format!("invalid config: {e}")))?;

        let (lengths_sec, groups_sec, reps_sec, members_sec) = (
            sec(SEC_LENGTHS)?,
            sec(SEC_GROUPS)?,
            sec(SEC_REPS)?,
            sec(SEC_MEMBERS)?,
        );
        sec(SEC_SKETCHES)?;
        for (name, section, stride) in [
            ("LENGTHS", lengths_sec, LENGTH_STRIDE),
            ("GROUPS", groups_sec, GROUP_STRIDE),
            ("REPS", reps_sec, 8),
            ("MEMBERS", members_sec, MEMBER_STRIDE),
        ] {
            if section.len() % stride != 0 {
                return Err(corrupt(format!(
                    "{name} is {} bytes, not a multiple of the {stride}-byte stride",
                    section.len()
                )));
            }
        }
        let groups_total = groups_sec.len() / GROUP_STRIDE;
        let reps_total = reps_sec.len() / 8;
        let members_total = members_sec.len() / MEMBER_STRIDE;

        // The length table must tile the group/member sections exactly —
        // contiguous, in order, nothing left over — and cut `REPS` into
        // ascending slices of whole means, which is what lets the decode
        // slice columns without further checks.
        let n = lengths_sec.len() / LENGTH_STRIDE;
        let mut lengths: Vec<LengthEntry> = Vec::with_capacity(n);
        let mut r = onex_storage::Reader::new(lengths_sec, "section LENGTHS");
        let (mut groups_seen, mut members_seen, mut reps_seen) = (0usize, 0usize, 0usize);
        for _ in 0..n {
            let e = LengthEntry {
                len: r.u64()? as usize,
                group_start: r.u64()? as usize,
                group_count: r.u64()? as usize,
                member_start: r.u64()? as usize,
                member_count: r.u64()? as usize,
                rep_start: r.u64()? as usize,
                rep_end: reps_total,
                vmin: r.f64()?,
                step: r.f64()?,
            };
            if e.len < 1 || lengths.last().is_some_and(|p| e.len <= p.len) {
                return Err(corrupt(format!(
                    "length table not strictly ascending at {}",
                    e.len
                )));
            }
            // The first length's means start `REPS`; a later length's
            // start no earlier than the one before's.
            if e.group_start != groups_seen
                || e.member_start != members_seen
                || e.rep_start < reps_seen
                || (lengths.is_empty() && e.rep_start != 0)
                || e.rep_start > reps_total
            {
                return Err(corrupt(format!(
                    "length {} columns are not contiguous with their predecessors",
                    e.len
                )));
            }
            if let Some(previous) = lengths.last_mut() {
                previous.rep_end = e.rep_start;
            }
            reps_seen = e.rep_start;
            groups_seen = groups_seen
                .checked_add(e.group_count)
                .filter(|&v| v <= groups_total)
                .ok_or_else(|| corrupt(format!("length {} overruns GROUPS", e.len)))?;
            members_seen = members_seen
                .checked_add(e.member_count)
                .filter(|&v| v <= members_total)
                .ok_or_else(|| corrupt(format!("length {} overruns MEMBERS", e.len)))?;
            lengths.push(e);
        }
        r.finish()?;
        if lengths.is_empty() && reps_total != 0 {
            return Err(corrupt("REPS holds means of no length"));
        }
        for e in &lengths {
            let means = (e.rep_end - e.rep_start) / e.len;
            if (e.rep_end - e.rep_start) % e.len != 0 || means > e.group_count {
                return Err(corrupt(format!(
                    "length {} holds {} REPS samples: not whole means of its groups",
                    e.len,
                    e.rep_end - e.rep_start
                )));
            }
        }
        if groups_seen != groups_total || members_seen != members_total {
            return Err(corrupt(format!(
                "length table covers {groups_seen}/{groups_total} groups, \
                 {members_seen}/{members_total} members"
            )));
        }
        Ok(BaseSegment {
            seg,
            config,
            source_series,
            dataset,
            lengths,
        })
    }

    /// The configuration the persisted base was built with.
    pub fn config(&self) -> &BaseConfig {
        &self.config
    }

    /// Number of series in the dataset the base was built over.
    pub fn source_series(&self) -> usize {
        self.source_series
    }

    /// Indexed lengths, ascending — available without decoding columns.
    pub fn lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.lengths.iter().map(|e| e.len)
    }

    /// Total groups across all lengths (from the table, no decode).
    pub fn total_groups(&self) -> usize {
        self.lengths.iter().map(|e| e.group_count).sum()
    }

    /// Decode the whole base beside `dataset` in one pass over the
    /// sections, and drop the image: the base comes back as it was built.
    /// A group that owned a mean owns the stored one; every other group
    /// reads its first member's window in place from `dataset` and
    /// allocates nothing for it. The sketches come back verbatim.
    ///
    /// # Errors
    /// [`OnexError::DatasetMismatch`] unless `dataset` is the one the
    /// base was built over (as many series, and the same lengths and
    /// sample bits in each), or when a group's first member is no window
    /// of it; [`OnexError::Storage`] when a group record is malformed, a
    /// later member is no window of `dataset`, or the sketch records do
    /// not add up to the groups of two and more (possible despite section
    /// checksums only for an image written by a buggy or hostile encoder).
    pub fn decode(self, dataset: &Dataset) -> Result<OnexBase, OnexError> {
        if dataset.len() != self.source_series {
            return Err(OnexError::DatasetMismatch(format!(
                "base image was built over {} series but dataset has {}",
                self.source_series,
                dataset.len()
            )));
        }
        let ids = 0..self.source_series as u32;
        let found = fingerprint(ids.filter_map(|id| dataset.series(id)));
        if found != self.dataset {
            return Err(OnexError::DatasetMismatch(format!(
                "dataset is not the one the base image was built over \
                 (fingerprint {found:#018x}, image {:#018x})",
                self.dataset
            )));
        }
        let section = |id| self.seg.section(id).expect("validated");
        let (reps_sec, members_sec) = (section(SEC_REPS), section(SEC_MEMBERS));
        let sketches_sec = section(SEC_SKETCHES);
        let mut records = section(SEC_GROUPS).chunks_exact(GROUP_STRIDE);
        let series = series_table(dataset);
        let mut columns = BTreeMap::new();
        // Running cursors over every section: the length table tiles
        // `GROUPS`, `MEMBERS` and `REPS` (checked at open), and `SKETCHES`
        // is checked against its end as the groups of two and more claim
        // their records.
        let (mut member_cursor, mut rep_cursor, mut sketch_cursor) = (0, 0, 0);
        for e in &self.lengths {
            let len = e.len;
            let mut groups = GroupColumn::over(Arc::clone(&series));
            groups.set_params(SketchParams {
                vmin: e.vmin,
                step: e.step,
            });
            let member_end = e.member_start + e.member_count;
            for gi in 0..e.group_count {
                let rec = records.next().expect("the length table tiles GROUPS");
                let field =
                    |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
                let (rep, member_count, radius) = (field(0), field(8), f64::from_bits(field(16)));
                // Groups must pack their length's member range exactly, in
                // order, each non-empty — the invariant the builder
                // produces.
                let member_count = usize::try_from(member_count)
                    .ok()
                    .filter(|&count| count > 0 && count <= member_end - member_cursor)
                    .ok_or_else(|| {
                        corrupt(format!(
                            "group {gi}@{len} of {member_count} members does not pack its length column"
                        ))
                    })?;
                let own: Option<Arc<[f64]>> = match rep {
                    NO_REP => None,
                    at if at == rep_cursor as u64 && e.rep_end - rep_cursor >= len => {
                        let samples = reps_sec[rep_cursor * 8..][..len * 8].chunks_exact(8);
                        rep_cursor += len;
                        Some(
                            samples
                                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                                .collect(),
                        )
                    }
                    at => {
                        return Err(corrupt(format!(
                            "group {gi}@{len}'s mean at {at} does not pack its length's REPS"
                        )))
                    }
                };
                let members: Vec<Member> = members_sec[member_cursor * MEMBER_STRIDE..]
                    [..member_count * MEMBER_STRIDE]
                    .chunks_exact(MEMBER_STRIDE)
                    .map(|c| Member {
                        series: u32::from_le_bytes(c[..4].try_into().expect("4 bytes")),
                        start: u32::from_le_bytes(c[4..].try_into().expect("4 bytes")),
                    })
                    .collect();
                let sketched = if member_count > 1 {
                    let at = sketch_cursor * SKETCH_STRIDE;
                    sketch_cursor += member_count;
                    sketches_sec
                        .get(at..)
                        .and_then(|rest| rest.get(..member_count * SKETCH_STRIDE))
                        .ok_or_else(|| corrupt(format!("group {gi}@{len} overruns SKETCHES")))?
                } else {
                    &[]
                };
                member_cursor += member_count;
                // A first member that is no window says the dataset is not
                // the image's; a later one, that the image lies about it.
                match groups.push_decoded(len as u32, members, radius, own, sketched) {
                    Ok(()) => {}
                    Err((0, first)) => {
                        return Err(OnexError::DatasetMismatch(format!(
                            "group {gi}@{len}: its first member {first} is no window of the dataset"
                        )))
                    }
                    Err((i, member)) => {
                        return Err(corrupt(format!(
                            "group {gi}@{len}: member {i}, {member}, is no window of the dataset"
                        )))
                    }
                }
            }
            if member_cursor != member_end || rep_cursor != e.rep_end {
                return Err(corrupt(format!(
                    "length {len} groups cover {} of {} members, {} of {} REPS samples",
                    member_cursor - e.member_start,
                    e.member_count,
                    rep_cursor - e.rep_start,
                    e.rep_end - e.rep_start
                )));
            }
            groups.shrink_to_fit();
            columns.insert(len, groups);
        }
        if sketches_sec.len() != sketch_cursor * SKETCH_STRIDE {
            return Err(corrupt(format!(
                "SKETCHES is {} bytes for {sketch_cursor} members of groups of two and more \
                 (stride {SKETCH_STRIDE})",
                sketches_sec.len()
            )));
        }
        Ok(OnexBase::from_parts(self.config, columns, series))
    }

    /// The whole validated image (`repro --inspect-base` re-verifies its
    /// checksums).
    pub fn as_bytes(&self) -> &[u8] {
        self.seg.as_bytes()
    }

    /// The underlying section directory (for `repro --inspect-base`).
    pub fn directory(&self) -> &[onex_storage::SectionInfo] {
        self.seg.directory()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{decoded, kind_of, sample_base, sample_dataset};
    use super::*;
    use crate::BaseBuilder;

    /// `image` with its sections passed through `edit` (`None` drops one),
    /// re-sealed with fresh checksums.
    fn resealed(image: &[u8], mut edit: impl FnMut(u32, &[u8]) -> Option<Vec<u8>>) -> Vec<u8> {
        let seg = Segment::from_bytes(image.to_vec()).unwrap();
        let mut b = SegmentBuilder::new();
        for s in seg.directory() {
            if let Some(bytes) = edit(s.id, seg.section(s.id).unwrap()) {
                b.section(s.id, bytes);
            }
        }
        b.finish()
    }

    fn section_of(image: &[u8], id: u32) -> Vec<u8> {
        let seg = Segment::from_bytes(image.to_vec()).unwrap();
        seg.section(id).unwrap().to_vec()
    }

    fn build(policy: RepresentativePolicy) -> OnexBase {
        let config = BaseConfig {
            policy,
            ..BaseConfig::new(1.0, 5, 12)
        };
        BaseBuilder::new(config).unwrap().build(&sample_dataset()).0
    }

    #[test]
    fn round_trip_preserves_structure_and_sketches() {
        let base = sample_base();
        let back = decoded(save_v2(&base), &sample_dataset());
        assert_eq!(back, base);
        for (id, g) in base.iter() {
            let g2 = back.group(id).unwrap();
            assert_eq!(g2.representative(), g.representative());
            assert_eq!(g2.members(), g.members());
            assert_eq!(g2.radius(), g.radius());
        }
        // The L0 sketches and their frozen parameters came back verbatim
        // — no re-encode needed before the first query prunes.
        assert_eq!(back.sketches(), base.sketches());
    }

    #[test]
    fn resave_is_byte_identical() {
        let base = sample_base();
        let bytes = save_v2(&base);
        let back = decoded(bytes.clone(), &sample_dataset());
        assert_eq!(save_v2(&back), bytes);
    }

    #[test]
    fn sketch_section_is_an_array_of_records_whatever_memory_holds() {
        // The base keeps plane-major sketches; the file keeps one
        // 24-byte record per member of a group of two and more, in
        // MEMBERS order, each exactly what `encode_into` writes for that
        // member under the length's frozen parameters. A group of one
        // has none.
        use onex_distance::sketch::encode_into;
        let (ds, base) = (sample_dataset(), sample_base());
        let many = |g: &crate::GroupView<'_>| g.cardinality() > 1;
        let sketched: usize = base
            .iter()
            .filter(|(_, g)| many(g))
            .map(|(_, g)| g.cardinality())
            .sum();
        assert!(sketched > 0 && sketched < base.member_count());
        let section = section_of(&save_v2(&base), SEC_SKETCHES);
        assert_eq!(section.len(), sketched * SKETCH_STRIDE);
        let mut records = section.chunks_exact(SKETCH_STRIDE);
        for len in base.lengths() {
            let params = base.sketches().for_len(len).unwrap().params();
            let groups = base.groups_for_len(len).iter().filter(many);
            for member in groups.flat_map(|g| g.members()) {
                let mut want = [0u8; SKETCH_STRIDE];
                encode_into(&params, ds.resolve(member).unwrap(), &mut want);
                assert_eq!(records.next().unwrap(), want, "{member:?}");
            }
        }
        assert!(records.next().is_none());
    }

    #[test]
    fn a_decoded_column_prunes_as_it_stands() {
        let (ds, base) = (sample_dataset(), sample_base());
        let seg = BaseSegment::from_bytes(save_v2(&base)).unwrap();
        assert_eq!(
            seg.lengths().collect::<Vec<_>>(),
            base.lengths().collect::<Vec<_>>()
        );
        assert_eq!(seg.total_groups(), base.stats().groups);

        let decoded = seg.decode(&ds).unwrap();
        assert_eq!(decoded, base);
        let len = base.lengths().next().unwrap();
        assert_eq!(
            decoded.sketches().for_len(len).unwrap(),
            base.sketches().for_len(len).unwrap()
        );
        // The column prunes as it stands — the transpose rode on the
        // decode, nothing is built on first use: a query far from the data
        // is rejected from the decoded planes alone. (A group of one has
        // none: the search answers it from its representative.)
        let ls = decoded.sketches().for_len(len).unwrap();
        let far = vec![1e3; len];
        let env = onex_distance::Envelope::build(&far, len);
        let qs = onex_distance::QuerySketch::new(&far, &env, ls.params());
        let groups = decoded.groups_for_len(len).iter();
        let (lone, many): (Vec<_>, Vec<_>) = groups.partition(|g| g.is_lone());
        assert!(!many.is_empty());
        assert!(lone.iter().all(|g| g.planes().is_none()));
        for group in many {
            let planes = group.planes().expect("sketched as decoded");
            let mut survivors = Vec::new();
            qs.survivors(planes, 0..planes.cardinality(), 1.0, &mut survivors);
            assert!(survivors.is_empty(), "{survivors:?}");
        }
    }

    #[test]
    fn a_column_loaded_beside_its_dataset_reads_its_seeds_in_place() {
        let ds = sample_dataset();
        let base = build(RepresentativePolicy::Seed);
        let loaded = decoded(save_v2(&base), &ds);
        assert_eq!(loaded, base);
        assert_eq!(loaded.sketches(), base.sketches());
        assert_eq!(loaded.footprint().owned_representatives, 0);
        for (id, g) in loaded.iter() {
            let window = ds.resolve(g.members().at(0)).unwrap();
            assert!(std::ptr::eq(g.representative(), window), "{id}");
        }

        // A drifted centroid is nobody's window: a Centroid image comes
        // back with the means its groups own, and with every other group
        // — a mean of one is that window — read in place, as it was built.
        let drifted = build(RepresentativePolicy::Centroid);
        let loaded = decoded(save_v2(&drifted), &ds);
        assert_eq!(loaded, drifted);
        let means = loaded.footprint().owned_representatives;
        assert!(means > 0);
        assert_eq!(means, drifted.footprint().owned_representatives);
        for (id, g) in loaded.iter().filter(|(_, g)| g.cardinality() == 1) {
            let window = ds.resolve(g.members().at(0)).unwrap();
            assert!(std::ptr::eq(g.representative(), window), "{id}");
        }

        // A dataset a group's first member is no window of: refused typed,
        // before any group is decoded.
        let seg = BaseSegment::from_bytes(save_v2(&base)).unwrap();
        let short = Dataset::from_series(
            ds.iter()
                .map(|(_, s)| TimeSeries::new(s.name(), s.values()[..6].to_vec()))
                .collect(),
        )
        .unwrap();
        let err = seg.decode(&short).unwrap_err();
        assert!(matches!(err, OnexError::DatasetMismatch(_)), "{err}");
    }

    #[test]
    fn a_seed_image_stores_no_representative() {
        let base = build(RepresentativePolicy::Seed);
        assert!(base.iter().any(|(_, g)| g.cardinality() > 1));
        assert!(section_of(&save_v2(&base), SEC_REPS).is_empty());
    }

    #[test]
    fn a_centroid_image_stores_exactly_the_means_its_groups_own() {
        let base = build(RepresentativePolicy::Centroid);
        let owned: Vec<f64> = base
            .iter()
            .filter_map(|(_, g)| g.own_representative())
            .flatten()
            .copied()
            .collect();
        let lengths_owning: usize = base
            .iter()
            .filter(|(_, g)| g.own_representative().is_some())
            .map(|(_, g)| g.len())
            .sum();
        assert!(lengths_owning > 0);
        assert!(base.iter().any(|(_, g)| g.own_representative().is_none()));
        let image = save_v2(&base);
        let reps = section_of(&image, SEC_REPS);
        assert_eq!(reps.len(), 8 * lengths_owning);
        let stored = reps
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
        assert!(stored
            .map(f64::to_bits)
            .eq(owned.iter().map(|v| v.to_bits())));
        let back = decoded(image, &sample_dataset());
        assert_eq!(back, base);
        assert_eq!(back.sketches(), base.sketches());
    }

    #[test]
    fn means_out_of_place_are_refused_typed() {
        // A hostile encoder seals its sections with valid checksums: a
        // group pointing at another group's mean, or a length table that
        // does not cut `REPS` into whole means, is refused, never misread.
        let (ds, image) = (
            sample_dataset(),
            save_v2(&build(RepresentativePolicy::Centroid)),
        );
        let owning = section_of(&image, SEC_GROUPS)
            .chunks_exact(GROUP_STRIDE)
            .position(|rec| rec[..8] != NO_REP.to_le_bytes())
            .unwrap();
        let shifted = resealed(&image, |id, bytes| {
            let mut bytes = bytes.to_vec();
            if id == SEC_GROUPS {
                bytes[owning * GROUP_STRIDE] ^= 1;
            }
            Some(bytes)
        });
        let err = BaseSegment::from_bytes(shifted).unwrap().decode(&ds);
        assert_eq!(kind_of(err.unwrap_err()), StorageErrorKind::Corrupt);

        let torn = resealed(&image, |id, bytes| {
            let mut bytes = bytes.to_vec();
            if id == SEC_LENGTHS {
                // The second length's means start one sample in.
                bytes[LENGTH_STRIDE + 40] = bytes[LENGTH_STRIDE + 40].wrapping_add(1);
            }
            Some(bytes)
        });
        let err = BaseSegment::from_bytes(torn).unwrap_err();
        assert_eq!(kind_of(err), StorageErrorKind::Corrupt);
    }

    #[test]
    fn an_image_opened_beside_another_dataset_is_refused() {
        let (ds, image) = (sample_dataset(), save_v2(&sample_base()));
        let seg = || BaseSegment::from_bytes(image.clone()).unwrap();
        assert!(seg().decode(&ds).is_ok());
        let series: Vec<TimeSeries> = ds.iter().map(|(_, s)| s.clone()).collect();
        let variant = |edit: &dyn Fn(&mut Vec<TimeSeries>)| {
            let mut all = series.clone();
            edit(&mut all);
            Dataset::from_series(all).unwrap()
        };
        let flipped = variant(&|all| {
            let mut values = all[2].values().to_vec();
            values[7] = f64::from_bits(values[7].to_bits() ^ 1);
            all[2] = TimeSeries::new(all[2].name(), values);
        });
        let truncated = variant(&|all| {
            let values = all[4].values()[..29].to_vec();
            all[4] = TimeSeries::new(all[4].name(), values);
        });
        let swapped = variant(&|all| all.swap(0, 3));
        for (what, other) in [
            ("flipped", flipped),
            ("truncated", truncated),
            ("swapped", swapped),
        ] {
            assert_eq!(other.len(), ds.len());
            assert!(
                matches!(seg().decode(&other), Err(OnexError::DatasetMismatch(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn an_image_in_the_previous_layout_is_refused() {
        // The layout from before the `layout` byte: the same CONFIG record
        // with 0 where the byte is now (it was padding), and the sketch
        // flag in the last word where the dataset fingerprint is now.
        // (Layout 1 is refused as well: `tests/base_files.rs`.)
        let image = save_v2(&sample_base());
        let previous = resealed(&image, |id, bytes| {
            let mut bytes = bytes.to_vec();
            if id == SEC_CONFIG {
                bytes[22] = 0;
                bytes[32..].copy_from_slice(&1u64.to_le_bytes());
            }
            Some(bytes)
        });
        let err = BaseSegment::from_bytes(previous).unwrap_err();
        assert_eq!(kind_of(err), StorageErrorKind::UnsupportedVersion);
    }

    #[test]
    fn sketches_that_do_not_add_up_to_the_groups_of_two_and_more_are_refused() {
        // One record short, one too many, or none at all: refused by the
        // decode, typed.
        let (ds, image) = (sample_dataset(), save_v2(&sample_base()));
        let sketches = section_of(&image, SEC_SKETCHES);
        let short = sketches[..sketches.len() - SKETCH_STRIDE].to_vec();
        let long = [sketches.clone(), sketches[..SKETCH_STRIDE].to_vec()].concat();
        for bytes in [short, long, Vec::new()] {
            let edited = resealed(&image, |id, section| {
                Some(if id == SEC_SKETCHES {
                    bytes.clone()
                } else {
                    section.to_vec()
                })
            });
            let err = BaseSegment::from_bytes(edited).unwrap().decode(&ds);
            let err = err.unwrap_err();
            assert!(err.to_string().contains("SKETCHES"), "{err}");
            assert_eq!(kind_of(err), StorageErrorKind::Corrupt);
        }
    }

    #[test]
    fn an_image_without_sketches_is_refused() {
        let image = save_v2(&sample_base());
        let bare = resealed(&image, |id, bytes| {
            (id != SEC_SKETCHES).then(|| bytes.to_vec())
        });
        let err = BaseSegment::from_bytes(bare).unwrap_err();
        assert!(
            err.to_string().contains("missing section SKETCHES"),
            "{err}"
        );
        assert_eq!(kind_of(err), StorageErrorKind::Corrupt);
    }

    #[test]
    fn bit_flips_and_truncation_are_rejected() {
        let bytes = save_v2(&sample_base());
        // Flip a byte in every region that carries meaning: header,
        // directory, and the first byte of every non-empty section
        // payload. (Flips in inter-section alignment padding are not
        // checksummed — and provably change nothing the decoder reads;
        // the property tests pin that.)
        let seg = BaseSegment::from_bytes(bytes.clone()).unwrap();
        let mut targets = vec![0, 9, 13, 30];
        targets.extend(
            seg.directory()
                .iter()
                .filter(|s| s.len > 0)
                .map(|s| s.offset as usize),
        );
        for at in targets {
            let mut bad = bytes.clone();
            bad[at] ^= 0x20;
            assert!(
                BaseSegment::from_bytes(bad).is_err(),
                "flip at {at} accepted"
            );
        }
        for cut in [0, 10, 100, bytes.len() - 1] {
            assert!(
                BaseSegment::from_bytes(bytes[..cut].to_vec()).is_err(),
                "truncation to {cut} accepted"
            );
        }
    }

    #[test]
    fn missing_sections_are_rejected() {
        // A structurally valid segment that is not a base.
        let mut b = SegmentBuilder::new();
        b.section(42, vec![1, 2, 3]);
        let err = BaseSegment::from_bytes(b.finish()).unwrap_err();
        assert_eq!(kind_of(err), StorageErrorKind::Corrupt);
    }
}
