//! Format **v2**: the mmap-ready segment layout on [`onex_storage`].
//!
//! One [`onex_storage::Segment`] with six sections, every record
//! fixed-stride and little-endian so any column can be located by
//! arithmetic alone:
//!
//! | section    | stride | record                                                  |
//! |------------|--------|---------------------------------------------------------|
//! | `CONFIG`   | 40 B   | st f64, min/max_len u32, stride u32, policy u8, normalized u8, pad ×2, source_series u64, flags u64 |
//! | `LENGTHS`  | 64 B   | len, group_start, group_count, member_start, member_count, rep_start (all u64), sketch vmin f64, step f64 |
//! | `GROUPS`   | 24 B   | member_start u64, member_count u64, radius f64          |
//! | `REPS`     | 8 B    | representative samples, f64, concatenated in group order |
//! | `MEMBERS`  | 8 B    | series u32, start u32                                   |
//! | `SKETCHES` | 24 B   | one L0 sketch record per member, parallel to `MEMBERS`  |
//!
//! `*_start` fields are record indices (not byte offsets) into the
//! target section; groups, members and representatives are laid out
//! contiguously in (length asc, group asc, admission) order, so one
//! length's entire column is a single slice of each section — that is
//! what [`BaseSegment::load_length`] resolves lazily, and why opening a
//! file decodes nothing.
//!
//! The `SKETCHES` section (and the per-length quantisation parameters
//! in `LENGTHS`, gated by flags bit 0) is present only when the saved
//! base carried a complete L0 sketch index; a v2 load then restores the
//! sketches *verbatim*, preserving the frozen
//! [`SketchParams`](onex_distance::SketchParams) so appended members
//! keep encoding under the same quantisation. The section is an array of
//! 24-byte records whatever the base holds in memory: a load transposes
//! each group's run of records into its resident plane bytes — the first
//! member's into the group's slot of its column block, all of them into
//! the group's own planes from two members up — as it copies them, and a
//! save writes records back.

use std::collections::BTreeMap;
use std::path::Path;

use onex_api::{OnexError, StorageErrorKind};
use onex_distance::{SketchParams, SKETCH_STRIDE};
use onex_storage::{put_f64, put_u32, put_u64, put_u8, Segment, SegmentBuilder};
use onex_tseries::{Dataset, SubseqRef};

use crate::group::series_table;
use crate::{BaseConfig, GroupColumn, OnexBase, RepresentativePolicy};

/// Section id: the fixed-size configuration record.
pub const SEC_CONFIG: u32 = 1;
/// Section id: the per-length table.
pub const SEC_LENGTHS: u32 = 2;
/// Section id: group records.
pub const SEC_GROUPS: u32 = 3;
/// Section id: representative sample column (f64).
pub const SEC_REPS: u32 = 4;
/// Section id: member references.
pub const SEC_MEMBERS: u32 = 5;
/// Section id: L0 sketch slots, parallel to `MEMBERS`.
pub const SEC_SKETCHES: u32 = 6;

const CONFIG_BYTES: usize = 40;
const LENGTH_STRIDE: usize = 64;
const GROUP_STRIDE: usize = 24;
const MEMBER_STRIDE: usize = 8;

/// Flags bit 0: the file carries a complete sketch section.
const FLAG_SKETCHES: u64 = 1;

/// Human-readable name of a v2 section id (`repro --inspect-base`).
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
        format!("v2 base: {}", msg.into()),
    )
}

/// Serialise a base as a v2 segment image.
///
/// The sketch section is written only when the base's sketches
/// completely cover every group (all-or-nothing at file level): a
/// partially synced base would load as sketches the searcher trusts to
/// be slot-parallel with the members.
pub fn save_v2(base: &OnexBase) -> Vec<u8> {
    let cfg = base.config();
    let sketches_complete = base.lengths().all(|len| {
        let gs = base.groups_for_len(len);
        gs.params().is_some() && gs.iter().all(|g| g.planes().is_some())
    });

    let mut lengths_sec = Vec::new();
    let mut groups_sec = Vec::new();
    let mut reps_sec = Vec::new();
    let mut members_sec = Vec::new();
    let mut sketches_sec = Vec::new();
    let (mut group_cursor, mut member_cursor, mut rep_cursor) = (0u64, 0u64, 0u64);
    for len in base.lengths() {
        let gs = base.groups_for_len(len);
        let member_count: usize = gs.iter().map(|g| g.cardinality()).sum();
        put_u64(&mut lengths_sec, len as u64);
        put_u64(&mut lengths_sec, group_cursor);
        put_u64(&mut lengths_sec, gs.len() as u64);
        put_u64(&mut lengths_sec, member_cursor);
        put_u64(&mut lengths_sec, member_count as u64);
        put_u64(&mut lengths_sec, rep_cursor);
        let params = gs.params().filter(|_| sketches_complete);
        put_f64(&mut lengths_sec, params.map_or(0.0, |p| p.vmin));
        put_f64(&mut lengths_sec, params.map_or(0.0, |p| p.step));
        for g in gs {
            put_u64(&mut groups_sec, member_cursor);
            put_u64(&mut groups_sec, g.cardinality() as u64);
            put_f64(&mut groups_sec, g.radius());
            for &v in g.representative() {
                put_f64(&mut reps_sec, v);
            }
            for m in g.members() {
                put_u32(&mut members_sec, m.series);
                put_u32(&mut members_sec, m.start);
            }
            if sketches_complete {
                let planes = g.planes().expect("complete");
                planes.write_records(&mut sketches_sec);
            }
            member_cursor += g.cardinality() as u64;
            rep_cursor += len as u64;
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
    put_u8(&mut config_sec, 0);
    put_u8(&mut config_sec, 0);
    put_u64(&mut config_sec, base.source_series() as u64);
    put_u64(
        &mut config_sec,
        if sketches_complete { FLAG_SKETCHES } else { 0 },
    );
    debug_assert_eq!(config_sec.len(), CONFIG_BYTES);

    let mut b = SegmentBuilder::new();
    b.section(SEC_CONFIG, config_sec);
    b.section(SEC_LENGTHS, lengths_sec);
    b.section(SEC_GROUPS, groups_sec);
    b.section(SEC_REPS, reps_sec);
    b.section(SEC_MEMBERS, members_sec);
    if sketches_complete {
        b.section(SEC_SKETCHES, sketches_sec);
    }
    b.finish()
}

/// Save a base to `path` in format v2.
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
    vmin: f64,
    step: f64,
}

/// A validated, still-encoded v2 base file: configuration and length
/// table decoded eagerly (they are a few dozen bytes per length), group
/// columns left as borrowed sections until a query needs them.
///
/// This is the cold-start entry point: `Onex::open` wraps one of these
/// and calls [`BaseSegment::load_length`] per length the first query
/// plan touches, so time-to-first-answer scales with one column, not
/// the collection.
#[derive(Debug)]
pub struct BaseSegment {
    seg: Segment,
    config: BaseConfig,
    source_series: usize,
    lengths: Vec<LengthEntry>,
    has_sketches: bool,
}

impl BaseSegment {
    /// Open and validate a v2 base file without decoding any column.
    ///
    /// # Errors
    /// [`OnexError::Io`] if reading fails; [`OnexError::Storage`] if
    /// the bytes are not a valid v2 base segment.
    pub fn open(path: impl AsRef<Path>) -> Result<BaseSegment, OnexError> {
        BaseSegment::from_bytes(std::fs::read(path)?)
    }

    /// Validate an in-memory v2 file image (see [`BaseSegment::open`]).
    ///
    /// Container-level structure and checksums are verified by
    /// [`Segment::from_bytes`]; this layer then decodes the fixed-size
    /// `CONFIG` record and the `LENGTHS` table and cross-checks that the
    /// per-length column spans tile the `GROUPS`/`REPS`/`MEMBERS`
    /// sections exactly — so [`BaseSegment::load_length`] can slice
    /// columns by arithmetic without re-validating bounds.
    ///
    /// # Errors
    /// [`OnexError::Storage`] describing the first violated rule.
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
        let policy = match r.u8()? {
            0 => RepresentativePolicy::Centroid,
            1 => RepresentativePolicy::Seed,
            other => {
                return Err(corrupt(format!(
                    "unknown representative policy tag {other}"
                )))
            }
        };
        let length_normalized = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(corrupt(format!(
                    "bad boolean tag {other} for length_normalized"
                )))
            }
        };
        r.u8()?;
        r.u8()?;
        let source_series = usize::try_from(r.u64()?)
            .map_err(|_| corrupt("source_series does not fit this platform"))?;
        let flags = r.u64()?;
        r.finish()?;
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
        let has_sketches = flags & FLAG_SKETCHES != 0;

        let (lengths_sec, groups_sec, reps_sec, members_sec) = (
            sec(SEC_LENGTHS)?,
            sec(SEC_GROUPS)?,
            sec(SEC_REPS)?,
            sec(SEC_MEMBERS)?,
        );
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
        if has_sketches {
            let sk = sec(SEC_SKETCHES)?;
            if sk.len() != members_total * SKETCH_STRIDE {
                return Err(corrupt(format!(
                    "SKETCHES is {} bytes for {members_total} members (stride {SKETCH_STRIDE})",
                    sk.len()
                )));
            }
        }

        // The length table must tile the group/rep/member sections
        // exactly — contiguous, in order, nothing left over — which is
        // what lets load_length slice columns without further checks.
        let n = lengths_sec.len() / LENGTH_STRIDE;
        let mut lengths = Vec::with_capacity(n);
        let mut r = onex_storage::Reader::new(lengths_sec, "section LENGTHS");
        let (mut groups_seen, mut members_seen, mut reps_seen) = (0usize, 0usize, 0usize);
        let mut prev_len = 0usize;
        for _ in 0..n {
            let e = LengthEntry {
                len: r.u64()? as usize,
                group_start: r.u64()? as usize,
                group_count: r.u64()? as usize,
                member_start: r.u64()? as usize,
                member_count: r.u64()? as usize,
                rep_start: r.u64()? as usize,
                vmin: r.f64()?,
                step: r.f64()?,
            };
            if e.len < 1 || (e.len <= prev_len && !lengths.is_empty()) {
                return Err(corrupt(format!(
                    "length table not strictly ascending at {}",
                    e.len
                )));
            }
            if e.group_start != groups_seen
                || e.member_start != members_seen
                || e.rep_start != reps_seen
            {
                return Err(corrupt(format!(
                    "length {} columns are not contiguous with their predecessors",
                    e.len
                )));
            }
            let rep_span = e
                .group_count
                .checked_mul(e.len)
                .ok_or_else(|| corrupt("representative span overflows"))?;
            groups_seen = groups_seen
                .checked_add(e.group_count)
                .filter(|&v| v <= groups_total)
                .ok_or_else(|| corrupt(format!("length {} overruns GROUPS", e.len)))?;
            members_seen = members_seen
                .checked_add(e.member_count)
                .filter(|&v| v <= members_total)
                .ok_or_else(|| corrupt(format!("length {} overruns MEMBERS", e.len)))?;
            reps_seen = reps_seen
                .checked_add(rep_span)
                .filter(|&v| v <= reps_total)
                .ok_or_else(|| corrupt(format!("length {} overruns REPS", e.len)))?;
            prev_len = e.len;
            lengths.push(e);
        }
        r.finish()?;
        if groups_seen != groups_total || members_seen != members_total || reps_seen != reps_total {
            return Err(corrupt(format!(
                "length table covers {groups_seen}/{groups_total} groups, \
                 {members_seen}/{members_total} members, {reps_seen}/{reps_total} rep samples"
            )));
        }

        Ok(BaseSegment {
            seg,
            config,
            source_series,
            lengths,
            has_sketches,
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

    /// Whether the file carries the L0 sketch section (loaded columns
    /// then prune immediately, no re-encode).
    pub fn has_sketches(&self) -> bool {
        self.has_sketches
    }

    /// Total groups across all lengths (from the table, no decode).
    pub fn total_groups(&self) -> usize {
        self.lengths.iter().map(|e| e.group_count).sum()
    }

    /// A base with this file's configuration and *no* columns resolved
    /// yet — the engine's cold-start starting point.
    pub fn empty_base(&self) -> OnexBase {
        OnexBase::from_parts(self.config.clone(), BTreeMap::new(), self.source_series)
    }

    /// Resolve one length column into `base`: decode its groups (and
    /// sketches, when present) from the borrowed sections and
    /// install them. Returns `false` when the file has no such length.
    /// Idempotent — re-resolving replaces the column with identical
    /// data.
    ///
    /// With the `dataset` the base was built over, a column comes back as
    /// it was built: every group whose stored representative is bit-equal
    /// to its first member's window there — a frozen seed, a group of one
    /// under either policy (always, in a file this code wrote) — reads
    /// that window in place and allocates nothing for it. A group that
    /// differs (a centroid that drifted), or whose member does not
    /// resolve, keeps an owned copy of what the file stored — as every
    /// group does without a dataset.
    ///
    /// # Errors
    /// [`OnexError::Storage`] if the column's group records are
    /// malformed (possible despite section checksums only for a file
    /// written by a buggy or hostile encoder).
    pub fn load_length(
        &self,
        base: &mut OnexBase,
        len: usize,
        dataset: Option<&Dataset>,
    ) -> Result<bool, OnexError> {
        let Some(e) = self.lengths.iter().find(|e| e.len == len) else {
            return Ok(false);
        };
        let groups_sec = self.seg.section(SEC_GROUPS).expect("validated");
        let reps_sec = self.seg.section(SEC_REPS).expect("validated");
        let members_sec = self.seg.section(SEC_MEMBERS).expect("validated");

        let mut groups = GroupColumn::over(dataset.map(series_table).unwrap_or_default());
        let sketches = self
            .has_sketches
            .then(|| self.seg.section(SEC_SKETCHES).expect("validated"));
        if sketches.is_some() {
            groups.set_params(SketchParams {
                vmin: e.vmin,
                step: e.step,
            });
        }
        let records = &groups_sec
            [e.group_start * GROUP_STRIDE..(e.group_start + e.group_count) * GROUP_STRIDE];
        let mut member_cursor = e.member_start;
        for (gi, rec) in records.chunks_exact(GROUP_STRIDE).enumerate() {
            let member_start = u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes")) as usize;
            let member_count = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes")) as usize;
            let radius = f64::from_le_bytes(rec[16..24].try_into().expect("8 bytes"));
            // Groups must pack their length's member range exactly, in
            // order, each non-empty — same invariant the builder
            // produces and the table validation assumed.
            if member_start != member_cursor
                || member_count == 0
                || member_cursor + member_count > e.member_start + e.member_count
            {
                return Err(corrupt(format!(
                    "group {gi}@{len} member range [{member_start}, +{member_count}) \
                     does not pack its length column"
                )));
            }
            let members: Vec<SubseqRef> = members_sec
                [member_start * MEMBER_STRIDE..(member_start + member_count) * MEMBER_STRIDE]
                .chunks_exact(MEMBER_STRIDE)
                .map(|c| {
                    let series = u32::from_le_bytes(c[..4].try_into().expect("4 bytes"));
                    let start = u32::from_le_bytes(c[4..].try_into().expect("4 bytes"));
                    SubseqRef::new(series, start, len as u32)
                })
                .collect();
            let sketched = sketches
                .map(|sk| &sk[member_start * SKETCH_STRIDE..][..member_count * SKETCH_STRIDE]);
            member_cursor += member_count;
            let stored = reps_sec
                [(e.rep_start + gi * e.len) * 8..(e.rep_start + (gi + 1) * e.len) * 8]
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")));
            groups.push_decoded(stored, members, radius, sketched);
        }
        if member_cursor != e.member_start + e.member_count {
            return Err(corrupt(format!(
                "length {len} groups cover {} of {} members",
                member_cursor - e.member_start,
                e.member_count
            )));
        }
        groups.shrink_to_fit();
        base.install_length(len, groups);
        Ok(true)
    }

    /// Decode every column eagerly — what the magic-sniffing
    /// [`super::load`] does for v2 files when laziness is not wanted.
    /// There is no dataset here, so every representative is an owned
    /// copy.
    ///
    /// # Errors
    /// See [`BaseSegment::load_length`].
    pub fn load_all(&self) -> Result<OnexBase, OnexError> {
        let mut base = self.empty_base();
        for e in &self.lengths {
            self.load_length(&mut base, e.len, None)?;
        }
        Ok(base)
    }

    /// The whole validated file image (for `ShipBase` / re-saving).
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
    use super::super::tests::{kind_of, sample_base, to_bytes};
    use super::*;

    #[test]
    fn round_trip_preserves_structure_and_sketches() {
        let base = sample_base();
        let bytes = save_v2(&base);
        let back = BaseSegment::from_bytes(bytes).unwrap().load_all().unwrap();
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
        let back = BaseSegment::from_bytes(bytes.clone())
            .unwrap()
            .load_all()
            .unwrap();
        assert_eq!(save_v2(&back), bytes);
    }

    #[test]
    fn sketch_section_is_an_array_of_records_whatever_memory_holds() {
        // The base keeps plane-major sketches; the file keeps one
        // 24-byte record per member in MEMBERS order, each exactly what
        // `encode_into` writes for that member under the length's frozen
        // parameters.
        use super::super::tests::sample_dataset;
        use onex_distance::sketch::encode_into;
        let (ds, base) = (sample_dataset(), sample_base());
        let seg = BaseSegment::from_bytes(save_v2(&base)).unwrap();
        let section = seg.seg.section(SEC_SKETCHES).expect("sketches saved");
        assert_eq!(section.len(), base.member_count() * SKETCH_STRIDE);
        let mut records = section.chunks_exact(SKETCH_STRIDE);
        for len in base.lengths() {
            let params = base.sketches().for_len(len).unwrap().params();
            for member in base.groups_for_len(len).iter().flat_map(|g| g.members()) {
                let mut want = [0u8; SKETCH_STRIDE];
                encode_into(&params, ds.resolve(*member).unwrap(), &mut want);
                assert_eq!(records.next().unwrap(), want, "{member:?}");
            }
        }
        assert!(records.next().is_none());
    }

    #[test]
    fn lazy_load_resolves_one_column_at_a_time() {
        let base = sample_base();
        let seg = BaseSegment::from_bytes(save_v2(&base)).unwrap();
        assert!(seg.has_sketches());
        assert_eq!(
            seg.lengths().collect::<Vec<_>>(),
            base.lengths().collect::<Vec<_>>()
        );
        assert_eq!(seg.total_groups(), base.stats().groups);

        let mut cold = seg.empty_base();
        assert_eq!(cold.lengths().count(), 0);
        let len = base.lengths().next().unwrap();
        assert!(seg.load_length(&mut cold, len, None).unwrap());
        assert_eq!(cold.lengths().collect::<Vec<_>>(), vec![len]);
        assert_eq!(cold.groups_for_len(len), base.groups_for_len(len));
        assert_eq!(
            cold.sketches().for_len(len).unwrap(),
            base.sketches().for_len(len).unwrap()
        );
        // The column prunes as it stands — the transpose rode on the
        // load, nothing is built on first use: a query far from the data
        // is rejected from the lazily loaded planes alone.
        let ls = cold.sketches().for_len(len).unwrap();
        let far = vec![1e3; len];
        let env = onex_distance::Envelope::build(&far, len);
        let qs = onex_distance::QuerySketch::new(&far, &env, ls.params());
        for group in cold.groups_for_len(len) {
            let planes = group.planes().expect("sketched as loaded");
            let mut survivors = Vec::new();
            qs.survivors(planes, 0..planes.cardinality(), 1.0, &mut survivors);
            assert!(survivors.is_empty(), "{survivors:?}");
        }
        // A length the file does not index resolves to "not present".
        assert!(!seg.load_length(&mut cold, 9999, None).unwrap());
        // Re-resolving is idempotent.
        assert!(seg.load_length(&mut cold, len, None).unwrap());
        assert_eq!(cold.groups_for_len(len), base.groups_for_len(len));
    }

    #[test]
    fn a_column_loaded_beside_its_dataset_reads_its_seeds_in_place() {
        use super::super::tests::sample_dataset;
        use crate::BaseBuilder;
        use onex_tseries::TimeSeries;
        let ds = sample_dataset();
        let config = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(1.0, 5, 12)
        };
        let (base, _) = BaseBuilder::new(config.clone()).unwrap().build(&ds);
        let seg = BaseSegment::from_bytes(save_v2(&base)).unwrap();
        let load = |dataset: Option<&Dataset>| {
            let mut loaded = seg.empty_base();
            for len in seg.lengths() {
                assert!(seg.load_length(&mut loaded, len, dataset).unwrap());
            }
            loaded
        };
        let samples: usize = base.iter().map(|(_, g)| g.len()).sum();

        // Its own dataset: every stored representative is its first
        // member's window, bit for bit, so none is copied.
        let adopted = load(Some(&ds));
        assert_eq!(adopted, base);
        assert_eq!(adopted.sketches(), base.sketches());
        assert_eq!(adopted.footprint().owned_representatives, 0);
        for (id, g) in adopted.iter() {
            let window = ds.resolve(g.members()[0]).unwrap();
            assert!(std::ptr::eq(g.representative(), window), "{id}");
        }
        // No dataset: the same base by `==`, every representative owned.
        let owned = load(None);
        assert_eq!(owned, base);
        assert!(owned.footprint().owned_representatives >= 8 * samples);

        // A dataset that is not quite the one the file was built over:
        // series 0 differs in its last bit of one sample, series 4 is too
        // short for most of its windows. Groups seeded there keep what the
        // file stored; the rest are adopted; nothing panics, and the base
        // still equals the one that was saved.
        let other = Dataset::from_series(
            ds.iter()
                .map(|(id, s)| {
                    let mut values = s.values().to_vec();
                    match id {
                        0 => values[3] = f64::from_bits(values[3].to_bits() ^ 1),
                        4 => values.truncate(8),
                        _ => {}
                    }
                    TimeSeries::new(s.name(), values)
                })
                .collect(),
        )
        .unwrap();
        let mixed = load(Some(&other));
        assert_eq!(mixed, base);
        let (mut kept, mut read_in_place) = (0, 0);
        for (id, g) in mixed.iter() {
            let first = g.members()[0];
            match other.resolve(first) {
                Ok(window) if std::ptr::eq(g.representative(), window) => read_in_place += 1,
                _ => {
                    assert!(first.series == 0 || first.series == 4, "{id} {first}");
                    kept += 1;
                }
            }
        }
        assert!(
            kept > 0 && read_in_place > 0,
            "{kept} kept, {read_in_place} in place"
        );
        assert!(mixed.footprint().owned_representatives < owned.footprint().owned_representatives);

        // A centroid that drifted is nobody's window: a Centroid file
        // comes back with the means its groups of two and more own, and
        // with its groups of one — a mean of one is that window — read in
        // place, as it was built.
        let centroid = BaseConfig {
            policy: RepresentativePolicy::Centroid,
            ..config
        };
        let (drifted, _) = BaseBuilder::new(centroid).unwrap().build(&ds);
        let seg = BaseSegment::from_bytes(save_v2(&drifted)).unwrap();
        let mut loaded = seg.empty_base();
        for len in seg.lengths() {
            seg.load_length(&mut loaded, len, Some(&ds)).unwrap();
        }
        assert_eq!(loaded, drifted);
        let means = loaded.footprint().owned_representatives;
        assert_eq!(means, drifted.footprint().owned_representatives);
        let drifted_samples = |base: &OnexBase| -> usize {
            let groups = base.iter().filter(|(_, g)| g.cardinality() > 1);
            groups.map(|(_, g)| g.len()).sum()
        };
        assert!(drifted_samples(&loaded) > 0 && means >= 8 * drifted_samples(&loaded));
        for (id, g) in loaded.iter().filter(|(_, g)| g.cardinality() == 1) {
            let window = ds.resolve(g.members()[0]).unwrap();
            assert!(std::ptr::eq(g.representative(), window), "{id}");
        }
    }

    #[test]
    fn base_without_sketches_round_trips_without_the_section() {
        let base = sample_base();
        // Strip the sketches: a v1 file does not carry them.
        let stripped = crate::persist::load(to_bytes(&base).as_slice()).unwrap();
        assert_eq!(stripped, base);
        let seg = BaseSegment::from_bytes(save_v2(&stripped)).unwrap();
        assert!(!seg.has_sketches());
        let back = seg.load_all().unwrap();
        assert_eq!(back, stripped);
        assert!(back.sketches().is_empty());
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
