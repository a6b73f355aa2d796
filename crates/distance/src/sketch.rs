//! Quantised-PAA sketches: the L0 prefilter tier of the pruning cascade.
//!
//! Every subsequence gets a fixed-size sketch — its first/last values and
//! per-segment min/max, quantised to `u8` levels. At query time the
//! sketch alone yields a sound squared DTW lower bound: no resolving of
//! the raw window, no O(n) floating-point pass. Most candidates die
//! here, before LB_Kim, LB_Keogh, or the DP ever see an `f64` of theirs.
//!
//! ## Two forms of one sketch
//!
//! * The **record**: [`SKETCH_STRIDE`] = 24 bytes per member, array of
//!   structs. This is the form [`encode_into`] writes, the persisted
//!   `SKETCHES` section holds, and [`QuerySketch::bound_sq`] — the
//!   reference every other path is checked against — reads.
//!   [`encode_into`] is the one-window reference; whoever sketches the
//!   stride-1 windows of a series goes through the *building* form below
//!   and gets the same records.
//! * The **planes**: the resident form. The [`SKETCH_PLANES`] = 21
//!   meaningful bytes of each record (the three reserved ones are
//!   dropped) are stored plane-major — all flag bytes, then all
//!   first-corner floors, … then the eighth segment maxima — so that
//!   consecutive slots sit in consecutive bytes of every plane, which is
//!   what lets [`QuerySketch::survivors`] test four of them per AVX2
//!   step. A group of two or more keeps its members' slots in
//!   [`SketchPlanes`]: one reference-counted block, the cardinality as
//!   the plane stride, no padding, read through a [`PlanesRef`]. A group
//!   of one keeps no sketch at all: the searcher answers it from its
//!   representative's DTW, which is its member's.
//!
//! This module alone knows the plane order: planes are built from
//! records ([`PlanesRef::grown`]), read through [`PlanesRef`] and written
//! back out as records, so no caller indexes a plane.
//!
//! ## Zones
//!
//! After its planes, a group's allocation holds one [`Zone`] per
//! [`ZONE_SLOTS`] slots (the last one covering what is left): the *hull*
//! of their records — the flags or-ed, the smallest of each floor level
//! (corner floors, segment minima) and the largest of each ceiling level
//! — and the smallest and largest of their *tags*, a `u32` the caller
//! gives each slot (the grouping crate gives the member's series). That
//! is 29 bytes a zone, under half a byte a slot. Zones are derived
//! wherever planes are built ([`PlanesRef::grown`], which writes the new
//! slots' records into their planes and then widens each zone they reach
//! once, a plane at a time over the run of its new slots) and never
//! persisted: the records alone are.
//!
//! [`QuerySketch::rejects_zone`] is [`QuerySketch::bound_sq`] of the hull
//! against the bound. A zone reject is a reject of every slot of the
//! zone: the hull's intervals contain each slot's, dequantising is
//! monotone in the level, the distance from a point to a wider interval
//! is no larger, and squaring non-negative gaps, weighting them by
//! non-negative segment widths and summing in segment order keep that
//! order in floating point — so the hull's bound is at most each slot's.
//! A zone holding an invalid sketch has an invalid hull and never
//! rejects.
//!
//! Records are *built* from a third, transient form: the [`LevelColumn`]
//! of one series under one quantiser — the floor level and the ceiling
//! level of every point, quantised once. Consecutive windows share all
//! but one point, and the quantiser is monotone (a larger value never
//! gets a smaller level, the post-hoc verification included), so it
//! commutes with `min` and `max`: the floor level of a segment's minimum
//! is the minimum of its points' floor levels, the ceiling level of its
//! maximum the maximum of their ceiling levels.
//! [`LevelColumn::encode_window`] therefore writes, byte for byte, the
//! record [`encode_into`] writes for the same window from a few `u8`
//! comparisons, with no division left per window. The argument needs
//! every point of the window to *have* both levels; a window that touches
//! a point which does not (NaN, ±∞, a value outside a frozen range) is
//! handed to [`encode_into`] itself.
//!
//! ## The block test
//!
//! [`QuerySketch::survivors`] answers, for a range of a group's slots,
//! "which of these does `bound_sq` not reject?". Per slot it performs
//! *the same floating-point operations in the same order* as
//! [`QuerySketch::bound_sq`] (no fused multiply-add, sums in segment
//! order), so the scalar path, the AVX2 path and the per-record
//! reference make bit-identical decisions. The corner part is computed
//! first: a slot it already rejects needs no segment part (the bound is
//! the larger of the two), and an AVX2 step whose four slots are all
//! rejected by it skips the sixteen segment planes — on clustered data
//! that is most steps.
//!
//! ## Soundness
//!
//! The candidate side is quantised **directionally**: segment minima
//! round *down* a level, maxima round *up* (verified post-hoc against
//! the raw value, so FP rounding in the quantiser can never flip the
//! direction). Dequantising therefore brackets the truth, and the two
//! parts of the bound each lower-bound squared DTW:
//!
//! * **Corner part** (LB_Kim shape): any warping path matches the
//!   query's first value against the candidate's first value, which lies
//!   inside the dequantised `[first_lo, first_hi]` interval — so the
//!   squared point-to-interval distance is unavoidable; likewise the
//!   last values (a distinct DP cell whenever the candidate has ≥ 2
//!   points, which ONEX's minimum subsequence length guarantees).
//! * **Segment part** (LB_Keogh shape): the query's envelope is indexed
//!   by the candidate's positions ([`Envelope::build_across`], so the
//!   candidate may be longer or shorter than the query). Every candidate
//!   position `j` is paired with at least one query row inside its band
//!   window and distinct `j` are distinct DP cells, so
//!   `Σ_j dist(c_j, [L_j, U_j])² ≤ DTW²`; if the candidate's whole
//!   segment `i` sits above the segment-wide envelope max `H_i` (or below
//!   the min `L_i`), every one of its `w_i` positions pays at least the
//!   squared gap.
//!
//! The two parts may double-count the corner cells, so they are combined
//! with `max`, not `+`. Appended values that fall outside the length
//! group's frozen quantiser range mark the sketch *invalid* (bound 0 —
//! never prunes), which keeps ingest sound without requantising the
//! group.

use std::ops::Range;
use std::sync::Arc;

use crate::envelope::Envelope;
use crate::kernels::{self, KernelLevel};

/// Number of PAA segments per sketch.
pub const SKETCH_SEGMENTS: usize = 8;

/// Bytes per sketch: 1 flag byte, 3 reserved, 4 corner levels,
/// [`SKETCH_SEGMENTS`] segment minima, [`SKETCH_SEGMENTS`] maxima — the
/// record form (disk, and the reference bound).
pub const SKETCH_STRIDE: usize = 8 + 2 * SKETCH_SEGMENTS;

/// Highest quantisation level (levels are `0..=MAX_LEVEL`).
const MAX_LEVEL: i64 = u8::MAX as i64;

/// Flag bit: this sketch is a non-pruning placeholder (value out of the
/// quantiser's range, or non-finite).
pub(crate) const FLAG_INVALID: u8 = 1;

/// Byte offsets inside one sketch record.
const OFF_FLAGS: usize = 0;
const OFF_FIRST_LO: usize = 4;
const OFF_FIRST_HI: usize = 5;
const OFF_LAST_LO: usize = 6;
const OFF_LAST_HI: usize = 7;
const OFF_SEG_MIN: usize = 8;
const OFF_SEG_MAX: usize = 8 + SKETCH_SEGMENTS;

/// Byte planes of the resident form: every record byte but the three
/// reserved ones.
pub const SKETCH_PLANES: usize = SKETCH_STRIDE - 3;

/// Plane indices: the record's bytes in record order, reserved bytes
/// skipped — plane `p > 0` holds record byte `p + 3`.
pub(crate) const PLANE_FLAGS: usize = 0;
pub(crate) const PLANE_FIRST_LO: usize = plane_of(OFF_FIRST_LO);
pub(crate) const PLANE_FIRST_HI: usize = plane_of(OFF_FIRST_HI);
pub(crate) const PLANE_LAST_LO: usize = plane_of(OFF_LAST_LO);
pub(crate) const PLANE_LAST_HI: usize = plane_of(OFF_LAST_HI);
pub(crate) const PLANE_SEG_MIN: usize = plane_of(OFF_SEG_MIN);
pub(crate) const PLANE_SEG_MAX: usize = plane_of(OFF_SEG_MAX);

/// Slots a zone covers: one block of the member scan's L0 tier.
pub const ZONE_SLOTS: usize = 64;

/// Bytes of one zone: its hull in plane order, then the smallest and
/// largest tag of its slots as little-endian `u32`s.
const ZONE_BYTES: usize = SKETCH_PLANES + 8;

/// Bytes of the resident form of `slots` slots: the planes, then one zone
/// per [`ZONE_SLOTS`] slots or part of it.
const fn resident_bytes(slots: usize) -> usize {
    slots * SKETCH_PLANES + slots.div_ceil(ZONE_SLOTS) * ZONE_BYTES
}

/// The slots of a resident form of `bytes` bytes — the inverse of
/// [`resident_bytes`]: every whole run of [`ZONE_SLOTS`] slots takes
/// their planes and one zone, and what is left is a zone and the planes
/// of the last, partial run.
const fn slots_in(bytes: usize) -> usize {
    const RUN: usize = resident_bytes(ZONE_SLOTS);
    (bytes / RUN) * ZONE_SLOTS + (bytes % RUN).saturating_sub(ZONE_BYTES) / SKETCH_PLANES
}

/// True for the planes of floor levels — the corner floors and the
/// segment minima — which a hull widens downwards; the other level planes
/// hold ceilings, widened upwards.
const fn is_floor(plane: usize) -> bool {
    matches!(plane, PLANE_FIRST_LO | PLANE_LAST_LO)
        || (plane >= PLANE_SEG_MIN && plane < PLANE_SEG_MAX)
}

/// Byte `hull` of plane `plane` of a hull widened by the `levels` of
/// that plane: flag bits are or-ed, floors take the smallest level and
/// ceilings the largest — one fold over a run of a plane, which the
/// compiler vectorises.
fn widen(plane: usize, hull: u8, levels: &[u8]) -> u8 {
    let fold = |pick: fn(u8, u8) -> u8| levels.iter().fold(hull, |a, &b| pick(a, b));
    match plane {
        PLANE_FLAGS => fold(|a, b| a | b),
        _ if is_floor(plane) => fold(u8::min),
        _ => fold(u8::max),
    }
}

/// A zone that covers no slot yet — every byte the identity of
/// [`widen`], a tag range any tag widens.
const EMPTY_ZONE: [u8; ZONE_BYTES] = {
    let mut zone = [0u8; ZONE_BYTES];
    let mut plane = 0;
    while plane < SKETCH_PLANES {
        if is_floor(plane) {
            zone[plane] = u8::MAX;
        }
        plane += 1;
    }
    // Tags: the smallest starts at u32::MAX, the largest at 0.
    let mut byte = SKETCH_PLANES;
    while byte < SKETCH_PLANES + 4 {
        zone[byte] = u8::MAX;
        byte += 1;
    }
    zone
};

/// The plane holding record byte `offset` (a non-reserved one).
const fn plane_of(offset: usize) -> usize {
    if offset == OFF_FLAGS {
        PLANE_FLAGS
    } else {
        offset - 3
    }
}

/// The record byte plane `plane` holds.
const fn offset_of(plane: usize) -> usize {
    if plane == PLANE_FLAGS {
        OFF_FLAGS
    } else {
        plane + 3
    }
}

/// The affine quantiser of one length group: level `l` represents the
/// value `vmin + l · step`. Frozen when the group first appears so
/// sketches stay comparable across appends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchParams {
    /// Value represented by level 0.
    pub vmin: f64,
    /// Value increment per level.
    pub step: f64,
}

impl SketchParams {
    /// Fit a quantiser to an observed value range, padded slightly so
    /// the observed extremes themselves quantise in-range. Degenerate
    /// ranges (empty data, non-finite extremes) fall back to a unit
    /// step around zero — every encode is then out-of-range and yields
    /// invalid (non-pruning) sketches, which is sound.
    pub fn fit(min: f64, max: f64) -> SketchParams {
        if !min.is_finite() || !max.is_finite() || min > max {
            return SketchParams {
                vmin: 0.0,
                step: 1.0,
            };
        }
        let pad = 1e-9 * (max - min).abs().max(1.0);
        let vmin = min - pad;
        let step = ((max + pad) - vmin) / MAX_LEVEL as f64;
        SketchParams {
            vmin,
            step: if step.is_finite() && step > 0.0 {
                step
            } else {
                1.0
            },
        }
    }

    /// The value level `l` dequantises to.
    #[inline]
    pub fn dequant(&self, level: u8) -> f64 {
        self.vmin + level as f64 * self.step
    }

    /// Largest level whose dequantised value is ≤ `v` (verified in f64,
    /// so `dequant(floor_level(v)) ≤ v` holds exactly). `None` when `v`
    /// is non-finite or out of range.
    fn floor_level(&self, v: f64) -> Option<u8> {
        if !v.is_finite() {
            return None;
        }
        let mut l = ((v - self.vmin) / self.step).floor() as i64;
        l = l.clamp(-1, MAX_LEVEL + 1);
        while l >= 0 && self.vmin + l as f64 * self.step > v {
            l -= 1;
        }
        while l < MAX_LEVEL && self.vmin + (l + 1) as f64 * self.step <= v {
            l += 1;
        }
        (0..=MAX_LEVEL).contains(&l).then_some(l as u8)
    }

    /// Smallest level whose dequantised value is ≥ `v` (verified:
    /// `dequant(ceil_level(v)) ≥ v` exactly). `None` when out of range.
    fn ceil_level(&self, v: f64) -> Option<u8> {
        if !v.is_finite() {
            return None;
        }
        let mut l = ((v - self.vmin) / self.step).ceil() as i64;
        l = l.clamp(-1, MAX_LEVEL + 1);
        while l <= MAX_LEVEL && self.vmin + l as f64 * self.step < v {
            l += 1;
        }
        while l > 0 && self.vmin + (l - 1) as f64 * self.step >= v {
            l -= 1;
        }
        (0..=MAX_LEVEL).contains(&l).then_some(l as u8)
    }
}

/// Half-open position range of segment `s` for a subsequence of length
/// `n` — the same partition on the query and candidate side.
#[inline]
fn segment_range(s: usize, n: usize) -> (usize, usize) {
    (s * n / SKETCH_SEGMENTS, (s + 1) * n / SKETCH_SEGMENTS)
}

/// Encode `values` into the [`SKETCH_STRIDE`] bytes at `out`. A value
/// outside the quantiser's range (possible for appended series — the
/// group's params are frozen) or non-finite yields the invalid
/// placeholder instead.
///
/// # Panics
/// Panics when `out` is not exactly [`SKETCH_STRIDE`] bytes.
pub fn encode_into(params: &SketchParams, values: &[f64], out: &mut [u8]) {
    assert_eq!(out.len(), SKETCH_STRIDE, "sketch slot has a fixed stride");
    out.fill(0);
    let n = values.len();
    let invalid = |out: &mut [u8]| out[OFF_FLAGS] = FLAG_INVALID;
    if n == 0 {
        return invalid(out);
    }
    let corners = [
        (OFF_FIRST_LO, OFF_FIRST_HI, values[0]),
        (OFF_LAST_LO, OFF_LAST_HI, values[n - 1]),
    ];
    for (off_lo, off_hi, v) in corners {
        match (params.floor_level(v), params.ceil_level(v)) {
            (Some(lo), Some(hi)) => {
                out[off_lo] = lo;
                out[off_hi] = hi;
            }
            _ => return invalid(out),
        }
    }
    for s in 0..SKETCH_SEGMENTS {
        let (a, b) = segment_range(s, n);
        if a >= b {
            // Empty segment (n < SKETCH_SEGMENTS): benign extremes; the
            // query side skips zero-weight segments.
            out[OFF_SEG_MIN + s] = 0;
            out[OFF_SEG_MAX + s] = u8::MAX;
            continue;
        }
        let seg = &values[a..b];
        let smin = seg.iter().cloned().fold(f64::INFINITY, f64::min);
        let smax = seg.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        match (params.floor_level(smin), params.ceil_level(smax)) {
            (Some(lo), Some(hi)) => {
                out[OFF_SEG_MIN + s] = lo;
                out[OFF_SEG_MAX + s] = hi;
            }
            _ => return invalid(out),
        }
    }
}

/// One series quantised once under one [`SketchParams`]: the form the
/// records of its stride-1 windows are built from (see the module docs).
///
/// Two bytes a point — a floor level and a ceiling level — and the
/// places of the points that lack one of the two, beside a borrow of the
/// samples, which the windows that touch such a point are encoded from.
/// Transient by design: whoever sketches a series builds its column,
/// encodes the windows — of every length quantised alike — and drops it.
#[derive(Debug)]
pub struct LevelColumn<'a> {
    params: SketchParams,
    values: &'a [f64],
    /// `floor_level` of every point (0 where it has none).
    floors: Vec<u8>,
    /// `ceil_level` of every point (0 where it has none).
    ceils: Vec<u8>,
    /// Where the points missing a level sit, ascending: a window is all
    /// in range exactly when none sits inside it.
    odd: Vec<usize>,
}

impl<'a> LevelColumn<'a> {
    /// Quantise every point of `values` under `params`.
    pub fn new(params: SketchParams, values: &'a [f64]) -> LevelColumn<'a> {
        let mut floors = Vec::with_capacity(values.len());
        let mut ceils = Vec::with_capacity(values.len());
        let mut odd = Vec::new();
        for (at, &v) in values.iter().enumerate() {
            let levels = params.floor_level(v).zip(params.ceil_level(v));
            if levels.is_none() {
                odd.push(at);
            }
            let (lo, hi) = levels.unwrap_or_default();
            floors.push(lo);
            ceils.push(hi);
        }
        LevelColumn {
            params,
            values,
            floors,
            ceils,
            odd,
        }
    }

    /// Write to `out` the record
    /// `encode_into(params, &values[start..start + len], out)` writes,
    /// byte for byte.
    ///
    /// # Panics
    /// Panics when the window reaches past the series or `out` is not
    /// exactly [`SKETCH_STRIDE`] bytes.
    pub fn encode_window(&self, start: usize, len: usize, out: &mut [u8]) {
        let end = start + len;
        let first_odd = self.odd.partition_point(|&at| at < start);
        if len == 0 || self.odd.get(first_odd).is_some_and(|&at| at < end) {
            return encode_into(&self.params, &self.values[start..end], out);
        }
        assert_eq!(out.len(), SKETCH_STRIDE, "sketch slot has a fixed stride");
        out.fill(0);
        let (floors, ceils) = (&self.floors[start..end], &self.ceils[start..end]);
        out[OFF_FIRST_LO] = floors[0];
        out[OFF_FIRST_HI] = ceils[0];
        out[OFF_LAST_LO] = floors[len - 1];
        out[OFF_LAST_HI] = ceils[len - 1];
        for s in 0..SKETCH_SEGMENTS {
            let (a, b) = segment_range(s, len);
            // An empty segment gets `encode_into`'s benign extremes.
            let (lo, hi) = floors[a..b].iter().zip(&ceils[a..b]).fold(
                if a < b { (u8::MAX, 0) } else { (0, u8::MAX) },
                |(lo, hi), (&floor, &ceil)| (lo.min(floor), hi.max(ceil)),
            );
            out[OFF_SEG_MIN + s] = lo;
            out[OFF_SEG_MAX + s] = hi;
        }
    }
}

/// The sketches of one similarity group in their resident, plane-major
/// form: plane `p` (see the module docs) is the `cardinality` bytes
/// starting at `p × cardinality`, slot `i` of every plane belonging to
/// the group's member `i`, all behind one reference-counted allocation
/// (none while there is no slot).
///
/// Never rewritten in place: a clone shares the allocation, and
/// [`SketchPlanes::grown`] builds a new set, so a group that gained no
/// member keeps sharing its planes with every earlier epoch of the base.
/// Equality is byte-exact. Every reader goes through [`PlanesRef`]
/// ([`Self::view`]).
#[derive(Debug, Clone, Default)]
pub struct SketchPlanes(Option<Arc<[u8]>>);

impl PartialEq for SketchPlanes {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for SketchPlanes {}

impl<'a> From<&'a SketchPlanes> for PlanesRef<'a> {
    fn from(planes: &'a SketchPlanes) -> Self {
        planes.view()
    }
}

impl SketchPlanes {
    /// The plane-major bytes.
    #[inline]
    fn bytes(&self) -> &[u8] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// The slots, borrowed — the form every reader takes.
    #[inline]
    pub fn view(&self) -> PlanesRef<'_> {
        PlanesRef(self.bytes())
    }

    /// Members sketched.
    #[inline]
    pub fn cardinality(&self) -> usize {
        slots_in(self.bytes().len())
    }

    /// Heap bytes behind this handle, reference counts included.
    pub fn heap_bytes(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |bytes| 2 * std::mem::size_of::<usize>() + bytes.len())
    }

    /// Transpose a run of [`SKETCH_STRIDE`]-byte records (the persisted
    /// form) into planes, slot `i` tagged `tag(i)`, and derive their zones.
    ///
    /// # Panics
    /// Panics when `records` is not a whole number of records.
    pub fn from_records(records: &[u8], tag: impl Fn(usize) -> u32) -> SketchPlanes {
        assert_eq!(records.len() % SKETCH_STRIDE, 0, "whole sketch records");
        SketchPlanes::default().grown(records.len() / SKETCH_STRIDE, |slot, record| {
            record.copy_from_slice(&records[slot * SKETCH_STRIDE..(slot + 1) * SKETCH_STRIDE]);
            tag(slot)
        })
    }

    /// [`PlanesRef::grown`] of [`Self::view`]; `self` is left as it was.
    pub fn grown(&self, total: usize, encode: impl FnMut(usize, &mut [u8]) -> u32) -> SketchPlanes {
        if total == self.cardinality() {
            return self.clone();
        }
        self.view().grown(total, encode)
    }
}

/// A group's sketch slots, borrowed from its [`SketchPlanes`]: with `n`
/// slots, slot `i` of plane `p` is byte `p × n + i`. Equality is over the
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanesRef<'a>(&'a [u8]);

impl<'a> PlanesRef<'a> {
    /// No slots.
    pub const EMPTY: PlanesRef<'static> = PlanesRef(&[]);

    /// Every slot of plane `plane`.
    #[inline]
    fn plane(&self, plane: usize) -> &'a [u8] {
        let slots = self.cardinality();
        &self.0[plane * slots..][..slots]
    }

    /// Members sketched.
    #[inline]
    pub fn cardinality(&self) -> usize {
        slots_in(self.0.len())
    }

    /// Zones: one per [`ZONE_SLOTS`] slots or part of it.
    #[inline]
    pub fn zones(&self) -> usize {
        self.cardinality().div_ceil(ZONE_SLOTS)
    }

    /// Zone `zone`: the hull and the tag range of slots
    /// `zone × ZONE_SLOTS ..` up to the next zone or the last slot.
    ///
    /// # Panics
    /// Panics when `zone` is not below [`Self::zones`].
    pub fn zone(&self, zone: usize) -> Zone<'a> {
        let bytes = &self.zone_bytes()[zone * ZONE_BYTES..][..ZONE_BYTES];
        Zone(bytes.try_into().expect("one zone"))
    }

    /// Every zone's bytes, zone after zone.
    fn zone_bytes(&self) -> &'a [u8] {
        &self.0[SKETCH_PLANES * self.cardinality()..]
    }

    /// Append every slot to `out` as a [`SKETCH_STRIDE`]-byte record
    /// (reserved bytes zero, as [`encode_into`] leaves them).
    pub fn write_records(&self, out: &mut Vec<u8>) {
        out.reserve(self.cardinality() * SKETCH_STRIDE);
        for slot in 0..self.cardinality() {
            out.extend_from_slice(&self.record(slot));
        }
    }

    /// Slot `slot` as a record — the form [`QuerySketch::bound_sq`] reads.
    ///
    /// # Panics
    /// Panics when `slot` is not below [`Self::cardinality`].
    pub fn record(&self, slot: usize) -> [u8; SKETCH_STRIDE] {
        let slots = self.cardinality();
        assert!(slot < slots, "sketch slot {slot} of {slots}");
        let mut record = [0u8; SKETCH_STRIDE];
        for plane in 0..SKETCH_PLANES {
            record[offset_of(plane)] = self.plane(plane)[slot];
        }
        record
    }

    /// These slots extended to `total`, as planes of their own: the
    /// existing slots are copied, and `encode(slot, record)` fills the
    /// (zeroed) record of each new one and returns its tag. The zones are
    /// the old ones widened by the new slots, and new ones for slots past
    /// the old zones. One allocation, of the final size (none when
    /// `total` is 0).
    ///
    /// # Panics
    /// Panics when `total` is below the current cardinality.
    pub fn grown(
        &self,
        total: usize,
        mut encode: impl FnMut(usize, &mut [u8]) -> u32,
    ) -> SketchPlanes {
        let done = self.cardinality();
        assert!(total >= done, "sketch planes only grow");
        if total == 0 {
            return SketchPlanes::default();
        }
        let mut bytes: Arc<[u8]> = std::iter::repeat_n(0u8, resident_bytes(total)).collect();
        let grown = Arc::get_mut(&mut bytes).expect("not shared yet");
        let (planes, zones) = grown.split_at_mut(SKETCH_PLANES * total);
        for plane in 0..SKETCH_PLANES {
            planes[plane * total..plane * total + done].copy_from_slice(self.plane(plane));
        }
        let old = self.zone_bytes();
        zones[..old.len()].copy_from_slice(old);
        for zone in zones[old.len()..].chunks_exact_mut(ZONE_BYTES) {
            zone.copy_from_slice(&EMPTY_ZONE);
        }
        // Zone by zone: the new slots' records into their planes, then the
        // zone's hull widened by them a plane at a time.
        let mut record = [0u8; SKETCH_STRIDE];
        for z in done / ZONE_SLOTS..total.div_ceil(ZONE_SLOTS) {
            let slots = (z * ZONE_SLOTS).max(done)..((z + 1) * ZONE_SLOTS).min(total);
            let zone = &mut zones[z * ZONE_BYTES..][..ZONE_BYTES];
            let (hull, tags) = zone.split_at_mut(SKETCH_PLANES);
            let (lowest, highest) = tags.split_at_mut(4);
            let tag_at = |at: &[u8]| u32::from_le_bytes(at.try_into().expect("4 bytes"));
            let (mut low, mut high) = (tag_at(lowest), tag_at(highest));
            for slot in slots.clone() {
                record.fill(0);
                let tag = encode(slot, &mut record);
                (low, high) = (low.min(tag), high.max(tag));
                for plane in 0..SKETCH_PLANES {
                    planes[plane * total + slot] = record[offset_of(plane)];
                }
            }
            lowest.copy_from_slice(&low.to_le_bytes());
            highest.copy_from_slice(&high.to_le_bytes());
            for (plane, byte) in hull.iter_mut().enumerate() {
                *byte = widen(plane, *byte, &planes[plane * total..][slots.clone()]);
            }
        }
        SketchPlanes(Some(bytes))
    }

    /// True when an append left these sketches alone: the same slots of
    /// the same planes, or no slots on either side.
    pub fn shares_storage_with(&self, other: PlanesRef<'_>) -> bool {
        std::ptr::eq(self.0, other.0) || self.0.len() + other.0.len() == 0
    }

    /// One borrowed slice per plane, cut to `slots`.
    fn views(&self, slots: Range<usize>) -> [&'a [u8]; SKETCH_PLANES] {
        assert!(
            slots.start <= slots.end && slots.end <= self.cardinality(),
            "sketch slots {slots:?} of {}",
            self.cardinality()
        );
        std::array::from_fn(|plane| &self.plane(plane)[slots.clone()])
    }
}

/// One zone of a group's sketches (see the module docs), borrowed: the
/// hull of its slots' records — their flags or-ed, the smallest of each
/// floor level and the largest of each ceiling level, in plane order —
/// and the range of their tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone<'a>(&'a [u8; ZONE_BYTES]);

impl Zone<'_> {
    /// The hull, as a record: [`QuerySketch::bound_sq`] of it is at most
    /// the bound of every slot of the zone.
    pub fn hull(&self) -> [u8; SKETCH_STRIDE] {
        let mut record = [0u8; SKETCH_STRIDE];
        for plane in 0..SKETCH_PLANES {
            record[offset_of(plane)] = self.0[plane];
        }
        record
    }

    /// The smallest and the largest tag of the zone's slots.
    pub fn tags(&self) -> std::ops::RangeInclusive<u32> {
        let tag = |at: usize| u32::from_le_bytes(self.0[at..at + 4].try_into().expect("4 bytes"));
        tag(SKETCH_PLANES)..=tag(SKETCH_PLANES + 4)
    }
}

/// The query's precomputed side of the L0 bound for one length group:
/// segment-wide envelope extremes, segment weights, and the raw corner
/// values. Built once per [`crate::envelope::Envelope`] the cascade
/// already has; [`QuerySketch::bound_sq`] then costs a few dozen flops
/// per candidate over its 24 sketch bytes.
#[derive(Debug, Clone)]
pub struct QuerySketch {
    pub(crate) params: SketchParams,
    /// Per segment: (envelope max `H`, envelope min `L`, weight).
    pub(crate) segments: [(f64, f64, f64); SKETCH_SEGMENTS],
    pub(crate) q_first: f64,
    pub(crate) q_last: f64,
    pub(crate) len: usize,
}

impl QuerySketch {
    /// Build from the query and the envelope the LB_Keogh tier already
    /// built (same band radius — that is what makes the segment part
    /// sound). The envelope has one entry per *candidate* position
    /// ([`Envelope::build_across`]; [`Envelope::build`] when candidates
    /// are as long as the query): segments partition `env.len()` exactly
    /// as [`encode_into`] partitions a candidate of that length, while
    /// the corners stay the query's own first and last values.
    ///
    /// # Panics
    /// Panics when the query or the envelope is empty.
    pub fn new(query: &[f64], env: &Envelope, params: SketchParams) -> QuerySketch {
        let n = query.len();
        let m = env.len();
        assert!(n > 0, "L0 sketch of an empty query");
        assert!(m > 0, "L0 sketch against an empty envelope");
        let mut segments = [(f64::NEG_INFINITY, f64::INFINITY, 0.0); SKETCH_SEGMENTS];
        for (s, slot) in segments.iter_mut().enumerate() {
            let (a, b) = segment_range(s, m);
            if a >= b {
                continue;
            }
            let h = env.upper[a..b]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            let l = env.lower[a..b]
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            *slot = (h, l, (b - a) as f64);
        }
        QuerySketch {
            params,
            segments,
            q_first: query[0],
            q_last: query[n - 1],
            len: m,
        }
    }

    /// Length of every candidate this sketch bounds (the envelope's).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length candidates (never constructed; see `new`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sound squared DTW lower bound from one candidate sketch record.
    /// Invalid sketches bound 0 (never prune). This is the reference the
    /// block test ([`Self::survivors`]) is checked against.
    ///
    /// # Panics
    /// Panics when `sketch` is not exactly [`SKETCH_STRIDE`] bytes.
    pub fn bound_sq(&self, sketch: &[u8]) -> f64 {
        assert_eq!(sketch.len(), SKETCH_STRIDE, "sketch slot stride");
        if sketch[OFF_FLAGS] & FLAG_INVALID != 0 {
            return 0.0;
        }
        let kim = self.corner_sq(
            sketch[OFF_FIRST_LO],
            sketch[OFF_FIRST_HI],
            sketch[OFF_LAST_LO],
            sketch[OFF_LAST_HI],
        );
        let seg_sq = self.segment_sq(|s| (sketch[OFF_SEG_MIN + s], sketch[OFF_SEG_MAX + s]));
        // Both parts may charge the corner cells, so take the tighter
        // one rather than the unsound sum.
        kim.max(seg_sq)
    }

    /// Corner part: squared distance from each query corner to the
    /// dequantised interval bracketing the candidate's corner value.
    #[inline]
    fn corner_sq(&self, first_lo: u8, first_hi: u8, last_lo: u8, last_hi: u8) -> f64 {
        let p = &self.params;
        let gap = |q: f64, lo: u8, hi: u8| (q - p.dequant(hi)).max(p.dequant(lo) - q).max(0.0);
        let d_first = gap(self.q_first, first_lo, first_hi);
        let mut kim = d_first * d_first;
        if self.len > 1 {
            let d_last = gap(self.q_last, last_lo, last_hi);
            kim += d_last * d_last;
        }
        kim
    }

    /// Segment part: weighted squared escape of the candidate's
    /// dequantised [min, max] bracket — `levels(s)` — from the
    /// segment-wide envelope.
    #[inline]
    fn segment_sq(&self, levels: impl Fn(usize) -> (u8, u8)) -> f64 {
        let p = &self.params;
        let mut seg_sq = 0.0;
        for (s, &(h, l, w)) in self.segments.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let (min, max) = levels(s);
            let e = (p.dequant(min) - h).max(l - p.dequant(max)).max(0.0);
            seg_sq += w * e * e;
        }
        seg_sq
    }

    /// The zone test: true when the bound of `zone`'s hull exceeds
    /// `bound_sq`, so the block test would reject every slot of the zone
    /// at `bound_sq` (see the module docs) — never for a zone holding an
    /// invalid sketch.
    pub fn rejects_zone(&self, zone: &Zone<'_>, bound_sq: f64) -> bool {
        // `bound_sq` of the hull, read in place: the corner part first,
        // the segment part only for a zone it does not reject.
        let hull = zone.0;
        hull[PLANE_FLAGS] & FLAG_INVALID == 0
            && (self.corner_sq(
                hull[PLANE_FIRST_LO],
                hull[PLANE_FIRST_HI],
                hull[PLANE_LAST_LO],
                hull[PLANE_LAST_HI],
            ) > bound_sq
                || self.segment_sq(|s| (hull[PLANE_SEG_MIN + s], hull[PLANE_SEG_MAX + s]))
                    > bound_sq)
    }

    /// The block test: append to `out`, in ascending order, every slot
    /// of `slots` whose bound does **not** exceed `bound_sq` — exactly
    /// the slots `s` with `!(self.bound_sq(&planes.record(s)) > bound_sq)`,
    /// whatever kernel level runs (see the module docs).
    ///
    /// # Panics
    /// Panics when `slots` reaches past the planes' cardinality.
    pub fn survivors<'p>(
        &self,
        planes: impl Into<PlanesRef<'p>>,
        slots: Range<usize>,
        bound_sq: f64,
        out: &mut Vec<usize>,
    ) {
        self.survivors_at(kernels::level(), planes, slots, bound_sq, out);
    }

    /// [`Self::survivors`] on an explicit level (bench / property-test
    /// entry). Only [`KernelLevel::Avx2`] has a vector path, taken when
    /// the CPU has it; every other level runs the scalar reference.
    pub fn survivors_at<'p>(
        &self,
        level: KernelLevel,
        planes: impl Into<PlanesRef<'p>>,
        slots: Range<usize>,
        bound_sq: f64,
        out: &mut Vec<usize>,
    ) {
        let first_slot = slots.start;
        let views = planes.into().views(slots);
        kernels::l0_survivors_at(level, self, &views, first_slot, bound_sq, out);
    }

    /// The scalar block test over positions `at` of the plane `views`
    /// (position `i` is slot `first_slot + i`).
    pub(crate) fn survivors_scalar(
        &self,
        views: &[&[u8]; SKETCH_PLANES],
        at: Range<usize>,
        first_slot: usize,
        bound_sq: f64,
        out: &mut Vec<usize>,
    ) {
        for i in at {
            let rejected = if views[PLANE_FLAGS][i] & FLAG_INVALID != 0 {
                0.0 > bound_sq
            } else {
                let kim = self.corner_sq(
                    views[PLANE_FIRST_LO][i],
                    views[PLANE_FIRST_HI][i],
                    views[PLANE_LAST_LO][i],
                    views[PLANE_LAST_HI][i],
                );
                // The bound is max(kim, seg): once the corner part
                // rejects, the segment part cannot un-reject.
                kim > bound_sq
                    || self
                        .segment_sq(|s| (views[PLANE_SEG_MIN + s][i], views[PLANE_SEG_MAX + s][i]))
                        > bound_sq
            };
            if !rejected {
                out.push(first_slot + i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::{dtw_sq, Band};

    fn walk(n: usize, seed: u64) -> Vec<f64> {
        let mut v = Vec::with_capacity(n);
        let mut x = 0.0f64;
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            x += (state % 2000) as f64 / 1000.0 - 1.0;
            v.push(x);
        }
        v
    }

    fn fit_over(slices: &[&[f64]]) -> SketchParams {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in slices {
            for &v in *s {
                min = min.min(v);
                max = max.max(v);
            }
        }
        SketchParams::fit(min, max)
    }

    #[test]
    fn a_handle_is_two_words_and_each_slot_decides_as_its_record() {
        assert!(std::mem::size_of::<SketchPlanes>() <= 16);
        assert!(std::mem::size_of::<PlanesRef<'_>>() <= 16);
        assert_eq!(SketchPlanes::default().heap_bytes(), 0);
        let params = SketchParams::fit(0.0, 1.0);
        let mut records = [[0u8; SKETCH_STRIDE]; 3];
        for (i, record) in records.iter_mut().enumerate() {
            encode_into(&params, &[0.25 * i as f64, 0.5], record);
        }
        let own = SketchPlanes::from_records(&records.concat(), |slot| 7 - slot as u32);
        assert_eq!(
            (own.cardinality(), own.heap_bytes()),
            (3, 16 + 3 * SKETCH_PLANES + ZONE_BYTES)
        );
        // Each slot reads back its record and is kept or rejected as the
        // record's own bound says, at every kernel level.
        let q = [0.9, 0.9];
        let qs = QuerySketch::new(&q, &Envelope::build(&q, 1), params);
        let planes = own.view();
        for (slot, record) in records.iter().enumerate() {
            assert_eq!(planes.record(slot), *record);
            for level in KernelLevel::available() {
                let mut survivors = Vec::new();
                qs.survivors_at(level, planes, slot..slot + 1, 0.01, &mut survivors);
                let rejected = qs.bound_sq(record) > 0.01;
                assert_eq!(survivors.is_empty(), rejected, "{level:?} slot {slot}");
            }
        }
        // Planes grow into planes of their own with their slots unchanged;
        // the old ones stay as they were, and only a clone shares them.
        let grown = own.grown(4, |slot, record| {
            assert_eq!(slot, 3);
            record.copy_from_slice(&records[0]);
            9
        });
        let mut back = Vec::new();
        grown.view().write_records(&mut back);
        assert_eq!(back, [records.concat(), records[0].to_vec()].concat());
        assert!(own.clone().view().shares_storage_with(planes));
        assert!(!grown.view().shares_storage_with(planes));
        assert!(
            SketchPlanes::from_records(&records.concat(), |slot| 7 - slot as u32).view() == planes
        );
        // One zone over all four slots: their tags 7, 6, 5 and 9.
        assert_eq!((planes.zones(), grown.view().zones()), (1, 1));
        assert_eq!(grown.view().zone(0).tags(), 5..=9);
        assert_eq!(PlanesRef::EMPTY.cardinality(), 0);
        assert!(PlanesRef::EMPTY.shares_storage_with(SketchPlanes::default().view()));
    }

    #[test]
    fn quantiser_brackets_values() {
        let p = SketchParams::fit(-3.0, 7.0);
        for v in [-3.0, -2.999, 0.0, 1.2345, 6.999, 7.0] {
            let lo = p.floor_level(v).unwrap();
            let hi = p.ceil_level(v).unwrap();
            assert!(p.dequant(lo) <= v, "floor {v}");
            assert!(p.dequant(hi) >= v, "ceil {v}");
            assert!(hi as i64 - lo as i64 <= 1, "adjacent levels for {v}");
        }
        assert!(p.floor_level(8.0).is_none(), "out of range");
        assert!(p.ceil_level(-4.0).is_none(), "out of range");
        assert!(p.floor_level(f64::NAN).is_none());
    }

    #[test]
    fn the_quantiser_is_monotone_across_every_level_edge() {
        // What `LevelColumn` rests on: over ascending values the levels
        // never descend, "below the range" ordering before level 0 and
        // "above it" after level 255.
        for p in [
            SketchParams::fit(-3.0, 7.0),
            SketchParams::fit(1e15, 1e15 + 1.0),
            SketchParams::fit(f64::INFINITY, f64::NEG_INFINITY),
        ] {
            let mut sample = vec![f64::MIN, -1e300, 1e300, f64::MAX];
            for level in 0..=u8::MAX {
                let edge = p.dequant(level);
                let mid = edge + 0.5 * p.step;
                sample.extend([edge.next_down(), edge, edge.next_up(), mid]);
            }
            sample.extend([-1.0, 0.0, 1.0].map(|k| p.dequant(u8::MAX) + k * 1e-3 * p.step));
            sample.sort_by(f64::total_cmp);
            let rank = |level: Option<u8>, v: f64| match level {
                Some(l) => l as i32,
                None if v < p.dequant(0) => -1,
                None => MAX_LEVEL as i32 + 1,
            };
            for pair in sample.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let floors = (rank(p.floor_level(a), a), rank(p.floor_level(b), b));
                let ceils = (rank(p.ceil_level(a), a), rank(p.ceil_level(b), b));
                assert!(floors.0 <= floors.1, "floor {a:e} -> {b:e}: {floors:?}");
                assert!(ceils.0 <= ceils.1, "ceil {a:e} -> {b:e}: {ceils:?}");
            }
        }
    }

    /// Series of 64 points: a plain walk with one kind of hostility
    /// written over it, plus the all-hostile ones.
    fn hostile_series() -> Vec<Vec<f64>> {
        let plain = walk(64, 5);
        let with = |at: std::ops::Range<usize>, v: f64| {
            let mut s = plain.clone();
            s[at].fill(v);
            s
        };
        let (lo, hi) = plain
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let mut mixed = plain.clone();
        for (i, v) in [f64::NAN, f64::INFINITY, 1e300, -1e-300, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            mixed[7 + 11 * i] = v;
        }
        vec![
            plain.clone(),
            // One NaN lands on corners and inside segments as the window
            // slides; a run of six fills whole segments of long windows.
            with(20..21, f64::NAN),
            with(30..36, f64::NAN),
            with(0..1, f64::NAN),
            with(63..64, f64::NAN),
            with(12..13, f64::INFINITY),
            with(40..42, f64::NEG_INFINITY),
            // Just outside a quantiser frozen on the walk's own range.
            with(25..26, hi + 1e-6),
            with(33..34, lo - 1e-6),
            with(50..51, hi.next_up()),
            with(9..10, 1e300),
            with(44..45, -1e300),
            mixed,
            vec![2.5; 64],
            vec![0.0; 64],
            // `f64::min` may hand back either zero of a segment.
            (0..64).map(|i| [0.0, -0.0, 0.0][i % 3]).collect(),
            (0..64)
                .map(|i| i as f64 * f64::MIN_POSITIVE / 8.0)
                .collect(),
            (0..64).map(|i| (i as f64 - 32.0) * 1e-300).collect(),
            (0..64).map(|i| (i as f64 - 32.0) * 1e300).collect(),
            vec![f64::NAN; 64],
        ]
    }

    #[test]
    fn a_level_column_encodes_every_window_as_encode_into_does() {
        for (si, series) in hostile_series().iter().enumerate() {
            let finite = series.iter().filter(|v| v.is_finite());
            let (lo, hi) = finite.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
            let third = (hi - lo) / 3.0;
            for params in [
                SketchParams::fit(lo, hi),
                SketchParams::fit(lo + third, hi - third),
                SketchParams::fit(f64::INFINITY, f64::NEG_INFINITY),
            ] {
                let column = LevelColumn::new(params, series);
                for len in 0..=40 {
                    for start in 0..=series.len() - len {
                        let mut want = [0u8; SKETCH_STRIDE];
                        encode_into(&params, &series[start..start + len], &mut want);
                        let mut got = [0xa5u8; SKETCH_STRIDE];
                        column.encode_window(start, len, &mut got);
                        assert_eq!(got, want, "series {si} {params:?} [{start}, +{len})");
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_values_yield_non_pruning_sketch() {
        let p = SketchParams::fit(0.0, 1.0);
        let mut sk = [0u8; SKETCH_STRIDE];
        encode_into(&p, &[0.5, 99.0, 0.5, 0.5], &mut sk);
        assert_eq!(sk[OFF_FLAGS] & FLAG_INVALID, FLAG_INVALID);
        let q = [0.1, 0.2, 0.3, 0.4];
        let env = Envelope::build(&q, 1);
        let qs = QuerySketch::new(&q, &env, p);
        assert_eq!(qs.bound_sq(&sk), 0.0, "invalid sketches never prune");
    }

    #[test]
    fn bound_never_exceeds_banded_dtw_on_random_walks() {
        for n in [2usize, 5, 8, 16, 64, 96] {
            for seed in 0..12u64 {
                let q = walk(n, seed);
                let c = walk(n, seed + 100);
                let params = fit_over(&[&q, &c]);
                for r in [0usize, 1, n / 10 + 1, n] {
                    let env = Envelope::build(&q, r);
                    let qs = QuerySketch::new(&q, &env, params);
                    let mut sk = [0u8; SKETCH_STRIDE];
                    encode_into(&params, &c, &mut sk);
                    let lb = qs.bound_sq(&sk);
                    let d = dtw_sq(&q, &c, Band::SakoeChiba(r));
                    assert!(
                        lb <= d + 1e-9 * d.max(1.0),
                        "n={n} seed={seed} r={r}: L0 {lb} > dtw {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_is_tight_enough_to_fire() {
        // A candidate far from the query must get a strictly positive
        // bound — otherwise the tier never prunes anything.
        let n = 64;
        let q: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let c: Vec<f64> = q.iter().map(|v| v + 50.0).collect();
        let params = fit_over(&[&q, &c]);
        let env = Envelope::build(&q, 4);
        let qs = QuerySketch::new(&q, &env, params);
        let mut sk = [0u8; SKETCH_STRIDE];
        encode_into(&params, &c, &mut sk);
        let lb = qs.bound_sq(&sk);
        assert!(lb > 1000.0, "distant candidate got a weak bound: {lb}");
        // And the query against itself must not be rejected.
        let mut own = [0u8; SKETCH_STRIDE];
        encode_into(&params, &q, &mut own);
        let self_lb = qs.bound_sq(&own);
        let self_d = dtw_sq(&q, &q, Band::SakoeChiba(4));
        assert!(self_lb <= self_d + 1e-9, "self bound {self_lb}");
    }

    #[test]
    fn degenerate_params_are_sound() {
        let p = SketchParams::fit(f64::NAN, 3.0);
        assert_eq!(p.step, 1.0);
        let mut sk = [0u8; SKETCH_STRIDE];
        // Constant data: range collapses but stays sound.
        let pc = SketchParams::fit(2.0, 2.0);
        encode_into(&pc, &[2.0, 2.0, 2.0], &mut sk);
        assert_eq!(sk[OFF_FLAGS] & FLAG_INVALID, 0);
        let q = [2.0, 2.0, 2.0];
        let env = Envelope::build(&q, 1);
        let qs = QuerySketch::new(&q, &env, pc);
        let lb = qs.bound_sq(&sk);
        assert!(lb <= 1e-9, "identical constants must not be pruned: {lb}");
    }
}
