//! Runtime-dispatched SIMD kernels for the distance hot loops.
//!
//! Every inner loop the pruning cascade spends its time in — squared-diff
//! accumulation (ED), envelope-exceedance accumulation (LB_Keogh and its
//! z-normalised UCR variants), the lane-parallel DTW, the L0 block test,
//! the PAA grid's bound pass and the envelope min/max — lives here once,
//! with a scalar reference implementation and a `core::arch::x86_64` AVX2 path selected **once**
//! at startup via [`level`] (CPUID feature detection, overridable with
//! the `ONEX_FORCE_SCALAR` environment variable for fallback testing). A
//! CPU without AVX2 runs the scalar reference, as any other architecture
//! does.
//!
//! ## Exactness contract
//!
//! * [`sliding_minmax`] is **bit-exact** across levels: min/max of finite
//!   values is exact arithmetic.
//! * The accumulating kernels ([`sum_sq_diff`], [`sum_sq_diff_ea`],
//!   [`env_excess_sq`], …) sum in a fixed order at each level: the scalar
//!   reference term by term; AVX2 in four lane partials a 16-term block,
//!   folded as `(v0 + v2) + (v1 + v3)` into the running sum, then the
//!   tail through the scalar loop (unit-tested bit for bit). Across
//!   levels results agree to within a few ulps (property-tested at
//!   `1e-9` relative), and an early-abandon decision exactly on that ulp
//!   boundary may differ. Both outcomes are sound: the returned value is
//!   a correctly-rounded sum of the same terms either way.
//! * The three **lanes = candidates** kernels — [`dtw_lanes`], the L0
//!   block test behind [`crate::sketch::QuerySketch::survivors`] and the
//!   grid's bound pass [`grid_survivors_at`] — put one candidate in each
//!   lane of a 256-bit vector (64-bit lanes, 32-bit for the grid's `f32`
//!   pass) and run, per lane, the scalar reference's operations in the
//!   scalar reference's order (no fused multiply-add, `min`/`max` that
//!   treat a NaN as the reference does), so they are **bit-exact** too.
//!
//! ## Where `unsafe` remains
//!
//! The AVX2 kernels are safe `#[target_feature(enable = "avx2")]`
//! functions computing with value intrinsics. Three kinds of `unsafe`
//! block remain, each with its `SAFETY:` line: each dispatch's call after
//! `avx2(l)` found the CPU feature; `load`, `store`, `load_codes` and
//! `store_bounds`, whose `&[f64; 4]`, `&[i16; 8]` or `&mut [f32; 8]`
//! carries the bound; and the L0 cursor's read.
//!
//! ## The DTW tier
//!
//! Every DTW the cascade runs is EAPrunedDTW (Herrmann & Webb, DAMI
//! 2021): the scalar DP behind
//! [`crate::dtw::dtw_early_abandon_sq_scratch`] for representatives and
//! single candidates, [`dtw_lanes`] for members four at a time. Each row
//! computes only the window of columns a path within the threshold can
//! still reach, and the result is the full DP's bit for bit (see the
//! scalar DP's docs).
//!
//! The `_at` variants take an explicit [`KernelLevel`] so benchmarks and
//! property tests can pin a path regardless of what [`level`] detected;
//! asked for [`KernelLevel::Avx2`] on a CPU without it, they run scalar.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::*;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::OnceLock;

use crate::dtw::{dtw_early_abandon_sq_scratch, Band, DtwScratch};
use crate::sketch::{self, QuerySketch, SKETCH_PLANES};

/// Which instruction set the dispatched kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// Portable scalar reference (always available, and the forced path
    /// under `ONEX_FORCE_SCALAR`).
    Scalar,
    /// 256-bit `core::arch::x86_64` path (4 doubles per op).
    Avx2,
}

impl KernelLevel {
    /// Stable lowercase name (`"scalar"`, `"avx2"`) for
    /// reports, `/api/summary`, and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            KernelLevel::Scalar => "scalar",
            KernelLevel::Avx2 => "avx2",
        }
    }

    /// Every level this hardware can run, scalar first — what a bench
    /// sweeps, regardless of the `ONEX_FORCE_SCALAR` override honoured
    /// by [`level`].
    pub fn available() -> Vec<KernelLevel> {
        let mut v = vec![KernelLevel::Scalar];
        if avx2(KernelLevel::Avx2) {
            v.push(KernelLevel::Avx2);
        }
        v
    }
}

/// The level every dispatched kernel in this process uses, detected once
/// on first call: AVX2 where the CPU has it, unless the
/// `ONEX_FORCE_SCALAR` environment variable is set (to anything but `0`
/// or empty), which pins the scalar reference path.
pub fn level() -> KernelLevel {
    static LEVEL: OnceLock<KernelLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

fn detect() -> KernelLevel {
    if std::env::var_os("ONEX_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0") {
        return KernelLevel::Scalar;
    }
    *KernelLevel::available()
        .last()
        .expect("scalar always present")
}

/// True when `l` asks for AVX2 and this CPU has it: the one check in
/// front of every AVX2 kernel call, and what makes those calls sound.
fn avx2(l: KernelLevel) -> bool {
    #[cfg(target_arch = "x86_64")]
    let cpu = || is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let cpu = || false;
    l == KernelLevel::Avx2 && cpu()
}

/// Four doubles into a vector; the array type carries the bound.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn load(quad: &[f64; 4]) -> __m256d {
    // SAFETY: `quad` is 32 readable bytes, and `loadu` takes any alignment.
    unsafe { _mm256_loadu_pd(quad.as_ptr()) }
}

/// A vector into four doubles; the array type carries the bound.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn store(quad: &mut [f64; 4], v: __m256d) {
    // SAFETY: `quad` is 32 writable bytes, and `storeu` takes any alignment.
    unsafe { _mm256_storeu_pd(quad.as_mut_ptr(), v) }
}

/// `(v0 + v2) + (v1 + v3)`: the fold of one block's lane partials.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn hsum256(v: __m256d) -> f64 {
    let s = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
    _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
}

/// How many accumulated terms between early-abandon checks in the
/// accumulating kernels. Shared by every level so abandonment decisions
/// depend on the data, not the instruction set.
const EA_BLOCK: usize = 16;

// ---------------------------------------------------------------------
// Squared-diff accumulation (ED).
// ---------------------------------------------------------------------

/// `Σ (x_i − y_i)²` — the ED inner loop.
///
/// # Panics
/// Panics when lengths differ.
pub fn sum_sq_diff(x: &[f64], y: &[f64]) -> f64 {
    sum_sq_diff_ea_at(level(), x, y, f64::INFINITY)
}

/// [`sum_sq_diff`] that returns `f64::INFINITY` once a partial sum
/// *exceeds* `ub_sq` (checked every `EA_BLOCK` terms; a partial sum
/// equal to the bound keeps going).
///
/// # Panics
/// Panics when lengths differ.
pub fn sum_sq_diff_ea(x: &[f64], y: &[f64], ub_sq: f64) -> f64 {
    sum_sq_diff_ea_at(level(), x, y, ub_sq)
}

/// [`sum_sq_diff_ea`] on an explicit level (bench/property-test entry).
/// [`KernelLevel::Avx2`] runs the scalar reference on a CPU without
/// AVX2.
///
/// # Panics
/// Panics when lengths differ.
pub fn sum_sq_diff_ea_at(l: KernelLevel, x: &[f64], y: &[f64], ub_sq: f64) -> f64 {
    assert_eq!(x.len(), y.len(), "ED requires equal lengths");
    if avx2(l) {
        // SAFETY: `avx2(l)` found AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        return unsafe { sum_sq_diff_avx2(x, y, ub_sq) };
    }
    sum_sq_diff_scalar(x, y, 0.0, ub_sq)
}

/// The scalar reference from the running sum `acc`: the whole sum at
/// the scalar level, the tail after the last full block at AVX2.
fn sum_sq_diff_scalar(x: &[f64], y: &[f64], mut acc: f64, ub_sq: f64) -> f64 {
    for (cx, cy) in x.chunks(EA_BLOCK).zip(y.chunks(EA_BLOCK)) {
        for (a, b) in cx.iter().zip(cy) {
            let d = a - b;
            acc += d * d;
        }
        if acc > ub_sq {
            return f64::INFINITY;
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sum_sq_diff_avx2(x: &[f64], y: &[f64], ub_sq: f64) -> f64 {
    let (x_blocks, x_tail) = x.as_chunks::<EA_BLOCK>();
    let (y_blocks, y_tail) = y.as_chunks::<EA_BLOCK>();
    let mut acc = 0.0;
    for (xb, yb) in x_blocks.iter().zip(y_blocks) {
        let mut v = _mm256_setzero_pd();
        for (xq, yq) in xb.as_chunks::<4>().0.iter().zip(yb.as_chunks::<4>().0) {
            let d = _mm256_sub_pd(load(xq), load(yq));
            v = _mm256_add_pd(v, _mm256_mul_pd(d, d));
        }
        acc += hsum256(v);
        if acc > ub_sq {
            return f64::INFINITY;
        }
    }
    sum_sq_diff_scalar(x_tail, y_tail, acc, ub_sq)
}

// ---------------------------------------------------------------------
// Envelope exceedance (LB_Keogh and the UCR z-normalised variants).
// ---------------------------------------------------------------------

/// Affine views applied inside the envelope-exceedance kernels: the
/// sequence is read as `(x_i − x_sub) · x_mul` and the envelope as
/// `(e_i − e_sub) · e_mul` — the identity `(0, 1)` for the plain
/// LB_Keogh, the candidate's z-normalisation for the UCR EQ variant, and
/// the envelope's z-normalisation for the UCR EC variant. Using the
/// same subtract-then-multiply form as `znorm_with_moments` keeps the
/// bound consistent with the values the DTW stage will actually see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvAffine {
    /// Offset subtracted from each sequence value.
    pub x_sub: f64,
    /// Scale applied to each offset sequence value.
    pub x_mul: f64,
    /// Offset subtracted from each envelope value.
    pub e_sub: f64,
    /// Scale applied to each offset envelope value.
    pub e_mul: f64,
}

impl EnvAffine {
    /// No transformation on either side.
    pub const IDENTITY: EnvAffine = EnvAffine {
        x_sub: 0.0,
        x_mul: 1.0,
        e_sub: 0.0,
        e_mul: 1.0,
    };

    /// Z-normalise the sequence side with the given moments (`scale`
    /// should be `1/σ`, or `0` for a flat window — matching the
    /// `STD_FLOOR` convention of collapsing flat windows to zero).
    pub fn znorm_x(mean: f64, scale: f64) -> EnvAffine {
        EnvAffine {
            x_sub: mean,
            x_mul: scale,
            ..EnvAffine::IDENTITY
        }
    }

    /// Z-normalise the envelope side with the given moments.
    pub fn znorm_env(mean: f64, scale: f64) -> EnvAffine {
        EnvAffine {
            e_sub: mean,
            e_mul: scale,
            ..EnvAffine::IDENTITY
        }
    }
}

/// `Σ max(x'_i − upper'_i, lower'_i − x'_i, 0)²` under the affine views,
/// abandoning (returns `f64::INFINITY`) once a partial sum exceeds
/// `ub_sq` — the LB_Keogh inner loop.
///
/// # Panics
/// Panics when the three slices have different lengths.
pub fn env_excess_sq(x: &[f64], lower: &[f64], upper: &[f64], aff: EnvAffine, ub_sq: f64) -> f64 {
    env_excess_sq_at(level(), x, lower, upper, aff, ub_sq)
}

/// [`env_excess_sq`] on an explicit level. [`KernelLevel::Avx2`] runs
/// the scalar reference on a CPU without AVX2.
///
/// # Panics
/// Panics when the three slices have different lengths.
pub fn env_excess_sq_at(
    l: KernelLevel,
    x: &[f64],
    lower: &[f64],
    upper: &[f64],
    aff: EnvAffine,
    ub_sq: f64,
) -> f64 {
    env_excess_at(l, x, lower, upper, aff, ub_sq, None)
}

/// [`env_excess_sq`] that also records each position's squared
/// exceedance in `contrib` (every position is written, zeros included),
/// for the cumulative bound the UCR cascade feeds into the DTW DP. On
/// an abandoned (`INFINITY`) return the tail of `contrib` is
/// unspecified — callers only use it for candidates that survive.
///
/// # Panics
/// Panics when the slices (including `contrib`) have different lengths.
pub fn env_excess_contrib(
    x: &[f64],
    lower: &[f64],
    upper: &[f64],
    aff: EnvAffine,
    ub_sq: f64,
    contrib: &mut [f64],
) -> f64 {
    assert_eq!(x.len(), contrib.len(), "LB_Keogh requires equal lengths");
    env_excess_at(level(), x, lower, upper, aff, ub_sq, Some(contrib))
}

/// The dispatch behind [`env_excess_sq_at`] and [`env_excess_contrib`].
fn env_excess_at(
    l: KernelLevel,
    x: &[f64],
    lower: &[f64],
    upper: &[f64],
    aff: EnvAffine,
    ub_sq: f64,
    contrib: Option<&mut [f64]>,
) -> f64 {
    assert!(
        x.len() == lower.len() && x.len() == upper.len(),
        "LB_Keogh requires equal lengths"
    );
    if avx2(l) {
        // SAFETY: `avx2(l)` found AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        return unsafe {
            match contrib {
                Some(c) => env_excess_avx2::<true>(x, lower, upper, aff, ub_sq, c),
                None => env_excess_avx2::<false>(x, lower, upper, aff, ub_sq, &mut []),
            }
        };
    }
    env_excess_scalar(x, lower, upper, aff, 0.0, ub_sq, contrib)
}

/// The scalar reference, continuing from the running sum `acc` (see
/// [`sum_sq_diff_scalar`]).
fn env_excess_scalar(
    x: &[f64],
    lower: &[f64],
    upper: &[f64],
    aff: EnvAffine,
    mut acc: f64,
    ub_sq: f64,
    mut contrib: Option<&mut [f64]>,
) -> f64 {
    let mut i = 0;
    let n = x.len();
    while i < n {
        let end = (i + EA_BLOCK).min(n);
        while i < end {
            let v = (x[i] - aff.x_sub) * aff.x_mul;
            let lo = (lower[i] - aff.e_sub) * aff.e_mul;
            let hi = (upper[i] - aff.e_sub) * aff.e_mul;
            let d = (v - hi).max(lo - v).max(0.0);
            let dd = d * d;
            if let Some(c) = contrib.as_deref_mut() {
                c[i] = dd;
            }
            acc += dd;
            i += 1;
        }
        if acc > ub_sq {
            return f64::INFINITY;
        }
    }
    acc
}

/// The AVX2 form over the full blocks, then the scalar tail; with
/// `STORE` it writes each squared exceedance to `contrib`. A loop for
/// each form keeps both at the raw-pointer kernel's speed, where one
/// shared loop ran 1.1–1.9× slower.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn env_excess_avx2<const STORE: bool>(
    x: &[f64],
    lower: &[f64],
    upper: &[f64],
    aff: EnvAffine,
    ub_sq: f64,
    contrib: &mut [f64],
) -> f64 {
    let (xs, xm) = (_mm256_set1_pd(aff.x_sub), _mm256_set1_pd(aff.x_mul));
    let (es, em) = (_mm256_set1_pd(aff.e_sub), _mm256_set1_pd(aff.e_mul));
    let zero = _mm256_setzero_pd();
    let (x_blocks, x_tail) = x.as_chunks::<EA_BLOCK>();
    let (lo_blocks, lo_tail) = lower.as_chunks::<EA_BLOCK>();
    let (hi_blocks, hi_tail) = upper.as_chunks::<EA_BLOCK>();
    let (c_blocks, c_tail) = contrib.as_chunks_mut::<EA_BLOCK>();
    let mut c_blocks = c_blocks.iter_mut();
    let mut spare = [0.0; EA_BLOCK];
    let mut acc = 0.0;
    for ((xb, lb), hb) in x_blocks.iter().zip(lo_blocks).zip(hi_blocks) {
        let cb = if STORE {
            c_blocks.next().expect("contrib as long as x")
        } else {
            &mut spare
        };
        let quads = xb.as_chunks::<4>().0.iter();
        let quads = quads.zip(lb.as_chunks::<4>().0).zip(hb.as_chunks::<4>().0);
        let mut v = zero;
        for (cq, ((xq, lq), hq)) in cb.as_chunks_mut::<4>().0.iter_mut().zip(quads) {
            let xv = _mm256_mul_pd(_mm256_sub_pd(load(xq), xs), xm);
            let lo = _mm256_mul_pd(_mm256_sub_pd(load(lq), es), em);
            let hi = _mm256_mul_pd(_mm256_sub_pd(load(hq), es), em);
            let d = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(xv, hi), _mm256_sub_pd(lo, xv)),
                zero,
            );
            let dd = _mm256_mul_pd(d, d);
            if STORE {
                store(cq, dd);
            }
            v = _mm256_add_pd(v, dd);
        }
        acc += hsum256(v);
        if acc > ub_sq {
            return f64::INFINITY;
        }
    }
    let c_tail = STORE.then_some(c_tail);
    env_excess_scalar(x_tail, lo_tail, hi_tail, aff, acc, ub_sq, c_tail)
}

// ---------------------------------------------------------------------
// Lane-parallel EAPruned DTW (lanes = candidates).
// ---------------------------------------------------------------------

/// Candidates per [`dtw_lanes`] call: one per 64-bit lane of a 256-bit
/// vector.
pub const DTW_LANES: usize = 4;

/// One DP column of the lane kernel: a value per candidate.
type Lanes = [f64; DTW_LANES];

/// Early-abandoning squared DTW of `x` against up to [`DTW_LANES`]
/// equal-length candidates at once: `out[c]` is what
/// [`dtw_early_abandon_sq_scratch`]`(x, ys[c], band, ub_sq[c], None, live, …)`
/// returns — the same bits when the DP completes, `∞` exactly when it
/// would abandon — provided `live` reads the same on every call and the
/// inputs are finite.
///
/// In-row SIMD cannot shorten the DP's critical path (each cell waits for
/// its left neighbour), but *across* candidates the cells are
/// independent: the candidates are transposed once into 4-wide columns
/// and every lane runs the scalar recurrence
/// `d² + min(curr[j−1], min(prev[j], prev[j−1]))`, so one `min` + one
/// `add` of latency buys four cells. The DP is the scalar one's
/// EAPrunedDTW: each row's window is the union of the lanes' windows over
/// the lanes still live, a cell counting as live while any live lane's
/// value in it is within that lane's threshold. `live` is read once per
/// row for all lanes; a lane whose row minimum exceeds its bound is dead
/// from then on, and the DP stops when every lane is. A short batch
/// repeats its last candidate in the spare lanes; a single candidate, and
/// the scalar level, run the scalar DP per candidate.
///
/// # Panics
/// Panics when `ys` is empty or longer than [`DTW_LANES`], the candidates'
/// lengths differ, `ub_sq` or `out` is not one entry per candidate, or
/// any sequence is empty.
pub fn dtw_lanes(
    x: &[f64],
    ys: &[&[f64]],
    band: Band,
    ub_sq: &[f64],
    live: Option<&dyn Fn() -> f64>,
    scratch: &mut DtwScratch,
    out: &mut [f64],
) {
    dtw_lanes_at(level(), x, ys, band, ub_sq, live, scratch, out);
}

/// [`dtw_lanes`] on an explicit level ([`KernelLevel::Avx2`] falls back
/// to the scalar DP on a CPU without it).
#[allow(clippy::too_many_arguments)]
pub fn dtw_lanes_at(
    l: KernelLevel,
    x: &[f64],
    ys: &[&[f64]],
    band: Band,
    ub_sq: &[f64],
    live: Option<&dyn Fn() -> f64>,
    scratch: &mut DtwScratch,
    out: &mut [f64],
) {
    let lanes = ys.len();
    assert!(
        (1..=DTW_LANES).contains(&lanes),
        "1..={DTW_LANES} candidates per batch"
    );
    assert!(
        ub_sq.len() == lanes && out.len() == lanes,
        "one bound and one result per candidate"
    );
    let m = ys[0].len();
    assert!(!x.is_empty() && m > 0, "DTW requires non-empty sequences");
    assert!(
        ys.iter().all(|y| y.len() == m),
        "lanes hold equal-length candidates"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2(l) && lanes > 1 {
        let (yt, rows) = scratch.lane_rows(m).split_at_mut(m);
        let bounds: Lanes = std::array::from_fn(|lane| ub_sq[lane.min(lanes - 1)]);
        for (j, column) in yt.iter_mut().enumerate() {
            *column = std::array::from_fn(|lane| ys[lane.min(lanes - 1)][j]);
        }
        // SAFETY: `avx2(l)` found AVX2 on this CPU.
        let (done, cells) = unsafe { dtw_lanes_avx2(x, band, bounds, live, yt, rows) };
        out.copy_from_slice(&done[..lanes]);
        scratch.add_cells(cells * lanes as u64);
        return;
    }
    let _ = l; // read by the x86-64 build only
    for ((y, &ub), o) in ys.iter().zip(ub_sq).zip(out) {
        *o = dtw_early_abandon_sq_scratch(x, y, band, ub, None, live, scratch);
    }
}

/// The AVX2 lane DP: the scalar EAPruned DP of
/// [`dtw_early_abandon_sq_scratch`] on [`Lanes`], over the transposed
/// candidates `yt` (`m` columns) and two DP rows of `m + 1` columns in
/// `rows` (column 0 is the virtual "before y" edge). Returns the lanes'
/// results and the DP columns computed. `min` is `a < b ? a : b` — the
/// semantics of `vminpd`, and of `f64::min` on values that are not NaN.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dtw_lanes_avx2(
    x: &[f64],
    band: Band,
    ub_sq: Lanes,
    live: Option<&dyn Fn() -> f64>,
    yt: &[Lanes],
    rows: &mut [Lanes],
) -> (Lanes, u64) {
    use std::array::from_fn as lanes;
    const INF: Lanes = [f64::INFINITY; DTW_LANES];
    let (n, m) = (x.len(), yt.len());
    let (prev, curr) = rows.split_at_mut(m + 1);
    let (mut prev, mut curr) = (prev, &mut curr[..=m]);
    // Per lane: the threshold (it only ever tightens, as in the scalar
    // DP — a NaN one abandons nothing and yields to any reading, as `∞`
    // does) and, one bit a lane, whether the lane has abandoned.
    let mut bound = lanes(|l| {
        if ub_sq[l].is_nan() {
            f64::INFINITY
        } else {
            ub_sq[l]
        }
    });
    let mut dead = 0u8;
    // A cell is live while a live lane's value in it is within that
    // lane's threshold; a dead lane's threshold reads −∞.
    let live_in =
        |v: &Lanes, cut: &Lanes| (0..DTW_LANES).fold(false, |any, l| any | (v[l] <= cut[l]));
    prev[0] = [0.0; DTW_LANES];
    prev[1] = INF;
    let (mut start, mut end) = (0, 1);
    let (mut first, mut stop) = if live_in(&prev[0], &bound) {
        (0, 1)
    } else {
        (1, 0)
    };
    let mut cells = 0;
    let mut first_lag = 0;

    for (i, &xi) in x.iter().enumerate() {
        let (lo, hi) = band.row_range(i + 1, n, m);
        if lo > hi {
            return (INF, cells); // band excludes the whole row: infeasible
        }
        let cut = lanes(|l| {
            if dead >> l & 1 == 1 {
                f64::NEG_INFINITY
            } else {
                bound[l]
            }
        });
        // The window starts at the first live column of the row before the
        // previous one, which no later row's can precede — known long
        // before this row's predecessor ends, unlike its own — and never
        // before the previous window.
        let s = lo.max(first_lag).max(start);
        curr[s - 1] = INF;
        let mut row_min = INF;
        let (mut live_first, mut live_stop) = (usize::MAX, 0);
        let reach = hi.min(stop).max(s - 1);
        let mut left = INF;
        let mut diag = prev[s - 1];
        let cols = curr[s..=reach].iter_mut().zip(&yt[s - 1..reach]);
        for (j, ((cell, y), &up)) in (s..).zip(cols.zip(&prev[s..=reach])) {
            // `left` stays out of the inner min: the chain from cell to
            // cell is one min and one add.
            let best = min4(left, min4(up, diag));
            let v = lanes(|l| {
                let d = xi - y[l];
                d * d + best[l]
            });
            *cell = v;
            row_min = min4(row_min, v);
            let within = live_in(&v, &cut);
            live_first = live_first.min(if within { j } else { usize::MAX });
            live_stop = if within { j + 1 } else { live_stop };
            left = v;
            diag = up;
        }
        // Past it only the left neighbour may be live: the first
        // `AHEAD` cells whatever they hold (computing one that turns out
        // dead costs less than a mispredicted exit), then on while it is.
        let mut j = reach + 1;
        let ahead = if j > s { hi.min(reach + AHEAD) } else { reach };
        while j <= hi && (j <= ahead || live_stop == j) {
            let y = yt[j - 1];
            let v = lanes(|l| {
                let d = xi - y[l];
                d * d + left[l]
            });
            curr[j] = v;
            row_min = min4(row_min, v);
            live_stop = if live_in(&v, &cut) { j + 1 } else { live_stop };
            left = v;
            j += 1;
        }
        if j <= m {
            curr[j] = INF;
        }
        cells += (j - s) as u64;
        (start, end) = (s, j);
        first_lag = first;
        (first, stop) = if live_first == usize::MAX {
            (end, start)
        } else {
            (live_first, live_stop)
        };
        if let Some(live) = live {
            // `f64::min` of a bound that is not NaN: a NaN reading
            // leaves it alone.
            let reading = live();
            bound = min4([reading; DTW_LANES], bound);
        }
        dead |= above(&row_min, &bound);
        if dead == ALL_DEAD {
            return (INF, cells);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let done = if start <= m && m < end { prev[m] } else { INF };
    let dead = dead | above(&done, &bound);
    let out = lanes(|l| {
        if dead >> l & 1 == 1 {
            f64::INFINITY
        } else {
            done[l]
        }
    });
    (out, cells)
}

/// Cells past a row's reach the DTW kernels compute before they test
/// the left neighbour (see [`crate::dtw::dtw_early_abandon_sq_scratch`]).
pub(crate) const AHEAD: usize = 2;

/// One bit a lane: `a > b`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn above(a: &Lanes, b: &Lanes) -> u8 {
    (0..DTW_LANES).fold(0, |bits, l| bits | u8::from(a[l] > b[l]) << l)
}

/// Every lane's bit of [`above`].
#[cfg(target_arch = "x86_64")]
const ALL_DEAD: u8 = (1 << DTW_LANES) - 1;

/// `a < b ? a : b` per lane: `vminpd`, and `f64::min` on values that are
/// not NaN.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn min4(a: Lanes, b: Lanes) -> Lanes {
    std::array::from_fn(|l| if a[l] < b[l] { a[l] } else { b[l] })
}

// ---------------------------------------------------------------------
// L0 sketch block test (lanes = candidates).
// ---------------------------------------------------------------------

/// The block test behind [`QuerySketch::survivors_at`] over the plane
/// `views` (position `i` is slot `first_slot + i`): 4-slot steps on the
/// AVX2 kernel when `l` asks for it and the CPU has it, the scalar form
/// for the tail of the step — or, at the scalar level, for everything.
pub(crate) fn l0_survivors_at(
    l: KernelLevel,
    qs: &QuerySketch,
    views: &[&[u8]; SKETCH_PLANES],
    first_slot: usize,
    bound_sq: f64,
    out: &mut Vec<usize>,
) {
    if avx2(l) {
        // SAFETY: `avx2(l)` found AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        return unsafe { l0_survivors_avx2(qs, views, first_slot, bound_sq, out) };
    }
    let len = views[sketch::PLANE_FLAGS].len();
    qs.survivors_scalar(views, 0..len, first_slot, bound_sq, out);
}

/// The L0 cursor. Its fields are private to this module, so every
/// `Quad` comes from [`Quad::steps`](cursor::Quad::steps).
#[cfg(target_arch = "x86_64")]
mod cursor {
    use crate::sketch::SKETCH_PLANES;

    /// Positions `at..at + 4` of every plane of a block.
    pub(super) struct Quad<'a> {
        views: &'a [&'a [u8]; SKETCH_PLANES],
        at: usize,
    }

    impl<'a> Quad<'a> {
        /// Step `k` at position `4k`, for every `k < steps = len / 4`.
        ///
        /// # Panics
        /// Panics when the views are not all `len` bytes.
        pub(super) fn steps(
            views: &'a [&'a [u8]; SKETCH_PLANES],
        ) -> impl Iterator<Item = (usize, Self)> {
            let len = views[0].len();
            let same = views.iter().all(|plane| plane.len() == len);
            assert!(same, "sketch planes of unequal length");
            (0..len / 4).map(move |k| (4 * k, Quad { views, at: 4 * k }))
        }

        /// Plane `p`'s four levels at this step.
        pub(super) fn read(&self, p: usize) -> [u8; 4] {
            // SAFETY: `at + 4 = 4k + 4 ≤ len` for a step `k < len / 4`,
            // and `steps` checked that every plane is `len` bytes.
            let quad = unsafe { self.views[p].get_unchecked(self.at..self.at + 4) };
            quad.try_into().expect("four bytes")
        }
    }
}

/// The AVX2 block test: per lane the operations of
/// [`QuerySketch::bound_sq`] in its order — corner part first, the
/// segment planes only for a step the corner part does not reject whole.
/// A step holding an invalid-flag slot goes to the scalar reference, as
/// do the positions after the last full step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn l0_survivors_avx2(
    qs: &QuerySketch,
    views: &[&[u8]; SKETCH_PLANES],
    first_slot: usize,
    bound_sq: f64,
    out: &mut Vec<usize>,
) {
    let len = views[sketch::PLANE_FLAGS].len();
    let vmin = _mm256_set1_pd(qs.params.vmin);
    let step = _mm256_set1_pd(qs.params.step);
    let (q_first, q_last) = (_mm256_set1_pd(qs.q_first), _mm256_set1_pd(qs.q_last));
    let bound = _mm256_set1_pd(bound_sq);
    let zero = _mm256_setzero_pd();
    let invalid = u32::from_ne_bytes([sketch::FLAG_INVALID; 4]);
    // max(q − hi, lo − q, 0)², as the scalar `gap`.
    let gap_sq = |q: __m256d, lo: __m256d, hi: __m256d| {
        let d = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(q, hi), _mm256_sub_pd(lo, q)),
            zero,
        );
        _mm256_mul_pd(d, d)
    };
    for (i, quad) in cursor::Quad::steps(views) {
        if u32::from_ne_bytes(quad.read(sketch::PLANE_FLAGS)) & invalid != 0 {
            qs.survivors_scalar(views, i..i + 4, first_slot, bound_sq, out);
            continue;
        }
        // Four levels of plane `p` at this step, dequantised:
        // `vmin + level · step`, the operations of `SketchParams::dequant`.
        let at = |p: usize| {
            let levels = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(i32::from_ne_bytes(quad.read(p))));
            _mm256_add_pd(vmin, _mm256_mul_pd(_mm256_cvtepi32_pd(levels), step))
        };
        let mut kim = gap_sq(
            q_first,
            at(sketch::PLANE_FIRST_LO),
            at(sketch::PLANE_FIRST_HI),
        );
        if qs.len > 1 {
            kim = _mm256_add_pd(
                kim,
                gap_sq(q_last, at(sketch::PLANE_LAST_LO), at(sketch::PLANE_LAST_HI)),
            );
        }
        let mut rejected = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(kim, bound));
        if rejected != 0b1111 {
            let mut seg_sq = zero;
            for s in 0..sketch::SKETCH_SEGMENTS {
                let (h, l, w) = qs.segments[s];
                if w == 0.0 {
                    continue;
                }
                let c_lo = at(sketch::PLANE_SEG_MIN + s);
                let c_hi = at(sketch::PLANE_SEG_MAX + s);
                let e = _mm256_max_pd(
                    _mm256_max_pd(
                        _mm256_sub_pd(c_lo, _mm256_set1_pd(h)),
                        _mm256_sub_pd(_mm256_set1_pd(l), c_hi),
                    ),
                    zero,
                );
                seg_sq = _mm256_add_pd(
                    seg_sq,
                    _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(w), e), e),
                );
            }
            rejected |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(seg_sq, bound));
            for lane in 0..4 {
                if rejected & (1 << lane) == 0 {
                    out.push(first_slot + i + lane);
                }
            }
        }
    }
    qs.survivors_scalar(views, len - len % 4..len, first_slot, bound_sq, out);
}

// ---------------------------------------------------------------------
// PAA grid bound pass (lanes = entries).
// ---------------------------------------------------------------------

/// Segment means a PAA grid entry carries a code for.
pub const GRID_SEGMENTS: usize = 4;

/// Entries the AVX2 grid pass bounds a step: a span shorter than this is
/// one padded or overlapping step, which a caller with an exact test of
/// its own may skip.
pub const GRID_STEP: usize = 8;

/// The query's side of the nearest-representative grid's `f32` bound
/// pass (`onex_grouping::repindex`), every value in steps of a code: an
/// entry with codes `c` is kept unless
/// `Σₛ weightsₛ · max(|offsetsₛ − cₛ| − slack, 0)²` exceeds `limit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridQuery {
    /// The query's segment means as offsets from the row's lower edge.
    pub offsets: [f32; GRID_SEGMENTS],
    /// Points per segment: the bound's weights.
    pub weights: [f32; GRID_SEGMENTS],
    /// What a code leaves open, taken off every gap.
    pub slack: f32,
    /// The largest bound an entry may have and be kept.
    pub limit: f32,
}

impl GridQuery {
    /// The bound of the entry whose codes are `codes`, term by term in
    /// segment order: the scalar reference every level reproduces.
    pub fn lower(&self, codes: [i16; GRID_SEGMENTS]) -> f32 {
        let term = |s: usize| {
            let gap = ((self.offsets[s] - f32::from(codes[s])).abs() - self.slack).max(0.0);
            self.weights[s] * gap * gap
        };
        term(0) + term(1) + term(2) + term(3)
    }

    /// Whether an entry whose bound is `lower` is kept: at or under the
    /// limit, or not a number.
    fn keeps(&self, lower: f32) -> bool {
        lower <= self.limit || lower.is_nan()
    }
}

/// Push onto `out`, in ascending order, every entry `i` in `span` of a
/// row's code planes that `q` keeps ([`GridQuery::lower`] at or under
/// `q.limit`, or NaN), with that bound: 8 entries a step on the AVX2
/// kernel when `l` asks for it and the CPU has it, the scalar reference
/// otherwise. Both levels push exactly the same entries and bounds, bit
/// for bit: per lane the AVX2 kernel runs the reference's `f32`
/// operations in the reference's order. The planes outside `span` are
/// read only to fill a step, never kept.
///
/// # Panics
/// Panics when the planes differ in length or `span` is not within them.
pub fn grid_survivors_at(
    l: KernelLevel,
    q: &GridQuery,
    planes: [&[i16]; GRID_SEGMENTS],
    span: Range<usize>,
    out: &mut Vec<(usize, f32)>,
) {
    let len = planes[0].len();
    assert!(
        planes.iter().all(|plane| plane.len() == len),
        "grid code planes of unequal length"
    );
    assert!(
        span.start <= span.end && span.end <= len,
        "span {span:?} of {len} entries"
    );
    if avx2(l) {
        // SAFETY: `avx2(l)` found AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        return unsafe { grid_survivors_avx2(q, planes, span, out) };
    }
    grid_survivors_scalar(q, planes, span, out);
}

/// [`grid_survivors_at`] at the level this process dispatches to.
///
/// # Panics
/// Panics when the planes differ in length or `span` is not within them.
pub fn grid_survivors(
    q: &GridQuery,
    planes: [&[i16]; GRID_SEGMENTS],
    span: Range<usize>,
    out: &mut Vec<(usize, f32)>,
) {
    grid_survivors_at(level(), q, planes, span, out);
}

/// The scalar reference: a block of entries bounded into a buffer (a
/// loop the compiler may vectorise, each entry's bound still
/// [`GridQuery::lower`]), then its survivors pushed.
fn grid_survivors_scalar(
    q: &GridQuery,
    planes: [&[i16]; GRID_SEGMENTS],
    span: Range<usize>,
    out: &mut Vec<(usize, f32)>,
) {
    const BLOCK: usize = 64;
    let mut lower = [0.0f32; BLOCK];
    for start in span.clone().step_by(BLOCK) {
        let n = BLOCK.min(span.end - start);
        let [p0, p1, p2, p3] = planes.map(|plane| &plane[start..start + n]);
        for (i, lower) in lower[..n].iter_mut().enumerate() {
            *lower = q.lower([p0[i], p1[i], p2[i], p3[i]]);
        }
        for (i, &lower) in lower[..n].iter().enumerate() {
            if q.keeps(lower) {
                out.push((start + i, lower));
            }
        }
    }
}

/// Eight bounds out of a vector; the array type carries the bound.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn store_bounds(oct: &mut [f32; 8], v: __m256) {
    // SAFETY: `oct` is 32 writable bytes, and `storeu` takes any alignment.
    unsafe { _mm256_storeu_ps(oct.as_mut_ptr(), v) }
}

/// Eight codes into a vector of `i16` lanes; the array type carries the
/// bound.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn load_codes(oct: &[i16; 8]) -> __m128i {
    // SAFETY: `oct` is 16 readable bytes, and `loadu` takes any alignment.
    unsafe { _mm_loadu_si128(oct.as_ptr().cast()) }
}

/// The AVX2 bound pass: per lane the operations of [`GridQuery::lower`]
/// in its order (`vandnps` clears the sign as `abs` does, `vmaxps`
/// against zero returns zero for a NaN gap as `max` does), then
/// [`GridQuery::keeps`] as two compares. The entries after the last full
/// step of the span run as one more step over the eight entries of the
/// row that end where the span does, only the lanes in the span taken —
/// or, in a row of fewer than eight, over its codes padded with zeros.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn grid_survivors_avx2(
    q: &GridQuery,
    planes: [&[i16]; GRID_SEGMENTS],
    span: Range<usize>,
    out: &mut Vec<(usize, f32)>,
) {
    let offsets = q.offsets.map(|o| _mm256_set1_ps(o));
    let weights = q.weights.map(|w| _mm256_set1_ps(w));
    let (slack, limit) = (_mm256_set1_ps(q.slack), _mm256_set1_ps(q.limit));
    let (sign, zero) = (_mm256_set1_ps(-0.0), _mm256_setzero_ps());
    // Eight entries' bounds, and one bit a lane: kept.
    let bounds = |step: [&[i16; 8]; GRID_SEGMENTS]| {
        let term = |s: usize| {
            let codes = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(load_codes(step[s])));
            let gap = _mm256_andnot_ps(sign, _mm256_sub_ps(offsets[s], codes));
            let gap = _mm256_max_ps(_mm256_sub_ps(gap, slack), zero);
            _mm256_mul_ps(_mm256_mul_ps(weights[s], gap), gap)
        };
        let lower = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(term(0), term(1)), term(2)),
            term(3),
        );
        let kept = _mm256_or_ps(
            _mm256_cmp_ps::<_CMP_LE_OQ>(lower, limit),
            _mm256_cmp_ps::<_CMP_UNORD_Q>(lower, lower),
        );
        (lower, _mm256_movemask_ps(kept) as u64)
    };
    let mut kept = Kept {
        start: span.start,
        bits: 0,
        lowers: [0.0; 64],
    };
    let [s0, s1, s2, s3] = planes.map(|plane| plane[span.clone()].as_chunks::<8>().0);
    let steps = s0.iter().zip(s1).zip(s2.iter().zip(s3));
    for (k, ((c0, c1), (c2, c3))) in steps.enumerate() {
        let (lower, mask) = bounds([c0, c1, c2, c3]);
        let (lowers, shift) = kept.lanes(out, span.start + 8 * k);
        store_bounds(lowers, lower);
        kept.bits |= mask << shift;
    }
    let tail = span.len() % 8;
    if tail > 0 {
        // The last step's entries in the span's tail are its lanes from
        // `from` on: the last eight of the row up to the span's end, or —
        // a row of fewer than eight — its codes padded with zeros.
        let (step, from) = if span.end >= 8 {
            let last = planes.map(|plane| {
                plane[..span.end]
                    .last_chunk::<8>()
                    .expect("eight entries or more")
            });
            (bounds(last), 8 - tail)
        } else {
            let padded =
                planes.map(|plane| std::array::from_fn(|i| plane.get(i).map_or(0, |&c| c)));
            (bounds(padded.each_ref()), span.end - tail)
        };
        let mut lanes = [0.0; 8];
        store_bounds(&mut lanes, step.0);
        let (lowers, shift) = kept.lanes(out, span.end - tail);
        lowers[..tail].copy_from_slice(&lanes[from..from + tail]);
        kept.bits |= (step.1 >> from & ((1 << tail) - 1)) << shift;
    }
    kept.flush(out);
}

/// The kept entries of up to 64 in a row of a span — a bit and a bound
/// each — on their way to `out`: flushed a block at a time, one branch a
/// block where nothing is kept rather than one a step.
struct Kept {
    /// The entry of bit 0.
    start: usize,
    bits: u64,
    /// The bound of the entry of each set bit (the others are stale).
    lowers: [f32; 64],
}

impl Kept {
    /// Room for the bounds of the eight entries from `at` on — whose
    /// bits go `shift` up — flushing the block first when `at` is past
    /// it.
    fn lanes(&mut self, out: &mut Vec<(usize, f32)>, at: usize) -> (&mut [f32; 8], usize) {
        if at >= self.start + 64 {
            self.flush(out);
            (self.start, self.bits) = (at, 0);
        }
        let shift = at - self.start;
        let lanes = self.lowers[shift..]
            .first_chunk_mut()
            .expect("a step fits the block");
        (lanes, shift)
    }

    /// Push every kept entry of the block onto `out`, in order.
    fn flush(&mut self, out: &mut Vec<(usize, f32)>) {
        while self.bits != 0 {
            let i = self.bits.trailing_zeros() as usize;
            out.push((self.start + i, self.lowers[i]));
            self.bits &= self.bits - 1;
        }
    }
}

// ---------------------------------------------------------------------
// Sliding min/max (the Lemire envelope).
// ---------------------------------------------------------------------

/// `(lower, upper)` where `lower[i] = min(y[i−r ..= i+r])` and
/// `upper[i] = max(...)`, windows clamped to the sequence — the envelope
/// construction. The scalar path is Lemire's monotonic-deque algorithm;
/// the AVX2 path uses the van Herk–Gil–Werman block prefix/suffix
/// decomposition, whose merge step (`ext(suffix[i], prefix[i+w−1])`)
/// vectorises. Min/max of finite values is exact, so both levels are
/// bit-identical.
pub fn sliding_minmax(y: &[f64], radius: usize) -> (Vec<f64>, Vec<f64>) {
    sliding_minmax_at(level(), y, radius)
}

/// [`sliding_minmax`] on an explicit level ([`KernelLevel::Avx2`] falls
/// back to the scalar path on a CPU without it).
pub fn sliding_minmax_at(l: KernelLevel, y: &[f64], radius: usize) -> (Vec<f64>, Vec<f64>) {
    if y.is_empty() || radius == 0 {
        return (y.to_vec(), y.to_vec());
    }
    if avx2(l) {
        // SAFETY: `avx2(l)` found AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        return unsafe { sliding_minmax_vhgw(y, radius) };
    }
    sliding_minmax_deque(y, radius)
}

/// Lemire's streaming deques (the scalar reference).
fn sliding_minmax_deque(y: &[f64], radius: usize) -> (Vec<f64>, Vec<f64>) {
    let n = y.len();
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    // Monotonic deques of indices: front is the current window extremum.
    let mut maxq: VecDeque<usize> = VecDeque::new();
    let mut minq: VecDeque<usize> = VecDeque::new();
    for i in 0..n {
        // The window for output position `o = i - radius` is
        // [o - radius, o + radius] = [i - 2r, i]; push y[i] first, then
        // emit once i reaches the window end o + radius.
        while maxq.back().is_some_and(|&b| y[b] <= y[i]) {
            maxq.pop_back();
        }
        maxq.push_back(i);
        while minq.back().is_some_and(|&b| y[b] >= y[i]) {
            minq.pop_back();
        }
        minq.push_back(i);
        if i >= radius {
            let o = i - radius;
            upper.push(y[*maxq.front().expect("window non-empty")]);
            lower.push(y[*minq.front().expect("window non-empty")]);
            // Retire indices leaving the next window [o+1-r, ...].
            if maxq.front().is_some_and(|&f| f + radius <= o) {
                maxq.pop_front();
            }
            if minq.front().is_some_and(|&f| f + radius <= o) {
                minq.pop_front();
            }
        }
    }
    // Tail positions whose window is cut off by the end of the series.
    for o in n.saturating_sub(radius)..n {
        // Window [o - r, n): drop indices before o - r.
        while maxq.front().is_some_and(|&f| f + radius < o) {
            maxq.pop_front();
        }
        while minq.front().is_some_and(|&f| f + radius < o) {
            minq.pop_front();
        }
        upper.push(y[*maxq.front().expect("window non-empty")]);
        lower.push(y[*minq.front().expect("window non-empty")]);
    }
    debug_assert_eq!(lower.len(), n);
    debug_assert_eq!(upper.len(), n);
    (lower, upper)
}

/// Van Herk–Gil–Werman: pad with `±∞`, per-block prefix/suffix extrema,
/// then a vectorisable merge. O(n) with ~3 comparisons per element and
/// no branches in the merge.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sliding_minmax_vhgw(y: &[f64], radius: usize) -> (Vec<f64>, Vec<f64>) {
    let n = y.len();
    let w = 2 * radius + 1;
    let padded = n + 2 * radius;
    // Padding is the identity of each fold (+∞ for min, −∞ for max), so
    // clamped edge windows fall out of the same formula.
    let mut arr_min = vec![f64::INFINITY; padded];
    let mut arr_max = vec![f64::NEG_INFINITY; padded];
    arr_min[radius..radius + n].copy_from_slice(y);
    arr_max[radius..radius + n].copy_from_slice(y);

    let mut pre_min = vec![0.0; padded];
    let mut pre_max = vec![0.0; padded];
    let mut suf_min = vec![0.0; padded];
    let mut suf_max = vec![0.0; padded];
    let mut b = 0;
    while b < padded {
        let end = (b + w).min(padded);
        let (mut rmin, mut rmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for t in b..end {
            rmin = rmin.min(arr_min[t]);
            rmax = rmax.max(arr_max[t]);
            pre_min[t] = rmin;
            pre_max[t] = rmax;
        }
        let (mut rmin, mut rmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for t in (b..end).rev() {
            rmin = rmin.min(arr_min[t]);
            rmax = rmax.max(arr_max[t]);
            suf_min[t] = rmin;
            suf_max[t] = rmax;
        }
        b = end;
    }

    let mut lower = vec![0.0; n];
    let mut upper = vec![0.0; n];
    // out[i] covers arr[i .. i+w); it spans at most two blocks, so the
    // suffix of the first and the prefix of the second cover it exactly.
    let (min, max) = (|a, b| _mm256_min_pd(a, b), |a, b| _mm256_max_pd(a, b));
    vhgw_merge(&suf_min, &pre_min[w - 1..], &mut lower, min, f64::min);
    vhgw_merge(&suf_max, &pre_max[w - 1..], &mut upper, max, f64::max);
    (lower, upper)
}

/// `out[i] = ext(suf[i], pre[i])`: four positions a vector with `vext`,
/// the rest one at a time with `ext`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn vhgw_merge(
    suf: &[f64],
    pre: &[f64],
    out: &mut [f64],
    vext: impl Fn(__m256d, __m256d) -> __m256d,
    ext: fn(f64, f64) -> f64,
) {
    let n = out.len();
    let (out_quads, out_tail) = out.as_chunks_mut::<4>();
    let (suf_quads, suf_tail) = suf[..n].as_chunks::<4>();
    let (pre_quads, pre_tail) = pre[..n].as_chunks::<4>();
    for ((o, s), p) in out_quads.iter_mut().zip(suf_quads).zip(pre_quads) {
        store(o, vext(load(s), load(p)));
    }
    for ((o, s), p) in out_tail.iter_mut().zip(suf_tail).zip(pre_tail) {
        *o = ext(*s, *p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggle(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = i as f64 + seed as f64 * 0.7;
                (x * 0.31).sin() * 2.0 + (x * 0.07).cos() + (x * 1.7).sin() * 0.3
            })
            .collect()
    }

    #[test]
    fn level_is_cached_and_labelled() {
        let l = level();
        assert_eq!(l, level(), "detection is sticky");
        assert!(["scalar", "avx2"].contains(&l.label()));
        let avail = KernelLevel::available();
        assert_eq!(avail[0], KernelLevel::Scalar);
        assert!(avail.contains(&l) || l == KernelLevel::Scalar);
    }

    #[test]
    fn sum_sq_diff_levels_agree() {
        for n in [0usize, 1, 3, 8, 16, 17, 31, 64, 129] {
            let x = wiggle(n, 1);
            let y = wiggle(n, 9);
            let want = sum_sq_diff_ea_at(KernelLevel::Scalar, &x, &y, f64::INFINITY);
            for l in KernelLevel::available() {
                let got = sum_sq_diff_ea_at(l, &x, &y, f64::INFINITY);
                assert!(
                    (got - want).abs() <= 1e-9 * want.max(1.0),
                    "{l:?} n={n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn sum_sq_diff_abandons_like_scalar() {
        let x = vec![0.0; 64];
        let mut y = vec![0.0; 64];
        y[0] = 100.0;
        for l in KernelLevel::available() {
            assert_eq!(sum_sq_diff_ea_at(l, &x, &y, 1.0), f64::INFINITY, "{l:?}");
            // A bound met exactly does not abandon ("exceeds" semantics).
            assert_eq!(sum_sq_diff_ea_at(l, &x, &y, 10_000.0), 10_000.0, "{l:?}");
        }
    }

    #[test]
    fn env_excess_levels_agree() {
        for n in [1usize, 7, 16, 33, 120] {
            let x = wiggle(n, 3);
            let base = wiggle(n, 5);
            let lower: Vec<f64> = base.iter().map(|v| v - 0.3).collect();
            let upper: Vec<f64> = base.iter().map(|v| v + 0.3).collect();
            for aff in [
                EnvAffine::IDENTITY,
                EnvAffine::znorm_x(0.4, 1.7),
                EnvAffine::znorm_env(0.4, 1.7),
                EnvAffine::znorm_x(0.0, 0.0),
            ] {
                let want =
                    env_excess_sq_at(KernelLevel::Scalar, &x, &lower, &upper, aff, f64::INFINITY);
                for l in KernelLevel::available() {
                    let got = env_excess_sq_at(l, &x, &lower, &upper, aff, f64::INFINITY);
                    assert!(
                        (got - want).abs() <= 1e-9 * want.max(1.0),
                        "{l:?} n={n} {aff:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn env_excess_contrib_fills_every_position() {
        let x = wiggle(37, 2);
        let base = wiggle(37, 8);
        let lower: Vec<f64> = base.iter().map(|v| v - 0.2).collect();
        let upper: Vec<f64> = base.iter().map(|v| v + 0.2).collect();
        let mut contrib = vec![f64::NAN; 37];
        let total = env_excess_contrib(
            &x,
            &lower,
            &upper,
            EnvAffine::IDENTITY,
            f64::INFINITY,
            &mut contrib,
        );
        assert!(contrib.iter().all(|c| c.is_finite()), "zeros written too");
        let sum: f64 = contrib.iter().sum();
        assert!((total - sum).abs() <= 1e-9 * total.max(1.0));
    }

    /// The AVX2 accumulators' summation order, term by term: four lane
    /// partials per `EA_BLOCK`-term block (term `k` into lane `k % 4`),
    /// folded as `(v0 + v2) + (v1 + v3)` into the running sum, which is
    /// tested against the bound after every block; then the sequential
    /// tail, tested once more.
    fn lane_order_sum(terms: &[f64], ub_sq: f64) -> f64 {
        let (blocks, tail) = terms.as_chunks::<EA_BLOCK>();
        let mut acc = 0.0;
        for block in blocks {
            let mut v = [0.0; 4];
            for (k, t) in block.iter().enumerate() {
                v[k % 4] += t;
            }
            acc += (v[0] + v[2]) + (v[1] + v[3]);
            if acc > ub_sq {
                return f64::INFINITY;
            }
        }
        acc = tail.iter().fold(acc, |acc, t| acc + t);
        if acc > ub_sq {
            f64::INFINITY
        } else {
            acc
        }
    }

    /// Bounds the lane-order tests run under: none, one met exactly
    /// after the first block (a bound met does not abandon), and one
    /// that the full sum exceeds.
    fn lane_order_bounds(terms: &[f64]) -> [f64; 3] {
        let first_block = lane_order_sum(&terms[..terms.len().min(EA_BLOCK)], f64::INFINITY);
        let total = lane_order_sum(terms, f64::INFINITY);
        [f64::INFINITY, first_block, total / 2.0]
    }

    const LANE_ORDER_LENS: [usize; 8] = [0, 1, 15, 16, 17, 31, 64, 129];

    #[test]
    fn sum_sq_diff_avx2_sums_in_lane_order() {
        if !avx2(KernelLevel::Avx2) {
            return;
        }
        for n in LANE_ORDER_LENS {
            let (x, y) = (wiggle(n, 1), wiggle(n, 9));
            let terms: Vec<f64> = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).collect();
            for ub in lane_order_bounds(&terms) {
                let got = sum_sq_diff_ea_at(KernelLevel::Avx2, &x, &y, ub);
                let want = lane_order_sum(&terms, ub);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "n={n} ub={ub}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn env_excess_avx2_sums_in_lane_order() {
        if !avx2(KernelLevel::Avx2) {
            return;
        }
        for n in LANE_ORDER_LENS {
            let x = wiggle(n, 3);
            let base = wiggle(n, 5);
            let lower: Vec<f64> = base.iter().map(|v| v - 0.3).collect();
            let upper: Vec<f64> = base.iter().map(|v| v + 0.3).collect();
            for aff in [
                EnvAffine::IDENTITY,
                EnvAffine::znorm_x(0.4, 1.7),
                EnvAffine::znorm_env(0.4, 1.7),
                EnvAffine::znorm_x(0.0, 0.0),
            ] {
                let terms: Vec<f64> = (0..n)
                    .map(|i| {
                        let v = (x[i] - aff.x_sub) * aff.x_mul;
                        let lo = (lower[i] - aff.e_sub) * aff.e_mul;
                        let hi = (upper[i] - aff.e_sub) * aff.e_mul;
                        let d = (v - hi).max(lo - v).max(0.0);
                        d * d
                    })
                    .collect();
                for ub in lane_order_bounds(&terms) {
                    let got = env_excess_sq_at(KernelLevel::Avx2, &x, &lower, &upper, aff, ub);
                    let want = lane_order_sum(&terms, ub);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "n={n} {aff:?} ub={ub}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn env_excess_contrib_is_bit_exact_across_levels() {
        for n in LANE_ORDER_LENS {
            let x = wiggle(n, 2);
            let base = wiggle(n, 8);
            let lower: Vec<f64> = base.iter().map(|v| v - 0.2).collect();
            let upper: Vec<f64> = base.iter().map(|v| v + 0.2).collect();
            for aff in [EnvAffine::IDENTITY, EnvAffine::znorm_env(0.4, 1.7)] {
                let contrib_at = |l| {
                    let mut contrib = vec![f64::NAN; n];
                    let total = env_excess_at(
                        l,
                        &x,
                        &lower,
                        &upper,
                        aff,
                        f64::INFINITY,
                        Some(&mut contrib),
                    );
                    (total, contrib)
                };
                let (_, want) = contrib_at(KernelLevel::Scalar);
                let (total, got) = contrib_at(KernelLevel::Avx2);
                let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n={n} {aff:?}");
                let plain =
                    env_excess_sq_at(KernelLevel::Avx2, &x, &lower, &upper, aff, f64::INFINITY);
                assert_eq!(total.to_bits(), plain.to_bits(), "n={n} {aff:?}");
            }
        }
    }

    #[test]
    fn avx2_pairs_the_level_with_the_cpu() {
        assert!(!avx2(KernelLevel::Scalar));
        #[cfg(target_arch = "x86_64")]
        assert_eq!(avx2(KernelLevel::Avx2), is_x86_feature_detected!("avx2"));
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!avx2(KernelLevel::Avx2));
    }

    #[test]
    fn sliding_minmax_is_bit_exact_across_levels() {
        for n in [0usize, 1, 2, 5, 16, 47, 100] {
            let y = wiggle(n, 7);
            for r in 0..=n + 2 {
                let (want_lo, want_hi) = sliding_minmax_at(KernelLevel::Scalar, &y, r);
                for l in KernelLevel::available() {
                    let (lo, hi) = sliding_minmax_at(l, &y, r);
                    assert_eq!(lo, want_lo, "{l:?} n={n} r={r} lower");
                    assert_eq!(hi, want_hi, "{l:?} n={n} r={r} upper");
                }
            }
        }
    }
}
