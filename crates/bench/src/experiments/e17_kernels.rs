//! E17 — SIMD distance kernels and the quantised L0 prefilter tier.
//!
//! The hottest loops in the whole workspace — squared-diff accumulation
//! (ED / LB_Keogh), the lane-parallel EAPruned DTW, and the Lemire
//! envelope — route through [`onex_distance::kernels`], which picks an
//! AVX2 or scalar implementation once at startup. In front of the
//! LB cascade, every base member carries a quantised-PAA sketch
//! ([`onex_grouping::sketch`]) whose byte-level lower bound rejects
//! candidates before any f64 data is touched, and every 64 of a group's
//! members a zone whose one bound rejects them all at once. E17 answers:
//!
//! 1. **Kernel throughput** — each kernel at each level the CPU offers,
//!    against the scalar reference on the same buffers. [`check`] holds
//!    that the selected SIMD level does not lose to scalar, and that
//!    outputs agree (bit-exact for the envelope, ≤1e-9 relative for
//!    the accumulating kernels, whose block-wise horizontal sums may
//!    round differently). The two lanes-are-candidates kernels of the
//!    member scan — `l0_block` (the sketch block test over plane-major
//!    sketches) and `dtw_lanes` (four early-abandoning DTWs to a vector)
//!    — are measured against the per-record `bound_sq` loop and the
//!    per-candidate scalar DP they replaced, and must agree with them
//!    bit for bit. So must `grid_pass` — the `f32` bound pass of the
//!    writer's nearest-representative grid, eight entries a step — with
//!    its scalar reference: the same survivors, in the same order, with
//!    the same bounds.
//! 2. **Cascade ablation** — the same query batch with the L0 tier on
//!    and off. Anything L0 rejects would have died later in the cascade,
//!    so the L0-on run must touch no more candidates, spend strictly
//!    fewer f64 lower-bound evaluations, and return the identical top-k.
//!    On the random-walk rows the time is completed 16-point DTWs and L0
//!    on/off differ by less than the noise; the **clustered** row (the
//!    `explore` shape of the end-to-end harness: a few huge groups, three
//!    adjacent lengths around 31) is where the member cascade is the
//!    query, and there [`check`] holds that the tier *pays*: `batch_on_ms`
//!    below `batch_off_ms`, the medians of `TIMED_PAIRS` alternating
//!    batches (`paired_times`, as the kernel rows are timed).
//! 3. **Per-tier reject fractions** — where candidates die (zone → L0
//!    block → LB_Kim → LB_Keogh → abandoned DTW → completed DTW), the
//!    observable that explains the cascade's shape, and the DP cells the
//!    EAPruned DTWs computed. [`check`] holds that the zones skip only
//!    L0 rejects, and some on the clustered row, and that the L0-on run
//!    computes no more DP cells than the L0-off run.
//! 4. **Across lengths** — the last row searches three adjacent lengths
//!    (`Nearest(3)`) with a query of the middle one, so two thirds of its
//!    candidates differ in length from the query. The cascade runs on
//!    them all the same (cross-length envelopes); [`check`] holds that
//!    fewer than half the members it touches start a DTW.
//! 5. **Agreement** — the L0-on top-k equals the L0-off top-k, the
//!    exhaustive stride-1 scan, and the 4-shard fan-out's merged answer
//!    on every row. Because the lane DP and the L0 block test are
//!    bit-exact across levels, distances are level-independent, so
//!    re-running this experiment under `ONEX_FORCE_SCALAR=1` (the CI
//!    scalar leg) must reproduce the same answers and the same cascade
//!    counts — all but the DP cells, which the lane DP counts over the
//!    union of its four candidates' windows.

use std::hint::black_box;
use std::time::{Duration, Instant};

use onex_api::SimilaritySearch;
use onex_core::backends::OnexBackend;
use onex_core::exhaustive;
use onex_core::scale::ShardedEngine;
use onex_core::{LengthSelection, Onex, QueryOptions, QueryStats};
use onex_distance::dtw::{dtw_early_abandon_sq_scratch, DtwScratch};
use onex_distance::kernels::{self, EnvAffine, GridQuery, KernelLevel, DTW_LANES, GRID_SEGMENTS};
use onex_distance::sketch::encode_into;
use onex_distance::{Band, Envelope, QuerySketch, SketchParams, SketchPlanes, SKETCH_STRIDE};
use onex_grouping::{BaseConfig, RepresentativePolicy};

use super::{broken, ExperimentOutput, TIMED};
use crate::harness::{fmt_duration, ms, record, same_matches, same_top_k, table, us, Row, Value};
use crate::workloads;

/// Query length for the random-walk cascade rows, and the middle of
/// their indexed lengths.
const SUBSEQ_LEN: usize = 16;
/// The same for the clustered row: the `explore` workload's 30..=32.
const CLUSTERED_LEN: usize = 31;
/// Window length of the `l0_block` / `dtw_lanes` kernel rows.
const LANE_LEN: usize = 32;
/// Matches requested per query.
const K: usize = 5;
/// Queries per batch.
const QUERIES: usize = 4;
/// Shards of the fan-out agreement leg.
const SHARDS: usize = 4;

/// Exact configuration (Seed policy), so every agreement check is
/// against a provably correct reference. The looser `ST` (vs E14's 0.5)
/// keeps groups large enough that candidates actually reach the member
/// tiers — at tight thresholds the group-level bridge bound kills
/// nearly everything and the ablation would measure nothing.
///
/// `lengths` (odd) adjacent lengths are indexed, centred on
/// [`Shape::query_len`]. The clustered row takes the harness's `explore`
/// threshold instead: its groups are huge at any `ST`.
fn config(shape: Shape, lengths: usize) -> BaseConfig {
    let half = lengths / 2;
    let (st, mid) = match shape {
        Shape::Walk => (2.0, SUBSEQ_LEN),
        Shape::Clustered => (1.0, CLUSTERED_LEN),
    };
    BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(st, mid - half, mid + half)
    }
}

/// What a cascade row's collection is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Independent random walks: nothing compacts, groups ≈ subsequences,
    /// and the group bound does most of the pruning.
    Walk,
    /// `clustered_dataset`, 8 archetypes, jitter 0.08: a few huge groups
    /// the group bound cannot dismiss, so the member cascade is the query.
    Clustered,
}

impl Shape {
    /// Stable lowercase name for the table and the JSON record.
    pub fn label(self) -> &'static str {
        match self {
            Shape::Walk => "walk",
            Shape::Clustered => "clustered",
        }
    }

    fn query_len(self) -> usize {
        match self {
            Shape::Walk => SUBSEQ_LEN,
            Shape::Clustered => CLUSTERED_LEN,
        }
    }
}

// ------------------------------------------------------------- kernels

/// One (kernel, level) throughput measurement against scalar.
///
/// The level and its reference are timed in alternating batches inside
/// one loop (`paired_times`), so a slow phase of a shared machine lands
/// on both sides of the ratio, not on one of them.
pub struct KernelRow {
    /// Which loop: `"ed"`, `"lb_keogh"`, `"envelope"`, `"l0_block"`,
    /// `"dtw_lanes"`, `"grid_pass"`.
    pub kernel: &'static str,
    /// The level this row ran at.
    pub level: KernelLevel,
    /// Median wall-clock for the iteration batch at this level.
    pub elapsed: Duration,
    /// The fastest of those batches.
    pub elapsed_min: Duration,
    /// Median wall-clock of the reference on the same buffers: the scalar
    /// level of the kernel itself (`grid_pass` included), or — for
    /// `l0_block` and `dtw_lanes` — the per-record `bound_sq` loop and the
    /// per-candidate scalar DP. On
    /// a scalar row of a kernel that is its own reference the two sides
    /// run the same code, and the speed-up reads the timer's noise.
    pub scalar: Duration,
    /// The fastest of the reference's batches.
    pub scalar_min: Duration,
    /// Output agreement with the reference (exact for `envelope`,
    /// `l0_block`, `dtw_lanes` and `grid_pass`; ≤ 1e-9 relative for the
    /// accumulating kernels).
    pub agrees: bool,
}

impl KernelRow {
    /// Scalar time over this level's time (> 1 means faster than scalar).
    pub fn speedup(&self) -> f64 {
        self.scalar.as_secs_f64() / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// The row's fields, in the order the table and the record show them.
    fn fields(&self) -> Row {
        vec![
            ("kernel", self.kernel.into()),
            ("level", self.level.label().into()),
            ("selected", (self.level == kernels::level()).into()),
            ("time_us", us(self.elapsed)),
            ("time_min_us", us(self.elapsed_min)),
            ("scalar_min_us", us(self.scalar_min)),
            ("speedup", Value::Fixed(self.speedup(), 4)),
            ("agrees", self.agrees.into()),
        ]
    }
}

fn walk(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed.max(1);
    let mut v = 0.0;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v += (state % 2000) as f64 / 1000.0 - 1.0;
            v
        })
        .collect()
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Batches each side of a [`KernelRow`] is timed over.
const TIMED_PAIRS: usize = 5;

/// Time `level` and `reference` in [`TIMED_PAIRS`] alternating batches
/// after one warm-up each: `[(median, min)]` of the level, then of the
/// reference.
fn paired_times(mut level: impl FnMut(), mut reference: impl FnMut()) -> [(Duration, Duration); 2] {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed()
    };
    level();
    reference();
    let (mut at, mut of): (Vec<Duration>, Vec<Duration>) = (0..TIMED_PAIRS)
        .map(|_| (time(&mut level), time(&mut reference)))
        .unzip();
    [&mut at, &mut of].map(|samples| {
        samples.sort();
        (samples[samples.len() / 2], samples[0])
    })
}

/// A [`KernelRow`] from its [`paired_times`].
fn kernel_row(
    kernel: &'static str,
    level: KernelLevel,
    [(elapsed, elapsed_min), (scalar, scalar_min)]: [(Duration, Duration); 2],
    agrees: bool,
) -> KernelRow {
    KernelRow {
        kernel,
        level,
        elapsed,
        elapsed_min,
        scalar,
        scalar_min,
        agrees,
    }
}

/// The two lanes-are-candidates kernels at one level (scalar or AVX2),
/// each against the reference it replaced in the member scan: one group
/// of `n` overlapping [`LANE_LEN`]-point windows of a walk, queried with
/// a window of another.
fn measure_lane_kernels(level: KernelLevel, x: &[f64], y: &[f64], iters: usize) -> [KernelRow; 2] {
    let query = &x[..LANE_LEN];
    let windows: Vec<&[f64]> = y.windows(LANE_LEN).collect();

    // l0_block: the group's sketches as 24-byte records (the reference
    // form) and as planes; a bound most candidates fail, as in a scan.
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    };
    let ((x_lo, x_hi), (y_lo, y_hi)) = (range(x), range(y));
    let params = SketchParams::fit(x_lo.min(y_lo), x_hi.max(y_hi));
    let mut records = vec![0u8; windows.len() * SKETCH_STRIDE];
    for (w, record) in windows.iter().zip(records.chunks_exact_mut(SKETCH_STRIDE)) {
        encode_into(&params, w, record);
    }
    let planes = SketchPlanes::from_records(&records, |_| 0);
    let qs = QuerySketch::new(query, &Envelope::build(query, LANE_LEN), params);
    let bound_sq = {
        let mut bounds: Vec<f64> = records
            .chunks_exact(SKETCH_STRIDE)
            .map(|r| qs.bound_sq(r))
            .collect();
        bounds.sort_by(f64::total_cmp);
        bounds[bounds.len() / 10]
    };
    let per_record = |out: &mut Vec<usize>| {
        out.clear();
        for (slot, record) in records.chunks_exact(SKETCH_STRIDE).enumerate() {
            let rejected = qs.bound_sq(record) > bound_sq;
            if !rejected {
                out.push(slot);
            }
        }
    };
    let (mut want, mut got) = (Vec::new(), Vec::new());
    per_record(&mut want);
    let mut reference_out = Vec::new();
    let l0_times = paired_times(
        || {
            for _ in 0..iters {
                got.clear();
                qs.survivors_at(
                    level,
                    black_box(&planes),
                    0..windows.len(),
                    bound_sq,
                    black_box(&mut got),
                );
            }
        },
        || {
            for _ in 0..iters {
                per_record(black_box(&mut reference_out));
            }
        },
    );
    let l0_agrees = got == want;

    // dtw_lanes: every window re-based to start where the query does (so
    // the DPs run deep), in batches of four, against the median distance
    // (so about half the lanes abandon on the way).
    let rebased: Vec<Vec<f64>> = windows
        .iter()
        .take(windows.len().min(1024))
        .map(|w| w.iter().map(|v| v - w[0] + query[0]).collect())
        .collect();
    let mut scratch = DtwScratch::default();
    let per_candidate = |ub_sq: f64, scratch: &mut DtwScratch, out: &mut Vec<f64>| {
        out.clear();
        for c in &rebased {
            out.push(dtw_early_abandon_sq_scratch(
                query,
                c,
                Band::Full,
                ub_sq,
                None,
                None,
                scratch,
            ));
        }
    };
    let (mut want, mut got) = (Vec::new(), Vec::new());
    per_candidate(f64::INFINITY, &mut scratch, &mut want);
    let ub_sq = {
        let mut sorted = want.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    };
    per_candidate(ub_sq, &mut scratch, &mut want);
    let candidates: Vec<&[f64]> = rebased.iter().map(Vec::as_slice).collect();
    let (mut reference_scratch, mut reference_out) = (DtwScratch::default(), Vec::new());
    let dtw_times = paired_times(
        || {
            got.clear();
            for ys in candidates.chunks(DTW_LANES) {
                let mut out = [0.0; DTW_LANES];
                kernels::dtw_lanes_at(
                    level,
                    query,
                    ys,
                    Band::Full,
                    &[ub_sq; DTW_LANES][..ys.len()],
                    None,
                    &mut scratch,
                    &mut out[..ys.len()],
                );
                got.extend_from_slice(&out[..ys.len()]);
            }
        },
        || per_candidate(ub_sq, &mut reference_scratch, black_box(&mut reference_out)),
    );
    let dtw_agrees = got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits());

    [
        kernel_row("l0_block", level, l0_times, l0_agrees),
        kernel_row("dtw_lanes", level, dtw_times, dtw_agrees),
    ]
}

/// Entries of one row span the `grid_pass` row bounds a call: about what a
/// writer's lookup bounds in a row of the `ingest` collection's grids, and
/// not a multiple of the AVX2 kernel's eight.
const GRID_SPAN: usize = 43;

/// The grid's bound pass (the writer's nearest-representative lookup) at
/// one level against its scalar reference: `n` entries' codes — the
/// quarter means of a walk's windows as the grid codes them, a 256th of a
/// cell a step — bounded a span of [`GRID_SPAN`] at a time, at a limit
/// about a tenth of them meet.
fn measure_grid_pass(level: KernelLevel, walk: &[f64], n: usize, iters: usize) -> KernelRow {
    let step = 1.0 / 256.0;
    let window = 16;
    let planes: [Vec<i16>; GRID_SEGMENTS] = std::array::from_fn(|s| {
        walk.windows(window)
            .take(n)
            .map(|w| {
                let quarter = &w[s * window / 4..(s + 1) * window / 4];
                let mean = quarter.iter().sum::<f64>() / quarter.len() as f64;
                (mean / step).round().clamp(-32_767.0, 32_767.0) as i16
            })
            .collect()
    });
    let query = |limit: f32| GridQuery {
        offsets: std::array::from_fn(|s| f32::from(planes[s][n / 2]) + 37.5),
        weights: [4.0; GRID_SEGMENTS],
        slack: 0.51,
        limit,
    };
    let limit = {
        let mut bounds: Vec<f32> = (0..n)
            .map(|i| query(0.0).lower(planes.each_ref().map(|plane| plane[i])))
            .collect();
        bounds.sort_by(f32::total_cmp);
        bounds[n / 10]
    };
    let q = query(limit);
    let pass = |level: KernelLevel, out: &mut Vec<(usize, f32)>| {
        out.clear();
        let rows = planes.each_ref().map(Vec::as_slice);
        for start in (0..n).step_by(GRID_SPAN) {
            let span = start..n.min(start + GRID_SPAN);
            kernels::grid_survivors_at(level, black_box(&q), rows, span, out);
        }
    };
    let (mut want, mut got) = (Vec::new(), Vec::new());
    pass(KernelLevel::Scalar, &mut want);
    pass(level, &mut got);
    let bits = |v: &[(usize, f32)]| v.iter().map(|&(i, l)| (i, l.to_bits())).collect::<Vec<_>>();
    let agrees = bits(&got) == bits(&want);
    let mut reference_out = Vec::new();
    let times = paired_times(
        || {
            for _ in 0..iters {
                pass(level, black_box(&mut got));
            }
        },
        || {
            for _ in 0..iters {
                pass(KernelLevel::Scalar, black_box(&mut reference_out));
            }
        },
    );
    kernel_row("grid_pass", level, times, agrees)
}

/// Measure every kernel at every level the CPU offers (scalar included).
pub fn measure_kernels(quick: bool) -> Vec<KernelRow> {
    let n = if quick { 2048 } else { 8192 };
    let iters = if quick { 128 } else { 256 };
    let x = walk(11, n);
    let y = walk(23, n);
    let (lower, upper) = kernels::sliding_minmax_at(KernelLevel::Scalar, &y, 8);

    // Scalar reference outputs, computed once.
    let ed_ref = kernels::sum_sq_diff_ea_at(KernelLevel::Scalar, &x, &y, f64::INFINITY);
    let keogh_ref = kernels::env_excess_sq_at(
        KernelLevel::Scalar,
        &x,
        &lower,
        &upper,
        EnvAffine::IDENTITY,
        f64::INFINITY,
    );
    let env_ref = kernels::sliding_minmax_at(KernelLevel::Scalar, &y, 8);

    let mut rows = Vec::new();
    for level in KernelLevel::available() {
        let ed = |level| {
            for _ in 0..iters {
                black_box(kernels::sum_sq_diff_ea_at(
                    level,
                    black_box(&x),
                    black_box(&y),
                    f64::INFINITY,
                ));
            }
        };
        let ed_out = kernels::sum_sq_diff_ea_at(level, &x, &y, f64::INFINITY);
        rows.push(kernel_row(
            "ed",
            level,
            paired_times(|| ed(level), || ed(KernelLevel::Scalar)),
            rel_close(ed_out, ed_ref),
        ));

        let keogh = |level| {
            for _ in 0..iters {
                black_box(kernels::env_excess_sq_at(
                    level,
                    black_box(&x),
                    black_box(&lower),
                    black_box(&upper),
                    EnvAffine::IDENTITY,
                    f64::INFINITY,
                ));
            }
        };
        let keogh_out = kernels::env_excess_sq_at(
            level,
            &x,
            &lower,
            &upper,
            EnvAffine::IDENTITY,
            f64::INFINITY,
        );
        rows.push(kernel_row(
            "lb_keogh",
            level,
            paired_times(|| keogh(level), || keogh(KernelLevel::Scalar)),
            rel_close(keogh_out, keogh_ref),
        ));

        let envelope = |level| {
            for _ in 0..iters / 4 {
                black_box(kernels::sliding_minmax_at(level, black_box(&y), 8));
            }
        };
        let env_out = kernels::sliding_minmax_at(level, &y, 8);
        rows.push(kernel_row(
            "envelope",
            level,
            paired_times(|| envelope(level), || envelope(KernelLevel::Scalar)),
            env_out == env_ref,
        ));

        rows.extend(measure_lane_kernels(level, &x, &y, iters / 16));
        rows.push(measure_grid_pass(level, &x, n - 16, iters / 4));
    }
    rows
}

// ------------------------------------------------------------- cascade

/// Aggregated cascade counters of one query batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct CascadeLeg {
    /// Candidates touched at any tier: groups examined plus every member
    /// the scan reached (whatever tier dismissed it).
    pub touched: usize,
    /// Members that paid an f64 lower-bound evaluation (reached LB_Kim) —
    /// the work the L0 tier exists to avoid.
    pub lb_evals: usize,
    /// Members rejected by the L0 sketch bound.
    pub l0_pruned: usize,
    /// Of those, members whose whole block the zone test skipped.
    pub zone_skipped: usize,
    /// Members rejected by LB_Kim.
    pub kim_pruned: usize,
    /// Members rejected by LB_Keogh.
    pub keogh_pruned: usize,
    /// Member DTWs that abandoned early.
    pub dtw_abandoned: usize,
    /// DTWs that ran to completion.
    pub dtw_completed: usize,
    /// DP cells the DTWs computed (members and representatives).
    pub dtw_cells: usize,
    /// Median batch wall-clock, of batches alternating with the other
    /// leg's.
    pub batch: Duration,
}

fn leg_from(stats: &QueryStats) -> CascadeLeg {
    let members = stats.members_bound_pruned() + stats.members_examined;
    CascadeLeg {
        touched: stats.groups_examined + members,
        lb_evals: members - stats.members_l0_pruned,
        l0_pruned: stats.members_l0_pruned,
        zone_skipped: stats.members_zone_skipped,
        kim_pruned: stats.members_kim_pruned,
        keogh_pruned: stats.members_lb_pruned,
        dtw_abandoned: stats.members_abandoned,
        dtw_completed: stats.dtw_completed,
        dtw_cells: stats.dtw_cells,
        batch: Duration::ZERO,
    }
}

/// One collection size: the L0-on/off ablation plus the agreement legs.
pub struct CascadeRow {
    /// What the collection is made of.
    pub shape: Shape,
    /// Series count of the workload.
    pub series: usize,
    /// Samples per series.
    pub len: usize,
    /// Adjacent candidate lengths indexed and searched (`Nearest`),
    /// centred on the query's: 1 on the equal-length rows, 3 on the
    /// cross-length row.
    pub lengths: usize,
    /// Counters with the L0 tier enabled (the default configuration).
    pub on: CascadeLeg,
    /// Counters with the L0 tier disabled (`without_l0`).
    pub off: CascadeLeg,
    /// L0-on top-k equals the exhaustive stride-1 scan (windows and
    /// distances).
    pub agreement: bool,
    /// L0-on top-k equals the L0-off top-k.
    pub ablation_agreement: bool,
    /// 4-shard merged top-k equals the single-engine top-k.
    pub sharded_agreement: bool,
}

impl CascadeRow {
    /// Members the L0-on scan reached, whatever tier dismissed them.
    pub fn members_touched(&self) -> usize {
        self.on.lb_evals + self.on.l0_pruned
    }

    /// An upper bound on the member DTWs the L0-on scan started (the
    /// completed count includes representatives) — what [`check`]
    /// compares against [`Self::members_touched`] on the cross-length row.
    pub fn dtw_started(&self) -> usize {
        self.on.dtw_abandoned + self.on.dtw_completed
    }

    /// The row's fields, in the order the table and the record show them:
    /// the tier rejects and DTW counts are the L0-on run's.
    fn fields(&self) -> Row {
        let (on, off) = (&self.on, &self.off);
        vec![
            ("shape", self.shape.label().into()),
            ("series", self.series.into()),
            ("len", self.len.into()),
            ("lengths", self.lengths.into()),
            ("touched_on", on.touched.into()),
            ("touched_off", off.touched.into()),
            ("lb_evals_on", on.lb_evals.into()),
            ("lb_evals_off", off.lb_evals.into()),
            ("l0_pruned", on.l0_pruned.into()),
            ("zone_skipped", on.zone_skipped.into()),
            ("kim_pruned", on.kim_pruned.into()),
            ("keogh_pruned", on.keogh_pruned.into()),
            ("dtw_abandoned", on.dtw_abandoned.into()),
            ("dtw_completed", on.dtw_completed.into()),
            ("dtw_cells_on", on.dtw_cells.into()),
            ("dtw_cells_off", off.dtw_cells.into()),
            ("batch_on_ms", ms(on.batch)),
            ("batch_off_ms", ms(off.batch)),
            ("agreement", self.agreement.into()),
            ("ablation_agreement", self.ablation_agreement.into()),
            ("sharded_agreement", self.sharded_agreement.into()),
        ]
    }
}

/// Run the cascade ablation sweep: random-walk collections, then the
/// clustered one.
pub fn measure_cascade(quick: bool) -> Vec<CascadeRow> {
    use Shape::{Clustered, Walk};
    // (shape, series, samples, adjacent lengths): the last random-walk
    // row of either sweep is the cross-length one, and the clustered row
    // closes it.
    let sizes: &[(Shape, usize, usize, usize)] = if quick {
        &[
            (Walk, 12, 96, 1),
            (Walk, 24, 160, 1),
            (Walk, 24, 160, 3),
            (Clustered, 32, 256, 3),
        ]
    } else {
        &[
            (Walk, 12, 96, 1),
            (Walk, 24, 160, 1),
            (Walk, 48, 256, 1),
            (Walk, 48, 256, 3),
            (Clustered, 128, 512, 3),
        ]
    };
    let mut rows = Vec::new();
    for &(shape, series, len, lengths) in sizes {
        let config = config(shape, lengths);
        let searched: Vec<usize> = (config.min_len..=config.max_len).collect();
        let nearest = QueryOptions::default().lengths(LengthSelection::Nearest(lengths));
        let ds = match shape {
            Walk => workloads::walk_collection(series, len),
            Clustered => workloads::sine_collection(series, len),
        };
        let query_len = shape.query_len();
        let queries = workloads::spread_queries(&ds, QUERIES, query_len, (3, 17));
        let (engine, _) = Onex::build(ds.clone(), config.clone()).expect("valid config");

        let options = [nearest.clone(), nearest.clone().without_l0()];
        let mut legs = [CascadeLeg::default(), CascadeLeg::default()];
        let mut answers: Vec<Vec<Vec<onex_core::Match>>> = Vec::new();
        for (leg, opts) in legs.iter_mut().zip(&options) {
            let mut total = QueryStats::default();
            let mut per_query = Vec::new();
            for q in &queries {
                let (matches, stats) = engine.k_best(q, K, opts).expect("valid query");
                total += stats;
                per_query.push(matches);
            }
            *leg = leg_from(&total);
            answers.push(per_query);
        }
        // Both legs timed in alternating batches, so CPU drift lands on
        // both sides of the on/off comparison.
        let batch = |opts: &QueryOptions| {
            for q in &queries {
                let _ = engine.k_best(q, K, opts).expect("valid query");
            }
        };
        let [(on, _), (off, _)] = paired_times(|| batch(&options[0]), || batch(&options[1]));
        (legs[0].batch, legs[1].batch) = (on, off);

        let ablation_agreement = answers[0]
            .iter()
            .zip(&answers[1])
            .all(|(a, b)| same_matches(a, b));

        // Exhaustive stride-1 reference: the provably correct answer.
        let agreement = queries.iter().zip(&answers[0]).all(|(q, got)| {
            let reference =
                exhaustive::scan_k(&ds, q, &searched, 1, &nearest, K, true).expect("valid query");
            got.len() == reference.len()
                && got.iter().zip(&reference).all(|(m, r)| {
                    m.subseq == r.subseq && m.distance.to_bits() == r.distance.to_bits()
                })
        });

        // Sharded fan-out agreement (the shared-bound path of E14, now
        // with the L0 tier active on every shard).
        let (sharded, _) = ShardedEngine::build(&ds, config.clone(), SHARDS).expect("valid config");
        let sharded = sharded.with_options(nearest.clone());
        let single = OnexBackend::new(std::sync::Arc::new(engine)).with_options(nearest.clone());
        let sharded_agreement = queries.iter().all(|q| {
            let merged = sharded.k_best(q, K).expect("valid query");
            same_top_k(&merged, &single.k_best(q, K).expect("valid query"))
        });

        rows.push(CascadeRow {
            shape,
            series,
            len,
            lengths,
            on: legs[0],
            off: legs[1],
            agreement,
            ablation_agreement,
            sharded_agreement,
        });
    }
    rows
}

// -------------------------------------------------------------- output

/// One measurement pass — the kernel rows and the cascade rows — read as
/// the tables, the perf record and the invariants.
pub fn run(quick: bool) -> ExperimentOutput {
    output(&measure_kernels(quick), &measure_cascade(quick))
}

/// Both sweeps read three ways: a table each, `BENCH_kernels.json` (its
/// header names the selected kernel level) and the invariants.
fn output(kernel_rows: &[KernelRow], cascade_rows: &[CascadeRow]) -> ExperimentOutput {
    let level = kernels::level();
    let kernel_fields: Vec<Row> = kernel_rows.iter().map(KernelRow::fields).collect();
    let cascade_fields: Vec<Row> = cascade_rows.iter().map(CascadeRow::fields).collect();
    let kernels_caption = format!(
        "E17a — kernel throughput by level (selected level: {}; \
         speedup is scalar time / level time on identical buffers, \
         medians of {TIMED_PAIRS} alternating batches)",
        level.label()
    );
    let cascade_caption = format!(
        "E17b — L0 prefilter ablation (k={K}, Seed policy; random walks \
         queried at length {SUBSEQ_LEN}, the clustered collection at \
         {CLUSTERED_LEN}; lengths 3 searches the three lengths around the \
         query's, so two thirds of the candidates differ in length from \
         it; the tier rejects are the L0-on run's, the zone's a part of \
         L0's; f64 LB evals must drop when L0 is on, and on the clustered \
         row so must the batch time)"
    );
    let tables = vec![
        table(kernels_caption, &kernel_fields),
        table(cascade_caption, &cascade_fields),
    ];
    let lead = vec![
        ("kernel_level", level.label().into()),
        ("simd_active", (level != KernelLevel::Scalar).into()),
    ];
    let fields = vec![
        ("kernels", Value::Rows(kernel_fields)),
        ("cascade", Value::Rows(cascade_fields)),
    ];
    ExperimentOutput {
        tables,
        record: Some(("BENCH_kernels.json", record("e17_kernels", lead, fields))),
        violations: check(kernel_rows, cascade_rows),
    }
}

/// E17's invariants, stated once:
///
/// * every kernel row at every level agrees with its reference;
/// * on every cascade row the L0 tier only removes work — no more
///   candidates touched, strictly fewer f64 lower-bound evaluations, some
///   L0 rejects on and none off, no more DP cells — and the top-k equals
///   the exhaustive scan, the L0-off run and the 4-shard fan-out;
/// * the zones skip only L0 rejects, and none with L0 off; on the
///   clustered row they skip some;
/// * on every cross-length row (`lengths` 3) fewer than half the members
///   touched start a DTW;
/// * with a SIMD level selected, in an optimised build: no kernel at that
///   level loses to its reference, and the clustered row runs faster with
///   L0 on than off. Under scalar dispatch there is nothing to win.
pub fn check(kernel_rows: &[KernelRow], cascade_rows: &[CascadeRow]) -> Vec<String> {
    let selected = kernels::level();
    let simd = TIMED && selected != KernelLevel::Scalar;
    let across = cascade_rows.iter().any(|r| r.lengths == 3);
    let clustered = cascade_rows.iter().any(|r| r.shape == Shape::Clustered);
    let at_selected = !simd || kernel_rows.iter().any(|r| r.level == selected);
    let mut out: Vec<String> = broken([
        (!kernel_rows.is_empty(), "no kernel rows".into()),
        (at_selected, "no kernel row at the selected level".into()),
        (across, "no cross-length cascade row".into()),
        (clustered, "no clustered cascade row".into()),
    ])
    .collect();
    for r in kernel_rows {
        let at = format!("{} at {}", r.kernel, r.level.label());
        let wins = !simd || r.level != selected || r.speedup() >= 1.0;
        out.extend(broken([
            (r.agrees, format!("{at}: disagrees with its reference")),
            (wins, format!("{at}: {:.2}× its reference", r.speedup())),
        ]));
    }
    for r in cascade_rows {
        let at = format!("{} {}x{} ×{}", r.shape.label(), r.series, r.len, r.lengths);
        let (on, off) = (&r.on, &r.off);
        let agree = [r.agreement, r.ablation_agreement, r.sharded_agreement];
        let removes = on.touched <= off.touched && on.lb_evals < off.lb_evals;
        let fired = on.l0_pruned > 0 && off.l0_pruned == 0;
        let zoned = on.zone_skipped <= on.l0_pruned
            && off.zone_skipped == 0
            && (r.shape != Shape::Clustered || on.zone_skipped > 0);
        let cells = on.dtw_cells <= off.dtw_cells;
        let (dtws, members) = (r.dtw_started(), r.members_touched());
        let few = r.lengths != 3 || 2 * dtws < members;
        let pays = !simd || r.shape != Shape::Clustered || on.batch < off.batch;
        let (on_ms, off_ms) = (fmt_duration(on.batch), fmt_duration(off.batch));
        out.extend(broken([
            (
                agree == [true; 3],
                format!("{at}: exhaustive/ablation/sharded agreement {agree:?}"),
            ),
            (
                removes,
                format!(
                    "{at}: L0 on/off touched {}/{}, f64 LB evals {}/{}",
                    on.touched, off.touched, on.lb_evals, off.lb_evals
                ),
            ),
            (
                fired,
                format!("{at}: L0 rejects on/off {}/{}", on.l0_pruned, off.l0_pruned),
            ),
            (
                zoned,
                format!(
                    "{at}: zone skips on/off {}/{} of {} L0 rejects",
                    on.zone_skipped, off.zone_skipped, on.l0_pruned
                ),
            ),
            (
                cells,
                format!("{at}: DP cells on/off {}/{}", on.dtw_cells, off.dtw_cells),
            ),
            (few, format!("{at}: {dtws} DTWs on {members} members")),
            (pays, format!("{at}: L0 on {on_ms}, off {off_ms}")),
        ]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_across_levels() {
        let rows = measure_kernels(true);
        let kernels = [
            "ed",
            "lb_keogh",
            "envelope",
            "l0_block",
            "dtw_lanes",
            "grid_pass",
        ];
        for kernel in kernels {
            let levels: Vec<_> = rows
                .iter()
                .filter(|r| r.kernel == kernel)
                .map(|r| r.level)
                .collect();
            assert_eq!(
                levels,
                KernelLevel::available(),
                "{kernel} runs at every level"
            );
        }
        assert_eq!(rows.len(), kernels.len() * KernelLevel::available().len());
        assert_eq!(check(&rows, &cascade_fixture()), Vec::<String>::new());
    }

    #[test]
    fn l0_reduces_f64_lb_work_without_changing_answers() {
        let rows = measure_cascade(true);
        assert_eq!(
            rows.iter()
                .map(|r| (r.shape, r.lengths))
                .collect::<Vec<_>>(),
            [
                (Shape::Walk, 1),
                (Shape::Walk, 1),
                (Shape::Walk, 3),
                (Shape::Clustered, 3)
            ],
            "two quick sizes, the cross-length row and the clustered row"
        );
        assert_eq!(check(&kernel_fixture(), &rows), Vec::<String>::new());
    }

    fn kernel_fixture() -> Vec<KernelRow> {
        let row = |level, elapsed| KernelRow {
            kernel: "ed",
            level,
            elapsed: Duration::from_micros(elapsed),
            elapsed_min: Duration::from_micros(elapsed - 5),
            scalar: Duration::from_micros(100),
            scalar_min: Duration::from_micros(90),
            agrees: true,
        };
        vec![row(KernelLevel::Scalar, 100), row(KernelLevel::Avx2, 25)]
    }

    fn cascade_fixture() -> Vec<CascadeRow> {
        let leg = |lb_evals, l0_pruned, zone_skipped, batch| CascadeLeg {
            touched: 900,
            lb_evals,
            l0_pruned,
            zone_skipped,
            kim_pruned: 40,
            keogh_pruned: 120,
            dtw_abandoned: 80,
            dtw_completed: 260,
            dtw_cells: 31_000,
            batch: Duration::from_micros(batch),
        };
        vec![CascadeRow {
            shape: Shape::Clustered,
            series: 12,
            len: 96,
            lengths: 3,
            on: leg(500, 300, 200, 431),
            off: leg(800, 0, 0, 520),
            agreement: true,
            ablation_agreement: true,
            sharded_agreement: true,
        }]
    }

    #[test]
    fn check_names_a_broken_invariant() {
        assert_eq!(
            check(&kernel_fixture(), &cascade_fixture()),
            Vec::<String>::new()
        );
        let mut broken = cascade_fixture();
        broken[0].on.lb_evals = 800;
        crate::experiments::assert_broken(
            &check(&kernel_fixture(), &broken),
            "clustered 12x96 ×3: L0 on/off touched 900/900, f64 LB evals 800/800",
        );
        let mut broken = cascade_fixture();
        broken[0].on.zone_skipped = 301;
        crate::experiments::assert_broken(
            &check(&kernel_fixture(), &broken),
            "clustered 12x96 ×3: zone skips on/off 301/0 of 300 L0 rejects",
        );
        let mut broken = cascade_fixture();
        broken[0].on.zone_skipped = 0;
        crate::experiments::assert_broken(
            &check(&kernel_fixture(), &broken),
            "clustered 12x96 ×3: zone skips on/off 0/0 of 300 L0 rejects",
        );
        let mut broken = cascade_fixture();
        broken[0].on.dtw_cells = 31_001;
        crate::experiments::assert_broken(
            &check(&kernel_fixture(), &broken),
            "clustered 12x96 ×3: DP cells on/off 31001/31000",
        );
        // An optimised build with a SIMD level selected also wants a
        // kernel row at that level.
        let simd = TIMED && kernels::level() != KernelLevel::Scalar;
        let mut want = vec!["no kernel rows"];
        want.extend(simd.then_some("no kernel row at the selected level"));
        want.extend(["no cross-length cascade row", "no clustered cascade row"]);
        assert_eq!(check(&[], &[]), want);
    }

    #[test]
    fn json_report_is_parseable_shape() {
        crate::experiments::assert_record_shape(
            output(&kernel_fixture(), &cascade_fixture()),
            "BENCH_kernels.json",
            include_str!("../../../../BENCH_kernels.json"),
        );
    }
}
