//! Property-based tests for the distance substrate.
//!
//! These are the load-bearing invariants of ONEX: the base construction
//! and query pruning are only correct if every one of these holds for all
//! inputs, so we let proptest hunt for counterexamples.

use onex_distance::bounds::{
    dtw_lower_via_representative, dtw_upper_via_representative, warp_multiplicity,
};
use onex_distance::dtw::dtw_early_abandon_sq_with_cb;
use onex_distance::lb::{cumulative_bound, lb_keogh_sq, lb_keogh_with_contrib, lb_kim_fl_sq};
use onex_distance::{dtw, dtw_sq, dtw_with_path, ed, Band, Envelope};
use proptest::prelude::*;

const EPS: f64 = 1e-7;

fn series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 1..=max_len)
}

/// Every band shape the cascade runs under: unconstrained, Sakoe–Chiba
/// radii 0..=4 (widened to `|n − m|` across lengths), and Itakura.
fn bands() -> impl Iterator<Item = Band> {
    [Band::Full, Band::Itakura]
        .into_iter()
        .chain((0..=4).map(Band::SakoeChiba))
}

/// O(m·r) reference for [`Envelope::build_across`]: the extrema of
/// `query[j−r ..= j+r]`, clamped to the query, for each `j < m`.
fn envelope_across_naive(query: &[f64], m: usize, radius: usize) -> (Vec<f64>, Vec<f64>) {
    (0..m)
        .map(|j| {
            let window = &query[j.saturating_sub(radius)..(j + radius + 1).min(query.len())];
            (
                window.iter().cloned().fold(f64::INFINITY, f64::min),
                window.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            )
        })
        .unzip()
}

fn equal_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-100.0f64..100.0, n),
            prop::collection::vec(-100.0f64..100.0, n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dtw_is_symmetric((x, y) in (series(24), series(24))) {
        let a = dtw(&x, &y, Band::Full);
        let b = dtw(&y, &x, Band::Full);
        prop_assert!((a - b).abs() < EPS, "{a} vs {b}");
    }

    #[test]
    fn dtw_identity_is_zero(x in series(32)) {
        prop_assert!(dtw(&x, &x, Band::Full) < EPS);
    }

    #[test]
    fn dtw_le_ed_for_equal_lengths((x, y) in equal_pair(24)) {
        prop_assert!(dtw(&x, &y, Band::Full) <= ed(&x, &y) + EPS);
    }

    #[test]
    fn band_monotonicity((x, y) in equal_pair(20), r in 0usize..20) {
        let narrow = dtw(&x, &y, Band::SakoeChiba(r));
        let wide = dtw(&x, &y, Band::SakoeChiba(r + 2));
        let full = dtw(&x, &y, Band::Full);
        prop_assert!(full <= wide + EPS);
        prop_assert!(wide <= narrow + EPS);
    }

    /// `Envelope::build_across` panics for `radius < |n − m|`; the
    /// cascade builds it at `band.radius(n, m)`, which never falls short
    /// of the length gap, so no query reaches that panic.
    #[test]
    fn band_radius_covers_the_length_gap(n in 1usize..=64, m in 1usize..=64, r in 0usize..=8) {
        for band in bands().chain([Band::SakoeChiba(r)]) {
            prop_assert!(band.radius(n, m) >= n.abs_diff(m), "{band:?} n={n} m={m}");
        }
    }

    #[test]
    fn early_abandon_is_consistent((x, y) in (series(20), series(20)), ub in 0.0f64..500.0) {
        let exact = dtw(&x, &y, Band::Full);
        let ea = dtw_early_abandon_sq_with_cb(&x, &y, Band::Full, ub * ub, None).sqrt();
        if exact <= ub {
            prop_assert!((ea - exact).abs() < EPS, "must not abandon below the bound");
        } else {
            prop_assert!(ea == f64::INFINITY || (ea - exact).abs() < EPS);
        }
    }

    #[test]
    fn path_cost_equals_distance((x, y) in (series(16), series(16))) {
        let (d, p) = dtw_with_path(&x, &y, Band::Full);
        prop_assert!(p.is_valid(x.len(), y.len()));
        prop_assert!((p.cost(&x, &y) - d).abs() < EPS);
        let two_row = dtw(&x, &y, Band::Full);
        prop_assert!((d - two_row).abs() < EPS);
    }

    #[test]
    fn banded_path_stays_in_band((x, y) in equal_pair(16), r in 0usize..6) {
        let (d, p) = dtw_with_path(&x, &y, Band::SakoeChiba(r));
        prop_assert!(d.is_finite());
        for &(i, j) in p.pairs() {
            prop_assert!((i as i64 - j as i64).unsigned_abs() as usize <= r);
        }
    }

    #[test]
    fn lb_kim_bounds_dtw((x, y) in (series(20), series(20))) {
        prop_assert!(lb_kim_fl_sq(&x, &y) <= dtw_sq(&x, &y, Band::Full) + EPS);
    }

    #[test]
    fn itakura_dominates_full((x, y) in equal_pair(24)) {
        let ita = dtw(&x, &y, Band::Itakura);
        let full = dtw(&x, &y, Band::Full);
        prop_assert!(full <= ita + EPS, "constraint can only increase distance");
        // Equal lengths are always feasible (the diagonal is admissible).
        prop_assert!(ita.is_finite());
        // Symmetry.
        prop_assert!((ita - dtw(&y, &x, Band::Itakura)).abs() < EPS);
    }

    #[test]
    fn itakura_path_is_valid_when_finite((x, y) in equal_pair(16)) {
        let (d, p) = dtw_with_path(&x, &y, Band::Itakura);
        prop_assert!(d.is_finite());
        prop_assert!(p.is_valid(x.len(), y.len()));
        prop_assert!((p.cost(&x, &y) - d).abs() < EPS);
    }

    #[test]
    fn lb_keogh_bounds_banded_dtw((x, y) in equal_pair(20), r in 0usize..8) {
        let env = Envelope::build(&y, r);
        let lb = lb_keogh_sq(&x, &env, f64::INFINITY);
        let d = dtw_sq(&x, &y, Band::SakoeChiba(r));
        prop_assert!(lb <= d + EPS, "r={r}: {lb} > {d}");
    }

    /// The cascade's LB_Keogh at any length pair: the candidate `y`
    /// against the query's envelope indexed by `y`'s positions never
    /// exceeds DTW, under every band (an infeasible Itakura pair has
    /// DTW = ∞, which bounds anything).
    #[test]
    fn lb_keogh_across_lengths_bounds_dtw((x, y) in (series(20), series(20))) {
        let (n, m) = (x.len(), y.len());
        for band in bands() {
            let env = Envelope::build_across(&x, m, band.radius(n, m));
            let lb = lb_keogh_sq(&y, &env, f64::INFINITY);
            let d = dtw_sq(&x, &y, band);
            prop_assert!(lb <= d + EPS, "{band:?} n={n} m={m}: {lb} > {d}");
        }
    }

    #[test]
    fn envelope_across_matches_naive(x in series(24), m in 1usize..=24, slack in 0usize..6) {
        let n = x.len();
        // From the tightest radius a band can have at this length pair up.
        let r = n.abs_diff(m) + slack;
        let env = Envelope::build_across(&x, m, r);
        let (lower, upper) = envelope_across_naive(&x, m, r);
        prop_assert_eq!(&env.lower, &lower, "lower n={} m={} r={}", n, m, r);
        prop_assert_eq!(&env.upper, &upper, "upper n={} m={} r={}", n, m, r);
        prop_assert_eq!(Envelope::build_across(&x, n, slack), Envelope::build(&x, slack));
    }

    #[test]
    fn cb_plus_dtw_never_false_abandons((x, y) in equal_pair(16), r in 0usize..5) {
        // Feeding LB_Keogh's own cumulative bound into the DP must never
        // abandon a candidate whose true distance is within the bound.
        let env = Envelope::build(&y, r);
        let mut contrib = Vec::new();
        lb_keogh_with_contrib(&x, &env, &mut contrib);
        let cb = cumulative_bound(&contrib);
        let exact = dtw_sq(&x, &y, Band::SakoeChiba(r));
        let out = dtw_early_abandon_sq_with_cb(&x, &y, Band::SakoeChiba(r), exact + 1.0, Some(&cb));
        prop_assert!((out - exact).abs() < EPS, "false abandon: {out} vs {exact}");
    }

    #[test]
    fn envelope_brackets_sequence(y in series(48), r in 0usize..12) {
        let env = Envelope::build(&y, r);
        prop_assert!(env.contains(&y));
    }

    #[test]
    fn group_bound_triangle(
        q in series(16),
        (r, s) in equal_pair(16),
        band_r in 0usize..6,
    ) {
        for band in [Band::Full, Band::SakoeChiba(band_r)] {
            let w = warp_multiplicity(q.len(), r.len(), band);
            let dqr = dtw(&q, &r, band);
            let dqs = dtw(&q, &s, band);
            let ers = ed(&r, &s);
            prop_assert!(
                dqs <= dtw_upper_via_representative(dqr, ers, w) + EPS,
                "upper bound violated: band={band:?} dqs={dqs} dqr={dqr} ers={ers} w={w}"
            );
            prop_assert!(
                dqs >= dtw_lower_via_representative(dqr, ers, w) - EPS,
                "lower bound violated: band={band:?}"
            );
        }
    }

    #[test]
    fn ed_triangle_inequality((x, y) in equal_pair(24), z in series(24)) {
        if z.len() == x.len() {
            prop_assert!(ed(&x, &z) <= ed(&x, &y) + ed(&y, &z) + EPS);
        }
    }
}

// ---------------------------------------------------------------------
// SIMD kernels and the L0 sketch tier.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The accumulating kernels agree across every available level to
    /// the documented relative tolerance (lane sums reassociate).
    #[test]
    fn kernel_sums_agree_across_levels((x, y) in equal_pair(96), ub in 0.0f64..1e6) {
        use onex_distance::kernels::{sum_sq_diff_ea_at, KernelLevel};
        let want = sum_sq_diff_ea_at(KernelLevel::Scalar, &x, &y, f64::INFINITY);
        for l in KernelLevel::available() {
            let got = sum_sq_diff_ea_at(l, &x, &y, f64::INFINITY);
            prop_assert!((got - want).abs() <= 1e-9 * want.max(1.0), "{l:?}");
            // With a bound: either both abandon, or both agree — an
            // ulp-boundary flip would show as one INF and one ≈ub.
            let a = sum_sq_diff_ea_at(KernelLevel::Scalar, &x, &y, ub);
            let b = sum_sq_diff_ea_at(l, &x, &y, ub);
            if a.is_infinite() || b.is_infinite() {
                prop_assert!(want + 1e-9 * want.max(1.0) >= ub, "{l:?} abandoned under the bound");
            } else {
                prop_assert!((a - b).abs() <= 1e-9 * want.max(1.0));
            }
        }
    }

    /// The envelope-exceedance kernel agrees across levels.
    #[test]
    fn kernel_env_excess_agrees_across_levels((x, y) in equal_pair(96), r in 0usize..8) {
        use onex_distance::kernels::{env_excess_sq_at, EnvAffine, KernelLevel};
        let env = Envelope::build(&y, r);
        let want = env_excess_sq_at(
            KernelLevel::Scalar, &x, &env.lower, &env.upper, EnvAffine::IDENTITY, f64::INFINITY);
        for l in KernelLevel::available() {
            let got = env_excess_sq_at(
                l, &x, &env.lower, &env.upper, EnvAffine::IDENTITY, f64::INFINITY);
            prop_assert!((got - want).abs() <= 1e-9 * want.max(1.0), "{l:?}: {got} vs {want}");
        }
    }

    /// The DTW row kernel and the envelope min/max are bit-exact across
    /// levels — the whole-DP distance must be *identical*, not close.
    #[test]
    fn dtw_and_envelope_are_bit_exact_across_levels((x, y) in equal_pair(48), r in 0usize..10) {
        use onex_distance::kernels::{sliding_minmax_at, KernelLevel};
        let (want_lo, want_hi) = sliding_minmax_at(KernelLevel::Scalar, &y, r);
        for l in KernelLevel::available() {
            let (lo, hi) = sliding_minmax_at(l, &y, r);
            prop_assert_eq!(&lo, &want_lo, "{:?} lower", l);
            prop_assert_eq!(&hi, &want_hi, "{:?} upper", l);
        }
        // dtw_sq runs the EAPruned DP with nothing to prune: it is the
        // row-min DP, bit for bit.
        let band = Band::SakoeChiba(r);
        let got = dtw_sq(&x, &y, band);
        let reference = row_min_dtw(&x, &y, band, f64::INFINITY, None, None);
        prop_assert!(
            got.to_bits() == reference.to_bits(),
            "dtw_sq must be the row-min DP: {got} vs {reference}"
        );
    }

    /// The EAPruned DP is the row-min DP bit for bit (see
    /// [`check_eapruned`]): any lengths, every band, bounds on and around
    /// the distance, `cb` tails and live bounds.
    #[test]
    fn eapruned_dp_is_the_row_min_dp(
        x in series(24),
        y in series(24),
        seed in 0u64..1_000_000,
    ) {
        if let Err(e) = check_eapruned(&x, &y, seed) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The lane DTW is the scalar DP in every lane (see
    /// [`check_dtw_lanes`]), whatever the lengths and the batch size.
    #[test]
    fn dtw_lanes_are_bit_exact_per_lane(
        x in series(24),
        m in 1usize..=24,
        lanes in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        if let Err(e) = check_dtw_lanes(&x, m, lanes, seed) {
            prop_assert!(false, "{}", e);
        }
    }

    /// L0 sketch bound never exceeds true banded DTW (the tier's
    /// soundness contract) on arbitrary equal-length pairs.
    #[test]
    fn l0_sketch_bound_is_sound((x, y) in equal_pair(64), r in 0usize..12) {
        let lb = l0_bound_sq(&x, &y, &Envelope::build(&x, r));
        let d = dtw_sq(&x, &y, Band::SakoeChiba(r));
        prop_assert!(lb <= d + 1e-9 * d.max(1.0), "L0 {lb} > dtw {d} (r={r})");
    }

    /// The same contract at any length pair and under every band, the
    /// query sketch built over the cross-length envelope.
    #[test]
    fn l0_sketch_bound_is_sound_across_lengths((x, y) in (series(40), series(40))) {
        let (n, m) = (x.len(), y.len());
        for band in bands() {
            let env = Envelope::build_across(&x, m, band.radius(n, m));
            let lb = l0_bound_sq(&x, &y, &env);
            let d = dtw_sq(&x, &y, band);
            prop_assert!(lb <= d + 1e-9 * d.max(1.0), "{band:?} n={n} m={m}: L0 {lb} > dtw {d}");
        }
    }

    /// Satellite guard for the SIMD row rewrite: early-abandoning DTW
    /// with an infinite (or never-tightening live) bound is *exactly*
    /// plain `dtw_sq`, and a bound collapsed to 0 mid-flight still
    /// returns `INFINITY` unless the true distance is itself ~0.
    #[test]
    fn early_abandon_with_infinite_bound_is_plain_dtw((x, y) in equal_pair(32), r in 0usize..10) {
        use onex_distance::dtw::{dtw_early_abandon_sq_scratch, DtwScratch};
        for band in [Band::Full, Band::SakoeChiba(r)] {
            let exact = dtw_sq(&x, &y, band);
            let ea = dtw_early_abandon_sq_scratch(&x, &y, band, f64::INFINITY, None, None, &mut DtwScratch::default());
            prop_assert!(
                ea == exact || (ea.is_infinite() && exact.is_infinite()),
                "infinite static bound must be exact: {ea} vs {exact}"
            );
            let never = || f64::INFINITY;
            let ea_live = dtw_early_abandon_sq_scratch(&x, &y, band, f64::INFINITY, None, Some(&never), &mut DtwScratch::default());
            prop_assert!(
                ea_live == exact || (ea_live.is_infinite() && exact.is_infinite()),
                "never-tightening live bound must be exact: {ea_live} vs {exact}"
            );
            let zero = || 0.0;
            let collapsed = dtw_early_abandon_sq_scratch(&x, &y, band, f64::INFINITY, None, Some(&zero), &mut DtwScratch::default());
            if exact > 0.0 {
                prop_assert!(collapsed.is_infinite(), "zero bound must abandon: {collapsed}");
            } else {
                prop_assert!(collapsed <= 0.0 || collapsed.is_infinite());
            }
        }
    }
}

/// The row-min DP the EAPruned one replaced: every band cell of every
/// row (the row reset to `∞` first), the abandon test
/// `row_min + tail > bound` after each row with `live` folded in, and the
/// final check — the reference the scalar and lane DPs must equal bit for
/// bit.
fn row_min_dtw(
    x: &[f64],
    y: &[f64],
    band: Band,
    ub_sq: f64,
    cb: Option<&[f64]>,
    live: Option<&dyn Fn() -> f64>,
) -> f64 {
    let (n, m) = (x.len(), y.len());
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    let mut bound_sq = ub_sq;
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        let (lo, hi) = band.row_range(i, n, m);
        if lo > hi {
            return f64::INFINITY;
        }
        let mut row_min = f64::INFINITY;
        for j in lo..=hi {
            let d = x[i - 1] - y[j - 1];
            curr[j] = d * d + prev[j].min(curr[j - 1]).min(prev[j - 1]);
            if curr[j] < row_min {
                row_min = curr[j];
            }
        }
        let tail = cb.map_or(0.0, |cb| cb[i.max(hi).min(n)]);
        if let Some(live) = live {
            bound_sq = bound_sq.min(live());
        }
        if row_min + tail > bound_sq {
            return f64::INFINITY;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    if prev[m] > bound_sq {
        f64::INFINITY
    } else {
        prev[m]
    }
}

/// A live bound that reads `∞` for the first `after` rows and `then`
/// from there on, counting its own readings: each run gets a fresh one,
/// so every DP sees the same reading at the same row.
fn tightening(after: usize, then: f64) -> impl Fn() -> f64 {
    let rows = std::cell::Cell::new(0);
    move || {
        rows.set(rows.get() + 1);
        if rows.get() > after {
            then
        } else {
            f64::INFINITY
        }
    }
}

/// The live bound a DP takes, from the one a test holds.
fn as_dyn<F: Fn() -> f64>(live: &Option<F>) -> Option<&dyn Fn() -> f64> {
    live.as_ref().map(|f| f as &dyn Fn() -> f64)
}

/// The bounds a DTW of full distance `d` is run under: none, exactly the
/// distance (`>`, not `≥`, so it completes), just under it, half of it,
/// and a seeded fraction.
fn bounds_around(d: f64, seed: u64) -> [f64; 5] {
    let fraction = (seed % 1000) as f64 / 1000.0;
    [f64::INFINITY, d, d * (1.0 - 1e-12), d * 0.5, d * fraction]
}

/// The scalar EAPruned DP against [`row_min_dtw`] on one pair: every
/// band, the bounds of [`bounds_around`], with and without a
/// non-increasing `cb` tail, and with no live bound, a live bound that
/// tightens mid-DP to each of those bounds, and one that reads NaN.
fn check_eapruned(x: &[f64], y: &[f64], seed: u64) -> Result<(), String> {
    use onex_distance::dtw::{dtw_early_abandon_sq_scratch, DtwScratch};
    let mut next = xorshift(seed);
    // A tail that only shrinks, small enough not to abandon everything.
    let mut cb: Vec<f64> = (0..=x.len()).map(|_| (next() + 100.0) * 0.05).collect();
    cb.sort_by(|a, b| b.total_cmp(a));
    *cb.last_mut().expect("n + 1 entries") = 0.0;
    let mut scratch = DtwScratch::default();
    for band in bands() {
        let d = row_min_dtw(x, y, band, f64::INFINITY, None, None);
        for ub in bounds_around(d, seed) {
            for cb in [None, Some(&cb[..])] {
                let after = (seed % 5) as usize;
                for live in [None, Some(ub), Some(f64::NAN)] {
                    let reading = |live: Option<f64>| live.map(|v| tightening(after, v));
                    let (a, b) = (reading(live), reading(live));
                    // Under a live bound the static one starts loose.
                    let static_ub = if live.is_some() { f64::INFINITY } else { ub };
                    let want = row_min_dtw(x, y, band, static_ub, cb, as_dyn(&a));
                    let got = dtw_early_abandon_sq_scratch(
                        x,
                        y,
                        band,
                        static_ub,
                        cb,
                        as_dyn(&b),
                        &mut scratch,
                    );
                    if got.to_bits() != want.to_bits() {
                        return Err(format!(
                            "{band:?} n={} m={} ub={ub} cb={} live={live:?}: {got} vs {want}",
                            x.len(),
                            y.len(),
                            cb.is_some(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// A seeded stream of values in `[-100, 100)`.
fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 200_000) as f64 / 1000.0 - 100.0
    }
}

/// The block test against its definition: for every cardinality 0..=70
/// (so every tail of the 4-slot step, and a range crossing one 64-slot
/// block), at every available level, over the whole group and over a
/// sub-range, the survivors are exactly the slots the per-record
/// `bound_sq` does not reject — with invalid-flag slots in the mix, at
/// `+∞`, at 0, and at bounds set exactly to a slot's own (`>`, not `≥`).
fn check_l0_block_test(query: &[f64], m: usize, seed: u64) -> Result<(), String> {
    use onex_distance::kernels::KernelLevel;
    use onex_distance::{sketch, QuerySketch, SketchParams, SketchPlanes, SKETCH_STRIDE};
    const MAX_CARD: usize = 70;
    let mut next = xorshift(seed);
    let candidates: Vec<Vec<f64>> = (0..MAX_CARD)
        .map(|c| {
            let mut y: Vec<f64> = (0..m).map(|_| next()).collect();
            if c % 7 == 3 {
                // Outside the frozen range: encodes as the invalid,
                // never-pruning placeholder.
                y[m / 2] = 1e4;
            }
            y
        })
        .collect();
    let params = SketchParams::fit(-100.0, 100.0);
    let mut records = vec![0u8; MAX_CARD * SKETCH_STRIDE];
    for (y, record) in candidates
        .iter()
        .zip(records.chunks_exact_mut(SKETCH_STRIDE))
    {
        sketch::encode_into(&params, y, record);
    }
    let radius = (seed % 5) as usize + query.len().abs_diff(m);
    let env = Envelope::build_across(query, m, radius);
    let qs = QuerySketch::new(query, &env, params);
    let bounds_of: Vec<f64> = records
        .chunks_exact(SKETCH_STRIDE)
        .map(|r| qs.bound_sq(r))
        .collect();
    if !bounds_of.iter().skip(3).step_by(7).all(|&b| b == 0.0) {
        return Err("an out-of-range candidate did not encode as invalid".into());
    }
    // Each slot as planes of one decides as its own record does.
    for (s, &own) in bounds_of.iter().enumerate() {
        let one = SketchPlanes::from_records(&records[s * SKETCH_STRIDE..][..SKETCH_STRIDE], |_| 0);
        for b in [f64::INFINITY, 0.0, own, own * 0.5] {
            for level in KernelLevel::available() {
                let mut got = Vec::new();
                qs.survivors_at(level, &one, 0..1, b, &mut got);
                let rejected = own > b;
                if got.is_empty() != rejected {
                    return Err(format!("{level:?} m={m} slot {s} alone, b={b}: {got:?}"));
                }
            }
        }
    }
    for card in 0..=MAX_CARD {
        let planes = SketchPlanes::from_records(&records[..card * SKETCH_STRIDE], |_| 0);
        if planes.cardinality() != card {
            return Err(format!(
                "{card} records made {} slots",
                planes.cardinality()
            ));
        }
        let mut sorted = bounds_of[..card].to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut bounds = vec![f64::INFINITY, 0.0];
        bounds.extend(sorted.get(card / 2));
        bounds.extend(bounds_of[..card].iter().skip(seed as usize % 3).step_by(9));
        for &b in &bounds {
            for range in [0..card, card / 3..card - card / 5] {
                let want: Vec<usize> = range
                    .clone()
                    .filter(|&s| {
                        let rejected = bounds_of[s] > b;
                        !rejected
                    })
                    .collect();
                for level in KernelLevel::available() {
                    let mut got = Vec::new();
                    qs.survivors_at(level, &planes, range.clone(), b, &mut got);
                    if got != want {
                        return Err(format!(
                            "{level:?} m={m} card={card} {range:?} b={b}: {got:?} vs {want:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// The zone test against the block test: over 150 candidates in three
/// zones — one near the query, one far from it, one mixed, with
/// invalid-flag slots, constant windows and the partial last zone — and
/// over cardinalities that leave one slot in the last zone, at every
/// available level, a zone reject means every slot's `bound_sq` exceeds
/// the bound and no slot is invalid, and zone-then-block survivors are
/// block-only survivors. Returns how many zone tests rejected, so a
/// caller can tell the property was not vacuous.
fn check_zones(query: &[f64], m: usize, seed: u64) -> Result<usize, String> {
    use onex_distance::kernels::KernelLevel;
    use onex_distance::{
        sketch, QuerySketch, SketchParams, SketchPlanes, SKETCH_STRIDE, ZONE_SLOTS,
    };
    const CARD: usize = 150;
    let mut next = xorshift(seed);
    let q_mean = query.iter().sum::<f64>() / query.len() as f64;
    let candidates: Vec<Vec<f64>> = (0..CARD)
        .map(|c| {
            // Zone 0 sits on the query, zone 1 far above it, zone 2
            // alternates.
            let far = match c / ZONE_SLOTS {
                0 => false,
                1 => true,
                _ => c % 2 == 0,
            };
            let centre = if far { q_mean + 150.0 } else { q_mean };
            match c % 11 {
                // Outside the frozen range: the invalid placeholder —
                // in every zone but the far one, which can then be
                // rejected whole.
                3 if c / ZONE_SLOTS != 1 => vec![1e4; m],
                // A constant window.
                5 => vec![centre; m],
                _ => (0..m).map(|_| centre + next() * 0.2).collect(),
            }
        })
        .collect();
    let params = SketchParams::fit(-400.0, 400.0);
    let mut records = vec![0u8; CARD * SKETCH_STRIDE];
    for (y, record) in candidates
        .iter()
        .zip(records.chunks_exact_mut(SKETCH_STRIDE))
    {
        sketch::encode_into(&params, y, record);
    }
    let radius = (seed % 5) as usize + query.len().abs_diff(m);
    let env = Envelope::build_across(query, m, radius);
    let qs = QuerySketch::new(query, &env, params);
    let bound_of: Vec<f64> = records
        .chunks_exact(SKETCH_STRIDE)
        .map(|r| qs.bound_sq(r))
        .collect();
    let tag = |slot: usize| (slot as u32 / 7) ^ (seed as u32 & 3);
    let mut rejected = 0;
    for card in [1, 2, 63, 64, 65, 129, CARD] {
        let planes = SketchPlanes::from_records(&records[..card * SKETCH_STRIDE], tag);
        let view = planes.view();
        if view.zones() != card.div_ceil(ZONE_SLOTS) {
            return Err(format!("{card} slots in {} zones", view.zones()));
        }
        for z in 0..view.zones() {
            let zone = view.zone(z);
            let slots = z * ZONE_SLOTS..((z + 1) * ZONE_SLOTS).min(card);
            let tags = slots.clone().map(tag);
            let want_tags = tags.clone().min().unwrap()..=tags.max().unwrap();
            if zone.tags() != want_tags {
                return Err(format!(
                    "card={card} zone {z}: tags {:?} vs {want_tags:?}",
                    zone.tags()
                ));
            }
            let invalid = slots.clone().any(|s| candidates[s][0] == 1e4);
            let hull = qs.bound_sq(&zone.hull());
            let lowest = slots
                .clone()
                .map(|s| bound_of[s])
                .fold(f64::INFINITY, f64::min);
            if !invalid && hull > lowest {
                return Err(format!(
                    "card={card} zone {z}: hull {hull} above a slot's {lowest}"
                ));
            }
            let mut bounds = vec![f64::INFINITY, 0.0, hull, hull * (1.0 - 1e-12), lowest * 0.5];
            bounds.extend(slots.clone().step_by(5).map(|s| bound_of[s]));
            for b in bounds {
                let skips = qs.rejects_zone(&zone, b);
                if skips && (invalid || !slots.clone().all(|s| bound_of[s] > b)) {
                    return Err(format!(
                        "card={card} zone {z} b={b}: rejected a slot that passes"
                    ));
                }
                if skips != (!invalid && hull > b) {
                    return Err(format!("card={card} zone {z} b={b}: not the hull's bound"));
                }
                rejected += usize::from(skips);
                for level in KernelLevel::available() {
                    let mut block_only = Vec::new();
                    qs.survivors_at(level, view, slots.clone(), b, &mut block_only);
                    let mut zone_then_block = Vec::new();
                    if !skips {
                        qs.survivors_at(level, view, slots.clone(), b, &mut zone_then_block);
                    }
                    if zone_then_block != block_only {
                        return Err(format!(
                            "{level:?} card={card} zone {z} b={b}: {zone_then_block:?} vs {block_only:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(rejected)
}

/// Zones at the edge lengths of the block test, and the explore shape;
/// the far zone is rejected somewhere.
#[test]
fn zone_test_is_sound_and_changes_no_survivor() {
    let mut next = xorshift(91);
    let mut rejected = 0;
    for m in [1usize, 2, 3, 7, 8, 9, 31] {
        for n in [1usize, m, m + 2] {
            let query: Vec<f64> = (0..n).map(|_| next() * 0.2).collect();
            rejected += check_zones(&query, m, (m * 13 + n) as u64).unwrap();
        }
    }
    assert!(rejected > 0, "no zone was ever rejected");
}

/// The corners of the block test: one-point candidates (no last-corner
/// term), candidates shorter than the eight segments (zero-weight
/// segments), and the explore shape.
#[test]
fn l0_block_test_edge_lengths() {
    let mut next = xorshift(77);
    for m in [1usize, 2, 3, 5, 7, 8, 9, 31] {
        for n in [1usize, m, m + 2] {
            let query: Vec<f64> = (0..n).map(|_| next()).collect();
            check_l0_block_test(&query, m, (m * 31 + n) as u64).unwrap();
        }
    }
}

/// `SketchPlanes` is a transpose plus derived zones: records in, the same
/// records out, grown planes keep their old slots, and planes grown a
/// few slots at a time — across zone edges too — are byte for byte the
/// planes built from all the records at once.
#[test]
fn sketch_planes_round_trip_records() {
    use onex_distance::{sketch, SketchParams, SketchPlanes, SKETCH_STRIDE};
    let params = SketchParams::fit(-100.0, 100.0);
    let mut next = xorshift(5);
    let tag = |slot: usize| (slot as u32).wrapping_mul(2_654_435_761) >> 25;
    let mut records = vec![0u8; 150 * SKETCH_STRIDE];
    for record in records.chunks_exact_mut(SKETCH_STRIDE) {
        let y: Vec<f64> = (0..12).map(|_| next()).collect();
        sketch::encode_into(&params, &y, record);
    }
    let planes = SketchPlanes::from_records(&records, tag);
    let mut back = Vec::new();
    planes.view().write_records(&mut back);
    assert_eq!(back, records);
    let head = SketchPlanes::from_records(&records[..10 * SKETCH_STRIDE], tag);
    let record_of = |slot: usize, record: &mut [u8]| {
        record.copy_from_slice(&records[slot * SKETCH_STRIDE..(slot + 1) * SKETCH_STRIDE]);
        tag(slot)
    };
    let grown = head.grown(150, record_of);
    assert_eq!(grown, planes);
    let mut stepped = head.clone();
    for to in [11, 63, 64, 65, 100, 128, 129, 150] {
        stepped = stepped.grown(to, record_of);
        assert_eq!(
            stepped,
            SketchPlanes::from_records(&records[..to * SKETCH_STRIDE], tag),
            "{to}"
        );
    }
    assert!(
        !grown.view().shares_storage_with(head.view())
            && head.clone().view().shares_storage_with(head.view())
    );
    assert_eq!(head.cardinality(), 10, "growing leaves the source alone");
    assert_eq!(SketchPlanes::default().cardinality(), 0);

    // Around the empty form — no slots and no block, a block from one
    // up: growing from any of them to any of them gives the planes the
    // records give, the source keeps its slots, and records come back out
    // as they went in.
    let of = |n: usize| SketchPlanes::from_records(&records[..n * SKETCH_STRIDE], tag);
    for from in 0..=3 {
        for to in from..=3 {
            let source = of(from);
            let mut encoded = Vec::new();
            let grown = source.grown(to, |slot, record| {
                encoded.push(slot);
                record_of(slot, record)
            });
            assert_eq!(encoded, (from..to).collect::<Vec<_>>(), "{from} -> {to}");
            assert_eq!(grown, of(to), "{from} -> {to}");
            assert_eq!(source, of(from), "{from} -> {to} touched its source");
            assert_eq!(grown.heap_bytes() > 0, to >= 1, "{from} -> {to}");
            let mut back = Vec::new();
            grown.view().write_records(&mut back);
            assert_eq!(back, records[..to * SKETCH_STRIDE], "{from} -> {to}");
            for slot in 0..to {
                assert_eq!(
                    grown.view().record(slot),
                    back[slot * SKETCH_STRIDE..][..SKETCH_STRIDE]
                );
            }
            // Growing by nothing is the same planes; growing by anything
            // is new ones.
            assert_eq!(
                grown.view().shares_storage_with(source.view()),
                from == to,
                "{from} -> {to}"
            );
        }
    }
    assert!(
        of(0).view().shares_storage_with(of(0).view())
            && !of(2).view().shares_storage_with(of(2).view())
    );
    let other = SketchPlanes::from_records(&records[SKETCH_STRIDE..2 * SKETCH_STRIDE], tag);
    assert!(of(1) != other && !of(1).view().shares_storage_with(other.view()));
}

/// `dtw_lanes` against the row-min DP, lane by lane and bit for bit: 1–4
/// candidates, every band, bounds that let a lane finish (`∞`, and
/// exactly its distance), bounds that kill it — so one lane may complete
/// while the others die — and live bounds: one at the median distance
/// from the first row, one that tightens to it mid-DP, one that reads
/// NaN.
fn check_dtw_lanes(x: &[f64], m: usize, lanes: usize, seed: u64) -> Result<(), String> {
    use onex_distance::dtw::DtwScratch;
    use onex_distance::kernels::{dtw_lanes_at, KernelLevel};
    let mut next = xorshift(seed);
    let ys: Vec<Vec<f64>> = (0..lanes)
        .map(|_| (0..m).map(|_| next()).collect())
        .collect();
    let ys: Vec<&[f64]> = ys.iter().map(Vec::as_slice).collect();
    let mut scratch = DtwScratch::default();
    for band in bands() {
        let exact: Vec<f64> = ys.iter().map(|y| dtw_sq(x, y, band)).collect();
        // Per lane, rotated by the seed: finish unbounded, finish at
        // exactly the distance, die just under it, die at half of it.
        let cut = |c: usize, d: f64| match (c + seed as usize) % 4 {
            0 => f64::INFINITY,
            1 => d,
            2 => d * (1.0 - 1e-12),
            _ => d * 0.5,
        };
        let mixed: Vec<f64> = exact.iter().enumerate().map(|(c, &d)| cut(c, d)).collect();
        let unbounded = vec![f64::INFINITY; lanes];
        let median = {
            let mut sorted = exact.clone();
            sorted.sort_by(f64::total_cmp);
            sorted[lanes / 2]
        };
        let after = (seed % 7) as usize;
        for ub_sq in [&unbounded, &mixed] {
            for live in [
                None,
                Some((0, median)),
                Some((after, median)),
                Some((0, f64::NAN)),
            ] {
                let reading = || live.map(|(after, then)| tightening(after, then));
                let want: Vec<f64> = ys
                    .iter()
                    .zip(ub_sq)
                    .map(|(y, &ub)| row_min_dtw(x, y, band, ub, None, as_dyn(&reading())))
                    .collect();
                for level in KernelLevel::available() {
                    // The scalar level runs the candidates one after
                    // another, each reading the live bound row by row, so
                    // a bound that changes between readings only reads the
                    // same to every lane when one step runs them all.
                    let once_a_row = level != KernelLevel::Scalar || lanes == 1;
                    if live.is_some_and(|(after, _)| after > 0) && !once_a_row {
                        continue;
                    }
                    let mut got = vec![f64::NAN; lanes];
                    let live = reading();
                    dtw_lanes_at(
                        level,
                        x,
                        &ys,
                        band,
                        ub_sq,
                        as_dyn(&live),
                        &mut scratch,
                        &mut got,
                    );
                    let same = got
                        .iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits());
                    if !same {
                        return Err(format!(
                            "{level:?} {band:?} n={} m={m} ub={ub_sq:?} live={live:?}: {got:?} vs {want:?}",
                            x.len(),
                            live = live.is_some(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// An Itakura pair whose lengths differ by more than the slope allows
/// has no path: every lane is `∞`, at every level and batch size.
#[test]
fn dtw_lanes_infeasible_band_is_infinite_in_every_lane() {
    use onex_distance::dtw::DtwScratch;
    use onex_distance::kernels::{dtw_lanes_at, KernelLevel};
    let x = [1.0, 2.0];
    let y = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
    let mut scratch = DtwScratch::default();
    for level in KernelLevel::available() {
        for lanes in 1..=4 {
            let mut out = vec![0.0; lanes];
            dtw_lanes_at(
                level,
                &x,
                &vec![&y[..]; lanes],
                Band::Itakura,
                &vec![f64::INFINITY; lanes],
                None,
                &mut scratch,
                &mut out,
            );
            assert!(out.iter().all(|d| d.is_infinite()), "{level:?} {out:?}");
        }
    }
}

/// The L0 bound of candidate `y` for query `x`, through a quantiser
/// fitted to both (so neither side's sketch is the invalid placeholder).
fn l0_bound_sq(x: &[f64], y: &[f64], env: &Envelope) -> f64 {
    use onex_distance::{sketch, QuerySketch, SketchParams, SKETCH_STRIDE};
    let (min, max) = x
        .iter()
        .chain(y)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let params = SketchParams::fit(min, max);
    let mut sk = [0u8; SKETCH_STRIDE];
    sketch::encode_into(&params, y, &mut sk);
    QuerySketch::new(x, env, params).bound_sq(&sk)
}

/// The corners of the cross-length envelope: a one-point query, a
/// one-point candidate, and the tightest radius a band can have
/// (`|n − m|`, where the first and last windows hold a single value).
#[test]
fn envelope_across_edge_cases() {
    let q = [4.0, -1.0, 3.0, 0.5, 2.0];
    // n = 1: every candidate position sees the only query value.
    let one = Envelope::build_across(&q[..1], 4, 3);
    assert_eq!(one.lower, vec![4.0; 4]);
    assert_eq!(one.upper, vec![4.0; 4]);
    // m = 1: the lone candidate position sees the whole band window.
    let single = Envelope::build_across(&q, 1, 4);
    assert_eq!((single.lower, single.upper), (vec![-1.0], vec![4.0]));
    // radius == |n − m|, longer candidate: the last position sees only
    // the query's last value; shorter candidate: plain truncation.
    let long = Envelope::build_across(&q, 8, 3);
    assert_eq!(long.len(), 8);
    assert_eq!((long.lower[7], long.upper[7]), (2.0, 2.0));
    assert_eq!((long.lower[0], long.upper[0]), (-1.0, 4.0));
    let short = Envelope::build_across(&q, 3, 2);
    let full = Envelope::build(&q, 2);
    assert_eq!(short.lower, full.lower[..3]);
    assert_eq!(short.upper, full.upper[..3]);
    // The bounds hold there too.
    for (x, y) in [(&q[..1], &q[..]), (&q[..], &q[..1]), (&q[..], &q[1..3])] {
        for band in bands() {
            let env = Envelope::build_across(x, y.len(), band.radius(x.len(), y.len()));
            let d = dtw_sq(x, y, band);
            assert!(lb_keogh_sq(y, &env, f64::INFINITY) <= d + EPS, "{band:?}");
            assert!(l0_bound_sq(x, y, &env) <= d + EPS, "{band:?}");
        }
    }
}

#[test]
#[should_panic(expected = "empty windows")]
fn envelope_across_rejects_a_radius_below_the_length_gap() {
    Envelope::build_across(&[1.0, 2.0], 5, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The zone test only ever skips what the block test rejects (see
    /// [`check_zones`]), at any query / candidate length.
    #[test]
    fn zone_test_equals_the_block_test(
        x in series(40),
        m in 1usize..=40,
        seed in 0u64..1_000_000,
    ) {
        if let Err(e) = check_zones(&x, m, seed) {
            prop_assert!(false, "{}", e);
        }
    }

    /// The L0 block test is the per-record bound applied slot by slot
    /// (see [`check_l0_block_test`]), at any query / candidate length.
    #[test]
    fn l0_block_test_equals_the_per_record_reference(
        x in series(40),
        m in 1usize..=40,
        seed in 0u64..1_000_000,
    ) {
        if let Err(e) = check_l0_block_test(&x, m, seed) {
            prop_assert!(false, "{}", e);
        }
    }
}

// ---------------------------------------------------------------------
// The PAA grid's bound pass.
// ---------------------------------------------------------------------

/// Entries `i` in `span` of `planes` whose [`GridQuery::lower`] is at or
/// under the limit, or NaN, and the bits of that bound: the reference,
/// entry by entry.
fn grid_reference(
    q: &onex_distance::kernels::GridQuery,
    planes: [&[i16]; 4],
    span: std::ops::Range<usize>,
) -> Vec<(usize, u32)> {
    span.map(|i| (i, q.lower(planes.map(|plane| plane[i]))))
        .filter(|&(_, lower)| lower <= q.limit || lower.is_nan())
        .map(|(i, lower)| (i, lower.to_bits()))
        .collect()
}

/// The grid's bound pass against its definition: at every available
/// level, over the whole row and over every span of lengths 0..=17 at a
/// few starts (every tail of the 8-entry step, the spans of fewer than
/// eight entries and those at the row's start among them), the survivors
/// are exactly the entries the reference keeps, in order, with its bounds
/// bit for bit, appended after what `out` held.
fn check_grid_pass(
    q: &onex_distance::kernels::GridQuery,
    planes: &[Vec<i16>; 4],
) -> Result<(), String> {
    use onex_distance::kernels::{grid_survivors_at, KernelLevel};
    let len = planes[0].len();
    let views = planes.each_ref().map(Vec::as_slice);
    let starts = [0, 1, 7, 8, 13].into_iter().filter(|&s| s <= len);
    let spans = starts.flat_map(|start| (0..=17).map(move |n| start..len.min(start + n)));
    for span in std::iter::once(0..len).chain(spans) {
        let want = grid_reference(q, views, span.clone());
        for level in KernelLevel::available() {
            let mut got = vec![(usize::MAX, 0.0)];
            grid_survivors_at(level, q, views, span.clone(), &mut got);
            let got: Vec<(usize, u32)> = got.iter().map(|&(i, l)| (i, l.to_bits())).collect();
            if got[0].0 != usize::MAX || got[1..] != want[..] {
                return Err(format!(
                    "{level:?} span {span:?} of {q:?}: {:?} vs {want:?}",
                    &got[1..]
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pass keeps the reference's entries at every level on random
    /// rows: codes anywhere in their range or near the query's offsets,
    /// the weights of a window of any length (2 and 3 carry empty
    /// segments), limits from nothing to most of the row.
    #[test]
    fn grid_pass_keeps_what_the_reference_keeps(
        rows in 0usize..=70,
        window in 2usize..=40,
        seed in 0u64..1_000_000,
    ) {
        use onex_distance::kernels::GridQuery;
        let mut next = xorshift(seed);
        let cuts: Vec<usize> = (0..=4).map(|s| window * s / 4).collect();
        let offsets: [f32; 4] = std::array::from_fn(|_| (next() * 300.0) as f32);
        let near = next() > 0.0;
        let planes: [Vec<i16>; 4] = std::array::from_fn(|s| {
            (0..rows)
                .map(|_| {
                    let code = if near {
                        f64::from(offsets[s]) + next() * 4.0
                    } else {
                        next() * 327.67
                    };
                    code.round() as i16
                })
                .collect()
        });
        let q = GridQuery {
            offsets,
            weights: std::array::from_fn(|s| (cuts[s + 1] - cuts[s]) as f32),
            slack: 0.5 + (next() as f32 + 100.0) / 400.0,
            limit: ((next() + 100.0) * 50.0) as f32,
        };
        if let Err(e) = check_grid_pass(&q, &planes) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// The pass on hostile rows: codes at ±32 767 and at the code that
/// bounds nothing, offsets at the clamp, not a number and infinite (an
/// infinite gap times an empty segment's zero weight is a NaN bound,
/// which keeps its entry), empty segments, and limits of 0, −0, ∞ and
/// NaN — at every level, the reference's survivors.
#[test]
fn grid_pass_keeps_what_the_reference_keeps_on_hostile_rows() {
    use onex_distance::kernels::GridQuery;
    let mut next = xorshift(91);
    let hostile = [i16::MAX, -i16::MAX, i16::MIN, 0, 1, -1];
    let offsets = [
        32_767.0,
        -32_767.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        12_345.6,
    ];
    let weights = [[0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0], [4.0; 4]];
    let limits = [0.0, -0.0, 1.0, 1e9, f32::INFINITY, f32::NAN];
    let mut kept = 0;
    for rows in [0usize, 1, 7, 8, 9, 23, 64, 65] {
        let planes: [Vec<i16>; 4] = std::array::from_fn(|_| {
            (0..rows)
                .map(|_| hostile[((next() + 100.0) * 0.03) as usize % hostile.len()])
                .collect()
        });
        for (o, &offset) in offsets.iter().enumerate() {
            for weights in weights {
                for limit in limits {
                    let q = GridQuery {
                        offsets: std::array::from_fn(|s| {
                            if s == o % 4 {
                                offset
                            } else {
                                offsets[(o + s) % offsets.len()]
                            }
                        }),
                        weights,
                        slack: 0.5,
                        limit,
                    };
                    check_grid_pass(&q, &planes).unwrap();
                    let views = planes.each_ref().map(Vec::as_slice);
                    kept += grid_reference(&q, views, 0..rows).len();
                }
            }
        }
    }
    // Some entries survive, so both outcomes are exercised.
    assert!(kept > 1000, "{kept} entries kept");
}
