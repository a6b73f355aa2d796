//! The two-phase group search shared by best-match and k-similar queries.
//!
//! Phase 1 ranks every group of a candidate length by a lower bound on
//! the DTW distance between the query and the group representative —
//! LB_KimFL strengthened by LB_Keogh — and drops the groups that bound
//! already rules out. Phase 2 walks groups in that order, runs each
//! representative's DTW, and scans the members of the groups it keeps,
//! with four sound pruning layers
//! (paper §3.3 "optimization strategies ranging from indexing of time
//! series using bounding envelopes to early pruning of unpromising
//! candidates"):
//!
//! 1. **Group pruning** via the ED↔DTW bridge: a group whose
//!    representative distance minus `√W · radius` cannot beat the current
//!    k-th best contains no useful member.
//! 2. **L0 sketch prefilter** on the members: a lower bound computed from
//!    each member's quantised-PAA sketch ([`onex_grouping::sketch`]) —
//!    rejected candidates never even have their f64 data resolved — first
//!    for a whole block of members at once (its zone), then member by
//!    member.
//! 3. **LB_Kim** (four touched points) then **LB_Keogh** on each member
//!    against the query envelope.
//! 4. **EAPruned DTW** seeded with the current k-th best: each row
//!    computes only the columns a path within it can still reach, and
//!    abandons once none can.
//!
//! Every tier runs on every exact query but L0, which
//! [`QueryOptions::without_l0`] switches off and which sits out at a
//! length without sketches: the tiers behind it reject all it would.
//!
//! Tiers 2 and 3 run at **every** candidate length, not only the query's
//! own: the envelope is the query's, indexed by the candidate's positions
//! ([`Envelope::build_across`]). Every candidate position `j` is paired
//! with at least one query row inside its band window and distinct `j`
//! are distinct DP cells, so `Σ_j dist(c_j, [L_j, U_j])² ≤ DTW²` for
//! `Full`, `SakoeChiba` and `Itakura` at any length pair.
//!
//! ## The member scan, a block at a time
//!
//! `Searcher::scan_members` does not walk a group candidate by
//! candidate. It takes 64 slots at a time — one zone of the group's
//! sketches — and runs each tier over what the tier before left:
//!
//! * **The zone**: one bound of the block's hull
//!   ([`QuerySketch::rejects_zone`]) against one reading of the bound. The
//!   hull's bound is at most every member's, so a rejected zone is a block
//!   the block test would empty: it is skipped whole, with no pass over
//!   its members, and they count as L0 rejects (and as
//!   `members_zone_skipped`) exactly as the block test would count them.
//!   A member the series / window filter drops is counted by no tier, so
//!   counting the admitted members takes a pass only over a block whose
//!   series range the filter reaches.
//! * **L0** is one block test over the group's plane-major sketches
//!   ([`QuerySketch::survivors`]: four slots per AVX2 step) against the
//!   same reading of the bound, and yields the surviving slots.
//! * **LB_Kim / LB_Keogh** run on each survivor against a fresh reading
//!   of the bound; this is where a candidate's f64 data is first
//!   resolved.
//! * **DTW**: what passes queues until four candidates are pending, and
//!   the batch runs as one lane-parallel EAPruned DP ([`dtw_lanes`]: one
//!   candidate per vector lane, each lane abandoning against the bound it
//!   was queued under, all lanes folding in the live shared bound per
//!   row, each row computing the union of the live lanes' windows).
//!   The queue is also flushed at the end of the group, so a batch never
//!   mixes lengths.
//!
//! Answers do not depend on the batching. A candidate is compared with a
//! bound that may be up to three candidates (DTW) or one block (L0)
//! *stale*, and a stale bound is a looser one — the bound only ever
//! tightens — so nothing the fresh bound would keep is lost; a candidate
//! the fresh bound would have dismissed merely reaches a later tier.
//! Completed distances are bit-identical however a DP was scheduled, and
//! what the k best keep does not depend on the order of the offers. Only
//! the tier counters can differ, by the few candidates that died one tier
//! later.
//!
//! ## One answer order
//!
//! The answer is the first `k` windows under (normalised distance,
//! window) — the order [`BestK`] keeps — whatever the shard count, kernel
//! level or schedule. Two rules make it so:
//!
//! * **Every exact prune test drops only what *exceeds* the bound**: a
//!   candidate tied with the k-th best reaches the k best, which keep the
//!   smaller window. (`TopGroups` is an approximation and keeps its own
//!   tests.)
//! * **The bound changes scale in one place**, [`raw_bound_sq`]: the
//!   normalised bound, back on the squared raw DTW scale of one length,
//!   widened by a few ulps so rounding never prunes a candidate whose
//!   normalised distance equals it.
//!
//! A group of one never reaches the scan. Its representative is its
//! member's window, read in place, and phase 2 has already run that
//! window's exact DTW against the threshold the member tier would use
//! (`bound + √W·0`). So that value is the member's: it meets the member
//! tier's test against a fresh reading of the bound, then the k best's.
//! The member counts as examined, and its DTW once, as the
//! representative's. It needs no sketch, which is why a group of one
//! keeps none; and one the series / window filters drop is passed over
//! before its bound and its DTW.
//!
//! The searcher keeps its matches in an [`onex_api::BestK`] — the
//! accumulator the fan-out merge and the exhaustive scan use too — and
//! every prune threshold flows through one **query-global bound**: the
//! k-th best *normalised* distance known so far, kept in a
//! [`SharedBound`]. Every offer publishes the accumulator's k-th key to
//! it (`∞` while fewer than k are kept, which the bound ignores), and the
//! bound only tightens, so it is never looser than the local k-th best:
//! the shared bound is the only one the searcher reads. It consults it
//! before each group and member (so a tight bound discovered at one
//! candidate length prunes all later lengths) and feeds it *live* into
//! the early-abandoning DP (so it can abort mid-computation). When
//! several searchers share one bound — the sharded engine runs one per
//! shard — a discovery by any of them immediately shrinks all the
//! others' searches, and the merged answer is the one a single searcher
//! returns (see `onex_api::bound` for the soundness argument). A
//! cancelled bound (`−∞`) fails every test, and `TopGroups`' selection,
//! which ranks by its own g-th best, stops at it: a cancelled query
//! starts no further DTW.
//!
//! Soundness of (1) relies on the radius being certified, which holds
//! under the `Seed` representative policy; under `Centroid` the radius is
//! the observed insertion maximum and pruning is near-exact (the paper's
//! own accuracy regime). `tests/exactness.rs` verifies the `Seed` claim
//! against the exhaustive scan.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use onex_api::{BestK, SharedBound, TOP_K_RESERVE};
use onex_distance::bounds::warp_multiplicity;
use onex_distance::dtw::{dtw_early_abandon_sq_scratch, DtwScratch};
use onex_distance::kernels::{dtw_lanes, DTW_LANES};
use onex_distance::lb::{lb_keogh_sq, lb_kim_fl_sq};
use onex_distance::{dtw_with_path, Envelope, QuerySketch, ZONE_SLOTS};
use onex_grouping::{GroupId, OnexBase};
use onex_tseries::{Dataset, SubseqRef};

use crate::options::ScanBreadth;
use crate::{Match, QueryOptions, QueryStats};

/// Total-ordered f64 for the [`ScanBreadth::TopGroups`] selection heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Cross-length ranking value: per-sample RMS-style normalisation, the
/// query-side counterpart of `BaseConfig::length_normalized`.
#[inline]
pub fn normalize(distance: f64, query_len: usize, candidate_len: usize) -> f64 {
    distance / (query_len.max(candidate_len) as f64).sqrt()
}

/// The relative margin [`raw_bound_sq`] adds: eight ulps of 1, where the
/// round trip through [`normalize`] and back loses at most about three.
const WIDEN: f64 = 1.0 + 8.0 * f64::EPSILON;

/// `(bound · norm + slack)²`: the normalised `bound` on the squared raw
/// DTW scale of a length whose normalisation factor is `norm`, plus
/// `slack` (a group's `√W · radius`) — the one conversion behind every
/// exact prune test and DTW threshold. It is widened by a few ulps, so a
/// candidate whose normalised distance equals `bound` is never pruned by
/// rounding. `∞` stays `∞`; a cancelled bound (`−∞`) stays `−∞`, below
/// every squared distance.
#[inline]
pub(crate) fn raw_bound_sq(bound: f64, norm: f64, slack: f64) -> f64 {
    let raw = (bound * norm + slack) * WIDEN;
    if raw < 0.0 {
        f64::NEG_INFINITY
    } else {
        raw * raw
    }
}

/// Everything about one candidate length that is a pure function of the
/// query and the options, computed **once per length** instead of per
/// group/member visit: the normalisation factor (previously a `sqrt` per
/// bound check), the warp multiplicity `√W`, and the query envelope for
/// LB_Keogh.
struct LengthPlan {
    len: usize,
    /// `√(max(query_len, len))` — converts the normalised bound back to
    /// the raw DTW scale at this length.
    norm: f64,
    /// `√W` of the ED↔DTW bridge at this length pair.
    sqrt_w: f64,
    /// Query envelope for LB_Keogh, one entry per position of this
    /// length's candidates (also used to rank groups cheaply in phase 1).
    env_q: Envelope,
    /// Query-side L0 sketch against this length's frozen quantisation
    /// parameters — the tier that rejects members from bytes alone,
    /// before their f64 data is resolved (`None`: off, or no sketches).
    l0: Option<QuerySketch>,
}

/// Slots per L0 block test, and so per reading of the bound at that tier:
/// one zone of the group's sketches.
const SCAN_BLOCK: usize = ZONE_SLOTS;

/// The members of one group that passed L0, LB_Kim and LB_Keogh and wait
/// for their DTWs: filled in slot order, run when full and at the end of
/// the group ([`Searcher::run_batch`]).
struct DtwBatch<'d> {
    members: [SubseqRef; DTW_LANES],
    values: [&'d [f64]; DTW_LANES],
    /// The bound each candidate passed LB_Keogh under.
    bound_sq: [f64; DTW_LANES],
    len: usize,
}

impl Default for DtwBatch<'_> {
    fn default() -> Self {
        DtwBatch {
            members: [SubseqRef::new(0, 0, 0); DTW_LANES],
            values: [&[]; DTW_LANES],
            bound_sq: [0.0; DTW_LANES],
            len: 0,
        }
    }
}

impl<'d> DtwBatch<'d> {
    /// Queue one candidate; true when the batch is now full.
    fn push(&mut self, member: SubseqRef, values: &'d [f64], bound_sq: f64) -> bool {
        self.members[self.len] = member;
        self.values[self.len] = values;
        self.bound_sq[self.len] = bound_sq;
        self.len += 1;
        self.len == DTW_LANES
    }
}

/// Bytes one buffer of a [`QueryScratch`] may keep between queries: a
/// buffer a query grew past this is given back when the query ends.
const SCRATCH_KEEP_BYTES: usize = 8 << 20;

/// The buffers a search works in — phase 1's ranking and its suffix
/// maxima (a slot a group of the length searched), the DP rows and the
/// L0 survivors — kept per thread between lengths and between queries,
/// so that a query allocates for its `k`, not for the collection.
#[derive(Default)]
struct QueryScratch {
    ranked: Vec<(usize, f64)>,
    suffix_max_radius: Vec<f64>,
    dtw: DtwScratch,
    survivors: Vec<usize>,
}

impl QueryScratch {
    /// This thread's scratch, taken for one search (an empty one when a
    /// search on this thread already holds it).
    fn take() -> QueryScratch {
        SCRATCH.with(|scratch| std::mem::take(&mut *scratch.borrow_mut()))
    }

    /// Give the scratch back for the next search on this thread, less
    /// any buffer past [`SCRATCH_KEEP_BYTES`].
    fn give_back(mut self) {
        fn cap<T>(buffer: &mut Vec<T>) {
            if buffer.capacity() * std::mem::size_of::<T>() > SCRATCH_KEEP_BYTES {
                *buffer = Vec::new();
            }
        }
        cap(&mut self.ranked);
        cap(&mut self.suffix_max_radius);
        cap(&mut self.survivors);
        if self.dtw.bytes() > SCRATCH_KEEP_BYTES {
            self.dtw = DtwScratch::default();
        }
        SCRATCH.with(|scratch| *scratch.borrow_mut() = self);
    }
}

thread_local! {
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::default());
}

pub(crate) struct Searcher<'a> {
    dataset: &'a Dataset,
    base: &'a OnexBase,
    query: &'a [f64],
    opts: &'a QueryOptions,
    /// The k best matches so far, keyed by normalised distance: the
    /// window (which breaks ties), its group's index and the bits of its
    /// raw distance.
    best: BestK<(SubseqRef, u32, u64)>,
    /// The query-global pruning bound on the *normalised* distance scale:
    /// seeded at `∞`, tightened to `best`'s k-th key by every offer,
    /// observed before every group/member and mid-DTW — the only bound
    /// the searcher reads. Callers that fan one query across several
    /// searchers (the sharded engine) pass the same bound to all of them.
    bound: &'a SharedBound,
    /// This thread's [`QueryScratch`], taken for the search: DP rows
    /// shared by every DTW of this query (members and representatives
    /// alike), the slots one L0 block test passed and phase 1's buffers,
    /// so the scan allocates none per candidate, group or length.
    scratch: QueryScratch,
    /// DP cells the scratch had computed when the search took it.
    cells_before: u64,
    pub stats: QueryStats,
}

impl<'a> Searcher<'a> {
    pub fn new(
        dataset: &'a Dataset,
        base: &'a OnexBase,
        query: &'a [f64],
        opts: &'a QueryOptions,
        k: usize,
        bound: &'a SharedBound,
    ) -> Self {
        let scratch = QueryScratch::take();
        Searcher {
            dataset,
            base,
            query,
            opts,
            best: BestK::new(k),
            bound,
            cells_before: scratch.dtw.cells(),
            scratch,
            stats: QueryStats::default(),
        }
    }

    /// Build the cached per-length plan: one envelope construction and
    /// one set of `sqrt`s per length for the whole query, where earlier
    /// revisions recomputed the normalisation factor on every bound
    /// check (bench E14 measures the difference).
    fn plan(&self, len: usize) -> LengthPlan {
        let n = self.query.len();
        let band = self.opts.band;
        let mult = warp_multiplicity(n, len, band);
        let env_q = Envelope::build_across(self.query, len, band.radius(n, len));
        // The L0 sketch is built from the envelope: its bound is a
        // coarsening of LB_Keogh + LB_Kim.
        let l0 = self
            .base
            .sketches()
            .for_len(len)
            .filter(|_| self.opts.l0_prefilter)
            .map(|ls| QuerySketch::new(self.query, &env_q, ls.params()));
        LengthPlan {
            len,
            norm: (n.max(len) as f64).sqrt(),
            sqrt_w: (mult as f64).sqrt(),
            env_q,
            l0,
        }
    }

    /// Run the search and return up to `k` matches, best first, with
    /// the work it counted. The caller ([`crate::Onex::k_best`]) has
    /// already validated `k` and the query through
    /// `onex_api::validate_query`, so malformed input never reaches this
    /// hot path.
    pub fn run(mut self) -> (Vec<Match>, QueryStats) {
        debug_assert!(!self.query.is_empty(), "caller validates input");
        for len in self
            .opts
            .lengths
            .lengths(self.query.len(), self.base.lengths())
        {
            let plan = self.plan(len);
            self.search_length(&plan);
        }
        self.stats.dtw_cells = (self.scratch.dtw.cells() - self.cells_before) as usize;

        let Searcher {
            dataset,
            query,
            opts,
            best,
            stats,
            scratch,
            ..
        } = self;
        scratch.give_back();
        let matches = best
            .into_sorted()
            .into_iter()
            .map(|(normalized, (subseq, index, distance))| {
                let values = dataset
                    .resolve(subseq)
                    .expect("base members resolve against their dataset");
                let (_, path) = dtw_with_path(query, values, opts.band);
                let series = dataset.series(subseq.series).expect("member series exists");
                Match {
                    subseq,
                    series_name: series.name().to_owned(),
                    distance: f64::from_bits(distance),
                    normalized,
                    group: GroupId {
                        len: subseq.len,
                        index,
                    },
                    path,
                }
            })
            .collect();
        (matches, stats)
    }

    /// The current pruning bound at a given candidate length, on the
    /// squared raw DTW scale the member tiers compare on: a candidate can
    /// only matter if it is within the k-th best normalised distance
    /// known anywhere (this searcher or a peer sharing the bound).
    fn bound_sq(&self, plan: &LengthPlan) -> f64 {
        raw_bound_sq(self.bound.get(), plan.norm, 0.0)
    }

    fn search_length(&mut self, plan: &LengthPlan) {
        let groups = self.base.groups_for_len(plan.len);
        if groups.is_empty() {
            return;
        }
        let sqrt_w = plan.sqrt_w;

        // Phase 1: rank groups by a cheap *lower bound* on the squared
        // representative distance — LB_KimFL strengthened by LB_Keogh.
        // Ascending lower bound is an optimistic-first order, and because
        // it bounds the true distance from below it also licenses a sound
        // early `break` in phase 2. Once the bound is set (an earlier
        // length of this query, or a peer shard) a group whose lower bound
        // exceeds `bound + √W·radius` is pruned here, by the test phase 2
        // would apply to it, and LB_Keogh abandons at that threshold.
        // (`TopGroups` selects by representative distance alone, so its
        // ranking keeps every group.)
        let bound = self.bound.get();
        let prune_here = self.opts.breadth == ScanBreadth::Exact;
        let mut ranked = std::mem::take(&mut self.scratch.ranked);
        ranked.clear();
        for (gi, g) in groups.iter().enumerate() {
            let prune_at_sq = if prune_here {
                raw_bound_sq(bound, plan.norm, sqrt_w * g.radius())
            } else {
                f64::INFINITY
            };
            let mut lb_sq = lb_kim_fl_sq(self.query, g.representative());
            if lb_sq <= prune_at_sq {
                lb_sq = lb_sq.max(lb_keogh_sq(g.representative(), &plan.env_q, prune_at_sq));
            }
            if lb_sq > prune_at_sq {
                self.stats.groups_examined += 1;
                self.stats.groups_pruned += 1;
                continue;
            }
            ranked.push((gi, lb_sq));
        }
        // Group ids are distinct, so the order is total and an unstable
        // sort (which needs no buffer of its own) gives the stable one's.
        ranked.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));

        if let ScanBreadth::TopGroups(g) = self.opts.breadth {
            self.search_top_groups(plan, g.max(1), &ranked);
        } else {
            self.scan_ranked(plan, &ranked);
        }
        self.scratch.ranked = ranked;
    }

    /// Phase 2 of an exact search over the groups phase 1 kept, `ranked`
    /// by their lower bound.
    fn scan_ranked(&mut self, plan: &LengthPlan, ranked: &[(usize, f64)]) {
        let groups = self.base.groups_for_len(plan.len);
        let band = self.opts.band;
        let sqrt_w = plan.sqrt_w;

        // Suffix maximum of group radii in ranked order: the sound cut-off
        // for stopping the scan outright. (Radii vary per group, so the
        // per-group prune threshold `bound + √W·radius` is NOT monotone
        // along the lb-sorted order — the stop test must use the largest
        // radius still ahead.)
        let mut suffix_max_radius = std::mem::take(&mut self.scratch.suffix_max_radius);
        suffix_max_radius.clear();
        suffix_max_radius.resize(ranked.len(), 0.0);
        let mut acc: f64 = 0.0;
        for (i, &(gi, _)) in ranked.iter().enumerate().rev() {
            acc = acc.max(groups.at(gi).radius());
            suffix_max_radius[i] = acc;
        }

        // Phase 2: evaluate groups lazily in optimistic order. The bound
        // tightens after the very first member scan, so most later
        // representatives abandon their DTW within a few rows — the
        // paper's "early pruning of unpromising candidates".
        for (rank_idx, &(gi, lb_rep_sq)) in ranked.iter().enumerate() {
            let g = groups.at(gi);
            self.stats.groups_examined += 1;
            // A group of one is its member: one the filters drop needs
            // neither a bound nor a DTW.
            if g.is_lone() && !self.opts.admits(g.members().at(0)) {
                continue;
            }
            let bound = self.bound.get();
            let norm = plan.norm;
            // Every remaining group has lb ≥ lb_rep and radius ≤ the
            // suffix max, so none can hold a member within the bound.
            let stop_sq = raw_bound_sq(bound, norm, sqrt_w * suffix_max_radius[rank_idx]);
            if lb_rep_sq > stop_sq {
                self.stats.groups_pruned += ranked.len() - rank_idx;
                break;
            }
            // A member can only be within `bound` if the representative
            // is within bound + √W·radius (ED↔DTW bridge, DESIGN.md §2.2).
            let slack = sqrt_w * g.radius();
            let prune_at_sq = raw_bound_sq(bound, norm, slack);
            if lb_rep_sq > prune_at_sq {
                self.stats.groups_pruned += 1;
                continue;
            }
            // The live refresh folds bound tightenings published *during*
            // this DP (by a peer shard, or not at all in single-engine
            // mode) into the abandonment threshold, radius slack included.
            let shared = self.bound;
            let live = move || raw_bound_sq(shared.get(), norm, slack);
            let d_rep_sq = dtw_early_abandon_sq_scratch(
                self.query,
                g.representative(),
                band,
                prune_at_sq,
                None,
                Some(&live),
                &mut self.scratch.dtw,
            );
            if d_rep_sq.is_infinite() {
                self.stats.dtw_abandoned += 1;
                self.stats.groups_pruned += 1;
                continue;
            }
            self.stats.dtw_completed += 1;
            // A fresh reading: a peer may have tightened the bound.
            if d_rep_sq > live() {
                self.stats.groups_pruned += 1;
                continue;
            }
            if g.is_lone() {
                self.offer_lone(plan, gi, g.members().at(0), d_rep_sq);
            } else {
                self.scan_members(plan, gi);
            }
        }
        self.scratch.suffix_max_radius = suffix_max_radius;
    }

    /// The paper's §3.2 approximation: rank all representatives by DTW
    /// (lower-bound-assisted, early-abandoning against the current g-th
    /// best representative), then scan members of only the `g` best
    /// groups. Much cheaper when groups are large, at the cost of missing
    /// a best match that hides in a group with a slightly worse
    /// representative. A chosen group of one is offered its selection
    /// DTW; one the filters drop is passed over before it. The selection
    /// reads the shared bound only to stop once it is cancelled.
    fn search_top_groups(&mut self, plan: &LengthPlan, g: usize, ranked: &[(usize, f64)]) {
        let band = self.opts.band;
        let groups = self.base.groups_for_len(plan.len);
        // Top-g representatives by actual DTW. `selection` is a max-heap
        // on distance so the root is the current g-th best; the squared
        // distance rides along (group ids are unique, so it never breaks
        // a tie). `g` may come off the wire: reserve a little, grow as kept.
        let mut selection: BinaryHeap<(OrdF64, usize, OrdF64)> =
            BinaryHeap::with_capacity(g.min(TOP_K_RESERVE) + 1);
        for &(gi, lb_rep_sq) in ranked {
            self.stats.groups_examined += 1;
            let group = groups.at(gi);
            if group.is_lone() && !self.opts.admits(group.members().at(0)) {
                continue;
            }
            let gth = if selection.len() >= g {
                selection.peek().expect("non-empty").0 .0
            } else {
                f64::INFINITY
            };
            if lb_rep_sq.sqrt() >= gth || self.bound.get() == f64::NEG_INFINITY {
                // Sorted by lb ascending: nothing later can enter the
                // selection either. A cancelled query wants none.
                self.stats.groups_pruned += 1;
                break;
            }
            let d_sq = dtw_early_abandon_sq_scratch(
                self.query,
                group.representative(),
                band,
                gth * gth,
                None,
                None,
                &mut self.scratch.dtw,
            );
            if d_sq.is_infinite() {
                self.stats.dtw_abandoned += 1;
                self.stats.groups_pruned += 1;
                continue;
            }
            self.stats.dtw_completed += 1;
            selection.push((OrdF64(d_sq.sqrt()), gi, OrdF64(d_sq)));
            if selection.len() > g {
                selection.pop();
            }
        }
        // Scan the selected groups, nearest representative first.
        let mut chosen = selection.into_vec();
        chosen.sort();
        for (_, gi, OrdF64(d_sq)) in chosen {
            let group = groups.at(gi);
            if group.is_lone() {
                self.offer_lone(plan, gi, group.members().at(0), d_sq);
            } else {
                self.scan_members(plan, gi);
            }
        }
    }

    /// Offer `member`, alone in group `gi` — which [`Self::scan_members`]
    /// never sees — its representative's completed DTW `d_sq`: the
    /// representative's window is the member's, so the member counts as
    /// examined and its DTW once, as the representative's. A fresh
    /// reading of the bound gets the member tier's say first: a distance
    /// above it counts as abandoned.
    fn offer_lone(&mut self, plan: &LengthPlan, gi: usize, member: SubseqRef, d_sq: f64) {
        self.stats.members_examined += 1;
        if d_sq > self.bound_sq(plan) {
            self.stats.members_abandoned += 1;
            return;
        }
        self.offer(plan, gi, member, d_sq);
    }

    /// Scan one group's members into the k best, a block at a time
    /// (see the module docs): the zone test and then the L0 block test
    /// over [`SCAN_BLOCK`] slots against one reading of the bound, LB_Kim
    /// and LB_Keogh per survivor against a fresh one, and the survivors'
    /// early-abandoning DTWs [`DTW_LANES`] to a batch, offered to the k best
    /// in slot order.
    fn scan_members(&mut self, plan: &LengthPlan, gi: usize) {
        // Borrowed from the base, not from `self`: the scan below mutates
        // the searcher while it walks them.
        let base = self.base;
        let scanned = base.groups_for_len(plan.len).at(gi);
        let members = scanned.members();
        // The group's sketches, slot `i` sketching member `i`. Absent
        // (stale or unsynced) simply means the L0 tier passes everyone
        // through.
        let l0 = plan.l0.as_ref().zip(scanned.planes());
        let filtered = self.opts.has_filters();
        let mut batch = DtwBatch::default();
        for from in (0..members.len()).step_by(SCAN_BLOCK) {
            let to = (from + SCAN_BLOCK).min(members.len());
            // A member the series / window filter drops is counted by no
            // tier, so L0's rejects are the admitted slots it did not
            // pass. Only a block whose series the filter reaches needs a
            // pass to count them.
            let admitted = |series: std::ops::RangeInclusive<u32>| {
                if filtered && !self.opts.admits_every(series) {
                    let block = (from..to).map(|slot| members.at(slot));
                    block.filter(|&m| self.opts.admits(m)).count()
                } else {
                    to - from
                }
            };
            // Tier L0: reject from the quantised sketches alone — no f64
            // data is resolved for a candidate that dies here. A zone the
            // bound rejects is a block the block test would empty.
            self.scratch.survivors.clear();
            let admitted = match l0 {
                Some((qs, planes)) => {
                    let bound_sq = self.bound_sq(plan);
                    let zone = planes.zone(from / SCAN_BLOCK);
                    if qs.rejects_zone(&zone, bound_sq) {
                        let skipped = admitted(zone.tags());
                        self.stats.members_l0_pruned += skipped;
                        self.stats.members_zone_skipped += skipped;
                        continue;
                    }
                    qs.survivors(planes, from..to, bound_sq, &mut self.scratch.survivors);
                    Some(admitted(zone.tags()))
                }
                None => {
                    // Nothing is rejected, so nothing needs counting.
                    self.scratch.survivors.extend(from..to);
                    None
                }
            };
            let mut passed = 0;
            for i in 0..self.scratch.survivors.len() {
                let member = members.at(self.scratch.survivors[i]);
                if filtered && !self.opts.admits(member) {
                    continue;
                }
                passed += 1;
                let bound_sq = self.bound_sq(plan);
                let values = self
                    .dataset
                    .resolve(member)
                    .expect("base members resolve against their dataset");
                // Tier 1: LB_Kim — four touched points.
                if lb_kim_fl_sq(self.query, values) > bound_sq {
                    self.stats.members_kim_pruned += 1;
                    continue;
                }
                // Tier 2: LB_Keogh against the query envelope.
                if lb_keogh_sq(values, &plan.env_q, bound_sq).is_infinite() {
                    self.stats.members_lb_pruned += 1;
                    continue;
                }
                self.stats.members_examined += 1;
                if batch.push(member, values, bound_sq) {
                    self.run_batch(&mut batch, plan, gi);
                }
            }
            if let Some(admitted) = admitted {
                self.stats.members_l0_pruned += admitted - passed;
            }
        }
        self.run_batch(&mut batch, plan, gi);
    }

    /// Run the queued DTWs — one lane each, every lane abandoning against
    /// the bound its candidate was queued under, folded with the live
    /// shared bound per DP row — and offer the results to the k best in
    /// queue (= slot) order, tightening and publishing the bound as
    /// better candidates are found.
    fn run_batch(&mut self, batch: &mut DtwBatch<'a>, plan: &LengthPlan, gi: usize) {
        let queued = std::mem::take(&mut batch.len);
        if queued == 0 {
            return;
        }
        // Live member-scale refresh: the shared bound back on the raw
        // DTW scale at this length, re-read per DP row.
        let shared = self.bound;
        let norm = plan.norm;
        let live = move || raw_bound_sq(shared.get(), norm, 0.0);
        let mut d_sq = [0.0; DTW_LANES];
        dtw_lanes(
            self.query,
            &batch.values[..queued],
            self.opts.band,
            &batch.bound_sq[..queued],
            Some(&live),
            &mut self.scratch.dtw,
            &mut d_sq[..queued],
        );
        for (&member, &d_sq) in batch.members.iter().zip(&d_sq).take(queued) {
            if d_sq.is_infinite() {
                self.stats.dtw_abandoned += 1;
                self.stats.members_abandoned += 1;
                continue;
            }
            self.stats.dtw_completed += 1;
            self.offer(plan, gi, member, d_sq);
        }
    }

    /// Offer `member` of group `gi` at the completed squared DTW `d_sq`
    /// to the k best, publishing their k-th key to the shared bound.
    /// `BestK` keeps what sorts below its k-th (distance, window) and
    /// reports `∞` while it holds fewer than k, which the bound ignores.
    fn offer(&mut self, plan: &LengthPlan, gi: usize, member: SubseqRef, d_sq: f64) {
        let distance = d_sq.sqrt();
        let normalized = normalize(distance, self.query.len(), plan.len);
        let payload = (member, gi as u32, distance.to_bits());
        self.bound.tighten(self.best.offer(normalized, payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_grouping::persist::{save_v2, BaseSegment};
    use onex_grouping::{BaseBuilder, BaseConfig, RepresentativePolicy};
    use onex_tseries::gen::{clustered_dataset, SyntheticConfig};

    use crate::LengthSelection;

    /// A base decoded from its image beside its dataset prunes with the
    /// sketches the image carried; with L0 switched off every member goes
    /// through to the tiers behind it, and the answers are the same.
    #[test]
    fn a_decoded_base_prunes_with_l0_and_answers_as_without_it() {
        let cfg = SyntheticConfig {
            series: 24,
            len: 96,
            seed: 4,
        };
        let dataset = clustered_dataset(cfg, 3, 0.08);
        let config = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(1.0, 20, 22)
        };
        let (built, _) = BaseBuilder::new(config).unwrap().build(&dataset);
        let segment = BaseSegment::from_bytes(save_v2(&built)).unwrap();
        let decoded = segment.decode(&dataset).unwrap();
        let largest = decoded.iter().map(|(_, g)| g.cardinality()).max();
        assert!(largest > Some(64), "{largest:?}");

        let query: Vec<f64> = dataset.series(5).unwrap().values()[10..31]
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.02 * (i as f64).sin())
            .collect();
        let run = |opts: &QueryOptions| {
            let bound = SharedBound::new();
            Searcher::new(&dataset, &decoded, &query, opts, 5, &bound).run()
        };
        let (with, pruned) = run(&QueryOptions::default());
        let (without, passed) = run(&QueryOptions::default().without_l0());
        assert!(pruned.members_l0_pruned > 0, "{pruned:?}");
        assert_eq!(passed.members_l0_pruned, 0, "{passed:?}");
        assert_eq!(with.len(), 5);
        for (a, b) in with.iter().zip(&without) {
            assert_eq!(
                (a.subseq, a.distance.to_bits()),
                (b.subseq, b.distance.to_bits())
            );
        }
    }

    /// A candidate whose normalised distance equals the bound survives
    /// the conversion back to the raw scale, over random squared
    /// distances and length pairs — which the plain `bound · norm`,
    /// squared, does not always do.
    #[test]
    fn a_distance_equal_to_the_bound_is_never_pruned() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut plain_pruned = 0;
        for _ in 0..100_000 {
            let bits = next();
            // Squared distances from 1e-6 to 1e6, every mantissa.
            let d_sq = (1.0 + (bits >> 12) as f64 / (1u64 << 52) as f64)
                * 10f64.powi((bits % 13) as i32 - 6);
            let (n, len) = (1 + (next() % 400) as usize, 1 + (next() % 400) as usize);
            let norm = (n.max(len) as f64).sqrt();
            let bound = normalize(d_sq.sqrt(), n, len);
            assert!(
                d_sq <= raw_bound_sq(bound, norm, 0.0),
                "d² {d_sq:e} at ({n}, {len}) is pruned by its own bound"
            );
            let plain = bound * norm;
            plain_pruned += usize::from(d_sq > plain * plain);
        }
        assert!(plain_pruned > 0, "the widening is never needed");
        assert_eq!(raw_bound_sq(f64::INFINITY, 4.0, 1.0), f64::INFINITY);
        assert_eq!(raw_bound_sq(f64::NEG_INFINITY, 4.0, 1.0), f64::NEG_INFINITY);
    }

    /// Every window of a constant series ties at zero. A bound at zero
    /// keeps the ties — the smallest windows win — and a cancelled bound
    /// prunes every one of them before its DTW: under the default
    /// options, with L0 off, and in `TopGroups`' selection, whether it
    /// keeps one group or all of them.
    #[test]
    fn a_cancelled_bound_starts_no_dtw_where_a_zero_bound_keeps_every_tie() {
        // Three levels, one group each.
        let flat: Vec<_> = (0..10)
            .map(|i| {
                let level = 2.0 + (i % 3) as f64;
                onex_tseries::TimeSeries::new(format!("flat{i}"), vec![level; 80])
            })
            .collect();
        let dataset = Dataset::from_series(flat).unwrap();
        let config = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(0.5, 16, 16)
        };
        let (base, _) = BaseBuilder::new(config).unwrap().build(&dataset);
        let groups = base.groups_for_len(16).len();
        assert_eq!(groups, 3);
        let query = [2.0; 16];
        for opts in [
            QueryOptions::default(),
            QueryOptions::default().without_l0(),
            QueryOptions::default().top_groups(1),
            QueryOptions::default().top_groups(groups),
        ] {
            let run =
                |bound: &SharedBound| Searcher::new(&dataset, &base, &query, &opts, 5, bound).run();
            let zero = SharedBound::new();
            zero.tighten(0.0);
            let (kept, stats) = run(&zero);
            let windows: Vec<_> = kept
                .iter()
                .map(|m| (m.subseq.series, m.subseq.start))
                .collect();
            assert_eq!(
                windows,
                [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)],
                "{opts:?}"
            );
            assert!(stats.dtw_completed > 0, "{opts:?}: {stats:?}");

            let cancelled = SharedBound::new();
            cancelled.cancel();
            let (none, stats) = run(&cancelled);
            assert!(none.is_empty(), "{opts:?}");
            let started = stats.dtw_completed + stats.dtw_abandoned;
            assert_eq!(started, 0, "{opts:?}: {stats:?}");
            assert_eq!(cancelled.get(), f64::NEG_INFINITY);
        }
    }

    /// The shared bound is the only one the searcher reads, so a bound a
    /// peer published before the search prunes from the start — and
    /// still keeps every match within it, bit for bit.
    #[test]
    fn a_peer_bound_keeps_every_match_that_beats_it() {
        let cfg = SyntheticConfig {
            series: 16,
            len: 80,
            seed: 9,
        };
        let dataset = clustered_dataset(cfg, 3, 0.08);
        let config = BaseConfig {
            policy: RepresentativePolicy::Seed,
            ..BaseConfig::new(1.0, 14, 16)
        };
        let (base, _) = BaseBuilder::new(config).unwrap().build(&dataset);
        let query: Vec<f64> = dataset.series(3).unwrap().values()[20..35]
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.03 * (i as f64 * 0.8).cos())
            .collect();
        let opts = QueryOptions::default().lengths(LengthSelection::Nearest(3));
        let k = 6;
        let run =
            |bound: &SharedBound| Searcher::new(&dataset, &base, &query, &opts, k, bound).run();
        let fresh = SharedBound::new();
        let (all, _) = run(&fresh);
        assert_eq!(all.len(), k);
        assert_eq!(fresh.get().to_bits(), all[k - 1].normalized.to_bits());

        let peer = all[3].normalized;
        let bound = SharedBound::new();
        bound.tighten(peer);
        let (kept, _) = run(&bound);
        let below = |ms: &[Match]| -> Vec<_> {
            ms.iter()
                .filter(|m| m.normalized <= peer)
                .map(|m| (m.subseq, m.distance.to_bits()))
                .collect()
        };
        assert_eq!(below(&kept), below(&all));
        assert!(below(&all).len() >= 4, "{all:?}");
        assert!(bound.get() <= peer);
    }
}
