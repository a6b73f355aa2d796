//! The two-phase group search shared by best-match and k-similar queries.
//!
//! Phase 1 ranks every group of a candidate length by the DTW distance
//! between the query and the group representative. Phase 2 walks groups in
//! that order and scans their members, with three sound pruning layers
//! (paper §3.3 "optimization strategies ranging from indexing of time
//! series using bounding envelopes to early pruning of unpromising
//! candidates"):
//!
//! 1. **Group pruning** via the ED↔DTW bridge: a group whose
//!    representative distance minus `√W · radius` cannot beat the current
//!    k-th best contains no useful member.
//! 2. **L0 sketch prefilter** on the members: a lower bound computed from
//!    each member's quantised-PAA sketch ([`onex_grouping::sketch`]) —
//!    rejected candidates never even have their f64 data resolved.
//! 3. **LB_Kim** (four touched points) then **LB_Keogh** on each member
//!    against the query envelope.
//! 4. **Early-abandoning DTW** seeded with the current k-th best.
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
//! candidate. It takes 64 slots at a time and runs each tier over
//! what the tier before left:
//!
//! * **L0** is one block test over the group's plane-major sketches
//!   ([`QuerySketch::survivors`]: four slots per AVX2 step) against one
//!   reading of the bound, and yields the surviving slots.
//! * **LB_Kim / LB_Keogh** run on each survivor against a fresh reading
//!   of the bound; this is where a candidate's f64 data is first
//!   resolved.
//! * **DTW**: what passes queues until four candidates are pending, and
//!   the batch runs as one lane-parallel DP ([`dtw_lanes`]: one candidate
//!   per vector lane, each lane abandoning against the bound it was
//!   queued under, all lanes folding in the live shared bound per row).
//!   The queue is also flushed at the end of the group, so a batch never
//!   mixes lengths.
//!
//! Answers do not depend on the batching. A candidate is compared with a
//! bound that may be up to three candidates (DTW) or one block (L0)
//! *stale*, and a stale bound is a looser one — the bound only ever
//! tightens — so nothing the fresh bound would keep is lost; a candidate
//! the fresh bound would have dismissed merely reaches a later tier.
//! Completed distances are bit-identical however a DP was scheduled, and
//! results are offered to the heap in slot order through the same strict
//! `normalized < k-th best` test, so the heap sees the sequence of offers
//! the one-at-a-time scan produced, plus offers that test refuses: the
//! top-k, its distances and its tie-breaks are unchanged. Only the tier
//! counters can differ, by the few candidates that died one tier later.
//! (When peers tighten the shared bound mid-scan the offers depend on
//! timing, batched or not; the merged answer is exact up to ties by the
//! bound's own argument, below.)
//!
//! A group of one never reaches the scan. Its representative is its
//! member's window, read in place, and phase 2 has already run that
//! window's exact DTW against the threshold the member tier would use
//! (`bound + √W·0`). So that value is the member's: it meets the member
//! tier's test against a fresh reading of the bound, then the heap's.
//! The member counts as examined, and its DTW once, as the
//! representative's. It needs no sketch, which is why a group of one
//! keeps none; and one the series / window filters drop is passed over
//! before its bound and its DTW.
//!
//! Every prune threshold flows through one **query-global bound**: the
//! k-th best *normalised* distance known so far, kept in a
//! [`SharedBound`] alongside the local heap. The searcher consults it
//! before each group and member (so a tight bound discovered at one
//! candidate length prunes all later lengths), feeds it *live* into the
//! early-abandoning DP (so it can abort mid-computation), and publishes
//! every improvement back. When several searchers share one bound — the
//! sharded engine runs one per shard — a discovery by any of them
//! immediately shrinks all the others' searches; results stay exact up
//! to distance ties (see `onex_api::bound` for the soundness argument).
//!
//! Soundness of (1) relies on the radius being certified, which holds
//! under the `Seed` representative policy; under `Centroid` the radius is
//! the observed insertion maximum and pruning is near-exact (the paper's
//! own accuracy regime). `tests/exactness.rs` verifies the `Seed` claim
//! against the exhaustive scan.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use onex_api::SharedBound;
use onex_distance::bounds::warp_multiplicity;
use onex_distance::dtw::{dtw_early_abandon_sq_scratch, DtwScratch};
use onex_distance::kernels::{dtw_lanes, DTW_LANES};
use onex_distance::lb::{lb_keogh_sq, lb_kim_fl_sq};
use onex_distance::{dtw_with_path, Envelope, QuerySketch};
use onex_grouping::{GroupId, OnexBase};
use onex_tseries::{Dataset, SubseqRef};

use crate::options::ScanBreadth;
use crate::{LengthSelection, Match, QueryOptions, QueryStats};

/// Total-ordered f64 for heap keys.
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

/// A candidate in the k-best heap, ordered by *descending* normalised
/// distance so the heap top is the worst kept candidate.
struct HeapEntry {
    normalized: f64,
    distance: f64,
    subseq: SubseqRef,
    group: GroupId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.normalized == other.normalized && self.subseq == other.subseq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.normalized
            .total_cmp(&other.normalized)
            .then_with(|| self.subseq.cmp(&other.subseq))
    }
}

/// Cross-length ranking value: per-sample RMS-style normalisation, the
/// query-side counterpart of `BaseConfig::length_normalized`.
#[inline]
pub fn normalize(distance: f64, query_len: usize, candidate_len: usize) -> f64 {
    distance / (query_len.max(candidate_len) as f64).sqrt()
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
    env_q: Option<Envelope>,
    /// Query-side L0 sketch against this length's frozen quantisation
    /// parameters — the tier that rejects members from bytes alone,
    /// before their f64 data is resolved.
    l0: Option<QuerySketch>,
}

/// Slots per L0 block test, and so per reading of the bound at that tier.
const SCAN_BLOCK: usize = 64;

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

pub(crate) struct Searcher<'a> {
    dataset: &'a Dataset,
    base: &'a OnexBase,
    query: &'a [f64],
    opts: &'a QueryOptions,
    /// The query-global pruning bound on the *normalised* distance scale:
    /// seeded at `∞`, tightened to the k-th best whenever the heap fills
    /// or improves, observed before every group/member and mid-DTW.
    /// Callers that fan one query across several searchers (the sharded
    /// engine) pass the same bound to all of them.
    bound: &'a SharedBound,
    /// DP rows shared by every DTW of this query (members and
    /// representatives alike), so the scan allocates none per candidate.
    scratch: DtwScratch,
    /// The slots one L0 block test passed, kept across groups so the
    /// scan allocates none per group either.
    survivors: Vec<usize>,
    pub stats: QueryStats,
}

impl<'a> Searcher<'a> {
    pub fn new(
        dataset: &'a Dataset,
        base: &'a OnexBase,
        query: &'a [f64],
        opts: &'a QueryOptions,
        bound: &'a SharedBound,
    ) -> Self {
        Searcher {
            dataset,
            base,
            query,
            opts,
            bound,
            scratch: DtwScratch::default(),
            survivors: Vec::with_capacity(SCAN_BLOCK),
            stats: QueryStats::default(),
        }
    }

    /// Candidate lengths in the order they are searched (nearest the query
    /// length first, so bounds tighten as early as possible).
    pub fn candidate_lengths(&self) -> Vec<usize> {
        let n = self.query.len();
        match self.opts.lengths {
            LengthSelection::Exact => {
                if self.base.groups_for_len(n).is_empty() {
                    Vec::new()
                } else {
                    vec![n]
                }
            }
            LengthSelection::Nearest(k) => self.base.nearest_lengths(n, k),
            LengthSelection::Range(lo, hi) => {
                let mut lens: Vec<usize> = self
                    .base
                    .lengths()
                    .filter(|&l| l >= lo && l <= hi)
                    .collect();
                lens.sort_by_key(|&l| (l.abs_diff(n), l));
                lens
            }
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
        let env_q = self
            .opts
            .lb_keogh
            .then(|| Envelope::build_across(self.query, len, band.radius(n, len)));
        // The L0 sketch shares the envelope (its bound is a coarsening of
        // LB_Keogh + LB_Kim), so it rides on the same gate.
        let l0 = match &env_q {
            Some(env) if self.opts.l0_prefilter => self
                .base
                .sketches()
                .for_len(len)
                .map(|ls| QuerySketch::new(self.query, env, ls.params())),
            _ => None,
        };
        LengthPlan {
            len,
            norm: (n.max(len) as f64).sqrt(),
            sqrt_w: (mult as f64).sqrt(),
            env_q,
            l0,
        }
    }

    /// Run the search and return up to `k` matches, best first. The
    /// caller ([`crate::Onex::k_best`]) has already validated `k` and the
    /// query through `onex_api::validate_query`, so malformed input never
    /// reaches this hot path.
    pub fn run(&mut self, k: usize) -> Vec<Match> {
        debug_assert!(k > 0 && !self.query.is_empty(), "caller validates input");
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);

        for len in self.candidate_lengths() {
            let plan = self.plan(len);
            self.search_length(&plan, k, &mut heap);
        }

        heap.into_sorted_vec()
            .into_iter()
            .map(|e| self.materialize(e))
            .collect()
    }

    /// The current pruning bound on the *normalised* scale: the tighter
    /// of the local k-th best and the shared query-global bound.
    fn normalized_bound(&self, heap: &BinaryHeap<HeapEntry>, k: usize) -> f64 {
        let local = if heap.len() < k {
            f64::INFINITY
        } else {
            heap.peek().expect("heap non-empty").normalized
        };
        local.min(self.bound.get())
    }

    /// The current pruning bound at a given candidate length, on the raw
    /// DTW scale: a candidate can only matter if it beats the k-th best
    /// normalised distance known anywhere (this searcher or a peer
    /// sharing the bound).
    fn raw_bound(&self, heap: &BinaryHeap<HeapEntry>, k: usize, plan: &LengthPlan) -> f64 {
        let b = self.normalized_bound(heap, k);
        if b.is_finite() {
            b * plan.norm
        } else {
            f64::INFINITY
        }
    }

    /// [`Self::raw_bound`] squared (`∞` stays `∞`) — the scale the member
    /// tiers compare on.
    fn bound_sq(&self, heap: &BinaryHeap<HeapEntry>, k: usize, plan: &LengthPlan) -> f64 {
        let bound = self.raw_bound(heap, k, plan);
        bound * bound
    }

    fn search_length(&mut self, plan: &LengthPlan, k: usize, heap: &mut BinaryHeap<HeapEntry>) {
        let groups = self.base.groups_for_len(plan.len);
        if groups.is_empty() {
            return;
        }
        let band = self.opts.band;
        let sqrt_w = plan.sqrt_w;

        // Phase 1: rank groups by a cheap *lower bound* on the
        // representative distance — LB_KimFL strengthened by LB_Keogh.
        // Ascending lower bound is an optimistic-first order, and because
        // it bounds the true distance from below it also licenses a sound
        // early `break` in phase 2. Once the bound is finite (an earlier
        // length of this query, or a peer shard) a group whose lower bound
        // clears `bound + √W·radius` is pruned here, by the test phase 2
        // would apply to it, and LB_Keogh abandons at that threshold.
        // (`TopGroups` selects by representative distance alone, so its
        // ranking keeps every group.)
        let bound = self.raw_bound(heap, k, plan);
        let prune_here =
            self.opts.prune_groups && bound.is_finite() && self.opts.breadth == ScanBreadth::Exact;
        let mut ranked: Vec<(usize, f64)> = Vec::with_capacity(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            let prune_at_sq = if prune_here {
                let at = bound + sqrt_w * g.radius();
                at * at
            } else {
                f64::INFINITY
            };
            let mut lb_sq = lb_kim_fl_sq(self.query, g.representative());
            if let Some(env) = &plan.env_q {
                if lb_sq <= prune_at_sq {
                    lb_sq = lb_sq.max(lb_keogh_sq(g.representative(), env, prune_at_sq));
                }
            }
            if lb_sq > prune_at_sq {
                self.stats.groups_examined += 1;
                self.stats.groups_pruned += 1;
                continue;
            }
            ranked.push((gi, lb_sq.sqrt()));
        }
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));

        if let ScanBreadth::TopGroups(g) = self.opts.breadth {
            self.search_top_groups(plan, k, g.max(1), heap, &ranked);
            return;
        }

        // Suffix maximum of group radii in ranked order: the sound cut-off
        // for stopping the scan outright. (Radii vary per group, so the
        // per-group prune threshold `bound + √W·radius` is NOT monotone
        // along the lb-sorted order — the stop test must use the largest
        // radius still ahead.)
        let mut suffix_max_radius = vec![0.0f64; ranked.len()];
        let mut acc: f64 = 0.0;
        for (i, &(gi, _)) in ranked.iter().enumerate().rev() {
            acc = acc.max(groups.at(gi).radius());
            suffix_max_radius[i] = acc;
        }

        // Phase 2: evaluate groups lazily in optimistic order. The bound
        // tightens after the very first member scan, so most later
        // representatives abandon their DTW within a few rows — the
        // paper's "early pruning of unpromising candidates".
        for (rank_idx, &(gi, lb_rep)) in ranked.iter().enumerate() {
            let g = groups.at(gi);
            self.stats.groups_examined += 1;
            // A group of one is its member: one the filters drop needs
            // neither a bound nor a DTW.
            if g.is_lone() && !self.opts.admits(g.members().at(0)) {
                continue;
            }
            let bound = self.raw_bound(heap, k, plan);
            if self.opts.prune_groups && bound.is_finite() {
                // Every remaining group has lb ≥ lb_rep and radius ≤ the
                // suffix max, so none can hold a member below the bound.
                if lb_rep >= bound + sqrt_w * suffix_max_radius[rank_idx] {
                    self.stats.groups_pruned += ranked.len() - rank_idx;
                    break;
                }
            }
            // A member can only beat `bound` if the representative is
            // within bound + √W·radius (ED↔DTW bridge, DESIGN.md §2.2).
            let prune_at = if self.opts.prune_groups && bound.is_finite() {
                bound + sqrt_w * g.radius()
            } else {
                f64::INFINITY
            };
            if lb_rep >= prune_at {
                self.stats.groups_pruned += 1;
                continue;
            }
            // The live refresh folds bound tightenings published *during*
            // this DP (by a peer shard, or not at all in single-engine
            // mode) into the abandonment threshold, radius slack included.
            let shared = self.bound;
            let (norm, radius) = (plan.norm, g.radius());
            let live = move || {
                let b = shared.get();
                if b.is_finite() {
                    let at = b * norm + sqrt_w * radius;
                    at * at
                } else {
                    f64::INFINITY
                }
            };
            let live_ref: Option<&dyn Fn() -> f64> =
                self.opts.prune_groups.then_some(&live as &dyn Fn() -> f64);
            let d_rep_sq = dtw_early_abandon_sq_scratch(
                self.query,
                g.representative(),
                band,
                prune_at * prune_at,
                None,
                live_ref,
                &mut self.scratch,
            );
            if d_rep_sq.is_infinite() {
                self.stats.dtw_abandoned += 1;
                self.stats.groups_pruned += 1;
                continue;
            }
            self.stats.dtw_completed += 1;
            let d_rep = d_rep_sq.sqrt();
            let bound = self.raw_bound(heap, k, plan);
            if self.opts.prune_groups && d_rep - sqrt_w * g.radius() >= bound {
                self.stats.groups_pruned += 1;
                continue;
            }
            if g.is_lone() {
                self.offer_lone(plan, k, gi, g.members().at(0), d_rep_sq, heap);
            } else {
                self.scan_members(plan, k, gi, heap);
            }
        }
    }

    /// The paper's §3.2 approximation: rank all representatives by DTW
    /// (lower-bound-assisted, early-abandoning against the current g-th
    /// best representative), then scan members of only the `g` best
    /// groups. Much cheaper when groups are large, at the cost of missing
    /// a best match that hides in a group with a slightly worse
    /// representative. A chosen group of one is offered its selection
    /// DTW.
    fn search_top_groups(
        &mut self,
        plan: &LengthPlan,
        k: usize,
        g: usize,
        heap: &mut BinaryHeap<HeapEntry>,
        ranked: &[(usize, f64)],
    ) {
        let band = self.opts.band;
        let groups = self.base.groups_for_len(plan.len);
        // Top-g representatives by actual DTW. `selection` is a max-heap
        // on distance so the root is the current g-th best; the squared
        // distance rides along (group ids are unique, so it never breaks
        // a tie).
        let mut selection: BinaryHeap<(OrdF64, usize, OrdF64)> = BinaryHeap::with_capacity(g + 1);
        for &(gi, lb_rep) in ranked {
            self.stats.groups_examined += 1;
            let gth = if selection.len() >= g {
                selection.peek().expect("non-empty").0 .0
            } else {
                f64::INFINITY
            };
            if lb_rep >= gth {
                // Sorted by lb ascending: nothing later can enter the
                // selection either.
                self.stats.groups_pruned += 1;
                break;
            }
            let d_sq = dtw_early_abandon_sq_scratch(
                self.query,
                groups.at(gi).representative(),
                band,
                gth * gth,
                None,
                None,
                &mut self.scratch,
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
            if !group.is_lone() {
                self.scan_members(plan, k, gi, heap);
            } else if self.opts.admits(group.members().at(0)) {
                self.offer_lone(plan, k, gi, group.members().at(0), d_sq, heap);
            }
        }
    }

    /// Offer `member`, alone in group `gi` — which [`Self::scan_members`]
    /// never sees — its representative's completed DTW `d_sq`: the
    /// representative's window is the member's, so the member counts as
    /// examined and its DTW once, as the representative's. A fresh
    /// reading of the bound gets the member tier's say first: a distance
    /// above it counts as abandoned.
    fn offer_lone(
        &mut self,
        plan: &LengthPlan,
        k: usize,
        gi: usize,
        member: SubseqRef,
        d_sq: f64,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        self.stats.members_examined += 1;
        if d_sq > self.bound_sq(heap, k, plan) {
            self.stats.members_abandoned += 1;
            return;
        }
        self.offer(plan, k, gi, member, d_sq, heap);
    }

    /// Scan one group's members into the k-best heap, a block at a time
    /// (see the module docs): the L0 block test over [`SCAN_BLOCK`] slots
    /// against one reading of the bound, LB_Kim and LB_Keogh per survivor
    /// against a fresh one, and the survivors' early-abandoning DTWs
    /// [`DTW_LANES`] to a batch, offered to the heap in slot order.
    fn scan_members(
        &mut self,
        plan: &LengthPlan,
        k: usize,
        gi: usize,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
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
            // Tier L0: reject from the quantised sketches alone — no f64
            // data is resolved for a candidate that dies here.
            self.survivors.clear();
            match l0 {
                Some((qs, planes)) => {
                    let bound_sq = self.bound_sq(heap, k, plan);
                    qs.survivors(planes, from..to, bound_sq, &mut self.survivors);
                }
                None => self.survivors.extend(from..to),
            }
            // A member the series / window filter drops is counted by no
            // tier, so L0's rejects are the admitted slots it did not
            // pass.
            let admitted = if filtered {
                let block = (from..to).map(|slot| members.at(slot));
                block.filter(|&m| self.opts.admits(m)).count()
            } else {
                to - from
            };
            let mut passed = 0;
            for i in 0..self.survivors.len() {
                let member = members.at(self.survivors[i]);
                if filtered && !self.opts.admits(member) {
                    continue;
                }
                passed += 1;
                let bound_sq = self.bound_sq(heap, k, plan);
                let values = self
                    .dataset
                    .resolve(member)
                    .expect("base members resolve against their dataset");
                if let Some(env) = &plan.env_q {
                    // Tier 1: LB_Kim — four touched points.
                    if lb_kim_fl_sq(self.query, values) > bound_sq {
                        self.stats.members_kim_pruned += 1;
                        continue;
                    }
                    // Tier 2: LB_Keogh against the query envelope.
                    if lb_keogh_sq(values, env, bound_sq).is_infinite() {
                        self.stats.members_lb_pruned += 1;
                        continue;
                    }
                }
                self.stats.members_examined += 1;
                if batch.push(member, values, bound_sq) {
                    self.run_batch(&mut batch, plan, k, gi, heap);
                }
            }
            self.stats.members_l0_pruned += admitted - passed;
        }
        self.run_batch(&mut batch, plan, k, gi, heap);
    }

    /// Run the queued DTWs — one lane each, every lane abandoning against
    /// the bound its candidate was queued under, folded with the live
    /// shared bound per DP row — and offer the results to the heap in
    /// queue (= slot) order, tightening and publishing the bound as
    /// better candidates are found.
    fn run_batch(
        &mut self,
        batch: &mut DtwBatch<'a>,
        plan: &LengthPlan,
        k: usize,
        gi: usize,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        let queued = std::mem::take(&mut batch.len);
        if queued == 0 {
            return;
        }
        // Live member-scale refresh: the shared bound back on the raw
        // DTW scale at this length, re-read per DP row.
        let shared = self.bound;
        let norm = plan.norm;
        let live = move || {
            let b = shared.get();
            if b.is_finite() {
                let raw = b * norm;
                raw * raw
            } else {
                f64::INFINITY
            }
        };
        let mut d_sq = [0.0; DTW_LANES];
        dtw_lanes(
            self.query,
            &batch.values[..queued],
            self.opts.band,
            &batch.bound_sq[..queued],
            Some(&live),
            &mut self.scratch,
            &mut d_sq[..queued],
        );
        for (&member, &d_sq) in batch.members.iter().zip(&d_sq).take(queued) {
            if d_sq.is_infinite() {
                self.stats.dtw_abandoned += 1;
                self.stats.members_abandoned += 1;
                continue;
            }
            self.stats.dtw_completed += 1;
            self.offer(plan, k, gi, member, d_sq, heap);
        }
    }

    /// Offer `member` of group `gi` at the completed squared DTW `d_sq`
    /// to the heap, tightening and publishing the bound when it gets in.
    fn offer(
        &mut self,
        plan: &LengthPlan,
        k: usize,
        gi: usize,
        member: SubseqRef,
        d_sq: f64,
        heap: &mut BinaryHeap<HeapEntry>,
    ) {
        let distance = d_sq.sqrt();
        let normalized = normalize(distance, self.query.len(), plan.len);
        // Strict improvement over the k-th keeps ties deterministic
        // (first discovered wins).
        if heap.len() < k || normalized < heap.peek().expect("heap non-empty").normalized {
            let group = GroupId {
                len: plan.len as u32,
                index: gi as u32,
            };
            heap.push(HeapEntry {
                normalized,
                distance,
                subseq: member,
                group,
            });
            if heap.len() > k {
                heap.pop();
            }
            // Publish: once the heap holds k entries its worst key is
            // a sound global upper bound on the merged k-th best.
            if heap.len() == k {
                self.bound
                    .tighten(heap.peek().expect("heap non-empty").normalized);
            }
        }
    }

    fn materialize(&self, e: HeapEntry) -> Match {
        let values = self
            .dataset
            .resolve(e.subseq)
            .expect("base members resolve against their dataset");
        let (_, path) = dtw_with_path(self.query, values, self.opts.band);
        let series_name = self
            .dataset
            .series(e.subseq.series)
            .expect("member series exists")
            .name()
            .to_owned();
        Match {
            subseq: e.subseq,
            series_name,
            distance: e.distance,
            normalized: e.normalized,
            group: e.group,
            path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_grouping::persist::{save_v2, BaseSegment};
    use onex_grouping::{BaseBuilder, BaseConfig, RepresentativePolicy};
    use onex_tseries::gen::{clustered_dataset, SyntheticConfig};

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
        let mut decoded = segment.empty_base(&dataset).unwrap();
        for len in built.lengths() {
            assert!(segment.load_length(&mut decoded, len, &dataset).unwrap());
        }
        let largest = decoded.iter().map(|(_, g)| g.cardinality()).max();
        assert!(largest > Some(64), "{largest:?}");

        let query: Vec<f64> = dataset.series(5).unwrap().values()[10..31]
            .iter()
            .enumerate()
            .map(|(i, v)| v + 0.02 * (i as f64).sin())
            .collect();
        let run = |opts: &QueryOptions| {
            let bound = SharedBound::new();
            let mut searcher = Searcher::new(&dataset, &decoded, &query, opts, &bound);
            let matches = searcher.run(5);
            (matches, searcher.stats)
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
}
