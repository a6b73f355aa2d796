//! Pluggable nearest-representative lookup for base construction.
//!
//! [`crate::BaseBuilder`] assigns every subsequence to the nearest
//! existing group whose representative lies within the admission radius
//! (`ST/2`). The reference implementation is a linear scan over all
//! representatives — O(groups) per subsequence, O(n·groups) for a whole
//! construction run, which makes preprocessing the slowest path in the
//! system precisely when the base barely compacts (many groups). The
//! paper treats preprocessing as an interactive, one-click step
//! ("loading a new dataset triggers the preprocessing of this data at
//! the server side"), so this latency is user-facing.
//!
//! [`RepresentativeIndex`] abstracts the lookup so an exact metric index
//! ([`VpTreeIndex`]) can answer the same question in roughly logarithmic
//! time with **identical results**. The contract is exact, not
//! approximate: the winner is defined as the representative minimising
//! `(d², group id)` lexicographically among those with
//! `d² ≤ radius²`, where `d²` is the same floating-point sum the linear
//! scan computes (sequential accumulation, as in
//! [`onex_distance::ed::ed_sq`]). Every implementation must return that
//! winner, so construction through any index produces a byte-identical
//! base — the equivalence property tests in `tests/properties.rs` and
//! bench experiment E12 both check this.
//!
//! Which implementation runs is an execution decision, not a semantic
//! one, selected by [`IndexPolicy`] on [`crate::BaseConfig`].
//!
//! A batch build creates its indexes and drops them with the call. An
//! incremental extension instead runs against a [`ResidentIndex`] — the
//! per-length indexes of one base, seeded from its groups on first use
//! and then kept in step with every admission — so that a writer which
//! keeps it alive between extensions pays per appended window, not per
//! existing group.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::Arc;

use onex_api::OnexError;
use onex_distance::ed::{ed_early_abandon_sq, ed_sq};

use crate::SimilarityGroup;

/// Work accounting for one construction run, mirroring the query-side
/// `onex_api::BackendStats` triple so construction effort can be compared
/// across index policies the same way query effort is compared across
/// backends. `examined` and `pruned` are disjoint: a representative is
/// either dismissed by an index bound before any distance computation
/// (pruned) or actually compared against (examined), never both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexWork {
    /// Representatives whose distance to a subsequence was computed
    /// (including early-abandoned comparisons, which still start the sum).
    pub examined: usize,
    /// Representatives dismissed by an index bound without starting a
    /// distance computation (subtrees cut by the triangle inequality).
    pub pruned: usize,
    /// Euclidean-distance evaluations started, including the index's own
    /// maintenance work (tree rebuilds), so policies are compared on
    /// total effort rather than lookup effort alone.
    pub distance_calls: usize,
}

impl std::ops::AddAssign for IndexWork {
    fn add_assign(&mut self, rhs: IndexWork) {
        self.examined += rhs.examined;
        self.pruned += rhs.pruned;
        self.distance_calls += rhs.distance_calls;
    }
}

/// How [`crate::BaseBuilder`] looks up the nearest representative during
/// construction. Every policy produces a byte-identical base; they differ
/// only in construction time and distance-call count (experiment E12
/// measures both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexPolicy {
    /// Decide per subsequence length from what the builder observes —
    /// the groups already there, the lookups about to run, and whether
    /// the index outlives the call: the VP-tree when it repays its
    /// maintenance, the linear scan otherwise. The default.
    #[default]
    Auto,
    /// Always scan every representative — the reference implementation.
    Linear,
    /// Always use the exact VP-tree index over representatives.
    VpTree,
}

/// Lengths with at least this many subsequences get the VP-tree under
/// [`IndexPolicy::Auto`]; below it the linear scan's lower constant wins.
const AUTO_MIN_SUBSEQUENCES: usize = 512;

impl IndexPolicy {
    /// Whether the index for one length should be the VP-tree, given the
    /// `groups` it starts from, the `lookups` the builder is about to
    /// perform against it, and whether it is `lasting` (kept for later
    /// extensions) or dropped with this call.
    fn wants_tree(self, groups: usize, lookups: usize, lasting: bool) -> bool {
        match self {
            IndexPolicy::Linear => false,
            IndexPolicy::VpTree => true,
            IndexPolicy::Auto => {
                // Enough lookups to amortise incremental maintenance:
                // the rule a batch build (no groups yet) decides by.
                lookups >= AUTO_MIN_SUBSEQUENCES
                    // A lasting index serves every later extension too,
                    // so a column big enough for a tree gets one however
                    // small this increment is.
                    || (lasting && groups >= AUTO_MIN_SUBSEQUENCES)
                    // One bulk load costs about groups·log₂(groups)
                    // distance calls, the linear scan lookups·groups.
                    || (groups >= 2 && lookups as f64 > (groups as f64).log2())
            }
        }
    }

    /// Instantiate the index a batch build of one length uses, given how
    /// many nearest-representative lookups it will perform against it.
    pub(crate) fn create(self, expected_lookups: usize) -> Box<dyn RepresentativeIndex> {
        make_index(self.wants_tree(0, expected_lookups, false))
    }

    /// Stable lowercase name (`auto` / `linear` / `vptree`), the inverse
    /// of [`IndexPolicy::from_str`].
    pub fn label(&self) -> &'static str {
        match self {
            IndexPolicy::Auto => "auto",
            IndexPolicy::Linear => "linear",
            IndexPolicy::VpTree => "vptree",
        }
    }
}

impl std::fmt::Display for IndexPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for IndexPolicy {
    type Err = OnexError;

    /// Parse a policy name as accepted by the bench harness and server
    /// configuration (`auto`, `linear`, `vptree`).
    ///
    /// # Errors
    /// [`OnexError::InvalidConfig`] naming the offending value.
    fn from_str(s: &str) -> Result<Self, OnexError> {
        match s {
            "auto" => Ok(IndexPolicy::Auto),
            "linear" => Ok(IndexPolicy::Linear),
            "vptree" => Ok(IndexPolicy::VpTree),
            other => Err(OnexError::invalid_config(format!(
                "unknown index policy {other:?}; one of auto, linear, vptree"
            ))),
        }
    }
}

fn make_index(tree: bool) -> Box<dyn RepresentativeIndex> {
    if tree {
        Box::new(VpTreeIndex::new())
    } else {
        Box::new(LinearScan)
    }
}

/// Nearest-representative lookup used by the builder's admission rule.
///
/// The contract every implementation must honour exactly:
///
/// * [`RepresentativeIndex::nearest_within`] returns the group whose
///   representative minimises `(d², group id)` lexicographically among
///   those with `d² ≤ radius_sq`, with `d²` computed by sequential
///   accumulation ([`onex_distance::ed::ed_sq`] semantics) — or `None`
///   when no representative is within the radius.
/// * The builder calls [`RepresentativeIndex::insert`] exactly once per
///   newly seeded group, with group ids issued densely from 0.
/// * The builder calls [`RepresentativeIndex::update`] after every
///   admission that moved a representative (the `Centroid` policy).
///
/// Representatives are handed over as their shared storage, so a
/// stateful index keeps a pointer, not a copy. Indexes are `Send`: a
/// [`ResidentIndex`] lives inside an engine that threads share.
pub trait RepresentativeIndex: Send {
    /// The nearest representative within `radius_sq` of `xs` (squared
    /// Euclidean), ties broken towards the lowest group id. `groups` is
    /// the builder's live group list (stateless implementations read
    /// representatives from it; stateful ones keep their own copies).
    fn nearest_within(
        &mut self,
        xs: &[f64],
        radius_sq: f64,
        groups: &[SimilarityGroup],
        work: &mut IndexWork,
    ) -> Option<(usize, f64)>;

    /// Register a newly seeded group.
    fn insert(&mut self, group: usize, representative: &Arc<[f64]>, work: &mut IndexWork);

    /// Note that a group's representative moved (centroid drift).
    fn update(&mut self, group: usize, representative: &Arc<[f64]>, work: &mut IndexWork);

    /// Register all of an existing base's groups at once (the incremental
    /// `extend` path); equivalent to `insert` in id order, but lets tree
    /// indexes bulk-load instead of trickling through their buffers.
    fn seed(&mut self, groups: &[SimilarityGroup], work: &mut IndexWork) {
        for (gi, g) in groups.iter().enumerate() {
            self.insert(gi, g.shared_representative(), work);
        }
    }

    /// Stable implementation name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------
// Linear scan — the reference implementation.
// ---------------------------------------------------------------------

/// The reference lookup: scan every representative with an
/// early-abandoning ED whose bound tightens to the best candidate seen so
/// far. O(groups) per call; keeps no state of its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinearScan;

impl RepresentativeIndex for LinearScan {
    fn nearest_within(
        &mut self,
        xs: &[f64],
        radius_sq: f64,
        groups: &[SimilarityGroup],
        work: &mut IndexWork,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut bound_sq = radius_sq;
        for (gi, g) in groups.iter().enumerate() {
            work.examined += 1;
            work.distance_calls += 1;
            let d_sq = ed_early_abandon_sq(xs, g.representative(), bound_sq);
            if d_sq.is_finite() && best.is_none_or(|(_, b)| d_sq < b) {
                best = Some((gi, d_sq));
                bound_sq = d_sq;
            }
        }
        best
    }

    fn insert(&mut self, _group: usize, _representative: &Arc<[f64]>, _work: &mut IndexWork) {}

    fn update(&mut self, _group: usize, _representative: &Arc<[f64]>, _work: &mut IndexWork) {}

    fn seed(&mut self, _groups: &[SimilarityGroup], _work: &mut IndexWork) {}

    fn name(&self) -> &'static str {
        "linear"
    }
}

// ---------------------------------------------------------------------
// VP-tree forest — exact metric index over representatives.
// ---------------------------------------------------------------------

/// Entries flushed from the buffer into a tree per batch.
const BUFFER_CAP: usize = 32;
/// Subtrees at most this large are stored flat and scanned directly.
const LEAF_CAP: usize = 16;

/// Safety margin added to triangle-inequality bounds so floating-point
/// rounding of the (near-exact) computed distances can never prune the
/// true winner. Costs a sliver of pruning power, buys byte-identical
/// equivalence with the linear scan.
fn slack(scale: f64) -> f64 {
    1e-9 * (scale.abs() + 1.0)
}

/// One indexed representative: the group it belongs to, a snapshot of the
/// representative's values at index time, and the version of that
/// snapshot. A snapshot is *live* while its version matches the group's
/// current version; centroid drift bumps the version, turning every older
/// snapshot stale (skipped by searches, dropped at the next rebuild).
///
/// The snapshot shares the group's storage: a frozen (`Seed`)
/// representative is never copied, and a drifting one is copied by the
/// group's own copy-on-write when it next moves, which is exactly what
/// leaves this entry holding the values it was indexed under.
#[derive(Debug, Clone)]
struct Entry {
    gid: u32,
    version: u32,
    rep: Arc<[f64]>,
}

#[derive(Debug)]
enum Node {
    Leaf(Vec<Entry>),
    Ball {
        vp: Entry,
        /// Entries in this subtree including the vantage point.
        size: usize,
        /// Distance bounds (root scale) from `vp` to the inside child.
        in_lo: f64,
        in_hi: f64,
        /// Distance bounds (root scale) from `vp` to the outside child.
        out_lo: f64,
        out_hi: f64,
        inside: Box<Node>,
        outside: Box<Node>,
    },
}

impl Node {
    fn size(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Ball { size, .. } => *size,
        }
    }
}

/// An exact VP-tree index over group representatives.
///
/// Because representatives *move* under the `Centroid` policy and new
/// groups are seeded constantly, a single static tree would be rebuilt
/// into uselessness. Instead this is a small forest maintained with the
/// logarithmic (binary-counter) method: inserts and updates land in a
/// bounded buffer that is scanned linearly; when the buffer fills, it is
/// merged with every tree no larger than the batch and rebuilt into one
/// tree, so each entry participates in O(log n) rebuilds and a lookup
/// searches the buffer plus O(log n) trees. Stale snapshots (superseded
/// by centroid drift) are skipped during search and dropped at merges.
#[derive(Debug, Default)]
pub struct VpTreeIndex {
    trees: Vec<Node>,
    buffer: Vec<Entry>,
    /// Current snapshot version per group id.
    versions: Vec<u32>,
}

impl VpTreeIndex {
    /// An empty index.
    pub fn new() -> Self {
        VpTreeIndex::default()
    }

    fn upsert_buffer(&mut self, entry: Entry, work: &mut IndexWork) {
        if let Some(slot) = self.buffer.iter_mut().find(|b| b.gid == entry.gid) {
            *slot = entry;
            return;
        }
        self.buffer.push(entry);
        if self.buffer.len() >= BUFFER_CAP {
            self.flush(work);
        }
    }

    /// Merge the buffer with every tree it has outgrown and rebuild the
    /// union as one tree (the binary-counter step).
    fn flush(&mut self, work: &mut IndexWork) {
        let mut entries = std::mem::take(&mut self.buffer);
        while let Some(pos) = self.trees.iter().position(|t| t.size() <= entries.len()) {
            collect_live(self.trees.swap_remove(pos), &self.versions, &mut entries);
        }
        if !entries.is_empty() {
            self.trees.push(build_node(entries, work));
        }
    }
}

/// Drain a subtree, keeping only entries whose snapshot is still current.
fn collect_live(node: Node, versions: &[u32], out: &mut Vec<Entry>) {
    match node {
        Node::Leaf(entries) => {
            out.extend(
                entries
                    .into_iter()
                    .filter(|e| versions[e.gid as usize] == e.version),
            );
        }
        Node::Ball {
            vp,
            inside,
            outside,
            ..
        } => {
            if versions[vp.gid as usize] == vp.version {
                out.push(vp);
            }
            collect_live(*inside, versions, out);
            collect_live(*outside, versions, out);
        }
    }
}

fn build_node(mut entries: Vec<Entry>, work: &mut IndexWork) -> Node {
    if entries.len() <= LEAF_CAP {
        return Node::Leaf(entries);
    }
    let vp = entries.swap_remove(0);
    let mut dists: Vec<(f64, Entry)> = entries
        .into_iter()
        .map(|e| {
            work.distance_calls += 1;
            (ed_sq(&vp.rep, &e.rep).sqrt(), e)
        })
        .collect();
    let mid = dists.len() / 2;
    dists.select_nth_unstable_by(mid, |a, b| a.0.total_cmp(&b.0));
    let outside: Vec<(f64, Entry)> = dists.split_off(mid);
    let bounds = |part: &[(f64, Entry)]| {
        part.iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), (d, _)| {
                (lo.min(*d), hi.max(*d))
            })
    };
    let (in_lo, in_hi) = bounds(&dists);
    let (out_lo, out_hi) = bounds(&outside);
    let size = 1 + dists.len() + outside.len();
    Node::Ball {
        vp,
        size,
        in_lo,
        in_hi,
        out_lo,
        out_hi,
        inside: Box::new(build_node(
            dists.into_iter().map(|(_, e)| e).collect(),
            work,
        )),
        outside: Box::new(build_node(
            outside.into_iter().map(|(_, e)| e).collect(),
            work,
        )),
    }
}

/// Candidate acceptance with the linear scan's exact semantics: strictly
/// closer wins; at equal distance the lower group id wins (the linear
/// scan's first-hit-wins order).
fn offer(best: &mut Option<(usize, f64)>, radius_sq: f64, gid: usize, d_sq: f64) {
    let accepted = match best {
        None => d_sq <= radius_sq,
        Some((bg, b)) => d_sq < *b || (d_sq == *b && gid < *bg),
    };
    if accepted {
        *best = Some((gid, d_sq));
    }
}

fn search(
    node: &Node,
    xs: &[f64],
    radius_sq: f64,
    versions: &[u32],
    best: &mut Option<(usize, f64)>,
    work: &mut IndexWork,
) {
    let tau_sq = best.map_or(radius_sq, |(_, b)| b);
    match node {
        Node::Leaf(entries) => {
            for e in entries {
                if versions[e.gid as usize] != e.version {
                    continue; // superseded snapshot; its successor is elsewhere
                }
                work.examined += 1;
                work.distance_calls += 1;
                let bound_sq = best.map_or(radius_sq, |(_, b)| b);
                let d_sq = ed_early_abandon_sq(xs, &e.rep, bound_sq);
                if d_sq.is_finite() {
                    offer(best, radius_sq, e.gid as usize, d_sq);
                }
            }
        }
        Node::Ball {
            vp,
            size,
            in_lo,
            in_hi,
            out_lo,
            out_hi,
            inside,
            outside,
        } => {
            let tau = tau_sq.sqrt();
            // If the query is farther from the vantage point than every
            // stored distance plus the search radius, the triangle
            // inequality rules out the whole ball — abandon accordingly.
            let node_ub = in_hi.max(*out_hi) + tau;
            let node_ub = node_ub + slack(node_ub);
            work.distance_calls += 1;
            // A stale vantage point still navigates (its snapshot defines
            // the subtree geometry) but is not a live representative, so
            // it counts toward distance_calls only — keeping `examined`
            // and `pruned` disjoint over representatives, as documented.
            let vp_live = versions[vp.gid as usize] == vp.version;
            let d_sq = ed_early_abandon_sq(xs, &vp.rep, node_ub * node_ub);
            if !d_sq.is_finite() {
                if vp_live {
                    work.examined += 1; // comparison started, then abandoned
                }
                // The subtree (which may include a few stale snapshots) is
                // dismissed without any distance computation.
                work.pruned += size - 1;
                return;
            }
            if vp_live {
                work.examined += 1;
                if d_sq <= tau_sq {
                    offer(best, radius_sq, vp.gid as usize, d_sq);
                }
            }
            let d = d_sq.sqrt();
            let visit = |child: &Node,
                         lo: f64,
                         hi: f64,
                         best: &mut Option<(usize, f64)>,
                         work: &mut IndexWork| {
                let tau = best.map_or(radius_sq, |(_, b)| b).sqrt();
                // Lower bound on the distance from the query to anything
                // in the child, by the triangle inequality on d(·, vp).
                let lb = (d - hi).max(lo - d).max(0.0);
                if lb > tau + slack(tau.max(lb)) {
                    work.pruned += child.size();
                } else {
                    search(child, xs, radius_sq, versions, best, work);
                }
            };
            // Visit the side the query falls on first: it tightens the
            // bound before the far side is considered.
            if d <= (in_hi + out_lo) * 0.5 {
                visit(inside, *in_lo, *in_hi, best, work);
                visit(outside, *out_lo, *out_hi, best, work);
            } else {
                visit(outside, *out_lo, *out_hi, best, work);
                visit(inside, *in_lo, *in_hi, best, work);
            }
        }
    }
}

impl RepresentativeIndex for VpTreeIndex {
    fn nearest_within(
        &mut self,
        xs: &[f64],
        radius_sq: f64,
        _groups: &[SimilarityGroup],
        work: &mut IndexWork,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        // Buffer entries are always current versions.
        for e in &self.buffer {
            work.examined += 1;
            work.distance_calls += 1;
            let bound_sq = best.map_or(radius_sq, |(_, b)| b);
            let d_sq = ed_early_abandon_sq(xs, &e.rep, bound_sq);
            if d_sq.is_finite() {
                offer(&mut best, radius_sq, e.gid as usize, d_sq);
            }
        }
        for tree in &self.trees {
            search(tree, xs, radius_sq, &self.versions, &mut best, work);
        }
        best
    }

    fn insert(&mut self, group: usize, representative: &Arc<[f64]>, work: &mut IndexWork) {
        if self.versions.len() <= group {
            self.versions.resize(group + 1, 0);
        }
        self.upsert_buffer(
            Entry {
                gid: group as u32,
                version: self.versions[group],
                rep: Arc::clone(representative),
            },
            work,
        );
    }

    fn update(&mut self, group: usize, representative: &Arc<[f64]>, work: &mut IndexWork) {
        self.versions[group] += 1;
        self.upsert_buffer(
            Entry {
                gid: group as u32,
                version: self.versions[group],
                rep: Arc::clone(representative),
            },
            work,
        );
    }

    fn seed(&mut self, groups: &[SimilarityGroup], work: &mut IndexWork) {
        debug_assert!(
            self.versions.is_empty() && self.trees.is_empty() && self.buffer.is_empty(),
            "seed() is for freshly created indexes"
        );
        self.versions = vec![0; groups.len()];
        let entries: Vec<Entry> = groups
            .iter()
            .enumerate()
            .map(|(gi, g)| Entry {
                gid: gi as u32,
                version: 0,
                rep: Arc::clone(g.shared_representative()),
            })
            .collect();
        if !entries.is_empty() {
            self.trees.push(build_node(entries, work));
        }
    }

    fn name(&self) -> &'static str {
        "vptree"
    }
}

// ---------------------------------------------------------------------
// Resident index — the per-length indexes of one base, kept in step.
// ---------------------------------------------------------------------

/// The index of one length column, with the number of groups it covers
/// (the cheap check that it still mirrors the column it is handed).
struct Column {
    index: Box<dyn RepresentativeIndex>,
    tree: bool,
    groups: usize,
}

/// The nearest-representative indexes of one base, one per subsequence
/// length, as [`crate::BaseBuilder::extend_resident`] uses them.
///
/// Lifecycle: a column is **seeded** from the base's groups the first
/// time an extension needs it, **mutated** in step with every admission
/// of that and every later extension, and must be **discarded**
/// ([`Self::clear`]) as soon as the base it mirrors is not the one being
/// extended — another base was installed, or an extension that had
/// already admitted members was abandoned. The builder clears it itself
/// when an extension fails; whoever keeps the index between calls owns
/// the "same base" guarantee (the engine stamps it with the epoch).
///
/// Under [`IndexPolicy::Auto`] a kept index is a VP-tree for every
/// column of at least 512 groups, whatever the size of the increment.
#[derive(Default)]
pub struct ResidentIndex {
    columns: BTreeMap<usize, Column>,
    /// Dropped with the call that seeded it (the stateless `extend`),
    /// so `Auto` weighs the seeding against this call's lookups alone.
    transient: bool,
    seeds: u64,
}

impl ResidentIndex {
    /// An empty index meant to be kept between extensions; columns are
    /// seeded on first use.
    pub fn new() -> Self {
        ResidentIndex::default()
    }

    /// An empty index that will not outlive the extension it is made for.
    pub(crate) fn transient() -> Self {
        ResidentIndex {
            transient: true,
            ..ResidentIndex::default()
        }
    }

    /// Drop every column; the next extension re-seeds what it needs.
    pub fn clear(&mut self) {
        self.columns.clear();
    }

    /// Representatives covered, over all seeded columns.
    pub fn entries(&self) -> usize {
        self.columns.values().map(|c| c.groups).sum()
    }

    /// Columns seeded from a base's groups over this index's lifetime
    /// ([`Self::clear`] does not reset it). Extensions that find their
    /// columns resident add none, so a count that keeps growing means
    /// every extension is paying for a rebuild.
    pub fn seeds(&self) -> u64 {
        self.seeds
    }

    /// The implementation behind the seeded columns: its name when they
    /// agree, `"mixed"` when they do not, `"none"` when nothing is seeded.
    pub fn kind(&self) -> &'static str {
        let mut names = self.columns.values().map(|c| c.index.name());
        match names.next() {
            None => "none",
            Some(first) if names.all(|n| n == first) => first,
            Some(_) => "mixed",
        }
    }

    /// The index for `len`, mirroring `groups` and about to serve
    /// `lookups` lookups: the resident column when it covers exactly
    /// these groups, a freshly seeded one otherwise. Columns only grow,
    /// so a resident tree is kept even for an increment too small to
    /// have asked for one; a resident scan is replaced as soon as
    /// `policy` wants a tree.
    pub(crate) fn column(
        &mut self,
        policy: IndexPolicy,
        len: usize,
        groups: &[SimilarityGroup],
        lookups: usize,
        work: &mut IndexWork,
    ) -> &mut dyn RepresentativeIndex {
        let tree = policy.wants_tree(groups.len(), lookups, !self.transient);
        let resident = self
            .columns
            .get(&len)
            .is_some_and(|c| c.groups == groups.len() && (c.tree || !tree));
        if !resident {
            let mut index = make_index(tree);
            index.seed(groups, work);
            self.seeds += 1;
            self.columns.insert(
                len,
                Column {
                    index,
                    tree,
                    groups: groups.len(),
                },
            );
        }
        self.columns
            .get_mut(&len)
            .expect("the column was found or just seeded")
            .index
            .as_mut()
    }

    /// Record that the column for `len` now covers `groups` groups (the
    /// builder's receipt after extending it).
    pub(crate) fn covered(&mut self, len: usize, groups: usize) {
        if let Some(column) = self.columns.get_mut(&len) {
            column.groups = groups;
        }
    }
}

impl std::fmt::Debug for ResidentIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentIndex")
            .field("kind", &self.kind())
            .field("columns", &self.columns.len())
            .field("entries", &self.entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_tseries::SubseqRef;

    fn group(values: &[f64]) -> SimilarityGroup {
        SimilarityGroup::seed(SubseqRef::new(0, 0, values.len() as u32), values)
    }

    /// Deterministic pseudo-random vector stream (SplitMix64).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
        fn vec(&mut self, len: usize, scale: f64) -> Vec<f64> {
            (0..len).map(|_| (self.next() - 0.5) * scale).collect()
        }
    }

    /// Drive both implementations through an identical randomized
    /// insert/update/query schedule and demand identical answers.
    fn equivalence_drill(len: usize, scale: f64, radius: f64, seed: u64, centroid_rate: f64) {
        let mut rng = Rng(seed);
        let mut groups: Vec<SimilarityGroup> = Vec::new();
        let mut linear = LinearScan;
        let mut tree = VpTreeIndex::new();
        let mut lw = IndexWork::default();
        let mut tw = IndexWork::default();
        let radius_sq = radius * radius;
        for step in 0..600 {
            let xs = rng.vec(len, scale);
            let a = linear.nearest_within(&xs, radius_sq, &groups, &mut lw);
            let b = tree.nearest_within(&xs, radius_sq, &groups, &mut tw);
            assert_eq!(a, b, "step {step}: linear {a:?} vs vptree {b:?}");
            match a {
                Some((gi, d_sq)) => {
                    let centroid = rng.next() < centroid_rate;
                    groups[gi].admit(
                        SubseqRef::new(1, step, len as u32),
                        &xs,
                        d_sq.sqrt(),
                        centroid,
                    );
                    if centroid {
                        let rep = groups[gi].shared_representative();
                        linear.update(gi, rep, &mut lw);
                        tree.update(gi, rep, &mut tw);
                    }
                }
                None => {
                    groups.push(group(&xs));
                    let gi = groups.len() - 1;
                    let rep = groups[gi].shared_representative();
                    linear.insert(gi, rep, &mut lw);
                    tree.insert(gi, rep, &mut tw);
                }
            }
        }
        assert!(groups.len() > 5, "drill must exercise many groups");
        assert!(
            tw.examined < lw.examined,
            "tree must prune: examined {} vs linear {}",
            tw.examined,
            lw.examined
        );
    }

    #[test]
    fn vptree_matches_linear_with_frozen_representatives() {
        equivalence_drill(16, 8.0, 1.0, 7, 0.0);
    }

    #[test]
    fn vptree_matches_linear_under_centroid_drift() {
        equivalence_drill(12, 4.0, 1.5, 99, 1.0);
    }

    #[test]
    fn vptree_matches_linear_with_generous_radius() {
        // Generous radius: most lookups hit, reps drift constantly.
        equivalence_drill(8, 12.0, 4.0, 1234, 0.7);
    }

    #[test]
    fn ties_go_to_the_lowest_group_id() {
        let rep = vec![1.0, 2.0, 3.0, 4.0];
        let groups = vec![group(&[9.0; 4]), group(&rep), group(&rep)];
        let mut work = IndexWork::default();
        let mut tree = VpTreeIndex::new();
        for (gi, g) in groups.iter().enumerate() {
            tree.insert(gi, g.shared_representative(), &mut work);
        }
        let query = vec![1.0, 2.0, 3.0, 4.5];
        let got = tree.nearest_within(&query, 1.0, &groups, &mut work);
        let want = LinearScan.nearest_within(&query, 1.0, &groups, &mut work);
        assert_eq!(got, want);
        assert_eq!(got.unwrap().0, 1, "equal distances resolve to lower id");
    }

    #[test]
    fn seeded_index_equals_incremental_inserts() {
        let mut rng = Rng(5);
        let groups: Vec<SimilarityGroup> = (0..200).map(|_| group(&rng.vec(10, 6.0))).collect();
        let mut work = IndexWork::default();
        let mut seeded = VpTreeIndex::new();
        seeded.seed(&groups, &mut work);
        let mut trickled = VpTreeIndex::new();
        for (gi, g) in groups.iter().enumerate() {
            trickled.insert(gi, g.shared_representative(), &mut work);
        }
        for _ in 0..50 {
            let q = rng.vec(10, 6.0);
            let mut w1 = IndexWork::default();
            let mut w2 = IndexWork::default();
            assert_eq!(
                seeded.nearest_within(&q, 4.0, &groups, &mut w1),
                trickled.nearest_within(&q, 4.0, &groups, &mut w2)
            );
        }
    }

    #[test]
    fn out_of_radius_returns_none() {
        let groups = vec![group(&[100.0; 6])];
        let mut tree = VpTreeIndex::new();
        let mut work = IndexWork::default();
        tree.insert(0, groups[0].shared_representative(), &mut work);
        assert_eq!(
            tree.nearest_within(&[0.0; 6], 1.0, &groups, &mut work),
            None
        );
        assert_eq!(
            LinearScan.nearest_within(&[0.0; 6], 1.0, &groups, &mut work),
            None
        );
    }

    #[test]
    fn empty_index_returns_none() {
        let mut work = IndexWork::default();
        assert_eq!(
            VpTreeIndex::new().nearest_within(&[1.0, 2.0], 10.0, &[], &mut work),
            None
        );
        assert_eq!(
            LinearScan.nearest_within(&[1.0, 2.0], 10.0, &[], &mut work),
            None
        );
    }

    #[test]
    fn policy_parsing_round_trips_and_rejects_garbage() {
        for p in [IndexPolicy::Auto, IndexPolicy::Linear, IndexPolicy::VpTree] {
            assert_eq!(p.label().parse::<IndexPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
        assert!(matches!(
            "grid".parse::<IndexPolicy>(),
            Err(OnexError::InvalidConfig(_))
        ));
    }

    #[test]
    fn auto_policy_picks_by_expected_lookups() {
        assert_eq!(IndexPolicy::Auto.create(10_000).name(), "vptree");
        assert_eq!(IndexPolicy::Auto.create(10).name(), "linear");
        assert_eq!(IndexPolicy::Linear.create(10_000).name(), "linear");
        assert_eq!(IndexPolicy::VpTree.create(10).name(), "vptree");
    }

    #[test]
    fn auto_policy_weighs_the_existing_groups_against_the_increment() {
        let auto = IndexPolicy::Auto;
        // A one-off extension: 237 lookups repay bulk-loading 11 000
        // representatives (log₂ ≈ 13.4), five lookups do not.
        assert!(auto.wants_tree(11_000, 237, false));
        assert!(!auto.wants_tree(11_000, 5, false));
        // A kept index serves later extensions too: big columns get the
        // tree whatever the increment, small ones wait for the lookups.
        assert!(auto.wants_tree(11_000, 5, true));
        assert!(!auto.wants_tree(100, 5, true));
        assert!(auto.wants_tree(100, 8, true));
        // Nothing to scan, nothing to load: only the build rule applies.
        assert!(!auto.wants_tree(0, 10, true) && !auto.wants_tree(1, 10, false));
        // Forced policies never consult the numbers.
        assert!(!IndexPolicy::Linear.wants_tree(1 << 20, 1 << 20, true));
        assert!(IndexPolicy::VpTree.wants_tree(0, 0, false));
    }

    #[test]
    fn resident_columns_are_seeded_once_and_reseeded_when_they_stop_mirroring() {
        let mut rng = Rng(17);
        let mut groups: Vec<SimilarityGroup> = (0..40).map(|_| group(&rng.vec(8, 6.0))).collect();
        let mut work = IndexWork::default();
        let mut resident = ResidentIndex::new();
        assert_eq!(
            (resident.kind(), resident.entries(), resident.seeds()),
            ("none", 0, 0)
        );
        let q = rng.vec(8, 6.0);
        let want = LinearScan.nearest_within(&q, 1e9, &groups, &mut work);
        let index = resident.column(IndexPolicy::VpTree, 8, &groups, 3, &mut work);
        assert_eq!(index.nearest_within(&q, 1e9, &groups, &mut work), want);
        assert_eq!(
            (resident.kind(), resident.entries(), resident.seeds()),
            ("vptree", 40, 1)
        );

        // The builder seeds a group, keeps the index in step, and leaves
        // its receipt: the next extension finds the column resident.
        groups.push(group(&q));
        resident
            .column(IndexPolicy::VpTree, 8, &groups[..40], 1, &mut work)
            .insert(40, groups[40].shared_representative(), &mut work);
        resident.covered(8, 41);
        let index = resident.column(IndexPolicy::VpTree, 8, &groups, 1, &mut work);
        assert_eq!(
            index.nearest_within(&q, 1e-9, &groups, &mut work),
            Some((40, 0.0))
        );
        assert_eq!(resident.seeds(), 1, "a resident column is not rebuilt");

        // A column of another size is not the one this index mirrors.
        resident.column(IndexPolicy::VpTree, 8, &groups[..7], 1, &mut work);
        assert_eq!((resident.entries(), resident.seeds()), (7, 2));
        resident.clear();
        assert_eq!(
            (resident.kind(), resident.entries(), resident.seeds()),
            ("none", 0, 2)
        );
    }

    #[test]
    fn a_resident_scan_becomes_a_tree_when_auto_wants_one_and_never_reverts() {
        let mut rng = Rng(23);
        let groups: Vec<SimilarityGroup> = (0..600).map(|_| group(&rng.vec(6, 9.0))).collect();
        let mut work = IndexWork::default();
        let mut resident = ResidentIndex::new();
        resident.column(IndexPolicy::Auto, 6, &groups[..100], 2, &mut work);
        assert_eq!(resident.kind(), "linear");
        resident.column(IndexPolicy::Auto, 6, &groups[..100], 50, &mut work);
        assert_eq!((resident.kind(), resident.seeds()), ("vptree", 2));
        resident.column(IndexPolicy::Auto, 6, &groups[..100], 2, &mut work);
        assert_eq!((resident.kind(), resident.seeds()), ("vptree", 2));
        // The stateless path drops its index, so a tiny increment over a
        // big column is scanned, where a kept index loads the tree.
        let mut transient = ResidentIndex::transient();
        transient.column(IndexPolicy::Auto, 6, &groups, 2, &mut work);
        assert_eq!(transient.kind(), "linear");
        let mut kept = ResidentIndex::new();
        kept.column(IndexPolicy::Auto, 6, &groups, 2, &mut work);
        assert_eq!(kept.kind(), "vptree");
    }

    #[test]
    fn work_accounting_accumulates() {
        let mut a = IndexWork {
            examined: 1,
            pruned: 2,
            distance_calls: 3,
        };
        a += IndexWork {
            examined: 10,
            pruned: 20,
            distance_calls: 30,
        };
        assert_eq!(
            a,
            IndexWork {
                examined: 11,
                pruned: 22,
                distance_calls: 33
            }
        );
    }
}
