//! # onex-grouping — the ONEX base
//!
//! The paper's primary contribution (§3.1): *"We first group subsequences
//! of the same length that are similar using the ubiquitous and
//! inexpensive Euclidean Distance into so called 'ONEX similarity groups'.
//! We then summarize these groups by their centroid […] Our construction
//! methodology insures that these similarity groups contain sequences that
//! are similar to each other within the similarity threshold ST, while
//! each sequence is similar to the representative within half of the
//! similarity threshold."*
//!
//! This crate implements exactly that:
//!
//! * [`SubsequenceSpace`] enumerates every subsequence of a dataset for a
//!   configurable length range and stride — the space the base compacts.
//! * [`GroupView`] is one group: a representative sequence, member
//!   references, a radius and, from two members up, the members' L0
//!   sketches — a 20-byte slot of a column block, and for a group of one
//!   nothing else: the representative is read in place from the
//!   dataset's shared series, and the search answers the group from its
//!   representative's DTW.
//! * [`BaseBuilder`] constructs the base online: each subsequence joins the
//!   nearest group of its length when the representative is within `ST/2`
//!   (Euclidean), otherwise it seeds a new group. A batch build extends an
//!   empty base, an incremental one the base it is given: one path, its
//!   lengths spread over scoped worker threads, one admission rule, the
//!   same base at any worker count.
//! * [`PaaGrid`] ([`repindex`]) is the nearest-representative lookup
//!   behind that admission rule: an exact PAA-bound grid that returns
//!   what scanning every representative returns, from orders of
//!   magnitude fewer distance computations when the base barely
//!   compacts.
//! * [`OnexBase`] is the finished index: groups per length, compaction
//!   statistics, invariant auditing, and one binary image it leaves
//!   memory as and comes back from beside its dataset ([`persist`]).
//!   Each length is one [`GroupColumn`]
//!   ([`blocks`]) — fixed-size copy-on-write blocks of 256 groups — so
//!   the next epoch of a base shares every block an append did not write
//!   to.
//! * The columns carry a quantised-PAA sketch per member of a group of
//!   two and more ([`sketch`], read through [`SketchIndex`]) — the L0
//!   prefilter tier the query engine consults before touching any f64
//!   data. Derived and rebuildable; the image stores the sketches
//!   verbatim so a loaded base prunes immediately.
//!
//! The `ST/2` insert rule plus the Euclidean triangle inequality yield the
//! paper's pairwise guarantee: two members of one group are within `ST` of
//! each other. With the [`RepresentativePolicy::Seed`] policy this holds
//! *exactly*; with the paper's centroid policy the representative drifts
//! as it averages members, so the guarantee is approximate — the base can
//! audit itself ([`OnexBase::audit`]) and experiment E9 measures the
//! trade-off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
pub mod blocks;
mod builder;
mod config;
mod group;
pub mod persist;
pub mod repindex;
pub mod sketch;
mod space;

pub use base::{AuditReport, BaseStats, Footprint, LengthStats, OnexBase};
pub use blocks::GroupColumn;
pub use builder::{BaseBuilder, BuildReport};
pub use config::{BaseConfig, RepresentativePolicy};
pub use group::{GroupId, GroupView};
pub use repindex::{IndexWork, PaaGrid, ResidentIndex};
pub use sketch::{LengthSketches, SketchIndex};
pub use space::SubsequenceSpace;
