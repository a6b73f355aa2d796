//! # onex-distance — the two distances whose "marriage" powers ONEX
//!
//! ONEX's central idea (paper §3.2) is to *construct* its base with the
//! cheap Euclidean distance and *explore* it with the robust-but-expensive
//! Dynamic Time Warping distance, justified by a triangle-inequality bridge
//! between the two. This crate provides both distances and the bridge:
//!
//! * [`mod@ed`] — Euclidean distance: plain, squared, early-abandoning, and
//!   length-normalised variants.
//! * [`mod@dtw`] — DTW with optional Sakoe–Chiba band, early abandonment with
//!   cumulative lower bounds (the UCR Suite trick), and warping-path
//!   recovery for the visual analytics layer.
//! * [`envelope`] — Lemire streaming min/max envelopes in O(n), also
//!   indexed by the positions of a candidate of another length.
//! * [`lb`] — lower bounds for DTW at any length pair: LB_Kim(FL) and
//!   LB_Keogh, both early-abandoning, with per-position cumulative bounds.
//! * [`bounds`] — the ED↔DTW bridge (DESIGN.md §2.2): `DTW ≤ ED` for equal
//!   lengths, and the group bound
//!   `|DTW(q,s) − DTW(q,r)| ≤ √W · ED(r,s)` that licenses exploring group
//!   representatives instead of raw data.
//! * [`kernels`] — the shared inner loops behind all of the above, with
//!   runtime-feature-detected AVX2 and a scalar reference.
//! * [`sketch`] — quantised-PAA sketches and the L0 prefilter lower
//!   bound that rejects candidates before any f64 work.
//!
//! ## Conventions
//!
//! Every distance in this crate is the **square root of summed squared
//! differences** (the L2 family), so ED and DTW are directly comparable —
//! that comparability is exactly what the ONEX theorems need. `_sq`
//! variants expose the pre-root value for hot paths. All functions document
//! finite input as a precondition; NaN poisons results rather than
//! panicking, matching `f64` semantics.

// Unsafe is denied everywhere but `kernels`, which allows it for the
// `core::arch` load and store intrinsics (the grid pass's code load
// among them), the L0 cursor's unchecked read
// and the call of an AVX2 kernel after the CPU check; it has no
// `unsafe fn`. Every unsafe block states why it holds in a `SAFETY:`
// comment, which clippy enforces.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod bounds;
pub mod dtw;
pub mod ed;
pub mod envelope;
pub mod kernels;
pub mod lb;
mod path;
pub mod sketch;

pub use dtw::{dtw, dtw_sq, dtw_with_path, Band};
pub use ed::{ed, ed_early_abandon_sq, ed_sq};
pub use envelope::Envelope;
pub use kernels::KernelLevel;
pub use path::WarpingPath;
pub use sketch::{
    PlanesRef, QuerySketch, SketchParams, SketchPlanes, Zone, SKETCH_STRIDE, ZONE_SLOTS,
};

/// The infinite distance used as "no bound yet" by early-abandoning code.
pub const INF: f64 = f64::INFINITY;
