//! The SPRING streaming-DTW baseline.
//!
//! A clean-room Rust implementation of SPRING from Sakurai, Faloutsos and
//! Yamamuro, *Stream monitoring under the time warping distance*
//! (ICDE 2007) — reference \[7\] of the ONEX demo paper and the exact-answer
//! state of the art it cites ("some provide an exact or a highly accurate
//! solution \[7\] at the expense of responsiveness").
//!
//! SPRING solves **subsequence** DTW matching over an unbounded stream:
//! given a fixed query pattern `Y` of length `m` and a stream
//! `x₁, x₂, …`, report every subsequence `x[ts..=te]` whose DTW distance
//! to `Y` is within a threshold `ε`, using O(m) time and space per
//! arriving point and reporting each *locally optimal, disjoint* match as
//! soon as it can be proven optimal.
//!
//! The two ideas from the paper:
//!
//! 1. **Star-padding / STWM.** The subsequence time-warping matrix sets
//!    row 0 to zero everywhere, so a warping path may *start* at any
//!    stream position for free. Each cell carries its path's starting
//!    position `S(t, i)` alongside its cost `D(t, i)`, so when the last
//!    row reports a match we know where it began without back-tracking.
//! 2. **Disjoint optimal reporting.** A candidate match (the best
//!    threshold-passing end cell seen so far) is reported only once every
//!    live cell either costs more than the candidate or starts *after*
//!    the candidate ends — at that point no future subsequence
//!    overlapping the candidate can beat it, so it is safe to emit and
//!    the overlapping cells are invalidated.
//!
//! Distances follow the workspace convention: the L2 family with the
//! square root applied at reporting time, so thresholds are directly
//! comparable with [`onex_distance::dtw()`] and with ONEX similarity
//! thresholds. Internally everything is kept in the squared domain.
//!
//! ## Role in the reproduction
//!
//! Experiment E10 contrasts three ways of monitoring a stream for a
//! pattern: SPRING (this module, exact unconstrained DTW, O(m)/point),
//! re-running the UCR Suite over a sliding window, and re-querying an
//! incrementally extended ONEX base. SPRING is exact but answers only the
//! single-pattern monitoring question; ONEX answers ad-hoc exploratory
//! queries — the contrast the demo paper's state-of-the-art section draws.
//!
//! ```
//! use onex_baselines::spring::SpringMonitor;
//!
//! // Query pattern: a ramp. Stream: noise, then the ramp, then noise.
//! let query = [0.0, 1.0, 2.0, 3.0];
//! let mut mon = SpringMonitor::new(&query, 0.5).unwrap();
//! let stream = [9.0, 9.0, 0.0, 1.0, 2.0, 3.0, 9.0, 9.0];
//! let mut matches = Vec::new();
//! for (_t, &x) in stream.iter().enumerate() {
//!     matches.extend(mon.push(x));
//! }
//! matches.extend(mon.finish());
//! assert_eq!(matches.len(), 1);
//! assert_eq!((matches[0].start, matches[0].end), (2, 5));
//! assert!(matches[0].dist <= 0.5);
//! ```

pub use crate::monitor::{
    spring_best_match, spring_search, SpringMatch, SpringMonitor, SpringStats,
};
