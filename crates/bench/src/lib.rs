//! # onex-bench — benchmark and reproduction harness
//!
//! Everything needed to regenerate the paper's figures and headline claims
//! (the experiment index in DESIGN.md §3):
//!
//! * [`workloads`] — the standard datasets each experiment runs on,
//!   built from the `onex-tseries` generators with fixed seeds.
//! * [`harness`] — timing, loopback shard helpers, and the one row type
//!   E12–E19 render both their tables and their perf records from.
//! * [`experiments`] — one module per experiment (E1–E19); each returns
//!   [`harness::Table`]s so `repro` can print them and tests can assert on
//!   their shape.
//!
//! Run `cargo run -p onex-bench --bin repro --release -- all` to print
//! every table and drop the SVG artefacts into `target/repro/`.

pub mod experiments;
pub mod harness;
pub mod workloads;
