//! Workspace automation library for the bandwidth-partitioning model.
//!
//! The `xtask` binary fronts this crate; the library exists so the lint
//! engine's layers are independently testable (and runnable under miri):
//!
//! * [`lex`] — a dependency-free, total Rust lexer producing spanned
//!   tokens (raw strings, nested block comments, lifetimes vs chars, doc
//!   comments, shebangs).
//! * [`tokens`] — structural analysis over the token stream:
//!   brace-matched delimiter trees, `#[cfg(test)]` masking, fn boundaries
//!   and span-based comment attachment.
//! * [`engine`] — the per-file rules (R1, R2, R4, R6–R8, R10–R12).
//! * [`symbols`] — the workspace symbol index: per-file fn/struct/import
//!   facts, call sites and lock acquisitions.
//! * [`callgraph`] — the approximate workspace call graph over the index,
//!   with tiered heuristic resolution and reachability queries.
//! * [`analyze`] — the interprocedural rules (A2–A4) over the call graph.
//! * [`lint`] — the one pass (`cargo xtask lint`): rule catalogue, tree
//!   walker, `lint: allow` resolution, inventory cross-check, and the
//!   text/JSON/SARIF reports.

pub mod analyze;
pub mod callgraph;
pub mod engine;
pub mod lex;
pub mod lint;
pub mod symbols;
pub mod tokens;
