//! Benchmark harnesses for the bwpart workspace.
//!
//! * [`perf`] — the perf-regression harness behind `cargo xtask bench`,
//!   which times canonical workloads in seed mode vs the optimized default
//!   and writes `BENCH_sim.json`.
//! * [`serve_perf`] — the `bwpartd` service harness behind
//!   `cargo xtask bench-serve`: wire-protocol throughput/latency against a
//!   live loopback server plus epoch-decision latency in a bare one-shard
//!   `ShardMap`;
//!   writes `BENCH_serve.json`.

pub mod perf;
pub mod serve_perf;
