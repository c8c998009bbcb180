//! Harness library of the repo benchmark (`/BENCHMARK.json`).
//!
//! Three binaries use it: `perf_baseline` (end-to-end, drives the release
//! `rfdump` binary from outside), `perf_trace` (per-layer traced run,
//! in-process) and `bench_diff` (compares two result files). Everything here
//! depends on `rfd-ether` / `rfd-mac` / `rfd-phy` only — see `Cargo.toml`.
//! `bench/README.md` is the glossary of metric and workload names.

#![warn(missing_docs)]

pub mod alloc;
pub mod json;
pub mod proc;
pub mod report;
pub mod spans;
pub mod stats;
pub mod truth;
pub mod workloads;

// The unit tests of `alloc` need the allocator they test.
#[cfg(test)]
#[global_allocator]
static TEST_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
