//! # rfd-obs — the live metrics plane
//!
//! PR 1 made the pipeline observable post-mortem (`--stats-json` flushes a
//! snapshot at exit); this crate makes it observable *while it runs*, which
//! is what an always-on monitor of the ether actually needs. Three pieces:
//!
//! * [`prom`] — encodes a [`rfd_telemetry::Registry`] snapshot in the
//!   Prometheus text exposition format v0.0.4 (cumulative histogram
//!   buckets, `_sum`/`_count`, `# TYPE`/`# HELP` metadata), plus a strict
//!   parser/validator used by the golden tests and the CI scrape smoke.
//! * [`server`] — a std-only nonblocking HTTP/1.0 listener serving
//!   `/metrics` (exposition text) and `/events` (the typed event ring as
//!   JSON). Scrapes only ever read atomics and briefly lock the registry's
//!   name maps — the sample hot path is never blocked.
//! * [`client`] — a tiny blocking scrape client used by `rfdump top`, the
//!   CI helper and the tests.
//! * [`top`] — pure rendering helpers for the `rfdump top` terminal view
//!   (sample parsing, bucket quantiles, screen layout).
//!
//! The crate deliberately depends only on `rfd-telemetry`: it serves
//! whatever the pipeline records, and knows nothing about DSP.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
pub mod prom;
pub mod server;
pub mod top;

pub use client::scrape;
pub use server::{MetricsHandle, MetricsServer};
