//! rfd-net — the wire layer of the monitor: a framed, versioned protocol
//! for shipping raw sample streams *into* the rfdump pipeline and decoded
//! record streams *out* to live subscribers, plus the server that joins the
//! two.
//!
//! The paper's architecture assumes samples arrive from a radio front-end
//! and analysis results are consumed by "visualizer" clients; this crate is
//! that seam, std-only:
//!
//! * [`frame`] — the `RFDN` frame codec: length-prefixed, CRC-protected,
//!   sequence-numbered frames with a hardened incremental decoder.
//! * [`queue`] — the bounded ingest queue with explicit overflow policy
//!   (block = lossless backpressure, drop-oldest = lossy real-time).
//! * [`hub`] — record fan-out with per-subscriber bounded queues and
//!   slow-consumer eviction.
//! * [`fleet`] — the ingest server, the only one: one nonblocking
//!   readiness loop accepts N concurrent capture senders — tagged with a
//!   source id or anonymous — shards each onto its own pipeline instance,
//!   and merges the record streams (tagged ones with per-source tags).
//! * [`server`] — what that server shares with callers and subscriber
//!   threads: the [`Pipeline`] / [`Session`] traits the analysis stage is
//!   injected through, the wire-level statistics, and the subscriber side
//!   of a connection.
//! * [`client`] — the two clients the CLI's `send` / `watch` modes wrap:
//!   [`TraceSender`] and [`RecordSubscriber`]. Both reconnect and resume
//!   from the server's acknowledged position under a [`RetryPolicy`], and a
//!   subscriber can checkpoint its position across process restarts.
//!
//! The analysis stage itself is injected via the [`Pipeline`] trait, so
//! this crate never depends on the pipeline crate (the dependency points
//! the other way: the `rfdump` binary implements [`Pipeline`] with its
//! offline architecture, which is what makes the live record stream
//! byte-identical to offline output on the same samples). A pipeline is
//! driven incrementally — a [`Session`] is pushed each chunk as it arrives
//! and returns the records that chunk made final — so subscribers receive
//! records while the capture is still streaming in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
pub mod fleet;
pub mod frame;
pub mod hub;
pub mod queue;
pub mod server;

pub use client::{RecordSubscriber, RetryPolicy, SendRate, SendReport, SubEvent, TraceSender};
pub use fleet::{
    FleetConfig, FleetHandle, FleetLatencySnapshot, FleetServer, FleetSnapshot, PipelineFactory,
    SourceHealth, SourceSnapshot,
};
pub use frame::{
    validate_source_id, Frame, FrameDecoder, FrameError, RecordMsg, Role, StreamMeta, MAX_SOURCE_ID,
};
pub use hub::{HubMsg, RecordHub, Subscription};
pub use queue::{ChunkQueue, OverflowPolicy, PushOutcome};
pub use server::{NetStatsSnapshot, Pipeline, Server, ServerConfig, Session};
