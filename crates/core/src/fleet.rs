//! Server glue: adapts the offline architecture to `rfd_net`'s ingest
//! server — every `rfdump serve` runs on the factory built here.
//!
//! [`rfd_net::FleetServer`] shards each capture source — a tagged sensor
//! or a plain, anonymous session — onto its own pipeline instance, which
//! it obtains from an injected [`rfd_net::PipelineFactory`]. This module
//! builds that factory out of an
//! [`ArchConfig`]: every call constructs a fresh `LivePipeline` (so
//! per-source analysis shares no mutable state and each source's record
//! stream stays byte-identical to an offline run over the same trace).
//! A pipeline opens one streaming [`crate::arch::Session`] per capture
//! stream, which the server pushes chunk by chunk, publishing records as
//! they are released; when the stream ends the session's [`ArchOutput`]
//! (accounting only — it retains no record) goes into one shared slot so
//! the serving CLI can still render `--stats-json` after the fleet stops.
//!
//! With several sources the slot holds the *last finished* source's
//! architecture output; the per-source ingest numbers live in the
//! stats-json `fleet` section (see [`crate::stats`], v9), which is fed
//! from the [`rfd_net::FleetSnapshot`] instead.
//!
//! Durability shards with the pipeline: when `cfg.durability` is set, each
//! tagged source journals under its own subdirectory (`DIR/<source-id>`),
//! so a fleet run is resumable per source with the same
//! byte-identical-output guarantee an offline `--journal` run has. Source
//! ids are validated at the wire (`[A-Za-z0-9._-]`, ≤64 chars), so the join
//! cannot escape `DIR`. An anonymous source arrives as `""`, and
//! `DIR.join("")` is `DIR`: a plain `serve --journal DIR [--resume]`
//! session journals in `DIR` itself.

use crate::arch::ArchConfig;
use crate::live::{LivePipeline, SharedOutput};
use rfd_telemetry::Registry;
use std::sync::Arc;

/// Builds the per-source pipeline factory a [`rfd_net::FleetServer`] runs.
///
/// Each invocation of the returned factory yields an independent
/// `LivePipeline` over a clone of `cfg` (the band placeholder in `cfg`
/// is overridden by each source's own stream meta), with any journal
/// directory re-rooted to `DIR/<source-id>` so sources never share a
/// journal. All pipelines share `slot` for their architecture output and,
/// when given, accumulate telemetry into the same `registry` the
/// `--metrics-addr` endpoint serves.
pub fn pipeline_factory(
    cfg: ArchConfig,
    registry: Option<Arc<Registry>>,
    slot: SharedOutput,
) -> rfd_net::PipelineFactory {
    Box::new(move |source: &str| {
        let mut cfg = cfg.clone();
        if let Some(d) = &mut cfg.durability {
            d.dir = d.dir.join(source);
        }
        let mut pipeline = LivePipeline::new(cfg).with_output(slot.clone());
        if let Some(reg) = &registry {
            pipeline = pipeline.with_registry(reg.clone());
        }
        Box::new(pipeline)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchKind, DetectorSet};
    use rfd_dsp::Complex32;
    use rfd_net::frame::{RecordMsg, StreamMeta};
    use std::sync::Mutex;

    /// One whole session through a pipeline, in socket-sized chunks.
    fn run(
        mut pipeline: Box<dyn rfd_net::Pipeline>,
        meta: &StreamMeta,
        samples: &[Complex32],
    ) -> Vec<RecordMsg> {
        let mut session = pipeline.open(meta);
        let mut records = Vec::new();
        for chunk in samples.chunks(4096) {
            records.extend(session.push(chunk));
        }
        records.extend(session.finish());
        records
    }

    fn test_cfg() -> ArchConfig {
        ArchConfig {
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demodulate: false,
            band: rfd_ether::Band {
                sample_rate: 8e6,
                center_hz: 0.0,
            },
            piconets: Vec::new(),
            noise_floor: None,
            zigbee: false,
            microwave: true,
            telemetry: false,
            workers: 0,
            faults: None,
            governor: None,
            chunk_samples: crate::CHUNK_SAMPLES,
            durability: None,
        }
    }

    #[test]
    fn factory_instances_are_independent_and_share_the_output_slot() {
        let slot: SharedOutput = Arc::new(Mutex::new(None));
        let factory = pipeline_factory(test_cfg(), None, slot.clone());
        let a = factory("roof");
        let b = factory("lab-3");
        let fs = 8e6f64;
        let samples: Vec<Complex32> = (0..40_000)
            .map(|i| {
                let t = i as f32 / fs as f32;
                if (4_000..12_000).contains(&i) {
                    Complex32::new((t * 1e6).sin() * 0.5, (t * 1e6).cos() * 0.5)
                } else {
                    Complex32::new((t * 7e5).sin() * 1e-3, 0.0)
                }
            })
            .collect();
        let meta = StreamMeta {
            sample_rate: fs,
            center_hz: 0.0,
            scale: 1.0,
        };
        // Same samples through two independent instances: identical lines
        // (the per-source byte-identity contract in miniature).
        let ra = run(a, &meta, &samples);
        let rb = run(b, &meta, &samples);
        let la: Vec<&str> = ra.iter().map(|r| r.line.as_str()).collect();
        let lb: Vec<&str> = rb.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(la, lb);
        assert!(
            slot.lock().unwrap().is_some(),
            "pipelines must deposit into the shared slot"
        );
    }

    #[test]
    fn journal_dir_is_sharded_per_source() {
        let tmp = std::env::temp_dir().join(format!("rfd-fleet-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let mut cfg = test_cfg();
        cfg.durability = Some(crate::durability::DurabilityConfig {
            dir: tmp.clone(),
            resume: false,
        });
        let slot: SharedOutput = Arc::new(Mutex::new(None));
        let factory = pipeline_factory(cfg, None, slot);
        let meta = StreamMeta {
            sample_rate: 8e6,
            center_hz: 0.0,
            scale: 1.0,
        };
        let samples = vec![Complex32::new(1e-3, 0.0); 20_000];
        run(factory("roof"), &meta, &samples);
        run(factory("van.2"), &meta, &samples);
        assert!(tmp.join("roof").is_dir(), "journal sharded under DIR/roof");
        assert!(
            tmp.join("van.2").is_dir(),
            "journal sharded under DIR/van.2"
        );
        // An anonymous source ("") journals in DIR itself, where a plain
        // `serve --journal DIR` always wrote.
        let files_in_dir = || {
            let entries = std::fs::read_dir(&tmp).unwrap();
            entries
                .filter(|e| e.as_ref().unwrap().path().is_file())
                .count()
        };
        assert_eq!(files_in_dir(), 0);
        run(factory(""), &meta, &samples);
        assert!(files_in_dir() > 0, "anonymous journal goes to DIR");
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
