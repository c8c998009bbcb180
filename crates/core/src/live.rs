//! The live analysis pipeline: the glue that lets `rfd_net`'s ingest
//! server run the full offline architecture over each source's stream
//! (the server gets one instance per source from [`crate::fleet`]'s
//! factory).
//!
//! `rfd-net` is deliberately ignorant of the analysis stack (it only knows
//! the [`rfd_net::Pipeline`] trait); this module closes the loop by opening
//! an [`arch::Session`](crate::arch::Session) per stream, with the stream's
//! own band parameters, and pushing each chunk into it as the server pops
//! it. Records are rendered with the same
//! [`PacketRecord::format_line`](crate::records::PacketRecord::format_line)
//! the offline CLI prints and leave in the order the session releases them
//! — the order `rfdump -r` prints, which is what makes a subscriber's
//! stream byte-identical to it on the same trace.

use crate::arch::{ArchConfig, ArchOutput, Released, Session};
use rfd_dsp::Complex32;
use rfd_net::frame::{RecordMsg, StreamMeta};
use rfd_telemetry::Registry;
use std::sync::{Arc, Mutex};

/// Shared slot where the pipeline deposits each session's full output, so
/// the serving CLI can render `--stats-json` (with the live `net` section)
/// after the server stops (the pipeline itself is owned by the server by
/// then).
pub type SharedOutput = Arc<Mutex<Option<ArchOutput>>>;

/// [`rfd_net::Pipeline`] implementation backed by the full rfdump
/// architecture.
pub(crate) struct LivePipeline {
    cfg: ArchConfig,
    output: SharedOutput,
    registry: Option<Arc<Registry>>,
}

impl LivePipeline {
    /// Wraps `cfg`. The band in `cfg` is a placeholder: each session's
    /// [`StreamMeta`] overrides it, so one server handles traces captured
    /// at different rates or band centers.
    pub fn new(cfg: ArchConfig) -> Self {
        Self {
            cfg,
            output: Arc::new(Mutex::new(None)),
            registry: None,
        }
    }

    /// Accumulates every session's telemetry into `registry` (the registry
    /// a `--metrics-addr` scrape endpoint serves) instead of a fresh
    /// per-session one. No effect when the config has telemetry off.
    pub(crate) fn with_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Replaces the output slot with an externally owned one, so several
    /// pipeline instances (one per source) can deposit into a single slot
    /// the serving CLI drains after shutdown. Last writer wins.
    pub(crate) fn with_output(mut self, slot: SharedOutput) -> Self {
        self.output = slot;
        self
    }
}

impl rfd_net::Pipeline for LivePipeline {
    fn open(&mut self, meta: &StreamMeta) -> Box<dyn rfd_net::Session + '_> {
        let mut cfg = self.cfg.clone();
        cfg.band = rfd_ether::Band {
            sample_rate: meta.sample_rate,
            center_hz: meta.center_hz,
        };
        // A socket cannot say how long its stream will be.
        let session = Session::open(&cfg, meta.sample_rate, None, self.registry.clone());
        Box::new(LiveSession {
            session,
            output: &self.output,
        })
    }
}

struct LiveSession<'a> {
    session: Session,
    output: &'a SharedOutput,
}

fn render(released: Released) -> Vec<RecordMsg> {
    released
        .records
        .iter()
        .map(|r| RecordMsg {
            start_us: r.start_us,
            end_us: r.end_us,
            line: r.format_line(),
        })
        .collect()
}

impl rfd_net::Session for LiveSession<'_> {
    fn push(&mut self, samples: &[Complex32]) -> Vec<RecordMsg> {
        render(self.session.push(samples))
    }

    fn finish(self: Box<Self>) -> Vec<RecordMsg> {
        let LiveSession { session, output } = *self;
        let (last, out) = session.finish();
        *output.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        render(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ArchKind, DetectorSet};
    use rfd_net::Pipeline as _;

    #[test]
    fn live_pipeline_matches_offline_records() {
        // A short Wi-Fi-ish burst through both paths must render the same
        // lines: the whole byte-identity contract in miniature.
        let fs = 8e6;
        let n = 80_000;
        let samples: Vec<Complex32> = (0..n)
            .map(|i| {
                let t = i as f32 / fs as f32;
                if (8_000..24_000).contains(&i) {
                    Complex32::new((t * 1e6).sin() * 0.5, (t * 1e6).cos() * 0.5)
                } else {
                    Complex32::new((t * 7e5).sin() * 1e-3, 0.0)
                }
            })
            .collect();
        let cfg = ArchConfig {
            kind: ArchKind::RfDump(DetectorSet::TimingAndPhase),
            demodulate: false,
            band: rfd_ether::Band {
                sample_rate: fs,
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
        };
        let offline = crate::arch::run_architecture(&cfg, &samples, fs);
        let slot = SharedOutput::default();
        let mut live = LivePipeline::new(cfg).with_output(slot.clone());
        let meta = StreamMeta {
            sample_rate: fs,
            center_hz: 0.0,
            scale: 1.0,
        };
        // Pushed in socket-sized chunks, as the server would.
        let mut session = live.open(&meta);
        let mut records = Vec::new();
        for chunk in samples.chunks(4096) {
            records.extend(session.push(chunk));
        }
        records.extend(session.finish());
        assert_eq!(records.len(), offline.records.len());
        for (msg, rec) in records.iter().zip(offline.records.iter()) {
            assert_eq!(msg.line, rec.format_line());
        }
        assert!(
            slot.lock().unwrap().is_some(),
            "session output must be deposited"
        );
    }
}
