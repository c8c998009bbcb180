//! Layers the offline replay does not isolate: the DSP kernels, the naive
//! always-on demodulators (Table 1), RFDN sample framing, the ingest queue,
//! hub fan-out to eight subscribers, and loopback ingest into a stub
//! pipeline. Each function times one pass over a prefix of the workload's
//! own samples and returns seconds.

use rfd_dsp::fft::Fft;
use rfd_dsp::fir::{lowpass, Fir};
use rfd_dsp::window::Window;
use rfd_dsp::Complex32;
use rfd_net::frame::{encode_frame, DEFAULT_CHUNK_SAMPLES};
use rfd_net::{
    ChunkQueue, FleetConfig, FleetServer, Frame, FrameDecoder, HubMsg, OverflowPolicy,
    PipelineFactory, RecordHub, RecordMsg, SendRate, Server, ServerConfig, StreamMeta, TraceSender,
};
use rfd_perfbench::alloc::{snapshot, AllocCount};
use std::hint::black_box;
use std::time::Instant;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// The Bluetooth channelizer's 41-tap low-pass over `x`.
pub fn fir41(x: &[Complex32]) -> f64 {
    let mut fir = Fir::new(lowpass(600e3, 8e6, 41, Window::Hamming));
    let mut out = Vec::with_capacity(x.len());
    timed(|| {
        fir.process(black_box(x), &mut out);
        black_box(out.len())
    })
    .0
}

/// Instantaneous power of `x` (the energy gate's kernel).
pub fn power(x: &[Complex32]) -> f64 {
    let mut out = Vec::with_capacity(x.len());
    timed(|| {
        rfd_dsp::kernels::power_into(black_box(x), &mut out);
        black_box(out.len())
    })
    .0
}

/// First phase difference of `x` (the phase detectors' kernel).
pub fn phase_diff(x: &[Complex32]) -> f64 {
    let mut out = Vec::with_capacity(x.len());
    timed(|| {
        rfd_dsp::phase::phase_diff_into(black_box(x), &mut out);
        black_box(out.len())
    })
    .0
}

/// 64-point power spectra over `x` (the frequency detector's kernel).
pub fn fft64(x: &[Complex32]) -> f64 {
    let fft = Fft::new(64);
    let mut ps = vec![0.0f32; 64];
    timed(|| {
        for block in black_box(x).chunks_exact(64) {
            fft.power_spectrum(block, &mut ps);
        }
        black_box(ps[0])
    })
    .0
}

/// The 802.11b receiver run continuously over `x`, as the naive
/// architecture does.
pub fn wifi_rx(x: &[Complex32], fs: f64) -> f64 {
    let mut rx = rfd_phy::wifi::WifiRx::new(fs);
    timed(|| {
        for block in black_box(x).chunks(8192) {
            rx.process(block);
        }
        black_box(rx.take_results().len())
    })
    .0
}

/// One Bluetooth channel receiver run continuously over `x`.
pub fn bt_rx(x: &[Complex32], fs: f64) -> f64 {
    let mut rx =
        rfd_phy::bluetooth::demod::BtChannelRx::new(35, fs, 0.0, vec![super::staged::piconet()]);
    timed(|| {
        for block in black_box(x).chunks(8192) {
            rx.process(block);
        }
        black_box(rx.finish().len())
    })
    .0
}

/// Quantizes `x` the way `send` puts it on the wire.
pub fn quantize(x: &[Complex32], scale: f32) -> Vec<(i16, i16)> {
    let q = |v: f32| {
        (v / scale)
            .round()
            .clamp(f32::from(i16::MIN), f32::from(i16::MAX)) as i16
    };
    x.iter().map(|z| (q(z.re), q(z.im))).collect()
}

/// What framing `iq` in `chunk`-sample SampleChunk frames cost.
pub struct Framing {
    /// `encode_frame` over every chunk, seconds.
    pub encode_s: f64,
    /// `FrameDecoder` over the encoded bytes, seconds.
    pub decode_s: f64,
    /// Frames.
    pub frames: u64,
    /// What the decode pass allocated.
    pub decode_allocs: AllocCount,
}

/// Encodes and decodes `iq` as SampleChunk frames of `chunk` samples, fed to
/// the decoder one frame's bytes at a time as a socket read would.
pub fn framing(iq: &[(i16, i16)], chunk: usize) -> Framing {
    let mut wires = Vec::with_capacity(iq.len() / chunk + 1);
    let (encode_s, ()) = timed(|| {
        let mut start = 0u64;
        for (seq, c) in iq.chunks(chunk).enumerate() {
            let frame = Frame::SampleChunk {
                start_sample: start,
                iq: c.to_vec(),
            };
            wires.push(encode_frame(&frame, seq as u32));
            start += c.len() as u64;
        }
    });
    let mut dec = FrameDecoder::new();
    let before = snapshot();
    let (decode_s, n) = timed(|| {
        let mut n = 0u64;
        for w in &wires {
            dec.push(w);
            while let Some(f) = dec.next_frame().expect("own frames decode") {
                if let Frame::SampleChunk { iq, .. } = f.frame {
                    n += iq.len() as u64;
                }
            }
        }
        n
    });
    assert_eq!(
        n,
        iq.len() as u64,
        "every sample must come back out of the decoder"
    );
    Framing {
        encode_s,
        decode_s,
        frames: wires.len() as u64,
        decode_allocs: snapshot().since(before),
    }
}

/// Push + pop of `n` 4096-sample chunks through the server's ingest queue.
pub fn queue(n: usize) -> f64 {
    let q: ChunkQueue<Vec<Complex32>> = ChunkQueue::new(64, OverflowPolicy::Block);
    let mut spare = vec![Complex32::ZERO; DEFAULT_CHUNK_SAMPLES];
    timed(|| {
        for _ in 0..n {
            q.push(std::mem::take(&mut spare))
                .expect("the queue is open");
            spare = q.pop().expect("just pushed");
        }
        black_box(spare.len())
    })
    .0
}

/// Publishing `lines` as records to `subs` subscribers whose queues are
/// deep enough never to evict.
pub fn hub_publish(lines: &[String], subs: usize) -> f64 {
    let hub = RecordHub::new(lines.len().max(1));
    let held: Vec<_> = (0..subs).map(|_| hub.subscribe()).collect();
    let msgs: Vec<HubMsg> = lines
        .iter()
        .map(|l| {
            HubMsg::Record(RecordMsg {
                start_us: 0.0,
                end_us: 0.0,
                line: l.clone(),
            })
        })
        .collect();
    let (s, ()) = timed(|| {
        for m in msgs {
            hub.publish(m);
        }
    });
    drop(held);
    s
}

fn meta(fs: f64, scale: f32) -> StreamMeta {
    StreamMeta {
        sample_rate: fs,
        center_hz: 37e6,
        scale,
    }
}

fn chunks(iq: &[(i16, i16)]) -> impl Iterator<Item = Vec<(i16, i16)>> + '_ {
    iq.chunks(DEFAULT_CHUNK_SAMPLES).map(<[_]>::to_vec)
}

/// Loopback ingest of `iq` into the single-session server with a pipeline
/// that does nothing: connect to server exit, seconds.
pub fn ingest(iq: &[(i16, i16)], fs: f64, scale: f32) -> f64 {
    let cfg = ServerConfig {
        once: true,
        ..Default::default()
    };
    let stub = |_: &StreamMeta, _: Vec<Complex32>| Vec::<RecordMsg>::new();
    let server = Server::bind("127.0.0.1:0", cfg, Box::new(stub), None).expect("bind loopback");
    let addr = server.local_addr().expect("bound");
    let run = std::thread::spawn(move || server.run());
    let (s, ()) = timed(|| {
        let mut tx = TraceSender::connect(addr).expect("connect loopback");
        tx.send_quantized(meta(fs, scale), chunks(iq), SendRate::Max)
            .expect("send");
        tx.finish().expect("finish");
        let stats = run.join().expect("server thread").expect("server run");
        assert_eq!(stats.samples_in, iq.len() as u64);
    });
    s
}

/// The same into the fleet server, `iq` split evenly over `sources`
/// concurrent senders.
pub fn fleet_ingest(iq: &[(i16, i16)], fs: f64, scale: f32, sources: usize) -> f64 {
    let factory: PipelineFactory =
        Box::new(|_: &str| Box::new(|_: &StreamMeta, _: Vec<Complex32>| Vec::<RecordMsg>::new()));
    let cfg = FleetConfig {
        expect: Some(sources as u64),
        ..Default::default()
    };
    let server = FleetServer::bind("127.0.0.1:0", cfg, factory, None).expect("bind loopback");
    let addr = server.local_addr().expect("bound");
    let run = std::thread::spawn(move || server.run());
    let share = iq.len() / sources;
    let (s, ()) = timed(|| {
        std::thread::scope(|scope| {
            for k in 0..sources {
                let part = &iq[k * share..(k + 1) * share];
                scope.spawn(move || {
                    let mut tx = TraceSender::connect_source(addr, &format!("s{k}"))
                        .expect("connect loopback");
                    tx.send_quantized(meta(fs, scale), chunks(part), SendRate::Max)
                        .expect("send");
                    tx.finish().expect("finish");
                });
            }
        });
        let snap = run.join().expect("server thread").expect("server run");
        assert_eq!(snap.net.samples_in, (share * sources) as u64);
    });
    s
}
