//! Memory is flat in stream length: a session's live heap after twenty
//! back-to-back passes of a trace is what it was after two, under each of
//! the three architectures. A binary of
//! its own, because the counting allocator is process-wide and the
//! measurement must not share the heap with other tests' threads.

use rfdump::arch::{ArchConfig, ArchKind, Session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Heap bytes currently allocated by this process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn live_heap_does_not_grow_with_the_length_of_the_stream() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/wifi.rfdt");
    let (header, samples) = rfd_ether::trace::read_trace(&path).unwrap();
    let piconets = vec![rfd_integration::piconet()];
    let naive_energy = ArchConfig {
        kind: ArchKind::NaiveEnergy,
        ..ArchConfig::naive(piconets.clone())
    };
    for base in [
        ArchConfig::rfdump(piconets.clone()),
        ArchConfig::naive(piconets),
        naive_energy,
    ] {
        let cfg = ArchConfig {
            band: rfd_ether::Band {
                sample_rate: header.sample_rate,
                center_hz: header.center_hz,
            },
            // The span trace is a ring that fills to its bound over the
            // first 16k analyzer calls; bounded, but not flat over twenty
            // passes.
            telemetry: false,
            workers: 0,
            ..base
        };
        let mut session = Session::open(&cfg, header.sample_rate, None, None);
        let mut released = 0;
        let mut live_after = Vec::new();
        for _pass in 0..20 {
            for piece in samples.chunks(4096) {
                // What is released is dropped here, as a server that has
                // published it would.
                released += session.push(piece).records.len();
            }
            live_after.push(LIVE.load(Ordering::Relaxed));
        }
        assert!(
            released >= 100,
            "{:?}: only {released} records: nothing was exercised",
            cfg.kind
        );
        // Eighteen more passes are 11 MB of samples and 200 records; what
        // is allowed is the slack of a few bounded histories still settling.
        let growth = live_after[19] - live_after[1];
        assert!(
            growth.abs() < 16 * 1024,
            "{:?}: live heap moved by {growth} B between pass 2 and pass 20 \
             ({} samples per pass): {live_after:?}",
            cfg.kind,
            samples.len()
        );
    }
}
