//! Integration tests of the live metrics plane (`rfd-obs`) over real
//! pipeline runs: the golden scrape (a pipeline-backed `/metrics` payload
//! must be valid Prometheus 0.0.4 text carrying the per-stage latency
//! waterfall), HTTP fuzzing of the listener, and scraping concurrently
//! with a chaos run without perturbing the record stream.

use rfd_fault::FaultPlan;
use rfd_integration::{mixed_trace, piconet, random_bytes, seeded_cases};
use rfd_obs::{prom, scrape, MetricsServer};
use rfd_telemetry::Registry;
use rfdump::arch::{run_architecture_with_registry, ArchConfig, ArchOutput};
use rfdump::records::PacketRecord;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn cfg(workers: usize) -> ArchConfig {
    let trace = mixed_trace(2, 2, 25.0, 42);
    ArchConfig {
        band: trace.band,
        noise_floor: Some(trace.noise_power),
        telemetry: true,
        workers,
        ..ArchConfig::rfdump(vec![piconet()])
    }
}

fn run_with(registry: Arc<Registry>, workers: usize) -> ArchOutput {
    let trace = mixed_trace(2, 2, 25.0, 42);
    run_architecture_with_registry(
        &cfg(workers),
        &trace.samples,
        trace.band.sample_rate,
        Some(registry),
    )
}

/// Golden scrape: run the full pipeline into a served registry, then
/// require the `/metrics` payload to be strictly parseable 0.0.4 text
/// containing the counter families and the per-stage latency histograms
/// the dashboard depends on, with e2e covering every analyzed chunk.
#[test]
fn pipeline_scrape_is_valid_exposition() {
    let reg = Arc::new(Registry::new());
    let srv = MetricsServer::bind("127.0.0.1:0", reg.clone()).unwrap();
    let addr = srv.local_addr().unwrap().to_string();
    let handle = srv.spawn();

    let out = run_with(reg, 0);
    assert!(!out.records.is_empty(), "trace decoded no records");

    let text = scrape(&addr, "/metrics").unwrap();
    let exp = prom::validate(&text).expect("pipeline scrape must be 0.0.4");
    for family in [
        "rfd_peaks_detected",
        "rfd_trace_samples",
        "rfd_events_emitted",
        "rfd_latency_detect_us",
        "rfd_latency_dispatch_us",
        "rfd_latency_analyze_us",
        "rfd_latency_e2e_us",
    ] {
        assert!(exp.has_family(family), "family {family} missing:\n{text}");
    }
    assert_eq!(
        exp.families["rfd_latency_e2e_us"],
        prom::FamilyType::Histogram
    );
    // The e2e histogram observed at least one chunk, and its +Inf bucket
    // agrees with what `top` would re-derive from the cumulative buckets.
    let samples = rfd_obs::top::parse_samples(&text);
    let count = samples["rfd_latency_e2e_us_count"];
    assert!(count >= 1.0, "e2e latency histogram is empty");
    assert!(rfd_obs::top::quantile(&samples, "rfd_latency_e2e_us", 0.5).is_some());

    // The event ring endpoint serves parseable JSON alongside.
    let events = scrape(&addr, "/events").unwrap();
    rfd_telemetry::json::parse(&events).expect("/events must be JSON");
    handle.join();
}

/// Fuzz the listener with random garbage: every connection must get an
/// answer (or a clean close) without wedging the server, and a
/// well-formed scrape must still validate afterwards.
#[test]
fn listener_survives_http_fuzz() {
    let reg = Arc::new(Registry::new());
    reg.counter("peaks.detected").add(5);
    let srv = MetricsServer::bind("127.0.0.1:0", reg).unwrap();
    let addr = srv.local_addr().unwrap().to_string();
    let handle = srv.spawn();

    seeded_cases(0xB0B, 32, |rng| {
        let mut req = random_bytes(rng, 0, 600);
        // Half the cases are "almost HTTP": a real verb, then noise.
        if rng.next_range(2) == 0 {
            let mut framed = b"GET /".to_vec();
            framed.extend_from_slice(&req);
            framed.extend_from_slice(b" HTTP/1.0\r\n\r\n");
            req = framed;
        } else {
            req.extend_from_slice(b"\r\n\r\n");
        }
        // Any response (or clean close) is acceptable; a hang or panic
        // is not. scrape_raw enforces a 2 s timeout.
        let _ = rfd_obs::client::scrape_raw(&addr, &req);
    });

    let text = scrape(&addr, "/metrics").expect("server must survive the fuzz");
    prom::validate(&text).expect("post-fuzz scrape must still be 0.0.4");
    assert!(text.contains("rfd_peaks_detected 5"));
    handle.join();
}

fn split_wifi(out: &ArchOutput) -> (Vec<PacketRecord>, Vec<PacketRecord>) {
    out.records
        .iter()
        .cloned()
        .partition(|r| r.protocol == rfd_phy::Protocol::Wifi)
}

/// Whether `a` and `b` are the same sequence once at most one element has
/// been taken out of each.
fn equal_but_for_one_each(a: &[PacketRecord], b: &[PacketRecord]) -> bool {
    // Index `len` takes nothing out.
    let without = |v: &[PacketRecord], i: usize| {
        let mut v = v.to_vec();
        if i < v.len() {
            v.remove(i);
        }
        v
    };
    (0..=a.len()).any(|i| (0..=b.len()).any(|j| without(a, i) == without(b, j)))
}

/// Chaos + concurrent scraping must not perturb the record stream: a run
/// with fault injection, a live endpoint and a scraper hammering it
/// produces byte-for-byte the records of the same chaos run without any
/// observer, and the endpoint stays parseable throughout.
#[test]
fn scrape_under_chaos_leaves_records_intact() {
    let trace = mixed_trace(2, 2, 25.0, 42);
    // Rule counters live inside the plan, so each arm gets a fresh parse
    // of the same spec — a shared plan would fire its `#2` panic in one
    // run only.
    let chaos_cfg = |workers: usize| ArchConfig {
        faults: Some(Arc::new(
            FaultPlan::parse("seed=7;slow=analyze%5/200us;panic=analyze:wifi#2").unwrap(),
        )),
        ..cfg(workers)
    };

    for workers in [0, 4] {
        // Reference arm: chaos, telemetry, no endpoint, no scraper.
        let baseline = run_architecture_with_registry(
            &chaos_cfg(workers),
            &trace.samples,
            trace.band.sample_rate,
            None,
        );

        // Observed arm: same chaos run with a served registry and a
        // scraper thread polling it for the whole run.
        let reg = Arc::new(Registry::new());
        let srv = MetricsServer::bind("127.0.0.1:0", reg.clone()).unwrap();
        let addr = srv.local_addr().unwrap().to_string();
        let handle = srv.spawn();
        let stop = Arc::new(AtomicBool::new(false));
        let scraper = {
            let (addr, stop) = (addr.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut ok = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(text) = scrape(&addr, "/metrics") {
                        prom::validate(&text).expect("mid-run scrape must be 0.0.4");
                        ok += 1;
                    }
                }
                ok
            })
        };

        let observed = run_architecture_with_registry(
            &chaos_cfg(workers),
            &trace.samples,
            trace.band.sample_rate,
            Some(reg),
        );
        stop.store(true, Ordering::Relaxed);
        let scrapes = scraper.join().unwrap();
        assert!(scrapes > 0, "scraper never completed a scrape");

        if workers == 0 {
            assert_eq!(
                baseline.records, observed.records,
                "workers={workers}: scraping changed the record stream"
            );
        } else {
            // `panic=analyze:wifi#2` hits whichever Wi-Fi dispatch is second
            // to *reach* the plan, and on a pool that is a thread race: the
            // two arms may each lose a different dispatch's record, scraper
            // or no scraper. Everything the fault cannot touch must still
            // be identical, and the Wi-Fi streams must differ by no more
            // than the one record each arm's panic took.
            let (wifi_a, rest_a) = split_wifi(&baseline);
            let (wifi_b, rest_b) = split_wifi(&observed);
            assert_eq!(
                rest_a, rest_b,
                "workers={workers}: scraping changed the non-Wi-Fi records"
            );
            assert!(
                equal_but_for_one_each(&wifi_a, &wifi_b),
                "workers={workers}: Wi-Fi records differ by more than one \
                 panicked dispatch per arm:\n{wifi_a:#?}\nvs\n{wifi_b:#?}"
            );
        }
        let text = scrape(&addr, "/metrics").unwrap();
        prom::validate(&text).expect("post-run scrape must be 0.0.4");
        handle.join();
    }
}
