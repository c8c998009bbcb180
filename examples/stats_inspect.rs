//! Consume a `--stats-json` document: parse it with the in-repo JSON codec,
//! check the schema, and pretty-print the run the way a dashboard would —
//! stage ratios, hottest blocks, dispatcher forwarding fractions, decode
//! latency quantiles.
//!
//! Run with: `cargo run --release -p rfd-examples --bin stats_inspect [stats.json]`
//!
//! With no argument it first produces a document itself, by running the
//! RFDump pipeline over a small synthetic ether (the equivalent of
//! `rfdump -s --stats-json -`).

use rfd_mac::{DcfConfig, L2PingConfig, L2PingSim, WifiDcfSim};
use rfd_phy::bluetooth::demod::PiconetId;
use rfd_telemetry::json::{parse, JsonValue};
use rfdump::arch::{run_architecture, ArchConfig};
use rfdump::stats::{stats_json, STATS_SCHEMA, STATS_VERSION};

fn demo_document() -> String {
    let mut wifi = WifiDcfSim::new(DcfConfig::default());
    wifi.queue_ping_flow(1, 2, 3, 400, 12_000.0, 0.0);
    let mut bt = L2PingSim::new(L2PingConfig {
        count: 8,
        ..Default::default()
    });
    let events = rfd_mac::merge_schedules(vec![wifi.run(), bt.run()]);
    let mut scene = rfd_ether::scene::Scene::new(1e-4, 7);
    for node in 0..16 {
        scene.set_node(node, 0.0, (node as f64 - 8.0) * 500.0);
    }
    let horizon = events.iter().map(|e| e.end_us()).fold(0.0, f64::max) + 1_000.0;
    let trace = scene.render(&events, horizon);
    let cfg = ArchConfig::rfdump(vec![PiconetId {
        lap: 0x9E8B33,
        uap: 0x47,
    }]);
    let out = run_architecture(&cfg, &trace.samples, trace.band.sample_rate);
    stats_json(&out, None).to_json()
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(f64::NAN)
}

fn main() {
    let text = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => {
            eprintln!("no file given — generating a stats document from a demo run\n");
            demo_document()
        }
    };

    let doc = parse(&text).expect("not valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some(STATS_SCHEMA),
        "not an rfd-stats document"
    );
    // One schema version, read exactly: older and newer documents are
    // refused rather than half-understood.
    let version = num(&doc, "version");
    assert!(
        version == STATS_VERSION as f64,
        "document version {version} is not the version this reader reads ({STATS_VERSION})"
    );

    let trace = doc.get("trace").expect("trace section");
    println!(
        "trace: {:.1} ms at {:.1} Msps ({} samples)",
        num(trace, "seconds") * 1e3,
        num(trace, "sample_rate") / 1e6,
        num(trace, "samples"),
    );
    let total = doc.get("total").expect("total section");
    println!(
        "total: {:.2} ms CPU, {:.2} ms wall, CPU/real-time = {:.3}\n",
        num(total, "cpu_ms"),
        num(total, "wall_ms"),
        num(total, "cpu_over_realtime"),
    );

    println!("per-stage CPU over real time:");
    if let Some(stages) = doc.get("stages").and_then(|s| s.as_obj()) {
        for (stage, v) in stages {
            println!(
                "  {stage:<10} {:>8.4}x  ({:.2} ms CPU)",
                num(v, "cpu_over_realtime"),
                num(v, "cpu_s") * 1e3,
            );
        }
    }

    // Hottest blocks first.
    if let Some(blocks) = doc.get("blocks").and_then(|b| b.as_arr()) {
        let mut rows: Vec<(&str, f64, f64)> = blocks
            .iter()
            .map(|b| {
                (
                    b.get("name").and_then(|n| n.as_str()).unwrap_or("?"),
                    num(b, "cpu_ms"),
                    num(b, "items_in"),
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("\nhottest blocks:");
        for (name, cpu_ms, items) in rows.iter().take(5) {
            println!("  {name:<40} {cpu_ms:>8.2} ms  {items:>8} items in");
        }
    }

    match doc.get("dispatch") {
        Some(JsonValue::Null) | None => {
            println!("\ndispatch: none (naïve architecture)");
        }
        Some(d) => {
            println!(
                "\ndispatch: {} peaks, {} unclassified",
                num(d, "total_peaks"),
                num(d, "unclassified_peaks"),
            );
            if let Some(per) = d.get("per_protocol").and_then(|p| p.as_obj()) {
                for (proto, v) in per {
                    println!(
                        "  {proto:<12} {:>6} peaks forwarded, {:.2}% of the trace's samples",
                        num(v, "forwarded_peaks"),
                        num(v, "forwarded_fraction") * 100.0,
                    );
                }
            }
        }
    }

    // Which DSP kernel backend the run executed with.
    if let Some(k) = doc.get("kernel") {
        let available: Vec<&str> = k
            .get("available")
            .and_then(|a| a.as_arr())
            .map(|a| a.iter().filter_map(|v| v.as_str()).collect())
            .unwrap_or_default();
        println!(
            "\nkernel: {} (requested {}; available: {})",
            k.get("backend").and_then(|b| b.as_str()).unwrap_or("?"),
            k.get("requested").and_then(|r| r.as_str()).unwrap_or("?"),
            available.join(", "),
        );
    }

    // Fault injection, degradation, supervision.
    match doc.get("faults") {
        Some(JsonValue::Null) | None => {}
        Some(f) => {
            println!(
                "\nfault injection: spec {:?} (seed {})",
                f.get("spec").and_then(|s| s.as_str()).unwrap_or("?"),
                num(f, "seed"),
            );
            if let Some(rules) = f.get("rules").and_then(|r| r.as_arr()) {
                for r in rules {
                    println!(
                        "  {}={:<24} {:>6} calls, {:>6} fired",
                        r.get("kind").and_then(|k| k.as_str()).unwrap_or("?"),
                        r.get("target").and_then(|t| t.as_str()).unwrap_or("?"),
                        num(r, "calls"),
                        num(r, "fired"),
                    );
                }
            }
        }
    }
    match doc.get("degradation") {
        Some(JsonValue::Null) | None => {}
        Some(d) => println!(
            "\ndegradation: level {} ({}), {} escalation(s); \
             shed {} demod / {} detector(s) / {} vote(s)",
            num(d, "level"),
            d.get("level_name").and_then(|n| n.as_str()).unwrap_or("?"),
            num(d, "escalations"),
            num(d, "shed_demod"),
            num(d, "shed_detectors"),
            num(d, "shed_votes"),
        ),
    }
    if let Some(sup) = doc.get("supervision") {
        let panics = num(sup, "analyzer_panics");
        if panics > 0.0 {
            let quarantined: Vec<&str> = sup
                .get("quarantined")
                .and_then(|q| q.as_arr())
                .map(|q| q.iter().filter_map(|v| v.as_str()).collect())
                .unwrap_or_default();
            println!(
                "\nsupervision: survived {panics} analyzer panic(s); quarantined: {}",
                if quarantined.is_empty() {
                    "none".to_string()
                } else {
                    quarantined.join(", ")
                },
            );
        }
    }

    // Durability / crash recovery.
    match doc.get("recovery") {
        Some(JsonValue::Null) | None => {}
        Some(r) => {
            let resumed = matches!(r.get("resumed"), Some(JsonValue::Bool(true)));
            println!(
                "\nrecovery: {}; {} journal entr{} replayed, {} record(s) recovered",
                if resumed {
                    format!(
                        "resumed from journal in {:.1} ms",
                        num(r, "resume_latency_us") / 1e3
                    )
                } else {
                    "journaled (fresh run)".to_string()
                },
                num(r, "entries_replayed"),
                if num(r, "entries_replayed") == 1.0 {
                    "y"
                } else {
                    "ies"
                },
                num(r, "records_recovered"),
            );
            println!(
                "  {} commit(s) and {} checkpoint(s) written this run",
                num(r, "commits_written"),
                num(r, "checkpoints_written"),
            );
        }
    }

    // Per-stage latency waterfall and the event log.
    match doc.get("latency") {
        Some(JsonValue::Null) | None => {}
        Some(lat) => {
            let mut rows: Vec<(&String, &JsonValue)> = lat
                .as_obj()
                .map(|o| o.iter().map(|(k, v)| (k, v)).collect())
                .unwrap_or_default();
            rows.sort_by(|a, b| a.0.cmp(b.0));
            if !rows.is_empty() {
                println!("\nstage latency (time since ingest, µs):");
                for (stage, v) in rows {
                    if num(v, "count") == 0.0 {
                        continue;
                    }
                    println!(
                        "  {stage:<12} n={:<8} p50={:<10.1} p95={:<10.1} p99={:<10.1} max={:.1}",
                        num(v, "count"),
                        num(v, "p50_us"),
                        num(v, "p95_us"),
                        num(v, "p99_us"),
                        num(v, "max_us"),
                    );
                }
            }
        }
    }
    match doc.get("events") {
        Some(JsonValue::Null) | None => {}
        Some(ev) => {
            let emitted = num(ev, "emitted");
            if emitted > 0.0 {
                println!(
                    "\nevents: {} emitted, {} dropped from ring",
                    emitted,
                    num(ev, "dropped"),
                );
                if let Some(ring) = ev.get("ring").and_then(|r| r.as_arr()) {
                    for e in ring.iter().rev().take(10).rev() {
                        println!(
                            "  {:>10.3}s {:<22} {}",
                            num(e, "ts_us") / 1e6,
                            e.get("kind").and_then(|k| k.as_str()).unwrap_or("?"),
                            e.get("detail").and_then(|d| d.as_str()).unwrap_or(""),
                        );
                    }
                }
            }
        }
    }

    // Bounded-latency mode: the budget, the windowed p99 it polices and
    // (for fleet runs) the overload admission-control rollup.
    match doc.get("latency_mode") {
        Some(JsonValue::Null) | None => {}
        Some(lm) => {
            if lm.get("budget_us").is_some() {
                println!(
                    "\nlatency mode: budget {:.1} ms, {} violation(s), last windowed p99 {:.1} ms",
                    num(lm, "budget_us") / 1e3,
                    num(lm, "violations"),
                    num(lm, "last_p99_us") / 1e3,
                );
            }
            match lm.get("fleet") {
                Some(JsonValue::Null) | None => {}
                Some(fl) => println!(
                    "  fleet: budget {:.1} ms, {} violation(s), {} throttle(s), \
                     {} drop(s), {} admission refusal(s){}",
                    num(fl, "budget_us") / 1e3,
                    num(fl, "violations"),
                    num(fl, "shed_throttle"),
                    num(fl, "shed_drop"),
                    num(fl, "admission_refused"),
                    if matches!(fl.get("admission_paused"), Some(JsonValue::Bool(true))) {
                        " — admission PAUSED"
                    } else {
                        ""
                    },
                ),
            }
        }
    }

    // Fleet (multi-sensor) ingest: rollups, then one row per source with
    // its health and, under a latency budget, its shed rung.
    match doc.get("fleet") {
        Some(JsonValue::Null) | None => {}
        Some(f) => {
            println!(
                "\nfleet: {} source(s) joined, {} done, {} refused",
                num(f, "sources_joined"),
                num(f, "sources_done"),
                num(f, "rejects"),
            );
            let resumes = num(f, "resumes");
            let parked = num(f, "sources_parked");
            let flapping = num(f, "flapping");
            let quarantined = num(f, "quarantined");
            let evicted = num(f, "evicted");
            if resumes > 0.0 || parked > 0.0 || flapping > 0.0 || quarantined > 0.0 || evicted > 0.0
            {
                println!(
                    "  {resumes} resume(s), {parked} parked, {flapping} flapping, \
                     {quarantined} quarantined, {evicted} evicted",
                );
            }
            if let Some(per) = f.get("per_source").and_then(|p| p.as_obj()) {
                // Sort by source id so the rendering is stable regardless
                // of document key order.
                let mut rows: Vec<(&String, &JsonValue)> =
                    per.iter().map(|(k, v)| (k, v)).collect();
                rows.sort_by(|a, b| a.0.cmp(b.0));
                for (source, v) in rows {
                    let lifecycle = if matches!(v.get("done"), Some(JsonValue::Bool(true))) {
                        "done"
                    } else {
                        "live"
                    };
                    let health = v
                        .get("health")
                        .and_then(|h| h.as_str())
                        .unwrap_or("healthy");
                    let shed = v.get("shed").and_then(|s| s.as_str()).unwrap_or("none");
                    println!(
                        "  {source:<20} {:>10} samples {:>6} records  fan-out p50={:<8.1} p99={:<8.1} µs  {lifecycle}{}{}",
                        num(v, "samples_in"),
                        num(v, "records"),
                        num(v, "fanout_p50_us"),
                        num(v, "fanout_p99_us"),
                        if health == "healthy" {
                            String::new()
                        } else {
                            format!(" ({health})")
                        },
                        if shed == "none" {
                            String::new()
                        } else {
                            format!(" [shed: {shed}]")
                        },
                    );
                    let gaps = num(v, "sample_gaps");
                    let dropped = num(v, "chunks_dropped");
                    let throttles = num(v, "throttles");
                    if gaps > 0.0 || dropped > 0.0 || throttles > 0.0 {
                        println!(
                            "  {:<20} {gaps} sample gap(s), {dropped} chunk(s) dropped, {throttles} throttle(s)",
                            "",
                        );
                    }
                    let disconnects = num(v, "disconnects");
                    let src_resumes = num(v, "resumes");
                    let flaps = num(v, "flaps");
                    let decode_errors = num(v, "decode_errors");
                    let rejects = num(v, "rejects");
                    if disconnects > 0.0
                        || src_resumes > 0.0
                        || flaps > 0.0
                        || decode_errors > 0.0
                        || rejects > 0.0
                    {
                        println!(
                            "  {:<20} {disconnects} disconnect(s), {src_resumes} resume(s), {flaps} flap(s), \
                             {decode_errors} decode error(s), {rejects} reject(s)",
                            "",
                        );
                    }
                }
            }
        }
    }

    if let Some(hists) = doc.get("histograms").and_then(|h| h.as_obj()) {
        // Sort by name so the rendering is stable regardless of document
        // key order.
        let mut rows: Vec<(&String, &JsonValue)> = hists.iter().map(|(k, v)| (k, v)).collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        println!("\nlatency / confidence distributions:");
        for (name, h) in rows {
            if num(h, "count") == 0.0 {
                continue;
            }
            println!(
                "  {name:<40} n={:<6} p50={:<10.3} p95={:<10.3} p99={:<10.3} max={:.3}",
                num(h, "count"),
                num(h, "p50"),
                num(h, "p95"),
                num(h, "p99"),
                num(h, "max"),
            );
        }
    }
}
