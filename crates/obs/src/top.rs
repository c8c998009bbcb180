//! Rendering helpers for `rfdump top` — the refreshing terminal view over
//! a scrape endpoint.
//!
//! The CLI polls `/metrics` and `/events`, and this module turns two
//! consecutive scrapes into one screenful: counter rates from the deltas,
//! per-stage latency quantiles re-derived from the cumulative buckets, and
//! the tail of the event ring. Everything here is pure (text in, text
//! out), so the tests never need a terminal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parses exposition text into a flat sample map: the full sample key as
/// written (name plus any label set, e.g. `rfd_latency_e2e_us_bucket{le="16"}`)
/// mapped to its value. Comment lines and unparseable lines are skipped —
/// `top` is a viewer, not a validator.
pub fn parse_samples(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Our endpoint never emits timestamps or spaces inside label
        // values, so the value is everything after the last space.
        if let Some((key, val)) = line.rsplit_once(' ') {
            if let Ok(v) = val.parse::<f64>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

/// Sorted cumulative buckets `(le, cum)` of a histogram `family`.
fn buckets(samples: &BTreeMap<String, f64>, family: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{family}_bucket{{le=\"");
    let mut b: Vec<(f64, f64)> = samples
        .iter()
        .filter_map(|(k, &v)| {
            let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, v))
        })
        .collect();
    b.sort_by(|a, b| a.0.total_cmp(&b.0));
    b
}

/// Estimates quantile `q` (0..1) of a histogram family from its cumulative
/// buckets: the upper bound of the first bucket whose cumulative count
/// reaches `q * count`. Returns `None` when the family is absent or empty.
/// An answer in the overflow bucket reports the largest finite bound.
pub fn quantile(samples: &BTreeMap<String, f64>, family: &str, q: f64) -> Option<f64> {
    let count = *samples.get(&format!("{family}_count"))?;
    if count <= 0.0 {
        return None;
    }
    let b = buckets(samples, family);
    let target = q * count;
    let mut last_finite = None;
    for &(le, cum) in &b {
        if le.is_finite() {
            last_finite = Some(le);
        }
        if cum >= target {
            return if le.is_finite() {
                Some(le)
            } else {
                last_finite
            };
        }
    }
    last_finite
}

/// Histogram family names present in the sample map (those with a
/// `_count` sample and at least one `_bucket`), sorted.
pub(crate) fn histogram_families(samples: &BTreeMap<String, f64>) -> Vec<String> {
    samples
        .keys()
        .filter_map(|k| k.strip_suffix("_count"))
        .filter(|f| {
            samples
                .keys()
                .any(|k| k.starts_with(&format!("{f}_bucket{{")))
        })
        .map(str::to_string)
        .collect()
}

fn fmt_count(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Renders one screenful from the current scrape, the previous scrape
/// (for rates; `dt_s` seconds apart), and the `/events` JSON document.
pub fn render(
    addr: &str,
    cur: &BTreeMap<String, f64>,
    prev: Option<(&BTreeMap<String, f64>, f64)>,
    events_json: Option<&str>,
) -> String {
    let mut out = String::with_capacity(2048);
    let _ = writeln!(out, "rfdump top — {addr}");
    let _ = writeln!(out);

    // Counter totals and rates: records per protocol plus the pipeline /
    // net volume counters. Plain (label-free) counters only.
    let interesting = |name: &str| {
        name.starts_with("rfd_records_")
            || name == "rfd_peaks_detected"
            || name == "rfd_net_samples_in"
            || name == "rfd_net_records_published"
            || name == "rfd_events_emitted"
    };
    let _ = writeln!(out, "{:<34} {:>12} {:>12}", "counter", "total", "per-sec");
    for (name, &v) in cur.iter().filter(|(n, _)| interesting(n)) {
        let rate = match prev {
            Some((p, dt)) if dt > 0.0 => p
                .get(name)
                .map(|&old| format!("{:.1}", (v - old).max(0.0) / dt))
                .unwrap_or_else(|| "-".into()),
            _ => "-".into(),
        };
        let _ = writeln!(out, "{:<34} {:>12} {:>12}", name, fmt_count(v), rate);
    }
    let _ = writeln!(out);

    // Latency waterfall from the cumulative buckets.
    let lat: Vec<String> = histogram_families(cur)
        .into_iter()
        .filter(|f| f.starts_with("rfd_latency_"))
        .collect();
    if !lat.is_empty() {
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>9} {:>9} {:>9}",
            "stage latency", "count", "p50", "p95", "p99"
        );
        for f in lat {
            let stage = f.trim_start_matches("rfd_latency_");
            let count = cur.get(&format!("{f}_count")).copied().unwrap_or(0.0);
            let q = |q: f64| {
                quantile(cur, &f, q)
                    .map(|v| format!("{v:.0}us"))
                    .unwrap_or_else(|| "-".into())
            };
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>9} {:>9} {:>9}",
                stage,
                fmt_count(count),
                q(0.50),
                q(0.95),
                q(0.99)
            );
        }
        let _ = writeln!(out);
    }

    // Tail of the event ring.
    if let Some(doc) = events_json.and_then(|t| rfd_telemetry::json::parse(t).ok()) {
        let emitted = doc.get("emitted").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let _ = writeln!(out, "events ({} emitted)", fmt_count(emitted));
        if let Some(ring) = doc.get("ring").and_then(|r| r.as_arr()) {
            for ev in ring.iter().rev().take(8).rev() {
                let ts = ev.get("ts_us").and_then(|v| v.as_f64()).unwrap_or(0.0);
                let kind = ev.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
                let detail = ev.get("detail").and_then(|v| v.as_str()).unwrap_or("");
                let _ = writeln!(out, "  {:>10.3}s {:<22} {}", ts / 1e6, kind, detail);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "\
# HELP rfd_peaks_detected rfdump `peaks.detected`
# TYPE rfd_peaks_detected counter
rfd_peaks_detected 40
# TYPE rfd_records_802_11 counter
rfd_records_802_11 12
# TYPE rfd_latency_e2e_us histogram
rfd_latency_e2e_us_bucket{le=\"10\"} 5
rfd_latency_e2e_us_bucket{le=\"100\"} 9
rfd_latency_e2e_us_bucket{le=\"+Inf\"} 10
rfd_latency_e2e_us_sum 512
rfd_latency_e2e_us_count 10
";

    #[test]
    fn parses_samples_and_skips_comments() {
        let s = parse_samples(DEMO);
        assert_eq!(s["rfd_peaks_detected"], 40.0);
        assert_eq!(s["rfd_latency_e2e_us_bucket{le=\"100\"}"], 9.0);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn quantile_reads_cumulative_buckets() {
        let s = parse_samples(DEMO);
        // p50 of 10 obs → target 5 → first bucket (le=10) reaches it.
        assert_eq!(quantile(&s, "rfd_latency_e2e_us", 0.5), Some(10.0));
        // p90 → target 9 → le=100.
        assert_eq!(quantile(&s, "rfd_latency_e2e_us", 0.9), Some(100.0));
        // p99 lands in +Inf → reported as the largest finite bound.
        assert_eq!(quantile(&s, "rfd_latency_e2e_us", 0.99), Some(100.0));
        assert_eq!(quantile(&s, "rfd_absent", 0.5), None);
    }

    #[test]
    fn render_shows_rates_and_latency() {
        let cur = parse_samples(DEMO);
        let mut prev = cur.clone();
        *prev.get_mut("rfd_records_802_11").unwrap() = 2.0;
        let events = r#"{"emitted": 3, "dropped": 0, "ring": [
            {"seq": 1, "ts_us": 1500000, "kind": "governor_shed", "detail": "level 0 -> 1"}
        ]}"#;
        let screen = render("127.0.0.1:9", &cur, Some((&prev, 2.0)), Some(events));
        assert!(screen.contains("rfd_records_802_11"));
        assert!(screen.contains("5.0"), "rate (12-2)/2 = 5.0:\n{screen}");
        assert!(screen.contains("e2e_us"));
        assert!(screen.contains("governor_shed"));
        assert!(screen.contains("level 0 -> 1"));
    }

    #[test]
    fn render_survives_empty_and_garbage_inputs() {
        let empty = BTreeMap::new();
        let screen = render("x", &empty, None, Some("not json"));
        assert!(screen.contains("rfdump top"));
        let screen = render("x", &parse_samples("garbage\n# weird"), None, None);
        assert!(screen.contains("counter"));
    }
}
