//! Prometheus text exposition format v0.0.4: encoder and validator.
//!
//! The encoder maps a [`rfd_telemetry::Snapshot`] onto exposition text:
//! counters and gauges become single samples, histograms become the
//! canonical `_bucket{le=...}` / `_sum` / `_count` triplet with
//! *cumulative* bucket counts (the registry stores per-bucket counts, so
//! the encoder integrates). Registry names use `.` as a hierarchy
//! separator, which is illegal in Prometheus metric names; every name is
//! sanitized to `[a-zA-Z0-9_]` and prefixed `rfd_`, with the original
//! name preserved in the `# HELP` line.
//!
//! The validator is a strict line-level parser of the same dialect. It is
//! not a full PromQL client — it checks exactly what our tests and CI need:
//! well-formed sample lines, `# TYPE` metadata preceding samples,
//! histogram bucket monotonicity, and `+Inf` bucket == `_count`.

use rfd_telemetry::{HistogramSnapshot, Registry, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Prefix applied to every exposed metric name.
pub(crate) const METRIC_PREFIX: &str = "rfd_";

/// Sanitizes a registry instrument name into a legal Prometheus metric
/// name: `[a-zA-Z0-9_]` only, `rfd_` prefixed.
pub(crate) fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + METRIC_PREFIX.len());
    out.push_str(METRIC_PREFIX);
    for ch in raw.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a sample value the way Prometheus expects (`+Inf` / `-Inf` /
/// `NaN` specials, shortest plain representation otherwise).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escapes a HELP text per the exposition spec (`\\` and `\n`).
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn write_family_header(out: &mut String, name: &str, raw: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} rfdump `{}`", escape_help(raw));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn write_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, c) in h.counts.iter().enumerate() {
        cum += c;
        let le = if i < h.bounds.len() {
            fmt_value(h.bounds[i])
        } else {
            "+Inf".to_string()
        };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum));
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// Encodes a telemetry snapshot as exposition text.
pub(crate) fn encode_snapshot(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    for (raw, v) in &snap.counters {
        let name = metric_name(raw);
        write_family_header(&mut out, &name, raw, "counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (raw, v) in &snap.gauges {
        let name = metric_name(raw);
        write_family_header(&mut out, &name, raw, "gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (raw, h) in &snap.histograms {
        let name = metric_name(raw);
        write_family_header(&mut out, &name, raw, "histogram");
        write_histogram(&mut out, &name, h);
    }
    out
}

/// Encodes a registry — its instruments plus the event-log bookkeeping
/// (`rfd_events_emitted`, `rfd_events_dropped`) — as exposition text.
pub(crate) fn encode_registry(reg: &Registry) -> String {
    let mut out = encode_snapshot(&reg.snapshot());
    let ev = reg.events();
    for (name, raw, v) in [
        ("rfd_events_emitted", "events emitted", ev.emitted()),
        (
            "rfd_events_dropped",
            "events dropped from ring",
            ev.dropped(),
        ),
    ] {
        write_family_header(&mut out, name, raw, "counter");
        let _ = writeln!(out, "{name} {v}");
    }
    out
}

/// Metric family type as declared by a `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyType {
    /// Monotone counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
    /// Quantile summary (accepted, not produced by the encoder).
    Summary,
    /// No declared type.
    Untyped,
}

/// Result of [`validate`]: what a parseable exposition contained.
#[derive(Debug, Default)]
pub struct Exposition {
    /// Declared families by (sanitized) name.
    pub families: BTreeMap<String, FamilyType>,
    /// Total sample lines parsed.
    pub samples: usize,
}

impl Exposition {
    /// True if a family with this exact name was declared.
    pub fn has_family(&self, name: &str) -> bool {
        self.families.contains_key(name)
    }
}

fn is_valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Label pairs of one sample line.
type Labels = Vec<(String, String)>;

/// Splits `name{labels}` into (name, labels). Returns an error on
/// malformed label syntax.
fn split_labels(body: &str) -> Result<(&str, Labels), String> {
    match body.find('{') {
        None => Ok((body, Vec::new())),
        Some(open) => {
            let name = &body[..open];
            let rest = &body[open + 1..];
            let close = rest
                .rfind('}')
                .ok_or_else(|| format!("unterminated label set in {body:?}"))?;
            if !rest[close + 1..].trim().is_empty() {
                return Err(format!("garbage after label set in {body:?}"));
            }
            let mut labels = Vec::new();
            let inner = &rest[..close];
            let mut i = 0;
            let bytes = inner.as_bytes();
            while i < bytes.len() {
                // key
                let eq = inner[i..]
                    .find('=')
                    .map(|p| i + p)
                    .ok_or_else(|| format!("label without '=' in {inner:?}"))?;
                let key = inner[i..eq].trim();
                if key.is_empty() || !is_valid_metric_name(key) {
                    return Err(format!("bad label name {key:?}"));
                }
                if bytes.get(eq + 1) != Some(&b'"') {
                    return Err(format!("label value not quoted in {inner:?}"));
                }
                // quoted value with escapes
                let mut val = String::new();
                let mut j = eq + 2;
                loop {
                    match bytes.get(j) {
                        None => return Err(format!("unterminated label value in {inner:?}")),
                        Some(b'"') => break,
                        Some(b'\\') => {
                            match bytes.get(j + 1) {
                                Some(b'\\') => val.push('\\'),
                                Some(b'"') => val.push('"'),
                                Some(b'n') => val.push('\n'),
                                _ => return Err(format!("bad escape in {inner:?}")),
                            }
                            j += 2;
                        }
                        Some(&c) => {
                            val.push(c as char);
                            j += 1;
                        }
                    }
                }
                labels.push((key.to_string(), val));
                j += 1; // past closing quote
                if bytes.get(j) == Some(&b',') {
                    j += 1;
                }
                i = j;
            }
            Ok((name, labels))
        }
    }
}

/// The family a sample name belongs to: `x_bucket`/`x_sum`/`x_count`
/// belong to histogram/summary family `x`.
fn base_family<'a>(name: &'a str, families: &BTreeMap<String, FamilyType>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if matches!(
                families.get(base),
                Some(FamilyType::Histogram) | Some(FamilyType::Summary)
            ) {
                return base;
            }
        }
    }
    name
}

/// Validates exposition text; returns a summary or the first error.
///
/// Checks: line syntax, `# TYPE` before samples and declared at most once,
/// valid metric/label names, parseable values, histogram buckets labelled
/// `le`, cumulative counts nondecreasing, and the `+Inf` bucket equal to
/// the family's `_count`.
pub fn validate(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    // (family, serialized non-le labels) -> (last cumulative, inf seen, count)
    struct HistState {
        last_cum: f64,
        inf: Option<f64>,
        count: Option<f64>,
    }
    let mut hists: BTreeMap<(String, String), HistState> = BTreeMap::new();

    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        let line = line.trim_end_matches('\r');
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| format!("line {ln}: TYPE without name"))?;
                let kind = it
                    .next()
                    .ok_or_else(|| format!("line {ln}: TYPE without kind"))?;
                if !is_valid_metric_name(name) {
                    return Err(format!("line {ln}: invalid metric name {name:?}"));
                }
                let kind = match kind {
                    "counter" => FamilyType::Counter,
                    "gauge" => FamilyType::Gauge,
                    "histogram" => FamilyType::Histogram,
                    "summary" => FamilyType::Summary,
                    "untyped" => FamilyType::Untyped,
                    other => return Err(format!("line {ln}: unknown TYPE {other:?}")),
                };
                if exp.families.insert(name.to_string(), kind).is_some() {
                    return Err(format!("line {ln}: duplicate TYPE for {name}"));
                }
            }
            // HELP and other comments pass through unchecked.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (body, tail) = match line.find(|c: char| c.is_ascii_whitespace()) {
            Some(sp) if !line[..sp].contains('{') || line.find('{') > Some(sp) => {
                (&line[..sp], line[sp..].trim())
            }
            _ => {
                // Label values may contain spaces; split after the closing '}'.
                match line.rfind('}') {
                    Some(close) => (&line[..=close], line[close + 1..].trim()),
                    None => return Err(format!("line {ln}: not a sample line: {line:?}")),
                }
            }
        };
        let mut tail_it = tail.split_whitespace();
        let value_s = tail_it
            .next()
            .ok_or_else(|| format!("line {ln}: sample without value"))?;
        let value =
            parse_value(value_s).ok_or_else(|| format!("line {ln}: bad value {value_s:?}"))?;
        if let Some(ts) = tail_it.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {ln}: bad timestamp {ts:?}"));
            }
        }
        if tail_it.next().is_some() {
            return Err(format!("line {ln}: trailing garbage"));
        }
        let (name, labels) = split_labels(body).map_err(|e| format!("line {ln}: {e}"))?;
        if !is_valid_metric_name(name) {
            return Err(format!("line {ln}: invalid metric name {name:?}"));
        }
        let family = base_family(name, &exp.families).to_string();
        if let Some(ft) = exp.families.get(&family) {
            if *ft == FamilyType::Histogram {
                let other: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let key = (family.clone(), other.join(","));
                let st = hists.entry(key).or_insert(HistState {
                    last_cum: f64::NEG_INFINITY,
                    inf: None,
                    count: None,
                });
                if name.ends_with("_bucket") {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.clone())
                        .ok_or_else(|| format!("line {ln}: histogram bucket without le label"))?;
                    if value < st.last_cum {
                        return Err(format!(
                            "line {ln}: bucket counts for {family} not cumulative \
                             ({value} after {})",
                            st.last_cum
                        ));
                    }
                    st.last_cum = value;
                    if le == "+Inf" {
                        st.inf = Some(value);
                    } else if parse_value(&le).is_none() {
                        return Err(format!("line {ln}: bad le value {le:?}"));
                    }
                } else if name.ends_with("_count") {
                    st.count = Some(value);
                }
            }
        } else if name != family {
            // suffix matched but family undeclared — plain sample, fine
        }
        exp.samples += 1;
    }
    for ((family, labels), st) in &hists {
        match (st.inf, st.count) {
            (Some(inf), Some(count)) if inf == count => {}
            (Some(_), None) => return Err(format!("histogram {family}{{{labels}}}: no _count")),
            (None, _) => return Err(format!("histogram {family}{{{labels}}}: no +Inf bucket")),
            (Some(inf), Some(count)) => {
                return Err(format!(
                    "histogram {family}{{{labels}}}: +Inf bucket {inf} != _count {count}"
                ))
            }
        }
    }
    Ok(exp)
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse::<f64>().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_telemetry::Histogram;

    fn demo_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("peaks.detected").add(42);
        reg.gauge("governor.level").set(1);
        let h = reg.histogram("latency.e2e_us", || Histogram::exponential(1.0, 1e6, 12));
        for v in [3.0, 50.0, 900.0, 12_000.0] {
            h.record(v);
        }
        reg.events()
            .emit(rfd_telemetry::event::EventKind::Checkpoint, "cp 1");
        reg
    }

    #[test]
    fn names_are_sanitized_and_prefixed() {
        assert_eq!(metric_name("peaks.detected"), "rfd_peaks_detected");
        assert_eq!(
            metric_name("analyze.802.11.latency_us"),
            "rfd_analyze_802_11_latency_us"
        );
        assert_eq!(
            metric_name("detect:fast/dispatch"),
            "rfd_detect_fast_dispatch"
        );
    }

    #[test]
    fn fleet_source_metrics_expose_cleanly() {
        // Fleet source ids may contain `.` and `-` (e.g. "van.2",
        // "lab-3"); the per-source gauges embed them in the instrument
        // name, so the scrape page must sanitize them into legal,
        // per-source-distinct families.
        let reg = Registry::new();
        reg.gauge("net.fleet.active_sources").set(2);
        reg.gauge("net.fleet.source.van.2.queue_depth").set(7);
        reg.gauge("net.fleet.source.lab-3.queue_depth").set(3);
        reg.counter("net.fleet.source.van.2.records").add(12);
        let h = reg.histogram("latency.net_fanout_us", || {
            Histogram::exponential(1.0, 1e7, 28)
        });
        h.record(9.0);
        h.record(17.0);
        let text = encode_registry(&reg);
        let exp = validate(&text).expect("fleet scrape page must validate");
        assert!(exp.has_family("rfd_net_fleet_active_sources"));
        assert!(exp.has_family("rfd_net_fleet_source_van_2_queue_depth"));
        assert!(exp.has_family("rfd_net_fleet_source_lab_3_queue_depth"));
        assert!(exp.has_family("rfd_net_fleet_source_van_2_records"));
        assert_eq!(
            exp.families["rfd_latency_net_fanout_us"],
            FamilyType::Histogram
        );
        assert!(text.contains("rfd_net_fleet_source_van_2_queue_depth 7"));
        assert!(text.contains("rfd_net_fleet_source_lab_3_queue_depth 3"));
    }

    #[test]
    fn encoded_output_validates() {
        let text = encode_registry(&demo_registry());
        let exp = validate(&text).expect("own output must validate");
        assert!(exp.has_family("rfd_peaks_detected"));
        assert!(exp.has_family("rfd_governor_level"));
        assert!(exp.has_family("rfd_latency_e2e_us"));
        assert!(exp.has_family("rfd_events_emitted"));
        assert_eq!(exp.families["rfd_latency_e2e_us"], FamilyType::Histogram);
        assert!(exp.samples > 10);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let text = encode_registry(&demo_registry());
        let mut cum = Vec::new();
        for line in text.lines() {
            if line.starts_with("rfd_latency_e2e_us_bucket") {
                let v: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
                cum.push(v);
            }
        }
        assert!(cum.len() >= 13, "12 finite buckets + +Inf");
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{cum:?}");
        assert_eq!(*cum.last().unwrap(), 4.0);
    }

    #[test]
    fn validator_rejects_garbage() {
        for bad in [
            "not a metric line at all!",
            "name{le=\"0.5\" 3",                       // unterminated labels
            "name 12 extra garbage",                   // trailing tokens
            "1leading_digit 5",                        // bad name
            "# TYPE x flumph\nx 1",                    // unknown type
            "# TYPE x counter\n# TYPE x counter\nx 1", // duplicate TYPE
            "x NaNaN",                                 // bad value
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn validator_rejects_non_cumulative_histogram() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 5\n\
                    h_sum 9\nh_count 5\n";
        assert!(validate(text).unwrap_err().contains("cumulative"));
    }

    #[test]
    fn validator_requires_inf_bucket_to_match_count() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\n\
                    h_bucket{le=\"+Inf\"} 2\n\
                    h_sum 1\nh_count 3\n";
        assert!(validate(text).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn validator_accepts_labels_and_timestamps() {
        let text = "# TYPE a counter\na{job=\"x\",quote=\"he said \\\"hi\\\"\"} 3 1700000000\n";
        let exp = validate(text).unwrap();
        assert_eq!(exp.samples, 1);
    }
}
