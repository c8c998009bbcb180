//! `bench_diff A.json B.json` — compares two result files of `perf_baseline`
//! (or `perf_trace`) with the directions and bounds `BENCHMARK.json` fixes.
//!
//! One row per workload × metric: both medians with their quartiles, the
//! change, the bound, and a verdict:
//!
//! * `regressed`  — B's median is worse than A's by more than the bound;
//! * `unresolved` — not regressed, but either side's own interquartile
//!   spread is wider than the bound, so "no change" cannot be told from a
//!   change the bound would reject;
//! * `improved`   — B's median is better by more than the bound and the two
//!   interquartile ranges do not overlap;
//! * `unchanged`  — everything else.
//!
//! Per-layer metrics have no bound: they are listed with their change only.
//! Counts that must repeat exactly (attempted, failed, miss and false
//! shares) are compared for equality. Exits 1 on any `regressed` row or
//! differing count, 2 on unusable input.

use rfd_perfbench::json::{parse, Json};
use rfd_perfbench::report::{Fingerprint, SCHEMA};
use rfd_perfbench::stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Direction and bound of one metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    higher_is_better: bool,
    /// `None` for per-layer metrics.
    bound: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
    /// No bound to judge by.
    Listed,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Listed => "-",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(rule: Rule, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if rule.higher_is_better {
        -change
    } else {
        change
    }
}

fn judge(rule: Rule, a: &Summary, b: &Summary) -> Verdict {
    let Some(bound) = rule.bound else {
        return Verdict::Listed;
    };
    let worse = worse_by(rule, a.median, b.median);
    if worse > bound {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if -worse > bound && (b.q1 > a.q3 || b.q3 < a.q1) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn rules(benchmark: &Json) -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        let metrics = benchmark
            .get(list)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {list}"))?;
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("a metric without a direction")?;
            out.insert(
                name.to_string(),
                Rule {
                    higher_is_better: better == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    Ok(out)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path} is not a {SCHEMA} result file"));
    }
    Ok(doc)
}

/// Compares the documents and returns the report and whether anything
/// regressed or an exact count differs.
fn diff(a: &Json, b: &Json, rules: &BTreeMap<String, Rule>) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut bad = false;
    let wa = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads")?;
    for (name, sa) in wa {
        let Some(sb) = b.get("workloads").and_then(|w| w.get(name)) else {
            out.push_str(&format!("== {name} ==  only in A\n"));
            continue;
        };
        out.push_str(&format!("== {name} ==\n"));
        for key in [
            "correct",
            "attempted",
            "failed",
            "miss_share",
            "false_share",
        ] {
            if let (Some(x), Some(y)) = (sa.get(key), sb.get(key)) {
                let same = x == y;
                // `attempted` scales with the iterations that fit the run
                // time; the others must repeat exactly.
                let must = key != "attempted";
                bad |= must && !same;
                let verdict = if same {
                    "same"
                } else if must {
                    "DIFFERS"
                } else {
                    "differs"
                };
                out.push_str(&format!("  {key:<38} {x:>14} -> {y:<14} {verdict}\n"));
            }
        }
        let ma = sa
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("A's workload has no metrics")?;
        for (metric, ja) in ma {
            let (Some(x), Some(y)) = (
                Summary::from_json(ja),
                sb.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(Summary::from_json),
            ) else {
                out.push_str(&format!("  {metric:<38} only in A\n"));
                continue;
            };
            let rule = rules.get(metric).copied().unwrap_or(Rule {
                higher_is_better: false,
                bound: None,
            });
            let verdict = judge(rule, &x, &y);
            bad |= verdict == Verdict::Regressed;
            let unit = ja.get("unit").and_then(Json::as_str).unwrap_or("");
            out.push_str(&format!(
                "  {metric:<38} {:>12.5} [{:.5} {:.5}] -> {:>12.5} [{:.5} {:.5}] {unit:<10} {:>+7.2}% {} {}\n",
                x.median,
                x.q1,
                x.q3,
                y.median,
                y.q1,
                y.q3,
                100.0 * (y.median - x.median) / x.median.abs(),
                rule.bound.map_or("          ".to_string(), |b| format!("bound {:>3.0}%", 100.0 * b)),
                verdict.name(),
            ));
        }
    }
    Ok((out, bad))
}

fn run(argv: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut force = false;
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--force" => force = true,
            "--benchmark" => benchmark = it.next().ok_or("--benchmark needs a file")?.clone(),
            f if !f.starts_with("--") => files.push(f.to_string()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let [fa, fb] = &files[..] else {
        return Err(
            "usage: bench_diff [--force] [--benchmark BENCHMARK.json] A.json B.json".into(),
        );
    };
    let (a, b) = (load(fa)?, load(fb)?);
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("cannot read {benchmark}: {e}"))?;
    let rules = rules(&parse(&text).map_err(|e| format!("{benchmark}: {e}"))?)?;
    let fp = |doc: &Json, path: &str| {
        doc.get("fingerprint")
            .and_then(Fingerprint::from_json)
            .ok_or(format!("{path} has no fingerprint"))
    };
    let (fpa, fpb) = (fp(&a, fa)?, fp(&b, fb)?);
    println!("A: {fa}  machine {}  rev {}", fpa.id(), fpa.git_rev);
    println!("B: {fb}  machine {}  rev {}", fpb.id(), fpb.git_rev);
    if !fpa.same_machine(&fpb) {
        if !force {
            return Err(format!(
                "the machine fingerprints differ ({:?} vs {:?}); results are only comparable like with like (--force overrides)",
                fpa, fpb
            ));
        }
        println!("warning: machine fingerprints differ; comparing anyway (--force)");
    }
    for key in ["kind", "seed", "seconds"] {
        if a.get(key) != b.get(key) {
            println!("warning: {key} differs between the files");
        }
    }
    let (report, bad) = diff(&a, &b, &rules)?;
    print!("{report}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_diff: regression or differing exact count");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            n: 11,
            median,
            q1,
            q3,
        }
    }

    const LOWER_8: Rule = Rule {
        higher_is_better: false,
        bound: Some(0.08),
    };
    const HIGHER_8: Rule = Rule {
        higher_is_better: true,
        bound: Some(0.08),
    };

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = summary(100.0, 99.0, 101.0);
        assert_eq!(
            judge(LOWER_8, &base, &summary(102.0, 101.0, 103.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(LOWER_8, &base, &summary(110.0, 109.0, 111.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(LOWER_8, &base, &summary(85.0, 84.0, 86.0)),
            Verdict::Improved
        );
        // The same numbers read the other way round for a rate.
        assert_eq!(
            judge(HIGHER_8, &base, &summary(110.0, 109.0, 111.0)),
            Verdict::Improved
        );
        assert_eq!(
            judge(HIGHER_8, &base, &summary(85.0, 84.0, 86.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let base = summary(100.0, 99.0, 101.0);
        let noisy = summary(101.0, 94.0, 106.0);
        assert_eq!(judge(LOWER_8, &base, &noisy), Verdict::Unresolved);
        assert_eq!(judge(LOWER_8, &noisy, &base), Verdict::Unresolved);
        // A regression is still a regression, however noisy.
        assert_eq!(
            judge(LOWER_8, &base, &summary(120.0, 100.0, 140.0)),
            Verdict::Regressed
        );
        // Better by more than the bound, but the ranges overlap: not proven.
        assert_eq!(
            judge(
                LOWER_8,
                &summary(100.0, 97.0, 103.0),
                &summary(91.0, 90.0, 97.2)
            ),
            Verdict::Unchanged
        );
    }

    #[test]
    fn metrics_without_a_bound_are_only_listed() {
        let rule = Rule {
            higher_is_better: false,
            bound: None,
        };
        assert_eq!(
            judge(rule, &summary(1.0, 1.0, 1.0), &summary(9.0, 9.0, 9.0)),
            Verdict::Listed
        );
    }

    #[test]
    fn rules_come_from_benchmark_json_and_drive_the_exit_status() {
        let benchmark = parse(
            r#"{"end_to_end": [{"name": "msps", "unit": "Msample/s", "better": "higher", "bound": 0.1}],
                "per_layer": [{"name": "peak.ns_per_sample", "unit": "ns/sample", "better": "lower"}]}"#,
        )
        .unwrap();
        let rules = rules(&benchmark).unwrap();
        assert_eq!(
            rules["msps"],
            Rule {
                higher_is_better: true,
                bound: Some(0.1)
            }
        );
        assert_eq!(rules["peak.ns_per_sample"].bound, None);

        let file = |msps: f64, failed: u64| {
            parse(&format!(
                r#"{{"workloads": {{"w": {{"correct": true, "attempted": 5, "failed": {failed},
                    "metrics": {{"msps": {{"unit": "Msample/s", "median": {msps}, "q1": {msps}, "q3": {msps}, "n": 5}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (text, bad) = diff(&file(10.0, 0), &file(9.5, 0), &rules).unwrap();
        assert!(!bad && text.contains("unchanged"), "{text}");
        let (text, bad) = diff(&file(10.0, 0), &file(8.0, 0), &rules).unwrap();
        assert!(bad && text.contains("REGRESSED"), "{text}");
        let (text, bad) = diff(&file(10.0, 0), &file(10.0, 1), &rules).unwrap();
        assert!(bad && text.contains("DIFFERS"), "{text}");
    }
}
