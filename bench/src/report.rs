//! What both benchmark binaries share around the measurement itself: the
//! command line the driver calls them with, the machine fingerprint, the
//! result file, and the one-line JSON result printed last.

use crate::json::Json;
use crate::stats::Summary;
use crate::workloads::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of a result file.
pub const SCHEMA: &str = "rfd-perfbench";
/// Result file version.
pub const VERSION: f64 = 1.0;
/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2009;

/// Parsed command line of `perf_baseline` / `perf_trace`.
#[derive(Debug)]
pub struct Args {
    /// Workloads to run (`--workload NAME`, default all five).
    pub workloads: Vec<Workload>,
    /// `--seed N`: every input is generated from it.
    pub seed: u64,
    /// `--seconds S`: how long each workload measures.
    pub seconds: f64,
    /// `--rfdump PATH`: the release binary under test.
    pub rfdump: PathBuf,
    /// `--out FILE`: also write the result file (and, traced, the chrome
    /// trace beside it).
    pub out: Option<PathBuf>,
}

/// Parses the arguments after the program name. `--trace` is accepted and
/// ignored: `bench/run.sh` has already chosen the binary by it.
pub fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        rfdump: PathBuf::from("target/release/rfdump"),
        out: None,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let w = workloads::find(&name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?;
                    args.workloads = vec![w];
                }
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                value()?;
            }
            "--rfdump" => args.rfdump = PathBuf::from(value()?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The scratch directory of this process, beside the running executable
/// (so inside the build directory, inside the checkout): created empty.
pub fn work_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join(format!("perf-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What a result must share with another to be comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: u64,
    /// CPU model string.
    pub cpu: String,
    /// DSP kernel backend `rfdump kernel` resolves (scalar/sse2/avx2).
    pub kernel_backend: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Short git revision of the tree, `unknown` outside a repository. Not
    /// part of the machine identity.
    pub git_rev: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine and build.
    pub fn collect(rfdump: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel_backend = command_line(&rfdump.to_string_lossy(), &["kernel"])
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("backend:").map(|v| v.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu,
            kernel_backend,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Machine identity: everything but the git revision.
    fn machine(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.nproc, self.cpu, self.kernel_backend, self.rustc
        )
    }

    /// Short stable name of the machine identity, used as the baseline file
    /// name: `<nproc>c-<backend>-<fnv1a of the rest>`.
    pub fn id(&self) -> String {
        let hash = self
            .machine()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            });
        format!(
            "{}c-{}-{:08x}",
            self.nproc, self.kernel_backend, hash as u32
        )
    }

    /// Whether two results were measured on like machines and toolchains.
    pub fn same_machine(&self, other: &Fingerprint) -> bool {
        self.machine() == other.machine()
    }

    /// As a JSON object (with the derived `id`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::str(self.id())),
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu", Json::str(&self.cpu)),
            ("kernel_backend", Json::str(&self.kernel_backend)),
            ("rustc", Json::str(&self.rustc)),
            ("git_rev", Json::str(&self.git_rev)),
        ])
    }

    /// Inverse of [`Fingerprint::to_json`].
    pub fn from_json(j: &Json) -> Option<Self> {
        let s = |k| j.get(k).and_then(Json::as_str).map(str::to_string);
        Some(Fingerprint {
            nproc: j.get("nproc")?.as_f64()? as u64,
            cpu: s("cpu")?,
            kernel_backend: s("kernel_backend")?,
            rustc: s("rustc")?,
            git_rev: s("git_rev")?,
        })
    }
}

/// One named metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median, quartiles and count of the per-iteration values.
    pub summary: Summary,
}

impl Metric {
    /// Summarises per-iteration `values` under `name`.
    pub fn new(name: &str, unit: &'static str, values: &[f64]) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            summary: Summary::of(values),
        }
    }
}

/// Everything measured on one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Every hard check passed.
    pub correct: bool,
    /// Operations attempted (e2e: ground-truth packets the monitor is
    /// expected to report, over all iterations).
    pub attempted: u64,
    /// Operations failed (e2e: of those, packets missed).
    pub failed: u64,
    /// Further facts worth keeping in the result file (iteration count,
    /// shares, warm-up time…).
    pub notes: Vec<(String, Json)>,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    /// The last line of standard output the driver reads.
    pub fn driver_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string()
    }

    /// Aligned text table of the metrics.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ==  correct={} attempted={} failed={}\n",
            self.name, self.correct, self.attempted, self.failed
        );
        for m in &self.metrics {
            let s = m.summary;
            out.push_str(&format!(
                "  {:<38} {:>14.6} {:<10} q1 {:<12.6} q3 {:<12.6} n {}\n",
                m.name, s.median, m.unit, s.q1, s.q3, s.n
            ));
        }
        out
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
        ];
        fields.extend(self.notes.iter().cloned());
        let metrics = self.metrics.iter().map(|m| {
            let mut j = m.summary.to_json();
            if let Json::Obj(o) = &mut j {
                o.insert(0, ("unit".into(), Json::str(m.unit)));
            }
            (m.name.clone(), j)
        });
        fields.push(("metrics".to_string(), Json::obj(metrics)));
        Json::Obj(fields)
    }
}

/// The result file: fingerprint, run parameters and one section per
/// workload, one line each so files diff readably.
pub fn result_file(
    fp: &Fingerprint,
    kind: &str,
    seed: u64,
    seconds: f64,
    results: &[WorkloadResult],
) -> String {
    let mut out = format!(
        "{{\"schema\": \"{SCHEMA}\", \"version\": {VERSION}, \"kind\": \"{kind}\",\n \"fingerprint\": {},\n \"seed\": {seed}, \"seconds\": {seconds},\n \"workloads\": {{\n",
        fp.to_json()
    );
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!("  \"{}\": {}{sep}\n", r.name, r.to_json()));
    }
    out.push_str(" }}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "quiet_u05",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(
            (a.workloads[0].name, a.seed, a.seconds),
            ("quiet_u05", 7, 10.0)
        );
        assert_eq!(args(&[]).unwrap().workloads.len(), 5);
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            nproc: 2,
            cpu: "Some CPU @ 2GHz".into(),
            kernel_backend: "avx2".into(),
            rustc: "rustc 1.0".into(),
            git_rev: "abc1234".into(),
        }
    }

    #[test]
    fn fingerprint_identity_ignores_the_git_revision_only() {
        let a = fp();
        let mut b = fp();
        b.git_rev = "fff".into();
        assert!(a.same_machine(&b));
        assert_eq!(a.id(), b.id());
        b.kernel_backend = "scalar".into();
        assert!(!a.same_machine(&b));
        assert_ne!(a.id(), b.id());
        assert!(a.id().starts_with("2c-avx2-"));
        assert_eq!(Fingerprint::from_json(&a.to_json()), Some(a));
    }

    #[test]
    fn driver_line_and_result_file_are_valid_json_with_the_contract_keys() {
        let r = WorkloadResult {
            name: "wifi_u60",
            correct: true,
            attempted: 10,
            failed: 0,
            notes: vec![("iterations".into(), Json::Num(3.0))],
            metrics: vec![Metric::new("msps", "Msample/s", &[11.0, 12.5, 12.0])],
        };
        let line = parse(&r.driver_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("msps").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(12.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("Msample/s"));

        let doc = parse(&result_file(
            &fp(),
            "e2e",
            7,
            12.0,
            std::slice::from_ref(&r),
        ))
        .unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SCHEMA));
        let w = doc.get("workloads").unwrap().get("wifi_u60").unwrap();
        assert_eq!(w.get("iterations").unwrap().as_f64(), Some(3.0));
        let s = Summary::from_json(w.get("metrics").unwrap().get("msps").unwrap()).unwrap();
        assert_eq!((s.n, s.median), (3, 12.0));
    }
}
