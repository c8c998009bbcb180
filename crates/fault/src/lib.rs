//! Deterministic fault injection for the rfdump pipeline.
//!
//! Production SDR stacks treat overload and link failure as operating modes,
//! not exceptional crashes — but you cannot test the recovery machinery
//! without a way to *cause* analyzer panics, slow stages, IO errors, corrupt
//! frames, and connection drops on demand, reproducibly. This crate provides
//! that: a [`FaultPlan`] parsed from a compact spec string (the CLI's
//! `--chaos <spec>`, or the `RFD_FAULTS` environment variable for whole-suite
//! chaos runs) that decides, at named injection sites threaded through the
//! pipeline, whether to fire a fault.
//!
//! Everything is seeded: the same spec produces the same firing pattern for
//! the same sequence of [`FaultPlan::decide`] calls, so a chaos failure found
//! in CI replays locally with nothing but the spec string.
//!
//! # Spec grammar
//!
//! ```text
//! spec    := term (';' term)*
//! term    := 'seed=' u64
//!          | kind '=' target [when] [cap] [arg]
//! kind    := panic | slow | io | corrupt | truncate | disconnect | cpu | kill
//! target  := substring matched against the site name, or '*' for any site
//! when    := '@' probability        fire with this probability per call
//!          | '#' k                  fire on exactly the k-th matching call
//!          | '%' k                  fire on every k-th matching call
//!          (absent: fire on every matching call)
//! cap     := 'x' n                  stop after n firings (needs a `when`)
//! arg     := '/' duration           slow/cpu duration, e.g. 2ms, 100us, 1s
//! ```
//!
//! Examples:
//!
//! * `seed=7;panic=analyze:wifi#1` — panic the 802.11 analyzer on its first
//!   call (the quarantine test plan).
//! * `disconnect=net.send.chunk%40x2` — drop the producer connection on
//!   every 40th chunk, at most twice.
//! * `slow=analyze@0.02/500us;cpu=detect@0.01/100us` — probabilistic latency
//!   and CPU pressure, deterministic per seed.
//!
//! Sites are plain strings (`analyze:<name>`, `net.send.chunk`,
//! `net.sub.read`, `net.server.read`, `detect`); a rule's target matches by
//! substring so `analyze` covers every analyzer while `analyze:bt` picks one.
//!
//! The crate is std-only and dependency-free so the lowest crates in the
//! workspace graph can host injection sites without cycles.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod signal;

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Seeded PRNG (SplitMix64 — the same generator rfd-dsp uses for scene
// synthesis, inlined here to keep the crate dependency-free).
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, high-quality 64-bit mixing PRNG. One step per call;
/// also usable as a stateless hash by seeding with the value to mix.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Stateless mix of a (seed, rule, call) triple into `[0, 1)` — the
/// per-call coin for probabilistic rules.
fn coin(seed: u64, rule: u64, call: u64) -> f64 {
    let mut rng = SplitMix64::new(seed ^ rule.rotate_left(32) ^ call.wrapping_mul(0x9E37_79B9));
    // Two steps so adjacent calls decorrelate even with tiny seeds.
    rng.next_u64();
    rng.next_f64()
}

// ---------------------------------------------------------------------------
// Actions and rules
// ---------------------------------------------------------------------------

/// What a fired fault rule tells the injection site to do. Sites apply the
/// action themselves (this crate never panics or touches sockets), so every
/// site documents which actions it honours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic at the site (exercises `catch_unwind` supervision).
    Panic,
    /// Sleep for the given duration before proceeding (a slow stage).
    Slow(Duration),
    /// Fail the operation with an artificial IO error.
    Io,
    /// Corrupt the outgoing bytes (flip payload bytes so the CRC fails).
    Corrupt,
    /// Truncate the outgoing bytes mid-frame.
    Truncate,
    /// Drop the connection at this point.
    Disconnect,
    /// Busy-spin for the given duration (CPU pressure without blocking).
    Spin(Duration),
    /// Abort the whole process at this site (`std::process::abort`), as a
    /// seeded stand-in for SIGKILL/power loss. Sites honour it directly;
    /// crash-recovery tests use it to die at reproducible pipeline offsets.
    /// Suppressed plan-wide after [`FaultPlan::disarm_kills`] so a `--resume`
    /// run does not crash-loop on the same rule.
    Kill,
}

/// The kind keyword in the spec. Separate from [`Action`] because the
/// duration argument is bound at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Panic,
    Slow,
    Io,
    Corrupt,
    Truncate,
    Disconnect,
    Cpu,
    Kill,
}

impl Kind {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "panic" => Kind::Panic,
            "slow" => Kind::Slow,
            "io" => Kind::Io,
            "corrupt" => Kind::Corrupt,
            "truncate" => Kind::Truncate,
            "disconnect" => Kind::Disconnect,
            "cpu" => Kind::Cpu,
            "kill" => Kind::Kill,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Panic => "panic",
            Kind::Slow => "slow",
            Kind::Io => "io",
            Kind::Corrupt => "corrupt",
            Kind::Truncate => "truncate",
            Kind::Disconnect => "disconnect",
            Kind::Cpu => "cpu",
            Kind::Kill => "kill",
        }
    }
}

/// When a rule fires, relative to its own matching-call counter.
#[derive(Debug, Clone, Copy, PartialEq)]
enum When {
    /// Every matching call.
    Always,
    /// With this probability per call (seeded, deterministic).
    Prob(f64),
    /// On exactly the k-th matching call (1-based).
    Nth(u64),
    /// On every k-th matching call.
    Every(u64),
}

struct Rule {
    kind: Kind,
    target: String,
    when: When,
    max_fires: u64,
    arg: Duration,
    calls: AtomicU64,
    fired: AtomicU64,
}

impl Rule {
    fn matches(&self, site: &str) -> bool {
        self.target == "*" || site.contains(self.target.as_str())
    }

    fn action(&self) -> Action {
        match self.kind {
            Kind::Panic => Action::Panic,
            Kind::Slow => Action::Slow(self.arg),
            Kind::Io => Action::Io,
            Kind::Corrupt => Action::Corrupt,
            Kind::Truncate => Action::Truncate,
            Kind::Disconnect => Action::Disconnect,
            Kind::Cpu => Action::Spin(self.arg),
            Kind::Kill => Action::Kill,
        }
    }
}

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// A parsed chaos plan: an ordered list of fault rules plus the seed that
/// makes probabilistic rules reproducible. Thread-safe; injection sites hold
/// an `Arc<FaultPlan>` and call [`decide`](Self::decide).
///
/// Call counters are per rule and atomic, so under a multi-threaded pool the
/// *set* of firing calls is deterministic per seed even though which worker
/// observes each firing is not.
#[derive(Debug)]
pub struct FaultPlan {
    spec: String,
    seed: u64,
    rules: Vec<Rule>,
    kills_disarmed: AtomicBool,
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("kind", &self.kind.name())
            .field("target", &self.target)
            .field("when", &self.when)
            .field("calls", &self.calls.load(Ordering::Relaxed))
            .field("fired", &self.fired.load(Ordering::Relaxed))
            .finish()
    }
}

/// Counters for one rule, for the stats-json `faults` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleStats {
    /// The rule's kind keyword (`panic`, `slow`, ...).
    pub kind: String,
    /// The site substring the rule matches.
    pub target: String,
    /// How many matching calls the rule has seen.
    pub calls: u64,
    /// How many times it fired.
    pub fired: u64,
}

/// A snapshot of a plan's activity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// The original spec string.
    pub spec: String,
    /// The seed in effect.
    pub seed: u64,
    /// Per-rule counters, in spec order.
    pub rules: Vec<RuleStats>,
}

impl FaultPlan {
    /// Parses a spec string (see the crate docs for the grammar).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for term in spec.split([';', ',']) {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            let (key, value) = term
                .split_once('=')
                .ok_or_else(|| format!("fault term '{term}' is not KEY=VALUE"))?;
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("seed '{value}' is not a u64"))?;
                continue;
            }
            let kind = Kind::parse(key).ok_or_else(|| format!("unknown fault kind '{key}'"))?;
            rules.push(parse_rule(kind, value)?);
        }
        Ok(Self {
            spec: spec.to_string(),
            seed,
            rules,
            kills_disarmed: AtomicBool::new(false),
        })
    }

    /// Suppress every `kill` rule from now on. A `--resume` run disarms kills
    /// before re-processing so the rule that crashed the previous run cannot
    /// crash-loop the recovery. Rule counters still advance (the firing
    /// schedule stays seed-deterministic); only the action is withheld.
    pub fn disarm_kills(&self) {
        self.kills_disarmed.store(true, Ordering::Relaxed);
    }

    /// Asks the plan whether a fault fires at this site, advancing the
    /// matching rules' call counters. Returns the first firing rule's
    /// action. Sites that can honour several actions match on the result;
    /// sites that cannot honour an action ignore it.
    pub fn decide(&self, site: &str) -> Option<Action> {
        let mut hit = None;
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.matches(site) {
                continue;
            }
            let call = rule.calls.fetch_add(1, Ordering::Relaxed) + 1; // 1-based
            let due = match rule.when {
                When::Always => true,
                When::Prob(p) => coin(self.seed, idx as u64, call) < p,
                When::Nth(k) => call == k,
                When::Every(k) => k > 0 && call % k == 0,
            };
            if !due || hit.is_some() {
                continue; // counters still advance for non-winning rules
            }
            // Reserve a firing slot; the cap is exact even across threads.
            let mut f = rule.fired.load(Ordering::Relaxed);
            loop {
                if f >= rule.max_fires {
                    break;
                }
                match rule.fired.compare_exchange_weak(
                    f,
                    f + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        hit = Some(rule.action());
                        break;
                    }
                    Err(cur) => f = cur,
                }
            }
        }
        match hit {
            Some(Action::Kill) if self.kills_disarmed.load(Ordering::Relaxed) => None,
            other => other,
        }
    }

    /// Snapshot of the plan's counters for reporting.
    pub fn snapshot(&self) -> FaultStats {
        FaultStats {
            spec: self.spec.clone(),
            seed: self.seed,
            rules: self
                .rules
                .iter()
                .map(|r| RuleStats {
                    kind: r.kind.name().to_string(),
                    target: r.target.clone(),
                    calls: r.calls.load(Ordering::Relaxed),
                    fired: r.fired.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// The ambient plan from the `RFD_FAULTS` environment variable, read
    /// once per process. `None` when unset, empty, or unparsable (a bad
    /// spec warns on stderr rather than killing the process — chaos tooling
    /// must never be the thing that crashes the pipeline).
    pub fn ambient() -> Option<Arc<FaultPlan>> {
        static AMBIENT: OnceLock<Option<Arc<FaultPlan>>> = OnceLock::new();
        AMBIENT
            .get_or_init(|| {
                let spec = std::env::var("RFD_FAULTS").ok()?;
                if spec.trim().is_empty() {
                    return None;
                }
                match FaultPlan::parse(&spec) {
                    Ok(p) => Some(Arc::new(p)),
                    Err(e) => {
                        let _ = writeln!(std::io::stderr(), "rfd-fault: ignoring RFD_FAULTS: {e}");
                        None
                    }
                }
            })
            .clone()
    }
}

/// Parses the value side of a rule term: `target[when][cap][arg]`.
fn parse_rule(kind: Kind, value: &str) -> Result<Rule, String> {
    // The duration argument is after the last '/', if any (site names never
    // contain '/').
    let (head, arg) = match value.rsplit_once('/') {
        Some((h, a)) => (h, Some(a)),
        None => (value, None),
    };
    // The target ends at the first when-marker; '@', '#', '%' never appear
    // in site names.
    let marker = head.find(['@', '#', '%']);
    let (target, when, max_fires) = match marker {
        None => (head, When::Always, u64::MAX),
        Some(i) => {
            let target = &head[..i];
            let mut rest = &head[i + 1..];
            // The cap suffix 'xN' lives inside the when-spec so targets may
            // contain the letter 'x'.
            let mut cap = u64::MAX;
            if let Some(x) = rest.rfind('x') {
                let n: u64 = rest[x + 1..]
                    .parse()
                    .map_err(|_| format!("fire cap '{}' is not a count", &rest[x + 1..]))?;
                cap = n;
                rest = &rest[..x];
            }
            let when = match head.as_bytes()[i] {
                b'@' => {
                    let p: f64 = rest
                        .parse()
                        .map_err(|_| format!("probability '{rest}' is not a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} out of [0, 1]"));
                    }
                    When::Prob(p)
                }
                b'#' => When::Nth(
                    rest.parse()
                        .map_err(|_| format!("call index '{rest}' is not a count"))?,
                ),
                _ => When::Every(
                    rest.parse()
                        .map_err(|_| format!("period '{rest}' is not a count"))?,
                ),
            };
            (target, when, cap)
        }
    };
    if target.is_empty() {
        return Err(format!("fault rule '{value}' has an empty target"));
    }
    let arg = match arg {
        Some(a) => parse_duration(a)?,
        None => Duration::from_millis(1),
    };
    Ok(Rule {
        kind,
        target: target.to_string(),
        when,
        max_fires,
        arg,
        calls: AtomicU64::new(0),
        fired: AtomicU64::new(0),
    })
}

/// Parses `2ms` / `100us` / `1s` / `500ns` duration spellings.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, unit) = match s.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => s.split_at(i),
        None => return Err(format!("duration '{s}' has no unit (ns/us/ms/s)")),
    };
    let v: f64 = num
        .parse()
        .map_err(|_| format!("duration '{s}' has a bad number"))?;
    if v.is_nan() || !v.is_finite() || v < 0.0 {
        return Err(format!("duration '{s}' must be non-negative"));
    }
    let secs = match unit {
        "ns" => v * 1e-9,
        "us" => v * 1e-6,
        "ms" => v * 1e-3,
        "s" => v,
        other => return Err(format!("unknown duration unit '{other}'")),
    };
    Ok(Duration::from_secs_f64(secs))
}

/// Busy-spins for `d` — the standard way a site honours [`Action::Spin`].
/// Burns CPU without yielding, which is exactly the overload signature the
/// `LoadGovernor` watches for.
pub fn spin_for(d: Duration) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_kinds_and_schedules() {
        let p = FaultPlan::parse(
            "seed=42;panic=analyze:wifi#1;slow=analyze@0.5/2ms;disconnect=net.send.chunk%3x2;cpu=*@0.25/100us",
        )
        .unwrap();
        let snap = p.snapshot();
        assert_eq!(snap.seed, 42);
        assert_eq!(snap.rules.len(), 4);
        assert_eq!(snap.rules[0].kind, "panic");
        assert_eq!(snap.rules[0].target, "analyze:wifi");
        assert_eq!(snap.rules[2].kind, "disconnect");
    }

    #[test]
    fn nth_rule_fires_exactly_once_on_the_kth_call() {
        let p = FaultPlan::parse("panic=analyze:wifi#3").unwrap();
        let mut fires = Vec::new();
        for i in 1..=6 {
            if p.decide("analyze:wifi-demod").is_some() {
                fires.push(i);
            }
        }
        assert_eq!(fires, vec![3]);
        // A different site never matches.
        assert_eq!(p.decide("analyze:bt-demod"), None);
    }

    #[test]
    fn every_rule_fires_periodically_and_respects_the_cap() {
        let p = FaultPlan::parse("disconnect=chunk%3x2").unwrap();
        let fires: Vec<usize> = (1..=12)
            .filter(|_| p.decide("net.send.chunk").is_some())
            .collect();
        assert_eq!(fires.len(), 2, "cap x2 limits firings: {fires:?}");
        let snap = p.snapshot();
        assert_eq!(snap.rules[0].calls, 12);
        assert_eq!(snap.rules[0].fired, 2);
    }

    #[test]
    fn probabilistic_rules_are_deterministic_per_seed() {
        let pattern = |seed: u64| -> Vec<bool> {
            let p = FaultPlan::parse(&format!("seed={seed};io=read@0.3")).unwrap();
            (0..64)
                .map(|_| p.decide("net.server.read").is_some())
                .collect()
        };
        let a = pattern(7);
        assert_eq!(a, pattern(7), "same seed, same firing pattern");
        assert_ne!(a, pattern(8), "different seed, different pattern");
        let hits = a.iter().filter(|&&b| b).count();
        assert!((5..=30).contains(&hits), "p=0.3 over 64 calls hit {hits}");
    }

    #[test]
    fn durations_parse_and_bind_to_actions() {
        let p = FaultPlan::parse("slow=analyze#1/250us;cpu=detect#1/2ms").unwrap();
        assert_eq!(
            p.decide("analyze:wifi"),
            Some(Action::Slow(Duration::from_micros(250)))
        );
        assert_eq!(
            p.decide("detect"),
            Some(Action::Spin(Duration::from_millis(2)))
        );
    }

    #[test]
    fn wildcard_matches_any_site() {
        let p = FaultPlan::parse("truncate=*#1").unwrap();
        assert_eq!(p.decide("anything.at.all"), Some(Action::Truncate));
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        for bad in [
            "panic",              // no '='
            "explode=x#1",        // unknown kind
            "panic=@0.5",         // empty target
            "slow=a#1/2parsecs",  // bad unit
            "io=a@1.5",           // probability out of range
            "seed=banana",        // non-numeric seed
            "disconnect=a%often", // non-numeric period
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn kill_rules_parse_fire_once_and_disarm() {
        let p = FaultPlan::parse("kill=detect#2").unwrap();
        assert_eq!(p.decide("detect"), None);
        assert_eq!(p.decide("detect"), Some(Action::Kill));
        assert_eq!(p.decide("detect"), None, "#2 fires exactly once");

        let p = FaultPlan::parse("kill=journal#1").unwrap();
        p.disarm_kills();
        assert_eq!(
            p.decide("journal.commit"),
            None,
            "disarmed kills are withheld"
        );
        let snap = p.snapshot();
        assert_eq!(snap.rules[0].kind, "kill");
        assert_eq!(snap.rules[0].calls, 1, "counters advance while disarmed");
    }

    #[test]
    fn empty_and_seed_only_specs_have_no_rules() {
        assert_eq!(FaultPlan::parse("").unwrap().snapshot().rules.len(), 0);
        let p = FaultPlan::parse("seed=9").unwrap();
        assert_eq!(p.decide("anywhere"), None);
    }
}
