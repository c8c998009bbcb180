//! Graceful degradation under overload: the `LoadGovernor`.
//!
//! RFDump's monitoring contract is *keep up with the ether*: when the
//! analysis stack falls behind real time, it must shed load in a principled
//! order instead of letting the ingest queue grow without bound. The
//! governor walks a fixed degradation ladder:
//!
//! 1. **Level 0 — nominal.** Everything runs.
//! 2. **Level 1 — shed demodulation.** Per-protocol analyzers stop
//!    demodulating and emit detection-only records (protocol, time span,
//!    SNR). Demodulation is the most expensive stage and, per the paper's
//!    demand-driven design, the first to go.
//! 3. **Level 2 — shed weak detectors.** Expensive per-protocol detectors
//!    (phase/frequency-based) are skipped and the dispatcher's confidence
//!    floor rises, so only high-confidence peaks reach the analyzers at
//!    all.
//!
//! The protocol-agnostic stage (energy/peak detection) is **never** shed:
//! it is the part of the architecture that sees everything, and losing it
//! would turn graceful degradation into blindness. Structurally, the
//! governor simply has no hook there.
//!
//! Because shedding changes the emitted records, the governor is opt-in
//! (`ArchConfig::governor`); ungoverned runs keep the byte-identical
//! determinism contract. Exactly two things move the ladder:
//! `force_level` pins it (the `--governor 0|1|2` CLI flag, for
//! deterministic runs), and a latency budget walks it.
//!
//! # Bounded-latency mode
//!
//! With a `latency_budget_us` configured (`--latency-budget MS`), the
//! governor closes the loop from measured tail latency to the ladder:
//! sinks feed every record's sample→record latency into a private
//! histogram, and a rate-limited tick computes the windowed p99 (via
//! [`rfd_telemetry::HistogramWindow`] — the cumulative histograms cannot
//! drive a control loop). Budget violations walk the shed levels with
//! streak hysteresis ([`rfd_telemetry::ladder`]): two violating windows
//! shed one level, four clean ones restore one, so recovery retraces the
//! ladder in reverse. A budget the pipeline never violates sheds nothing,
//! so the record stream is byte-identical with and without it.

use rfd_telemetry::event::EventKind;
use rfd_telemetry::json::JsonValue;
use rfd_telemetry::ladder::{Hysteresis, Rung, Window};
use rfd_telemetry::{Histogram, HistogramWindow, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Highest shed level.
pub const MAX_LEVEL: u8 = 2;

/// Human names for the ladder rungs, indexed by level.
pub const LEVEL_NAMES: [&str; 3] = ["nominal", "shed-demod", "shed-detectors"];

/// Governor knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GovernorConfig {
    /// Pin the shed level instead of adapting (deterministic runs).
    pub force_level: Option<u8>,
    /// Sample→record latency budget, µs (`--latency-budget`). `None`
    /// disables the latency signal entirely.
    pub latency_budget_us: Option<f64>,
}

/// Consecutive violating windows before the latency ladder escalates.
const VIOLATE_STREAK: u32 = 2;
/// Consecutive clean windows (p99 under [`LATENCY_LOW_WATER`] × budget)
/// before it restores one rung — recovery is deliberately slower than
/// shedding.
const RESTORE_STREAK: u32 = 4;
/// Fraction of the budget a window's p99 must stay under to count as
/// clean.
const LATENCY_LOW_WATER: f64 = 0.7;

/// Holds the shed level and decides what to shed.
///
/// All state is atomic: the record sinks tick the latency loop and the
/// pool workers consult the level concurrently.
#[derive(Debug)]
pub(crate) struct LoadGovernor {
    cfg: GovernorConfig,
    level: Rung,
    escalations: AtomicU64,
    deescalations: AtomicU64,
    shed_demod: AtomicU64,
    shed_detectors: AtomicU64,
    shed_votes: AtomicU64,
    // --- bounded-latency mode (inert without cfg.latency_budget_us) ---
    /// Private cumulative e2e latency histogram fed by the record sinks.
    /// Registry-independent so a budget works with telemetry disabled.
    e2e: Histogram,
    /// Control-loop state behind one lock: the window baseline, the
    /// rate-limit clock, and the hysteresis streaks. `latency_tick` uses
    /// `try_lock`, so concurrent sinks never serialize on it.
    ctl: Mutex<LatencyCtl>,
    /// Telemetry sink for typed events, if any.
    registry: OnceLock<Arc<Registry>>,
    budget_violations: AtomicU64,
    /// Most recent windowed p99, f64 bits (0 until the first tick).
    last_p99_bits: AtomicU64,
}

#[derive(Debug)]
struct LatencyCtl {
    window: HistogramWindow,
    last_tick: Instant,
    streaks: Hysteresis,
}

impl LoadGovernor {
    /// A governor starting at level 0 (or the forced level).
    pub fn new(cfg: GovernorConfig) -> Self {
        Self {
            cfg,
            level: Rung::new(cfg.force_level.unwrap_or(0), MAX_LEVEL),
            escalations: AtomicU64::new(0),
            deescalations: AtomicU64::new(0),
            shed_demod: AtomicU64::new(0),
            shed_detectors: AtomicU64::new(0),
            shed_votes: AtomicU64::new(0),
            e2e: Histogram::exponential(1.0, 1e7, 28),
            ctl: Mutex::new(LatencyCtl {
                window: HistogramWindow::new(),
                last_tick: Instant::now(),
                streaks: Hysteresis::new(VIOLATE_STREAK, RESTORE_STREAK, LATENCY_LOW_WATER),
            }),
            registry: OnceLock::new(),
            budget_violations: AtomicU64::new(0),
            last_p99_bits: AtomicU64::new(0),
        }
    }

    /// The configured latency budget, µs, if bounded-latency mode is on.
    pub(crate) fn latency_budget_us(&self) -> Option<f64> {
        self.cfg.latency_budget_us
    }

    /// Attaches a telemetry registry so latency ticks can emit typed
    /// events (`budget_violated` and shed transitions).
    pub(crate) fn set_registry(&self, reg: Arc<Registry>) {
        let _ = self.registry.set(reg);
    }

    /// Feeds one record's sample→record latency into the latency window.
    /// Cheap no-op without a budget or an ingest stamp.
    pub(crate) fn record_e2e(&self, ingest: Option<Instant>) {
        if let (Some(_), Some(t0)) = (self.cfg.latency_budget_us, ingest) {
            self.e2e.record(t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Runs one step of the bounded-latency control loop, if due.
    ///
    /// Rate-limited to `max(10ms, budget/4)` so every record sink can call
    /// it unconditionally; most calls return immediately. Each due tick
    /// advances the p99 window and walks the ladder with hysteresis:
    /// [`VIOLATE_STREAK`] violating windows escalate the shed level,
    /// [`RESTORE_STREAK`] clean windows restore one level. Violations and
    /// level changes become events in the attached registry, if any.
    pub(crate) fn latency_tick(&self) {
        self.latency_tick_inner(false);
    }

    fn latency_tick_inner(&self, force: bool) {
        let Some(budget) = self.cfg.latency_budget_us else {
            return;
        };
        let interval = Duration::from_micros((budget / 4.0) as u64).max(Duration::from_millis(10));
        let Ok(mut ctl) = self.ctl.try_lock() else {
            return;
        };
        if !force && ctl.last_tick.elapsed() < interval {
            return;
        }
        ctl.last_tick = Instant::now();
        let snap = ctl.window.advance(&self.e2e);
        if snap.count == 0 {
            // No records landed this window: no latency signal either way.
            return;
        }
        self.last_p99_bits
            .store(snap.p99.to_bits(), Ordering::Relaxed);
        let window = ctl.streaks.observe(snap.p99, budget);
        if let Window::Over(due) = window {
            self.budget_violations.fetch_add(1, Ordering::Relaxed);
            if due {
                ctl.streaks.spend_over();
            }
        }
        let step = match window {
            _ if self.cfg.force_level.is_some() => None,
            Window::Over(true) => self.level.up(),
            Window::Under(true) => self.level.down(),
            _ => None,
        };
        let step = self.booked(step);
        drop(ctl);
        let Some(reg) = self.registry.get() else {
            return;
        };
        if matches!(window, Window::Over(_)) {
            let detail = format!("p99 {:.0}us over budget {budget:.0}us", snap.p99);
            reg.emit_event(EventKind::BudgetViolated, detail);
        }
        if let Some((from, to)) = step {
            reg.gauge("governor.level").set(i64::from(to));
            let kind = if to > from {
                EventKind::GovernorShed
            } else {
                EventKind::GovernorRestore
            };
            let names = (LEVEL_NAMES[usize::from(from)], LEVEL_NAMES[usize::from(to)]);
            reg.emit_event(kind, format!("latency: {} -> {}", names.0, names.1));
        }
    }

    /// Point-in-time summary of bounded-latency mode for stats-json,
    /// or `None` when no budget is configured.
    pub(crate) fn latency_report(&self) -> Option<LatencyReport> {
        let budget_us = self.cfg.latency_budget_us?;
        Some(LatencyReport {
            budget_us,
            violations: self.budget_violations.load(Ordering::Relaxed),
            last_p99_us: f64::from_bits(self.last_p99_bits.load(Ordering::Relaxed)),
        })
    }

    /// Current shed level.
    pub fn level(&self) -> u8 {
        self.level.level()
    }

    /// Seeds the shed level from a recovery checkpoint. A `--resume` run
    /// restarts the governor where the crashed run left it rather than
    /// re-climbing the ladder from 0. Ignored when `force_level` pins the
    /// ladder (the pin wins — it is part of the determinism contract).
    pub(crate) fn restore_level(&self, level: u8) {
        if self.cfg.force_level.is_none() {
            self.level.set(level);
        }
    }

    /// Counts a level step and passes it on.
    fn booked(&self, step: Option<(u8, u8)>) -> Option<(u8, u8)> {
        let (from, to) = step?;
        let counter = if to > from {
            &self.escalations
        } else {
            &self.deescalations
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some((from, to))
    }

    /// Whether demodulation may run (level 0 only). Callers that skip it
    /// because of this must call [`LoadGovernor::note_shed_demod`].
    pub(crate) fn demod_allowed(&self) -> bool {
        self.level() < 1
    }

    /// Whether the named per-protocol detector may run. At level 2 the
    /// expensive phase/frequency detectors are shed; matched detectors must
    /// be reported via [`LoadGovernor::note_shed_detector`].
    pub(crate) fn detector_allowed(&self, name: &str) -> bool {
        self.level() < 2 || !(name.contains("phase") || name.contains("freq"))
    }

    /// The raised dispatcher confidence floor, if any (level 2).
    pub(crate) fn confidence_floor(&self) -> Option<f32> {
        (self.level() >= 2).then_some(0.8)
    }

    /// Books one dispatch whose demodulation was shed.
    pub(crate) fn note_shed_demod(&self) {
        self.shed_demod.fetch_add(1, Ordering::Relaxed);
    }

    /// Books one skipped detector invocation.
    pub(crate) fn note_shed_detector(&self) {
        self.shed_detectors.fetch_add(1, Ordering::Relaxed);
    }

    /// Books one vote filtered by the raised confidence floor.
    pub(crate) fn note_shed_vote(&self) {
        self.shed_votes.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time summary for the stats-json `degradation` section.
    pub(crate) fn report(&self) -> GovernorReport {
        GovernorReport {
            level: self.level(),
            escalations: self.escalations.load(Ordering::Relaxed),
            deescalations: self.deescalations.load(Ordering::Relaxed),
            shed_demod: self.shed_demod.load(Ordering::Relaxed),
            shed_detectors: self.shed_detectors.load(Ordering::Relaxed),
            shed_votes: self.shed_votes.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of what the governor did over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GovernorReport {
    /// Final shed level.
    pub level: u8,
    /// Level increases over the run.
    pub escalations: u64,
    /// Level decreases over the run.
    pub deescalations: u64,
    /// Dispatches whose demodulation was shed.
    pub shed_demod: u64,
    /// Detector invocations skipped.
    pub shed_detectors: u64,
    /// Votes filtered by the raised confidence floor.
    pub shed_votes: u64,
}

impl GovernorReport {
    /// The report as the stats-json `degradation` object.
    pub fn to_json(&self) -> JsonValue {
        let n = |v: u64| JsonValue::num(v as f64);
        JsonValue::obj(vec![
            ("level", n(u64::from(self.level))),
            (
                "level_name",
                JsonValue::str(LEVEL_NAMES[usize::from(self.level.min(MAX_LEVEL))]),
            ),
            ("escalations", n(self.escalations)),
            ("deescalations", n(self.deescalations)),
            ("shed_demod", n(self.shed_demod)),
            ("shed_detectors", n(self.shed_detectors)),
            ("shed_votes", n(self.shed_votes)),
        ])
    }
}

/// Snapshot of bounded-latency mode for the stats-json `latency_mode`
/// section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyReport {
    /// Configured budget, µs.
    pub budget_us: f64,
    /// Windows whose p99 exceeded the budget.
    pub violations: u64,
    /// Most recent windowed p99, µs (0 before the first tick).
    pub last_p99_us: f64,
}

impl LatencyReport {
    /// The report as the stats-json `latency_mode` object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("budget_us", JsonValue::num(self.budget_us)),
            ("violations", JsonValue::num(self.violations as f64)),
            ("last_p99_us", JsonValue::num(self.last_p99_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_level_never_adapts() {
        let g = LoadGovernor::new(GovernorConfig {
            force_level: Some(1),
            ..Default::default()
        });
        assert_eq!(g.level(), 1);
        assert!(!g.demod_allowed());
        assert!(g.detector_allowed("wifi-phase"));
        assert_eq!(g.confidence_floor(), None);
        // Even a checkpoint's level cannot move a pinned ladder.
        g.restore_level(2);
        assert_eq!(g.level(), 1);
    }

    #[test]
    fn no_budget_means_no_latency_behaviour() {
        let g = LoadGovernor::new(GovernorConfig::default());
        g.record_e2e(Some(Instant::now()));
        g.latency_tick();
        assert_eq!(g.level(), 0);
        assert_eq!(g.latency_report(), None);
        assert_eq!(g.e2e.count(), 0, "record_e2e is a no-op without a budget");
    }

    /// Records one violating sample, runs a tick with the rate limit
    /// bypassed, and returns the level after it.
    fn violating_tick(g: &LoadGovernor) -> u8 {
        g.e2e.record(5_000.0);
        g.latency_tick_inner(true);
        g.level()
    }

    /// Records one comfortably-under-budget sample and ticks.
    fn clean_tick(g: &LoadGovernor) -> u8 {
        g.e2e.record(10.0);
        g.latency_tick_inner(true);
        g.level()
    }

    fn budgeted() -> LoadGovernor {
        LoadGovernor::new(GovernorConfig {
            latency_budget_us: Some(1_000.0),
            ..Default::default()
        })
    }

    #[test]
    fn ladder_sheds_demod_before_detectors_and_recovers() {
        let g = budgeted();
        assert!(g.demod_allowed());
        assert!(g.detector_allowed("wifi-phase"));
        violating_tick(&g);
        assert_eq!(violating_tick(&g), 1, "the first step sheds demodulation");
        assert!(!g.demod_allowed());
        assert!(
            g.detector_allowed("wifi-phase"),
            "detectors survive level 1"
        );
        violating_tick(&g);
        assert_eq!(violating_tick(&g), 2);
        assert!(!g.detector_allowed("wifi-phase"));
        assert!(!g.detector_allowed("bt-freq-hop"));
        assert!(
            g.detector_allowed("energy-window"),
            "non-phase/freq detectors are never shed"
        );
        assert_eq!(g.confidence_floor(), Some(0.8));
        // There is no level 3: the protocol-agnostic stage cannot be shed.
        for _ in 0..4 {
            violating_tick(&g);
        }
        assert_eq!(g.level(), MAX_LEVEL);
        // Clean windows walk the ladder back down, one level at a time.
        for _ in 0..16 {
            clean_tick(&g);
        }
        assert_eq!(g.level(), 0, "level 0 is the floor");
        assert!(g.demod_allowed());
        assert_eq!(g.confidence_floor(), None);
        let r = g.report();
        assert_eq!((r.escalations, r.deescalations), (2, 2));
    }

    #[test]
    fn latency_ladder_sheds_one_level_per_two_violating_windows() {
        let g = budgeted();
        let levels: Vec<u8> = (0..6).map(|_| violating_tick(&g)).collect();
        assert_eq!(
            levels,
            [0, 1, 1, 2, 2, 2],
            "two windows a level, 2 is the top"
        );
        assert!(!g.demod_allowed());
        assert!(!g.detector_allowed("wifi-phase"));
        let r = g.latency_report().unwrap();
        assert_eq!(r.violations, 6);
        assert!(r.last_p99_us > r.budget_us);
        assert_eq!(g.report().escalations, 2);
    }

    #[test]
    fn latency_recovery_retraces_the_ladder_in_reverse() {
        let g = budgeted();
        for _ in 0..4 {
            violating_tick(&g);
        }
        assert_eq!(g.level(), 2);
        // One level per four clean windows, top rung first; 0 is the floor.
        let levels: Vec<u8> = (0..12).map(|_| clean_tick(&g)).collect();
        assert_eq!(levels, [2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!(g.report().deescalations, 2);
    }

    #[test]
    fn a_pinned_level_counts_violations_but_never_moves() {
        let g = LoadGovernor::new(GovernorConfig {
            force_level: Some(0),
            latency_budget_us: Some(1_000.0),
        });
        let levels: Vec<u8> = (0..6).map(|_| violating_tick(&g)).collect();
        assert_eq!(levels, [0; 6]);
        assert_eq!(g.latency_report().unwrap().violations, 6);
    }

    #[test]
    fn unviolated_budget_changes_nothing_and_mixed_windows_hold_state() {
        let g = budgeted();
        let levels: Vec<u8> = (0..16).map(|_| clean_tick(&g)).collect();
        assert_eq!(levels, [0; 16]);
        assert_eq!(g.latency_report().unwrap().violations, 0);
        // A window between low-water and the budget resets both streaks.
        violating_tick(&g);
        g.e2e.record(900.0);
        g.latency_tick_inner(true);
        assert_eq!(violating_tick(&g), 0, "the streak restarted");
        // An empty window is no signal at all.
        g.latency_tick_inner(true);
        assert_eq!(g.latency_report().unwrap().violations, 2);
    }

    #[test]
    fn latency_events_reach_an_attached_registry() {
        let g = budgeted();
        let reg = Arc::new(rfd_telemetry::Registry::default());
        g.set_registry(reg.clone());
        violating_tick(&g);
        violating_tick(&g);
        assert_eq!(reg.gauge("governor.level").get(), 1);
        let kinds: Vec<&str> = reg
            .events()
            .events()
            .iter()
            .map(|e| e.kind.as_str())
            .collect();
        assert_eq!(
            kinds,
            ["budget_violated", "budget_violated", "governor_shed"],
            "{kinds:?}"
        );
    }

    #[test]
    fn latency_report_round_trips_json() {
        let r = LatencyReport {
            budget_us: 5_000.0,
            violations: 3,
            last_p99_us: 6_200.0,
        };
        let json = r.to_json().to_json();
        assert_eq!(
            json,
            r#"{"budget_us":5000,"violations":3,"last_p99_us":6200}"#
        );
    }

    #[test]
    fn shed_counters_reach_the_report() {
        let g = LoadGovernor::new(GovernorConfig {
            force_level: Some(2),
            ..Default::default()
        });
        g.note_shed_demod();
        g.note_shed_demod();
        g.note_shed_detector();
        g.note_shed_vote();
        let r = g.report();
        assert_eq!(r.level, 2);
        assert_eq!(r.shed_demod, 2);
        assert_eq!(r.shed_detectors, 1);
        assert_eq!(r.shed_votes, 1);
        let json = r.to_json().to_json();
        assert!(json.contains("\"level_name\":\"shed-detectors\""), "{json}");
    }
}
