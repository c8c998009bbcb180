//! One shed ladder for every degradation loop: a clamped [`Rung`] and the
//! streak [`Hysteresis`] that steps it. The governor's CPU ladder steps its
//! rung from an EWMA, without streaks; its latency ladder and the fleet's
//! per-source ladders step theirs from windowed p99s through the streaks.

use std::sync::atomic::{AtomicU8, Ordering};

/// A shed level clamped to `0..=top`, shared by the loop that walks it and
/// every thread that consults it.
#[derive(Debug)]
pub struct Rung {
    level: AtomicU8,
    top: u8,
}

impl Rung {
    /// A rung at `level`, clamped to `top`.
    pub fn new(level: u8, top: u8) -> Self {
        Self {
            level: AtomicU8::new(level.min(top)),
            top,
        }
    }

    /// The current level.
    pub fn level(&self) -> u8 {
        self.level.load(Ordering::SeqCst)
    }

    /// Moves straight to `level`, clamped to `top`.
    pub fn set(&self, level: u8) {
        self.level.store(level.min(self.top), Ordering::SeqCst);
    }

    /// One rung up: `(from, to)`, or `None` at the top.
    pub fn up(&self) -> Option<(u8, u8)> {
        self.step(|l| (l < self.top).then(|| l + 1))
    }

    /// One rung down: `(from, to)`, or `None` at 0.
    pub fn down(&self) -> Option<(u8, u8)> {
        self.step(|l| l.checked_sub(1))
    }

    fn step(&self, next: impl Fn(u8) -> Option<u8>) -> Option<(u8, u8)> {
        let from = self
            .level
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, &next)
            .ok()?;
        Some((from, next(from)?))
    }
}

/// Where one window fell against the budget. The flag says a step is due:
/// over the budget, until the caller spends it; under low water, on the
/// window that completes the streak, which then restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Over the budget.
    Over(bool),
    /// Under `low_water × budget`.
    Under(bool),
    /// Between the two: both streaks reset.
    Dead,
}

/// `up_after` consecutive windows over the budget make a step up due,
/// `down_after` consecutive windows under `low_water × budget` a step down,
/// and a window in between resets both streaks.
///
/// A due step down is always taken, so the under streak restarts itself. A
/// due step up may be arbitrated away (the fleet escalates only its worst
/// source per sweep), so the over streak stays due until
/// [`Hysteresis::spend_over`]: a source passed over escalates next time.
#[derive(Debug)]
pub struct Hysteresis {
    up_after: u32,
    down_after: u32,
    low_water: f64,
    over: u32,
    under: u32,
}

impl Hysteresis {
    /// Streak thresholds and the clean fraction of the budget.
    pub fn new(up_after: u32, down_after: u32, low_water: f64) -> Self {
        Self {
            up_after,
            down_after,
            low_water,
            over: 0,
            under: 0,
        }
    }

    /// Books one window whose signal read `value` against `budget`.
    pub fn observe(&mut self, value: f64, budget: f64) -> Window {
        if value > budget {
            self.under = 0;
            self.over += 1;
            Window::Over(self.over >= self.up_after)
        } else if value < self.low_water * budget {
            self.over = 0;
            self.under += 1;
            let due = self.under >= self.down_after;
            if due {
                self.under = 0;
            }
            Window::Under(due)
        } else {
            self.over = 0;
            self.under = 0;
            Window::Dead
        }
    }

    /// Restarts the over streak: the caller acted on a due step up.
    pub fn spend_over(&mut self) {
        self.over = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_clamps_at_zero_and_top() {
        let r = Rung::new(9, 2);
        assert_eq!(r.level(), 2, "construction clamps");
        assert_eq!(r.up(), None);
        assert_eq!(r.down(), Some((2, 1)));
        assert_eq!(r.down(), Some((1, 0)));
        assert_eq!(r.down(), None);
        assert_eq!(r.level(), 0);
        assert_eq!(r.up(), Some((0, 1)));
        r.set(7);
        assert_eq!(r.level(), 2, "set clamps");
        r.set(0);
        assert_eq!(r.level(), 0);
    }

    #[test]
    fn streak_thresholds_make_steps_due() {
        let mut h = Hysteresis::new(2, 4, 0.7);
        assert_eq!(h.observe(150.0, 100.0), Window::Over(false));
        assert_eq!(h.observe(150.0, 100.0), Window::Over(true));
        // An unspent over streak stays due.
        assert_eq!(h.observe(150.0, 100.0), Window::Over(true));
        h.spend_over();
        assert_eq!(h.observe(150.0, 100.0), Window::Over(false));
        assert_eq!(h.observe(150.0, 100.0), Window::Over(true));
        // An under window breaks the over streak; four make a step down due,
        // and the under streak restarts by itself.
        let under: Vec<Window> = (0..8).map(|_| h.observe(10.0, 100.0)).collect();
        let due: Vec<bool> = under
            .iter()
            .map(|w| matches!(w, Window::Under(true)))
            .collect();
        assert_eq!(due, [false, false, false, true, false, false, false, true]);
        assert_eq!(h.observe(150.0, 100.0), Window::Over(false));
    }

    #[test]
    fn dead_zone_resets_both_streaks() {
        let mut h = Hysteresis::new(2, 2, 0.8);
        h.observe(150.0, 100.0);
        assert_eq!(h.observe(90.0, 100.0), Window::Dead);
        assert_eq!(h.observe(150.0, 100.0), Window::Over(false));
        h.observe(10.0, 100.0);
        assert_eq!(
            h.observe(80.0, 100.0),
            Window::Dead,
            "low water is not clean"
        );
        assert_eq!(h.observe(10.0, 100.0), Window::Under(false));
        assert_eq!(
            h.observe(100.0, 100.0),
            Window::Dead,
            "the budget is not over"
        );
        assert_eq!(h.observe(10.0, 100.0), Window::Under(false));
        assert_eq!(h.observe(10.0, 100.0), Window::Under(true));
    }
}
