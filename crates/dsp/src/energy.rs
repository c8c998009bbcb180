//! Power/energy utilities: dB conversion and running averages.
//!
//! The RFDump peak detector (§4.3) computes "the average energy of the last
//! window of samples within the chunk" and compares it against "a certain
//! threshold (4 dB more than the noise floor)"; these helpers provide that
//! machinery.

use crate::complex::Complex32;

/// Converts a linear power ratio to decibels. Clamps at -300 dB for zero.
#[inline]
pub fn power_to_db(p: f32) -> f32 {
    if p <= 0.0 {
        -300.0
    } else {
        10.0 * p.log10()
    }
}

/// Converts decibels to a linear power ratio.
#[inline]
pub fn db_to_power(db: f32) -> f32 {
    10f32.powf(db / 10.0)
}

/// A running average of instantaneous power over a fixed window of samples.
///
/// The paper uses a 2.5 µs (20-sample) window so that the smallest timing it
/// must resolve (802.11 SIFS, 10 µs) spans several windows.
#[derive(Debug, Clone)]
pub struct RunningPower {
    window: Vec<f32>,
    pos: usize,
    filled: usize,
    sum: f64,
}

impl RunningPower {
    /// Creates an averager over `window` samples.
    pub fn new(window: usize) -> Self {
        assert!(window > 0);
        Self {
            window: vec![0.0; window],
            pos: 0,
            filled: 0,
            sum: 0.0,
        }
    }

    /// Pushes one sample and returns the current windowed average power.
    /// Until the window fills, the average is over the samples seen so far.
    #[inline]
    pub fn push(&mut self, z: Complex32) -> f32 {
        self.push_power(z.norm_sqr())
    }

    /// Pushes a precomputed instantaneous power (`|z|²`) and returns the
    /// current windowed average.
    #[inline]
    pub(crate) fn push_power(&mut self, p: f32) -> f32 {
        self.sum -= self.window[self.pos] as f64;
        self.window[self.pos] = p;
        self.sum += p as f64;
        self.pos += 1;
        if self.pos == self.window.len() {
            self.pos = 0;
        }
        if self.filled < self.window.len() {
            self.filled += 1;
        }
        (self.sum / self.filled as f64) as f32
    }

    /// Whether a whole window has been pushed, so averages divide by the
    /// window length.
    pub fn is_full(&self) -> bool {
        self.filled == self.window.len()
    }

    /// The running sum, exactly as the `push_power`
    /// chain has left it.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Appends the window's values to `out` in the order the next pushes
    /// evict them, oldest first (zeros for slots not yet filled).
    pub fn extend_history(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(&self.window[self.pos..]);
        out.extend_from_slice(&self.window[..self.pos]);
    }

    /// Leaves the state `push_power` over every value of `pushed` would,
    /// given the running sum that chain ends at — for a caller that has
    /// computed that sum exactly another way. `pushed` must be at least one
    /// window long, so it replaces the whole window.
    pub fn refill(&mut self, pushed: &[f32], sum: f64) {
        let w = self.window.len();
        assert!(pushed.len() >= w, "refill shorter than the window");
        self.pos = (self.pos + pushed.len()) % w;
        let last = &pushed[pushed.len() - w..];
        // last[i], the i-th oldest survivor, sits in slot (pos + i) mod w.
        let (to_end, wrapped) = last.split_at(w - self.pos);
        self.window[self.pos..].copy_from_slice(to_end);
        self.window[..self.pos].copy_from_slice(wrapped);
        self.filled = w;
        self.sum = sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trip() {
        for db in [-30.0f32, -3.0, 0.0, 10.0, 27.5] {
            assert!((power_to_db(db_to_power(db)) - db).abs() < 1e-4);
        }
        assert_eq!(power_to_db(0.0), -300.0);
    }

    #[test]
    fn running_power_converges_to_signal_power() {
        let mut rp = RunningPower::new(20);
        let mut avg = 0.0;
        for i in 0..100 {
            avg = rp.push(Complex32::cis(i as f32 * 0.3).scale(2.0));
        }
        assert!((avg - 4.0).abs() < 1e-4);
    }

    #[test]
    fn running_power_partial_fill() {
        let mut rp = RunningPower::new(10);
        let a = rp.push(Complex32::new(1.0, 0.0));
        assert!((a - 1.0).abs() < 1e-6); // average over 1 sample, not 10
        let a = rp.push(Complex32::ZERO);
        assert!((a - 0.5).abs() < 1e-6);
    }

    #[test]
    fn running_power_window_slides() {
        let mut rp = RunningPower::new(4);
        for _ in 0..4 {
            rp.push(Complex32::new(1.0, 0.0));
        }
        let mut avg = 1.0;
        for _ in 0..4 {
            avg = rp.push(Complex32::ZERO);
        }
        assert!(avg < 1e-6);
    }

    #[test]
    fn refill_leaves_the_state_the_pushes_would() {
        for (w, n) in [(4usize, 4usize), (4, 7), (5, 13), (3, 3)] {
            let values: Vec<f32> = (1..=2 * n).map(|i| i as f32 * 0.25).collect();
            let mut pushed = RunningPower::new(w);
            let mut refilled = RunningPower::new(w);
            for &p in &values[..n] {
                pushed.push_power(p);
                refilled.push_power(p);
            }
            for &p in &values[n..] {
                pushed.push_power(p);
            }
            refilled.refill(&values[n..], pushed.sum());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            pushed.extend_history(&mut a);
            refilled.extend_history(&mut b);
            assert_eq!(a, b, "w {w} n {n}");
            for p in [9.0f32, 10.0, 11.0] {
                assert_eq!(pushed.push_power(p), refilled.push_power(p));
            }
        }
    }
}
