//! Barker-11 spreading.
//!
//! Every 802.11b PSK symbol is multiplied by the 11-chip Barker sequence,
//! pushing the chip rate to 11 Mchips/s and the occupied bandwidth to
//! 22 MHz. The sequence's ideal autocorrelation (peak 11, sidelobes ≤ 1) is
//! what makes both the receiver's despreader and RFDump's precomputed
//! phase-pattern detector work.

use rfd_dsp::Complex32;

/// The 11-chip Barker sequence used by 802.11 DSSS
/// (IEEE 802.11-2007 §18.4.6.4), first-transmitted chip first.
pub const BARKER11: [f32; 11] = [1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0];

/// Spreads one complex symbol into 11 chips (one output sample per chip).
pub(crate) fn spread_symbol(symbol: Complex32, out: &mut Vec<Complex32>) {
    for &c in BARKER11.iter() {
        out.push(symbol.scale(c));
    }
}

/// Despreads 11 chip samples into one symbol estimate (normalized correlation
/// with the Barker sequence; for a clean signal the output equals the
/// transmitted symbol).
pub(crate) fn despread_symbol(chips: &[Complex32]) -> Complex32 {
    debug_assert_eq!(chips.len(), 11);
    let mut acc = Complex32::ZERO;
    for (z, &c) in chips.iter().zip(BARKER11.iter()) {
        acc += z.scale(c);
    }
    acc.scale(1.0 / 11.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Barker autocorrelation at a given cyclic lag.
    fn autocorr(lag: usize) -> f32 {
        let n = BARKER11.len();
        (0..n).map(|i| BARKER11[i] * BARKER11[(i + lag) % n]).sum()
    }

    #[test]
    fn autocorrelation_peak_and_sidelobes() {
        assert_eq!(autocorr(0), 11.0);
        for lag in 1..11 {
            assert!(
                autocorr(lag).abs() <= 1.0 + 1e-6,
                "lag {lag}: {}",
                autocorr(lag)
            );
        }
    }

    #[test]
    fn spread_despread_round_trip() {
        let sym = Complex32::from_polar(1.0, 2.1);
        let mut chips = Vec::new();
        spread_symbol(sym, &mut chips);
        assert_eq!(chips.len(), 11);
        let back = despread_symbol(&chips);
        assert!((back - sym).abs() < 1e-6);
    }

    #[test]
    fn misaligned_despread_is_weak() {
        // Despreading with a one-chip misalignment across two identical
        // symbols collapses toward the autocorrelation sidelobe level.
        let sym = Complex32::ONE;
        let mut chips = Vec::new();
        spread_symbol(sym, &mut chips);
        spread_symbol(sym, &mut chips);
        let off = despread_symbol(&chips[1..12]);
        assert!(off.abs() < 0.4, "misaligned magnitude {}", off.abs());
    }
}
