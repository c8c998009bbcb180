//! Analysis and filter-design window functions.

use std::f64::consts::PI;

/// Window shapes supported by `generate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Rectangular (no taper).
    Rectangular,
    /// Hann (raised cosine) window.
    Hann,
    /// Hamming window.
    Hamming,
    /// Blackman window (three-term).
    Blackman,
}

/// Generates a symmetric window of length `n`.
pub(crate) fn generate(window: Window, n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![1.0];
    }
    let m = (n - 1) as f64;
    (0..n)
        .map(|i| {
            let x = i as f64 / m;
            match window {
                Window::Rectangular => 1.0,
                Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
                Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
                Window::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(generate(Window::Rectangular, 7).iter().all(|&w| w == 1.0));
    }

    #[test]
    fn windows_are_symmetric() {
        for w in [Window::Hann, Window::Hamming, Window::Blackman] {
            let v = generate(w, 33);
            for i in 0..v.len() {
                assert!(
                    (v[i] - v[v.len() - 1 - i]).abs() < 1e-12,
                    "{w:?} not symmetric"
                );
            }
        }
    }

    #[test]
    fn hann_endpoints_are_zero_and_center_is_one() {
        let v = generate(Window::Hann, 65);
        assert!(v[0].abs() < 1e-12);
        assert!(v[64].abs() < 1e-12);
        assert!((v[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(generate(Window::Hann, 0).is_empty());
        assert_eq!(generate(Window::Blackman, 1), vec![1.0]);
    }
}
