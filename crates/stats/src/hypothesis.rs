//! Hypothesis tests used to *verify* point-process behaviour.
//!
//! The paper's operators come with "provable expected behaviour" (Section
//! IV-B); this module supplies the machinery to check that behaviour
//! empirically: a flattened stream must pass a χ² homogeneity test over
//! space-time bins, a thinned homogeneous stream must keep exponential
//! inter-arrivals (KS test), and Poisson counts must have unit dispersion.

use crate::special::{chi_square_sf, std_normal_cdf};

/// Result of a χ² goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    /// The χ² statistic `Σ (obs − exp)² / exp`.
    pub statistic: f64,
    /// Degrees of freedom.
    pub df: f64,
    /// Survival probability `Pr[χ²_df ≥ statistic]`.
    pub p_value: f64,
}

impl ChiSquare {
    /// `true` when the null hypothesis survives at significance `alpha`.
    #[inline]
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// χ² test of the null "all bins share one expected count" — the
/// homogeneity check for binned point-process counts.
///
/// # Panics
/// Panics with fewer than two bins (no degrees of freedom) or a zero total.
#[track_caller]
pub fn chi_square_uniform(counts: &[u64]) -> ChiSquare {
    assert!(counts.len() >= 2, "need at least two bins");
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "need at least one observation");
    let expected = total as f64 / counts.len() as f64;
    let statistic: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let df = (counts.len() - 1) as f64;
    ChiSquare { statistic, df, p_value: chi_square_sf(statistic, df) }
}

/// Result of a Kolmogorov–Smirnov test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic `D_n = sup |F_emp − F|`.
    pub statistic: f64,
    /// Sample size.
    pub n: usize,
    /// Asymptotic p-value from the Kolmogorov distribution.
    pub p_value: f64,
}

impl KsTest {
    /// `true` when the null hypothesis survives at significance `alpha`.
    #[inline]
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// One-sample KS test of inter-arrival gaps against `Exponential(rate)`.
///
/// For a homogeneous temporal Poisson process of rate `λ·area`, sorted
/// arrival gaps are iid `Exp(λ·area)`; this is the classic check that a
/// `thin`ned or `flatten`ed stream is "still Poisson" in time.
///
/// # Panics
/// Panics on an empty sample or non-positive rate.
#[track_caller]
pub fn ks_exponential(gaps: &[f64], rate: f64) -> KsTest {
    assert!(!gaps.is_empty(), "need at least one gap");
    assert!(rate > 0.0, "rate must be positive");
    let mut sorted = gaps.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("gaps must not be NaN"));
    let n = sorted.len();
    let mut d: f64 = 0.0;
    for (i, &g) in sorted.iter().enumerate() {
        let f = 1.0 - (-rate * g).exp();
        let lo = i as f64 / n as f64;
        let hi = (i + 1) as f64 / n as f64;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    KsTest { statistic: d, n, p_value: kolmogorov_sf((n as f64).sqrt() * d) }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(x) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²x²}` (asymptotic, accurate for n ≳ 35;
/// adequate for the thousands-of-points samples the experiments use).
fn kolmogorov_sf(x: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * x * x).exp();
        if term < 1e-16 {
            break;
        }
        sum += if k % 2 == 1 { term } else { -term };
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Result of the variance-to-mean dispersion test for Poisson counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dispersion {
    /// Variance/mean ratio (1 under the Poisson null).
    pub index: f64,
    /// Two-sided p-value from the normal approximation of
    /// `(n−1)·index ~ χ²_{n−1}`.
    pub p_value: f64,
}

/// Variance-to-mean dispersion index test on per-bin counts.
///
/// Under-dispersion (`index < 1`) indicates a more-regular-than-Poisson
/// stream; over-dispersion indicates clustering — exactly what flatten
/// removes when it succeeds.
///
/// # Panics
/// Panics with fewer than two bins or an all-zero sample.
#[track_caller]
pub fn dispersion_index(counts: &[u64]) -> Dispersion {
    assert!(counts.len() >= 2, "need at least two bins");
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    assert!(mean > 0.0, "need a non-zero mean count");
    let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let index = var / mean;
    // (n-1)*index ~ χ²_{n-1}; use the Wilson–Hilferty normal approximation
    // for a two-sided p-value, robust for large bin counts.
    let df = n - 1.0;
    let z = ((index).powf(1.0 / 3.0) - (1.0 - 2.0 / (9.0 * df))) / (2.0 / (9.0 * df)).sqrt();
    let one_sided = 1.0 - std_normal_cdf(z.abs());
    Dispersion { index, p_value: (2.0 * one_sided).min(1.0) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Poisson};
    use rand::distributions::Distribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chi_square_accepts_uniform_counts() {
        let counts = vec![100u64; 20];
        let r = chi_square_uniform(&counts);
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
        assert!(r.accepts(0.05));
    }

    #[test]
    fn chi_square_rejects_skewed_counts() {
        let mut counts = vec![100u64; 20];
        counts[0] = 600;
        let r = chi_square_uniform(&counts);
        assert!(r.p_value < 1e-6, "p={}", r.p_value);
        assert!(!r.accepts(0.001));
    }

    #[test]
    fn chi_square_accepts_true_poisson_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Poisson::new(80.0);
        let counts: Vec<u64> = (0..50).map(|_| d.sample(&mut rng)).collect();
        let r = chi_square_uniform(&counts);
        assert!(r.accepts(0.001), "p={}", r.p_value);
    }

    #[test]
    fn ks_accepts_true_exponential_gaps() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = Exponential::new(3.0);
        let gaps: Vec<f64> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
        let r = ks_exponential(&gaps, 3.0);
        assert!(r.accepts(0.001), "D={} p={}", r.statistic, r.p_value);
    }

    #[test]
    fn ks_rejects_wrong_rate() {
        let mut rng = StdRng::seed_from_u64(13);
        let d = Exponential::new(3.0);
        let gaps: Vec<f64> = (0..5_000).map(|_| d.sample(&mut rng)).collect();
        let r = ks_exponential(&gaps, 1.0);
        assert!(!r.accepts(0.001), "p={}", r.p_value);
    }

    #[test]
    fn ks_rejects_uniform_gaps() {
        let gaps: Vec<f64> = (0..2_000).map(|i| 0.5 + (i % 10) as f64 * 1e-4).collect();
        let r = ks_exponential(&gaps, 2.0);
        assert!(!r.accepts(0.001));
    }

    #[test]
    fn dispersion_near_one_for_poisson() {
        let mut rng = StdRng::seed_from_u64(17);
        let d = Poisson::new(50.0);
        let counts: Vec<u64> = (0..400).map(|_| d.sample(&mut rng)).collect();
        let r = dispersion_index(&counts);
        assert!((r.index - 1.0).abs() < 0.25, "index {}", r.index);
        assert!(r.p_value > 0.001);
    }

    #[test]
    fn dispersion_detects_clustering() {
        // Alternate empty and double-loaded bins: variance >> mean.
        let counts: Vec<u64> = (0..200).map(|i| if i % 2 == 0 { 0 } else { 100 }).collect();
        let r = dispersion_index(&counts);
        assert!(r.index > 10.0);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn dispersion_detects_regularity() {
        // Constant counts: index 0 (more regular than Poisson).
        let counts = vec![50u64; 100];
        let r = dispersion_index(&counts);
        assert_eq!(r.index, 0.0);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn kolmogorov_sf_reference() {
        // Known value: Q(0.8276) ≈ 0.5 (median of the Kolmogorov dist).
        let q = kolmogorov_sf(0.827_573_555);
        assert!((q - 0.5).abs() < 1e-3, "{q}");
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
    }
}
