//! Random-variate samplers built on `rand`'s uniform source.
//!
//! `rand_distr` is not in the offline crate set, so the three distributions
//! the point-process machinery needs are implemented here:
//!
//! - [`Exponential`] by inversion — inter-arrival times of a temporal
//!   Poisson process.
//! - [`Normal`] by Box–Muller — mobility perturbations and the GPS /
//!   sensor-noise error models of Section VI. [`Normal::sample_pair`]
//!   returns both variates of one draw; a single sample discards the
//!   second.
//! - [`Poisson`] by Knuth's product method for small means and Hörmann's
//!   PTRS transformed rejection for large means — the count of points a
//!   homogeneous MDPP drops in a window.
//!
//! All samplers implement [`rand::distributions::Distribution`] so they
//! compose with `Rng::sample` and iterator adapters.

use rand::distributions::Distribution;
use rand::Rng;

use crate::special::ln_gamma;

/// Exponential distribution with rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential with the given rate.
    ///
    /// # Panics
    /// Panics unless `rate` is finite and positive.
    #[track_caller]
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "exponential rate must be > 0, got {rate}");
        Self { rate }
    }

    /// The rate parameter λ.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Distribution mean `1/λ`.
    #[inline]
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Distribution<f64> for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inversion: −ln(U)/λ. `gen` yields [0,1); flip to (0,1] so ln is finite.
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.rate
    }
}

/// Normal distribution `N(mean, sd²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics unless `sd` is finite and non-negative (`sd == 0` degenerates
    /// to a point mass, which the error models use to switch noise off).
    #[track_caller]
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            mean.is_finite() && sd.is_finite() && sd >= 0.0,
            "bad normal params ({mean}, {sd})"
        );
        Self { mean, sd }
    }

    /// A standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation.
    #[inline]
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Two independent samples from one Box–Muller draw: the same two RNG
    /// words as [`Distribution::sample`], in the same order (none when
    /// `sd == 0`), with `r = sd·√(−2 ln u₁)` and `θ = 2π u₂` giving
    /// `(mean + r cos θ, mean + r sin θ)`. The first is bit-identical to
    /// what `sample` returns for those words. Stateless, like `sample`.
    pub fn sample_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        if self.sd == 0.0 {
            return (self.mean, self.mean);
        }
        let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        let u2: f64 = rng.gen();
        let r = self.sd * (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        (self.mean + r * cos, self.mean + r * sin)
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.sd == 0.0 {
            return self.mean;
        }
        // Box–Muller. The spare variate is discarded (`sample_pair` keeps
        // it): the sampler stays stateless, so interleaved samplers sharing
        // one RNG remain reproducible.
        let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.sd * r * theta.cos()
    }
}

/// Poisson distribution with mean `μ`.
///
/// Sampling strategy:
/// - `μ == 0` → constant 0;
/// - `μ < 10` → Knuth's product-of-uniforms method, O(μ) per draw;
/// - `μ ≥ 10` → Hörmann's PTRS transformed-rejection sampler, O(1) expected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
}

/// Mean threshold at which sampling switches from Knuth to PTRS.
const PTRS_THRESHOLD: f64 = 10.0;

impl Poisson {
    /// Creates a Poisson with the given mean.
    ///
    /// # Panics
    /// Panics unless `mean` is finite and non-negative.
    #[track_caller]
    pub fn new(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 0.0, "poisson mean must be >= 0, got {mean}");
        Self { mean }
    }

    /// The mean μ (also the variance).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    fn sample_knuth<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let limit = (-self.mean).exp();
        let mut product: f64 = rng.gen();
        let mut count = 0u64;
        while product > limit {
            product *= rng.gen::<f64>();
            count += 1;
        }
        count
    }

    /// PTRS — "transformed rejection with squeeze" (W. Hörmann, 1993),
    /// valid for μ ≥ 10.
    fn sample_ptrs<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mu = self.mean;
        let log_mu = mu.ln();
        let b = 0.931 + 2.53 * mu.sqrt();
        let a = -0.059 + 0.024_83 * b;
        let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
        let v_r = 0.9277 - 3.6224 / (b - 2.0);
        loop {
            let u: f64 = rng.gen::<f64>() - 0.5;
            let v: f64 = rng.gen();
            let us = 0.5 - u.abs();
            let k = ((2.0 * a / us + b) * u + mu + 0.43).floor();
            if us >= 0.07 && v <= v_r {
                return k as u64;
            }
            if k < 0.0 || (us < 0.013 && v > us) {
                continue;
            }
            let lhs = (v * inv_alpha / (a / (us * us) + b)).ln();
            let rhs = k * log_mu - mu - ln_gamma(k + 1.0);
            if lhs <= rhs {
                return k as u64;
            }
        }
    }
}

impl Distribution<u64> for Poisson {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean == 0.0 {
            0
        } else if self.mean < PTRS_THRESHOLD {
            self.sample_knuth(rng)
        } else {
            self.sample_ptrs(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineMoments;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED_CAFE)
    }

    fn sample_moments<D, T>(dist: &D, n: usize) -> OnlineMoments
    where
        D: Distribution<T>,
        T: Into<f64> + Copy,
    {
        let mut rng = rng();
        let mut m = OnlineMoments::new();
        for _ in 0..n {
            m.push(dist.sample(&mut rng).into());
        }
        m
    }

    #[test]
    fn exponential_mean_and_variance() {
        let d = Exponential::new(2.0);
        let m = sample_moments(&d, 200_000);
        assert!((m.mean() - 0.5).abs() < 0.01, "mean {}", m.mean());
        assert!((m.variance() - 0.25).abs() < 0.02, "var {}", m.variance());
    }

    #[test]
    fn exponential_samples_are_positive() {
        let d = Exponential::new(0.1);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be > 0")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(3.0, 2.0);
        let m = sample_moments(&d, 200_000);
        assert!((m.mean() - 3.0).abs() < 0.02, "mean {}", m.mean());
        assert!((m.variance() - 4.0).abs() < 0.08, "var {}", m.variance());
    }

    #[test]
    fn degenerate_normal_is_constant() {
        let d = Normal::new(5.0, 0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 5.0);
        }
    }

    #[test]
    fn a_pair_draws_the_words_of_one_sample_and_starts_with_its_value() {
        let d = Normal::new(3.0, 2.0);
        let (mut single, mut paired) = (rng(), rng());
        for _ in 0..1_000 {
            let (x, _) = d.sample_pair(&mut paired);
            assert_eq!(x.to_bits(), d.sample(&mut single).to_bits());
        }
        assert_eq!(single.next_u64(), paired.next_u64(), "the two streams diverged");
        let mut r = rng();
        assert_eq!(Normal::new(5.0, 0.0).sample_pair(&mut r), (5.0, 5.0));
        assert_eq!(r.next_u64(), rng().next_u64(), "a zero deviation draws no word");
    }

    #[test]
    fn normal_tail_mass_is_symmetric() {
        let d = Normal::standard();
        let mut r = rng();
        let n = 100_000;
        let above = (0..n).filter(|_| d.sample(&mut r) > 0.0).count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let d = Poisson::new(0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 0);
        }
    }

    #[test]
    fn poisson_small_mean_moments() {
        // Knuth branch.
        let d = Poisson::new(3.5);
        let m = {
            let mut r = rng();
            let mut m = OnlineMoments::new();
            for _ in 0..200_000 {
                m.push(d.sample(&mut r) as f64);
            }
            m
        };
        assert!((m.mean() - 3.5).abs() < 0.03, "mean {}", m.mean());
        assert!((m.variance() - 3.5).abs() < 0.08, "var {}", m.variance());
    }

    #[test]
    fn poisson_large_mean_moments() {
        // PTRS branch.
        let d = Poisson::new(250.0);
        let mut r = rng();
        let mut m = OnlineMoments::new();
        for _ in 0..100_000 {
            m.push(d.sample(&mut r) as f64);
        }
        assert!((m.mean() - 250.0).abs() < 0.5, "mean {}", m.mean());
        assert!((m.variance() - 250.0).abs() < 6.0, "var {}", m.variance());
    }

    #[test]
    fn poisson_boundary_mean_between_branches() {
        // Means just below/above the PTRS threshold should agree in moments.
        for &mu in &[9.5, 10.5] {
            let d = Poisson::new(mu);
            let mut r = rng();
            let mut m = OnlineMoments::new();
            for _ in 0..150_000 {
                m.push(d.sample(&mut r) as f64);
            }
            assert!((m.mean() - mu).abs() < 0.05, "mu={mu} mean {}", m.mean());
        }
    }

    #[test]
    fn poisson_distribution_matches_pmf() {
        // Compare empirical frequencies to the exact PMF for a few k.
        let mu = 4.0;
        let d = Poisson::new(mu);
        let mut r = rng();
        let n = 300_000usize;
        let mut counts = [0usize; 16];
        for _ in 0..n {
            let k = d.sample(&mut r) as usize;
            if k < counts.len() {
                counts[k] += 1;
            }
        }
        for k in 0..12u64 {
            let pmf = (-mu + k as f64 * mu.ln() - crate::special::ln_factorial(k)).exp();
            let freq = counts[k as usize] as f64 / n as f64;
            assert!((freq - pmf).abs() < 0.004, "k={k}: freq {freq:.4} vs pmf {pmf:.4}");
        }
    }
}
