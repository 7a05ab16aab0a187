//! Conditional-intensity models `λ̃(t, x, y; θ)`.
//!
//! An intensity model answers three questions the rest of the stack needs:
//! the *pointwise rate* (flatten's Eq. (3) denominator), a *window upper
//! bound* (the envelope for Lewis–Shedler thinning), and the *window
//! integral* (expected count; the normalizer of the Poisson
//! log-likelihood). Models where the integral has a closed form implement
//! it exactly; the rest fall back to midpoint-rule quadrature.

use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};

/// A conditional spatio-temporal intensity (rate) function.
pub trait IntensityModel {
    /// The rate at a space-time point (always ≥ 0).
    fn rate_at(&self, p: &SpaceTimePoint) -> f64;

    /// An upper bound of the rate over the window (need not be tight, but
    /// tighter bounds make thinning-based samplers faster).
    fn max_rate(&self, w: &SpaceTimeWindow) -> f64;

    /// `∫_W λ` — the expected number of points in the window.
    ///
    /// The default implementation uses midpoint quadrature on a
    /// `res × res × res` lattice; override when a closed form exists.
    fn integral(&self, w: &SpaceTimeWindow) -> f64 {
        numeric_integral(self, w, 32)
    }

    /// `true` when the rate does not depend on `t`, so `∫` over any two
    /// windows with the same footprint and duration coincide. Lets
    /// [`IntegralCache`] serve sliding windows (same shape, shifted `t0`)
    /// from one entry. Conservative default: `false`.
    fn is_time_invariant(&self) -> bool {
        false
    }
}

/// Midpoint-rule quadrature of an intensity over a window.
///
/// Exposed so tests can cross-check closed-form integrals. The lattice
/// midpoint coordinates are precomputed per axis and a single probe point
/// is mutated in place, so the `res³` inner loop does no
/// `SpaceTimePoint` construction — only the `rate_at` calls remain.
/// Summation order matches the naive triple loop exactly (`t`, then `x`,
/// then `y`), keeping results bit-identical to previous versions.
pub fn numeric_integral<I: IntensityModel + ?Sized>(
    intensity: &I,
    w: &SpaceTimeWindow,
    res: usize,
) -> f64 {
    assert!(res > 0, "need at least one lattice cell");
    let dt = w.duration() / res as f64;
    let dx = w.rect.width() / res as f64;
    let dy = w.rect.height() / res as f64;
    let ts: Vec<f64> = (0..res).map(|i| w.t0 + dt * (i as f64 + 0.5)).collect();
    let xs: Vec<f64> = (0..res).map(|i| w.rect.x0 + dx * (i as f64 + 0.5)).collect();
    let ys: Vec<f64> = (0..res).map(|i| w.rect.y0 + dy * (i as f64 + 0.5)).collect();
    let mut probe = SpaceTimePoint::new(0.0, 0.0, 0.0);
    let mut sum = 0.0;
    for &t in &ts {
        probe.t = t;
        for &x in &xs {
            probe.x = x;
            for &y in &ys {
                probe.y = y;
                sum += intensity.rate_at(&probe);
            }
        }
    }
    sum * dt * dx * dy
}

/// One memoized integral: the identifying key plus the cached value.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IntegralEntry {
    /// Model revision the value was computed for.
    epoch: u64,
    /// Window identity: bit patterns of `(x0, y0, x1, y1)` plus either
    /// `(t0, t1)` or `(duration, duration)` for time-invariant models.
    key: [u64; 6],
    value: f64,
}

/// A small memo table for [`IntensityModel::integral`] keyed by
/// `(model epoch, window)`.
///
/// Epoch-driven workloads (the bench harness's stream generators, and any
/// consumer of [`crate::process::InhomogeneousMdpp::expected_count`])
/// evaluate expected counts for the *same* window shape epoch after epoch
/// — each cell's batch window just slides in time. Without caching, every
/// evaluation of a model with no closed form re-runs `32³ = 32 768`
/// `rate_at` calls of midpoint quadrature. Callers own the cache and bump
/// `epoch` whenever the model's parameters change (e.g. per fitted
/// batch), which implicitly invalidates all older entries. (The `F`
/// operator itself estimates per-tuple *pointwise* rates, not window
/// integrals, so it has no use for this cache — integral consumers sit
/// at the sampling/diagnostic layer.)
///
/// For models reporting [`IntensityModel::is_time_invariant`], windows are
/// keyed by footprint + duration, so sliding a window through time hits
/// the same entry.
#[derive(Debug, Default)]
pub struct IntegralCache {
    entries: Vec<IntegralEntry>,
    hits: u64,
    misses: u64,
}

/// Retained entries per cache — enough for one server's worth of distinct
/// cell windows without unbounded growth.
const INTEGRAL_CACHE_CAPACITY: usize = 64;

impl IntegralCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn key_of<I: IntensityModel + ?Sized>(model: &I, w: &SpaceTimeWindow) -> [u64; 6] {
        let (kt0, kt1) = if model.is_time_invariant() {
            (w.duration().to_bits(), w.duration().to_bits())
        } else {
            (w.t0.to_bits(), w.t1.to_bits())
        };
        [
            w.rect.x0.to_bits(),
            w.rect.y0.to_bits(),
            w.rect.x1.to_bits(),
            w.rect.y1.to_bits(),
            kt0,
            kt1,
        ]
    }

    /// `∫_W λ` through the cache: returns the memoized value when
    /// `(epoch, window)` was seen before, otherwise computes
    /// [`IntensityModel::integral`], stores it, and returns it.
    pub fn integral_of<I: IntensityModel + ?Sized>(
        &mut self,
        model: &I,
        epoch: u64,
        w: &SpaceTimeWindow,
    ) -> f64 {
        let key = Self::key_of(model, w);
        if let Some(e) = self.entries.iter().find(|e| e.epoch == epoch && e.key == key) {
            self.hits += 1;
            return e.value;
        }
        self.misses += 1;
        let value = model.integral(w);
        if self.entries.len() == INTEGRAL_CACHE_CAPACITY {
            self.entries.remove(0); // FIFO eviction; the table is tiny
        }
        self.entries.push(IntegralEntry { epoch, key, value });
        value
    }

    /// `(hits, misses)` since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of memoized integrals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry (e.g. after wholesale model replacement).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Constant rate `λ` — the intensity of a homogeneous MDPP `P(λ, R)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantIntensity {
    rate: f64,
}

impl ConstantIntensity {
    /// Creates a constant intensity.
    ///
    /// # Panics
    /// Panics when `rate` is negative or non-finite.
    #[track_caller]
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0, got {rate}");
        Self { rate }
    }

    /// The rate λ.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl IntensityModel for ConstantIntensity {
    #[inline]
    fn rate_at(&self, _p: &SpaceTimePoint) -> f64 {
        self.rate
    }

    #[inline]
    fn max_rate(&self, _w: &SpaceTimeWindow) -> f64 {
        self.rate
    }

    #[inline]
    fn integral(&self, w: &SpaceTimeWindow) -> f64 {
        self.rate * w.volume()
    }

    #[inline]
    fn is_time_invariant(&self) -> bool {
        true
    }
}

/// The paper's Eq. (1): `λ̃(t, x, y; θ) = θ0 + θ1·t + θ2·x + θ3·y`,
/// truncated at zero.
///
/// The linear form can go negative outside its fitted range; following the
/// convention of conditional-intensity fitting (ref. \[12\]) the model value
/// is `max(0, ·)`. [`LinearIntensity::is_positive_on`] reports whether the
/// window stays in the strictly-positive regime, where the closed-form
/// integral and the concavity of the log-likelihood are exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearIntensity {
    theta: [f64; 4],
}

impl LinearIntensity {
    /// Creates the model from `θ = [θ0, θ1, θ2, θ3]`.
    ///
    /// # Panics
    /// Panics on non-finite parameters.
    #[track_caller]
    pub fn new(theta: [f64; 4]) -> Self {
        assert!(theta.iter().all(|t| t.is_finite()), "theta must be finite: {theta:?}");
        Self { theta }
    }

    /// A constant-rate special case (`θ1 = θ2 = θ3 = 0`).
    pub fn constant(rate: f64) -> Self {
        Self::new([rate, 0.0, 0.0, 0.0])
    }

    /// The parameter vector θ.
    #[inline]
    pub fn theta(&self) -> [f64; 4] {
        self.theta
    }

    /// The raw (untruncated) linear form.
    #[inline]
    pub fn linear_at(&self, p: &SpaceTimePoint) -> f64 {
        self.theta[0] + self.theta[1] * p.t + self.theta[2] * p.x + self.theta[3] * p.y
    }

    /// The feature vector `f(p) = (1, t, x, y)` of Eq. (1); gradient of the
    /// linear form with respect to θ.
    #[inline]
    pub fn features(p: &SpaceTimePoint) -> [f64; 4] {
        [1.0, p.t, p.x, p.y]
    }

    /// Evaluates the linear form at every corner of the window. Because the
    /// form is affine, its extrema over the box lie at corners.
    fn corner_values(&self, w: &SpaceTimeWindow) -> [f64; 8] {
        let mut vals = [0.0; 8];
        let mut i = 0;
        for &t in &[w.t0, w.t1] {
            for &x in &[w.rect.x0, w.rect.x1] {
                for &y in &[w.rect.y0, w.rect.y1] {
                    vals[i] = self.linear_at(&SpaceTimePoint::new(t, x, y));
                    i += 1;
                }
            }
        }
        vals
    }

    /// `true` when the linear form is strictly positive over the whole
    /// window (checked at corners; exact for an affine function).
    pub fn is_positive_on(&self, w: &SpaceTimeWindow) -> bool {
        self.corner_values(w).iter().all(|&v| v > 0.0)
    }

    /// Minimum of the linear form over the window.
    pub fn min_on(&self, w: &SpaceTimeWindow) -> f64 {
        self.corner_values(w).iter().copied().fold(f64::INFINITY, f64::min)
    }
}

impl IntensityModel for LinearIntensity {
    #[inline]
    fn rate_at(&self, p: &SpaceTimePoint) -> f64 {
        self.linear_at(p).max(0.0)
    }

    fn max_rate(&self, w: &SpaceTimeWindow) -> f64 {
        self.corner_values(w).iter().copied().fold(0.0, f64::max)
    }

    fn integral(&self, w: &SpaceTimeWindow) -> f64 {
        if self.is_positive_on(w) {
            // ∫_W (θ0 + θ1 t + θ2 x + θ3 y) = V · λ(midpoint) for an affine
            // integrand over a box.
            let (cx, cy) = w.rect.center();
            let mid = SpaceTimePoint::new((w.t0 + w.t1) * 0.5, cx, cy);
            self.linear_at(&mid) * w.volume()
        } else {
            // Truncation active somewhere: integrate max(0, ·) numerically.
            numeric_integral(self, w, 64)
        }
    }

    #[inline]
    fn is_time_invariant(&self) -> bool {
        self.theta[1] == 0.0
    }
}

/// Time-invariant intensity `λ(t, x, y) = s(x, y)` with a Gaussian-bump
/// spatial profile.
///
/// This is the shape of the crowd simulator's *skewed* sensor density — the
/// phenomenon (hotspots downtown) the paper says makes crowdsensed arrivals
/// "highly skewed".
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianBumpIntensity {
    base: f64,
    bumps: Vec<Bump>,
}

/// One spatial hotspot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bump {
    /// Hotspot centre x (km).
    pub cx: f64,
    /// Hotspot centre y (km).
    pub cy: f64,
    /// Peak added rate at the centre.
    pub amplitude: f64,
    /// Gaussian width σ (km).
    pub sigma: f64,
}

impl GaussianBumpIntensity {
    /// Creates a bump intensity with base rate `base`.
    ///
    /// # Panics
    /// Panics when `base` is negative or any bump has non-positive
    /// `sigma`/negative `amplitude`.
    #[track_caller]
    pub fn new(base: f64, bumps: Vec<Bump>) -> Self {
        assert!(base.is_finite() && base >= 0.0, "base rate must be >= 0");
        for b in &bumps {
            assert!(b.sigma > 0.0, "bump sigma must be > 0");
            assert!(b.amplitude >= 0.0, "bump amplitude must be >= 0");
        }
        Self { base, bumps }
    }

    fn spatial(&self, x: f64, y: f64) -> f64 {
        let mut s = self.base;
        for b in &self.bumps {
            let dx = x - b.cx;
            let dy = y - b.cy;
            s += b.amplitude * (-(dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma)).exp();
        }
        s
    }
}

impl IntensityModel for GaussianBumpIntensity {
    fn rate_at(&self, p: &SpaceTimePoint) -> f64 {
        self.spatial(p.x, p.y)
    }

    fn max_rate(&self, _w: &SpaceTimeWindow) -> f64 {
        // Cheap bound: all bumps at their peaks.
        self.base + self.bumps.iter().map(|b| b.amplitude).sum::<f64>()
    }

    #[inline]
    fn is_time_invariant(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::Rect;

    fn window() -> SpaceTimeWindow {
        SpaceTimeWindow::new(Rect::with_size(10.0, 10.0), 0.0, 20.0)
    }

    #[test]
    fn constant_intensity_integral_is_rate_times_volume() {
        let c = ConstantIntensity::new(2.5);
        let w = window();
        assert!((c.integral(&w) - 2.5 * 2000.0).abs() < 1e-9);
        assert_eq!(c.max_rate(&w), 2.5);
        assert_eq!(c.rate_at(&SpaceTimePoint::new(1.0, 2.0, 3.0)), 2.5);
    }

    #[test]
    fn linear_intensity_matches_eq1() {
        let l = LinearIntensity::new([1.0, 0.5, 2.0, -0.25]);
        let p = SpaceTimePoint::new(2.0, 3.0, 4.0);
        // 1 + 0.5*2 + 2*3 - 0.25*4 = 7.
        assert!((l.rate_at(&p) - 7.0).abs() < 1e-12);
        assert_eq!(LinearIntensity::features(&p), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn linear_intensity_truncates_at_zero() {
        let l = LinearIntensity::new([-5.0, 0.0, 0.0, 0.0]);
        assert_eq!(l.rate_at(&SpaceTimePoint::new(0.0, 0.0, 0.0)), 0.0);
    }

    #[test]
    fn linear_closed_form_integral_matches_quadrature() {
        let l = LinearIntensity::new([3.0, 0.05, 0.2, 0.1]);
        let w = window();
        assert!(l.is_positive_on(&w));
        let closed = l.integral(&w);
        let numeric = numeric_integral(&l, &w, 48);
        assert!((closed - numeric).abs() < 1e-3 * closed, "closed {closed} vs numeric {numeric}");
    }

    #[test]
    fn linear_truncated_integral_uses_quadrature() {
        // Goes negative over part of the window.
        let l = LinearIntensity::new([-2.0, 0.0, 1.0, 0.0]);
        let w = window();
        assert!(!l.is_positive_on(&w));
        // Analytic: ∫max(0, x-2) over x∈[0,10] = 32; times 10 (y) times 20 (t).
        let expected = 32.0 * 10.0 * 20.0;
        let got = l.integral(&w);
        assert!((got - expected).abs() < 0.02 * expected, "got {got} want {expected}");
    }

    #[test]
    fn linear_max_and_min_on_corners() {
        let l = LinearIntensity::new([1.0, 1.0, 1.0, 1.0]);
        let w = window();
        assert!((l.max_rate(&w) - (1.0 + 20.0 + 10.0 + 10.0)).abs() < 1e-12);
        assert!((l.min_on(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bump_intensity_peaks_at_hotspot() {
        let g = GaussianBumpIntensity::new(
            1.0,
            vec![Bump { cx: 5.0, cy: 5.0, amplitude: 10.0, sigma: 1.0 }],
        );
        let peak = g.rate_at(&SpaceTimePoint::new(0.0, 5.0, 5.0));
        let far = g.rate_at(&SpaceTimePoint::new(0.0, 0.0, 0.0));
        assert!((peak - 11.0).abs() < 1e-9);
        assert!(far < 1.01);
        assert!(g.max_rate(&window()) >= peak);
    }

    #[test]
    fn bump_numeric_integral_close_to_monte_carlo_expectation() {
        // Flat base only: integral must equal base * volume.
        let g = GaussianBumpIntensity::new(2.0, vec![]);
        let w = window();
        let int = numeric_integral(&g, &w, 24);
        assert!((int - 2.0 * w.volume()).abs() < 1e-6 * w.volume());
    }

    /// Counts `rate_at` evaluations, so tests can prove the cache elides
    /// quadrature.
    struct CountingIntensity {
        inner: GaussianBumpIntensity,
        calls: std::cell::Cell<u64>,
    }

    impl CountingIntensity {
        fn new(inner: GaussianBumpIntensity) -> Self {
            Self { inner, calls: std::cell::Cell::new(0) }
        }
    }

    impl IntensityModel for CountingIntensity {
        fn rate_at(&self, p: &SpaceTimePoint) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.inner.rate_at(p)
        }
        fn max_rate(&self, w: &SpaceTimeWindow) -> f64 {
            self.inner.max_rate(w)
        }
        fn is_time_invariant(&self) -> bool {
            self.inner.is_time_invariant()
        }
    }

    #[test]
    fn hoisted_numeric_integral_matches_closed_forms() {
        let w = window();
        let c = ConstantIntensity::new(1.75);
        assert!((numeric_integral(&c, &w, 16) - c.integral(&w)).abs() < 1e-9);
        let l = LinearIntensity::new([3.0, 0.05, 0.2, 0.1]);
        assert!((numeric_integral(&l, &w, 48) - l.integral(&w)).abs() < 1e-3 * l.integral(&w));
    }

    #[test]
    fn integral_cache_elides_repeat_quadrature() {
        let model = CountingIntensity::new(GaussianBumpIntensity::new(
            0.5,
            vec![Bump { cx: 5.0, cy: 5.0, amplitude: 4.0, sigma: 1.0 }],
        ));
        let mut cache = IntegralCache::new();
        let w = window();
        let first = cache.integral_of(&model, 0, &w);
        let after_miss = model.calls.get();
        assert_eq!(after_miss, 32 * 32 * 32, "default quadrature is 32³ probes");
        // Same (epoch, window): served from memory, zero extra rate_at.
        let second = cache.integral_of(&model, 0, &w);
        assert_eq!(model.calls.get(), after_miss, "cache hit must not probe");
        assert_eq!(first, second);
        assert_eq!(cache.stats(), (1, 1));
        // A new model epoch invalidates: quadrature runs again.
        let _ = cache.integral_of(&model, 1, &w);
        assert_eq!(model.calls.get(), 2 * after_miss);
    }

    #[test]
    fn time_invariant_models_share_slid_windows() {
        let model = CountingIntensity::new(GaussianBumpIntensity::new(
            0.5,
            vec![Bump { cx: 2.0, cy: 2.0, amplitude: 3.0, sigma: 0.8 }],
        ));
        assert!(model.is_time_invariant());
        let mut cache = IntegralCache::new();
        let rect = Rect::with_size(10.0, 10.0);
        let w0 = SpaceTimeWindow::new(rect, 0.0, 10.0);
        let epoch0 = cache.integral_of(&model, 0, &w0);
        let probes = model.calls.get();
        // The same footprint and duration, shifted in time: cache hit.
        let w7 = SpaceTimeWindow::new(rect, 70.0, 80.0);
        let epoch7 = cache.integral_of(&model, 0, &w7);
        assert_eq!(model.calls.get(), probes, "slid window must hit the cache");
        assert_eq!(epoch0, epoch7);
        // A time-varying model must not share slid windows.
        let varying = LinearIntensity::new([0.5, 0.01, 0.0, 0.0]);
        assert!(!varying.is_time_invariant());
        let mut cache = IntegralCache::new();
        let _ = cache.integral_of(&varying, 0, &w0);
        let _ = cache.integral_of(&varying, 0, &w7);
        assert_eq!(cache.stats(), (0, 2), "time-varying windows are distinct keys");
    }

    #[test]
    fn cached_expected_count_matches_uncached() {
        use crate::process::InhomogeneousMdpp;
        let rect = Rect::with_size(10.0, 10.0);
        let p = InhomogeneousMdpp::new(
            GaussianBumpIntensity::new(
                0.4,
                vec![Bump { cx: 3.0, cy: 7.0, amplitude: 5.0, sigma: 1.5 }],
            ),
            rect,
        );
        let mut cache = IntegralCache::new();
        for e in 0..5 {
            let w = SpaceTimeWindow::new(rect, e as f64 * 10.0, (e + 1) as f64 * 10.0);
            let plain = p.expected_count(&w);
            let cached = p.expected_count_cached(&w, &mut cache, 0);
            assert_eq!(plain, cached, "epoch {e}");
        }
        // Time-invariant bump model + sliding windows: one miss, four hits.
        assert_eq!(cache.stats(), (4, 1));
    }

    #[test]
    fn integral_cache_capacity_is_bounded() {
        let c = ConstantIntensity::new(1.0);
        let mut cache = IntegralCache::new();
        for i in 0..200 {
            let w = SpaceTimeWindow::new(Rect::with_size(1.0 + i as f64, 1.0), 0.0, 1.0);
            let _ = cache.integral_of(&c, 0, &w);
        }
        assert!(cache.len() <= 64, "cache must stay bounded, got {}", cache.len());
        cache.clear();
        assert!(cache.is_empty());
    }
}
