//! Sequential change-point (drift) detectors.
//!
//! The adaptive acquisition loop watches the *innovation* stream of an
//! online intensity estimator — standardized "observed minus expected"
//! residuals that hover around zero while the modelled process is
//! stationary and walk away from zero after a regime shift. Two classic
//! sequential detectors turn that stream into a fire/no-fire decision:
//!
//! - [`Cusum`]: the two-sided cumulative-sum scheme. Per side it
//!   accumulates `g⁺ ← max(0, g⁺ + x − k)` (resp. `g⁻` on `−x`) and fires
//!   when the accumulator exceeds the decision threshold `h`. The slack
//!   `k` absorbs zero-mean noise; `h` trades detection delay against
//!   false-alarm rate.
//! - [`PageHinkley`]: the Page–Hinkley test. It tracks the cumulative
//!   deviation of the signal from its own running mean and fires when
//!   that deviation climbs `lambda` above its historical minimum
//!   (resp. falls below its maximum, for downward shifts). Self-centering
//!   makes it robust to an unknown but stationary baseline level.
//!
//! Both detectors are plain deterministic state machines: no RNG, no
//! clocks, `O(1)` memory — feeding the same sequence always yields the
//! same decisions, which is what lets adaptive traces be golden-tested.

use crate::Interval;

/// Range of either detector's per-step slack (CUSUM `k`, Page–Hinkley `δ`).
pub const SLACK: Interval = Interval::NonNeg;
/// Range of either detector's decision threshold (CUSUM `h`,
/// Page–Hinkley `λ`).
pub const THRESHOLD: Interval = Interval::Positive;

/// The direction of a detected shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftDirection {
    /// The signal shifted upward (e.g. arrival intensity jumped).
    Up,
    /// The signal shifted downward (e.g. correlated sensor dropout).
    Down,
}

impl std::fmt::Display for DriftDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriftDirection::Up => write!(f, "up"),
            DriftDirection::Down => write!(f, "down"),
        }
    }
}

/// Two-sided CUSUM detector around a zero-mean signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cusum {
    /// Per-step slack `k ≥ 0`: deviations below `k` never accumulate.
    pub slack: f64,
    /// Decision threshold `h > 0`.
    pub threshold: f64,
    g_pos: f64,
    g_neg: f64,
    last_evidence: f64,
    samples: u64,
}

impl Cusum {
    /// Creates a detector with slack `k` and decision threshold `h`.
    ///
    /// # Panics
    /// Panics unless `slack` is in [`SLACK`] and `threshold` in
    /// [`THRESHOLD`].
    #[track_caller]
    pub fn new(slack: f64, threshold: f64) -> Self {
        SLACK.assert("CUSUM slack", slack);
        THRESHOLD.assert("CUSUM threshold", threshold);
        Self { slack, threshold, g_pos: 0.0, g_neg: 0.0, last_evidence: 0.0, samples: 0 }
    }

    /// Feeds one observation; returns the shift direction when the
    /// accumulated evidence crosses the threshold. The detector resets
    /// itself after firing (restart semantics); the evidence level that
    /// crossed stays readable via [`Cusum::last_evidence`].
    pub fn observe(&mut self, x: f64) -> Option<DriftDirection> {
        self.samples += 1;
        self.g_pos = (self.g_pos + x - self.slack).max(0.0);
        self.g_neg = (self.g_neg - x - self.slack).max(0.0);
        self.last_evidence = self.g_pos.max(self.g_neg);
        // Deterministic tie-break: the larger excursion wins; `Up` on an
        // exact tie (both sides crossing together is a pathological input).
        if self.g_pos > self.threshold || self.g_neg > self.threshold {
            let dir =
                if self.g_pos >= self.g_neg { DriftDirection::Up } else { DriftDirection::Down };
            self.reset();
            return Some(dir);
        }
        None
    }

    /// The current evidence score: the larger of the two accumulators.
    pub fn score(&self) -> f64 {
        self.g_pos.max(self.g_neg)
    }

    /// The evidence level immediately after the most recent observation,
    /// *before* any restart — on a firing observation this is the value
    /// that crossed the threshold, where [`Cusum::score`] has already been
    /// reset to 0.
    pub fn last_evidence(&self) -> f64 {
        self.last_evidence
    }

    /// Observations consumed since creation (survives resets).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Clears the accumulated evidence (the sample counter is kept).
    pub fn reset(&mut self) {
        self.g_pos = 0.0;
        self.g_neg = 0.0;
    }
}

/// Two-sided Page–Hinkley detector, self-centered on the running mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageHinkley {
    /// Magnitude tolerance `δ ≥ 0`: drifts smaller than `δ` per step are
    /// treated as noise.
    pub delta: f64,
    /// Decision threshold `λ > 0` on the deviation-from-extremum.
    pub lambda: f64,
    mean: f64,
    since_reset: u64,
    m_up: f64,
    m_up_min: f64,
    m_down: f64,
    m_down_min: f64,
    last_evidence: f64,
    samples: u64,
}

impl PageHinkley {
    /// Creates a detector with tolerance `delta` and threshold `lambda`.
    ///
    /// # Panics
    /// Panics unless `delta` is in [`SLACK`] and `lambda` in [`THRESHOLD`].
    #[track_caller]
    pub fn new(delta: f64, lambda: f64) -> Self {
        SLACK.assert("PH delta", delta);
        THRESHOLD.assert("PH lambda", lambda);
        Self {
            delta,
            lambda,
            mean: 0.0,
            since_reset: 0,
            m_up: 0.0,
            m_up_min: 0.0,
            m_down: 0.0,
            m_down_min: 0.0,
            last_evidence: 0.0,
            samples: 0,
        }
    }

    /// Feeds one observation; returns the shift direction when the
    /// cumulative deviation climbs `lambda` past its historical extremum.
    /// The detector resets itself after firing (restart semantics); the
    /// evidence level that crossed stays readable via
    /// [`PageHinkley::last_evidence`].
    pub fn observe(&mut self, x: f64) -> Option<DriftDirection> {
        self.samples += 1;
        self.since_reset += 1;
        // Running mean of the monitored segment (since the last fire).
        self.mean += (x - self.mean) / self.since_reset as f64;
        self.m_up += x - self.mean - self.delta;
        self.m_up_min = self.m_up_min.min(self.m_up);
        self.m_down += self.mean - x - self.delta;
        self.m_down_min = self.m_down_min.min(self.m_down);
        let up = self.m_up - self.m_up_min;
        let down = self.m_down - self.m_down_min;
        self.last_evidence = up.max(down);
        if up > self.lambda || down > self.lambda {
            let dir = if up >= down { DriftDirection::Up } else { DriftDirection::Down };
            self.reset();
            return Some(dir);
        }
        None
    }

    /// The current evidence score: the larger deviation-from-extremum.
    pub fn score(&self) -> f64 {
        (self.m_up - self.m_up_min).max(self.m_down - self.m_down_min)
    }

    /// The evidence level immediately after the most recent observation,
    /// *before* any restart — on a firing observation this is the value
    /// that crossed the threshold, where [`PageHinkley::score`] has
    /// already been reset to 0.
    pub fn last_evidence(&self) -> f64 {
        self.last_evidence
    }

    /// Observations consumed since creation (survives resets).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Clears the accumulated evidence and the running mean (the sample
    /// counter is kept).
    pub fn reset(&mut self) {
        self.mean = 0.0;
        self.since_reset = 0;
        self.m_up = 0.0;
        self.m_up_min = 0.0;
        self.m_down = 0.0;
        self.m_down_min = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cusum_quiet_on_zero_signal() {
        let mut c = Cusum::new(0.5, 5.0);
        for i in 0..1000 {
            // Deterministic bounded zero-mean wiggle.
            let x = ((i as f64) * 0.7).sin() * 0.4;
            assert_eq!(c.observe(x), None, "false alarm at sample {i}");
        }
        assert_eq!(c.samples(), 1000);
    }

    #[test]
    fn cusum_fires_up_fast_on_level_shift() {
        let mut c = Cusum::new(0.5, 5.0);
        for _ in 0..50 {
            assert_eq!(c.observe(0.0), None);
        }
        let mut fired_at = None;
        for i in 0..20 {
            if let Some(dir) = c.observe(2.0) {
                assert_eq!(dir, DriftDirection::Up);
                fired_at = Some(i);
                break;
            }
        }
        // Evidence grows by (2.0 - 0.5) per step: crosses h=5 at step 3.
        assert_eq!(fired_at, Some(3));
    }

    #[test]
    fn cusum_fires_down_on_negative_shift() {
        let mut c = Cusum::new(0.25, 4.0);
        for _ in 0..10 {
            c.observe(0.0);
        }
        let dir = (0..40).find_map(|_| c.observe(-1.0));
        assert_eq!(dir, Some(DriftDirection::Down));
        // Restart semantics: evidence is gone after the fire — but the
        // crossing value survives for trace recording.
        assert_eq!(c.score(), 0.0);
        assert!(c.last_evidence() > c.threshold, "evidence {}", c.last_evidence());
    }

    #[test]
    fn last_evidence_tracks_score_until_a_fire() {
        let mut c = Cusum::new(0.25, 3.0);
        let mut ph = PageHinkley::new(0.1, 3.0);
        for i in 0..5 {
            let x = 0.5 + i as f64 * 0.1;
            assert_eq!(c.observe(x), None);
            assert_eq!(c.last_evidence(), c.score());
            assert_eq!(ph.observe(x), None);
            assert_eq!(ph.last_evidence(), ph.score());
        }
        assert!((0..20).any(|_| ph.observe(5.0).is_some()));
        assert!(ph.last_evidence() > ph.lambda);
        assert_eq!(ph.score(), 0.0);
    }

    #[test]
    fn page_hinkley_quiet_on_constant_offset() {
        // Self-centering: a constant non-zero level is *not* drift.
        let mut ph = PageHinkley::new(0.1, 8.0);
        for i in 0..2000 {
            let x = 3.0 + ((i as f64) * 1.3).sin() * 0.3;
            assert_eq!(ph.observe(x), None, "false alarm at sample {i}");
        }
    }

    #[test]
    fn page_hinkley_fires_on_mean_jump() {
        let mut ph = PageHinkley::new(0.05, 6.0);
        for _ in 0..100 {
            assert_eq!(ph.observe(0.0), None);
        }
        let fired = (0..30).find_map(|i| ph.observe(1.5).map(|d| (i, d)));
        let (delay, dir) = fired.expect("PH must fire on a 1.5-sigma jump");
        assert_eq!(dir, DriftDirection::Up);
        assert!(delay < 15, "detection delay {delay} too large");
    }

    #[test]
    fn page_hinkley_fires_down_on_drop() {
        let mut ph = PageHinkley::new(0.05, 6.0);
        for _ in 0..100 {
            ph.observe(2.0);
        }
        let dir = (0..40).find_map(|_| ph.observe(0.0));
        assert_eq!(dir, Some(DriftDirection::Down));
    }

    #[test]
    fn detectors_are_deterministic() {
        let feed = |mut c: Cusum| -> Vec<Option<DriftDirection>> {
            (0..200).map(|i| c.observe(((i as f64) * 0.37).sin() + (i / 100) as f64)).collect()
        };
        assert_eq!(feed(Cusum::new(0.3, 4.0)), feed(Cusum::new(0.3, 4.0)));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn cusum_rejects_zero_threshold() {
        let _ = Cusum::new(0.1, 0.0);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn page_hinkley_rejects_zero_lambda() {
        let _ = PageHinkley::new(0.1, 0.0);
    }
}
