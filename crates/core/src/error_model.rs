//! Error injection and mitigation — the last Section VI extension.
//!
//! "Errors can be introduced by sampling constraints, GPS errors, sensors
//! inaccuracies, or errors in human judgment. In the future, we will
//! explore methods for mitigating the effect of such errors on query
//! accuracy." This module implements both halves: an [`ErrorModel`] that
//! corrupts responses the way the paper enumerates, and a [`Mitigation`]
//! pipeline that repairs or rejects corrupted tuples at ingestion.

use craqr_geom::Rect;
use craqr_sensing::{AttrValue, SensorResponse};
use craqr_stats::dist::Normal;
use craqr_stats::Interval;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Stochastic corruption applied to sensor responses in flight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorModel {
    /// GPS position noise σ (km) on both axes.
    pub gps_sigma: f64,
    /// Probability a human-sensed boolean is flipped (judgment error).
    pub bool_flip_prob: f64,
    /// Additive Gaussian noise σ on real-valued observations (sensor
    /// inaccuracy).
    pub value_sigma: f64,
}

impl ErrorModel {
    /// Range of [`ErrorModel::gps_sigma`].
    pub const GPS_SIGMA: Interval = Interval::NonNeg;
    /// Range of [`ErrorModel::bool_flip_prob`].
    pub const BOOL_FLIP_PROB: Interval = Interval::Unit;
    /// Range of [`ErrorModel::value_sigma`].
    pub const VALUE_SIGMA: Interval = Interval::NonNeg;

    /// A noise-free model (identity).
    pub fn none() -> Self {
        Self { gps_sigma: 0.0, bool_flip_prob: 0.0, value_sigma: 0.0 }
    }

    /// Creates an error model.
    ///
    /// # Panics
    /// Panics when a knob is outside its declared range.
    #[track_caller]
    pub fn new(gps_sigma: f64, bool_flip_prob: f64, value_sigma: f64) -> Self {
        Self::GPS_SIGMA.assert("gps_sigma", gps_sigma);
        Self::BOOL_FLIP_PROB.assert("bool_flip_prob", bool_flip_prob);
        Self::VALUE_SIGMA.assert("value_sigma", value_sigma);
        Self { gps_sigma, bool_flip_prob, value_sigma }
    }

    /// Corrupts one response in place.
    pub fn corrupt<R: Rng + ?Sized>(&self, response: &mut SensorResponse, rng: &mut R) {
        if self.gps_sigma > 0.0 {
            let noise = Normal::new(0.0, self.gps_sigma);
            response.measurement.point.x += noise.sample(rng);
            response.measurement.point.y += noise.sample(rng);
        }
        match &mut response.measurement.value {
            AttrValue::Bool(b) => {
                if self.bool_flip_prob > 0.0 && rng.gen::<f64>() < self.bool_flip_prob {
                    *b = !*b;
                }
            }
            AttrValue::Float(v) => {
                if self.value_sigma > 0.0 {
                    *v += Normal::new(0.0, self.value_sigma).sample(rng);
                }
            }
        }
    }

    /// Corrupts a whole batch.
    pub fn corrupt_batch(&self, responses: &mut [SensorResponse], rng: &mut StdRng) {
        for r in responses {
            self.corrupt(r, rng);
        }
    }
}

/// Ingestion-side mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mitigation {
    /// Reject tuples whose (possibly GPS-corrupted) position falls outside
    /// the region `R` — they cannot be assigned to any grid cell anyway.
    pub reject_outside: bool,
    /// Clamp positions within `snap_distance` km of the region boundary
    /// back inside instead of rejecting them (small GPS excursions near the
    /// border are almost surely legitimate observations).
    pub snap_distance: f64,
    /// Reject real-valued observations farther than `outlier_sigmas` sample
    /// standard deviations from the batch median (sensor glitches).
    pub outlier_sigmas: f64,
}

impl Mitigation {
    /// No mitigation (identity filter).
    pub fn off() -> Self {
        Self { reject_outside: false, snap_distance: 0.0, outlier_sigmas: f64::INFINITY }
    }

    /// A sane default: snap 100 m excursions, reject the rest, 5σ outliers.
    pub fn standard() -> Self {
        Self { reject_outside: true, snap_distance: 0.1, outlier_sigmas: 5.0 }
    }

    /// Filters/repairs a batch against the region, returning survivors and
    /// the number rejected.
    pub fn apply(
        &self,
        mut responses: Vec<SensorResponse>,
        region: &Rect,
    ) -> (Vec<SensorResponse>, usize) {
        let before = responses.len();

        // Spatial repair/rejection.
        if self.reject_outside || self.snap_distance > 0.0 {
            responses.retain_mut(|r| {
                let p = &mut r.measurement.point;
                if region.contains(p.x, p.y) {
                    return true;
                }
                // Snap near-boundary excursions back inside.
                let sx = p.x.clamp(region.x0, region.x1 - f64::EPSILON * region.x1.abs().max(1.0));
                let sy = p.y.clamp(region.y0, region.y1 - f64::EPSILON * region.y1.abs().max(1.0));
                let dist = ((p.x - sx).powi(2) + (p.y - sy).powi(2)).sqrt();
                if dist <= self.snap_distance {
                    p.x = sx;
                    p.y = sy;
                    true
                } else {
                    !self.reject_outside
                }
            });
        }

        // Value-outlier rejection on real observations. Scale is estimated
        // robustly (median absolute deviation): a sample standard deviation
        // would be inflated by the very outliers we are hunting, masking
        // them.
        if self.outlier_sigmas.is_finite() {
            let floats: Vec<f64> =
                responses.iter().filter_map(|r| r.measurement.value.as_float()).collect();
            if floats.len() >= 8 {
                let mut scratch = floats.clone();
                let median = upper_median(&mut scratch);
                scratch.clear();
                scratch.extend(floats.iter().map(|v| (v - median).abs()));
                // 1.4826 × MAD estimates σ for Gaussian data.
                let robust_sd = 1.4826 * upper_median(&mut scratch);
                // MAD of 0 (over half the values identical) gives no scale
                // to judge by; fall back to the classical deviation then.
                let scale = if robust_sd > 0.0 {
                    robust_sd
                } else {
                    let mean = floats.iter().sum::<f64>() / floats.len() as f64;
                    (floats.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                        / (floats.len() - 1) as f64)
                        .sqrt()
                };
                if scale > 0.0 {
                    let limit = self.outlier_sigmas * scale;
                    responses.retain(|r| match r.measurement.value.as_float() {
                        Some(v) => (v - median).abs() <= limit,
                        None => true,
                    });
                }
            }
        }

        let rejected = before - responses.len();
        (responses, rejected)
    }
}

/// The element at index `len / 2` of `values` in ascending order, found by
/// selection instead of a sort; `values` is left permuted.
///
/// Floats that compare equal are bit-identical except `-0.0` and `0.0`, so
/// this matches a sort's pick up to the sign of a zero median. Every
/// caller uses the median inside `(v - median).abs()`, where that sign
/// drops out.
///
/// # Panics
/// Panics when it compares a NaN.
fn upper_median(values: &mut [f64]) -> f64 {
    let mid = values.len() / 2;
    *values.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite values")).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::SpaceTimePoint;
    use craqr_sensing::{AttributeId, Measurement, SensorId};
    use craqr_stats::seeded_rng;
    use proptest::prelude::*;

    fn response(x: f64, y: f64, value: AttrValue) -> SensorResponse {
        SensorResponse {
            sensor: SensorId(0),
            measurement: Measurement {
                attr: AttributeId(0),
                point: SpaceTimePoint::new(0.0, x, y),
                value,
            },
            issued_at: 0.0,
        }
    }

    #[test]
    fn none_model_is_identity() {
        let m = ErrorModel::none();
        let mut r = response(1.0, 2.0, AttrValue::Float(3.0));
        let before = r;
        m.corrupt(&mut r, &mut seeded_rng(1));
        assert_eq!(r, before);
    }

    #[test]
    fn gps_noise_perturbs_positions() {
        let m = ErrorModel::new(0.5, 0.0, 0.0);
        let mut rng = seeded_rng(2);
        let mut displacement = 0.0;
        for _ in 0..1000 {
            let mut r = response(5.0, 5.0, AttrValue::Bool(true));
            m.corrupt(&mut r, &mut rng);
            let p = r.measurement.point;
            displacement += ((p.x - 5.0).powi(2) + (p.y - 5.0).powi(2)).sqrt();
        }
        let mean_disp = displacement / 1000.0;
        // Rayleigh mean = σ√(π/2) ≈ 0.627 for σ = 0.5.
        assert!((mean_disp - 0.627).abs() < 0.06, "mean displacement {mean_disp}");
    }

    #[test]
    fn bool_flips_at_configured_rate() {
        let m = ErrorModel::new(0.0, 0.2, 0.0);
        let mut rng = seeded_rng(3);
        let flipped = (0..20_000)
            .filter(|_| {
                let mut r = response(0.0, 0.0, AttrValue::Bool(true));
                m.corrupt(&mut r, &mut rng);
                r.measurement.value == AttrValue::Bool(false)
            })
            .count();
        let frac = flipped as f64 / 20_000.0;
        assert!((frac - 0.2).abs() < 0.02, "flip fraction {frac}");
    }

    #[test]
    fn float_noise_has_configured_sd() {
        let m = ErrorModel::new(0.0, 0.0, 2.0);
        let mut rng = seeded_rng(4);
        let mut acc = craqr_stats::OnlineMoments::new();
        for _ in 0..50_000 {
            let mut r = response(0.0, 0.0, AttrValue::Float(10.0));
            m.corrupt(&mut r, &mut rng);
            acc.push(r.measurement.value.as_float().unwrap());
        }
        assert!((acc.mean() - 10.0).abs() < 0.05);
        assert!((acc.sd() - 2.0).abs() < 0.05);
    }

    #[test]
    fn mitigation_snaps_near_boundary() {
        let region = Rect::with_size(10.0, 10.0);
        let mit = Mitigation::standard();
        let batch = vec![response(10.05, 5.0, AttrValue::Bool(true))];
        let (kept, rejected) = mit.apply(batch, &region);
        assert_eq!(rejected, 0);
        assert!(region.contains(kept[0].measurement.point.x, kept[0].measurement.point.y));
    }

    #[test]
    fn mitigation_rejects_far_outside() {
        let region = Rect::with_size(10.0, 10.0);
        let mit = Mitigation::standard();
        let batch = vec![
            response(5.0, 5.0, AttrValue::Bool(true)),
            response(25.0, 5.0, AttrValue::Bool(true)),
        ];
        let (kept, rejected) = mit.apply(batch, &region);
        assert_eq!(kept.len(), 1);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn mitigation_off_keeps_everything() {
        let region = Rect::with_size(10.0, 10.0);
        let mit = Mitigation::off();
        let batch = vec![response(99.0, 99.0, AttrValue::Float(1e6))];
        let (kept, rejected) = mit.apply(batch, &region);
        assert_eq!(kept.len(), 1);
        assert_eq!(rejected, 0);
    }

    #[test]
    fn outlier_filter_drops_glitches() {
        let region = Rect::with_size(10.0, 10.0);
        let mit = Mitigation::standard();
        let mut batch: Vec<SensorResponse> = (0..20)
            .map(|i| response(5.0, 5.0, AttrValue::Float(20.0 + (i % 5) as f64 * 0.1)))
            .collect();
        batch.push(response(5.0, 5.0, AttrValue::Float(500.0)));
        let (kept, rejected) = mit.apply(batch, &region);
        assert_eq!(rejected, 1);
        assert!(kept.iter().all(|r| r.measurement.value.as_float().unwrap() < 100.0));
    }

    /// The sort-based median `upper_median` replaced.
    fn sorted_median(values: &[f64]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        sorted[sorted.len() / 2]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn selected_median_and_mad_match_the_sorted_ones(
            values in prop::collection::vec(
                prop_oneof![Just(0.0f64), Just(-0.0f64), Just(2.5), Just(-1.0), -50.0f64..50.0],
                1..120,
            ),
        ) {
            let median = upper_median(&mut values.clone());
            let oracle = sorted_median(&values);
            prop_assert!(median == oracle, "median {median} vs sorted {oracle} of {values:?}");
            let deviations = |m: f64| values.iter().map(|v| (v - m).abs()).collect::<Vec<f64>>();
            let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let (mut ours, theirs) = (deviations(median), deviations(oracle));
            prop_assert_eq!(bits(&ours), bits(&theirs), "deviations differ for {:?}", values);
            let (mad, oracle_mad) = (upper_median(&mut ours), sorted_median(&theirs));
            prop_assert_eq!(mad.to_bits(), oracle_mad.to_bits(), "MAD differs for {:?}", values);
        }
    }

    #[test]
    fn outlier_filter_ignores_booleans() {
        let region = Rect::with_size(10.0, 10.0);
        let mit = Mitigation::standard();
        let batch: Vec<SensorResponse> =
            (0..20).map(|_| response(5.0, 5.0, AttrValue::Bool(true))).collect();
        let (kept, rejected) = mit.apply(batch, &region);
        assert_eq!(kept.len(), 20);
        assert_eq!(rejected, 0);
    }
}
