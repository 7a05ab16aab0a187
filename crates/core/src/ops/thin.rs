//! The `T` (thin) operator — Section IV-B.1.

use crate::tuple::CrowdTuple;
use craqr_stats::sub_rng;
use rand::rngs::StdRng;
use rand::Rng;

/// The thinning operator `T`: converts `P⟨j⟩(λ1, R*)` into `P⟨j⟩(λ2, R*)`
/// with `λ2 ≤ λ1` by an independent Bernoulli(`λ2/λ1`) coin per tuple.
///
/// Thinning a Poisson process by iid coins yields a Poisson process of the
/// scaled rate (the paper's "it can be shown" step is the classic thinning
/// theorem, Daley & Vere-Jones \[11\]); the operator therefore needs *no*
/// estimation at all — just the two rates.
///
/// The paper's insertion rules re-rate thinning operators when the chain is
/// spliced (a `T` inserted upstream changes this operator's input rate), so
/// both rates are mutable through [`ThinOp::set_input_rate`] /
/// [`ThinOp::set_output_rate`].
pub struct ThinOp {
    input_rate: f64,
    output_rate: f64,
    rng: StdRng,
}

impl ThinOp {
    /// Creates a thinning operator `λ1 → λ2`.
    ///
    /// # Panics
    /// Panics unless `0 < λ2 ≤ λ1`. (The paper states `λ2 < λ1` strictly;
    /// equality is permitted so the planner can keep a uniform chain shape
    /// while a query rides at exactly the flatten rate — the coin is then
    /// always heads and the operator is a free pass-through.)
    #[track_caller]
    pub fn new(input_rate: f64, output_rate: f64, seed: u64) -> Self {
        assert!(output_rate > 0.0, "output rate must be > 0");
        assert!(
            output_rate <= input_rate,
            "thinning cannot raise the rate: λ2={output_rate} > λ1={input_rate}"
        );
        Self { input_rate, output_rate, rng: sub_rng(seed, 0x7417) }
    }

    /// The retention probability `p = λ2/λ1`.
    #[inline]
    pub fn probability(&self) -> f64 {
        self.output_rate / self.input_rate
    }

    /// Input rate λ1.
    #[inline]
    pub fn input_rate(&self) -> f64 {
        self.input_rate
    }

    /// Output rate λ2.
    #[inline]
    pub fn output_rate(&self) -> f64 {
        self.output_rate
    }

    /// Re-rates the input side (chain splice upstream).
    ///
    /// # Panics
    /// Panics when the new input rate drops below the output rate.
    #[track_caller]
    pub fn set_input_rate(&mut self, rate: f64) {
        assert!(rate >= self.output_rate, "input rate {rate} below output {}", self.output_rate);
        self.input_rate = rate;
    }

    /// Re-rates the output side.
    ///
    /// # Panics
    /// Panics unless `0 < rate ≤ input_rate`.
    #[track_caller]
    pub fn set_output_rate(&mut self, rate: f64) {
        assert!(rate > 0.0 && rate <= self.input_rate, "bad output rate {rate}");
        self.output_rate = rate;
    }

    /// Thins `batch`, appending the kept tuples to `out` in input order.
    pub fn process(&mut self, batch: &[CrowdTuple], out: &mut Vec<CrowdTuple>) {
        let p = self.probability();
        if p >= 1.0 {
            out.extend_from_slice(batch);
            return;
        }
        for tuple in batch {
            if self.rng.gen::<f64>() < p {
                out.push(*tuple);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::{Rect, SpaceTimePoint, SpaceTimeWindow};
    use craqr_mdpp::diagnostics::homogeneity_report;
    use craqr_mdpp::process::HomogeneousMdpp;
    use craqr_sensing::{AttrValue, AttributeId, SensorId};
    use craqr_stats::seeded_rng;

    fn tuples(n: usize) -> Vec<CrowdTuple> {
        (0..n)
            .map(|i| CrowdTuple {
                id: i as u64,
                attr: AttributeId(0),
                point: SpaceTimePoint::new(i as f64, 0.5, 0.5),
                value: AttrValue::Bool(true),
                sensor: SensorId(0),
            })
            .collect()
    }

    fn run(op: &mut ThinOp, batch: &[CrowdTuple]) -> Vec<CrowdTuple> {
        let mut out = Vec::new();
        op.process(batch, &mut out);
        out
    }

    #[test]
    fn keeps_expected_fraction() {
        let mut op = ThinOp::new(4.0, 1.0, 7);
        assert!((op.probability() - 0.25).abs() < 1e-12);
        let out = run(&mut op, &tuples(40_000));
        let frac = out.len() as f64 / 40_000.0;
        assert!((frac - 0.25).abs() < 0.01, "kept fraction {frac}");
        // What it keeps is a subset of the input, in input order.
        assert!(out.windows(2).all(|w| w[0].id < w[1].id));
        assert!(out.iter().all(|t| t.id < 40_000));
    }

    #[test]
    fn equal_rates_pass_everything() {
        let mut op = ThinOp::new(2.0, 2.0, 7);
        let input = tuples(1_000);
        let out = run(&mut op, &input);
        assert_eq!(out.len(), 1_000);
    }

    #[test]
    #[should_panic(expected = "cannot raise the rate")]
    fn rate_increase_rejected() {
        let _ = ThinOp::new(1.0, 2.0, 7);
    }

    #[test]
    fn rerating_updates_probability_and_name() {
        let mut op = ThinOp::new(4.0, 1.0, 7);
        op.set_input_rate(2.0);
        assert!((op.probability() - 0.5).abs() < 1e-12);
        op.set_output_rate(2.0);
        assert!((op.probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "below output")]
    fn input_rate_below_output_rejected() {
        let mut op = ThinOp::new(4.0, 1.0, 7);
        op.set_input_rate(0.5);
    }

    #[test]
    fn thinned_poisson_stays_poisson() {
        // Sample a homogeneous process at rate 4, thin to 1, and verify the
        // output still passes the homogeneity report at rate ≈ 1.
        let region = Rect::with_size(10.0, 10.0);
        let w = SpaceTimeWindow::new(region, 0.0, 30.0);
        let pts = HomogeneousMdpp::new(4.0, region).sample(&w, &mut seeded_rng(9));
        let batch: Vec<CrowdTuple> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| CrowdTuple {
                id: i as u64,
                attr: AttributeId(0),
                point: *p,
                value: AttrValue::Bool(true),
                sensor: SensorId(0),
            })
            .collect();
        let mut op = ThinOp::new(4.0, 1.0, 11);
        let out = run(&mut op, &batch);
        let out_points: Vec<_> = out.iter().map(|t| t.point).collect();
        let rep = homogeneity_report(&out_points, &w, 4, 3);
        assert!(rep.is_homogeneous(0.001), "chi p={}", rep.chi_square.p_value);
        assert!((rep.empirical_rate - 1.0).abs() < 0.1, "rate {}", rep.empirical_rate);
        let ks = rep.temporal_ks.unwrap();
        assert!(ks.accepts(0.001), "KS p={}", ks.p_value);
    }

    #[test]
    fn deterministic_under_seed() {
        let out1 = run(&mut ThinOp::new(2.0, 1.0, 42), &tuples(100));
        let out2 = run(&mut ThinOp::new(2.0, 1.0, 42), &tuples(100));
        assert_eq!(out1.len(), out2.len());
        assert!(out1.iter().zip(&out2).all(|(a, b)| a.id == b.id));
    }
}
