//! E1 — Flatten yields an approximately homogeneous output (§IV-B.1).
//!
//! Claim under test: "a point process can be made homogeneous by retaining
//! a random subset of tuples, such that more tuples are retained in areas
//! of low rate and less tuples are retained in areas of high rate [12]".
//!
//! Workload: inhomogeneous MDPPs with increasingly steep linear gradients
//! (Eq. (1) with θ2 swept); one 10-minute batch per configuration over a
//! 10×10 km cell; flatten target λ̄ = 0.5 /km²/min, batch MLE estimation.
//! Reported per steepness: input/output χ² homogeneity p-value, count CV,
//! dispersion index, achieved rate, and the percent rate violation N_v.

use craqr_bench::{f3, preamble, tuples_from_points, Table};
use craqr_core::ops::{EstimatorMode, FlattenConfig, FlattenOp};
use craqr_geom::{Rect, SpaceTimeWindow};
use craqr_mdpp::diagnostics::homogeneity_report;
use craqr_mdpp::intensity::LinearIntensity;
use craqr_mdpp::process::InhomogeneousMdpp;
use craqr_sensing::AttributeId;
use craqr_stats::seeded_rng;

fn main() {
    preamble(
        "E1 (flatten homogenization)",
        "F converts P̃(λ̃, R*) into an approximately homogeneous P(λ̄, R*)",
        "10×10 km cell, 10-min batch, λ̄=0.5, θ = [base, 0, θ2, 0], MLE per batch, seed 42",
    );

    let cell = Rect::with_size(10.0, 10.0);
    let window = SpaceTimeWindow::new(cell, 0.0, 10.0);
    let target = 0.5;

    let mut table = Table::new([
        "θ2 (skew)",
        "n_in",
        "in χ² p",
        "in CV",
        "out χ² p",
        "out CV",
        "out dispersion",
        "out rate",
        "N_v %",
    ]);

    for &theta2 in &[0.0, 0.1, 0.25, 0.5, 1.0, 2.0] {
        // Keep the mean input rate near 2.0 where possible (mean = base +
        // 5·θ2 over the cell); steeper gradients clamp at a small positive
        // base and simply carry more tuples.
        let base = (2.0f64 - theta2 * 5.0).max(0.05);
        let truth = LinearIntensity::new([base, 0.0, theta2, 0.0]);
        let process = InhomogeneousMdpp::new(truth, cell);
        let mut rng = seeded_rng(42);
        let raw = process.sample(&window, &mut rng);
        let in_rep = homogeneity_report(&raw, &window, 4, 2);

        let (mut op, report) = FlattenOp::new(FlattenConfig {
            cell,
            batch_duration: 10.0,
            target_rate: target,
            mode: EstimatorMode::BatchMle,
            seed: 7,
        });
        let mut out = Vec::new();
        op.process(&tuples_from_points(&raw, AttributeId(0)), &mut out);
        let out_points: Vec<_> = out.iter().map(|t| t.point).collect();
        let out_rep = homogeneity_report(&out_points, &window, 4, 2);

        table.row([
            f3(theta2),
            in_rep.n.to_string(),
            format!("{:.1e}", in_rep.chi_square.p_value),
            f3(in_rep.count_cv),
            format!("{:.1e}", out_rep.chi_square.p_value),
            f3(out_rep.count_cv),
            f3(out_rep.dispersion.index),
            f3(out_rep.empirical_rate),
            f3(report.last_nv()),
        ]);
    }
    table.print("E1: homogenization quality vs input skew");

    println!(
        "\nreading: input χ² p collapses towards 0 as skew grows (inhomogeneous), while the\n\
         flattened output keeps p ≫ 0.001, CV near the Poisson level, dispersion ≈ 1, and\n\
         rate ≈ λ̄ = 0.5 until the batch starves (rising N_v at extreme skew)."
    );

    // ---- E1b: estimator ablation ----------------------------------------
    // The paper prescribes MLE (batch) and SGD (sliding window); the
    // histogram estimator is the nonparametric alternative. Two workloads:
    // a linear gradient (Eq. (1)'s home turf) and a central hotspot that no
    // plane can represent.
    let mut ablation = Table::new(["workload", "estimator", "out χ² p", "out CV", "out rate"]);
    let workloads: Vec<(&str, Box<dyn craqr_mdpp::intensity::IntensityModel>)> = vec![
        ("linear gradient", Box::new(LinearIntensity::new([0.3, 0.0, 0.7, 0.0]))),
        (
            "central hotspot",
            Box::new(craqr_mdpp::intensity::GaussianBumpIntensity::new(
                0.3,
                vec![craqr_mdpp::intensity::Bump { cx: 5.0, cy: 5.0, amplitude: 8.0, sigma: 1.2 }],
            )),
        ),
    ];
    for (name, truth) in workloads {
        let raw = {
            struct Wrap<'a>(&'a dyn craqr_mdpp::intensity::IntensityModel);
            impl craqr_mdpp::intensity::IntensityModel for Wrap<'_> {
                fn rate_at(&self, p: &craqr_geom::SpaceTimePoint) -> f64 {
                    self.0.rate_at(p)
                }
                fn max_rate(&self, w: &SpaceTimeWindow) -> f64 {
                    self.0.max_rate(w)
                }
            }
            InhomogeneousMdpp::new(Wrap(truth.as_ref()), cell).sample(&window, &mut seeded_rng(7))
        };
        let modes: Vec<(&str, EstimatorMode)> = vec![
            ("batch MLE", EstimatorMode::BatchMle),
            ("SGD", EstimatorMode::Sgd(Default::default())),
            ("histogram 5×5", EstimatorMode::Histogram { bins: 5 }),
        ];
        for (mode_name, mode) in modes {
            let (mut op, _) = FlattenOp::new(FlattenConfig {
                cell,
                batch_duration: 10.0,
                target_rate: 0.4,
                mode,
                seed: 7,
            });
            // SGD is an *online* estimator: give it the warm-up stream its
            // sliding-window deployment would have seen (discarded output).
            if matches!(mode, EstimatorMode::Sgd(_)) {
                let mut warm_rng = seeded_rng(8);
                struct Wrap2<'a>(&'a dyn craqr_mdpp::intensity::IntensityModel);
                impl craqr_mdpp::intensity::IntensityModel for Wrap2<'_> {
                    fn rate_at(&self, p: &craqr_geom::SpaceTimePoint) -> f64 {
                        self.0.rate_at(p)
                    }
                    fn max_rate(&self, w: &SpaceTimeWindow) -> f64 {
                        self.0.max_rate(w)
                    }
                }
                let warm_process = InhomogeneousMdpp::new(Wrap2(truth.as_ref()), cell);
                for b in 0..150 {
                    let w = SpaceTimeWindow::new(cell, b as f64 * 10.0, (b + 1) as f64 * 10.0);
                    let pts = warm_process.sample(&w, &mut warm_rng);
                    op.process(&tuples_from_points(&pts, AttributeId(0)), &mut Vec::new());
                }
            }
            let mut out = Vec::new();
            op.process(&tuples_from_points(&raw, AttributeId(0)), &mut out);
            let out_points: Vec<_> = out.iter().map(|t| t.point).collect();
            let rep = homogeneity_report(&out_points, &window, 4, 2);
            ablation.row([
                name.to_string(),
                mode_name.to_string(),
                format!("{:.1e}", rep.chi_square.p_value),
                f3(rep.count_cv),
                f3(rep.empirical_rate),
            ]);
        }
    }
    ablation.print("E1b: estimator ablation (λ̄ = 0.4)");
    println!(
        "\nreading: on the linear gradient all three estimators flatten well (Eq. (1) is\n\
         correct there); on the hotspot the plane-based estimators cannot represent the\n\
         skew and leave it in the output, while the histogram estimator removes it —\n\
         the price of the paper's parametric Eq. (1) choice."
    );
}
