//! E15 — adaptive-controller overhead on the epoch loop.
//!
//! Claim under test: wiring the closed-loop controller
//! (`craqr-adaptive`) into the epoch loop costs < 5% epoch time while no
//! drift fires — observation (per-query SGD updates + detector pushes) is
//! cheap relative to the loop's crowd/chain work, so leaving the
//! controller always-on is free until the world actually shifts.
//!
//! Method: one stationary scenario (no regime shifts, so the detectors
//! never fire and no replanning work is triggered) runs twice per
//! repetition — once with no `[adaptive]` block (static plan) and once
//! with the controller attached, in alternating order, each timed with
//! **thread-CPU time** (immune to descheduling on busy hosts). The gated
//! overhead is the **median of the per-repetition paired ratios** — the
//! robust estimator: paired runs share the host's momentary frequency
//! conditions, and a single noisy repetition cannot move a median. The
//! run writes `BENCH_adaptive.json` for the CI `bench-regression` job.
//! Run with `--test` for a smoke pass (fewer repetitions, same
//! assertions).

use craqr_core::exec::{thread_busy_ns, ExecMode};
use craqr_scenario::{RunPlan, ScenarioRunner, ScenarioSpec};

const SPEC: &str = r#"
name = "e15_overhead"
description = "stationary world for controller-overhead measurement"
seed = 1500
epochs = 80

[grid]
size_km = 6.0
side = 6

[population]
size = 3000
human_fraction = 0.1
placement = { kind = "city" }
mobility = { kind = "waypoint", speed = 0.08, pause = 5.0 }

[[attributes]]
name = "temp"
field = { kind = "temperature", base = 20.0, y_gradient = -0.15, islands = [[2.0, 2.0, 5.0, 1.0]], diurnal_amplitude = 4.0, diurnal_period = 1440.0 }

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,6,6) RATE 0.4"

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,3,3) RATE 0.9"

[[queries]]
text = "ACQUIRE temp FROM RECT(3,3,6,6) RATE 0.6"
"#;

const ADAPTIVE_BLOCK: &str = r#"
[adaptive]
enabled = true
detector = "cusum"
slack = 0.5
threshold = 8.0
warmup_epochs = 3
cooldown_epochs = 4
"#;

fn runner(src: &str) -> ScenarioRunner {
    let spec = ScenarioSpec::from_toml(src).expect("bench spec is valid");
    ScenarioRunner::new(spec).expect("bench spec runs")
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let reps = if test_mode { 5 } else { 15 };

    craqr_bench::preamble(
        "E15",
        "the adaptive controller costs <5% epoch time while no drift fires",
        "one stationary scenario, static vs controller-attached, median paired CPU-time ratio",
    );

    let static_runner = runner(SPEC);
    let adaptive_runner = runner(&format!("{SPEC}\n{ADAPTIVE_BLOCK}"));

    let plain = RunPlan::new(ExecMode::Serial);
    // Warm caches/allocator before timing anything.
    let _ = static_runner.run(&plain).expect("warmup");
    let _ = adaptive_runner.run(&plain).expect("warmup");

    // Per rep: time both configs back-to-back (thread-CPU time — immune to
    // descheduling; the pairing shares whatever CPU-frequency conditions
    // the host is in right then), alternating the order, and keep the
    // *paired ratio*. The reported overhead is the **median** of those
    // ratios — the robust estimator: a single noisy rep cannot move the
    // median, where it can move any min- or mean-based ratio by percents.
    let mut static_best = f64::INFINITY;
    let mut adaptive_best = f64::INFINITY;
    let mut ratios = Vec::with_capacity(reps);
    let mut static_delivered = 0usize;
    let mut adaptive_delivered = 0usize;
    let mut replans = 0usize;
    for rep in 0..reps {
        let time_static = |best: &mut f64| {
            let t = thread_busy_ns();
            let out = static_runner.run(&plain).expect("static run");
            let report = out.report;
            let secs = thread_busy_ns().saturating_sub(t) as f64 * 1e-9;
            *best = best.min(secs);
            (report, secs)
        };
        let time_adaptive = |best: &mut f64| {
            let t = thread_busy_ns();
            let out = adaptive_runner.run(&plain).expect("adaptive run");
            let (report, trace) = (out.report, out.trace);
            let secs = thread_busy_ns().saturating_sub(t) as f64 * 1e-9;
            *best = best.min(secs);
            (report, trace.expect("adaptive trace"), secs)
        };
        let ((static_report, s_secs), (adaptive_report, trace, a_secs)) = if rep % 2 == 0 {
            let s = time_static(&mut static_best);
            (s, time_adaptive(&mut adaptive_best))
        } else {
            let a = time_adaptive(&mut adaptive_best);
            (time_static(&mut static_best), a)
        };
        ratios.push(a_secs / s_secs);

        replans = trace.replans.len();
        assert_eq!(
            replans,
            0,
            "the overhead scenario must stay drift-free:\n{}",
            trace.canonical()
        );
        // With zero replans the controller is a pure observer: the loop's
        // deliveries must be bit-identical to the static plan's.
        static_delivered = static_report.queries.iter().map(|q| q.delivered).sum();
        adaptive_delivered = adaptive_report.queries.iter().map(|q| q.delivered).sum();
        assert_eq!(
            static_report.epochs, adaptive_report.epochs,
            "a non-firing controller perturbed the epoch loop"
        );
    }

    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let overhead_pct = (median_ratio - 1.0) * 100.0;
    let mut table =
        craqr_bench::Table::new(["config", "best cpu s", "epochs/s", "delivered", "replans"]);
    let epochs = 80.0;
    table.row([
        "static".to_string(),
        craqr_bench::f3(static_best),
        craqr_bench::f1(epochs / static_best),
        static_delivered.to_string(),
        "-".to_string(),
    ]);
    table.row([
        "adaptive".to_string(),
        craqr_bench::f3(adaptive_best),
        craqr_bench::f1(epochs / adaptive_best),
        adaptive_delivered.to_string(),
        replans.to_string(),
    ]);
    table.print("E15: controller overhead per run (stationary world, Serial, thread-CPU time)");
    println!("\ncontroller overhead: {overhead_pct:.2}% (gate: < 5%)");

    let json = format!(
        "{{\n  \"bench\": \"e15_adaptive\",\n  \"epochs\": 80,\n  \"reps\": {reps},\n  \
         \"static_s\": {static_best:.6},\n  \"adaptive_s\": {adaptive_best:.6},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"replans\": {replans},\n  \
         \"note\": \"overhead_pct = median paired thread-CPU ratio; static_s/adaptive_s are per-config minima; gate asserts < 5% when no drift fires\"\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_adaptive.json");
    std::fs::write(path, &json).expect("write BENCH_adaptive.json");
    println!("wrote {path}");

    assert!(
        overhead_pct < 5.0,
        "controller overhead {overhead_pct:.2}% exceeds the 5% budget \
         (static {static_best:.4}s vs adaptive {adaptive_best:.4}s)"
    );
}
