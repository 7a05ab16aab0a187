//! E16 — telemetry overhead on the epoch loop.
//!
//! Claim under test: full instrumentation — the metrics collector, the
//! per-phase epoch timer, the engine's per-operator clock, and the timed
//! control-hook wrapper — costs < 2% epoch time. Event metrics are a
//! handful of hashmap increments per epoch against counters the loop
//! already computed, and the timing tier adds a bounded number of
//! thread-CPU clock reads per epoch, so always-on collection is
//! effectively free.
//!
//! Method: a variation of E15's paired design. One scenario runs twice
//! per repetition — once uninstrumented and once with the full stack on
//! (the same `RunPlan` with `Execution::timing`), in alternating order, each
//! timed with **thread-CPU time** (immune to descheduling on busy
//! hosts). The gated overhead is the **ratio of the per-config minima**
//! over an even number of alternating-order repetitions: CPU-time noise
//! is additive-positive (interrupts, container siblings, accounting
//! jitter), so the minimum converges on the true cost as repetitions
//! grow, while medians still carry a position-in-pair bias that at a 2%
//! threshold is larger than the effect under test — which is why E15's
//! median-of-paired-ratios is not reused here. Medians are reported
//! alongside for context. Every pair also asserts the byte-inertness
//! contract — both runs must produce the identical canonical report.
//! The full run writes `BENCH_telemetry.json` for the CI
//! `bench-regression` job and gates at 2%. `--test` is the smoke pass:
//! fewer repetitions, the same inertness assertions, a relaxed 10%
//! gross-regression gate (six minima on a loaded CI host have not
//! converged enough for a 2% threshold), and no JSON write (the
//! committed artifact always comes from a full run).

use craqr_core::exec::{thread_busy_ns, ExecMode};
use craqr_scenario::{Execution, RunPlan, ScenarioRunner, ScenarioSpec};

const SPEC: &str = r#"
name = "e16_overhead"
description = "busy epoch loop for telemetry-overhead measurement"
seed = 1600
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

[adaptive]
enabled = true
detector = "cusum"
slack = 0.5
threshold = 8.0
warmup_epochs = 3
cooldown_epochs = 4
"#;

fn main() {
    // Even rep counts only: alternating order must place each config in
    // each pair position the same number of times for bias to cancel.
    let test_mode = std::env::args().any(|a| a == "--test");
    let reps = if test_mode { 6 } else { 16 };

    craqr_bench::preamble(
        "E16",
        "full instrumentation costs <2% epoch time and never changes a report",
        "one scenario, plain vs fully instrumented, best-of-reps CPU-time ratio",
    );

    let spec = ScenarioSpec::from_toml(SPEC).expect("bench spec is valid");
    let runner = ScenarioRunner::new(spec).expect("bench spec runs");

    let plain = RunPlan::new(ExecMode::Serial);
    let timed = RunPlan::new(Execution::from(ExecMode::Serial).timing(true));
    // Warm caches/allocator before timing anything.
    let _ = runner.run(&plain).expect("warmup");
    let _ = runner.run(&timed).expect("warmup");

    // Per rep: time both configs back-to-back with thread-CPU time,
    // alternating the order; the gate reads the ratio of the two
    // per-config minima (see the module docs for why not paired ratios).
    let mut plain_secs = Vec::with_capacity(reps);
    let mut timed_secs = Vec::with_capacity(reps);
    let mut delivered = 0usize;
    let mut event_lines = 0usize;
    for rep in 0..reps {
        let time_plain = || {
            let t = thread_busy_ns();
            let out = runner.run(&plain).expect("plain run");
            (out, thread_busy_ns().saturating_sub(t) as f64 * 1e-9)
        };
        let time_timed = || {
            let t = thread_busy_ns();
            let out = runner.run(&timed).expect("timed run");
            (out, thread_busy_ns().saturating_sub(t) as f64 * 1e-9)
        };
        let ((plain, p_secs), (timed, t_secs)) = if rep % 2 == 0 {
            let p = time_plain();
            (p, time_timed())
        } else {
            let t = time_timed();
            (time_plain(), t)
        };
        plain_secs.push(p_secs);
        timed_secs.push(t_secs);

        // The byte-inertness contract, asserted on every pair: the
        // instrumented run's canonical report is bit-identical.
        assert_eq!(
            plain.report.canonical(),
            timed.report.canonical(),
            "instrumentation perturbed the canonical report"
        );
        delivered = plain.report.queries.iter().map(|q| q.delivered).sum();
        let registry = timed.telemetry.expect("instrumented run has a registry");
        event_lines = registry.section().events.lines().count();
        assert!(event_lines > 0, "the collector recorded nothing");
    }

    fn median(samples: &mut [f64]) -> f64 {
        samples.sort_by(f64::total_cmp);
        (samples[(samples.len() - 1) / 2] + samples[samples.len() / 2]) / 2.0
    }
    let plain_med = median(&mut plain_secs);
    let timed_med = median(&mut timed_secs);
    let plain_best = plain_secs[0];
    let timed_best = timed_secs[0];
    let overhead_pct = (timed_best / plain_best - 1.0) * 100.0;
    let mut table = craqr_bench::Table::new([
        "config",
        "median cpu s",
        "best cpu s",
        "epochs/s",
        "delivered",
        "event lines",
    ]);
    let epochs = 80.0;
    table.row([
        "plain".to_string(),
        craqr_bench::f3(plain_med),
        craqr_bench::f3(plain_best),
        craqr_bench::f1(epochs / plain_med),
        delivered.to_string(),
        "-".to_string(),
    ]);
    table.row([
        "instrumented".to_string(),
        craqr_bench::f3(timed_med),
        craqr_bench::f3(timed_best),
        craqr_bench::f1(epochs / timed_med),
        delivered.to_string(),
        event_lines.to_string(),
    ]);
    let gate_pct = if test_mode { 10.0 } else { 2.0 };
    table.print("E16: telemetry overhead per run (Serial, thread-CPU time)");
    println!("\ntelemetry overhead: {overhead_pct:.2}% (gate: < {gate_pct}%)");

    if !test_mode {
        let json = format!(
            "{{\n  \"bench\": \"e16_telemetry\",\n  \"epochs\": 80,\n  \"reps\": {reps},\n  \
             \"plain_median_s\": {plain_med:.6},\n  \"instrumented_median_s\": {timed_med:.6},\n  \
             \"plain_best_s\": {plain_best:.6},\n  \"instrumented_best_s\": {timed_best:.6},\n  \
             \"overhead_pct\": {overhead_pct:.3},\n  \"event_lines\": {event_lines},\n  \
             \"note\": \"overhead_pct = ratio of per-config minimum thread-CPU times over alternating-order reps (minimum converges on true cost under additive-positive noise); gate asserts < 2% with the full stack on\"\n}}\n"
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_telemetry.json");
        std::fs::write(path, &json).expect("write BENCH_telemetry.json");
        println!("wrote {path}");
    }

    assert!(
        overhead_pct < gate_pct,
        "telemetry overhead {overhead_pct:.2}% exceeds the {gate_pct}% budget \
         (best plain {plain_best:.4}s vs instrumented {timed_best:.4}s; \
         medians {plain_med:.4}s vs {timed_med:.4}s)"
    );
}
