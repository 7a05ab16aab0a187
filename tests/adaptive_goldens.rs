//! The drift-scenario regression corpus — the closed loop's acceptance
//! tests.
//!
//! Each committed drift scenario (`scenarios/drift_*.toml`) injects one
//! regime shift (participation rate jump, hotspot migration, correlated
//! sensor dropout) into an otherwise-stationary world, and ships in two
//! flavours: **active** (the adaptive controller replans) and
//! **`_static`** (observe-only baseline: same estimators, same detectors,
//! no actuation). The assertions:
//!
//! 1. report *and* adaptive trace are byte-identical across
//!    `ExecMode::Serial` and `Sharded(4)`, and across reruns;
//! 2. both match their committed goldens
//!    (`tests/goldens/<name>.golden.txt` / `<name>.trace.txt`);
//! 3. the active trace shows ≥ 1 replan within [`REACT_WITHIN`] epochs of
//!    the injected shift — and the static twin shows none.
//!
//! One inline case has no shift at all ([`STATIONARY`]): attached to a
//! stationary world the controller never replans, and a controller that
//! never fires leaves every epoch row exactly as the static plan's.
//!
//! Re-bless after an intentional behaviour change with:
//!
//! ```text
//! cargo run --release --bin craqr-scenario -- --all scenarios --bless
//! ```

use craqr::core::ExecMode;
use craqr::scenario::{AdaptiveTrace, RunPlan, ScenarioReport, ScenarioRunner, ScenarioSpec};
use std::path::Path;

/// A replan counts as "reacting" when it lands within this many epochs of
/// the injected shift.
const REACT_WITHIN: u64 = 5;

/// The committed drift scenarios: (file stem, shift epoch).
const DRIFT_SCENARIOS: [(&str, u64); 3] =
    [("drift_rate_jump", 9), ("drift_hotspot_migration", 8), ("drift_sensor_dropout", 8)];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn runner(stem: &str) -> ScenarioRunner {
    let path = repo_root().join("scenarios").join(format!("{stem}.toml"));
    ScenarioRunner::from_file(&path).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `stem` under both exec modes, asserts report + trace byte-identity
/// across modes, and returns the serial pair.
fn run_both_modes(stem: &str) -> (ScenarioReport, AdaptiveTrace) {
    let runner = runner(stem);
    let serial_out = runner.run(&RunPlan::new(ExecMode::Serial)).unwrap_or_else(|e| panic!("{e}"));
    let sharded_out =
        runner.run(&RunPlan::new(ExecMode::Sharded(4))).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        serial_out.report.canonical(),
        sharded_out.report.canonical(),
        "{stem}: serial and Sharded(4) reports diverge"
    );
    let serial_trace = serial_out.trace.unwrap_or_else(|| panic!("{stem}: no adaptive trace"));
    let sharded_trace = sharded_out.trace.unwrap_or_else(|| panic!("{stem}: no adaptive trace"));
    assert_eq!(
        serial_trace.canonical(),
        sharded_trace.canonical(),
        "{stem}: serial and Sharded(4) adaptive traces diverge"
    );
    // The run log (when the spec records one) is held to the same
    // mode-independence bar: the inputs a run consumed do not depend on
    // how the process phase was scheduled.
    assert_eq!(
        serial_out.log.as_ref().map(|l| l.canonical()),
        sharded_out.log.as_ref().map(|l| l.canonical()),
        "{stem}: serial and Sharded(4) run logs diverge"
    );
    (serial_out.report, serial_trace)
}

fn golden(name: &str) -> String {
    let path = repo_root().join("tests/goldens").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with \
             `cargo run --release --bin craqr-scenario -- --all scenarios --bless`",
            path.display()
        )
    })
}

#[test]
fn drift_reports_and_traces_match_goldens_in_both_modes() {
    for (stem, _) in DRIFT_SCENARIOS {
        for variant in [stem.to_string(), format!("{stem}_static")] {
            let (report, trace) = run_both_modes(&variant);
            assert_eq!(
                golden(&format!("{variant}.golden.txt")),
                report.canonical(),
                "{variant}: report no longer matches its golden; re-bless if intentional"
            );
            assert_eq!(
                golden(&format!("{variant}.trace.txt")),
                trace.canonical(),
                "{variant}: adaptive trace no longer matches its golden; re-bless if intentional"
            );
            // The report's [adaptive] section pins the trace.
            let section = report.adaptive.expect("adaptive section present");
            assert_eq!(section.summary.trace_checksum, trace.checksum(), "{variant}");
            assert_eq!(section.summary.replans, trace.replans.len(), "{variant}");
        }
    }
}

#[test]
fn controller_reacts_to_the_shift_and_the_static_baseline_does_not() {
    for (stem, shift_epoch) in DRIFT_SCENARIOS {
        let (report, trace) = run_both_modes(stem);
        assert!(
            !trace.replans.is_empty(),
            "{stem}: the controller never replanned\n{}",
            trace.canonical()
        );
        let first = trace.replans[0].epoch;
        assert!(
            (shift_epoch..=shift_epoch + REACT_WITHIN).contains(&first),
            "{stem}: first replan at epoch {first}, want within {REACT_WITHIN} of the \
             shift at {shift_epoch}\n{}",
            trace.canonical()
        );
        assert!(report.adaptive.expect("section").active);

        let (static_report, static_trace) = run_both_modes(&format!("{stem}_static"));
        assert_eq!(
            static_trace.replans.len(),
            0,
            "{stem}_static: observe-only baseline must never replan\n{}",
            static_trace.canonical()
        );
        assert!(!static_report.adaptive.expect("section").active);
        // The static twin still *sees* the drift — it just does not act.
        assert!(
            static_trace.drift_events() >= 1,
            "{stem}_static: the detector should still fire in observe mode\n{}",
            static_trace.canonical()
        );
        // And the active run's world genuinely diverged from the static one.
        assert_ne!(
            report.checksum(),
            static_report.checksum(),
            "{stem}: replanning had no observable effect"
        );
    }
}

/// The controller in a world that does not change, and its reaction to
/// one that does, over seeds 1..=40 of `drift_hotspot_migration`:
///
/// - with its `[[shifts]]` removed, each query's standardized innovation,
///   averaged over the seeds and epochs 5..=15, is within 0.4 of 0;
/// - that no-shift copy replans on at most 7 seeds;
/// - the committed spec's first replan lands in [8, 13] (the shift at 8
///   plus [`REACT_WITHIN`]) on at least 25 seeds.
///
/// While the estimator's level trailed the batch rate, q1's innovation
/// averaged +0.85 to +1.59 at every epoch from 5 to 15, the no-shift copy
/// replanned on 30 seeds and the shifted spec reacted in the window on 25.
/// Now q1 averages ≈ +0.3 and q0 ≈ +0.2, 7 seeds replan and 36 react. Seven
/// is still above the ≈ 2–4 that Page–Hinkley (slack 0.3, threshold 4.5)
/// gives two queries of 13 unit-variance innovations: the delivered counts
/// themselves move with the server's budget tuner (down at epochs 2–3, up
/// to epoch 9, down again to 15), and the detector sees that as drift.
/// The bound is the count measured here, so a regression fails.
#[test]
fn a_still_world_centres_the_innovations_and_a_shift_is_caught_in_time() {
    let path = repo_root().join("scenarios/drift_hotspot_migration.toml");
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{e}"));
    let shifted = ScenarioSpec::from_toml(&src).unwrap_or_else(|e| panic!("{e}"));
    let still = ScenarioSpec { shifts: Vec::new(), ..shifted.clone() };
    let traces = |spec: ScenarioSpec| -> Vec<AdaptiveTrace> {
        let runner = ScenarioRunner::new(spec).unwrap_or_else(|e| panic!("{e}"));
        (1..=40u64)
            .map(|seed| {
                let out = runner
                    .run(&RunPlan::new(ExecMode::Serial).seed(seed))
                    .unwrap_or_else(|e| panic!("{e}"));
                out.trace.expect("adaptive trace")
            })
            .collect()
    };
    let first_replans = |traces: &[AdaptiveTrace]| -> Vec<Option<u64>> {
        traces.iter().map(|t| t.replans.first().map(|r| r.epoch)).collect()
    };

    let still_traces = traces(still);
    for query in [0, 1] {
        let innovations: Vec<f64> = still_traces
            .iter()
            .flat_map(|t| &t.observations)
            .filter(|o| o.query == query && (5..=15).contains(&o.epoch))
            .map(|o| o.innovation)
            .collect();
        let mean = innovations.iter().sum::<f64>() / innovations.len() as f64;
        assert!(mean.abs() <= 0.4, "q{query}: mean innovation {mean} in a still world");
    }
    let still_firsts = first_replans(&still_traces);
    let false_alarms = still_firsts.iter().filter(|f| f.is_some()).count();
    assert!(false_alarms <= 7, "no-shift copy replanned on {false_alarms} of 40: {still_firsts:?}");

    let shifted_firsts = first_replans(&traces(shifted));
    let reacted = shifted_firsts.iter().filter(|f| matches!(f, Some(8..=13))).count();
    assert!(reacted >= 25, "first replan in [8, 13] on {reacted} of 40: {shifted_firsts:?}");
}

/// A world with no regime shift: 3 000 sensors on a 6×6 grid, three
/// standing queries, 80 epochs.
const STATIONARY: &str = r#"
name = "adaptive_stationary"
description = "stationary world: an attached controller has nothing to react to"
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

const STATIONARY_CONTROLLER: &str = r#"
[adaptive]
enabled = true
detector = "cusum"
slack = 0.5
threshold = 8.0
warmup_epochs = 3
cooldown_epochs = 4
"#;

#[test]
fn a_stationary_world_never_replans_and_the_idle_controller_is_inert() {
    let from_src = |src: &str| {
        let spec = ScenarioSpec::from_toml(src).unwrap_or_else(|e| panic!("{e}"));
        ScenarioRunner::new(spec).unwrap_or_else(|e| panic!("{e}"))
    };
    let plain = from_src(STATIONARY);
    let attached = from_src(&format!("{STATIONARY}{STATIONARY_CONTROLLER}"));
    for mode in [ExecMode::Serial, ExecMode::Sharded(4)] {
        let plan = RunPlan::new(mode);
        let plain_out = plain.run(&plan).unwrap_or_else(|e| panic!("{e}"));
        let attached_out = attached.run(&plan).unwrap_or_else(|e| panic!("{e}"));
        let trace = attached_out.trace.expect("adaptive trace");
        assert!(trace.replans.is_empty(), "{mode:?}: replanned:\n{}", trace.canonical());
        assert_eq!(
            plain_out.report.epochs, attached_out.report.epochs,
            "{mode:?}: a non-firing controller perturbed the epoch loop"
        );
    }
}

#[test]
fn drift_runs_are_bit_stable_across_reruns() {
    for (stem, _) in DRIFT_SCENARIOS {
        let (a_report, a_trace) = run_both_modes(stem);
        let (b_report, b_trace) = run_both_modes(stem);
        assert_eq!(a_report, b_report, "{stem}: reports differ across reruns");
        assert_eq!(a_trace, b_trace, "{stem}: traces differ across reruns");
    }
}

#[test]
fn seed_override_changes_decisions_deterministically() {
    let runner = runner("drift_sensor_dropout");
    for seed in [1u64, 99] {
        let serial = runner.run(&RunPlan::new(ExecMode::Serial).seed(seed)).unwrap();
        let sharded = runner.run(&RunPlan::new(ExecMode::Sharded(3)).seed(seed)).unwrap();
        assert_eq!(serial.report.canonical(), sharded.report.canonical(), "seed {seed}");
        assert_eq!(
            serial.trace.expect("trace").canonical(),
            sharded.trace.expect("trace").canonical(),
            "seed {seed}"
        );
    }
}
