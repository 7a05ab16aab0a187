//! The byte-inertness contract of instrumentation: switching the full
//! telemetry stack on — collector, phase timer, engine clock — must leave every checksummed artifact of every
//! committed scenario **byte-identical** to an uninstrumented run.
//!
//! This is the run-level counterpart of the `busy_ns` rule: anything a
//! clock touched is structurally excluded from canonical renderings, so
//! a golden blessed without `--metrics` stays valid under `--metrics`
//! and vice versa. If this test fails, a timing-tier metric leaked into a
//! checksummed surface (or collection perturbed the run itself).

use craqr::core::ExecMode;
use craqr::scenario::{replay, Execution, RunOutput, RunPlan, ScenarioRunner};
use craqr::telemetry::lint_exposition;
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scenario_files() -> Vec<PathBuf> {
    craqr::scenario::scenario_files(&repo_root().join("scenarios")).expect("scenarios dir")
}

fn load(path: &Path) -> ScenarioRunner {
    ScenarioRunner::from_file(path).unwrap_or_else(|e| panic!("{e}"))
}

fn timed(exec: ExecMode) -> RunPlan {
    RunPlan::new(Execution::from(exec).timing(true))
}

#[test]
fn instrumentation_is_byte_inert_on_every_committed_scenario() {
    for path in scenario_files() {
        let runner = load(&path);
        let name = runner.spec().name.clone();
        for exec in [ExecMode::Serial, ExecMode::Sharded(4)] {
            let plain = runner.run(&RunPlan::new(exec)).expect("uninstrumented run");
            let timed = runner.run(&timed(exec)).expect("instrumented run");
            assert_eq!(
                plain.report.canonical(),
                timed.report.canonical(),
                "{name} [{exec:?}]: instrumentation changed the canonical report"
            );
            assert_eq!(
                plain.trace.as_ref().map(|t| t.canonical()),
                timed.trace.as_ref().map(|t| t.canonical()),
                "{name} [{exec:?}]: instrumentation changed the adaptive trace"
            );
            assert_eq!(
                plain.log.as_ref().map(|l| l.canonical()),
                timed.log.as_ref().map(|l| l.canonical()),
                "{name} [{exec:?}]: instrumentation changed the run log"
            );
            // The instrumented run always carries a registry, its event
            // tier matches what an event-only collector would have seen
            // (same canonical section), and the full exposition passes
            // the Prometheus lint.
            let telemetry = timed.telemetry.as_ref().expect("instrumented run has a registry");
            if let Some(plain_t) = plain.telemetry.as_ref() {
                assert_eq!(
                    plain_t.section(),
                    telemetry.section(),
                    "{name} [{exec:?}]: the timing tier leaked into the event section"
                );
            }
            if let Err(errors) = lint_exposition(&telemetry.render_prometheus()) {
                panic!("{name} [{exec:?}]: exposition failed lint: {errors:?}");
            }
        }
    }
}

#[test]
fn committed_goldens_match_instrumented_runs_byte_for_byte() {
    // The committed goldens were blessed by uninstrumented runs; an
    // instrumented run must reproduce them exactly (this is what makes
    // `--metrics` safe to add to any golden-checked CI invocation).
    for path in scenario_files() {
        let runner = load(&path);
        let name = runner.spec().name.clone();
        let golden_path = repo_root().join("tests/goldens").join(format!("{name}.golden.txt"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
        let timed = runner.run(&timed(ExecMode::Serial)).expect("run");
        assert_eq!(
            golden,
            timed.report.canonical(),
            "{name}: instrumented run diverged from the committed golden"
        );
    }
}

#[test]
fn timed_detached_replay_times_the_control_hook_like_a_live_run() {
    // `craqr-scenario replay <log> --metrics FILE` is a timed detached
    // replay; for an `[adaptive]` log it must time the control hook
    // exactly as the live instrumented run did — one `control` phase lap
    // per epoch — without the timing tier touching the event-tier
    // checksum.
    let runner = load(&repo_root().join("scenarios/telemetry_probe.toml"));
    assert!(runner.spec().adaptive.is_some(), "the scenario must close the loop");
    let live = runner.run(&timed(ExecMode::Serial)).expect("live run");
    let log = live.log.as_ref().expect("[runlog] spec records");
    let control_laps = |out: &RunOutput| -> u64 {
        let exposition =
            out.telemetry.as_ref().expect("timed runs carry a registry").render_prometheus();
        let series = "craqr_phase_seconds_count{phase=\"control\"} ";
        let line = exposition.lines().find_map(|l| l.strip_prefix(series));
        line.expect("the control phase is timed").parse().expect("a count")
    };
    let how = Execution::from(ExecMode::Serial);
    let untimed = replay(log, how).expect("untimed replay");
    let replayed = replay(log, how.timing(true)).expect("timed replay");
    assert_eq!(control_laps(&live), u64::from(runner.spec().epochs));
    assert_eq!(control_laps(&replayed), control_laps(&live), "replay must time the hook like live");
    let events = |out: &RunOutput| out.telemetry.as_ref().map(|t| t.section().events_checksum);
    assert!(events(&untimed).is_some(), "a [telemetry] spec collects the event tier untimed");
    assert_eq!(events(&replayed), events(&untimed), "timing leaked into the event tier");
    assert_eq!(events(&replayed), events(&live), "replay and live event tiers diverge");
}
