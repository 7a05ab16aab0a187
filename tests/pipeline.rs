//! The pipelined-executor determinism tier.
//!
//! The staged dataflow executor ([`craqr::core::EpochDriver::run_pipelined`])
//! overlaps consecutive epochs across three worker threads (drain,
//! ingest + control, render). Pipelining is
//! an execution strategy, never an output: everything checksummed —
//! reports, traces, run logs — must be **byte-identical** to the serial
//! staged schedule, for every committed scenario, and the whole
//! crash/salvage/resume story must survive with stages mid-flight.
//!
//! Three layers (the kill matrix with stages mid-flight is `tests/chaos.rs`,
//! which runs every cell on both executors):
//!
//! 1. corpus-wide identity: every spec under `scenarios/` runs under the
//!    four plans serial, `Sharded(4)`, pipelined, pipelined `Sharded(4)`;
//!    reports must match the committed goldens byte-for-byte and traces
//!    and logs the serial plan's — so every executor shape is pinned to
//!    the same blessed bytes;
//! 2. the file a streamed pipelined run writes is byte-identical to each
//!    committed run-log golden;
//! 3. replay + resume land on the staged dataflow too and still
//!    re-converge on the recording run's sealed checksums.

use craqr::core::ExecMode;
use craqr::scenario::{replay, resume, Execution, Record, RunPlan, ScenarioRunner};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scenario_files() -> Vec<PathBuf> {
    craqr::scenario::scenario_files(&repo_root().join("scenarios")).expect("scenarios dir")
}

fn runner(path: &Path) -> ScenarioRunner {
    ScenarioRunner::from_file(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every committed scenario produces byte-identical artifacts under
/// every plan — and those bytes are the committed goldens, so serial,
/// `Sharded(4)`, and both pipelined shapes are all pinned to the same files.
#[test]
fn every_committed_scenario_is_pipeline_identical() {
    let plans: Vec<RunPlan> = [ExecMode::Serial, ExecMode::Sharded(4)]
        .into_iter()
        .flat_map(|mode| [false, true].map(|p| RunPlan::new(Execution::from(mode).pipelined(p))))
        .collect();
    for path in scenario_files() {
        let runner = runner(&path);
        let name = runner.spec().name.clone();
        let golden = repo_root().join("tests/goldens").join(format!("{name}.golden.txt"));
        let golden = std::fs::read_to_string(&golden).unwrap();
        let outs: Vec<_> = plans.iter().map(|plan| runner.run(plan).unwrap()).collect();
        // outs[0] is the plain serial run every other plan is held to.
        for (plan, out) in plans.iter().zip(&outs) {
            let how = plan.execution;
            assert_eq!(golden, out.report.canonical(), "{name} {how:?}: report is off-golden");
            assert_eq!(
                outs[0].trace.as_ref().map(|t| t.canonical()),
                out.trace.as_ref().map(|t| t.canonical()),
                "{name} {how:?}: trace diverges from serial"
            );
            assert_eq!(
                outs[0].log.as_ref().map(|l| l.canonical()),
                out.log.as_ref().map(|l| l.canonical()),
                "{name} {how:?}: run log diverges from serial"
            );
        }
    }
}

/// A *streamed* pipelined run — the render worker appending each epoch
/// through the recorder's reused buffer while later epochs are still in
/// flight, then sealing by appending the trailer — leaves on disk exactly
/// the bytes of every committed run-log golden.
#[test]
fn streamed_pipelined_runs_write_the_committed_runlog_goldens() {
    let dir = std::env::temp_dir().join(format!("craqr-pipeline-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut checked = 0;
    for path in scenario_files() {
        let runner = runner(&path);
        let name = runner.spec().name.clone();
        let golden = repo_root().join("tests/goldens").join(format!("{name}.runlog.txt"));
        let Ok(golden) = std::fs::read_to_string(&golden) else { continue };
        let out = dir.join(format!("{name}.runlog.txt"));
        let plan = RunPlan::new(Execution::from(ExecMode::Serial).pipelined(true))
            .record(Record::Stream(out.clone()));
        runner.run(&plan).unwrap_or_else(|e| panic!("{name}: {e}"));
        let streamed = std::fs::read_to_string(&out).unwrap();
        assert!(streamed == golden, "{name}: streamed pipelined log differs from its golden");
        checked += 1;
    }
    assert_eq!(checked, 7, "every committed run-log golden has a scenario");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay and resume drive the staged dataflow too and re-converge on
/// the recording run's sealed checksums under every executor shape.
#[test]
fn pipelined_replay_and_resume_reconverge() {
    let runner = runner(&repo_root().join("scenarios/drift_rate_jump.toml"));
    let live = runner.run(&RunPlan::default().record(Record::Memory)).unwrap();
    let log = live.log.as_ref().expect("[runlog] spec records");
    let piped = |mode: ExecMode| Execution::from(mode).pipelined(true);

    for exec in [ExecMode::Serial, ExecMode::Sharded(3)] {
        let replayed = replay(log, piped(exec)).unwrap_or_else(|e| panic!("{exec:?}: {e}"));
        assert_eq!(
            replayed.report.checksum(),
            live.report.checksum(),
            "{exec:?}: pipelined replay report diverged"
        );
        // `Ok` means every epoch the pipelined tap closed matched the log.
        assert!(replayed.log.is_none(), "{exec:?}: a replay records nothing");
    }

    for k in [0, 1, log.epochs.len() / 2, log.epochs.len()] {
        let resumed = resume(&log.truncated(k).unwrap(), piped(ExecMode::Serial), k)
            .unwrap_or_else(|e| panic!("pipelined resume at {k}: {e}"));
        assert_eq!(
            resumed.report.checksum(),
            live.report.checksum(),
            "pipelined resume at {k}: report diverged"
        );
        assert_eq!(
            resumed.trace.as_ref().map(|t| t.checksum()),
            live.trace.as_ref().map(|t| t.checksum()),
            "pipelined resume at {k}: trace diverged"
        );
    }
}
