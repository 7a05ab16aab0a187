//! The event-sourced replay regression corpus.
//!
//! Three layers of guarantees over `craqr-runlog`:
//!
//! 1. **Committed replay goldens** — the drift scenarios carry a
//!    `[runlog]` block, so `tests/goldens/<name>.runlog.txt` pins the
//!    exact epoch inputs of the golden runs. Replaying those committed
//!    logs (crowd detached, serial *and* `Sharded(4)`) must reproduce
//!    the committed report and trace goldens byte-for-byte, with every
//!    regenerated epoch matching the committed log as it closes.
//! 2. **Whole-corpus record→replay** — every committed scenario can be
//!    event-sourced and replayed under both modes, reproducing its live
//!    checksums.
//! 3. **Resume** — truncating a drift log at *every* epoch boundary and
//!    resuming live re-converges on the uninterrupted run's report and
//!    trace checksums (the closed loop's decisions included).
//!
//! Re-bless after an intentional behaviour change with:
//!
//! ```text
//! cargo run --release --bin craqr-scenario -- --all scenarios --bless
//! ```

use craqr::core::ExecMode;
use craqr::runlog::RunLog;
use craqr::scenario::{replay, resume, Execution, Record, RunPlan, ScenarioRunner};
use std::path::{Path, PathBuf};

/// The committed drift scenarios with replay goldens.
const DRIFT_SCENARIOS: [&str; 3] =
    ["drift_rate_jump", "drift_hotspot_migration", "drift_sensor_dropout"];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
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

fn committed_log(stem: &str) -> (String, RunLog) {
    let text = golden(&format!("{stem}.runlog.txt"));
    let log = RunLog::parse(&text)
        .unwrap_or_else(|e| panic!("{stem}.runlog.txt failed integrity checks: {e}"));
    (text, log)
}

fn scenario_files() -> Vec<PathBuf> {
    craqr::scenario::scenario_files(&repo_root().join("scenarios")).expect("scenarios dir")
}

#[test]
fn committed_runlogs_replay_to_the_committed_goldens() {
    for stem in DRIFT_SCENARIOS {
        let (_, log) = committed_log(stem);
        assert_eq!(log.scenario, stem);
        for exec in [ExecMode::Serial, ExecMode::Sharded(4)] {
            let out = replay(&log, exec).unwrap_or_else(|e| panic!("{stem} [{exec:?}]: {e}"));
            assert_eq!(
                out.report.canonical(),
                golden(&format!("{stem}.golden.txt")),
                "{stem} [{exec:?}]: replayed report differs from the committed golden"
            );
            assert_eq!(
                out.trace.as_ref().expect("drift scenarios close the loop").canonical(),
                golden(&format!("{stem}.trace.txt")),
                "{stem} [{exec:?}]: replayed trace differs from the committed golden"
            );
            // `Ok` means every epoch matched the committed log as it
            // closed and both seals held; the replay keeps no copy.
            assert!(out.log.is_none(), "{stem} [{exec:?}]: a replay records nothing");
        }
    }
}

#[test]
fn committed_runlogs_match_a_fresh_recording() {
    // The committed log is not a fossil: recording the scenario live
    // today produces the identical artifact (this is what `--check`
    // verifies through the CLI; pinned here under plain `cargo test`).
    for stem in DRIFT_SCENARIOS {
        let (text, _) = committed_log(stem);
        let runner =
            ScenarioRunner::from_file(&repo_root().join("scenarios").join(format!("{stem}.toml")))
                .unwrap_or_else(|e| panic!("{e}"));
        let out = runner.run(&RunPlan::new(ExecMode::Serial)).unwrap();
        let log = out.log.expect("[runlog] spec records");
        assert_eq!(
            log.canonical(),
            text,
            "{stem}: a fresh recording no longer matches the committed log; re-bless if \
             the change is intentional"
        );
    }
}

#[test]
fn whole_corpus_records_and_replays_in_both_modes() {
    for path in scenario_files() {
        let runner = ScenarioRunner::from_file(&path).unwrap_or_else(|e| panic!("{e}"));
        let name = runner.spec().name.clone();
        let live = runner
            .run(&RunPlan::new(ExecMode::Serial).record(Record::Memory))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let log = live.log.as_ref().expect("Record::Memory returns a log");
        // The log survives its own codec.
        let reparsed = RunLog::parse(&log.canonical()).unwrap_or_else(|e| panic!("{name}: {e}"));
        // The pipelined replay puts the drain stage's source and the tap's
        // snapshot on worker threads; `rain_sweep`'s error injection
        // checks the snapshot is taken before corruption edits the batch.
        let serial = Execution::from(ExecMode::Serial);
        for exec in [serial, ExecMode::Sharded(4).into(), serial.pipelined(true)] {
            let out = replay(&reparsed, exec).unwrap_or_else(|e| panic!("{name} [{exec:?}]: {e}"));
            assert_eq!(
                out.report.checksum(),
                live.report.checksum(),
                "{name} [{exec:?}]: replayed report checksum diverged"
            );
            assert_eq!(
                out.trace.as_ref().map(|t| t.checksum()),
                live.trace.as_ref().map(|t| t.checksum()),
                "{name} [{exec:?}]: replayed trace checksum diverged"
            );
        }
    }
}

#[test]
fn resume_at_every_boundary_of_drift_rate_jump_matches_the_full_run() {
    // The satellite acceptance test: truncate the committed log at every
    // epoch boundary k, rebuild through the verified prefix, run the
    // remaining epochs live, and land on the uninterrupted run's exact
    // trace checksum — including k = 0 (pure re-run) and k = n (pure
    // verification).
    let (_, log) = committed_log("drift_rate_jump");
    let full_report = golden("drift_rate_jump.golden.txt");
    let full_trace = golden("drift_rate_jump.trace.txt");
    for k in 0..=log.epochs.len() {
        let out = resume(&log.truncated(k).unwrap(), ExecMode::Serial, k)
            .unwrap_or_else(|e| panic!("resume at {k}: {e}"));
        assert_eq!(
            out.report.canonical(),
            full_report,
            "resume at {k}: report diverged from the uninterrupted run"
        );
        assert_eq!(
            out.trace.expect("trace").canonical(),
            full_trace,
            "resume at {k}: trace diverged from the uninterrupted run"
        );
    }
}

#[test]
fn resume_reconverges_for_every_drift_scenario() {
    // Acceptance criterion: resume from any epoch boundary of the three
    // drift scenarios yields the same final trace checksum as the
    // uninterrupted run. (`drift_rate_jump` is covered exhaustively
    // against the committed goldens above; all three are swept here.)
    for stem in DRIFT_SCENARIOS {
        let (_, log) = committed_log(stem);
        let full_report = golden(&format!("{stem}.golden.txt"));
        let full_trace = golden(&format!("{stem}.trace.txt"));
        for k in 0..=log.epochs.len() {
            let out = resume(&log.truncated(k).unwrap(), ExecMode::Serial, k)
                .unwrap_or_else(|e| panic!("{stem} resume at {k}: {e}"));
            assert_eq!(out.report.canonical(), full_report, "{stem} resume at {k}");
            assert_eq!(out.trace.expect("trace").canonical(), full_trace, "{stem} resume at {k}");
        }
    }
}

#[test]
fn sharded_resume_matches_serial_resume() {
    let (_, log) = committed_log("drift_sensor_dropout");
    let mid = log.epochs.len() / 2;
    let serial = resume(&log.truncated(mid).unwrap(), ExecMode::Serial, mid).unwrap();
    let sharded = resume(&log.truncated(mid).unwrap(), ExecMode::Sharded(4), mid).unwrap();
    assert_eq!(serial.report.canonical(), sharded.report.canonical());
    assert_eq!(
        serial.trace.map(|t| t.canonical()),
        sharded.trace.map(|t| t.canonical()),
        "resume must honour the executor determinism contract"
    );
}
