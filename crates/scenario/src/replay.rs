//! Replaying, resuming, and verifying event-sourced runs.
//!
//! A [`RunLog`] recorded by a [`ScenarioRunner::run`] is a complete event
//! source for the server side of a run: the embedded spec, the seed, and
//! every epoch's crowd inputs. This module closes the loop:
//!
//! - [`replay`] re-drives a server from the log with the **crowd
//!   detached** (a zero-sensor world; the recorded responses stand in
//!   for it) under any [`Execution`], re-records as it goes, and verifies
//!   both layers: the regenerated epoch inputs/decisions must be
//!   structurally identical to the log, and the final report/trace
//!   checksums must match the seals the recording run wrote. A faithful
//!   log therefore replays **byte-for-byte**, serial or sharded.
//! - [`resume`] truncates at epoch *k* and continues **live**. In this
//!   in-process system the world itself is part of the deterministic
//!   simulation, so "rebuild state at *k*" re-drives the world from the
//!   spec; the log's job during the prefix is *verification* — every
//!   rebuilt epoch is cross-checked record-by-record against what the
//!   original run actually consumed, and the first divergence is
//!   reported precisely ([`ReplayError::Diverged`]). Past *k* the run is
//!   fresh, and an unperturbed resume re-converges on the uninterrupted
//!   run's exact report and trace.
//! - Both paths return the same [`RunOutput`] a live run does, including
//!   a freshly sealed log, so replays and resumes are themselves
//!   replayable.

use crate::runner::{
    Execution, Record, Recorder, RunError, RunOutput, RunPlan, ScenarioRunner, Session,
};
use crate::spec::{ScenarioSpec, SpecError};
use craqr_core::CrashPoint;
use craqr_runlog::{diff_logs, parse_salvage, AdmissionRecord, RunLog};
use std::fmt;

/// Why a replay or resume failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The log's embedded spec no longer parses/validates (recorded by an
    /// incompatible version, or hand-edited).
    Spec(SpecError),
    /// The reconstructed scenario failed to run.
    Run(RunError),
    /// The resume point lies beyond the recorded epochs.
    BadResumePoint {
        /// Requested epoch boundary.
        at: usize,
        /// Epochs the log actually holds.
        recorded: usize,
    },
    /// The re-driven run no longer produces the recorded inputs or
    /// decisions — the code, spec semantics, or log diverged.
    Diverged {
        /// First epoch that differs (`None`: a header-level difference).
        epoch: Option<u64>,
        /// Human-readable difference report (see
        /// [`craqr_runlog::LogDiff::render`]).
        details: String,
    },
    /// The run completed and its inputs matched, but a sealed final
    /// checksum did not.
    ChecksumMismatch {
        /// `"report"` or `"trace"`.
        what: &'static str,
        /// The checksum the log recorded.
        recorded: u64,
        /// The checksum this run produced.
        actual: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Spec(e) => write!(f, "embedded spec: {e}"),
            ReplayError::Run(e) => write!(f, "{e}"),
            ReplayError::BadResumePoint { at, recorded } => {
                write!(f, "cannot resume at epoch {at}: the log records only {recorded} epoch(s)")
            }
            ReplayError::Diverged { epoch, details } => match epoch {
                Some(e) => write!(f, "run diverged from the log at epoch {e}:\n{details}"),
                None => write!(f, "run diverged from the log:\n{details}"),
            },
            ReplayError::ChecksumMismatch { what, recorded, actual } => write!(
                f,
                "{what} checksum mismatch: log sealed {recorded:#018x}, run produced \
                 {actual:#018x}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<SpecError> for ReplayError {
    fn from(e: SpecError) -> Self {
        ReplayError::Spec(e)
    }
}

impl From<RunError> for ReplayError {
    fn from(e: RunError) -> Self {
        ReplayError::Run(e)
    }
}

/// Parses and validates the spec a log embeds.
pub fn spec_of(log: &RunLog) -> Result<ScenarioSpec, ReplayError> {
    Ok(ScenarioSpec::from_toml(&log.spec_toml)?)
}

/// Opens the session a replay or resume of `log` runs in: the log's own
/// spec and seed, re-recording in memory under the log's header so the
/// fresh log is comparable to (and as replayable as) the original.
fn open<'a>(
    log: &'a RunLog,
    spec: &'a ScenarioSpec,
    how: Execution,
    detached: bool,
) -> Result<Session<'a>, RunError> {
    let recorder = Recorder::new(&Record::Memory, &log.scenario, log.seed, &log.spec_toml);
    Session::open(spec, log.seed, how, detached.then_some(log), recorder)
}

/// Re-drives a server from a recorded log with the crowd detached and
/// verifies the regeneration (see the module docs). Works under any
/// [`Execution`] (or bare [`craqr_core::ExecMode`]) regardless of how the
/// run was recorded — the log is execution-independent by construction.
/// With `timing` on this is how the CLI `metrics` subcommand renders a
/// full metrics snapshot from any committed log without touching the
/// original run; timing changes nothing checksummed, so the replay
/// verifies exactly as untimed.
pub fn replay(log: &RunLog, how: impl Into<Execution>) -> Result<RunOutput, ReplayError> {
    let spec = spec_of(log)?;
    // Admission re-runs deterministically as the session opens; the diff
    // below verifies the re-derived verdicts against the recorded ones.
    let mut session = open(log, &spec, how.into(), true)?;
    session.drive(None);
    let mut output = session.close()?;
    let fresh = output.log.as_mut().expect("a replay re-records");

    // Layer 1: the regenerated inputs and decisions must be structurally
    // identical to the recording. The seals are layer 2's business, so
    // align them on the fresh copy for the diff (cheaper than cloning
    // both multi-hundred-KB logs just to strip two fields) and restore
    // them afterwards.
    let (fresh_report_seal, fresh_trace_seal) = (fresh.report_checksum, fresh.trace_checksum);
    fresh.report_checksum = log.report_checksum;
    fresh.trace_checksum = log.trace_checksum;
    let diff = diff_logs(log, fresh);
    fresh.report_checksum = fresh_report_seal;
    fresh.trace_checksum = fresh_trace_seal;
    if !diff.identical() {
        return Err(ReplayError::Diverged {
            epoch: diff.first_divergence().map(|d| d.epoch),
            details: diff.render(),
        });
    }
    // Layer 2: the sealed final checksums must reproduce byte-for-byte.
    verify_seals(log, fresh)?;
    Ok(output)
}

/// Resumes a recorded run at epoch boundary `at` (0-based: epochs
/// `0..at` are rebuilt and verified against the log, epochs `at..` run
/// fresh) and carries the run through to the spec's full horizon, under
/// any [`Execution`]. See the module docs for the verification contract.
pub fn resume(
    log: &RunLog,
    how: impl Into<Execution>,
    at: usize,
) -> Result<RunOutput, ReplayError> {
    if at > log.epochs.len() {
        return Err(ReplayError::BadResumePoint { at, recorded: log.epochs.len() });
    }
    let spec = spec_of(log)?;
    let mut session = open(log, &spec, how.into(), false)?;
    // The rebuilt admission verdicts must match what the original run
    // recorded — a resume must not silently admit what the recorded run
    // rejected (or vice versa).
    let rebuilt_admissions: Vec<AdmissionRecord> =
        session.admissions().iter().map(AdmissionRecord::from).collect();
    if rebuilt_admissions != log.admissions {
        return Err(ReplayError::Diverged {
            epoch: None,
            details: format!(
                "admission decisions diverged from the log: recorded {:?}, rebuilt {:?}",
                log.admissions, rebuilt_admissions
            ),
        });
    }
    session.drive(None);
    let output = session.close()?;
    let fresh = output.log.as_ref().expect("a resume re-records");

    // Inside the rebuilt prefix every epoch must reproduce the log's
    // record exactly; diverging silently here would poison everything
    // after the resume point — report the first mismatching epoch.
    for e in 0..at {
        let details = craqr_runlog::diff::diff_epoch(&log.epochs[e], &fresh.epochs[e]);
        if !details.is_empty() {
            return Err(ReplayError::Diverged {
                epoch: Some(e as u64),
                details: details.join("\n"),
            });
        }
    }
    // A resume of an unperturbed log re-converges on the sealed finals;
    // only verify them when the whole horizon was recorded (a truncated
    // log carries no seals — `RunLog::truncated` dropped them).
    verify_seals(log, fresh)?;
    Ok(output)
}

/// The chaos drill's one cell: kills the run `plan` describes (it must
/// stream its log) at `point` of `at_epoch`, salvages the torn file,
/// requires the salvage to hold exactly the epochs that were durable at
/// the kill, and resumes it to the horizon under the plan's execution.
/// The torn file is left in place for the caller to inspect or remove.
///
/// # Panics
/// As [`ScenarioRunner::run_to_crash`].
#[track_caller]
pub fn kill_salvage_resume(
    runner: &ScenarioRunner,
    plan: &RunPlan,
    at_epoch: u32,
    point: CrashPoint,
) -> Result<RunOutput, String> {
    let Record::Stream(path) = &plan.record else { panic!("a crash run streams its log") };
    let durable =
        runner.run_to_crash(plan, at_epoch, point).map_err(|e| format!("crash run: {e}"))?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading crash file: {e}"))?;
    let salvage = parse_salvage(&src).map_err(|e| format!("salvage: {e}"))?;
    if salvage.log.epochs.len() != durable {
        return Err(format!(
            "salvaged {} epoch(s), but {durable} were durable at the kill",
            salvage.log.epochs.len()
        ));
    }
    resume(&salvage.log, plan.execution, durable).map_err(|e| format!("resume: {e}"))
}

/// Verifies the original log's sealed final checksums (if any) against a
/// freshly sealed log.
fn verify_seals(original: &RunLog, fresh: &RunLog) -> Result<(), ReplayError> {
    if let (Some(recorded), Some(actual)) = (original.report_checksum, fresh.report_checksum) {
        if recorded != actual {
            return Err(ReplayError::ChecksumMismatch { what: "report", recorded, actual });
        }
    }
    if let (Some(recorded), Some(actual)) = (original.trace_checksum, fresh.trace_checksum) {
        if recorded != actual {
            return Err(ReplayError::ChecksumMismatch { what: "trace", recorded, actual });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_core::ExecMode;

    fn spec_toml() -> String {
        r#"
name = "replay-unit"
seed = 19
epochs = 6

[grid]
size_km = 4.0
side = 4

[population]
size = 300
human_fraction = 0.0
placement = { kind = "uniform" }
mobility = { kind = "walk", sigma = 0.15 }

[[attributes]]
name = "temp"
field = { kind = "constant", value = 21.0 }

[[queries]]
text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"

[[shifts]]
kind = "participation"
epoch = 3
factor = 0.4

[adaptive]
warmup_epochs = 1
cooldown_epochs = 2

[runlog]
"#
        .to_string()
    }

    fn recorded() -> (RunOutput, ScenarioRunner) {
        let runner = ScenarioRunner::new(ScenarioSpec::from_toml(&spec_toml()).unwrap()).unwrap();
        let out = runner.run(&RunPlan::default()).unwrap();
        assert!(out.log.is_some(), "[runlog] spec must record");
        (out, runner)
    }

    #[test]
    fn replay_reproduces_report_and_trace_in_both_modes() {
        let (live, _) = recorded();
        let log = live.log.as_ref().unwrap();
        for exec in [ExecMode::Serial, ExecMode::Sharded(3)] {
            let replayed = replay(log, exec).unwrap_or_else(|e| panic!("{exec:?}: {e}"));
            assert_eq!(
                replayed.report.canonical(),
                live.report.canonical(),
                "{exec:?}: replayed report differs"
            );
            assert_eq!(
                replayed.trace.as_ref().map(|t| t.canonical()),
                live.trace.as_ref().map(|t| t.canonical()),
                "{exec:?}: replayed trace differs"
            );
            assert_eq!(replayed.log.as_ref().unwrap().canonical(), log.canonical());
        }
    }

    #[test]
    fn replay_survives_a_disk_round_trip() {
        let (live, _) = recorded();
        let log = live.log.as_ref().unwrap();
        let reparsed = RunLog::parse(&log.canonical()).unwrap();
        let replayed = replay(&reparsed, ExecMode::Serial).unwrap();
        assert_eq!(replayed.report.checksum(), live.report.checksum());
    }

    #[test]
    fn tampered_log_is_caught_as_divergence() {
        let (live, _) = recorded();
        let mut log = live.log.clone().unwrap();
        // Claim one fewer response in some epoch with responses: replay
        // recomputes different downstream state and the report seal breaks
        // (or the re-recorded inputs differ — either way it must not pass).
        let e = log.epochs.iter().position(|e| !e.responses.is_empty()).expect("responses");
        log.epochs[e].responses.pop();
        let err = replay(&log, ExecMode::Serial).unwrap_err();
        assert!(
            matches!(err, ReplayError::ChecksumMismatch { .. } | ReplayError::Diverged { .. }),
            "{err}"
        );

        // A tampered dispatch record is caught by the structural layer:
        // the replayed handler recomputes `requested` from budget state.
        let mut log = live.log.clone().unwrap();
        log.epochs[0].requested += 1;
        let err = replay(&log, ExecMode::Serial).unwrap_err();
        assert!(matches!(err, ReplayError::Diverged { epoch: Some(0), .. }), "{err}");
    }

    #[test]
    fn resume_at_every_boundary_reconverges() {
        let (live, _) = recorded();
        let log = live.log.as_ref().unwrap();
        for k in 0..=log.epochs.len() {
            let resumed = resume(&log.truncated(k).unwrap(), ExecMode::Serial, k)
                .unwrap_or_else(|e| panic!("resume at {k}: {e}"));
            assert_eq!(
                resumed.report.checksum(),
                live.report.checksum(),
                "resume at {k}: report diverged"
            );
            assert_eq!(
                resumed.trace.as_ref().map(|t| t.checksum()),
                live.trace.as_ref().map(|t| t.checksum()),
                "resume at {k}: trace diverged"
            );
        }
    }

    #[test]
    fn resume_rejects_bad_boundaries_and_detects_prefix_divergence() {
        let (live, _) = recorded();
        let log = live.log.as_ref().unwrap();
        assert!(matches!(
            resume(&log.truncated(2).unwrap(), ExecMode::Serial, 5),
            Err(ReplayError::BadResumePoint { at: 5, recorded: 2 })
        ));

        // A corrupted prefix record is pinpointed to its epoch.
        let mut tampered = log.truncated(4).unwrap();
        tampered.epochs[1].sent += 7;
        let err = resume(&tampered, ExecMode::Serial, 4).unwrap_err();
        match err {
            ReplayError::Diverged { epoch: Some(1), ref details } => {
                assert!(details.contains("sent"), "{details}")
            }
            other => panic!("expected epoch-1 divergence, got {other}"),
        }
    }

    #[test]
    fn unsealed_partial_logs_replay_their_prefix() {
        let (live, _) = recorded();
        let cut = live.log.as_ref().unwrap().truncated(3).unwrap();
        let replayed = replay(&cut, ExecMode::Serial).unwrap();
        assert_eq!(replayed.report.epochs.len(), 3, "replay covers the recorded prefix");
        // The fresh log of the partial replay is sealed over the partial
        // report — parseable and replayable in turn.
        let again = replay(replayed.log.as_ref().unwrap(), ExecMode::Serial).unwrap();
        assert_eq!(again.report.checksum(), replayed.report.checksum());
    }
}
