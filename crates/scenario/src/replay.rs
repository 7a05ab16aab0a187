//! Replaying, resuming, and verifying event-sourced runs.
//!
//! A [`RunLog`] recorded by a [`ScenarioRunner::run`] is a complete event
//! source for the server side of a run: the embedded spec, the seed, and
//! every epoch's crowd inputs. This module closes the loop:
//!
//! - [`replay`] re-drives a server from the log with the **crowd
//!   detached** (a zero-sensor world; the recorded responses stand in
//!   for it) under any [`Execution`]. A faithful log replays
//!   **byte-for-byte**, serial or sharded.
//! - [`resume`] truncates at epoch *k* and continues **live**. In this
//!   in-process system the world itself is part of the deterministic
//!   simulation, so "rebuild state at *k*" re-drives the world from the
//!   spec; the log's job during the prefix is *verification*. Past *k*
//!   the run is fresh, and an unperturbed resume re-converges on the
//!   uninterrupted run's exact report and trace.
//!
//! Both verify through one epoch check (`EpochCheck`) in the session's
//! tap: the rebuilt admission verdicts must match the log's header, every
//! tapped epoch below the checked horizon (all of a replay's, the first
//! *k* of a resume's) is rebuilt as an [`EpochRecord`] and compared with
//! the recorded one as it closes — the first divergence is reported at
//! its epoch ([`ReplayError::Diverged`]) — and the run's own report and
//! trace checksums must match the seals the recording run wrote. Neither
//! keeps a log of its own: their [`RunOutput::log`] is `None`.

use crate::runner::{Execution, Record, RunError, RunOutput, RunPlan, ScenarioRunner, Session};
use crate::spec::{ScenarioSpec, SpecError};
use craqr_adaptive::AdaptiveTrace;
use craqr_core::{AdmissionDecision, CrashPoint, EpochInputsRecord};
use craqr_runlog::diff::diff_epoch;
use craqr_runlog::{parse_salvage, AdmissionRecord, EpochRecord, RunLog, ShiftEvent};
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
        /// Human-readable difference report: the differing fields of the
        /// epoch, one line each (as [`craqr_runlog::diff::diff_epoch`]
        /// lists them), or the admissions message.
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

/// Re-drives a server from a recorded log with the crowd detached and
/// verifies every recorded epoch and the seals (see the module docs).
/// Works under any [`Execution`] (or bare [`craqr_core::ExecMode`])
/// regardless of how the run was recorded — the log is
/// execution-independent by construction. With `timing` on this is how
/// the CLI's `replay --metrics` renders a full metrics snapshot from any
/// committed log without touching the original run; timing changes
/// nothing checksummed, so the replay verifies exactly as untimed.
pub fn replay(log: &RunLog, how: impl Into<Execution>) -> Result<RunOutput, ReplayError> {
    rerun(log, how.into(), None)
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
    rerun(log, how.into(), Some(at))
}

/// Re-runs the spec and seed `log` embeds under its [`EpochCheck`],
/// recording nothing: detached over every recorded epoch, or
/// (`resume_at`) live, checking the epochs before it.
fn rerun(log: &RunLog, how: Execution, resume_at: Option<usize>) -> Result<RunOutput, ReplayError> {
    let spec = ScenarioSpec::from_toml(&log.spec_toml)?;
    let detached = resume_at.is_none();
    let mut session = Session::open(&spec, log.seed, how, detached.then_some(log), None)?;
    let horizon = resume_at.unwrap_or(log.epochs.len());
    let mut check = EpochCheck::open(log, horizon, session.admissions())?;
    session.drive(None, Some(&mut check));
    let output = session.close()?;
    check.close(&output)?;
    Ok(output)
}

/// The one check of a re-run against its log: it opens on the rebuilt
/// admission verdicts, compares each tapped epoch — built by the
/// recorder's own [`EpochRecord::from_tap`] — with the recorded one as it
/// closes, keeping the first divergence, and closes on the seals.
pub(crate) struct EpochCheck<'a> {
    log: &'a RunLog,
    /// The first `horizon` of the log's epochs: the ones checked.
    recorded: &'a [EpochRecord],
    checked: usize,
    diverged: Option<ReplayError>,
}

impl<'a> EpochCheck<'a> {
    /// Checks the first `horizon` epochs of `log`, once the rebuilt
    /// server's `admissions` match the recorded ones — a re-run must not
    /// silently admit what the recorded run rejected (or vice versa).
    fn open(
        log: &'a RunLog,
        horizon: usize,
        admissions: &[AdmissionDecision],
    ) -> Result<Self, ReplayError> {
        let rebuilt: Vec<AdmissionRecord> = admissions.iter().map(AdmissionRecord::from).collect();
        if rebuilt != log.admissions {
            return Err(ReplayError::Diverged {
                epoch: None,
                details: format!(
                    "admission decisions diverged from the log: recorded {:?}, rebuilt {:?}",
                    log.admissions, rebuilt
                ),
            });
        }
        Ok(Self { log, recorded: &log.epochs[..horizon], checked: 0, diverged: None })
    }

    /// Compares one tapped epoch, preceded by `shifts`, with its record.
    /// Epochs past the horizon run unchecked.
    pub(crate) fn on_epoch(&mut self, record: &EpochInputsRecord<'_>, shifts: &[ShiftEvent]) {
        let e = record.report.epoch;
        let Some(want) = self.recorded.get(e as usize) else { return };
        self.checked += 1;
        if self.diverged.is_some() {
            return;
        }
        let details = diff_epoch(want, &EpochRecord::from_tap(record, shifts.to_vec()));
        if !details.is_empty() {
            self.diverged =
                Some(ReplayError::Diverged { epoch: Some(e), details: details.join("\n") });
        }
    }

    /// The verdict on the finished run: the first divergence, then an
    /// epoch that never ran, then the seals against the run's own
    /// checksums (a truncated log carries none —
    /// [`RunLog::truncated`] dropped them).
    fn close(self, output: &RunOutput) -> Result<(), ReplayError> {
        if let Some(diverged) = self.diverged {
            return Err(diverged);
        }
        if self.checked < self.recorded.len() {
            let details = format!("the run ended before recorded epoch {}", self.checked);
            return Err(ReplayError::Diverged { epoch: Some(self.checked as u64), details });
        }
        let seals = [
            ("report", self.log.report_checksum, Some(output.report.checksum())),
            ("trace", self.log.trace_checksum, output.trace.as_ref().map(AdaptiveTrace::checksum)),
        ];
        for (what, recorded, actual) in seals {
            if let (Some(recorded), Some(actual)) = (recorded, actual) {
                if recorded != actual {
                    return Err(ReplayError::ChecksumMismatch { what, recorded, actual });
                }
            }
        }
        Ok(())
    }
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
            assert!(replayed.log.is_none(), "{exec:?}: a replay checks, it records nothing");
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
    fn a_bumped_request_diverges_at_its_epoch_on_both_executors() {
        // A tampered dispatch record is caught as its epoch closes: the
        // replayed handler recomputes `requested` from budget state.
        let (live, _) = recorded();
        let log = live.log.as_ref().unwrap();
        let last = log.epochs.len() - 1;
        for k in [0, last / 2, last] {
            let mut tampered = log.clone();
            tampered.epochs[k].requested += 1;
            for pipelined in [false, true] {
                let how = Execution::from(ExecMode::Serial).pipelined(pipelined);
                match replay(&tampered, how) {
                    Err(ReplayError::Diverged { epoch: Some(e), ref details }) => {
                        assert_eq!(e, k as u64, "pipelined={pipelined}: {details}");
                        assert!(details.contains("requested"), "{details}");
                    }
                    other => panic!("bump at {k}, pipelined={pipelined}: {:?}", other.map(|_| ())),
                }
            }
        }
        let clean = replay(log, Execution::from(ExecMode::Serial).pipelined(true)).unwrap();
        assert!(clean.log.is_none(), "a verified replay keeps no log");
    }

    #[test]
    fn an_edited_and_resealed_shift_diverges_at_its_epoch() {
        // The check compares the log's shifts with the spec's schedule, not
        // with themselves: a re-sealed edit passes every block checksum.
        let (live, _) = recorded();
        let mut log = live.log.clone().unwrap();
        log.epochs[3].shifts[0] = ShiftEvent::Participation { factor: 0.5 };
        let resealed = RunLog::parse(&log.canonical()).unwrap();
        match replay(&resealed, ExecMode::Serial) {
            Err(ReplayError::Diverged { epoch: Some(3), ref details }) => {
                assert!(details.contains("shift"), "{details}");
            }
            other => panic!("edited shift: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn tampered_log_is_caught_as_divergence() {
        let (live, _) = recorded();
        let mut log = live.log.clone().unwrap();
        // Claim one fewer response in some epoch with responses: replay
        // recomputes different downstream state and the report seal breaks
        // (or the regenerated inputs differ — either way it must not pass).
        let e = log.epochs.iter().position(|e| !e.responses.is_empty()).expect("responses");
        log.epochs[e].responses.pop();
        let err = replay(&log, ExecMode::Serial).unwrap_err();
        assert!(
            matches!(err, ReplayError::ChecksumMismatch { .. } | ReplayError::Diverged { .. }),
            "{err}"
        );
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
            assert!(resumed.log.is_none(), "resume at {k}: a resume checks, it records nothing");
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
    fn a_resume_that_ends_before_its_checked_epochs_diverges() {
        let (live, _) = recorded();
        let mut log = live.log.clone().unwrap();
        // The embedded spec now stops two epochs short of the recording.
        log.spec_toml = log.spec_toml.replace("epochs = 6", "epochs = 4");
        let err = resume(&log, ExecMode::Serial, 6).unwrap_err();
        assert!(matches!(err, ReplayError::Diverged { epoch: Some(4), .. }), "{err}");
    }

    #[test]
    fn unsealed_partial_logs_replay_their_prefix() {
        let (live, _) = recorded();
        let cut = live.log.as_ref().unwrap().truncated(3).unwrap();
        let replayed = replay(&cut, ExecMode::Serial).unwrap();
        assert_eq!(replayed.report.epochs.len(), 3, "replay covers the recorded prefix");
        // The unsealed prefix verifies epoch by epoch, with no seal to
        // compare against, and replays to the same report every time.
        let again = replay(&cut, ExecMode::Serial).unwrap();
        assert_eq!(again.report.checksum(), replayed.report.checksum());
    }
}
