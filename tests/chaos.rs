//! The chaos tier — kill the server at every crash point of every epoch
//! and prove the crash-safe run log brings it back byte-identical.
//!
//! The scenario under fire is the committed `fault_flaky_crowd` spec:
//! drop/delay/duplicate fault windows, a retry policy topping up starved
//! chains, and two tenant pools whose conservation laws must survive the
//! recovery. For each `(crash point, epoch)` cell of the kill matrix:
//!
//! 1. [`ScenarioRunner::run_to_crash`] streams the run to a real file
//!    with per-epoch fsync and dies at the injected point — including
//!    `mid-log-append`, which tears the file mid-record;
//! 2. [`craqr::runlog::parse_salvage`] recovers the longest valid
//!    checksummed prefix, which must hold *exactly* the epochs that were
//!    durable at the kill (the fsync discipline's whole promise);
//! 3. [`craqr::scenario::resume`] verifies the salvaged prefix
//!    record-by-record and continues live to the horizon;
//! 4. the recovered report and trace checksums must equal the
//!    uninterrupted run's — not approximately, byte-for-byte — and the
//!    per-tenant budget laws must hold as if nothing had happened.
//!
//! Every cell runs twice — on the serial executor and with all three
//! pipeline stages mid-flight ([`Execution::pipelined`]) — against the
//! same uninterrupted *serial* reference, and a second pass crashes and
//! recovers under `ExecMode::Sharded(4)`, so recovery is portable across
//! both executor axes: you can crash on a laptop and resume on a
//! many-core box. Steps 1–3 are [`craqr::scenario::kill_salvage_resume`],
//! the same helper the CLI's `chaos` drill runs.

use craqr::core::{CrashPoint, ExecMode};
use craqr::runlog::parse_salvage;
use craqr::scenario::{kill_salvage_resume, Execution, Record, RunOutput, RunPlan, ScenarioRunner};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn runner(stem: &str) -> ScenarioRunner {
    ScenarioRunner::from_file(&repo_root().join("scenarios").join(format!("{stem}.toml")))
        .expect("committed scenario must load")
}

/// A per-test scratch directory; removed on drop so green runs leave no
/// litter, while a panic keeps the torn artifact for post-mortems.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("craqr-chaos-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn log_path(&self, point: CrashPoint, epoch: u32) -> PathBuf {
        self.0.join(format!("kill.{}.e{epoch}.runlog.txt", point.name()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// The uninterrupted serial run every recovery must land on.
fn reference(runner: &ScenarioRunner) -> RunOutput {
    runner.run(&RunPlan::default().record(Record::Memory)).unwrap()
}

/// Kills at `(point, epoch)` under `mode` — once per executor, serial
/// then pipelined — salvages, resumes, and holds each recovery to
/// `reference`, and each torn file to the crash seam's shape: the
/// reference's admissions and exactly its epochs before the kill,
/// unsealed, torn mid-record only by `mid-log-append`.
fn kill_and_recover(
    runner: &ScenarioRunner,
    scratch: &Scratch,
    reference: &RunOutput,
    mode: ExecMode,
    (point, epoch): (CrashPoint, u32),
) {
    for pipelined in [false, true] {
        let what = format!("{mode:?} pipelined={pipelined} {point} @ epoch {epoch}");
        let path = scratch.log_path(point, epoch);
        let plan = RunPlan::new(Execution::from(mode).pipelined(pipelined))
            .record(Record::Stream(path.clone()));
        let recovered = kill_salvage_resume(runner, &plan, epoch, point)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_recovered(reference, &recovered, &what);

        // The durable prefix is the uninterrupted run's, record for record.
        let salvage = parse_salvage(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let want = reference.log.as_ref().expect("the reference run records its log");
        assert_eq!(salvage.log.admissions, want.admissions, "{what}: salvaged admissions");
        assert_eq!(
            salvage.log.epochs.len(),
            epoch as usize,
            "{what}: every crash point kills before the epoch's block is durable"
        );
        assert!(
            salvage.log.epochs[..] == want.epochs[..epoch as usize],
            "{what}: the salvaged epochs are not the uninterrupted run's"
        );
        let torn = salvage.torn.unwrap_or_else(|| panic!("{what}: a killed stream looks sealed"));
        if point == CrashPoint::MidLogAppend {
            assert!(torn.discarded_bytes > 0, "{what}: salvage must discard the torn fragment");
        } else {
            assert_eq!(torn.discarded_bytes, 0, "{what}: the file ends on a clean boundary");
        }
    }
}

/// Byte-level recovery identity plus the budget conservation laws, per
/// tenant, exactly as an uninterrupted run must satisfy them.
fn assert_recovered(reference: &RunOutput, recovered: &RunOutput, what: &str) {
    assert_eq!(
        recovered.report.checksum(),
        reference.report.checksum(),
        "{what}: recovered report diverges from the uninterrupted run"
    );
    assert_eq!(
        recovered.trace.as_ref().map(|t| t.checksum()),
        reference.trace.as_ref().map(|t| t.checksum()),
        "{what}: recovered trace diverges from the uninterrupted run"
    );
    let epochs = recovered.report.epochs.len() as u32;
    if let Some(tenants) = &recovered.report.tenants {
        for row in &tenants.rows {
            assert_eq!(row.conservation_violation(epochs), None, "{what}");
        }
        // The admission audit predates epoch 0, so every recovery must
        // reproduce it verbatim from the salvaged header.
        assert_eq!(
            tenants.admissions,
            reference.report.tenants.as_ref().unwrap().admissions,
            "{what}: recovered admission audit diverges"
        );
    }
}

/// The full kill matrix on both executors: every crash point of every
/// epoch of the faulty scenario dies, salvages, resumes, and lands
/// byte-identical.
#[test]
fn every_crash_point_of_every_epoch_recovers_byte_identical() {
    let runner = runner("fault_flaky_crowd");
    let scratch = Scratch::new("serial");
    let reference = reference(&runner);
    assert!(reference.report.tenants.is_some(), "the chaos scenario must exercise tenancy");
    for epoch in 0..runner.spec().epochs {
        for point in CrashPoint::ALL {
            kill_and_recover(&runner, &scratch, &reference, ExecMode::Serial, (point, epoch));
        }
    }
}

/// Crash and recover under `Sharded(4)`, compared against the *serial*
/// uninterrupted reference: recovery is mode-portable, so a run crashed
/// on one machine shape can resume on another.
#[test]
fn sharded_recovery_matches_the_serial_reference() {
    let runner = runner("fault_flaky_crowd");
    let scratch = Scratch::new("sharded");
    let reference = reference(&runner);
    for epoch in [0, 3, 7, runner.spec().epochs - 1] {
        for point in [CrashPoint::PostDrain, CrashPoint::MidLogAppend] {
            kill_and_recover(&runner, &scratch, &reference, ExecMode::Sharded(4), (point, epoch));
        }
    }
}

/// An admission **rejection** predates epoch 0, so it lives only in the
/// streamed header — kill the run before anything else is durable and
/// the salvaged prefix alone must reproduce the rejection audit.
#[test]
fn admission_rejections_survive_an_epoch_zero_crash() {
    let runner = runner("tenant_starved_reject");
    let scratch = Scratch::new("admission");
    let reference = reference(&runner);
    let rejected: u32 =
        reference.report.tenants.as_ref().unwrap().rows.iter().map(|r| r.rejected).sum();
    assert!(rejected > 0, "the scenario must actually reject a submission");
    for point in CrashPoint::ALL {
        kill_and_recover(&runner, &scratch, &reference, ExecMode::Serial, (point, 0));
    }
}
