//! The golden-output regression corpus.
//!
//! Every spec under `scenarios/` runs under both execution modes; the two
//! canonical reports must be **byte-identical** (the sharded-executor
//! determinism contract) and must match the committed golden under
//! `tests/goldens/<name>.golden.txt` byte-for-byte. Regenerate goldens
//! after an intentional behaviour change with:
//!
//! ```text
//! cargo run --release --bin craqr-scenario -- scenarios/*.toml scenarios/*.json --bless
//! ```

use craqr::core::ExecMode;
use craqr::scenario::{Record, RunPlan, ScenarioReport, ScenarioRunner, ScenarioSpec};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every committed scenario spec, sorted by file name.
fn scenario_files() -> Vec<PathBuf> {
    craqr::scenario::scenario_files(&repo_root().join("scenarios")).expect("scenarios dir")
}

/// The report of a run that records nothing (goldens pin reports here;
/// traces and logs have their own tiers).
fn report(runner: &ScenarioRunner, plan: RunPlan) -> ScenarioReport {
    let name = &runner.spec().name;
    runner.run(&plan.record(Record::Off)).unwrap_or_else(|e| panic!("{name}: {e}")).report
}

fn load(path: &Path) -> ScenarioSpec {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    ScenarioSpec::from_source(&path.to_string_lossy(), &src)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn corpus_has_the_committed_scenarios() {
    let names: Vec<String> = scenario_files().iter().map(|p| load(p).name).collect();
    for expected in [
        "baseline_temp",
        "budget_starved",
        "churn_heavy",
        "drift_hotspot_migration",
        "drift_hotspot_migration_static",
        "drift_rate_jump",
        "drift_rate_jump_static",
        "drift_sensor_dropout",
        "drift_sensor_dropout_static",
        "hotspot_burst",
        "rain_sweep",
        "sparse_large_grid",
        "telemetry_probe",
        "tenant_drift_pools",
        "tenant_starved_reject",
    ] {
        assert!(names.iter().any(|n| n == expected), "scenario '{expected}' missing from corpus");
    }
    assert!(names.len() >= 14, "corpus shrank: {names:?}");
}

#[test]
fn serial_and_sharded_match_the_goldens() {
    for path in scenario_files() {
        let spec = load(&path);
        let name = spec.name.clone();
        let runner = ScenarioRunner::new(spec).expect("committed specs are valid");

        let golden_path = repo_root().join("tests/goldens").join(format!("{name}.golden.txt"));
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {} ({e}); bless it with \
                 `cargo run --release --bin craqr-scenario -- scenarios/* --bless`",
                golden_path.display()
            )
        });
        // Both modes against the same bytes: a divergence between them is
        // the executor determinism contract breaking.
        for mode in [ExecMode::Serial, ExecMode::Sharded(4)] {
            assert_eq!(
                golden,
                report(&runner, RunPlan::new(mode)).canonical(),
                "{name} [{mode:?}]: report no longer matches {}; if the change is intentional, \
                 re-bless",
                golden_path.display()
            );
        }
    }
}

#[test]
fn determinism_holds_across_seed_overrides() {
    // The CI determinism job re-checks this through the CLI; this inline
    // version keeps the property under plain `cargo test` too.
    let path = repo_root().join("scenarios/baseline_temp.toml");
    let runner = ScenarioRunner::new(load(&path)).unwrap();
    for seed in [1u64, 0xDEAD_BEEF] {
        let serial = report(&runner, RunPlan::new(ExecMode::Serial).seed(seed));
        let sharded = report(&runner, RunPlan::new(ExecMode::Sharded(3)).seed(seed));
        assert_eq!(serial.canonical(), sharded.canonical(), "seed {seed}");
        assert_eq!(serial.checksum(), sharded.checksum(), "seed {seed}");
    }
}

#[test]
fn reruns_are_bit_stable() {
    // Two independent runs of the same (spec, seed, mode) are identical —
    // nothing leaks between runs through the runner.
    let path = repo_root().join("scenarios/hotspot_burst.toml");
    let runner = ScenarioRunner::new(load(&path)).unwrap();
    let a = report(&runner, RunPlan::new(ExecMode::Sharded(2)));
    let b = report(&runner, RunPlan::new(ExecMode::Sharded(2)));
    assert_eq!(a, b);
}
