//! E14 — the declarative scenario corpus as a benchmark workload.
//!
//! Claim under test: the checked-in scenario specs under `scenarios/` are
//! not just regression fixtures — each one is a complete, runnable
//! workload, and running it under `Sharded(4)` preserves the serial
//! report bit-for-bit while shrinking the executor's critical path.
//!
//! For every committed spec this bench runs the scenario once per
//! execution mode, asserts the canonical reports (and therefore the
//! checksums) are identical, and reports wall time per mode plus the
//! whole-run delivered-tuple count. Run with `--test` for a smoke pass
//! (same runs, no repetition is needed — scenarios are deterministic).

use craqr_bench::{f3, preamble, Table};
use craqr_core::exec::ExecMode;
use craqr_scenario::{Record, RunPlan, ScenarioRunner, ScenarioSpec};
use std::path::PathBuf;
use std::time::Instant;

fn scenario_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| matches!(p.extension().and_then(|e| e.to_str()), Some("toml") | Some("json")))
        .collect();
    files.sort();
    files
}

fn main() {
    preamble(
        "E14",
        "declarative scenarios run identically under serial and sharded execution",
        "every spec in scenarios/, one run per ExecMode, canonical reports compared",
    );

    let mut table =
        Table::new(["scenario", "epochs", "delivered", "serial ms", "sharded(4) ms", "checksum"]);
    for path in scenario_files() {
        let src = std::fs::read_to_string(&path).expect("read spec");
        let spec = ScenarioSpec::from_source(&path.to_string_lossy(), &src)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let runner = ScenarioRunner::new(spec).expect("committed specs are valid");

        // Report-only: no run log is kept, even for `[runlog]` specs.
        let plan = |mode| RunPlan::new(mode).record(Record::Off);
        let t0 = Instant::now();
        let serial = runner.run(&plan(ExecMode::Serial)).expect("serial run").report;
        let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let sharded = runner.run(&plan(ExecMode::Sharded(4))).expect("sharded run").report;
        let sharded_ms = t1.elapsed().as_secs_f64() * 1e3;

        assert_eq!(
            serial.canonical(),
            sharded.canonical(),
            "{}: execution mode leaked into the report",
            runner.spec().name
        );

        let delivered: usize = serial.queries.iter().map(|q| q.delivered).sum();
        table.row([
            runner.spec().name.clone(),
            serial.epochs.len().to_string(),
            delivered.to_string(),
            f3(serial_ms),
            f3(sharded_ms),
            format!("{:#018x}", serial.checksum()),
        ]);
    }
    table.print("E14: scenario corpus, serial vs sharded (identical reports asserted)");
    println!(
        "\nwall times are host-dependent; the assertion (reports identical across modes) is \
         the portable result."
    );
}
