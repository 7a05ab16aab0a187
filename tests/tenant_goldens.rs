//! The multi-tenant regression corpus — admission control and per-tenant
//! pool accounting, end to end.
//!
//! Two committed scenarios exercise the tenancy machinery:
//!
//! - `tenant_starved_reject` — three submissions against two pools; the
//!   third over-commits its tenant's pool and is **rejected at
//!   admission** (the run proceeds with the admitted two, and the
//!   rejection is pinned in the report's `[admissions]` audit and the
//!   run log header). The startup's tiny pool also throttles dispatch
//!   every epoch, witnessing conservation.
//! - `tenant_drift_pools` — a participation surge triggers a replan on a
//!   multi-tenant server: the water-fill runs **within each tenant's own
//!   pool first**, so no tenant's drift can drain another tenant's pool.
//!
//! Assertions, per the acceptance criteria:
//!
//! 1. report, trace, and run log are byte-identical across
//!    `ExecMode::Serial` and `Sharded(4)` (per-tenant sections included)
//!    and match their committed goldens;
//! 2. per-tenant pools are conserved **every epoch**: each epoch's
//!    recorded `charge` is ≤ the tenant's capacity;
//! 3. admission rejections and per-tenant charges round-trip through
//!    record → replay → resume byte-for-byte, including resumes at epoch
//!    boundaries that straddle the admission rejection (every boundary
//!    does — admission precedes epoch 0);
//! 4. replans respect pool boundaries: a tenant's allocation never
//!    exceeds its own pool plus the surplus the other tenants left.
//!
//! Re-bless after an intentional behaviour change with:
//!
//! ```text
//! cargo run --release --bin craqr-scenario -- --all scenarios --bless
//! ```

use craqr::core::ExecMode;
use craqr::runlog::RunLog;
use craqr::scenario::{replay, resume, RunOutput, RunPlan, ScenarioRunner};
use std::collections::HashMap;
use std::path::Path;

const TENANT_SCENARIOS: [&str; 2] = ["tenant_drift_pools", "tenant_starved_reject"];

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

fn runner(stem: &str) -> ScenarioRunner {
    ScenarioRunner::from_file(&repo_root().join("scenarios").join(format!("{stem}.toml")))
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `stem` under both exec modes, asserts report + trace + log byte
/// identity across modes (the per-tenant sections ride inside all
/// three), and returns the serial output.
fn run_both_modes(stem: &str) -> RunOutput {
    let runner = runner(stem);
    let serial = runner.run(&RunPlan::new(ExecMode::Serial)).unwrap_or_else(|e| panic!("{e}"));
    let sharded = runner.run(&RunPlan::new(ExecMode::Sharded(4))).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        serial.report.canonical(),
        sharded.report.canonical(),
        "{stem}: serial and Sharded(4) reports (incl. [tenants]/[admissions]) diverge"
    );
    assert_eq!(
        serial.trace.as_ref().map(|t| t.canonical()),
        sharded.trace.as_ref().map(|t| t.canonical()),
        "{stem}: serial and Sharded(4) traces diverge"
    );
    assert_eq!(
        serial.log.as_ref().map(|l| l.canonical()),
        sharded.log.as_ref().map(|l| l.canonical()),
        "{stem}: serial and Sharded(4) run logs (incl. adm/charge records) diverge"
    );
    serial
}

/// The declared pool capacity per tenant id, read from the spec (tenant
/// ids are dense in declaration order).
fn pool_capacities(stem: &str) -> HashMap<u32, f64> {
    runner(stem).spec().tenants.iter().enumerate().map(|(i, t)| (i as u32, t.pool)).collect()
}

#[test]
fn tenant_reports_traces_and_logs_match_their_goldens() {
    for stem in TENANT_SCENARIOS {
        let out = run_both_modes(stem);
        assert_eq!(
            golden(&format!("{stem}.golden.txt")),
            out.report.canonical(),
            "{stem}: report no longer matches its golden; re-bless if intentional"
        );
        assert_eq!(
            golden(&format!("{stem}.trace.txt")),
            out.trace.as_ref().expect("tenant scenarios close the loop").canonical(),
            "{stem}: trace no longer matches its golden; re-bless if intentional"
        );
        assert_eq!(
            golden(&format!("{stem}.runlog.txt")),
            out.log.as_ref().expect("tenant scenarios record").canonical(),
            "{stem}: run log no longer matches its golden; re-bless if intentional"
        );
    }
}

#[test]
fn starved_tenant_is_rejected_and_the_run_proceeds() {
    let out = run_both_modes("tenant_starved_reject");
    let tenants = out.report.tenants.as_ref().expect("[tenants] section");
    assert_eq!(tenants.admissions.len(), 3, "three submissions audited");
    let rejected: Vec<_> = tenants.admissions.iter().filter(|a| !a.admitted).collect();
    assert_eq!(rejected.len(), 1, "exactly the over-committing query is rejected");
    assert_eq!(rejected[0].submission, 2);
    assert_eq!(rejected[0].tenant, 1);
    assert!(
        rejected[0].committed + rejected[0].demand > rejected[0].capacity,
        "the rejection is arithmetically justified"
    );
    // The rejected query never ran: only two query rows, at spec
    // indices 0 and 1.
    assert_eq!(out.report.queries.len(), 2);
    assert_eq!(
        out.report.queries.iter().map(|q| q.index).collect::<Vec<_>>(),
        vec![0, 1],
        "rejected queries keep their spec slot out of [queries]"
    );
    // And the admitted ones actually delivered.
    assert!(out.report.queries.iter().all(|q| q.delivered > 0));
    // The pools throttled dispatch: every dispatched request is charged
    // to some tenant, so total charges below total requested means the
    // clamp withheld the difference.
    let charged: f64 = tenants.rows.iter().map(|r| r.charged).sum();
    assert!(
        charged + 0.5 < out.report.totals.requested as f64,
        "tenant pools never throttled dispatch: charged {charged} of {} requested",
        out.report.totals.requested
    );
    // And both tenants hit their ceiling at least once.
    for row in &tenants.rows {
        assert!(
            (row.peak_epoch_charge - row.capacity).abs() < 1e-9,
            "tenant {} never saturated its pool: peak {} of {}",
            row.tenant,
            row.peak_epoch_charge,
            row.capacity
        );
    }
}

#[test]
fn per_tenant_pools_are_conserved_every_epoch() {
    for stem in TENANT_SCENARIOS {
        let capacities = pool_capacities(stem);
        let log = RunLog::parse(&golden(&format!("{stem}.runlog.txt")))
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(!log.epochs.is_empty());
        for epoch in &log.epochs {
            assert_eq!(
                epoch.charges.len(),
                capacities.len(),
                "{stem} epoch {}: every tenant gets a charge record",
                epoch.epoch
            );
            for charge in &epoch.charges {
                let capacity = capacities[&charge.tenant];
                assert!(
                    charge.spent <= capacity + 1e-9,
                    "{stem} epoch {}: tenant {} overdrew its pool: {} > {capacity}",
                    epoch.epoch,
                    charge.tenant,
                    charge.spent
                );
                assert!(charge.spent >= 0.0);
            }
        }
        // The report's peak-epoch column agrees with the log's maxima. A
        // single serial run suffices here — cross-mode byte identity is
        // pinned by `tenant_reports_traces_and_logs_match_their_goldens`.
        let runner = runner(stem);
        let out = runner.run(&RunPlan::new(ExecMode::Serial)).unwrap_or_else(|e| panic!("{e}"));
        for row in &out.report.tenants.as_ref().expect("[tenants]").rows {
            let log_peak = log
                .epochs
                .iter()
                .flat_map(|e| &e.charges)
                .filter(|c| c.tenant == row.tenant)
                .fold(0.0f64, |m, c| m.max(c.spent));
            assert!(
                (row.peak_epoch_charge - log_peak).abs() < 1e-9,
                "{stem}: tenant {} peak mismatch report {} vs log {log_peak}",
                row.tenant,
                row.peak_epoch_charge
            );
            assert_eq!(row.conservation_violation(out.report.epochs.len() as u32), None, "{stem}");
        }
    }
}

#[test]
fn drift_replan_respects_tenant_pool_boundaries() {
    let out = run_both_modes("tenant_drift_pools");
    let trace = out.trace.as_ref().expect("trace");
    assert!(!trace.replans.is_empty(), "the surge must trigger a replan\n{}", trace.canonical());
    let capacities = pool_capacities("tenant_drift_pools");
    for replan in &trace.replans {
        assert_eq!(
            replan.tenant_pools.len(),
            capacities.len(),
            "multi-tenant replans account every tenant\n{}",
            trace.canonical()
        );
        let total_surplus: f64 =
            replan.tenant_pools.iter().map(|t| (t.pool - t.demand.min(t.pool)).max(0.0)).sum();
        for row in &replan.tenant_pools {
            assert_eq!(row.pool, capacities[&row.tenant], "pool column is the declared capacity");
            // The fairness invariant: a tenant's allocation never exceeds
            // its own pool plus what the other tenants left unused.
            assert!(
                row.alloc <= row.pool + total_surplus + 1e-9,
                "tenant {} drained beyond its pool + surplus: alloc {} pool {} surplus \
                 {total_surplus}\n{}",
                row.tenant,
                row.alloc,
                row.pool,
                trace.canonical()
            );
            assert!(row.alloc <= row.demand + 1e-9, "allocation beyond demand");
        }
        let total_alloc: f64 = replan.tenant_pools.iter().map(|t| t.alloc).sum();
        let total_pool: f64 = replan.tenant_pools.iter().map(|t| t.pool).sum();
        assert!(total_alloc <= total_pool + 1e-9, "Σ alloc exceeds Σ pools");
        assert!((replan.pool - total_pool).abs() < 1e-9, "replan pool is Σ tenant pools");
    }
}

#[test]
fn admission_and_charges_replay_byte_for_byte_in_both_modes() {
    for stem in TENANT_SCENARIOS {
        let log = RunLog::parse(&golden(&format!("{stem}.runlog.txt")))
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(!log.admissions.is_empty(), "{stem}: admission decisions are in the log");
        for exec in [ExecMode::Serial, ExecMode::Sharded(4)] {
            let out = replay(&log, exec).unwrap_or_else(|e| panic!("{stem} [{exec:?}]: {e}"));
            assert_eq!(
                out.report.canonical(),
                golden(&format!("{stem}.golden.txt")),
                "{stem} [{exec:?}]: replayed report differs"
            );
            // `Ok` means the admissions and every epoch's charges matched
            // the committed log; the replay keeps no copy.
            assert!(out.log.is_none(), "{stem} [{exec:?}]: a replay records nothing");
        }
    }
}

#[test]
fn resume_across_the_admission_rejection_reconverges_at_every_boundary() {
    // Admission precedes epoch 0, so every resume boundary straddles the
    // rejection: the resumed run must re-derive the same verdicts (they
    // are cross-checked against the log header) and re-converge on the
    // uninterrupted run's bytes.
    for stem in TENANT_SCENARIOS {
        let text = golden(&format!("{stem}.runlog.txt"));
        let log = RunLog::parse(&text).unwrap_or_else(|e| panic!("{stem}: {e}"));
        let full_report = golden(&format!("{stem}.golden.txt"));
        let full_trace = golden(&format!("{stem}.trace.txt"));
        for k in 0..=log.epochs.len() {
            let out = resume(&log.truncated(k).unwrap(), ExecMode::Serial, k)
                .unwrap_or_else(|e| panic!("{stem} resume at {k}: {e}"));
            assert_eq!(out.report.canonical(), full_report, "{stem} resume at {k}: report");
            assert_eq!(
                out.trace.expect("trace").canonical(),
                full_trace,
                "{stem} resume at {k}: trace"
            );
        }
    }
}

#[test]
fn tampered_admission_records_fail_resume() {
    // Flip the recorded rejection into an admission: the resumed run and
    // the detached replay both re-derive the true verdicts at open and
    // must refuse the log.
    let text = golden("tenant_starved_reject.runlog.txt");
    let log = RunLog::parse(&text).unwrap();
    let mut tampered = log.truncated(3).unwrap();
    let idx = tampered.admissions.iter().position(|a| !a.admitted).expect("a rejection");
    tampered.admissions[idx].admitted = true;
    for err in [resume(&tampered, ExecMode::Serial, 3), replay(&tampered, ExecMode::Serial)] {
        let err = err.unwrap_err();
        assert!(
            matches!(err, craqr::scenario::ReplayError::Diverged { epoch: None, .. }),
            "want admission divergence, got {err}"
        );
    }
}
