//! Golden scenario reports.
//!
//! A [`ScenarioReport`] is the deterministic observable footprint of one
//! scenario run: per-epoch loop statistics, per-query delivery and
//! empirical intensity summaries, operator-kind acceptance/thinning
//! totals, and whole-run budget accounting. Its
//! [`canonical`](ScenarioReport::canonical) rendering is byte-stable — identical for
//! [`craqr_core::ExecMode::Serial`] and any `Sharded(n)` under the same
//! seed — and ends in an FNV-1a checksum line, so golden files under
//! `tests/goldens/` diff cleanly and CI can compare runs by checksum
//! alone.
//!
//! Anything host- or schedule-dependent (wall/CPU time, shard busy-times,
//! worker counts) is deliberately **excluded** from the canonical body.

use crate::value::format_float;
use craqr_core::FaultDeltas;
use craqr_mdpp::IntensitySummary;
pub use craqr_stats::fnv1a64;

/// One epoch of the Fig. 1 loop, reduced to its deterministic counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Epoch index.
    pub epoch: u64,
    /// Requests the handler attempted.
    pub requested: u64,
    /// Requests actually sent.
    pub sent: u64,
    /// Responses drained from the crowd.
    pub responses: usize,
    /// Responses rejected by mitigation.
    pub rejected: usize,
    /// Well-formed tuples ingested.
    pub ingested: usize,
    /// Tuples routed to materialized chains.
    pub routed: usize,
    /// Tuples dropped at the map phase.
    pub dropped: usize,
    /// Tuples delivered across all queries.
    pub delivered: usize,
    /// Budget-tuning increase events.
    pub tune_increased: usize,
    /// Budget-tuning decrease events.
    pub tune_decreased: usize,
    /// Budget-exhaustion events.
    pub tune_exhausted: usize,
    /// Requests withheld by pool throttling (`requested - sent` due to
    /// tenant budget caps). Carried for run-level totals and telemetry;
    /// **not** rendered in the per-epoch line (the line format is part of
    /// the golden contract and `requested`/`sent` already imply it).
    pub throttled: u64,
    /// Control actions dropped as stale (targeted a retired chain).
    /// Carried for run-level totals; not rendered per-epoch.
    pub stale_actions: u64,
    /// Crowd-fault activity this epoch (all zero without a `[faults]`
    /// layer). Carried for the `[faults]` section; not rendered per-epoch.
    pub faults: FaultDeltas,
}

/// One standing query's whole-run outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    /// Query index (submission order).
    pub index: usize,
    /// The declarative text.
    pub text: String,
    /// Requested rate λ (/km²/min).
    pub requested_rate: f64,
    /// Query footprint area (km²).
    pub area: f64,
    /// Tuples delivered over the run.
    pub delivered: usize,
    /// Achieved rate (delivered / (area × minutes)).
    pub achieved_rate: f64,
    /// Empirical intensity summary of the delivered stream over the run
    /// window on the scenario grid.
    pub intensity: IntensitySummary,
}

/// Acceptance/thinning totals for one operator kind (aggregated over every
/// chain via [`craqr_core::OperatorMetrics::by_kind`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorRow {
    /// Operator kind: `F`, `P` or `T`.
    pub kind: String,
    /// Tuples in.
    pub tuples_in: u64,
    /// Tuples out.
    pub tuples_out: u64,
    /// Batches processed.
    pub batches: u64,
}

/// Whole-run accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTotals {
    /// Requests attempted.
    pub requested: u64,
    /// Requests sent.
    pub sent: u64,
    /// Responses delivered by the crowd.
    pub responses: u64,
    /// Budget-exhaustion events ("accept the feasible rate or pay more").
    pub exhausted_events: u64,
    /// Sum of final per-chain budgets (requests/epoch).
    pub final_budget: f64,
    /// Tuples dropped at the map phase over the run.
    pub dropped_unmaterialized: u64,
    /// Materialized (cell, attribute) chains at the end of the run.
    pub chains: usize,
    /// Simulated minutes elapsed.
    pub minutes: f64,
    /// Requests withheld by pool throttling over the run (sum of
    /// [`EpochRow::throttled`]).
    pub throttled: u64,
    /// Stale control actions dropped over the run (sum of
    /// [`EpochRow::stale_actions`]).
    pub stale_actions: u64,
}

/// Roll-up of an adaptive controller run, pinned into the report so the
/// report checksum also pins the full [`craqr_adaptive::AdaptiveTrace`]
/// (whose own canonical text is golden-tested separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveSection {
    /// `true`: replans were applied; `false`: observe-only baseline.
    pub active: bool,
    /// The trace roll-up (observation/drift/replan counts + checksum).
    pub summary: craqr_adaptive::TraceSummary,
}

impl From<&craqr_adaptive::AdaptiveTrace> for AdaptiveSection {
    fn from(t: &craqr_adaptive::AdaptiveTrace) -> Self {
        Self { active: t.enabled, summary: t.summary() }
    }
}

/// One tenant's whole-run accounting row.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// The tenant (dense registration-order id).
    pub tenant: u32,
    /// The tenant's declared name.
    pub name: String,
    /// Budget pool capacity (requests/epoch).
    pub capacity: f64,
    /// Queries admitted.
    pub admitted: u32,
    /// Queries rejected at admission.
    pub rejected: u32,
    /// Committed estimated demand (requests/epoch).
    pub committed: f64,
    /// Requests charged over the whole run.
    pub charged: f64,
    /// Largest single-epoch charge — the conservation witness, always
    /// `≤ capacity`.
    pub peak_epoch_charge: f64,
}

impl TenantRow {
    /// Why this row breaks budget conservation over a run of `epochs`
    /// epochs, or `None` when it keeps it: no epoch charges more than the
    /// capacity, admission commits no more than it, and the run charges at
    /// most `capacity × epochs`. Each bound allows 1e-9 of float noise.
    pub fn conservation_violation(&self, epochs: u32) -> Option<String> {
        const EPS: f64 = 1e-9;
        let capacity = self.capacity;
        let broken = if self.peak_epoch_charge > capacity + EPS {
            format!("charged {} in one epoch", format_float(self.peak_epoch_charge))
        } else if self.committed > capacity + EPS {
            format!("committed {}", format_float(self.committed))
        } else if self.charged > capacity * f64::from(epochs) + EPS {
            format!("charged {} over {epochs} epochs", format_float(self.charged))
        } else {
            return None;
        };
        Some(format!("tenant '{}' {broken} against capacity {}", self.name, format_float(capacity)))
    }
}

/// One admission decision, for the report's audit trail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRow {
    /// Submission order (counts rejections too).
    pub submission: u32,
    /// The submitting tenant.
    pub tenant: u32,
    /// Estimated demand (requests/epoch).
    pub demand: f64,
    /// Demand committed before this check.
    pub committed: f64,
    /// The tenant's pool capacity.
    pub capacity: f64,
    /// The verdict.
    pub admitted: bool,
}

/// The multi-tenant accounting section: one row per tenant plus the full
/// admission audit trail. Only present — and only rendered — for specs
/// that declare `[[tenants]]`, so single-owner goldens stay byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSection {
    /// Per-tenant rows, ascending by tenant id.
    pub rows: Vec<TenantRow>,
    /// Every admission decision, in submission order.
    pub admissions: Vec<AdmissionRow>,
}

/// Whole-run fault-injection and retry accounting. Only present — and
/// only rendered — for specs that declare a `[faults]` block, so
/// fault-free goldens don't carry a noisy all-zero section.
///
/// Event-derived and deterministic (the fault RNG is seeded; retries are
/// a deterministic function of dispatch outcomes), so the section is
/// checksummed like everything else in the report body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSection {
    /// Responses dropped by injected faults over the run.
    pub dropped: u64,
    /// Responses delayed (re-queued to mature later) over the run.
    pub delayed: u64,
    /// Responses duplicated over the run.
    pub duplicated: u64,
    /// Extra requests dispatched by the retry path over the run
    /// ([`craqr_core::RequestResponseHandler::retries_requested`]).
    pub retries_requested: u64,
    /// Shortfall events that scheduled a retry over the run
    /// ([`craqr_core::RequestResponseHandler::retry_attempts`]).
    pub retry_attempts: u64,
}

/// The event-derived metrics registry snapshot, pinned into the report.
///
/// `events` is [`craqr_telemetry::Registry::canonical_events`] — the
/// timing families are structurally excluded, so this section (and the
/// report checksum over it) is byte-identical whether or not the run
/// sampled any clocks. Present only for specs that declare
/// `[telemetry]` with `report = true`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySection {
    /// Canonical event-metric lines (one `event name{labels} value` per
    /// series, name-then-label ordered).
    pub events: String,
    /// FNV-1a checksum of `events` (also recomputable via
    /// `Registry::events_checksum`).
    pub events_checksum: u64,
}

/// The full deterministic report of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Seed the run used (spec seed unless overridden).
    pub seed: u64,
    /// Per-epoch rows.
    pub epochs: Vec<EpochRow>,
    /// Per-query rows.
    pub queries: Vec<QueryRow>,
    /// Operator-kind totals, sorted by kind.
    pub operators: Vec<OperatorRow>,
    /// Whole-run accounting.
    pub totals: RunTotals,
    /// Adaptive-controller roll-up (absent when the spec has no
    /// `[adaptive]` block; the section — and therefore the golden — only
    /// exists for closed-loop runs).
    pub adaptive: Option<AdaptiveSection>,
    /// Multi-tenant accounting (absent when the spec declares no
    /// `[[tenants]]`; single-owner reports stay byte-stable).
    pub tenants: Option<TenantSection>,
    /// Fault-injection/retry accounting (absent when the spec has no
    /// `[faults]` block; fault-free reports stay byte-stable).
    pub faults: Option<FaultSection>,
    /// Event-metric registry snapshot (absent without a `[telemetry]`
    /// block requesting `report = true`).
    pub telemetry: Option<TelemetrySection>,
}

impl ScenarioReport {
    /// The canonical golden text: byte-stable across hosts and
    /// [`craqr_core::ExecMode`]s, ending in a `checksum:` line over
    /// everything before it.
    pub fn canonical(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "# craqr scenario report v1");
        let _ = writeln!(s, "scenario: {}", self.name);
        let _ = writeln!(s, "seed: {}", self.seed);
        let _ = writeln!(s, "epochs: {}", self.epochs.len());
        let _ = writeln!(s, "\n[epochs]");
        for e in &self.epochs {
            let _ = writeln!(
                s,
                "e={} requested={} sent={} responses={} rejected={} ingested={} routed={} \
                 dropped={} delivered={} tune+={} tune-={} tune!={}",
                e.epoch,
                e.requested,
                e.sent,
                e.responses,
                e.rejected,
                e.ingested,
                e.routed,
                e.dropped,
                e.delivered,
                e.tune_increased,
                e.tune_decreased,
                e.tune_exhausted,
            );
        }
        let _ = writeln!(s, "\n[queries]");
        for q in &self.queries {
            let _ = writeln!(
                s,
                "q={} text={:?} rate-requested={} area={} delivered={} rate-achieved={}",
                q.index,
                q.text,
                format_float(q.requested_rate),
                format_float(q.area),
                q.delivered,
                format_float(q.achieved_rate),
            );
            let i = &q.intensity;
            let _ = writeln!(
                s,
                "  intensity count={} mean={} min-cell={} max-cell={} cell-cv={}",
                i.count,
                format_float(i.mean_rate),
                format_float(i.min_cell_rate),
                format_float(i.max_cell_rate),
                format_float(i.cell_cv),
            );
        }
        let _ = writeln!(s, "\n[operators]");
        for o in &self.operators {
            let _ = writeln!(
                s,
                "{} in={} out={} batches={}",
                o.kind, o.tuples_in, o.tuples_out, o.batches
            );
        }
        if let Some(a) = &self.adaptive {
            let _ = writeln!(s, "\n[adaptive]");
            let _ = writeln!(
                s,
                "mode={} observations={} drift-events={} replans={} first-replan={} \
                 trace-checksum={:#018x}",
                if a.active { "active" } else { "observe" },
                a.summary.observations,
                a.summary.drift_events,
                a.summary.replans,
                a.summary.first_replan_epoch.map_or("-".to_string(), |e| e.to_string()),
                a.summary.trace_checksum,
            );
        }
        if let Some(tenants) = &self.tenants {
            let _ = writeln!(s, "\n[tenants]");
            for row in &tenants.rows {
                let _ = writeln!(
                    s,
                    "t={} name={} capacity={} admitted={} rejected={} committed={} charged={} \
                     peak-epoch={}",
                    row.tenant,
                    row.name,
                    format_float(row.capacity),
                    row.admitted,
                    row.rejected,
                    format_float(row.committed),
                    format_float(row.charged),
                    format_float(row.peak_epoch_charge),
                );
            }
            let _ = writeln!(s, "\n[admissions]");
            for a in &tenants.admissions {
                let _ = writeln!(
                    s,
                    "sub={} tenant={} demand={} committed={} capacity={} verdict={}",
                    a.submission,
                    a.tenant,
                    format_float(a.demand),
                    format_float(a.committed),
                    format_float(a.capacity),
                    if a.admitted { "admitted" } else { "rejected" },
                );
            }
        }
        if let Some(f) = &self.faults {
            let _ = writeln!(s, "\n[faults]");
            let _ = writeln!(
                s,
                "dropped={} delayed={} duplicated={} retries-requested={} retry-attempts={}",
                f.dropped, f.delayed, f.duplicated, f.retries_requested, f.retry_attempts,
            );
        }
        let t = &self.totals;
        let _ = writeln!(s, "\n[totals]");
        let _ = writeln!(
            s,
            "requested={} sent={} responses={} exhausted={} final-budget={} \
             dropped-unmaterialized={} chains={} minutes={} throttled={} stale-actions={}",
            t.requested,
            t.sent,
            t.responses,
            t.exhausted_events,
            format_float(t.final_budget),
            t.dropped_unmaterialized,
            t.chains,
            format_float(t.minutes),
            t.throttled,
            t.stale_actions,
        );
        if let Some(tm) = &self.telemetry {
            let _ = writeln!(s, "\n[telemetry]");
            let _ = write!(s, "{}", tm.events);
            let _ = writeln!(s, "events-checksum: {:#018x}", tm.events_checksum);
        }
        let _ = writeln!(s, "\nchecksum: {:#018x}", fnv1a64(s.as_bytes()));
        s
    }

    /// The report's content checksum (the value on the canonical text's
    /// final line).
    pub fn checksum(&self) -> u64 {
        let canon = self.canonical();
        // Everything before the blank line introducing the checksum line is
        // exactly what the checksum hashed.
        let body = canon.rsplit_once("\nchecksum:").expect("canonical ends in checksum").0;
        fnv1a64(body.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::{Rect, SpaceTimeWindow};

    fn report() -> ScenarioReport {
        let window = SpaceTimeWindow::new(Rect::with_size(4.0, 4.0), 0.0, 10.0);
        ScenarioReport {
            name: "unit".into(),
            seed: 7,
            epochs: vec![EpochRow {
                epoch: 0,
                requested: 10,
                sent: 9,
                responses: 8,
                rejected: 1,
                ingested: 7,
                routed: 6,
                dropped: 1,
                delivered: 5,
                tune_increased: 1,
                tune_decreased: 0,
                tune_exhausted: 0,
                throttled: 1,
                stale_actions: 0,
                faults: FaultDeltas::default(),
            }],
            queries: vec![QueryRow {
                index: 0,
                text: "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5".into(),
                requested_rate: 0.5,
                area: 4.0,
                delivered: 5,
                achieved_rate: 0.125,
                intensity: IntensitySummary::from_points(&[], &window, 4),
            }],
            operators: vec![OperatorRow {
                kind: "F".into(),
                tuples_in: 7,
                tuples_out: 6,
                batches: 1,
            }],
            totals: RunTotals {
                requested: 10,
                sent: 9,
                responses: 8,
                exhausted_events: 0,
                final_budget: 22.0,
                dropped_unmaterialized: 1,
                chains: 4,
                minutes: 5.0,
                throttled: 1,
                stale_actions: 0,
            },
            adaptive: None,
            tenants: None,
            faults: None,
            telemetry: None,
        }
    }

    #[test]
    fn canonical_is_stable_and_checksummed() {
        let r = report();
        let a = r.canonical();
        let b = r.canonical();
        assert_eq!(a, b);
        let line = a.lines().last().unwrap();
        assert!(line.starts_with("checksum: 0x"), "{line}");
        assert!(a.ends_with(&format!("checksum: {:#018x}\n", r.checksum())));
    }

    #[test]
    fn checksum_changes_with_content() {
        let a = report();
        let mut b = report();
        b.epochs[0].delivered += 1;
        assert_ne!(a.checksum(), b.checksum());
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors (the shared craqr_stats helper —
        // re-exported here because golden checksums are part of this
        // crate's contract).
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn tenant_section_renders_only_when_present() {
        let plain = report();
        assert!(!plain.canonical().contains("[tenants]"), "single-owner reports stay byte-stable");
        let mut tenanted = report();
        tenanted.tenants = Some(TenantSection {
            rows: vec![TenantRow {
                tenant: 0,
                name: "alice".into(),
                capacity: 40.0,
                admitted: 1,
                rejected: 1,
                committed: 10.0,
                charged: 55.0,
                peak_epoch_charge: 12.5,
            }],
            admissions: vec![AdmissionRow {
                submission: 1,
                tenant: 0,
                demand: 99.0,
                committed: 10.0,
                capacity: 40.0,
                admitted: false,
            }],
        });
        let canon = tenanted.canonical();
        assert!(canon.contains("[tenants]"), "{canon}");
        assert!(canon.contains("t=0 name=alice capacity=40"), "{canon}");
        assert!(canon.contains("[admissions]"), "{canon}");
        assert!(canon.contains("verdict=rejected"), "{canon}");
        assert_ne!(plain.checksum(), tenanted.checksum());
    }

    #[test]
    fn conservation_holds_on_every_bound_and_breaks_past_each() {
        let edge = TenantRow {
            tenant: 0,
            name: "alice".into(),
            capacity: 40.0,
            admitted: 1,
            rejected: 0,
            committed: 40.0,
            charged: 120.0,
            peak_epoch_charge: 40.0,
        };
        assert_eq!(edge.conservation_violation(3), None);
        let peak = TenantRow { peak_epoch_charge: 40.1, ..edge.clone() };
        let committed = TenantRow { committed: 40.1, ..edge.clone() };
        let charged = TenantRow { charged: 120.1, ..edge.clone() };
        assert_eq!(
            peak.conservation_violation(3).as_deref(),
            Some("tenant 'alice' charged 40.1 in one epoch against capacity 40.0")
        );
        assert_eq!(
            committed.conservation_violation(3).as_deref(),
            Some("tenant 'alice' committed 40.1 against capacity 40.0")
        );
        assert_eq!(
            charged.conservation_violation(3).as_deref(),
            Some("tenant 'alice' charged 120.1 over 3 epochs against capacity 40.0")
        );
    }

    #[test]
    fn fault_section_renders_only_when_present() {
        let plain = report();
        assert!(!plain.canonical().contains("[faults]"), "fault-free reports stay byte-stable");
        let mut faulty = report();
        faulty.faults = Some(FaultSection {
            dropped: 3,
            delayed: 2,
            duplicated: 1,
            retries_requested: 4,
            retry_attempts: 9,
        });
        let canon = faulty.canonical();
        assert!(canon.contains("[faults]"), "{canon}");
        assert!(
            canon.contains("dropped=3 delayed=2 duplicated=1 retries-requested=4 retry-attempts=9"),
            "{canon}"
        );
        assert_ne!(plain.checksum(), faulty.checksum());
    }

    #[test]
    fn totals_line_carries_throttled_and_stale_actions() {
        let canon = report().canonical();
        assert!(canon.contains("throttled=1 stale-actions=0"), "{canon}");
    }

    #[test]
    fn telemetry_section_renders_only_when_present() {
        let plain = report();
        assert!(!plain.canonical().contains("[telemetry]"));
        let events = "event craqr_requests_total{kind=\"sent\"} 9\n".to_string();
        let mut instrumented = report();
        instrumented.telemetry =
            Some(TelemetrySection { events_checksum: fnv1a64(events.as_bytes()), events });
        let canon = instrumented.canonical();
        assert!(canon.contains("[telemetry]"), "{canon}");
        assert!(canon.contains("event craqr_requests_total{kind=\"sent\"} 9"), "{canon}");
        assert!(canon.contains("events-checksum: 0x"), "{canon}");
        assert_ne!(plain.checksum(), instrumented.checksum());
    }

    #[test]
    fn adaptive_section_renders_only_when_present() {
        let plain = report();
        assert!(!plain.canonical().contains("[adaptive]"));
        let mut adaptive = report();
        adaptive.adaptive = Some(AdaptiveSection {
            active: true,
            summary: craqr_adaptive::TraceSummary {
                observations: 10,
                drift_events: 2,
                replans: 1,
                first_replan_epoch: Some(7),
                trace_checksum: 0xDEAD,
            },
        });
        let canon = adaptive.canonical();
        assert!(canon.contains("[adaptive]"), "{canon}");
        assert!(canon.contains("mode=active"), "{canon}");
        assert!(canon.contains("first-replan=7"), "{canon}");
        assert_ne!(plain.checksum(), adaptive.checksum());
    }
}
