//! The run-level metrics collector: one [`Registry`] fed from the epoch
//! loop's deterministic event stream, plus — when timing is switched on —
//! the clock-derived tier (phase latencies — the control hook's time is
//! the `control` phase — shard busy time, operator processing time).
//!
//! # The two tiers
//!
//! Every metric the collector records carries a
//! [`craqr_telemetry::Determinism`] tag:
//!
//! - **Event metrics** are computed from [`EpochReport`] fields, handler
//!   counters, and the adaptive trace — all of which are bit-identical
//!   for a fixed seed across hosts, [`craqr_core::ExecMode`]s, and
//!   live-vs-replayed runs (faults ride through
//!   [`craqr_core::ReplayInputs::faults`]; crowd-side counters are never
//!   used). Their canonical rendering joins the scenario report as the
//!   checksummed `[telemetry]` section.
//! - **Timing metrics** are read from thread-CPU clocks and are excluded
//!   from every checksummed surface ([`Registry::canonical_events`]
//!   skips them structurally), exactly like shard `busy_ns`. They exist
//!   for the Prometheus export only.
//!
//! Collection is byte-inert: a run with a collector produces the same
//! reports, traces, and run logs as a run without one, and a run with
//! timing on produces the same checksummed artifacts as one with timing
//! off (the golden-stability test in `tests/` pins this for every
//! committed golden).

use crate::report::TelemetrySection;
use craqr_core::tenant::AdmissionDecision;
use craqr_core::{EpochPhase, EpochReport, PhaseTimer, RequestResponseHandler};
use craqr_telemetry::{Determinism, Registry, PHASE_SECONDS_BOUNDS};

/// One scenario run's metrics registry plus its collection policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTelemetry {
    registry: Registry,
    timing: bool,
}

const E: Determinism = Determinism::Event;
const T: Determinism = Determinism::Timing;

impl RunTelemetry {
    /// A fresh collector. With `timing = false` only event metrics are
    /// recorded and no code path reads a clock.
    pub fn new(timing: bool) -> Self {
        Self { registry: Registry::new(), timing }
    }

    /// Whether this collector records the clock-derived tier.
    pub fn timing(&self) -> bool {
        self.timing
    }

    /// The underlying registry (for rendering and tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records the admission audit trail (called once, after
    /// `build_server` ran admission control).
    pub fn observe_admissions(&mut self, decisions: &[AdmissionDecision]) {
        for d in decisions {
            let verdict = if d.admitted { "admitted" } else { "rejected" };
            self.registry.inc(
                "craqr_admission_verdicts_total",
                "Admission-control verdicts by outcome.",
                E,
                &[("verdict", verdict)],
                1,
            );
        }
    }

    /// Folds one finished epoch's deterministic counters into the
    /// registry (and, when timing is on, the per-shard busy breakdown the
    /// executor already measured).
    pub fn observe_epoch(&mut self, r: &EpochReport) {
        let req = "craqr_requests_total";
        let req_help = "Acquisition requests by dispatch outcome.";
        self.registry.inc(req, req_help, E, &[("kind", "requested")], r.dispatch.requested);
        self.registry.inc(req, req_help, E, &[("kind", "sent")], r.dispatch.sent);
        self.registry.inc(req, req_help, E, &[("kind", "throttled")], r.dispatch.throttled);

        let resp = "craqr_responses_total";
        let resp_help = "Crowd responses by pipeline outcome.";
        self.registry.inc(resp, resp_help, E, &[("outcome", "drained")], r.responses as u64);
        self.registry.inc(
            resp,
            resp_help,
            E,
            &[("outcome", "rejected")],
            r.mitigation_rejected as u64,
        );

        let tup = "craqr_tuples_total";
        let tup_help = "Tuples by pipeline stage.";
        self.registry.inc(tup, tup_help, E, &[("stage", "ingested")], r.ingested as u64);
        self.registry.inc(tup, tup_help, E, &[("stage", "routed")], r.exec.routed as u64);
        self.registry.inc(tup, tup_help, E, &[("stage", "dropped")], r.exec.dropped as u64);
        let delivered: usize = r.delivered.iter().map(|(_, n)| n).sum();
        self.registry.inc(tup, tup_help, E, &[("stage", "delivered")], delivered as u64);

        let tune = "craqr_tuning_events_total";
        let tune_help = "Budget-tuning events by outcome.";
        for t in &r.tuning {
            let outcome = match t.outcome {
                craqr_core::budget::TuneOutcome::Increased => "increased",
                craqr_core::budget::TuneOutcome::Decreased => "decreased",
                craqr_core::budget::TuneOutcome::Exhausted => "exhausted",
            };
            self.registry.inc(tune, tune_help, E, &[("outcome", outcome)], 1);
        }

        self.registry.inc(
            "craqr_stale_actions_total",
            "Control actions dropped because their chain was retired.",
            E,
            &[],
            r.stale_actions,
        );

        let flt = "craqr_fault_responses_total";
        let flt_help = "Crowd responses perturbed by injected faults.";
        self.registry.inc(flt, flt_help, E, &[("kind", "dropped")], r.faults.dropped);
        self.registry.inc(flt, flt_help, E, &[("kind", "delayed")], r.faults.delayed);
        self.registry.inc(flt, flt_help, E, &[("kind", "duplicated")], r.faults.duplicated);

        for (tenant, charge) in &r.tenant_charges {
            self.registry.gauge_add(
                "craqr_tenant_charged_total",
                "Requests charged against each tenant's pool.",
                E,
                &[("tenant", &tenant.0.to_string())],
                *charge,
            );
        }

        if self.timing {
            // The executor measured per-shard thread-CPU time whether or
            // not anyone listens; fold it in without new clock reads.
            for shard in &r.exec.shards {
                self.registry.observe(
                    "craqr_shard_busy_seconds",
                    "Per-shard per-epoch processing time (thread CPU).",
                    T,
                    &[("shard", &shard.shard.to_string())],
                    PHASE_SECONDS_BOUNDS,
                    shard.busy_ns as f64 / 1e9,
                );
            }
            self.registry.gauge_add(
                "craqr_ingest_work_seconds_total",
                "Total processing work across shards (thread CPU).",
                T,
                &[],
                r.exec.work_ns() as f64 / 1e9,
            );
            self.registry.gauge_add(
                "craqr_ingest_critical_path_seconds_total",
                "Sum of per-epoch busiest-shard times (thread CPU).",
                T,
                &[],
                r.exec.critical_path_ns() as f64 / 1e9,
            );
        }
    }

    /// Folds in whole-run counters available only at the end: handler
    /// retry/exhaustion totals, adaptive drift/replan counts, and (when
    /// timing) the per-operator-kind processing time the engine clock
    /// accumulated and the `F` operators' fit outcomes.
    pub fn finalize(
        &mut self,
        handler: &RequestResponseHandler,
        chain_metrics: &craqr_core::OperatorMetrics,
        trace: Option<&craqr_adaptive::AdaptiveTrace>,
    ) {
        let rty = "craqr_retries_total";
        let rty_help = "Retry-path activity (shortfall feedback).";
        self.registry.inc(rty, rty_help, E, &[("kind", "requests")], handler.retries_requested());
        self.registry.inc(rty, rty_help, E, &[("kind", "attempts")], handler.retry_attempts());
        self.registry.inc(
            "craqr_budget_exhausted_total",
            "Budget-exhaustion events over the run.",
            E,
            &[],
            handler.exhausted_events(),
        );
        if let Some(trace) = trace {
            let s = trace.summary();
            let ad = "craqr_adaptive_events_total";
            let ad_help = "Adaptive-controller events by kind.";
            self.registry.inc(ad, ad_help, E, &[("kind", "observations")], s.observations as u64);
            self.registry.inc(ad, ad_help, E, &[("kind", "drift")], s.drift_events as u64);
            self.registry.inc(ad, ad_help, E, &[("kind", "replans")], s.replans as u64);
        }
        if self.timing {
            for (kind, m) in chain_metrics.by_kind() {
                self.registry.gauge_add(
                    "craqr_operator_busy_seconds_total",
                    "Per-operator-kind processing time (thread CPU).",
                    T,
                    &[("kind", kind)],
                    m.busy_ns as f64 / 1e9,
                );
            }
            // Deterministic, but kept out of the checksummed tier so that
            // no report moves with them.
            let fits = chain_metrics.fits();
            for (outcome, batches) in fits.by_outcome() {
                self.registry.inc(
                    "craqr_flatten_fits_total",
                    "F batches by how the batch MLE estimated them.",
                    T,
                    &[("outcome", outcome)],
                    batches,
                );
            }
            self.registry.inc(
                "craqr_flatten_fit_iterations_total",
                "Solver iterations of the batch MLE's fits.",
                T,
                &[],
                fits.iterations,
            );
            self.registry.inc(
                "craqr_flatten_fit_boundary_total",
                "Batch MLE fits that ended with a window corner at the positivity floor.",
                T,
                &[],
                fits.on_boundary,
            );
            self.registry.inc(
                "craqr_flatten_fit_points_total",
                "Tuples the batch MLE's fits were fitted to.",
                T,
                &[],
                fits.points,
            );
        }
    }

    /// Merges another collector's registry into this one (used by the
    /// chaos CLI to aggregate per-scenario registries; commutative).
    pub fn absorb(&mut self, other: &RunTelemetry) {
        self.registry.absorb(other.registry());
    }

    /// The checksummable report section: event metrics only.
    pub fn section(&self) -> TelemetrySection {
        TelemetrySection {
            events: self.registry.canonical_events(),
            events_checksum: self.registry.events_checksum(),
        }
    }

    /// The full Prometheus exposition (both tiers).
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

impl PhaseTimer for RunTelemetry {
    fn observe(&mut self, phase: EpochPhase, nanos: u64) {
        debug_assert!(self.timing, "a PhaseTimer is only installed on timing collectors");
        self.registry.observe(
            "craqr_phase_seconds",
            "Per-epoch phase latency (thread CPU).",
            T,
            &[("phase", phase.name())],
            PHASE_SECONDS_BOUNDS,
            nanos as f64 / 1e9,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_ignores_timing_tier_entirely() {
        let mut event_only = RunTelemetry::new(false);
        let mut timed = RunTelemetry::new(true);
        let r = EpochReport {
            epoch: 0,
            now: 1.0,
            dispatch: craqr_core::handler::DispatchStats { requested: 10, sent: 8, throttled: 2 },
            responses: 7,
            mitigation_rejected: 1,
            ingested: 6,
            exec: craqr_core::IngestReport {
                routed: 6,
                dropped: 0,
                shards: vec![craqr_core::ShardIngest {
                    shard: 0,
                    chains: 2,
                    tuples: 6,
                    busy_ns: 12345,
                }],
            },
            delivered: vec![],
            tuning: vec![],
            tenant_charges: vec![],
            stale_actions: 1,
            faults: craqr_core::FaultDeltas { dropped: 1, delayed: 0, duplicated: 0 },
        };
        event_only.observe_epoch(&r);
        timed.observe_epoch(&r);
        PhaseTimer::observe(&mut timed, EpochPhase::Ingest, 5_000);

        // Identical checksummable sections: the timing tier never leaks.
        assert_eq!(event_only.section(), timed.section());
        assert_eq!(
            event_only.registry().counter_value("craqr_requests_total", &[("kind", "sent")]),
            8
        );
        // The timing tier exists in the Prometheus render only.
        assert!(timed.render_prometheus().contains("craqr_phase_seconds_bucket"));
        assert!(!timed.section().events.contains("craqr_phase_seconds"));
    }

    #[test]
    fn absorb_aggregates_collectors() {
        let mut a = RunTelemetry::new(false);
        let mut b = RunTelemetry::new(false);
        a.registry.inc("craqr_requests_total", "h", E, &[("kind", "sent")], 3);
        b.registry.inc("craqr_requests_total", "h", E, &[("kind", "sent")], 4);
        a.absorb(&b);
        assert_eq!(a.registry().counter_value("craqr_requests_total", &[("kind", "sent")]), 7);
    }
}
