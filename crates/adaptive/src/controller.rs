//! The adaptive acquisition controller — a [`ControlHook`] closing the
//! sense → estimate → re-plan loop over the epoch executor.

use crate::allocator::{water_fill, water_fill_tenants};
use crate::config::{AdaptiveConfig, DetectorKind};
use crate::trace::{AdaptiveTrace, ObservationRow, ReplanRecord, TenantPoolRow};
use craqr_core::{ControlAction, ControlHook, EpochObservation, QueryId, TenantId};
use craqr_geom::{CellId, Rect, SpaceTimePoint, SpaceTimeWindow};
use craqr_mdpp::{IntensityModel, IntensitySummary, SgdEstimator};
use craqr_sensing::AttributeId;
use craqr_stats::{Cusum, DriftDirection, PageHinkley};
use std::collections::{BTreeMap, BTreeSet};

/// Either sequential detector behind one interface.
#[derive(Debug, Clone)]
enum Detector {
    PageHinkley(PageHinkley),
    Cusum(Cusum),
}

impl Detector {
    fn observe(&mut self, x: f64) -> Option<DriftDirection> {
        match self {
            Detector::PageHinkley(d) => d.observe(x),
            Detector::Cusum(d) => d.observe(x),
        }
    }

    /// Evidence after the most recent observation, pre-restart — the
    /// value the trace records (a firing row shows the level that crossed
    /// the threshold, not the post-reset 0).
    fn last_evidence(&self) -> f64 {
        match self {
            Detector::PageHinkley(d) => d.last_evidence(),
            Detector::Cusum(d) => d.last_evidence(),
        }
    }

    fn reset(&mut self) {
        match self {
            Detector::PageHinkley(d) => d.reset(),
            Detector::Cusum(d) => d.reset(),
        }
    }
}

/// Per-standing-query controller state.
struct QueryTrack {
    qid: QueryId,
    attr: AttributeId,
    /// The owning tenant whose pool bounds this query's replan share.
    tenant: TenantId,
    requested_rate: f64,
    /// Footprint area (km²).
    area: f64,
    /// Footprint bounding box — the estimator's spatial window.
    bbox: Rect,
    /// `(cell, overlap area)` for every cell the query taps.
    cells: Vec<(CellId, f64)>,
    estimator: SgdEstimator,
    detector: Detector,
}

/// The closed-loop controller: per-query online SGD estimation over each
/// epoch's delivered tuples, drift detection on the innovation stream, and
/// water-filled budget replanning on confirmed shifts. Everything it does
/// is recorded in an [`AdaptiveTrace`].
///
/// Plug it into the loop with
/// [`EpochDriver::hook`](craqr_core::EpochDriver::hook);
/// it learns the standing queries from its first observation.
pub struct AdaptiveController {
    config: AdaptiveConfig,
    tracks: Vec<QueryTrack>,
    batch_minutes: f64,
    summary_side: u32,
    epochs_observed: u64,
    total_sent: u64,
    total_responses: u64,
    last_replan: Option<u64>,
    trace: AdaptiveTrace,
}

impl AdaptiveController {
    /// Creates a controller with the given policy.
    ///
    /// # Panics
    /// Panics on an invalid config (see [`AdaptiveConfig::validate`]).
    #[track_caller]
    pub fn new(config: AdaptiveConfig) -> Self {
        if let Err((field, message)) = config.validate() {
            panic!("invalid adaptive config: {field}: {message}");
        }
        Self {
            trace: AdaptiveTrace {
                enabled: config.enabled,
                detector: config.detector,
                warmup_epochs: config.warmup_epochs,
                cooldown_epochs: config.cooldown_epochs,
                observations: Vec::new(),
                replans: Vec::new(),
            },
            config,
            tracks: Vec::new(),
            batch_minutes: 0.0,
            summary_side: 1,
            epochs_observed: 0,
            total_sent: 0,
            total_responses: 0,
            last_replan: None,
        }
    }

    /// The decision log so far.
    pub fn trace(&self) -> &AdaptiveTrace {
        &self.trace
    }

    /// Consumes the controller, yielding its decision log.
    pub fn into_trace(self) -> AdaptiveTrace {
        self.trace
    }

    /// Lazily learns the standing queries from the first observation (the
    /// query set is fixed for the lifetime of a scenario run).
    fn ensure_tracks(&mut self, obs: &EpochObservation) {
        if !self.tracks.is_empty() {
            return;
        }
        self.batch_minutes = obs.plan.batch_duration;
        self.summary_side = obs.plan.grid.side();
        for plan in &obs.plan.queries {
            let reference = SpaceTimeWindow::new(plan.bbox, 0.0, self.batch_minutes);
            let detector = match self.config.detector.kind {
                DetectorKind::PageHinkley => Detector::PageHinkley(PageHinkley::new(
                    self.config.detector.slack,
                    self.config.detector.threshold,
                )),
                DetectorKind::Cusum => Detector::Cusum(Cusum::new(
                    self.config.detector.slack,
                    self.config.detector.threshold,
                )),
            };
            self.tracks.push(QueryTrack {
                qid: plan.qid,
                attr: plan.attr,
                tenant: plan.tenant,
                requested_rate: plan.rate,
                area: plan.area,
                bbox: plan.bbox,
                cells: plan.cells.clone(),
                estimator: SgdEstimator::new(&reference, self.config.estimator),
                detector,
            });
        }
    }

    /// Observed response yield (responses per request) so far; the demand
    /// estimator's conversion factor from tuples to requests.
    fn response_yield(&self) -> f64 {
        if self.total_sent == 0 {
            1.0
        } else {
            (self.total_responses as f64 / self.total_sent as f64).max(1e-3)
        }
    }

    /// Builds the replan for `triggers` and the actions realizing it.
    fn plan_replan(
        &mut self,
        epoch: u64,
        triggers: Vec<(u64, DriftDirection)>,
        obs: &EpochObservation,
    ) -> (ReplanRecord, Vec<ControlAction>) {
        let yield_ = self.response_yield();
        // Demand per query: requests/epoch needed to fabricate the
        // requested volume given the observed crowd yield, scaled up by
        // the query's *estimated deficit* — the ratio of its requested
        // rate to the SGD-estimated delivered intensity. This is the
        // paper's premise made operational: the plan follows the
        // estimated intensity, so starved queries bid for more of the
        // pool than satisfied ones (capped at 5× to keep one dead query
        // from draining everyone).
        let reference_volume = |t: &QueryTrack| t.bbox.area() * self.batch_minutes;
        let demands: Vec<f64> = self
            .tracks
            .iter()
            .map(|t| {
                let reference = SpaceTimeWindow::new(t.bbox, 0.0, self.batch_minutes);
                let volume = reference_volume(t);
                let est_rate = if volume > 0.0 {
                    t.estimator.estimate().integral(&reference) / volume
                } else {
                    t.requested_rate
                };
                let deficit =
                    (t.requested_rate / est_rate.max(1e-6 * t.requested_rate)).clamp(1.0, 5.0);
                t.requested_rate * t.area * self.batch_minutes / yield_
                    * self.config.demand_headroom
                    * deficit
            })
            .collect();
        // Multi-tenant servers replan inside tenant pool boundaries:
        // every query is first filled from its own tenant's pool, and
        // only unused capacity crosses tenants ([`water_fill_tenants`]).
        // Single-owner servers keep the flat shared-pool fill.
        let tenant_summaries: &[craqr_core::TenantSummary] =
            obs.tenants.as_deref().filter(|s| !s.is_empty()).unwrap_or(&[]);
        let (pool, allocations, tenant_pools) = if tenant_summaries.is_empty() {
            let pool = self.config.budget_pool.unwrap_or_else(|| {
                obs.plan
                    .demands
                    .iter()
                    .filter_map(|(cell, attr, _)| obs.budgets.of(*cell, *attr))
                    .sum()
            });
            (pool, water_fill(&demands, pool), Vec::new())
        } else {
            // Tenant ids are dense from 0 in registration order, so the
            // id doubles as the pool index.
            let pools: Vec<f64> = tenant_summaries.iter().map(|s| s.capacity).collect();
            let owners: Vec<usize> = self.tracks.iter().map(|t| t.tenant.0 as usize).collect();
            let allocations = water_fill_tenants(&demands, &owners, &pools);
            let tenant_pools = tenant_summaries
                .iter()
                .map(|s| {
                    let (demand, alloc) = self
                        .tracks
                        .iter()
                        .zip(demands.iter().zip(&allocations))
                        .filter(|(t, _)| t.tenant == s.tenant)
                        .fold((0.0, 0.0), |(d, a), (_, (dd, aa))| (d + dd, a + aa));
                    TenantPoolRow { tenant: s.tenant.0, pool: s.capacity, demand, alloc }
                })
                .collect();
            (pools.iter().sum(), allocations, tenant_pools)
        };

        // Fold per-query allocations onto their chains, proportional to the
        // per-cell overlap area (two queries sharing a chain both
        // contribute).
        let mut chain_budget: BTreeMap<(CellId, AttributeId), f64> = BTreeMap::new();
        for (t, alloc) in self.tracks.iter().zip(&allocations) {
            for (cell, share) in &t.cells {
                *chain_budget.entry((*cell, t.attr)).or_insert(0.0) += alloc * share / t.area;
            }
        }
        // Floor at the tuner's minimum so every chain stays minimally
        // probed, but deliberately do NOT clamp to its cap: a replan is
        // the automated form of Section V's "pay more to obtain the
        // required rate" escape hatch. (Subsequent `N_v` tuner steps pull
        // budgets back toward the cap on their own.)
        let tuner = &obs.budgets.tuner;
        let budgets: Vec<(CellId, AttributeId, f64)> = chain_budget
            .into_iter()
            .map(|((cell, attr), b)| (cell, attr, b.max(tuner.min_budget)))
            .collect();

        // Rebuild exactly the fired queries' chains: their statistics
        // describe the pre-shift world.
        let rebuilds: BTreeSet<(CellId, AttributeId)> = if self.config.rebuild_chains {
            self.tracks
                .iter()
                .filter(|t| triggers.iter().any(|(q, _)| *q == t.qid.0))
                .flat_map(|t| t.cells.iter().map(|(c, _)| (*c, t.attr)))
                .collect()
        } else {
            BTreeSet::new()
        };

        let mut actions: Vec<ControlAction> = budgets
            .iter()
            .map(|(cell, attr, b)| ControlAction::SetBudget {
                cell: *cell,
                attr: *attr,
                requests_per_epoch: *b,
            })
            .collect();
        actions.extend(
            rebuilds
                .iter()
                .map(|(cell, attr)| ControlAction::RebuildChain { cell: *cell, attr: *attr }),
        );

        let record = ReplanRecord {
            epoch,
            triggers,
            pool,
            allocations: self
                .tracks
                .iter()
                .zip(demands.iter().zip(&allocations))
                .map(|(t, (d, a))| (t.qid.0, *d, *a))
                .collect(),
            tenant_pools,
            budgets,
            rebuilds: rebuilds.len(),
        };
        (record, actions)
    }
}

impl ControlHook for AdaptiveController {
    fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
        self.ensure_tracks(obs);
        let epoch = obs.report.epoch;
        self.total_sent += obs.report.dispatch.sent;
        self.total_responses += obs.report.responses as u64;

        // Warmup counts epochs *this controller* has observed, not the
        // server's absolute epoch counter — a controller attached to an
        // already-running server still gets its full calibration window
        // before the detectors consume the SGD estimator's early (and
        // large) calibration residuals.
        let warmed_up = self.epochs_observed >= self.config.warmup_epochs as u64;
        self.epochs_observed += 1;
        let mut triggers: Vec<(u64, DriftDirection)> = Vec::new();
        for track in &mut self.tracks {
            let empty = Vec::new();
            let delivered = obs
                .delivered
                .iter()
                .find(|(qid, _)| *qid == track.qid)
                .map_or(&empty, |(_, tuples)| tuples);
            // Time-marginalize the batch onto the reference window's
            // midpoint: per-epoch planning has no intra-epoch temporal
            // signal, and real response latencies cluster tuples near the
            // epoch start — an affine fit on raw times would rail its
            // temporal slope against the positivity corner and bias the
            // window integral (the innovation's expectation) low. The
            // spatial coordinates keep the full gradient signal.
            let span = obs.epoch_end - obs.epoch_start;
            let t_mid = span * 0.5;
            let points: Vec<SpaceTimePoint> = delivered
                .iter()
                .map(|t| SpaceTimePoint::new(t_mid, t.point.x, t.point.y))
                .collect();
            let window = SpaceTimeWindow::new(track.bbox, 0.0, span.max(f64::MIN_POSITIVE));
            let innovation = track.estimator.observe_batch(&points, &window);
            let empirical = IntensitySummary::from_points(&points, &window, self.summary_side);

            let drift =
                if warmed_up { track.detector.observe(innovation.standardized) } else { None };
            if let Some(direction) = drift {
                triggers.push((track.qid.0, direction));
            }
            self.trace.observations.push(ObservationRow {
                epoch,
                query: track.qid.0,
                delivered: points.len(),
                empirical_rate: empirical.mean_rate,
                innovation: innovation.standardized,
                score: track.detector.last_evidence(),
                drift,
            });
        }

        if triggers.is_empty() || !self.config.enabled {
            return Vec::new();
        }
        if let Some(last) = self.last_replan {
            if epoch < last + self.config.cooldown_epochs as u64 {
                return Vec::new();
            }
        }
        let (record, actions) = self.plan_replan(epoch, triggers, obs);
        self.trace.replans.push(record);
        self.last_replan = Some(epoch);
        // A replan starts a new regime: stale evidence must not re-fire.
        for track in &mut self.tracks {
            track.detector.reset();
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_core::{CraqrServer, ServerConfig};
    use craqr_geom::Rect as GRect;
    use craqr_sensing::{
        fields::ConstantField, AttrValue, Crowd, CrowdConfig, Mobility, Placement, PopulationConfig,
    };

    fn server(seed: u64) -> CraqrServer {
        let region = GRect::with_size(4.0, 4.0);
        let crowd = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size: 500,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.1 },
                human_fraction: 0.0,
            },
            seed,
        });
        let mut s = CraqrServer::new(crowd, ServerConfig::default());
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(20.0))));
        s
    }

    #[test]
    fn stationary_world_never_replans() {
        let mut s = server(3);
        s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5").unwrap();
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default());
        for _ in 0..20 {
            s.driver().hook(&mut ctl).step();
        }
        let trace = ctl.trace();
        assert_eq!(trace.observations.len(), 20);
        assert_eq!(trace.replans.len(), 0, "{}", trace.canonical());
        assert_eq!(trace.drift_events(), 0, "{}", trace.canonical());
    }

    #[test]
    fn participation_collapse_triggers_a_replan() {
        let mut s = server(5);
        s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.5").unwrap();
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default());
        for _ in 0..10 {
            s.driver().hook(&mut ctl).step();
        }
        // Regime shift: the crowd stops answering almost entirely.
        s.crowd_mut().scale_participation(0.05);
        for _ in 0..10 {
            s.driver().hook(&mut ctl).step();
        }
        let trace = ctl.trace();
        assert!(trace.drift_events() >= 1, "{}", trace.canonical());
        assert!(!trace.replans.is_empty(), "{}", trace.canonical());
        let first = &trace.replans[0];
        assert!(
            (10..16).contains(&first.epoch),
            "replan at epoch {} not within 6 of the shift\n{}",
            first.epoch,
            trace.canonical()
        );
        assert!(first.triggers.iter().all(|(_, d)| *d == DriftDirection::Down));
        assert!(first.rebuilds > 0);
        assert!(first.pool > 0.0);
    }

    #[test]
    fn observe_mode_detects_but_never_acts() {
        let run = |enabled: bool| {
            let mut s = server(5);
            let qid = s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.5").unwrap();
            let mut ctl =
                AdaptiveController::new(AdaptiveConfig { enabled, ..AdaptiveConfig::default() });
            for e in 0..20 {
                if e == 10 {
                    s.crowd_mut().scale_participation(0.05);
                }
                s.driver().hook(&mut ctl).step();
            }
            (ctl.into_trace(), s.take_output(qid).len())
        };
        let (active, _) = run(true);
        let (observe, observe_delivered) = run(false);
        assert!(observe.drift_events() >= 1, "observe mode still detects");
        assert_eq!(observe.replans.len(), 0, "observe mode never replans");
        assert!(!active.replans.is_empty());

        // And a hook-free run delivers exactly what observe mode did: the
        // observer provably does not perturb the loop.
        let mut s = server(5);
        let qid = s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.5").unwrap();
        for e in 0..20 {
            if e == 10 {
                s.crowd_mut().scale_participation(0.05);
            }
            s.run_epoch();
        }
        assert_eq!(s.take_output(qid).len(), observe_delivered);
    }

    #[test]
    fn controller_is_deterministic() {
        let run = || {
            let mut s = server(7);
            s.submit("ACQUIRE temp FROM RECT(0,0,2,2) RATE 1").unwrap();
            s.submit("ACQUIRE temp FROM RECT(2,2,4,4) RATE 0.5").unwrap();
            let mut ctl = AdaptiveController::new(AdaptiveConfig::default());
            for e in 0..16 {
                if e == 8 {
                    s.crowd_mut().scale_participation(0.1);
                }
                s.driver().hook(&mut ctl).step();
            }
            ctl.into_trace().canonical()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mid_run_attachment_still_gets_a_full_warmup() {
        // 5 hook-free epochs, then attach a fresh controller: its first
        // observations carry the estimator's big calibration residuals,
        // and warmup must still swallow them (no drift, no replan) in a
        // stationary world.
        let mut s = server(13);
        s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.5").unwrap();
        for _ in 0..5 {
            s.run_epoch();
        }
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default());
        for _ in 0..15 {
            s.driver().hook(&mut ctl).step();
        }
        let trace = ctl.trace();
        assert_eq!(trace.replans.len(), 0, "{}", trace.canonical());
        assert_eq!(trace.drift_events(), 0, "{}", trace.canonical());
    }

    #[test]
    fn firing_rows_record_the_crossing_evidence() {
        let mut s = server(5);
        s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.5").unwrap();
        let mut ctl = AdaptiveController::new(AdaptiveConfig::default());
        for e in 0..16 {
            if e == 8 {
                s.crowd_mut().scale_participation(0.05);
            }
            s.driver().hook(&mut ctl).step();
        }
        let trace = ctl.trace();
        let firing: Vec<_> = trace.observations.iter().filter(|o| o.drift.is_some()).collect();
        assert!(!firing.is_empty(), "{}", trace.canonical());
        for row in firing {
            assert!(
                row.score > ctl.config.detector.threshold,
                "firing row must show the evidence that crossed, got {}\n{}",
                row.score,
                trace.canonical()
            );
        }
    }

    #[test]
    fn cooldown_rate_limits_replans() {
        let mut s = server(9);
        s.submit("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.5").unwrap();
        let mut ctl = AdaptiveController::new(AdaptiveConfig {
            cooldown_epochs: 100,
            ..AdaptiveConfig::default()
        });
        for e in 0..30 {
            // Whiplash world: collapse, recover, collapse.
            if e == 8 {
                s.crowd_mut().scale_participation(0.05);
            }
            if e == 16 {
                s.crowd_mut().scale_participation(20.0);
            }
            s.driver().hook(&mut ctl).step();
        }
        let trace = ctl.trace();
        assert!(trace.replans.len() <= 1, "cooldown violated:\n{}", trace.canonical());
    }
}
