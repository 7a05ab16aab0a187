//! The request/response handler — Section IV-A.
//!
//! The handler keeps policy and totals only. What it keeps per (cell,
//! attribute) chain — budget `β⟨j⟩(q,r)`, incentive, retry state — is one
//! record in that chain's entry of the fabricator's chain table, so what
//! exists for a chain is stated once: the record is created at the
//! chain's first dispatch or tuning round, survives a rebuild, and is
//! dropped with the chain. The per-epoch rounds (dispatch, retry
//! feedback, tuning) each take the entries in one ascending walk.

use crate::budget::{Budget, BudgetTuner, TuneOutcome};
use crate::incentive::{IncentivePolicy, IncentiveState};
use crate::plan::Fabricator;
use crate::tenant::{TenantId, TenantRegistry};
use craqr_geom::CellId;
use craqr_sensing::{AttributeId, Crowd, SensorResponse};
use craqr_stats::Interval;

/// Clamps one chain's drawn request count to what its owning tenants'
/// pools can still cover this epoch, charging the dispatched amount to
/// them by share. Runs whether or not orders are collected — the
/// registry's epoch meters are handler-side state a replay must reproduce
/// bit-for-bit. No registry (the single-owner world) passes `wanted`
/// through untouched.
fn clamp_and_charge(
    tenants: Option<&mut TenantRegistry>,
    owners: &[(TenantId, f64)],
    wanted: usize,
) -> usize {
    match tenants {
        Some(registry) => {
            let allowed = registry.allow(owners, wanted);
            registry.charge(owners, allowed);
            allowed
        }
        None => wanted,
    }
}

/// Executes issued [`SendOrder`]s on the crowd, returning how many
/// requests were actually sent. The crowd calls happen in order-issue
/// order (ascending by chain), so the crowd's RNG stream is the same on
/// every executor.
pub fn execute_orders(crowd: &mut Crowd, orders: &[SendOrder]) -> u64 {
    let mut sent = 0u64;
    for o in orders {
        sent += crowd.dispatch_requests(o.attr, &o.rect, o.allowed, o.incentive) as u64;
    }
    sent
}

/// Bounded retry/backoff for response shortfalls — the graceful-
/// degradation half of the fault-injection story (crowds that drop or
/// delay responses; see `craqr_sensing::CrowdFaults`).
///
/// After each epoch the server reports how many responses each chain's
/// dispatch actually yielded ([`RequestResponseHandler::observe_responses`]).
/// A chain that got fewer than `shortfall_threshold × allowed` schedules
/// `shortfall × backoff^attempts` extra requests for its *next* dispatch,
/// up to `max_attempts` consecutive times; a healthy epoch resets the
/// counter. The extra requests ride through the normal dispatch path —
/// budget-drawn, tenant-clamped, recorded in the log's `requested`
/// figure — so retries are deterministic and replay-identical across
/// execution modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// A chain is short when `responses < shortfall_threshold × allowed`
    /// (in `[0, 1]`).
    pub shortfall_threshold: f64,
    /// Geometric damping per consecutive attempt (in `(0, 1]`): attempt
    /// `k` re-asks `floor(shortfall × backoff^k)` requests.
    pub backoff: f64,
    /// Consecutive shortfall epochs a chain may retry before giving up
    /// until it recovers (≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { shortfall_threshold: 0.5, backoff: 0.5, max_attempts: 2 }
    }
}

impl RetryPolicy {
    /// Range of [`RetryPolicy::shortfall_threshold`].
    pub const SHORTFALL_THRESHOLD: Interval = Interval::Unit;
    /// Range of [`RetryPolicy::backoff`].
    pub const BACKOFF: Interval = Interval::UnitPositive;

    /// Checks the policy's knobs, returning the first violated constraint
    /// as `(field, requirement)` (spec-facing field names).
    pub fn validate(&self) -> Result<(), (&'static str, String)> {
        Self::SHORTFALL_THRESHOLD.check("faults.retry.threshold", self.shortfall_threshold)?;
        Self::BACKOFF.check("faults.retry.backoff", self.backoff)?;
        if self.max_attempts == 0 {
            return Err(("faults.retry.max_attempts", "must be >= 1".into()));
        }
        Ok(())
    }
}

/// Per-chain retry bookkeeping: consecutive shortfall attempts and the
/// extra requests queued for the next dispatch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct RetryState {
    attempts: u32,
    pending: u64,
}

/// Everything the handler keeps for one (cell, attribute) chain, held in
/// the chain's fabricator entry. A chain whose last consumer is deleted
/// drops its record, so one that returns starts from scratch.
#[derive(Debug)]
pub(crate) struct ChainCtl {
    /// The chain's acquisition budget `β⟨j⟩(q,r)`.
    pub(crate) budget: Budget,
    incentive: IncentiveState,
    retry: RetryState,
    /// `allowed` at the most recent dispatch — what
    /// [`RequestResponseHandler::observe_responses`] measures shortfalls
    /// against; `None` when the chain asked for nothing (or no retry
    /// policy is installed). Keyed on `allowed` (not `sent`): a detached
    /// replay has no per-chain `sent`, and `allowed` is computed
    /// identically live and replayed.
    last_allowed: Option<u64>,
}

impl ChainCtl {
    fn new(initial_budget: f64) -> Self {
        Self {
            budget: Budget::new(initial_budget),
            incentive: IncentiveState::default(),
            retry: RetryState::default(),
            last_allowed: None,
        }
    }
}

/// One crowd-side send the handler decided on: dispatch `allowed`
/// acquisition requests for `(cell, attr)` into `rect` at `incentive`.
///
/// Issuing orders (budget draws, retry top-ups, tenant clamping/charging
/// — all handler/registry mutations) is separated from *executing* them
/// on the crowd so the pipelined executor can run the two halves on
/// different stage workers: the ingest stage issues epoch `t+1`'s orders
/// while the drain stage is still draining epoch `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct SendOrder {
    /// Which cell.
    pub cell: CellId,
    /// Which attribute.
    pub attr: AttributeId,
    /// The cell's rectangle (the dispatch target region).
    pub rect: craqr_geom::Rect,
    /// Requests to send after budget draw and tenant clamping.
    pub allowed: usize,
    /// Incentive offered per request.
    pub incentive: f64,
}

/// Per-epoch dispatch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Requests the handler attempted to send.
    pub requested: u64,
    /// Requests actually sent (cells can be empty of sensors).
    pub sent: u64,
    /// Requests withheld because an owning tenant's budget pool was
    /// exhausted this epoch (always 0 in single-owner servers).
    pub throttled: u64,
}

/// One budget-tuning event, for observability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneEvent {
    /// Which cell.
    pub cell: CellId,
    /// Which attribute.
    pub attr: AttributeId,
    /// The smoothed `N_v` that drove the decision (percent).
    pub nv: f64,
    /// The decision.
    pub outcome: TuneOutcome,
    /// The budget after tuning (requests/epoch).
    pub budget_after: f64,
}

/// The request/response handler: draws the per-(attribute, cell) budgets
/// `β⟨j⟩(q,r)` kept in the fabricator's chain entries, sends acquisition
/// requests to randomly selected sensors through the [`Crowd`], and
/// adapts the budgets from the flatten operators' `N_v` telemetry. When a
/// budget saturates it escalates the incentive instead (Section VI).
pub struct RequestResponseHandler {
    tuner: BudgetTuner,
    incentive_policy: IncentivePolicy,
    initial_budget: f64,
    total_requested: u64,
    total_sent: u64,
    exhausted_events: u64,
    retry_policy: Option<RetryPolicy>,
    retries_requested: u64,
    retry_attempts: u64,
}

impl RequestResponseHandler {
    /// Creates a handler; new (attribute, cell) pairs start at
    /// `initial_budget` requests per epoch.
    ///
    /// # Panics
    /// Panics when `initial_budget` is outside [`Budget::REQUESTS_PER_EPOCH`].
    #[track_caller]
    pub fn new(tuner: BudgetTuner, incentive_policy: IncentivePolicy, initial_budget: f64) -> Self {
        Budget::REQUESTS_PER_EPOCH.assert("initial budget", initial_budget);
        Self {
            tuner,
            incentive_policy,
            initial_budget,
            total_requested: 0,
            total_sent: 0,
            exhausted_events: 0,
            retry_policy: None,
            retries_requested: 0,
            retry_attempts: 0,
        }
    }

    /// Installs (or clears) the bounded retry/backoff policy. With no
    /// policy the handler is bit-identical to a retry-free build.
    ///
    /// # Panics
    /// Panics on an invalid policy (see [`RetryPolicy::validate`]).
    #[track_caller]
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        if let Some(p) = &policy {
            if let Err((field, message)) = p.validate() {
                panic!("invalid retry policy: {field}: {message}");
            }
        }
        self.retry_policy = policy;
    }

    /// Extra requests dispatched by retry attempts since creation.
    pub fn retries_requested(&self) -> u64 {
        self.retries_requested
    }

    /// Shortfall events that scheduled a retry since creation (each one
    /// queues backoff-damped extra requests for the next dispatch). A
    /// deterministic function of the response stream, so the count is
    /// identical live and replayed.
    pub fn retry_attempts(&self) -> u64 {
        self.retry_attempts
    }

    /// Feeds back how many of `responses` (drained, pre-error-injection)
    /// each chain's most recent dispatch yielded. Chains short of
    /// `threshold × allowed` schedule damped extra requests for the next
    /// dispatch; healthy chains reset their attempt counter; chains that
    /// asked for nothing at that dispatch are left alone. No-op, and no
    /// counting, without a policy.
    pub fn observe_responses(&mut self, fabricator: &mut Fabricator, responses: &[SensorResponse]) {
        let Some(policy) = self.retry_policy else { return };
        for (entry, got) in fabricator.responses_per_chain(responses) {
            let Some(ctl) = &mut entry.ctl else { continue };
            let Some(allowed) = ctl.last_allowed else { continue };
            let state = &mut ctl.retry;
            let short = allowed > 0 && (got as f64) < policy.shortfall_threshold * (allowed as f64);
            if short && state.attempts < policy.max_attempts {
                // `got` can exceed `allowed` when delayed or duplicated
                // responses from earlier epochs land here, hence saturating.
                let shortfall = allowed.saturating_sub(got);
                state.pending = ((shortfall as f64) * policy.backoff.powi(state.attempts as i32))
                    .floor() as u64;
                state.attempts += 1;
                self.retry_attempts += 1;
            } else {
                *state = RetryState::default();
            }
        }
    }

    /// The issuing half of a dispatch: draws every chain's budget (plus
    /// pending retry top-ups), ascending by `(cell, attribute)`, and clamps
    /// and charges against the owning tenants' pools — every handler- and
    /// registry-side mutation of a dispatch — but touches no crowd. A
    /// chain without a record gets one here. The crowd-side sends come
    /// back as [`SendOrder`]s for [`execute_orders`]; `detached` (the
    /// detached-replay path) skips order collection entirely while the
    /// handler state still evolves identically.
    ///
    /// `stats.sent` is left at 0; fold the execution outcome back with
    /// [`RequestResponseHandler::record_sent`].
    pub fn issue_epoch_orders(
        &mut self,
        fabricator: &mut Fabricator,
        detached: bool,
        mut tenants: Option<&mut TenantRegistry>,
    ) -> (Vec<SendOrder>, DispatchStats) {
        let mut orders = Vec::new();
        let mut stats = DispatchStats::default();
        for ((cell, attr), entry) in fabricator.entries_mut() {
            let ctl = entry.ctl.get_or_insert_with(|| ChainCtl::new(self.initial_budget));
            ctl.last_allowed = None;
            let n = ctl.budget.draw_requests();
            let extra = std::mem::take(&mut ctl.retry.pending) as usize;
            let want = n + extra;
            if want == 0 {
                continue;
            }
            let allowed = clamp_and_charge(tenants.as_deref_mut(), &entry.shares, want);
            stats.requested += want as u64;
            stats.throttled += (want - allowed) as u64;
            self.retries_requested += extra as u64;
            if self.retry_policy.is_some() {
                ctl.last_allowed = Some(allowed as u64);
            }
            if allowed == 0 || detached {
                continue;
            }
            orders.push(SendOrder {
                cell,
                attr,
                rect: entry.ops.cell_rect(),
                allowed,
                incentive: ctl.incentive.current(&self.incentive_policy),
            });
        }
        self.total_requested += stats.requested;
        (orders, stats)
    }

    /// Folds an executed epoch's crowd-side outcome (from
    /// [`execute_orders`], or from the run log on a detached replay) into
    /// the running totals.
    pub fn record_sent(&mut self, sent: u64) {
        self.total_sent += sent;
    }

    /// Applies one budget-tuning round from every chain's flatten report,
    /// ascending by `(cell, attribute)` (Section V "Budget Tuning"), and
    /// escalates incentives on exhaustion (Section VI). A chain that has
    /// observed no batch yet is skipped; one without a record gets one.
    pub fn tune(&mut self, fabricator: &mut Fabricator) -> Vec<TuneEvent> {
        let mut events = Vec::with_capacity(fabricator.materialized_chains());
        for ((cell, attr), entry) in fabricator.entries_mut() {
            let report = entry.ops.flatten_report();
            if report.batches() == 0 {
                continue; // nothing observed yet
            }
            let nv = report.smoothed_nv().unwrap_or(0.0).clamp(0.0, 100.0);
            let ctl = entry.ctl.get_or_insert_with(|| ChainCtl::new(self.initial_budget));
            let outcome = self.tuner.tune(&mut ctl.budget, nv);
            ctl.incentive.update(&self.incentive_policy, outcome);
            let budget_after = ctl.budget.requests_per_epoch;
            events.push(TuneEvent { cell, attr, nv, outcome, budget_after });
        }
        let exhausted = events.iter().filter(|e| e.outcome == TuneOutcome::Exhausted).count();
        self.exhausted_events += exhausted as u64;
        events
    }

    /// Current incentive for a chain: its record's, or the policy's base
    /// before the chain's first dispatch or tuning round.
    pub fn incentive_of(&self, fabricator: &Fabricator, cell: CellId, attr: AttributeId) -> f64 {
        fabricator
            .record(cell, attr)
            .map_or(self.incentive_policy.base, |c| c.incentive.current(&self.incentive_policy))
    }

    /// `(requested, sent)` totals since creation.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_requested, self.total_sent)
    }

    /// Number of budget-exhaustion events so far ("accept the feasible
    /// rate or pay more").
    pub fn exhausted_events(&self) -> u64 {
        self.exhausted_events
    }

    /// The tuner in use.
    pub fn tuner(&self) -> &BudgetTuner {
        &self.tuner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlannerConfig;
    use crate::query::AcquisitionQuery;
    use craqr_geom::Rect;
    use craqr_sensing::{AttrValue, CrowdConfig, Mobility, Placement, PopulationConfig};

    const KEY: (CellId, AttributeId) = (CellId { q: 0, r: 0 }, AttributeId(0));

    fn crowd() -> Crowd {
        let region = Rect::with_size(4.0, 4.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size: 400,
                placement: Placement::Uniform,
                mobility: Mobility::Stationary,
                human_fraction: 0.0,
            },
            seed: 3,
        });
        c.register_field(
            AttributeId(0),
            Box::new(craqr_sensing::fields::ConstantField(AttrValue::Float(1.0))),
        );
        c
    }

    /// The crowd's 4 × 4 grid with one chain: cell (0, 0), attribute 0.
    fn fabricator() -> Fabricator {
        let config = PlannerConfig { grid_side: 4, ..Default::default() };
        let mut f = Fabricator::new(Rect::with_size(4.0, 4.0), config);
        f.insert_query(AcquisitionQuery::new(KEY.1, Rect::new(0.0, 0.0, 1.0, 1.0), 2.0)).unwrap();
        f
    }

    fn handler() -> RequestResponseHandler {
        RequestResponseHandler::new(BudgetTuner::default(), IncentivePolicy::default(), 10.0)
    }

    #[test]
    fn dispatch_creates_budgets_and_sends() {
        let (mut h, mut c, mut f) = (handler(), crowd(), fabricator());
        assert_eq!(f.budget_of(KEY.0, KEY.1), None, "no record before the first dispatch");
        let (orders, stats) = h.issue_epoch_orders(&mut f, false, None);
        assert_eq!(stats.requested, 10);
        assert!(execute_orders(&mut c, &orders) > 0);
        assert_eq!(f.budget_of(KEY.0, KEY.1), Some(10.0));
    }

    #[test]
    fn zero_draw_chain_is_skipped_by_observe_responses() {
        let mut h =
            RequestResponseHandler::new(BudgetTuner::default(), IncentivePolicy::default(), 4.0);
        h.set_retry_policy(Some(RetryPolicy {
            backoff: 0.1,
            max_attempts: 3,
            ..Default::default()
        }));
        let mut f = fabricator();
        let retry = |f: &Fabricator| f.record(KEY.0, KEY.1).unwrap().retry;
        // Epoch 1 asks for 4 and hears nothing: 4 more are queued.
        h.issue_epoch_orders(&mut f, true, None);
        h.observe_responses(&mut f, &[]);
        assert!(f.set_budget(KEY.0, KEY.1, 0.0));
        // Epoch 2 asks for the 4 queued only; the damped retry is 0.4 → 0.
        let (_, stats) = h.issue_epoch_orders(&mut f, true, None);
        assert_eq!(stats.requested, 4);
        h.observe_responses(&mut f, &[]);
        assert_eq!(retry(&f), RetryState { attempts: 2, pending: 0 });
        assert_eq!(h.retry_attempts(), 2);
        // Epoch 3 asks for nothing, so there is no shortfall to measure:
        // the attempt count is neither advanced nor reset.
        let (_, stats) = h.issue_epoch_orders(&mut f, true, None);
        assert_eq!(stats.requested, 0);
        h.observe_responses(&mut f, &[]);
        assert_eq!(retry(&f), RetryState { attempts: 2, pending: 0 });
        assert_eq!(h.retry_attempts(), 2);
    }

    #[test]
    fn tuning_raises_budget_on_violations() {
        let (mut h, mut f) = (handler(), fabricator());
        f.ingest_batch(&[]); // a starved epoch: N_v = 100 %
        let events = h.tune(&mut f);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, TuneOutcome::Increased);
        assert_eq!(events[0].budget_after, 12.0);
        assert_eq!(f.budget_of(KEY.0, KEY.1), Some(12.0), "tuning created the record");
    }

    #[test]
    fn tuning_skips_chains_without_batches() {
        let (mut h, mut f) = (handler(), fabricator());
        assert!(h.tune(&mut f).is_empty());
        assert_eq!(f.budget_of(KEY.0, KEY.1), None);
    }

    #[test]
    fn exhaustion_escalates_incentive() {
        let tuner = BudgetTuner { max_budget: 10.0, ..Default::default() };
        let mut h = RequestResponseHandler::new(tuner, IncentivePolicy::default(), 10.0);
        let mut f = fabricator();
        f.ingest_batch(&[]);
        assert_eq!(h.incentive_of(&f, KEY.0, KEY.1), 0.0);
        h.tune(&mut f); // at cap already → exhausted
        assert_eq!(h.exhausted_events(), 1);
        assert!(h.incentive_of(&f, KEY.0, KEY.1) > 0.0);
    }
}
