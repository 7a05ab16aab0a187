//! The request/response handler — Section IV-A.
//!
//! Everything the handler keeps per (cell, attribute) chain — budget,
//! incentive, retry state — lives in one record of one ordered table, the
//! same key and order as the fabricator's chain table: what exists for a
//! chain is stated once, and every walk is ascending by construction.
//! The per-epoch walks (dispatch, retry feedback, tuning) take their
//! inputs in that same order and step through the table beside them, so
//! none looks a chain up by key.

use crate::budget::{Budget, BudgetTuner, TuneOutcome};
use crate::incentive::{IncentivePolicy, IncentiveState};
use crate::ops::FlattenReport;
use crate::tenant::{TenantId, TenantRegistry};
use craqr_geom::{CellId, Grid};
use craqr_sensing::{AttributeId, Crowd};
use craqr_stats::Interval;
use std::collections::{BTreeMap, HashMap};

/// Per-chain tenant ownership shares, as produced by
/// [`crate::plan::Fabricator::tenant_shares`].
pub type ChainShares = HashMap<(CellId, AttributeId), Vec<(TenantId, f64)>>;

/// The tenant-charging context one dispatch runs under: the registry
/// holding the pools plus the chain→tenant share map. `None` is the
/// single-owner world — no clamping, no charging, bit-identical to the
/// pre-tenant dispatch.
pub type Tenancy<'a> = Option<(&'a mut TenantRegistry, &'a ChainShares)>;

/// Clamps one chain's drawn request count to what its owning tenants'
/// pools can still cover this epoch, charging the dispatched amount to
/// them by share. Runs whether or not orders are collected — the
/// registry's epoch meters are handler-side state a replay must reproduce
/// bit-for-bit. No tenancy (or an unowned chain) passes `wanted` through
/// untouched.
fn clamp_and_charge(tenancy: &mut Tenancy<'_>, key: (CellId, AttributeId), wanted: usize) -> usize {
    match tenancy {
        Some((registry, shares)) => match shares.get(&key) {
            Some(owners) => {
                let allowed = registry.allow(owners, wanted);
                registry.charge(owners, allowed);
                allowed
            }
            None => wanted,
        },
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

/// Everything the handler keeps for one live (cell, attribute) chain. A
/// chain that leaves the demands loses the whole record, so one that
/// returns starts from scratch.
#[derive(Debug)]
struct ChainCtl {
    budget: Budget,
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

    /// One budget-tuning round on this chain at smoothed `N_v` `nv`.
    fn tune(
        &mut self,
        tuner: &BudgetTuner,
        policy: &IncentivePolicy,
        (cell, attr): (CellId, AttributeId),
        nv: f64,
    ) -> TuneEvent {
        let outcome = tuner.tune(&mut self.budget, nv);
        self.incentive.update(policy, outcome);
        TuneEvent { cell, attr, nv, outcome, budget_after: self.budget.requests_per_epoch }
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

/// The request/response handler: owns the per-(attribute, cell) budgets
/// `β⟨j⟩(q,r)`, sends acquisition requests to randomly selected sensors
/// through the [`Crowd`], and adapts the budgets from the flatten
/// operators' `N_v` telemetry. When a budget saturates it escalates the
/// incentive instead (Section VI).
pub struct RequestResponseHandler {
    chains: BTreeMap<(CellId, AttributeId), ChainCtl>,
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
            chains: BTreeMap::new(),
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

    /// Whether a retry policy is installed (the server only pays for
    /// per-chain response counting when it is).
    pub fn retry_enabled(&self) -> bool {
        self.retry_policy.is_some()
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

    /// Feeds back how many responses each chain's most recent dispatch
    /// yielded (counted at the drain seam, pre-error-injection), ascending
    /// by `(cell, attribute)` — [`crate::plan::Fabricator::responses_per_chain`];
    /// a chain missing from `counts` got none. Chains short of
    /// `threshold × allowed` schedule damped extra requests for the next
    /// dispatch; healthy chains reset their attempt counter; chains that
    /// asked for nothing at that dispatch are left alone. No-op without a
    /// policy.
    pub fn observe_responses(
        &mut self,
        counts: impl IntoIterator<Item = ((CellId, AttributeId), u64)>,
    ) {
        let Some(policy) = self.retry_policy else { return };
        let mut counts = counts.into_iter().peekable();
        for (key, ctl) in &mut self.chains {
            while counts.next_if(|(k, _)| k < key).is_some() {}
            let got = counts.next_if(|(k, _)| k == key).map_or(0, |(_, n)| n);
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

    /// The issuing half of a dispatch: prunes the records of dematerialized
    /// chains (so deleted queries stop costing requests), draws every
    /// demanded chain's budget (plus pending retry top-ups), and clamps and
    /// charges against tenant pools — every handler- and registry-side
    /// mutation of a dispatch — but touches no crowd. The crowd-side sends
    /// come back as [`SendOrder`]s for [`execute_orders`]; with
    /// `grid = None` (the detached-replay path) order collection is skipped
    /// entirely while the handler state still evolves identically.
    ///
    /// `demands` comes from [`crate::plan::Fabricator::demands`], ascending
    /// by `(cell, attribute)`. `stats.sent` is left at 0; fold the execution
    /// outcome back with [`RequestResponseHandler::record_sent`].
    pub fn issue_epoch_orders(
        &mut self,
        grid: Option<&Grid>,
        demands: &[(CellId, AttributeId, f64)],
        mut tenancy: Tenancy<'_>,
    ) -> (Vec<SendOrder>, DispatchStats) {
        debug_assert!(
            demands.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "demands must ascend by (cell, attribute)"
        );
        // Prune the records of dematerialized chains; the survivors forget
        // what the previous dispatch allowed them. Both sides ascend, so
        // one cursor through the demands finds each record's chain.
        let mut demanded = demands.iter().map(|(c, a, _)| (*c, *a)).peekable();
        self.chains.retain(|key, ctl| {
            ctl.last_allowed = None;
            while demanded.next_if(|k| k < key).is_some() {}
            demanded.next_if(|k| k == key).is_some()
        });
        // A record for each newly demanded chain.
        if self.chains.len() < demands.len() {
            let initial = self.initial_budget;
            for (cell, attr, _) in demands {
                self.chains.entry((*cell, *attr)).or_insert_with(|| ChainCtl::new(initial));
            }
        }

        let mut orders = Vec::new();
        let mut stats = DispatchStats::default();
        // The table now holds exactly the demanded chains, in their order.
        for ((&key, ctl), (cell, attr, _rate)) in self.chains.iter_mut().zip(demands) {
            debug_assert_eq!(key, (*cell, *attr));
            let n = ctl.budget.draw_requests();
            let extra = std::mem::take(&mut ctl.retry.pending) as usize;
            let want = n + extra;
            if want == 0 {
                continue;
            }
            let allowed = clamp_and_charge(&mut tenancy, key, want);
            stats.requested += want as u64;
            stats.throttled += (want - allowed) as u64;
            self.retries_requested += extra as u64;
            if self.retry_policy.is_some() {
                ctl.last_allowed = Some(allowed as u64);
            }
            if allowed == 0 {
                continue;
            }
            if let Some(grid) = grid {
                orders.push(SendOrder {
                    cell: *cell,
                    attr: *attr,
                    rect: grid.cell_rect(*cell),
                    allowed,
                    incentive: ctl.incentive.current(&self.incentive_policy),
                });
            }
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

    /// Applies one budget-tuning round from the flatten reports, ascending
    /// by `(cell, attribute)` — [`crate::plan::Fabricator::flatten_telemetry`]
    /// (Section V "Budget Tuning") — and escalates incentives on exhaustion
    /// (Section VI). A chain no dispatch has recorded yet gets its record
    /// here.
    pub fn tune<'r>(
        &mut self,
        reports: impl IntoIterator<Item = ((CellId, AttributeId), &'r FlattenReport)>,
    ) -> Vec<TuneEvent> {
        let mut events = Vec::with_capacity(self.chains.len());
        // `(position in events, key, N_v)` of chains without a record.
        let mut unrecorded = Vec::new();
        let mut ctls = self.chains.iter_mut().peekable();
        for (key, report) in reports {
            let (batches, smoothed) = report.tuning_view();
            if batches == 0 {
                continue; // nothing observed yet
            }
            let nv = smoothed.unwrap_or(0.0).clamp(0.0, 100.0);
            while ctls.next_if(|(k, _)| **k < key).is_some() {}
            match ctls.next_if(|(k, _)| **k == key) {
                Some((_, ctl)) => {
                    events.push(ctl.tune(&self.tuner, &self.incentive_policy, key, nv));
                }
                None => unrecorded.push((events.len(), key, nv)),
            }
        }
        // Tuning is per chain, so a late record tunes exactly as it would
        // have in the walk; last first, each event lands where the walk
        // would have put it.
        for (at, key, nv) in unrecorded.into_iter().rev() {
            let initial = self.initial_budget;
            let ctl = self.chains.entry(key).or_insert_with(|| ChainCtl::new(initial));
            events.insert(at, ctl.tune(&self.tuner, &self.incentive_policy, key, nv));
        }
        let exhausted = events.iter().filter(|e| e.outcome == TuneOutcome::Exhausted).count();
        self.exhausted_events += exhausted as u64;
        events
    }

    /// Current budget for a chain (requests per epoch).
    pub fn budget_of(&self, cell: CellId, attr: AttributeId) -> Option<f64> {
        self.chains.get(&(cell, attr)).map(|c| c.budget.requests_per_epoch)
    }

    /// Every live chain's current budget, by value — the snapshot behind
    /// [`crate::EpochObservation`]'s budget view, which is only ever
    /// probed by key.
    pub fn budget_snapshot(&self) -> HashMap<(CellId, AttributeId), f64> {
        self.chains.iter().map(|(k, c)| (*k, c.budget.requests_per_epoch)).collect()
    }

    /// Overwrites a **live** chain's budget (requests per epoch) — the
    /// replanning actuator of the adaptive control loop. The chain's
    /// fractional-rounding credit is preserved so a replan does not
    /// perturb the long-run rate accounting.
    ///
    /// Returns whether the (cell, attribute) key was live. A replan can
    /// race a chain retirement (the query was deleted between the
    /// observation and the actuation); the stale actuation is a signalled
    /// no-op, never a phantom entry, and the caller can surface it
    /// ([`crate::EpochReport::stale_actions`]).
    ///
    /// # Panics
    /// Panics outside [`Budget::REQUESTS_PER_EPOCH`].
    #[track_caller]
    #[must_use = "a false return means the chain is retired and nothing was actuated"]
    pub fn set_budget(&mut self, cell: CellId, attr: AttributeId, requests_per_epoch: f64) -> bool {
        Budget::REQUESTS_PER_EPOCH.assert("budget", requests_per_epoch);
        match self.chains.get_mut(&(cell, attr)) {
            Some(ctl) => {
                ctl.budget.requests_per_epoch = requests_per_epoch;
                true
            }
            None => false,
        }
    }

    /// Current incentive for a chain.
    pub fn incentive_of(&self, cell: CellId, attr: AttributeId) -> f64 {
        self.chains
            .get(&(cell, attr))
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
    use craqr_geom::Rect;
    use craqr_sensing::{AttrValue, CrowdConfig, Mobility, Placement, PopulationConfig};

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

    fn handler() -> RequestResponseHandler {
        RequestResponseHandler::new(BudgetTuner::default(), IncentivePolicy::default(), 10.0)
    }

    /// One dispatch the way the driver performs it: issue, execute, fold
    /// `sent` back.
    fn dispatch(
        h: &mut RequestResponseHandler,
        crowd: &mut Crowd,
        grid: &Grid,
        demands: &[(CellId, AttributeId, f64)],
    ) -> DispatchStats {
        let (orders, mut stats) = h.issue_epoch_orders(Some(grid), demands, None);
        stats.sent = execute_orders(crowd, &orders);
        h.record_sent(stats.sent);
        stats
    }

    #[test]
    fn dispatch_creates_budgets_and_sends() {
        let mut h = handler();
        let mut c = crowd();
        let grid = Grid::new(c.region(), 4);
        let demands = vec![(CellId::new(0, 0), AttributeId(0), 2.0)];
        let stats = dispatch(&mut h, &mut c, &grid, &demands);
        assert_eq!(stats.requested, 10);
        assert!(stats.sent > 0);
        assert_eq!(h.budget_of(CellId::new(0, 0), AttributeId(0)), Some(10.0));
    }

    #[test]
    fn dispatch_prunes_stale_budgets() {
        // A capped tuner, so one violated report escalates the incentive.
        let tuner = BudgetTuner { max_budget: 10.0, ..Default::default() };
        let policy = IncentivePolicy { base: 0.25, ..Default::default() };
        let mut h = RequestResponseHandler::new(tuner, policy, 10.0);
        h.set_retry_policy(Some(RetryPolicy::default()));
        let mut c = crowd();
        let grid = Grid::new(c.region(), 4);
        let key = (CellId::new(0, 0), AttributeId(0));
        let d1 = vec![(key.0, key.1, 2.0)];
        dispatch(&mut h, &mut c, &grid, &d1);
        assert_eq!(h.incentive_of(key.0, key.1), 0.25, "never tuned: the policy base");
        // Move every per-chain field off its initial value.
        let report = FlattenReport::new(1.0);
        report.record_batch(100.0, 10, 10, None);
        h.tune([(key, &*report)]);
        assert!(h.set_budget(key.0, key.1, 7.0));
        h.observe_responses(std::iter::empty());
        assert!(h.incentive_of(key.0, key.1) > 0.25);
        assert_eq!(h.chains[&key].retry, RetryState { attempts: 1, pending: 10 });
        // Next epoch the demand is gone.
        dispatch(&mut h, &mut c, &grid, &[]);
        assert!(h.budget_of(key.0, key.1).is_none());
        dispatch(&mut h, &mut c, &grid, &[]);
        // Two epochs later it returns, and starts from scratch.
        let (orders, stats) = h.issue_epoch_orders(Some(&grid), &d1, None);
        assert_eq!(stats.requested, 10, "initial budget, no retry top-up");
        assert_eq!(orders[0].incentive, 0.25);
        assert_eq!(h.budget_of(key.0, key.1), Some(10.0));
        assert_eq!(h.incentive_of(key.0, key.1), 0.25);
        assert_eq!(h.chains[&key].retry, RetryState::default());
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
        let key = (CellId::new(0, 0), AttributeId(0));
        let demands = vec![(key.0, key.1, 2.0)];
        // Epoch 1 asks for 4 and hears nothing: 4 more are queued.
        h.issue_epoch_orders(None, &demands, None);
        h.observe_responses(std::iter::empty());
        assert!(h.set_budget(key.0, key.1, 0.0));
        // Epoch 2 asks for the 4 queued only; the damped retry is 0.4 → 0.
        let (_, stats) = h.issue_epoch_orders(None, &demands, None);
        assert_eq!(stats.requested, 4);
        h.observe_responses(std::iter::empty());
        assert_eq!(h.chains[&key].retry, RetryState { attempts: 2, pending: 0 });
        assert_eq!(h.retry_attempts(), 2);
        // Epoch 3 asks for nothing, so there is no shortfall to measure:
        // the attempt count is neither advanced nor reset.
        let (_, stats) = h.issue_epoch_orders(None, &demands, None);
        assert_eq!(stats.requested, 0);
        h.observe_responses(std::iter::empty());
        assert_eq!(h.chains[&key].retry, RetryState { attempts: 2, pending: 0 });
        assert_eq!(h.retry_attempts(), 2);
    }

    #[test]
    fn tuning_raises_budget_on_violations() {
        let mut h = handler();
        let report = FlattenReport::new(0.5);
        report.record_batch(80.0, 100, 100, None);
        let events = h.tune([((CellId::new(1, 1), AttributeId(0)), &*report)]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, TuneOutcome::Increased);
        assert_eq!(events[0].budget_after, 12.0);
    }

    #[test]
    fn tuning_skips_chains_without_batches() {
        let mut h = handler();
        let report = FlattenReport::new(0.5);
        assert!(h.tune([((CellId::new(1, 1), AttributeId(0)), &*report)]).is_empty());
    }

    #[test]
    fn exhaustion_escalates_incentive() {
        let tuner = BudgetTuner { max_budget: 10.0, ..Default::default() };
        let mut h = RequestResponseHandler::new(tuner, IncentivePolicy::default(), 10.0);
        let report = FlattenReport::new(1.0);
        report.record_batch(100.0, 10, 10, None);
        let key = (CellId::new(0, 0), AttributeId(0));
        assert_eq!(h.incentive_of(key.0, key.1), 0.0);
        h.tune([(key, &*report)]); // at cap already → exhausted
        assert_eq!(h.exhausted_events(), 1);
        assert!(h.incentive_of(key.0, key.1) > 0.0);
    }
}
