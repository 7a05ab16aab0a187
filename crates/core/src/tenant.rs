//! Multi-tenant budget pools and admission control.
//!
//! The paper's acquisition server arbitrates *one* crowd across many
//! concurrent queries — but those queries have owners, and owners pay.
//! This module makes ownership first-class: every standing query belongs
//! to a [`TenantId`], every tenant owns a [`BudgetPool`] (acquisition
//! requests per epoch), and the [`TenantRegistry`] enforces two
//! invariants the single-owner server could not express:
//!
//! 1. **Admission control** — a new query's estimated demand is checked
//!    against its tenant's remaining pool *before* planning; an
//!    over-committing query is rejected with a structured
//!    [`AdmissionDecision`] instead of silently starving the tenant's
//!    existing queries (or everyone else's).
//! 2. **Epoch conservation** — during dispatch every (cell, attribute)
//!    chain's requests are charged to the tenants whose queries consume
//!    the chain (proportional to their requested rates), and a tenant's
//!    charges in one epoch never exceed its pool capacity: dispatch
//!    throttles rather than overdraws.
//!
//! Everything here is deterministic in the registration/submission order,
//! so tenant accounting inherits the executor's bit-identity contract
//! (serial == any `Sharded(n)`, live == replayed) for free.

use craqr_stats::Interval;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a registered tenant (registration order, dense from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit owner of queries submitted without a tenant — the
    /// back-compat single-owner world. Servers with no registered
    /// tenants never check or charge it.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// One tenant's acquisition budget pool: the requests per epoch its
/// queries may collectively draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPool {
    /// Pool capacity (requests per epoch).
    pub capacity: f64,
}

impl BudgetPool {
    /// Range of [`BudgetPool::capacity`].
    pub const CAPACITY: Interval = Interval::Positive;

    /// Creates a pool.
    ///
    /// # Panics
    /// Panics outside [`BudgetPool::CAPACITY`].
    #[track_caller]
    pub fn new(capacity: f64) -> Self {
        Self::CAPACITY.assert("pool capacity", capacity);
        Self { capacity }
    }
}

/// The structured outcome of one admission check — recorded whether the
/// query was admitted or rejected, so tenant disputes are auditable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionDecision {
    /// The tenant that submitted the query.
    pub tenant: TenantId,
    /// Submission order across the server (0-based, counts rejected
    /// submissions too) — the audit key the run log records.
    pub submission: u32,
    /// The query's estimated steady-state demand (requests/epoch):
    /// `rate × clipped area × epoch minutes`.
    pub estimated_demand: f64,
    /// Demand already committed by the tenant's admitted queries.
    pub committed_before: f64,
    /// The tenant's pool capacity (requests/epoch).
    pub capacity: f64,
    /// `true`: admitted (the demand is now committed). `false`: rejected
    /// — the pool cannot cover it.
    pub admitted: bool,
}

impl fmt::Display for AdmissionDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} submission {}: demand {:.4} over committed {:.4} of capacity {:.4} → {}",
            self.tenant,
            self.submission,
            self.estimated_demand,
            self.committed_before,
            self.capacity,
            if self.admitted { "admitted" } else { "rejected" },
        )
    }
}

/// One tenant's live accounting state.
#[derive(Debug, Clone, PartialEq)]
struct TenantAccount {
    name: String,
    pool: BudgetPool,
    /// Estimated demand committed by admitted queries (requests/epoch).
    committed: f64,
    /// Queries admitted / rejected so far.
    admitted: u32,
    rejected: u32,
    /// Requests charged in the current epoch.
    spent_epoch: f64,
    /// Requests charged over the whole run.
    spent_total: f64,
    /// The largest single-epoch charge seen (the conservation witness:
    /// it must never exceed `pool.capacity`).
    peak_epoch: f64,
}

/// Per-tenant roll-up for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant.
    pub tenant: TenantId,
    /// Registered name.
    pub name: String,
    /// Pool capacity (requests/epoch).
    pub capacity: f64,
    /// Queries admitted.
    pub admitted: u32,
    /// Queries rejected at admission.
    pub rejected: u32,
    /// Committed estimated demand (requests/epoch).
    pub committed: f64,
    /// Requests charged over the run.
    pub charged_total: f64,
    /// Largest single-epoch charge (≤ capacity by construction).
    pub peak_epoch_charge: f64,
}

/// The per-tenant budget pool registry: admission control at submit time,
/// conservation-enforced charging at dispatch time.
///
/// Owned by [`CraqrServer`](crate::CraqrServer); a server with no
/// registry behaves exactly like the pre-tenant single-owner server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantRegistry {
    accounts: BTreeMap<TenantId, TenantAccount>,
    decisions: Vec<AdmissionDecision>,
}

impl TenantRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant with its budget pool, returning its id
    /// (registration order, dense from 0).
    pub fn register(&mut self, name: &str, pool: BudgetPool) -> TenantId {
        let id = TenantId(self.accounts.len() as u32);
        self.accounts.insert(
            id,
            TenantAccount {
                name: name.to_string(),
                pool,
                committed: 0.0,
                admitted: 0,
                rejected: 0,
                spent_epoch: 0.0,
                spent_total: 0.0,
                peak_epoch: 0.0,
            },
        );
        id
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// `true` when `tenant` is registered.
    pub fn contains(&self, tenant: TenantId) -> bool {
        self.accounts.contains_key(&tenant)
    }

    /// A tenant's pool, if registered.
    pub fn pool_of(&self, tenant: TenantId) -> Option<BudgetPool> {
        self.accounts.get(&tenant).map(|a| a.pool)
    }

    /// Runs the admission check for a query with `estimated_demand`
    /// (requests/epoch) from `tenant`. Admitting commits the demand; the
    /// decision is recorded either way.
    ///
    /// # Panics
    /// Panics on an unregistered tenant (the server rejects that earlier
    /// with a proper error) or a non-finite demand.
    #[track_caller]
    pub fn admit(&mut self, tenant: TenantId, estimated_demand: f64) -> AdmissionDecision {
        assert!(
            estimated_demand.is_finite() && estimated_demand >= 0.0,
            "estimated demand must be >= 0, got {estimated_demand}"
        );
        let submission = self.decisions.len() as u32;
        let account = self.accounts.get_mut(&tenant).expect("tenant registered");
        let admitted = account.committed + estimated_demand <= account.pool.capacity + 1e-9;
        let decision = AdmissionDecision {
            tenant,
            submission,
            estimated_demand,
            committed_before: account.committed,
            capacity: account.pool.capacity,
            admitted,
        };
        if admitted {
            account.committed += estimated_demand;
            account.admitted += 1;
        } else {
            account.rejected += 1;
        }
        self.decisions.push(decision);
        decision
    }

    /// Rolls back the most recent *admitted* decision — used when a query
    /// passes admission but then fails planning, so the pool is not left
    /// committed to a query that never materialized. The decision stays
    /// in the audit log, flipped to rejected.
    pub fn rollback_last_admission(&mut self) {
        let Some(last) = self.decisions.last_mut() else { return };
        if !last.admitted {
            return;
        }
        last.admitted = false;
        let account = self.accounts.get_mut(&last.tenant).expect("tenant registered");
        account.committed -= last.estimated_demand;
        account.admitted -= 1;
        account.rejected += 1;
    }

    /// Every admission decision so far, in submission order.
    pub fn decisions(&self) -> &[AdmissionDecision] {
        &self.decisions
    }

    /// Releases `demand` of a tenant's committed pool — called when an
    /// admitted query is deleted, so its capacity can be re-admitted.
    pub fn release(&mut self, tenant: TenantId, demand: f64) {
        if let Some(account) = self.accounts.get_mut(&tenant) {
            account.committed = (account.committed - demand).max(0.0);
        }
    }

    /// Opens a new charging epoch: per-epoch spend resets to zero.
    pub fn begin_epoch(&mut self) {
        for account in self.accounts.values_mut() {
            account.spent_epoch = 0.0;
        }
    }

    /// The largest request count `n ≤ wanted` a chain with the given
    /// tenant `shares` (fractions summing to 1) can dispatch without any
    /// tenant overdrawing its pool this epoch.
    pub fn allow(&self, shares: &[(TenantId, f64)], wanted: usize) -> usize {
        let mut allowed = wanted as f64;
        for (tenant, share) in shares {
            if *share <= 0.0 {
                continue;
            }
            let Some(account) = self.accounts.get(tenant) else { continue };
            let headroom = (account.pool.capacity - account.spent_epoch).max(0.0);
            allowed = allowed.min(headroom / share);
        }
        // The epsilon forgives accumulated float dust on an exactly-full
        // pool; the floor keeps the charge under capacity regardless.
        (allowed + 1e-9).floor().min(wanted as f64) as usize
    }

    /// Charges `requests` dispatched by a chain to its owning tenants,
    /// split by `shares`. Call after [`TenantRegistry::allow`] clamped
    /// the count, so conservation holds by construction.
    pub fn charge(&mut self, shares: &[(TenantId, f64)], requests: usize) {
        if requests == 0 {
            return;
        }
        for (tenant, share) in shares {
            let Some(account) = self.accounts.get_mut(tenant) else { continue };
            let amount = requests as f64 * share;
            account.spent_epoch += amount;
            account.spent_total += amount;
            if account.spent_epoch > account.peak_epoch {
                account.peak_epoch = account.spent_epoch;
            }
        }
    }

    /// The current epoch's charges, ascending by tenant (zero-charge
    /// tenants included — an auditable "nothing drawn" is information).
    pub fn epoch_charges(&self) -> Vec<(TenantId, f64)> {
        self.accounts.iter().map(|(id, a)| (*id, a.spent_epoch)).collect()
    }

    /// Per-tenant roll-ups, ascending by tenant.
    pub fn summaries(&self) -> Vec<TenantSummary> {
        self.accounts
            .iter()
            .map(|(id, a)| TenantSummary {
                tenant: *id,
                name: a.name.clone(),
                capacity: a.pool.capacity,
                admitted: a.admitted,
                rejected: a.rejected,
                committed: a.committed,
                charged_total: a.spent_total,
                peak_epoch_charge: a.peak_epoch,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_dense_ids() {
        let mut r = TenantRegistry::new();
        let a = r.register("alice", BudgetPool::new(100.0));
        let b = r.register("bob", BudgetPool::new(50.0));
        assert_eq!((a, b), (TenantId(0), TenantId(1)));
        assert_eq!(r.len(), 2);
        assert_eq!(r.pool_of(b).unwrap().capacity, 50.0);
        assert!(!r.contains(TenantId(7)));
    }

    #[test]
    fn admission_commits_until_the_pool_is_full() {
        let mut r = TenantRegistry::new();
        let t = r.register("alice", BudgetPool::new(100.0));
        assert!(r.admit(t, 60.0).admitted);
        assert!(r.admit(t, 40.0).admitted, "exactly-full pool admits");
        let rejected = r.admit(t, 0.5);
        assert!(!rejected.admitted);
        assert_eq!(rejected.committed_before, 100.0);
        assert_eq!(rejected.submission, 2);
        let s = &r.summaries()[0];
        assert_eq!((s.admitted, s.rejected), (2, 1));
        assert_eq!(s.committed, 100.0);
    }

    #[test]
    fn rollback_releases_the_commitment_and_flips_the_audit_entry() {
        let mut r = TenantRegistry::new();
        let t = r.register("alice", BudgetPool::new(10.0));
        r.admit(t, 8.0);
        r.rollback_last_admission();
        assert_eq!(r.summaries()[0].committed, 0.0);
        assert!(!r.decisions()[0].admitted, "audit entry flipped, not erased");
        assert!(r.admit(t, 9.0).admitted, "capacity released");
        // Rolling back a rejection is a no-op.
        let _ = r.admit(t, 99.0);
        r.rollback_last_admission();
        assert_eq!(r.summaries()[0].committed, 9.0);
    }

    #[test]
    fn charging_is_conserved_under_allow() {
        let mut r = TenantRegistry::new();
        let a = r.register("alice", BudgetPool::new(10.0));
        let b = r.register("bob", BudgetPool::new(100.0));
        r.begin_epoch();
        let shares = vec![(a, 0.25), (b, 0.75)];
        // Alice's 10-request pool caps the chain at 40 requests.
        assert_eq!(r.allow(&shares, 1000), 40);
        r.charge(&shares, 40);
        assert_eq!(r.allow(&shares, 1000), 0, "alice is dry");
        let charges = r.epoch_charges();
        assert_eq!(charges, vec![(a, 10.0), (b, 30.0)]);
        // A fresh epoch resets the meter but not the totals.
        r.begin_epoch();
        assert_eq!(r.epoch_charges(), vec![(a, 0.0), (b, 0.0)]);
        assert_eq!(r.summaries()[0].charged_total, 10.0);
        assert_eq!(r.summaries()[0].peak_epoch_charge, 10.0);
    }

    #[test]
    fn allow_is_exact_on_single_tenant_chains() {
        let mut r = TenantRegistry::new();
        let t = r.register("solo", BudgetPool::new(7.0));
        r.begin_epoch();
        let shares = vec![(t, 1.0)];
        assert_eq!(r.allow(&shares, 5), 5);
        r.charge(&shares, 5);
        assert_eq!(r.allow(&shares, 5), 2);
        r.charge(&shares, 2);
        assert_eq!(r.allow(&shares, 5), 0);
        assert_eq!(r.epoch_charges(), vec![(t, 7.0)]);
    }
}
