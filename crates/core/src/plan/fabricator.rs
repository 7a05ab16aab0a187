//! The crowdsensed stream fabricator — "the most important component"
//! (Section IV-B), with the map/process/merge phases of Fig. 2.
//!
//! The paper keeps the per-cell topologies in a "hashmap" keyed by grid
//! cell. Here that table is an ordered map keyed by `(cell, attribute)`,
//! and the standing queries one keyed by [`QueryId`]: every walk over
//! chains or queries feeds something checksummed (execution order, float
//! sums, rendered reports), so canonical ascending order is a property of
//! the key type rather than a sort each caller has to remember. What the
//! paper's hashmap is *for*, finding a tuple's topology, is a dense
//! table: every (attribute, cell) pair holds the ordinal of its chain in
//! that order, refilled whenever the chain set changes, so the map phase
//! reads two slots a tuple instead of searching the keys.

use super::chain::{AttrChain, OperatorMetrics, Staging};
use super::PlannerConfig;
use crate::exec::{busy, shard_of, ExecMode, IngestReport, ShardIngest};
use crate::ops::FlattenReport;
use crate::query::{AcquisitionQuery, QueryId};
use crate::tuple::CrowdTuple;
use crate::UnionOp;
use craqr_geom::{CellId, Grid, Rect, Region};
use craqr_sensing::{AttributeId, SensorResponse};
use craqr_stats::fan_out;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Planning rejection.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The query region does not intersect `R`.
    OutsideRegion(Rect),
    /// The query region is smaller than one grid cell — "a single-attribute
    /// query should be on a region with area at least `area(R(q,r))`"
    /// (Section IV).
    TooSmall {
        /// The offending query area (km²).
        query_area: f64,
        /// The minimum allowed area (one cell, km²).
        min_area: f64,
    },
    /// No standing query with this id.
    UnknownQuery(QueryId),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::OutsideRegion(r) => write!(f, "query region {r} lies outside R"),
            PlanError::TooSmall { query_area, min_area } => {
                write!(f, "query area {query_area} km² below the cell minimum {min_area} km²")
            }
            PlanError::UnknownQuery(q) => write!(f, "no standing query {q}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The map phase's state: the paper's per-cell "hashmap" as a dense
/// table, kept across epochs so routing a batch allocates only when the
/// batch outgrows every earlier one.
///
/// A chain's *ordinal* is its position in ascending `(cell, attribute)`
/// order. `table` holds the ordinal of every (attribute, cell) pair's
/// chain, so a tuple routes with one cell computation and two loads. A
/// change to the chain set marks the table stale and the next route or
/// count refills it ([`Router::sync`]). One counting sort over ordinals then
/// places the batch in `routed` with each chain's tuples contiguous and
/// in input order, so every chain is handed a borrowed slice instead of
/// a batch of its own.
struct Router {
    /// Cells per grid side.
    side: u32,
    /// Cells in the grid: the length of one row of `table`.
    cells: usize,
    /// Each attribute id's row of `table`, or [`UNROUTED`] for an
    /// attribute no chain has acquired yet. Rows are added, never removed.
    rows: Vec<u32>,
    /// `table[row · cells + r · side + q]`: the ordinal of chain
    /// `((q, r), attribute)`, or [`UNROUTED`] when it is not materialized.
    table: Vec<u32>,
    /// The chain set changed since `table` was filled.
    stale: bool,
    /// Each input tuple's chain ordinal, or [`UNROUTED`].
    ordinals: Vec<u32>,
    /// After [`Router::route`], chain `i`'s tuples are
    /// `routed[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    routed: Vec<CrowdTuple>,
    /// Drained responses per chain ordinal, for retry feedback.
    counts: Vec<u64>,
}

/// The ordinal of a tuple no materialized chain takes.
const UNROUTED: u32 = u32::MAX;

impl Router {
    fn new(side: u32) -> Self {
        Self {
            side,
            cells: (side * side) as usize,
            rows: Vec::new(),
            table: Vec::new(),
            stale: false,
            ordinals: Vec::new(),
            offsets: Vec::new(),
            routed: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Refills the table from the chain keys (ascending) when the chain
    /// set changed since the last fill; returns the chain count.
    fn sync<'a>(
        &mut self,
        keys: impl ExactSizeIterator<Item = &'a (CellId, AttributeId)>,
    ) -> usize {
        let chains = keys.len();
        if !self.stale {
            return chains;
        }
        self.stale = false;
        self.table.fill(UNROUTED);
        for (ordinal, &(cell, attr)) in keys.enumerate() {
            let attr = usize::from(attr.0);
            if attr >= self.rows.len() {
                self.rows.resize(attr + 1, UNROUTED);
            }
            if self.rows[attr] == UNROUTED {
                self.rows[attr] = (self.table.len() / self.cells) as u32;
                self.table.resize(self.table.len() + self.cells, UNROUTED);
            }
            let at = self.at(self.rows[attr], cell);
            self.table[at] = ordinal as u32;
        }
        chains
    }

    /// `cell`'s slot in table row `row`.
    #[inline]
    fn at(&self, row: u32, cell: CellId) -> usize {
        row as usize * self.cells + (cell.r * self.side + cell.q) as usize
    }

    /// The ordinal of the chain a tuple of `attr` at `(x, y)` belongs to,
    /// or [`UNROUTED`] (outside the grid, or no chain for its cell and
    /// attribute).
    #[inline]
    fn ordinal(&self, grid: &Grid, x: f64, y: f64, attr: AttributeId) -> u32 {
        let row = self.rows.get(usize::from(attr.0)).copied().unwrap_or(UNROUTED);
        match grid.cell_of(x, y) {
            Some(cell) if row != UNROUTED => self.table[self.at(row, cell)],
            _ => UNROUTED,
        }
    }

    /// Routes one batch into `routed` over the chains `keys` (ascending);
    /// returns how many tuples dropped (outside the grid, or in a cell
    /// with no chain for their attribute).
    fn route<'a>(
        &mut self,
        grid: &Grid,
        keys: impl ExactSizeIterator<Item = &'a (CellId, AttributeId)>,
        tuples: &[CrowdTuple],
    ) -> usize {
        let chains = self.sync(keys);
        self.ordinals.clear();
        self.offsets.clear();
        self.offsets.resize(chains + 2, 0);
        let mut dropped = 0;
        for t in tuples {
            let ordinal = self.ordinal(grid, t.point.x, t.point.y, t.attr);
            if ordinal == UNROUTED {
                dropped += 1;
            } else {
                self.offsets[ordinal as usize + 2] += 1;
            }
            self.ordinals.push(ordinal);
        }
        // Prefix sums leave chain i's start in offsets[i + 1]; placing a
        // tuple advances it, so once every tuple is placed it holds chain
        // i's end, and offsets[i] (chain i - 1's end) its start.
        for i in 2..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.routed.clear();
        if let Some(&filler) = tuples.first() {
            self.routed.resize(tuples.len() - dropped, filler);
        }
        for (t, &ordinal) in tuples.iter().zip(&self.ordinals) {
            if ordinal != UNROUTED {
                let next = &mut self.offsets[ordinal as usize + 1];
                self.routed[*next] = *t;
                *next += 1;
            }
        }
        dropped
    }

    /// Chain `ordinal`'s share of the last routed batch.
    fn batch(&self, ordinal: usize) -> &[CrowdTuple] {
        &self.routed[self.offsets[ordinal]..self.offsets[ordinal + 1]]
    }

    /// Counts `responses` per chain ordinal, over the chains `keys`
    /// (ascending); a response no chain takes counts nowhere.
    fn count<'a>(
        &mut self,
        grid: &Grid,
        keys: impl ExactSizeIterator<Item = &'a (CellId, AttributeId)>,
        responses: &[SensorResponse],
    ) -> &[u64] {
        let chains = self.sync(keys);
        self.counts.clear();
        self.counts.resize(chains, 0);
        for r in responses {
            let m = &r.measurement;
            let ordinal = self.ordinal(grid, m.point.x, m.point.y, m.attr);
            if ordinal != UNROUTED {
                self.counts[ordinal as usize] += 1;
            }
        }
        &self.counts
    }
}

/// Runs one shard's chains in the order given, each on its routed slice; a
/// chain whose slice is empty records a starvation epoch instead. Each
/// chain stages its consumers' pieces onto `staging` (emptied first) as it
/// runs.
fn run_shard<'a>(
    shard: usize,
    jobs: impl IntoIterator<Item = (&'a mut AttrChain, &'a [CrowdTuple])>,
    staging: &mut Staging,
) -> ShardIngest {
    staging.clear();
    let ((chains, tuples), busy_ns) = busy(|| {
        let (mut chains, mut tuples) = (0, 0);
        for (chain, batch) in jobs {
            chains += 1;
            tuples += batch.len();
            if batch.is_empty() {
                chain.record_starved_epoch();
            } else {
                chain.process_batch(batch, staging);
            }
        }
        (chains, tuples)
    });
    ShardIngest { shard, chains, tuples, busy_ns }
}

/// A standing query's placement: which cells it taps and how its per-cell
/// pieces merge back together.
#[derive(Debug)]
pub struct QueryPlan {
    /// The query itself.
    pub query: AcquisitionQuery,
    /// `(cell, overlap, covers-whole-cell)` for every touched cell.
    pub cells: Vec<(CellId, Rect, bool)>,
    /// The query footprint clipped to `R`, canonicalized.
    pub footprint: Region,
}

/// A standing query: its placement, the `U`-operator that merges its
/// per-cell pieces, where the last ingest staged them, and its output bank.
struct Standing {
    plan: QueryPlan,
    merge: UnionOp,
    /// `(shard, start, end)` for each `U` input port: the piece the last
    /// ingest staged for the port is `stagings[shard].tuples[start..end]`,
    /// empty where its cell gave nothing. A port is one chain's consumer,
    /// so it gets at most one piece an ingest. Filled by ingest, emptied
    /// by its merge.
    pieces: Vec<(usize, usize, usize)>,
    /// What ingest merged and nobody took yet, one time-ordered delivery
    /// each, oldest first. Kept apart so a delivery never moves the ones
    /// before it; taking the bank joins them.
    bank: Vec<Vec<CrowdTuple>>,
    /// Tuples in `bank`.
    banked: usize,
}

impl Standing {
    fn new(plan: QueryPlan, merge: UnionOp) -> Self {
        let pieces = vec![(0, 0, 0); plan.cells.len()];
        Self { plan, merge, pieces, bank: Vec::new(), banked: 0 }
    }

    /// Tuples the last ingest staged for this query.
    fn staged(&self) -> usize {
        self.pieces.iter().map(|&(_, start, end)| end - start).sum()
    }

    /// **merge**: feeds the pieces ingest staged for this query through its
    /// `U`-operator in port order, reading them where the shards staged
    /// them, and banks the result stably sorted by time, so equal times
    /// keep port order.
    fn deliver(&mut self, stagings: &[Staging]) {
        // Allocated once, at its final size.
        let mut out = Vec::with_capacity(self.staged());
        for (port, piece) in self.pieces.iter_mut().enumerate() {
            let (shard, start, end) = std::mem::take(piece);
            self.merge.process(port, &stagings[shard].tuples[start..end], &mut out);
        }
        out.sort_by(|a, b| a.point.t.total_cmp(&b.point.t));
        self.banked += out.len();
        self.bank.push(out);
    }

    /// Empties the bank into one buffer, oldest delivery first.
    fn take_bank(&mut self) -> Vec<CrowdTuple> {
        self.banked = 0;
        let mut bank = std::mem::take(&mut self.bank);
        match bank.len() {
            1 => bank.swap_remove(0),
            _ => bank.concat(),
        }
    }
}

/// The fabricator: the grid table of per-cell execution topologies plus
/// per-query merge stages.
///
/// - **map** ([`Fabricator::ingest_batch`]): each arriving tuple is routed
///   to its grid cell's key; unmaterialized cells (no standing query there)
///   drop their tuples unprocessed — the grid is "entirely logical".
/// - **process**: the per-(cell, attribute) [`AttrChain`]s push tuples
///   through `F → T … → (P)`, each consumer's piece going onto the
///   shard's staging as the chain runs, tagged `(query, port)`.
/// - **merge**, the end of every ingest: a per-query `U`-operator
///   reassembles the per-cell pieces, read in place from the shard
///   stagings in port order, into the final MCDS, time-ordered, and banks
///   it for [`Fabricator::collect_output`]. It never touches a chain.
pub struct Fabricator {
    grid: Grid,
    config: PlannerConfig,
    chains: BTreeMap<(CellId, AttributeId), AttrChain>,
    queries: BTreeMap<QueryId, Standing>,
    next_query: u64,
    dropped_unmaterialized: u64,
    /// Cached per-chain tenant ownership, a pure function of the standing
    /// queries — invalidated on insert/delete (chain rebuilds keep the
    /// consumer set, so they leave it valid) and rebuilt lazily so the
    /// epoch loop does not re-derive it every epoch.
    tenant_shares: Option<crate::handler::ChainShares>,
    /// Per-operator processing-time clock handed to every chain (existing
    /// and future). `None` (default): no chain reads a clock and every
    /// `OpCounters::busy_ns` stays zero.
    engine_clock: Option<fn() -> u64>,
    /// Operator counters of chains that no longer exist — accumulated when
    /// a chain is rebuilt ([`Fabricator::rebuild_chain`]) or dematerialized
    /// (last consumer deleted), so [`Fabricator::chain_metrics`] reports
    /// the fleet's whole history. Without this, a rebuild on the final
    /// epoch would erase every operator counter from the run's report.
    retired_metrics: OperatorMetrics,
    router: Router,
    /// One staging per shard of the widest ingest so far, kept for its
    /// capacity; empty between ingests.
    stagings: Vec<Staging>,
    /// The host's cores, for the default executor's width. Read when the
    /// fabricator is built: the first read opens cgroup files, and done
    /// inside the first epoch it left `city_live`'s peak RSS 1.4 MB
    /// higher.
    cores: usize,
}

impl Fabricator {
    /// Creates a fabricator over region `R`.
    pub fn new(region: Rect, config: PlannerConfig) -> Self {
        Self {
            grid: Grid::new(region, config.grid_side),
            config,
            chains: BTreeMap::new(),
            queries: BTreeMap::new(),
            next_query: 0,
            dropped_unmaterialized: 0,
            tenant_shares: None,
            engine_clock: None,
            retired_metrics: OperatorMetrics::default(),
            router: Router::new(config.grid_side),
            stagings: Vec::new(),
            cores: craqr_stats::host_cores(),
        }
    }

    /// Installs (or removes) the per-operator processing-time clock on every
    /// materialized chain, and remembers it for chains materialized
    /// later. Timing-only observability: `busy_ns` is excluded from
    /// metric equality, so this never changes any deterministic artifact.
    pub fn set_engine_clock(&mut self, clock: Option<fn() -> u64>) {
        self.engine_clock = clock;
        for chain in self.chains.values_mut() {
            chain.set_clock(clock);
        }
    }

    /// The logical grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The root-seed derivation for one (cell, attribute) chain — the
    /// single definition both query insertion and chain rebuilds use, so
    /// a rebuilt chain provably restarts the RNG streams a fresh insert
    /// would create.
    fn chain_seed(&self, cell: CellId, attr: AttributeId) -> u64 {
        self.config
            .seed
            .wrapping_add((cell.q as u64) << 32 | cell.r as u64)
            .wrapping_add((attr.0 as u64) << 16)
    }

    /// The planner configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Inserts a standing query (Section V "Query Insertions"), returning
    /// its id.
    pub fn insert_query(&mut self, query: AcquisitionQuery) -> Result<QueryId, PlanError> {
        self.insert_query_parts(query, &[query.region])
    }

    /// Inserts a standing query whose footprint is a union of disjoint
    /// rectangles — the shape of the paper's `R1` in Fig. 2, which covers
    /// an L of three grid cells.
    ///
    /// `query.region` is treated as the nominal region (for display); the
    /// effective footprint is `parts`. Each grid cell may be touched by at
    /// most one part (grid-aligned footprints always satisfy this).
    ///
    /// # Panics
    /// Panics when parts overlap each other or when two parts touch the
    /// same grid cell.
    pub fn insert_query_parts(
        &mut self,
        query: AcquisitionQuery,
        parts: &[Rect],
    ) -> Result<QueryId, PlanError> {
        // Disjointness check (panics on overlap — a planner-usage bug).
        let footprint_check = Region::from_disjoint(parts.to_vec());

        let mut overlaps = Vec::new();
        for part in parts {
            overlaps.extend(self.grid.cells_overlapping(part));
        }
        if overlaps.is_empty() {
            return Err(PlanError::OutsideRegion(query.region));
        }
        {
            let mut cells_seen: Vec<CellId> = overlaps.iter().map(|o| o.cell).collect();
            cells_seen.sort();
            let before = cells_seen.len();
            cells_seen.dedup();
            assert_eq!(before, cells_seen.len(), "query parts share a grid cell");
        }
        let clipped_area: f64 = overlaps.iter().map(|o| o.overlap.area()).sum();
        if self.config.enforce_min_area && clipped_area + 1e-9 < self.grid.cell_area() {
            return Err(PlanError::TooSmall {
                query_area: footprint_check.area(),
                min_area: self.grid.cell_area(),
            });
        }
        let qid = QueryId(self.next_query);
        self.next_query += 1;

        let mut cells = Vec::with_capacity(overlaps.len());
        let mut parts = Vec::with_capacity(overlaps.len());
        let engine_clock = self.engine_clock;
        for o in &overlaps {
            let cell_rect = self.grid.cell_rect(o.cell);
            let chain_seed = self.chain_seed(o.cell, query.attr);
            // "If the key is absent, it is created and a F-operator is
            // added to it."
            let chain = self.chains.entry((o.cell, query.attr)).or_insert_with(|| {
                let mut chain = AttrChain::new(
                    cell_rect,
                    self.config.batch_duration,
                    query.rate,
                    self.config.f_headroom,
                    self.config.shape,
                    chain_seed,
                );
                chain.set_clock(engine_clock);
                chain
            });
            chain.insert_consumer(qid, cells.len() as u32, query.rate, o.overlap, o.full);
            cells.push((o.cell, o.overlap, o.full));
            parts.push(o.overlap);
        }

        // The merge's output region is the footprint: build it once.
        let merge = UnionOp::nary(parts);
        let footprint = merge.output_region().clone();
        let plan = QueryPlan { query, cells, footprint };
        self.queries.insert(qid, Standing::new(plan, merge));
        self.tenant_shares = None;
        self.router.stale = true;
        Ok(qid)
    }

    /// Deletes a standing query (Section V "Query Deletions"). Returns its
    /// bank: what ingest merged for it and nobody took, oldest delivery
    /// first.
    pub fn delete_query(&mut self, qid: QueryId) -> Result<Vec<CrowdTuple>, PlanError> {
        let mut standing = self.queries.remove(&qid).ok_or(PlanError::UnknownQuery(qid))?;
        self.tenant_shares = None;
        let leftovers = standing.take_bank();
        let plan = &standing.plan;
        for (cell, _, _) in &plan.cells {
            let key = (*cell, plan.query.attr);
            let Some(chain) = self.chains.get_mut(&key) else { continue };
            chain.delete_consumer(qid);
            // "…until all the streams and the key in the hashmap are
            // deleted."
            if chain.is_empty() {
                self.retired_metrics.absorb(&chain.metrics());
                self.chains.remove(&key);
                self.router.stale = true;
            }
        }
        Ok(leftovers)
    }

    /// Tears one (cell, attribute) chain down and rebuilds it from its
    /// standing consumers — the adaptive controller's actuator after a
    /// confirmed regime shift. The fresh chain restarts its `N_v`
    /// telemetry and its flatten and thinning RNG streams from the same
    /// seed derivation query insertion uses, so a rebuild is deterministic
    /// and (like every chain mutation) identical across [`ExecMode`]s.
    ///
    /// Consumers re-attach in ascending [`QueryId`], each on its old port.
    /// Nothing is lost: a chain holds no output between ingests, and what
    /// ingest merged sits in the queries' banks, not the chain. Returns
    /// `false` when no such chain is materialized.
    pub fn rebuild_chain(&mut self, cell: CellId, attr: AttributeId) -> bool {
        let Some(old) = self.chains.remove(&(cell, attr)) else { return false };
        // The standing consumers of this chain, ascending by query id.
        let mut consumers: Vec<(QueryId, u32, f64, Rect, bool)> = Vec::new();
        for (qid, Standing { plan, .. }) in &self.queries {
            if plan.query.attr != attr {
                continue;
            }
            if let Some(port) = plan.cells.iter().position(|(c, _, _)| *c == cell) {
                let (_, overlap, full) = plan.cells[port];
                consumers.push((*qid, port as u32, plan.query.rate, overlap, full));
            }
        }
        // The chain's RNG streams and `N_v` telemetry restart (that is
        // the point of a rebuild), but its processed-work history joins
        // the retired aggregate: operator counters are fleet-cumulative.
        self.retired_metrics.absorb(&old.metrics());
        let cell_rect = self.grid.cell_rect(cell);
        let initial_rate =
            consumers.iter().map(|(_, _, r, _, _)| *r).fold(f64::MIN_POSITIVE, f64::max);
        let mut chain = AttrChain::new(
            cell_rect,
            self.config.batch_duration,
            initial_rate,
            self.config.f_headroom,
            self.config.shape,
            self.chain_seed(cell, attr),
        );
        chain.set_clock(self.engine_clock);
        for &(qid, port, rate, overlap, full) in &consumers {
            chain.insert_consumer(qid, port, rate, overlap, full);
        }
        self.chains.insert((cell, attr), chain);
        true
    }

    /// The standing query plans.
    pub fn query_plan(&self, qid: QueryId) -> Option<&QueryPlan> {
        self.queries.get(&qid).map(|s| &s.plan)
    }

    /// Ids of all standing queries, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries.keys().copied().collect()
    }

    /// Number of materialized (cell, attribute) chains.
    pub fn materialized_chains(&self) -> usize {
        self.chains.len()
    }

    /// Number of materialized cells (a cell's chains are adjacent keys).
    pub fn materialized_cells(&self) -> usize {
        let mut last = None;
        self.chains.keys().filter(|(cell, _)| last.replace(*cell) != Some(*cell)).count()
    }

    /// Tuples dropped at the map phase because their cell had no standing
    /// query.
    pub fn dropped_unmaterialized(&self) -> u64 {
        self.dropped_unmaterialized
    }

    /// The flatten telemetry of every chain, ascending by
    /// `(cell, attribute)`: `(cell, attribute, report, current λ̄)`.
    pub fn flatten_reports(&self) -> Vec<(CellId, AttributeId, Arc<FlattenReport>, f64)> {
        self.chains
            .iter()
            .map(|((cell, attr), chain)| (*cell, *attr, chain.flatten_report(), chain.f_rate()))
            .collect()
    }

    /// Every chain's flatten telemetry, read in place, ascending by
    /// `(cell, attribute)` — what budget tuning walks each epoch.
    pub fn flatten_telemetry(
        &self,
    ) -> impl Iterator<Item = ((CellId, AttributeId), &FlattenReport)> + '_ {
        self.chains.iter().map(|(key, chain)| (*key, chain.flatten()))
    }

    /// How many of `responses` each chain's cell and attribute received,
    /// ascending by `(cell, attribute)`: the shortfall feedback of bounded
    /// retry. Responses no chain takes count nowhere.
    pub fn responses_per_chain(
        &mut self,
        responses: &[SensorResponse],
    ) -> impl Iterator<Item = ((CellId, AttributeId), u64)> + '_ {
        let counts = self.router.count(&self.grid, self.chains.keys(), responses);
        self.chains.keys().copied().zip(counts.iter().copied())
    }

    /// Current demand per materialized chain, ascending by
    /// `(cell, attribute)`: `(cell, attr, λ̄)` — what the request/response
    /// handler must feed.
    pub fn demands(&self) -> Vec<(CellId, AttributeId, f64)> {
        self.chains.iter().map(|((cell, attr), chain)| (*cell, *attr, chain.f_rate())).collect()
    }

    /// Ensures the tenant-share cache reflects the current query set.
    /// Call before [`Fabricator::tenant_shares`]; a no-op while the cache
    /// is warm (the query set only changes on insert/delete, not per
    /// epoch).
    pub fn refresh_tenant_shares(&mut self) {
        if self.tenant_shares.is_none() {
            self.tenant_shares = Some(self.compute_tenant_shares());
        }
    }

    /// Per-chain tenant ownership: for every materialized (cell,
    /// attribute) chain, the tenants whose standing queries consume it,
    /// with each tenant's share of the chain's cost — the tenant's summed
    /// consumer rates over the chain's total consumer rates. Shares are
    /// ascending by [`crate::tenant::TenantId`] and sum to 1 per chain;
    /// the whole map is a deterministic function of the standing queries,
    /// so tenant charging inherits the executor determinism contract.
    ///
    /// # Panics
    /// Panics when the cache is cold — run
    /// [`Fabricator::refresh_tenant_shares`] first (the split exists so
    /// the epoch loop can hold this borrow immutably alongside others).
    #[track_caller]
    pub fn tenant_shares(&self) -> &crate::handler::ChainShares {
        self.tenant_shares.as_ref().expect("refresh_tenant_shares() before tenant_shares()")
    }

    fn compute_tenant_shares(&self) -> crate::handler::ChainShares {
        let mut rates: BTreeMap<(CellId, AttributeId), BTreeMap<_, f64>> = BTreeMap::new();
        // Accumulated ascending by query id: the per-tenant rate sums are
        // floating-point, and float addition is not associative — the
        // summation order of a checksummed value must be canonical.
        for Standing { plan, .. } in self.queries.values() {
            for (cell, _, _) in &plan.cells {
                *rates
                    .entry((*cell, plan.query.attr))
                    .or_default()
                    .entry(plan.query.tenant)
                    .or_insert(0.0) += plan.query.rate;
            }
        }
        rates
            .into_iter()
            .map(|(key, by_tenant)| {
                let total: f64 = by_tenant.values().sum();
                let shares = by_tenant
                    .into_iter()
                    .map(|(tenant, rate)| (tenant, if total > 0.0 { rate / total } else { 0.0 }))
                    .collect();
                (key, shares)
            })
            .collect()
    }

    /// **map + process + merge**: routes one ingestion batch to the
    /// per-cell chains and runs them under the default [`ExecMode`].
    pub fn ingest_batch(&mut self, tuples: &[CrowdTuple]) {
        self.ingest_batch_mode(tuples, ExecMode::Serial);
    }

    /// **map + process + merge** under an explicit [`ExecMode`].
    ///
    /// The map phase (tuple → chain routing) always runs on the calling
    /// thread: a table lookup per tuple, then a counting sort by chain
    /// ordinal into one reused buffer, so every width hands every chain a
    /// borrowed slice of the batch, in input order. The process phase runs
    /// at the width [`ExecMode::width`] picks for the materialized chains —
    /// under the default [`ExecMode::Serial`], one worker per
    /// [`crate::exec::CHAINS_PER_WORKER`] chains, capped at the host's
    /// cores. The ascending chain list splits round-robin into that many
    /// shards, run through [`craqr_stats::fan_out`]; at width 1 that is
    /// every chain on the calling thread in ascending key order. Chains
    /// share nothing (their RNG streams, fit scratch, and buffers are all
    /// chain-local, seeded from the planner's root seed), so the result is
    /// **bit-identical** at every width regardless of scheduling — see the
    /// determinism contract on [`crate::exec`].
    ///
    /// Materialized chains that received nothing this batch record a
    /// starvation epoch so their `N_v` telemetry never goes stale.
    ///
    /// Each shard stages its chains' output as it goes. Once every shard
    /// is done, each query learns where its pieces lie, and the merges run:
    /// the queries split into runs of consecutive ids, balanced by staged
    /// tuples, at most one per query and as many as the ingest's width,
    /// run through [`craqr_stats::fan_out`]. Each merge reads its query's
    /// pieces from the stagings in place and banks one delivery, empty or
    /// not, for every standing query ([`Fabricator::last_delivery`],
    /// [`Fabricator::collect_output`]). A merge writes only its own
    /// query, so every bank is bit-identical at every width. Merge run
    /// `i`'s thread-CPU time joins shard `i`'s [`ShardIngest::busy_ns`].
    ///
    /// # Panics
    /// Panics on `Sharded(0)`; re-raises a chain's panic, whichever shard
    /// ran it ([`craqr_stats::fan_out`]).
    #[track_caller]
    pub fn ingest_batch_mode(&mut self, tuples: &[CrowdTuple], mode: ExecMode) -> IngestReport {
        let shards = mode.width(self.chains.len(), self.cores);
        // map: tuples in unmaterialized cells drop.
        let dropped_now = self.router.route(&self.grid, self.chains.keys(), tuples);
        self.dropped_unmaterialized += dropped_now as u64;

        if self.chains.is_empty() {
            return IngestReport::merge(dropped_now, Vec::new());
        }

        // The ascending chain list is the canonical execution order, and a
        // chain's ordinal is its position in it.
        let (router, chains) = (&self.router, self.chains.len());
        let jobs = self.chains.values_mut().enumerate().map(|(i, chain)| (chain, router.batch(i)));
        if self.stagings.len() < shards {
            self.stagings.resize_with(shards, Staging::default);
        }
        let stagings = &mut self.stagings[..shards];
        // Round-robin over the ordinals, so shards only ever see disjoint
        // sub-lists.
        let per_shard = chains.div_ceil(shards);
        let mut lists: Vec<Vec<_>> = (0..shards).map(|_| Vec::with_capacity(per_shard)).collect();
        for (i, job) in jobs.enumerate() {
            lists[shard_of(i, shards)].push(job);
        }
        let parts = lists.into_iter().zip(stagings.iter_mut()).enumerate();
        let mut stats = fan_out(parts, |(shard, (list, staging))| run_shard(shard, list, staging));

        // Each query's pieces, found in one pass; no tuple moves.
        let stagings = &self.stagings[..shards];
        for (shard, staging) in stagings.iter().enumerate() {
            let mut start = 0;
            for &(qid, port, end) in &staging.pieces {
                let standing = self.queries.get_mut(&qid).expect("a consumer's query stands");
                let piece = &mut standing.pieces[port as usize];
                assert!(piece.1 == piece.2, "{qid} got a second piece on port {port}");
                *piece = (shard, start, end);
                start = end;
            }
        }
        // merge: a query joins the run its midpoint in the cumulative
        // staged count falls in, so runs stay consecutive.
        let width = shards.min(self.queries.len());
        let total: usize = self.queries.values().map(Standing::staged).sum();
        let mut runs: Vec<Vec<&mut Standing>> = (0..width).map(|_| Vec::new()).collect();
        let mut before = 0;
        for standing in self.queries.values_mut() {
            let size = standing.staged();
            let run = ((before + size / 2) * width).checked_div(total).unwrap_or(0);
            before += size;
            runs[run.min(width - 1)].push(standing);
        }
        runs.retain(|run| !run.is_empty());
        let merged =
            fan_out(runs, |run| busy(|| run.into_iter().for_each(|s| s.deliver(stagings))));
        for (shard, ((), busy_ns)) in stats.iter_mut().zip(merged) {
            shard.busy_ns += busy_ns;
        }
        IngestReport::merge(dropped_now, stats)
    }

    /// Takes everything ingest banked for a query so far — one
    /// time-ordered MCDS slice an ingest, in ingest order — leaving its
    /// bank empty.
    pub fn collect_output(&mut self, qid: QueryId) -> Result<Vec<CrowdTuple>, PlanError> {
        let standing = self.queries.get_mut(&qid).ok_or(PlanError::UnknownQuery(qid))?;
        Ok(standing.take_bank())
    }

    /// Number of tuples banked for a query.
    pub fn buffered_len(&self, qid: QueryId) -> usize {
        self.queries.get(&qid).map_or(0, |s| s.banked)
    }

    /// What the last ingest banked for each standing query and nobody
    /// took since, ascending by id.
    pub fn last_delivery(&self) -> impl Iterator<Item = (QueryId, &[CrowdTuple])> {
        self.queries.iter().map(|(qid, s)| (*qid, s.bank.last().map_or(&[][..], Vec::as_slice)))
    }

    /// Total tuples processed across every chain (the work measure of the
    /// multi-query sharing experiments).
    pub fn tuples_processed(&self) -> u64 {
        self.chains.values().map(AttrChain::tuples_processed).sum()
    }

    /// Fleet-wide operator metrics: every chain's operator counters folded
    /// into one [`OperatorMetrics`] snapshot, chains visited
    /// in ascending `(cell, attribute)` order so the aggregate is
    /// deterministic. Includes the history of retired chains (rebuilt or
    /// dematerialized) — the aggregate is cumulative over the fabricator's
    /// whole life, never reset by churn or adaptive rebuilds. Scenario
    /// reports compress this further with
    /// [`OperatorMetrics::by_kind`].
    pub fn chain_metrics(&self) -> OperatorMetrics {
        let mut agg = self.retired_metrics.clone();
        for chain in self.chains.values() {
            agg.absorb(&chain.metrics());
        }
        agg
    }

    /// Renders every materialized chain, ascending by cell then attribute —
    /// the textual form of Fig. 2(b).
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for ((cell, attr), chain) in &self.chains {
            let _ = writeln!(s, "R{cell} {attr}: {}", chain.explain());
        }
        s
    }

    /// Access to one chain (for tests and experiments).
    pub fn chain(&self, cell: CellId, attr: AttributeId) -> Option<&AttrChain> {
        self.chains.get(&(cell, attr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::SpaceTimePoint;
    use craqr_sensing::{AttrValue, SensorId};
    use std::collections::HashMap;

    fn region() -> Rect {
        Rect::with_size(4.0, 4.0)
    }

    fn fab() -> Fabricator {
        Fabricator::new(region(), PlannerConfig { grid_side: 4, ..Default::default() })
    }

    fn query(attr: u16, rect: Rect, rate: f64) -> AcquisitionQuery {
        AcquisitionQuery::new(AttributeId(attr), rect, rate)
    }

    fn tuples(attr: u16, n: usize, t0: f64, rect: Rect) -> Vec<CrowdTuple> {
        (0..n)
            .map(|i| {
                let fx = ((i as f64 * 0.754_877).fract() * rect.width()) + rect.x0;
                let fy = ((i as f64 * 0.569_84).fract() * rect.height()) + rect.y0;
                CrowdTuple {
                    id: i as u64,
                    attr: AttributeId(attr),
                    point: SpaceTimePoint::new(t0 + (i as f64 / n as f64) * 5.0, fx, fy),
                    value: AttrValue::Float(1.0),
                    sensor: SensorId(0),
                }
            })
            .collect()
    }

    #[test]
    fn only_touched_cells_materialize() {
        let mut f = fab();
        // One-cell query: exactly one chain materializes out of 16 cells.
        let qid = f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 2.0)).unwrap();
        assert_eq!(f.materialized_cells(), 1);
        assert_eq!(f.materialized_chains(), 1);
        let plan = f.query_plan(qid).unwrap();
        assert_eq!(plan.cells.len(), 1);
        assert!(plan.cells[0].2, "query covers the whole cell");
    }

    #[test]
    fn query_spanning_cells_materializes_each() {
        let mut f = fab();
        let qid = f.insert_query(query(0, Rect::new(0.0, 0.0, 2.0, 2.0), 1.0)).unwrap();
        assert_eq!(f.materialized_cells(), 4);
        let plan = f.query_plan(qid).unwrap();
        assert_eq!(plan.cells.len(), 4);
        assert!(plan.cells.iter().all(|(_, _, full)| *full));
        assert!((plan.footprint.area() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn partial_overlap_is_recorded() {
        let mut f = fab();
        // Query offset by half a cell: 4 cells touched, all partial.
        let qid = f.insert_query(query(0, Rect::new(0.5, 0.5, 1.5, 1.5), 1.0)).unwrap();
        let plan = f.query_plan(qid).unwrap();
        assert_eq!(plan.cells.len(), 4);
        assert!(plan.cells.iter().all(|(_, _, full)| !*full));
    }

    #[test]
    fn rejects_query_outside_region() {
        let mut f = fab();
        let err = f.insert_query(query(0, Rect::new(10.0, 10.0, 12.0, 12.0), 1.0)).unwrap_err();
        assert!(matches!(err, PlanError::OutsideRegion(_)));
    }

    #[test]
    fn rejects_sliver_query_on_a_cell_edge() {
        // Thinner than GEOM_EPS and starting on a cell edge: it touches no
        // cell's interior, in debug and release builds alike.
        let mut f = Fabricator::new(
            Rect::with_size(8.0, 8.0),
            PlannerConfig { grid_side: 16, ..Default::default() },
        );
        let sliver = Rect::new(2.0, 1.0, 2.0 + 1e-12, 3.0);
        let err = f.insert_query(query(0, sliver, 1.0)).unwrap_err();
        assert_eq!(err, PlanError::OutsideRegion(sliver));
        assert_eq!(f.materialized_chains(), 0);
    }

    #[test]
    fn rejects_query_below_cell_area() {
        let mut f = fab();
        let err = f.insert_query(query(0, Rect::new(0.0, 0.0, 0.5, 0.5), 1.0)).unwrap_err();
        assert!(matches!(err, PlanError::TooSmall { .. }));
    }

    #[test]
    fn same_attr_queries_share_chains() {
        let mut f = fab();
        f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 4.0)).unwrap();
        f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 2.0)).unwrap();
        // Same cell, same attribute: one chain with two taps.
        assert_eq!(f.materialized_chains(), 1);
        let chain = f.chain(CellId::new(0, 0), AttributeId(0)).unwrap();
        assert_eq!(chain.tap_rates(), vec![4.0, 2.0]);
    }

    #[test]
    fn different_attrs_get_separate_chains() {
        let mut f = fab();
        f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 1.0)).unwrap();
        f.insert_query(query(1, Rect::new(0.0, 0.0, 1.0, 1.0), 1.0)).unwrap();
        assert_eq!(f.materialized_cells(), 1);
        assert_eq!(f.materialized_chains(), 2);
    }

    #[test]
    fn walks_ascend_whatever_the_insertion_order() {
        let mut f = fab();
        // Descending cells, the shared cell's attributes descending too.
        for (attr, q, r) in [(0, 3, 3), (1, 2, 1), (0, 2, 1), (0, 0, 2), (0, 0, 0)] {
            let (x, y) = (q as f64, r as f64);
            f.insert_query(query(attr, Rect::new(x, y, x + 1.0, y + 1.0), 1.0)).unwrap();
        }
        let keys: Vec<_> = f.flatten_reports().iter().map(|(c, a, _, _)| (*c, *a)).collect();
        assert_eq!(keys.len(), 5);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        let demanded: Vec<_> = f.demands().iter().map(|(c, a, _)| (*c, *a)).collect();
        assert_eq!(demanded, keys);
        assert!(f.query_ids().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(f.materialized_cells(), 4, "cell (2,1) holds two chains, counts once");
    }

    #[test]
    fn deletion_dematerializes_empty_cells() {
        let mut f = fab();
        let q1 = f.insert_query(query(0, Rect::new(0.0, 0.0, 2.0, 1.0), 2.0)).unwrap();
        let q2 = f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 1.0)).unwrap();
        assert_eq!(f.materialized_cells(), 2);
        f.delete_query(q1).unwrap();
        // Cell (1,0) only served q1: its key must be gone.
        assert_eq!(f.materialized_cells(), 1);
        assert!(f.chain(CellId::new(1, 0), AttributeId(0)).is_none());
        f.delete_query(q2).unwrap();
        assert_eq!(f.materialized_cells(), 0);
        assert_eq!(f.materialized_chains(), 0);
    }

    #[test]
    fn delete_unknown_query_errors() {
        let mut f = fab();
        assert!(matches!(f.delete_query(QueryId(9)), Err(PlanError::UnknownQuery(_))));
    }

    #[test]
    fn map_phase_drops_unmaterialized_tuples() {
        let mut f = fab();
        f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 1.0)).unwrap();
        // Tuples in a far cell and with an unknown attribute.
        let far = tuples(0, 50, 0.0, Rect::new(3.0, 3.0, 4.0, 4.0));
        let wrong_attr = tuples(9, 50, 0.0, Rect::new(0.0, 0.0, 1.0, 1.0));
        f.ingest_batch(&far);
        f.ingest_batch(&wrong_attr);
        assert_eq!(f.dropped_unmaterialized(), 100);
    }

    #[test]
    fn end_to_end_fabrication_delivers_rated_stream() {
        let mut f = fab();
        let qid = f.insert_query(query(0, Rect::new(0.0, 0.0, 2.0, 2.0), 1.0)).unwrap();
        // Feed 12 epochs of abundant raw tuples over the query footprint.
        for e in 0..12 {
            let batch = tuples(0, 2_000, e as f64 * 5.0, Rect::new(0.0, 0.0, 2.0, 2.0));
            f.ingest_batch(&batch);
        }
        let out = f.collect_output(qid).unwrap();
        // Requested: 1 /km²/min × 4 km² × 60 min = 240 tuples.
        let got = out.len() as f64;
        assert!((got - 240.0).abs() < 75.0, "delivered {got}, want ≈240");
        // Time-ordered and inside the footprint.
        for pair in out.windows(2) {
            assert!(pair[0].point.t <= pair[1].point.t);
        }
        let plan = f.query_plan(qid).unwrap();
        for t in &out {
            assert!(plan.footprint.contains(t.point.x, t.point.y));
        }
    }

    #[test]
    fn partial_overlap_output_respects_footprint() {
        let mut f = fab();
        let foot = Rect::new(0.5, 0.5, 1.5, 1.5);
        let qid = f.insert_query(query(0, foot, 1.0)).unwrap();
        for e in 0..8 {
            // Feed the whole 2x2 block so the P-operators must carve.
            let batch = tuples(0, 2_000, e as f64 * 5.0, Rect::new(0.0, 0.0, 2.0, 2.0));
            f.ingest_batch(&batch);
        }
        let out = f.collect_output(qid).unwrap();
        assert!(!out.is_empty());
        for t in &out {
            assert!(
                foot.contains(t.point.x, t.point.y),
                "tuple at ({}, {}) escaped footprint",
                t.point.x,
                t.point.y
            );
        }
    }

    #[test]
    fn parallel_ingest_matches_serial_exactly() {
        let build = || {
            let mut f = fab();
            let q = f.insert_query(query(0, Rect::new(0.0, 0.0, 4.0, 4.0), 0.5)).unwrap();
            (f, q)
        };
        let (mut serial, qs) = build();
        let (mut parallel, qp) = build();
        for e in 0..6 {
            let batch = tuples(0, 3_000, e as f64 * 5.0, Rect::new(0.0, 0.0, 4.0, 4.0));
            serial.ingest_batch(&batch);
            parallel.ingest_batch_mode(&batch, ExecMode::Sharded(4));
        }
        let out_s = serial.collect_output(qs).unwrap();
        let out_p = parallel.collect_output(qp).unwrap();
        assert_eq!(out_s.len(), out_p.len());
        let ids_s: Vec<u64> = out_s.iter().map(|t| t.id).collect();
        let ids_p: Vec<u64> = out_p.iter().map(|t| t.id).collect();
        assert_eq!(ids_s, ids_p, "chains are deterministic regardless of scheduling");
    }

    #[test]
    fn a_pinned_width_runs_at_most_one_shard_per_chain() {
        let build = || {
            let mut f = fab();
            let q = f.insert_query(query(0, Rect::new(0.0, 0.0, 4.0, 4.0), 2.0)).unwrap();
            (f, q)
        };
        let (mut one, q1) = build();
        let (mut wide, q64) = build();
        assert_eq!(wide.chains.len(), 16);
        for e in 0..4 {
            let batch = tuples(0, 2_000, e as f64 * 5.0, Rect::new(0.0, 0.0, 4.0, 4.0));
            assert_eq!(one.ingest_batch_mode(&batch, ExecMode::Sharded(1)).shards.len(), 1);
            let report = wide.ingest_batch_mode(&batch, ExecMode::Sharded(64));
            assert_eq!(report.shards.len(), 16, "one shard per chain, not 64");
            assert!(report.shards.iter().all(|s| s.chains == 1));
        }
        let bits = |out: Vec<CrowdTuple>| -> Vec<_> {
            out.iter().map(|t| (t.id, t.point.t.to_bits(), t.point.x.to_bits())).collect()
        };
        let (a, b) = (one.collect_output(q1).unwrap(), wide.collect_output(q64).unwrap());
        assert!(!a.is_empty());
        assert_eq!(bits(a), bits(b), "Sharded(64) and Sharded(1) deliver the same bits");
    }

    #[test]
    fn parallel_ingest_records_starvation_too() {
        let mut f = fab();
        f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 1.0)).unwrap();
        f.ingest_batch_mode(&[], ExecMode::Sharded(2));
        let reports = f.flatten_reports();
        assert_eq!(reports[0].2.batches(), 1);
        assert_eq!(reports[0].2.last_nv(), 100.0);
    }

    /// Ingests one tuple at `t = +∞` into the chain with ordinal 1, which
    /// round-robin puts on the first spawned worker at every width above 1.
    fn ingest_an_infinite_time(mode: ExecMode) {
        let mut f = fab();
        f.insert_query(query(0, Rect::new(0.0, 0.0, 4.0, 4.0), 1.0)).unwrap();
        let (cell, _) = *f.chains.keys().nth(1).unwrap();
        let mut bad = tuples(0, 1, 0.0, f.grid().cell_rect(cell));
        bad[0].point.t = f64::INFINITY;
        f.ingest_batch_mode(&bad, mode);
    }

    #[test]
    #[should_panic(expected = "window times must be finite")]
    fn a_chain_panic_keeps_its_message_at_width_1() {
        ingest_an_infinite_time(ExecMode::Serial);
    }

    #[test]
    #[should_panic(expected = "window times must be finite")]
    fn a_chain_panic_keeps_its_message_on_a_worker() {
        ingest_an_infinite_time(ExecMode::Sharded(2));
    }

    #[test]
    fn rebuild_chain_restarts_telemetry_and_keeps_consumers() {
        let mut f = fab();
        let q1 = f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 4.0)).unwrap();
        let q2 = f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 2.0)).unwrap();
        // Two cells: the rebuilt cell (1, 0) is this query's port 1.
        let q3 = f.insert_query(query(0, Rect::new(0.0, 0.0, 2.0, 1.0), 1.0)).unwrap();
        let cell = CellId::new(0, 0);
        for e in 0..4 {
            f.ingest_batch(&tuples(0, 500, e as f64 * 5.0, Rect::new(0.0, 0.0, 2.0, 1.0)));
        }
        assert!(f.chain(cell, AttributeId(0)).unwrap().flatten_report().batches() > 0);
        // What ingest delivered sits in the queries' banks, not the chain,
        // so the rebuild loses none of it.
        let banks = [q1, q2].map(|q| f.queries[&q].bank.clone());
        assert!(f.rebuild_chain(cell, AttributeId(0)), "chain exists");
        let chain = f.chain(cell, AttributeId(0)).expect("chain rebuilt");
        assert_eq!(chain.tap_rates(), vec![4.0, 2.0, 1.0], "consumers re-attached");
        assert_eq!(chain.query_ids(), vec![q1, q2, q3]);
        assert_eq!(chain.flatten_report().batches(), 0, "telemetry restarted");
        for (q, bank) in [q1, q2].into_iter().zip(banks) {
            assert_eq!(bank.len(), 4, "{q}: one delivery an ingest");
            assert!(bank.iter().all(|delivery| !delivery.is_empty()), "{q} had output banked");
            assert!(f.collect_output(q).unwrap() == bank.concat(), "{q}'s banked output kept");
        }
        // A rebuilt consumer keeps its port: one shard staged both of q3's
        // pieces, cell (0, 0)'s on port 0 before cell (1, 0)'s on port 1.
        assert!(f.rebuild_chain(CellId::new(1, 0), AttributeId(0)));
        f.ingest_batch(&tuples(0, 500, 20.0, Rect::new(0.0, 0.0, 2.0, 1.0)));
        let pieces = &f.stagings[0].pieces;
        let ports: Vec<u32> = pieces.iter().filter(|p| p.0 == q3).map(|p| p.1).collect();
        assert_eq!(ports, vec![0, 1]);
        assert!(!f.rebuild_chain(CellId::new(3, 3), AttributeId(0)), "unmaterialized");
    }

    #[test]
    fn explain_lists_materialized_chains() {
        let mut f = fab();
        f.insert_query(query(0, Rect::new(0.0, 0.0, 1.0, 1.0), 2.0)).unwrap();
        f.insert_query(query(1, Rect::new(1.0, 0.0, 2.0, 1.0), 3.0)).unwrap();
        let s = f.explain();
        assert!(s.contains("R(0,0) A<0>: F"), "{s}");
        assert!(s.contains("R(1,0) A<1>: F"), "{s}");
    }

    #[test]
    fn collect_from_unknown_query_errors() {
        let mut f = fab();
        assert!(matches!(f.collect_output(QueryId(3)), Err(PlanError::UnknownQuery(_))));
    }

    /// The grouping the counting sort replaced: one `HashMap` entry of
    /// tuples per materialized chain, plus the dropped count.
    fn oracle_groups(
        f: &Fabricator,
        tuples: &[CrowdTuple],
    ) -> (HashMap<(CellId, AttributeId), Vec<CrowdTuple>>, usize) {
        let mut groups: HashMap<_, Vec<CrowdTuple>> = HashMap::new();
        let mut dropped = 0;
        for t in tuples {
            match f.grid.cell_of(t.point.x, t.point.y) {
                Some(cell) if f.chains.contains_key(&(cell, t.attr)) => {
                    groups.entry((cell, t.attr)).or_default().push(*t)
                }
                _ => dropped += 1,
            }
        }
        (groups, dropped)
    }

    /// The query-major side of the oracles: a fabricator whose chains stage
    /// into a map instead of the shard stagings.
    struct Oracle {
        f: Fabricator,
        /// `(chain, query)` → everything the chain produced for the query
        /// and nobody took yet, in ingest order.
        out: BTreeMap<((CellId, AttributeId), QueryId), Vec<CrowdTuple>>,
    }

    /// The map/process the router replaced: every chain, in key order, gets
    /// its own group or records a starvation epoch.
    fn oracle_ingest(o: &mut Oracle, tuples: &[CrowdTuple]) {
        let (groups, dropped) = oracle_groups(&o.f, tuples);
        o.f.dropped_unmaterialized += dropped as u64;
        let mut staging = Staging::default();
        for (key, chain) in &mut o.f.chains {
            match groups.get(key) {
                Some(batch) => chain.process_batch(batch, &mut staging),
                None => chain.record_starved_epoch(),
            }
            let mut start = 0;
            for &(qid, _, end) in &staging.pieces {
                let piece = &staging.tuples[start..end];
                o.out.entry((*key, qid)).or_default().extend_from_slice(piece);
                start = end;
            }
            staging.clear();
        }
    }

    /// The merge that reading the stagings in place replaced: a query-major
    /// walk that takes each cell's output for the query and pushes it
    /// through `U` on its own port.
    fn oracle_collect(o: &mut Oracle, qid: QueryId) -> Vec<CrowdTuple> {
        let Standing { plan, merge, .. } = &o.f.queries[&qid];
        let mut out = Vec::new();
        for (port, (cell, _, _)) in plan.cells.iter().enumerate() {
            if let Some(piece) = o.out.remove(&((*cell, plan.query.attr), qid)) {
                merge.process(port, &piece, &mut out);
            }
        }
        out.sort_by(|a, b| a.point.t.total_cmp(&b.point.t));
        out
    }

    /// Three queries over two of the three attributes tuples carry, two of
    /// them only partly covering their cells; cells on the grid's far side
    /// stay unmaterialized.
    fn routing_fab() -> (Fabricator, Vec<QueryId>) {
        let mut f = fab();
        let qids = vec![
            f.insert_query(query(0, Rect::new(0.0, 0.0, 2.0, 2.0), 1.0)).unwrap(),
            f.insert_query(query(1, Rect::new(0.5, 0.5, 2.5, 2.5), 0.5)).unwrap(),
            f.insert_query(query(0, Rect::new(1.0, 0.5, 3.0, 2.0), 2.0)).unwrap(),
        ];
        (f, qids)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Routing against the grouping it replaced, and every ingest's
        /// merge against the query-major walk: with every tuple of an epoch
        /// at one time (the stable sort then keeps port order), at widths 1
        /// to 4, with a query deleted and one on a new attribute inserted
        /// between the first two ingests, and with a query deleted after
        /// the last. Each ingest banks one delivery a query; a deletion or
        /// [`Fabricator::collect_output`] returns them all, in ingest order.
        #[test]
        fn routing_matches_the_grouping_it_replaced(
            epochs in prop::collection::vec(
                prop::collection::vec((-1.0f64..5.0, -1.0f64..5.0, 0u16..4, 0.0f64..5.0), 0..160),
                2..4,
            ),
            shards in 0usize..5,
            one_time in any::<bool>(),
            retired in prop::option::of(0usize..3),
            added in any::<bool>(),
            victim in prop::option::of(0usize..4),
        ) {
            let mode = if shards == 0 { ExecMode::Serial } else { ExecMode::Sharded(shards) };
            let (mut f, mut qids) = routing_fab();
            let mut grouped = Oracle { f: routing_fab().0, out: BTreeMap::new() };
            // The oracle's merges per query so far, in ingest order: what
            // the bank must hold.
            let mut banked: BTreeMap<QueryId, Vec<CrowdTuple>> = BTreeMap::new();
            let mut next_id = 0;
            for (e, draws) in epochs.iter().enumerate() {
                let batch: Vec<CrowdTuple> = draws
                    .iter()
                    .map(|&(x, y, attr, dt)| {
                        next_id += 1;
                        let dt = if one_time { 2.5 } else { dt };
                        CrowdTuple {
                            id: next_id,
                            attr: AttributeId(attr),
                            point: SpaceTimePoint::new(e as f64 * 5.0 + dt, x, y),
                            value: AttrValue::Float(x - y),
                            sensor: SensorId(next_id % 7),
                        }
                    })
                    .collect();
                let (groups, dropped) = oracle_groups(&f, &batch);
                let report = f.ingest_batch_mode(&batch, mode);
                prop_assert_eq!(report.dropped, dropped);
                prop_assert_eq!(report.routed, batch.len() - dropped);
                prop_assert_eq!(report.chains(), f.materialized_chains());
                for (i, key) in f.chains.keys().enumerate() {
                    let want = groups.get(key).map_or(&[][..], Vec::as_slice);
                    prop_assert!(
                        f.router.batch(i) == want,
                        "epoch {e}, chain {key:?}: routed {:?}, grouped {want:?}",
                        f.router.batch(i)
                    );
                }
                oracle_ingest(&mut grouped, &batch);
                let delivered: Vec<_> = f.last_delivery().map(|(q, out)| (q, out.to_vec())).collect();
                prop_assert_eq!(delivered.iter().map(|(q, _)| *q).collect::<Vec<_>>(), qids.clone());
                for (qid, got) in delivered {
                    let want = oracle_collect(&mut grouped, qid);
                    prop_assert!(got == want, "epoch {e}, {qid}: merged {got:?}, oracle {want:?}");
                    banked.entry(qid).or_default().extend(got);
                }
                if e == 0 {
                    // Query 2 alone taps cells (2, 0) and (2, 1), query 1
                    // alone acquires attribute 1: retiring either leaves
                    // cells whose tuples must drop from now on.
                    if let Some(i) = retired {
                        let qid = qids.remove(i);
                        let got = f.delete_query(qid).unwrap();
                        prop_assert!(got == banked.remove(&qid).unwrap_or_default(), "bank {got:?}");
                        grouped.f.delete_query(qid).unwrap();
                    }
                    // Attribute 2 is above every chain's so far.
                    if added {
                        let q = query(2, Rect::new(2.0, 2.0, 4.0, 3.5), 1.0);
                        let qid = f.insert_query(q).unwrap();
                        prop_assert_eq!(grouped.f.insert_query(q).unwrap(), qid);
                        qids.push(qid);
                    }
                }
            }
            prop_assert_eq!(f.dropped_unmaterialized(), grouped.f.dropped_unmaterialized());
            let (ours, theirs) = (f.chain_metrics(), grouped.f.chain_metrics());
            prop_assert!(ours == theirs, "operator counts differ");
            if let Some(victim) = victim.filter(|&v| v < qids.len()) {
                let qid = qids.remove(victim);
                let got = f.delete_query(qid).unwrap();
                prop_assert!(got == banked.remove(&qid).unwrap_or_default(), "bank {got:?}");
            }
            for &qid in &qids {
                let bank = f.collect_output(qid).unwrap();
                prop_assert!(bank == banked.remove(&qid).unwrap_or_default(), "{qid}'s bank");
                prop_assert_eq!(f.buffered_len(qid), 0);
            }
        }
    }
}
