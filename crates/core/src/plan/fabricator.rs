//! The crowdsensed stream fabricator — "the most important component"
//! (Section IV-B), with the map/process/merge phases of Fig. 2.
//!
//! The paper keeps the per-cell topologies in a "hashmap" keyed by grid
//! cell. Here that table is an ordered map keyed by `(cell, attribute)`,
//! and the standing queries one keyed by [`QueryId`]: every walk over
//! chains or queries feeds something checksummed (execution order, float
//! sums, rendered reports), so canonical ascending order is a property of
//! the key type rather than a sort each caller has to remember.

use super::chain::{AttrChain, Staging};
use super::PlannerConfig;
use crate::exec::{shard_of, ExecMode, IngestReport, ShardIngest};
use crate::ops::FlattenReport;
use crate::query::{AcquisitionQuery, QueryId};
use crate::tuple::CrowdTuple;
use crate::UnionOp;
use craqr_engine::{Emitter, InputPort, Operator};
use craqr_geom::{CellId, Grid, Rect, Region};
use craqr_sensing::AttributeId;
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

/// The map phase's state, kept across epochs so routing a batch allocates
/// only when the batch outgrows every earlier one.
///
/// A chain's *ordinal* is its position in ascending `(cell, attribute)`
/// order. One counting sort over ordinals places the batch in `routed`
/// with each chain's tuples contiguous and in input order, so every chain
/// is handed a borrowed slice instead of a batch of its own.
#[derive(Default)]
struct Router {
    /// The materialized chain keys as of the last [`Router::route`],
    /// ascending: `keys[i]` has ordinal `i`.
    keys: Vec<(CellId, AttributeId)>,
    /// Each input tuple's chain ordinal, or [`UNROUTED`].
    ordinals: Vec<u32>,
    /// After [`Router::route`], chain `i`'s tuples are
    /// `routed[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    routed: Vec<CrowdTuple>,
}

/// The ordinal of a tuple no materialized chain takes.
const UNROUTED: u32 = u32::MAX;

impl Router {
    /// Routes one batch into `routed` over the chains `keys` (ascending);
    /// returns how many tuples dropped (outside the grid, or in a cell with
    /// no chain for their attribute).
    fn route<'a>(
        &mut self,
        grid: &Grid,
        keys: impl Iterator<Item = &'a (CellId, AttributeId)>,
        tuples: &[CrowdTuple],
    ) -> usize {
        self.keys.clear();
        self.keys.extend(keys);
        self.ordinals.clear();
        self.offsets.clear();
        self.offsets.resize(self.keys.len() + 2, 0);
        let mut dropped = 0;
        for t in tuples {
            let key = grid.cell_of(t.point.x, t.point.y).map(|cell| (cell, t.attr));
            match key.and_then(|key| self.keys.binary_search(&key).ok()) {
                Some(i) => {
                    self.offsets[i + 2] += 1;
                    self.ordinals.push(i as u32);
                }
                None => {
                    dropped += 1;
                    self.ordinals.push(UNROUTED);
                }
            }
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
}

/// Runs one shard's chains in the order given, each on its routed slice; a
/// chain whose slice is empty records a starvation epoch instead. Each
/// chain's sinks move onto `staging` (emptied first) while the chain is
/// still hot, so every sink is empty once the shard returns.
fn run_shard<'a>(
    shard: usize,
    jobs: impl IntoIterator<Item = (&'a mut AttrChain, &'a [CrowdTuple])>,
    staging: &mut Staging,
) -> ShardIngest {
    let (mut chains, mut tuples) = (0, 0);
    staging.clear();
    // craqr-lint: allow(R1): busy_ns is timing-tier telemetry, excluded from metric equality and every canonical artifact
    let started = crate::exec::thread_busy_ns();
    for (chain, batch) in jobs {
        chains += 1;
        tuples += batch.len();
        if batch.is_empty() {
            chain.record_starved_epoch();
        } else {
            chain.process_batch(batch);
        }
        chain.stage_output(staging);
    }
    // craqr-lint: allow(R1): same busy_ns span end; never reaches a checksum
    let busy_ns = crate::exec::thread_busy_ns().saturating_sub(started);
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
/// per-cell pieces, and the pieces ingest staged for it.
struct Standing {
    plan: QueryPlan,
    merge: UnionOp,
    staged: Staged,
}

/// One query's output staged by ingest and not merged yet.
#[derive(Default)]
struct Staged {
    tuples: Vec<CrowdTuple>,
    /// `(port, start, end)`: `tuples[start..end]` is for `U` input `port`.
    /// Ingest only appends, so one port's pieces order by `start` in the
    /// order they were ingested.
    pieces: Vec<(u32, usize, usize)>,
}

impl Staged {
    /// Appends one piece for `port`.
    fn push(&mut self, port: u32, piece: &[CrowdTuple]) {
        let start = self.tuples.len();
        self.tuples.extend_from_slice(piece);
        self.pieces.push((port, start, self.tuples.len()));
    }

    /// The staged pieces in port order, each port's in ingest order — the
    /// order a query-major drain of the sinks would have produced.
    fn in_port_order(&mut self) -> impl Iterator<Item = (u32, &[CrowdTuple])> {
        self.pieces.sort_unstable_by_key(|&(port, start, _)| (port, start));
        self.pieces.iter().map(|&(port, start, end)| (port, &self.tuples[start..end]))
    }

    /// Empties the staging, keeping its capacity.
    fn clear(&mut self) {
        self.tuples.clear();
        self.pieces.clear();
    }
}

/// The fabricator: the grid table of per-cell execution topologies plus
/// per-query merge stages.
///
/// - **map** ([`Fabricator::ingest_batch`]): each arriving tuple is routed
///   to its grid cell's key; unmaterialized cells (no standing query there)
///   drop their tuples unprocessed — the grid is "entirely logical".
/// - **process**: the per-(cell, attribute) [`AttrChain`]s push tuples
///   through `F → T … → (P) →` sinks. Right after a chain runs, its sinks
///   move into the shard's staging, each piece tagged `(query, port)`,
///   and ingest hands every piece to its query.
/// - **merge** ([`Fabricator::collect_output`]): a per-query `U`-operator
///   reassembles the staged per-cell pieces, in port order, into the final
///   MCDS, time-ordered. It never touches a chain.
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
    /// Per-node processing-time clock handed to every chain topology
    /// (existing and future). `None` (default): the engine never reads a
    /// clock and `NodeMetrics::busy_ns` stays zero.
    engine_clock: Option<fn() -> u64>,
    /// Operator counters of chains that no longer exist — accumulated when
    /// a chain is rebuilt ([`Fabricator::rebuild_chain`]) or dematerialized
    /// (last consumer deleted), so [`Fabricator::chain_metrics`] reports
    /// the fleet's whole history. Without this, a rebuild on the final
    /// epoch would erase every operator counter from the run's report.
    retired_metrics: craqr_engine::TopologyMetrics,
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
            retired_metrics: craqr_engine::TopologyMetrics::default(),
            router: Router::default(),
            stagings: Vec::new(),
            cores: craqr_stats::host_cores(),
        }
    }

    /// Installs (or removes) the per-node processing-time clock on every
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
                    self.config.estimator,
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
        self.queries.insert(qid, Standing { plan, merge, staged: Staged::default() });
        self.tenant_shares = None;
        Ok(qid)
    }

    /// Deletes a standing query (Section V "Query Deletions"). Returns the
    /// tuples ingested for it since its last merge, in port order.
    pub fn delete_query(&mut self, qid: QueryId) -> Result<Vec<CrowdTuple>, PlanError> {
        let Standing { plan, mut staged, .. } =
            self.queries.remove(&qid).ok_or(PlanError::UnknownQuery(qid))?;
        self.tenant_shares = None;
        let leftovers = staged.in_port_order().flat_map(|(_, piece)| piece).copied().collect();
        for (cell, _, _) in &plan.cells {
            let key = (*cell, plan.query.attr);
            let Some(chain) = self.chains.get_mut(&key) else { continue };
            chain.delete_consumer(qid);
            // "…until all the streams and the key in the hashmap are
            // deleted."
            if chain.is_empty() {
                self.retired_metrics.absorb(&chain.metrics());
                self.chains.remove(&key);
            }
        }
        Ok(leftovers)
    }

    /// Tears one (cell, attribute) chain down and rebuilds it from its
    /// standing consumers — the adaptive controller's actuator after a
    /// confirmed regime shift. The fresh chain restarts its flatten
    /// estimator, `N_v` telemetry, and thinning RNG streams from the same
    /// seed derivation query insertion uses, so a rebuild is deterministic
    /// and (like every chain mutation) identical across [`ExecMode`]s.
    ///
    /// Consumers re-attach in ascending [`QueryId`], each on its old port.
    /// Nothing is lost: ingest leaves every sink empty, and what it staged
    /// belongs to the queries, not the chain. Returns `false` when no such
    /// chain is materialized.
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
        // The chain's flatten estimator and RNG streams restart (that is
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
            self.config.estimator,
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

    /// **map + process**: routes one ingestion batch to the per-cell
    /// chains and runs them under the default [`ExecMode`].
    pub fn ingest_batch(&mut self, tuples: &[CrowdTuple]) {
        self.ingest_batch_mode(tuples, ExecMode::Serial);
    }

    /// **map + process** under an explicit [`ExecMode`].
    ///
    /// The map phase (tuple → chain routing) always runs on the calling
    /// thread: a counting sort by chain ordinal into one reused buffer, so
    /// every width hands every chain a borrowed slice of the batch, in
    /// input order. The process phase runs at the width
    /// [`ExecMode::width`] picks for the materialized chains — under the
    /// default [`ExecMode::Serial`], one worker per
    /// [`crate::exec::CHAINS_PER_WORKER`] chains, capped at the host's
    /// cores. At width 1 every chain runs on the calling thread in
    /// ascending key order. Wider, the ascending chain list splits
    /// round-robin into shards: the calling thread runs shard 0 and a
    /// scoped worker each other shard. Chains share nothing (their RNG
    /// streams, estimators, and sinks are all chain-local, seeded from the
    /// planner's root seed), so the result is **bit-identical** at every
    /// width regardless of scheduling — see the determinism contract on
    /// [`crate::exec`].
    ///
    /// Materialized chains that received nothing this batch record a
    /// starvation epoch so their `N_v` telemetry never goes stale.
    ///
    /// Each shard stages its chains' output as it goes; once every shard
    /// is done, the pieces move to their queries, shard by shard, for
    /// [`Fabricator::collect_output`].
    ///
    /// # Panics
    /// Panics on `Sharded(0)`. A chain's panic reaches the caller with its
    /// own message, whichever shard ran the chain.
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
        let router = &self.router;
        let jobs = self.chains.values_mut().enumerate().map(|(i, chain)| (chain, router.batch(i)));
        if self.stagings.len() < shards {
            self.stagings.resize_with(shards, Staging::default);
        }
        let stagings = &mut self.stagings[..shards];
        let stats: Vec<ShardIngest> = if shards == 1 {
            vec![run_shard(0, jobs, &mut stagings[0])]
        } else {
            // Round-robin over the ordinals, so workers only ever see
            // disjoint sub-lists.
            let per_shard = router.keys.len().div_ceil(shards);
            let mut lists: Vec<Vec<_>> =
                (0..shards).map(|_| Vec::with_capacity(per_shard)).collect();
            for (i, job) in jobs.enumerate() {
                lists[shard_of(i, shards)].push(job);
            }
            std::thread::scope(|scope| {
                let mut lists = lists.into_iter().zip(stagings.iter_mut());
                let (own, own_staging) = lists.next().expect("at least two shards");
                let workers: Vec<_> = lists
                    .enumerate()
                    .map(|(i, (list, staging))| {
                        scope.spawn(move || run_shard(i + 1, list, staging))
                    })
                    .collect();
                let mut stats = Vec::with_capacity(workers.len() + 1);
                stats.push(run_shard(0, own, own_staging));
                // Joining in spawn order keeps the merged stats ascending;
                // a worker's panic continues here with its own payload.
                stats.extend(workers.into_iter().map(|worker| {
                    worker.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                }));
                stats
            })
        };
        for staging in stagings.iter() {
            let mut start = 0;
            for &(qid, port, end) in &staging.pieces {
                let standing = self.queries.get_mut(&qid).expect("a consumer's query stands");
                standing.staged.push(port, &staging.tuples[start..end]);
                start = end;
            }
        }
        IngestReport::merge(dropped_now, stats)
    }

    /// **merge**: feeds the pieces ingest staged for a query through its
    /// `U`-operator in port order (each port's pieces in ingest order) and
    /// returns the fabricated MCDS slice, stably sorted by time, so equal
    /// times keep port order.
    pub fn collect_output(&mut self, qid: QueryId) -> Result<Vec<CrowdTuple>, PlanError> {
        let Standing { merge, staged, .. } =
            self.queries.get_mut(&qid).ok_or(PlanError::UnknownQuery(qid))?;
        // Allocated once, at its final size.
        let mut emitter = Emitter::with_capacity(merge.output_ports(), staged.tuples.len());
        for (port, piece) in staged.in_port_order() {
            merge.process(InputPort(port as u16), piece, &mut emitter);
        }
        staged.clear();
        let mut out = emitter.into_buffers().remove(0);
        out.sort_by(|a, b| a.point.t.total_cmp(&b.point.t));
        Ok(out)
    }

    /// Total tuples processed across every chain (the work measure of the
    /// multi-query sharing experiments).
    pub fn tuples_processed(&self) -> u64 {
        self.chains.values().map(AttrChain::tuples_processed).sum()
    }

    /// Fleet-wide operator metrics: every chain's topology counters folded
    /// into one [`craqr_engine::TopologyMetrics`] snapshot, chains visited
    /// in ascending `(cell, attribute)` order so the aggregate is
    /// deterministic. Includes the history of retired chains (rebuilt or
    /// dematerialized) — the aggregate is cumulative over the fabricator's
    /// whole life, never reset by churn or adaptive rebuilds. Scenario
    /// reports compress this further with
    /// [`craqr_engine::TopologyMetrics::by_kind`].
    pub fn chain_metrics(&self) -> craqr_engine::TopologyMetrics {
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
        // Rebuild between ingest and merge: what ingest staged belongs to
        // the queries, not the chain, so the rebuild loses none of it.
        let staged = [q1, q2].map(|q| f.queries[&q].staged.tuples.len());
        assert!(f.rebuild_chain(cell, AttributeId(0)), "chain exists");
        let chain = f.chain(cell, AttributeId(0)).expect("chain rebuilt");
        assert_eq!(chain.tap_rates(), vec![4.0, 2.0, 1.0], "consumers re-attached");
        assert_eq!(chain.query_ids(), vec![q1, q2, q3]);
        assert_eq!(chain.flatten_report().batches(), 0, "telemetry restarted");
        for (q, n) in [q1, q2].into_iter().zip(staged) {
            assert!(n > 0, "{q} had output staged");
            assert_eq!(f.collect_output(q).unwrap().len(), n, "{q}'s staged output kept");
        }
        // A rebuilt consumer keeps its port.
        f.collect_output(q3).unwrap();
        assert!(f.rebuild_chain(CellId::new(1, 0), AttributeId(0)));
        f.ingest_batch(&tuples(0, 500, 20.0, Rect::new(0.0, 0.0, 2.0, 1.0)));
        let staged = &mut f.queries.get_mut(&q3).unwrap().staged;
        let ports: Vec<u32> = staged.in_port_order().map(|(port, _)| port).collect();
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

    /// The map/process the router replaced: every chain, in key order, gets
    /// its own group or records a starvation epoch.
    fn oracle_ingest(f: &mut Fabricator, tuples: &[CrowdTuple]) {
        let (groups, dropped) = oracle_groups(f, tuples);
        f.dropped_unmaterialized += dropped as u64;
        for (key, chain) in &mut f.chains {
            match groups.get(key) {
                Some(batch) => chain.process_batch(batch),
                None => chain.record_starved_epoch(),
            }
        }
    }

    /// The merge ingest staging replaced: a query-major walk that drains
    /// each cell's sink into a fresh buffer and pushes it through `U` on
    /// its own port.
    fn oracle_collect(f: &mut Fabricator, qid: QueryId) -> Vec<CrowdTuple> {
        let Standing { plan, merge, .. } = f.queries.get_mut(&qid).expect("standing query");
        let mut emitter = Emitter::new(merge.output_ports());
        for (port, (cell, _, _)) in plan.cells.iter().enumerate() {
            let Some(chain) = f.chains.get_mut(&(*cell, plan.query.attr)) else { continue };
            let mut piece = Vec::new();
            chain.drain_query(qid, &mut piece);
            if !piece.is_empty() {
                merge.process(InputPort(port as u16), &piece, &mut emitter);
            }
        }
        let mut out = emitter.into_buffers().remove(0);
        out.sort_by(|a, b| a.point.t.total_cmp(&b.point.t));
        out
    }

    /// The deletion ingest staging replaced: the query's sinks drained in
    /// port order as its consumers go.
    fn oracle_delete(f: &mut Fabricator, qid: QueryId) -> Vec<CrowdTuple> {
        let Standing { plan, .. } = &f.queries[&qid];
        let mut leftovers = Vec::new();
        for (cell, _, _) in &plan.cells {
            if let Some(chain) = f.chains.get_mut(&(*cell, plan.query.attr)) {
                chain.drain_query(qid, &mut leftovers);
            }
        }
        assert!(f.delete_query(qid).unwrap().is_empty(), "the oracle's ingest stages nothing");
        leftovers
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

        /// Also the merge and deletion against the query-major walks they
        /// replaced: with every tuple of an epoch at one time (the stable
        /// sort then keeps port order), with every ingest before one merge
        /// or a merge after each, and with a query deleted between the last
        /// ingest and its merge.
        #[test]
        fn routing_matches_the_grouping_it_replaced(
            epochs in prop::collection::vec(
                prop::collection::vec((-1.0f64..5.0, -1.0f64..5.0, 0u16..3, 0.0f64..5.0), 0..160),
                2..4,
            ),
            shards in 0usize..5,
            one_time in any::<bool>(),
            merge_each_epoch in any::<bool>(),
            victim in prop::option::of(0usize..3),
        ) {
            let mode = if shards == 0 { ExecMode::Serial } else { ExecMode::Sharded(shards) };
            let (mut routed, qids) = routing_fab();
            let (mut grouped, _) = routing_fab();
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
                let (groups, dropped) = oracle_groups(&routed, &batch);
                let report = routed.ingest_batch_mode(&batch, mode);
                prop_assert_eq!(report.dropped, dropped);
                prop_assert_eq!(report.routed, batch.len() - dropped);
                prop_assert_eq!(report.chains(), routed.materialized_chains());
                for (i, key) in routed.chains.keys().enumerate() {
                    let want = groups.get(key).map_or(&[][..], Vec::as_slice);
                    prop_assert!(
                        routed.router.batch(i) == want,
                        "epoch {e}, chain {key:?}: routed {:?}, grouped {want:?}",
                        routed.router.batch(i)
                    );
                }
                oracle_ingest(&mut grouped, &batch);
                if merge_each_epoch && e + 1 < epochs.len() {
                    for &qid in &qids {
                        let got = routed.collect_output(qid).unwrap();
                        let want = oracle_collect(&mut grouped, qid);
                        prop_assert!(got == want, "epoch {e}, {qid}: merged {got:?}, oracle {want:?}");
                    }
                }
            }
            prop_assert_eq!(routed.dropped_unmaterialized(), grouped.dropped_unmaterialized());
            let (ours, theirs) = (routed.chain_metrics(), grouped.chain_metrics());
            prop_assert!(ours == theirs, "operator counts differ");
            if let Some(victim) = victim {
                let got = routed.delete_query(qids[victim]).unwrap();
                let want = oracle_delete(&mut grouped, qids[victim]);
                prop_assert!(got == want, "leftovers {got:?}, oracle {want:?}");
            }
            for (i, &qid) in qids.iter().enumerate() {
                if victim == Some(i) {
                    continue;
                }
                let got = routed.collect_output(qid).unwrap();
                let want = oracle_collect(&mut grouped, qid);
                prop_assert!(got == want, "{qid}: merged {got:?}, oracle {want:?}");
            }
        }
    }
}
