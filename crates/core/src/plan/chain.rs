//! The per-(cell, attribute) operator chain — the paper's hashmap value.
//!
//! Section V's insertion rules, verbatim, and how this module realizes
//! them:
//!
//! 1. *"The first operator is always the F-operator"* — every chain owns
//!    exactly one [`FlattenOp`] at its head; it is created with the chain
//!    and dies with it.
//! 2. *"The T-operators are added such that the rates of all the existing
//!    T-operators remain sorted in a descending order and the highest rate
//!    T-operator is closest to the F-operator"* — [`AttrChain::taps`] is
//!    kept sorted descending by rate, and each tap's `T` thins the output
//!    of the tap before it (`F`'s output for the first).
//! 3. *"Two T-operators cannot be consecutively placed unless there is a
//!    branching point between them, otherwise these operators can be
//!    combined to form a single T-operator"* — a tap exists only while it
//!    has consumers (every tap *is* a branching point); the moment deletion
//!    empties a tap, the tap's `T` is removed and the next tap reads from
//!    the one before, which is exactly the merge (its `T`'s retention
//!    probability becomes the product of the two it replaces).
//! 4. *"If needed, the output rate of the F-operator is changed to a value
//!    greater than the output rate of the first T-operator"* —
//!    [`AttrChain::retarget_f`] runs on every insert/delete.
//! 5. *"If required the P-operators are added after the T-operators"* — a
//!    consumer whose query only partially overlaps the cell routes through
//!    a single-region [`PartitionOp`].
//!
//! # Execution
//!
//! [`AttrChain::process_batch`] walks the tap list: `F` flattens the
//! chain's routed slice into its own buffer, each `T` thins its upstream's
//! buffer into its own, and each consumer appends its piece (the tap's
//! output, or its `P`'s share of it) straight onto the shard's
//! [`Staging`], taps in order, then consumers in order. An operator runs,
//! and counts a batch, only on a non-empty input; every operator keeps
//! its own [`OpCounters`], so a deleted `T` or `P` takes its counts with
//! it.
//!
//! ## What the walk allocates
//!
//! The `F` and tap buffers are cleared, not dropped, between batches, and
//! the staging keeps its capacity, so once every buffer has carried its
//! largest batch the walk itself allocates nothing. That is a steady
//! state, not a guarantee: a buffer grows the first time a batch outgrows
//! it (random thinning can hand a tap a new largest batch long after
//! warm-up), a new tap starts with an empty buffer, and operators that
//! build per-batch state (the histogram estimator) allocate.

use crate::ops::{
    EstimatorMode, FitCounts, FlattenConfig, FlattenOp, FlattenReport, PartitionOp, ThinOp,
};
use crate::query::QueryId;
use crate::tuple::CrowdTuple;
use craqr_geom::Rect;
use std::sync::Arc;

/// Shape of the per-cell topology — the Section VI "alternative topologies"
/// ablation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyShape {
    /// The paper's chain: `F → T₁ → T₂ → …`, each `T` thinning the previous
    /// tap's output, so low-rate queries reuse the thinning work of
    /// high-rate ones.
    Chain,
    /// A star (depth-1 tree): every `T` thins the `F` output directly.
    /// Simpler rewiring, but every tap processes the full flattened stream.
    Star,
}

/// One operator's execution counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounters {
    /// Tuples received.
    pub tuples_in: u64,
    /// Tuples emitted.
    pub tuples_out: u64,
    /// Input batches processed (an operator runs only on a non-empty
    /// input).
    pub batches: u64,
    /// Nanoseconds spent inside the operator, accumulated only while a
    /// clock is installed ([`crate::Fabricator::set_engine_clock`]); zero
    /// otherwise. Host- and schedule-dependent, so it is **excluded from
    /// equality** (and therefore from every checksummed comparison),
    /// exactly like shard `busy_ns`.
    pub busy_ns: u64,
}

/// Equality ignores `busy_ns`: two runs that processed the same tuples
/// compare equal regardless of how long the host took.
impl PartialEq for OpCounters {
    fn eq(&self, other: &Self) -> bool {
        self.tuples_in == other.tuples_in
            && self.tuples_out == other.tuples_out
            && self.batches == other.batches
    }
}

impl Eq for OpCounters {}

impl OpCounters {
    /// Accumulates another operator's counters into these.
    fn absorb(&mut self, other: &OpCounters) {
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.batches += other.batches;
        self.busy_ns += other.busy_ns;
    }

    /// Counts one batch of `input` tuples through `op`, which returns how
    /// many tuples it emitted; `op` is timed when `clock` is set.
    fn run(&mut self, clock: Option<fn() -> u64>, input: usize, op: impl FnOnce() -> usize) {
        self.tuples_in += input as u64;
        self.batches += 1;
        let emitted = match clock {
            Some(clock) => {
                let started = clock();
                let emitted = op();
                self.busy_ns += clock().saturating_sub(started);
                emitted
            }
            None => op(),
        };
        self.tuples_out += emitted as u64;
    }
}

/// Operator counters summed by kind over any number of chains — what the
/// scenario report's `[operators]` rows show — plus the `F` row's fit
/// outcomes, which only the metrics export shows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperatorMetrics {
    f: Option<OpCounters>,
    p: Option<OpCounters>,
    t: Option<OpCounters>,
    fits: FitCounts,
}

impl OperatorMetrics {
    fn count(kind: &mut Option<OpCounters>, counters: &OpCounters) {
        kind.get_or_insert_with(OpCounters::default).absorb(counters);
    }

    /// Folds another snapshot into this one.
    pub(crate) fn absorb(&mut self, other: &OperatorMetrics) {
        for (mine, theirs) in
            [(&mut self.f, &other.f), (&mut self.p, &other.p), (&mut self.t, &other.t)]
        {
            if let Some(theirs) = theirs {
                Self::count(mine, theirs);
            }
        }
        self.fits.absorb(&other.fits);
    }

    /// How the `F` operators' batch MLE estimated their batches.
    pub fn fits(&self) -> FitCounts {
        self.fits
    }

    /// `(kind, counters)` for every kind with at least one operator
    /// counted in, sorted by kind: `F`, `P`, `T`.
    pub fn by_kind(&self) -> Vec<(&'static str, OpCounters)> {
        [("F", self.f), ("P", self.p), ("T", self.t)]
            .into_iter()
            .filter_map(|(kind, counters)| Some((kind, counters?)))
            .collect()
    }
}

/// One rate level of the chain with its consumers.
pub(crate) struct RateTap {
    /// The tap's homogeneous output rate.
    pub rate: f64,
    /// The `T` operator producing this rate.
    pub thin: ThinOp,
    /// The `T`'s counters.
    pub counters: OpCounters,
    /// The `T`'s output for the current batch, kept for its capacity.
    pub out: Vec<CrowdTuple>,
    /// Queries consuming at this rate.
    pub consumers: Vec<QueryTap>,
}

/// One query's attachment to a tap.
pub(crate) struct QueryTap {
    /// The consuming query.
    pub query: QueryId,
    /// The query's `U` input port for this cell: the cell's index in the
    /// query plan's cell list.
    pub port: u32,
    /// A `P`-operator carving the partial overlap, with its counters, when
    /// the query does not cover the whole cell.
    pub partition: Option<(PartitionOp, OpCounters)>,
    /// The query's footprint inside this cell.
    pub overlap: Rect,
}

/// What a shard's chains hand the merge: every consumer's output, staged
/// as its chain runs.
#[derive(Default)]
pub(crate) struct Staging {
    /// The staged tuples, piece after piece.
    pub tuples: Vec<CrowdTuple>,
    /// `(query, port, end)` per piece, in staging order; a piece runs from
    /// the previous piece's end to its own.
    pub pieces: Vec<(QueryId, u32, usize)>,
}

impl Staging {
    /// Empties the staging, keeping its capacity.
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.pieces.clear();
    }
}

/// Relative tolerance for "same rate" when sharing a tap.
const RATE_EQ_TOL: f64 = 1e-9;

fn rates_equal(a: f64, b: f64) -> bool {
    (a - b).abs() <= RATE_EQ_TOL * a.abs().max(b.abs()).max(1.0)
}

/// The execution chain for one (grid cell, attribute) pair.
pub struct AttrChain {
    flatten: FlattenOp,
    /// `F`'s counters.
    f_counters: OpCounters,
    /// `F`'s output for the current batch, kept for its capacity.
    f_out: Vec<CrowdTuple>,
    f_report: Arc<FlattenReport>,
    /// Current F target rate λ̄ (= headroom × max tap rate).
    f_rate: f64,
    taps: Vec<RateTap>,
    cell_rect: Rect,
    headroom: f64,
    shape: TopologyShape,
    seed: u64,
    salt: u64,
    /// The per-operator processing-time clock; `None` (the default) means
    /// the walk never reads a clock and every `busy_ns` stays zero.
    clock: Option<fn() -> u64>,
}

impl AttrChain {
    /// Creates a chain whose `F` head flattens to `initial_rate × headroom`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cell_rect: Rect,
        batch_duration: f64,
        initial_rate: f64,
        headroom: f64,
        estimator: EstimatorMode,
        shape: TopologyShape,
        seed: u64,
    ) -> Self {
        super::PlannerConfig::F_HEADROOM.assert("F headroom", headroom);
        let f_rate = initial_rate * headroom;
        let (flatten, f_report) = FlattenOp::new(FlattenConfig {
            cell: cell_rect,
            batch_duration,
            target_rate: f_rate,
            mode: estimator,
            seed,
        });
        Self {
            flatten,
            f_counters: OpCounters::default(),
            f_out: Vec::new(),
            f_report,
            f_rate,
            taps: Vec::new(),
            cell_rect,
            headroom,
            shape,
            seed,
            salt: 0,
            clock: None,
        }
    }

    fn next_seed(&mut self) -> u64 {
        self.salt += 1;
        self.seed.wrapping_add(self.salt.wrapping_mul(0x9E37_79B9))
    }

    /// Installs (or removes) the per-operator processing-time clock. With
    /// no clock the walk performs zero clock reads.
    pub(crate) fn set_clock(&mut self, clock: Option<fn() -> u64>) {
        self.clock = clock;
    }

    /// The chain's flatten telemetry (budget tuning reads `N_v` here).
    pub fn flatten_report(&self) -> Arc<FlattenReport> {
        Arc::clone(&self.f_report)
    }

    /// The F-operator's telemetry, borrowed.
    pub(crate) fn flatten(&self) -> &FlattenReport {
        &self.f_report
    }

    /// The counters of this chain's live operators by kind — what the
    /// fabricator sums over chains for the report.
    pub fn metrics(&self) -> OperatorMetrics {
        let mut m = OperatorMetrics { fits: self.f_report.fit_counts(), ..Default::default() };
        OperatorMetrics::count(&mut m.f, &self.f_counters);
        for tap in &self.taps {
            OperatorMetrics::count(&mut m.t, &tap.counters);
            for (_, counters) in tap.consumers.iter().filter_map(|c| c.partition.as_ref()) {
                OperatorMetrics::count(&mut m.p, counters);
            }
        }
        m
    }

    /// Current F target rate λ̄.
    pub fn f_rate(&self) -> f64 {
        self.f_rate
    }

    /// The tap rates, descending — for tests and explain output.
    pub fn tap_rates(&self) -> Vec<f64> {
        self.taps.iter().map(|t| t.rate).collect()
    }

    /// Number of distinct consumers across taps.
    pub fn consumer_count(&self) -> usize {
        self.taps.iter().map(|t| t.consumers.len()).sum()
    }

    /// `true` when no query consumes from this chain.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Operator count (F + T's + P's), for plan-size assertions.
    pub fn node_count(&self) -> usize {
        let partitions = self.taps.iter().flat_map(|t| &t.consumers);
        1 + self.taps.len() + partitions.filter(|c| c.partition.is_some()).count()
    }

    /// The queries consuming from this chain.
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> =
            self.taps.iter().flat_map(|t| t.consumers.iter().map(|c| c.query)).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The input rate seen by tap position `pos`.
    fn upstream_rate(&self, pos: usize) -> f64 {
        match self.shape {
            TopologyShape::Star => self.f_rate,
            TopologyShape::Chain => {
                if pos == 0 {
                    self.f_rate
                } else {
                    self.taps[pos - 1].rate
                }
            }
        }
    }

    /// Rule 4: keep `λ̄ = headroom × max tap rate`, updating the taps'
    /// input rates accordingly (the first tap's in a chain, every tap's in
    /// a star).
    fn retarget_f(&mut self) {
        let Some(max_rate) = self.taps.first().map(|t| t.rate) else {
            return;
        };
        let new_rate = max_rate * self.headroom;
        if rates_equal(new_rate, self.f_rate) {
            return;
        }
        // Raising: fix F first so tap inputs never exceed it. Lowering:
        // fix taps first. Simplest safe order: raise F, fix taps, lower F.
        if new_rate > self.f_rate {
            self.f_rate = new_rate;
            self.flatten.set_target_rate(new_rate);
            self.refresh_tap_inputs();
        } else {
            self.f_rate = new_rate;
            self.refresh_tap_inputs();
            self.flatten.set_target_rate(new_rate);
        }
    }

    /// Re-derives every tap's input rate from its upstream (idempotent).
    fn refresh_tap_inputs(&mut self) {
        for pos in 0..self.taps.len() {
            let rate = self.upstream_rate(pos);
            self.taps[pos].thin.set_input_rate(rate);
        }
    }

    /// Inserts a consumer for `query` at `rate` over `overlap` (`full` when
    /// the query covers the entire cell); its output is staged for `U`
    /// input `port`.
    pub(crate) fn insert_consumer(
        &mut self,
        query: QueryId,
        port: u32,
        rate: f64,
        overlap: Rect,
        full: bool,
    ) {
        assert!(rate > 0.0, "consumer rate must be > 0");
        // Locate or create the tap.
        let pos = match self.taps.iter().position(|t| rates_equal(t.rate, rate)) {
            Some(pos) => pos,
            None => {
                let pos = self.taps.iter().position(|t| t.rate < rate).unwrap_or(self.taps.len());
                self.insert_tap(pos, rate);
                pos
            }
        };

        // A partial overlap gets its own P-operator.
        let partition = (!full).then(|| {
            assert!(
                self.cell_rect.contains_rect(&overlap),
                "overlap {overlap} escapes cell {}",
                self.cell_rect
            );
            (PartitionOp::new(vec![overlap]), OpCounters::default())
        });
        self.taps[pos].consumers.push(QueryTap { query, port, partition, overlap });

        // Rule 4 after the dust settles.
        self.retarget_f();
        self.assert_invariants();
    }

    /// Creates a `T` at tap position `pos` with output `rate` (rules 2
    /// and 3).
    fn insert_tap(&mut self, pos: usize, rate: f64) {
        // Provisional F raise so a new top tap can legally splice in.
        let raised = rate * self.headroom;
        if raised > self.f_rate {
            self.f_rate = raised;
            self.flatten.set_target_rate(raised);
        }
        let upstream_rate = self.upstream_rate(pos).max(rate);
        let thin = ThinOp::new(upstream_rate, rate, self.next_seed());
        let tap = RateTap {
            rate,
            thin,
            counters: OpCounters::default(),
            out: Vec::new(),
            consumers: Vec::new(),
        };
        self.taps.insert(pos, tap);
        // Either shape: a provisional raise moved every star tap's input.
        self.refresh_tap_inputs();
    }

    /// Deletes `query`'s consumer; returns `false` when it had none.
    /// Implements the right-to-left deletion of Section V: stream, then
    /// `P`, then — when the tap's branching point disappears — the `T`
    /// itself, merging its neighbours.
    pub(crate) fn delete_consumer(&mut self, query: QueryId) -> bool {
        let Some((pos, cidx)) = self.taps.iter().enumerate().find_map(|(pos, tap)| {
            tap.consumers.iter().position(|c| c.query == query).map(|cidx| (pos, cidx))
        }) else {
            return false;
        };
        self.taps[pos].consumers.swap_remove(cidx);

        // Rule 3: a tap without consumers is no longer a branching point —
        // remove its T; in a chain, the next tap now reads the one before.
        if self.taps[pos].consumers.is_empty() {
            self.taps.remove(pos);
            self.refresh_tap_inputs();
        }
        self.retarget_f();
        self.assert_invariants();
        true
    }

    /// Runs one ingestion batch through the chain, appending every
    /// consumer's non-empty piece onto `staging`, tagged with its query
    /// and port: taps in order, each tap's consumers in order.
    ///
    /// `F` never runs on an empty batch; [`AttrChain::record_starved_epoch`]
    /// covers that case.
    pub(crate) fn process_batch(&mut self, batch: &[CrowdTuple], staging: &mut Staging) {
        if batch.is_empty() {
            return;
        }
        let clock = self.clock;
        let (flatten, f_out) = (&mut self.flatten, &mut self.f_out);
        f_out.clear();
        self.f_counters.run(clock, batch.len(), || {
            flatten.process(batch, f_out);
            f_out.len()
        });
        for pos in 0..self.taps.len() {
            let (upstream, rest) = self.taps.split_at_mut(pos);
            let input = match (self.shape, upstream.last()) {
                (TopologyShape::Chain, Some(previous)) => &previous.out,
                _ => &self.f_out,
            };
            let tap = &mut rest[0];
            tap.out.clear();
            if input.is_empty() {
                continue;
            }
            let (thin, out) = (&mut tap.thin, &mut tap.out);
            tap.counters.run(clock, input.len(), || {
                thin.process(input, out);
                out.len()
            });
            if tap.out.is_empty() {
                continue;
            }
            for consumer in &mut tap.consumers {
                let start = staging.tuples.len();
                match &mut consumer.partition {
                    None => staging.tuples.extend_from_slice(&tap.out),
                    Some((partition, counters)) => {
                        counters.run(clock, tap.out.len(), || {
                            partition.process(&tap.out, std::slice::from_mut(&mut staging.tuples));
                            staging.tuples.len() - start
                        });
                    }
                }
                if staging.tuples.len() > start {
                    staging.pieces.push((consumer.query, consumer.port, staging.tuples.len()));
                }
            }
        }
    }

    /// Records an epoch in which this chain received *no* tuples at all.
    ///
    /// `F` never runs on an empty batch, so without this a totally starved
    /// cell would leave its last `N_v` frozen and the budget tuner would
    /// act on stale telemetry. Total starvation is the strongest possible
    /// violation: 100%.
    pub(crate) fn record_starved_epoch(&mut self) {
        self.flatten_report().record_starved_batch();
    }

    /// Total tuples processed by every operator in this chain (the work
    /// measure of the sharing experiments).
    pub fn tuples_processed(&self) -> u64 {
        self.metrics().by_kind().iter().map(|(_, m)| m.tuples_in).sum()
    }

    /// A one-line diagram: `F(λ̄=…) → T(a→b)[consumers…] → …`.
    pub fn explain(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(s, "F(λ̄={:.3})", self.f_rate);
        for tap in &self.taps {
            let _ = write!(s, " → T(→{:.3})", tap.rate);
            let mut marks: Vec<String> = tap
                .consumers
                .iter()
                .map(|c| {
                    if c.partition.is_some() {
                        format!("{}⋉P", c.query)
                    } else {
                        format!("{}", c.query)
                    }
                })
                .collect();
            marks.sort();
            let _ = write!(s, "[{}]", marks.join(","));
        }
        if let TopologyShape::Star = self.shape {
            s.push_str(" (star)");
        }
        s
    }

    /// Structural invariants (rules 2–4), checked after every insert and
    /// delete, in every build.
    pub fn assert_invariants(&self) {
        // Rule 2: strictly descending tap rates.
        for pair in self.taps.windows(2) {
            assert!(
                pair[0].rate > pair[1].rate && !rates_equal(pair[0].rate, pair[1].rate),
                "tap rates not strictly descending: {:?}",
                self.tap_rates()
            );
        }
        // Rule 3: every tap is a branching point (has consumers), and every
        // consumer's footprint stays inside the cell.
        for tap in &self.taps {
            assert!(!tap.consumers.is_empty(), "tap without consumers at rate {}", tap.rate);
            for c in &tap.consumers {
                assert!(
                    self.cell_rect.contains_rect(&c.overlap),
                    "consumer {} overlap {} escapes cell {}",
                    c.query,
                    c.overlap,
                    self.cell_rect
                );
            }
        }
        // Rule 4: F rate covers the first tap.
        if let Some(first) = self.taps.first() {
            assert!(
                self.f_rate >= first.rate * (1.0 - RATE_EQ_TOL),
                "F rate {} below first tap {}",
                self.f_rate,
                first.rate
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use craqr_geom::SpaceTimePoint;
    use craqr_sensing::{AttrValue, AttributeId, SensorId};

    fn cell() -> Rect {
        Rect::with_size(1.0, 1.0)
    }

    fn chain(initial_rate: f64) -> AttrChain {
        AttrChain::new(
            cell(),
            10.0,
            initial_rate,
            1.0,
            EstimatorMode::BatchMle,
            TopologyShape::Chain,
            7,
        )
    }

    fn batch(n: usize, t0: f64) -> Vec<CrowdTuple> {
        (0..n)
            .map(|i| CrowdTuple {
                id: i as u64,
                attr: AttributeId(0),
                point: SpaceTimePoint::new(
                    t0 + (i as f64 / n as f64) * 10.0,
                    (i as f64 * 0.618) % 1.0,
                    (i as f64 * 0.382) % 1.0,
                ),
                value: AttrValue::Bool(true),
                sensor: SensorId(0),
            })
            .collect()
    }

    /// What `staging` holds for `query`, piece after piece.
    fn staged(staging: &Staging, query: QueryId) -> Vec<CrowdTuple> {
        let mut start = 0;
        let mut out = Vec::new();
        for &(q, _, end) in &staging.pieces {
            if q == query {
                out.extend_from_slice(&staging.tuples[start..end]);
            }
            start = end;
        }
        out
    }

    #[test]
    fn inserting_consumers_keeps_taps_sorted_descending() {
        let mut c = chain(1.0);
        c.insert_consumer(QueryId(1), 0, 2.0, cell(), true);
        c.insert_consumer(QueryId(2), 0, 8.0, cell(), true);
        c.insert_consumer(QueryId(3), 0, 4.0, cell(), true);
        assert_eq!(c.tap_rates(), vec![8.0, 4.0, 2.0]);
        assert_eq!(c.consumer_count(), 3);
        // Rule 4: F covers the highest tap.
        assert!(c.f_rate() >= 8.0);
    }

    #[test]
    fn equal_rate_queries_share_one_tap() {
        let mut c = chain(5.0);
        c.insert_consumer(QueryId(1), 0, 5.0, cell(), true);
        c.insert_consumer(QueryId(2), 0, 5.0, cell(), true);
        assert_eq!(c.tap_rates(), vec![5.0]);
        assert_eq!(c.consumer_count(), 2);
        // One F and one T; two consumers but no P.
        assert_eq!(c.node_count(), 2);
    }

    #[test]
    fn partial_overlap_gets_partition_operator() {
        let mut c = chain(5.0);
        let half = Rect::new(0.0, 0.0, 0.5, 1.0);
        c.insert_consumer(QueryId(1), 0, 5.0, half, false);
        // F + T + P = 3 nodes.
        assert_eq!(c.node_count(), 3);
        assert!(c.explain().contains("⋉P"), "{}", c.explain());
    }

    #[test]
    fn deleting_last_consumer_of_tap_merges_thins() {
        let mut c = chain(1.0);
        c.insert_consumer(QueryId(1), 0, 8.0, cell(), true);
        c.insert_consumer(QueryId(2), 0, 4.0, cell(), true);
        c.insert_consumer(QueryId(3), 0, 2.0, cell(), true);
        assert_eq!(c.tap_rates(), vec![8.0, 4.0, 2.0]);
        // Remove the middle tap's only consumer: T(8→4) and T(4→2) must
        // merge into T(8→2).
        assert!(c.delete_consumer(QueryId(2)), "consumer existed");
        assert_eq!(c.tap_rates(), vec![8.0, 2.0]);
        assert_eq!(c.consumer_count(), 2);
    }

    #[test]
    fn deleting_top_tap_lowers_f_rate() {
        let mut c = chain(1.0);
        c.insert_consumer(QueryId(1), 0, 8.0, cell(), true);
        c.insert_consumer(QueryId(2), 0, 2.0, cell(), true);
        assert!(c.f_rate() >= 8.0);
        c.delete_consumer(QueryId(1));
        assert_eq!(c.tap_rates(), vec![2.0]);
        assert!((c.f_rate() - 2.0).abs() < 1e-9, "F retargets down to {}", c.f_rate());
    }

    #[test]
    fn deleting_all_consumers_empties_chain() {
        let mut c = chain(3.0);
        c.insert_consumer(QueryId(1), 0, 3.0, cell(), true);
        assert!(!c.is_empty());
        c.delete_consumer(QueryId(1));
        assert!(c.is_empty());
        assert_eq!(c.node_count(), 1, "only F remains");
    }

    #[test]
    fn delete_unknown_query_is_none() {
        let mut c = chain(3.0);
        assert!(!c.delete_consumer(QueryId(9)));
    }

    #[test]
    fn processing_delivers_rate_ordered_subsets() {
        let mut c = chain(1.0);
        c.insert_consumer(QueryId(1), 0, 4.0, cell(), true);
        c.insert_consumer(QueryId(2), 0, 1.0, cell(), true);
        // Push a healthy batch: 10 minutes over 1 km² at implied high rate.
        let mut staging = Staging::default();
        for e in 0..5 {
            c.process_batch(&batch(2_000, e as f64 * 10.0), &mut staging);
        }
        let q1 = staged(&staging, QueryId(1));
        let q2 = staged(&staging, QueryId(2));
        // Q1 wants 4/km²·min * 50 min = 200 expected; Q2 wants 50.
        let got1 = q1.len() as f64;
        let got2 = q2.len() as f64;
        assert!((got1 - 200.0).abs() < 60.0, "q1 got {got1}");
        assert!((got2 - 50.0).abs() < 25.0, "q2 got {got2}");
        // The thinning chain means q2 ⊆ q1 as id sets.
        let ids1: std::collections::HashSet<u64> = q1.iter().map(|t| t.id).collect();
        assert!(q2.iter().all(|t| ids1.contains(&t.id)), "chain subset property");
    }

    #[test]
    fn staging_tags_each_piece_with_its_query_and_port() {
        let mut c = chain(1.0);
        c.insert_consumer(QueryId(1), 3, 4.0, cell(), true);
        c.insert_consumer(QueryId(2), 5, 1.0, Rect::new(0.0, 0.0, 0.5, 1.0), false);
        let mut staging = Staging::default();
        c.process_batch(&batch(2_000, 0.0), &mut staging);
        let tags: Vec<_> = staging.pieces.iter().map(|&(q, port, _)| (q, port)).collect();
        assert_eq!(tags, vec![(QueryId(1), 3), (QueryId(2), 5)], "tap order, non-empty pieces");
        assert_eq!(staging.pieces.last().map(|p| p.2), Some(staging.tuples.len()));
        // A second batch appends after the first.
        let first = staging.tuples.len();
        c.process_batch(&batch(2_000, 10.0), &mut staging);
        assert_eq!(staging.pieces.len(), 4);
        assert!(staging.tuples.len() > first);
    }

    #[test]
    fn star_shape_taps_hang_off_f() {
        let mut c =
            AttrChain::new(cell(), 10.0, 1.0, 1.0, EstimatorMode::BatchMle, TopologyShape::Star, 7);
        c.insert_consumer(QueryId(1), 0, 4.0, cell(), true);
        c.insert_consumer(QueryId(2), 0, 1.0, cell(), true);
        c.assert_invariants();
        assert!(c.explain().contains("star"));
        // Star: outputs are NOT nested subsets (independent coins), but
        // rates must still be honoured.
        let mut staging = Staging::default();
        for e in 0..5 {
            c.process_batch(&batch(2_000, e as f64 * 10.0), &mut staging);
        }
        let got1 = staged(&staging, QueryId(1)).len() as f64;
        let got2 = staged(&staging, QueryId(2)).len() as f64;
        assert!((got1 - 200.0).abs() < 60.0, "q1 got {got1}");
        assert!((got2 - 50.0).abs() < 25.0, "q2 got {got2}");
        // Star deletion leaves the other tap untouched.
        c.delete_consumer(QueryId(1));
        assert_eq!(c.tap_rates(), vec![1.0]);
    }

    /// A star's every `T` reads `F`, so a consumer above the top rate,
    /// which raises `F`, moves every older tap's input with it.
    #[test]
    fn star_taps_follow_a_raised_f() {
        let mut c =
            AttrChain::new(cell(), 10.0, 0.4, 1.0, EstimatorMode::BatchMle, TopologyShape::Star, 7);
        c.insert_consumer(QueryId(1), 0, 0.4, cell(), true);
        c.insert_consumer(QueryId(2), 0, 0.8, cell(), true);
        assert_eq!(c.f_rate(), 0.8);
        let inputs: Vec<f64> = c.taps.iter().map(|t| t.thin.input_rate()).collect();
        assert_eq!(inputs, vec![0.8, 0.8], "every T thins F's λ̄");
        let outputs: Vec<f64> = c.taps.iter().map(|t| t.thin.output_rate()).collect();
        assert_eq!(outputs, vec![0.8, 0.4]);
    }

    #[test]
    fn explain_renders_chain() {
        let mut c = chain(1.0);
        c.insert_consumer(QueryId(1), 0, 2.0, cell(), true);
        c.insert_consumer(QueryId(2), 0, 1.0, Rect::new(0.0, 0.0, 0.5, 1.0), false);
        let s = c.explain();
        assert!(s.starts_with("F(λ̄=2.000)"), "{s}");
        assert!(s.contains("T(→2.000)[Q1]"), "{s}");
        assert!(s.contains("T(→1.000)[Q2⋉P]"), "{s}");
    }

    /// One epoch through the chain: its staged pieces, `Q<id>/<port>:[ids]`.
    fn epoch(c: &mut AttrChain, batch: &[CrowdTuple]) -> String {
        let mut staging = Staging::default();
        c.process_batch(batch, &mut staging);
        let mut start = 0;
        let pieces = staging.pieces.iter().map(|&(query, port, end)| {
            let ids: Vec<u64> = staging.tuples[start..end].iter().map(|t| t.id).collect();
            start = end;
            format!("{query}/{port}:{ids:?}")
        });
        pieces.collect::<Vec<_>>().join(" ")
    }

    /// `kind in/out/batches` per operator kind.
    fn kinds(c: &AttrChain) -> String {
        let rows = c.metrics().by_kind().into_iter();
        let rows =
            rows.map(|(kind, m)| format!("{kind} {}/{}/{}", m.tuples_in, m.tuples_out, m.batches));
        rows.collect::<Vec<_>>().join(" ")
    }

    /// Epoch `e`'s batch of `n` tuples, ids `100·e …`.
    fn numbered(e: u64, n: usize) -> Vec<CrowdTuple> {
        let mut b = batch(n, e as f64 * 10.0);
        b.iter_mut().for_each(|t| t.id += 100 * e);
        b
    }

    /// Both shapes, pinned end to end: the staged pieces with their tuple
    /// ids and the per-kind counters, over epochs, a partial consumer
    /// inserted mid-run, then the middle tap's only consumer deleted so its
    /// neighbours merge (its `T` and `P` take their counters with them).
    /// Then a one-tuple epoch whose `0.6` tap emits nothing, so neither
    /// that tap's `P` nor (in the chain) the `T` below it counts a batch,
    /// and an empty batch, which runs no operator at all. Epoch 3's pieces
    /// and the `P` counters were re-pinned when the batch MLE became an
    /// exact solve: F keeps as many of that batch's tuples, but not the
    /// same ones.
    #[test]
    fn chain_walk_is_pinned() {
        let (left, right) = (Rect::new(0.0, 0.0, 0.5, 1.0), Rect::new(0.5, 0.0, 1.0, 1.0));
        for (shape, want) in [(TopologyShape::Chain, CHAIN_PIN), (TopologyShape::Star, STAR_PIN)] {
            let mut c = AttrChain::new(cell(), 10.0, 0.8, 1.0, EstimatorMode::BatchMle, shape, 7);
            c.insert_consumer(QueryId(1), 0, 0.8, cell(), true);
            c.insert_consumer(QueryId(2), 1, 0.4, left, false);
            c.insert_consumer(QueryId(3), 2, 0.2, cell(), true);
            let mut log = Vec::new();
            for e in 0..3 {
                log.push(format!("e{e} {}", epoch(&mut c, &numbered(e, 20))));
            }
            log.push(kinds(&c));
            c.insert_consumer(QueryId(4), 3, 0.6, right, false);
            log.push(format!("e3 {}", epoch(&mut c, &numbered(3, 20))));
            log.push(kinds(&c));
            assert!(c.delete_consumer(QueryId(2)));
            log.push(kinds(&c));
            log.push(format!("e4 {}", epoch(&mut c, &numbered(4, 20))));
            log.push(kinds(&c));
            log.push(format!("e5 {}", epoch(&mut c, &numbered(5, 1))));
            log.push(kinds(&c));
            log.push(format!("e6 {}", epoch(&mut c, &[])));
            log.push(kinds(&c));
            assert_eq!(c.flatten_report().batches(), 6, "the empty batch never reached F");
            assert_eq!(log, want, "{shape:?}");
        }
    }

    const CHAIN_PIN: &[&str] = &[
        "e0 Q1/0:[3, 8, 10, 11, 14, 16, 18] Q2/1:[18] Q3/2:[11]",
        "e1 Q1/0:[101, 104, 106, 108, 109, 110, 112, 113, 114, 115, 116, 118] Q2/1:[110, 112] Q3/2:[109, 110, 114]",
        "e2 Q1/0:[202, 205, 206, 210, 212, 214, 217] Q3/2:[206]",
        "F 60/26/3 P 8/3/3 T 60/39/9",
        "e3 Q1/0:[301, 303, 305, 306, 307, 315, 316, 318, 319] Q4/3:[301, 303, 306, 319] Q2/1:[307, 315, 318] Q3/2:[307, 315, 318]",
        "F 80/35/4 P 20/10/5 T 90/63/13",
        "F 80/35/4 P 7/4/1 T 57/50/9",
        "e4 Q1/0:[400, 402, 403, 406, 407, 409, 410, 411, 414, 417, 418] Q4/3:[403, 409, 411, 414, 417] Q3/2:[403, 410, 417]",
        "F 100/46/5 P 14/9/2 T 86/71/12",
        "e5 Q1/0:[500]",
        "F 101/47/6 P 14/9/2 T 88/72/14",
        "e6 ",
        "F 101/47/6 P 14/9/2 T 88/72/14",
    ];

    const STAR_PIN: &[&str] = &[
        "e0 Q1/0:[3, 8, 10, 11, 14, 16, 18] Q2/1:[18] Q3/2:[3, 11, 14, 18]",
        "e1 Q1/0:[101, 104, 106, 108, 109, 110, 112, 113, 114, 115, 116, 118] Q2/1:[110, 112] Q3/2:[108, 109, 110, 113, 115]",
        "e2 Q1/0:[202, 205, 206, 210, 212, 214, 217] Q3/2:[202, 212]",
        "F 60/26/3 P 8/3/3 T 78/45/9",
        "e3 Q1/0:[301, 303, 305, 306, 307, 315, 316, 318, 319] Q4/3:[301, 303, 306, 319] Q2/1:[307, 315] Q3/2:[305]",
        "F 80/35/4 P 19/9/5 T 114/66/13",
        "F 80/35/4 P 7/4/1 T 79/54/9",
        "e4 Q1/0:[400, 402, 403, 406, 407, 409, 410, 411, 414, 417, 418] Q4/3:[403, 409, 411, 414, 417] Q3/2:[403, 406, 417, 418]",
        "F 100/46/5 P 14/9/2 T 112/76/12",
        "e5 Q1/0:[500] Q3/2:[500]",
        "F 101/47/6 P 14/9/2 T 115/78/15",
        "e6 ",
        "F 101/47/6 P 14/9/2 T 115/78/15",
    ];

    #[test]
    fn headroom_scales_f_target() {
        let mut c = AttrChain::new(
            cell(),
            10.0,
            1.0,
            1.5,
            EstimatorMode::BatchMle,
            TopologyShape::Chain,
            7,
        );
        c.insert_consumer(QueryId(1), 0, 4.0, cell(), true);
        assert!((c.f_rate() - 6.0).abs() < 1e-9, "1.5 × 4 = 6, got {}", c.f_rate());
    }
}
