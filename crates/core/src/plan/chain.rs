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
//!    kept sorted descending by rate and wired `F → T → T → …`.
//! 3. *"Two T-operators cannot be consecutively placed unless there is a
//!    branching point between them, otherwise these operators can be
//!    combined to form a single T-operator"* — a tap exists only while it
//!    has consumers (every tap *is* a branching point); the moment deletion
//!    empties a tap, the tap's `T` is removed and its neighbours splice,
//!    which is exactly the merge (the spliced `T`'s retention probability
//!    becomes the product of the two it replaces).
//! 4. *"If needed, the output rate of the F-operator is changed to a value
//!    greater than the output rate of the first T-operator"* —
//!    [`AttrChain::retarget_f`] runs on every insert/delete.
//! 5. *"If required the P-operators are added after the T-operators"* — a
//!    consumer whose query only partially overlaps the cell routes through
//!    a single-region [`PartitionOp`].

use crate::ops::{EstimatorMode, FlattenConfig, FlattenOp, FlattenReport, PartitionOp, ThinOp};
use crate::query::QueryId;
use crate::tuple::CrowdTuple;
use craqr_engine::{InputPort, NodeId, OutputPort, SinkId, Target, Topology};
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

/// One rate level of the chain with its consumers.
#[derive(Debug)]
pub(crate) struct RateTap {
    /// The tap's homogeneous output rate.
    pub rate: f64,
    /// The `T` operator producing this rate.
    pub thin: NodeId,
    /// Queries consuming at this rate.
    pub consumers: Vec<QueryTap>,
}

/// One query's attachment to a tap.
#[derive(Debug)]
pub(crate) struct QueryTap {
    /// The consuming query.
    pub query: QueryId,
    /// The query's `U` input port for this cell: the cell's index in the
    /// query plan's cell list.
    pub port: u32,
    /// A `P`-operator carving the partial overlap, when the query does not
    /// cover the whole cell.
    pub partition: Option<NodeId>,
    /// The per-(query, cell) output sink.
    pub sink: SinkId,
    /// The query's footprint inside this cell.
    pub overlap: Rect,
}

/// What a shard's chains hand the merge: every consumer's sink output,
/// moved out right after its chain ran.
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
    topo: Topology<CrowdTuple>,
    f_node: NodeId,
    f_report: Arc<FlattenReport>,
    /// Current F target rate λ̄ (= headroom × max tap rate).
    f_rate: f64,
    taps: Vec<RateTap>,
    cell_rect: Rect,
    headroom: f64,
    shape: TopologyShape,
    seed: u64,
    salt: u64,
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
        let mut topo = Topology::new();
        let f_rate = initial_rate * headroom;
        let (f_op, f_report) = FlattenOp::new(FlattenConfig {
            cell: cell_rect,
            batch_duration,
            target_rate: f_rate,
            mode: estimator,
            seed,
        });
        let f_node = topo.add_operator(Box::new(f_op));
        Self {
            topo,
            f_node,
            f_report,
            f_rate,
            taps: Vec::new(),
            cell_rect,
            headroom,
            shape,
            seed,
            salt: 0,
        }
    }

    fn next_seed(&mut self) -> u64 {
        self.salt += 1;
        self.seed.wrapping_add(self.salt.wrapping_mul(0x9E37_79B9))
    }

    /// Installs (or removes) the per-node processing-time clock on this
    /// chain's topology (see [`craqr_engine::Topology::set_clock`]). With
    /// no clock the engine performs zero clock reads.
    pub(crate) fn set_clock(&mut self, clock: Option<fn() -> u64>) {
        self.topo.set_clock(clock);
    }

    /// The chain's flatten telemetry (budget tuning reads `N_v` here).
    pub fn flatten_report(&self) -> Arc<FlattenReport> {
        Arc::clone(&self.f_report)
    }

    /// The F-operator's telemetry, borrowed.
    pub(crate) fn flatten(&self) -> &FlattenReport {
        &self.f_report
    }

    /// Per-node execution counters of this chain's topology — the report
    /// hook scenario/metrics consumers aggregate across chains (see
    /// [`craqr_engine::TopologyMetrics::absorb`]).
    pub fn metrics(&self) -> craqr_engine::TopologyMetrics {
        self.topo.metrics()
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

    /// Operator-node count (F + T's + P's), for plan-size assertions.
    pub fn node_count(&self) -> usize {
        self.topo.node_count()
    }

    /// The queries consuming from this chain.
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> =
            self.taps.iter().flat_map(|t| t.consumers.iter().map(|c| c.query)).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    fn thin_mut(&mut self, node: NodeId) -> &mut ThinOp {
        self.topo
            .operator_mut(node)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<ThinOp>())
            .expect("tap node is a ThinOp")
    }

    fn flatten_mut(&mut self) -> &mut FlattenOp {
        self.topo
            .operator_mut(self.f_node)
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<FlattenOp>())
            .expect("head node is a FlattenOp")
    }

    /// The upstream node feeding tap position `pos`.
    fn upstream_node(&self, pos: usize) -> NodeId {
        match self.shape {
            TopologyShape::Star => self.f_node,
            TopologyShape::Chain => {
                if pos == 0 {
                    self.f_node
                } else {
                    self.taps[pos - 1].thin
                }
            }
        }
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

    /// Rule 4: keep `λ̄ = headroom × max tap rate`, updating the first tap's
    /// input rate accordingly.
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
            self.flatten_mut().set_target_rate(new_rate);
            self.refresh_tap_inputs();
        } else {
            self.f_rate = new_rate;
            self.refresh_tap_inputs();
            self.flatten_mut().set_target_rate(new_rate);
        }
    }

    /// Re-derives every tap's input rate from its upstream (idempotent).
    fn refresh_tap_inputs(&mut self) {
        for pos in 0..self.taps.len() {
            let rate = self.upstream_rate(pos);
            let node = self.taps[pos].thin;
            self.thin_mut(node).set_input_rate(rate);
        }
    }

    /// Inserts a consumer for `query` at `rate` over `overlap` (`full` when
    /// the query covers the entire cell); its output is staged for `U`
    /// input `port`. Returns the consumer's sink.
    pub(crate) fn insert_consumer(
        &mut self,
        query: QueryId,
        port: u32,
        rate: f64,
        overlap: Rect,
        full: bool,
    ) -> SinkId {
        assert!(rate > 0.0, "consumer rate must be > 0");
        // Locate or create the tap.
        let pos = match self.taps.iter().position(|t| rates_equal(t.rate, rate)) {
            Some(pos) => pos,
            None => {
                let pos = self.taps.iter().position(|t| t.rate < rate).unwrap_or(self.taps.len());
                self.splice_tap(pos, rate);
                pos
            }
        };

        // Build the consumer: optional P-operator, then a sink.
        let sink = self.topo.add_sink();
        let partition = if full {
            self.topo.connect(self.taps[pos].thin, OutputPort(0), Target::Sink(sink));
            None
        } else {
            assert!(
                self.cell_rect.contains_rect(&overlap),
                "overlap {overlap} escapes cell {}",
                self.cell_rect
            );
            let p = self.topo.add_operator(Box::new(PartitionOp::new(vec![overlap])));
            self.topo.connect(self.taps[pos].thin, OutputPort(0), Target::Node(p, InputPort(0)));
            self.topo.connect(p, OutputPort(0), Target::Sink(sink));
            Some(p)
        };
        self.taps[pos].consumers.push(QueryTap { query, port, partition, sink, overlap });

        // Rule 4 after the dust settles.
        self.retarget_f();
        self.assert_invariants();
        sink
    }

    /// Creates a `T` at tap position `pos` with output `rate` and splices it
    /// into the chain (rules 2 and 3).
    fn splice_tap(&mut self, pos: usize, rate: f64) {
        // Provisional F raise so a new top tap can legally splice in.
        let raised = rate * self.headroom;
        if raised > self.f_rate {
            self.f_rate = raised;
            self.flatten_mut().set_target_rate(raised);
        }
        let upstream_rate = self.upstream_rate(pos).max(rate);
        let seed = self.next_seed();
        let thin = self.topo.add_operator(Box::new(ThinOp::new(upstream_rate, rate, seed)));

        match self.shape {
            TopologyShape::Star => {
                self.topo.connect(self.f_node, OutputPort(0), Target::Node(thin, InputPort(0)));
                self.taps.insert(pos, RateTap { rate, thin, consumers: Vec::new() });
            }
            TopologyShape::Chain => {
                let upstream = self.upstream_node(pos);
                // Detach upstream from the tap that used to follow it.
                if let Some(next) = self.taps.get(pos) {
                    let next_thin = next.thin;
                    self.topo.disconnect(
                        upstream,
                        OutputPort(0),
                        Target::Node(next_thin, InputPort(0)),
                    );
                    self.topo.connect(thin, OutputPort(0), Target::Node(next_thin, InputPort(0)));
                }
                self.topo.connect(upstream, OutputPort(0), Target::Node(thin, InputPort(0)));
                self.taps.insert(pos, RateTap { rate, thin, consumers: Vec::new() });
                self.refresh_tap_inputs();
            }
        }
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
        let consumer = self.taps[pos].consumers.swap_remove(cidx);
        let leftovers = self.topo.remove_sink(consumer.sink);
        debug_assert!(leftovers.is_empty(), "sinks are staged empty at every ingest");
        if let Some(p) = consumer.partition {
            self.topo.remove_node(p);
        } else {
            // Direct thin→sink edge died with the sink removal.
        }

        // Rule 3: a tap without consumers is no longer a branching point —
        // remove its T and merge the neighbours.
        if self.taps[pos].consumers.is_empty() {
            let tap = self.taps.remove(pos);
            match self.shape {
                TopologyShape::Star => {
                    self.topo.remove_node(tap.thin);
                }
                TopologyShape::Chain => {
                    // After removal, position `pos` holds the tap that used
                    // to follow the removed one (if any).
                    let downstream: Option<NodeId> = self.taps.get(pos).map(|t| t.thin);
                    self.topo.remove_node(tap.thin);
                    if let Some(down) = downstream {
                        let upstream = if pos == 0 { self.f_node } else { self.taps[pos - 1].thin };
                        self.topo.connect(
                            upstream,
                            OutputPort(0),
                            Target::Node(down, InputPort(0)),
                        );
                    }
                    self.refresh_tap_inputs();
                }
            }
        }
        self.retarget_f();
        self.assert_invariants();
        true
    }

    /// Pushes one ingestion batch through the chain.
    pub(crate) fn process_batch(&mut self, batch: &[CrowdTuple]) {
        self.topo.push(self.f_node, batch);
    }

    /// Records an epoch in which this chain received *no* tuples at all.
    ///
    /// The engine never invokes operators on empty batches, so without this
    /// a totally starved cell would leave its last `N_v` frozen and the
    /// budget tuner would act on stale telemetry. Total starvation is the
    /// strongest possible violation: 100%.
    pub(crate) fn record_starved_epoch(&mut self) {
        self.flatten_report().record_starved_batch();
    }

    /// Moves every consumer's sink output onto the end of `staging`, one
    /// piece per non-empty sink, tagged with its query and port. The sinks
    /// keep their capacity for the next epoch.
    pub(crate) fn stage_output(&mut self, staging: &mut Staging) {
        for consumer in self.taps.iter().flat_map(|t| &t.consumers) {
            let start = staging.tuples.len();
            self.topo.drain_sink_into(consumer.sink, &mut staging.tuples);
            if staging.tuples.len() > start {
                staging.pieces.push((consumer.query, consumer.port, staging.tuples.len()));
            }
        }
    }

    /// Moves the per-cell output of `query` onto the end of `out`: the
    /// query-major drain the test oracles hold the staging to.
    #[cfg(test)]
    pub(crate) fn drain_query(&mut self, query: QueryId, out: &mut Vec<CrowdTuple>) {
        for consumer in self.taps.iter().flat_map(|t| &t.consumers) {
            if consumer.query == query {
                self.topo.drain_sink_into(consumer.sink, out);
            }
        }
    }

    /// Total tuples processed by every operator in this chain (the work
    /// measure of the sharing experiments).
    pub fn tuples_processed(&self) -> u64 {
        self.topo.metrics().total_tuples_processed()
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

    /// Structural invariants (rules 1–4), checked after every mutation in
    /// debug and test builds.
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
        // Wiring: chain taps form a path; star taps hang off F.
        for (pos, tap) in self.taps.iter().enumerate() {
            let upstream = self.upstream_node(pos);
            assert!(
                self.topo
                    .targets(upstream, OutputPort(0))
                    .contains(&Target::Node(tap.thin, InputPort(0))),
                "tap {pos} not wired to its upstream"
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

    fn drained(c: &mut AttrChain, query: QueryId) -> Vec<CrowdTuple> {
        let mut out = Vec::new();
        c.drain_query(query, &mut out);
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
        // One F and one T; two sinks but no P.
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
        for e in 0..5 {
            c.process_batch(&batch(2_000, e as f64 * 10.0));
        }
        let q1: Vec<_> = drained(&mut c, QueryId(1));
        let q2: Vec<_> = drained(&mut c, QueryId(2));
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
        c.process_batch(&batch(2_000, 0.0));
        let mut staging = Staging::default();
        c.stage_output(&mut staging);
        let tags: Vec<_> = staging.pieces.iter().map(|&(q, port, _)| (q, port)).collect();
        assert_eq!(tags, vec![(QueryId(1), 3), (QueryId(2), 5)], "tap order, non-empty sinks");
        assert_eq!(staging.pieces.last().map(|p| p.2), Some(staging.tuples.len()));
        // Staging left every sink empty: a second staging finds nothing.
        let mut again = Staging::default();
        c.stage_output(&mut again);
        assert!(again.pieces.is_empty() && again.tuples.is_empty());
        assert!(drained(&mut c, QueryId(1)).is_empty());
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
        for e in 0..5 {
            c.process_batch(&batch(2_000, e as f64 * 10.0));
        }
        let got1 = drained(&mut c, QueryId(1)).len() as f64;
        let got2 = drained(&mut c, QueryId(2)).len() as f64;
        assert!((got1 - 200.0).abs() < 60.0, "q1 got {got1}");
        assert!((got2 - 50.0).abs() < 25.0, "q2 got {got2}");
        // Star deletion leaves the other tap untouched.
        c.delete_consumer(QueryId(1));
        assert_eq!(c.tap_rates(), vec![1.0]);
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
