//! The execution topology: a dynamic DAG of operators and sinks.

use crate::metrics::{NodeMetrics, TopologyMetrics};
use crate::operator::{BatchPool, Emitter, InputPort, Operator, OutputPort};
use std::collections::VecDeque;

/// Identifier of an operator node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Identifier of a sink (a named stream collection point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SinkId(pub(crate) usize);

/// Where an edge delivers tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Another operator's input port.
    Node(NodeId, InputPort),
    /// A sink buffer.
    Sink(SinkId),
}

struct NodeSlot<T> {
    operator: Box<dyn Operator<T>>,
    /// Outgoing edges, indexed by output port.
    edges: Vec<Vec<Target>>,
    metrics: NodeMetrics,
}

/// Routes one batch to a target: node deliveries enqueue the buffer
/// (ownership moves along the edge); sink deliveries append the tuples and
/// recycle the buffer. A free function so the executor can split-borrow
/// the scratch queue/pool against `sinks`.
fn deliver<T>(
    target: Target,
    mut buf: Vec<T>,
    queue: &mut VecDeque<(NodeId, InputPort, Vec<T>)>,
    sinks: &mut [Option<Vec<T>>],
    pool: &mut BatchPool<T>,
) {
    match target {
        Target::Node(nid, port) => queue.push_back((nid, port, buf)),
        Target::Sink(sid) => {
            if let Some(Some(sink)) = sinks.get_mut(sid.0) {
                sink.append(&mut buf);
            }
            pool.put(buf);
        }
    }
}

/// A dynamic dataflow DAG.
///
/// CrAQR materializes one topology per *grid cell* (the hashmap value of
/// Section V) and rewires it as queries come and go, so the graph supports
/// node removal and edge re-targeting, not just construction.
///
/// The executor ([`Topology::push`]) is breadth-first and synchronous. The
/// graph must stay acyclic; a hop budget proportional to the node count
/// catches accidental cycles and panics instead of spinning.
pub struct Topology<T> {
    nodes: Vec<Option<NodeSlot<T>>>,
    sinks: Vec<Option<Vec<T>>>,
    live_nodes: usize,
    scratch: PushScratch<T>,
    /// Optional nanosecond clock for per-node processing time. `None`
    /// (the default) means `push` never reads a clock and
    /// [`NodeMetrics::busy_ns`] stays zero — instrumentation is byte- and
    /// cycle-inert unless a caller opts in via [`Topology::set_clock`].
    clock: Option<fn() -> u64>,
}

/// Reusable executor state: the BFS queue, the buffer pool every in-flight
/// batch is drawn from, the persistent emitter, and a target scratch list.
/// Kept on the topology so repeated [`Topology::push`] calls are
/// allocation-free once warmed up.
struct PushScratch<T> {
    queue: VecDeque<(NodeId, InputPort, Vec<T>)>,
    pool: BatchPool<T>,
    emitter: Emitter<T>,
    targets: Vec<Target>,
}

impl<T> Default for PushScratch<T> {
    fn default() -> Self {
        Self {
            queue: VecDeque::new(),
            pool: BatchPool::default(),
            emitter: Emitter::idle(),
            targets: Vec::new(),
        }
    }
}

impl<T: Clone> Default for Topology<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Topology<T> {
    /// An empty topology.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            sinks: Vec::new(),
            live_nodes: 0,
            scratch: PushScratch::default(),
            clock: None,
        }
    }

    /// Installs (or removes) the nanosecond clock used to accumulate
    /// [`NodeMetrics::busy_ns`] around every operator `process` call.
    /// With no clock installed, `push` performs zero clock reads and
    /// `busy_ns` stays zero. The measured value is whatever the supplied
    /// clock measures — callers should pass a *cheap* reader (the clock
    /// fires twice per batch; a vDSO monotonic read keeps instrumented
    /// runs within a couple percent of uninstrumented ones, where a
    /// thread-CPU syscall would dwarf small operators).
    pub fn set_clock(&mut self, clock: Option<fn() -> u64>) {
        self.clock = clock;
    }

    /// Adds an operator, returning its node id.
    pub fn add_operator(&mut self, operator: Box<dyn Operator<T>>) -> NodeId {
        let ports = operator.output_ports();
        let slot = NodeSlot {
            operator,
            edges: (0..ports.max(1)).map(|_| Vec::new()).collect(),
            metrics: NodeMetrics::default(),
        };
        self.live_nodes += 1;
        // Reuse a free slot if any (keeps ids dense under churn).
        if let Some(idx) = self.nodes.iter().position(Option::is_none) {
            self.nodes[idx] = Some(slot);
            NodeId(idx)
        } else {
            self.nodes.push(Some(slot));
            NodeId(self.nodes.len() - 1)
        }
    }

    /// Adds a sink, returning its id.
    pub fn add_sink(&mut self) -> SinkId {
        if let Some(idx) = self.sinks.iter().position(Option::is_none) {
            self.sinks[idx] = Some(Vec::new());
            SinkId(idx)
        } else {
            self.sinks.push(Some(Vec::new()));
            SinkId(self.sinks.len() - 1)
        }
    }

    /// Connects `from`'s output port to a target.
    ///
    /// # Panics
    /// Panics when the node, port, or target does not exist, or when the
    /// edge already exists (double-delivery bug).
    #[track_caller]
    pub fn connect(&mut self, from: NodeId, port: OutputPort, target: Target) {
        match target {
            Target::Node(nid, _) => assert!(self.node_exists(nid), "target node {nid:?} missing"),
            Target::Sink(sid) => {
                assert!(self.sinks.get(sid.0).is_some_and(Option::is_some), "sink {sid:?} missing")
            }
        }
        let slot = self.slot_mut(from);
        let edges = slot
            .edges
            .get_mut(port.0 as usize)
            .unwrap_or_else(|| panic!("node has no output port {port:?}"));
        assert!(!edges.contains(&target), "edge already exists");
        edges.push(target);
    }

    /// Removes an edge; returns `true` when it existed.
    pub fn disconnect(&mut self, from: NodeId, port: OutputPort, target: Target) -> bool {
        let slot = self.slot_mut(from);
        let Some(edges) = slot.edges.get_mut(port.0 as usize) else {
            return false;
        };
        let before = edges.len();
        edges.retain(|t| *t != target);
        edges.len() != before
    }

    /// Removes a node, detaching every edge that references it.
    ///
    /// # Panics
    /// Panics when the node does not exist.
    #[track_caller]
    pub fn remove_node(&mut self, node: NodeId) {
        assert!(self.node_exists(node), "node {node:?} missing");
        self.nodes[node.0] = None;
        self.live_nodes -= 1;
        for slot in self.nodes.iter_mut().flatten() {
            for edges in &mut slot.edges {
                edges.retain(|t| !matches!(t, Target::Node(nid, _) if *nid == node));
            }
        }
    }

    /// Removes a sink and its incoming edges, returning its final contents.
    ///
    /// # Panics
    /// Panics when the sink does not exist.
    #[track_caller]
    pub fn remove_sink(&mut self, sink: SinkId) -> Vec<T> {
        let buf = self.sinks[sink.0].take().unwrap_or_else(|| panic!("sink {sink:?} missing"));
        for slot in self.nodes.iter_mut().flatten() {
            for edges in &mut slot.edges {
                edges.retain(|t| !matches!(t, Target::Sink(sid) if *sid == sink));
            }
        }
        buf
    }

    /// Number of live operator nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of free batch buffers retained by the executor's pool —
    /// observability for the allocation-free hot path (a warmed-up
    /// topology holds a small, stable number here).
    pub fn pooled_buffers(&self) -> usize {
        self.scratch.pool.retained()
    }

    /// `true` when the node id refers to a live node.
    pub fn node_exists(&self, node: NodeId) -> bool {
        self.nodes.get(node.0).is_some_and(Option::is_some)
    }

    /// Outgoing targets of `(node, port)` (empty when the port is unwired).
    pub fn targets(&self, node: NodeId, port: OutputPort) -> &[Target] {
        self.slot(node).edges.get(port.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// All downstream targets of a node across its ports.
    pub fn all_targets(&self, node: NodeId) -> Vec<Target> {
        self.slot(node).edges.iter().flatten().copied().collect()
    }

    /// Number of distinct downstream consumers of a node — `> 1` marks the
    /// *branching points* of the paper's deletion rule.
    pub fn fanout(&self, node: NodeId) -> usize {
        self.all_targets(node).len()
    }

    /// Copies a batch into a pooled buffer, pushes it into `entry`'s input
    /// port 0 and runs the dataflow to quiescence.
    ///
    /// The executor itself is allocation-free in steady state: the entry
    /// copy, in-flight batches, fan-out copies and emitter port buffers
    /// are all drawn from and returned to the topology's [`BatchPool`],
    /// and the BFS queue and emitter persist across pushes. Allocation
    /// happens only while the pool warms up (the first few batches through
    /// the widest fan-out), when a batch outgrows every pooled buffer, when
    /// a sink grows past its retained capacity, and inside operators that
    /// build per-batch state. On the benchmark's `grid_replay` (2 304
    /// topologies, about three tuples each) the whole process then makes
    /// 165 allocations an epoch (`process.allocs_per_epoch`; see the
    /// crate docs for the other workloads).
    ///
    /// # Panics
    /// Panics when `entry` is missing or a cycle keeps batches circulating
    /// beyond the hop budget.
    #[track_caller]
    pub fn push(&mut self, entry: NodeId, batch: &[T]) {
        assert!(self.node_exists(entry), "entry node {entry:?} missing");
        // Scratch is moved out so the executor can split-borrow it against
        // `self.nodes` / `self.sinks`; it is restored on every exit path
        // except a panic (which poisons the whole topology anyway).
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut entry_buf = scratch.pool.take();
        entry_buf.extend_from_slice(batch);
        scratch.queue.push_back((entry, InputPort(0), entry_buf));
        // Hop budget: every delivered batch traverses ≥1 edge of a DAG with
        // `live_nodes` nodes; fanout ≤ total edges. A generous multiplier
        // catches cycles without bounding legitimate fan-out.
        let mut budget = 64 * (self.live_nodes + 1) * (self.live_nodes + 1);
        while let Some((nid, port, buf)) = scratch.queue.pop_front() {
            assert!(
                budget > 0,
                "hop budget exhausted at node {nid:?} ({}): is the topology cyclic?",
                self.nodes
                    .get(nid.0)
                    .and_then(Option::as_ref)
                    .map_or("removed", |s| s.operator.name()),
            );
            budget -= 1;
            if buf.is_empty() {
                scratch.pool.put(buf);
                continue;
            }
            let Some(slot) = self.nodes.get_mut(nid.0).and_then(Option::as_mut) else {
                // Node removed while batches were in flight: drop silently,
                // matching a DSMS tearing down a query mid-stream.
                scratch.pool.put(buf);
                continue;
            };
            slot.metrics.tuples_in += buf.len() as u64;
            slot.metrics.batches += 1;
            let ports = slot.operator.output_ports().max(1);
            scratch.emitter.reset_with(ports, &mut scratch.pool);
            match self.clock {
                Some(clock) => {
                    let started = clock();
                    slot.operator.process(port, &buf, &mut scratch.emitter);
                    slot.metrics.busy_ns += clock().saturating_sub(started);
                }
                None => slot.operator.process(port, &buf, &mut scratch.emitter),
            }
            scratch.pool.put(buf);
            // Route each port's emissions. `slot` borrows `self.nodes`
            // while sink delivery borrows `self.sinks`: disjoint fields.
            for p in 0..ports {
                if scratch.emitter.port_len(p) == 0 {
                    continue;
                }
                let out = scratch.emitter.take_buffer(p, &mut scratch.pool);
                slot.metrics.tuples_out += out.len() as u64;
                scratch.targets.clear();
                scratch.targets.extend_from_slice(slot.edges.get(p).map_or(&[], Vec::as_slice));
                if scratch.targets.is_empty() {
                    // Unwired port: tuples fall on the floor by design.
                    scratch.pool.put(out);
                    continue;
                }
                // Fan-out: pooled copies for every target but the last,
                // which takes the buffer itself.
                let last = scratch.targets.len() - 1;
                for i in 0..last {
                    let mut copy = scratch.pool.take();
                    copy.extend_from_slice(&out);
                    deliver(
                        scratch.targets[i],
                        copy,
                        &mut scratch.queue,
                        &mut self.sinks,
                        &mut scratch.pool,
                    );
                }
                deliver(
                    scratch.targets[last],
                    out,
                    &mut scratch.queue,
                    &mut self.sinks,
                    &mut scratch.pool,
                );
            }
        }
        self.scratch = scratch;
    }

    /// Moves a sink's collected tuples onto the end of `out`. The sink
    /// keeps its capacity, so a sink drained every epoch stops
    /// reallocating once it has held its largest epoch.
    ///
    /// # Panics
    /// Panics when the sink does not exist.
    #[track_caller]
    pub fn drain_sink_into(&mut self, sink: SinkId, out: &mut Vec<T>) {
        out.append(
            self.sinks
                .get_mut(sink.0)
                .and_then(Option::as_mut)
                .unwrap_or_else(|| panic!("sink {sink:?} missing")),
        );
    }

    /// Mutable access to a node's operator, for in-place reconfiguration
    /// through [`Operator::as_any_mut`].
    ///
    /// # Panics
    /// Panics when the node does not exist.
    #[track_caller]
    pub fn operator_mut(&mut self, node: NodeId) -> &mut dyn Operator<T> {
        self.slot_mut(node).operator.as_mut()
    }

    /// Metrics snapshot over live nodes.
    pub fn metrics(&self) -> TopologyMetrics {
        TopologyMetrics {
            nodes: self
                .nodes
                .iter()
                .flatten()
                .map(|s| (s.operator.name().to_string(), s.metrics))
                .collect(),
        }
    }

    #[track_caller]
    fn slot(&self, node: NodeId) -> &NodeSlot<T> {
        self.nodes
            .get(node.0)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("node {node:?} missing"))
    }

    #[track_caller]
    fn slot_mut(&mut self, node: NodeId) -> &mut NodeSlot<T> {
        self.nodes
            .get_mut(node.0)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("node {node:?} missing"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::FnOperator;

    fn passthrough(name: &str) -> Box<dyn Operator<u32>> {
        Box::new(FnOperator::new(name, |batch: &[u32], out: &mut Emitter<u32>| {
            out.emit_batch(OutputPort(0), batch.to_vec());
        }))
    }

    /// An operator that keeps even numbers on port 0 and odds on port 1.
    struct EvenOddSplit;

    impl Operator<u32> for EvenOddSplit {
        fn name(&self) -> &str {
            "split"
        }
        fn output_ports(&self) -> usize {
            2
        }
        fn process(&mut self, _port: InputPort, batch: &[u32], out: &mut Emitter<u32>) {
            for &x in batch {
                out.emit(OutputPort(x as u16 % 2), x);
            }
        }
    }

    #[test]
    fn linear_chain_delivers_to_sink() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let b = t.add_operator(passthrough("b"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Node(b, InputPort(0)));
        t.connect(b, OutputPort(0), Target::Sink(sink));
        t.push(a, &[1, 2, 3]);
        assert_eq!(drained(&mut t, sink), vec![1, 2, 3]);
        assert_eq!(counters(&t, "a").tuples_in, 3);
        assert_eq!(counters(&t, "b").tuples_out, 3);
    }

    #[test]
    fn clock_gated_busy_time_accumulates_only_when_installed() {
        // A monotone fake clock: each read advances by 10ns, so every
        // process call books exactly 10ns of busy time deterministically.
        fn fake_clock() -> u64 {
            use std::sync::atomic::{AtomicU64, Ordering};
            static TICKS: AtomicU64 = AtomicU64::new(0);
            TICKS.fetch_add(10, Ordering::Relaxed)
        }
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Sink(sink));
        t.push(a, &[1]);
        assert_eq!(counters(&t, "a").busy_ns, 0, "no clock, no busy time");
        t.set_clock(Some(fake_clock));
        t.push(a, &[2]);
        t.push(a, &[3]);
        assert_eq!(counters(&t, "a").busy_ns, 20, "one 10ns lap per batch");
        t.set_clock(None);
        t.push(a, &[4]);
        assert_eq!(counters(&t, "a").busy_ns, 20, "removing the clock stops accumulation");
        assert_eq!(counters(&t, "a").tuples_in, 4, "counting is unaffected by the clock");
    }

    #[test]
    fn multi_port_routing() {
        let mut t: Topology<u32> = Topology::new();
        let s = t.add_operator(Box::new(EvenOddSplit));
        let evens = t.add_sink();
        let odds = t.add_sink();
        t.connect(s, OutputPort(0), Target::Sink(evens));
        t.connect(s, OutputPort(1), Target::Sink(odds));
        t.push(s, &[1, 2, 3, 4, 5]);
        assert_eq!(drained(&mut t, evens), vec![2, 4]);
        assert_eq!(drained(&mut t, odds), vec![1, 3, 5]);
    }

    #[test]
    fn fanout_clones_batches() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let s1 = t.add_sink();
        let s2 = t.add_sink();
        t.connect(a, OutputPort(0), Target::Sink(s1));
        t.connect(a, OutputPort(0), Target::Sink(s2));
        t.push(a, &[7]);
        assert_eq!(drained(&mut t, s1), vec![7]);
        assert_eq!(drained(&mut t, s2), vec![7]);
        assert_eq!(t.fanout(a), 2);
    }

    #[test]
    fn unwired_port_drops_tuples() {
        let mut t: Topology<u32> = Topology::new();
        let s = t.add_operator(Box::new(EvenOddSplit));
        let evens = t.add_sink();
        t.connect(s, OutputPort(0), Target::Sink(evens));
        // Port 1 (odds) left unwired.
        t.push(s, &[1, 2, 3]);
        assert_eq!(drained(&mut t, evens), vec![2]);
    }

    #[test]
    fn remove_node_detaches_edges() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let b = t.add_operator(passthrough("b"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Node(b, InputPort(0)));
        t.connect(b, OutputPort(0), Target::Sink(sink));
        t.remove_node(b);
        assert!(!t.node_exists(b));
        assert_eq!(t.node_count(), 1);
        assert!(t.targets(a, OutputPort(0)).is_empty());
        // Pushing still works; tuples just stop at a.
        t.push(a, &[1]);
        assert_eq!(drained(&mut t, sink), Vec::<u32>::new());
    }

    #[test]
    fn node_slot_reuse_keeps_ids_dense() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let b = t.add_operator(passthrough("b"));
        t.remove_node(a);
        let c = t.add_operator(passthrough("c"));
        assert_eq!(c, a, "slot should be reused");
        assert!(t.node_exists(b));
        let names: Vec<_> = t.metrics().nodes.into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["c", "b"], "c must live in a's slot");
    }

    /// Regression: ids must stay dense under sustained churn, reused slots
    /// must not inherit the removed node's edges or metrics, and edges
    /// pointing *at* the removed node must not resurrect against the new
    /// tenant of the slot.
    #[test]
    fn node_slot_reuse_under_churn_starts_clean() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let b = t.add_operator(passthrough("b"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Node(b, InputPort(0)));
        t.connect(b, OutputPort(0), Target::Sink(sink));
        t.push(a, &[1, 2]);
        assert_eq!(counters(&t, "b").tuples_in, 2);

        // Churn the downstream node several times; the freed slot must be
        // handed out again every time (dense ids).
        for round in 0..3u32 {
            t.remove_node(b);
            let b2 = t.add_operator(passthrough("b2"));
            assert_eq!(b2, b, "round {round}: freed slot must be reused");
            // The reused slot starts clean: no outgoing edges, no metrics,
            // and nothing upstream feeds it until reconnected.
            assert!(t.all_targets(b2).is_empty(), "stale outgoing edges survived");
            assert_eq!(counters(&t, "b2").tuples_in, 0, "stale metrics survived");
            assert!(t.all_targets(a).is_empty(), "edge at old tenant resurrected");
        }

        // Ids stay dense: two live nodes occupy slots 0 and 1.
        assert_eq!(t.node_count(), 2);
        assert!(t.node_exists(NodeId(0)) && t.node_exists(NodeId(1)));

        // Rewire and verify the dataflow is intact end to end.
        t.connect(a, OutputPort(0), Target::Node(b, InputPort(0)));
        t.connect(b, OutputPort(0), Target::Sink(sink));
        drained(&mut t, sink);
        t.push(a, &[7]);
        assert_eq!(drained(&mut t, sink), vec![7]);
    }

    #[test]
    fn cycle_panic_names_offending_node() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("alpha"));
        let b = t.add_operator(passthrough("beta"));
        t.connect(a, OutputPort(0), Target::Node(b, InputPort(0)));
        t.connect(b, OutputPort(0), Target::Node(a, InputPort(0)));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.push(a, &[1]);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("NodeId("), "panic must name the node id: {msg}");
        assert!(msg.contains("cyclic"), "panic must mention the cycle: {msg}");
    }

    /// A node's counters, read through the metrics snapshot.
    fn counters(t: &Topology<u32>, name: &str) -> NodeMetrics {
        t.metrics().by_name(name).expect("live node")
    }

    fn drained(t: &mut Topology<u32>, sink: SinkId) -> Vec<u32> {
        let mut out = Vec::new();
        t.drain_sink_into(sink, &mut out);
        out
    }

    /// The push hot path recycles batch buffers: the entry copy and every
    /// in-flight buffer are taken from the pool and returned to it, so once
    /// the emitter holds a buffer per port of the widest operator (two
    /// pushes here) the pool level stays where it is.
    #[test]
    fn push_recycles_buffers_across_epochs() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let s = t.add_operator(Box::new(EvenOddSplit));
        let evens = t.add_sink();
        let odds = t.add_sink();
        t.connect(a, OutputPort(0), Target::Node(s, InputPort(0)));
        t.connect(a, OutputPort(0), Target::Sink(evens)); // fan-out copy path
        t.connect(s, OutputPort(0), Target::Sink(evens));
        t.connect(s, OutputPort(1), Target::Sink(odds));
        let batch: Vec<u32> = (0..100).collect();
        let epochs = 40;
        t.push(a, &batch);
        t.push(a, &batch);
        let warm = t.pooled_buffers();
        assert!((1..=16).contains(&warm), "warm pool level {warm}");
        for e in 2..epochs {
            t.push(a, &batch);
            assert_eq!(t.pooled_buffers(), warm, "pool level drifted at epoch {e}");
        }
        // Dataflow correctness is unaffected by recycling.
        assert_eq!(drained(&mut t, odds).len(), epochs * 50);
        assert_eq!(drained(&mut t, evens).len(), epochs * 150);
    }

    #[test]
    fn drained_sink_keeps_its_capacity() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Sink(sink));
        t.push(a, &[1, 2, 3]);
        let mut out = vec![0];
        t.drain_sink_into(sink, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3], "drained tuples append after what was there");
        assert!(t.sinks[sink.0].as_ref().is_some_and(|s| s.is_empty() && s.capacity() >= 3));
    }

    #[test]
    fn remove_sink_returns_contents_and_detaches() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Sink(sink));
        t.push(a, &[1, 2]);
        let contents = t.remove_sink(sink);
        assert_eq!(contents, vec![1, 2]);
        assert!(t.targets(a, OutputPort(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "edge already exists")]
    fn duplicate_edge_rejected() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Sink(sink));
        t.connect(a, OutputPort(0), Target::Sink(sink));
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn cycle_is_detected() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let b = t.add_operator(passthrough("b"));
        t.connect(a, OutputPort(0), Target::Node(b, InputPort(0)));
        t.connect(b, OutputPort(0), Target::Node(a, InputPort(0)));
        t.push(a, &[1]);
    }

    #[test]
    fn disconnect_removes_edge() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Sink(sink));
        assert!(t.disconnect(a, OutputPort(0), Target::Sink(sink)));
        assert!(!t.disconnect(a, OutputPort(0), Target::Sink(sink)));
        t.push(a, &[1]);
        assert!(drained(&mut t, sink).is_empty());
    }

    #[test]
    fn metrics_snapshot_covers_live_nodes() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("alpha"));
        let sink = t.add_sink();
        t.connect(a, OutputPort(0), Target::Sink(sink));
        t.push(a, &[1, 2, 3, 4]);
        let m = t.metrics();
        assert_eq!(m.by_name("alpha").unwrap().tuples_in, 4);
        assert_eq!(m.total_tuples_processed(), 4);
    }

    #[test]
    fn empty_batches_are_skipped() {
        let mut t: Topology<u32> = Topology::new();
        let a = t.add_operator(passthrough("a"));
        t.push(a, &[]);
        assert_eq!(counters(&t, "a").batches, 0);
    }
}
