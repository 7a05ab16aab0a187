//! Per-node execution counters.

/// Counters for one operator node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeMetrics {
    /// Tuples received across all input ports.
    pub tuples_in: u64,
    /// Tuples emitted across all output ports.
    pub tuples_out: u64,
    /// Input batches processed.
    pub batches: u64,
    /// Cumulative processing time (nanoseconds) spent inside this
    /// operator's `process` calls. Only accumulated when the owning
    /// topology has a clock installed ([`crate::Topology::set_clock`]);
    /// zero otherwise. Host- and schedule-dependent, so it is **excluded
    /// from equality** (and therefore from every checksummed comparison)
    /// exactly like shard `busy_ns`.
    pub busy_ns: u64,
}

/// Equality ignores `busy_ns`: two runs that processed the same tuples
/// compare equal regardless of how long the host took.
impl PartialEq for NodeMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.tuples_in == other.tuples_in
            && self.tuples_out == other.tuples_out
            && self.batches == other.batches
    }
}

impl Eq for NodeMetrics {}

impl NodeMetrics {
    /// Accumulates another node's counters into this one (used when
    /// aggregating many per-cell topologies into a fleet-wide report).
    pub fn absorb(&mut self, other: &NodeMetrics) {
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
        self.batches += other.batches;
        self.busy_ns += other.busy_ns;
    }
}

/// A whole-topology metrics snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyMetrics {
    /// `(node name, metrics)` for every live node, in node-id order.
    pub nodes: Vec<(String, NodeMetrics)>,
}

impl TopologyMetrics {
    /// Sum of tuples processed (received) by all nodes — the "work" measure
    /// used to compare shared topologies against per-query processing.
    pub fn total_tuples_processed(&self) -> u64 {
        self.nodes.iter().map(|(_, m)| m.tuples_in).sum()
    }

    /// Looks up a node's metrics by name (first match).
    pub fn by_name(&self, name: &str) -> Option<NodeMetrics> {
        self.nodes.iter().find(|(n, _)| n == name).map(|(_, m)| *m)
    }

    /// Folds another snapshot into this one **by node name**: nodes present
    /// in both accumulate counter-wise, nodes only in `other` append in
    /// `other`'s order. The reporting hook used to combine per-chain
    /// topologies into one fleet-wide view.
    pub fn absorb(&mut self, other: &TopologyMetrics) {
        for (name, m) in &other.nodes {
            match self.nodes.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.absorb(m),
                None => self.nodes.push((name.clone(), *m)),
            }
        }
    }

    /// Aggregates node counters by operator *kind* — the name prefix before
    /// the first `(` (so `T(1.000→0.500)` and `T(2.000→0.250)` both land
    /// under `T`). Returns `(kind, metrics)` sorted by kind, which gives
    /// scenario reports a stable, parameter-independent acceptance/thinning
    /// summary.
    pub fn by_kind(&self) -> Vec<(String, NodeMetrics)> {
        let mut kinds: Vec<(String, NodeMetrics)> = Vec::new();
        for (name, m) in &self.nodes {
            let kind = name.split('(').next().unwrap_or(name).trim().to_string();
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, agg)) => agg.absorb(m),
                None => kinds.push((kind, *m)),
            }
        }
        kinds.sort_by(|(a, _), (b, _)| a.cmp(b));
        kinds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_by_name_and_appends_new_nodes() {
        let mut a = TopologyMetrics {
            nodes: vec![(
                "F(λ̄=1.000)".into(),
                NodeMetrics { tuples_in: 5, tuples_out: 4, batches: 1, busy_ns: 0 },
            )],
        };
        let b = TopologyMetrics {
            nodes: vec![
                (
                    "F(λ̄=1.000)".into(),
                    NodeMetrics { tuples_in: 3, tuples_out: 3, batches: 1, busy_ns: 0 },
                ),
                (
                    "T(1.000→0.500)".into(),
                    NodeMetrics { tuples_in: 7, tuples_out: 3, batches: 2, busy_ns: 0 },
                ),
            ],
        };
        a.absorb(&b);
        assert_eq!(a.by_name("F(λ̄=1.000)").unwrap().tuples_in, 8);
        assert_eq!(a.by_name("T(1.000→0.500)").unwrap().tuples_out, 3);
        assert_eq!(a.nodes.len(), 2);
    }

    #[test]
    fn by_kind_groups_parameterized_names() {
        let tm = TopologyMetrics {
            nodes: vec![
                (
                    "T(1.000→0.500)".into(),
                    NodeMetrics { tuples_in: 10, tuples_out: 5, batches: 1, busy_ns: 0 },
                ),
                (
                    "F(λ̄=2.000)".into(),
                    NodeMetrics { tuples_in: 20, tuples_out: 16, batches: 1, busy_ns: 0 },
                ),
                (
                    "T(2.000→0.250)".into(),
                    NodeMetrics { tuples_in: 8, tuples_out: 1, batches: 1, busy_ns: 0 },
                ),
            ],
        };
        let kinds = tm.by_kind();
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].0, "F");
        assert_eq!(kinds[1].0, "T");
        assert_eq!(kinds[1].1.tuples_in, 18);
        assert_eq!(kinds[1].1.tuples_out, 6);
        assert_eq!(kinds[1].1.batches, 2);
    }

    #[test]
    fn busy_ns_accumulates_but_never_affects_equality() {
        let mut a = NodeMetrics { tuples_in: 5, tuples_out: 5, batches: 1, busy_ns: 100 };
        let b = NodeMetrics { tuples_in: 5, tuples_out: 5, batches: 1, busy_ns: 999 };
        assert_eq!(a, b, "processing time is host-dependent and excluded from equality");
        a.absorb(&b);
        assert_eq!(a.busy_ns, 1099, "absorb still sums the timing");
        assert_eq!(a.tuples_in, 10);
    }

    #[test]
    fn totals_and_lookup() {
        let tm = TopologyMetrics {
            nodes: vec![
                ("F".into(), NodeMetrics { tuples_in: 10, tuples_out: 8, batches: 1, busy_ns: 0 }),
                ("T".into(), NodeMetrics { tuples_in: 8, tuples_out: 4, batches: 1, busy_ns: 0 }),
            ],
        };
        assert_eq!(tm.total_tuples_processed(), 18);
        assert_eq!(tm.by_name("T").unwrap().tuples_out, 4);
        assert!(tm.by_name("missing").is_none());
    }
}
