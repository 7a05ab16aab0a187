//! In-memory spans, recorded at the layer boundaries the benchmark can see
//! from outside (the driver's seams), and the self-time arithmetic over
//! them. Spans of one epoch share the epoch id; they are written out only
//! after the run (`--trace-out`).

use crate::adapter::EpochStamps;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub epoch: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one run's stamps describe. Per epoch: `epoch` (slot open →
/// sealed) with children `core.slot` (open → control starts: crowd drain,
/// ingest, engine, dispatch of the next slot), `adaptive.hook` (when a hook
/// is installed) and `runlog.append` (the tap). The `epoch` span's self
/// time is the driver's glue between the seams.
pub fn from_stamps(stamps: &[EpochStamps]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(stamps.len() * 4);
    for (e, s) in stamps.iter().enumerate() {
        if s.open == 0 || s.sealed == 0 {
            continue;
        }
        let epoch = e as u64;
        let root = spans.len();
        spans.push(Span { name: "epoch", start_ns: s.open, end_ns: s.sealed, parent: None, epoch });
        let mut child = |name, start_ns, end_ns| {
            spans.push(Span { name, start_ns, end_ns, parent: Some(root), epoch });
        };
        let hooked = s.hook_start != 0 && s.hook_end != 0;
        if s.tap_start != 0 {
            child("core.slot", s.open, if hooked { s.hook_start } else { s.tap_start });
            if hooked {
                child("adaptive.hook", s.hook_start, s.hook_end);
            }
            child("runlog.append", s.tap_start, s.sealed);
        }
    }
    spans
}

/// Each span's duration minus the part of it its child spans cover
/// (children are clipped to the parent and merged where they overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, intervals)| {
            intervals.sort_unstable();
            let (mut covered, mut edge) = (0u64, s.start_ns);
            for (lo, hi) in intervals.iter() {
                if *hi > edge {
                    covered += hi - (*lo).max(edge);
                    edge = *hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self times (ns) of every span named `name`, in epoch order.
pub fn self_times_of(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    spans.iter().zip(self_ns).filter(|(s, _)| s.name == name).map(|(_, t)| *t as f64).collect()
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or(-1, |p| p as i64),
                s.epoch
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, epoch: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span("epoch", 100, 200, None),
            span("core.slot", 100, 160, Some(0)),
            span("adaptive.hook", 165, 170, Some(0)),
            span("runlog.append", 172, 200, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![7, 60, 5, 28]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("epoch", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 150, Some(0)),
            span("grandchild", 45, 50, Some(2)),
        ];
        // a ∪ b covers 10..80, c is clipped to 90..100: 80 covered, 20 self.
        assert_eq!(self_times_ns(&spans)[0], 20);
        assert_eq!(self_times_ns(&spans)[2], 35);
    }

    #[test]
    fn stamps_become_a_tree_per_epoch() {
        let stamps = [
            EpochStamps {
                open: 10,
                hook_start: 50,
                hook_end: 55,
                tap_start: 56,
                sealed: 90,
                ..Default::default()
            },
            EpochStamps { open: 91, tap_start: 130, sealed: 140, ..Default::default() },
            EpochStamps::default(),
        ];
        let spans = from_stamps(&stamps);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.epoch, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("epoch", 0, None),
                ("core.slot", 0, Some(0)),
                ("adaptive.hook", 0, Some(0)),
                ("runlog.append", 0, Some(0)),
                ("epoch", 1, None),
                ("core.slot", 1, Some(4)),
                ("runlog.append", 1, Some(4)),
            ]
        );
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_times_of(&spans, &self_ns, "epoch"), vec![1.0, 0.0]);
        assert_eq!(self_times_of(&spans, &self_ns, "core.slot"), vec![40.0, 39.0]);
    }
}
