//! The names the benchmark emits, and the manifest (`BENCHMARK.json`) that
//! declares them with their bounds. The manifest is embedded at build time,
//! so the binary and the file cannot drift apart unnoticed: a unit test
//! holds the two lists equal.

use crate::adapter::{parse_json, ConfigValue, Table};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

/// What a user of the system sees. `epochs_failed` is the sixth: it is a
/// count that is zero on a correct run, so it travels as `failed` against
/// `attempted` rather than as a bounded metric.
pub const END_TO_END: [MetricDef; 5] = [
    hi("epochs_per_s", "1/s"),
    lo("epoch_ms_p50", "ms"),
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
    hi("rate_fidelity", "ratio"),
];

/// Single layers, from the traced run. Zero means "does not apply to this
/// workload" (no crowd in a replay, no hook without `[adaptive]`, …).
pub const PER_LAYER: [MetricDef; 49] = [
    lo("sensing.build_ms", "ms"),
    lo("sensing.dispatch_us_per_order", "us"),
    lo("sensing.step_ns_per_sensor_step", "ns"),
    lo("sensing.drain_ns_per_response", "ns"),
    hi("sensing.response_ratio", "ratio"),
    lo("sensing.share_of_epoch", "ratio"),
    lo("core.slot_ms_p50", "ms"),
    lo("core.server_slot_ms_p50", "ms"),
    lo("core.glue_us_p50", "us"),
    lo("core.build_ms", "ms"),
    lo("core.submit_ms_per_query", "ms"),
    lo("core.epoch_ms_p95", "ms"),
    lo("core.requests_per_epoch", "count"),
    hi("core.responses_per_epoch", "count"),
    hi("core.delivered_per_epoch", "count"),
    hi("core.delivered_ratio", "ratio"),
    lo("core.throttled", "count"),
    lo("core.retries", "count"),
    lo("core.stale_actions", "count"),
    lo("core.pool_fresh_allocations", "count"),
    hi("core.sharded2_speedup", "x"),
    hi("core.pipeline_speedup", "x"),
    lo("engine.ingest_ns_per_tuple", "ns"),
    lo("engine.ingest_ns_per_tuple_sharded2", "ns"),
    lo("engine.work_share", "ratio"),
    lo("engine.shard_skew", "ratio"),
    lo("engine.chains", "count"),
    lo("adaptive.hook_us_p50", "us"),
    lo("adaptive.share_of_epoch", "ratio"),
    lo("adaptive.replans", "count"),
    lo("adaptive.actions", "count"),
    lo("runlog.append_ms_p50", "ms"),
    lo("runlog.bytes_per_epoch", "B"),
    lo("runlog.seal_ms", "ms"),
    hi("runlog.encode_mb_per_s", "MB/s"),
    hi("runlog.parse_mb_per_s", "MB/s"),
    lo("runlog.share_of_epoch", "ratio"),
    lo("scenario.parse_us", "us"),
    lo("scenario.cli_record_s", "s"),
    lo("scenario.cli_replay_s", "s"),
    lo("telemetry.timer_overhead_pct", "%"),
    lo("process.allocs_per_epoch", "count"),
    lo("process.alloc_kb_per_epoch", "KiB"),
    lo("process.rss_growth_kb_per_epoch", "KiB"),
    lo("process.cpu_ms_per_epoch", "ms"),
    lo("tracing.overhead_pct", "%"),
    hi("tracing.coverage", "ratio"),
    hi("host.cpus", "count"),
    hi("host.speed", "x"),
];

/// Metric values by name, as one run produced them.
pub type Values = BTreeMap<&'static str, f64>;

/// `BENCHMARK.json` as committed at the repository root.
pub const MANIFEST_TEXT: &str = include_str!("../../BENCHMARK.json");

pub struct ManifestMetric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// What the binary itself needs of the manifest: how long a run measures
/// and the bounds `compare` applies.
pub struct Manifest {
    pub run_seconds: f64,
    pub end_to_end: Vec<ManifestMetric>,
}

pub fn table(v: &ConfigValue) -> Option<&Table> {
    match v {
        ConfigValue::Table(t) => Some(t),
        _ => None,
    }
}

pub fn array<'a>(t: &'a Table, key: &str) -> &'a [ConfigValue] {
    match t.get(key) {
        Some(ConfigValue::Array(items)) => items,
        _ => &[],
    }
}

pub fn string<'a>(t: &'a Table, key: &str) -> &'a str {
    match t.get(key) {
        Some(ConfigValue::Str(s)) => s,
        _ => "",
    }
}

pub fn number(v: Option<&ConfigValue>) -> Option<f64> {
    match v {
        Some(ConfigValue::Float(f)) => Some(*f),
        Some(ConfigValue::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

fn manifest_metrics(t: &Table, key: &str) -> Result<Vec<ManifestMetric>, String> {
    array(t, key)
        .iter()
        .map(|m| {
            let m = table(m).ok_or_else(|| format!("BENCHMARK.json: {key} holds a non-object"))?;
            let better = match string(m, "better") {
                "higher" => Better::Higher,
                "lower" => Better::Lower,
                other => return Err(format!("BENCHMARK.json: better = '{other}'")),
            };
            Ok(ManifestMetric {
                name: string(m, "name").to_string(),
                unit: string(m, "unit").to_string(),
                better,
                bound: number(m.get("bound")),
            })
        })
        .collect()
}

pub fn manifest() -> Result<Manifest, String> {
    let t = parse_json(MANIFEST_TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(Manifest {
        run_seconds: number(t.get("run_seconds")).ok_or("BENCHMARK.json: run_seconds missing")?,
        end_to_end: manifest_metrics(&t, "end_to_end")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_and_units_are_well_formed() {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
        }
        let mut names: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "a name is used twice");
    }

    #[test]
    fn manifest_lists_exactly_what_the_binary_emits() {
        let m = manifest().unwrap();
        let doc = parse_json(MANIFEST_TEXT).unwrap();
        let per_layer = manifest_metrics(&doc, "per_layer").unwrap();
        let workloads: Vec<(&str, &str)> = array(&doc, "workloads")
            .iter()
            .filter_map(table)
            .map(|w| (string(w, "name"), string(w, "why")))
            .collect();
        let listed = |v: &[ManifestMetric]| -> Vec<(String, String, Better)> {
            v.iter().map(|m| (m.name.clone(), m.unit.clone(), m.better)).collect()
        };
        let emitted = |v: Vec<&MetricDef>| -> Vec<(String, String, Better)> {
            v.iter().map(|m| (m.name.to_string(), m.unit.to_string(), m.better)).collect()
        };
        assert_eq!(listed(&m.end_to_end), emitted(END_TO_END.iter().collect()));
        assert_eq!(listed(&per_layer), emitted(PER_LAYER.iter().collect()));
        assert!(m.end_to_end.len() <= 16 && per_layer.len() <= 128);
        assert!(m.end_to_end.iter().all(|e| e.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(per_layer.iter().all(|e| e.bound.is_none()));
        let setup = m.end_to_end.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            m.end_to_end.iter().all(|e| e.bound <= setup.bound),
            "setup_s has the largest bound"
        );

        let names: Vec<&str> = workloads.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        assert_eq!(names.len(), 4);
        assert!(workloads.iter().all(|(_, why)| !why.is_empty() && why.len() <= 200));
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);
    }
}
