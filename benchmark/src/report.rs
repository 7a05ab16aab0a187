//! What a run prints and writes: the metric table, the contract's result
//! line, and the detailed JSON fragment `all` assembles and `compare` reads.

use crate::adapter::{ConfigValue, Table};
use crate::metrics::{Better, MetricDef};
use std::collections::BTreeMap;

/// One workload's run, end-to-end or traced.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub defs: &'static [MetricDef],
    pub values: BTreeMap<&'static str, f64>,
    /// Per-repetition samples behind the medians (end-to-end runs).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Correct means every attempted epoch passed every check and every
    /// declared metric was produced as a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.defs.iter().all(|d| self.values.get(d.name).is_some_and(|v| v.is_finite()))
    }

    fn metrics_value(&self, with_samples: bool) -> ConfigValue {
        let mut metrics = Table::new();
        for d in self.defs {
            let value = self.values.get(d.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            let mut m = Table::new();
            m.insert("value", ConfigValue::Float(value));
            m.insert("unit", ConfigValue::Str(d.unit.into()));
            if let Some(s) = self.samples.get(d.name).filter(|_| with_samples) {
                m.insert(
                    "samples",
                    ConfigValue::Array(s.iter().map(|x| ConfigValue::Float(*x)).collect()),
                );
            }
            metrics.insert(d.name, ConfigValue::Table(m));
        }
        ConfigValue::Table(metrics)
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn contract_line(&self) -> String {
        let mut t = Table::new();
        t.insert("correct", ConfigValue::Bool(self.correct()));
        t.insert("attempted", ConfigValue::Int(self.attempted as i64));
        t.insert("failed", ConfigValue::Int(self.failed as i64));
        t.insert("metrics", self.metrics_value(false));
        compact(&ConfigValue::Table(t))
    }

    /// The detailed fragment: the contract's keys plus samples and notes.
    pub fn detail(&self) -> String {
        let mut t = Table::new();
        t.insert("workload", ConfigValue::Str(self.workload.into()));
        t.insert("seed", ConfigValue::Int(self.seed as i64));
        t.insert("traced", ConfigValue::Bool(self.traced));
        t.insert("correct", ConfigValue::Bool(self.correct()));
        t.insert("attempted", ConfigValue::Int(self.attempted as i64));
        t.insert("failed", ConfigValue::Int(self.failed as i64));
        t.insert(
            "notes",
            ConfigValue::Array(self.notes.iter().map(|n| ConfigValue::Str(n.clone())).collect()),
        );
        t.insert("metrics", self.metrics_value(true));
        compact(&ConfigValue::Table(t))
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({}): {} of {} epochs failed\n",
            self.workload,
            self.seed,
            if self.traced { "traced run, per-layer" } else { "end to end" },
            self.failed,
            self.attempted
        );
        for d in self.defs {
            let samples = self
                .samples
                .get(d.name)
                .map_or(String::new(), |s| format!("  (median of {})", s.len()));
            let value = self.values.get(d.name).map_or("missing".into(), |v| format!("{v:.4}"));
            let better = match d.better {
                Better::Higher => "higher is better",
                Better::Lower => "lower is better",
            };
            out.push_str(&format!(
                "  {:<36} {value:>14} {:<6} {better}{samples}\n",
                d.name, d.unit
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One-line JSON. Floats print with all their digits; a float that happens
/// to be whole keeps a `.0` so it stays a float on re-parse.
pub fn compact(v: &ConfigValue) -> String {
    match v {
        ConfigValue::Str(s) => quote(s),
        ConfigValue::Int(i) => i.to_string(),
        ConfigValue::Float(f) => format!("{f:?}"),
        ConfigValue::Bool(b) => b.to_string(),
        ConfigValue::Array(items) => {
            format!("[{}]", items.iter().map(compact).collect::<Vec<_>>().join(","))
        }
        ConfigValue::Table(t) => format!(
            "{{{}}}",
            t.entries()
                .iter()
                .map(|(k, v)| format!("{}:{}", quote(k), compact(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    #[test]
    fn compact_json_round_trips() {
        let mut inner = Table::new();
        inner.insert("value", ConfigValue::Float(21.0));
        inner.insert("tiny", ConfigValue::Float(1.5e-7));
        inner.insert("note", ConfigValue::Str("a \"quoted\"\nline".into()));
        let mut t = Table::new();
        t.insert("ok", ConfigValue::Bool(true));
        t.insert("n", ConfigValue::Int(7));
        t.insert(
            "list",
            ConfigValue::Array(vec![ConfigValue::Float(0.25), ConfigValue::Table(inner)]),
        );
        let text = compact(&ConfigValue::Table(t.clone()));
        assert!(!text.contains('\n'));
        assert_eq!(parse_json(&text).unwrap(), t);
    }
}
