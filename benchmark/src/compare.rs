//! `compare <a.json> <b.json>`: applies each end-to-end metric's bound from
//! `BENCHMARK.json` to two result files, one row per workload and metric.
//!
//! A result file holds one run per workload, and a run's value is the median
//! of its repetitions, so the noise that matters is the median's: the
//! repetitions' interquartile range over their median, scaled to the
//! standard error of a median of that many samples, three deep
//! ([`median_noise`]). Where that exceeds the bound on either side the
//! metric is reported as *unresolved*, not as unchanged — unless every
//! sample of one side lies beyond every sample of the other. Every ratio is printed with
//! its base. Counts that must repeat exactly per seed (`rate_fidelity`,
//! the `core.*` work counts) are compared for equality: a difference there
//! is a behaviour change, not noise.

use crate::adapter::{parse_json, ConfigValue, Table};
use crate::metrics::{array, manifest, number, string, table, Better};
use crate::stats::spread;
use std::collections::BTreeMap;

/// Exit code: a regression, a higher failed share, or a changed count.
pub const EXIT_REGRESSION: u8 = 1;
/// Exit code: nothing regressed, but at least one metric is unresolved.
pub const EXIT_UNRESOLVED: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// How far a median of these samples can be expected to wander, as a share
/// of itself: for near-normal samples the standard error of a median is
/// 1.2533 sigma / sqrt(n) and the interquartile range is 1.349 sigma, so
/// SE = 0.93 IQR / sqrt(n); three standard errors cover a two-sided
/// comparison of two such medians.
pub fn median_noise(samples: &[f64]) -> f64 {
    3.0 * 0.93 * spread(samples) / (samples.len().max(1) as f64).sqrt()
}

/// The work counts that repeat exactly per seed on every executor
/// (`core.pool_fresh_allocations` does not: under the pipelined executor it
/// depends on how far the stages run ahead of one another).
const EXACT_COUNTS: [&str; 6] = [
    "core.requests_per_epoch",
    "core.responses_per_epoch",
    "core.delivered_per_epoch",
    "core.throttled",
    "core.retries",
    "core.stale_actions",
];

/// Judges one metric. `a` is the base side, `b` the side under test; each
/// is `(median, samples)`.
pub fn judge(better: Better, bound: f64, a: (f64, &[f64]), b: (f64, &[f64])) -> Verdict {
    let worse_by = match better {
        Better::Higher => (a.0 - b.0) / a.0.abs(),
        Better::Lower => (b.0 - a.0) / a.0.abs(),
    };
    let is_worse = |x: f64, y: f64| match better {
        Better::Higher => x < y,
        Better::Lower => x > y,
    };
    // Every sample of `x` is worse than every sample of `y`.
    let all_worse = |x: &[f64], y: &[f64]| x.iter().all(|xs| y.iter().all(|ys| is_worse(*xs, *ys)));
    let noisy = median_noise(a.1).max(median_noise(b.1)) > bound;
    match (worse_by > bound, noisy) {
        (true, false) => Verdict::Regression,
        (true, true) if all_worse(b.1, a.1) => Verdict::Regression,
        (false, true) if all_worse(a.1, b.1) => Verdict::Ok,
        (_, true) => Verdict::Unresolved,
        (false, false) => Verdict::Ok,
    }
}

struct Run {
    attempted: f64,
    failed: f64,
    /// `(value, samples)` by metric name.
    metrics: BTreeMap<String, (f64, Vec<f64>)>,
}

/// `(workload, traced)` → run.
type Runs = BTreeMap<(String, bool), Run>;

/// The seed and the runs of one result file.
fn load(path: &str) -> Result<(f64, Runs), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = BTreeMap::new();
    for r in array(&doc, "runs").iter().filter_map(table) {
        let metrics = r.get("metrics").and_then(table).map_or_else(BTreeMap::new, read_metrics);
        let traced = matches!(r.get("traced"), Some(ConfigValue::Bool(true)));
        let run = Run {
            attempted: number(r.get("attempted")).unwrap_or(0.0),
            failed: number(r.get("failed")).unwrap_or(0.0),
            metrics,
        };
        runs.insert((string(r, "workload").to_string(), traced), run);
    }
    if runs.is_empty() {
        return Err(format!("{path}: no runs found"));
    }
    Ok((number(doc.get("seed")).unwrap_or(f64::NAN), runs))
}

fn read_metrics(t: &Table) -> BTreeMap<String, (f64, Vec<f64>)> {
    t.entries()
        .iter()
        .filter_map(|(name, m)| {
            let m = table(m)?;
            let value = number(m.get("value"))?;
            let samples: Vec<f64> =
                array(m, "samples").iter().filter_map(|s| number(Some(s))).collect();
            Some((name.clone(), (value, if samples.is_empty() { vec![value] } else { samples })))
        })
        .collect()
}

/// Compares two result files; prints the rows and returns the exit code.
pub fn compare(a_path: &str, b_path: &str) -> Result<u8, String> {
    let manifest = manifest()?;
    let ((seed_a, a), (seed_b, b)) = (load(a_path)?, load(b_path)?);
    // With the same seed on both sides the deterministic numbers must be
    // equal, not merely within a bound.
    let same_seed = seed_a == seed_b;
    let (mut regressions, mut unresolved) = (0, 0);
    println!("base: {a_path}\nnew:  {b_path}\n");
    println!(
        "{:<18} {:<16} {:>12} {:>12}  {:<28} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "noise", "bound"
    );
    for ((workload, traced), ra) in &a {
        let Some(rb) = b.get(&(workload.clone(), *traced)) else {
            println!("{workload:<18} missing from {b_path}");
            regressions += 1;
            continue;
        };
        let share = |r: &Run| if r.attempted > 0.0 { r.failed / r.attempted } else { 1.0 };
        if share(rb) > share(ra) {
            println!(
                "{workload:<18} failed share rose: {}/{} -> {}/{}  REGRESSION",
                ra.failed, ra.attempted, rb.failed, rb.attempted
            );
            regressions += 1;
        }
        if *traced {
            // Work counts repeat exactly per seed.
            for name in EXACT_COUNTS.iter().filter(|_| same_seed) {
                let (va, vb) =
                    (ra.metrics.get(*name).map(|m| m.0), rb.metrics.get(*name).map(|m| m.0));
                if va != vb {
                    println!(
                        "{workload:<18} {name:<16} {va:?} -> {vb:?}  CHANGED (behaviour, not speed)"
                    );
                    regressions += 1;
                }
            }
            continue;
        }
        for m in &manifest.end_to_end {
            let (Some(ma), Some(mb)) = (ra.metrics.get(&m.name), rb.metrics.get(&m.name)) else {
                println!("{workload:<18} {:<16} missing", m.name);
                regressions += 1;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if m.name == "rate_fidelity" && same_seed && ma.0 != mb.0 {
                Verdict::Regression
            } else {
                judge(m.better, bound, (ma.0, &ma.1), (mb.0, &mb.1))
            };
            match verdict {
                Verdict::Regression => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<18} {:<16} {:>12.4} {:>12.4}  {:<28} {:>6.1}% {:>5.0}%  {}",
                m.name,
                ma.0,
                mb.0,
                format!("{:.4} (base {:.4} {})", mb.0 / ma.0, ma.0, m.unit),
                median_noise(&ma.1).max(median_noise(&mb.1)) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "UNRESOLVED (noise exceeds bound)",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
    }
    println!("\n{regressions} regressions, {unresolved} unresolved");
    Ok(if regressions > 0 {
        EXIT_REGRESSION
    } else if unresolved > 0 {
        EXIT_UNRESOLVED
    } else {
        0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clear_regression_and_a_clear_pass() {
        let a = [100.0, 101.0, 99.0, 100.5];
        let slow = [80.0, 81.0, 79.5, 80.2];
        assert_eq!(judge(Better::Higher, 0.1, (100.0, &a), (80.0, &slow)), Verdict::Regression);
        assert_eq!(
            judge(Better::Higher, 0.1, (100.0, &a), (97.0, &[97.0, 96.0, 98.0])),
            Verdict::Ok
        );
        // Lower is better: the same numbers read the other way round.
        assert_eq!(judge(Better::Lower, 0.1, (80.0, &slow), (100.0, &a)), Verdict::Regression);
        assert_eq!(judge(Better::Lower, 0.1, (100.0, &a), (80.0, &slow)), Verdict::Ok);
    }

    #[test]
    fn noise_beyond_the_bound_is_unresolved_not_unchanged() {
        let noisy = [100.0, 130.0, 80.0, 115.0, 90.0];
        let same = [101.0, 128.0, 82.0, 110.0, 95.0];
        assert_eq!(
            judge(Better::Higher, 0.1, (100.0, &noisy), (101.0, &same)),
            Verdict::Unresolved
        );
        // …unless one side's every sample beats the other's every sample.
        let far_worse = [40.0, 50.0, 45.0];
        assert_eq!(
            judge(Better::Higher, 0.1, (100.0, &noisy), (45.0, &far_worse)),
            Verdict::Regression
        );
        let far_better = [200.0, 260.0, 180.0];
        assert_eq!(judge(Better::Higher, 0.1, (100.0, &noisy), (200.0, &far_better)), Verdict::Ok);
    }
}
