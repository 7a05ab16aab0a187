//! Shared infrastructure for the paper's printed experiments (E2, E4, E5,
//! E7–E12 and Fig. 1).
//!
//! Every target under `benches/` is a `harness = false` binary that
//! prints its experiment's table or series in markdown;
//! `cargo bench -p craqr-bench` regenerates them all. E1 and E3 are
//! asserted by `tests/paper_claims.rs` and Fig. 2 by
//! `tests/fig2_topology.rs` instead. None of them gates performance: that
//! is measured by `benchmark/` only.

use craqr_core::tuple::CrowdTuple;
use craqr_geom::{SpaceTimePoint, SpaceTimeWindow};
use craqr_mdpp::intensity::IntensityModel;
use craqr_mdpp::process::InhomogeneousMdpp;
use craqr_sensing::{AttrValue, AttributeId, SensorId};
use rand::rngs::StdRng;

/// A minimal markdown table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Prints the table with a title, markdown-style.
    pub fn print(&self, title: &str) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n### {title}\n");
        let fmt_row = |cells: &[String]| {
            let body: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            format!("| {} |", body.join(" | "))
        };
        println!("{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Samples an inhomogeneous process and wraps the points as tuples of
/// `attr` — the standard synthetic ingestion batch.
pub fn synth_batch<I: IntensityModel>(
    process: &InhomogeneousMdpp<I>,
    window: &SpaceTimeWindow,
    attr: AttributeId,
    id_base: u64,
    rng: &mut StdRng,
) -> Vec<CrowdTuple> {
    process
        .sample(window, rng)
        .into_iter()
        .enumerate()
        .map(|(i, p)| CrowdTuple {
            id: id_base + i as u64,
            attr,
            point: p,
            value: AttrValue::Float(0.0),
            sensor: SensorId(0),
        })
        .collect()
}

/// Wraps raw points as tuples.
pub fn tuples_from_points(points: &[SpaceTimePoint], attr: AttributeId) -> Vec<CrowdTuple> {
    points
        .iter()
        .enumerate()
        .map(|(i, p)| CrowdTuple {
            id: i as u64,
            attr,
            point: *p,
            value: AttrValue::Bool(true),
            sensor: SensorId(0),
        })
        .collect()
}

/// Empirical rate of a tuple stream over a window footprint.
pub fn empirical_rate(n: usize, area: f64, minutes: f64) -> f64 {
    n as f64 / (area * minutes)
}

/// The standard experiment preamble: experiment id, claim, setup.
pub fn preamble(id: &str, claim: &str, setup: &str) {
    println!("\n==================================================================");
    println!("{id}: {claim}");
    println!("setup: {setup}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]).row(["333", "4"]);
        t.print("demo");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn rate_helper() {
        assert!((empirical_rate(100, 4.0, 25.0) - 1.0).abs() < 1e-12);
    }
}
