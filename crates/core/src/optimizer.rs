//! Topology cost modelling — the Section VI "query optimization" sketch.
//!
//! "We should define the cost of processing a single query, and prepare an
//! execution topology that minimizes this cost." The dominant cost in a
//! PMAT topology is tuples-processed-per-operator (every operator is a
//! constant-time filter), so the model here counts expected tuples per
//! km²·min flowing into each operator, parameterized by the chain shape.
//! `tests/paper_claims.rs` (E10) checks the model's star / chain ratio
//! against the `T` operators' measured input.

/// Expected tuples processed per km²·min by the `T`-operators of a chain
/// topology with flatten output `f_rate` and tap rates `rates` (descending).
///
/// In a chain, the `T` at position `i` processes the previous tap's output:
/// `f_rate, λ₁, λ₂, …, λ_{k−1}`.
///
/// # Panics
/// Panics when `rates` is not sorted descending or exceeds `f_rate`.
#[track_caller]
pub fn chain_processing_rate(f_rate: f64, rates: &[f64]) -> f64 {
    validate(f_rate, rates);
    if rates.is_empty() {
        return 0.0;
    }
    f_rate + rates[..rates.len() - 1].iter().sum::<f64>()
}

/// Expected tuples processed per km²·min by the `T`-operators of a star
/// topology: every `T` drinks from the flatten output directly, so the
/// total is `k · f_rate`.
///
/// # Panics
/// Panics when `rates` is not sorted descending or exceeds `f_rate`.
#[track_caller]
pub fn star_processing_rate(f_rate: f64, rates: &[f64]) -> f64 {
    validate(f_rate, rates);
    f_rate * rates.len() as f64
}

#[track_caller]
fn validate(f_rate: f64, rates: &[f64]) {
    assert!(f_rate >= 0.0, "f_rate must be >= 0");
    for pair in rates.windows(2) {
        assert!(pair[0] >= pair[1], "rates must be sorted descending: {rates:?}");
    }
    if let Some(&first) = rates.first() {
        assert!(first <= f_rate * (1.0 + 1e-9), "first tap {first} exceeds F rate {f_rate}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_cost_counts_cascading_inputs() {
        // F=8, taps 8,4,2: T inputs are 8 (from F), 8, 4.
        let c = chain_processing_rate(8.0, &[8.0, 4.0, 2.0]);
        assert!((c - (8.0 + 8.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn star_cost_is_k_times_f() {
        let c = star_processing_rate(8.0, &[8.0, 4.0, 2.0]);
        assert!((c - 24.0).abs() < 1e-12);
    }

    #[test]
    fn chain_never_costs_more_than_star() {
        for rates in [vec![5.0], vec![5.0, 1.0], vec![5.0, 4.0, 3.0, 2.0, 1.0]] {
            let chain = chain_processing_rate(5.0, &rates);
            let star = star_processing_rate(5.0, &rates);
            assert!(chain <= star + 1e-12, "{rates:?}: chain {chain} star {star}");
        }
    }

    #[test]
    fn empty_chain_is_free() {
        assert_eq!(chain_processing_rate(5.0, &[]), 0.0);
        assert_eq!(star_processing_rate(5.0, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "sorted descending")]
    fn unsorted_rates_rejected() {
        let _ = chain_processing_rate(5.0, &[1.0, 2.0]);
    }
}
