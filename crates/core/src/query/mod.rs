//! Acquisitional queries — Section III.
//!
//! "The most simplest acquisitional queries … will have to provide at least
//! the following information: (1) the attribute they are interested in
//! acquiring, (2) the region or sub-region from which the attribute should
//! be acquired, (3) the rate (per unit area and time) at which this
//! attribute should be acquired."

mod catalog;
mod parser;

pub use catalog::AttributeCatalog;
pub use parser::{parse_query, ParseError};

use craqr_geom::Rect;
use craqr_sensing::AttributeId;
use std::fmt;

/// Identifier of a standing acquisitional query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// A typed acquisitional query: the triple the paper's `Q⟨1⟩` example
/// carries ("Acquire the attribute A⟨1⟩ = rain from region R′ ⊂ R at the
/// rate of 10 /km²/min"), plus the tenant that owns (and pays for) it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcquisitionQuery {
    /// The attribute `A⟨j⟩` to acquire.
    pub attr: AttributeId,
    /// The query region `R′ ⊆ R`.
    pub region: Rect,
    /// The requested rate λ (tuples / km² / min).
    pub rate: f64,
    /// The owning tenant whose budget pool the query draws from
    /// ([`crate::tenant::TenantId::DEFAULT`] in single-owner servers).
    pub tenant: crate::tenant::TenantId,
}

impl AcquisitionQuery {
    /// Creates a query owned by the implicit default tenant.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite rate.
    #[track_caller]
    pub fn new(attr: AttributeId, region: Rect, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "query rate must be > 0, got {rate}");
        Self { attr, region, rate, tenant: crate::tenant::TenantId::DEFAULT }
    }

    /// The same query owned by `tenant`.
    pub fn owned_by(self, tenant: crate::tenant::TenantId) -> Self {
        Self { tenant, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "rate must be > 0")]
    fn zero_rate_rejected() {
        let _ = AcquisitionQuery::new(AttributeId(0), Rect::with_size(1.0, 1.0), 0.0);
    }

    #[test]
    fn query_id_display() {
        assert_eq!(QueryId(3).to_string(), "Q3");
    }
}
