//! The attribute catalog.

use craqr_sensing::AttributeId;
use std::collections::HashMap;

/// Maps human-readable attribute names (`rain`, `temp`, …) to
/// [`AttributeId`]s and records whether each is human-sensed or
/// sensor-sensed (Section II's two attribute classes).
#[derive(Debug, Clone, Default)]
pub struct AttributeCatalog {
    names: Vec<(String, bool)>,
    by_name: HashMap<String, AttributeId>,
}

impl AttributeCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an attribute, returning its id. `human_sensed` marks
    /// attributes "that are typically hard to sense with a sensor".
    ///
    /// # Panics
    /// Panics when the name is empty or already registered.
    #[track_caller]
    pub fn register(&mut self, name: &str, human_sensed: bool) -> AttributeId {
        assert!(!name.is_empty(), "attribute name must not be empty");
        assert!(!self.by_name.contains_key(name), "attribute '{name}' already registered");
        let id = AttributeId(self.names.len() as u16);
        self.names.push((name.to_string(), human_sensed));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an attribute by name.
    pub fn lookup(&self, name: &str) -> Option<AttributeId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered attributes `k`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no attribute is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(id, name, human_sensed)`.
    pub fn iter(&self) -> impl Iterator<Item = (AttributeId, &str, bool)> {
        self.names.iter().enumerate().map(|(i, (n, h))| (AttributeId(i as u16), n.as_str(), *h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut c = AttributeCatalog::new();
        let rain = c.register("rain", true);
        let temp = c.register("temp", false);
        assert_eq!(c.lookup("rain"), Some(rain));
        assert_eq!(c.lookup("temp"), Some(temp));
        assert_eq!(c.lookup("snow"), None);
        let entries: Vec<_> = c.iter().collect();
        assert_eq!(entries, vec![(rain, "rain", true), (temp, "temp", false)]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iteration_order_is_registration_order() {
        let mut c = AttributeCatalog::new();
        c.register("a", true);
        c.register("b", false);
        let collected: Vec<_> = c.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(collected, vec!["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_name_rejected() {
        let mut c = AttributeCatalog::new();
        c.register("rain", true);
        c.register("rain", false);
    }
}
