//! Cross-crate metrics registry: named counters, mergeable across ranks
//! and dumpable as JSON.
//!
//! Every simulated rank owns a registry; algorithm layers count into it
//! through [`crate::span`]-agnostic names like `"schur.updates"` or
//! `"schur.batched_supernodes"`. After a run the per-rank registries are
//! merged into one machine-wide view for the run document.

use crate::json::Json;
use std::collections::BTreeMap;

/// Named counters for one rank (or, after [`MetricsRegistry::merge`], a
/// whole machine).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    pub counters: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// Add `by` to the counter `name`. The name is looked up before it is
    /// owned: a hit — every call but a counter's first — allocates nothing.
    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another registry into this one: counters sum.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Deterministic JSON view: one member per counter, in name order.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::num(v as f64)));
        Json::Obj(counters.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::default();
        m.inc("msgs", 2);
        m.inc("msgs", 3);
        assert_eq!(m.counter("msgs"), 5);
    }

    #[test]
    fn merge_is_a_sum() {
        let mut a = MetricsRegistry::default();
        a.inc("n", 1);
        let mut b = MetricsRegistry::default();
        b.inc("n", 2);
        b.inc("m", 4);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.counter("m"), 4);
    }

    #[test]
    fn json_dump_parses_back() {
        let mut m = MetricsRegistry::default();
        m.inc("a.count", 7);
        let doc = Json::parse(&m.to_json().dump()).unwrap();
        assert_eq!(doc.num_at(&["a.count"]), Ok(7.0));
    }
}
