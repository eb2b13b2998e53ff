//! Cross-crate metrics registry: counters and log2-bucket histograms,
//! mergeable across ranks and dumpable as JSON.
//!
//! Every simulated rank owns a registry; algorithm layers record into it
//! through [`crate::span`]-agnostic names like `"gemm.flops_per_supernode"`
//! or `"schur.batched_supernodes"`. After a run the per-rank registries are
//! merged into one machine-wide view for the run document.

use crate::json::Json;
use std::collections::BTreeMap;

/// Power-of-two bucketed histogram of nonnegative samples.
///
/// Bucket key `k` holds samples in `[2^k, 2^(k+1))`; key `i32::MIN` holds
/// exact zeros. Log2 bucketing matches the quantities we histogram —
/// message sizes and per-supernode flop counts spanning many decades.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    pub fn observe(&mut self, v: f64) {
        debug_assert!(v >= 0.0 && v.is_finite(), "histogram sample {v}");
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let key = if v > 0.0 {
            v.log2().floor() as i32
        } else {
            i32::MIN
        };
        *self.buckets.entry(key).or_insert(0) += 1;
    }

    /// Record `n` exact zeros at once: the same histogram as `n` calls of
    /// `observe(0.0)` (`x + 0.0 == x`, and the order of samples is not
    /// kept).
    pub fn observe_zeros(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        // Samples are nonnegative, and an empty histogram's max is 0.
        self.min = 0.0;
        self.count += n;
        *self.buckets.entry(i32::MIN).or_insert(0) += n;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucketed quantile estimate: find the bucket holding the `q`-th
    /// sample and interpolate linearly inside it, clamped to the observed
    /// [min, max]. Exact for the zero bucket; within a factor of 2
    /// otherwise, which is enough to expose tails the mean hides.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (&k, &n) in &self.buckets {
            if (seen + n) as f64 >= target {
                if k == i32::MIN {
                    return 0.0;
                }
                let lo = 2f64.powi(k);
                let hi = 2f64.powi(k + 1);
                let frac = if n == 0 {
                    0.0
                } else {
                    ((target - seen as f64) / n as f64).clamp(0.0, 1.0)
                };
                return (lo + frac * (hi - lo)).max(self.min).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
    }

    fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .map(|(&k, &n)| {
                let lo = if k == i32::MIN {
                    "0".to_string()
                } else {
                    format!("2^{k}")
                };
                Json::obj([("ge", Json::str(lo)), ("count", Json::num(n as f64))])
            })
            .collect();
        Json::obj([
            ("count", Json::num(self.count as f64)),
            ("sum", Json::num(self.sum)),
            ("min", Json::num(self.min)),
            ("max", Json::num(self.max)),
            ("mean", Json::num(self.mean())),
            ("p50", Json::num(self.quantile(0.50))),
            ("p95", Json::num(self.quantile(0.95))),
            ("p99", Json::num(self.quantile(0.99))),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

/// Named counters and histograms for one rank (or, after
/// [`MetricsRegistry::merge`], a whole machine).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    // The recorders look the name up before they own it: a hit — every
    // call but a metric's first — allocates nothing.

    pub fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    pub fn observe(&mut self, name: &str, v: f64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => {
                self.histograms
                    .entry(name.to_string())
                    .or_default()
                    .observe(v);
            }
        }
    }

    /// [`Histogram::observe_zeros`] under `name`; `n == 0` records nothing
    /// (and creates no histogram).
    pub fn observe_zeros(&mut self, name: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self.histograms.get_mut(name) {
            Some(h) => h.observe_zeros(n),
            None => {
                self.histograms
                    .entry(name.to_string())
                    .or_default()
                    .observe_zeros(n);
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one (sum counters, merge
    /// histograms).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Deterministic JSON view (BTreeMap order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::num(v as f64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
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
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0.0, 1.0, 1.5, 2.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1000.0);
        assert_eq!(h.buckets[&i32::MIN], 1); // the zero
        assert_eq!(h.buckets[&0], 2); // 1.0 and 1.5 in [1, 2)
        assert_eq!(h.buckets[&1], 1); // 2.0 in [2, 4)
        assert_eq!(h.buckets[&9], 1); // 1000 in [512, 1024)
    }

    /// `n` zeros recorded at once are `n` calls of `observe(0.0)`, into an
    /// empty or a non-empty histogram, and stay so through `merge`.
    #[test]
    fn bulk_zeros_equal_one_observe_each() {
        let seeded = |samples: &[f64]| {
            let mut h = Histogram::default();
            for &v in samples {
                h.observe(v);
            }
            h
        };
        for samples in [&[][..], &[3.0, 0.0, 1000.0][..], &[0.5][..]] {
            for n in [0u64, 1, 7] {
                let mut one_by_one = seeded(samples);
                for _ in 0..n {
                    one_by_one.observe(0.0);
                }
                let mut bulk = seeded(samples);
                bulk.observe_zeros(n);
                assert_eq!(bulk, one_by_one, "{samples:?} + {n} zeros");
                assert_eq!(bulk.sum.to_bits(), one_by_one.sum.to_bits());
                for other in [Histogram::default(), seeded(&[2.0, 0.0])] {
                    let (mut a, mut b) = (other.clone(), other.clone());
                    a.merge(&one_by_one);
                    b.merge(&bulk);
                    assert_eq!(a, b, "{samples:?} + {n} zeros, merged");
                }
            }
        }
        // The registry records nothing for no zeros, as no `observe` call
        // would.
        let mut m = MetricsRegistry::default();
        m.observe_zeros("h", 0);
        assert!(m.is_empty());
        m.observe_zeros("h", 2);
        m.observe("h", 4.0);
        let mut want = MetricsRegistry::default();
        for v in [0.0, 4.0, 0.0] {
            want.observe("h", v);
        }
        assert_eq!(m, want);
    }

    #[test]
    fn quantiles_bracket_the_samples() {
        let mut h = Histogram::default();
        for v in 1..=100u32 {
            h.observe(v as f64);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        // Log2 buckets: estimates are within a factor of 2 of the truth.
        assert!((25.0..=100.0).contains(&p50), "p50 = {p50}");
        assert!(p50 <= p95 && p95 <= p99, "p50={p50} p95={p95} p99={p99}");
        assert!(p99 <= h.max);
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
        // All-zero histogram quantiles are exactly zero.
        let mut z = Histogram::default();
        z.observe(0.0);
        z.observe(0.0);
        assert_eq!(z.quantile(0.99), 0.0);
        // Empty histogram is defined as 0.
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn merge_is_a_sum() {
        let mut a = MetricsRegistry::default();
        a.inc("n", 1);
        a.observe("sz", 8.0);
        let mut b = MetricsRegistry::default();
        b.inc("n", 2);
        b.observe("sz", 16.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.histogram("sz").unwrap().count, 2);
        assert_eq!(a.histogram("sz").unwrap().sum, 24.0);
    }

    #[test]
    fn json_dump_parses_back() {
        let mut m = MetricsRegistry::default();
        m.inc("a.count", 7);
        m.observe("b.hist", 12.0);
        let doc = Json::parse(&m.to_json().dump()).unwrap();
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("a.count")
                .unwrap()
                .as_f64(),
            Some(7.0)
        );
        let h = doc.get("histograms").unwrap().get("b.hist").unwrap();
        assert_eq!(h.get("count").unwrap().as_f64(), Some(1.0));
        assert_eq!(h.get("mean").unwrap().as_f64(), Some(12.0));
    }
}
