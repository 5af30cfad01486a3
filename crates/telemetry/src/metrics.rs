//! The metrics registry: counters, gauges, and histograms keyed by
//! name + label set.
//!
//! Keys follow the Prometheus convention rendered as
//! `name{label="value",...}` with labels sorted, so a key's text form is
//! canonical and registries merge deterministically.

use crate::hist::Histogram;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A metric identity: static-ish name plus a (sorted) label set.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    /// A key with no labels.
    pub fn new(name: impl Into<String>) -> MetricKey {
        MetricKey {
            name: name.into(),
            labels: Vec::new(),
        }
    }

    /// Add (or replace) one label, keeping the set sorted.
    pub fn with(mut self, label: impl Into<String>, value: impl Into<String>) -> MetricKey {
        let label = label.into();
        let value = value.into();
        match self.labels.binary_search_by(|(k, _)| k.cmp(&label)) {
            Ok(i) => self.labels[i].1 = value,
            Err(i) => self.labels.insert(i, (label, value)),
        }
        self
    }

    /// Metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sorted label pairs.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"{v}\"")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// One exemplar: a recorded histogram sample annotated with the trace id
/// of the request that produced it, so a latency bucket in a Prometheus
/// exposition links back to a concrete, traceable request.
#[derive(Clone, Debug, PartialEq)]
pub struct Exemplar {
    /// The observed value (same unit as the histogram's samples).
    pub value: f64,
    /// The request-scoped trace id that produced it.
    pub trace_id: String,
}

/// Recent exemplars kept per histogram key. Small on purpose: one per
/// scrape-visible bucket is plenty, and stale ones age out by ring
/// replacement.
const EXEMPLARS_PER_KEY: usize = 16;

/// A set of counters, gauges, and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<MetricKey, f64>,
    gauges: BTreeMap<MetricKey, f64>,
    hists: BTreeMap<MetricKey, Histogram>,
    /// Recent exemplars per histogram key, oldest first.
    exemplars: BTreeMap<MetricKey, Vec<Exemplar>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `v` to a monotonically growing counter.
    pub fn counter_add(&mut self, key: MetricKey, v: f64) {
        *self.counters.entry(key).or_insert(0.0) += v;
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, key: MetricKey, v: f64) {
        self.gauges.insert(key, v);
    }

    /// Record one histogram sample.
    pub fn observe(&mut self, key: MetricKey, v: f64) {
        self.hists.entry(key).or_default().record(v);
    }

    /// Fold a histogram recorded elsewhere in under `key`: taken as it is
    /// when the key has no samples yet, merged otherwise. Recording a key's
    /// samples into a local [`Histogram`] in order and folding it into a
    /// registry without that key leaves the same count, sum, extremes and
    /// buckets, bit for bit, as observing each sample here; callers that
    /// would build a key per sample build one per key instead.
    pub fn merge_histogram(&mut self, key: MetricKey, h: Histogram) {
        match self.hists.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(h);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => slot.get_mut().merge(&h),
        }
    }

    /// Record one histogram sample carrying a trace-id exemplar. The
    /// sample lands in the histogram exactly as [`MetricsRegistry::observe`]
    /// would place it; the exemplar rides alongside in a small per-key
    /// ring and surfaces in the Prometheus exposition
    /// ([`crate::prom::render_prometheus`]).
    pub fn observe_with_exemplar(&mut self, key: MetricKey, v: f64, trace_id: impl Into<String>) {
        self.hists.entry(key.clone()).or_default().record(v);
        let ring = self.exemplars.entry(key).or_default();
        if ring.len() == EXEMPLARS_PER_KEY {
            ring.remove(0);
        }
        ring.push(Exemplar {
            value: v,
            trace_id: trace_id.into(),
        });
    }

    /// Recent exemplars recorded for a histogram key, oldest first.
    pub fn exemplars(&self, key: &MetricKey) -> &[Exemplar] {
        self.exemplars.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, key: &MetricKey) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, key: &MetricKey) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// A histogram by key, if any sample was recorded.
    pub fn histogram(&self, key: &MetricKey) -> Option<&Histogram> {
        self.hists.get(key)
    }

    /// Iterate counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Iterate gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Iterate histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &Histogram)> {
        self.hists.iter()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Fold `other` into this registry: counters add, gauges take the
    /// incoming value, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, &v) in &other.counters {
            self.counter_add(k.clone(), v);
        }
        for (k, &v) in &other.gauges {
            self.gauge_set(k.clone(), v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
        for (k, incoming) in &other.exemplars {
            let ring = self.exemplars.entry(k.clone()).or_default();
            ring.extend(incoming.iter().cloned());
            if ring.len() > EXEMPLARS_PER_KEY {
                ring.drain(..ring.len() - EXEMPLARS_PER_KEY);
            }
        }
    }

    /// The snapshot as a JSON value: `counters` / `gauges` / `histograms`
    /// arrays, histograms carrying count/sum/min/max/mean/p50/p95/p99.
    pub fn to_json(&self) -> Value {
        let entry = |key: &MetricKey| {
            let mut labels = Map::new();
            for (k, v) in key.labels() {
                labels.insert(k.clone(), Value::from(v.clone()));
            }
            let mut m = Map::new();
            m.insert("name", Value::from(key.name()));
            m.insert("labels", Value::Object(labels));
            m
        };
        let scalars = |items: &BTreeMap<MetricKey, f64>| {
            Value::Array(
                items
                    .iter()
                    .map(|(k, &v)| {
                        let mut m = entry(k);
                        m.insert("value", Value::from(v));
                        Value::Object(m)
                    })
                    .collect(),
            )
        };
        let hists = Value::Array(
            self.hists
                .iter()
                .map(|(k, h)| {
                    let mut m = entry(k);
                    m.insert("count", Value::from(h.count()));
                    m.insert("sum", Value::from(h.sum()));
                    m.insert("min", Value::from(h.min()));
                    m.insert("max", Value::from(h.max()));
                    m.insert("mean", Value::from(h.mean()));
                    m.insert("p50", Value::from(h.p50()));
                    m.insert("p95", Value::from(h.p95()));
                    m.insert("p99", Value::from(h.p99()));
                    Value::Object(m)
                })
                .collect(),
        );
        let mut root = Map::new();
        root.insert("counters", scalars(&self.counters));
        root.insert("gauges", scalars(&self.gauges));
        root.insert("histograms", hists);
        Value::Object(root)
    }

    /// Render a plain-text snapshot (debugging, example output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} = {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {k} = {v}");
        }
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist    {k}: n={} mean={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sort_and_render_canonically() {
        let k = MetricKey::new("fabric_link_wire_bytes")
            .with("dir", "fwd")
            .with("link", "Gcd(0)->Gcd(1)");
        let k2 = MetricKey::new("fabric_link_wire_bytes")
            .with("link", "Gcd(0)->Gcd(1)")
            .with("dir", "fwd");
        assert_eq!(k, k2);
        assert_eq!(
            k.to_string(),
            "fabric_link_wire_bytes{dir=\"fwd\",link=\"Gcd(0)->Gcd(1)\"}"
        );
        // Replacing an existing label keeps one entry.
        let k3 = k.with("dir", "bwd");
        assert_eq!(k3.labels().len(), 2);
        assert_eq!(k3.labels()[0].1, "bwd");
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        let k = MetricKey::new("ops");
        r.counter_add(k.clone(), 2.0);
        r.counter_add(k.clone(), 3.0);
        assert_eq!(r.counter(&k), 5.0);
        let g = MetricKey::new("active");
        r.gauge_set(g.clone(), 7.0);
        r.gauge_set(g.clone(), 4.0);
        assert_eq!(r.gauge(&g), Some(4.0));
        assert_eq!(r.counter(&MetricKey::new("missing")), 0.0);
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let k = MetricKey::new("bytes");
        a.counter_add(k.clone(), 10.0);
        b.counter_add(k.clone(), 5.0);
        let h = MetricKey::new("lat");
        a.observe(h.clone(), 1.0);
        b.observe(h.clone(), 3.0);
        a.merge(&b);
        assert_eq!(a.counter(&k), 15.0);
        assert_eq!(a.histogram(&h).unwrap().count(), 2);
    }

    /// Samples spread over keys out of key order, with every key repeated:
    /// one local histogram per key, folded in once, matches per-sample
    /// `observe` on every field the exports read, bit for bit.
    #[test]
    fn folding_local_histograms_matches_per_sample_observe() {
        let keys = [
            MetricKey::new("hip_op_duration_ns")
                .with("op", "memcpy")
                .with("dev", "1"),
            MetricKey::new("hip_op_duration_ns")
                .with("op", "kernel")
                .with("dev", "0"),
            MetricKey::new("hip_op_duration_ns")
                .with("op", "memcpy")
                .with("dev", "0"),
        ];
        // Values whose float sums depend on the order they are added in.
        let samples: Vec<(usize, f64)> = (0..200u32)
            .map(|i| {
                let k = (i * 7 + i / 3) as usize % keys.len();
                let v = 0.1 * f64::from(i % 13) + 1e9 * f64::from(i % 5) + 0.3 / f64::from(i + 1);
                (k, v)
            })
            .collect();
        let mut per_sample = MetricsRegistry::new();
        for &(k, v) in &samples {
            per_sample.observe(keys[k].clone(), v);
        }
        let mut local: BTreeMap<usize, Histogram> = BTreeMap::new();
        for &(k, v) in &samples {
            local.entry(k).or_default().record(v);
        }
        let mut folded = MetricsRegistry::new();
        // Folded in reverse key order: insertion order must not matter.
        for (k, h) in local.into_iter().rev() {
            folded.merge_histogram(keys[k].clone(), h);
        }
        assert_eq!(per_sample.histograms().count(), keys.len());
        for key in &keys {
            let (a, b) = (
                per_sample.histogram(key).expect("observed"),
                folded.histogram(key).expect("folded"),
            );
            assert_eq!(a.count(), b.count());
            for (x, y) in [(a.sum(), b.sum()), (a.min(), b.min()), (a.max(), b.max())] {
                assert_eq!(x.to_bits(), y.to_bits(), "{key}");
            }
            let bits = |h: &Histogram| -> Vec<(u64, u64)> {
                h.buckets().map(|(le, n)| (le.to_bits(), n)).collect()
            };
            assert_eq!(bits(a), bits(b), "{key}");
        }
        assert_eq!(per_sample, folded);
        assert_eq!(
            serde_json::to_string_pretty(&per_sample.to_json()),
            serde_json::to_string_pretty(&folded.to_json())
        );
        // Into a key that already holds samples, the fold is a merge.
        let mut more = Histogram::new();
        more.record(5.0);
        folded.merge_histogram(keys[0].clone(), more);
        assert_eq!(
            folded.histogram(&keys[0]).map(Histogram::count),
            per_sample.histogram(&keys[0]).map(|h| h.count() + 1)
        );
    }

    #[test]
    fn json_snapshot_has_percentile_fields() {
        let mut r = MetricsRegistry::new();
        r.counter_add(MetricKey::new("n").with("op", "memcpy"), 1.0);
        r.observe(MetricKey::new("lat"), 5.0);
        let v = r.to_json();
        let text = serde_json::to_string(&v);
        let back = serde_json::from_str(&text).unwrap();
        let hist = &back.get("histograms").unwrap().as_array().unwrap()[0];
        for field in ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"] {
            assert!(hist.get(field).is_some(), "missing {field}");
        }
        let counter = &back.get("counters").unwrap().as_array().unwrap()[0];
        assert_eq!(
            counter.get("labels").unwrap().get("op").unwrap().as_str(),
            Some("memcpy")
        );
    }

    #[test]
    fn exemplars_ride_alongside_histograms_and_stay_bounded() {
        let mut r = MetricsRegistry::new();
        let k = MetricKey::new("lat").with("op", "run");
        for i in 0..40 {
            r.observe_with_exemplar(k.clone(), (i + 1) as f64, format!("t-{i:04x}"));
        }
        assert_eq!(r.histogram(&k).unwrap().count(), 40);
        let ex = r.exemplars(&k);
        assert_eq!(ex.len(), EXEMPLARS_PER_KEY, "ring stays bounded");
        assert_eq!(ex.last().unwrap().trace_id, "t-0027", "latest kept");
        assert!(r.exemplars(&MetricKey::new("missing")).is_empty());
        // Merge folds exemplar rings, newest retained.
        let mut other = MetricsRegistry::new();
        other.observe_with_exemplar(k.clone(), 99.0, "t-merged");
        r.merge(&other);
        assert_eq!(r.exemplars(&k).last().unwrap().trace_id, "t-merged");
        assert!(r.exemplars(&k).len() <= EXEMPLARS_PER_KEY);
    }

    #[test]
    fn text_rendering_lists_every_kind() {
        let mut r = MetricsRegistry::new();
        r.counter_add(MetricKey::new("c"), 1.0);
        r.gauge_set(MetricKey::new("g"), 2.0);
        r.observe(MetricKey::new("h"), 3.0);
        let text = r.render_text();
        assert!(text.contains("counter c"));
        assert!(text.contains("gauge   g"));
        assert!(text.contains("hist    h"));
        assert!(!r.is_empty());
        assert!(MetricsRegistry::new().is_empty());
    }
}
