//! The labeled metric registry and its mergeable snapshots.
//!
//! A [`MetricsRegistry`] is a per-rank, single-owner store (ranks are
//! threads and each owns its registry, so there are no locks on the
//! record path — the same design as `otter_rt::alloc`). Recording
//! goes through the one-shot methods (`inc`/`gauge_max`/`observe`,
//! which look the key up by name + labels); histograms, the one kind a
//! hot path records thousands of times, also take a pre-registered
//! [`MetricId`] handle.
//!
//! At the end of a run every rank's registry freezes into a
//! [`MetricsSnapshot`] — a sorted, immutable map — and snapshots merge
//! deterministically into the job-level view: counters add, gauges
//! take the maximum (they track high-water marks), histograms add
//! bucket-wise. All three merge operators are associative and
//! commutative, so the job snapshot is independent of rank order.

use crate::hist::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;

/// A metric identity: name plus canonically ordered label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: BTreeMap<String, String>,
}

impl MetricKey {
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
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

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count; merges by addition.
    Counter(u64),
    /// High-water mark; merges by maximum.
    Gauge(f64),
    /// Log₂-bucketed distribution; merges bucket-wise.
    Histogram(Histogram),
}

impl MetricValue {
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }

    fn merge(&mut self, other: &MetricValue, key: &MetricKey) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = a.max(*b),
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            (a, b) => panic!("metric `{key}` merged as {} into {}", b.kind(), a.kind()),
        }
    }
}

/// Stable handle to one registered metric (index into the registry's
/// arena). Valid only for the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(usize);

/// A per-rank metric store. See the module docs for the model.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Arena in registration order — `MetricId`s index into this.
    entries: Vec<(MetricKey, MetricValue)>,
    /// Canonical key → arena slot.
    index: BTreeMap<MetricKey, usize>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn slot(&mut self, name: &str, labels: &[(&str, &str)], make: fn() -> MetricValue) -> usize {
        let key = MetricKey::new(name, labels);
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        let i = self.entries.len();
        self.entries.push((key.clone(), make()));
        self.index.insert(key, i);
        i
    }

    /// Pre-register a histogram and get a hot-path handle.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> MetricId {
        MetricId(self.slot(name, labels, || MetricValue::Histogram(Histogram::new())))
    }

    /// Record `v` into the histogram behind `id`.
    pub fn observe_id(&mut self, id: MetricId, v: f64) {
        match &mut self.entries[id.0].1 {
            MetricValue::Histogram(h) => h.observe(v),
            other => panic!("MetricId is a {}, not a histogram", other.kind()),
        }
    }

    /// One-shot counter increment.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        let i = self.slot(name, labels, || MetricValue::Counter(0));
        match &mut self.entries[i].1 {
            MetricValue::Counter(c) => *c += by,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// One-shot high-water-mark update.
    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let i = self.slot(name, labels, || MetricValue::Gauge(f64::NEG_INFINITY));
        match &mut self.entries[i].1 {
            MetricValue::Gauge(g) => *g = g.max(v),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// One-shot histogram observation.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.histogram(name, labels);
        self.observe_id(id, v);
    }

    /// Freeze into a sorted, mergeable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .index
                .iter()
                .map(|(k, &i)| (k.clone(), self.entries[i].1.clone()))
                .collect(),
        }
    }
}

/// An immutable, canonically sorted set of metric values — what a rank
/// reports and what ranks' reports merge into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub entries: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold `other` into `self`: counters add, gauges take the max,
    /// histograms merge bucket-wise. Panics on a name registered with
    /// two different metric kinds (a programming error).
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (key, val) in &other.entries {
            match self.entries.get_mut(key) {
                Some(mine) => mine.merge(val, key),
                None => {
                    self.entries.insert(key.clone(), val.clone());
                }
            }
        }
    }

    /// Merge a sequence of snapshots (e.g. one per rank) into one.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a MetricsSnapshot>) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for p in parts {
            out.merge_from(p);
        }
        out
    }

    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&MetricKey::new(name, labels))
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.get(name, labels)? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.get(name, labels)? {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.get(name, labels)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Sum of a counter over every label combination it was recorded
    /// with (e.g. total ops across all opcodes).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| k.name == name)
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Serialize as a JSON array of metric objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.entries
                .iter()
                .map(|(k, v)| {
                    let mut obj = vec![
                        ("name".to_string(), Json::Str(k.name.clone())),
                        (
                            "labels".to_string(),
                            Json::Obj(
                                k.labels
                                    .iter()
                                    .map(|(lk, lv)| (lk.clone(), Json::Str(lv.clone())))
                                    .collect(),
                            ),
                        ),
                        ("type".to_string(), Json::Str(v.kind().to_string())),
                    ];
                    match v {
                        MetricValue::Counter(c) => {
                            obj.push(("value".to_string(), Json::Num(*c as f64)));
                        }
                        MetricValue::Gauge(g) => {
                            obj.push(("value".to_string(), Json::Num(*g)));
                        }
                        MetricValue::Histogram(h) => {
                            obj.push(("count".to_string(), Json::Num(h.count() as f64)));
                            obj.push(("sum".to_string(), Json::Num(h.sum())));
                            if let (Some(mn), Some(mx)) = (h.min(), h.max()) {
                                obj.push(("min".to_string(), Json::Num(mn)));
                                obj.push(("max".to_string(), Json::Num(mx)));
                            }
                            obj.push((
                                "buckets".to_string(),
                                Json::Arr(
                                    h.nonzero_buckets()
                                        .map(|(i, _, c)| {
                                            Json::Arr(vec![
                                                Json::Num(i as f64),
                                                Json::Num(c as f64),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ));
                        }
                    }
                    Json::Obj(obj)
                })
                .collect(),
        )
    }

    /// Parse a snapshot back from [`MetricsSnapshot::to_json`] output.
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, String> {
        let arr = json.as_arr().ok_or("metrics: expected an array")?;
        let mut entries = BTreeMap::new();
        for m in arr {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric missing name")?;
            let labels: BTreeMap<String, String> = match m.get("labels") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_str()
                            .map(|s| (k.clone(), s.to_string()))
                            .ok_or_else(|| format!("metric `{name}`: non-string label"))
                    })
                    .collect::<Result<_, _>>()?,
                _ => BTreeMap::new(),
            };
            let kind = m
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric `{name}` missing type"))?;
            let num = |field: &str| -> Result<f64, String> {
                m.get(field)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("metric `{name}` missing `{field}`"))
            };
            let value = match kind {
                "counter" => MetricValue::Counter(num("value")? as u64),
                "gauge" => MetricValue::Gauge(num("value")?),
                "histogram" => {
                    let count = num("count")? as u64;
                    let sum = num("sum")?;
                    let min = m.get("min").and_then(Json::as_num).unwrap_or(f64::INFINITY);
                    let max = m
                        .get("max")
                        .and_then(Json::as_num)
                        .unwrap_or(f64::NEG_INFINITY);
                    let sparse: Vec<(usize, u64)> = match m.get("buckets") {
                        Some(Json::Arr(pairs)) => pairs
                            .iter()
                            .filter_map(|p| {
                                let pair = p.as_arr()?;
                                Some((
                                    pair.first()?.as_num()? as usize,
                                    pair.get(1)?.as_num()? as u64,
                                ))
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    MetricValue::Histogram(Histogram::from_parts(count, sum, min, max, &sparse))
                }
                other => return Err(format!("metric `{name}`: unknown type `{other}`")),
            };
            entries.insert(
                MetricKey {
                    name: name.to_string(),
                    labels,
                },
                value,
            );
        }
        Ok(MetricsSnapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_and_handles_hit_the_same_metric() {
        let mut r = MetricsRegistry::new();
        let id = r.histogram("lat", &[("dir", "send")]);
        r.observe_id(id, 2.0);
        r.observe("lat", &[("dir", "send")], 3.0);
        let s = r.snapshot();
        let h = s.histogram("lat", &[("dir", "send")]).unwrap();
        assert_eq!((h.count(), h.sum()), (2, 5.0));
        assert_eq!(s.histogram("lat", &[]), None);
    }

    #[test]
    fn label_order_is_canonical() {
        let mut r = MetricsRegistry::new();
        r.inc("m", &[("b", "2"), ("a", "1")], 1);
        r.inc("m", &[("a", "1"), ("b", "2")], 1);
        let s = r.snapshot();
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.counter("m", &[("a", "1"), ("b", "2")]), Some(2));
    }

    #[test]
    fn merge_semantics_per_kind() {
        let mut a = MetricsRegistry::new();
        a.inc("c", &[], 5);
        a.gauge_max("g", &[], 10.0);
        a.observe("h", &[], 1.0);
        let mut b = MetricsRegistry::new();
        b.inc("c", &[], 7);
        b.gauge_max("g", &[], 3.0);
        b.observe("h", &[], 4.0);
        b.inc("only_b", &[], 1);

        let mut m = a.snapshot();
        m.merge_from(&b.snapshot());
        assert_eq!(m.counter("c", &[]), Some(12), "counters add");
        assert_eq!(m.gauge("g", &[]), Some(10.0), "gauges take the max");
        let h = m.histogram("h", &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 5.0);
        assert_eq!(m.counter("only_b", &[]), Some(1), "union of keys");
    }

    #[test]
    fn counter_sum_spans_labels() {
        let mut r = MetricsRegistry::new();
        r.inc("ops", &[("op", "matmul")], 3);
        r.inc("ops", &[("op", "reduce")], 4);
        assert_eq!(r.snapshot().counter_sum("ops"), 7);
    }

    #[test]
    fn json_round_trip() {
        let mut r = MetricsRegistry::new();
        r.inc("msgs", &[("kind", "p2p")], 42);
        r.gauge_max("peak_bytes", &[], 1.5e6);
        r.observe("lat", &[("op", "send")], 0.001);
        r.observe("lat", &[("op", "send")], 0.5);
        let snap = r.snapshot();
        let text = snap.to_json().to_string();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn key_display_is_prometheus_style() {
        let k = MetricKey::new("op_seconds", &[("op", "matmul")]);
        assert_eq!(k.to_string(), "op_seconds{op=\"matmul\"}");
        assert_eq!(MetricKey::new("plain", &[]).to_string(), "plain");
    }
}
