//! Point-in-time export of the registry: a typed [`Snapshot`], served
//! over the controller's `{"op":"stats"}` wire op through its
//! [`ToJson`] / [`FromJson`] codec and printed by `predictddl-cli serve`
//! on shutdown.

use crate::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::collections::HashMap;

/// Summary of one histogram (latencies in nanoseconds by convention).
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
    /// Observations clamped at `u64::MAX` because the raw value
    /// overflowed the top bucket.
    pub overflow: u64,
}

/// A consistent-enough snapshot of every registered metric (each metric is
/// read atomically; the set is read under the registry lock). Collections
/// are sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// (name, value) for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// (name, value) for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// (name, summary) for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Value of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }
}

impl ToJson for HistogramSnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field_with("mean", |w| w.lossy_f64(self.mean))
            .field("p50", &self.p50)
            .field("p95", &self.p95)
            .field("p99", &self.p99)
            .field("overflow", &self.overflow)
            .end();
    }
}

impl FromJson for HistogramSnapshot {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            count: o.field("count")?,
            sum: o.field("sum")?,
            min: o.field("min")?,
            max: o.field("max")?,
            mean: o.field("mean")?,
            p50: o.field("p50")?,
            p95: o.field("p95")?,
            p99: o.field("p99")?,
            // Absent in snapshots from pre-overflow peers.
            overflow: o.field::<Option<u64>>("overflow")?.unwrap_or(0),
        })
    }
}

/// `{"counters":{name:n,…},"gauges":{…},"histograms":{name:{count,…}}}`,
/// each map in name order.
impl ToJson for Snapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field_with("counters", |w| write_named(w, &self.counters))
            .field_with("gauges", |w| write_named(w, &self.gauges))
            .field_with("histograms", |w| write_named(w, &self.histograms))
            .end();
    }
}

impl FromJson for Snapshot {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            counters: by_name(o.field("counters")?),
            gauges: by_name(o.field("gauges")?),
            histograms: by_name(o.field("histograms")?),
        })
    }
}

/// Writes `(name, value)` pairs as one object, in their order.
fn write_named<T: ToJson>(w: &mut JsonWriter, entries: &[(String, T)]) {
    entries.iter().fold(w.object(), |o, (name, v)| o.field(name, v)).end();
}

/// A decoded map as the name-sorted list the lookups binary-search.
fn by_name<T>(map: HashMap<String, T>) -> Vec<(String, T)> {
    let mut entries: Vec<_> = map.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn round_trip(snap: &Snapshot) -> Snapshot {
        json::from_str(&json::to_string(snap).unwrap()).unwrap()
    }

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("a.ok".into(), 3), ("b.err".into(), 0)],
            gauges: vec![("conns".into(), -2)],
            histograms: vec![(
                "lat".into(),
                HistogramSnapshot {
                    count: 5,
                    sum: 1000,
                    min: 10,
                    max: 700,
                    mean: 200.0,
                    p50: 128,
                    p95: 600,
                    p99: 700,
                    overflow: 1,
                },
            )],
        }
    }

    #[test]
    fn missing_overflow_field_defaults_to_zero() {
        // A snapshot rendered by a peer predating the overflow counter.
        let legacy = r#"{"counters":{},"gauges":{},"histograms":{"lat":
            {"count":1,"sum":2,"min":2,"max":2,"mean":2.0,"p50":2,"p95":2,"p99":2}}}"#;
        let snap = json::from_str::<Snapshot>(legacy).unwrap();
        assert_eq!(snap.histogram("lat").unwrap().overflow, 0);
    }

    #[test]
    fn json_round_trip() {
        let snap = sample();
        let back = round_trip(&snap);
        assert_eq!(back, snap);
        // A whole mean is spelled without a fraction, as PROTOCOL.md shows.
        assert!(json::to_string(&snap).unwrap().contains(r#""mean":200,"#));
    }

    #[test]
    fn lookup_by_name() {
        let snap = sample();
        assert_eq!(snap.counter("a.ok"), Some(3));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("conns"), Some(-2));
        assert_eq!(snap.histogram("lat").unwrap().p95, 600);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        assert_eq!(round_trip(&snap), snap);
    }

    #[test]
    fn metric_names_with_quotes_survive() {
        let mut snap = Snapshot::default();
        snap.counters.push(("we\"ird\\name".into(), 9));
        let back = round_trip(&snap);
        assert_eq!(back.counter("we\"ird\\name"), Some(9));
    }
}
