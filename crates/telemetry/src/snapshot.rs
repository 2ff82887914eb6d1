//! Point-in-time export of the registry: a typed [`Snapshot`] with a JSON
//! encoder and decoder, served over the controller's `{"op":"stats"}` wire
//! op and printed by `predictddl-cli serve` on shutdown.

use crate::json::{push_f64, push_json_string, JsonValue};

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

    /// Renders the snapshot as a JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(":{\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"sum\":");
            out.push_str(&h.sum.to_string());
            out.push_str(",\"min\":");
            out.push_str(&h.min.to_string());
            out.push_str(",\"max\":");
            out.push_str(&h.max.to_string());
            out.push_str(",\"mean\":");
            push_f64(&mut out, h.mean);
            out.push_str(",\"p50\":");
            out.push_str(&h.p50.to_string());
            out.push_str(",\"p95\":");
            out.push_str(&h.p95.to_string());
            out.push_str(",\"p99\":");
            out.push_str(&h.p99.to_string());
            out.push_str(",\"overflow\":");
            out.push_str(&h.overflow.to_string());
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a snapshot from its [`Self::to_json`] form.
    pub fn from_json(s: &str) -> Result<Snapshot, String> {
        Self::from_value(&JsonValue::parse(s)?)
    }

    /// Builds a snapshot from an already-parsed JSON object (e.g. the
    /// `snapshot` field of a stats wire response).
    pub fn from_value(v: &JsonValue) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        let counters = v
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or("missing 'counters' object")?;
        for (name, val) in counters {
            let n = val.as_u64().ok_or_else(|| format!("counter {name} not a u64"))?;
            snap.counters.push((name.clone(), n));
        }
        let gauges = v
            .get("gauges")
            .and_then(JsonValue::as_object)
            .ok_or("missing 'gauges' object")?;
        for (name, val) in gauges {
            let n = val.as_i64().ok_or_else(|| format!("gauge {name} not an i64"))?;
            snap.gauges.push((name.clone(), n));
        }
        let hists = v
            .get("histograms")
            .and_then(JsonValue::as_object)
            .ok_or("missing 'histograms' object")?;
        for (name, val) in hists {
            let field = |k: &str| -> Result<u64, String> {
                val.get(k)
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("histogram {name} missing '{k}'"))
            };
            snap.histograms.push((
                name.clone(),
                HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    mean: val
                        .get("mean")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| format!("histogram {name} missing 'mean'"))?,
                    p50: field("p50")?,
                    p95: field("p95")?,
                    p99: field("p99")?,
                    // Absent in snapshots from pre-overflow peers.
                    overflow: val.get("overflow").and_then(JsonValue::as_u64).unwrap_or(0),
                },
            ));
        }
        // BTreeMap iteration is already name-sorted; keep the invariant
        // explicit for binary_search-based lookups.
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let snap = Snapshot::from_json(legacy).unwrap();
        assert_eq!(snap.histogram("lat").unwrap().overflow, 0);
    }

    #[test]
    fn json_round_trip() {
        let snap = sample();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
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
        assert_eq!(Snapshot::from_json(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn metric_names_with_quotes_survive() {
        let mut snap = Snapshot::default();
        snap.counters.push(("we\"ird\\name".into(), 9));
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back.counter("we\"ird\\name"), Some(9));
    }
}
