//! Checkpoint manifest: the commit record of a registry version.
//!
//! A version directory is only considered committed once `manifest.json`
//! has been atomically renamed into place, so the manifest doubles as the
//! commit marker and the verification record: it lists every artifact with
//! its byte length and FNV-1a hash, and carries the golden probe set the
//! serving layer replays before hot-swapping the version live.
//!
//! The JSON rendering is deterministic (fixed field order, hashes and f64
//! bit patterns as zero-padded hex) and pinned by the golden fixture
//! `tests/fixtures/registry_manifest.json`, so the on-disk format cannot
//! drift silently. Parsing goes through `pddl-telemetry`'s hand-rolled
//! [`JsonValue`] so the crate stays plain `std`.

use pddl_telemetry::{push_json_string, JsonValue};

/// On-disk manifest format version. Readers reject anything newer.
pub const FORMAT_VERSION: u32 = 1;

/// One artifact (named byte blob) recorded in a manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// File name within the version directory (e.g. `system.json`).
    pub name: String,
    /// Exact byte length of the artifact file.
    pub len: u64,
    /// FNV-1a 64-bit hash of the artifact bytes.
    pub fnv1a: u64,
}

/// One golden-probe expectation: a deterministic prediction recorded at
/// publish time, replayed at reload time to validate a candidate version.
///
/// The predicted seconds are stored as the raw `f64` bit pattern so the
/// round trip is exact; "bit-identical for an unchanged model" is then a
/// plain integer comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeRecord {
    /// Stable key describing the probe request (workload + cluster).
    pub key: String,
    /// `f64::to_bits` of the predicted iteration time in seconds.
    pub seconds_bits: u64,
}

impl ProbeRecord {
    /// Builds a record from a prediction in seconds.
    pub fn from_seconds(key: impl Into<String>, seconds: f64) -> Self {
        Self {
            key: key.into(),
            seconds_bits: seconds.to_bits(),
        }
    }

    /// The recorded prediction in seconds.
    pub fn seconds(&self) -> f64 {
        f64::from_bits(self.seconds_bits)
    }
}

/// Commit record for one registry version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// On-disk format version ([`FORMAT_VERSION`] at write time).
    pub format: u32,
    /// Registry version number this manifest commits (the `vNNNN` dir).
    pub version: u64,
    /// Unix timestamp (seconds) when the version was published.
    pub created_unix: u64,
    /// Free-form operator label (e.g. `"nightly-retrain"`).
    pub label: String,
    /// Every artifact in the version directory, with length + hash.
    pub artifacts: Vec<ArtifactEntry>,
    /// Golden probe set for reload validation (may be empty).
    pub probes: Vec<ProbeRecord>,
}

impl Manifest {
    /// Looks up an artifact entry by name.
    pub fn artifact(&self, name: &str) -> Option<&ArtifactEntry> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// Renders the deterministic on-disk JSON (trailing newline included).
    ///
    /// Field order is fixed and hashes/bit patterns are zero-padded
    /// lowercase hex, so equal manifests always produce byte-equal files —
    /// the golden fixture pins this shape.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": {},\n", self.format));
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str(&format!("  \"created_unix\": {},\n", self.created_unix));
        out.push_str("  \"label\": ");
        push_json_string(&mut out, &self.label);
        out.push_str(",\n  \"artifacts\": [");
        for (i, a) in self.artifacts.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            push_json_string(&mut out, &a.name);
            out.push_str(&format!(
                ", \"len\": {}, \"fnv1a\": \"{:016x}\"}}",
                a.len, a.fnv1a
            ));
        }
        if !self.artifacts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"probes\": [");
        for (i, p) in self.probes.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"key\": ");
            push_json_string(&mut out, &p.key);
            out.push_str(&format!(", \"seconds_bits\": \"{:016x}\"}}", p.seconds_bits));
        }
        if !self.probes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a manifest previously rendered by [`Manifest::to_json`].
    ///
    /// Manifests written while the store still recorded an inference
    /// `precision` are accepted when it is absent or `"f32"` — the only
    /// arithmetic this build serves — and refused otherwise: a version
    /// published at another precision carries probes and a cache snapshot
    /// computed in arithmetic the loader can no longer reproduce.
    pub fn from_json(input: &str) -> Result<Manifest, String> {
        let v = JsonValue::parse(input)?;
        let format = field_u64(&v, "format")? as u32;
        let version = field_u64(&v, "version")?;
        let created_unix = field_u64(&v, "created_unix")?;
        let label = v
            .get("label")
            .and_then(|l| l.as_str())
            .ok_or("manifest: missing string field `label`")?
            .to_string();
        if let Some(p) = v.get("precision").filter(|p| p.as_str() != Some("f32")) {
            return Err(format!(
                "manifest: unsupported `precision` {} (this build serves f32 only)",
                p.to_json()
            ));
        }
        let mut artifacts = Vec::new();
        for a in array_field(&v, "artifacts")? {
            let name = a
                .get("name")
                .and_then(|n| n.as_str())
                .ok_or("manifest: artifact missing `name`")?
                .to_string();
            let len = field_u64(a, "len")?;
            let fnv1a = hex_field(a, "fnv1a")?;
            artifacts.push(ArtifactEntry { name, len, fnv1a });
        }
        let mut probes = Vec::new();
        for p in array_field(&v, "probes")? {
            let key = p
                .get("key")
                .and_then(|k| k.as_str())
                .ok_or("manifest: probe missing `key`")?
                .to_string();
            let seconds_bits = hex_field(p, "seconds_bits")?;
            probes.push(ProbeRecord { key, seconds_bits });
        }
        Ok(Manifest {
            format,
            version,
            created_unix,
            label,
            artifacts,
            probes,
        })
    }
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|f| f.as_u64())
        .ok_or_else(|| format!("manifest: missing numeric field `{key}`"))
}

fn array_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    v.get(key)
        .and_then(|f| f.as_array())
        .ok_or_else(|| format!("manifest: missing array field `{key}`"))
}

fn hex_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    let s = v
        .get(key)
        .and_then(|f| f.as_str())
        .ok_or_else(|| format!("manifest: missing hex field `{key}`"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("manifest: bad hex in `{key}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            format: FORMAT_VERSION,
            version: 7,
            created_unix: 1_722_470_400,
            label: "nightly \"retrain\"".to_string(),
            artifacts: vec![
                ArtifactEntry {
                    name: "system.json".into(),
                    len: 4096,
                    fnv1a: 0xdead_beef_cafe_f00d,
                },
                ArtifactEntry {
                    name: "cache.json".into(),
                    len: 12,
                    fnv1a: 1,
                },
            ],
            probes: vec![
                ProbeRecord::from_seconds("resnet/cifar10", 0.125),
                ProbeRecord::from_seconds("vgg/imagenet", 3.5),
            ],
        }
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let back = Manifest::from_json(&m.to_json()).expect("parse");
        assert_eq!(back, m);
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn empty_lists_round_trip() {
        let m = Manifest {
            format: FORMAT_VERSION,
            version: 1,
            created_unix: 0,
            label: String::new(),
            artifacts: vec![],
            probes: vec![],
        };
        assert_eq!(Manifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn probe_seconds_exact() {
        let p = ProbeRecord::from_seconds("k", 0.1 + 0.2);
        assert_eq!(p.seconds().to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn truncated_manifest_rejected() {
        let full = sample().to_json();
        for cut in [0, 1, full.len() / 2, full.len() - 2] {
            assert!(
                Manifest::from_json(&full[..cut]).is_err(),
                "cut at {cut} should not parse"
            );
        }
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(Manifest::from_json("{}").is_err());
        assert!(Manifest::from_json("{\"format\": 1}").is_err());
    }
}
