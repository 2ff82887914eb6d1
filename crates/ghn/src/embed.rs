//! Embedding-space utilities: cosine similarity and the named embedding set
//! used by the Workload Embeddings Generator (paper §III-E, Fig. 5: "the
//! distance between a pair of vectors ... indicates the similarity of the
//! corresponding DNN architectures").

use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::cmp::Ordering;

/// Cosine similarity of two equal-length vectors; 0 for degenerate inputs.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine dimension mismatch");
    let mut dot = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
    }
    cosine_from(dot, sq_norm(a), sq_norm(b))
}

/// `Σ x²` in f64, summed in order: the norm half of every cosine here.
fn sq_norm(v: &[f32]) -> f64 {
    let mut n = 0.0f64;
    for &x in v {
        n += x as f64 * x as f64;
    }
    n
}

/// The cosine of a dot product and two squared norms; 0 if either norm is.
fn cosine_from(dot: f64, na: f64, nb: f64) -> f32 {
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na.sqrt() * nb.sqrt())) as f32
    }
}

/// How many stored vectors one pass of [`EmbeddingSet::scan`] takes: one
/// independent f64 dot chain each, so their adds overlap.
const SCAN_WIDTH: usize = 4;

/// A collection of named architecture embeddings supporting nearest-match
/// lookup (PredictDDL "finds the closest match based on the cosine
/// similarity in case there is no exact match").
#[derive(Clone, Debug, Default)]
pub struct EmbeddingSet {
    names: Vec<String>,
    vectors: Vec<Vec<f32>>,
    /// `sq_norm` of each vector: derived, so never written, and computed
    /// again on insert and on decode.
    norms: Vec<f64>,
}

impl ToJson for EmbeddingSet {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object().field("names", &self.names).field("vectors", &self.vectors).end();
    }
}

impl FromJson for EmbeddingSet {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        let (names, vectors): (Vec<String>, Vec<Vec<f32>>) =
            (o.field("names")?, o.field("vectors")?);
        if names.len() != vectors.len() {
            return Err(JsonError::Shape(format!(
                "{} names but {} vectors",
                names.len(),
                vectors.len()
            )));
        }
        let norms = vectors.iter().map(|v| sq_norm(v)).collect();
        Ok(Self { names, vectors, norms })
    }
}

impl EmbeddingSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an embedding.
    pub fn insert(&mut self, name: impl Into<String>, v: Vec<f32>) {
        let name = name.into();
        let norm = sq_norm(&v);
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            self.vectors[i] = v;
            self.norms[i] = norm;
        } else {
            self.names.push(name);
            self.vectors.push(v);
            self.norms.push(norm);
        }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&[f32]> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.vectors[i].as_slice())
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|s| s.as_str())
    }

    /// Calls `visit(i, cosine_similarity(query, vectors[i]))` for every
    /// entry in order, with the same bits: each dot product is the same
    /// in-order f64 chain, the stored norms are the ones it would sum, and
    /// the query's norm is summed once. [`SCAN_WIDTH`] entries share a pass
    /// over the query; a last pass short of entries repeats its last one.
    fn scan(&self, query: &[f32], mut visit: impl FnMut(usize, f32)) {
        let n = self.vectors.len();
        for v in &self.vectors {
            assert_eq!(v.len(), query.len(), "cosine dimension mismatch");
        }
        let qn = sq_norm(query);
        for start in (0..n).step_by(SCAN_WIDTH) {
            let at = |k: usize| &self.vectors[(start + k).min(n - 1)];
            let mut dots = [0.0f64; SCAN_WIDTH];
            let lanes = query.iter().zip(at(0)).zip(at(1)).zip(at(2)).zip(at(3));
            for ((((&q, &a), &b), &c), &d) in lanes {
                let q = q as f64;
                dots[0] += q * a as f64;
                dots[1] += q * b as f64;
                dots[2] += q * c as f64;
                dots[3] += q * d as f64;
            }
            for (i, dot) in (start..n).zip(dots) {
                visit(i, cosine_from(dot, qn, self.norms[i]));
            }
        }
    }

    /// Returns the stored name with highest cosine similarity to `query`,
    /// along with the similarity. `None` on an empty set. An entry takes
    /// the place of the best so far unless the best is greater, so ties go
    /// to the last entry and so does a NaN (what `Iterator::max_by` over
    /// `partial_cmp` keeps).
    pub fn nearest(&self, query: &[f32]) -> Option<(&str, f32)> {
        let mut best: Option<(usize, f32)> = None;
        self.scan(query, |i, s| match best {
            Some((_, b)) if b > s => {}
            _ => best = Some((i, s)),
        });
        best.map(|(i, s)| (self.names[i].as_str(), s))
    }

    /// Top-k most similar entries, most similar first.
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<(&str, f32)> {
        let mut scored = Vec::with_capacity(self.len());
        self.scan(query, |i, s| scored.push((self.names[i].as_str(), s)));
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_identical_is_one() {
        let v = vec![0.3, -1.0, 2.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        let a = [1.0, 2.0];
        let b = [-1.0, -2.0];
        assert!((cosine_similarity(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = [0.5, 1.5, -0.25];
        let b: Vec<f32> = a.iter().map(|x| 7.0 * x).collect();
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_vector_yields_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn nearest_finds_best_match() {
        let mut set = EmbeddingSet::new();
        set.insert("a", vec![1.0, 0.0]);
        set.insert("b", vec![0.0, 1.0]);
        set.insert("c", vec![0.7, 0.7]);
        let (name, sim) = set.nearest(&[0.6, 0.8]).unwrap();
        assert_eq!(name, "c");
        assert!(sim > 0.9);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut set = EmbeddingSet::new();
        set.insert("a", vec![1.0]);
        set.insert("a", vec![2.0]);
        assert_eq!(set.len(), 1);
        assert_eq!(set.get("a").unwrap(), &[2.0]);
    }

    #[test]
    fn top_k_sorted_descending() {
        let mut set = EmbeddingSet::new();
        set.insert("x", vec![1.0, 0.0]);
        set.insert("y", vec![0.9, 0.1]);
        set.insert("z", vec![0.0, 1.0]);
        let top = set.top_k(&[1.0, 0.0], 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "x");
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn empty_set_has_no_nearest() {
        assert!(EmbeddingSet::new().nearest(&[1.0]).is_none());
    }

    /// The definition `scan` must keep: `max_by` / a descending sort over
    /// `cosine_similarity`, entry by entry.
    fn naive_nearest<'a>(set: &'a EmbeddingSet, q: &[f32]) -> Option<(&'a str, f32)> {
        set.names
            .iter()
            .zip(&set.vectors)
            .map(|(n, v)| (n.as_str(), cosine_similarity(q, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
    }

    fn naive_top_k<'a>(set: &'a EmbeddingSet, q: &[f32], k: usize) -> Vec<(&'a str, f32)> {
        let mut scored: Vec<(&str, f32)> = set
            .names
            .iter()
            .zip(&set.vectors)
            .map(|(n, v)| (n.as_str(), cosine_similarity(q, v)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
        scored.truncate(k);
        scored
    }

    fn bits<'a>(hits: impl IntoIterator<Item = (&'a str, f32)>) -> Vec<(&'a str, u32)> {
        hits.into_iter().map(|(n, s)| (n, s.to_bits())).collect()
    }

    fn assert_scan_is_naive(set: &EmbeddingSet, q: &[f32], what: &str) {
        assert_eq!(bits(set.nearest(q)), bits(naive_nearest(set, q)), "nearest, {what}");
        for k in [0, 1, 3, set.len(), set.len() + 2] {
            let (got, want) = (set.top_k(q, k), naive_top_k(set, q, k));
            assert_eq!(bits(got), bits(want), "top_{k}, {what}");
        }
    }

    #[test]
    fn scan_equals_max_by_and_sort_over_cosine_similarity_bit_for_bit() {
        let mut rng = pddl_tensor::Rng::new(0x5ca4);
        let dim = 13;
        let vector = |rng: &mut pddl_tensor::Rng| -> Vec<f32> {
            (0..dim).map(|_| rng.normal()).collect()
        };
        let query = vector(&mut rng);
        for len in 0..=17 {
            let mut set = EmbeddingSet::new();
            for i in 0..len {
                set.insert(format!("m{i}"), vector(&mut rng));
            }
            assert_scan_is_naive(&set, &query, &format!("{len} random"));
            assert_scan_is_naive(&set, &[0.0; 13], &format!("{len} random, zero query"));
            if len == 0 {
                continue;
            }
            // Duplicates: every entry a copy of one vector, so the last wins.
            let mut dup = EmbeddingSet::new();
            let v = set.vectors[0].clone();
            for i in 0..len {
                dup.insert(format!("d{i}"), v.clone());
            }
            assert_eq!(dup.nearest(&query).unwrap().0, format!("d{}", len - 1));
            assert_scan_is_naive(&dup, &query, &format!("{len} duplicates"));
            // A zero vector scores 0; a NaN entry scores NaN.
            let mut odd = set.clone();
            odd.insert(format!("m{}", len / 2), vec![0.0; dim]);
            assert_scan_is_naive(&odd, &query, &format!("{len} with a zero vector"));
            let mut nan = vector(&mut rng);
            nan[len % dim] = f32::NAN;
            odd.insert(format!("m{}", len - 1), nan);
            assert_scan_is_naive(&odd, &query, &format!("{len} with a NaN entry"));
            // Replacing an entry refreshes its norm: with the old one kept,
            // the new vector's cosines would not be the naive ones.
            let mut replaced = set.clone();
            let fresh = vector(&mut rng);
            replaced.insert(format!("m{}", len - 1), fresh.clone());
            assert_scan_is_naive(&replaced, &fresh, &format!("{len} after a replace"));
            assert_eq!(replaced.nearest(&fresh).unwrap().0, format!("m{}", len - 1));
        }
    }

    #[test]
    #[should_panic(expected = "cosine dimension mismatch")]
    fn a_query_of_another_width_is_refused() {
        let mut set = EmbeddingSet::new();
        set.insert("a", vec![1.0, 0.0]);
        set.nearest(&[1.0, 0.0, 0.0]);
    }

    #[test]
    fn decoding_derives_the_norms() {
        let mut set = EmbeddingSet::new();
        let vectors = [[3.0, 4.0], [1.0, -2.0], [0.0, 0.0], [-0.5, 0.25], [2.0, 2.0]];
        for (i, v) in vectors.iter().enumerate() {
            set.insert(format!("m{i}"), v.to_vec());
        }
        let text = pddl_telemetry::json::to_string(&set).unwrap();
        let back: EmbeddingSet = pddl_telemetry::json::from_str(&text).unwrap();
        assert_eq!(back.norms, set.norms);
        assert_eq!(back.norms[0], 25.0);
        assert_scan_is_naive(&back, &[0.5, 1.5], "decoded");
        let err = pddl_telemetry::json::from_str::<EmbeddingSet>(r#"{"names":["a"],"vectors":[]}"#);
        assert!(err.is_err());
    }

    #[test]
    fn json_round_trip() {
        let mut set = EmbeddingSet::new();
        set.insert("m", vec![0.25, -0.5]);
        let s = pddl_telemetry::json::to_string(&set).unwrap();
        let set2: EmbeddingSet = pddl_telemetry::json::from_str(&s).unwrap();
        assert_eq!(set2.get("m").unwrap(), set.get("m").unwrap());
    }
}
