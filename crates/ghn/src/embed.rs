//! Embedding-space utilities: cosine similarity and the named embedding set
//! used by the Workload Embeddings Generator (paper §III-E, Fig. 5: "the
//! distance between a pair of vectors ... indicates the similarity of the
//! corresponding DNN architectures").


/// Cosine similarity of two equal-length vectors; 0 for degenerate inputs.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine dimension mismatch");
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na.sqrt() * nb.sqrt())) as f32
    }
}

/// A collection of named architecture embeddings supporting nearest-match
/// lookup (PredictDDL "finds the closest match based on the cosine
/// similarity in case there is no exact match").
#[derive(Clone, Debug, Default)]
pub struct EmbeddingSet {
    names: Vec<String>,
    vectors: Vec<Vec<f32>>,
}

pddl_telemetry::json_struct!(EmbeddingSet { names, vectors });

impl EmbeddingSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an embedding.
    pub fn insert(&mut self, name: impl Into<String>, v: Vec<f32>) {
        let name = name.into();
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            self.vectors[i] = v;
        } else {
            self.names.push(name);
            self.vectors.push(v);
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

    /// Returns the stored name with highest cosine similarity to `query`,
    /// along with the similarity. `None` on an empty set.
    pub fn nearest(&self, query: &[f32]) -> Option<(&str, f32)> {
        self.vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i, cosine_similarity(query, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, s)| (self.names[i].as_str(), s))
    }

    /// Top-k most similar entries, most similar first.
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<(&str, f32)> {
        let mut scored: Vec<(&str, f32)> = self
            .names
            .iter()
            .zip(&self.vectors)
            .map(|(n, v)| (n.as_str(), cosine_similarity(query, v)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
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

    #[test]
    fn json_round_trip() {
        let mut set = EmbeddingSet::new();
        set.insert("m", vec![0.25, -0.5]);
        let s = pddl_telemetry::json::to_string(&set).unwrap();
        let set2: EmbeddingSet = pddl_telemetry::json::from_str(&s).unwrap();
        assert_eq!(set2.get("m").unwrap(), set.get("m").unwrap());
    }
}
