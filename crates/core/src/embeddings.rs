//! GHN-based Workload Embeddings Generator (§III-E, step ⑤ of Fig. 7).
//!
//! Selects the GHN matching the request's dataset, feeds it the workload's
//! computational graph, and returns the fixed-size complexity vector. Also
//! maintains the per-dataset embedding atlas used for cosine closest-match
//! queries (Fig. 5), and the sharded [`EmbeddingCache`] that amortizes the
//! GHN forward pass across repeated workloads ("train once, reuse
//! everywhere" applied to the embedding itself).
//!
//! Every GHN forward here records into the `ghn.embed` latency histogram
//! (and the underlying GEMMs into `tensor.gemm_calls`/`tensor.gemm_flops`),
//! so cache hit rates can be read against actual embedding cost on the
//! serving stats endpoint.

use crate::registry::{normalize, GhnRegistry};
use pddl_ghn::{EmbeddingSet, GhnEncoder};
use pddl_graph::CompGraph;
use pddl_telemetry::hash::Fnv1a;
use pddl_telemetry::{Counter, Gauge};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The embeddings generator: GHN registry + per-dataset embedding atlas.
pub struct EmbeddingsGenerator {
    atlas: HashMap<String, EmbeddingSet>,
}

pddl_telemetry::json_struct!(EmbeddingsGenerator { atlas });

impl Default for EmbeddingsGenerator {
    fn default() -> Self {
        Self::new()
    }
}

impl EmbeddingsGenerator {
    /// Creates an empty generator with no recorded embeddings.
    pub fn new() -> Self {
        Self { atlas: HashMap::new() }
    }

    /// Records an embedding in the dataset's atlas under the graph's name
    /// (the training set's graphs, embedded on the work pool), so later
    /// queries can report the nearest known architecture.
    pub fn record(&mut self, dataset: &str, name: &str, v: Vec<f32>) {
        self.atlas
            .entry(normalize(dataset).into_owned())
            .or_default()
            .insert(name.to_string(), v);
    }

    /// Nearest known architecture to a query embedding, per dataset.
    pub fn nearest(&self, dataset: &str, query: &[f32]) -> Option<(String, f32)> {
        self.atlas
            .get(normalize(dataset).as_ref())?
            .nearest(query)
            .map(|(n, s)| (n.to_string(), s))
    }

    /// Number of recorded architectures for a dataset.
    pub fn atlas_size(&self, dataset: &str) -> usize {
        self.atlas
            .get(normalize(dataset).as_ref())
            .map_or(0, |s| s.len())
    }
}

/// Default total capacity of the service-level embedding cache. Embeddings
/// are ≤ 64 floats, so even the full zoo × both datasets fits in a few
/// hundred KB; the default leaves ample headroom for custom graphs.
pub const DEFAULT_EMBED_CACHE_CAPACITY: usize = 1024;

/// Global telemetry handles for the embedding cache (shared by every cache
/// instance in the process; per-instance numbers live in [`CacheStats`]).
struct CacheMetrics {
    hits: &'static Counter,
    misses: &'static Counter,
    evictions: &'static Counter,
    ghn_embeds: &'static Counter,
    entries: &'static Gauge,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hits: pddl_telemetry::counter("embed_cache.hits"),
        misses: pddl_telemetry::counter("embed_cache.misses"),
        evictions: pddl_telemetry::counter("embed_cache.evictions"),
        ghn_embeds: pddl_telemetry::counter("embed_cache.ghn_embeds"),
        entries: pddl_telemetry::gauge("embed_cache.entries"),
    })
}

/// Cache key: normalized dataset name + structural graph fingerprint
/// ([`CompGraph::fingerprint`]). The dataset is part of the key because the
/// same architecture embeds differently under different per-dataset GHNs.
type CacheKey = (String, u64);

/// A cache key as a `(dataset, fingerprint)` pair of borrowed parts, so a
/// probe looks up `(&str, u64)` without building an owned [`CacheKey`].
/// Hashes and compares as the tuple does, as `Borrow` requires.
trait KeyParts {
    fn parts(&self) -> (&str, u64);
}

impl KeyParts for CacheKey {
    fn parts(&self) -> (&str, u64) {
        (&self.0, self.1)
    }
}

impl KeyParts for (&str, u64) {
    fn parts(&self) -> (&str, u64) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// One cached (or in-flight) embedding. The [`OnceLock`] doubles as the
/// single-flight mechanism: concurrent requests for the same key block in
/// `get_or_init` while the first computes, so a key's GHN forward pass runs
/// at most once per residency.
struct CacheEntry {
    cell: Arc<OnceLock<Vec<f32>>>,
    last_used: u64,
}

struct CacheShard {
    map: HashMap<CacheKey, CacheEntry>,
    /// Monotonic access clock for LRU recency (per shard).
    tick: u64,
}

/// Point-in-time counters of one cache instance (test- and
/// diagnostics-friendly; the process-wide `embed_cache.*` telemetry
/// counters aggregate across instances).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key present (including in-flight entries,
    /// which never re-invoke the GHN).
    pub hits: u64,
    /// Lookups that inserted a fresh entry.
    pub misses: u64,
    /// Entries dropped by LRU pressure.
    pub evictions: u64,
    /// GHN forward passes actually executed on behalf of this cache.
    pub computes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// A sharded, mutex-striped, LRU-bounded cache of GHN embeddings keyed by
/// `(dataset, graph fingerprint)`.
///
/// * **Sharded** — keys stripe over up to 16 independent `Mutex`es, so
///   concurrent predictions rarely contend; the critical section is a
///   `HashMap` probe, never a GHN forward pass.
/// * **Single-flight** — a miss publishes an in-flight entry before
///   computing, so N threads racing on one new key run the GHN exactly
///   once; the others block on the entry and reuse the result.
/// * **LRU-bounded** — each shard evicts its least-recently-used entry
///   beyond its share of [`EmbeddingCache::capacity`].
/// * **One lookup path** — [`EmbeddingCache::get_or_embed_keyed`] does the
///   probe; [`EmbeddingCache::get_or_embed`] and
///   [`EmbeddingCache::get_or_embed_detailed`] only look the dataset's GHN
///   up and compute the fingerprint first. This is the only place an
///   embedding is kept: the zoo's resolver table memoises graphs, never
///   vectors, so dropping or replacing a cache needs no other invalidation.
///
/// Hit/miss/eviction counts are exported both process-wide (telemetry
/// counters `embed_cache.*`, visible in the controller's `{"op":"stats"}`
/// snapshot) and per instance ([`EmbeddingCache::stats`]).
pub struct EmbeddingCache {
    shards: Vec<Mutex<CacheShard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    computes: AtomicU64,
}

impl Default for EmbeddingCache {
    fn default() -> Self {
        Self::new(DEFAULT_EMBED_CACHE_CAPACITY)
    }
}

impl EmbeddingCache {
    /// A cache bounded to roughly `capacity` entries (rounded up to a
    /// multiple of the shard count; the exact bound is
    /// [`EmbeddingCache::capacity`]). `capacity` must be ≥ 1.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = capacity.min(16);
        let shard_capacity = capacity.div_ceil(shards);
        // Touch the global handles now so `embed_cache.*` metrics appear in
        // stats snapshots as soon as a cache exists, not on first traffic.
        let _ = cache_metrics();
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(CacheShard { map: HashMap::new(), tick: 0 }))
                .collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            computes: AtomicU64::new(0),
        }
    }

    /// The enforced entry bound (shard count × per-shard capacity).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_capacity
    }

    /// Point-in-time per-instance counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            computes: self.computes.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().unwrap().map.len() as u64).sum(),
        }
    }

    /// Exports every *completed* entry as `(dataset, fingerprint,
    /// embedding)` triples, sorted by key for deterministic output —
    /// the payload `PredictDdl::save_checkpoint` persists so a warm
    /// restart starts with a hot cache. In-flight entries (a racer is
    /// still computing) are skipped rather than waited on.
    pub fn snapshot_entries(&self) -> Vec<(String, u64, Vec<f32>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            for ((dataset, fp), entry) in &s.map {
                if let Some(v) = entry.cell.get() {
                    out.push((dataset.clone(), *fp, v.clone()));
                }
            }
        }
        out.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        out
    }

    /// Inserts a precomputed embedding (from a checkpoint's cache
    /// snapshot) as a completed entry. A key already resident keeps its
    /// current entry; LRU bounds apply as usual, so preloading more than
    /// [`EmbeddingCache::capacity`] entries simply keeps the tail.
    pub fn preload(&self, dataset: &str, fingerprint: u64, embedding: Vec<f32>) {
        let key: CacheKey = (normalize(dataset).into_owned(), fingerprint);
        let shard = &self.shards[self.shard_index(key.parts())];
        let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
        s.tick += 1;
        let tick = s.tick;
        if s.map.contains_key(&key) {
            return;
        }
        let cell = Arc::new(OnceLock::new());
        let _ = cell.set(embedding);
        self.insert_evicting(&mut s, key, CacheEntry { cell, last_used: tick });
    }

    /// Makes `entry` resident under `key` in `shard`, then evicts the
    /// shard's least-recently-used entry if that took it past its share
    /// of the capacity. O(shard size), which is small by construction; an
    /// in-flight victim still completes for its waiters — it just loses
    /// residency.
    fn insert_evicting(&self, shard: &mut CacheShard, key: CacheKey, entry: CacheEntry) {
        let m = cache_metrics();
        shard.map.insert(key, entry);
        m.entries.inc();
        if shard.map.len() <= self.shard_capacity {
            return;
        }
        let victim = shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
        if let Some(victim) = victim {
            shard.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            m.evictions.inc();
            m.entries.dec();
        }
    }

    /// Shard index for `key` — the dataset is mixed into the fingerprint
    /// so one dataset's keys do not pile onto the fingerprint's shard
    /// distribution alone.
    fn shard_index(&self, (dataset, fingerprint): (&str, u64)) -> usize {
        let mut mix = Fnv1a::with_basis(fingerprint ^ 0x9e3779b97f4a7c15);
        mix.bytes(dataset.as_bytes());
        (mix.finish() % self.shards.len() as u64) as usize
    }

    /// Returns the dataset's embedding of `graph`, computing it with the
    /// dataset's GHN on a miss and reusing the cached vector on a hit.
    /// `None` if no GHN is trained for the dataset (never cached, so the
    /// Task-Checker → offline-training path stays visible).
    pub fn get_or_embed(
        &self,
        registry: &GhnRegistry,
        dataset: &str,
        graph: &CompGraph,
    ) -> Option<Vec<f32>> {
        self.get_or_embed_detailed(registry, dataset, graph).map(|(v, _)| v)
    }

    /// [`EmbeddingCache::get_or_embed`] plus whether the probe *hit* (the
    /// key was already resident or in flight).
    pub fn get_or_embed_detailed(
        &self,
        registry: &GhnRegistry,
        dataset: &str,
        graph: &CompGraph,
    ) -> Option<(Vec<f32>, bool)> {
        let ghn = registry.get(dataset)?;
        Some(self.get_or_embed_keyed(ghn, dataset, graph.fingerprint(), graph))
    }

    /// The one lookup path: probes for `(dataset, fingerprint)` and reads
    /// `graph` only on a miss, to embed it with `ghn`, the dataset's GHN
    /// (the prediction path passes the one [`crate::TaskChecker`] looked
    /// up, so a request hashes the dataset name into the registry once).
    /// `fingerprint` must be `graph.fingerprint()`; callers that already
    /// hold it (a zoo model resolved through [`pddl_zoo::resolve`]) pass it
    /// in, so a hit costs the same whatever the size of the graph. The
    /// prediction path uses the hit flag to tell `embed_cache` hit spans —
    /// microseconds — from miss spans that paid for a GHN forward pass.
    pub fn get_or_embed_keyed(
        &self,
        ghn: &GhnEncoder,
        dataset: &str,
        fingerprint: u64,
        graph: &CompGraph,
    ) -> (Vec<f32>, bool) {
        debug_assert_eq!(fingerprint, graph.fingerprint(), "key is not this graph's");
        let dataset = normalize(dataset);
        let probe = (dataset.as_ref(), fingerprint);
        let m = cache_metrics();

        let shard = &self.shards[self.shard_index(probe)];

        let (cell, hit) = {
            let mut s = shard.lock().unwrap();
            s.tick += 1;
            let tick = s.tick;
            if let Some(entry) = s.map.get_mut(&probe as &dyn KeyParts) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                m.hits.inc();
                (Arc::clone(&entry.cell), true)
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                m.misses.inc();
                let cell = Arc::new(OnceLock::new());
                let key: CacheKey = (dataset.into_owned(), fingerprint);
                let entry = CacheEntry { cell: Arc::clone(&cell), last_used: tick };
                self.insert_evicting(&mut s, key, entry);
                (cell, false)
            }
        };

        // Outside the shard lock: compute (first caller) or wait (racers).
        let v = cell.get_or_init(|| {
            self.computes.fetch_add(1, Ordering::Relaxed);
            m.ghn_embeds.inc();
            ghn.embed_graph(graph)
        });
        (v.clone(), hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_zoo::{build_model, CIFAR10};

    fn registry() -> GhnRegistry {
        GhnRegistry::tiny(5, &["cifar10"])
    }

    #[test]
    fn embeds_with_matching_ghn() {
        let reg = registry();
        let g = build_model("resnet18", &CIFAR10).unwrap();
        let e = reg.get("cifar10").unwrap().embed_graph(&g);
        assert_eq!(e.len(), pddl_ghn::GhnConfig::tiny().hidden_dim);
    }

    #[test]
    fn missing_ghn_returns_none() {
        let reg = registry();
        let g = build_model("resnet18", &CIFAR10).unwrap();
        assert!(reg.get("tiny-imagenet").is_none());
        assert!(EmbeddingCache::default().get_or_embed(&reg, "tiny-imagenet", &g).is_none());
    }

    #[test]
    fn atlas_nearest_finds_self() {
        let reg = registry();
        let mut gen = EmbeddingsGenerator::new();
        for name in ["resnet18", "vgg16", "squeezenet1_1"] {
            let g = build_model(name, &CIFAR10).unwrap();
            gen.record("cifar10", name, reg.get("cifar10").unwrap().embed_graph(&g));
        }
        assert_eq!(gen.atlas_size("cifar10"), 3);
        let g = build_model("vgg16", &CIFAR10).unwrap();
        let e = reg.get("cifar10").unwrap().embed_graph(&g);
        let (name, sim) = gen.nearest("cifar10", &e).unwrap();
        assert_eq!(name, "vgg16");
        assert!(sim > 0.999);
    }

    /// A tiny but valid graph: input → conv(c_out) → output. Distinct
    /// `c_out` values produce structurally distinct graphs (distinct
    /// fingerprints) without the cost of full zoo models.
    fn synth_graph(c_out: usize) -> CompGraph {
        use pddl_graph::{NodeAttrs, OpKind};
        let mut g = CompGraph::new(format!("synth{c_out}"));
        let input = g.add_node(OpKind::Input, NodeAttrs::elementwise(3, 8), "in");
        let conv = g.chain(input, OpKind::Conv, NodeAttrs::conv(3, c_out, 3, 1, 8), "c");
        let _out = g.chain(conv, OpKind::Output, NodeAttrs::elementwise(c_out, 8), "out");
        g
    }

    #[test]
    fn cache_hit_returns_the_same_vector_as_direct_embedding() {
        let reg = registry();
        let cache = EmbeddingCache::new(64);
        let g = build_model("resnet18", &CIFAR10).unwrap();
        let direct = reg.get("cifar10").unwrap().embed_graph(&g);
        let (first, was_hit) = cache.get_or_embed_detailed(&reg, "cifar10", &g).unwrap();
        assert!(!was_hit, "first probe is a miss");
        let (second, was_hit) = cache.get_or_embed_detailed(&reg, "cifar10", &g).unwrap();
        assert!(was_hit, "second probe is a hit");
        assert_eq!(direct, first);
        assert_eq!(direct, second);
        // The keyed entry point is the same path: a resolved zoo model's
        // stored fingerprint finds the entry the wrappers inserted.
        let zoo = pddl_zoo::resolve("resnet18", &CIFAR10).unwrap();
        let (third, was_hit) =
            cache.get_or_embed_keyed(reg.get("cifar10").unwrap(), "cifar10", zoo.fingerprint, &zoo.graph);
        assert!(was_hit, "keyed probe hits the wrapper's entry");
        assert_eq!(direct, third);
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.computes, s.entries), (1, 2, 1, 1));
        // The global counters must be registered so the controller's
        // `{"op":"stats"}` snapshot carries them.
        let snap = pddl_telemetry::snapshot();
        for name in [
            "embed_cache.hits",
            "embed_cache.misses",
            "embed_cache.evictions",
            "embed_cache.ghn_embeds",
        ] {
            assert!(snap.counter(name).is_some(), "{name} missing from snapshot");
        }
        assert!(snap.counter("embed_cache.hits").unwrap() >= 1);
    }

    #[test]
    fn cache_misses_on_unknown_dataset_are_not_cached() {
        let reg = registry(); // cifar10 only
        let cache = EmbeddingCache::new(64);
        let g = build_model("resnet18", &CIFAR10).unwrap();
        assert!(cache.get_or_embed(&reg, "tiny-imagenet", &g).is_none());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn cache_distinguishes_datasets_for_the_same_graph() {
        let reg = GhnRegistry::tiny(5, &["cifar10", "tiny-imagenet"]);
        let cache = EmbeddingCache::new(64);
        let g = synth_graph(16);
        let a = cache.get_or_embed(&reg, "cifar10", &g).unwrap();
        let b = cache.get_or_embed(&reg, "tiny-imagenet", &g).unwrap();
        assert_ne!(a, b, "per-dataset GHNs must yield distinct cached entries");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_bound_is_respected_under_pressure() {
        let reg = registry();
        let cache = EmbeddingCache::new(4);
        assert_eq!(cache.capacity(), 4);
        for c_out in 1..=12 {
            cache.get_or_embed(&reg, "cifar10", &synth_graph(c_out)).unwrap();
        }
        let s = cache.stats();
        assert!(s.entries <= 4, "entries {} exceed capacity", s.entries);
        assert_eq!(s.misses, 12);
        assert!(s.evictions >= 8, "expected ≥8 evictions, got {}", s.evictions);
    }

    #[test]
    fn concurrent_embedding_deduplicates_ghn_invocations() {
        // N threads embed a mix of shared (repeated) and thread-unique
        // graphs through one cache: every distinct key must run the GHN
        // exactly once, hit counters must account for every other lookup,
        // and the LRU bound must hold throughout.
        const THREADS: usize = 8;
        const ROUNDS: usize = 20;
        let reg = registry();
        let ghn = reg.get("cifar10").unwrap();
        let cache = EmbeddingCache::default();
        let shared: Vec<CompGraph> = (1..=4).map(|c| synth_graph(100 + c)).collect();

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let reg = &reg;
                let shared = &shared;
                scope.spawn(move || {
                    let unique = synth_graph(200 + t);
                    let direct = ghn.embed_graph(&unique);
                    let got = cache.get_or_embed(reg, "cifar10", &unique).unwrap();
                    assert_eq!(direct, got, "cached value must equal direct embedding");
                    for round in 0..ROUNDS {
                        let g = &shared[(t + round) % shared.len()];
                        let v = cache.get_or_embed(reg, "cifar10", g).unwrap();
                        assert_eq!(v, ghn.embed_graph(g));
                    }
                });
            }
        });

        let distinct = (shared.len() + THREADS) as u64;
        let lookups = (THREADS * (ROUNDS + 1)) as u64;
        let s = cache.stats();
        assert_eq!(s.computes, distinct, "a cached key must never re-invoke the GHN");
        assert_eq!(s.misses, distinct);
        assert_eq!(s.hits, lookups - distinct);
        assert_eq!(s.entries, distinct);
        assert_eq!(s.evictions, 0);
        assert!(s.entries <= cache.capacity() as u64);
    }

    #[test]
    fn family_members_closer_than_strangers() {
        // resnet34's nearest neighbor among {resnet18, squeezenet} should be
        // resnet18 — the Fig. 5 similarity story.
        let reg = registry();
        let mut gen = EmbeddingsGenerator::new();
        for name in ["resnet18", "squeezenet1_1"] {
            let g = build_model(name, &CIFAR10).unwrap();
            gen.record("cifar10", name, reg.get("cifar10").unwrap().embed_graph(&g));
        }
        let g34 = build_model("resnet34", &CIFAR10).unwrap();
        let e = reg.get("cifar10").unwrap().embed_graph(&g34);
        let (name, _) = gen.nearest("cifar10", &e).unwrap();
        assert_eq!(name, "resnet18");
    }
}
