//! Consistent-hash ring with virtual nodes.
//!
//! Each shard owns `vnodes` points on a 64-bit ring; a key is served by
//! the shard owning the first point clockwise from the key's hash. The
//! properties the serving plane leans on:
//!
//! * **Bounded movement** — adding a shard to an `N`-shard ring steals
//!   keys only from the arcs the new shard's points land in: in
//!   expectation `K/(N+1)` of `K` keys move, and *only* to the new
//!   shard. Removing a shard moves only the keys it owned. Everything
//!   else stays put — no global reshuffle, so each shard's embedding
//!   cache stays warm through resizes.
//! * **Determinism** — point positions depend only on `(shard id,
//!   vnode index)`, so two routers configured with the same membership
//!   agree on every key without coordination.
//! * **Total lookup** — any non-empty ring answers every key (the ring
//!   wraps).
//!
//! The variance of per-shard load shrinks as `1/√vnodes`; the default
//! of 64 keeps the heaviest shard within a few tens of percent of the
//! mean, which is enough for a prediction fleet whose per-key cost is
//! roughly uniform.

use pddl_telemetry::hash::mix64;

/// Default virtual nodes per shard.
pub const DEFAULT_VNODES: u32 = 64;

/// Position of one `(shard, vnode)` pair on the ring.
fn point(shard: u64, vnode: u32) -> u64 {
    mix64(mix64(shard) ^ (vnode as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// A consistent-hash ring mapping 64-bit keys onto shard ids.
#[derive(Clone, Debug)]
pub struct HashRing {
    vnodes: u32,
    /// Ring points, sorted by `(position, shard)` — the shard tie-break
    /// makes the ring deterministic even under (astronomically unlikely)
    /// position collisions.
    points: Vec<(u64, u64)>,
    /// Member shard ids, sorted.
    shards: Vec<u64>,
}

impl HashRing {
    /// An empty ring with `vnodes` virtual nodes per shard (clamped ≥ 1).
    pub fn new(vnodes: u32) -> Self {
        Self { vnodes: vnodes.max(1), points: Vec::new(), shards: Vec::new() }
    }

    /// A ring populated with `shards` (duplicates ignored).
    pub fn with_shards(vnodes: u32, shards: &[u64]) -> Self {
        let mut ring = Self::new(vnodes);
        for &s in shards {
            ring.add_shard(s);
        }
        ring
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// Member shard ids, sorted.
    pub fn shards(&self) -> &[u64] {
        &self.shards
    }

    /// Number of member shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard is a member.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// True when `shard` is a member.
    pub fn contains(&self, shard: u64) -> bool {
        self.shards.binary_search(&shard).is_ok()
    }

    /// Adds `shard`; a no-op if it is already a member.
    pub fn add_shard(&mut self, shard: u64) {
        let Err(pos) = self.shards.binary_search(&shard) else {
            return;
        };
        self.shards.insert(pos, shard);
        for v in 0..self.vnodes {
            let p = (point(shard, v), shard);
            let at = self.points.partition_point(|q| *q < p);
            self.points.insert(at, p);
        }
    }

    /// Removes `shard`; a no-op if it is not a member.
    pub fn remove_shard(&mut self, shard: u64) {
        let Ok(pos) = self.shards.binary_search(&shard) else {
            return;
        };
        self.shards.remove(pos);
        self.points.retain(|&(_, s)| s != shard);
    }

    /// The shard owning `key`: the first ring point at or clockwise of
    /// the key's position (wrapping). `None` only on an empty ring —
    /// lookups are total otherwise.
    pub fn lookup(&self, key: u64) -> Option<u64> {
        if self.points.is_empty() {
            return None;
        }
        let pos = mix64(key);
        let at = self.points.partition_point(|&(p, _)| p < pos);
        let (_, shard) = self.points[at % self.points.len()];
        Some(shard)
    }

    /// How many of `keys` map to a different shard on `other` — the
    /// "keys moved" cost of a membership change, as a count.
    pub fn moved_keys(&self, other: &HashRing, keys: impl Iterator<Item = u64>) -> usize {
        keys.filter(|&k| self.lookup(k) != other.lookup(k)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_are_total_and_deterministic() {
        let ring = HashRing::with_shards(64, &[0, 1, 2]);
        let again = HashRing::with_shards(64, &[2, 0, 1]); // insertion order irrelevant
        for k in 0..10_000u64 {
            let s = ring.lookup(k).expect("non-empty ring answers every key");
            assert!(s < 3);
            assert_eq!(again.lookup(k), Some(s));
        }
        assert_eq!(HashRing::new(64).lookup(7), None);
    }

    #[test]
    fn add_shard_moves_keys_only_to_the_new_shard() {
        let before = HashRing::with_shards(64, &[0, 1, 2]);
        let mut after = before.clone();
        after.add_shard(3);
        let mut moved = 0usize;
        for k in 0..10_000u64 {
            let a = before.lookup(k).unwrap();
            let b = after.lookup(k).unwrap();
            if a != b {
                assert_eq!(b, 3, "key {k} moved to an old shard: {a} -> {b}");
                moved += 1;
            }
        }
        // E[moved] = K/4 = 2500; vnodes=64 keeps the variance modest.
        assert!(moved > 0, "a new shard must own some keys");
        assert!(moved < 5_000, "moved {moved} of 10k keys on a 3->4 resize");
    }

    #[test]
    fn remove_shard_moves_only_its_own_keys() {
        let before = HashRing::with_shards(64, &[0, 1, 2, 3]);
        let mut after = before.clone();
        after.remove_shard(1);
        for k in 0..10_000u64 {
            let a = before.lookup(k).unwrap();
            let b = after.lookup(k).unwrap();
            if a != 1 {
                assert_eq!(a, b, "key {k} moved although its shard survived");
            } else {
                assert_ne!(b, 1, "key {k} still maps to the removed shard");
            }
        }
    }

    #[test]
    fn add_then_remove_round_trips() {
        let base = HashRing::with_shards(32, &[10, 20]);
        let mut ring = base.clone();
        ring.add_shard(30);
        ring.remove_shard(30);
        for k in 0..1_000u64 {
            assert_eq!(ring.lookup(k), base.lookup(k));
        }
        assert_eq!(ring.shards(), &[10, 20]);
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = HashRing::with_shards(64, &[0, 1, 2, 3]);
        let mut counts = [0usize; 4];
        for k in 0..40_000u64 {
            counts[ring.lookup(k).unwrap() as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // Mean 10_000; 64 vnodes keeps every shard within ±50%.
            assert!((5_000..=15_000).contains(&c), "shard {s} owns {c} of 40k keys");
        }
    }

    #[test]
    fn duplicate_add_and_missing_remove_are_noops() {
        let mut ring = HashRing::with_shards(16, &[1, 2]);
        let before = ring.clone();
        ring.add_shard(1);
        ring.remove_shard(9);
        assert_eq!(ring.shards(), before.shards());
        for k in 0..500u64 {
            assert_eq!(ring.lookup(k), before.lookup(k));
        }
    }
}
