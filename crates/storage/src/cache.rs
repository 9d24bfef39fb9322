//! The query servers' sharded LRU block cache (paper §IV-B).
//!
//! "We regard a template or a leaf node as the basic caching unit and employ
//! LRU policy to evict the old caching units." The two unit kinds map to
//! [`Block::Index`] (a chunk's parsed index block — the persisted template)
//! and [`Block::Leaf`] (one decoded leaf page). Eviction is by byte budget,
//! matching the paper's per-server cache capacity (1 GB in §VI).
//!
//! The cache is sharded N ways by key hash: each shard owns an independent
//! LRU list under its own mutex and `capacity / N` of the byte budget, so
//! concurrent subqueries touching different blocks never contend on a
//! shared lock. LRU recency is therefore *per shard* — an eviction victim
//! is the least-recently-used block of the shard under pressure, not
//! necessarily of the whole cache — which is the standard trade
//! (cf. RocksDB's `LRUCache` shards) and costs nothing in correctness.

use crate::chunk::ChunkIndex;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use waterwheel_agg::WheelSummary;
use waterwheel_core::{ChunkId, Tuple};
use waterwheel_index::columnar::DecodedLeaf;

/// Cache key: which unit of which chunk.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockKey {
    /// The chunk's index block (template + directory + blooms).
    Index(ChunkId),
    /// One decoded leaf page.
    Leaf(ChunkId, u32),
    /// The chunk's sealed aggregate summary (footer).
    Summary(ChunkId),
}

/// Cached value.
#[derive(Clone, Debug)]
pub enum Block {
    /// A parsed chunk index.
    Index(Arc<ChunkIndex>),
    /// A decoded leaf page.
    Leaf(Arc<Vec<Tuple>>),
    /// A v2 leaf with its key/timestamp columns held decoded (the payload
    /// tail stays compressed): the hot tier — repeated scans skip the
    /// varint decode entirely. Charged at actual resident bytes, which can
    /// be several times the encoded image.
    ColumnDecoded(Arc<DecodedLeaf>),
    /// A decoded aggregate summary.
    Summary(Arc<WheelSummary>),
}

impl Block {
    fn byte_size(&self) -> usize {
        match self {
            Block::Index(idx) => idx.approx_size(),
            Block::Leaf(tuples) => tuples
                .iter()
                .map(|t| t.encoded_len() + std::mem::size_of::<Tuple>())
                .sum(),
            // Decoded columns report their own residency: column vectors at
            // allocated width plus the encoded payload tail.
            Block::ColumnDecoded(leaf) => leaf.resident_bytes(),
            // Per cell: (bucket u64, slice u16) key + 40-byte PartialAgg,
            // plus BTreeMap node overhead.
            Block::Summary(summary) => summary.cell_count() * 64 + 64,
        }
    }
}

/// Hit/miss counters, aggregated across all shards.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: AtomicU64,
    /// Lookups that missed.
    pub misses: AtomicU64,
    /// Blocks evicted under byte pressure.
    pub evictions: AtomicU64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Zeroes every counter (server restart simulation: a fresh cache must
    /// not report its predecessor's hit ratio).
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct Shard {
    /// key → (block, size, LRU stamp)
    map: HashMap<BlockKey, (Block, usize, u64)>,
    /// LRU order: stamp → key.
    order: BTreeMap<u64, BlockKey>,
    next_stamp: u64,
    used: usize,
}

/// A byte-budgeted, sharded LRU cache of chunk blocks.
pub struct BlockCache {
    /// Per-shard byte budget (`capacity / shards`).
    shard_capacity: usize,
    shards: Vec<Mutex<Shard>>,
    stats: CacheStats,
}

impl BlockCache {
    /// Creates a single-shard cache with a `capacity`-byte budget —
    /// byte-for-byte the classic global-LRU behavior.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// Creates a cache with a `capacity`-byte budget split evenly across
    /// `shards` independent LRU shards (each at least 1 byte).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shard_capacity: (capacity / shards).max(1),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            stats: CacheStats::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total byte budget across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    fn shard_of(&self, key: &BlockKey) -> &Mutex<Shard> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() % self.shards.len() as u64) as usize]
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Bytes currently cached, summed over shards.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    /// Number of cached blocks, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a block, refreshing its LRU position on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Block> {
        let mut shard = self.shard_of(key).lock();
        let next = shard.next_stamp;
        shard.next_stamp += 1;
        match shard.map.get_mut(key) {
            Some((block, _, stamp)) => {
                let old = *stamp;
                *stamp = next;
                let block = block.clone();
                shard.order.remove(&old);
                shard.order.insert(next, *key);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(block)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a block, evicting least-recently-used blocks of its shard
    /// past the shard's byte budget. A block larger than one shard's whole
    /// budget is not cached at all.
    pub fn put(&self, key: BlockKey, block: Block) {
        let size = block.byte_size().max(1);
        if size > self.shard_capacity {
            return;
        }
        let mut shard = self.shard_of(&key).lock();
        if let Some((_, old_size, old_stamp)) = shard.map.remove(&key) {
            shard.order.remove(&old_stamp);
            shard.used -= old_size;
        }
        while shard.used + size > self.shard_capacity {
            let (&stamp, &victim) = shard.order.iter().next().expect("over budget but empty");
            shard.order.remove(&stamp);
            let (_, victim_size, _) = shard.map.remove(&victim).expect("order/map desync");
            shard.used -= victim_size;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let stamp = shard.next_stamp;
        shard.next_stamp += 1;
        shard.order.insert(stamp, key);
        shard.map.insert(key, (block, size, stamp));
        shard.used += size;
    }

    /// Drops every cached block and resets the hit/miss/eviction counters
    /// (tests, server restart simulation — a restarted server's stats must
    /// describe the fresh cache, not its predecessor's).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.order.clear();
            shard.used = 0;
        }
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_block(n: usize) -> Block {
        Block::Leaf(Arc::new((0..n as u64).map(|i| Tuple::bare(i, i)).collect()))
    }

    #[test]
    fn get_put_and_hit_accounting() {
        let cache = BlockCache::new(1 << 20);
        let key = BlockKey::Leaf(ChunkId(1), 0);
        assert!(cache.get(&key).is_none());
        cache.put(key, leaf_block(10));
        assert!(cache.get(&key).is_some());
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
        assert!((cache.stats().hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        // Each 10-tuple leaf block ≈ 10 * (20 + sizeof(Tuple)) bytes; pick a
        // budget that fits exactly two.
        let one = leaf_block(10).byte_size();
        let cache = BlockCache::new(one * 2 + 1);
        for i in 0..3u64 {
            cache.put(BlockKey::Leaf(ChunkId(i), 0), leaf_block(10));
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&BlockKey::Leaf(ChunkId(0), 0)).is_none());
        assert!(cache.get(&BlockKey::Leaf(ChunkId(2), 0)).is_some());
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn get_refreshes_lru_position() {
        let one = leaf_block(10).byte_size();
        let cache = BlockCache::new(one * 2 + 1);
        cache.put(BlockKey::Leaf(ChunkId(0), 0), leaf_block(10));
        cache.put(BlockKey::Leaf(ChunkId(1), 0), leaf_block(10));
        // Touch chunk 0 so chunk 1 becomes the LRU victim.
        cache.get(&BlockKey::Leaf(ChunkId(0), 0));
        cache.put(BlockKey::Leaf(ChunkId(2), 0), leaf_block(10));
        assert!(cache.get(&BlockKey::Leaf(ChunkId(0), 0)).is_some());
        assert!(cache.get(&BlockKey::Leaf(ChunkId(1), 0)).is_none());
    }

    #[test]
    fn decoded_columns_charge_resident_bytes_and_respect_budget() {
        use waterwheel_index::columnar::{encode_leaf, DecodedLeaf, ScanScratch};
        // Highly compressible leaves: the encoded image is much smaller
        // than the decoded columns, so charging encoded length would let
        // the cache hold far more bytes than its budget.
        let entries: Vec<Tuple> = (0..512u64)
            .map(|i| Tuple::new(1 + i / 64, 1_000 + i, vec![7u8; 32]))
            .collect();
        let image = encode_leaf(&entries, true);
        let mut scratch = ScanScratch::new();
        let decoded = Arc::new(
            DecodedLeaf::decode(&image, entries.len() as u32, true, &mut scratch).unwrap(),
        );
        let resident = decoded.resident_bytes();
        assert!(
            resident > image.len() * 2,
            "decoded residency {resident} should dwarf the {}-byte image",
            image.len()
        );
        assert_eq!(
            Block::ColumnDecoded(Arc::clone(&decoded)).byte_size(),
            resident
        );

        // A budget that fits exactly two decoded leaves must hold after
        // decode-and-cache of many more — honest charging forces eviction.
        let cache = BlockCache::new(resident * 2 + 1);
        for i in 0..8u64 {
            let decoded = Arc::new(
                DecodedLeaf::decode(&image, entries.len() as u32, true, &mut scratch).unwrap(),
            );
            cache.put(BlockKey::Leaf(ChunkId(i), 0), Block::ColumnDecoded(decoded));
        }
        assert!(
            cache.used_bytes() <= cache.capacity(),
            "decode-and-cache blew the byte budget: {} > {}",
            cache.used_bytes(),
            cache.capacity()
        );
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().evictions.load(Ordering::Relaxed) >= 6);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let cache = BlockCache::new(64);
        cache.put(BlockKey::Leaf(ChunkId(0), 0), leaf_block(100));
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_replaces_and_accounts_bytes() {
        let cache = BlockCache::new(1 << 20);
        let key = BlockKey::Leaf(ChunkId(1), 0);
        cache.put(key, leaf_block(10));
        let used_small = cache.used_bytes();
        cache.put(key, leaf_block(100));
        assert_eq!(cache.len(), 1);
        assert!(cache.used_bytes() > used_small);
    }

    #[test]
    fn clear_empties_everything_and_resets_stats() {
        let cache = BlockCache::with_shards(1 << 20, 4);
        let key = BlockKey::Leaf(ChunkId(1), 0);
        cache.put(key, leaf_block(10));
        cache.get(&key);
        cache.get(&BlockKey::Leaf(ChunkId(9), 0));
        assert!(cache.stats().hits.load(Ordering::Relaxed) > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
        // Restart simulation: the fresh cache must not report pre-crash
        // hit ratios.
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 0);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 0);
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 0);
        assert_eq!(cache.stats().hit_ratio(), 0.0);
    }

    #[test]
    fn sharded_cache_spreads_keys_and_caps_every_shard() {
        let one = leaf_block(10).byte_size();
        let shards = 4;
        let cache = BlockCache::with_shards(one * 2 * shards, shards);
        assert_eq!(cache.shard_count(), shards);
        for i in 0..64u64 {
            cache.put(BlockKey::Leaf(ChunkId(i), 0), leaf_block(10));
        }
        // Budget holds globally because it holds per shard.
        assert!(cache.used_bytes() <= cache.capacity());
        // More than one shard ended up occupied.
        let occupied = cache
            .shards
            .iter()
            .filter(|s| !s.lock().map.is_empty())
            .count();
        assert!(occupied > 1, "all keys hashed to one shard");
    }

    #[test]
    fn concurrent_put_get_never_exceeds_budget_or_loses_blocks() {
        // Property test (no proptest in `storage`): hammer a small sharded
        // cache from several threads, then verify the two invariants the
        // read path depends on — the byte budget holds per shard, and a
        // block that was just `put` without byte pressure is retrievable.
        let one = leaf_block(10).byte_size();
        let shards = 8;
        let cache = Arc::new(BlockCache::with_shards(one * 4 * shards, shards));
        std::thread::scope(|scope| {
            for w in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for round in 0..500u64 {
                        let key = BlockKey::Leaf(ChunkId((w * 500 + round) % 97), round as u32 % 3);
                        cache.put(key, leaf_block(10));
                        cache.get(&key);
                        cache.get(&BlockKey::Leaf(ChunkId(round % 97), 0));
                    }
                });
            }
        });
        for shard in cache.shards.iter() {
            let shard = shard.lock();
            assert!(shard.used <= cache.shard_capacity, "shard over budget");
            // No lost blocks: map and order stay in lockstep, and the
            // accounted bytes equal the sum of resident block sizes.
            assert_eq!(shard.map.len(), shard.order.len(), "order/map desync");
            let resident: usize = shard.map.values().map(|(_, size, _)| *size).sum();
            assert_eq!(shard.used, resident, "byte accounting drifted");
            for (stamp, key) in shard.order.iter() {
                assert_eq!(shard.map.get(key).map(|(_, _, s)| *s), Some(*stamp));
            }
        }
        // A fresh put with plenty of headroom in every shard must stick.
        cache.clear();
        let key = BlockKey::Leaf(ChunkId(1_000), 0);
        cache.put(key, leaf_block(10));
        assert!(cache.get(&key).is_some(), "unpressured block was lost");
    }

    #[test]
    fn single_shard_cache_matches_classic_capacity() {
        let cache = BlockCache::new(1 << 20);
        assert_eq!(cache.shard_count(), 1);
        assert_eq!(cache.capacity(), 1 << 20);
    }
}
