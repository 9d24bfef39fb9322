//! Query servers: subquery execution over chunks (paper §IV-B).
//!
//! A query server executes subqueries whose data regions have been flushed.
//! Execution follows the paper exactly:
//!
//! 1. load the chunk's *template* (index block) — from the LRU cache when
//!    possible, otherwise from the DFS (one file access);
//! 2. locate the key-qualifying leaves through the template;
//! 3. skip leaves whose min/max time bounds or temporal bloom filter prove
//!    they hold no qualifying tuple (§IV-B);
//! 4. fetch the remaining leaf pages — cache first, then DFS with
//!    contiguous misses coalesced into one access — and filter tuples.
//!
//! Templates and leaf pages are the two LRU caching-unit kinds; the server's
//! cluster node determines whether DFS reads take the co-located fast path.
//!
//! The read path is parallel inside one server (the paper's millisecond
//! latencies at high client concurrency, §VI-C):
//!
//! * DFS access is bounded by an **I/O permit set** (`query_io_permits`)
//!   instead of one coarse lock, so independent coalesced leaf reads from
//!   concurrent subqueries proceed together;
//! * template and summary loads are **singleflighted** — concurrent
//!   subqueries missing on the same chunk's index block issue one DFS read
//!   and share the parsed result;
//! * within a subquery, leaf fetching is **pipelined**: a reader thread
//!   streams coalesced miss-runs in leaf order while the caller filters
//!   pages already in hand, so a mid-run cache hit no longer stalls the
//!   scan behind the next read.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use waterwheel_agg::WheelSummary;
use waterwheel_cluster::Cluster;
use waterwheel_core::{ChunkId, NodeId, Result, ServerId, SubQuery, SystemConfig, Tuple, WwError};
use waterwheel_index::columnar::{DecodedLeaf, ScanScratch};
use waterwheel_index::Bitmap;
use waterwheel_storage::{
    Block, BlockCache, BlockKey, ChunkReader, SimDfs, Singleflight, VERSION_V1,
};

/// Upper bound on pooled scan scratches; beyond this, finished scratches
/// are dropped rather than retained. Concurrent subqueries rarely exceed
/// the worker count, so the pool stays tiny.
const SCRATCH_POOL_CAP: usize = 32;

/// Per-server execution counters.
#[derive(Debug, Default)]
pub struct QueryServerStats {
    /// Subqueries executed.
    pub subqueries: AtomicU64,
    /// Leaf pages read from the DFS.
    pub leaf_reads: AtomicU64,
    /// Leaf pages served from the cache.
    pub leaf_cache_hits: AtomicU64,
    /// Leaves skipped by temporal pruning (bounds or bloom).
    pub leaves_pruned: AtomicU64,
    /// Leaves skipped because their v2 MIN/MAX measure bounds are disjoint
    /// from the subquery's measure range.
    pub measure_pruned_leaves: AtomicU64,
    /// Templates (index blocks) read from the DFS.
    pub template_reads: AtomicU64,
    /// Templates served from the cache.
    pub template_cache_hits: AtomicU64,
    /// Chunk summaries read from the DFS (footer-only accesses).
    pub summary_reads: AtomicU64,
    /// Chunk summaries served from the cache.
    pub summary_cache_hits: AtomicU64,
    /// Nanoseconds spent waiting for an I/O permit (contention signal:
    /// stays near zero until concurrent subqueries outnumber the permits).
    pub io_wait_ns: AtomicU64,
    /// Total busy nanoseconds (for load-balance diagnostics).
    pub busy_ns: AtomicU64,
    /// Columnar scans served from an already-decoded cached leaf (the
    /// decoded-column cache tier's hits).
    pub column_decode_hits: AtomicU64,
    /// Columnar scans that had to decode the leaf's key/timestamp columns
    /// from their encoded image first.
    pub column_decode_misses: AtomicU64,
    /// Rows surviving the key/time selection vector across all columnar
    /// scans (before any residual predicate).
    pub scan_selected_rows: AtomicU64,
}

impl QueryServerStats {
    /// Template cache hit ratio in `[0, 1]`.
    pub fn template_hit_ratio(&self) -> f64 {
        let h = self.template_cache_hits.load(Ordering::Relaxed) as f64;
        let r = self.template_reads.load(Ordering::Relaxed) as f64;
        if h + r == 0.0 {
            0.0
        } else {
            h / (h + r)
        }
    }

    /// Leaf cache hit ratio in `[0, 1]`.
    pub fn leaf_hit_ratio(&self) -> f64 {
        let h = self.leaf_cache_hits.load(Ordering::Relaxed) as f64;
        let r = self.leaf_reads.load(Ordering::Relaxed) as f64;
        if h + r == 0.0 {
            0.0
        } else {
            h / (h + r)
        }
    }
}

/// A counting semaphore bounding concurrent DFS accesses, with wait-time
/// accounting. `permits = 1` degenerates to the old serial I/O lock.
struct IoPermits {
    max: usize,
    available: Mutex<usize>,
    freed: Condvar,
}

impl IoPermits {
    fn new(max: usize) -> Self {
        let max = max.max(1);
        Self {
            max,
            available: Mutex::new(max),
            freed: Condvar::new(),
        }
    }

    /// Blocks until a permit is free; records the wait in `wait_ns`.
    fn acquire<'a>(&'a self, wait_ns: &AtomicU64) -> IoPermitGuard<'a> {
        let t0 = std::time::Instant::now();
        let mut available = self.available.lock().unwrap_or_else(|e| e.into_inner());
        while *available == 0 {
            available = self
                .freed
                .wait(available)
                .unwrap_or_else(|e| e.into_inner());
        }
        *available -= 1;
        wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        IoPermitGuard { permits: self }
    }
}

struct IoPermitGuard<'a> {
    permits: &'a IoPermits,
}

impl Drop for IoPermitGuard<'_> {
    fn drop(&mut self) {
        let mut available = self
            .permits
            .available
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *available += 1;
        debug_assert!(*available <= self.permits.max);
        self.permits.freed.notify_one();
    }
}

/// A query server bound to a cluster node.
pub struct QueryServer {
    id: ServerId,
    node: NodeId,
    dfs: SimDfs,
    cache: BlockCache,
    stats: QueryServerStats,
    /// Failure injection: when set, every subquery errors.
    failed: AtomicBool,
    /// Bounds concurrent DFS accesses (`query_io_permits`).
    io_permits: IoPermits,
    /// Concurrent template loads of one chunk collapse to one DFS read.
    template_flights: Singleflight<ChunkId, Arc<waterwheel_storage::ChunkIndex>>,
    /// Same for footer-only summary loads.
    summary_flights: Singleflight<ChunkId, Option<Arc<WheelSummary>>>,
    /// Per-worker scratch arenas: each subquery checks one out and reuses
    /// its decode/select buffers across every leaf it touches.
    scratch_pool: Mutex<Vec<ScanScratch>>,
}

impl QueryServer {
    /// Creates a query server on `node` with a `cache_bytes` LRU budget and
    /// the serial defaults (one cache shard, one I/O permit) — the
    /// configuration the deterministic unit tests count DFS accesses under.
    /// Deployments go through [`Self::with_config`].
    pub fn new(id: ServerId, node: NodeId, dfs: SimDfs, cache_bytes: usize) -> Self {
        Self::with_layout(id, node, dfs, cache_bytes, 1, 1)
    }

    /// Creates a query server with the read-path parallelism knobs taken
    /// from `cfg` (`cache_capacity_bytes`, `cache_shards`,
    /// `query_io_permits`).
    pub fn with_config(id: ServerId, node: NodeId, dfs: SimDfs, cfg: &SystemConfig) -> Self {
        Self::with_layout(
            id,
            node,
            dfs,
            cfg.cache_capacity_bytes,
            cfg.cache_shards,
            cfg.query_io_permits,
        )
    }

    /// Fully explicit constructor (benches and ablations).
    pub fn with_layout(
        id: ServerId,
        node: NodeId,
        dfs: SimDfs,
        cache_bytes: usize,
        cache_shards: usize,
        io_permits: usize,
    ) -> Self {
        Self {
            id,
            node,
            dfs,
            cache: BlockCache::with_shards(cache_bytes, cache_shards),
            stats: QueryServerStats::default(),
            failed: AtomicBool::new(false),
            io_permits: IoPermits::new(io_permits),
            template_flights: Singleflight::new(),
            summary_flights: Singleflight::new(),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The cluster node hosting this server.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Execution counters.
    pub fn stats(&self) -> &QueryServerStats {
        &self.stats
    }

    /// Cache handle (diagnostics and the cache-ablation bench).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// Template/summary loads answered by joining another subquery's
    /// in-flight DFS read instead of issuing a duplicate one.
    pub fn singleflight_shared(&self) -> u64 {
        self.template_flights.shared() + self.summary_flights.shared()
    }

    /// Injects (or clears) a failure; failed servers error on every
    /// subquery, which the coordinator handles by re-dispatching (§V).
    pub fn set_failed(&self, failed: bool) {
        self.failed.store(failed, Ordering::SeqCst);
        if failed {
            // A restarted server loses its cache (and the cache's stats:
            // a fresh instance must not report pre-crash hit ratios).
            self.cache.clear();
        }
    }

    /// Whether failure injection is active.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// Whether this server is co-located with one of the chunk's replicas.
    pub fn is_colocated(&self, chunk: ChunkId, cluster: &Cluster) -> bool {
        cluster.is_colocated(self.id, chunk, self.dfs.replication())
    }

    /// Executes a chunk subquery, returning matching tuples.
    pub fn execute(&self, sq: &SubQuery, chunk: ChunkId) -> Result<Vec<Tuple>> {
        self.execute_filtered(sq, chunk, None)
    }

    /// Reads a chunk's sealed aggregate summary — from the LRU cache when
    /// possible, otherwise via a footer-only DFS read (leaf pages are never
    /// touched; concurrent misses on one chunk share a single read). Chunks
    /// written without a summary return `Ok(None)`.
    pub fn read_summary(&self, chunk: ChunkId) -> Result<Option<Arc<WheelSummary>>> {
        if self.is_failed() {
            return Err(WwError::Injected("query server down"));
        }
        if let Some(Block::Summary(summary)) = self.cache.get(&BlockKey::Summary(chunk)) {
            self.stats
                .summary_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Some(summary));
        }
        self.summary_flights.load(chunk, || {
            let summary = {
                let _io = self.io_permits.acquire(&self.stats.io_wait_ns);
                let file = self.dfs.open(chunk, Some(self.node))?;
                ChunkReader::new(file).read_summary()?
            };
            self.stats.summary_reads.fetch_add(1, Ordering::Relaxed);
            Ok(summary.map(|s| {
                let s = Arc::new(s);
                self.cache
                    .put(BlockKey::Summary(chunk), Block::Summary(Arc::clone(&s)));
                s
            }))
        })
    }

    /// Loads a chunk's template: cache, then a singleflighted DFS read.
    fn load_template(&self, chunk: ChunkId) -> Result<Arc<waterwheel_storage::ChunkIndex>> {
        if let Some(Block::Index(idx)) = self.cache.get(&BlockKey::Index(chunk)) {
            self.stats
                .template_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(idx);
        }
        self.template_flights.load(chunk, || {
            let idx = {
                let _io = self.io_permits.acquire(&self.stats.io_wait_ns);
                let file = self.dfs.open(chunk, Some(self.node))?;
                ChunkReader::new(file).load_index()?
            };
            self.stats.template_reads.fetch_add(1, Ordering::Relaxed);
            self.cache
                .put(BlockKey::Index(chunk), Block::Index(Arc::clone(&idx)));
            Ok(idx)
        })
    }

    /// Executes a chunk subquery restricted to the leaves in `leaf_filter`
    /// (from a secondary attribute index, paper §VIII); `None` means all
    /// key-qualifying leaves.
    pub fn execute_filtered(
        &self,
        sq: &SubQuery,
        chunk: ChunkId,
        leaf_filter: Option<&Bitmap>,
    ) -> Result<Vec<Tuple>> {
        let t0 = std::time::Instant::now();
        if self.is_failed() {
            return Err(WwError::Injected("query server down"));
        }
        let result = self.execute_inner(sq, chunk, leaf_filter);
        self.stats.subqueries.fetch_add(1, Ordering::Relaxed);
        self.stats
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Checks a scan scratch out of the pool (or a fresh one under
    /// contention), runs the subquery with it, and returns it for the next
    /// subquery — the per-worker arena of the pipelined scan path.
    fn execute_inner(
        &self,
        sq: &SubQuery,
        chunk: ChunkId,
        leaf_filter: Option<&Bitmap>,
    ) -> Result<Vec<Tuple>> {
        let mut scratch = self
            .scratch_pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        let result = self.execute_scan(sq, chunk, leaf_filter, &mut scratch);
        let mut pool = self.scratch_pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        result
    }

    fn execute_scan(
        &self,
        sq: &SubQuery,
        chunk: ChunkId,
        leaf_filter: Option<&Bitmap>,
        scratch: &mut ScanScratch,
    ) -> Result<Vec<Tuple>> {
        // 1. Template (index block): cache, then singleflighted DFS read.
        let index = self.load_template(chunk)?;
        // 2. Key-qualifying leaf range.
        let (lo, hi) = index.leaf_range(&sq.keys);
        let mut out = Vec::new();
        if lo >= index.leaves.len() {
            return Ok(out);
        }
        let hi = hi.min(index.leaves.len() - 1);
        // Use the secondary-index leaf filter only when it skips a
        // meaningful fraction of the key-qualifying leaves: a dense filter
        // fragments the coalesced page reads (every gap costs one DFS
        // open) while pruning little. Ignoring it is always correct — the
        // predicate still filters tuples.
        let leaf_filter = leaf_filter.filter(|bm| {
            let qualifying = (lo..=hi).filter(|&li| bm.contains(li as u32)).count();
            qualifying * 2 <= hi - lo + 1
        });
        // 3. One classification pass: prune temporally and by measure
        // bounds, probe the cache, and coalesce the remaining misses into
        // contiguous runs.
        enum Slot {
            /// v1 page, decoded to row tuples.
            Rows(Arc<Vec<Tuple>>),
            /// v2 page from the decoded-column cache tier: key/timestamp
            /// columns already decoded, scans skip the varint kernels.
            Decoded(Arc<DecodedLeaf>),
            Miss,
        }
        let mut slots: Vec<(usize, Slot)> = Vec::new();
        let mut miss_runs: Vec<(usize, usize)> = Vec::new(); // inclusive
        for li in lo..=hi {
            if leaf_filter.is_some_and(|bm| !bm.contains(li as u32)) {
                self.stats.leaves_pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if index.leaf_prunable(li, &sq.times) {
                self.stats.leaves_pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // v2 MIN/MAX measure pruning (composes with the temporal
            // pruning above): bounds are conservative, so a disjoint leaf
            // provably holds no qualifying tuple.
            if let (Some((qlo, qhi)), Some((min, max))) =
                (sq.measure_range, index.leaves[li].measure_range)
            {
                if max < qlo || min > qhi {
                    self.stats
                        .measure_pruned_leaves
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            match self.cache.get(&BlockKey::Leaf(chunk, li as u32)) {
                Some(Block::Leaf(page)) => {
                    self.stats.leaf_cache_hits.fetch_add(1, Ordering::Relaxed);
                    slots.push((li, Slot::Rows(page)));
                }
                Some(Block::ColumnDecoded(leaf)) => {
                    self.stats.leaf_cache_hits.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .column_decode_hits
                        .fetch_add(1, Ordering::Relaxed);
                    slots.push((li, Slot::Decoded(leaf)));
                }
                _ => {
                    match miss_runs.last_mut() {
                        // Extend the current run only across *consecutive*
                        // leaves — a pruned or cached leaf in between ends
                        // the coalesced read, exactly like before.
                        Some((_, mhi)) if *mhi + 1 == li => *mhi = li,
                        _ => miss_runs.push((li, li)),
                    }
                    slots.push((li, Slot::Miss));
                }
            }
        }
        // 4. Pipelined fetch + filter. A reader thread streams the miss
        // runs in leaf order through a channel while this thread filters
        // cached pages and arrivals — so filtering overlaps the next
        // coalesced read instead of stalling behind it.
        let filter_into = |page: &[Tuple], out: &mut Vec<Tuple>| {
            let start = page.partition_point(|t| t.key < sq.keys.lo());
            for t in &page[start..] {
                if t.key > sq.keys.hi() {
                    break;
                }
                if sq.matches(t) {
                    out.push(t.clone());
                }
            }
        };
        // v2 column scans materialize late: the key/time selection vector
        // alone picks survivors and the payload block is only decompressed
        // when some survive; the predicate then filters the materialized
        // rows. Survivor counts feed `scan_selected_rows`.
        let collect_hits = |hits: Vec<Tuple>, out: &mut Vec<Tuple>| {
            self.stats
                .scan_selected_rows
                .fetch_add(hits.len() as u64, Ordering::Relaxed);
            match &sq.predicate {
                Some(p) => out.extend(hits.into_iter().filter(|t| p(t))),
                None => out.extend(hits),
            }
        };
        // A decoded cached leaf skips the column decode entirely.
        let scan_decoded =
            |leaf: &DecodedLeaf, out: &mut Vec<Tuple>, scratch: &mut ScanScratch| -> Result<()> {
                collect_hits(leaf.scan(&sq.keys, &sq.times, scratch)?, out);
                Ok(())
            };
        // A freshly read column image pays the decode once, and the
        // decoded form is cached so the next scan of this leaf is a decode
        // hit.
        let scan_cols = |li: usize,
                         image: &[u8],
                         out: &mut Vec<Tuple>,
                         scratch: &mut ScanScratch|
         -> Result<()> {
            self.stats
                .column_decode_misses
                .fetch_add(1, Ordering::Relaxed);
            let count = index.leaves[li].count;
            let decoded = Arc::new(DecodedLeaf::decode(image, count, true, scratch)?);
            collect_hits(decoded.scan(&sq.keys, &sq.times, scratch)?, out);
            self.cache.put(
                BlockKey::Leaf(chunk, li as u32),
                Block::ColumnDecoded(decoded),
            );
            Ok(())
        };
        if miss_runs.is_empty() {
            for (_, slot) in &slots {
                match slot {
                    Slot::Rows(page) => filter_into(page, &mut out),
                    Slot::Decoded(leaf) => scan_decoded(leaf, &mut out, scratch)?,
                    Slot::Miss => unreachable!("no miss runs"),
                }
            }
            return Ok(out);
        }
        enum Page {
            Rows(Arc<Vec<Tuple>>),
            Cols(Arc<Vec<u8>>),
        }
        type PageMsg = Result<(usize, Page)>;
        let columnar_chunk = index.version != VERSION_V1;
        let (tx, rx) = std::sync::mpsc::channel::<PageMsg>();
        std::thread::scope(|scope| -> Result<()> {
            let index = &index;
            let runs = &miss_runs;
            scope.spawn(move || {
                for &(mlo, mhi) in runs {
                    let fetched = {
                        let _io = self.io_permits.acquire(&self.stats.io_wait_ns);
                        self.dfs.open(chunk, Some(self.node)).and_then(|file| {
                            let reader = ChunkReader::new(file);
                            if columnar_chunk {
                                // Ship the encoded column images; the
                                // decoding waits for the filter step.
                                reader.read_leaf_pages(index, mlo, mhi).map(|pages| {
                                    pages
                                        .into_iter()
                                        .map(|p| Page::Cols(Arc::new(p)))
                                        .collect::<Vec<Page>>()
                                })
                            } else {
                                reader.read_leaves(index, mlo, mhi).map(|pages| {
                                    pages
                                        .into_iter()
                                        .map(|p| Page::Rows(Arc::new(p)))
                                        .collect::<Vec<Page>>()
                                })
                            }
                        })
                    };
                    match fetched {
                        Ok(pages) => {
                            self.stats
                                .leaf_reads
                                .fetch_add((mhi - mlo + 1) as u64, Ordering::Relaxed);
                            for (offset, page) in pages.into_iter().enumerate() {
                                let li = mlo + offset;
                                // Column pages are cached by the consumer,
                                // in their decoded form.
                                if let Page::Rows(p) = &page {
                                    self.cache.put(
                                        BlockKey::Leaf(chunk, li as u32),
                                        Block::Leaf(Arc::clone(p)),
                                    );
                                }
                                if tx.send(Ok((li, page))).is_err() {
                                    return; // consumer bailed on an error
                                }
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            return;
                        }
                    }
                }
            });
            for (li, slot) in &slots {
                match slot {
                    Slot::Rows(page) => filter_into(page, &mut out),
                    Slot::Decoded(leaf) => scan_decoded(leaf, &mut out, scratch)?,
                    Slot::Miss => {
                        let (got_li, page) = rx
                            .recv()
                            .map_err(|_| WwError::Shutdown("leaf reader thread"))??;
                        debug_assert_eq!(got_li, *li, "pages must arrive in leaf order");
                        match page {
                            Page::Rows(p) => filter_into(&p, &mut out),
                            Page::Cols(image) => scan_cols(got_li, &image, &mut out, scratch)?,
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwheel_cluster::LatencyModel;
    use waterwheel_core::{KeyInterval, QueryId, SubQueryId, SubQueryTarget, TimeInterval};
    use waterwheel_index::{IndexConfig, SealedTree, TemplateBTree, TupleIndex};
    use waterwheel_storage::{write_chunk, write_chunk_opts, ChunkWriteOptions, VERSION_V2};

    /// 600 tuples with keys `i * 5 + key_offset`, sealed into many leaves.
    fn sealed_tree(key_offset: u64) -> SealedTree {
        let cfg = IndexConfig {
            leaf_capacity: 16,
            fanout: 4,
            skew_check_interval: 64,
            ..IndexConfig::default()
        };
        let tree = TemplateBTree::new(KeyInterval::full(), cfg);
        for i in 0..600u64 {
            tree.insert(Tuple::new(i * 5 + key_offset, 1_000 + i, vec![0u8; 6]));
        }
        tree.seal().unwrap()
    }

    /// A DFS holding one v1 chunk, `ChunkId(0)`, and its tuples.
    fn setup(name: &str) -> (SimDfs, ChunkId, Vec<Tuple>) {
        let root = std::env::temp_dir().join(format!("ww-qs-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dfs = SimDfs::new(root, Cluster::new(4), 3, LatencyModel::default()).unwrap();
        let sealed = sealed_tree(0);
        let tuples = sealed.clone().into_tuples();
        let chunk = ChunkId(0);
        dfs.write_chunk(chunk, &write_chunk(&sealed)).unwrap();
        (dfs, chunk, tuples)
    }

    fn subquery(keys: KeyInterval, times: TimeInterval, chunk: ChunkId) -> SubQuery {
        SubQuery {
            id: SubQueryId {
                query: QueryId(0),
                index: 0,
            },
            keys,
            times,
            predicate: None,
            measure_range: None,
            target: SubQueryTarget::Chunk(chunk),
        }
    }

    #[test]
    fn executes_subquery_correctly() {
        let (dfs, chunk, tuples) = setup("exec");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let keys = KeyInterval::new(500, 1_500);
        let times = TimeInterval::new(1_100, 1_250);
        let sq = subquery(keys, times, chunk);
        let mut got = qs.execute(&sq, chunk).unwrap();
        got.sort_by_key(|t| (t.key, t.ts));
        let want: Vec<Tuple> = tuples
            .iter()
            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
            .cloned()
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn mixed_v1_and_v2_store_answers_the_exact_union() {
        // Stores written before v2 became the only chunk format keep their
        // v1 chunks beside new v2 ones; reads dispatch per chunk header.
        let (dfs, v1, mut want) = setup("mixed");
        let v2 = ChunkId(1);
        let sealed = sealed_tree(2);
        want.extend(sealed.clone().into_tuples());
        let bytes = write_chunk_opts(
            &sealed,
            None,
            &ChunkWriteOptions {
                format_version: VERSION_V2,
                compression: true,
                measure: None,
            },
        );
        dfs.write_chunk(v2, &bytes).unwrap();
        want.sort_by_key(|t| (t.key, t.ts));
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs.clone(), 8 << 20);
        let union = || {
            let mut got = Vec::new();
            for chunk in [v1, v2] {
                let sq = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
                got.extend(qs.execute(&sq, chunk).unwrap());
            }
            got.sort_by_key(|t| (t.key, t.ts));
            got
        };
        assert_eq!(union(), want, "cold read");
        let opens = dfs.stats().opens.load(Ordering::Relaxed);
        let leaf_reads = qs.stats().leaf_reads.load(Ordering::Relaxed);
        assert_eq!(union(), want, "cached read");
        // The repeat is served wholly from cache: v1 leaves as row pages,
        // v2 leaves as decoded columns.
        assert_eq!(dfs.stats().opens.load(Ordering::Relaxed), opens);
        assert_eq!(qs.stats().leaf_reads.load(Ordering::Relaxed), leaf_reads);
        let decode_hits = qs.stats().column_decode_hits.load(Ordering::Relaxed);
        let leaf_hits = qs.stats().leaf_cache_hits.load(Ordering::Relaxed);
        assert!(decode_hits > 0, "v2 leaves were not cached decoded");
        assert!(leaf_hits > decode_hits, "v1 leaves were not cached as rows");
    }

    #[test]
    fn parallel_layout_matches_serial_results() {
        let (dfs, chunk, tuples) = setup("parallel-exact");
        let qs = QueryServer::with_layout(ServerId(0), NodeId(0), dfs, 1 << 20, 8, 4);
        let keys = KeyInterval::new(500, 1_500);
        let times = TimeInterval::new(1_100, 1_250);
        let sq = subquery(keys, times, chunk);
        let mut got = qs.execute(&sq, chunk).unwrap();
        got.sort_by_key(|t| (t.key, t.ts));
        let want: Vec<Tuple> = tuples
            .iter()
            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
            .cloned()
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cache_serves_repeat_subqueries() {
        let (dfs, chunk, _) = setup("cache");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs.clone(), 8 << 20);
        let sq = subquery(KeyInterval::new(0, 2_000), TimeInterval::full(), chunk);
        qs.execute(&sq, chunk).unwrap();
        let opens_after_first = dfs.stats().opens.load(Ordering::Relaxed);
        let leaf_reads_first = qs.stats().leaf_reads.load(Ordering::Relaxed);
        assert!(leaf_reads_first > 0);
        assert_eq!(qs.stats().template_reads.load(Ordering::Relaxed), 1);
        qs.execute(&sq, chunk).unwrap();
        // Second run: no new DFS accesses, all from cache.
        assert_eq!(dfs.stats().opens.load(Ordering::Relaxed), opens_after_first);
        assert!(qs.stats().leaf_cache_hits.load(Ordering::Relaxed) >= leaf_reads_first);
        assert_eq!(qs.stats().template_cache_hits.load(Ordering::Relaxed), 1);
        assert!(qs.stats().template_hit_ratio() > 0.0);
    }

    #[test]
    fn concurrent_template_misses_singleflight_to_one_read() {
        let (dfs, chunk, _) = setup("singleflight");
        let dfs_latency = SimDfs::new(
            dfs.root().to_path_buf(),
            Cluster::new(4),
            3,
            LatencyModel {
                open: std::time::Duration::from_millis(20),
                bandwidth: None,
                local_factor: 1.0,
            },
        )
        .unwrap();
        let qs = Arc::new(QueryServer::with_layout(
            ServerId(0),
            NodeId(0),
            dfs_latency,
            8 << 20,
            8,
            8,
        ));
        let sq = subquery(KeyInterval::new(0, 50), TimeInterval::full(), chunk);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let qs = Arc::clone(&qs);
                let sq = sq.clone();
                scope.spawn(move || {
                    qs.execute(&sq, chunk).unwrap();
                });
            }
        });
        // All six subqueries needed the template, but the 20 ms open gave
        // them time to pile onto one flight: far fewer than 6 reads.
        let reads = qs.stats().template_reads.load(Ordering::Relaxed);
        let hits = qs.stats().template_cache_hits.load(Ordering::Relaxed);
        assert!(reads >= 1);
        assert_eq!(reads + hits + qs.template_flights.shared(), 6);
        assert!(
            qs.singleflight_shared() > 0 || hits > 0,
            "no de-duplication happened at all"
        );
    }

    #[test]
    fn temporal_pruning_skips_leaves() {
        let (dfs, chunk, _) = setup("prune");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        // All data has ts ≥ 1000; query far in the past.
        let sq = subquery(KeyInterval::full(), TimeInterval::new(0, 10), chunk);
        let got = qs.execute(&sq, chunk).unwrap();
        assert!(got.is_empty());
        assert!(qs.stats().leaves_pruned.load(Ordering::Relaxed) > 0);
        assert_eq!(qs.stats().leaf_reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn key_range_reads_only_needed_leaves() {
        let (dfs, chunk, _) = setup("selective");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let narrow = subquery(KeyInterval::new(0, 100), TimeInterval::full(), chunk);
        qs.execute(&narrow, chunk).unwrap();
        let narrow_reads = qs.stats().leaf_reads.load(Ordering::Relaxed);
        let wide = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
        qs.execute(&wide, chunk).unwrap();
        let wide_reads = qs.stats().leaf_reads.load(Ordering::Relaxed) - narrow_reads;
        assert!(
            wide_reads > narrow_reads * 2,
            "narrow {narrow_reads} vs wide {wide_reads}"
        );
    }

    #[test]
    fn mid_run_cache_hit_still_coalesces_neighbours() {
        // Warm exactly one leaf in the middle of the qualifying range, then
        // scan everything: the runs on either side of the warm leaf must be
        // read, the warm leaf must come from cache, and the result must be
        // exact.
        let (dfs, chunk, tuples) = setup("midhit");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 8 << 20);
        let narrow = subquery(KeyInterval::new(1_400, 1_500), TimeInterval::full(), chunk);
        qs.execute(&narrow, chunk).unwrap();
        let warmed_hits = qs.stats().leaf_cache_hits.load(Ordering::Relaxed);
        let wide = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
        let mut got = qs.execute(&wide, chunk).unwrap();
        got.sort_by_key(|t| (t.key, t.ts, t.payload.clone()));
        let mut want = tuples.clone();
        want.sort_by_key(|t| (t.key, t.ts, t.payload.clone()));
        assert_eq!(got, want);
        assert!(
            qs.stats().leaf_cache_hits.load(Ordering::Relaxed) > warmed_hits,
            "warm leaf was re-read instead of served from cache"
        );
    }

    #[test]
    fn failure_injection_errors_and_clears_cache() {
        let (dfs, chunk, _) = setup("fail");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let sq = subquery(KeyInterval::full(), TimeInterval::full(), chunk);
        qs.execute(&sq, chunk).unwrap();
        assert!(!qs.cache().is_empty());
        let pre_crash_hits = qs.cache().stats().hits.load(Ordering::Relaxed)
            + qs.cache().stats().misses.load(Ordering::Relaxed);
        assert!(pre_crash_hits > 0);
        qs.set_failed(true);
        assert!(qs.execute(&sq, chunk).is_err());
        assert!(qs.cache().is_empty());
        // Restart simulation must not carry pre-crash cache counters.
        assert_eq!(qs.cache().stats().hits.load(Ordering::Relaxed), 0);
        assert_eq!(qs.cache().stats().misses.load(Ordering::Relaxed), 0);
        qs.set_failed(false);
        assert!(qs.execute(&sq, chunk).is_ok());
    }

    #[test]
    fn missing_chunk_is_an_error_not_a_panic() {
        let (dfs, _, _) = setup("missing");
        let qs = QueryServer::new(ServerId(0), NodeId(0), dfs, 1 << 20);
        let sq = subquery(KeyInterval::full(), TimeInterval::full(), ChunkId(99));
        assert!(qs.execute(&sq, ChunkId(99)).is_err());
    }

    #[test]
    fn concurrent_subqueries_on_parallel_layout_are_exact() {
        let (dfs, chunk, tuples) = setup("concurrent");
        let qs = Arc::new(QueryServer::with_layout(
            ServerId(0),
            NodeId(0),
            dfs,
            1 << 20,
            8,
            4,
        ));
        let cases: Vec<(KeyInterval, TimeInterval)> = vec![
            (KeyInterval::new(0, 500), TimeInterval::full()),
            (
                KeyInterval::new(400, 1_200),
                TimeInterval::new(1_050, 1_400),
            ),
            (KeyInterval::full(), TimeInterval::new(1_200, 1_300)),
            (KeyInterval::new(2_000, 2_999), TimeInterval::full()),
        ];
        std::thread::scope(|scope| {
            for (keys, times) in cases {
                let qs = Arc::clone(&qs);
                let tuples = &tuples;
                scope.spawn(move || {
                    for _ in 0..8 {
                        let sq = subquery(keys, times, chunk);
                        let mut got = qs.execute(&sq, chunk).unwrap();
                        got.sort_by_key(|t| (t.key, t.ts));
                        let want: Vec<Tuple> = tuples
                            .iter()
                            .filter(|t| keys.contains(t.key) && times.contains(t.ts))
                            .cloned()
                            .collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }
}
