//! HBase-like baseline: an LSM store with WAL, memtable and size-tiered
//! compaction (paper §VI-D, Table I).
//!
//! What the paper measures against HBase and what this reimplementation
//! preserves:
//!
//! * tuples are kept as a **key-sorted map**, so key-range scans are cheap;
//! * there is **no temporal index**: a query reads every tuple matching the
//!   key range and tests it against the temporal constraint, so latency
//!   grows with key selectivity (Figures 14/16: "as the selectivity of key
//!   domain increases, the performance gap … widens");
//! * every write is journalled (WAL) and periodically **merged with
//!   historical data** by compaction, which caps insert throughput
//!   (Figure 15: "updates still need to be merged with historical data,
//!   resulting in significant data merging overhead").

use crate::StreamStore;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use waterwheel_cluster::LatencyModel;
use waterwheel_core::{Key, KeyInterval, TimeInterval, Timestamp, Tuple};
use waterwheel_wal::Log;

/// LSM tuning knobs.
#[derive(Clone, Debug)]
pub struct LsmConfig {
    /// Memtable flush threshold in tuples.
    pub memtable_limit: usize,
    /// Size-tiered trigger: merge when this many runs share a size tier.
    pub tier_fanout: usize,
    /// Directory holding the write-ahead log's segments.
    pub wal_dir: PathBuf,
    /// Per-group-commit remote durability cost (HDFS hflush pipeline /
    /// journal hand-off); zero by default.
    pub wal_commit_latency: std::time::Duration,
    /// Storage-access model for query-time run reads. HBase regions read
    /// HFiles from HDFS; charging each consulted sorted run one access (plus
    /// bandwidth over the scanned bytes) puts the baseline on the same
    /// simulated substrate as Waterwheel's chunks. Default: free.
    pub scan_latency: LatencyModel,
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self {
            memtable_limit: 8_192,
            tier_fanout: 4,
            wal_dir: std::env::temp_dir().join(format!(
                "ww-lsm-{}-{}-wal",
                std::process::id(),
                // Distinguish multiple stores in one process.
                NEXT_WAL.fetch_add(1, Ordering::Relaxed)
            )),
            scan_latency: LatencyModel::default(),
            wal_commit_latency: std::time::Duration::ZERO,
        }
    }
}

static NEXT_WAL: AtomicUsize = AtomicUsize::new(0);

/// A sorted immutable run: tuples ordered by `(key, ts)`.
struct SortedRun {
    tuples: Vec<Tuple>,
}

impl SortedRun {
    fn scan(&self, keys: &KeyInterval, times: &TimeInterval, out: &mut Vec<Tuple>) -> usize {
        let start = self.tuples.partition_point(|t| t.key < keys.lo());
        let mut read = 0;
        for t in &self.tuples[start..] {
            if t.key > keys.hi() {
                break;
            }
            read += 1;
            if times.contains(t.ts) {
                out.push(t.clone());
            }
        }
        read
    }
}

struct LsmState {
    /// Key-sorted memtable; the `u64` sequence disambiguates duplicates.
    memtable: BTreeMap<(Key, Timestamp, u64), Tuple>,
    seq: u64,
    runs: Vec<SortedRun>,
}

/// The HBase-like LSM store.
pub struct LsmStore {
    cfg: LsmConfig,
    wal: Log,
    state: RwLock<LsmState>,
    count: AtomicUsize,
    /// Tuples rewritten by compaction — the write-amplification meter.
    merged_tuples: AtomicU64,
    /// Tuples read (including temporal-filter misses) by queries.
    tuples_read: AtomicU64,
}

impl LsmStore {
    /// Creates a store with the given configuration.
    pub fn new(cfg: LsmConfig) -> waterwheel_core::Result<Self> {
        let wal = crate::open_journal(&cfg.wal_dir)?;
        Ok(Self {
            cfg,
            wal,
            state: RwLock::new(LsmState {
                memtable: BTreeMap::new(),
                seq: 0,
                runs: Vec::new(),
            }),
            count: AtomicUsize::new(0),
            merged_tuples: AtomicU64::new(0),
            tuples_read: AtomicU64::new(0),
        })
    }

    /// Creates a store with default settings.
    pub fn with_defaults() -> waterwheel_core::Result<Self> {
        Self::new(LsmConfig::default())
    }

    /// Tuples rewritten by compaction so far (write amplification).
    pub fn merged_tuples(&self) -> u64 {
        self.merged_tuples.load(Ordering::Relaxed)
    }

    /// Tuples scanned by queries (including ones failing the time filter).
    pub fn tuples_read(&self) -> u64 {
        self.tuples_read.load(Ordering::Relaxed)
    }

    /// Current number of sorted runs (diagnostics).
    pub fn run_count(&self) -> usize {
        self.state.read().runs.len()
    }

    /// Flushes the memtable into a sorted run and compacts if needed.
    pub fn flush_memtable(&self) {
        let mut state = self.state.write();
        if state.memtable.is_empty() {
            return;
        }
        let memtable = std::mem::take(&mut state.memtable);
        let tuples: Vec<Tuple> = memtable.into_values().collect();
        state.runs.push(SortedRun { tuples });
        self.maybe_compact(&mut state);
    }

    /// Size-tiered compaction: whenever `tier_fanout` runs fall in the same
    /// size tier (powers of `tier_fanout` × memtable_limit), merge them.
    fn maybe_compact(&self, state: &mut LsmState) {
        loop {
            // Group runs by size tier.
            let tier_of = |len: usize| -> u32 {
                let base = self.cfg.memtable_limit.max(1);
                let mut tier = 0;
                let mut cap = base * self.cfg.tier_fanout;
                let mut l = len;
                while l > cap {
                    tier += 1;
                    l /= self.cfg.tier_fanout;
                    cap = cap.saturating_mul(self.cfg.tier_fanout);
                }
                tier
            };
            let mut by_tier: std::collections::HashMap<u32, Vec<usize>> =
                std::collections::HashMap::new();
            for (i, run) in state.runs.iter().enumerate() {
                by_tier
                    .entry(tier_of(run.tuples.len()))
                    .or_default()
                    .push(i);
            }
            let Some((_, victims)) = by_tier
                .into_iter()
                .find(|(_, v)| v.len() >= self.cfg.tier_fanout)
            else {
                return;
            };
            // K-way merge of the victim runs (collect + sort is an honest
            // stand-in: the cost is dominated by rewriting every tuple).
            let mut merged: Vec<Tuple> = Vec::new();
            for &i in victims.iter().rev() {
                merged.append(&mut state.runs.remove(i).tuples);
            }
            self.merged_tuples
                .fetch_add(merged.len() as u64, Ordering::Relaxed);
            merged.sort_by_key(|a| (a.key, a.ts));
            state.runs.push(SortedRun { tuples: merged });
        }
    }
}

impl StreamStore for LsmStore {
    fn insert(&self, tuple: Tuple) {
        // 1. Journal (HBase acknowledges only after the WAL append).
        let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        crate::journal(&self.wal, n, &tuple, self.cfg.wal_commit_latency)
            .expect("WAL append failed");
        // 2. Memtable insert.
        let flush = {
            let mut state = self.state.write();
            let seq = state.seq;
            state.seq += 1;
            state.memtable.insert((tuple.key, tuple.ts, seq), tuple);
            state.memtable.len() >= self.cfg.memtable_limit
        };
        // 3. Flush + compact when over the threshold.
        if flush {
            self.flush_memtable();
        }
    }

    fn query(&self, keys: &KeyInterval, times: &TimeInterval) -> Vec<Tuple> {
        let state = self.state.read();
        let mut out = Vec::new();
        let mut read = 0usize;
        // Memtable range scan.
        for ((_, _, _), t) in state
            .memtable
            .range((keys.lo(), 0, 0)..=(keys.hi(), Timestamp::MAX, u64::MAX))
        {
            read += 1;
            if times.contains(t.ts) {
                out.push(t.clone());
            }
        }
        // Every sorted run must be consulted: key ranges overlap across runs.
        for run in &state.runs {
            let scanned = run.scan(keys, times, &mut out);
            // One HFile access per consulted run, plus the scanned bytes.
            self.cfg.scan_latency.charge(scanned * 50, false);
            read += scanned;
        }
        self.tuples_read.fetch_add(read as u64, Ordering::Relaxed);
        out
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "lsm (hbase-like)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(memtable_limit: usize) -> LsmStore {
        LsmStore::new(LsmConfig {
            memtable_limit,
            tier_fanout: 3,
            ..LsmConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn insert_query_roundtrip() {
        let s = store(64);
        for i in 0..500u64 {
            s.insert(Tuple::bare(i, i * 2));
        }
        assert_eq!(s.len(), 500);
        let hits = s.query(&KeyInterval::new(100, 200), &TimeInterval::full());
        assert_eq!(hits.len(), 101);
        let hits = s.query(&KeyInterval::new(100, 200), &TimeInterval::new(0, 250));
        assert_eq!(hits.len(), 26);
    }

    #[test]
    fn data_survives_flushes_and_compactions() {
        let s = store(32);
        for i in 0..1_000u64 {
            s.insert(Tuple::bare(i % 97, i));
        }
        let hits = s.query(&KeyInterval::full(), &TimeInterval::full());
        assert_eq!(hits.len(), 1_000);
        assert!(s.merged_tuples() > 0, "compaction never ran");
    }

    #[test]
    fn compaction_bounds_run_count() {
        let s = store(16);
        for i in 0..2_000u64 {
            s.insert(Tuple::bare(i, i));
        }
        assert!(
            s.run_count() < 20,
            "size-tiering failed: {} runs",
            s.run_count()
        );
    }

    #[test]
    fn write_amplification_grows_with_volume() {
        let small = store(16);
        for i in 0..500u64 {
            small.insert(Tuple::bare(i, i));
        }
        let big = store(16);
        for i in 0..5_000u64 {
            big.insert(Tuple::bare(i, i));
        }
        assert!(big.merged_tuples() > small.merged_tuples() * 2);
    }

    #[test]
    fn temporal_filter_reads_everything_in_key_range() {
        // The HBase weakness: a narrow time filter still reads the whole
        // key range.
        let s = store(128);
        for i in 0..1_000u64 {
            s.insert(Tuple::bare(i % 50, i));
        }
        let before = s.tuples_read();
        let hits = s.query(&KeyInterval::full(), &TimeInterval::new(0, 9));
        assert_eq!(hits.len(), 10);
        assert!(
            s.tuples_read() - before >= 1_000,
            "read {} tuples, expected full scan",
            s.tuples_read() - before
        );
    }

    #[test]
    fn duplicates_are_preserved() {
        let s = store(8);
        for i in 0..100u64 {
            s.insert(Tuple::bare(7, i));
        }
        assert_eq!(
            s.query(&KeyInterval::point(7), &TimeInterval::full()).len(),
            100
        );
    }
}
