//! Comparator systems for the overall evaluation (paper §VI-D).
//!
//! The paper compares Waterwheel against HBase and Druid. Neither can run
//! here (JVM clusters), so this crate reimplements the *mechanisms the paper
//! credits for their behaviour* — not the full systems:
//!
//! * [`LsmStore`] (HBase-like): a write-ahead log, a sorted memtable, and
//!   size-tiered compaction of sorted runs. Key-range scans are efficient;
//!   **temporal predicates are not indexed**, so a query must read every
//!   key-qualifying tuple ("all tuples satisfying the key range constraint
//!   must be read and tested against the temporal constraint"). Compaction
//!   repeatedly rewrites data, capping insert throughput ("updates still
//!   need to be merged with historical data").
//! * [`TimeStore`] (Druid-like): a WAL plus time-partitioned segments with
//!   per-segment inverted indexes built at ingest. Temporal pruning is
//!   excellent; **key ranges are not first-class** — an inverted index maps
//!   exact values, not ranges, so a range query degenerates to a full scan
//!   of the temporally-qualifying segments ("due to the lack of support of
//!   range indexes in Druid, all tuples satisfying the temporal constraint
//!   should be read and verified against the key range constraint").
//!
//! Both implement [`StreamStore`], the interface the Figure 14–16 harnesses
//! drive; the Waterwheel system facade implements it too.

#![warn(missing_docs)]

pub mod lsm;
pub mod timestore;

pub use lsm::{LsmConfig, LsmStore};
pub use timestore::{TimeStore, TimeStoreConfig};

use std::path::Path;
use std::time::Duration;
use waterwheel_core::{codec, KeyInterval, Result, TimeInterval, Tuple};
use waterwheel_wal::{FsyncPolicy, Log, WalStats};

/// Group-commit size: tuples journalled per durable commit.
const COMMIT_EVERY: usize = 256;

/// Journal segment rotation threshold.
const JOURNAL_SEGMENT_BYTES: usize = 64 << 20;

/// Log name of a baseline's tuple journal inside its WAL directory.
const JOURNAL: &str = "journal";

/// The system-level interface of the Figure 14–16 comparison harnesses.
pub trait StreamStore: Send + Sync {
    /// Ingests one tuple.
    fn insert(&self, tuple: Tuple);

    /// Answers a key+time range query.
    fn query(&self, keys: &KeyInterval, times: &TimeInterval) -> Vec<Tuple>;

    /// Tuples ingested so far.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Display name for benchmark tables.
    fn name(&self) -> &'static str;
}

/// Opens a baseline's tuple journal in `dir` on the shared write-ahead log,
/// fsyncing at every commit.
///
/// HBase journals every mutation to the HDFS WAL before acknowledging it,
/// and Druid's realtime tasks journal to local disk; that per-write
/// journalling is a real component of the ingest cost the paper measures
/// against. The baselines never replay, so the journal starts empty.
fn open_journal(dir: &Path) -> Result<Log> {
    let (log, _) = Log::open(
        dir,
        JOURNAL,
        FsyncPolicy::Always,
        JOURNAL_SEGMENT_BYTES,
        WalStats::shared(),
    )?;
    log.reset()?;
    Ok(log)
}

/// Journals `tuple` as the store's `n`-th append (1-based). Every
/// [`COMMIT_EVERY`]-th append makes the group durable and then pays
/// `commit_latency`, the modelled cost of a *remote* durability point
/// (HBase's hflush through the HDFS replica pipeline, Druid's journal
/// hand-off) on top of the local fsync.
fn journal(log: &Log, n: usize, tuple: &Tuple, commit_latency: Duration) -> Result<()> {
    let mut buf = Vec::with_capacity(tuple.encoded_len());
    codec::encode_tuple(&mut buf, tuple);
    log.append(&buf)?;
    if n.is_multiple_of(COMMIT_EVERY) {
        log.commit()?;
        if !commit_latency.is_zero() {
            std::thread::sleep(commit_latency);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ww-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every tuple the journal in `dir` holds, in append order.
    fn journalled(dir: &Path) -> Vec<Tuple> {
        let (_, replay) = Log::open(
            dir,
            JOURNAL,
            FsyncPolicy::Never,
            1 << 20,
            WalStats::shared(),
        )
        .unwrap();
        replay
            .records
            .iter()
            .map(|r| codec::decode_tuple(&mut codec::Decoder::new(r, "journal")).unwrap())
            .collect()
    }

    #[test]
    fn every_insert_is_journalled() {
        let (lsm_dir, ts_dir) = (tmp("lsm-count"), tmp("ts-count"));
        let tuples: Vec<Tuple> = (0..600u64).map(|i| Tuple::bare(i, i)).collect();
        {
            let lsm = LsmStore::new(LsmConfig {
                wal_dir: lsm_dir.clone(),
                ..LsmConfig::default()
            })
            .unwrap();
            let ts = TimeStore::new(TimeStoreConfig {
                wal_dir: ts_dir.clone(),
                ..TimeStoreConfig::default()
            })
            .unwrap();
            for t in &tuples {
                lsm.insert(t.clone());
                ts.insert(t.clone());
            }
        }
        assert_eq!(journalled(&lsm_dir), tuples);
        assert_eq!(journalled(&ts_dir), tuples);
    }

    #[test]
    fn a_recreated_store_starts_with_an_empty_journal() {
        let dir = tmp("recreate");
        let cfg = LsmConfig {
            wal_dir: dir.clone(),
            ..LsmConfig::default()
        };
        LsmStore::new(cfg.clone())
            .unwrap()
            .insert(Tuple::bare(1, 1));
        assert_eq!(journalled(&dir).len(), 1);
        drop(LsmStore::new(cfg).unwrap());
        assert!(journalled(&dir).is_empty());
    }
}
