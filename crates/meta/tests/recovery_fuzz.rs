//! Corruption fuzzing for the metadata service's recovery path: a durable
//! service's snapshot, mutation-log segments and individual log records
//! are flipped, spliced, truncated and padded, and
//! `MetadataService::open_with` over the damage must never panic or
//! over-allocate — it either recovers or fails with a typed
//! [`WwError::Corrupt`].
//!
//! The snapshot and every log frame carry FNV-1a checksums, so most
//! random damage is caught there. The snapshot cases re-stamp the
//! checksum half the time, and the record cases rewrite a well-formed log
//! around a damaged record body, so the damage also reaches the snapshot
//! and record parsers. Same SplitMix64 idiom as
//! `crates/storage/tests/chunk_fuzz.rs`.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;
use waterwheel_core::codec::fnv1a;
use waterwheel_core::{KeyInterval, NodeId, Region, ServerId, TimeInterval, WwError};
use waterwheel_index::ChunkAttrIndex;
use waterwheel_meta::{ChunkInfo, MemberRole, MetadataService, PartitionSchema, SummaryExtent};
use waterwheel_wal::{FsyncPolicy, Log, WalStats};

/// Deterministic per-case generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Snapshot path of a fresh per-case service directory (removed on drop).
struct CaseDir(PathBuf);

impl CaseDir {
    fn new(test: &str, seed: u64) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "ww-meta-fuzz-{test}-{}-{seed:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    fn snapshot(&self) -> PathBuf {
        self.0.join("meta.snapshot")
    }

    /// The mutation-log segment files, oldest first.
    fn segments(&self) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(&self.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "wal"))
            .collect();
        out.sort();
        out
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Log name `open_with` derives for the snapshot `meta.snapshot`.
const LOG_NAME: &str = "meta.snapshot.log";

/// Builds a durable service holding every record kind: chunks, summary
/// extents, attribute indexes, a partition schema, members and
/// migrations. A small segment size compacts the log into the snapshot
/// mid-run, a large one leaves everything in the log; the seed picks.
/// Returns the segment size and the number of chunks registered.
fn populate(g: &mut Gen, snapshot: &Path) -> (usize, usize) {
    let segment_bytes = if g.below(2) == 0 { 4096 } else { 1 << 20 };
    let meta = MetadataService::open_with(snapshot, FsyncPolicy::Never, segment_bytes).unwrap();
    let chunks = 1 + g.below(40) as usize;
    for _ in 0..chunks {
        let id = meta.allocate_chunk_id().unwrap();
        let (k, t) = (g.below(1 << 40), g.below(1 << 40));
        let region = Region::new(
            KeyInterval::new(k, k + g.below(1 << 20)),
            TimeInterval::new(t, t + g.below(1 << 20)),
        );
        let info = ChunkInfo {
            region,
            count: g.below(10_000),
            bytes: g.below(1 << 24),
            producer: ServerId(g.below(4) as u32),
        };
        meta.register_chunk(id, info, g.below(1 << 30)).unwrap();
        if g.below(2) == 0 {
            let lo = g.below(1_000);
            let extent = SummaryExtent {
                cells: g.below(10_000),
                bytes: g.below(1 << 20),
                levels: g.below(16) as u8,
                slice_bits: 1 + g.below(16) as u8,
                measure_range: (g.below(2) == 0).then_some((lo, lo + g.below(1_000))),
            };
            meta.register_summary(id, extent).unwrap();
        }
        if g.below(3) == 0 {
            let leaves: Vec<Vec<u64>> = (0..1 + g.below(4))
                .map(|_| (0..g.below(20)).map(|_| g.below(64)).collect())
                .collect();
            let index = ChunkAttrIndex::build(&leaves, 10);
            meta.register_attr_index(id, g.below(3) as u16, index)
                .unwrap();
        }
    }
    let servers: Vec<ServerId> = (0..1 + g.below(4)).map(|i| ServerId(i as u32)).collect();
    let mut schema = PartitionSchema::uniform(&servers);
    schema.version = 1 + g.below(5);
    meta.set_partition(schema).unwrap();
    let ttl = Duration::from_secs(60);
    meta.join(ServerId(0), MemberRole::Indexing, NodeId(0), ttl)
        .unwrap();
    meta.join(ServerId(1_000), MemberRole::Query, NodeId(1), ttl)
        .unwrap();
    let moved = meta
        .begin_migration(
            KeyInterval::new(0, g.below(1 << 30)),
            ServerId(0),
            ServerId(1),
        )
        .unwrap();
    if g.below(2) == 0 {
        meta.complete_migration(moved.id).unwrap();
    }
    (segment_bytes, chunks)
}

/// Applies one of: byte flips, a truncation, a random splice, or a hostile
/// extension — always at seed-chosen sites.
fn corrupt(g: &mut Gen, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(g.next() as u8);
    }
    match g.below(4) {
        0 => {
            for _ in 0..=g.below(8) {
                let i = g.below(bytes.len() as u64) as usize;
                bytes[i] ^= (1 + g.below(255)) as u8;
            }
        }
        1 => bytes.truncate(g.below(bytes.len() as u64 + 1) as usize),
        2 => {
            let start = g.below(bytes.len() as u64) as usize;
            let end = (start + 1 + g.below(64) as usize).min(bytes.len());
            for b in &mut bytes[start..end] {
                *b = g.next() as u8;
            }
        }
        _ => {
            for _ in 0..1 + g.below(512) {
                bytes.push(g.next() as u8);
            }
        }
    }
}

/// Recovers a service over (possibly damaged) files; anything but `Ok` or
/// `Corrupt` fails the case.
fn recover(snapshot: &Path, segment_bytes: usize) -> Result<(), TestCaseError> {
    match MetadataService::open_with(snapshot, FsyncPolicy::Never, segment_bytes) {
        Ok(meta) => {
            let _ = (meta.chunk_count(), meta.partition(), meta.membership());
            let _ = meta.chunks_overlapping(&Region::full());
        }
        Err(e) => prop_assert!(matches!(e, WwError::Corrupt { .. }), "open_with: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Undamaged state recovers in full — the harness's own sanity check.
    #[test]
    fn valid_state_recovers(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let dir = CaseDir::new("valid", seed);
        let (segment_bytes, chunks) = populate(&mut g, &dir.snapshot());
        let meta = MetadataService::open_with(dir.snapshot(), FsyncPolicy::Never, segment_bytes)
            .unwrap();
        prop_assert_eq!(meta.chunk_count(), chunks);
        prop_assert_eq!(meta.migrations().len(), 1);
    }

    /// A damaged snapshot — with its checksum re-stamped half the time, so
    /// the body parser sees the damage — never panics.
    #[test]
    fn damaged_snapshots_fail_closed(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let dir = CaseDir::new("snapshot", seed);
        let (segment_bytes, _) = populate(&mut g, &dir.snapshot());
        let mut bytes = std::fs::read(dir.snapshot()).unwrap();
        corrupt(&mut g, &mut bytes);
        if bytes.len() >= 16 && g.below(2) == 0 {
            // Snapshot layout: magic u64, FNV-1a of the body u64, body.
            let sum = fnv1a(&bytes[16..]);
            bytes[8..16].copy_from_slice(&sum.to_le_bytes());
        }
        std::fs::write(dir.snapshot(), &bytes).unwrap();
        recover(&dir.snapshot(), segment_bytes)?;
    }

    /// A damaged mutation-log segment file never panics.
    #[test]
    fn damaged_log_segments_fail_closed(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let dir = CaseDir::new("segment", seed);
        let (segment_bytes, _) = populate(&mut g, &dir.snapshot());
        let segments = dir.segments();
        let victim = &segments[g.below(segments.len() as u64) as usize];
        let mut bytes = std::fs::read(victim).unwrap();
        corrupt(&mut g, &mut bytes);
        std::fs::write(victim, &bytes).unwrap();
        recover(&dir.snapshot(), segment_bytes)?;
    }

    /// A well-framed log whose record bodies are damaged (or replaced by
    /// garbage) reaches the record parser and still never panics.
    #[test]
    fn damaged_log_records_fail_closed(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let dir = CaseDir::new("record", seed);
        let (segment_bytes, _) = populate(&mut g, &dir.snapshot());
        let stats = WalStats::shared();
        let (log, replay) =
            Log::open(&dir.0, LOG_NAME, FsyncPolicy::Never, segment_bytes, stats).unwrap();
        let mut records = replay.records;
        if records.is_empty() || g.below(8) == 0 {
            let garbage: Vec<u8> = (0..g.below(64)).map(|_| g.next() as u8).collect();
            let at = g.below(records.len() as u64 + 1) as usize;
            records.insert(at, garbage);
        } else {
            let i = g.below(records.len() as u64) as usize;
            corrupt(&mut g, &mut records[i]);
        }
        log.reset().unwrap();
        for record in &records {
            log.append(record).unwrap();
        }
        log.commit().unwrap();
        drop(log);
        recover(&dir.snapshot(), segment_bytes)?;
    }
}
