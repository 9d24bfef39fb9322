//! Columnar chunk answers against the input-stream oracle, and the
//! MIN/MAX pruning proof.
//!
//! A system writing columnar (v2) chunks ingests a stream and must answer
//! every range query, predicate query, measure-range query and aggregate
//! exactly like a filter-and-fold over the tuples it was fed: the columnar
//! format and the decoded-column cache change bytes on disk and in memory,
//! never answers. Separate tests show the persisted measure bounds
//! actually skip whole chunks (and leaves) for a disjoint `measure_range`
//! while the answer still matches the oracle.

use std::sync::atomic::Ordering;
use waterwheel::agg::PartialAgg;
use waterwheel::core::AggregateKind;
use waterwheel::prelude::*;
use waterwheel::workloads::{oracle, QueryGen, TDriveConfig, TDriveGen, TemporalShape};

fn fresh_root(name: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("ww-colv2-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn system(name: &str) -> Waterwheel {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 32 * 1024;
    cfg.indexing_servers = 2;
    cfg.query_servers = 2;
    // Frequent skew checks so the template actually splits into many
    // leaves at these small test scales — per-leaf bounds need >1 leaf.
    cfg.skew_check_interval = 64;
    let ww = Waterwheel::builder(fresh_root(name))
        .config(cfg)
        .build()
        .unwrap();
    ww.register_measure(measure);
    ww
}

/// Measure under test: the key itself, so chunks flushed from disjoint key
/// batches also carry disjoint MIN/MAX measure bounds.
fn measure(t: &Tuple) -> u64 {
    t.key
}

fn normalized(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by(|a, b| (a.key, a.ts, &a.payload).cmp(&(b.key, b.ts, &b.payload)));
    tuples
}

/// The aggregate oracle: `measure` folded over the expected answer.
fn fold(tuples: &[Tuple]) -> PartialAgg {
    let mut agg = PartialAgg::empty();
    for t in tuples {
        agg.insert(measure(t));
    }
    agg
}

/// Asserts every aggregate kind of `q` equals the fold over `want`.
fn assert_aggregates(ww: &Waterwheel, q: &Query, want: &[Tuple]) {
    let want = fold(want);
    for kind in AggregateKind::ALL {
        let got = ww.aggregate(&q.clone().aggregate(kind)).unwrap();
        assert_eq!(got.agg, want, "kind={kind:?}");
        let value = match kind {
            AggregateKind::Count => Some(want.count as f64),
            AggregateKind::Sum => Some(want.sum as f64),
            AggregateKind::Min => want.min().map(|v| v as f64),
            AggregateKind::Max => want.max().map(|v| v as f64),
            AggregateKind::Avg => want.avg(),
        };
        assert_eq!(got.value(), value, "kind={kind:?}");
    }
}

/// A columnar system answers the default T-Drive stream exactly like the
/// input oracle — range queries, predicate queries, measure-range queries,
/// and all aggregate kinds — with repeat scans served from the
/// decoded-column cache.
#[test]
fn columnar_answers_match_input_oracle() {
    let ww = system("oracle");
    let mut fleet = TDriveGen::new(TDriveConfig {
        taxis: 200,
        seed: 9,
        ..TDriveConfig::default()
    });
    let mut all: Vec<Tuple> = Vec::new();
    // First part flushed to chunks, the rest left in memory, so queries
    // cross the chunk and memory paths in one answer.
    for i in 0..8_000 {
        let t = fleet.next().unwrap();
        all.push(t.clone());
        ww.insert(t).unwrap();
        if i == 4_999 {
            ww.drain().unwrap();
            ww.flush_all().unwrap();
        }
    }
    ww.drain().unwrap();
    assert!(ww.metadata().chunk_count() > 0, "nothing reached chunks");

    let now = fleet.now_ms();
    let mut qg = QueryGen::new(KeyInterval::full(), 41);
    for selectivity in [0.01, 0.1, 0.5] {
        for shape in TemporalShape::paper_set() {
            let q = qg.query(selectivity, shape, 0, now);
            let want = oracle(&all, &q.keys, &q.times);
            let got = normalized(ww.query(&q).unwrap().tuples);
            assert_eq!(got, want, "sel={selectivity} shape={}", shape.label());
        }
    }

    // Predicate and measure-range queries plus every aggregate kind, each
    // against the matching filter over the input stream.
    let (keys, times) = (KeyInterval::full(), TimeInterval::new(0, now));
    let (mlo, mhi) = (u64::MAX / 4, u64::MAX / 2);
    let in_window = oracle(&all, &keys, &times);
    let filtered = |keep: &dyn Fn(&Tuple) -> bool| -> Vec<Tuple> {
        in_window.iter().filter(|t| keep(t)).cloned().collect()
    };
    let probes = [
        (Query::range(keys, times), in_window.clone()),
        (
            Query::with_predicate(keys, times, |t| t.ts % 3 == 0),
            filtered(&|t| t.ts % 3 == 0),
        ),
        (
            Query::range(keys, times).and_measure_between(mlo, mhi),
            filtered(&|t| (mlo..=mhi).contains(&measure(t))),
        ),
    ];
    for (q, want) in &probes {
        assert!(!want.is_empty(), "probe selects nothing");
        assert_eq!(&normalized(ww.query(q).unwrap().tuples), want);
        assert_aggregates(&ww, q, want);
    }

    // The query battery above revisits the same chunks many times, so
    // repeat scans must have been served from the decoded-column cache.
    let (mut hits, mut misses, mut selected) = (0u64, 0u64, 0u64);
    for qs in ww.query_servers() {
        hits += qs.stats().column_decode_hits.load(Ordering::Relaxed);
        misses += qs.stats().column_decode_misses.load(Ordering::Relaxed);
        selected += qs.stats().scan_selected_rows.load(Ordering::Relaxed);
    }
    assert!(hits > 0, "repeat scans never hit the decoded cache");
    assert!(misses > 0, "first touch of each leaf must count a decode");
    assert!(selected > 0, "columnar scans materialized no rows");
}

/// Persisted MIN/MAX measure bounds skip whole chunks (and v2 leaves) for a
/// disjoint measure range, and pruning never changes the answer: it still
/// matches the filter over the input stream, aggregates included.
#[test]
fn measure_bounds_prune_whole_chunks_without_changing_answers() {
    let ww = system("prune");
    // Three disjoint key batches, each flushed into its own chunk(s), so
    // the chunks carry disjoint measure bounds (measure == key).
    let mut all = Vec::new();
    for (batch, base) in [0u64, 100_000, 200_000].into_iter().enumerate() {
        for i in 0..800 {
            let t = Tuple::new(
                base + i % 1_000,
                1_000 + (batch as u64) * 800 + i,
                vec![7; 16],
            );
            all.push(t.clone());
            ww.insert(t).unwrap();
        }
        ww.drain().unwrap();
        ww.flush_all().unwrap();
    }
    assert!(
        ww.metadata().chunk_count() >= 3,
        "need one chunk per batch for the pruning claim"
    );

    // Only the middle batch intersects [100_000, 100_999].
    let q = Query::range(KeyInterval::full(), TimeInterval::full())
        .and_measure_between(100_000, 100_999);
    let got = normalized(ww.query(&q).unwrap().tuples);
    let want: Vec<Tuple> = normalized(
        all.iter()
            .filter(|t| (100_000..=100_999).contains(&t.key))
            .cloned()
            .collect(),
    );
    assert_eq!(got, want, "pruned answer diverged from the oracle");

    let chunks_skipped = ww
        .coordinator()
        .stats()
        .measure_pruned_chunks
        .load(Ordering::Relaxed);
    assert!(
        chunks_skipped >= 1,
        "expected at least one whole chunk skipped by measure bounds"
    );

    // Aggregates over a measure range take the tuple-scan fallback and
    // still fold to the oracle.
    assert_aggregates(&ww, &q, &want);
}

/// Within a single v2 chunk, per-leaf bounds prune leaves the chunk-level
/// bounds cannot (the chunk straddles the range, some leaves do not).
#[test]
fn leaf_bounds_prune_within_a_chunk() {
    let ww = system("leaf-prune");
    // Keys spread over the full u64 domain so the template tree's leaves
    // each receive a distinct key slice — and, with measure == key,
    // distinct measure bounds. (Clustered keys would all land in one
    // template leaf and give the per-leaf bounds nothing to separate.)
    let stride = u64::MAX / 3_000;
    let mut all = Vec::new();
    for i in 0..3_000u64 {
        let t = Tuple::new(i * stride, 1_000 + i, vec![3; 8]);
        all.push(t.clone());
        ww.insert(t).unwrap();
    }
    ww.drain().unwrap();
    ww.flush_all().unwrap();

    // A narrow measure slice: intersects few leaves of whichever chunk
    // holds it, so the per-leaf bounds must fire even when chunk bounds
    // overlap the range.
    let (mlo, mhi) = (1_000 * stride, 1_010 * stride);
    let q = Query::range(KeyInterval::full(), TimeInterval::full()).and_measure_between(mlo, mhi);
    let got = normalized(ww.query(&q).unwrap().tuples);
    let want: Vec<Tuple> = normalized(
        all.iter()
            .filter(|t| (mlo..=mhi).contains(&t.key))
            .cloned()
            .collect(),
    );
    assert_eq!(got, want);
    assert!(!want.is_empty(), "probe range must select something");

    let leaves_skipped: u64 = ww
        .query_servers()
        .iter()
        .map(|qs| qs.stats().measure_pruned_leaves.load(Ordering::Relaxed))
        .sum();
    assert!(
        leaves_skipped >= 1,
        "expected at least one leaf skipped by its persisted bounds"
    );
}
