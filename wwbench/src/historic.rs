//! `query_historic`: the read path alone.
//!
//! Set-up loads a fixed Network dataset into an embedded `Waterwheel` and
//! flushes it, so every tuple lives in a chunk and the ingest layers stay
//! idle. Two client threads then run closed loop over a pre-generated
//! rotation of historic key × time queries, each answer checked against
//! an oracle count computed in set-up. The per-server block cache is
//! smaller than the chunks the rotation touches, so leaves keep missing.
//! The loads are timed too: their ingest rate and visibility lag are this
//! workload's figures for those metrics.
//!
//! The traced run splits its time in three: the real query path (for the
//! RPC plane's counters), then the benchmark's own copy of the
//! coordinator's pipeline (`Coordinator::decompose` →
//! `dispatch::build_plan` / `execute_plan` → `QueryServer::execute`) with
//! tracing off, then the same pipeline with tracing on.

use crate::report::{Args, Report, TempRoot};
use crate::stats;
use crate::trace::Tracer;
use crate::{procfs, visibility};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use waterwheel_core::{
    ChunkId, KeyInterval, Query, QueryId, Region, SubQuery, SubQueryTarget, SystemConfig,
    TimeInterval, Tuple,
};
use waterwheel_net::{wire, Response};
use waterwheel_server::{build_plan, execute_plan, SystemMetrics, Waterwheel};
use waterwheel_storage::{ChunkIndex, ChunkReader};
use waterwheel_workloads::Rng;

/// Tuples in the dataset.
pub const DATASET: usize = 300_000;
/// Queries in the rotation, cycling through [`SELECTIVITIES`].
pub const ROTATION: usize = 3_000;
/// Queries of the warm-up pass, checked like the rest.
const WARMUP: usize = 600;
/// Key selectivities of the rotation, as shares of the dataset's tuples in
/// key order (see [`key_range_by_share`]).
pub const SELECTIVITIES: [f64; 3] = [0.001, 0.01, 0.1];
/// Length of each query's time window, at a random position in the data.
const WINDOW_SECS: u64 = 60;
/// Closed-loop client threads.
const CLIENTS: usize = 2;
/// Times set-up is timed; `setup_s` is the median.
const SETUPS: usize = 5;
/// Per query-server block cache: 4 servers × 1 MiB hold well under the
/// dataset's chunk bytes.
const CACHE_BYTES: usize = 1 << 20;

/// The fixed configuration: system defaults (2 indexing and 4 query
/// servers on 4 simulated nodes, replication 3, LADA dispatch, 4 workers
/// per query server) with 1 MiB chunks, a 1 MiB cache per query server,
/// and fsynced chunk seals and metadata.
pub fn config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 1 << 20;
    cfg.cache_capacity_bytes = CACHE_BYTES;
    cfg.durability_fsync = true;
    cfg
}

/// Golden-ratio steps of the low-discrepancy sequences that place query
/// keys and windows: any seed's rotation covers the data's keys and time
/// span evenly, so seeds differ in their data and offsets, not in how many
/// queries happen to land on the hottest subnets.
pub const KEY_STEP: f64 = 0.618_033_988_749_894_8;
pub const TIME_STEP: f64 = 0.414_213_562_373_095_1;

/// The `j`-th point of the sequence `u + j·step (mod 1)`.
pub fn stratified(u: f64, j: usize, step: f64) -> f64 {
    (u + j as f64 * step).fract()
}

/// The key interval holding a `share` of the keys in `sorted` (ascending,
/// one entry per tuple), starting at fraction `at` of the positions it
/// can start from. Selectivity is measured in tuples, not in key width:
/// the generator's subnets occupy a few small islands of the IPv4 space,
/// so a fixed key width would mostly select nothing.
pub fn key_range_by_share(sorted: &[u64], share: f64, at: f64) -> KeyInterval {
    let n = sorted.len();
    let span = ((n as f64 * share) as usize).clamp(1, n);
    let lo = ((n - span) as f64 * at) as usize;
    KeyInterval::new(sorted[lo], sorted[lo + span - 1])
}

/// Range queries over a set of tuples, each with its oracle row count.
pub struct Rotation {
    pub queries: Vec<Query>,
    pub oracle: Vec<usize>,
}

impl Rotation {
    /// `n` queries over the tuples in `sorted` (`(key, ts)`, ascending),
    /// cycling through [`SELECTIVITIES`]: each key range holds that share
    /// of the tuples, and each time window is `width` long and starts
    /// between `first` and `latest`. Keys and windows sit on the
    /// golden-ratio sequences from two draws of `rng`.
    pub fn new(
        sorted: &[(u64, u64)],
        n: usize,
        (first, latest): (u64, u64),
        width: u64,
        rng: &mut Rng,
    ) -> Self {
        let keys: Vec<u64> = sorted.iter().map(|&(k, _)| k).collect();
        let (uk, ut) = (rng.next_f64(), rng.next_f64());
        let classes = SELECTIVITIES.len();
        let queries: Vec<Query> = (0..n)
            .map(|i| {
                let j = i / classes;
                let share = SELECTIVITIES[i % classes];
                let keys = key_range_by_share(&keys, share, stratified(uk, j, KEY_STEP));
                let lo = first + ((latest - first) as f64 * stratified(ut, j, TIME_STEP)) as u64;
                Query::range(keys, TimeInterval::new(lo, lo + width))
            })
            .collect();
        // Oracle: each query counts the timestamps inside its window among
        // the keys inside its range.
        let oracle = queries
            .iter()
            .map(|q| {
                let lo = sorted.partition_point(|&(k, _)| k < q.keys.lo());
                let hi = sorted.partition_point(|&(k, _)| k <= q.keys.hi());
                sorted[lo..hi]
                    .iter()
                    .filter(|&&(_, ts)| q.times.contains(ts))
                    .count()
            })
            .collect();
        Self { queries, oracle }
    }
}

/// `(key, ts)` of `tuples`, ascending: the key order selectivity is
/// measured in, and the oracle's index.
pub fn sorted_points<'a>(tuples: impl Iterator<Item = &'a Tuple>) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = tuples.map(|t| (t.key, t.ts)).collect();
    sorted.sort_unstable();
    sorted
}

/// Everything a seed determines: the dataset, the query rotation, and
/// each query's oracle row count.
pub struct Workload {
    pub tuples: Vec<Tuple>,
    pub queries: Vec<Query>,
    pub oracle: Vec<usize>,
}

pub fn workload(seed: u64) -> Workload {
    let tuples = crate::ingest::tuples(seed, DATASET);
    let sorted = sorted_points(tuples.iter());
    let (start, end) = (tuples[0].ts, tuples[tuples.len() - 1].ts);
    let span_ms = WINDOW_SECS * 1_000;
    let latest = end.saturating_sub(span_ms).max(start);
    let mut rng = Rng::new(seed ^ 0x4849_5354);
    let Rotation { queries, oracle } =
        Rotation::new(&sorted, ROTATION, (start, latest), span_ms, &mut rng);
    Workload {
        tuples,
        queries,
        oracle,
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = TempRoot::new("query_historic").map_err(|e| format!("scratch root: {e}"))?;
    let mut report = Report::default();
    let w = workload(args.seed);

    // Set-up: build, load and flush the dataset. The timed repeats that
    // `setup_s` also takes its median over come after the measured window,
    // so they leave the window's memory peak alone.
    let t = Instant::now();
    let (ww, first) = load(&scratch.fresh("setup-0"), &w.tuples)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut loads = vec![first];
    let stored: u64 = ww
        .metadata()
        .chunks_overlapping(&Region::full())
        .iter()
        .filter_map(|(id, _)| ww.metadata().chunk_info(*id))
        .map(|i| i.count)
        .sum();
    let in_memory: usize = ww.indexing_servers().iter().map(|s| s.in_memory()).sum();
    report.check(stored == DATASET as u64 && in_memory == 0, || {
        format!("after set-up {stored} tuples in chunks and {in_memory} in memory, expected {DATASET} and 0")
    });

    // Warm-up: one pass over the rotation, answers checked.
    closed_loop(&w, &mut report, Stop::Count(WARMUP), |q| {
        ww.query(q).map(|r| r.tuples.len())
    })?;

    if args.trace {
        report.median_ms("visible_lag_p50_ms", &loads[0].lag_ms);
        traced_run(args, &ww, &w, &mut report)?;
    } else {
        let t = Instant::now();
        let cpu0 = procfs::own_cpu_ms();
        let (lat, rows) = closed_loop(
            &w,
            &mut report,
            Stop::After(Duration::from_secs_f64(args.seconds)),
            |q| ww.query(q).map(|r| r.tuples.len()),
        )?;
        let cpu_ms = procfs::own_cpu_ms() - cpu0;
        let elapsed = t.elapsed().as_secs_f64();
        report.metric("rss_peak_mb", "MB", procfs::rss_peak_mb(std::process::id()));
        report.latency("query_p50_ms", "query_p99_ms", &lat);
        report.metric_with(
            "query_qps",
            "1/s",
            lat.len() as f64 / elapsed,
            format!("{} queries by {CLIENTS} clients", lat.len()),
        );
        report.metric_with(
            "cpu_ms_per_ktuple",
            "ms",
            cpu_ms / (rows.max(1) as f64 / 1e3),
            format!("whole process per thousand rows answered, {rows} rows"),
        );
        let (bytes, stored) = crate::ingest::stored_bytes(&ww)?;
        report.metric_with(
            "stored_bytes_per_tuple",
            "B",
            bytes as f64 / stored.max(1) as f64,
            format!("{stored} tuples in chunks"),
        );
        drop(ww);
        for k in 1..SETUPS {
            let t = Instant::now();
            let (sys, l) = load(&scratch.fresh(&format!("setup-{k}")), &w.tuples)?;
            setup_s.push(t.elapsed().as_secs_f64());
            loads.push(l);
            drop(sys);
        }
        report.metric_with(
            "setup_s",
            "s",
            stats::median(&setup_s).unwrap_or(0.0),
            format!("median of {SETUPS} loads of {DATASET} tuples"),
        );
        let tps: Vec<f64> = loads.iter().map(|l| DATASET as f64 / l.ingest_s).collect();
        report.metric_with(
            "ingest_tps",
            "1/s",
            stats::median(&tps).unwrap_or(0.0),
            format!("median of the {SETUPS} set-up loads, until all visible"),
        );
        match stats::median_p99(loads.iter().map(|l| &l.lag_ms[..])) {
            Some((lag, n)) => report.metric_with(
                "visible_lag_p99_ms",
                "ms",
                lag,
                format!(
                    "median over {n} set-up loads of each load's p99 of {} marks",
                    DATASET / visibility::MARK_EVERY
                ),
            ),
            None => report.fail("no set-up load supports a p99 lag".into()),
        }
    }
    Ok(report)
}

/// How a load went: seconds from the first insert until every tuple was
/// visible, and the visibility lag of the loader's marks meanwhile.
struct Load {
    ingest_s: f64,
    lag_ms: Vec<f64>,
}

/// Builds a system on `root`, loads `tuples` with background pumps on,
/// waits until all are visible, and flushes them into chunks.
fn load(root: &std::path::Path, tuples: &[Tuple]) -> Result<(Waterwheel, Load), String> {
    let ww = Waterwheel::builder(root)
        .config(config())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    ww.start_pumps();
    let (ingest_s, lag_ms) = visibility::observed(&ww, || {
        let mut marks = Vec::with_capacity(tuples.len() / visibility::MARK_EVERY + 1);
        let t0 = Instant::now();
        let loaded = (|| {
            for (i, t) in tuples.iter().enumerate() {
                ww.insert(t.clone()).map_err(|e| format!("load: {e}"))?;
                if (i + 1) % visibility::MARK_EVERY == 0 {
                    marks.push((Instant::now(), i + 1));
                }
            }
            ww.flush_ingest_batches()
                .map_err(|e| format!("load: {e}"))?;
            while ww.total_visible() < tuples.len() {
                if t0.elapsed() > Duration::from_secs(60) {
                    return Err(format!(
                        "{} of {} tuples visible after 60 s",
                        ww.total_visible(),
                        tuples.len()
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(t0.elapsed().as_secs_f64())
        })();
        (loaded, marks)
    });
    let ingest_s = ingest_s?;
    ww.stop_pumps();
    ww.drain().map_err(|e| format!("drain: {e}"))?;
    ww.flush_all().map_err(|e| format!("flush: {e}"))?;
    Ok((ww, Load { ingest_s, lag_ms }))
}

/// One client's latencies in ms, errors, queries attempted and rows
/// answered.
type ClientRun = (Vec<f64>, Vec<String>, u64, u64);

/// When a closed loop ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many queries in total.
    Count(usize),
    After(Duration),
}

/// Runs the rotation from [`CLIENTS`] threads, each starting at its own
/// offset, until `stop`. Checks every row count against the oracle and
/// returns each query's latency in milliseconds, and the rows answered.
fn closed_loop(
    w: &Workload,
    report: &mut Report,
    stop: Stop,
    query: impl Fn(&Query) -> waterwheel_core::Result<usize> + Sync,
) -> Result<(Vec<f64>, u64), String> {
    let start = Instant::now();
    let per_client = ROTATION / CLIENTS;
    let results: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let query = &query;
                s.spawn(move || {
                    let (mut lat, mut errors, mut n, mut answered) =
                        (Vec::new(), Vec::new(), 0u64, 0u64);
                    for j in 0.. {
                        let done = match stop {
                            Stop::Count(n) => j >= n / CLIENTS,
                            Stop::After(dur) => start.elapsed() >= dur,
                        };
                        if done {
                            break;
                        }
                        let i = (c * per_client + j) % ROTATION;
                        let t = Instant::now();
                        let r = query(&w.queries[i]);
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        n += 1;
                        if let Ok(rows) = r {
                            answered += rows as u64;
                        }
                        match r {
                            Ok(rows) if rows == w.oracle[i] => {}
                            Ok(rows) => errors.push(format!(
                                "query {i} returned {rows} rows, oracle {}",
                                w.oracle[i]
                            )),
                            Err(e) => errors.push(format!("query {i}: {e}")),
                        }
                    }
                    (lat, errors, n, answered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (mut all, mut rows) = (Vec::new(), 0);
    for (lat, errors, n, answered) in results {
        all.extend(lat);
        rows += answered;
        report.attempted += n;
        for e in errors {
            report.fail(e);
        }
    }
    Ok((all, rows))
}

/// Per-run accumulators of the benchmark's pipeline.
#[derive(Default)]
struct Pipeline {
    queries: AtomicU64,
    subqueries: AtomicU64,
    rows_returned: AtomicU64,
    rows_examined: AtomicU64,
    queue_peak: AtomicU64,
    encode_ns: AtomicU64,
}

fn traced_run(
    args: &Args,
    ww: &Waterwheel,
    w: &Workload,
    report: &mut Report,
) -> Result<(), String> {
    let phase = Duration::from_secs_f64(args.seconds / 3.0);
    // Chunk directories, loaded before the measured window, let the
    // benchmark count the rows in every leaf a subquery has to scan.
    let mut index: HashMap<ChunkId, ChunkIndex> = HashMap::new();
    for (id, _) in ww.metadata().chunks_overlapping(&Region::full()) {
        let file = ww
            .dfs()
            .open(id, None)
            .map_err(|e| format!("open {id:?}: {e}"))?;
        let idx = ChunkReader::new(file)
            .load_index()
            .map_err(|e| format!("index of {id:?}: {e}"))?;
        index.insert(id, (*idx).clone());
    }
    let before = SystemMetrics::collect(ww);
    let io_before = io_wait_ns(ww);
    let rpc_before = ww.rpc_totals().bytes;

    // Phase 1: the real path, for the RPC plane's counters.
    let (real, _) = closed_loop(w, report, Stop::After(phase), |q| {
        ww.query(q).map(|r| r.tuples.len())
    })?;
    report.p99_ms(
        "query_p99_ms",
        &real,
        ", the real query path, first third of the window".into(),
    );
    let rpc_bytes = ww.rpc_totals().bytes - rpc_before;
    let rpc_lat = ww.rpc_latencies();

    // Phases 2 and 3: the pipeline untraced, then traced.
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let next = AtomicU64::new(1 << 40);
    let base_acc = Pipeline::default();
    let (base, _) = closed_loop(w, report, Stop::After(phase), |q| {
        pipeline(
            ww,
            q,
            next.fetch_add(1, Ordering::Relaxed),
            &off,
            &index,
            &base_acc,
        )
    })?;
    let acc = Pipeline::default();
    let t = Instant::now();
    let (traced, _) = closed_loop(w, report, Stop::After(phase), |q| {
        pipeline(
            ww,
            q,
            next.fetch_add(1, Ordering::Relaxed),
            &on,
            &index,
            &acc,
        )
    })?;
    let traced_wall_ns = t.elapsed().as_nanos() as f64 * CLIENTS as f64;
    let after = SystemMetrics::collect(ww);

    let find = |kind: &str| rpc_lat.iter().find(|l| l.kind == kind);
    let sub = find("chunk_subquery");
    report.metric_with(
        "net.chunk_subquery_rpc_p50_us",
        "us",
        sub.map_or(0.0, |l| l.p50.as_secs_f64() * 1e6),
        format!(
            "histogram bucket bound, {} calls",
            sub.map_or(0, |l| l.count)
        ),
    );
    report.metric_with(
        "net.chunk_subquery_rpc_p99_us",
        "us",
        sub.map_or(0.0, |l| l.p99.as_secs_f64() * 1e6),
        "histogram bucket bound".into(),
    );
    let pq = acc.queries.load(Ordering::Relaxed).max(1) as f64;
    report.metric(
        "net.encode_us_per_query",
        "us",
        acc.encode_ns.load(Ordering::Relaxed) as f64 / pq / 1e3,
    );
    report.metric(
        "net.bytes_per_query",
        "B",
        rpc_bytes as f64 / real.len().max(1) as f64,
    );
    let d = |f: fn(&SystemMetrics) -> u64| f(&after).saturating_sub(f(&before)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, reads) = (d(|m| m.leaf_cache_hits), d(|m| m.leaf_reads));
    report.metric("storage.leaf_hit_ratio", "ratio", ratio(hits, hits + reads));
    let (th, tr) = (d(|m| m.template_cache_hits), d(|m| m.template_reads));
    report.metric("storage.template_hit_ratio", "ratio", ratio(th, th + tr));
    let (dh, dm) = (d(|m| m.column_decode_hits), d(|m| m.column_decode_misses));
    report.metric("storage.decode_hit_ratio", "ratio", ratio(dh, dh + dm));
    let pruned = d(|m| m.leaves_pruned);
    report.metric(
        "storage.leaf_prune_ratio",
        "ratio",
        ratio(pruned, pruned + hits + reads),
    );
    let all_queries = (real.len() + base.len() + traced.len()).max(1) as f64;
    report.metric(
        "storage.dfs_bytes_per_query",
        "B",
        d(|m| m.dfs_bytes_read) / all_queries,
    );
    report.metric_with(
        "storage.io_wait_ms",
        "ms",
        (io_wait_ns(ww) - io_before) as f64 / 1e6 / all_queries,
        "I/O-permit wait per query".into(),
    );
    report.metric(
        "storage.rows_examined_per_returned",
        "ratio",
        ratio(
            acc.rows_examined.load(Ordering::Relaxed) as f64,
            acc.rows_returned.load(Ordering::Relaxed) as f64,
        ),
    );
    report.metric(
        "storage.singleflight_shared",
        "count",
        d(|m| m.singleflight_shared),
    );
    let us = |name: &str, pct: f64| {
        let v = on.durations_ns(name);
        stats::tail(&v, pct).map_or(0.0, |t| t.value / 1e3)
    };
    report.metric(
        "coordinator.decompose_us_p50",
        "us",
        us("coordinator.decompose", 50.0),
    );
    report.metric(
        "coordinator.subqueries_per_query",
        "count",
        acc.subqueries.load(Ordering::Relaxed) as f64 / pq,
    );
    report.metric("dispatch.plan_us_p50", "us", us("dispatch.plan", 50.0));
    let subq = on.durations_ns("query_server.subquery");
    let subq_tail = stats::tail(&subq, 99.0);
    report.metric(
        "query_server.subquery_us_p50",
        "us",
        us("query_server.subquery", 50.0),
    );
    report.metric_with(
        "query_server.subquery_us_p99",
        "us",
        subq_tail.map_or(0.0, |t| t.value / 1e3),
        subq_tail.map_or(String::new(), |t| format!("p{} of {} samples", t.pct, t.n)),
    );
    report.metric(
        "dispatch.worker_queue_peak",
        "count",
        acc.queue_peak.load(Ordering::Relaxed) as f64,
    );
    report.metric("ops_failed_ratio", "ratio", report.failed_ratio());
    report.metric(
        "trace.span_coverage",
        "ratio",
        on.top_level_ns() / traced_wall_ns,
    );
    let (b, t) = (
        stats::mean(&base).unwrap_or(0.0),
        stats::mean(&traced).unwrap_or(0.0),
    );
    report.metric_with(
        "trace.overhead_pct",
        "%",
        (t / b - 1.0) * 100.0,
        format!("mean query {t:.3} ms traced vs {b:.3} ms untraced"),
    );
    Ok(())
}

/// Nanoseconds query servers have waited for an I/O permit.
fn io_wait_ns(ww: &Waterwheel) -> u64 {
    ww.query_servers()
        .iter()
        .map(|qs| qs.stats().io_wait_ns.load(Ordering::Relaxed))
        .sum()
}

/// One query through the benchmark's copy of the coordinator's pipeline;
/// returns the merged row count.
fn pipeline(
    ww: &Waterwheel,
    q: &Query,
    qid: u64,
    tracer: &Tracer,
    index: &HashMap<ChunkId, ChunkIndex>,
    acc: &Pipeline,
) -> waterwheel_core::Result<usize> {
    let coord = ww.coordinator();
    let answers = tracer.span("query", None, || {
        let subs = tracer.span("coordinator.decompose", Some("query"), || {
            coord.decompose(q, QueryId(qid))
        })?;
        let mut answers: Vec<Vec<Tuple>> = Vec::new();
        let mut chunk_sqs: Vec<(SubQuery, ChunkId)> = Vec::new();
        for sq in subs {
            match sq.target {
                SubQueryTarget::Chunk(c) => chunk_sqs.push((sq, c)),
                // Set-up flushed everything; a fresh region would be a
                // set-up bug, but its rows still count toward the answer.
                SubQueryTarget::InMemory(id) => {
                    if let Some(s) = ww.indexing_servers().iter().find(|s| s.id() == id) {
                        answers.push(s.query_in_memory(&sq)?);
                    }
                }
            }
        }
        let qs = ww.query_servers();
        let chunks: Vec<ChunkId> = chunk_sqs.iter().map(|(_, c)| *c).collect();
        let replication = ww.dfs().replication();
        let plan = tracer.span("dispatch.plan", Some("query"), || {
            build_plan(coord.policy(), &chunks, qs.len(), |s, c| {
                ww.cluster().is_colocated(qs[s].id(), c, replication)
            })
        });
        let results: Mutex<Vec<Option<Vec<Tuple>>>> = Mutex::new(vec![None; chunk_sqs.len()]);
        let run = tracer.span("dispatch.execute", Some("query"), || {
            execute_plan(&plan, qs.len(), ww.config().query_workers, |s, i| {
                let (sq, c) = &chunk_sqs[i];
                let r = tracer.span("query_server.subquery", Some("dispatch.execute"), || {
                    qs[s].execute(sq, *c)
                });
                match r {
                    Ok(t) => {
                        results.lock()[i] = Some(t);
                        true
                    }
                    Err(_) => false,
                }
            })
        });
        acc.queue_peak
            .fetch_max(run.queue_depth as u64, Ordering::Relaxed);
        for r in results.into_inner() {
            answers.push(r.ok_or(waterwheel_core::WwError::InvalidState(
                "a chunk subquery found no server".into(),
            ))?);
        }
        let examined: u64 = chunk_sqs
            .iter()
            .filter_map(|(sq, c)| Some(examined_rows(index.get(c)?, &sq.keys, &sq.times)))
            .sum();
        acc.rows_examined.fetch_add(examined, Ordering::Relaxed);
        acc.subqueries
            .fetch_add(chunk_sqs.len() as u64, Ordering::Relaxed);
        Ok::<_, waterwheel_core::WwError>(answers)
    })?;
    // Replays the query servers' answer encoding on the real answers.
    let mut rows = 0;
    let start = Instant::now();
    for tuples in answers {
        let resp = Response::Tuples(tuples);
        std::hint::black_box(wire::encode_response_ok(qid, &resp));
        if let Response::Tuples(t) = resp {
            rows += t.len();
        }
    }
    let end = Instant::now();
    tracer.record_interval("net.encode_response", None, start, end);
    if tracer.enabled() {
        acc.encode_ns
            .fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
    }
    acc.queries.fetch_add(1, Ordering::Relaxed);
    acc.rows_returned.fetch_add(rows as u64, Ordering::Relaxed);
    Ok(rows)
}

/// Rows in the leaves of `idx` that a subquery over `keys` × `times`
/// must scan: those in its key range that time bounds and blooms do not
/// prune.
fn examined_rows(idx: &ChunkIndex, keys: &KeyInterval, times: &TimeInterval) -> u64 {
    if idx.leaves.is_empty() {
        return 0;
    }
    let (lo, hi) = idx.leaf_range(keys);
    (lo..=hi.min(idx.leaves.len() - 1))
        .filter(|&i| !idx.leaf_prunable(i, times))
        .map(|i| idx.leaves[i].count as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_queries_and_oracle() {
        let (a, b) = (workload(11), workload(11));
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.oracle, b.oracle);
        let shape = |w: &Workload| -> Vec<(KeyInterval, TimeInterval)> {
            w.queries.iter().map(|q| (q.keys, q.times)).collect()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(shape(&a), shape(&workload(12)));
        // Selectivity is a share of the tuples: the wider classes almost
        // always find rows, and every class has answers to check.
        let hits = |class: usize| {
            a.oracle
                .iter()
                .skip(class)
                .step_by(SELECTIVITIES.len())
                .filter(|&&n| n > 0)
                .count()
        };
        let per_class = ROTATION / SELECTIVITIES.len();
        assert!(hits(0) > per_class / 2);
        assert!(hits(1) > per_class * 9 / 10 && hits(2) > per_class * 9 / 10);
    }
}
