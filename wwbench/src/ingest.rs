//! `ingest_inproc`: the paper's ingest claim with no sockets, and no
//! queries while tuples go in.
//!
//! One producer thread inserts rounds of [`TUPLES`] Network tuples into an
//! embedded `Waterwheel` (in-process message plane, background pumps) as
//! fast as it can; a round ends when all of its tuples are visible. Rounds
//! continue one stream into one system, so event time keeps advancing and
//! every round seals the same number of chunks. The timed run reports the
//! median round, the visibility lag an observer thread sees meanwhile
//! (`visibility.rs`), and, after each round's ingest, the latency of
//! [`QUERIES_PER_ROUND`] checked queries over the tuples just ingested. The
//! traced run alternates untraced and traced rounds, both driving the
//! benchmark's own pump loop around `IndexingServer::pump`, so their
//! difference is the tracing overhead.

use crate::historic::{sorted_points, Rotation};
use crate::report::{Args, Report, TempRoot};
use crate::stats;
use crate::trace::Tracer;
use crate::{procfs, visibility};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use waterwheel_core::{
    AggregateKind, AggregateQuery, ChunkId, KeyInterval, Query, Region, ServerId, SystemConfig,
    TimeInterval, Tuple,
};
use waterwheel_net::{wire, Envelope, Request};
use waterwheel_server::{IndexingServer, SystemMetrics, Waterwheel};
use waterwheel_workloads::{NetworkConfig, NetworkGen, Rng};

/// Tuples per round.
pub const TUPLES: usize = 200_000;
/// Rounds a run makes at the least.
const MIN_ROUNDS: usize = 4;
/// Rounds per second of `--seconds`. The embedded queue keeps every tuple
/// ingested (about 110 bytes each), so the round count is fixed by the
/// arguments, not by the speed of the run: peak memory then compares
/// across runs. A round takes about half a second on a 2-core host.
const ROUNDS_PER_SECOND: f64 = 0.5;
/// Longest the check after a round waits for a flush in progress to
/// register its chunk.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Times set-up is timed; `setup_s` is the median.
const SETUPS: usize = 21;
/// Longest a round may wait for its tuples to become visible.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(60);
/// The embedded queue's topic (`Waterwheel` creates it on build).
const INGEST_TOPIC: &str = "ingest";
/// Checked queries after each round's ingest, over that round's tuples.
const QUERIES_PER_ROUND: usize = 1_000;
/// Share of a round's event-time span each of those queries covers.
const QUERY_SPAN_SHARE: f64 = 0.25;

/// The fixed configuration: system defaults (2 dispatchers, 2 indexing
/// servers, 4 query servers on 4 simulated nodes, replication 3, batches
/// of 128) with 1 MiB chunks, so a round seals about ten chunks, and
/// every chunk seal and metadata mutation fsynced.
pub fn config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.chunk_size_bytes = 1 << 20;
    cfg.durability_fsync = true;
    cfg
}

/// The input stream: Network tuples, Zipf 0.9 subnet skew, from `seed`.
pub fn stream(seed: u64) -> NetworkGen {
    NetworkGen::new(NetworkConfig {
        seed,
        subnet_skew: 0.9,
        ..NetworkConfig::default()
    })
}

/// The first `n` tuples of the stream.
pub fn tuples(seed: u64, n: usize) -> Vec<Tuple> {
    stream(seed).take(n).collect()
}

/// Which loop moves tuples from the queue into the trees.
#[derive(Clone, Copy, PartialEq)]
enum Pumps {
    /// `Waterwheel::start_pumps`: the system's own background threads.
    Background,
    /// The benchmark's loop around `IndexingServer::pump`, timing each call
    /// when the tracer is on.
    Own,
}

struct Round {
    ingest_s: f64,
    /// CPU time of the whole process while the round's tuples went in.
    cpu_ms: f64,
    /// Visibility lag of the producer's marks.
    lag_ms: Vec<f64>,
    /// Counter changes over the round.
    batches: u64,
    batch_tuples: u64,
    chunks: u64,
    summary_bytes: u64,
    fsyncs: u64,
    pumps: PumpStats,
}

#[derive(Default)]
struct PumpStats {
    /// Time and tuples of pump calls that did not flush.
    pump_ns: f64,
    pump_tuples: u64,
    /// Duration of each pump call during which a chunk was sealed.
    flush_ms: Vec<f64>,
    /// Most tuples ever appended to the queue but not yet in a tree.
    backlog_peak: u64,
}

impl PumpStats {
    fn merge(&mut self, other: &PumpStats) {
        self.pump_ns += other.pump_ns;
        self.pump_tuples += other.pump_tuples;
        self.flush_ms.extend(&other.flush_ms);
        self.backlog_peak = self.backlog_peak.max(other.backlog_peak);
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = TempRoot::new("ingest_inproc").map_err(|e| format!("scratch root: {e}"))?;
    let mut report = Report::default();

    // Set-up: make the first round's input and build an empty system. The
    // timed repeats that `setup_s` also takes its median over come after
    // the measured rounds, so they leave the rounds' memory peak alone.
    let ((ww, mut gen, mut input), setup0) = set_up(args, &scratch, 0)?;

    let rounds = ((args.seconds * ROUNDS_PER_SECOND).round() as usize).max(MIN_ROUNDS);
    let pumps = if args.trace {
        Pumps::Own
    } else {
        Pumps::Background
    };
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let tracer = Tracer::new(true);
    let untraced = Tracer::new(false);
    let mut replay: Vec<Tuple> = Vec::new();
    let (mut query_ms, mut query_s) = (Vec::new(), 0.0);
    // Newest event time of the tuples before the current round.
    let mut newest_before = 0;
    for k in 0..rounds {
        if k > 0 {
            input = (&mut gen).take(TUPLES).collect();
        }
        let ingested = (k * TUPLES) as u64;
        // The traced run alternates untraced and traced rounds.
        let traced_round = args.trace && plain.len() > traced.len();
        let t = if traced_round { &tracer } else { &untraced };
        let r = round(&ww, &input, ingested, pumps, t, &mut report)?;
        if !args.trace {
            let q = round_queries(&input, newest_before, args.seed, k);
            let start = Instant::now();
            query_ms.extend(run_queries(&ww, &q, &mut report));
            query_s += start.elapsed().as_secs_f64();
        }
        newest_before = newest_before.max(input.iter().map(|t| t.ts).max().unwrap_or(0));
        if traced_round {
            traced.push(r);
            replay = std::mem::take(&mut input);
        } else {
            plain.push(r);
        }
    }
    ww.stop_pumps();
    if args.trace {
        replay_encode(&ww, &replay, &tracer);
        layer_metrics(&ww, &plain, &traced, &tracer, &mut report);
    } else {
        let n = format!("median of {} rounds of {TUPLES} tuples", plain.len());
        let tps: Vec<f64> = plain.iter().map(|r| TUPLES as f64 / r.ingest_s).collect();
        report.metric_with("ingest_tps", "1/s", stats::median(&tps).unwrap_or(0.0), n);
        let cpu_ms: f64 = plain.iter().map(|r| r.cpu_ms).sum();
        report.metric_with(
            "cpu_ms_per_ktuple",
            "ms",
            cpu_ms / (plain.len() * TUPLES) as f64 * 1e3,
            "whole process while tuples went in".into(),
        );
        // Each round is its own closed-loop burst whose tail is the backlog
        // left when the producer stops; the median round's p99 keeps a host
        // stall during one round from setting the run's figure.
        let lags: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.lag_ms.iter().copied())
            .collect();
        let whole = stats::tail(&lags, 99.0).map_or(0.0, |t| t.value);
        match stats::median_p99(plain.iter().map(|r| &r.lag_ms[..])) {
            Some((lag, n)) => report.metric_with(
                "visible_lag_p99_ms",
                "ms",
                lag,
                format!(
                    "median over {n} rounds of each round's p99 of {} marks; whole run {whole:.1} ms",
                    TUPLES / visibility::MARK_EVERY
                ),
            ),
            None => report.fail("no round supports a p99 lag".into()),
        }
        report.latency("query_p50_ms", "query_p99_ms", &query_ms);
        report.metric_with(
            "query_qps",
            "1/s",
            query_ms.len() as f64 / query_s,
            format!("{} queries after the rounds, one client", query_ms.len()),
        );
        let (bytes, stored) = stored_bytes(&ww)?;
        report.metric_with(
            "stored_bytes_per_tuple",
            "B",
            bytes as f64 / stored.max(1) as f64,
            format!("{stored} tuples in chunks"),
        );
        report.metric("rss_peak_mb", "MB", procfs::rss_peak_mb(std::process::id()));
        drop(ww);
        let mut setup_s = vec![setup0];
        for k in 1..SETUPS {
            setup_s.push(set_up(args, &scratch, k)?.1);
        }
        report.metric_with(
            "setup_s",
            "s",
            stats::median(&setup_s).unwrap_or(0.0),
            format!("median of {SETUPS} builds"),
        );
    }
    Ok(report)
}

/// The system, the rest of the input stream and the first round's input.
type SetUp = (Waterwheel, NetworkGen, Vec<Tuple>);

/// Makes the first round's input and builds an empty system on a fresh
/// root, with background pumps unless tracing; returns them with the
/// seconds taken.
fn set_up(args: &Args, scratch: &TempRoot, k: usize) -> Result<(SetUp, f64), String> {
    let t = Instant::now();
    let mut gen = stream(args.seed);
    let first: Vec<Tuple> = (&mut gen).take(TUPLES).collect();
    let ww = Waterwheel::builder(scratch.fresh(&format!("setup-{k}")))
        .config(config())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    if !args.trace {
        ww.start_pumps();
    }
    Ok(((ww, gen, first), t.elapsed().as_secs_f64()))
}

/// Chunk bytes on disk (one replica) and the tuples they hold.
pub fn stored_bytes(ww: &Waterwheel) -> Result<(u64, u64), String> {
    let (mut bytes, mut stored) = (0u64, 0u64);
    for (id, _) in ww.metadata().chunks_overlapping(&Region::full()) {
        bytes += chunk_len(ww, id)?;
        stored += ww.metadata().chunk_info(id).map_or(0, |i| i.count);
    }
    Ok((bytes, stored))
}

fn chunk_len(ww: &Waterwheel, id: ChunkId) -> Result<u64, String> {
    ww.dfs()
        .chunk_len(id)
        .map_err(|e| format!("chunk {id:?}: {e}"))
}

/// One round: insert `input` into a system already holding `before`
/// tuples, wait until all are visible, then check the visible count and a
/// full-range COUNT. An observer thread measures the visibility lag
/// meanwhile.
fn round(
    ww: &Waterwheel,
    input: &[Tuple],
    before: u64,
    pumps: Pumps,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Round, String> {
    let expected = before as usize + input.len();
    let m0 = SystemMetrics::collect(ww);
    let stop = AtomicBool::new(false);
    let mut pump_stats = PumpStats::default();
    let cpu0 = procfs::own_cpu_ms();
    let ((ingest_s, failures), lag_ms) = std::thread::scope(|s| {
        let mut loops = Vec::new();
        if pumps == Pumps::Own {
            for (i, server) in ww.indexing_servers().into_iter().enumerate() {
                let stop = &stop;
                // The first loop also samples the queue backlog.
                loops.push(s.spawn(move || pump_loop(ww, &server, i == 0, tracer, stop)));
            }
            let stop = &stop;
            s.spawn(move || {
                let linger = ww.config().ingest_linger.max(Duration::from_millis(1));
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(linger);
                    for d in ww.dispatchers() {
                        let _ = d.flush_lingering();
                    }
                }
            });
        }
        let out = visibility::observed(ww, || {
            let (r, f, marks) = produce(ww, input, expected, tracer);
            ((r, f), marks)
        });
        stop.store(true, Ordering::Relaxed);
        for l in loops {
            pump_stats.merge(&l.join().expect("pump loop panicked"));
        }
        out
    });
    let cpu_ms = procfs::own_cpu_ms() - cpu0;
    for e in failures {
        report.fail(e);
    }
    report.attempted += input.len() as u64;
    let ingest_s = ingest_s?;

    // Correctness: every tuple visible, and the aggregate path agrees. The
    // pump call that took the round's last tuples may still be sealing a
    // chunk, whose tuples are counted again once it registers.
    let settle = Instant::now();
    let mut visible = ww.total_visible();
    while visible != expected && settle.elapsed() < SETTLE_TIMEOUT {
        std::thread::sleep(Duration::from_millis(1));
        visible = ww.total_visible();
    }
    report.check(visible == expected, || {
        format!("{visible} tuples visible after ingesting {expected}")
    });
    let full = Query::range(KeyInterval::full(), TimeInterval::full());
    let count = ww
        .aggregate(&AggregateQuery {
            query: full,
            kind: AggregateKind::Count,
        })
        .map(|a| a.agg.count);
    report.check(count.as_ref().is_ok_and(|&c| c == expected as u64), || {
        format!("full-range COUNT answered {count:?}, expected {expected}")
    });
    let m1 = SystemMetrics::collect(ww);
    let d = |f: fn(&SystemMetrics) -> u64| f(&m1) - f(&m0);
    Ok(Round {
        ingest_s,
        cpu_ms,
        lag_ms,
        batches: d(|m| m.rpc_batches_sent),
        batch_tuples: d(|m| m.ingest_batch_tuples),
        chunks: d(|m| m.chunks_flushed),
        summary_bytes: d(|m| m.summary_bytes_flushed),
        fsyncs: d(|m| m.wal_fsyncs),
        pumps: pump_stats,
    })
}

/// Outcome of a producer: elapsed seconds, failed inserts, and the time
/// every [`visibility::MARK_EVERY`]-th insert returned with the count of
/// tuples in the system by then.
type Produced = (Result<f64, String>, Vec<String>, Vec<(Instant, usize)>);

/// The producer: inserts every tuple, pushes out the partial batches, and
/// waits until `expected` tuples are visible.
fn produce(ww: &Waterwheel, input: &[Tuple], expected: usize, tracer: &Tracer) -> Produced {
    let mut failures = Vec::new();
    let mut marks = Vec::with_capacity(input.len() / visibility::MARK_EVERY + 1);
    let before = expected - input.len();
    let t0 = Instant::now();
    for (i, t) in input.iter().enumerate() {
        let r = tracer.span("dispatcher.insert", None, || ww.insert(t.clone()));
        if let Err(e) = r {
            failures.push(format!("insert {i}: {e}"));
        }
        if (i + 1) % visibility::MARK_EVERY == 0 {
            marks.push((Instant::now(), before + i + 1));
        }
    }
    let tail = tracer.span("bench.flush_tail", None, || ww.flush_ingest_batches());
    if let Err(e) = tail {
        failures.push(format!("flushing partial batches: {e}"));
    }
    let visible = tracer.span("bench.await_visible", None, || {
        while ww.total_visible() < expected {
            if t0.elapsed() > VISIBLE_TIMEOUT {
                return Err(format!(
                    "only {} of {expected} tuples visible after {VISIBLE_TIMEOUT:?}",
                    ww.total_visible(),
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    });
    (
        visible.map(|()| t0.elapsed().as_secs_f64()),
        failures,
        marks,
    )
}

/// The checked queries after one round: time windows of
/// [`QUERY_SPAN_SHARE`] of the round's event-time span, all newer than
/// every earlier round's tuples, so each oracle count comes from the
/// round's own input.
fn round_queries(input: &[Tuple], newest_before: u64, seed: u64, round: usize) -> Rotation {
    let sorted = sorted_points(input.iter());
    let ts = || input.iter().map(|t| t.ts);
    let first = ts().min().unwrap_or(0).max(newest_before + 1);
    let last = ts().max().unwrap_or(0).max(first);
    let width = ((last - first) as f64 * QUERY_SPAN_SHARE) as u64;
    let mut rng = Rng::new(seed ^ 0x494e_4751 ^ ((round as u64) << 32));
    Rotation::new(
        &sorted,
        QUERIES_PER_ROUND,
        (first, last - width),
        width,
        &mut rng,
    )
}

/// Runs every query of `rotation` once, closed loop, checks its row
/// count, and returns the latencies in milliseconds.
fn run_queries(ww: &Waterwheel, rotation: &Rotation, report: &mut Report) -> Vec<f64> {
    let mut lat = Vec::with_capacity(rotation.queries.len());
    for (q, &want) in rotation.queries.iter().zip(&rotation.oracle) {
        let t = Instant::now();
        let rows = ww.query(q).map(|r| r.tuples.len());
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(rows.as_ref().is_ok_and(|&n| n == want), || {
            format!("query {q:?} answered {rows:?} rows, oracle {want}")
        });
    }
    lat
}

/// The benchmark's pump loop for one indexing server: the same shape as
/// the system's background pump, with each call timed when tracing.
fn pump_loop(
    ww: &Waterwheel,
    server: &IndexingServer,
    sample_backlog: bool,
    tracer: &Tracer,
    stop: &AtomicBool,
) -> PumpStats {
    let mut st = PumpStats::default();
    while !stop.load(Ordering::Relaxed) {
        let flushed_before = server.stats().chunks_flushed.load(Ordering::Relaxed);
        let start = Instant::now();
        let n = server.pump(1_024).unwrap_or(0);
        let end = Instant::now();
        if tracer.enabled() {
            let flushed = server.stats().chunks_flushed.load(Ordering::Relaxed) != flushed_before;
            let name = if flushed {
                st.flush_ms.push((end - start).as_secs_f64() * 1e3);
                "indexing.flush"
            } else {
                st.pump_ns += (end - start).as_nanos() as f64;
                st.pump_tuples += n as u64;
                "indexing.pump"
            };
            if flushed || n > 0 {
                tracer.record_interval(name, Some("indexing.pump_loop"), start, end);
            }
            if sample_backlog {
                st.backlog_peak = st.backlog_peak.max(backlog(ww));
            }
        }
        if n == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    st
}

/// Tuples appended to the queue but not yet taken into a tree.
fn backlog(ww: &Waterwheel) -> u64 {
    let servers = ww.indexing_servers();
    let appended: u64 = (0..servers.len())
        .filter_map(|p| ww.message_queue().latest_offset(INGEST_TOPIC, p).ok())
        .sum();
    let taken: u64 = servers
        .iter()
        .map(|s| {
            s.stats().ingested.load(Ordering::Relaxed)
                + s.stats().side_stored.load(Ordering::Relaxed)
        })
        .sum();
    appended.saturating_sub(taken)
}

/// Re-encodes one round's tuples as the dispatcher → indexing batch
/// envelopes the in-process plane encodes to count bytes.
fn replay_encode(ww: &Waterwheel, input: &[Tuple], tracer: &Tracer) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let envelopes: Vec<Envelope> = input
        .chunks(ww.config().ingest_batch_size.max(1))
        .enumerate()
        .map(|(i, batch)| Envelope {
            src: ServerId(2_000),
            dst: ServerId(0),
            rpc_id: i as u64,
            deadline,
            payload: Request::IngestBatch {
                seq: i as u64,
                tuples: batch.to_vec(),
            },
        })
        .collect();
    for (i, env) in envelopes.iter().enumerate() {
        let frame = tracer.span("net.encode_request", Some("bench.replay"), || {
            wire::encode_request(i as u64, env)
        });
        std::hint::black_box(frame);
    }
}

fn layer_metrics(
    ww: &Waterwheel,
    plain: &[Round],
    traced: &[Round],
    tracer: &Tracer,
    report: &mut Report,
) {
    let rounds = traced.len() as f64;
    let sum = |f: fn(&Round) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let mut pumps = PumpStats::default();
    for r in traced {
        pumps.merge(&r.pumps);
    }
    report.metric_with(
        "dispatcher.insert_ns_per_tuple",
        "ns",
        stats::mean(&tracer.durations_ns("dispatcher.insert")).unwrap_or(0.0),
        format!("{} traced rounds of {TUPLES} tuples", traced.len()),
    );
    report.metric(
        "dispatcher.tuples_per_batch",
        "count",
        sum(|r| r.batch_tuples) / sum(|r| r.batches).max(1.0),
    );
    // The plane's latency histograms cover every round of the run.
    let latencies = ww.rpc_latencies();
    let batch = latencies.iter().find(|l| l.kind == "ingest_batch");
    let detail = format!(
        "histogram bucket bound over {} calls, all rounds",
        batch.map_or(0, |l| l.count)
    );
    report.metric_with(
        "net.ingest_batch_rpc_p50_us",
        "us",
        batch.map_or(0.0, |l| l.p50.as_secs_f64() * 1e6),
        detail.clone(),
    );
    report.metric_with(
        "net.ingest_batch_rpc_p99_us",
        "us",
        batch.map_or(0.0, |l| l.p99.as_secs_f64() * 1e6),
        detail,
    );
    let meta_calls = latencies
        .iter()
        .find(|l| l.kind == "meta")
        .map_or(0, |l| l.count) as f64;
    let all_tuples = ((plain.len() + traced.len()) * TUPLES) as f64;
    report.metric(
        "net.meta_rpcs_per_ktuple",
        "count",
        meta_calls / (all_tuples / 1e3),
    );
    let encode_ns: f64 = tracer.durations_ns("net.encode_request").iter().sum();
    report.metric("net.encode_ns_per_tuple", "ns", encode_ns / TUPLES as f64);
    report.metric(
        "indexing.pump_ns_per_tuple",
        "ns",
        pumps.pump_ns / pumps.pump_tuples.max(1) as f64,
    );
    let flush_ms = &pumps.flush_ms;
    report.metric_with(
        "indexing.flush_ms_p50",
        "ms",
        stats::median(flush_ms).unwrap_or(0.0),
        format!("{} flushes", flush_ms.len()),
    );
    report.metric(
        "indexing.flush_ms_max",
        "ms",
        flush_ms.iter().copied().fold(0.0, f64::max),
    );
    report.metric("indexing.flushes", "count", flush_ms.len() as f64 / rounds);
    report.metric(
        "indexing.backlog_peak_tuples",
        "count",
        pumps.backlog_peak as f64,
    );
    let chunks = sum(|r| r.chunks).max(1.0);
    report.metric(
        "agg.summary_bytes_per_chunk",
        "B",
        sum(|r| r.summary_bytes) / chunks,
    );
    report.metric(
        "storage.fsyncs_per_chunk",
        "count",
        sum(|r| r.fsyncs) / chunks,
    );
    let lags: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.lag_ms.iter().copied())
        .collect();
    report.median_ms("visible_lag_p50_ms", &lags);
    report.metric("ops_failed_ratio", "ratio", report.failed_ratio());
    let traced_wall_ns: f64 = traced.iter().map(|r| r.ingest_s * 1e9).sum();
    report.metric(
        "trace.span_coverage",
        "ratio",
        tracer.top_level_ns() / traced_wall_ns.max(1.0),
    );
    let med = |rs: &[Round]| stats::median(&rs.iter().map(|r| r.ingest_s).collect::<Vec<_>>());
    let (base, with) = (med(plain).unwrap_or(0.0), med(traced).unwrap_or(0.0));
    report.metric_with(
        "trace.overhead_pct",
        "%",
        (with / base - 1.0) * 100.0,
        format!("round time traced {with:.3} s vs untraced {base:.3} s"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input() {
        assert_eq!(tuples(5, 2_000), tuples(5, 2_000));
        assert_ne!(tuples(5, 2_000), tuples(6, 2_000));
    }

    #[test]
    fn round_queries_stay_inside_their_round() {
        let all = tuples(5, 4_000);
        let (a, b) = all.split_at(2_000);
        let newest = a.iter().map(|t| t.ts).max().unwrap();
        let q = round_queries(b, newest, 5, 1);
        assert_eq!(q.oracle, round_queries(b, newest, 5, 1).oracle);
        assert!(q.queries.iter().all(|q| q.times.lo() > newest));
        // Counted over the whole stream, each oracle is the same: no
        // earlier tuple falls inside a round's query.
        for (q, &n) in q.queries.iter().zip(&q.oracle) {
            let whole = all
                .iter()
                .filter(|t| q.keys.contains(t.key) && q.times.contains(t.ts))
                .count();
            assert_eq!(whole, n);
        }
        assert!(q.oracle.iter().filter(|&&n| n > 0).count() > QUERIES_PER_ROUND / 2);
    }
}
