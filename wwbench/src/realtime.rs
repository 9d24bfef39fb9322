//! `realtime_cluster`: writes beside reads on the deployment the paper
//! describes, and how soon a written tuple can be read.
//!
//! A `ClusterSpec` cluster runs one meta, one indexing, one query and one
//! dispatcher/coordinator process over TCP, each a copy of this binary.
//! Two threads drive it open loop on a fixed schedule:
//!
//! * the sender issues `insert_batch` every [`BATCH_EVERY`] at [`RATE`]
//!   tuples/s, event time tracking wall time; each batch carries one probe
//!   tuple on [`PROBE_KEY`], outside the IPv4 key domain, whose payload is
//!   the batch number;
//! * the querier, every [`QUERY_EVERY`], asks for the last five seconds of
//!   a key range of selectivity 0.01, then for the probe key.
//!
//! Every latency counts from the request's due time, so a stall also
//! delays the requests queued behind it. A tuple's visibility lag is the
//! probe answer's arrival minus the scheduled creation of the newest probe
//! in it; an answer with no probe counts the time since the oldest probe
//! its window could hold was due, a lower bound. CPU time, context
//! switches and peak memory of the role processes come from `/proc`.
//!
//! The open-loop window takes [`OPEN_SHARE`] of `--seconds`. After it the
//! cluster is flushed and checked; in the timed run [`AFTER_CLIENTS`]
//! clients then spend the rest of `--seconds` closed loop on checked
//! five-second range queries over everything ingested, over TCP. Their
//! latency is this workload's `query_*`: timed beside the writes, the
//! open-loop queries varied too much between runs on a shared two-core
//! host to hold a regression bound (see README).

use crate::historic::{key_range_by_share, sorted_points, stratified, Rotation, KEY_STEP};
use crate::procfs;
use crate::report::{Args, Report, TempRoot};
use crate::stats;
use crate::trace::Tracer;
use bytes::Bytes;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use waterwheel_core::{AggregateKind, KeyInterval, TimeInterval, Tuple};
use waterwheel_node::{ClusterHandle, ClusterSpec};
use waterwheel_workloads::{NetworkConfig, NetworkGen, Rng};

/// Offered ingest rate, tuples/s: about a third of what the same sender
/// reaches closed loop (no pause between batches) on two cores.
pub const RATE: u64 = 50_000;
/// Interval between ingest batches.
pub const BATCH_EVERY: Duration = Duration::from_millis(2);
/// Tuples per batch, not counting its probe.
pub const PER_BATCH: usize = (RATE as u128 * BATCH_EVERY.as_millis() / 1_000) as usize;
/// Interval between query ticks.
pub const QUERY_EVERY: Duration = Duration::from_millis(12);
/// Width of the recent window every query asks for.
const RECENT_MS: u64 = 5_000;
/// Key selectivity of the range queries, as a share of the stream's tuples.
const SELECTIVITY: f64 = 0.01;
/// The probes' key: above every IPv4 key, so range queries never see it.
pub const PROBE_KEY: u64 = 1 << 40;
/// A run whose sender started its batches later than this (p99) after
/// they were due and the previous ack was back measured the generator,
/// not the system, and is reported invalid.
const LATE_BOUND_MS: f64 = 50.0;
/// Times the cluster is launched; `setup_s` is the median.
const LAUNCHES: usize = 15;
/// Event time of the first tuple (`NetworkGen`'s clock start).
const EVENT_T0: u64 = 1_000_000;
/// Share of `--seconds` the open-loop window takes; the rest goes to the
/// closed-loop queries after it.
const OPEN_SHARE: f64 = 0.6;
/// Queries in the rotation of the closed-loop phase.
const AFTER_ROTATION: usize = 999;
/// Client threads of the closed-loop phase.
const AFTER_CLIENTS: usize = 2;

/// The fixed cluster: one process per role, 2 indexing, 2 query servers and
/// 2 dispatchers over 4 simulated nodes, 1 MiB chunks, fsynced commits,
/// system-default replication (3) and 500 ms heartbeats.
pub fn spec(root: PathBuf) -> ClusterSpec {
    let mut spec = ClusterSpec::new(root);
    spec.indexing_servers = 2;
    spec.query_servers = 2;
    spec.dispatchers = 2;
    spec.nodes = 4;
    spec.chunk_size_bytes = 1 << 20;
    spec.durability_fsync = true;
    spec
}

/// The ingest stream from `seed`: Network tuples, Zipf 0.9 subnet skew,
/// `RATE` records per second of event time.
pub fn stream(seed: u64) -> NetworkGen {
    NetworkGen::new(NetworkConfig {
        seed,
        subnet_skew: 0.9,
        records_per_sec: RATE,
        ..NetworkConfig::default()
    })
}

/// Tuples of the stream sampled to place the range queries' keys.
const KEY_SAMPLE: usize = 200_000;

/// The key ranges of the query ticks, in tick order: each holds a
/// [`SELECTIVITY`] share of the stream's tuples in key order (measured on
/// the stream's first [`KEY_SAMPLE`] tuples; subnet popularity does not
/// drift), at low-discrepancy positions as in `query_historic`.
pub fn key_ranges(seed: u64, n: usize) -> Vec<KeyInterval> {
    let mut keys: Vec<u64> = stream(seed).take(KEY_SAMPLE).map(|t| t.key).collect();
    keys.sort_unstable();
    let u = Rng::new(seed ^ 0x5245_4345_4e54).next_f64();
    (0..n)
        .map(|j| key_range_by_share(&keys, SELECTIVITY, stratified(u, j, KEY_STEP)))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// What the sender saw.
#[derive(Default)]
struct Sent {
    late_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    acked: u64,
    batches: u64,
    last_ack: Option<Instant>,
    errors: Vec<String>,
    /// Traced batches: time inside spans, and from due time to ack.
    covered_ns: f64,
    elapsed_ns: f64,
}

/// What the querier saw.
#[derive(Default)]
struct Queried {
    fresh_ms: Vec<f64>,
    fresh_traced_ms: Vec<f64>,
    fresh_untraced_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Lag samples that are lower bounds: no probe was visible at all.
    lag_censored: u64,
    queries: u64,
    errors: Vec<String>,
    covered_ns: f64,
    elapsed_ns: f64,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scratch = TempRoot::new("realtime_cluster").map_err(|e| format!("scratch root: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut report = Report::default();

    // Set-up, repeated: launch the cluster and retire it, keeping the last.
    // A set-up cluster holds no data, so dropping it (which kills and reaps
    // its processes) retires it without a graceful shutdown's wait.
    let mut setup_s = Vec::new();
    let mut cluster: Option<ClusterHandle> = None;
    let mut root = PathBuf::new();
    for k in 0..LAUNCHES {
        drop(cluster.take());
        let t = Instant::now();
        root = scratch.fresh(&format!("cluster-{k}"));
        let c = spec(root.clone())
            .launch(&exe)
            .map_err(|e| format!("launch: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one launch");
    if std::env::var_os("WWBENCH_PANIC_AFTER_LAUNCH").is_some() {
        // Lets the benchmark's own tests check that a panic mid-run still
        // reaps every role process.
        panic!("WWBENCH_PANIC_AFTER_LAUNCH is set");
    }
    let me = std::process::id();
    let roles = procfs::role_children(me);
    if roles.len() != 4 {
        return Err(format!("expected 4 role processes, found {roles:?}"));
    }

    let window = Duration::from_secs_f64(args.seconds * OPEN_SHARE);
    let ticks = (window.as_nanos() / QUERY_EVERY.as_nanos()) as usize + 1;
    let ranges = key_ranges(args.seed, ticks);
    let (on, off) = (Tracer::new(true), Tracer::new(false));
    // In the traced run every other batch and tick is traced, so traced
    // and untraced requests meet the same cluster state.
    let tracer = |i: u64| {
        if args.trace && i.is_multiple_of(2) {
            &on
        } else {
            &off
        }
    };

    let cpu0: Vec<f64> = roles.iter().map(|(_, p)| procfs::cpu_ms(*p)).collect();
    let ctx0: Vec<u64> = roles.iter().map(|(_, p)| ctx(*p)).collect();
    let bench_cpu0 = procfs::cpu_ms(me);
    let started_seq = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let t_end = t0 + window;
    let (sent, queried) = std::thread::scope(|s| {
        let sender = s.spawn(|| send(&cluster, args.seed, t0, t_end, &started_seq, &tracer));
        let querier = s.spawn(|| query(&cluster, &ranges, t0, t_end, &started_seq, &tracer));
        (
            sender.join().expect("sender panicked"),
            querier.join().expect("querier panicked"),
        )
    });
    let cpu1: Vec<f64> = roles.iter().map(|(_, p)| procfs::cpu_ms(*p)).collect();
    let ctx1: Vec<u64> = roles.iter().map(|(_, p)| ctx(*p)).collect();
    let bench_cpu = procfs::cpu_ms(me) - bench_cpu0;

    report.attempted += sent.batches + queried.queries * 2;
    for e in sent.errors.iter().chain(&queried.errors) {
        report.fail(e.clone());
    }
    // After the run: flush, then every tuple sent (probes included) must
    // be counted exactly once.
    let client = cluster.client();
    let count = client.flush().and_then(|()| {
        client.aggregate(
            KeyInterval::full(),
            TimeInterval::full(),
            AggregateKind::Count,
        )
    });
    let count = count.map(|a| a.agg.count);
    report.check(count.as_ref().is_ok_and(|&c| c == sent.acked), || {
        format!(
            "full-range COUNT after flush answered {count:?}, sent {}",
            sent.acked
        )
    });
    let mut after_s = 0.0;
    let after_ms = if args.trace {
        Vec::new()
    } else {
        let stream_tuples = sent.batches as usize * PER_BATCH;
        let q = after_queries(args.seed, stream_tuples);
        let budget = Duration::from_secs_f64(args.seconds) - window;
        let start = Instant::now();
        let lat = run_after(&cluster, &q, budget, &mut report);
        after_s = start.elapsed().as_secs_f64();
        lat
    };
    let hwm_mb: Vec<f64> = roles.iter().map(|(_, p)| procfs::rss_peak_mb(*p)).collect();
    if let Err(e) = cluster.shutdown() {
        eprintln!("wwbench: retiring the cluster: {e}");
    }

    let late = stats::tail(&sent.late_ms, 99.0);
    let late_p99 = late.map_or(f64::INFINITY, |t| t.value);
    if late_p99 > LATE_BOUND_MS {
        return Err(format!(
            "invalid run: the sender started its batches {late_p99:.1} ms late (p99), \
             past its {LATE_BOUND_MS} ms bound; the generator, not the system, set the pace"
        ));
    }
    let ktuples = sent.acked.max(1) as f64 / 1e3;
    if args.trace {
        let by_role = |role: &str| roles.iter().position(|(r, _)| r == role);
        for role in ["meta", "indexing", "query", "dispatcher"] {
            let Some(i) = by_role(role) else { continue };
            report.metric(
                format!("node.cpu_ms_per_ktuple.{role}"),
                "ms",
                (cpu1[i] - cpu0[i]) / ktuples,
            );
        }
        for role in ["indexing", "dispatcher"] {
            let Some(i) = by_role(role) else { continue };
            report.metric_with(
                format!("node.ctx_switches_per_ktuple.{role}"),
                "count",
                ctx1[i].saturating_sub(ctx0[i]) as f64 / ktuples,
                "threads alive at the end of the window".into(),
            );
        }
        for role in ["meta", "indexing", "query", "dispatcher"] {
            let Some(i) = by_role(role) else { continue };
            report.metric(format!("node.rss_peak_mb.{role}"), "MB", hwm_mb[i]);
        }
        let traced_p50 = |name: &str| {
            let v: Vec<f64> = on.durations_ns(name).iter().map(|ns| ns / 1e6).collect();
            stats::median(&v).unwrap_or(0.0)
        };
        let ack = stats::tail(&sent.ack_ms, 50.0);
        let ack99 = stats::tail(&sent.ack_ms, 99.0);
        report.metric_with(
            "net.ingest_ack_p50_ms",
            "ms",
            ack.map_or(0.0, |t| t.value),
            format!("from due time, {} batches", sent.ack_ms.len()),
        );
        report.metric_with(
            "net.ingest_ack_p99_ms",
            "ms",
            ack99.map_or(0.0, |t| t.value),
            ack99.map_or(String::new(), |t| format!("p{} of {}", t.pct, t.n)),
        );
        report.metric(
            "coordinator.probe_query_p50_ms",
            "ms",
            traced_p50("coordinator.probe_query"),
        );
        report.metric(
            "coordinator.range_query_p50_ms",
            "ms",
            traced_p50("coordinator.range_query"),
        );
        report.metric_with(
            "bench.gen_late_p99_ms",
            "ms",
            late_p99,
            late.map_or(String::new(), |t| format!("p{} of {}", t.pct, t.n)),
        );
        report.metric("bench.cpu_ms_per_ktuple", "ms", bench_cpu / ktuples);
        // Too unsteady on a shared 2-vCPU host to carry a regression bound
        // (see README), so reported with the per-layer numbers.
        report.median_ms("visible_lag_p50_ms", &queried.lag_ms);
        report.latency(
            "fresh_query_p50_ms",
            "fresh_query_p99_ms",
            &queried.fresh_ms,
        );
        report.metric("ops_failed_ratio", "ratio", report.failed_ratio());
        report.metric(
            "trace.span_coverage",
            "ratio",
            (sent.covered_ns + queried.covered_ns) / (sent.elapsed_ns + queried.elapsed_ns),
        );
        let (b, t) = (
            stats::mean(&queried.fresh_untraced_ms).unwrap_or(0.0),
            stats::mean(&queried.fresh_traced_ms).unwrap_or(0.0),
        );
        report.metric_with(
            "trace.overhead_pct",
            "%",
            (t / b - 1.0) * 100.0,
            format!("mean fresh query {t:.3} ms traced vs {b:.3} ms untraced"),
        );
    } else {
        report.metric_with(
            "setup_s",
            "s",
            stats::median(&setup_s).unwrap_or(0.0),
            format!("median of {LAUNCHES} cluster launches"),
        );
        report.p99_ms(
            "visible_lag_p99_ms",
            &queried.lag_ms,
            format!(", {} with no probe visible", queried.lag_censored),
        );
        let span = sent.last_ack.map_or(0.0, |t| (t - t0).as_secs_f64());
        report.metric_with(
            "ingest_tps",
            "1/s",
            sent.acked as f64 / span,
            format!("open loop at {RATE}/s offered, first due time to last ack"),
        );
        let bytes = chunk_file_bytes(&root);
        if bytes == 0 {
            report.fail(format!("no chunk files under {}", root.display()));
        }
        report.metric_with(
            "stored_bytes_per_tuple",
            "B",
            bytes as f64 / sent.acked.max(1) as f64,
            format!("chunk files after the flush, {} tuples", sent.acked),
        );
        report.latency("query_p50_ms", "query_p99_ms", &after_ms);
        report.metric_with(
            "query_qps",
            "1/s",
            after_ms.len() as f64 / after_s,
            format!(
                "{} queries after the window, {AFTER_CLIENTS} clients",
                after_ms.len()
            ),
        );
        let role_cpu: f64 = cpu1.iter().zip(&cpu0).map(|(a, b)| a - b).sum();
        report.metric_with(
            "cpu_ms_per_ktuple",
            "ms",
            role_cpu / ktuples,
            format!("all role processes, {} tuples", sent.acked),
        );
        report.metric_with(
            "rss_peak_mb",
            "MB",
            hwm_mb.iter().sum(),
            "sum of role processes' VmHWM".into(),
        );
    }
    Ok(report)
}

/// Bytes of the chunk files (`chunk-*.ww`, one per chunk whatever its
/// replication) under `dir`.
fn chunk_file_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut bytes = 0;
    for e in entries.flatten() {
        let Ok(kind) = e.file_type() else { continue };
        let name = e.file_name();
        let name = name.to_string_lossy();
        if kind.is_dir() {
            bytes += chunk_file_bytes(&e.path());
        } else if kind.is_file() && name.starts_with("chunk-") && name.ends_with(".ww") {
            bytes += e.metadata().map_or(0, |m| m.len());
        }
    }
    bytes
}

/// The rotation of the closed-loop phase after the window: five-second
/// range queries over the first `sent` tuples of the seed's stream.
fn after_queries(seed: u64, sent: usize) -> Rotation {
    let sent: Vec<Tuple> = stream(seed).take(sent).collect();
    let sorted = sorted_points(sent.iter());
    let last = sorted.iter().map(|&(_, ts)| ts).max().unwrap_or(EVENT_T0);
    let latest = last.saturating_sub(RECENT_MS).max(EVENT_T0);
    let mut rng = Rng::new(seed ^ 0x0041_4654_4552);
    Rotation::new(
        &sorted,
        AFTER_ROTATION,
        (EVENT_T0, latest),
        RECENT_MS,
        &mut rng,
    )
}

/// Runs `rotation` from [`AFTER_CLIENTS`] clients, each from its own
/// offset, until `budget` has passed; checks every row count and returns
/// the latencies in milliseconds.
fn run_after(
    cluster: &ClusterHandle,
    rotation: &Rotation,
    budget: Duration,
    report: &mut Report,
) -> Vec<f64> {
    let start = Instant::now();
    let n = rotation.queries.len();
    let runs: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..AFTER_CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let client = cluster.client();
                    let (mut lat, mut errors) = (Vec::new(), Vec::new());
                    for j in 0.. {
                        if start.elapsed() >= budget {
                            break;
                        }
                        let i = (c * n / AFTER_CLIENTS + j) % n;
                        let q = &rotation.queries[i];
                        let t = Instant::now();
                        let rows = client.query(q.keys, q.times).map(|r| r.tuples.len());
                        lat.push(ms(t.elapsed()));
                        if !rows.as_ref().is_ok_and(|&r| r == rotation.oracle[i]) {
                            errors.push(format!(
                                "after-window query {i} answered {rows:?} rows, oracle {}",
                                rotation.oracle[i]
                            ));
                        }
                    }
                    (lat, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for (lat, errors) in runs {
        report.attempted += lat.len() as u64;
        all.extend(lat);
        for e in errors {
            report.fail(e);
        }
    }
    all
}

fn ctx(pid: u32) -> u64 {
    procfs::status(pid).map_or(0, |s| s.ctx_switches)
}

/// The sender: one batch (plus its probe) per [`BATCH_EVERY`] until
/// `t_end`, each timed from its due time.
fn send<'t>(
    cluster: &ClusterHandle,
    seed: u64,
    t0: Instant,
    t_end: Instant,
    started_seq: &AtomicU64,
    tracer: &impl Fn(u64) -> &'t Tracer,
) -> Sent {
    let client = cluster.ingest_client(0);
    let mut gen = stream(seed);
    let mut out = Sent::default();
    let mut prev_end = t0;
    for k in 0u64.. {
        let due = t0 + BATCH_EVERY * k as u32;
        if due >= t_end {
            break;
        }
        let mut batch: Vec<Tuple> = (&mut gen).take(PER_BATCH).collect();
        let ts = batch.last().map_or(EVENT_T0, |t| t.ts);
        batch.push(Tuple::new(
            PROBE_KEY,
            ts,
            Bytes::from(k.to_le_bytes().to_vec()),
        ));
        let n = batch.len() as u64;
        // The sender may start once the batch is due and the previous ack
        // is back; lateness beyond that point is the generator's own. (An
        // ack that returns after the next due time delays that batch too,
        // and its ack latency, timed from its due time, shows it.)
        let free = due.max(prev_end);
        sleep_until(due);
        let start = Instant::now();
        out.late_ms.push(ms(start.saturating_duration_since(free)));
        started_seq.store(k + 1, Ordering::SeqCst);
        let tr = tracer(k);
        let r = tr.span("net.ingest_batch", None, || client.insert_batch(batch));
        let end = Instant::now();
        prev_end = end;
        out.ack_ms.push(ms(end - due));
        if tr.enabled() {
            out.covered_ns += (end - start).as_nanos() as f64;
            out.elapsed_ns += (end - due).as_nanos() as f64;
        }
        out.batches += 1;
        match r {
            Ok(acked) if acked as u64 == n => {
                out.acked += n;
                out.last_ack = Some(end);
            }
            Ok(acked) => out
                .errors
                .push(format!("batch {k}: {acked} of {n} tuples acked")),
            Err(e) => out.errors.push(format!("batch {k}: {e}")),
        }
    }
    out
}

/// The querier: per [`QUERY_EVERY`] tick, a recent-window range query
/// and a probe query, each answer checked.
fn query<'t>(
    cluster: &ClusterHandle,
    ranges: &[KeyInterval],
    t0: Instant,
    t_end: Instant,
    started_seq: &AtomicU64,
    tracer: &impl Fn(u64) -> &'t Tracer,
) -> Queried {
    let client = cluster.client();
    let probe_keys = KeyInterval::new(PROBE_KEY, PROBE_KEY);
    let mut out = Queried::default();
    for (j, &keys) in ranges.iter().enumerate() {
        let due = t0 + QUERY_EVERY * j as u32;
        if due >= t_end {
            break;
        }
        sleep_until(due);
        let start = Instant::now();
        let now_ev = EVENT_T0 + (due - t0).as_millis() as u64;
        let times = TimeInterval::new(now_ev.saturating_sub(RECENT_MS), now_ev);
        let tr = tracer(j as u64);
        let r = tr.span("coordinator.range_query", None, || {
            client.query(keys, times)
        });
        let fresh = ms(Instant::now() - due);
        out.fresh_ms.push(fresh);
        if tr.enabled() {
            out.fresh_traced_ms.push(fresh);
        } else {
            out.fresh_untraced_ms.push(fresh);
        }
        match r {
            Ok(r) => {
                if let Some(t) = r
                    .tuples
                    .iter()
                    .find(|t| !keys.contains(t.key) || !times.contains(t.ts))
                {
                    out.errors.push(format!(
                        "tick {j}: tuple ({}, {}) outside {keys:?} x {times:?}",
                        t.key, t.ts
                    ));
                }
            }
            Err(e) => out.errors.push(format!("tick {j} range query: {e}")),
        }
        // Probes newer than the window's end still count: the newest probe
        // visible is what the lag measures.
        let probe_times = TimeInterval::new(now_ev.saturating_sub(RECENT_MS), now_ev + 60_000);
        let r = tr.span("coordinator.probe_query", None, || {
            client.query(probe_keys, probe_times)
        });
        let arrival = Instant::now();
        if tr.enabled() {
            out.covered_ns += (arrival - start).as_nanos() as f64;
            out.elapsed_ns += (arrival - due).as_nanos() as f64;
        }
        out.queries += 1;
        match r {
            Ok(r) => {
                let started = started_seq.load(Ordering::SeqCst);
                let mut newest = None;
                for t in &r.tuples {
                    let seq = <[u8; 8]>::try_from(&t.payload[..]).map(u64::from_le_bytes);
                    match seq {
                        Ok(seq) if t.key == PROBE_KEY && seq < started => {
                            newest = newest.max(Some(seq));
                        }
                        _ => out.errors.push(format!(
                            "tick {j}: probe answer holds key {} payload {:?}; {started} batches started",
                            t.key, t.payload
                        )),
                    }
                }
                // With no probe in the answer, even the oldest probe the
                // window could hold is not visible: the lag is at least
                // the time since that one was due, and counts as such.
                let created = match newest {
                    Some(seq) => t0 + BATCH_EVERY * seq as u32,
                    None => {
                        out.lag_censored += 1;
                        (due - Duration::from_millis(RECENT_MS)).max(t0)
                    }
                };
                out.lag_ms
                    .push(ms(arrival.saturating_duration_since(created)));
            }
            Err(e) => out.errors.push(format!("tick {j} probe query: {e}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_queries() {
        let a: Vec<Tuple> = stream(3).take(5_000).collect();
        let b: Vec<Tuple> = stream(3).take(5_000).collect();
        assert_eq!(a, b);
        assert_ne!(a, stream(4).take(5_000).collect::<Vec<_>>());
        assert_eq!(key_ranges(3, 50), key_ranges(3, 50));
        assert_ne!(key_ranges(3, 50), key_ranges(4, 50));
    }

    #[test]
    fn event_time_tracks_the_schedule() {
        // One second of batches spans one second of event time, and probes
        // sit outside the IPv4 space the range queries cover.
        let ticks = (1_000 / BATCH_EVERY.as_millis()) as usize;
        let t: Vec<Tuple> = stream(1).take(PER_BATCH * ticks).collect();
        assert_eq!(t[0].ts, EVENT_T0);
        assert!(t.last().unwrap().ts < EVENT_T0 + 1_000);
        assert!(PROBE_KEY > u32::MAX as u64);
    }
}
