//! The one role host: where every deployment shape sets up a server role.
//!
//! The paper's Figure 3 topology has one set of server roles whatever the
//! placement. The embedded [`Waterwheel`](crate::Waterwheel) (every role
//! in one process) and the `waterwheel-node` runtime (one role per OS
//! process) both take from here the id layout and placement, the
//! admission-guarded registry and TCP options, the storage handles, and
//! the indexing and query servers with their handlers and pump loop.
//! Receiver-side ingest dedup lives in the message queue
//! ([`MessageQueue::append_batch_from`]), which journals and replays the
//! `(src, seq)` markers it checks.

use crate::admission::AdmissionController;
use crate::attributes::AttrRegistry;
use crate::indexing::IndexingServer;
use crate::query_server::QueryServer;
use parking_lot::RwLock;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use waterwheel_cluster::{Cluster, LatencyModel};
use waterwheel_core::{KeyInterval, Result, ServerId, SystemConfig, WwError};
use waterwheel_meta::{MetadataService, PartitionSchema};
use waterwheel_mq::{Consumer, MessageQueue};
use waterwheel_net::{
    Envelope, HandlerRegistry, MetaClient, Request, Response, RpcClient, TcpClientOptions,
    TcpServerOptions,
};
use waterwheel_storage::SimDfs;
use waterwheel_wal::FsyncPolicy;

/// Name of the ingestion topic.
pub const INGEST_TOPIC: &str = "ingest";

/// `n` consecutive server ids from `base`.
fn ids_from(base: u32, n: usize) -> Vec<ServerId> {
    (0..n as u32).map(|i| ServerId(base + i)).collect()
}

/// The contiguous slice of `ids` hosted by process `p` of `n`. Slices are
/// equal-sized, and growth adds whole slices at the top, so an existing
/// process's slice never moves when the cluster grows.
fn slice_ids(ids: &[ServerId], p: usize, n: usize) -> Vec<ServerId> {
    let per = ids.len() / n.max(1);
    ids.iter().skip(p * per).take(per).copied().collect()
}

/// The id layout every deployment shape rebuilds identically from a
/// handful of counts: server ids per role, and how the indexing and query
/// ids split across OS processes.
#[derive(Clone, Debug)]
pub struct IdLayout {
    /// Indexing-server ids (`0..`); the raw id doubles as the server's
    /// ingestion-queue partition.
    pub indexing: Vec<ServerId>,
    /// Query-server ids (`1000..`).
    pub query: Vec<ServerId>,
    /// Dispatcher ids (`2000..`).
    pub dispatchers: Vec<ServerId>,
    indexing_processes: usize,
    query_processes: usize,
}

impl IdLayout {
    /// A layout with every role's servers in one process.
    pub fn new(indexing: usize, query: usize, dispatchers: usize) -> Self {
        Self {
            indexing: ids_from(0, indexing),
            query: ids_from(1_000, query),
            dispatchers: ids_from(2_000, dispatchers),
            indexing_processes: 1,
            query_processes: 1,
        }
    }

    /// Splits the indexing and query ids across that many processes each;
    /// the server counts must divide evenly.
    pub fn sliced(mut self, indexing_processes: usize, query_processes: usize) -> Result<Self> {
        self.indexing_processes = indexing_processes.max(1);
        self.query_processes = query_processes.max(1);
        if !self.indexing.len().is_multiple_of(self.indexing_processes)
            || !self.query.len().is_multiple_of(self.query_processes)
        {
            return Err(WwError::Config(
                "server counts must divide evenly across role processes".into(),
            ));
        }
        Ok(self)
    }

    /// The indexing-server ids process `p` hosts.
    pub fn hosted_indexing(&self, p: usize) -> Vec<ServerId> {
        slice_ids(&self.indexing, p, self.indexing_processes)
    }

    /// The query-server ids process `p` hosts.
    pub fn hosted_query(&self, p: usize) -> Vec<ServerId> {
        slice_ids(&self.query, p, self.query_processes)
    }

    /// Co-locates servers round-robin across the cluster's nodes — query
    /// servers first, then indexing servers (paper: fixed counts per
    /// node). Every process derives the same placement.
    pub fn place(&self, cluster: &Cluster) {
        cluster.place_servers_round_robin(self.query.iter().copied());
        cluster.place_servers_round_robin(self.indexing.iter().copied());
    }
}

/// A handler registry guarded by the class-aware admission controller,
/// so every deployment shape sheds overload identically.
pub fn registry(cfg: &SystemConfig) -> (Arc<HandlerRegistry>, Arc<AdmissionController>) {
    let registry = Arc::new(HandlerRegistry::new());
    let admission = Arc::new(AdmissionController::new(cfg));
    registry.set_admission(Arc::clone(&admission) as Arc<dyn waterwheel_net::AdmissionControl>);
    (registry, admission)
}

/// TCP listener options from the config's reactor, worker and shed knobs.
pub fn server_options(cfg: &SystemConfig) -> TcpServerOptions {
    TcpServerOptions {
        reactor_threads: cfg.net_reactor_threads,
        workers: cfg.net_server_workers,
        overflow_retry_after: cfg.admission_retry_after,
        ..TcpServerOptions::default()
    }
}

/// TCP connection-pool options from the config.
pub fn client_options(cfg: &SystemConfig) -> TcpClientOptions {
    TcpClientOptions {
        reactor_threads: cfg.net_reactor_threads,
        pool_idle_timeout: cfg.net_pool_idle_timeout,
        pool_max_connections: cfg.net_pool_max_connections,
    }
}

/// Opens the shared chunk store under `root` with `dfs_replication`
/// capped by the node count.
pub fn open_dfs(
    root: &Path,
    cluster: &Cluster,
    cfg: &SystemConfig,
    nodes: usize,
    latency: LatencyModel,
) -> Result<SimDfs> {
    Ok(SimDfs::new(
        root.join("chunks"),
        cluster.clone(),
        cfg.dfs_replication.min(nodes.max(1)),
        latency,
    )?
    .with_fsync(FsyncPolicy::from_flag(cfg.durability_fsync)))
}

/// Opens (or recovers) the durable metadata service under `root`.
pub fn open_meta(root: &Path, cfg: &SystemConfig) -> Result<MetadataService> {
    MetadataService::open_with(
        root.join("meta.snapshot"),
        FsyncPolicy::from_flag(cfg.durability_fsync),
        cfg.wal_segment_bytes,
    )
}

/// The recovered partition schema, or a freshly published uniform one
/// (version 1) over `indexing` when none exists yet.
pub fn bootstrap_schema(meta: &MetadataService, indexing: &[ServerId]) -> Result<PartitionSchema> {
    if let Some(schema) = meta.partition() {
        return Ok(schema);
    }
    let mut schema = PartitionSchema::uniform(indexing);
    schema.version = 1;
    meta.set_partition(schema.clone())?;
    Ok(schema)
}

/// The indexing servers one host runs, swappable in place: the embedded
/// deployment's crash recovery replaces an instance, and handlers and
/// pumps resolve the current one at call time.
pub type IndexingSlots = Arc<RwLock<Vec<Arc<IndexingServer>>>>;

/// Creates indexing server `id`, assigned its interval in `schema` and
/// consuming its queue partition from `offset` (the durable offset the
/// last chunk registration persisted; paper §V replay). A server joining
/// an elastic cluster may not be in the published schema yet — it owns
/// nothing until a migration cut-over reassigns it — so it starts on the
/// placeholder `full()` interval, which keeps the template tree's fan-out
/// shape sensible.
#[allow(clippy::too_many_arguments)]
pub fn open_indexing_server(
    id: ServerId,
    schema: Option<&PartitionSchema>,
    offset: u64,
    cfg: &SystemConfig,
    mq: &MessageQueue,
    dfs: &SimDfs,
    rpc: RpcClient,
    attrs: &Arc<AttrRegistry>,
) -> Arc<IndexingServer> {
    let server = Arc::new(IndexingServer::new(
        id,
        schema
            .and_then(|s| s.interval_of(id))
            .unwrap_or_else(KeyInterval::full),
        cfg.clone(),
        Consumer::new(mq.clone(), INGEST_TOPIC, id.raw() as usize, offset),
        dfs.clone(),
        MetaClient::new(rpc),
    ));
    server.set_attr_registry(Arc::clone(attrs));
    server
}

/// The handler serving indexing server `id`, the server at `pos` in
/// `slots`. Ingest appends to its queue partition whatever the server's
/// health (Kafka accepts writes while a consumer is down — they replay).
/// Every other verb resolves the *current* instance, so recovery swaps
/// take effect at once; `Flush` and `Ping` answer `Injected` while it is
/// down.
pub fn indexing_handler(
    slots: IndexingSlots,
    pos: usize,
    id: ServerId,
    mq: MessageQueue,
) -> impl Fn(&Envelope) -> Result<Response> + Send + Sync + 'static {
    let partition = id.raw() as usize;
    move |env| {
        let server = || {
            slots
                .read()
                .get(pos)
                .cloned()
                .ok_or(WwError::Unreachable("indexing server removed"))
        };
        match &env.payload {
            Request::Ingest { tuple } => {
                // Single-tuple ingest has no batch marker; force the record
                // out of process buffers before acking so a kill -9 cannot
                // take it back.
                mq.append(INGEST_TOPIC, partition, tuple.clone())?;
                mq.sync()?;
                Ok(Response::Ack)
            }
            Request::IngestBatch { seq, tuples } => {
                // Marker + tuples land as one atomic WAL frame, committed
                // before the ack: the exactly-once durability point.
                let landed = mq.append_batch_from(
                    INGEST_TOPIC,
                    partition,
                    env.src.raw(),
                    *seq,
                    tuples.to_vec(),
                )?;
                Ok(Response::AckBatch {
                    tuples: tuples.len() as u32,
                    deduped: landed.is_none(),
                })
            }
            Request::Flush => {
                let server = server()?;
                if server.is_failed() {
                    return Err(WwError::Injected("indexing server down"));
                }
                // Seal everything queued so far: pump until the partition
                // is drained, then flush the tree.
                while server.pump(4_096)? > 0 {}
                Ok(Response::Flushed(server.flush()?))
            }
            Request::InMemorySubquery { sq } => {
                Ok(Response::Tuples(server()?.query_in_memory(sq)?))
            }
            Request::AggregateInMemory { slices, covered } => Ok(Response::Fold(
                server()?.aggregate_in_memory(*slices, covered)?,
            )),
            Request::Reassign { interval } => {
                // Migration cut-over: only the *assigned* interval changes;
                // out-of-interval tuples already in memory stay queryable
                // until flush (§III-D overlap).
                server()?.reassign(*interval);
                Ok(Response::Ack)
            }
            Request::Ping => {
                if server()?.is_failed() {
                    Err(WwError::Injected("indexing server down"))
                } else {
                    Ok(Response::Pong)
                }
            }
            _ => Err(WwError::InvalidState(
                "unsupported request for an indexing server".into(),
            )),
        }
    }
}

/// The handler serving one query server: chunk subqueries and footer
/// summary reads; `Ping` answers `Injected` while the server is down.
pub fn query_handler(
    qs: Arc<QueryServer>,
) -> impl Fn(&Envelope) -> Result<Response> + Send + Sync + 'static {
    move |env| match &env.payload {
        Request::ChunkSubquery {
            sq,
            chunk,
            leaf_filter,
        } => Ok(Response::Tuples(qs.execute_filtered(
            sq,
            *chunk,
            leaf_filter.as_ref(),
        )?)),
        Request::ReadSummary { chunk } => Ok(Response::Summary(qs.read_summary(*chunk)?)),
        Request::Ping => {
            if qs.is_failed() {
                Err(WwError::Injected("query server down"))
            } else {
                Ok(Response::Pong)
            }
        }
        _ => Err(WwError::InvalidState(
            "unsupported request for a query server".into(),
        )),
    }
}

/// Spawns the background pump of the server at `pos` in `slots` — the
/// Storm executor keeping freshly queued tuples queryable without waiting
/// for a flush. It re-reads the slot every round so recovery swaps take
/// effect, and exits once `running` clears or the slot is gone.
pub fn spawn_pump(slots: IndexingSlots, pos: usize, running: Arc<AtomicBool>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while running.load(Ordering::SeqCst) {
            let Some(server) = slots.read().get(pos).cloned() else {
                break;
            };
            match server.pump(1_024) {
                Ok(0) | Err(_) => std::thread::sleep(Duration::from_millis(1)),
                Ok(_) => {}
            }
        }
    })
}

/// Spawns a thread running `tick` once per `period` until `running`
/// clears.
pub fn spawn_ticker(
    handles: &mut Vec<JoinHandle<()>>,
    running: &Arc<AtomicBool>,
    period: Duration,
    tick: impl Fn() + Send + 'static,
) {
    let running = Arc::clone(running);
    handles.push(std::thread::spawn(move || {
        while running.load(Ordering::SeqCst) {
            std::thread::sleep(period);
            tick();
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_layout_is_the_same_for_every_shape() {
        let layout = IdLayout::new(2, 1, 2);
        assert_eq!(layout.indexing, vec![ServerId(0), ServerId(1)]);
        assert_eq!(layout.query, vec![ServerId(1_000)]);
        assert_eq!(layout.dispatchers, vec![ServerId(2_000), ServerId(2_001)]);
        assert!(IdLayout::new(3, 2, 1).sliced(2, 1).is_err());
    }

    #[test]
    fn slices_are_contiguous_and_stable_under_growth() {
        let four = IdLayout::new(4, 2, 1).sliced(2, 1).unwrap();
        assert_eq!(four.hosted_indexing(0), vec![ServerId(0), ServerId(1)]);
        assert_eq!(four.hosted_indexing(1), vec![ServerId(2), ServerId(3)]);
        assert_eq!(four.hosted_query(0), four.query);
        // Growing 2 → 3 processes (same per-process count) adds a new
        // slice at the top without moving an existing process's slice.
        let six = IdLayout::new(6, 2, 1).sliced(3, 1).unwrap();
        assert_eq!(six.hosted_indexing(0), four.hosted_indexing(0));
        assert_eq!(six.hosted_indexing(1), four.hosted_indexing(1));
        assert_eq!(six.hosted_indexing(2), vec![ServerId(4), ServerId(5)]);
    }
}
