//! The per-process node runtime: rebuild the deterministic layout, bind
//! this role's handlers into a
//! [`HandlerRegistry`](waterwheel_net::HandlerRegistry), and serve them
//! over a TCP listener until a `Shutdown` RPC (or losing the launcher's
//! stdin pipe) tears the process down. Ids, handlers and pumps come from
//! [`waterwheel_server::host`], the same role host the embedded system
//! uses; the gateway's `MigrateUniform` runs the one migration engine.

use parking_lot::{Mutex, RwLock};
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};
use waterwheel_cluster::{Cluster, LatencyModel};
use waterwheel_core::{NodeId, Query, Result, ServerId, SystemConfig, WwError};
use waterwheel_meta::{MemberRole, PartitionSchema};
use waterwheel_mq::{MessageQueue, SeqTable};
use waterwheel_net::{
    serve_meta, Envelope, MetaClient, Request, Response, RpcClient, TcpRpcServer, TcpTransport,
    Transport, WireStats, COORDINATOR, META_SERVER,
};
use waterwheel_server::host::{self, IdLayout, IndexingSlots};
use waterwheel_server::{
    diff_moves, AttrRegistry, Coordinator, DispatchPolicy, Dispatcher, MigrationEngine,
    MigrationPlan, MigrationStats, QueryServer,
};
use waterwheel_wal::FsyncPolicy;

/// The well-known secondary attribute (paper §VIII) every node process
/// registers deterministically: the first payload byte. Indexing
/// processes build bloom/bitmap indexes for it at flush time and the
/// coordinator prunes `attr == value` queries through them — no dynamic
/// registration RPC is needed because both sides rebuild the same
/// extractor from this constant.
pub const PAYLOAD_BYTE_ATTR: u16 = 1;

fn register_well_known_attrs(attrs: &AttrRegistry) {
    attrs.register(PAYLOAD_BYTE_ATTR, |t| {
        t.payload.first().map(|b| u64::from(*b))
    });
}

/// Which server group a node process hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The metadata service (ZooKeeper's seat, §II-B).
    Meta,
    /// All indexing servers plus the ingestion queue.
    Indexing,
    /// All query servers.
    Query,
    /// All dispatchers plus the query coordinator — the client gateway.
    Dispatcher,
}

impl Role {
    /// Every role, in launch order (dependencies first).
    pub const ALL: [Role; 4] = [Role::Meta, Role::Indexing, Role::Query, Role::Dispatcher];

    /// The CLI/env spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Meta => "meta",
            Role::Indexing => "indexing",
            Role::Query => "query",
            Role::Dispatcher => "dispatcher",
        }
    }

    /// Parses the CLI/env spelling.
    pub fn parse(s: &str) -> Option<Role> {
        Role::ALL.into_iter().find(|r| r.as_str() == s)
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything a node process needs to take its place in the cluster.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This process's role.
    pub role: Role,
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Shared filesystem root (chunks + metadata snapshot).
    pub root: PathBuf,
    /// Indexing-server count (identical in every process).
    pub indexing_servers: usize,
    /// Query-server count.
    pub query_servers: usize,
    /// Dispatcher count.
    pub dispatchers: usize,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Chunk size driving flush boundaries.
    pub chunk_size_bytes: usize,
    /// Whether durable surfaces (queue WAL, chunk seals, metadata log)
    /// fsync on commit; see `SystemConfig::durability_fsync`.
    pub durability_fsync: bool,
    /// WAL segment size bounding log files and the metadata compaction
    /// threshold; see `SystemConfig::wal_segment_bytes`.
    pub wal_segment_bytes: usize,
    /// How many OS processes share the indexing role. Each hosts a
    /// contiguous `indexing_servers / indexing_processes` slice of the
    /// server ids, so growing the cluster by one process never moves an
    /// existing process's slice.
    pub indexing_processes: usize,
    /// How many OS processes share the query role (same slicing rule).
    pub query_processes: usize,
    /// Which slice of its role this process hosts (`0..processes`). Meta
    /// and dispatcher are single-process and ignore it.
    pub proc_index: usize,
    /// Membership lease renewal cadence (`SystemConfig::heartbeat_interval`).
    pub heartbeat_interval: Duration,
    /// Membership lease duration (`SystemConfig::lease_ttl`).
    pub lease_ttl: Duration,
    /// Addresses of the role processes this one calls into, as
    /// `(role, proc_index, addr)`.
    pub peers: Vec<(Role, usize, SocketAddr)>,
}

impl NodeConfig {
    /// A config with the given role/listen/root and default counts.
    pub fn new(role: Role, listen: impl Into<String>, root: impl Into<PathBuf>) -> Self {
        let cfg = SystemConfig::default();
        Self {
            role,
            listen: listen.into(),
            root: root.into(),
            indexing_servers: cfg.indexing_servers,
            query_servers: cfg.query_servers,
            dispatchers: cfg.dispatchers,
            nodes: 4,
            chunk_size_bytes: cfg.chunk_size_bytes,
            durability_fsync: cfg.durability_fsync,
            wal_segment_bytes: cfg.wal_segment_bytes,
            indexing_processes: 1,
            query_processes: 1,
            proc_index: 0,
            heartbeat_interval: cfg.heartbeat_interval,
            lease_ttl: cfg.lease_ttl,
            peers: Vec::new(),
        }
    }

    /// Reads the `WW_NODE_*` environment contract written by
    /// [`ClusterSpec::launch`](crate::spec::ClusterSpec::launch).
    pub fn from_env() -> std::result::Result<Self, String> {
        let var = |k: &str| std::env::var(k).map_err(|_| format!("{k} is not set"));
        let num = |k: &str| -> std::result::Result<usize, String> {
            var(k)?.parse().map_err(|e| format!("{k}: {e}"))
        };
        let role = var("WW_NODE_ROLE")?;
        let role = Role::parse(&role).ok_or_else(|| format!("unknown role {role:?}"))?;
        let mut peers = Vec::new();
        for part in var("WW_NODE_PEERS").unwrap_or_default().split(',') {
            if part.is_empty() {
                continue;
            }
            let (r, addr) = part
                .split_once('=')
                .ok_or_else(|| format!("peer {part:?} is not role[:proc]=addr"))?;
            // `role:IDX=addr` names one process of a multi-process role;
            // bare `role=addr` (older launchers) means its first process.
            let (r, idx) = match r.split_once(':') {
                Some((r, idx)) => (
                    r,
                    idx.parse::<usize>()
                        .map_err(|e| format!("peer {part:?}: {e}"))?,
                ),
                None => (r, 0),
            };
            let r = Role::parse(r).ok_or_else(|| format!("unknown peer role {r:?}"))?;
            let addr = addr.parse().map_err(|e| format!("peer {part:?}: {e}"))?;
            peers.push((r, idx, addr));
        }
        // Durability knobs are optional in the contract (older launchers
        // omit them): absent means the SystemConfig defaults.
        let defaults = SystemConfig::default();
        let durability_fsync = match std::env::var("WW_NODE_FSYNC") {
            Ok(v) => v != "0",
            Err(_) => defaults.durability_fsync,
        };
        let wal_segment_bytes = match std::env::var("WW_NODE_WAL_SEG") {
            Ok(v) => v.parse().map_err(|e| format!("WW_NODE_WAL_SEG: {e}"))?,
            Err(_) => defaults.wal_segment_bytes,
        };
        // Elasticity knobs are likewise optional: absent means one process
        // per role and the default lease cadence.
        let opt_num = |k: &str, default: usize| -> std::result::Result<usize, String> {
            match std::env::var(k) {
                Ok(v) => v.parse().map_err(|e| format!("{k}: {e}")),
                Err(_) => Ok(default),
            }
        };
        let opt_ms = |k: &str, default: Duration| -> std::result::Result<Duration, String> {
            match std::env::var(k) {
                Ok(v) => v
                    .parse()
                    .map(Duration::from_millis)
                    .map_err(|e| format!("{k}: {e}")),
                Err(_) => Ok(default),
            }
        };
        let indexing_processes = opt_num("WW_NODE_IX_PROCS", 1)?;
        let query_processes = opt_num("WW_NODE_QS_PROCS", 1)?;
        let proc_index = opt_num("WW_NODE_PROC", 0)?;
        let heartbeat_interval = opt_ms("WW_NODE_HB_MS", defaults.heartbeat_interval)?;
        let lease_ttl = opt_ms("WW_NODE_LEASE_MS", defaults.lease_ttl)?;
        Ok(Self {
            role,
            listen: var("WW_NODE_LISTEN")?,
            root: PathBuf::from(var("WW_NODE_ROOT")?),
            indexing_servers: num("WW_NODE_IX")?,
            query_servers: num("WW_NODE_QS")?,
            dispatchers: num("WW_NODE_DISP")?,
            nodes: num("WW_NODE_NODES")?,
            chunk_size_bytes: num("WW_NODE_CHUNK_BYTES")?,
            durability_fsync,
            wal_segment_bytes,
            indexing_processes,
            query_processes,
            proc_index,
            heartbeat_interval,
            lease_ttl,
            peers,
        })
    }

    /// Writes the environment contract onto a child command.
    pub fn apply_env(&self, cmd: &mut std::process::Command) {
        let peers: Vec<String> = self
            .peers
            .iter()
            .map(|(r, idx, a)| format!("{}:{idx}={a}", r.as_str()))
            .collect();
        cmd.env("WW_NODE_ROLE", self.role.as_str())
            .env("WW_NODE_LISTEN", &self.listen)
            .env("WW_NODE_ROOT", &self.root)
            .env("WW_NODE_IX", self.indexing_servers.to_string())
            .env("WW_NODE_QS", self.query_servers.to_string())
            .env("WW_NODE_DISP", self.dispatchers.to_string())
            .env("WW_NODE_NODES", self.nodes.to_string())
            .env("WW_NODE_CHUNK_BYTES", self.chunk_size_bytes.to_string())
            .env(
                "WW_NODE_FSYNC",
                if self.durability_fsync { "1" } else { "0" },
            )
            .env("WW_NODE_WAL_SEG", self.wal_segment_bytes.to_string())
            .env("WW_NODE_IX_PROCS", self.indexing_processes.to_string())
            .env("WW_NODE_QS_PROCS", self.query_processes.to_string())
            .env("WW_NODE_PROC", self.proc_index.to_string())
            .env(
                "WW_NODE_HB_MS",
                self.heartbeat_interval.as_millis().to_string(),
            )
            .env("WW_NODE_LEASE_MS", self.lease_ttl.as_millis().to_string())
            .env("WW_NODE_PEERS", peers.join(","));
    }
}

/// The deterministic layout every process rebuilds identically: system
/// config, simulated cluster with server placement, and the id layout.
struct Layout {
    cfg: SystemConfig,
    cluster: Cluster,
    ids: IdLayout,
}

impl Layout {
    fn new(nc: &NodeConfig) -> Result<Self> {
        let mut cfg = SystemConfig::default();
        cfg.indexing_servers = nc.indexing_servers;
        cfg.query_servers = nc.query_servers;
        cfg.dispatchers = nc.dispatchers;
        cfg.chunk_size_bytes = nc.chunk_size_bytes;
        cfg.durability_fsync = nc.durability_fsync;
        cfg.wal_segment_bytes = nc.wal_segment_bytes;
        cfg.heartbeat_interval = nc.heartbeat_interval;
        cfg.lease_ttl = nc.lease_ttl;
        // Nested flush RPCs (gateway → indexing pump-until-empty) can
        // outlive the embedded default; loopback never needs to give up
        // that early.
        cfg.rpc_timeout = std::time::Duration::from_secs(10);
        cfg.validate().map_err(WwError::Config)?;
        let ids = IdLayout::new(cfg.indexing_servers, cfg.query_servers, cfg.dispatchers)
            .sliced(nc.indexing_processes, nc.query_processes)?;
        let cluster = Cluster::new(nc.nodes.max(1));
        ids.place(&cluster);
        Ok(Self { cfg, cluster, ids })
    }
}

/// Routes every server id to the process hosting it, from a peer map of
/// `(role, proc_index, addr)` — the one routing rule node processes and
/// cluster clients share.
pub(crate) fn route_peers(t: &TcpTransport, peers: &[(Role, usize, SocketAddr)], ids: &IdLayout) {
    for &(role, idx, addr) in peers {
        match role {
            Role::Meta => t.add_peer(META_SERVER, addr),
            Role::Indexing => t.add_peers(ids.hosted_indexing(idx), addr),
            Role::Query => t.add_peers(ids.hosted_query(idx), addr),
            Role::Dispatcher => {
                t.add_peers(ids.dispatchers.iter().copied(), addr);
                t.add_peer(COORDINATOR, addr);
            }
        }
    }
}

/// Wraps a role handler so this process also learns the routes of
/// servers that joined after it launched (`RegisterPeers`) — the one
/// place that verb is handled.
fn learning_peers(
    transport: &Arc<TcpTransport>,
    handler: impl Fn(&Envelope) -> Result<Response> + Send + Sync + 'static,
) -> impl Fn(&Envelope) -> Result<Response> + Send + Sync + 'static {
    let transport = Arc::clone(transport);
    move |env| match &env.payload {
        Request::RegisterPeers { peers } => {
            for (id, addr) in peers {
                let addr: SocketAddr = addr.parse().map_err(|_| {
                    WwError::InvalidState(format!("unparseable announced peer address {addr:?}"))
                })?;
                transport.add_peer(*id, addr);
            }
            Ok(Response::Ack)
        }
        _ => handler(env),
    }
}

/// Registers every server this process hosts as a leased member (Fig. 17
/// dynamic membership) — before the process reports ready, so a launcher
/// waiting for the ready line can rely on the membership epoch already
/// covering it — then spawns the thread renewing those leases
/// (ZooKeeper's ephemeral nodes, §II-B): a heartbeat per interval while
/// running, a graceful `leave` per server on clean shutdown. Renewal
/// errors are ignored — if the lease already lapsed (a long stall), the
/// metadata server has evicted this member and the operator restarts the
/// process rather than having it fight a cluster that moved on. The
/// renewals go through `lease_meta`, a *short-deadline, no-retry* client:
/// a heartbeat that misses one interval is harmless, and the farewell
/// `leave` must not stall process teardown when the metadata server is
/// already gone.
fn join_and_keep_leases(
    threads: &mut Vec<std::thread::JoinHandle<()>>,
    running: &Arc<AtomicBool>,
    layout: &Layout,
    (meta, lease_meta): (MetaClient, MetaClient),
    role: MemberRole,
    ids: Vec<ServerId>,
) -> Result<()> {
    let (heartbeat, ttl) = (layout.cfg.heartbeat_interval, layout.cfg.lease_ttl);
    for &id in &ids {
        let node = layout.cluster.node_of(id).unwrap_or(NodeId(0));
        meta.join(id, role, node, ttl)?;
    }
    let running = Arc::clone(running);
    threads.push(std::thread::spawn(move || {
        while running.load(Ordering::SeqCst) {
            std::thread::sleep(heartbeat);
            for &id in &ids {
                let _ = lease_meta.heartbeat(id, ttl);
            }
        }
        for &id in &ids {
            let _ = lease_meta.leave(id);
        }
    }));
    Ok(())
}

/// Fetches the partition schema from the metadata process (bootstrapped
/// there before it reports ready).
fn fetch_schema(meta: &MetaClient) -> Result<PartitionSchema> {
    meta.partition()?
        .ok_or_else(|| WwError::InvalidState("metadata process has no partition schema yet".into()))
}

/// The gateway's `MigrateUniform` verb: rebalance ownership uniformly
/// across the *current* indexing membership through the one migration
/// engine ([`MigrationEngine`]) — snapshot ship, durable migration
/// records, dual-write install, straggler flush, cut-over. Answers stay
/// byte-exact throughout.
fn migrate_uniform(
    engine: &MigrationEngine<'_>,
    coordinator: &Coordinator,
    fallback_ix: &[ServerId],
) -> Result<Response> {
    let view = engine.meta.membership()?;
    let mut ix = view.indexing_ids();
    if ix.is_empty() {
        ix = fallback_ix.to_vec();
    }
    let old = engine
        .meta
        .partition()?
        .unwrap_or_else(|| PartitionSchema::uniform(&ix));
    let mut schema = PartitionSchema::uniform(&ix);
    schema.version = old.version + 1;
    let moves = diff_moves(&old, &schema);
    if moves.is_empty() {
        return Ok(Response::Migrated {
            epoch: view.epoch,
            ranges: 0,
        });
    }
    let ranges = moves.len() as u32;
    engine.run(&MigrationPlan {
        schema,
        moves,
        deviation: 0.0,
    })?;
    Ok(Response::Migrated {
        epoch: coordinator.refresh_membership()?,
        ranges,
    })
}

/// Runs one node role until shut down. Prints `WW_NODE_READY <addr>` once
/// the listener is accepting, answers RPCs, and returns after a
/// [`Request::Shutdown`] lands or the launcher's stdin pipe closes.
pub fn run_node(nc: NodeConfig) -> Result<()> {
    let layout = Layout::new(&nc)?;
    // Every node process guards its handlers with the same class-aware
    // admission controller the embedded system installs: overload sheds
    // typed `Overloaded` answers instead of queueing without bound.
    let (registry, _admission) = host::registry(&layout.cfg);
    let wire = Arc::new(WireStats::default());
    let transport = Arc::new(TcpTransport::with_options(
        Arc::new(WireStats::default()),
        host::client_options(&layout.cfg),
    ));
    route_peers(&transport, &nc.peers, &layout.ids);
    let rpc_for = |src: ServerId| {
        RpcClient::new(
            Arc::clone(&transport) as Arc<dyn Transport>,
            src,
            &layout.cfg,
        )
    };
    // Lease traffic gets its own client: deadline of one heartbeat, no
    // retries. Losing a renewal is harmless (the next interval covers it),
    // and the farewell `leave` must not stall process teardown for a full
    // RPC deadline when the metadata process is already gone.
    let lease_rpc_for = |src: ServerId| {
        let mut cfg = layout.cfg.clone();
        cfg.rpc_timeout = cfg.heartbeat_interval;
        cfg.rpc_retries = 0;
        RpcClient::new(Arc::clone(&transport) as Arc<dyn Transport>, src, &cfg)
    };

    let running = Arc::new(AtomicBool::new(true));
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let hb = layout.cfg.heartbeat_interval;

    match nc.role {
        Role::Meta => {
            let meta = host::open_meta(&nc.root, &layout.cfg)?;
            // Bootstrap the uniform schema exactly like the embedded
            // builder, so every later-starting role finds it.
            host::bootstrap_schema(&meta, &layout.ids.indexing)?;
            // Lease sweeper: members that stop heartbeating (a kill -9'd
            // process, a partitioned node) are evicted after the TTL and
            // the membership epoch bumps, so routing tables converge on
            // the survivors without operator action.
            let sweeper = meta.clone();
            let grace = layout.cfg.lease_ttl;
            host::spawn_ticker(&mut threads, &running, hb, move || {
                let _ = sweeper.expire_lapsed_leases(grace);
            });
            serve_meta(&registry, meta);
        }
        Role::Indexing => {
            let hosted = layout.ids.hosted_indexing(nc.proc_index);
            // The §V durability boundary: the ingest queue is a WAL under
            // the node root. Acked batches commit (marker + tuples in one
            // frame) before the ack leaves, so a kill -9 after the ack
            // cannot lose them — the restarted process replays this log
            // (and with it the exactly-once markers) from each server's
            // durable offset. Each indexing process owns its own queue
            // directory (partition files must not be shared across
            // processes); the first keeps the legacy "mq" name so
            // single-process stores recover across upgrades.
            let mq_dir = if nc.proc_index == 0 {
                "mq".to_string()
            } else {
                format!("mq-p{}", nc.proc_index)
            };
            let mq = MessageQueue::durable_with(
                nc.root.join(mq_dir),
                FsyncPolicy::from_flag(layout.cfg.durability_fsync),
                layout.cfg.wal_segment_bytes,
            )?;
            mq.create_topic(host::INGEST_TOPIC, layout.cfg.indexing_servers)?;
            let dfs = host::open_dfs(
                &nc.root,
                &layout.cluster,
                &layout.cfg,
                nc.nodes,
                LatencyModel::default(),
            )?;
            let meta = MetaClient::new(rpc_for(hosted[0]));
            let schema = fetch_schema(&meta)?;
            let attrs = Arc::new(AttrRegistry::new());
            register_well_known_attrs(&attrs);
            let mut servers = Vec::with_capacity(hosted.len());
            for &id in &hosted {
                // Recovery: resume consuming at the offset the last chunk
                // registration persisted.
                servers.push(host::open_indexing_server(
                    id,
                    Some(&schema),
                    meta.durable_offset(id)?,
                    &layout.cfg,
                    &mq,
                    &dfs,
                    rpc_for(id),
                    &attrs,
                ));
            }
            let slots: IndexingSlots = Arc::new(RwLock::new(servers));
            for (pos, &id) in hosted.iter().enumerate() {
                threads.push(host::spawn_pump(
                    Arc::clone(&slots),
                    pos,
                    Arc::clone(&running),
                ));
                registry.bind(
                    id,
                    learning_peers(
                        &transport,
                        host::indexing_handler(Arc::clone(&slots), pos, id, mq.clone()),
                    ),
                );
            }
            join_and_keep_leases(
                &mut threads,
                &running,
                &layout,
                (meta, MetaClient::new(lease_rpc_for(hosted[0]))),
                MemberRole::Indexing,
                hosted,
            )?;
        }
        Role::Query => {
            let hosted = layout.ids.hosted_query(nc.proc_index);
            let dfs = host::open_dfs(
                &nc.root,
                &layout.cluster,
                &layout.cfg,
                nc.nodes,
                LatencyModel::default(),
            )?;
            for &id in &hosted {
                let node = layout.cluster.node_of(id).unwrap_or(NodeId(0));
                let qs = Arc::new(QueryServer::with_config(id, node, dfs.clone(), &layout.cfg));
                registry.bind(id, learning_peers(&transport, host::query_handler(qs)));
            }
            join_and_keep_leases(
                &mut threads,
                &running,
                &layout,
                (
                    MetaClient::new(rpc_for(hosted[0])),
                    MetaClient::new(lease_rpc_for(hosted[0])),
                ),
                MemberRole::Query,
                hosted,
            )?;
        }
        Role::Dispatcher => {
            let disp_ids = layout.ids.dispatchers.clone();
            let meta = MetaClient::new(rpc_for(disp_ids[0]));
            let schema = fetch_schema(&meta)?;
            // This process cannot read the queues holding its predecessor's
            // batch markers, so it numbers from the clock in microseconds:
            // a predecessor sent far fewer than one batch per microsecond.
            let seq_base = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64);
            let dispatchers: Arc<Vec<Arc<Dispatcher>>> = Arc::new(
                disp_ids
                    .iter()
                    .map(|&id| {
                        let d = Dispatcher::new(id, rpc_for(id), schema.clone(), &layout.cfg);
                        Arc::new(d.with_seq_base(seq_base))
                    })
                    .collect(),
            );
            let ix_ids = layout.ids.indexing.clone();
            for (i, &id) in disp_ids.iter().enumerate() {
                let dispatchers = Arc::clone(&dispatchers);
                // The client-facing gateway has no queue of its own, so it
                // keeps its per-client exactly-once table here.
                let seqs = Mutex::new(SeqTable::default());
                let ix_ids = ix_ids.clone();
                let meta = meta.clone();
                registry.bind(id, move |env| match &env.payload {
                    Request::Ingest { tuple } => {
                        dispatchers[i].dispatch(tuple.clone())?;
                        Ok(Response::Ack)
                    }
                    Request::IngestBatch { seq, tuples } => {
                        let mut seqs = seqs.lock();
                        let deduped = seqs.is_duplicate(env.src.raw(), *seq);
                        if !deduped {
                            for t in tuples.iter() {
                                dispatchers[i].dispatch(t.clone())?;
                            }
                            seqs.record(env.src.raw(), *seq);
                        }
                        Ok(Response::AckBatch {
                            tuples: tuples.len() as u32,
                            deduped,
                        })
                    }
                    Request::Flush => {
                        // The client's durability verb: push every
                        // buffered batch out, then seal every indexing
                        // server's memory into chunks. The server list
                        // comes from the live membership view so servers
                        // that joined after launch get flushed too.
                        for d in dispatchers.iter() {
                            d.flush_batches()?;
                        }
                        let live = meta
                            .membership()
                            .map(|v| v.indexing_ids())
                            .ok()
                            .filter(|v| !v.is_empty())
                            .unwrap_or_else(|| ix_ids.clone());
                        let mut chunks = Vec::new();
                        for &ix in &live {
                            chunks.extend(dispatchers[i].flush(ix)?);
                        }
                        Ok(Response::Flushed(chunks))
                    }
                    Request::Ping => Ok(Response::Pong),
                    _ => Err(WwError::InvalidState(
                        "unsupported request for a dispatcher".into(),
                    )),
                });
            }
            let coordinator = Arc::new(Coordinator::new(
                rpc_for(COORDINATOR),
                layout.cluster.clone(),
                layout.ids.query.clone(),
                layout.ids.indexing.clone(),
                layout.cfg.dfs_replication.min(nc.nodes.max(1)),
                DispatchPolicy::Lada,
                layout.cfg.clone(),
            ));
            // The same well-known attrs the indexing process indexes
            // under: `attr == value` client queries prune through them.
            let attrs = Arc::new(AttrRegistry::new());
            register_well_known_attrs(&attrs);
            coordinator.set_attr_registry(attrs);
            {
                let coordinator = Arc::clone(&coordinator);
                let dispatchers = Arc::clone(&dispatchers);
                let control = rpc_for(COORDINATOR);
                let meta = MetaClient::new(control.clone());
                let stats = MigrationStats::default();
                let fallback_ix = layout.ids.indexing.clone();
                registry.bind(
                    COORDINATOR,
                    learning_peers(&transport, move |env| match &env.payload {
                        Request::ClientQuery {
                            keys,
                            times,
                            attr_eq,
                        } => {
                            let mut q = Query::range(*keys, *times);
                            if let Some((attr, value)) = attr_eq {
                                q = q.and_attr_eq(*attr, *value);
                            }
                            Ok(Response::Query(coordinator.execute(&q)?))
                        }
                        Request::ClientAggregate { keys, times, kind } => {
                            let aq = Query::range(*keys, *times).aggregate(*kind);
                            Ok(Response::Aggregate(coordinator.execute_aggregate(&aq)?))
                        }
                        Request::MigrateUniform => migrate_uniform(
                            &MigrationEngine {
                                meta: &meta,
                                control: &control,
                                dispatchers: &dispatchers,
                                stats: &stats,
                            },
                            &coordinator,
                            &fallback_ix,
                        ),
                        Request::Ping => Ok(Response::Pong),
                        _ => Err(WwError::InvalidState(
                            "unsupported request for the coordinator".into(),
                        )),
                    }),
                );
            }
            // Routing freshness: poll the membership epoch at the
            // heartbeat cadence so servers joining (or being evicted)
            // after launch reach the coordinator's routing table without
            // waiting for a query to fail first.
            host::spawn_ticker(&mut threads, &running, hb, move || {
                let _ = coordinator.refresh_membership();
            });
        }
    }

    // The stop latch: tripped by a Shutdown RPC (acknowledged before the
    // hook runs) or by the launcher's stdin pipe closing — the watchdog
    // that reaps orphaned children if the parent dies without saying
    // goodbye.
    let stop = Arc::new((StdMutex::new(false), Condvar::new()));
    let trip = |stop: &Arc<(StdMutex<bool>, Condvar)>| {
        let (lock, cv) = &**stop;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    };
    // A restarted process re-claims the exact port its peers route to;
    // besides SO_REUSEADDR (set by the listener) give the kernel a moment
    // to finish tearing down the predecessor's socket.
    let server = {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let hook = {
                let stop = Arc::clone(&stop);
                Box::new(move || trip(&stop)) as Box<dyn FnOnce() + Send>
            };
            match TcpRpcServer::bind_with(
                &nc.listen,
                Arc::clone(&registry),
                Arc::clone(&wire),
                Some(hook),
                host::server_options(&layout.cfg),
            ) {
                Ok(s) => break s,
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
            }
        }
    };
    println!("WW_NODE_READY {}", server.local_addr());
    let _ = std::io::stdout().flush();
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.lock().read_line(&mut line) {
                    Ok(0) | Err(_) => break, // EOF: the launcher is gone.
                    Ok(_) => {}
                }
            }
            trip(&stop);
        });
    }

    let (lock, cv) = &*stop;
    let mut stopped = lock.lock().unwrap();
    while !*stopped {
        stopped = cv.wait(stopped).unwrap();
    }
    drop(stopped);
    running.store(false, Ordering::SeqCst);
    for h in threads {
        let _ = h.join();
    }
    drop(server);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_round_trip_their_spelling() {
        for role in Role::ALL {
            assert_eq!(Role::parse(role.as_str()), Some(role));
        }
        assert_eq!(Role::parse("zookeeper"), None);
    }

    #[test]
    fn env_contract_round_trips() {
        let mut nc = NodeConfig::new(Role::Query, "127.0.0.1:0", "/tmp/ww-env");
        nc.durability_fsync = false;
        nc.wal_segment_bytes = 65_536;
        nc.peers = vec![
            (Role::Meta, 0, "127.0.0.1:4100".parse().unwrap()),
            (Role::Indexing, 2, "127.0.0.1:4102".parse().unwrap()),
            (Role::Dispatcher, 0, "127.0.0.1:4101".parse().unwrap()),
        ];
        nc.indexing_processes = 3;
        nc.proc_index = 1;
        nc.heartbeat_interval = Duration::from_millis(250);
        nc.lease_ttl = Duration::from_millis(900);
        let mut cmd = std::process::Command::new("true");
        nc.apply_env(&mut cmd);
        // Replay the command's captured env through from_env's parser by
        // materializing it into this process (unique keys, test-local).
        for (k, v) in cmd.get_envs() {
            std::env::set_var(k, v.unwrap());
        }
        let back = NodeConfig::from_env().unwrap();
        assert_eq!(back.role, nc.role);
        assert_eq!(back.root, nc.root);
        assert_eq!(back.indexing_servers, nc.indexing_servers);
        assert_eq!(back.durability_fsync, nc.durability_fsync);
        assert_eq!(back.wal_segment_bytes, nc.wal_segment_bytes);
        assert_eq!(back.indexing_processes, nc.indexing_processes);
        assert_eq!(back.query_processes, nc.query_processes);
        assert_eq!(back.proc_index, nc.proc_index);
        assert_eq!(back.heartbeat_interval, nc.heartbeat_interval);
        assert_eq!(back.lease_ttl, nc.lease_ttl);
        assert_eq!(back.peers, nc.peers);
        for key in [
            "WW_NODE_ROLE",
            "WW_NODE_LISTEN",
            "WW_NODE_ROOT",
            "WW_NODE_IX",
            "WW_NODE_QS",
            "WW_NODE_DISP",
            "WW_NODE_NODES",
            "WW_NODE_CHUNK_BYTES",
            "WW_NODE_FSYNC",
            "WW_NODE_WAL_SEG",
            "WW_NODE_IX_PROCS",
            "WW_NODE_QS_PROCS",
            "WW_NODE_PROC",
            "WW_NODE_HB_MS",
            "WW_NODE_LEASE_MS",
            "WW_NODE_PEERS",
        ] {
            std::env::remove_var(key);
        }
    }
}
