//! Launching and talking to a multi-process loopback cluster.
//!
//! [`ClusterSpec::launch`] spawns the role processes (meta → indexing ×
//! `indexing_processes` → query × `query_processes` → dispatcher, so each
//! child's dependencies are already listening), reads each child's
//! `WW_NODE_READY <addr>` handshake line, and threads the accumulated
//! peer map into the next child's environment. The returned
//! [`ClusterHandle`] owns the children — and can reshape the cluster
//! live: [`ClusterHandle::add_node`] / [`ClusterHandle::drain_node`] grow
//! and shrink the indexing tier while ingest and queries keep running.
//! [`ClusterHandle::shutdown`] retires them via `Shutdown` RPCs (client
//! gateway first, metadata last) with a kill fallback, and dropping the
//! handle kills anything still running — tests never leak processes.

use crate::runtime::{route_peers, NodeConfig, Role};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use waterwheel_agg::AggregateAnswer;
use waterwheel_core::{
    AggregateKind, KeyInterval, QueryResult, Result, ServerId, SystemConfig, TimeInterval, Tuple,
    WwError,
};
use waterwheel_meta::MembershipView;
use waterwheel_net::{
    MetaRequest, MetaResponse, Request, Response, RpcClient, TcpTransport, Transport, COORDINATOR,
    META_SERVER,
};
use waterwheel_server::host::IdLayout;

/// The source address external clients send from (outside every server
/// id range).
pub const CLIENT_ID: ServerId = ServerId(5_000);

/// Shape of a multi-process cluster: the shared filesystem root plus the
/// same counts the embedded builder takes.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Shared root (chunks, metadata snapshot) every process opens.
    pub root: PathBuf,
    /// Indexing-server count.
    pub indexing_servers: usize,
    /// Query-server count.
    pub query_servers: usize,
    /// Dispatcher count.
    pub dispatchers: usize,
    /// Simulated cluster nodes.
    pub nodes: usize,
    /// Chunk size driving flush boundaries.
    pub chunk_size_bytes: usize,
    /// Whether durable surfaces fsync on commit
    /// (`SystemConfig::durability_fsync`).
    pub durability_fsync: bool,
    /// WAL segment size (`SystemConfig::wal_segment_bytes`).
    pub wal_segment_bytes: usize,
    /// OS processes sharing the indexing role; `indexing_servers` must
    /// divide evenly across them. [`ClusterHandle::add_node`] grows this
    /// count live.
    pub indexing_processes: usize,
    /// OS processes sharing the query role; `query_servers` must divide
    /// evenly across them.
    pub query_processes: usize,
    /// Membership lease renewal cadence
    /// (`SystemConfig::heartbeat_interval`).
    pub heartbeat_interval: Duration,
    /// Membership lease duration (`SystemConfig::lease_ttl`); a process
    /// that stops heartbeating for this long is evicted by the metadata
    /// server's sweeper.
    pub lease_ttl: Duration,
}

impl ClusterSpec {
    /// A spec with small, test-friendly defaults.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let cfg = SystemConfig::default();
        Self {
            root: root.into(),
            indexing_servers: 2,
            query_servers: 2,
            dispatchers: 2,
            nodes: 4,
            chunk_size_bytes: cfg.chunk_size_bytes,
            durability_fsync: cfg.durability_fsync,
            wal_segment_bytes: cfg.wal_segment_bytes,
            indexing_processes: 1,
            query_processes: 1,
            heartbeat_interval: cfg.heartbeat_interval,
            lease_ttl: cfg.lease_ttl,
        }
    }

    /// The id layout every process of this cluster derives.
    fn layout(&self) -> IdLayout {
        IdLayout::new(self.indexing_servers, self.query_servers, self.dispatchers)
            .sliced(self.indexing_processes, self.query_processes)
            .expect("launchers keep server counts divisible by their processes")
    }

    fn node_config(
        &self,
        role: Role,
        proc_index: usize,
        peers: Vec<(Role, usize, SocketAddr)>,
    ) -> NodeConfig {
        let mut nc = NodeConfig::new(role, "127.0.0.1:0", &self.root);
        nc.indexing_servers = self.indexing_servers;
        nc.query_servers = self.query_servers;
        nc.dispatchers = self.dispatchers;
        nc.nodes = self.nodes;
        nc.chunk_size_bytes = self.chunk_size_bytes;
        nc.durability_fsync = self.durability_fsync;
        nc.wal_segment_bytes = self.wal_segment_bytes;
        nc.indexing_processes = self.indexing_processes;
        nc.query_processes = self.query_processes;
        nc.proc_index = proc_index;
        nc.heartbeat_interval = self.heartbeat_interval;
        nc.lease_ttl = self.lease_ttl;
        nc.peers = peers;
        nc
    }

    /// The launch plan: every `(role, proc_index)` in dependency order —
    /// meta first, then each indexing and query slice, the dispatcher
    /// gateway last.
    fn launch_order(&self) -> Vec<(Role, usize)> {
        let mut order = vec![(Role::Meta, 0)];
        order.extend((0..self.indexing_processes.max(1)).map(|p| (Role::Indexing, p)));
        order.extend((0..self.query_processes.max(1)).map(|p| (Role::Query, p)));
        order.push((Role::Dispatcher, 0));
        order
    }

    /// Spawns the role processes from `binary` (any executable whose
    /// `main` calls [`crate::maybe_run_child`] first — the
    /// `waterwheel-node` binary, or a self-hosting example/test).
    pub fn launch(&self, binary: impl AsRef<Path>) -> Result<ClusterHandle> {
        let binary = binary.as_ref();
        std::fs::create_dir_all(&self.root)?;
        let mut procs: Vec<NodeProc> = Vec::new();
        let mut peers: Vec<(Role, usize, SocketAddr)> = Vec::new();
        for (role, proc_index) in self.launch_order() {
            let (child, addr) =
                match spawn_node(binary, &self.node_config(role, proc_index, peers.clone())) {
                    Ok(spawned) => spawned,
                    Err(e) => {
                        // Reap what already started; nothing must outlive a
                        // failed launch.
                        for mut p in procs {
                            let _ = p.child.kill();
                            let _ = p.child.wait();
                        }
                        return Err(e);
                    }
                };
            peers.push((role, proc_index, addr));
            procs.push(NodeProc {
                role,
                proc_index,
                child,
                addr,
                killed: false,
            });
        }
        Ok(ClusterHandle {
            spec: self.clone(),
            binary: binary.to_path_buf(),
            procs,
        })
    }
}

/// Spawns one node process from `binary` with `nc`'s environment and
/// blocks until it reports ready; a child that fails to is killed and
/// reaped.
fn spawn_node(binary: &Path, nc: &NodeConfig) -> Result<(Child, SocketAddr)> {
    let mut cmd = Command::new(binary);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    nc.apply_env(&mut cmd);
    let mut child = cmd.spawn()?;
    match read_ready(&mut child) {
        Ok(addr) => Ok((child, addr)),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Blocks until the child prints its `WW_NODE_READY <addr>` handshake.
fn read_ready(child: &mut Child) -> Result<SocketAddr> {
    let stdout = child.stdout.take().ok_or_else(|| {
        WwError::InvalidState("node child was spawned without a stdout pipe".into())
    })?;
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line?;
        if let Some(addr) = line.strip_prefix("WW_NODE_READY ") {
            return addr.trim().parse().map_err(|_| WwError::Corrupt {
                what: "node ready handshake",
                detail: format!("unparseable address {addr:?}"),
            });
        }
    }
    Err(WwError::InvalidState(
        "node process exited before reporting ready".into(),
    ))
}

struct NodeProc {
    role: Role,
    proc_index: usize,
    child: Child,
    addr: SocketAddr,
    /// SIGKILLed by [`ClusterHandle::kill_nine`] and already reaped:
    /// shutdown must not waste a deadline RPCing into the void.
    killed: bool,
}

/// A running multi-process cluster; owns the child processes.
pub struct ClusterHandle {
    spec: ClusterSpec,
    binary: PathBuf,
    procs: Vec<NodeProc>,
}

impl ClusterHandle {
    /// The peer map of every running process.
    fn peers(&self) -> Vec<(Role, usize, SocketAddr)> {
        self.procs
            .iter()
            .map(|p| (p.role, p.proc_index, p.addr))
            .collect()
    }

    /// The listen address of a role's process.
    pub fn addr(&self, role: Role) -> Option<SocketAddr> {
        self.procs.iter().find(|p| p.role == role).map(|p| p.addr)
    }

    /// A client speaking the gateway RPC verbs against this cluster.
    pub fn client(&self) -> ClusterClient {
        // Client calls wrap whole pipeline stages (a Flush pumps every
        // queued tuple); give them room before a retry re-enters.
        self.client_with_timeout(Duration::from_secs(10), 2)
    }

    /// A client with an explicit per-attempt deadline and retry budget —
    /// probes that expect the cluster to be down want a short one, since
    /// the transport keeps re-connecting until the deadline expires.
    pub fn client_with_timeout(&self, timeout: Duration, retries: u32) -> ClusterClient {
        let peers = self.peers();
        ClusterClient::connect(&self.spec, &peers, timeout, retries)
    }

    /// A client with its own source identity for batch ingest. Each
    /// concurrently-ingesting thread needs a distinct identity: the
    /// gateway dedups [`ClusterClient::insert_batch`] deliveries on
    /// `(client id, dispatcher id)` sequence watermarks, so two threads
    /// sharing one identity would shadow each other's batches.
    pub fn ingest_client(&self, lane: u32) -> ClusterClient {
        let peers = self.peers();
        ClusterClient::connect_as(
            &self.spec,
            &peers,
            Duration::from_secs(10),
            2,
            ServerId(CLIENT_ID.0 + 1 + lane),
        )
    }

    /// SIGKILLs a role's process mid-flight (`Child::kill` delivers
    /// SIGKILL on Unix — no grace, no cleanup handlers) and reaps it. The
    /// rest of the cluster keeps running degraded until [`Self::restart`]
    /// brings the role back at the same address. This is the crash-
    /// recovery rig's hammer: everything the process held only in memory
    /// or unsynced buffers is gone.
    pub fn kill_nine(&mut self, role: Role) -> Result<()> {
        let p = self
            .procs
            .iter_mut()
            .find(|p| p.role == role && p.proc_index == 0)
            .ok_or_else(|| WwError::InvalidState(format!("no {role} process to kill")))?;
        p.child.kill()?;
        p.child.wait()?;
        p.killed = true;
        Ok(())
    }

    /// Respawns a role (after [`Self::kill_nine`]) at its **original
    /// address** — the rest of the cluster still routes there — with the
    /// full peer map, and blocks until the child reports ready. The
    /// restarted process recovers from durable state alone: queue WAL,
    /// metadata snapshot + log, and sealed chunk files.
    pub fn restart(&mut self, role: Role) -> Result<()> {
        let pos = self
            .procs
            .iter()
            .position(|p| p.role == role && p.proc_index == 0)
            .ok_or_else(|| WwError::InvalidState(format!("no {role} process to restart")))?;
        let peers = self.peers();
        let old_addr = self.procs[pos].addr;
        let mut nc = self.spec.node_config(role, 0, peers);
        nc.listen = old_addr.to_string();
        let (mut child, addr) = spawn_node(&self.binary, &nc)?;
        if addr != old_addr {
            let _ = child.kill();
            let _ = child.wait();
            return Err(WwError::InvalidState(format!(
                "restarted {role} bound {addr}, expected {old_addr}"
            )));
        }
        self.procs[pos] = NodeProc {
            role,
            proc_index: 0,
            child,
            addr,
            killed: false,
        };
        Ok(())
    }

    /// The id of the first server hosted by `(role, proc_index)` — the
    /// representative a control RPC (shutdown, flush) addresses to reach
    /// that process.
    fn rep_id(&self, role: Role, proc_index: usize) -> ServerId {
        let ids = self.spec.layout();
        match role {
            Role::Meta => META_SERVER,
            Role::Dispatcher => ids.dispatchers[0],
            Role::Indexing => ids.hosted_indexing(proc_index)[0],
            Role::Query => ids.hosted_query(proc_index)[0],
        }
    }

    /// Grows the indexing tier by one OS process (Fig. 17 scale-out),
    /// live: spawns the process with `indexing_servers / indexing_processes`
    /// fresh server ids appended above the existing slices (so no existing
    /// process's slice moves), announces the new routes to the gateway, and
    /// runs the live migration state machine to rebalance key ownership
    /// onto the joiners. Ingest and queries keep running — and keep
    /// answering exactly — throughout. Returns the membership epoch after
    /// the cut-over.
    pub fn add_node(&mut self) -> Result<u64> {
        let per = self.spec.indexing_servers / self.spec.indexing_processes;
        let proc_index = self.spec.indexing_processes;
        let mut grown = self.spec.clone();
        grown.indexing_servers += per;
        grown.indexing_processes += 1;
        let peers = self.peers();
        let (child, addr) = spawn_node(
            &self.binary,
            &grown.node_config(Role::Indexing, proc_index, peers),
        )?;
        self.procs.push(NodeProc {
            role: Role::Indexing,
            proc_index,
            child,
            addr,
            killed: false,
        });
        self.spec = grown;
        // The joiner registered its membership leases before reporting
        // ready; the rest of the cluster just needs routes to the new ids
        // before the rebalance reassigns ownership onto them.
        let client = self.client();
        let new_ids = self.spec.layout().hosted_indexing(proc_index);
        client.register_peers(new_ids.iter().map(|&id| (id, addr.to_string())).collect())?;
        let (epoch, _ranges) = client.migrate_uniform()?;
        Ok(epoch)
    }

    /// Shrinks the indexing tier by one OS process, live: the last-added
    /// process's servers leave the membership, the migration state machine
    /// moves their key ranges (and seals their in-memory trees into
    /// globally-reachable chunks) onto the survivors, and only then is the
    /// process retired. Returns the membership epoch after the cut-over.
    pub fn drain_node(&mut self) -> Result<u64> {
        if self.spec.indexing_processes <= 1 {
            return Err(WwError::InvalidState(
                "cannot drain the last indexing process".into(),
            ));
        }
        let victim_proc = self.spec.indexing_processes - 1;
        let per = self.spec.indexing_servers / self.spec.indexing_processes;
        let victim_ids = self.spec.layout().hosted_indexing(victim_proc);
        let client = self.client();
        // Leases first: the rebalance below reads the live membership, so
        // the victims must be gone from it before ownership is recomputed.
        for &id in &victim_ids {
            client.leave(id)?;
        }
        let (epoch, _ranges) = client.migrate_uniform()?;
        // Belt over the §III-D braces: the migration already sealed the
        // victims as sources, but one more drain closes the window for a
        // dispatch that raced the schema swap.
        for &id in &victim_ids {
            client.flush_server(id)?;
        }
        let _ = client.shutdown_server(victim_ids[0]);
        let pos = self
            .procs
            .iter()
            .position(|p| p.role == Role::Indexing && p.proc_index == victim_proc)
            .ok_or_else(|| WwError::InvalidState("no process hosts the drained slice".into()))?;
        let mut p = self.procs.remove(pos);
        wait_or_kill(&mut p.child, Duration::from_secs(10));
        self.spec.indexing_servers -= per;
        self.spec.indexing_processes -= 1;
        Ok(epoch)
    }

    /// Retires the cluster: `Shutdown` RPC per process — gateway first so
    /// nothing keeps dispatching into dying backends, metadata last —
    /// then waits for each child, killing any that ignore the request.
    /// Roles already SIGKILLed (and not restarted) are skipped rather
    /// than RPCed into the void. Returns an error if any child had to be
    /// killed or exited dirty.
    pub fn shutdown(mut self) -> Result<()> {
        let client = self.client();
        let mut clean = true;
        for role in [Role::Dispatcher, Role::Query, Role::Indexing, Role::Meta] {
            let targets: Vec<(usize, bool)> = self
                .procs
                .iter()
                .filter(|p| p.role == role)
                .map(|p| (p.proc_index, p.killed))
                .collect();
            for (proc_index, killed) in targets {
                if killed {
                    clean = false;
                } else {
                    clean &= client
                        .shutdown_server(self.rep_id(role, proc_index))
                        .is_ok();
                }
            }
            // Reap this tier before shutting down the ones it still talks
            // to: a retiring dispatcher refreshes its routing table against
            // meta, and retiring indexing/query processes send their
            // farewell `leave` there — tearing meta down first would leave
            // them blocking on a dead listener instead of exiting.
            for p in self
                .procs
                .iter_mut()
                .filter(|p| p.role == role && !p.killed)
            {
                clean &= wait_or_kill(&mut p.child, Duration::from_secs(10));
            }
        }
        self.procs.clear();
        if clean {
            Ok(())
        } else {
            Err(WwError::InvalidState(
                "a node process had to be killed during shutdown".into(),
            ))
        }
    }
}

impl Drop for ClusterHandle {
    fn drop(&mut self) {
        for p in &mut self.procs {
            if p.child.try_wait().ok().flatten().is_none() {
                let _ = p.child.kill();
            }
            let _ = p.child.wait();
        }
    }
}

/// Waits for a child to exit cleanly within `grace`; kills it otherwise.
/// Returns whether the exit was clean (no kill, zero status).
fn wait_or_kill(child: &mut Child, grace: Duration) -> bool {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// A typed client for a multi-process cluster: inserts through the
/// dispatcher gateway, queries through the coordinator, and shuts roles
/// down — all over one pooled TCP transport.
pub struct ClusterClient {
    rpc: RpcClient,
    ids: IdLayout,
    next: AtomicUsize,
    batch_seq: AtomicU64,
}

impl ClusterClient {
    fn connect(
        spec: &ClusterSpec,
        peers: &[(Role, usize, SocketAddr)],
        timeout: Duration,
        retries: u32,
    ) -> Self {
        Self::connect_as(spec, peers, timeout, retries, CLIENT_ID)
    }

    fn connect_as(
        spec: &ClusterSpec,
        peers: &[(Role, usize, SocketAddr)],
        timeout: Duration,
        retries: u32,
        src: ServerId,
    ) -> Self {
        let ids = spec.layout();
        let t = Arc::new(TcpTransport::new());
        route_peers(&t, peers, &ids);
        let mut cfg = SystemConfig::default();
        cfg.rpc_timeout = timeout;
        cfg.rpc_retries = retries;
        let rpc = RpcClient::new(t as Arc<dyn Transport>, src, &cfg);
        Self {
            rpc,
            ids,
            next: AtomicUsize::new(0),
            batch_seq: AtomicU64::new(0),
        }
    }

    /// Ingests one tuple (round-robin across dispatcher processes' ids).
    pub fn insert(&self, tuple: Tuple) -> Result<()> {
        let disp = &self.ids.dispatchers;
        let i = self.next.fetch_add(1, Ordering::Relaxed) % disp.len();
        self.rpc
            .call(disp[i], Request::Ingest { tuple })?
            .into_ack()
    }

    /// Ingests a whole batch in one exactly-once RPC, returning how many
    /// tuples the gateway accepted. The batch carries this client's own
    /// monotonic sequence number, so a timed-out-and-retried delivery is
    /// recognised and never appended twice.
    ///
    /// The dedup key is `(client id, dispatcher id, seq)`: batches from
    /// one client must reach a given dispatcher in sequence order, so
    /// drive a client from a single thread (use
    /// [`ClusterHandle::ingest_client`] to give each ingesting thread its
    /// own identity).
    pub fn insert_batch(&self, tuples: Vec<Tuple>) -> Result<u32> {
        let seq = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let disp = &self.ids.dispatchers;
        let dst = disp[seq as usize % disp.len()];
        let (n, _deduped) = self
            .rpc
            .call(dst, Request::IngestBatch { seq, tuples })?
            .into_ack_batch()?;
        Ok(n)
    }

    /// Flushes the whole pipeline: buffered batches, queued tuples, and
    /// in-memory trees all land in chunks before this returns.
    pub fn flush(&self) -> Result<()> {
        match self.rpc.call(self.ids.dispatchers[0], Request::Flush)? {
            Response::Flushed(_) => Ok(()),
            _ => Err(WwError::InvalidState(
                "gateway answered Flush with the wrong variant".into(),
            )),
        }
    }

    /// Runs a temporal range query through the coordinator.
    pub fn query(&self, keys: KeyInterval, times: TimeInterval) -> Result<QueryResult> {
        self.rpc
            .call(
                COORDINATOR,
                Request::ClientQuery {
                    keys,
                    times,
                    attr_eq: None,
                },
            )?
            .into_query()
    }

    /// Runs a range query constrained to `attr == value` through the
    /// coordinator (paper §VIII; see
    /// [`PAYLOAD_BYTE_ATTR`](crate::runtime::PAYLOAD_BYTE_ATTR) for the
    /// attribute every node process registers).
    pub fn query_attr(
        &self,
        keys: KeyInterval,
        times: TimeInterval,
        attr: u16,
        value: u64,
    ) -> Result<QueryResult> {
        self.rpc
            .call(
                COORDINATOR,
                Request::ClientQuery {
                    keys,
                    times,
                    attr_eq: Some((attr, value)),
                },
            )?
            .into_query()
    }

    /// Runs a temporal aggregate query through the coordinator.
    pub fn aggregate(
        &self,
        keys: KeyInterval,
        times: TimeInterval,
        kind: AggregateKind,
    ) -> Result<AggregateAnswer> {
        self.rpc
            .call(COORDINATOR, Request::ClientAggregate { keys, times, kind })?
            .into_aggregate()
    }

    /// Pings one server id (any role).
    pub fn ping(&self, id: ServerId) -> Result<()> {
        match self.rpc.call(id, Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(WwError::InvalidState(
                "ping answered the wrong variant".into(),
            )),
        }
    }

    /// Asks a role's first process to exit cleanly. The listener
    /// acknowledges before tearing down, so an `Ok` means the request
    /// landed.
    pub fn shutdown_role(&self, role: Role) -> Result<()> {
        let dst = match role {
            Role::Meta => META_SERVER,
            Role::Indexing => self.ids.indexing[0],
            Role::Query => self.ids.query[0],
            Role::Dispatcher => self.ids.dispatchers[0],
        };
        self.shutdown_server(dst)
    }

    /// Asks the process hosting `id` to exit cleanly.
    pub fn shutdown_server(&self, id: ServerId) -> Result<()> {
        self.rpc.call(id, Request::Shutdown)?.into_ack()
    }

    /// Drains and seals one indexing server: pump its queue partition dry,
    /// then flush its in-memory tree into chunks.
    pub fn flush_server(&self, id: ServerId) -> Result<()> {
        self.rpc
            .call(id, Request::Flush)?
            .into_flushed()
            .map(|_| ())
    }

    /// Teaches the gateway process the socket addresses of servers that
    /// joined after it launched — routing to them works from the next RPC.
    pub fn register_peers(&self, peers: Vec<(ServerId, String)>) -> Result<()> {
        self.rpc
            .call(COORDINATOR, Request::RegisterPeers { peers })?
            .into_ack()
    }

    /// Runs the gateway's live migration state machine: rebalance key
    /// ownership uniformly across the current indexing membership. Returns
    /// `(membership epoch after the cut-over, ranges that moved)`; the call
    /// is idempotent when ownership is already uniform (`ranges == 0`).
    pub fn migrate_uniform(&self) -> Result<(u64, u32)> {
        self.rpc
            .call(COORDINATOR, Request::MigrateUniform)?
            .into_migrated()
    }

    /// Gracefully removes one server from the membership (its process may
    /// keep running — [`ClusterHandle::drain_node`] retires it after the
    /// rebalance). Returns the membership epoch after the departure.
    pub fn leave(&self, server: ServerId) -> Result<u64> {
        match self
            .rpc
            .call(META_SERVER, Request::Meta(MetaRequest::Leave { server }))?
            .into_meta()?
        {
            MetaResponse::Epoch(e) => Ok(e),
            _ => Err(WwError::InvalidState(
                "leave answered the wrong meta variant".into(),
            )),
        }
    }

    /// The metadata server's current epoch-numbered membership view.
    pub fn membership(&self) -> Result<MembershipView> {
        match self
            .rpc
            .call(META_SERVER, Request::Meta(MetaRequest::Membership))?
            .into_meta()?
        {
            MetaResponse::Membership(v) => Ok(v),
            _ => Err(WwError::InvalidState(
                "membership answered the wrong meta variant".into(),
            )),
        }
    }
}
