//! Multi-process Waterwheel: the paper's deployment shape (§II-B,
//! Figure 3) with each server role in its own OS process, talking over
//! real TCP sockets via the `waterwheel-net` wire codec.
//!
//! Four roles partition the embedded system's objects:
//!
//! | Role | Binds | Owns |
//! |---|---|---|
//! | `meta` | `META_SERVER` | durable [`MetadataService`](waterwheel_meta::MetadataService), bootstrap partition schema, lease sweeper |
//! | `indexing` | indexing ids `0..` | durable ingestion queue (and its exactly-once dedup), in-memory trees, pumps, chunk flushing |
//! | `query` | query ids `1000..` | chunk subquery execution over the shared DFS root |
//! | `dispatcher` | dispatcher ids `2000..` + `COORDINATOR` | ingest routing, query decomposition, client gateway, the migration engine behind `MigrateUniform` |
//!
//! Every process rebuilds the same deterministic layout (cluster
//! placement, server ids, uniform partition schema) from a handful of
//! counts, so no process needs the others' in-memory state — only their
//! addresses (a peer map) and the shared filesystem root where chunks and
//! metadata live. The layout, the indexing and query handlers, and the
//! pump loop are the embedded system's own, from
//! [`waterwheel_server::host`]; the runtime adds only what a separate
//! process needs (peer routes, lease keepers, the client gateway).
//!
//! [`ClusterSpec::launch`](spec::ClusterSpec::launch) spawns the four
//! roles as children of the calling process and returns a
//! [`ClusterClient`] speaking the client RPC verbs
//! (`Ingest`, `Flush`, `ClientQuery`, `ClientAggregate`, `Shutdown`).
//! The `waterwheel-node` binary wraps the same runtime behind a CLI, and
//! its `smoke` subcommand runs a self-contained loopback cluster check.

#![warn(missing_docs)]

pub mod runtime;
pub mod spec;

pub use runtime::{run_node, NodeConfig, Role, PAYLOAD_BYTE_ATTR};
pub use spec::{ClusterClient, ClusterHandle, ClusterSpec};

/// If this process was spawned as a cluster node (the `WW_NODE_ROLE`
/// environment variable is set), runs the node role to completion and
/// exits — never returns. A no-op otherwise.
///
/// Call this first in `main` of any binary passed to
/// [`ClusterSpec::launch`](spec::ClusterSpec::launch): the launcher
/// re-executes that binary with the role environment set, so examples and
/// tests can self-host a cluster without a separate node executable.
pub fn maybe_run_child() {
    if std::env::var_os("WW_NODE_ROLE").is_none() {
        return;
    }
    let cfg = match NodeConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("waterwheel-node: bad WW_NODE_* environment: {e}");
            std::process::exit(2);
        }
    };
    match run_node(cfg) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("waterwheel-node: {e}");
            std::process::exit(1);
        }
    }
}
