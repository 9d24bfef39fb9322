//! The Waterwheel distributed system: dispatchers, indexing servers, query
//! servers, and the query coordinator (paper §II-B, Figure 3), wired
//! together as an embedded deployment.
//!
//! Start with [`Waterwheel::builder`]:
//!
//! ```no_run
//! use waterwheel_server::Waterwheel;
//! use waterwheel_core::{Query, KeyInterval, TimeInterval, Tuple};
//!
//! let ww = Waterwheel::builder("/tmp/ww-demo").build().unwrap();
//! ww.insert(Tuple::new(42, 1_000, &b"payload"[..])).unwrap();
//! ww.drain().unwrap(); // or ww.start_pumps() for background ingestion
//! let result = ww
//!     .query(&Query::range(KeyInterval::new(0, 100), TimeInterval::full()))
//!     .unwrap();
//! assert_eq!(result.tuples.len(), 1);
//! ```
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §III-A global partitioning, dispatchers | [`dispatcher`] |
//! | §III-B/C template tree in service       | [`indexing`] (tree itself in `waterwheel-index`) |
//! | §III-D adaptive key partitioning        | [`partitioning`] |
//! | §IV-A decomposition, §V query recovery  | [`coordinator`] |
//! | §IV-B subquery execution, caching       | [`query_server`] |
//! | §IV-C LADA + baseline dispatch          | [`dispatch`] |
//! | Figure 3 topology                       | [`system`] |
//! | Figure 3 roles, any placement           | [`host`] |
//! | Fig. 17 live key-range migration        | [`migration`] |
//!
//! Every cross-server hop (ingest, flush, subqueries, summary reads,
//! metadata calls) is a typed RPC on the `waterwheel-net` message plane;
//! [`Waterwheel::transport`] exposes it for fault injection and per-link
//! statistics. [`host`] is where every deployment shape — this embedded
//! system and the multi-process `waterwheel-node` runtime — sets up a
//! role's ids, handlers and pumps.

#![warn(missing_docs)]

pub mod admission;
pub mod attributes;
pub mod coordinator;
pub mod dispatch;
pub mod dispatcher;
pub mod host;
pub mod indexing;
pub mod metrics;
pub mod migration;
pub mod partitioning;
pub mod query_server;
pub mod system;

pub use admission::{AdmissionController, AdmissionTotals};
pub use attributes::AttrRegistry;
pub use coordinator::{Coordinator, CoordinatorStats};
pub use dispatch::{build_plan, execute_plan, DispatchPlan, DispatchPolicy, PlanRun};
pub use dispatcher::{Dispatcher, SampleWindow};
pub use indexing::{IndexingServer, IndexingStats};
pub use metrics::SystemMetrics;
pub use migration::{
    diff_moves, MigrationEngine, MigrationPhase, MigrationPlan, MigrationStats, RangeMove,
};
pub use partitioning::{BalanceOutcome, BalancerStats, PartitionBalancer, PlanOutcome};
pub use query_server::{QueryServer, QueryServerStats};
pub use system::{Waterwheel, WaterwheelBuilder};
