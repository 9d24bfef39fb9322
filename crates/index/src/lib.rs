//! In-memory index structures for Waterwheel.
//!
//! The centrepiece is the [`TemplateBTree`] (paper §III-B): a B+ tree whose
//! inner-node skeleton — the *template* — is retained and reused across chunk
//! flushes so that inserts never split nodes. The template is read-only
//! during normal operation, so concurrent inserts and reads only contend on
//! individual leaf latches.
//!
//! Two baseline indexes from the paper's evaluation (§VI-A) live alongside
//! it:
//!
//! * [`ConcurrentBTree`] — a traditional B+ tree with node splits and the
//!   Bayer–Schkolnick latch-crabbing concurrency protocol (paper ref \[4\]).
//! * [`BulkLoadingBTree`] — accumulates tuples, sorts them, and builds the
//!   index bottom-up; tuples are invisible to queries until the build
//!   completes, which is exactly why the paper rejects bulk loading for
//!   realtime visibility.
//!
//! Supporting machinery:
//!
//! * [`skew`] — the distribution-skewness factor `S(P, D)` and the
//!   Equation-3 boundary recomputation used by adaptive template update
//!   (paper §III-C).
//! * [`bloom`] — per-leaf bloom filters over time mini-ranges that let
//!   subqueries skip leaves with no temporally-qualifying tuples (§IV-B).
//! * [`stats`] — instrumentation counters behind the insertion-time
//!   breakdown of Figure 7(b).
//! * [`TupleIndex`] — the common trait the benchmark harnesses drive.

#![warn(missing_docs)]

pub mod bitmap;
pub mod bloom;
pub mod bulk;
pub mod columnar;
pub mod concurrent;
pub mod config;
pub mod sealed;
pub mod secondary;
pub mod skew;
pub mod stats;
pub mod template;
pub mod traits;

pub use bitmap::Bitmap;
pub use bloom::TimeBloom;
pub use bulk::BulkLoadingBTree;
pub use concurrent::ConcurrentBTree;
pub use config::IndexConfig;
pub use sealed::{SealedLeaf, SealedTree};
pub use secondary::{AttrId, AttrProbe, AttributeExtractor, ChunkAttrIndex, ValueBloom};
pub use stats::{IndexStats, StatsSnapshot};
pub use template::TemplateBTree;
pub use traits::TupleIndex;
