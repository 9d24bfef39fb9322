//! Live key-range migration between indexing servers (the paper's Fig. 17
//! scale-out path, built on the §III-D overlap-correctness argument).
//!
//! A migration moves ownership of one or more key ranges from source
//! indexing servers to destination servers while the system keeps
//! ingesting and answering queries, with byte-exact answers throughout.
//! The state machine:
//!
//! 1. **Snapshot ship** — every source seals its in-memory tree to chunks
//!    on the DFS. Sealed chunks are globally reachable (any query server
//!    reads them), so "shipping" is a flush plus metadata registration.
//! 2. **Dual write** — the new partition schema is installed at the
//!    metadata server, pushed to every dispatcher, and the indexing
//!    servers re-assign their intervals. Fresh tuples for a moved range
//!    now land on the new owner while tuples the old owner still holds in
//!    memory stay queryable: the metadata server tracks *actual* memory
//!    regions, not assignments, so the coordinator plans subqueries
//!    against both servers during the overlap window (§III-D).
//! 3. **Cut over** — a straggler flush seals anything the old owner
//!    absorbed between steps 1 and 2, and the migration is completed at
//!    the metadata server, which stamps the cut-over membership epoch.
//!
//! Each move is recorded at the metadata server before anything routes
//! differently ([`MetaClient::begin_migration`]) and completed after the
//! straggler flush ([`MetaClient::complete_migration`]), so a coordinator
//! restart — or `kill -9` of the driving process — finds the in-flight
//! record and the overlap window keeps answers exact until someone
//! finishes the cut-over.
//!
//! This module is the one migration engine: the plan, the old→new schema
//! diff, counters, and [`MigrationEngine`], which runs a plan using only a
//! [`MetaClient`], the dispatchers, and the `Flush`/`Reassign` control
//! RPCs. [`Waterwheel::rebalance`](crate::Waterwheel::rebalance) and the
//! node gateway's `MigrateUniform` verb both run it.

use crate::dispatcher::Dispatcher;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use waterwheel_core::{Key, KeyInterval, Result, ServerId, WwError};
use waterwheel_meta::PartitionSchema;
use waterwheel_net::{MetaClient, Request, RpcClient};

/// One planned ownership move: `keys` leaves `from` for `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeMove {
    /// The key range changing owners.
    pub keys: KeyInterval,
    /// The current owner (source).
    pub from: ServerId,
    /// The new owner (destination).
    pub to: ServerId,
}

/// A repartitioning plan: the schema to install plus the ownership moves
/// it implies relative to the schema it replaces.
#[derive(Clone, Debug)]
pub struct MigrationPlan {
    /// The new partition schema (version already bumped).
    pub schema: PartitionSchema,
    /// Every contiguous range that changes owners, ascending by key.
    pub moves: Vec<RangeMove>,
    /// The measured load deviation that triggered the plan.
    pub deviation: f64,
}

/// Phases of the migration state machine, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigrationPhase {
    /// Moves computed and recorded at the metadata server; nothing
    /// installed yet.
    Planned,
    /// Sources flushed: the moved ranges' history is sealed in chunks.
    SnapshotShipped,
    /// New schema live everywhere; old and new owners overlap (§III-D).
    DualWrite,
    /// Straggler flush done, migration completed at the metadata server.
    CutOver,
}

/// Counters for the migration engine, snapshotted into
/// [`SystemMetrics`](crate::SystemMetrics).
#[derive(Debug, Default)]
pub struct MigrationStats {
    /// Migrations recorded at the metadata server (begin).
    pub started: AtomicU64,
    /// Migrations cut over (complete).
    pub completed: AtomicU64,
    /// Key ranges whose owner changed across all migrations.
    pub reassigned_ranges: AtomicU64,
}

impl MigrationStats {
    /// Records `moves` ranges entering the state machine.
    pub fn record_started(&self, moves: u64) {
        self.started.fetch_add(1, Ordering::Relaxed);
        self.reassigned_ranges.fetch_add(moves, Ordering::Relaxed);
    }

    /// Records a completed cut-over.
    pub fn record_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// The handles that drive a [`MigrationPlan`] — identical on every
/// deployment shape.
pub struct MigrationEngine<'a> {
    /// Metadata stub: durable migration records and schema publication.
    pub meta: &'a MetaClient,
    /// Control-plane client for the `Flush` and `Reassign` RPCs.
    pub control: &'a RpcClient,
    /// Every dispatcher: buffered batches are pushed before the snapshot
    /// and the new schema is swapped into each.
    pub dispatchers: &'a [Arc<Dispatcher>],
    /// Engine counters.
    pub stats: &'a MigrationStats,
}

impl MigrationEngine<'_> {
    /// Runs `plan` through the live-migration state machine. Queries keep
    /// answering exactly throughout — the §III-D overlap window covers
    /// tuples the old owners still hold.
    pub fn run(&self, plan: &MigrationPlan) -> Result<()> {
        let sources: BTreeSet<ServerId> = plan.moves.iter().map(|m| m.from).collect();
        // Snapshot ship: buffered batches reach the queue, then every
        // source drains and seals (a `Flush` pumps its partition dry).
        for d in self.dispatchers {
            d.flush_batches()?;
        }
        self.seal(&sources)?;
        // Durable intent, before anything routes differently.
        let mut records = Vec::with_capacity(plan.moves.len());
        for m in &plan.moves {
            records.push(self.meta.begin_migration(m.keys, m.from, m.to)?);
        }
        self.stats.record_started(plan.moves.len() as u64);
        // Dual write: metadata server, dispatchers, indexing assignments.
        self.meta.set_partition(plan.schema.clone())?;
        for d in self.dispatchers {
            d.update_schema(plan.schema.clone());
        }
        for e in &plan.schema.entries {
            let interval = e.interval;
            self.control
                .call(e.server, Request::Reassign { interval })?
                .into_ack()?;
        }
        // Straggler flush closes the overlap; completion stamps the
        // cut-over epoch on each record.
        self.seal(&sources)?;
        for id in records {
            self.meta.complete_migration(id)?;
        }
        self.stats.record_completed();
        Ok(())
    }

    /// Drains and seals each source through a `Flush` RPC. A crashed
    /// server answers `Injected` and is skipped: its memory is gone and
    /// replays on recovery.
    fn seal(&self, sources: &BTreeSet<ServerId>) -> Result<()> {
        for &src in sources {
            match self.control.call(src, Request::Flush) {
                Ok(_) | Err(WwError::Injected(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Computes the ownership moves implied by replacing `old` with `new`:
/// every maximal contiguous key range whose owner differs between the two
/// schemas, ascending. Both schemas must cover the full domain (which
/// [`PartitionSchema::validate`] guarantees for installed schemas).
pub fn diff_moves(old: &PartitionSchema, new: &PartitionSchema) -> Vec<RangeMove> {
    // Walk the merged boundary set: within one elementary interval both
    // schemas have a single owner, so comparing owners at the interval's
    // start key decides the whole interval.
    let mut starts: Vec<Key> = old
        .entries
        .iter()
        .chain(new.entries.iter())
        .map(|e| e.interval.lo())
        .collect();
    starts.sort_unstable();
    starts.dedup();
    let mut moves: Vec<RangeMove> = Vec::new();
    for (i, &lo) in starts.iter().enumerate() {
        let hi = match starts.get(i + 1) {
            Some(&next) => next - 1,
            None => Key::MAX,
        };
        let (from, to) = (old.route(lo), new.route(lo));
        if from == to {
            continue;
        }
        // Merge with the previous move when it is key-adjacent and has the
        // same endpoints — boundary points from the *other* schema must
        // not split one logical move in two.
        if let Some(last) = moves.last_mut() {
            if last.from == from && last.to == to && last.keys.hi().wrapping_add(1) == lo {
                *last = RangeMove {
                    keys: KeyInterval::new(last.keys.lo(), hi),
                    from,
                    to,
                };
                continue;
            }
        }
        moves.push(RangeMove {
            keys: KeyInterval::new(lo, hi),
            from,
            to,
        });
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ServerId> {
        (0..n).map(ServerId).collect()
    }

    #[test]
    fn identical_schemas_move_nothing() {
        let s = PartitionSchema::from_boundaries(&[100, 200], &servers(3), 1).unwrap();
        assert!(diff_moves(&s, &s).is_empty());
    }

    #[test]
    fn boundary_shift_moves_exactly_the_gap() {
        let old = PartitionSchema::from_boundaries(&[100], &servers(2), 1).unwrap();
        let new = PartitionSchema::from_boundaries(&[250], &servers(2), 2).unwrap();
        // Server 0's interval grew from [0,99] to [0,249]: keys 100..=249
        // move from server 1 to server 0.
        assert_eq!(
            diff_moves(&old, &new),
            vec![RangeMove {
                keys: KeyInterval::new(100, 249),
                from: ServerId(1),
                to: ServerId(0),
            }]
        );
    }

    #[test]
    fn added_server_takes_a_contiguous_slice() {
        let old = PartitionSchema::uniform(&servers(2));
        // A third server takes the top third of the domain.
        let third = Key::MAX / 3;
        let new = PartitionSchema::from_boundaries(&[third, 2 * third], &servers(3), 2).unwrap();
        let moves = diff_moves(&old, &new);
        // Every move lands on a real new owner and the moves are disjoint
        // and ascending.
        assert!(!moves.is_empty());
        for w in moves.windows(2) {
            assert!(w[0].keys.hi() < w[1].keys.lo());
        }
        assert!(moves.iter().any(|m| m.to == ServerId(2)));
        // Moves agree with routing on both schemas, sampled across each
        // moved range.
        for m in &moves {
            for key in [m.keys.lo(), m.keys.hi()] {
                assert_eq!(old.route(key), m.from);
                assert_eq!(new.route(key), m.to);
            }
        }
    }

    #[test]
    fn adjacent_same_endpoint_fragments_merge() {
        // Old splits at 100 and 200; new gives everything under 300 to
        // server 0. The moved span 100..=299 crosses old's boundary at 200
        // but has one (from=varies) — check fragments merge only when the
        // endpoints match.
        let old = PartitionSchema::from_boundaries(&[100, 200], &servers(3), 1).unwrap();
        let new = PartitionSchema::from_boundaries(&[300, 400], &servers(3), 2).unwrap();
        let moves = diff_moves(&old, &new);
        // 100..=199 moves 1→0, 200..=299 moves 2→0 (different sources: no
        // merge), 300..=399 moves 2→1.
        assert_eq!(
            moves,
            vec![
                RangeMove {
                    keys: KeyInterval::new(100, 199),
                    from: ServerId(1),
                    to: ServerId(0),
                },
                RangeMove {
                    keys: KeyInterval::new(200, 299),
                    from: ServerId(2),
                    to: ServerId(0),
                },
                RangeMove {
                    keys: KeyInterval::new(300, 399),
                    from: ServerId(2),
                    to: ServerId(1),
                },
            ]
        );
    }

    #[test]
    fn phases_are_ordered() {
        assert!(MigrationPhase::Planned < MigrationPhase::SnapshotShipped);
        assert!(MigrationPhase::SnapshotShipped < MigrationPhase::DualWrite);
        assert!(MigrationPhase::DualWrite < MigrationPhase::CutOver);
    }

    #[test]
    fn stats_count_rounds_and_ranges() {
        let s = MigrationStats::default();
        s.record_started(3);
        s.record_started(1);
        s.record_completed();
        assert_eq!(s.started.load(Ordering::Relaxed), 2);
        assert_eq!(s.reassigned_ranges.load(Ordering::Relaxed), 4);
        assert_eq!(s.completed.load(Ordering::Relaxed), 1);
    }
}
