//! The paper's search algorithms.
//!
//! * [`time_query`] — time-dependent Dijkstra (`dist(S, ·, τ)`), the
//!   label-setting baseline of §2 and the ground truth for tests,
//! * [`label_correcting`] — the label-correcting profile search the paper
//!   compares against in Table 1 (propagates whole functions),
//! * [`connection_setting`] — **SPCS**, the self-pruning connection-setting
//!   profile search (§3.1), parameterised by its goal (one-to-all is the
//!   station-to-station search of §4 without a target): one settle step
//!   holds every pruning rule for both frontiers, and one place picks the
//!   frontier by [`KernelMode`] alone (the bucket ring serves every query;
//!   the binary heap runs where a check forces it),
//! * [`partition`] — the `conn(S)` partition strategies for parallel
//!   execution (§3.2): equal time-slots, equal number of connections,
//!   1-D k-means,
//! * [`parallel`] — the multi-threaded driver: one SPCS per thread on its
//!   connection subset, merge + connection reduction at the master (§3.2);
//!   also the one batch dispatch (across queries when a batch fills the
//!   workers, within a query otherwise) both engines use,
//! * [`kernel`] — the same search, for every goal, on a branch-light
//!   structure-of-arrays frontier: a time-bucket ring replaces the binary
//!   heap, relaxations sweep edges grouped by kind into contiguous `u32`
//!   lanes, and a single comparison commits improvements
//!   ([`KernelMode::Soa`], the default of both engines; the forced
//!   [`KernelMode::Scalar`] heap stays the arbiter of correctness),
//! * [`s2s`] — the station-to-station engine (§4): resolves a query to its
//!   kind and goal — stopping criterion, distance-table pruning via
//!   `via(T)`, target pruning,
//! * [`workspace`] — persistent, epoch-stamped per-worker search state;
//!   engines reuse it so the repeated-query hot path allocates nothing,
//! * [`cache`] — the concurrently readable, generation-keyed LRU over
//!   shared profile sets behind [`ProfileEngine::with_cache`], and the one
//!   memoization routine (probe, in-batch dedupe, fill) of both engines; delay
//!   updates ([`Network::apply_delay`] and batched feeds,
//!   [`Network::apply_feed`] — one bump per feed) invalidate it by bumping
//!   the generation,
//! * [`distance_table`] — precomputed full profile tables between transfer
//!   stations (the table owns the one transfer mask `via(T)` and the §4
//!   pruning read), kept fresh under live feeds by
//!   [`DistanceTable::refresh`], which recomputes every row in one batched
//!   pass (stale tables surface as a typed [`StaleTable`] from the
//!   fallible s2s entry points),
//! * [`network`] also hosts [`ConcurrentNetwork`]: snapshot-isolated
//!   serving, where readers pin immutable epoch-stamped
//!   [`NetworkSnapshot`]s while one writer patches a private master and
//!   publishes with an atomic swap; with a table configured, one refresher
//!   thread fills each published snapshot's table in the background (the
//!   newest request wins, and a snapshot without its table yet answers
//!   with the stopping criterion alone). A feed reports one result per layer:
//!   [`Network::apply_feed`] a [`FeedSummary`] of the routes it touched,
//!   rewrote and appended, [`ConcurrentNetwork::apply_feed`] a
//!   [`PublishOutcome`] carrying that summary and the snapshot it
//!   published,
//! * [`shard`] — the multi-network serving layer: a [`ShardedService`]
//!   owns N snapshot-published shards behind a station-to-shard directory,
//!   routes queries/batches/feeds to the owning shard's persistent engines
//!   (all serving methods `&self`, one `apply_feed` with one publish per
//!   shard per feed that returns each fed shard's
//!   [`PublishOutcome`], per-shard cache stripes, batches pin all
//!   touched shards' snapshots up front); cross-shard pairs are refused
//!   with a typed redirect ([`RouterError`]) unless a gateway is built,
//! * [`gateway`] — the cross-shard gateway: border-station alias groups
//!   ([`BorderSpec`]), per-shard border profile sets that live on the
//!   shard snapshot they are exact for (built once per snapshot, by the
//!   first stitch that pins it), and the stitch (link at junctions,
//!   merge) that makes [`ShardedService::s2s`] answer cross-shard pairs
//!   exactly,
//! * [`transfer_selection`] / [`contraction`] — choosing the transfer
//!   stations by station-graph contraction or by degree,
//! * [`multicriteria`] — the paper's future-work extension: Pareto
//!   (arrival, transfers) time-queries.

#![warn(missing_docs)]

pub mod cache;
pub mod connection_setting;
pub mod contraction;
pub mod distance_table;
pub mod gateway;
pub mod journey;
pub mod kernel;
pub mod label_correcting;
pub mod multicriteria;
pub mod network;
pub mod parallel;
pub mod partition;
pub mod profile_set;
pub mod s2s;
pub mod shard;
pub mod stats;
pub mod time_query;
pub mod transfer_selection;
pub mod workspace;

pub use cache::{CacheStats, ProfileCache};
pub use connection_setting::ProfileEngine;
pub use distance_table::{DistanceTable, StaleTable};
pub use gateway::{BorderSpec, GatewayStats};
pub use journey::{earliest_journey, Journey, Leg};
pub use kernel::KernelMode;
pub use network::{
    ConcurrentNetwork, FeedSummary, FillFailed, Network, NetworkSnapshot, PublishOutcome,
};
pub use parallel::OneToAllResult;
pub use partition::PartitionStrategy;
pub use profile_set::ProfileSet;
pub use s2s::{QueryKind, S2sCache, S2sEngine, S2sResult};
pub use shard::{Routed, RouterError, ShardId, ShardedService, ShardedServiceBuilder};
pub use stats::QueryStats;
pub use transfer_selection::TransferSelection;
pub use workspace::{SearchWorkspace, WorkspacePool};
