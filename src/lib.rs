//! **best-connections** — a Rust reproduction of
//! *Delling, Katz, Pajor: Parallel Computation of Best Connections in Public
//! Transportation Networks* (IPPS 2010).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — time arithmetic, piecewise-linear travel-time
//!   functions, arrival profiles and connection reduction,
//! * [`timetable`] — the periodic timetable model, GTFS-subset
//!   I/O and synthetic network generators,
//! * [`graph`] — the realistic time-dependent graph model and the
//!   station graph,
//! * [`heap`] — indexed d-ary priority queues,
//! * [`spcs`] — the search algorithms: time-queries, the
//!   label-correcting profile baseline, sequential and parallel self-pruning
//!   connection-setting (SPCS), the station-to-station engine with
//!   distance-table pruning, the workspace/pool/batch execution layers, and
//!   the sharded multi-network router (`ShardedService`) with its
//!   cross-shard border gateway,
//! * [`feed`] — realtime feed ingestion: the recorded GTFS-RT-style wire
//!   decoder with malformed-input quarantine, and the polling `FeedDriver`
//!   with bounded-queue backpressure and retry-with-backoff.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; in short:
//!
//! ```
//! use best_connections::prelude::*;
//!
//! // Build a two-station toy timetable.
//! let mut b = TimetableBuilder::new(Period::DAY);
//! let a = b.add_named_station("A", Dur::minutes(2));
//! let t = b.add_named_station("B", Dur::minutes(2));
//! b.add_simple_trip(&[a, t], Time::hm(8, 0), &[Dur::minutes(30)], Dur::ZERO).unwrap();
//! let tt = b.build().unwrap();
//!
//! // One-to-all profile search from A (the engine is network-free and
//! // shareable: queries take `&self`, workspaces come from an internal
//! // pool, and the optional result cache persists across queries and
//! // across delay updates).
//! let mut network = Network::build(&tt);
//! let engine = ProfileEngine::new().with_cache(64);
//! let profiles = engine.one_to_all(&network, a);
//! let arr = profiles.profile(t).eval_arr(Time::hm(7, 0), Period::DAY);
//! assert_eq!(arr, Time::hm(8, 30));
//!
//! // The fully dynamic scenario: patch a delay in place and re-query.
//! network.apply_delay(TrainId(0), 0, Dur::minutes(15), Recovery::None);
//! let delayed = engine.one_to_all(&network, a);
//! assert_eq!(delayed.profile(t).eval_arr(Time::hm(7, 0), Period::DAY), Time::hm(8, 45));
//! ```

#![warn(missing_docs)]

pub use pt_core as core;
pub use pt_feed as feed;
pub use pt_graph as graph;
pub use pt_heap as heap;
pub use pt_spcs as spcs;
pub use pt_timetable as timetable;

/// The most commonly used items in one import.
pub mod prelude {
    pub use pt_core::{
        ConnId, Dur, NodeId, Period, Profile, ProfilePoint, RouteId, StationId, Time, TrainId,
        INFINITY,
    };
    pub use pt_feed::{
        FeedDecoder, FeedDriver, FeedDriverConfig, FeedSource, FeedStats, RecordedFeed, WireEvent,
    };
    pub use pt_graph::{StationGraph, TdGraph};
    pub use pt_spcs::{
        BorderSpec, CacheStats, ConcurrentNetwork, DistanceTable, FeedSummary, FillFailed,
        GatewayStats, KernelMode, Network, NetworkSnapshot, PartitionStrategy, ProfileEngine,
        PublishOutcome, QueryStats, Routed, RouterError, S2sCache, S2sEngine, ShardId,
        ShardedService, StaleTable, TransferSelection,
    };
    pub use pt_timetable::{
        Date, DelayEvent, Recovery, ServiceCalendar, ServicePattern, Station, Timetable,
        TimetableBuilder, TripStop, Weekday,
    };
}
