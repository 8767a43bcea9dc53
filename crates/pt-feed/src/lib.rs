//! Realtime feed ingestion for the sharded serving stack.
//!
//! The serving layers (snapshots, copy-on-write publishes, shards, the
//! gateway) consume [`DelayEvent`](pt_timetable::DelayEvent) batches; this
//! crate produces them from the outside world — specifically from
//! *recorded* GTFS-RT-style feeds, since the build environment is offline.
//! Three layers:
//!
//! * [`wire`] — the line format (CSV with a JSON-lines fallback), its
//!   encoder, and the [`FeedDecoder`] whose malformed-input *quarantine*
//!   (typed [`DecodeError`]s, per-kind counters, bounded samples) is the
//!   robustness contract: no producer garbage ever panics a serving
//!   thread;
//! * [`source`] — the [`FeedSource`] poll abstraction plus offline
//!   implementations ([`RecordedFeed`], fault-injecting [`FlakySource`]);
//! * [`driver`] — the [`FeedDriver`] loop: poll on a timer, decode,
//!   batch into bounded windows with backpressure (bounded queue,
//!   cancel-rule overflow coalescing, retry-with-backoff), apply via
//!   `ShardedService::apply_feed`, count everything in [`FeedStats`].
//!
//! The replay harness (`examples/replay_day.rs`, the `feed-replay`
//! workload of the repo benchmark) is these three layers pointed at one
//! recorded day.

#![warn(missing_docs)]

pub mod driver;
pub mod source;
pub mod wire;

pub use driver::{DriverError, FeedDriver, FeedDriverConfig, FeedStats, TickOutcome};
pub use source::{FeedPoll, FeedSource, FlakySource, RecordedFeed, SourceError};
pub use wire::{encode_csv, encode_json, DecodeError, FeedDecoder, Quarantine, WireEvent};
