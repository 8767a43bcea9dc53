//! Core types for periodic public-transit routing.
//!
//! This crate provides the building blocks shared by every other crate in the
//! workspace:
//!
//! * [`Time`], [`Dur`] and [`Period`] — integer time arithmetic over a
//!   periodic timetable, including the cyclic length `Δ(τ1, τ2)` of the paper,
//! * strongly typed identifiers ([`StationId`], [`RouteId`], [`TrainId`],
//!   [`NodeId`], [`ConnId`]),
//! * [`Profile`] — piecewise-linear functions stored as their connection
//!   points, together with the paper's *connection reduction* (backward
//!   dominance scan). One type serves both of the paper's uses: the
//!   *travel-time function* of a time-dependent route edge and the
//!   *arrival profile* `dist(S, T, ·)` a profile search produces,
//! * [`CowChunks`] — the chunked copy-on-write array that the timetable,
//!   the route partition and the graph keep their feed-patched indices in,
//!   so a published snapshot shares every chunk a feed did not write.
//!
//! All types are `Send + Sync` — a prerequisite for the parallel search in
//! `pt-spcs`.

#![warn(missing_docs)]

pub mod cow;
pub mod id;
#[cfg(test)]
mod plf;
pub mod profile;
pub mod time;

pub use cow::CowChunks;
pub use id::{ConnId, NodeId, RouteId, StationId, TrainId};
pub use profile::{Profile, ProfilePoint};
pub use time::{Dur, Period, Time, INFINITY};
