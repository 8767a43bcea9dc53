//! Graph models derived from a periodic timetable.
//!
//! * [`TdGraph`] — the *realistic time-dependent model* of Pyrga et al.
//!   (paper §2, Fig. 1): one station node per station, one route node per
//!   (route, stop) pair, constant transfer edges and time-dependent route
//!   edges carrying piecewise-linear travel-time functions. The adjacency is
//!   stored once, one lane per edge kind ([`EdgeKindCsr`]), and the heap
//!   searches walk it through one walker ([`TdGraph::arrivals`]).
//! * [`StationGraph`] — the condensed station graph `G_S` (paper §4): an
//!   edge `(S1, S2)` iff at least one train runs from `S1` to `S2`, plus its
//!   reverse, used to determine *local* and *via* stations of a target and
//!   to select transfer stations by degree or contraction.

pub mod station_graph;
pub mod tdgraph;

pub use station_graph::{StationGraph, ViaLocal};
pub use tdgraph::{EdgeKindCsr, TdGraph};
