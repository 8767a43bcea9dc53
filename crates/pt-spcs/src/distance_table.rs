//! Distance tables between transfer stations (paper §4).
//!
//! `D : S_trans × S_trans × Π → N0` returns, for each pair of transfer
//! stations, the arrival time at the second when departing the first at a
//! given time — *without* transfer times at either endpoint. We store one
//! reduced arrival profile per ordered pair; an evaluation is one binary
//! search.
//!
//! The table is precomputed "by running our parallel one-to-all algorithm
//! from every transfer station" (§5.2). Here the build rides on
//! [`ProfileEngine::many_to_all`]: the batch layer distributes the source
//! stations over the persistent worker pool with a sequential SPCS per
//! source and per-worker workspace reuse — the same total work, better
//! scheduling and no per-source allocation.

use std::fmt;
use std::sync::{Arc, OnceLock};

use pt_core::{Period, Profile, StationId, Time, INFINITY};

use crate::connection_setting::ProfileEngine;
use crate::network::Network;
use crate::transfer_selection::TransferSelection;

/// A distance table was asked to serve a network state other than the one
/// state it was built (or last refreshed) for. Pruning with a stale table
/// silently produces wrong arrivals, so the engines refuse; a feed-driven
/// server catches this and calls [`DistanceTable::refresh`] (same epoch:
/// every row is recomputed) or rebuilds (different network instance)
/// instead of crashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleTable {
    /// `(Network::epoch, Network::generation)` the table was built (or
    /// last refreshed) for.
    pub built_for: (u64, u64),
    /// The `(epoch, generation)` of the network that was queried.
    pub queried: (u64, u64),
}

impl StaleTable {
    /// `true` iff [`DistanceTable::refresh`] can reconcile the table (same
    /// network instance, only the generation moved); `false` means a
    /// different network entirely — rebuild from scratch.
    pub fn refreshable(&self) -> bool {
        self.built_for.0 == self.queried.0
    }
}

impl fmt::Display for StaleTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stale distance table: built for network (epoch, generation) {:?}, queried \
             against {:?} — refresh (or rebuild) distance tables after delay updates",
            self.built_for, self.queried
        )
    }
}

impl std::error::Error for StaleTable {}

/// A full profile table between transfer stations.
///
/// The table is a snapshot of the network it was built from: after a
/// [`Network::apply_delay`](crate::network::Network::apply_delay) /
/// [`Network::apply_feed`](crate::network::Network::apply_feed) its
/// profiles are stale and pruning with it is unsound. The table records the
/// `(epoch, generation)` of the network it was built from, and
/// [`S2sEngine`](crate::S2sEngine) refuses to prune with a table whose
/// stamp does not match the queried network — as a typed [`StaleTable`]
/// from [`S2sEngine::try_query`](crate::S2sEngine::try_query), as a panic
/// from the infallible paths. [`DistanceTable::refresh`] reconciles the
/// table after a feed by recomputing every row in one batched pass;
/// rebuilding (or dropping — queries then fall back to the stopping
/// criterion, staying correct) always works too. The station index and
/// the transfer mask are invariant under refresh and shared by every clone
/// and refresh of the table.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    /// The stations, their index and mask: one allocation shared by every
    /// clone and refresh of the table.
    set: Arc<TransferSet>,
    /// Row-major `|S_trans| × |S_trans|` profiles: `D(a, b)` at
    /// `index[a] · |S_trans| + index[b]`.
    profiles: Vec<Profile>,
    /// Wall-clock time of the batched pass that computed the profiles.
    build_time: std::time::Duration,
    /// `(Network::epoch, Network::generation)` of the network state the
    /// profiles are exact for: the one stamp
    /// [`DistanceTable::check_fresh`] accepts.
    built_for: (u64, u64),
}

/// The transfer stations of a table and their lookups, invariant under
/// refresh: what a [`ConcurrentNetwork`](crate::ConcurrentNetwork)'s
/// refresher keeps to fill every snapshot, without keeping any rows.
#[derive(Debug)]
pub(crate) struct TransferSet {
    period: Period,
    /// Sorted transfer stations.
    stations: Vec<StationId>,
    /// Station → table index (`u32::MAX` = not a transfer station).
    index: Vec<u32>,
    /// `mask[s]` ⇔ `s ∈ S_trans`, over all stations — the one transfer
    /// mask `via(T)` and the §4 pruning rules read.
    mask: Vec<bool>,
}

impl TransferSet {
    /// The lookups over `stations` (sorted, deduped) of `net`.
    pub(crate) fn new(net: &Network, stations: Vec<StationId>) -> TransferSet {
        let mut index = vec![u32::MAX; net.num_stations()];
        for (i, s) in stations.iter().enumerate() {
            index[s.idx()] = i as u32;
        }
        let mask = index.iter().map(|&i| i != u32::MAX).collect();
        TransferSet { period: net.timetable().period(), stations, index, mask }
    }

    /// The table over these stations, exact for `net`: one sequential
    /// SPCS per source on `engine`, which batches the sources over its
    /// threads.
    pub(crate) fn table_for(
        self: &Arc<Self>,
        net: &Network,
        engine: &ProfileEngine,
    ) -> DistanceTable {
        let start = std::time::Instant::now();
        let sets = engine.many_to_all(net, &self.stations);
        let profiles = sets
            .iter()
            .flat_map(|set| self.stations.iter().map(|&b| set.profile(b).clone()))
            .collect();
        DistanceTable {
            set: Arc::clone(self),
            profiles,
            build_time: start.elapsed(),
            built_for: (net.epoch(), net.generation()),
        }
    }
}

impl DistanceTable {
    /// Precomputes the table for the given selection strategy.
    pub fn build(net: &Network, selection: &TransferSelection) -> DistanceTable {
        let stations = selection.select(net);
        Self::build_for(net, stations)
    }

    /// Precomputes the table for an explicit (sorted, deduped) station set.
    pub fn build_for(net: &Network, stations: Vec<StationId>) -> DistanceTable {
        Arc::new(TransferSet::new(net, stations)).table_for(net, build_engine())
    }

    /// Reconciles the table with a network that was mutated by delay feeds
    /// since the table was built (or last refreshed): every row is
    /// recomputed in one batched one-to-all pass over the table's stations
    /// — what keeps §4 pruning hot under a live feed. Entry for entry the
    /// result is a from-scratch [`DistanceTable::build_for`] of the same
    /// stations; the station index and transfer mask are kept.
    ///
    /// Returns the number of rows recomputed: every row, or 0 when the
    /// table is already fresh. Errors with a
    /// non-[`refreshable`](StaleTable::refreshable) [`StaleTable`] when
    /// `net` is a *different network instance* (another epoch) — refresh
    /// can only follow mutations of the network the table was built from.
    pub fn refresh(&mut self, net: &Network) -> Result<usize, StaleTable> {
        match self.check_fresh(net) {
            Ok(()) => Ok(0),
            Err(stale) if !stale.refreshable() => Err(stale),
            Err(_) => {
                *self = self.set.table_for(net, build_engine());
                Ok(self.len())
            }
        }
    }

    /// `Ok` iff this table was built (or last [`DistanceTable::refresh`]ed)
    /// from exactly this network state (same
    /// [`Network::epoch`](Network::epoch) and generation); the typed
    /// [`StaleTable`] otherwise. Checked by the s2s engine before every
    /// table-pruned query.
    pub fn check_fresh(&self, net: &Network) -> Result<(), StaleTable> {
        let queried = (net.epoch(), net.generation());
        if self.built_for == queried {
            Ok(())
        } else {
            Err(StaleTable { built_for: self.built_for, queried })
        }
    }

    /// Number of transfer stations.
    #[inline]
    pub fn len(&self) -> usize {
        self.set.stations.len()
    }

    /// `true` iff no transfer stations were selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.stations.is_empty()
    }

    /// The sorted transfer stations.
    #[inline]
    pub fn stations(&self) -> &[StationId] {
        &self.set.stations
    }

    /// `true` iff `s ∈ S_trans`.
    #[inline]
    pub fn is_transfer(&self, s: StationId) -> bool {
        self.set.mask[s.idx()]
    }

    /// `mask[s]` ⇔ `s ∈ S_trans`, over all stations — built once with the
    /// table and shared by every clone and refresh of it.
    #[inline]
    pub fn transfer_mask(&self) -> &[bool] {
        &self.set.mask
    }

    /// The stored profile `D(a, b, ·)`; both must be transfer stations.
    #[inline]
    pub fn profile(&self, a: StationId, b: StationId) -> &Profile {
        let ia = self.set.index[a.idx()];
        let ib = self.set.index[b.idx()];
        debug_assert!(ia != u32::MAX && ib != u32::MAX, "not transfer stations");
        &self.profiles[ia as usize * self.len() + ib as usize]
    }

    /// `D(a, b, t)`: earliest arrival at `b` when departing `a` at absolute
    /// time `t` (no transfer buffers at the endpoints). `a == b` yields `t`;
    /// unreachable pairs yield [`INFINITY`].
    #[inline]
    pub fn eval(&self, a: StationId, b: StationId, t: Time) -> Time {
        if a == b {
            return t;
        }
        if t.is_infinite() {
            return INFINITY;
        }
        self.profile(a, b).eval_arr(t, self.set.period)
    }

    /// Wall-clock time of the batched pass that computed the rows: the
    /// [`DistanceTable::build`], or the [`DistanceTable::refresh`] that last
    /// recomputed them.
    pub fn build_time(&self) -> std::time::Duration {
        self.build_time
    }

    /// Memory footprint of the stored profiles in bytes (the space column
    /// of Table 2).
    pub fn size_bytes(&self) -> usize {
        self.profiles.iter().map(Profile::size_bytes).sum::<usize>()
            + self.set.index.len() * std::mem::size_of::<u32>()
            + self.len() * std::mem::size_of::<StationId>()
    }

    /// Megabytes variant of [`DistanceTable::size_bytes`].
    pub fn size_mib(&self) -> f64 {
        self.size_bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// The engine `build`/`refresh` distribute their one-to-all searches on
/// (shared with the gateway's border-set builds): one per process, so every
/// refresh after the first runs on warm workspaces.
pub(crate) fn build_engine() -> &'static ProfileEngine {
    static ENGINE: OnceLock<ProfileEngine> = OnceLock::new();
    let workers = || std::thread::available_parallelism().map_or(1, |p| p.get());
    ENGINE.get_or_init(|| ProfileEngine::new().threads(workers()))
}

/// The engine every [`ConcurrentNetwork`](crate::ConcurrentNetwork)
/// refresher fills tables on: single-threaded, so a fill runs on its
/// refresher thread alone and queues no job on the pool, where a reader
/// waiting on its own scope would run it inline. One per process, its
/// workspaces shared by all refreshers.
pub(crate) fn fill_engine() -> &'static ProfileEngine {
    static ENGINE: OnceLock<ProfileEngine> = OnceLock::new();
    ENGINE.get_or_init(ProfileEngine::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_timetable::synthetic::city::{generate_city, CityConfig};

    fn net() -> Network {
        Network::new(generate_city(&CityConfig::sized(36, 5, 11)))
    }

    #[test]
    fn table_matches_one_to_all_profiles() {
        let net = net();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.2));
        assert!(!table.is_empty());
        for &a in table.stations().iter().take(3) {
            let set = ProfileEngine::new().one_to_all(&net, a);
            for &b in table.stations() {
                assert_eq!(table.profile(a, b), set.profile(b), "{a}→{b}");
            }
        }
    }

    #[test]
    fn eval_is_identity_on_diagonal() {
        let net = net();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.1));
        let s = table.stations()[0];
        let t = Time::hm(9, 30);
        assert_eq!(table.eval(s, s, t), t);
    }

    #[test]
    fn eval_agrees_with_time_queries() {
        let net = net();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.15));
        let deps = [Time::hm(7, 0), Time::hm(12, 31), Time::hm(23, 45)];
        for &a in table.stations().iter().take(2) {
            for &b in table.stations().iter().take(4) {
                if a == b {
                    continue;
                }
                for &dep in &deps {
                    let want = crate::time_query::earliest_arrival(&net, a, dep, b);
                    assert_eq!(table.eval(a, b, dep), want, "{a}→{b} at {dep}");
                }
            }
        }
    }

    #[test]
    fn size_accounting_is_positive() {
        let net = net();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.1));
        assert!(table.size_bytes() > 0);
        assert!(table.size_mib() > 0.0);
        assert!(table.build_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn refresh_matches_full_rebuild_entry_for_entry() {
        use pt_core::{Dur, TrainId};
        use pt_timetable::{DelayEvent, Recovery};
        let mut net = net();
        let mut table = DistanceTable::build(&net, &TransferSelection::Fraction(0.2));
        // Two *separate* feeds before a single refresh: the table is two
        // generations behind, and one refresh must catch up with both.
        let first = net.apply_feed(&[DelayEvent::Delay {
            train: TrainId(0),
            from_hop: 0,
            delay: Dur::minutes(17),
            recovery: Recovery::None,
        }]);
        let second = net.apply_feed(&[DelayEvent::Delay {
            train: TrainId(3),
            from_hop: 1,
            delay: Dur::minutes(40),
            recovery: Recovery::CatchUp { per_hop: Dur::minutes(5) },
        }]);
        assert!(first.changed() && second.changed());
        assert!(table.check_fresh(&net).is_err(), "feeds must stale the table");
        let rows = table.refresh(&net).expect("same epoch");
        assert_eq!(rows, table.len(), "a refresh recomputes every row");
        assert!(table.check_fresh(&net).is_ok());
        let rebuilt = DistanceTable::build_for(&net, table.stations().to_vec());
        for &a in table.stations() {
            for &b in table.stations() {
                assert_eq!(table.profile(a, b), rebuilt.profile(a, b), "{a}→{b}");
            }
        }
        // A second refresh with nothing new is free.
        assert_eq!(table.refresh(&net).unwrap(), 0);
    }

    #[test]
    fn refresh_rejects_a_different_network_instance() {
        let net1 = net();
        let net2 = net();
        let mut table = DistanceTable::build(&net1, &TransferSelection::Fraction(0.1));
        let err = table.refresh(&net2).unwrap_err();
        assert!(!err.refreshable(), "another epoch can never be reconciled");
        assert!(err.to_string().contains("stale distance table"));
    }

    #[test]
    fn one_transfer_mask_is_shared_across_clones_refreshes_and_publishes() {
        use crate::network::ConcurrentNetwork;
        use pt_core::{Dur, TrainId};
        use pt_timetable::{DelayEvent, Recovery};
        let delay = |train: u32| DelayEvent::Delay {
            train: TrainId(train),
            from_hop: 0,
            delay: Dur::minutes(20),
            recovery: Recovery::None,
        };
        let mut net = net();
        let mut table = DistanceTable::build(&net, &TransferSelection::Fraction(0.2));
        let mut marked = vec![false; net.num_stations()];
        for s in table.stations() {
            marked[s.idx()] = true;
        }
        assert_eq!(table.transfer_mask(), &marked[..]);

        // The very same allocation behind a clone and a refresh.
        let built = table.transfer_mask().as_ptr();
        assert_eq!(table.clone().transfer_mask().as_ptr(), built);
        assert!(net.apply_feed(&[delay(0)]).changed());
        assert!(table.refresh(&net).unwrap() > 0, "the feed must rewrite rows");
        assert_eq!(table.transfer_mask().as_ptr(), built);

        // And behind every snapshot a ConcurrentNetwork publishes, the
        // initial one included, whose table the refresher fills too.
        let cnet = ConcurrentNetwork::with_table(net, &TransferSelection::Fraction(0.2));
        let first = cnet.wait_for_table().expect("no fill panics");
        let initial = first.table().unwrap();
        assert!(initial.check_fresh(&first).is_ok());
        let rebuilt = DistanceTable::build_for(&first, initial.stations().to_vec());
        for &a in initial.stations() {
            for &b in initial.stations() {
                assert_eq!(initial.profile(a, b), rebuilt.profile(a, b), "initial {a}→{b}");
            }
        }
        for train in [1, 2] {
            let published = cnet.apply_feed(&[delay(train)]).published.expect("a changing feed");
            let filled = cnet.wait_for_table().expect("no fill panics");
            assert!(Arc::ptr_eq(&filled, &published), "publish {train} must be filled");
            let table = filled.table().unwrap();
            assert!(table.check_fresh(&filled).is_ok());
            assert_eq!(
                table.transfer_mask().as_ptr(),
                first.table().unwrap().transfer_mask().as_ptr()
            );
        }
    }

    #[test]
    fn mask_is_consistent() {
        let net = net();
        let table = DistanceTable::build(&net, &TransferSelection::Fraction(0.1));
        let mask = table.transfer_mask();
        for s in net.station_ids() {
            assert_eq!(mask[s.idx()], table.is_transfer(s));
        }
        assert_eq!(mask.iter().filter(|&&b| b).count(), table.len());
    }
}
