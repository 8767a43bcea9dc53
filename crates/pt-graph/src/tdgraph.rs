//! The realistic time-dependent graph model (paper §2, Fig. 1).
//!
//! Nodes: one *station node* per station (ids `0..|S|`), then one *route
//! node* per (route, stop) pair. Edges come in two kinds:
//!
//! * constant: `station(S) → routenode(ρ, j)` with weight `T(S)` — boarding
//!   a route requires the minimum transfer time (boarding at the source
//!   station is free, see [`TdGraph::arrivals`]) — and
//!   `routenode(ρ, j) → station(S)` with weight `0` — alighting;
//! * time-dependent: `routenode(ρ, j) → routenode(ρ, j+1)`, weighted by the
//!   hop's travel-time function (PLF): a [`Profile`] with one point
//!   `(dep, arr)` per train of `ρ` on that hop.
//!
//! The adjacency is stored once, one CSR lane per kind ([`EdgeKindCsr`]).
//! The heap searches walk it through [`TdGraph::arrivals`]; the ring kernel
//! and the label-correcting search read the lanes directly.

use std::sync::Arc;

use pt_core::{
    ConnId, CowChunks, Dur, NodeId, Period, Profile, ProfilePoint, RouteId, StationId, Time,
};
use pt_timetable::{RouteInfo, Routes, Timetable};

/// One edge kind's CSR: node `v`'s edges are `head[first[v]..first[v + 1]]`
/// with the parallel `weight` — seconds on the constant lane, a PLF arena
/// index on the time-dependent one.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lane {
    first: Vec<u32>,
    head: Vec<u32>,
    weight: Vec<u32>,
}

impl Lane {
    #[inline]
    fn of(&self, v: usize) -> (&[u32], &[u32]) {
        let (lo, hi) = (self.first[v] as usize, self.first[v + 1] as usize);
        (&self.head[lo..hi], &self.weight[lo..hi])
    }

    fn push(&mut self, head: usize, weight: u32) {
        self.head.push(head as u32);
        self.weight.push(weight);
    }

    /// Ends the current node: its edges are those pushed since the last end.
    fn end_node(&mut self) {
        self.first.push(self.head.len() as u32);
    }
}

/// The adjacency of the graph, grouped by edge kind: each node's constant
/// and time-dependent edges live in two parallel-`u32` lanes, so a sweep
/// over one kind walks homogeneous data (head index + weight seconds, or
/// head index + PLF index) with no per-edge dispatch.
///
/// The lanes are topology-shaped: rewriting a route's PLFs changes their
/// *contents* only, never heads, weights or PLF indices, so the lanes live
/// inside the refcount-shared `Topology` and change only with it (when a
/// feed's re-split appends routes). The one patch-tracking scalar — the
/// maximum PLF duration — lives on [`TdGraph`] itself (see
/// [`TdGraph::max_edge_span_secs`]), where it can grow monotonically
/// without unsharing the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeKindCsr {
    consts: Lane,
    tds: Lane,
    max_const_secs: u32,
}

impl EdgeKindCsr {
    /// Constant edges of `v` as `(heads, weight_secs)` lanes.
    #[inline]
    pub fn const_edges(&self, v: usize) -> (&[u32], &[u32]) {
        self.consts.of(v)
    }

    /// Time-dependent edges of `v` as `(heads, plf_indices)` lanes.
    #[inline]
    pub fn td_edges(&self, v: usize) -> (&[u32], &[u32]) {
        self.tds.of(v)
    }
}

/// Everything about the graph a FIFO-preserving patch never changes: nodes,
/// the adjacency, transfer weights. One `Arc` of this is shared by refcount
/// across every snapshot of the graph — cloning a [`TdGraph`] never copies
/// it; appending routes builds the grown topology *beside* this one, so
/// pinned snapshots keep theirs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Topology {
    /// `st(v)` — the station every node belongs to.
    node_station: Vec<StationId>,
    /// For route nodes (offset by `num_stations`): `(route, stop index)`.
    route_node_info: Vec<(RouteId, u16)>,
    /// First route node of each route (route nodes are contiguous per
    /// route) — the anchor [`TdGraph::repatch_routes`] needs to find a
    /// route's hop edges without a search.
    route_first_node: Vec<NodeId>,
    /// `T(S)` per station (copied out of the timetable for cache locality).
    transfer: Vec<Dur>,
    /// The adjacency.
    kinds: EdgeKindCsr,
}

/// PLFs per chunk of the arena. A feed rewrites the hops of a few routes,
/// each route's hops side by side, so one chunk usually holds a route.
const PLF_CHUNK: usize = 32;

/// Start nodes per chunk of `conn_start`. Its writes are few (one per
/// connection a re-sort moves), so a chunk of 2 KiB keeps the spine short.
const CONN_CHUNK: usize = 512;

/// The realistic time-dependent graph of a timetable.
///
/// Split for copy-on-write publishing: the `Topology` is one shared `Arc`;
/// the hop PLFs (each hop's travel-time function, a [`Profile`]) are each
/// their own `Arc` in a [`CowChunks`] arena, and a
/// [`TdGraph::repatch_routes`] *replaces* exactly the touched routes' hop
/// PLFs (every other PLF stays physically shared with older snapshots);
/// `conn_start` is a [`CowChunks`] too. A clone is therefore three
/// refcounts, never a copy of the adjacency, and a feed copies only the
/// chunks it writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdGraph {
    period: Period,
    num_stations: u32,
    topo: Arc<Topology>,
    /// The PLF arena, one entry per (route, hop) in route order.
    plfs: CowChunks<Arc<Profile>, PLF_CHUNK>,
    /// For every elementary connection: the route node where it departs.
    conn_start: CowChunks<NodeId, CONN_CHUNK>,
    /// Longest PLF duration over the arena, tracked monotonically across
    /// patches (a ring sized from a stale maximum is merely oversized,
    /// never wrong); see [`TdGraph::max_edge_span_secs`].
    max_td_secs: u32,
}

/// The travel-time functions of a route's hops, in hop order: one
/// connection point per train of the route, which must be FIFO
/// ([`Routes::route_is_fifo`]), so the connection reduction keeps every
/// point. A route a re-split emptied has empty, never-served PLFs.
fn route_plfs(tt: &Timetable, route: &RouteInfo) -> Vec<Profile> {
    let n = route.trains.len();
    let mut hops: Vec<Vec<ProfilePoint>> =
        (0..route.num_hops()).map(|_| Vec::with_capacity(n)).collect();
    for &t in &route.trains {
        for (points, c) in hops.iter_mut().zip(tt.train_connections(t)) {
            let c = tt.connection(c);
            points.push(ProfilePoint::new(c.dep, c.arr));
        }
    }
    let plfs: Vec<Profile> =
        hops.into_iter().map(|points| Profile::from_unreduced(points, tt.period())).collect();
    debug_assert!(plfs.iter().all(|plf| plf.len() == n), "hop PLF of a non-FIFO route");
    plfs
}

impl TdGraph {
    /// Builds the graph from a timetable and its route partition: the
    /// station nodes, then every route appended as after a re-split.
    pub fn build(tt: &Timetable, routes: &Routes) -> TdGraph {
        let ns = tt.num_stations();
        let no_edges = Lane { first: vec![0; ns + 1], head: Vec::new(), weight: Vec::new() };
        let mut g = TdGraph {
            period: tt.period(),
            num_stations: ns as u32,
            topo: Arc::new(Topology {
                node_station: tt.station_ids().collect(),
                route_node_info: Vec::new(),
                route_first_node: Vec::new(),
                transfer: tt.station_ids().map(|s| tt.transfer_time(s)).collect(),
                kinds: EdgeKindCsr { consts: no_edges.clone(), tds: no_edges, max_const_secs: 0 },
            }),
            plfs: CowChunks::default(),
            conn_start: CowChunks::default(),
            max_td_secs: 0,
        };
        let mut conn_start = vec![NodeId(u32::MAX); tt.num_connections()];
        g.append_routes(tt, routes, |c, v| conn_start[c.idx()] = v);
        g.conn_start = conn_start.into_iter().collect();
        g
    }

    /// Appends the routes the graph does not hold yet — `routes[k..]` for a
    /// graph of `k` routes — without renumbering anything that exists: their
    /// route nodes go after all existing nodes, their board edges at the
    /// end of the served stations' constant edges, their hop PLFs at the end
    /// of the arena, and `start(c, v)` is called for every connection `c`
    /// of their trains with `v` the new node it departs from. Stations have
    /// no hop edges, so the time-dependent lane only grows at its end; only
    /// the constant lane is re-laid.
    fn append_routes(
        &mut self,
        tt: &Timetable,
        routes: &Routes,
        mut start: impl FnMut(ConnId, NodeId),
    ) {
        let old = &*self.topo;
        let ns = self.num_stations as usize;
        let held = old.route_first_node.len();
        let mut node_station = old.node_station.clone();
        let mut route_node_info = old.route_node_info.clone();
        let mut route_first_node = old.route_first_node.clone();
        for (ri, r) in routes.iter_routes().enumerate().skip(held) {
            route_first_node.push(NodeId::from_idx(node_station.len()));
            node_station.extend(&r.stations);
            route_node_info
                .extend((0..r.stations.len()).map(|j| (RouteId::from_idx(ri), j as u16)));
        }
        // New route nodes by station; stable, so in route order per station.
        let mut boards: Vec<usize> = (old.node_station.len()..node_station.len()).collect();
        boards.sort_by_key(|&v| node_station[v]);

        // Station nodes: the old board edges, then the new ones. Every new
        // route node adds one board and one alight edge.
        let o = &old.kinds.consts;
        let edges = o.head.len() + 2 * boards.len();
        let mut consts = Lane {
            first: Vec::with_capacity(node_station.len() + 1),
            head: Vec::with_capacity(edges),
            weight: Vec::with_capacity(edges),
        };
        consts.first.push(0);
        let mut max_const_secs = old.kinds.max_const_secs;
        let mut boards = boards.into_iter().peekable();
        for s in 0..ns {
            let (heads, secs) = o.of(s);
            consts.head.extend_from_slice(heads);
            consts.weight.extend_from_slice(secs);
            let secs = old.transfer[s].secs();
            while let Some(v) = boards.next_if(|&v| node_station[v].idx() == s) {
                consts.push(v, secs);
                max_const_secs = max_const_secs.max(secs);
            }
            consts.end_node();
        }
        // Existing route nodes: one block, shifted by the new board edges.
        let lo = o.first[ns];
        let shift = consts.head.len() as u32 - lo;
        consts.first.extend(o.first[ns + 1..].iter().map(|&e| e + shift));
        consts.head.extend_from_slice(&o.head[lo as usize..]);
        consts.weight.extend_from_slice(&o.weight[lo as usize..]);
        // New route nodes: alight, then ride on over the hop's fresh PLF.
        let mut tds = old.kinds.tds.clone();
        let mut plfs = Vec::new();
        for (r, &base) in routes.iter_routes().zip(&route_first_node).skip(held) {
            let mut hops = route_plfs(tt, r).into_iter();
            for (j, &s) in r.stations.iter().enumerate() {
                consts.push(s.idx(), 0);
                consts.end_node();
                if let Some(plf) = hops.next() {
                    self.max_td_secs = self.max_td_secs.max(plf.max_dur().secs());
                    tds.push(base.idx() + j + 1, (self.plfs.len() + plfs.len()) as u32);
                    plfs.push(Arc::new(plf));
                }
                tds.end_node();
            }
            for &t in &r.trains {
                for (hop, c) in tt.train_connections(t).enumerate() {
                    start(c, NodeId::from_idx(base.idx() + hop));
                }
            }
        }
        self.plfs.extend(plfs);

        self.topo = Arc::new(Topology {
            node_station,
            route_node_info,
            route_first_node,
            transfer: old.transfer.clone(),
            kinds: EdgeKindCsr { consts, tds, max_const_secs },
        });
    }

    /// Incrementally follows a [`Timetable::patch_feed`] — the only
    /// follower: applies the feed's merged `ConnId` remap to `conn_start`
    /// once, appends the routes the feed's re-split added since the graph
    /// last saw `routes` (existing ids stay), moves the start nodes of the
    /// trains the re-split moved between existing routes, and rewrites the
    /// hop PLFs of each route in `touched` — the only edges a feed can
    /// touch — exactly once, however many feed events hit the route. All
    /// other PLFs stay shared with older clones.
    ///
    /// `touched` is what [`Routes::repatch_feed`] returned for the patch:
    /// every route whose trains or their times changed, each of which
    /// passes [`Routes::route_is_fifo`] by now.
    pub fn repatch_routes(
        &mut self,
        tt: &Timetable,
        routes: &Routes,
        touched: &[RouteId],
        remapped: &[(ConnId, ConnId)],
    ) {
        // conn_start entries move with their connections (the start node
        // depends only on the connection's train and hop). Copy-on-touch:
        // the first write to a chunk after a clone unshares that chunk.
        let saved: Vec<NodeId> =
            remapped.iter().map(|&(old, _)| self.conn_start[old.idx()]).collect();
        for (&(_, new), node) in remapped.iter().zip(saved) {
            *self.conn_start.make_mut(new.idx()) = node;
        }
        // After the remap: appended routes read the patched timetable.
        if routes.len() > self.topo.route_first_node.len() {
            let mut starts = Vec::new();
            self.append_routes(tt, routes, |c, v| starts.push((c, v)));
            for (c, v) in starts {
                *self.conn_start.make_mut(c.idx()) = v;
            }
        }
        // Rebuild the PLF of every hop of each touched route, *replacing*
        // the arena entry so snapshots sharing the old PLF are untouched.
        for &r in touched {
            let info = routes.route(r);
            let base = self.topo.route_first_node[r.idx()].idx();
            debug_assert_eq!(
                info.stations[..],
                self.topo.node_station[base..base + info.stations.len()],
                "route {r:?} was renumbered, not re-split"
            );
            // A route's hop PLFs are contiguous in the arena, in hop order.
            let first_plf = self.topo.kinds.td_edges(base).1[0] as usize;
            for (hop, plf) in route_plfs(tt, info).into_iter().enumerate() {
                // Keep the ring bound valid: the maximum only ever grows
                // (shrinking would require a full rescan for no
                // correctness gain — an oversized ring is still correct).
                self.max_td_secs = self.max_td_secs.max(plf.max_dur().secs());
                *self.plfs.make_mut(first_plf + hop) = Arc::new(plf);
            }
            // A train the re-split moved between existing routes still
            // starts at its old route's nodes, on every hop: its first hop
            // tells.
            for &t in &info.trains {
                let conns = tt.train_connections(t);
                if conns.clone().next().is_some_and(|c| self.conn_start[c.idx()].idx() != base) {
                    for (hop, c) in conns.enumerate() {
                        *self.conn_start.make_mut(c.idx()) = NodeId::from_idx(base + hop);
                    }
                }
            }
        }
    }

    /// The adjacency, grouped by edge kind.
    #[inline]
    pub fn kind_csr(&self) -> &EdgeKindCsr {
        &self.topo.kinds
    }

    /// Upper bound on how far (in seconds) a single relaxation can move a
    /// label forward in time: constant edges advance at most their weight;
    /// time-dependent edges wait at most `π − 1` and then travel at most the
    /// longest PLF duration (tracked monotonically across patches). Sizes
    /// the kernel's bucket ring.
    #[inline]
    pub fn max_edge_span_secs(&self) -> u32 {
        self.topo.kinds.max_const_secs.max((self.period.len() - 1).saturating_add(self.max_td_secs))
    }

    /// For a route node: its `(route, stop index)`; `None` on station nodes.
    #[inline]
    pub fn route_node_info(&self, v: NodeId) -> Option<(RouteId, u16)> {
        let i = v.idx().checked_sub(self.num_stations as usize)?;
        self.topo.route_node_info.get(i).copied()
    }

    /// The timetable period.
    #[inline]
    pub fn period(&self) -> Period {
        self.period
    }

    /// Total number of nodes (stations + route nodes).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topo.node_station.len()
    }

    /// Number of stations; station nodes are `0..num_stations`.
    #[inline]
    pub fn num_stations(&self) -> usize {
        self.num_stations as usize
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.topo.kinds.consts.head.len() + self.topo.kinds.tds.head.len()
    }

    /// The station node of a station (identity mapping by construction).
    #[inline]
    pub fn station_node(&self, s: StationId) -> NodeId {
        debug_assert!(s.0 < self.num_stations);
        NodeId(s.0)
    }

    /// `st(v)`: the station a node belongs to.
    #[inline]
    pub fn station_of(&self, v: NodeId) -> StationId {
        self.topo.node_station[v.idx()]
    }

    /// `true` iff `v` is a station node.
    #[inline]
    pub fn is_station_node(&self, v: NodeId) -> bool {
        v.0 < self.num_stations
    }

    /// The PLF arena entry of a time-dependent edge: the hop's travel-time
    /// function, a [`Profile`] over the hop's trains.
    #[inline]
    pub fn plf(&self, idx: u32) -> &Profile {
        &self.plfs[idx as usize]
    }

    /// How many hop PLFs of `self` are *physically shared* (same
    /// allocation, by refcount) with `other`, plus whether the topology
    /// `Arc` itself is shared. Diagnostics for the copy-on-write publish
    /// path.
    pub fn shared_plfs_with(&self, other: &TdGraph) -> (usize, bool) {
        let plfs =
            self.plfs.iter().zip(other.plfs.iter()).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        (plfs, Arc::ptr_eq(&self.topo, &other.topo))
    }

    /// The `(spine, chunks)` bytes of the PLF arena and `conn_start` that
    /// `self` does not share with `older` ([`CowChunks::unshared_bytes`]).
    #[cfg(test)]
    fn unshared_bytes(&self, older: &TdGraph) -> (usize, usize) {
        let p = self.plfs.unshared_bytes(&older.plfs);
        let c = self.conn_start.unshared_bytes(&older.conn_start);
        (p.0 + c.0, p.1 + c.1)
    }

    /// The heap searches' one walk over the adjacency: `(head, arrival)`
    /// for every edge of `v` served when leaving `v` at absolute time `t` —
    /// the constant edges first (boards at a station node, the alight at a
    /// route node), then the time-dependent hop. An unserved hop is skipped.
    ///
    /// Boarding at the source station is free: when `v` is `source`, no
    /// transfer time is due before the first train.
    #[inline]
    pub fn arrivals(
        &self,
        v: NodeId,
        t: Time,
        source: Option<NodeId>,
    ) -> impl Iterator<Item = (NodeId, Time)> + '_ {
        debug_assert!(!t.is_infinite());
        let free = source == Some(v);
        let (heads, secs) = self.topo.kinds.consts.of(v.idx());
        let consts = heads
            .iter()
            .zip(secs)
            .map(move |(&w, &d)| (NodeId(w), if free { t } else { t + Dur(d) }));
        let (heads, plfs) = self.topo.kinds.tds.of(v.idx());
        let hops = heads.iter().zip(plfs).filter_map(move |(&w, &p)| {
            let arr = self.plfs[p as usize].eval_arr(t, self.period);
            (!arr.is_infinite()).then_some((NodeId(w), arr))
        });
        consts.chain(hops)
    }

    /// The route node at which a connection departs (used by the
    /// connection-setting initialization, paper §3.1).
    #[inline]
    pub fn conn_start_node(&self, c: ConnId) -> NodeId {
        self.conn_start[c.idx()]
    }

    /// `T(S)` of a station.
    #[inline]
    pub fn transfer_time(&self, s: StationId) -> Dur {
        self.topo.transfer[s.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::Period;
    use pt_timetable::TimetableBuilder;

    /// Two stations, one line A→B with two trains (08:00 and 09:00, 10 min).
    fn two_station_graph() -> (Timetable, Routes, TdGraph) {
        let mut b = TimetableBuilder::new(Period::DAY);
        let a = b.add_named_station("A", Dur::minutes(2));
        let bb = b.add_named_station("B", Dur::minutes(3));
        for h in [8, 9] {
            b.add_simple_trip(&[a, bb], Time::hm(h, 0), &[Dur::minutes(10)], Dur::ZERO).unwrap();
        }
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        let g = TdGraph::build(&tt, &routes);
        (tt, routes, g)
    }

    #[test]
    fn node_and_edge_counts() {
        let (tt, routes, g) = two_station_graph();
        assert_eq!(routes.len(), 1);
        // 2 station nodes + 2 route nodes.
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_stations(), tt.num_stations());
        // 2 board + 2 alight + 1 route edge.
        assert_eq!(g.num_edges(), 5);
        // Both trains share one PLF with two points.
        assert_eq!(g.plfs.iter().map(|p| p.len()).sum::<usize>(), 2);
    }

    #[test]
    fn station_of_route_nodes() {
        let (_, _, g) = two_station_graph();
        let a = StationId(0);
        let b = StationId(1);
        assert_eq!(g.station_of(g.station_node(a)), a);
        // Route nodes 2 and 3 belong to A and B.
        assert_eq!(g.station_of(NodeId(2)), a);
        assert_eq!(g.station_of(NodeId(3)), b);
        assert!(g.is_station_node(NodeId(1)));
        assert!(!g.is_station_node(NodeId(2)));
    }

    #[test]
    fn boarding_costs_transfer_time() {
        let (_, _, g) = two_station_graph();
        let a = g.station_node(StationId(0));
        let board = |source| g.arrivals(a, Time::hm(7, 0), source).collect::<Vec<_>>();
        // At 07:00, boarding puts us on the route node at 07:02.
        assert_eq!(board(None), [(NodeId(2), Time::hm(7, 2))]);
        // At the source, boarding is free.
        assert_eq!(board(Some(a)), [(NodeId(2), Time::hm(7, 0))]);
        // A search from another station pays T(A) here.
        assert_eq!(board(Some(NodeId(1))), board(None));
    }

    #[test]
    fn route_edge_waits_for_departure() {
        let (_, _, g) = two_station_graph();
        let rn_a = NodeId(2);
        let ride = |t| g.arrivals(rn_a, t, None).find(|&(w, _)| w == NodeId(3)).expect("hop");
        // Reaching the route node at 08:30 means riding the 09:00 train.
        assert_eq!(ride(Time::hm(8, 30)).1, Time::hm(9, 10));
        // Reaching it at exactly 08:00 rides the 08:00 train.
        assert_eq!(ride(Time::hm(8, 0)).1, Time::hm(8, 10));
    }

    #[test]
    fn alighting_is_free() {
        let (_, _, g) = two_station_graph();
        let rn_b = NodeId(3);
        assert_eq!(g.kind_csr().const_edges(rn_b.idx()), (&[1][..], &[0][..]));
        let alight: Vec<_> = g.arrivals(rn_b, Time::hm(8, 10), None).collect();
        assert_eq!(alight, [(NodeId(1), Time::hm(8, 10))]);
    }

    #[test]
    fn conn_start_nodes_point_at_departure_route_node() {
        let (tt, _, g) = two_station_graph();
        for (i, c) in tt.connections().iter().enumerate() {
            let start = g.conn_start_node(ConnId::from_idx(i));
            assert_eq!(g.station_of(start), c.from);
            assert!(!g.is_station_node(start));
        }
    }

    /// The one-event feed delaying train 0 by `minutes` from its first hop.
    fn delay_train_0(tt: &mut Timetable, minutes: u32) -> pt_timetable::FeedPatch {
        tt.patch_feed(&[pt_timetable::DelayEvent::Delay {
            train: pt_core::TrainId(0),
            from_hop: 0,
            delay: Dur::minutes(minutes),
            recovery: pt_timetable::Recovery::None,
        }])
    }

    /// `k` disjoint copies of `tt` side by side: copy `i` shifts every
    /// station by `i` times the station count and every train by `i` times
    /// the train count, so copy 0 keeps every id and every index position.
    fn replicated(tt: &Timetable, k: u32) -> Timetable {
        let (n, z) = (tt.num_stations() as u32, tt.num_trains() as u32);
        let stations = (0..k).flat_map(|_| tt.stations().iter().cloned()).collect();
        let conns = (0..k)
            .flat_map(|i| {
                tt.connections().into_iter().map(move |c| pt_timetable::Connection {
                    from: StationId(c.from.0 + i * n),
                    to: StationId(c.to.0 + i * n),
                    train: pt_core::TrainId(c.train.0 + i * z),
                    ..c
                })
            })
            .collect();
        Timetable::new(tt.period(), stations, conns, k * z).unwrap()
    }

    /// The `(spine, chunks)` bytes that one fixed feed (train 0 runs 30 min
    /// late) leaves unshared in the graph.
    fn copied_by_one_feed(mut tt: Timetable) -> (usize, usize) {
        let mut routes = Routes::partition(&tt);
        let mut g = TdGraph::build(&tt, &routes);
        let before = g.clone();
        let patch = delay_train_0(&mut tt, 30);
        assert!(!patch.remapped.is_empty(), "the feed must move connections in their buckets");
        let touched = routes.repatch_feed(&tt, &patch);
        g.repatch_routes(&tt, &routes, &touched, &patch.remapped);
        g.unshared_bytes(&before)
    }

    /// A feed copies the chunks it writes and the spines, never a whole
    /// array: on a network 4× as large, the same feed copies as many chunk
    /// bytes of the PLF arena and `conn_start`, and only the spines grow.
    #[test]
    fn one_event_feed_copies_no_more_at_4x_than_the_spines() {
        let tt = pt_timetable::synthetic::presets::germany_like(0.25).timetable;
        let (spine, chunks) = copied_by_one_feed(tt.clone());
        let (spine_4x, chunks_4x) = copied_by_one_feed(replicated(&tt, 4));
        assert!(chunks > 0 && spine_4x > spine, "the feed copied nothing");
        assert!(
            spine_4x + chunks_4x <= spine + chunks + (spine_4x - spine),
            "copied {} bytes at 1× and {} at 4×: more than the spines' growth of {}",
            spine + chunks,
            spine_4x + chunks_4x,
            spine_4x - spine
        );
    }

    #[test]
    fn repatch_matches_full_rebuild() {
        // Two-train route over three stations plus an unrelated line, so
        // the patch must leave other routes' PLFs alone.
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(1))).collect();
        for h in [8, 9] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0),
                &[Dur::minutes(10), Dur::minutes(10)],
                Dur::ZERO,
            )
            .unwrap();
        }
        b.add_simple_trip(&[s[3], s[1]], Time::hm(8, 30), &[Dur::minutes(5)], Dur::ZERO).unwrap();
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        let mut g = TdGraph::build(&tt, &routes);

        // Delay the 08:00 train to 09:05 — it still arrives everywhere
        // before the 09:00 train... no: 09:05 + 10 = 09:15 > 09:10? The
        // 09:00 train arrives 09:10, so the delayed train is overtaken by
        // departure order; use 70 min so departures AND arrivals reorder
        // consistently (09:10 dep, 09:20 arr vs 09:00 dep, 09:10 arr).
        let patch = delay_train_0(&mut tt, 70);
        assert!(patch.changed);
        let touched = routes.repatch_feed(&tt, &patch);
        assert!(routes.route_is_fifo(&tt, routes.route_of(pt_core::TrainId(0))));
        g.repatch_routes(&tt, &routes, &touched, &patch.remapped);

        // No route split, so the ids match a rebuild's: the graphs are equal
        // field for field.
        assert!(g == TdGraph::build(&tt, &Routes::partition(&tt)));
    }

    #[test]
    fn feed_repatch_rewrites_every_touched_route_and_matches_rebuild() {
        use pt_timetable::{DelayEvent, Recovery};
        // Two independent routes plus an untouched bystander line.
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..5).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(1))).collect();
        for h in [8, 9] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0),
                &[Dur::minutes(10), Dur::minutes(10)],
                Dur::ZERO,
            )
            .unwrap();
        }
        for h in [10, 11] {
            b.add_simple_trip(&[s[3], s[1]], Time::hm(h, 0), &[Dur::minutes(5)], Dur::ZERO)
                .unwrap();
        }
        b.add_simple_trip(&[s[4], s[0]], Time::hm(7, 0), &[Dur::minutes(5)], Dur::ZERO).unwrap();
        let mut tt = b.build().unwrap();
        let mut routes = Routes::partition(&tt);
        let mut g = TdGraph::build(&tt, &routes);

        // One feed touching both multi-train routes (FIFO-preserving).
        let patch = tt.patch_feed(&[
            DelayEvent::Delay {
                train: pt_core::TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(70),
                recovery: Recovery::None,
            },
            DelayEvent::Delay {
                train: pt_core::TrainId(2),
                from_hop: 0,
                delay: Dur::minutes(70),
                recovery: Recovery::None,
            },
        ]);
        assert!(patch.changed);
        let touched = routes.repatch_feed(&tt, &patch);
        assert_eq!(touched.len(), 2);
        for &r in &touched {
            assert!(routes.route_is_fifo(&tt, r));
        }
        g.repatch_routes(&tt, &routes, &touched, &patch.remapped);

        // No route split, so the ids match a rebuild's: the graphs are equal
        // field for field.
        assert!(g == TdGraph::build(&tt, &Routes::partition(&tt)));
    }

    /// Incremental ≡ rebuilt, field for field (`PartialEq` is derived), after
    /// every feed of a stream whose re-splits append routes.
    #[test]
    fn repatch_with_refits_equals_build_after_every_feed() {
        use pt_timetable::synthetic::city::{generate_city, CityConfig};
        use pt_timetable::{DelayEvent, Recovery};
        let mut tt = generate_city(&CityConfig::sized(30, 4, 9));
        let mut routes = Routes::partition(&tt);
        let mut g = TdGraph::build(&tt, &routes);
        let trains = tt.num_trains() as u32;
        // A seed-pinned LCG: this crate does not link `rand`.
        let mut x = 7u32;
        let mut below = |n: u32| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 8) % n
        };
        let mut refits = 0;
        for feed in 0..40 {
            let events: Vec<DelayEvent> = (0..8)
                .map(|_| match below(4) {
                    0 => DelayEvent::Cancel { train: pt_core::TrainId(below(trains)) },
                    _ => DelayEvent::Delay {
                        train: pt_core::TrainId(below(trains)),
                        from_hop: below(3) as u16,
                        delay: Dur::minutes(1 + below(30)),
                        recovery: Recovery::None,
                    },
                })
                .collect();
            let patch = tt.patch_feed(&events);
            let held = routes.len();
            let touched = routes.repatch_feed(&tt, &patch);
            refits += usize::from(routes.len() > held);
            g.repatch_routes(&tt, &routes, &touched, &patch.remapped);
            assert!(g == TdGraph::build(&tt, &routes), "patched != built after feed {feed}");
        }
        assert!(refits >= 10, "only {refits} of 40 feeds appended: the append is not exercised");
    }

    #[test]
    fn repatch_keeps_span_bound_valid() {
        let (mut tt, mut routes, mut g) = two_station_graph();
        let before = g.max_edge_span_secs();
        // Span covers the longest transfer plus a full-period wait + ride.
        assert!(before >= g.period().len() - 1);
        // Delays preserve hop durations, so the bound may not shrink and
        // must still dominate every PLF duration after the repatch.
        let patch = delay_train_0(&mut tt, 70);
        assert!(patch.changed);
        let touched = routes.repatch_feed(&tt, &patch);
        g.repatch_routes(&tt, &routes, &touched, &patch.remapped);
        let after = g.max_edge_span_secs();
        assert!(after >= before);
        let true_max = (0..g.num_nodes())
            .flat_map(|v| g.kind_csr().td_edges(v).1)
            .map(|&idx| g.plf(idx).max_dur().secs())
            .max()
            .unwrap_or(0);
        assert!(after >= g.period().len() - 1 + true_max);
    }

    #[test]
    fn multi_hop_route_chains_route_nodes() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        b.add_simple_trip(
            &[s[0], s[1], s[2]],
            Time::hm(6, 0),
            &[Dur::minutes(5), Dur::minutes(7)],
            Dur::ZERO,
        )
        .unwrap();
        let tt = b.build().unwrap();
        let routes = Routes::partition(&tt);
        let g = TdGraph::build(&tt, &routes);
        // 3 station + 3 route nodes; 3 board + 3 alight + 2 route edges.
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 8);
        // Ride through: route node of hop 0 at 06:00 → arr 06:05 at hop 1,
        // depart 06:05 (zero dwell) → arr 06:12.
        let rn0 = NodeId(3);
        let ride = |v, t| g.arrivals(v, t, None).find(|&(w, _)| !g.is_station_node(w)).unwrap();
        let (rn1, t1) = ride(rn0, Time::hm(6, 0));
        assert_eq!(t1, Time::hm(6, 5));
        assert_eq!(ride(rn1, t1).1, Time::hm(6, 12));
    }
}
