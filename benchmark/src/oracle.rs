//! Correctness inside the one command: outside every timed section, a
//! seeded sample of what the workload computed is held against an
//! independent oracle. A mismatch counts as a failed operation, sets
//! `"correct": false` and makes the run exit non-zero.

use std::collections::BTreeMap;

use pt_bench::conncheck::standard_departures;
use pt_core::StationId;
use pt_spcs::{time_query, DistanceTable, Network, ProfileEngine, S2sEngine, ShardedService};
use pt_timetable::{Connection, Timetable};

use crate::gen::{Class, ReadOp, Request};

#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: usize,
    pub mismatches: Vec<String>,
}

impl Verdict {
    fn hold(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok && self.mismatches.len() < 20 {
            self.mismatches.push(what());
        }
    }
}

/// One-to-all profiles against the label-setting time-query ground truth
/// at departures that include the period wrap-around.
pub fn check_o2a(net: &Network, sources: &[StationId], v: &mut Verdict) {
    let period = net.timetable().period();
    for &s in sources {
        let set = ProfileEngine::new().one_to_all(net, s);
        for dep in standard_departures() {
            let truth = time_query::earliest_arrivals(net, s, dep);
            let wrong = net
                .station_ids()
                .filter(|&t| t != s && set.profile(t).eval_arr(dep, period) != truth.arrival_at(t))
                .count();
            v.hold(wrong == 0, || format!("one-to-all from {s} at {dep}: {wrong} stations differ"));
        }
    }
}

/// Station-to-station profiles (table-pruned when a table is given)
/// against the time-query ground truth.
pub fn check_s2s(
    net: &Network,
    table: Option<&DistanceTable>,
    pairs: &[(StationId, StationId)],
    v: &mut Verdict,
) {
    let period = net.timetable().period();
    let engine = S2sEngine::new();
    for &(s, t) in pairs {
        let got = match engine.try_query_on(net, table, s, t) {
            Ok(r) => r.profile,
            Err(e) => {
                v.hold(false, || format!("s2s {s}->{t}: {e}"));
                continue;
            }
        };
        for dep in standard_departures() {
            let want = time_query::earliest_arrival(net, s, dep, t);
            v.hold(got.eval_arr(dep, period) == want, || format!("s2s {s}->{t} at {dep}"));
        }
    }
}

fn rebuilt(tt: &Timetable, connections: Vec<Connection>) -> Network {
    let fresh =
        Timetable::new(tt.period(), tt.stations().to_vec(), connections, tt.num_trains() as u32)
            .expect("a fed timetable is still a valid timetable");
    Network::new(fresh)
}

/// A fed network (patched timetable, repatched routes and graph) against a
/// from-scratch `Network::new` of the same fed timetable.
pub fn check_fed(fed: &Network, sources: &[StationId], v: &mut Verdict) {
    let scratch = rebuilt(fed.timetable(), fed.timetable().connections());
    let engine = ProfileEngine::new();
    for &s in sources {
        let same = engine.one_to_all(fed, s) == engine.one_to_all(&scratch, s);
        v.hold(same, || format!("fed network differs from its rebuild, from {s}"));
    }
}

/// Stitched cross-shard answers against the merged monolith: every shard's
/// *current* (fed) timetable merged into one network, stations that share
/// a name across shards (the borders) identified.
pub fn check_stitched(svc: &ShardedService, ops: &[ReadOp], v: &mut Verdict) {
    let snaps: Vec<_> = svc.shard_ids().map(|sh| svc.network(sh).expect("own shard ids")).collect();
    let mut by_name: BTreeMap<&str, u32> = BTreeMap::new();
    let mut stations = Vec::new();
    let mut connections = Vec::new();
    let mut to_mono: Vec<Vec<StationId>> = Vec::new();
    let mut trains = 0u32;
    for snap in &snaps {
        let tt = snap.timetable();
        let map: Vec<StationId> = tt
            .stations()
            .iter()
            .map(|st| {
                StationId(*by_name.entry(st.name.as_str()).or_insert_with(|| {
                    stations.push(st.clone());
                    stations.len() as u32 - 1
                }))
            })
            .collect();
        connections.extend(tt.connections().into_iter().map(|c| Connection {
            from: map[c.from.idx()],
            to: map[c.to.idx()],
            train: pt_core::TrainId(c.train.0 + trains),
            ..c
        }));
        trains += tt.num_trains() as u32;
        to_mono.push(map);
    }
    let period = snaps[0].timetable().period();
    let mono = Network::new(
        Timetable::new(period, stations, connections, trains).expect("merged timetable is valid"),
    );
    let engine = S2sEngine::new();
    for op in ops.iter().filter(|op| op.class == Class::Cross) {
        let Request::S2s(s, t) = op.req else { continue };
        let mapped = |g: StationId| svc.locate(g).map(|(sh, local)| to_mono[sh.idx()][local.idx()]);
        match (svc.s2s(s, t), mapped(s), mapped(t)) {
            (Ok(got), Ok(ms), Ok(mt)) => {
                let want = engine.query(&mono, ms, mt).profile;
                v.hold(got.value.profile == want, || format!("stitched {s}->{t} != monolith"));
            }
            _ => v.hold(false, || format!("stitched {s}->{t}: routing failed")),
        }
    }
}
