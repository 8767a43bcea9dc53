//! Cross-shard journeys: the border-station gateway above the shard router.
//!
//! A [`ShardedService`](crate::ShardedService) hosts "one huge network,
//! sharded by region" as N disjoint timetables. Regions meet at **border
//! stations**: one physical station (same name, same transfer time)
//! present in two or more shards' timetables. No train crosses a shard
//! boundary — every cross-region journey changes trains at a border, so a
//! journey from `S` (shard A) to `T` (shard B) decomposes into
//! within-shard segments glued at borders:
//!
//! ```text
//! dist(S, T, ·) = min over border chains  dist_A(S, b₁) ⊕ dist_·(b₁, b₂) ⊕ … ⊕ dist_B(bₖ, T)
//! ```
//!
//! where `⊕` is [`Profile::link_profile`] with the junction's transfer
//! time as the boarding buffer. The gateway materializes exactly the
//! pieces this needs:
//!
//! * **Alias groups.** A [`BorderSpec`] declares which stations are the
//!   same physical border — explicitly, or inferred from the directory by
//!   matching station names across shards ([`BorderSpec::ByName`], the
//!   default seeding).
//! * **Border sets.** Per shard, one full one-to-all [`ProfileSet`] from
//!   every border alias it hosts, built with the same batched engine as
//!   the distance tables. The sets live on the shard's
//!   [`NetworkSnapshot`] they are exact for: the first stitch that pins a
//!   snapshot fills it, the initial snapshots like every later one
//!   (concurrent stitches wait on the same `OnceLock`), so the gateway's
//!   build computes no row. A feed publishes a new snapshot of the fed
//!   shard only, so only that shard's border sets are rebuilt; an old
//!   snapshot drops its sets with its last pin.
//! * **The stitch.** A label-correcting fixpoint over the alias groups:
//!   seed every group with the source's profile to it, relax
//!   border → border links through each shard's border sets until nothing
//!   improves (optimal journeys visit each border group at most once, so
//!   the fixpoint needs at most one round per group), then link the
//!   surviving groups onward to the target and merge every candidate into
//!   the answer ([`Profile::merge`] is an exact pointwise minimum, so a
//!   dominated candidate changes nothing).
//!
//! The stitched profile is **exactly** the monolithic answer (the profile
//! the merged single network would produce) because reduced profiles are
//! canonical per arrival function — conncheck's gateway battery holds the
//! two byte-equal on pristine, delayed and fed networks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pt_core::{Period, Profile, StationId};

use crate::distance_table::build_engine;
use crate::network::NetworkSnapshot;
use crate::profile_set::ProfileSet;
use crate::shard::ShardId;

/// How a [`ShardedService`](crate::ShardedService) finds its border
/// stations (see
/// [`ShardedServiceBuilder::gateway`](crate::ShardedServiceBuilder::gateway)).
#[derive(Debug, Clone)]
pub enum BorderSpec {
    /// Seed the borders from the directory: every station *name* hosted by
    /// two or more shards (at most once each) forms one alias group. The
    /// default for timetables that model one physical station per region
    /// copy.
    ByName,
    /// Explicit alias groups of **global** station ids; each group must
    /// name one physical station through ≥ 2 shards, at most one alias per
    /// shard.
    Explicit(Vec<Vec<StationId>>),
}

/// One alias: a border station as one shard hosts it.
type Alias = (ShardId, StationId);

/// The cross-shard gateway: alias groups and the stitch over the border
/// sets the shard snapshots carry.
/// Owned by a [`ShardedService`](crate::ShardedService) built with
/// [`ShardedServiceBuilder::gateway`](crate::ShardedServiceBuilder::gateway).
#[derive(Debug)]
pub(crate) struct Gateway {
    period: Period,
    /// `groups[g]` = the aliases of one physical border station, sorted by
    /// shard; at most one alias per shard.
    groups: Vec<Vec<Alias>>,
    /// Per shard: `(local border id, group index)`, sorted by local id; a
    /// snapshot's border sets are in this order.
    per_shard: Vec<Vec<(StationId, u32)>>,
    /// Per shard: cumulative border rows built, for every snapshot some
    /// stitch pinned — the observable for per-shard scope tests and bench
    /// reporting.
    rows_refreshed: Vec<AtomicU64>,
}

/// Gateway counters surfaced through
/// [`ShardedService::gateway_stats`](crate::ShardedService::gateway_stats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayStats {
    /// Number of border alias groups (physical border stations).
    pub groups: usize,
    /// Per shard: how many of its stations are border aliases.
    pub borders_per_shard: Vec<usize>,
    /// Per shard: cumulative border rows built: the shard's border count
    /// for each snapshot of it that some stitch pinned, the initial one
    /// included. A snapshot no stitch pins costs no rows, so under
    /// concurrent readers the count depends on when stitches pin.
    pub rows_refreshed: Vec<u64>,
}

impl Gateway {
    /// Builds the gateway over resolved alias groups, checked against the
    /// given (freshly pinned) initial snapshots. It fills no border set:
    /// the first stitch that pins a snapshot builds that snapshot's sets.
    ///
    /// # Panics
    ///
    /// When a group has two aliases in one shard, fewer than two shards,
    /// or aliases with diverging transfer times (one physical station must
    /// look the same from every side).
    pub(crate) fn build(groups: Vec<Vec<Alias>>, snaps: &[Arc<NetworkSnapshot>]) -> Gateway {
        let period = snaps
            .first()
            .map(|s| s.network().timetable().period())
            .expect("a sharded service has at least one shard");
        for snap in snaps {
            assert_eq!(
                snap.network().timetable().period(),
                period,
                "cross-shard stitching needs one period across all shards"
            );
        }
        let mut per_shard: Vec<Vec<(StationId, u32)>> = vec![Vec::new(); snaps.len()];
        for (g, aliases) in groups.iter().enumerate() {
            assert!(aliases.len() >= 2, "border group {g} must span at least two shards");
            let mut buffer = None;
            for &(shard, local) in aliases {
                let tt = snaps[shard.idx()].network().timetable();
                let b = tt.transfer_time(local);
                assert!(
                    *buffer.get_or_insert(b) == b,
                    "border group {g} has diverging transfer times across shards"
                );
                per_shard[shard.idx()].push((local, g as u32));
            }
        }
        for (idx, borders) in per_shard.iter_mut().enumerate() {
            borders.sort_unstable();
            assert!(
                borders.windows(2).all(|w| w[0].0 != w[1].0),
                "shard {idx} hosts one station in two border groups"
            );
        }
        let rows_refreshed = snaps.iter().map(|_| AtomicU64::new(0)).collect();
        Gateway { period, groups, per_shard, rows_refreshed }
    }

    /// Resolves [`BorderSpec::ByName`] against the shard snapshots: every
    /// station name hosted by ≥ 2 shards — at most once each, so the alias
    /// is unambiguous — forms one group. Groups come out sorted by their
    /// first alias, deterministically.
    pub(crate) fn groups_by_name(snaps: &[Arc<NetworkSnapshot>]) -> Vec<Vec<Alias>> {
        use std::collections::BTreeMap;
        // name → aliases; `None` marks a name ambiguous within one shard.
        let mut by_name: BTreeMap<&str, Option<Vec<Alias>>> = BTreeMap::new();
        for (idx, snap) in snaps.iter().enumerate() {
            let tt = snap.network().timetable();
            for (s, station) in tt.stations().iter().enumerate() {
                let alias = (ShardId(idx as u32), StationId(s as u32));
                let entry =
                    by_name.entry(station.name.as_str()).or_insert_with(|| Some(Vec::new()));
                let dup_in_shard = matches!(
                    entry,
                    Some(aliases) if aliases.last().is_some_and(|&(shard, _)| shard == alias.0)
                );
                if dup_in_shard {
                    *entry = None;
                } else if let Some(aliases) = entry {
                    aliases.push(alias);
                }
            }
        }
        let mut groups: Vec<Vec<Alias>> =
            by_name.into_values().flatten().filter(|aliases| aliases.len() >= 2).collect();
        groups.sort_unstable();
        groups
    }

    /// The position of `(shard, local)` among the shard's border aliases
    /// (and so among its border sets), if it is a border alias.
    fn border_index(&self, shard: usize, local: StationId) -> Option<usize> {
        self.per_shard[shard].binary_search_by_key(&local, |&(b, _)| b).ok()
    }

    /// The border group hosting `(shard, local)`, if it is a border alias.
    fn group_of(&self, shard: usize, local: StationId) -> Option<usize> {
        self.border_index(shard, local).map(|i| self.per_shard[shard][i].1 as usize)
    }

    /// Every shard's border sets on the given snapshots (one consistent
    /// cut — the snapshots were pinned up front by the caller), in
    /// `per_shard` order. A snapshot no stitch has pinned yet gets its sets
    /// built (every border row) and keeps them; concurrent callers wait for
    /// that one build.
    pub(crate) fn sets_for<'s>(
        &self,
        snaps: &'s [Arc<NetworkSnapshot>],
    ) -> Vec<&'s [Arc<ProfileSet>]> {
        snaps
            .iter()
            .enumerate()
            .map(|(idx, snap)| {
                let sets = snap.border_sets.get_or_init(|| {
                    let borders: Vec<StationId> =
                        self.per_shard[idx].iter().map(|&(b, _)| b).collect();
                    self.rows_refreshed[idx].fetch_add(borders.len() as u64, Ordering::Relaxed);
                    build_engine().many_to_all(snap.network(), &borders)
                });
                sets.as_slice()
            })
            .collect()
    }

    pub(crate) fn stats(&self) -> GatewayStats {
        GatewayStats {
            groups: self.groups.len(),
            borders_per_shard: self.per_shard.iter().map(Vec::len).collect(),
            rows_refreshed: self.rows_refreshed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        }
    }

    /// Stitches the cross-shard profile `dist(source, target, ·)` from
    /// within-shard profile sets. `one_to_all` answers a shard-local
    /// one-to-all against the pinned snapshots (the service routes it
    /// through the owning shard's engine, so source searches share the
    /// per-shard cache stripes).
    pub(crate) fn stitch(
        &self,
        snaps: &[Arc<NetworkSnapshot>],
        sets: &[&[Arc<ProfileSet>]],
        one_to_all: &dyn Fn(usize, StationId) -> Arc<ProfileSet>,
        source: (usize, StationId),
        target: (usize, StationId),
    ) -> Profile {
        let period = self.period;
        let buffer_at =
            |shard: usize, b: StationId| snaps[shard].network().timetable().transfer_time(b);
        let set_of = |shard: usize, b: StationId| -> &ProfileSet {
            &sets[shard][self.border_index(shard, b).expect("border set queried for a non-border")]
        };
        let aliases_of = |loc: (usize, StationId)| -> Vec<(usize, StationId)> {
            match self.group_of(loc.0, loc.1) {
                Some(g) => self.groups[g].iter().map(|&(sh, b)| (sh.idx(), b)).collect(),
                None => vec![loc],
            }
        };
        let source_aliases = aliases_of(source);
        let target_aliases = aliases_of(target);
        let tgt_group = self.group_of(target.0, target.1);

        // Seed: one source search per shard hosting the source; its profile
        // to each border group, and directly to the target where co-hosted.
        let mut d: Vec<Profile> = vec![Profile::EMPTY; self.groups.len()];
        let mut answer = Profile::EMPTY;
        for &(sh, s_local) in &source_aliases {
            let set = one_to_all(sh, s_local);
            for &(b_local, g) in &self.per_shard[sh] {
                d[g as usize].merge(set.profile(b_local), period);
            }
            for &(tsh, t_local) in &target_aliases {
                if tsh == sh {
                    answer.merge(set.profile(t_local), period);
                }
            }
        }

        // Relax border → border links to a fixpoint. An optimal journey
        // visits each border group at most once (returning to a station
        // can never improve a FIFO profile), so `groups` rounds suffice;
        // in practice the loop exits after the longest optimal chain.
        for _round in 0..=self.groups.len() {
            let mut changed = false;
            for g in 0..self.groups.len() {
                if d[g].is_empty() {
                    continue;
                }
                let dg = d[g].clone();
                for &(sh, b_local) in &self.groups[g] {
                    let sh = sh.idx();
                    let set = set_of(sh, b_local);
                    let buffer = buffer_at(sh, b_local);
                    for &(c_local, h) in &self.per_shard[sh] {
                        if h as usize == g || set.profile(c_local).is_empty() {
                            continue;
                        }
                        let cand = dg.link_profile(set.profile(c_local), buffer, period);
                        changed |= d[h as usize].merge(&cand, period);
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Link every reached group onward to the target, merging each
        // candidate into the answer.
        for (g, dg) in d.iter().enumerate() {
            if dg.is_empty() {
                continue;
            }
            if tgt_group == Some(g) {
                // Arriving at the target's own group IS arriving at the
                // target (one physical station).
                answer.merge(dg, period);
                continue;
            }
            for &(sh, b_local) in &self.groups[g] {
                let sh = sh.idx();
                for &(tsh, t_local) in &target_aliases {
                    if tsh != sh {
                        continue;
                    }
                    let onward = set_of(sh, b_local).profile(t_local);
                    if onward.is_empty() {
                        continue;
                    }
                    let buffer = buffer_at(sh, b_local);
                    answer.merge(&dg.link_profile(onward, buffer, period), period);
                }
            }
        }
        answer
    }
}
