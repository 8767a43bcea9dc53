//! Parallel SPCS driver (paper §3.2).
//!
//! `conn(S)` is partitioned into `p` subsets; `p` pool workers each run the
//! self-pruning connection-setting search on their subset with private
//! labels (no sharing, no locks — connections in different threads cannot
//! prune each other, which is exactly the self-pruning loss the paper
//! analyses). A master step then merges the per-thread labels in global
//! connection order and applies connection reduction, restoring FIFO; its
//! cost is recorded separately in [`QueryStats::merge_ns`].
//!
//! Work is dispatched onto the process-global persistent worker pool
//! ([`rayon::global`]; no per-query — or even per-engine — thread
//! spawning), and every worker reuses its [`SearchWorkspace`] across
//! queries. Concurrency per query is bounded by its job count (`p`
//! partition classes, or `p` claim loops for a batch), never by pool
//! ownership. `run_batch` adds the second parallelization level: when a
//! batch can fill the workers, whole queries are distributed over the pool
//! and each worker answers its queries with the ordinary single-class
//! search. Both engines share the two steps written here — `run_classes`
//! (one search per partition class) and `run_batch` (across or within).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pt_core::{Period, Profile, ProfilePoint, StationId};
use pt_timetable::Connection;

use crate::connection_setting::{self, Goal, Rule};
use crate::kernel::KernelMode;
use crate::network::Network;
use crate::partition::PartitionStrategy;
use crate::profile_set::ProfileSet;
use crate::stats::QueryStats;
use crate::workspace::{SearchWorkspace, WorkspacePool};

/// Result of a one-to-all profile query.
#[derive(Debug, Clone)]
pub struct OneToAllResult {
    /// Reduced profiles to every station, shared so result caches can hand
    /// out the same set without copying.
    pub profiles: Arc<ProfileSet>,
    /// Operation counts, summed over threads (the paper's convention).
    pub stats: QueryStats,
    /// Settled-element count per thread — the balance diagnostic behind the
    /// partition-strategy discussion in §3.2.
    pub thread_settled: Vec<u64>,
}

/// Answers `n` independent queries on `threads` workspaces checked out of
/// `pool`; `job(i, p, workspaces)` answers query `i` with `p` partition
/// classes. The batch dispatch rule of both engines: with more than one
/// thread and at least as many queries as threads the batch goes **across**
/// queries — one claim loop per workspace, queries claimed from a shared
/// atomic counter, each answered with `p = 1` on that worker's own
/// workspace (no cross-worker coordination, no merge barrier per query);
/// otherwise the queries run one at a time **within**-query parallel.
pub(crate) fn run_batch<T, F>(pool: &WorkspacePool, threads: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize, &mut [SearchWorkspace]) -> T + Sync,
{
    let mut workspaces = pool.checkout(threads);
    let out = if threads > 1 && n >= threads {
        // Claim contiguous chunks rather than single items: one atomic RMW
        // per chunk instead of per item, and consecutive indices stay on
        // one worker (warm per-source state for batches that repeat or sort
        // their inputs). ~4 chunks per worker keeps the tail balanced under
        // skewed item cost.
        let chunk = (n / (threads * 4)).max(1);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        rayon::global().scope(|scope| {
            for ws in workspaces.iter_mut() {
                let (next, slots, job) = (&next, &slots, &job);
                scope.spawn(move || loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = n.min(start + chunk);
                    for (i, slot) in slots[start..end].iter().enumerate() {
                        let result = job(start + i, 1, std::slice::from_mut(ws));
                        *slot.lock().unwrap() = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every item index was claimed by a worker"))
            .collect()
    } else {
        (0..n).map(|i| job(i, threads, &mut workspaces)).collect()
    };
    pool.checkin(workspaces);
    out
}

/// Runs `job(lo, hi, workspace)` once per partition class of `conn(S)` —
/// `ranges` are the classes relative to `conn_lo`, the first global
/// connection id of the source — each on its own workspace: inline when
/// there is a single class, as scoped jobs on the global pool otherwise.
/// Returns the per-class counters in class order.
pub(crate) fn run_classes<F>(
    conn_lo: u32,
    ranges: &[Range<u32>],
    workspaces: &mut [SearchWorkspace],
    job: F,
) -> Vec<QueryStats>
where
    F: Fn(u32, u32, &mut SearchWorkspace) -> QueryStats + Sync,
{
    assert!(workspaces.len() >= ranges.len(), "one workspace per partition class required");
    let mut per_stats = vec![QueryStats::default(); ranges.len()];
    if let [r] = ranges {
        per_stats[0] = job(conn_lo + r.start, conn_lo + r.end, &mut workspaces[0]);
    } else {
        rayon::global().scope(|scope| {
            for ((ws, st), r) in workspaces.iter_mut().zip(per_stats.iter_mut()).zip(ranges) {
                let job = &job;
                scope.spawn(move || *st = job(conn_lo + r.start, conn_lo + r.end, ws));
            }
        });
    }
    per_stats
}

/// Runs the one-to-all profile search with `p` partition classes on the
/// global pool. `workspaces` must provide at least `p` entries; each class
/// uses exactly one.
pub(crate) fn one_to_all(
    net: &Network,
    source: StationId,
    p: usize,
    strategy: PartitionStrategy,
    self_pruning: bool,
    kernel: KernelMode,
    workspaces: &mut [SearchWorkspace],
) -> OneToAllResult {
    let tt = net.timetable();
    let period = tt.period();
    let ns = net.num_stations();
    let conn_range = tt.conn_ids(source);
    let conns = tt.conn(source);
    let ranges = strategy.partition(conns, p, period);
    let goal = Goal { target: None, self_pruning, stopping: false, rule: Rule::Plain };
    let per_stats = run_classes(conn_range.start, &ranges, workspaces, |lo, hi, ws| {
        connection_setting::run_range(net, lo, hi, &goal, kernel, ws)
    });

    let thread_settled: Vec<u64> = per_stats.iter().map(|r| r.settled).collect();
    let mut stats = QueryStats::sum(per_stats);

    // Master merge: per station, concatenate the per-thread labels in global
    // connection order, then reduce. The merged label need not be FIFO
    // (threads do not prune each other), the reduction restores it.
    let merge_start = Instant::now();
    let profiles = master_merge(&workspaces[..ranges.len()], &ranges, conns, ns, period, p);
    stats.merge_ns = merge_start.elapsed().as_nanos() as u64;
    OneToAllResult {
        profiles: Arc::new(ProfileSet::new(source, period, profiles)),
        stats,
        thread_settled,
    }
}

/// The master merge: reduces the per-class station labels into profiles
/// through one reusable scratch buffer per merge job
/// ([`Profile::from_unreduced_in`] — one allocation per job instead of one
/// per station), and splits the stations into contiguous chunks on the
/// global pool when the query ran parallel anyway (`jobs > 1`). Stations
/// are independent, so the chunked merge is trivially order-preserving.
fn master_merge(
    used: &[SearchWorkspace],
    ranges: &[Range<u32>],
    conns: &[Connection],
    ns: usize,
    period: Period,
    jobs: usize,
) -> Vec<Profile> {
    // Gather + reduce stations `lo..hi` of one chunk.
    let merge_chunk = |lo: usize, hi: usize, out: &mut Vec<Profile>| {
        let mut scratch: Vec<ProfilePoint> = Vec::new();
        for s in lo..hi {
            for (ws, r) in used.iter().zip(ranges) {
                for i in 0..r.len() {
                    let arr = ws.station_arr[i * ns + s];
                    if !arr.is_infinite() {
                        scratch.push(ProfilePoint::new(conns[r.start as usize + i].dep, arr));
                    }
                }
            }
            out.push(Profile::from_unreduced_in(&mut scratch, period));
        }
    };
    // More chunks than pool workers is pure scheduling overhead (on a
    // single-core host the whole parallel branch is), and below ~64
    // stations the spawn overhead beats the merge itself.
    let jobs = jobs.min(rayon::global().threads());
    if jobs > 1 && ns >= 64 {
        let chunk = ns.div_ceil(jobs);
        let slots: Vec<Mutex<Option<Vec<Profile>>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        rayon::global().scope(|scope| {
            for (j, slot) in slots.iter().enumerate() {
                let merge_chunk = &merge_chunk;
                scope.spawn(move || {
                    let lo = (j * chunk).min(ns);
                    let hi = (lo + chunk).min(ns);
                    let mut out = Vec::with_capacity(hi - lo);
                    merge_chunk(lo, hi, &mut out);
                    *slot.lock().unwrap() = Some(out);
                });
            }
        });
        slots.into_iter().flat_map(|m| m.into_inner().unwrap().expect("chunk merged")).collect()
    } else {
        let mut out = Vec::with_capacity(ns);
        merge_chunk(0, ns, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection_setting::ProfileEngine;
    use pt_core::{Dur, Period, Time};
    use pt_timetable::synthetic::city::{generate_city, CityConfig};
    use pt_timetable::TimetableBuilder;

    fn small_city() -> Network {
        Network::new(generate_city(&CityConfig::sized(36, 5, 7)))
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let net = small_city();
        let sources = [StationId(0), StationId(7), StationId(20)];
        for &s in &sources {
            let seq = ProfileEngine::new().one_to_all(&net, s);
            for p in [2, 3, 4, 8] {
                let par = ProfileEngine::new().threads(p).one_to_all(&net, s);
                assert_eq!(seq, par, "source {s}, {p} threads");
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_results() {
        let net = small_city();
        let s = StationId(3);
        let base = ProfileEngine::new().one_to_all(&net, s);
        for strat in [
            PartitionStrategy::EqualTimeSlots,
            PartitionStrategy::EqualConnections,
            PartitionStrategy::KMeans { iters: 10 },
        ] {
            let got = ProfileEngine::new().threads(4).strategy(strat).one_to_all(&net, s);
            assert_eq!(base, got, "{strat:?}");
        }
    }

    #[test]
    fn more_threads_settle_more_but_balanced() {
        let net = small_city();
        let s = StationId(1);
        let r1 = ProfileEngine::new().one_to_all_with_stats(&net, s);
        let r4 = ProfileEngine::new().threads(4).one_to_all_with_stats(&net, s);
        // Cross-thread self-pruning is lost: total settled grows (or stays).
        assert!(r4.stats.settled >= r1.stats.settled);
        assert_eq!(r4.thread_settled.len(), 4);
        assert_eq!(r4.thread_settled.iter().sum::<u64>(), r4.stats.settled);
    }

    #[test]
    fn merge_time_is_recorded() {
        let net = small_city();
        let r = ProfileEngine::new().threads(2).one_to_all_with_stats(&net, StationId(5));
        assert!(r.stats.merge_ns > 0, "master merge must be timed");
    }

    #[test]
    fn warm_parallel_engine_reuses_all_workspaces() {
        let net = small_city();
        let engine = ProfileEngine::new().threads(4);
        let first = engine.one_to_all(&net, StationId(2));
        let warm = engine.workspace_grow_events();
        for _ in 0..5 {
            assert_eq!(engine.one_to_all(&net, StationId(2)), first);
        }
        assert_eq!(engine.workspace_grow_events(), warm, "hot path must not allocate");
    }

    #[test]
    fn batch_across_queries_matches_sequential_ground_truth() {
        let net = small_city();
        let sources: Vec<StationId> = (0..12).map(|i| StationId(i * 3 % 36)).collect();
        let engine = ProfileEngine::new().threads(4);
        let batch = engine.many_to_all(&net, &sources);
        assert_eq!(batch.len(), sources.len());
        for (profiles, &s) in batch.iter().zip(&sources) {
            let seq = ProfileEngine::new().one_to_all(&net, s);
            assert_eq!(profiles, &seq, "batch result for source {s}");
            assert_eq!(profiles.source(), s);
        }
    }

    #[test]
    fn degenerate_source_without_departures() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let a = b.add_named_station("A", Dur::ZERO);
        let c = b.add_named_station("B", Dur::ZERO);
        let d = b.add_named_station("sink", Dur::ZERO);
        b.add_simple_trip(&[a, c], Time::hm(8, 0), &[Dur::minutes(5)], Dur::ZERO).unwrap();
        let net = Network::new(b.build().unwrap());
        // `sink` has no outgoing connections at all.
        let prof = ProfileEngine::new().threads(2).one_to_all(&net, d);
        assert!(prof.profile(a).is_empty());
        assert!(prof.profile(c).is_empty());
    }
}
