//! Partitioning `conn(S)` onto `p` threads (paper §3.2).
//!
//! The parallel speed-up is bounded by the slowest thread, so the partition
//! should balance per-thread work. The paper proposes three heuristics; all
//! return `p` contiguous ranges of the departure-time-ordered `conn(S)`:
//!
//! * **equal time-slots** — split the period `Π` into `p` equal intervals;
//!   unbalanced in practice because departures cluster in rush hours,
//! * **equal number of connections** — split `conn(S)` into `p` equally
//!   sized chunks; the paper's default compromise,
//! * **k-means** — 1-D k-means on departure times; slightly better balance,
//!   "rather insignificant" query-time gains (§3.2).

use pt_core::Period;
use pt_timetable::Connection;
use std::ops::Range;

/// How to distribute `conn(S)` over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionStrategy {
    /// Split the period into `p` equal time intervals.
    EqualTimeSlots,
    /// Split `conn(S)` into `p` chunks of (almost) equal cardinality.
    #[default]
    EqualConnections,
    /// 1-D k-means clustering of departure times (`iters` Lloyd rounds).
    KMeans {
        /// Number of Lloyd iterations to run.
        iters: u32,
    },
}

impl PartitionStrategy {
    /// Partitions the departure-ordered `conns` into exactly `p` contiguous
    /// (possibly empty) index ranges covering `0..conns.len()`.
    pub fn partition(&self, conns: &[Connection], p: usize, period: Period) -> Vec<Range<u32>> {
        assert!(p >= 1);
        debug_assert!(conns.windows(2).all(|w| w[0].dep <= w[1].dep), "conn(S) must be sorted");
        let n = conns.len() as u32;
        if p == 1 || conns.is_empty() {
            let mut out = Vec::with_capacity(p);
            out.push(0..n);
            out.extend(std::iter::repeat_n(n..n, p - 1));
            return out;
        }
        let boundaries: Vec<u32> = match *self {
            PartitionStrategy::EqualConnections => {
                (1..p).map(|j| (n as u64 * j as u64 / p as u64) as u32).collect()
            }
            PartitionStrategy::EqualTimeSlots => {
                let pi = period.len() as u64;
                (1..p)
                    .map(|j| {
                        let cut = (pi * j as u64 / p as u64) as u32;
                        conns.partition_point(|c| c.dep.secs() < cut) as u32
                    })
                    .collect()
            }
            PartitionStrategy::KMeans { iters } => kmeans_boundaries(conns, p, iters),
        };
        ranges_from_boundaries(&boundaries, n)
    }
}

fn ranges_from_boundaries(boundaries: &[u32], n: u32) -> Vec<Range<u32>> {
    let mut out = Vec::with_capacity(boundaries.len() + 1);
    let mut lo = 0u32;
    for &b in boundaries {
        let b = b.clamp(lo, n);
        out.push(lo..b);
        lo = b;
    }
    out.push(lo..n);
    out
}

/// Lloyd's algorithm on the sorted 1-D departure times; clusters of sorted
/// 1-D data are contiguous, so the result is a boundary list.
fn kmeans_boundaries(conns: &[Connection], p: usize, iters: u32) -> Vec<u32> {
    let n = conns.len();
    let dep = |i: usize| conns[i].dep.secs() as f64;
    // Init: quantile seeds.
    let mut centroids: Vec<f64> = (0..p).map(|j| dep(n * (2 * j + 1) / (2 * p).max(1))).collect();
    let mut boundaries = vec![0u32; p - 1];
    for _ in 0..iters.max(1) {
        // Assignment: boundary between cluster j and j+1 is the midpoint.
        for j in 0..p - 1 {
            let mid = (centroids[j] + centroids[j + 1]) / 2.0;
            boundaries[j] = conns.partition_point(|c| (c.dep.secs() as f64) < mid) as u32;
        }
        // Monotonicity guard (centroids may collide on skewed data).
        for j in 1..p - 1 {
            if boundaries[j] < boundaries[j - 1] {
                boundaries[j] = boundaries[j - 1];
            }
        }
        // Update step.
        let mut lo = 0usize;
        for j in 0..p {
            let hi = if j < p - 1 { boundaries[j] as usize } else { n };
            if hi > lo {
                let sum: f64 = (lo..hi).map(dep).sum();
                centroids[j] = sum / (hi - lo) as f64;
            }
            lo = hi;
        }
        centroids.sort_unstable_by(f64::total_cmp);
    }
    boundaries.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::{StationId, Time, TrainId};

    fn conns(deps: &[u32]) -> Vec<Connection> {
        let mut deps = deps.to_vec();
        deps.sort_unstable();
        deps.iter()
            .map(|&d| Connection {
                from: StationId(0),
                to: StationId(1),
                dep: Time(d),
                arr: Time(d + 60),
                train: TrainId(0),
                seq: 0,
            })
            .collect()
    }

    fn check_cover(ranges: &[Range<u32>], n: u32) {
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
    }

    #[test]
    fn equal_connections_balances_cardinality() {
        let cs = conns(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let ranges = PartitionStrategy::EqualConnections.partition(&cs, 4, Period::DAY);
        check_cover(&ranges, 10);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3), "{sizes:?}");
    }

    #[test]
    fn equal_time_slots_follows_the_clock() {
        // All departures in the first quarter of the day.
        let cs = conns(&[100, 200, 300, 400]);
        let ranges = PartitionStrategy::EqualTimeSlots.partition(&cs, 4, Period::DAY);
        check_cover(&ranges, 4);
        // Everything lands in thread 0 — the unbalance the paper describes.
        assert_eq!(ranges[0].len(), 4);
        assert!(ranges[1..].iter().all(|r| r.is_empty()));
    }

    #[test]
    fn kmeans_separates_two_rush_hours() {
        // Two clusters: around 08:00 and around 17:00.
        let mut deps: Vec<u32> = (0..50).map(|i| 8 * 3600 + i * 60).collect();
        deps.extend((0..50).map(|i| 17 * 3600 + i * 60));
        let cs = conns(&deps);
        let ranges = PartitionStrategy::KMeans { iters: 20 }.partition(&cs, 2, Period::DAY);
        check_cover(&ranges, 100);
        assert_eq!(ranges[0].len(), 50);
        assert_eq!(ranges[1].len(), 50);
    }

    #[test]
    fn single_thread_gets_everything() {
        let cs = conns(&[5, 10, 20]);
        for strat in [
            PartitionStrategy::EqualConnections,
            PartitionStrategy::EqualTimeSlots,
            PartitionStrategy::KMeans { iters: 5 },
        ] {
            let ranges = strat.partition(&cs, 1, Period::DAY);
            assert_eq!(ranges, vec![0..3]);
        }
    }

    #[test]
    fn more_threads_than_connections() {
        let cs = conns(&[5, 10]);
        for strat in [
            PartitionStrategy::EqualConnections,
            PartitionStrategy::EqualTimeSlots,
            PartitionStrategy::KMeans { iters: 5 },
        ] {
            let ranges = strat.partition(&cs, 8, Period::DAY);
            check_cover(&ranges, 2);
            assert_eq!(ranges.len(), 8);
            assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 2);
        }
    }

    #[test]
    fn empty_connection_set() {
        let ranges = PartitionStrategy::EqualConnections.partition(&[], 4, Period::DAY);
        assert_eq!(ranges.len(), 4);
        assert!(ranges.iter().all(|r| r.is_empty()));
    }
}
