//! Shared harness for regenerating the paper's tables.
//!
//! The binaries (`table1`, `table2`, `ablation`) print rows in the layout
//! of the paper's Tables 1 and 2; this library holds the common pieces:
//! network instantiation, seeded query workloads and formatting.
//!
//! Environment knobs (all optional):
//!
//! * `BC_SCALE` — network scale factor (default `0.5`; `1.0` ≈ one tenth of
//!   the paper's input sizes, see `pt-timetable::synthetic::presets`),
//! * `BC_QUERIES` — queries per configuration (default `15`; the paper uses
//!   1 000 on a 2009 dual Xeon — scale up when you have the hours),
//! * `BC_LC_QUERIES` — queries for the label-correcting baseline (default
//!   `3`; LC is an order of magnitude slower, the paper's point),
//! * `BC_THREADS` — comma-separated thread counts (default `1,2,4,8`),
//! * `BC_NETWORKS` — comma-separated substring filter on network names,
//! * `BC_SEED` — workload seed (default `2010`).

pub mod conncheck;
pub mod report;

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pt_core::{Dur, StationId, TrainId};
use pt_timetable::synthetic::presets::{self, Preset};
use pt_timetable::{DelayEvent, Recovery};

/// Benchmark configuration resolved from the environment.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub scale: f64,
    pub queries: usize,
    pub lc_queries: usize,
    pub threads: Vec<usize>,
    pub networks: Option<Vec<String>>,
    pub seed: u64,
}

/// Reads and parses one `BC_*` environment knob, falling back to `default`
/// when the variable is unset or unparsable. Every scalar knob — in this
/// library *and* in the binaries (`BC_S2S_THREADS`, `BC_FRACTIONS`, …) —
/// goes through here; don't hand-roll `std::env::var` parsing per binary.
pub fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    parse_scalar(std::env::var(key).ok(), default)
}

/// Reads a comma-separated `BC_*` list knob (`BC_THREADS=1,2,4`),
/// trimming each element; `None` when the variable is unset. The
/// list-shaped sibling of [`env_parse`].
///
/// # Panics
///
/// On any unparsable element, naming the knob and the offending token. A
/// silently dropped element would run the bench with a *different*
/// configuration than the one asked for, so a typo must stop the run, not
/// skew it.
pub fn env_list<T: std::str::FromStr>(key: &str) -> Option<Vec<T>> {
    parse_list(key, std::env::var(key).ok())
}

/// Pure parsing seam behind [`env_parse`], testable without touching the
/// process environment (`set_var` is unsound under the parallel test
/// harness).
fn parse_scalar<T: std::str::FromStr>(raw: Option<String>, default: T) -> T {
    raw.and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Pure parsing seam behind [`env_list`]; fails fast on bad elements.
fn parse_list<T: std::str::FromStr>(key: &str, raw: Option<String>) -> Option<Vec<T>> {
    raw.map(|v| {
        v.split(',')
            .map(|t| {
                let t = t.trim();
                t.parse().unwrap_or_else(|_| {
                    panic!("{key}: cannot parse list element {t:?} (full value {v:?})")
                })
            })
            .collect()
    })
}

impl BenchConfig {
    /// Reads the `BC_*` environment variables.
    pub fn from_env() -> Self {
        let threads = env_list("BC_THREADS").unwrap_or_else(|| vec![1, 2, 4, 8]);
        let networks = env_list::<String>("BC_NETWORKS")
            .map(|v| v.into_iter().map(|s| s.to_lowercase()).collect());
        BenchConfig {
            scale: env_parse("BC_SCALE", 0.5),
            queries: env_parse("BC_QUERIES", 15),
            lc_queries: env_parse("BC_LC_QUERIES", 3),
            threads,
            networks,
            seed: env_parse("BC_SEED", 2010),
        }
    }

    /// Instantiates the five evaluation networks, filtered by
    /// `BC_NETWORKS`.
    pub fn networks(&self) -> Vec<Preset> {
        presets::all_presets(self.scale).into_iter().filter(|p| self.matches(p.name)).collect()
    }

    /// `true` iff the `BC_NETWORKS` filter admits a network of this name
    /// (always true without a filter).
    fn matches(&self, name: &str) -> bool {
        match &self.networks {
            None => true,
            Some(filter) => {
                let name = name.to_lowercase();
                filter.iter().any(|f| name.contains(f))
            }
        }
    }
}

/// `count` random stations (with repetition), deterministic in `seed`.
pub fn random_stations(num_stations: usize, count: usize, seed: u64) -> Vec<StationId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| StationId(rng.gen_range(0..num_stations as u32))).collect()
}

/// `count` random ordered station pairs with distinct endpoints.
pub fn random_pairs(num_stations: usize, count: usize, seed: u64) -> Vec<(StationId, StationId)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
    (0..count)
        .map(|_| loop {
            let s = rng.gen_range(0..num_stations as u32);
            let t = rng.gen_range(0..num_stations as u32);
            if s != t {
                return (StationId(s), StationId(t));
            }
        })
        .collect()
}

/// A deterministic batch of feed events — the mix of a live GTFS-RT-style
/// stream: mostly delays (half with catch-up recovery, up to
/// `max_delay_min` minutes, from a random hop), one in four a
/// cancellation. Shared by conncheck's feed mode and the repo benchmark's
/// recorded feed day so the workload shape cannot diverge between them.
pub fn random_feed(
    rng: &mut StdRng,
    num_trains: u32,
    len: usize,
    max_delay_min: u32,
) -> Vec<DelayEvent> {
    (0..len)
        .map(|_| {
            let train = TrainId(rng.gen_range(0..num_trains.max(1)));
            if rng.gen_range(0..4u8) == 0 {
                DelayEvent::Cancel { train }
            } else {
                let recovery = if rng.gen_range(0..2u8) == 0 {
                    Recovery::None
                } else {
                    Recovery::CatchUp { per_hop: Dur::minutes(rng.gen_range(1..20u32)) }
                };
                DelayEvent::Delay {
                    train,
                    from_hop: rng.gen_range(0..4u16),
                    delay: Dur::minutes(rng.gen_range(1..max_delay_min.max(2))),
                    recovery,
                }
            }
        })
        .collect()
}

/// Milliseconds with one decimal.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `m:ss` like the paper's preprocessing-time column.
pub fn fmt_mmss(d: Duration) -> String {
    let s = d.as_secs();
    format!("{}:{:02}", s / 60, s % 60)
}

/// Mean over query repetitions.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(random_stations(50, 10, 7), random_stations(50, 10, 7));
        assert_eq!(random_pairs(50, 10, 7), random_pairs(50, 10, 7));
        assert!(random_pairs(50, 100, 3).iter().all(|(s, t)| s != t));
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = BenchConfig::from_env();
        assert!(cfg.scale > 0.0);
        assert!(!cfg.threads.is_empty());
    }

    #[test]
    fn env_helpers_fall_back_and_parse_lists() {
        // The public fns read unset probe names (no set_var: mutating the
        // environment races the parallel test harness); the parsing goes
        // through the pure seams.
        assert_eq!(env_parse("BC_TEST_UNSET_SCALAR", 7usize), 7);
        assert_eq!(env_list::<usize>("BC_TEST_UNSET_LIST"), None);
        assert_eq!(parse_scalar(Some("42".into()), 0usize), 42);
        assert_eq!(parse_scalar(Some("junk".into()), 3usize), 3);
        assert_eq!(parse_list::<usize>("BC_THREADS", Some(" 1, 2 ,4".into())), Some(vec![1, 2, 4]));
        assert_eq!(parse_list::<usize>("BC_THREADS", None), None);
        assert_eq!(
            parse_list::<String>("BC_NETWORKS", Some("oahu, metro".into())),
            Some(vec!["oahu".to_string(), "metro".to_string()])
        );
    }

    #[test]
    #[should_panic(expected = "BC_THREADS: cannot parse list element \"junk\"")]
    fn a_bad_list_element_fails_fast_naming_knob_and_token() {
        parse_list::<usize>("BC_THREADS", Some(" 1, 2 ,4,junk".into()));
    }

    #[test]
    #[should_panic(expected = "BC_THREADS: cannot parse list element \"\"")]
    fn an_empty_list_element_is_rejected_too() {
        // `BC_THREADS=1,,4` asks for something; silently running `1,4`
        // would measure a different configuration than the one asked for.
        parse_list::<usize>("BC_THREADS", Some("1,,4".into()));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_mmss(Duration::from_secs(83)), "1:23");
        assert_eq!(ms(Duration::from_millis(2)), 2.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
