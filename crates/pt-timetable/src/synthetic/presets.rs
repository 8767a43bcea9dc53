//! The five evaluation networks of the paper, as synthetic stand-ins.
//!
//! | Paper input      | Stops  | Elem. conns | Conns/stop | Stand-in           |
//! |------------------|--------|-------------|------------|--------------------|
//! | Oahu             |  3 918 |  1 408 559  | ~360       | [`oahu_like`]      |
//! | Los Angeles      | 15 792 |  5 023 877  | ~318       | [`los_angeles_like`]|
//! | Washington D.C.  | 10 764 |  3 387 987  | ~315       | [`washington_like`]|
//! | Germany (rail)   |  6 822 |    554 996  | ~81        | [`germany_like`]   |
//! | Europe (rail)    | 30 517 |  1 775 533  | ~58        | [`europe_like`]    |
//!
//! The stand-ins reproduce the *connections-per-station ratio* and the
//! city-vs-rail density contrast at a configurable fraction of the absolute
//! size (`scale = 1.0` ≈ one tenth of the paper's inputs, sized for a small
//! multicore box). The ratio, not the absolute size, determines the
//! algorithmic behaviour under study: self-pruning effectiveness, partition
//! balance and the parallel-scaling anomaly on sparse rail networks.

use pt_core::Period;

use crate::model::Timetable;
use crate::synthetic::city::{generate_city, CityConfig};
use crate::synthetic::headway::HeadwayProfile;
use crate::synthetic::rail::{generate_rail, RailConfig};

/// A named evaluation network.
pub struct Preset {
    /// Display name used in the benchmark tables.
    pub name: &'static str,
    /// The generated timetable.
    pub timetable: Timetable,
}

fn city_preset(
    name: &'static str,
    stations: usize,
    lines: usize,
    line_stops: (usize, usize),
    seed: u64,
    scale: f64,
) -> Preset {
    assert!(scale > 0.0);
    let mut cfg = CityConfig::sized(
        ((stations as f64 * scale).round() as usize).max(16),
        ((lines as f64 * scale).round() as usize).max(4),
        seed,
    );
    cfg.line_stops = line_stops;
    Preset { name, timetable: generate_city(&cfg) }
}

/// Oahu-like: compact island bus network, the densest input (~360
/// connections per stop in the paper).
pub fn oahu_like(scale: f64) -> Preset {
    city_preset("Oahu", 400, 26, (14, 34), 0x0A47, scale)
}

/// Los-Angeles-like: the largest city network (~318 connections per stop).
pub fn los_angeles_like(scale: f64) -> Preset {
    city_preset("Los Angeles", 1580, 90, (14, 34), 0x1A00, scale)
}

/// Washington-D.C.-like city network (~315 connections per stop).
pub fn washington_like(scale: f64) -> Preset {
    city_preset("Washington D.C.", 1080, 61, (14, 34), 0xD0C0, scale)
}

/// Germany-like national railway (~81 connections per station).
pub fn germany_like(scale: f64) -> Preset {
    let cities = ((85.0 * scale).round() as usize).max(6);
    let mut cfg = RailConfig::national(cities, 0xDE00);
    // Denser regional service than the continental default, matching the
    // higher ratio of the national network.
    cfg.regional_profile = HeadwayProfile::from_hours(
        &[
            (0.0, 1.0, Some(60)),
            (1.0, 5.0, None),
            (5.0, 7.0, Some(30)),
            (7.0, 9.0, Some(20)),
            (9.0, 16.0, Some(30)),
            (16.0, 19.0, Some(20)),
            (19.0, 24.0, Some(40)),
        ],
        Period::DAY,
    );
    Preset { name: "Germany", timetable: generate_rail(&cfg) }
}

/// Europe-like continental railway (~58 connections per station): more
/// cities, sparser long-distance service — the input on which the paper's
/// parallel scaling degrades.
pub fn europe_like(scale: f64) -> Preset {
    let cities = ((340.0 * scale).round() as usize).max(10);
    Preset { name: "Europe", timetable: generate_rail(&RailConfig::continental(cities, 0xE0B0)) }
}

/// Metro-like megacity network: an order of magnitude more stations than
/// [`oahu_like`] at the same scale (≥ 200 stations at `scale = 0.05`),
/// sized so benchmarks exercise the large-slot regime where the SoA
/// kernels and the parallel master-merge pay off. Not part of
/// [`all_presets`] — the paper-table binaries and the cross-check keep the
/// five paper inputs; the repo benchmark (`metro-profile`, `feed-replay`)
/// adds this one explicitly.
pub fn metro_like(scale: f64) -> Preset {
    city_preset("Metro", 4000, 260, (14, 34), 0x3E78, scale)
}

/// All five presets at the given scale, in the paper's table order.
pub fn all_presets(scale: f64) -> Vec<Preset> {
    vec![
        oahu_like(scale),
        los_angeles_like(scale),
        washington_like(scale),
        germany_like(scale),
        europe_like(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_presets_are_dense_rail_presets_sparse() {
        let oahu = oahu_like(0.25);
        let germany = germany_like(0.25);
        let ro = oahu.timetable.stats().conns_per_station;
        let rg = germany.timetable.stats().conns_per_station;
        assert!(ro > 100.0, "Oahu-like ratio {ro:.1}");
        assert!(rg < ro / 2.0, "Germany-like ratio {rg:.1} vs Oahu {ro:.1}");
    }

    #[test]
    fn presets_are_deterministic() {
        let a = washington_like(0.1);
        let b = washington_like(0.1);
        assert_eq!(a.timetable.connections(), b.timetable.connections());
    }

    #[test]
    fn metro_preset_is_large_even_at_bench_scale() {
        let m = metro_like(0.05);
        assert!(
            m.timetable.num_stations() >= 200,
            "Metro at 0.05 has {} stations",
            m.timetable.num_stations()
        );
    }

    #[test]
    fn scale_controls_size() {
        let small = los_angeles_like(0.05);
        let large = los_angeles_like(0.15);
        assert!(large.timetable.num_stations() > 2 * small.timetable.num_stations());
    }
}
