//! Choosing the transfer stations `S_trans` (paper §4).
//!
//! The paper proposes two strategies, both implemented here:
//!
//! * **Contraction**: contract `c` stations of the station graph; whatever
//!   survives is important. `Fraction(0.05)` reproduces the "5 %" rows of
//!   Table 2 — a good compromise between table size and pruning power.
//! * **Degree**: mark every station with station-graph degree `> k`
//!   (the `deg > 2` rows of Table 2).

use pt_core::StationId;

use crate::contraction::contract_stations;
use crate::network::Network;

/// Strategy for selecting transfer stations.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferSelection {
    /// Keep this share of all stations, chosen by contraction importance
    /// (`0.05` = the paper's 5 % row).
    Fraction(f64),
    /// All stations with undirected station-graph degree strictly greater
    /// than `k`.
    DegreeAbove(usize),
    /// An explicit, caller-provided set.
    Explicit(Vec<StationId>),
}

impl TransferSelection {
    /// Resolves the strategy to a sorted station set.
    pub fn select(&self, net: &Network) -> Vec<StationId> {
        let n = net.num_stations();
        let mut picked = match self {
            TransferSelection::Fraction(f) => {
                assert!((0.0..=1.0).contains(f), "fraction out of range");
                let keep = ((n as f64) * f).round() as usize;
                let removed = contract_stations(net.station_graph(), n - keep.min(n));
                let mut is_removed = vec![false; n];
                for s in &removed {
                    is_removed[s.idx()] = true;
                }
                (0..n as u32).map(StationId).filter(|s| !is_removed[s.idx()]).collect::<Vec<_>>()
            }
            TransferSelection::DegreeAbove(k) => {
                let sg = net.station_graph();
                (0..n as u32).map(StationId).filter(|&s| sg.degree(s) > *k).collect()
            }
            TransferSelection::Explicit(set) => set.clone(),
        };
        picked.sort_unstable();
        picked.dedup();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_timetable::synthetic::city::{generate_city, CityConfig};

    fn net() -> Network {
        Network::new(generate_city(&CityConfig::sized(49, 7, 3)))
    }

    #[test]
    fn fraction_yields_requested_share() {
        let net = net();
        let picked = TransferSelection::Fraction(0.2).select(&net);
        let want = (net.num_stations() as f64 * 0.2).round() as usize;
        assert_eq!(picked.len(), want);
        // Sorted and unique.
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fraction_one_keeps_everything() {
        let net = net();
        let picked = TransferSelection::Fraction(1.0).select(&net);
        assert_eq!(picked.len(), net.num_stations());
    }

    #[test]
    fn degree_threshold_filters() {
        let net = net();
        let low = TransferSelection::DegreeAbove(2).select(&net);
        let high = TransferSelection::DegreeAbove(5).select(&net);
        assert!(high.len() <= low.len());
        let sg = net.station_graph();
        assert!(low.iter().all(|&s| sg.degree(s) > 2));
    }

    #[test]
    fn explicit_is_normalized() {
        let net = net();
        let sel = TransferSelection::Explicit(vec![StationId(5), StationId(1), StationId(5)]);
        let picked = sel.select(&net);
        assert_eq!(picked, vec![StationId(1), StationId(5)]);
        let table = crate::DistanceTable::build_for(&net, picked);
        let mask = table.transfer_mask();
        assert!(mask[1] && mask[5] && !mask[0]);
    }

    #[test]
    fn contraction_prefers_busy_stations() {
        // Average station-graph degree of the picked 10% should not be
        // below the network average — contraction keeps the well-connected.
        let net = net();
        let sg = net.station_graph();
        let picked = TransferSelection::Fraction(0.1).select(&net);
        let avg_all: f64 =
            (0..net.num_stations() as u32).map(|s| sg.degree(StationId(s)) as f64).sum::<f64>()
                / net.num_stations() as f64;
        let avg_picked: f64 =
            picked.iter().map(|&s| sg.degree(s) as f64).sum::<f64>() / picked.len() as f64;
        assert!(
            avg_picked >= avg_all,
            "picked avg degree {avg_picked:.2} < network avg {avg_all:.2}"
        );
    }
}
