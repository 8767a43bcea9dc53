//! Regenerates **Table 2** of the paper: station-to-station queries with
//! the stopping criterion, pruned by distance tables of varying size.
//!
//! For every network the harness builds distance tables over 0 % (no
//! table), 1 %, 2.5 %, 5 % and 10 % of the stations (selected by
//! contraction) plus the `deg > 2` selection, and reports preprocessing
//! time, table size, mean settled queue elements, mean query time, the
//! mean master-merge time (the §3.2 merge overhead, measured separately)
//! and the speed-up over the 0 % configuration — the paper's exact columns
//! plus the merge number the paper only discusses qualitatively.
//!
//! ```text
//! cargo run --release -p pt-bench --bin table2
//! ```
//!
//! Extra knobs: `BC_FRACTIONS` (default `0.01,0.025,0.05,0.10`),
//! `BC_S2S_THREADS` (default `8`, the paper's Table 2 core count) and
//! `BC_KERNEL` (`scalar`/`soa`, default `soa`) selecting the label kernel;
//! the `buckets` column (mean bucket phases swept by the SoA ring) is zero
//! whenever the forced scalar heap ran.

use std::time::Instant;

use pt_bench::{env_list, env_parse, fmt_mmss, mean, ms, random_pairs, BenchConfig};
use pt_spcs::{DistanceTable, KernelMode, Network, S2sEngine, TransferSelection};

fn main() {
    let cfg = BenchConfig::from_env();
    let fractions: Vec<f64> =
        env_list("BC_FRACTIONS").unwrap_or_else(|| vec![0.01, 0.025, 0.05, 0.10]);
    let threads: usize = env_parse("BC_S2S_THREADS", 8);
    let kernel: KernelMode = env_parse("BC_KERNEL", KernelMode::Soa);

    println!("# Table 2 — station-to-station queries with distance-table pruning");
    println!(
        "# scale={} queries={} threads={} kernel={kernel} seed={} fractions={:?} + deg>2",
        cfg.scale, cfg.queries, threads, cfg.seed, fractions
    );
    println!();

    for preset in cfg.networks() {
        let stats = preset.timetable.stats();
        let net = Network::new(preset.timetable);
        println!("## {}  ({} stations, {} conns)", preset.name, stats.stations, stats.connections);
        println!(
            "{:<8} {:>8} {:>10} {:>14} {:>11} {:>11} {:>9} {:>7}",
            "trans",
            "prepro",
            "size[MiB]",
            "settled conns",
            "time [ms]",
            "merge [ms]",
            "buckets",
            "spd-up"
        );
        let pairs = random_pairs(net.num_stations(), cfg.queries, cfg.seed);

        // Baseline: stopping criterion only (the paper's 0.0 % row). The
        // engine persists across the query stream (workspace + pool reuse);
        // the master-merge share of each query is reported separately — the
        // §3.2 merge-overhead number the paper discusses but never gives.
        let run = |engine: &mut S2sEngine<'_>, net: &Network| -> (f64, f64, f64, f64) {
            let mut settled = Vec::new();
            let mut times = Vec::new();
            let mut merge_ms = Vec::new();
            let mut buckets = Vec::new();
            for &(s, t) in &pairs {
                let t0 = Instant::now();
                let r = engine.query(net, s, t);
                times.push(ms(t0.elapsed()));
                settled.push(r.stats.settled as f64);
                merge_ms.push(r.stats.merge_ns as f64 / 1e6);
                buckets.push(r.stats.bucket_phases as f64);
            }
            (mean(&settled), mean(&times), mean(&merge_ms), mean(&buckets))
        };

        let mut engine = S2sEngine::new().threads(threads).kernel(kernel);
        let (settled0, time0, merge0, buckets0) = run(&mut engine, &net);
        println!(
            "{:<8} {:>8} {:>10} {:>14.0} {:>11.1} {:>11.2} {:>9.0} {:>7.1}",
            "0.0%", "—", "—", settled0, time0, merge0, buckets0, 1.0
        );

        let mut selections: Vec<(String, TransferSelection)> = fractions
            .iter()
            .map(|&f| (format!("{:.1}%", f * 100.0), TransferSelection::Fraction(f)))
            .collect();
        selections.push(("deg>2".to_string(), TransferSelection::DegreeAbove(2)));

        for (label, sel) in selections {
            let table = DistanceTable::build(&net, &sel);
            if table.is_empty() {
                println!("{label:<8} (no transfer stations selected — skipped)");
                continue;
            }
            let mut engine = S2sEngine::new().threads(threads).kernel(kernel).with_table(&table);
            let (settled, time, merge, buckets) = run(&mut engine, &net);
            println!(
                "{:<8} {:>8} {:>10.1} {:>14.0} {:>11.1} {:>11.2} {:>9.0} {:>7.1}",
                label,
                fmt_mmss(table.build_time()),
                table.size_mib(),
                settled,
                time,
                merge,
                buckets,
                if time > 0.0 { time0 / time } else { 0.0 }
            );
        }
        println!();
    }
}
