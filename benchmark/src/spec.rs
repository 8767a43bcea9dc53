//! The benchmark's fixed vocabulary: workloads, metric names, units,
//! directions, bounds and sample floors. `BENCHMARK.json` at the repo root
//! is this table rendered (`bc-benchmark spec`); a unit test holds the two
//! equal, so a later performance claim cannot quietly rename a metric.

/// How long one run measures at full size; `--seconds` scales every op
/// list by `seconds / RUN_SECONDS`.
pub const RUN_SECONDS: u32 = 25;

/// Every latency metric needs this many samples to be gated.
pub const LATENCY_FLOOR: usize = 200;
/// Every `feed_visible_*` metric needs this many batches.
pub const FEED_FLOOR: usize = 200;
/// Every throughput metric needs this many equal blocks.
pub const BLOCK_FLOOR: usize = 20;
/// Fewest builds per run behind `setup_s`.
pub const SETUP_BUILDS: usize = 5;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "metro-profile",
        why: "one-to-all profile queries on a dense city network (paper Table 1): kernel, partition, merge and reduction do all the work; cache, table, router do none",
    },
    Workload {
        name: "rail-s2s",
        why: "station-to-station queries with distance-table pruning on sparse rail (paper Table 2): stopping criterion and table decide, kernel sweeps are short",
    },
    Workload {
        name: "city-live",
        why: "open-loop reads against a paced feed writer on three tabled, cached, gateway-stitched shards: the only place reads and writes contend",
    },
    Workload {
        name: "feed-replay",
        why: "a recorded wire day at full speed through decode, coalesce, patch, repatch and publish with no table refresh, then reads on the fed state",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Samples (or blocks) below which a value is printed but ungated.
    pub floor: usize,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: SETUP_BUILDS },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        floor: LATENCY_FLOOR,
    },
    EndToEnd {
        name: "feed_events_per_s",
        unit: "events/s",
        better: "higher",
        bound: 0.25,
        floor: BLOCK_FLOOR,
    },
    EndToEnd {
        name: "feed_visible_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        floor: FEED_FLOOR,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics every workload reports on its traced run (layer =
/// module). Peak memory, the two-client throughput, the two tail
/// percentiles and the two-engine-thread median lead the list: they were
/// end-to-end metrics until the noise studies showed that on some workload
/// they need more than the widest bound the contract allows, and a metric
/// that needs that is demoted, not widened. The two that need both of the
/// host's CPUs at once (`qps`, `latency_2t_p50_ms`) are measured on the
/// traced run only; the tails and peak memory are also printed by untraced
/// runs, as detail lines. Metrics that exist on one workload only (request
/// classes, the arrival-rate sweep, the gateway stitch, the load generator)
/// are printed as detail lines by that workload and are not listed here.
pub const PER_LAYER: [PerLayer; 87] = [
    pl("peak_rss_mib", "MiB", "lower"),
    pl("qps", "1/s", "higher"),
    pl("latency_p95_ms", "ms", "lower"),
    pl("latency_2t_p50_ms", "ms", "lower"),
    pl("feed_visible_p95_ms", "ms", "lower"),
    pl("kernel.settled_per_query", "count", "lower"),
    pl("kernel.relaxed_per_query", "count", "lower"),
    pl("kernel.self_pruned_share", "ratio", "higher"),
    pl("kernel.bucket_phases_per_query", "count", "lower"),
    pl("kernel.ns_per_settled", "ns", "lower"),
    pl("kernel.soa_over_scalar", "ratio", "lower"),
    pl("parallel.merge_ms_per_query", "ms", "lower"),
    pl("parallel.merge_share", "ratio", "lower"),
    pl("parallel.thread_balance", "ratio", "lower"),
    pl("parallel.speedup_2t", "ratio", "higher"),
    pl("partition.class_balance", "ratio", "lower"),
    pl("partition.partition_us", "us", "lower"),
    pl("workspace.grow_events_after_warmup", "count", "lower"),
    pl("heap.push_pop_ns", "ns", "lower"),
    pl("profile.reduce_ns_per_point", "ns", "lower"),
    pl("profile.merge_ns_per_point", "ns", "lower"),
    pl("profile.link_ns_per_point", "ns", "lower"),
    pl("s2s.settled_per_query", "count", "lower"),
    pl("s2s.stop_pruned_share", "ratio", "higher"),
    pl("s2s.table_pruned_share", "ratio", "higher"),
    pl("s2s.kind_direct_share", "ratio", "higher"),
    pl("s2s.kind_local_share", "ratio", "higher"),
    pl("s2s.kind_global_share", "ratio", "lower"),
    pl("s2s.kind_target_share", "ratio", "higher"),
    pl("s2s.table_speedup", "ratio", "higher"),
    pl("distance_table.build_s", "s", "lower"),
    pl("distance_table.rows", "count", "lower"),
    pl("distance_table.size_mib", "MiB", "lower"),
    pl("distance_table.refresh_ms_per_feed", "ms", "lower"),
    pl("distance_table.rows_refreshed_per_feed", "count", "lower"),
    pl("distance_table.refresh_share", "ratio", "lower"),
    pl("cache.o2a_hit_rate", "ratio", "higher"),
    pl("cache.s2s_hit_rate", "ratio", "higher"),
    pl("cache.evictions", "count", "lower"),
    pl("cache.get_ns", "ns", "lower"),
    pl("cache.insert_ns", "ns", "lower"),
    pl("network.build_s", "s", "lower"),
    pl("network.pin_ns", "ns", "lower"),
    pl("network.pin_2t_ns", "ns", "lower"),
    pl("network.apply_feed_ms", "ms", "lower"),
    pl("network.publish_us_p50", "us", "lower"),
    pl("network.publish_us_p95", "us", "lower"),
    pl("network.buckets_copied_share", "ratio", "lower"),
    pl("network.routes_copied_share", "ratio", "lower"),
    pl("network.post_feed_query_ratio", "ratio", "lower"),
    pl("timetable.patch_feed_us", "us", "lower"),
    pl("routes.repatch_us", "us", "lower"),
    pl("routes.refit_share", "ratio", "lower"),
    pl("routes.count_growth", "ratio", "lower"),
    pl("graph.repatch_us", "us", "lower"),
    pl("graph.build_ms", "ms", "lower"),
    pl("shard.locate_ns", "ns", "lower"),
    pl("shard.router_overhead_us", "us", "lower"),
    pl("gateway.groups", "count", "lower"),
    pl("gateway.border_rows_refreshed_per_feed", "count", "lower"),
    pl("wire.decode_csv_ns_per_line", "ns", "lower"),
    pl("wire.decode_json_ns_per_line", "ns", "lower"),
    pl("wire.quarantined_lines", "count", "lower"),
    pl("driver.batches", "count", "lower"),
    pl("driver.events_per_batch", "count", "higher"),
    pl("driver.coalesced_dropped", "count", "lower"),
    pl("driver.forced_flushes", "count", "lower"),
    pl("driver.max_queue_len", "count", "lower"),
    pl("driver.apply_share", "ratio", "higher"),
    pl("driver.drift_ratio", "ratio", "higher"),
    pl("rayon.stolen_share", "ratio", "lower"),
    pl("trace.coverage", "ratio", "higher"),
    pl("trace.overhead_share", "ratio", "lower"),
    pl("trace.self_ms.request", "ms", "lower"),
    pl("trace.self_ms.engine.query", "ms", "lower"),
    pl("trace.self_ms.engine.merge", "ms", "lower"),
    pl("trace.self_ms.feed", "ms", "lower"),
    pl("trace.self_ms.wire.decode", "ms", "lower"),
    pl("trace.self_ms.driver.tick", "ms", "lower"),
    pl("trace.self_ms.shard.apply_feed", "ms", "lower"),
    pl("trace.self_ms.network.pin", "ms", "lower"),
    pl("trace.self_ms.mirror.timetable.patch_feed", "ms", "lower"),
    pl("trace.self_ms.mirror.routes.repatch_feed", "ms", "lower"),
    pl("trace.self_ms.mirror.graph.repatch_routes", "ms", "lower"),
    pl("trace.self_ms.mirror.network.publish", "ms", "lower"),
    pl("trace.self_ms.mirror.distance_table.refresh", "ms", "lower"),
    pl("trace.spans", "count", "lower"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n", w.name, w.why));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(committed == benchmark_json(), "stale: run `bc-benchmark spec > BENCHMARK.json`");
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
