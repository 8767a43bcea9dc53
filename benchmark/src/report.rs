//! What a run prints: one tab-separated detail line per metric (value,
//! unit, sample count, the quantile actually used, whether it is gated),
//! `info` lines about the run itself, and — last — the one-line JSON
//! object the driver reads. `noise` and `compare` parse the detail lines
//! of saved runs back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::{END_TO_END, PER_LAYER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// An end-to-end metric with enough samples: the driver gates it.
    Gated,
    /// An end-to-end metric whose sample count is under its floor.
    Ungated,
    /// A per-layer metric every workload reports.
    Layer,
    /// A per-layer metric only this workload has; printed, not in the JSON.
    Detail,
}

impl Tier {
    fn label(self) -> &'static str {
        match self {
            Tier::Gated => "gated",
            Tier::Ungated => "ungated",
            Tier::Layer => "layer",
            Tier::Detail => "detail",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or blocks, or builds) behind the value.
    pub n: usize,
    /// For a percentile: the quantile actually used.
    pub q: Option<f64>,
    pub tier: Tier,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub info: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and typed errors: anything that makes the run's
    /// outputs wrong rather than slow.
    pub incorrect: Vec<String>,
}

impl Report {
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// An end-to-end metric; ungated when `n` is under the metric's floor.
    pub fn end_to_end(&mut self, name: &str, value: f64, n: usize, q: Option<f64>) {
        let spec = END_TO_END.iter().find(|m| m.name == name).expect("a listed end-to-end metric");
        let tier = if n >= spec.floor { Tier::Gated } else { Tier::Ungated };
        self.metrics.push(Metric { name: name.into(), value, unit: spec.unit, n, q, tier });
    }

    /// A per-layer metric of the common list.
    pub fn layer(&mut self, name: &str, value: f64, n: usize) {
        let spec = PER_LAYER.iter().find(|m| m.name == name).expect("a listed per-layer metric");
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: spec.unit,
            n,
            q: None,
            tier: Tier::Layer,
        });
    }

    /// A demoted end-to-end metric: per-layer on a traced run, a detail
    /// line from the full sample on an untraced one. `q` is the quantile
    /// actually used, for the ones that are percentiles.
    pub fn demoted(&mut self, name: &str, value: f64, q: Option<f64>, n: usize, traced: bool) {
        if traced {
            self.layer(name, value, n);
            self.metrics.last_mut().expect("just pushed").q = q;
        } else {
            let spec = PER_LAYER.iter().find(|m| m.name == name).expect("a listed metric");
            self.detail(name, value, spec.unit, n, q);
        }
    }

    /// A per-layer metric only this workload measures.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, n: usize, q: Option<f64>) {
        self.metrics.push(Metric { name: name.into(), value, unit, n, q, tier: Tier::Detail });
    }

    pub fn correct(&self) -> bool {
        self.incorrect.is_empty()
    }

    /// One detail line per info item, metric and mismatch.
    pub fn details(&self, workload: &str) -> String {
        let mut out = String::new();
        for (k, v) in &self.info {
            let _ = writeln!(out, "info\t{workload}\t{k}\t{v}");
        }
        for m in &self.metrics {
            let q = m.q.map_or("-".to_string(), |q| format!("p{:.1}", q * 100.0));
            let _ = writeln!(
                out,
                "metric\t{workload}\t{}\t{}\t{}\tn={}\t{q}\t{}",
                m.name,
                m.value,
                m.unit,
                m.n,
                m.tier.label()
            );
        }
        for what in &self.incorrect {
            let _ = writeln!(out, "incorrect\t{workload}\t{what}");
        }
        out
    }

    /// The final line: one JSON object holding exactly every end-to-end
    /// metric (untraced run) or every common per-layer metric (traced run).
    pub fn json_line(&self, workload: &str, traced: bool) -> String {
        let wanted: Vec<&str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let mut fields = Vec::new();
        for name in wanted {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{workload} did not measure {name}"));
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.unit));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// One saved run, parsed back from its detail lines.
#[derive(Debug, Clone, Default)]
pub struct ParsedRun {
    pub workload: String,
    pub info: BTreeMap<String, String>,
    /// name → (value, tier label).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parses the output of one or more runs (one `ParsedRun` per workload).
pub fn parse_runs(text: &str) -> Vec<ParsedRun> {
    let mut runs: Vec<ParsedRun> = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() < 4 || !matches!(f[0], "info" | "metric") {
            continue;
        }
        let at = match runs.iter().position(|r| r.workload == f[1]) {
            Some(i) => i,
            None => {
                runs.push(ParsedRun { workload: f[1].to_string(), ..ParsedRun::default() });
                runs.len() - 1
            }
        };
        match (f[0], f.len()) {
            ("info", _) => {
                runs[at].info.insert(f[2].to_string(), f[3].to_string());
            }
            ("metric", 8) => {
                if let Ok(v) = f[3].parse::<f64>() {
                    runs[at].metrics.insert(f[2].to_string(), (v, f[7].to_string()));
                }
            }
            _ => {}
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_floor_metrics_are_printed_but_ungated_and_lines_parse_back() {
        let mut r = Report::default();
        r.info("fingerprint", "00ff");
        r.end_to_end("latency_p50_ms", 1.25, 240, Some(0.5));
        r.end_to_end("feed_visible_p50_ms", 2.5, 40, Some(0.5));
        r.demoted("latency_p95_ms", 3.5, Some(0.75), 40, false);
        r.detail("shard.max_rate_qps", 75.0, "1/s", 3, None);
        assert_eq!(r.metrics[0].tier, Tier::Gated);
        assert_eq!(r.metrics[1].tier, Tier::Ungated);
        let text = r.details("city-live");
        let parsed = parse_runs(&text);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].info["fingerprint"], "00ff");
        assert_eq!(parsed[0].metrics["feed_visible_p50_ms"], (2.5, "ungated".to_string()));
        assert_eq!(parsed[0].metrics["latency_p95_ms"], (3.5, "detail".to_string()));
        assert_eq!(parsed[0].metrics["shard.max_rate_qps"].1, "detail");
        assert!(text.contains("p75.0"), "the quantile actually used is printed: {text}");
    }
}
