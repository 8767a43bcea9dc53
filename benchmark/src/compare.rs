//! `noise`: do two sets of runs of the *same* code agree within the
//! benchmark's own bounds? `compare`: did a change move a metric, by the
//! rule of ten pairs — medians, quartiles, pairs won, and one of
//! `improved / unchanged / regressed / unresolved` per (workload, metric).

use std::collections::BTreeMap;
use std::process::Command;

use pt_bench::report::Json;

use crate::report::{parse_runs, ParsedRun};
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub base: [f64; 3],
    pub change: [f64; 3],
    /// Pairs the change won and lost (ties count for neither).
    pub won: usize,
    pub lost: usize,
    /// How much worse the change's median is, as a share of the base's
    /// (negative: better).
    pub worse_by: f64,
    /// The wider of the two interquartile spreads, as a share of its median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compares two sets of runs of one (workload, metric) pairing.
pub fn judge(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let (qb, qc) = (quartiles(base), quartiles(change));
    let (mb, mc) = (median(base), median(change));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (mc - mb) / mb.abs();
    let better = |c: f64, b: f64| sign * (c - b) < 0.0;
    let won = base.iter().zip(change).filter(|(&b, &c)| better(c, b)).count();
    let lost = base.iter().zip(change).filter(|(&b, &c)| better(b, c)).count();
    let spread = spread(base).max(spread(change));
    // Every run of one side better than every run of the other?
    let range = |xs: &[f64]| {
        xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    };
    let ((b_lo, b_hi), (c_lo, c_hi)) = (range(base), range(change));
    let disjoint = c_hi < b_lo || b_hi < c_lo;
    let pairs = base.len().min(change.len());
    let verdict = if spread > bound && !disjoint {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < 0.0 && won * 10 >= pairs * 9 && (mc - mb).abs() > qb[2] - qb[0] {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row { base: qb, change: qc, won, lost, worse_by, spread, verdict }
}

type Values = BTreeMap<(String, String), Vec<f64>>;

/// Gated end-to-end values per (workload, metric), in run order. Refuses
/// runs that do not compare: one workload at two shapes (different sizes),
/// or one (workload, seed) with two input fingerprints.
fn collect(runs: &[ParsedRun]) -> Result<Values, String> {
    let mut shapes: BTreeMap<&str, &str> = BTreeMap::new();
    let mut prints: BTreeMap<(&str, &str), &str> = BTreeMap::new();
    let mut values = Values::new();
    for run in runs {
        let w = run.workload.as_str();
        let info = |k: &str| run.info.get(k).map(String::as_str).unwrap_or("?");
        if *shapes.entry(w).or_insert(info("shape")) != info("shape") {
            return Err(format!("{w}: runs of different sizes do not compare"));
        }
        if *prints.entry((w, info("seed"))).or_insert(info("fingerprint")) != info("fingerprint") {
            return Err(format!("{w}: seed {} gave two different inputs", info("seed")));
        }
        for (name, (value, tier)) in &run.metrics {
            if tier == "gated" {
                values.entry((w.to_string(), name.clone())).or_default().push(*value);
            }
        }
    }
    Ok(values)
}

fn spec_of(metric: &str) -> (bool, f64) {
    END_TO_END
        .iter()
        .find(|m| m.name == metric)
        .map_or((false, 0.1), |m| (m.better == "higher", m.bound))
}

fn print_rows(rows: &[((String, String), Row)]) {
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "base q1",
        "base med",
        "change med",
        "change q3",
        "worse%",
        "spread%",
        "won"
    );
    for ((w, m), r) in rows {
        println!(
            "{w:<14} {m:<20} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>8.2} {:>7.2} {:>4}/{:<2}  {:?}",
            r.base[0],
            r.base[1],
            r.change[1],
            r.change[2],
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.won,
            r.won + r.lost,
            r.verdict
        );
    }
}

fn judge_all(base: &Values, change: &Values) -> Vec<((String, String), Row)> {
    base.iter()
        .filter_map(|(key, b)| {
            let c = change.get(key)?;
            let (higher, bound) = spec_of(&key.1);
            Some((key.clone(), judge(b, c, higher, bound)))
        })
        .collect()
}

/// `compare <base files…> --vs <change files…>`; exit code 1 on any
/// regression, 2 when the runs do not compare.
pub fn compare(args: &[String]) -> i32 {
    let Some(split) = args.iter().position(|a| a == "--vs") else {
        eprintln!("usage: compare <base run files…> --vs <change run files…>");
        return 2;
    };
    let read = |paths: &[String]| -> Result<Vec<ParsedRun>, String> {
        let mut runs = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            runs.extend(parse_runs(&text));
        }
        Ok(runs)
    };
    let sides = read(&args[..split]).and_then(|b| Ok((b, read(&args[split + 1..])?)));
    let (base, change) = match sides {
        Ok(s) => s,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let both: Vec<ParsedRun> = base.iter().chain(&change).cloned().collect();
    let values = collect(&both).and_then(|_| Ok((collect(&base)?, collect(&change)?)));
    match values {
        Ok((b, c)) => {
            let rows = judge_all(&b, &c);
            print_rows(&rows);
            i32::from(rows.iter().any(|(_, r)| r.verdict == Verdict::Regressed))
        }
        Err(e) => {
            eprintln!("compare: refusing: {e}");
            2
        }
    }
}

/// `noise`: two sets of `runs` full runs of this binary, one after the
/// other, another seed for every run. Applies the acceptance
/// rule to every gated pairing — each set's interquartile spread and the
/// disagreement of the set medians must stay inside the metric's bound —
/// writes both sets to `out`, and returns 1 if any pairing is outside.
pub fn noise(runs: usize, first_seed: u64, seconds: u32, out: &str) -> i32 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut sets: [Vec<ParsedRun>; 2] = [Vec::new(), Vec::new()];
    // As the driver checks it: one whole set, then the other, each workload's
    // runs back to back with another seed each time. Alternating the sets
    // run by run would hide exactly what the second condition is about, a
    // host that is slower during one set than during the other.
    for set in 0..2 {
        for w in &WORKLOADS {
            for i in 0..runs {
                let seed = (first_seed + (set * runs + i) as u64).to_string();
                eprintln!("noise: set {} run {} {} seed {seed}", ["A", "B"][set], i + 1, w.name);
                let output = Command::new(&exe)
                    .args(["run", "--workload", w.name, "--seed", &seed, "--trace", "0"])
                    .args(["--seconds", &seconds.to_string()])
                    .output()
                    .expect("the benchmark re-executes itself");
                if !output.status.success() {
                    eprintln!(
                        "noise: {} failed: {}",
                        w.name,
                        String::from_utf8_lossy(&output.stderr)
                    );
                    return 2;
                }
                sets[set].extend(parse_runs(&String::from_utf8_lossy(&output.stdout)));
            }
        }
    }
    let both: Vec<ParsedRun> = sets[0].iter().chain(&sets[1]).cloned().collect();
    let values = collect(&both).and_then(|_| Ok((collect(&sets[0])?, collect(&sets[1])?)));
    let (a, b) = match values {
        Ok(v) => v,
        Err(e) => {
            eprintln!("noise: refusing: {e}");
            return 2;
        }
    };
    let rows = judge_all(&a, &b);
    print_rows(&rows);
    let mut outside = 0;
    let mut pairings = Vec::new();
    for ((w, m), r) in &rows {
        let (_, bound) = spec_of(m);
        // setup_s is held to the disagreement of the medians only.
        let spread_ok = m == "setup_s" || r.spread <= bound;
        let ok = spread_ok && r.worse_by.abs() <= bound;
        if !ok {
            outside += 1;
            println!(
                "OUTSIDE {w}/{m}: spread {:.3} disagreement {:.3} bound {bound}",
                r.spread,
                r.worse_by.abs()
            );
        }
        let key = (w.clone(), m.clone());
        pairings.push(Json::obj([
            ("workload", Json::from(w.as_str())),
            ("metric", Json::from(m.as_str())),
            ("bound", Json::from(bound)),
            ("set_a", Json::from(a[&key].clone())),
            ("set_b", Json::from(b[&key].clone())),
            ("median_a", Json::from(r.base[1])),
            ("median_b", Json::from(r.change[1])),
            ("spread", Json::from(r.spread)),
            ("disagreement", Json::from(r.worse_by.abs())),
            ("inside", Json::from(ok)),
        ]));
    }
    let doc = Json::obj([
        ("runs_per_set", Json::from(runs)),
        ("first_seed", Json::from(first_seed)),
        ("seconds", Json::from(u64::from(seconds))),
        ("nproc", Json::from(crate::serve::nproc())),
        ("outside", Json::from(outside as u64)),
        ("pairings", Json::Arr(pairings)),
    ]);
    if let Err(e) = std::fs::write(out, doc.render()) {
        eprintln!("noise: cannot write {out}: {e}");
        return 2;
    }
    println!("noise: {} pairings, {outside} outside their bound; wrote {out}", rows.len());
    i32::from(outside > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];

    fn scaled(by: f64) -> Vec<f64> {
        BASE.iter().map(|x| x * by).collect()
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        // Lower is better, bound 7 %.
        assert_eq!(judge(&BASE, &scaled(0.9), false, 0.07).verdict, Verdict::Improved);
        assert_eq!(judge(&BASE, &scaled(1.2), false, 0.07).verdict, Verdict::Regressed);
        assert_eq!(judge(&BASE, &scaled(1.001), false, 0.07).verdict, Verdict::Unchanged);
        // Slightly worse but inside the bound: unchanged, not regressed.
        assert_eq!(judge(&BASE, &scaled(1.05), false, 0.07).verdict, Verdict::Unchanged);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(&BASE, &scaled(1.2), true, 0.07).verdict, Verdict::Improved);
        assert_eq!(judge(&BASE, &scaled(0.8), true, 0.07).verdict, Verdict::Regressed);
        let row = judge(&BASE, &scaled(0.9), false, 0.07);
        assert_eq!((row.won, row.lost), (10, 0));
        assert!((row.worse_by + 0.1).abs() < 1e-9);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_are_disjoint() {
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0];
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 1.1).collect();
        assert_eq!(judge(&noisy, &shifted, false, 0.07).verdict, Verdict::Unresolved);
        // Every run of the change beats every run of the base: resolved.
        let halved: Vec<f64> = noisy.iter().map(|x| x * 0.4).collect();
        assert_eq!(judge(&noisy, &halved, false, 0.07).verdict, Verdict::Improved);
        // A small, consistent gain that does not clear the base's own
        // spread is not claimed.
        let barely: Vec<f64> = BASE.iter().map(|x| x - 0.3).collect();
        assert_eq!(judge(&BASE, &barely, false, 0.07).verdict, Verdict::Unchanged);
    }

    fn run(workload: &str, seed: &str, shape: &str, print: &str, rate: f64) -> ParsedRun {
        let mut r = ParsedRun { workload: workload.into(), ..ParsedRun::default() };
        for (k, v) in [("seed", seed), ("shape", shape), ("fingerprint", print)] {
            r.info.insert(k.into(), v.into());
        }
        r.metrics.insert("feed_events_per_s".into(), (rate, "gated".into()));
        r.metrics.insert("latency_p95_ms".into(), (1.0, "ungated".into()));
        r
    }

    #[test]
    fn runs_that_do_not_compare_are_refused() {
        let ok = [run("rail-s2s", "1", "aa", "f1", 10.0), run("rail-s2s", "2", "aa", "f2", 11.0)];
        let values = collect(&ok).unwrap();
        assert_eq!(
            values[&("rail-s2s".to_string(), "feed_events_per_s".to_string())],
            vec![10.0, 11.0]
        );
        assert_eq!(values.len(), 1, "ungated values are left out");
        let sizes =
            [run("rail-s2s", "1", "aa", "f1", 10.0), run("rail-s2s", "2", "bb", "f2", 11.0)];
        assert!(collect(&sizes).unwrap_err().contains("different sizes"));
        let inputs =
            [run("rail-s2s", "1", "aa", "f1", 10.0), run("rail-s2s", "1", "aa", "f9", 11.0)];
        assert!(collect(&inputs).unwrap_err().contains("two different inputs"));
    }
}
