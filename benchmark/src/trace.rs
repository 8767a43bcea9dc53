//! Spans recorded in the benchmark's own code, around the public calls it
//! makes into each layer. They stay in memory until the run ends; only the
//! traced pass records them, and no end-to-end number is taken from it.

use std::collections::BTreeMap;
use std::time::Instant;

use pt_bench::report::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The request or batch id every span of one operation shares.
    pub op: u32,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Tracers of several threads share `t0`, so their spans share a clock.
    pub fn new(t0: Instant) -> Tracer {
        Tracer { t0, spans: Vec::new() }
    }

    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a span over an interval measured elsewhere (a duration the
    /// library reports about itself, placed inside its caller's span).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span { name, start_ns, end_ns, parent, op });
        self.spans.len() as u32 - 1
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op: u32) -> u32 {
        let now = self.now();
        self.record(name, parent, op, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let r = f();
        self.close(id);
        r
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }
}

/// Mean self time per occurrence of each span name, in ms: a span's
/// duration minus the part its child spans cover.
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut total: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, &c) in spans.iter().zip(&covered) {
        let e = total.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(c);
        e.1 += 1;
    }
    total.into_iter().map(|(name, (ns, n))| (name, ns as f64 / n as f64 / 1e6)).collect()
}

/// Share of the root spans' time that named child spans account for.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut roots, mut children) = (0u64, 0u64);
    for s in spans {
        match s.parent {
            None => roots += s.end_ns - s.start_ns,
            Some(p) if spans[p as usize].parent.is_none() => children += s.end_ns - s.start_ns,
            Some(_) => {}
        }
    }
    children as f64 / roots.max(1) as f64
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::arr(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::from(u64::from(p)))),
            ("op", Json::from(u64::from(s.op))),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("request", None, 0, 0, 10_000_000);
        let q = t.record("engine.query", Some(root), 0, 1_000_000, 9_000_000);
        t.record("engine.merge", Some(q), 0, 7_000_000, 9_000_000);
        let own = self_ms(&t.spans);
        assert_eq!(own["request"], 2.0);
        assert_eq!(own["engine.query"], 6.0);
        assert_eq!(own["engine.merge"], 2.0);
        assert_eq!(coverage(&t.spans), 0.8);

        let mut other = Tracer::new(Instant::now());
        let r2 = other.record("feed", None, 1, 0, 4_000_000);
        other.record("driver.tick", Some(r2), 1, 0, 4_000_000);
        t.absorb(other);
        assert_eq!(t.spans[4].parent, Some(3), "parent links survive the merge");
        assert_eq!(self_ms(&t.spans)["feed"], 0.0);
    }
}
