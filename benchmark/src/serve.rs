//! The read side: what a request is served by in each workload, and the
//! closed-loop sections that time it. Every request is one public call
//! into the library; the traced forms wrap the same calls in spans.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use pt_spcs::{
    DistanceTable, Network, ProfileCache, ProfileEngine, QueryStats, S2sCache, S2sEngine,
    ShardedService,
};

use crate::gen::{Class, ReadOp, Request};
use crate::trace::Tracer;

/// Never more load threads than this, and never more than the host has.
pub fn load_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Where directly called engines find their network.
pub enum Nets<'a> {
    /// One immutable network (`metro-profile`, `rail-s2s`).
    Fixed(&'a Network),
    /// Whatever the service has published when the request arrives
    /// (`feed-replay`: reads on the fed state).
    Published(&'a ShardedService),
}

/// Engines called directly, index 0 with one engine thread and index 1
/// with two.
pub struct Direct<'a> {
    pub nets: Nets<'a>,
    pub o2a: [ProfileEngine; 2],
    pub s2s: [S2sEngine<'a>; 2],
}

impl<'a> Direct<'a> {
    pub fn new(nets: Nets<'a>, table: Option<&'a DistanceTable>) -> Direct<'a> {
        let s2s = |threads| {
            let e = S2sEngine::new().threads(threads);
            match table {
                Some(t) => e.with_table(t),
                None => e,
            }
        };
        Direct {
            nets,
            o2a: [ProfileEngine::new(), ProfileEngine::new().threads(2)],
            s2s: [s2s(1), s2s(2)],
        }
    }

    fn query(&self, req: Request, variant: usize) -> Result<QueryStats, String> {
        let run = |net: &Network, req: Request| match req {
            Request::O2a(s) => Ok(self.o2a[variant].one_to_all_with_stats(net, s).stats),
            Request::S2s(s, t) => {
                self.s2s[variant].try_query(net, s, t).map(|r| r.stats).map_err(|e| e.to_string())
            }
        };
        match &self.nets {
            Nets::Fixed(net) => run(net, req),
            Nets::Published(svc) => {
                let Request::O2a(global) = req else {
                    return Err("published networks serve one-to-all only".into());
                };
                let (shard, local) = svc.locate(global).map_err(|e| e.to_string())?;
                let snap = svc.network(shard).map_err(|e| e.to_string())?;
                run(snap.network(), Request::O2a(local))
            }
        }
    }
}

/// The service's request path taken apart into the public calls it is made
/// of — locate, pin, cache probe, engine, cache fill — so the traced pass
/// can put a span around each. The caches and engines are the benchmark's
/// own, configured like the service's stripes.
pub struct Parts {
    o2a_cache: Vec<ProfileCache>,
    s2s_cache: Vec<S2sCache>,
    o2a: ProfileEngine,
    s2s: S2sEngine<'static>,
}

impl Parts {
    pub fn new(shards: usize, o2a_capacity: usize, s2s_capacity: usize) -> Parts {
        Parts {
            o2a_cache: (0..shards).map(|_| ProfileCache::new(o2a_capacity)).collect(),
            s2s_cache: (0..shards).map(|_| S2sCache::new(s2s_capacity)).collect(),
            o2a: ProfileEngine::new(),
            s2s: S2sEngine::new(),
        }
    }
}

// A run holds one or two servers; boxing a variant would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Server<'a> {
    Direct(Direct<'a>),
    /// The sharded service's own entry points, index 0 built with one
    /// engine thread and index 1 with two.
    Service {
        svc: [&'a ShardedService; 2],
        parts: Parts,
    },
}

impl Server<'_> {
    /// One request, one public call. The service's one-to-all returns no
    /// counters; its stats are empty.
    pub fn serve(&self, op: &ReadOp, variant: usize) -> Result<QueryStats, String> {
        match self {
            Server::Direct(d) => d.query(op.req, variant),
            Server::Service { svc, .. } => match op.req {
                Request::O2a(s) => svc[variant]
                    .one_to_all(s)
                    .map(|_| QueryStats::default())
                    .map_err(|e| e.to_string()),
                Request::S2s(s, t) => {
                    svc[variant].s2s(s, t).map(|r| r.value.stats).map_err(|e| e.to_string())
                }
            },
        }
    }

    /// The same request with a `request` root span and a child span per
    /// layer crossed. The engine reports its master-merge time itself
    /// (`QueryStats::merge_ns`); it is placed at the end of `engine.query`.
    pub fn serve_traced(
        &self,
        op: &ReadOp,
        id: u32,
        tr: &mut Tracer,
    ) -> Result<QueryStats, String> {
        let root = tr.open("request", None, id);
        let served = match self {
            Server::Direct(d) => engine_span(tr, root, id, || d.query(op.req, 0)),
            Server::Service { svc, parts } => parts.serve_traced(svc[0], op, root, id, tr),
        };
        tr.close(root);
        served
    }

    /// Evictions from the benchmark's own caches (the traced service path).
    pub fn evictions(&self) -> u64 {
        match self {
            Server::Direct(_) => 0,
            Server::Service { parts, .. } => {
                parts.o2a_cache.iter().map(|c| c.stats().evictions).sum::<u64>()
                    + parts.s2s_cache.iter().map(|c| c.stats().evictions).sum::<u64>()
            }
        }
    }

    /// Workspace growth events of every engine the benchmark owns.
    pub fn grow_events(&self) -> u64 {
        match self {
            Server::Direct(d) => {
                d.o2a.iter().map(ProfileEngine::workspace_grow_events).sum::<u64>()
                    + d.s2s.iter().map(S2sEngine::workspace_grow_events).sum::<u64>()
            }
            Server::Service { parts, .. } => {
                parts.o2a.workspace_grow_events() + parts.s2s.workspace_grow_events()
            }
        }
    }
}

fn engine_span(
    tr: &mut Tracer,
    parent: u32,
    id: u32,
    query: impl FnOnce() -> Result<QueryStats, String>,
) -> Result<QueryStats, String> {
    let span = tr.open("engine.query", Some(parent), id);
    let stats = query();
    tr.close(span);
    if let Ok(stats) = &stats {
        let end = tr.spans[span as usize].end_ns;
        let start = end.saturating_sub(stats.merge_ns).max(tr.spans[span as usize].start_ns);
        tr.record("engine.merge", Some(span), id, start, end);
    }
    stats
}

impl Parts {
    fn serve_traced(
        &self,
        svc: &ShardedService,
        op: &ReadOp,
        root: u32,
        id: u32,
        tr: &mut Tracer,
    ) -> Result<QueryStats, String> {
        if op.class == Class::Cross {
            // The stitch is crate-private: one span around the whole call.
            let Request::S2s(s, t) = op.req else { unreachable!("cross requests are pairs") };
            return tr
                .span("gateway.stitch", Some(root), id, || svc.s2s(s, t))
                .map(|r| r.value.stats)
                .map_err(|e| e.to_string());
        }
        let (source, target) = match op.req {
            Request::O2a(s) => (s, None),
            Request::S2s(s, t) => (s, Some(t)),
        };
        let located = tr.span("shard.locate", Some(root), id, || {
            let (shard, s) = svc.locate(source)?;
            let t = target.map(|t| svc.locate(t).map(|l| l.1)).transpose()?;
            Ok::<_, pt_spcs::RouterError>((shard, s, t))
        });
        let (shard, s, t) = located.map_err(|e| e.to_string())?;
        let snap = tr
            .span("network.pin", Some(root), id, || svc.network(shard))
            .map_err(|e| e.to_string())?;
        let (epoch, generation) = (snap.epoch(), snap.generation());
        let hit = QueryStats { cache_hits: 1, ..QueryStats::default() };
        match t {
            None => {
                let cache = &self.o2a_cache[shard.idx()];
                if tr
                    .span("cache.get", Some(root), id, || cache.get(s, epoch, generation))
                    .is_some()
                {
                    return Ok(hit);
                }
                let mut set = None;
                let stats = engine_span(tr, root, id, || {
                    let r = self.o2a.one_to_all_with_stats(snap.network(), s);
                    set = Some(r.profiles);
                    Ok(r.stats)
                })?;
                let set = set.expect("a successful query returns its profiles");
                tr.span("cache.insert", Some(root), id, || cache.insert(s, epoch, generation, set));
                Ok(stats)
            }
            Some(t) => {
                let cache = &self.s2s_cache[shard.idx()];
                if tr
                    .span("cache.get", Some(root), id, || cache.get(s, t, epoch, generation))
                    .is_some()
                {
                    return Ok(hit);
                }
                let mut found = None;
                let stats = engine_span(tr, root, id, || {
                    let r = self
                        .s2s
                        .try_query_on(snap.network(), snap.table(), s, t)
                        .map_err(|e| e.to_string())?;
                    found = Some((Arc::new(r.profile), r.kind));
                    Ok(r.stats)
                })?;
                let (profile, kind) = found.expect("a successful query returns its profile");
                tr.span("cache.insert", Some(root), id, || {
                    cache.insert(s, t, epoch, generation, profile, kind)
                });
                Ok(stats)
            }
        }
    }
}

/// Times `ops` one after the other on engine variant `variant` (0: one
/// engine thread, 1: two), appending milliseconds per request to `out_ms`;
/// returns the number of failed requests.
pub fn run_timed(server: &Server, ops: &[ReadOp], variant: usize, out_ms: &mut Vec<f64>) -> usize {
    let mut errors = 0;
    for op in ops {
        let t0 = Instant::now();
        let served = server.serve(op, variant);
        out_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        errors += usize::from(served.is_err());
    }
    errors
}

/// The server to ask and the block of requests to pull from.
type Job<'scope> = (&'scope Server<'scope>, &'scope [ReadOp]);

/// The two-client throughput section's clients: threads that live for the
/// whole section (a fresh thread starts on a cold allocator arena) and pull
/// the ops of one block at a time from a shared counter.
pub struct Clients<'scope> {
    jobs: Vec<mpsc::Sender<Job<'scope>>>,
    done: mpsc::Receiver<usize>,
    next: &'scope AtomicUsize,
}

impl<'scope> Clients<'scope> {
    pub fn spawn<'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        next: &'scope AtomicUsize,
        clients: usize,
    ) -> Clients<'scope> {
        let (done_tx, done) = mpsc::channel();
        let jobs = (0..clients)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Job<'scope>>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    for (server, block) in rx {
                        let mut errors = 0;
                        while let Some(op) = block.get(next.fetch_add(1, Ordering::Relaxed)) {
                            errors += usize::from(server.serve(op, 0).is_err());
                        }
                        if done_tx.send(errors).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        Clients { jobs, done, next }
    }

    /// Runs `ops` in blocks of `block_ops`; returns `(ops, seconds)` per
    /// block and the number of failed requests.
    pub fn run(
        &self,
        server: &'scope Server<'scope>,
        ops: &'scope [ReadOp],
        block_ops: usize,
    ) -> (Vec<(f64, f64)>, usize) {
        let mut walls = Vec::new();
        let mut errors = 0;
        for block in ops.chunks(block_ops.max(1)) {
            self.next.store(0, Ordering::Relaxed);
            let t0 = Instant::now();
            for job in &self.jobs {
                job.send((server, block)).expect("clients live as long as their scope");
            }
            for _ in &self.jobs {
                errors += self.done.recv().expect("clients live as long as their scope");
            }
            walls.push((block.len() as f64, t0.elapsed().as_secs_f64()));
        }
        (walls, errors)
    }
}
