//! Correctness checks, each against a computation made apart from the
//! program (the benchmark's own BFS and fault record) or a property the
//! method must have.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use hb_netsim::topology::NetTopology;
use hb_netsim::{
    FaultEventKind, FaultPlan, FaultTarget, FaultTimeline, Injection, RouteCache, RouteTable,
    SimStats, MAX_PRODUCTIVE,
};

use crate::setup::{Inputs, SplitMix, Workload};

/// Failed checks of one run, in the order they were made.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// (a) Packet conservation against the benchmark's own injection
    /// count, with every packet delivered; (c) latency ordering and the
    /// run outlasting the last injection.
    pub fn stats(&mut self, stats: &SimStats, injections: &[Injection]) {
        let offered = injections.len() as u64;
        self.expect(stats.offered == offered, || {
            format!("offered {} != {offered} generated", stats.offered)
        });
        self.expect(stats.delivered + stats.stranded == stats.offered, || {
            format!(
                "conservation: delivered {} + stranded {} != offered {}",
                stats.delivered, stats.stranded, stats.offered
            )
        });
        self.expect(stats.delivered == offered, || {
            format!("delivered {} of {offered}", stats.delivered)
        });
        self.expect(
            stats.avg_latency >= stats.avg_hops && stats.avg_hops >= 1.0,
            || {
                format!(
                    "avg_latency {} >= avg_hops {} >= 1 fails",
                    stats.avg_latency, stats.avg_hops
                )
            },
        );
        let last_at = injections.last().map_or(0, |i| i.at);
        self.expect(stats.cycles > last_at, || {
            format!(
                "sim cycles {} <= last injection cycle {last_at}",
                stats.cycles
            )
        });
    }

    /// The route checks of every run: (b), plus (e) under static faults.
    /// (The churn workload's (e) comes with the timeline replay.)
    pub fn routes(&mut self, inp: &Inputs, w: Workload, seed: u64) {
        // Each BFS is O(nodes): the million-node topology gets fewer.
        let sources = if w == Workload::Frontier { 1 } else { 32 };
        self.shortest_routes(inp, sources, seed);
        if w == Workload::Report {
            self.static_fault_routes(inp);
        }
    }

    /// (b) On a seeded sample of fault-free pairs, each stored route is a
    /// walk over graph edges whose length equals the BFS distance.
    /// `sources` bounds the BFS count (each BFS is O(nodes)).
    fn shortest_routes(&mut self, inp: &Inputs, sources: usize, seed: u64) {
        let topo = &*inp.topo;
        let mut rng = SplitMix::new(seed ^ 0x5eed_b0f5);
        let mut by_src: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        while by_src.len() < sources.min(inp.injections.len()) {
            let i = &inp.injections[rng.below(inp.injections.len())];
            by_src.entry(i.src).or_default().push(i.dst);
        }
        // A few more destinations per source, drawn from the workload.
        for dsts in by_src.values_mut() {
            for _ in 0..4 {
                dsts.push(inp.injections[rng.below(inp.injections.len())].dst);
            }
        }
        let pairs: Vec<(usize, usize)> = by_src
            .iter()
            .flat_map(|(&s, ds)| ds.iter().map(move |&d| (s, d)))
            .collect();
        let table = RouteTable::build(topo, pairs.iter().copied(), &FaultPlan::new());
        for (&src, dsts) in &by_src {
            let dist = bfs(topo, src, dsts);
            for (&dst, &d) in dsts.iter().zip(&dist) {
                let slot = table.slot(src, dst).expect("pair is in the build set");
                let path = table.path(slot);
                self.walk(topo, path, src, dst);
                self.expect(path.len() as u64 == u64::from(d) + 1, || {
                    format!(
                        "route {src}->{dst} has {} hops, BFS distance {d}",
                        path.len().saturating_sub(1)
                    )
                });
            }
        }
    }

    /// A stored route starts at `src`, ends at `dst` and steps over edges.
    fn walk(&mut self, topo: &dyn NetTopology, path: &[u32], src: usize, dst: usize) {
        self.expect(
            path.first() == Some(&(src as u32)) && path.last() == Some(&(dst as u32)),
            || format!("route {src}->{dst} has the wrong endpoints: {path:?}"),
        );
        let mut buf = [0usize; MAX_PRODUCTIVE];
        for hop in path.windows(2) {
            let k = topo.neighbors_into(hop[0] as usize, &mut buf);
            self.expect(buf[..k].contains(&(hop[1] as usize)), || {
                format!(
                    "route {src}->{dst} steps over a non-edge {}-{}",
                    hop[0], hop[1]
                )
            });
        }
    }

    /// (e) for static faults: every stored route of the workload, built
    /// under the plan as the engine builds it, is a walk that crosses no
    /// faulted link.
    fn static_fault_routes(&mut self, inp: &Inputs) {
        let topo = &*inp.topo;
        let table = RouteTable::for_injections(topo, &inp.injections, &inp.plan);
        let mut checked = BTreeSet::new();
        for inj in &inp.injections {
            let slot = table.slot(inj.src, inj.dst).expect("pair is in the table");
            if checked.insert(slot) {
                self.admitted_route(inp, table.path(slot), inj);
            }
        }
    }

    /// (e) for one admitted route: a walk from source to destination that
    /// crosses no link the benchmark's own record has down at `inj.at`.
    pub fn admitted_route(&mut self, inp: &Inputs, path: &[u32], inj: &Injection) {
        self.walk(&*inp.topo, path, inj.src, inj.dst);
        for hop in path.windows(2) {
            let (a, b) = (hop[0] as usize, hop[1] as usize);
            self.expect(
                !inp.link_faults.iter().any(|f| f.covers(a, b, inj.at)),
                || {
                    format!(
                        "route {}->{} admitted at cycle {} crosses faulted link {a}-{b}",
                        inj.src, inj.dst, inj.at
                    )
                },
            );
        }
    }
}

/// BFS distances from `src` to each of `dsts`, stopping once all are
/// settled. Walks `neighbors_into`, so it needs no materialised graph.
fn bfs(topo: &dyn NetTopology, src: usize, dsts: &[usize]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; topo.num_nodes()];
    let mut left = dsts.iter().filter(|&&d| d != src).count();
    dist[src] = 0;
    let mut frontier = vec![src];
    let mut next = Vec::new();
    let mut buf = [0usize; MAX_PRODUCTIVE];
    let mut level = 0;
    while left > 0 && !frontier.is_empty() {
        level += 1;
        for &u in &frontier {
            let k = topo.neighbors_into(u, &mut buf);
            for &v in &buf[..k] {
                if dist[v] == u32::MAX {
                    dist[v] = level;
                    next.push(v);
                    left -= dsts.iter().filter(|&&d| d == v).count();
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dsts.iter().map(|&d| dist[d]).collect()
}

/// What replaying a fault timeline through the public route cache found
/// and cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub repair_s: f64,
    pub resolve_s: f64,
    pub deltas: u64,
    pub scanned: u64,
    pub respliced: u64,
}

/// Replays `inp.timeline` against the injection schedule with
/// `RouteCache::repair` between admissions and `RouteCache::resolve` per
/// admission, mirroring how the churn engines compile a timeline: events
/// at cycle `c` apply before the injections of cycle `c`, one repair per
/// event cycle that changes the plan. The first repair installs the base
/// plan. Checks (e) on every admitted route, outside the timed spans.
pub fn replay_timeline(inp: &Inputs, checks: &mut Checks) -> Replay {
    let topo = &*inp.topo;
    let events = inp.timeline.events();
    let injections = &inp.injections;
    let mut plan = inp.plan.clone();
    let mut cache = RouteCache::new();
    let mut out = Replay::default();
    timed_repair(&mut cache, topo, &plan, &mut out);
    let mut next = 0;
    let mut seg = 0;
    let mut slots = Vec::new();
    while seg < injections.len() {
        // One segment: the admissions before the next event cycle.
        let end = match events.get(next) {
            Some(ev) => seg + injections[seg..].partition_point(|i| i.at < ev.cycle),
            None => injections.len(),
        };
        let t = Instant::now();
        slots.clear();
        slots.extend(
            injections[seg..end]
                .iter()
                .map(|i| cache.resolve(topo, i.src, i.dst)),
        );
        out.resolve_s += t.elapsed().as_secs_f64();
        for (inj, &slot) in injections[seg..end].iter().zip(&slots) {
            checks.admitted_route(inp, cache.path(slot), inj);
        }
        seg = end;
        if let Some(at) = injections.get(seg).map(|i| i.at) {
            while next < events.len() && events[next].cycle <= at {
                let cycle = events[next].cycle;
                while next < events.len() && events[next].cycle == cycle {
                    apply(&mut plan, &inp.timeline, next);
                    next += 1;
                }
                if cache.plan() != &plan {
                    out.deltas += 1;
                    timed_repair(&mut cache, topo, &plan, &mut out);
                }
            }
        }
    }
    out
}

/// Times one `RouteCache::repair` call and adds its cost to `out`.
fn timed_repair(
    cache: &mut RouteCache,
    topo: &dyn NetTopology,
    plan: &FaultPlan,
    out: &mut Replay,
) {
    let t = Instant::now();
    let stats = cache.repair(topo, plan);
    out.repair_s += t.elapsed().as_secs_f64();
    out.scanned += stats.scanned;
    out.respliced += stats.respliced;
}

/// Applies timeline event `idx` to `plan`.
fn apply(plan: &mut FaultPlan, timeline: &FaultTimeline, idx: usize) {
    let ev = &timeline.events()[idx];
    match (ev.kind, ev.target) {
        (FaultEventKind::Fault, FaultTarget::Node(v)) => {
            plan.add_node(v);
        }
        (FaultEventKind::Fault, FaultTarget::Link(u, v)) => {
            plan.add_link(u, v);
        }
        (FaultEventKind::Repair, FaultTarget::Node(v)) => {
            plan.remove_node(v);
        }
        (FaultEventKind::Repair, FaultTarget::Link(u, v)) => {
            plan.remove_link(u, v);
        }
    }
}
