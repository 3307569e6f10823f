//! Fault-aware simulation with a per-packet **flight recorder**.
//!
//! [`run_with_faults`] is the oblivious unbounded-queue simulator
//! ([`crate::run`]) extended along two axes:
//!
//! * **static faults** — a [`FaultPlan`] marks nodes and links down.
//!   Packets are source-routed obliviously as usual; the first time a
//!   route would cross a faulty link, the remainder is recomputed by
//!   deterministic BFS over the survivor graph and spliced in (one
//!   splice suffices: the detour itself avoids every fault). All of
//!   that happens **once per distinct endpoint pair** in a
//!   [`RouteTable`] built up front — packets carry a `u32` slot, and
//!   reroute attribution is read from the table, never recomputed.
//!   Packets whose endpoints are down, or with no survivor path, are
//!   refused at injection and counted as stranded (packet conservation
//!   holds).
//! * **causal tracing** — under a [`TraceSampling`] policy, selected
//!   packets get a root span plus one child span per hop recording the
//!   node, link, queue depth on arrival, wait cycles, and the forward
//!   decision (`oblivious`, or `reroute` with the fault that caused it).
//!   Spans live in the attached [`hb_telemetry::Telemetry`] handle and
//!   render via `SpanTreeSink` or `ChromeTraceSink`.
//!
//! The run is the shared cycle kernel (DESIGN.md §16); this module adds
//! the flight observer, `Spans`, whose per-packet span state sits
//! in a side table keyed by packet-pool slot, so untraced runs move the
//! same 24-byte packets as every other engine. The recorder observes, it
//! never steers: with `telemetry: None` (or sampling off) the returned
//! [`SimStats`] are byte-identical.
//!
//! With `cfg.threads > 1` the run is sharded (same stats, byte for
//! byte) **unless** span tracing is live (trace-level handle and
//! sampling on): span ids are allocated in program order, so traced
//! runs stay serial to keep recordings deterministic.

use crate::faults::FaultPlan;
use crate::kernel::{self, Packet, Spec, Unbounded};
use crate::routes::{RouteSrc, RouteTable};
use crate::sim::{Injection, SimConfig, SimStats};
use crate::topology::NetTopology;
use hb_graphs::NodeId;
use hb_telemetry::{SpanId, Telemetry};
use std::collections::BTreeSet;

pub use crate::routes::{plan_route, survivor_route};

/// Which packets the flight recorder samples (requires a trace-level
/// telemetry handle; with summary/no telemetry nothing is recorded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceSampling {
    /// Record no packets.
    #[default]
    Off,
    /// Record every packet.
    All,
    /// Record packets whose injection id is divisible by `N` (1/N of
    /// traffic, deterministic). `EveryNth(0)` records nothing.
    EveryNth(u64),
    /// Record every packet whose route traverses a **faulty-adjacent**
    /// link (either endpoint hot per [`FaultPlan::hot_nodes`]) — the
    /// packets that detour around faults or queue next to them.
    FaultAdjacent,
}

impl TraceSampling {
    fn samples(self, id: u64, route: &[u32], hot: &HotSet) -> bool {
        match self {
            TraceSampling::Off => false,
            TraceSampling::All => true,
            TraceSampling::EveryNth(n) => n > 0 && id.is_multiple_of(n),
            TraceSampling::FaultAdjacent => route
                .windows(2)
                .any(|w| hot.is_hot(w[0] as NodeId) || hot.is_hot(w[1] as NodeId)),
        }
    }
}

/// Fault-adjacency mask for [`TraceSampling::FaultAdjacent`]: dense over
/// explicit graphs, a sparse id set over implicit topologies so memory
/// stays O(faults × degree) at million-node scale.
enum HotSet {
    Empty,
    Dense(Vec<bool>),
    Sparse(BTreeSet<NodeId>),
}

impl HotSet {
    #[inline]
    fn is_hot(&self, v: NodeId) -> bool {
        match self {
            HotSet::Empty => false,
            HotSet::Dense(mask) => mask[v],
            HotSet::Sparse(set) => set.contains(&v),
        }
    }
}

/// Span state of one packet-pool slot.
#[derive(Clone, Copy, Debug, Default)]
struct SpanState {
    /// Root span (`None` when unsampled or the span store filled up).
    root: Option<SpanId>,
    /// Open span of the hop currently being waited on / crossed.
    hop: Option<SpanId>,
    /// Cycle the packet joined its current channel queue.
    enqueued_at: u64,
}

/// The flight observer: sampled packets' causal span trees, kept in a
/// side table keyed by packet-pool slot.
pub(crate) struct Spans<'a> {
    routes: RouteSrc<'a>,
    sampling: TraceSampling,
    hot: HotSet,
    slots: Vec<SpanState>,
}

impl<'a> Spans<'a> {
    /// `hot_plan` seeds the [`TraceSampling::FaultAdjacent`] mask — for
    /// churn runs the union of the base plan and every timeline fault
    /// target, so a packet near *any* fault epoch is eligible.
    pub(crate) fn new(
        topo: &dyn NetTopology,
        sparse: bool,
        routes: RouteSrc<'a>,
        sampling: TraceSampling,
        hot_plan: &FaultPlan,
    ) -> Self {
        let hot = match (sampling, topo.explicit_graph()) {
            (TraceSampling::FaultAdjacent, Some(g)) if !sparse => {
                HotSet::Dense(hot_plan.hot_nodes(g))
            }
            (TraceSampling::FaultAdjacent, _) => HotSet::Sparse(hot_plan.hot_node_set(topo)),
            _ => HotSet::Empty,
        };
        Spans {
            routes,
            sampling,
            hot,
            slots: Vec::new(),
        }
    }

    fn slot(&mut self, key: u32) -> &mut SpanState {
        let i = key as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, SpanState::default());
        }
        &mut self.slots[i]
    }

    /// A packet was admitted: opens its root span if sampled, then its
    /// first hop span.
    pub(crate) fn enter(
        &mut self,
        t: &Telemetry,
        key: u32,
        p: &Packet,
        inj: Injection,
        detoured: bool,
        depth: usize,
    ) {
        let path = self.routes.path(p.route);
        let root = if self.sampling.samples(p.id, path, &self.hot) {
            let span = t.span_start(
                &format!("packet #{} {}->{}", p.id, inj.src, inj.dst),
                None,
                p.injected_at,
            );
            if detoured {
                t.span_attr(span, "rerouted", "true");
            }
            span
        } else {
            None
        };
        *self.slot(key) = SpanState {
            root,
            hop: None,
            enqueued_at: p.injected_at,
        };
        self.open_hop(t, key, p, p.injected_at, depth);
    }

    /// Opens the hop span for a sampled packet joining the channel of
    /// its next hop at `cycle` with `depth` packets ahead of it.
    pub(crate) fn open_hop(
        &mut self,
        t: &Telemetry,
        key: u32,
        p: &Packet,
        cycle: u64,
        depth: usize,
    ) {
        let (routes, st) = (self.routes, self.slot(key));
        if st.root.is_none() {
            return;
        }
        let path = routes.path(p.route);
        let (u, v) = (path[p.hop as usize], path[p.hop as usize + 1]);
        let span = t.span_start(&format!("hop {u}->{v}"), st.root, cycle);
        t.span_attr(span, "node", u.to_string());
        t.span_attr(span, "link", format!("{u}->{v}"));
        t.span_attr(span, "queue", depth.to_string());
        match routes.detour(p.route) {
            Some((at, reason)) if at == p.hop => {
                t.span_attr(span, "decision", "reroute");
                t.span_attr(span, "reason", reason.to_string());
            }
            _ => t.span_attr(span, "decision", "oblivious"),
        }
        st.hop = span;
        st.enqueued_at = cycle;
    }

    /// The packet crossed its link during `cycle`: closes the hop span.
    pub(crate) fn close_hop(&mut self, t: &Telemetry, key: u32, cycle: u64) {
        let st = self.slot(key);
        if st.hop.is_some() {
            // Cycles queued beyond the 1-cycle link transit.
            t.span_attr(st.hop, "wait", (cycle - st.enqueued_at).to_string());
            t.span_end(st.hop, cycle + 1);
            st.hop = None;
        }
    }

    /// The packet arrived at `end`: closes its root span.
    pub(crate) fn finish(&mut self, t: &Telemetry, key: u32, p: &Packet, latency: u64, end: u64) {
        let root = self.slot(key).root;
        if root.is_some() {
            t.span_attr(root, "latency", latency.to_string());
            t.span_attr(root, "hops", p.hop.to_string());
            t.span_end(root, end);
        }
    }
}

/// Runs the oblivious simulation of `injections` (sorted by `at`) on
/// `topo` with the given static faults, flight-recording sampled packets
/// into `cfg.telemetry` (trace level). See the module docs for the
/// model; with an empty plan the dynamics — and the returned
/// [`SimStats`] — match [`crate::run`] exactly.
///
/// Beyond the base counters, a telemetry handle also receives
/// `sim.reroutes` (packets that detoured) and `sim.unroutable` (packets
/// refused at injection: faulty endpoint or no survivor path).
///
/// # Panics
/// As [`crate::run`] (unsorted injections, out-of-range nodes).
pub fn run_with_faults(
    topo: &dyn NetTopology,
    injections: &[Injection],
    cfg: SimConfig,
    plan: &FaultPlan,
    sampling: TraceSampling,
) -> SimStats {
    let table = RouteTable::for_injections(topo, injections, plan);
    let spec = flight_spec(topo, injections, &cfg, plan, sampling);
    kernel::routed(spec, RouteSrc::Table(&table), Unbounded, None)
}

/// The fault-aware runner's spec: fault counters and series, plus span
/// sampling seeded from `hot_plan`.
pub(crate) fn flight_spec<'a>(
    topo: &'a dyn NetTopology,
    injections: &'a [Injection],
    cfg: &'a SimConfig,
    hot_plan: &'a FaultPlan,
    sampling: TraceSampling,
) -> Spec<'a> {
    Spec {
        flight: Some((sampling, hot_plan)),
        ..Spec::new(topo, injections, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run;
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet};
    use crate::workload;

    fn hb_net() -> HyperButterflyNet {
        HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap()
    }

    #[test]
    fn empty_plan_matches_plain_run_exactly() {
        let t = hb_net();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.2, 11);
        let base = run(&t, &traffic, SimConfig::default());
        let faulted = run_with_faults(
            &t,
            &traffic,
            SimConfig::default(),
            &FaultPlan::new(),
            TraceSampling::Off,
        );
        assert_eq!(base, faulted);
    }

    #[test]
    fn timeseries_tracks_reroutes_in_faulted_runs() {
        let t = HypercubeNet::new(4).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1).add_node(7);
        let traffic = workload::uniform(t.num_nodes(), 40, 0.3, 9);
        let tel = Telemetry::summary();
        tel.enable_timeseries(hb_telemetry::TsConfig::new(5));
        let s = run_with_faults(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel.clone()),
            &plan,
            TraceSampling::Off,
        );
        let series = tel.series();
        assert_eq!(series["sim.injected"].total(), s.offered);
        assert_eq!(series["sim.delivered"].total(), s.delivered);
        // Windowed reroute/unroutable series reconcile with the run
        // counters exactly.
        assert_eq!(
            series["sim.reroutes"].total(),
            tel.counter("sim.reroutes").get()
        );
        assert_eq!(
            series["sim.unroutable"].total(),
            tel.counter("sim.unroutable").get()
        );
    }

    #[test]
    fn tracing_does_not_perturb_stats() {
        let t = hb_net();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.2, 11);
        let mut plan = FaultPlan::new();
        plan.add_node(5).add_link(0, 1);
        let off = run_with_faults(
            &t,
            &traffic,
            SimConfig::default(),
            &plan,
            TraceSampling::Off,
        );
        let tel = Telemetry::with_trace(65_536);
        let on = run_with_faults(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel.clone()),
            &plan,
            TraceSampling::All,
        );
        assert_eq!(off, on, "the recorder observes, it never steers");
        assert!(!tel.spans().is_empty());
        // Summary-level telemetry records counters but no spans.
        let sum = Telemetry::summary();
        let s = run_with_faults(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(sum.clone()),
            &plan,
            TraceSampling::All,
        );
        assert_eq!(off, s);
        assert!(sum.spans().is_empty());
        assert_eq!(sum.counter("sim.delivered").get(), s.delivered);
    }

    #[test]
    fn packets_detour_around_a_cut_link() {
        // Hypercube 0 -> 15 routes dimension-ordered 0,1,3,7,15; cut the
        // first link and the packet must detour yet still arrive.
        let t = HypercubeNet::new(4).unwrap();
        let base_route = t.route(0, 15);
        assert_eq!(base_route, vec![0, 1, 3, 7, 15]);
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        let inj = [Injection {
            src: 0,
            dst: 15,
            at: 0,
        }];
        let tel = Telemetry::with_trace(256);
        let s = run_with_faults(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &plan,
            TraceSampling::All,
        );
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stranded, 0);
        assert_eq!(tel.counter("sim.reroutes").get(), 1);
        // The detour is minimal in the survivor graph: still 4 hops via
        // another dimension order.
        assert_eq!(s.avg_hops, 4.0);
        // The reroute hop span carries the attribution.
        let spans = tel.spans();
        let reroute_hop = spans
            .iter()
            .find(|sp| sp.attr("decision") == Some("reroute"))
            .expect("a reroute hop span");
        assert_eq!(reroute_hop.attr("reason"), Some("link 0-1 faulty"));
        assert_eq!(reroute_hop.attr("node"), Some("0"));
    }

    #[test]
    fn detour_can_lengthen_mid_route() {
        // Cut a link in the middle of the dimension-ordered path: the
        // healthy prefix is flown, then the detour splices in.
        let t = HypercubeNet::new(4).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(3, 7); // third hop of 0,1,3,7,15
        let inj = [Injection {
            src: 0,
            dst: 15,
            at: 0,
        }];
        let tel = Telemetry::with_trace(256);
        let s = run_with_faults(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &plan,
            TraceSampling::All,
        );
        assert_eq!(s.delivered, 1);
        let spans = tel.spans();
        let root = &spans[0];
        assert_eq!(root.attr("rerouted"), Some("true"));
        let hops: Vec<_> = spans
            .iter()
            .filter(|sp| sp.parent == Some(root.id))
            .collect();
        // Prefix 0->1->3 is oblivious; the detour starts at node 3.
        assert_eq!(hops[0].attr("decision"), Some("oblivious"));
        assert_eq!(hops[1].attr("decision"), Some("oblivious"));
        assert_eq!(hops[2].attr("decision"), Some("reroute"));
        assert_eq!(hops[2].attr("reason"), Some("link 3-7 faulty"));
        assert_eq!(hops[2].attr("node"), Some("3"));
    }

    #[test]
    fn unroutable_packets_strand_and_conserve() {
        let t = HypercubeNet::new(3).unwrap();
        let mut plan = FaultPlan::new();
        // Isolate node 7 (neighbors 3, 5, 6): nothing can reach it.
        plan.add_link(7, 3).add_link(7, 5).add_link(7, 6);
        let inj = [
            Injection {
                src: 0,
                dst: 7,
                at: 0,
            },
            Injection {
                src: 0,
                dst: 2,
                at: 0,
            },
        ];
        let tel = Telemetry::summary();
        let s = run_with_faults(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &plan,
            TraceSampling::Off,
        );
        assert_eq!(s.delivered, 1);
        assert_eq!(s.stranded, 1);
        assert_eq!(s.delivered + s.stranded, s.offered);
        assert_eq!(tel.counter("sim.unroutable").get(), 1);

        // Faulty endpoints are refused outright.
        let mut p2 = FaultPlan::new();
        p2.add_node(0);
        let s2 = run_with_faults(&t, &inj, SimConfig::default(), &p2, TraceSampling::Off);
        assert_eq!(s2.delivered, 0);
        assert_eq!(s2.stranded, 2);
    }

    #[test]
    fn every_nth_sampling_selects_exactly_one_in_n() {
        let t = hb_net();
        let n = t.num_nodes();
        let inj: Vec<Injection> = (0..20)
            .map(|i| Injection {
                src: i % n,
                dst: (i * 7 + 3) % n,
                at: 0,
            })
            .collect();
        let tel = Telemetry::with_trace(4096);
        run_with_faults(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &FaultPlan::new(),
            TraceSampling::EveryNth(5),
        );
        let roots: Vec<_> = tel
            .spans()
            .into_iter()
            .filter(|sp| sp.parent.is_none())
            .collect();
        // Ids 0, 5, 10, 15 — minus any self-deliveries, which never
        // enter a queue. Root names embed the id, so check the set.
        for r in &roots {
            let id: u64 = r
                .name
                .strip_prefix("packet #")
                .and_then(|rest| rest.split(' ').next())
                .and_then(|s| s.parse().ok())
                .expect("root span names carry the id");
            assert_eq!(id % 5, 0, "{}", r.name);
        }
        assert!(!roots.is_empty());
    }

    #[test]
    fn fault_adjacent_sampling_records_only_nearby_flights() {
        let t = HypercubeNet::new(4).unwrap();
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1);
        // One packet detours around the cut; one flies far from it.
        let inj = [
            Injection {
                src: 0,
                dst: 15,
                at: 0,
            },
            Injection {
                src: 12,
                dst: 14,
                at: 0,
            },
        ];
        let tel = Telemetry::with_trace(256);
        let s = run_with_faults(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &plan,
            TraceSampling::FaultAdjacent,
        );
        assert_eq!(s.delivered, 2);
        let roots: Vec<_> = tel
            .spans()
            .into_iter()
            .filter(|sp| sp.parent.is_none())
            .collect();
        assert_eq!(roots.len(), 1, "only the near-fault flight is sampled");
        assert!(roots[0].name.starts_with("packet #0 "));
        assert_eq!(roots[0].attr("rerouted"), Some("true"));
    }

    #[test]
    fn hop_spans_record_queue_depth_and_wait() {
        // Two packets on the same first channel: the second sees queue
        // depth 1 on arrival and waits one cycle.
        let t = HypercubeNet::new(3).unwrap();
        let inj = [
            Injection {
                src: 0,
                dst: 1,
                at: 0,
            },
            Injection {
                src: 0,
                dst: 1,
                at: 0,
            },
        ];
        let tel = Telemetry::with_trace(64);
        run_with_faults(
            &t,
            &inj,
            SimConfig::default().with_telemetry(tel.clone()),
            &FaultPlan::new(),
            TraceSampling::All,
        );
        let spans = tel.spans();
        let second_hop = spans
            .iter()
            .find(|sp| sp.parent.is_some() && sp.attr("queue") == Some("1"))
            .expect("queued hop span");
        assert_eq!(second_hop.attr("wait"), Some("1"));
        assert_eq!(second_hop.duration(), 2); // 1 wait + 1 transit
        let first_hop = spans
            .iter()
            .find(|sp| sp.parent.is_some() && sp.attr("queue") == Some("0"))
            .expect("unqueued hop span");
        assert_eq!(first_hop.attr("wait"), Some("0"));
        assert_eq!(first_hop.duration(), 1);
    }

    #[test]
    fn survivor_route_avoids_all_faults() {
        let t = hb_net();
        let g = t.graph();
        let mut plan = FaultPlan::new();
        plan.add_node(1).add_link(0, 2);
        for dst in [3usize, 17, 40] {
            let r = survivor_route(g, 0, dst, &plan).expect("still connected");
            assert_eq!(r[0], 0);
            assert_eq!(*r.last().unwrap(), dst);
            for w in r.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
                assert!(!plan.is_link_faulty(w[0], w[1]));
            }
        }
    }
}
