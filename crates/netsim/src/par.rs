//! Sharded execution of the cycle kernel: shard boundaries, the
//! mailbox exchange, and the in-order merge (DESIGN.md §9, §16).
//!
//! A run with `cfg.threads > 1` splits the network into node-aligned
//! contiguous shards and runs [`crate::kernel::shard_loop`] on each, on
//! scoped threads; a serial run is the same kernel on one shard with
//! the [`Solo`] exchange. Results are **byte identical** at every thread
//! count — stats, counters, histograms, link stats, series, profiles and
//! trace events — because of three invariants:
//!
//! 1. **Node-aligned contiguous shards.** Shard `k` owns the channel
//!    range `[chan_lo[k], chan_lo[k+1])` induced by a node range, so a
//!    packet's current channel belongs to exactly one shard, and an
//!    injection's first channel to the shard owning its source.
//! 2. **Canonical service order.** Each shard serves its own channels in
//!    ascending id, exactly the serial order restricted to the range;
//!    per-channel effects are independent given queue contents.
//! 3. **Ordered cross-shard delivery.** The only coupling is the FIFO
//!    order in which same-cycle movers land on a shared target queue —
//!    ascending *source* channel in the serial loop. Shards post movers
//!    in service order to one mailbox per receiver, and receivers drain
//!    mailboxes in sender order, which reproduces that order.
//!
//! Cycle protocol: each shard admits and serves, posts its movers and
//! publishes its [`Tally`]; a barrier; every shard sums the tallies to
//! the same network view (the drain decision, and shard 0's network
//! series); each shard lands its movers; a second barrier.
//!
//! After the join, shards merge in shard order with exact integer
//! arithmetic. Traced sharded runs keep at most the trace capacity per
//! shard, in a drop-oldest [`crate::kernel::EventRing`]; shard events are already in
//! `(cycle, phase, key)` order, so a k-way merge of the rings replays the
//! network's newest events in serial emission order, and the discarded
//! counts keep `events_dropped` exact.

use crate::kernel::{
    shard_loop, Exchange, Observer, Packet, ProfCounters, Queueing, Recorder, Routing, Run,
    ShardOut, Solo, Tally, Trace,
};
use crate::sim::{ChanLayout, SimStats};
use hb_telemetry::{LinkStats, Telemetry, CYCLES_COUNTER};
use std::sync::{Barrier, Mutex};

/// Shard owning channel `ch` under boundaries `chan_lo` (last entry =
/// total channels; repeated entries denote empty shards).
fn shard_of(chan_lo: &[usize], ch: usize) -> usize {
    chan_lo.partition_point(|&c| c <= ch) - 1
}

/// Node-aligned shard boundaries balancing *channels* across `s`
/// shards: `node_lo[k]` is the first node whose first channel reaches
/// `k/s` of the channel total. Under the arithmetic layout the CSR
/// search degenerates to `ceil(target / degree)`, so both layouts cut
/// at identical points.
pub(crate) fn shard_boundaries(layout: &ChanLayout<'_>, n: usize, s: usize) -> Vec<usize> {
    let total = layout.num_channels();
    let mut node_lo = vec![0usize; s + 1];
    node_lo[s] = n;
    for (k, lo) in node_lo.iter_mut().enumerate().take(s).skip(1) {
        let target = k * total / s;
        *lo = match layout {
            ChanLayout::Csr { offsets, .. } => offsets.partition_point(|&o| o < target),
            ChanLayout::Uniform { degree, .. } => target.div_ceil(*degree),
        }
        .min(n);
    }
    node_lo
}

/// Movers one shard sends another in one cycle, with their target
/// channel: one writer, then (after a barrier) one reader.
type Mailbox = Mutex<Vec<(usize, Packet)>>;

/// The sharded exchange: a mailbox per (sender, receiver), written in
/// one phase and drained in the next with a barrier between, plus one
/// tally slot per shard.
struct Mailboxes<'a> {
    chan_lo: &'a [usize],
    barrier: Barrier,
    boxes: Vec<Vec<Mailbox>>,
    tallies: Vec<Mutex<Tally>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("invariant: exchange mutexes unpoisoned (holders never panic)")
}

impl Exchange for Mailboxes<'_> {
    const SHARDED: bool = true;

    fn shards(&self) -> usize {
        self.boxes.len()
    }

    fn owner(&self, ch: usize) -> usize {
        shard_of(self.chan_lo, ch)
    }

    fn sync(&self, k: usize, mine: Tally) -> Tally {
        *lock(&self.tallies[k]) = mine;
        self.barrier.wait();
        self.tallies
            .iter()
            .fold(Tally::default(), |net, t| net.plus(*lock(t)))
    }

    fn post(&self, from: usize, to: usize, out: &mut Vec<(usize, Packet)>) {
        lock(&self.boxes[from][to]).append(out);
    }

    fn take(&self, from: usize, to: usize, inbox: &mut Vec<(usize, Packet)>) {
        std::mem::swap(&mut *lock(&self.boxes[from][to]), inbox);
    }

    fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Runs every shard of `run`: in place for one, on scoped threads for
/// several. Results come back in shard order.
pub(crate) fn drive<R: Routing, Q: Queueing, O: Observer + Send>(
    run: &Run<'_>,
    routing: &R,
    queueing: &Q,
    make: impl Fn(usize) -> O + Sync,
) -> Vec<ShardOut<O>> {
    if !run.sharded {
        return vec![shard_loop(run, routing, queueing, 0, make(0), &Solo)];
    }
    let s = run.chan_lo.len() - 1;
    let x = Mailboxes {
        chan_lo: &run.chan_lo,
        barrier: Barrier::new(s),
        boxes: (0..s)
            .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        tallies: (0..s).map(|_| Mutex::new(Tally::default())).collect(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..s)
            .map(|k| {
                let (x, make) = (&x, &make);
                scope.spawn(move || shard_loop(run, routing, queueing, k, make(k), x))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().expect(
                    "invariant: shard workers never panic (any panic here is a bug to surface)",
                )
            })
            .collect()
    })
}

fn net_tally<O>(outs: &[ShardOut<O>]) -> Tally {
    outs.iter().fold(Tally::default(), |a, o| a.plus(o.tally))
}

/// The run's [`SimStats`], summed over shards in shard order.
pub(crate) fn merge_stats<O>(run: &Run<'_>, outs: &[ShardOut<O>]) -> SimStats {
    let total = run.spec.injections.len() as u64;
    let net = net_tally(outs);
    let mut stats = SimStats {
        offered: total,
        delivered: net.delivered,
        // Refused, still in flight, or never injected (the cycle limit
        // came first): delivered + stranded == offered.
        stranded: net.dropped
            + net.unroutable
            + (net.entered - net.exited)
            + (total - net.consumed),
        ..SimStats::default()
    };
    let (mut latency_sum, mut hops_sum) = (0u64, 0u64);
    for o in outs {
        stats.max_latency = stats.max_latency.max(o.max_latency);
        stats.peak_queue = stats.peak_queue.max(o.peak_queue);
        stats.cycles = stats.cycles.max(o.cycles);
        latency_sum += o.latency_sum;
        hops_sum += o.hops_sum;
    }
    if net.exited > 0 {
        // analyze: allow(float-determinism, one division over exact integer totals at run end)
        stats.avg_latency = latency_sum as f64 / net.exited as f64;
        // analyze: allow(float-determinism, one division over exact integer totals at run end)
        stats.avg_hops = hops_sum as f64 / net.exited as f64;
    }
    debug_assert_eq!(
        stats.delivered + stats.stranded,
        stats.offered,
        "packet conservation"
    );
    stats
}

/// Replays the shards' trace rings into `tel` by a k-way merge on
/// `(cycle, phase, key)` (keys are unique across shards; a shard's own
/// ties keep its emission order), then counts what the rings discarded.
fn replay_events(tel: &Telemetry, outs: &mut [ShardOut<Recorder<'_>>]) {
    let mut rings: Vec<_> = outs
        .iter_mut()
        .filter_map(|o| match &mut o.obs.trace {
            Trace::Ring(r) => Some(r),
            _ => None,
        })
        .collect();
    let discarded = rings.iter().map(|r| r.discarded).sum();
    while let Some((_, i)) = rings
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.buf.front().map(|e| ((e.0, e.1, e.2), i)))
        .min()
    {
        if let Some((.., ev)) = rings[i].buf.pop_front() {
            tel.event(|| ev);
        }
    }
    tel.count_dropped_events(discarded);
}

/// Merges the shards' recorders into `tel` in shard order, then runs
/// congestion detection once.
pub(crate) fn merge_telemetry(
    run: &Run<'_>,
    tel: &Telemetry,
    mut outs: Vec<ShardOut<Recorder<'_>>>,
    stats: &SimStats,
) {
    let cfg = run.spec.cfg;
    let net = net_tally(&outs);
    if cfg.profile {
        let mut prof = ProfCounters::default();
        for o in &outs {
            prof.absorb(&o.obs.prof);
        }
        prof.finish(tel, run.route_build);
    }
    replay_events(tel, &mut outs);
    if run.dropped {
        tel.counter("sim.dropped").add(net.dropped);
    }
    if run.spec.flight.is_some() {
        tel.counter("sim.reroutes").add(net.reroutes);
    }
    if run.unroutable {
        tel.counter("sim.unroutable").add(net.unroutable);
    }
    tel.counter("sim.offered").add(stats.offered);
    tel.counter("sim.delivered").add(stats.delivered);
    tel.counter("sim.stranded").add(stats.stranded);
    tel.counter(CYCLES_COUNTER).add(stats.cycles);
    let mut ls = LinkStats::new();
    for r in outs.iter().map(|o| &o.obs) {
        tel.merge_histogram("sim.latency", &r.latency);
        tel.merge_histogram("sim.hops", &r.hops);
        for (i, &(from, to)) in run.ends[r.base..r.base + r.fwd.len()].iter().enumerate() {
            if r.fwd[i] > 0 {
                ls.record_forward(from, to, r.fwd[i]);
            }
            if r.busy[i] > 0 {
                ls.record_busy(from, to, r.busy[i]);
            }
            if r.peak[i] > 0 {
                ls.observe_queue(from, to, r.peak[i]);
            }
        }
    }
    tel.merge_links(&ls);
    if run.sharded && cfg.shard_telemetry {
        for (k, o) in outs.iter().enumerate() {
            let (delivered, forwarded) = (o.tally.delivered, o.obs.fwd.iter().sum());
            tel.counter(&format!("sim.shard.{k}.delivered"))
                .add(delivered);
            tel.counter(&format!("sim.shard.{k}.forwarded"))
                .add(forwarded);
            let span = tel.span_start(&format!("shard {k}"), None, 0);
            let nodes = format!("{}..{}", run.node_lo[k], run.node_lo[k + 1]);
            tel.span_attr(span, "nodes", nodes);
            let channels = format!("{}..{}", run.chan_lo[k], run.chan_lo[k + 1]);
            tel.span_attr(span, "channels", channels);
            tel.span_attr(span, "delivered", delivered.to_string());
            tel.span_end(span, stats.cycles);
        }
    }
    // The series store is name-ordered, so merge order is immaterial;
    // detection runs once, after every series landed.
    for (k, o) in outs.into_iter().enumerate() {
        let r = o.obs;
        if let Some(lt) = r.links {
            lt.merge_into(tel, &run.ends);
        }
        if let Some((gt, _)) = r.globals {
            gt.merge_into(tel);
        }
        if let Some(mb) = r.mailbox {
            tel.merge_series(&format!("sim.shard.{k}.mailbox"), mb);
        }
    }
    tel.detect_congestion(stats.cycles);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::flight::{run_with_faults, TraceSampling};
    use crate::sim::{run, SimConfig};
    use crate::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet, NetTopology};
    use crate::workload;

    #[test]
    fn shard_boundaries_are_node_aligned_and_cover_all_channels() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let n = t.num_nodes();
        for implicit in [false, true] {
            let layout = ChanLayout::new(&t, implicit);
            let total = layout.num_channels();
            for s in [1, 2, 3, 4, 7, 16] {
                let node_lo = shard_boundaries(&layout, n, s);
                assert_eq!(node_lo[0], 0);
                assert_eq!(node_lo[s], n);
                assert!(node_lo.windows(2).all(|w| w[0] <= w[1]));
                let chan_lo: Vec<usize> = node_lo
                    .iter()
                    .map(|&v| layout.node_first_channel(v))
                    .collect();
                // Every channel belongs to exactly the shard that owns
                // its tail node.
                for ch in [0usize, 1, total / 2, total - 1] {
                    let k = shard_of(&chan_lo, ch);
                    assert!(chan_lo[k] <= ch && ch < chan_lo[k + 1]);
                }
            }
        }
    }

    #[test]
    fn sharded_trace_rings_hold_at_most_capacity_and_merge_exactly() {
        use crate::kernel::{Recorder, Routed, Spec, Trace, Unbounded};
        use crate::routes::{RouteSrc, RouteTable};
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 40, 0.5, 17);
        let cap = 16;
        let serial_tel = Telemetry::with_trace(cap);
        let cfg = SimConfig::default().with_telemetry(serial_tel.clone());
        let serial = run(&t, &traffic, cfg);

        // Drive the four shards directly so their rings can be inspected
        // before the merge.
        let tel = Telemetry::with_trace(cap);
        let cfg = SimConfig::default()
            .with_telemetry(tel.clone())
            .with_threads(4);
        let table = RouteTable::for_injections(&t, &traffic, &FaultPlan::new());
        let layout = ChanLayout::new(&t, false);
        let routing = Routed {
            routes: RouteSrc::Table(&table),
            layout: &layout,
        };
        let spec = Spec::new(&t, &traffic, &cfg);
        let r = Run::new(&spec, &layout, &routing, &Unbounded);
        assert_eq!(r.chan_lo.len(), 5, "four shards");
        let outs = drive(&r, &routing, &Unbounded, |k| {
            Recorder::new(&r, &tel, k, None)
        });
        let mut emitted = 0;
        for o in &outs {
            let Trace::Ring(ring) = &o.obs.trace else {
                panic!("sharded trace runs buffer events in rings");
            };
            assert!(ring.buf.len() <= cap, "ring over capacity");
            emitted += ring.buf.len() as u64 + ring.discarded;
        }
        assert!(emitted > 4 * cap as u64, "every ring budget overflows");
        let stats = merge_stats(&r, &outs);
        merge_telemetry(&r, &tel, outs, &stats);
        assert_eq!(stats, serial);
        assert_eq!(tel.events(), serial_tel.events(), "the newest events");
        assert_eq!(
            tel.snapshot().events_dropped,
            serial_tel.snapshot().events_dropped
        );
    }

    #[test]
    fn sharded_stats_match_serial_on_hb() {
        let t = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 80, 0.3, 13);
        let serial = run(&t, &traffic, SimConfig::default());
        for threads in [2, 3, 4, 8] {
            let par = run(&t, &traffic, SimConfig::default().with_threads(threads));
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn sharded_faulted_run_matches_serial_including_counters() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 40, 0.4, 5);
        let mut plan = FaultPlan::new();
        plan.add_link(0, 1).add_node(9);
        let serial = run_with_faults(
            &t,
            &traffic,
            SimConfig::default(),
            &plan,
            TraceSampling::Off,
        );
        let tel_s = Telemetry::summary();
        run_with_faults(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel_s.clone()),
            &plan,
            TraceSampling::Off,
        );
        let tel_p = Telemetry::summary();
        let par = run_with_faults(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel_p.clone())
                .with_threads(4),
            &plan,
            TraceSampling::Off,
        );
        assert_eq!(serial, par);
        assert_eq!(
            tel_s.counter("sim.reroutes").get(),
            tel_p.counter("sim.reroutes").get()
        );
        assert_eq!(
            tel_s.counter("sim.unroutable").get(),
            tel_p.counter("sim.unroutable").get()
        );
        assert_eq!(tel_s.snapshot(), tel_p.snapshot());
    }

    #[test]
    fn sharded_trace_events_match_serial_byte_for_byte() {
        let t = HypercubeNet::new(3).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 30, 0.5, 21);
        let tel_s = Telemetry::with_trace(4096);
        let serial = run(
            &t,
            &traffic,
            SimConfig::default().with_telemetry(tel_s.clone()),
        );
        let tel_p = Telemetry::with_trace(4096);
        let par = run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel_p.clone())
                .with_threads(3),
        );
        assert_eq!(serial, par);
        assert_eq!(tel_s.events(), tel_p.events(), "exact event order");
        assert_eq!(tel_s.snapshot(), tel_p.snapshot());
    }

    #[test]
    fn shard_telemetry_emits_per_shard_counters_and_spans() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 20, 0.3, 3);
        let tel = Telemetry::with_trace(4096);
        let stats = run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel.clone())
                .with_threads(2)
                .with_shard_telemetry(true),
        );
        let per_shard: u64 = (0..2)
            .map(|k| tel.counter(&format!("sim.shard.{k}.delivered")).get())
            .sum();
        assert_eq!(per_shard, stats.delivered);
        let shard_spans: Vec<_> = tel
            .spans()
            .into_iter()
            .filter(|sp| sp.name.starts_with("shard "))
            .collect();
        assert_eq!(shard_spans.len(), 2);
        assert!(shard_spans[0].attr("channels").is_some());
    }

    #[test]
    fn profile_is_identical_serial_vs_sharded() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 60, 0.4, 11);
        let tel_s = Telemetry::summary();
        run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel_s.clone())
                .with_profile(true),
        );
        let prof_s = tel_s.profile();
        assert!(!prof_s.is_empty(), "profiling recorded phases");
        assert!(prof_s.get("sim/route_lookup").is_some());
        assert!(prof_s.get("sim/queue_service").is_some());
        assert!(prof_s.get("sim/route_build").is_some());
        assert!(
            prof_s.get("shard/mailbox_merge").is_none(),
            "shard phases require shard_telemetry"
        );
        for threads in [2, 3, 4] {
            let tel_p = Telemetry::summary();
            run(
                &t,
                &traffic,
                SimConfig::default()
                    .with_telemetry(tel_p.clone())
                    .with_profile(true)
                    .with_threads(threads),
            );
            assert_eq!(prof_s, tel_p.profile(), "threads={threads}");
            assert_eq!(tel_s.snapshot(), tel_p.snapshot(), "threads={threads}");
        }
    }

    #[test]
    fn shard_phases_appear_only_under_shard_telemetry() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 30, 0.4, 7);
        let tel = Telemetry::summary();
        run(
            &t,
            &traffic,
            SimConfig::default()
                .with_telemetry(tel.clone())
                .with_profile(true)
                .with_shard_telemetry(true)
                .with_threads(2),
        );
        let prof = tel.profile();
        let barrier = prof
            .get("shard/barrier_epoch")
            .expect("barrier phase recorded under shard telemetry");
        // Two barriers per cycle per shard: invocations = 2 * shards * cycles.
        assert!(barrier.invocations > 0);
        assert!(prof.get("shard/mailbox_merge").is_some());
    }

    #[test]
    fn more_threads_than_nodes_degrades_gracefully() {
        let t = HypercubeNet::new(2).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 10, 0.8, 1);
        let serial = run(&t, &traffic, SimConfig::default());
        let par = run(&t, &traffic, SimConfig::default().with_threads(64));
        assert_eq!(serial, par);
    }

    #[test]
    fn cycle_limit_strands_identically_in_parallel() {
        let t = HypercubeNet::new(4).unwrap();
        let traffic = workload::uniform(t.num_nodes(), 50, 0.6, 17);
        for limit in [0, 1, 3, 7] {
            let serial = run(&t, &traffic, SimConfig::bounded(limit));
            let par = run(&t, &traffic, SimConfig::bounded(limit).with_threads(4));
            assert_eq!(serial, par, "limit {limit}");
        }
    }
}
