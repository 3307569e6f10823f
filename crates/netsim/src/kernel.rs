//! The one cycle kernel every simulator entry point runs (DESIGN.md §16).
//!
//! [`shard_loop`] is the only code that injects, services, samples and
//! accounts for packets. It is monomorphised over four policy axes, so
//! no per-hop decision goes through a `dyn` call:
//!
//! * **admission and hop choice** ([`Routing`]) — [`Routed`] reads a
//!   route table or a churn snapshot and serves channels in ascending id
//!   order; [`Adaptive`] picks the least-queued productive channel when a
//!   packet lands and serves its worklist in insertion order (it never
//!   sorts, and the goldens pin that order);
//! * **queueing** ([`Queueing`]) — unbounded, or bounded(c) with
//!   same-cycle credits; the service set comes from the active worklist
//!   or, for the sweep oracle, from a scan of every channel;
//! * **observer** ([`Observer`]) — `()` compiles to nothing; the
//!   [`Recorder`] keeps the scoreboard, time series, profile counters,
//!   trace events (straight to the handle, or into a bounded per-shard
//!   ring) and, for the fault-aware runner, flight-recorder spans;
//! * **exchange** ([`Exchange`]) — [`Solo`] for one shard, or the
//!   sharded mailbox of [`crate::par`]. A serial run is the one-shard
//!   case of the sharded kernel.

use crate::faults::FaultPlan;
use crate::flight::{Spans, TraceSampling};
use crate::pool::PacketPool;
use crate::routes::{ChurnRoutes, RouteSrc};
use crate::sim::{ChanHeads, ChanLayout, ChanQueues, Injection, MemStats, SimConfig, SimStats};
use crate::topology::{NetTopology, MAX_PRODUCTIVE};
use crate::tsrec::{GlobalTs, LinkTs};
use hb_graphs::NodeId;
use hb_telemetry::{Event, Histogram, Profile, Series, Telemetry};
use std::collections::VecDeque;

/// One packet in flight, the same 24 bytes in every engine. Queues hold
/// 4-byte pool keys to it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Packet {
    /// Injection index, used as the trace id.
    pub(crate) id: u64,
    /// Route slot for source-routed engines; destination node for the
    /// adaptive engine.
    pub(crate) route: u32,
    /// Hops taken so far.
    pub(crate) hop: u32,
    pub(crate) injected_at: u64,
}

/// Node id as carried by trace events.
#[inline]
fn node32(v: NodeId) -> u32 {
    u32::try_from(v).expect("invariant: node ids fit in u32 (route tables store them so)")
}

/// What admission decided for one injection.
pub(crate) enum Admit {
    /// No route under the plan in force: refused.
    Unroutable,
    /// Source is the destination: delivered in zero cycles.
    Local,
    /// Joins channel `ch` carrying `route`.
    Enter { ch: usize, route: u32 },
}

/// Where the head packet of a channel goes when it moves.
pub(crate) enum Step {
    /// Arrives at its destination, node `.0`.
    Deliver(u32),
    /// Moves on: a channel id for source-routed engines, the arrival node
    /// for the adaptive engine (which picks the channel when it lands).
    Forward(usize),
}

/// Admission and hop choice.
pub(crate) trait Routing: Sync {
    /// Serve channels in ascending id order (the canonical order the
    /// sharded exchange reproduces); otherwise in worklist order.
    const SORTED: bool;
    /// Whether the sharded exchange can run this policy.
    const SHARDABLE: bool;
    fn admit<O: Observer>(&self, idx: usize, inj: Injection, q: &ChanQueues, obs: &mut O) -> Admit;
    fn step(&self, p: &Packet, ch: usize) -> Step;
    /// The channel a forwarded packet joins.
    fn land<O: Observer>(&self, target: usize, p: &Packet, q: &ChanQueues, obs: &mut O) -> usize;
    /// The source routes, if any: flight spans and detour accounting
    /// read them, and the profile's `sim/route_build` phase sizes them.
    fn routes(&self) -> Option<RouteSrc<'_>> {
        None
    }
    /// Whether a fault-timeline snapshot gates admission (the run then
    /// emits `sim.unroutable`).
    fn gated(&self) -> bool;
}

/// Source routing over a prebuilt table or a per-injection churn snapshot.
pub(crate) struct Routed<'a> {
    pub(crate) routes: RouteSrc<'a>,
    pub(crate) layout: &'a ChanLayout<'a>,
}

impl Routing for Routed<'_> {
    const SORTED: bool = true;
    const SHARDABLE: bool = true;

    #[inline]
    fn admit<O: Observer>(&self, idx: usize, inj: Injection, _: &ChanQueues, obs: &mut O) -> Admit {
        let slot = self
            .routes
            .slot_for(idx, inj.src, inj.dst)
            .expect("invariant: route table was built from this exact workload");
        let path = self.routes.path(slot);
        obs.lookup(path.len() as u64);
        match *path {
            [] => Admit::Unroutable,
            [_] => Admit::Local,
            [a, b, ..] => Admit::Enter {
                ch: self.layout.channel_of(a as NodeId, b as NodeId),
                route: slot,
            },
        }
    }

    #[inline]
    fn step(&self, p: &Packet, _: usize) -> Step {
        let path = self.routes.path(p.route);
        let here = p.hop as usize + 1;
        match path.get(here + 1) {
            None => Step::Deliver(path[here]),
            Some(&next) => {
                Step::Forward(self.layout.channel_of(path[here] as NodeId, next as NodeId))
            }
        }
    }

    #[inline]
    fn land<O: Observer>(&self, target: usize, _: &Packet, _: &ChanQueues, _: &mut O) -> usize {
        target
    }

    fn routes(&self) -> Option<RouteSrc<'_>> {
        Some(self.routes)
    }

    fn gated(&self) -> bool {
        matches!(self.routes, RouteSrc::Churn(_))
    }
}

/// Minimal adaptive routing: at every hop, the least-queued productive
/// channel (ties keep the lowest). A churn snapshot, when given, gates
/// admission only; in transit the choice is fault-blind.
pub(crate) struct Adaptive<'a> {
    pub(crate) topo: &'a dyn NetTopology,
    pub(crate) layout: &'a ChanLayout<'a>,
    pub(crate) heads: ChanHeads<'a>,
    pub(crate) churn: Option<&'a ChurnRoutes>,
}

impl Adaptive<'_> {
    #[inline]
    fn choose<O: Observer>(&self, q: &ChanQueues, from: NodeId, dst: NodeId, obs: &mut O) -> usize {
        let mut buf = [0 as NodeId; MAX_PRODUCTIVE];
        let k = self.topo.productive_hops_into(from, dst, &mut buf);
        obs.scan(k as u64);
        buf[..k]
            .iter()
            .map(|&w| self.layout.channel_of(from, w))
            .min_by_key(|&ch| q.len(ch))
            .expect("invariant: a productive hop exists for any undelivered packet")
    }
}

impl Routing for Adaptive<'_> {
    const SORTED: bool = false;
    const SHARDABLE: bool = false;

    fn admit<O: Observer>(&self, idx: usize, inj: Injection, q: &ChanQueues, obs: &mut O) -> Admit {
        if self
            .churn
            .is_some_and(|c| c.path(c.slot_of(idx)).is_empty())
        {
            return Admit::Unroutable;
        }
        if inj.src == inj.dst {
            return Admit::Local;
        }
        Admit::Enter {
            ch: self.choose(q, inj.src, inj.dst, obs),
            route: node32(inj.dst),
        }
    }

    #[inline]
    fn step(&self, p: &Packet, ch: usize) -> Step {
        let here = self.heads.head_of(ch);
        if here == p.route as NodeId {
            Step::Deliver(p.route)
        } else {
            Step::Forward(here)
        }
    }

    #[inline]
    fn land<O: Observer>(&self, here: usize, p: &Packet, q: &ChanQueues, obs: &mut O) -> usize {
        self.choose(q, here, p.route as NodeId, obs)
    }

    fn gated(&self) -> bool {
        self.churn.is_some()
    }
}

/// Queue discipline and service-set enumeration.
pub(crate) trait Queueing: Sync {
    /// Rebuild the service set each cycle by scanning every channel (the
    /// differential oracle for the worklist).
    const SWEEP: bool = false;
    /// Whether the sharded exchange can run this discipline.
    const SHARDABLE: bool = false;
    /// Per-channel capacity; `usize::MAX` never blocks and keeps no
    /// credits.
    fn capacity(&self) -> usize;
}

/// Unbounded FIFOs.
pub(crate) struct Unbounded;

impl Queueing for Unbounded {
    const SHARDABLE: bool = true;
    fn capacity(&self) -> usize {
        usize::MAX
    }
}

/// Bounded FIFOs with head-of-line blocking: a head moves only if its
/// next queue, counting packets admitted toward it this cycle, has room.
pub(crate) struct Bounded(usize);

impl Bounded {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queues need capacity >= 1");
        Bounded(capacity)
    }
}

impl Queueing for Bounded {
    fn capacity(&self) -> usize {
        self.0
    }
}

/// [`Bounded`], with the service set found by a full channel scan.
pub(crate) struct Sweep(pub(crate) Bounded);

impl Queueing for Sweep {
    const SWEEP: bool = true;
    fn capacity(&self) -> usize {
        self.0 .0
    }
}

/// Packet accounting of one shard, or of the network once summed. Every
/// field is a running total except `peak` and `active`, which describe
/// the current cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Injections taken off the schedule.
    pub(crate) consumed: u64,
    /// Packets that joined a queue.
    pub(crate) entered: u64,
    /// Routed packets delivered.
    pub(crate) exited: u64,
    /// All deliveries, zero-hop ones included.
    pub(crate) delivered: u64,
    pub(crate) reroutes: u64,
    pub(crate) unroutable: u64,
    /// Injections refused by a full first queue.
    pub(crate) dropped: u64,
    pub(crate) peak: u64,
    pub(crate) active: u64,
}

impl Tally {
    /// Network-wide sum of two shards' tallies (the peak is a max).
    pub(crate) fn plus(self, o: Tally) -> Tally {
        Tally {
            consumed: self.consumed + o.consumed,
            entered: self.entered + o.entered,
            exited: self.exited + o.exited,
            delivered: self.delivered + o.delivered,
            reroutes: self.reroutes + o.reroutes,
            unroutable: self.unroutable + o.unroutable,
            dropped: self.dropped + o.dropped,
            peak: self.peak.max(o.peak),
            active: self.active + o.active,
        }
    }
}

/// How shards see each other.
pub(crate) trait Exchange: Sync {
    const SHARDED: bool;
    fn shards(&self) -> usize;
    /// Shard owning channel `ch`.
    fn owner(&self, ch: usize) -> usize;
    /// Publishes shard `k`'s tally for this cycle and returns the
    /// network's, once every shard has published.
    fn sync(&self, k: usize, mine: Tally) -> Tally;
    /// Sends shard `from`'s movers for shard `to`, leaving `out` empty.
    fn post(&self, from: usize, to: usize, out: &mut Vec<(usize, Packet)>);
    /// Takes what shard `from` sent shard `to` this cycle into the empty
    /// `inbox`.
    fn take(&self, from: usize, to: usize, inbox: &mut Vec<(usize, Packet)>);
    /// Waits until every shard has landed its movers.
    fn barrier(&self);
}

/// The whole network in one shard.
pub(crate) struct Solo;

impl Exchange for Solo {
    const SHARDED: bool = false;
    fn shards(&self) -> usize {
        1
    }
    fn owner(&self, _: usize) -> usize {
        0
    }
    fn sync(&self, _: usize, mine: Tally) -> Tally {
        mine
    }
    fn post(&self, _: usize, _: usize, _: &mut Vec<(usize, Packet)>) {}
    fn take(&self, _: usize, _: usize, _: &mut Vec<(usize, Packet)>) {}
    fn barrier(&self) {}
}

/// Hooks the kernel calls at each observable point. Every default is a
/// no-op, so the `()` observer compiles away.
pub(crate) trait Observer {
    /// Whether the hooks record anything: the kernel skips computing
    /// hook-only arguments (queue depths) when they do not.
    const ON: bool = false;
    /// A trace event, ordered by `(cycle, phase, key)`: phase 0 is
    /// admission keyed by injection id, phase 1 is service keyed by
    /// `2 * channel` (hop) and `2 * channel + 1` (delivery).
    fn event(&mut self, _cycle: u64, _phase: u8, _key: u64, _make: impl FnOnce() -> Event) {}
    /// A route lookup touching `work` nodes.
    fn lookup(&mut self, _work: u64) {}
    /// A least-queue choice over `work` candidates.
    fn scan(&mut self, _work: u64) {}
    /// Channel `ch` holds `len` packets after admission and landing.
    fn sample(&mut self, _ch: usize, _cycle: u64, _len: usize) {}
    /// Channel `ch` is served holding `depth` packets.
    fn service(&mut self, _ch: usize, _depth: usize) {}
    /// Packet `p` (hop already advanced) crossed channel `ch`.
    fn hop(&mut self, _ch: usize, _key: u32, _p: &Packet, _cycle: u64) {}
    /// Packet `p` arrived at node `here` at the end of `cycle`.
    fn deliver(&mut self, _ch: usize, _key: u32, _p: &Packet, _here: u32, _cycle: u64) {}
    /// Packet `p` was admitted behind `depth` queued packets.
    fn enter(&mut self, _key: u32, _p: &Packet, _inj: Injection, _detoured: bool, _depth: usize) {}
    /// Packet `p` joined a queue at `cycle` behind `depth` packets.
    fn land(&mut self, _key: u32, _p: &Packet, _cycle: u64, _depth: usize) {}
    /// End of `cycle`, with the network's tally.
    fn cycle_end(&mut self, _cycle: u64, _net: &Tally) {}
    /// A sharded cycle received `incoming` packets from other shards.
    fn exchanged(&mut self, _cycle: u64, _incoming: u64) {}
}

impl Observer for () {}

/// Plain-local profiler counters for one shard: the kernel bumps `u64`
/// fields and the totals become a [`Profile`] once at the end. Work
/// units are logical (route nodes looked up, queue depth held at
/// service, candidates scanned), never wall clock, so profiles are
/// byte-identical run to run and across thread counts.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ProfCounters {
    pub(crate) lookup: (u64, u64),
    pub(crate) service: (u64, u64),
    pub(crate) scan: (u64, u64),
    /// Sharded runs under `shard_telemetry` only.
    pub(crate) mailbox: (u64, u64),
    pub(crate) barrier: (u64, u64),
}

impl ProfCounters {
    pub(crate) fn absorb(&mut self, o: &ProfCounters) {
        for (a, b) in [
            (&mut self.lookup, o.lookup),
            (&mut self.service, o.service),
            (&mut self.scan, o.scan),
            (&mut self.mailbox, o.mailbox),
            (&mut self.barrier, o.barrier),
        ] {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Merges the counters, plus the one-shot `sim/route_build` phase,
    /// into `tel`. Zero phases are skipped.
    pub(crate) fn finish(&self, tel: &Telemetry, route_build: Option<(u64, u64)>) {
        let mut p = Profile::new();
        if let Some((pairs, nodes)) = route_build {
            p.record("sim/route_build", pairs, nodes);
        }
        p.record("sim/route_lookup", self.lookup.0, self.lookup.1);
        p.record("sim/queue_service", self.service.0, self.service.1);
        p.record("sim/adaptive_scan", self.scan.0, self.scan.1);
        p.record("shard/mailbox_merge", self.mailbox.0, self.mailbox.1);
        p.record("shard/barrier_epoch", self.barrier.0, self.barrier.1);
        if !p.is_empty() {
            tel.merge_profile(&p);
        }
    }
}

/// A shard's drop-oldest trace buffer: it holds at most the handle's
/// trace capacity and counts what it discards. Shard events arrive in
/// `(cycle, phase, key)` order, so the network's newest events all sit
/// in the union of the shard rings.
pub(crate) struct EventRing {
    pub(crate) buf: VecDeque<(u64, u8, u64, Event)>,
    pub(crate) cap: usize,
    pub(crate) discarded: u64,
}

impl EventRing {
    fn push(&mut self, e: (u64, u8, u64, Event)) {
        if self.buf.len() == self.cap {
            self.discarded += 1;
            if self.buf.pop_front().is_none() {
                return; // capacity 0
            }
        }
        self.buf.push_back(e);
    }
}

/// Where a recorder sends trace events.
pub(crate) enum Trace {
    Off,
    Direct,
    Ring(EventRing),
}

/// The telemetry observer of one shard: a dense scoreboard over the
/// shard's channels, its link series (plus, on shard 0, the network
/// series), profile counters, trace events and optional flight spans.
/// Everything merges into the handle once, after the run.
pub(crate) struct Recorder<'a> {
    pub(crate) tel: &'a Telemetry,
    /// Channel id -> (tail, head), over every channel.
    pub(crate) ends: &'a [(u32, u32)],
    pub(crate) base: usize,
    pub(crate) latency: Histogram,
    pub(crate) hops: Histogram,
    pub(crate) fwd: Vec<u64>,
    pub(crate) busy: Vec<u64>,
    pub(crate) peak: Vec<usize>,
    pub(crate) links: Option<LinkTs>,
    /// Network series and the previous cycle's network tally.
    pub(crate) globals: Option<(GlobalTs, Tally)>,
    pub(crate) profiling: bool,
    pub(crate) shard_profile: bool,
    pub(crate) prof: ProfCounters,
    pub(crate) trace: Trace,
    pub(crate) spans: Option<Spans<'a>>,
    pub(crate) mailbox: Option<Series>,
}

impl<'a> Recorder<'a> {
    pub(crate) fn new(
        run: &'a Run<'_>,
        tel: &'a Telemetry,
        k: usize,
        spans: Option<Spans<'a>>,
    ) -> Self {
        let (lo, width) = (run.chan_lo[k], run.chan_lo[k + 1] - run.chan_lo[k]);
        let ts = tel.timeseries_config();
        let trace = match (tel.trace_enabled(), run.sharded) {
            (false, _) => Trace::Off,
            (true, false) => Trace::Direct,
            (true, true) => Trace::Ring(EventRing {
                buf: VecDeque::new(),
                cap: tel.trace_capacity(),
                discarded: 0,
            }),
        };
        Recorder {
            tel,
            ends: &run.ends,
            base: lo,
            latency: Histogram::new(),
            hops: Histogram::new(),
            fwd: vec![0; width],
            busy: vec![0; width],
            peak: vec![0; width],
            links: ts.map(|c| LinkTs::new(c, lo, width)),
            globals: ts.filter(|_| k == 0).map(|c| {
                (
                    GlobalTs::new(c, run.spec.flight.is_some()),
                    Tally::default(),
                )
            }),
            profiling: run.spec.cfg.profile,
            shard_profile: run.spec.cfg.profile && run.spec.cfg.shard_telemetry,
            prof: ProfCounters::default(),
            trace,
            spans,
            mailbox: ts
                .filter(|_| run.sharded && run.spec.cfg.shard_telemetry)
                .map(Series::new),
        }
    }
}

impl Observer for Recorder<'_> {
    const ON: bool = true;

    #[inline]
    fn event(&mut self, cycle: u64, phase: u8, key: u64, make: impl FnOnce() -> Event) {
        match &mut self.trace {
            Trace::Off => {}
            Trace::Direct => self.tel.event(make),
            Trace::Ring(r) => r.push((cycle, phase, key, make())),
        }
    }

    #[inline]
    fn lookup(&mut self, work: u64) {
        if self.profiling {
            self.prof.lookup.0 += 1;
            self.prof.lookup.1 += work;
        }
    }

    #[inline]
    fn scan(&mut self, work: u64) {
        if self.profiling {
            self.prof.scan.0 += 1;
            self.prof.scan.1 += work;
        }
    }

    #[inline]
    fn sample(&mut self, ch: usize, cycle: u64, len: usize) {
        let i = ch - self.base;
        self.peak[i] = self.peak[i].max(len);
        if let Some(lt) = self.links.as_mut() {
            lt.observe(ch, cycle, len as u64);
        }
    }

    #[inline]
    fn service(&mut self, ch: usize, depth: usize) {
        if self.profiling {
            self.prof.service.0 += 1;
            self.prof.service.1 += depth as u64;
        }
        self.busy[ch - self.base] += 1;
    }

    #[inline]
    fn hop(&mut self, ch: usize, key: u32, p: &Packet, cycle: u64) {
        self.fwd[ch - self.base] += 1;
        let (from, to) = self.ends[ch];
        self.event(cycle, 1, 2 * ch as u64, || Event::PacketHop {
            id: p.id,
            from,
            to,
            cycle: cycle + 1,
        });
        if let Some(s) = self.spans.as_mut() {
            s.close_hop(self.tel, key, cycle);
        }
    }

    #[inline]
    fn deliver(&mut self, ch: usize, key: u32, p: &Packet, here: u32, cycle: u64) {
        let latency = cycle + 1 - p.injected_at;
        self.latency.record(latency);
        self.hops.record(u64::from(p.hop));
        self.event(cycle, 1, 2 * ch as u64 + 1, || Event::PacketDelivered {
            id: p.id,
            dst: here,
            latency,
            cycle: cycle + 1,
        });
        if let Some(s) = self.spans.as_mut() {
            s.finish(self.tel, key, p, latency, cycle + 1);
        }
    }

    #[inline]
    fn enter(&mut self, key: u32, p: &Packet, inj: Injection, detoured: bool, depth: usize) {
        if let Some(s) = self.spans.as_mut() {
            s.enter(self.tel, key, p, inj, detoured, depth);
        }
    }

    #[inline]
    fn land(&mut self, key: u32, p: &Packet, cycle: u64, depth: usize) {
        if let Some(s) = self.spans.as_mut() {
            s.open_hop(self.tel, key, p, cycle, depth);
        }
    }

    #[inline]
    fn cycle_end(&mut self, cycle: u64, net: &Tally) {
        if let Some((gt, prev)) = self.globals.as_mut() {
            gt.record(
                cycle,
                net.entered - net.exited,
                net.consumed - prev.consumed,
                net.delivered - prev.delivered,
                net.peak,
                net.active,
            );
            gt.record_faults(
                cycle,
                net.reroutes - prev.reroutes,
                net.unroutable - prev.unroutable,
            );
            *prev = *net;
        }
    }

    #[inline]
    fn exchanged(&mut self, cycle: u64, incoming: u64) {
        if self.shard_profile {
            self.prof.mailbox.0 += 1;
            self.prof.mailbox.1 += incoming;
            // Two barrier waits per cycle.
            self.prof.barrier.0 += 2;
            self.prof.barrier.1 += 2;
        }
        if let Some(mb) = self.mailbox.as_mut() {
            mb.record(cycle, incoming);
        }
    }
}

/// One run's inputs besides its policies.
pub(crate) struct Spec<'a> {
    pub(crate) topo: &'a dyn NetTopology,
    pub(crate) injections: &'a [Injection],
    pub(crate) cfg: &'a SimConfig,
    /// Set for the fault-aware runner: flight-recorder sampling and the
    /// plan seeding its fault-adjacency mask. Such runs also emit
    /// `sim.reroutes`, `sim.unroutable` and their per-cycle series.
    pub(crate) flight: Option<(TraceSampling, &'a FaultPlan)>,
}

impl<'a> Spec<'a> {
    pub(crate) fn new(
        topo: &'a dyn NetTopology,
        injections: &'a [Injection],
        cfg: &'a SimConfig,
    ) -> Self {
        Spec {
            topo,
            injections,
            cfg,
            flight: None,
        }
    }
}

/// Everything the shards of one run share.
pub(crate) struct Run<'a> {
    pub(crate) spec: &'a Spec<'a>,
    /// Shard `k` owns nodes `node_lo[k]..node_lo[k + 1]` and channels
    /// `chan_lo[k]..chan_lo[k + 1]`.
    pub(crate) node_lo: Vec<usize>,
    pub(crate) chan_lo: Vec<usize>,
    /// Channel id -> (tail, head); empty without telemetry.
    pub(crate) ends: Vec<(u32, u32)>,
    pub(crate) sparse: bool,
    pub(crate) sharded: bool,
    /// Flight spans to record: sampling on and a trace-level handle.
    pub(crate) spans: Option<(TraceSampling, &'a FaultPlan)>,
    /// Counters beyond the base set: `sim.dropped` (bounded queues) and
    /// `sim.unroutable` (gated admission or the fault-aware runner).
    pub(crate) dropped: bool,
    pub(crate) unroutable: bool,
    pub(crate) route_build: Option<(u64, u64)>,
}

impl<'a> Run<'a> {
    /// Lays out the shards: several when the policies allow it, more
    /// than one thread is asked for, and no flight spans are recorded
    /// (span ids are allocated in program order); one otherwise.
    pub(crate) fn new<R: Routing, Q: Queueing>(
        spec: &'a Spec<'a>,
        layout: &ChanLayout<'_>,
        routing: &R,
        queueing: &Q,
    ) -> Self {
        assert!(
            spec.injections.windows(2).all(|w| w[0].at <= w[1].at),
            "injections must be sorted by cycle"
        );
        let (topo, cfg) = (spec.topo, spec.cfg);
        let tel = cfg.telemetry.as_ref();
        let spans = spec
            .flight
            .filter(|&(s, _)| s != TraceSampling::Off && tel.is_some_and(Telemetry::trace_enabled));
        let sharded = R::SHARDABLE && Q::SHARDABLE && cfg.threads > 1 && spans.is_none();
        let n = topo.num_nodes();
        let node_lo = if sharded {
            crate::par::shard_boundaries(layout, n, cfg.threads.min(n.max(1)).max(1))
        } else {
            vec![0, n]
        };
        Run {
            spec,
            chan_lo: node_lo
                .iter()
                .map(|&v| layout.node_first_channel(v))
                .collect(),
            node_lo,
            // O(channels): built only for telemetry, so telemetry-off
            // implicit runs stay bounded by active traffic.
            ends: tel.map_or_else(Vec::new, |_| layout.endpoints()),
            sparse: cfg.implicit || topo.explicit_graph().is_none(),
            sharded,
            spans,
            dropped: queueing.capacity() != usize::MAX,
            unroutable: routing.gated() || spec.flight.is_some(),
            route_build: routing
                .routes()
                .map(|r| (r.num_pairs() as u64, r.total_route_nodes() as u64)),
        }
    }
}

/// What one shard hands back for the in-order merge.
pub(crate) struct ShardOut<O> {
    pub(crate) obs: O,
    pub(crate) tally: Tally,
    pub(crate) latency_sum: u64,
    pub(crate) hops_sum: u64,
    pub(crate) max_latency: u64,
    pub(crate) peak_queue: usize,
    pub(crate) cycles: u64,
    pub(crate) peak_records: usize,
    pub(crate) store_bytes: usize,
}

/// Source-routed run over `routes`.
pub(crate) fn routed<Q: Queueing>(
    spec: Spec<'_>,
    routes: RouteSrc<'_>,
    queueing: Q,
    mem: Option<&mut MemStats>,
) -> SimStats {
    let layout = ChanLayout::new(spec.topo, spec.cfg.implicit);
    let routing = Routed {
        routes,
        layout: &layout,
    };
    simulate(&spec, &layout, &routing, &queueing, mem)
}

/// Adaptive run, admission optionally gated by a churn snapshot.
pub(crate) fn adaptive(spec: Spec<'_>, churn: Option<&ChurnRoutes>) -> SimStats {
    let layout = ChanLayout::new(spec.topo, spec.cfg.implicit);
    let routing = Adaptive {
        topo: spec.topo,
        layout: &layout,
        heads: layout.heads(),
        churn,
    };
    simulate(&spec, &layout, &routing, &Unbounded, None)
}

/// Runs the shards of one run, with the telemetry observer when a
/// handle is attached, and merges them in shard order.
fn simulate<R: Routing, Q: Queueing>(
    spec: &Spec<'_>,
    layout: &ChanLayout<'_>,
    routing: &R,
    queueing: &Q,
    mem: Option<&mut MemStats>,
) -> SimStats {
    let run = Run::new(spec, layout, routing, queueing);
    let (stats, outs_mem) = match spec.cfg.telemetry.as_ref() {
        None => {
            let outs = crate::par::drive(&run, routing, queueing, |_| ());
            (crate::par::merge_stats(&run, &outs), mem_of(&outs))
        }
        Some(t) => {
            let outs = crate::par::drive(&run, routing, queueing, |k| {
                let spans = run.spans.zip(routing.routes());
                let spans = spans.map(|((sampling, hot), routes)| {
                    Spans::new(spec.topo, run.sparse, routes, sampling, hot)
                });
                Recorder::new(&run, t, k, spans)
            });
            let stats = crate::par::merge_stats(&run, &outs);
            let m = mem_of(&outs);
            crate::par::merge_telemetry(&run, t, outs, &stats);
            (stats, m)
        }
    };
    if let Some(m) = mem {
        (m.peak_channel_records, m.channel_store_bytes) = outs_mem;
        m.num_channels = layout.num_channels();
    }
    stats
}

fn mem_of<O>(outs: &[ShardOut<O>]) -> (usize, usize) {
    outs.iter()
        .fold((0, 0), |(r, b), o| (r + o.peak_records, b + o.store_bytes))
}

/// Queues `key` on `ch`, adding `ch` to the worklist if it was idle.
#[inline]
fn enqueue(q: &mut ChanQueues, active: &mut Vec<usize>, ch: usize, key: u32) {
    q.push_back(ch, key);
    if q.activate(ch) {
        active.push(ch);
    }
}

/// Lands the mover `(target, key)` at the end of `cycle`: picks its
/// channel, then queues it.
#[inline]
fn land<R: Routing, O: Observer>(
    routing: &R,
    q: &mut ChanQueues,
    active: &mut Vec<usize>,
    pool: &PacketPool<Packet>,
    obs: &mut O,
    (target, key): (usize, u32),
    cycle: u64,
) {
    let p = pool.get(key);
    let ch = routing.land(target, p, q, obs);
    if O::ON {
        obs.land(key, p, cycle + 1, q.len(ch));
    }
    enqueue(q, active, ch, key);
}

/// Shard `k` of `run`: the one cycle loop. Each cycle admits the
/// shard's due injections in id order, serves every non-empty channel
/// once (two-phase: a packet moves at most one hop per cycle), publishes
/// its tally, then lands the cycle's movers in ascending source-channel
/// order: senders' mailboxes in shard order, its own movers in place.
// analyze: hot(the one cycle loop every engine runs; steady state must stay allocation-free, see alloc_free.rs)
pub(crate) fn shard_loop<R: Routing, Q: Queueing, O: Observer, X: Exchange>(
    run: &Run<'_>,
    routing: &R,
    queueing: &Q,
    k: usize,
    mut obs: O,
    x: &X,
) -> ShardOut<O> {
    let (cfg, injections) = (run.spec.cfg, run.spec.injections);
    let (lo, hi) = (run.chan_lo[k], run.chan_lo[k + 1]);
    let nodes = run.node_lo[k]..run.node_lo[k + 1];
    let cap = queueing.capacity();
    let bounded = cap != usize::MAX;
    let mut queues = ChanQueues::new(lo, hi - lo, run.sparse, bounded);
    let mut pool: PacketPool<Packet> = PacketPool::new();
    let mut active: Vec<usize> = Vec::new();
    let mut still: Vec<usize> = Vec::new();
    let mut movers: Vec<(usize, u32)> = Vec::new();
    let mut credited: Vec<usize> = Vec::new();
    let mut outbox: Vec<Vec<(usize, Packet)>> = (0..x.shards()).map(|_| Vec::new()).collect();
    let mut inbox: Vec<(usize, Packet)> = Vec::new();
    let mut tally = Tally::default();
    let (mut latency_sum, mut hops_sum, mut max_latency, mut peak_queue) = (0, 0, 0, 0);
    let mut cursor = 0usize; // next injection of the schedule
    let mut cycle = 0u64;
    while cycle < cfg.max_cycles {
        while cursor < injections.len() && injections[cursor].at == cycle {
            let (idx, inj) = (cursor, injections[cursor]);
            cursor += 1;
            if !nodes.contains(&inj.src) {
                continue;
            }
            tally.consumed += 1;
            let id = idx as u64;
            obs.event(cycle, 0, id, || Event::PacketInjected {
                id,
                src: node32(inj.src),
                dst: node32(inj.dst),
                cycle,
            });
            let refused = match routing.admit(idx, inj, &queues, &mut obs) {
                Admit::Unroutable => {
                    tally.unroutable += 1;
                    true
                }
                Admit::Local => {
                    tally.delivered += 1;
                    obs.event(cycle, 0, id, || Event::PacketDelivered {
                        id,
                        dst: node32(inj.dst),
                        latency: 0,
                        cycle,
                    });
                    false
                }
                Admit::Enter { ch, .. } if bounded && queues.len(ch) >= cap => {
                    tally.dropped += 1; // source buffer full
                    true
                }
                Admit::Enter { ch, route } => {
                    debug_assert!(lo <= ch && ch < hi, "injection lands in its own shard");
                    let detoured = run.spec.flight.is_some()
                        && routing.routes().is_some_and(|r| r.detour(route).is_some());
                    tally.reroutes += u64::from(detoured);
                    let p = Packet {
                        id,
                        route,
                        hop: 0,
                        injected_at: cycle,
                    };
                    let key = pool.alloc(p);
                    if O::ON {
                        obs.enter(key, &p, inj, detoured, queues.len(ch));
                    }
                    enqueue(&mut queues, &mut active, ch, key);
                    tally.entered += 1;
                    false
                }
            };
            if refused {
                obs.event(cycle, 0, id, || Event::PacketDropped {
                    id,
                    at: node32(inj.src),
                    cycle,
                });
            }
        }

        // The service set: every non-empty channel, ascending for
        // source-routed policies (the order that fixes which same-cycle
        // arrival lands first, and that shards reproduce).
        if Q::SWEEP {
            active.clear();
            active.extend((lo..hi).filter(|&ch| queues.len(ch) > 0));
        } else if R::SORTED {
            active.sort_unstable();
        }
        // Occupancy peaks right after admission and landing; this is
        // also the per-cycle sampling point of the time series.
        let mut cycle_peak = 0usize;
        for &ch in &active {
            let len = queues.len(ch);
            cycle_peak = cycle_peak.max(len);
            obs.sample(ch, cycle, len);
        }
        peak_queue = peak_queue.max(cycle_peak);
        let cycle_active = active.len();

        still.clear();
        for &ch in &active {
            if O::ON {
                obs.service(ch, queues.len(ch));
            }
            // Bounded heads move only if the next queue has room, so
            // they are inspected before they leave.
            let head = if bounded {
                queues.front(ch).copied()
            } else {
                queues.pop_front(ch)
            };
            let key = head.expect("invariant: the service set holds non-empty channels");
            let step = routing.step(pool.get(key), ch);
            let blocked = bounded
                && matches!(step, Step::Forward(next) if queues.len_plus_incoming(next) >= cap);
            if !blocked {
                if bounded {
                    queues.pop_front(ch);
                }
                let mut p = *pool.get(key);
                p.hop += 1;
                obs.hop(ch, key, &p, cycle);
                match step {
                    Step::Deliver(here) => {
                        let latency = cycle + 1 - p.injected_at;
                        latency_sum += latency;
                        hops_sum += u64::from(p.hop);
                        max_latency = max_latency.max(latency);
                        tally.delivered += 1;
                        tally.exited += 1;
                        pool.free(key);
                        obs.deliver(ch, key, &p, here, cycle);
                    }
                    Step::Forward(next) => {
                        if bounded && queues.add_incoming(next) {
                            credited.push(next);
                        }
                        let owner = x.owner(next);
                        if owner == k {
                            *pool.get_mut(key) = p;
                            movers.push((next, key));
                        } else {
                            pool.free(key);
                            outbox[owner].push((next, p));
                        }
                    }
                }
            }
            if queues.len(ch) == 0 {
                queues.deactivate(ch);
            } else {
                still.push(ch);
            }
        }
        std::mem::swap(&mut active, &mut still);

        if X::SHARDED {
            for (to, o) in outbox.iter_mut().enumerate() {
                if !o.is_empty() {
                    x.post(k, to, o);
                }
            }
        }
        let net = x.sync(
            k,
            Tally {
                peak: cycle_peak as u64,
                active: cycle_active as u64,
                ..tally
            },
        );
        obs.cycle_end(cycle, &net);
        let drained = cfg.stop_when_drained
            && net.consumed == injections.len() as u64
            && net.entered == net.exited;

        // Arrivals land in ascending source-channel order: lower shards'
        // mailboxes, this shard's own movers, higher shards' mailboxes.
        let mut incoming = 0u64;
        for from in 0..x.shards() {
            if from == k {
                for &m in &movers {
                    land(routing, &mut queues, &mut active, &pool, &mut obs, m, cycle);
                }
                movers.clear();
            } else {
                x.take(from, k, &mut inbox);
                incoming += inbox.len() as u64;
                for (ch, p) in inbox.drain(..) {
                    let m = (ch, pool.alloc(p));
                    land(routing, &mut queues, &mut active, &pool, &mut obs, m, cycle);
                }
            }
        }
        for &ch in &credited {
            queues.clear_incoming(ch);
        }
        credited.clear();
        if X::SHARDED {
            obs.exchanged(cycle, incoming);
            x.barrier();
        }
        cycle += 1;
        if drained {
            break;
        }
    }
    ShardOut {
        obs,
        tally,
        latency_sum,
        hops_sum,
        max_latency,
        peak_queue,
        cycles: cycle,
        peak_records: queues.peak_records(),
        store_bytes: queues.heap_bytes(),
    }
}
