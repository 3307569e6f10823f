//! The four workloads: their seeded inputs and the engine call each one
//! times. Everything here goes through the public API of `hb-netsim` and
//! `hb-telemetry`; the program sees only the generated inputs, never the
//! seed.

use std::time::Instant;

use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, ImplicitTopology, NetTopology};
use hb_netsim::{
    run, run_adaptive_with_timeline, run_with_faults, run_with_mem, workload, FaultEventKind,
    FaultPlan, FaultTarget, FaultTimeline, Injection, MemStats, SimConfig, SimStats, TraceSampling,
    MAX_PRODUCTIVE,
};
use hb_telemetry::{ReportSink, Sink, Telemetry, TsConfig};

/// Cycle cap handed to every engine (the `hbnet report` formula for a
/// 200-cycle workload); every workload drains long before it.
const MAX_CYCLES: u64 = 200 * 100 + 50_000;

/// Trace ring capacity and time-series cadence of the report path.
const TRACE_CAPACITY: usize = 65_536;
const CADENCE: u64 = 5;

/// The report workload sends its permutation this many times, once
/// every `PERMUTATION_PERIOD` cycles.
const PERMUTATION_ROUNDS: u64 = 40;
const PERMUTATION_PERIOD: u64 = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Uniform,
    Report,
    Churn,
    Frontier,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Uniform,
        Workload::Report,
        Workload::Churn,
        Workload::Frontier,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform_hb56",
            Workload::Report => "report_hb56",
            Workload::Churn => "churn_hb46",
            Workload::Frontier => "frontier_hb710",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `(m, n)` of the hyper-butterfly.
    fn shape(self) -> (u32, u32) {
        match self {
            Workload::Uniform | Workload::Report => (5, 6),
            Workload::Churn => (4, 6),
            Workload::Frontier => (7, 10),
        }
    }
}

/// SplitMix64: the benchmark's own generator for input seeds, fault
/// choices and check samples.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An undirected link the benchmark faulted, and the admission cycles
/// `from..to` during which it is down (the benchmark's own record, kept
/// apart from the program's `FaultPlan`).
#[derive(Clone, Copy, Debug)]
pub struct LinkFault {
    pub u: usize,
    pub v: usize,
    pub from: u64,
    pub to: u64,
}

impl LinkFault {
    pub fn covers(&self, a: usize, b: usize, at: u64) -> bool {
        self.from <= at
            && at < self.to
            && ((self.u, self.v) == (a, b) || (self.u, self.v) == (b, a))
    }
}

/// Everything set-up produces: the program's inputs plus the
/// benchmark's own record of them.
pub struct Inputs {
    pub topo: Box<dyn NetTopology>,
    pub injections: Vec<Injection>,
    /// Static link faults (`report_hb56` only).
    pub plan: FaultPlan,
    /// Timed fault/repair events (`churn_hb46` only).
    pub timeline: FaultTimeline,
    pub link_faults: Vec<LinkFault>,
    /// Human description of the traffic, for the rendered report.
    pub traffic: String,
}

/// Host time of each set-up step, seconds, and the set-up's on-CPU time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub topology_s: f64,
    pub workload_s: f64,
    /// [`thread_cpu_s`] over the whole set-up.
    pub cpu_s: f64,
}

/// The calling thread's on-CPU time so far, seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Unlike the wall clock it leaves out time
/// the thread spends descheduled, and on a virtual machine that accounts
/// steal time (KVM guests do) also time the hypervisor runs something
/// else on its CPU. The untraced run's set-ups and engine calls are
/// single-threaded, so this is their whole CPU cost. (The runtime in
/// `/proc/thread-self/schedstat` is the same clock, but it advances only
/// at scheduler ticks while the thread runs.)
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` on 64-bit Linux
    // (two 64-bit fields), and the clock id is a constant the C library
    // accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Builds the topology, the injections and the faults of `w` from `seed`.
pub fn set_up(w: Workload, seed: u64) -> (Inputs, SetupTimes) {
    let mut rng = SplitMix::new(seed);
    let traffic_seed = rng.next_u64();
    let (m, n) = w.shape();

    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let topo: Box<dyn NetTopology> = if w == Workload::Frontier {
        Box::new(ImplicitTopology::new(m, n, HbRouteOrder::CubeFirst).expect("HB(7,10) is valid"))
    } else {
        Box::new(HyperButterflyNet::new(m, n, HbRouteOrder::CubeFirst).expect("HB(m,n) is valid"))
    };
    let t1 = Instant::now();
    let nodes = topo.num_nodes();
    let (injections, traffic) = match w {
        Workload::Uniform | Workload::Churn => (
            workload::uniform(nodes, 200, 0.2, traffic_seed),
            "uniform, rate 0.2, 200 cycles".to_string(),
        ),
        Workload::Report => (
            workload::permutation(nodes, PERMUTATION_ROUNDS, PERMUTATION_PERIOD, traffic_seed),
            format!("permutation, {PERMUTATION_ROUNDS} rounds every {PERMUTATION_PERIOD} cycles"),
        ),
        Workload::Frontier => (
            workload::uniform(nodes, 20, 0.001, traffic_seed),
            "uniform, rate 0.001, 20 cycles".to_string(),
        ),
    };
    let t2 = Instant::now();
    // m + 3 link faults at a time: below the link connectivity m + 4,
    // so every pair stays connected and every packet can be delivered.
    let per_round = m as usize + 3;
    let mut plan = FaultPlan::new();
    let mut timeline = FaultTimeline::new();
    let mut link_faults = Vec::new();
    match w {
        Workload::Report => {
            for (u, v) in distinct_links(&*topo, per_round, &mut rng) {
                plan.add_link(u, v);
                link_faults.push(LinkFault {
                    u,
                    v,
                    from: 0,
                    to: u64::MAX,
                });
            }
        }
        Workload::Churn => {
            // Every 20 cycles m + 3 links fail; each is repaired 10
            // cycles later: 10 rounds, 140 events.
            for round in 0..10u64 {
                let (from, to) = (round * 20, round * 20 + 10);
                let links = distinct_links(&*topo, per_round, &mut rng);
                for &(u, v) in &links {
                    timeline.push(from, FaultEventKind::Fault, FaultTarget::Link(u, v));
                    link_faults.push(LinkFault { u, v, from, to });
                }
                for &(u, v) in &links {
                    timeline.push(to, FaultEventKind::Repair, FaultTarget::Link(u, v));
                }
            }
        }
        Workload::Uniform | Workload::Frontier => {}
    }
    let times = SetupTimes {
        topology_s: (t1 - t0).as_secs_f64(),
        workload_s: (t2 - t1).as_secs_f64(),
        cpu_s: thread_cpu_s() - cpu0,
    };
    let inputs = Inputs {
        topo,
        injections,
        plan,
        timeline,
        link_faults,
        traffic,
    };
    (inputs, times)
}

/// `k` distinct undirected links, each a random node and a random one of
/// its neighbours.
fn distinct_links(topo: &dyn NetTopology, k: usize, rng: &mut SplitMix) -> Vec<(usize, usize)> {
    let mut buf = [0usize; MAX_PRODUCTIVE];
    let mut links: Vec<(usize, usize)> = Vec::with_capacity(k);
    while links.len() < k {
        let u = rng.below(topo.num_nodes());
        let deg = topo.neighbors_into(u, &mut buf);
        let v = buf[rng.below(deg)];
        let link = (u.min(v), u.max(v));
        if !links.contains(&link) {
            links.push(link);
        }
    }
    links
}

/// Which variant of the workload's engine call to make. Only the traced
/// run uses anything but [`Mode::AsDefined`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Exactly as the workload defines it: one thread, with telemetry
    /// on the report path only.
    AsDefined,
    /// As defined, but on the sharded engine at two threads (the frontier
    /// workload calls `run`, since `run_with_mem` is serial-only).
    TwoThreads,
    /// As defined, but with no telemetry handle attached.
    Detached,
    /// As defined, but with a summary-level handle and profiling on.
    Profiled,
}

/// What one engine call produced, and the host time of its parts.
pub struct Outcome {
    pub stats: SimStats,
    pub mem: Option<MemStats>,
    /// The rendered report, when a telemetry handle was attached.
    pub report: Option<String>,
    /// The telemetry handle, when one was attached.
    pub telemetry: Option<Telemetry>,
    pub trace_dropped: u64,
    /// The engine call alone.
    pub sim_s: f64,
    pub snapshot_s: f64,
    pub render_s: f64,
    /// [`thread_cpu_s`] from the engine call to the rendered report. It
    /// covers the whole call only when the call runs on this thread.
    pub cpu_s: f64,
}

impl Outcome {
    /// From the first simulator call to the last output.
    pub fn wall_s(&self) -> f64 {
        self.sim_s + self.snapshot_s + self.render_s
    }
}

/// Runs the workload's engine call on `inp`, then (when a telemetry
/// handle is attached) takes the snapshot and renders the run report.
pub fn execute(w: Workload, inp: &Inputs, mode: Mode) -> Outcome {
    let threads = if mode == Mode::TwoThreads { 2 } else { 1 };
    let telemetry = match mode {
        Mode::Detached => None,
        Mode::Profiled => Some(Telemetry::summary()),
        Mode::AsDefined | Mode::TwoThreads => (w == Workload::Report).then(|| {
            let t = Telemetry::with_trace(TRACE_CAPACITY);
            t.enable_timeseries(TsConfig::new(CADENCE));
            t
        }),
    };
    let mut cfg = SimConfig::bounded(MAX_CYCLES)
        .with_threads(threads)
        .with_profile(mode == Mode::Profiled);
    if let Some(t) = &telemetry {
        cfg = cfg.with_telemetry(t.clone());
    }
    let topo = &*inp.topo;
    let inj = &inp.injections;

    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let (stats, mem) = match w {
        Workload::Uniform => (run(topo, inj, cfg), None),
        Workload::Report => (
            run_with_faults(topo, inj, cfg, &inp.plan, TraceSampling::Off),
            None,
        ),
        Workload::Churn => (
            run_adaptive_with_timeline(topo, inj, cfg, &FaultPlan::new(), &inp.timeline),
            None,
        ),
        Workload::Frontier if threads > 1 => (run(topo, inj, cfg), None),
        Workload::Frontier => {
            let (stats, mem) = run_with_mem(topo, inj, cfg);
            (stats, Some(mem))
        }
    };
    let t1 = Instant::now();
    let mut out = Outcome {
        stats,
        mem,
        report: None,
        telemetry: None,
        trace_dropped: 0,
        sim_s: (t1 - t0).as_secs_f64(),
        snapshot_s: 0.0,
        render_s: 0.0,
        cpu_s: 0.0,
    };
    if let Some(t) = telemetry {
        let snapshot = t.snapshot();
        let t2 = Instant::now();
        let report = report_sink(w, inp, &out.stats).render(&snapshot);
        let t3 = Instant::now();
        out.snapshot_s = (t2 - t1).as_secs_f64();
        out.render_s = (t3 - t2).as_secs_f64();
        out.trace_dropped = snapshot.events_dropped;
        out.report = Some(report);
        out.telemetry = Some(t);
    }
    out.cpu_s = thread_cpu_s() - cpu0;
    out
}

/// The `hbnet report` sink for this run. Like the command's, its header
/// names no thread count, so the report must not depend on it.
fn report_sink(w: Workload, inp: &Inputs, stats: &SimStats) -> ReportSink {
    let (m, n) = w.shape();
    ReportSink {
        title: format!("HB({m}, {n}) {}", w.name()),
        meta: vec![
            (
                "topology".into(),
                format!("HB({m}, {n}), {} nodes", inp.topo.num_nodes()),
            ),
            ("workload".into(), inp.traffic.clone()),
            (
                "faults".into(),
                format!("{} link(s) cut", inp.plan.links().count()),
            ),
            ("injected".into(), format!("{} packets", stats.offered)),
            (
                "delivered".into(),
                format!(
                    "{}/{} in {} cycles (avg latency {:.2})",
                    stats.delivered, stats.offered, stats.cycles, stats.avg_latency
                ),
            ),
            ("cadence".into(), format!("{CADENCE} cycles/window")),
        ],
        ..ReportSink::default()
    }
}
