//! Byte goldens for every simulator entry point: one seeded HB(2,4)
//! uniform workload, one full telemetry snapshot per call (counters,
//! histograms, link stats, profile, series, congestion, trace events at
//! a capacity small enough that events drop, and spans), rendered with
//! [`JsonLinesSink`] after a header line holding the returned
//! [`SimStats`] and the drop counts the sink does not render.
//!
//! The goldens pin per-engine quirks: the adaptive engine serves its
//! worklist in insertion order, `run` emits no fault counters while the
//! fault-aware runner emits both, the bounded runner always emits
//! `sim.dropped` and `sim.unroutable` only under churn, and only
//! fault-aware runs record the reroute/unroutable series.
//!
//! Regenerate with `REGEN_GOLDEN=1 cargo test -p hb-netsim --test
//! engine_golden` only when a behaviour change is intended.

use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, NetTopology};
use hb_netsim::{
    run, run_adaptive, run_adaptive_with_timeline, run_bounded, run_bounded_with_timeline,
    run_with_faults, run_with_mem, run_with_timeline, sim::run_bounded_sweep, workload,
    FaultEventKind, FaultPlan, FaultTarget, FaultTimeline, Injection, SimConfig, SimStats,
    TraceSampling,
};
use hb_telemetry::{JsonLinesSink, Sink, Telemetry, TsConfig};
use std::path::PathBuf;

/// Trace ring capacity: far below the workload's event count.
const TRACE_CAPACITY: usize = 48;

fn net() -> HyperButterflyNet {
    HyperButterflyNet::new(2, 4, HbRouteOrder::CubeFirst).unwrap()
}

/// Uniform traffic sent in bursts: every sampled pair injects three
/// packets in the same cycle, so capacity-2 queues refuse the third.
fn traffic(t: &HyperButterflyNet) -> Vec<Injection> {
    workload::uniform(t.graph().num_nodes(), 3, 0.04, 41)
        .into_iter()
        .flat_map(|i| [i; 3])
        .collect()
}

/// A full-featured config: trace telemetry, time series, profile.
fn config(threads: usize) -> (SimConfig, Telemetry) {
    let tel = Telemetry::with_trace(TRACE_CAPACITY);
    tel.enable_timeseries(TsConfig::new(16).with_capacity(4));
    let cfg = SimConfig::default()
        .with_telemetry(tel.clone())
        .with_profile(true)
        .with_threads(threads);
    (cfg, tel)
}

/// Three link faults, each on the second hop of a sampled route, so
/// the packets on those routes detour.
fn plan(t: &HyperButterflyNet, inj: &[Injection]) -> FaultPlan {
    let mut p = FaultPlan::new();
    for i in [0, 15, 30] {
        let r = t.route(inj[i].src, inj[i].dst);
        p.add_link(r[1], r[2]);
    }
    p
}

/// A link fault on a live route, a faulty node that sources a later
/// injection (so churn refuses it as unroutable), a second link fault,
/// and a repair.
fn timeline(t: &HyperButterflyNet, inj: &[Injection]) -> FaultTimeline {
    let later = |at: u64| {
        *inj.iter()
            .find(|i| i.at == at)
            .expect("traffic at every cycle")
    };
    let hot = later(1);
    let r = t.route(hot.src, hot.dst);
    let link = FaultTarget::Link(r[1].min(r[2]), r[1].max(r[2]));
    let g = t.graph();
    let mut tl = FaultTimeline::new();
    tl.push(1, FaultEventKind::Fault, link);
    tl.push(2, FaultEventKind::Fault, FaultTarget::Node(later(2).src));
    tl.push(
        2,
        FaultEventKind::Fault,
        FaultTarget::Link(40, g.neighbors(40)[2] as usize),
    );
    tl.push(2, FaultEventKind::Repair, link);
    tl
}

fn render(stats: &SimStats, tel: &Telemetry) -> String {
    let snap = tel.snapshot();
    format!(
        "{{\"type\":\"stats\",\"value\":\"{stats:?}\",\"events_dropped\":{},\"spans_dropped\":{}}}\n{}",
        snap.events_dropped,
        snap.spans_dropped,
        JsonLinesSink.render(&snap)
    )
}

fn check(name: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/engine")
        .join(format!("{name}.jsonl"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file is committed");
    assert!(
        rendered == golden,
        "{name}: output drifted from {}; first differing line: {:?}",
        path.display(),
        rendered
            .lines()
            .zip(golden.lines())
            .find(|(a, b)| a != b)
            .map_or_else(
                || "(line count differs)".to_string(),
                |(a, b)| format!("got {a} want {b}")
            )
    );
}

#[test]
fn run_at_one_and_two_threads() {
    let t = net();
    let inj = traffic(&t);
    for threads in [1, 2] {
        let (cfg, tel) = config(threads);
        let s = run(&t, &inj, cfg);
        check(&format!("run_t{threads}"), &render(&s, &tel));
    }
}

#[test]
fn run_with_mem_matches_golden() {
    let t = net();
    let (cfg, tel) = config(1);
    let (s, mem) = run_with_mem(&t, &traffic(&t), cfg);
    let rendered = format!(
        "{{\"type\":\"mem\",\"value\":\"{mem:?}\"}}\n{}",
        render(&s, &tel)
    );
    check("run_with_mem", &rendered);
}

#[test]
fn bounded_and_sweep() {
    let t = net();
    let inj = traffic(&t);
    let (cfg, tel) = config(1);
    let s = run_bounded(&t, &inj, cfg, 2);
    assert!(s.stranded > 0, "capacity 2 drops injections");
    check("run_bounded", &render(&s, &tel));
    let (cfg, tel) = config(1);
    let s = run_bounded_sweep(&t, &inj, cfg, 2);
    check("run_bounded_sweep", &render(&s, &tel));
}

#[test]
fn adaptive() {
    let t = net();
    let (cfg, tel) = config(1);
    let s = run_adaptive(&t, &traffic(&t), cfg);
    check("run_adaptive", &render(&s, &tel));
}

#[test]
fn faulted_flight() {
    let t = net();
    let (cfg, tel) = config(1);
    let inj = traffic(&t);
    let s = run_with_faults(&t, &inj, cfg, &plan(&t, &inj), TraceSampling::FaultAdjacent);
    check("run_with_faults", &render(&s, &tel));
}

#[test]
fn timelines() {
    let t = net();
    let inj = traffic(&t);
    let base = FaultPlan::new();
    let (cfg, tel) = config(1);
    let s = run_with_timeline(
        &t,
        &inj,
        cfg,
        &base,
        &timeline(&t, &inj),
        TraceSampling::FaultAdjacent,
    );
    check("run_with_timeline", &render(&s, &tel));
    let (cfg, tel) = config(1);
    let s = run_bounded_with_timeline(&t, &inj, cfg, 2, &base, &timeline(&t, &inj));
    check("run_bounded_with_timeline", &render(&s, &tel));
    let (cfg, tel) = config(1);
    let s = run_adaptive_with_timeline(&t, &inj, cfg, &base, &timeline(&t, &inj));
    check("run_adaptive_with_timeline", &render(&s, &tel));
}
