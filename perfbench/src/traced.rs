//! The traced run: one pass that times each layer's public calls from
//! outside the program and samples `VmHWM` at the layer boundaries.
//!
//! Order matters, because `VmHWM` never falls: set-up, then the route
//! table, then a few untraced engine calls (they warm the process up, and
//! their median stands beside the traced pass's own wall time), then the
//! engine call as the workload defines it, timed in its parts, then the
//! variants (two threads, telemetry detached, profiled), the fault
//! timeline replay and the route checks.

use std::time::Instant;

use hb_netsim::RouteTable;

use crate::check;
use crate::setup::{execute, set_up, Mode, Workload};
use crate::{median, vm_hwm_mb, Args, RunResult};

const MIB: f64 = 1024.0 * 1024.0;

/// Untraced engine calls made before the traced one.
const UNTRACED_CALLS: usize = 3;

pub fn run(a: &Args) -> RunResult {
    let w = a.workload;
    let mut res = RunResult::default();

    let seed = crate::input_seeds(a.seed)[0];
    let (inp, times) = set_up(w, seed);
    let hwm_setup = vm_hwm_mb();
    let offered = inp.injections.len() as u64;

    let t = Instant::now();
    let table = RouteTable::for_injections(&*inp.topo, &inp.injections, &inp.plan);
    let routes_build_s = t.elapsed().as_secs_f64();
    let pairs = table.num_pairs();
    let table_mb = table.heap_bytes() as f64 / MIB;
    drop(table);
    let hwm_routes = vm_hwm_mb();

    let untraced: Vec<f64> = (0..UNTRACED_CALLS)
        .map(|_| {
            let out = execute(w, &inp, Mode::AsDefined);
            res.record(&out.stats, &inp.injections);
            out.wall_s()
        })
        .collect();
    let untraced_wall_s = median(&untraced);

    let main = execute(w, &inp, Mode::AsDefined);
    let hwm_sim = vm_hwm_mb();
    let two = execute(w, &inp, Mode::TwoThreads);
    let hwm_par = vm_hwm_mb();
    let off = execute(w, &inp, Mode::Detached);
    let prof = execute(w, &inp, Mode::Profiled);
    for out in [&main, &two, &off, &prof] {
        res.record(&out.stats, &inp.injections);
    }
    for (what, other) in [
        ("two-thread", &two),
        ("detached", &off),
        ("profiled", &prof),
    ] {
        res.checks.expect(other.stats == main.stats, || {
            format!("{what} stats differ from the workload's own call")
        });
    }
    // (d) The determinism guarantee: the report is byte-identical at one
    // and at two threads.
    res.checks.expect(main.report == two.report, || {
        "rendered report differs between thread counts".to_string()
    });

    let replay = check::replay_timeline(&inp, &mut res.checks);
    res.checks.routes(&inp, w, seed);

    let stats = &main.stats;
    let profile = prof
        .telemetry
        .as_ref()
        .expect("the profiled call has a handle")
        .profile();
    let work = |phase: &str| profile.get(phase).map_or(0.0, |p| p.work as f64);
    // The route work inside the engine call: the table build on the
    // oblivious engines, the timeline compile on the churn engine.
    let engine_routes_s = if w == Workload::Churn {
        replay.repair_s + replay.resolve_s
    } else {
        routes_build_s
    };
    // The workload's own handle where it has one, else the profiled one.
    let tel = if main.telemetry.is_some() {
        &main
    } else {
        &prof
    };
    let hops = stats.delivered as f64 * stats.avg_hops;
    let (peak_records, store_mb) = main.mem.map_or((0.0, 0.0), |m| {
        (
            m.peak_channel_records as f64,
            m.channel_store_bytes as f64 / MIB,
        )
    });
    let traced_wall_s = routes_build_s + main.wall_s();

    res.metric("topology.build_s", times.topology_s, "s");
    res.metric("workload.gen_s", times.workload_s, "s");
    res.metric("routes.build_s", routes_build_s, "s");
    res.metric("routes.build_share", routes_build_s / main.sim_s, "ratio");
    res.metric("routes.pairs", pairs as f64, "count");
    res.metric(
        "routes.reuse",
        offered as f64 / pairs as f64,
        "packets/pair",
    );
    res.metric("routes.table_mb", table_mb, "MiB");
    res.metric("sim.run_s", main.sim_s, "s");
    res.metric("sim.service_s", main.sim_s - engine_routes_s, "s");
    res.metric("sim.ns_per_hop", main.sim_s * 1e9 / hops, "ns");
    res.metric("sim.peak_queue", stats.peak_queue as f64, "packets");
    res.metric("profile.route_build.work", work("sim/route_build"), "work");
    res.metric(
        "profile.route_lookup.work",
        work("sim/route_lookup"),
        "work",
    );
    res.metric(
        "profile.queue_service.work",
        work("sim/queue_service"),
        "work",
    );
    res.metric(
        "profile.adaptive_scan.work",
        work("sim/adaptive_scan"),
        "work",
    );
    res.metric(
        "profile.route_repair.work",
        work("sim/route_repair"),
        "work",
    );
    res.metric("par.t2_run_s", two.sim_s, "s");
    res.metric("par.speedup", main.sim_s / two.sim_s, "ratio");
    res.metric("telemetry.off_run_s", off.sim_s, "s");
    res.metric("telemetry.overhead", main.sim_s / off.sim_s, "ratio");
    res.metric("telemetry.snapshot_s", tel.snapshot_s, "s");
    res.metric(
        "telemetry.trace_dropped",
        main.trace_dropped as f64,
        "events",
    );
    res.metric("sink.render_s", tel.render_s, "s");
    res.metric("churn.repair_s", replay.repair_s, "s");
    res.metric("churn.resolve_s", replay.resolve_s, "s");
    res.metric("churn.deltas", replay.deltas as f64, "count");
    res.metric("churn.scanned", replay.scanned as f64, "count");
    res.metric("churn.respliced", replay.respliced as f64, "count");
    let ratio = if replay.scanned == 0 {
        0.0
    } else {
        replay.respliced as f64 / replay.scanned as f64
    };
    res.metric("churn.respliced_ratio", ratio, "ratio");
    res.metric("pool.peak_channel_records", peak_records, "count");
    res.metric("pool.channel_store_mb", store_mb, "MiB");
    res.metric("mem.hwm_setup_mb", hwm_setup, "MiB");
    res.metric("mem.hwm_routes_mb", hwm_routes, "MiB");
    res.metric("mem.hwm_sim_mb", hwm_sim, "MiB");
    res.metric("mem.hwm_par_mb", hwm_par, "MiB");
    res.metric("trace.wall_s", traced_wall_s, "s");
    res.metric("trace.untraced_wall_s", untraced_wall_s, "s");
    res.metric("trace.overhead", traced_wall_s / untraced_wall_s, "ratio");
    println!(
        "{} seed {} traced: routes.build_s is {:.1}% of sim.run_s; \
         traced wall {:.3} s beside untraced median {:.3} s",
        w.name(),
        a.seed,
        100.0 * routes_build_s / main.sim_s,
        traced_wall_s,
        untraced_wall_s
    );
    res
}
