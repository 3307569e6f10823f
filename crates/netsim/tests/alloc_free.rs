//! Proves the hot loops perform zero per-hop heap allocations at steady
//! state: once the per-run structures (queues, scratch vectors, sparse
//! channel records) reach their high-water capacity, forwarding packets
//! allocates nothing. The proof compares total allocation counts of a
//! short and a long run of the *same repeating wave shape* — identical
//! setup and identical high-water marks, so any per-hop allocation
//! would scale with the extra hops and break the bound.
//!
//! Covered engines: `run_adaptive` (dense), the frontier engine (`run`
//! over the implicit topology's sparse channel store, where records
//! churn through the recycling free list every wave), `run_bounded`
//! (same-cycle credits), and untraced `run_with_faults` under an empty
//! and a three-link-fault plan (detoured routes). Every engine runs the
//! same cycle kernel, so these cover its admission, service, credit and
//! landing paths under each policy.
//!
//! This is the only test in this file: the global counting allocator
//! must not race with unrelated tests.

use hb_netsim::topology::{
    HbRouteOrder, HyperButterflyNet, HypercubeNet, ImplicitTopology, NetTopology,
};
use hb_netsim::{
    run, run_adaptive, run_bounded, run_with_faults, FaultPlan, Injection, SimConfig, SimStats,
    TraceSampling,
};
use hb_telemetry::Telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `f` alongside its result.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// `waves` bursts of the reversal permutation (`dst = n - 1 - src`,
/// the bit complement on a hypercube), spaced far enough apart that the
/// network drains between bursts — every wave exercises the same queue
/// high-water marks.
fn wave_workload(num_nodes: usize, waves: u64, spacing: u64) -> Vec<Injection> {
    let mut inj = Vec::new();
    for w in 0..waves {
        for src in 0..num_nodes {
            inj.push(Injection {
                src,
                dst: num_nodes - 1 - src,
                at: w * spacing,
            });
        }
    }
    inj
}

/// Which hot loop a measurement drives.
#[derive(Clone, Copy)]
enum Engine {
    /// The adaptive router's dense allocation-free path.
    Adaptive,
    /// The oblivious frontier engine on sparse (implicit) channel
    /// state: channel records materialise and recycle every wave.
    Frontier,
    /// Bounded queues with head-of-line blocking and credits.
    Bounded,
    /// The fault-aware runner, untraced, under this many link faults.
    Faulted(usize),
}

/// A plan of `faults` link faults on the lowest port of nodes 0, 1, 2.
fn link_faults(topo: &dyn NetTopology, faults: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for u in 0..faults {
        plan.add_link(u, topo.graph().neighbors(u)[0] as usize);
    }
    plan
}

fn run_waves(
    topo: &dyn NetTopology,
    engine: Engine,
    waves: u64,
    profiled: bool,
) -> (u64, SimStats) {
    let spacing = 64;
    let inj = wave_workload(topo.num_nodes(), waves, spacing);
    let mut cfg = SimConfig::bounded(waves * spacing + 10_000);
    if profiled {
        // Telemetry + profiling on: the work counters are plain locals
        // bumped per hop, and the Profile is built exactly once at run
        // end — a constant allocation count regardless of run length.
        cfg = cfg.with_telemetry(Telemetry::summary()).with_profile(true);
    }
    match engine {
        Engine::Adaptive => count_allocs(|| run_adaptive(topo, &inj, cfg)),
        Engine::Frontier => count_allocs(|| run(topo, &inj, cfg.with_implicit_topology(true))),
        Engine::Bounded => count_allocs(|| run_bounded(topo, &inj, cfg, 8)),
        Engine::Faulted(faults) => {
            let plan = link_faults(topo, faults);
            count_allocs(|| run_with_faults(topo, &inj, cfg, &plan, TraceSampling::Off))
        }
    }
}

fn assert_steady_state_alloc_free(topo: &dyn NetTopology, engine: Engine, profiled: bool) {
    let (short_waves, long_waves) = (2u64, 32u64);
    // Warm-up run so one-time lazy init (anything OnceLock-ish in the
    // stack below) is excluded from both measurements.
    let _ = run_waves(topo, engine, 1, profiled);
    let (allocs_short, stats_short) = run_waves(topo, engine, short_waves, profiled);
    let (allocs_long, stats_long) = run_waves(topo, engine, long_waves, profiled);
    // The long run really did ~16x the forwarding work...
    assert_eq!(
        stats_short.delivered,
        short_waves * topo.num_nodes() as u64,
        "{}: short run must deliver everything",
        topo.name()
    );
    assert_eq!(
        stats_long.delivered,
        long_waves * topo.num_nodes() as u64,
        "{}: long run must deliver everything",
        topo.name()
    );
    // ...yet allocated no more than the short run (identical per-run
    // setup, identical high-water marks): the steady-state hop path is
    // allocation-free. The slack absorbs allocator-internal noise.
    assert!(
        allocs_long <= allocs_short + 8,
        "{}: per-hop allocations detected: short run ({} waves) = {} allocs, \
         long run ({} waves) = {} allocs",
        topo.name(),
        short_waves,
        allocs_short,
        long_waves,
        allocs_long
    );
}

#[test]
fn hot_loops_steady_state_are_allocation_free() {
    let hc = HypercubeNet::new(6).unwrap();
    let hb = HyperButterflyNet::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
    assert_steady_state_alloc_free(&hc, Engine::Adaptive, false);
    assert_steady_state_alloc_free(&hb, Engine::Adaptive, false);
    // The deterministic profiler must not reintroduce per-hop
    // allocations: same bound with telemetry + profiling enabled.
    assert_steady_state_alloc_free(&hc, Engine::Adaptive, true);
    assert_steady_state_alloc_free(&hb, Engine::Adaptive, true);
    // Frontier engine over the implicit topology: the sparse channel
    // store's record recycling (materialise on touch, retire on drain)
    // must also settle to zero allocations per wave.
    let imp = ImplicitTopology::new(2, 3, HbRouteOrder::CubeFirst).unwrap();
    assert_steady_state_alloc_free(&imp, Engine::Frontier, false);
    assert_steady_state_alloc_free(&imp, Engine::Frontier, true);
    for engine in [Engine::Bounded, Engine::Faulted(0), Engine::Faulted(3)] {
        for profiled in [false, true] {
            assert_steady_state_alloc_free(&hc, engine, profiled);
            assert_steady_state_alloc_free(&hb, engine, profiled);
        }
    }
}
