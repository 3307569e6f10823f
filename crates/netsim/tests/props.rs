//! Property tests for the simulator: conservation laws and
//! oblivious-vs-adaptive invariants under randomized workloads.

use hb_netsim::topology::{HbRouteOrder, HyperButterflyNet, HypercubeNet, NetTopology};
use hb_netsim::{run, run_adaptive, sim::SimConfig, workload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packet conservation: delivered + stranded = offered, always.
    #[test]
    fn packets_are_conserved(rate in 1u32..60, cycles in 1u64..40, seed in 0u64..500,
                             max_cycles in 1u64..400) {
        let t = HypercubeNet::new(4).unwrap();
        let inj = workload::uniform(t.num_nodes(), cycles, rate as f64 / 100.0, seed);
        let cfg = SimConfig::bounded(max_cycles);
        let s = run(&t, &inj, cfg.clone());
        prop_assert_eq!(s.delivered + s.stranded, s.offered);
        let sa = run_adaptive(&t, &inj, cfg.clone());
        prop_assert_eq!(sa.delivered + sa.stranded, sa.offered);
    }

    /// With an unbounded cycle budget everything is delivered, latency is
    /// at least the hop count, and hops are at least 1 for non-self pairs.
    #[test]
    fn full_drain_invariants(rate in 1u32..40, cycles in 1u64..30, seed in 0u64..500) {
        let t = HyperButterflyNet::new(1, 3, HbRouteOrder::CubeFirst).unwrap();
        let inj = workload::uniform(t.num_nodes(), cycles, rate as f64 / 100.0, seed);
        let cfg = SimConfig::bounded(1_000_000);
        let s = run(&t, &inj, cfg);
        prop_assert_eq!(s.stranded, 0);
        prop_assert_eq!(s.delivered, s.offered);
        if s.delivered > 0 {
            prop_assert!(s.avg_latency >= s.avg_hops);
            prop_assert!(s.avg_hops >= 0.0);
        }
    }

    /// Adaptive routing keeps hop counts minimal: its mean hops equal the
    /// oblivious router's mean hops (both shortest) on any workload.
    #[test]
    fn adaptive_stays_minimal(seed in 0u64..500, rounds in 1u64..4) {
        let t = HypercubeNet::new(4).unwrap();
        let inj = workload::permutation(t.num_nodes(), rounds, 3, seed);
        let cfg = SimConfig::bounded(1_000_000);
        let obl = run(&t, &inj, cfg.clone());
        let ada = run_adaptive(&t, &inj, cfg);
        prop_assert_eq!(obl.delivered, ada.delivered);
        prop_assert!((obl.avg_hops - ada.avg_hops).abs() < 1e-9,
                     "{} vs {}", obl.avg_hops, ada.avg_hops);
    }

    /// Workload generators never emit out-of-range or (except self-
    /// addressed patterns) diagonal injections, and stay sorted.
    #[test]
    fn workloads_are_well_formed(n in 2usize..64, cycles in 1u64..20, seed in 0u64..1000) {
        for inj in [
            workload::uniform(n, cycles, 0.3, seed),
            workload::hotspot(n, cycles, 0.3, 0, 0.5, seed),
            workload::permutation(n, 2, 3, seed),
        ] {
            prop_assert!(inj.windows(2).all(|w| w[0].at <= w[1].at));
            prop_assert!(inj.iter().all(|i| i.src < n && i.dst < n && i.src != i.dst));
        }
    }

    /// Cross-scoreboard link-stat merging is order-independent: partial
    /// runs merged into one handle in any order yield identical totals,
    /// per-link counters, and max utilization. This is the property the
    /// simulator's end-of-run merge of its per-shard recorders relies on
    /// when several runs or shards share one handle.
    #[test]
    fn link_stat_merge_is_order_independent(seed in 0u64..200, rate in 5u32..40) {
        let t = HypercubeNet::new(4).unwrap();
        let n = t.num_nodes();
        // Three disjoint partial workloads = three per-run scoreboards.
        let parts: Vec<Vec<hb_netsim::Injection>> = (0..3)
            .map(|k| workload::uniform(n, 10, rate as f64 / 100.0, seed ^ (k * 7 + 1)))
            .collect();
        let stats_of = |order: &[usize]| {
            let tel = hb_telemetry::Telemetry::summary();
            for &k in order {
                run(&t, &parts[k], SimConfig::default().with_telemetry(tel.clone()));
            }
            tel.links()
        };
        let forward = stats_of(&[0, 1, 2]);
        let backward = stats_of(&[2, 1, 0]);
        let rotated = stats_of(&[1, 2, 0]);
        prop_assert_eq!(forward.total_forwarded(), backward.total_forwarded());
        // Full per-link equality (forwarded, busy, peak) in every order…
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &rotated);
        // …hence identical max utilization at any cycle horizon.
        let max_util = |ls: &hb_telemetry::LinkStats| {
            ls.utilization_rows(1_000)
                .first()
                .map(|r| r.utilization)
                .unwrap_or(0.0)
        };
        prop_assert_eq!(max_util(&forward), max_util(&backward));
        prop_assert_eq!(max_util(&forward), max_util(&rotated));
    }
}
