//! Golden snapshots of the sequential walk's pipeline counters.
//!
//! With `threads == 1` the candidate walk is strictly deterministic, so the
//! *counts* in `PipelineStats` (never the timings) are exact invariants of
//! the pipeline: how many candidates were enumerated, tried and pruned, how
//! many systolic matrices were validated, how the probe cache behaved. Any
//! change to enumeration order, pruning, search or negotiation shows up
//! here first — update the goldens deliberately when the pipeline changes.

use himap_repro::cgra::{CgraSpec, Mrrg};
use himap_repro::core::{HiMap, HiMapOptions, Mapping, PipelineStats};
use himap_repro::kernels::Kernel;

/// The deterministic (count-only) projection of a `PipelineStats`.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    sub_shapes_tried: usize,
    sub_candidates: usize,
    candidates_enumerated: usize,
    candidates_deduped: usize,
    candidates_tried: usize,
    candidates_pruned: usize,
    candidates_abandoned: usize,
    systolic_searches: usize,
    systolic_matrices_tried: usize,
    systolic_maps_found: usize,
    layouts_tried: usize,
    route_attempts: usize,
    pathfinder_rounds: usize,
    replication_rounds: usize,
    probe_cache_hits: usize,
    probe_cache_misses: usize,
    router_searches: u64,
    router_nodes_popped: u64,
    router_heap_pushes: u64,
}

impl From<&PipelineStats> for Counts {
    fn from(p: &PipelineStats) -> Self {
        Counts {
            sub_shapes_tried: p.sub_shapes_tried,
            sub_candidates: p.sub_candidates,
            candidates_enumerated: p.candidates_enumerated,
            candidates_deduped: p.candidates_deduped,
            candidates_tried: p.candidates_tried,
            candidates_pruned: p.candidates_pruned,
            candidates_abandoned: p.candidates_abandoned,
            systolic_searches: p.systolic_searches,
            systolic_matrices_tried: p.systolic_matrices_tried,
            systolic_maps_found: p.systolic_maps_found,
            layouts_tried: p.layouts_tried,
            route_attempts: p.route_attempts,
            pathfinder_rounds: p.pathfinder_rounds,
            replication_rounds: p.replication_rounds,
            probe_cache_hits: p.probe_cache_hits,
            probe_cache_misses: p.probe_cache_misses,
            // `router_epoch_resets` is deliberately not snapshotted: it
            // counts scratch reallocations, which depend on the sizes of
            // *previously* routed graphs and therefore on candidate order
            // details that are not part of the pipeline contract.
            router_searches: p.router_searches,
            router_nodes_popped: p.router_nodes_popped,
            router_heap_pushes: p.router_heap_pushes,
        }
    }
}

/// The sequential walk in the paper's Fig. 8 regime: block = fabric,
/// `b = c`.
fn paper_regime(kernel: &Kernel, b: usize) -> (Mapping, PipelineStats) {
    let options = HiMapOptions { threads: 1, free_extents: vec![b], ..HiMapOptions::default() };
    let (result, stats) = HiMap::new(options).map_with_stats(kernel, &CgraSpec::square(b));
    (result.expect("kernel maps in the paper regime"), stats)
}

fn sequential_counts(kernel: &Kernel, cgra_size: usize) -> Counts {
    let himap = HiMap::new(HiMapOptions::default());
    let (result, stats) = himap.map_with_stats(kernel, &CgraSpec::square(cgra_size));
    result.expect("kernel maps");
    Counts::from(&stats)
}

#[test]
fn sequential_counts_are_stable_across_runs() {
    let kernel = himap_repro::kernels::suite::atax();
    assert_eq!(sequential_counts(&kernel, 4), sequential_counts(&kernel, 4));
}

#[test]
fn gemm_4x4_golden_counts() {
    // GEMM's best-ranked candidate verifies immediately: one tuple tried,
    // one layout routed, five negotiation/replication feedback passes.
    let got = sequential_counts(&himap_repro::kernels::suite::gemm(), 4);
    let want = Counts {
        sub_shapes_tried: 16,
        sub_candidates: 13,
        candidates_enumerated: 64,
        candidates_deduped: 92,
        candidates_tried: 1,
        candidates_pruned: 0,
        candidates_abandoned: 0,
        systolic_searches: 2,
        systolic_matrices_tried: 432,
        systolic_maps_found: 48,
        layouts_tried: 1,
        route_attempts: 5,
        pathfinder_rounds: 5,
        replication_rounds: 5,
        probe_cache_hits: 0,
        probe_cache_misses: 1,
        router_searches: 598,
        router_nodes_popped: 7086,
        router_heap_pushes: 10121,
    };
    assert_eq!(got, want);
}

#[test]
fn bicg_4x4_golden_counts() {
    // BiCG walks past four failing candidates (the paper's 100 %-utilization
    // shapes die in routing) before the fifth verifies — visible here as
    // 5 tried, 20 layouts routed and 39 negotiation attempts.
    let got = sequential_counts(&himap_repro::kernels::suite::bicg(), 4);
    let want = Counts {
        sub_shapes_tried: 36,
        sub_candidates: 30,
        candidates_enumerated: 50,
        candidates_deduped: 46,
        candidates_tried: 5,
        candidates_pruned: 0,
        candidates_abandoned: 0,
        systolic_searches: 10,
        systolic_matrices_tried: 432,
        systolic_maps_found: 48,
        layouts_tried: 20,
        route_attempts: 39,
        pathfinder_rounds: 414,
        replication_rounds: 23,
        probe_cache_hits: 2,
        probe_cache_misses: 3,
        router_searches: 24084,
        router_nodes_popped: 287_681,
        router_heap_pushes: 545_280,
    };
    assert_eq!(got, want);
}

/// gemm's paper-regime walk: the first candidate verifies, and its one
/// layout takes five negotiation/replication feedback passes. The counts
/// do not depend on `b`: the representatives and their routes are the
/// same at every block size.
fn gemm_paper_regime_counts() -> Counts {
    Counts {
        sub_shapes_tried: 16,
        sub_candidates: 13,
        candidates_enumerated: 31,
        candidates_deduped: 47,
        candidates_tried: 1,
        candidates_pruned: 0,
        candidates_abandoned: 0,
        systolic_searches: 2,
        systolic_matrices_tried: 432,
        systolic_maps_found: 48,
        layouts_tried: 1,
        route_attempts: 5,
        pathfinder_rounds: 5,
        replication_rounds: 5,
        probe_cache_hits: 0,
        probe_cache_misses: 1,
        router_searches: 598,
        router_nodes_popped: 7199,
        router_heap_pushes: 10169,
    }
}

#[test]
fn gemm_b16_paper_regime_golden_counts() {
    let (_, stats) = paper_regime(&himap_repro::kernels::suite::gemm(), 16);
    assert_eq!(Counts::from(&stats), gemm_paper_regime_counts());
}

#[test]
#[ignore = "paper-scale; run in release (ci.sh stage `fig8 paper-regime goldens`)"]
fn gemm_b32_paper_regime_golden_counts_and_index_memory() {
    let (_, stats) = paper_regime(&himap_repro::kernels::suite::gemm(), 32);
    assert_eq!(Counts::from(&stats), gemm_paper_regime_counts());
    // The negotiation's index covers the representatives' window, not the
    // 32x32 fabric (about 52 MiB as a full index).
    assert!(
        stats.memory.bytes <= 4 << 20,
        "routing index {:.1} MiB exceeds 4 MiB: {:?}",
        stats.memory.bytes as f64 / (1024.0 * 1024.0),
        stats.memory
    );
}

#[test]
#[ignore = "paper-scale; run in release (ci.sh stage `fig8 paper-regime goldens`)"]
fn ttm_b8_paper_regime_golden_counts() {
    // The replica-conflict case: 4 candidates and 15 layouts tried, 86
    // negotiation/replication feedback passes.
    let (_, stats) = paper_regime(&himap_repro::kernels::suite::ttm(), 8);
    let want = Counts {
        sub_shapes_tried: 16,
        sub_candidates: 13,
        candidates_enumerated: 46,
        candidates_deduped: 110,
        candidates_tried: 4,
        candidates_pruned: 0,
        candidates_abandoned: 0,
        systolic_searches: 8,
        systolic_matrices_tried: 4320,
        systolic_maps_found: 480,
        layouts_tried: 15,
        route_attempts: 86,
        pathfinder_rounds: 407,
        replication_rounds: 86,
        probe_cache_hits: 3,
        probe_cache_misses: 1,
        router_searches: 73_318,
        router_nodes_popped: 3_068_599,
        router_heap_pushes: 3_516_077,
    };
    assert_eq!(Counts::from(&stats), want);
}

#[test]
fn router_scratch_follows_the_routed_region_not_the_fabric() {
    // gemm in the paper's b = c = 16 regime. A dense search scratch over the
    // full 16x16 MRRG at the default 64-cycle elapsed cap would hold about
    // 103 MiB; paged scratch only holds the states the searches reach.
    let (mapping, stats) = paper_regime(&himap_repro::kernels::suite::gemm(), 16);
    assert!(stats.router_scratch_bytes > 0, "routing ran, so scratch was allocated");
    assert!(
        stats.router_scratch_bytes <= 16 << 20,
        "router scratch {:.1} MiB exceeds 16 MiB",
        stats.router_scratch_bytes as f64 / (1024.0 * 1024.0)
    );
    assert!(stats.summary().contains("router scratch"), "{}", stats.summary());
    // Likewise the routing index covers the representatives' window: far
    // fewer nodes than the 16x16 MRRG at the mapping's II.
    let full = Mrrg::new(CgraSpec::square(16), mapping.stats().iib).node_count();
    assert!(stats.memory.nodes * 8 < full, "index {:?} vs {full} MRRG nodes", stats.memory);
}

#[test]
fn classify_and_materialise_are_charged_and_stages_fit_in_wall_time() {
    // gemm in the paper's b = c = 16 regime, sequential walk, with the
    // verify hook installed and `verify: true`: layout classification,
    // mapping materialisation and the hook's cross-check each run and are
    // charged to their own stage, and the stages (each exclusive of the
    // others) never add up to more than the wall time.
    himap_repro::verify::install();
    let options = HiMapOptions {
        threads: 1,
        free_extents: vec![16],
        verify: true,
        ..HiMapOptions::default()
    };
    let (result, stats) = HiMap::new(options)
        .map_with_stats(&himap_repro::kernels::suite::gemm(), &CgraSpec::square(16));
    result.expect("gemm maps and verifies at b = c = 16");
    let t = &stats.times;
    assert!(t.classify > std::time::Duration::ZERO, "classify not charged: {t:?}");
    assert!(t.materialise > std::time::Duration::ZERO, "materialise not charged: {t:?}");
    assert!(t.verify > std::time::Duration::ZERO, "verify not charged: {t:?}");
    let exclusive = t.map
        + t.enumerate
        + t.probe
        + t.search
        + t.dfg
        + t.classify
        + t.route
        + t.replicate
        + t.materialise
        + t.index
        + t.verify;
    assert!(exclusive <= t.total, "stages {exclusive:?} exceed wall {:?}: {t:?}", t.total);
    let summary = stats.summary();
    for stage in ["classify", "materialise", "verify"] {
        assert!(summary.contains(stage), "{summary}");
    }
}
