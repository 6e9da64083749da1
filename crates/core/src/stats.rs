//! Pipeline instrumentation: per-stage wall time and candidate/cache
//! counters for every `HiMap::map` run, successful or not.
//!
//! The orchestrator threads one [`StatsCollector`] through every stage of
//! the candidate walk; workers on the parallel path update it concurrently
//! through atomics. [`PipelineStats`] is the immutable snapshot surfaced to
//! callers via [`MappingStats`](crate::MappingStats) and
//! [`HiMap::map_with_stats`](crate::HiMap::map_with_stats).
//!
//! Stage times are summed **across workers**, so with `threads > 1` they
//! measure aggregate CPU time per stage, not wall time; `total` is always
//! wall time. Counters are exact in both modes, but only the sequential walk
//! (`threads == 1`) makes them run-to-run reproducible — parallel runs may
//! try extra candidates past the winner before the early-exit flag
//! propagates.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use himap_analyze::StaticBounds;
use himap_cgra::MemoryStats;
use himap_mapper::RouterStats;

use crate::options::Attempt;

/// One work-queue worker's share of the parallel candidate walk.
///
/// The scheduler records one entry per spawned worker (none on the
/// sequential path), so `PipelineStats::workers` exposes how evenly the
/// queue drained and how much effort cancellation actually saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index in `0..threads`.
    pub worker: usize,
    /// Candidates this worker pulled from the queue and evaluated to a
    /// verdict (including ones whose routing was cancelled mid-flight).
    pub candidates_evaluated: usize,
    /// Candidates this worker abandoned — either before starting (a
    /// lower-index candidate already verified) or mid-route via the shared
    /// bound's cancel token.
    pub candidates_cancelled: usize,
    /// Wall time this worker spent evaluating candidates (its busy span,
    /// excluding queue idle time).
    pub busy: Duration,
}

/// Wall time spent in each pipeline stage (summed across workers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// `MAP()` — IDFG to sub-CGRA placement over all candidate shapes.
    pub map: Duration,
    /// Candidate enumeration: VSA construction and block dedup.
    pub enumerate: Duration,
    /// Dependence-distance probes (small-block DFG unrolls on cache misses).
    pub probe: Duration,
    /// Systolic `(H, S)` search, probe-filtered and exact passes.
    pub search: Duration,
    /// Full-block DFG unrolls.
    pub dfg: Duration,
    /// `ROUTE()` — PathFinder negotiation over class representatives.
    pub route: Duration,
    /// Replication of class patterns and full-array verification,
    /// including each layout's one-time replication plan.
    pub replicate: Duration,
    /// Layout construction and unique-iteration classification, per
    /// routed layout.
    pub classify: Duration,
    /// Mapping materialisation of the winning layout: op slots, the
    /// `Mapping` artifact and its configuration image.
    pub materialise: Duration,
    /// Dense MRRG index acquisition: per routed layout, the index of the
    /// representatives' PE window (`MrrgIndex::shared_window`), which
    /// compiles the window's CSR adjacency unless a cached index over the
    /// same or a larger window serves. Its cost follows the window, not the
    /// fabric. The index is acquired before negotiation starts, outside the
    /// `route` timer, so this time is not part of `route`.
    pub index: Duration,
    /// The installed verify hook's cross-check of the winning mapping
    /// (debug builds, or `HiMapOptions::verify`); zero when it did not run.
    pub verify: Duration,
    /// End-to-end wall time of the whole `map` call.
    pub total: Duration,
}

/// Counters and timings of one `HiMap::map` run.
///
/// Returned for successful *and* failed mapping attempts — see
/// [`HiMap::map_with_stats`](crate::HiMap::map_with_stats).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Per-stage times.
    pub times: StageTimes,
    /// Worker threads *requested* for the candidate walk (the resolved
    /// `HiMapOptions::threads`). The scheduler may spawn fewer: it clamps to
    /// the machine's cores and the candidate count, and short walks fall
    /// back to sequential entirely — `workers.len()` is the count actually
    /// spawned (0 on the sequential path).
    pub threads: usize,
    /// Sub-CGRA `(s1, s2, t)` shape/depth combinations `MAP()` attempted.
    pub sub_shapes_tried: usize,
    /// Relative sub-mappings `MAP()` produced (its candidate list).
    pub sub_candidates: usize,
    /// `(sub-candidate, block, space-assignment)` tuples enumerated.
    pub candidates_enumerated: usize,
    /// Tuples dropped during enumeration (no VSA tiling, duplicate block).
    pub candidates_deduped: usize,
    /// Tuples that entered evaluation.
    pub candidates_tried: usize,
    /// Tuples rejected before detailed routing (probe build failed, or no
    /// valid systolic mapping on probe or exact distances).
    pub candidates_pruned: usize,
    /// Tuples abandoned by the early-exit flag after a better-or-equal
    /// priority candidate fully verified (always 0 on the sequential walk).
    pub candidates_abandoned: usize,
    /// Systolic searches executed (up to two per tried tuple).
    pub systolic_searches: usize,
    /// Candidate `[H; S]` matrices validated across those searches.
    pub systolic_matrices_tried: usize,
    /// Valid ranked space-time maps found across those searches.
    pub systolic_maps_found: usize,
    /// `(tuple, ranked map)` layouts that entered detailed routing.
    pub layouts_tried: usize,
    /// `route_representatives` invocations (≥ 1 per layout: replication
    /// conflicts feed back into repeated negotiation).
    pub route_attempts: usize,
    /// PathFinder negotiation rounds consumed inside those invocations.
    pub pathfinder_rounds: usize,
    /// Replication rounds ([`ReplicaPlan::replicate`](crate::route::ReplicaPlan::replicate)
    /// invocations).
    pub replication_rounds: usize,
    /// Dependence-probe cache hits.
    pub probe_cache_hits: usize,
    /// Dependence-probe cache misses (a probe DFG was built).
    pub probe_cache_misses: usize,
    /// Dijkstra searches executed by the dense router across `MAP()` and
    /// `ROUTE()` (every `route*` call is one search).
    pub router_searches: u64,
    /// Heap entries popped across all router searches.
    pub router_nodes_popped: u64,
    /// Heap entries pushed across all router searches.
    pub router_heap_pushes: u64,
    /// Growth events of the routers' epoch-stamped scratch (pages allocated
    /// on first touch, plus epoch wraparound resets) — stays tiny when
    /// scratch reuse works.
    pub router_epoch_resets: u64,
    /// Router searches aborted by cooperative cancellation (the shared
    /// best-candidate bound dropped below the routing candidate's index).
    /// Always 0 on the sequential walk.
    pub router_searches_cancelled: u64,
    /// Per-worker busy/cancel counters from the work-queue scheduler; empty
    /// when the walk ran sequentially.
    pub workers: Vec<WorkerStats>,
    /// Recovery-ladder attempt trail: one entry per failed rung. Empty when
    /// the first attempt succeeded (the common case) or the ladder is
    /// disabled.
    pub attempts: Vec<Attempt>,
    /// Certified pre-mapping lower bounds from the `himap-analyze` admission
    /// pass; `None` when admission was disabled
    /// ([`HiMapOptions::admission`](crate::HiMapOptions)).
    pub static_bounds: Option<StaticBounds>,
    /// High-water mark of the dense MRRG indexes this run acquired —
    /// field-wise maximum of
    /// [`MrrgIndex::memory_stats`](himap_cgra::MrrgIndex::memory_stats)
    /// across every acquisition. On
    /// the `ROUTE()` path these are the representatives' window indexes, so
    /// the paper-regime tests and the mega-fabric tiled path assert this
    /// stays far below the full fabric's graph.
    pub memory: MemoryStats,
    /// High-water mark of one router's allocated search scratch, in bytes
    /// ([`Router::scratch_bytes`](himap_mapper::Router::scratch_bytes)),
    /// across the `MAP()` probe routers and the `ROUTE()` routers. Scratch
    /// pages are allocated where searches reach, so this follows the
    /// routed region rather than the fabric's state space.
    pub router_scratch_bytes: usize,
}

impl PipelineStats {
    /// Hit rate of the shared dependence-probe cache in `[0, 1]`; 1.0 when
    /// the cache was never consulted.
    pub fn probe_cache_hit_rate(&self) -> f64 {
        let total = self.probe_cache_hits + self.probe_cache_misses;
        if total == 0 {
            1.0
        } else {
            self.probe_cache_hits as f64 / total as f64
        }
    }

    /// Multi-line human-readable summary (what the bench binaries print).
    pub fn summary(&self) -> String {
        let t = &self.times;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut out = format!(
            "pipeline: {:.1} ms wall, {} thread{}\n\
             \x20 stages   MAP {:.1} ms | enumerate {:.1} ms | probe {:.1} ms | \
             search {:.1} ms | DFG {:.1} ms | classify {:.1} ms | ROUTE {:.1} ms | \
             replicate {:.1} ms | materialise {:.1} ms | index {:.1} ms | verify {:.1} ms\n\
             \x20 MAP      {} shapes tried -> {} sub-candidates\n\
             \x20 walk     {} enumerated (+{} deduped), {} tried, {} pruned, {} abandoned\n\
             \x20 systolic {} searches, {} matrices -> {} valid maps, {} layouts routed\n\
             \x20 route    {} attempts, {} pathfinder rounds, {} replications\n\
             \x20 router   {} searches ({} cancelled), {} nodes popped, {} heap pushes, \
             {} epoch resets\n\
             \x20 probes   {} hits / {} misses ({:.0}% hit rate)",
            ms(t.total),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            ms(t.map),
            ms(t.enumerate),
            ms(t.probe),
            ms(t.search),
            ms(t.dfg),
            ms(t.classify),
            ms(t.route),
            ms(t.replicate),
            ms(t.materialise),
            ms(t.index),
            ms(t.verify),
            self.sub_shapes_tried,
            self.sub_candidates,
            self.candidates_enumerated,
            self.candidates_deduped,
            self.candidates_tried,
            self.candidates_pruned,
            self.candidates_abandoned,
            self.systolic_searches,
            self.systolic_matrices_tried,
            self.systolic_maps_found,
            self.layouts_tried,
            self.route_attempts,
            self.pathfinder_rounds,
            self.replication_rounds,
            self.router_searches,
            self.router_searches_cancelled,
            self.router_nodes_popped,
            self.router_heap_pushes,
            self.router_epoch_resets,
            self.probe_cache_hits,
            self.probe_cache_misses,
            self.probe_cache_hit_rate() * 100.0,
        );
        if self.memory.nodes > 0 {
            out.push_str(&format!(
                "\n  memory   largest index {} nodes, {} edges, {:.1} MiB; router scratch {:.1} MiB",
                self.memory.nodes,
                self.memory.edges,
                self.memory.bytes as f64 / (1024.0 * 1024.0),
                self.router_scratch_bytes as f64 / (1024.0 * 1024.0),
            ));
        }
        if let Some(bounds) = &self.static_bounds {
            out.push_str(&format!("\n  static   {bounds}"));
        }
        for w in &self.workers {
            out.push_str(&format!(
                "\n  worker {}  {} evaluated, {} cancelled, {:.1} ms busy",
                w.worker,
                w.candidates_evaluated,
                w.candidates_cancelled,
                ms(w.busy),
            ));
        }
        for a in &self.attempts {
            out.push_str(&format!("\n  ladder   {a}"));
        }
        out
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Thread-safe accumulator behind [`PipelineStats`]. Workers update it
/// concurrently; `snapshot` freezes it into the public struct.
#[derive(Debug, Default)]
pub(crate) struct StatsCollector {
    map_nanos: AtomicU64,
    enumerate_nanos: AtomicU64,
    probe_nanos: AtomicU64,
    search_nanos: AtomicU64,
    dfg_nanos: AtomicU64,
    route_nanos: AtomicU64,
    replicate_nanos: AtomicU64,
    classify_nanos: AtomicU64,
    materialise_nanos: AtomicU64,
    index_nanos: AtomicU64,
    verify_nanos: AtomicU64,
    pub(crate) sub_shapes_tried: AtomicUsize,
    pub(crate) sub_candidates: AtomicUsize,
    pub(crate) candidates_enumerated: AtomicUsize,
    pub(crate) candidates_deduped: AtomicUsize,
    pub(crate) candidates_tried: AtomicUsize,
    pub(crate) candidates_pruned: AtomicUsize,
    pub(crate) candidates_abandoned: AtomicUsize,
    pub(crate) systolic_searches: AtomicUsize,
    pub(crate) systolic_matrices_tried: AtomicUsize,
    pub(crate) systolic_maps_found: AtomicUsize,
    pub(crate) layouts_tried: AtomicUsize,
    pub(crate) route_attempts: AtomicUsize,
    pub(crate) pathfinder_rounds: AtomicUsize,
    pub(crate) replication_rounds: AtomicUsize,
    pub(crate) probe_cache_hits: AtomicUsize,
    pub(crate) probe_cache_misses: AtomicUsize,
    router_searches: AtomicU64,
    router_nodes_popped: AtomicU64,
    router_heap_pushes: AtomicU64,
    router_epoch_resets: AtomicU64,
    router_searches_cancelled: AtomicU64,
    workers: Mutex<Vec<WorkerStats>>,
    /// Ladder attempt trail (written by the climb, not by workers).
    pub(crate) attempts: Mutex<Vec<Attempt>>,
    /// Best `(s1, s2, t)` sub-candidate of the most recent walk — the shape
    /// provenance of each ladder attempt's closest miss.
    pub(crate) best_sub_shape: Mutex<Option<(usize, usize, usize)>>,
    /// Static lower bounds from the admission pass (written once, up front).
    pub(crate) static_bounds: Mutex<Option<StaticBounds>>,
    /// High-water mark of acquired MRRG index footprints.
    memory: Mutex<MemoryStats>,
    /// High-water mark of one router's search scratch, in bytes.
    scratch_bytes: AtomicUsize,
}

/// The instrumented stages (each maps to one nanosecond accumulator).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stage {
    Map,
    Enumerate,
    Probe,
    Search,
    DfgBuild,
    Route,
    Replicate,
    Classify,
    Materialise,
    Verify,
}

impl StatsCollector {
    /// Runs `f`, charging its wall time to `stage`.
    pub(crate) fn timed<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let nanos = start.elapsed().as_nanos() as u64;
        let cell = match stage {
            Stage::Map => &self.map_nanos,
            Stage::Enumerate => &self.enumerate_nanos,
            Stage::Probe => &self.probe_nanos,
            Stage::Search => &self.search_nanos,
            Stage::DfgBuild => &self.dfg_nanos,
            Stage::Route => &self.route_nanos,
            Stage::Replicate => &self.replicate_nanos,
            Stage::Classify => &self.classify_nanos,
            Stage::Materialise => &self.materialise_nanos,
            Stage::Verify => &self.verify_nanos,
        };
        cell.fetch_add(nanos, Ordering::Relaxed);
        out
    }

    /// Adds `n` to a counter (convenience for the orchestrator).
    pub(crate) fn add(cell: &AtomicUsize, n: usize) {
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds one router's search-effort counters into the run totals.
    pub(crate) fn add_router(&self, r: RouterStats) {
        self.router_searches.fetch_add(r.searches, Ordering::Relaxed);
        self.router_nodes_popped.fetch_add(r.nodes_popped, Ordering::Relaxed);
        self.router_heap_pushes.fetch_add(r.heap_pushes, Ordering::Relaxed);
        self.router_epoch_resets.fetch_add(r.epoch_resets, Ordering::Relaxed);
        self.router_searches_cancelled.fetch_add(r.cancelled, Ordering::Relaxed);
    }

    /// Records one work-queue worker's busy/cancel tallies.
    pub(crate) fn record_worker(&self, w: WorkerStats) {
        crate::himap::lock(&self.workers).push(w);
    }

    /// Charges one window-index acquisition to the index stage.
    pub(crate) fn add_index_time(&self, d: Duration) {
        self.index_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Folds one acquired index's footprint into the run's high-water mark.
    pub(crate) fn record_memory(&self, m: MemoryStats) {
        let mut hw = crate::himap::lock(&self.memory);
        *hw = hw.max(m);
    }

    /// Folds one router's allocated search scratch into the high-water mark.
    pub(crate) fn record_scratch(&self, bytes: usize) {
        self.scratch_bytes.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Freezes the collector into the public snapshot.
    pub(crate) fn snapshot(&self, total: Duration, threads: usize) -> PipelineStats {
        let dur = |cell: &AtomicU64| Duration::from_nanos(cell.load(Ordering::Relaxed));
        let count = |cell: &AtomicUsize| cell.load(Ordering::Relaxed);
        let mut workers = crate::himap::lock(&self.workers).clone();
        workers.sort_by_key(|w| w.worker);
        PipelineStats {
            times: StageTimes {
                map: dur(&self.map_nanos),
                enumerate: dur(&self.enumerate_nanos),
                probe: dur(&self.probe_nanos),
                search: dur(&self.search_nanos),
                dfg: dur(&self.dfg_nanos),
                route: dur(&self.route_nanos),
                replicate: dur(&self.replicate_nanos),
                classify: dur(&self.classify_nanos),
                materialise: dur(&self.materialise_nanos),
                index: dur(&self.index_nanos),
                verify: dur(&self.verify_nanos),
                total,
            },
            threads,
            sub_shapes_tried: count(&self.sub_shapes_tried),
            sub_candidates: count(&self.sub_candidates),
            candidates_enumerated: count(&self.candidates_enumerated),
            candidates_deduped: count(&self.candidates_deduped),
            candidates_tried: count(&self.candidates_tried),
            candidates_pruned: count(&self.candidates_pruned),
            candidates_abandoned: count(&self.candidates_abandoned),
            systolic_searches: count(&self.systolic_searches),
            systolic_matrices_tried: count(&self.systolic_matrices_tried),
            systolic_maps_found: count(&self.systolic_maps_found),
            layouts_tried: count(&self.layouts_tried),
            route_attempts: count(&self.route_attempts),
            pathfinder_rounds: count(&self.pathfinder_rounds),
            replication_rounds: count(&self.replication_rounds),
            probe_cache_hits: count(&self.probe_cache_hits),
            probe_cache_misses: count(&self.probe_cache_misses),
            router_searches: self.router_searches.load(Ordering::Relaxed),
            router_nodes_popped: self.router_nodes_popped.load(Ordering::Relaxed),
            router_heap_pushes: self.router_heap_pushes.load(Ordering::Relaxed),
            router_epoch_resets: self.router_epoch_resets.load(Ordering::Relaxed),
            router_searches_cancelled: self.router_searches_cancelled.load(Ordering::Relaxed),
            workers,
            attempts: crate::himap::lock(&self.attempts).clone(),
            static_bounds: *crate::himap::lock(&self.static_bounds),
            memory: *crate::himap::lock(&self.memory),
            router_scratch_bytes: self.scratch_bytes.load(Ordering::Relaxed),
        }
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_charges_the_right_stage() {
        let c = StatsCollector::default();
        let v = c.timed(Stage::Route, || 7);
        assert_eq!(v, 7);
        let snap = c.snapshot(Duration::from_millis(1), 2);
        assert_eq!(snap.times.map, Duration::ZERO);
        assert_eq!(snap.threads, 2);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut s = PipelineStats::default();
        assert_eq!(s.probe_cache_hit_rate(), 1.0);
        s.probe_cache_hits = 3;
        s.probe_cache_misses = 1;
        assert!((s.probe_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_every_counter_family() {
        let s = PipelineStats { threads: 4, ..PipelineStats::default() };
        let text = s.summary();
        for needle in [
            "MAP",
            "walk",
            "systolic",
            "route",
            "router",
            "epoch resets",
            "probes",
            "verify",
            "4 threads",
        ] {
            assert!(text.contains(needle), "summary missing {needle}: {text}");
        }
    }

    #[test]
    fn router_counters_flow_into_snapshot() {
        let c = StatsCollector::default();
        c.add_router(RouterStats {
            searches: 3,
            nodes_popped: 100,
            heap_pushes: 250,
            epoch_resets: 1,
            cancelled: 2,
        });
        c.add_router(RouterStats {
            searches: 2,
            nodes_popped: 50,
            heap_pushes: 75,
            epoch_resets: 0,
            cancelled: 1,
        });
        c.add_index_time(Duration::from_micros(40));
        let snap = c.snapshot(Duration::from_millis(1), 1);
        assert_eq!(snap.router_searches, 5);
        assert_eq!(snap.router_nodes_popped, 150);
        assert_eq!(snap.router_heap_pushes, 325);
        assert_eq!(snap.router_epoch_resets, 1);
        assert_eq!(snap.router_searches_cancelled, 3);
        assert_eq!(snap.times.index, Duration::from_micros(40));
    }

    #[test]
    fn worker_stats_sorted_and_summarised() {
        let c = StatsCollector::default();
        c.record_worker(WorkerStats {
            worker: 1,
            candidates_evaluated: 4,
            candidates_cancelled: 1,
            busy: Duration::from_millis(3),
        });
        c.record_worker(WorkerStats {
            worker: 0,
            candidates_evaluated: 6,
            candidates_cancelled: 0,
            busy: Duration::from_millis(5),
        });
        let snap = c.snapshot(Duration::from_millis(9), 2);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].worker, 0);
        assert_eq!(snap.workers[1].candidates_cancelled, 1);
        let text = snap.summary();
        assert!(text.contains("worker 0"), "summary missing worker rows: {text}");
        assert!(text.contains("cancelled"), "summary missing cancel tally: {text}");
    }
}
