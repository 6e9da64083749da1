//! The HiMap orchestrator (Algorithm 1 top level).
//!
//! The candidate walk is staged: [`enumerate_candidates`] materializes every
//! `(sub-candidate, block, space-assignment)` tuple up front in the exact
//! best-utilization-first order the sequential Algorithm-1 loop visits, then
//! the tuples are evaluated either in order on this thread or on a
//! work-queue scheduler of long-lived workers. The candidates are
//! independent, so the winner is defined purely by enumeration order: the
//! lowest-index tuple whose verdict is terminal. That definition is
//! order-free — any execution order that only abandons a candidate once a
//! strictly lower index is terminal selects the same winner — which is what
//! lets the scheduler take liberties with *dispatch* order (cheap candidates
//! first) and with cancellation (mid-route aborts through
//! [`CancelToken`](himap_mapper::CancelToken)) while staying bit-identical
//! to the sequential walk. The parallel path is observable only through
//! [`PipelineStats`] and wall time.
//!
//! Each worker owns an [`EvalScratch`]: one long-lived [`Router`], rebound
//! to each layout's window index and keeping its epoch-reset search
//! scratch, so routing a candidate costs a [`Router::reset`] (or a
//! [`Router::rebind`] on a new layout) instead of a full router
//! construction.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use himap_baseline::{baseline_block, bhc, BaselineMapping, BaselineOptions};
use himap_cgra::{CgraSpec, MrrgIndex, Vsa};
use himap_dfg::{Dfg, NodeKind};
use himap_kernels::Kernel;
use himap_mapper::{CancelToken, Router, RouterConfig};
use himap_systolic::{search_counted, SearchConfig};

use crate::layout::Layout;
use crate::mapping::{Mapping, MappingStats};
use crate::options::{Attempt, HiMapError, HiMapOptions, MapReport};
use crate::route::{representative_window, route_representatives_pooled, ReplicaPlan};
use crate::stats::{PipelineStats, Stage, StatsCollector, WorkerStats};
use crate::submap::{map_idfg_counted, SubMapping};
use crate::unique::classify;

/// The HiMap mapper.
///
/// See the crate docs for the pipeline; construct with options and call
/// [`HiMap::map`].
#[derive(Clone, Debug, Default)]
pub struct HiMap {
    options: HiMapOptions,
}

/// What [`HiMap::map_recover`] recovered: the result of whichever ladder
/// rung succeeded first.
#[derive(Clone, Debug)]
pub enum Recovered {
    /// A HiMap rung produced a fully routed and verified [`Mapping`].
    HiMap(Box<Mapping>),
    /// The ladder fell through to the baseline SPR/SA mapper: a
    /// placement-only modulo schedule with no explicit routes (check it with
    /// `himap-verify`'s baseline verifier, not the mapping verifier).
    Baseline(Box<BaselineMapping>),
}

impl Recovered {
    /// The HiMap mapping, when that rung won.
    pub fn as_himap(&self) -> Option<&Mapping> {
        match self {
            Recovered::HiMap(mapping) => Some(mapping),
            Recovered::Baseline(_) => None,
        }
    }

    /// The baseline fallback mapping, when the ladder fell through.
    pub fn as_baseline(&self) -> Option<&BaselineMapping> {
        match self {
            Recovered::HiMap(_) => None,
            Recovered::Baseline(baseline) => Some(baseline),
        }
    }
}

/// Builds the attempt-trail report of a failed climb and mirrors the trail
/// into the stats collector so [`PipelineStats`] surfaces it too.
fn report(stats: &StatsCollector, attempts: Vec<Attempt>, started: Instant) -> MapReport {
    record_attempts(stats, &attempts);
    MapReport {
        attempts,
        elapsed: started.elapsed(),
        static_bounds: lock(&stats.static_bounds).map(Box::new),
    }
}

/// Replaces the collector's recorded attempt trail with `attempts`.
fn record_attempts(stats: &StatsCollector, attempts: &[Attempt]) {
    *lock(&stats.attempts) = attempts.to_vec();
}

/// Distinct dependence distances probed on a small block:
/// `(mesh, memory-routed, anti)`.
type Deps = (Vec<himap_dfg::Iter4>, Vec<himap_dfg::Iter4>, Vec<himap_dfg::Iter4>);

/// One enumerated `(sub-candidate, block, space-assignment)` tuple. Its
/// position in the enumeration is its priority: lower index wins.
#[derive(Clone, Debug)]
struct Candidate {
    sub: SubMapping,
    vsa: Vsa,
    block: Vec<usize>,
}

/// The outcome of evaluating one candidate.
enum Verdict {
    /// Fully placed, routed, replicated and verified.
    Mapped(Box<Mapping>),
    /// Rejected before detailed routing (probe failed or no valid systolic
    /// mapping); the sequential walk would `continue`.
    Pruned,
    /// Reached detailed routing and failed there; sets the "furthest stage"
    /// error of an unsuccessful walk.
    RouteFailed,
    /// Full-block DFG construction failed; the sequential walk aborts with
    /// this error immediately, so it is terminal like `Mapped`.
    DfgError(String),
    /// Abandoned by the early-exit flag: some candidate of better-or-equal
    /// priority already fully verified, so this one cannot win.
    Abandoned,
    /// A worker panicked while evaluating this candidate. Terminal: the
    /// panic means a bug, and hiding it behind "no systolic mapping" would
    /// misdiagnose the walk; the walk aborts with
    /// [`HiMapError::Internal`] instead.
    Internal(String),
}

impl Verdict {
    /// Terminal verdicts end the walk at their candidate's priority.
    fn is_terminal(&self) -> bool {
        matches!(self, Verdict::Mapped(_) | Verdict::DfgError(_) | Verdict::Internal(_))
    }
}

impl HiMap {
    /// Creates a mapper with the given options.
    pub fn new(options: HiMapOptions) -> Self {
        HiMap { options }
    }

    /// The options in use.
    pub fn options(&self) -> &HiMapOptions {
        &self.options
    }

    /// Maps `kernel` onto `cgra`, maximizing utilization.
    ///
    /// Walks the `MAP()` candidates best-utilization-first; for each, builds
    /// the VSA, chooses block sizes to fit it, searches systolic mappings,
    /// routes the unique iterations and replicates. The first fully verified
    /// combination wins — exactly the iterate-until-valid structure of
    /// Algorithm 1. With `options.threads > 1` the candidates are evaluated
    /// concurrently, but the winner (and therefore every quality statistic)
    /// is identical to the sequential walk's.
    ///
    /// # Errors
    ///
    /// Returns a [`HiMapError`] describing the furthest stage reached when
    /// every candidate fails.
    pub fn map(&self, kernel: &Kernel, cgra: &CgraSpec) -> Result<Mapping, HiMapError> {
        self.map_with_stats(kernel, cgra).0
    }

    /// [`HiMap::map`], additionally returning the [`PipelineStats`] of the
    /// run — for failed attempts too, which is the only way to observe
    /// where an unmappable kernel's candidates died.
    ///
    /// On success the same snapshot is also embedded in the mapping's
    /// [`MappingStats::pipeline`](crate::MappingStats).
    pub fn map_with_stats(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
    ) -> (Result<Mapping, HiMapError>, PipelineStats) {
        self.map_cancellable(kernel, cgra, None)
    }

    /// [`HiMap::map_with_stats`] under an external [`CancelToken`]: the
    /// token is chained under every internal cancellation scope (the walk's
    /// deadline token and each parallel candidate's bound token), so firing
    /// it stops probe routing, candidate evaluation and detailed routing
    /// within a poll interval. The portfolio racer uses this to cut losing
    /// backends.
    ///
    /// External cancellation surfaces as [`HiMapError::DeadlineExceeded`]
    /// with the partial attempt trail; callers that need to distinguish a
    /// fired bound from a passed deadline ask the token
    /// ([`CancelToken::deadline_passed`]).
    pub fn map_cancellable(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
        external: Option<&CancelToken>,
    ) -> (Result<Mapping, HiMapError>, PipelineStats) {
        let wall = Instant::now();
        let stats = StatsCollector::default();
        let result = self.climb(kernel, cgra, &stats, wall, external);
        let pipeline = stats.snapshot(wall.elapsed(), self.options.effective_threads());
        let result = result.map(|mut mapping| {
            mapping.set_pipeline_stats(pipeline.clone());
            mapping
        });
        (result, pipeline)
    }

    /// [`HiMap::map`] with the full recovery ladder, including the baseline
    /// SPR/SA fallback rung (`options.recovery.baseline_fallback`).
    ///
    /// The baseline mapper produces a placement-only modulo schedule with no
    /// explicit routes, so a fallback result cannot be a [`Mapping`]; this is
    /// the only entry point that can return [`Recovered::Baseline`], and
    /// [`HiMap::map`] / [`HiMap::map_with_stats`] climb the HiMap rungs only.
    ///
    /// # Errors
    ///
    /// [`HiMapError::Exhausted`] when every rung (baseline included) fails,
    /// [`HiMapError::DeadlineExceeded`] when `options.deadline` cut the climb
    /// short, or the bare underlying error for single-attempt runs.
    pub fn map_recover(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
    ) -> (Result<Recovered, HiMapError>, PipelineStats) {
        let wall = Instant::now();
        let stats = StatsCollector::default();
        let climbed = self.climb(kernel, cgra, &stats, wall, None);
        let result = match climbed {
            Ok(mapping) => Ok(Recovered::HiMap(Box::new(mapping))),
            Err(err) => self.baseline_rung(kernel, cgra, &stats, wall, err),
        };
        let pipeline = stats.snapshot(wall.elapsed(), self.options.effective_threads());
        let result = result.map(|recovered| match recovered {
            Recovered::HiMap(mut mapping) => {
                mapping.set_pipeline_stats(pipeline.clone());
                Recovered::HiMap(mapping)
            }
            baseline => baseline,
        });
        (result, pipeline)
    }

    /// Climbs the HiMap rungs of the recovery ladder: the configured
    /// attempt first, then II bumps and the widened retry
    /// (`options.recovery`), each under `options.deadline`.
    ///
    /// Compatibility rule: a climb that made exactly one attempt with no
    /// deadline configured returns the bare underlying error (the ladder is
    /// invisible unless it actually ran); otherwise failures carry the
    /// structured [`MapReport`] attempt trail.
    fn climb(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
        stats: &StatsCollector,
        started: Instant,
        external: Option<&CancelToken>,
    ) -> Result<Mapping, HiMapError> {
        // Admission control: the static analyzer's certified bounds are
        // computed once, up front. A statically infeasible request is
        // rejected here — before a single DFG or MRRG exists — and every
        // rung would fail identically, so the ladder never climbs past it.
        // A feasible request records its certified II floor for the stats
        // snapshot and the attempt-trail reports.
        if self.options.admission {
            let analysis = himap_analyze::analyze_kernel(
                kernel,
                cgra,
                &himap_analyze::AnalyzeOptions::default(),
            );
            *lock(&stats.static_bounds) = Some(analysis.bounds);
            if !analysis.is_feasible() {
                return Err(HiMapError::Infeasible(analysis.diagnostics.render_pretty()));
            }
        }
        let deadline = self.options.deadline.map(|budget| started + budget);
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut last: Option<HiMapError> = None;
        for (rung, (stage, options)) in self.rung_plan().into_iter().enumerate() {
            if deadline.is_some_and(|d| Instant::now() >= d)
                || external.is_some_and(CancelToken::is_cancelled)
            {
                return Err(HiMapError::DeadlineExceeded(report(stats, attempts, started)));
            }
            let attempt_start = Instant::now();
            let mapper = HiMap { options };
            let outcome = mapper.walk(kernel, cgra, stats, deadline, external);
            match outcome {
                Ok(mapping) => {
                    // A success after failed rungs still surfaces the trail
                    // through `PipelineStats`.
                    record_attempts(stats, &attempts);
                    return Ok(mapping);
                }
                Err(err) => {
                    let shape = *lock(&stats.best_sub_shape);
                    attempts.push(Attempt {
                        rung,
                        stage,
                        shape,
                        ii: shape.map(|(_, _, t)| t),
                        cause: err.to_string(),
                        elapsed: attempt_start.elapsed(),
                    });
                    if deadline.is_some_and(|d| Instant::now() >= d)
                        || external.is_some_and(CancelToken::is_cancelled)
                    {
                        return Err(HiMapError::DeadlineExceeded(report(stats, attempts, started)));
                    }
                    if !err.is_recoverable() {
                        return Err(err);
                    }
                    last = Some(err);
                }
            }
        }
        if attempts.len() <= 1 && deadline.is_none() {
            // Single-attempt, no-deadline runs keep the pre-ladder error
            // surface: the bare furthest-stage variant.
            return Err(last.unwrap_or(HiMapError::NoSubMapping));
        }
        Err(HiMapError::Exhausted(report(stats, attempts, started)))
    }

    /// The HiMap rungs as `(stage label, options)` pairs: the configured
    /// options first, then each II bump widening the time-slack window, then
    /// the widened-candidate retry. The baseline rung is not an options
    /// tweak and lives in [`HiMap::map_recover`].
    fn rung_plan(&self) -> Vec<(String, HiMapOptions)> {
        let base = &self.options;
        let mut rungs = vec![("himap".to_string(), base.clone())];
        for bump in 1..=base.recovery.ii_bumps {
            let mut options = base.clone();
            options.max_time_slack = base.max_time_slack + bump;
            rungs.push((format!("himap+ii{bump}"), options));
        }
        if base.recovery.widen {
            let mut options = base.clone();
            options.max_time_slack = base.max_time_slack + base.recovery.ii_bumps + 1;
            for extent in [8, 6, 3, 1] {
                if !options.free_extents.contains(&extent) {
                    options.free_extents.push(extent);
                }
            }
            options.max_sub_candidates = base.max_sub_candidates.saturating_mul(2);
            options.max_systolic_candidates = base.max_systolic_candidates.saturating_mul(2);
            options.replication_feedback_rounds =
                base.replication_feedback_rounds.saturating_add(2);
            rungs.push(("himap+widen".to_string(), options));
        }
        rungs
    }

    /// The last rung: the baseline SPR/SA mapper on the fault-masked fabric,
    /// under whatever deadline budget the HiMap rungs left over. `err` is
    /// the climb's failure; when the rung is disabled or the failure is not
    /// recoverable it passes through unchanged.
    fn baseline_rung(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
        stats: &StatsCollector,
        started: Instant,
        err: HiMapError,
    ) -> Result<Recovered, HiMapError> {
        let recoverable = match &err {
            HiMapError::Exhausted(_) => true,
            HiMapError::DeadlineExceeded(_) => false,
            other => other.is_recoverable(),
        };
        if !self.options.recovery.baseline_fallback || !recoverable {
            return Err(err);
        }
        let deadline = self.options.deadline.map(|budget| started + budget);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(err);
        }
        let attempt_start = Instant::now();
        let mut baseline_options = BaselineOptions::default();
        if let Some(d) = deadline {
            baseline_options.timeout = d.saturating_duration_since(attempt_start);
        }
        let block = baseline_block(kernel, &baseline_options);
        let cause = match Dfg::build(kernel, &block) {
            Ok(dfg) => match bhc(&dfg, cgra, &baseline_options).best() {
                Some(best) => {
                    let mut attempts = match err {
                        HiMapError::Exhausted(report) => report.attempts,
                        _ => Vec::new(),
                    };
                    attempts.push(Attempt {
                        rung: attempts.len(),
                        stage: "baseline-bhc".to_string(),
                        shape: None,
                        ii: Some(best.ii),
                        cause: format!("recovered via {:?}", best.algorithm),
                        elapsed: attempt_start.elapsed(),
                    });
                    record_attempts(stats, &attempts);
                    return Ok(Recovered::Baseline(Box::new(best.clone())));
                }
                None => "baseline mapper found no valid mapping".to_string(),
            },
            Err(e) => format!("baseline block DFG failed: {e}"),
        };
        // The rung failed: extend the trail and re-wrap.
        let mut attempts = match err {
            HiMapError::Exhausted(report) => report.attempts,
            other => vec![Attempt {
                rung: 0,
                stage: "himap".to_string(),
                shape: None,
                ii: None,
                cause: other.to_string(),
                elapsed: attempt_start.duration_since(started),
            }],
        };
        attempts.push(Attempt {
            rung: attempts.len(),
            stage: "baseline-bhc".to_string(),
            shape: None,
            ii: None,
            cause,
            elapsed: attempt_start.elapsed(),
        });
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(HiMapError::DeadlineExceeded(report(stats, attempts, started)));
        }
        Err(HiMapError::Exhausted(report(stats, attempts, started)))
    }

    /// Enumerates the candidate tuples and drives their evaluation.
    ///
    /// `deadline` (from [`HiMapOptions::deadline`]) is enforced
    /// cooperatively: it arms the [`CancelToken`] of every evaluation, so
    /// MAP()'s probe routing, candidate evaluation and detailed routing all
    /// stop within a poll interval of the wall-clock bound.
    fn walk(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
        stats: &StatsCollector,
        deadline: Option<Instant>,
        external: Option<&CancelToken>,
    ) -> Result<Mapping, HiMapError> {
        if kernel.dims() < 2 {
            return Err(HiMapError::UnsupportedKernel(format!(
                "kernel `{}` is {}-dimensional; HiMap targets multi-dimensional kernels",
                kernel.name(),
                kernel.dims()
            )));
        }
        // Merge the walk's own deadline scope with the caller's token: the
        // chained token cancels when either does.
        let token = match (deadline, external) {
            (Some(d), Some(ext)) => Some(CancelToken::until(d).with_parent(ext.clone())),
            (Some(d), None) => Some(CancelToken::until(d)),
            (None, Some(ext)) => Some(ext.clone()),
            (None, None) => None,
        };
        let (subs, sub_stats) = stats
            .timed(Stage::Map, || map_idfg_counted(kernel, cgra, &self.options, token.as_ref()));
        StatsCollector::add(&stats.sub_shapes_tried, sub_stats.shapes_tried);
        StatsCollector::add(&stats.sub_candidates, subs.len());
        stats.add_router(sub_stats.router);
        stats.record_scratch(sub_stats.scratch_bytes);
        // Remember the best sub-candidate of this walk for the ladder's
        // attempt trail (shape and II of the closest miss).
        *lock(&stats.best_sub_shape) = subs.first().map(|s| (s.s1, s.s2, s.t));
        if subs.is_empty() {
            return Err(HiMapError::NoSubMapping);
        }
        let candidates = stats.timed(Stage::Enumerate, || {
            enumerate_candidates(kernel, cgra, &subs, &self.options, stats)
        });
        let ctx = EvalCtx {
            kernel,
            cgra,
            options: &self.options,
            stats,
            probe_cache: Mutex::new(HashMap::new()),
        };
        // The scheduler clamps the requested thread count to the machine and
        // falls back to the strictly sequential walk for short candidate
        // lists; both paths produce the same winner.
        let workers = self.options.scheduled_workers(candidates.len());
        let verdicts = if workers <= 1 {
            evaluate_sequential(&ctx, &candidates, token.as_ref())
        } else {
            evaluate_parallel(&ctx, &candidates, workers, deadline, external)
        };
        // The winner is the lowest-priority terminal verdict; with none, the
        // walk's error is the furthest stage any candidate reached.
        let mut route_failed = false;
        for verdict in verdicts {
            match verdict {
                Verdict::Mapped(mapping) => {
                    stats.timed(Stage::Verify, || self.cross_check(&mapping))?;
                    return Ok(*mapping);
                }
                Verdict::DfgError(why) => return Err(HiMapError::Dfg(why)),
                Verdict::Internal(why) => {
                    return Err(HiMapError::Internal(format!(
                        "candidate walk worker panicked: {why}"
                    )))
                }
                Verdict::RouteFailed => route_failed = true,
                Verdict::Pruned | Verdict::Abandoned => {}
            }
        }
        if route_failed {
            Err(HiMapError::RoutingFailed)
        } else {
            Err(HiMapError::NoSystolicMapping)
        }
    }

    /// Runs the installed external verifier (see [`crate::set_verify_hook`])
    /// over a winning mapping — always in debug builds, and in release
    /// builds when `options.verify` is set. A rejection aborts the walk with
    /// [`HiMapError::Verification`]: returning a mapping the independent
    /// checker calls illegal would defeat the point of having one.
    fn cross_check(&self, mapping: &Mapping) -> Result<(), HiMapError> {
        if !(self.options.verify || cfg!(debug_assertions)) {
            return Ok(());
        }
        match crate::verify_hook() {
            // The hook is external code; a panic in it is its bug, not a
            // reason to tear down the caller — surface it as `Internal`.
            Some(hook) => match catch_unwind(AssertUnwindSafe(|| hook(mapping))) {
                Ok(result) => result.map_err(HiMapError::Verification),
                Err(payload) => Err(HiMapError::Internal(format!(
                    "verify hook panicked: {}",
                    panic_message(payload.as_ref())
                ))),
            },
            None => Ok(()),
        }
    }
}

/// Shared read-only context of one walk, plus the shared probe cache.
struct EvalCtx<'a> {
    kernel: &'a Kernel,
    cgra: &'a CgraSpec,
    options: &'a HiMapOptions,
    stats: &'a StatsCollector,
    /// Dependence distances are block-size independent; probe them once per
    /// probe-block shape to pre-filter space-dimension assignments without
    /// unrolling full blocks. Shared across workers.
    probe_cache: Mutex<HashMap<Vec<usize>, Deps>>,
}

/// Materializes every `(sub-candidate, block, space-assignment)` tuple in
/// the order the sequential Algorithm-1 walk visits them: sub-candidates
/// best-utilization-first, free extents and space assignments in option
/// order, duplicate blocks within one sub-candidate dropped.
fn enumerate_candidates(
    kernel: &Kernel,
    cgra: &CgraSpec,
    subs: &[SubMapping],
    options: &HiMapOptions,
    stats: &StatsCollector,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let mut deduped = 0usize;
    for sub in subs.iter().take(options.max_sub_candidates) {
        let Ok(vsa) = Vsa::new(cgra.clone(), sub.s1, sub.s2) else {
            continue;
        };
        // Different (free extent, space assignment) pairs often produce the
        // same block; each distinct block is tried once.
        let mut tried_blocks: std::collections::HashSet<Vec<usize>> =
            std::collections::HashSet::new();
        for free_extent in options.free_extents.iter().copied() {
            for (p, q) in space_assignments(kernel.dims(), vsa.rows(), vsa.cols()) {
                let block = block_for_assignment(kernel.dims(), &vsa, free_extent, p, q);
                if !tried_blocks.insert(block.clone()) {
                    deduped += 1;
                    continue;
                }
                out.push(Candidate { sub: sub.clone(), vsa: vsa.clone(), block });
            }
        }
    }
    StatsCollector::add(&stats.candidates_enumerated, out.len());
    StatsCollector::add(&stats.candidates_deduped, deduped);
    out
}

/// Per-worker reusable evaluation state: one long-lived router, rebound to
/// the window index of each layout it routes. The window indexes come from
/// the process-wide share cache, so workers routing the same layout hold
/// cloned `Arc`s of one build; the congestion vectors and epoch-stamped
/// search scratch are private per worker and survive from candidate to
/// candidate.
struct EvalScratch {
    router: Option<Router>,
}

impl EvalScratch {
    fn new() -> Self {
        EvalScratch { router: None }
    }

    /// The pooled router, bound to `index`.
    fn router_on(&mut self, index: &Arc<MrrgIndex>) -> &mut Router {
        let router = self
            .router
            .get_or_insert_with(|| Router::with_index(Arc::clone(index), RouterConfig::default()));
        if !Arc::ptr_eq(router.index(), index) {
            router.rebind(Arc::clone(index));
        }
        router
    }
}

/// Evaluates candidates strictly in order on the calling thread, stopping at
/// the first terminal verdict — the literal Algorithm-1 walk. Routers are
/// pooled across candidates exactly as on the parallel path, so the walk's
/// deterministic counters (`tests/pipeline_stats.rs` goldens) are those of
/// the pooled router: [`Router::reset`] restores the search-visible state a
/// freshly built router would have.
fn evaluate_sequential(
    ctx: &EvalCtx<'_>,
    candidates: &[Candidate],
    cancel: Option<&CancelToken>,
) -> Vec<Verdict> {
    let mut scratch = EvalScratch::new();
    let mut verdicts = Vec::new();
    for candidate in candidates {
        if cancel.is_some_and(|token| token.is_cancelled()) {
            // Deadline: abandon the rest of the walk; the remaining
            // candidates never ran, so they get no verdict at all.
            break;
        }
        let verdict = evaluate(ctx, candidate, &mut scratch, cancel);
        let terminal = verdict.is_terminal();
        verdicts.push(verdict);
        if terminal {
            break;
        }
    }
    verdicts
}

/// Dispatch-priority key of the work queue: candidates are handed to workers
/// cheapest-block-first. Block volume bounds the full-block DFG unroll, the
/// systolic matrix space and the routing problem size, so draining small
/// blocks first establishes a terminal bound early and lets the cancel
/// tokens cut the expensive tail. The sort is stable — equal volumes keep
/// enumeration order — and because the winner is defined as the lowest
/// *enumeration* index with a terminal verdict, dispatch order affects wall
/// time only, never the result.
fn prefilter_cost(candidate: &Candidate) -> usize {
    candidate.block.iter().product()
}

/// Writes the single verdict a candidate ever receives; a second write is a
/// scheduler bug (a candidate claimed twice).
fn set_verdict(verdicts: &[OnceLock<Verdict>], idx: usize, verdict: Verdict) {
    let duplicate = verdicts[idx].set(verdict).is_err();
    debug_assert!(!duplicate, "candidate {idx} received two verdicts");
}

/// Evaluates candidates on a work queue drained by `workers` scoped threads.
///
/// Workers claim candidates from a shared cursor over the prefilter-sorted
/// dispatch order ([`prefilter_cost`]); there is no polling or parking —
/// a worker either claims work with one `fetch_add` or exits, so the pool
/// cannot busy-wait and no wakeup can be lost. `best` holds the lowest
/// enumeration index whose verdict is terminal; a worker abandons its
/// candidate only when a *strictly lower* index is terminal (equal is
/// impossible — a candidate cannot outrank itself), so every candidate that
/// could still win the priority race runs to completion. That invariant
/// makes the winner identical to the sequential walk's under any dispatch
/// order. The same bound doubles as the routing [`CancelToken`]: once a
/// better candidate verifies, in-flight Dijkstra searches for doomed
/// candidates collapse within a few heap pops (counted in
/// `router_searches_cancelled`).
fn evaluate_parallel(
    ctx: &EvalCtx<'_>,
    candidates: &[Candidate],
    workers: usize,
    deadline: Option<Instant>,
    external: Option<&CancelToken>,
) -> Vec<Verdict> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&idx| prefilter_cost(&candidates[idx]));
    let cursor = AtomicUsize::new(0);
    let best = Arc::new(AtomicUsize::new(usize::MAX));
    let verdicts: Vec<OnceLock<Verdict>> = candidates.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let best = Arc::clone(&best);
            let (order, cursor, verdicts) = (&order, &cursor, &verdicts);
            scope.spawn(move || {
                let busy = Instant::now();
                let mut scratch = EvalScratch::new();
                let mut tally = WorkerStats { worker, ..WorkerStats::default() };
                loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&idx) = order.get(slot) else {
                        break;
                    };
                    if best.load(Ordering::Acquire) < idx {
                        // A better candidate already verified; this one can
                        // only lose the priority race.
                        StatsCollector::add(&ctx.stats.candidates_abandoned, 1);
                        tally.candidates_cancelled += 1;
                        set_verdict(verdicts, idx, Verdict::Abandoned);
                        continue;
                    }
                    let mut token =
                        CancelToken::new(Arc::clone(&best), idx).with_deadline(deadline);
                    if let Some(ext) = external {
                        token = token.with_parent(ext.clone());
                    }
                    // A panicking evaluation must not take the whole walk
                    // (and its sibling workers' verdicts) down with it; it
                    // becomes a terminal `Internal` verdict instead.
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        evaluate(ctx, &candidates[idx], &mut scratch, Some(&token))
                    }));
                    let verdict = match caught {
                        Ok(verdict) => verdict,
                        Err(payload) => {
                            // The interrupted routers may hold inconsistent
                            // congestion state; drop the pool.
                            scratch = EvalScratch::new();
                            Verdict::Internal(panic_message(payload.as_ref()))
                        }
                    };
                    tally.candidates_evaluated += 1;
                    if matches!(verdict, Verdict::Abandoned) {
                        StatsCollector::add(&ctx.stats.candidates_abandoned, 1);
                        tally.candidates_cancelled += 1;
                    }
                    if verdict.is_terminal() {
                        best.fetch_min(idx, Ordering::AcqRel);
                    }
                    set_verdict(verdicts, idx, verdict);
                }
                tally.busy = busy.elapsed();
                ctx.stats.record_worker(tally);
            });
        }
    });
    // Exactly-once accounting: the cursor visited every dispatch slot, and
    // each claimed slot stored one verdict.
    debug_assert!(verdicts.iter().all(|cell| cell.get().is_some()), "candidate missing a verdict");
    verdicts.into_iter().map(|cell| cell.into_inner().unwrap_or(Verdict::Abandoned)).collect()
}

/// Locks a mutex, recovering from poisoning (a panicking sibling worker must
/// not also hide this worker's verdict).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers practically every real panic).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates one candidate tuple end to end: probe-filtered systolic search,
/// exact re-validation on the unrolled block, then detailed routing with
/// replication-aware negotiation for each ranked systolic map.
///
/// `cancel` (when present) is polled between the expensive phases *and*
/// armed on the pooled router during negotiation; once it reports cancelled
/// a strictly better candidate has fully verified and the result cannot
/// matter, so the evaluation stops early with [`Verdict::Abandoned`] —
/// mid-route via the Dijkstra loop's poll, mid-phase via the boundary
/// checks. Routing goes through `scratch`'s pooled router.
fn evaluate(
    ctx: &EvalCtx<'_>,
    candidate: &Candidate,
    scratch: &mut EvalScratch,
    cancel: Option<&CancelToken>,
) -> Verdict {
    let stats = ctx.stats;
    let abandon = || cancel.is_some_and(|token| token.is_cancelled());
    if abandon() {
        // Already cancelled (deadline passed or a better candidate won)
        // before any work: don't even count the attempt.
        return Verdict::Abandoned;
    }
    StatsCollector::add(&stats.candidates_tried, 1);
    let Candidate { sub, vsa, block } = candidate;
    // Probe the dependence structure on a small same-shape block.
    let probe_block: Vec<usize> = block.iter().map(|&b| b.min(4)).collect();
    let cached = lock(&ctx.probe_cache).get(&probe_block).cloned();
    let (mesh_deps, mem_deps, anti_deps) = match cached {
        Some(deps) => {
            StatsCollector::add(&stats.probe_cache_hits, 1);
            deps
        }
        None => {
            StatsCollector::add(&stats.probe_cache_misses, 1);
            let probe = match stats.timed(Stage::Probe, || Dfg::build(ctx.kernel, &probe_block)) {
                Ok(p) => p,
                Err(_) => {
                    StatsCollector::add(&stats.candidates_pruned, 1);
                    return Verdict::Pruned;
                }
            };
            let deps = (
                probe.isdg().distances().to_vec(),
                probe.mem_dep_distances(),
                probe.anti_dep_distances(),
            );
            lock(&ctx.probe_cache).insert(probe_block, deps.clone());
            deps
        }
    };
    let (ranked, search_stats) = stats.timed(Stage::Search, || {
        search_counted(&SearchConfig {
            dims: ctx.kernel.dims(),
            block: block.clone(),
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps,
            mem_deps,
            anti_deps,
        })
    });
    StatsCollector::add(&stats.systolic_searches, 1);
    StatsCollector::add(&stats.systolic_matrices_tried, search_stats.matrices_tried);
    StatsCollector::add(&stats.systolic_maps_found, search_stats.valid);
    if ranked.is_empty() {
        StatsCollector::add(&stats.candidates_pruned, 1);
        return Verdict::Pruned;
    }
    if abandon() {
        return Verdict::Abandoned;
    }
    // Unroll the real block and re-validate the search against its exact
    // dependence distances (probe ranges are subsets).
    let dfg = match stats.timed(Stage::DfgBuild, || Dfg::build(ctx.kernel, block)) {
        Ok(d) => d,
        Err(e) => return Verdict::DfgError(e.to_string()),
    };
    let isdg = dfg.isdg();
    let (ranked, search_stats) = stats.timed(Stage::Search, || {
        search_counted(&SearchConfig {
            dims: ctx.kernel.dims(),
            block: block.clone(),
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps: isdg.distances().to_vec(),
            mem_deps: dfg.mem_dep_distances(),
            anti_deps: dfg.anti_dep_distances(),
        })
    });
    StatsCollector::add(&stats.systolic_searches, 1);
    StatsCollector::add(&stats.systolic_matrices_tried, search_stats.matrices_tried);
    StatsCollector::add(&stats.systolic_maps_found, search_stats.valid);
    if ranked.is_empty() {
        StatsCollector::add(&stats.candidates_pruned, 1);
        return Verdict::Pruned;
    }
    let mut route_failed = false;
    for st in ranked.iter().take(ctx.options.max_systolic_candidates) {
        if abandon() {
            return Verdict::Abandoned;
        }
        StatsCollector::add(&stats.layouts_tried, 1);
        let (layout, classes) = stats.timed(Stage::Classify, || {
            let layout = Layout::new(&dfg, vsa.clone(), sub.clone(), st);
            let classes = classify(&dfg, &layout);
            (layout, classes)
        });
        // Replication-aware negotiation: replica conflicts feed back into
        // representative routing as pre-seeded history costs. The layout's
        // replication plan is derived on its first replication round and
        // reused by the later ones.
        let mut seed_history: Vec<himap_cgra::RNode> = Vec::new();
        let mut plan = None;
        let mut routed = None;
        // The negotiation routes on an index of the representatives' window,
        // built once per layout and charged to the first attempt.
        let start = Instant::now();
        let window = representative_window(&dfg, &layout, &classes);
        let index = MrrgIndex::shared_window(layout.vsa().spec().clone(), layout.iib(), window);
        let mut index_build = start.elapsed();
        for _attempt in 0..ctx.options.replication_feedback_rounds {
            if abandon() {
                return Verdict::Abandoned;
            }
            StatsCollector::add(&stats.route_attempts, 1);
            let index_build = std::mem::take(&mut index_build);
            let router = scratch.router_on(&index);
            router.set_cancel_token(cancel.cloned());
            let (design, counters) = stats.timed(Stage::Route, || {
                route_representatives_pooled(
                    &dfg,
                    &layout,
                    &classes,
                    ctx.options,
                    &seed_history,
                    &mut *router,
                    index_build,
                )
            });
            router.set_cancel_token(None);
            stats.add_router(counters.router);
            stats.add_index_time(counters.index_build);
            stats.record_memory(router.index().memory_stats());
            stats.record_scratch(router.scratch_bytes());
            if abandon() {
                // A cancelled negotiation surfaces as a route failure; don't
                // let it masquerade as one in the walk's error reporting.
                return Verdict::Abandoned;
            }
            let design = match design {
                Ok(design) => {
                    StatsCollector::add(&stats.pathfinder_rounds, design.rounds);
                    design
                }
                Err(_) => {
                    // A failed negotiation exhausts its full round budget.
                    StatsCollector::add(&stats.pathfinder_rounds, ctx.options.pathfinder_rounds);
                    break;
                }
            };
            StatsCollector::add(&stats.replication_rounds, 1);
            let plan = match plan {
                Some(ref plan) => plan,
                None => match stats
                    .timed(Stage::Replicate, || ReplicaPlan::new(&dfg, &layout, &classes, cancel))
                {
                    Ok(built) => plan.insert(built),
                    Err(_) => return Verdict::Abandoned,
                },
            };
            match stats.timed(Stage::Replicate, || plan.replicate(&design, cancel)) {
                Ok(routes) => {
                    routed = Some(routes);
                    break;
                }
                Err(crate::route::RouteError::ReplicaConflicts { rep_frame, .. }) => {
                    seed_history.extend(rep_frame);
                    continue;
                }
                Err(crate::route::RouteError::Cancelled) => return Verdict::Abandoned,
                Err(_) => break,
            }
        }
        // The plan is per layout; free it before materialising the mapping.
        drop(plan);
        let Some(routes) = routed else {
            route_failed = true;
            continue;
        };
        // Success: materialize the mapping artifact.
        let mapping = stats.timed(Stage::Materialise, || {
            let mut op_slots = HashMap::new();
            for (node, w) in dfg.graph().nodes() {
                if let NodeKind::Op { stmt, op, .. } = w.kind {
                    op_slots.insert(node, layout.op_slot(&dfg, w.iter, stmt, op));
                }
            }
            let mapping_stats = MappingStats {
                sub_shape: (sub.s1, sub.s2, sub.t),
                unique_iterations: classes.count(),
                iterations_per_spe: layout.iterations_per_spe(),
                iib: layout.iib(),
                max_config_slots: 0, // filled from the config image below
                block: block.clone(),
                pipeline: PipelineStats::default(), // snapshot attached by the caller
            };
            let mut mapping = Mapping::new(ctx.cgra.clone(), dfg, op_slots, routes, mapping_stats);
            let image = crate::config::ConfigImage::from_mapping(&mapping);
            mapping.set_max_config_slots(image.max_unique_instrs());
            mapping
        });
        return Verdict::Mapped(Box::new(mapping));
    }
    debug_assert!(route_failed, "ranked searches are non-empty here");
    Verdict::RouteFailed
}

/// Candidate assignments of loop dims to the VSA's space axes: `p` feeds the
/// VSA rows, `q` the columns (`None` when that axis has extent 1). Which
/// dims *can* be space depends on the kernel's dependence structure —
/// Floyd–Warshall's pivot step must advance time, so its `k` cannot be a
/// space dim — and is settled by the systolic search; this just enumerates
/// the options deterministically.
fn space_assignments(dims: usize, rows: usize, cols: usize) -> Vec<(Option<usize>, Option<usize>)> {
    let mut out = Vec::new();
    let ps: Vec<Option<usize>> = if rows > 1 { (0..dims).map(Some).collect() } else { vec![None] };
    for &p in &ps {
        let qs: Vec<Option<usize>> = if cols > 1 {
            (0..dims).filter(|&d| Some(d) != p).map(Some).collect()
        } else {
            vec![None]
        };
        for q in qs {
            out.push((p, q));
        }
    }
    out
}

/// The block for a space assignment: space dims get the VSA extents
/// (Algorithm 1 line 6: `b1 = c/s1, b2 = c/s2`), all other dims the free
/// extent (the paper's user-supplied `b3, …, bl`).
fn block_for_assignment(
    dims: usize,
    vsa: &Vsa,
    free_extent: usize,
    p: Option<usize>,
    q: Option<usize>,
) -> Vec<usize> {
    (0..dims)
        .map(|dim| {
            if Some(dim) == p {
                vsa.rows()
            } else if Some(dim) == q {
                vsa.cols()
            } else {
                free_extent
            }
        })
        .collect()
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_kernels::suite;
    use std::time::Duration;

    fn map(kernel: &Kernel, c: usize) -> Result<Mapping, HiMapError> {
        HiMap::new(HiMapOptions::default()).map(kernel, &CgraSpec::square(c))
    }

    #[test]
    fn gemm_reaches_full_utilization() {
        // Fig. 7: GEMM hits the performance envelope.
        let m = map(&suite::gemm(), 4).expect("gemm maps");
        assert!((m.utilization() - 1.0).abs() < 1e-9, "U = {}", m.utilization());
        assert_eq!(m.stats().sub_shape, (1, 1, 2));
    }

    #[test]
    fn bicg_utilization_matches_paper() {
        // §VI: BiCG settles at 66 % with sub-CGRA (2,1,3) — the 100 %
        // candidates fail routing.
        let m = map(&suite::bicg(), 4).expect("bicg maps");
        let u = m.utilization();
        assert!(u >= 4.0 / 6.0 - 1e-9, "U = {u}");
        assert!(u <= 1.0 + 1e-9);
    }

    #[test]
    fn all_kernels_map_on_4x4() {
        for kernel in suite::all() {
            let m = map(&kernel, 4);
            assert!(m.is_ok(), "{} failed: {:?}", kernel.name(), m.err());
        }
    }

    #[test]
    fn one_dimensional_kernel_rejected() {
        let mut b = himap_kernels::KernelBuilder::new("rec", 1);
        let a = b.array("a", 1);
        b.stmt(
            himap_kernels::ArrayRef::new(a, vec![himap_kernels::AffineExpr::var(0, 1)]),
            himap_kernels::Expr::binary(
                himap_kernels::OpKind::Add,
                himap_kernels::Expr::Read(himap_kernels::ArrayRef::new(
                    a,
                    vec![himap_kernels::AffineExpr::new(vec![1], -1)],
                )),
                himap_kernels::Expr::Const(1),
            ),
        );
        let kernel = b.build().unwrap();
        assert!(matches!(map(&kernel, 4), Err(HiMapError::UnsupportedKernel(_))));
    }

    #[test]
    fn unique_iterations_bounded_by_table2() {
        let bounds = [
            ("adi", 3usize),
            ("atax", 9),
            ("bicg", 9),
            ("mvt", 9),
            ("gemm", 27),
            ("syrk", 27),
            ("floyd-warshall", 34),
            ("ttm", 45),
        ];
        for (name, bound) in bounds {
            let kernel = suite::by_name(name).unwrap();
            let m = map(&kernel, 4).unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(
                m.stats().unique_iterations <= bound,
                "{name}: {} unique iterations > Table II bound {bound}",
                m.stats().unique_iterations
            );
        }
    }

    #[test]
    fn every_op_has_a_slot_and_every_edge_a_route() {
        let m = map(&suite::atax(), 4).expect("atax maps");
        for (node, w) in m.dfg().graph().nodes() {
            if matches!(w.kind, NodeKind::Op { .. }) {
                assert!(m.op_slot(node).is_some(), "unplaced op {node:?}");
            }
        }
        assert_eq!(m.routes().len(), m.dfg().graph().edge_count());
    }

    #[test]
    fn routes_have_consistent_absolute_times() {
        let m = map(&suite::gemm(), 2).expect("gemm maps on 2x2");
        for route in m.routes() {
            let (_, dst) = m.dfg().graph().edge_endpoints(route.edge);
            let dst_slot = m.op_slot(dst).expect("consumer placed");
            let last = route.steps.last().expect("non-empty route");
            assert_eq!(last.1, dst_slot.abs, "route must end at the consumer's cycle");
            for w in route.steps.windows(2) {
                let dt = w[1].1 - w[0].1;
                assert!((0..=1).contains(&dt), "steps advance 0 or 1 cycles");
            }
        }
    }

    #[test]
    fn pipeline_stats_populated_on_success() {
        let m = map(&suite::gemm(), 4).expect("gemm maps");
        let p = m.pipeline_stats();
        assert_eq!(p.threads, 1);
        assert!(p.candidates_enumerated > 0, "no candidates counted: {p:?}");
        assert!(p.candidates_tried > 0);
        assert!(p.systolic_searches > 0);
        assert!(p.route_attempts > 0);
        assert!(p.replication_rounds > 0);
        assert!(p.times.total > std::time::Duration::ZERO);
        assert_eq!(p.candidates_abandoned, 0, "sequential walk never abandons");
        // The embedded snapshot is the same one map_with_stats returns.
        let (again, stats) = HiMap::new(HiMapOptions::default())
            .map_with_stats(&suite::gemm(), &CgraSpec::square(4));
        let again = again.expect("gemm maps");
        assert_eq!(again.pipeline_stats(), &stats);
    }

    #[test]
    fn pipeline_stats_populated_on_failure() {
        // GEMM cannot fit a 1x1 CGRA: the walk fails, but the stats must
        // still describe what was tried.
        let himap = HiMap::new(HiMapOptions::default());
        let (result, stats) = himap.map_with_stats(&suite::gemm(), &CgraSpec::square(1));
        assert!(result.is_err());
        assert!(stats.times.total > std::time::Duration::ZERO);
        assert!(stats.sub_shapes_tried > 0, "MAP() attempts uncounted: {stats:?}");
    }

    #[test]
    fn parallel_walk_matches_sequential_on_gemm() {
        // `oversubscribe` forces real workers even on a single-core CI box,
        // so this exercises the work-queue scheduler, not the fallback.
        let cgra = CgraSpec::square(4);
        let seq = HiMap::new(HiMapOptions::default()).map(&suite::gemm(), &cgra).unwrap();
        let options = HiMapOptions { threads: 3, oversubscribe: true, ..HiMapOptions::default() };
        let par = HiMap::new(options).map(&suite::gemm(), &cgra).unwrap();
        assert_eq!(seq.stats().sub_shape, par.stats().sub_shape);
        assert_eq!(seq.stats().block, par.stats().block);
        assert_eq!(seq.stats().iib, par.stats().iib);
        assert_eq!(seq.utilization(), par.utilization());
        assert_eq!(par.pipeline_stats().threads, 3);
        assert_eq!(par.pipeline_stats().workers.len(), 3, "scheduler must spawn 3 workers");
        let evaluated: usize =
            par.pipeline_stats().workers.iter().map(|w| w.candidates_evaluated).sum();
        assert!(evaluated > 0, "workers recorded no evaluations");
    }

    #[test]
    fn short_walks_fall_back_to_sequential() {
        // gemm on 4x4 enumerates 64 candidates; a threshold above that must
        // force the sequential path even with threads > 1 — observable as an
        // empty per-worker stats vector and zero abandoned candidates.
        let options = HiMapOptions {
            threads: 4,
            oversubscribe: true,
            parallel_threshold: 1000,
            ..HiMapOptions::default()
        };
        let (result, stats) =
            HiMap::new(options).map_with_stats(&suite::gemm(), &CgraSpec::square(4));
        result.expect("gemm maps");
        assert!(stats.workers.is_empty(), "fallback must not spawn workers: {stats:?}");
        assert_eq!(stats.candidates_abandoned, 0);
        assert_eq!(stats.router_searches_cancelled, 0);
    }

    #[test]
    fn scheduled_workers_clamp_and_threshold() {
        let base = HiMapOptions { threads: 8, oversubscribe: true, ..HiMapOptions::default() };
        // Above threshold: candidate count and requested threads bound.
        assert_eq!(base.scheduled_workers(64), 8);
        assert_eq!(base.scheduled_workers(10), 8);
        // Below threshold (default 8): sequential fallback.
        assert_eq!(base.scheduled_workers(7), 1);
        assert_eq!(base.scheduled_workers(0), 1);
        // Threshold 0 disables the fallback; workers still never exceed
        // candidates.
        let eager = HiMapOptions { parallel_threshold: 0, ..base.clone() };
        assert_eq!(eager.scheduled_workers(3), 3);
        // Without oversubscription the host core count is a hard cap.
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let clamped = HiMapOptions { oversubscribe: false, ..base };
        assert!(clamped.scheduled_workers(64) <= cores);
    }

    #[test]
    fn cancelled_candidate_reports_abandoned_before_routing() {
        // Evaluate one real candidate with a pre-cancelled token (as if a
        // better candidate had already verified): the phase-boundary poll
        // must stop the evaluation with `Abandoned` before detailed routing
        // spends any effort.
        let kernel = suite::gemm();
        let cgra = CgraSpec::square(4);
        let options = HiMapOptions::default();
        let stats = StatsCollector::default();
        let (subs, _) = map_idfg_counted(&kernel, &cgra, &options, None);
        let candidates = enumerate_candidates(&kernel, &cgra, &subs, &options, &stats);
        assert!(!candidates.is_empty());
        let ctx = EvalCtx {
            kernel: &kernel,
            cgra: &cgra,
            options: &options,
            stats: &stats,
            probe_cache: Mutex::new(HashMap::new()),
        };
        let token = CancelToken::new(Arc::new(AtomicUsize::new(0)), 1);
        let mut scratch = EvalScratch::new();
        let verdict = evaluate(&ctx, &candidates[0], &mut scratch, Some(&token));
        assert!(matches!(verdict, Verdict::Abandoned), "cancelled evaluation must abandon");
        let snap = stats.snapshot(std::time::Duration::from_millis(1), 1);
        assert_eq!(snap.route_attempts, 0, "abandoned before routing: {snap:?}");
    }

    #[test]
    fn cancelled_route_aborts_early_and_counts() {
        // Drive the pooled routing entry point directly with an armed,
        // already-cancelled token: every Dijkstra search must abort through
        // the cancel poll (counted in `RouterStats::cancelled`) instead of
        // running the negotiation to completion.
        let kernel = suite::gemm();
        let cgra = CgraSpec::square(4);
        let options = HiMapOptions::default();
        let stats = StatsCollector::default();
        let (subs, _) = map_idfg_counted(&kernel, &cgra, &options, None);
        let candidates = enumerate_candidates(&kernel, &cgra, &subs, &options, &stats);
        for candidate in &candidates {
            let Candidate { sub, vsa, block } = candidate;
            let Ok(dfg) = Dfg::build(&kernel, block) else { continue };
            let isdg = dfg.isdg();
            let (ranked, _) = search_counted(&SearchConfig {
                dims: kernel.dims(),
                block: block.clone(),
                vsa_rows: vsa.rows(),
                vsa_cols: vsa.cols(),
                mesh_deps: isdg.distances().to_vec(),
                mem_deps: dfg.mem_dep_distances(),
                anti_deps: dfg.anti_dep_distances(),
            });
            let Some(st) = ranked.first() else { continue };
            let layout = Layout::new(&dfg, vsa.clone(), sub.clone(), st);
            let classes = classify(&dfg, &layout);
            let index = MrrgIndex::shared(layout.vsa().spec().clone(), layout.iib());
            let mut router = Router::with_index(index, RouterConfig::default());
            // Baseline: the live negotiation performs real search work.
            let (_, live) = route_representatives_pooled(
                &dfg,
                &layout,
                &classes,
                &options,
                &[],
                &mut router,
                Duration::ZERO,
            );
            assert!(live.router.searches > 0);
            assert_eq!(live.router.cancelled, 0);
            // Cancelled: the same negotiation collapses.
            router.set_cancel_token(Some(CancelToken::new(Arc::new(AtomicUsize::new(0)), 1)));
            let (result, cut) = route_representatives_pooled(
                &dfg,
                &layout,
                &classes,
                &options,
                &[],
                &mut router,
                Duration::ZERO,
            );
            assert!(result.is_err(), "cancelled negotiation cannot produce a design");
            assert!(cut.router.cancelled > 0, "cancel poll never fired");
            assert!(
                cut.router.nodes_popped < live.router.nodes_popped,
                "cancelled route did full search work: {} vs {} pops",
                cut.router.nodes_popped,
                live.router.nodes_popped
            );
            return;
        }
        panic!("no routable gemm candidate found");
    }
}
