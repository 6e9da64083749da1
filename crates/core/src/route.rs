//! `ROUTE()` and replication (Algorithm 1, lines 21-29).
//!
//! Only the class representatives' dependences are routed in detail; every
//! other iteration reuses its class's routed patterns translated in
//! space-time. A final full-array stamping pass verifies that the replicated
//! routing oversubscribes no resource and that every memory-routed
//! dependence loads after its store.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use himap_cgra::{Mrrg, MrrgIndex, PeId, RKind, RNode};
use himap_dfg::{Dfg, EdgeKind, Iter4, NodeKind};
use himap_graph::{EdgeId, NodeId};
use himap_mapper::{CancelToken, Elapsed, Router, RouterConfig, RouterStats, SignalId};
use himap_systolic::Position;

use crate::layout::Layout;
use crate::options::HiMapOptions;
use crate::unique::{descriptor, Classes, Descriptor};

/// Mesh distance beyond which a memory-port route switches from the plain
/// negotiated search to the A*-bounded one: close routes are cheaper
/// without the backward sweep, distant ones amortize it many times over.
const LONG_HAUL_HOPS: usize = 8;

/// A route pattern in class-relative coordinates: physical PE and resource
/// kind per step, plus the step's cycle offset from the owning iteration's
/// macro start (`pos.t·t`). Offsets may be negative (sources in earlier
/// macro steps).
pub type Pattern = Vec<(PeId, RKind, i64)>;

/// The detailed routing of one iteration class.
#[derive(Clone, Debug, Default)]
pub struct ClassPattern {
    /// Routed in-edge patterns, keyed by edge descriptor. PE coordinates are
    /// *relative to the representative's SPE origin* (its sub-CGRA corner).
    pub routes: HashMap<Descriptor, Pattern>,
}

/// The routed design: one pattern per class.
#[derive(Clone, Debug)]
pub struct RoutedDesign {
    /// Per-class patterns, indexed by `ClassId`.
    pub patterns: Vec<ClassPattern>,
    /// PathFinder negotiation rounds consumed before convergence (a failed
    /// negotiation always consumes the full `pathfinder_rounds` budget).
    pub rounds: usize,
}

/// Errors of the routing/replication stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// An edge could not be routed within its elapsed budget.
    Unroutable(EdgeId),
    /// Forwarding sources never became available (unexpected chain order).
    ForwardOrdering,
    /// Negotiation ended with oversubscribed resources.
    Congested(usize),
    /// Replicated routing oversubscribes resources. Carries the conflicting
    /// resources translated back into the representatives' frames, so the
    /// caller can feed them into the next negotiation round as history.
    ReplicaConflicts {
        /// Number of oversubscribed resources.
        count: usize,
        /// Conflicting resources in representative frames.
        rep_frame: Vec<RNode>,
    },
    /// A memory-routed dependence loads before its store completes.
    MemCausality,
    /// An anti-dependence is violated: an element is overwritten before a
    /// pending live-in load reads it.
    AntiDependence,
    /// A dependence does not advance absolute time (invalid layout).
    NonCausal(EdgeId),
    /// A class is missing the routed pattern for one of its edge
    /// descriptors — the classification and the routed design disagree,
    /// which means a pipeline-internal invariant broke upstream.
    MissingPattern {
        /// The class whose pattern set is incomplete.
        class: usize,
    },
    /// Replication stopped because its cancel token fired (a deadline
    /// passed or a better candidate won); the candidate is abandoned.
    Cancelled,
    /// A representative op slot lands on an FU masked out of the MRRG —
    /// a dead or route-only PE. The capability-blind layout proposed it;
    /// the candidate is rejected before any routing work.
    MaskedSlot(RNode),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unroutable(e) => write!(f, "edge {e:?} is unroutable"),
            RouteError::ForwardOrdering => write!(f, "forwarding chain ordering stuck"),
            RouteError::Congested(n) => write!(f, "{n} resources oversubscribed after routing"),
            RouteError::ReplicaConflicts { count, .. } => {
                write!(f, "{count} resources oversubscribed after replication")
            }
            RouteError::MemCausality => write!(f, "memory-routed load precedes its store"),
            RouteError::AntiDependence => {
                write!(f, "an element is overwritten before a pending load reads it")
            }
            RouteError::NonCausal(e) => write!(f, "edge {e:?} does not advance time"),
            RouteError::MissingPattern { class } => {
                write!(f, "class {class} is missing a routed pattern for one of its edges")
            }
            RouteError::Cancelled => write!(f, "replication was cancelled"),
            RouteError::MaskedSlot(node) => {
                write!(f, "op slot {node:?} is masked out of the MRRG (dead or route-only PE)")
            }
        }
    }
}

impl Error for RouteError {}

/// Instrumentation of one [`route_representatives_counted`] call: the
/// router's search-effort counters plus the time spent acquiring the dense
/// MRRG index of the layout's window (one build per layout, as each layout
/// has its own window).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteCounters {
    /// Dijkstra search effort across every `route*` call of the attempt.
    pub router: RouterStats,
    /// Wall time of the window index acquisition
    /// ([`MrrgIndex::shared_window`]).
    pub index_build: Duration,
}

/// Routes the representatives' in-edges with PathFinder negotiation and
/// extracts the per-class patterns.
pub fn route_representatives(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
) -> Result<RoutedDesign, RouteError> {
    route_representatives_counted(dfg, layout, classes, options, seed_history).0
}

/// [`route_representatives`], additionally reporting the router's search
/// effort and the index-acquisition time — the instrumentation feed for
/// pipeline statistics (mirrors `map_idfg`/`map_idfg_counted`).
pub fn route_representatives_counted(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
) -> (Result<RoutedDesign, RouteError>, RouteCounters) {
    // The negotiation only ever touches the PEs of the representatives'
    // window, so the dense index covers those, not the fabric.
    let index_start = Instant::now();
    let window = representative_window(dfg, layout, classes);
    let index = MrrgIndex::shared_window(layout.vsa().spec().clone(), layout.iib(), window);
    let index_build = index_start.elapsed();
    let mut router = Router::with_index(index, RouterConfig::default());
    route_representatives_pooled(
        dfg,
        layout,
        classes,
        options,
        seed_history,
        &mut router,
        index_build,
    )
}

/// [`route_representatives_counted`] on a caller-owned, long-lived router —
/// the entry point of the work-queue candidate scheduler, whose workers keep
/// one router alive across candidates instead of reconstructing congestion
/// vectors and search scratch per attempt.
///
/// The router must be indexed for the layout's `(spec, iib)`, on any window
/// that contains the representatives' window (the PEs their negotiation can
/// touch; the all-PE index does). It is
/// [`Router::reset`] here, so every negotiation starts from clean
/// present/history state exactly as a freshly built router would; the reset
/// touches only the resources the previous negotiation wrote, and the
/// epoch-stamped search scratch is reused. `index_build` is the caller's
/// index-acquisition time, passed through into the counters. Any armed
/// [`CancelToken`](himap_mapper::CancelToken) stays armed: a negotiation for
/// an abandoned candidate collapses within a few heap pops.
///
/// Should the window miss a PE the negotiation needs — the window does not
/// contain the representatives' window, or a forwarded net taps a resource
/// off it — the router is rebound to the all-PE index and the negotiation
/// reruns from the start; the aborted run's search counters are dropped.
/// Results and counters are then those of a router over the whole fabric.
pub fn route_representatives_pooled(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
    router: &mut Router,
    index_build: Duration,
) -> (Result<RoutedDesign, RouteError>, RouteCounters) {
    debug_assert_eq!(
        router.mrrg().ii(),
        layout.iib(),
        "pooled router indexed for a different II than the layout's"
    );
    router.reset();
    let result = match negotiate(dfg, layout, classes, options, seed_history, router) {
        Err(Stop::OffWindow) => {
            router.take_search_stats();
            router.rebind(MrrgIndex::shared(layout.vsa().spec().clone(), layout.iib()));
            negotiate(dfg, layout, classes, options, seed_history, router)
        }
        result => result,
    };
    let result = result.map_err(|stop| match stop {
        Stop::Failed(e) => e,
        Stop::OffWindow => unreachable!("the all-PE window holds every resource"),
    });
    let counters = RouteCounters { router: router.take_search_stats(), index_build };
    (result, counters)
}

/// Why a negotiation stopped without a design.
enum Stop {
    /// Routing failed.
    Failed(RouteError),
    /// The router's window misses a PE the negotiation needs.
    OffWindow,
}

impl From<RouteError> for Stop {
    fn from(e: RouteError) -> Self {
        Stop::Failed(e)
    }
}

/// Every in-edge of every representative iteration, in edge order: the
/// edges `ROUTE()` negotiates. Gathered from the representatives' clusters,
/// so the cost follows the representatives, not the block.
fn representative_edges(dfg: &Dfg, classes: &Classes) -> Vec<EdgeId> {
    let mut edges: Vec<EdgeId> = classes
        .reps
        .iter()
        .flat_map(|&rep| dfg.cluster(dfg.iteration_at(rep)))
        .flat_map(|&node| dfg.graph().in_edges(node).map(|ie| ie.id))
        .collect();
    edges.sort_unstable();
    edges
}

/// The PEs the representatives' negotiation can touch, in ascending order:
/// the sub-CGRA of every representative (its op slots), the bounding box
/// of every representative in-edge (each search stays inside its edge's
/// box), and the box of the carrier in-edge of every forward edge's source,
/// whose translated pattern seeds the forwarded net.
///
/// The negotiation's router needs an index over these PEs only; a search
/// over that window is identical to one over the whole fabric.
pub(crate) fn representative_window(dfg: &Dfg, layout: &Layout, classes: &Classes) -> Vec<PeId> {
    window_pes(dfg, layout, classes, &representative_edges(dfg, classes))
}

/// [`representative_window`] over the precomputed representative edges.
fn window_pes(dfg: &Dfg, layout: &Layout, classes: &Classes, edges: &[EdgeId]) -> Vec<PeId> {
    let mut boxes: Vec<BBox> = classes
        .reps
        .iter()
        .map(|&rep| BBox::spe(layout, layout.position(dfg, dfg.iteration_at(rep))))
        .collect();
    for &e in edges {
        boxes.push(route_bbox(dfg, layout, e));
        if let EdgeKind::Forward { root } = dfg.graph()[e].kind {
            let (src, _) = dfg.graph().edge_endpoints(e);
            let carrier =
                dfg.graph().in_edges(src).find(|ie| dfg.graph()[ie.id].signal(ie.src) == root);
            if let Some(carrier) = carrier {
                boxes.push(route_bbox(dfg, layout, carrier.id));
            }
        }
    }
    let mut pes: Vec<PeId> = boxes.iter().flat_map(BBox::pes).collect();
    pes.sort_unstable();
    pes.dedup();
    pes
}

/// The negotiation loop proper, on a caller-provided router.
fn negotiate(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    options: &HiMapOptions,
    seed_history: &[RNode],
    router: &mut Router,
) -> Result<RoutedDesign, Stop> {
    // Deterministic edge list: every in-edge of every rep-iteration node.
    let edges = representative_edges(dfg, classes);
    let index = router.index();
    if !window_pes(dfg, layout, classes, &edges).into_iter().all(|pe| index.in_window(pe)) {
        return Err(Stop::OffWindow);
    }
    // Replica conflicts from a previous replication attempt enter the
    // negotiation as pre-seeded history costs. (A conflict off the window
    // lies where no search of this negotiation can price it.)
    for &node in seed_history {
        router.add_history(node, RouterConfig::default().history_increment);
    }
    // Place every rep op's FU slot so congestion sees them.
    for &rep in &classes.reps {
        let iter = dfg.iteration_at(rep);
        for &node in dfg.cluster(iter) {
            if let NodeKind::Op { stmt, op, .. } = dfg.graph()[node].kind {
                let slot = layout.op_slot(dfg, iter, stmt, op);
                let rnode = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
                // The layout probes capability-blind; a slot on a dead or
                // route-only PE has no FU node in the MRRG and the whole
                // candidate is rejected typed before any routing work.
                if !router.mrrg().contains(rnode) {
                    return Err(RouteError::MaskedSlot(rnode).into());
                }
                router.place(rnode, SignalId(node.index() as u32));
            }
        }
    }

    let mut last_err = RouteError::ForwardOrdering;
    for round in 0..options.pathfinder_rounds {
        match route_round(dfg, layout, classes, &edges, router) {
            Ok(mut result) => {
                let over = router.oversubscribed().len();
                if over == 0 {
                    result.rounds = round + 1;
                    return Ok(result);
                }
                last_err = RouteError::Congested(over);
                router.bump_history();
                clear_routes(dfg, layout, classes, router);
            }
            Err(Stop::OffWindow) => return Err(Stop::OffWindow),
            Err(Stop::Failed(e)) => {
                // A cancelled router refuses every search, so the remaining
                // rounds could only fail the same way.
                if router.is_cancelled() {
                    return Err(e.into());
                }
                last_err = e;
                router.bump_history();
                clear_routes(dfg, layout, classes, router);
            }
        }
    }
    Err(last_err.into())
}

/// Clears routed occupancy but keeps placed FU slots and history.
fn clear_routes(dfg: &Dfg, layout: &Layout, classes: &Classes, router: &mut Router) {
    router.clear_present();
    for &rep in &classes.reps {
        let iter = dfg.iteration_at(rep);
        for &node in dfg.cluster(iter) {
            if let NodeKind::Op { stmt, op, .. } = dfg.graph()[node].kind {
                let slot = layout.op_slot(dfg, iter, stmt, op);
                router.place(
                    RNode::new(slot.pe, slot.cycle_mod, RKind::Fu),
                    SignalId(node.index() as u32),
                );
            }
        }
    }
}

fn route_round(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    edges: &[EdgeId],
    router: &mut Router,
) -> Result<RoutedDesign, Stop> {
    let t = layout.sub().t as i64;
    // The routed net of (consumer node, root signal): every resource the
    // signal exists on, with absolute times — later chain links may tap any
    // of them.
    let mut deliveries: HashMap<(NodeId, NodeId), Vec<(RNode, i64)>> = HashMap::new();
    let mut patterns: Vec<ClassPattern> =
        (0..classes.reps.len()).map(|_| ClassPattern::default()).collect();
    let mut routed = vec![false; edges.len()];
    let mut remaining = edges.len();
    while remaining > 0 {
        let mut progress = false;
        for (idx, &e) in edges.iter().enumerate() {
            if routed[idx] {
                continue;
            }
            let Some(source) = edge_source(dfg, layout, classes, &deliveries, &patterns, e) else {
                continue; // forwarding source not available yet
            };
            let (EdgeSource::Net(taps) | EdgeSource::MemPorts(taps)) = &source;
            if taps.iter().any(|&(n, _)| !router.index().contains(n) && router.mrrg().contains(n)) {
                return Err(Stop::OffWindow);
            }
            let (src, dst) = dfg.graph().edge_endpoints(e);
            let dst_iter = dfg.graph()[dst].iter;
            let NodeKind::Op { stmt, op, .. } = dfg.graph()[dst].kind else {
                // Route relays are not generated for the built-in kernels.
                return Err(RouteError::Unroutable(e).into());
            };
            let dslot = layout.op_slot(dfg, dst_iter, stmt, op);
            let target = RNode::new(dslot.pe, dslot.cycle_mod, RKind::Fu);
            let root = dfg.graph()[e].signal(src);
            let signal = SignalId(root.index() as u32);
            let bbox = route_bbox(dfg, layout, e);
            let path = match source {
                EdgeSource::Net(net) => {
                    if net.iter().all(|&(_, abs)| abs >= dslot.abs) {
                        return Err(RouteError::NonCausal(e).into());
                    }
                    router
                        .route_timed(signal, &net, target, dslot.abs, |n| bbox.contains(n.pe))
                        .ok_or(RouteError::Unroutable(e))?
                }
                EdgeSource::MemPorts(sources) => {
                    let nodes: Vec<RNode> = sources.iter().map(|&(n, _)| n).collect();
                    let spec = router.mrrg().spec();
                    let haul =
                        nodes.iter().map(|n| spec.distance(n.pe, target.pe)).min().unwrap_or(0);
                    // Long-haul loads get the A*-bounded search: the hop
                    // table steers the expansion toward the consumer instead
                    // of flooding the fabric. Short hauls keep the plain
                    // flat-array hot path.
                    let path = if haul > LONG_HAUL_HOPS {
                        let cap = Elapsed::AtMost(router.config().default_elapsed_cap);
                        router.route_bounded(signal, &nodes, target, cap, |n| bbox.contains(n.pe))
                    } else {
                        router.route_filtered(signal, &nodes, target, None, |n| bbox.contains(n.pe))
                    };
                    path.ok_or(RouteError::Unroutable(e))?
                }
            };
            // Record the net and the pattern.
            let abs_nodes = absolute_times(router.mrrg(), &path.nodes, dslot.abs);
            let net: Vec<(RNode, i64)> =
                path.nodes.iter().zip(&abs_nodes).map(|(&n, &(_, _, abs))| (n, abs)).collect();
            deliveries.entry((dst, root)).or_default().extend(net_sources(&net));
            let class = classes.of[dfg.linear_index(dst_iter)] as usize;
            let (_, desc) = descriptor(dfg, layout, e, dst_iter);
            let pos = layout.position(dfg, dst_iter);
            let macro_start = pos.t as i64 * t;
            let pattern: Pattern =
                abs_nodes.iter().map(|&(pe, kind, abs)| (pe, kind, abs - macro_start)).collect();
            patterns[class].routes.insert(desc, pattern);
            router.commit(&path);
            routed[idx] = true;
            remaining -= 1;
            progress = true;
        }
        if !progress {
            return Err(RouteError::ForwardOrdering.into());
        }
    }
    Ok(RoutedDesign { patterns, rounds: 0 })
}

/// Recovers the absolute time of each path node from the target's absolute
/// cycle by walking backwards.
fn absolute_times(mrrg: &Mrrg, nodes: &[RNode], target_abs: i64) -> Vec<(PeId, RKind, i64)> {
    let ii = mrrg.ii() as i64;
    let mut out = vec![(PeId::new(0, 0), RKind::Fu, 0i64); nodes.len()];
    let mut abs = target_abs;
    for (i, &node) in nodes.iter().enumerate().rev() {
        out[i] = (node.pe, node.kind, abs);
        if i > 0 {
            let prev = nodes[i - 1];
            let dt = (node.t as i64 + ii - prev.t as i64) % ii;
            abs -= dt;
        }
    }
    out
}

enum EdgeSource {
    /// Resources already carrying the signal, with absolute times (a net to
    /// extend).
    Net(Vec<(RNode, i64)>),
    /// Candidate memory ports (node, absolute time).
    MemPorts(Vec<(RNode, i64)>),
}

/// The taps of a routed net: every step except a trailing consumer FU (an
/// op's input is not a copy of the signal that can be re-driven).
fn net_sources(net: &[(RNode, i64)]) -> Vec<(RNode, i64)> {
    let mut out: Vec<(RNode, i64)> = net.to_vec();
    if out.len() > 1 && out.last().is_some_and(|(n, _)| n.kind == RKind::Fu) {
        out.pop();
    }
    out
}

fn edge_source(
    dfg: &Dfg,
    layout: &Layout,
    classes: &Classes,
    deliveries: &HashMap<(NodeId, NodeId), Vec<(RNode, i64)>>,
    patterns: &[ClassPattern],
    e: EdgeId,
) -> Option<EdgeSource> {
    let (src, _) = dfg.graph().edge_endpoints(e);
    let weight = &dfg.graph()[e];
    let src_iter = dfg.graph()[src].iter;
    match (weight.kind, dfg.graph()[src].kind) {
        (EdgeKind::Flow, NodeKind::Op { stmt, op, .. }) => {
            let slot = layout.op_slot(dfg, src_iter, stmt, op);
            Some(EdgeSource::Net(vec![(RNode::new(slot.pe, slot.cycle_mod, RKind::Fu), slot.abs)]))
        }
        (EdgeKind::Flow, NodeKind::Input { .. }) => {
            Some(EdgeSource::MemPorts(mem_sources(dfg, layout, src)))
        }
        (EdgeKind::Forward { root }, _) => {
            if let Some(net) = deliveries.get(&(src, root)) {
                return Some(EdgeSource::Net(net.clone()));
            }
            // Source consumer is not a representative: translate its class
            // pattern into the member frame.
            let class = classes.of[dfg.linear_index(src_iter)] as usize;
            let carrier =
                dfg.graph().in_edges(src).find(|ie| dfg.graph()[ie.id].signal(ie.src) == root)?;
            let (_, desc) = descriptor(dfg, layout, carrier.id, src_iter);
            let pattern = patterns[class].routes.get(&desc)?;
            let shift =
                Shift::between(layout, dfg, dfg.iteration_at(classes.reps[class]), src_iter);
            // A translated tap landing on a faulted resource cannot carry
            // the signal there; drop it. (Replication later rejects any
            // pattern whose member translation crosses a fault, so this
            // filter only keeps the negotiation from chasing dead taps.)
            let spec = layout.vsa().spec();
            let net: Vec<(RNode, i64)> = pattern
                .iter()
                .map(|&step| shift.apply(step))
                .filter(|&(n, _)| !spec.faults.masks(spec, n))
                .collect();
            if net.is_empty() {
                return None;
            }
            Some(EdgeSource::Net(net_sources(&net)))
        }
        (EdgeKind::Flow, NodeKind::Route) => None,
    }
}

/// The space-time translation from a class representative's frame to one
/// member's frame, computed once per route and applied per step.
#[derive(Clone, Copy, Debug)]
struct Shift {
    /// PE offset, in PEs.
    dx: i32,
    dy: i32,
    /// The member's macro start: pattern offsets are relative to it.
    start: i64,
    /// Member macro start minus the representative's.
    dt: i64,
    iib: i64,
}

impl Shift {
    fn between(layout: &Layout, dfg: &Dfg, rep_iter: Iter4, member_iter: Iter4) -> Self {
        let rep_pos = layout.position(dfg, rep_iter);
        let pos = layout.position(dfg, member_iter);
        let t = layout.sub().t as i64;
        Shift {
            dx: (pos.x - rep_pos.x) * layout.sub().s1 as i32,
            dy: (pos.y - rep_pos.y) * layout.sub().s2 as i32,
            start: pos.t as i64 * t,
            dt: (pos.t - rep_pos.t) as i64 * t,
            iib: layout.iib() as i64,
        }
    }

    /// The member-frame node and absolute time of a pattern step.
    #[inline]
    fn apply(&self, (pe, kind, offset): (PeId, RKind, i64)) -> (RNode, i64) {
        let npe = PeId::new((pe.x as i32 + self.dx) as usize, (pe.y as i32 + self.dy) as usize);
        let abs = self.start + offset;
        (RNode::new(npe, abs.rem_euclid(self.iib) as u32, kind), abs)
    }

    /// The representative-frame node of a member-frame step.
    fn unapply(&self, (node, abs): (RNode, i64)) -> RNode {
        let pe =
            PeId::new((node.pe.x as i32 - self.dx) as usize, (node.pe.y as i32 - self.dy) as usize);
        RNode::new(pe, (abs - self.dt).rem_euclid(self.iib) as u32, node.kind)
    }
}

/// Candidate memory-port sources for a load, filtered by store→load
/// causality of memory-routed dependences.
fn mem_sources(dfg: &Dfg, layout: &Layout, input: NodeId) -> Vec<(RNode, i64)> {
    let iter = dfg.graph()[input].iter;
    let pos = layout.position(dfg, iter);
    let t = layout.sub().t;
    let macro_start = pos.t as i64 * t as i64;
    // Earliest legal load: two cycles after the latest producing store
    // (result registered, then written to memory).
    let mut min_abs = macro_start;
    for &(producer, consumer) in dfg.mem_deps() {
        if consumer != input {
            continue;
        }
        let NodeKind::Op { stmt, op, .. } = dfg.graph()[producer].kind else {
            continue;
        };
        let p_iter = dfg.graph()[producer].iter;
        let p_slot = layout.op_slot(dfg, p_iter, stmt, op);
        min_abs = min_abs.max(p_slot.abs + 2);
    }
    let spe = himap_cgra::SpeId::new(pos.x as usize, pos.y as usize);
    let spec = layout.vsa().spec();
    let mut out = Vec::new();
    for lx in 0..layout.sub().s1 {
        for ly in 0..layout.sub().s2 {
            let pe = layout.vsa().pe_at(spe, PeId::new(lx, ly));
            for lt in 0..t {
                let abs = macro_start + lt as i64;
                if abs < min_abs {
                    continue;
                }
                let cycle = abs.rem_euclid(layout.iib() as i64) as u32;
                let node = RNode::new(pe, cycle, RKind::Mem);
                // A disabled memory bank (or dead PE) is not a source.
                if spec.faults.masks(spec, node) {
                    continue;
                }
                out.push((node, abs));
            }
        }
    }
    out
}

/// A PE bounding box (inclusive bounds): a sub-CGRA, or the hull of an
/// edge's source and destination sub-CGRAs, used to confine routes so
/// translated replicas stay in bounds.
#[derive(Clone, Copy)]
struct BBox {
    x0: i32,
    x1: i32,
    y0: i32,
    y1: i32,
}

impl BBox {
    /// The PEs of the sub-CGRA at systolic position `pos`. SPE positions
    /// are relative to the VSA origin, which is non-zero when the VSA is
    /// cropped around dead PEs.
    fn spe(layout: &Layout, pos: Position) -> BBox {
        let (s1, s2) = (layout.sub().s1 as i32, layout.sub().s2 as i32);
        let origin = layout.vsa().origin();
        let (x0, y0) = (origin.x as i32 + pos.x * s1, origin.y as i32 + pos.y * s2);
        BBox { x0, x1: x0 + s1 - 1, y0, y1: y0 + s2 - 1 }
    }

    /// The smallest box holding both.
    fn hull(self, other: BBox) -> BBox {
        BBox {
            x0: self.x0.min(other.x0),
            x1: self.x1.max(other.x1),
            y0: self.y0.min(other.y0),
            y1: self.y1.max(other.y1),
        }
    }

    fn contains(&self, pe: PeId) -> bool {
        (pe.x as i32) >= self.x0
            && (pe.x as i32) <= self.x1
            && (pe.y as i32) >= self.y0
            && (pe.y as i32) <= self.y1
    }

    /// The box's PEs, row-major.
    fn pes(&self) -> impl Iterator<Item = PeId> {
        let (x0, x1, y0, y1) = (self.x0, self.x1, self.y0, self.y1);
        (x0..=x1).flat_map(move |x| (y0..=y1).map(move |y| PeId::new(x as usize, y as usize)))
    }
}

fn route_bbox(dfg: &Dfg, layout: &Layout, e: EdgeId) -> BBox {
    let (src, dst) = dfg.graph().edge_endpoints(e);
    let spe = |node: NodeId| BBox::spe(layout, layout.position(dfg, dfg.graph()[node].iter));
    spe(src).hull(spe(dst))
}

/// One fully translated route for the simulator: the DFG edge it implements
/// and its concrete resource steps with absolute times.
#[derive(Clone, Debug)]
pub struct FullRoute {
    /// The DFG edge.
    pub edge: EdgeId,
    /// Steps `(node, absolute cycle)` from source to consumer FU.
    pub steps: Vec<(RNode, i64)>,
}

/// Marks a replicated step whose node is not in the MRRG.
const NO_KEY: u32 = u32::MAX;

/// Edges planned or stamped between two polls of the replication cancel
/// token: a few microseconds of work, so a fired deadline stops replication
/// promptly while the poll stays invisible in the profile.
const CANCEL_POLL_EDGES: usize = 1024;

/// Polls `cancel` once every [`CANCEL_POLL_EDGES`] edges (at edge `n`).
fn poll_cancelled(n: usize, cancel: Option<&CancelToken>) -> Result<(), RouteError> {
    if n.is_multiple_of(CANCEL_POLL_EDGES) && cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(RouteError::Cancelled);
    }
    Ok(())
}

/// A resource claim as `(resource key << 32) | signal`, where the key is
/// [`Mrrg::resource_key`]. Sorting and deduplicating a flat claim list
/// groups claims by resource, so occupancy costs memory in proportion to
/// the stamped steps, not to the fabric.
#[inline]
fn claim(key: u32, signal: u32) -> u64 {
    (u64::from(key) << 32) | u64::from(signal)
}

/// One DFG edge of a [`ReplicaPlan`].
#[derive(Clone, Copy, Debug)]
struct PlannedEdge {
    /// Dense key of the edge's `(class, descriptor)`: which routed pattern
    /// implements it.
    key: u32,
    /// The root signal the route carries.
    root: u32,
    /// Translation from the class representative's frame to the edge's
    /// consumer iteration.
    shift: Shift,
}

/// The design-independent half of replicating one layout.
///
/// Replication stamps every class pattern over every iteration of the
/// block. Apart from the patterns themselves, everything it needs depends
/// only on `(dfg, layout, classes)`, which stay fixed across a layout's
/// replication feedback rounds: the op FU-slot claims, the ops whose
/// member translation lands on a PE lacking their capability, and per edge
/// the pattern it reuses, its translation and its root signal. The plan
/// derives them once per layout; each [`ReplicaPlan::replicate`] round
/// resolves the few distinct pattern keys against the new design and
/// stamps, with no per-edge hashing or allocation. Resources are named by
/// their arithmetic [`Mrrg::resource_key`], so the plan needs no index of
/// the fabric.
pub struct ReplicaPlan<'a> {
    dfg: &'a Dfg,
    layout: &'a Layout,
    /// The layout's whole-fabric MRRG (implicit: no tables).
    mrrg: Mrrg,
    /// Every op FU-slot claim (with the op's unique node id), sorted.
    op_claims: Vec<u64>,
    /// Representative-frame FU slots of ops that some member translation
    /// lands on a PE lacking the op's capability class.
    op_faults: Vec<RNode>,
    /// The distinct `(class, descriptor)` pairs, numbered in order of first
    /// use in edge order.
    keys: Vec<(usize, Descriptor)>,
    /// One entry per DFG edge, in edge order.
    edges: Vec<PlannedEdge>,
}

impl<'a> ReplicaPlan<'a> {
    /// Derives the replication plan of a layout. `cancel` (when present) is
    /// polled every [`CANCEL_POLL_EDGES`] edges; once it fires the build
    /// stops with [`RouteError::Cancelled`].
    pub fn new(
        dfg: &'a Dfg,
        layout: &'a Layout,
        classes: &Classes,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, RouteError> {
        let spec = layout.vsa().spec();
        let mrrg = Mrrg::new(spec.clone(), layout.iib());
        let mut op_claims = Vec::new();
        let mut op_faults = Vec::new();
        // A member translation may land an op on a PE that computes but
        // lacks the op's capability class (heterogeneous fabrics) — that
        // invalidates the pattern exactly like a faulted step.
        for (node, w) in dfg.graph().nodes() {
            if let NodeKind::Op { stmt, op, kind } = w.kind {
                let slot = layout.op_slot(dfg, w.iter, stmt, op);
                let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
                if !spec.faults.supports_op(slot.pe, kind) {
                    let class = classes.of[dfg.linear_index(w.iter)] as usize;
                    let rep_iter = dfg.iteration_at(classes.reps[class]);
                    let rep_slot = layout.op_slot(dfg, rep_iter, stmt, op);
                    op_faults.push(RNode::new(rep_slot.pe, rep_slot.cycle_mod, RKind::Fu));
                    continue;
                }
                if let Some(key) = mrrg.resource_key(fu) {
                    op_claims.push(claim(key, node.index() as u32));
                } else {
                    debug_assert!(false, "op slot outside the array at {fu:?}");
                }
            }
        }
        op_claims.sort_unstable();
        let mut key_of: HashMap<(usize, Descriptor), u32> = HashMap::new();
        let mut keys = Vec::new();
        let mut edges = Vec::with_capacity(dfg.graph().edge_count());
        for (n, e) in dfg.graph().edge_ids().enumerate() {
            poll_cancelled(n, cancel)?;
            let (src, dst) = dfg.graph().edge_endpoints(e);
            let dst_iter = dfg.graph()[dst].iter;
            let class = classes.of[dfg.linear_index(dst_iter)] as usize;
            let (_, desc) = descriptor(dfg, layout, e, dst_iter);
            let key = *key_of.entry((class, desc)).or_insert_with(|| {
                keys.push((class, desc));
                (keys.len() - 1) as u32
            });
            edges.push(PlannedEdge {
                key,
                root: dfg.graph()[e].signal(src).index() as u32,
                shift: Shift::between(layout, dfg, dfg.iteration_at(classes.reps[class]), dst_iter),
            });
        }
        Ok(ReplicaPlan { dfg, layout, mrrg, op_claims, op_faults, keys, edges })
    }

    /// Replicates the design's class patterns over every iteration,
    /// verifying resource capacities and memory causality.
    ///
    /// On success returns the complete per-edge routing, in edge order. A
    /// class missing the pattern of one of its edges fails with
    /// [`RouteError::MissingPattern`] for the first such edge. `cancel`
    /// (when present) is polled every [`CANCEL_POLL_EDGES`] edges while
    /// stamping; once it fires, replication stops with
    /// [`RouteError::Cancelled`].
    pub fn replicate(
        &self,
        design: &RoutedDesign,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<FullRoute>, RouteError> {
        // Keys are numbered in order of first use, so the first missing key
        // is the first edge's.
        let patterns = self
            .keys
            .iter()
            .map(|(class, desc)| {
                design.patterns[*class]
                    .routes
                    .get(desc)
                    .ok_or(RouteError::MissingPattern { class: *class })
            })
            .collect::<Result<Vec<&Pattern>, _>>()?;
        self.check_claims(&patterns, cancel)?;
        let routes: Vec<FullRoute> = self
            .dfg
            .graph()
            .edge_ids()
            .zip(&self.edges)
            .map(|(e, edge)| FullRoute {
                edge: e,
                steps: patterns[edge.key as usize].iter().map(|&s| edge.shift.apply(s)).collect(),
            })
            .collect();
        check_load_times(self.dfg, self.layout, &routes)?;
        Ok(routes)
    }

    /// Stamps every edge's translated pattern as resource claims and checks
    /// them: no step on a faulted resource, no resource over capacity. The
    /// claim list is freed before the caller builds the routes.
    fn check_claims(
        &self,
        patterns: &[&Pattern],
        cancel: Option<&CancelToken>,
    ) -> Result<(), RouteError> {
        let spec = self.layout.vsa().spec();
        let steps: usize = self.edges.iter().map(|edge| patterns[edge.key as usize].len()).sum();
        // Op slots claim with their (unique) node id, route steps with their
        // root signal.
        let mut claims = Vec::with_capacity(self.op_claims.len() + steps);
        claims.extend_from_slice(&self.op_claims);
        // Resource key of every route step in stamping order (`NO_KEY` off
        // the MRRG), so the conflict pass below needs no second lookup.
        let mut step_keys: Vec<u32> = Vec::with_capacity(steps);
        // Steps (in the representative frame) whose translations land on
        // faulted or capability-illegal resources; reported together so the
        // feedback loop steers the next negotiation round around them.
        let mut faulted_steps = self.op_faults.clone();
        for (n, edge) in self.edges.iter().enumerate() {
            poll_cancelled(n, cancel)?;
            let pattern = patterns[edge.key as usize];
            for (i, &step) in pattern.iter().enumerate() {
                let (node, abs) = edge.shift.apply(step);
                debug_assert!(
                    spec.contains(node.pe),
                    "translated route leaves the array at {node:?}"
                );
                let key = self.mrrg.resource_key(node);
                step_keys.push(key.unwrap_or(NO_KEY));
                let endpoint = i == 0 || i == pattern.len() - 1;
                if !(endpoint && node.kind == RKind::Fu) {
                    if let Some(key) = key {
                        claims.push(claim(key, edge.root));
                    } else if spec.faults.masks(spec, node) {
                        faulted_steps.push(edge.shift.unapply((node, abs)));
                    }
                }
            }
        }
        if !faulted_steps.is_empty() {
            faulted_steps.sort();
            faulted_steps.dedup();
            return Err(RouteError::ReplicaConflicts {
                count: faulted_steps.len(),
                rep_frame: faulted_steps,
            });
        }
        // Capacity check: after dedup each run of equal keys lists the
        // resource's distinct signals.
        claims.sort_unstable();
        claims.dedup();
        // The resource bit mask is built only on a conflicting round, so
        // membership tests in the step scan below cost one load.
        let mut conflicted: Option<ResourceMask> = None;
        let mut conflict_count = 0;
        for run in claims.chunk_by(|a, b| a >> 32 == b >> 32) {
            let key = (run[0] >> 32) as u32;
            // Every resource holds one signal, so most runs need no lookup.
            if run.len() > 1 && run.len() > spec.capacity(self.mrrg.resource_node(key).kind) {
                conflicted.get_or_insert_with(|| ResourceMask::new(&self.mrrg)).insert(key);
                conflict_count += 1;
            }
        }
        match conflicted {
            Some(is_conflicted) => Err(RouteError::ReplicaConflicts {
                count: conflict_count,
                rep_frame: self.conflicts_in_rep_frame(patterns, &step_keys, &is_conflicted),
            }),
            None => Ok(()),
        }
    }

    /// The conflicting steps translated back into their representatives'
    /// frames (sorted, deduplicated), so the caller can penalize them in the
    /// next negotiation round. A step's representative-frame node depends
    /// only on its pattern and step index, not on the member it was stamped
    /// for, so each `(key, step)` is translated back once.
    fn conflicts_in_rep_frame(
        &self,
        patterns: &[&Pattern],
        step_keys: &[u32],
        is_conflicted: &ResourceMask,
    ) -> Vec<RNode> {
        let mut first_step = Vec::with_capacity(patterns.len());
        let mut total = 0;
        for pattern in patterns {
            first_step.push(total);
            total += pattern.len();
        }
        let mut reported = vec![false; total];
        let mut rep_frame = Vec::new();
        let mut step_keys = step_keys.iter();
        for edge in &self.edges {
            let key = edge.key as usize;
            for (i, (&step, &rk)) in patterns[key].iter().zip(step_keys.by_ref()).enumerate() {
                if rk != NO_KEY && is_conflicted.contains(rk) && !reported[first_step[key] + i] {
                    reported[first_step[key] + i] = true;
                    rep_frame.push(edge.shift.unapply(edge.shift.apply(step)));
                }
            }
        }
        rep_frame.sort_unstable();
        rep_frame.dedup();
        rep_frame
    }
}

/// One bit per resource key of an MRRG.
struct ResourceMask(Vec<u64>);

impl ResourceMask {
    fn new(mrrg: &Mrrg) -> Self {
        ResourceMask(vec![0; mrrg.key_space().div_ceil(64)])
    }

    #[inline]
    fn contains(&self, key: u32) -> bool {
        self.0[key as usize / 64] >> (key % 64) & 1 == 1
    }

    /// Sets the bit of `key`, returning whether it was clear.
    #[inline]
    fn insert(&mut self, key: u32) -> bool {
        let fresh = !self.contains(key);
        self.0[key as usize / 64] |= 1 << (key % 64);
        fresh
    }
}

/// The anti-dependence and memory-causality checks over replicated routes.
///
/// A load's absolute time is the first step of a route leaving its input
/// node; the earliest and latest load per input are gathered in one pass
/// over the routes, so each dependence is answered by one lookup.
fn check_load_times(dfg: &Dfg, layout: &Layout, routes: &[FullRoute]) -> Result<(), RouteError> {
    if dfg.anti_deps().is_empty() && dfg.mem_deps().is_empty() {
        return Ok(());
    }
    let mut load_abs: Vec<Option<(i64, i64)>> = vec![None; dfg.graph().node_count()];
    for route in routes {
        let (src, _) = dfg.graph().edge_endpoints(route.edge);
        let abs = route.steps[0].1;
        let span = &mut load_abs[src.index()];
        *span = Some(span.map_or((abs, abs), |(lo, hi)| (lo.min(abs), hi.max(abs))));
    }
    let op_abs = |node: NodeId| match dfg.graph()[node].kind {
        NodeKind::Op { stmt, op, .. } => {
            Some(layout.op_slot(dfg, dfg.graph()[node].iter, stmt, op).abs)
        }
        _ => None,
    };
    // Anti-dependences: a live-in load must issue before the overwriting
    // store becomes visible (load_abs <= writer_abs + 1; the store is
    // readable from writer_abs + 2).
    for &(reader, writer) in dfg.anti_deps() {
        let (Some(w_abs), Some((_, latest))) = (op_abs(writer), load_abs[reader.index()]) else {
            continue;
        };
        if latest > w_abs + 1 {
            return Err(RouteError::AntiDependence);
        }
    }
    // Memory causality: every memory-routed load happens at least two cycles
    // after its producing op.
    for &(producer, consumer) in dfg.mem_deps() {
        let (Some(p_abs), Some((earliest, _))) = (op_abs(producer), load_abs[consumer.index()])
        else {
            continue;
        };
        if earliest < p_abs + 2 {
            return Err(RouteError::MemCausality);
        }
    }
    Ok(())
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::HiMapOptions;
    use crate::submap::{map_idfg, SubMapping};
    use crate::unique::classify;
    use himap_cgra::{CgraSpec, Vsa};
    use himap_kernels::suite;
    use himap_systolic::{search, SearchConfig};
    use std::sync::Arc;

    fn pipeline(kernel: &himap_kernels::Kernel, c: usize) -> (Dfg, Layout, Classes) {
        let sub = map_idfg(kernel, &CgraSpec::square(c), &HiMapOptions::default())[0].clone();
        let (dfg, vsa, ranked) = systolic(kernel, c, &sub, (0, 1));
        let layout = Layout::new(&dfg, vsa, sub, &ranked[0]);
        let classes = classify(&dfg, &layout);
        (dfg, layout, classes)
    }

    /// The unrolled block and ranked systolic maps of sub-mapping `sub`
    /// with loop dims `space.0`/`space.1` mapped to the VSA rows/columns.
    fn systolic(
        kernel: &himap_kernels::Kernel,
        c: usize,
        sub: &SubMapping,
        space: (usize, usize),
    ) -> (Dfg, Vsa, Vec<himap_systolic::RankedMap>) {
        let spec = CgraSpec::square(c);
        let vsa = Vsa::new(spec, sub.s1, sub.s2).expect("tiles");
        let block: Vec<usize> = (0..kernel.dims())
            .map(|dim| {
                if dim == space.0 && vsa.rows() > 1 {
                    vsa.rows()
                } else if dim == space.1 && vsa.cols() > 1 {
                    vsa.cols()
                } else {
                    4
                }
            })
            .collect();
        let dfg = Dfg::build(kernel, &block).expect("builds");
        let isdg = dfg.isdg();
        let ranked = search(&SearchConfig {
            dims: kernel.dims(),
            block,
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps: isdg.distances().to_vec(),
            mem_deps: dfg.mem_dep_distances(),
            anti_deps: dfg.anti_dep_distances(),
        });
        (dfg, vsa, ranked)
    }

    /// The first space assignment and ranked systolic map of `kernel` whose
    /// representatives route and replicate cleanly on a `c`×`c` array.
    fn first_replicating(
        kernel: &himap_kernels::Kernel,
        c: usize,
    ) -> (Dfg, Layout, Classes, RoutedDesign) {
        let subs = map_idfg(kernel, &CgraSpec::square(c), &HiMapOptions::default());
        for sub in &subs {
            for space in [(0, 1), (1, 2), (0, 2)] {
                let (dfg, vsa, ranked) = systolic(kernel, c, sub, space);
                for st in ranked.iter().take(4) {
                    let layout = Layout::new(&dfg, vsa.clone(), sub.clone(), st);
                    let classes = classify(&dfg, &layout);
                    if let Some((design, _)) = try_replicated_design(&dfg, &layout, &classes) {
                        return (dfg, layout, classes, design);
                    }
                }
            }
        }
        panic!("{} does not replicate on {c}x{c}", kernel.name())
    }

    /// The orchestrator's replication-aware negotiation loop, reproduced
    /// for direct testing of this module.
    fn route_with_feedback(dfg: &Dfg, layout: &Layout, classes: &Classes) -> Vec<FullRoute> {
        replicated_design(dfg, layout, classes).1
    }

    /// [`route_with_feedback`], also returning the design that replicated
    /// cleanly — the starting point for hand-edited replication tests.
    fn replicated_design(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
    ) -> (RoutedDesign, Vec<FullRoute>) {
        try_replicated_design(dfg, layout, classes).expect("feedback loop converges")
    }

    fn try_replicated_design(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
    ) -> Option<(RoutedDesign, Vec<FullRoute>)> {
        let plan = ReplicaPlan::new(dfg, layout, classes, None).expect("no cancel token");
        match feedback_rounds(dfg, layout, classes, |design| plan.replicate(design, None)).pop()? {
            (design, Ok(routes)) => Some((design, routes)),
            (_, Err(RouteError::ReplicaConflicts { .. })) => None,
            (_, Err(e)) => panic!("unexpected failure: {e}"),
        }
    }

    /// One replication feedback round: the negotiated design and what
    /// replicating it returned.
    type Round = (RoutedDesign, Result<Vec<FullRoute>, RouteError>);

    /// Runs the feedback loop with `replicate` as its replication step until
    /// a round replicates cleanly, fails otherwise, or the round budget (or
    /// negotiation) runs out, returning every round.
    fn feedback_rounds(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        mut replicate: impl FnMut(&RoutedDesign) -> Result<Vec<FullRoute>, RouteError>,
    ) -> Vec<Round> {
        let options = HiMapOptions::default();
        let mut seed: Vec<RNode> = Vec::new();
        let mut rounds = Vec::new();
        for _ in 0..options.replication_feedback_rounds {
            let Ok(design) = route_representatives(dfg, layout, classes, &options, &seed) else {
                break;
            };
            let result = replicate(&design);
            let conflicts = match &result {
                Err(RouteError::ReplicaConflicts { rep_frame, .. }) => Some(rep_frame.clone()),
                _ => None,
            };
            rounds.push((design, result));
            match conflicts {
                Some(rep_frame) => seed.extend(rep_frame),
                None => break,
            }
        }
        rounds
    }

    /// The in-edges of class `class`'s representative as `(descriptor,
    /// root signal)`, in edge order.
    fn rep_in_edges(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        class: usize,
    ) -> Vec<(Descriptor, NodeId)> {
        let rep_iter = dfg.iteration_at(classes.reps[class]);
        dfg.graph()
            .edge_ids()
            .filter_map(|e| {
                let (src, dst) = dfg.graph().edge_endpoints(e);
                (dfg.graph()[dst].iter == rep_iter)
                    .then(|| (descriptor(dfg, layout, e, rep_iter).1, dfg.graph()[e].signal(src)))
            })
            .collect()
    }

    /// A `RegWr` step in the representative frame of `class` (at the
    /// representative's first op PE) that no replicated route claims, in the
    /// representative or in any member translation, plus the class whose
    /// representative has three in-edges with distinct root signals.
    fn free_regwr(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        routes: &[FullRoute],
    ) -> (usize, (PeId, RKind, i64)) {
        let claimed: std::collections::HashSet<RNode> =
            routes.iter().flat_map(|r| r.steps.iter().map(|&(n, _)| n)).collect();
        for class in 0..classes.count() {
            let mut roots: Vec<NodeId> =
                rep_in_edges(dfg, layout, classes, class).into_iter().map(|(_, r)| r).collect();
            roots.sort();
            roots.dedup();
            if roots.len() < 3 {
                continue;
            }
            let rep_iter = dfg.iteration_at(classes.reps[class]);
            let members: Vec<Iter4> = (0..classes.of.len())
                .filter(|&i| classes.of[i] as usize == class)
                .map(|i| dfg.iteration_at(i))
                .collect();
            let pe = dfg
                .cluster(rep_iter)
                .iter()
                .find_map(|&n| match dfg.graph()[n].kind {
                    NodeKind::Op { stmt, op, .. } => {
                        Some(layout.op_slot(dfg, rep_iter, stmt, op).pe)
                    }
                    _ => None,
                })
                .expect("representatives hold ops");
            let macro_start = layout.position(dfg, rep_iter).t as i64 * layout.sub().t as i64;
            for cycle in 0..layout.iib() as i64 {
                let step = (pe, RKind::RegWr, cycle - macro_start);
                let free = members.iter().all(|&m| {
                    !claimed.contains(&Shift::between(layout, dfg, rep_iter, m).apply(step).0)
                });
                if free {
                    return (class, step);
                }
            }
        }
        panic!("no free RegWr slot in any class with three distinct in-edge signals")
    }

    /// Inserts `step` as a transit step of the pattern for `desc`.
    fn claim(design: &mut RoutedDesign, class: usize, desc: &Descriptor, step: (PeId, RKind, i64)) {
        let pattern = design.patterns[class].routes.get_mut(desc).expect("routed descriptor");
        pattern.insert(1, step);
    }

    #[test]
    fn repeated_signal_on_a_capacity_two_resource_is_not_a_conflict() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let (mut design, routes) = replicated_design(&dfg, &layout, &classes);
        let (class, step) = free_regwr(&dfg, &layout, &classes, &routes);
        let rep_iter = dfg.iteration_at(classes.reps[class]);
        let node = Shift::between(&layout, &dfg, rep_iter, rep_iter).apply(step).0;
        assert_eq!(layout.vsa().spec().capacity(node.kind), 2);
        // Signal A claims the resource twice (two steps of one route), signal
        // B once: three claims, but only two distinct signals.
        let edges = rep_in_edges(&dfg, &layout, &classes, class);
        let (desc_a, root_a) = edges[0];
        let (desc_b, _) =
            edges.iter().find(|(_, root)| *root != root_a).copied().expect("second signal");
        claim(&mut design, class, &desc_a, step);
        claim(&mut design, class, &desc_a, step);
        claim(&mut design, class, &desc_b, step);
        let replicated = ReplicaPlan::new(&dfg, &layout, &classes, None)
            .expect("no cancel token")
            .replicate(&design, None);
        assert!(replicated.is_ok(), "two distinct signals fit capacity 2: {replicated:?}");
    }

    #[test]
    fn three_distinct_signals_on_a_capacity_two_resource_conflict() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let (mut design, routes) = replicated_design(&dfg, &layout, &classes);
        let (class, step) = free_regwr(&dfg, &layout, &classes, &routes);
        let rep_iter = dfg.iteration_at(classes.reps[class]);
        let node = Shift::between(&layout, &dfg, rep_iter, rep_iter).apply(step).0;
        let mut seen: Vec<NodeId> = Vec::new();
        for (desc, root) in rep_in_edges(&dfg, &layout, &classes, class) {
            if seen.len() < 3 && !seen.contains(&root) {
                seen.push(root);
                claim(&mut design, class, &desc, step);
            }
        }
        assert_eq!(seen.len(), 3);
        match ReplicaPlan::new(&dfg, &layout, &classes, None)
            .expect("no cancel token")
            .replicate(&design, None)
        {
            Err(RouteError::ReplicaConflicts { count, rep_frame }) => {
                assert!(count >= 1);
                assert!(rep_frame.contains(&node), "{node:?} missing from {rep_frame:?}");
            }
            other => panic!("expected a replica conflict, got {other:?}"),
        }
    }

    /// Shifts the first step (the load) of the pattern carrying an out-edge
    /// of `input` by `delta` cycles. A multiple of the II keeps every
    /// resource claim identical, so only the absolute load time moves.
    fn shift_load(
        dfg: &Dfg,
        layout: &Layout,
        classes: &Classes,
        design: &mut RoutedDesign,
        input: NodeId,
        delta: i64,
    ) {
        let e = dfg.graph().out_edges(input).next().expect("the load feeds an op").id;
        let (_, dst) = dfg.graph().edge_endpoints(e);
        let dst_iter = dfg.graph()[dst].iter;
        let class = classes.of[dfg.linear_index(dst_iter)] as usize;
        let (_, desc) = descriptor(dfg, layout, e, dst_iter);
        let pattern = design.patterns[class].routes.get_mut(&desc).expect("routed descriptor");
        pattern[0].2 += delta;
    }

    #[test]
    fn delayed_live_in_load_violates_an_anti_dependence() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let (mut design, _) = replicated_design(&dfg, &layout, &classes);
        let (reader, _) = dfg.anti_deps()[0];
        let delta = 64 * layout.iib() as i64;
        shift_load(&dfg, &layout, &classes, &mut design, reader, delta);
        assert_eq!(
            ReplicaPlan::new(&dfg, &layout, &classes, None)
                .expect("no cancel token")
                .replicate(&design, None)
                .map(|_| ()),
            Err(RouteError::AntiDependence)
        );
    }

    #[test]
    fn early_load_violates_memory_causality() {
        let (dfg, layout, classes, mut design) = first_replicating(&suite::floyd_warshall(), 4);
        let (_, consumer) = dfg.mem_deps()[0];
        let delta = -64 * layout.iib() as i64;
        shift_load(&dfg, &layout, &classes, &mut design, consumer, delta);
        assert_eq!(
            ReplicaPlan::new(&dfg, &layout, &classes, None)
                .expect("no cancel token")
                .replicate(&design, None)
                .map(|_| ()),
            Err(RouteError::MemCausality)
        );
    }

    /// The observable outcome of one replication round: the final routes'
    /// edges and steps, or the error.
    type Outcome = Result<Vec<(EdgeId, Vec<(RNode, i64)>)>, RouteError>;

    fn outcome(result: &Result<Vec<FullRoute>, RouteError>) -> Outcome {
        result
            .as_ref()
            .map(|routes| routes.iter().map(|r| (r.edge, r.steps.clone())).collect())
            .map_err(Clone::clone)
    }

    #[test]
    fn a_plan_reused_across_rounds_matches_a_fresh_plan_per_round() {
        let (dfg, layout, classes, _) = first_replicating(&suite::ttm(), 4);
        let plan = ReplicaPlan::new(&dfg, &layout, &classes, None).expect("no cancel token");
        let reused =
            feedback_rounds(&dfg, &layout, &classes, |design| plan.replicate(design, None));
        let fresh = feedback_rounds(&dfg, &layout, &classes, |design| {
            ReplicaPlan::new(&dfg, &layout, &classes, None)
                .expect("no cancel token")
                .replicate(design, None)
        });
        assert!(reused.len() > 1, "ttm needs several feedback rounds, took {}", reused.len());
        assert_eq!(reused.len(), fresh.len());
        for (round, ((_, a), (_, b))) in reused.iter().zip(&fresh).enumerate() {
            assert_eq!(outcome(a), outcome(b), "round {round}");
        }
        assert!(reused.last().is_some_and(|(_, result)| result.is_ok()), "the loop converges");
    }

    #[test]
    fn a_missing_descriptor_is_reported_for_the_first_edge_using_it() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let (mut design, _) = replicated_design(&dfg, &layout, &classes);
        // `(class, descriptor)` of every edge, in edge order.
        let keys: Vec<(usize, Descriptor)> = dfg
            .graph()
            .edge_ids()
            .map(|e| {
                let dst_iter = dfg.graph()[dfg.graph().edge_endpoints(e).1].iter;
                let class = classes.of[dfg.linear_index(dst_iter)] as usize;
                (class, descriptor(&dfg, &layout, e, dst_iter).1)
            })
            .collect();
        let replicate = |design: &RoutedDesign| {
            ReplicaPlan::new(&dfg, &layout, &classes, None)
                .expect("no cancel token")
                .replicate(design, None)
                .map(|_| ())
        };
        // One missing descriptor: its class is reported.
        let (last_class, last_desc) = *keys.last().expect("edges");
        design.patterns[last_class].routes.remove(&last_desc);
        assert_eq!(replicate(&design), Err(RouteError::MissingPattern { class: last_class }));
        // A second one, in another class: the first of the two in edge order
        // is reported.
        let (other_class, other_desc) =
            *keys.iter().find(|(class, _)| *class != last_class).expect("two classes");
        design.patterns[other_class].routes.remove(&other_desc);
        let first = keys
            .iter()
            .find(|&&(c, d)| {
                (c, d) == (last_class, last_desc) || (c, d) == (other_class, other_desc)
            })
            .expect("removed keys are used");
        assert_eq!(replicate(&design), Err(RouteError::MissingPattern { class: first.0 }));
    }

    #[test]
    fn a_window_missing_the_representatives_reruns_on_the_whole_fabric() {
        let (dfg, layout, classes) = pipeline(&suite::gemm(), 4);
        let spec = layout.vsa().spec().clone();
        let options = HiMapOptions::default();
        let plan = ReplicaPlan::new(&dfg, &layout, &classes, None).expect("no cancel token");
        let negotiate = |index: Arc<MrrgIndex>| {
            let mut router = Router::with_index(index, RouterConfig::default());
            let (design, counters) = route_representatives_pooled(
                &dfg,
                &layout,
                &classes,
                &options,
                &[],
                &mut router,
                Duration::ZERO,
            );
            let design = design.expect("gemm negotiates on 4x4");
            let stats = counters.router;
            let searched = (stats.searches, stats.nodes_popped, stats.heap_pushes);
            (design.rounds, outcome(&plan.replicate(&design, None)), searched, router.index().len())
        };
        let full = MrrgIndex::shared(spec.clone(), layout.iib());
        let window = representative_window(&dfg, &layout, &classes);
        assert!(window.len() > 1);
        let from_full = negotiate(Arc::clone(&full));
        // The representatives' own window answers exactly as the fabric does.
        let from_window =
            negotiate(Arc::new(MrrgIndex::new_window(spec.clone(), layout.iib(), window)));
        assert_eq!(from_window.0, from_full.0);
        assert_eq!(from_window.1, from_full.1);
        assert_eq!(from_window.2, from_full.2);
        assert!(from_window.3 < full.len(), "the window is smaller than the fabric");
        // A one-PE window misses most of it: the negotiation reruns on the
        // whole fabric, with the same design and search counters.
        let corner = MrrgIndex::new_window(spec, layout.iib(), vec![PeId::new(0, 0)]);
        let from_corner = negotiate(Arc::new(corner));
        assert_eq!(from_corner, from_full);
    }

    #[test]
    fn representatives_cover_every_descriptor() {
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        // Replication fails with `MissingPattern` on any uncovered class
        // descriptor, so a clean pass proves descriptor coverage; the route
        // count proves every edge is implemented.
        let routes = route_with_feedback(&dfg, &layout, &classes);
        assert_eq!(routes.len(), dfg.graph().edge_count());
    }

    #[test]
    fn replicated_routes_end_at_consumers() {
        let kernel = suite::mvt();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let routes = route_with_feedback(&dfg, &layout, &classes);
        for route in &routes {
            let (_, dst) = dfg.graph().edge_endpoints(route.edge);
            let NodeKind::Op { stmt, op, .. } = dfg.graph()[dst].kind else {
                panic!("consumers are ops")
            };
            let slot = layout.op_slot(&dfg, dfg.graph()[dst].iter, stmt, op);
            let last = route.steps.last().expect("non-empty");
            assert_eq!(last.1, slot.abs);
            assert_eq!(last.0.pe, slot.pe);
            // Steps advance by 0 or 1 cycles, never backwards.
            for w in route.steps.windows(2) {
                assert!((0..=1).contains(&(w[1].1 - w[0].1)));
            }
        }
    }

    #[test]
    fn seed_history_is_accepted() {
        // Pre-seeding arbitrary history must not break routing (it only
        // biases the search).
        let kernel = suite::gemm();
        let (dfg, layout, classes) = pipeline(&kernel, 4);
        let seed = vec![RNode::new(himap_cgra::PeId::new(0, 0), 0, RKind::Out)];
        let design =
            route_representatives(&dfg, &layout, &classes, &HiMapOptions::default(), &seed)
                .expect("routes despite seeded history");
        assert!(!design.patterns.is_empty());
    }

    #[test]
    fn error_messages_are_lowercase() {
        let errors = [
            RouteError::Unroutable(EdgeId::from_index(3)),
            RouteError::ForwardOrdering,
            RouteError::Congested(2),
            RouteError::ReplicaConflicts { count: 1, rep_frame: vec![] },
            RouteError::MemCausality,
            RouteError::AntiDependence,
            RouteError::NonCausal(EdgeId::from_index(0)),
            RouteError::MissingPattern { class: 2 },
            RouteError::Cancelled,
            RouteError::MaskedSlot(RNode::new(himap_cgra::PeId::new(3, 0), 0, RKind::Fu)),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.chars().next().is_some_and(|c| c.is_uppercase()), "{msg}");
        }
    }
}
