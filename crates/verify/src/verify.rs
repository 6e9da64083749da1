//! The independent mapping verifier: re-derives legality of a
//! [`Mapping`] from first principles.
//!
//! Nothing here trusts the mapper's bookkeeping. Occupancy is restamped
//! from the routes, hop timing is re-derived from the MRRG's architectural
//! latencies (the CSR successor rows of [`MrrgIndex`], which the
//! differential tests pin to the implicit [`Mrrg`] enumeration), and the
//! configuration footprint is recomputed from the placements — so a bug
//! anywhere in placement, routing, replication or statistics surfaces as a
//! diagnostic instead of a miscompiled accelerator image.

use himap_cgra::{Mrrg, MrrgIndex, RIdx, RKind, RNode};
use himap_core::{ConfigImage, Mapping, Slot};
use himap_dfg::{EdgeKind, NodeKind};
use himap_graph::NodeId;

use himap_analyze::{Code, Diagnostic, DiagnosticSink};

/// Statically verifies a mapping, returning every finding.
///
/// Checks, in order: placement sanity and per-route MRRG connectivity and
/// timing (**V002**, with register-file shape violations split out as
/// **V004**), producer→consumer schedule consistency including memory
/// causality (**V003**), modulo resource exclusivity recomputed from the
/// routes (**V001**, RF port pressure as **V004**), the configuration
/// memory bound (**V005**), fault avoidance for placements and routes on a
/// faulted fabric (**V006**), capability legality of each op's PE
/// (**V007**), and the quality lints (**W101**–**W103**).
///
/// Each check costs one pass over the routes' steps plus at most one sort,
/// so verifying a mapping costs about as much as writing its routes down.
pub fn verify_mapping(mapping: &Mapping) -> DiagnosticSink {
    let mut sink = DiagnosticSink::new();
    let iib = mapping.stats().iib.max(1);
    // The shared dense index: normally a cache hit on the exact build the
    // mapper routed with, so verification adds no graph construction.
    let index = MrrgIndex::shared(mapping.spec().clone(), iib);
    let mrrg = index.mrrg();

    let placements_ok = check_placement(mapping, mrrg, &mut sink);
    check_route_coverage(mapping, &mut sink);
    let mut ids = Vec::new();
    for route in mapping.routes() {
        check_route_path(mapping, &index, route, &mut ids, &mut sink);
    }
    let slots = dense_slots(mapping);
    check_schedule(mapping, &index, &slots, &mut sink);
    check_exclusivity(mapping, &index, &slots, &mut sink);
    if placements_ok && !sink.has_errors() {
        // `ConfigImage` trusts placements; only decode an image the checks
        // above found structurally sound.
        check_config_memory(mapping, &mut sink);
    }
    check_quality(mapping, iib, &mut sink);
    sink
}

/// Every compute op must own an in-bounds FU slot whose modulo cycle agrees
/// with its absolute time. Returns `false` when any op is unplaced.
fn check_placement(mapping: &Mapping, mrrg: &Mrrg, sink: &mut DiagnosticSink) -> bool {
    let iib = mrrg.ii() as i64;
    let mut complete = true;
    for (node, w) in mapping.dfg().graph().nodes() {
        let NodeKind::Op { kind: op_kind, .. } = w.kind else {
            continue;
        };
        let Some(slot) = mapping.op_slot(node) else {
            complete = false;
            sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!("compute op n{} has no FU slot", node.index()),
                )
                .at_node(node),
            );
            continue;
        };
        let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
        if !mrrg.contains(fu) {
            // A faulted FU is architecturally present but masked; report it
            // as a fault-avoidance violation, not a shape error.
            let spec = mapping.spec();
            let (code, what) = if spec.faults.masks(spec, fu) {
                (Code::V006, "on a faulted resource")
            } else {
                (Code::V002, "outside the architecture")
            };
            sink.push(
                Diagnostic::error(code, format!("op n{} is placed {what}", node.index()))
                    .at_resource(fu)
                    .at_node(node),
            );
        } else if !mapping.spec().faults.supports_op(slot.pe, op_kind) {
            // The FU exists (the PE computes *something*) but not this
            // op-class: a capability-legality violation, distinct from the
            // masked-resource case above.
            sink.push(
                Diagnostic::error(
                    Code::V007,
                    format!(
                        "op n{} (`{}`) is placed on a PE whose capability classes \
                         exclude it",
                        node.index(),
                        op_kind.mnemonic()
                    ),
                )
                .at_resource(fu)
                .at_node(node),
            );
        }
        if slot.abs.rem_euclid(iib) != slot.cycle_mod as i64 {
            sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!(
                        "op n{}'s modulo cycle {} disagrees with its absolute time {} (mod {})",
                        node.index(),
                        slot.cycle_mod,
                        slot.abs,
                        iib
                    ),
                )
                .at_resource(fu)
                .at_cycle(slot.abs)
                .at_node(node),
            );
        }
    }
    complete
}

/// The FU slot of every placed op, indexed by DFG node.
fn dense_slots(mapping: &Mapping) -> Vec<Option<Slot>> {
    let mut slots = vec![None; mapping.dfg().graph().node_count()];
    for (node, &slot) in mapping.op_slots() {
        if let Some(entry) = slots.get_mut(node.index()) {
            *entry = Some(slot);
        }
    }
    slots
}

/// Every DFG edge must be implemented by exactly one route.
fn check_route_coverage(mapping: &Mapping, sink: &mut DiagnosticSink) {
    let graph = mapping.dfg().graph();
    // Routes whose edge lies outside the DFG count toward no edge.
    let mut routes_of = vec![0usize; graph.edge_count()];
    for route in mapping.routes() {
        if let Some(n) = routes_of.get_mut(route.edge.index()) {
            *n += 1;
        }
    }
    for (e, &n) in graph.edge_ids().zip(&routes_of) {
        match n {
            0 => sink.push(
                Diagnostic::error(Code::V002, format!("edge e{} has no route", e.index()))
                    .at_edge(e),
            ),
            1 => {}
            n => sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!("edge e{} is implemented by {n} routes", e.index()),
                )
                .at_edge(e),
            ),
        }
    }
}

/// One route must be a real MRRG path: every step a valid resource, every
/// consecutive pair an MRRG edge, and every hop's absolute-time advance
/// equal to the architectural latency of that edge (read from the dense
/// index's CSR rows). Register-file shape violations (a register index
/// beyond the RF size) are reported as V004. `ids` is scratch space for
/// the steps' dense ids, so each step is looked up once.
fn check_route_path(
    mapping: &Mapping,
    index: &MrrgIndex,
    route: &himap_core::RouteInstance,
    ids: &mut Vec<RIdx>,
    sink: &mut DiagnosticSink,
) {
    let e = route.edge;
    if route.steps.is_empty() {
        sink.push(
            Diagnostic::error(Code::V002, format!("route of edge e{} has no steps", e.index()))
                .at_edge(e),
        );
        return;
    }
    let iib = index.ii() as i64;
    let mut structurally_sound = true;
    ids.clear();
    for &(node, abs) in &route.steps {
        // The index holds exactly the MRRG's nodes (`Mrrg::contains`).
        let Some(id) = index.index_of(node) else {
            let spec = mapping.spec();
            let (code, what) = if spec.faults.masks(spec, node) {
                (Code::V006, "resource is faulted (dead, severed or disabled)".to_string())
            } else {
                match node.kind {
                    RKind::Reg(r) if (r as usize) >= spec.rf_size && spec.contains(node.pe) => (
                        Code::V004,
                        format!("register r{r} exceeds the {}-entry register file", spec.rf_size),
                    ),
                    _ => (Code::V002, "resource outside the architecture".to_string()),
                }
            };
            sink.push(
                Diagnostic::error(
                    code,
                    format!("route of edge e{} uses {node:?}: {what}", e.index()),
                )
                .at_resource(node)
                .at_cycle(abs)
                .at_edge(e),
            );
            structurally_sound = false;
            continue;
        };
        ids.push(id);
        if abs.rem_euclid(iib) != node.t as i64 {
            sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!(
                        "route of edge e{}: step {node:?} at absolute cycle {abs} does not \
                         reduce to modulo cycle {} (mod {iib})",
                        e.index(),
                        node.t
                    ),
                )
                .at_resource(node)
                .at_cycle(abs)
                .at_edge(e),
            );
            structurally_sound = false;
        }
    }
    if !structurally_sound {
        return; // hop checks against invalid nodes would only cascade
    }
    for (pair, id) in route.steps.windows(2).zip(ids.windows(2)) {
        let ((a, a_abs), (b, b_abs)) = (pair[0], pair[1]);
        match index.successors(id[0]).find(|&(s, _)| s == id[1]).map(|(_, latency)| latency) {
            None => sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!("route of edge e{}: no MRRG edge {a:?} -> {b:?}", e.index()),
                )
                .at_resource(b)
                .at_cycle(b_abs)
                .at_edge(e),
            ),
            Some(latency) => {
                if b_abs - a_abs != latency as i64 {
                    sink.push(
                        Diagnostic::error(
                            Code::V002,
                            format!(
                                "route of edge e{}: hop {a:?} -> {b:?} advances {} cycle(s) \
                                 but the architecture needs exactly {latency}",
                                e.index(),
                                b_abs - a_abs
                            ),
                        )
                        .at_resource(b)
                        .at_cycle(b_abs)
                        .at_edge(e),
                    );
                }
            }
        }
    }
}

/// The nets of every root signal: each `(resource, abs)` its routes occupy,
/// except trailing consumer FUs (an op input is not re-drivable). One
/// sorted, deduplicated list answers "is the root's signal at this resource
/// at this cycle?" by binary search.
struct Nets {
    /// `root:32 | resource id:32 | abs:64` for resources of the MRRG.
    indexed: Vec<u128>,
    /// `(root, resource, abs)` for the rest — only illegal mappings step
    /// outside the MRRG, so this stays empty on the common path.
    stray: Vec<(u32, RNode, i64)>,
}

impl Nets {
    fn new(mapping: &Mapping, index: &MrrgIndex) -> Nets {
        let graph = mapping.dfg().graph();
        let mut indexed = Vec::new();
        let mut stray = Vec::new();
        for route in mapping.routes() {
            let (src, _) = graph.edge_endpoints(route.edge);
            let root = graph[route.edge].signal(src).index() as u32;
            for (i, &(node, abs)) in route.steps.iter().enumerate() {
                let trailing_fu = i + 1 == route.steps.len() && node.kind == RKind::Fu;
                if trailing_fu {
                    continue;
                }
                match index.index_of(node) {
                    Some(id) => indexed.push(net_key(root, id, abs)),
                    None => stray.push((root, node, abs)),
                }
            }
        }
        indexed.sort_unstable();
        indexed.dedup();
        stray.sort_unstable();
        stray.dedup();
        Nets { indexed, stray }
    }

    /// `true` if `root`'s signal occupies `node` at absolute cycle `abs`.
    fn contains(&self, index: &MrrgIndex, root: NodeId, node: RNode, abs: i64) -> bool {
        let root = root.index() as u32;
        match index.index_of(node) {
            Some(id) => self.indexed.binary_search(&net_key(root, id, abs)).is_ok(),
            None => self.stray.binary_search(&(root, node, abs)).is_ok(),
        }
    }
}

fn net_key(root: u32, id: RIdx, abs: i64) -> u128 {
    u128::from(root) << 96 | u128::from(id.0) << 64 | u128::from(abs as u64)
}

/// Producer→consumer schedule consistency (V003): each route must end at
/// its consumer's FU at the consumer's cycle, originate at its true source
/// (producer FU, a memory port, or the forwarded root's net), and respect
/// memory causality and anti-dependences.
fn check_schedule(
    mapping: &Mapping,
    index: &MrrgIndex,
    slots: &[Option<Slot>],
    sink: &mut DiagnosticSink,
) {
    let dfg = mapping.dfg();
    let graph = dfg.graph();
    let nets = Nets::new(mapping, index);
    // Per node, the earliest and latest first-step time of the routes
    // leaving it: when a memory-routed load issues.
    let mut load_span: Vec<Option<(i64, i64)>> = vec![None; graph.node_count()];

    for route in mapping.routes() {
        let e = route.edge;
        let Some((&(first, first_abs), &(last, last_abs))) =
            route.steps.first().zip(route.steps.last())
        else {
            continue; // empty routes already reported by V002
        };
        let (src, dst) = graph.edge_endpoints(e);
        let span = &mut load_span[src.index()];
        *span = Some(
            span.map_or((first_abs, first_abs), |(lo, hi)| (lo.min(first_abs), hi.max(first_abs))),
        );
        // Delivery: the consuming FU at the consumer's exact cycle.
        if let Some(dslot) = slots[dst.index()] {
            if last.kind != RKind::Fu || last.pe != dslot.pe || last_abs != dslot.abs {
                sink.push(
                    Diagnostic::error(
                        Code::V003,
                        format!(
                            "route of edge e{} delivers at {last:?} cycle {last_abs}, but the \
                             consumer n{} executes on fu@{} at cycle {}",
                            e.index(),
                            dst.index(),
                            dslot.pe,
                            dslot.abs
                        ),
                    )
                    .at_resource(last)
                    .at_cycle(last_abs)
                    .at_node(dst)
                    .at_edge(e),
                );
            }
        }
        // Origin: the route must start where the signal really is.
        match (graph[e].kind, graph[src].kind) {
            (EdgeKind::Flow, NodeKind::Op { .. }) => {
                if let Some(sslot) = slots[src.index()] {
                    let at_producer =
                        first.kind == RKind::Fu && first.pe == sslot.pe && first_abs == sslot.abs;
                    if !at_producer {
                        sink.push(
                            Diagnostic::error(
                                Code::V003,
                                format!(
                                    "route of edge e{} starts at {first:?} cycle {first_abs}, \
                                     not at its producer n{}'s fu@{} cycle {}",
                                    e.index(),
                                    src.index(),
                                    sslot.pe,
                                    sslot.abs
                                ),
                            )
                            .at_resource(first)
                            .at_cycle(first_abs)
                            .at_node(src)
                            .at_edge(e),
                        );
                    }
                }
            }
            (EdgeKind::Flow, NodeKind::Input { .. }) => {
                if first.kind != RKind::Mem {
                    sink.push(
                        Diagnostic::error(
                            Code::V003,
                            format!(
                                "route of edge e{} carries a live-in but starts at {first:?}, \
                                 not a memory port",
                                e.index()
                            ),
                        )
                        .at_resource(first)
                        .at_cycle(first_abs)
                        .at_node(src)
                        .at_edge(e),
                    );
                }
            }
            (EdgeKind::Forward { root }, _) => {
                if !nets.contains(index, root, first, first_abs) {
                    sink.push(
                        Diagnostic::error(
                            Code::V003,
                            format!(
                                "forward route of edge e{} taps {first:?} at cycle {first_abs}, \
                                 where the root signal n{} never is",
                                e.index(),
                                root.index()
                            ),
                        )
                        .at_resource(first)
                        .at_cycle(first_abs)
                        .at_node(root)
                        .at_edge(e),
                    );
                }
            }
            (EdgeKind::Flow, NodeKind::Route) => {}
        }
    }

    let op_abs = |n: NodeId| slots[n.index()].map(|s| s.abs);
    // Memory causality: a memory-routed load issues at the earliest first
    // step of the consuming input's out-routes, and the producing store is
    // readable two cycles after the producer executes (result registered,
    // then written to memory).
    for &(producer, input) in dfg.mem_deps() {
        let (Some(p_abs), Some((load_abs, _))) = (op_abs(producer), load_span[input.index()])
        else {
            continue;
        };
        if load_abs < p_abs + 2 {
            sink.push(
                Diagnostic::error(
                    Code::V003,
                    format!(
                        "memory-routed load of n{} issues at cycle {load_abs}, before its \
                         store (producer n{} at cycle {p_abs}) is readable at {}",
                        input.index(),
                        producer.index(),
                        p_abs + 2
                    ),
                )
                .at_cycle(load_abs)
                .at_node(input),
            );
        }
    }
    // Anti-dependences: a live-in load must issue before the overwriting
    // store becomes visible (readable from writer_abs + 2, so the last
    // legal load cycle is writer_abs + 1).
    for &(reader, writer) in dfg.anti_deps() {
        let (Some(w_abs), Some((_, load_abs))) = (op_abs(writer), load_span[reader.index()]) else {
            continue;
        };
        if load_abs > w_abs + 1 {
            sink.push(
                Diagnostic::error(
                    Code::V003,
                    format!(
                        "live-in load of n{} issues at cycle {load_abs}, after writer n{} \
                         (cycle {w_abs}) has overwritten the element",
                        reader.index(),
                        writer.index()
                    ),
                )
                .at_cycle(load_abs)
                .at_node(reader),
            );
        }
    }
}

/// Modulo resource exclusivity (V001): restamp every resource from the op
/// placements and routes — the same occupancy model `ReplicaPlan::replicate`
/// uses, but derived here from the final artifact instead of the mapper's
/// intermediate state. Register-file resources report as V004.
///
/// Every claim of a signal on a resource gets a position: ops in node
/// order, then route steps in route order. Sorting the claims by resource,
/// then position, lists each resource's distinct signals in first-claim
/// order.
fn check_exclusivity(
    mapping: &Mapping,
    index: &MrrgIndex,
    slots: &[Option<Slot>],
    sink: &mut DiagnosticSink,
) {
    let dfg = mapping.dfg();
    let spec = mapping.spec();
    // `signal_at[pos]` is the signal of claim `pos`.
    let mut signal_at: Vec<u32> = Vec::new();
    // `resource id << 32 | pos` for resources of the MRRG.
    let mut indexed: Vec<u64> = Vec::new();
    // `(resource, pos)` for the rest (illegal mappings only).
    let mut stray: Vec<(RNode, u32)> = Vec::new();
    let mut claim = |node: RNode, signal: u32| {
        let pos = signal_at.len() as u32;
        signal_at.push(signal);
        match index.index_of(node) {
            Some(id) => indexed.push(u64::from(id.0) << 32 | u64::from(pos)),
            None => stray.push((node, pos)),
        }
    };
    for (node, w) in dfg.graph().nodes() {
        if let (NodeKind::Op { .. }, Some(slot)) = (w.kind, slots[node.index()]) {
            claim(RNode::new(slot.pe, slot.cycle_mod, RKind::Fu), node.index() as u32);
        }
    }
    for route in mapping.routes() {
        let (src, _) = dfg.graph().edge_endpoints(route.edge);
        let root = dfg.graph()[route.edge].signal(src).index() as u32;
        for (i, &(node, _)) in route.steps.iter().enumerate() {
            // Endpoint FU steps belong to the ops, which are claimed above.
            let endpoint = i == 0 || i == route.steps.len() - 1;
            if endpoint && node.kind == RKind::Fu {
                continue;
            }
            claim(node, root);
        }
    }
    indexed.sort_unstable();
    stray.sort_unstable();

    // Resources holding more distinct signals than their capacity, with
    // those signals in first-claim order.
    let mut over: Vec<(RNode, Vec<u32>)> = Vec::new();
    let mut signals: Vec<u32> = Vec::new();
    let mut tally = |node: RNode, positions: &mut dyn Iterator<Item = u32>| {
        signals.clear();
        for pos in positions {
            let signal = signal_at[pos as usize];
            if !signals.contains(&signal) {
                signals.push(signal);
            }
        }
        if signals.len() > spec.capacity(node.kind) {
            over.push((node, signals.clone()));
        }
    };
    for group in indexed.chunk_by(|a, b| a >> 32 == b >> 32) {
        let node = index.node(RIdx((group[0] >> 32) as u32));
        tally(node, &mut group.iter().map(|&c| c as u32));
    }
    for group in stray.chunk_by(|a, b| a.0 == b.0) {
        tally(group[0].0, &mut group.iter().map(|&(_, pos)| pos));
    }
    // Each list ascends by resource (index ids follow `RNode` order); the
    // sort merges the two.
    over.sort_by_key(|&(node, _)| node);
    for (node, signals) in over {
        let code = match node.kind {
            RKind::Reg(_) | RKind::RegWr | RKind::RegRd => Code::V004,
            _ => Code::V001,
        };
        let listed: Vec<String> = signals.iter().map(|s| format!("n{s}")).collect();
        sink.push(
            Diagnostic::error(
                code,
                format!(
                    "{node:?} carries {} distinct signals (capacity {})",
                    signals.len(),
                    spec.capacity(node.kind)
                ),
            )
            .at_resource(node)
            .note(format!("signals {}", listed.join(", "))),
        );
    }
}

/// Configuration-memory bound (V005), plus bookkeeping cross-check (W103).
fn check_config_memory(mapping: &Mapping, sink: &mut DiagnosticSink) {
    let image = ConfigImage::from_mapping(mapping);
    let depth = mapping.spec().config_mem_depth;
    if !image.fits(depth) {
        sink.push(Diagnostic::error(
            Code::V005,
            format!(
                "a PE needs {} unique instruction words, but the configuration memory \
                 holds {depth}",
                image.max_unique_instrs()
            ),
        ));
    }
    let recomputed = image.max_unique_instrs();
    let reported = mapping.stats().max_config_slots;
    if recomputed != reported {
        sink.push(
            Diagnostic::warning(
                Code::W103,
                format!(
                    "mapper bookkeeping reports {reported} max config slots, but the image \
                     decodes to {recomputed}"
                ),
            )
            .note("quality statistics derived from this mapping may be wrong"),
        );
    }
}

/// Quality lints: avoidable detours (W101) and long dwells (W102).
fn check_quality(mapping: &Mapping, iib: usize, sink: &mut DiagnosticSink) {
    let spec = mapping.spec();
    for route in mapping.routes() {
        let Some((&(first, first_abs), &(last, last_abs))) =
            route.steps.first().zip(route.steps.last())
        else {
            continue;
        };
        let wire_hops =
            route.steps.iter().filter(|(n, _)| matches!(n.kind, RKind::Wire(_))).count();
        let manhattan = spec.distance(first.pe, last.pe);
        if wire_hops > manhattan {
            sink.push(
                Diagnostic::warning(
                    Code::W101,
                    format!(
                        "route of edge e{} spends {wire_hops} wire hops on a Manhattan \
                         distance of {manhattan}",
                        route.edge.index()
                    ),
                )
                .at_edge(route.edge)
                .note("detours burn wire bandwidth other signals may need"),
            );
        }
        if last_abs - first_abs > iib as i64 {
            sink.push(
                Diagnostic::warning(
                    Code::W102,
                    format!(
                        "route of edge e{} dwells {} cycles, longer than one modulo window \
                         ({iib})",
                        route.edge.index(),
                        last_abs - first_abs
                    ),
                )
                .at_edge(route.edge)
                .note("long-lived values tie up registers across iterations"),
            );
        }
    }
}
