//! The independent mapping verifier: re-derives legality of a
//! [`Mapping`] from first principles.
//!
//! Nothing here trusts the mapper's bookkeeping. Occupancy is restamped
//! from the routes, hop timing is re-derived from the MRRG's architectural
//! latencies (the CSR rows of [`MrrgIndex::edge_latency`], which the
//! differential tests pin to the implicit [`Mrrg`] enumeration), and the
//! configuration footprint is recomputed from the placements — so a bug
//! anywhere in placement, routing, replication or statistics surfaces as a
//! diagnostic instead of a miscompiled accelerator image.

use std::collections::{HashMap, HashSet};

use himap_cgra::{Mrrg, MrrgIndex, RKind, RNode};
use himap_core::{ConfigImage, Mapping};
use himap_dfg::{EdgeKind, NodeKind};
use himap_graph::{EdgeId, NodeId};

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
pub fn verify_mapping(mapping: &Mapping) -> DiagnosticSink {
    let mut sink = DiagnosticSink::new();
    let iib = mapping.stats().iib.max(1);
    // The shared dense index: normally a cache hit on the exact build the
    // mapper routed with, so verification adds no graph construction.
    let index = MrrgIndex::shared(mapping.spec().clone(), iib);
    let mrrg = index.mrrg();

    let placements_ok = check_placement(mapping, mrrg, &mut sink);
    check_route_coverage(mapping, &mut sink);
    for route in mapping.routes() {
        check_route_path(mapping, &index, route, &mut sink);
    }
    check_schedule(mapping, &mut sink);
    check_exclusivity(mapping, &mut sink);
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

/// Every DFG edge must be implemented by exactly one route.
fn check_route_coverage(mapping: &Mapping, sink: &mut DiagnosticSink) {
    let mut seen: HashMap<EdgeId, usize> = HashMap::new();
    for route in mapping.routes() {
        *seen.entry(route.edge).or_insert(0) += 1;
    }
    for e in mapping.dfg().graph().edge_ids() {
        match seen.get(&e).copied().unwrap_or(0) {
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
/// beyond the RF size) are reported as V004.
fn check_route_path(
    mapping: &Mapping,
    index: &MrrgIndex,
    route: &himap_core::RouteInstance,
    sink: &mut DiagnosticSink,
) {
    let mrrg = index.mrrg();
    let e = route.edge;
    if route.steps.is_empty() {
        sink.push(
            Diagnostic::error(Code::V002, format!("route of edge e{} has no steps", e.index()))
                .at_edge(e),
        );
        return;
    }
    let iib = mrrg.ii() as i64;
    let mut structurally_sound = true;
    for &(node, abs) in &route.steps {
        if !mrrg.contains(node) {
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
        }
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
    for pair in route.steps.windows(2) {
        let ((a, a_abs), (b, b_abs)) = (pair[0], pair[1]);
        match index.edge_latency(a, b) {
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

/// Producer→consumer schedule consistency (V003): each route must end at
/// its consumer's FU at the consumer's cycle, originate at its true source
/// (producer FU, a memory port, or the forwarded root's net), and respect
/// memory causality and anti-dependences.
fn check_schedule(mapping: &Mapping, sink: &mut DiagnosticSink) {
    let dfg = mapping.dfg();
    // The net of every root signal: all (resource, abs) its routes occupy,
    // excluding trailing consumer FUs (an op input is not re-drivable).
    let mut nets: HashMap<NodeId, HashSet<(RNode, i64)>> = HashMap::new();
    for route in mapping.routes() {
        let (src, _) = dfg.graph().edge_endpoints(route.edge);
        let root = dfg.graph()[route.edge].signal(src);
        let net = nets.entry(root).or_default();
        for (i, &(node, abs)) in route.steps.iter().enumerate() {
            let trailing_fu = i + 1 == route.steps.len() && node.kind == RKind::Fu;
            if !trailing_fu {
                net.insert((node, abs));
            }
        }
    }

    for route in mapping.routes() {
        let e = route.edge;
        let Some((&(first, first_abs), &(last, last_abs))) =
            route.steps.first().zip(route.steps.last())
        else {
            continue; // empty routes already reported by V002
        };
        let (src, dst) = dfg.graph().edge_endpoints(e);
        // Delivery: the consuming FU at the consumer's exact cycle.
        if let Some(dslot) = mapping.op_slot(dst) {
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
        match (dfg.graph()[e].kind, dfg.graph()[src].kind) {
            (EdgeKind::Flow, NodeKind::Op { .. }) => {
                if let Some(sslot) = mapping.op_slot(src) {
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
                let on_net = nets.get(&root).is_some_and(|net| net.contains(&(first, first_abs)));
                if !on_net {
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

    // Memory causality: a memory-routed load issues at the earliest first
    // step of the consuming input's out-routes, and the producing store is
    // readable two cycles after the producer executes (result registered,
    // then written to memory).
    for &(producer, input) in dfg.mem_deps() {
        let Some(p_abs) = mapping.op_slot(producer).map(|s| s.abs) else { continue };
        let load_abs = route_source_times(mapping, input).min();
        if let Some(load_abs) = load_abs {
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
    }
    // Anti-dependences: a live-in load must issue before the overwriting
    // store becomes visible (readable from writer_abs + 2, so the last
    // legal load cycle is writer_abs + 1).
    for &(reader, writer) in dfg.anti_deps() {
        let Some(w_abs) = mapping.op_slot(writer).map(|s| s.abs) else { continue };
        let load_abs = route_source_times(mapping, reader).max();
        if let Some(load_abs) = load_abs {
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
}

/// The first-step absolute times of every route leaving `node`.
fn route_source_times(mapping: &Mapping, node: NodeId) -> impl Iterator<Item = i64> + '_ {
    mapping.routes().iter().filter_map(move |r| {
        let (s, _) = mapping.dfg().graph().edge_endpoints(r.edge);
        (s == node).then(|| r.steps.first().map(|&(_, abs)| abs)).flatten()
    })
}

/// Modulo resource exclusivity (V001): restamp every resource from the op
/// placements and routes — the same occupancy model `ReplicaPlan::replicate`
/// uses, but derived here from the final artifact instead of the mapper's
/// intermediate state. Register-file resources report as V004.
fn check_exclusivity(mapping: &Mapping, sink: &mut DiagnosticSink) {
    let dfg = mapping.dfg();
    let spec = mapping.spec();
    let mut occupancy: HashMap<RNode, Vec<u32>> = HashMap::new();
    for (node, w) in dfg.graph().nodes() {
        if matches!(w.kind, NodeKind::Op { .. }) {
            if let Some(slot) = mapping.op_slot(node) {
                let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
                occupancy.entry(fu).or_default().push(node.index() as u32);
            }
        }
    }
    for route in mapping.routes() {
        let (src, _) = dfg.graph().edge_endpoints(route.edge);
        let root = dfg.graph()[route.edge].signal(src);
        for (i, &(node, _)) in route.steps.iter().enumerate() {
            // Endpoint FU steps belong to the ops, which are stamped above.
            let endpoint = i == 0 || i == route.steps.len() - 1;
            if endpoint && node.kind == RKind::Fu {
                continue;
            }
            let occ = occupancy.entry(node).or_default();
            if !occ.contains(&(root.index() as u32)) {
                occ.push(root.index() as u32);
            }
        }
    }
    let mut over: Vec<(&RNode, &Vec<u32>)> = occupancy
        .iter()
        .filter(|(node, signals)| signals.len() > spec.capacity(node.kind))
        .collect();
    over.sort_by_key(|(node, _)| **node);
    for (&node, signals) in over {
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
