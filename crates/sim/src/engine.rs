//! The discrete-event simulation engine.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use himap_cgra::{Dir, PeId, PowerModel, RKind, RNode};
use himap_core::Mapping;
use himap_dfg::{NodeKind, OperandSrc};
use himap_graph::{EdgeId, NodeId};
use himap_kernels::{interpret, ArrayId, ArrayStore};

/// Latency in cycles between an op producing a value and that value being
/// readable from data memory (register the result, then write).
const STORE_LATENCY: i64 = 2;

/// Per-array, per-element store timeline: `(visible-from cycle, value)`
/// entries. Nested so an element is looked up by slice, without building
/// a key.
type MemTimeline = HashMap<ArrayId, HashMap<Vec<i64>, Vec<(i64, i64)>>>;

/// Result of a successful simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Absolute cycles simulated (span of the block schedule).
    pub cycles: i64,
    /// Operations executed.
    pub ops_executed: usize,
    /// Array elements compared against the reference interpreter.
    pub elements_checked: usize,
    /// Measured utilization over the simulated span (ops / (PEs × cycles)).
    pub measured_utilization: f64,
    /// Energy estimate for the simulated span in microjoules (40 nm model).
    pub energy_uj: f64,
}

/// A functional or timing violation found by the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// Two different values occupy one resource in one cycle.
    ResourceConflict {
        /// The contested resource.
        node: RNode,
        /// Absolute cycle.
        abs: i64,
    },
    /// An operand slot of an op has no value source.
    OperandUnavailable {
        /// The op.
        node: NodeId,
        /// The slot (0 or 1).
        slot: u8,
    },
    /// A route's endpoint value disagrees with its signal.
    RouteCorrupted {
        /// The DFG edge whose route broke.
        edge: EdgeId,
    },
    /// The mapping left a compute op without an FU slot.
    OpUnplaced {
        /// The unplaced op.
        node: NodeId,
    },
    /// The mapping's block extents do not match its kernel's loop nest.
    BlockMismatch,
    /// An op executes on, or a route drives, a resource the architecture's
    /// fault map marks dead, severed or disabled.
    FaultedResource {
        /// The faulted resource.
        node: RNode,
        /// Absolute cycle.
        abs: i64,
    },
    /// The final memory differs from the reference interpreter.
    ResultMismatch {
        /// Array holding the element.
        array: ArrayId,
        /// Element index.
        element: Vec<i64>,
        /// Interpreter value.
        expected: i64,
        /// Simulated value.
        actual: i64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ResourceConflict { node, abs } => {
                write!(f, "resource conflict on {node} at cycle {abs}")
            }
            SimError::OperandUnavailable { node, slot } => {
                write!(f, "operand {slot} of {node:?} has no value")
            }
            SimError::RouteCorrupted { edge } => write!(f, "route of {edge:?} corrupted"),
            SimError::OpUnplaced { node } => write!(f, "op {node:?} has no fu slot"),
            SimError::FaultedResource { node, abs } => {
                write!(f, "faulted resource {node} driven at cycle {abs}")
            }
            SimError::BlockMismatch => write!(f, "block extents do not match the kernel"),
            SimError::ResultMismatch { array, element, expected, actual } => write!(
                f,
                "result mismatch at {array:?}{element:?}: expected {expected}, got {actual}"
            ),
        }
    }
}

impl Error for SimError {}

/// Simulates a mapping on seeded inputs and validates it against the
/// reference interpreter.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered; a mapping that passes has
/// executed every operation at its scheduled cycle with values that
/// physically traversed its routes, and reproduced the interpreter's
/// results exactly.
pub fn simulate(mapping: &Mapping, seed: u64) -> Result<SimReport, SimError> {
    let dfg = mapping.dfg();
    let graph = dfg.graph();
    // Reference execution.
    let mut expected = ArrayStore::new(seed);
    interpret(dfg.kernel(), dfg.block(), &mut expected).map_err(|_| SimError::BlockMismatch)?;
    // The route of each edge (the last listed, should an edge have several).
    let mut route_of: Vec<Option<&himap_core::RouteInstance>> = vec![None; graph.edge_count()];
    for route in mapping.routes() {
        if let Some(entry) = route_of.get_mut(route.edge.index()) {
            *entry = Some(route);
        }
    }
    // Memory timeline: per element, stores sorted by visibility time.
    let live_ins = ArrayStore::new(seed);
    let mut memory: MemTimeline = HashMap::new();
    // Results per op node.
    let mut results: Vec<Option<i64>> = vec![None; graph.node_count()];

    // Execute ops in absolute schedule order. Executing on a faulted PE is
    // a hard error: the silicon is not there.
    let spec = mapping.spec();
    let mut ops: Vec<(i64, NodeId)> = Vec::new();
    for (n, w) in graph.nodes() {
        if w.kind.is_op() {
            let slot = mapping.op_slot(n).ok_or(SimError::OpUnplaced { node: n })?;
            let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
            if spec.faults.masks(spec, fu) {
                return Err(SimError::FaultedResource { node: fu, abs: slot.abs });
            }
            ops.push((slot.abs, n));
        }
    }
    ops.sort();
    let schemas = dfg.schemas();
    for &(abs, node) in &ops {
        let NodeKind::Op { stmt, op, kind } = graph[node].kind else { unreachable!() };
        let schema = &schemas[stmt as usize].ops[op as usize];
        let mut operands = [0i64; 2];
        for slot in 0..2u8 {
            if let OperandSrc::Const(c) = schema.operand(slot) {
                operands[slot as usize] = c;
                continue;
            }
            // Find the in-edge feeding this slot.
            let edge = graph
                .in_edges(node)
                .find(|e| graph[e.id].slot == slot)
                .ok_or(SimError::OperandUnavailable { node, slot })?;
            let root = graph[edge.id].signal(edge.src);
            let value = match graph[root].kind {
                NodeKind::Op { .. } => {
                    results[root.index()].ok_or(SimError::OperandUnavailable { node, slot })?
                }
                NodeKind::Input { .. } => {
                    // Load at the route's first step time.
                    let route = route_of[edge.id.index()]
                        .ok_or(SimError::RouteCorrupted { edge: edge.id })?;
                    let load_abs = route.steps[0].1;
                    let (array, element) = dfg
                        .input_element(root)
                        .ok_or(SimError::RouteCorrupted { edge: edge.id })?;
                    memory_read(&memory, &live_ins, array, &element, load_abs)
                }
                NodeKind::Route => {
                    return Err(SimError::OperandUnavailable { node, slot });
                }
            };
            operands[slot as usize] = value;
        }
        let value = kind.apply(operands[0], operands[1]);
        results[node.index()] = Some(value);
        // Root ops store their statement's target element.
        if op == schemas[stmt as usize].root_op() {
            let stmt_ir = dfg.kernel().stmt(himap_kernels::StmtId::from_index(stmt as usize));
            let iter = himap_dfg::from_iter4(graph[node].iter, dfg.dims());
            let element = stmt_ir.target.element_at(&iter);
            memory
                .entry(stmt_ir.target.array)
                .or_default()
                .entry(element)
                .or_default()
                .push((abs + STORE_LATENCY, value));
        }
    }

    // Stamp every route's value over its resource steps; more distinct
    // values on one (resource, cycle) than the resource has capacity for
    // exposes routing/replication bugs. A route whose value is unknown, or
    // a step on a faulted resource, ends the scan: no later step can hold
    // the first error.
    let mut claims = Claims::default();
    let mut stop = None;
    'routes: for route in mapping.routes() {
        let (src, _) = graph.edge_endpoints(route.edge);
        let root = graph[route.edge].signal(src);
        let corrupted = SimError::RouteCorrupted { edge: route.edge };
        let value = match graph[root].kind {
            // Every op has executed by now.
            NodeKind::Op { .. } => results[root.index()].ok_or(corrupted),
            NodeKind::Input { .. } => {
                dfg.input_element(root).ok_or(corrupted).map(|(array, element)| {
                    memory_read(&memory, &live_ins, array, &element, route.steps[0].1)
                })
            }
            NodeKind::Route => Err(corrupted),
        };
        let value = match value {
            Ok(value) => value,
            Err(e) => {
                stop = Some(e);
                break;
            }
        };
        for &(node, abs) in &route.steps {
            if spec.faults.masks(spec, node) {
                stop = Some(SimError::FaultedResource { node, abs });
                break 'routes;
            }
            if node.kind == RKind::Fu {
                // FU endpoints hold op results, accounted separately.
                continue;
            }
            claims.push(node, abs, value);
        }
    }
    if let Some((node, abs)) = claims.first_conflict(spec) {
        return Err(SimError::ResourceConflict { node, abs });
    }
    if let Some(e) = stop {
        return Err(e);
    }

    // Compare final memory state with the interpreter.
    let mut elements_checked = 0usize;
    for ((array, element), expected_value) in expected.iter() {
        let actual = memory
            .get(array)
            .and_then(|elements| elements.get(element))
            .and_then(|stores| stores.iter().max_by_key(|(t, _)| *t))
            .map(|&(_, v)| v)
            .unwrap_or_else(|| live_ins.live_in(*array, element));
        if actual != *expected_value {
            return Err(SimError::ResultMismatch {
                array: *array,
                element: element.clone(),
                expected: *expected_value,
                actual,
            });
        }
        elements_checked += 1;
    }

    let cycles = ops.iter().map(|&(abs, _)| abs).max().unwrap_or(0) + 1;
    let pe_count = mapping.spec().pe_count();
    let measured_utilization = ops.len() as f64 / (pe_count as f64 * cycles as f64);
    let model = PowerModel::cmos40nm();
    let power_mw = model.array_power_mw(mapping.spec(), measured_utilization.min(1.0));
    let seconds = cycles as f64 / (mapping.spec().freq_mhz * 1e6);
    let energy_uj = power_mw * 1e-3 * seconds * 1e6;
    Ok(SimReport {
        cycles,
        ops_executed: ops.len(),
        elements_checked,
        measured_utilization,
        energy_uj,
    })
}

/// Reads an element at an absolute cycle: the latest store visible by then,
/// falling back to the seeded live-in value.
fn memory_read(
    memory: &MemTimeline,
    live_ins: &ArrayStore,
    array: ArrayId,
    element: &[i64],
    abs: i64,
) -> i64 {
    memory
        .get(&array)
        .and_then(|elements| elements.get(element))
        .and_then(|stores| {
            stores
                .iter()
                .filter(|&&(visible, _)| visible <= abs)
                .max_by_key(|&&(visible, _)| visible)
        })
        .map(|&(_, v)| v)
        .unwrap_or_else(|| live_ins.live_in(array, element))
}

/// The non-FU route steps, each with the value it carries, numbered by
/// position in route order.
#[derive(Default)]
struct Claims {
    /// `(resource, cycle, position)` packed into one word that sorts in
    /// that order — see [`pack`].
    packed: Vec<u128>,
    /// `(resource, cycle, position)` of the steps [`pack`] cannot encode
    /// (only illegal mappings have them). No `(resource, cycle)` appears in
    /// both lists.
    stray: Vec<(RNode, i64, u32)>,
    /// The value of each claim, by position.
    values: Vec<i64>,
}

impl Claims {
    fn push(&mut self, node: RNode, abs: i64, value: i64) {
        let pos = self.values.len() as u32;
        self.values.push(value);
        match pack(node, abs, pos) {
            Some(word) => self.packed.push(word),
            None => self.stray.push((node, abs, pos)),
        }
    }

    /// The resource and cycle of the first claim, in route order, at which
    /// some `(resource, cycle)` holds more distinct values than its
    /// capacity.
    fn first_conflict(mut self, spec: &himap_cgra::CgraSpec) -> Option<(RNode, i64)> {
        self.packed.sort_unstable();
        self.stray.sort_unstable();
        let mut first: Option<(u32, RNode, i64)> = None;
        let mut distinct: Vec<i64> = Vec::new();
        let mut scan = |node: RNode, abs: i64, positions: &mut dyn Iterator<Item = u32>| {
            distinct.clear();
            for pos in positions {
                let value = self.values[pos as usize];
                if !distinct.contains(&value) {
                    distinct.push(value);
                    if distinct.len() > spec.capacity(node.kind) {
                        if first.is_none_or(|(f, _, _)| pos < f) {
                            first = Some((pos, node, abs));
                        }
                        return;
                    }
                }
            }
        };
        for group in self.packed.chunk_by(|a, b| a >> 32 == b >> 32) {
            let (node, abs) = unpack(group[0]);
            scan(node, abs, &mut group.iter().map(|&w| w as u32));
        }
        for group in self.stray.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            scan(group[0].0, group[0].1, &mut group.iter().map(|&(_, _, pos)| pos));
        }
        first.map(|(_, node, abs)| (node, abs))
    }
}

/// Packs a claim as `x:16 y:16 t:23 kind:9 | cycle:32 | position:32`, or
/// `None` when its modulo time or absolute cycle does not fit.
fn pack(node: RNode, abs: i64, pos: u32) -> Option<u128> {
    let abs = u32::try_from(abs).ok()?;
    let t = u64::from(node.t);
    let kind = match node.kind {
        RKind::Fu => 0,
        RKind::Out => 1,
        RKind::Wire(d) => 2 + d.index() as u64,
        RKind::Reg(r) => 6 + u64::from(r),
        RKind::RegWr => 262,
        RKind::RegRd => 263,
        RKind::Mem => 264,
    };
    (t < 1 << 23).then(|| {
        let resource = u64::from(node.pe.x) << 48 | u64::from(node.pe.y) << 32 | t << 9 | kind;
        u128::from(resource) << 64 | u128::from(abs) << 32 | u128::from(pos)
    })
}

/// The resource and cycle of a [`pack`]ed claim.
fn unpack(word: u128) -> (RNode, i64) {
    let resource = (word >> 64) as u64;
    let pe = PeId { x: (resource >> 48) as u16, y: (resource >> 32) as u16 };
    let t = (resource >> 9) as u32 & ((1 << 23) - 1);
    let kind = match resource & 0x1ff {
        0 => RKind::Fu,
        1 => RKind::Out,
        code @ 2..=5 => RKind::Wire(Dir::from_index(code as usize - 2)),
        code @ 6..=261 => RKind::Reg((code - 6) as u8),
        262 => RKind::RegWr,
        263 => RKind::RegRd,
        _ => RKind::Mem,
    };
    (RNode::new(pe, t, kind), i64::from((word >> 32) as u32))
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_cgra::CgraSpec;
    use himap_core::{HiMap, HiMapOptions};
    use himap_kernels::suite;

    fn check(kernel: &himap_kernels::Kernel, c: usize, seed: u64) -> SimReport {
        let mapping = HiMap::new(HiMapOptions::default())
            .map(kernel, &CgraSpec::square(c))
            .unwrap_or_else(|e| panic!("{} fails to map: {e}", kernel.name()));
        simulate(&mapping, seed)
            .unwrap_or_else(|e| panic!("{} fails simulation: {e}", kernel.name()))
    }

    #[test]
    fn gemm_validates_on_2x2() {
        // The paper's Fig. 5 configuration.
        let report = check(&suite::gemm(), 2, 7);
        assert!(report.elements_checked > 0);
        // block (2, 2, free_extent) iterations x 2 ops each.
        assert_eq!(report.ops_executed % 8, 0);
        assert!(report.ops_executed >= 16);
    }

    #[test]
    fn all_kernels_validate_on_4x4() {
        for kernel in suite::all() {
            let report = check(&kernel, 4, 1234);
            assert!(report.elements_checked > 0, "{}", kernel.name());
            assert!(report.cycles > 0);
        }
    }

    #[test]
    fn different_seeds_validate() {
        for seed in [0u64, 1, 99, 0xDEADBEEF] {
            let report = check(&suite::bicg(), 4, seed);
            assert!(report.elements_checked > 0);
        }
    }

    #[test]
    fn report_metrics_are_sane() {
        let report = check(&suite::mvt(), 4, 5);
        assert!(report.measured_utilization > 0.0);
        assert!(report.measured_utilization <= 1.0);
        assert!(report.energy_uj > 0.0);
    }

    #[test]
    fn packed_claims_round_trip() {
        let nodes = [
            RNode::new(PeId::new(0, 0), 0, RKind::Fu),
            RNode::new(PeId::new(63, 5), 7, RKind::Wire(Dir::West)),
            RNode::new(PeId::new(2, 61), (1 << 23) - 1, RKind::Reg(255)),
            RNode::new(PeId::new(u16::MAX as usize, 1), 3, RKind::Mem),
            RNode::new(PeId::new(1, 1), 1, RKind::RegRd),
        ];
        for node in nodes {
            for abs in [0, 1, 612, i64::from(u32::MAX)] {
                let word = pack(node, abs, 9).expect("fits");
                assert_eq!(unpack(word), (node, abs));
                assert_eq!(word as u32, 9);
            }
        }
        let far = RNode::new(PeId::new(0, 0), 1 << 23, RKind::Out);
        assert_eq!(pack(far, 0, 0), None);
        assert_eq!(pack(nodes[0], -1, 0), None);
        assert_eq!(pack(nodes[0], 1 << 32, 0), None);
    }

    // Mutation tests pinning which error the simulator reports first. Each
    // test breaks a legal mapping through `Mapping::into_parts` / `from_parts`.
    // When a mapping has several faults, the simulator must report the one
    // that comes first in route order: an over-capacity resource, a faulted
    // step or a corrupted route.
    mod mutations {
        use std::collections::BTreeMap;

        use super::super::*;
        use himap_cgra::CgraSpec;
        use himap_core::{HiMap, HiMapOptions, MappingParts, RouteInstance};
        use himap_kernels::suite;

        const SEED: u64 = 11;

        fn gemm_parts() -> MappingParts {
            let options = HiMapOptions { threads: 1, ..HiMapOptions::default() };
            HiMap::new(options)
                .map(&suite::gemm(), &CgraSpec::square(4))
                .expect("gemm maps")
                .into_parts()
        }

        fn root_of(parts: &MappingParts, route: &RouteInstance) -> himap_graph::NodeId {
            let graph = parts.dfg.graph();
            let (src, _) = graph.edge_endpoints(route.edge);
            graph[route.edge].signal(src)
        }

        /// Every register `(pe, r)` the routes use, with the index of the first
        /// route that steps on it.
        fn first_register_use(parts: &MappingParts) -> BTreeMap<(PeId, u8), usize> {
            let mut first = BTreeMap::new();
            for (i, route) in parts.routes.iter().enumerate() {
                for &(node, _) in &route.steps {
                    if let RKind::Reg(r) = node.kind {
                        first.entry((node.pe, r)).or_insert(i);
                    }
                }
            }
            first
        }

        /// Grafts a wire step of route `holder` into route `into`, a route of a
        /// different signal; returns the contested `(wire, abs)`.
        fn graft_wire(parts: &mut MappingParts, holder: usize, into: usize) -> (RNode, i64) {
            assert_ne!(root_of(parts, &parts.routes[holder]), root_of(parts, &parts.routes[into]));
            let step = *parts.routes[holder]
                .steps
                .iter()
                .find(|(n, _)| matches!(n.kind, RKind::Wire(_)))
                .expect("holder crosses a wire");
            parts.routes[into].steps.insert(1, step);
            step
        }

        /// Routes that cross a wire and carry a computed (op) value, in route
        /// order.
        fn wire_routes(parts: &MappingParts) -> Vec<usize> {
            let graph = parts.dfg.graph();
            (0..parts.routes.len())
                .filter(|&i| {
                    let route = &parts.routes[i];
                    route.steps.iter().any(|(n, _)| matches!(n.kind, RKind::Wire(_)))
                        && matches!(graph[root_of(parts, route)].kind, NodeKind::Op { .. })
                })
                .collect()
        }

        /// The first route in `order` that carries another signal than route
        /// `holder`.
        fn other_signal(
            parts: &MappingParts,
            holder: usize,
            mut order: impl Iterator<Item = usize>,
        ) -> usize {
            let root = root_of(parts, &parts.routes[holder]);
            order
                .find(|&i| {
                    root_of(parts, &parts.routes[i]) != root && parts.routes[i].steps.len() >= 2
                })
                .expect("a route of another signal")
        }

        #[test]
        fn unmutated_mapping_simulates() {
            let mapping = Mapping::from_parts(gemm_parts());
            simulate(&mapping, SEED).expect("the legal mapping simulates");
        }

        #[test]
        fn earlier_conflict_beats_later_fault() {
            let mut parts = gemm_parts();
            // Fault the register whose first use comes last in route order...
            let (&(pe, r), &late) = first_register_use(&parts)
                .iter()
                .max_by_key(|&(_, &i)| i)
                .expect("routes use registers");
            // ...and contest a wire among routes that all come before it.
            let holder = *wire_routes(&parts).first().expect("a wire route");
            assert!(holder < late, "the wire route precedes the faulted register");
            let into = other_signal(&parts, holder, (0..late).filter(|&i| i != holder));
            let (wire, abs) = graft_wire(&mut parts, holder, into);
            parts.spec.faults.disable_reg(pe, r as usize);
            let got = simulate(&Mapping::from_parts(parts), SEED).map(|_| ());
            assert_eq!(got, Err(SimError::ResourceConflict { node: wire, abs }));
        }

        #[test]
        fn earlier_fault_beats_later_conflict() {
            let mut parts = gemm_parts();
            // Fault the register whose first use comes first in route order...
            let (&(pe, r), &early) = first_register_use(&parts)
                .iter()
                .min_by_key(|&(_, &i)| i)
                .expect("routes use registers");
            // ...and contest a wire among routes that all come after it.
            let holder =
                *wire_routes(&parts).iter().find(|&&i| i > early).expect("a later wire route");
            let into = other_signal(&parts, holder, (holder + 1..parts.routes.len()).rev());
            graft_wire(&mut parts, holder, into);
            parts.spec.faults.disable_reg(pe, r as usize);
            let first = parts.routes[early]
                .steps
                .iter()
                .copied()
                .find(|&(n, _)| n.pe == pe && n.kind == RKind::Reg(r))
                .expect("the first user steps on the register");
            let got = simulate(&Mapping::from_parts(parts), SEED).map(|_| ());
            assert_eq!(got, Err(SimError::FaultedResource { node: first.0, abs: first.1 }));
        }

        #[test]
        fn live_in_without_its_route_is_route_corrupted() {
            let mut parts = gemm_parts();
            // Drop the route of the first live-in edge: the consuming op has no
            // path its operand could have travelled.
            let graph = parts.dfg.graph();
            let i = parts
                .routes
                .iter()
                .position(|r| {
                    matches!(graph[graph.edge_endpoints(r.edge).0].kind, NodeKind::Input { .. })
                })
                .expect("gemm loads live-ins");
            let edge = parts.routes.remove(i).edge;
            let got = simulate(&Mapping::from_parts(parts), SEED).map(|_| ());
            assert_eq!(got, Err(SimError::RouteCorrupted { edge }));
        }
    }
}
