//! CNF encoding of modulo scheduling on the dense MRRG.
//!
//! One Boolean variable `x(o, p, a)` per (compute op, healthy FU-capable
//! PE, absolute cycle `a ∈ [0, horizon)`) states "op `o` executes on PE
//! `p` at cycle `a`". Route-only PEs never get variables; PEs lacking an
//! op's capability class get their variables pinned false. The clause
//! groups are:
//!
//! * **Exactly-one** per op over its capability-legal `(p, a)` — at-least-
//!   one plus a ladder (sequential) at-most-one, so clause counts stay
//!   linear.
//! * **FU exclusivity**: at most one `(op, a)` pair per modulo slot
//!   `(p, a mod II)` — rule V001 for FU resources.
//! * **Dependence support**: for every DFG edge whose producer is a compute
//!   op, a consumer at `(q, b)` needs *some* producer placement `(p, a)`
//!   with `d = b − a ≥ 1` and a congestion-free MRRG walk `Fu(p) → Fu(q)`
//!   of elapsed exactly `d` (precomputed by BFS over the CSR adjacency).
//!   Forward edges use the chain root as producer. Edges fed by live-in
//!   loads are structurally relaxed — any healthy memory port can source
//!   them, which routing later checks for real.
//! * **Memory causality**: a consumer of a live-in with an intra-block
//!   store producer runs at least [`STORE_LATENCY`] cycles after it.
//! * **Anti-dependence**: a consumer of a live-in that some op overwrites
//!   runs no later than one cycle after the overwriting op.
//! * **Config capacity**: at most `config_mem_depth` distinct ops per PE
//!   (sequential counter over per-PE indicator variables). Vacuous — and
//!   therefore skipped — when `II ≤ config_mem_depth`, because the slot
//!   exclusivity group already caps ops-per-PE at `II`.
//! * **Symmetry anchor**: some op starts within the first `II` cycles
//!   (schedules are shift-invariant by multiples of `II`).
//!
//! All placement constraints are *necessary* conditions — the reachability
//! table ignores congestion between distinct signals — so `Unsat` soundly
//! proves no mapping with makespan ≤ `horizon` exists at this II. A model
//! is only a candidate: it must still survive [`route_placement`] and the
//! verifier, which is the oracle's CEGAR loop.
//!
//! [`route_placement`]: himap_core::route_placement
//! [`STORE_LATENCY`]: himap_baseline::STORE_LATENCY

use std::collections::HashMap;
use std::fmt;

use himap_baseline::STORE_LATENCY;
use himap_cgra::{CgraSpec, MrrgIndex, PeId, RIdx, RKind, RNode};
use himap_dfg::{Dfg, EdgeKind, NodeKind};
use himap_graph::NodeId;
use himap_kernels::OpKind;

use crate::sat::{at_most_one, ClauseSink, Lit, Solver};

/// Why a DFG/spec pair could not be encoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// The DFG contains `Route` relays (systolic pre-lowered form).
    RouteNodes,
    /// Every PE of the fabric is faulted out.
    NoHealthyPe,
    /// The DFG has no compute ops.
    NoOps,
    /// The variable count would exceed the safety cap.
    TooLarge {
        /// Base variables the encoding would need.
        vars: usize,
        /// The cap.
        limit: usize,
    },
    /// A model did not assign exactly one slot to an op (solver bug guard).
    BadModel(NodeId),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::RouteNodes => {
                write!(f, "dfg contains route relays; exact encoding expects raw op graphs")
            }
            EncodeError::NoHealthyPe => write!(f, "no healthy pe on the fabric"),
            EncodeError::NoOps => write!(f, "dfg has no compute ops"),
            EncodeError::TooLarge { vars, limit } => {
                write!(f, "encoding needs {vars} placement variables, cap is {limit}")
            }
            EncodeError::BadModel(node) => {
                write!(f, "model assigns op {node:?} other than exactly one slot")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Base placement variables are capped to keep memory bounded; the oracle
/// is meant for small fabrics (the 4×4 optimality sweep), not 16×16 runs.
const MAX_BASE_VARS: usize = 2_000_000;

/// A CNF encoding of one `(DFG, spec, II, horizon)` feasibility question.
pub struct Encoding {
    /// The initiation interval being tested.
    pub ii: usize,
    /// Exclusive upper bound on absolute schedule cycles.
    pub horizon: usize,
    /// Compute ops, densely indexed (variable layout order).
    pub ops: Vec<NodeId>,
    /// Healthy PEs, densely indexed (variable layout order).
    pub pes: Vec<PeId>,
    num_base: usize,
    /// Clauses encoded (the solver drops tautologies and level-0 units
    /// from its own store, so it cannot count them).
    num_clauses: usize,
    /// A solver loaded with the encoding's clauses and nothing else.
    base: Solver,
}

impl Encoding {
    /// The variable for "op `op_idx` on PE `pe_idx` at cycle `abs`".
    pub fn var(&self, op_idx: usize, pe_idx: usize, abs: usize) -> u32 {
        debug_assert!(op_idx < self.ops.len() && pe_idx < self.pes.len() && abs < self.horizon);
        ((op_idx * self.pes.len() + pe_idx) * self.horizon + abs) as u32
    }

    /// Total variables (placement + auxiliaries).
    pub fn num_vars(&self) -> usize {
        self.base.num_vars()
    }

    /// Number of clauses encoded.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// A solver loaded with this encoding plus the accumulated blocking
    /// clauses (see [`Encoding::load`]).
    pub fn solver(&self, blocked: &[Vec<Lit>]) -> Solver {
        let mut solver = Solver::new(0);
        self.load(&mut solver, blocked);
        solver
    }

    /// Replaces whatever `solver` held with this encoding plus the
    /// accumulated blocking clauses, reusing its buffers. The encoding's
    /// clauses were loaded once, into a base solver, when it was built;
    /// this copies that base and adds `blocked`. Loading is deterministic,
    /// so the copy is in the same state as a solver built from the same
    /// clauses, and its search is the same. Each CEGAR model's search
    /// still starts cold: nothing learnt while solving for one model
    /// carries over to the next.
    pub fn load(&self, solver: &mut Solver, blocked: &[Vec<Lit>]) {
        solver.clone_from(&self.base);
        for clause in blocked {
            solver.add_clause(clause);
        }
    }

    /// Reads a model back into an op → (PE, cycle) placement.
    pub fn decode(&self, model: &[bool]) -> Result<HashMap<NodeId, (PeId, i64)>, EncodeError> {
        let mut placement = HashMap::with_capacity(self.ops.len());
        for (oi, &op) in self.ops.iter().enumerate() {
            let mut found: Option<(PeId, i64)> = None;
            for (pi, &pe) in self.pes.iter().enumerate() {
                for abs in 0..self.horizon {
                    if model[self.var(oi, pi, abs) as usize] {
                        if found.is_some() {
                            return Err(EncodeError::BadModel(op));
                        }
                        found = Some((pe, abs as i64));
                    }
                }
            }
            match found {
                Some(slot) => {
                    placement.insert(op, slot);
                }
                None => return Err(EncodeError::BadModel(op)),
            }
        }
        Ok(placement)
    }

    /// A clause excluding exactly this placement (CEGAR refinement after a
    /// routing or verification failure).
    pub fn blocking_clause(&self, placement: &HashMap<NodeId, (PeId, i64)>) -> Vec<Lit> {
        let pe_index: HashMap<PeId, usize> =
            self.pes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut clause = Vec::with_capacity(self.ops.len());
        for (oi, op) in self.ops.iter().enumerate() {
            if let Some(&(pe, abs)) = placement.get(op) {
                if let Some(&pi) = pe_index.get(&pe) {
                    clause.push(Lit::pos(self.var(oi, pi, abs as usize)).negated());
                }
            }
        }
        clause
    }
}

impl ClauseSink for Encoding {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.num_clauses += 1;
        self.base.add_clause(lits);
    }

    fn new_var(&mut self) -> u32 {
        self.base.new_var()
    }
}

/// `reach[p][d][q]`: a walk of elapsed exactly `d` from one of `starts(p)`
/// to `Fu(q)` exists.
fn reachability(
    index: &MrrgIndex,
    pes: &[PeId],
    horizon: usize,
    starts: impl Fn(PeId) -> Vec<RIdx>,
) -> Vec<Vec<Vec<bool>>> {
    let pe_pos: HashMap<PeId, usize> = pes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    let node_count = index.len();
    let mut reach = Vec::with_capacity(pes.len());
    for &src_pe in pes {
        let mut table = vec![vec![false; pes.len()]; horizon + 1];
        let sources = starts(src_pe);
        if sources.is_empty() {
            reach.push(table);
            continue;
        };
        // Layered BFS over (node, elapsed) states; the MRRG is time-shift
        // symmetric, so elapsed measured from t = 0 generalizes to any
        // start cycle. Each layer is closed under zero-latency hops via a
        // worklist, then latency-1 hops seed the next layer.
        let mut frontier = vec![false; node_count];
        for s in sources {
            frontier[s.index()] = true;
        }
        for (d, row) in table.iter_mut().enumerate() {
            let mut worklist: Vec<usize> = (0..node_count).filter(|&ni| frontier[ni]).collect();
            for &ni in &worklist {
                let node = index.node(RIdx(ni as u32));
                if node.kind == RKind::Fu {
                    if let Some(&qi) = pe_pos.get(&node.pe) {
                        row[qi] = true;
                    }
                }
            }
            while let Some(ni) = worklist.pop() {
                for (succ, lat) in index.successors(RIdx(ni as u32)) {
                    if lat == 0 && !frontier[succ.index()] {
                        frontier[succ.index()] = true;
                        worklist.push(succ.index());
                        let node = index.node(succ);
                        if node.kind == RKind::Fu {
                            if let Some(&qi) = pe_pos.get(&node.pe) {
                                row[qi] = true;
                            }
                        }
                    }
                }
            }
            if d == horizon {
                break;
            }
            let mut next = vec![false; node_count];
            let mut any = false;
            for (ni, &live) in frontier.iter().enumerate() {
                if !live {
                    continue;
                }
                for (succ, lat) in index.successors(RIdx(ni as u32)) {
                    if lat == 1 && !next[succ.index()] {
                        next[succ.index()] = true;
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
            frontier = next;
        }
        reach.push(table);
    }
    reach
}

/// Encodes one feasibility question. `horizon` is the exclusive bound on
/// absolute cycles (see [`default_horizon`]).
pub fn encode(
    dfg: &Dfg,
    spec: &CgraSpec,
    ii: usize,
    horizon: usize,
) -> Result<Encoding, EncodeError> {
    let graph = dfg.graph();
    let mut ops: Vec<NodeId> = Vec::new();
    let mut op_kinds: Vec<OpKind> = Vec::new();
    for (node, weight) in graph.nodes() {
        match weight.kind {
            NodeKind::Op { kind, .. } => {
                ops.push(node);
                op_kinds.push(kind);
            }
            NodeKind::Route => return Err(EncodeError::RouteNodes),
            NodeKind::Input { .. } => {}
        }
    }
    if ops.is_empty() {
        return Err(EncodeError::NoOps);
    }
    let pes: Vec<PeId> =
        spec.pes().filter(|&pe| spec.healthy(pe) && spec.faults.fu_capable(pe)).collect();
    if pes.is_empty() {
        return Err(EncodeError::NoHealthyPe);
    }
    let horizon = horizon.max(ii).max(1);
    let num_base = ops.len() * pes.len() * horizon;
    if num_base > MAX_BASE_VARS {
        return Err(EncodeError::TooLarge { vars: num_base, limit: MAX_BASE_VARS });
    }

    let op_index: HashMap<NodeId, usize> = ops.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut enc =
        Encoding { ii, horizon, ops, pes, num_base, num_clauses: 0, base: Solver::new(num_base) };

    // Exactly-one slot per op, over capability-legal PEs only. Variables
    // on PEs whose op-class set excludes the op are pinned false by unit
    // clauses so no other clause group can resurrect them. An op with no
    // capable PE leaves an empty at-least-one clause: immediately — and
    // soundly — Unsat (the analyzer reports it as A010 before encoding).
    for (oi, &op_kind) in op_kinds.iter().enumerate() {
        let mut all: Vec<Lit> = Vec::new();
        for pi in 0..enc.pes.len() {
            if spec.faults.supports_op(enc.pes[pi], op_kind) {
                all.extend((0..enc.horizon).map(|a| Lit::pos(enc.var(oi, pi, a))));
            } else {
                for a in 0..enc.horizon {
                    enc.add_clause(&[Lit::pos(enc.var(oi, pi, a)).negated()]);
                }
            }
        }
        enc.add_clause(&all);
        at_most_one(&mut enc, &all);
    }

    // FU slot exclusivity: at most one (op, abs) pair per (pe, abs mod II).
    for pi in 0..enc.pes.len() {
        for tmod in 0..ii {
            let group: Vec<Lit> = (0..enc.ops.len())
                .flat_map(|oi| (tmod..enc.horizon).step_by(ii).map(move |a| (oi, a)))
                .map(|(oi, a)| Lit::pos(enc.var(oi, pi, a)))
                .collect();
            at_most_one(&mut enc, &group);
        }
    }

    // Dependence support clauses. Two reachability tables: flow edges
    // start at the producer's FU; forward hops start at the tap — one of
    // the FU's same-cycle feeders, wherever the incoming route came in.
    let index = MrrgIndex::shared(spec.clone(), ii);
    let reach = reachability(&index, &enc.pes, enc.horizon, |pe| {
        index.index_of(RNode::new(pe, 0, RKind::Fu)).into_iter().collect()
    });
    let reach_fwd = reachability(&index, &enc.pes, enc.horizon, |pe| {
        match index.index_of(RNode::new(pe, 0, RKind::Fu)) {
            Some(fu) => index.predecessors(fu).map(|(p, _)| p).collect(),
            None => Vec::new(),
        }
    });
    for edge in graph.edge_refs() {
        let Some(&ci) = op_index.get(&edge.dst) else { continue };
        // Producer whose placement must support the consumer: the source
        // op for flow edges, the chain root for forwards. Live-in-rooted
        // edges are structurally relaxed (memory ports source them).
        let producer = match edge.weight.kind {
            EdgeKind::Flow => edge.src,
            EdgeKind::Forward { root } => root,
        };
        if let Some(&pi_op) = op_index.get(&producer) {
            for qi in 0..enc.pes.len() {
                for b in 0..enc.horizon {
                    let mut clause = vec![Lit::pos(enc.var(ci, qi, b)).negated()];
                    for a in 0..b {
                        let d = b - a;
                        for (pi, row) in reach.iter().enumerate() {
                            if row[d][qi] {
                                clause.push(Lit::pos(enc.var(pi_op, pi, a)));
                            }
                        }
                    }
                    enc.add_clause(&clause);
                }
            }
        }
        // Forward hops additionally constrain the *edge's own* endpoints:
        // the tap delivers from one of the source FU's same-cycle feeders
        // at the source's cycle (every MRRG edge into an FU is
        // zero-latency), the lowering demands elapsed ≥ 1 from there, and
        // the continuation must physically reach the consumer's FU.
        if matches!(edge.weight.kind, EdgeKind::Forward { .. }) && producer != edge.src {
            if let Some(&si) = op_index.get(&edge.src) {
                for qi in 0..enc.pes.len() {
                    for b in 0..enc.horizon {
                        let mut clause = vec![Lit::pos(enc.var(ci, qi, b)).negated()];
                        for a in 0..b {
                            let d = b - a;
                            for (pi, row) in reach_fwd.iter().enumerate() {
                                if row[d][qi] {
                                    clause.push(Lit::pos(enc.var(si, pi, a)));
                                }
                            }
                        }
                        enc.add_clause(&clause);
                    }
                }
            }
        }
    }

    // Memory causality: consumers of a live-in whose value is produced by
    // an intra-block store run at least STORE_LATENCY cycles after it.
    for &(producer, input) in dfg.mem_deps() {
        let Some(&pi_op) = op_index.get(&producer) else { continue };
        for consumer in graph.out_neighbors(input) {
            let Some(&ci) = op_index.get(&consumer) else { continue };
            for qi in 0..enc.pes.len() {
                for b in 0..enc.horizon {
                    let mut clause = vec![Lit::pos(enc.var(ci, qi, b)).negated()];
                    let latest = b as i64 - STORE_LATENCY;
                    for a in 0..enc.horizon.min((latest + 1).max(0) as usize) {
                        for pi in 0..enc.pes.len() {
                            clause.push(Lit::pos(enc.var(pi_op, pi, a)));
                        }
                    }
                    enc.add_clause(&clause);
                }
            }
        }
    }

    // Anti-dependence: consumers of an overwritten live-in run no later
    // than one cycle after the overwriting op (himap_baseline::anti_deps_ok).
    for &(reader, writer) in dfg.anti_deps() {
        let Some(&wi) = op_index.get(&writer) else { continue };
        for consumer in graph.out_neighbors(reader) {
            let Some(&ci) = op_index.get(&consumer) else { continue };
            for qi in 0..enc.pes.len() {
                for b in 0..enc.horizon {
                    let mut clause = vec![Lit::pos(enc.var(ci, qi, b)).negated()];
                    let earliest = (b as i64 - 1).max(0) as usize;
                    for a in earliest..enc.horizon {
                        for pi in 0..enc.pes.len() {
                            clause.push(Lit::pos(enc.var(wi, pi, a)));
                        }
                    }
                    enc.add_clause(&clause);
                }
            }
        }
    }

    // Config capacity: when II exceeds the config memory depth, cap the
    // number of distinct ops per PE with a sequential counter over per-PE
    // indicators. For II ≤ depth the slot exclusivity group already caps
    // ops-per-PE at II, so the counter would be vacuous.
    if ii > spec.config_mem_depth {
        for pi in 0..enc.pes.len() {
            let mut indicators = Vec::with_capacity(enc.ops.len());
            for oi in 0..enc.ops.len() {
                let y = Lit::pos(enc.new_var());
                for a in 0..enc.horizon {
                    enc.add_clause(&[Lit::pos(enc.var(oi, pi, a)).negated(), y]);
                }
                indicators.push(y);
            }
            at_most_k(&mut enc, &indicators, spec.config_mem_depth);
        }
    }

    // Symmetry anchor: schedules shift by multiples of II, so some op may
    // be assumed to start within the first II cycles.
    let anchor: Vec<Lit> = (0..enc.ops.len())
        .flat_map(|oi| {
            (0..enc.pes.len())
                .flat_map(move |pi| (0..ii.min(enc.horizon)).map(move |a| (oi, pi, a)))
        })
        .map(|(oi, pi, a)| Lit::pos(enc.var(oi, pi, a)))
        .collect();
    enc.add_clause(&anchor);

    let _ = enc.num_base;
    Ok(enc)
}

/// At-most-`k` over `lits` via the Sinz sequential-counter encoding.
fn at_most_k(cnf: &mut impl ClauseSink, lits: &[Lit], k: usize) {
    let n = lits.len();
    if n <= k {
        return;
    }
    if k == 0 {
        for &l in lits {
            cnf.add_clause(&[l.negated()]);
        }
        return;
    }
    // s[i][j]: among lits[0..=i], at least j+1 are true.
    let mut s = vec![vec![Lit(0); k]; n - 1];
    for row in &mut s {
        for cell in row.iter_mut() {
            *cell = Lit::pos(cnf.new_var());
        }
    }
    cnf.add_clause(&[lits[0].negated(), s[0][0]]);
    for &cell in s[0].iter().skip(1) {
        cnf.add_clause(&[cell.negated()]);
    }
    for i in 1..n - 1 {
        cnf.add_clause(&[lits[i].negated(), s[i][0]]);
        cnf.add_clause(&[s[i - 1][0].negated(), s[i][0]]);
        for j in 1..k {
            cnf.add_clause(&[lits[i].negated(), s[i - 1][j - 1].negated(), s[i][j]]);
            cnf.add_clause(&[s[i - 1][j].negated(), s[i][j]]);
        }
        cnf.add_clause(&[lits[i].negated(), s[i - 1][k - 1].negated()]);
    }
    cnf.add_clause(&[lits[n - 1].negated(), s[n - 2][k - 1].negated()]);
}

/// A default horizon: the longest dependence chain (memory hops weighted
/// [`STORE_LATENCY`]) plus `II` cycles of slack plus one.
pub fn default_horizon(dfg: &Dfg, ii: usize) -> usize {
    let graph = dfg.graph();
    let order = himap_baseline::mem_aware_topo_order(dfg);
    let mut depth: HashMap<NodeId, i64> = HashMap::new();
    let mut mem_producers: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &(producer, input) in dfg.mem_deps() {
        mem_producers.entry(input).or_default().push(producer);
    }
    let mut max_depth = 0i64;
    for node in order {
        let mut d = 0i64;
        for e in graph.in_edges(node) {
            d = d.max(depth.get(&e.src).copied().unwrap_or(0) + 1);
        }
        if let Some(producers) = mem_producers.get(&node) {
            for p in producers {
                d = d.max(depth.get(p).copied().unwrap_or(0) + STORE_LATENCY);
            }
        }
        max_depth = max_depth.max(d);
        depth.insert(node, d);
    }
    (max_depth as usize) + ii + 1
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SolveResult;
    use himap_kernels::suite;

    #[test]
    fn pigeonhole_ii_is_unsat() {
        // gemm on a [2,2,1] block has 8 compute ops; a 2×2 fabric at II=1
        // offers only 4 modulo FU slots, so the slot-exclusivity clauses
        // alone force Unsat.
        let kernel = suite::gemm();
        let dfg = Dfg::build(&kernel, &[2, 2, 1]).unwrap();
        assert_eq!(dfg.op_count(), 8);
        let spec = CgraSpec::square(2);
        let horizon = default_horizon(&dfg, 1);
        let enc = encode(&dfg, &spec, 1, horizon).unwrap();
        assert_eq!(enc.solver(&[]).solve(None), SolveResult::Unsat);
    }

    #[test]
    fn model_decodes_to_exactly_one_slot_per_op() {
        let kernel = suite::gemm();
        let dfg = Dfg::build(&kernel, &[1, 1, 1]).unwrap();
        let spec = CgraSpec::square(4);
        let ii = 1;
        let horizon = default_horizon(&dfg, ii);
        let enc = encode(&dfg, &spec, ii, horizon).unwrap();
        match enc.solver(&[]).solve(None) {
            SolveResult::Sat(model) => {
                let placement = enc.decode(&model).unwrap();
                assert_eq!(placement.len(), dfg.op_count());
                for &(pe, abs) in placement.values() {
                    assert!(spec.healthy(pe));
                    assert!(abs >= 0 && (abs as usize) < horizon);
                }
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn models_respect_capability_classes() {
        // Corner-multiplier 4×4: every satisfying placement must put the
        // multiplies on corner PEs, because incapable (op, pe) variables
        // are pinned false.
        use himap_cgra::CapabilityMap;
        let kernel = suite::gemm();
        let dfg = Dfg::build(&kernel, &[1, 1, 1]).unwrap();
        let spec = CgraSpec::square(4).with_faults(CapabilityMap::corner_multipliers(4, 4));
        let horizon = default_horizon(&dfg, 1);
        let enc = encode(&dfg, &spec, 1, horizon).unwrap();
        let SolveResult::Sat(model) = enc.solver(&[]).solve(None) else {
            panic!("gemm [1,1,1] fits a heterogeneous 4x4 at ii=1");
        };
        let placement = enc.decode(&model).unwrap();
        for (node, weight) in dfg.graph().nodes() {
            let NodeKind::Op { kind, .. } = weight.kind else { continue };
            let (pe, _) = placement[&node];
            assert!(
                spec.faults.supports_op(pe, kind),
                "{} landed on {pe:?}, which lacks its class",
                kind.mnemonic()
            );
        }
    }

    #[test]
    fn op_with_no_capable_pe_is_unsat() {
        // Stripping Mul everywhere leaves gemm's multiply an empty
        // at-least-one clause: Unsat at any horizon, not a panic.
        use himap_cgra::{CapabilityMap, OpClass};
        let kernel = suite::gemm();
        let dfg = Dfg::build(&kernel, &[1, 1, 1]).unwrap();
        let mut caps = CapabilityMap::new();
        for r in 0..2 {
            for c in 0..2 {
                caps.restrict(PeId::new(r, c), &[OpClass::Alu, OpClass::Mem]);
            }
        }
        let spec = CgraSpec::square(2).with_faults(caps);
        let horizon = default_horizon(&dfg, 2);
        let enc = encode(&dfg, &spec, 2, horizon).unwrap();
        assert_eq!(enc.solver(&[]).solve(None), SolveResult::Unsat);
    }

    #[test]
    fn route_only_pes_shrink_the_variable_space() {
        // A PE restricted to routing leaves the placement variable space
        // entirely — strictly fewer base variables than the homogeneous
        // encoding of the same question.
        use himap_cgra::CapabilityMap;
        let kernel = suite::gemm();
        let dfg = Dfg::build(&kernel, &[1, 1, 1]).unwrap();
        let horizon = default_horizon(&dfg, 1);
        let full = encode(&dfg, &CgraSpec::square(4), 1, horizon).unwrap();
        let mut caps = CapabilityMap::new();
        caps.restrict(PeId::new(1, 1), &[]);
        let spec = CgraSpec::square(4).with_faults(caps);
        let enc = encode(&dfg, &spec, 1, horizon).unwrap();
        assert_eq!(enc.pes.len(), full.pes.len() - 1);
        assert!(enc.num_base < full.num_base);
    }

    #[test]
    fn blocking_clause_excludes_the_model() {
        let kernel = suite::gemm();
        let dfg = Dfg::build(&kernel, &[1, 1, 1]).unwrap();
        let spec = CgraSpec::square(4);
        let horizon = default_horizon(&dfg, 1);
        let enc = encode(&dfg, &spec, 1, horizon).unwrap();
        let SolveResult::Sat(model) = enc.solver(&[]).solve(None) else {
            panic!("expected sat");
        };
        let placement = enc.decode(&model).unwrap();
        let blocked = vec![enc.blocking_clause(&placement)];
        match enc.solver(&blocked).solve(None) {
            SolveResult::Sat(model2) => {
                assert_ne!(enc.decode(&model2).unwrap(), placement);
            }
            SolveResult::Unsat => {}
            SolveResult::Cancelled => panic!("no token given"),
        }
    }
}
