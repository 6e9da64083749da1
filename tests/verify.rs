//! End-to-end checks of the `himap-verify` static verifier.
//!
//! Two directions: a positive sweep proving every mapping the pipeline and
//! the baselines produce verifies clean (independently of the mapper's own
//! `ReplicaPlan::replicate` bookkeeping), and mutation-style negative tests
//! proving each class of corruption is caught under its specific
//! diagnostic code.

use himap_repro::baseline::{bhc, BaselineOptions};
use himap_repro::cgra::{CgraSpec, RKind, RNode};
use himap_repro::core::{HiMap, HiMapError, HiMapOptions, Mapping, MappingParts, RouteInstance};
use himap_repro::dfg::Dfg;
use himap_repro::kernels::suite;
use himap_repro::verify::{verify_baseline, verify_mapping, Code, Severity};

fn map(kernel: &himap_repro::kernels::Kernel, c: usize) -> Mapping {
    HiMap::new(HiMapOptions::default())
        .map(kernel, &CgraSpec::square(c))
        .unwrap_or_else(|e| panic!("{} fails to map: {e}", kernel.name()))
}

fn gemm_parts() -> MappingParts {
    map(&suite::gemm(), 4).into_parts()
}

/// The expected code must be reported, as an Error.
fn assert_error(mapping: &Mapping, code: Code) {
    let report = verify_mapping(mapping);
    assert!(
        report.diags().iter().any(|d| d.code == code && d.severity == Severity::Error),
        "expected an {code:?} error, got:\n{}",
        report.render_pretty()
    );
}

/// 64-bit FNV-1a of a string.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The whole report — every diagnostic, in order, with its locus and
/// notes — must render to the pinned JSON digest.
fn assert_report_digest(mapping: &Mapping, want: u64) {
    let json = verify_mapping(mapping).render_json();
    let got = fnv1a(&json);
    assert_eq!(got, want, "report digest {got:#018x} differs from the pinned one:\n{json}");
}

// ---------------------------------------------------------------- positive

#[test]
fn himap_mappings_verify_clean_for_every_suite_kernel() {
    for kernel in suite::all() {
        let mapping = map(&kernel, 4);
        let report = verify_mapping(&mapping);
        assert!(
            !report.has_errors(),
            "{} fails independent verification:\n{}",
            kernel.name(),
            report.render_pretty()
        );
    }
}

#[test]
fn baseline_mappings_verify_clean_for_every_suite_kernel() {
    // Small uniform blocks keep every kernel inside the baselines' DFG
    // node budget; mapper failures are allowed (BHC is not complete), but
    // every mapping that is produced must verify clean.
    let options = BaselineOptions::default();
    let spec = CgraSpec::square(4);
    let mut verified = 0usize;
    for kernel in suite::all() {
        let block = vec![2usize; kernel.dims()];
        let dfg = Dfg::build(&kernel, &block).expect("small blocks build");
        let result = bhc(&dfg, &spec, &options);
        for (name, outcome) in [("spr", &result.spr), ("sa", &result.sa)] {
            if let Ok(mapping) = outcome {
                let report = verify_baseline(mapping, &dfg, &spec);
                assert!(
                    !report.has_errors(),
                    "{} ({name}) fails verification:\n{}",
                    kernel.name(),
                    report.render_pretty()
                );
                verified += 1;
            }
        }
    }
    assert!(verified >= 4, "only {verified} baseline mappings to verify — sweep is vacuous");
}

#[test]
fn reassembled_mapping_still_verifies() {
    // from_parts(into_parts(m)) is the identity as far as the verifier is
    // concerned — the baseline every mutation test perturbs from.
    let mapping = Mapping::from_parts(gemm_parts());
    let report = verify_mapping(&mapping);
    assert!(!report.has_errors(), "{}", report.render_pretty());
}

// ------------------------------------------------------------- mutations
//
// Each mutation also pins the verifier's full JSON report to a digest, so
// a rewrite of a check must keep the same diagnostics in the same order.

#[test]
fn double_booked_fu_slot_is_v001() {
    let mut parts = gemm_parts();
    // Move one op onto another op's FU slot: two distinct signals on one
    // modulo FU resource. Ops are picked in node order so the mutation
    // (and so the report) is the same on every run.
    let mut nodes: Vec<_> = parts.op_slots.keys().copied().collect();
    nodes.sort();
    let (a, b) = (
        nodes[0],
        *nodes
            .iter()
            .find(|&&n| parts.op_slots[&n] != parts.op_slots[&nodes[0]])
            .expect("two distinct slots"),
    );
    let slot_a = parts.op_slots[&a];
    parts.op_slots.insert(b, slot_a);
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V001);
    assert_report_digest(&mapping, 0x93bce222a1d56b65);
}

#[test]
fn three_signals_on_one_wire_are_listed_in_first_claim_order() {
    let mut parts = gemm_parts();
    let graph = parts.dfg.graph();
    let root_of = |r: &RouteInstance| {
        let (src, _) = graph.edge_endpoints(r.edge);
        graph[r.edge].signal(src)
    };
    let is_wire = |n: &RNode| matches!(n.kind, RKind::Wire(_));
    // For some wire: the route that claims it first (the holder), an earlier
    // route of a signal numbered above the holder's, and a later route of a
    // third signal. Grafting the wire onto those two makes first-claim
    // order earlier, holder, later — not ascending.
    let graft = |first_claim: usize| {
        let holder_root = root_of(&parts.routes[first_claim]);
        let (earlier, earlier_root) = parts.routes[..first_claim]
            .iter()
            .enumerate()
            .map(|(i, r)| (i, root_of(r)))
            .find(|&(i, root)| root > holder_root && parts.routes[i].steps.len() >= 2)?;
        let (later, later_root) = parts
            .routes
            .iter()
            .enumerate()
            .skip(first_claim + 1)
            .map(|(i, r)| (i, root_of(r)))
            .find(|&(i, root)| {
                root != holder_root && root != earlier_root && parts.routes[i].steps.len() >= 2
            })?;
        Some(([earlier, later], [earlier_root, holder_root, later_root]))
    };
    let (wire_step, grafted, roots) = parts
        .routes
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, *r.steps.iter().find(|(n, _)| is_wire(n))?)))
        .filter(|&(i, (wire, _))| {
            parts.routes[..i].iter().all(|r| r.steps.iter().all(|&(n, _)| n != wire))
        })
        .find_map(|(i, step)| graft(i).map(|(grafted, roots)| (step, grafted, roots)))
        .expect("a wire with routes of other signals on both sides of its holder");
    for i in grafted {
        parts.routes[i].steps.insert(1, wire_step);
    }
    let mapping = Mapping::from_parts(parts);
    let report = verify_mapping(&mapping);
    let want =
        format!("signals n{}, n{}, n{}", roots[0].index(), roots[1].index(), roots[2].index());
    let diag = report
        .diags()
        .iter()
        .find(|d| d.code == Code::V001 && d.locus.resource == Some(wire_step.0))
        .unwrap_or_else(|| panic!("no V001 on {:?}:\n{}", wire_step.0, report.render_pretty()));
    assert_eq!(diag.notes, vec![want], "{}", report.render_pretty());
    assert_report_digest(&mapping, 0x9bef6c47e7208dbb);
}

#[test]
fn mul_on_alu_only_pe_is_v007() {
    use himap_repro::cgra::OpClass;
    use himap_repro::dfg::NodeKind;
    use himap_repro::kernels::OpKind;
    let mut parts = gemm_parts();
    // Strip the Mul class from the PE hosting one of gemm's multiplies:
    // the FU itself stays in the MRRG (the PE still adds), so this must
    // surface as a capability-legality error, not a masked resource.
    let mul_node = parts
        .dfg
        .graph()
        .nodes()
        .find_map(|(n, w)| match w.kind {
            NodeKind::Op { kind: OpKind::Mul, .. } => Some(n),
            _ => None,
        })
        .expect("gemm has multiplies");
    let pe = parts.op_slots[&mul_node].pe;
    parts.spec.faults.restrict(pe, &[OpClass::Alu, OpClass::Mem]);
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V007);
    let report = verify_mapping(&mapping);
    assert!(
        !report.diags().iter().any(|d| d.code == Code::V006),
        "capability violation must not masquerade as a fault:\n{}",
        report.render_pretty()
    );
    assert_report_digest(&mapping, 0x247b26cce8214891);
}

#[test]
fn shifted_route_cycle_is_v002() {
    let mut parts = gemm_parts();
    // Shift every absolute time of one route by a cycle without touching
    // its modulo resources: the schedule decodes to different resources
    // than the route claims.
    let route = parts.routes.first_mut().expect("routes exist");
    for step in &mut route.steps {
        step.1 += 1;
    }
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V002);
    assert_report_digest(&mapping, 0xc5c629b2d4876f1d);
}

#[test]
fn dropped_hop_is_v002() {
    let mut parts = gemm_parts();
    let route = parts
        .routes
        .iter_mut()
        .find(|r| r.steps.len() >= 3)
        .expect("some route has an intermediate hop");
    route.steps.remove(1);
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V002);
    assert_report_digest(&mapping, 0x683c00bb4c9f3d01);
}

#[test]
fn route_to_wrong_consumer_cycle_is_v003() {
    let mut parts = gemm_parts();
    // Delay one consumer by a whole modulo window: its modulo slot (and so
    // V001/V002) is untouched, but every route delivering to it now
    // arrives a window early.
    let node = *parts.op_slots.keys().min().expect("ops placed");
    if let Some(slot) = parts.op_slots.get_mut(&node) {
        slot.abs += parts.stats.iib as i64;
    }
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V003);
    let report = verify_mapping(&mapping);
    assert!(
        report
            .diags()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .all(|d| d.code == Code::V003),
        "a pure schedule shift must be attributed to V003 alone:\n{}",
        report.render_pretty()
    );
    assert_report_digest(&mapping, 0x87aba24e82dfa3bc);
}

#[test]
fn live_in_load_delayed_past_its_writer_is_v003() {
    // Jacobi-style stencil a[i][j] = a[i][j-1] + a[i][j+1]: the east read
    // is an anti-dependence, so its load must issue no later than one
    // cycle after the op that overwrites the element.
    use himap_repro::kernels::{AffineExpr, ArrayRef, Expr, KernelBuilder, OpKind};
    let d = 2;
    let mut b = KernelBuilder::new("jacobi", d);
    let a = b.array("a", 2);
    let (i, j) = (AffineExpr::var(0, d), AffineExpr::var(1, d));
    b.stmt(
        ArrayRef::new(a, vec![i.clone(), j]),
        Expr::binary(
            OpKind::Add,
            Expr::Read(ArrayRef::new(a, vec![i.clone(), AffineExpr::new(vec![0, 1], -1)])),
            Expr::Read(ArrayRef::new(a, vec![i, AffineExpr::new(vec![0, 1], 1)])),
        ),
    );
    let kernel = b.build().expect("well-formed");
    let mut parts = map(&kernel, 4).into_parts();
    let &(reader, writer) = parts.dfg.anti_deps().first().expect("jacobi has anti-dependences");
    let w_abs = parts.op_slots[&writer].abs;
    let iib = parts.stats.iib as i64;
    // Delay one of the reader's routes by whole modulo windows until its
    // load issues after the writer's store is visible. Its resources and
    // hop latencies are unchanged, so only the schedule (V003) breaks.
    let graph = parts.dfg.graph();
    let ri = parts
        .routes
        .iter()
        .position(|r| graph.edge_endpoints(r.edge).0 == reader)
        .expect("the reader is routed");
    let first_abs = parts.routes[ri].steps[0].1;
    let windows = (w_abs + 2 - first_abs).max(0) / iib + 1;
    for step in &mut parts.routes[ri].steps {
        step.1 += windows * iib;
    }
    let mapping = Mapping::from_parts(parts);
    let report = verify_mapping(&mapping);
    let needle = format!("after writer n{}", writer.index());
    assert!(
        report.diags().iter().any(|d| d.code == Code::V003 && d.message.contains(&needle)),
        "expected a V003 anti-dependence error:\n{}",
        report.render_pretty()
    );
    assert_report_digest(&mapping, 0x6f027118176c143f);
}

#[test]
fn register_overflow_is_v004() {
    let mut parts = gemm_parts();
    let rf_size = parts.spec.rf_size as u8;
    let route = parts.routes.iter_mut().find(|r| r.steps.len() >= 3).expect("multi-step route");
    // Park an intermediate step in a register beyond the register file.
    route.steps[1].0.kind = RKind::Reg(rf_size + 2);
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V004);
    assert_report_digest(&mapping, 0x8ba5ca541fe4cc89);
}

#[test]
fn rf_port_oversubscription_is_v004() {
    let mut parts = gemm_parts();
    let spec = parts.spec.clone();
    // Fabricate routes stamping one RegWr port with more distinct signals
    // than it has ports. Using existing edges keeps route coverage happy.
    let donor = parts.routes.first().expect("routes exist").clone();
    let (pe, t) = (donor.steps[0].0.pe, donor.steps[0].0.t);
    let port = RNode::new(pe, t, RKind::RegWr);
    let mut corrupted = Vec::new();
    for route in parts.routes.iter_mut().take(spec.rf_ports + 1) {
        route.steps.insert(1, (port, route.steps[0].1));
        corrupted.push(route.edge);
    }
    let mapping = Mapping::from_parts(parts);
    let report = verify_mapping(&mapping);
    // The grafted step also breaks path continuity (V002, expected); the
    // port pressure itself must still be attributed to V004.
    assert!(
        report.diags().iter().any(|d| d.code == Code::V004 && d.severity == Severity::Error),
        "expected V004 from {} routes through one RegWr port:\n{}",
        corrupted.len(),
        report.render_pretty()
    );
    assert_report_digest(&mapping, 0xa6ddf0cf41383553);
}

#[test]
fn config_memory_overflow_is_v005() {
    let mut parts = gemm_parts();
    parts.spec.config_mem_depth = 0;
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V005);
    assert_report_digest(&mapping, 0x5dbbfd6e8c92ad08);
}

#[test]
fn stale_bookkeeping_is_w103() {
    let mut parts = gemm_parts();
    parts.stats.max_config_slots += 3;
    let mapping = Mapping::from_parts(parts);
    let report = verify_mapping(&mapping);
    assert!(!report.has_errors(), "bookkeeping drift is a warning, not an error");
    assert!(report.has_code(Code::W103), "{}", report.render_pretty());
    assert_report_digest(&mapping, 0xb40f17629dc437fb);
}

#[test]
fn missing_route_is_v002() {
    let mut parts = gemm_parts();
    parts.routes.pop();
    let mapping = Mapping::from_parts(parts);
    assert_error(&mapping, Code::V002);
    assert_report_digest(&mapping, 0xe641d771d9b2d40c);
}

// ------------------------------------------------------------------ hook

#[test]
fn installed_hook_cross_checks_the_pipeline() {
    himap_repro::verify::install();
    // With the hook installed, `HiMap::map` verifies the winning mapping
    // before returning it (debug builds always; `verify` forces it
    // everywhere). A clean pipeline must still return Ok.
    let options = HiMapOptions { verify: true, ..HiMapOptions::default() };
    let result = HiMap::new(options).map(&suite::gemm(), &CgraSpec::square(4));
    match result {
        Ok(mapping) => assert!(!verify_mapping(&mapping).has_errors()),
        Err(HiMapError::Verification(report)) => {
            panic!("pipeline and verifier disagree:\n{report}")
        }
        Err(e) => panic!("gemm fails to map: {e}"),
    }
}
