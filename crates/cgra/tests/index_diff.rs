//! Differential tests pinning the dense CSR index to the implicit MRRG.
//!
//! `MrrgIndex` is only allowed to be a *compilation* of `Mrrg` — same node
//! set, same enumeration order, same adjacency in the same order, same
//! per-edge latencies. These properties drive random `(rows, cols, II)`
//! triples through both representations and require exact agreement, so any
//! drift between the on-the-fly enumeration and the CSR build fails here
//! before it can corrupt a routed mapping.
//!
//! A window index (the nodes on a subset of PEs) must be the full index
//! restricted to the window: ids ascending in global order, rows filtered
//! to the window in the same order. And `Mrrg::resource_key` must name each
//! node of the graph uniquely, in node order, and nothing else.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use himap_cgra::{
    CapabilityMap, CgraSpec, FaultMap, Mrrg, MrrgIndex, PeId, RIdx, RKind, RNode, ALL_DIRS,
};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..5, 1usize..5, 1usize..5)
}

/// Random dimensions plus a random fault map (up to three faults drawn from
/// all four classes) fitting those dimensions.
fn arb_faulted() -> impl Strategy<Value = (usize, usize, usize, FaultMap)> {
    arb_dims().prop_flat_map(|(rows, cols, ii)| {
        proptest::collection::vec((0usize..4, 0usize..rows, 0usize..cols, 0usize..8), 0..4)
            .prop_map(move |faults| {
                let mut map = FaultMap::new();
                for (class, r, c, x) in faults {
                    match class {
                        0 => map.kill_pe(PeId::new(r, c)),
                        1 => map.sever_link(PeId::new(r, c), ALL_DIRS[x % ALL_DIRS.len()]),
                        2 => map.disable_reg(PeId::new(r, c), x),
                        _ => map.disable_mem(PeId::new(r, c)),
                    };
                }
                (rows, cols, ii, map)
            })
    })
}

fn build(rows: usize, cols: usize, ii: usize) -> (Mrrg, MrrgIndex) {
    let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
    (Mrrg::new(spec.clone(), ii), MrrgIndex::new(spec, ii))
}

fn build_faulted(rows: usize, cols: usize, ii: usize, faults: &FaultMap) -> (Mrrg, MrrgIndex) {
    let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh").with_faults(faults.clone());
    (Mrrg::new(spec.clone(), ii), MrrgIndex::new(spec, ii))
}

/// A spec of random dimensions — pristine, faulted or with the
/// heterogeneous capability map — its II, and a random PE window (a bit
/// mask over the row-major PEs).
fn arb_windowed() -> impl Strategy<Value = (CgraSpec, usize, Vec<PeId>)> {
    (arb_faulted(), 0usize..3, any::<u64>()).prop_map(
        |((rows, cols, ii, faults), flavour, mask)| {
            let mesh = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
            let spec = match flavour {
                0 => mesh,
                1 => mesh.with_faults(faults),
                _ => mesh.with_faults(CapabilityMap::heterogeneous(rows, cols)),
            };
            let window: Vec<PeId> = spec
                .pes()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, pe)| pe)
                .collect();
            (spec, ii, window)
        },
    )
}

/// Maps a row of dense edges back to `(node, latency)`.
fn row(index: &MrrgIndex, edges: impl Iterator<Item = (RIdx, u32)>) -> Vec<(RNode, u32)> {
    edges.map(|(j, lat)| (index.node(j), lat)).collect()
}

proptest! {
    #[test]
    fn window_holds_the_full_nodes_on_its_pes_in_global_order(
        (spec, ii, window) in arb_windowed()
    ) {
        let mrrg = Mrrg::new(spec.clone(), ii);
        let index = MrrgIndex::new_window(spec.clone(), ii, window.clone());
        let expected: Vec<RNode> =
            mrrg.nodes().into_iter().filter(|n| window.contains(&n.pe)).collect();
        prop_assert_eq!(index.nodes(), expected.as_slice());
        prop_assert!(index.nodes().windows(2).all(|w| w[0] < w[1]), "ids ascend in node order");
        for (i, &node) in expected.iter().enumerate() {
            prop_assert_eq!(index.index_of(node), Some(RIdx(i as u32)));
            prop_assert_eq!(index.capacity(RIdx(i as u32)), spec.capacity(node.kind));
        }
        for node in mrrg.nodes().into_iter().filter(|n| !window.contains(&n.pe)) {
            prop_assert_eq!(index.index_of(node), None, "{:?} is off the window", node);
        }
    }

    #[test]
    fn window_rows_are_the_full_rows_filtered_to_the_window(
        (spec, ii, window) in arb_windowed()
    ) {
        let mrrg = Mrrg::new(spec.clone(), ii);
        let index = MrrgIndex::new_window(spec, ii, window.clone());
        let on_window = |n: &RNode| window.contains(&n.pe);
        for (i, &node) in index.nodes().iter().enumerate() {
            let full: Vec<(RNode, u32)> = mrrg
                .successors(node)
                .into_iter()
                .filter(on_window)
                .map(|s| (s, mrrg.edge_latency(node, s).expect("an edge")))
                .collect();
            prop_assert_eq!(row(&index, index.successors(RIdx(i as u32))), full);
            let full: Vec<(RNode, u32)> = mrrg
                .predecessors(node)
                .into_iter()
                .filter(on_window)
                .map(|p| (p, mrrg.edge_latency(p, node).expect("an edge")))
                .collect();
            prop_assert_eq!(row(&index, index.predecessors(RIdx(i as u32))), full);
        }
    }

    #[test]
    fn the_all_pe_window_is_the_full_index((spec, ii, window) in arb_windowed()) {
        // Every PE, listed in reverse and twice over the random window.
        let mut all: Vec<PeId> = spec.pes().collect();
        all.reverse();
        all.extend(window);
        let windowed = MrrgIndex::new_window(spec.clone(), ii, all);
        let full = MrrgIndex::new(spec, ii);
        prop_assert_eq!(windowed.nodes(), full.nodes());
        prop_assert_eq!(windowed.window(), full.window());
        prop_assert_eq!(windowed.memory_stats(), full.memory_stats());
        for i in 0..full.len() {
            let i = RIdx(i as u32);
            prop_assert_eq!(windowed.capacity(i), full.capacity(i));
            prop_assert!(windowed.successors(i).eq(full.successors(i)));
            prop_assert!(windowed.predecessors(i).eq(full.predecessors(i)));
        }
    }

    #[test]
    fn resource_keys_name_exactly_the_graph_in_node_order((spec, ii, _w) in arb_windowed()) {
        let mrrg = Mrrg::new(spec.clone(), ii);
        // The fault-free graph is a superset: masked nodes must get no key.
        let superset = Mrrg::new(spec.fault_free(), ii).nodes();
        let mut last = None;
        for node in superset {
            let key = mrrg.resource_key(node);
            prop_assert_eq!(key.is_some(), mrrg.contains(node), "{:?}", node);
            if let Some(key) = key {
                prop_assert!(last < Some(key), "keys ascend in node order at {:?}", node);
                prop_assert!((key as usize) < mrrg.key_space());
                prop_assert_eq!(mrrg.resource_node(key), node);
                last = Some(key);
            }
        }
        // Off the array, past the II, past the register file.
        let pe = PeId::new(0, 0);
        for node in [
            RNode::new(PeId::new(spec.rows, 0), 0, RKind::Fu),
            RNode::new(PeId::new(0, spec.cols), 0, RKind::Fu),
            RNode::new(pe, ii as u32, RKind::Fu),
            RNode::new(pe, 0, RKind::Reg(spec.rf_size as u8)),
        ] {
            prop_assert_eq!(mrrg.resource_key(node), None, "{:?}", node);
        }
    }

    #[test]
    fn ids_are_dense_and_bijective((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        let legacy = mrrg.nodes();
        prop_assert_eq!(index.len(), legacy.len());
        prop_assert_eq!(index.nodes(), legacy.as_slice());
        for (i, &node) in legacy.iter().enumerate() {
            let ri = RIdx(i as u32);
            prop_assert_eq!(index.node(ri), node);
            prop_assert_eq!(index.index_of(node), Some(ri));
            prop_assert!(index.contains(node));
        }
    }

    #[test]
    fn csr_successors_match_legacy_enumeration((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            let dense: Vec<RNode> =
                index.successors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            // Order-exact: the CSR row must be the legacy enumeration.
            prop_assert_eq!(dense, mrrg.successors(node), "successors of {:?}", node);
        }
    }

    #[test]
    fn csr_predecessors_match_legacy_enumeration((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            let dense: Vec<RNode> =
                index.predecessors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            prop_assert_eq!(dense, mrrg.predecessors(node), "predecessors of {:?}", node);
        }
    }

    #[test]
    fn csr_latencies_match_legacy_edge_latency((rows, cols, ii) in arb_dims()) {
        let (mrrg, index) = build(rows, cols, ii);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            for (j, lat) in index.successors(RIdx(i as u32)) {
                let succ = index.node(j);
                prop_assert_eq!(
                    mrrg.edge_latency(node, succ),
                    Some(lat),
                    "latency of {:?} -> {:?}",
                    node,
                    succ
                );
                prop_assert_eq!(index.edge_latency(node, succ), Some(lat));
            }
        }
    }

    #[test]
    fn faulted_ids_stay_dense_and_bijective((rows, cols, ii, faults) in arb_faulted()) {
        let (mrrg, index) = build_faulted(rows, cols, ii, &faults);
        let legacy = mrrg.nodes();
        prop_assert_eq!(index.len(), legacy.len());
        prop_assert_eq!(index.nodes(), legacy.as_slice());
        for (i, &node) in legacy.iter().enumerate() {
            let ri = RIdx(i as u32);
            prop_assert_eq!(index.node(ri), node);
            prop_assert_eq!(index.index_of(node), Some(ri));
        }
    }

    #[test]
    fn faulted_adjacency_matches_legacy_enumeration((rows, cols, ii, faults) in arb_faulted()) {
        let (mrrg, index) = build_faulted(rows, cols, ii, &faults);
        for (i, &node) in mrrg.nodes().iter().enumerate() {
            let succ: Vec<RNode> =
                index.successors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            prop_assert_eq!(succ, mrrg.successors(node), "successors of {:?}", node);
            let pred: Vec<RNode> =
                index.predecessors(RIdx(i as u32)).map(|(j, _)| index.node(j)).collect();
            prop_assert_eq!(pred, mrrg.predecessors(node), "predecessors of {:?}", node);
        }
    }

    #[test]
    fn faulted_builds_exclude_exactly_the_masked_nodes((rows, cols, ii, faults) in arb_faulted()) {
        let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
        let faulted_spec = spec.clone().with_faults(faults.clone());
        let pristine = MrrgIndex::new(spec.clone(), ii);
        let (mrrg, index) = build_faulted(rows, cols, ii, &faults);
        // No masked node survives in either representation...
        for node in mrrg.nodes() {
            prop_assert!(!faults.masks(&faulted_spec, node), "masked {:?} present", node);
            prop_assert!(index.contains(node));
        }
        // ...and nothing else is dropped: pristine minus masked == faulted.
        let kept =
            pristine.nodes().iter().filter(|&&n| !faults.masks(&faulted_spec, n)).count();
        prop_assert_eq!(kept, index.len());
    }

    #[test]
    fn forward_and_backward_csr_agree((rows, cols, ii) in arb_dims()) {
        let (_, index) = build(rows, cols, ii);
        // Every forward edge must appear exactly once in the target's
        // backward row with the same latency, and vice versa.
        let mut fwd: Vec<(u32, u32, u32)> = Vec::new();
        let mut bwd: Vec<(u32, u32, u32)> = Vec::new();
        for i in 0..index.len() {
            for (j, lat) in index.successors(RIdx(i as u32)) {
                fwd.push((i as u32, j.0, lat));
            }
            for (j, lat) in index.predecessors(RIdx(i as u32)) {
                bwd.push((j.0, i as u32, lat));
            }
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }
}
