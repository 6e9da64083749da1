//! Differential tests pinning the flat-array router to the HashMap
//! reference implementation.
//!
//! `Router` (dense `RIdx`-indexed state over the shared `MrrgIndex`) and
//! `ReferenceRouter` (the original per-call HashMap implementation) must be
//! *bit-identical*: same path nodes, same elapsed counts, and the same cost
//! down to the floating-point bit pattern, under congestion, history and
//! rip-up alike. Any divergence means the dense refactor changed routing
//! behavior rather than just its speed.
//!
//! A router over a window index must answer every search confined to a
//! bounding box inside the window exactly as a router over the whole
//! fabric does: same paths, same costs, same search counters.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use himap_cgra::{CapabilityMap, CgraSpec, Mrrg, MrrgIndex, PeId, RKind, RNode};
use himap_mapper::{
    Elapsed, ReferenceRouter, RoutedPath, Router, RouterConfig, RouterStats, SignalId,
};
use proptest::prelude::*;

/// Everything observable about a routing answer, with the cost as raw bits
/// so `assert_eq` is exact (NaN included).
fn fingerprint(p: &Option<RoutedPath>) -> Option<(Vec<RNode>, u32, u64)> {
    p.as_ref().map(|p| (p.nodes.clone(), p.elapsed, p.cost.to_bits()))
}

fn pair(rows: usize, cols: usize, ii: usize) -> (Router, ReferenceRouter) {
    let spec = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
    let dense = Router::new(Mrrg::new(spec.clone(), ii), RouterConfig::default());
    let legacy = ReferenceRouter::new(Mrrg::new(spec, ii), RouterConfig::default());
    (dense, legacy)
}

fn fu(x: usize, y: usize, t: usize, ii: usize) -> RNode {
    RNode::new(PeId::new(x, y), (t % ii) as u32, RKind::Fu)
}

fn arb_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..4, 1usize..4, 1usize..5)
}

proptest! {
    #[test]
    fn route_one_parity_on_clean_state(
        (rows, cols, ii) in arb_dims(),
        sx in 0usize..4, sy in 0usize..4,
        dx in 0usize..4, dy in 0usize..4,
        elapsed in 0u32..8,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let src = fu(sx % rows, sy % cols, 0, ii);
        let dst = fu(dx % rows, dy % cols, elapsed as usize, ii);
        let a = dense.route_one(SignalId(0), src, dst, Some(elapsed));
        let b = legacy.route_one(SignalId(0), src, dst, Some(elapsed));
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn route_constrained_at_most_parity(
        (rows, cols, ii) in arb_dims(),
        sx in 0usize..4, sy in 0usize..4,
        dx in 0usize..4, dy in 0usize..4,
        cap in 0u32..10,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let src = fu(sx % rows, sy % cols, 0, ii);
        let dst = fu(dx % rows, dy % cols, 1, ii);
        let a = dense.route_constrained(SignalId(3), &[src], dst, Elapsed::AtMost(cap), |_| true);
        let b = legacy.route_constrained(SignalId(3), &[src], dst, Elapsed::AtMost(cap), |_| true);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn congested_negotiation_parity(
        (rows, cols, ii) in arb_dims(),
        queries in proptest::collection::vec(
            (0usize..4, 0usize..4, 0usize..4, 0usize..4, 1u32..6), 0..10),
    ) {
        // Replay one negotiation round on both routers: route, commit,
        // penalize, and re-route — every observable must stay identical.
        let (mut dense, mut legacy) = pair(rows, cols, ii);
        for (i, &(sx, sy, dx, dy, elapsed)) in queries.iter().enumerate() {
            let src = fu(sx % rows, sy % cols, 0, ii);
            let dst = fu(dx % rows, dy % cols, elapsed as usize, ii);
            let signal = SignalId(i as u32);
            let a = dense.route_one(signal, src, dst, Some(elapsed));
            let b = legacy.route_one(signal, src, dst, Some(elapsed));
            prop_assert_eq!(fingerprint(&a), fingerprint(&b), "query {}", i);
            if let (Some(pa), Some(pb)) = (a, b) {
                dense.commit(&pa);
                legacy.commit(&pb);
            }
        }
        prop_assert_eq!(dense.oversubscribed(), legacy.oversubscribed());
        prop_assert_eq!(dense.bump_history(), legacy.bump_history());
        // After history penalties the searches must still agree.
        dense.clear_present();
        legacy.clear_present();
        if let Some(&(sx, sy, dx, dy, elapsed)) = queries.first() {
            let src = fu(sx % rows, sy % cols, 0, ii);
            let dst = fu(dx % rows, dy % cols, elapsed as usize, ii);
            let a = dense.route_one(SignalId(99), src, dst, Some(elapsed));
            let b = legacy.route_one(SignalId(99), src, dst, Some(elapsed));
            prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        }
    }

    #[test]
    fn route_timed_parity(
        (rows, cols, ii) in arb_dims(),
        dx in 0usize..4, dy in 0usize..4,
        target_abs in 1i64..8,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let sources = [(fu(0, 0, 0, ii), 0i64)];
        let dst = fu(dx % rows, dy % cols, target_abs as usize, ii);
        let a = dense.route_timed(SignalId(7), &sources, dst, target_abs, |_| true);
        let b = legacy.route_timed(SignalId(7), &sources, dst, target_abs, |_| true);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn fu_distances_parity(
        (rows, cols, ii) in arb_dims(),
        sx in 0usize..4, sy in 0usize..4,
        cap in 1u32..7,
    ) {
        let (mut dense, legacy) = pair(rows, cols, ii);
        let src = fu(sx % rows, sy % cols, 0, ii);
        let norm = |m: std::collections::HashMap<(RNode, u32), f64>| {
            let mut v: Vec<((RNode, u32), u64)> =
                m.into_iter().map(|(k, c)| (k, c.to_bits())).collect();
            v.sort_unstable_by_key(|e| e.0);
            v
        };
        let a = norm(dense.fu_distances(SignalId(1), &[src], cap));
        let b = norm(legacy.fu_distances(SignalId(1), &[src], cap));
        prop_assert_eq!(a, b);
    }
}

/// The search counters a window may not change: all but the scratch-page
/// allocations (`epoch_resets`), which follow the dense id space.
fn search_counters(stats: RouterStats) -> (u64, u64, u64, u64) {
    (stats.searches, stats.nodes_popped, stats.heap_pushes, stats.cancelled)
}

proptest! {
    #[test]
    fn window_searches_match_the_full_index(
        (rows, cols, ii) in (2usize..6, 2usize..6, 1usize..5),
        (x0, y0, h, w) in (0usize..6, 0usize..6, 1usize..4, 1usize..4),
        (flavour, extra) in (0usize..3, any::<u64>()),
        queries in proptest::collection::vec(
            (0usize..16, 0usize..16, 0u32..8, 0usize..3), 1..12),
    ) {
        let mesh = CgraSpec::mesh(rows, cols).expect("non-empty mesh");
        let spec = match flavour {
            0 => mesh,
            1 => mesh.with_faults(CapabilityMap::heterogeneous(rows, cols)),
            _ => {
                let mut faults = CapabilityMap::new();
                faults.kill_pe(PeId::new(rows - 1, cols - 1));
                mesh.with_faults(faults)
            }
        };
        let (x0, y0) = (x0 % rows, y0 % cols);
        let (x1, y1) = ((x0 + h).min(rows) - 1, (y0 + w).min(cols) - 1);
        let in_box = move |pe: PeId| {
            (x0..=x1).contains(&(pe.x as usize)) && (y0..=y1).contains(&(pe.y as usize))
        };
        let boxed: Vec<PeId> = spec.pes().filter(|&pe| in_box(pe)).collect();
        // The window: the box plus random further PEs.
        let window: Vec<PeId> = spec
            .pes()
            .enumerate()
            .filter(|&(i, pe)| in_box(pe) || extra >> i & 1 == 1)
            .map(|(_, pe)| pe)
            .collect();
        let mrrg = Mrrg::new(spec.clone(), ii);
        let config = RouterConfig::default();
        let mut full = Router::with_index(Arc::new(MrrgIndex::new(spec.clone(), ii)), config.clone());
        let mut win = Router::with_index(
            Arc::new(MrrgIndex::new_window(spec.clone(), ii, window)),
            config.clone(),
        );
        let allowed = |n: RNode| in_box(n.pe);
        for (q, &(s, t, elapsed, kind)) in queries.iter().enumerate() {
            // PEs numbered inside the box; kind 0 timed, 1 filtered, 2 bounded.
            let (s, t) = (s % boxed.len(), t % boxed.len());
            let src = RNode::new(boxed[s], 0, RKind::Fu);
            let target = RNode::new(boxed[t], elapsed % ii as u32, RKind::Fu);
            if !mrrg.contains(src) {
                continue; // a masked source is no source at all
            }
            let signal = SignalId(q as u32 % 3);
            let run = |router: &mut Router| match kind {
                0 => router.route_timed(signal, &[(src, 0)], target, elapsed as i64, allowed),
                1 => router.route_filtered(signal, &[src], target, Some(elapsed), allowed),
                _ => router.route_bounded(signal, &[src], target, Elapsed::AtMost(elapsed), allowed),
            };
            let (a, b) = (run(&mut full), run(&mut win));
            prop_assert_eq!(fingerprint(&a), fingerprint(&b), "query {}", q);
            prop_assert_eq!(
                search_counters(full.take_search_stats()),
                search_counters(win.take_search_stats()),
                "query {}", q
            );
            // Grow congestion so later searches price occupancy and history.
            if let Some(path) = a {
                full.commit(&path);
                win.commit(&path);
            }
            if q % 4 == 3 {
                prop_assert_eq!(full.bump_history(), win.bump_history());
                prop_assert_eq!(full.oversubscribed(), win.oversubscribed());
            }
        }
    }
}

/// A dense integration-style sweep: many committed routes on one router
/// pair, with a rip-up in the middle. Covers the scratch-reuse path (every
/// query after the first reuses the epoch-stamped arrays).
#[test]
fn committed_sweep_with_rip_up_stays_identical() {
    let (mut dense, mut legacy) = pair(4, 4, 2);
    let mut committed: Vec<(RoutedPath, RoutedPath)> = Vec::new();
    let mut signal = 0u32;
    for sx in 0..4 {
        for dy in 0..4 {
            let src = fu(sx, 0, 0, 2);
            let dst = fu(3 - sx, dy, 3, 2);
            let a = dense.route_one(SignalId(signal), src, dst, Some(3));
            let b = legacy.route_one(SignalId(signal), src, dst, Some(3));
            assert_eq!(fingerprint(&a), fingerprint(&b), "query s{sx} d{dy}");
            if let (Some(pa), Some(pb)) = (a, b) {
                dense.commit(&pa);
                legacy.commit(&pb);
                committed.push((pa, pb));
            }
            signal += 1;
        }
    }
    assert!(!committed.is_empty(), "the sweep must route something");
    assert_eq!(dense.oversubscribed(), legacy.oversubscribed());
    // Rip up every other committed path and verify occupancy agreement at
    // every node either path visited.
    for (i, (pa, pb)) in committed.iter().enumerate() {
        if i % 2 == 0 {
            dense.rip_up(pa);
            legacy.rip_up(pb);
        }
    }
    assert_eq!(dense.oversubscribed(), legacy.oversubscribed());
    for (pa, _) in &committed {
        for &node in &pa.nodes {
            assert_eq!(dense.occupants(node), legacy.occupants(node), "occupants of {node:?}");
        }
    }
    // Full reset brings both back to a clean, still-identical state.
    dense.reset();
    legacy.reset();
    let a = dense.route_one(SignalId(500), fu(0, 0, 0, 2), fu(3, 3, 0, 2), None);
    let b = legacy.route_one(SignalId(500), fu(0, 0, 0, 2), fu(3, 3, 0, 2), None);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

/// SplitMix64: a tiny seeded generator, so the congestion sequences below
/// replay identically everywhere.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Seeded sequences of congestion updates — placements and removals
/// (including re-placing a node a removal emptied), committed and ripped-up
/// routes, external and repeated negotiated history, partial and full
/// resets — applied to both routers. After every step the oversubscribed
/// set (in order) and a probe search must agree, and every history bump
/// must penalize the same number of nodes.
#[test]
fn seeded_congestion_sequences_stay_identical() {
    let ii = 2;
    // Steps that saw an oversubscribed resource, and penalizing bumps.
    let (mut congested, mut bumped) = (0, 0);
    for seed in 0..8u64 {
        let mut rng = SplitMix(seed);
        let (mut dense, mut legacy) = pair(3, 3, ii);
        let nodes = dense.mrrg().nodes();
        // A small hot pool so distinct signals pile up on shared resources.
        let hot: Vec<RNode> = (0..10).map(|_| nodes[rng.below(nodes.len())]).collect();
        let mut placed: Vec<(RNode, SignalId)> = Vec::new();
        let mut emptied: Vec<RNode> = Vec::new();
        let mut committed: Vec<RoutedPath> = Vec::new();
        for step in 0..300 {
            let ctx = format!("seed {seed} step {step}");
            match rng.below(10) {
                0 | 1 => {
                    let node = hot[rng.below(hot.len())];
                    let signal = SignalId(rng.below(5) as u32);
                    dense.place(node, signal);
                    legacy.place(node, signal);
                    placed.push((node, signal));
                }
                2 if !placed.is_empty() => {
                    let (node, signal) = placed.swap_remove(rng.below(placed.len()));
                    dense.unplace(node, signal);
                    legacy.unplace(node, signal);
                    if dense.occupants(node).is_empty() {
                        emptied.push(node);
                    }
                }
                3 if !emptied.is_empty() => {
                    let node = emptied.swap_remove(rng.below(emptied.len()));
                    for s in 0..3 {
                        dense.place(node, SignalId(10 + s));
                        legacy.place(node, SignalId(10 + s));
                        placed.push((node, SignalId(10 + s)));
                    }
                }
                4 => {
                    let src = fu(rng.below(3), rng.below(3), 0, ii);
                    let elapsed = 1 + rng.below(5) as u32;
                    let dst = fu(rng.below(3), rng.below(3), elapsed as usize, ii);
                    let signal = SignalId(20 + step as u32);
                    let a = dense.route_one(signal, src, dst, Some(elapsed));
                    let b = legacy.route_one(signal, src, dst, Some(elapsed));
                    assert_eq!(fingerprint(&a), fingerprint(&b), "{ctx}: route");
                    if let (Some(pa), Some(pb)) = (a, b) {
                        dense.commit(&pa);
                        legacy.commit(&pb);
                        committed.push(pa);
                    }
                }
                5 if !committed.is_empty() => {
                    let path = committed.swap_remove(rng.below(committed.len()));
                    dense.rip_up(&path);
                    legacy.rip_up(&path);
                }
                6 => {
                    let node = nodes[rng.below(nodes.len())];
                    let amount = (1 + rng.below(4)) as f64 * 0.75;
                    dense.add_history(node, amount);
                    legacy.add_history(node, amount);
                }
                7 => {
                    for _ in 0..1 + rng.below(3) {
                        let n = dense.bump_history();
                        assert_eq!(n, legacy.bump_history(), "{ctx}: bump");
                        bumped += usize::from(n > 0);
                    }
                }
                8 => {
                    dense.clear_present();
                    legacy.clear_present();
                    placed.clear();
                    emptied.clear();
                    committed.clear();
                }
                9 if rng.below(4) == 0 => {
                    dense.reset();
                    legacy.reset();
                    placed.clear();
                    emptied.clear();
                    committed.clear();
                }
                _ => {}
            }
            let over = dense.oversubscribed();
            assert_eq!(over, legacy.oversubscribed(), "{ctx}: oversubscribed");
            congested += usize::from(!over.is_empty());
            let sources = [(fu(0, 0, 0, ii), 0i64)];
            let target_abs = 2 + rng.below(4) as i64;
            let dst = fu(rng.below(3), rng.below(3), target_abs as usize, ii);
            let a = dense.route_timed(SignalId(99), &sources, dst, target_abs, |_| true);
            let b = legacy.route_timed(SignalId(99), &sources, dst, target_abs, |_| true);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{ctx}: probe");
        }
    }
    assert!(
        congested > 100 && bumped > 10,
        "sequences too tame: {congested} congested, {bumped} bumps"
    );
}
