//! Pinned oracle searches: for every suite kernel on its tuned 4x4 block,
//! the certificate, a digest of the mapping and the CDCL work counters.
//!
//! The solver and the CEGAR loop are deterministic, so a change to their
//! data structures that keeps the search identical keeps every value here.
//! A moved decision count means the search itself changed. The mapping
//! digest is the one `perfbench` pins in `perfbench/golden.txt`.
//!
//! gemm and ttm each exhaust the model budget at an undecided II and take
//! seconds; they run in the ignored test, which CI runs in release mode:
//!
//! ```text
//! cargo test --release -p himap-exact --test search_goldens -- --ignored
//! ```

use himap_cgra::{CgraSpec, RKind};
use himap_core::Mapping;
use himap_exact::{certify, ExactOptions};
use himap_kernels::suite;

/// One pinned oracle run.
struct Golden {
    kernel: &'static str,
    block: &'static [usize],
    /// `ii / lower_bound / certified / horizon`.
    certificate: &'static str,
    digest: u64,
    solves: u64,
    models: u64,
    decisions: u64,
    conflicts: u64,
    propagations: u64,
}

const FAST: &[Golden] = &[
    Golden {
        kernel: "adi",
        block: &[2, 2],
        certificate: "2/2/true/11",
        digest: 0x9725_868c_6af1_3d65,
        solves: 1,
        models: 1,
        decisions: 1932,
        conflicts: 14,
        propagations: 10_722,
    },
    Golden {
        kernel: "atax",
        block: &[3, 2],
        certificate: "2/2/true/10",
        digest: 0x5b96_0c9d_a78f_7387,
        solves: 3,
        models: 3,
        decisions: 4548,
        conflicts: 39,
        propagations: 35_175,
    },
    Golden {
        kernel: "bicg",
        block: &[2, 3],
        certificate: "2/2/true/10",
        digest: 0x03a3_e1fd_dd56_8dda,
        solves: 1,
        models: 1,
        decisions: 1518,
        conflicts: 12,
        propagations: 11_703,
    },
    Golden {
        kernel: "mvt",
        block: &[2, 3],
        certificate: "2/2/true/10",
        digest: 0x6663_5a73_7220_c729,
        solves: 1,
        models: 1,
        decisions: 1590,
        conflicts: 13,
        propagations: 11_794,
    },
    Golden {
        kernel: "syrk",
        block: &[3, 2, 2],
        certificate: "2/2/true/11",
        digest: 0x315e_766d_c1b0_405e,
        solves: 1,
        models: 1,
        decisions: 1512,
        conflicts: 8,
        propagations: 12_962,
    },
    Golden {
        kernel: "floyd-warshall",
        block: &[2, 2, 3],
        certificate: "2/2/true/11",
        digest: 0x0772_1809_20a6_d431,
        solves: 1,
        models: 1,
        decisions: 1965,
        conflicts: 13,
        propagations: 12_766,
    },
];

const SLOW: &[Golden] = &[
    Golden {
        kernel: "gemm",
        block: &[2, 2, 3],
        certificate: "3/2/false/12",
        digest: 0x3a75_7500_d7dd_a82d,
        solves: 65,
        models: 65,
        decisions: 102_563,
        conflicts: 1280,
        propagations: 1_151_321,
    },
    Golden {
        kernel: "ttm",
        block: &[2, 2, 2, 1],
        certificate: "3/1/false/11",
        digest: 0x733e_676c_a48e_0d94,
        solves: 129,
        models: 129,
        decisions: 140_979,
        conflicts: 784,
        propagations: 1_004_920,
    },
];

/// FNV-1a over the op slots sorted by node, then the routes sorted by edge.
fn digest(mapping: &Mapping) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut slots: Vec<_> = mapping.op_slots().iter().collect();
    slots.sort_by_key(|(node, _)| **node);
    for (node, slot) in slots {
        put(node.index() as u64);
        put(u64::from(slot.pe.x));
        put(u64::from(slot.pe.y));
        put(u64::from(slot.cycle_mod));
        put(slot.abs as u64);
    }
    let mut routes: Vec<_> = mapping.routes().iter().collect();
    routes.sort_by_key(|r| r.edge);
    for route in routes {
        put(route.edge.index() as u64);
        put(route.steps.len() as u64);
        for (node, cycle) in &route.steps {
            put(u64::from(node.pe.x));
            put(u64::from(node.pe.y));
            put(u64::from(node.t));
            put(match node.kind {
                RKind::Fu => 0,
                RKind::Out => 1,
                RKind::Wire(d) => 2 + d.index() as u64,
                RKind::RegWr => 6,
                RKind::RegRd => 7,
                RKind::Mem => 8,
                RKind::Reg(r) => 16 + u64::from(r),
            });
            put(*cycle as u64);
        }
    }
    h
}

fn check(goldens: &[Golden]) {
    let spec = CgraSpec::square(4);
    let options = ExactOptions::default();
    for g in goldens {
        let kernel =
            suite::by_name(g.kernel).unwrap_or_else(|| panic!("{}: not a suite kernel", g.kernel));
        let result = certify(&kernel, &spec, g.block, &options, None)
            .unwrap_or_else(|e| panic!("{}: oracle failed: {e}", g.kernel));
        let c = result.certificate;
        let s = result.stats;
        let got = format!(
            "{}/{}/{}/{} digest={:016x} solves={} models={} decisions={} conflicts={} \
             propagations={}",
            c.ii,
            c.lower_bound,
            c.certified,
            c.horizon,
            digest(&result.mapping),
            s.solves,
            s.models,
            s.decisions,
            s.conflicts,
            s.propagations
        );
        let want = format!(
            "{} digest={:016x} solves={} models={} decisions={} conflicts={} propagations={}",
            g.certificate, g.digest, g.solves, g.models, g.decisions, g.conflicts, g.propagations
        );
        assert_eq!(got, want, "{}: the oracle's search moved", g.kernel);
    }
}

#[test]
fn fast_kernels_repeat_their_pinned_search() {
    check(FAST);
}

#[test]
#[ignore = "gemm and ttm exhaust the CEGAR model budget; run in release"]
fn gemm_and_ttm_repeat_their_pinned_search() {
    check(SLOW);
}
