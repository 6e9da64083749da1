//! Configuration generation: lowering a [`Mapping`] to
//! per-PE instruction streams.
//!
//! "According to the generated mapping, each PE has a repeating instruction
//! stream with a length equal to IIB. However, HiMap keeps unique
//! instructions in the configuration memory of each CGRA PE to avoid
//! configuration memory bloat. PE program counters generate the instruction
//! stream according to the mapping schedule." (§V)
//!
//! [`ConfigImage::from_mapping`] derives, for every PE and every cycle of
//! the `IIB` window, the ALU operation and the crossbar/register-file moves
//! implied by the mapping's routes, de-duplicates identical instruction
//! words, and reports the configuration-memory pressure exactly.

use std::collections::HashMap;

use himap_cgra::{Dir, PeId, RKind, RNode};
use himap_dfg::NodeKind;
use himap_kernels::OpKind;

use crate::mapping::Mapping;

/// A crossbar input port of a PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SrcPort {
    /// The PE's own ALU result (same-cycle latch into the output register).
    Alu,
    /// The PE's output register.
    OutReg,
    /// A register-file read port.
    RfRead,
    /// The local data memory.
    Mem,
    /// The mesh input from the neighbour in the given direction.
    In(Dir),
}

/// A crossbar output / write destination of a PE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DstPort {
    /// The mesh output toward the given direction.
    Out(Dir),
    /// A register-file write (to the given register).
    RfWrite(u8),
    /// An ALU operand slot.
    Operand(u8),
}

/// One data move through a PE's crossbar in one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Move {
    /// Where the value comes from.
    pub src: SrcPort,
    /// Where it goes.
    pub dst: DstPort,
}

/// The instruction word of one PE in one cycle: the ALU operation (if any)
/// plus all crossbar moves.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Instr {
    /// ALU operation executed this cycle.
    pub op: Option<OpKind>,
    /// Crossbar and register-file moves, sorted for canonical comparison.
    pub moves: Vec<Move>,
}

impl Instr {
    /// `true` if the PE neither computes nor routes this cycle.
    pub fn is_nop(&self) -> bool {
        self.op.is_none() && self.moves.is_empty()
    }
}

/// The full configuration image of a mapping: per PE, the `IIB`-cycle
/// instruction stream and its compressed unique-instruction store.
#[derive(Clone, Debug)]
pub struct ConfigImage {
    iib: usize,
    /// Per PE: indices into `store` for each cycle of the window.
    streams: HashMap<PeId, Vec<u16>>,
    /// Per PE: de-duplicated instruction words.
    store: HashMap<PeId, Vec<Instr>>,
}

impl ConfigImage {
    /// Derives the configuration image from a mapping's placements and
    /// routes.
    pub fn from_mapping(mapping: &Mapping) -> ConfigImage {
        let iib = mapping.stats().iib;
        let spec = mapping.spec();
        // Raw per-(pe, cycle) instructions in one dense table, row-major
        // over the PEs. `x * cols + y` aliases another PE when `pe` lies
        // outside the array, so only in-array PEs and in-window cycles are
        // written; anything else is not part of the image.
        let mut raw = vec![Instr::default(); spec.pe_count() * iib];
        let at = |pe: PeId, cycle: u32| {
            (spec.contains(pe) && (cycle as usize) < iib)
                .then(|| (pe.x as usize * spec.cols + pe.y as usize) * iib + cycle as usize)
        };
        // ALU ops.
        let dfg = mapping.dfg();
        for (node, w) in dfg.graph().nodes() {
            if let NodeKind::Op { kind, .. } = w.kind {
                let Some(slot) = mapping.op_slot(node) else { continue };
                if let Some(i) = at(slot.pe, slot.cycle_mod) {
                    raw[i].op = Some(kind);
                }
            }
        }
        // Route moves: each consecutive step pair implies one move at one
        // (pe, cycle).
        for route in mapping.routes() {
            for pair in route.steps.windows(2) {
                let ((a, a_abs), (b, _)) = (pair[0], pair[1]);
                if let Some((pe, cycle, mv)) = step_move(spec, a, a_abs, b, iib) {
                    if let Some(i) = at(pe, cycle) {
                        if !raw[i].moves.contains(&mv) {
                            raw[i].moves.push(mv);
                        }
                    }
                }
            }
        }
        // Canonicalize and compress.
        let mut streams: HashMap<PeId, Vec<u16>> = HashMap::new();
        let mut store: HashMap<PeId, Vec<Instr>> = HashMap::new();
        // `spec.pes()` walks the PEs in the table's row-major order.
        for (p, pe) in spec.pes().enumerate() {
            let pe_store: &mut Vec<Instr> = store.entry(pe).or_default();
            let mut stream = Vec::with_capacity(iib);
            for instr in &mut raw[p * iib..(p + 1) * iib] {
                let mut instr = std::mem::take(instr);
                instr.moves.sort();
                let idx = match pe_store.iter().position(|i| *i == instr) {
                    Some(i) => i,
                    None => {
                        pe_store.push(instr);
                        pe_store.len() - 1
                    }
                };
                stream.push(idx as u16);
            }
            streams.insert(pe, stream);
        }
        ConfigImage { iib, streams, store }
    }

    /// The repeating window length in cycles.
    pub fn iib(&self) -> usize {
        self.iib
    }

    /// The instruction executed by `pe` at `cycle mod IIB`.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is not part of the image.
    pub fn instr_at(&self, pe: PeId, cycle: u32) -> &Instr {
        let stream = &self.streams[&pe];
        let idx = stream[(cycle as usize) % self.iib];
        &self.store[&pe][idx as usize]
    }

    /// Number of *unique* instruction words a PE must store — the paper's
    /// configuration-memory footprint after de-duplication.
    pub fn unique_instrs(&self, pe: PeId) -> usize {
        self.store.get(&pe).map_or(0, Vec::len)
    }

    /// The worst-case configuration-memory footprint over all PEs.
    pub fn max_unique_instrs(&self) -> usize {
        self.store.values().map(Vec::len).max().unwrap_or(0)
    }

    /// The footprint without unique-instruction compression (stream length
    /// per PE) — what the paper calls configuration memory bloat.
    pub fn uncompressed_len(&self) -> usize {
        self.iib
    }

    /// `true` if every PE's unique instructions fit its configuration
    /// memory.
    pub fn fits(&self, config_mem_depth: usize) -> bool {
        self.max_unique_instrs() <= config_mem_depth
    }

    /// Fraction of busy (non-NOP) instruction slots over the whole array —
    /// a utilization cross-check derived purely from the configuration.
    pub fn busy_fraction(&self) -> f64 {
        let mut busy = 0usize;
        let mut total = 0usize;
        for (pe, stream) in &self.streams {
            for &idx in stream {
                total += 1;
                if !self.store[pe][idx as usize].is_nop() {
                    busy += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            busy as f64 / total as f64
        }
    }
}

/// The move implied by a route hop `a → b`, with the PE and cycle (mod
/// `iib`) whose crossbar performs it. Returns `None` for hops that need no
/// configuration (ALU latch into its own output register, register holds).
fn step_move(
    spec: &himap_cgra::CgraSpec,
    a: RNode,
    a_abs: i64,
    b: RNode,
    iib: usize,
) -> Option<(PeId, u32, Move)> {
    // The configuring PE: where the crossbar sits. For moves into a Wire,
    // the wire's owner drives it; for moves into Fu/RegWr, the consumer PE.
    let src = src_port(spec, a, b.pe)?;
    match b.kind {
        RKind::Wire(d) => {
            // Driven by b.pe during the cycle before the wire's arrival
            // cycle — which is a's availability cycle.
            Some((b.pe, (a_abs.rem_euclid(iib as i64)) as u32, Move { src, dst: DstPort::Out(d) }))
        }
        RKind::RegWr => Some((
            b.pe,
            (a_abs.rem_euclid(iib as i64)) as u32,
            Move { src, dst: DstPort::RfWrite(0) },
        )),
        RKind::Reg(r) => {
            // RegWr -> Reg(r): patch the register index onto the pending
            // write; modelled as its own move for simplicity.
            if a.kind == RKind::RegWr {
                Some((
                    b.pe,
                    (a_abs.rem_euclid(iib as i64)) as u32,
                    Move { src: SrcPort::RfRead, dst: DstPort::RfWrite(r) },
                ))
            } else {
                None
            }
        }
        RKind::Fu => {
            // Operand select at the consumer's cycle.
            Some((b.pe, b.t, Move { src, dst: DstPort::Operand(0) }))
        }
        RKind::Out | RKind::RegRd | RKind::Mem => None,
    }
}

/// The crossbar input port at `at` that carries the value held by `a`.
fn src_port(spec: &himap_cgra::CgraSpec, a: RNode, at: PeId) -> Option<SrcPort> {
    match a.kind {
        RKind::Fu => Some(SrcPort::Alu),
        RKind::Out => Some(SrcPort::OutReg),
        RKind::RegRd | RKind::Reg(_) | RKind::RegWr => Some(SrcPort::RfRead),
        RKind::Mem => Some(SrcPort::Mem),
        RKind::Wire(d) => {
            // The value arrives at `at` from the opposite direction.
            let n = spec.neighbor(a.pe, d)?;
            if n == at {
                Some(SrcPort::In(d.opposite()))
            } else {
                // A wire whose far end is not `at` cannot feed it.
                None
            }
        }
    }
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HiMap, HiMapOptions};
    use himap_cgra::CgraSpec;
    use himap_kernels::suite;

    fn image_for(name: &str, c: usize) -> (Mapping, ConfigImage) {
        let kernel = suite::by_name(name).expect("kernel exists");
        let mapping =
            HiMap::new(HiMapOptions::default()).map(&kernel, &CgraSpec::square(c)).expect("maps");
        let image = ConfigImage::from_mapping(&mapping);
        (mapping, image)
    }

    #[test]
    fn gemm_configs_fit_memory() {
        let (mapping, image) = image_for("gemm", 4);
        assert!(image.fits(mapping.spec().config_mem_depth));
        assert_eq!(image.iib(), mapping.stats().iib);
    }

    #[test]
    fn all_kernels_fit_config_memory() {
        for kernel in suite::all() {
            let mapping = HiMap::new(HiMapOptions::default())
                .map(&kernel, &CgraSpec::square(4))
                .expect("maps");
            let image = ConfigImage::from_mapping(&mapping);
            assert!(
                image.fits(mapping.spec().config_mem_depth),
                "{}: {} unique instrs > {}",
                kernel.name(),
                image.max_unique_instrs(),
                mapping.spec().config_mem_depth
            );
        }
    }

    #[test]
    fn compression_helps_on_large_windows() {
        // Floyd–Warshall has IIB = 12 but few distinct per-cycle behaviours;
        // unique-instruction compression must beat the raw stream length.
        let (_, image) = image_for("floyd-warshall", 4);
        assert!(image.max_unique_instrs() <= image.uncompressed_len());
    }

    #[test]
    fn busy_fraction_tracks_utilization() {
        // Every cycle with an op or a move counts busy; at 100 % FU
        // utilization the busy fraction must be 1.
        let (mapping, image) = image_for("gemm", 4);
        assert!((mapping.utilization() - 1.0).abs() < 1e-9);
        assert!(image.busy_fraction() >= mapping.utilization());
    }

    #[test]
    fn instr_lookup_is_periodic() {
        let (mapping, image) = image_for("mvt", 4);
        let pe = himap_cgra::PeId::new(0, 0);
        let iib = mapping.stats().iib as u32;
        for cycle in 0..iib {
            assert_eq!(image.instr_at(pe, cycle), image.instr_at(pe, cycle + iib));
        }
    }

    /// 64-bit FNV-1a over every instruction word of an image, in PE and
    /// cycle order, then its worst-case footprint.
    fn image_digest(spec: &CgraSpec, image: &ConfigImage) -> u64 {
        let mut text = String::new();
        for pe in spec.pes() {
            for cycle in 0..image.iib() as u32 {
                text.push_str(&format!("{pe:?}/{cycle}: {:?}\n", image.instr_at(pe, cycle)));
            }
        }
        text.push_str(&format!("max {}", image.max_unique_instrs()));
        text.bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    #[test]
    fn images_match_golden_digests() {
        // Pinned images: the eight suite kernels on 4x4, and gemm in the
        // paper's b = c = 16 regime.
        let golden: [(&str, usize, Option<usize>, u64); 9] = [
            ("gemm", 4, None, 0xdcf70c2d64f4900d),
            ("bicg", 4, None, 0x05857e30ab30e4b9),
            ("mvt", 4, None, 0x1c5e2eea4b2c8cff),
            ("atax", 4, None, 0x05857e30ab30e4b9),
            ("syrk", 4, None, 0xdcf70c2d64f4900d),
            ("floyd-warshall", 4, None, 0xc24b282f49b87737),
            ("adi", 4, None, 0x3a8ef84c01e2526a),
            ("ttm", 4, None, 0x64dfff309a3f5f26),
            ("gemm", 16, Some(16), 0x522f3830b1561703),
        ];
        let mut got = Vec::new();
        for &(name, c, free, _) in &golden {
            let kernel = suite::by_name(name).expect("kernel exists");
            let mut options = HiMapOptions { threads: 1, ..HiMapOptions::default() };
            if let Some(b) = free {
                options.free_extents = vec![b];
            }
            let spec = CgraSpec::square(c);
            let mapping = HiMap::new(options).map(&kernel, &spec).expect("maps");
            got.push(image_digest(&spec, &ConfigImage::from_mapping(&mapping)));
        }
        let want: Vec<u64> = golden.iter().map(|g| g.3).collect();
        assert_eq!(got, want, "config image digests: {got:#018x?}");
    }

    #[test]
    fn ops_appear_in_streams() {
        let (mapping, image) = image_for("bicg", 4);
        let dfg = mapping.dfg();
        for (node, w) in dfg.graph().nodes() {
            if let himap_dfg::NodeKind::Op { kind, .. } = w.kind {
                let slot = mapping.op_slot(node).expect("placed");
                let instr = image.instr_at(slot.pe, slot.cycle_mod);
                assert_eq!(instr.op, Some(kind), "missing op at {slot:?}");
            }
        }
    }
}
