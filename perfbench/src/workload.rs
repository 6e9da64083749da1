//! The benchmark's workloads, and how one point of them is compiled,
//! checked and (in the traced run) broken down by layer.
//!
//! A *point* is one compile of one kernel on one fabric with one set of
//! options. Every point goes through the public API of the crate that owns
//! it; nothing here reaches into a crate's internals.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use himap_analyze::{analyze_dfg, analyze_kernel, AnalyzeOptions};
use himap_cgra::{CapabilityMap, CgraSpec, MrrgIndex, RKind};
use himap_core::{
    ConfigImage, HiMap, HiMapOptions, Mapping, PipelineStats, TileDisposition, TiledMapping,
};
use himap_dfg::Dfg;
use himap_exact::{certify, encode, ExactOptions, ExactResult};
use himap_kernels::{suite, Kernel};
use himap_mapper::CancelToken;
use himap_sim::simulate;
use himap_verify::{verify_mapping, verify_tiled};

use crate::trace::Tracer;

/// Wall-clock budget per oracle call, as in the oracle's CI sweep.
const ORACLE_BUDGET: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 8 regime: block = fabric, `b = c`.
    Fig8Paper,
    /// Default small blocks on 4x4/8x8, a heterogeneous fabric and the
    /// tiled 64x64 path.
    SmallBlocks,
    /// The exact CDCL/CEGAR oracle on the suite at 4x4.
    ExactOracle,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Fig8Paper, Workload::SmallBlocks, Workload::ExactOracle];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8Paper => "fig8_paper",
            Workload::SmallBlocks => "small_blocks",
            Workload::ExactOracle => "exact_oracle",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's points (kernels, fabrics, options).
    pub fn points(self) -> Vec<Point> {
        let sequential = HiMapOptions { threads: 1, ..HiMapOptions::default() };
        match self {
            // gemm b = c = 64 (~41 s) and ttm b = c = 16 (~87 s) are left
            // out: too slow to repeat in every run.
            Workload::Fig8Paper => {
                [(suite::gemm(), 16), (suite::gemm(), 32), (suite::mvt(), 64), (suite::ttm(), 8)]
                    .into_iter()
                    .map(|(kernel, b)| Point {
                        name: format!("{}-b{b}", kernel.name()),
                        kernel,
                        spec: CgraSpec::square(b),
                        engine: Engine::Map(HiMapOptions {
                            free_extents: vec![b],
                            ..sequential.clone()
                        }),
                    })
                    .collect()
            }
            Workload::SmallBlocks => {
                let mut points = Vec::new();
                for size in [4, 8] {
                    for kernel in suite::all() {
                        points.push(Point {
                            name: format!("{}-{size}x{size}", kernel.name()),
                            kernel,
                            spec: CgraSpec::square(size),
                            engine: Engine::Map(sequential.clone()),
                        });
                    }
                }
                points.push(Point {
                    name: "stencil2d-het4x4".into(),
                    kernel: suite::stencil2d(),
                    spec: CgraSpec::square(4).with_faults(CapabilityMap::heterogeneous(4, 4)),
                    engine: Engine::Map(sequential.clone()),
                });
                for kernel in [suite::gemm(), suite::floyd_warshall()] {
                    points.push(Point {
                        name: format!("{}-tiled64x64", kernel.name()),
                        kernel,
                        spec: CgraSpec::square(64),
                        engine: Engine::Tiled(sequential.clone()),
                    });
                }
                points
            }
            Workload::ExactOracle => suite::all()
                .into_iter()
                .map(|kernel| Point {
                    name: format!("{}-exact4x4", kernel.name()),
                    engine: Engine::Exact(oracle_block(&kernel)),
                    kernel,
                    spec: CgraSpec::square(4),
                })
                .collect(),
        }
    }
}

/// The 4x4 blocks of the oracle's CI sweep (`exact_oracle --size 4`).
fn oracle_block(kernel: &Kernel) -> Vec<usize> {
    match kernel.name() {
        "adi" => vec![2, 2],
        "atax" => vec![3, 2],
        "bicg" | "mvt" => vec![2, 3],
        "syrk" => vec![3, 2, 2],
        "floyd-warshall" | "gemm" => vec![2, 2, 3],
        "ttm" => vec![2, 2, 2, 1],
        _ => vec![2; kernel.dims()],
    }
}

/// Which public entry point compiles a point.
enum Engine {
    /// `HiMap::map_with_stats`.
    Map(HiMapOptions),
    /// `HiMap::map_tiled`.
    Tiled(HiMapOptions),
    /// `himap_exact::certify` on this block.
    Exact(Vec<usize>),
}

pub struct Point {
    pub name: String,
    kernel: Kernel,
    spec: CgraSpec,
    engine: Engine,
}

/// What one compile produced.
enum Produced {
    Map(Mapping),
    Tiled(Box<TiledMapping>),
    Exact(ExactResult),
}

impl Produced {
    /// The mapping whose spec, block and II stand for the point: the tile
    /// mapping for tiled points.
    fn primary(&self) -> &Mapping {
        match self {
            Produced::Map(m) => m,
            Produced::Tiled(t) => t.base(),
            Produced::Exact(r) => &r.mapping,
        }
    }
}

/// One compile of one point and what checking it found.
#[derive(Default)]
pub struct Outcome {
    pub compile: Duration,
    /// Verifier plus simulator time.
    pub verdict: Duration,
    /// Why the point does not count as ok (compile, verify or simulate).
    pub failure: Option<String>,
    pub utilization: f64,
    pub ii: usize,
    pub config_slots: usize,
    /// II proven minimal: by the oracle's certificate, or by meeting the
    /// analyzer's certified lower bound.
    pub certified: bool,
    /// Hash of the mapping's op slots and routes.
    pub digest: u64,
    /// The values that must repeat exactly between runs of the same code.
    pub fingerprint: String,
    /// Additive per-layer quantities, summed over a pass by the report.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.layers.entry(key).or_insert(0.0) += value;
    }

    fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The compile span's records: `PipelineStats` stage times and counters.
/// Stage times are sums over the run, not intervals.
fn stage_records(stats: &PipelineStats, wall: Duration) -> Vec<(&'static str, f64)> {
    let t = &stats.times;
    let staged = t.map + t.enumerate + t.probe + t.search + t.dfg + t.route + t.replicate;
    vec![
        ("submap.ms", ms(t.map)),
        ("submap.shapes_tried", stats.sub_shapes_tried as f64),
        ("submap.candidates", stats.sub_candidates as f64),
        ("walk.enumerate_ms", ms(t.enumerate)),
        ("walk.probe_ms", ms(t.probe)),
        ("walk.probe_hits", stats.probe_cache_hits as f64),
        ("walk.probe_misses", stats.probe_cache_misses as f64),
        ("walk.candidates_tried", stats.candidates_tried as f64),
        ("walk.layouts_tried", stats.layouts_tried as f64),
        ("systolic.ms", ms(t.search)),
        ("systolic.matrices_tried", stats.systolic_matrices_tried as f64),
        ("dfg.unroll_ms", ms(t.dfg)),
        // `route` already contains `index`.
        ("index.ms", ms(t.index)),
        ("route.ms", ms(t.route)),
        ("route.attempts", stats.route_attempts as f64),
        ("route.pathfinder_rounds", stats.pathfinder_rounds as f64),
        ("router.searches", stats.router_searches as f64),
        ("router.nodes_popped", stats.router_nodes_popped as f64),
        ("router.heap_pushes", stats.router_heap_pushes as f64),
        ("replicate.ms", ms(t.replicate)),
        ("replicate.rounds", stats.replication_rounds as f64),
        ("core.unattributed_ms", ms(wall) - ms(staged)),
    ]
}

/// Where one point's spans go: its own span under the workload span.
pub struct Scope<'t> {
    pub tracer: &'t mut Tracer,
    pub span: Option<usize>,
    pub id: usize,
    pub pass: usize,
}

impl Scope<'_> {
    fn leaf(
        &mut self,
        name: &'static str,
        started: Instant,
        ended: Instant,
        records: Vec<(&'static str, f64)>,
    ) {
        self.tracer.leaf(name, self.span, Some(self.id), self.pass, started, ended, records);
    }

    /// Records a call that ran from `started` until now; returns its length.
    fn since(&mut self, name: &'static str, started: Instant) -> Duration {
        let ended = Instant::now();
        self.leaf(name, started, ended, vec![]);
        ended - started
    }
}

impl Point {
    /// Compiles the point once, checks the result with the verifier and
    /// the simulator, and, when tracing, times the outside calls.
    pub fn run(&self, seed: u64, scope: &mut Scope) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        let (compiled, stats) = match &self.engine {
            Engine::Map(options) => {
                let (result, stats) =
                    HiMap::new(options.clone()).map_with_stats(&self.kernel, &self.spec);
                (result.map(Produced::Map).map_err(|e| e.to_string()), Some(stats))
            }
            Engine::Tiled(options) => {
                match HiMap::new(options.clone()).map_tiled(&self.kernel, &self.spec) {
                    Ok(tiled) => {
                        let stats = tiled.stats().clone();
                        (Ok(Produced::Tiled(Box::new(tiled))), Some(stats))
                    }
                    Err(e) => (Err(e.to_string()), None),
                }
            }
            Engine::Exact(block) => {
                let budget = CancelToken::until(Instant::now() + ORACLE_BUDGET);
                let result = certify(
                    &self.kernel,
                    &self.spec,
                    block,
                    &ExactOptions::default(),
                    Some(&budget),
                );
                (result.map(Produced::Exact).map_err(|e| e.to_string()), None)
            }
        };
        let compiled = black_box(compiled);
        let ended = Instant::now();
        out.compile = ended - started;
        let records = stats.as_ref().map(|s| stage_records(s, out.compile)).unwrap_or_default();
        for &(key, value) in &records {
            out.add(key, value);
        }
        scope.leaf("compile", started, ended, records);

        let produced = match compiled {
            Ok(produced) => produced,
            Err(why) => {
                out.fail(format!("compile: {why}"));
                return out;
            }
        };
        Self::check(&produced, seed, scope, &mut out);
        Self::summarise(&produced, &mut out);
        if scope.tracer.enabled() {
            self.outside_calls(&produced, scope, &mut out);
        }
        out
    }

    /// The independent checks: verifier, then simulator against the
    /// kernel interpreter. Both count toward `verdict_s`.
    fn check(produced: &Produced, seed: u64, scope: &mut Scope, out: &mut Outcome) {
        let started = Instant::now();
        let (report, key) = match produced {
            Produced::Tiled(tiled) => (verify_tiled(tiled), "verify.tiled_ms"),
            _ => (verify_mapping(produced.primary()), "verify.ms"),
        };
        let took = scope.since("verify", started);
        out.verdict += took;
        out.add(key, ms(took));
        out.add("verify.errors", report.error_count() as f64);
        if report.has_errors() {
            out.fail(format!("verify: {}", report.render_pretty()));
        }

        // Tiled points: simulate each distinct tile mapping (the first
        // stamped tile and every renegotiated one) in fabric coordinates.
        let expanded;
        let to_simulate: Vec<&Mapping> = match produced {
            Produced::Tiled(tiled) => {
                expanded = distinct_tiles(tiled)
                    .into_iter()
                    .filter_map(|(tr, tc)| tiled.expand_tile(tr, tc))
                    .collect::<Vec<_>>();
                expanded.iter().collect()
            }
            _ => vec![produced.primary()],
        };
        for mapping in to_simulate {
            let started = Instant::now();
            let result = simulate(mapping, seed);
            let took = scope.since("simulate", started);
            out.verdict += took;
            out.add("sim.ms", ms(took));
            match result {
                Ok(sim) => {
                    out.add("sim.cycles", sim.cycles as f64);
                    out.add("sim.elements_checked", sim.elements_checked as f64);
                }
                Err(e) => out.fail(format!("simulate: {e}")),
            }
        }
    }

    /// Quality numbers, the repeatability fingerprint and the per-layer
    /// quantities that need no extra call into the program.
    fn summarise(produced: &Produced, out: &mut Outcome) {
        let primary = produced.primary();
        let static_mii =
            analyze_dfg(primary.dfg(), primary.spec(), &AnalyzeOptions::default()).bounds.mii();
        out.ii = primary.stats().iib;
        out.config_slots = primary.stats().max_config_slots;
        out.utilization = primary.utilization();
        out.digest = digest(primary);
        out.certified = out.ii == static_mii;
        let mut certificate = String::from("-");
        match produced {
            Produced::Map(_) => out.add("replicate.mapped", 1.0),
            Produced::Tiled(tiled) => {
                out.add("replicate.mapped", 1.0);
                let seam = tiled.seam();
                out.add("tiled.map_ms", ms(out.compile));
                out.add("tiled.stamped", seam.tiles_stamped as f64);
                out.add("tiled.renegotiated", seam.tiles_renegotiated as f64);
                out.add("tiled.skipped", seam.tiles_skipped as f64);
                out.add("tiled.index_nodes", tiled.memory().nodes as f64);
                out.utilization = tiled.utilization();
                let mut overrides: Vec<_> = tiled.overrides().iter().collect();
                overrides.sort_by_key(|(pos, _)| **pos);
                let mut h = Fnv::new();
                h.u64(out.digest);
                for (&(tr, tc), mapping) in overrides {
                    out.config_slots = out.config_slots.max(mapping.stats().max_config_slots);
                    h.u64(tr as u64);
                    h.u64(tc as u64);
                    h.u64(digest(mapping));
                }
                for &(tr, tc) in tiled.skipped() {
                    h.u64(tr as u64);
                    h.u64(tc as u64);
                }
                out.digest = h.0;
            }
            Produced::Exact(result) => {
                let cert = result.certificate;
                out.ii = cert.ii;
                out.certified = cert.certified;
                out.add("exact.certify_ms", ms(out.compile));
                out.add("exact.lb_gap", (cert.ii - cert.lower_bound.min(cert.ii)) as f64);
                certificate =
                    format!("{}/{}/{}/{}", cert.ii, cert.lower_bound, cert.certified, cert.horizon);
            }
        }
        out.add("analyze.mii_gap", out.ii.saturating_sub(static_mii) as f64);
        out.add("dfg.nodes", primary.dfg().graph().node_count() as f64);
        let counter = |key| out.layers.get(key).copied().unwrap_or(0.0);
        out.fingerprint = format!(
            "ii={} slots={} popped={} attempts={} pathfinder={} replications={} cert={} \
             digest={:016x}",
            out.ii,
            out.config_slots,
            counter("router.nodes_popped"),
            counter("route.attempts"),
            counter("route.pathfinder_rounds"),
            counter("replicate.rounds"),
            certificate,
            out.digest,
        );
    }

    /// Calls into single layers with the winning point's parameters. They
    /// run only in the traced run and only after the compile and checks,
    /// so the untraced end-to-end numbers exclude them.
    fn outside_calls(&self, produced: &Produced, scope: &mut Scope, out: &mut Outcome) {
        let primary = produced.primary();
        // The index build below must be cold, and must not sit next to the
        // cached copy the compile left behind.
        crate::flush_index_cache();

        let started = Instant::now();
        let dfg = black_box(Dfg::build(&self.kernel, primary.dfg().block()));
        out.add("dfg.build_ms", ms(scope.since("dfg_build", started)));
        if let Err(e) = dfg {
            out.fail(format!("Dfg::build: {e}"));
        }

        let started = Instant::now();
        let index = black_box(MrrgIndex::new(primary.spec().clone(), primary.stats().iib));
        out.add("index.build_ms", ms(scope.since("index_build", started)));
        let memory = index.memory_stats();
        drop(index);
        out.add("index.nodes", memory.nodes as f64);
        out.add("index.mib", memory.bytes as f64 / (1024.0 * 1024.0));

        let started = Instant::now();
        let image = black_box(ConfigImage::from_mapping(primary));
        out.add("config.ms", ms(scope.since("config", started)));
        let slots = image.max_unique_instrs();
        out.add("config.slots", slots as f64);
        if slots != primary.stats().max_config_slots {
            out.fail(format!(
                "config: image needs {slots} slots, mapping reports {}",
                primary.stats().max_config_slots
            ));
        }

        let started = Instant::now();
        black_box(analyze_kernel(&self.kernel, &self.spec, &AnalyzeOptions::default()));
        out.add("analyze.ms", ms(scope.since("analyze", started)));

        if let Produced::Exact(result) = produced {
            let cert = result.certificate;
            let started = Instant::now();
            let encoded = black_box(encode(primary.dfg(), &self.spec, cert.ii, cert.horizon));
            out.add("exact.encode_ms", ms(scope.since("encode", started)));
            if let Err(e) = encoded {
                out.fail(format!("encode at the certified II: {e}"));
            }
        }
    }
}

/// Grid positions of the distinct tile mappings: the first stamped tile
/// and every renegotiated one.
fn distinct_tiles(tiled: &TiledMapping) -> Vec<(usize, usize)> {
    let (rows, cols) = tiled.grid();
    let mut stamped = None;
    let mut tiles = Vec::new();
    for tr in 0..rows {
        for tc in 0..cols {
            match tiled.disposition(tr, tc) {
                TileDisposition::Stamped if stamped.is_none() => stamped = Some((tr, tc)),
                TileDisposition::Renegotiated => tiles.push((tr, tc)),
                _ => {}
            }
        }
    }
    tiles.extend(stamped);
    tiles
}

/// FNV-1a, so digests are stable across processes and toolchains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn kind_code(kind: RKind) -> u64 {
    match kind {
        RKind::Fu => 0,
        RKind::Out => 1,
        RKind::Wire(d) => 2 + d.index() as u64,
        RKind::RegWr => 6,
        RKind::RegRd => 7,
        RKind::Mem => 8,
        RKind::Reg(r) => 16 + u64::from(r),
    }
}

/// Digest of a mapping: op slots sorted by node, then routes sorted by
/// edge, through public accessors only.
pub fn digest(mapping: &Mapping) -> u64 {
    let mut h = Fnv::new();
    let mut slots: Vec<_> = mapping.op_slots().iter().collect();
    slots.sort_by_key(|(node, _)| **node);
    for (node, slot) in slots {
        h.u64(node.index() as u64);
        h.u64(u64::from(slot.pe.x));
        h.u64(u64::from(slot.pe.y));
        h.u64(u64::from(slot.cycle_mod));
        h.u64(slot.abs as u64);
    }
    let mut routes: Vec<_> = mapping.routes().iter().collect();
    routes.sort_by_key(|r| r.edge);
    for route in routes {
        h.u64(route.edge.index() as u64);
        h.u64(route.steps.len() as u64);
        for (node, cycle) in &route.steps {
            h.u64(u64::from(node.pe.x));
            h.u64(u64::from(node.pe.y));
            h.u64(u64::from(node.t));
            h.u64(kind_code(node.kind));
            h.u64(*cycle as u64);
        }
    }
    h.0
}

/// Setup warm-up: one small compile, verify and simulate, so code pages
/// and allocator arenas are in place before the first timed call.
pub fn warm_up(seed: u64) -> Result<(), String> {
    let options = HiMapOptions { threads: 1, ..HiMapOptions::default() };
    let mapping =
        HiMap::new(options).map(&suite::gemm(), &CgraSpec::square(4)).map_err(|e| e.to_string())?;
    if verify_mapping(&mapping).has_errors() {
        return Err("warm-up mapping failed verification".into());
    }
    simulate(&mapping, seed).map_err(|e| e.to_string())?;
    Ok(())
}
