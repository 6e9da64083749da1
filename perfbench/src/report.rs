//! Turns the outcomes of a run's passes into the reported metrics.
//!
//! Each pass compiles every point of the workload once. A timing is the
//! median over passes of the per-pass sum; counts and ratios are computed
//! per pass the same way.

use std::collections::BTreeMap;

use crate::workload::Outcome;

/// One reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The traced run's metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("submap.ms", "ms"),
    ("submap.shapes_tried", "count"),
    ("submap.candidates", "count"),
    ("walk.enumerate_ms", "ms"),
    ("walk.probe_ms", "ms"),
    ("walk.probe_hit_rate", "ratio"),
    ("walk.candidates_tried", "count"),
    ("walk.layouts_tried", "count"),
    ("systolic.ms", "ms"),
    ("systolic.matrices_tried", "count"),
    ("dfg.unroll_ms", "ms"),
    ("dfg.build_ms", "ms"),
    ("dfg.nodes", "count"),
    ("index.ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.nodes", "count"),
    ("index.mib", "MiB"),
    ("route.ms", "ms"),
    ("route.attempts", "count"),
    ("route.pathfinder_rounds", "count"),
    ("router.searches", "count"),
    ("router.nodes_popped", "count"),
    ("router.heap_pushes", "count"),
    ("route.us_per_pop", "us"),
    ("replicate.ms", "ms"),
    ("replicate.rounds", "count"),
    ("replicate.useful_ratio", "ratio"),
    ("core.unattributed_ms", "ms"),
    ("config.ms", "ms"),
    ("config.slots", "count"),
    ("tiled.map_ms", "ms"),
    ("tiled.stamped", "count"),
    ("tiled.renegotiated", "count"),
    ("tiled.skipped", "count"),
    ("tiled.index_nodes", "count"),
    ("verify.ms", "ms"),
    ("verify.tiled_ms", "ms"),
    ("verify.errors", "count"),
    ("sim.ms", "ms"),
    ("sim.cycles", "cycles"),
    ("sim.elements_checked", "count"),
    ("analyze.ms", "ms"),
    ("analyze.mii_gap", "cycles"),
    ("exact.certify_ms", "ms"),
    ("exact.encode_ms", "ms"),
    ("exact.lb_gap", "cycles"),
    ("trace.compile_s", "s"),
    ("digest.golden_mismatches", "count"),
];

/// A JSON number: finite values as Rust prints them (no exponent).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn median_of(passes: &[Vec<Outcome>], per_pass: impl Fn(&[Outcome]) -> f64) -> f64 {
    let mut values: Vec<f64> = passes.iter().map(|p| per_pass(p)).collect();
    median(&mut values)
}

fn ratio(num: f64, den: f64, empty: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        empty
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(passes: &[Vec<Outcome>], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let all = || passes.iter().flatten();
    let attempted = all().count() as f64;
    let ok = all().filter(|o| o.failure.is_none()).count() as f64;
    let produced: Vec<f64> = all().filter(|o| o.ii > 0).map(|o| o.utilization).collect();
    let certified = all().filter(|o| o.certified).count() as f64;
    vec![
        ("setup_s", "s", setup_s),
        ("compile_s", "s", median_of(passes, |p| p.iter().map(|o| o.compile.as_secs_f64()).sum())),
        ("verdict_s", "s", median_of(passes, |p| p.iter().map(|o| o.verdict.as_secs_f64()).sum())),
        ("peak_rss_mb", "MiB", peak_rss_mb),
        ("ok_frac", "ratio", ratio(ok, attempted, 0.0)),
        ("utilization", "ratio", ratio(produced.iter().sum(), produced.len() as f64, 0.0)),
        ("ii_sum", "cycles", median_of(passes, |p| p.iter().map(|o| o.ii as f64).sum())),
        (
            "config_slots",
            "instrs",
            median_of(passes, |p| p.iter().map(|o| o.config_slots as f64).sum()),
        ),
        ("certified_frac", "ratio", ratio(certified, attempted, 0.0)),
    ]
}

/// One pass's per-layer metrics: additive quantities summed over its
/// points, then the ratios derived from those sums.
fn layer_pass(pass: &[Outcome], golden_mismatches: f64) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for outcome in pass {
        for (&key, &value) in &outcome.layers {
            *sums.entry(key).or_insert(0.0) += value;
        }
    }
    let get = |key: &str| sums.get(key).copied().unwrap_or(0.0);
    let derived = [
        (
            "walk.probe_hit_rate",
            ratio(get("walk.probe_hits"), get("walk.probe_hits") + get("walk.probe_misses"), 1.0),
        ),
        ("route.us_per_pop", ratio(get("route.ms") * 1e3, get("router.nodes_popped"), 0.0)),
        ("replicate.useful_ratio", ratio(get("replicate.mapped"), get("replicate.rounds"), 0.0)),
        ("trace.compile_s", pass.iter().map(|o| o.compile.as_secs_f64()).sum()),
        ("digest.golden_mismatches", golden_mismatches),
    ];
    sums.extend(derived);
    sums
}

/// The per-layer metrics of a traced run: per-pass values, median over
/// passes. `golden_mismatches[p]` is pass `p`'s digest mismatch count.
pub fn per_layer(passes: &[Vec<Outcome>], golden_mismatches: &[f64]) -> Vec<Metric> {
    let per_pass: Vec<_> =
        passes.iter().zip(golden_mismatches).map(|(p, &g)| layer_pass(p, g)).collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let mut values: Vec<f64> =
                per_pass.iter().map(|m| m.get(name).copied().unwrap_or(0.0)).collect();
            (name, unit, median(&mut values))
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
