//! HiMap benchmark: one closed-loop client compiling one point at a time.
//!
//! ```text
//! himap-perfbench --workload <fig8_paper|small_blocks|exact_oracle>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Sets the workload up (median of several set-ups is `setup_s`), then
//! compiles every point of the workload in passes until the next pass
//! would overrun `--seconds`. Every produced mapping is checked by the
//! verifier and by the simulator against the kernel interpreter, on
//! inputs drawn from `--seed`. The last stdout line is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans, per-point records and
//! mapping digests to `.perfbench/trace-<workload>.json`. The process
//! exits 1 when any output check fails. See `perfbench/README.md`.

mod report;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use himap_cgra::{CgraSpec, MrrgIndex};

use report::{num, Metric};
use trace::Tracer;
use workload::{Outcome, Point, Scope, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Where traced runs keep their output, relative to the working directory.
const OUT_DIR: &str = ".perfbench";
/// Mapping digests at the commit that introduced the benchmark, one
/// `<point> <hex digest>` per line.
const GOLDEN: &str = include_str!("../golden.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("whole seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Evicts every `MrrgIndex::shared` entry (an LRU of 32) by filling the
/// cache with tiny 1x1 indexes, so the next point builds its index cold,
/// as a fresh `himap map` process does.
pub fn flush_index_cache() {
    for ii in 1..=64 {
        drop(MrrgIndex::shared(CgraSpec::square(1), ii));
    }
}

/// VmHWM of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a of this executable, so records of earlier runs are compared
/// only when they came from the same build.
fn exe_hash() -> String {
    let bytes = std::env::current_exe().and_then(fs::read).unwrap_or_default();
    let hash = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    format!("{hash:016x}")
}

/// Reads `.perfbench/<name>` when its first line is `exe <this build>`.
fn read_record(name: &str, exe: &str) -> Option<String> {
    let text = fs::read_to_string(format!("{OUT_DIR}/{name}")).ok()?;
    let (head, body) = text.split_once('\n')?;
    (head == format!("exe {exe}")).then(|| body.to_string())
}

fn write_record(name: &str, exe: &str, body: &str) {
    let written = fs::create_dir_all(OUT_DIR)
        .and_then(|()| fs::write(format!("{OUT_DIR}/{name}"), format!("exe {exe}\n{body}")));
    if let Err(e) = written {
        eprintln!("warning: cannot write {OUT_DIR}/{name}: {e}");
    }
}

/// Exact counters, certificates and digests must repeat between passes
/// of this run and, for traced runs, against the previous traced run of
/// the same build. Returns one message per mismatch.
fn repeatability(args: &Args, points: &[Point], passes: &[Vec<Outcome>], exe: &str) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for (point, (now, first)) in points.iter().zip(pass.iter().zip(&passes[0])) {
            if now.fingerprint != first.fingerprint {
                mismatches.push(format!(
                    "{} pass {p}: {} != pass 0: {}",
                    point.name, now.fingerprint, first.fingerprint
                ));
            }
        }
    }
    if !args.trace {
        return mismatches;
    }
    let name = format!("repeat-{}.txt", args.workload.name());
    let current: String = points
        .iter()
        .zip(&passes[0])
        .map(|(point, o)| format!("{}\t{}\n", point.name, o.fingerprint))
        .collect();
    if let Some(previous) = read_record(&name, exe) {
        for (now, before) in current.lines().zip(previous.lines()) {
            if now != before {
                mismatches.push(format!("previous traced run: {before}; this run: {now}"));
            }
        }
    }
    write_record(&name, exe, &current);
    mismatches
}

/// Per pass, the points whose digest differs from (or is missing in) the
/// committed golden list.
fn golden_mismatches(points: &[Point], passes: &[Vec<Outcome>]) -> Vec<f64> {
    let golden: Vec<(&str, &str)> =
        GOLDEN.lines().filter_map(|l| l.split_once(' ')).map(|(n, d)| (n, d.trim())).collect();
    passes
        .iter()
        .map(|pass| {
            points
                .iter()
                .zip(pass)
                .filter(|(point, o)| {
                    let digest = format!("{:016x}", o.digest);
                    !golden.iter().any(|&(n, d)| n == point.name && d == digest)
                })
                .count() as f64
        })
        .collect()
}

/// `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_trace(
    args: &Args,
    points: &[Point],
    passes: &[Vec<Outcome>],
    metrics: &[Metric],
    tracer: &Tracer,
    exe: &str,
) {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"passes\":{},\"exe\":\"{exe}\",",
        args.workload.name(),
        args.seed,
        passes.len()
    );
    let traced = metrics.iter().find(|m| m.0 == "trace.compile_s").map_or(0.0, |m| m.2);
    let untraced = read_record(&format!("e2e-{}.txt", args.workload.name()), exe)
        .and_then(|body| body.trim().strip_prefix("compile_s ")?.parse::<f64>().ok());
    if let Some(untraced) = untraced {
        let _ = write!(
            out,
            "\"untraced_compile_s\":{},\"tracing_overhead_s\":{},",
            num(untraced),
            num(traced - untraced)
        );
    }
    out.push_str("\"per_layer\":{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*value));
    }
    out.push_str("},\"points\":[");
    for (p, pass) in passes.iter().enumerate() {
        for (id, (point, o)) in points.iter().zip(pass).enumerate() {
            let sep = if p + id > 0 { "," } else { "" };
            let failure = o.failure.as_deref().map_or("null".into(), json_string);
            let _ = write!(
                out,
                "{sep}\n {{\"id\":{id},\"name\":\"{}\",\"pass\":{p},\"compile_ms\":{},\
                 \"verdict_ms\":{},\"failure\":{failure},\"ii\":{},\"certified\":{},\
                 \"digest\":\"{:016x}\",\"fingerprint\":\"{}\",\"layers\":{{",
                point.name,
                num(o.compile.as_secs_f64() * 1e3),
                num(o.verdict.as_secs_f64() * 1e3),
                o.ii,
                o.certified,
                o.digest,
                o.fingerprint
            );
            for (i, (key, value)) in o.layers.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{key}\":{}", num(*value));
            }
            out.push_str("}}");
        }
    }
    let _ = write!(out, "\n],\"spans\":{}}}\n", tracer.to_json());
    let path = format!("{OUT_DIR}/trace-{}.json", args.workload.name());
    if let Err(e) = fs::create_dir_all(OUT_DIR).and_then(|()| fs::write(&path, out)) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: himap-perfbench --workload <fig8_paper|small_blocks|exact_oracle> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };

    // Set-up: build the points and warm up, several times.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut points = Vec::new();
    for rep in 0..SETUP_REPS {
        let started = if rep == 0 { process_start } else { Instant::now() };
        points = args.workload.points();
        if let Err(e) = workload::warm_up(args.seed) {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
        flush_index_cache();
        setups.push(started.elapsed().as_secs_f64());
    }
    let setup_s = report::median(&mut setups);

    // Closed loop: one pass compiles every point once, each from a cold
    // index cache; passes repeat while the next one fits the budget.
    let mut tracer = Tracer::new(args.trace);
    let workload_span = tracer.open(args.workload.name(), None, None, 0);
    let budget = Duration::from_secs(args.seconds);
    let measuring = Instant::now();
    let mut passes: Vec<Vec<Outcome>> = Vec::new();
    loop {
        let pass = passes.len();
        let mut outcomes = Vec::with_capacity(points.len());
        for (id, point) in points.iter().enumerate() {
            flush_index_cache();
            let span = tracer.open("point", workload_span, Some(id), pass);
            let mut scope = Scope { tracer: &mut tracer, span, id, pass };
            let outcome = point.run(args.seed, &mut scope);
            tracer.close(span);
            if let Some(why) = &outcome.failure {
                eprintln!("FAILED {} (pass {pass}): {why}", point.name);
            }
            outcomes.push(outcome);
        }
        passes.push(outcomes);
        let elapsed = measuring.elapsed();
        if elapsed + elapsed / passes.len() as u32 > budget {
            break;
        }
    }
    tracer.close(workload_span);
    let Some(peak_rss_mb) = peak_rss_mib() else {
        eprintln!("cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };

    let exe = exe_hash();
    let mismatches = repeatability(&args, &points, &passes, &exe);
    for m in &mismatches {
        eprintln!("NOT REPEATABLE {m}");
    }
    let attempted = passes.iter().map(Vec::len).sum::<usize>();
    let failed = passes.iter().flatten().filter(|o| o.failure.is_some()).count();
    let correct = failed == 0 && mismatches.is_empty();

    let metrics = if args.trace {
        let golden = golden_mismatches(&points, &passes);
        let metrics = report::per_layer(&passes, &golden);
        write_trace(&args, &points, &passes, &metrics, &tracer, &exe);
        for (point, o) in points.iter().zip(&passes[0]) {
            eprintln!("digest {} {:016x}", point.name, o.digest);
        }
        metrics
    } else {
        let metrics = report::end_to_end(&passes, setup_s, peak_rss_mb);
        let compile_s = metrics.iter().find(|m| m.0 == "compile_s").map_or(0.0, |m| m.2);
        write_record(
            &format!("e2e-{}.txt", args.workload.name()),
            &exe,
            &format!("compile_s {}\n", num(compile_s)),
        );
        metrics
    };

    println!(
        "# {} — {} points x {} passes, seed {}, trace {}",
        args.workload.name(),
        points.len(),
        passes.len(),
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit, value) in &metrics {
        println!("{name:<26} {:>16} {unit}", num(*value));
    }
    println!("{}", report::result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
