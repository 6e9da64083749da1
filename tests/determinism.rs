//! Parallel-walk determinism: for every kernel in the suite, on 4x4 and
//! 8x8 CGRAs, the candidate walk must pick the *same* winning mapping at
//! every thread count. The parallel walk may differ in wall time and in the
//! non-deterministic `pipeline` instrumentation, but never in mapping
//! quality — `HiMapOptions::threads` is a pure performance knob.
//!
//! The `#[ignore]`d tests here are wall-time gates (run by the CI
//! `--ignored` stage): the parallel walk is never slower than sequential,
//! a paper-scale map honours its deadline, and checking a paper-scale
//! mapping costs less than producing it.

use himap_repro::cgra::CgraSpec;
use himap_repro::core::{HiMap, HiMapError, HiMapOptions, Mapping};
use himap_repro::kernels::{suite, Kernel};

/// The deterministic fingerprint of a mapping outcome: every quality field
/// of `MappingStats` plus the derived utilization. Excludes `pipeline`
/// (wall times; parallel walks may try extra candidates past the winner).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    sub_shape: (usize, usize, usize),
    block: Vec<usize>,
    unique_iterations: usize,
    iterations_per_spe: usize,
    iib: usize,
    max_config_slots: usize,
    utilization_bits: u64,
}

fn fingerprint(result: &Result<Mapping, HiMapError>) -> Result<Fingerprint, HiMapError> {
    result.as_ref().map_err(Clone::clone).map(|m| {
        let s = m.stats();
        Fingerprint {
            sub_shape: s.sub_shape,
            block: s.block.clone(),
            unique_iterations: s.unique_iterations,
            iterations_per_spe: s.iterations_per_spe,
            iib: s.iib,
            max_config_slots: s.max_config_slots,
            utilization_bits: m.utilization().to_bits(),
        }
    })
}

/// Maps with a forced parallel scheduler: `oversubscribe` lifts the
/// machine-core clamp and `parallel_threshold: 1` disables the sequential
/// fallback, so `threads > 1` genuinely exercises the work-queue workers
/// even on a single-core CI box (where the production clamp would otherwise
/// — correctly — run everything sequentially).
fn map_with(kernel: &Kernel, cgra: &CgraSpec, threads: usize) -> Result<Mapping, HiMapError> {
    let options = HiMapOptions {
        threads,
        oversubscribe: true,
        parallel_threshold: 1,
        ..HiMapOptions::default()
    };
    HiMap::new(options).map(kernel, cgra)
}

fn assert_thread_invariant(cgra_size: usize) {
    let cgra = CgraSpec::square(cgra_size);
    for kernel in suite::all() {
        let sequential = fingerprint(&map_with(&kernel, &cgra, 1));
        for threads in [2, 8] {
            let parallel = fingerprint(&map_with(&kernel, &cgra, threads));
            assert_eq!(
                sequential,
                parallel,
                "{} on {c}x{c} with {threads} threads diverged from sequential",
                kernel.name(),
                c = cgra_size,
            );
        }
    }
}

#[test]
fn all_kernels_thread_invariant_on_4x4() {
    assert_thread_invariant(4);
}

#[test]
fn all_kernels_thread_invariant_on_8x8() {
    assert_thread_invariant(8);
}

#[test]
fn threads_zero_resolves_to_available_parallelism() {
    let options = HiMapOptions { threads: 0, ..HiMapOptions::default() };
    assert!(options.effective_threads() >= 1);
    // And the resolved count still maps identically.
    let cgra = CgraSpec::square(4);
    let auto = fingerprint(&HiMap::new(options).map(&suite::gemm(), &cgra));
    let seq = fingerprint(&map_with(&suite::gemm(), &cgra, 1));
    assert_eq!(seq, auto);
}

/// Median-of-3 wall time of mapping `kernel` with production options at the
/// given thread count.
fn median_wall(kernel: &Kernel, cgra: &CgraSpec, threads: usize) -> std::time::Duration {
    let options = HiMapOptions { threads, ..HiMapOptions::default() };
    let himap = HiMap::new(options);
    let mut samples: Vec<std::time::Duration> = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            himap.map(kernel, cgra).expect("kernel maps");
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[1]
}

/// Serializes the wall-time tests: run side by side they would time each
/// other's CPU contention instead of the mapper.
static WALL_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
#[ignore = "wall-time sensitive; run in the CI bench stage (cargo test -- --ignored)"]
fn four_threads_not_slower_than_sequential_on_gemm_8x8() {
    let _serial = WALL_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    // The scheduler's core promise under *production* options (machine
    // clamp and sequential fallback active): asking for 4 threads is never
    // slower than sequential, and the winner is bit-identical. Medians of 3
    // with a warmup pass, 15 % relative + 2 ms absolute noise allowance.
    let cgra = CgraSpec::square(8);
    let kernel = suite::gemm();
    let seq_fp = fingerprint(&HiMap::new(HiMapOptions::default()).map(&kernel, &cgra));
    let par_fp = fingerprint(
        &HiMap::new(HiMapOptions { threads: 4, ..HiMapOptions::default() }).map(&kernel, &cgra),
    );
    assert_eq!(seq_fp, par_fp, "4-thread winner diverged from sequential");
    let _warm = median_wall(&kernel, &cgra, 1); // prime the MrrgIndex cache
    let seq = median_wall(&kernel, &cgra, 1);
    let par = median_wall(&kernel, &cgra, 4);
    let limit = seq.mul_f64(1.15) + std::time::Duration::from_millis(2);
    assert!(
        par <= limit,
        "4-thread walk regressed: {:.1} ms vs sequential {:.1} ms (limit {:.1} ms)",
        par.as_secs_f64() * 1e3,
        seq.as_secs_f64() * 1e3,
        limit.as_secs_f64() * 1e3,
    );
}

#[test]
#[ignore = "wall-time sensitive; run in the CI bench stage (cargo test -- --ignored)"]
fn deadline_holds_through_replication_on_gemm_32x32() {
    // Paper-scale block (b = c = 32): replication stamps ~131k routes per
    // round, so the deadline only holds if replication polls the walk's
    // cancel token. The map must give up with `DeadlineExceeded` within
    // twice its 250 ms budget.
    let _serial = WALL_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let deadline = std::time::Duration::from_millis(250);
    let options = HiMapOptions {
        threads: 1,
        free_extents: vec![32],
        deadline: Some(deadline),
        ..HiMapOptions::default()
    };
    let start = std::time::Instant::now();
    let result = HiMap::new(options).map(&suite::gemm(), &CgraSpec::square(32));
    let elapsed = start.elapsed();
    assert!(
        matches!(result, Err(HiMapError::DeadlineExceeded(_))),
        "expected DeadlineExceeded, got {:?}",
        result.map(|m| m.stats().iib)
    );
    assert!(
        elapsed <= deadline * 2,
        "deadline overshot: returned after {:.1} ms (limit {:.1} ms)",
        elapsed.as_secs_f64() * 1e3,
        (deadline * 2).as_secs_f64() * 1e3,
    );
}

#[test]
#[ignore = "wall-time sensitive; run in the CI bench stage (cargo test -- --ignored)"]
fn checking_a_paper_scale_mapping_is_cheaper_than_producing_it() {
    // Paper-scale block (b = c = 32, 131,072 routes): the verifier and the
    // simulator each cost one pass over the routes' steps plus a sort, so
    // checking the mapping must take less time than the `map` call that
    // produced it.
    let _serial = WALL_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let options = HiMapOptions { threads: 1, free_extents: vec![32], ..HiMapOptions::default() };
    let start = std::time::Instant::now();
    let mapping = HiMap::new(options).map(&suite::gemm(), &CgraSpec::square(32)).expect("maps");
    let map_time = start.elapsed();
    let start = std::time::Instant::now();
    let report = himap_repro::verify::verify_mapping(&mapping);
    let simulated = himap_repro::sim::simulate(&mapping, 1);
    let check_time = start.elapsed();
    assert!(!report.has_errors(), "{}", report.render_pretty());
    assert!(simulated.is_ok(), "{simulated:?}");
    assert!(
        check_time < map_time,
        "verify + simulate took {:.1} ms, the map call {:.1} ms",
        check_time.as_secs_f64() * 1e3,
        map_time.as_secs_f64() * 1e3,
    );
}

#[test]
fn parallel_failures_match_sequential_errors() {
    // A kernel that cannot map must fail with the same error regardless of
    // thread count (the "furthest stage" semantics survive the parallel
    // walk). GEMM on 1x1 has no room for its three ops per iteration.
    let cgra = CgraSpec::square(1);
    let seq = map_with(&suite::gemm(), &cgra, 1).map(|_| ()).unwrap_err();
    for threads in [2, 8] {
        let par = map_with(&suite::gemm(), &cgra, threads).map(|_| ()).unwrap_err();
        assert_eq!(seq, par, "error diverged at {threads} threads");
    }
}
