//! Micro-benchmarks for the difftest pipeline: program fuzzing rate,
//! golden-interpreter throughput on fuzzed code, and the full three-way
//! co-simulation — the numbers that bound how many cases a CI budget
//! buys.

use criterion::{black_box, Criterion, Throughput};
use meek_difftest::{
    cosim, fuzz_program, golden_run, run_case, CaseConfig, CosimConfig, FuzzConfig,
};

fn bench_fuzz(c: &mut Criterion) {
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(1));
    let mut seed = 0u64;
    g.bench_function("fuzz_program", |b| {
        b.iter(|| {
            seed += 1;
            black_box(fuzz_program(seed, &FuzzConfig::default())).words.len()
        })
    });
    g.finish();
}

fn bench_golden(c: &mut Criterion) {
    let prog = fuzz_program(1, &FuzzConfig::default());
    let n = golden_run(&prog).expect("clean").trace.len() as u64;
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(n));
    g.bench_function("golden_run", |b| {
        b.iter(|| golden_run(black_box(&prog)).expect("clean").trace.len())
    });
    g.finish();
}

fn bench_cosim(c: &mut Criterion) {
    let prog = fuzz_program(2, &FuzzConfig::default());
    let n = golden_run(&prog).expect("clean").trace.len() as u64;
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(n));
    g.bench_function("three_way_cosim", |b| {
        b.iter(|| {
            let v = cosim::run(black_box(&prog), &CosimConfig::default());
            assert!(v.divergence.is_none());
            v.executed
        })
    });
    g.finish();
}

fn bench_case_rate(c: &mut Criterion) {
    // One representative case through the CLI's own case pipeline
    // (`run_case`) — fuzz, three-way co-simulation, then the default 3-fault
    // classification plan — so the baseline gate locks in the whole
    // per-case cost (`meek-difftest` cases/sec), not just the co-sim.
    let mut g = c.benchmark_group("difftest");
    g.throughput(Throughput::Elements(1));
    g.bench_function("difftest_cases_per_sec", |b| {
        b.iter(|| {
            let r = run_case(&CaseConfig::default(), 0, black_box(7));
            assert!(r.verdict.divergence.is_none());
            assert!(r.outcomes.iter().all(|(_, outcome, _)| !outcome.is_escape()));
            r.outcomes.len()
        })
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_fuzz(c);
    bench_golden(c);
    bench_cosim(c);
    bench_case_rate(c);
}
