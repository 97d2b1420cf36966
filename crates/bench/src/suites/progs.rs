//! Micro-benchmarks for the real-program workload path: assembling the
//! committed benchmark suite, golden-interpreting a kernel, and one
//! suite case end-to-end through the three-way co-simulation plus
//! fault classification — the per-case cost `meek-difftest --suite
//! progs` and `meek-campaign --suite progs` pay.

use criterion::{black_box, Criterion, Throughput};
use meek_difftest::{run_case, CaseConfig};
use meek_progs::{assemble, kernel, run_golden, suite, KERNELS, KERNEL_INST_CAP};

fn bench_assemble(c: &mut Criterion) {
    let mut g = c.benchmark_group("progs");
    g.throughput(Throughput::Elements(KERNELS.len() as u64));
    g.bench_function("assemble_suite", |b| {
        b.iter(|| {
            let mut words = 0usize;
            for k in KERNELS {
                words +=
                    assemble(k.name, black_box(k.source)).expect("kernel assembles").code.len();
            }
            words
        })
    });
    g.finish();
}

fn bench_golden(c: &mut Criterion) {
    let k = kernel("qsort").expect("qsort is committed");
    let wl = suite::workload(k);
    let reference = run_golden(&wl, KERNEL_INST_CAP);
    assert!(reference.exited, "qsort must run to its exit syscall");
    let mut g = c.benchmark_group("progs");
    g.throughput(Throughput::Elements(reference.retired));
    g.bench_function("golden_kernel_qsort", |b| {
        b.iter(|| run_golden(black_box(&wl), KERNEL_INST_CAP).retired)
    });
    g.finish();
}

fn bench_case_rate(c: &mut Criterion) {
    // One representative suite case through the CLIs' own case pipeline
    // (`run_case`) — build the rotation workload, three-way co-simulate,
    // then the default 3-fault classification plan — so the baseline
    // gate locks in the whole per-case cost of a real-program case.
    let cfg = CaseConfig { progs: true, ..CaseConfig::default() };
    let mut g = c.benchmark_group("progs");
    g.throughput(Throughput::Elements(1));
    g.bench_function("progs_cases_per_sec", |b| {
        b.iter(|| {
            let r = run_case(&cfg, black_box(0), 7);
            assert!(r.verdict.divergence.is_none());
            assert!(r.outcomes.iter().all(|(_, outcome, _)| !outcome.is_escape()));
            r.outcomes.len()
        })
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_assemble(c);
    bench_golden(c);
    bench_case_rate(c);
}
