//! Benchmarks of the two core timing models and of building a whole
//! MEEK system: how many simulated instructions per second each model
//! sustains, and the fixed cost every short run pays before its first
//! tick.

use criterion::{black_box, Criterion, Throughput};
use meek_bigcore::{BigCore, BigCoreConfig, NullHook, Tage, TageConfig};
use meek_core::Sim;
use meek_difftest::{fuzz_program, golden_run, FuzzConfig};
use meek_workloads::{parsec3, Workload};

fn bench_bigcore(c: &mut Criterion) {
    let wl = Workload::build(&parsec3()[0], 1);
    const N: u64 = 20_000;
    let mut g = c.benchmark_group("cores");
    g.throughput(Throughput::Elements(N));
    g.bench_function("bigcore_sim_20k_insts", |b| {
        b.iter(|| {
            let mut big = BigCore::new(BigCoreConfig::sonic_boom());
            big.prewarm_icache(wl.entry(), 4 * wl.static_len as u64);
            let mut run = wl.run(N);
            let mut hook = NullHook;
            let mut now = 0u64;
            while !big.is_drained() {
                let mut o = || run.next_retired();
                big.tick(now, &mut o, &mut hook);
                now += 1;
            }
            now
        })
    });
    g.finish();
}

fn bench_tage(c: &mut Criterion) {
    let mut g = c.benchmark_group("cores");
    const N: u64 = 100_000;
    g.throughput(Throughput::Elements(N));
    g.bench_function("tage_predict_update", |b| {
        b.iter(|| {
            let mut t = Tage::new(TageConfig::default());
            let mut x = 0x1234_5678u64;
            for i in 0..N {
                let pc = 0x1000 + (i % 257) * 4;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let taken = x & 3 != 0;
                let p = t.predict(pc);
                t.update(pc, taken, p);
            }
            t.mispredicts
        })
    });
    g.finish();
}

fn bench_system_build(c: &mut Criterion) {
    // Build a full MEEK system for a fuzzed difftest case and drop it
    // without running: the set-up every classified fault pays.
    let prog = fuzz_program(1, &FuzzConfig::default());
    let wl = prog.workload();
    let insts = golden_run(&prog).expect("clean").trace.len() as u64;
    let mut g = c.benchmark_group("cores");
    g.throughput(Throughput::Elements(1));
    g.bench_function("meek_system_build_drop", |b| {
        b.iter(|| drop(black_box(Sim::builder(&wl, insts).build_unobserved().expect("valid"))))
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_bigcore(c);
    bench_tage(c);
    bench_system_build(c);
}
