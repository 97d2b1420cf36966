//! Ablation: LSL capacity and segment instruction-timeout sweeps
//! (design choices called out in DESIGN.md §7).
//!
//! The LSL bounds the segment size ("RCP when the targeted LSL is
//! full"), trading checkpoint frequency (forwarding load, handoff
//! overhead) against detection latency and little-core load balance.

use meek_bench::{banner, sim_insts, write_csv};
use meek_core::{run_vanilla, MeekConfig, Sim};
use meek_littlecore::{LittleCoreConfig, LslConfig};
use meek_workloads::{parsec3, Workload};

fn main() {
    let insts = sim_insts();
    banner(
        "Ablation — LSL capacity and segment timeout (streamcluster, 4 cores)",
        &format!("{insts} dynamic instructions per point"),
    );
    let p = parsec3().into_iter().find(|p| p.name == "streamcluster").expect("profile");
    let wl = Workload::build(&p, 0xAB1);
    let vanilla = run_vanilla(&MeekConfig::default().big, &wl, insts);
    let mut rows = Vec::new();

    println!("\nLSL run-time capacity sweep (records):");
    println!("{:>8} {:>10} {:>8} {:>10}", "records", "slowdown", "RCPs", "seg(inst)");
    for capacity in [48usize, 96, 192, 384, 768] {
        let little = LittleCoreConfig {
            lsl: LslConfig { runtime_capacity: capacity, ..LslConfig::default() },
            ..LittleCoreConfig::optimized()
        };
        // The record budget follows the swept LSL capacity.
        let cfg =
            MeekConfig { little, seg_record_budget: capacity as u64, ..MeekConfig::default() };
        let r =
            Sim::builder(&wl, insts).config(cfg).build().expect("valid sweep point").run().report;
        let seg_len = r.committed / r.rcps.max(1);
        println!("{capacity:>8} {:>10.3} {:>8} {:>10}", r.slowdown_vs(vanilla), r.rcps, seg_len);
        rows.push(format!("lsl,{capacity},{:.4},{},{seg_len}", r.slowdown_vs(vanilla), r.rcps));
    }

    println!("\nSegment instruction-timeout sweep (LSL fixed at 192 records):");
    println!("{:>8} {:>10} {:>8}", "timeout", "slowdown", "RCPs");
    for timeout in [500u64, 1_000, 2_500, 5_000, 10_000] {
        let r = Sim::builder(&wl, insts)
            .config(MeekConfig { seg_timeout: timeout, ..MeekConfig::default() })
            .build()
            .expect("valid sweep point")
            .run()
            .report;
        println!("{timeout:>8} {:>10.3} {:>8}", r.slowdown_vs(vanilla), r.rcps);
        rows.push(format!("timeout,{timeout},{:.4},{},", r.slowdown_vs(vanilla), r.rcps));
    }
    println!(
        "\nThe paper's point: 4 KB (192 records) with a 5000-instruction\n\
         timeout balances forwarding load against detection latency."
    );
    write_csv("ablation_lsl.csv", "sweep,value,slowdown,rcps,seg_len", &rows);
}
