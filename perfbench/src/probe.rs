//! The layer probe: splits the layers nested inside `Sim::run`, which no
//! span around a library call can separate.
//!
//! Each probe input runs fault-free twice: on the vanilla big core
//! (`meek_core::run_vanilla`) and on the full MEEK system. Host time per
//! simulated cycle of the two gives the share of a MEEK tick spent
//! outside the big core (littlecores, fabric, DEU, injector). The MEEK
//! run's report gives the sim-domain counts that explain the simulated
//! slowdown.

use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{ProbeInput, LITTLE_CORES};
use meek_core::{run_vanilla, MeekConfig, Sim};
use std::time::Instant;

/// Probe totals over all inputs. Cycle counts overlap (a cycle can be
/// both a ROB-full and a fabric-blocked cycle), so they are never summed
/// with each other.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTotals {
    /// Programs probed.
    pub inputs: u64,
    /// Host nanoseconds of the vanilla runs.
    pub vanilla_host_ns: u64,
    /// Simulated cycles of the vanilla runs.
    pub vanilla_cycles: u64,
    /// Host nanoseconds of the MEEK runs.
    pub meek_host_ns: u64,
    /// Simulated cycles of the MEEK runs, to full drain.
    pub meek_cycles: u64,
    /// Simulated cycles until the application finished committing.
    pub app_cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Commit cycles cut short by DC-Buffer admission.
    pub stall_collect: u64,
    /// Commit cycles cut short by fabric congestion.
    pub stall_forward: u64,
    /// Commit cycles cut short waiting for little cores.
    pub stall_little: u64,
    /// Fetch cycles blocked by a full ROB.
    pub rob_full: u64,
    /// Fetch cycles blocked by a full issue queue.
    pub iq_full: u64,
    /// Sum of ROB occupancy over cycles.
    pub rob_occupancy_sum: u64,
    /// Direction plus target mispredicts.
    pub mispredicts: u64,
    /// Packets accepted into DC-Buffers.
    pub fabric_pushed: u64,
    /// Cycles a head packet could not move.
    pub fabric_blocked: u64,
    /// Cycles at least one transaction moved.
    pub fabric_busy: u64,
    /// Little-core cycles spent replaying (little clock domain).
    pub little_busy: u64,
    /// Little-core cycles spent waiting for LSL data.
    pub little_wait_data: u64,
    /// Instructions the little cores replayed.
    pub replayed_insts: u64,
    /// Little-core cycles available: cores times little-domain cycles.
    pub little_capacity: u64,
}

impl ProbeTotals {
    /// Digest of the sim-domain counts (host times excluded).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for v in [
            self.inputs,
            self.vanilla_cycles,
            self.meek_cycles,
            self.app_cycles,
            self.committed,
            self.stall_collect,
            self.stall_forward,
            self.stall_little,
            self.rob_full,
            self.iq_full,
            self.rob_occupancy_sum,
            self.mispredicts,
            self.fabric_pushed,
            self.fabric_blocked,
            self.fabric_busy,
            self.little_busy,
            self.little_wait_data,
            self.replayed_insts,
            self.little_capacity,
        ] {
            d.u64(v);
        }
        d.value()
    }

    /// The probe's per-layer metrics, by name, with their units.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let vanilla = ratio(self.vanilla_host_ns, self.vanilla_cycles);
        let meek = ratio(self.meek_host_ns, self.meek_cycles);
        vec![
            ("bigcore.vanilla_ns_per_cycle", vanilla, "ns/cycle"),
            ("core.meek_ns_per_cycle", meek, "ns/cycle"),
            ("core.checking_share", if meek > 0.0 { 1.0 - vanilla / meek } else { 0.0 }, "frac"),
            (
                "core.sim_slowdown_pct",
                100.0 * (ratio(self.app_cycles, self.vanilla_cycles) - 1.0),
                "%",
            ),
            ("bigcore.ipc_vanilla", ratio(self.committed, self.vanilla_cycles), "insts/cycle"),
            ("bigcore.stall_collect_cycles", self.stall_collect as f64, "cycles"),
            ("bigcore.stall_forward_cycles", self.stall_forward as f64, "cycles"),
            ("bigcore.stall_little_cycles", self.stall_little as f64, "cycles"),
            ("bigcore.rob_full_cycles", self.rob_full as f64, "cycles"),
            ("bigcore.iq_full_cycles", self.iq_full as f64, "cycles"),
            (
                "bigcore.mean_rob_occupancy",
                ratio(self.rob_occupancy_sum, self.meek_cycles),
                "entries",
            ),
            ("bigcore.mispredicts", self.mispredicts as f64, "count"),
            ("fabric.pushed", self.fabric_pushed as f64, "count"),
            ("fabric.blocked_cycles", self.fabric_blocked as f64, "cycles"),
            ("fabric.busy_cycles", self.fabric_busy as f64, "cycles"),
            ("littlecore.busy_frac", ratio(self.little_busy, self.little_capacity), "frac"),
            ("littlecore.wait_data_cycles", self.little_wait_data as f64, "cycles"),
            ("littlecore.replayed_insts", self.replayed_insts as f64, "count"),
        ]
    }
}

/// Runs every input fault-free on the vanilla core and on MEEK.
pub fn run(inputs: &[ProbeInput], tr: &mut Tracer) -> ProbeTotals {
    let cfg = MeekConfig::with_little_cores(LITTLE_CORES);
    let mut t = ProbeTotals::default();
    for input in inputs {
        let wl = &*input.workload;
        let started = Instant::now();
        let vanilla = tr.scope("probe.vanilla_ms", |_| run_vanilla(&cfg.big, wl, input.insts));
        t.vanilla_host_ns += started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let report = tr.scope("probe.meek_ms", |_| {
            Sim::builder(wl, input.insts)
                .config(cfg.clone())
                .build_unobserved()
                .expect("the probe configuration is valid")
                .run()
                .report
        });
        t.meek_host_ns += started.elapsed().as_nanos() as u64;
        t.inputs += 1;
        t.vanilla_cycles += vanilla;
        t.meek_cycles += report.cycles;
        t.app_cycles += report.app_cycles;
        t.committed += report.committed;
        let big = &report.big;
        t.stall_collect += big.stall_collect;
        t.stall_forward += big.stall_forward;
        t.stall_little += big.stall_little;
        t.rob_full += big.rob_full_cycles;
        t.iq_full += big.iq_full_cycles;
        t.rob_occupancy_sum += big.occupancy_sum;
        t.mispredicts += big.direction_mispredicts + big.target_mispredicts;
        t.fabric_pushed += report.fabric.pushed;
        t.fabric_blocked += report.fabric.blocked_cycles;
        t.fabric_busy += report.fabric.busy_cycles;
        for lc in &report.littles {
            t.little_busy += lc.busy_cycles;
            t.little_wait_data += lc.wait_data_cycles;
            t.replayed_insts += lc.replayed_insts;
        }
        // Little cores tick on every second big-core cycle.
        t.little_capacity += report.littles.len() as u64 * report.cycles.div_ceil(2);
    }
    t
}
