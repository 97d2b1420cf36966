//! One difftest case, end to end — the per-case pipeline the
//! `meek-difftest` CLI, `meek-serve` difftest jobs and the gated
//! case-rate benches all run, so every decision behind a per-fault
//! verdict is made in one place: the per-case seed, the case's program
//! (fuzzed, or the real-program rotation), the three-way
//! co-simulation, and classification (or recovery verification) of a
//! fault plan on clean cases only.

use crate::cosim::{self, CosimConfig, CosimVerdict};
use crate::coverage::{classify_in, fault_plan, FaultOutcome};
use crate::fuzz::{fuzz_program, FuzzConfig};
use crate::recover::{verify_recovery_in, RecoveryVerdict};
use meek_core::{FabricKind, FaultSpec};
use meek_telemetry::prof;

/// Everything a case depends on besides its index and seed.
#[derive(Debug, Clone, Copy)]
pub struct CaseConfig {
    /// Co-simulation shape: replay segment length and checker cores.
    pub cosim: CosimConfig,
    /// Faults injected and classified per clean case.
    pub faults: usize,
    /// Static body length of fuzzed programs (unused with `progs`).
    pub static_len: usize,
    /// Run the real-program rotation ([`meek_progs::rotation_workload`])
    /// instead of a fuzzed program.
    pub progs: bool,
    /// Verify checkpoint/rollback recovery of every fault instead of
    /// detect-only classification.
    pub recover: bool,
}

impl Default for CaseConfig {
    fn default() -> Self {
        CaseConfig {
            cosim: CosimConfig::default(),
            faults: 3,
            static_len: FuzzConfig::default().static_len,
            progs: false,
            recover: false,
        }
    }
}

/// What one case found.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The seed the case ran with.
    pub case_seed: u64,
    /// The real-program workload's name (`progs` cases only).
    pub workload: Option<&'static str>,
    /// Three-way co-simulation totals and first divergence.
    pub verdict: CosimVerdict,
    /// Every injected fault with its coverage outcome and, with
    /// `recover`, its recovery verdict.
    pub outcomes: Vec<(FaultSpec, FaultOutcome, Option<RecoveryVerdict>)>,
}

/// The seed of case `case` in a campaign seeded `seed` (a SplitMix64
/// decorrelation of the index stream).
pub fn case_seed(seed: u64, case: u64) -> u64 {
    meek_campaign::splitmix(seed ^ case.wrapping_mul(0x9E37_79B9))
}

/// Runs case `case` with seed `case_seed`: builds its program, co-simulates
/// it three ways, and — only when the co-simulation is clean and retired
/// something — classifies a `cfg.faults`-spec fault plan drawn from
/// `case_seed`, reusing the co-simulation's workload and golden run.
pub fn run_case(cfg: &CaseConfig, case: u64, case_seed: u64) -> CaseResult {
    let wl = if cfg.progs {
        let _span = prof::span("image_build");
        meek_progs::rotation_workload(case)
    } else {
        let prog = fuzz_program(case_seed, &FuzzConfig { static_len: cfg.static_len });
        let _span = prof::span("image_build");
        prog.workload()
    };
    let (verdict, golden) = cosim::run_workload(&wl, &cfg.cosim);
    let mut outcomes = Vec::new();
    if verdict.divergence.is_none() && verdict.executed > 0 {
        let golden = golden.expect("clean cosim carries its golden run");
        let n_little = cfg.cosim.n_little;
        for spec in fault_plan(case_seed, cfg.faults, verdict.executed) {
            if cfg.recover {
                let _span = prof::span("recovery");
                let (outcome, recovery) =
                    verify_recovery_in(&golden, &wl, spec, n_little, FabricKind::F2);
                outcomes.push((spec, outcome, Some(recovery)));
            } else {
                let _span = prof::span("classify");
                outcomes.push((spec, classify_in(&golden, &wl, spec, n_little), None));
            }
        }
    }
    CaseResult { case_seed, workload: cfg.progs.then_some(wl.name), verdict, outcomes }
}
