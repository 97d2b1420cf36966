//! `recover_progs`: the committed kernels plus the fused multi-workload
//! set under checkpoint/rollback recovery, as
//! `meek-difftest --suite progs --recover --threads 1` runs them, except
//! that the fused set comes up twice per turn of the rotation.
//!
//! Chosen because it is the write side of the same core: undo log,
//! checkpoint pins, squash and re-execution, and a golden-equal final
//! state check, on real programs rather than fuzzed ones. Recovery takes
//! most of its host time, so a fast path for detect-only runs that
//! slows recovery shows here. Unit: one case, i.e. one three-way
//! co-simulation plus five recovery-verified faults.
//!
//! Why the fused set twice: a fused case takes about ten times as long as
//! a kernel case, and its times cluster in two groups that depend on the
//! seed. Once per nine cases (the CLI's rotation) the fused cases are
//! 11 % of the units, so the p90 unit time sat at the edge of the fused
//! cases and jumped between 60 ms and 230 ms with the seed. Twice per ten
//! cases they are 20 %, and the p90 lands in the middle of them.

use super::difftest_fuzzed::{check_balance, record_cosim, record_fault};
use super::{unit_seed, Bench, ProbeInput, UnitOutcome, LITTLE_CORES};
use crate::stats::Digest;
use crate::trace::Tracer;
use meek_core::FabricKind;
use meek_difftest::{cosim, fault_plan, verify_recovery_in, CosimConfig, RecoveryVerdict};
use meek_progs::{loader, suite, WorkloadSet, KERNELS};
use meek_workloads::Workload;
use std::sync::Arc;

/// Cases in one pass: 36 turns of the rotation.
pub const CASES: usize = 360;
/// One turn: indices into the programs (the eight kernels, then the
/// fused set at index 8), with the fused set twice so that every half
/// turn holds one fused case.
const ROTATION: [usize; 10] = [0, 1, 2, 3, 8, 4, 5, 6, 7, 8];
/// Faults per case: five, so that every case's plan covers all five
/// fault sites (`fault_plan` cycles through them), the LSQ parity window
/// and cache data bits included.
pub const FAULTS_PER_CASE: usize = 5;

/// Prepared inputs: the nine program images and the per-case seeds.
pub struct RecoverProgs {
    programs: Vec<Arc<Workload>>,
    seeds: Vec<u64>,
    executed: Vec<u64>,
    errors: Vec<String>,
}

impl RecoverProgs {
    /// Inputs for `cases` cases of `seed`, in [`ROTATION`] order.
    pub fn with_cases(seed: u64, cases: usize, tr: &mut Tracer) -> RecoverProgs {
        let mut programs: Vec<Arc<Workload>> = KERNELS
            .iter()
            .map(|k| {
                let prog = tr.scope("progs.assemble_ms", |_| suite::program(k));
                Arc::new(tr.scope("workloads.build_ms", |_| loader::workload(&prog)))
            })
            .collect();
        programs.push(Arc::new(tr.scope("workloads.build_ms", |_| WorkloadSet::all().fuse())));
        RecoverProgs {
            executed: vec![0; programs.len()],
            programs,
            seeds: (0..cases as u64).map(|case| unit_seed(seed, case)).collect(),
            errors: Vec::new(),
        }
    }
}

impl Bench for RecoverProgs {
    fn setup(seed: u64, tr: &mut Tracer) -> RecoverProgs {
        RecoverProgs::with_cases(seed, CASES, tr)
    }

    fn pass_len(&self) -> usize {
        self.seeds.len()
    }

    fn run_unit(&mut self, idx: usize, tr: &mut Tracer) -> UnitOutcome {
        let program = ROTATION[idx % ROTATION.len()];
        let wl = &self.programs[program];
        let cfg = CosimConfig { n_little: LITTLE_CORES, ..CosimConfig::default() };
        let (verdict, golden) = tr.scope("difftest.cosim_ms", |_| cosim::run_workload(wl, &cfg));
        let mut out = UnitOutcome::default();
        let mut d = Digest::default();
        record_cosim(&mut out, &mut d, &verdict);
        if verdict.divergence.is_none() && verdict.executed > 0 {
            let golden = golden.expect("a clean co-simulation carries its golden run");
            for spec in fault_plan(self.seeds[idx], FAULTS_PER_CASE, verdict.executed) {
                let (outcome, recovery) = tr.scope("difftest.recover_ms", |_| {
                    verify_recovery_in(&golden, wl, spec, LITTLE_CORES, FabricKind::F2)
                });
                record_fault(&mut out, &mut d, &spec, &outcome);
                match &recovery {
                    // An escape already counts as a failed fault; its
                    // "unrecovered" verdict only repeats it.
                    _ if outcome.is_escape() => {}
                    RecoveryVerdict::Recovered { rollbacks, max_cycles } => {
                        out.recoveries += 1;
                        out.rollbacks += rollbacks;
                        out.worst_episode_cycles = out.worst_episode_cycles.max(*max_cycles);
                    }
                    RecoveryVerdict::Unrecovered { .. } | RecoveryVerdict::StateDiverged { .. } => {
                        out.recoveries += 1;
                        out.unrecovered += 1;
                        out.failures.push(format!("{spec:?}: {recovery}"));
                    }
                    RecoveryVerdict::NothingToRecover => {}
                }
                d.str(&recovery.to_string());
            }
        }
        check_balance(&out, idx, &mut self.errors);
        out.verdicts = out.faults - out.pending;
        self.executed[program] = out.committed;
        out.fold_counts(&mut d);
        out.digest = d.value();
        out
    }

    fn integrity_errors(&self) -> Vec<String> {
        self.errors.clone()
    }

    fn probe_inputs(&self) -> Vec<ProbeInput> {
        self.programs
            .iter()
            .zip(&self.executed)
            .filter(|(_, &n)| n > 0)
            .map(|(wl, &insts)| ProbeInput { workload: Arc::clone(wl), insts })
            .collect()
    }
}
