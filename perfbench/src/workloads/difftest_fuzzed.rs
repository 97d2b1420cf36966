//! `difftest_fuzzed`: the headline shape
//! `meek-difftest --cases 1000 --seed S --threads 1`.
//!
//! Chosen because fuzzed programs are short (about 3.2k simulated
//! cycles each), so re-simulating the fault-free prefix for every
//! classified fault dominates host time: this is where a
//! fork-at-arm-point change shows its gain. Unit: one case, i.e. one
//! three-way co-simulation plus three detect-only fault
//! classifications.

use super::{unit_seed, Bench, ProbeInput, UnitOutcome, LITTLE_CORES};
use crate::stats::Digest;
use crate::trace::Tracer;
use meek_core::FaultSpec;
use meek_difftest::{classify_in, cosim, fault_plan, fuzz_program, CosimConfig, FaultOutcome};
use meek_difftest::{CosimVerdict, FuzzConfig};
use meek_workloads::Workload;
use std::sync::Arc;

/// Cases in one pass (the ROADMAP headline size).
pub const CASES: usize = 1000;
/// Faults classified per case (the CLI default).
pub const FAULTS_PER_CASE: usize = 3;
/// Static length of fuzzed programs (the CLI default).
pub const STATIC_LEN: usize = 220;
/// Cases the layer probe re-runs fault-free.
const PROBE_CASES: usize = 200;

/// Prepared inputs: one fuzzed program image per case.
pub struct DifftestFuzzed {
    cases: Vec<(u64, Arc<Workload>)>,
    executed: Vec<u64>,
    errors: Vec<String>,
}

impl DifftestFuzzed {
    /// Inputs for `cases` cases of `seed`, as `meek-difftest` derives them.
    pub fn with_cases(seed: u64, cases: usize, tr: &mut Tracer) -> DifftestFuzzed {
        let cfg = FuzzConfig { static_len: STATIC_LEN };
        let cases = (0..cases as u64)
            .map(|case| {
                let case_seed = unit_seed(seed, case);
                let prog = tr.scope("difftest.fuzz_program_ms", |_| fuzz_program(case_seed, &cfg));
                (case_seed, Arc::new(tr.scope("workloads.build_ms", |_| prog.workload())))
            })
            .collect::<Vec<_>>();
        DifftestFuzzed { executed: vec![0; cases.len()], cases, errors: Vec::new() }
    }
}

/// Folds a fault and its outcome into `out` and `d`, counting escapes
/// as failed operations.
pub(crate) fn record_fault(
    out: &mut UnitOutcome,
    d: &mut Digest,
    spec: &FaultSpec,
    outcome: &FaultOutcome,
) {
    out.faults += 1;
    d.u64(spec.arm_at_commit).str(spec.site.name()).u64(u64::from(spec.bit));
    match outcome {
        FaultOutcome::Detected { latency_ns } => {
            out.detected += 1;
            out.latencies_ns.push(*latency_ns);
            d.str("detected").f64(*latency_ns);
        }
        FaultOutcome::MaskedProvenBenign => {
            out.masked += 1;
            d.str("masked");
        }
        FaultOutcome::Pending => {
            out.pending += 1;
            d.str("pending");
        }
        FaultOutcome::Escaped { reason } => {
            out.escaped += 1;
            out.failed_faults += 1;
            out.failures.push(format!("escape {spec:?}: {reason}"));
            d.str("escaped").str(reason);
        }
    }
}

/// Folds a co-simulation verdict into `out` and `d`. The big core's
/// commits count towards the simulated IPC only when the full-system
/// way ran to the end.
pub(crate) fn record_cosim(out: &mut UnitOutcome, d: &mut Digest, v: &CosimVerdict) {
    if let Some(div) = &v.divergence {
        out.unit_failed = true;
        out.failures.push(div.to_string().lines().next().unwrap_or_default().to_string());
    }
    out.executed = v.executed;
    if v.system_cycles > 0 {
        out.committed = v.executed;
        out.cycles = v.system_cycles;
    }
    d.u64(v.executed).u64(u64::from(v.segments)).u64(v.system_cycles);
    d.str(v.divergence.as_ref().map_or("clean", |d| d.kind_name()));
}

/// Checks that every fault of a difftest-style unit has exactly one
/// verdict.
pub(crate) fn check_balance(out: &UnitOutcome, unit: usize, errors: &mut Vec<String>) {
    if out.detected + out.masked + out.pending + out.escaped != out.faults {
        errors.push(format!("unit {unit}: fault verdicts do not add up to the faults injected"));
    }
}

impl Bench for DifftestFuzzed {
    fn setup(seed: u64, tr: &mut Tracer) -> DifftestFuzzed {
        DifftestFuzzed::with_cases(seed, CASES, tr)
    }

    fn pass_len(&self) -> usize {
        self.cases.len()
    }

    fn run_unit(&mut self, idx: usize, tr: &mut Tracer) -> UnitOutcome {
        let (case_seed, wl) = &self.cases[idx];
        let cfg = CosimConfig { n_little: LITTLE_CORES, ..CosimConfig::default() };
        let (verdict, golden) = tr.scope("difftest.cosim_ms", |_| cosim::run_workload(wl, &cfg));
        let mut out = UnitOutcome::default();
        let mut d = Digest::default();
        record_cosim(&mut out, &mut d, &verdict);
        if verdict.divergence.is_none() && verdict.executed > 0 {
            let golden = golden.expect("a clean co-simulation carries its golden run");
            for spec in fault_plan(*case_seed, FAULTS_PER_CASE, verdict.executed) {
                let outcome = tr.scope("difftest.classify_ms", |_| {
                    classify_in(&golden, wl, spec, LITTLE_CORES)
                });
                record_fault(&mut out, &mut d, &spec, &outcome);
            }
        }
        check_balance(&out, idx, &mut self.errors);
        out.verdicts = out.faults - out.pending;
        self.executed[idx] = out.committed;
        out.fold_counts(&mut d);
        out.digest = d.value();
        out
    }

    fn integrity_errors(&self) -> Vec<String> {
        self.errors.clone()
    }

    fn probe_inputs(&self) -> Vec<ProbeInput> {
        self.cases
            .iter()
            .zip(&self.executed)
            .filter(|(_, &n)| n > 0)
            .take(PROBE_CASES)
            .map(|((_, wl), &insts)| ProbeInput { workload: Arc::clone(wl), insts })
            .collect()
    }
}
