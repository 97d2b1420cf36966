//! The four workloads. Each generates its inputs from the seed, runs
//! one unit (a case, a shard or a fuzz chunk) at a time through the
//! workspace crates' public functions, and reports what the oracles
//! decided about it.

pub mod campaign_profiles;
pub mod difftest_fuzzed;
pub mod fuzz_chunked;
pub mod recover_progs;

use crate::stats::Digest;
use crate::trace::Tracer;
use meek_workloads::Workload;
use std::sync::Arc;

/// Checker cores of every simulated system (the CLIs' default).
pub const LITTLE_CORES: usize = 4;

/// SplitMix64 finaliser: the per-case and per-chunk seed derivation
/// `meek-difftest` and `meek-serve` use, so a workload's units are the
/// ones those front ends would run for the same seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of unit `idx`, derived as the front ends derive it.
pub fn unit_seed(seed: u64, idx: u64) -> u64 {
    splitmix(seed ^ idx.wrapping_mul(0x9E37_79B9))
}

/// What the oracles decided about one unit. Everything here except the
/// host time the harness measures around it is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitOutcome {
    /// Digest of every deterministic result of the unit.
    pub digest: u64,
    /// The unit diverged three ways or panicked.
    pub unit_failed: bool,
    /// Golden-retired instructions co-simulated (difftest-style units).
    pub executed: u64,
    /// Faults injected.
    pub faults: u64,
    /// Faults that received a verdict (not pending).
    pub verdicts: u64,
    /// Faults detected by a checker.
    pub detected: u64,
    /// Faults masked (proven benign where the oracle proves it).
    pub masked: u64,
    /// Faults with no verdict when the run drained.
    pub pending: u64,
    /// Faults the checkers missed that the replay twin could not prove
    /// benign.
    pub escaped: u64,
    /// Faults that count as failed operations (escapes; for campaign
    /// shards, pending faults too).
    pub failed_faults: u64,
    /// Detections the recovery oracle had to see recovered.
    pub recoveries: u64,
    /// Detections that did not end in a golden-equal state.
    pub unrecovered: u64,
    /// Detection latencies in simulated nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// Simulated instructions committed by the big core.
    pub committed: u64,
    /// Simulated big-core cycles to drain.
    pub cycles: u64,
    /// Recovery rollbacks.
    pub rollbacks: u64,
    /// Longest recovery episode in big-core cycles.
    pub worst_episode_cycles: u64,
    /// Fuzz candidates evaluated.
    pub evaluated: u64,
    /// Fuzz candidates rejected before simulation.
    pub rejected: u64,
    /// Fuzz candidates that grew coverage.
    pub discovering: u64,
    /// Coverage features the unit discovered.
    pub features: u64,
    /// One line per failed operation, for the report.
    pub failures: Vec<String>,
}

impl UnitOutcome {
    /// Folds the deterministic counters into `d`; each workload adds
    /// its own per-fault detail first.
    pub fn fold_counts(&self, d: &mut Digest) {
        for v in [
            u64::from(self.unit_failed),
            self.executed,
            self.faults,
            self.verdicts,
            self.detected,
            self.masked,
            self.pending,
            self.escaped,
            self.recoveries,
            self.unrecovered,
            self.committed,
            self.cycles,
            self.rollbacks,
            self.worst_episode_cycles,
            self.evaluated,
            self.rejected,
            self.discovering,
            self.features,
        ] {
            d.u64(v);
        }
        for &l in &self.latencies_ns {
            d.f64(l);
        }
    }
}

/// A fault-free program run the layer probe times on the vanilla big
/// core and on the full MEEK system.
#[derive(Debug, Clone)]
pub struct ProbeInput {
    /// The program image.
    pub workload: Arc<Workload>,
    /// Dynamic instructions to run.
    pub insts: u64,
}

/// Sim-domain results that a workload computes after its timed phase
/// rather than per unit, because its units do not report them (every
/// run must still report every sim-domain metric).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PostPass {
    /// Detection latencies in simulated nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// Simulated instructions committed.
    pub committed: u64,
    /// Simulated big-core cycles.
    pub cycles: u64,
    /// Digest of the pass's results.
    pub digest: u64,
}

/// One benchmark workload.
pub trait Bench: Sized {
    /// Generates the inputs for `seed` and builds their images.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;
    /// Units in one pass over the inputs; the sim-domain metrics cover
    /// exactly the first pass.
    fn pass_len(&self) -> usize;
    /// Runs unit `idx` (`< pass_len`).
    fn run_unit(&mut self, idx: usize, tr: &mut Tracer) -> UnitOutcome;
    /// Sim-domain results that come from a pass after the timed phase
    /// instead of from the units (`None`: the units carry them).
    fn post_pass(&mut self, _tr: &mut Tracer) -> Option<PostPass> {
        None
    }
    /// Integrity problems the workload found outside the oracle
    /// verdicts (for example state it could not carry between units).
    fn integrity_errors(&self) -> Vec<String>;
    /// The fault-free runs the layer probe times.
    fn probe_inputs(&self) -> Vec<ProbeInput>;
}
