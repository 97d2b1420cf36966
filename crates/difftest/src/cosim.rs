//! The three-way co-simulation oracle.
//!
//! One fuzzed program is executed three ways and lock-stepped:
//!
//! 1. **Golden** — the `meek-isa` functional interpreter, stepping a
//!    fresh architectural state over a fresh memory image. Its retired
//!    stream and checkpoints are the reference.
//! 2. **LittleCore replay** — a real checker core fed the golden run's
//!    forwarded data (memory records, CSR results, checkpoints), one
//!    segment at a time, exactly as the fabric would deliver it. Every
//!    replayed segment must verify clean; the first mismatch is
//!    reported with its [`MismatchKind`] and a disassembled trace
//!    window.
//! 3. **Full system** — the whole MEEK SoC (big core, DEU, fabric,
//!    checker cluster) runs the program as a workload; its commit
//!    stream is the big core's and every segment it forwards must
//!    verify against the littlecore cluster.
//!
//! A clean program must agree across all three; any disagreement is a
//! [`Divergence`] — a bug in one of the models (or a real escape in the
//! detection architecture), pinpointed for shrinking.

use crate::fuzz::FuzzProgram;
use meek_core::Sim;
use meek_fabric::{DestMask, Packet, PacketSink, Payload};
use meek_isa::disasm::{disasm_window, disasm_word};
use meek_isa::state::RegCheckpoint;
use meek_isa::{step_predecoded, ArchState, Retired, Trap};
use meek_littlecore::{CheckerEvent, LittleCore, LittleCoreConfig, MismatchKind};
use meek_telemetry::prof;
use meek_workloads::Workload;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Status chunks one checkpoint occupies at the F2 fabric's chunking
/// (65 words / 4 per packet), so the replay driver stays on the
/// fabric's real geometry.
const CHUNKS_PER_CP: usize = 17;

/// Dynamic-instruction ceiling for a golden run; fuzzed programs are
/// orders of magnitude shorter, so hitting this means non-termination.
pub const GOLDEN_CAP: u64 = 500_000;

/// Configuration of one co-simulation.
#[derive(Debug, Clone, Copy)]
pub struct CosimConfig {
    /// Instructions per replay segment in the lock-step littlecore way.
    pub seg_len: u64,
    /// Checker cores in the full-system way.
    pub n_little: usize,
    /// Dynamic instructions of context in divergence trace windows.
    pub window: usize,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig { seg_len: 192, n_little: 4, window: 8 }
    }
}

/// The first architectural disagreement between the three executions.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The golden interpreter trapped — the fuzzer emitted a program
    /// that is not trap-free along its executed path (a fuzzer bug) or
    /// a shrink candidate broke its own control flow.
    GoldenTrap {
        /// Trapping PC.
        pc: u64,
        /// The word that failed to decode.
        word: u32,
        /// Disassembly around the trap.
        window: String,
    },
    /// The littlecore replay disagreed with the golden stream.
    Replay {
        /// Segment (1-based) in which the mismatch fired.
        seg: u32,
        /// What diverged.
        kind: MismatchKind,
        /// Dynamic instruction index (into the golden trace) of the
        /// failing comparison.
        at_index: u64,
        /// Disassembled golden-trace window ending at the divergence.
        window: String,
    },
    /// The littlecore replay made no progress within its cycle budget.
    ReplayStuck {
        /// Segment that hung.
        seg: u32,
        /// Replay progress when the budget expired.
        replayed: u64,
    },
    /// The full-system run disagreed with the golden run (commit count,
    /// segment verdicts, or an outright liveness panic).
    System {
        /// What went wrong.
        detail: String,
    },
}

impl Divergence {
    /// Stable snake-case name of the divergence kind (payload-free) —
    /// the discriminator the shrinker holds fixed while minimising, and
    /// a coverage-feature key for the fuzzer.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Divergence::GoldenTrap { .. } => "golden_trap",
            Divergence::Replay { .. } => "replay",
            Divergence::ReplayStuck { .. } => "replay_stuck",
            Divergence::System { .. } => "system",
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::GoldenTrap { pc, word, window } => {
                write!(f, "golden interpreter trapped at {pc:#x} (word {word:#010x})\n{window}")
            }
            Divergence::Replay { seg, kind, at_index, window } => {
                write!(
                    f,
                    "littlecore replay diverged in segment {seg} at dynamic index {at_index}: \
                     {kind:?}\n{window}"
                )
            }
            Divergence::ReplayStuck { seg, replayed } => {
                write!(f, "littlecore replay stuck in segment {seg} after {replayed} instructions")
            }
            Divergence::System { detail } => write!(f, "full-system divergence: {detail}"),
        }
    }
}

/// A completed golden (reference) execution.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The retired-instruction stream.
    pub trace: Vec<Retired>,
    /// Architectural registers after the last instruction.
    pub final_cp: RegCheckpoint,
    /// Full architectural state after the last instruction (registers
    /// plus CSRs — the recovery oracle compares CSRs too).
    pub final_state: ArchState,
    /// Memory after the last instruction (code + data), for the
    /// recovery oracle's golden-equal final-state check.
    pub final_mem: meek_isa::SparseMemory,
}

/// Runs the golden interpreter to program exit (or [`GOLDEN_CAP`]).
///
/// # Errors
///
/// Returns [`Divergence::GoldenTrap`] if the program traps.
pub fn golden_run(prog: &FuzzProgram) -> Result<GoldenRun, Divergence> {
    golden_run_bounded(prog, GOLDEN_CAP)
}

/// [`golden_run`] with a caller-chosen instruction ceiling — the shrink
/// pre-screen rejects runaway candidates at a much lower bound than the
/// fuzzer-facing cap, so a relink-manufactured infinite loop costs only
/// `cap` interpreter steps to discard.
pub fn golden_run_bounded(prog: &FuzzProgram, cap: u64) -> Result<GoldenRun, Divergence> {
    golden_run_in(&prog.workload(), cap)
}

/// [`golden_run_bounded`] against an already-built [`Workload`], so the
/// per-case image build and pre-decode pass happen exactly once across
/// all three co-simulation ways and every fault oracle that follows.
pub fn golden_run_in(wl: &Workload, cap: u64) -> Result<GoldenRun, Divergence> {
    let mut mem = wl.image().clone();
    let pd = wl.predecoded();
    let mut st = wl.initial_state().clone();
    let mut trace = Vec::new();
    while st.pc != wl.exit_pc() && (trace.len() as u64) < cap {
        match step_predecoded(&mut st, &mut mem, pd) {
            Ok(r) => trace.push(r),
            Err(Trap::IllegalInstruction { pc, word }) => {
                let start = pc.saturating_sub(16).max(wl.entry());
                return Err(Divergence::GoldenTrap {
                    pc,
                    word,
                    window: disasm_window(wl.image(), start, 9, pc),
                });
            }
        }
    }
    Ok(GoldenRun { trace, final_cp: st.checkpoint(), final_state: st, final_mem: mem })
}

/// Renders the golden-trace window ending at dynamic index `at` — the
/// "what was executing when it diverged" view.
fn trace_window(golden: &GoldenRun, at: usize, n: usize) -> String {
    let lo = at.saturating_sub(n.saturating_sub(1));
    let mut out = String::new();
    for (j, r) in golden.trace[lo..=at.min(golden.trace.len() - 1)].iter().enumerate() {
        let idx = lo + j;
        let cursor = if idx == at { "=>" } else { "  " };
        out.push_str(&format!("{cursor} [{idx}] {:#08x}: {}\n", r.pc, disasm_word(r.raw)));
    }
    out
}

/// Result of one three-way co-simulation.
#[derive(Debug, Clone)]
pub struct CosimVerdict {
    /// Dynamic instructions the golden run retired.
    pub executed: u64,
    /// Segments lock-step-replayed on the littlecore way.
    pub segments: u32,
    /// Big-core cycles the full-system way took (0 if it diverged).
    pub system_cycles: u64,
    /// First disagreement, if any.
    pub divergence: Option<Divergence>,
}

/// Runs all three ways and lock-steps them.
pub fn run(prog: &FuzzProgram, cfg: &CosimConfig) -> CosimVerdict {
    run_workload(&prog.workload(), cfg).0
}

/// Three-way co-simulation of an already-built [`Workload`] — the entry
/// the real-program suite uses (loaded images carry initial register
/// and CSR state that a [`FuzzProgram`] never has). Returns the verdict
/// plus the golden run for downstream fault oracles, `None` when the
/// golden way itself trapped.
pub fn run_workload(wl: &Workload, cfg: &CosimConfig) -> (CosimVerdict, Option<GoldenRun>) {
    let golden_result = {
        let _span = prof::span("golden_run");
        golden_run_in(wl, GOLDEN_CAP)
    };
    match golden_result {
        Ok(golden) => (run_against(wl, &golden, cfg), Some(golden)),
        Err(d) => {
            let verdict =
                CosimVerdict { executed: 0, segments: 0, system_cycles: 0, divergence: Some(d) };
            (verdict, None)
        }
    }
}

/// Ways 2 and 3 of [`run_workload`] against a golden run the caller
/// already has (e.g. from a bounded pre-screen that reached program
/// exit, so it is the same trace [`GOLDEN_CAP`] would produce).
pub fn run_against(wl: &Workload, golden: &GoldenRun, cfg: &CosimConfig) -> CosimVerdict {
    let mut verdict = CosimVerdict {
        executed: golden.trace.len() as u64,
        segments: 0,
        system_cycles: 0,
        divergence: None,
    };
    if golden.trace.is_empty() {
        return verdict;
    }
    let replay = {
        let _span = prof::span("lockstep_replay");
        replay_lockstep(wl, golden, cfg)
    };
    match replay {
        Ok(segments) => verdict.segments = segments,
        Err(d) => {
            verdict.divergence = Some(d);
            return verdict;
        }
    }
    let system = {
        let _span = prof::span("system_check");
        system_check(wl, golden, cfg)
    };
    match system {
        Ok(cycles) => verdict.system_cycles = cycles,
        Err(d) => verdict.divergence = Some(d),
    }
    verdict
}

/// Way 2: feeds the golden run's forwarded data to a real littlecore,
/// one segment at a time, and demands a clean verdict for every one.
fn replay_lockstep(
    wl: &Workload,
    golden: &GoldenRun,
    cfg: &CosimConfig,
) -> Result<u32, Divergence> {
    let n = golden.trace.len();
    let seg_len = cfg.seg_len.max(1) as usize;
    let mut replay = TraceReplay::new(wl, wl.initial_state().checkpoint());
    // Each segment's ERCP is the golden state after its last
    // instruction, folded forward from the trace's writeback records.
    let mut shadow = wl.initial_state().clone();
    for (seg_idx, records) in golden.trace.chunks(seg_len).enumerate() {
        let seg = (seg_idx + 1) as u32;
        fold_writebacks(&mut shadow, records);
        match replay.segment(seg, records, shadow.checkpoint(), None) {
            (_, Some(CheckerEvent::SegmentVerified { pass: true, .. })) => {}
            (in_seg, Some(CheckerEvent::SegmentVerified { seg: vseg, mismatch, .. })) => {
                // The failing comparison is the last replayed
                // instruction (LSL mismatches) or the segment end
                // (ERCP register mismatches).
                let at = (seg_idx * seg_len) as u64 + in_seg.saturating_sub(1);
                let at = at.min(n as u64 - 1);
                return Err(Divergence::Replay {
                    seg: vseg,
                    kind: mismatch.expect("failed segment carries a mismatch"),
                    at_index: at,
                    window: trace_window(golden, at as usize, cfg.window),
                });
            }
            (replayed, _) => return Err(Divergence::ReplayStuck { seg, replayed }),
        }
    }
    Ok(n.div_ceil(seg_len) as u32)
}

/// The golden-trace replay driver shared by the lock-step way and the
/// coverage prover's replay twin: a real littlecore fed golden-trace
/// slices exactly as the fabric would deliver them — run-time memory
/// and CSR records, then the segment-closing checkpoint.
pub(crate) struct TraceReplay<'a> {
    wl: &'a Workload,
    core: LittleCore,
    seq: u64,
    now: u64,
}

impl<'a> TraceReplay<'a> {
    /// A checker for `wl` whose first segment starts from `srcp`.
    pub(crate) fn new(wl: &'a Workload, srcp: RegCheckpoint) -> TraceReplay<'a> {
        let mut core = LittleCore::new(0, LittleCoreConfig::optimized(), CHUNKS_PER_CP);
        core.install_predecode(wl.predecoded().clone());
        core.seed_initial_checkpoint(srcp);
        let initial_csrs = wl.initial_state().csr_snapshot();
        if !initial_csrs.is_empty() {
            core.install_initial_csrs(std::sync::Arc::new(initial_csrs));
        }
        TraceReplay { wl, core, seq: 0, now: 0 }
    }

    fn deliver(&mut self, payload: Payload) {
        let packet =
            Packet { seq: self.seq, dest: DestMask::single(0), payload, created_at: self.now };
        self.core.lsl.deliver(packet, self.now);
        self.seq += 1;
    }

    /// Replays `records` as segment `seg` closed by `ercp`, with the
    /// memory record at offset `i` replaced by `(addr, data)` when
    /// `corrupt` is `Some((i, addr, data))`. Returns the instructions
    /// replayed and the verdict; `None` means the replay starved or
    /// overran its deadline — it can never catch up, because the whole
    /// segment is delivered before the batched replay starts.
    pub(crate) fn segment(
        &mut self,
        seg: u32,
        records: &[Retired],
        ercp: RegCheckpoint,
        corrupt: Option<(usize, u64, u64)>,
    ) -> (u64, Option<CheckerEvent>) {
        self.core.assign(seg);
        for (i, r) in records.iter().enumerate() {
            if let Some(m) = r.mem {
                let (addr, data) = match corrupt {
                    Some((at, caddr, cdata)) if at == i => (caddr, cdata),
                    _ => (m.addr, m.data),
                };
                self.deliver(Payload::Mem { seg, addr, size: m.size, data, is_store: m.is_store });
            }
            if let Some((addr, data)) = r.csr_read {
                self.deliver(Payload::Csr { seg, addr, data });
            }
        }
        let len = records.len() as u64;
        self.deliver(Payload::RcpEnd { seg, inst_count: len, cp: Box::new(ercp) });
        let before = self.core.stats().replayed_insts;
        let deadline = self.now + 400 * len + 50_000;
        let (resumed_at, ev) = self.core.check_burst(self.now, self.wl.image(), deadline);
        self.now = resumed_at + 1;
        (self.core.stats().replayed_insts - before, ev)
    }
}

/// Folds retired instructions' writebacks into a commit-order shadow
/// state (the DEU's view), so checkpoints can be cut at arbitrary trace
/// indices.
pub(crate) fn fold_writebacks(shadow: &mut ArchState, records: &[Retired]) {
    use meek_isa::WbDest;
    for r in records {
        if let Some((dest, v)) = r.wb {
            match dest {
                WbDest::Int(reg) => shadow.set_x(reg, v),
                WbDest::Fp(freg) => shadow.set_f(freg, v),
            }
        }
        shadow.pc = r.next_pc;
    }
}

/// Way 3: the full MEEK SoC runs the program; the big core's commit
/// stream must match the golden count and every forwarded segment must
/// verify clean on the checker cluster.
fn system_check(wl: &Workload, golden: &GoldenRun, cfg: &CosimConfig) -> Result<u64, Divergence> {
    let n = golden.trace.len() as u64;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        Sim::builder(wl, n)
            .little_cores(cfg.n_little)
            .build_unobserved()
            .expect("cosim configuration is valid")
            .run()
            .report
    }));
    let report = match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            return Err(Divergence::System { detail: format!("liveness panic: {msg}") });
        }
    };
    if report.committed != n {
        return Err(Divergence::System {
            detail: format!(
                "big core committed {} instructions, golden retired {n}",
                report.committed
            ),
        });
    }
    if report.failed_segments != 0 {
        return Err(Divergence::System {
            detail: format!(
                "{} of {} forwarded segments failed verification on a fault-free run",
                report.failed_segments,
                report.failed_segments + report.verified_segments
            ),
        });
    }
    if !report.detections.is_empty() || report.missed_faults != 0 {
        return Err(Divergence::System {
            detail: format!(
                "phantom fault activity: {} detections, {} masked, with no injector",
                report.detections.len(),
                report.missed_faults
            ),
        });
    }
    if report.verified_segments != report.rcps {
        return Err(Divergence::System {
            detail: format!(
                "{} RCPs taken but {} segments verified",
                report.rcps, report.verified_segments
            ),
        });
    }
    Ok(report.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{fuzz_program, FuzzConfig};

    #[test]
    fn clean_programs_cosim_clean() {
        for seed in 0..6 {
            let prog = fuzz_program(seed, &FuzzConfig::default());
            let v = run(&prog, &CosimConfig::default());
            assert!(v.divergence.is_none(), "seed {seed} diverged: {}", v.divergence.unwrap());
            assert!(v.executed > 0);
            assert!(v.segments >= 1);
            assert!(v.system_cycles > 0);
        }
    }

    #[test]
    fn corrupted_golden_data_is_caught_by_replay() {
        // Sanity that the lock-step way actually *can* fail: corrupt one
        // forwarded store's data by corrupting the trace copy.
        let prog = fuzz_program(3, &FuzzConfig::default());
        let mut golden = golden_run(&prog).expect("clean");
        let victim = golden
            .trace
            .iter()
            .position(|r| r.mem.is_some_and(|m| m.is_store))
            .expect("fuzzed programs store");
        if let Some(m) = &mut golden.trace[victim].mem {
            m.data ^= 1 << 5;
        }
        let d = replay_lockstep(&prog.workload(), &golden, &CosimConfig::default())
            .expect_err("corruption must be detected");
        match d {
            Divergence::Replay { kind, window, .. } => {
                assert!(
                    matches!(
                        kind,
                        MismatchKind::StoreData
                            | MismatchKind::StoreAddr
                            | MismatchKind::Register(_)
                    ),
                    "unexpected kind {kind:?}"
                );
                assert!(window.contains("=>"), "window must mark the divergence:\n{window}");
            }
            d => panic!("unexpected divergence {d}"),
        }
    }

    #[test]
    fn seg_len_does_not_change_the_verdict() {
        let prog = fuzz_program(11, &FuzzConfig::default());
        for seg_len in [7, 64, 1000] {
            let cfg = CosimConfig { seg_len, ..CosimConfig::default() };
            let v = run(&prog, &cfg);
            assert!(v.divergence.is_none(), "seg_len {seg_len}: {}", v.divergence.unwrap());
        }
    }
}
