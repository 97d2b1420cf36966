//! Thread-count invariance of the difftest pipeline on the pre-decoded
//! fast path: the same campaign fanned out over 1, 4, and 8 worker
//! threads must produce byte-identical per-case results. The CLI's
//! byte-identical-stdout guarantee rests on exactly this property (it
//! re-sequences results into case order), so it is pinned here at the
//! library level where a failure names the diverging case directly.

use meek_campaign::Executor;
use meek_core::FabricKind;
use meek_difftest::{
    classify_in, cosim, fault_plan, fuzz_program, verify_recovery_in, CosimConfig, FuzzConfig,
};
use std::fmt::Write as _;

const CASES: u64 = 10;
const FAULTS: usize = 2;

/// Runs the miniature campaign on `threads` workers and renders every
/// per-case result (co-sim verdict + fault outcomes) to one string.
fn campaign(threads: usize, recover: bool) -> String {
    let executor = Executor::new(threads);
    let case_ids: Vec<u64> = (0..CASES).collect();
    let cfg = CosimConfig::default();
    let mut out = String::new();
    executor.map_ordered(
        &case_ids,
        |_idx, &case| {
            let prog = fuzz_program(case ^ 0x5EED, &FuzzConfig { static_len: 120 });
            let wl = prog.workload();
            let (verdict, golden) = cosim::run_workload(&wl, &cfg);
            let mut line = format!(
                "case {case}: executed {} segments {} cycles {} divergence {:?}\n",
                verdict.executed,
                verdict.segments,
                verdict.system_cycles,
                verdict.divergence.as_ref().map(|d| d.to_string()),
            );
            if verdict.divergence.is_none() && verdict.executed > 0 {
                let golden = golden.expect("clean cosim carries its golden run");
                for spec in fault_plan(case, FAULTS, verdict.executed) {
                    if recover {
                        let (o, r) = verify_recovery_in(&golden, &wl, spec, 4, FabricKind::F2);
                        let _ = writeln!(line, "  {spec:?} -> {o} / {r}");
                    } else {
                        let o = classify_in(&golden, &wl, spec, 4);
                        let _ = writeln!(line, "  {spec:?} -> {o}");
                    }
                }
            }
            line
        },
        |_idx, line: String| out.push_str(&line),
    );
    out
}

#[test]
fn difftest_results_are_thread_count_invariant() {
    let t1 = campaign(1, false);
    let t4 = campaign(4, false);
    let t8 = campaign(8, false);
    assert!(t1.contains("divergence None"), "campaign must co-simulate cleanly:\n{t1}");
    assert_eq!(t1, t4, "4-thread run diverged from single-threaded");
    assert_eq!(t1, t8, "8-thread run diverged from single-threaded");
}

#[test]
fn recovery_results_are_thread_count_invariant() {
    let t1 = campaign(1, true);
    let t4 = campaign(4, true);
    assert_eq!(t1, t4, "recovery-mode 4-thread run diverged from single-threaded");
}

/// The `--stats` accumulator folded in case order: the rendered
/// percentile table (and the registry behind it) must be byte-identical
/// at any thread count, and its counts must reconcile with a direct
/// tally of the same outcome stream.
#[test]
fn stats_table_is_thread_count_invariant_and_reconciles() {
    let run = |threads: usize| {
        let executor = Executor::new(threads);
        let case_ids: Vec<u64> = (0..CASES).collect();
        let cfg = CosimConfig::default();
        let mut stats = meek_difftest::DifftestStats::new();
        let mut detected = 0u64;
        let mut total = 0u64;
        executor.map_ordered(
            &case_ids,
            |_idx, &case| {
                let prog = fuzz_program(case ^ 0x5EED, &FuzzConfig { static_len: 120 });
                let wl = prog.workload();
                let (verdict, golden) = cosim::run_workload(&wl, &cfg);
                let mut outcomes = Vec::new();
                if verdict.divergence.is_none() && verdict.executed > 0 {
                    let golden = golden.expect("clean cosim carries its golden run");
                    for spec in fault_plan(case, FAULTS, verdict.executed) {
                        outcomes.push((spec, classify_in(&golden, &wl, spec, 4)));
                    }
                }
                outcomes
            },
            |_idx, outcomes| {
                for (spec, outcome) in outcomes {
                    total += 1;
                    if matches!(outcome, meek_difftest::FaultOutcome::Detected { .. }) {
                        detected += 1;
                    }
                    stats.record(&spec, &outcome);
                }
            },
        );
        (stats, detected, total)
    };
    let (s1, detected, total) = run(1);
    let (s4, ..) = run(4);
    let (s8, ..) = run(8);
    assert_eq!(s1.registry().render(), s4.registry().render());
    assert_eq!(s1.registry().render(), s8.registry().render());
    assert_eq!(s1.render_table(), s4.render_table());
    assert_eq!(s1.total(), total, "every classified fault lands in the table");
    assert_eq!(s1.verdicts("detected"), detected);
    assert_eq!(s1.latency_count(), detected, "one latency observation per detection");
    assert!(detected > 0, "this campaign must detect something for the table to mean anything");
}
