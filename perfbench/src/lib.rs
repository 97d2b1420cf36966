//! The MEEK benchmark: end-to-end host-time and simulated-design
//! metrics of the four oracle workloads, plus a traced run that splits
//! host time by layer.
//!
//! One process, one worker thread. A run sets its workload up several
//! times (reporting the median), then runs units for the requested
//! seconds, cycling over one pass of seed-generated inputs. The
//! sim-domain metrics and the digest cover exactly the first pass, so
//! they repeat bit for bit for a seed; every later unit must reproduce
//! its first-pass digest. The end-to-end host times are rescaled by a
//! reference kernel run between units, so that the host's drifting
//! speed cancels out ([`calib`]). See `NOTES.md` beside this crate.

pub mod calib;
pub mod probe;
pub mod stats;
pub mod trace;
pub mod workloads;

use calib::Calibrator;
use stats::{median, peak_rss_mb, percentile, process_cpu_s, Digest};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;
use workloads::campaign_profiles::CampaignProfiles;
use workloads::difftest_fuzzed::DifftestFuzzed;
use workloads::fuzz_chunked::FuzzChunked;
use workloads::recover_progs::RecoverProgs;
use workloads::{Bench, PostPass, UnitOutcome};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] =
    ["difftest_fuzzed", "campaign_profiles", "recover_progs", "fuzz_chunked"];

/// Set-ups per run at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Seconds of set-up a run repeats its set-up for at least.
pub const SETUP_MIN_SECONDS: f64 = 0.5;
/// Set-ups per run at most.
pub const SETUP_MAX_REPS: usize = 1000;

/// Units the end-to-end phase runs at least, so that the p90 unit time
/// has ten samples beyond it.
pub const MIN_UNITS: usize = 100;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase runs at least.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: meek-perfbench --workload <difftest_fuzzed|campaign_profiles|\
recover_progs|fuzz_chunked> --seed <N> --seconds <N> --trace <0|1>";

impl Args {
    /// Parses `--workload W --seed N --seconds N --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing, unknown or malformed flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--workload" => return Err(bad("a workload")),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a number"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every integrity check passed.
    pub correct: bool,
    /// Operations attempted in the first pass.
    pub attempted: u64,
    /// Operations that failed in the first pass.
    pub failed: u64,
    /// The metrics of this kind of run.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the benchmark `args` describe.
///
/// # Errors
///
/// Returns a message when a metric the run must report cannot be
/// computed (too few samples).
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "difftest_fuzzed" => bench::<DifftestFuzzed>(args, WHY_DIFFTEST),
        "campaign_profiles" => bench::<CampaignProfiles>(args, WHY_CAMPAIGN),
        "recover_progs" => bench::<RecoverProgs>(args, WHY_RECOVER),
        "fuzz_chunked" => bench::<FuzzChunked>(args, WHY_FUZZ),
        other => Err(format!("unknown workload `{other}`")),
    }
}

const WHY_DIFFTEST: &str = "short fuzzed programs: re-simulating the fault-free prefix per \
fault dominates (fork-at-arm-point); unit = one case (cosim + 3 classifications)";
const WHY_CAMPAIGN: &str = "40k-instruction profile shards with 10 faults each: the steady-state \
MEEK tick dominates (event-driven issue); unit = one shard of one of 5 seeded campaigns";
const WHY_RECOVER: &str = "real kernels under checkpoint/rollback recovery: undo log, squash and \
re-execution; unit = one case (cosim + 5 recovery-verified faults, one per fault site)";
const WHY_FUZZ: &str = "guided fuzzing as meek-serve chunks it: mutation, corpus, static \
pre-screen and the observer-attached Sim path; unit = one 16-candidate chunk of one of 48 \
default jobs";

/// Units and what they produced, recorded once per pass index.
struct FirstPass {
    outcomes: Vec<Option<UnitOutcome>>,
    mismatches: u64,
}

impl FirstPass {
    fn complete(&self) -> impl Iterator<Item = &UnitOutcome> {
        self.outcomes.iter().flatten()
    }
}

/// One timed phase.
#[derive(Default)]
struct Phase {
    /// Process CPU milliseconds of each unit, as measured.
    unit_ms: Vec<f64>,
    /// The same, rescaled to the reference host ([`calib`]).
    scaled_ms: Vec<f64>,
    unit_idx: Vec<usize>,
    verdicts: u64,
    cycles: u64,
    /// Wall-clock seconds the units took.
    wall_s: f64,
}

impl Phase {
    /// Fault verdicts per second of unit time.
    fn faults_per_s(&self, unit_ms: &[f64]) -> f64 {
        self.verdicts as f64 / (unit_ms.iter().sum::<f64>() / 1e3)
    }
}

/// Tracing overhead in percent: rescaled host time of the traced
/// phase's units over the untraced time of the same units (same pass
/// index), so that the two phases' different unit mixes and host speeds
/// do not count as overhead.
fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    let plain: std::collections::BTreeMap<usize, f64> =
        untraced.unit_idx.iter().copied().zip(untraced.scaled_ms.iter().copied()).collect();
    let (mut base, mut with) = (0.0, 0.0);
    for (idx, ms) in traced.unit_idx.iter().zip(&traced.scaled_ms) {
        if let Some(p) = plain.get(idx) {
            base += p;
            with += ms;
        }
    }
    if base > 0.0 {
        100.0 * (with / base - 1.0)
    } else {
        0.0
    }
}

/// Digest of a unit that panicked.
const PANIC_DIGEST: u64 = 0xdead_dead_dead_dead;

fn run_one<B: Bench>(b: &mut B, idx: usize, tr: &mut Tracer) -> UnitOutcome {
    let out = catch_unwind(AssertUnwindSafe(|| tr.scope("bench.unit", |tr| b.run_unit(idx, tr))));
    out.unwrap_or_else(|_| {
        tr.abort_open();
        UnitOutcome {
            digest: PANIC_DIGEST,
            unit_failed: true,
            failures: vec!["the unit panicked".into()],
            ..UnitOutcome::default()
        }
    })
}

/// Runs units from `*next` on, cycling over the pass, until `seconds`
/// have passed and at least `min_units` ran, with calibration slices in
/// between.
fn timed_phase<B: Bench>(
    b: &mut B,
    tr: &mut Tracer,
    cal: &mut Calibrator,
    first: &mut FirstPass,
    next: &mut usize,
    seconds: f64,
    min_units: usize,
) -> Phase {
    let k = b.pass_len();
    let mut phase = Phase::default();
    let mut unit_at = Vec::new();
    let started = Instant::now();
    loop {
        let idx = *next % k;
        tr.set_unit(Some(*next as u64));
        let at = cal.now();
        let c0 = process_cpu_s();
        let out = run_one(b, idx, tr);
        let ms = (process_cpu_s() - c0) * 1e3;
        let wall = cal.now() - at;
        phase.unit_ms.push(ms);
        phase.wall_s += wall;
        unit_at.push(at + wall / 2.0);
        phase.unit_idx.push(idx);
        phase.verdicts += out.verdicts;
        phase.cycles += out.cycles;
        match &first.outcomes[idx] {
            None => first.outcomes[idx] = Some(out),
            Some(prev) => first.mismatches += u64::from(prev.digest != out.digest),
        }
        *next += 1;
        cal.slice_if_due();
        if started.elapsed().as_secs_f64() >= seconds && phase.unit_ms.len() >= min_units {
            break;
        }
    }
    tr.set_unit(None);
    // Slices after the last unit are taken before the scales, so that
    // the phase's last units have slices on both sides.
    for _ in 0..calib::MIN_WINDOW_SLICES / 2 {
        cal.slice();
    }
    phase.scaled_ms =
        phase.unit_ms.iter().zip(&unit_at).map(|(ms, &at)| ms * cal.scale_at(at)).collect();
    phase
}

/// Sets the workload up at least [`SETUP_REPS`] times, and more while
/// the set-ups have taken less than [`SETUP_MIN_SECONDS`] (at most
/// [`SETUP_MAX_REPS`]), so that a cheap set-up is timed over enough
/// repetitions for a steady median. Then runs the first unit once,
/// untimed and outside every set-up time, so that lazy initialisation
/// does not land in the first timed unit. Returns the last set-up, the
/// warm-up outcome and the seconds of each set-up, as measured and
/// rescaled to the reference host.
fn set_up<B: Bench>(
    seed: u64,
    tr: &mut Tracer,
    cal: &mut Calibrator,
) -> (B, UnitOutcome, Vec<f64>, Vec<f64>) {
    let mut setups = Vec::new();
    let mut setup_at = Vec::new();
    let mut last = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_SECONDS && setups.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let at = cal.now();
        let c0 = process_cpu_s();
        last = Some(tr.scope("bench.setup", |tr| B::setup(seed, tr)));
        setups.push(process_cpu_s() - c0);
        setup_at.push((at + cal.now()) / 2.0);
        cal.slice_if_due();
    }
    for _ in 0..calib::MIN_WINDOW_SLICES / 2 {
        cal.slice();
    }
    let scaled = setups.iter().zip(&setup_at).map(|(s, &at)| s * cal.scale_at(at)).collect();
    let mut b = last.expect("at least one set-up");
    let warm = tr.scope("bench.warmup", |tr| run_one(&mut b, 0, tr));
    (b, warm, setups, scaled)
}

/// First-pass sim-domain totals.
#[derive(Default)]
struct SimTotals {
    latencies: Vec<f64>,
    committed: u64,
    cycles: u64,
    digest: u64,
    attempted: u64,
    failed: u64,
}

fn sim_totals(first: &FirstPass, post: Option<&PostPass>) -> SimTotals {
    let mut d = Digest::default();
    let mut t = SimTotals::default();
    for o in first.complete() {
        d.u64(o.digest);
        t.latencies.extend_from_slice(&o.latencies_ns);
        t.committed += o.committed;
        t.cycles += o.cycles;
        t.attempted += 1 + o.faults + o.recoveries;
        t.failed += u64::from(o.unit_failed) + o.failed_faults + o.unrecovered;
    }
    if let Some(p) = post {
        d.u64(p.digest);
        t.latencies = p.latencies_ns.clone();
        t.committed = p.committed;
        t.cycles = p.cycles;
    }
    t.latencies.sort_by(f64::total_cmp);
    t.digest = d.value();
    t
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("too few samples for {what}"))
}

fn bench<B: Bench>(args: &Args, why: &str) -> Result<Report, String> {
    let mut tr = Tracer::new(args.trace);
    let mut lines = vec![
        format!("workload {}: {why}", args.workload),
        format!(
            "seed {}, {} s, trace {}, 1 worker thread, closed loop (next unit starts when the \
             last one ends)",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    ];
    let mut cal = Calibrator::default();
    cal.slice();
    let (mut b, warm, setups, scaled_setups) = set_up::<B>(args.seed, &mut tr, &mut cal);
    let k = b.pass_len();
    let mut first = FirstPass { outcomes: vec![None; k], mismatches: 0 };
    let mut next = 0usize;
    let mut errors: Vec<String> = Vec::new();

    // End-to-end numbers come from an untraced phase. A traced run
    // spends half its time there (for the tracing overhead) and half
    // traced.
    tr.set_enabled(false);
    let e2e_seconds = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let min_units = if args.trace { k } else { k.max(MIN_UNITS) };
    let e2e = timed_phase(&mut b, &mut tr, &mut cal, &mut first, &mut next, e2e_seconds, min_units);
    if first.outcomes[0].as_ref().is_some_and(|o| o.digest != warm.digest) {
        errors.push("the warm-up unit and the first timed unit disagree".into());
    }
    let traced = args.trace.then(|| {
        tr.set_enabled(true);
        let offset = tr.enable_library_spans();
        let phase =
            timed_phase(&mut b, &mut tr, &mut cal, &mut first, &mut next, args.seconds / 2.0, 1);
        (phase, offset)
    });
    let post = b.post_pass(&mut tr);
    let sim = sim_totals(&first, post.as_ref());
    if first.mismatches > 0 {
        errors.push(format!(
            "{} repeated unit(s) did not reproduce the first pass",
            first.mismatches
        ));
    }
    errors.extend(b.integrity_errors());

    lines.push(format!(
        "set-up: {:.6} s median of {} as measured (inputs and images; the warm-up unit is not \
         included)",
        median(&setups),
        setups.len()
    ));
    lines.push(format!(
        "first pass: {k} unit(s), {} operation(s) attempted, {} failed (failed_frac {:.6})",
        sim.attempted,
        sim.failed,
        sim.failed as f64 / sim.attempted.max(1) as f64
    ));
    // The first few failed operations, so that a failure can be found
    // and reproduced from the report alone.
    let failures = first.outcomes.iter().enumerate().filter_map(|(i, o)| Some((i, o.as_ref()?)));
    for (idx, msg) in failures.flat_map(|(i, o)| o.failures.iter().map(move |m| (i, m))).take(10) {
        let msg: String = msg.chars().take(240).collect();
        lines.push(format!("failed: unit {idx}: {msg}"));
    }
    lines.push(format!("sim_digest 0x{:016x}", sim.digest));

    let metrics = if let Some((phase, offset)) = traced {
        let probe = probe::run(&b.probe_inputs(), &mut tr);
        tr.import_library_spans(offset, library_span_name);
        lines.push(format!("probe_digest 0x{:016x} ({} program(s))", probe.digest(), probe.inputs));
        let metrics = layer_metrics(&args.workload, &tr, &first, &e2e, &phase, &probe);
        lines.extend(span_table(&tr));
        let path = trace_path(&args.workload, args.seed);
        match std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
            .and_then(|()| std::fs::write(&path, tr.chrome_trace()))
        {
            Ok(()) => {
                lines.push(format!("trace: {} span(s) in {}", tr.spans().len(), path.display()))
            }
            Err(e) => errors.push(format!("cannot write {}: {e}", path.display())),
        }
        metrics
    } else {
        let mut unit_ms = e2e.unit_ms.clone();
        unit_ms.sort_by(f64::total_cmp);
        let units = unit_ms.len() as u64;
        let detections = sim.latencies.len() as u64;
        let rss = need(peak_rss_mb(), "peak_rss_mb (no /proc/self/status)")?;
        let mut scaled_ms = e2e.scaled_ms.clone();
        scaled_ms.sort_by(f64::total_cmp);
        lines.push(format!(
            "as measured: faults_per_s {} unit_ms_p50 {} unit_ms_p90 {}",
            e2e.faults_per_s(&e2e.unit_ms),
            need(percentile(&unit_ms, 0.5), "unit_ms_p50")?,
            need(percentile(&unit_ms, 0.9), "unit_ms_p90")?
        ));
        let metrics = vec![
            Metric {
                name: "setup_s",
                value: median(&scaled_setups),
                unit: "s",
                samples: setups.len() as u64,
            },
            Metric {
                name: "faults_per_s",
                value: e2e.faults_per_s(&e2e.scaled_ms),
                unit: "1/s",
                samples: units,
            },
            Metric {
                name: "unit_ms_p50",
                value: need(percentile(&scaled_ms, 0.5), "unit_ms_p50")?,
                unit: "ms",
                samples: units,
            },
            Metric {
                name: "unit_ms_p90",
                value: need(percentile(&scaled_ms, 0.9), "unit_ms_p90")?,
                unit: "ms",
                samples: units,
            },
            Metric { name: "peak_rss_mb", value: rss, unit: "MiB", samples: 1 },
            Metric {
                name: "sim_ipc",
                value: sim.committed as f64 / sim.cycles.max(1) as f64,
                unit: "insts/cycle",
                samples: sim.cycles,
            },
            Metric {
                name: "detect_latency_p50_ns",
                value: need(percentile(&sim.latencies, 0.5), "detect_latency_p50_ns")?,
                unit: "ns",
                samples: detections,
            },
            Metric {
                name: "detect_latency_p90_ns",
                value: need(percentile(&sim.latencies, 0.9), "detect_latency_p90_ns")?,
                unit: "ns",
                samples: detections,
            },
        ];
        lines.push(format!(
            "timed phase: {units} unit run(s) over a {k}-unit pass, {} fault verdict(s) in {:.3} s \
             of unit CPU time ({:.3} s wall clock)",
            e2e.verdicts,
            e2e.unit_ms.iter().sum::<f64>() / 1e3,
            e2e.wall_s
        ));
        lines.push(format!(
            "host: {} calibration slice(s) in {:.3} s, median {:.6} ms (reference {:.6} ms); \
             host times are rescaled to the reference host",
            cal.slices(),
            cal.seconds(),
            cal.median_slice_s() * 1e3,
            calib::NOMINAL_SLICE_S * 1e3
        ));
        metrics
    };
    for m in &metrics {
        lines.push(format!("{} = {} {} (n={})", m.name, m.value, m.unit, m.samples));
    }
    for e in &errors {
        lines.push(format!("INTEGRITY: {e}"));
    }
    Ok(Report {
        correct: errors.is_empty(),
        attempted: sim.attempted,
        failed: sim.failed,
        metrics,
        lines,
    })
}

/// Per-layer names of the library's own spans inside co-simulation.
fn library_span_name(name: &'static str) -> &'static str {
    match name {
        "golden_run" => "isa.golden_run_ms",
        "lockstep_replay" => "littlecore.lockstep_replay_ms",
        "system_check" => "core.system_check_ms",
        "image_build" => "workloads.build_ms",
        other => other,
    }
}

/// Where a traced run writes its spans: beside this crate.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.json"))
}

/// Span names whose mean per call is a per-layer metric.
const TIMED_LAYERS: [&str; 11] = [
    "difftest.fuzz_program_ms",
    "workloads.build_ms",
    "progs.assemble_ms",
    "difftest.cosim_ms",
    "isa.golden_run_ms",
    "littlecore.lockstep_replay_ms",
    "core.system_check_ms",
    "difftest.classify_ms",
    "difftest.recover_ms",
    "campaign.shard_ms",
    "fuzz.chunk_ms",
];

fn layer_metrics(
    workload: &str,
    tr: &Tracer,
    first: &FirstPass,
    e2e: &Phase,
    traced: &Phase,
    probe: &probe::ProbeTotals,
) -> Vec<Metric> {
    let totals = tr.totals();
    let per_call = |name: &str, own: bool| {
        totals.get(name).map_or((0.0, 0), |t| {
            let ns = if own { t.self_ns } else { t.total_ns };
            (ns as f64 / t.count as f64 / 1e6, t.count)
        })
    };
    let mut out: Vec<Metric> = TIMED_LAYERS
        .iter()
        .map(|&name| {
            let (value, samples) = per_call(name, false);
            Metric { name, value, unit: "ms", samples }
        })
        .collect();
    for (name, span) in
        [("difftest.cosim_self_ms", "difftest.cosim_ms"), ("bench.unit_self_ms", "bench.unit")]
    {
        let (value, samples) = per_call(span, true);
        out.push(Metric { name, value, unit: "ms", samples });
    }
    // Calls per unit, over the traced phase's units.
    let in_units = |name: &str| {
        tr.spans().iter().filter(|s| s.name == name && s.unit.is_some()).count() as f64
    };
    let units = in_units("bench.unit").max(1.0);
    let n_units = traced.unit_ms.len() as u64;
    for (name, span) in [
        ("difftest.classify_calls", "difftest.classify_ms"),
        ("difftest.recover_calls", "difftest.recover_ms"),
    ] {
        out.push(Metric {
            name,
            value: in_units(span) / units,
            unit: "calls/unit",
            samples: n_units,
        });
    }
    let shard_ns: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "campaign.shard_ms" && s.unit.is_some())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    out.push(Metric {
        name: "campaign.ns_per_sim_cycle",
        value: if shard_ns == 0 { 0.0 } else { shard_ns as f64 / traced.cycles.max(1) as f64 },
        unit: "ns/cycle",
        samples: traced.cycles,
    });

    // Work, waste and yield over the first pass.
    let pass: Vec<&UnitOutcome> = first.complete().collect();
    let sum = |f: fn(&UnitOutcome) -> u64| pass.iter().map(|o| f(o)).sum::<u64>();
    let evaluated = sum(|o| o.evaluated);
    let frac = |n: u64| if evaluated == 0 { 0.0 } else { n as f64 / evaluated as f64 };
    let k = pass.len() as u64;
    let campaign = workload == "campaign_profiles";
    let work = [
        ("fuzz.evaluated", evaluated as f64, "count"),
        ("fuzz.reject_frac", frac(sum(|o| o.rejected)), "frac"),
        ("fuzz.discover_frac", frac(sum(|o| o.discovering)), "frac"),
        ("fuzz.features", sum(|o| o.features) as f64, "count"),
        ("campaign.pending", if campaign { sum(|o| o.pending) } else { 0 } as f64, "count"),
        ("recover.rollbacks", sum(|o| o.rollbacks) as f64, "count"),
        (
            "recover.worst_episode_cycles",
            pass.iter().map(|o| o.worst_episode_cycles).max().unwrap_or(0) as f64,
            "cycles",
        ),
    ];
    out.extend(work.into_iter().map(|(name, value, unit)| Metric {
        name,
        value,
        unit,
        samples: k,
    }));
    out.extend(probe.metrics().into_iter().map(|(name, value, unit)| Metric {
        name,
        value,
        unit,
        samples: probe.inputs,
    }));
    out.push(Metric {
        name: "trace.overhead_pct",
        value: overhead_pct(e2e, traced),
        unit: "%",
        samples: n_units,
    });
    out
}

/// The span table: count, total and self time per name.
fn span_table(tr: &Tracer) -> Vec<String> {
    let mut lines =
        vec![format!("{:<32} {:>9} {:>12} {:>12}", "span", "count", "total_ms", "self_ms")];
    for (name, t) in tr.totals() {
        lines.push(format!(
            "{name:<32} {:>9} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a =
            Args::parse(&argv("--workload recover_progs --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args { workload: "recover_progs".into(), seed: 7, seconds: 10.0, trace: true }
        );
        assert!(Args::parse(&argv("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload fuzz_chunked --seed 7 --seconds 10")).is_err());
        assert!(
            Args::parse(&argv("--workload fuzz_chunked --seed x --seconds 1 --trace 0")).is_err()
        );
        assert!(
            Args::parse(&argv("--workload fuzz_chunked --seed 1 --seconds 0 --trace 0")).is_err()
        );
    }

    #[test]
    fn the_json_result_has_exactly_the_four_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![Metric { name: "setup_s", value: 0.25, unit: "s", samples: 5 }],
            lines: Vec::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
