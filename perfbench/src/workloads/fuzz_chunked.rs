//! `fuzz_chunked`: guided fuzzing as `meek-serve` fuzz jobs run it.
//!
//! Chosen because it is the only workload that exercises the fuzz layer
//! (mutation, corpus, rarity scheduling), the static pre-screen of
//! `meek-analyze`, and the observer-attached `Sim` path; the other three
//! run with `NoObserver`. Unit: one `run_fuzz` chunk that continues the
//! previous chunk's corpus, with the serve per-chunk seed derivation.
//! Every job is a default `meek-serve` fuzz job (`FuzzJob::default()`:
//! 64 iterations in chunks of 16) with its own master seed derived from
//! the run's seed and its own corpus starting empty; one pass is several
//! such jobs. The corpus is carried in memory instead of through the job
//! spool, which is equivalent while nothing is evicted (checked).
//!
//! A fuzz report carries no cycles or detection latencies, yet every
//! run reports `sim_ipc` and `detect_latency_*`. So after the timed
//! phase this workload re-runs the oracle's own fault runs for the
//! programs the first pass kept: each corpus entry under its own fault
//! plan and fabric, with a coverage observer attached, exactly as the
//! fuzz oracle ran it when it admitted the entry.

use super::{unit_seed, Bench, PostPass, ProbeInput, UnitOutcome, LITTLE_CORES};
use crate::stats::Digest;
use crate::trace::Tracer;
use meek_core::Sim;
use meek_difftest::{golden_run_bounded, FuzzProgram};
use meek_fuzz::{run_fuzz, Corpus, CoverageMap, FuzzSettings, EVAL_CAP};
use meek_serve::FuzzJob;
use std::sync::Arc;

/// Fuzz jobs in one pass.
pub const JOBS: usize = 48;
/// Corpus entries the layer probe re-runs fault-free.
const PROBE_ENTRIES: usize = 200;

/// Prepared inputs: one settings record per chunk, plus the corpus the
/// chunks thread through.
pub struct FuzzChunked {
    chunks: usize,
    corpus_cap: usize,
    settings: Vec<FuzzSettings>,
    corpus: Option<Corpus>,
    /// Each job's corpus at the end of its first run.
    first_pass_corpora: Vec<Option<Corpus>>,
    replayed: Vec<ProbeInput>,
    errors: Vec<String>,
}

impl FuzzChunked {
    /// The master seed of job `job` of a run with seed `seed`.
    pub fn job_seed(seed: u64, job: usize) -> u64 {
        unit_seed(seed, job as u64)
    }

    /// Inputs for `jobs` default fuzz jobs of `chunks` chunks each,
    /// split into chunks as `meek-serve` splits them.
    pub fn with_jobs(seed: u64, jobs: usize, chunks: usize) -> FuzzChunked {
        let default = FuzzJob::default();
        let settings = (0..jobs)
            .map(|job| FuzzJob {
                seed: FuzzChunked::job_seed(seed, job),
                iters: default.chunk * chunks as u64,
                ..FuzzJob::default()
            })
            .flat_map(|job| (0..chunks as u64).map(move |chunk| (job.clone(), chunk)))
            .map(|(job, chunk)| FuzzSettings {
                iters: job.chunk.min(job.iters - chunk * job.chunk),
                seed: unit_seed(job.seed, chunk),
                threads: 1,
                guided: job.guided,
                recover: job.recover,
                minimize: false,
                static_len: job.static_len,
                faults_per_case: job.faults_per_case,
                n_little: job.little,
                corpus_cap: job.corpus_cap,
                ..FuzzSettings::default()
            })
            .collect();
        FuzzChunked {
            chunks,
            corpus_cap: default.corpus_cap,
            settings,
            corpus: None,
            first_pass_corpora: vec![None; jobs],
            replayed: Vec::new(),
            errors: Vec::new(),
        }
    }
}

impl Bench for FuzzChunked {
    fn setup(seed: u64, _tr: &mut Tracer) -> FuzzChunked {
        let job = FuzzJob::default();
        FuzzChunked::with_jobs(seed, JOBS, job.iters.div_ceil(job.chunk) as usize)
    }

    fn pass_len(&self) -> usize {
        self.settings.len()
    }

    fn run_unit(&mut self, idx: usize, tr: &mut Tracer) -> UnitOutcome {
        let corpus = match self.corpus.take() {
            Some(c) if !idx.is_multiple_of(self.chunks) => c,
            _ => Corpus::new(self.corpus_cap),
        };
        // Features the job already knew: each is owned by exactly one
        // entry while nothing is evicted.
        let known: usize = corpus.entries().iter().map(|e| e.owned.len()).sum();
        let settings = &self.settings[idx];
        let (report, corpus, features) = tr.scope("fuzz.chunk_ms", |_| run_fuzz(settings, corpus));
        if corpus.evicted() > 0 {
            self.errors.push(format!(
                "chunk {idx}: the corpus evicted entries, so carrying it in memory no longer \
                 matches a spool reload"
            ));
        }
        if report.evaluated != settings.iters {
            self.errors.push(format!("chunk {idx}: evaluated {} candidates", report.evaluated));
        }
        let mut d = Digest::default();
        d.str(&report.to_string()).str(&features.render_names());
        let escaped = report.escapes.len() as u64;
        let failures = report
            .escapes
            .iter()
            .map(|e| format!("escape {e}"))
            .chain(report.divergences.iter().map(|d| d.lines().next().unwrap_or_default().into()))
            .collect();
        let out = UnitOutcome {
            failures,
            unit_failed: !report.divergences.is_empty(),
            faults: report.faults,
            verdicts: report.faults,
            escaped,
            failed_faults: escaped,
            evaluated: report.evaluated,
            rejected: report.rejected,
            discovering: report.discovering,
            features: features.len().saturating_sub(known) as u64,
            ..UnitOutcome::default()
        };
        out.fold_counts(&mut d);
        let slot = &mut self.first_pass_corpora[idx / self.chunks];
        if (idx + 1).is_multiple_of(self.chunks) && slot.is_none() {
            *slot = Some(corpus.clone());
        }
        self.corpus = Some(corpus);
        UnitOutcome { digest: d.value(), ..out }
    }

    fn post_pass(&mut self, tr: &mut Tracer) -> Option<PostPass> {
        let entries: Vec<_> = self
            .first_pass_corpora
            .iter()
            .map(|c| c.as_ref().expect("the first pass completed every job"))
            .flat_map(|c| c.entries().iter().cloned())
            .collect();
        let mut pass = PostPass::default();
        let mut d = Digest::default();
        for e in &entries {
            let prog = FuzzProgram::from_words(&e.words);
            let Ok(golden) = golden_run_bounded(&prog, EVAL_CAP) else {
                self.errors.push(format!("corpus entry of iteration {} traps", e.iter));
                continue;
            };
            let executed = golden.trace.len() as u64;
            let wl = Arc::new(prog.workload());
            for &spec in &e.plan {
                let report = tr.scope("fuzz.replay_ms", |_| {
                    Sim::builder(&wl, executed)
                        .little_cores(LITTLE_CORES)
                        .fabric(e.fabric)
                        .faults(vec![spec])
                        .observe(CoverageMap::new())
                        .build()
                        .expect("the fuzz oracle configuration is valid")
                        .run()
                        .report
                });
                pass.committed += report.committed;
                pass.cycles += report.cycles;
                d.u64(report.committed).u64(report.cycles);
                if let Some(det) = report.detections.first() {
                    pass.latencies_ns.push(det.latency_ns);
                    d.f64(det.latency_ns);
                }
            }
            self.replayed.push(ProbeInput { workload: wl, insts: executed });
        }
        pass.digest = d.value();
        Some(pass)
    }

    fn integrity_errors(&self) -> Vec<String> {
        self.errors.clone()
    }

    fn probe_inputs(&self) -> Vec<ProbeInput> {
        self.replayed.iter().take(PROBE_ENTRIES).cloned().collect()
    }
}
