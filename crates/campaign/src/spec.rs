//! Campaign specification: the workload × fault-site × bit × seed grid,
//! sliced into independent, deterministic shards.
//!
//! A shard is the unit of parallel work: one `MeekSystem` simulation of
//! one workload with a handful of queued faults. Everything a shard
//! does is a pure function of the [`CampaignSpec`] and the shard's
//! position in the grid — per-shard RNG streams are derived by hashing
//! `(campaign seed, benchmark, shard index)` — so a campaign produces
//! identical records whether shards run on one thread or sixteen, and
//! a re-run with the same spec reproduces a prior campaign exactly.

use meek_core::fault::{random_fault_specs, FaultSpec};
use meek_core::MeekConfig;
use meek_progs::Kernel;
use meek_workloads::{parsec3, spec_int_2006, BenchmarkProfile};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One benchmark a campaign injects into: a profile-synthesised model
/// program, or a committed real program from the `meek-progs` suite.
#[derive(Debug, Clone)]
pub enum CampaignWorkload {
    /// A profile-synthesised benchmark (the SPECint/PARSEC models).
    Profile(BenchmarkProfile),
    /// One committed real-program kernel.
    Prog(&'static Kernel),
    /// The fused all-kernel multi-workload set: one image whose
    /// scheduler stub context-switches through every suite kernel.
    ProgSet,
}

impl CampaignWorkload {
    /// The benchmark name as it appears in shard specs and records.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignWorkload::Profile(p) => p.name,
            CampaignWorkload::Prog(k) => k.name,
            CampaignWorkload::ProgSet => meek_progs::SET_NAME,
        }
    }
}

impl From<BenchmarkProfile> for CampaignWorkload {
    fn from(p: BenchmarkProfile) -> CampaignWorkload {
        CampaignWorkload::Profile(p)
    }
}

/// A full fault-injection campaign description.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Benchmarks to inject into.
    pub workloads: Vec<CampaignWorkload>,
    /// System configuration every shard simulates.
    pub config: MeekConfig,
    /// Faults injected per workload.
    pub faults_per_workload: usize,
    /// Faults per shard (the parallel grain). Smaller shards spread
    /// better across threads; larger shards amortise warm-up.
    pub faults_per_shard: usize,
    /// Dynamic instructions of headroom per fault: each fault occupies
    /// the injector until its segment's verdict, which for masked
    /// checkpoint faults can lag several segments, so shards budget
    /// this many instructions per queued fault.
    pub insts_per_fault: u64,
    /// Campaign master seed: workload programs, fault sites, bits and
    /// arm points all derive from it.
    pub seed: u64,
    /// When `true`, every shard's run attaches the JSONL event
    /// observer and streams its structured event trace (segment opens,
    /// verdicts, injections, detections, rollbacks) to the sinks'
    /// trace channel — the diagnostics path for campaign failures.
    /// Trace output is re-sequenced into shard order like every other
    /// sink, so it stays byte-identical at any thread count.
    pub trace_events: bool,
    /// When non-zero, every shard's run attaches a
    /// [`meek_core::SamplingObserver`] keeping every `sample_stride`-th
    /// cycle's ROB-occupancy / fabric-depth sample, and streams the
    /// per-shard CSV time series to the sinks' sample channel
    /// (`meek-campaign --sample`). Re-sequenced into shard order like
    /// every other sink. `0` disables sampling.
    pub sample_stride: u64,
    /// When `true`, every shard's run attaches a
    /// [`meek_telemetry::MetricsObserver`] and ships its rendered
    /// registry (detection-latency histograms by site, verdict counts,
    /// occupancy distributions, …) to the sinks' metrics channel
    /// (`meek-campaign --metrics`). Registries are merged in shard
    /// order, so the merged output is byte-identical at any thread
    /// count. Occupancy histograms sample on the [`Self::sample_stride`]
    /// grid when sampling is on, else every
    /// [`DEFAULT_METRICS_STRIDE`]-th cycle.
    pub metrics: bool,
}

/// Default faults per shard.
pub const DEFAULT_FAULTS_PER_SHARD: usize = 25;
/// Default instruction headroom per queued fault. One fault occupies
/// the injector from arming until its segment's verdict; a masked
/// checkpoint fault can wait ~4 segments (~6 k instructions) for its
/// unreachability window, so 4 000 keeps the queue draining with no
/// faults left pending at end of shard.
pub const DEFAULT_INSTS_PER_FAULT: u64 = 4_000;
/// Floor on a shard's instruction budget (keeps tiny tail shards from
/// ending before their last fault's segment is verified).
pub const MIN_SHARD_INSTS: u64 = 5_000;
/// Occupancy-histogram sampling stride of `--metrics` when `--sample`
/// is off: dense enough to populate every bucket a run visits, sparse
/// enough that metric collection stays a rounding error next to the
/// simulation itself.
pub const DEFAULT_METRICS_STRIDE: u64 = 64;

impl CampaignSpec {
    /// A spec with the paper's Table II configuration and default
    /// sharding parameters.
    pub fn new(
        workloads: impl IntoIterator<Item = impl Into<CampaignWorkload>>,
        faults_per_workload: usize,
        seed: u64,
    ) -> CampaignSpec {
        CampaignSpec {
            workloads: workloads.into_iter().map(Into::into).collect(),
            config: MeekConfig::default(),
            faults_per_workload,
            faults_per_shard: DEFAULT_FAULTS_PER_SHARD,
            insts_per_fault: DEFAULT_INSTS_PER_FAULT,
            seed,
            trace_events: false,
            sample_stride: 0,
            metrics: false,
        }
    }

    /// The seed a workload's program is synthesised with (one build per
    /// benchmark per campaign, shared by all its shards). Committed
    /// real programs ignore it for codegen — assembly is deterministic —
    /// but it still keys the build cache.
    pub fn workload_seed(&self, name: &str) -> u64 {
        splitmix(self.seed ^ fnv1a(name))
    }

    /// Expands the grid into its dense shard list.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (no workloads, zero faults, or a
    /// zero shard/headroom parameter).
    pub fn shards(&self) -> Vec<ShardSpec> {
        assert!(!self.workloads.is_empty(), "campaign needs at least one workload");
        assert!(self.faults_per_workload > 0, "campaign needs at least one fault");
        assert!(self.faults_per_shard > 0, "faults_per_shard must be positive");
        assert!(self.insts_per_fault > 0, "insts_per_fault must be positive");
        let mut shards = Vec::new();
        for (workload_idx, w) in self.workloads.iter().enumerate() {
            let n_shards = self.faults_per_workload.div_ceil(self.faults_per_shard);
            for s in 0..n_shards {
                let faults =
                    self.faults_per_shard.min(self.faults_per_workload - s * self.faults_per_shard);
                // A committed real program runs once and exits, so its
                // shard budget — and with it the fault arm window — is
                // its measured dynamic length, not a headroom formula
                // sized for synthetic loops that fill any budget.
                let insts = match w {
                    CampaignWorkload::Profile(_) => {
                        (faults as u64 * self.insts_per_fault).max(MIN_SHARD_INSTS)
                    }
                    CampaignWorkload::Prog(k) => meek_progs::dynamic_len(k),
                    CampaignWorkload::ProgSet => meek_progs::set_dynamic_len(),
                };
                shards.push(ShardSpec {
                    index: shards.len(),
                    workload_idx,
                    workload: w.name(),
                    shard_in_workload: s as u32,
                    faults,
                    insts,
                    rng_seed: splitmix(
                        self.seed ^ fnv1a(w.name()) ^ (s as u64).wrapping_mul(0x9E37_79B9),
                    ),
                });
            }
        }
        shards
    }
}

/// One unit of parallel campaign work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Dense global index (the deterministic output order).
    pub index: usize,
    /// Index into [`CampaignSpec::workloads`].
    pub workload_idx: usize,
    /// Benchmark name.
    pub workload: &'static str,
    /// Shard position within its workload.
    pub shard_in_workload: u32,
    /// Faults this shard injects.
    pub faults: usize,
    /// Dynamic instruction budget for this shard's simulation.
    pub insts: u64,
    /// Seed of this shard's private RNG stream.
    pub rng_seed: u64,
}

impl ShardSpec {
    /// Generates this shard's fault queue: sites and bits drawn from the
    /// shard's RNG stream, arm points spread uniformly over the front
    /// 70 % of the instruction budget (mirroring the paper's random
    /// campaigns). The tail slack absorbs verdict latency: the injector
    /// holds one fault outstanding at a time, so a slow verdict slides
    /// every later arm point; without the slack, tail faults slip past
    /// the end of the run and count as pending.
    pub fn fault_specs(&self) -> Vec<FaultSpec> {
        let mut rng = SmallRng::seed_from_u64(self.rng_seed);
        random_fault_specs(self.faults, self.insts * 7 / 10, &mut rng)
    }
}

/// Resolves a suite selector to campaign workloads: `specint`,
/// `parsec`, `all`, `progs` (the committed real-program kernels plus
/// the fused multi-workload set), or a comma-separated list of
/// benchmark names — profile names, suite kernel names, and
/// `progs-set` may be mixed freely. The one vocabulary shared by
/// `meek-campaign --suite` and `meek-serve` job specs, so a spec means
/// the same thing on both paths.
///
/// # Errors
///
/// Returns a message naming the unknown benchmark (and the known ones)
/// when a name does not resolve.
pub fn resolve_suite(suite: &str) -> Result<Vec<CampaignWorkload>, String> {
    let profiles = |ps: Vec<BenchmarkProfile>| ps.into_iter().map(CampaignWorkload::from).collect();
    let progs = || -> Vec<CampaignWorkload> {
        meek_progs::KERNELS
            .iter()
            .map(CampaignWorkload::Prog)
            .chain([CampaignWorkload::ProgSet])
            .collect()
    };
    match suite {
        "specint" | "spec" | "specint2006" => Ok(profiles(spec_int_2006())),
        "parsec" | "parsec3" => Ok(profiles(parsec3())),
        "all" => Ok(profiles(spec_int_2006().into_iter().chain(parsec3()).collect())),
        "progs" => Ok(progs()),
        names => {
            let all: Vec<BenchmarkProfile> = spec_int_2006().into_iter().chain(parsec3()).collect();
            let mut picked = Vec::new();
            for name in names.split(',') {
                let name = name.trim();
                if let Some(p) = all.iter().find(|p| p.name == name) {
                    picked.push(CampaignWorkload::Profile(p.clone()));
                } else if let Some(k) = meek_progs::kernel(name) {
                    picked.push(CampaignWorkload::Prog(k));
                } else if name == meek_progs::SET_NAME {
                    picked.push(CampaignWorkload::ProgSet);
                } else {
                    let known: Vec<&str> = all
                        .iter()
                        .map(|p| p.name)
                        .chain(meek_progs::KERNELS.iter().map(|k| k.name))
                        .chain([meek_progs::SET_NAME])
                        .collect();
                    return Err(format!("unknown benchmark `{name}`; known: {}", known.join(", ")));
                }
            }
            Ok(picked)
        }
    }
}

/// FNV-1a, for mixing benchmark names into seed derivations.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 finaliser: decorrelates structured seed inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_workloads::parsec3;

    fn two_workload_spec() -> CampaignSpec {
        let profiles: Vec<BenchmarkProfile> = parsec3().into_iter().take(2).collect();
        CampaignSpec::new(profiles, 60, 0xC0FFEE)
    }

    #[test]
    fn grid_covers_every_fault_exactly_once() {
        let spec = two_workload_spec();
        let shards = spec.shards();
        // 60 faults / 25 per shard = 3 shards per workload (25+25+10).
        assert_eq!(shards.len(), 6);
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index, i, "dense global index");
        }
        for w in 0..2 {
            let per: Vec<&ShardSpec> = shards.iter().filter(|s| s.workload_idx == w).collect();
            assert_eq!(per.iter().map(|s| s.faults).sum::<usize>(), 60);
            assert_eq!(per.last().unwrap().faults, 10, "tail shard takes the remainder");
        }
    }

    #[test]
    fn shard_rng_streams_are_distinct_and_stable() {
        let spec = two_workload_spec();
        let a = spec.shards();
        let b = spec.shards();
        assert_eq!(a, b, "grid expansion is deterministic");
        let mut seeds: Vec<u64> = a.iter().map(|s| s.rng_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "every shard gets a private stream");
    }

    #[test]
    fn fault_specs_are_deterministic_and_ordered() {
        let spec = two_workload_spec();
        let shard = spec.shards()[0];
        let f1 = shard.fault_specs();
        let f2 = shard.fault_specs();
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 25);
        for w in f1.windows(2) {
            assert!(w[0].arm_at_commit <= w[1].arm_at_commit, "arm points ascend");
        }
        assert!(f1.iter().all(|f| f.bit < 64));
        assert!(
            f1.last().unwrap().arm_at_commit < shard.insts * 7 / 10,
            "arms stay in the front of the budget"
        );
    }

    #[test]
    fn seed_changes_move_the_faults() {
        let mut spec = two_workload_spec();
        let a = spec.shards()[0].fault_specs();
        spec.seed ^= 1;
        let b = spec.shards()[0].fault_specs();
        assert_ne!(a, b);
    }

    #[test]
    fn workload_seed_differs_per_benchmark() {
        let spec = two_workload_spec();
        assert_ne!(
            spec.workload_seed(spec.workloads[0].name()),
            spec.workload_seed(spec.workloads[1].name())
        );
    }

    #[test]
    fn suite_selectors_resolve() {
        assert!(!resolve_suite("specint").unwrap().is_empty());
        assert!(!resolve_suite("parsec").unwrap().is_empty());
        let all = resolve_suite("all").unwrap();
        assert_eq!(all.len(), resolve_suite("specint").unwrap().len() + parsec3().len());
        let one = resolve_suite(all[0].name()).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name(), all[0].name());
        let err = resolve_suite("not-a-benchmark").unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
    }

    #[test]
    fn progs_suite_resolves_kernels_plus_fused_set() {
        let progs = resolve_suite("progs").unwrap();
        assert_eq!(progs.len(), meek_progs::KERNELS.len() + 1);
        assert!(matches!(progs.last(), Some(CampaignWorkload::ProgSet)));
        // Kernel names, profile names, and the set name mix freely.
        let mixed = resolve_suite("memcpy,blackscholes,progs-set").unwrap();
        assert_eq!(mixed.len(), 3);
        assert!(matches!(&mixed[0], CampaignWorkload::Prog(k) if k.name == "memcpy"));
        assert!(matches!(&mixed[1], CampaignWorkload::Profile(p) if p.name == "blackscholes"));
        assert!(matches!(&mixed[2], CampaignWorkload::ProgSet));
        let err = resolve_suite("memcpy,bogus").unwrap_err();
        assert!(err.contains("progs-set"), "kernel names are listed as known: {err}");
    }

    #[test]
    fn prog_shards_use_the_measured_dynamic_length() {
        let k = meek_progs::kernel("memcpy").unwrap();
        let mut spec = CampaignSpec::new(
            vec![CampaignWorkload::Prog(k), CampaignWorkload::ProgSet],
            4,
            0xC0FFEE,
        );
        spec.faults_per_shard = 2;
        let shards = spec.shards();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0].workload, "memcpy");
        assert_eq!(shards[0].insts, meek_progs::dynamic_len(k));
        assert_eq!(shards[2].workload, meek_progs::SET_NAME);
        assert_eq!(shards[2].insts, meek_progs::set_dynamic_len());
        // Arm points must land inside what the program actually runs.
        for sh in &shards {
            for f in sh.fault_specs() {
                assert!(f.arm_at_commit < sh.insts, "{f:?} arms past the program end");
            }
        }
    }

    #[test]
    fn tiny_shards_keep_instruction_floor() {
        let profiles: Vec<BenchmarkProfile> = parsec3().into_iter().take(1).collect();
        let mut spec = CampaignSpec::new(profiles, 1, 1);
        spec.faults_per_shard = 1;
        let shards = spec.shards();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].insts, MIN_SHARD_INSTS);
    }
}
