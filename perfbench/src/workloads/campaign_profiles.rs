//! `campaign_profiles`: multi-fault shards over all 20 SPEC/PARSEC
//! profiles, as `meek-campaign --suite all --shard-faults 10` runs them.
//!
//! Chosen because each shard runs a ~40k-instruction profile program
//! with ten faults queued, so the steady-state MEEK tick (big core,
//! fabric, checkers, DEU) dominates and no fault-free prefix is
//! re-simulated: fork-at-arm-point should change nothing here, while an
//! event-driven issue stage should show most clearly. Codegen of the
//! programs is the set-up. Unit: one shard.
//!
//! One pass is several campaigns, each with its own seed derived from
//! the run's seed and so its own 20 synthesised programs: detection
//! latency depends strongly on the program, and 20 programs alone make
//! the latency percentiles swing from seed to seed. The pass interleaves
//! the campaigns' shards (first shards of every profile of every
//! campaign, then second shards, and so on, profiles innermost), so a
//! timed phase that ends partway through a pass still ran every profile
//! about equally often.

use super::{unit_seed, Bench, ProbeInput, UnitOutcome, LITTLE_CORES};
use crate::stats::Digest;
use crate::trace::Tracer;
use meek_campaign::{resolve_suite, run_shard, CampaignSpec, CampaignWorkload, ShardSpec};
use meek_core::{validate_config, MeekConfig};
use meek_workloads::WorkloadCache;

/// Campaigns in one pass.
pub const CAMPAIGNS: usize = 5;
/// Faults per profile in each campaign.
pub const FAULTS_PER_PROFILE: usize = 30;
/// Faults per shard.
pub const FAULTS_PER_SHARD: usize = 10;

/// One campaign: its spec, shard list and built programs.
struct Campaign {
    spec: CampaignSpec,
    cache: WorkloadCache,
    shards: Vec<ShardSpec>,
}

impl Campaign {
    /// The campaign `meek-campaign --suite all --faults <faults>
    /// --shard-faults 10 --seed <seed>` runs, with every program built.
    fn new(seed: u64, faults: usize, tr: &mut Tracer) -> Campaign {
        let workloads = resolve_suite("all").expect("the `all` suite resolves");
        let mut spec = CampaignSpec::new(workloads, faults, seed);
        spec.faults_per_shard = FAULTS_PER_SHARD;
        spec.config = MeekConfig::with_little_cores(LITTLE_CORES);
        validate_config(&spec.config).expect("the campaign configuration is valid");
        let cache = WorkloadCache::new();
        for w in &spec.workloads {
            if let CampaignWorkload::Profile(p) = w {
                let seed = spec.workload_seed(p.name);
                tr.scope("workloads.build_ms", |_| cache.get(p, seed));
            }
        }
        let shards = spec.shards();
        Campaign { spec, cache, shards }
    }
}

/// Prepared campaigns, their shards run interleaved.
pub struct CampaignProfiles {
    campaigns: Vec<Campaign>,
    /// The pass: `(campaign, shard)` indices in run order.
    order: Vec<(usize, usize)>,
    errors: Vec<String>,
}

impl CampaignProfiles {
    /// The seed of campaign `idx` of a run with seed `seed`.
    pub fn campaign_seed(seed: u64, idx: usize) -> u64 {
        unit_seed(seed, idx as u64)
    }

    /// `campaigns` campaigns of `faults` faults per profile.
    pub fn with_campaigns(
        seed: u64,
        campaigns: usize,
        faults: usize,
        tr: &mut Tracer,
    ) -> CampaignProfiles {
        let campaigns: Vec<Campaign> = (0..campaigns)
            .map(|c| Campaign::new(CampaignProfiles::campaign_seed(seed, c), faults, tr))
            .collect();
        let mut order: Vec<(usize, usize)> = campaigns
            .iter()
            .enumerate()
            .flat_map(|(c, camp)| (0..camp.shards.len()).map(move |s| (c, s)))
            .collect();
        order.sort_by_key(|&(c, s)| {
            let shard = &campaigns[c].shards[s];
            (shard.shard_in_workload, c, shard.workload_idx)
        });
        CampaignProfiles { campaigns, order, errors: Vec::new() }
    }

    fn shard(&self, idx: usize) -> (&Campaign, &ShardSpec) {
        let (c, s) = self.order[idx];
        (&self.campaigns[c], &self.campaigns[c].shards[s])
    }
}

impl Bench for CampaignProfiles {
    fn setup(seed: u64, tr: &mut Tracer) -> CampaignProfiles {
        CampaignProfiles::with_campaigns(seed, CAMPAIGNS, FAULTS_PER_PROFILE, tr)
    }

    fn pass_len(&self) -> usize {
        self.order.len()
    }

    fn run_unit(&mut self, idx: usize, tr: &mut Tracer) -> UnitOutcome {
        let (c, shard) = self.shard(idx);
        let r = tr.scope("campaign.shard_ms", |_| run_shard(&c.spec, &c.cache, shard));
        let s = &r.summary;
        let mut d = Digest::default();
        d.str(s.workload).u64(u64::from(s.shard));
        for rec in &r.records {
            let det = &rec.detection;
            d.str(det.site.name()).u64(det.injected_cycle).u64(det.detected_cycle);
            d.u64(u64::from(det.seg));
        }
        let failures = (s.pending > 0)
            .then(|| {
                format!(
                    "{} fault(s) without a verdict in {} shard {}",
                    s.pending, s.workload, s.shard
                )
            })
            .into_iter()
            .collect();
        let out = UnitOutcome {
            failures,
            faults: s.faults as u64,
            verdicts: (s.faults - s.pending) as u64,
            detected: s.detected as u64,
            masked: s.masked,
            pending: s.pending as u64,
            failed_faults: s.pending as u64,
            latencies_ns: r.records.iter().map(|rec| rec.detection.latency_ns).collect(),
            committed: s.committed,
            cycles: s.cycles,
            rollbacks: s.rollbacks,
            ..UnitOutcome::default()
        };
        if out.detected + out.masked + out.pending != out.faults {
            self.errors.push(format!("shard {idx}: verdicts do not add up to the faults queued"));
        }
        out.fold_counts(&mut d);
        UnitOutcome { digest: d.value(), ..out }
    }

    fn integrity_errors(&self) -> Vec<String> {
        self.errors.clone()
    }

    fn probe_inputs(&self) -> Vec<ProbeInput> {
        // One fault-free run per program of the first campaign, at its
        // shards' budget.
        let c = &self.campaigns[0];
        let mut inputs: Vec<ProbeInput> = Vec::new();
        for shard in c.shards.iter().filter(|s| s.shard_in_workload == 0) {
            let CampaignWorkload::Profile(p) = &c.spec.workloads[shard.workload_idx] else {
                continue;
            };
            let workload = c.cache.get(p, c.spec.workload_seed(p.name));
            inputs.push(ProbeInput { workload, insts: shard.insts });
        }
        inputs
    }
}
