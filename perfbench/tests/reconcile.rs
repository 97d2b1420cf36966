//! The benchmark's workloads must compute what the command-line front
//! ends report for the same size and seed: `difftest_fuzzed` against
//! `meek-difftest --threads 1`, `campaign_profiles` against
//! `meek-campaign --threads 1`. The CLIs are built from the repository
//! into this test's scratch directory.

use meek_perfbench::trace::Tracer;
use meek_perfbench::workloads::campaign_profiles::{CampaignProfiles, FAULTS_PER_SHARD};
use meek_perfbench::workloads::difftest_fuzzed::DifftestFuzzed;
use meek_perfbench::workloads::fuzz_chunked::FuzzChunked;
use meek_perfbench::workloads::{Bench, UnitOutcome};
use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

const SEED: u64 = 7;

/// Builds the two CLIs once and returns their directory.
fn cli_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-target");
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
            .arg(&manifest)
            .args(["-p", "meek-difftest", "-p", "meek-campaign"])
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the CLIs failed");
        target.join("release")
    })
}

fn cli(bin: &str, args: &[String]) -> String {
    let out = Command::new(cli_dir().join(bin)).args(args).output().expect("the CLI runs");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn units<B: Bench>(b: &mut B) -> Vec<UnitOutcome> {
    let mut tr = Tracer::new(false);
    (0..b.pass_len()).map(|i| b.run_unit(i, &mut tr)).collect()
}

fn sum(outs: &[UnitOutcome], f: fn(&UnitOutcome) -> u64) -> u64 {
    outs.iter().map(f).sum()
}

fn mean_latency(outs: &[UnitOutcome]) -> f64 {
    let lat: Vec<f64> = outs.iter().flat_map(|o| o.latencies_ns.iter().copied()).collect();
    lat.iter().sum::<f64>() / lat.len() as f64
}

fn assert_contains(out: &str, want: &str) {
    assert!(out.contains(want), "CLI output lacks `{want}`:\n{out}");
}

#[test]
fn difftest_fuzzed_totals_equal_the_difftest_cli() {
    let cases = 40;
    let outs = units(&mut DifftestFuzzed::with_cases(SEED, cases, &mut Tracer::new(false)));
    let args = ["--cases", &cases.to_string(), "--seed", &SEED.to_string(), "--threads", "1"];
    let out = cli("meek-difftest", &args.map(String::from));
    let diverged = outs.iter().filter(|o| o.unit_failed).count();
    assert_contains(&out, &format!("{} instruction(s) co-simulated", sum(&outs, |o| o.executed)));
    assert_contains(&out, &format!("{diverged} divergence(s)"));
    assert_contains(
        &out,
        &format!(
            "coverage: {} fault(s) — {} detected",
            sum(&outs, |o| o.faults),
            sum(&outs, |o| o.detected)
        ),
    );
    assert_contains(
        &out,
        &format!(
            "{} masked-proven-benign, {} pending, {} ESCAPED",
            sum(&outs, |o| o.masked),
            sum(&outs, |o| o.pending),
            sum(&outs, |o| o.escaped)
        ),
    );
    assert_contains(&out, &format!("mean detection latency: {:.1} ns", mean_latency(&outs)));
}

#[test]
fn campaign_profiles_totals_equal_the_campaign_cli() {
    let faults = 10;
    let mut b = CampaignProfiles::with_campaigns(SEED, 1, faults, &mut Tracer::new(false));
    let outs = units(&mut b);
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("campaign-out");
    let mut args: Vec<String> =
        ["--suite", "all", "--threads", "1", "--quiet", "--faults"].map(String::from).to_vec();
    args.extend([faults.to_string(), "--shard-faults".into(), FAULTS_PER_SHARD.to_string()]);
    let seed = CampaignProfiles::campaign_seed(SEED, 0);
    args.extend(["--seed".into(), seed.to_string(), "--out".into()]);
    args.push(out_dir.display().to_string());
    let out = cli("meek-campaign", &args);
    assert_contains(
        &out,
        &format!(
            "total: {} injected, {} detected, {} masked, {} pending",
            sum(&outs, |o| o.faults),
            sum(&outs, |o| o.detected),
            sum(&outs, |o| o.masked),
            sum(&outs, |o| o.pending)
        ),
    );
    assert_contains(
        &out,
        &format!(
            "simulated {} cycles / {} insts across {} shards",
            sum(&outs, |o| o.cycles),
            sum(&outs, |o| o.committed),
            outs.len()
        ),
    );
    assert_contains(&out, &format!("latency: mean {:.1} ns", mean_latency(&outs)));
}

#[test]
fn a_repeated_pass_reproduces_its_digests() {
    // Two jobs of two chunks: the corpus is carried within a job and
    // restarts empty at the job boundary and at the pass boundary.
    let mut b = FuzzChunked::with_jobs(SEED, 2, 2);
    let first: Vec<u64> = units(&mut b).iter().map(|o| o.digest).collect();
    let again: Vec<u64> = units(&mut b).iter().map(|o| o.digest).collect();
    assert_eq!(first, again);
    assert_eq!(first.len(), 4);
    assert!(b.integrity_errors().is_empty(), "{:?}", b.integrity_errors());
}
