//! Order statistics, the sim-domain digest and process memory.

/// Samples a reported percentile must have strictly beyond it. A p90
/// therefore needs at least 100 samples; with fewer it is not reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0.0..=1.0`) of ascending `sorted`,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps float error in `p * n` from skipping a rank.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over the deterministic results of a run. Two runs of the
/// same seed must produce the same digest, whatever the host speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    /// Folds a string in, length-prefixed so concatenations differ.
    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// This process's resident-set high-water mark in MiB (`VmHWM`), or
/// `None` where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds of CPU time the process's threads have run
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it leaves out the time
/// other processes, and on a virtual machine the hypervisor (steal time,
/// which the kernel accounts apart), took the CPU from them. It counts
/// every thread, so work a library hands to a worker thread of its own
/// while the caller waits is counted once, as the worker's.
///
/// # Panics
///
/// Panics when the clock cannot be read.
pub fn process_cpu_s() -> f64 {
    use std::ffi::{c_int, c_long};
    // Linux's `struct timespec`: `time_t` is a `long` there.
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through
    // `tp`, and `ts` is a live, writable value of that layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "cannot read the process CPU clock");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples is the 90th, with exactly ten beyond it.
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p50 needs 20 samples.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        // p99 needs 1000.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_is_order_and_boundary_sensitive() {
        let d = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.str(p);
            }
            d.value()
        };
        assert_eq!(d(&["ab", "c"]), d(&["ab", "c"]));
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
        assert_ne!(d(&["c", "ab"]), d(&["ab", "c"]));
    }

    #[test]
    fn the_process_cpu_clock_counts_work() {
        // Other tests run on other threads of this process, so only a
        // lower bound holds.
        let mut x = 1u64;
        let t0 = process_cpu_s();
        let wall = std::time::Instant::now();
        while wall.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let busy = process_cpu_s() - t0;
        assert!(busy > 0.005, "work counted only {busy} s");
    }
}
