//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual CPUs whose speed drifts by tens
//! of percent, over seconds and over minutes, on unchanged code and
//! inputs. A fixed reference kernel, owned by the benchmark and run in
//! short slices between units, measures that speed as it drifts. Each
//! host time is rescaled by the slices around it to a host on which one
//! slice takes [`NOMINAL_SLICE_S`]. A change to the program moves the
//! rescaled times; a change in host speed moves the program and the
//! slices alike and cancels out.
//!
//! The kernel is ordinary compiled code of the simulator's kind: sorting
//! and hash-map work (branchy, data-dependent) and table lookups over
//! four independent streams (high instruction-level parallelism), all in
//! a working set that fits the L2 cache. Each slice runs the kernel once
//! untimed and once timed, so that it does not depend on how much of its
//! data the preceding unit evicted.
//!
//! Slices, set-ups and units are all timed in process CPU time
//! ([`process_cpu_s`]), so time the hypervisor or another process took
//! from the benchmark is left out of every timing; the
//! calibration then rescales what is left for the speed the CPU ran at.

use crate::stats::{median, process_cpu_s};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Table entries (128 KiB of `u64`).
const TABLE_LEN: usize = 1 << 14;
/// Seconds one timed slice takes on the reference host: the median
/// slice of the 2-vCPU host the parent numbers in `NOTES.md` were
/// measured on.
pub const NOMINAL_SLICE_S: f64 = 3.3e-4;
/// Host seconds between slices, at least.
pub const SLICE_EVERY_S: f64 = 0.1;
/// Seconds on either side of a time whose slices set its scale.
pub const WINDOW_S: f64 = 1.0;
/// Slices a scale is the median of, at least.
pub const MIN_WINDOW_SLICES: usize = 5;

/// The reference kernel and the slices measured so far.
pub struct Calibrator {
    table: Vec<u64>,
    epoch: Instant,
    /// (seconds since `epoch` at the slice's middle, timed seconds),
    /// in time order.
    slices: Vec<(f64, f64)>,
    last: f64,
    seconds: f64,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x = crate::workloads::splitmix(x);
                x
            })
            .collect();
        Calibrator {
            table,
            epoch: Instant::now(),
            slices: Vec::new(),
            last: f64::NEG_INFINITY,
            seconds: 0.0,
        }
    }
}

impl Calibrator {
    /// Seconds since the calibrator was made; the clock every scaled
    /// time is placed on.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs one slice and records its timed seconds (process CPU
    /// time, as every timing the slices rescale).
    pub fn slice(&mut self) {
        let t0 = self.now();
        black_box(kernel(&mut self.table));
        let c1 = process_cpu_s();
        black_box(kernel(&mut self.table));
        let timed = process_cpu_s() - c1;
        let t2 = self.now();
        self.slices.push((t2 - timed / 2.0, timed));
        self.last = t2;
        self.seconds += t2 - t0;
    }

    /// Runs a slice when [`SLICE_EVERY_S`] have passed since the last
    /// one.
    pub fn slice_if_due(&mut self) {
        if self.now() - self.last >= SLICE_EVERY_S {
            self.slice();
        }
    }

    /// Slices run so far.
    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// Host seconds spent in slices so far, untimed runs included.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Median timed seconds of all slices so far.
    ///
    /// # Panics
    ///
    /// Panics before the first slice.
    pub fn median_slice_s(&self) -> f64 {
        let all: Vec<f64> = self.slices.iter().map(|s| s.1).collect();
        median(&all)
    }

    /// The factor that rescales a host time measured around `at` (on
    /// the [`Calibrator::now`] clock) to the reference host:
    /// [`NOMINAL_SLICE_S`] over the median of the slices within
    /// [`WINDOW_S`] of `at`, or of the [`MIN_WINDOW_SLICES`] nearest to
    /// it when the window holds fewer. Below 1 when the host ran slower
    /// than the reference.
    ///
    /// # Panics
    ///
    /// Panics before the first slice.
    pub fn scale_at(&self, at: f64) -> f64 {
        NOMINAL_SLICE_S / window_median(&self.slices, at)
    }
}

/// Median timed seconds of the slices around `at`: those within
/// [`WINDOW_S`], widened to the [`MIN_WINDOW_SLICES`] nearest.
fn window_median(slices: &[(f64, f64)], at: f64) -> f64 {
    assert!(!slices.is_empty(), "no calibration slice");
    let mut lo = slices.partition_point(|s| s.0 < at - WINDOW_S);
    let mut hi = slices.partition_point(|s| s.0 <= at + WINDOW_S);
    while hi - lo < MIN_WINDOW_SLICES.min(slices.len()) {
        let left = (lo > 0).then(|| at - slices[lo - 1].0);
        let right = (hi < slices.len()).then(|| slices[hi].0 - at);
        match (left, right) {
            (Some(l), Some(r)) if l <= r => lo -= 1,
            (Some(_), None) => lo -= 1,
            _ => hi += 1,
        }
    }
    let near: Vec<f64> = slices[lo..hi].iter().map(|s| s.1).collect();
    median(&near)
}

/// One run of the reference kernel over `table`. The work is the same
/// on every call; only the table's contents evolve.
fn kernel(table: &mut [u64]) -> u64 {
    let few = &table[..1 << 11];
    let mut keys: Vec<u32> = few.iter().map(|&x| x as u32).collect();
    keys.sort_unstable();
    let mut wide: Vec<u64> = few.iter().map(|&x| x.rotate_left(17)).collect();
    wide.sort();
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(few.len());
    for (i, &x) in few.iter().enumerate() {
        *counts.entry(x & 0xfff).or_insert(0) += i as u64;
    }
    let mut sum = u64::from(keys[keys.len() / 2]) ^ wide[wide.len() / 3];
    for &x in few {
        sum = sum.wrapping_add(*counts.get(&(x.rotate_left(3) & 0xfff)).unwrap_or(&7));
    }
    sum ^ streams(table, 1 << 13)
}

/// `steps` rounds of four independent lookup streams over `table` (a
/// power of two long).
fn streams(table: &mut [u64], steps: usize) -> u64 {
    let mask = table.len() - 1;
    let mut x = [1u64, 2, 3, 4];
    let mut acc = [0u64; 4];
    for _ in 0..steps {
        for (x, acc) in x.iter_mut().zip(acc.iter_mut()) {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let v = table[*x as usize & mask];
            if v & 7 == 0 {
                *acc = acc.wrapping_mul(v | 1);
                table[(*x >> 20) as usize & mask] = *acc;
            } else {
                *acc = acc.wrapping_add(v >> (*x & 15));
            }
        }
    }
    acc.iter().fold(0, |a, &b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_widens_to_the_nearest_slices() {
        let slices: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 0.5, i as f64)).collect();
        // Within one second of 5.0: the slices at 4.0..=6.0.
        assert_eq!(window_median(&slices, 5.0), 10.0);
        // Far past the end: the five last slices.
        assert_eq!(window_median(&slices, 100.0), 17.0);
        // Fewer slices than the minimum: all of them.
        assert_eq!(window_median(&slices[..3], 0.0), 1.0);
    }

    #[test]
    fn scale_is_nominal_over_the_local_median() {
        let mut c = Calibrator::default();
        for _ in 0..3 {
            c.slice();
        }
        assert_eq!(c.slices(), 3);
        assert!(c.seconds() > 0.0);
        let at = c.now();
        let local = window_median(&c.slices, at);
        assert!((c.scale_at(at) * local - NOMINAL_SLICE_S).abs() < 1e-12);
    }
}
