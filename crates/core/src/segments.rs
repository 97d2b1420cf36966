//! Segment-to-checker scheduling: the OS-side management of checker
//! threads (paper §IV-B).
//!
//! The LSL is reserved for a single checker thread at scheduling time
//! (`b.hook`), and a checker pinned to an application thread cannot
//! migrate before its re-execution completes. Ownership returns to the
//! OS at the end of each checkpoint, so segments are handed to whichever
//! hooked little core is idle — round-robin when several are.

use meek_littlecore::LittleCore;
use std::collections::HashMap;

/// Tracks which little core verifies which segment.
#[derive(Debug, Clone, Default)]
pub struct SegmentManager {
    assignments: HashMap<u32, usize>,
    /// Segments whose verdict has been delivered, with the verdict
    /// (`true` = passed). A failed segment concludes as soon as the
    /// mismatch is reported — possibly while the big core is still
    /// producing its records — and must never be re-opened, except by a
    /// recovery rollback, which voids verdicts wholesale.
    concluded: HashMap<u32, bool>,
    /// Largest `k` such that segments `1..=k` have all concluded — the
    /// recovery subsystem's readiness gate: a rollback to segment `t`
    /// waits until `concluded_through() >= t - 1`, so every verdict it
    /// leaves standing is final.
    prefix: u32,
    next_rr: usize,
    /// Total segments opened.
    pub opened: u64,
    /// `(segment, checker)` pairs opened since the last
    /// [`SegmentManager::take_opened`] — the system drains this every
    /// cycle to emit typed `SegmentOpened` events.
    opened_log: Vec<(u32, usize)>,
}

impl SegmentManager {
    /// Creates an empty manager.
    pub fn new() -> SegmentManager {
        SegmentManager::default()
    }

    /// The checker core verifying `seg`, if one was assigned.
    pub fn checker_of(&self, seg: u32) -> Option<usize> {
        self.assignments.get(&seg).copied()
    }

    /// Tries to open segment `seg` on an idle hooked core (round-robin
    /// tie-break). Returns the chosen core id, or `None` when every
    /// checker is still busy — the caller must stall, exactly the
    /// "computation-bound" backpressure of §V-D.
    pub fn try_open(&mut self, seg: u32, littles: &mut [LittleCore]) -> Option<usize> {
        if self.concluded.contains_key(&seg) {
            return None; // verdict already delivered; never re-open
        }
        if let Some(&c) = self.assignments.get(&seg) {
            return Some(c); // already open
        }
        let n = littles.len();
        for probe in 0..n {
            let c = (self.next_rr + probe) % n;
            if littles[c].is_idle() {
                littles[c].assign(seg);
                self.assignments.insert(seg, c);
                self.next_rr = (c + 1) % n;
                self.opened += 1;
                self.opened_log.push((seg, c));
                return Some(c);
            }
        }
        None
    }

    /// Releases bookkeeping for a finished segment and records its
    /// verdict.
    pub fn finish(&mut self, seg: u32, pass: bool) {
        self.assignments.remove(&seg);
        self.concluded.insert(seg, pass);
        while self.concluded.contains_key(&(self.prefix + 1)) {
            self.prefix += 1;
        }
    }

    /// Largest `k` such that segments `1..=k` have all delivered
    /// verdicts.
    pub fn concluded_through(&self) -> u32 {
        self.prefix
    }

    /// Whether `seg` has already delivered its verdict.
    pub fn is_concluded(&self, seg: u32) -> bool {
        self.concluded.contains_key(&seg)
    }

    /// Voids every assignment and every verdict for segments at or
    /// after `first_seg` — a recovery rollback re-executes them from
    /// scratch. Returns the number of voided verdicts that had *passed*
    /// (the caller deducts them from its verified-segment count; failed
    /// verdicts stay counted, they are the detections that triggered
    /// recovery). The caller is responsible for resetting the little
    /// cores the voided assignments pointed at.
    pub fn rollback(&mut self, first_seg: u32) -> u64 {
        self.assignments.retain(|&seg, _| seg < first_seg);
        let mut voided_passes = 0;
        self.concluded.retain(|&seg, &mut pass| {
            if seg >= first_seg {
                voided_passes += u64::from(pass);
                false
            } else {
                true
            }
        });
        self.prefix = self.prefix.min(first_seg.saturating_sub(1));
        voided_passes
    }

    /// Drains the `(segment, checker)` open log accumulated since the
    /// last call.
    pub fn take_opened(&mut self) -> Vec<(u32, usize)> {
        std::mem::take(&mut self.opened_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_littlecore::LittleCoreConfig;

    fn cores(n: usize) -> Vec<LittleCore> {
        (0..n).map(|i| LittleCore::new(i, LittleCoreConfig::optimized(), 17)).collect()
    }

    #[test]
    fn round_robin_over_idle_cores() {
        let mut mgr = SegmentManager::new();
        let mut littles = cores(3);
        assert_eq!(mgr.try_open(1, &mut littles), Some(0));
        assert_eq!(mgr.try_open(2, &mut littles), Some(1));
        assert_eq!(mgr.try_open(3, &mut littles), Some(2));
        // All busy now.
        assert_eq!(mgr.try_open(4, &mut littles), None);
        assert!((1..=3).all(|seg| mgr.checker_of(seg).is_some()), "three segments open");
    }

    #[test]
    fn reopen_is_idempotent() {
        let mut mgr = SegmentManager::new();
        let mut littles = cores(2);
        let a = mgr.try_open(1, &mut littles);
        let b = mgr.try_open(1, &mut littles);
        assert_eq!(a, b);
        assert_eq!(mgr.opened, 1);
    }

    #[test]
    fn checker_of_reflects_assignment() {
        let mut mgr = SegmentManager::new();
        let mut littles = cores(2);
        mgr.try_open(1, &mut littles);
        assert_eq!(mgr.checker_of(1), Some(0));
        assert_eq!(mgr.checker_of(2), None);
        mgr.finish(1, true);
        assert_eq!(mgr.checker_of(1), None);
    }

    #[test]
    fn rollback_voids_verdicts_and_counts_passes() {
        let mut mgr = SegmentManager::new();
        let mut littles = cores(3);
        for seg in 1..=3 {
            mgr.try_open(seg, &mut littles);
        }
        mgr.finish(1, true);
        mgr.finish(2, false); // the detection
        mgr.finish(3, true); // out-of-order pass, now suspect
        assert_eq!(mgr.concluded_through(), 3);
        let voided = mgr.rollback(2);
        assert_eq!(voided, 1, "only segment 3's pass is voided");
        assert_eq!(mgr.concluded_through(), 1, "the verdict prefix rewinds with the rollback");
        assert!(mgr.is_concluded(1), "verdicts before the rollback stand");
        assert!(!mgr.is_concluded(2), "the failed segment re-opens");
        assert!(!mgr.is_concluded(3));
        assert!((1..=3).all(|seg| mgr.checker_of(seg).is_none()), "no segment left open");
    }
}
