//! A timing-only set-associative cache with LRU replacement and an MSHR
//! file bounding outstanding misses.
//!
//! The cache tracks tags, not data: the functional value of every address
//! lives in the simulator's `SparseMemory`. An access therefore answers
//! only "hit or miss, and when can the core use the result".

use crate::config::CacheConfig;

/// Whether an access reads or writes (write-allocate, write-back policy;
/// writes that hit are not distinguished from reads in timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read (load or instruction fetch).
    Read,
    /// Write (store).
    Write,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Cycles an access was delayed because every MSHR was busy.
    pub mshr_stall_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// The state of every way of a set that no access has filled yet.
const COLD_LINE: Line = Line { tag: 0, valid: false, lru: 0 };

/// Result of probing one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    Hit,
    /// Miss; the access must go to the next level. Contains the cycle at
    /// which an MSHR became available (≥ the request time when the MSHR
    /// file was full, or when a same-line miss will be resolved).
    Miss {
        issue_at: u64,
        merged: bool,
    },
}

/// A timing-only set-associative cache.
///
/// The tag store is sparse: a set's lines exist only once a fill has
/// touched it, so building, cloning and dropping a cache costs a 4-byte
/// slot per set plus `ways` lines per touched set, not the whole tag
/// array. An untouched set behaves exactly like a set of cold lines.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: u32,
    line_bits: u32,
    /// Per-set index into `arena`: 0 = untouched, `k` = the set's ways
    /// are `arena[(k - 1) * ways..k * ways]`.
    slots: Vec<u32>,
    /// The touched sets' lines, `ways` per set, in first-fill order.
    arena: Vec<Line>,
    /// Outstanding misses: (line address, resolve time).
    mshrs: Vec<(u64, u64)>,
    lru_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            line_bits: cfg.line.trailing_zeros(),
            slots: vec![0; sets as usize],
            arena: Vec::new(),
            mshrs: Vec::new(),
            lru_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Hit latency of this level.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_bits
    }

    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr % self.sets as u64) as usize
    }

    /// Arena range of a touched set's ways; `None` if the set is untouched.
    fn set_range(&self, set: usize) -> Option<std::ops::Range<usize>> {
        let w = self.cfg.ways as usize;
        match self.slots[set] as usize {
            0 => None,
            k => Some((k - 1) * w..k * w),
        }
    }

    /// Number of touched sets, i.e. sets holding lines in the arena.
    #[cfg(test)]
    pub(crate) fn touched_sets(&self) -> usize {
        self.arena.len() / self.cfg.ways as usize
    }

    /// Probes the tag array at `now`; on a hit the line's LRU stamp is
    /// refreshed. On a miss an MSHR is allocated (waiting for a free one
    /// if necessary) and the caller sends the access down a level; it must
    /// then call [`Cache::fill`] with the resolve time.
    pub(crate) fn probe(&mut self, addr: u64, now: u64) -> Probe {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let tag = la;
        if let Some(range) = self.set_range(set) {
            for line in &mut self.arena[range] {
                if line.valid && line.tag == tag {
                    line.lru = clock;
                    self.stats.hits += 1;
                    return Probe::Hit;
                }
            }
        }
        self.stats.misses += 1;
        // Retire resolved MSHRs.
        self.mshrs.retain(|&(_, t)| t > now);
        // Merge with an outstanding miss to the same line.
        if let Some(&(_, t)) = self.mshrs.iter().find(|&&(l, _)| l == la) {
            return Probe::Miss { issue_at: t, merged: true };
        }
        let issue_at = if (self.mshrs.len() as u32) < self.cfg.mshrs {
            now
        } else {
            // All MSHRs busy: wait for the earliest to resolve.
            let earliest = self.mshrs.iter().map(|&(_, t)| t).min().unwrap_or(now);
            self.stats.mshr_stall_cycles += earliest.saturating_sub(now);
            self.mshrs.retain(|&(_, t)| t > earliest);
            earliest
        };
        Probe::Miss { issue_at, merged: false }
    }

    /// Registers the resolve time of a miss issued by [`Cache::probe`] and
    /// installs the line (LRU victim) so subsequent probes hit.
    pub(crate) fn fill(&mut self, addr: u64, resolve_at: u64) {
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        self.mshrs.push((la, resolve_at));
        let fresh = self.slots[set] == 0;
        if fresh {
            // First fill of this set: materialize its cold ways.
            self.arena.resize(self.arena.len() + self.cfg.ways as usize, COLD_LINE);
            self.slots[set] = (self.arena.len() / self.cfg.ways as usize) as u32;
        }
        let range = self.set_range(set).expect("set was just materialized");
        // Reuse an invalid way if present, else evict the LRU way.
        let victim = self.arena[range]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("cache has at least one way");
        victim.tag = la;
        victim.valid = true;
        victim.lru = clock;
        // Debug builds check the filled set after every fill, and the whole
        // store each time the number of touched sets reaches a power of
        // two, so the checks cost no more than the arena's own growth.
        #[cfg(debug_assertions)]
        {
            self.check_set(set);
            if fresh && self.slots[set].is_power_of_two() {
                self.check_invariants();
            }
        }
    }

    /// Invalidates every line (used when the MSU resets a little core).
    pub fn flush(&mut self) {
        for line in &mut self.arena {
            line.valid = false;
        }
        self.mshrs.clear();
    }

    /// Convenience for tests: true if the address is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        self.set_range(self.set_of(la))
            .is_some_and(|range| self.arena[range].iter().any(|l| l.valid && l.tag == la))
    }

    /// Checks the sparse tag store's structure, panicking on a breach:
    /// the arena holds `ways` lines per touched set, the touched sets'
    /// slots are distinct and in range, and every valid line's tag maps
    /// back to the set that holds it. Debug builds run it from `fill`.
    pub fn check_invariants(&self) {
        let w = self.cfg.ways as usize;
        let touched = self.arena.len() / w;
        assert_eq!(self.arena.len(), touched * w, "arena is not whole sets");
        let mut claimed = vec![false; touched];
        for set in (0..self.slots.len()).filter(|&s| self.slots[s] != 0) {
            let k = self.slots[set] as usize;
            assert!(k <= touched, "set {set}: slot {k} beyond {touched} touched sets");
            assert!(!std::mem::replace(&mut claimed[k - 1], true), "slot {k} shared by two sets");
            self.check_set(set);
        }
        assert!(claimed.iter().all(|&c| c), "arena holds an orphaned set");
    }

    /// Checks that every valid line of a touched `set` belongs to it.
    fn check_set(&self, set: usize) {
        let range = self.set_range(set).expect("set is touched");
        for line in self.arena[range].iter().filter(|l| l.valid) {
            assert_eq!(self.set_of(line.tag), set, "tag {:#x} in set {set}", line.tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig { size: 256, ways: 2, line: 64, mshrs: 2, hit_latency: 1 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(c.probe(0x100, 0), Probe::Miss { issue_at: 0, merged: false }));
        c.fill(0x100, 10);
        assert_eq!(c.probe(0x100, 11), Probe::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn same_line_hits() {
        let mut c = tiny();
        c.probe(0x100, 0);
        c.fill(0x100, 5);
        // Any address on the same 64 B line hits.
        assert_eq!(c.probe(0x13F, 6), Probe::Hit);
        assert!(matches!(c.probe(0x140, 6), Probe::Miss { .. }));
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Set 0 holds line addresses with (la % 2 == 0): 0x000, 0x080, 0x100 ...
        c.probe(0x000, 0);
        c.fill(0x000, 1);
        c.probe(0x080, 2);
        c.fill(0x080, 3);
        // Touch 0x000 so 0x080 becomes LRU.
        assert_eq!(c.probe(0x000, 4), Probe::Hit);
        c.probe(0x100, 5);
        c.fill(0x100, 6);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080), "LRU way should have been evicted");
        assert!(c.contains(0x100));
    }

    #[test]
    fn mshr_merging() {
        let mut c = tiny();
        assert!(matches!(c.probe(0x200, 0), Probe::Miss { merged: false, .. }));
        c.fill(0x200, 50);
        // A different word on the same missing line merges with the MSHR.
        // (The line is installed at fill, so probe again on a *different*
        // line mapping to the same set to check non-merge behaviour.)
        let p = c.probe(0x280, 1);
        assert!(matches!(p, Probe::Miss { merged: false, .. }));
    }

    #[test]
    fn mshr_full_delays_issue() {
        let mut c =
            Cache::new(CacheConfig { size: 256, ways: 2, line: 64, mshrs: 1, hit_latency: 1 });
        c.probe(0x000, 0);
        c.fill(0x000, 100);
        // Second miss while the only MSHR is busy: issue waits until 100.
        match c.probe(0x040, 1) {
            Probe::Miss { issue_at, merged } => {
                assert_eq!(issue_at, 100);
                assert!(!merged);
            }
            p => panic!("expected miss, got {p:?}"),
        }
        assert!(c.stats().mshr_stall_cycles >= 99);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.probe(0x100, 0);
        c.fill(0x100, 1);
        assert!(c.contains(0x100));
        c.flush();
        assert!(!c.contains(0x100));
        assert!(matches!(c.probe(0x100, 10), Probe::Miss { .. }));
    }

    /// The dense tag store the sparse one replaced: every set's lines
    /// exist from construction. The reference the property test checks
    /// `Cache` against.
    struct DenseCache {
        cfg: CacheConfig,
        sets: u64,
        lines: Vec<Line>,
        mshrs: Vec<(u64, u64)>,
        lru_clock: u64,
        stats: CacheStats,
    }

    impl DenseCache {
        fn new(cfg: CacheConfig) -> DenseCache {
            let sets = cfg.sets();
            DenseCache {
                cfg,
                sets: sets as u64,
                lines: vec![COLD_LINE; (sets * cfg.ways) as usize],
                mshrs: Vec::new(),
                lru_clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_ways(&mut self, la: u64) -> &mut [Line] {
            let w = self.cfg.ways as usize;
            let set = (la % self.sets) as usize;
            &mut self.lines[set * w..(set + 1) * w]
        }

        fn probe(&mut self, addr: u64, now: u64) -> Probe {
            let la = addr >> self.cfg.line.trailing_zeros();
            self.lru_clock += 1;
            let clock = self.lru_clock;
            if let Some(line) = self.set_ways(la).iter_mut().find(|l| l.valid && l.tag == la) {
                line.lru = clock;
                self.stats.hits += 1;
                return Probe::Hit;
            }
            self.stats.misses += 1;
            self.mshrs.retain(|&(_, t)| t > now);
            if let Some(&(_, t)) = self.mshrs.iter().find(|&&(l, _)| l == la) {
                return Probe::Miss { issue_at: t, merged: true };
            }
            let issue_at = if (self.mshrs.len() as u32) < self.cfg.mshrs {
                now
            } else {
                let earliest = self.mshrs.iter().map(|&(_, t)| t).min().unwrap_or(now);
                self.stats.mshr_stall_cycles += earliest.saturating_sub(now);
                self.mshrs.retain(|&(_, t)| t > earliest);
                earliest
            };
            Probe::Miss { issue_at, merged: false }
        }

        fn fill(&mut self, addr: u64, resolve_at: u64) {
            let la = addr >> self.cfg.line.trailing_zeros();
            self.lru_clock += 1;
            let clock = self.lru_clock;
            self.mshrs.push((la, resolve_at));
            let victim = self
                .set_ways(la)
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
                .expect("cache has at least one way");
            *victim = Line { tag: la, valid: true, lru: clock };
        }

        fn flush(&mut self) {
            self.lines.iter_mut().for_each(|l| l.valid = false);
            self.mshrs.clear();
        }

        fn contains(&self, addr: u64) -> bool {
            let la = addr >> self.cfg.line.trailing_zeros();
            let w = self.cfg.ways as usize;
            let set = (la % self.sets) as usize;
            self.lines[set * w..(set + 1) * w].iter().any(|l| l.valid && l.tag == la)
        }
    }

    fn geometries() -> Vec<CacheConfig> {
        let (little, big) = (HierarchyConfig::little_core(), HierarchyConfig::big_core());
        let mut all = vec![*tiny().config()];
        for h in [little, big] {
            all.extend([h.l1i, h.l1d, h.l2, h.llc]);
        }
        all
    }

    /// (op, set pick, raw set, tag, byte offset, (time step, fill latency)).
    fn step() -> impl Strategy<Value = (u8, u8, u32, u64, u64, (u64, u64))> {
        (0u8..20, 0u8..8, any::<u32>(), 0u64..12, 0u64..64, (0u64..16, 1u64..200))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sparse_matches_dense(steps in prop::collection::vec(step(), 1..160)) {
            for cfg in geometries() {
                let mut sparse = Cache::new(cfg);
                let mut dense = DenseCache::new(cfg);
                let sets = cfg.sets() as u64;
                // A few fixed sets collide often; the rest spread over the whole index.
                let pool = [0, 1, sets / 2, sets - 1];
                let mut now = 0u64;
                let mut seen = Vec::new();
                for &(op, pick, raw, tag, off, (dt, lat)) in &steps {
                    let set = pool.get(pick as usize).copied().unwrap_or(raw as u64 % sets);
                    let addr = ((tag * sets + set) << cfg.line.trailing_zeros()) | off;
                    now += dt;
                    match op {
                        0 => {
                            sparse.flush();
                            dense.flush();
                        }
                        // A fill with no probe before it.
                        1..=3 => {
                            sparse.fill(addr, now + lat);
                            dense.fill(addr, now + lat);
                        }
                        // Probe, then fill on an unmerged miss (the hierarchy's protocol).
                        _ => {
                            let p = sparse.probe(addr, now);
                            prop_assert_eq!(p, dense.probe(addr, now), "probe {:#x} at {}", addr, now);
                            if let Probe::Miss { issue_at, merged: false } = p {
                                sparse.fill(addr, issue_at + lat);
                                dense.fill(addr, issue_at + lat);
                            }
                        }
                    }
                    seen.push(addr);
                    prop_assert_eq!(sparse.stats(), dense.stats);
                    prop_assert_eq!(sparse.contains(addr), dense.contains(addr));
                }
                for &addr in &seen {
                    prop_assert_eq!(sparse.contains(addr), dense.contains(addr), "{:#x}", addr);
                }
                sparse.check_invariants();
            }
        }
    }
}
