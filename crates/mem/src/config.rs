//! Cache and hierarchy configurations (the paper's Table II).

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u32,
    /// Associativity (number of ways).
    pub ways: u32,
    /// Line size in bytes.
    pub line: u32,
    /// Miss Status Holding Registers: maximum outstanding misses.
    pub mshrs: u32,
    /// Hit latency in owner-domain cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `ways * line`, or any field zero).
    pub fn sets(&self) -> u32 {
        assert!(self.size > 0 && self.ways > 0 && self.line > 0, "zero cache dimension");
        let sets = self.size / (self.ways * self.line);
        assert!(sets > 0, "cache smaller than one set");
        assert_eq!(self.size, sets * self.ways * self.line, "inconsistent cache geometry");
        sets
    }
}

/// Configuration of a complete hierarchy from L1 to DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// DRAM access latency (cycles) once issued.
    pub dram_latency: u64,
    /// Maximum in-flight DRAM requests (Table II: 32).
    pub dram_max_requests: u32,
    /// Minimum cycles between DRAM request issues (bandwidth model).
    pub dram_issue_interval: u64,
    /// Next-line prefetch on L1D misses (the big core's streaming
    /// prefetcher; little cores replay from the LSL and do not need it).
    pub prefetch_next_line: bool,
}

impl HierarchyConfig {
    /// The big core's hierarchy of Table II, latencies in 3.2 GHz cycles:
    /// L1 32 KB 4-way (8 MSHRs), L2 512 KB 8-way (12 MSHRs),
    /// LLC 4 MB 8-way (8 MSHRs), DDR3-1066 DRAM.
    pub fn big_core() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig { size: 32 * 1024, ways: 4, line: 64, mshrs: 8, hit_latency: 1 },
            l1d: CacheConfig { size: 32 * 1024, ways: 4, line: 64, mshrs: 8, hit_latency: 4 },
            l2: CacheConfig { size: 512 * 1024, ways: 8, line: 64, mshrs: 12, hit_latency: 14 },
            llc: CacheConfig {
                size: 4 * 1024 * 1024,
                ways: 8,
                line: 64,
                mshrs: 8,
                hit_latency: 42,
            },
            dram_latency: 220,
            dram_max_requests: 32,
            dram_issue_interval: 4,
            prefetch_next_line: true,
        }
    }

    /// A little core's hierarchy of Table II: 4 KB 2-way L1 I/D, and L2/LLC
    /// levels with the SoC's geometry. Latencies in 1.6 GHz cycles (half
    /// the big core's frequency, so the same wall-clock DRAM takes half the
    /// cycles). The paper's checkers share the SoC L2/LLC; in the
    /// simulator each little core owns a private, timing-only copy of
    /// those levels, prewarmed with the code image to stand in for the
    /// warm shared ones (see `LittleCore::prewarm_code`).
    pub fn little_core() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig { size: 4 * 1024, ways: 2, line: 64, mshrs: 2, hit_latency: 1 },
            l1d: CacheConfig { size: 4 * 1024, ways: 2, line: 64, mshrs: 2, hit_latency: 1 },
            l2: CacheConfig { size: 512 * 1024, ways: 8, line: 64, mshrs: 12, hit_latency: 7 },
            llc: CacheConfig {
                size: 4 * 1024 * 1024,
                ways: 8,
                line: 64,
                mshrs: 8,
                hit_latency: 21,
            },
            dram_latency: 110,
            dram_max_requests: 32,
            dram_issue_interval: 2,
            prefetch_next_line: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_geometries() {
        let big = HierarchyConfig::big_core();
        assert_eq!(big.l1d.sets(), 128); // 32K / (4 * 64)
        assert_eq!(big.l2.sets(), 1024);
        assert_eq!(big.llc.sets(), 8192);
        let little = HierarchyConfig::little_core();
        assert_eq!(little.l1i.sets(), 32); // 4K / (2 * 64)
    }

    #[test]
    #[should_panic(expected = "inconsistent cache geometry")]
    fn bad_geometry_panics() {
        let c = CacheConfig { size: 1000, ways: 3, line: 64, mshrs: 1, hit_latency: 1 };
        let _ = c.sets();
    }
}
