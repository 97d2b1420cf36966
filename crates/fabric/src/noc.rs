//! F2: the Half-duplex Multicast NoC (paper §III-B).
//!
//! A 256-bit, 1-to-N Manhattan-grid network that transmits up to two
//! packets per big-core cycle while preserving per-destination order, and
//! selectively broadcasts status data to every little core that can
//! currently receive it (eliminating the duplicated SRCP/ERCP transfers
//! a unicast bus would perform).

use crate::dc_buffer::{DcBuffer, DcBufferConfig};
use crate::packet::{Packet, PacketKind};
use crate::{FabricStats, SinkBank};

/// F2 configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F2Config {
    /// Number of commit paths / DC-Buffers (the big core's width).
    pub lanes: usize,
    /// Packets transmitted per big-core cycle (paper: 2).
    pub packets_per_cycle: u32,
    /// NoC traversal latency in big-core cycles (grid hops + CDC).
    pub hop_latency: u64,
    /// Per-lane DC-Buffer capacity.
    pub dc: DcBufferConfig,
}

impl Default for F2Config {
    fn default() -> Self {
        F2Config { lanes: 4, packets_per_cycle: 2, hop_latency: 4, dc: DcBufferConfig::default() }
    }
}

/// The F2 fabric: DC-Buffers plus the HM-NoC.
#[derive(Debug, Clone)]
pub struct F2 {
    cfg: F2Config,
    buffers: Vec<DcBuffer>,
    stats: FabricStats,
}

impl F2 {
    /// Creates an empty fabric.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` or `packets_per_cycle` is zero.
    pub fn new(cfg: F2Config) -> F2 {
        assert!(cfg.lanes > 0, "F2 needs at least one lane");
        assert!(cfg.packets_per_cycle > 0, "F2 needs nonzero bandwidth");
        F2 {
            cfg,
            buffers: (0..cfg.lanes).map(|_| DcBuffer::new(cfg.dc)).collect(),
            stats: FabricStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &F2Config {
        &self.cfg
    }

    /// Finds the (lane, kind) whose head packet has the lowest seq among
    /// eligible heads, excluding kinds flagged in `skip` (indexed by
    /// `PacketKind as usize`) — once the oldest packet of a kind is
    /// blocked, no younger packet of that kind may overtake it (the
    /// ordering FSMs of §III-B). Per-lane FIFOs plus this rule give a
    /// per-kind total order at every destination.
    fn lowest_head(&self, now: u64, skip: [bool; 2]) -> Option<(usize, PacketKind)> {
        let mut best: Option<(u64, usize, PacketKind)> = None;
        for (lane, buf) in self.buffers.iter().enumerate() {
            for kind in [PacketKind::Runtime, PacketKind::Status] {
                if skip[kind as usize] {
                    continue;
                }
                if let Some(p) = buf.head(kind) {
                    if p.created_at + self.cfg.hop_latency <= now
                        && best.is_none_or(|(s, _, _)| p.seq < s)
                    {
                        best = Some((p.seq, lane, kind));
                    }
                }
            }
        }
        best.map(|(_, lane, kind)| (lane, kind))
    }

    pub(crate) fn try_push(&mut self, lane: usize, pkt: Packet) -> Result<(), Packet> {
        assert!(lane < self.cfg.lanes, "lane {lane} out of range");
        let r = self.buffers[lane].try_push(pkt);
        if r.is_ok() {
            self.stats.pushed += 1;
        }
        r
    }

    pub(crate) fn tick(&mut self, now: u64, sinks: &mut dyn SinkBank) {
        let mut budget = self.cfg.packets_per_cycle;
        let mut skip = [false; 2];
        let mut moved = false;
        let mut saw_blocked = false;
        while budget > 0 {
            let Some((lane, kind)) = self.lowest_head(now, skip) else {
                break;
            };
            let head = self.buffers[lane].head(kind).expect("head exists");
            // Selective broadcast: deliver to every targeted core that can
            // accept this cycle.
            let mut ready = 0u16;
            for c in head.dest.iter() {
                if c < sinks.len() && sinks.can_accept(c, kind) {
                    ready |= 1 << c;
                }
            }
            if ready == 0 {
                // Forwarding backpressure: the oldest packet of this kind
                // cannot move, so the whole kind stalls this cycle
                // (younger packets must not overtake it at a shared
                // destination).
                skip[kind as usize] = true;
                saw_blocked = true;
                continue;
            }
            let mut pkt = self.buffers[lane].pop(kind).expect("head exists");
            let reached = u64::from(ready.count_ones());
            loop {
                let c = ready.trailing_zeros() as usize;
                ready &= ready - 1;
                pkt.dest.remove(c);
                if ready != 0 {
                    sinks.deliver(c, pkt.clone(), now);
                    continue;
                }
                if pkt.dest.is_empty() {
                    // The last reachable destination takes the packet by
                    // move — sinks never read the dest mask.
                    sinks.deliver(c, pkt, now);
                } else {
                    sinks.deliver(c, pkt.clone(), now);
                    // Some destinations were full: the packet stays at
                    // the head of its FIFO for the remaining
                    // destinations, and younger packets of this kind
                    // must wait behind it.
                    self.buffers[lane].push_front(kind, pkt);
                    skip[kind as usize] = true;
                }
                break;
            }
            self.stats.delivered += reached;
            self.stats.transactions += 1;
            self.stats.multicast_saved += reached - 1;
            moved = true;
            budget -= 1;
        }
        if moved {
            self.stats.busy_cycles += 1;
        }
        if saw_blocked {
            self.stats.blocked_cycles += 1;
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buffers.iter().all(DcBuffer::is_empty)
    }

    pub(crate) fn depth(&self) -> usize {
        self.buffers.iter().map(DcBuffer::len).sum()
    }

    pub(crate) fn flush(&mut self) {
        for buf in &mut self.buffers {
            self.stats.squashed += buf.clear() as u64;
        }
    }

    pub(crate) fn payload_words(&self) -> u32 {
        4 // 256-bit datapath
    }

    pub(crate) fn stats(&self) -> FabricStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DestMask, Payload};
    use crate::PacketSink;

    /// A test sink with per-kind capacity.
    #[derive(Debug, Default)]
    pub(crate) struct TestSink {
        pub runtime: Vec<Packet>,
        pub status: Vec<Packet>,
        pub runtime_cap: usize,
        pub status_cap: usize,
    }

    impl TestSink {
        pub(crate) fn unbounded() -> TestSink {
            TestSink { runtime_cap: usize::MAX, status_cap: usize::MAX, ..TestSink::default() }
        }
    }

    impl PacketSink for TestSink {
        fn can_accept(&self, kind: PacketKind) -> bool {
            match kind {
                PacketKind::Runtime => self.runtime.len() < self.runtime_cap,
                PacketKind::Status => self.status.len() < self.status_cap,
            }
        }

        fn deliver(&mut self, pkt: Packet, _now: u64) {
            match pkt.kind() {
                PacketKind::Runtime => self.runtime.push(pkt),
                PacketKind::Status => self.status.push(pkt),
            }
        }
    }

    fn mem_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::Mem { seg: 0, addr: seq * 8, size: 8, data: seq, is_store: false },
            created_at: 0,
        }
    }

    fn status_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::RcpChunk { seg: 1, chunk: 0, total: 1 },
            created_at: 0,
        }
    }

    fn run_ticks(f2: &mut F2, sinks: &mut [TestSink], from: u64, to: u64) {
        for now in from..to {
            let mut refs: Vec<&mut dyn PacketSink> =
                sinks.iter_mut().map(|s| s as &mut dyn PacketSink).collect();
            f2.tick(now, &mut refs);
        }
    }

    #[test]
    fn bandwidth_two_packets_per_cycle() {
        let mut f2 = F2::new(F2Config { hop_latency: 0, ..F2Config::default() });
        for i in 0..6 {
            f2.try_push((i % 4) as usize, mem_pkt(i, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, 0, 1);
        assert_eq!(sinks[0].runtime.len(), 2, "exactly 2 packets per cycle");
        run_ticks(&mut f2, &mut sinks, 1, 3);
        assert_eq!(sinks[0].runtime.len(), 6);
        assert!(f2.is_empty());
    }

    #[test]
    fn per_destination_order_preserved() {
        let mut f2 = F2::new(F2Config { hop_latency: 0, ..F2Config::default() });
        // Spread seq 0..8 across lanes out of lane order.
        for (lane, seq) in [(3usize, 0u64), (1, 1), (0, 2), (2, 3), (1, 4), (3, 5), (0, 6), (2, 7)]
        {
            f2.try_push(lane, mem_pkt(seq, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, 0, 10);
        let seqs: Vec<u64> = sinks[0].runtime.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn multicast_counts_one_transaction() {
        let mut f2 = F2::new(F2Config { hop_latency: 0, ..F2Config::default() });
        f2.try_push(0, status_pkt(0, DestMask::single(0).with(1))).unwrap();
        let mut sinks = vec![TestSink::unbounded(), TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, 0, 2);
        assert_eq!(sinks[0].status.len(), 1);
        assert_eq!(sinks[1].status.len(), 1);
        let s = f2.stats();
        assert_eq!(s.transactions, 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.multicast_saved, 1);
    }

    #[test]
    fn partial_multicast_waits_for_full_sink() {
        let mut f2 = F2::new(F2Config { hop_latency: 0, ..F2Config::default() });
        f2.try_push(0, status_pkt(0, DestMask::single(0).with(1))).unwrap();
        let mut sinks = vec![
            TestSink::unbounded(),
            TestSink { status_cap: 0, runtime_cap: usize::MAX, ..TestSink::default() },
        ];
        run_ticks(&mut f2, &mut sinks, 0, 2);
        assert_eq!(sinks[0].status.len(), 1, "ready sink served immediately");
        assert_eq!(sinks[1].status.len(), 0);
        assert!(!f2.is_empty(), "packet still queued for the full sink");
        // Open up the second sink.
        sinks[1].status_cap = 10;
        run_ticks(&mut f2, &mut sinks, 2, 4);
        assert_eq!(sinks[1].status.len(), 1);
        assert_eq!(sinks[0].status.len(), 1, "no duplicate delivery");
        assert!(f2.is_empty());
    }

    #[test]
    fn hop_latency_delays_eligibility() {
        let mut f2 = F2::new(F2Config { hop_latency: 5, ..F2Config::default() });
        f2.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, 0, 5);
        assert!(sinks[0].runtime.is_empty());
        run_ticks(&mut f2, &mut sinks, 5, 6);
        assert_eq!(sinks[0].runtime.len(), 1);
    }

    #[test]
    fn blocked_cycles_counted() {
        let mut f2 = F2::new(F2Config { hop_latency: 0, ..F2Config::default() });
        f2.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![TestSink { runtime_cap: 0, status_cap: 0, ..TestSink::default() }];
        run_ticks(&mut f2, &mut sinks, 0, 3);
        assert_eq!(f2.stats().blocked_cycles, 3);
        assert_eq!(f2.stats().delivered, 0);
    }

    #[test]
    fn runtime_not_blocked_by_stuck_status() {
        // Head-of-line blocking across kinds must not occur: the dual
        // FIFOs exist precisely to let runtime flow while status waits.
        let mut f2 = F2::new(F2Config { hop_latency: 0, ..F2Config::default() });
        f2.try_push(0, status_pkt(0, DestMask::single(0))).unwrap();
        f2.try_push(0, mem_pkt(1, DestMask::single(0))).unwrap();
        let mut sinks = vec![TestSink { runtime_cap: 8, status_cap: 0, ..TestSink::default() }];
        run_ticks(&mut f2, &mut sinks, 0, 1);
        assert_eq!(sinks[0].runtime.len(), 1);
        assert_eq!(sinks[0].status.len(), 0);
    }
}
