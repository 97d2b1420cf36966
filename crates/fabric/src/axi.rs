//! The AXI-Interconnect baseline of Fig. 9.
//!
//! A full-featured but generic interconnect: a single 128-bit shared bus
//! that arbitrates round-robin among the commit paths' DC-Buffers and
//! moves **one packet per little-core cycle** (the little domain runs at
//! half the big core's frequency, so one packet every two big cycles).
//! There is no multicast: status data needed by two little cores is sent
//! twice. The paper measures this design costing 16.7% geomean slowdown
//! on PARSEC versus F2's <5%.

use crate::dc_buffer::{DcBuffer, DcBufferConfig};
use crate::packet::{Packet, PacketKind};
use crate::{FabricStats, SinkBank};

/// AXI interconnect configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiConfig {
    /// Number of commit paths / DC-Buffers.
    pub lanes: usize,
    /// Big-core cycles per bus beat (2 = one beat per little-core cycle).
    pub cycles_per_beat: u64,
    /// Bus traversal latency in big-core cycles.
    pub bus_latency: u64,
    /// Per-lane DC-Buffer capacity.
    pub dc: DcBufferConfig,
}

impl Default for AxiConfig {
    fn default() -> Self {
        AxiConfig { lanes: 4, cycles_per_beat: 2, bus_latency: 8, dc: DcBufferConfig::default() }
    }
}

/// The AXI-Interconnect baseline.
#[derive(Debug, Clone)]
pub struct AxiInterconnect {
    cfg: AxiConfig,
    buffers: Vec<DcBuffer>,
    stats: FabricStats,
}

impl AxiInterconnect {
    /// Creates an empty interconnect.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` or `cycles_per_beat` is zero.
    pub fn new(cfg: AxiConfig) -> AxiInterconnect {
        assert!(cfg.lanes > 0, "AXI needs at least one lane");
        assert!(cfg.cycles_per_beat > 0, "AXI needs a nonzero beat");
        AxiInterconnect {
            cfg,
            buffers: (0..cfg.lanes).map(|_| DcBuffer::new(cfg.dc)).collect(),
            stats: FabricStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AxiConfig {
        &self.cfg
    }

    /// Lowest-seq eligible head, excluding kinds flagged in `skip`
    /// (indexed by `PacketKind as usize`) — the bus serialises the DEU's
    /// commit lanes through one master port, so packets move in
    /// extraction order.
    fn lowest_head(&self, now: u64, skip: [bool; 2]) -> Option<(usize, PacketKind)> {
        let mut best: Option<(u64, usize, PacketKind)> = None;
        for (lane, buf) in self.buffers.iter().enumerate() {
            for kind in [PacketKind::Runtime, PacketKind::Status] {
                if skip[kind as usize] {
                    continue;
                }
                if let Some(p) = buf.head(kind) {
                    if p.created_at + self.cfg.bus_latency <= now
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
        // One beat per `cycles_per_beat` big-core cycles.
        if !now.is_multiple_of(self.cfg.cycles_per_beat) {
            return;
        }
        let mut skip = [false; 2];
        let mut saw_blocked = false;
        while let Some((lane, kind)) = self.lowest_head(now, skip) {
            let head = self.buffers[lane].head(kind).expect("head exists");
            // Unicast: serve one targeted core that can accept.
            let Some(core) =
                head.dest.iter().find(|&c| c < sinks.len() && sinks.can_accept(c, kind))
            else {
                // The oldest packet of this kind is blocked: stall the
                // kind so younger packets cannot overtake it.
                skip[kind as usize] = true;
                saw_blocked = true;
                continue;
            };
            let mut pkt = self.buffers[lane].pop(kind).expect("head exists");
            pkt.dest.remove(core);
            if pkt.dest.is_empty() {
                // Sole destination takes the packet by move — sinks
                // never read the dest mask.
                sinks.deliver(core, pkt, now);
            } else {
                sinks.deliver(core, pkt.clone(), now);
                // Remaining destinations need their own bus beats.
                self.buffers[lane].push_front(kind, pkt);
            }
            self.stats.delivered += 1;
            self.stats.transactions += 1;
            self.stats.busy_cycles += 1;
            if saw_blocked {
                self.stats.blocked_cycles += 1;
            }
            return; // one packet per beat
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
        2 // 128-bit bus
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

    #[derive(Debug, Default)]
    struct Sink {
        got: Vec<Packet>,
        cap: usize,
    }

    impl PacketSink for Sink {
        fn can_accept(&self, _kind: PacketKind) -> bool {
            self.got.len() < self.cap
        }

        fn deliver(&mut self, pkt: Packet, _now: u64) {
            self.got.push(pkt);
        }
    }

    fn mem_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::Mem { seg: 0, addr: seq, size: 8, data: seq, is_store: true },
            created_at: 0,
        }
    }

    fn status_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::RcpChunk { seg: 0, chunk: 0, total: 1 },
            created_at: 0,
        }
    }

    fn run(axi: &mut AxiInterconnect, sinks: &mut [Sink], from: u64, to: u64) {
        for now in from..to {
            let mut refs: Vec<&mut dyn PacketSink> =
                sinks.iter_mut().map(|s| s as &mut dyn PacketSink).collect();
            axi.tick(now, &mut refs);
        }
    }

    #[test]
    fn one_packet_per_two_cycles() {
        let mut axi = AxiInterconnect::new(AxiConfig { bus_latency: 0, ..AxiConfig::default() });
        for i in 0..4 {
            axi.try_push(0, mem_pkt(i, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![Sink { cap: usize::MAX, ..Sink::default() }];
        run(&mut axi, &mut sinks, 0, 4);
        assert_eq!(sinks[0].got.len(), 2, "one beat per 2 big cycles");
        run(&mut axi, &mut sinks, 4, 8);
        assert_eq!(sinks[0].got.len(), 4);
    }

    #[test]
    fn multicast_requires_two_beats() {
        let mut axi = AxiInterconnect::new(AxiConfig { bus_latency: 0, ..AxiConfig::default() });
        axi.try_push(0, status_pkt(0, DestMask::single(0).with(1))).unwrap();
        let mut sinks = vec![
            Sink { cap: usize::MAX, ..Sink::default() },
            Sink { cap: usize::MAX, ..Sink::default() },
        ];
        run(&mut axi, &mut sinks, 0, 2);
        assert_eq!(sinks[0].got.len() + sinks[1].got.len(), 1, "first beat");
        run(&mut axi, &mut sinks, 2, 4);
        assert_eq!(sinks[0].got.len(), 1);
        assert_eq!(sinks[1].got.len(), 1);
        assert_eq!(axi.stats().transactions, 2, "no multicast on AXI");
        assert_eq!(axi.stats().multicast_saved, 0);
    }

    #[test]
    fn round_robin_serves_all_lanes() {
        let mut axi = AxiInterconnect::new(AxiConfig { bus_latency: 0, ..AxiConfig::default() });
        for lane in 0..4 {
            axi.try_push(lane, mem_pkt(lane as u64, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![Sink { cap: usize::MAX, ..Sink::default() }];
        run(&mut axi, &mut sinks, 0, 8);
        assert_eq!(sinks[0].got.len(), 4);
        assert!(axi.is_empty());
    }

    #[test]
    fn blocked_when_sink_full() {
        let mut axi = AxiInterconnect::new(AxiConfig { bus_latency: 0, ..AxiConfig::default() });
        axi.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![Sink { cap: 0, ..Sink::default() }];
        run(&mut axi, &mut sinks, 0, 6);
        assert_eq!(axi.stats().delivered, 0);
        assert!(axi.stats().blocked_cycles >= 3);
    }

    #[test]
    fn bus_latency_gates_first_beat() {
        let mut axi = AxiInterconnect::new(AxiConfig { bus_latency: 8, ..AxiConfig::default() });
        axi.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![Sink { cap: usize::MAX, ..Sink::default() }];
        run(&mut axi, &mut sinks, 0, 8);
        assert!(sinks[0].got.is_empty());
        run(&mut axi, &mut sinks, 8, 10);
        assert_eq!(sinks[0].got.len(), 1);
    }
}
