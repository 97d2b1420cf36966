//! The MEEK data-forwarding fabric.
//!
//! The big core's DEU extracts two kinds of data at commit (paper §III):
//!
//! * **run-time data** — addresses and data of loads, stores and other
//!   non-repeatable (CSR) instructions, produced between checkpoints;
//! * **status data** — Register Checkpoints (RCPs), the architectural
//!   register files captured at segment boundaries.
//!
//! Each commit path owns a **Dual-Channel Buffer** ([`DcBuffer`]) with
//! independent FIFOs for the two kinds, so a burst of retiring memory
//! operations can be absorbed in the same cycle that a checkpoint is being
//! streamed out. Downstream, one of two interconnects routes packets to
//! the little cores' Load-Store Logs:
//!
//! * [`F2`] — the paper's bespoke fabric: 256-bit datapath, two packets
//!   per big-core cycle, half-duplex multicast (status data needed by two
//!   little cores is sent once), FSM-preserved ordering;
//! * [`AxiInterconnect`] — the baseline of Fig. 9: a 128-bit shared bus
//!   arbitrating one packet per little-core cycle, unicast only.
//!
//! [`Fabric`] is the closed choice between the two, so the system crate
//! can swap them to regenerate the paper's backpressure decomposition.

pub mod axi;
pub mod dc_buffer;
pub mod noc;
pub mod packet;

pub use axi::{AxiConfig, AxiInterconnect};
pub use dc_buffer::{DcBuffer, DcBufferConfig};
pub use noc::{F2Config, F2};
pub use packet::{DestMask, Packet, PacketKind, Payload};

/// Statistics common to both interconnects, feeding Fig. 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets accepted into DC-Buffers.
    pub pushed: u64,
    /// Packet deliveries into LSLs (a multicast counts once per
    /// destination reached).
    pub delivered: u64,
    /// Bus/NoC transactions performed (a multicast counts once on F2 but
    /// once per destination on AXI).
    pub transactions: u64,
    /// Transactions avoided by selective broadcast (F2 only).
    pub multicast_saved: u64,
    /// Cycles in which a head packet could not move because every
    /// destination LSL was full (forwarding backpressure).
    pub blocked_cycles: u64,
    /// Cycles in which at least one transaction moved.
    pub busy_cycles: u64,
    /// Packets dropped by recovery squashes ([`Fabric::flush`]): data
    /// extracted for segments a rollback discarded before delivery.
    pub squashed: u64,
}

/// A destination for forwarded packets — a little core's Load-Store Log.
///
/// The fabric only needs admission control and delivery; the LSL itself
/// lives in `meek-littlecore`.
pub trait PacketSink {
    /// Whether one more packet of `kind` can currently be accepted.
    fn can_accept(&self, kind: PacketKind) -> bool;

    /// Delivers a packet. Called only when `can_accept` returned `true`
    /// this cycle. `now` is the big-core cycle of delivery.
    fn deliver(&mut self, pkt: Packet, now: u64);
}

/// An indexed bank of packet sinks — the little cores' LSLs as the
/// fabric sees them.
///
/// Ticking through this trait lets the system hand the fabric its
/// checker array directly instead of materialising a slice of trait
/// objects every cycle. Test harnesses keep the slice shape via the
/// impl for `Vec<&mut dyn PacketSink>`.
pub trait SinkBank {
    /// Number of sinks in the bank.
    fn len(&self) -> usize;

    /// Whether the bank has no sinks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether sink `i` can currently accept one more packet of `kind`.
    fn can_accept(&self, i: usize, kind: PacketKind) -> bool;

    /// Delivers a packet into sink `i`. Called only when `can_accept`
    /// returned `true` this cycle.
    fn deliver(&mut self, i: usize, pkt: Packet, now: u64);
}

impl<'a> SinkBank for Vec<&'a mut (dyn PacketSink + 'a)> {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn can_accept(&self, i: usize, kind: PacketKind) -> bool {
        self[i].can_accept(kind)
    }

    fn deliver(&mut self, i: usize, pkt: Packet, now: u64) {
        self[i].deliver(pkt, now);
    }
}

/// A packet interconnect between the big core's DC-Buffers and the little
/// cores' LSLs — one of the two designs the paper compares (§III-B,
/// Fig. 9). Each method dispatches to the variant by `match`.
#[derive(Debug, Clone)]
pub enum Fabric {
    /// The bespoke F2 fabric.
    F2(F2),
    /// The AXI-Interconnect baseline.
    Axi(AxiInterconnect),
}

impl Fabric {
    /// Attempts to enqueue a packet on commit path `lane`. Returns the
    /// packet back if the corresponding FIFO is full — the commit stage
    /// must then stall (data-collection backpressure).
    ///
    /// # Errors
    ///
    /// Returns `Err(pkt)` when the lane's FIFO for the packet's kind is
    /// full.
    pub fn try_push(&mut self, lane: usize, pkt: Packet) -> Result<(), Packet> {
        match self {
            Fabric::F2(f) => f.try_push(lane, pkt),
            Fabric::Axi(f) => f.try_push(lane, pkt),
        }
    }

    /// Advances one big-core cycle, moving packets toward the sinks.
    pub fn tick(&mut self, now: u64, sinks: &mut dyn SinkBank) {
        match self {
            Fabric::F2(f) => f.tick(now, sinks),
            Fabric::Axi(f) => f.tick(now, sinks),
        }
    }

    /// Whether all internal buffers are empty (used at drain/quiesce).
    pub fn is_empty(&self) -> bool {
        match self {
            Fabric::F2(f) => f.is_empty(),
            Fabric::Axi(f) => f.is_empty(),
        }
    }

    /// Packets currently queued across every internal buffer — the
    /// instantaneous forwarding backlog, sampled per cycle by
    /// time-series observers (ROB occupancy vs fabric depth figures).
    pub fn depth(&self) -> usize {
        match self {
            Fabric::F2(f) => f.depth(),
            Fabric::Axi(f) => f.depth(),
        }
    }

    /// Drops every queued packet — the fabric half of a recovery
    /// rollback: in-flight run-time records and checkpoint chunks of
    /// squashed segments must not reach any LSL after the roll-back
    /// point. Counts the drops in [`FabricStats::squashed`].
    pub fn flush(&mut self) {
        match self {
            Fabric::F2(f) => f.flush(),
            Fabric::Axi(f) => f.flush(),
        }
    }

    /// Number of 64-bit payload words one packet carries — determines how
    /// many packets a 65-word register checkpoint needs (wider F2 packets
    /// mean fewer transactions than 128-bit AXI beats).
    pub fn payload_words(&self) -> u32 {
        match self {
            Fabric::F2(f) => f.payload_words(),
            Fabric::Axi(f) => f.payload_words(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FabricStats {
        match self {
            Fabric::F2(f) => f.stats(),
            Fabric::Axi(f) => f.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_zero() {
        let s = FabricStats::default();
        assert_eq!(s.pushed, 0);
        assert_eq!(s.delivered, 0);
    }
}
