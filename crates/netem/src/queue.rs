//! Bounded FIFO queues with drop accounting.

use std::collections::VecDeque;

use crate::packet::Packet;

/// Counters exposed by every queue for metric extraction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets rejected because the queue was full.
    pub dropped: u64,
    /// Packets handed onward.
    pub dequeued: u64,
    /// Sum of wire bytes accepted.
    pub bytes_enqueued: u64,
    /// Sum of wire bytes dropped.
    pub bytes_dropped: u64,
}

/// A drop-tail FIFO bounded by bytes and/or packet count.
///
/// Cellular uplink buffers are notoriously deep ("bufferbloat", Jiang et al.
/// CellNet '12, cited by the paper §4.1): losses are rare and delay grows
/// instead. The LTE simulator instantiates this queue with a multi-megabyte
/// byte limit to reproduce that behaviour; the WAN stage uses a shallower
/// one.
#[derive(Debug)]
pub struct DropTailQueue {
    items: VecDeque<Packet>,
    bytes: usize,
    max_bytes: usize,
    max_packets: usize,
    stats: QueueStats,
}

impl DropTailQueue {
    /// Create a queue bounded by `max_bytes` total wire bytes and
    /// `max_packets` packets. Use `usize::MAX` for "unbounded" in one
    /// dimension.
    pub fn new(max_bytes: usize, max_packets: usize) -> Self {
        DropTailQueue {
            items: VecDeque::new(),
            bytes: 0,
            max_bytes,
            max_packets,
            stats: QueueStats::default(),
        }
    }

    /// Try to append `packet`; returns `false` (and counts a drop) if either
    /// bound would be exceeded.
    pub fn push(&mut self, packet: Packet) -> bool {
        if self.items.len() + 1 > self.max_packets || self.bytes + packet.size > self.max_bytes {
            self.stats.dropped += 1;
            self.stats.bytes_dropped += packet.size as u64;
            return false;
        }
        self.stats.enqueued += 1;
        self.stats.bytes_enqueued += packet.size as u64;
        self.bytes += packet.size;
        self.items.push_back(packet);
        true
    }

    /// Remove the head-of-line packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let p = self.items.pop_front()?;
        self.bytes -= p.size;
        self.stats.dequeued += 1;
        Some(p)
    }

    /// Peek at the head-of-line packet.
    pub fn peek(&self) -> Option<&Packet> {
        self.items.front()
    }

    /// Current queue depth in packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Current queue depth in wire bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Accumulated counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Queueing delay a new arrival would experience at `rate_bps` before it
    /// starts serialising, in seconds. Used by the LTE channel to report
    /// queue-induced latency.
    pub fn drain_time_secs(&self, rate_bps: f64) -> f64 {
        if rate_bps <= 0.0 {
            return f64::INFINITY;
        }
        (self.bytes as f64 * 8.0) / rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind, IP_UDP_OVERHEAD};
    use bytes::Bytes;
    use rpav_sim::SimTime;

    fn pkt(seq: u64, payload_len: usize) -> Packet {
        Packet::new(
            seq,
            Bytes::from(vec![0u8; payload_len]),
            PacketKind::Media,
            SimTime::ZERO,
        )
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(usize::MAX, usize::MAX);
        for i in 0..5 {
            assert!(q.push(pkt(i, 100)));
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().seq, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn byte_bound_drops_tail() {
        let size = 100 + IP_UDP_OVERHEAD;
        let mut q = DropTailQueue::new(2 * size, usize::MAX);
        assert!(q.push(pkt(0, 100)));
        assert!(q.push(pkt(1, 100)));
        assert!(!q.push(pkt(2, 100)));
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 2);
        assert_eq!(q.bytes(), 2 * size);
    }

    #[test]
    fn packet_bound_drops_tail() {
        let mut q = DropTailQueue::new(usize::MAX, 3);
        for i in 0..5 {
            q.push(pkt(i, 10));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.stats().dropped, 2);
    }

    #[test]
    fn bytes_tracks_push_pop() {
        let mut q = DropTailQueue::new(usize::MAX, usize::MAX);
        q.push(pkt(0, 100));
        q.push(pkt(1, 200));
        let total = (100 + IP_UDP_OVERHEAD) + (200 + IP_UDP_OVERHEAD);
        assert_eq!(q.bytes(), total);
        q.pop();
        assert_eq!(q.bytes(), 200 + IP_UDP_OVERHEAD);
        q.pop();
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn drain_time() {
        let mut q = DropTailQueue::new(usize::MAX, usize::MAX);
        q.push(pkt(0, 1000 - IP_UDP_OVERHEAD)); // exactly 1000 wire bytes
        assert!((q.drain_time_secs(8_000.0) - 1.0).abs() < 1e-9);
        assert_eq!(q.drain_time_secs(0.0), f64::INFINITY);
    }
}
