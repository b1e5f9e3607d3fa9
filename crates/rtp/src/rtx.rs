//! RFC 4588-style retransmission — the sender half of the loss-repair
//! subsystem.
//!
//! The sender keeps every outgoing media packet in a bounded history ring.
//! When a [`crate::nack::Nack`] arrives, each requested sequence
//! number still present in the ring is retransmitted **verbatim** (same
//! media sequence number, so the receiver's jitter buffer de-duplicates if
//! the original was merely reordered), minus the transport-wide sequence
//! extension: an RTX carries no new transport sequence, so GCC's TWCC
//! accounting never sees it and SCReAM's RFC 8888 span re-records the
//! repaired media sequence naturally.
//!
//! Repair bandwidth is bounded by a token bucket charged against the
//! congestion controller's current target rate: at most
//! [`RtxConfig::budget_fraction`] of the target may go to repair, so a
//! loss storm cannot starve fresh media (the same idiom as the GCC pacer's
//! `1.5×`-target bucket, pointed the other way).

use std::collections::VecDeque;

use rpav_sim::SimTime;

use crate::nack::Nack;
use crate::packet::RtpPacket;

/// Sender-side retransmission counters, exposed to the run metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtxStats {
    /// NACK feedback packets processed.
    pub nacks_received: u64,
    /// Individual sequence-number requests seen.
    pub seqs_requested: u64,
    /// Packets actually retransmitted.
    pub retransmitted: u64,
    /// Requests for packets that had already left the history ring.
    pub not_in_history: u64,
    /// Requests refused because the repair token bucket was empty.
    pub budget_exhausted: u64,
    /// Total wire bytes spent on retransmissions.
    pub bytes_retransmitted: u64,
}

/// Tunables for the retransmission sender.
#[derive(Clone, Copy, Debug)]
pub struct RtxConfig {
    /// Packets kept in the history ring (≈2 s of full-rate video).
    pub history: usize,
    /// Fraction of the CC target rate the repair bucket refills at.
    pub budget_fraction: f64,
    /// Token-bucket ceiling in bytes (bounds repair burst size).
    pub budget_cap_bytes: f64,
}

impl Default for RtxConfig {
    fn default() -> Self {
        RtxConfig {
            history: 2_048,
            budget_fraction: 0.10,
            budget_cap_bytes: 30_000.0,
        }
    }
}

/// History ring + token-bucket repair budget.
#[derive(Debug)]
pub struct RtxSender {
    config: RtxConfig,
    /// Sent packets as a dense ring: slot `i` holds sequence
    /// `base_seq + i`. Media sequences are handed out consecutively, so
    /// the ring replaces the former `BTreeMap` (whose node churn cost an
    /// allocation every few recorded packets) with index arithmetic; the
    /// deque storage is grown once and reused for the whole run.
    history: VecDeque<Option<RtpPacket>>,
    base_seq: u16,
    /// Live (non-hole) entries in `history`.
    live: usize,
    /// Spendable repair bytes.
    budget_bytes: f64,
    last_refill: SimTime,
    stats: RtxStats,
}

impl RtxSender {
    /// Create a sender with the given tunables.
    pub fn new(config: RtxConfig) -> Self {
        RtxSender {
            config,
            history: VecDeque::with_capacity(config.history),
            base_seq: 0,
            live: 0,
            // Start with a full bucket so early losses are repairable.
            budget_bytes: config.budget_cap_bytes,
            last_refill: SimTime::ZERO,
            stats: RtxStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RtxStats {
        self.stats
    }

    /// Packets currently held in the history ring.
    pub fn history_len(&self) -> usize {
        self.live
    }

    /// Remember an outgoing media packet for possible retransmission.
    pub fn record(&mut self, packet: &RtpPacket) {
        if self.config.history == 0 {
            return;
        }
        if self.history.is_empty() {
            self.base_seq = packet.sequence;
        }
        let offset = packet.sequence.wrapping_sub(self.base_seq) as usize;
        if let Some(slot) = self.history.get_mut(offset) {
            if slot.replace(packet.clone()).is_none() {
                self.live += 1;
            }
        } else if offset <= usize::from(u16::MAX) / 2 {
            // At (the common case) or ahead of the ring end: pad any gap
            // with holes, then append.
            while self.history.len() < offset {
                self.history.push_back(None);
            }
            self.history.push_back(Some(packet.clone()));
            self.live += 1;
        } else {
            // Behind the ring start: re-anchor by padding the front.
            let behind = self.base_seq.wrapping_sub(packet.sequence) as usize;
            for _ in 0..behind {
                self.history.push_front(None);
            }
            self.base_seq = packet.sequence;
            self.history[0] = Some(packet.clone());
            self.live += 1;
        }
        while self.history.len() > self.config.history {
            if self.history.pop_front().flatten().is_some() {
                self.live -= 1;
            }
            self.base_seq = self.base_seq.wrapping_add(1);
        }
    }

    /// Refill the repair token bucket against the CC's current target
    /// rate. Call once per tick, before [`on_nack`](Self::on_nack).
    pub fn refill(&mut self, now: SimTime, target_bps: f64) {
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.budget_bytes = (self.budget_bytes
            + target_bps * self.config.budget_fraction * dt / 8.0)
            .min(self.config.budget_cap_bytes);
    }

    /// Handle one NACK: returns the packets to retransmit, with the
    /// transport-wide extension stripped so CC feedback ignores them.
    pub fn on_nack(&mut self, nack: &Nack) -> Vec<RtpPacket> {
        let mut out = Vec::with_capacity(nack.lost.len());
        self.on_nack_into(nack, &mut out);
        out
    }

    /// [`on_nack`](Self::on_nack), appending to a caller-kept buffer.
    pub fn on_nack_into(&mut self, nack: &Nack, out: &mut Vec<RtpPacket>) {
        self.stats.nacks_received += 1;
        for &seq in &nack.lost {
            self.stats.seqs_requested += 1;
            let offset = seq.wrapping_sub(self.base_seq) as usize;
            let Some(pkt) = self.history.get(offset).and_then(|s| s.as_ref()) else {
                self.stats.not_in_history += 1;
                continue;
            };
            let mut rtx = pkt.clone();
            rtx.transport_seq = None;
            rtx.wire = None; // stripped extension invalidates the cached wire
            let wire = rtx.wire_size() as f64;
            if self.budget_bytes < wire {
                self.stats.budget_exhausted += 1;
                continue;
            }
            self.budget_bytes -= wire;
            self.stats.retransmitted += 1;
            self.stats.bytes_retransmitted += rtx.wire_size() as u64;
            out.push(rtx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rpav_sim::SimDuration;

    fn pkt(seq: u16, payload_len: usize) -> RtpPacket {
        RtpPacket {
            marker: false,
            payload_type: 96,
            sequence: seq,
            timestamp: seq as u32 * 3_000,
            ssrc: 0x2,
            transport_seq: Some(seq),
            payload: Bytes::from(vec![0x5A; payload_len]),
            wire: None,
        }
    }

    fn nack(lost: Vec<u16>) -> Nack {
        Nack {
            sender_ssrc: 0x1,
            media_ssrc: 0x2,
            lost,
        }
    }

    #[test]
    fn retransmits_from_history_without_transport_seq() {
        let mut s = RtxSender::new(RtxConfig::default());
        for seq in 0..10 {
            s.record(&pkt(seq, 500));
        }
        let out = s.on_nack(&nack(vec![3, 7]));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sequence, 3);
        assert_eq!(out[1].sequence, 7);
        assert!(out.iter().all(|p| p.transport_seq.is_none()));
        assert_eq!(s.stats().retransmitted, 2);
    }

    #[test]
    fn history_ring_evicts_oldest() {
        let mut s = RtxSender::new(RtxConfig {
            history: 4,
            ..Default::default()
        });
        for seq in 0..10 {
            s.record(&pkt(seq, 100));
        }
        assert_eq!(s.history_len(), 4);
        let out = s.on_nack(&nack(vec![2, 9]));
        assert_eq!(out.len(), 1, "seq 2 must have been evicted");
        assert_eq!(out[0].sequence, 9);
        assert_eq!(s.stats().not_in_history, 1);
    }

    #[test]
    fn budget_bounds_repair_bytes() {
        let mut s = RtxSender::new(RtxConfig {
            budget_cap_bytes: 1_200.0,
            ..Default::default()
        });
        for seq in 0..10 {
            s.record(&pkt(seq, 1_000));
        }
        // Bucket holds ~1 packet of repair; the second request is refused.
        let out = s.on_nack(&nack(vec![1, 2]));
        assert_eq!(out.len(), 1);
        assert_eq!(s.stats().budget_exhausted, 1);
        // Refill at 8 Mbps for 100 ms → 10% × 100 kB = 10 kB, capped at
        // 1.2 kB: one more repair becomes possible.
        s.refill(SimTime::from_millis(100), 8e6);
        let out = s.on_nack(&nack(vec![2]));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn refill_is_rate_proportional() {
        let mut s = RtxSender::new(RtxConfig {
            budget_cap_bytes: 1e9, // effectively uncapped
            ..Default::default()
        });
        s.refill(SimTime::ZERO, 0.0);
        s.refill(SimTime::ZERO + SimDuration::from_secs(1), 8e6);
        // 10% of 8 Mbps for 1 s = 100 kB (plus the initial cap... which is
        // the 1e9 cap here, so measure via spend instead).
        for seq in 0..3 {
            s.record(&pkt(seq, 1_000));
        }
        let out = s.on_nack(&nack(vec![0, 1, 2]));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn duplicate_record_does_not_grow_ring() {
        let mut s = RtxSender::new(RtxConfig {
            history: 4,
            ..Default::default()
        });
        for _ in 0..10 {
            s.record(&pkt(1, 100));
        }
        assert_eq!(s.history_len(), 1);
    }
}
