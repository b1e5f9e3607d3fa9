//! Explicit packet reordering with bounded displacement.
//!
//! A [`Path`](crate::path::Path)'s radio and WAN legs are FIFO: the RLC-AM
//! radio leg never reorders. Real WAN paths do — ECMP rehashes, load-balanced
//! routes, multi-homing — so hostile-wire experiments need a composable
//! stage that *holds* a randomly chosen packet and re-inserts it a bounded
//! number of positions later. Displacement is bounded both by packet count
//! (`max_displacement` subsequent deliveries) and by time (`max_hold`), so
//! a held packet still arrives during a traffic lull instead of vanishing.
//!
//! Determinism contract: [`ReorderStage::offer`] consumes exactly one RNG
//! draw per offered packet when `chance ∈ (0, 1)` plus one more when the
//! hold fires; with `chance == 0` it consumes **no** draws (see
//! `SimRng::chance`), so a transparent stage leaves every other stream in
//! the simulation untouched.

use rpav_sim::{SimDuration, SimRng, SimTime};

use crate::packet::Packet;

/// Upper bound on simultaneously held packets: past this the stage passes
/// everything through, so a pathological `chance` cannot swallow a flow.
const MAX_HELD: usize = 64;

/// Tunables for a [`ReorderStage`].
#[derive(Clone, Copy, Debug)]
pub struct ReorderConfig {
    /// Per-packet probability of being held back.
    pub chance: f64,
    /// A held packet is re-inserted after `1..=max_displacement`
    /// subsequently delivered packets (uniform draw).
    pub max_displacement: u64,
    /// Time bound: a held packet is released no later than this after it
    /// was offered, even if too few packets follow it.
    pub max_hold: SimDuration,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        ReorderConfig {
            chance: 0.0,
            max_displacement: 4,
            max_hold: SimDuration::from_millis(50),
        }
    }
}

/// Counters for a [`ReorderStage`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Packets held back for later re-insertion.
    pub held: u64,
    /// Held packets released because enough packets passed them.
    pub released_by_count: u64,
    /// Held packets released by the `max_hold` timeout.
    pub released_by_time: u64,
    /// Packets passed straight through.
    pub passed: u64,
}

#[derive(Debug)]
struct Held {
    packet: Packet,
    /// Deliveries still to overtake this packet before release.
    remaining: u64,
    /// Latest instant the packet may stay held.
    release_by: SimTime,
}

/// Holds randomly chosen packets and re-inserts them out of order, with
/// bounded displacement. Scriptable: [`set_window`](Self::set_window)
/// overrides the probability/displacement for the duration of a scripted
/// reorder window and [`clear_window`](Self::clear_window) restores the
/// base configuration.
#[derive(Debug)]
pub struct ReorderStage {
    base: ReorderConfig,
    chance: f64,
    max_displacement: u64,
    rng: SimRng,
    held: Vec<Held>,
    stats: ReorderStats,
}

impl ReorderStage {
    /// Create a stage with its own random stream.
    pub fn new(config: ReorderConfig, rng: SimRng) -> Self {
        ReorderStage {
            chance: config.chance,
            max_displacement: config.max_displacement.max(1),
            base: config,
            rng,
            held: Vec::new(),
            stats: ReorderStats::default(),
        }
    }

    /// Override probability and displacement (scripted reorder window).
    pub fn set_window(&mut self, chance: f64, max_displacement: u64) {
        self.chance = chance;
        self.max_displacement = max_displacement.max(1);
    }

    /// Restore the base configuration after a scripted window ends.
    pub fn clear_window(&mut self) {
        self.chance = self.base.chance;
        self.max_displacement = self.base.max_displacement.max(1);
    }

    /// Counters so far.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// Offer one packet; returns the packets to deliver now, in order.
    pub fn offer(&mut self, now: SimTime, packet: Packet) -> Vec<Packet> {
        if self.held.len() < MAX_HELD && self.rng.chance(self.chance) {
            let remaining = self.rng.uniform_u64(1, self.max_displacement + 1);
            self.held.push(Held {
                packet,
                remaining,
                release_by: now + self.base.max_hold,
            });
            self.stats.held += 1;
            return Vec::new();
        }
        self.stats.passed += 1;
        let mut out = vec![packet];
        // Every delivered packet — including ones released by this very
        // loop — overtakes every held one, which keeps the displacement
        // bound tight: a packet held with displacement d appears at most
        // d positions past its in-order slot.
        let mut idx = 0;
        while idx < out.len() && !self.held.is_empty() {
            for h in &mut self.held {
                h.remaining -= 1;
            }
            let mut i = 0;
            while i < self.held.len() {
                if self.held[i].remaining == 0 {
                    out.push(self.held.remove(i).packet);
                    self.stats.released_by_count += 1;
                } else {
                    i += 1;
                }
            }
            idx += 1;
        }
        out
    }

    /// Release packets whose `max_hold` deadline has passed.
    pub fn flush_due(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].release_by <= now {
                out.push(self.held.remove(i).packet);
                self.stats.released_by_time += 1;
            } else {
                i += 1;
            }
        }
        out
    }

    /// Earliest `max_hold` deadline among held packets.
    pub fn next_release(&self) -> Option<SimTime> {
        self.held.iter().map(|h| h.release_by).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use bytes::Bytes;
    use rpav_sim::RngSet;

    fn pkt(seq: u64) -> Packet {
        Packet::new(
            seq,
            Bytes::from_static(&[0u8; 32]),
            PacketKind::Media,
            SimTime::ZERO,
        )
    }

    #[test]
    fn transparent_stage_is_fifo_and_drawless() {
        let set = RngSet::new(11);
        let mut stage = ReorderStage::new(ReorderConfig::default(), set.stream("re"));
        for i in 0..100 {
            let out = stage.offer(SimTime::from_millis(i), pkt(i));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].seq, i);
        }
        assert_eq!(stage.stats().passed, 100);
        assert_eq!(stage.stats().held, 0);
        // chance == 0 consumes no draws: the stream is untouched.
        let mut fresh = set.stream("re");
        let mut used = stage.rng;
        assert_eq!(fresh.uniform_u64(0, 1 << 30), used.uniform_u64(0, 1 << 30));
    }

    #[test]
    fn displacement_is_bounded() {
        let cfg = ReorderConfig {
            chance: 0.2,
            max_displacement: 5,
            max_hold: SimDuration::from_secs(10),
        };
        let mut stage = ReorderStage::new(cfg, RngSet::new(12).stream("re"));
        let mut delivered = Vec::new();
        for i in 0..2_000u64 {
            delivered.extend(stage.offer(SimTime::from_millis(i), pkt(i)));
        }
        let mut reordered = 0usize;
        for (pos, p) in delivered.iter().enumerate() {
            // A packet with sequence s can appear at most max_displacement
            // positions later than in-order delivery would place it.
            let natural = p.seq as usize;
            assert!(
                pos <= natural + cfg.max_displacement as usize,
                "seq {} at position {pos}: displacement beyond bound",
                p.seq
            );
            if pos != natural {
                reordered += 1;
            }
        }
        assert!(reordered > 0, "20% hold chance must produce reordering");
    }

    #[test]
    fn all_packets_conserved_after_flush() {
        let cfg = ReorderConfig {
            chance: 0.5,
            max_displacement: 8,
            max_hold: SimDuration::from_millis(50),
        };
        let mut stage = ReorderStage::new(cfg, RngSet::new(13).stream("re"));
        let mut got = Vec::new();
        for i in 0..500u64 {
            got.extend(stage.offer(SimTime::from_millis(i), pkt(i)));
        }
        got.extend(stage.flush_due(SimTime::from_secs(10)));
        assert_eq!(stage.next_release(), None, "nothing left held");
        assert!(stage.flush_due(SimTime::MAX).is_empty());
        let mut seqs: Vec<u64> = got.iter().map(|p| p.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn timeout_releases_held_packet_during_lull() {
        let cfg = ReorderConfig {
            chance: 1.0,
            max_displacement: 100,
            max_hold: SimDuration::from_millis(50),
        };
        let mut stage = ReorderStage::new(cfg, RngSet::new(14).stream("re"));
        assert!(stage.offer(SimTime::ZERO, pkt(0)).is_empty());
        assert_eq!(stage.next_release(), Some(SimTime::from_millis(50)));
        assert!(stage.flush_due(SimTime::from_millis(49)).is_empty());
        let out = stage.flush_due(SimTime::from_millis(50));
        assert_eq!(out.len(), 1);
        assert_eq!(stage.stats().released_by_time, 1);
    }

    #[test]
    fn window_override_and_clear() {
        let mut stage = ReorderStage::new(ReorderConfig::default(), RngSet::new(15).stream("re"));
        stage.set_window(1.0, 2);
        assert!(stage.offer(SimTime::ZERO, pkt(0)).is_empty());
        stage.clear_window();
        // Base chance is 0: everything passes (and releases the held one
        // once two packets have overtaken it).
        let a = stage.offer(SimTime::ZERO, pkt(1));
        assert_eq!(a.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![1]);
        let b = stage.offer(SimTime::ZERO, pkt(2));
        assert_eq!(b.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![2, 0]);
        assert!(
            stage.flush_due(SimTime::MAX).is_empty(),
            "nothing left held"
        );
    }
}
