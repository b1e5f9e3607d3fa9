//! Baseline impairment: the Gilbert–Elliott loss process every [`Path`]
//! starts with, for the paper's observation that "most of the observed
//! packet drops occurred consecutively" (§4.1) at an overall PER of
//! 0.06–0.07 %. Everything else that can happen to a packet — timed loss,
//! duplication, corruption, blackouts — is a [`FaultScript`] clause.
//!
//! [`Path`]: crate::Path
//! [`FaultScript`]: crate::FaultScript

use bytes::Bytes;
use rpav_sim::SimRng;

use crate::packet::Packet;

/// Flip 1–3 random bits of the payload and mark the packet corrupted.
///
/// Used by scripted corruption windows; what happens to the damaged
/// packet next is the receiver's choice — model a UDP checksum (drop) or
/// feed the bytes to the hardened wire parsers and count the fallout.
pub fn corrupt_payload(packet: &mut Packet, rng: &mut SimRng) {
    packet.corrupted = true;
    if packet.payload.is_empty() {
        return;
    }
    let mut bytes = packet.payload.to_vec();
    let flips = rng.uniform_u64(1, 4);
    for _ in 0..flips {
        let pos = rng.uniform_u64(0, bytes.len() as u64) as usize;
        let bit = rng.uniform_u64(0, 8) as u32;
        bytes[pos] ^= 1u8 << bit;
    }
    packet.payload = Bytes::from(bytes);
}

/// Two-state Gilbert–Elliott burst-loss process.
///
/// In the Good state packets are lost with `p_loss_good` (usually 0); in the
/// Bad state with `p_loss_bad` (usually ≈1, producing consecutive drops).
/// Transitions are evaluated per packet.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    /// P(Good → Bad) per packet.
    pub p_good_to_bad: f64,
    /// P(Bad → Good) per packet.
    pub p_bad_to_good: f64,
    /// Loss probability while Good.
    pub p_loss_good: f64,
    /// Loss probability while Bad.
    pub p_loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Create a process starting in the Good state.
    pub fn new(p_good_to_bad: f64, p_bad_to_good: f64, p_loss_good: f64, p_loss_bad: f64) -> Self {
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            p_loss_good,
            p_loss_bad,
            in_bad: false,
        }
    }

    /// A disabled process that never loses anything.
    pub fn off() -> Self {
        GilbertElliott::new(0.0, 1.0, 0.0, 0.0)
    }

    /// Steady-state average loss rate of the process.
    pub fn mean_loss_rate(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            return self.p_loss_good;
        }
        let pi_bad = self.p_good_to_bad / denom;
        pi_bad * self.p_loss_bad + (1.0 - pi_bad) * self.p_loss_good
    }

    /// Advance one packet; returns `true` if that packet is lost.
    pub fn step(&mut self, rng: &mut SimRng) -> bool {
        if self.in_bad {
            if rng.chance(self.p_bad_to_good) {
                self.in_bad = false;
            }
        } else if rng.chance(self.p_good_to_bad) {
            self.in_bad = true;
        }
        let p = if self.in_bad {
            self.p_loss_bad
        } else {
            self.p_loss_good
        };
        rng.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind};
    use bytes::Bytes;
    use proptest::prelude::*;
    use rpav_sim::{RngSet, SimTime};

    fn pkt(seq: u64) -> Packet {
        Packet::new(
            seq,
            Bytes::from_static(&[0u8; 64]),
            PacketKind::Media,
            SimTime::ZERO,
        )
    }

    #[test]
    fn transparent_passes_everything() {
        let mut ge = GilbertElliott::off();
        let mut rng = RngSet::new(1).stream("f");
        let mut untouched = rng.clone();
        assert!((0..1000).all(|_| !ge.step(&mut rng)));
        // A disabled process draws nothing: attaching it to a path cannot
        // shift any other consumer of the stream.
        assert_eq!(rng.uniform(), untouched.uniform());
    }

    #[test]
    fn iid_drop_rate_matches_config() {
        // A process that never leaves Good is i.i.d. loss at `p_loss_good`.
        let mut ge = GilbertElliott::new(0.0, 1.0, 0.2, 0.0);
        let mut rng = RngSet::new(2).stream("f");
        let n = 50_000;
        let lost = (0..n).filter(|_| ge.step(&mut rng)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "{rate}");
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        // Rare bad state with certain loss inside it.
        let mut ge = GilbertElliott::new(0.001, 0.3, 0.0, 1.0);
        let mut rng = RngSet::new(3).stream("ge");
        let mut losses = Vec::new();
        for i in 0..200_000u64 {
            if ge.step(&mut rng) {
                losses.push(i);
            }
        }
        assert!(!losses.is_empty());
        // Count how many losses are adjacent to another loss: in a bursty
        // process the majority are.
        let adjacent = losses.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            adjacent as f64 >= 0.4 * losses.len() as f64,
            "losses were not bursty: {adjacent}/{}",
            losses.len()
        );
        // Mean loss rate should be near the analytic steady state.
        let expected = ge.mean_loss_rate();
        let observed = losses.len() as f64 / 200_000.0;
        assert!((observed - expected).abs() < expected * 0.3);
    }

    #[test]
    fn corruption_marks_packet() {
        let clean = pkt(1);
        let mut damaged = clean.clone();
        corrupt_payload(&mut damaged, &mut RngSet::new(5).stream("f"));
        assert!(damaged.corrupted);
        assert_eq!(damaged.payload.len(), clean.payload.len());
        assert_ne!(damaged.payload, clean.payload, "1–3 bits must flip");
    }

    #[test]
    fn mean_loss_rate_analytics() {
        let ge = GilbertElliott::new(0.01, 0.99, 0.0, 1.0);
        let pi_bad = 0.01 / (0.01 + 0.99);
        assert!((ge.mean_loss_rate() - pi_bad).abs() < 1e-12);
        assert_eq!(GilbertElliott::off().mean_loss_rate(), 0.0);
    }

    proptest! {
        /// The analytic steady-state loss rate matches what the process
        /// empirically produces, across the parameter space.
        #[test]
        fn prop_mean_loss_rate_matches_empirical(
            g2b in 0.002f64..0.2,
            b2g in 0.1f64..0.9,
            loss_bad in 0.3f64..1.0,
            seed in any::<u64>(),
        ) {
            let mut ge = GilbertElliott::new(g2b, b2g, 0.0, loss_bad);
            let mut rng = RngSet::new(seed).stream("prop.ge");
            let n = 100_000u64;
            let mut lost = 0u64;
            for _ in 0..n {
                if ge.step(&mut rng) {
                    lost += 1;
                }
            }
            let empirical = lost as f64 / n as f64;
            let expected = ge.mean_loss_rate();
            prop_assert!(
                (empirical - expected).abs() < 0.15 * expected + 0.005,
                "empirical {} vs analytic {} (g2b {} b2g {} p_bad {})",
                empirical, expected, g2b, b2g, loss_bad
            );
        }
    }
}
