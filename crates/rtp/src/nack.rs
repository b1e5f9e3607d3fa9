//! RFC 4585 generic NACK — the receiver half of the loss-repair subsystem.
//!
//! Two pieces live here:
//!
//! * [`Nack`] — the transport-layer feedback wire format (`PT 205 /
//!   FMT 1`), carrying `(PID, BLP)` FCI entries that name up to 17 lost
//!   media sequence numbers each, behind the shared feedback header
//!   ([`crate::rtcp`]).
//! * [`NackGenerator`] — gap detection over **unwrapped** sequence
//!   numbers, debounced NACK batching, bounded retries, and
//!   playout-deadline awareness: a missing packet is only requested while
//!   a retransmission can still arrive before its jitter-buffer due time;
//!   after that the generator abandons it and the existing
//!   reference-break → PLI path takes over.
//!
//! Determinism: the generator is pure state-machine logic — no RNG — so a
//! repair-enabled run replays bit-identically for a fixed seed.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rpav_sim::{SimDuration, SimTime};

use crate::error::ParseError;
use crate::rtcp::{self, FeedbackHeader};
use crate::seqwindow::{SeqReading, SeqUnwrapper, SeqWindow};

/// A generic NACK feedback message: a batch of lost media sequence
/// numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nack {
    /// SSRC of the packet sender (the media receiver).
    pub sender_ssrc: u32,
    /// SSRC of the media source the losses were observed on.
    pub media_ssrc: u32,
    /// The lost sequence numbers, ascending (mod 2^16 batch-local order).
    pub lost: Vec<u16>,
}

impl Nack {
    /// Serialise to RTCP wire format: 12-byte feedback header plus one
    /// 32-bit `(PID, BLP)` FCI entry per run of ≤17 nearby losses.
    pub fn serialize(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(12 + 4 * self.lost.len());
        FeedbackHeader::write(&mut b, &rtcp::NACK, self.sender_ssrc, self.media_ssrc);
        // Pack losses into (PID, BLP) entries, written as each one
        // closes: an entry covers PID and the 16 following sequence
        // numbers.
        let mut open: Option<(u16, u16)> = None;
        for &seq in &self.lost {
            if let Some((pid, blp)) = &mut open {
                let off = seq.wrapping_sub(*pid);
                if off <= 16 {
                    if off != 0 {
                        *blp |= 1 << (off - 1);
                    } // else: duplicate in batch
                    continue;
                }
                b.put_u16(*pid);
                b.put_u16(*blp);
            }
            open = Some((seq, 0));
        }
        if let Some((pid, blp)) = open {
            b.put_u16(pid);
            b.put_u16(blp);
        }
        FeedbackHeader::set_length(&mut b);
        b.freeze()
    }

    /// Parse from wire bytes. Total: returns a typed [`ParseError`] when
    /// the bytes are not a generic NACK, never panics.
    pub fn parse(data: Bytes) -> Result<Nack, ParseError> {
        let mut nack = Nack::empty();
        Self::parse_into(data, &mut nack).map(|()| nack)
    }

    /// A NACK naming nothing — the value to reuse with
    /// [`parse_into`](Self::parse_into).
    pub fn empty() -> Nack {
        Nack {
            sender_ssrc: 0,
            media_ssrc: 0,
            lost: Vec::new(),
        }
    }

    /// [`parse`](Self::parse) into a reusable value (the loss vector keeps
    /// its capacity). `out` is only written once the header checks pass.
    pub fn parse_into(mut data: Bytes, out: &mut Nack) -> Result<(), ParseError> {
        let header = FeedbackHeader::parse(&mut data, &rtcp::NACK)?;
        if data.len() % 4 != 0 {
            return Err(ParseError::Malformed {
                reason: "FCI not a multiple of 4 bytes",
            });
        }
        out.sender_ssrc = header.sender_ssrc;
        out.media_ssrc = header.media_ssrc;
        out.lost.clear();
        // At most one allocation: an entry names at most 17 sequence
        // numbers.
        out.lost.reserve(data.len() / 4 * 17);
        while data.len() >= 4 {
            let pid = data.get_u16();
            let blp = data.get_u16();
            out.lost.push(pid);
            for bit in 0..16u16 {
                if blp & (1 << bit) != 0 {
                    out.lost.push(pid.wrapping_add(bit + 1));
                }
            }
        }
        Ok(())
    }
}

/// How the generator classified an arriving media packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// In-order (or first-ever) packet advancing the head of line.
    InOrder,
    /// Filled a tracked gap before any NACK went out — plain reordering.
    Reordered,
    /// Filled a gap we had NACKed: a retransmission that made it in time.
    Recovered,
    /// Arrived after the generator had given the packet up — too late to
    /// help playout (a wasted retransmission or extreme reordering).
    Late,
    /// Below the tracking window or already seen; nothing to update.
    Stale,
}

/// Repair-efficiency counters, exposed to the run metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NackStats {
    /// NACK feedback packets sent.
    pub nacks_sent: u64,
    /// Individual sequence-number requests sent (retries count again).
    pub seqs_requested: u64,
    /// NACKed packets that arrived before their playout deadline.
    pub recovered: u64,
    /// Gaps filled by plain reordering before any NACK went out.
    pub reordered: u64,
    /// Missing packets given up on (deadline unreachable or retries
    /// exhausted) — these escalate to the PLI path.
    pub abandoned: u64,
    /// Packets that arrived *after* being given up — wasted repair.
    pub late_recovered: u64,
}

/// Tunables for the NACK state machine.
#[derive(Clone, Copy, Debug)]
pub struct NackConfig {
    /// Minimum spacing between NACK packets (batching window).
    pub debounce: SimDuration,
    /// Maximum times one sequence number is requested.
    pub max_retries: u32,
    /// Extra margin on top of the RTT estimate when judging whether a
    /// retransmission can still beat the playout deadline.
    pub deadline_margin: SimDuration,
    /// Playout budget a missing packet has from the moment its gap is
    /// detected (the jitter-buffer target; updated on inflation).
    pub playout_budget: SimDuration,
    /// Hold-off before the *first* request for a freshly detected gap.
    /// Zero (the default) NACKs immediately; a repair layer that can fill
    /// holes without a round trip (FEC, cross-leg reordering) sets this
    /// to its expected repair latency so the retransmission path only
    /// spends bandwidth on holes the cheap repair missed.
    pub initial_hold: SimDuration,
}

impl Default for NackConfig {
    fn default() -> Self {
        NackConfig {
            debounce: SimDuration::from_millis(10),
            max_retries: 3,
            deadline_margin: SimDuration::from_millis(10),
            playout_budget: SimDuration::from_millis(150),
            initial_hold: SimDuration::ZERO,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct MissingSeq {
    /// When the gap was detected; the playout deadline anchors here.
    detected: SimTime,
    /// NACKs already sent for this sequence.
    retries: u32,
    /// Earliest time the next request may go out.
    next_request: SimTime,
}

/// Receiver-side gap detector and NACK scheduler.
#[derive(Debug)]
pub struct NackGenerator {
    config: NackConfig,
    /// Reads the arrivals given to [`on_packet`](Self::on_packet).
    seqs: SeqUnwrapper,
    /// Gaps currently being chased, keyed by unwrapped sequence. The
    /// window iterates sequence-ascending, which fixes the order of every
    /// emitted NACK batch.
    missing: SeqWindow<MissingSeq>,
    /// Gaps given up on (bounded; GC'd as the window advances) — only
    /// ever probed, never iterated.
    abandoned: SeqWindow<()>,
    /// Earliest time the next NACK packet may be emitted.
    next_nack_at: SimTime,
    /// Smoothed RTT hint from the pipeline's OWD samples.
    rtt_hint: SimDuration,
    stats: NackStats,
}

/// Abandoned-set retention window (sequence numbers below
/// `highest - WINDOW` are forgotten entirely).
const TRACK_WINDOW: u64 = 4096;

impl NackGenerator {
    /// Create a generator with the given tunables.
    pub fn new(config: NackConfig) -> Self {
        NackGenerator {
            config,
            seqs: SeqUnwrapper::new(),
            missing: SeqWindow::new(),
            abandoned: SeqWindow::new(),
            next_nack_at: SimTime::ZERO,
            rtt_hint: SimDuration::from_millis(40),
            stats: NackStats::default(),
        }
    }

    /// Update the RTT estimate used for deadline feasibility.
    pub fn set_rtt_hint(&mut self, rtt: SimDuration) {
        self.rtt_hint = rtt;
    }

    /// Update the playout budget (jitter-target inflation moves it).
    pub fn set_playout_budget(&mut self, budget: SimDuration) {
        self.config.playout_budget = budget;
    }

    /// Counters so far.
    pub fn stats(&self) -> NackStats {
        self.stats
    }

    /// Record an arriving media packet by its 16-bit sequence and classify
    /// it: [`on_arrival`](Self::on_arrival) behind this generator's own
    /// reader.
    pub fn on_packet(&mut self, now: SimTime, seq: u16) -> Arrival {
        let reading = self.seqs.read(seq);
        self.on_arrival(now, reading)
    }

    /// Record an arriving media packet, as the stream's reader read it,
    /// and classify it against the head of line before it.
    pub fn on_arrival(&mut self, now: SimTime, reading: SeqReading) -> Arrival {
        let SeqReading {
            seq: unwrapped,
            head,
        } = reading;
        let Some(prev) = head else {
            return Arrival::InOrder;
        };
        if unwrapped > prev {
            // Advancing the head of line: everything strictly between is
            // now a detected gap. Gaps below the tracking floor would be
            // GC'd before they could ever be polled — skip them entirely,
            // so a blackout-sized jump cannot balloon the window.
            let first = (prev + 1).max(unwrapped.saturating_sub(TRACK_WINDOW));
            for gap in first..unwrapped {
                self.missing.insert(
                    gap,
                    MissingSeq {
                        detected: now,
                        retries: 0,
                        next_request: now + self.config.initial_hold,
                    },
                );
            }
            self.gc(unwrapped);
            return Arrival::InOrder;
        }
        if unwrapped == prev {
            return Arrival::Stale;
        }
        // Filling in behind the head of line.
        if let Some(m) = self.missing.remove(unwrapped) {
            if m.retries > 0 {
                self.stats.recovered += 1;
                return Arrival::Recovered;
            }
            self.stats.reordered += 1;
            return Arrival::Reordered;
        }
        if self.abandoned.remove(unwrapped).is_some() {
            self.stats.late_recovered += 1;
            return Arrival::Late;
        }
        Arrival::Stale
    }

    /// Emit the next NACK batch if the debounce window has passed and at
    /// least one missing packet is both due and still worth chasing.
    pub fn poll(&mut self, now: SimTime) -> Option<Nack> {
        // First pass: abandon everything that can no longer make it —
        // taken out of its slot in place, no scratch list.
        let rtt = self.rtt_hint + self.config.deadline_margin;
        self.missing.retain(|seq, m| {
            let deadline = m.detected + self.config.playout_budget;
            let exhausted = m.retries >= self.config.max_retries;
            let unreachable = now + rtt >= deadline;
            if exhausted || unreachable {
                self.abandoned.insert(seq, ());
                self.stats.abandoned += 1;
            }
            !(exhausted || unreachable)
        });

        if now < self.next_nack_at {
            return None;
        }
        let mut batch: Vec<u16> = Vec::new();
        let chased = self.missing.len();
        for (seq, m) in self.missing.iter_mut() {
            if now >= m.next_request {
                if batch.is_empty() {
                    batch.reserve_exact(chased);
                }
                batch.push((seq & 0xffff) as u16);
                m.retries += 1;
                // Re-request only after a full round trip had its chance.
                m.next_request = now + self.rtt_hint + self.config.deadline_margin;
            }
        }
        if batch.is_empty() {
            return None;
        }
        self.next_nack_at = now + self.config.debounce;
        self.stats.nacks_sent += 1;
        self.stats.seqs_requested += batch.len() as u64;
        Some(Nack {
            sender_ssrc: 0x1,
            media_ssrc: 0x2,
            lost: batch,
        })
    }

    /// Earliest future instant at which [`poll`](Self::poll) could act:
    /// abandon a chased gap (deadline/retry edges) or emit a NACK batch
    /// (debounce + per-sequence re-request edges). `None` when nothing is
    /// being chased, in which case `poll` stays a no-op until the next gap
    /// is detected. Edges may be conservative (at or before the true
    /// instant); early polls are no-ops.
    pub fn next_wake(&self) -> Option<SimTime> {
        if self.missing.is_empty() {
            return None;
        }
        let rtt = self.rtt_hint + self.config.deadline_margin;
        let mut abandon: Option<SimTime> = None;
        let mut request: Option<SimTime> = None;
        for (_, m) in self.missing.iter() {
            let a = if m.retries >= self.config.max_retries {
                SimTime::ZERO // exhausted: the very next poll abandons it
            } else {
                (m.detected + self.config.playout_budget) - rtt
            };
            abandon = Some(abandon.map_or(a, |x| x.min(a)));
            if m.retries < self.config.max_retries {
                request = Some(request.map_or(m.next_request, |x| x.min(m.next_request)));
            }
        }
        let emit = request.map(|r| r.max(self.next_nack_at));
        match (abandon, emit) {
            (Some(a), Some(e)) => Some(a.min(e)),
            (a, e) => a.or(e),
        }
    }

    fn gc(&mut self, highest: u64) {
        let floor = highest.saturating_sub(TRACK_WINDOW);
        self.missing.evict_below(floor);
        self.abandoned.evict_below(floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_single_and_bitmap() {
        let n = Nack {
            sender_ssrc: 0x1,
            media_ssrc: 0x2,
            lost: vec![100, 101, 105, 116, 400],
        };
        let wire = n.serialize();
        // 100..=116 fits one (PID, BLP) entry; 400 needs a second.
        assert_eq!(wire.len(), 12 + 8);
        let parsed = Nack::parse(wire).unwrap();
        assert_eq!(parsed, n);
    }

    #[test]
    fn wire_roundtrip_wraps() {
        let n = Nack {
            sender_ssrc: 1,
            media_ssrc: 2,
            lost: vec![65_534, 65_535, 0, 1],
        };
        let parsed = Nack::parse(n.serialize()).unwrap();
        assert_eq!(parsed.lost, vec![65_534, 65_535, 0, 1]);
    }

    #[test]
    fn rejects_other_dialects_and_garbage() {
        let pli = crate::Pli {
            sender_ssrc: 1,
            media_ssrc: 2,
        };
        assert_eq!(
            Nack::parse(pli.serialize()),
            Err(ParseError::WrongPacketType { expected: "NACK" })
        );
        assert!(Nack::parse(Bytes::from_static(b"nope")).is_err());
        // Ragged FCI (not a multiple of 4).
        let mut b = BytesMut::new();
        FeedbackHeader::write(&mut b, &rtcp::NACK, 1, 2);
        b.put_u16(77);
        assert_eq!(
            Nack::parse(b.freeze()),
            Err(ParseError::Malformed {
                reason: "FCI not a multiple of 4 bytes"
            })
        );
    }

    #[test]
    fn detects_gap_and_batches_one_nack() {
        let mut g = NackGenerator::new(NackConfig::default());
        let t0 = SimTime::from_millis(1_000);
        assert_eq!(g.on_packet(t0, 10), Arrival::InOrder);
        assert_eq!(g.on_packet(t0, 14), Arrival::InOrder); // 11,12,13 missing
        let nack = g.poll(t0).expect("due immediately");
        assert_eq!(nack.lost, vec![11, 12, 13]);
        assert_eq!(g.stats().nacks_sent, 1);
        assert_eq!(g.stats().seqs_requested, 3);
        // Debounced: nothing more this instant.
        assert!(g.poll(t0).is_none());
    }

    #[test]
    fn recovery_and_reorder_classified() {
        let mut g = NackGenerator::new(NackConfig::default());
        let t0 = SimTime::from_millis(1_000);
        g.on_packet(t0, 0);
        g.on_packet(t0, 3); // 1, 2 missing
                            // 1 arrives before any NACK: reordering.
        assert_eq!(g.on_packet(t0, 1), Arrival::Reordered);
        let _ = g.poll(t0).unwrap(); // NACK for 2 goes out
        assert_eq!(
            g.on_packet(t0 + SimDuration::from_millis(40), 2),
            Arrival::Recovered
        );
        assert_eq!(g.stats().recovered, 1);
        assert_eq!(g.stats().reordered, 1);
    }

    #[test]
    fn deadline_pass_abandons_unreachable_packets() {
        let mut g = NackGenerator::new(NackConfig {
            playout_budget: SimDuration::from_millis(50),
            ..Default::default()
        });
        g.set_rtt_hint(SimDuration::from_millis(45));
        let t0 = SimTime::from_millis(1_000);
        g.on_packet(t0, 0);
        g.on_packet(t0, 2); // 1 missing; deadline t0+50, rtt+margin 55 > 50
        assert!(g.poll(t0).is_none(), "infeasible repair must not be NACKed");
        assert_eq!(g.stats().abandoned, 1);
        // Arriving anyway counts as late.
        assert_eq!(
            g.on_packet(t0 + SimDuration::from_millis(60), 1),
            Arrival::Late
        );
        assert_eq!(g.stats().late_recovered, 1);
    }

    #[test]
    fn retries_bounded_then_abandoned() {
        let cfg = NackConfig {
            debounce: SimDuration::from_millis(5),
            max_retries: 2,
            playout_budget: SimDuration::from_secs(10), // deadline far away
            ..Default::default()
        };
        let mut g = NackGenerator::new(cfg);
        g.set_rtt_hint(SimDuration::from_millis(10));
        let t0 = SimTime::from_millis(1_000);
        g.on_packet(t0, 0);
        g.on_packet(t0, 2);
        let mut sent = 0;
        let mut t = t0;
        for _ in 0..100 {
            if g.poll(t).is_some() {
                sent += 1;
            }
            t += SimDuration::from_millis(5);
        }
        assert_eq!(sent, 2, "max_retries bounds the requests");
        assert_eq!(g.stats().abandoned, 1);
    }

    #[test]
    fn initial_hold_gives_other_repair_first_shot() {
        let mut g = NackGenerator::new(NackConfig {
            initial_hold: SimDuration::from_millis(30),
            ..Default::default()
        });
        let t0 = SimTime::from_millis(1_000);
        g.on_packet(t0, 0);
        g.on_packet(t0, 2); // 1 missing, held
        assert!(g.poll(t0).is_none(), "held gap must not be NACKed yet");
        assert!(g.poll(t0 + SimDuration::from_millis(29)).is_none());
        // The cheap repair (FEC) fills the hole inside the hold: no NACK
        // ever goes out, and the fill reads as plain reordering.
        assert_eq!(
            g.on_packet(t0 + SimDuration::from_millis(20), 1),
            Arrival::Reordered
        );
        assert!(g.poll(t0 + SimDuration::from_millis(60)).is_none());
        assert_eq!(g.stats().nacks_sent, 0);

        // A hole the repair misses is requested once the hold expires.
        g.on_packet(t0, 5); // 3, 4 missing at t0
        let nack = g
            .poll(t0 + SimDuration::from_millis(30))
            .expect("hold expired");
        assert_eq!(nack.lost, vec![3, 4]);
    }

    #[test]
    fn gap_across_u16_wrap_tracked() {
        let mut g = NackGenerator::new(NackConfig::default());
        let t0 = SimTime::from_millis(1_000);
        g.on_packet(t0, 65_534);
        g.on_packet(t0, 2); // 65_535, 0, 1 missing across the wrap
        let nack = g.poll(t0).unwrap();
        assert_eq!(nack.lost, vec![65_535, 0, 1]);
        let parsed = Nack::parse(nack.serialize()).unwrap();
        assert_eq!(parsed.lost, vec![65_535, 0, 1]);
    }
}
