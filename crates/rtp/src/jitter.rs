//! Receiver-side RTP jitter buffer.
//!
//! Models GStreamer's `rtpjitterbuffer` as configured in the paper's
//! pipeline (§3.2): packets are held for a 150 ms target to cushion the
//! variable arrival rate and restore ordering, then released on a playout
//! clock derived from the RTP media timestamps.
//!
//! The `drop_on_latency` switch reproduces the Appendix A.4 discussion: in
//! the stock configuration a late packet is still delivered (playback
//! latency grows); with `drop-on-latency` enabled packets older than the
//! target are discarded so the pilot always sees the freshest frame.
//!
//! # Data structure
//!
//! Buffered packets sit in one `VecDeque` kept sorted on the release
//! order `(playout, unwrapped seq)`. A stream that arrives in order — every
//! packet of a single-path session — produces nondecreasing keys, so
//! [`JitterBuffer::push`] is a `push_back` and [`JitterBuffer::pop_due`] a
//! `pop_front`: no comparisons beyond the one against the back. An arrival
//! that belongs earlier (cross-leg reorder, a retransmission, a packet
//! scheduled after the target was deflated) is placed by binary search.
//! The binary heap this replaced released in the same total order; it
//! survives as the `#[cfg(test)]` oracle `reference::HeapJitterBuffer`,
//! which a property test drives in lock-step with this one.

use std::collections::VecDeque;

use rpav_sim::{SimDuration, SimTime};

use crate::packet::{RtpPacket, VIDEO_CLOCK_HZ};
use crate::seqwindow::{SeqUnwrapper, SeqWindow};

/// One buffered packet with its release key. The queue is ordered by
/// (playout time, unwrapped seq); unwrapped seqs are unique in the queue
/// (duplicates are rejected on push), so the order is total and releases
/// are deterministic.
#[derive(Debug)]
struct Queued {
    playout: SimTime,
    unwrapped: u64,
    packet: RtpPacket,
}

impl Queued {
    fn key(&self) -> (SimTime, u64) {
        (self.playout, self.unwrapped)
    }
}

/// Jitter buffer configuration.
#[derive(Clone, Copy, Debug)]
pub struct JitterConfig {
    /// Target hold time — the paper uses 150 ms.
    pub target: SimDuration,
    /// Drop packets that are already past their playout time instead of
    /// delivering them late (App. A.4).
    pub drop_on_latency: bool,
}

impl Default for JitterConfig {
    fn default() -> Self {
        JitterConfig {
            target: SimDuration::from_millis(150),
            drop_on_latency: false,
        }
    }
}

/// Counters for analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JitterStats {
    /// Packets accepted.
    pub pushed: u64,
    /// Packets delivered to the decoder.
    pub delivered: u64,
    /// Packets that arrived after their playout time.
    pub late: u64,
    /// Late packets discarded (only in `drop_on_latency` mode).
    pub dropped_late: u64,
    /// Arrivals discarded as not new: still buffered, or at or below the
    /// highest sequence already delivered — a repeat, or an original
    /// that came too late to play.
    pub duplicates: u64,
}

/// The buffer itself.
#[derive(Debug)]
pub struct JitterBuffer {
    config: JitterConfig,
    /// Media timestamp ↔ wall-clock anchor from the first packet.
    base: Option<(u32, SimTime)>,
    /// Buffered packets, sorted ascending on [`Queued::key`]: the front
    /// is the next release. The ring's storage is reused across pops, so
    /// steady-state buffering allocates nothing.
    queue: VecDeque<Queued>,
    /// Unwrapped seqs currently buffered — O(1) duplicate detection.
    buffered: SeqWindow<()>,
    /// Reads the arrivals given to [`push`](Self::push).
    seqs: SeqUnwrapper,
    /// Highest unwrapped seq delivered (duplicate detection watermark).
    delivered_max: Option<u64>,
    stats: JitterStats,
}

impl JitterBuffer {
    /// Create an empty buffer.
    pub fn new(config: JitterConfig) -> Self {
        JitterBuffer {
            config,
            base: None,
            queue: VecDeque::new(),
            buffered: SeqWindow::new(),
            seqs: SeqUnwrapper::new(),
            delivered_max: None,
            stats: JitterStats::default(),
        }
    }

    /// The configured target hold time.
    pub fn target(&self) -> SimDuration {
        self.config.target
    }

    /// Re-target the hold time. Packets already buffered keep the playout
    /// times computed when they arrived; only future arrivals feel the new
    /// target. The receive pipeline uses this to inflate the buffer under
    /// repeated outages (graceful degradation) and to deflate it again once
    /// delivery has been clean for a while.
    pub fn set_target(&mut self, target: SimDuration) {
        self.config.target = target;
    }

    /// Counters.
    pub fn stats(&self) -> JitterStats {
        self.stats
    }

    /// Packets currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Media-timestamp-derived playout time for `packet`.
    fn playout_time(&mut self, packet: &RtpPacket, now: SimTime) -> SimTime {
        let (ts0, t0) = *self.base.get_or_insert((packet.timestamp, now));
        // Wrapping difference in 90 kHz ticks (handles u32 wrap; reordered
        // packets give small negative values).
        let dt_ticks = packet.timestamp.wrapping_sub(ts0) as i32 as i64;
        let dt_us = dt_ticks * 1_000_000 / VIDEO_CLOCK_HZ as i64;
        let media_time = if dt_us >= 0 {
            t0 + SimDuration::from_micros(dt_us as u64)
        } else {
            t0 - SimDuration::from_micros((-dt_us) as u64)
        };
        media_time + self.config.target
    }

    /// Offer an arriving packet: [`offer`](Self::offer) behind this
    /// buffer's own reader of its 16-bit sequence.
    pub fn push(&mut self, now: SimTime, packet: RtpPacket) {
        let unwrapped = self.seqs.observe(packet.sequence);
        self.offer(now, unwrapped, packet);
    }

    /// Offer an arriving packet under its extended sequence, as the
    /// stream's reader read it.
    pub fn offer(&mut self, now: SimTime, unwrapped: u64, packet: RtpPacket) {
        // Duplicate detection: already buffered, or at-or-below the
        // delivery watermark.
        if self.buffered.get(unwrapped).is_some()
            || self.delivered_max.is_some_and(|d| unwrapped <= d)
        {
            self.stats.duplicates += 1;
            return;
        }

        self.stats.pushed += 1;
        let playout = self.playout_time(&packet, now);
        let playout = if playout <= now {
            self.stats.late += 1;
            if self.config.drop_on_latency {
                self.stats.dropped_late += 1;
                return;
            }
            // Deliver as soon as possible, keeping order.
            now
        } else {
            playout
        };
        self.buffered.insert(unwrapped, ());
        let key = (playout, unwrapped);
        let queued = Queued {
            playout,
            unwrapped,
            packet,
        };
        if self.queue.back().is_none_or(|b| b.key() < key) {
            self.queue.push_back(queued);
        } else {
            let at = self.queue.partition_point(|q| q.key() < key);
            self.queue.insert(at, queued);
        }
    }

    /// Pop the next packet whose playout time has arrived.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, RtpPacket)> {
        if self.queue.front()?.playout > now {
            return None;
        }
        let q = self.queue.pop_front()?;
        self.buffered.remove(q.unwrapped);
        self.stats.delivered += 1;
        self.delivered_max = Some(
            self.delivered_max
                .map_or(q.unwrapped, |d| d.max(q.unwrapped)),
        );
        Some((q.playout, q.packet))
    }

    /// Earliest pending playout instant.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.queue.front().map(|q| q.playout)
    }

    /// Discard everything buffered (e.g. on stream reset). Returns count.
    pub fn clear(&mut self) -> usize {
        let n = self.queue.len();
        self.queue.clear();
        self.buffered.clear();
        n
    }
}

#[cfg(test)]
/// The binary-heap buffer the ordered deque replaced, kept verbatim as the
/// release-order oracle (the `crc32_bytewise` pattern): same anchor, same
/// duplicate / late rules, same `(playout, unwrapped)` total order, with
/// the keys sifted through a `BinaryHeap`, the packets in a side slab and
/// the buffered set a plain `HashSet`.
mod reference {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};

    use super::*;

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct QueuedKey {
        playout: SimTime,
        unwrapped: u64,
        slot: u32,
    }

    #[derive(Debug)]
    pub(super) struct HeapJitterBuffer {
        config: JitterConfig,
        base: Option<(u32, SimTime)>,
        queue: BinaryHeap<Reverse<QueuedKey>>,
        slab: Vec<Option<RtpPacket>>,
        free: Vec<u32>,
        buffered: HashSet<u64>,
        seqs: SeqUnwrapper,
        delivered_max: Option<u64>,
        stats: JitterStats,
    }

    impl HeapJitterBuffer {
        pub(super) fn new(config: JitterConfig) -> Self {
            HeapJitterBuffer {
                config,
                base: None,
                queue: BinaryHeap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                buffered: HashSet::new(),
                seqs: SeqUnwrapper::new(),
                delivered_max: None,
                stats: JitterStats::default(),
            }
        }

        pub(super) fn set_target(&mut self, target: SimDuration) {
            self.config.target = target;
        }

        pub(super) fn stats(&self) -> JitterStats {
            self.stats
        }

        pub(super) fn len(&self) -> usize {
            self.queue.len()
        }

        fn playout_time(&mut self, packet: &RtpPacket, now: SimTime) -> SimTime {
            let (ts0, t0) = *self.base.get_or_insert((packet.timestamp, now));
            let dt_ticks = packet.timestamp.wrapping_sub(ts0) as i32 as i64;
            let dt_us = dt_ticks * 1_000_000 / VIDEO_CLOCK_HZ as i64;
            let media_time = if dt_us >= 0 {
                t0 + SimDuration::from_micros(dt_us as u64)
            } else {
                t0 - SimDuration::from_micros((-dt_us) as u64)
            };
            media_time + self.config.target
        }

        pub(super) fn push(&mut self, now: SimTime, packet: RtpPacket) {
            let unwrapped = self.seqs.observe(packet.sequence);
            if self.buffered.contains(&unwrapped)
                || self.delivered_max.map(|d| unwrapped <= d).unwrap_or(false)
            {
                self.stats.duplicates += 1;
                return;
            }
            self.stats.pushed += 1;
            let playout = self.playout_time(&packet, now);
            let playout = if playout <= now {
                self.stats.late += 1;
                if self.config.drop_on_latency {
                    self.stats.dropped_late += 1;
                    return;
                }
                now
            } else {
                playout
            };
            self.buffered.insert(unwrapped);
            let slot = match self.free.pop() {
                Some(i) => {
                    self.slab[i as usize] = Some(packet);
                    i
                }
                None => {
                    self.slab.push(Some(packet));
                    (self.slab.len() - 1) as u32
                }
            };
            self.queue.push(Reverse(QueuedKey {
                playout,
                unwrapped,
                slot,
            }));
        }

        pub(super) fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, RtpPacket)> {
            if self.queue.peek()?.0.playout > now {
                return None;
            }
            let Reverse(q) = self.queue.pop()?;
            self.buffered.remove(&q.unwrapped);
            self.stats.delivered += 1;
            self.delivered_max = Some(
                self.delivered_max
                    .map(|d| d.max(q.unwrapped))
                    .unwrap_or(q.unwrapped),
            );
            let packet = self.slab[q.slot as usize]
                .take()
                .expect("queued slot holds a packet");
            self.free.push(q.slot);
            Some((q.playout, packet))
        }

        pub(super) fn next_wake(&self) -> Option<SimTime> {
            self.queue.peek().map(|q| q.0.playout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::HeapJitterBuffer;
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn pkt(seq: u16, ts_ms: u64) -> RtpPacket {
        RtpPacket {
            marker: false,
            payload_type: 96,
            sequence: seq,
            timestamp: (ts_ms * (VIDEO_CLOCK_HZ as u64 / 1_000)) as u32,
            ssrc: 1,
            transport_seq: None,
            payload: Bytes::from_static(b"x"),
            wire: None,
        }
    }

    #[test]
    fn holds_packets_for_target() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let t0 = SimTime::from_secs(1);
        jb.push(t0, pkt(0, 0));
        assert!(jb.pop_due(t0).is_none());
        assert!(jb.pop_due(t0 + SimDuration::from_millis(149)).is_none());
        let (playout, p) = jb.pop_due(t0 + SimDuration::from_millis(150)).unwrap();
        assert_eq!(p.sequence, 0);
        assert_eq!(playout, t0 + SimDuration::from_millis(150));
    }

    #[test]
    fn set_target_applies_to_future_arrivals_only() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let t0 = SimTime::from_secs(1);
        jb.push(t0, pkt(0, 0));
        // Inflate after the first packet was scheduled.
        jb.set_target(SimDuration::from_millis(300));
        assert_eq!(jb.target(), SimDuration::from_millis(300));
        jb.push(t0 + SimDuration::from_millis(33), pkt(1, 33));
        // Packet 0 keeps its 150 ms schedule.
        let (p0_at, p0) = jb.pop_due(t0 + SimDuration::from_millis(150)).unwrap();
        assert_eq!(p0.sequence, 0);
        assert_eq!(p0_at, t0 + SimDuration::from_millis(150));
        // Packet 1 (media time 33 ms) is held for the inflated target.
        assert!(jb.pop_due(t0 + SimDuration::from_millis(332)).is_none());
        let (p1_at, p1) = jb.pop_due(t0 + SimDuration::from_millis(333)).unwrap();
        assert_eq!(p1.sequence, 1);
        assert_eq!(p1_at, t0 + SimDuration::from_millis(333));
    }

    #[test]
    fn restores_order_of_jittered_arrivals() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let t0 = SimTime::from_secs(1);
        // Packet 1 (media time 33 ms) arrives before packet 0.
        jb.push(t0 + SimDuration::from_millis(40), pkt(1, 33));
        jb.push(t0 + SimDuration::from_millis(45), pkt(0, 0));
        // Base anchors at first arrival: packet 1 plays at t0+40+150,
        // packet 0 (33 ms earlier in media time) at t0+40+150-33.
        let late = t0 + SimDuration::from_secs(1);
        let first = jb.pop_due(late).unwrap().1;
        let second = jb.pop_due(late).unwrap().1;
        assert_eq!(first.sequence, 0);
        assert_eq!(second.sequence, 1);
    }

    #[test]
    fn late_packet_delivered_immediately_by_default() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let t0 = SimTime::from_secs(1);
        jb.push(t0, pkt(0, 0));
        // Media time 33 ms, but arrives 400 ms later: playout (t0+183ms)
        // already passed.
        let late_arrival = t0 + SimDuration::from_millis(400);
        jb.push(late_arrival, pkt(1, 33));
        assert_eq!(jb.stats().late, 1);
        // Delivered at its arrival time, not dropped.
        // First pop the on-time packet 0 (due at t0+150).
        assert_eq!(jb.pop_due(late_arrival).unwrap().1.sequence, 0);
        let (when, p) = jb.pop_due(late_arrival).unwrap();
        assert_eq!(p.sequence, 1);
        assert_eq!(when, late_arrival);
        assert_eq!(jb.stats().dropped_late, 0);
    }

    #[test]
    fn drop_on_latency_discards_late_packets() {
        let mut jb = JitterBuffer::new(JitterConfig {
            drop_on_latency: true,
            ..Default::default()
        });
        let t0 = SimTime::from_secs(1);
        jb.push(t0, pkt(0, 0));
        jb.push(t0 + SimDuration::from_millis(400), pkt(1, 33));
        assert_eq!(jb.stats().dropped_late, 1);
        assert_eq!(
            jb.pop_due(t0 + SimDuration::from_secs(1))
                .unwrap()
                .1
                .sequence,
            0
        );
        assert!(jb.pop_due(t0 + SimDuration::from_secs(1)).is_none());
    }

    #[test]
    fn duplicates_are_discarded() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let t0 = SimTime::from_secs(1);
        jb.push(t0, pkt(0, 0));
        jb.push(t0, pkt(0, 0));
        assert_eq!(jb.stats().duplicates, 1);
        let far = t0 + SimDuration::from_secs(1);
        assert!(jb.pop_due(far).is_some());
        assert!(jb.pop_due(far).is_none());
        // A duplicate of a delivered packet is also rejected.
        jb.push(far, pkt(0, 0));
        assert_eq!(jb.stats().duplicates, 2);
        assert!(jb.pop_due(far + SimDuration::from_secs(1)).is_none());
    }

    #[test]
    fn playout_clock_follows_media_timestamps() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let t0 = SimTime::from_secs(5);
        // 30 FPS: frames every 33 ms, arriving with small jitter.
        for i in 0..10u16 {
            let arrival = t0 + SimDuration::from_millis(i as u64 * 33 + (i as u64 % 3));
            jb.push(arrival, pkt(i, i as u64 * 33));
        }
        let mut expected = t0 + SimDuration::from_millis(150);
        for i in 0..10u16 {
            let (when, p) = jb.pop_due(SimTime::from_secs(60)).unwrap();
            assert_eq!(p.sequence, i);
            assert_eq!(when, expected);
            expected += SimDuration::from_millis(33);
        }
    }

    #[test]
    fn next_wake_reports_earliest_playout() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        assert!(jb.next_wake().is_none());
        let t0 = SimTime::from_secs(1);
        jb.push(t0, pkt(0, 0));
        assert_eq!(jb.next_wake(), Some(t0 + SimDuration::from_millis(150)));
    }

    #[test]
    fn clear_empties_buffer() {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let t0 = SimTime::ZERO;
        for i in 0..4 {
            jb.push(t0, pkt(i, i as u64 * 33));
        }
        assert_eq!(jb.clear(), 4);
        assert!(jb.is_empty());
    }

    /// One step of the oracle's random schedule.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Advance the clock by `advance_us`, then offer the packet
        /// `offset` positions away from the stream cursor (0 = the next
        /// in-order packet, negative = a straggler or duplicate, positive
        /// = a packet that overtook its predecessors). `bump` moves the
        /// cursor past it, so in-order runs are the common case.
        Push {
            advance_us: u64,
            offset: i64,
            bump: bool,
        },
        /// Advance the clock and release everything due.
        Pop { advance_us: u64 },
        /// Re-target the hold time (raised or lowered mid-stream).
        Retarget { target_ms: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        struct OpStrategy;
        impl Strategy for OpStrategy {
            type Value = Op;
            fn generate(&self, rng: &mut proptest::TestRng) -> Op {
                match rng.below(16) {
                    // Mostly in-order arrivals, a packet every 0–8 ms.
                    0..=7 => Op::Push {
                        advance_us: rng.below(8_000),
                        offset: 0,
                        bump: true,
                    },
                    // Reorder up to ±64, duplicates included (offset < 0
                    // revisits a sequence that was already offered).
                    8..=10 => Op::Push {
                        advance_us: rng.below(4_000),
                        offset: rng.below(129) as i64 - 64,
                        bump: rng.below(2) == 0,
                    },
                    // A long silence before the next arrival: it is late.
                    11 => Op::Push {
                        advance_us: 100_000 + rng.below(500_000),
                        offset: -(rng.below(8) as i64),
                        bump: false,
                    },
                    12..=14 => Op::Pop {
                        advance_us: rng.below(60_000),
                    },
                    // Inflate to 500 ms or deflate to 20 ms: after a
                    // deflation playout is not monotone in sequence.
                    _ => Op::Retarget {
                        target_ms: 20 + rng.below(481),
                    },
                }
            }
        }
        OpStrategy
    }

    /// Release everything due at `now` from both buffers, one packet at a
    /// time, holding each release to the oracle's.
    fn release_in_step(deque: &mut JitterBuffer, heap: &mut HeapJitterBuffer, now: SimTime) {
        loop {
            let got = deque.pop_due(now).map(|(t, p)| (t, p.sequence));
            let want = heap.pop_due(now).map(|(t, p)| (t, p.sequence));
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    proptest! {
        /// The ordered deque releases exactly what the heap it replaced
        /// released: same `(playout, sequence)` sequence, same counters and
        /// the same `next_wake()` after every operation — across in-order
        /// runs, ±64 reorder, duplicates, late packets, target inflation
        /// and deflation, and a 16-bit sequence wrap (the stream starts a
        /// few hundred packets short of 65 536).
        #[test]
        fn prop_deque_matches_heap_reference(
            ops in proptest::collection::vec(op(), 1..600),
            first_seq in 65_300u64..65_536,
            drop_on_latency in any::<bool>(),
        ) {
            let config = JitterConfig { drop_on_latency, ..Default::default() };
            let mut deque = JitterBuffer::new(config);
            let mut heap = HeapJitterBuffer::new(config);
            let mut now = SimTime::from_secs(1);
            // Stream position relative to `first_seq`: 3 packets per 33 ms frame.
            let mut cursor = 64i64;
            for op in ops {
                match op {
                    Op::Push { advance_us, offset, bump } => {
                        now += SimDuration::from_micros(advance_us);
                        let index = (cursor + offset).max(0) as u64;
                        let packet = pkt((first_seq + index) as u16, index / 3 * 33);
                        deque.push(now, packet.clone());
                        heap.push(now, packet);
                        if bump {
                            cursor = cursor.max(index as i64) + 1;
                        }
                    }
                    Op::Pop { advance_us } => {
                        now += SimDuration::from_micros(advance_us);
                        release_in_step(&mut deque, &mut heap, now);
                    }
                    Op::Retarget { target_ms } => {
                        let target = SimDuration::from_millis(target_ms);
                        deque.set_target(target);
                        heap.set_target(target);
                    }
                }
                prop_assert_eq!(deque.next_wake(), heap.next_wake());
                prop_assert_eq!(deque.stats(), heap.stats());
                prop_assert_eq!(deque.len(), heap.len());
            }
            // Flush: everything still buffered leaves in the same order.
            release_in_step(&mut deque, &mut heap, now + SimDuration::from_secs(10));
            prop_assert_eq!(deque.stats(), heap.stats());
        }
    }
}
