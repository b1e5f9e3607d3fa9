//! The sequence space: the one owner of the 16-bit → `u64` rule
//! ([`SeqUnwrapper`]), the dense moving-base map every per-sequence table
//! is built on ([`SeqWindow`]), and the receiver's one reader of arriving
//! media sequences ([`MediaIngress`], with its multi-leg
//! [`FirstCopyFilter`]).
//!
//! Every per-sequence table in the stack is a `SeqWindow` keyed by a
//! `SeqUnwrapper`'s reading: the feedback recorders
//! ([`twcc`](crate::twcc), [`rfc8888`](crate::rfc8888)) keep one arrival
//! time per received media packet and read them back as contiguous range
//! scans; the NACK generator ([`nack`](crate::nack)) tracks the gaps it is
//! chasing and the ones it gave up on; the RTX history
//! ([`rtx`](crate::rtx)) holds the packets it may resend; the jitter
//! buffer ([`jitter`](crate::jitter)) remembers what it holds; and the
//! congestion controllers keep their in-flight sends. Keys are dense and
//! nearly monotone and eviction only ever trims old sequences, so a deque
//! of slots indexed from a moving base does everything a `BTreeMap` would
//! — without a tree insert, or node churn when a transient gap opens and
//! fills, on the per-packet hot path. Slots are retained across that
//! oscillation, so the steady state never touches the allocator.
//!
//! Who reads what: on the receive side, a session's [`MediaIngress`] reads
//! each arriving media sequence once, and the NACK generator, the RFC 8888
//! builders, the reorder count and the jitter buffer take that reading.
//! The TWCC recorder reads the separate transport-wide sequence; senders
//! read their own sends (the RTX history and the congestion controllers).

use std::collections::VecDeque;

/// Reads 16-bit RTP sequence numbers as an unwrapped `u64` count, relative
/// to the highest one recorded (RFC 3550 §A.1).
///
/// A receiver records arrivals with [`observe`](Self::observe) (or
/// [`read`](Self::read), which also names the head before): a number
/// less than 2¹⁵ ahead of the highest reads forward, anything else reads
/// as a straggler behind it. A sender records the sends of one in-order
/// queue with [`observe_sent`](Self::observe_sent): every number reads at
/// or after the highest, however far it jumped (a sender that discards its
/// queue burns tens of thousands of numbers at once). Feedback can only
/// name sequences the sender sent, so the sender reads it with
/// [`unwrap`](Self::unwrap) against that same unwrapper. Sends merged from
/// several queues are out of order, by as much as one queue's backlog:
/// they read as arrivals (the RTX history, [`rtx`](crate::rtx)).
///
/// A session's media arrivals are read by its [`MediaIngress`] alone; the
/// `u16` entry points of the NACK generator, the RFC 8888 builder and the
/// jitter buffer each keep one of their own for standalone callers.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeqUnwrapper {
    highest: Option<u64>,
}

impl SeqUnwrapper {
    /// Create an unwrapper that has recorded nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The highest unwrapped sequence recorded so far.
    pub fn highest(&self) -> Option<u64> {
        self.highest
    }

    /// The reading of `seq` nearest the highest recorded sequence, without
    /// recording it; `seq` itself before anything is recorded.
    pub fn unwrap(&self, seq: u16) -> u64 {
        self.highest.map_or(u64::from(seq), |h| unwrap_seq(h, seq))
    }

    /// Read and record an arriving sequence number.
    pub fn observe(&mut self, seq: u16) -> u64 {
        let u = self.unwrap(seq);
        self.highest = Some(self.highest.map_or(u, |h| h.max(u)));
        u
    }

    /// Read and record an arriving sequence number, with the highest
    /// recorded before it.
    pub fn read(&mut self, seq: u16) -> SeqReading {
        let head = self.highest;
        SeqReading {
            seq: self.observe(seq),
            head,
        }
    }

    /// Read and record a sequence number this side sent from one queue,
    /// in order: at or after the highest, never behind it.
    pub fn observe_sent(&mut self, seq: u16) -> u64 {
        let u = self.highest.map_or(u64::from(seq), |h| {
            h + u64::from(seq.wrapping_sub(h as u16))
        });
        self.highest = Some(u);
        u
    }
}

/// One arriving sequence as a receiver read it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeqReading {
    /// The extended (unwrapped) sequence.
    pub seq: u64,
    /// The highest sequence read before this one; `None` for the first.
    pub head: Option<u64>,
}

/// The nearest unwrapped reading of `seq` given the highest unwrapped
/// sequence `prev`: forward when less than 2¹⁵ ahead, else behind.
fn unwrap_seq(prev: u64, seq: u16) -> u64 {
    let prev_low = prev as u16;
    let delta = seq.wrapping_sub(prev_low);
    if delta < 0x8000 {
        prev + u64::from(delta)
    } else {
        prev.saturating_sub(u64::from(prev_low.wrapping_sub(seq)))
    }
}

/// Map from unwrapped sequence number to `T`, specialised for dense,
/// forward-moving key ranges. Iteration is sequence-ascending.
#[derive(Clone, Debug)]
pub struct SeqWindow<T> {
    /// Sequence number stored in `slots[0]`. Meaningless while empty.
    base: u64,
    /// Never starts or ends with an empty slot, so the scan span is the
    /// span of live entries.
    slots: VecDeque<Option<T>>,
    occupied: usize,
}

impl<T> Default for SeqWindow<T> {
    fn default() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
            occupied: 0,
        }
    }
}

impl<T> SeqWindow<T> {
    /// Create an empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `seq → value`. A sequence below the current base grows the
    /// window backwards (bounded by real network displacement), so a
    /// reordered straggler is never lost before it could still be read.
    pub fn insert(&mut self, seq: u64, value: T) {
        if self.slots.is_empty() {
            self.base = seq;
        } else if seq < self.base {
            for _ in 0..(self.base - seq) {
                self.slots.push_front(None);
            }
            self.base = seq;
        }
        let idx = (seq - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        if self.slots[idx].replace(value).is_none() {
            self.occupied += 1;
        }
    }

    /// The value recorded for `seq`, if any.
    pub fn get(&self, seq: u64) -> Option<&T> {
        let idx = seq.checked_sub(self.base)?;
        self.slots.get(idx as usize)?.as_ref()
    }

    /// Take the value recorded for `seq` out of the window.
    pub fn remove(&mut self, seq: u64) -> Option<T> {
        let idx = seq.checked_sub(self.base)?;
        let value = self.slots.get_mut(idx as usize)?.take()?;
        self.occupied -= 1;
        self.trim();
        Some(value)
    }

    /// Take every entry strictly below `floor` out of the window, handing
    /// each to `f` in ascending sequence order.
    pub fn drain_below(&mut self, floor: u64, mut f: impl FnMut(u64, T)) {
        while self.base < floor {
            let Some(slot) = self.slots.pop_front() else {
                break;
            };
            if let Some(value) = slot {
                self.occupied -= 1;
                f(self.base, value);
            }
            self.base += 1;
        }
        self.trim();
    }

    /// Forget every sequence strictly below `floor`.
    pub fn evict_below(&mut self, floor: u64) {
        self.drain_below(floor, |_, _| {});
    }

    /// Forget every entry (slot storage is kept for reuse).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.occupied = 0;
    }

    /// Keep only the entries `keep` approves, visiting them in ascending
    /// sequence order — removal in place, no scratch list.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut T) -> bool) {
        for (seq, slot) in (self.base..).zip(self.slots.iter_mut()) {
            if slot.as_mut().is_some_and(|value| !keep(seq, value)) {
                *slot = None;
                self.occupied -= 1;
            }
        }
        self.trim();
    }

    /// The lowest entry.
    pub fn first(&self) -> Option<(u64, &T)> {
        // `trim` keeps the front slot occupied whenever any slot is.
        Some((self.base, self.slots.front()?.as_ref()?))
    }

    /// The entries, in ascending sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(seq, slot)| Some((seq, slot.as_ref()?)))
    }

    /// The entries, mutably, in ascending sequence order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        (self.base..)
            .zip(&mut self.slots)
            .filter_map(|(seq, slot)| Some((seq, slot.as_mut()?)))
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when nothing is recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Drop empty slots at both ends (capacity is retained — trimming
    /// never deallocates).
    fn trim(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
    }
}

/// First-copy filter for one RTP stream: remembers, per 16-bit sequence
/// number, the media timestamp of the newest packet accepted under it.
/// A packet is a repeat exactly when its slot already holds its
/// timestamp — the `(sequence, timestamp)` identity, without unwrapping
/// and therefore without caring how far or in which direction the
/// sequence jumped (a sender that discards its queue burns tens of
/// thousands of sequence numbers at once).
///
/// 264 KiB for the whole run, whatever its length. The one assumption:
/// no second copy arrives after a *later* packet has reused its sequence
/// number, i.e. 2¹⁶ or more sequence numbers behind the first copy; such
/// a straggler reads as new.
#[derive(Clone, Debug)]
pub struct FirstCopyFilter {
    /// Timestamp last accepted under each sequence number.
    timestamps: Box<[u32]>,
    /// Which sequence numbers have carried a packet yet.
    used: Box<[u64]>,
}

impl Default for FirstCopyFilter {
    fn default() -> Self {
        FirstCopyFilter {
            timestamps: vec![0; 1 << 16].into_boxed_slice(),
            used: vec![0; (1 << 16) / 64].into_boxed_slice(),
        }
    }
}

impl FirstCopyFilter {
    /// Create an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a packet; `true` when it is the first copy.
    pub fn insert(&mut self, sequence: u16, timestamp: u32) -> bool {
        let slot = usize::from(sequence);
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        let repeat = self.used[word] & bit != 0 && self.timestamps[slot] == timestamp;
        self.used[word] |= bit;
        self.timestamps[slot] = timestamp;
        !repeat
    }
}

/// The receive side of one media stream: the only reader of its arriving
/// sequence numbers. Each arrival — off the network, or rebuilt by FEC —
/// is [`read`](Self::read) once; the NACK generator, the RFC 8888
/// builders, the reorder count and the jitter buffer take that reading.
///
/// A rig with more than one leg also drops later copies of a packet here
/// (the [`FirstCopyFilter`]): cross-leg copies and the FEC-vs-original
/// race. With one leg there are no cross-leg copies, and the NACK
/// generator's `Stale` / `Late` verdicts account for repeats.
#[derive(Debug)]
pub struct MediaIngress {
    seqs: SeqUnwrapper,
    first_copy: Option<FirstCopyFilter>,
    /// The highest reading among network arrivals counted by
    /// [`reordered`](Self::reordered). FEC rebuilds advance the head but
    /// not this: a network arrival behind a rebuilt packet was not
    /// reordered by the network.
    network_max: Option<u64>,
}

impl MediaIngress {
    /// The ingress of a rig receiving over `legs` legs.
    pub fn new(legs: usize) -> Self {
        MediaIngress {
            seqs: SeqUnwrapper::new(),
            first_copy: (legs > 1).then(FirstCopyFilter::new),
            network_max: None,
        }
    }

    /// Read one arriving packet; `None` when it is a later copy of one
    /// already read.
    pub fn read(&mut self, sequence: u16, timestamp: u32) -> Option<SeqReading> {
        if let Some(seen) = &mut self.first_copy {
            if !seen.insert(sequence, timestamp) {
                return None;
            }
        }
        Some(self.seqs.read(sequence))
    }

    /// Count the network arrival read as `seq`: `true` when it falls
    /// behind the highest network arrival counted before it.
    pub fn reordered(&mut self, seq: u64) -> bool {
        let behind = self.network_max.is_some_and(|h| seq < h);
        self.network_max = Some(self.network_max.map_or(seq, |h| h.max(seq)));
        behind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::{JitterBuffer, JitterConfig};
    use crate::nack::{Arrival, NackConfig, NackGenerator};
    use crate::packet::RtpPacket;
    use crate::rfc8888::Rfc8888Builder;
    use proptest::prelude::*;
    use rpav_sim::{SimRng, SimTime};
    use std::collections::{BTreeMap, HashSet};

    /// Media timestamp of the frame a sequence number belongs to: 28
    /// packets a frame, 3 000 ticks (30 fps at 90 kHz) a frame.
    fn frame_ts(seq: u64) -> u32 {
        (seq / 28 * 3_000) as u32
    }

    #[test]
    fn first_copy_filter_matches_a_hash_set_across_sequence_wraps() {
        // 150 000 consecutive sequences starting just below the 16-bit
        // wrap (two wraps), delivered with duplicates, with stragglers
        // displaced by more than 1 000 packets, and with late second
        // copies up to 20 000 packets behind the head of line.
        let mut rng = SimRng::seed_from_u64(0x5EE9);
        let first = 65_000u64;
        let mut arrivals: Vec<(u64, u64)> = Vec::new(); // (delivery key, sequence)
        for i in 0..150_000u64 {
            let seq = first + i;
            let delay = match rng.uniform_u64(0, 100) {
                0..=4 => rng.uniform_u64(1_000, 3_000),
                5..=24 => rng.uniform_u64(1, 40),
                _ => 0,
            };
            arrivals.push((i + delay, seq));
            if rng.chance(0.05) {
                arrivals.push((i + delay + rng.uniform_u64(0, 20_000), seq));
            }
        }
        arrivals.sort();
        let mut want = HashSet::new();
        let mut filter = FirstCopyFilter::new();
        let (mut firsts, mut dups) = (0u64, 0u64);
        for (_, seq) in arrivals {
            let fresh = filter.insert(seq as u16, frame_ts(seq));
            assert_eq!(fresh, want.insert(seq), "sequence {seq}");
            if fresh {
                firsts += 1;
            } else {
                dups += 1;
            }
        }
        assert_eq!(firsts, 150_000);
        assert!(dups > 5_000, "only {dups} duplicates exercised");
    }

    #[test]
    fn first_copy_filter_survives_a_sender_queue_discard() {
        // A blacked-out leg holds packets 1 000..1 100 while the sender
        // discards 40 000 sequence numbers and carries on over the other
        // leg; when the blackout lifts the held packets arrive — half of
        // them first copies, half already delivered before the jump. An
        // unwrapping filter cannot place them (40 000 > 2^15).
        let mut filter = FirstCopyFilter::new();
        for seq in (0..1_100u64).filter(|s| *s < 1_000 || s % 2 == 0) {
            assert!(filter.insert(seq as u16, frame_ts(seq)));
        }
        for seq in 41_100..41_500u64 {
            assert!(filter.insert(seq as u16, frame_ts(seq)));
        }
        for seq in 1_000..1_100u64 {
            let first_copy = seq % 2 == 1;
            assert_eq!(
                filter.insert(seq as u16, frame_ts(seq)),
                first_copy,
                "sequence {seq}"
            );
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut w = SeqWindow::new();
        w.insert(100, SimTime::from_millis(1));
        w.insert(102, SimTime::from_millis(3));
        assert_eq!(w.get(100), Some(&SimTime::from_millis(1)));
        assert_eq!(w.get(101), None);
        assert_eq!(w.get(102), Some(&SimTime::from_millis(3)));
        assert_eq!(w.get(99), None);
        assert_eq!(w.get(103), None);
    }

    #[test]
    fn backward_growth_keeps_stragglers() {
        let mut w = SeqWindow::new();
        w.insert(10, SimTime::from_millis(10));
        w.insert(7, SimTime::from_millis(12));
        assert_eq!(w.get(7), Some(&SimTime::from_millis(12)));
        assert_eq!(w.get(8), None);
        assert_eq!(w.get(10), Some(&SimTime::from_millis(10)));
    }

    #[test]
    fn evict_trims_front_only() {
        let mut w = SeqWindow::new();
        for s in 0..10u64 {
            w.insert(s, SimTime::from_millis(s));
        }
        w.evict_below(6);
        assert_eq!(w.get(5), None);
        assert_eq!(w.get(6), Some(&SimTime::from_millis(6)));
        assert_eq!(w.len(), 4);
        // Evicting everything leaves a consistent empty window.
        w.evict_below(100);
        assert!(w.is_empty());
        w.insert(100, SimTime::from_millis(1));
        assert_eq!(w.get(100), Some(&SimTime::from_millis(1)));
    }

    #[test]
    fn unwrap_seq_monotone_across_wrap() {
        let mut u = 65_530u64;
        for seq in [65_531u16, 65_535, 3, 10] {
            u = unwrap_seq(u, seq);
        }
        assert_eq!(u, 65_546);
    }

    #[test]
    fn unwrap_seq_handles_reorder() {
        let u = unwrap_seq(100, 98);
        assert_eq!(u, 98);
    }

    /// One step of the `SeqWindow` lock-step schedule, keyed relative to a
    /// moving cursor so the window slides, grows backwards, empties and
    /// refills.
    fn window_op() -> impl Strategy<Value = (u64, i64, u64)> {
        (0u64..16, -48i64..48, 0u64..1_000)
    }

    /// One delivery to the receiver: a copy off a network leg, or a
    /// packet rebuilt by FEC.
    #[derive(Clone, Copy, Debug)]
    enum Delivery {
        Network { leg: usize, index: u64, sent: u64 },
        Rebuilt { index: u64, sent: u64 },
    }

    /// Sequence jumps a sender's queue discard makes: below 2¹⁵ (read
    /// forward), above it (read as stragglers), and the 55 948 a SCReAM
    /// queue breaker once burned.
    const JUMPS: [u64; 3] = [20_000, 40_000, 55_948];

    /// The deliveries of one schedule, by tick: two packets sent a tick,
    /// leg 0 fast (1–4 ticks), leg 1 slow (1–40). A packet may be lost,
    /// rebuilt by FEC in its send tick — ahead of stragglers still in
    /// flight — or also rebuilt after it arrived, or copied on the other
    /// leg. Now and then the sender jumps its sequence, never twice while
    /// packets from before the last jump are in flight.
    ///
    /// Each leg's first packet lands in the first tick, as a session's
    /// legs carry media from its start. (A reader whose first packet comes
    /// after a 16-bit wrap counts 2¹⁶ below the others, and an RFC 8888
    /// span clipped at its zero shows it.)
    ///
    /// At most one jump per schedule reaches past 2¹⁵. After such a jump
    /// every arrival reads as a straggler and the head stays put, so a
    /// second one can land the stream just ahead of the head: a rebuilt
    /// packet then moves the head thousands of sequences past the
    /// network's highest, and the packets sent between the two jumps
    /// read forward from the one and backward from the other. There the
    /// self-reading receivers disagree among themselves — the NACK
    /// generator's reader against the reorder count's — which is what one
    /// reading removes, so they are no oracle for it.
    fn ingress_schedule(packets: &[(u64, u64, u64, u64, u64)]) -> Vec<(u64, Delivery)> {
        let mut out = Vec::new();
        let (mut cursor, mut last_jump, mut jumped_past_half) = (0u64, 0usize, false);
        for (k, &(leg, delay, fate, extra, jump)) in packets.iter().enumerate() {
            if jump == 0 && k - last_jump >= 300 {
                let pick = if jumped_past_half { 0 } else { extra % 3 };
                let by = JUMPS[pick as usize];
                jumped_past_half |= by > 0x8000;
                cursor += by;
                last_jump = k;
            }
            let (index, sent) = (cursor, k as u64 / 2);
            cursor += 1;
            if k < 2 {
                let first = Delivery::Network {
                    leg: k,
                    index,
                    sent,
                };
                out.push((0, first));
                continue;
            }
            let leg = (leg % 2) as usize;
            let arrive = sent + 1 + if leg == 0 { delay % 4 } else { delay % 40 };
            let network = Delivery::Network { leg, index, sent };
            match fate {
                0 | 1 => out.push((sent, Delivery::Rebuilt { index, sent })),
                2 => {}
                3 => {
                    out.push((arrive, network));
                    out.push((sent + extra % 40, Delivery::Rebuilt { index, sent }));
                }
                4 | 5 => {
                    out.push((arrive, network));
                    let copy = Delivery::Network {
                        leg: 1 - leg,
                        index,
                        sent,
                    };
                    out.push((arrive + extra, copy));
                }
                _ => out.push((arrive, network)),
            }
        }
        // Within a tick the network arrivals come first, then recovery.
        out.sort_by_key(|(tick, d)| (*tick, matches!(d, Delivery::Rebuilt { .. })));
        out
    }

    /// The receivers of one stream, each reading the sequence itself —
    /// the composition [`MediaIngress`] replaced: a first-copy filter, the
    /// `u16` entry points of the NACK generator, the per-leg RFC 8888
    /// builders and the jitter buffer, and a reader for the reorder count.
    struct SelfReading {
        first_copy: FirstCopyFilter,
        nack: NackGenerator,
        ccfb: [Rfc8888Builder; 2],
        media_seqs: SeqUnwrapper,
        jitter: JitterBuffer,
        reordered: u64,
    }

    /// The same receivers taking one [`MediaIngress`] reading.
    struct OneReading {
        ingress: MediaIngress,
        nack: NackGenerator,
        ccfb: [Rfc8888Builder; 2],
        jitter: JitterBuffer,
        reordered: u64,
    }

    fn media_packet(index: u64, sent: u64, start: u16) -> RtpPacket {
        RtpPacket {
            marker: false,
            payload_type: 96,
            sequence: start.wrapping_add(index as u16),
            // One frame per 33 ms at 90 kHz.
            timestamp: (sent / 33 * 2_970) as u32,
            ssrc: 1,
            transport_seq: None,
            payload: bytes::Bytes::from_static(b"x"),
            wire: None,
        }
    }

    proptest! {
        /// `SeqWindow` is a `BTreeMap<u64, T>` with a moving base: every
        /// operation, and every read after it, agrees with the map.
        #[test]
        fn prop_window_matches_btreemap(ops in proptest::collection::vec(window_op(), 1..400)) {
            let mut window = SeqWindow::new();
            let mut model = BTreeMap::new();
            let mut cursor = 1_000_000u64;
            for (step, (kind, offset, arg)) in ops.into_iter().enumerate() {
                let seq = cursor.saturating_add_signed(offset);
                match kind {
                    // Mostly arrivals around the cursor, which creeps
                    // forward; stragglers below the base grow it backwards.
                    0..=6 => {
                        prop_assert_eq!(window.get(seq), model.get(&seq));
                        window.insert(seq, step);
                        model.insert(seq, step);
                        cursor += arg % 3;
                    }
                    7 | 8 => prop_assert_eq!(window.remove(seq), model.remove(&seq)),
                    9 => {
                        let floor = seq.saturating_sub(arg % 64);
                        let mut got = Vec::new();
                        window.drain_below(floor, |s, v| got.push((s, v)));
                        let keep = model.split_off(&floor);
                        let want: Vec<_> = std::mem::replace(&mut model, keep).into_iter().collect();
                        prop_assert_eq!(got, want);
                    }
                    10 => {
                        window.evict_below(seq);
                        model = model.split_off(&seq);
                    }
                    11 => {
                        let modulus = 2 + arg % 5;
                        let mut got = Vec::new();
                        window.retain(|s, v| {
                            got.push(s);
                            *v += 1;
                            s % modulus != 0
                        });
                        let want: Vec<u64> = model.keys().copied().collect();
                        prop_assert_eq!(got, want);
                        model.retain(|s, v| {
                            *v += 1;
                            *s % modulus != 0
                        });
                    }
                    // Empty the window and refill it far away.
                    12 => {
                        window.clear();
                        model.clear();
                        cursor += 500 + arg;
                    }
                    _ => {
                        for (_, v) in window.iter_mut() {
                            *v += 1;
                        }
                        for v in model.values_mut() {
                            *v += 1;
                        }
                    }
                }
                prop_assert_eq!(window.len(), model.len());
                prop_assert_eq!(window.is_empty(), model.is_empty());
                prop_assert_eq!(window.first(), model.first_key_value().map(|(s, v)| (*s, v)));
                prop_assert!(window.iter().eq(model.iter().map(|(s, v)| (*s, v))));
            }
        }

        /// Arrivals reordered by less than 2¹⁵ read as the true counter,
        /// across at least two 16-bit wraps.
        #[test]
        fn prop_observe_tracks_true_counter(
            start in 0u64..65_536,
            steps in proptest::collection::vec((0u64..2_000, 0u64..8, 0u64..0x8000), 300..301),
        ) {
            let mut seqs = SeqUnwrapper::new();
            let (mut head, mut highest) = (start, start);
            prop_assert_eq!(seqs.observe(start as u16), start);
            for (advance, kind, back) in steps {
                head += advance;
                let back = match kind {
                    0..=4 => 0,
                    5 | 6 => back % 64,
                    _ => back,
                };
                let truth = head.saturating_sub(back).max(start);
                if truth > highest + 0x7fff || truth + 0x8000 < highest {
                    continue; // outside the ±2¹⁵ reorder the rule supports
                }
                prop_assert_eq!(seqs.unwrap(truth as u16), truth);
                prop_assert_eq!(seqs.observe(truth as u16), truth);
                highest = highest.max(truth);
                prop_assert_eq!(seqs.highest(), Some(highest));
            }
            prop_assert!(highest >= start + 2 * 65_536, "only reached {}", highest);
        }

        /// A sender's own sends read as the true counter whatever the jump,
        /// up to 2¹⁶ − 1 at once.
        #[test]
        fn prop_observe_sent_tracks_monotone_sends(
            start in 0u64..65_536,
            jumps in proptest::collection::vec((0u64..4, 0u64..65_536), 1..300),
        ) {
            let mut seqs = SeqUnwrapper::new();
            let mut truth = start;
            prop_assert_eq!(seqs.observe_sent(start as u16), start);
            for (kind, jump) in jumps {
                truth += if kind == 0 { jump } else { jump % 4 };
                prop_assert_eq!(seqs.observe_sent(truth as u16), truth);
                prop_assert_eq!(seqs.highest(), Some(truth));
            }
        }

        /// One reading per arrival changes no receiver's answer: the
        /// ingress and the `u64` entry points agree, step for step, with
        /// receivers that each read the 16-bit sequence themselves — every
        /// `Arrival`, NACK batch, per-leg RFC 8888 report, jitter release
        /// and the reorder count — over cross-leg reorder, duplicates, FEC
        /// rebuilds that advance the head past stragglers, 16-bit wraps
        /// and sequence jumps below and above 2¹⁵.
        #[test]
        fn prop_ingress_matches_self_reading_receivers(
            packets in proptest::collection::vec(
                (0u64..2, 0u64..64, 0u64..16, 0u64..64, 0u64..128),
                200..900,
            ),
            start in 65_000u64..65_536,
        ) {
            let start = start as u16;
            let mut old = SelfReading {
                first_copy: FirstCopyFilter::new(),
                nack: NackGenerator::new(NackConfig::default()),
                ccfb: [Rfc8888Builder::new(64), Rfc8888Builder::new(64)],
                media_seqs: SeqUnwrapper::new(),
                jitter: JitterBuffer::new(JitterConfig::default()),
                reordered: 0,
            };
            let mut new = OneReading {
                ingress: MediaIngress::new(2),
                nack: NackGenerator::new(NackConfig::default()),
                ccfb: [Rfc8888Builder::new(64), Rfc8888Builder::new(64)],
                jitter: JitterBuffer::new(JitterConfig::default()),
                reordered: 0,
            };
            let schedule = ingress_schedule(&packets);
            let end = schedule.last().map_or(0, |(tick, _)| *tick) + 400;
            let mut events = schedule.into_iter().peekable();
            for tick in 0..end {
                let now = SimTime::from_millis(tick);
                while let Some((_, delivery)) = events.next_if(|(at, _)| *at == tick) {
                    match delivery {
                        Delivery::Network { leg, index, sent } => {
                            let rtp = media_packet(index, sent, start);
                            let want = old
                                .first_copy
                                .insert(rtp.sequence, rtp.timestamp)
                                .then(|| old.nack.on_packet(now, rtp.sequence));
                            let reading = new.ingress.read(rtp.sequence, rtp.timestamp);
                            let got = reading.map(|r| new.nack.on_arrival(now, r));
                            prop_assert_eq!(got, want);
                            let Some(reading) = reading else { continue };
                            if got == Some(Arrival::Stale) {
                                continue;
                            }
                            old.ccfb[leg].on_packet(rtp.sequence, now);
                            new.ccfb[leg].on_arrival(reading.seq, now);
                            let head = old.media_seqs.highest();
                            let seq = old.media_seqs.observe(rtp.sequence);
                            if head.is_some_and(|h| seq < h) {
                                old.reordered += 1;
                            }
                            if new.ingress.reordered(reading.seq) {
                                new.reordered += 1;
                            }
                            prop_assert_eq!(new.reordered, old.reordered);
                            old.jitter.push(now, rtp.clone());
                            new.jitter.offer(now, reading.seq, rtp);
                        }
                        Delivery::Rebuilt { index, sent } => {
                            let rtp = media_packet(index, sent, start);
                            let fresh = old.first_copy.insert(rtp.sequence, rtp.timestamp);
                            let reading = new.ingress.read(rtp.sequence, rtp.timestamp);
                            prop_assert_eq!(reading.is_some(), fresh);
                            if let Some(reading) = reading {
                                let want = old.nack.on_packet(now, rtp.sequence);
                                prop_assert_eq!(new.nack.on_arrival(now, reading), want);
                                old.jitter.push(now, rtp.clone());
                                new.jitter.offer(now, reading.seq, rtp);
                            }
                        }
                    }
                }
                prop_assert_eq!(new.nack.poll(now), old.nack.poll(now));
                if tick % 10 == 0 {
                    for (new_b, old_b) in new.ccfb.iter_mut().zip(&mut old.ccfb) {
                        prop_assert_eq!(new_b.build(now), old_b.build(now));
                    }
                }
                loop {
                    let got = new.jitter.pop_due(now).map(|(t, p)| (t, p.sequence));
                    let want = old.jitter.pop_due(now).map(|(t, p)| (t, p.sequence));
                    prop_assert_eq!(got, want);
                    if got.is_none() {
                        break;
                    }
                }
            }
            prop_assert_eq!(new.nack.stats(), old.nack.stats());
            prop_assert_eq!(new.jitter.stats(), old.jitter.stats());
        }
    }
}
