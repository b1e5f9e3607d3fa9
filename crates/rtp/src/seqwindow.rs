//! The sequence space: the one owner of the 16-bit → `u64` rule
//! ([`SeqUnwrapper`]), the dense moving-base map every per-sequence table
//! is built on ([`SeqWindow`]), and the multipath receiver's
//! [`FirstCopyFilter`].
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

use std::collections::VecDeque;

/// Reads 16-bit RTP sequence numbers as an unwrapped `u64` count, relative
/// to the highest one recorded (RFC 3550 §A.1).
///
/// A receiver records arrivals with [`observe`](Self::observe): a number
/// less than 2¹⁵ ahead of the highest reads forward, anything else reads
/// as a straggler behind it. A sender records the sends of one in-order
/// queue with [`observe_sent`](Self::observe_sent): every number reads at
/// or after the highest, however far it jumped (a sender that discards its
/// queue burns tens of thousands of numbers at once). Feedback can only
/// name sequences the sender sent, so the sender reads it with
/// [`unwrap`](Self::unwrap) against that same unwrapper. Sends merged from
/// several queues are out of order, by as much as one queue's backlog:
/// they read as arrivals (the RTX history, [`rtx`](crate::rtx)).
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

#[cfg(test)]
mod tests {
    use super::*;
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
    }
}
