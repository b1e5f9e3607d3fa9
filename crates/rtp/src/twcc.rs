//! Transport-wide congestion control feedback
//! (draft-holmer-rmcat-transport-wide-cc-extensions-01, the dialect GCC
//! uses — §3.2 of the paper).
//!
//! The feedback RTCP packet reports, for a contiguous span of
//! transport-wide sequence numbers, whether each packet arrived and (for
//! arrivals) its receive-time delta in 250 µs units relative to the
//! previous arrival (the first relative to a 64 ms-granular reference
//! time). The sender reconstructs per-packet arrival timestamps from this
//! and feeds its bandwidth estimator.

use crate::seqwindow::SeqWindow;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rpav_sim::{SimDuration, SimTime};

use crate::error::ParseError;
use crate::packet::unwrap_seq;
use crate::rtcp::{self, FeedbackHeader};

/// Receive status of one packet in a feedback span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    NotReceived,
    SmallDelta,
    LargeDelta,
}

/// A parsed/built transport-wide feedback packet.
#[derive(Clone, Debug, PartialEq)]
pub struct TwccFeedback {
    /// First transport-wide sequence number covered.
    pub base_seq: u16,
    /// Feedback packet counter (wraps; detects feedback loss).
    pub fb_count: u8,
    /// Reference time in 64 ms units since the epoch.
    pub reference_time_64ms: u32,
    /// Per-packet receive offsets from the reference time; `None` = lost.
    /// Index 0 corresponds to `base_seq`.
    pub arrivals: Vec<Option<SimDuration>>,
}

thread_local! {
    /// Per-thread status/delta scratch shared by [`TwccFeedback::serialize`]
    /// and [`TwccFeedback::parse_into`]: the symbol and tick vectors are
    /// pure intermediates, so one warm pair per thread serves every
    /// feedback round without touching the allocator (DESIGN.md §14.1).
    static TWCC_SCRATCH: std::cell::RefCell<(Vec<Status>, Vec<i32>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl TwccFeedback {
    /// An empty feedback value, for use as a reusable `parse_into` /
    /// `build_feedback_into` scratch.
    pub fn empty() -> TwccFeedback {
        TwccFeedback {
            base_seq: 0,
            fb_count: 0,
            reference_time_64ms: 0,
            arrivals: Vec::new(),
        }
    }

    /// Absolute arrival time of covered packet `i`, if it was received.
    pub fn arrival_time(&self, i: usize) -> Option<SimTime> {
        let off = self.arrivals.get(i).copied().flatten()?;
        Some(SimTime::from_micros(self.reference_time_64ms as u64 * 64_000) + off)
    }

    /// Iterate `(transport_seq, Option<arrival>)` over the covered span.
    pub fn packets(&self) -> impl Iterator<Item = (u16, Option<SimTime>)> + '_ {
        (0..self.arrivals.len())
            .map(move |i| (self.base_seq.wrapping_add(i as u16), self.arrival_time(i)))
    }

    /// Serialise to RTCP wire format.
    pub fn serialize(&self) -> Bytes {
        TWCC_SCRATCH.with(|scratch| {
            let (statuses, deltas) = &mut *scratch.borrow_mut();
            self.serialize_with(statuses, deltas)
        })
    }

    fn serialize_with(&self, statuses: &mut Vec<Status>, deltas: &mut Vec<i32>) -> Bytes {
        // Build statuses and deltas (in 250 µs ticks).
        statuses.clear();
        deltas.clear();
        // `prev` tracks the *quantised* reconstruction the decoder will
        // accumulate, so per-delta rounding errors cancel instead of
        // drifting (libwebrtc does the same).
        let mut prev = SimTime::from_micros(self.reference_time_64ms as u64 * 64_000);
        for a in &self.arrivals {
            match a {
                None => statuses.push(Status::NotReceived),
                Some(off) => {
                    let t = SimTime::from_micros(self.reference_time_64ms as u64 * 64_000) + *off;
                    let delta_us = t.as_micros() as i64 - prev.as_micros() as i64;
                    let ticks = (delta_us as f64 / 250.0).round() as i32;
                    if (0..=255).contains(&ticks) {
                        statuses.push(Status::SmallDelta);
                    } else {
                        statuses.push(Status::LargeDelta);
                    }
                    deltas.push(ticks);
                    let quantised = ticks.clamp(i16::MIN as i32, i16::MAX as i32) as i64;
                    prev = if quantised >= 0 {
                        prev + SimDuration::from_micros((quantised * 250) as u64)
                    } else {
                        prev - SimDuration::from_micros((-quantised * 250) as u64)
                    };
                }
            }
        }

        let mut b = BytesMut::with_capacity(32 + statuses.len());
        // Sender SSRC 1, media SSRC 2: a single-session pipeline.
        FeedbackHeader::write(&mut b, &rtcp::TWCC, 0x1, 0x2);
        b.put_u16(self.base_seq);
        b.put_u16(self.arrivals.len() as u16);
        b.put_u32((self.reference_time_64ms << 8) | self.fb_count as u32);

        // Status chunks.
        let mut i = 0;
        while i < statuses.len() {
            // Try a run-length chunk.
            let sym = statuses[i];
            let mut run = 1usize;
            while i + run < statuses.len() && statuses[i + run] == sym && run < 8191 {
                run += 1;
            }
            if run >= 7 {
                let code = match sym {
                    Status::NotReceived => 0u16,
                    Status::SmallDelta => 1,
                    Status::LargeDelta => 2,
                };
                b.put_u16((code << 13) | run as u16);
                i += run;
            } else {
                // Two-bit status vector chunk: up to 7 symbols.
                let n = (statuses.len() - i).min(7);
                let mut chunk: u16 = (1 << 15) | (1 << 14); // vector, 2-bit
                for k in 0..n {
                    let code = match statuses[i + k] {
                        Status::NotReceived => 0u16,
                        Status::SmallDelta => 1,
                        Status::LargeDelta => 2,
                    };
                    chunk |= code << (12 - 2 * k as u16);
                }
                b.put_u16(chunk);
                i += n;
            }
        }

        // Receive deltas.
        let mut di = 0;
        for s in statuses.iter() {
            match s {
                Status::NotReceived => {}
                Status::SmallDelta => {
                    b.put_u8(deltas[di] as u8);
                    di += 1;
                }
                Status::LargeDelta => {
                    b.put_i16(deltas[di].clamp(i16::MIN as i32, i16::MAX as i32) as i16);
                    di += 1;
                }
            }
        }

        // Pad to 32-bit boundary and fix the length field.
        while b.len() % 4 != 0 {
            b.put_u8(0);
        }
        FeedbackHeader::set_length(&mut b);
        b.freeze()
    }

    /// Parse from RTCP wire format. Total: returns a typed [`ParseError`]
    /// on anything that is not a well-formed TWCC feedback packet.
    pub fn parse(data: Bytes) -> Result<TwccFeedback, ParseError> {
        let mut fb = TwccFeedback::empty();
        Self::parse_into(data, &mut fb)?;
        Ok(fb)
    }

    /// [`parse`](Self::parse) into a reusable feedback value: `out`'s
    /// arrival vector keeps its capacity across feedback rounds. On error
    /// `out` is unspecified (the caller re-parses or discards).
    pub fn parse_into(mut data: Bytes, out: &mut TwccFeedback) -> Result<(), ParseError> {
        FeedbackHeader::parse(&mut data, &rtcp::TWCC)?;
        let base_seq = data.get_u16();
        let count = data.get_u16() as usize;
        let word = data.get_u32();
        let reference_time_64ms = word >> 8;
        let fb_count = (word & 0xff) as u8;
        TWCC_SCRATCH.with(|scratch| {
            let statuses = &mut scratch.borrow_mut().0;
            Self::parse_body(
                data,
                out,
                base_seq,
                count,
                reference_time_64ms,
                fb_count,
                statuses,
            )
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn parse_body(
        mut data: Bytes,
        out: &mut TwccFeedback,
        base_seq: u16,
        count: usize,
        reference_time_64ms: u32,
        fb_count: u8,
        statuses: &mut Vec<Status>,
    ) -> Result<(), ParseError> {
        // Status chunks.
        statuses.clear();
        statuses.reserve(count);
        while statuses.len() < count {
            if data.len() < 2 {
                return Err(ParseError::Truncated {
                    needed: 2,
                    have: data.len(),
                });
            }
            let chunk = data.get_u16();
            if chunk >> 15 == 0 {
                // Run length.
                let code = (chunk >> 13) & 0x3;
                let run = (chunk & 0x1fff) as usize;
                let sym = match code {
                    0 => Status::NotReceived,
                    1 => Status::SmallDelta,
                    2 => Status::LargeDelta,
                    _ => {
                        return Err(ParseError::Malformed {
                            reason: "reserved status code in run-length chunk",
                        })
                    }
                };
                for _ in 0..run.min(count - statuses.len()) {
                    statuses.push(sym);
                }
            } else if (chunk >> 14) & 1 == 1 {
                // Two-bit vector.
                for k in 0..7 {
                    if statuses.len() >= count {
                        break;
                    }
                    let code = (chunk >> (12 - 2 * k)) & 0x3;
                    statuses.push(match code {
                        0 => Status::NotReceived,
                        1 => Status::SmallDelta,
                        2 => Status::LargeDelta,
                        _ => {
                            return Err(ParseError::Malformed {
                                reason: "reserved status code in vector chunk",
                            })
                        }
                    });
                }
            } else {
                // One-bit vector (received/small-delta only).
                for k in 0..14 {
                    if statuses.len() >= count {
                        break;
                    }
                    let bit = (chunk >> (13 - k)) & 1;
                    statuses.push(if bit == 1 {
                        Status::SmallDelta
                    } else {
                        Status::NotReceived
                    });
                }
            }
        }

        // Deltas → arrival offsets.
        let arrivals = &mut out.arrivals;
        arrivals.clear();
        arrivals.reserve(count);
        let ref_time = SimTime::from_micros(reference_time_64ms as u64 * 64_000);
        let mut prev = ref_time;
        for s in statuses.iter() {
            match s {
                Status::NotReceived => arrivals.push(None),
                Status::SmallDelta => {
                    if data.is_empty() {
                        return Err(ParseError::Truncated { needed: 1, have: 0 });
                    }
                    let ticks = data.get_u8() as i64;
                    let t = prev + SimDuration::from_micros((ticks * 250) as u64);
                    arrivals.push(t.checked_since(ref_time));
                    prev = t;
                }
                Status::LargeDelta => {
                    if data.len() < 2 {
                        return Err(ParseError::Truncated {
                            needed: 2,
                            have: data.len(),
                        });
                    }
                    let ticks = data.get_i16() as i64;
                    let t = if ticks >= 0 {
                        prev + SimDuration::from_micros((ticks * 250) as u64)
                    } else {
                        prev - SimDuration::from_micros((-ticks * 250) as u64)
                    };
                    arrivals.push(t.checked_since(ref_time));
                    prev = t;
                }
            }
        }
        out.base_seq = base_seq;
        out.fb_count = fb_count;
        out.reference_time_64ms = reference_time_64ms;
        Ok(())
    }
}

/// Receiver-side recorder: remembers arrivals keyed by unwrapped
/// transport-wide sequence number and periodically emits feedback covering
/// everything since the previous report.
#[derive(Debug, Default)]
pub struct TwccRecorder {
    arrivals: SeqWindow<SimTime>,
    last_unwrapped: Option<u64>,
    /// First sequence the next feedback will cover.
    next_base: u64,
    fb_count: u8,
}

impl TwccRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the arrival of a media packet carrying `transport_seq`.
    pub fn on_packet(&mut self, transport_seq: u16, arrival: SimTime) {
        let unwrapped = match self.last_unwrapped {
            None => transport_seq as u64,
            Some(prev) => unwrap_seq(prev, transport_seq),
        };
        if self.last_unwrapped.is_none() {
            self.next_base = unwrapped;
        }
        self.last_unwrapped = Some(self.last_unwrapped.unwrap_or(unwrapped).max(unwrapped));
        self.arrivals.insert(unwrapped, arrival);
    }

    /// Build a feedback packet covering everything received since the last
    /// one. Returns `None` when there is nothing new to report.
    pub fn build_feedback(&mut self) -> Option<TwccFeedback> {
        let mut fb = TwccFeedback::empty();
        self.build_feedback_into(&mut fb).then_some(fb)
    }

    /// [`build_feedback`](Self::build_feedback) into a reusable feedback
    /// value (the arrival vector keeps its capacity). Returns `false` —
    /// leaving `out` untouched — when there is nothing new to report.
    pub fn build_feedback_into(&mut self, out: &mut TwccFeedback) -> bool {
        let Some(last) = self.last_unwrapped else {
            return false;
        };
        if last < self.next_base {
            return false;
        }
        let base = self.next_base;
        let count = (last - base + 1).min(u16::MAX as u64 - 1) as usize;
        let Some(&first_arrival) = (base..base + count as u64).find_map(|s| self.arrivals.get(s))
        else {
            return false;
        };
        let reference_time_64ms = (first_arrival.as_micros() / 64_000) as u32;
        let ref_time = SimTime::from_micros(reference_time_64ms as u64 * 64_000);
        out.arrivals.clear();
        out.arrivals.reserve(count);
        out.arrivals.extend(
            (base..base + count as u64)
                .map(|s| self.arrivals.get(s).map(|t| t.saturating_since(ref_time))),
        );
        out.base_seq = (base & 0xffff) as u16;
        out.fb_count = self.fb_count;
        out.reference_time_64ms = reference_time_64ms;
        self.fb_count = self.fb_count.wrapping_add(1);
        self.next_base = base + count as u64;
        // Garbage-collect reported arrivals.
        self.arrivals.evict_below(self.next_base);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple_span() {
        let fb = TwccFeedback {
            base_seq: 100,
            fb_count: 3,
            reference_time_64ms: 10,
            arrivals: vec![
                Some(SimDuration::from_micros(0)),
                Some(SimDuration::from_micros(250)),
                None,
                Some(SimDuration::from_micros(5_000)),
            ],
        };
        let parsed = TwccFeedback::parse(fb.serialize()).unwrap();
        assert_eq!(parsed.base_seq, 100);
        assert_eq!(parsed.fb_count, 3);
        assert_eq!(parsed.arrivals.len(), 4);
        assert_eq!(parsed.arrivals[2], None);
        // 250 µs quantisation preserved exactly here.
        assert_eq!(parsed.arrivals[1], Some(SimDuration::from_micros(250)));
        assert_eq!(parsed.arrivals[3], Some(SimDuration::from_micros(5_000)));
    }

    #[test]
    fn long_loss_run_uses_run_length_chunk_and_roundtrips() {
        let mut arrivals = vec![Some(SimDuration::ZERO)];
        arrivals.extend(std::iter::repeat_n(None, 100));
        arrivals.push(Some(SimDuration::from_millis(30)));
        let fb = TwccFeedback {
            base_seq: 65_530, // wraps mid-span
            fb_count: 0,
            reference_time_64ms: 0,
            arrivals,
        };
        let wire = fb.serialize();
        // Run-length encoding keeps it compact: far less than 1 B/packet.
        assert!(wire.len() < 40, "wire was {} bytes", wire.len());
        let parsed = TwccFeedback::parse(wire).unwrap();
        assert_eq!(parsed.arrivals.len(), 102);
        assert!(parsed.arrivals[1..101].iter().all(|a| a.is_none()));
        assert_eq!(parsed.arrivals[101], Some(SimDuration::from_millis(30)));
        // Wrapped sequence numbers survive.
        let seqs: Vec<u16> = parsed.packets().map(|(s, _)| s).collect();
        assert_eq!(seqs[0], 65_530);
        assert_eq!(seqs[6], 0);
    }

    #[test]
    fn recorder_builds_consecutive_reports() {
        let mut rec = TwccRecorder::new();
        let t = |ms: u64| SimTime::from_millis(1_000 + ms);
        rec.on_packet(10, t(0));
        rec.on_packet(11, t(5));
        rec.on_packet(13, t(12)); // 12 lost
        let fb1 = rec.build_feedback().unwrap();
        assert_eq!(fb1.base_seq, 10);
        assert_eq!(fb1.arrivals.len(), 4);
        assert!(fb1.arrivals[2].is_none());
        assert!(rec.build_feedback().is_none(), "nothing new");
        rec.on_packet(14, t(20));
        let fb2 = rec.build_feedback().unwrap();
        assert_eq!(fb2.base_seq, 14);
        assert_eq!(fb2.arrivals.len(), 1);
    }

    #[test]
    fn recorder_arrival_times_reconstruct() {
        let mut rec = TwccRecorder::new();
        let times: Vec<SimTime> = (0..20).map(|i| SimTime::from_millis(500 + i * 7)).collect();
        for (i, t) in times.iter().enumerate() {
            rec.on_packet(i as u16, *t);
        }
        let fb = rec.build_feedback().unwrap();
        let parsed = TwccFeedback::parse(fb.serialize()).unwrap();
        for (i, (_, arrival)) in parsed.packets().enumerate() {
            let got = arrival.unwrap();
            let want = times[i];
            let err = got.as_micros() as i64 - want.as_micros() as i64;
            assert!(err.abs() <= 250, "packet {i}: err {err} µs");
        }
    }

    #[test]
    fn out_of_order_arrival_is_recorded() {
        let mut rec = TwccRecorder::new();
        rec.on_packet(5, SimTime::from_millis(100));
        rec.on_packet(4, SimTime::from_millis(101)); // late, reordered
        rec.on_packet(6, SimTime::from_millis(102));
        let fb = rec.build_feedback().unwrap();
        // Base unwinds to 4? No: base was fixed at first packet (5); the
        // reordered 4 predates the window and is dropped from reporting.
        assert_eq!(fb.base_seq, 5);
        assert_eq!(fb.arrivals.len(), 2);
        assert!(fb.arrivals.iter().all(|a| a.is_some()));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_pattern(
            base in any::<u16>(),
            pattern in proptest::collection::vec(proptest::option::of(0u64..200_000), 1..300),
        ) {
            // Offsets must be non-decreasing for a physical arrival series.
            let mut acc = 0u64;
            let arrivals: Vec<Option<SimDuration>> = pattern
                .iter()
                .map(|p| {
                    p.map(|d| {
                        acc += d;
                        // Quantise to the 250 µs wire resolution so the
                        // roundtrip is exact.
                        SimDuration::from_micros((acc / 250) * 250)
                    })
                })
                .collect();
            let fb = TwccFeedback {
                base_seq: base,
                fb_count: 9,
                reference_time_64ms: 1_000,
                arrivals: arrivals.clone(),
            };
            let parsed = TwccFeedback::parse(fb.serialize()).unwrap();
            prop_assert_eq!(parsed.arrivals.len(), arrivals.len());
            for (got, want) in parsed.arrivals.iter().zip(arrivals.iter()) {
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        let err = g.as_micros() as i64 - w.as_micros() as i64;
                        prop_assert!(err.abs() <= 250, "err {} µs", err);
                    }
                    _ => prop_assert!(false, "status mismatch"),
                }
            }
        }
    }
}
