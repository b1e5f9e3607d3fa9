//! RFC 8888 RTP Control Protocol Congestion Control Feedback — the dialect
//! SCReAM consumes (§3.2).
//!
//! Every feedback packet reports a **contiguous span** of media sequence
//! numbers ending at the highest received one: `begin_seq`, `num_reports`,
//! and one 16-bit metric block per covered packet
//! (`R (1) | ECN (2) | ATO (13)` — arrival-time offset in 1/1024 s units,
//! measured backwards from the packet's report timestamp).
//!
//! The span length is bounded by [`Rfc8888Builder::max_reports`] — **64 in
//! the Ericsson SCReAM library the paper used**. §4.2.1 shows the
//! consequence: above ≈7 Mbps more than 64 RTP packets arrive between two
//! 10 ms feedbacks, so the span slides past packets that were received but
//! never acknowledged, and SCReAM misreads them as lost and needlessly
//! lowers its bitrate. The paper raised the span to 256 to soften this;
//! both values are reproduced in the `ablation_ackspan` experiment.

use crate::seqwindow::{SeqUnwrapper, SeqWindow};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rpav_sim::{SimDuration, SimTime};

use crate::error::ParseError;
use crate::rtcp::{self, FeedbackHeader};

/// Default span limit of the Ericsson SCReAM library (§4.2.1).
pub const DEFAULT_MAX_REPORTS: usize = 64;

/// Report for one media packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rfc8888Report {
    /// Media sequence number.
    pub seq: u16,
    /// Whether the packet was received.
    pub received: bool,
    /// How long before the report timestamp it arrived (zero if lost).
    pub ato: SimDuration,
}

/// A congestion control feedback packet.
#[derive(Clone, Debug, PartialEq)]
pub struct Rfc8888Packet {
    /// When the report was generated (wire: Q16.16 seconds, wraps at ~18 h).
    pub report_ts: SimTime,
    /// Covered reports, consecutive starting at `reports[0].seq`.
    pub reports: Vec<Rfc8888Report>,
}

/// Encode a `SimTime` as Q16.16 seconds (RFC 8888 report timestamp field).
fn encode_ts(t: SimTime) -> u32 {
    let secs = t.as_micros() as f64 / 1e6;
    ((secs * 65_536.0) as u64 & 0xffff_ffff) as u32
}

/// Decode a Q16.16 seconds timestamp.
fn decode_ts(raw: u32) -> SimTime {
    SimTime::from_secs_f64(raw as f64 / 65_536.0)
}

impl Rfc8888Packet {
    /// An empty packet, for use as a reusable `parse_into` / `build_into`
    /// scratch.
    pub fn empty() -> Rfc8888Packet {
        Rfc8888Packet {
            report_ts: SimTime::ZERO,
            reports: Vec::new(),
        }
    }

    /// Arrival time of report `i`, if received.
    pub fn arrival_time(&self, i: usize) -> Option<SimTime> {
        let r = self.reports.get(i)?;
        if r.received {
            Some(self.report_ts - r.ato)
        } else {
            None
        }
    }

    /// Serialise to RTCP wire format.
    pub fn serialize(&self) -> Bytes {
        let n = self.reports.len();
        let mut b = BytesMut::with_capacity(24 + 2 * n);
        FeedbackHeader::write(&mut b, &rtcp::CCFB, 0x1, 0x2);
        let begin = self.reports.first().map(|r| r.seq).unwrap_or(0);
        b.put_u16(begin);
        b.put_u16(n as u16);
        for r in &self.reports {
            let ato_units = ((r.ato.as_secs_f64() * 1024.0) as u32).min(0x1fff);
            let block: u16 = ((r.received as u16) << 15) | (ato_units as u16 & 0x1fff);
            b.put_u16(block);
        }
        if n % 2 == 1 {
            b.put_u16(0); // pad metric blocks to a 32-bit boundary
        }
        b.put_u32(encode_ts(self.report_ts));
        FeedbackHeader::set_length(&mut b);
        b.freeze()
    }

    /// Parse from RTCP wire format. Total: returns a typed [`ParseError`]
    /// on anything that is not a well-formed CCFB packet.
    pub fn parse(data: Bytes) -> Result<Rfc8888Packet, ParseError> {
        let mut pkt = Rfc8888Packet::empty();
        Self::parse_into(data, &mut pkt)?;
        Ok(pkt)
    }

    /// [`parse`](Self::parse) into a reusable packet value: `out`'s
    /// report vector keeps its capacity across feedback rounds. On error
    /// `out` is unspecified (the caller re-parses or discards).
    pub fn parse_into(mut data: Bytes, out: &mut Rfc8888Packet) -> Result<(), ParseError> {
        FeedbackHeader::parse(&mut data, &rtcp::CCFB)?;
        let begin = data.get_u16();
        let n = data.get_u16() as usize;
        let needed = 2 * n + if n % 2 == 1 { 2 } else { 0 } + 4;
        if data.len() < needed {
            return Err(ParseError::Truncated {
                needed,
                have: data.len(),
            });
        }
        // Single pass over the wire: peek the trailing timestamp first,
        // then decode metric blocks straight into the report vector — no
        // intermediate block buffer.
        let buf = &data[..];
        let ts_off = 2 * n + if n % 2 == 1 { 2 } else { 0 };
        let report_ts = decode_ts(u32::from_be_bytes([
            buf[ts_off],
            buf[ts_off + 1],
            buf[ts_off + 2],
            buf[ts_off + 3],
        ]));
        out.reports.clear();
        out.reports.reserve(n);
        for i in 0..n {
            let blk = u16::from_be_bytes([buf[2 * i], buf[2 * i + 1]]);
            out.reports.push(Rfc8888Report {
                seq: begin.wrapping_add(i as u16),
                received: blk >> 15 == 1,
                ato: SimDuration::from_secs_f64((blk & 0x1fff) as f64 / 1024.0),
            });
        }
        out.report_ts = report_ts;
        Ok(())
    }
}

/// Receiver-side builder reproducing the SCReAM library's feedback
/// generation: every report covers the highest received sequence number and
/// the `max_reports - 1` preceding packets — nothing older, even if it was
/// received and never yet acknowledged.
#[derive(Debug)]
pub struct Rfc8888Builder {
    arrivals: SeqWindow<SimTime>,
    /// The highest sequence recorded: the span ends here.
    highest: Option<u64>,
    /// Reads the arrivals given to [`on_packet`](Self::on_packet).
    seqs: SeqUnwrapper,
    /// Span limit per feedback packet (64 stock, 256 in the paper's
    /// mitigation).
    pub max_reports: usize,
}

impl Rfc8888Builder {
    /// Create a builder with the given span limit.
    pub fn new(max_reports: usize) -> Self {
        assert!(max_reports > 0);
        Rfc8888Builder {
            arrivals: SeqWindow::new(),
            highest: None,
            seqs: SeqUnwrapper::new(),
            max_reports,
        }
    }

    /// Record a media packet arrival by its 16-bit sequence:
    /// [`on_arrival`](Self::on_arrival) behind this builder's own reader.
    pub fn on_packet(&mut self, seq: u16, arrival: SimTime) {
        let seq = self.seqs.observe(seq);
        self.on_arrival(seq, arrival);
    }

    /// Record a media packet arrival by its extended sequence, as the
    /// stream's reader read it. The sequence goes back to 16 bits only on
    /// the wire.
    pub fn on_arrival(&mut self, seq: u64, arrival: SimTime) {
        self.arrivals.insert(seq, arrival);
        self.highest = Some(self.highest.map_or(seq, |h| h.max(seq)));
    }

    /// Build the feedback packet for the current instant, if anything has
    /// been received yet.
    pub fn build(&mut self, now: SimTime) -> Option<Rfc8888Packet> {
        let mut pkt = Rfc8888Packet::empty();
        self.build_into(now, &mut pkt).then_some(pkt)
    }

    /// [`build`](Self::build) into a reusable packet value (the report
    /// vector keeps its capacity). Returns `false` — leaving `out`
    /// untouched — when nothing has been received yet.
    pub fn build_into(&mut self, now: SimTime, out: &mut Rfc8888Packet) -> bool {
        let Some(highest) = self.highest else {
            return false;
        };
        let begin = highest.saturating_sub(self.max_reports as u64 - 1);
        out.reports.clear();
        out.reports
            .extend((begin..=highest).map(|s| match self.arrivals.get(s) {
                Some(&t) => Rfc8888Report {
                    seq: (s & 0xffff) as u16,
                    received: true,
                    ato: now.saturating_since(t),
                },
                None => Rfc8888Report {
                    seq: (s & 0xffff) as u16,
                    received: false,
                    ato: SimDuration::ZERO,
                },
            }));
        out.report_ts = now;
        // Garbage-collect everything before the span; it can never be
        // reported again (this is precisely the information loss §4.2.1
        // analyses).
        self.arrivals.evict_below(begin);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let pkt = Rfc8888Packet {
            report_ts: SimTime::from_millis(12_345),
            reports: vec![
                Rfc8888Report {
                    seq: 65_534,
                    received: true,
                    ato: SimDuration::from_millis(15),
                },
                Rfc8888Report {
                    seq: 65_535,
                    received: false,
                    ato: SimDuration::ZERO,
                },
                Rfc8888Report {
                    seq: 0,
                    received: true,
                    ato: SimDuration::from_millis(3),
                },
            ],
        };
        let parsed = Rfc8888Packet::parse(pkt.serialize()).unwrap();
        assert_eq!(parsed.reports.len(), 3);
        assert_eq!(parsed.reports[0].seq, 65_534);
        assert_eq!(parsed.reports[1].seq, 65_535);
        assert_eq!(parsed.reports[2].seq, 0);
        assert!(parsed.reports[0].received);
        assert!(!parsed.reports[1].received);
        // ATO quantisation: 1/1024 s ≈ 977 µs.
        let err = parsed.reports[0].ato.as_micros() as i64 - 15_000;
        assert!(err.abs() < 1_000, "ato err {err} µs");
        // Report timestamp quantisation: 1/65536 s ≈ 15 µs.
        let terr = parsed.report_ts.as_micros() as i64 - 12_345_000;
        assert!(terr.abs() < 20, "ts err {terr} µs");
    }

    #[test]
    fn builder_covers_span_ending_at_highest() {
        let mut b = Rfc8888Builder::new(4);
        for s in 0..10u16 {
            b.on_packet(s, SimTime::from_millis(s as u64));
        }
        let fb = b.build(SimTime::from_millis(20)).unwrap();
        let seqs: Vec<u16> = fb.reports.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(fb.reports.iter().all(|r| r.received));
    }

    #[test]
    fn span_limit_loses_unacked_packets() {
        // The §4.2.1 failure mode: a burst larger than the span arrives
        // between feedbacks; the early packets are never acknowledged.
        let mut b = Rfc8888Builder::new(64);
        for s in 0..200u16 {
            b.on_packet(s, SimTime::from_millis(s as u64 / 10));
        }
        let fb = b.build(SimTime::from_millis(30)).unwrap();
        assert_eq!(fb.reports.len(), 64);
        assert_eq!(fb.reports.first().unwrap().seq, 136);
        // Packets 0..136 are gone — received but never reported.
        let fb2 = b.build(SimTime::from_millis(40)).unwrap();
        assert_eq!(fb2.reports.first().unwrap().seq, 136);
    }

    #[test]
    fn wider_span_keeps_them() {
        let mut b = Rfc8888Builder::new(256);
        for s in 0..200u16 {
            b.on_packet(s, SimTime::from_millis(s as u64 / 10));
        }
        let fb = b.build(SimTime::from_millis(30)).unwrap();
        assert_eq!(fb.reports.len(), 200);
        assert!(fb.reports.iter().all(|r| r.received));
    }

    #[test]
    fn losses_reported_in_span() {
        let mut b = Rfc8888Builder::new(16);
        for s in [0u16, 1, 2, 5, 6] {
            b.on_packet(s, SimTime::from_millis(s as u64));
        }
        let fb = b.build(SimTime::from_millis(10)).unwrap();
        let lost: Vec<u16> = fb
            .reports
            .iter()
            .filter(|r| !r.received)
            .map(|r| r.seq)
            .collect();
        assert_eq!(lost, vec![3, 4]);
    }

    #[test]
    fn arrival_times_reconstruct() {
        let mut b = Rfc8888Builder::new(32);
        let arrivals: Vec<SimTime> = (0..10)
            .map(|i| SimTime::from_millis(1_000 + i * 9))
            .collect();
        for (i, t) in arrivals.iter().enumerate() {
            b.on_packet(i as u16, *t);
        }
        let now = SimTime::from_millis(1_200);
        let fb = b.build(now).unwrap();
        let parsed = Rfc8888Packet::parse(fb.serialize()).unwrap();
        for (i, want) in arrivals.iter().enumerate() {
            let got = parsed.arrival_time(i).unwrap();
            let err = got.as_micros() as i64 - want.as_micros() as i64;
            assert!(err.abs() < 1_100, "packet {i}: err {err} µs");
        }
    }

    #[test]
    #[should_panic]
    fn zero_span_rejected() {
        let _ = Rfc8888Builder::new(0);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            begin in any::<u16>(),
            pattern in proptest::collection::vec((any::<bool>(), 0u64..8_000), 1..300),
            ts_ms in 0u64..3_600_000,
        ) {
            let reports: Vec<Rfc8888Report> = pattern
                .iter()
                .enumerate()
                .map(|(i, (received, ato_ms))| Rfc8888Report {
                    seq: begin.wrapping_add(i as u16),
                    received: *received,
                    ato: if *received {
                        SimDuration::from_millis(*ato_ms)
                    } else {
                        SimDuration::ZERO
                    },
                })
                .collect();
            let pkt = Rfc8888Packet {
                report_ts: SimTime::from_millis(ts_ms),
                reports: reports.clone(),
            };
            let parsed = Rfc8888Packet::parse(pkt.serialize()).unwrap();
            prop_assert_eq!(parsed.reports.len(), reports.len());
            for (got, want) in parsed.reports.iter().zip(reports.iter()) {
                prop_assert_eq!(got.seq, want.seq);
                prop_assert_eq!(got.received, want.received);
                if want.received {
                    let err =
                        got.ato.as_micros() as i64 - want.ato.as_micros() as i64;
                    prop_assert!(err.abs() < 1_100, "ato err {} µs", err);
                }
            }
        }
    }
}
