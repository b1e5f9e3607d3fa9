//! Per-path receiver report — the health-feedback wire format of the
//! multi-operator failover subsystem.
//!
//! Each network leg (one cellular operator) carries its own low-rate
//! receiver→sender report stream, separate from the congestion-control
//! feedback: CC feedback follows the *active* leg only (feeding two legs'
//! arrival processes into one controller would corrupt its delay/loss
//! estimation), while every leg — active or standby — needs fresh
//! health samples for the failover decision. A [`PathReport`] carries the
//! receiver's cumulative per-leg counters (highest wire sequence seen,
//! packets and payload bytes received) plus the one-way delay of the
//! newest arrival; the sender differentiates consecutive reports into
//! EWMA loss/goodput estimates and combines the echoed uplink delay with
//! the report's own downlink delay into an RTT sample.
//!
//! Wire format: an RTCP transport-feedback packet (`PT 205`) with its own
//! FMT (`14`) behind the shared feedback header ([`crate::rtcp`]). Like
//! every parser in this crate it is a total function over arbitrary
//! bytes, returning a typed [`ParseError`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::ParseError;
use crate::rtcp::{self, FeedbackHeader};

/// Serialised size: 12-byte feedback header + 4 (leg + pad) + 4 (OWD) +
/// 3×8 (counters).
pub const PATH_REPORT_LEN: usize = 44;
/// Highest leg index the parser accepts. A sanity bound against garbage
/// that happens to carry the report preamble, not a rig limit — it just
/// needs to sit at or above the largest rig the drivers build (the core
/// caps at 4 legs today; 8 leaves headroom without admitting noise).
pub const MAX_REPORT_LEG: u8 = 7;

/// Cumulative per-leg receiver counters, reported at a fixed cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathReport {
    /// Which leg this report describes (0 = primary operator).
    pub leg: u8,
    /// Highest per-leg wire sequence number received so far.
    pub highest_seq: u64,
    /// Packets received on this leg so far (media and probes alike).
    pub received: u64,
    /// Payload bytes received on this leg so far.
    pub received_bytes: u64,
    /// One-way delay of the newest arrival on this leg, microseconds
    /// (saturated; `u32::MAX` ≈ 71 min is far beyond any live path).
    pub newest_owd_us: u32,
}

impl PathReport {
    /// Serialise to RTCP wire format (always [`PATH_REPORT_LEN`] bytes).
    pub fn serialize(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(PATH_REPORT_LEN);
        FeedbackHeader::write(&mut b, &rtcp::PATH_REPORT, 0, 0);
        b.put_u8(self.leg);
        b.put_u8(0);
        b.put_u16(0);
        b.put_u32(self.newest_owd_us);
        b.put_u64(self.highest_seq);
        b.put_u64(self.received);
        b.put_u64(self.received_bytes);
        FeedbackHeader::set_length(&mut b);
        b.freeze()
    }

    /// Parse from wire bytes. Total: returns a typed [`ParseError`] when
    /// the bytes are not a path report (truncated, wrong version, or
    /// another RTCP dialect), never panics.
    pub fn parse(mut data: Bytes) -> Result<PathReport, ParseError> {
        let header = FeedbackHeader::parse(&mut data, &rtcp::PATH_REPORT)?;
        if header.length_words as usize != PATH_REPORT_LEN / 4 - 1 {
            return Err(ParseError::Malformed {
                reason: "path report length field mismatch",
            });
        }
        let leg = data.get_u8();
        if leg > MAX_REPORT_LEG {
            return Err(ParseError::Malformed {
                reason: "path report leg out of range",
            });
        }
        let _pad = data.get_u8();
        let _pad2 = data.get_u16();
        Ok(PathReport {
            leg,
            newest_owd_us: data.get_u32(),
            highest_seq: data.get_u64(),
            received: data.get_u64(),
            received_bytes: data.get_u64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let r = PathReport {
            leg: 1,
            highest_seq: 0xDEAD_BEEF_CAFE,
            received: 123_456,
            received_bytes: 98_765_432,
            newest_owd_us: 42_000,
        };
        let wire = r.serialize();
        assert_eq!(wire.len(), PATH_REPORT_LEN);
        assert_eq!(PathReport::parse(wire), Ok(r));
    }

    #[test]
    fn discriminable_from_other_rtcp_dialects() {
        let wire = PathReport {
            leg: 0,
            highest_seq: 7,
            received: 7,
            received_bytes: 7_000,
            newest_owd_us: 30_000,
        }
        .serialize();
        assert!(crate::twcc::TwccFeedback::parse(wire.clone()).is_err());
        assert!(crate::rfc8888::Rfc8888Packet::parse(wire.clone()).is_err());
        assert!(crate::nack::Nack::parse(wire.clone()).is_err());
        assert!(crate::pli::Pli::parse(wire).is_err());

        // And the other dialects' prefixes must not parse as a report:
        // TWCC (15/205), CCFB (11/205), NACK (1/205), PLI (1/206).
        for (fmt, pt) in [(15u8, 205u8), (11, 205), (1, 205), (1, 206)] {
            let mut b = BytesMut::new();
            b.put_u8((2 << 6) | fmt);
            b.put_u8(pt);
            b.put_u16((PATH_REPORT_LEN / 4 - 1) as u16);
            b.put_slice(&[0u8; PATH_REPORT_LEN - 4]);
            assert!(PathReport::parse(b.freeze()).is_err(), "fmt/pt {fmt}/{pt}");
        }
    }

    #[test]
    fn truncated_or_garbage_rejected() {
        let wire = PathReport {
            leg: 0,
            highest_seq: 1,
            received: 1,
            received_bytes: 1,
            newest_owd_us: 1,
        }
        .serialize();
        for cut in 0..wire.len() {
            let truncated = Bytes::from(wire[..cut].to_vec());
            assert!(PathReport::parse(truncated).is_err(), "cut {cut}");
        }
        assert!(PathReport::parse(Bytes::from(vec![0u8; PATH_REPORT_LEN])).is_err());
        // Legs up to the sanity bound parse; past it is rejected.
        let mut ok = BytesMut::new();
        ok.extend_from_slice(&wire);
        ok[12] = MAX_REPORT_LEG;
        assert_eq!(
            PathReport::parse(ok.freeze()).map(|r| r.leg),
            Ok(MAX_REPORT_LEG)
        );
        let mut bad = BytesMut::new();
        bad.extend_from_slice(&wire);
        bad[12] = MAX_REPORT_LEG + 1;
        assert!(PathReport::parse(bad.freeze()).is_err());
    }
}
