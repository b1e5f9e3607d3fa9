//! The RTCP feedback header (RFC 4585 §6.1) shared by the five feedback
//! dialects on the receiver→sender stream.
//!
//! Every feedback packet opens with the same 12 bytes — `V=2 | FMT`, `PT`,
//! length in 32-bit words minus one, sender SSRC, media SSRC — and is told
//! from the others by its `(FMT, PT)` pair alone. The five pairs live here,
//! in one table, because their being distinct is what lets a receiver try
//! the dialects' parsers in any order: no byte string passes two header
//! checks.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::ParseError;
use crate::report::PATH_REPORT_LEN;

/// RTCP payload type for transport-layer feedback.
pub const RTCP_PT_RTPFB: u8 = 205;
/// RTCP payload type for payload-specific feedback.
pub const RTCP_PT_PSFB: u8 = 206;

/// Bytes in the shared header.
pub const FEEDBACK_HEADER_LEN: usize = 12;

/// What tells one feedback dialect from another, and what its parser
/// reports when the bytes are someone else's.
#[derive(Clone, Copy, Debug)]
pub struct Dialect {
    /// Feedback message type (the low five bits of the first byte).
    pub fmt: u8,
    /// RTCP payload type.
    pub pt: u8,
    /// The `expected` of this dialect's [`ParseError::WrongPacketType`].
    pub name: &'static str,
    /// Shortest well-formed packet, header included.
    pub min_len: usize,
}

/// Picture loss indication (RFC 4585 §6.3.1): the bare header.
pub const PLI: Dialect = Dialect {
    fmt: 1,
    pt: RTCP_PT_PSFB,
    name: "PLI",
    min_len: FEEDBACK_HEADER_LEN,
};
/// Generic NACK (RFC 4585 §6.2.1) — PLI's FMT under the other PT.
pub const NACK: Dialect = Dialect {
    fmt: 1,
    pt: RTCP_PT_RTPFB,
    name: "NACK",
    min_len: FEEDBACK_HEADER_LEN,
};
/// RFC 8888 congestion control feedback: header, `begin_seq`,
/// `num_reports`, report timestamp.
pub const CCFB: Dialect = Dialect {
    fmt: 11,
    pt: RTCP_PT_RTPFB,
    name: "CCFB",
    min_len: 20,
};
/// Per-path receiver report (this crate's own FMT; fixed size).
pub const PATH_REPORT: Dialect = Dialect {
    fmt: 14,
    pt: RTCP_PT_RTPFB,
    name: "path report",
    min_len: PATH_REPORT_LEN,
};
/// Transport-wide congestion control feedback: header, base sequence,
/// status count, reference time + feedback count.
pub const TWCC: Dialect = Dialect {
    fmt: 15,
    pt: RTCP_PT_RTPFB,
    name: "TWCC",
    min_len: 20,
};

/// The fields of the shared header a dialect may care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeedbackHeader {
    /// The length field as written: packet length in 32-bit words, minus
    /// one.
    pub length_words: u16,
    /// SSRC of the packet sender (the receiver of the media stream).
    pub sender_ssrc: u32,
    /// SSRC of the media source the feedback is about.
    pub media_ssrc: u32,
}

impl FeedbackHeader {
    /// Check that `data` opens with `dialect`'s header and consume it,
    /// leaving the dialect's body. Total: too short for the dialect is
    /// `Truncated`, a version other than 2 `BadVersion`, another
    /// dialect's `(FMT, PT)` `WrongPacketType` — checked in that order.
    pub fn parse(data: &mut Bytes, dialect: &Dialect) -> Result<FeedbackHeader, ParseError> {
        if data.len() < dialect.min_len {
            return Err(ParseError::Truncated {
                needed: dialect.min_len,
                have: data.len(),
            });
        }
        let b0 = data.get_u8();
        if b0 >> 6 != 2 {
            return Err(ParseError::BadVersion { version: b0 >> 6 });
        }
        if (b0 & 0x1f) != dialect.fmt || data.get_u8() != dialect.pt {
            return Err(ParseError::WrongPacketType {
                expected: dialect.name,
            });
        }
        Ok(FeedbackHeader {
            length_words: data.get_u16(),
            sender_ssrc: data.get_u32(),
            media_ssrc: data.get_u32(),
        })
    }

    /// Append `dialect`'s header to `b`. The length field is written as
    /// zero; [`set_length`](Self::set_length) fills it in once the body
    /// is there.
    pub fn write(b: &mut BytesMut, dialect: &Dialect, sender_ssrc: u32, media_ssrc: u32) {
        b.put_u8((2 << 6) | dialect.fmt);
        b.put_u8(dialect.pt);
        b.put_u16(0);
        b.put_u32(sender_ssrc);
        b.put_u32(media_ssrc);
    }

    /// Set the length field of the finished packet `b` (a whole number of
    /// 32-bit words, header first).
    pub fn set_length(b: &mut BytesMut) {
        let words = (b.len() / 4 - 1) as u16;
        b[2..4].copy_from_slice(&words.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIALECTS: [Dialect; 5] = [PLI, NACK, CCFB, PATH_REPORT, TWCC];

    #[test]
    fn no_two_dialects_share_fmt_and_pt() {
        for (i, a) in DIALECTS.iter().enumerate() {
            for b in &DIALECTS[i + 1..] {
                assert_ne!((a.fmt, a.pt), (b.fmt, b.pt), "{} vs {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn checks_run_length_then_version_then_dialect() {
        let mut short = Bytes::from_static(&[0x81, 206]);
        assert_eq!(
            FeedbackHeader::parse(&mut short, &PLI),
            Err(ParseError::Truncated {
                needed: 12,
                have: 2
            })
        );
        // Version 0 under a foreign FMT/PT: the version is reported.
        let mut zeros = Bytes::from(vec![0u8; 12]);
        assert_eq!(
            FeedbackHeader::parse(&mut zeros, &PLI),
            Err(ParseError::BadVersion { version: 0 })
        );
    }
}
