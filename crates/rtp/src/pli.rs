//! Picture Loss Indication (RFC 4585 §6.3.1) — the receiver→sender
//! recovery message of the outage-survival subsystem.
//!
//! When decode-breaking loss severs the decoder's reference chain, the
//! receiver sends a PLI upstream; the sender answers by forcing an IDR
//! frame so the next GOP does not have to be waited out with a corrupted
//! picture. The wire format is the bare 12-byte feedback header
//! ([`crate::rtcp`]) under `PT 206 / FMT 1`: a PLI has no body.

use bytes::{Bytes, BytesMut};

use crate::error::ParseError;
use crate::rtcp::{self, FeedbackHeader};

/// A picture loss indication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pli {
    /// SSRC of the packet sender (the receiver of the media stream).
    pub sender_ssrc: u32,
    /// SSRC of the media source the loss was observed on.
    pub media_ssrc: u32,
}

impl Pli {
    /// Serialise to RTCP wire format (always 12 bytes).
    pub fn serialize(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(12);
        FeedbackHeader::write(&mut b, &rtcp::PLI, self.sender_ssrc, self.media_ssrc);
        FeedbackHeader::set_length(&mut b);
        b.freeze()
    }

    /// Parse from wire bytes. Total: returns a typed [`ParseError`] when
    /// the bytes are not a PLI (truncated, wrong version, or another RTCP
    /// dialect), never panics.
    pub fn parse(mut data: Bytes) -> Result<Pli, ParseError> {
        let header = FeedbackHeader::parse(&mut data, &rtcp::PLI)?;
        Ok(Pli {
            sender_ssrc: header.sender_ssrc,
            media_ssrc: header.media_ssrc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let pli = Pli {
            sender_ssrc: 0xDECA_FBAD,
            media_ssrc: 0x1234_5678,
        };
        let wire = pli.serialize();
        assert_eq!(wire.len(), 12);
        assert_eq!(Pli::parse(wire), Ok(pli));
    }

    #[test]
    fn discriminable_from_transport_feedback() {
        // A PLI must not parse as TWCC, CCFB or NACK, and vice versa.
        let pli = Pli {
            sender_ssrc: 1,
            media_ssrc: 2,
        }
        .serialize();
        assert!(crate::twcc::TwccFeedback::parse(pli.clone()).is_err());
        assert!(crate::rfc8888::Rfc8888Packet::parse(pli.clone()).is_err());
        assert!(crate::nack::Nack::parse(pli.clone()).is_err());

        // And the transport feedback dialects' headers must not parse as
        // a PLI — generic NACK shares its FMT and differs only in PT.
        for other in [rtcp::TWCC, rtcp::CCFB, rtcp::NACK] {
            let mut b = BytesMut::new();
            FeedbackHeader::write(&mut b, &other, 0, 0);
            b.resize(16, 0);
            assert!(Pli::parse(b.freeze()).is_err(), "{}", other.name);
        }
    }

    #[test]
    fn truncated_or_garbage_rejected() {
        assert!(Pli::parse(Bytes::from_static(&[0x81, 206])).is_err());
        assert!(Pli::parse(Bytes::from(vec![0u8; 12])).is_err());
    }
}
