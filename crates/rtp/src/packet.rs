//! RFC 3550 RTP packets with the transport-wide sequence extension.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::ParseError;

/// RTP clock rate used for video (RFC 3551: 90 kHz).
pub const VIDEO_CLOCK_HZ: u32 = 90_000;

/// RFC 5285 one-byte-header extension id carrying the 16-bit transport-wide
/// sequence number (as registered by draft-holmer-rmcat-transport-wide-cc).
pub const TWCC_EXT_ID: u8 = 5;

/// A parsed RTP packet.
#[derive(Clone, Debug)]
pub struct RtpPacket {
    /// Marker bit — set on the last packet of a video frame.
    pub marker: bool,
    /// Payload type (96 = dynamic H.264 here).
    pub payload_type: u8,
    /// Media sequence number (per SSRC).
    pub sequence: u16,
    /// Media timestamp (90 kHz video clock).
    pub timestamp: u32,
    /// Synchronisation source.
    pub ssrc: u32,
    /// Transport-wide sequence number, if the extension is present.
    pub transport_seq: Option<u16>,
    /// Media payload.
    pub payload: Bytes,
    /// Pre-built wire image, when the constructor produced one (the
    /// packetizer builds header and payload in a single buffer). Must be
    /// reset to `None` whenever any other field is mutated — it is the
    /// exact serialisation of the packet, and [`RtpPacket::serialize`]
    /// returns it without re-encoding. Not part of packet equality.
    pub wire: Option<Bytes>,
}

/// Header length on the wire: 12 fixed bytes, plus 8 when the
/// transport-wide extension is attached.
pub const fn header_len(with_twcc: bool) -> usize {
    if with_twcc {
        20
    } else {
        12
    }
}

/// Append the RTP header (and the TWCC extension, if any) to `b` —
/// shared by [`RtpPacket::serialize`] and the packetizer's single-buffer
/// wire construction, so both spell bytes identically.
pub fn write_header(
    b: &mut impl BufMut,
    marker: bool,
    payload_type: u8,
    sequence: u16,
    timestamp: u32,
    ssrc: u32,
    transport_seq: Option<u16>,
) {
    let has_ext = transport_seq.is_some();
    let v_p_x_cc: u8 = (2 << 6) | ((has_ext as u8) << 4);
    b.put_u8(v_p_x_cc);
    b.put_u8(((marker as u8) << 7) | (payload_type & 0x7f));
    b.put_u16(sequence);
    b.put_u32(timestamp);
    b.put_u32(ssrc);
    if let Some(tw) = transport_seq {
        // RFC 5285 one-byte header: profile 0xBEDE, length in words.
        b.put_u16(0xBEDE);
        b.put_u16(1); // one 32-bit word of extension data
        b.put_u8((TWCC_EXT_ID << 4) | 1); // id + (len - 1 = 1 → 2 bytes)
        b.put_u16(tw);
        b.put_u8(0); // padding to word boundary
    }
}

impl PartialEq for RtpPacket {
    /// Semantic equality: the wire cache is a serialisation artefact, not
    /// part of the packet's identity (a parsed packet never carries one).
    fn eq(&self, other: &Self) -> bool {
        self.marker == other.marker
            && self.payload_type == other.payload_type
            && self.sequence == other.sequence
            && self.timestamp == other.timestamp
            && self.ssrc == other.ssrc
            && self.transport_seq == other.transport_seq
            && self.payload == other.payload
    }
}

impl Eq for RtpPacket {}

impl RtpPacket {
    /// Serialised size in bytes.
    pub fn wire_size(&self) -> usize {
        header_len(self.transport_seq.is_some()) + self.payload.len()
    }

    /// Serialise to wire format. Free when the packet carries a pre-built
    /// wire image; otherwise encodes header + payload into a fresh buffer.
    pub fn serialize(&self) -> Bytes {
        if let Some(w) = &self.wire {
            return w.clone();
        }
        let mut b = BytesMut::with_capacity(self.wire_size());
        write_header(
            &mut b,
            self.marker,
            self.payload_type,
            self.sequence,
            self.timestamp,
            self.ssrc,
            self.transport_seq,
        );
        b.extend_from_slice(&self.payload);
        b.freeze()
    }

    /// Parse from wire format. Total: any byte string yields either a
    /// packet or a typed [`ParseError`], never a panic.
    pub fn parse(mut data: Bytes) -> Result<RtpPacket, ParseError> {
        if data.len() < 12 {
            return Err(ParseError::Truncated {
                needed: 12,
                have: data.len(),
            });
        }
        let b0 = data.get_u8();
        if b0 >> 6 != 2 {
            return Err(ParseError::BadVersion { version: b0 >> 6 });
        }
        let has_ext = (b0 >> 4) & 1 == 1;
        let cc = (b0 & 0x0f) as usize;
        let b1 = data.get_u8();
        let marker = b1 >> 7 == 1;
        let payload_type = b1 & 0x7f;
        let sequence = data.get_u16();
        let timestamp = data.get_u32();
        let ssrc = data.get_u32();
        // Skip CSRCs.
        if data.len() < cc * 4 {
            return Err(ParseError::Truncated {
                needed: cc * 4,
                have: data.len(),
            });
        }
        data.advance(cc * 4);
        let mut transport_seq = None;
        if has_ext {
            if data.len() < 4 {
                return Err(ParseError::Truncated {
                    needed: 4,
                    have: data.len(),
                });
            }
            let profile = data.get_u16();
            let words = data.get_u16() as usize;
            if data.len() < words * 4 {
                return Err(ParseError::Truncated {
                    needed: words * 4,
                    have: data.len(),
                });
            }
            let mut ext = data.split_to(words * 4);
            if profile == 0xBEDE {
                // Walk one-byte-header elements.
                while !ext.is_empty() {
                    let h = ext.get_u8();
                    if h == 0 {
                        continue; // padding
                    }
                    let id = h >> 4;
                    let len = (h & 0x0f) as usize + 1;
                    if ext.len() < len {
                        break;
                    }
                    if id == TWCC_EXT_ID && len == 2 {
                        transport_seq = Some(ext.get_u16());
                    } else {
                        ext.advance(len);
                    }
                }
            }
        }
        Ok(RtpPacket {
            marker,
            payload_type,
            sequence,
            timestamp,
            ssrc,
            transport_seq,
            payload: data,
            // Never cache the input as the wire image: serialisation is
            // canonical, while inputs may carry CSRCs or foreign
            // extensions that `serialize` would not reproduce.
            wire: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(transport_seq: Option<u16>) -> RtpPacket {
        RtpPacket {
            marker: true,
            payload_type: 96,
            sequence: 4711,
            timestamp: 900_000,
            ssrc: 0xDEADBEEF,
            transport_seq,
            payload: Bytes::from_static(b"frame-data"),
            wire: None,
        }
    }

    #[test]
    fn roundtrip_without_extension() {
        let p = sample(None);
        let parsed = RtpPacket::parse(p.serialize()).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(p.serialize().len(), p.wire_size());
    }

    #[test]
    fn roundtrip_with_twcc_extension() {
        let p = sample(Some(65_000));
        let wire = p.serialize();
        assert_eq!(wire.len(), p.wire_size());
        let parsed = RtpPacket::parse(wire).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.transport_seq, Some(65_000));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            RtpPacket::parse(Bytes::from_static(b"short")),
            Err(crate::ParseError::Truncated {
                needed: 12,
                have: 5
            })
        );
        // Version 0.
        let mut bad = vec![0u8; 12];
        bad[0] = 0x00;
        assert_eq!(
            RtpPacket::parse(Bytes::from(bad)),
            Err(crate::ParseError::BadVersion { version: 0 })
        );
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            marker in any::<bool>(),
            pt in 0u8..128,
            seq in any::<u16>(),
            ts in any::<u32>(),
            ssrc in any::<u32>(),
            tw in proptest::option::of(any::<u16>()),
            payload in proptest::collection::vec(any::<u8>(), 0..1500),
        ) {
            let p = RtpPacket {
                marker,
                payload_type: pt,
                sequence: seq,
                timestamp: ts,
                ssrc,
                transport_seq: tw,
                payload: Bytes::from(payload),
                wire: None,
            };
            let parsed = RtpPacket::parse(p.serialize()).unwrap();
            prop_assert_eq!(parsed, p);
        }
    }
}
