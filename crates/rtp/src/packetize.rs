//! Frame ↔ RTP packetisation.
//!
//! Each encoded video frame is split into MTU-sized RTP packets. In place
//! of the paper's in-picture QR code (frame number) and barcode (encode
//! time), every packet carries a small metadata header in its payload —
//! the same information content, machine-readable without computer vision
//! (see DESIGN.md §1).

use bytes::{BufMut, Bytes, BytesMut};
use rpav_sim::SimTime;
use std::collections::BTreeMap;

use crate::error::ParseError;
use crate::packet::{header_len, unwrap_seq, write_header, RtpPacket, VIDEO_CLOCK_HZ};

/// Ground-truth metadata embedded in every packet of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameMeta {
    /// Monotonic frame number (the QR code).
    pub frame_number: u64,
    /// When the encoder emitted the frame (the barcode).
    pub encode_time: SimTime,
    /// True for IDR/I frames.
    pub keyframe: bool,
    /// Total encoded size of the frame in bytes.
    pub frame_bytes: u32,
}

/// Per-packet metadata header length: frame_number(8) + encode_time(8) +
/// flags(1) + frame_bytes(4) + frag_index(2) + frag_count(2).
pub const META_LEN: usize = 25;

/// Largest forward frame-number jump the depacketizer accepts relative to
/// the stream's observed progression (~2 minutes of 30 fps video). Beyond
/// it a decoded header is treated as a bit-corruption survivor.
pub const MAX_FRAME_JUMP: u64 = 4_096;

/// Maximum RTP payload per packet (typical 1200 B media payload budget,
/// leaving room for RTP/UDP/IP overhead within a 1500 B MTU).
pub const MAX_PAYLOAD: usize = 1_200;

/// Decode the per-packet metadata header from an RTP payload. Total: any
/// byte string yields a value or a typed [`ParseError`] — public so the
/// fuzz suite can hammer it directly.
pub fn decode_meta(payload: Bytes) -> Result<(FrameMeta, u16, u16), ParseError> {
    decode_meta_slice(&payload)
}

/// [`decode_meta`] over a borrowed slice — the receive hot path reads the
/// metadata in place instead of cloning a `Bytes` handle (two refcount
/// round-trips per media packet) just to look at 25 bytes.
pub fn decode_meta_slice(payload: &[u8]) -> Result<(FrameMeta, u16, u16), ParseError> {
    if payload.len() < META_LEN {
        return Err(ParseError::Truncated {
            needed: META_LEN,
            have: payload.len(),
        });
    }
    let be_u64 = |i: usize| u64::from_be_bytes(payload[i..i + 8].try_into().expect("8 bytes"));
    let be_u32 = |i: usize| u32::from_be_bytes(payload[i..i + 4].try_into().expect("4 bytes"));
    let be_u16 = |i: usize| u16::from_be_bytes(payload[i..i + 2].try_into().expect("2 bytes"));
    let frame_number = be_u64(0);
    let encode_time = SimTime::from_micros(be_u64(8));
    let keyframe = payload[16] != 0;
    let frame_bytes = be_u32(17);
    let frag_index = be_u16(21);
    let frag_count = be_u16(23);
    if frag_count == 0 {
        return Err(ParseError::Malformed {
            reason: "zero fragment count",
        });
    }
    if frag_index >= frag_count {
        return Err(ParseError::Malformed {
            reason: "fragment index beyond count",
        });
    }
    Ok((
        FrameMeta {
            frame_number,
            encode_time,
            keyframe,
            frame_bytes,
        },
        frag_index,
        frag_count,
    ))
}

/// Splits frames into RTP packets with monotonically increasing media and
/// transport-wide sequence numbers.
#[derive(Debug)]
pub struct Packetizer {
    ssrc: u32,
    next_seq: u16,
    next_transport_seq: u16,
    /// Attach the transport-wide extension (GCC) or not (SCReAM/static).
    with_twcc: bool,
}

impl Packetizer {
    /// Create a packetizer for one media stream.
    pub fn new(ssrc: u32, with_twcc: bool) -> Self {
        Packetizer {
            ssrc,
            next_seq: 0,
            next_transport_seq: 0,
            with_twcc,
        }
    }

    /// Media sequence number the next packet will carry.
    pub fn next_seq(&self) -> u16 {
        self.next_seq
    }

    /// Split one encoded frame into RTP packets. `capture_time` drives the
    /// 90 kHz RTP timestamp.
    pub fn packetize(&mut self, meta: FrameMeta, capture_time: SimTime) -> Vec<RtpPacket> {
        let mut out = Vec::new();
        self.packetize_into(meta, capture_time, &mut out);
        out
    }

    /// Drain-style variant of [`packetize`](Self::packetize): clears `out`
    /// and fills it, so a per-frame scratch vector keeps its capacity. The
    /// packet payloads still share one freshly allocated wire buffer (they
    /// are handed to the network and outlive the call).
    pub fn packetize_into(
        &mut self,
        meta: FrameMeta,
        capture_time: SimTime,
        out: &mut Vec<RtpPacket>,
    ) {
        out.clear();
        let total = meta.frame_bytes as usize;
        let budget = MAX_PAYLOAD - META_LEN;
        let count = total.div_ceil(budget).max(1);
        let ts = ((capture_time.as_micros() as u128 * VIDEO_CLOCK_HZ as u128 / 1_000_000) as u64
            & 0xffff_ffff) as u32;
        out.reserve(count);
        let hdr = header_len(self.with_twcc);
        // Header, metadata and stand-in bitstream for the WHOLE frame go
        // into ONE buffer: each packet's payload and cached wire image are
        // zero-copy views of it, and `serialize` later returns the cached
        // wire without touching the bytes again (the media hot path used to
        // allocate per packet here, then allocate and copy it all over
        // again on send). Fragment i starts at `i * frag_len` because every
        // fragment but the last carries a full `budget` of fill.
        let frag_len = hdr + META_LEN + budget;
        let base_seq = self.next_seq;
        let base_transport_seq = self.next_transport_seq;
        let mut b = BytesMut::with_capacity(
            (count - 1) * frag_len + hdr + META_LEN + total - budget * (count - 1),
        );
        for i in 0..count {
            let fill = if i == count - 1 {
                total - budget * (count - 1)
            } else {
                budget
            };
            let marker = i == count - 1;
            let transport_seq = self.with_twcc.then_some(self.next_transport_seq);
            let start = b.len();
            write_header(
                &mut b,
                marker,
                96,
                self.next_seq,
                ts,
                self.ssrc,
                transport_seq,
            );
            b.put_u64(meta.frame_number);
            b.put_u64(meta.encode_time.as_micros());
            b.put_u8(meta.keyframe as u8);
            b.put_u32(meta.frame_bytes);
            b.put_u16(i as u16);
            b.put_u16(count as u16);
            // Stand-in for the actual H.264 bitstream bytes.
            b.resize(start + hdr + META_LEN + fill, 0xAB);
            self.next_seq = self.next_seq.wrapping_add(1);
            if self.with_twcc {
                self.next_transport_seq = self.next_transport_seq.wrapping_add(1);
            }
        }
        let frame_wire = b.freeze();
        for i in 0..count {
            let start = i * frag_len;
            let end = if i == count - 1 {
                frame_wire.len()
            } else {
                start + frag_len
            };
            out.push(RtpPacket {
                marker: i == count - 1,
                payload_type: 96,
                sequence: base_seq.wrapping_add(i as u16),
                timestamp: ts,
                ssrc: self.ssrc,
                transport_seq: self
                    .with_twcc
                    .then_some(base_transport_seq.wrapping_add(i as u16)),
                payload: frame_wire.slice(start + hdr..end),
                wire: Some(frame_wire.slice(start..end)),
            });
        }
    }
}

/// A frame coming out of the depacketizer.
#[derive(Clone, Debug)]
pub struct ReassembledFrame {
    /// Ground-truth metadata.
    pub meta: FrameMeta,
    /// Packets received for this frame.
    pub packets_received: u16,
    /// Packets the frame was split into.
    pub packets_expected: u16,
    /// When the last contributing packet arrived.
    pub completed_at: SimTime,
}

impl ReassembledFrame {
    /// A frame with every fragment present decodes cleanly.
    pub fn is_complete(&self) -> bool {
        self.packets_received >= self.packets_expected
    }

    /// Fraction of the frame's bytes that arrived.
    pub fn received_fraction(&self) -> f64 {
        (self.packets_received as f64 / self.packets_expected.max(1) as f64).min(1.0)
    }
}

/// Reassembles frames from (possibly lossy, ordered-by-jitter-buffer)
/// packet delivery.
#[derive(Debug, Default)]
pub struct Depacketizer {
    pending: BTreeMap<u64, ReassembledFrame>,
    last_seq_unwrapped: Option<u64>,
    /// Count of media-level sequence gaps observed (lost packets).
    lost_packets: u64,
    /// Packets whose payload failed to decode as frame metadata
    /// (bit-corruption survivors, truncation).
    malformed_payloads: u64,
    /// Highest frame number ever drained.
    highest_drained: Option<u64>,
}

impl Depacketizer {
    /// Create an empty depacketizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total media packets observed as lost (sequence gaps).
    pub fn lost_packets(&self) -> u64 {
        self.lost_packets
    }

    /// Packets dropped because their payload metadata failed to decode.
    pub fn malformed_payloads(&self) -> u64 {
        self.malformed_payloads
    }

    /// Feed one packet from the jitter buffer; `arrival` is its delivery
    /// time.
    pub fn push(&mut self, packet: &RtpPacket, arrival: SimTime) {
        // Track media-level loss via sequence gaps.
        let unwrapped = match self.last_seq_unwrapped {
            None => packet.sequence as u64,
            Some(prev) => unwrap_seq(prev, packet.sequence),
        };
        if let Some(prev) = self.last_seq_unwrapped {
            if unwrapped > prev + 1 {
                self.lost_packets += unwrapped - prev - 1;
            }
        }
        self.last_seq_unwrapped = Some(self.last_seq_unwrapped.unwrap_or(unwrapped).max(unwrapped));

        let Ok((meta, _idx, count)) = decode_meta_slice(&packet.payload) else {
            self.malformed_payloads += 1;
            return;
        };
        // Plausibility gate: a header that decoded but names a frame far
        // outside the stream's progression is a bit-corruption survivor
        // (frame numbers advance at ~30/s; a jump of thousands within one
        // jitter-buffer window is wire damage, not video). Letting it
        // through would wedge the reassembly map and the player buffer on
        // a frame number that never completes.
        let anchor = self
            .highest_drained
            .or_else(|| self.pending.keys().next().copied());
        if let Some(anchor) = anchor {
            if meta.frame_number > anchor.saturating_add(MAX_FRAME_JUMP) {
                self.malformed_payloads += 1;
                return;
            }
        }
        let entry = self
            .pending
            .entry(meta.frame_number)
            .or_insert(ReassembledFrame {
                meta,
                packets_received: 0,
                packets_expected: count,
                completed_at: arrival,
            });
        entry.packets_received += 1;
        entry.completed_at = arrival;
    }

    /// Drain frames that are finished: complete frames, plus incomplete
    /// frames older than `flush_before` (the player gave up waiting).
    /// Frames come out in frame-number order.
    pub fn drain(&mut self, flush_before: u64) -> Vec<ReassembledFrame> {
        let mut out = Vec::new();
        self.drain_into(flush_before, &mut out);
        out
    }

    /// [`drain`](Self::drain) into a caller-owned buffer: `out` is cleared
    /// and refilled, so a driver that polls every tick can reuse one
    /// allocation for the whole run.
    pub fn drain_into(&mut self, flush_before: u64, out: &mut Vec<ReassembledFrame>) {
        out.clear();
        // Fast path: nothing to release. The driver polls every tick but
        // frames complete at frame cadence, so this almost always leaves
        // `out` untouched.
        if !self
            .pending
            .iter()
            .any(|(k, f)| *k < flush_before || f.is_complete())
        {
            return;
        }
        // `pending` is a BTreeMap, so this walks keys in ascending frame
        // order — `retain` visits in key order and no sort is needed.
        self.pending.retain(|k, f| {
            if f.is_complete() || *k < flush_before {
                out.push(f.clone());
                false
            } else {
                true
            }
        });
        if let Some(last) = out.last() {
            self.highest_drained = Some(
                self.highest_drained
                    .unwrap_or(last.meta.frame_number)
                    .max(last.meta.frame_number),
            );
        }
    }

    /// Number of frames still waiting for fragments.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Highest frame number observed so far (complete or not).
    pub fn highest_frame(&self) -> Option<u64> {
        self.pending
            .keys()
            .next_back()
            .copied()
            .max(self.highest_drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(n: u64, bytes: u32) -> FrameMeta {
        FrameMeta {
            frame_number: n,
            encode_time: SimTime::from_millis(n * 33),
            keyframe: n % 30 == 0,
            frame_bytes: bytes,
        }
    }

    #[test]
    fn packetizes_to_mtu_budget() {
        let mut p = Packetizer::new(7, true);
        let pkts = p.packetize(meta(0, 100_000), SimTime::ZERO);
        // 100 kB / (1200-25) B ≈ 86 packets.
        assert_eq!(pkts.len(), 100_000usize.div_ceil(MAX_PAYLOAD - META_LEN));
        assert!(pkts.iter().all(|p| p.payload.len() <= MAX_PAYLOAD));
        // Only the last packet has the marker.
        assert!(pkts.last().unwrap().marker);
        assert!(pkts[..pkts.len() - 1].iter().all(|p| !p.marker));
        // Sequences are consecutive; transport seqs attached.
        for (i, pkt) in pkts.iter().enumerate() {
            assert_eq!(pkt.sequence, i as u16);
            assert_eq!(pkt.transport_seq, Some(i as u16));
        }
    }

    #[test]
    fn implausible_frame_jump_counts_as_malformed() {
        let mut p = Packetizer::new(7, false);
        let mut d = Depacketizer::new();
        for pkt in p.packetize(meta(0, 500), SimTime::ZERO) {
            d.push(&pkt, SimTime::ZERO);
        }
        assert_eq!(d.pending_frames(), 1);
        // A bit-corruption survivor: decodes fine but names a frame
        // absurdly far ahead of the stream.
        let mut q = Packetizer::new(7, false);
        let bogus = q.packetize(
            FrameMeta {
                frame_number: 1 << 50,
                encode_time: SimTime::ZERO,
                keyframe: false,
                frame_bytes: 500,
            },
            SimTime::ZERO,
        );
        for pkt in &bogus {
            d.push(pkt, SimTime::ZERO);
        }
        assert_eq!(d.malformed_payloads(), bogus.len() as u64);
        assert_eq!(d.pending_frames(), 1, "bogus frame entered the map");
        // A plausible next frame still passes.
        for pkt in p.packetize(meta(1, 500), SimTime::ZERO) {
            d.push(&pkt, SimTime::ZERO);
        }
        assert_eq!(d.pending_frames(), 2);
    }

    #[test]
    fn tiny_frame_is_one_packet() {
        let mut p = Packetizer::new(7, false);
        let pkts = p.packetize(meta(1, 10), SimTime::from_millis(33));
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].marker);
        assert_eq!(pkts[0].transport_seq, None);
    }

    #[test]
    fn metadata_survives_serialisation() {
        let mut p = Packetizer::new(7, true);
        let m = meta(42, 5_000);
        let pkts = p.packetize(m, SimTime::from_secs(1));
        for pkt in &pkts {
            let wire = pkt.serialize();
            let parsed = RtpPacket::parse(wire).unwrap();
            let (got, _, count) = decode_meta(parsed.payload).unwrap();
            assert_eq!(got, m);
            assert_eq!(count as usize, pkts.len());
        }
    }

    #[test]
    fn reassembles_complete_frames_in_order() {
        let mut p = Packetizer::new(7, true);
        let mut d = Depacketizer::new();
        let mut all = Vec::new();
        for n in 0..5 {
            all.extend(p.packetize(meta(n, 3_000), SimTime::from_millis(n * 33)));
        }
        for pkt in &all {
            d.push(pkt, SimTime::from_millis(100));
        }
        let frames = d.drain(0);
        assert_eq!(frames.len(), 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.meta.frame_number, i as u64);
            assert!(f.is_complete());
            assert_eq!(f.received_fraction(), 1.0);
        }
        assert_eq!(d.lost_packets(), 0);
    }

    #[test]
    fn detects_loss_and_incomplete_frames() {
        let mut p = Packetizer::new(7, true);
        let mut d = Depacketizer::new();
        let pkts = p.packetize(meta(0, 10_000), SimTime::ZERO);
        // Drop packet 3.
        for (i, pkt) in pkts.iter().enumerate() {
            if i != 3 {
                d.push(pkt, SimTime::from_millis(50));
            }
        }
        assert_eq!(d.lost_packets(), 1);
        // Not complete: drain with no flush returns nothing.
        assert!(d.drain(0).is_empty());
        // Flushing past the frame releases it as incomplete.
        let frames = d.drain(1);
        assert_eq!(frames.len(), 1);
        assert!(!frames[0].is_complete());
        assert!(frames[0].received_fraction() < 1.0);
    }

    #[test]
    fn sequence_numbers_continue_across_frames() {
        let mut p = Packetizer::new(7, true);
        let a = p.packetize(meta(0, 2_500), SimTime::ZERO);
        let b = p.packetize(meta(1, 2_500), SimTime::from_millis(33));
        assert_eq!(b[0].sequence, a.last().unwrap().sequence.wrapping_add(1));
    }

    #[test]
    fn frame_bytes_roughly_preserved_on_wire() {
        let mut p = Packetizer::new(7, true);
        let m = meta(0, 30_000);
        let pkts = p.packetize(m, SimTime::ZERO);
        let wire_payload: usize = pkts.iter().map(|p| p.payload.len()).sum();
        // Overhead is bounded: META_LEN per packet.
        assert!(wire_payload >= 30_000);
        assert!(wire_payload <= 30_000 + pkts.len() * META_LEN);
    }
}
