//! Wire-parser fuzz suite: every parser in `rpav-rtp` is a total
//! function — any byte string maps to `Ok` or a typed `ParseError`,
//! never a panic.
//!
//! Each parser gets ≥10 000 adversarial inputs from three generators:
//!
//! * random byte strings of random length (including empty);
//! * truncations of a freshly serialised valid packet at every prefix
//!   length (cycled until the case budget is spent);
//! * single-bit flips of a valid packet at random bit positions.
//!
//! All randomness comes from the deterministic `SimRng`, so a failure
//! reproduces exactly. The vendored proptest shim caps its own case
//! count far below 10 000, so these are plain loops, not proptest
//! strategies.

use bytes::{BufMut, Bytes, BytesMut};
use rpav_rtp::nack::Nack;
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::packetize::{decode_meta, FrameMeta, META_LEN};
use rpav_rtp::pli::Pli;
use rpav_rtp::report::{PathReport, MAX_REPORT_LEG};
use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Packet};
use rpav_rtp::twcc::{TwccFeedback, TwccRecorder};
use rpav_sim::{SimRng, SimTime};

/// Adversarial cases per parser (the acceptance floor is 10 000).
const CASES: usize = 12_000;

/// Hammer one parser with the three generators. `valid` must return a
/// wire-format byte string the parser accepts; `parse` returns whether
/// the input parsed (the return value only feeds the sanity tallies).
fn hammer(
    name: &str,
    seed: u64,
    mut valid: impl FnMut(&mut SimRng) -> Bytes,
    parse: impl Fn(Bytes) -> bool,
) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ok = 0u64;
    let mut err = 0u64;
    let mut tally = |parsed: bool| if parsed { ok += 1 } else { err += 1 };

    // 1) Pure noise: random bytes, random length.
    for _ in 0..CASES / 3 {
        tally(parse(random_payload(&mut rng, 96)));
    }

    // 2) Every truncation of a valid packet, cycling fresh packets until
    //    the budget is spent. The full-length prefix must parse.
    let mut spent = 0;
    while spent < CASES / 3 {
        let wire = valid(&mut rng);
        for len in 0..=wire.len() {
            tally(parse(Bytes::from(&wire[..len])));
            spent += 1;
        }
        assert!(
            parse(wire),
            "{name}: freshly serialised valid packet failed to parse"
        );
    }

    // 3) Single-bit flips of a valid packet.
    for _ in 0..CASES / 3 {
        let wire = valid(&mut rng);
        let mut bytes = wire.to_vec();
        let bit = rng.uniform_u64(0, bytes.len() as u64 * 8);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        tally(parse(Bytes::from(bytes)));
    }

    // Sanity: the suite exercised both outcomes — a fuzz run where
    // nothing ever parses (or nothing ever fails) is testing the
    // generators, not the parser.
    assert!(ok > 0, "{name}: no generated input ever parsed");
    assert!(err > 0, "{name}: no generated input was ever rejected");
}

fn random_payload(rng: &mut SimRng, max: u64) -> Bytes {
    let len = rng.uniform_u64(0, max) as usize;
    let mut b = BytesMut::with_capacity(len);
    for _ in 0..len {
        b.put_u8(rng.uniform_u64(0, 256) as u8);
    }
    b.freeze()
}

fn valid_rtp(rng: &mut SimRng) -> RtpPacket {
    RtpPacket {
        marker: rng.chance(0.5),
        payload_type: rng.uniform_u64(0, 128) as u8,
        sequence: rng.uniform_u64(0, 65_536) as u16,
        timestamp: rng.uniform_u64(0, u32::MAX as u64 + 1) as u32,
        ssrc: rng.uniform_u64(0, u32::MAX as u64 + 1) as u32,
        transport_seq: if rng.chance(0.5) {
            Some(rng.uniform_u64(0, 65_536) as u16)
        } else {
            None
        },
        payload: random_payload(rng, 48),
        wire: None,
    }
}

#[test]
fn rtp_packet_parse_is_total() {
    hammer(
        "RtpPacket",
        0xF0001,
        |rng| valid_rtp(rng).serialize(),
        |b| RtpPacket::parse(b).is_ok(),
    );
}

#[test]
fn rtp_roundtrip_is_lossless() {
    let mut rng = SimRng::seed_from_u64(0xF0002);
    for _ in 0..CASES {
        let pkt = valid_rtp(&mut rng);
        let back = RtpPacket::parse(pkt.serialize()).expect("roundtrip");
        assert_eq!(back, pkt);
    }
}

fn valid_twcc(rng: &mut SimRng) -> Bytes {
    let mut rec = TwccRecorder::new();
    let base = rng.uniform_u64(0, 65_536) as u16;
    let n = rng.uniform_u64(1, 40) as u16;
    // Keep the base inside TWCC's 24-bit × 64 ms reference-time
    // range (~12 days) so the serialised packet is wire-valid.
    let mut at = SimTime::from_micros(rng.uniform_u64(0, 1 << 39));
    for i in 0..n {
        if rng.chance(0.8) {
            rec.on_packet(base.wrapping_add(i), at);
        }
        at += rpav_sim::SimDuration::from_micros(rng.uniform_u64(0, 5_000));
    }
    rec.on_packet(base.wrapping_add(n), at);
    rec.build_feedback()
        .expect("non-empty recorder")
        .serialize()
}

fn valid_ccfb(rng: &mut SimRng) -> Bytes {
    let mut builder = Rfc8888Builder::new(rng.uniform_u64(1, 64) as usize);
    let base = rng.uniform_u64(0, 65_536) as u16;
    let n = rng.uniform_u64(1, 80) as u16;
    for i in 0..n {
        if rng.chance(0.8) {
            builder.on_packet(base.wrapping_add(i), SimTime::from_micros(i as u64 * 300));
        }
    }
    builder.on_packet(base.wrapping_add(n), SimTime::from_micros(n as u64 * 300));
    builder
        .build(SimTime::from_micros(n as u64 * 300 + 1_000))
        .expect("non-empty builder")
        .serialize()
}

fn valid_pli(rng: &mut SimRng) -> Bytes {
    Pli {
        sender_ssrc: rng.uniform_u64(0, u32::MAX as u64 + 1) as u32,
        media_ssrc: rng.uniform_u64(0, u32::MAX as u64 + 1) as u32,
    }
    .serialize()
}

fn valid_nack(rng: &mut SimRng) -> Bytes {
    let base = rng.uniform_u64(0, 65_536) as u16;
    let n = rng.uniform_u64(1, 20);
    let mut lost: Vec<u16> = Vec::new();
    let mut seq = base;
    for _ in 0..n {
        seq = seq.wrapping_add(rng.uniform_u64(1, 30) as u16);
        lost.push(seq);
    }
    Nack {
        sender_ssrc: rng.uniform_u64(0, u32::MAX as u64 + 1) as u32,
        media_ssrc: rng.uniform_u64(0, u32::MAX as u64 + 1) as u32,
        lost,
    }
    .serialize()
}

fn valid_path_report(rng: &mut SimRng) -> Bytes {
    PathReport {
        leg: rng.uniform_u64(0, MAX_REPORT_LEG as u64 + 1) as u8,
        highest_seq: rng.uniform_u64(0, u64::MAX),
        received: rng.uniform_u64(0, u64::MAX),
        received_bytes: rng.uniform_u64(0, u64::MAX),
        newest_owd_us: rng.uniform_u64(0, u32::MAX as u64 + 1) as u32,
    }
    .serialize()
}

#[test]
fn twcc_parse_is_total() {
    let parse = |b| TwccFeedback::parse(b).is_ok();
    hammer("TwccFeedback", 0xF0003, valid_twcc, parse);
}

#[test]
fn rfc8888_parse_is_total() {
    let parse = |b| Rfc8888Packet::parse(b).is_ok();
    hammer("Rfc8888Packet", 0xF0004, valid_ccfb, parse);
}

#[test]
fn pli_parse_is_total() {
    hammer("Pli", 0xF0005, valid_pli, |b| Pli::parse(b).is_ok());
}

#[test]
fn nack_parse_is_total() {
    hammer("Nack", 0xF0006, valid_nack, |b| Nack::parse(b).is_ok());
}

#[test]
fn path_report_parse_is_total() {
    let parse = |b| PathReport::parse(b).is_ok();
    hammer("PathReport", 0xF0008, valid_path_report, parse);
}

/// The five feedback dialects share one RTCP stream and the receiver
/// simply tries their parsers; that is order-free only because no byte
/// string is accepted by two of them. Each valid packet must be its own
/// dialect's alone, and no damage — a flipped bit, another dialect's
/// first two bytes grafted on, noise — may produce a packet two parsers
/// take.
#[test]
fn no_byte_string_is_accepted_by_two_feedback_parsers() {
    type Dialect = (&'static str, fn(&mut SimRng) -> Bytes, fn(Bytes) -> bool);
    let dialects: [Dialect; 5] = [
        ("TWCC", valid_twcc, |b| TwccFeedback::parse(b).is_ok()),
        ("CCFB", valid_ccfb, |b| Rfc8888Packet::parse(b).is_ok()),
        ("PLI", valid_pli, |b| Pli::parse(b).is_ok()),
        ("NACK", valid_nack, |b| Nack::parse(b).is_ok()),
        ("report", valid_path_report, |b| {
            PathReport::parse(b).is_ok()
        }),
    ];
    let accepted_by = |b: &[u8]| -> Vec<&str> {
        let takes = |d: &&Dialect| d.2(Bytes::from(b));
        dialects.iter().filter(takes).map(|d| d.0).collect()
    };
    let mut rng = SimRng::seed_from_u64(0xF0009);
    for case in 0..CASES {
        let (name, valid, _) = dialects[case % 5];
        let mut wire = valid(&mut rng).to_vec();
        assert_eq!(accepted_by(&wire), [name]);
        match case % 3 {
            // A single-bit flip, half of them inside the 12-byte header.
            0 => {
                let span = if rng.chance(0.5) { 12 } else { wire.len() };
                let bit = rng.uniform_u64(0, span as u64 * 8);
                wire[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            // Another dialect's FMT and PT over this one's body.
            1 => {
                let donor = dialects[rng.uniform_u64(0, 5) as usize].1(&mut rng);
                wire[..2].copy_from_slice(&donor[..2]);
            }
            // Noise behind a plausible version / FMT / PT.
            _ => {
                wire = random_payload(&mut rng, 96).to_vec();
                if wire.len() >= 2 {
                    wire[0] = (2 << 6) | rng.uniform_u64(0, 32) as u8;
                    wire[1] = 205 + rng.uniform_u64(0, 2) as u8;
                }
            }
        }
        let takers = accepted_by(&wire);
        assert!(takers.len() <= 1, "{takers:?} all accept {wire:02x?}");
    }
}

#[test]
fn decode_meta_is_total() {
    hammer(
        "decode_meta",
        0xF0007,
        |rng| {
            // Hand-rolled valid payload header (the crate's encoder is
            // private): frame_number, encode µs, keyframe, frame_bytes,
            // frag_index < frag_count, then filler.
            let count = rng.uniform_u64(1, 64) as u16;
            let index = rng.uniform_u64(0, count as u64) as u16;
            let mut b = BytesMut::with_capacity(META_LEN + 16);
            b.put_u64(rng.uniform_u64(0, 1 << 48));
            b.put_u64(rng.uniform_u64(0, 1 << 48));
            b.put_u8(rng.chance(0.1) as u8);
            b.put_u32(rng.uniform_u64(0, 1 << 24) as u32);
            b.put_u16(index);
            b.put_u16(count);
            b.resize(META_LEN + rng.uniform_u64(0, 16) as usize, 0xAB);
            b.freeze()
        },
        |b| decode_meta(b).is_ok(),
    );
}

/// The wire decode must invert the hand-rolled encoding above — guards
/// against the fuzz generator drifting out of sync with `META_LEN`.
#[test]
fn decode_meta_roundtrips_fields() {
    let meta = FrameMeta {
        frame_number: 77,
        encode_time: SimTime::from_micros(123_456),
        keyframe: true,
        frame_bytes: 9_000,
    };
    let mut b = BytesMut::new();
    b.put_u64(meta.frame_number);
    b.put_u64(meta.encode_time.as_micros());
    b.put_u8(meta.keyframe as u8);
    b.put_u32(meta.frame_bytes);
    b.put_u16(3);
    b.put_u16(7);
    b.resize(META_LEN + 10, 0xAB);
    let (got, idx, count) = decode_meta(b.freeze()).unwrap();
    assert_eq!(got, meta);
    assert_eq!((idx, count), (3, 7));
}
