//! Cross-crate wire-format interop: the sender-side crates and the
//! receiver-side crates only meet through serialised bytes crossing the
//! emulated network — these tests exercise those seams directly.

use rpav_netem::{GilbertElliott, Packet, PacketKind, Path};
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::packetize::{Depacketizer, FrameMeta, Packetizer};
use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Packet};
use rpav_rtp::twcc::{TwccFeedback, TwccRecorder};
use rpav_sim::{RngSet, SimDuration, SimTime};

fn path(rate_bps: f64, loss: f64, seed: u64) -> Path {
    let rngs = RngSet::new(seed);
    Path::new(
        GilbertElliott::new(0.0, 1.0, loss, 0.0),
        rngs.stream("fault"),
        rate_bps,
        SimDuration::from_millis(5),
        usize::MAX,
        SimDuration::from_millis(12),
        SimDuration::from_micros(500),
        rngs.stream("wan"),
    )
}

/// Frames → RTP → wire bytes → lossy path → parse → jitter buffer →
/// depacketizer → frames, with loss accounting consistent end to end.
#[test]
fn video_over_lossy_path_roundtrip() {
    let mut packetizer = Packetizer::new(2, true);
    let mut path = path(20e6, 0.02, 42);
    let mut jitter = JitterBuffer::new(JitterConfig::default());
    let mut depack = Depacketizer::new();

    let mut sent_packets = 0u64;
    let mut t = SimTime::ZERO;
    let n_frames = 90u64;
    for n in 0..n_frames {
        t = SimTime::from_micros(n * 33_333);
        let meta = FrameMeta {
            frame_number: n,
            encode_time: t,
            keyframe: n % 30 == 0,
            frame_bytes: 8_000,
        };
        for rtp in packetizer.packetize(meta, t) {
            sent_packets += 1;
            let wire = rtp.serialize();
            path.enqueue(t, Packet::new(sent_packets, wire, PacketKind::Media, t));
        }
    }
    // Drain the path and feed the receiver.
    let horizon = t + SimDuration::from_secs(5);
    let mut now = SimTime::ZERO;
    let mut received = 0u64;
    while now < horizon {
        while let Some(p) = path.poll(now) {
            let rtp = RtpPacket::parse(p.payload).expect("wire-valid RTP");
            received += 1;
            jitter.push(now, rtp);
        }
        while let Some((playout, rtp)) = jitter.pop_due(now) {
            depack.push(&rtp, playout);
        }
        now += SimDuration::from_millis(5);
    }
    let frames = depack.drain(u64::MAX);
    assert_eq!(frames.len() as u64, n_frames, "every frame must surface");
    let complete = frames.iter().filter(|f| f.is_complete()).count();
    assert!(
        complete >= 60,
        "only {complete}/90 frames complete at 2% loss"
    );
    assert!(complete < 90, "2% loss should damage some frames");
    // Conservation: received + baseline drops == sent.
    let dropped = path.baseline_drops();
    assert_eq!(received + dropped, sent_packets);
}

/// GCC's TWCC feedback survives its own wire format over a path and the
/// reconstructed arrival times match what the receiver recorded.
#[test]
fn twcc_feedback_over_network() {
    let mut rec = TwccRecorder::new();
    let mut arrivals = Vec::new();
    for i in 0..500u16 {
        let at = SimTime::from_micros(1_000_000 + i as u64 * 700);
        if i % 37 != 0 {
            rec.on_packet(i, at);
            arrivals.push((i, at));
        }
    }
    let fb = rec.build_feedback().unwrap();
    let mut path = path(10e6, 0.0, 7);
    let t0 = SimTime::from_secs(2);
    path.enqueue(t0, Packet::new(1, fb.serialize(), PacketKind::Feedback, t0));
    let mut got = None;
    let mut now = t0;
    while got.is_none() && now < t0 + SimDuration::from_secs(1) {
        if let Some(p) = path.poll(now) {
            got = TwccFeedback::parse(p.payload).ok();
        }
        now += SimDuration::from_millis(1);
    }
    let parsed = got.expect("feedback must arrive and parse");
    let mut matched = 0;
    let mut total_err = 0i64;
    for (seq, want) in arrivals {
        let idx = seq.wrapping_sub(parsed.base_seq) as usize;
        if let Some(arrival) = parsed.arrival_time(idx) {
            let err = arrival.as_micros() as i64 - want.as_micros() as i64;
            // Deltas are 250 µs-quantised; the encoder accumulates the
            // quantised reconstruction, so the error never drifts past one
            // tick.
            assert!(err.abs() <= 250, "seq {seq}: err {err} µs");
            total_err += err;
            matched += 1;
        }
    }
    assert!(
        (total_err / matched.max(1)).abs() <= 250,
        "systematic bias: {} µs avg",
        total_err / matched.max(1)
    );
    assert!(matched > 450);
    // Lost packets are reported as such.
    let lost = parsed.packets().filter(|(_, a)| a.is_none()).count();
    assert!(lost >= 13, "expected the %37 holes, saw {lost}");
}

/// RFC 8888 feedback across the network keeps the bounded span: the first
/// report never reaches further back than `max_reports`.
#[test]
fn rfc8888_span_preserved_over_wire() {
    let mut builder = Rfc8888Builder::new(64);
    for i in 0..1_000u16 {
        builder.on_packet(i, SimTime::from_micros(i as u64 * 300));
    }
    let fb = builder.build(SimTime::from_millis(400)).unwrap();
    let parsed = Rfc8888Packet::parse(fb.serialize()).unwrap();
    assert_eq!(parsed.reports.len(), 64);
    assert_eq!(parsed.reports.first().unwrap().seq, 1_000 - 64);
    assert_eq!(parsed.reports.last().unwrap().seq, 999);
}

/// Regression corpus for the hardened wire parsers: every historically
/// interesting malformed shape maps to a typed `ParseError` — never a
/// panic, never a bogus `Ok`. The randomized complement lives in
/// `parser_fuzz.rs`; this corpus pins the exact shapes so a parser
/// regression names the case that broke.
#[test]
fn malformed_wire_regression_corpus() {
    use bytes::Bytes;
    use rpav_rtp::error::ParseError;
    use rpav_rtp::nack::Nack;
    use rpav_rtp::pli::Pli;

    // -- Truncations: empty, sub-header, and one-byte-short-of-valid.
    assert!(matches!(
        RtpPacket::parse(Bytes::from(&[][..])),
        Err(ParseError::Truncated {
            needed: 12,
            have: 0
        })
    ));
    let rtp = RtpPacket {
        marker: true,
        payload_type: 96,
        sequence: 7,
        timestamp: 90_000,
        ssrc: 2,
        transport_seq: Some(9),
        payload: Bytes::from(&[1u8, 2, 3][..]),
        wire: None,
    };
    let wire = rtp.serialize();
    for len in 0..wire.len() {
        let r = RtpPacket::parse(Bytes::from(&wire[..len]));
        assert!(
            r != Ok(rtp.clone()),
            "truncation at {len} still produced the full packet"
        );
    }
    assert_eq!(RtpPacket::parse(wire.clone()), Ok(rtp.clone()));

    // -- Version field: RTP/RTCP version must be 2.
    let mut bad = wire.to_vec();
    bad[0] &= 0x3f; // version 0
    assert!(matches!(
        RtpPacket::parse(Bytes::from(bad)),
        Err(ParseError::BadVersion { version: 0 })
    ));

    // -- RTCP dialect demultiplexing on the shared feedback stream: each
    //    parser rejects the other dialects as WrongPacketType, which is a
    //    routing outcome, not wire damage.
    let pli = Pli {
        sender_ssrc: 1,
        media_ssrc: 2,
    }
    .serialize();
    // Losses >16 apart force one FCI entry each, keeping the packet
    // long enough that the other dialects reject it on type, not length.
    let nack = Nack {
        sender_ssrc: 1,
        media_ssrc: 2,
        lost: vec![5, 100, 200],
    }
    .serialize();
    assert!(matches!(
        Nack::parse(pli.clone()),
        Err(ParseError::WrongPacketType { .. })
    ));
    assert!(matches!(
        Pli::parse(nack.clone()),
        Err(ParseError::WrongPacketType { .. })
    ));
    assert!(matches!(
        TwccFeedback::parse(nack.clone()),
        Err(ParseError::WrongPacketType { .. })
    ));
    assert!(matches!(
        Rfc8888Packet::parse(nack.clone()),
        Err(ParseError::WrongPacketType { .. })
    ));
    // And the right dialect still parses after the cross-checks.
    assert!(Pli::parse(pli).is_ok());
    assert_eq!(Nack::parse(nack).unwrap().lost, vec![5, 100, 200]);

    // -- Structural damage: a NACK whose FCI list is not a whole number
    //    of (PID, BLP) words.
    let mut ragged = Nack {
        sender_ssrc: 1,
        media_ssrc: 2,
        lost: vec![5],
    }
    .serialize()
    .to_vec();
    ragged.extend_from_slice(&[0xAA, 0xBB]);
    assert!(matches!(
        Nack::parse(Bytes::from(ragged)),
        Err(ParseError::Malformed { .. })
    ));

    // -- Payload metadata: zero fragment count and index ≥ count are
    //    structurally impossible and must be rejected.
    use rpav_rtp::packetize::{decode_meta, META_LEN};
    let mut zero_count = vec![0u8; META_LEN];
    assert!(matches!(
        decode_meta(Bytes::from(zero_count.clone())),
        Err(ParseError::Malformed {
            reason: "zero fragment count"
        })
    ));
    zero_count[META_LEN - 4..].copy_from_slice(&[0, 3, 0, 3]); // index 3, count 3
    assert!(matches!(
        decode_meta(Bytes::from(zero_count)),
        Err(ParseError::Malformed {
            reason: "fragment index beyond count"
        })
    ));

    // -- Trailing padding beyond a valid PLI must not break parsing (RTCP
    //    compound-packet slack).
    let mut padded = Pli {
        sender_ssrc: 3,
        media_ssrc: 4,
    }
    .serialize()
    .to_vec();
    padded.extend_from_slice(&[0, 0, 0, 0]);
    assert_eq!(
        Pli::parse(Bytes::from(padded)),
        Ok(Pli {
            sender_ssrc: 3,
            media_ssrc: 4,
        })
    );
}
