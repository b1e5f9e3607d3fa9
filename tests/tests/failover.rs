//! Failover dedup acceptance: cross-path duplication must never
//! double-count playback, and the repair machinery must stay coherent
//! when a retransmission races a cross-path duplicate.
//!
//! Two layers:
//!
//! * component level — the jitter buffer's first-copy-wins contract and
//!   the NACK generator's classification of an RTX copy that arrives
//!   *after* a duplicate already filled the gap (it must read `Stale`,
//!   not `Recovered`, so repair efficiency is not inflated);
//! * end-to-end — seed-matched multipath runs where every accepted
//!   packet's second copy is discarded exactly once and goodput counts
//!   each sequence number at most once.

use rpav_core::prelude::*;
use rpav_rtp::nack::Arrival;
use rpav_rtp::{JitterBuffer, JitterConfig, NackConfig, NackGenerator, RtpPacket};
use rpav_sim::{SimDuration, SimTime};

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

fn pkt(seq: u16, timestamp: u32) -> RtpPacket {
    RtpPacket {
        marker: false,
        payload_type: 96,
        sequence: seq,
        timestamp,
        ssrc: 0x5EED,
        transport_seq: None,
        payload: bytes::Bytes::from(vec![0u8; 1_200]),
        wire: None,
    }
}

#[test]
fn jitter_buffer_first_copy_wins_across_paths() {
    let mut jb = JitterBuffer::new(JitterConfig::default());
    // The fast leg delivers seq 0..5; the slow leg's copies trail by
    // 30 ms. Every trailing copy must be discarded as a duplicate —
    // whether it arrives while the original is still buffered or after
    // the original was already delivered.
    for seq in 0u16..5 {
        jb.push(ms(u64::from(seq) * 33), pkt(seq, u32::from(seq) * 3_000));
    }
    for seq in 0u16..3 {
        jb.push(
            ms(u64::from(seq) * 33 + 30),
            pkt(seq, u32::from(seq) * 3_000),
        );
    }
    // Drain past the 150 ms target: the first copies play out.
    let mut delivered = Vec::new();
    let mut t = SimTime::ZERO;
    while t < ms(2_000) {
        while let Some((_, p)) = jb.pop_due(t) {
            delivered.push(p.sequence);
        }
        t += SimDuration::from_millis(1);
    }
    assert_eq!(delivered, vec![0, 1, 2, 3, 4]);
    assert_eq!(jb.stats().duplicates, 3);
    // Copies of already-delivered packets are also rejected (delivery
    // watermark, not just the in-queue scan).
    jb.push(ms(2_000), pkt(4, 4 * 3_000));
    assert_eq!(jb.stats().duplicates, 4);
    assert_eq!(jb.stats().delivered, 5);
}

#[test]
fn rtx_copy_after_cross_path_duplicate_reads_stale() {
    let mut gen = NackGenerator::new(NackConfig::default());
    gen.set_rtt_hint(SimDuration::from_millis(40));

    // Seq 0, 1 arrive in order on the active leg; 2 is lost there.
    assert_eq!(gen.on_packet(ms(0), 0), Arrival::InOrder);
    assert_eq!(gen.on_packet(ms(33), 1), Arrival::InOrder);
    // 3 arrives, opening a gap at 2; the generator NACKs it.
    assert_eq!(gen.on_packet(ms(66), 3), Arrival::InOrder);
    let nack = gen.poll(ms(120)).expect("gap must be NACKed");
    assert_eq!(nack.lost, vec![2]);

    // The standby leg's duplicate copy of 2 lands first and fills the
    // gap — it was requested, so it classifies as recovered.
    assert_eq!(gen.on_packet(ms(140), 2), Arrival::Recovered);
    assert_eq!(gen.stats().recovered, 1);

    // The actual RTX answer to the NACK trails in. The gap is gone:
    // the copy must read Stale and must NOT bump the recovered counter
    // (that would double-count the repair).
    assert_eq!(gen.on_packet(ms(180), 2), Arrival::Stale);
    assert_eq!(gen.stats().recovered, 1);

    // And the jitter buffer discards that same RTX copy, so playback
    // never sees the sequence number twice.
    let mut jb = JitterBuffer::new(JitterConfig::default());
    for (t, seq) in [(0u64, 0u16), (33, 1), (66, 3), (140, 2)] {
        jb.push(ms(t), pkt(seq, u32::from(seq) * 3_000));
    }
    let before = jb.stats().pushed;
    jb.push(ms(180), pkt(2, 2 * 3_000));
    assert_eq!(jb.stats().duplicates, 1);
    assert_eq!(jb.stats().pushed, before);
}

/// A short multipath run for the end-to-end accounting checks.
fn mp_run(scheme: MultipathScheme) -> RunMetrics {
    let cfg = ExperimentConfig::builder()
        .cc(CcMode::paper_static(Environment::Rural))
        .seed(0xFA11)
        .hold_secs(1)
        .build();
    Simulation::multipath(cfg, scheme, Vec::new()).run()
}

#[test]
fn duplicate_scheme_discards_second_copies_and_counts_goodput_once() {
    let single = mp_run(MultipathScheme::SinglePath);
    let dup = mp_run(MultipathScheme::Duplicate);

    // Seed-matched static-CC runs encode identically, up to the IDRs
    // each receiver's PLIs forced.
    assert!(dup.media_sent.abs_diff(single.media_sent) * 200 < single.media_sent);
    // Every media packet went out twice...
    assert_eq!(dup.dup_tx_packets, dup.media_sent);
    // ...but goodput counts each sequence number at most once.
    assert!(dup.media_received <= dup.media_sent);
    assert!(
        dup.media_received_bytes <= dup.media_sent * 1_500,
        "goodput double-counted: {} bytes for {} sent",
        dup.media_received_bytes,
        dup.media_sent
    );
    // The discarded copies are visible in the dedup counter: on two
    // mostly-clean rural legs, most packets' second copy survives the
    // wire and is rejected at the receiver.
    assert!(
        dup.duplicate_packets > dup.media_sent / 2,
        "only {} duplicates discarded for {} sent",
        dup.duplicate_packets,
        dup.media_sent
    );
    // Redundancy can only help delivery.
    assert!(dup.media_received >= single.media_received);
}

#[test]
fn selective_duplicate_dedup_accounting_conserves_packets() {
    let sel = mp_run(MultipathScheme::SelectiveDuplicate);
    assert!(sel.dup_tx_packets > 0, "keyframes must be duplicated");
    // Conservation: the dedup counter merges cross-path second copies
    // (at most one per duplicated transmission) with jitter-buffer
    // below-watermark discards (at most one per accepted packet — a
    // fast-leg keyframe copy that plays out can stale-bin originals
    // still queued behind a bufferbloated active leg). Nothing else may
    // feed it.
    assert!(
        sel.duplicate_packets <= sel.dup_tx_packets + sel.media_received,
        "discarded {} duplicates from {} copies + {} accepted",
        sel.duplicate_packets,
        sel.dup_tx_packets,
        sel.media_received
    );
    // Goodput still counts each sequence number at most once.
    assert!(sel.media_received <= sel.media_sent);
}

#[test]
fn ground_failover_cell_flies_the_ground_plan() {
    // The label and cache key of a `…-Grd` cell say ground run; so must
    // the flight.
    let cfg = ExperimentConfig::builder()
        .cc(CcMode::paper_static(Environment::Rural))
        .mobility(Mobility::Ground)
        .seed(0xFA11)
        .hold_secs(1)
        .ground_sweeps(1)
        .build();
    let origin = rpav_uav::Position::ground(0.0, 0.0);
    let ground = rpav_uav::profiles::ground_run(origin, cfg.ground_sweeps, cfg.hold);
    let air = rpav_uav::profiles::paper_flight(origin, cfg.hold);
    assert_ne!(ground.duration(), air.duration());
    let m = Simulation::multipath(cfg, MultipathScheme::Failover, Vec::new()).run();
    assert_eq!(m.duration, ground.duration());
}

#[test]
fn primary_leg_radio_matches_the_single_operator_session() {
    // A leg's radio streams are traffic-independent, so whatever the
    // scheme does on top, leg 0 of a multipath session must hand over and
    // trace exactly like the single-operator session of the same config —
    // under every knob the label carries: mobility and the A3 overrides.
    let base = || {
        ExperimentConfig::builder()
            .environment(Environment::Urban)
            .cc(CcMode::paper_static(Environment::Urban))
            .seed(0xABCD)
            .hold_secs(1)
            .ground_sweeps(1)
    };
    let cells = [
        ("air", base().build()),
        ("ground", base().mobility(Mobility::Ground).build()),
        ("a3", base().hysteresis_db(1.0).ttt_ms(40).build()),
    ];
    for (name, cfg) in cells {
        let single = Simulation::new(cfg).run();
        let multi = Simulation::multipath(cfg, MultipathScheme::SinglePath, Vec::new()).run();
        assert!(!single.radio.is_empty(), "{name}: no radio trace");
        assert_eq!(
            format!("{:?}", multi.handovers),
            format!("{:?}", single.handovers),
            "{name}: leg-0 handovers diverged"
        );
        assert_eq!(
            format!("{:?}", multi.radio),
            format!("{:?}", single.radio),
            "{name}: leg-0 radio trace diverged"
        );
    }
}
