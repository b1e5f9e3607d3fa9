//! Bonded reassembly acceptance: striping a frame across two operators
//! must survive pathological cross-leg skew, races between FEC recovery
//! and retransmission, and a leg dying mid-FEC-group — without
//! double-counting playback or losing determinism.
//!
//! Two layers, mirroring `failover.rs`:
//!
//! * component level — the FEC/NACK/jitter interaction when a parity
//!   recovery and an RTX answer race for the same hole (the trailing
//!   copy must read `Stale`, never `Recovered` twice), and partial
//!   parity emission when the group is cut short;
//! * end-to-end — seed-matched bonded runs with one leg 250 ms slower
//!   than the other, and with a leg blacking out mid-flight while the
//!   adaptive FEC layer is armed.

use rpav_core::prelude::*;
use rpav_netem::FaultScript;
use rpav_rtp::fec::{rs_recover, RsGroup};
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
        payload: bytes::Bytes::from(vec![seq as u8; 1_200]),
        wire: None,
    }
}

fn bonded_cfg(seed: u64) -> ExperimentConfigBuilder {
    ExperimentConfig::builder()
        .cc(CcMode::paper_static(Environment::Rural))
        .seed(seed)
        .hold_secs(2)
}

// ---------------------------------------------------------------------
// Component level
// ---------------------------------------------------------------------

#[test]
fn rtx_copy_after_fec_recovery_reads_stale() {
    // Sender side: a 4-packet group, one member lost on the wire.
    let mut group = RsGroup::new();
    let members: Vec<RtpPacket> = (0u16..4).map(|s| pkt(s, u32::from(s) * 3_000)).collect();
    for p in &members {
        assert!(group.push(p, 1));
    }
    let parity = group.build().pop().expect("non-empty group");

    // Receiver side: 0, 2, 3 arrive; 1 is the hole. The gap is detected
    // and NACKed before the parity lands.
    let mut gen = NackGenerator::new(NackConfig::default());
    gen.set_rtt_hint(SimDuration::from_millis(40));
    assert_eq!(gen.on_packet(ms(0), 0), Arrival::InOrder);
    assert_eq!(gen.on_packet(ms(3), 2), Arrival::InOrder);
    assert_eq!(gen.on_packet(ms(4), 3), Arrival::InOrder);
    let nack = gen.poll(ms(10)).expect("hole must be NACKed");
    assert_eq!(nack.lost, vec![1]);

    // The parity beats the RTX: exactly one member missing, so recovery
    // yields the original bytes, and the recovered arrival cancels the
    // chase as `Recovered` (it was requested).
    let survivors: Vec<&RtpPacket> = members.iter().filter(|p| p.sequence != 1).collect();
    let rec = rs_recover(&[&parity], survivors.iter().copied(), 0)
        .and_then(|mut r| r.pop())
        .expect("one hole is recoverable");
    assert_eq!(rec.sequence, 1);
    assert_eq!(rec.payload, members[1].payload);
    assert_eq!(rec.timestamp, members[1].timestamp);
    assert_eq!(gen.on_packet(ms(30), rec.sequence), Arrival::Recovered);
    assert_eq!(gen.stats().recovered, 1);

    // The RTX answer trails in: the hole is gone, the copy must read
    // Stale and must NOT bump the recovered counter again.
    assert_eq!(gen.on_packet(ms(60), 1), Arrival::Stale);
    assert_eq!(gen.stats().recovered, 1);

    // The jitter buffer likewise keeps the FEC copy and discards the RTX.
    let mut jb = JitterBuffer::new(JitterConfig::default());
    for p in &survivors {
        jb.push(ms(5), (*p).clone());
    }
    jb.push(ms(30), rec);
    let before = jb.stats().pushed;
    jb.push(ms(60), pkt(1, 3_000));
    assert_eq!(jb.stats().duplicates, 1);
    assert_eq!(jb.stats().pushed, before);
}

#[test]
fn fec_hold_lets_parity_cancel_the_nack_entirely() {
    // With the bonded FEC hold configured, a hole repaired by parity
    // inside the hold never costs a NACK at all — the retransmission
    // path only chases holes FEC missed.
    let mut gen = NackGenerator::new(NackConfig {
        initial_hold: SimDuration::from_millis(40),
        ..Default::default()
    });
    gen.set_rtt_hint(SimDuration::from_millis(40));
    gen.on_packet(ms(0), 0);
    gen.on_packet(ms(3), 2); // hole at 1, held until t=43 ms
    assert!(gen.poll(ms(10)).is_none(), "hold must suppress the NACK");
    assert_eq!(gen.on_packet(ms(20), 1), Arrival::Reordered);
    assert!(gen.poll(ms(50)).is_none());
    assert_eq!(gen.stats().nacks_sent, 0);
}

#[test]
fn partial_group_parity_recovers_after_group_cut_short() {
    // A leg dies mid-group: the sender flushes the partial group (2 of a
    // planned 4 members). The short parity must still cover — and
    // recover — its actual members.
    let mut group = RsGroup::new();
    let members: Vec<RtpPacket> = (10u16..12).map(|s| pkt(s, u32::from(s) * 3_000)).collect();
    for p in &members {
        group.push(p, 1);
    }
    let parity = group.build().pop().expect("partial group still builds");
    assert!(parity.covers(10) && parity.covers(11) && !parity.covers(12));
    let rec = rs_recover(&[&parity], members[..1].iter(), 0)
        .and_then(|mut r| r.pop())
        .expect("one of two recoverable");
    assert_eq!(rec.sequence, 11);
    assert_eq!(rec.payload, members[1].payload);
    // The accumulator reset: the next group starts clean.
    assert!(group.is_empty());
}

// ---------------------------------------------------------------------
// End-to-end
// ---------------------------------------------------------------------

/// One leg 250 ms slower than the other for the whole flight — cross-leg
/// skew far past the jitter target, the pathological case for striped
/// delivery.
fn skew_250ms() -> FaultScript {
    FaultScript::new().delay_spike(
        SimTime::ZERO,
        SimDuration::from_secs(120),
        SimDuration::from_millis(250),
    )
}

#[test]
fn bonded_reassembly_survives_250ms_slower_leg() {
    let cfg = bonded_cfg(0xB0DE).build();
    let m =
        Simulation::multipath(cfg, MultipathScheme::Bonded, vec![None, Some(skew_250ms())]).run();

    // Both legs carried traffic despite the skew...
    let share0 = m.leg_tx_share(0);
    assert!(
        (0.05..=0.95).contains(&share0),
        "scheduler abandoned a leg (leg0 share {share0:.2})"
    );
    // ...and the slow leg's arrivals landed behind the fast leg's head
    // of line: the reassembly window absorbed real cross-leg reordering.
    assert!(
        m.reorder_buffered > 0,
        "250 ms skew produced no reordered arrivals"
    );
    // Playback stayed intact: frames reached the player and displayed.
    let displayed = m.frames.iter().filter(|f| f.displayed).count();
    assert!(
        displayed > 0,
        "no frame displayed under skew ({} received)",
        m.media_received
    );
    assert!(m.media_received > 0);

    // Byte-identical replay: the reorder machinery holds determinism.
    let replay =
        Simulation::multipath(cfg, MultipathScheme::Bonded, vec![None, Some(skew_250ms())]).run();
    assert_eq!(replay.to_bytes(), m.to_bytes(), "skewed run not replayable");
}

#[test]
fn fec_survives_leg_death_mid_group() {
    // The secondary operator dies mid-flight while the adaptive FEC
    // layer is armed: groups in flight at the death span a leg that will
    // never deliver again. The sender must keep emitting parity on the
    // survivor, nothing may panic, and the run must stay deterministic.
    let blackout = || FaultScript::new().blackout(ms(8_000), SimDuration::from_secs(60));
    let cfg = bonded_cfg(0xFEC).fec_cap(0.25).repair(true).build();
    let m = Simulation::multipath(cfg, MultipathScheme::Bonded, vec![None, Some(blackout())]).run();

    assert!(m.fec_tx > 0, "parity never emitted before/after leg death");
    // After the death the scheduler concentrated on the surviving leg.
    let share0 = m.leg_tx_share(0);
    assert!(
        share0 > 0.5,
        "surviving leg carried only {share0:.2} of media"
    );
    let displayed = m.frames.iter().filter(|f| f.displayed).count();
    assert!(displayed > 0, "playback died with the leg");

    let replay =
        Simulation::multipath(cfg, MultipathScheme::Bonded, vec![None, Some(blackout())]).run();
    assert_eq!(
        replay.to_bytes(),
        m.to_bytes(),
        "leg-death run not replayable"
    );
}
