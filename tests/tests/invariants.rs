//! Property-based invariants across crate boundaries: conservation,
//! ordering and monotonicity statements that must hold for *any* input,
//! not just the calibrated scenarios.

use bytes::Bytes;
use proptest::prelude::*;
use rpav_lte::channel;
use rpav_netem::{GilbertElliott, Packet, PacketKind, Path};
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::packet::RtpPacket;
use rpav_sim::{SimDuration, SimTime};
use rpav_video::{encode_ssim, Encoder, EncoderConfig, SourceVideo};

fn media_packet(seq: u64, bytes: usize) -> Packet {
    Packet::new(
        seq,
        Bytes::from(vec![0u8; bytes]),
        PacketKind::Media,
        SimTime::ZERO,
    )
}

proptest! {
    /// A lossless path conserves packets and preserves FIFO order through
    /// its bottleneck for any arrival pattern, rate schedule and pause.
    #[test]
    fn bottleneck_conserves_and_orders(
        arrivals in proptest::collection::vec((0u64..2_000_000, 200usize..1_400), 1..120),
        rate_khz in 1u64..50_000,
        pause_ms in 0u64..2_000,
        wan_jitter_us in 0u64..5_000,
    ) {
        let rngs = rpav_sim::RngSet::new(rate_khz ^ pause_ms);
        let mut link = Path::new(
            GilbertElliott::off(),
            rngs.stream("fault"),
            rate_khz as f64 * 1_000.0,
            SimDuration::from_millis(5),
            usize::MAX,
            SimDuration::from_millis(10),
            SimDuration::from_micros(wan_jitter_us),
            rngs.stream("wan"),
        );
        let mut times: Vec<u64> = arrivals.iter().map(|(t, _)| *t).collect();
        times.sort_unstable();
        let mut accepted = 0u64;
        for (i, ((_, size), t)) in arrivals.iter().zip(times.iter()).enumerate() {
            let now = SimTime::from_micros(*t);
            if i == arrivals.len() / 2 && pause_ms > 0 {
                link.pause_until(now, now + SimDuration::from_millis(pause_ms));
            }
            prop_assert!(link.enqueue(now, media_packet(i as u64, *size)));
            accepted += 1;
        }
        // Drain far in the future.
        let horizon = SimTime::from_secs(3_600);
        let mut got = Vec::new();
        while let Some(p) = link.poll(horizon) {
            got.push(p.seq);
        }
        prop_assert_eq!(got.len() as u64, accepted, "packets lost or duplicated");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        prop_assert_eq!(got, sorted, "FIFO violated");
    }

    /// The jitter buffer never delivers a packet before its buffering
    /// target, never duplicates, and always releases everything eventually.
    #[test]
    fn jitter_buffer_release_invariants(
        deliveries in proptest::collection::vec((0u64..5_000, 0u16..200), 1..150),
    ) {
        let mut jb = JitterBuffer::new(JitterConfig::default());
        let mut unique = std::collections::HashSet::new();
        for (arrive_ms, seq) in &deliveries {
            unique.insert(*seq);
            jb.push(
                SimTime::from_millis(*arrive_ms),
                RtpPacket {
                    marker: false,
                    payload_type: 96,
                    sequence: *seq,
                    timestamp: *seq as u32 * 3_000,
                    ssrc: 1,
                    transport_seq: None,
                    payload: Bytes::from_static(b"x"),
                    wire: None,
                },
            );
        }
        let horizon = SimTime::from_secs(7_200);
        let mut seen = std::collections::HashSet::new();
        let mut last_playout = SimTime::ZERO;
        while let Some((playout, p)) = jb.pop_due(horizon) {
            prop_assert!(playout >= last_playout, "playout time went backwards");
            last_playout = playout;
            prop_assert!(seen.insert(p.sequence), "duplicate delivered: {}", p.sequence);
        }
        // Everything unique was either delivered or (only in
        // drop-on-latency mode, which is off here) dropped.
        prop_assert_eq!(seen.len(), unique.len());
    }

    /// The SINR → throughput mapping and the HARQ-delay model are monotone
    /// in SINR — a better channel never yields less capacity or more delay.
    #[test]
    fn radio_mappings_monotone(sinrs in proptest::collection::vec(-30.0f64..40.0, 2..50)) {
        let mut s = sinrs.clone();
        s.sort_by(|a, b| a.total_cmp(b));
        let params = rpav_lte::NetworkProfile::new(
            rpav_lte::Environment::Urban,
            rpav_lte::Operator::P1,
        )
        .channel;
        let mut last_thr = -1.0f64;
        let mut last_delay = SimDuration::MAX;
        for sinr in s {
            let thr = channel::uplink_throughput_bps(&params, sinr);
            prop_assert!(thr >= last_thr, "throughput not monotone at {sinr} dB");
            last_thr = thr;
            let d = channel::harq_delay(sinr);
            prop_assert!(d <= last_delay, "HARQ delay not monotone at {sinr} dB");
            last_delay = d;
        }
    }

    /// The encoder's long-run output rate tracks any (positive) target,
    /// and SSIM is monotone in the spent bits.
    #[test]
    fn encoder_rate_tracking(target_mbps in 1u32..40) {
        let target = target_mbps as f64 * 1e6;
        let mut enc = Encoder::new(EncoderConfig::default(), SourceVideo::new(5), target);
        let mut bits = 0.0;
        let mut t = SimTime::ZERO;
        let secs = 20u64;
        while t < SimTime::from_secs(secs) {
            if let Some(f) = enc.poll(t) {
                bits += f.meta.frame_bytes as f64 * 8.0;
            }
            t += SimDuration::from_millis(5);
        }
        let rate = bits / secs as f64;
        prop_assert!(
            (rate - target).abs() < 0.2 * target,
            "target {target:.1e} produced {rate:.1e}"
        );
    }

    /// SSIM responds monotonically to bitrate at any complexity.
    #[test]
    fn ssim_monotone_in_bits(complexity in 0.5f64..1.6) {
        let mut last = -1.0;
        for kb in (10u32..3_000).step_by(50) {
            let q = encode_ssim(kb * 1_000, complexity);
            prop_assert!(q >= last);
            prop_assert!((0.0..=1.0).contains(&q));
            last = q;
        }
    }
}

// ---------------------------------------------------------------------
// Parser-hardening counter deltas: the pipeline's wire parsers are total
// functions whose failures land in typed counters instead of silent
// drops (or panics). These are plain deterministic runs, not proptest —
// the full-pipeline cases are too slow for per-case shrinking.

mod hostile_wire {
    use rpav_core::prelude::*;
    use rpav_netem::{FaultScript, PacketKind};
    use rpav_sim::{SimDuration, SimTime};

    fn cfg(repair: bool) -> ExperimentConfig {
        ExperimentConfig::builder()
            .environment(rpav_lte::Environment::Urban)
            .cc(CcMode::Gcc)
            .seed(0x3AD_51DE)
            .hold_secs(1)
            .repair(repair)
            .build()
    }

    /// Valid traffic leaves every damage counter at zero: hardening the
    /// parsers changed error handling, not the happy path.
    #[test]
    fn clean_wire_keeps_damage_counters_zero() {
        let m = Simulation::new(cfg(false)).run();
        assert_eq!(m.malformed_packets, 0);
        assert_eq!(m.malformed_payloads, 0);
        assert_eq!(m.corrupted_arrivals, 0);
        assert_eq!(m.duplicate_packets, 0);
        assert!(m.frames.iter().any(|f| f.displayed));
    }

    /// Bit-corruption and duplication on the wire surface as counter
    /// deltas while the run itself survives to keep displaying frames.
    #[test]
    fn hostile_wire_lands_in_counters_not_panics() {
        let script = FaultScript::new()
            .corrupt_window(
                SimTime::from_secs(10),
                SimDuration::from_secs(60),
                0.05,
                None,
            )
            .duplicate_window(
                SimTime::from_secs(10),
                SimDuration::from_secs(60),
                0.05,
                Some(PacketKind::Media),
            );
        let clean = Simulation::new(cfg(false)).run();
        let hostile = Simulation::new(cfg(false)).with_link_script(script).run();

        // Corruption reached the receiver and was counted, not dropped
        // at the door...
        assert!(hostile.corrupted_arrivals > 0);
        // ...and the flipped bits made some packets unparseable (media
        // header damage) or structurally valid but with a rejected
        // payload header.
        assert!(
            hostile.malformed_packets + hostile.malformed_payloads > 0,
            "5% corruption produced no parse failures"
        );
        // Wire duplicates were detected and discarded exactly once.
        assert!(hostile.duplicate_packets > 0);
        // Deltas are real: the clean twin of the same seed has none.
        assert_eq!(clean.malformed_packets, 0);
        assert_eq!(clean.duplicate_packets, 0);
        // Graceful degradation, not collapse.
        assert!(hostile.frames.iter().any(|f| f.displayed));
    }
}
