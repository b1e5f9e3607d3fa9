//! Criterion micro-benchmarks for the per-packet / per-tick hot paths.
//!
//! These gate performance regressions of the library itself: the
//! simulation spends its time in RTP (de)serialisation, feedback
//! construction/parsing, CC updates, jitter-buffer operations and LTE
//! channel steps — and, once a cell is done, the campaign engine spends
//! its time in the result store: envelope CRC, record codec, aggregate
//! fold.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bytes::Bytes;
use rpav_core::prelude::*;
use rpav_gcc::{GccConfig, SendSideBwe};
use rpav_lte::{NetworkProfile, RadioModel};
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::rfc8888::Rfc8888Builder;
use rpav_rtp::twcc::TwccRecorder;
use rpav_scream::{ScreamConfig, ScreamSender};
use rpav_sim::{RngSet, SimDuration, SimTime};
use rpav_uav::Position;
use rpav_video::{Encoder, EncoderConfig, SourceVideo};

fn rtp_packet(seq: u16) -> RtpPacket {
    RtpPacket {
        marker: seq % 8 == 7,
        payload_type: 96,
        sequence: seq,
        timestamp: seq as u32 * 3_000,
        ssrc: 2,
        transport_seq: Some(seq),
        payload: Bytes::from(vec![0xAB; 1_175]),
        wire: None,
    }
}

fn bench_rtp_wire(c: &mut Criterion) {
    let pkt = rtp_packet(42);
    let wire = pkt.serialize();
    c.bench_function("rtp_serialize", |b| b.iter(|| black_box(&pkt).serialize()));
    c.bench_function("rtp_parse", |b| {
        b.iter(|| RtpPacket::parse(black_box(wire.clone())).unwrap())
    });
}

fn bench_packetize(c: &mut Criterion) {
    use rpav_rtp::packetize::{Depacketizer, FrameMeta, Packetizer};
    // One 25 Mbps / 30 fps frame: ~104 KB → ~89 fragments, the exact shape
    // the single-buffer frame packetizer is optimised for.
    c.bench_function("packetize_frame_104k", |b| {
        let mut pktz = Packetizer::new(7, true);
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let meta = FrameMeta {
                frame_number: n,
                encode_time: SimTime::from_micros(n * 33_334),
                keyframe: n % 30 == 1,
                frame_bytes: 104_167,
            };
            black_box(pktz.packetize(meta, SimTime::from_micros(n * 33_334)))
        })
    });
    c.bench_function("packetize_wire_roundtrip_104k", |b| {
        let mut pktz = Packetizer::new(7, true);
        let mut depack = Depacketizer::new();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let t = SimTime::from_micros(n * 33_334);
            let meta = FrameMeta {
                frame_number: n,
                encode_time: t,
                keyframe: n % 30 == 1,
                frame_bytes: 104_167,
            };
            for pkt in pktz.packetize(meta, t) {
                let parsed = RtpPacket::parse(pkt.serialize()).unwrap();
                depack.push(&parsed, t);
            }
            black_box(depack.drain(n + 1).len())
        })
    });
}

fn bench_feedback(c: &mut Criterion) {
    c.bench_function("twcc_build_and_parse_100pkts", |b| {
        b.iter(|| {
            let mut rec = TwccRecorder::new();
            for i in 0..100u16 {
                rec.on_packet(i, SimTime::from_micros(i as u64 * 400));
            }
            let fb = rec.build_feedback().unwrap();
            rpav_rtp::twcc::TwccFeedback::parse(fb.serialize()).unwrap()
        })
    });
    c.bench_function("rfc8888_build_and_parse_span256", |b| {
        b.iter(|| {
            let mut builder = Rfc8888Builder::new(256);
            for i in 0..300u16 {
                builder.on_packet(i, SimTime::from_micros(i as u64 * 400));
            }
            let fb = builder.build(SimTime::from_millis(200)).unwrap();
            rpav_rtp::rfc8888::Rfc8888Packet::parse(fb.serialize()).unwrap()
        })
    });
}

fn bench_cc_updates(c: &mut Criterion) {
    c.bench_function("gcc_feedback_round", |b| {
        let mut bwe = SendSideBwe::new(GccConfig::default());
        let mut rec = TwccRecorder::new();
        let mut seq = 0u16;
        let mut t = SimTime::from_secs(1);
        b.iter(|| {
            for _ in 0..20 {
                bwe.on_packet_sent(seq, t, 1_200);
                rec.on_packet(seq, t + SimDuration::from_millis(40));
                seq = seq.wrapping_add(1);
                t += SimDuration::from_micros(500);
            }
            if let Some(fb) = rec.build_feedback() {
                bwe.on_feedback(&fb, t);
            }
            black_box(bwe.target_bitrate_bps())
        })
    });
    c.bench_function("scream_feedback_round", |b| {
        let mut s = ScreamSender::new(ScreamConfig::default());
        let mut builder = Rfc8888Builder::new(256);
        let mut seq = 0u16;
        let mut t = SimTime::from_secs(1);
        b.iter(|| {
            s.enqueue(
                t,
                (0..8)
                    .map(|_| {
                        let p = rtp_packet(seq);
                        seq = seq.wrapping_add(1);
                        p
                    })
                    .collect(),
            );
            while let Some(p) = s.poll_transmit(t) {
                builder.on_packet(p.sequence, t + SimDuration::from_millis(30));
            }
            t += SimDuration::from_millis(10);
            if let Some(fb) = builder.build(t) {
                s.on_feedback(&fb, t);
            }
            black_box(s.target_bitrate_bps())
        })
    });
}

fn bench_jitter(c: &mut Criterion) {
    c.bench_function("jitter_push_pop_100", |b| {
        b.iter(|| {
            let mut jb = JitterBuffer::new(JitterConfig::default());
            let t0 = SimTime::from_secs(1);
            for i in 0..100u16 {
                jb.push(t0 + SimDuration::from_millis(i as u64), rtp_packet(i));
            }
            let mut n = 0;
            while jb.pop_due(t0 + SimDuration::from_secs(10)).is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_lte(c: &mut Criterion) {
    c.bench_function("lte_radio_step_urban", |b| {
        let profile = NetworkProfile::new(Environment::Urban, Operator::P1);
        let mut model = RadioModel::new(&profile, &RngSet::new(1), 0);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_millis(100);
            let pos = Position::new((t.as_millis() % 200_000) as f64 / 1_000.0, 0.0, 60.0);
            black_box(model.step(t, &pos))
        })
    });
}

fn bench_encoder(c: &mut Criterion) {
    c.bench_function("encoder_frame", |b| {
        let mut enc = Encoder::new(EncoderConfig::default(), SourceVideo::new(1), 8e6);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_micros(33_334);
            black_box(enc.poll(t))
        })
    });
}

/// The result store's kernels on one real Urban Static cell (the paper's
/// 25 Mbps air flight, ≈ 13 MB encoded), built once.
fn bench_result_store(c: &mut Criterion) {
    let crc_input: Vec<u8> = (0..8u32 << 20)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    c.bench_function("codec_crc32_8MiB", |b| {
        b.iter(|| rpav_core::codec::crc32(black_box(&crc_input)))
    });

    let config = ExperimentConfig::builder()
        .environment(Environment::Urban)
        .cc(CcMode::paper_static(Environment::Urban))
        .seed(0xBE7C)
        .build();
    let cell = Simulation::new(config).run();
    let sealed = cell.to_cache_bytes();
    c.bench_function("codec_encode_cell", |b| {
        b.iter(|| black_box(&cell).to_cache_bytes())
    });
    c.bench_function("codec_decode_cell", |b| {
        b.iter(|| RunMetrics::from_cache_bytes(black_box(&sealed)).unwrap())
    });
    c.bench_function("aggregates_fold_cell", |b| {
        b.iter(|| {
            let mut aggregates = CampaignAggregates::default();
            aggregates.fold(black_box(&cell));
            aggregates
        })
    });
}

/// The bonded driver's Reed–Solomon layer and one whole bonded cell.
fn bench_bonded(c: &mut Criterion) {
    use rpav_core::multipath::{run_multipath, MultipathScheme};
    use rpav_rtp::fec::{rs_recover, RsGroup, RsParityPacket};

    // Ten full-size members, two parity shards: the group the bonded
    // scheduler closes at a 0.2 redundancy ratio.
    let members: Vec<RtpPacket> = (0..12u16)
        .map(|i| RtpPacket {
            payload: Bytes::from(vec![i as u8 ^ 0x5A; 1_200]),
            ..rtp_packet(i)
        })
        .collect();
    c.bench_function("rs_push_k10_r2_1200B", |b| {
        let mut group = RsGroup::new();
        let mut parities: Vec<RsParityPacket> = Vec::new();
        b.iter(|| {
            for p in &members[..10] {
                group.push(black_box(p), 2);
            }
            parities.clear();
            group.build_into(&mut parities);
        })
    });
    // Twelve members, two erased, rebuilt from the ten survivors.
    let mut group = RsGroup::new();
    for p in &members {
        group.push(p, 2);
    }
    let parities = group.build();
    let shards = [&parities[0], &parities[1]];
    c.bench_function("rs_recover_2_of_12", |b| {
        b.iter(|| {
            let survivors = members
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 3 && *i != 8)
                .map(|(_, p)| p);
            rs_recover(black_box(&shards), survivors, 2).unwrap()
        })
    });

    // One rural Static bonded cell, FEC and repair armed (1 s holds):
    // the multipath driver end to end.
    let config = ExperimentConfig::builder()
        .cc(CcMode::paper_static(Environment::Rural))
        .seed(0xBE7C)
        .hold_secs(1)
        .fec_cap(0.25)
        .repair(true)
        .build();
    c.bench_function("bonded_cell_2leg_static", |b| {
        b.iter(|| run_multipath(black_box(&config), MultipathScheme::Bonded))
    });
}

criterion_group!(
    benches,
    bench_bonded,
    bench_result_store,
    bench_rtp_wire,
    bench_packetize,
    bench_feedback,
    bench_cc_updates,
    bench_jitter,
    bench_lte,
    bench_encoder
);
criterion_main!(benches);
