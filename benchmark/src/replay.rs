//! Per-layer replay probes for one cell of a workload.
//!
//! Each probe times the benchmark's own calls into one layer's public
//! API, in isolation, on an input timeline shaped by the cell: frames
//! from the real encoder at the cell's mean media rate, packets from the
//! real packetizer, link capacity from the cell's recorded radio trace,
//! arrival times from the real netem path. A probe replays at most
//! [`REPLAY_PACKETS`] packets (the head of the flight); the cost per
//! operation it reports is then scaled by the cell's *actual* operation
//! counts to estimate the layer's share of the cell's wall time. These
//! are isolated calls, not measurements inside the program — caches are
//! colder and inlining differs — and every table built from them says so.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use rpav_core::cc::{CcEngine, CCFB_INTERVAL, TWCC_INTERVAL};
use rpav_core::paths;
use rpav_core::prelude::*;
use rpav_gcc::{GccConfig, SendSideBwe};
use rpav_lte::{NetworkProfile, RadioModel};
use rpav_netem::{Packet, PacketKind};
use rpav_rtp::fec::{rs_recover, RsGroup, RsParityPacket};
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::nack::{Nack, NackConfig, NackGenerator};
use rpav_rtp::packetize::{Depacketizer, Packetizer, ReassembledFrame, MAX_PAYLOAD, META_LEN};
use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Packet};
use rpav_rtp::rtx::{RtxConfig, RtxSender};
use rpav_rtp::twcc::{TwccFeedback, TwccRecorder};
use rpav_rtp::RtpPacket;
use rpav_scream::{ScreamConfig, ScreamSender};
use rpav_sim::{alloc, arena, EventQueue, RngSet, SimDuration, SimTime};
use rpav_uav::{profiles as uav_profiles, FlightPlan, Position};
use rpav_video::player::DecodedFrame;
use rpav_video::{EncodedFrame, Encoder, EncoderConfig, Player, PlayerConfig, SourceVideo};

/// Packets a probe replays at most, per cell.
pub const REPLAY_PACKETS: usize = 100_000;
/// One-way delay the sender-side probes assume between a packet leaving
/// and its feedback report being generated.
const FEEDBACK_DELAY: SimDuration = SimDuration::from_millis(30);
const MS: SimDuration = SimDuration::from_millis(1);

/// One directly executed cell and what running it cost.
pub struct CellRun {
    pub cell: Cell,
    pub metrics: RunMetrics,
    pub wall_ns: f64,
    /// Driver steps, for single-path cells (`run_instrumented`).
    pub ticks: Option<u64>,
}

impl CellRun {
    pub fn bonded(&self) -> bool {
        matches!(self.cell.scheme, RunScheme::Multipath(_))
    }

    pub fn legs(&self) -> u64 {
        if self.bonded() {
            self.cell.config.n_legs as u64
        } else {
            1
        }
    }
}

/// One probe's result: `ns` spent on `ops` operations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub ns: f64,
    pub ops: f64,
}

impl Cost {
    pub fn per_op(&self) -> f64 {
        if self.ops > 0.0 {
            self.ns / self.ops
        } else {
            0.0
        }
    }

    /// Run `f` on the stopwatch and book it as `ops` more operations.
    fn time<R>(&mut self, ops: usize, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = f();
        self.ns += started.elapsed().as_nanos() as f64;
        self.ops += ops as f64;
        r
    }
}

/// Everything the replay of one cell measured. Field names follow the
/// per-layer metric names.
#[derive(Default)]
pub struct CellProbes {
    pub arena_cycle: Cost,
    pub event_queue: Cost,
    pub position: Cost,
    pub lte_step: Cost,
    pub lte_step_allocs: u64,
    pub path_pkt: Cost,
    pub rerate: Cost,
    pub queue_drops: u64,
    pub queue_peak_pkts: u64,
    pub packetize: Cost,
    pub wire: Cost,
    pub jitter: Cost,
    pub depacketize: Cost,
    pub twcc: Cost,
    pub rfc8888: Cost,
    pub nack: Cost,
    pub rtx: Cost,
    pub fec_encode: Cost,
    pub fec_recover: Cost,
    pub gcc_feedback: Cost,
    pub gcc_updates: u64,
    pub scream_feedback: Cost,
    pub scream_tx: Cost,
    pub cc_engine: Cost,
    pub encode: Cost,
    pub player: Cost,
}

fn flight_plan(cfg: &ExperimentConfig, bonded: bool) -> FlightPlan {
    // As the drivers build it: the bonded driver always flies.
    match (cfg.mobility, bonded) {
        (Mobility::Ground, false) => {
            uav_profiles::ground_run(Position::ground(0.0, 0.0), cfg.ground_sweeps, cfg.hold)
        }
        _ => uav_profiles::paper_flight(Position::ground(0.0, 0.0), cfg.hold),
    }
}

/// The cell's mean media bitrate: what its sender put on the wire over
/// the flight.
fn mean_media_bps(m: &RunMetrics) -> f64 {
    let payload = if m.media_received > 0 {
        m.media_received_bytes as f64 / m.media_received as f64
    } else {
        (MAX_PAYLOAD - META_LEN) as f64
    };
    (m.media_sent.max(1) as f64 * payload * 8.0 / m.duration.as_secs_f64().max(1.0)).max(300e3)
}

fn ack_span(cfg: &ExperimentConfig) -> usize {
    match cfg.cc {
        CcMode::Scream { ack_span } => ack_span,
        _ => 256,
    }
}

/// The cell's media as its sender would produce it: the real encoder
/// over the cell's source video, the real packetizer, one frame at a
/// time. Every probe builds its own source, so packets are consumed and
/// dropped as they are in the driver — the arena recycles their buffers
/// and the working set stays as small as the program's.
struct FrameSource {
    encoder: Encoder,
    packetizer: Packetizer,
    end: SimTime,
}

impl FrameSource {
    fn new(run: &CellRun, with_twcc: bool, start_bps: f64) -> Self {
        FrameSource {
            encoder: Encoder::new(
                EncoderConfig::default(),
                SourceVideo::new(run.cell.config.seed ^ 0x5EED),
                start_bps,
            ),
            packetizer: Packetizer::new(0x2, with_twcc),
            end: SimTime::ZERO + run.metrics.duration,
        }
    }

    /// Packetize the next frame into `out` and return when it is ready
    /// to send; `None` once the flight is over.
    fn next(&mut self, target_bps: f64, out: &mut Vec<RtpPacket>) -> Option<SimTime> {
        let now = self.encoder.next_capture();
        if now >= self.end {
            return None;
        }
        self.encoder.set_target_bitrate(target_bps);
        let frame = self.encoder.poll(now)?;
        self.packetizer
            .packetize_into(frame.meta, frame.meta.encode_time, out);
        Some(frame.ready_at)
    }
}

/// The media path, sender to player, as one loop on the 1 ms driver
/// grid with a stopwatch per stage: encoder → packetizer → (RS parity)
/// → wire → uplink path at the cell's recorded capacity → wire → NACK /
/// TWCC / RFC 8888 bookkeeping → jitter buffer → depacketizer → player.
/// A stage is timed only when it has work, so an idle tick costs it
/// nothing; packets move on and are dropped as in the driver.
fn media_path(run: &CellRun, probes: &mut CellProbes) {
    let cfg = &run.cell.config;
    let m = &run.metrics;
    let rngs = RngSet::new(cfg.seed);
    let flight_end = SimTime::ZERO + m.duration;
    let radio = &m.radio;

    let mut encoder = Encoder::new(
        EncoderConfig::default(),
        SourceVideo::new(cfg.seed ^ 0x5EED),
        mean_media_bps(m),
    );
    let mut packetizer = Packetizer::new(0x2, matches!(cfg.cc, CcMode::Gcc));
    let mut path = paths::uplink_path(&rngs, "bench.ul", cfg.run_index);
    let mut group = RsGroup::new();
    let mut parities: Vec<RsParityPacket> = Vec::new();
    let mut generator = NackGenerator::new(NackConfig::default());
    let mut recorder = TwccRecorder::new();
    let (mut twcc_built, mut twcc_parsed) = (TwccFeedback::empty(), TwccFeedback::empty());
    let mut builder = Rfc8888Builder::new(ack_span(cfg));
    let (mut ccfb_built, mut ccfb_parsed) = (Rfc8888Packet::empty(), Rfc8888Packet::empty());
    let mut jitter = JitterBuffer::new(JitterConfig::default());
    let mut depack = Depacketizer::new();
    let mut player = Player::new(PlayerConfig::default());

    let mut pending: VecDeque<EncodedFrame> = VecDeque::new();
    let mut packets: Vec<RtpPacket> = Vec::new();
    let mut wires = Vec::new();
    let mut arrivals: Vec<Packet> = Vec::new();
    let mut received: Vec<RtpPacket> = Vec::new();
    let mut popped: Vec<(SimTime, RtpPacket)> = Vec::new();
    let mut drained: Vec<ReassembledFrame> = Vec::new();
    let mut played = Vec::new();
    let (mut sent, mut seq, mut next_radio) = (0usize, 0u64, 0usize);
    let (mut next_twcc, mut next_ccfb) = (SimTime::ZERO, SimTime::ZERO);
    let mut peak_bytes = 0usize;
    let mut stop_sending = flight_end;
    let mut now = SimTime::ZERO;
    while now < stop_sending + SimDuration::from_millis(500) {
        while next_radio < radio.len() && radio[next_radio].t <= now {
            path.set_rate_bps(now, radio[next_radio].capacity_bps.max(50e3));
            next_radio += 1;
        }
        // Sender.
        if now < stop_sending && encoder.next_capture() <= now {
            probes.encode.time(1, || {
                while let Some(frame) = encoder.poll(now) {
                    pending.push_back(frame);
                }
            });
        }
        while pending.front().is_some_and(|f| f.ready_at <= now) {
            let Some(frame) = pending.pop_front() else {
                break;
            };
            probes.packetize.time(0, || {
                packetizer.packetize_into(frame.meta, frame.meta.encode_time, &mut packets)
            });
            probes.packetize.ops += packets.len() as f64;
            probes.fec_encode.time(packets.len(), || {
                for p in &packets {
                    group.push(p, 2);
                    if group.len() == 8 {
                        group.build_into(&mut parities);
                        parities.clear();
                    }
                }
            });
            probes.wire.time(packets.len(), || {
                wires.extend(packets.iter().map(RtpPacket::serialize));
            });
            sent += packets.len();
            packets.clear();
            probes.path_pkt.time(wires.len(), || {
                for payload in wires.drain(..) {
                    seq += 1;
                    path.enqueue(now, Packet::new(seq, payload, PacketKind::Media, now));
                }
            });
            peak_bytes = peak_bytes.max(path.queued_bytes());
            if sent >= REPLAY_PACKETS {
                stop_sending = stop_sending.min(now);
            }
        }
        // Network.
        if path.next_wake().is_some_and(|t| t <= now) {
            probes
                .path_pkt
                .time(0, || path.drain_due(now, &mut arrivals));
        }
        // Receiver.
        if !arrivals.is_empty() {
            probes.wire.time(0, || {
                received.extend(
                    arrivals
                        .drain(..)
                        .filter_map(|p| RtpPacket::parse(p.payload).ok()),
                );
            });
            probes.nack.time(received.len(), || {
                for rtp in &received {
                    black_box(generator.on_packet(now, rtp.sequence));
                }
            });
            probes.twcc.time(received.len(), || {
                for rtp in &received {
                    recorder.on_packet(rtp.transport_seq.unwrap_or(rtp.sequence), now);
                }
            });
            probes.rfc8888.time(received.len(), || {
                for rtp in &received {
                    builder.on_packet(rtp.sequence, now);
                }
            });
            probes.jitter.time(received.len(), || {
                for rtp in received.drain(..) {
                    jitter.push(now, rtp);
                }
            });
        }
        if generator.next_wake().is_some_and(|t| t <= now) {
            probes.nack.time(0, || black_box(generator.poll(now)));
        }
        if now >= next_twcc {
            next_twcc = now + TWCC_INTERVAL;
            probes.twcc.time(0, || {
                if recorder.build_feedback_into(&mut twcc_built) {
                    let wire = twcc_built.serialize();
                    black_box(TwccFeedback::parse_into(wire, &mut twcc_parsed).is_ok());
                }
            });
        }
        if now >= next_ccfb {
            next_ccfb = now + CCFB_INTERVAL;
            probes.rfc8888.time(0, || {
                if builder.build_into(now, &mut ccfb_built) {
                    let wire = ccfb_built.serialize();
                    black_box(Rfc8888Packet::parse_into(wire, &mut ccfb_parsed).is_ok());
                }
            });
        }
        if jitter.next_wake().is_some_and(|t| t <= now) {
            probes.jitter.time(0, || {
                while let Some(due) = jitter.pop_due(now) {
                    popped.push(due);
                }
            });
        }
        if !popped.is_empty() {
            probes.depacketize.time(popped.len(), || {
                for (playout, rtp) in popped.drain(..) {
                    depack.push(&rtp, playout);
                }
                if let Some(highest) = depack.highest_frame() {
                    depack.drain_into(highest.saturating_sub(2), &mut drained);
                }
            });
        }
        if !drained.is_empty() || player.next_wake().is_some_and(|t| t <= now) {
            probes.player.time(drained.len(), || {
                for frame in drained.drain(..) {
                    player.push(DecodedFrame {
                        frame_number: frame.meta.frame_number,
                        encode_time: frame.meta.encode_time,
                        ssim: 0.95,
                    });
                }
                player.poll_into(now, &mut played);
                black_box(&played);
            });
        }
        now += MS;
    }
    probes.queue_drops = path.queue_stats().dropped;
    probes.queue_peak_pkts = (peak_bytes / (MAX_PAYLOAD + 12 + 28)) as u64;
}

/// Re-rating a path that holds a standing queue: one call per recorded
/// radio row, cycled up to a fixed count.
fn rerate(run: &CellRun, probes: &mut CellProbes) {
    let cfg = &run.cell.config;
    let radio = &run.metrics.radio;
    let mut path = paths::uplink_path(&RngSet::new(cfg.seed), "bench.rerate", cfg.run_index);
    let mut source = FrameSource::new(run, false, mean_media_bps(&run.metrics));
    let mut packets = Vec::new();
    let mut seq = 0u64;
    while seq < 256
        && source
            .next(mean_media_bps(&run.metrics), &mut packets)
            .is_some()
    {
        for p in packets.drain(..) {
            seq += 1;
            path.enqueue(
                SimTime::ZERO,
                Packet::new(seq, p.serialize(), PacketKind::Media, SimTime::ZERO),
            );
        }
    }
    let calls = 20_000usize;
    probes.rerate.time(calls, || {
        for i in 0..calls {
            let bps = radio
                .get(i % radio.len().max(1))
                .map_or(5e6 + (i % 7) as f64 * 1e6, |r| r.capacity_bps.max(50e3));
            path.set_rate_bps(SimTime::from_micros(i as u64), bps);
        }
    });
    black_box(&path);
}

/// Retransmission: the history ring records every packet; one packet in
/// two hundred is asked for again, a few frames after it was sent.
fn rtx(run: &CellRun, probes: &mut CellProbes) {
    let bps = mean_media_bps(&run.metrics);
    let mut source = FrameSource::new(run, false, bps);
    let mut sender = RtxSender::new(RtxConfig::default());
    let mut packets = Vec::new();
    let mut asked: VecDeque<(usize, Nack)> = VecDeque::new();
    let (mut recorded, mut ns, mut nacks) = (0usize, 0.0, 0u64);
    while recorded < REPLAY_PACKETS {
        let Some(now) = source.next(bps, &mut packets) else {
            break;
        };
        for p in packets.drain(..) {
            sender.record(&p);
            recorded += 1;
            if recorded % 200 == 0 {
                let nack = Nack {
                    sender_ssrc: 0x1,
                    media_ssrc: p.ssrc,
                    lost: vec![p.sequence],
                };
                asked.push_back((recorded + 64, nack));
            }
        }
        sender.refill(now, bps);
        while asked.front().is_some_and(|(due, _)| *due <= recorded) {
            if let Some((_, nack)) = asked.pop_front() {
                let started = Instant::now();
                black_box(sender.on_nack(&nack));
                ns += started.elapsed().as_nanos() as f64;
                nacks += 1;
            }
        }
    }
    probes.rtx = Cost {
        ns,
        ops: nacks as f64,
    };
}

/// Reed–Solomon recovery: groups of eight with two parity shards, two
/// members erased, rebuilt from the survivors.
fn fec_recover(run: &CellRun, probes: &mut CellProbes) {
    const GROUP: usize = 8;
    const GROUPS: usize = 1_500;
    let bps = mean_media_bps(&run.metrics);
    let mut source = FrameSource::new(run, false, bps);
    let mut packets = Vec::new();
    let mut members: Vec<RtpPacket> = Vec::with_capacity(GROUP);
    let mut group = RsGroup::new();
    let mut parities = Vec::new();
    let (mut ns, mut recovered, mut groups) = (0.0, 0usize, 0usize);
    while groups < GROUPS && source.next(bps, &mut packets).is_some() {
        for p in packets.drain(..) {
            group.push(&p, 2);
            members.push(p);
            if members.len() < GROUP {
                continue;
            }
            group.build_into(&mut parities);
            let survivors = members
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 2 && *i != 5)
                .map(|(_, p)| p);
            let shards = [&parities[0], &parities[1]];
            let started = Instant::now();
            let rebuilt = rs_recover(&shards, survivors, 0x2);
            ns += started.elapsed().as_nanos() as f64;
            recovered += rebuilt.map_or(0, |r| r.len());
            groups += 1;
            members.clear();
            parities.clear();
        }
    }
    probes.fec_recover = Cost {
        ns,
        ops: recovered as f64,
    };
}

/// What a closed-loop sender probe needs from the controller under test.
trait Controller {
    fn target_bps(&self) -> f64;
    /// Per-tick work and transmission; pushes (sequence, transport
    /// sequence) of everything put on the wire.
    fn transmit(
        &mut self,
        now: SimTime,
        fresh: &mut Vec<RtpPacket>,
        out: &mut Vec<(u16, Option<u16>)>,
    );
}

/// Drive `controller` in a closed loop on the 1 ms grid: frames from the
/// real encoder following the controller's own target, a receiver model
/// with a fixed one-way delay that reports every `interval`. `transmit`
/// is timed as `tx`; `report` builds one feedback report from the
/// arrivals outside the clock and returns the nanoseconds the controller
/// spent consuming it.
fn closed_loop<C: Controller>(
    run: &CellRun,
    with_twcc: bool,
    controller: &mut C,
    interval: Option<SimDuration>,
    mut arrive: impl FnMut(SimTime, u16, Option<u16>),
    mut report: impl FnMut(&mut C, SimTime) -> f64,
) -> (Cost, Cost) {
    let mut source = FrameSource::new(run, with_twcc, controller.target_bps());
    let mut fresh: Vec<RtpPacket> = Vec::new();
    let mut staged: Vec<RtpPacket> = Vec::new();
    let mut out = Vec::new();
    let mut in_flight: VecDeque<(SimTime, u16, Option<u16>)> = VecDeque::new();
    let mut next_frame = source.next(controller.target_bps(), &mut staged);
    let mut next_report = SimTime::ZERO;
    let (mut tx_ns, mut fb_ns, mut transmitted) = (0.0, 0.0, 0usize);
    let mut now = SimTime::ZERO;
    let mut idle_until = None;
    loop {
        while next_frame.is_some_and(|t| t <= now) && transmitted < REPLAY_PACKETS {
            fresh.append(&mut staged);
            next_frame = source.next(controller.target_bps(), &mut staged);
        }
        let started = Instant::now();
        controller.transmit(now, &mut fresh, &mut out);
        tx_ns += started.elapsed().as_nanos() as f64;
        transmitted += out.len();
        in_flight.extend(out.drain(..).map(|(s, ts)| (now + FEEDBACK_DELAY, s, ts)));

        while in_flight.front().is_some_and(|(t, _, _)| *t <= now) {
            if let Some((t, seq, transport_seq)) = in_flight.pop_front() {
                arrive(t, seq, transport_seq);
            }
        }
        if let Some(interval) = interval {
            if now >= next_report {
                next_report = now + interval;
                fb_ns += report(controller, now);
            }
        }
        // Stop 200 ms after the source ran dry or the window filled.
        if next_frame.is_none() || transmitted >= REPLAY_PACKETS {
            let until = *idle_until.get_or_insert(now + SimDuration::from_millis(200));
            if now >= until {
                break;
            }
        }
        now += MS;
    }
    let ops = transmitted as f64;
    (Cost { ns: tx_ns, ops }, Cost { ns: fb_ns, ops })
}

struct Gcc(SendSideBwe);

impl Controller for Gcc {
    fn target_bps(&self) -> f64 {
        self.0.target_bitrate_bps()
    }

    // The bare estimator has no pacer: every fresh packet goes out, and
    // `on_packet_sent` is the work.
    fn transmit(
        &mut self,
        now: SimTime,
        fresh: &mut Vec<RtpPacket>,
        out: &mut Vec<(u16, Option<u16>)>,
    ) {
        self.0.on_tick(now);
        for p in fresh.drain(..) {
            if let Some(ts) = p.transport_seq {
                self.0.on_packet_sent(ts, now, p.wire_size());
            }
            out.push((p.sequence, p.transport_seq));
        }
    }
}

impl Controller for ScreamSender {
    fn target_bps(&self) -> f64 {
        self.target_bitrate_bps()
    }

    fn transmit(
        &mut self,
        now: SimTime,
        fresh: &mut Vec<RtpPacket>,
        out: &mut Vec<(u16, Option<u16>)>,
    ) {
        self.on_tick(now);
        if !fresh.is_empty() {
            self.enqueue_drain(now, fresh);
        }
        while let Some(p) = self.poll_transmit(now) {
            out.push((p.sequence, p.transport_seq));
        }
    }
}

impl Controller for CcEngine {
    fn target_bps(&self) -> f64 {
        CcEngine::target_bps(self)
    }

    fn transmit(
        &mut self,
        now: SimTime,
        fresh: &mut Vec<RtpPacket>,
        out: &mut Vec<(u16, Option<u16>)>,
    ) {
        black_box(self.on_tick(now));
        if !fresh.is_empty() {
            self.enqueue_drain(now, fresh);
        }
        while let Some(p) = self.poll_transmit(now) {
            out.push((p.sequence, p.transport_seq));
        }
    }
}

/// GCC's estimator, SCReAM's sender, and the cell's own `CcEngine`.
fn controllers(run: &CellRun, probes: &mut CellProbes) {
    let cfg = &run.cell.config;

    let recorder = std::cell::RefCell::new(TwccRecorder::new());
    let mut updates = 0u64;
    let mut bwe = Gcc(SendSideBwe::new(GccConfig::default()));
    let (tx, fb) = closed_loop(
        run,
        true,
        &mut bwe,
        Some(TWCC_INTERVAL),
        |t, seq, ts| recorder.borrow_mut().on_packet(ts.unwrap_or(seq), t),
        |bwe, now| match recorder.borrow_mut().build_feedback() {
            Some(report) => {
                updates += 1;
                let started = Instant::now();
                bwe.0.on_feedback(&report, now);
                started.elapsed().as_nanos() as f64
            }
            None => 0.0,
        },
    );
    probes.gcc_feedback = Cost {
        ns: tx.ns + fb.ns,
        ops: tx.ops,
    };
    probes.gcc_updates = updates;

    let builder = std::cell::RefCell::new(Rfc8888Builder::new(ack_span(cfg)));
    let mut report = Rfc8888Packet::empty();
    let mut sender = ScreamSender::new(ScreamConfig::default());
    let (tx, fb) = closed_loop(
        run,
        false,
        &mut sender,
        Some(CCFB_INTERVAL),
        |t, seq, _| builder.borrow_mut().on_packet(seq, t),
        |sender, now| {
            if !builder.borrow_mut().build_into(now, &mut report) {
                return 0.0;
            }
            let started = Instant::now();
            sender.on_feedback(&report, now);
            started.elapsed().as_nanos() as f64
        },
    );
    probes.scream_tx = tx;
    probes.scream_feedback = fb;

    // The cell's own engine, fed serialized feedback as the driver does.
    let mut engine = CcEngine::new(cfg.cc, cfg.watchdog);
    let interval = engine.feedback_interval();
    let recorder = std::cell::RefCell::new(TwccRecorder::new());
    let builder = std::cell::RefCell::new(Rfc8888Builder::new(ack_span(cfg)));
    let mut twcc = TwccFeedback::empty();
    let mut ccfb = Rfc8888Packet::empty();
    let cc = cfg.cc;
    let (tx, fb) = closed_loop(
        run,
        engine.with_twcc(),
        &mut engine,
        interval,
        |t, seq, ts| match cc {
            CcMode::Gcc => recorder.borrow_mut().on_packet(ts.unwrap_or(seq), t),
            CcMode::Scream { .. } => builder.borrow_mut().on_packet(seq, t),
            CcMode::Static { .. } => {}
        },
        |engine, now| {
            let payload = match cc {
                CcMode::Gcc => recorder
                    .borrow_mut()
                    .build_feedback_into(&mut twcc)
                    .then(|| twcc.serialize()),
                CcMode::Scream { .. } => builder
                    .borrow_mut()
                    .build_into(now, &mut ccfb)
                    .then(|| ccfb.serialize()),
                CcMode::Static { .. } => None,
            };
            let Some(payload) = payload else { return 0.0 };
            let started = Instant::now();
            black_box(engine.on_feedback(payload, now));
            started.elapsed().as_nanos() as f64
        },
    );
    probes.cc_engine = Cost {
        ns: tx.ns + fb.ns,
        ops: tx.ops,
    };
}

/// The kernel's two primitives, as often as the window has packets.
fn sim_kernel(ops: usize, probes: &mut CellProbes) {
    probes.arena_cycle.time(ops, || {
        for _ in 0..ops {
            let block = arena::acquire(MAX_PAYLOAD);
            black_box(&block);
            arena::recycle(block);
        }
    });

    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..64u64 {
        queue.schedule(SimTime::from_micros(i * 37 % 1_000), i as u32);
    }
    probes.event_queue.time(ops, || {
        for i in 0..ops as u64 {
            let now = SimTime::from_micros(i * 500);
            queue.schedule(
                now + SimDuration::from_micros(1_000 + i * 7919 % 30_000),
                i as u32,
            );
            while let Some(event) = queue.pop_due(now) {
                black_box(event);
            }
        }
    });
}

/// The whole flight on the radio cadence: where the node is, then what
/// the radio makes of it.
fn radio(run: &CellRun, probes: &mut CellProbes) {
    let cfg = &run.cell.config;
    let plan = flight_plan(cfg, run.bonded());
    let mut profile = NetworkProfile::new(cfg.environment, cfg.operator);
    if let Some(h) = cfg.hysteresis_override_db {
        profile.handover.hysteresis_db = h;
    }
    if let Some(ttt) = cfg.ttt_override_ms {
        profile.handover.time_to_trigger = SimDuration::from_millis(ttt);
    }
    let mut model = RadioModel::new(&profile, &RngSet::new(cfg.seed), cfg.run_index);
    let tick = model.tick();
    let end = SimTime::ZERO + plan.duration() + SimDuration::from_secs(3);
    let mut instants = Vec::new();
    let mut t = SimTime::ZERO;
    while t < end {
        instants.push(t);
        t += tick;
    }

    let mut positions = Vec::with_capacity(instants.len());
    probes.position.time(instants.len(), || {
        for t in &instants {
            positions.push(plan.position_at(*t));
        }
    });

    let allocs_before = alloc::events();
    probes.lte_step.time(instants.len(), || {
        for (t, pos) in instants.iter().zip(&positions) {
            black_box(model.step(*t, pos));
        }
    });
    probes.lte_step_allocs = alloc::events() - allocs_before;
}

/// Run every probe for one cell.
pub fn probe_cell(run: &CellRun) -> CellProbes {
    let mut probes = CellProbes::default();
    media_path(run, &mut probes);
    rerate(run, &mut probes);
    rtx(run, &mut probes);
    fec_recover(run, &mut probes);
    controllers(run, &mut probes);
    sim_kernel(probes.packetize.ops as usize, &mut probes);
    radio(run, &mut probes);
    probes
}
