//! The end-to-end measurement pipeline: one UAV (or motorbike) node
//! streaming adaptive RTP video over the simulated LTE access + WAN to the
//! remote-pilot server, with CC feedback flowing back.
//!
//! ```text
//!       sender (UAV payload)                 receiver (AWS server)
//! source ─► encoder ─► packetizer ─► CC ──► LTE uplink ─► WAN ──► RTCP recorders
//!    ▲                                │                        ─► jitter buffer
//!    └── target bitrate ◄── feedback ◄┴─ WAN ◄─ LTE downlink ◄── feedback timer
//!                                                 jitter buffer ─► depacketizer
//!                                                   ─► SSIM ─► player ─► metrics
//! ```
//!
//! Everything advances on a 1 ms driver tick; radio state updates every
//! 100 ms (the modem cadence). One [`Simulation::run`] is one measurement
//! run of the campaign.

use std::collections::VecDeque;

use rpav_lte::{NetworkProfile, RadioModel};
use rpav_netem::{FaultScript, Packet, PacketKind, Path, ReorderConfig};
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::nack::{Arrival, Nack, NackConfig, NackGenerator};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::packetize::{Depacketizer, Packetizer, ReassembledFrame};
use rpav_rtp::pli::Pli;
use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Packet};
use rpav_rtp::rtx::{RtxConfig, RtxSender};
use rpav_rtp::twcc::{TwccFeedback, TwccRecorder};
use rpav_sim::{RngSet, SimDuration, SimRng, SimTime};
use rpav_uav::{profiles as uav_profiles, FlightPlan, Position};
use rpav_video::player::{DecodedFrame, PlayedFrame};
use rpav_video::{quality, Encoder, EncoderConfig, Player, PlayerConfig, SourceVideo};

use crate::cc::{CcEngine, CCFB_INTERVAL, TWCC_INTERVAL};
use crate::metrics::{FrameRecord, HandoverRecord, RadioTraceRow, RunMetrics};
use crate::paths;
use crate::scenario::{CcMode, ExperimentConfig, Mobility};

/// Driver tick.
const TICK: SimDuration = SimDuration::from_millis(1);
/// Extra time after the plan ends for in-flight media to play out.
const DRAIN: SimDuration = SimDuration::from_secs(3);
/// Minimum spacing between receiver PLIs while the reference chain stays
/// broken (RFC 4585 regulates rapid PLI resends).
const PLI_MIN_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Receiver-observed delivery gap that counts as an outage and inflates
/// the jitter target (graceful degradation under repeated blackouts).
const OUTAGE_GAP: SimDuration = SimDuration::from_secs(1);
/// Jitter-target multiplier per observed outage, and the level cap.
const JITTER_INFLATE_FACTOR: f64 = 1.5;
const JITTER_MAX_LEVEL: u32 = 3;
/// Clean delivery required before one inflation level decays away.
const JITTER_DECAY_AFTER: SimDuration = SimDuration::from_secs(20);
/// SSRCs on the PLI wire: the receiver reports against the media stream.
const RECEIVER_SSRC: u32 = 0x1;
const MEDIA_SSRC: u32 = 0x2;

/// Round an event deadline up to the 1 ms driver grid the reference loop
/// runs on: the fast scheduler may only stop where the reference stops.
fn align_up_to_tick(t: SimTime) -> SimTime {
    SimTime::from_micros((t.as_micros().saturating_add(999) / 1_000).saturating_mul(1_000))
}

/// Disjoint borrows of the sender-side state [`Simulation::send_media`]
/// needs — callers split these from `self` so the CC state can stay
/// mutably borrowed across the send loop.
struct MediaTx<'a> {
    uplink: &'a mut Path,
    netem_seq: &'a mut u64,
    metrics: &'a mut RunMetrics,
    extra_loss_rng: &'a mut SimRng,
    /// RTX history to record into; `None` when repair is disabled.
    rtx: Option<&'a mut RtxSender>,
}

/// One full measurement run.
pub struct Simulation {
    config: ExperimentConfig,
    plan: FlightPlan,
    radio: RadioModel,
    uplink: Path,
    downlink: Path,
    extra_loss_prob: f64,
    extra_loss_rng: SimRng,
    source: SourceVideo,
    encoder: Encoder,
    packetizer: Packetizer,
    cc: CcEngine,
    pending_frames: VecDeque<rpav_video::EncodedFrame>,
    rtx: RtxSender,
    // Receiver state.
    jitter: JitterBuffer,
    depack: Depacketizer,
    nack_gen: NackGenerator,
    player: Player,
    twcc_rec: TwccRecorder,
    ccfb: Rfc8888Builder,
    ref_intact: bool,
    last_frame_to_player: Option<u64>,
    last_pli: Option<SimTime>,
    last_media_arrival: Option<SimTime>,
    jitter_base_target: SimDuration,
    jitter_level: u32,
    last_jitter_event: SimTime,
    // Bookkeeping.
    next_radio: SimTime,
    next_feedback: SimTime,
    netem_seq: u64,
    outage_windows: Vec<(SimTime, SimTime)>,
    /// Reusable scratch for batch-draining path arrivals each tick.
    arrivals: Vec<Packet>,
    /// Reusable scratch for depacketizer drains each tick.
    drained: Vec<ReassembledFrame>,
    /// Reusable scratch for player display/skip events each tick.
    played: Vec<PlayedFrame>,
    /// Reusable scratch for freshly packetized frames.
    pkt_scratch: Vec<RtpPacket>,
    /// Reusable TWCC feedback value for the receiver's build path.
    twcc_fb: TwccFeedback,
    /// Reusable RFC 8888 feedback value for the receiver's build path.
    ccfb_pkt: Rfc8888Packet,
    metrics: RunMetrics,
}

impl Simulation {
    /// Assemble a run from its configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        let rngs = RngSet::new(config.seed);
        let mut profile = NetworkProfile::new(config.environment, config.operator);
        if let Some(h) = config.hysteresis_override_db {
            profile.handover.hysteresis_db = h;
        }
        if let Some(ttt) = config.ttt_override_ms {
            profile.handover.time_to_trigger = SimDuration::from_millis(ttt);
        }
        let radio = RadioModel::new(&profile, &rngs, config.run_index);
        let plan = match config.mobility {
            Mobility::Air => uav_profiles::paper_flight(Position::ground(0.0, 0.0), config.hold),
            Mobility::Ground => uav_profiles::ground_run(
                Position::ground(0.0, 0.0),
                config.ground_sweeps,
                config.hold,
            ),
        };

        // Both directions: fault injector (bursty PER) → bottleneck → WAN.
        // Radio propagation ≈ 5 ms; WAN ≈ 12.5 ms → lowest RTT ≈ 35 ms
        // (§3.1). Parameters live in [`paths`], shared with multipath.
        let uplink = paths::uplink_path(&rngs, "pipe.ul", config.run_index);
        let downlink = paths::downlink_path(&rngs, "pipe.dl", config.run_index);

        let source = SourceVideo::new(config.seed ^ 0x5EED);
        let cc = CcEngine::new(config.cc, config.watchdog);
        let ack_span = match config.cc {
            CcMode::Scream { ack_span } => ack_span,
            _ => 64,
        };
        let encoder = Encoder::new(EncoderConfig::default(), source, cc.start_bitrate_bps());
        let with_twcc = cc.with_twcc();
        let jitter_target = config
            .jitter_target_override_ms
            .map(SimDuration::from_millis)
            .unwrap_or(JitterConfig::default().target);

        Simulation {
            config,
            plan,
            radio,
            uplink,
            downlink,
            extra_loss_prob: 0.0,
            extra_loss_rng: rngs.stream_indexed("pipe.extraloss", config.run_index),
            source,
            encoder,
            packetizer: Packetizer::new(0x2, with_twcc),
            cc,
            pending_frames: VecDeque::new(),
            rtx: RtxSender::new(RtxConfig::default()),
            jitter: JitterBuffer::new(JitterConfig {
                drop_on_latency: config.drop_on_latency,
                target: jitter_target,
            }),
            depack: Depacketizer::new(),
            nack_gen: NackGenerator::new(NackConfig {
                playout_budget: jitter_target,
                ..Default::default()
            }),
            player: Player::new(PlayerConfig::default()),
            twcc_rec: TwccRecorder::new(),
            twcc_fb: TwccFeedback::empty(),
            ccfb: Rfc8888Builder::new(ack_span),
            ccfb_pkt: Rfc8888Packet::empty(),
            ref_intact: true,
            last_frame_to_player: None,
            last_pli: None,
            last_media_arrival: None,
            jitter_base_target: jitter_target,
            jitter_level: 0,
            last_jitter_event: SimTime::ZERO,
            next_radio: SimTime::ZERO,
            next_feedback: SimTime::ZERO,
            netem_seq: 0,
            arrivals: Vec::new(),
            drained: Vec::new(),
            played: Vec::new(),
            pkt_scratch: Vec::new(),
            outage_windows: Vec::new(),
            metrics: RunMetrics::default(),
        }
    }

    /// Attach a scripted fault campaign to the uplink (media) direction.
    /// The script's RNG derives from the run's seed, so a given
    /// configuration + script is bit-reproducible.
    pub fn with_uplink_script(mut self, script: FaultScript) -> Self {
        let rngs = RngSet::new(self.config.seed);
        // Timed media-direction blackouts become per-outage recovery
        // records in the run's metrics.
        self.outage_windows.extend(script.blackout_windows());
        // Reorder windows retune an exit-side stage that must exist first;
        // attach a transparent one only when the script needs it so runs
        // without reorder clauses stay bit-identical.
        if script.has_reorder() {
            self.uplink.set_reorder(
                ReorderConfig::default(),
                rngs.stream_indexed("pipe.ul.reorder", self.config.run_index),
            );
        }
        self.uplink.set_script(
            script,
            rngs.stream_indexed("pipe.ul.script", self.config.run_index),
        );
        self
    }

    /// Attach a scripted fault campaign to the downlink (feedback)
    /// direction. Feedback-direction blackouts starve the CC but do not
    /// stop media, so they produce no per-outage recovery records.
    pub fn with_downlink_script(mut self, script: FaultScript) -> Self {
        let rngs = RngSet::new(self.config.seed);
        if script.has_reorder() {
            self.downlink.set_reorder(
                ReorderConfig::default(),
                rngs.stream_indexed("pipe.dl.reorder", self.config.run_index),
            );
        }
        self.downlink.set_script(
            script,
            rngs.stream_indexed("pipe.dl.script", self.config.run_index),
        );
        self
    }

    /// Attach the same scripted campaign to both directions — the shape of
    /// a true link blackout (coverage loss kills media and feedback alike).
    pub fn with_link_script(self, script: FaultScript) -> Self {
        let cloned = script.clone();
        self.with_uplink_script(script).with_downlink_script(cloned)
    }

    /// Execute the run to completion on the adaptive deadline scheduler
    /// and return its metrics.
    pub fn run(mut self) -> RunMetrics {
        self.run_loop(false, &mut 0)
    }

    /// Execute with the unconditional 1 ms reference loop. The adaptive
    /// scheduler must be byte-identical to this path;
    /// `tests/perf_equivalence.rs` holds it to that.
    pub fn run_reference(mut self) -> RunMetrics {
        self.run_loop(true, &mut 0)
    }

    /// Execute with the adaptive scheduler and also report how many driver
    /// steps the run took — the denominator for the perf harness's ns/tick
    /// figure. Metrics are identical to [`Simulation::run`].
    pub fn run_instrumented(mut self) -> (RunMetrics, u64) {
        let mut steps = 0u64;
        let metrics = self.run_loop(false, &mut steps);
        (metrics, steps)
    }

    fn run_loop(&mut self, reference: bool, steps: &mut u64) -> RunMetrics {
        let flight_end = SimTime::ZERO + self.plan.duration();
        let end = flight_end + DRAIN;
        // Largest driver-grid instant strictly before `end`: the last tick
        // the reference loop visits. The fast path must always land on it —
        // per-tick state such as the watchdog's feedback-gap stat takes its
        // final sample there.
        let last_tick = SimTime::from_micros((end.as_micros() - 1) / 1_000 * 1_000);
        let mut t = SimTime::ZERO;
        while t < end {
            *steps += 1;
            self.step(t, flight_end);
            t = if reference {
                t + TICK
            } else {
                let next = self.next_deadline(t, flight_end);
                let mut tn = align_up_to_tick(next).max(t + TICK);
                if tn > last_tick && t < last_tick {
                    tn = last_tick;
                }
                tn
            };
        }
        self.metrics.duration = self.plan.duration();
        let pstats = self.player.stats();
        self.metrics.stalls = pstats.stalls;
        self.metrics.stalled_time = pstats.stalled_time;
        self.metrics.frames_late_discarded = pstats.late_discarded;
        self.metrics.distinct_cells = self.radio.distinct_cells();
        if let Some(ss) = self.cc.scream_stats() {
            self.metrics.sender_discarded = ss.queue_discarded;
            self.metrics.span_skipped = ss.span_skipped;
        }
        if let Some(w) = self.cc.watchdog_stats() {
            self.metrics.watchdog_activations = w.activations;
            self.metrics.watchdog_recoveries = w.recoveries;
            self.metrics.watchdog_last_ramp = w.last_ramp;
        }
        self.metrics.forced_keyframes = self.encoder.forced_keyframes();
        let js = self.jitter.stats();
        self.metrics.duplicate_packets += js.duplicates;
        self.metrics.late_packets += js.dropped_late;
        self.metrics.malformed_payloads = self.depack.malformed_payloads();
        let ns = self.nack_gen.stats();
        self.metrics.nacks_sent = ns.nacks_sent;
        self.metrics.nack_seqs_requested = ns.seqs_requested;
        self.metrics.rtx_recovered = ns.recovered;
        self.metrics.rtx_late = ns.late_recovered;
        self.metrics.nack_abandoned = ns.abandoned;
        let rs = self.rtx.stats();
        self.metrics.rtx_sent = rs.retransmitted;
        self.metrics.rtx_bytes = rs.bytes_retransmitted;
        self.metrics.rtx_budget_exhausted = rs.budget_exhausted;
        self.metrics.rtx_not_in_history = rs.not_in_history;
        self.metrics.script_dropped = self.uplink.script_stats().map(|s| s.dropped()).unwrap_or(0)
            + self
                .downlink
                .script_stats()
                .map(|s| s.dropped())
                .unwrap_or(0);
        let windows = std::mem::take(&mut self.outage_windows);
        self.metrics.record_outages(&windows);
        std::mem::take(&mut self.metrics)
    }

    /// Earliest instant at which [`Simulation::step`] can next do anything
    /// the reference loop would not also skip. Deadlines may be *early*
    /// (a premature visit is a no-op and the driver then walks one tick at
    /// a time until the edge resolves) but must never be late: every state
    /// change the 1 ms loop would observe has to come from a listed source.
    ///
    /// Sources, one per step phase:
    /// - radio cadence (`next_radio`);
    /// - encoder capture grid, while the flight lasts, plus the head of the
    ///   encode-latency queue (`ready_at`);
    /// - CC wakes: pacer token-bucket readiness (with a 1 µs float guard),
    ///   watchdog starvation/backoff edges, SCReAM in-flight expiry;
    /// - link deliveries on both directions plus timed-blackout start edges
    ///   (`next_wake_scripted`: pausing a link is a now-dependent action);
    /// - NACK generator request/abandonment edges, when repair is on;
    /// - the receiver feedback timer;
    /// - jitter-buffer head playout and player display slots (a starved
    ///   player reports `now`, deliberately clamping the driver to per-tick
    ///   stepping while skip-patience logic needs every tick);
    /// - jitter-target decay and PLI-nag edges, while armed.
    fn next_deadline(&self, now: SimTime, flight_end: SimTime) -> SimTime {
        let capture = self.encoder.next_capture();
        let deadlines = [
            Some(self.next_radio),
            (capture < flight_end).then_some(capture),
            self.pending_frames.front().map(|f| f.ready_at),
            self.cc.next_wake(now),
            self.uplink.next_wake_scripted(now),
            self.downlink.next_wake_scripted(now),
            if self.config.repair {
                self.nack_gen.next_wake()
            } else {
                None
            },
            (self.next_feedback != SimTime::MAX).then_some(self.next_feedback),
            self.jitter.next_wake(),
            self.player.next_wake(),
            (self.jitter_level > 0).then_some(self.last_jitter_event + JITTER_DECAY_AFTER),
            (!self.ref_intact).then(|| self.last_pli.map_or(now, |t| t + PLI_MIN_INTERVAL)),
        ];
        // `next_radio` is always present, so the min always exists.
        deadlines
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(self.next_radio)
    }

    fn step(&mut self, now: SimTime, flight_end: SimTime) {
        // 1. Radio tick: re-rate links, register handovers.
        if now >= self.next_radio {
            self.next_radio = now + self.radio.tick();
            let pos = self.plan.position_at(now);
            // Positional script clauses (coverage holes) track the UAV.
            self.uplink.set_position(pos.x, pos.y, pos.z);
            self.downlink.set_position(pos.x, pos.y, pos.z);
            let sample = self.radio.step(now, &pos);
            self.uplink
                .set_rate_bps(now, sample.uplink_capacity_bps.max(50e3));
            self.downlink
                .set_rate_bps(now, sample.downlink_capacity_bps.max(50e3));
            self.uplink.set_extra_delay(sample.retx_delay);
            self.downlink.set_extra_delay(sample.retx_delay);
            if let Some(ho) = sample.handover {
                self.uplink.pause_until(now, ho.complete_at);
                self.downlink.pause_until(now, ho.complete_at);
                self.metrics.handovers.push(HandoverRecord {
                    at: ho.at,
                    het: ho.het(),
                    kind: ho.kind,
                    from: ho.from.0,
                    to: ho.to.0,
                });
            }
            self.extra_loss_prob = sample.extra_loss_prob;
            self.metrics.radio.push(RadioTraceRow {
                t: now,
                altitude_m: pos.z,
                capacity_bps: sample.uplink_capacity_bps,
                rsrp_dbm: sample.rsrp_dbm,
                sinr_db: sample.sinr_db,
                in_handover: sample.in_handover,
            });
        }

        // 2. Encoder: produce frames while the flight lasts.
        if now < flight_end {
            while let Some(frame) = self.encoder.poll(now) {
                self.pending_frames.push_back(frame);
            }
        }
        while self
            .pending_frames
            .front()
            .is_some_and(|f| f.ready_at <= now)
        {
            let Some(frame) = self.pending_frames.pop_front() else {
                break;
            };
            let mut packets = std::mem::take(&mut self.pkt_scratch);
            self.packetizer
                .packetize_into(frame.meta, frame.meta.encode_time, &mut packets);
            self.cc.enqueue_drain(now, &mut packets);
            self.pkt_scratch = packets;
        }

        // 3. Feedback-starvation watchdogs, then CC-gated transmission.
        // The watchdogs run on the driver tick: they are what lets the
        // sender react to a feedback blackout at all, so the encoder target
        // must follow their cap, not just the feedback arrivals.
        let target = self.cc.on_tick(now);
        self.encoder.set_target_bitrate(target);
        while let Some(p) = self.cc.poll_transmit(now) {
            Self::send_media(
                MediaTx {
                    uplink: &mut self.uplink,
                    netem_seq: &mut self.netem_seq,
                    metrics: &mut self.metrics,
                    extra_loss_rng: &mut self.extra_loss_rng,
                    rtx: if self.config.repair {
                        Some(&mut self.rtx)
                    } else {
                        None
                    },
                },
                self.extra_loss_prob,
                now,
                p,
            );
        }

        // 3b. Sender-side repair budget: the RTX token bucket refills at a
        // fraction of whatever the CC currently targets, so repair can
        // never starve fresh media.
        if self.config.repair {
            self.rtx.refill(now, self.cc.target_bps());
        }

        // 4. Uplink arrivals at the server. Corrupted packets are not
        // silently dropped: the damaged bytes go to the hardened parsers,
        // which either reject them (counted as malformed) or survive the
        // flip — exactly what a real receiver without UDP checksums sees.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        self.uplink.drain_due(now, &mut arrivals);
        for pkt in arrivals.drain(..) {
            if pkt.corrupted {
                self.metrics.corrupted_arrivals += 1;
            }
            let rtp = match RtpPacket::parse(pkt.payload.clone()) {
                Ok(rtp) => rtp,
                Err(_) => {
                    self.metrics.malformed_packets += 1;
                    continue;
                }
            };
            let owd_ms = now.saturating_since(pkt.sent_at).as_millis_f64();
            // Classify against the gap tracker before any accounting: a
            // duplicate delivery (network dup, or an RTX racing its
            // reordered original) must not count as received media twice.
            match self.nack_gen.on_packet(now, rtp.sequence) {
                Arrival::Stale => {
                    self.metrics.duplicate_packets += 1;
                    continue;
                }
                Arrival::Late => self.metrics.late_packets += 1,
                Arrival::InOrder | Arrival::Reordered | Arrival::Recovered => {}
            }
            self.nack_gen
                .set_rtt_hint(SimDuration::from_micros((owd_ms * 2_000.0) as u64));
            self.metrics.owd.push((now, owd_ms));
            self.metrics.media_received += 1;
            self.metrics.media_received_bytes += rtp.payload.len() as u64;
            // Graceful degradation: delivery resuming after a long gap
            // means an outage happened — inflate the jitter target so
            // subsequent jitter from the recovering link is absorbed
            // instead of causing skips.
            if let Some(prev) = self.last_media_arrival {
                if now.saturating_since(prev) >= OUTAGE_GAP {
                    if self.jitter_level < JITTER_MAX_LEVEL {
                        self.jitter_level += 1;
                        self.metrics.jitter_inflations += 1;
                        self.apply_jitter_target();
                    }
                    self.last_jitter_event = now;
                }
            }
            self.last_media_arrival = Some(now);
            match self.config.cc {
                CcMode::Gcc => {
                    if let Some(ts) = rtp.transport_seq {
                        self.twcc_rec.on_packet(ts, now);
                    }
                }
                CcMode::Scream { .. } => {
                    self.ccfb.on_packet(rtp.sequence, now);
                }
                CcMode::Static { .. } => {}
            }
            self.jitter.push(now, rtp);
        }
        // Sustained clean delivery lets the inflated jitter target decay
        // back toward its base, one level at a time.
        if self.jitter_level > 0
            && now.saturating_since(self.last_jitter_event) >= JITTER_DECAY_AFTER
        {
            self.jitter_level -= 1;
            self.apply_jitter_target();
            self.last_jitter_event = now;
        }
        // 4b. Receiver-side repair: emit the next debounced NACK batch.
        // The generator abandons anything whose playout deadline a
        // round trip can no longer beat; those losses escalate to the
        // reference-break → PLI path below.
        if self.config.repair {
            if let Some(nack) = self.nack_gen.poll(now) {
                self.netem_seq += 1;
                self.downlink.enqueue(
                    now,
                    Packet::new(self.netem_seq, nack.serialize(), PacketKind::Feedback, now),
                );
            }
        }

        // 5. Receiver feedback timers.
        if now >= self.next_feedback {
            match self.config.cc {
                CcMode::Static { .. } => {
                    self.next_feedback = SimTime::MAX; // no feedback stream
                }
                CcMode::Gcc => {
                    self.next_feedback = now + TWCC_INTERVAL;
                    if self.twcc_rec.build_feedback_into(&mut self.twcc_fb) {
                        let wire = self.twcc_fb.serialize();
                        self.netem_seq += 1;
                        self.downlink.enqueue(
                            now,
                            Packet::new(self.netem_seq, wire, PacketKind::Feedback, now),
                        );
                    }
                }
                CcMode::Scream { .. } => {
                    self.next_feedback = now + CCFB_INTERVAL;
                    if self.ccfb.build_into(now, &mut self.ccfb_pkt) {
                        let wire = self.ccfb_pkt.serialize();
                        self.netem_seq += 1;
                        self.downlink.enqueue(
                            now,
                            Packet::new(self.netem_seq, wire, PacketKind::Feedback, now),
                        );
                    }
                }
            }
        }

        // 6. Feedback arrivals at the sender. PLIs ride the same RTCP
        // stream as the transport feedback and are discriminated by their
        // FMT/PT bytes; they work under every CC mode, including Static.
        self.downlink.drain_due(now, &mut arrivals);
        for pkt in arrivals.drain(..) {
            if pkt.corrupted {
                self.metrics.corrupted_arrivals += 1;
            }
            if Pli::parse(pkt.payload.clone()).is_ok() {
                self.encoder.force_keyframe();
                self.metrics.plis_received += 1;
                continue;
            }
            if let Ok(nack) = Nack::parse(pkt.payload.clone()) {
                // Retransmit verbatim from the history ring, within the
                // repair budget. RTX rides the media direction but is not
                // fresh media: it is neither re-counted as sent nor given
                // a transport-wide sequence, so CC feedback ignores it.
                if self.config.repair {
                    for p in self.rtx.on_nack(&nack) {
                        self.netem_seq += 1;
                        let wire = p.serialize();
                        self.uplink.enqueue(
                            now,
                            Packet::new(self.netem_seq, wire, PacketKind::Media, now),
                        );
                    }
                }
                continue;
            }
            if self.cc.on_feedback(pkt.payload.clone(), now) {
                self.encoder.set_target_bitrate(self.cc.target_bps());
            } else {
                self.metrics.malformed_packets += 1;
            }
        }

        // 7. Jitter buffer → depacketizer → SSIM → player.
        while let Some((playout, rtp)) = self.jitter.pop_due(now) {
            self.depack.push(&rtp, playout);
        }
        if let Some(highest) = self.depack.highest_frame() {
            let flush_before = highest.saturating_sub(2);
            let mut drained = std::mem::take(&mut self.drained);
            self.depack.drain_into(flush_before, &mut drained);
            for frame in drained.drain(..) {
                let n = frame.meta.frame_number;
                // A gap in delivered frame numbers means a frame vanished
                // entirely: the decoder's reference chain is broken.
                if let Some(last) = self.last_frame_to_player {
                    if n > last + 1 {
                        self.ref_intact = false;
                    }
                }
                self.last_frame_to_player = Some(n);
                let complete = frame.is_complete();
                let ssim = quality::frame_ssim(
                    &self.source,
                    n,
                    frame.meta.frame_bytes,
                    frame.received_fraction(),
                    self.ref_intact,
                );
                // Reference recovers at the next intact keyframe.
                if complete && frame.meta.keyframe {
                    self.ref_intact = true;
                } else if !complete {
                    self.ref_intact = false;
                }
                self.player.push(DecodedFrame {
                    frame_number: n,
                    encode_time: frame.meta.encode_time,
                    ssim,
                });
            }
            self.drained = drained;
        }
        let mut played = std::mem::take(&mut self.played);
        self.player.poll_into(now, &mut played);
        for ev in played.drain(..) {
            self.metrics.frames.push(FrameRecord {
                number: ev.frame_number,
                display_at: ev.display_time,
                latency_ms: ev.latency.map(|l| l.as_millis_f64()),
                ssim: ev.ssim,
                displayed: ev.displayed,
            });
        }
        self.played = played;

        // 8. Keyframe recovery: while the decoder's reference chain stays
        // broken, nag the sender with rate-limited PLIs until an intact IDR
        // arrives. The PLI travels the feedback direction, so a true link
        // blackout kills it too — recovery then starts when the link does.
        let pli_due = match self.last_pli {
            Some(t) => now.saturating_since(t) >= PLI_MIN_INTERVAL,
            None => true,
        };
        if !self.ref_intact && pli_due {
            let pli = Pli {
                sender_ssrc: RECEIVER_SSRC,
                media_ssrc: MEDIA_SSRC,
            };
            self.netem_seq += 1;
            self.downlink.enqueue(
                now,
                Packet::new(self.netem_seq, pli.serialize(), PacketKind::Feedback, now),
            );
            self.metrics.plis_sent += 1;
            self.last_pli = Some(now);
        }
        // Hand the (now empty) scratch buffer back for the next tick.
        self.arrivals = arrivals;
    }

    /// Re-derive the jitter target from the base and the inflation level.
    /// The NACK generator's playout budget tracks it: an inflated buffer
    /// buys retransmissions more time to make their deadline.
    fn apply_jitter_target(&mut self) {
        let factor = JITTER_INFLATE_FACTOR.powi(self.jitter_level as i32);
        let us = self.jitter_base_target.as_millis_f64() * factor * 1_000.0;
        let target = SimDuration::from_micros(us as u64);
        self.jitter.set_target(target);
        self.nack_gen.set_playout_budget(target);
    }

    /// Offer one media packet to the uplink, applying the altitude loss.
    /// With repair enabled the packet enters the RTX history ring *before*
    /// the loss draw — retransmission exists precisely for packets the
    /// network ate.
    fn send_media(tx: MediaTx<'_>, extra_loss_prob: f64, now: SimTime, rtp: RtpPacket) {
        tx.metrics.media_sent += 1;
        if let Some(rtx) = tx.rtx {
            rtx.record(&rtp);
        }
        if tx.extra_loss_rng.chance(extra_loss_prob) {
            return; // high-altitude loss event (§4.2.1)
        }
        *tx.netem_seq += 1;
        let wire = rtp.serialize();
        tx.uplink.enqueue(
            now,
            Packet::new(*tx.netem_seq, wire, PacketKind::Media, now),
        );
    }

    /// Access the configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpav_lte::Environment;

    fn quick(cc: CcMode, env: Environment, mobility: Mobility) -> RunMetrics {
        // Shorter holds to keep unit-test runtime low.
        let cfg = ExperimentConfig::builder()
            .environment(env)
            .mobility(mobility)
            .cc(cc)
            .seed(0xC0FFEE)
            .hold_secs(1)
            .ground_sweeps(1)
            .build();
        Simulation::new(cfg).run()
    }

    #[test]
    fn static_urban_flight_delivers_high_quality_video() {
        let m = quick(
            CcMode::paper_static(Environment::Urban),
            Environment::Urban,
            Mobility::Air,
        );
        // Goodput close to the 25 Mbps static rate.
        assert!(
            m.goodput_bps() > 15e6,
            "goodput {:.1} Mbps",
            m.goodput_bps() / 1e6
        );
        // Loss is tiny (bufferbloat, not drops).
        assert!(m.per() < 0.02, "PER {}", m.per());
        // Playback happened, mostly at high SSIM.
        assert!(m.frames.len() > 1_000, "{} frames", m.frames.len());
        let ssim = m.ssim_samples();
        let good = ssim.iter().filter(|s| **s > 0.8).count() as f64 / ssim.len() as f64;
        assert!(good > 0.7, "only {good:.2} of frames above 0.8 SSIM");
    }

    #[test]
    fn gcc_adapts_in_rural() {
        let m = quick(CcMode::Gcc, Environment::Rural, Mobility::Air);
        // GCC should find a rate in the rural capacity neighbourhood
        // (≈8–12 Mbps) — well above its 2 Mbps start, well below 25.
        let g = m.goodput_bps();
        assert!((3e6..15e6).contains(&g), "goodput {:.1} Mbps", g / 1e6);
        assert!(m.per() < 0.05);
        // One-way latency mostly double-digit ms.
        let owd = m.owd_ms();
        let median = crate::stats::quantile(&owd, 0.5);
        assert!((15.0..150.0).contains(&median), "median OWD {median} ms");
    }

    #[test]
    fn scream_runs_and_discards_on_congestion() {
        let m = quick(CcMode::paper_scream(), Environment::Rural, Mobility::Air);
        let g = m.goodput_bps();
        assert!((2e6..16e6).contains(&g), "goodput {:.1} Mbps", g / 1e6);
        assert!(m.frames.len() > 1_000);
    }

    #[test]
    fn playback_latency_mostly_within_threshold() {
        let m = quick(
            CcMode::paper_static(Environment::Urban),
            Environment::Urban,
            Mobility::Air,
        );
        let frac = m.playback_within(300.0);
        assert!(
            frac > 0.5,
            "only {frac:.2} of playback below 300 ms (expected well above half)"
        );
        // And latencies are ≥ the structural floor (≈ one-way + jitter
        // buffer ≈ 170 ms at minimum... allow decoder slack).
        let lat = m.playback_latency_ms();
        let p5 = crate::stats::quantile(&lat, 0.05);
        assert!(p5 > 100.0, "p5 playback latency {p5} ms is implausibly low");
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = || quick(CcMode::Gcc, Environment::Rural, Mobility::Air);
        let a = run();
        let b = run();
        assert_eq!(a.media_sent, b.media_sent);
        assert_eq!(a.media_received, b.media_received);
        assert_eq!(a.handovers.len(), b.handovers.len());
        assert_eq!(a.frames.len(), b.frames.len());
    }

    #[test]
    fn ground_run_executes() {
        let m = quick(
            CcMode::paper_static(Environment::Urban),
            Environment::Urban,
            Mobility::Ground,
        );
        assert!(m.media_sent > 0);
        assert!(m.frames.len() > 100);
    }
}
