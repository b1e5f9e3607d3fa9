//! The end-to-end measurement session: one UAV (or motorbike) node
//! streaming adaptive RTP video over the simulated LTE access + WAN to the
//! remote-pilot server, with CC feedback flowing back — over one modem
//! ([`Simulation::new`], the paper's rig) or several
//! ([`Simulation::multipath`], its future-work direction).
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
//! Everything advances on a 1 ms driver grid; radio state updates every
//! 100 ms (the modem cadence). One [`Simulation::run`] is one measurement
//! run of the campaign. `Simulation::step` is the only step function in
//! the crate: the multipath schemes add legs, a `LegScheduler` between
//! the congestion controller and the uplinks, and cross-leg dedup /
//! reassembly ahead of the receiver — never a second sender or receiver
//! (DESIGN.md §10).

use std::collections::VecDeque;

use rpav_lte::RadioModel;
use rpav_netem::{FaultScript, Packet, PacketKind};
use rpav_rtp::fec::{RsParityPacket, RS_FEC_PAYLOAD_TYPE};
use rpav_rtp::jitter::{JitterBuffer, JitterConfig};
use rpav_rtp::nack::{Arrival, Nack, NackConfig, NackGenerator};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::packetize::{Depacketizer, Packetizer, ReassembledFrame};
use rpav_rtp::pli::Pli;
use rpav_rtp::report::PathReport;
use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Packet};
use rpav_rtp::rtx::{RtxConfig, RtxSender};
use rpav_rtp::seqwindow::MediaIngress;
use rpav_rtp::twcc::{TwccFeedback, TwccRecorder};
use rpav_sim::{RngSet, SimDuration, SimTime};
use rpav_uav::{profiles as uav_profiles, FlightPlan, Position};
use rpav_video::player::{DecodedFrame, PlayedFrame};
use rpav_video::source::FRAME_INTERVAL_US;
use rpav_video::{quality, Encoder, EncoderConfig, Player, PlayerConfig, SourceVideo};

use crate::cc::CoupledCc;
use crate::lookahead::{Handoff, RadioFeed, RadioTrace};
use crate::metrics::{FrameRecord, HandoverRecord, RadioTraceRow, RunMetrics};
use crate::multipath::{
    leg_radio, Leg, LegScheduler, MultipathScheme, Reassembly, FEC_RECOVERY_DEADLINE, MEDIA_SSRC,
};
use crate::paths;
use crate::scenario::{CcMode, ExperimentConfig, Mobility, MAX_LEGS};

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
/// SSRC on the PLI wire: the receiver reports against the media stream.
const RECEIVER_SSRC: u32 = 0x1;

/// Round an event deadline up to the 1 ms driver grid the reference loop
/// runs on: the fast scheduler may only stop where the reference stops.
fn align_up_to_tick(t: SimTime) -> SimTime {
    SimTime::from_micros((t.as_micros().saturating_add(999) / 1_000).saturating_mul(1_000))
}

/// One full measurement run.
pub struct Simulation {
    config: ExperimentConfig,
    plan: FlightPlan,
    legs: Vec<Leg>,
    /// Leg `i`'s radio model at index `i`. A run lends them all to its
    /// radio lookahead and takes them back, stepped, when it ends.
    radios: Vec<RadioModel>,
    /// The multipath policy and monitoring plane (health clocks, path
    /// reports, probes, failover controller). `None` for the plain
    /// single-operator session, which then allocates none of it.
    scheduler: Option<LegScheduler>,
    // Sender state.
    source: SourceVideo,
    encoder: Encoder,
    packetizer: Packetizer,
    /// One engine, or one shadow engine per leg when the scheduler
    /// couples them.
    cc: CoupledCc,
    pending_frames: VecDeque<rpav_video::EncodedFrame>,
    rtx: RtxSender,
    // Receiver state.
    /// Reads every media arrival's sequence once (first copy wins across
    /// legs); the receivers below take its reading.
    ingress: MediaIngress,
    /// Bonded cross-leg reassembly.
    reassembly: Option<Reassembly>,
    jitter: JitterBuffer,
    depack: Depacketizer,
    nack_gen: NackGenerator,
    player: Player,
    /// CC feedback recorders, one pair per CC engine: a shadow engine
    /// only ever hears about its own leg's arrivals, so cross-leg delay
    /// variance cannot masquerade as congestion.
    recorders: Vec<(TwccRecorder, Rfc8888Builder)>,
    /// CC feedback, NACKs and PLIs ride the leg of the most recent
    /// accepted media arrival.
    last_media_leg: usize,
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
    outage_windows: Vec<(SimTime, SimTime)>,
    /// Reusable scratch for batch-draining path arrivals each tick.
    arrivals: Vec<Packet>,
    /// Reusable scratch for depacketizer drains each tick.
    drained: Vec<ReassembledFrame>,
    /// Reusable scratch for player display/skip events each tick.
    played: Vec<PlayedFrame>,
    /// Reusable scratch for freshly packetized frames, and for the
    /// retransmissions one NACK asks for.
    pkt_scratch: Vec<RtpPacket>,
    /// Reusable NACK value for the sender's parse path.
    nack_rx: Nack,
    /// Reusable TWCC feedback value for the receiver's build path.
    twcc_fb: TwccFeedback,
    /// Reusable RFC 8888 feedback value for the receiver's build path.
    ccfb_pkt: Rfc8888Packet,
    metrics: RunMetrics,
}

impl Simulation {
    /// Assemble a single-operator run from its configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        let rngs = RngSet::new(config.seed);
        let leg = Leg::new("pipe".into(), None, &config, &rngs);
        let radio = leg_radio(config.operator, &config, &rngs, config.run_index);
        Self::assemble(config, vec![leg], vec![radio], None)
    }

    /// Assemble a multipath run: `config.n_legs` modems (even legs ride
    /// `config.operator`, odd legs the other one) under `scheme`, every
    /// leg monitored. Entry `i` of `leg_scripts` (missing entries mean
    /// unscripted) hits both directions of leg `i` — a true link
    /// blackout; leg 0's blackout windows become per-outage recovery
    /// records, scripts beyond `config.n_legs` are ignored.
    pub fn multipath(
        config: ExperimentConfig,
        scheme: MultipathScheme,
        leg_scripts: Vec<Option<FaultScript>>,
    ) -> Self {
        let rngs = RngSet::new(config.seed);
        let n = config.n_legs.clamp(1, MAX_LEGS);
        let (legs, radios) = (0..n)
            .map(|li| {
                let op = if li % 2 == 0 {
                    config.operator
                } else {
                    config.secondary_operator()
                };
                let cap = config.leg_cap_bps.map(|c| if li == 0 { c.0 } else { c.1 });
                let prefix = paths::leg_stream_prefix(op.name(), li);
                let radio_index = config.run_index ^ ((li as u64) << 32);
                (
                    Leg::new(prefix, cap, &config, &rngs),
                    leg_radio(op, &config, &rngs, radio_index),
                )
            })
            .unzip();
        let scheduler = Some(LegScheduler::new(scheme, &config, n));
        let mut sim = Self::assemble(config, legs, radios, scheduler);
        for (li, script) in leg_scripts.into_iter().take(n).enumerate() {
            if let Some(script) = script {
                if li == 0 {
                    sim.outage_windows.extend(script.blackout_windows());
                }
                sim.legs[li].attach_script(true, script.clone(), &rngs, config.run_index);
                sim.legs[li].attach_script(false, script, &rngs, config.run_index);
            }
        }
        sim
    }

    fn assemble(
        config: ExperimentConfig,
        legs: Vec<Leg>,
        radios: Vec<RadioModel>,
        scheduler: Option<LegScheduler>,
    ) -> Self {
        let plan = match config.mobility {
            Mobility::Air => uav_profiles::paper_flight(Position::ground(0.0, 0.0), config.hold),
            Mobility::Ground => uav_profiles::ground_run(
                Position::ground(0.0, 0.0),
                config.ground_sweeps,
                config.hold,
            ),
        };
        let source = SourceVideo::new(config.seed ^ 0x5EED);
        let (coupled, reassembles, nack_hold) = scheduler
            .as_ref()
            .map_or((false, false, SimDuration::ZERO), |s| {
                (s.coupled(), s.reassembles(), s.nack_hold())
            });
        let cc = CoupledCc::new(
            config.cc,
            config.watchdog,
            if coupled { legs.len() } else { 1 },
        );
        let ack_span = match config.cc {
            CcMode::Scream { ack_span } => ack_span,
            _ => 64,
        };
        let encoder = Encoder::new(EncoderConfig::default(), source, cc.start_bitrate_bps());
        let jitter_target = config
            .jitter_target_override_ms
            .map(SimDuration::from_millis)
            .unwrap_or(JitterConfig::default().target);

        Simulation {
            config,
            plan,
            ingress: MediaIngress::new(legs.len()),
            reassembly: (reassembles && legs.len() > 1).then(Reassembly::new),
            source,
            encoder,
            packetizer: Packetizer::new(MEDIA_SSRC, cc.with_twcc()),
            recorders: (0..cc.n_legs())
                .map(|_| (TwccRecorder::new(), Rfc8888Builder::new(ack_span)))
                .collect(),
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
                initial_hold: nack_hold,
                ..Default::default()
            }),
            player: Player::new(PlayerConfig::default()),
            twcc_fb: TwccFeedback::empty(),
            ccfb_pkt: Rfc8888Packet::empty(),
            last_media_leg: 0,
            ref_intact: true,
            last_frame_to_player: None,
            last_pli: None,
            last_media_arrival: None,
            jitter_base_target: jitter_target,
            jitter_level: 0,
            last_jitter_event: SimTime::ZERO,
            next_radio: SimTime::ZERO,
            next_feedback: SimTime::ZERO,
            arrivals: Vec::new(),
            drained: Vec::new(),
            played: Vec::new(),
            pkt_scratch: Vec::new(),
            nack_rx: Nack::empty(),
            outage_windows: Vec::new(),
            metrics: RunMetrics::default(),
            legs,
            radios,
            scheduler,
        }
    }

    /// Attach a scripted fault campaign to the uplink (media) direction
    /// of leg 0. Timed media-direction blackouts become per-outage
    /// recovery records in the run's metrics.
    pub fn with_uplink_script(mut self, script: FaultScript) -> Self {
        self.outage_windows.extend(script.blackout_windows());
        let rngs = RngSet::new(self.config.seed);
        self.legs[0].attach_script(true, script, &rngs, self.config.run_index);
        self
    }

    /// Attach a scripted fault campaign to the downlink (feedback)
    /// direction of leg 0. Feedback-direction blackouts starve the CC but
    /// do not stop media, so they produce no per-outage recovery records.
    pub fn with_downlink_script(mut self, script: FaultScript) -> Self {
        let rngs = RngSet::new(self.config.seed);
        self.legs[0].attach_script(false, script, &rngs, self.config.run_index);
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
        self.run_loop(false, true, &mut 0)
    }

    /// Execute with the unconditional 1 ms reference loop. The adaptive
    /// scheduler must be byte-identical to this path;
    /// `tests/perf_equivalence.rs` holds it to that.
    pub fn run_reference(mut self) -> RunMetrics {
        self.run_loop(true, true, &mut 0)
    }

    /// Execute with the adaptive scheduler and also report how many driver
    /// steps the run took — the `ticks` `perf_matrix` gates exactly and the
    /// denominator of the benchmark's ns/tick. Metrics are identical to
    /// [`Simulation::run`].
    pub fn run_instrumented(mut self) -> (RunMetrics, u64) {
        let mut steps = 0u64;
        let metrics = self.run_loop(false, true, &mut steps);
        (metrics, steps)
    }

    /// Drive the run to its end. `lookahead` steps the radio on a helper
    /// thread; without it (or when the OS refuses the thread) the session
    /// runs the same producer inline, with the same results.
    fn run_loop(&mut self, reference: bool, lookahead: bool, steps: &mut u64) -> RunMetrics {
        let flight_end = SimTime::ZERO + self.plan.duration();
        let end = flight_end + DRAIN;
        // Largest driver-grid instant strictly before `end`: the last tick
        // the reference loop visits. The fast path must always land on it —
        // per-tick state such as the watchdog's feedback-gap stat takes its
        // final sample there.
        let last_tick = SimTime::from_micros((end.as_micros() - 1) / 1_000 * 1_000);
        let trace = RadioTrace::new(std::mem::take(&mut self.radios), self.plan.clone(), end);
        // Lengths known before the run: one radio row per radio tick, at
        // most one frame record per encoder capture.
        self.metrics.radio.reserve_exact(trace.ticks());
        let captures = flight_end.as_micros().div_ceil(FRAME_INTERVAL_US);
        self.metrics.frames.reserve_exact(captures as usize);
        let handoff = Handoff::new(trace);
        std::thread::scope(|scope| {
            let mut radio = handoff.start(scope, lookahead);
            let mut t = SimTime::ZERO;
            while t < end {
                *steps += 1;
                self.step(t, flight_end, &mut radio);
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
        });
        self.radios = handoff.into_models();
        self.metrics.duration = self.plan.duration();
        let pstats = self.player.stats();
        self.metrics.stalls = pstats.stalls;
        self.metrics.stalled_time = pstats.stalled_time;
        self.metrics.frames_late_discarded = pstats.late_discarded;
        self.metrics.distinct_cells = self.radios[0].distinct_cells();
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
        for (li, leg) in self.legs.iter().enumerate() {
            self.metrics.script_dropped += leg.script_dropped();
            if self.scheduler.is_some() {
                self.metrics.path_health.push(leg.health_summary(li));
            }
        }
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
    ///
    /// A session with a monitoring plane applies the same clamp for the
    /// whole run: its health clocks accrue time-in-class per tick.
    fn next_deadline(&self, now: SimTime, flight_end: SimTime) -> SimTime {
        if self.scheduler.is_some() {
            return now;
        }
        // `next_radio` is always armed, so the fold starts from it and every
        // other source can only pull the deadline earlier.
        let mut deadline = self.next_radio;
        let mut fold = |wake: Option<SimTime>| {
            if let Some(w) = wake {
                deadline = deadline.min(w);
            }
        };
        let capture = self.encoder.next_capture();
        fold((capture < flight_end).then_some(capture));
        fold(self.pending_frames.front().map(|f| f.ready_at));
        fold(self.cc.next_wake(now));
        for leg in &self.legs {
            fold(leg.uplink.next_wake_scripted(now));
            fold(leg.downlink.next_wake_scripted(now));
        }
        if self.config.repair {
            fold(self.nack_gen.next_wake());
        }
        // An unarmed feedback timer is `SimTime::MAX` and folds away.
        fold(Some(self.next_feedback));
        fold(self.jitter.next_wake());
        fold(self.player.next_wake());
        if self.jitter_level > 0 {
            fold(Some(self.last_jitter_event + JITTER_DECAY_AFTER));
        }
        if !self.ref_intact {
            fold(Some(self.last_pli.map_or(now, |t| t + PLI_MIN_INTERVAL)));
        }
        deadline
    }

    fn step(&mut self, now: SimTime, flight_end: SimTime, radio: &mut RadioFeed) {
        // 1. Radio tick: apply each leg's sample, stepped ahead by the
        // lookahead — re-rate links, register handovers. Handover records
        // and the radio trace follow the primary leg.
        if now >= self.next_radio {
            self.next_radio = now + radio.tick();
            for (li, (leg, tick)) in self.legs.iter_mut().zip(radio.next(now)).enumerate() {
                let (pos, sample) = (tick.pos, tick.sample);
                leg.apply_radio(now, &pos, &sample);
                if li > 0 {
                    continue;
                }
                if let Some(ho) = sample.handover {
                    self.metrics.handovers.push(HandoverRecord {
                        at: ho.at,
                        het: ho.het(),
                        kind: ho.kind,
                        from: ho.from.0,
                        to: ho.to.0,
                    });
                }
                self.metrics.radio.push(RadioTraceRow {
                    t: now,
                    altitude_m: pos.z,
                    capacity_bps: sample.uplink_capacity_bps,
                    rsrp_dbm: sample.rsrp_dbm,
                    sinr_db: sample.sinr_db,
                    in_handover: sample.in_handover,
                });
            }
        }
        // 1b. Sender-side health clocks and the switch decision.
        if let Some(s) = &mut self.scheduler {
            s.on_tick(now, &mut self.legs, &mut self.metrics);
        }

        // 2. Encoder: produce frames while the flight lasts; a frame is
        // packetized and staged with the CC once its encode latency ran.
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
            let packets = &mut self.pkt_scratch;
            self.packetizer
                .packetize_into(frame.meta, frame.meta.encode_time, packets);
            match &mut self.scheduler {
                Some(s) => s.admit(
                    now,
                    packets,
                    &mut self.cc,
                    &mut self.legs,
                    &mut self.metrics,
                ),
                None => self.cc.enqueue_leg_drain(0, now, packets),
            }
        }

        // 3. Feedback-starvation watchdogs, then CC-gated transmission.
        // The watchdogs run on the driver tick: they are what lets the
        // sender react to a feedback blackout at all, so the encoder target
        // must follow their cap, not just the feedback arrivals. With
        // repair enabled a packet enters the RTX history *before* any
        // loss draw — retransmission exists precisely for packets the
        // network ate.
        let target = self.cc.on_tick(now);
        self.encoder.set_target_bitrate(target);
        if let Some(s) = &mut self.scheduler {
            s.flush_parity(now, &mut self.legs, &mut self.metrics);
        }
        for engine in 0..self.cc.n_legs() {
            while let Some(rtp) = self.cc.poll_transmit_leg(engine, now) {
                self.metrics.media_sent += 1;
                if self.config.repair {
                    self.rtx.record(&rtp);
                }
                match &mut self.scheduler {
                    Some(s) => {
                        let pinned = s.coupled().then_some(engine);
                        s.send(now, pinned, &rtp, &mut self.legs, &mut self.metrics);
                    }
                    None => self.legs[0].send_media(now, &rtp),
                }
            }
        }

        // 3b. Sender-side repair budget: the RTX token bucket refills at a
        // fraction of whatever the CC currently targets, so repair can
        // never starve fresh media. Then the keep-warm probes.
        if self.config.repair {
            self.rtx.refill(now, self.cc.target_bps());
        }
        if let Some(s) = &mut self.scheduler {
            s.probe(now, &mut self.legs, &mut self.metrics);
        }

        // 4. Uplink arrivals at the server. Corrupted packets are not
        // silently dropped: the damaged bytes go to the hardened parsers,
        // which either reject them (counted as malformed) or survive the
        // flip — exactly what a real receiver without UDP checksums sees.
        let monitored = self.scheduler.is_some();
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for (li, leg) in self.legs.iter_mut().enumerate() {
            leg.uplink.drain_due(now, &mut arrivals);
            for pkt in arrivals.drain(..) {
                if pkt.corrupted {
                    self.metrics.corrupted_arrivals += 1;
                }
                if monitored {
                    leg.on_arrival(now, &pkt);
                    if pkt.kind == PacketKind::Probe {
                        continue;
                    }
                }
                let Ok(rtp) = RtpPacket::parse(pkt.payload) else {
                    self.metrics.malformed_packets += 1;
                    continue;
                };
                if let Some(reassembly) = &mut self.reassembly {
                    if rtp.payload_type == RS_FEC_PAYLOAD_TYPE {
                        // Parity stream: queued against the playout
                        // deadline, never enters the media pipeline.
                        match RsParityPacket::parse_payload(rtp.payload) {
                            Ok(fp) => reassembly.push_parity(now + FEC_RECOVERY_DEADLINE, fp),
                            Err(_) => self.metrics.malformed_packets += 1,
                        }
                        continue;
                    }
                }
                let Some(reading) = self.ingress.read(rtp.sequence, rtp.timestamp) else {
                    self.metrics.duplicate_packets += 1;
                    continue;
                };
                let owd_ms = now.saturating_since(pkt.sent_at).as_millis_f64();
                // Classify against the gap tracker before any accounting: a
                // duplicate delivery (network dup, or an RTX racing its
                // reordered original) must not count as received media twice.
                match self.nack_gen.on_arrival(now, reading) {
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
                // instead of causing skips. The NACK generator's playout
                // budget tracks it: an inflated buffer buys retransmissions
                // more time to make their deadline.
                if let Some(prev) = self.last_media_arrival {
                    if now.saturating_since(prev) >= OUTAGE_GAP {
                        if self.jitter_level < JITTER_MAX_LEVEL {
                            self.jitter_level += 1;
                            self.metrics.jitter_inflations += 1;
                            let target = jitter_target(self.jitter_base_target, self.jitter_level);
                            self.jitter.set_target(target);
                            self.nack_gen.set_playout_budget(target);
                        }
                        self.last_jitter_event = now;
                    }
                }
                self.last_media_arrival = Some(now);
                self.last_media_leg = li;
                let (twcc, ccfb) = &mut self.recorders[li.min(self.cc.n_legs() - 1)];
                match self.config.cc {
                    CcMode::Gcc => {
                        if let Some(ts) = rtp.transport_seq {
                            twcc.on_packet(ts, now);
                        }
                    }
                    CcMode::Scream { .. } => ccfb.on_arrival(reading.seq, now),
                    CcMode::Static { .. } => {}
                }
                if let Some(reassembly) = &mut self.reassembly {
                    // Cross-leg reorder accounting, then into the bounded
                    // reassembly window.
                    if self.ingress.reordered(reading.seq) {
                        self.metrics.reorder_buffered += 1;
                    }
                    reassembly.push_media(&rtp);
                }
                self.jitter.offer(now, reading.seq, rtp);
            }
        }
        // 4a. FEC recovery, before the NACK/RTX path ever spends a round
        // trip on the holes.
        if let Some(reassembly) = &mut self.reassembly {
            reassembly.recover(now, |rec, multi| {
                let Some(reading) = self.ingress.read(rec.sequence, rec.timestamp) else {
                    // The original landed after all (late copy or an
                    // RTX won the race): nothing left to repair.
                    return false;
                };
                self.metrics.fec_recovered += 1;
                if multi {
                    // XOR could never have repaired this packet: its
                    // group lost more than one member.
                    self.metrics.fec_multi_recovered += 1;
                }
                self.metrics.media_received += 1;
                self.metrics.media_received_bytes += rec.payload.len() as u64;
                // Cancels any pending retransmission request for this
                // sequence.
                self.nack_gen.on_arrival(now, reading);
                self.jitter.offer(now, reading.seq, rec.clone());
                true
            });
        }
        // Sustained clean delivery lets the inflated jitter target decay
        // back toward its base, one level at a time.
        if self.jitter_level > 0
            && now.saturating_since(self.last_jitter_event) >= JITTER_DECAY_AFTER
        {
            self.jitter_level -= 1;
            let target = jitter_target(self.jitter_base_target, self.jitter_level);
            self.jitter.set_target(target);
            self.nack_gen.set_playout_budget(target);
            self.last_jitter_event = now;
        }
        // 4b. Receiver-side repair: emit the next debounced NACK batch.
        // The generator abandons anything whose playout deadline a
        // round trip can no longer beat; those losses escalate to the
        // reference-break → PLI path below.
        if self.config.repair {
            if let Some(nack) = self.nack_gen.poll(now) {
                self.legs[self.last_media_leg].send_down(now, nack.serialize());
            }
        }

        // 5. Receiver feedback timers: each engine's CC feedback (on its
        // own leg when coupled), then the per-leg path reports.
        if now >= self.next_feedback {
            // Static has no feedback stream.
            self.next_feedback = self
                .cc
                .feedback_interval()
                .map_or(SimTime::MAX, |interval| now + interval);
            let coupled = self.recorders.len() > 1;
            for (engine, (twcc, ccfb)) in self.recorders.iter_mut().enumerate() {
                let wire = match self.config.cc {
                    CcMode::Gcc => twcc
                        .build_feedback_into(&mut self.twcc_fb)
                        .then(|| self.twcc_fb.serialize()),
                    CcMode::Scream { .. } => ccfb
                        .build_into(now, &mut self.ccfb_pkt)
                        .then(|| self.ccfb_pkt.serialize()),
                    CcMode::Static { .. } => None,
                };
                if let Some(wire) = wire {
                    let li = if coupled { engine } else { self.last_media_leg };
                    self.legs[li].send_down(now, wire);
                }
            }
        }
        if monitored {
            for (li, leg) in self.legs.iter_mut().enumerate() {
                leg.poll_report(now, li);
            }
        }

        // 6. Feedback arrivals at the sender, from any leg. PLIs ride the
        // same RTCP stream as the transport feedback and are discriminated
        // by their FMT/PT bytes; they work under every CC mode, including
        // Static. Path reports feed the leg's health.
        for (li, leg) in self.legs.iter_mut().enumerate() {
            leg.downlink.drain_due(now, &mut arrivals);
            for pkt in arrivals.drain(..) {
                if pkt.corrupted {
                    self.metrics.corrupted_arrivals += 1;
                }
                if Pli::parse(pkt.payload.clone()).is_ok() {
                    self.encoder.force_keyframe();
                    self.metrics.plis_received += 1;
                    continue;
                }
                if monitored {
                    if let Ok(report) = PathReport::parse(pkt.payload.clone()) {
                        self.metrics.path_reports_received += 1;
                        leg.on_report(now, report, pkt.sent_at);
                        continue;
                    }
                }
                if Nack::parse_into(pkt.payload.clone(), &mut self.nack_rx).is_ok() {
                    // Retransmit verbatim from the RTX history, within the
                    // repair budget, on the leg whose feedback carried the
                    // request — known to be delivering. RTX rides the media
                    // direction but is not fresh media: it is neither
                    // re-counted as sent nor given a transport-wide
                    // sequence, so CC feedback ignores it.
                    if self.config.repair {
                        self.rtx.on_nack_into(&self.nack_rx, &mut self.pkt_scratch);
                        for p in self.pkt_scratch.drain(..) {
                            leg.send_up(now, p.serialize(), PacketKind::Media);
                        }
                    }
                    continue;
                }
                // Each leg's feedback goes to its own shadow engine.
                let engine = li.min(self.cc.n_legs() - 1);
                if self.cc.on_feedback_leg(engine, pkt.payload, now) {
                    self.encoder.set_target_bitrate(self.cc.target_bps());
                } else {
                    self.metrics.malformed_packets += 1;
                }
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
            self.legs[self.last_media_leg].send_down(now, pli.serialize());
            self.metrics.plis_sent += 1;
            self.last_pli = Some(now);
        }
        // Hand the (now empty) scratch buffer back for the next tick.
        self.arrivals = arrivals;
    }

    /// Access the configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }
}

/// The jitter target at an inflation level.
fn jitter_target(base: SimDuration, level: u32) -> SimDuration {
    let factor = JITTER_INFLATE_FACTOR.powi(level as i32);
    SimDuration::from_micros((base.as_millis_f64() * factor * 1_000.0) as u64)
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
    fn leg_script_reorder_windows_reach_the_feedback_direction() {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::Gcc)
            .seed(0xC0FFEE)
            .hold_secs(1)
            .build();
        let script =
            FaultScript::new().reorder_window(SimTime::ZERO, SimDuration::from_secs(60), 0.2, 4);
        let mut sim =
            Simulation::multipath(cfg, MultipathScheme::Failover, vec![None, Some(script)]);
        sim.run_loop(false, true, &mut 0);
        // The standby carries probes up and path reports down.
        let held = |p: &rpav_netem::Path| p.reorder_stats().map(|s| s.held);
        assert!(held(&sim.legs[1].uplink) > Some(0));
        assert!(held(&sim.legs[1].downlink) > Some(0));
        assert_eq!(held(&sim.legs[0].downlink), None);
    }

    /// The lookahead radio equals the inline radio: a single-path air
    /// cell, a 2-leg failover cell and a 4-leg bonded FEC cell produce the
    /// same canonical bytes with the helper thread and with the producer
    /// run inline, under the adaptive and the reference driver alike.
    #[test]
    fn the_lookahead_radio_equals_the_inline_radio() {
        let cfg = |n_legs: usize, seed: u64| {
            ExperimentConfig::builder()
                .environment(Environment::Urban)
                .cc(CcMode::Gcc)
                .seed(seed)
                .hold_secs(1)
                .n_legs(n_legs)
                .fec_cap(0.25)
                .repair(true)
                .build()
        };
        type Build = fn(ExperimentConfig) -> Simulation;
        let cells: [(&str, ExperimentConfig, Build); 3] = [
            ("single/air", cfg(1, 0x10_0C01), Simulation::new),
            ("failover/2", cfg(2, 0x10_0C02), |c| {
                Simulation::multipath(c, MultipathScheme::Failover, Vec::new())
            }),
            ("bonded-fec/4", cfg(4, 0x10_0C03), |c| {
                Simulation::multipath(c, MultipathScheme::Bonded, Vec::new())
            }),
        ];
        for (label, config, build) in cells {
            for reference in [false, true] {
                let run = |lookahead| build(config).run_loop(reference, lookahead, &mut 0);
                let (ahead, inline) = (run(true), run(false));
                assert!(!ahead.radio.is_empty() && !ahead.handovers.is_empty());
                assert!(
                    ahead.to_bytes() == inline.to_bytes(),
                    "{label} (reference {reference}): the helper's radio diverged from the inline one"
                );
            }
        }
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
