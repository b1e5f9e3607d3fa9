//! The sender-side congestion-control engine of a session.
//!
//! One [`CcEngine`] wraps the §3.2 workload behaviours behind a uniform
//! enqueue/poll interface:
//!
//! * **Static** — constant target, packets forwarded unpaced;
//! * **GCC** — send-side bandwidth estimation from TWCC feedback, with a
//!   token-bucket pacer at 1.5× the target rate;
//! * **SCReAM** — self-clocked transmission from RFC 8888 feedback.
//!
//! The adaptive controllers embed the shared feedback-starvation watchdog
//! (`rpav-sim`), so a feedback blackout decays the target toward a floor
//! and the ramp back is metered — which is also what makes the CC state
//! *carryable* across a failover switch: the engine is path-agnostic, the
//! starvation watchdog provides the rate cut while the old path is dark,
//! and the metered ramp re-probes the new path once feedback resumes
//! (see DESIGN.md §8 for the switch policy).

use std::collections::VecDeque;

use bytes::Bytes;
use rpav_gcc::{GccConfig, SendSideBwe};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::rfc8888::Rfc8888Packet;
use rpav_rtp::twcc::TwccFeedback;
use rpav_scream::{ScreamConfig, ScreamSender, ScreamStats};
use rpav_sim::{SimDuration, SimTime, WatchdogConfig, WatchdogStats};

use crate::scenario::CcMode;

/// TWCC feedback interval (GCC).
pub const TWCC_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// RFC 8888 feedback interval (SCReAM library default, §4.2.1: 10 ms).
pub const CCFB_INTERVAL: SimDuration = SimDuration::from_millis(10);
/// Pacer burst cap: at most this many bytes of accumulated send credit.
const PACER_BURST_BYTES: f64 = 60_000.0;
/// Pacer rate factor over the GCC target.
const PACER_FACTOR: f64 = 1.5;
/// Adaptive controllers start probing from this rate.
const ADAPTIVE_START_BPS: f64 = 2e6;
/// Guard subtracted from computed pacer wake times: the wake inverts the
/// forward budget arithmetic in floating point, and the two can disagree
/// by a few ULP. Waking a microsecond early is a no-op; waking late
/// diverges from the reference tick loop.
const WAKE_GUARD: SimDuration = SimDuration::from_micros(1);

/// One congestion-control workload, behind a uniform interface.
pub enum CcEngine {
    /// Constant bitrate; packets pass straight through.
    Static {
        /// The fixed target.
        bitrate_bps: f64,
        /// Pass-through staging queue (drained every tick).
        queue: VecDeque<RtpPacket>,
    },
    /// Google congestion control + token-bucket pacer.
    Gcc {
        /// The delay/loss-based bandwidth estimator.
        bwe: SendSideBwe,
        /// Paced send queue.
        queue: VecDeque<RtpPacket>,
        /// Current send credit (bytes).
        budget_bytes: f64,
        /// Last credit refill instant.
        last_refill: SimTime,
    },
    /// SCReAM self-clocked sender.
    Scream {
        /// The windowed sender (owns its RTP queue).
        sender: ScreamSender,
    },
}

impl CcEngine {
    /// Build the engine for a workload. `watchdog` configures the
    /// feedback-starvation mitigation inside the adaptive controllers.
    pub fn new(mode: CcMode, watchdog: WatchdogConfig) -> CcEngine {
        match mode {
            CcMode::Static { bitrate_bps } => CcEngine::Static {
                bitrate_bps,
                queue: VecDeque::new(),
            },
            CcMode::Gcc => CcEngine::Gcc {
                bwe: SendSideBwe::new(GccConfig {
                    watchdog,
                    ..Default::default()
                }),
                queue: VecDeque::new(),
                budget_bytes: 0.0,
                last_refill: SimTime::ZERO,
            },
            CcMode::Scream { .. } => CcEngine::Scream {
                sender: ScreamSender::new(ScreamConfig {
                    watchdog,
                    ..Default::default()
                }),
            },
        }
    }

    /// The encoder's starting bitrate under this workload.
    pub fn start_bitrate_bps(&self) -> f64 {
        match self {
            CcEngine::Static { bitrate_bps, .. } => *bitrate_bps,
            _ => ADAPTIVE_START_BPS,
        }
    }

    /// Whether media packets need the transport-wide sequence extension.
    pub fn with_twcc(&self) -> bool {
        matches!(self, CcEngine::Gcc { .. })
    }

    /// Receiver feedback cadence; `None` for Static (no feedback stream).
    pub fn feedback_interval(&self) -> Option<SimDuration> {
        match self {
            CcEngine::Static { .. } => None,
            CcEngine::Gcc { .. } => Some(TWCC_INTERVAL),
            CcEngine::Scream { .. } => Some(CCFB_INTERVAL),
        }
    }

    /// The current target bitrate (watchdog cap already applied by the
    /// embedded controllers).
    pub fn target_bps(&self) -> f64 {
        match self {
            CcEngine::Static { bitrate_bps, .. } => *bitrate_bps,
            CcEngine::Gcc { bwe, .. } => bwe.target_bitrate_bps(),
            CcEngine::Scream { sender } => sender.target_bitrate_bps(),
        }
    }

    /// Advance controller timers (feedback-starvation watchdogs included)
    /// and return the target the encoder should follow.
    pub fn on_tick(&mut self, now: SimTime) -> f64 {
        match self {
            CcEngine::Static { bitrate_bps, .. } => *bitrate_bps,
            CcEngine::Gcc { bwe, .. } => {
                bwe.on_tick(now);
                bwe.target_bitrate_bps()
            }
            CcEngine::Scream { sender } => {
                sender.on_tick(now);
                sender.target_bitrate_bps()
            }
        }
    }

    /// Stage freshly packetized media for transmission.
    pub fn enqueue(&mut self, now: SimTime, mut packets: Vec<RtpPacket>) {
        self.enqueue_drain(now, &mut packets);
    }

    /// Drain-style variant of [`enqueue`](Self::enqueue): moves the packets
    /// out but leaves the vector (and its capacity) with the caller, so a
    /// per-frame scratch buffer can be reused indefinitely.
    pub fn enqueue_drain(&mut self, now: SimTime, packets: &mut Vec<RtpPacket>) {
        match self {
            CcEngine::Static { queue, .. } => queue.extend(packets.drain(..)),
            CcEngine::Gcc { queue, .. } => queue.extend(packets.drain(..)),
            CcEngine::Scream { sender } => sender.enqueue_drain(now, packets),
        }
    }

    /// Pop the next packet the controller allows onto the wire right now,
    /// if any. GCC records the departure into its estimator here.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<RtpPacket> {
        match self {
            CcEngine::Static { queue, .. } => queue.pop_front(),
            CcEngine::Gcc {
                bwe,
                queue,
                budget_bytes,
                last_refill,
            } => {
                // Token-bucket pacer at 1.5× the target rate. Repeated
                // calls within one tick add zero credit (dt = 0).
                let dt = now.saturating_since(*last_refill).as_secs_f64();
                *last_refill = now;
                let rate = bwe.target_bitrate_bps() * PACER_FACTOR;
                *budget_bytes = (*budget_bytes + rate * dt / 8.0).min(PACER_BURST_BYTES);
                let size = queue.front().map(|p| p.wire_size())?;
                if *budget_bytes < size as f64 {
                    return None;
                }
                let p = queue.pop_front()?;
                *budget_bytes -= size as f64;
                if let Some(ts) = p.transport_seq {
                    bwe.on_packet_sent(ts, now, p.wire_size());
                }
                Some(p)
            }
            CcEngine::Scream { sender } => sender.poll_transmit(now),
        }
    }

    /// Earliest future instant the engine needs the driver's attention: a
    /// watchdog edge, a pacer refill that unblocks the queue head, or a
    /// SCReAM window event. `None` when the engine stays idle until new
    /// input (a frame enqueue or a feedback arrival). May be conservative
    /// (at or before the true edge); early polls are no-ops.
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        match self {
            CcEngine::Static { queue, .. } => (!queue.is_empty()).then_some(now),
            CcEngine::Gcc {
                bwe,
                queue,
                budget_bytes,
                last_refill,
            } => {
                let mut wake = bwe.next_wake();
                if let Some(p) = queue.front() {
                    let need = (p.wire_size() as f64 - *budget_bytes).max(0.0);
                    let rate = bwe.target_bitrate_bps() * PACER_FACTOR;
                    let ready = if rate > 0.0 {
                        *last_refill
                            + SimDuration::from_secs_f64(need * 8.0 / rate)
                                .saturating_sub(WAKE_GUARD)
                    } else {
                        *last_refill
                    };
                    wake = Some(wake.map_or(ready, |w| w.min(ready)));
                }
                wake
            }
            CcEngine::Scream { sender } => {
                SimTime::earliest(sender.next_wake(), sender.next_tick_wake())
            }
        }
    }

    /// Offer a feedback payload to the controller. Returns `true` when
    /// the bytes parsed as this workload's dialect and were applied;
    /// `false` otherwise (the caller counts it as malformed — Static has
    /// no feedback dialect, so everything is unexpected there).
    pub fn on_feedback(&mut self, payload: Bytes, now: SimTime) -> bool {
        // Feedback arrives every 10–50 ms per leg; parsing into per-thread
        // scratch values keeps the decode vectors warm instead of
        // allocating one per round (DESIGN.md §15.3).
        thread_local! {
            static TWCC_FB: std::cell::RefCell<TwccFeedback> =
                std::cell::RefCell::new(TwccFeedback::empty());
            static CCFB: std::cell::RefCell<Rfc8888Packet> =
                std::cell::RefCell::new(Rfc8888Packet::empty());
        }
        match self {
            CcEngine::Static { .. } => false,
            CcEngine::Gcc { bwe, .. } => TWCC_FB.with(|cell| {
                let fb = &mut *cell.borrow_mut();
                match TwccFeedback::parse_into(payload, fb) {
                    Ok(()) => {
                        bwe.on_feedback(fb, now);
                        true
                    }
                    Err(_) => false,
                }
            }),
            CcEngine::Scream { sender } => CCFB.with(|cell| {
                let fb = &mut *cell.borrow_mut();
                match Rfc8888Packet::parse_into(payload, fb) {
                    Ok(()) => {
                        sender.on_feedback(fb, now);
                        true
                    }
                    Err(_) => false,
                }
            }),
        }
    }

    /// Feedback-starvation watchdog counters (`None` for Static).
    pub fn watchdog_stats(&self) -> Option<WatchdogStats> {
        match self {
            CcEngine::Static { .. } => None,
            CcEngine::Gcc { bwe, .. } => Some(bwe.watchdog_stats()),
            CcEngine::Scream { sender } => Some(sender.watchdog_stats()),
        }
    }

    /// SCReAM sender counters (`None` for the other workloads).
    pub fn scream_stats(&self) -> Option<ScreamStats> {
        match self {
            CcEngine::Scream { sender } => Some(sender.stats()),
            _ => None,
        }
    }
}

/// Per-leg shadow congestion controllers behind one aggregate target —
/// the MPTCP-coupled answer to the DESIGN §11.5 collapse, where a single
/// delay-based CC fed by interleaved cross-leg arrivals reads the slower
/// leg's extra delay as congestion on *both*.
///
/// Each leg runs its own [`CcEngine`] of the same workload: the bonded
/// scheduler assigns every packet to a leg at enqueue time, that leg's
/// shadow engine paces it, and the leg's own feedback stream (recorded
/// per arrival leg at the receiver, returned on that leg's downlink)
/// drives only that engine. The encoder follows the *sum* of the per-leg
/// targets, so one delayed leg costs only its own share of the aggregate
/// — and a dead leg's shadow watchdog decays only that share.
///
/// With one engine it *is* that engine — sums over one element are exact
/// — which is how every uncoupled session holds its congestion control.
pub struct CoupledCc {
    legs: Vec<CcEngine>,
}

impl CoupledCc {
    /// One shadow engine per leg, all of the same workload.
    pub fn new(mode: CcMode, watchdog: WatchdogConfig, n_legs: usize) -> CoupledCc {
        CoupledCc {
            legs: (0..n_legs.max(1))
                .map(|_| CcEngine::new(mode, watchdog))
                .collect(),
        }
    }

    /// Number of shadow engines.
    pub fn n_legs(&self) -> usize {
        self.legs.len()
    }

    /// The encoder's starting bitrate: the per-leg starts summed (each
    /// leg probes its own share of the aggregate from the beginning).
    pub fn start_bitrate_bps(&self) -> f64 {
        self.legs.iter().map(|cc| cc.start_bitrate_bps()).sum()
    }

    /// Whether media packets need the transport-wide sequence extension.
    pub fn with_twcc(&self) -> bool {
        self.legs.first().is_some_and(|cc| cc.with_twcc())
    }

    /// Receiver feedback cadence; `None` for Static.
    pub fn feedback_interval(&self) -> Option<SimDuration> {
        self.legs.first().and_then(|cc| cc.feedback_interval())
    }

    /// Aggregate target: the sum of the shadow targets.
    pub fn target_bps(&self) -> f64 {
        self.legs.iter().map(|cc| cc.target_bps()).sum()
    }

    /// Advance every shadow engine; returns the aggregate target.
    pub fn on_tick(&mut self, now: SimTime) -> f64 {
        self.legs.iter_mut().map(|cc| cc.on_tick(now)).sum()
    }

    /// Stage packets already assigned to `leg` by the scheduler.
    /// Out-of-range legs drop nothing silently — the packets go to the
    /// last engine (saturating, never a panic on a hostile index).
    pub fn enqueue_leg(&mut self, leg: usize, now: SimTime, mut packets: Vec<RtpPacket>) {
        self.enqueue_leg_drain(leg, now, &mut packets);
    }

    /// Drain-style variant of [`enqueue_leg`](Self::enqueue_leg): the caller
    /// keeps the vector's capacity for reuse on the next frame.
    pub fn enqueue_leg_drain(&mut self, leg: usize, now: SimTime, packets: &mut Vec<RtpPacket>) {
        let last = self.legs.len() - 1;
        self.legs[leg.min(last)].enqueue_drain(now, packets);
    }

    /// Earliest future instant any shadow engine needs the driver's
    /// attention (see [`CcEngine::next_wake`]).
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        self.legs.iter().filter_map(|cc| cc.next_wake(now)).min()
    }

    /// Pop the next packet `leg`'s shadow engine releases onto the wire.
    pub fn poll_transmit_leg(&mut self, leg: usize, now: SimTime) -> Option<RtpPacket> {
        self.legs.get_mut(leg)?.poll_transmit(now)
    }

    /// Offer a feedback payload that arrived on `leg`'s downlink to that
    /// leg's shadow engine only.
    pub fn on_feedback_leg(&mut self, leg: usize, payload: Bytes, now: SimTime) -> bool {
        match self.legs.get_mut(leg) {
            Some(cc) => cc.on_feedback(payload, now),
            None => false,
        }
    }

    /// Watchdog counters summed across the shadow engines (`last_ramp`
    /// and `max_feedback_gap` take the slowest leg).
    pub fn watchdog_stats(&self) -> Option<WatchdogStats> {
        let mut agg: Option<WatchdogStats> = None;
        for w in self.legs.iter().filter_map(|cc| cc.watchdog_stats()) {
            let a = agg.get_or_insert_with(WatchdogStats::default);
            a.activations += w.activations;
            a.recoveries += w.recoveries;
            a.starved_time += w.starved_time;
            a.last_ramp = match (a.last_ramp, w.last_ramp) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            a.max_feedback_gap = a.max_feedback_gap.max(w.max_feedback_gap);
        }
        agg
    }

    /// SCReAM counters summed across the shadow engines.
    pub fn scream_stats(&self) -> Option<ScreamStats> {
        let mut agg: Option<ScreamStats> = None;
        for s in self.legs.iter().filter_map(|cc| cc.scream_stats()) {
            let a = agg.get_or_insert_with(ScreamStats::default);
            a.sent += s.sent;
            a.acked += s.acked;
            a.reported_lost += s.reported_lost;
            a.span_skipped += s.span_skipped;
            a.queue_discarded += s.queue_discarded;
            a.loss_events += s.loss_events;
            a.watchdog_expired += s.watchdog_expired;
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpav_rtp::packetize::{FrameMeta, Packetizer};

    fn packets(n_bytes: u32, with_twcc: bool) -> Vec<RtpPacket> {
        let mut p = Packetizer::new(0x2, with_twcc);
        p.packetize(
            FrameMeta {
                frame_number: 0,
                encode_time: SimTime::ZERO,
                keyframe: true,
                frame_bytes: n_bytes,
            },
            SimTime::ZERO,
        )
    }

    #[test]
    fn static_engine_passes_straight_through() {
        let mut cc = CcEngine::new(
            CcMode::Static { bitrate_bps: 8e6 },
            WatchdogConfig::default(),
        );
        assert!(!cc.with_twcc());
        assert_eq!(cc.feedback_interval(), None);
        assert_eq!(cc.on_tick(SimTime::ZERO), 8e6);
        let sent = packets(30_000, false);
        let n = sent.len();
        cc.enqueue(SimTime::ZERO, sent);
        let mut drained = 0;
        while cc.poll_transmit(SimTime::ZERO).is_some() {
            drained += 1;
        }
        assert_eq!(drained, n);
        // No feedback dialect: everything is unexpected.
        assert!(!cc.on_feedback(Bytes::from(vec![0u8; 20]), SimTime::ZERO));
        assert!(cc.watchdog_stats().is_none());
    }

    #[test]
    fn gcc_engine_paces_to_its_target() {
        let mut cc = CcEngine::new(CcMode::Gcc, WatchdogConfig::default());
        assert!(cc.with_twcc());
        // Stage far more than one tick of credit can cover.
        cc.enqueue(SimTime::ZERO, packets(500_000, true));
        let mut sent_bytes = 0usize;
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            cc.on_tick(t);
            while let Some(p) = cc.poll_transmit(t) {
                sent_bytes += p.wire_size();
            }
            t += SimDuration::from_millis(1);
        }
        // 100 ms at 2 Mbps × 1.5 pacing ≈ 37.5 kB (+ the initial burst
        // allowance); far below the 500 kB staged.
        assert!(sent_bytes > 10_000, "pacer sent nothing: {sent_bytes}");
        assert!(
            sent_bytes < 120_000,
            "pacer failed to meter: {sent_bytes} bytes in 100 ms"
        );
    }

    #[test]
    fn coupled_cc_sums_targets_and_isolates_queues() {
        let mut cc = CoupledCc::new(
            CcMode::Static { bitrate_bps: 3e6 },
            WatchdogConfig::default(),
            3,
        );
        assert_eq!(cc.n_legs(), 3);
        assert_eq!(cc.target_bps(), 9e6);
        assert_eq!(cc.on_tick(SimTime::ZERO), 9e6);
        assert_eq!(cc.start_bitrate_bps(), 9e6);
        // A packet staged on leg 1 only ever leaves through leg 1.
        cc.enqueue_leg(1, SimTime::ZERO, packets(10_000, false));
        assert!(cc.poll_transmit_leg(0, SimTime::ZERO).is_none());
        assert!(cc.poll_transmit_leg(1, SimTime::ZERO).is_some());
        // Hostile indices neither panic nor invent traffic.
        assert!(cc.poll_transmit_leg(7, SimTime::ZERO).is_none());
        assert!(!cc.on_feedback_leg(7, Bytes::from(vec![0u8; 8]), SimTime::ZERO));
        assert!(cc.watchdog_stats().is_none(), "static has no watchdog");
    }

    #[test]
    fn garbage_feedback_is_reported_not_applied() {
        for mode in [CcMode::Gcc, CcMode::Scream { ack_span: 64 }] {
            let mut cc = CcEngine::new(mode, WatchdogConfig::default());
            assert!(!cc.on_feedback(Bytes::from(vec![0xFFu8; 40]), SimTime::ZERO));
        }
    }
}
