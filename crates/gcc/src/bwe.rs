//! The assembled send-side bandwidth estimator.

use std::collections::VecDeque;

use rpav_rtp::packet::unwrap_seq;
use rpav_rtp::twcc::TwccFeedback;
use rpav_sim::{
    FeedbackWatchdog, SimDuration, SimTime, WatchdogConfig, WatchdogState, WatchdogStats,
};

use crate::aimd::AimdRateControl;
use crate::arrival::{InterArrival, PacketTiming};
use crate::detector::OveruseDetector;
use crate::loss::LossController;
use crate::trendline::TrendlineEstimator;

/// Configuration of the estimator.
#[derive(Clone, Copy, Debug)]
pub struct GccConfig {
    /// Initial target (the paper's pipeline starts near the bottom of the
    /// 2–25 Mbps encoder range).
    pub start_bitrate_bps: f64,
    /// Floor.
    pub min_bitrate_bps: f64,
    /// Ceiling (25 Mbps — the top encoder operating point, §3.2).
    pub max_bitrate_bps: f64,
    /// Feedback-starvation watchdog. Disabled, a TWCC blackout leaves the
    /// estimator frozen at its last target indefinitely (the stock
    /// behaviour).
    pub watchdog: WatchdogConfig,
}

impl Default for GccConfig {
    fn default() -> Self {
        GccConfig {
            start_bitrate_bps: 2e6,
            min_bitrate_bps: 300e3,
            max_bitrate_bps: 25e6,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Sliding-window throughput meter over acked packets.
#[derive(Debug, Default)]
struct AckedBitrate {
    samples: VecDeque<(SimTime, usize)>,
}

/// Acked-bitrate window length.
const ACKED_WINDOW: SimDuration = SimDuration::from_millis(800);

impl AckedBitrate {
    fn on_acked(&mut self, arrival: SimTime, size: usize) {
        self.samples.push_back((arrival, size));
        let cutoff = arrival - ACKED_WINDOW;
        while let Some((t, _)) = self.samples.front() {
            if *t < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    fn bitrate_bps(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let first = self.samples.front().unwrap().0;
        let last = self.samples.back().unwrap().0;
        let span = last.saturating_since(first).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let bits: usize = self.samples.iter().map(|(_, s)| s * 8).sum();
        bits as f64 / span
    }

    fn avg_packet_bits(&self) -> f64 {
        if self.samples.is_empty() {
            return 1_200.0 * 8.0;
        }
        let bits: usize = self.samples.iter().map(|(_, s)| s * 8).sum();
        bits as f64 / self.samples.len() as f64
    }
}

/// Outstanding sent packets, keyed by unwrapped transport sequence.
///
/// Transport sequences are handed out consecutively, so a deque indexed by
/// `seq - base` replaces the old `BTreeMap`: insert is a push at the back,
/// lookup is an offset, and removal tombstones the slot (the front pops
/// forward over tombstones). All operations on the per-packet send path
/// are O(1) with no tree nodes to allocate.
#[derive(Debug, Default)]
struct SentHistory {
    base: u64,
    slots: VecDeque<Option<(SimTime, usize)>>,
}

impl SentHistory {
    fn insert(&mut self, seq: u64, value: (SimTime, usize)) {
        if self.slots.is_empty() {
            self.base = seq;
            self.slots.push_back(Some(value));
            return;
        }
        if seq < self.base {
            // Older than everything retained (already GC'd): drop, exactly
            // as a map insert followed by the age-based GC would.
            return;
        }
        let idx = (seq - self.base) as usize;
        while self.slots.len() <= idx {
            self.slots.push_back(None);
        }
        self.slots[idx] = Some(value);
    }

    fn get(&self, seq: u64) -> Option<(SimTime, usize)> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.slots.get(idx).copied().flatten()
    }

    fn remove(&mut self, seq: u64) {
        if let Some(idx) = seq.checked_sub(self.base) {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                *slot = None;
            }
        }
        self.pop_tombstones();
    }

    /// The oldest live entry, if any.
    fn front(&self) -> Option<(u64, SimTime)> {
        debug_assert!(self.slots.front().is_none_or(Option::is_some));
        self.slots
            .front()
            .copied()
            .flatten()
            .map(|(t, _)| (self.base, t))
    }

    fn pop_front(&mut self) {
        self.slots.pop_front();
        self.base += 1;
        self.pop_tombstones();
    }

    fn pop_tombstones(&mut self) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// Send-side GCC bandwidth estimator.
#[derive(Debug)]
pub struct SendSideBwe {
    config: GccConfig,
    /// Outstanding sent packets keyed by unwrapped transport sequence.
    sent: SentHistory,
    last_sent_unwrapped: Option<u64>,
    last_fb_unwrapped: Option<u64>,
    inter_arrival: InterArrival,
    trendline: TrendlineEstimator,
    detector: OveruseDetector,
    aimd: AimdRateControl,
    loss: LossController,
    acked: AckedBitrate,
    watchdog: FeedbackWatchdog,
    /// While `now` is before this, the estimator treats feedback as
    /// app-limited aftermath of a starvation the watchdog already handled.
    recovery_guard_until: SimTime,
}

/// How long after feedback resumes the estimator stays shielded from the
/// starvation window's aftermath. Two artefacts would otherwise punish the
/// sender twice for an outage it already backed off for: the gap's loss
/// report hits the loss arm (multiplicative cuts, then a ×1.05/s climb),
/// and the acked bitrate — low only because the watchdog throttled the
/// sender to its floor — drags the AIMD target down through its
/// `1.5 × acked` clamp, leaving an 8 %/s recovery from near zero. Guarded,
/// recovery is the watchdog's metered ramp (seconds, not tens of seconds).
const STARVATION_RECOVERY_GUARD: SimDuration = SimDuration::from_secs(2);

impl SendSideBwe {
    /// Create an estimator.
    pub fn new(config: GccConfig) -> Self {
        SendSideBwe {
            config,
            sent: SentHistory::default(),
            last_sent_unwrapped: None,
            last_fb_unwrapped: None,
            inter_arrival: InterArrival::new(),
            trendline: TrendlineEstimator::new(),
            detector: OveruseDetector::new(),
            aimd: AimdRateControl::new(
                config.start_bitrate_bps,
                config.min_bitrate_bps,
                config.max_bitrate_bps,
            ),
            loss: LossController::new(
                config.start_bitrate_bps,
                config.min_bitrate_bps,
                config.max_bitrate_bps,
            ),
            acked: AckedBitrate::default(),
            watchdog: FeedbackWatchdog::new(config.watchdog),
            recovery_guard_until: SimTime::ZERO,
        }
    }

    /// Record a media packet put on the wire.
    pub fn on_packet_sent(&mut self, transport_seq: u16, now: SimTime, size: usize) {
        let unwrapped = match self.last_sent_unwrapped {
            None => transport_seq as u64,
            Some(prev) => unwrap_seq(prev, transport_seq),
        };
        self.last_sent_unwrapped =
            Some(self.last_sent_unwrapped.unwrap_or(unwrapped).max(unwrapped));
        self.sent.insert(unwrapped, (now, size));
        // GC: drop history older than 10 s (feedback will never come).
        let cutoff = now - SimDuration::from_secs(10);
        while let Some((_, t)) = self.sent.front() {
            if t < cutoff {
                self.sent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Process one transport-wide feedback packet.
    pub fn on_feedback(&mut self, feedback: &TwccFeedback, now: SimTime) {
        // This feedback ends a starvation: the watchdog already paid for
        // the outage with its back-off, so shield both estimator arms from
        // the gap's aftermath and let recovery be the watchdog's metered
        // ramp, not a second punishment.
        if self.watchdog.state() == WatchdogState::Starved {
            self.recovery_guard_until = now + STARVATION_RECOVERY_GUARD;
        }
        let guarded = now < self.recovery_guard_until;
        let base_unwrapped = match self.last_fb_unwrapped {
            None => feedback.base_seq as u64,
            Some(prev) => unwrap_seq(prev, feedback.base_seq),
        };
        self.last_fb_unwrapped = Some(
            self.last_fb_unwrapped
                .unwrap_or(base_unwrapped)
                .max(base_unwrapped + feedback.arrivals.len() as u64),
        );

        let mut lost = 0usize;
        let mut total = 0usize;
        let mut last_state = self.detector.state();
        for (i, arrival) in feedback.arrivals.iter().enumerate() {
            let seq = base_unwrapped + i as u64;
            let Some((send_time, size)) = self.sent.get(seq) else {
                continue;
            };
            total += 1;
            match feedback.arrival_time(i) {
                None => {
                    let _ = arrival;
                    lost += 1;
                }
                Some(arrival_time) => {
                    self.acked.on_acked(arrival_time, size);
                    if let Some(delta) = self.inter_arrival.on_packet(PacketTiming {
                        send_time,
                        arrival_time,
                        size,
                    }) {
                        let trend = self.trendline.update(&delta);
                        last_state = self.detector.update(delta.arrival_time, trend);
                    }
                }
            }
            self.sent.remove(seq);
        }

        // Under guard, report the acked bitrate as unknown (app-limited):
        // it reflects the watchdog's floor throttling, not path capacity,
        // and would collapse the AIMD target through its acked clamp.
        let acked_bps = if guarded {
            0.0
        } else {
            self.acked.bitrate_bps()
        };
        self.aimd
            .update(now, last_state, acked_bps, self.acked.avg_packet_bits());
        if !guarded {
            self.loss.on_feedback(now, lost, total);
        }
        self.watchdog.on_feedback(now, self.uncapped_bps());
    }

    /// Advance the feedback-starvation watchdog. Call from the driver loop
    /// (any cadence at or below the feedback interval works); without it a
    /// feedback blackout leaves the target frozen.
    pub fn on_tick(&mut self, now: SimTime) {
        self.watchdog.on_tick(now, self.uncapped_bps());
    }

    /// The next instant [`on_tick`](Self::on_tick) can have an effect
    /// (a watchdog starvation or back-off edge); `None` if no timer is
    /// pending. Between feedback arrivals and this instant, `on_tick` is a
    /// no-op, which is what lets the driver skip idle ticks.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.watchdog.next_wake()
    }

    /// The two estimator arms combined, before the watchdog cap.
    fn uncapped_bps(&self) -> f64 {
        self.aimd
            .target_bps()
            .min(self.loss.rate_bps())
            .clamp(self.config.min_bitrate_bps, self.config.max_bitrate_bps)
    }

    /// The current combined target bitrate: the binding arm wins, bounded
    /// by the starvation watchdog's cap while feedback is dark. The cap's
    /// floor may sit below `min_bitrate_bps` if configured that way.
    pub fn target_bitrate_bps(&self) -> f64 {
        self.watchdog.apply(self.uncapped_bps())
    }

    /// Starvation watchdog state.
    pub fn watchdog_state(&self) -> WatchdogState {
        self.watchdog.state()
    }

    /// Starvation watchdog counters.
    pub fn watchdog_stats(&self) -> WatchdogStats {
        self.watchdog.stats()
    }

    /// Loss-arm target (diagnostics).
    pub fn loss_based_bps(&self) -> f64 {
        self.loss.rate_bps()
    }

    /// Smoothed loss fraction seen in feedback.
    pub fn loss_fraction(&self) -> f64 {
        self.loss.loss_fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpav_rtp::twcc::TwccRecorder;

    /// Drive the estimator through a perfect link: every packet arrives
    /// `base_delay` after sending, feedback every 50 ms.
    fn run_clean_link(bwe: &mut SendSideBwe, seconds: u64, rate_limit_bps: f64) -> Vec<f64> {
        let mut rec = TwccRecorder::new();
        let mut targets = Vec::new();
        let mut seq: u16 = 0;
        let mut queue_us: i64 = 0; // bottleneck queue in µs of serialisation
        let base_delay = SimDuration::from_millis(40);
        let tick = SimDuration::from_millis(5);
        let mut t = SimTime::from_secs(1);
        let end = t + SimDuration::from_secs(seconds);
        let mut last_fb = t;
        let mut last_drain = t;
        while t < end {
            // Send at the current target, 1200 B packets.
            let target = bwe.target_bitrate_bps();
            let bytes_per_tick = target * tick.as_secs_f64() / 8.0;
            let pkts = (bytes_per_tick / 1_200.0).round() as usize;
            // Bottleneck: queue drains at rate_limit.
            let drain_us = t.saturating_since(last_drain).as_micros() as i64;
            last_drain = t;
            queue_us -= drain_us;
            queue_us = queue_us.max(0);
            for _ in 0..pkts {
                let ser_us = (1_200.0 * 8.0 / rate_limit_bps * 1e6) as i64;
                queue_us += ser_us;
                let arrival = t + base_delay + SimDuration::from_micros(queue_us as u64);
                bwe.on_packet_sent(seq, t, 1_200);
                rec.on_packet(seq, arrival);
                seq = seq.wrapping_add(1);
            }
            if t.saturating_since(last_fb) >= SimDuration::from_millis(50) {
                last_fb = t;
                if let Some(fb) = rec.build_feedback() {
                    bwe.on_feedback(&fb, t);
                }
            }
            targets.push(bwe.target_bitrate_bps());
            t += tick;
        }
        targets
    }

    #[test]
    fn ramps_up_on_uncongested_link() {
        let mut bwe = SendSideBwe::new(GccConfig::default());
        let targets = run_clean_link(&mut bwe, 20, 100e6);
        let last = *targets.last().unwrap();
        assert!(
            last > 6e6,
            "after 20 s on a clean link the target should grow well past start, got {last:.2e}"
        );
        // Monotone-ish growth: no collapse.
        assert!(targets.iter().all(|t| *t >= 1e6));
    }

    #[test]
    fn converges_near_bottleneck_without_runaway() {
        let mut bwe = SendSideBwe::new(GccConfig::default());
        let targets = run_clean_link(&mut bwe, 40, 8e6);
        // Average of the last 10 s should sit in the bottleneck's
        // neighbourhood — neither runaway (queuing) nor collapse.
        let tail = &targets[targets.len() - 2_000..];
        let avg = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (4e6..11e6).contains(&avg),
            "tail average {avg:.2e} not near the 8 Mbps bottleneck"
        );
    }

    #[test]
    fn heavy_loss_engages_loss_arm() {
        let mut bwe = SendSideBwe::new(GccConfig::default());
        let mut rec = TwccRecorder::new();
        let mut t = SimTime::from_secs(1);
        let mut seq: u16 = 0;
        for round in 0..100 {
            for i in 0..20 {
                bwe.on_packet_sent(seq, t, 1_200);
                // 30 % loss.
                if (seq as usize + i) % 10 >= 3 {
                    rec.on_packet(seq, t + SimDuration::from_millis(40));
                }
                seq = seq.wrapping_add(1);
                t += SimDuration::from_millis(2);
            }
            if let Some(fb) = rec.build_feedback() {
                bwe.on_feedback(&fb, t);
            }
            let _ = round;
        }
        assert!(bwe.loss_fraction() > 0.15, "loss {}", bwe.loss_fraction());
        assert!(
            bwe.loss_based_bps() < 3e6,
            "loss arm should bind: {:.2e}",
            bwe.loss_based_bps()
        );
        assert!(bwe.target_bitrate_bps() <= bwe.loss_based_bps());
    }

    #[test]
    fn acked_bitrate_tracks_delivery() {
        let mut acked = AckedBitrate::default();
        // 1200 B every 1 ms = 9.6 Mbps.
        for i in 0..500 {
            acked.on_acked(SimTime::from_millis(i), 1_200);
        }
        let est = acked.bitrate_bps();
        assert!((est - 9.6e6).abs() < 0.5e6, "estimate {est:.2e}");
        assert_eq!(acked.avg_packet_bits(), 9_600.0);
    }

    #[test]
    fn target_stays_within_bounds() {
        let cfg = GccConfig {
            start_bitrate_bps: 2e6,
            min_bitrate_bps: 1e6,
            max_bitrate_bps: 10e6,
            ..Default::default()
        };
        let mut bwe = SendSideBwe::new(cfg);
        let targets = run_clean_link(&mut bwe, 60, 100e6);
        assert!(targets.iter().all(|t| (1e6..=10e6).contains(t)));
        // Should saturate at the ceiling on a clean 100 Mbps link.
        assert!(*targets.last().unwrap() >= 9.9e6);
    }

    /// Drive the estimator at a fixed send rate for `ms`, with the feedback
    /// path either alive (40 ms OWD, report every 50 ms) or dark (packets
    /// vanish, no reports). `on_tick` runs every 5 ms like the driver loop.
    fn drive(
        bwe: &mut SendSideBwe,
        rec: &mut TwccRecorder,
        seq: &mut u16,
        t: &mut SimTime,
        ms: u64,
        feedback_alive: bool,
    ) {
        let end = *t + SimDuration::from_millis(ms);
        let mut last_fb = *t;
        while *t < end {
            for _ in 0..2 {
                bwe.on_packet_sent(*seq, *t, 1_200);
                if feedback_alive {
                    rec.on_packet(*seq, *t + SimDuration::from_millis(40));
                }
                *seq = seq.wrapping_add(1);
            }
            if feedback_alive && t.saturating_since(last_fb) >= SimDuration::from_millis(50) {
                last_fb = *t;
                if let Some(fb) = rec.build_feedback() {
                    bwe.on_feedback(&fb, *t);
                }
            }
            bwe.on_tick(*t);
            *t += SimDuration::from_millis(5);
        }
    }

    #[test]
    fn feedback_starvation_backs_off_to_floor_then_recovers() {
        let mut bwe = SendSideBwe::new(GccConfig::default());
        let mut rec = TwccRecorder::new();
        let mut seq: u16 = 0;
        let mut t = SimTime::from_secs(1);
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 5_000, true);
        let pre = bwe.target_bitrate_bps();
        assert!(pre > 1e6, "pre-outage target {pre:.2e}");
        // 5 s feedback blackout: back-off engages and decays to the floor.
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 5_000, false);
        assert_eq!(bwe.watchdog_state(), WatchdogState::Starved);
        let floor = GccConfig::default().watchdog.floor_bps;
        assert_eq!(bwe.target_bitrate_bps(), floor);
        assert_eq!(bwe.watchdog_stats().activations, 1);
        // Feedback resumes: the cap ramps off and the target climbs back.
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 10_000, true);
        assert_eq!(bwe.watchdog_state(), WatchdogState::Armed);
        let stats = bwe.watchdog_stats();
        assert_eq!(stats.recoveries, 1);
        assert!(stats.last_ramp.is_some());
        assert!(
            bwe.target_bitrate_bps() > 0.5 * pre,
            "post-recovery target {:.2e} still far below pre-outage {pre:.2e}",
            bwe.target_bitrate_bps()
        );
    }

    #[test]
    fn starvation_losses_do_not_poison_the_loss_arm() {
        let mut bwe = SendSideBwe::new(GccConfig::default());
        let mut rec = TwccRecorder::new();
        let mut seq: u16 = 0;
        let mut t = SimTime::from_secs(1);
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 8_000, true);
        let pre = bwe.target_bitrate_bps();
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 3_000, false);
        assert_eq!(bwe.watchdog_state(), WatchdogState::Starved);
        // 5 s of restored feedback: the watchdog ramp releases, and the
        // loss arm — shielded from the gap's loss avalanche — does not
        // hold the target down afterwards (unguarded, the ×1.05/s climb
        // would keep it depressed far longer than this).
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 5_000, true);
        assert_eq!(bwe.watchdog_state(), WatchdogState::Armed);
        let post = bwe.target_bitrate_bps();
        assert!(
            post > 0.7 * pre,
            "post-recovery target {post:.2e} vs pre-outage {pre:.2e}"
        );
    }

    #[test]
    fn watchdog_opt_out_reproduces_frozen_rate() {
        let cfg = GccConfig {
            watchdog: rpav_sim::WatchdogConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut bwe = SendSideBwe::new(cfg);
        let mut rec = TwccRecorder::new();
        let mut seq: u16 = 0;
        let mut t = SimTime::from_secs(1);
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 5_000, true);
        let pre = bwe.target_bitrate_bps();
        // 20 s of darkness: the stock estimator just keeps its last target.
        drive(&mut bwe, &mut rec, &mut seq, &mut t, 20_000, false);
        assert_eq!(bwe.target_bitrate_bps(), pre, "rate should stay frozen");
        assert_eq!(bwe.watchdog_stats().activations, 0);
    }
}
