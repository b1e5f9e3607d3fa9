//! The SCReAM sender: cwnd, pacing, RTP queue, feedback processing and
//! media rate control.

use std::collections::VecDeque;

use rpav_rtp::packet::RtpPacket;
use rpav_rtp::rfc8888::Rfc8888Packet;
use rpav_rtp::seqwindow::{SeqUnwrapper, SeqWindow};
use rpav_sim::{
    FeedbackWatchdog, SimDuration, SimTime, WatchdogConfig, WatchdogEvent, WatchdogState,
    WatchdogStats,
};

/// Tunables (defaults follow the Ericsson library / RFC 8298).
#[derive(Clone, Copy, Debug)]
pub struct ScreamConfig {
    /// Initial media bitrate.
    pub start_bitrate_bps: f64,
    /// Media bitrate floor.
    pub min_bitrate_bps: f64,
    /// Media bitrate ceiling (25 Mbps, the top encoder point §3.2).
    pub max_bitrate_bps: f64,
    /// Queue-delay target for window growth.
    pub qdelay_target: SimDuration,
    /// Sender RTP queue drain-time threshold; past it the queue is
    /// discarded (§4.2.1: 100 ms).
    pub queue_discard: SimDuration,
    /// Linear ramp-up speed while uncongested (bps per second). ≈1 Mbps/s
    /// reproduces the paper's ≈25 s ramp to 25 Mbps.
    pub ramp_up_bps_per_s: f64,
    /// Multiplicative backoff on a loss event.
    pub loss_beta: f64,
    /// Maximum segment size used for window floor arithmetic.
    pub mss: usize,
    /// Feedback-starvation watchdog. Disabled, a feedback blackout freezes
    /// the self-clocked window: in-flight bytes never drain, transmission
    /// stops entirely and the target stays at its last value (the stock
    /// behaviour).
    pub watchdog: WatchdogConfig,
}

impl Default for ScreamConfig {
    fn default() -> Self {
        ScreamConfig {
            start_bitrate_bps: 2e6,
            min_bitrate_bps: 300e3,
            max_bitrate_bps: 25e6,
            qdelay_target: SimDuration::from_millis(70),
            queue_discard: SimDuration::from_millis(100),
            ramp_up_bps_per_s: 1e6,
            loss_beta: 0.8,
            mss: 1_200,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Counters for analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScreamStats {
    /// Packets transmitted.
    pub sent: u64,
    /// Packets acknowledged.
    pub acked: u64,
    /// Packets declared lost from explicit not-received reports.
    pub reported_lost: u64,
    /// Packets declared lost because the bounded ack span slid past them —
    /// the §4.2.1 false-loss pathology.
    pub span_skipped: u64,
    /// Packets discarded from the sender RTP queue (drain-time breaker).
    pub queue_discarded: u64,
    /// Congestion (backoff) events applied.
    pub loss_events: u64,
    /// In-flight packets written off by the starvation watchdog (they can
    /// never be acknowledged once the feedback path is declared dead).
    pub watchdog_expired: u64,
}

/// The sender-side congestion controller and RTP queue.
#[derive(Debug)]
pub struct ScreamSender {
    config: ScreamConfig,
    /// Congestion window (bytes).
    cwnd: f64,
    /// Outstanding packets: unwrapped seq → (send time, wire size).
    in_flight: SeqWindow<(SimTime, usize)>,
    bytes_in_flight: usize,
    /// Reads the media sequences this side sent, and the feedback naming
    /// them.
    sent_seqs: SeqUnwrapper,
    /// Sender RTP queue (packetised frames awaiting transmission).
    queue: VecDeque<RtpPacket>,
    queue_bytes: usize,
    /// Pacing token bucket (bytes available to send now).
    pace_budget: f64,
    last_pace_refill: SimTime,
    owd: crate::owd::OwdTracker,
    srtt: SimDuration,
    target_bitrate: f64,
    /// Last time the target was advanced (for the linear ramp).
    last_rate_update: Option<SimTime>,
    /// End of the current loss-event guard window (one backoff per RTT).
    loss_guard_until: SimTime,
    /// Largest bytes-in-flight observed recently; bounds useful cwnd
    /// growth (RFC 8298 §4.1.2.1: the window must not grow far beyond
    /// what is actually being used).
    max_inflight: f64,
    watchdog: FeedbackWatchdog,
    /// Window saved when the watchdog declares starvation, restored
    /// (validated) on the first feedback after the outage.
    frozen_cwnd: Option<f64>,
    stats: ScreamStats,
}

impl ScreamSender {
    /// Create a sender.
    pub fn new(config: ScreamConfig) -> Self {
        ScreamSender {
            config,
            cwnd: (10 * config.mss) as f64,
            in_flight: SeqWindow::new(),
            bytes_in_flight: 0,
            sent_seqs: SeqUnwrapper::new(),
            queue: VecDeque::new(),
            queue_bytes: 0,
            pace_budget: 0.0,
            last_pace_refill: SimTime::ZERO,
            owd: crate::owd::OwdTracker::new(SimDuration::from_secs(30)),
            srtt: SimDuration::from_millis(50),
            target_bitrate: config.start_bitrate_bps,
            last_rate_update: None,
            loss_guard_until: SimTime::ZERO,
            max_inflight: 0.0,
            watchdog: FeedbackWatchdog::new(config.watchdog),
            frozen_cwnd: None,
            stats: ScreamStats::default(),
        }
    }

    /// Media target bitrate the encoder should produce: the controller's
    /// own target, bounded by the starvation watchdog's cap while the
    /// feedback path is dark.
    pub fn target_bitrate_bps(&self) -> f64 {
        self.watchdog.apply(self.uncapped_bps())
    }

    /// The controller's own target, before the watchdog cap.
    fn uncapped_bps(&self) -> f64 {
        self.target_bitrate
            .clamp(self.config.min_bitrate_bps, self.config.max_bitrate_bps)
    }

    /// Starvation watchdog state.
    pub fn watchdog_state(&self) -> WatchdogState {
        self.watchdog.state()
    }

    /// Starvation watchdog counters.
    pub fn watchdog_stats(&self) -> WatchdogStats {
        self.watchdog.stats()
    }

    /// Advance the feedback-starvation watchdog. Call from the driver loop.
    ///
    /// On starvation the congestion window is frozen (saved for validation
    /// at recovery) and replaced by a small probe window, and in-flight
    /// packets older than the starvation timeout are written off — with the
    /// feedback path dead they can never be acknowledged, and leaving them
    /// in the window would freeze even the probe trickle that lets the
    /// sender notice the link coming back.
    pub fn on_tick(&mut self, now: SimTime) {
        let uncapped = self.uncapped_bps();
        if self.watchdog.on_tick(now, uncapped) == Some(WatchdogEvent::Starved) {
            self.frozen_cwnd = Some(self.cwnd);
            let wd = self.watchdog.config();
            // A window that sustains the floor rate over one expiry horizon.
            let probe = wd.floor_bps * wd.timeout.as_secs_f64() / 8.0;
            self.cwnd = probe.max((2 * self.config.mss) as f64);
        }
        if self.watchdog.state() == WatchdogState::Starved {
            let timeout = self.watchdog.config().timeout;
            let mut freed = 0usize;
            let mut expired = 0u64;
            self.in_flight.retain(|_, &mut (sent, size)| {
                if now.saturating_since(sent) > timeout {
                    freed += size;
                    expired += 1;
                    false
                } else {
                    true
                }
            });
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(freed);
            self.stats.watchdog_expired += expired;
        }
    }

    /// Current congestion window (bytes).
    pub fn cwnd_bytes(&self) -> f64 {
        self.cwnd
    }

    /// Bytes currently unacknowledged.
    pub fn bytes_in_flight(&self) -> usize {
        self.bytes_in_flight
    }

    /// Estimated queue delay on the network path.
    pub fn network_queue_delay(&self) -> SimDuration {
        self.owd.queue_delay()
    }

    /// Counters.
    pub fn stats(&self) -> ScreamStats {
        self.stats
    }

    /// Sender RTP queue depth in bytes.
    pub fn rtp_queue_bytes(&self) -> usize {
        self.queue_bytes
    }

    /// Drain time of the sender RTP queue at the current target bitrate.
    pub fn rtp_queue_delay(&self) -> SimDuration {
        if self.target_bitrate <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.queue_bytes as f64 * 8.0 / self.target_bitrate)
    }

    /// Enqueue freshly packetised media. Applies the 100 ms drain-time
    /// breaker: if the queue is too deep, it is discarded wholesale —
    /// sequence numbers already assigned to those packets simply never
    /// appear on the wire (the receiver sees a jump).
    pub fn enqueue(&mut self, now: SimTime, mut packets: Vec<RtpPacket>) {
        self.enqueue_drain(now, &mut packets);
    }

    /// Drain-style variant of [`enqueue`](Self::enqueue): consumes the
    /// packets but leaves the vector's capacity with the caller for reuse.
    pub fn enqueue_drain(&mut self, now: SimTime, packets: &mut Vec<RtpPacket>) {
        for p in packets.drain(..) {
            self.queue_bytes += p.wire_size();
            self.queue.push_back(p);
        }
        if self.rtp_queue_delay() > self.config.queue_discard {
            self.stats.queue_discarded += self.queue.len() as u64;
            self.queue.clear();
            self.queue_bytes = 0;
        }
        let _ = now;
    }

    /// Pacing rate: a little above the target so the queue can drain, and
    /// at least half a window per RTT.
    fn pace_bps(&self) -> f64 {
        (self.target_bitrate * 1.25)
            .max(self.cwnd * 8.0 / self.srtt.as_secs_f64().max(1e-3) * 0.5)
            .max(100e3)
    }

    /// Try to transmit the next queued packet: returns it when both the
    /// congestion window and the pacer allow, else `None`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<RtpPacket> {
        let head_size = self.queue.front()?.wire_size();
        if self.bytes_in_flight + head_size > self.cwnd as usize {
            return None; // self-clocked: wait for acks
        }
        // Token-bucket pacing: refill at the pace rate, burst-capped at
        // 10 ms worth so a drained queue can catch up promptly without
        // line-rate bursts.
        let pace = self.pace_bps();
        let dt = now.saturating_since(self.last_pace_refill).as_secs_f64();
        self.last_pace_refill = now;
        let burst_cap = (pace * 0.010 / 8.0).max((2 * self.config.mss) as f64);
        self.pace_budget = (self.pace_budget + pace * dt / 8.0).min(burst_cap);
        if self.pace_budget < head_size as f64 {
            return None; // pacing
        }
        self.pace_budget -= head_size as f64;
        let packet = self.queue.pop_front()?;
        self.queue_bytes -= packet.wire_size();

        let seq = self.sent_seqs.observe_sent(packet.sequence);
        self.in_flight.insert(seq, (now, packet.wire_size()));
        self.bytes_in_flight += packet.wire_size();
        self.max_inflight = self.max_inflight.max(self.bytes_in_flight as f64);
        self.stats.sent += 1;
        Some(packet)
    }

    /// Earliest instant `poll_transmit` could succeed again (pacing gate),
    /// if anything is queued.
    pub fn next_wake(&self) -> Option<SimTime> {
        let head = self.queue.front()?.wire_size();
        let deficit = (head as f64 - self.pace_budget).max(0.0);
        let wait = deficit * 8.0 / self.pace_bps();
        // A microsecond of guard: this inverts the forward token-bucket
        // arithmetic in floating point, and waking a hair early is a no-op
        // while waking late would miss the instant a per-tick driver sends.
        Some(
            self.last_pace_refill
                + SimDuration::from_secs_f64(wait).saturating_sub(SimDuration::from_micros(1)),
        )
    }

    /// Earliest instant [`on_tick`](Self::on_tick) could change state: a
    /// starvation-watchdog edge, or — while starved — the next in-flight
    /// expiry that frees probe-window space. `None` means `on_tick` is a
    /// no-op at any future instant until other input (feedback, enqueue)
    /// arrives. The instant may be conservative (at or before the true
    /// edge); early calls are harmless no-ops.
    pub fn next_tick_wake(&self) -> Option<SimTime> {
        let mut wake = self.watchdog.next_wake();
        if self.watchdog.state() == WatchdogState::Starved {
            let timeout = self.watchdog.config().timeout;
            // Sends are time-ordered by sequence, so the first entry holds
            // the earliest send time and thus the earliest expiry.
            if let Some((_, &(sent, _))) = self.in_flight.first() {
                let expiry = sent + timeout;
                wake = Some(wake.map_or(expiry, |w| w.min(expiry)));
            }
        }
        wake
    }

    /// Process one RFC 8888 feedback packet.
    pub fn on_feedback(&mut self, fb: &Rfc8888Packet, now: SimTime) {
        let Some(first) = fb.reports.first() else {
            return;
        };
        if self.watchdog.on_feedback(now, self.uncapped_bps())
            == Some(WatchdogEvent::FeedbackResumed)
        {
            // Window validation: restore the frozen window scaled by the
            // loss beta (the outage itself counts as one congestion event)
            // and let normal adaptation take over from there.
            if let Some(frozen) = self.frozen_cwnd.take() {
                self.cwnd = (frozen * self.config.loss_beta).max((2 * self.config.mss) as f64);
            }
            // The avalanche of not-received reports describing the outage
            // window is an artefact of the blackout, not fresh congestion:
            // shield the restored window from an immediate second backoff.
            self.loss_guard_until = now + self.srtt;
        }
        let begin_unwrapped = self.sent_seqs.unwrap(first.seq);

        // 1. Everything in flight *older* than the span start can never be
        //    acknowledged any more (the bounded span slid past it). The
        //    Ericsson implementation treats these as lost — the false-loss
        //    pathology of §4.2.1.
        let mut span_losses = 0u64;
        let mut span_freed = 0usize;
        self.in_flight.drain_below(begin_unwrapped, |_, (_, size)| {
            span_freed += size;
            span_losses += 1;
        });
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(span_freed);
        self.stats.span_skipped += span_losses;

        // 2. Walk the reports: acks update OWD/RTT and release the window;
        //    explicit not-received entries below the highest received seq
        //    are losses (with the highest-seq one still possibly in
        //    flight/reordered, so only count gaps *before* an ack).
        let mut bytes_newly_acked = 0usize;
        let mut reported_losses = 0u64;
        let highest_received = fb
            .reports
            .iter()
            .rposition(|r| r.received)
            .map(|i| begin_unwrapped + i as u64);
        for (i, report) in fb.reports.iter().enumerate() {
            let seq = begin_unwrapped + i as u64;
            if report.received {
                if let Some((send_time, size)) = self.in_flight.remove(seq) {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
                    bytes_newly_acked += size;
                    let arrival = fb.report_ts - report.ato;
                    let owd = arrival.saturating_since(send_time);
                    self.owd.observe(now, owd);
                    let rtt = now.saturating_since(send_time);
                    self.srtt = SimDuration::from_secs_f64(
                        0.875 * self.srtt.as_secs_f64() + 0.125 * rtt.as_secs_f64(),
                    );
                }
            } else if highest_received.map(|h| seq < h).unwrap_or(false) {
                if let Some((_, size)) = self.in_flight.remove(seq) {
                    self.bytes_in_flight = self.bytes_in_flight.saturating_sub(size);
                    reported_losses += 1;
                }
            }
        }
        self.stats.acked += (bytes_newly_acked / self.config.mss.max(1)) as u64;
        self.stats.reported_lost += reported_losses;

        // 3. Window adaptation.
        let qdelay = self.owd.queue_delay();
        let target = self.config.qdelay_target;
        let lost = reported_losses + span_losses;
        if lost > 0 && now >= self.loss_guard_until {
            self.stats.loss_events += 1;
            self.cwnd *= self.config.loss_beta;
            self.loss_guard_until = now + self.srtt;
            // Media rate follows the window down, more gently than the
            // window itself (the encoder should not over-react to a single
            // loss episode).
            self.target_bitrate *= (self.config.loss_beta + 0.1).min(1.0);
        } else if bytes_newly_acked > 0 {
            let off_target = (target.as_secs_f64() - qdelay.as_secs_f64()) / target.as_secs_f64();
            if off_target > 0.0 {
                // Queue below target: grow proportionally to acked data.
                self.cwnd += off_target.min(1.0) * bytes_newly_acked as f64;
            } else {
                // Queue above target: shrink gently.
                self.cwnd += (off_target.max(-1.0)) * 0.5 * bytes_newly_acked as f64;
            }
        }
        // Useful-window cap: no point holding a window far beyond what the
        // self-clocked sender actually keeps in flight.
        let cap = (self.max_inflight * 2.2).max((10 * self.config.mss) as f64);
        self.max_inflight *= 0.98;
        self.cwnd = self.cwnd.min(cap);
        self.cwnd = self
            .cwnd
            .clamp((2 * self.config.mss) as f64, 4e6 /* 4 MB hard roof */);

        // 4. Media rate adaptation.
        self.update_target_bitrate(now, qdelay, lost > 0);
    }

    fn update_target_bitrate(&mut self, now: SimTime, qdelay: SimDuration, lost: bool) {
        let dt = self
            .last_rate_update
            .map(|l| now.saturating_since(l))
            .unwrap_or(SimDuration::ZERO)
            .min(SimDuration::from_secs(1));
        self.last_rate_update = Some(now);

        // The rate the current window can sustain.
        let supported = self.cwnd * 8.0 / self.srtt.as_secs_f64().max(1e-3);
        if !lost && qdelay < self.config.qdelay_target {
            // Uncongested ramp: proportional with a configured floor, as in
            // the Ericsson library. From 2 Mbps this still takes the ≈25 s
            // to reach 25 Mbps that the paper measures (§4.2.1), while
            // recovery from a backoff at high rate is quick.
            let ramp = self
                .config
                .ramp_up_bps_per_s
                .max(0.12 * self.target_bitrate);
            self.target_bitrate += ramp * dt.as_secs_f64();
        } else if qdelay > self.config.qdelay_target {
            let over =
                (qdelay.as_secs_f64() / self.config.qdelay_target.as_secs_f64() - 1.0).min(1.0);
            self.target_bitrate *= 1.0 - 0.15 * over * dt.as_secs_f64().min(1.0);
        }
        // Never promise more than the window can carry.
        self.target_bitrate = self
            .target_bitrate
            .min(supported * 1.2)
            .clamp(self.config.min_bitrate_bps, self.config.max_bitrate_bps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rpav_rtp::rfc8888::{Rfc8888Builder, Rfc8888Report};

    fn pkt(seq: u16, size: usize) -> RtpPacket {
        RtpPacket {
            marker: false,
            payload_type: 96,
            sequence: seq,
            timestamp: seq as u32 * 3_000,
            ssrc: 1,
            transport_seq: None,
            payload: Bytes::from(vec![0u8; size]),
            wire: None,
        }
    }

    #[test]
    fn cwnd_gates_transmission() {
        let mut s = ScreamSender::new(ScreamConfig::default());
        let t0 = SimTime::from_secs(1);
        // Queue far more than the initial 10-MSS window.
        let packets: Vec<RtpPacket> = (0..100).map(|i| pkt(i, 1_180)).collect();
        s.enqueue(t0, packets[..30].to_vec());
        let mut sent = 0;
        let mut t = t0;
        for _ in 0..200 {
            if s.poll_transmit(t).is_some() {
                sent += 1;
            }
            t += SimDuration::from_millis(1);
        }
        // Without any acks, bytes_in_flight caps near cwnd ≈ 10 MSS.
        assert!(sent <= 11, "sent {sent} without acks");
        assert!(s.bytes_in_flight() <= s.cwnd_bytes() as usize + 1_300);
    }

    /// Drive a full self-clocked loop against an ideal link and return the
    /// sender for inspection.
    fn run_loop(
        config: ScreamConfig,
        seconds: u64,
        link_delay_ms: u64,
        ack_span: usize,
        stalls: bool,
    ) -> (ScreamSender, Vec<f64>) {
        let mut s = ScreamSender::new(config);
        let mut builder = Rfc8888Builder::new(ack_span);
        let mut arrivals: Vec<(SimTime, u16)> = Vec::new();
        let mut targets = Vec::new();
        let mut seq: u16 = 0;
        let mut t = SimTime::from_secs(1);
        let end = t + SimDuration::from_secs(seconds);
        let mut last_frame = t;
        let mut last_fb = t;
        while t < end {
            // 30 FPS frames at the current target bitrate.
            if t.saturating_since(last_frame) >= SimDuration::from_millis(33) {
                last_frame = t;
                let frame_bytes = (s.target_bitrate_bps() / 8.0 / 30.0) as usize;
                let n = frame_bytes.div_ceil(1_180).max(1);
                let pkts: Vec<RtpPacket> = (0..n)
                    .map(|_| {
                        let p = pkt(seq, 1_180);
                        seq = seq.wrapping_add(1);
                        p
                    })
                    .collect();
                s.enqueue(t, pkts);
            }
            // Transmit whatever the window/pacer allows. With `stalls`,
            // the link freezes for 300 ms every 5 s (handover-style) and
            // everything sent meanwhile arrives in one burst at the end —
            // the deep-buffer behaviour that overruns a narrow ack span.
            while let Some(p) = s.poll_transmit(t) {
                let mut arrival = t + SimDuration::from_millis(link_delay_ms);
                if stalls {
                    let phase_ms = t.as_millis() % 5_000;
                    if phase_ms >= 4_700 {
                        let stall_end =
                            SimTime::from_millis((t.as_millis() / 5_000) * 5_000 + 5_000);
                        arrival = stall_end + SimDuration::from_millis(link_delay_ms);
                    }
                }
                arrivals.push((arrival, p.sequence));
            }
            // Feedback every 10 ms over everything that has arrived.
            arrivals.retain(|(arr, sq)| {
                if *arr <= t {
                    builder.on_packet(*sq, *arr);
                    false
                } else {
                    true
                }
            });
            if t.saturating_since(last_fb) >= SimDuration::from_millis(10) {
                last_fb = t;
                if let Some(fb) = builder.build(t) {
                    s.on_feedback(&fb, t);
                }
            }
            targets.push(s.target_bitrate_bps());
            t += SimDuration::from_millis(1);
        }
        (s, targets)
    }

    #[test]
    fn ramps_linearly_to_the_ceiling() {
        let (s, targets) = run_loop(ScreamConfig::default(), 40, 25, 1024, false);
        // ≈1 Mbps/s from 2 Mbps: ceiling (25 Mbps) reached in ≈23 s.
        let at_10s = targets[10_000];
        assert!(
            (8e6..16e6).contains(&at_10s),
            "t+10 s target {at_10s:.1e} — ramp not linear"
        );
        let final_t = *targets.last().unwrap();
        assert!(final_t > 24e6, "never reached ceiling: {final_t:.1e}");
        assert_eq!(s.stats().loss_events, 0);
        assert_eq!(s.stats().span_skipped, 0);
    }

    #[test]
    fn narrow_ack_span_causes_false_losses_at_high_rate() {
        // Same ideal link; only the span differs. With 64-packet spans and
        // 10 ms feedback, high-bitrate bursts overrun the span (§4.2.1).
        let cfg = ScreamConfig {
            start_bitrate_bps: 20e6,
            ..Default::default()
        };
        let (narrow, narrow_t) = run_loop(cfg, 20, 25, 64, true);
        let (wide, wide_t) = run_loop(cfg, 20, 25, 2048, true);
        assert!(
            narrow.stats().span_skipped > 0,
            "expected span-skipped false losses with 64-packet span"
        );
        assert_eq!(wide.stats().span_skipped, 0);
        // The false losses register as extra congestion events. (The full
        // rate effect over a real flight is shown by the ablation_ackspan
        // experiment; here both runs also share genuine stall-induced
        // backoffs, so the event count is the clean signal.)
        assert!(
            narrow.stats().loss_events > wide.stats().loss_events,
            "narrow events {} !> wide events {}",
            narrow.stats().loss_events,
            wide.stats().loss_events
        );
        // (The end-to-end rate effect over a full flight, where feedback
        // also crosses the interrupted downlink, is covered by the
        // `ablation_ackspan` experiment and the integration tests.)
        let _ = (narrow_t, wide_t);
    }

    #[test]
    fn queue_discard_fires_on_deep_queue() {
        let mut s = ScreamSender::new(ScreamConfig {
            start_bitrate_bps: 1e6,
            min_bitrate_bps: 1e6,
            ..Default::default()
        });
        // 1 Mbps target → 100 ms of queue = 12.5 kB. Enqueue 100 kB.
        let packets: Vec<RtpPacket> = (0..85).map(|i| pkt(i, 1_180)).collect();
        s.enqueue(SimTime::from_secs(1), packets);
        assert!(s.stats().queue_discarded > 0);
        assert_eq!(s.rtp_queue_bytes(), 0);
    }

    #[test]
    fn reported_loss_backs_off_window_and_rate() {
        let mut s = ScreamSender::new(ScreamConfig::default());
        let t0 = SimTime::from_secs(1);
        s.enqueue(t0, (0..10).map(|i| pkt(i, 1_180)).collect());
        let mut t = t0;
        let mut sent = Vec::new();
        for _ in 0..200 {
            if let Some(p) = s.poll_transmit(t) {
                sent.push(p.sequence);
            }
            t += SimDuration::from_millis(2);
        }
        assert!(sent.len() >= 3);
        let cwnd_before = s.cwnd_bytes();
        let rate_before = s.target_bitrate_bps();
        // Ack all but one in the middle → explicit loss.
        let mut b = Rfc8888Builder::new(64);
        for sq in &sent {
            if *sq != sent[1] {
                b.on_packet(*sq, t + SimDuration::from_millis(30));
            }
        }
        let fb = b.build(t + SimDuration::from_millis(40)).unwrap();
        s.on_feedback(&fb, t + SimDuration::from_millis(40));
        assert_eq!(s.stats().reported_lost, 1);
        assert_eq!(s.stats().loss_events, 1);
        assert!(s.cwnd_bytes() < cwnd_before);
        assert!(s.target_bitrate_bps() < rate_before);
    }

    #[test]
    fn window_grows_on_clean_acks() {
        let mut s = ScreamSender::new(ScreamConfig::default());
        let t0 = SimTime::from_secs(1);
        let before = s.cwnd_bytes();
        s.enqueue(t0, (0..8).map(|i| pkt(i, 1_180)).collect());
        let mut t = t0;
        let mut sent = Vec::new();
        for _ in 0..200 {
            if let Some(p) = s.poll_transmit(t) {
                sent.push(p.sequence);
            }
            t += SimDuration::from_millis(2);
        }
        let mut b = Rfc8888Builder::new(64);
        for sq in &sent {
            b.on_packet(*sq, t + SimDuration::from_millis(25));
        }
        let fb = b.build(t + SimDuration::from_millis(30)).unwrap();
        s.on_feedback(&fb, t + SimDuration::from_millis(30));
        assert!(s.cwnd_bytes() > before);
        assert_eq!(s.bytes_in_flight(), 0);
    }

    /// Like `run_loop`, but with a full blackout window (seconds, relative
    /// to the start): packets transmitted inside it vanish and no feedback
    /// is built. Returns (sender, per-ms targets, per-ms cumulative sent).
    fn run_loop_blackout(
        config: ScreamConfig,
        seconds: u64,
        bo_from: u64,
        bo_to: u64,
    ) -> (ScreamSender, Vec<f64>, Vec<u64>) {
        let mut s = ScreamSender::new(config);
        let mut builder = Rfc8888Builder::new(256);
        let mut arrivals: Vec<(SimTime, u16)> = Vec::new();
        let mut targets = Vec::new();
        let mut sent_counts = Vec::new();
        let mut seq: u16 = 0;
        let start = SimTime::from_secs(1);
        let bo_start = start + SimDuration::from_secs(bo_from);
        let bo_end = start + SimDuration::from_secs(bo_to);
        let end = start + SimDuration::from_secs(seconds);
        let mut t = start;
        let mut last_frame = t;
        let mut last_fb = t;
        while t < end {
            let dark = t >= bo_start && t < bo_end;
            if t.saturating_since(last_frame) >= SimDuration::from_millis(33) {
                last_frame = t;
                let frame_bytes = (s.target_bitrate_bps() / 8.0 / 30.0) as usize;
                let n = frame_bytes.div_ceil(1_180).max(1);
                let pkts: Vec<RtpPacket> = (0..n)
                    .map(|_| {
                        let p = pkt(seq, 1_180);
                        seq = seq.wrapping_add(1);
                        p
                    })
                    .collect();
                s.enqueue(t, pkts);
            }
            while let Some(p) = s.poll_transmit(t) {
                if !dark {
                    arrivals.push((t + SimDuration::from_millis(25), p.sequence));
                }
            }
            arrivals.retain(|(arr, sq)| {
                if *arr <= t {
                    builder.on_packet(*sq, *arr);
                    false
                } else {
                    true
                }
            });
            if !dark && t.saturating_since(last_fb) >= SimDuration::from_millis(10) {
                last_fb = t;
                if let Some(fb) = builder.build(t) {
                    s.on_feedback(&fb, t);
                }
            }
            s.on_tick(t);
            targets.push(s.target_bitrate_bps());
            sent_counts.push(s.stats().sent);
            t += SimDuration::from_millis(1);
        }
        (s, targets, sent_counts)
    }

    #[test]
    fn feedback_starvation_backs_off_keeps_probing_and_recovers() {
        let (s, targets, sent) = run_loop_blackout(ScreamConfig::default(), 30, 10, 15);
        let pre = targets[9_999];
        assert!(pre > 4e6, "pre-outage target {pre:.2e}");
        // Deep into the blackout the advertised rate has decayed to the
        // watchdog floor.
        let floor = ScreamConfig::default().watchdog.floor_bps;
        assert_eq!(targets[13_999], floor, "no decay to floor");
        // The probe trickle keeps flowing: without it the first feedback
        // after the outage would wait for the next full frame to squeeze
        // through a stale window.
        assert!(
            sent[13_999] > sent[11_000],
            "transmission froze during the blackout"
        );
        assert!(s.stats().watchdog_expired > 0);
        // Recovered: cap released, target back near the pre-outage rate.
        assert_eq!(s.watchdog_state(), WatchdogState::Armed);
        assert!(s.watchdog_stats().recoveries >= 1);
        assert!(s.watchdog_stats().last_ramp.is_some());
        let final_t = *targets.last().unwrap();
        assert!(
            final_t > 0.5 * pre,
            "post-recovery target {final_t:.2e} far below pre-outage {pre:.2e}"
        );
    }

    #[test]
    fn watchdog_opt_out_reproduces_frozen_window() {
        let cfg = ScreamConfig {
            watchdog: WatchdogConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let (s, targets, sent) = run_loop_blackout(cfg, 20, 10, 20);
        // Stock behaviour: in-flight bytes never drain, so the self-clocked
        // sender stops transmitting entirely...
        assert_eq!(
            *sent.last().unwrap(),
            sent[12_000],
            "sender kept transmitting without the watchdog"
        );
        // ...and the advertised rate stays frozen at its last value.
        assert_eq!(*targets.last().unwrap(), targets[9_999]);
        assert_eq!(s.watchdog_stats().activations, 0);
        assert_eq!(s.stats().watchdog_expired, 0);
    }

    #[test]
    fn sends_after_a_sequence_jump_past_half_the_space_drain_on_ack() {
        // The queue breaker discards packets that already own sequence
        // numbers, so a window-blocked sender in a long blackout burns tens
        // of thousands of them at once. The sends after the jump still
        // leave in order, and an ack naming them must free the window.
        let mut s = ScreamSender::new(ScreamConfig::default());
        let mut t = SimTime::from_secs(1);
        for batch in [0..2u16, 40_000..40_004] {
            s.enqueue(t, batch.clone().map(|i| pkt(i, 747)).collect());
            let mut sent = Vec::new();
            for _ in 0..100 {
                sent.extend(s.poll_transmit(t).map(|p| p.sequence));
                t += SimDuration::from_millis(2);
            }
            assert_eq!(sent, batch.clone().collect::<Vec<_>>());
            assert!(s.bytes_in_flight() > 0);
            let fb = Rfc8888Packet {
                report_ts: t,
                reports: batch
                    .map(|seq| Rfc8888Report {
                        seq,
                        received: true,
                        ato: SimDuration::from_millis(20),
                    })
                    .collect(),
            };
            s.on_feedback(&fb, t);
            assert_eq!(s.bytes_in_flight(), 0, "after acking {sent:?}");
        }
        assert_eq!(s.stats().span_skipped + s.stats().reported_lost, 0);
    }

    #[test]
    fn queue_delay_pressure_reduces_rate() {
        let mut s = ScreamSender::new(ScreamConfig {
            start_bitrate_bps: 10e6,
            ..Default::default()
        });
        let t0 = SimTime::from_secs(1);
        // First feedback establishes a low baseline OWD, later ones a much
        // higher one (queue building).
        let mut seqs = Vec::new();
        let mut t = t0;
        s.enqueue(t0, (0..10).map(|i| pkt(i, 1_180)).collect());
        for _ in 0..200 {
            if let Some(p) = s.poll_transmit(t) {
                seqs.push((t, p.sequence));
            }
            t += SimDuration::from_millis(2);
        }
        let rate_before = s.target_bitrate_bps();
        let mut b = Rfc8888Builder::new(64);
        for (i, (sent_at, sq)) in seqs.iter().enumerate() {
            // OWD grows from 30 ms to 330 ms across the burst.
            let owd = SimDuration::from_millis(30 + i as u64 * 50);
            b.on_packet(*sq, *sent_at + owd);
        }
        let now = t + SimDuration::from_millis(400);
        let fb = b.build(now).unwrap();
        s.on_feedback(&fb, now);
        assert!(s.network_queue_delay() > SimDuration::from_millis(100));
        // Rate must not have ramped up; the supported-rate cap and qdelay
        // backoff pull it down.
        assert!(
            s.target_bitrate_bps() < rate_before,
            "rate {:.2e} did not drop",
            s.target_bitrate_bps()
        );
    }
}
