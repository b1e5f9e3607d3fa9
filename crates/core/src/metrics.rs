//! Per-run measurement records — the analog of the paper's tcpdump + CC
//! logs + received-video analysis, already joined.

use rpav_lte::HandoverKind;
use rpav_sim::{SimDuration, SimTime};

use crate::failover::SwitchCause;
use crate::stats;

/// One handover occurrence.
#[derive(Clone, Copy, Debug)]
pub struct HandoverRecord {
    /// Execution start (RRCConnectionReconfiguration).
    pub at: SimTime,
    /// Handover execution time.
    pub het: SimDuration,
    /// Trigger type.
    pub kind: HandoverKind,
    /// Source cell.
    pub from: u32,
    /// Target cell.
    pub to: u32,
}

/// One radio-tick snapshot (100 ms cadence, like the modem's reporting).
#[derive(Clone, Copy, Debug)]
pub struct RadioTraceRow {
    /// Timestamp.
    pub t: SimTime,
    /// UAV altitude (m).
    pub altitude_m: f64,
    /// Available uplink capacity (bit/s).
    pub capacity_bps: f64,
    /// Serving-cell RSRP (dBm).
    pub rsrp_dbm: f64,
    /// Serving-cell SINR (dB).
    pub sinr_db: f64,
    /// Whether a handover was executing.
    pub in_handover: bool,
}

/// One played (or skipped) frame.
#[derive(Clone, Copy, Debug)]
pub struct FrameRecord {
    /// Frame number.
    pub number: u64,
    /// Display (or skip) instant.
    pub display_at: SimTime,
    /// Playback latency (ms); `None` for skipped frames.
    pub latency_ms: Option<f64>,
    /// SSIM (0 for skipped frames).
    pub ssim: f64,
    /// Whether it was actually displayed.
    pub displayed: bool,
}

/// Recovery bookkeeping for one scheduled blackout window.
#[derive(Clone, Copy, Debug)]
pub struct OutageRecord {
    /// Blackout window start.
    pub from: SimTime,
    /// Blackout window end.
    pub until: SimTime,
    /// Pre-outage goodput baseline (bps, 5 s window before the blackout).
    pub baseline_bps: f64,
    /// First media packet delivered after the window ended.
    pub first_arrival_after: Option<SimTime>,
    /// First frame displayed after the window ended.
    pub first_frame_after: Option<SimTime>,
    /// When a 1 s goodput window first got back to 50 % of the baseline
    /// (the survival bar: the stream is usable again).
    pub rate_half_recovered_at: Option<SimTime>,
    /// When a 1 s goodput window first got back to 90 % of the baseline
    /// (full recovery; AIMD controllers probe back to this linearly, so
    /// it can trail the 50 % mark by tens of seconds at high rates).
    pub rate_recovered_at: Option<SimTime>,
}

impl OutageRecord {
    /// Time from the end of the blackout to the first displayed frame.
    pub fn time_to_first_frame(&self) -> Option<SimDuration> {
        self.first_frame_after
            .map(|t| t.saturating_since(self.until))
    }

    /// Time from the end of the blackout to 50 % rate recovery.
    pub fn time_to_half_rate_recovery(&self) -> Option<SimDuration> {
        self.rate_half_recovered_at
            .map(|t| t.saturating_since(self.until))
    }

    /// Time from the end of the blackout to 90 % rate recovery.
    pub fn time_to_rate_recovery(&self) -> Option<SimDuration> {
        self.rate_recovered_at
            .map(|t| t.saturating_since(self.until))
    }

    /// Whether the stream survived: frames were displayed again after the
    /// blackout ended.
    pub fn survived(&self) -> bool {
        self.first_frame_after.is_some()
    }
}

/// One failover switch event.
#[derive(Clone, Copy, Debug)]
pub struct SwitchRecord {
    /// When the flow moved.
    pub at: SimTime,
    /// Leg the flow left.
    pub from_leg: u8,
    /// Leg the flow moved to.
    pub to_leg: u8,
    /// What justified the move.
    pub cause: SwitchCause,
}

/// End-of-run health accounting for one network leg.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathHealthSummary {
    /// Leg index (0 = the configured operator, 1 = the secondary).
    pub leg: u8,
    /// Time the estimator classified the leg healthy.
    pub time_healthy: SimDuration,
    /// Time classified degraded.
    pub time_degraded: SimDuration,
    /// Time classified dead.
    pub time_dead: SimDuration,
    /// Path reports folded into the estimate.
    pub reports: u64,
    /// Final smoothed RTT (ms), if any report arrived.
    pub final_rtt_ms: Option<f64>,
    /// Final smoothed loss fraction.
    pub final_loss: Option<f64>,
    /// Media packets this leg carried uplink (first transmissions only;
    /// duplicates and parity are counted by their own counters). The
    /// bonded scheduler's per-leg tx share falls out of these.
    pub tx_packets: u64,
}

/// Everything one run produces.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    /// Run duration.
    pub duration: SimDuration,
    /// Media packets offered to the network.
    pub media_sent: u64,
    /// Media packets delivered to the receiver.
    pub media_received: u64,
    /// Media payload bytes delivered.
    pub media_received_bytes: u64,
    /// One-way delay samples of delivered media packets: (arrival, ms).
    pub owd: Vec<(SimTime, f64)>,
    /// Handover events.
    pub handovers: Vec<HandoverRecord>,
    /// Radio snapshots.
    pub radio: Vec<RadioTraceRow>,
    /// Frame-level playback records.
    pub frames: Vec<FrameRecord>,
    /// Player stall count (inter-frame gap > 300 ms).
    pub stalls: u64,
    /// Total wall time the player spent above the stall threshold.
    pub stalled_time: SimDuration,
    /// Frames that arrived after the player had skipped past them —
    /// delivered late (a repair that lost its race), not lost.
    pub frames_late_discarded: u64,
    /// Packets the sender-side CC discarded before transmission (SCReAM
    /// queue breaker).
    pub sender_discarded: u64,
    /// SCReAM false losses from the bounded ack span.
    pub span_skipped: u64,
    /// Distinct serving cells seen.
    pub distinct_cells: usize,
    /// PLIs the receiver sent upstream after decode-breaking loss.
    pub plis_sent: u64,
    /// PLIs that survived the feedback path and reached the sender.
    pub plis_received: u64,
    /// IDRs the encoder produced in response to PLIs.
    pub forced_keyframes: u64,
    /// Feedback-starvation watchdog activations (CC entered `Starved`).
    pub watchdog_activations: u64,
    /// Watchdog full recoveries (ramp completed back to the CC target).
    pub watchdog_recoveries: u64,
    /// Duration of the last completed ramp-back (time-to-recover).
    pub watchdog_last_ramp: Option<SimDuration>,
    /// Jitter-target inflations after receiver-observed delivery gaps.
    pub jitter_inflations: u64,
    /// Packets destroyed by scripted fault clauses (both directions).
    pub script_dropped: u64,
    /// Per-scheduled-blackout recovery records.
    pub outages: Vec<OutageRecord>,
    /// Wire packets whose payload failed to parse (typed `ParseError` from
    /// any RTP/RTCP parser, either direction).
    pub malformed_packets: u64,
    /// Media packets that arrived with the corruption flag set (bits were
    /// really flipped in flight; the parsers decide whether they survive).
    pub corrupted_arrivals: u64,
    /// Duplicate media packets discarded by the jitter buffer.
    pub duplicate_packets: u64,
    /// Media packets that arrived after the playout deadline had passed.
    pub late_packets: u64,
    /// Depacketizer-level malformed payloads (parsed RTP, broken `Meta`).
    pub malformed_payloads: u64,
    /// NACK feedback packets the receiver sent.
    pub nacks_sent: u64,
    /// Distinct sequence numbers requested across all NACKs (retries
    /// re-count, as on the wire).
    pub nack_seqs_requested: u64,
    /// Missing packets recovered by retransmission in time for playout.
    pub rtx_recovered: u64,
    /// Retransmissions that arrived after the loss was already abandoned —
    /// wasted repair bytes.
    pub rtx_late: u64,
    /// Missing packets abandoned (retries exhausted or playout deadline
    /// unreachable); these escalate to the PLI path.
    pub nack_abandoned: u64,
    /// Retransmission packets the sender emitted.
    pub rtx_sent: u64,
    /// Wire bytes spent on retransmissions.
    pub rtx_bytes: u64,
    /// NACKed sequences dropped because the repair token bucket was empty.
    pub rtx_budget_exhausted: u64,
    /// NACKed sequences no longer in the sender's retransmission history.
    pub rtx_not_in_history: u64,
    /// Failover switch events (multipath runs; empty on single-path).
    pub switches: Vec<SwitchRecord>,
    /// Per-leg health accounting (multipath runs; empty on single-path).
    pub path_health: Vec<PathHealthSummary>,
    /// Standby keep-warm probe packets sent (Failover/SelectiveDuplicate).
    pub probes_sent: u64,
    /// Media packets transmitted a second time on the other leg
    /// (Duplicate: all; SelectiveDuplicate: keyframes + degraded windows).
    pub dup_tx_packets: u64,
    /// Payload bytes of those duplicate transmissions.
    pub dup_tx_bytes: u64,
    /// Per-path receiver reports the sender parsed.
    pub path_reports_received: u64,
    /// Reed–Solomon parity packets transmitted (Bonded scheme).
    pub fec_tx: u64,
    /// Erased media packets rebuilt from parity before the NACK/RTX path
    /// had to fire (Bonded scheme).
    pub fec_recovered: u64,
    /// Media arrivals accepted out of order by the cross-leg reassembly
    /// buffer (sequence below the highest already seen).
    pub reorder_buffered: u64,
    /// Of [`fec_recovered`](Self::fec_recovered), packets rebuilt from
    /// groups that had lost *more than one* member — repairs a
    /// single-parity XOR code could never have made.
    pub fec_multi_recovered: u64,
}

impl RunMetrics {
    /// Packet error rate of the media stream.
    pub fn per(&self) -> f64 {
        if self.media_sent == 0 {
            return 0.0;
        }
        1.0 - self.media_received as f64 / self.media_sent as f64
    }

    /// Total time any leg's health estimator classified its path dead
    /// (milliseconds, summed over legs; 0 on single-path runs). The sum
    /// starts at +0: `Sum` starts at −0, which prints as `-0`.
    pub fn path_dead_ms(&self) -> f64 {
        self.path_health
            .iter()
            .fold(0.0, |ms, p| ms + p.time_dead.as_millis_f64())
    }

    /// Fraction of first-transmission media packets carried by `leg`
    /// (0 when the run recorded no per-leg transmissions — single-path
    /// runs, or a bonded run that never sent).
    pub fn leg_tx_share(&self, leg: u8) -> f64 {
        let total: u64 = self.path_health.iter().map(|p| p.tx_packets).sum();
        if total == 0 {
            return 0.0;
        }
        let mine: u64 = self
            .path_health
            .iter()
            .filter(|p| p.leg == leg)
            .map(|p| p.tx_packets)
            .sum();
        mine as f64 / total as f64
    }

    /// Mean goodput over the run (payload bits delivered / duration).
    pub fn goodput_bps(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.media_received_bytes as f64 * 8.0 / secs
    }

    /// Goodput over sliding windows: `(window_end, bps)` series.
    pub fn goodput_timeline(&self, window: SimDuration) -> Vec<(SimTime, f64)> {
        // Recover per-window byte counts from the OWD sample arrival times
        // weighted by mean packet size (samples are per delivered packet).
        if self.owd.is_empty() || self.media_received == 0 {
            return Vec::new();
        }
        let mean_pkt = self.media_received_bytes as f64 / self.media_received as f64;
        let mut out = Vec::new();
        let (Some(last), Some(first)) = (self.owd.last(), self.owd.first()) else {
            return Vec::new();
        };
        let end = last.0;
        let mut t = first.0 + window;
        let mut idx = 0usize;
        while t <= end {
            let start = t - window;
            while idx < self.owd.len() && self.owd[idx].0 < start {
                idx += 1;
            }
            let count = self.owd[idx..].iter().take_while(|(a, _)| *a <= t).count();
            out.push((t, count as f64 * mean_pkt * 8.0 / window.as_secs_f64()));
            t += window;
        }
        out
    }

    /// Handover frequency (events per second of run time).
    pub fn ho_frequency(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.handovers.len() as f64 / secs
    }

    /// HET samples in milliseconds.
    pub fn het_ms(&self) -> Vec<f64> {
        self.handovers
            .iter()
            .map(|h| h.het.as_millis_f64())
            .collect()
    }

    /// One-way latency samples in milliseconds.
    pub fn owd_ms(&self) -> Vec<f64> {
        self.owd.iter().map(|(_, ms)| *ms).collect()
    }

    /// Playback-latency samples (displayed frames only), ms.
    pub fn playback_latency_ms(&self) -> Vec<f64> {
        self.frames.iter().filter_map(|f| f.latency_ms).collect()
    }

    /// SSIM samples (0 entries for skipped frames included, §4.2.3).
    pub fn ssim_samples(&self) -> Vec<f64> {
        self.frames.iter().map(|f| f.ssim).collect()
    }

    /// FPS over sliding 1 s windows.
    pub fn fps_timeline(&self) -> Vec<(SimTime, f64)> {
        let displayed: Vec<SimTime> = self
            .frames
            .iter()
            .filter(|f| f.displayed)
            .map(|f| f.display_at)
            .collect();
        if displayed.is_empty() {
            return Vec::new();
        }
        let window = SimDuration::from_secs(1);
        let mut out = Vec::new();
        let Some(&end) = displayed.last() else {
            return Vec::new();
        };
        let mut t = displayed[0] + window;
        let mut idx = 0usize;
        while t <= end {
            let start = t - window;
            while idx < displayed.len() && displayed[idx] < start {
                idx += 1;
            }
            let count = displayed[idx..].iter().take_while(|d| **d <= t).count();
            out.push((t, count as f64));
            t += SimDuration::from_millis(500);
        }
        out
    }

    /// Fraction of NACK-requested sequences recovered in time for playout
    /// (the repair-efficiency headline; 0 when repair never fired).
    pub fn repair_efficiency(&self) -> f64 {
        if self.nack_seqs_requested == 0 {
            return 0.0;
        }
        self.rtx_recovered as f64 / self.nack_seqs_requested as f64
    }

    /// Stall rate per minute (the §4.2.1 headline metric).
    pub fn stalls_per_minute(&self) -> f64 {
        let mins = self.duration.as_secs_f64() / 60.0;
        if mins <= 0.0 {
            return 0.0;
        }
        self.stalls as f64 / mins
    }

    /// Max/min one-way-latency ratios in the 1 s windows before and after
    /// each handover (Fig. 9). Returns `(before_ratios, after_ratios)`.
    pub fn ho_latency_ratios(&self) -> (Vec<f64>, Vec<f64>) {
        let mut before = Vec::new();
        let mut after = Vec::new();
        let w = SimDuration::from_secs(1);
        for ho in &self.handovers {
            let b: Vec<f64> = self
                .owd
                .iter()
                .filter(|(t, _)| *t >= ho.at - w && *t < ho.at)
                .map(|(_, ms)| *ms)
                .collect();
            let a: Vec<f64> = self
                .owd
                .iter()
                .filter(|(t, _)| *t > ho.at && *t <= ho.at + w)
                .map(|(_, ms)| *ms)
                .collect();
            if b.len() >= 2 {
                let max = b.iter().cloned().fold(f64::MIN, f64::max);
                let min = b.iter().cloned().fold(f64::MAX, f64::min);
                if min > 0.0 {
                    before.push(max / min);
                }
            }
            if a.len() >= 2 {
                let max = a.iter().cloned().fold(f64::MIN, f64::max);
                let min = a.iter().cloned().fold(f64::MAX, f64::min);
                if min > 0.0 {
                    after.push(max / min);
                }
            }
        }
        (before, after)
    }

    /// Fraction of time playback latency was at or below the RP threshold.
    pub fn playback_within(&self, threshold_ms: f64) -> f64 {
        stats::fraction_at_or_below(&self.playback_latency_ms(), threshold_ms)
    }

    /// Derive per-outage recovery records from the scheduled blackout
    /// windows of the run's fault script. Call once, after the run, with
    /// `owd` and `frames` fully populated (both are in arrival order).
    pub fn record_outages(&mut self, windows: &[(SimTime, SimTime)]) {
        let mean_pkt_bits = if self.media_received > 0 {
            self.media_received_bytes as f64 * 8.0 / self.media_received as f64
        } else {
            0.0
        };
        // Count delivered packets in (from, to] via binary search — `owd`
        // is sorted by arrival time.
        let arrivals_in = |from: SimTime, to: SimTime| -> usize {
            let lo = self.owd.partition_point(|(a, _)| *a <= from);
            let hi = self.owd.partition_point(|(a, _)| *a <= to);
            hi - lo
        };
        for &(from, until) in windows {
            let baseline_span = SimDuration::from_secs(5);
            let bstart = if from.saturating_since(SimTime::ZERO) > baseline_span {
                from - baseline_span
            } else {
                SimTime::ZERO
            };
            let bsecs = from.saturating_since(bstart).as_secs_f64();
            let baseline_bps = if bsecs > 0.0 {
                arrivals_in(bstart, from) as f64 * mean_pkt_bits / bsecs
            } else {
                0.0
            };

            let first_arrival_after = {
                let idx = self.owd.partition_point(|(a, _)| *a < until);
                self.owd.get(idx).map(|(a, _)| *a)
            };
            let first_frame_after = self
                .frames
                .iter()
                .find(|f| f.displayed && f.display_at >= until)
                .map(|f| f.display_at);

            // First 1 s windows after the outage whose goodput is back to
            // 50 % / 90 % of the baseline, scanned at 100 ms granularity.
            let mut rate_half_recovered_at = None;
            let mut rate_recovered_at = None;
            if baseline_bps > 0.0 {
                let w = SimDuration::from_secs(1);
                let horizon = self.owd.last().map(|(a, _)| *a).unwrap_or(until);
                let mut t = until + w;
                while t <= horizon {
                    let bps = arrivals_in(t - w, t) as f64 * mean_pkt_bits / w.as_secs_f64();
                    if rate_half_recovered_at.is_none() && bps >= 0.5 * baseline_bps {
                        rate_half_recovered_at = Some(t);
                    }
                    if bps >= 0.9 * baseline_bps {
                        rate_recovered_at = Some(t);
                        break;
                    }
                    t += SimDuration::from_millis(100);
                }
            }

            self.outages.push(OutageRecord {
                from,
                until,
                baseline_bps,
                first_arrival_after,
                first_frame_after,
                rate_half_recovered_at,
                rate_recovered_at,
            });
        }
    }

    /// Whether every scheduled blackout was survived (frames displayed
    /// again after each window). Vacuously true with no scheduled outages.
    pub fn survived_all_outages(&self) -> bool {
        self.outages.iter().all(|o| o.survived())
    }

    /// Ping-pong handovers: a handover back to the cell just left, within
    /// `window` (the §5 discussion: "avoid unnecessary ping-pong HOs …
    /// that we also observed in our rural measurements").
    pub fn ping_pong_count(&self, window: SimDuration) -> usize {
        self.handovers
            .windows(2)
            .filter(|w| w[1].to == w[0].from && w[1].at.saturating_since(w[0].at) <= window)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample_metrics() -> RunMetrics {
        RunMetrics {
            duration: SimDuration::from_secs(60),
            media_sent: 1_000,
            media_received: 990,
            media_received_bytes: 990 * 1_200,
            owd: (0..990)
                .map(|i| (t(i * 60), 40.0 + (i % 10) as f64))
                .collect(),
            handovers: vec![HandoverRecord {
                at: t(30_000),
                het: SimDuration::from_millis(30),
                kind: HandoverKind::A3,
                from: 1,
                to: 2,
            }],
            frames: (0..1_800)
                .map(|i| FrameRecord {
                    number: i,
                    display_at: t(i * 33),
                    latency_ms: Some(180.0 + (i % 30) as f64),
                    ssim: 0.9,
                    displayed: true,
                })
                .collect(),
            stalls: 2,
            ..Default::default()
        }
    }

    #[test]
    fn per_and_goodput() {
        let m = sample_metrics();
        assert!((m.per() - 0.01).abs() < 1e-12);
        let expected = 990.0 * 1_200.0 * 8.0 / 60.0;
        assert!((m.goodput_bps() - expected).abs() < 1.0);
    }

    #[test]
    fn ho_frequency_and_het() {
        let m = sample_metrics();
        assert!((m.ho_frequency() - 1.0 / 60.0).abs() < 1e-12);
        assert_eq!(m.het_ms(), vec![30.0]);
    }

    #[test]
    fn stalls_per_minute() {
        let m = sample_metrics();
        assert!((m.stalls_per_minute() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn playback_within_threshold() {
        let m = sample_metrics();
        assert_eq!(m.playback_within(300.0), 1.0);
        assert_eq!(m.playback_within(100.0), 0.0);
    }

    #[test]
    fn ho_latency_ratio_windows() {
        let mut m = sample_metrics();
        // Inject a latency spike just before the handover at 30 s.
        m.owd.push((t(29_500), 400.0));
        m.owd.sort_by_key(|(t, _)| *t);
        let (before, after) = m.ho_latency_ratios();
        assert_eq!(before.len(), 1);
        assert_eq!(after.len(), 1);
        assert!(before[0] > 8.0, "before ratio {}", before[0]);
        assert!(after[0] < 2.0, "after ratio {}", after[0]);
    }

    #[test]
    fn fps_timeline_counts_displayed_frames() {
        let m = sample_metrics();
        let fps = m.fps_timeline();
        assert!(!fps.is_empty());
        // ~30 FPS everywhere (frames every 33 ms).
        for (_, f) in &fps {
            assert!((*f - 30.0).abs() <= 2.0, "fps {f}");
        }
    }

    #[test]
    fn goodput_timeline_matches_mean() {
        let m = sample_metrics();
        let tl = m.goodput_timeline(SimDuration::from_secs(5));
        assert!(!tl.is_empty());
        let avg = tl.iter().map(|(_, b)| *b).sum::<f64>() / tl.len() as f64;
        // Packets every 60 ms of 1 200 B → 160 kbps.
        assert!((avg - 160_000.0).abs() < 16_000.0, "avg {avg}");
    }

    #[test]
    fn outage_records_compute_recovery_times() {
        let mut m = RunMetrics::default();
        // 1 200 B packets every 10 ms, dark from 10 s to 15 s.
        let mut owd = Vec::new();
        for i in 0..3_000u64 {
            let at = t(i * 10);
            if at >= t(10_000) && at < t(15_000) {
                continue;
            }
            owd.push((at, 40.0));
        }
        m.media_received = owd.len() as u64;
        m.media_received_bytes = owd.len() as u64 * 1_200;
        m.owd = owd;
        m.frames = (0..900u64)
            .map(|i| {
                let at = t(i * 33);
                FrameRecord {
                    number: i,
                    display_at: at,
                    latency_ms: Some(200.0),
                    ssim: 0.9,
                    displayed: !(at >= t(10_000) && at < t(15_200)),
                }
            })
            .collect();
        m.record_outages(&[(t(10_000), t(15_000))]);
        assert_eq!(m.outages.len(), 1);
        let o = &m.outages[0];
        assert!(
            (o.baseline_bps - 960_000.0).abs() < 50_000.0,
            "baseline {}",
            o.baseline_bps
        );
        assert!(o.survived());
        assert!(m.survived_all_outages());
        let ff = o.time_to_first_frame().unwrap();
        assert!(
            ff.as_millis() <= 300,
            "first frame {} ms after",
            ff.as_millis()
        );
        let rr = o.time_to_rate_recovery().unwrap();
        assert!(
            rr.as_millis() <= 1_100,
            "rate recovery {} ms",
            rr.as_millis()
        );
        let half = o.time_to_half_rate_recovery().unwrap();
        assert!(half <= rr, "50% mark {half:?} after 90% mark {rr:?}");
    }

    #[test]
    fn unsurvived_outage_is_reported() {
        let mut m = sample_metrics();
        // A blackout scheduled after the last delivered packet/frame.
        m.record_outages(&[(t(70_000), t(75_000))]);
        assert_eq!(m.outages.len(), 1);
        assert!(!m.outages[0].survived());
        assert!(!m.survived_all_outages());
        assert!(m.outages[0].time_to_first_frame().is_none());
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = RunMetrics::default();
        assert_eq!(m.per(), 0.0);
        assert_eq!(m.goodput_bps(), 0.0);
        assert_eq!(m.ho_frequency(), 0.0);
        assert!(m.goodput_timeline(SimDuration::from_secs(1)).is_empty());
        assert!(m.fps_timeline().is_empty());
        let (b, a) = m.ho_latency_ratios();
        assert!(b.is_empty() && a.is_empty());
    }
}
