//! Multi-operator delivery — the paper's future-work direction: what a
//! session needs *beyond* the single-operator pipeline to ride several
//! modems at once. The session itself (sender, receiver, the one loop
//! that advances sim time) is [`Simulation`]; this module holds the
//! multipath **policy** it consults.
//!
//! §5/Conclusion: "utilizing multiple access links towards the ground
//! station, e.g. multiple cellular operators …, through multipath
//! transport can help improve the reliability of transmissions when one of
//! the underlying networks is experiencing deteriorations", citing the
//! link-diversity design of Bacco et al. \[9\]. One UAV carries **N
//! modems across the two operators** (the paper's own rig carried four
//! dongles across two MNOs; `ExperimentConfig::n_legs` sizes the rig,
//! default two); the `LegScheduler` maps the RTP flow onto them under
//! five schemes:
//!
//! * [`SinglePath`](MultipathScheme::SinglePath) — baseline, primary
//!   operator only.
//! * [`Duplicate`](MultipathScheme::Duplicate) — every packet on both
//!   uplinks; the receiver keeps the first copy. Maximum robustness,
//!   2× radio spend.
//! * [`Failover`](MultipathScheme::Failover) — media rides the *active*
//!   leg; the standby is kept warm with low-rate probes so its health
//!   stays measurable. The [`FailoverController`] moves the flow when the
//!   active leg dies (report starvation, RLF) or measurably degrades.
//! * [`SelectiveDuplicate`](MultipathScheme::SelectiveDuplicate) —
//!   failover plus targeted redundancy: keyframes (whose loss breaks the
//!   decoder's reference chain) and packets sent while the active leg's
//!   health is impaired also go out on the standby.
//! * [`Bonded`](MultipathScheme::Bonded) — deficit-weighted striping
//!   across every live leg with Reed–Solomon parity crossing legs.
//!
//! The monitoring plane is per-leg: each leg's receiver counters flow
//! back as `PathReport`s (50 ms cadence) on that same leg's downlink, so
//! a dead leg silences its own report stream — which *is* the break
//! detector ([`PathHealth`]'s starvation watchdog). CC feedback, NACKs
//! and PLIs instead follow the most recent accepted media arrival,
//! keeping exactly one arrival process inside the congestion controller;
//! across a switch the CC state is carried, with the feedback-starvation
//! watchdog providing the rate cut during the break (DESIGN.md §10.6).
//!
//! [`Simulation`]: crate::pipeline::Simulation

use std::collections::VecDeque;

use bytes::Bytes;
use rpav_lte::{NetworkProfile, Operator, RadioModel, RadioSample};
use rpav_netem::{FaultScript, Packet, PacketKind, Path, ReorderConfig};
use rpav_rtp::fec::{rs_recover_into, RsGroup, RsParityPacket, MAX_FEC_GROUP, MAX_RS_PARITY};
use rpav_rtp::packet::RtpPacket;
use rpav_rtp::packetize::decode_meta_slice;
use rpav_rtp::report::PathReport;
use rpav_sim::{RngSet, SimDuration, SimRng, SimTime};
use rpav_uav::Position;

use crate::cc::CoupledCc;
use crate::failover::{FailoverConfig, FailoverController};
use crate::health::{HealthClass, HealthConfig, PathHealth};
use crate::metrics::{PathHealthSummary, RunMetrics, SwitchRecord};
use crate::paths;
use crate::scenario::{ExperimentConfig, MAX_LEGS};

/// Per-leg receiver-report cadence.
const REPORT_INTERVAL: SimDuration = SimDuration::from_millis(50);
/// Standby keep-warm probe cadence (Failover/SelectiveDuplicate).
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Probe payload size (bytes): enough to exercise the path, negligible
/// against video rates (64 B / 20 ms = 25.6 kbit/s).
const PROBE_BYTES: usize = 64;
/// The probe wire payload — a static zero block, shared by every probe
/// so the keep-warm path allocates nothing per send.
static PROBE_PAYLOAD: [u8; PROBE_BYTES] = [0u8; PROBE_BYTES];
/// Sender must have offered at least this many packets to a leg in a
/// report interval before an unmoving receiver counter reads as loss
/// (below it, the leg may simply have had nothing to carry).
const LOSS_MIN_TX: u64 = 10;
/// SSRC of the media stream (and of the parity stream riding beside it);
/// mirrors the packetizer's.
pub(crate) const MEDIA_SSRC: u32 = 0x2;
/// Bonded reassembly window: recent media packets retained for FEC
/// recovery (bounded; old packets are past their playout deadline).
const MEDIA_WINDOW_CAP: usize = 1024;
/// How long a parity packet waits for its group before being abandoned —
/// the playout deadline (the jitter buffer's 150 ms target): a packet
/// recovered later than this would be dropped as late anyway.
pub(crate) const FEC_RECOVERY_DEADLINE: SimDuration = SimDuration::from_millis(150);
/// Adaptive FEC overhead ratio below which parity is not worth its
/// framing bytes — the controller reads this as "off".
const FEC_MIN_RATIO: f64 = 0.01;
/// Redundancy bump applied while any leg is degraded or dead (elevated
/// blackout risk even before the loss EWMA catches up).
const FEC_RISK_BUMP: f64 = 0.05;
/// Deficit-counter clamp: bounds how much burst credit one leg can bank.
const DEFICIT_CLAMP: f64 = 8.0;
/// Initial NACK hold while the parity layer is armed: a fresh hole is
/// not retransmission-requested until this long after detection, so a
/// parity packet closing the hole's group (group close + cross-leg skew,
/// typically well under this) repairs it without spending the round
/// trip. Holes the parity misses still get NACKed with over half the
/// 150 ms playout budget left.
const FEC_NACK_HOLD: SimDuration = SimDuration::from_millis(40);
/// Per-leg loss-burstiness (EWMA |Δloss| between report samples) per
/// *additional* RS parity shard: a leg alternating 0 ↔ 0.25 interval
/// loss (a Gilbert–Elliott bad-state excursion) reads ≈0.2 and buys the
/// group three extra shards; smooth loss stays at one shard — the XOR
/// overhead point.
const RS_BURST_PER_PARITY: f64 = 0.08;
/// Exploration floor for the bonded scheduler: every live leg's weight
/// is held at no less than this fraction of the strongest leg's. The
/// goodput-proportional weights are a feedback loop — a leg with no
/// traffic measures no goodput and never earns traffic back — so a
/// share of exactly zero is an absorbing state. A guaranteed trickle
/// keeps the starved leg's estimator fed; if the leg can actually
/// carry, the measurements pull its weight back up (and the RTT
/// penalty on saturated legs pushes load over). ≈7 % of stripes at the
/// floor.
const EXPLORE_WEIGHT_FLOOR: f64 = 0.08;

/// How packets are mapped onto the operators' legs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultipathScheme {
    /// Baseline: only the primary operator is used.
    SinglePath,
    /// Redundant: every packet goes out on both operators; the receiver
    /// keeps the first copy.
    Duplicate,
    /// Active/standby: media on the active leg, probes on the standby,
    /// health-triggered switching.
    Failover,
    /// Failover plus duplication of keyframes and of packets sent while
    /// the active leg's health is impaired.
    SelectiveDuplicate,
    /// Packet-level bonding: a deficit-weighted scheduler stripes each
    /// frame's packets across every Up leg (weights from the per-leg
    /// goodput/RTT/loss EWMAs), with loss- and burst-adaptive
    /// Reed–Solomon parity groups crossing legs; falls back to keyframe
    /// duplication when only one leg is Up.
    Bonded,
}

impl MultipathScheme {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MultipathScheme::SinglePath => "single-path",
            MultipathScheme::Duplicate => "duplicate",
            MultipathScheme::Failover => "failover",
            MultipathScheme::SelectiveDuplicate => "sel-duplicate",
            MultipathScheme::Bonded => "bonded",
        }
    }

    /// The original four schemes, baseline first — the set the standing
    /// campaign matrices (and their committed baselines) were built on.
    /// Matrices that must stay bit-identical to those baselines enumerate
    /// this; anything that means "every scheme" must use
    /// [`MultipathScheme::all`], which really is all of them.
    pub fn baseline() -> [MultipathScheme; 4] {
        [
            MultipathScheme::SinglePath,
            MultipathScheme::Duplicate,
            MultipathScheme::Failover,
            MultipathScheme::SelectiveDuplicate,
        ]
    }

    /// Every scheme, baseline first. This used to silently omit `Bonded`
    /// (a fixed `[_; 4]` nobody widened when the fifth scheme landed);
    /// new schemes must be appended here so standing "all schemes"
    /// matrices can never drop one unnoticed.
    pub fn all() -> [MultipathScheme; 5] {
        [
            MultipathScheme::SinglePath,
            MultipathScheme::Duplicate,
            MultipathScheme::Failover,
            MultipathScheme::SelectiveDuplicate,
            MultipathScheme::Bonded,
        ]
    }

    /// Whether the failover controller drives the active leg (and the
    /// standby is kept warm with probes).
    fn switches(&self) -> bool {
        matches!(
            self,
            MultipathScheme::Failover | MultipathScheme::SelectiveDuplicate
        )
    }
}

/// One modem: radio model, both path directions, per-leg wire counters
/// and — for sessions that monitor their legs — the sender-side health
/// state and the receiver-side report counters.
pub(crate) struct Leg {
    pub radio: RadioModel,
    pub uplink: Path,
    pub downlink: Path,
    /// Uplink capacity cap on top of the channel model
    /// (`ExperimentConfig::leg_cap_bps`); infinite when uncapped.
    cap_bps: f64,
    /// Altitude loss in force since the last radio tick (§4.2.1), and
    /// the stream its per-packet draws come from.
    extra_loss_prob: f64,
    extra_loss_rng: SimRng,
    /// RNG stream prefix: `pipe` for `Simulation::new`'s leg,
    /// [`paths::leg_stream_prefix`] for a multipath rig's.
    stream_prefix: String,
    /// Sender-side wire sequence on this leg's uplink.
    tx_seq: u64,
    /// Receiver-side wire sequence on this leg's downlink.
    dl_seq: u64,
    pub health: PathHealth,
    /// First-transmission media packets scheduled onto this leg (no
    /// duplicates, probes, parity or retransmissions) — the numerator of
    /// the per-leg tx share.
    tx_media: u64,
    /// `tx_seq` snapshot at the last bonded keep-warm probe check: a leg
    /// whose counter did not move carried nothing and gets probed.
    tx_at_probe: u64,
    // Receiver-side per-leg counters (media and probes alike).
    rx_highest_seq: u64,
    rx_count: u64,
    rx_bytes: u64,
    rx_last_owd_us: u32,
    next_report: SimTime,
    // Sender-side report differencing state.
    last_report: Option<(PathReport, SimTime)>,
    tx_at_last_report: u64,
}

impl Leg {
    /// `radio_index` decorrelates the legs' fading/handover streams
    /// (RadioModel draws from fixed stream names, so the legs would
    /// otherwise fade and hand over in lockstep — the opposite of the
    /// link diversity the rig exists to exploit).
    pub fn new(
        stream_prefix: String,
        op: Operator,
        cap_bps: Option<f64>,
        config: &ExperimentConfig,
        rngs: &RngSet,
        radio_index: u64,
    ) -> Leg {
        let mut profile = NetworkProfile::new(config.environment, op);
        if let Some(h) = config.hysteresis_override_db {
            profile.handover.hysteresis_db = h;
        }
        if let Some(ttt) = config.ttt_override_ms {
            profile.handover.time_to_trigger = SimDuration::from_millis(ttt);
        }
        let stream = |suffix: &str| format!("{stream_prefix}.{suffix}");
        // Both directions: fault injector (bursty PER) → bottleneck → WAN.
        // Radio propagation ≈ 5 ms; WAN ≈ 12.5 ms → lowest RTT ≈ 35 ms
        // (§3.1). Parameters live in [`paths`].
        Leg {
            radio: RadioModel::new(&profile, rngs, radio_index),
            uplink: paths::uplink_path(rngs, &stream("ul"), config.run_index),
            downlink: paths::downlink_path(rngs, &stream("dl"), config.run_index),
            cap_bps: cap_bps.unwrap_or(f64::INFINITY),
            extra_loss_prob: 0.0,
            extra_loss_rng: rngs.stream_indexed(&stream("extraloss"), config.run_index),
            stream_prefix,
            health: PathHealth::new(HealthConfig::default()),
            tx_seq: 0,
            dl_seq: 0,
            tx_media: 0,
            tx_at_probe: 0,
            rx_highest_seq: 0,
            rx_count: 0,
            rx_bytes: 0,
            rx_last_owd_us: 0,
            next_report: SimTime::ZERO,
            last_report: None,
            tx_at_last_report: 0,
        }
    }

    /// Attach a scripted fault campaign to one direction. The script's
    /// RNG derives from the run's seed, so a given configuration + script
    /// is bit-reproducible. Reorder windows retune an exit-side stage
    /// that must exist first; a transparent one is attached only when the
    /// script needs it, so runs without reorder clauses are untouched.
    pub fn attach_script(
        &mut self,
        uplink: bool,
        script: FaultScript,
        rngs: &RngSet,
        run_index: u64,
    ) {
        let (path, dir) = if uplink {
            (&mut self.uplink, "ul")
        } else {
            (&mut self.downlink, "dl")
        };
        let prefix = &self.stream_prefix;
        if script.has_reorder() {
            path.set_reorder(
                ReorderConfig::default(),
                rngs.stream_indexed(&format!("{prefix}.{dir}.reorder"), run_index),
            );
        }
        path.set_script(
            script,
            rngs.stream_indexed(&format!("{prefix}.{dir}.script"), run_index),
        );
    }

    /// One radio tick: track the UAV (positional script clauses —
    /// coverage holes — follow it), re-rate both directions, pause
    /// through a handover, feed the health estimator its radio-layer
    /// signal.
    pub fn radio_tick(&mut self, now: SimTime, pos: &Position) -> RadioSample {
        self.uplink.set_position(pos.x, pos.y, pos.z);
        self.downlink.set_position(pos.x, pos.y, pos.z);
        let s = self.radio.step(now, pos);
        let floor = paths::MIN_RATE_BPS;
        self.uplink
            .set_rate_bps(now, s.uplink_capacity_bps.min(self.cap_bps).max(floor));
        self.downlink
            .set_rate_bps(now, s.downlink_capacity_bps.max(floor));
        self.uplink.set_extra_delay(s.retx_delay);
        self.downlink.set_extra_delay(s.retx_delay);
        if let Some(sig) = s.health_signal() {
            self.health.on_signal(sig);
        }
        if let Some(ho) = s.handover {
            self.uplink.pause_until(now, ho.complete_at);
            self.downlink.pause_until(now, ho.complete_at);
        }
        self.extra_loss_prob = s.extra_loss_prob;
        s
    }

    /// Offer one wire payload to this leg's uplink.
    pub fn send_up(&mut self, now: SimTime, payload: Bytes, kind: PacketKind) {
        self.tx_seq += 1;
        self.uplink
            .enqueue(now, Packet::new(self.tx_seq, payload, kind, now));
    }

    /// Offer one fresh media packet to the uplink, applying the altitude
    /// loss (§4.2.1) — retransmissions, parity and probes do not draw.
    pub fn send_media(&mut self, now: SimTime, rtp: &RtpPacket) {
        if self.extra_loss_rng.chance(self.extra_loss_prob) {
            // The radio ate it: the wire number is spent, so the leg's
            // path reports see the hole.
            self.tx_seq += 1;
            return;
        }
        self.send_up(now, rtp.serialize(), PacketKind::Media);
    }

    /// Send one feedback payload down this leg.
    pub fn send_down(&mut self, now: SimTime, payload: Bytes) {
        self.dl_seq += 1;
        self.downlink.enqueue(
            now,
            Packet::new(self.dl_seq, payload, PacketKind::Feedback, now),
        );
    }

    /// Receiver-side wire accounting for one uplink arrival: the path
    /// reports count everything that crossed the leg.
    pub fn on_arrival(&mut self, now: SimTime, pkt: &Packet) {
        self.rx_highest_seq = self.rx_highest_seq.max(pkt.seq);
        self.rx_count += 1;
        self.rx_bytes += pkt.payload.len() as u64;
        let owd = now.saturating_since(pkt.sent_at).as_micros();
        self.rx_last_owd_us = owd.min(u64::from(u32::MAX)) as u32;
    }

    /// Emit this leg's `PathReport` on its own downlink when due.
    pub fn poll_report(&mut self, now: SimTime, leg_index: usize) {
        if now < self.next_report {
            return;
        }
        self.next_report = now + REPORT_INTERVAL;
        let report = PathReport {
            leg: leg_index as u8,
            highest_seq: self.rx_highest_seq,
            received: self.rx_count,
            received_bytes: self.rx_bytes,
            newest_owd_us: self.rx_last_owd_us,
        };
        self.send_down(now, report.serialize());
    }

    /// Fold an arrived `PathReport` into this leg's health estimate.
    pub fn on_report(&mut self, now: SimTime, report: PathReport, report_sent_at: SimTime) {
        if let Some((prev, prev_at)) = self.last_report {
            let dh = report.highest_seq.saturating_sub(prev.highest_seq);
            let dr = report.received.saturating_sub(prev.received);
            let db = report.received_bytes.saturating_sub(prev.received_bytes);
            let dt = now.saturating_since(prev_at).as_secs_f64();
            let offered = self.tx_seq.saturating_sub(self.tx_at_last_report);
            let loss = if dh > 0 {
                Some(1.0 - (dr.min(dh)) as f64 / dh as f64)
            } else if offered >= LOSS_MIN_TX {
                // We kept sending but the receiver's counters froze: the
                // uplink is eating everything.
                Some(1.0)
            } else {
                None
            };
            if let Some(loss) = loss {
                let rtt_ms = f64::from(report.newest_owd_us) / 1_000.0
                    + now.saturating_since(report_sent_at).as_millis_f64();
                let goodput = if dt > 0.0 { db as f64 * 8.0 / dt } else { 0.0 };
                self.health.on_report(now, rtt_ms, loss, goodput);
            } else {
                // No evidence either way — still counts as a live report
                // stream for the starvation watchdog.
                self.health.keepalive(now);
            }
        } else {
            self.health.keepalive(now);
        }
        self.last_report = Some((report, now));
        self.tx_at_last_report = self.tx_seq;
    }

    /// The leg's row of `RunMetrics::path_health`.
    pub fn health_summary(&self, leg_index: usize) -> PathHealthSummary {
        let (healthy, degraded, dead) = self.health.time_in_class();
        PathHealthSummary {
            leg: leg_index as u8,
            time_healthy: healthy,
            time_degraded: degraded,
            time_dead: dead,
            reports: self.health.reports(),
            final_rtt_ms: self.health.rtt_ms(),
            final_loss: self.health.loss(),
            tx_packets: self.tx_media,
        }
    }

    /// Packets the attached fault scripts dropped, both directions.
    pub fn script_dropped(&self) -> u64 {
        [&self.uplink, &self.downlink]
            .into_iter()
            .filter_map(|p| p.script_stats())
            .map(|s| s.dropped())
            .sum()
    }
}
/// Deficit-scheduler weight of one leg: the smoothed goodput estimate
/// derated by loss and penalized by RTT. A Dead leg weighs nothing.
/// Unmeasured legs get optimistic priors — a fresh leg must be
/// schedulable, not invisible, or it never produces the traffic that
/// would measure it.
fn bonded_weight(health: &PathHealth, now: SimTime) -> f64 {
    if health.class(now) == HealthClass::Dead {
        return 0.0;
    }
    let goodput = health.goodput_bps().unwrap_or(5e6).max(1e5);
    let loss = health.loss().unwrap_or(0.0).clamp(0.0, 1.0);
    let rtt = health.rtt_ms().unwrap_or(50.0).max(1.0);
    goodput * (1.0 - loss).max(0.05) / (1.0 + rtt / 100.0)
}

/// Loss-adaptive FEC overhead ratio: ~2× the worst leg's loss EWMA plus a
/// flat bump while any leg is impaired (blackout risk), clamped to the
/// configured cap. Below [`FEC_MIN_RATIO`] the redundancy layer is off.
fn fec_ratio(cap: f64, legs: &[Leg], now: SimTime) -> f64 {
    if cap <= 0.0 {
        return 0.0;
    }
    let mut ratio = 0.0f64;
    for leg in legs.iter() {
        ratio = ratio.max(2.0 * leg.health.loss().unwrap_or(0.0));
        if leg.health.class(now) != HealthClass::Healthy {
            ratio = ratio.max(FEC_RISK_BUMP);
        }
    }
    ratio.min(cap)
}

/// Burst-adaptive parity-shard count: one shard covers independent
/// single losses (the XOR operating point); each
/// [`RS_BURST_PER_PARITY`] of the worst leg's loss-swing EWMA — the
/// Gilbert–Elliott bad-state signature — buys another, up to
/// [`MAX_RS_PARITY`]. Bursts erase *runs* of a striped group, and only
/// multi-shard Reed–Solomon groups survive runs.
fn rs_parity_target(legs: &[Leg]) -> usize {
    let mut burst = 0.0f64;
    for leg in legs.iter() {
        burst = burst.max(leg.health.loss_burstiness());
    }
    (1 + (burst / RS_BURST_PER_PARITY) as usize).min(MAX_RS_PARITY)
}

/// The bonded scheduler's inputs for one tick, read only from the health
/// clocks: per-leg liveness and weights, whether cross-leg parity is on,
/// and the burst-adaptive parity depth and group size.
#[derive(Clone, Copy)]
struct BondedPlan {
    up: [bool; MAX_LEGS],
    up_count: usize,
    w: [f64; MAX_LEGS],
    fec_on: bool,
    rs_parity: usize,
    group_target: usize,
}

impl BondedPlan {
    fn new(scheme: MultipathScheme, fec_cap: f64, legs: &[Leg], now: SimTime) -> Self {
        let n = legs.len();
        let mut up = [false; MAX_LEGS];
        let mut w = [0.0f64; MAX_LEGS];
        for (li, leg) in legs.iter().enumerate() {
            up[li] = leg.health.class(now) != HealthClass::Dead;
            if scheme == MultipathScheme::Bonded {
                w[li] = bonded_weight(&leg.health, now);
            }
        }
        if scheme == MultipathScheme::Bonded {
            let wmax = w[..n].iter().fold(0.0f64, |a, &b| a.max(b));
            if wmax > 0.0 {
                for li in 0..n {
                    if up[li] {
                        w[li] = w[li].max(EXPLORE_WEIGHT_FLOOR * wmax);
                    }
                }
            }
        }
        let up_count = up[..n].iter().filter(|&&u| u).count();
        let ratio = if scheme == MultipathScheme::Bonded {
            fec_ratio(fec_cap, legs, now)
        } else {
            0.0
        };
        // Cross-leg parity needs at least two legs worth of diversity;
        // with one survivor the redundancy budget moves to keyframe
        // duplication instead.
        let fec_on = ratio >= FEC_MIN_RATIO && up_count >= 2;
        let rs_parity = if fec_on { rs_parity_target(legs) } else { 1 };
        let group_target = if fec_on {
            ((rs_parity as f64 / ratio).round() as usize)
                .clamp(rs_parity.max(2), usize::from(MAX_FEC_GROUP))
        } else {
            usize::from(MAX_FEC_GROUP)
        };
        BondedPlan {
            up,
            up_count,
            w,
            fec_on,
            rs_parity,
            group_target,
        }
    }
}

/// Deficit-weighted leg pick for one packet. Each participating
/// (positive-weight) leg accrues credit in proportion to its normalized
/// weight; the richest account (ties toward the lowest index) pays for
/// the packet. With zero participants the caller keeps offering to leg 0
/// rather than dropping at the sender; a single participant takes the
/// packet without touching the deficit state (so the arithmetic — and
/// every committed two-leg baseline — is bit-identical to the historical
/// hard-coded two-leg expressions).
fn pick_bonded_leg(w: &[f64; MAX_LEGS], deficit: &mut [f64; MAX_LEGS], n: usize) -> usize {
    let mut wsum = 0.0f64;
    let mut live = 0usize;
    let mut last_live = 0usize;
    for (i, &wi) in w.iter().enumerate().take(n) {
        if wi > 0.0 {
            wsum += wi;
            live += 1;
            last_live = i;
        }
    }
    match live {
        0 => 0,
        1 => last_live,
        _ => {
            for i in 0..n {
                if w[i] > 0.0 {
                    deficit[i] += w[i] / wsum;
                }
            }
            let mut p = 0usize;
            for i in 1..n {
                if w[p] <= 0.0 || (w[i] > 0.0 && deficit[i] > deficit[p]) {
                    p = i;
                }
            }
            deficit[p] -= 1.0;
            for i in 0..n {
                if w[i] > 0.0 {
                    deficit[i] = deficit[i].clamp(-DEFICIT_CLAMP, DEFICIT_CLAMP);
                }
            }
            p
        }
    }
}

/// One parity shard waiting for its group.
struct PendingParity {
    /// Playout deadline; the shard is dropped once the clock passes it.
    deadline: SimTime,
    shard: RsParityPacket,
    /// The inputs of this shard's group changed since the last
    /// [`Reassembly::recover`]: a shard of the group arrived or expired,
    /// or a member entered or left the window. Nothing else can turn its
    /// "cannot solve yet" into a recovery.
    touched: bool,
}

/// Bonded cross-leg reassembly state: the bounded window of recent media
/// packets (fuel for FEC recovery) and the parity shards pending against
/// their playout deadline.
pub(crate) struct Reassembly {
    /// The last [`MEDIA_WINDOW_CAP`] accepted packets, oldest overwritten
    /// first: arrival `id` lives in `ring[id % MEDIA_WINDOW_CAP]`.
    ring: Vec<RtpPacket>,
    /// Packets accepted so far (the next arrival's id).
    arrivals: u32,
    /// `1 + id` of the oldest arrival still in the window carrying each
    /// 16-bit sequence number, 0 for none: the window looked up by
    /// sequence, so finding a group's survivors costs one probe per
    /// member, not a window scan.
    by_seq: Vec<u32>,
    /// `(id, sequence)` of window packets whose sequence number was
    /// already in the window when they arrived (only a bit-flipped copy
    /// gets past the first-copy filter that way), oldest first. A scan
    /// lets the oldest copy win, so each waits here until the ones ahead
    /// of it are pushed out.
    shadowed: VecDeque<(u32, u16)>,
    pending: VecDeque<PendingParity>,
    /// Some pending shard is `touched`.
    dirty: bool,
    /// Reusable buffer for one group's rebuilt packets.
    rebuilt: Vec<RtpPacket>,
}

impl Reassembly {
    pub fn new() -> Self {
        Reassembly {
            ring: Vec::with_capacity(MEDIA_WINDOW_CAP),
            arrivals: 0,
            by_seq: vec![0; 1 << 16],
            shadowed: VecDeque::new(),
            pending: VecDeque::new(),
            dirty: false,
            rebuilt: Vec::with_capacity(MAX_RS_PARITY),
        }
    }

    /// The window's packet with this sequence number, if it has not been
    /// pushed out yet.
    fn get(&self, sequence: u16) -> Option<&RtpPacket> {
        let id = self.by_seq[usize::from(sequence)].checked_sub(1)?;
        self.ring.get(id as usize % MEDIA_WINDOW_CAP)
    }

    /// Admit an accepted (first-copy or recovered) media packet.
    pub fn push_media(&mut self, rtp: &RtpPacket) {
        let id = self.arrivals;
        let slot = id as usize % MEDIA_WINDOW_CAP;
        // A full window pushes its oldest packet out.
        let evicted = self.ring.get(slot).map(|p| p.sequence);
        if let Some(seq) = evicted {
            let gone = id - MEDIA_WINDOW_CAP as u32;
            if self.shadowed.front().is_some_and(|&(sid, _)| sid == gone) {
                self.shadowed.pop_front();
            } else {
                // It was the indexed copy: the next oldest, if any,
                // takes its place.
                let heir = self.shadowed.iter().position(|&(_, s)| s == seq);
                let heir = heir.and_then(|at| self.shadowed.remove(at));
                self.by_seq[usize::from(seq)] = heir.map_or(0, |(sid, _)| sid + 1);
            }
        }
        let indexed = &mut self.by_seq[usize::from(rtp.sequence)];
        if *indexed == 0 {
            *indexed = id + 1;
        } else {
            self.shadowed.push_back((id, rtp.sequence));
        }
        if evicted.is_some() {
            self.ring[slot] = rtp.clone();
        } else {
            self.ring.push(rtp.clone());
        }
        self.arrivals += 1;
        for p in &mut self.pending {
            if p.shard.covers(rtp.sequence) || evicted.is_some_and(|seq| p.shard.covers(seq)) {
                p.touched = true;
                self.dirty = true;
            }
        }
    }

    /// Queue a parity shard against its playout deadline.
    pub fn push_parity(&mut self, deadline: SimTime, shard: RsParityPacket) {
        for p in &mut self.pending {
            p.touched |= p.shard.sn_base == shard.sn_base;
        }
        self.pending.push_back(PendingParity {
            deadline,
            shard,
            touched: true,
        });
        self.dirty = true;
    }

    /// Redeem pending parity against the window: each group's shards are
    /// pooled, and a group missing up to as many members as it has shards
    /// on hand is rebuilt in one solve. `accept(packet, multi)` is called
    /// per rebuilt packet (`multi`: its group lost more than one member)
    /// and says whether it was new; accepted packets join the window.
    /// Cascades to fixpoint (a recovered packet can complete another
    /// group); deadline-expired parity is dropped first.
    ///
    /// Only groups touched since the previous call are tried. That is
    /// the same outcome as trying every group every tick: a group left
    /// pending returned "cannot solve", and a solve reads nothing but the
    /// group's pooled shards and its members in the window, so the answer
    /// stands until one of those arrives or leaves. Leaving counts: a
    /// bit-flipped member fails the solve's header check, and the group
    /// becomes solvable once that member is pushed out of the window.
    /// (An expiring shard is marked the same way to keep the rule local,
    /// though every suffix of a group is tried as its own anchor and
    /// expiry only ever removes a prefix.)
    pub fn recover(&mut self, now: SimTime, mut accept: impl FnMut(&RtpPacket, bool) -> bool) {
        // Deadlines are arrival time plus a constant, so the expired
        // shards are a prefix.
        while self.pending.front().is_some_and(|p| p.deadline < now) {
            let Some(gone) = self.pending.pop_front() else {
                break;
            };
            for p in &mut self.pending {
                if p.shard.sn_base == gone.shard.sn_base {
                    p.touched = true;
                    self.dirty = true;
                }
            }
        }
        if !self.dirty {
            return;
        }
        let mut rebuilt = std::mem::take(&mut self.rebuilt);
        loop {
            let mut recovered_any = false;
            let mut i = 0;
            while i < self.pending.len() {
                if !self.pending[i].touched {
                    i += 1;
                    continue;
                }
                // Gather every shard of the group anchored at `i` (later
                // arrivals of the same group sit further down the deque)
                // into a fixed scratch array.
                let mut remove_idx = [0usize; MAX_RS_PARITY];
                let (solved, remove_cnt) = {
                    let first = &self.pending[i].shard;
                    let mut refs: [&RsParityPacket; MAX_RS_PARITY] = [first; MAX_RS_PARITY];
                    remove_idx[0] = i;
                    let mut cnt = 1usize;
                    for (j, p) in self.pending.iter().enumerate().skip(i + 1) {
                        let p = &p.shard;
                        if cnt < MAX_RS_PARITY
                            && p.sn_base == first.sn_base
                            && p.count == first.count
                            && p.parity_count == first.parity_count
                        {
                            refs[cnt] = p;
                            remove_idx[cnt] = j;
                            cnt += 1;
                        }
                    }
                    let survivors = (0..u16::from(first.count))
                        .filter_map(|off| self.get(first.sn_base.wrapping_add(off)));
                    (
                        rs_recover_into(&refs[..cnt], survivors, MEDIA_SSRC, &mut rebuilt),
                        cnt,
                    )
                };
                if solved {
                    for k in (0..remove_cnt).rev() {
                        self.pending.remove(remove_idx[k]);
                    }
                    // (Nothing missing: the group retires unused.)
                    recovered_any |= !rebuilt.is_empty();
                    let multi = rebuilt.len() >= 2;
                    for rec in rebuilt.drain(..) {
                        if accept(&rec, multi) {
                            self.push_media(&rec);
                        }
                    }
                } else {
                    // Still short of survivors (or damaged shards):
                    // leave the group pending for the next arrivals.
                    i += 1;
                }
            }
            if !recovered_any {
                break;
            }
        }
        self.rebuilt = rebuilt;
        for p in &mut self.pending {
            p.touched = false;
        }
        self.dirty = false;
    }
}

/// Whether `rtp` carries a fragment of a keyframe: the flag in the
/// metadata every media payload leads with.
fn is_keyframe(rtp: &RtpPacket) -> bool {
    decode_meta_slice(&rtp.payload).is_ok_and(|(meta, _, _)| meta.keyframe)
}

/// The sender-side multipath policy of one session: which leg(s) each
/// packet the congestion controller releases rides, what redundancy
/// travels beside it, and the monitoring plane that informs both —
/// health clocks, the failover controller, keep-warm probes. A plain
/// single-operator session (`Simulation::new`) has none.
pub(crate) struct LegScheduler {
    scheme: MultipathScheme,
    fec_cap: f64,
    /// One shadow CC per leg (`ExperimentConfig::coupled_cc`, bonded
    /// only): packets are pinned to a leg at admission, not at release.
    coupled: bool,
    controller: FailoverController,
    next_probe: SimTime,
    deficit: [f64; MAX_LEGS],
    /// The accumulating RS group, its per-leg tx split, the parity
    /// sequence counter and the reusable parity scratch.
    rs_group: RsGroup,
    rs_group_tx: [u64; MAX_LEGS],
    fec_seq: u16,
    parity_buf: Vec<RsParityPacket>,
    /// Per-leg admission batches for the coupled controller.
    per_leg: Vec<Vec<RtpPacket>>,
    /// The bonded scheduler's inputs, worked out on a tick's first use
    /// (most ticks send nothing). Health only moves in the radio,
    /// health-clock and downlink-arrival phases, so every use between
    /// two [`on_tick`](Self::on_tick)s reads the same plan.
    plan: Option<BondedPlan>,
}

impl LegScheduler {
    pub fn new(scheme: MultipathScheme, config: &ExperimentConfig, n_legs: usize) -> Self {
        let coupled = scheme == MultipathScheme::Bonded && config.coupled_cc;
        LegScheduler {
            scheme,
            fec_cap: config.fec_cap,
            coupled,
            controller: FailoverController::new(FailoverConfig::default()),
            next_probe: SimTime::ZERO,
            deficit: [0.0; MAX_LEGS],
            rs_group: RsGroup::new(),
            rs_group_tx: [0; MAX_LEGS],
            fec_seq: 0,
            parity_buf: Vec::new(),
            per_leg: (0..if coupled { n_legs } else { 0 })
                .map(|_| Vec::new())
                .collect(),
            plan: None,
        }
    }

    /// Whether packets are pinned to per-leg shadow engines.
    pub fn coupled(&self) -> bool {
        self.coupled
    }

    /// With bonded FEC armed, fresh NACKs are held long enough for parity
    /// to land: the retransmission path only chases holes FEC missed.
    pub fn nack_hold(&self) -> SimDuration {
        if self.scheme == MultipathScheme::Bonded && self.fec_cap > FEC_MIN_RATIO {
            FEC_NACK_HOLD
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether the receiver needs the bonded cross-leg reassembly window.
    pub fn reassembles(&self) -> bool {
        self.scheme == MultipathScheme::Bonded
    }

    /// Sender-side health clocks and the switch decision.
    pub fn on_tick(&mut self, now: SimTime, legs: &mut [Leg], metrics: &mut RunMetrics) {
        for leg in legs.iter_mut() {
            leg.health.on_tick(now);
        }
        if self.scheme.switches() && legs.len() >= 2 {
            let mut hrefs: [&PathHealth; MAX_LEGS] = [&legs[0].health; MAX_LEGS];
            for (href, leg) in hrefs.iter_mut().zip(legs.iter()) {
                *href = &leg.health;
            }
            if let Some(d) = self.controller.on_tick(now, &hrefs[..legs.len()]) {
                metrics.switches.push(SwitchRecord {
                    at: now,
                    from_leg: d.from as u8,
                    to_leg: d.to as u8,
                    cause: d.cause,
                });
            }
        }
        self.plan = None;
    }

    fn plan(&mut self, legs: &[Leg], now: SimTime) -> BondedPlan {
        *self
            .plan
            .get_or_insert_with(|| BondedPlan::new(self.scheme, self.fec_cap, legs, now))
    }

    /// Stage one freshly packetized frame with the congestion controller.
    /// The coupled mode pins each packet to a leg here (deficit-weighted,
    /// in sequence order so RS groups stay consecutive) and hands it to
    /// that leg's shadow engine.
    pub fn admit(
        &mut self,
        now: SimTime,
        packets: &mut Vec<RtpPacket>,
        cc: &mut CoupledCc,
        legs: &mut [Leg],
        metrics: &mut RunMetrics,
    ) {
        if !self.coupled {
            return cc.enqueue_leg_drain(0, now, packets);
        }
        let plan = self.plan(legs, now);
        for rtp in packets.drain(..) {
            let pick = pick_bonded_leg(&plan.w, &mut self.deficit, legs.len());
            self.protect(now, &plan, pick, &rtp, legs, metrics);
            self.per_leg[pick].push(rtp);
        }
        for (li, pkts) in self.per_leg.iter_mut().enumerate() {
            if !pkts.is_empty() {
                cc.enqueue_leg_drain(li, now, pkts);
            }
        }
    }

    /// Fold one media packet bound for leg `pick` into the accumulating
    /// RS group, closing the group when it reaches the plan's size.
    fn protect(
        &mut self,
        now: SimTime,
        plan: &BondedPlan,
        pick: usize,
        rtp: &RtpPacket,
        legs: &mut [Leg],
        metrics: &mut RunMetrics,
    ) {
        if plan.fec_on {
            self.rs_group.push(rtp, plan.rs_parity);
            self.rs_group_tx[pick] += 1;
            if usize::from(self.rs_group.len()) >= plan.group_target {
                self.emit_rs_parity(now, &plan.up, legs, metrics);
            }
        }
    }

    /// The redundancy window closed mid-group (a leg died, or loss calmed
    /// down): emit the partial parity rather than abandoning the packets
    /// already folded in.
    pub fn flush_parity(&mut self, now: SimTime, legs: &mut [Leg], metrics: &mut RunMetrics) {
        if !self.rs_group.is_empty() {
            let plan = self.plan(legs, now);
            if !plan.fec_on {
                self.emit_rs_parity(now, &plan.up, legs, metrics);
            }
        }
    }

    /// Close the accumulating RS group and spread its parity shards across
    /// the legs that carried the fewest of the group's members (maximal leg
    /// diversity: parity should not share fate with the packets it
    /// protects), preferring Up legs; distinct shards of one group land on
    /// distinct legs whenever enough legs exist.
    fn emit_rs_parity(
        &mut self,
        now: SimTime,
        up: &[bool; MAX_LEGS],
        legs: &mut [Leg],
        metrics: &mut RunMetrics,
    ) {
        self.parity_buf.clear();
        self.rs_group.build_into(&mut self.parity_buf);
        let n = legs.len();
        if !self.parity_buf.is_empty() {
            // Candidate legs ordered by (members carried, index), Up legs
            // only — unless none is Up, in which case all legs stand in
            // (parity on a down leg mirrors the media path's own fallback).
            let mut order = [0usize; MAX_LEGS];
            let mut cnt = 0usize;
            for (i, &u) in up.iter().enumerate().take(n) {
                if u {
                    order[cnt] = i;
                    cnt += 1;
                }
            }
            if cnt == 0 {
                for (i, slot) in order.iter_mut().enumerate().take(n) {
                    *slot = i;
                }
                cnt = n;
            }
            for a in 0..cnt {
                let mut best = a;
                for b in a + 1..cnt {
                    if self.rs_group_tx[order[b]] < self.rs_group_tx[order[best]] {
                        best = b;
                    }
                }
                order.swap(a, best);
            }
            for (pi, fp) in self.parity_buf.drain(..).enumerate() {
                self.fec_seq = self.fec_seq.wrapping_add(1);
                let parity = fp.into_rtp(MEDIA_SSRC, self.fec_seq);
                metrics.fec_tx += 1;
                legs[order[pi % cnt]].send_up(now, parity.serialize(), PacketKind::Media);
            }
        }
        self.rs_group_tx = [0; MAX_LEGS];
    }

    /// Map one packet the congestion controller released onto the legs:
    /// bonded deficit-weighted striping, or the active leg plus
    /// scheme-driven duplication onto the others. `pinned` names the leg
    /// whose shadow engine released it (coupled mode: the pick and the
    /// parity already happened at admission).
    pub fn send(
        &mut self,
        now: SimTime,
        pinned: Option<usize>,
        rtp: &RtpPacket,
        legs: &mut [Leg],
        metrics: &mut RunMetrics,
    ) {
        let n = legs.len();
        let mut duplicate_on = |leg: &mut Leg| {
            metrics.dup_tx_packets += 1;
            metrics.dup_tx_bytes += rtp.wire_size() as u64;
            leg.send_media(now, rtp);
        };
        if self.scheme == MultipathScheme::Bonded {
            let plan = self.plan(legs, now);
            let pick = pinned.unwrap_or_else(|| pick_bonded_leg(&plan.w, &mut self.deficit, n));
            legs[pick].tx_media += 1;
            legs[pick].send_media(now, rtp);
            if !plan.fec_on && n >= 2 && plan.up_count == 1 {
                // Single-leg fallback on a multi-leg rig: repeat keyframe
                // packets on the surviving leg — time diversity where leg
                // diversity is gone. (A one-modem rig is plain
                // single-path; nothing degraded, nothing to compensate.)
                if is_keyframe(rtp) {
                    duplicate_on(&mut legs[pick]);
                }
            } else if pinned.is_none() {
                self.protect(now, &plan, pick, rtp, legs, metrics);
            }
            return;
        }
        let active = if self.scheme.switches() {
            self.controller.active()
        } else {
            0
        };
        let dup = match self.scheme {
            MultipathScheme::Duplicate => true,
            MultipathScheme::SelectiveDuplicate => {
                is_keyframe(rtp) || legs[active].health.class(now) != HealthClass::Healthy
            }
            _ => false,
        };
        legs[active].tx_media += 1;
        legs[active].send_media(now, rtp);
        if dup && n >= 2 {
            if self.scheme == MultipathScheme::Duplicate {
                // Full duplication fans out to every other leg.
                for (li, leg) in legs.iter_mut().enumerate() {
                    if li != active {
                        duplicate_on(leg);
                    }
                }
            } else {
                // Selective duplication buys one copy: the
                // lowest-indexed standby.
                duplicate_on(&mut legs[usize::from(active == 0)]);
            }
        }
    }

    /// Keep-warm probes: a leg's health is only as fresh as the traffic
    /// crossing it. Failover schemes probe the standby; bonded probes any
    /// leg the scheduler left idle since the last check (Dead legs
    /// especially — without traffic they could never recover). One-modem
    /// rigs have no idle leg to keep warm — the media flow itself is the
    /// health traffic.
    pub fn probe(&mut self, now: SimTime, legs: &mut [Leg], metrics: &mut RunMetrics) {
        let bonded = self.scheme == MultipathScheme::Bonded && legs.len() >= 2;
        if now < self.next_probe || !(bonded || self.scheme.switches()) {
            return;
        }
        self.next_probe = now + PROBE_INTERVAL;
        let active = self.controller.active();
        for (li, leg) in legs.iter_mut().enumerate() {
            let idle = if bonded {
                leg.tx_seq == leg.tx_at_probe
            } else {
                li != active
            };
            if idle {
                metrics.probes_sent += 1;
                leg.send_up(now, Bytes::from_static(&PROBE_PAYLOAD), PacketKind::Probe);
            }
            leg.tx_at_probe = leg.tx_seq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::pipeline::Simulation;
    use crate::scenario::CcMode;
    use crate::stats;
    use rpav_lte::Environment;
    use rpav_rtp::seqwindow::FirstCopyFilter;

    fn base() -> ExperimentConfig {
        ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(1)
            .build()
    }

    /// The recovery the event-driven [`Reassembly`] replaced, kept as
    /// its oracle: every pending group is re-solved on every tick, each
    /// try scanning the whole FIFO window for survivors.
    #[derive(Default)]
    struct RescanReassembly {
        window: VecDeque<RtpPacket>,
        pending: VecDeque<(SimTime, RsParityPacket)>,
    }

    impl RescanReassembly {
        fn push_media(&mut self, rtp: &RtpPacket) {
            self.window.push_back(rtp.clone());
            if self.window.len() > MEDIA_WINDOW_CAP {
                self.window.pop_front();
            }
        }

        fn push_parity(&mut self, deadline: SimTime, shard: RsParityPacket) {
            self.pending.push_back((deadline, shard));
        }

        fn recover(&mut self, now: SimTime, mut accept: impl FnMut(&RtpPacket, bool) -> bool) {
            self.pending.retain(|(deadline, _)| *deadline >= now);
            loop {
                let mut recovered_any = false;
                let mut i = 0;
                while i < self.pending.len() {
                    let first = &self.pending[i].1;
                    let group: Vec<usize> = (i..self.pending.len())
                        .filter(|&j| {
                            let p = &self.pending[j].1;
                            j == i
                                || (p.sn_base == first.sn_base
                                    && p.count == first.count
                                    && p.parity_count == first.parity_count)
                        })
                        .take(MAX_RS_PARITY)
                        .collect();
                    let refs: Vec<&RsParityPacket> =
                        group.iter().map(|&j| &self.pending[j].1).collect();
                    let Some(recs) =
                        rpav_rtp::fec::rs_recover(&refs, self.window.iter(), MEDIA_SSRC)
                    else {
                        i += 1;
                        continue;
                    };
                    for &j in group.iter().rev() {
                        self.pending.remove(j);
                    }
                    recovered_any |= !recs.is_empty();
                    let multi = recs.len() >= 2;
                    for rec in recs {
                        if accept(&rec, multi) {
                            self.push_media(&rec);
                        }
                    }
                }
                if !recovered_any {
                    break;
                }
            }
        }
    }

    /// One pseudo-random delivery schedule: `(tick, event)` for every
    /// copy of every media packet and parity shard that reaches the
    /// receiver.
    enum Delivery {
        Media(RtpPacket),
        Parity(RsParityPacket),
    }

    /// One bit of a parity shard flipped in flight, where it hurts: the
    /// `index` byte (the copy then masks, or stands in for, another row
    /// of the decode), the group geometry, or the shard bytes the decoded
    /// member header is checked on. `None` when the receiver's parser
    /// would turn the copy away.
    fn damaged(shard: &RsParityPacket, rng: &mut rpav_sim::SimRng) -> Option<RsParityPacket> {
        let mut bad = shard.clone();
        match rng.uniform_u64(0, 3) {
            0 => bad.index ^= 1 << rng.uniform_u64(0, 2),
            1 => bad.count ^= 1 << rng.uniform_u64(0, 3),
            _ => {
                let mut bytes = bad.shard.to_vec();
                bytes[[1, 6, 7][rng.uniform_u64(0, 3) as usize]] ^= 1 << rng.uniform_u64(0, 8);
                bad.shard = Bytes::from(bytes);
            }
        }
        RsParityPacket::parse_payload(bad.serialize_payload()).ok()
    }

    fn random_schedule(rng: &mut rpav_sim::SimRng, dense: bool) -> Vec<(u64, Delivery)> {
        let first_seq = rng.uniform_u64(0, 1 << 16) as u16;
        let loss = rng.uniform_range(0.02, 0.25);
        let mut out = Vec::new();
        let mut group = RsGroup::new();
        let mut parities = Vec::new();
        let mut group_target = 0;
        let mut parity_count = 0;
        // ~1.5 packets a tick for 2 000 packets: the 1 024-packet window
        // turns over, so eviction is part of every schedule. A dense
        // schedule sends 8 a tick, so members leave the window while
        // their group's parity is still pending.
        for i in 0..if dense { 4_000u64 } else { 2_000 } {
            let sent = if dense { i / 8 } else { i * 2 / 3 };
            let payload: Vec<u8> = (0..rng.uniform_u64(20, 200))
                .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8))
                .collect();
            let rtp = RtpPacket {
                marker: i % 7 == 6,
                payload_type: 96,
                sequence: first_seq.wrapping_add(i as u16),
                timestamp: (i / 7 * 3_000) as u32,
                ssrc: MEDIA_SSRC,
                transport_seq: None,
                payload: Bytes::from(payload),
                wire: None,
            };
            if group.is_empty() {
                group_target = rng.uniform_u64(2, 17) as u8;
                parity_count = rng.uniform_u64(1, 5) as usize;
            }
            group.push(&rtp, parity_count);
            // First copy (unless lost), reordered by up to 25 ticks —
            // now and then with a payload bit flipped on the way.
            if !rng.chance(loss) {
                let mut copy = rtp.clone();
                if rng.chance(0.02) {
                    let mut bytes = copy.payload.to_vec();
                    bytes[0] ^= 0x10;
                    copy.payload = Bytes::from(bytes);
                }
                out.push((sent + 17 + rng.uniform_u64(0, 25), Delivery::Media(copy)));
                // Cross-leg duplicate.
                if rng.chance(0.1) {
                    out.push((
                        sent + 20 + rng.uniform_u64(0, 60),
                        Delivery::Media(rtp.clone()),
                    ));
                }
            } else if rng.chance(0.5) {
                // Lost, then retransmitted: lands a round trip or two
                // later — before, inside or after its parity's deadline.
                out.push((
                    sent + rng.uniform_u64(60, 260),
                    Delivery::Media(rtp.clone()),
                ));
            }
            if group.len() >= group_target {
                group.build_into(&mut parities);
                for shard in parities.drain(..) {
                    // A damaged copy, ahead of or behind the good one.
                    if rng.chance(0.1) {
                        if let Some(bad) = damaged(&shard, rng) {
                            out.push((sent + 17 + rng.uniform_u64(0, 40), Delivery::Parity(bad)));
                        }
                    }
                    if !rng.chance(loss) {
                        out.push((sent + 17 + rng.uniform_u64(0, 40), Delivery::Parity(shard)));
                    }
                }
            }
        }
        out.sort_by_key(|(tick, _)| *tick);
        out
    }

    #[test]
    fn event_driven_recovery_matches_rescanning_every_tick() {
        let rngs = RngSet::new(0xFEC0);
        let (mut recovered_total, mut multi_total) = (0usize, 0usize);
        for schedule_no in 0..240u64 {
            let mut rng = rngs.stream_indexed("recovery.oracle", schedule_no);
            let schedule = random_schedule(&mut rng, schedule_no % 4 == 3);
            let end = schedule.last().map_or(0, |(tick, _)| *tick) + 200;
            let mut events = schedule.into_iter().peekable();

            let mut fast = Reassembly::new();
            let mut fast_seen = FirstCopyFilter::new();
            let mut fast_log: Vec<(u64, u16, bool)> = Vec::new();
            let mut slow = RescanReassembly::default();
            let mut slow_seen = FirstCopyFilter::new();
            let mut slow_log: Vec<(u64, u16, bool)> = Vec::new();

            for tick in 0..end {
                let now = SimTime::from_millis(tick);
                while let Some((_, delivery)) = events.next_if(|(at, _)| *at == tick) {
                    match delivery {
                        Delivery::Media(rtp) => {
                            if fast_seen.insert(rtp.sequence, rtp.timestamp) {
                                fast.push_media(&rtp);
                            }
                            if slow_seen.insert(rtp.sequence, rtp.timestamp) {
                                slow.push_media(&rtp);
                            }
                        }
                        Delivery::Parity(shard) => {
                            fast.push_parity(now + FEC_RECOVERY_DEADLINE, shard.clone());
                            slow.push_parity(now + FEC_RECOVERY_DEADLINE, shard);
                        }
                    }
                }
                fast.recover(now, |rec, multi| {
                    let fresh = fast_seen.insert(rec.sequence, rec.timestamp);
                    if fresh {
                        fast_log.push((tick, rec.sequence, multi));
                    }
                    fresh
                });
                slow.recover(now, |rec, multi| {
                    let fresh = slow_seen.insert(rec.sequence, rec.timestamp);
                    if fresh {
                        slow_log.push((tick, rec.sequence, multi));
                    }
                    fresh
                });
            }
            assert_eq!(fast_log, slow_log, "schedule {schedule_no}");
            assert_eq!(
                fast.pending.len(),
                slow.pending.len(),
                "schedule {schedule_no}"
            );
            recovered_total += fast_log.len();
            multi_total += fast_log.iter().filter(|(_, _, multi)| *multi).count();
        }
        // The schedules really exercise recovery, multi-erasure included.
        assert!(recovered_total > 10_000, "{recovered_total} recoveries");
        assert!(
            multi_total > 1_000,
            "{multi_total} multi-erasure recoveries"
        );
    }

    #[test]
    fn duplicate_path_improves_latency_tail() {
        let cfg = base();
        let single = Simulation::multipath(cfg, MultipathScheme::SinglePath, Vec::new()).run();
        let dual = Simulation::multipath(cfg, MultipathScheme::Duplicate, Vec::new()).run();
        // Same offered load either way (duplicates are accounted apart),
        // up to the IDRs each receiver's PLIs forced.
        assert!(single.media_sent.abs_diff(dual.media_sent) * 200 < single.media_sent);
        assert_eq!(dual.dup_tx_packets, dual.media_sent);
        // Reliability: the duplicate scheme must not lose more...
        assert!(dual.per() <= single.per() + 1e-9);
        // ...and its latency tail must improve (one path's stall is
        // covered by the other).
        let p99_single = stats::quantile(&single.owd_ms(), 0.99);
        let p99_dual = stats::quantile(&dual.owd_ms(), 0.99);
        assert!(
            p99_dual < p99_single,
            "duplicate p99 {p99_dual:.0} ms !< single {p99_single:.0} ms"
        );
        // Playback budget compliance improves too.
        assert!(
            dual.playback_within(300.0) >= single.playback_within(300.0),
            "dual {:.2} vs single {:.2}",
            dual.playback_within(300.0),
            single.playback_within(300.0)
        );
    }

    #[test]
    fn schemes_have_names() {
        for s in MultipathScheme::all() {
            assert!(!s.name().is_empty());
        }
        assert_eq!(MultipathScheme::SinglePath.name(), "single-path");
        assert_eq!(MultipathScheme::Failover.name(), "failover");
        assert_eq!(MultipathScheme::Bonded.name(), "bonded");
    }

    #[test]
    fn baseline_is_all_minus_bonded() {
        let all = MultipathScheme::all();
        let baseline = MultipathScheme::baseline();
        assert_eq!(all.len(), baseline.len() + 1);
        assert_eq!(&all[..baseline.len()], &baseline[..]);
        assert!(!baseline.contains(&MultipathScheme::Bonded));
        assert_eq!(all[all.len() - 1], MultipathScheme::Bonded);
    }

    #[test]
    fn quiet_run_never_switches() {
        let m = Simulation::multipath(base(), MultipathScheme::Failover, Vec::new()).run();
        assert!(
            m.switches.is_empty(),
            "spurious switches on a healthy run: {:?}",
            m.switches
        );
        assert!(m.probes_sent > 0);
        assert_eq!(m.path_health.len(), 2);
        // Both legs were monitored the whole run.
        assert!(m.path_health.iter().all(|p| p.reports > 50));
    }

    #[test]
    fn blackout_triggers_exactly_one_failover() {
        let cfg = base();
        let fault_at = SimTime::ZERO + SimDuration::from_secs(5);
        let fault_for = SimDuration::from_secs(10);
        let script = || FaultScript::new().blackout(fault_at, fault_for);
        let single =
            Simulation::multipath(cfg, MultipathScheme::SinglePath, vec![Some(script()), None])
                .run();
        let fo =
            Simulation::multipath(cfg, MultipathScheme::Failover, vec![Some(script()), None]).run();
        // Exactly one switch inside the fault window (later radio events
        // elsewhere in the flight may legitimately switch again).
        let in_window: Vec<_> = fo
            .switches
            .iter()
            .filter(|s| s.at >= fault_at && s.at <= fault_at + fault_for)
            .collect();
        assert_eq!(in_window.len(), 1, "{:?}", fo.switches);
        assert_eq!(in_window[0].to_leg, 1);
        assert!(
            fo.stalled_time < single.stalled_time,
            "failover stalled {:?} !< single-path {:?}",
            fo.stalled_time,
            single.stalled_time
        );
        // The primary leg was seen dead for a substantial part of the
        // blackout.
        assert!(fo.path_health[0].time_dead > SimDuration::from_secs(2));
    }

    #[test]
    fn selective_duplicate_copies_only_a_fraction() {
        let mut cfg = base();
        cfg.hold = SimDuration::from_secs(4);
        let sel = Simulation::multipath(cfg, MultipathScheme::SelectiveDuplicate, Vec::new()).run();
        assert!(sel.dup_tx_packets > 0, "keyframes must be duplicated");
        assert!(
            (sel.dup_tx_packets as f64) < 0.5 * sel.media_sent as f64,
            "selective duplication copied {}/{} packets",
            sel.dup_tx_packets,
            sel.media_sent
        );
    }

    #[test]
    fn leg_report_counter_regression_is_harmless() {
        use rpav_rtp::report::PathReport;
        let cfg = base();
        let rngs = RngSet::new(1);
        let mut leg = Leg::new("mp.test".into(), cfg.operator, None, &cfg, &rngs, 0);
        let t0 = SimTime::ZERO + SimDuration::from_millis(50);
        leg.on_report(
            t0,
            PathReport {
                leg: 0,
                highest_seq: 1_000,
                received: 900,
                received_bytes: 1_000_000,
                newest_owd_us: 40_000,
            },
            SimTime::ZERO,
        );
        // Hostile or cross-leg-reordered report: every counter regresses
        // and the timestamps run backwards. Saturating deltas must
        // neither panic nor poison the estimate.
        leg.on_report(
            SimTime::ZERO,
            PathReport {
                leg: 0,
                highest_seq: 10,
                received: 5,
                received_bytes: 100,
                newest_owd_us: u32::MAX,
            },
            t0,
        );
        assert!(leg.health.loss().is_none_or(|l| (0.0..=1.0).contains(&l)));
    }

    #[test]
    fn fallback_repeats_keyframe_packets_by_their_flag_not_a_stale_sequence() {
        // A bonded keyframe sent while FEC is on is never repeated, and one
        // 16-bit wrap later a delta frame's packet carries the same
        // sequence. On a lone surviving leg that packet goes once; a
        // keyframe packet goes twice.
        let cfg = base();
        let rngs = RngSet::new(1);
        let mut legs: Vec<Leg> = (0..2u64)
            .map(|li| Leg::new(format!("mp.test{li}"), cfg.operator, None, &cfg, &rngs, li))
            .collect();
        let mut sched = LegScheduler::new(MultipathScheme::Bonded, &cfg, 2);
        let mut cc = CoupledCc::new(cfg.cc, cfg.watchdog, 1);
        let mut metrics = RunMetrics::default();
        let mut packetizer = rpav_rtp::Packetizer::new(MEDIA_SSRC, false);
        let (mut keyframe, mut delta) = (Vec::new(), Vec::new());
        for (frame_number, keyframe, out) in [(0, true, &mut keyframe), (1, false, &mut delta)] {
            let meta = rpav_rtp::FrameMeta {
                frame_number,
                encode_time: SimTime::ZERO,
                keyframe,
                frame_bytes: 3_000,
            };
            packetizer.packetize_into(meta, SimTime::ZERO, out);
        }
        let plan = |up_count: usize| {
            let (mut up, mut w) = ([false; MAX_LEGS], [0.0; MAX_LEGS]);
            for li in 0..up_count {
                (up[li], w[li]) = (true, 1.0);
            }
            BondedPlan {
                up,
                up_count,
                w,
                fec_on: up_count > 1,
                rs_parity: 1,
                group_target: usize::from(MAX_FEC_GROUP),
            }
        };
        let now = SimTime::ZERO;
        let mut staged = keyframe.clone();
        sched.admit(now, &mut staged, &mut cc, &mut legs, &mut metrics);
        sched.plan = Some(plan(2));
        for rtp in &keyframe {
            sched.send(now, None, rtp, &mut legs, &mut metrics);
        }
        assert_eq!(metrics.dup_tx_packets, 0, "FEC on: nothing repeated");
        sched.plan = Some(plan(1));
        let mut wrapped = delta[0].clone();
        wrapped.sequence = keyframe[0].sequence;
        sched.send(now, None, &wrapped, &mut legs, &mut metrics);
        assert_eq!(metrics.dup_tx_packets, 0, "a delta packet went twice");
        sched.send(now, None, &keyframe[1], &mut legs, &mut metrics);
        assert_eq!(metrics.dup_tx_packets, 1, "a keyframe packet went once");
    }

    #[test]
    fn bonded_splits_media_across_both_legs() {
        let mut cfg = base();
        cfg.hold = SimDuration::from_secs(4);
        let m = Simulation::multipath(cfg, MultipathScheme::Bonded, Vec::new()).run();
        assert!(m.media_sent > 0);
        let share0 = m.leg_tx_share(0);
        let share1 = m.leg_tx_share(1);
        assert!((share0 + share1 - 1.0).abs() < 1e-9);
        // On two healthy legs the deficit scheduler stripes packets on
        // both — neither leg starves, neither monopolizes.
        assert!(
            (0.15..=0.85).contains(&share0),
            "leg 0 carried {share0:.2} of first transmissions"
        );
        // No parity without a redundancy budget.
        assert_eq!(m.fec_tx, 0);
        assert_eq!(m.fec_recovered, 0);
    }

    #[test]
    fn bonded_goodput_exceeds_best_single_leg_under_asymmetric_caps() {
        let mut cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(4)
            .leg_caps(3.0e6, 2.5e6)
            .build();
        let bonded = Simulation::multipath(cfg, MultipathScheme::Bonded, Vec::new()).run();
        let single_a = Simulation::multipath(cfg, MultipathScheme::SinglePath, Vec::new()).run();
        // Best single leg: run single-path on the other leg by swapping
        // the caps (single-path always rides leg 0).
        cfg.leg_cap_bps = Some((2.5e6, 3.0e6));
        let single_b = Simulation::multipath(cfg, MultipathScheme::SinglePath, Vec::new()).run();
        let best_single = single_a
            .media_received_bytes
            .max(single_b.media_received_bytes);
        assert!(
            bonded.media_received_bytes > best_single,
            "bonded {} B !> best single leg {} B",
            bonded.media_received_bytes,
            best_single
        );
    }

    #[test]
    fn coupled_engines_with_repair_resend_from_history() {
        // One CC engine per leg, drained in turn: the RTX history sees the
        // sends of both engines interleaved, and must still find the NACKed
        // packets it recorded.
        let mut cfg = base();
        cfg.coupled_cc = true;
        cfg.repair = true;
        let script = || {
            FaultScript::new().burst_loss_window(
                SimTime::ZERO,
                SimDuration::from_secs(30),
                0.02,
                0.3,
                0.5,
                Some(PacketKind::Media),
            )
        };
        let m = Simulation::multipath(
            cfg,
            MultipathScheme::Bonded,
            vec![Some(script()), Some(script())],
        )
        .run();
        assert!(
            m.nack_seqs_requested > 10_000,
            "the loss script drew few NACKs"
        );
        assert!(
            m.rtx_sent > m.nack_seqs_requested / 10,
            "{} resent",
            m.rtx_sent
        );
        assert!(
            m.rtx_not_in_history * 100 < m.nack_seqs_requested,
            "{} of {} requests missed the history",
            m.rtx_not_in_history,
            m.nack_seqs_requested
        );
    }

    #[test]
    fn bonded_fec_recovers_losses_before_nack() {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(4)
            .fec_cap(0.25)
            .repair(true)
            .build();
        let window_end = SimDuration::from_secs(30);
        let script = || {
            FaultScript::new().burst_loss_window(
                SimTime::ZERO,
                window_end,
                0.05,
                0.3,
                0.5,
                Some(PacketKind::Media),
            )
        };
        let m = Simulation::multipath(
            cfg,
            MultipathScheme::Bonded,
            vec![Some(script()), Some(script())],
        )
        .run();
        assert!(m.script_dropped > 0, "burst script never dropped anything");
        assert!(m.fec_tx > 0, "adaptive ratio never turned FEC on");
        assert!(
            m.fec_recovered > 0,
            "no packet recovered ({} parity tx, {} dropped)",
            m.fec_tx,
            m.script_dropped
        );
    }

    #[test]
    fn bonded_falls_back_to_keyframe_duplication_on_one_leg() {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(4)
            .build();
        // Secondary dies just after its health stream starts (a leg that
        // never reported keeps its startup grace and is never declared
        // dead): bonding degenerates to a single leg, where the
        // redundancy budget buys keyframe repeats.
        let blackout = FaultScript::new().blackout(
            SimTime::ZERO + SimDuration::from_secs(1),
            SimDuration::from_secs(120),
        );
        let m =
            Simulation::multipath(cfg, MultipathScheme::Bonded, vec![None, Some(blackout)]).run();
        assert!(m.dup_tx_packets > 0, "no keyframe repeats on the lone leg");
        assert!(
            (m.dup_tx_packets as f64) < 0.5 * m.media_sent as f64,
            "fallback duplicated {}/{} packets",
            m.dup_tx_packets,
            m.media_sent
        );
        assert_eq!(m.fec_tx, 0, "cross-leg parity with one leg down");
        // Essentially everything after the first second first-flew on the
        // surviving leg.
        assert!(m.leg_tx_share(0) > 0.8, "share {}", m.leg_tx_share(0));
    }

    #[test]
    fn bonded_deterministic_replay_bit_identical() {
        let cfg = ExperimentConfig::builder()
            .cc(CcMode::paper_static(Environment::Rural))
            .seed(0xD0A1)
            .hold_secs(2)
            .fec_cap(0.25)
            .repair(true)
            .build();
        let script = || {
            FaultScript::new().burst_loss_window(
                SimTime::ZERO + SimDuration::from_secs(1),
                SimDuration::from_secs(10),
                0.05,
                0.3,
                0.5,
                Some(PacketKind::Media),
            )
        };
        let run = || {
            Simulation::multipath(
                cfg,
                MultipathScheme::Bonded,
                vec![Some(script()), Some(script())],
            )
            .run()
        };
        assert_eq!(run().to_bytes(), run().to_bytes());
    }

    #[test]
    fn deterministic_replay_per_seed() {
        let cfg = base();
        let run = || {
            Simulation::multipath(
                cfg,
                MultipathScheme::Failover,
                vec![
                    Some(FaultScript::new().blackout(
                        SimTime::ZERO + SimDuration::from_secs(3),
                        SimDuration::from_secs(4),
                    )),
                    None,
                ],
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.media_sent, b.media_sent);
        assert_eq!(a.media_received, b.media_received);
        assert_eq!(a.probes_sent, b.probes_sent);
        assert_eq!(a.switches.len(), b.switches.len());
        for (x, y) in a.switches.iter().zip(&b.switches) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.cause, y.cause);
        }
        assert_eq!(a.frames.len(), b.frames.len());
    }

    #[test]
    fn one_leg_bonded_degenerates_to_single_path() {
        // With a single modem there is nothing to stripe, no cross-leg
        // parity, and no fallback duplication (nothing ever *went* down
        // to trigger it): the bonded scheduler must reduce to plain
        // single-path delivery on leg 0.
        let mut cfg = base();
        cfg.n_legs = 1;
        cfg.hold = SimDuration::from_secs(4);
        let bonded = Simulation::multipath(cfg, MultipathScheme::Bonded, Vec::new()).run();
        let single = Simulation::multipath(cfg, MultipathScheme::SinglePath, Vec::new()).run();
        assert_eq!(bonded.path_health.len(), 1);
        assert_eq!(bonded.fec_tx, 0, "cross-leg parity with one leg");
        assert_eq!(bonded.media_sent, single.media_sent);
        assert_eq!(bonded.media_received, single.media_received);
        assert_eq!(bonded.media_received_bytes, single.media_received_bytes);
        assert_eq!(bonded.frames.len(), single.frames.len());
    }

    #[test]
    fn three_leg_bonded_stripes_across_all_legs() {
        let mut cfg = base();
        cfg.n_legs = 3;
        cfg.hold = SimDuration::from_secs(4);
        let m = Simulation::multipath(cfg, MultipathScheme::Bonded, Vec::new()).run();
        assert_eq!(m.path_health.len(), 3);
        let shares: Vec<f64> = (0..3).map(|li| m.leg_tx_share(li)).collect();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The goodput-proportional weights need not split evenly — the
        // slower operator's leg settles well below 1/3 — but every leg
        // must carry real traffic and none may monopolize the flow.
        for (li, s) in shares.iter().enumerate() {
            assert!(
                (0.02..=0.90).contains(s),
                "leg {li} carried {s:.2} of first transmissions"
            );
        }
        // The health plane only counts a report once an interval offers
        // enough packets to measure (LOSS_MIN_TX); a starved leg can
        // keepalive through every interval and finish at zero. The busy
        // legs must still produce real loss/goodput samples.
        assert!(m.path_health.iter().filter(|p| p.reports > 0).count() >= 2);
    }

    #[test]
    fn three_leg_bonded_survives_correlated_two_leg_burst() {
        // Two legs share a synchronized burst-loss window (same cell, say)
        // while the third stays clean: bonded delivery with RS parity must
        // beat the same fault hitting a two-leg rig, and repair groups
        // that lost more than one member (beyond any XOR code).
        let cfg3 = {
            let mut c = ExperimentConfig::builder()
                .cc(CcMode::paper_static(Environment::Rural))
                .seed(0xD0A1)
                .hold_secs(4)
                .fec_cap(0.25)
                .repair(true)
                .build();
            c.n_legs = 3;
            c
        };
        let burst = || {
            FaultScript::new().burst_loss_window(
                SimTime::ZERO + SimDuration::from_secs(1),
                SimDuration::from_secs(25),
                0.08,
                0.25,
                0.6,
                Some(PacketKind::Media),
            )
        };
        let m = Simulation::multipath(
            cfg3,
            MultipathScheme::Bonded,
            vec![Some(burst()), Some(burst()), None],
        )
        .run();
        assert!(m.script_dropped > 0, "correlated burst never dropped");
        assert!(m.fec_tx > 0, "adaptive ratio never turned FEC on");
        assert!(m.fec_recovered > 0, "no packet recovered");
        assert!(
            m.fec_multi_recovered > 0,
            "no multi-loss group repaired ({} single repairs)",
            m.fec_recovered
        );
    }
}
