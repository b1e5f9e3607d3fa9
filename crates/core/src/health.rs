//! Per-path health estimation for the multi-operator failover subsystem.
//!
//! Each network leg gets one [`PathHealth`] on the sender side, fed from
//! three signal sources:
//!
//! 1. **Per-leg receiver reports** (`rpav-rtp`'s `PathReport`, 50 ms
//!    cadence): differentiated into RTT / loss / goodput samples and
//!    folded into EWMAs.
//! 2. **Report starvation**: a leg whose report stream goes silent is a
//!    leg whose downlink *or* uplink is gone — the shared
//!    feedback-starvation watchdog (`rpav-sim`) supplies the break
//!    detection fast path, reusing its startup-grace and recovery
//!    semantics.
//! 3. **Direct radio signals** (`rpav-lte`'s [`LinkHealthSignal`]): the
//!    modem knows a handover or radio-link failure is in progress before
//!    any end-to-end estimator can see it, so handover execution marks
//!    the leg degraded and RLF marks it dead until re-establishment.
//!
//! The classification is deliberately coarse — `Healthy`, `Degraded`,
//! `Dead` — because the failover controller only needs an ordering, plus
//! a scalar [`PathHealth::score`] to compare two non-dead legs with
//! hysteresis (see DESIGN.md §10.6).

use rpav_lte::LinkHealthSignal;
use rpav_sim::{FeedbackWatchdog, SimDuration, SimTime, WatchdogConfig, WatchdogState};

/// Coarse health classification of one leg.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthClass {
    /// Fresh reports, low loss, no radio events in progress.
    Healthy,
    /// Usable but impaired: lossy, mid-handover, or ramping back after a
    /// starvation episode.
    Degraded,
    /// No reports within the starvation timeout, or radio-link failure in
    /// progress — traffic on this leg is going nowhere.
    Dead,
}

/// Tunables for the estimator.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// EWMA weight of a new sample (per report, 50 ms cadence).
    pub ewma_alpha: f64,
    /// Loss EWMA above this classifies the leg as degraded.
    pub loss_degraded: f64,
    /// Report-starvation detection (timeout marks the leg dead).
    pub watchdog: WatchdogConfig,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            ewma_alpha: 0.3,
            loss_degraded: 0.05,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// The watchdog tracks a bitrate target we do not use; any positive
/// constant keeps its state machine honest.
const DUMMY_TARGET_BPS: f64 = 1e6;

/// The shared watchdog never starves before its *first* feedback (a CC
/// ramp must survive its own startup), which leaves a hole: a leg whose
/// link never comes up at all — blacked out from t=0 — delivers no
/// report, so the grace never ends and the leg reads healthy forever
/// while the scheduler stripes into the void. A leg that has been up
/// this long without one report (not even an empty keepalive) never
/// came up: classify it dead until evidence arrives. Normal startups
/// see their first 50 ms-cadence report one to two orders of magnitude
/// sooner.
const FIRST_REPORT_DEADLINE: SimDuration = SimDuration::from_millis(1_000);

/// Sender-side health state of one network leg.
pub struct PathHealth {
    cfg: HealthConfig,
    starvation: FeedbackWatchdog,
    ewma_rtt_ms: Option<f64>,
    ewma_loss: Option<f64>,
    ewma_goodput_bps: Option<f64>,
    last_loss_sample: Option<f64>,
    ewma_loss_swing: Option<f64>,
    degraded_until: SimTime,
    dead_until: SimTime,
    born: Option<SimTime>,
    heard: bool,
    reports: u64,
    // Time-in-class accounting (driver-tick integration).
    last_acct: Option<SimTime>,
    time_healthy: SimDuration,
    time_degraded: SimDuration,
    time_dead: SimDuration,
}

impl PathHealth {
    /// Fresh estimator; unknown health reads as `Healthy` with a neutral
    /// score until evidence arrives (the watchdog's startup grace means a
    /// leg is never declared dead before its first report).
    pub fn new(cfg: HealthConfig) -> Self {
        PathHealth {
            starvation: FeedbackWatchdog::new(cfg.watchdog),
            cfg,
            ewma_rtt_ms: None,
            ewma_loss: None,
            ewma_goodput_bps: None,
            last_loss_sample: None,
            ewma_loss_swing: None,
            degraded_until: SimTime::ZERO,
            dead_until: SimTime::ZERO,
            born: None,
            heard: false,
            reports: 0,
            last_acct: None,
            time_healthy: SimDuration::ZERO,
            time_degraded: SimDuration::ZERO,
            time_dead: SimDuration::ZERO,
        }
    }

    /// Fold one differentiated report into the estimate. `loss` is the
    /// fraction lost over the report interval, `rtt_ms`/`goodput_bps` the
    /// interval's newest samples.
    pub fn on_report(&mut self, now: SimTime, rtt_ms: f64, loss: f64, goodput_bps: f64) {
        let a = self.cfg.ewma_alpha;
        let fold = |prev: Option<f64>, sample: f64| {
            Some(match prev {
                Some(p) => p + a * (sample - p),
                None => sample,
            })
        };
        let loss = loss.clamp(0.0, 1.0);
        self.ewma_rtt_ms = fold(self.ewma_rtt_ms, rtt_ms);
        self.ewma_loss = fold(self.ewma_loss, loss);
        self.ewma_goodput_bps = fold(self.ewma_goodput_bps, goodput_bps);
        if let Some(prev) = self.last_loss_sample {
            self.ewma_loss_swing = fold(self.ewma_loss_swing, (loss - prev).abs());
        }
        self.last_loss_sample = Some(loss);
        self.heard = true;
        self.reports += 1;
        self.starvation.on_feedback(now, DUMMY_TARGET_BPS);
    }

    /// A report arrived but carried no usable delta (nothing was offered
    /// to the leg in the interval): keep the starvation watchdog fed
    /// without inventing a quality sample.
    pub fn keepalive(&mut self, now: SimTime) {
        self.heard = true;
        self.starvation.on_feedback(now, DUMMY_TARGET_BPS);
    }

    /// Feed a direct radio-layer signal for this leg.
    pub fn on_signal(&mut self, sig: LinkHealthSignal) {
        match sig {
            LinkHealthSignal::HandoverExecuting { until } => {
                self.degraded_until = self.degraded_until.max(until);
            }
            LinkHealthSignal::RadioLinkFailure { until } => {
                self.dead_until = self.dead_until.max(until);
            }
        }
    }

    /// Advance the starvation watchdog and integrate time-in-class.
    /// Call once per driver tick.
    pub fn on_tick(&mut self, now: SimTime) {
        if self.born.is_none() {
            self.born = Some(now);
        }
        self.starvation.on_tick(now, DUMMY_TARGET_BPS);
        if let Some(prev) = self.last_acct {
            let dt = now.saturating_since(prev);
            match self.class(now) {
                HealthClass::Healthy => self.time_healthy += dt,
                HealthClass::Degraded => self.time_degraded += dt,
                HealthClass::Dead => self.time_dead += dt,
            }
        }
        self.last_acct = Some(now);
    }

    /// Classify the leg right now.
    pub fn class(&self, now: SimTime) -> HealthClass {
        if self.starvation.state() == WatchdogState::Starved || now < self.dead_until {
            return HealthClass::Dead;
        }
        // Stillborn link: up past the first-report deadline with no
        // report ever heard (see FIRST_REPORT_DEADLINE).
        if !self.heard
            && self
                .born
                .is_some_and(|b| now.saturating_since(b) >= FIRST_REPORT_DEADLINE)
        {
            return HealthClass::Dead;
        }
        if now < self.degraded_until
            || self.starvation.state() == WatchdogState::Recovering
            || self.ewma_loss.is_some_and(|l| l > self.cfg.loss_degraded)
        {
            return HealthClass::Degraded;
        }
        HealthClass::Healthy
    }

    /// Scalar quality score (higher is better) for hysteresis comparison
    /// between two non-dead legs. Units: negated milliseconds-equivalent
    /// (1 % loss EWMA costs the same as 10 ms of RTT). A leg with no
    /// samples yet scores a neutral 0 — worse than any good leg, better
    /// than a bad one.
    pub fn score(&self, now: SimTime) -> f64 {
        if self.class(now) == HealthClass::Dead {
            return f64::NEG_INFINITY;
        }
        match (self.ewma_rtt_ms, self.ewma_loss) {
            (Some(rtt), Some(loss)) => -(loss * 1_000.0 + rtt),
            _ => 0.0,
        }
    }

    /// Whether the current dead classification comes from a radio-layer
    /// RLF signal (as opposed to report starvation).
    pub fn dead_from_rlf(&self, now: SimTime) -> bool {
        now < self.dead_until
    }

    /// Whether the current degradation comes from a radio-layer handover
    /// signal.
    pub fn degraded_from_handover(&self, now: SimTime) -> bool {
        now < self.degraded_until
    }

    /// Smoothed RTT estimate, if any report arrived yet.
    pub fn rtt_ms(&self) -> Option<f64> {
        self.ewma_rtt_ms
    }

    /// Smoothed loss-fraction estimate.
    pub fn loss(&self) -> Option<f64> {
        self.ewma_loss
    }

    /// Smoothed goodput estimate (payload bits per second).
    pub fn goodput_bps(&self) -> Option<f64> {
        self.ewma_goodput_bps
    }

    /// Burst-loss indicator: EWMA of the absolute swing between
    /// consecutive report-interval loss samples, in loss-fraction units.
    ///
    /// A Gilbert–Elliott chain spends most of its time in the good state
    /// and erases heavily during short bad-state excursions, so its
    /// 50 ms report samples *alternate* between ≈0 and ≈`loss_bad` —
    /// a large swing. Independent (Bernoulli-like) loss at the same mean
    /// produces nearly constant samples — a small swing. The bonded
    /// scheduler uses this to size the Reed–Solomon parity count: bursty
    /// legs need multi-shard groups, uniform loss is cheaper to cover
    /// with one. Reads 0 until two loss samples have arrived.
    pub fn loss_burstiness(&self) -> f64 {
        self.ewma_loss_swing.unwrap_or(0.0)
    }

    /// Reports folded so far.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Integrated time spent in each class: `(healthy, degraded, dead)`.
    pub fn time_in_class(&self) -> (SimDuration, SimDuration, SimDuration) {
        (self.time_healthy, self.time_degraded, self.time_dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    fn drive_reports(h: &mut PathHealth, from_ms: u64, to_ms: u64, loss: f64) {
        let mut t = from_ms;
        while t < to_ms {
            h.on_tick(ms(t));
            if t % 50 == 0 {
                h.on_report(ms(t), 40.0, loss, 8e6);
            }
            t += 1;
        }
    }

    #[test]
    fn fresh_leg_is_healthy_through_startup_grace() {
        let mut h = PathHealth::new(HealthConfig::default());
        for t in 0..900 {
            h.on_tick(ms(t));
        }
        assert_eq!(h.class(ms(900)), HealthClass::Healthy);
        assert_eq!(h.score(ms(900)), 0.0);
    }

    #[test]
    fn stillborn_leg_reads_dead_after_first_report_deadline() {
        // A link blacked out from t=0 never produces a report: the
        // startup grace must end, or the scheduler stripes into the
        // void forever.
        let mut h = PathHealth::new(HealthConfig::default());
        for t in 0..2_000 {
            h.on_tick(ms(t));
        }
        assert_eq!(h.class(ms(2_000)), HealthClass::Dead);
        assert_eq!(h.score(ms(2_000)), f64::NEG_INFINITY);
        // The first report (even an empty keepalive) revives it.
        h.keepalive(ms(2_000));
        assert_ne!(h.class(ms(2_001)), HealthClass::Dead);
    }

    #[test]
    fn report_starvation_marks_dead_then_recovery_degraded() {
        let mut h = PathHealth::new(HealthConfig::default());
        drive_reports(&mut h, 0, 1_000, 0.0);
        assert_eq!(h.class(ms(1_000)), HealthClass::Healthy);
        // Silence: the default watchdog timeout (500 ms) marks it dead.
        for t in 1_000..1_700 {
            h.on_tick(ms(t));
        }
        assert_eq!(h.class(ms(1_700)), HealthClass::Dead);
        assert!(!h.dead_from_rlf(ms(1_700)), "starved, not RLF");
        assert_eq!(h.score(ms(1_700)), f64::NEG_INFINITY);
        // First report back: recovering → degraded, not instantly healthy.
        h.on_report(ms(1_700), 40.0, 0.0, 8e6);
        assert_eq!(h.class(ms(1_701)), HealthClass::Degraded);
    }

    #[test]
    fn loss_ewma_degrades_and_heals() {
        let mut h = PathHealth::new(HealthConfig::default());
        drive_reports(&mut h, 0, 500, 0.0);
        assert_eq!(h.class(ms(500)), HealthClass::Healthy);
        drive_reports(&mut h, 500, 1_000, 0.30);
        assert_eq!(h.class(ms(1_000)), HealthClass::Degraded);
        assert!(h.score(ms(1_000)) < -100.0);
        drive_reports(&mut h, 1_000, 3_000, 0.0);
        assert_eq!(h.class(ms(3_000)), HealthClass::Healthy);
    }

    #[test]
    fn radio_signals_override_estimates() {
        let mut h = PathHealth::new(HealthConfig::default());
        drive_reports(&mut h, 0, 200, 0.0);
        h.on_signal(LinkHealthSignal::HandoverExecuting { until: ms(300) });
        assert_eq!(h.class(ms(250)), HealthClass::Degraded);
        assert!(h.degraded_from_handover(ms(250)));
        h.on_signal(LinkHealthSignal::RadioLinkFailure { until: ms(600) });
        assert_eq!(h.class(ms(400)), HealthClass::Dead);
        assert!(h.dead_from_rlf(ms(400)));
        // Expired signals release their classification.
        drive_reports(&mut h, 600, 1_000, 0.0);
        assert_eq!(h.class(ms(1_000)), HealthClass::Healthy);
    }

    #[test]
    fn burstiness_separates_alternating_from_steady_loss() {
        // Gilbert–Elliott-style loss: report samples alternate between the
        // bad-state excursion and clean air. Same mean as the steady leg.
        let mut bursty = PathHealth::new(HealthConfig::default());
        let mut steady = PathHealth::new(HealthConfig::default());
        for i in 0..40u64 {
            let t = ms(i * 50);
            bursty.on_report(t, 40.0, if i % 2 == 0 { 0.5 } else { 0.0 }, 8e6);
            steady.on_report(t, 40.0, 0.25, 8e6);
        }
        assert!(
            bursty.loss_burstiness() > 0.4,
            "alternating loss should read bursty: {}",
            bursty.loss_burstiness()
        );
        assert!(
            steady.loss_burstiness() < 0.01,
            "uniform loss should read smooth: {}",
            steady.loss_burstiness()
        );
        // No samples yet → neutral zero, not NaN.
        let fresh = PathHealth::new(HealthConfig::default());
        assert_eq!(fresh.loss_burstiness(), 0.0);
    }

    #[test]
    fn time_in_class_integrates() {
        let mut h = PathHealth::new(HealthConfig::default());
        drive_reports(&mut h, 0, 1_000, 0.0);
        let (healthy, _, dead) = h.time_in_class();
        assert!(healthy >= SimDuration::from_millis(900), "{healthy:?}");
        assert_eq!(dead, SimDuration::ZERO);
    }
}
