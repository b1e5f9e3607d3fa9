//! Feedback-starvation watchdog shared by the congestion controllers.
//!
//! Both GCC (TWCC feedback) and SCReAM (RFC 8888 feedback) steer the media
//! rate exclusively from receiver reports. When the feedback path goes dark
//! — a link blackout, a coverage hole, an RTCP-only outage — a naive sender
//! keeps pushing at the last negotiated rate into a link that may no longer
//! exist, and on SCReAM the self-clocked window freezes transmission
//! entirely. [`FeedbackWatchdog`] is the controller-agnostic core of the
//! mitigation: it watches the inter-feedback gap, declares *starvation*
//! after a configurable timeout, drives an exponential rate back-off toward
//! a floor while starved, and meters the ramp back up once feedback
//! resumes. Controller-specific actions (cwnd freezing, clearing stale
//! in-flight state) are taken by the embedding controller in response to
//! the [`WatchdogEvent`]s this state machine emits.
//!
//! The watchdog only ever *caps* the controller's own target — it never
//! raises it — so with `enabled = false` the embedding controller behaves
//! exactly as if the watchdog did not exist (the pre-mitigation behaviour:
//! a frozen rate for GCC, a frozen window for SCReAM).

use crate::time::{SimDuration, SimTime};

/// Tunables of the starvation watchdog.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// Master switch. Disabled, the watchdog observes but never caps —
    /// reproducing the stock controllers' frozen-rate outage behaviour.
    pub enabled: bool,
    /// Inter-feedback gap that declares the feedback path dead. Stock
    /// feedback cadences are 10–50 ms, so 500 ms is ≥ 10 missed reports.
    pub timeout: SimDuration,
    /// While starved, the cap is multiplied by `backoff_factor` once per
    /// `backoff_interval`.
    pub backoff_interval: SimDuration,
    /// Multiplicative decay per interval (0 < factor < 1).
    pub backoff_factor: f64,
    /// The cap never decays below this floor: enough rate to keep probing
    /// the link so recovery is observed promptly.
    pub floor_bps: f64,
    /// While recovering, the cap is multiplied by `ramp_factor` on every
    /// feedback packet until it clears the controller's own target.
    pub ramp_factor: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            timeout: SimDuration::from_millis(500),
            backoff_interval: SimDuration::from_millis(200),
            backoff_factor: 0.7,
            floor_bps: 300e3,
            ramp_factor: 1.3,
        }
    }
}

/// Where the watchdog currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchdogState {
    /// Feedback is flowing (or has never flowed); no cap in force.
    Armed,
    /// Feedback starved: the cap is decaying toward the floor.
    Starved,
    /// Feedback resumed: the cap is ramping back toward the target.
    Recovering,
}

/// Transitions the embedding controller may want to react to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WatchdogEvent {
    /// The inter-feedback gap crossed the timeout.
    Starved,
    /// First feedback after starvation arrived; ramp-back begins.
    FeedbackResumed,
    /// The ramp reached the controller's own target; cap released.
    Recovered,
}

/// Counters for analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct WatchdogStats {
    /// Starvation episodes declared.
    pub activations: u64,
    /// Ramps that completed (cap released).
    pub recoveries: u64,
    /// Cumulative time spent starved.
    pub starved_time: SimDuration,
    /// Duration of the last completed ramp: first feedback after the
    /// outage → cap release. The "time to recover" of the campaign tables.
    pub last_ramp: Option<SimDuration>,
    /// Longest inter-feedback gap observed.
    pub max_feedback_gap: SimDuration,
}

/// The starvation state machine. Embed one per controller, call
/// [`on_tick`](FeedbackWatchdog::on_tick) from the driver loop and
/// [`on_feedback`](FeedbackWatchdog::on_feedback) whenever a feedback
/// packet is processed, and apply [`cap_bps`](FeedbackWatchdog::cap_bps)
/// as an upper bound on the published target rate.
#[derive(Debug)]
pub struct FeedbackWatchdog {
    config: WatchdogConfig,
    state: WatchdogState,
    last_feedback: Option<SimTime>,
    starved_since: Option<SimTime>,
    ramp_since: Option<SimTime>,
    /// Decaying/ramping rate cap while not Armed.
    cap_bps: Option<f64>,
    /// Next instant a back-off step is due.
    next_backoff: SimTime,
    stats: WatchdogStats,
}

impl FeedbackWatchdog {
    /// Create a watchdog (initially [`WatchdogState::Armed`]).
    ///
    /// # Panics
    ///
    /// If `config.backoff_interval` is zero: the back-off loop in
    /// [`on_tick`](Self::on_tick) would never advance once starved.
    pub fn new(config: WatchdogConfig) -> Self {
        assert!(
            config.backoff_interval > SimDuration::ZERO,
            "watchdog backoff_interval must be positive"
        );
        FeedbackWatchdog {
            config,
            state: WatchdogState::Armed,
            last_feedback: None,
            starved_since: None,
            ramp_since: None,
            cap_bps: None,
            next_backoff: SimTime::ZERO,
            stats: WatchdogStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> WatchdogConfig {
        self.config
    }

    /// Current state.
    pub fn state(&self) -> WatchdogState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> WatchdogStats {
        self.stats
    }

    /// The rate cap currently in force, if any.
    pub fn cap_bps(&self) -> Option<f64> {
        self.cap_bps
    }

    /// Apply the cap to the controller's own target.
    pub fn apply(&self, target_bps: f64) -> f64 {
        match self.cap_bps {
            Some(cap) => target_bps.min(cap),
            None => target_bps,
        }
    }

    /// Advance the timers. `target_bps` is the controller's *own* (uncapped)
    /// target: it seeds the decay on starvation and bounds the ramp.
    pub fn on_tick(&mut self, now: SimTime, target_bps: f64) -> Option<WatchdogEvent> {
        if !self.config.enabled {
            return None;
        }
        let Some(last) = self.last_feedback else {
            return None; // startup: nothing to starve from yet
        };
        let gap = now.saturating_since(last);
        self.stats.max_feedback_gap = self.stats.max_feedback_gap.max(gap);
        match self.state {
            WatchdogState::Armed | WatchdogState::Recovering => {
                if gap > self.config.timeout {
                    // A fresh starvation episode (Recovering → Starved means
                    // the feedback path died again mid-ramp).
                    self.state = WatchdogState::Starved;
                    self.starved_since = Some(now);
                    self.ramp_since = None;
                    self.stats.activations += 1;
                    let seed = self.apply(target_bps).max(self.config.floor_bps);
                    self.cap_bps = Some(seed);
                    self.next_backoff = now + self.config.backoff_interval;
                    return Some(WatchdogEvent::Starved);
                }
                None
            }
            WatchdogState::Starved => {
                while now >= self.next_backoff {
                    self.next_backoff += self.config.backoff_interval;
                    let cap = self.cap_bps.unwrap_or(self.config.floor_bps);
                    self.cap_bps =
                        Some((cap * self.config.backoff_factor).max(self.config.floor_bps));
                }
                None
            }
        }
    }

    /// The next instant at which [`on_tick`](Self::on_tick) can do anything
    /// a later call would not reproduce: the starvation edge while
    /// armed/recovering, or the next back-off step while starved. `None`
    /// when disabled or before the first feedback (`on_tick` is a no-op at
    /// any instant then). The returned instant may be conservative (at or
    /// before the true edge); calling `on_tick` early is harmless because
    /// the state machine only acts once `now` actually crosses the edge.
    pub fn next_wake(&self) -> Option<SimTime> {
        if !self.config.enabled {
            return None;
        }
        let last = self.last_feedback?;
        match self.state {
            WatchdogState::Armed | WatchdogState::Recovering => Some(last + self.config.timeout),
            WatchdogState::Starved => Some(self.next_backoff),
        }
    }

    /// Register a processed feedback packet. `target_bps` is the
    /// controller's own (uncapped) target; the ramp releases once the cap
    /// clears it.
    pub fn on_feedback(&mut self, now: SimTime, target_bps: f64) -> Option<WatchdogEvent> {
        self.last_feedback = Some(now);
        if !self.config.enabled {
            return None;
        }
        match self.state {
            WatchdogState::Armed => None,
            WatchdogState::Starved => {
                self.state = WatchdogState::Recovering;
                if let Some(since) = self.starved_since.take() {
                    self.stats.starved_time += now.saturating_since(since);
                }
                self.ramp_since = Some(now);
                Some(WatchdogEvent::FeedbackResumed)
            }
            WatchdogState::Recovering => {
                let cap = self.cap_bps.unwrap_or(self.config.floor_bps) * self.config.ramp_factor;
                if cap >= target_bps {
                    self.state = WatchdogState::Armed;
                    self.cap_bps = None;
                    self.stats.recoveries += 1;
                    self.stats.last_ramp = self.ramp_since.take().map(|s| now.saturating_since(s));
                    Some(WatchdogEvent::Recovered)
                } else {
                    self.cap_bps = Some(cap);
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig::default()
    }

    fn feed_until(wd: &mut FeedbackWatchdog, from_ms: u64, to_ms: u64, target: f64) {
        let mut t = from_ms;
        while t < to_ms {
            wd.on_feedback(SimTime::from_millis(t), target);
            t += 50;
        }
    }

    #[test]
    #[should_panic(expected = "backoff_interval must be positive")]
    fn zero_backoff_interval_is_refused_at_construction() {
        FeedbackWatchdog::new(WatchdogConfig {
            backoff_interval: SimDuration::ZERO,
            ..cfg()
        });
    }

    #[test]
    fn no_feedback_at_startup_never_starves() {
        let mut wd = FeedbackWatchdog::new(cfg());
        for ms in 0..5_000 {
            assert_eq!(wd.on_tick(SimTime::from_millis(ms), 10e6), None);
        }
        assert_eq!(wd.state(), WatchdogState::Armed);
        assert_eq!(wd.stats().activations, 0);
    }

    #[test]
    fn starves_after_timeout_and_decays_to_floor() {
        let mut wd = FeedbackWatchdog::new(cfg());
        feed_until(&mut wd, 0, 1_000, 10e6);
        // Feedback stops at t = 950 ms; timeout (500 ms) expires at 1 450.
        let mut entered = None;
        for ms in 1_000..10_000 {
            if wd.on_tick(SimTime::from_millis(ms), 10e6) == Some(WatchdogEvent::Starved) {
                entered = Some(ms);
            }
        }
        let entered = entered.expect("never starved");
        assert!(
            (1_440..=1_460).contains(&entered),
            "starved at {entered} ms"
        );
        assert_eq!(wd.state(), WatchdogState::Starved);
        // 8.5 s of decay at 0.7 per 200 ms from 10 Mbps: floor reached.
        assert_eq!(wd.cap_bps(), Some(cfg().floor_bps));
        assert_eq!(wd.apply(10e6), cfg().floor_bps);
        assert_eq!(wd.stats().activations, 1);
    }

    #[test]
    fn ramp_back_is_metered_and_releases() {
        let mut wd = FeedbackWatchdog::new(cfg());
        feed_until(&mut wd, 0, 1_000, 10e6);
        for ms in 1_000..6_000 {
            wd.on_tick(SimTime::from_millis(ms), 10e6);
        }
        // Feedback resumes at t = 6 s, every 50 ms.
        let mut resumed = false;
        let mut recovered_at = None;
        let mut caps = Vec::new();
        for i in 0..40u64 {
            let t = SimTime::from_millis(6_000 + i * 50);
            match wd.on_feedback(t, 10e6) {
                Some(WatchdogEvent::FeedbackResumed) => resumed = true,
                Some(WatchdogEvent::Recovered) => {
                    recovered_at = Some(t);
                    break;
                }
                _ => {}
            }
            caps.extend(wd.cap_bps());
        }
        assert!(resumed);
        let recovered_at = recovered_at.expect("ramp never released");
        // 300 kbps → 10 Mbps at 1.3× per 50 ms report ≈ 14 reports ≈ 700 ms.
        let ramp = recovered_at.saturating_since(SimTime::from_millis(6_000));
        assert!(
            ramp >= SimDuration::from_millis(300) && ramp <= SimDuration::from_millis(1_500),
            "ramp took {} ms",
            ramp.as_millis()
        );
        assert!(caps.windows(2).all(|w| w[0] < w[1]), "cap not monotone");
        assert_eq!(wd.cap_bps(), None);
        assert_eq!(wd.state(), WatchdogState::Armed);
        let s = wd.stats();
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.last_ramp, Some(ramp));
        assert!(s.starved_time >= SimDuration::from_secs(4));
    }

    #[test]
    fn disabled_watchdog_never_caps() {
        let mut wd = FeedbackWatchdog::new(WatchdogConfig {
            enabled: false,
            ..cfg()
        });
        feed_until(&mut wd, 0, 1_000, 10e6);
        for ms in 1_000..20_000 {
            assert_eq!(wd.on_tick(SimTime::from_millis(ms), 10e6), None);
        }
        assert_eq!(wd.cap_bps(), None);
        assert_eq!(wd.apply(10e6), 10e6);
        assert_eq!(wd.stats().activations, 0);
    }

    #[test]
    fn restarving_mid_ramp_counts_a_second_activation() {
        let mut wd = FeedbackWatchdog::new(cfg());
        feed_until(&mut wd, 0, 1_000, 10e6);
        for ms in 1_000..4_000 {
            wd.on_tick(SimTime::from_millis(ms), 10e6);
        }
        // One feedback packet, then darkness again.
        wd.on_feedback(SimTime::from_millis(4_000), 10e6);
        assert_eq!(wd.state(), WatchdogState::Recovering);
        let mut events = Vec::new();
        for ms in 4_001..6_000 {
            events.extend(wd.on_tick(SimTime::from_millis(ms), 10e6));
        }
        assert_eq!(events, vec![WatchdogEvent::Starved]);
        assert_eq!(wd.stats().activations, 2);
        // The second seed is the *capped* rate — no rate jump from a
        // half-finished ramp.
        assert!(wd.cap_bps().unwrap() < 1e6);
    }
}
