//! Active/standby switching over N health-monitored legs.
//!
//! The controller is deliberately small: all the estimation intelligence
//! lives in [`crate::health::PathHealth`]; this module only
//! decides *when the evidence justifies moving the media flow*. Two rules
//! (DESIGN.md §10.6):
//!
//! * **Break fast path** — the active leg is `Dead` (report starvation or
//!   radio-link failure) and the standby is not: switch after a short
//!   confirmation dwell (default 200 ms). Restoring video fast after a
//!   coverage hole is the whole point of carrying a second operator.
//! * **Quality path** — the active leg is merely `Degraded` while some
//!   standby is `Healthy`: switch only if that standby's score beats the
//!   active's by a hysteresis margin AND a minimum dwell has elapsed
//!   since the last switch. Hysteresis + dwell are the anti-flap
//!   guarantees: two comparable legs never ping-pong, and any single
//!   fault window produces at most one switch.
//!
//! With more than two legs, both rules pick the *best-scoring* eligible
//! standby (ties break toward the lowest index, which also makes the
//! two-leg case behave exactly as it always did). The controller is
//! *sticky*: there is no preferred/primary leg, so once traffic moves to
//! a standby it stays there until that leg in turn degrades. This is
//! what bounds switches at one per fault window.

use rpav_sim::{SimDuration, SimTime};

use crate::health::{HealthClass, PathHealth};

/// Why the controller moved the flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchCause {
    /// Active leg's report stream went silent (end-to-end break).
    Starvation,
    /// Active leg's modem reported a radio-link failure.
    RadioLinkFailure,
    /// Active leg's modem is executing a handover and the standby
    /// measured better.
    HandoverSignal,
    /// Active leg's measured quality (loss/RTT EWMA) fell behind a
    /// standby by more than the hysteresis margin.
    Degraded,
}

impl SwitchCause {
    /// Stable lowercase label for CSV export.
    pub fn label(&self) -> &'static str {
        match self {
            SwitchCause::Starvation => "starvation",
            SwitchCause::RadioLinkFailure => "rlf",
            SwitchCause::HandoverSignal => "handover",
            SwitchCause::Degraded => "degraded",
        }
    }
}

/// Anti-flap tunables.
#[derive(Clone, Copy, Debug)]
pub struct FailoverConfig {
    /// Minimum time between quality-motivated switches.
    pub min_dwell: SimDuration,
    /// Confirmation dwell before acting on a dead active leg.
    pub dead_dwell: SimDuration,
    /// How long the active leg must stay *continuously* degraded before
    /// the quality path may act. This is what keeps routine sub-second
    /// handovers and transient loss bursts from triggering switches — an
    /// idle standby always measures better than a loaded active leg, so
    /// a score comparison alone would flap on every radio event.
    pub degraded_dwell: SimDuration,
    /// Score margin (see [`PathHealth::score`] units) a standby must
    /// win by on the quality path.
    pub hysteresis: f64,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            min_dwell: SimDuration::from_secs(2),
            dead_dwell: SimDuration::from_millis(200),
            degraded_dwell: SimDuration::from_secs(1),
            hysteresis: 15.0,
        }
    }
}

/// A decision to move the media flow from `from` to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchDecision {
    /// Index of the leg the flow leaves.
    pub from: usize,
    /// Index of the leg the flow moves to.
    pub to: usize,
    /// What justified the move.
    pub cause: SwitchCause,
}

/// The active/standby switching state machine over N legs.
pub struct FailoverController {
    cfg: FailoverConfig,
    active: usize,
    last_switch: SimTime,
    /// When the active leg was first observed dead (for `dead_dwell`);
    /// cleared when it comes back.
    dead_since: Option<SimTime>,
    /// When the active leg's current continuous degradation began (for
    /// `degraded_dwell`); cleared whenever it reads healthy.
    degraded_since: Option<SimTime>,
}

impl FailoverController {
    /// Start with leg 0 active.
    pub fn new(cfg: FailoverConfig) -> Self {
        FailoverController {
            cfg,
            active: 0,
            last_switch: SimTime::ZERO,
            dead_since: None,
            degraded_since: None,
        }
    }

    /// Index of the currently active leg.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Evaluate the legs' health; returns a decision when the flow
    /// should move (the controller has already committed to it).
    pub fn on_tick(&mut self, now: SimTime, health: &[&PathHealth]) -> Option<SwitchDecision> {
        if health.len() < 2 || self.active >= health.len() {
            return None;
        }
        let a = health[self.active];
        let a_class = a.class(now);

        // Break fast path: any non-dead standby beats a dead active leg.
        if a_class == HealthClass::Dead {
            let since = *self.dead_since.get_or_insert(now);
            if now.saturating_since(since) >= self.cfg.dead_dwell {
                if let Some(to) = self.best_standby(now, health, HealthClass::Degraded, None) {
                    let cause = if a.dead_from_rlf(now) {
                        SwitchCause::RadioLinkFailure
                    } else {
                        SwitchCause::Starvation
                    };
                    return Some(self.commit(now, to, cause));
                }
            }
            return None;
        }
        self.dead_since = None;

        // Quality path: only sustained degradation justifies a move.
        if a_class == HealthClass::Degraded {
            let since = *self.degraded_since.get_or_insert(now);
            if now.saturating_since(since) >= self.cfg.degraded_dwell
                && now.saturating_since(self.last_switch) >= self.cfg.min_dwell
            {
                let bar = a.score(now) + self.cfg.hysteresis;
                if let Some(to) = self.best_standby(now, health, HealthClass::Healthy, Some(bar)) {
                    let cause = if a.degraded_from_handover(now) {
                        SwitchCause::HandoverSignal
                    } else {
                        SwitchCause::Degraded
                    };
                    return Some(self.commit(now, to, cause));
                }
            }
        } else {
            self.degraded_since = None;
        }
        None
    }

    /// Best-scoring standby whose class is at least `floor` (Degraded
    /// admits Degraded + Healthy; Healthy admits only Healthy) and, if
    /// `min_score` is set, whose score strictly exceeds it. Ties break
    /// toward the lowest index, so two legs reproduce the historical
    /// `standby = 1 - active` behaviour exactly.
    fn best_standby(
        &self,
        now: SimTime,
        health: &[&PathHealth],
        floor: HealthClass,
        min_score: Option<f64>,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, h) in health.iter().enumerate() {
            if i == self.active {
                continue;
            }
            let eligible = match h.class(now) {
                HealthClass::Healthy => true,
                HealthClass::Degraded => floor == HealthClass::Degraded,
                HealthClass::Dead => false,
            };
            if !eligible {
                continue;
            }
            let sc = h.score(now);
            if let Some(bar) = min_score {
                if sc <= bar {
                    continue;
                }
            }
            let better = match best {
                Some((_, b)) => sc > b,
                None => true,
            };
            if better {
                best = Some((i, sc));
            }
        }
        best.map(|(i, _)| i)
    }

    fn commit(&mut self, now: SimTime, to: usize, cause: SwitchCause) -> SwitchDecision {
        let from = self.active;
        self.active = to;
        self.last_switch = now;
        self.dead_since = None;
        self.degraded_since = None;
        SwitchDecision { from, to, cause }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use rpav_lte::LinkHealthSignal;

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    /// Two legs with report streams we control per-tick.
    struct Rig {
        health: [PathHealth; 2],
        ctl: FailoverController,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                health: [
                    PathHealth::new(HealthConfig::default()),
                    PathHealth::new(HealthConfig::default()),
                ],
                ctl: FailoverController::new(FailoverConfig::default()),
            }
        }

        /// Advance one ms; `feed[i]` = leg i receives reports (50 ms
        /// cadence) with the given loss.
        fn tick(&mut self, t: u64, feed: [Option<f64>; 2]) -> Option<SwitchDecision> {
            for (i, h) in self.health.iter_mut().enumerate() {
                h.on_tick(ms(t));
                if t % 50 == 0 {
                    if let Some(loss) = feed[i] {
                        h.on_report(ms(t), 40.0, loss, 8e6);
                    }
                }
            }
            self.ctl.on_tick(ms(t), &[&self.health[0], &self.health[1]])
        }
    }

    #[test]
    fn starved_active_fails_over_once() {
        let mut rig = Rig::new();
        let mut switches = Vec::new();
        for t in 0..5_000 {
            // Leg 0 goes silent at t = 2 s; leg 1 keeps reporting.
            let feed0 = (t < 2_000).then_some(0.0);
            if let Some(d) = rig.tick(t, [feed0, Some(0.0)]) {
                switches.push((t, d));
            }
        }
        assert_eq!(switches.len(), 1, "{switches:?}");
        let (t, d) = switches[0];
        assert_eq!(d.from, 0);
        assert_eq!(d.to, 1);
        assert_eq!(d.cause, SwitchCause::Starvation);
        // Dead detection (watchdog timeout ≈ 500 ms) + 200 ms dwell.
        assert!((2_500..3_200).contains(&t), "switched at {t} ms");
        assert_eq!(rig.ctl.active(), 1);
    }

    #[test]
    fn degraded_active_waits_for_dwell_and_hysteresis() {
        let mut rig = Rig::new();
        let mut switches = Vec::new();
        for t in 0..8_000 {
            // Leg 0 runs 30 % loss from t = 1 s; leg 1 stays clean.
            let loss0 = if t >= 1_000 { 0.30 } else { 0.0 };
            if let Some(d) = rig.tick(t, [Some(loss0), Some(0.0)]) {
                switches.push((t, d));
            }
        }
        assert_eq!(switches.len(), 1, "{switches:?}");
        let (t, d) = switches[0];
        assert_eq!(d.cause, SwitchCause::Degraded);
        // min_dwell since t = 0 is 2 s: no switch can precede that.
        assert!(t >= 2_000, "switched at {t} ms before the minimum dwell");
    }

    #[test]
    fn comparable_legs_never_flap() {
        let mut rig = Rig::new();
        for t in 0..20_000 {
            // Both legs mildly and equally lossy: degraded, but neither
            // beats the other by the hysteresis margin.
            let d = rig.tick(t, [Some(0.06), Some(0.06)]);
            assert!(d.is_none(), "flapped at {t} ms: {d:?}");
        }
        assert_eq!(rig.ctl.active(), 0);
    }

    #[test]
    fn rlf_signal_beats_starvation_label() {
        let mut rig = Rig::new();
        let mut decision = None;
        for t in 0..4_000 {
            if t == 1_000 {
                rig.health[0].on_signal(LinkHealthSignal::RadioLinkFailure { until: ms(3_000) });
            }
            // Both report streams stay alive — only the RLF kills leg 0.
            if let Some(d) = rig.tick(t, [Some(0.0), Some(0.0)]) {
                decision = Some((t, d));
                break;
            }
        }
        let (t, d) = decision.expect("no switch on RLF");
        assert_eq!(d.cause, SwitchCause::RadioLinkFailure);
        assert!((1_200..1_500).contains(&t), "switched at {t} ms");
    }

    #[test]
    fn controller_tolerates_non_monotonic_clock() {
        let mut rig = Rig::new();
        for t in 0..3_000 {
            rig.tick(t, [Some(0.0), Some(0.0)]);
        }
        // A clock reading from the past (hostile replay, cross-leg skew
        // in a caller): saturating deltas must neither panic nor switch.
        let d = rig.ctl.on_tick(ms(100), &[&rig.health[0], &rig.health[1]]);
        assert!(d.is_none(), "switched on a backwards clock: {d:?}");
        assert_eq!(rig.ctl.active(), 0);
    }

    #[test]
    fn three_legs_pick_the_best_standby_then_cascade() {
        let mut h = [
            PathHealth::new(HealthConfig::default()),
            PathHealth::new(HealthConfig::default()),
            PathHealth::new(HealthConfig::default()),
        ];
        let mut ctl = FailoverController::new(FailoverConfig::default());
        let mut switches = Vec::new();
        for t in 0..12_000u64 {
            for (i, leg) in h.iter_mut().enumerate() {
                leg.on_tick(ms(t));
                if t % 50 == 0 {
                    // Leg 0 goes silent at 2 s; leg 2 at 6 s. Leg 1 runs
                    // mild loss so leg 2 out-scores it while both live.
                    let feed = match i {
                        0 => (t < 2_000).then_some(0.0),
                        1 => Some(0.02),
                        _ => (t < 6_000).then_some(0.0),
                    };
                    if let Some(loss) = feed {
                        leg.on_report(ms(t), 40.0, loss, 8e6);
                    }
                }
            }
            if let Some(d) = ctl.on_tick(ms(t), &[&h[0], &h[1], &h[2]]) {
                switches.push((t, d));
            }
        }
        assert_eq!(switches.len(), 2, "{switches:?}");
        // First break: leg 2 is the cleanest surviving standby.
        assert_eq!(switches[0].1.from, 0);
        assert_eq!(switches[0].1.to, 2);
        // When leg 2 dies in turn, the flow cascades onto leg 1.
        assert_eq!(switches[1].1.from, 2);
        assert_eq!(switches[1].1.to, 1);
        assert_eq!(ctl.active(), 1);
    }

    #[test]
    fn no_switch_when_both_legs_dead() {
        let mut rig = Rig::new();
        for t in 0..6_000 {
            // Both silent after 1 s.
            let feed = (t < 1_000).then_some(0.0);
            let d = rig.tick(t, [feed, feed]);
            assert!(d.is_none(), "switched to an equally dead leg: {d:?}");
        }
    }
}
