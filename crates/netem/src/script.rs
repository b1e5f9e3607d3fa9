//! Scripted, deterministic fault campaigns.
//!
//! [`FaultScript`] is a declarative list of impairment clauses — timed link
//! blackouts, feedback-path-only blackouts, probabilistic loss windows,
//! delay spikes and position/altitude-keyed coverage holes. An
//! [`OutageScheduler`] executes a script against one direction of a
//! [`Path`](crate::Path): the owner attaches it with
//! [`Path::set_script`](crate::Path::set_script) and thereafter every packet
//! offered to the path is screened by the scheduler.
//!
//! Scripts are deterministic: clause activation depends only on virtual time
//! and the externally supplied UAV position, and probabilistic loss clauses
//! draw from a seeded [`SimRng`], so two identically-seeded executions make
//! bit-identical decisions. This is what makes chaos campaigns (the
//! `chaos_matrix` bench) reproducible.

use rpav_sim::{SimDuration, SimRng, SimTime};

use crate::packet::{Packet, PacketKind};

/// One impairment clause of a [`FaultScript`].
#[derive(Clone, Debug, PartialEq)]
pub enum FaultClause {
    /// Total link blackout: every packet offered in `[from, until)` is
    /// dropped and the bottleneck serialiser is stalled until `until`
    /// (packets already queued survive and resume afterwards — the radio
    /// link is gone, the queue is not).
    Blackout {
        /// Start of the outage.
        from: SimTime,
        /// End of the outage (exclusive).
        until: SimTime,
    },
    /// Blackout of one packet kind only. With [`PacketKind::Feedback`] this
    /// models the paper's asymmetric failure: media keeps flowing uplink
    /// while TWCC/RFC 8888 feedback dies on the downlink.
    KindBlackout {
        /// Start of the outage.
        from: SimTime,
        /// End of the outage (exclusive).
        until: SimTime,
        /// The packet kind that is dropped.
        kind: PacketKind,
    },
    /// Random loss at probability `prob` inside the window, optionally
    /// restricted to one packet kind.
    Loss {
        /// Start of the lossy window.
        from: SimTime,
        /// End of the lossy window (exclusive).
        until: SimTime,
        /// Per-packet drop probability in `[0, 1]`.
        prob: f64,
        /// Restrict the loss to this kind (`None` = all packets).
        kind: Option<PacketKind>,
    },
    /// Correlated (bursty) loss inside the window, optionally restricted
    /// to one packet kind: a two-state Gilbert–Elliott chain whose *bad*
    /// state drops packets at `loss_bad`. Cellular loss is bursty —
    /// HARQ/RLC retransmission exhaustion during a fade erases runs of
    /// packets, not independent singletons — and burst shape is exactly
    /// what distinguishes FEC-repairable loss from FEC-defeating loss.
    BurstLoss {
        /// Start of the bursty window.
        from: SimTime,
        /// End of the bursty window (exclusive).
        until: SimTime,
        /// Per-packet probability of entering the bad state from good.
        p_enter: f64,
        /// Per-packet probability of leaving the bad state back to good.
        p_exit: f64,
        /// Per-packet drop probability while in the bad state.
        loss_bad: f64,
        /// Restrict the loss to this kind (`None` = all packets).
        kind: Option<PacketKind>,
    },
    /// Additional one-way delay applied to packets leaving the bottleneck
    /// inside the window (a routing/retransmission spike, §4.2.2's >1 s
    /// latency events).
    DelaySpike {
        /// Start of the spike.
        from: SimTime,
        /// End of the spike (exclusive).
        until: SimTime,
        /// Extra one-way delay.
        extra: SimDuration,
    },
    /// Probabilistic packet duplication inside the window, optionally
    /// restricted to one packet kind. Models the duplicate delivery that
    /// RLC-AM re-establishment and tunnel rehoming produce.
    Duplicate {
        /// Start of the window.
        from: SimTime,
        /// End of the window (exclusive).
        until: SimTime,
        /// Per-packet duplication probability in `[0, 1]`.
        prob: f64,
        /// Restrict to this kind (`None` = all packets).
        kind: Option<PacketKind>,
    },
    /// Probabilistic payload bit-corruption inside the window, optionally
    /// restricted to one packet kind. A firing clause flips real payload
    /// bits (see [`corrupt_payload`](crate::fault::corrupt_payload)), so
    /// the receiver's wire parsers face genuinely hostile bytes.
    Corrupt {
        /// Start of the window.
        from: SimTime,
        /// End of the window (exclusive).
        until: SimTime,
        /// Per-packet corruption probability in `[0, 1]`.
        prob: f64,
        /// Restrict to this kind (`None` = all packets).
        kind: Option<PacketKind>,
    },
    /// Packet reordering inside the window: while active, the path's
    /// [`ReorderStage`](crate::reorder::ReorderStage) runs with this
    /// hold probability and displacement bound instead of its base
    /// configuration.
    Reorder {
        /// Start of the window.
        from: SimTime,
        /// End of the window (exclusive).
        until: SimTime,
        /// Per-packet hold probability in `[0, 1]`.
        prob: f64,
        /// Bound on how many later packets may overtake a held one.
        max_displacement: u64,
    },
    /// Position-keyed coverage hole: while the UAV is horizontally within
    /// `radius_m` of `(x, y)` *and* its altitude is at or above `min_alt_m`,
    /// the link behaves as blacked out. Models the paper's high-altitude
    /// coverage gaps (§4.1): antenna nulls that only exist in the air.
    CoverageHole {
        /// Hole centre x (m).
        x: f64,
        /// Hole centre y (m).
        y: f64,
        /// Horizontal radius (m).
        radius_m: f64,
        /// Minimum altitude for the hole to bite (m).
        min_alt_m: f64,
    },
}

impl FaultClause {
    /// Whether this clause is active at `now` given the last known UAV
    /// position (`None` = position never reported, positional clauses stay
    /// inactive).
    fn active(&self, now: SimTime, pos: Option<(f64, f64, f64)>) -> bool {
        match self {
            FaultClause::Blackout { from, until }
            | FaultClause::KindBlackout { from, until, .. }
            | FaultClause::Loss { from, until, .. }
            | FaultClause::BurstLoss { from, until, .. }
            | FaultClause::DelaySpike { from, until, .. }
            | FaultClause::Duplicate { from, until, .. }
            | FaultClause::Corrupt { from, until, .. }
            | FaultClause::Reorder { from, until, .. } => *from <= now && now < *until,
            FaultClause::CoverageHole {
                x,
                y,
                radius_m,
                min_alt_m,
            } => match pos {
                Some((px, py, pz)) => {
                    let dx = px - x;
                    let dy = py - y;
                    pz >= *min_alt_m && (dx * dx + dy * dy).sqrt() <= *radius_m
                }
                None => false,
            },
        }
    }
}

/// A deterministic, declarative fault campaign for one path direction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultScript {
    clauses: Vec<FaultClause>,
}

impl FaultScript {
    /// An empty script (no impairment).
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Add a total blackout of `duration` starting at `at`.
    pub fn blackout(mut self, at: SimTime, duration: SimDuration) -> Self {
        self.clauses.push(FaultClause::Blackout {
            from: at,
            until: at + duration,
        });
        self
    }

    /// Add a feedback-only blackout of `duration` starting at `at`.
    pub fn feedback_blackout(mut self, at: SimTime, duration: SimDuration) -> Self {
        self.clauses.push(FaultClause::KindBlackout {
            from: at,
            until: at + duration,
            kind: PacketKind::Feedback,
        });
        self
    }

    /// Add a random-loss window.
    pub fn loss_window(
        mut self,
        at: SimTime,
        duration: SimDuration,
        prob: f64,
        kind: Option<PacketKind>,
    ) -> Self {
        self.clauses.push(FaultClause::Loss {
            from: at,
            until: at + duration,
            prob,
            kind,
        });
        self
    }

    /// Add a correlated-loss (Gilbert–Elliott) burst window.
    pub fn burst_loss_window(
        mut self,
        at: SimTime,
        duration: SimDuration,
        p_enter: f64,
        p_exit: f64,
        loss_bad: f64,
        kind: Option<PacketKind>,
    ) -> Self {
        self.clauses.push(FaultClause::BurstLoss {
            from: at,
            until: at + duration,
            p_enter,
            p_exit,
            loss_bad,
            kind,
        });
        self
    }

    /// Add a delay spike window.
    pub fn delay_spike(mut self, at: SimTime, duration: SimDuration, extra: SimDuration) -> Self {
        self.clauses.push(FaultClause::DelaySpike {
            from: at,
            until: at + duration,
            extra,
        });
        self
    }

    /// Add a duplication window.
    pub fn duplicate_window(
        mut self,
        at: SimTime,
        duration: SimDuration,
        prob: f64,
        kind: Option<PacketKind>,
    ) -> Self {
        self.clauses.push(FaultClause::Duplicate {
            from: at,
            until: at + duration,
            prob,
            kind,
        });
        self
    }

    /// Add a payload bit-corruption window.
    pub fn corrupt_window(
        mut self,
        at: SimTime,
        duration: SimDuration,
        prob: f64,
        kind: Option<PacketKind>,
    ) -> Self {
        self.clauses.push(FaultClause::Corrupt {
            from: at,
            until: at + duration,
            prob,
            kind,
        });
        self
    }

    /// Add a reordering window.
    pub fn reorder_window(
        mut self,
        at: SimTime,
        duration: SimDuration,
        prob: f64,
        max_displacement: u64,
    ) -> Self {
        self.clauses.push(FaultClause::Reorder {
            from: at,
            until: at + duration,
            prob,
            max_displacement,
        });
        self
    }

    /// Add an altitude-gated coverage hole.
    pub fn coverage_hole(mut self, x: f64, y: f64, radius_m: f64, min_alt_m: f64) -> Self {
        self.clauses.push(FaultClause::CoverageHole {
            x,
            y,
            radius_m,
            min_alt_m,
        });
        self
    }

    /// Expand one shared-cell event into per-leg scripts for an N-leg
    /// rig: every leg listed in `affected` gets a clone of `event`, the
    /// rest get `None`. The correlation lives in the timing — affected
    /// legs share the same wall-clock fault window while each still
    /// draws packet-level outcomes from its own RNG stream, the shape
    /// of several modems camping on one congested cell rather than one
    /// wire feeding them all. Out-of-range indices in `affected` are
    /// ignored. The result slots straight into
    /// `Simulation::multipath` / `CellFault::per_leg`.
    pub fn correlated(self, n_legs: usize, affected: &[usize]) -> Vec<Option<FaultScript>> {
        (0..n_legs)
            .map(|li| affected.contains(&li).then(|| self.clone()))
            .collect()
    }

    /// Append a raw clause.
    pub fn with_clause(mut self, clause: FaultClause) -> Self {
        self.clauses.push(clause);
        self
    }

    /// The clauses in declaration order.
    pub fn clauses(&self) -> &[FaultClause] {
        &self.clauses
    }

    /// Whether the script contains no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Whether any reorder window is scripted. Hosts that own the
    /// [`Path`](crate::Path) use this to decide whether an exit-side
    /// [`ReorderStage`](crate::reorder::ReorderStage) must be attached —
    /// the scheduler only *retunes* an existing stage, it cannot create
    /// one.
    pub fn has_reorder(&self) -> bool {
        self.clauses
            .iter()
            .any(|c| matches!(c, FaultClause::Reorder { .. }))
    }

    /// All *timed* full-blackout windows, in declaration order. Recovery
    /// metrics key on these (positional holes depend on the flown
    /// trajectory and are not knowable up front).
    pub fn blackout_windows(&self) -> Vec<(SimTime, SimTime)> {
        self.clauses
            .iter()
            .filter_map(|c| match c {
                FaultClause::Blackout { from, until } => Some((*from, *until)),
                _ => None,
            })
            .collect()
    }
}

/// Per-scheduler drop/delay counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScriptStats {
    /// Packets dropped by blackout clauses.
    pub blackout_dropped: u64,
    /// Packets dropped by kind-filtered blackout clauses.
    pub kind_dropped: u64,
    /// Packets dropped by probabilistic loss clauses.
    pub loss_dropped: u64,
    /// Packets dropped by correlated-loss burst clauses.
    pub burst_dropped: u64,
    /// Packets dropped by coverage holes.
    pub hole_dropped: u64,
    /// Packets duplicated by scripted duplication windows.
    pub duplicated: u64,
    /// Packets bit-corrupted by scripted corruption windows.
    pub corrupted: u64,
    /// Packets admitted.
    pub admitted: u64,
}

impl ScriptStats {
    /// Total packets dropped by any clause.
    pub fn dropped(&self) -> u64 {
        self.blackout_dropped
            + self.kind_dropped
            + self.loss_dropped
            + self.burst_dropped
            + self.hole_dropped
    }
}

/// Executes a [`FaultScript`] against a packet stream.
#[derive(Clone, Debug)]
pub struct OutageScheduler {
    script: FaultScript,
    rng: SimRng,
    position: Option<(f64, f64, f64)>,
    stats: ScriptStats,
    /// Clause-kind presence flags, fixed at construction. The hosting
    /// [`Path`](crate::path::Path) queries blackout/reorder/delay state on
    /// every poll; a script that carries none of a given clause kind can
    /// answer without scanning the clause list.
    has_timed_blackout: bool,
    has_reorder: bool,
    has_delay_spike: bool,
    /// Per-clause Gilbert–Elliott state (`true` = bad), indexed by clause
    /// position; non-burst clauses keep a dormant `false`.
    burst_bad: Vec<bool>,
}

impl OutageScheduler {
    /// Build a scheduler for `script`, drawing loss decisions from `rng`.
    pub fn new(script: FaultScript, rng: SimRng) -> Self {
        let has_timed_blackout = script
            .clauses
            .iter()
            .any(|c| matches!(c, FaultClause::Blackout { .. }));
        let has_reorder = script
            .clauses
            .iter()
            .any(|c| matches!(c, FaultClause::Reorder { .. }));
        let has_delay_spike = script
            .clauses
            .iter()
            .any(|c| matches!(c, FaultClause::DelaySpike { .. }));
        let burst_bad = vec![false; script.clauses.len()];
        OutageScheduler {
            script,
            rng,
            position: None,
            stats: ScriptStats::default(),
            has_timed_blackout,
            has_reorder,
            has_delay_spike,
            burst_bad,
        }
    }

    /// Report the current UAV position (drives coverage-hole clauses).
    pub fn set_position(&mut self, x: f64, y: f64, z: f64) {
        self.position = Some((x, y, z));
    }

    /// Screen a packet at `now`. Returns `true` to admit, `false` to drop.
    ///
    /// Clauses are evaluated in declaration order and the RNG is consumed
    /// only by active, kind-matching loss clauses, so the decision sequence
    /// is a pure function of `(script, seed, packet sequence, positions)`.
    pub fn admit(&mut self, now: SimTime, packet: &Packet) -> bool {
        for (ci, clause) in self.script.clauses.iter().enumerate() {
            if !clause.active(now, self.position) {
                continue;
            }
            match clause {
                FaultClause::Blackout { .. } => {
                    self.stats.blackout_dropped += 1;
                    return false;
                }
                FaultClause::KindBlackout { kind, .. } => {
                    if packet.kind == *kind {
                        self.stats.kind_dropped += 1;
                        return false;
                    }
                }
                FaultClause::Loss { prob, kind, .. } => {
                    if kind.is_none_or(|k| packet.kind == k) && self.rng.chance(*prob) {
                        self.stats.loss_dropped += 1;
                        return false;
                    }
                }
                FaultClause::BurstLoss {
                    p_enter,
                    p_exit,
                    loss_bad,
                    kind,
                    ..
                } => {
                    if kind.is_none_or(|k| packet.kind == k) {
                        // Advance the chain once per screened packet, then
                        // draw the loss — two RNG draws in the bad state,
                        // one in good, always in this order (stability
                        // contract, same as the Loss clause above).
                        let bad = &mut self.burst_bad[ci];
                        if *bad {
                            if self.rng.chance(*p_exit) {
                                *bad = false;
                            }
                        } else if self.rng.chance(*p_enter) {
                            *bad = true;
                        }
                        if *bad && self.rng.chance(*loss_bad) {
                            self.stats.burst_dropped += 1;
                            return false;
                        }
                    }
                }
                // Non-screening clauses: handled by `impair` (which runs
                // after admission) and `reorder_params`, never here — the
                // admit-time RNG consumption order is a stability contract.
                FaultClause::DelaySpike { .. }
                | FaultClause::Duplicate { .. }
                | FaultClause::Corrupt { .. }
                | FaultClause::Reorder { .. } => {}
                FaultClause::CoverageHole { .. } => {
                    self.stats.hole_dropped += 1;
                    return false;
                }
            }
        }
        self.stats.admitted += 1;
        true
    }

    /// Apply scripted duplication/corruption windows to an admitted
    /// packet, in place. Returns `true` if the packet should additionally
    /// be delivered twice.
    ///
    /// Same determinism contract as [`admit`](Self::admit): clauses are
    /// evaluated in declaration order and the RNG is consumed only by
    /// active, kind-matching duplicate/corrupt clauses.
    pub fn impair(&mut self, now: SimTime, packet: &mut Packet) -> bool {
        let mut duplicate = false;
        for clause in self.script.clauses.iter() {
            if !clause.active(now, self.position) {
                continue;
            }
            match clause {
                FaultClause::Duplicate { prob, kind, .. }
                    if kind.is_none_or(|k| packet.kind == k) && self.rng.chance(*prob) =>
                {
                    duplicate = true;
                    self.stats.duplicated += 1;
                }
                FaultClause::Corrupt { prob, kind, .. }
                    if kind.is_none_or(|k| packet.kind == k) && self.rng.chance(*prob) =>
                {
                    crate::fault::corrupt_payload(packet, &mut self.rng);
                    self.stats.corrupted += 1;
                }
                _ => {}
            }
        }
        duplicate
    }

    /// Hold probability and displacement bound of the active reorder
    /// window at `now` (`None` when no reorder window is active; the
    /// first active clause in declaration order wins).
    pub fn reorder_params(&self, now: SimTime) -> Option<(f64, u64)> {
        if !self.has_reorder {
            return None;
        }
        self.script.clauses.iter().find_map(|c| match c {
            FaultClause::Reorder {
                from,
                until,
                prob,
                max_displacement,
            } if *from <= now && now < *until => Some((*prob, *max_displacement)),
            _ => None,
        })
    }

    /// End of the latest currently-active *timed* blackout window, if any.
    pub fn blackout_until(&self, now: SimTime) -> Option<SimTime> {
        if !self.has_timed_blackout {
            return None;
        }
        self.script
            .clauses
            .iter()
            .filter_map(|c| match c {
                FaultClause::Blackout { from, until } if *from <= now && now < *until => {
                    Some(*until)
                }
                _ => None,
            })
            .max()
    }

    /// Start of the next *timed* blackout window strictly after `now`, if
    /// any. Hosts driving the path on an adaptive clock use this as a wake
    /// edge: the serialiser stall must be applied at the same instant a
    /// per-tick driver would apply it (the pause arithmetic depends on the
    /// application time when a packet is in service). Positional coverage
    /// holes need no edge — they only screen packets at enqueue time and
    /// positions change at radio ticks, which are always visited.
    pub fn next_blackout_start(&self, now: SimTime) -> Option<SimTime> {
        if !self.has_timed_blackout {
            return None;
        }
        self.script
            .clauses
            .iter()
            .filter_map(|c| match c {
                FaultClause::Blackout { from, .. } if *from > now => Some(*from),
                _ => None,
            })
            .min()
    }

    /// Total extra one-way delay from active delay-spike clauses at `now`.
    pub fn extra_delay(&self, now: SimTime) -> SimDuration {
        if !self.has_delay_spike {
            return SimDuration::ZERO;
        }
        let mut extra = SimDuration::ZERO;
        for c in self.script.clauses.iter() {
            if let FaultClause::DelaySpike {
                from,
                until,
                extra: e,
            } = c
            {
                if *from <= now && now < *until {
                    extra += *e;
                }
            }
        }
        extra
    }

    /// Drop/admit counters.
    pub fn stats(&self) -> ScriptStats {
        self.stats
    }

    /// The script being executed.
    pub fn script(&self) -> &FaultScript {
        &self.script
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use rpav_sim::RngSet;

    fn pkt(seq: u64, kind: PacketKind, now: SimTime) -> Packet {
        Packet::new(seq, Bytes::from(vec![0u8; 100]), kind, now)
    }

    fn sched(script: FaultScript, seed: u64) -> OutageScheduler {
        OutageScheduler::new(script, RngSet::new(seed).stream("script"))
    }

    #[test]
    fn blackout_drops_everything_inside_window_only() {
        let s = FaultScript::new().blackout(SimTime::from_secs(2), SimDuration::from_secs(1));
        let mut sch = sched(s, 1);
        let before = SimTime::from_millis(1_999);
        let inside = SimTime::from_millis(2_500);
        let after = SimTime::from_secs(3);
        assert!(sch.admit(before, &pkt(0, PacketKind::Media, before)));
        assert!(!sch.admit(inside, &pkt(1, PacketKind::Media, inside)));
        assert!(!sch.admit(inside, &pkt(2, PacketKind::Feedback, inside)));
        assert!(sch.admit(after, &pkt(3, PacketKind::Media, after)));
        assert_eq!(sch.blackout_until(inside), Some(after));
        assert_eq!(sch.blackout_until(after), None);
        assert_eq!(sch.stats().blackout_dropped, 2);
        assert_eq!(sch.stats().admitted, 2);
    }

    #[test]
    fn correlated_expands_one_event_to_affected_legs_only() {
        let event = FaultScript::new().blackout(SimTime::from_secs(2), SimDuration::from_secs(1));
        let per_leg = event.clone().correlated(4, &[0, 2, 9]);
        assert_eq!(per_leg.len(), 4);
        assert!(per_leg[1].is_none());
        assert!(per_leg[3].is_none());
        for li in [0usize, 2] {
            let s = per_leg[li].as_ref().expect("affected leg gets the event");
            assert_eq!(s.blackout_windows(), event.blackout_windows());
        }
        // Same window, independent RNG streams: a scheduler per leg
        // agrees on the blackout timing even with different seeds.
        let a = sched(per_leg[0].clone().unwrap(), 7);
        let b = sched(per_leg[2].clone().unwrap(), 99);
        let inside = SimTime::from_millis(2_500);
        let end = SimTime::from_secs(3);
        assert_eq!(a.blackout_until(inside), Some(end));
        assert_eq!(b.blackout_until(inside), Some(end));
    }

    #[test]
    fn feedback_blackout_spares_media() {
        let s =
            FaultScript::new().feedback_blackout(SimTime::from_secs(1), SimDuration::from_secs(5));
        let mut sch = sched(s, 2);
        let t = SimTime::from_secs(3);
        assert!(sch.admit(t, &pkt(0, PacketKind::Media, t)));
        assert!(!sch.admit(t, &pkt(1, PacketKind::Feedback, t)));
        assert!(sch.admit(t, &pkt(2, PacketKind::Probe, t)));
        // A feedback-only outage is not a full blackout.
        assert_eq!(sch.blackout_until(t), None);
    }

    #[test]
    fn loss_window_drops_roughly_at_rate() {
        let s =
            FaultScript::new().loss_window(SimTime::ZERO, SimDuration::from_secs(1_000), 0.3, None);
        let mut sch = sched(s, 3);
        let mut dropped = 0;
        for i in 0..10_000u64 {
            let t = SimTime::from_millis(i);
            if !sch.admit(t, &pkt(i, PacketKind::Media, t)) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "loss rate {rate}");
    }

    #[test]
    fn burst_loss_is_correlated_not_independent() {
        // Sticky chain: rare entry, slow exit, heavy loss while bad. The
        // drops must arrive in runs — count adjacent-drop pairs and
        // compare against the independence expectation for the same
        // marginal rate.
        let s = FaultScript::new().burst_loss_window(
            SimTime::ZERO,
            SimDuration::from_secs(10_000),
            0.02,
            0.10,
            0.9,
            None,
        );
        let mut sch = sched(s, 11);
        let n = 50_000u64;
        let mut drops = Vec::with_capacity(n as usize);
        for i in 0..n {
            let t = SimTime::from_millis(i);
            drops.push(!sch.admit(t, &pkt(i, PacketKind::Media, t)));
        }
        let rate = drops.iter().filter(|d| **d).count() as f64 / n as f64;
        assert!(rate > 0.05 && rate < 0.4, "marginal rate {rate}");
        let adjacent = drops.windows(2).filter(|w| w[0] && w[1]).count() as f64 / (n - 1) as f64;
        let independent = rate * rate;
        assert!(
            adjacent > 3.0 * independent,
            "adjacent-drop rate {adjacent} vs independent {independent}: loss is not bursty"
        );
        assert_eq!(
            sch.stats().burst_dropped,
            drops.iter().filter(|d| **d).count() as u64
        );
        assert_eq!(sch.stats().dropped(), sch.stats().burst_dropped);
    }

    #[test]
    fn burst_loss_respects_kind_filter_and_window() {
        let s = FaultScript::new().burst_loss_window(
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            1.0,
            0.0,
            1.0,
            Some(PacketKind::Media),
        );
        let mut sch = sched(s, 12);
        let before = SimTime::from_millis(500);
        let inside = SimTime::from_millis(1_500);
        let after = SimTime::from_millis(2_500);
        assert!(sch.admit(before, &pkt(0, PacketKind::Media, before)));
        // p_enter = 1, loss_bad = 1: every in-window media packet dies...
        assert!(!sch.admit(inside, &pkt(1, PacketKind::Media, inside)));
        assert!(!sch.admit(inside, &pkt(2, PacketKind::Media, inside)));
        // ...but feedback never consults the chain.
        assert!(sch.admit(inside, &pkt(3, PacketKind::Feedback, inside)));
        assert!(sch.admit(after, &pkt(4, PacketKind::Media, after)));
        assert_eq!(sch.stats().burst_dropped, 2);
    }

    #[test]
    fn burst_loss_identically_seeded_schedulers_agree() {
        let script = || {
            FaultScript::new()
                .burst_loss_window(
                    SimTime::ZERO,
                    SimDuration::from_secs(100),
                    0.05,
                    0.3,
                    0.8,
                    None,
                )
                .loss_window(SimTime::ZERO, SimDuration::from_secs(100), 0.05, None)
        };
        let mut a = sched(script(), 77);
        let mut b = sched(script(), 77);
        for i in 0..5_000u64 {
            let t = SimTime::from_millis(i * 2);
            let p = pkt(i, PacketKind::Media, t);
            assert_eq!(a.admit(t, &p), b.admit(t, &p), "diverged at packet {i}");
        }
        assert_eq!(a.stats().burst_dropped, b.stats().burst_dropped);
        assert_eq!(a.stats().dropped(), b.stats().dropped());
    }

    #[test]
    fn delay_spike_adds_extra_only_inside_window() {
        let s = FaultScript::new().delay_spike(
            SimTime::from_secs(5),
            SimDuration::from_secs(2),
            SimDuration::from_millis(400),
        );
        let sch = sched(s, 4);
        assert_eq!(sch.extra_delay(SimTime::from_secs(4)), SimDuration::ZERO);
        assert_eq!(
            sch.extra_delay(SimTime::from_secs(6)),
            SimDuration::from_millis(400)
        );
        assert_eq!(sch.extra_delay(SimTime::from_secs(8)), SimDuration::ZERO);
    }

    #[test]
    fn coverage_hole_keys_on_position_and_altitude() {
        let s = FaultScript::new().coverage_hole(0.0, 0.0, 50.0, 80.0);
        let mut sch = sched(s, 5);
        let t = SimTime::from_secs(1);
        // No position reported yet: inactive.
        assert!(sch.admit(t, &pkt(0, PacketKind::Media, t)));
        // Inside radius but below the altitude gate: inactive.
        sch.set_position(10.0, 10.0, 30.0);
        assert!(sch.admit(t, &pkt(1, PacketKind::Media, t)));
        // Inside radius at altitude: hole bites.
        sch.set_position(10.0, 10.0, 100.0);
        assert!(!sch.admit(t, &pkt(2, PacketKind::Media, t)));
        // It is a full blackout: every kind is dropped.
        assert!(!sch.admit(t, &pkt(9, PacketKind::Probe, t)));
        assert_eq!(sch.stats().hole_dropped, 2);
        // Flying out of the hole restores the link.
        sch.set_position(200.0, 0.0, 100.0);
        assert!(sch.admit(t, &pkt(3, PacketKind::Media, t)));
    }

    #[test]
    fn windows_are_reported() {
        let s = FaultScript::new()
            .blackout(SimTime::from_secs(1), SimDuration::from_secs(2))
            .feedback_blackout(SimTime::from_secs(10), SimDuration::from_secs(1))
            .blackout(SimTime::from_secs(20), SimDuration::from_secs(5));
        assert_eq!(
            s.blackout_windows(),
            vec![
                (SimTime::from_secs(1), SimTime::from_secs(3)),
                (SimTime::from_secs(20), SimTime::from_secs(25)),
            ]
        );
    }

    #[test]
    fn duplicate_window_fires_inside_only() {
        let s = FaultScript::new().duplicate_window(
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
            1.0,
            Some(PacketKind::Media),
        );
        let mut sch = sched(s, 6);
        let outside = SimTime::from_millis(500);
        let inside = SimTime::from_millis(1_500);
        let mut p = pkt(0, PacketKind::Media, outside);
        assert!(!sch.impair(outside, &mut p));
        let mut p = pkt(1, PacketKind::Media, inside);
        assert!(sch.impair(inside, &mut p));
        // Kind filter: feedback is spared.
        let mut p = pkt(2, PacketKind::Feedback, inside);
        assert!(!sch.impair(inside, &mut p));
        assert_eq!(sch.stats().duplicated, 1);
    }

    #[test]
    fn corrupt_window_flips_payload_bits() {
        let s =
            FaultScript::new().corrupt_window(SimTime::ZERO, SimDuration::from_secs(10), 1.0, None);
        let mut sch = sched(s, 7);
        let t = SimTime::from_secs(1);
        let mut p = pkt(0, PacketKind::Media, t);
        let original = p.payload.clone();
        sch.impair(t, &mut p);
        assert!(p.corrupted);
        assert_ne!(p.payload, original, "corruption must damage real bytes");
        assert_eq!(p.payload.len(), original.len());
        assert_eq!(sch.stats().corrupted, 1);
    }

    #[test]
    fn reorder_params_reported_inside_window() {
        let s = FaultScript::new().reorder_window(
            SimTime::from_secs(2),
            SimDuration::from_secs(3),
            0.25,
            6,
        );
        let sch = sched(s, 8);
        assert_eq!(sch.reorder_params(SimTime::from_secs(1)), None);
        assert_eq!(sch.reorder_params(SimTime::from_secs(3)), Some((0.25, 6)));
        assert_eq!(sch.reorder_params(SimTime::from_secs(5)), None);
    }

    #[test]
    fn impair_is_deterministic_across_identically_seeded_schedulers() {
        let script = || {
            FaultScript::new()
                .duplicate_window(SimTime::ZERO, SimDuration::from_secs(100), 0.3, None)
                .corrupt_window(SimTime::ZERO, SimDuration::from_secs(100), 0.3, None)
        };
        let mut a = sched(script(), 99);
        let mut b = sched(script(), 99);
        for i in 0..2_000u64 {
            let t = SimTime::from_millis(i * 7);
            let mut pa = pkt(i, PacketKind::Media, t);
            let mut pb = pkt(i, PacketKind::Media, t);
            assert_eq!(a.impair(t, &mut pa), b.impair(t, &mut pb));
            assert_eq!(pa.corrupted, pb.corrupted);
            assert_eq!(pa.payload, pb.payload, "bit-flips diverged at {i}");
        }
        assert_eq!(a.stats().duplicated, b.stats().duplicated);
        assert_eq!(a.stats().corrupted, b.stats().corrupted);
    }

    #[test]
    fn identically_seeded_schedulers_agree_exactly() {
        let script = || {
            FaultScript::new()
                .blackout(SimTime::from_secs(2), SimDuration::from_millis(500))
                .loss_window(SimTime::ZERO, SimDuration::from_secs(100), 0.25, None)
                .delay_spike(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(1),
                    SimDuration::from_millis(100),
                )
        };
        let mut a = sched(script(), 42);
        let mut b = sched(script(), 42);
        for i in 0..5_000u64 {
            let t = SimTime::from_millis(i * 3);
            let p = pkt(i, PacketKind::Media, t);
            assert_eq!(a.admit(t, &p), b.admit(t, &p), "diverged at packet {i}");
        }
        assert_eq!(a.stats().dropped(), b.stats().dropped());
    }

    proptest! {
        /// Determinism across the clause space: two schedulers built from
        /// the same script and seed agree decision-for-decision on an
        /// arbitrary mixed media/feedback packet stream.
        #[test]
        fn prop_identically_seeded_executions_are_bit_identical(
            bo_at in 0u64..60_000,
            bo_len in 1u64..10_000,
            loss_at in 0u64..60_000,
            loss_len in 1u64..10_000,
            loss_prob in 0.0f64..1.0,
            spike_ms in 1u64..500,
            seed in any::<u64>(),
        ) {
            let script = || {
                FaultScript::new()
                    .blackout(
                        SimTime::from_millis(bo_at),
                        SimDuration::from_millis(bo_len),
                    )
                    .feedback_blackout(
                        SimTime::from_millis(bo_at / 2),
                        SimDuration::from_millis(bo_len / 2 + 1),
                    )
                    .loss_window(
                        SimTime::from_millis(loss_at),
                        SimDuration::from_millis(loss_len),
                        loss_prob,
                        None,
                    )
                    .delay_spike(
                        SimTime::from_millis(loss_at),
                        SimDuration::from_millis(loss_len),
                        SimDuration::from_millis(spike_ms),
                    )
            };
            let mut a = sched(script(), seed);
            let mut b = sched(script(), seed);
            for i in 0..3_000u64 {
                let t = SimTime::from_millis(i * 25);
                let kind = if i % 3 == 0 {
                    PacketKind::Feedback
                } else {
                    PacketKind::Media
                };
                let p = pkt(i, kind, t);
                prop_assert_eq!(a.admit(t, &p), b.admit(t, &p));
                prop_assert_eq!(a.extra_delay(t), b.extra_delay(t));
                prop_assert_eq!(a.blackout_until(t), b.blackout_until(t));
            }
            prop_assert_eq!(a.stats().dropped(), b.stats().dropped());
        }
    }
}
