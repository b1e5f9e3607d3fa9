//! A multi-stage unidirectional path.
//!
//! [`Path`] composes a baseline loss process, a bottleneck link and a delay
//! pipe into the canonical "access link + WAN" shape used for both
//! directions of the measurement pipeline:
//!
//! ```text
//! sender ──► GilbertElliott ──► BottleneckLink (radio) ──► DelayPipe (WAN) ──► receiver
//! ```
//!
//! The owner drives the composition: `enqueue` at the entry, then `poll` in
//! a loop at each simulation step; internally packets cascade between stages
//! at their due times.
//!
//! An optional exit-side [`ReorderStage`] (attached with
//! [`Path::set_reorder`]) sits after the WAN pipe and models routes that
//! deliver out of order; scripted reorder windows retune it on the fly.

use std::collections::VecDeque;

use rpav_sim::{SimDuration, SimRng, SimTime};

use crate::fault::GilbertElliott;
use crate::link::{BottleneckLink, DelayPipe};
use crate::packet::Packet;
use crate::queue::QueueStats;
use crate::reorder::{ReorderConfig, ReorderStage, ReorderStats};
use crate::script::{FaultScript, OutageScheduler, ScriptStats};

/// Baseline loss + bottleneck + WAN pipe (+ optional reorder stage), in
/// series.
#[derive(Debug)]
pub struct Path {
    loss: GilbertElliott,
    loss_rng: SimRng,
    /// Packets the baseline loss process took.
    loss_dropped: u64,
    pub(crate) bottleneck: BottleneckLink,
    wan: DelayPipe,
    script: Option<OutageScheduler>,
    /// Latest blackout end already applied as a bottleneck pause (guards
    /// against re-extending the pause on every poll inside one window).
    script_paused_until: SimTime,
    /// Exit-side reordering, if attached.
    reorder: Option<ReorderStage>,
    /// Packets past every stage, awaiting hand-off to the caller (the
    /// reorder stage can release several per poll).
    ready: VecDeque<Packet>,
}

impl Path {
    /// Assemble a path.
    ///
    /// * `loss`, `loss_rng` — baseline loss applied before the bottleneck.
    /// * `bottleneck_rate_bps`, `bottleneck_delay`, `queue_bytes` — the
    ///   rate-limited access stage.
    /// * `wan_delay`, `wan_jitter` — the wired leg.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        loss: GilbertElliott,
        loss_rng: SimRng,
        bottleneck_rate_bps: f64,
        bottleneck_delay: SimDuration,
        queue_bytes: usize,
        wan_delay: SimDuration,
        wan_jitter: SimDuration,
        wan_rng: SimRng,
    ) -> Self {
        Path {
            loss,
            loss_rng,
            loss_dropped: 0,
            bottleneck: BottleneckLink::new(
                bottleneck_rate_bps,
                bottleneck_delay,
                queue_bytes,
                usize::MAX,
            ),
            wan: DelayPipe::new(wan_delay, wan_jitter, wan_rng),
            script: None,
            script_paused_until: SimTime::ZERO,
            reorder: None,
            ready: VecDeque::new(),
        }
    }

    /// Attach a scripted fault campaign to this path. Replaces any script
    /// attached earlier; counters restart from zero.
    pub fn set_script(&mut self, script: FaultScript, rng: SimRng) {
        self.script = Some(OutageScheduler::new(script, rng));
    }

    /// Attach an exit-side reorder stage. With `config.chance == 0` the
    /// stage is transparent (and drawless) until a scripted reorder window
    /// activates it.
    pub fn set_reorder(&mut self, config: ReorderConfig, rng: SimRng) {
        self.reorder = Some(ReorderStage::new(config, rng));
    }

    /// Counters of the attached reorder stage, if any.
    pub fn reorder_stats(&self) -> Option<ReorderStats> {
        self.reorder.as_ref().map(|r| r.stats())
    }

    /// Report the UAV position to positional script clauses (no-op without
    /// a script).
    pub fn set_position(&mut self, x: f64, y: f64, z: f64) {
        if let Some(s) = self.script.as_mut() {
            s.set_position(x, y, z);
        }
    }

    /// Drop/admit counters of the attached script, if any.
    pub fn script_stats(&self) -> Option<ScriptStats> {
        self.script.as_ref().map(|s| s.stats())
    }

    /// Stall the serialiser while a timed blackout is in force (applied at
    /// most once per window, so queued packets resume exactly at its end).
    fn apply_script_pause(&mut self, now: SimTime) {
        if let Some(until) = self.script.as_ref().and_then(|s| s.blackout_until(now)) {
            if until > self.script_paused_until {
                self.script_paused_until = until;
                self.bottleneck.pause_until(now, until);
            }
        }
    }

    /// Offer a packet at the path entry. Returns `false` if it was dropped
    /// immediately (script, baseline loss or full queue).
    pub fn enqueue(&mut self, now: SimTime, mut packet: Packet) -> bool {
        self.apply_script_pause(now);
        let mut scripted_copy = None;
        if let Some(s) = self.script.as_mut() {
            if !s.admit(now, &packet) {
                return false;
            }
            // Scripted duplication/corruption windows bite after
            // admission; a duplicate faces the baseline loss process as
            // its own packet.
            if s.impair(now, &mut packet) {
                scripted_copy = Some(packet.clone());
            }
        }
        let delivered = self.offer_to_link(now, packet);
        match scripted_copy {
            Some(copy) => self.offer_to_link(now, copy) || delivered,
            None => delivered,
        }
    }

    fn offer_to_link(&mut self, now: SimTime, packet: Packet) -> bool {
        if self.loss.step(&mut self.loss_rng) {
            self.loss_dropped += 1;
            return false;
        }
        self.bottleneck.enqueue(now, packet)
    }

    /// Drain one packet that has fully traversed the path, if due.
    pub fn poll(&mut self, now: SimTime) -> Option<Packet> {
        self.apply_script_pause(now);
        // Idle fast path: with nothing buffered and no stage due, the full
        // cascade below is a guaranteed no-op — the bottleneck is advanced
        // eagerly on enqueue/re-rate, so "nothing due" implies its lazy
        // `advance` would not change state either — and the reorder retune
        // can wait for a poll that actually offers packets (the window only
        // gates `offer`, never the time-based flush).
        if self.ready.is_empty() && self.next_wake().is_none_or(|w| w > now) {
            return None;
        }
        // Scripted reorder windows retune the exit stage.
        if let (Some(r), Some(s)) = (self.reorder.as_mut(), self.script.as_ref()) {
            match s.reorder_params(now) {
                Some((prob, disp)) => r.set_window(prob, disp),
                None => r.clear_window(),
            }
        }
        // Cascade: bottleneck output feeds the WAN pipe at the instant each
        // packet actually exited the bottleneck, not at the poll time.
        while let Some((exit, p)) = self.bottleneck.poll_with_time(now) {
            // Scripted delay spikes bite between radio exit and the WAN.
            let exit = match self.script.as_ref() {
                Some(s) => exit + s.extra_delay(exit),
                None => exit,
            };
            self.wan.enqueue(exit, p);
        }
        loop {
            if let Some(p) = self.ready.pop_front() {
                return Some(p);
            }
            let Some(p) = self.wan.poll(now) else { break };
            match self.reorder.as_mut() {
                Some(r) => self.ready.extend(r.offer(now, p)),
                None => return Some(p),
            }
        }
        // Quiet wire: time-based release of held packets.
        if let Some(r) = self.reorder.as_mut() {
            self.ready.extend(r.flush_due(now));
        }
        self.ready.pop_front()
    }

    /// Drain every packet deliverable at `now` into `out`, in the exact
    /// order repeated [`poll`](Self::poll) calls would return them — but
    /// with one script-pause application, one reorder retune and one
    /// bottleneck→WAN cascade for the whole batch instead of one per
    /// delivered packet. The hot receive loop drains a few packets per
    /// visited tick, so the per-call overhead is worth amortising.
    pub fn drain_due(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        self.apply_script_pause(now);
        if self.ready.is_empty() && self.next_wake().is_none_or(|w| w > now) {
            return;
        }
        if let (Some(r), Some(s)) = (self.reorder.as_mut(), self.script.as_ref()) {
            match s.reorder_params(now) {
                Some((prob, disp)) => r.set_window(prob, disp),
                None => r.clear_window(),
            }
        }
        while let Some((exit, p)) = self.bottleneck.poll_with_time(now) {
            let exit = match self.script.as_ref() {
                Some(s) => exit + s.extra_delay(exit),
                None => exit,
            };
            self.wan.enqueue(exit, p);
        }
        out.extend(self.ready.drain(..));
        while let Some(p) = self.wan.poll(now) {
            match self.reorder.as_mut() {
                Some(r) => out.extend(r.offer(now, p)),
                None => out.push(p),
            }
        }
        if let Some(r) = self.reorder.as_mut() {
            out.extend(r.flush_due(now));
        }
    }

    /// The earliest instant `poll` could make progress.
    pub fn next_wake(&self) -> Option<SimTime> {
        let wake = SimTime::earliest(self.bottleneck.next_wake(), self.wan.next_wake());
        match &self.reorder {
            Some(r) => SimTime::earliest(wake, r.next_release()),
            None => wake,
        }
    }

    /// Like [`next_wake`](Self::next_wake), additionally folding in the
    /// next scripted timed-blackout start after `now`: an adaptive driver
    /// must visit that instant so the serialiser stall is applied exactly
    /// when a per-tick driver would apply it.
    pub fn next_wake_scripted(&self, now: SimTime) -> Option<SimTime> {
        match &self.script {
            Some(s) => SimTime::earliest(self.next_wake(), s.next_blackout_start(now)),
            None => self.next_wake(),
        }
    }

    /// Re-rate the bottleneck (radio capacity changed).
    pub fn set_rate_bps(&mut self, now: SimTime, rate_bps: f64) {
        self.bottleneck.set_rate_bps(now, rate_bps);
    }

    /// Stall the bottleneck serialiser (handover execution).
    pub fn pause_until(&mut self, now: SimTime, until: SimTime) {
        self.bottleneck.pause_until(now, until);
    }

    /// Set the extra per-packet air-interface delay (retransmissions).
    pub fn set_extra_delay(&mut self, extra: SimDuration) {
        self.bottleneck.set_extra_prop(extra);
    }

    /// Bottleneck queue depth in bytes.
    pub fn queued_bytes(&self) -> usize {
        self.bottleneck.queued_bytes()
    }

    /// Bottleneck queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.bottleneck.queue_stats()
    }

    /// Packets dropped by the baseline loss process.
    pub fn baseline_drops(&self) -> u64 {
        self.loss_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind, IP_UDP_OVERHEAD};
    use bytes::Bytes;
    use rpav_sim::RngSet;

    fn pkt(seq: u64, now: SimTime) -> Packet {
        Packet::new(
            seq,
            Bytes::from(vec![0u8; 1000 - IP_UDP_OVERHEAD]),
            PacketKind::Media,
            now,
        )
    }

    fn quiet_path() -> Path {
        let rngs = RngSet::new(11);
        Path::new(
            GilbertElliott::off(),
            rngs.stream("fault"),
            8_000_000.0,
            SimDuration::from_millis(5),
            usize::MAX,
            SimDuration::from_millis(12),
            SimDuration::ZERO,
            rngs.stream("wan"),
        )
    }

    #[test]
    fn end_to_end_delay_is_sum_of_stages() {
        let mut path = quiet_path();
        let t0 = SimTime::from_secs(1);
        path.enqueue(t0, pkt(0, t0));
        // 1 ms serialisation + 5 ms radio prop + 12 ms WAN = 18 ms.
        let expected = t0 + SimDuration::from_millis(18);
        assert!(path.poll(expected - SimDuration::from_micros(1)).is_none());
        assert_eq!(path.poll(expected).unwrap().seq, 0);
    }

    #[test]
    fn all_packets_eventually_arrive_in_order() {
        let mut path = quiet_path();
        let t0 = SimTime::ZERO;
        for i in 0..100 {
            path.enqueue(t0 + SimDuration::from_millis(i), pkt(i, t0));
        }
        let mut seen = 0u64;
        let mut t = t0;
        let horizon = SimTime::from_secs(10);
        while t < horizon && seen < 100 {
            while let Some(p) = path.poll(t) {
                assert_eq!(p.seq, seen);
                seen += 1;
            }
            t = path
                .next_wake()
                .unwrap_or(horizon)
                .max(t + SimDuration::from_micros(1));
        }
        assert_eq!(seen, 100);
    }

    #[test]
    fn full_drop_path_delivers_nothing() {
        let rngs = RngSet::new(13);
        let mut path = Path::new(
            GilbertElliott::new(0.0, 1.0, 1.0, 0.0),
            rngs.stream("fault"),
            8_000_000.0,
            SimDuration::ZERO,
            usize::MAX,
            SimDuration::ZERO,
            SimDuration::ZERO,
            rngs.stream("wan"),
        );
        let t0 = SimTime::ZERO;
        for i in 0..10 {
            assert!(!path.enqueue(t0, pkt(i, t0)));
        }
        assert!(path.poll(SimTime::from_secs(60)).is_none());
        assert_eq!(path.baseline_drops(), 10);
    }

    #[test]
    fn scripted_blackout_drops_new_and_stalls_queued() {
        use crate::script::FaultScript;
        let mut path = quiet_path();
        let rngs = RngSet::new(21);
        let t0 = SimTime::from_secs(1);
        let bo_start = t0 + SimDuration::from_millis(10);
        path.set_script(
            FaultScript::new().blackout(bo_start, SimDuration::from_secs(2)),
            rngs.stream("script"),
        );
        // Before the window: passes.
        assert!(path.enqueue(t0, pkt(0, t0)));
        // Queued at entry just before the blackout: survives but is stalled.
        assert!(path.enqueue(bo_start - SimDuration::from_micros(1), pkt(1, bo_start)));
        // Inside the window: dropped at entry.
        let inside = bo_start + SimDuration::from_secs(1);
        assert!(!path.enqueue(inside, pkt(2, inside)));
        // First packet was in service before the pause; the stalled one only
        // arrives after the window plus the remaining pipeline.
        let mut got = Vec::new();
        let mut t = t0;
        let horizon = t0 + SimDuration::from_secs(6);
        while t < horizon {
            while let Some(p) = path.poll(t) {
                got.push((p.seq, t));
            }
            t += SimDuration::from_millis(1);
        }
        assert_eq!(got.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![0, 1]);
        let bo_end = bo_start + SimDuration::from_secs(2);
        assert!(got[1].1 >= bo_end, "stalled packet released early");
        assert_eq!(path.script_stats().unwrap().blackout_dropped, 1);
    }

    #[test]
    fn reorder_stage_inverts_order_but_conserves_packets() {
        use crate::reorder::ReorderConfig;
        let mut path = quiet_path();
        path.set_reorder(
            ReorderConfig {
                chance: 0.3,
                max_displacement: 4,
                max_hold: SimDuration::from_millis(50),
            },
            RngSet::new(31).stream("reorder"),
        );
        let t0 = SimTime::ZERO;
        for i in 0..300 {
            path.enqueue(t0 + SimDuration::from_millis(i), pkt(i, t0));
        }
        let mut got = Vec::new();
        let mut t = t0;
        let horizon = SimTime::from_secs(10);
        while t < horizon {
            while let Some(p) = path.poll(t) {
                got.push(p.seq);
            }
            t = path
                .next_wake()
                .unwrap_or(horizon)
                .max(t + SimDuration::from_micros(1));
        }
        assert_eq!(got.len(), 300, "reordering must not lose packets");
        let inversions = got.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(inversions > 0, "30% hold chance must reorder something");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn scripted_duplicate_and_corrupt_windows_apply() {
        use crate::script::FaultScript;
        let mut path = quiet_path();
        let rngs = RngSet::new(41);
        let t0 = SimTime::ZERO;
        path.set_script(
            FaultScript::new()
                .duplicate_window(t0, SimDuration::from_secs(1), 1.0, None)
                .corrupt_window(SimTime::from_secs(2), SimDuration::from_secs(1), 1.0, None),
            rngs.stream("script"),
        );
        // Inside the duplication window: two copies arrive.
        path.enqueue(t0, pkt(0, t0));
        // Inside the corruption window: one damaged copy arrives.
        let t_corrupt = SimTime::from_millis(2_500);
        path.enqueue(t_corrupt, pkt(1, t_corrupt));
        let mut got = Vec::new();
        let mut t = t0;
        while t < SimTime::from_secs(5) {
            while let Some(p) = path.poll(t) {
                got.push(p);
            }
            t += SimDuration::from_millis(1);
        }
        let zeros = got.iter().filter(|p| p.seq == 0).count();
        assert_eq!(zeros, 2, "duplication window must emit two copies");
        let ones: Vec<_> = got.iter().filter(|p| p.seq == 1).collect();
        assert_eq!(ones.len(), 1);
        assert!(ones[0].corrupted, "corruption window must damage payload");
        let stats = path.script_stats().unwrap();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.corrupted, 1);
    }

    #[test]
    fn pause_propagates_to_bottleneck() {
        let mut path = quiet_path();
        let t0 = SimTime::from_secs(1);
        path.pause_until(t0, t0 + SimDuration::from_secs(1));
        path.enqueue(t0, pkt(0, t0));
        // Nothing before the pause lifts + 18 ms of pipeline.
        assert!(path.poll(t0 + SimDuration::from_millis(1000)).is_none());
        assert!(path.poll(t0 + SimDuration::from_millis(1018)).is_some());
    }
}
