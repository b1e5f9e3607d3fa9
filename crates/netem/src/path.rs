//! A multi-stage unidirectional path.
//!
//! [`Path`] is the canonical "access link + WAN" shape used for both
//! directions of the measurement pipeline:
//!
//! ```text
//! sender ──► GilbertElliott ──► eNodeB queue ──► radio serialiser (rate, prop)
//!        ──► WAN leg (delay ± jitter) ──► receiver
//! ```
//!
//! Every stage after the loss process is FIFO, so one deque holds every
//! admitted packet in entry order and the stages are counts over it:
//!
//! ```text
//! front ─► [ WAN outbox | radio outbox | serialiser (0 or 1) | drop-tail queue ] ◄─ back
//! ```
//!
//! A packet is written into the deque once at entry and read once at
//! delivery; moving it to the next stage rewrites only the instant next to
//! it (serialiser finish → radio exit → WAN delivery) and shifts a
//! boundary. The owner drives the path: `enqueue` at the entry, then
//! `poll` / `drain_due` at each simulation step; internally packets
//! cascade between stages at their due times.
//!
//! An optional exit-side [`ReorderStage`] (attached with
//! [`Path::set_reorder`]) sits after the WAN leg and models routes that
//! deliver out of order; scripted reorder windows retune it on the fly.

use std::collections::VecDeque;

use rpav_sim::{SimDuration, SimRng, SimTime};

use crate::fault::GilbertElliott;
use crate::packet::Packet;
use crate::reorder::{ReorderConfig, ReorderStage, ReorderStats};
use crate::script::{FaultScript, OutageScheduler, ScriptStats};

/// Counters of a path's drop-tail queue, for metric extraction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets rejected because the queue was full.
    pub dropped: u64,
    /// Packets handed onward.
    pub dequeued: u64,
    /// Sum of wire bytes accepted.
    pub bytes_enqueued: u64,
    /// Sum of wire bytes dropped.
    pub bytes_dropped: u64,
}

/// Baseline loss + eNodeB queue + radio serialiser + WAN leg (+ optional
/// reorder stage), in series.
///
/// The radio leg is store-and-forward: packets wait in a byte-bounded
/// drop-tail queue, serialise at the link rate, then propagate. The rate
/// is settable at any time ([`Path::set_rate_bps`]), which is how the LTE
/// channel imposes the SINR-derived capacity, and the serialiser can be
/// stalled ([`Path::pause_until`]), which is how handover execution
/// interruptions manifest: nothing is lost, everything queues — the "deep
/// buffers, latency instead of loss" behaviour the paper measures (§4.1).
/// Cellular uplink buffers are notoriously deep (Jiang et al. CellNet '12,
/// cited by the paper): the LTE paths use a multi-megabyte byte limit.
///
/// The WAN leg models the wired route between the PGW and the AWS server
/// (§3.1: ≈1 000 km, lowest RTT ≈35 ms including the radio leg). The
/// paper's single-path EPC→AWS route gave no evidence of reordering, so
/// jitter stretches delay and never inverts packets; routes that do
/// reorder get the explicit [`ReorderStage`].
#[derive(Debug)]
pub struct Path {
    loss: GilbertElliott,
    loss_rng: SimRng,
    /// Packets the baseline loss process took.
    loss_dropped: u64,
    /// Every admitted packet not yet handed on, in entry order, with the
    /// instant of its next move: WAN delivery for the first `wan_len`,
    /// radio exit for the next `radio_len`, then the packet in the
    /// serialiser (if `finish` is set) and the queue (arrival instant).
    flight: VecDeque<(SimTime, Packet)>,
    wan_len: usize,
    radio_len: usize,
    /// Finish instant of the packet in the serialiser.
    finish: Option<SimTime>,
    /// Wire bytes in the queue (excludes the packet in service).
    queued_bytes: usize,
    max_queue_bytes: usize,
    stats: QueueStats,
    rate_bps: f64,
    prop_delay: SimDuration,
    /// Extra per-packet propagation (e.g. HARQ retransmissions); settable.
    extra_prop: SimDuration,
    paused_until: SimTime,
    /// FIFO floor on radio exits. The radio leg is RLC-AM, which delivers
    /// strictly in order: a shrinking extra delay must not reorder packets.
    radio_last: SimTime,
    /// Instant the serialiser last became idle; the next packet starts at
    /// `max(free_at, paused_until)` so the link is work-conserving in
    /// virtual time even though it is advanced lazily.
    free_at: SimTime,
    wan_delay: SimDuration,
    wan_jitter: SimDuration,
    wan_rng: SimRng,
    /// FIFO floor on WAN deliveries.
    wan_last: SimTime,
    script: Option<OutageScheduler>,
    /// Latest blackout end already applied as a serialiser pause (guards
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
    /// * `loss`, `loss_rng` — baseline loss applied before the queue.
    /// * `bottleneck_rate_bps`, `bottleneck_delay`, `queue_bytes` — the
    ///   rate-limited access stage.
    /// * `wan_delay`, `wan_jitter` — the wired leg: `wan_delay` plus
    ///   `N(0, wan_jitter)`, truncated below at half of `wan_delay`.
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
            flight: VecDeque::new(),
            wan_len: 0,
            radio_len: 0,
            finish: None,
            queued_bytes: 0,
            max_queue_bytes: queue_bytes,
            stats: QueueStats::default(),
            rate_bps: bottleneck_rate_bps,
            prop_delay: bottleneck_delay,
            extra_prop: SimDuration::ZERO,
            paused_until: SimTime::ZERO,
            radio_last: SimTime::ZERO,
            free_at: SimTime::ZERO,
            wan_delay,
            wan_jitter,
            wan_rng,
            wan_last: SimTime::ZERO,
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
                self.pause_until(now, until);
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
        let delivered = self.offer_to_queue(now, packet);
        match scripted_copy {
            Some(copy) => self.offer_to_queue(now, copy) || delivered,
            None => delivered,
        }
    }

    fn offer_to_queue(&mut self, now: SimTime, packet: Packet) -> bool {
        if self.loss.step(&mut self.loss_rng) {
            self.loss_dropped += 1;
            return false;
        }
        self.advance(now);
        if self.finish.is_none() && self.queue_is_empty() {
            // The serialiser is idle with nothing pending, so it cannot have
            // been busy since `free_at`; the new packet starts no earlier
            // than its own arrival.
            self.free_at = self.free_at.max(now);
        }
        if self.queued_bytes + packet.size > self.max_queue_bytes {
            self.stats.dropped += 1;
            self.stats.bytes_dropped += packet.size as u64;
            return false;
        }
        self.stats.enqueued += 1;
        self.stats.bytes_enqueued += packet.size as u64;
        self.queued_bytes += packet.size;
        self.flight.push_back((now, packet));
        self.advance(now);
        true
    }

    /// Index of the serialiser's packet (or, when idle, of the queue head).
    fn serialiser_slot(&self) -> usize {
        self.wan_len + self.radio_len
    }

    fn queue_is_empty(&self) -> bool {
        self.flight.len() == self.serialiser_slot() + self.finish.is_some() as usize
    }

    /// Move completed serialisations into the radio outbox and start the
    /// next queued packet.
    fn advance(&mut self, now: SimTime) {
        loop {
            match self.finish {
                Some(finish) if finish <= now => {
                    let exit = (finish + self.prop_delay + self.extra_prop).max(self.radio_last);
                    self.radio_last = exit;
                    let slot = self.serialiser_slot();
                    self.flight[slot].0 = exit;
                    self.radio_len += 1;
                    self.free_at = finish;
                    self.finish = None;
                }
                Some(_) => return,
                None => {}
            }
            // Serialiser idle: start the next packet if allowed.
            if self.rate_bps <= 0.0 {
                return;
            }
            let Some((_, head)) = self.flight.get(self.serialiser_slot()) else {
                return;
            };
            self.queued_bytes -= head.size;
            self.stats.dequeued += 1;
            let service = SimDuration::from_secs_f64(head.size_bits() as f64 / self.rate_bps);
            self.finish = Some(self.free_at.max(self.paused_until) + service);
        }
    }

    /// Bring every stage up to `now`: the script's pause, the reorder
    /// retune, the serialiser, and radio exits due by `now` handed to the
    /// WAN leg. Returns `false` when nothing can be due (idle fast path:
    /// the serialiser is advanced eagerly on enqueue/re-rate, so "nothing
    /// due" implies advancing would not change state either, and the
    /// reorder retune can wait for a visit that offers packets — the
    /// window only gates `offer`, never the time-based flush).
    fn cascade(&mut self, now: SimTime) -> bool {
        self.apply_script_pause(now);
        if self.ready.is_empty() && self.next_wake().is_none_or(|w| w > now) {
            return false;
        }
        // Scripted reorder windows retune the exit stage.
        if let (Some(r), Some(s)) = (self.reorder.as_mut(), self.script.as_ref()) {
            match s.reorder_params(now) {
                Some((prob, disp)) => r.set_window(prob, disp),
                None => r.clear_window(),
            }
        }
        self.advance(now);
        // The WAN leg takes each packet at the instant it actually exited
        // the radio, not at the poll time; jitter is drawn in entry order.
        while self.radio_len > 0 {
            let entry = &mut self.flight[self.wan_len];
            if entry.0 > now {
                break;
            }
            // Scripted delay spikes bite between radio exit and the WAN.
            let exit = match self.script.as_ref() {
                Some(s) => entry.0 + s.extra_delay(entry.0),
                None => entry.0,
            };
            let jitter = if self.wan_jitter.is_zero() {
                0.0
            } else {
                self.wan_rng.normal(0.0, self.wan_jitter.as_secs_f64())
            };
            let base = self.wan_delay.as_secs_f64();
            let delay = SimDuration::from_secs_f64((base + jitter).max(base * 0.5));
            let delivery = (exit + delay).max(self.wan_last);
            self.wan_last = delivery;
            entry.0 = delivery;
            self.wan_len += 1;
            self.radio_len -= 1;
        }
        true
    }

    /// The WAN front, if it has arrived by `now`.
    fn pop_delivered(&mut self, now: SimTime) -> Option<Packet> {
        if self.wan_len == 0 || self.flight[0].0 > now {
            return None;
        }
        self.wan_len -= 1;
        self.flight.pop_front().map(|(_, p)| p)
    }

    /// Drain one packet that has fully traversed the path, if due.
    pub fn poll(&mut self, now: SimTime) -> Option<Packet> {
        if self.cascade(now) {
            loop {
                if let Some(p) = self.ready.pop_front() {
                    return Some(p);
                }
                let Some(p) = self.pop_delivered(now) else {
                    break;
                };
                match self.reorder.as_mut() {
                    Some(r) => self.ready.extend(r.offer(now, p)),
                    None => return Some(p),
                }
            }
            // Quiet wire: time-based release of held packets.
            if let Some(r) = self.reorder.as_mut() {
                self.ready.extend(r.flush_due(now));
            }
        }
        self.ready.pop_front()
    }

    /// Drain every packet deliverable at `now` into `out`, in the exact
    /// order repeated [`poll`](Self::poll) calls would return them — but
    /// with one cascade for the whole batch instead of one per delivered
    /// packet. The hot receive loop drains a few packets per visited tick,
    /// so the per-call overhead is worth amortising.
    pub fn drain_due(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if !self.cascade(now) {
            return;
        }
        out.extend(self.ready.drain(..));
        while let Some(p) = self.pop_delivered(now) {
            match self.reorder.as_mut() {
                Some(r) => out.extend(r.offer(now, p)),
                None => out.push(p),
            }
        }
        if let Some(r) = self.reorder.as_mut() {
            out.extend(r.flush_due(now));
        }
    }

    /// The earliest instant `poll` could make progress: the serialiser's
    /// finish, the earliest radio exit not yet handed to the WAN leg, the
    /// WAN front, and the reorder stage's next release.
    pub fn next_wake(&self) -> Option<SimTime> {
        let radio_front = (self.radio_len > 0).then(|| self.flight[self.wan_len].0);
        // With neither armed, a non-empty queue means the serialiser could
        // not start (zero rate): wake when the pause lifts, or never if
        // the rate is zero without a pause (caller re-rates).
        let radio = SimTime::earliest(self.finish, radio_front)
            .or_else(|| (!self.queue_is_empty()).then_some(self.paused_until));
        let wan_front = (self.wan_len > 0).then(|| self.flight[0].0);
        let wake = SimTime::earliest(radio, wan_front);
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

    /// Re-rate the serialiser (radio capacity changed) at `now`. Applies
    /// to packets that start serialising after this call; the packet in
    /// service keeps its finish time (the LTE channel re-rates every
    /// scheduling tick, so the error window is one packet).
    pub fn set_rate_bps(&mut self, now: SimTime, rate_bps: f64) {
        self.advance(now);
        let was_zero = self.rate_bps <= 0.0;
        self.rate_bps = rate_bps.max(0.0);
        if was_zero && self.rate_bps > 0.0 {
            // Packets that waited out a zero-rate period start now, not at
            // the stale idle time.
            self.free_at = self.free_at.max(now);
        }
        self.advance(now);
    }

    /// Stall the serialiser until `until` (handover execution). The packet
    /// in service resumes afterwards with its remaining serialisation time
    /// intact; queued packets simply wait. The serialiser is not advanced
    /// first: a finish at or before `now` that no visit has completed is
    /// stretched to `until`, which is why `next_wake` names every finish.
    pub fn pause_until(&mut self, now: SimTime, until: SimTime) {
        if until <= self.paused_until {
            return;
        }
        self.paused_until = until;
        if let Some(finish) = &mut self.finish {
            *finish = until + finish.saturating_since(now);
        }
    }

    /// Set the extra per-packet air-interface delay (retransmissions).
    pub fn set_extra_delay(&mut self, extra: SimDuration) {
        self.extra_prop = extra;
    }

    /// Queue depth in wire bytes (excludes the packet in service).
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.stats
    }

    /// Packets dropped by the baseline loss process.
    pub fn baseline_drops(&self) -> u64 {
        self.loss_dropped
    }
}

/// The two-stage composition [`Path`] replaced — drop-tail queue, radio
/// link and WAN pipe as separate FIFO stages that hand each packet on —
/// kept as the oracle `path::tests` drives in lock-step with `Path`.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use rpav_sim::{SimDuration, SimRng, SimTime};

    use crate::fault::GilbertElliott;
    use crate::link::{BottleneckLink, DelayPipe};
    use crate::packet::Packet;
    use crate::path::QueueStats;
    use crate::reorder::{ReorderConfig, ReorderStage};
    use crate::script::{FaultScript, OutageScheduler};

    pub(super) struct ReferencePath {
        loss: GilbertElliott,
        loss_rng: SimRng,
        bottleneck: BottleneckLink,
        wan: DelayPipe,
        script: Option<OutageScheduler>,
        script_paused_until: SimTime,
        reorder: Option<ReorderStage>,
        ready: VecDeque<Packet>,
    }

    impl ReferencePath {
        #[allow(clippy::too_many_arguments)]
        pub(super) fn new(
            loss: GilbertElliott,
            loss_rng: SimRng,
            bottleneck_rate_bps: f64,
            bottleneck_delay: SimDuration,
            queue_bytes: usize,
            wan_delay: SimDuration,
            wan_jitter: SimDuration,
            wan_rng: SimRng,
        ) -> Self {
            ReferencePath {
                loss,
                loss_rng,
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

        pub(super) fn set_script(&mut self, script: FaultScript, rng: SimRng) {
            self.script = Some(OutageScheduler::new(script, rng));
        }

        pub(super) fn set_reorder(&mut self, config: ReorderConfig, rng: SimRng) {
            self.reorder = Some(ReorderStage::new(config, rng));
        }

        fn apply_script_pause(&mut self, now: SimTime) {
            if let Some(until) = self.script.as_ref().and_then(|s| s.blackout_until(now)) {
                if until > self.script_paused_until {
                    self.script_paused_until = until;
                    self.bottleneck.pause_until(now, until);
                }
            }
        }

        pub(super) fn enqueue(&mut self, now: SimTime, mut packet: Packet) -> bool {
            self.apply_script_pause(now);
            let mut scripted_copy = None;
            if let Some(s) = self.script.as_mut() {
                if !s.admit(now, &packet) {
                    return false;
                }
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
                return false;
            }
            self.bottleneck.enqueue(now, packet)
        }

        fn retune_and_cascade(&mut self, now: SimTime) {
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
        }

        pub(super) fn poll(&mut self, now: SimTime) -> Option<Packet> {
            self.apply_script_pause(now);
            if self.ready.is_empty() && self.next_wake().is_none_or(|w| w > now) {
                return None;
            }
            self.retune_and_cascade(now);
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
            if let Some(r) = self.reorder.as_mut() {
                self.ready.extend(r.flush_due(now));
            }
            self.ready.pop_front()
        }

        pub(super) fn drain_due(&mut self, now: SimTime, out: &mut Vec<Packet>) {
            self.apply_script_pause(now);
            if self.ready.is_empty() && self.next_wake().is_none_or(|w| w > now) {
                return;
            }
            self.retune_and_cascade(now);
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

        pub(super) fn next_wake(&self) -> Option<SimTime> {
            let wake = SimTime::earliest(self.bottleneck.next_wake(), self.wan.next_wake());
            match &self.reorder {
                Some(r) => SimTime::earliest(wake, r.next_release()),
                None => wake,
            }
        }

        pub(super) fn next_wake_scripted(&self, now: SimTime) -> Option<SimTime> {
            match &self.script {
                Some(s) => SimTime::earliest(self.next_wake(), s.next_blackout_start(now)),
                None => self.next_wake(),
            }
        }

        pub(super) fn set_rate_bps(&mut self, now: SimTime, rate_bps: f64) {
            self.bottleneck.set_rate_bps(now, rate_bps);
        }

        pub(super) fn pause_until(&mut self, now: SimTime, until: SimTime) {
            self.bottleneck.pause_until(now, until);
        }

        pub(super) fn set_extra_delay(&mut self, extra: SimDuration) {
            self.bottleneck.set_extra_prop(extra);
        }

        pub(super) fn queued_bytes(&self) -> usize {
            self.bottleneck.queued_bytes()
        }

        pub(super) fn queue_stats(&self) -> QueueStats {
            self.bottleneck.queue_stats()
        }
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

    #[test]
    fn rerate_applies_to_the_next_packet() {
        let mut path = quiet_path();
        let t0 = SimTime::from_secs(1);
        path.enqueue(t0, pkt(0, t0));
        path.set_rate_bps(t0, 80_000_000.0); // 10x faster
        path.enqueue(t0, pkt(1, t0));
        // pkt0 keeps its 1 ms of service; pkt1 then takes 0.1 ms; both
        // add 5 ms radio + 12 ms WAN.
        let t_pkt0 = t0 + SimDuration::from_millis(18);
        let t_pkt1 = t0 + SimDuration::from_micros(1_100 + 17_000);
        assert!(path.poll(t_pkt0 - SimDuration::from_micros(1)).is_none());
        assert_eq!(path.poll(t_pkt0).unwrap().seq, 0);
        assert!(path.poll(t_pkt1 - SimDuration::from_micros(1)).is_none());
        assert_eq!(path.poll(t_pkt1).unwrap().seq, 1);
    }

    #[test]
    fn zero_rate_holds_the_queue_until_re_rated() {
        let mut path = quiet_path();
        let t0 = SimTime::from_secs(1);
        path.set_rate_bps(t0, 0.0);
        path.enqueue(t0, pkt(0, t0));
        assert_eq!(path.queued_bytes(), 1000);
        assert_eq!(path.next_wake(), Some(SimTime::ZERO), "stalled queue");
        assert!(path.poll(t0 + SimDuration::from_secs(60)).is_none());
        // Service starts at the re-rate, not at the stale idle time.
        let t1 = t0 + SimDuration::from_secs(2);
        path.set_rate_bps(t1, 8_000_000.0);
        assert_eq!(path.queued_bytes(), 0);
        assert_eq!(path.next_wake(), Some(t1 + SimDuration::from_millis(1)));
        assert_eq!(path.poll(t1 + SimDuration::from_millis(18)).unwrap().seq, 0);
    }

    #[test]
    fn byte_bound_drops_tail_and_counts() {
        let rngs = RngSet::new(12);
        let mut path = Path::new(
            GilbertElliott::off(),
            rngs.stream("fault"),
            8_000.0,
            SimDuration::ZERO,
            2_200,
            SimDuration::ZERO,
            SimDuration::ZERO,
            rngs.stream("wan"),
        );
        let t0 = SimTime::ZERO;
        // First goes into service immediately, next two queue, fourth drops.
        for seq in 0..3 {
            assert!(path.enqueue(t0, pkt(seq, t0)));
        }
        assert!(!path.enqueue(t0, pkt(3, t0)));
        assert_eq!(path.queued_bytes(), 2_000);
        let stats = path.queue_stats();
        assert_eq!((stats.enqueued, stats.dequeued, stats.dropped), (3, 1, 1));
        assert_eq!((stats.bytes_enqueued, stats.bytes_dropped), (3_000, 1_000));
    }

    /// One step of the lock-step drive: `(op, a, b)` decoded below.
    type Step = (u8, u64, u64);

    /// Drive `Path` and the two-stage reference through the same steps and
    /// assert identical behaviour after each one.
    fn lock_step(setup: (u64, u64, u64, u64, u64, u64), script: Option<u64>, steps: &[Step]) {
        use super::reference::ReferencePath;
        use crate::reorder::ReorderConfig;
        use crate::script::FaultScript;
        let (seed, rate_kbps, prop_ms, queue_pkts, wan_ms, jitter_us) = setup;
        let rngs = RngSet::new(seed);
        // Light bursty baseline loss, so the loss stream is exercised too.
        let loss = GilbertElliott::new(0.01, 0.5, 0.0, 0.5);
        let queue_bytes = if queue_pkts == 0 {
            usize::MAX
        } else {
            queue_pkts as usize * 800
        };
        let rate = (rate_kbps % 5 != 0) as u64 as f64 * rate_kbps as f64 * 1_000.0;
        let (prop, wan) = (
            SimDuration::from_millis(prop_ms),
            SimDuration::from_millis(wan_ms),
        );
        let jitter = SimDuration::from_micros(jitter_us);
        let (fault_rng, wan_rng) = (rngs.stream("fault"), rngs.stream("wan"));
        let mut path = Path::new(
            loss.clone(),
            fault_rng.clone(),
            rate,
            prop,
            queue_bytes,
            wan,
            jitter,
            wan_rng.clone(),
        );
        let mut refp = ReferencePath::new(
            loss,
            fault_rng,
            rate,
            prop,
            queue_bytes,
            wan,
            jitter,
            wan_rng,
        );
        if let Some(at) = script {
            let ms = SimDuration::from_millis;
            let t = |off: u64| SimTime::from_millis((at + off) % 3_000);
            let s = FaultScript::new()
                .blackout(t(0), ms(20 + at % 80))
                .delay_spike(t(400), ms(400), ms(1 + at % 60))
                .duplicate_window(t(900), ms(500), 0.3, None)
                .corrupt_window(t(1_500), ms(500), 0.3, None)
                .reorder_window(t(2_000), ms(700), 0.4, 1 + at % 5);
            path.set_script(s.clone(), rngs.stream("script"));
            refp.set_script(s, rngs.stream("script"));
            let cfg = ReorderConfig {
                chance: if at % 2 == 0 { 0.0 } else { 0.1 },
                ..ReorderConfig::default()
            };
            path.set_reorder(cfg, rngs.stream("reorder"));
            refp.set_reorder(cfg, rngs.stream("reorder"));
        }
        let seen = |p: &Packet| (p.seq, p.corrupted, p.payload.clone());
        let mut now = SimTime::ZERO;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (i, &(op, a, b)) in steps.iter().enumerate() {
            match op {
                0..=3 => {
                    let kind = if b % 3 == 0 {
                        PacketKind::Feedback
                    } else {
                        PacketKind::Media
                    };
                    let size = 20 + (a as usize % 1_400);
                    let packet = Packet::new(i as u64, Bytes::from(vec![b as u8; size]), kind, now);
                    assert_eq!(
                        path.enqueue(now, packet.clone()),
                        refp.enqueue(now, packet),
                        "step {i}: admission"
                    );
                }
                4 => now += SimDuration::from_micros(a % 20_000),
                5 => {
                    if let Some(w) = path.next_wake_scripted(now) {
                        now = now.max(w);
                    }
                }
                6 => {
                    while let Some(p) = path.poll(now) {
                        got.push((now, seen(&p)));
                    }
                    while let Some(p) = refp.poll(now) {
                        want.push((now, seen(&p)));
                    }
                }
                7 => {
                    // The batch drain against the reference's repeated polls.
                    let mut out = Vec::new();
                    path.drain_due(now, &mut out);
                    got.extend(out.iter().map(|p| (now, seen(p))));
                    if b % 2 == 0 {
                        while let Some(p) = refp.poll(now) {
                            want.push((now, seen(&p)));
                        }
                    } else {
                        out.clear();
                        refp.drain_due(now, &mut out);
                        want.extend(out.iter().map(|p| (now, seen(p))));
                    }
                }
                8 => {
                    let bps = if a % 6 == 0 {
                        0.0
                    } else {
                        (50 + a % 20_000) as f64 * 1_000.0
                    };
                    path.set_rate_bps(now, bps);
                    refp.set_rate_bps(now, bps);
                }
                9 => {
                    let until = now + SimDuration::from_millis(a % 400);
                    path.pause_until(now, until);
                    refp.pause_until(now, until);
                }
                _ => {
                    let extra = SimDuration::from_millis(a % 30);
                    path.set_extra_delay(extra);
                    refp.set_extra_delay(extra);
                }
            }
            assert_eq!(got, want, "step {i}: deliveries");
            assert_eq!(path.next_wake(), refp.next_wake(), "step {i}: next_wake");
            assert_eq!(
                path.next_wake_scripted(now),
                refp.next_wake_scripted(now),
                "step {i}: next_wake_scripted"
            );
            assert_eq!(path.queue_stats(), refp.queue_stats(), "step {i}");
            assert_eq!(path.queued_bytes(), refp.queued_bytes(), "step {i}");
        }
        // Re-rate and drain everything still in flight.
        path.set_rate_bps(now, 1e6);
        refp.set_rate_bps(now, 1e6);
        let horizon = now + SimDuration::from_secs(3_600);
        while let Some(p) = path.poll(horizon) {
            got.push((horizon, seen(&p)));
        }
        while let Some(p) = refp.poll(horizon) {
            want.push((horizon, seen(&p)));
        }
        assert_eq!(got, want, "final drain");
        assert_eq!(path.next_wake(), refp.next_wake());
    }

    proptest::proptest! {
        /// `Path`'s one store is the two-stage composition it replaced,
        /// observably: deliveries (instant, sequence, damage, bytes), every
        /// wake, and the queue's counters agree step by step over random
        /// sizes, times, re-rates (zero rate included), pauses, extra
        /// delay, and scripts (blackout, delay spike, duplicate, corrupt,
        /// reorder).
        #[test]
        fn prop_path_matches_the_two_stage_reference(
            setup in (
                proptest::prelude::any::<u64>(),
                0u64..20_000,
                0u64..10,
                0u64..6,
                0u64..30,
                0u64..3_000,
            ),
            script in proptest::option::of(0u64..1_000_000),
            steps in proptest::collection::vec((0u8..11, 0u64..1_000_000, 0u64..1_000), 1..600),
        ) {
            lock_step(setup, script, &steps);
        }
    }
}
