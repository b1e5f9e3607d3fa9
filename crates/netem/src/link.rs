//! Rate-limited bottleneck links and delay pipes.

use std::collections::VecDeque;

use rpav_sim::{SimDuration, SimRng, SimTime};

use crate::packet::Packet;
use crate::queue::{DropTailQueue, QueueStats};

/// Delivery buffer for a FIFO delay stage. Both in-order stages clamp every
/// delivery time to a monotonic floor before scheduling, so arrival order
/// equals delivery order and a deque replaces the binary heap a general
/// [`EventQueue`](rpav_sim::EventQueue) needs — no comparisons, no sift,
/// O(1) at both ends on the per-packet hot path.
#[derive(Debug, Default)]
struct FifoOutbox {
    q: VecDeque<(SimTime, Packet)>,
}

impl FifoOutbox {
    fn new() -> Self {
        FifoOutbox { q: VecDeque::new() }
    }

    fn schedule(&mut self, at: SimTime, packet: Packet) {
        debug_assert!(
            self.q.back().is_none_or(|(t, _)| *t <= at),
            "FIFO outbox requires nondecreasing delivery times"
        );
        self.q.push_back((at, packet));
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.q.front().map(|(t, _)| *t)
    }

    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, Packet)> {
        if self.peek_time()? <= now {
            self.q.pop_front()
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.q.len()
    }
}

/// A store-and-forward link: packets wait in a drop-tail queue, serialise at
/// the link rate, then propagate for a fixed delay.
///
/// The rate is settable at any time ([`BottleneckLink::set_rate_bps`]) which
/// is how the LTE channel imposes the SINR-derived capacity, and the link
/// can be stalled ([`BottleneckLink::pause_until`]) which is how handover
/// execution interruptions manifest: nothing is lost, everything queues —
/// exactly the "deep buffers, latency instead of loss" behaviour the paper
/// measures (§4.1).
#[derive(Debug)]
pub struct BottleneckLink {
    rate_bps: f64,
    prop_delay: SimDuration,
    queue: DropTailQueue,
    /// Packet currently serialising and the instant it finishes.
    in_service: Option<(Packet, SimTime)>,
    /// Packets past the serialiser, keyed by delivery time (monotone via
    /// the `last_delivery` floor, hence FIFO).
    out: FifoOutbox,
    paused_until: SimTime,
    /// Extra per-packet propagation (e.g. HARQ retransmissions); settable.
    extra_prop: SimDuration,
    /// FIFO floor on delivery times. The bottleneck models the radio leg,
    /// where RLC-AM delivers strictly in order: a shrinking extra delay
    /// must not reorder packets. Reordering is modelled explicitly —
    /// downstream — by a [`ReorderStage`](crate::reorder::ReorderStage),
    /// never here.
    last_delivery: SimTime,
    /// Instant the serialiser last became idle; the next packet starts at
    /// `max(free_at, paused_until)` so the link is work-conserving in
    /// virtual time even though it is advanced lazily.
    free_at: SimTime,
}

impl BottleneckLink {
    /// Create a link with the given initial rate, one-way propagation delay,
    /// and queue bounds.
    pub fn new(
        rate_bps: f64,
        prop_delay: SimDuration,
        max_queue_bytes: usize,
        max_queue_packets: usize,
    ) -> Self {
        BottleneckLink {
            rate_bps,
            prop_delay,
            queue: DropTailQueue::new(max_queue_bytes, max_queue_packets),
            in_service: None,
            out: FifoOutbox::new(),
            paused_until: SimTime::ZERO,
            extra_prop: SimDuration::ZERO,
            last_delivery: SimTime::ZERO,
            free_at: SimTime::ZERO,
        }
    }

    /// Set the extra per-packet propagation delay applied on top of the
    /// base propagation (air-interface retransmissions).
    pub fn set_extra_prop(&mut self, extra: SimDuration) {
        self.extra_prop = extra;
    }

    /// Change the serialisation rate at `now`. Applies to packets that start
    /// serialising after this call; the packet currently in service keeps
    /// its original finish time (the LTE channel re-rates every scheduling
    /// tick, so the error window is one packet).
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

    /// Current serialisation rate in bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Stall the serialiser until `until` (e.g. during handover execution).
    /// The packet in service resumes afterwards with its remaining
    /// serialisation time intact; queued packets simply wait.
    pub fn pause_until(&mut self, now: SimTime, until: SimTime) {
        if until <= self.paused_until {
            return;
        }
        self.paused_until = until;
        if let Some((_, finish)) = &mut self.in_service {
            let remaining = finish.saturating_since(now);
            *finish = until + remaining;
        }
    }

    /// Offer a packet to the link. Returns `false` if the queue rejected it.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) -> bool {
        self.advance(now);
        if self.in_service.is_none() && self.queue.is_empty() {
            // The serialiser is idle with nothing pending, so it cannot have
            // been busy since `free_at`; the new packet starts no earlier
            // than its own arrival.
            self.free_at = self.free_at.max(now);
        }
        if !self.queue.push(packet) {
            return false;
        }
        self.advance(now);
        true
    }

    /// Serialisation time of `packet` at the current rate.
    fn service_time(&self, packet: &Packet) -> SimDuration {
        if self.rate_bps <= 0.0 {
            // A zero-rate link never finishes; model as a very long stall so
            // time still progresses if the rate recovers (re-rated below).
            return SimDuration::from_secs(3600);
        }
        SimDuration::from_secs_f64(packet.size_bits() as f64 / self.rate_bps)
    }

    /// Move completed serialisations into the propagation stage and start
    /// the next queued packet.
    fn advance(&mut self, now: SimTime) {
        loop {
            match self.in_service.take() {
                Some((pkt, finish)) if finish <= now => {
                    let deliver =
                        (finish + self.prop_delay + self.extra_prop).max(self.last_delivery);
                    self.last_delivery = deliver;
                    self.out.schedule(deliver, pkt);
                    self.free_at = finish;
                }
                Some(in_flight) => {
                    self.in_service = Some(in_flight);
                    return;
                }
                None => {}
            }
            // Serialiser idle: start the next packet if allowed.
            if self.rate_bps <= 0.0 {
                return;
            }
            let Some(pkt) = self.queue.pop() else { return };
            let start = self.free_at.max(self.paused_until);
            let finish = start + self.service_time(&pkt);
            self.in_service = Some((pkt, finish));
        }
    }

    /// Drain the next packet whose delivery time has arrived.
    pub fn poll(&mut self, now: SimTime) -> Option<Packet> {
        self.poll_with_time(now).map(|(_, p)| p)
    }

    /// Like [`BottleneckLink::poll`] but also reports the instant the packet
    /// actually exited the link (≤ `now`), so downstream stages can be fed
    /// at the correct virtual time even when polled late.
    pub fn poll_with_time(&mut self, now: SimTime) -> Option<(SimTime, Packet)> {
        self.advance(now);
        self.out.pop_due(now)
    }

    /// The next instant at which `poll` could make progress.
    pub fn next_wake(&self) -> Option<SimTime> {
        let service = self.in_service.as_ref().map(|(_, f)| *f);
        // With neither armed, a non-empty queue means the serialiser could
        // not start (zero rate): wake when the pause lifts, or never if
        // the rate is zero without a pause (caller re-rates).
        SimTime::earliest(service, self.out.peek_time())
            .or_else(|| (!self.queue.is_empty()).then_some(self.paused_until))
    }

    /// Bytes sitting in the queue (excludes the packet in service).
    pub fn queued_bytes(&self) -> usize {
        self.queue.bytes()
    }

    /// Queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Estimated delay a new arrival would face right now: queue drain plus
    /// own serialisation plus propagation (plus residual pause).
    pub fn estimated_delay(&self, now: SimTime, size_bytes: usize) -> SimDuration {
        let mut d = self.prop_delay;
        d += self.paused_until.saturating_since(now);
        if self.rate_bps > 0.0 {
            let backlog_bits = (self.queue.bytes() + size_bytes) as f64 * 8.0;
            d += SimDuration::from_secs_f64(backlog_bits / self.rate_bps);
            if let Some((pkt, finish)) = &self.in_service {
                let _ = pkt;
                d += finish.saturating_since(now);
            }
        }
        d
    }
}

/// A FIFO delay stage with optional jitter: models the wired WAN leg
/// between the PGW and the AWS server (§3.1: ≈1 000 km, lowest RTT ≈35 ms
/// including the radio leg). The paper's single-path EPC→AWS route gave
/// no evidence of reordering, so jitter stretches delay and never inverts
/// packets; routes that do reorder get an explicit
/// [`ReorderStage`](crate::reorder::ReorderStage) downstream.
#[derive(Debug)]
pub struct DelayPipe {
    base_delay: SimDuration,
    jitter_sigma: SimDuration,
    rng: SimRng,
    out: FifoOutbox,
    /// FIFO floor on delivery times.
    last_delivery: SimTime,
}

impl DelayPipe {
    /// Create a pipe adding `base_delay` plus `N(0, jitter_sigma)` of
    /// jitter (truncated below at half the base delay) to every packet.
    pub fn new(base_delay: SimDuration, jitter_sigma: SimDuration, rng: SimRng) -> Self {
        DelayPipe {
            base_delay,
            jitter_sigma,
            rng,
            out: FifoOutbox::new(),
            last_delivery: SimTime::ZERO,
        }
    }

    /// Push a packet into the pipe.
    pub fn enqueue(&mut self, now: SimTime, packet: Packet) {
        let jitter = if self.jitter_sigma.is_zero() {
            0.0
        } else {
            self.rng.normal(0.0, self.jitter_sigma.as_secs_f64())
        };
        let delay_s =
            (self.base_delay.as_secs_f64() + jitter).max(self.base_delay.as_secs_f64() * 0.5);
        // FIFO: never deliver before a previously enqueued packet.
        let deliver = (now + SimDuration::from_secs_f64(delay_s)).max(self.last_delivery);
        self.last_delivery = deliver;
        self.out.schedule(deliver, packet);
    }

    /// Drain the next due packet.
    pub fn poll(&mut self, now: SimTime) -> Option<Packet> {
        self.out.pop_due(now).map(|(_, p)| p)
    }

    /// Next delivery instant.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.out.peek_time()
    }

    /// Packets currently inside the pipe.
    pub fn in_flight(&self) -> usize {
        self.out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketKind, IP_UDP_OVERHEAD};
    use bytes::Bytes;
    use rpav_sim::RngSet;

    fn pkt(seq: u64, payload_len: usize) -> Packet {
        Packet::new(
            seq,
            Bytes::from(vec![0u8; payload_len]),
            PacketKind::Media,
            SimTime::ZERO,
        )
    }

    /// 1000 wire bytes at 8 Mbps = 1 ms serialisation.
    fn link_8mbps() -> BottleneckLink {
        BottleneckLink::new(
            8_000_000.0,
            SimDuration::from_millis(10),
            usize::MAX,
            usize::MAX,
        )
    }

    #[test]
    fn serialisation_plus_propagation() {
        let mut link = link_8mbps();
        let t0 = SimTime::from_secs(1);
        link.enqueue(t0, pkt(0, 1000 - IP_UDP_OVERHEAD));
        // Not there before 11 ms.
        assert!(link.poll(t0 + SimDuration::from_micros(10_999)).is_none());
        let got = link.poll(t0 + SimDuration::from_millis(11)).unwrap();
        assert_eq!(got.seq, 0);
    }

    #[test]
    fn back_to_back_packets_serialise_sequentially() {
        let mut link = link_8mbps();
        let t0 = SimTime::from_secs(1);
        link.enqueue(t0, pkt(0, 1000 - IP_UDP_OVERHEAD));
        link.enqueue(t0, pkt(1, 1000 - IP_UDP_OVERHEAD));
        // First at t0+11ms, second at t0+12ms.
        let t1 = t0 + SimDuration::from_millis(11);
        assert_eq!(link.poll(t1).unwrap().seq, 0);
        assert!(link.poll(t1).is_none());
        let t2 = t0 + SimDuration::from_millis(12);
        assert_eq!(link.poll(t2).unwrap().seq, 1);
    }

    #[test]
    fn pause_stalls_and_resumes() {
        let mut link = link_8mbps();
        let t0 = SimTime::from_secs(1);
        link.enqueue(t0, pkt(0, 1000 - IP_UDP_OVERHEAD));
        // Pause 500 ms in the middle of serialisation (0.5 ms in).
        let t_pause = t0 + SimDuration::from_micros(500);
        link.pause_until(t_pause, t_pause + SimDuration::from_millis(500));
        // Original delivery would be t0+11ms; now remaining 0.5ms of
        // serialisation resumes at t_pause+500ms.
        let expected = t_pause
            + SimDuration::from_millis(500)
            + SimDuration::from_micros(500)
            + SimDuration::from_millis(10);
        assert!(link.poll(expected - SimDuration::from_micros(1)).is_none());
        assert_eq!(link.poll(expected).unwrap().seq, 0);
    }

    #[test]
    fn rate_change_applies_to_next_packet() {
        let mut link = link_8mbps();
        let t0 = SimTime::from_secs(1);
        link.enqueue(t0, pkt(0, 1000 - IP_UDP_OVERHEAD));
        link.set_rate_bps(t0, 80_000_000.0); // 10x faster
        link.enqueue(t0, pkt(1, 1000 - IP_UDP_OVERHEAD));
        // pkt0 keeps 1ms service; pkt1 then takes 0.1ms.
        let t_pkt1 = t0 + SimDuration::from_micros(1_100) + SimDuration::from_millis(10);
        assert_eq!(link.poll(t0 + SimDuration::from_millis(11)).unwrap().seq, 0);
        assert_eq!(link.poll(t_pkt1).unwrap().seq, 1);
    }

    #[test]
    fn queue_bound_drops() {
        let mut link = BottleneckLink::new(8_000.0, SimDuration::ZERO, 2_200, usize::MAX);
        let t0 = SimTime::ZERO;
        // First goes into service immediately, next two queue, fourth drops.
        assert!(link.enqueue(t0, pkt(0, 1000 - IP_UDP_OVERHEAD)));
        assert!(link.enqueue(t0, pkt(1, 1000 - IP_UDP_OVERHEAD)));
        assert!(link.enqueue(t0, pkt(2, 1000 - IP_UDP_OVERHEAD)));
        assert!(!link.enqueue(t0, pkt(3, 1000 - IP_UDP_OVERHEAD)));
        assert_eq!(link.queue_stats().dropped, 1);
    }

    #[test]
    fn next_wake_tracks_progress() {
        let mut link = link_8mbps();
        assert_eq!(link.next_wake(), None);
        let t0 = SimTime::from_secs(1);
        link.enqueue(t0, pkt(0, 1000 - IP_UDP_OVERHEAD));
        // Wake at serialisation finish.
        assert_eq!(link.next_wake(), Some(t0 + SimDuration::from_millis(1)));
        // After serialisation completes, wake at delivery.
        link.advance(t0 + SimDuration::from_millis(1));
        assert_eq!(link.next_wake(), Some(t0 + SimDuration::from_millis(11)));
    }

    #[test]
    fn estimated_delay_counts_backlog() {
        let mut link = link_8mbps();
        let t0 = SimTime::ZERO;
        let idle = link.estimated_delay(t0, 1000);
        // 1 ms serialisation + 10 ms propagation.
        assert_eq!(idle, SimDuration::from_millis(11));
        link.enqueue(t0, pkt(0, 1000 - IP_UDP_OVERHEAD));
        link.enqueue(t0, pkt(1, 1000 - IP_UDP_OVERHEAD));
        let busy = link.estimated_delay(t0, 1000);
        assert!(busy > idle);
    }

    #[test]
    fn delay_pipe_preserves_order() {
        let rng = RngSet::new(9).stream("pipe");
        let mut pipe = DelayPipe::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(5),
            rng,
        );
        let t0 = SimTime::ZERO;
        for i in 0..200 {
            pipe.enqueue(t0 + SimDuration::from_micros(i * 100), pkt(i, 100));
        }
        let mut last = 0;
        let mut got = 0;
        let horizon = SimTime::from_secs(10);
        while let Some(p) = pipe.poll(horizon) {
            assert!(p.seq >= last);
            last = p.seq;
            got += 1;
        }
        assert_eq!(got, 200);
    }

    #[test]
    fn delay_pipe_zero_jitter_is_exact() {
        let rng = RngSet::new(9).stream("pipe2");
        let mut pipe = DelayPipe::new(SimDuration::from_millis(10), SimDuration::ZERO, rng);
        let t0 = SimTime::from_secs(5);
        pipe.enqueue(t0, pkt(0, 100));
        assert_eq!(pipe.next_wake(), Some(t0 + SimDuration::from_millis(10)));
        assert!(pipe.poll(t0 + SimDuration::from_micros(9_999)).is_none());
        assert!(pipe.poll(t0 + SimDuration::from_millis(10)).is_some());
    }
}
