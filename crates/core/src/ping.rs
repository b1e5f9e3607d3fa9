//! The Fig. 13 workload: ICMP-like echo probes with **no cross traffic**,
//! binned by altitude.
//!
//! A probe leaves the UAV every 100 ms, crosses the uplink, is echoed by
//! the server, and returns over the downlink; the RTT sample is tagged with
//! the UAV's altitude at transmission. The paper bins: 0–20, 21–60, 61–100,
//! 101–140 m.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rpav_lte::{NetworkProfile, RadioModel};
use rpav_netem::{GilbertElliott, Packet, PacketKind, Path};
use rpav_sim::{RngSet, SimDuration, SimTime};
use rpav_uav::{profiles as uav_profiles, Position};

use crate::paths::{
    BOTTLENECK_DELAY, DOWNLINK_BPS, MIN_RATE_BPS, UPLINK_INITIAL_BPS, WAN_DELAY, WAN_JITTER,
};
use crate::scenario::ExperimentConfig;

/// Altitude bins of Fig. 13 (inclusive upper edges, metres).
pub const ALTITUDE_BINS: [(f64, f64); 4] =
    [(0.0, 20.0), (21.0, 60.0), (61.0, 100.0), (101.0, 140.0)];

/// One RTT observation.
#[derive(Clone, Copy, Debug)]
pub struct RttSample {
    /// Probe transmission time.
    pub at: SimTime,
    /// Altitude at transmission (m).
    pub altitude_m: f64,
    /// Round-trip time (ms).
    pub rtt_ms: f64,
}

/// Run the echo workload for `config`'s flight and return RTT samples.
pub fn run_ping(config: &ExperimentConfig) -> Vec<RttSample> {
    let rngs = RngSet::new(config.seed);
    let profile = NetworkProfile::new(config.environment, config.operator);
    let mut radio = RadioModel::new(&profile, &rngs, config.run_index);
    let plan = uav_profiles::paper_flight(Position::ground(0.0, 0.0), config.hold);

    // The study's access chain without baseline loss or a buffer limit.
    let path = |direction: &str, rate_bps| {
        let stream =
            |what| rngs.stream_indexed(&format!("ping.{direction}.{what}"), config.run_index);
        Path::new(
            GilbertElliott::off(),
            stream("fault"),
            rate_bps,
            BOTTLENECK_DELAY,
            usize::MAX,
            WAN_DELAY,
            WAN_JITTER,
            stream("wan"),
        )
    };
    let mut uplink = path("ul", UPLINK_INITIAL_BPS);
    let mut downlink = path("dl", DOWNLINK_BPS);

    let mut samples = Vec::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + plan.duration() + SimDuration::from_secs(2);
    let flight_end = SimTime::ZERO + plan.duration();
    let mut next_radio = SimTime::ZERO;
    let mut next_probe = SimTime::ZERO;
    let mut seq = 0u64;
    // Pending probes keyed implicitly by payload: (send µs, altitude mm).
    while t < end {
        if t >= next_radio {
            next_radio = t + radio.tick();
            let pos = plan.position_at(t);
            let s = radio.step(t, &pos);
            uplink.set_rate_bps(t, s.uplink_capacity_bps.max(MIN_RATE_BPS));
            downlink.set_rate_bps(t, s.downlink_capacity_bps.max(MIN_RATE_BPS));
            if let Some(ho) = s.handover {
                uplink.pause_until(t, ho.complete_at);
                downlink.pause_until(t, ho.complete_at);
            }
        }
        if t >= next_probe && t < flight_end {
            next_probe = t + SimDuration::from_millis(100);
            let alt = plan.position_at(t).z;
            let mut payload = BytesMut::with_capacity(64);
            payload.put_u64(t.as_micros());
            payload.put_u64((alt * 1_000.0) as u64);
            payload.resize(56, 0); // ICMP-echo-sized
            seq += 1;
            uplink.enqueue(t, Packet::new(seq, payload.freeze(), PacketKind::Probe, t));
        }
        // Server echo.
        while let Some(p) = uplink.poll(t) {
            seq += 1;
            downlink.enqueue(t, Packet::new(seq, p.payload, PacketKind::Probe, t));
        }
        // Echo back at the UAV.
        while let Some(p) = downlink.poll(t) {
            let mut b: Bytes = p.payload;
            if b.len() < 16 {
                continue;
            }
            let sent_us = b.get_u64();
            let alt_mm = b.get_u64();
            let sent = SimTime::from_micros(sent_us);
            samples.push(RttSample {
                at: sent,
                altitude_m: alt_mm as f64 / 1_000.0,
                rtt_ms: t.saturating_since(sent).as_millis_f64(),
            });
        }
        t += SimDuration::from_millis(1);
    }
    samples
}

/// Split samples into the Fig. 13 altitude bins.
pub fn bin_by_altitude(samples: &[RttSample]) -> Vec<(String, Vec<f64>)> {
    ALTITUDE_BINS
        .iter()
        .map(|(lo, hi)| {
            let label = format!("{:.0}-{:.0} m", lo, hi);
            let values = samples
                .iter()
                .filter(|s| s.altitude_m >= *lo && s.altitude_m <= *hi)
                .map(|s| s.rtt_ms)
                .collect();
            (label, values)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::CcMode;
    use rpav_lte::Environment;

    #[test]
    fn ping_produces_binned_rtts() {
        let cfg = ExperimentConfig::builder()
            .environment(Environment::Urban)
            .cc(CcMode::Gcc)
            .seed(3)
            .hold_secs(1)
            .build();
        let samples = run_ping(&cfg);
        assert!(samples.len() > 1_000, "{} samples", samples.len());
        // Minimum RTT near the structural floor (2×17 ms + serialisation).
        let min = samples.iter().map(|s| s.rtt_ms).fold(f64::MAX, f64::min);
        assert!((30.0..60.0).contains(&min), "min RTT {min} ms");
        let bins = bin_by_altitude(&samples);
        assert_eq!(bins.len(), 4);
        // Every bin of the flight profile is populated.
        for (label, values) in &bins {
            assert!(!values.is_empty(), "empty bin {label}");
        }
    }
}
