//! Network-path construction — one place for the §3.1/§4.1 wire
//! parameters, so every leg of every session is parameterised
//! identically.
//!
//! Every access path in the study is the same chain: baseline loss
//! (bursty PER) → bottleneck link (radio propagation + eNodeB
//! queue) → WAN delay pipe. The numbers live here once:
//!
//! * baseline loss: Gilbert–Elliott tuned to the measured 0.06–0.07 % PER
//!   with ≈8-packet bursts (§4.1);
//! * radio propagation ≈ 5 ms, WAN ≈ 12.5 ms → lowest RTT ≈ 35 ms (§3.1);
//! * eNodeB uplink buffer deep enough that congestion becomes delay, not
//!   loss (bufferbloat, §4.1).

use rpav_netem::{GilbertElliott, Path};
use rpav_sim::{RngSet, SimDuration};

/// eNodeB uplink buffer: deep enough that congestion becomes delay, not
/// loss (bufferbloat, §4.1).
pub const UPLINK_QUEUE_BYTES: usize = 6_000_000;
/// Uplink bottleneck placeholder rate; re-rated on the first radio tick.
pub const UPLINK_INITIAL_BPS: f64 = 10e6;
/// Downlink (feedback-direction) rate: effectively uncongested.
pub const DOWNLINK_BPS: f64 = 150e6;
/// Radio propagation delay.
pub const BOTTLENECK_DELAY: SimDuration = SimDuration::from_millis(5);
/// WAN (eNodeB → server) one-way delay.
pub const WAN_DELAY: SimDuration = SimDuration::from_millis(12);
/// WAN jitter.
pub const WAN_JITTER: SimDuration = SimDuration::from_micros(600);
/// Re-rate floor: a radio tick that reports no capacity still leaves the
/// bottleneck draining at 50 kbit/s.
pub const MIN_RATE_BPS: f64 = 50e3;

/// Baseline bursty loss process tuned to the paper's measured PER of
/// 0.06–0.07 % with consecutive drops (§4.1): rare events (≈0.2 /s at
/// 25 Mbps), ≈8 packets lost per event.
pub fn baseline_loss() -> GilbertElliott {
    GilbertElliott::new(0.000_08, 0.12, 0.0, 0.8)
}

/// RNG stream prefix for multipath leg `leg_index` riding `operator_name`
/// (the single-operator session's leg uses `pipe`). Legs 0 and 1 ride
/// different operators, so `mp.{operator}` tells them apart; legs ≥ 2
/// reuse the same operators (the airframe carries multiple SIMs per
/// carrier) and qualify the prefix with the leg index, making their
/// channel draws statistically independent. `Leg` appends the per-stream
/// suffixes (`.ul`, `.dl`, `.extraloss`, `.{ul,dl}.script`,
/// `.{ul,dl}.reorder`).
pub fn leg_stream_prefix(operator_name: &str, leg_index: usize) -> String {
    if leg_index < 2 {
        format!("mp.{operator_name}")
    } else {
        format!("mp.{operator_name}.l{leg_index}")
    }
}

/// Build an uplink (media-direction) access path. `stream_prefix` names
/// the RNG streams (`<prefix>.fault`, `<prefix>.wan`), so distinct paths
/// in one run draw from distinct deterministic streams.
pub fn uplink_path(rngs: &RngSet, stream_prefix: &str, run_index: u64) -> Path {
    Path::new(
        baseline_loss(),
        rngs.stream_indexed(&format!("{stream_prefix}.fault"), run_index),
        UPLINK_INITIAL_BPS,
        BOTTLENECK_DELAY,
        UPLINK_QUEUE_BYTES,
        WAN_DELAY,
        WAN_JITTER,
        rngs.stream_indexed(&format!("{stream_prefix}.wan"), run_index),
    )
}

/// Build a downlink (feedback-direction) path: same chain, downlink rate.
pub fn downlink_path(rngs: &RngSet, stream_prefix: &str, run_index: u64) -> Path {
    Path::new(
        baseline_loss(),
        rngs.stream_indexed(&format!("{stream_prefix}.fault"), run_index),
        DOWNLINK_BPS,
        BOTTLENECK_DELAY,
        UPLINK_QUEUE_BYTES,
        WAN_DELAY,
        WAN_JITTER,
        rngs.stream_indexed(&format!("{stream_prefix}.wan"), run_index),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpav_netem::{Packet, PacketKind};
    use rpav_sim::SimTime;

    #[test]
    fn builders_use_distinct_streams_per_prefix() {
        // Same seed, different prefixes → different fault/WAN draws; same
        // prefix → bit-identical path behaviour.
        let drive = |prefix: &str| {
            let rngs = RngSet::new(0xBEEF);
            let mut p = uplink_path(&rngs, prefix, 0);
            let mut arrivals = Vec::new();
            let mut t = SimTime::ZERO;
            for i in 0..5_000u64 {
                p.enqueue(
                    t,
                    Packet::new(
                        i,
                        bytes::Bytes::from(vec![0u8; 1_200]),
                        PacketKind::Media,
                        t,
                    ),
                );
                while let Some(pkt) = p.poll(t) {
                    arrivals.push((pkt.seq, t));
                }
                t += SimDuration::from_millis(1);
            }
            arrivals
        };
        assert_eq!(drive("a"), drive("a"));
        assert_ne!(drive("a"), drive("b"));
    }
}
