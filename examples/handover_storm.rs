//! Stress scenario built from the low-level crates directly: a UAV hovers
//! at 120 m while we hand-crank the radio model, count handovers and show
//! how the link capacity breathes — the smoltcp-style "poke the stack with
//! adverse conditions" example.
//!
//! This example bypasses `rpav-core` on purpose to demonstrate the
//! substrate APIs (`rpav-lte`, `rpav-uav`) on their own.
//!
//! ```sh
//! cargo run -p rpav-examples --release --bin handover_storm
//! ```

use rpav_lte::{Environment, NetworkProfile, Operator, RadioModel};
use rpav_sim::{RngSet, SimDuration, SimTime};
use rpav_uav::{profiles, Position};

fn main() {
    // The worst case for mobility management: the dense urban grid seen
    // from above, with the paper trajectory flown twice back-to-back.
    let profile = NetworkProfile::new(Environment::Urban, Operator::P1);
    let rngs = RngSet::new(0x5702u64);
    let mut radio = RadioModel::new(&profile, &rngs, 0);
    let plan = profiles::paper_flight(Position::ground(0.0, 0.0), SimDuration::from_secs(5));

    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + plan.duration();
    let mut hos = Vec::new();
    let mut cap_min: f64 = f64::MAX;
    let mut cap_max: f64 = 0.0;
    let mut interrupted = SimDuration::ZERO;
    let mut sinrs = Vec::new();
    let mut site_dist = Vec::new();
    println!("time   alt    serving  SINR    uplink   event");
    while t < end {
        let pos = plan.position_at(t);
        let s = radio.step(t, &pos);
        cap_min = cap_min.min(s.uplink_capacity_bps.max(1.0));
        cap_max = cap_max.max(s.uplink_capacity_bps);
        sinrs.push(s.sinr_db);
        if s.in_handover {
            interrupted += radio.tick();
        }
        if let Some(ho) = s.handover {
            println!(
                "{:>5.1}s {:>4.0}m cell {:>3} {:>5.1}dB {:>6.1}Mbps HO {:?}→{:?} ({:.0} ms, {:?})",
                t.as_secs_f64(),
                pos.z,
                s.serving.0,
                s.sinr_db,
                s.uplink_capacity_bps / 1e6,
                ho.from.0,
                ho.to.0,
                ho.het().as_millis_f64(),
                ho.kind
            );
            let to_site = |c: &rpav_lte::Cell| c.position.horizontal_distance(&pos);
            site_dist.push(
                radio
                    .deployment()
                    .iter()
                    .map(to_site)
                    .fold(f64::MAX, f64::min),
            );
            hos.push(ho);
        }
        t += radio.tick();
    }

    let dur = plan.duration().as_secs_f64();
    println!(
        "\n{} handovers in {:.0} s ({:.3}/s)",
        hos.len(),
        dur,
        hos.len() as f64 / dur
    );
    println!(
        "radio interrupted for {:.2} s total; capacity ranged {:.1}–{:.1} Mbps",
        interrupted.as_secs_f64(),
        cap_min / 1e6,
        cap_max / 1e6
    );
    println!("served by {} distinct cells", radio.distinct_cells());
    // The geometry of those handovers: straight back to the cell just
    // left, sector changes on one site (three sectors a site), and how
    // close a site was overhead when the A3 event fired.
    let ping_pongs = hos.windows(2).filter(|w| w[1].to == w[0].from).count();
    let intra_site = hos.iter().filter(|h| h.from.0 / 3 == h.to.0 / 3).count();
    sinrs.sort_by(f64::total_cmp);
    site_dist.sort_by(f64::total_cmp);
    println!(
        "{ping_pongs} ping-pongs, {intra_site} intra-site; median nearest site at HO {:.0} m; SINR p10 {:.1} / p50 {:.1} dB",
        site_dist.get(site_dist.len() / 2).copied().unwrap_or(f64::NAN),
        sinrs[sinrs.len() / 10],
        sinrs[sinrs.len() / 2]
    );
    let worst = hos
        .iter()
        .map(|h| h.het())
        .max()
        .unwrap_or(SimDuration::ZERO);
    println!(
        "longest execution interruption: {:.0} ms{}",
        worst.as_millis_f64(),
        if worst > SimDuration::from_millis(300) {
            "  ← this is the kind of outage the paper flags as unbearable for RP"
        } else {
            ""
        }
    );
}
