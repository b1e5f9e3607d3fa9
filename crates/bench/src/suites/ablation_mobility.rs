//! Ablation §5 — optimising the handover parameters for aerial traffic.
//!
//! "The hysteresis margin … and the time-to-trigger parameters … can be
//! optimized for aerial scenarios to (1) minimize the frequency of HOs in
//! the air and (2) avoid unnecessary ping-pong HOs" (§5, citing Yang et
//! al.). This sweep runs the urban static workload across a hysteresis ×
//! TTT grid and reports the trade-off: laxer mobility config means fewer
//! HOs and ping-pongs, but the UE clings to degrading cells for longer —
//! so one-way latency suffers.

use rpav_bench::{banner, config_campaign, master_seed};
use rpav_core::prelude::*;
use rpav_core::stats;
use rpav_sim::SimDuration;

pub fn run(_: &crate::Args) {
    banner(
        "Ablation A-3",
        "A3 hysteresis x time-to-trigger sweep, urban static 25 Mbps",
    );
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "hys dB", "TTT ms", "HO/s", "pingpong%", "<300ms %", "owd p95"
    );
    for hysteresis in [2.0f64, 4.5, 7.0] {
        for ttt in [128u64, 384, 768] {
            let mut ho = Vec::new();
            let mut pp = (0usize, 0usize);
            let mut within = Vec::new();
            let mut owd = Vec::new();
            let cfg = ExperimentConfig::builder()
                .environment(Environment::Urban)
                .cc(CcMode::paper_static(Environment::Urban))
                .seed(master_seed())
                .hysteresis_db(hysteresis)
                .ttt_ms(ttt)
                .build();
            for m in &config_campaign(cfg).runs {
                ho.push(m.ho_frequency());
                pp.0 += m.ping_pong_count(SimDuration::from_secs(5));
                pp.1 += m.handovers.len();
                within.push(m.playback_within(300.0));
                owd.extend(m.owd_ms());
            }
            println!(
                "{:>6.1} {:>8} {:>8.3} {:>9.1}% {:>9.1}% {:>9.0}",
                hysteresis,
                ttt,
                stats::mean(&ho),
                pp.0 as f64 / pp.1.max(1) as f64 * 100.0,
                stats::mean(&within) * 100.0,
                if owd.is_empty() {
                    f64::NAN
                } else {
                    stats::quantile(&owd, 0.95)
                },
            );
        }
    }
    println!(
        "\n(Paper §5: aerial RP wants the sweet spot — few enough HOs to avoid \
         interruptions, fast enough triggers that the UE escapes degrading cells.)"
    );
}
