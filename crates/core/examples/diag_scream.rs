//! Calibration diagnostic: SCReAM pipeline health.
use rpav_core::prelude::*;

fn main() {
    let cfg = ExperimentConfig::builder()
        .environment(Environment::Urban)
        .cc(CcMode::paper_scream())
        .seed(0xABCD)
        .hold_secs(1)
        .build();
    let m = Simulation::new(cfg).run();
    println!(
        "goodput={:.1}Mbps PER={:.4} stalls/min={:.1}",
        m.goodput_bps() / 1e6,
        m.per(),
        m.stalls_per_minute()
    );
    println!(
        "sender_discarded={} span_skipped={}",
        m.sender_discarded, m.span_skipped
    );
    println!("media sent={} recv={}", m.media_sent, m.media_received);
    let owd = m.owd_ms();
    println!(
        "owd p50={:.0} p90={:.0}",
        rpav_core::stats::quantile(&owd, 0.5),
        rpav_core::stats::quantile(&owd, 0.9)
    );
    let skipped = m.frames.iter().filter(|f| !f.displayed).count();
    println!("frames total={} skipped={}", m.frames.len(), skipped);
}
