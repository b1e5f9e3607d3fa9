//! Ablation §4.2.1 — the SCReAM RFC 8888 ack-span limitation.
//!
//! Runs SCReAM with the stock 64-packet span and the paper's 256-packet
//! mitigation in both environments. Paper finding: at rates above ≈7 Mbps
//! more packets can arrive between two feedbacks than one report spans, so
//! received packets go unacknowledged, SCReAM misreads them as losses and
//! needlessly lowers its bitrate — a wider span softens this.

use rpav_bench::{banner, campaign, print_box};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Ablation A-1",
        "SCReAM ack span: 64 (stock) vs 256 (paper fix)",
    );
    for env in [Environment::Urban, Environment::Rural] {
        println!("\n{}:", env.name());
        for span in [64usize, 256, 1024] {
            let c = campaign(
                env,
                Operator::P1,
                Mobility::Air,
                CcMode::Scream { ack_span: span },
            );
            let goodput: Vec<f64> = c.runs.iter().map(|r| r.goodput_bps() / 1e6).collect();
            let skipped: u64 = c.runs.iter().map(|r| r.span_skipped).sum();
            let discarded: u64 = c.runs.iter().map(|r| r.sender_discarded).sum();
            print_box(
                &format!("span={span} goodput (Mbps)"),
                &c.goodput_samples()
                    .iter()
                    .map(|b| b / 1e6)
                    .collect::<Vec<f64>>(),
            );
            println!(
                "{:<28} mean goodput {:.1} Mbps | span-skipped false losses {} | queue-discarded {}",
                "",
                stats::mean(&goodput),
                skipped,
                discarded
            );
        }
    }
}
