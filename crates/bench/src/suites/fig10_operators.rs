//! Figure 10 — operator comparison in the rural region:
//! (a) achievable throughput P1 vs P2 (boxplots), (b) HO frequency air vs
//! ground for both operators.
//!
//! Paper shape: P2's denser rural deployment yields clearly more capacity
//! *and* more frequent handovers than P1.

use rpav_bench::{banner, campaign, paper_ccs, print_box};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Figure 10",
        "rural operators: throughput (a), HO frequency (b)",
    );

    println!("\n(a) Throughput (Mbps, 1 s windows, all methods pooled):");
    let mut caps = Vec::new();
    for op in [Operator::P1, Operator::P2] {
        let mut samples = Vec::new();
        for cc in paper_ccs(Environment::Rural) {
            let c = campaign(Environment::Rural, op, Mobility::Air, cc);
            samples.extend(c.goodput_samples().iter().map(|b| b / 1e6));
        }
        print_box(op.name(), &samples);
        caps.push(stats::mean(&samples));
    }
    println!(
        "P2/P1 mean throughput ratio: {:.2}x (paper: P2 clearly higher)",
        caps[1] / caps[0].max(1e-9)
    );

    println!("\n(b) HO frequency (HO/s):");
    for mobility in [Mobility::Air, Mobility::Ground] {
        for op in [Operator::P1, Operator::P2] {
            let mut freqs = Vec::new();
            for cc in paper_ccs(Environment::Rural) {
                let c = campaign(Environment::Rural, op, mobility, cc);
                freqs.extend(c.ho_frequencies());
            }
            print_box(&format!("{}-{}", mobility.name(), op.name()), &freqs);
        }
    }
}
