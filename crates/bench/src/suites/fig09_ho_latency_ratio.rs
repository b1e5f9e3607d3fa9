//! Figure 9 — max/min one-way latency ratio in the 1 s windows before and
//! after each aerial handover.
//!
//! Paper shape: before-HO ratio ≈8× on average, after-HO ≈5×, outliers up
//! to ≈37× — latency spikes tend to *precede* handovers.

use rpav_bench::{banner, campaign, paper_ccs, print_box};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner("Figure 9", "max/min latency ratio around aerial handovers");
    let mut before = Vec::new();
    let mut after = Vec::new();
    for env in [Environment::Urban, Environment::Rural] {
        for cc in paper_ccs(env) {
            let c = campaign(env, Operator::P1, Mobility::Air, cc);
            let (b, a) = c.ho_latency_ratios();
            before.extend(b);
            after.extend(a);
        }
    }
    print_box("Before HO", &before);
    print_box("After HO", &after);
    println!(
        "\nmeans: before {:.1}x, after {:.1}x (paper: ≈8x / ≈5x, outliers to 37x)",
        stats::mean(&before),
        stats::mean(&after)
    );
}
