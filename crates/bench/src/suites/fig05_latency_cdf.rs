//! Figure 5 — one-way latency CDFs: ground/air × urban/rural.
//!
//! Paper shape: ≈99 % of ground packets below 100 ms, ≈96 % in the air
//! with outliers beyond 1 s; rural above urban.

use rpav_bench::{banner, campaign, print_cdf, print_cdf_quantiles};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner("Figure 5", "end-to-end one-way latency CDFs");
    let grid = stats::log_grid(10.0, 4_000.0, 28);
    for (mobility, env) in [
        (Mobility::Ground, Environment::Rural),
        (Mobility::Ground, Environment::Urban),
        (Mobility::Air, Environment::Rural),
        (Mobility::Air, Environment::Urban),
    ] {
        // The latency figure uses the static workload (constant offered
        // load, like the paper's packet traces).
        let c = campaign(env, Operator::P1, mobility, CcMode::paper_static(env));
        let owd = c.owd_ms();
        let label = format!("{} {}", mobility.name(), env.name());
        print_cdf_quantiles(&label, &owd);
        println!(
            "{:<28} {:.2}% below 100 ms, mean {:.1} ms",
            "",
            stats::fraction_at_or_below(&owd, 100.0) * 100.0,
            stats::mean(&owd)
        );
        print_cdf(&label, &owd, &grid);
    }
}
