//! Extension experiment — the paper's future-work multipath proposal
//! (§5/Conclusion): redundant transmission over both operators' modems.
//!
//! Expected shape (motivating \[9\]: uncorrelated links improve quality):
//! the duplicate scheme cuts the one-way-latency tail and the playback
//! budget violations, because the two operators' handovers and fades are
//! not synchronised.

use rpav_bench::{banner, master_seed, print_cdf_quantiles, runs_per_config};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Extension E-1",
        "multipath (P1+P2 duplicate) vs single path, rural static 8 Mbps",
    );
    // One matrix: scheme × run, on the engine's thread pool. The run
    // index is the innermost axis, so each scheme's runs are contiguous.
    let base = ExperimentConfig::builder()
        .cc(CcMode::paper_static(Environment::Rural))
        .seed(master_seed())
        .build();
    let spec = MatrixSpec::new(base)
        .multipath_schemes(MultipathScheme::all())
        .runs(runs_per_config());
    let result = CampaignEngine::new().run(&spec);

    for (scheme, campaign) in MultipathScheme::all().iter().zip(result.campaigns()) {
        let mut owd = Vec::new();
        let mut within = Vec::new();
        let mut per = Vec::new();
        let mut stalls = Vec::new();
        let mut dup_frac = Vec::new();
        for m in &campaign.runs {
            owd.extend(m.owd_ms());
            within.push(m.playback_within(300.0));
            per.push(m.per());
            stalls.push(m.stalls_per_minute());
            dup_frac.push(if m.media_sent > 0 {
                m.dup_tx_packets as f64 / m.media_sent as f64
            } else {
                0.0
            });
        }
        println!("\n### {}", scheme.name());
        print_cdf_quantiles("one-way latency (ms)", &owd);
        println!(
            "{:<28} playback within 300 ms {:.1}% | PER {:.3}% | stalls/min {:.2} | dup {:.0}%",
            "",
            stats::mean(&within) * 100.0,
            stats::mean(&per) * 100.0,
            stats::mean(&stalls),
            stats::mean(&dup_frac) * 100.0
        );
    }
    println!("\n{}", result.report.summary());
    println!(
        "\n(The duplicate scheme doubles the radio airtime — the cost the paper's \
         discussion of multipath acknowledges; the win is the tail, not the median.)"
    );
}
