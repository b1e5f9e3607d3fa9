//! The in-text headline statistics table — every number the paper quotes
//! in its running text, for all method × environment combinations.
//!
//! Paper anchors: PER 0.06–0.07 %; stalls/min Static 0.11 / SCReAM 0.89 /
//! GCC 1.37; playback ≤ 300 ms 30–90 % (urban) and 55–85 % (rural);
//! SSIM < 0.5 between 0.37 % and 19.09 %; aerial HO up to 0.7 /s.

use rpav_bench::{banner, campaign, paper_ccs};
use rpav_core::prelude::*;
use rpav_core::summary::HeadlineStats;

pub fn run(_: &crate::Args) {
    banner("Headline statistics", "the paper's in-text numbers");
    println!("{}", HeadlineStats::header());
    for env in [Environment::Urban, Environment::Rural] {
        for cc in paper_ccs(env) {
            let c = campaign(env, Operator::P1, Mobility::Air, cc);
            println!("{}", HeadlineStats::from_campaign(&c).row());
        }
    }
    println!("\nGround baselines:");
    for env in [Environment::Urban, Environment::Rural] {
        let c = campaign(
            env,
            Operator::P1,
            Mobility::Ground,
            CcMode::paper_static(env),
        );
        println!("{}", HeadlineStats::from_campaign(&c).row());
    }
}
