//! The in-text headline statistics table — every number the paper quotes
//! in its running text, for all method × environment combinations.
//!
//! Paper anchors: PER 0.06–0.07 %; stalls/min Static 0.11 / SCReAM 0.89 /
//! GCC 1.37; playback ≤ 300 ms 30–90 % (urban) and 55–85 % (rural);
//! SSIM < 0.5 between 0.37 % and 19.09 %; aerial HO up to 0.7 /s.

use rpav_bench::{banner, campaign, paper_ccs};
use rpav_core::prelude::*;
use rpav_core::summary::HEADLINE;
use rpav_core::table;

pub fn run(_: &crate::Args) {
    banner("Headline statistics", "the paper's in-text numbers");
    let envs = [Environment::Urban, Environment::Rural];
    let mut campaigns = Vec::new();
    for env in envs {
        for cc in paper_ccs(env) {
            campaigns.push(campaign(env, Operator::P1, Mobility::Air, cc));
        }
    }
    let air = campaigns.len();
    for env in envs {
        let cc = CcMode::paper_static(env);
        campaigns.push(campaign(env, Operator::P1, Mobility::Ground, cc));
    }
    let lines = table::aligned(1, &table::rows(HEADLINE, &campaigns));
    let (air, ground) = lines.split_at(1 + air);
    air.iter().for_each(|line| println!("{line}"));
    println!("\nGround baselines:");
    ground.iter().for_each(|line| println!("{line}"));
}
