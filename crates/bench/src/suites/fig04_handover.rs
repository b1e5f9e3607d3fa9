//! Figure 4 — handover performance in the air vs. on the ground.
//!
//! (a) HO frequency (HO/s) per run, boxplots for Air/Grd × Rural/Urban.
//! (b) HET duration (ms), pooled across runs, same split.
//!
//! Paper shape: aerial HO frequency about an order of magnitude above
//! ground, urban above rural; most HETs below the 49.5 ms 3GPP success
//! threshold with air-side outliers up to ≈4 s.

use rpav_bench::{banner, campaign, paper_ccs, print_box};
use rpav_core::prelude::*;
use rpav_core::stats;

pub fn run(_: &crate::Args) {
    banner(
        "Figure 4",
        "HO frequency (a) and HET duration (b), air vs ground",
    );
    let mut pooled: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for mobility in [Mobility::Air, Mobility::Ground] {
        for env in [Environment::Rural, Environment::Urban] {
            // Pool the three workloads like the paper's dataset does.
            let mut freqs = Vec::new();
            let mut hets = Vec::new();
            for cc in paper_ccs(env) {
                let c = campaign(env, Operator::P1, mobility, cc);
                freqs.extend(c.ho_frequencies());
                hets.extend(c.het_ms());
            }
            pooled.push((format!("{}-{}", mobility.name(), env.name()), freqs, hets));
        }
    }

    println!("\n(a) Handover frequency (HO/s):");
    for (label, freqs, _) in &pooled {
        print_box(label, freqs);
    }
    println!("\n(b) Handover execution time (ms):");
    for (label, _, hets) in &pooled {
        print_box(label, hets);
        if !hets.is_empty() {
            let ok = stats::fraction_at_or_below(hets, 49.5);
            println!(
                "{:<28} {:.1}% below the 49.5 ms 3GPP success threshold",
                "",
                ok * 100.0
            );
        }
    }

    // The headline comparison.
    let air: Vec<f64> = pooled[..2].iter().flat_map(|(_, f, _)| f.clone()).collect();
    let grd: Vec<f64> = pooled[2..].iter().flat_map(|(_, f, _)| f.clone()).collect();
    println!(
        "\nAir/ground mean HO-frequency ratio: {:.1}x (paper: ≈ an order of magnitude)",
        stats::mean(&air) / stats::mean(&grd).max(1e-6)
    );
}
