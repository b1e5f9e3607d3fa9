//! Urban bake-off: run the paper's three §3.2 workloads over the same
//! urban flights and write a Fig. 8-style CSV trace of the GCC run.
//!
//! ```sh
//! cargo run -p rpav-examples --release --bin urban_flight
//! # trace lands in target/urban_gcc_trace.csv
//! ```

use rpav_core::prelude::*;
use rpav_core::summary::HEADLINE;
use rpav_core::{table, trace};

fn main() {
    println!("urban P1, aerial, 2 runs per workload\n");
    let mut campaigns = Vec::new();
    for cc in [
        CcMode::paper_static(Environment::Urban),
        CcMode::paper_scream(),
        CcMode::Gcc,
    ] {
        let cfg = ExperimentConfig::builder()
            .environment(Environment::Urban)
            .cc(cc)
            .seed(0xF11687)
            .build();
        let campaign = CampaignEngine::new()
            .run(&CampaignSpec::new(cfg).runs(2).to_matrix())
            .campaigns()
            .pop()
            .expect("one campaign");
        campaigns.push(campaign);
    }
    for line in table::aligned(1, &table::rows(HEADLINE, &campaigns)) {
        println!("{line}");
    }
    let gcc_metrics = campaigns.pop().and_then(|gcc| gcc.runs.into_iter().next());

    // Export the GCC flight as the joined time series of Fig. 8.
    if let Some(m) = gcc_metrics {
        let rows = trace::build_trace(&m);
        let csv = table::csv(trace::COLUMNS, &rows);
        let path = std::path::Path::new("target").join("urban_gcc_trace.csv");
        std::fs::create_dir_all("target").ok();
        std::fs::write(&path, csv).expect("write trace");
        println!(
            "\nwrote {} trace rows to {} (network latency, playback latency, HO marks)",
            rows.len(),
            path.display()
        );
        // Show the moments the pilot would have noticed.
        let spikes: Vec<&trace::TraceRow> = rows
            .iter()
            .filter(|r| r.network_latency_ms.is_finite() && r.network_latency_ms > 200.0)
            .collect();
        println!(
            "latency exceeded 200 ms in {} of {} windows; {} handovers during the flight",
            spikes.len(),
            rows.len(),
            m.handovers.len()
        );
    }
}
