//! Figure 8 — one GCC flight as a joined time series: network latency,
//! playback latency, handover markers (and loss interruptions).
//!
//! Paper shape: network-latency spikes precede handovers by ≈0.5 s; when
//! network latency exceeds the 150 ms jitter buffer, playback latency
//! follows it up and then normalises.

use rpav_bench::{banner, master_seed};
use rpav_core::prelude::*;
use rpav_core::{table, trace};

pub fn run(_: &crate::Args) {
    banner("Figure 8", "GCC urban flight trace (CSV on stdout)");
    let cfg = ExperimentConfig::builder()
        .environment(Environment::Urban)
        .cc(CcMode::Gcc)
        .seed(master_seed())
        .build();
    let metrics = Simulation::new(cfg).run();
    let rows = trace::build_trace(&metrics);
    print!("{}", table::csv(trace::COLUMNS, &rows));

    // Annotate the handover windows like Fig. 8(a).
    eprintln!("\nhandovers at:");
    for h in &metrics.handovers {
        eprintln!(
            "  t={:.1}s HET={:.0}ms ({:?})",
            h.at.as_secs_f64(),
            h.het.as_millis_f64(),
            h.kind
        );
    }
}
