//! Bonded matrix — the bonded multipath acceptance harness.
//!
//! Exercises the [`MultipathScheme::Bonded`] deficit-weighted scheduler,
//! its loss-adaptive cross-leg FEC layer, and the reorder-tolerant
//! reassembly buffer across the three §3.2 workloads (Static, SCReAM,
//! GCC), every comparison seed-matched, and *asserts* the bonding
//! invariants instead of merely printing them:
//!
//! * **aggregation** — under asymmetric per-leg capacity caps, bonded
//!   goodput strictly exceeds the *best* single leg (run single-path on
//!   each leg by swapping the caps): striping across both modems must
//!   buy bandwidth no single operator offers, or carrying the second
//!   modem was pointless. The delay-based controllers are the
//!   documented exception (DESIGN.md §11): cross-leg delay variance
//!   reads as congestion, so SCReAM and GCC are held to a delivery floor
//!   (0.4× the best single leg) instead;
//! * **graceful degradation** — under a scripted primary-leg blackout,
//!   bonded stall time never exceeds the seed-matched failover run's
//!   (bonding reroutes packet-by-packet as the leg's health collapses;
//!   failover eats the controller's dwell before moving), and both beat
//!   single-path outright;
//! * **FEC effectiveness** — under bursty per-leg loss with the repair
//!   path armed, the adaptive parity layer recovers erased packets and
//!   those recoveries *strictly* reduce NACK/RTX volume versus the
//!   seed-matched FEC-off run at equal scripted loss — redundancy that
//!   repairs before the round trip, not beside it;
//! * **determinism** — a bonded matrix runs bit-identically at
//!   `jobs = 1` and `jobs = 8`, and the engine's results replay
//!   byte-equal when executed directly (no engine, no cache).
//!
//! `--smoke` shrinks the sweep to one run per cell for CI.

use rpav_bench::{
    assert_jobs_invariant, banner, burst_fade, matrix_config, primary_blackout,
    print_bonding_header, print_bonding_row, runs_per_config, CAP_PRIMARY, CAP_SECONDARY, FAULT_AT,
    FAULT_FOR, FEC_CAP,
};
use rpav_core::prelude::*;

fn config(cc: CcMode, run: u64) -> ExperimentConfigBuilder {
    matrix_config(cc, run, 4)
}

/// The suite's own column: packets held in the reorder buffer.
fn print_row(section: &str, cc: &str, run: u64, scheme: &str, m: &RunMetrics) {
    print_bonding_row(section, cc, run, scheme, m, m.reorder_buffered);
}

pub fn run(args: &crate::Args) {
    banner(
        "Bonded matrix",
        "deficit-weighted bonding + adaptive FEC vs single-leg/failover (seed-matched cells)",
    );
    let runs = if args.smoke { 1 } else { runs_per_config() };
    println!(
        "    caps {}/{} Mbps, blackout t={}s..{}s, burst loss 30 s, fec cap {FEC_CAP}, {} run(s)/cell\n",
        CAP_PRIMARY / 1e6,
        CAP_SECONDARY / 1e6,
        FAULT_AT.as_secs_f64(),
        (FAULT_AT + FAULT_FOR).as_secs_f64(),
        runs
    );
    print_bonding_header("scheme", "reord");

    let ccs = rpav_bench::paper_ccs(Environment::Rural);
    for cc in ccs {
        for run in 0..runs {
            // ---- (a) Aggregation under asymmetric caps ---------------
            let bonded = Simulation::multipath(
                config(cc, run).leg_caps(CAP_PRIMARY, CAP_SECONDARY).build(),
                MultipathScheme::Bonded,
                vec![None, None],
            )
            .run();
            // Single-path always rides leg 0: swapping the caps runs the
            // baseline on the other operator's capacity.
            let single_a = Simulation::multipath(
                config(cc, run).leg_caps(CAP_PRIMARY, CAP_SECONDARY).build(),
                MultipathScheme::SinglePath,
                vec![None, None],
            )
            .run();
            let single_b = Simulation::multipath(
                config(cc, run).leg_caps(CAP_SECONDARY, CAP_PRIMARY).build(),
                MultipathScheme::SinglePath,
                vec![None, None],
            )
            .run();
            let tag = format!("{}/run{run}", cc.name());
            print_row("caps", cc.name(), run, "bonded", &bonded);
            print_row("caps", cc.name(), run, "single-a", &single_a);
            print_row("caps", cc.name(), run, "single-b", &single_b);
            let best_single = single_a
                .media_received_bytes
                .max(single_b.media_received_bytes);
            // Documented caveat (DESIGN.md §11): a delay-based controller
            // reacts to the *slowest* leg's queueing delay, so striping
            // across legs with different service rates depresses its rate
            // estimate — the same delay-variance sensitivity §8 records
            // for selective duplication. SCReAM's window collapses on
            // every seed (≈ 0.5×); GCC's estimate lands anywhere from
            // 0.54× to 1.14× of the best single leg from one seed to the
            // next (EXPERIMENTS.md lists the runs). Both must still
            // deliver a usable share of the best single leg; the strict
            // aggregation gain is claimed for the capacity probe only.
            let floor = match cc {
                CcMode::Static { .. } => 1.0,
                CcMode::Gcc | CcMode::Scream { .. } => 0.4,
            };
            assert!(
                bonded.media_received_bytes as f64 > floor * best_single as f64,
                "{tag}: bonded {} B !> {floor} x best single leg {} B",
                bonded.media_received_bytes,
                best_single
            );
            if !matches!(cc, CcMode::Scream { .. }) {
                // The scheduler striped: both legs carried a real share.
                let share0 = bonded.leg_tx_share(0);
                assert!(
                    (0.1..=0.9).contains(&share0),
                    "{tag}: bonded leg split degenerate ({share0:.2})"
                );
            }

            // ---- (b) Graceful degradation under a leg blackout -------
            let b_bonded = Simulation::multipath(
                config(cc, run).build(),
                MultipathScheme::Bonded,
                vec![Some(primary_blackout()), None],
            )
            .run();
            let b_failover = Simulation::multipath(
                config(cc, run).build(),
                MultipathScheme::Failover,
                vec![Some(primary_blackout()), None],
            )
            .run();
            let b_single = Simulation::multipath(
                config(cc, run).build(),
                MultipathScheme::SinglePath,
                vec![Some(primary_blackout()), None],
            )
            .run();
            print_row("black", cc.name(), run, "bonded", &b_bonded);
            print_row("black", cc.name(), run, "failover", &b_failover);
            print_row("black", cc.name(), run, "single", &b_single);
            assert!(
                b_bonded.stalled_time <= b_failover.stalled_time,
                "{tag}: bonded stalled {:?} > failover {:?}",
                b_bonded.stalled_time,
                b_failover.stalled_time
            );
            assert!(
                b_bonded.stalled_time < b_single.stalled_time,
                "{tag}: bonded stalled {:?} !< single-path {:?}",
                b_bonded.stalled_time,
                b_single.stalled_time
            );

            // ---- (c) FEC recovery strictly reduces NACK/RTX ----------
            let fec_on = Simulation::multipath(
                config(cc, run).fec_cap(FEC_CAP).repair(true).build(),
                MultipathScheme::Bonded,
                vec![Some(burst_fade()), Some(burst_fade())],
            )
            .run();
            let fec_off = Simulation::multipath(
                config(cc, run).repair(true).build(),
                MultipathScheme::Bonded,
                vec![Some(burst_fade()), Some(burst_fade())],
            )
            .run();
            print_row("fec", cc.name(), run, "fec-on", &fec_on);
            print_row("fec", cc.name(), run, "fec-off", &fec_off);
            assert!(
                fec_off.script_dropped > 0,
                "{tag}: burst script never dropped anything"
            );
            assert_eq!(fec_off.fec_tx, 0, "{tag}: parity with fec_cap=0");
            assert!(fec_on.fec_tx > 0, "{tag}: adaptive ratio never armed");
            assert!(
                fec_on.fec_recovered > 0,
                "{tag}: no packet recovered ({} parity tx)",
                fec_on.fec_tx
            );
            assert!(
                fec_on.nack_seqs_requested < fec_off.nack_seqs_requested,
                "{tag}: FEC did not reduce NACK volume ({} !< {})",
                fec_on.nack_seqs_requested,
                fec_off.nack_seqs_requested
            );
        }
        println!();
    }

    // ---- (d) Determinism: jobs=1 ≡ jobs=8 ≡ direct execution ---------
    let spec = MatrixSpec::new(config(CcMode::Gcc, 0).fec_cap(FEC_CAP).repair(true).build())
        .paper_workloads()
        .multipath_schemes([MultipathScheme::Bonded])
        .faults([CellFault::legs(
            "bursty-loss",
            Some(burst_fade()),
            Some(burst_fade()),
        )])
        .runs(runs);
    let result = assert_jobs_invariant(&spec);

    println!(
        "All bonding invariants hold ({} seed-matched cell sets, {} engine cells).",
        ccs.len() as u64 * runs,
        result.outcomes.len()
    );
    println!("{}", result.report.summary());
}
