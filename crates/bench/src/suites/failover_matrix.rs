//! Failover matrix — the multi-operator failover acceptance harness.
//!
//! Sweeps the four multipath schemes (single-path, duplicate, failover,
//! selective-duplicate) across the three §3.2 workloads (Static, SCReAM,
//! GCC) under a scripted primary-operator blackout, every scheme in a
//! cell run with the same seed (seed-matched quadruples). Prints one row
//! per (cc, run, scheme) cell with the failover counters, then *asserts*
//! the failover invariants instead of merely printing them:
//!
//! * under the blackout, the switching schemes (failover,
//!   selective-duplicate) keep stall time *strictly* below the
//!   seed-matched single-path run — surviving the primary operator's
//!   outage is the whole point of carrying a second modem;
//! * the fault window produces at most one switch (anti-flap:
//!   hysteresis + dwell in `FailoverController`), and that switch lands
//!   on the surviving leg; the non-switching schemes never record one;
//! * selective duplication stays selective: duplicate transmissions are
//!   a strict minority of media packets (full duplication doubles radio
//!   airtime — the cost the paper's multipath discussion acknowledges);
//! * a repeated run of the first failover cell is bit-identical
//!   (determinism spot-check; the whole table is reproducible for a
//!   fixed `RPAV_SEED`).
//!
//! `--smoke` shrinks the sweep to one run per cell for CI.

use rpav_bench::{
    assert_replays_directly, banner, matrix_config, primary_blackout, print_aggregates,
    runs_per_config, FAULT_AT, FAULT_FOR,
};
use rpav_core::prelude::*;

struct CellResult {
    cc_name: &'static str,
    run: u64,
    scheme: MultipathScheme,
    metrics: std::sync::Arc<RunMetrics>,
}

fn config(cc: CcMode, run: u64) -> ExperimentConfig {
    matrix_config(cc, run, 1).build()
}

fn in_window_switches(m: &RunMetrics) -> usize {
    m.switches
        .iter()
        .filter(|s| s.at >= FAULT_AT && s.at <= FAULT_AT + FAULT_FOR)
        .count()
}

fn print_row(cc: &str, run: u64, m: &RunMetrics, scheme: MultipathScheme) {
    let dup_pct = if m.media_sent > 0 {
        m.dup_tx_packets as f64 / m.media_sent as f64 * 100.0
    } else {
        0.0
    };
    println!(
        "{:<7} {:>3} {:<13} {:>9.1} {:>6} {:>9.1} {:>4} {:>5} {:>6.1} {:>8.0} {:>7}",
        cc,
        run,
        scheme.name(),
        m.goodput_bps() / 1e6,
        m.stalls,
        m.stalled_time.as_millis_f64(),
        in_window_switches(m),
        m.switches.len(),
        dup_pct,
        m.path_dead_ms(),
        m.probes_sent,
    );
}

pub fn run(args: &crate::Args) {
    banner(
        "Failover matrix",
        "multipath scheme × CC under a primary-operator blackout (seed-matched quadruples)",
    );
    let runs = if args.smoke { 1 } else { runs_per_config() };
    println!(
        "    primary-leg blackout t={}s..{}s (both directions), {} run(s) per cell\n",
        FAULT_AT.as_secs_f64(),
        (FAULT_AT + FAULT_FOR).as_secs_f64(),
        runs
    );
    println!(
        "{:<7} {:>3} {:<13} {:>9} {:>6} {:>9} {:>4} {:>5} {:>6} {:>8} {:>7}",
        "cc",
        "run",
        "scheme",
        "put Mbps",
        "stalls",
        "stall ms",
        "sw*",
        "sw",
        "dup %",
        "dead ms",
        "probes",
    );

    // One matrix: workload × scheme × run, every cell under the same
    // primary-leg blackout, executed on the engine's thread pool. The
    // engine expands with the run index innermost (scheme above it), so
    // the seed-matched quadruples are re-grouped by index below for the
    // cc → run → scheme table the invariants read.
    let spec = MatrixSpec::new(config(CcMode::Gcc, 0))
        .paper_workloads()
        .multipath_schemes(MultipathScheme::baseline())
        .faults([CellFault::legs(
            "primary-blackout",
            Some(primary_blackout()),
            None,
        )])
        .runs(runs);
    let engine = CampaignEngine::new();
    let result = engine.run(&spec);

    let ccs = rpav_bench::paper_ccs(Environment::Rural);
    let schemes = MultipathScheme::baseline();
    let cell_at = |cc_i: usize, scheme_i: usize, run: u64| {
        &result.outcomes[(cc_i * schemes.len() + scheme_i) * runs as usize + run as usize]
    };

    let mut cells: Vec<CellResult> = Vec::new();
    for (cc_i, cc) in ccs.iter().enumerate() {
        for run in 0..runs {
            for (scheme_i, &scheme) in schemes.iter().enumerate() {
                let outcome = cell_at(cc_i, scheme_i, run);
                assert_eq!(outcome.cell().scheme, RunScheme::Multipath(scheme));
                assert_eq!(outcome.cell().config.run_index, run);
                let m = outcome.metrics().clone();
                print_row(cc.name(), run, &m, scheme);
                cells.push(CellResult {
                    cc_name: cc.name(),
                    run,
                    scheme,
                    metrics: m,
                });
            }
        }
        println!();
    }

    // ---- Invariants --------------------------------------------------
    for group in cells.chunks(MultipathScheme::baseline().len()) {
        let find = |s: MultipathScheme| {
            &group
                .iter()
                .find(|c| c.scheme == s)
                .expect("scheme missing from cell group")
                .metrics
        };
        let single = find(MultipathScheme::SinglePath);
        let label = format!("{}/run{}", group[0].cc_name, group[0].run);

        for cell in group {
            let m = &cell.metrics;
            let tag = format!("{label}/{}", cell.scheme.name());

            match cell.scheme {
                MultipathScheme::SinglePath | MultipathScheme::Duplicate => {
                    // Non-switching schemes never record a switch.
                    assert!(
                        m.switches.is_empty(),
                        "{tag}: non-switching scheme recorded {:?}",
                        m.switches
                    );
                }
                MultipathScheme::Bonded => {
                    // Not part of `MultipathScheme::baseline()` — the bonded
                    // acceptance harnesses (`bonded_matrix`, `nleg_matrix`)
                    // own this scheme.
                    unreachable!("{tag}: bonded cell in the failover sweep");
                }
                MultipathScheme::Failover | MultipathScheme::SelectiveDuplicate => {
                    // The blackout kills the primary: the switching
                    // schemes must move — exactly once inside the fault
                    // window, onto the surviving leg — and beat the
                    // single-path run's stall time outright.
                    let in_window: Vec<_> = m
                        .switches
                        .iter()
                        .filter(|s| s.at >= FAULT_AT && s.at <= FAULT_AT + FAULT_FOR)
                        .collect();
                    assert_eq!(
                        in_window.len(),
                        1,
                        "{tag}: expected exactly 1 in-window switch: {:?}",
                        m.switches
                    );
                    assert_eq!(in_window[0].to_leg, 1, "{tag}: switched to the dead leg");
                    assert!(
                        m.stalled_time < single.stalled_time,
                        "{tag}: stalled {:?} !< single-path {:?}",
                        m.stalled_time,
                        single.stalled_time
                    );
                    // The primary leg was observed dead for a sizeable
                    // slice of the 15 s blackout.
                    assert!(
                        m.path_dead_ms() > 2_000.0,
                        "{tag}: primary leg dead only {:.0} ms",
                        m.path_dead_ms()
                    );
                    // The standby stayed warm while idle.
                    assert!(m.probes_sent > 0, "{tag}: no standby probes");
                }
            }

            if cell.scheme == MultipathScheme::Duplicate {
                // Full duplication copies every media packet.
                assert_eq!(
                    m.dup_tx_packets, m.media_sent,
                    "{tag}: duplicate scheme skipped copies"
                );
            }
            if cell.scheme == MultipathScheme::SelectiveDuplicate {
                // Selective duplication copies keyframes + degraded-time
                // packets only: a strict minority of the media flow.
                assert!(m.dup_tx_packets > 0, "{tag}: nothing duplicated");
                assert!(
                    (m.dup_tx_packets as f64) < 0.5 * m.media_sent as f64,
                    "{tag}: copied {}/{} packets — not selective",
                    m.dup_tx_packets,
                    m.media_sent
                );
            }
        }
    }

    // Determinism spot-check on the first failover cell.
    let failover_i = schemes
        .iter()
        .position(|&s| s == MultipathScheme::Failover)
        .expect("no failover cell");
    assert_replays_directly(cell_at(0, failover_i, 0));

    print_aggregates(&result.report.aggregates);
    println!(
        "All failover invariants hold ({} seed-matched cells).",
        cells.len()
    );
    println!("{}", result.report.summary());
}
