//! Chaos campaign — the outage-survival acceptance harness.
//!
//! Sweeps scripted mid-flight link blackouts {0.5, 2, 5, 10 s} across the
//! three §3.2 workloads (Static, SCReAM, GCC) in both environments, and
//! prints one recovery row per cell: pre-outage baseline, time to the
//! first displayed frame after the blackout, time back to 90 % of the
//! baseline rate, and the recovery machinery's counters (PLIs, forced
//! IDRs, watchdog activations/recoveries, jitter-target inflations).
//!
//! The suite *asserts* the survival invariants instead of merely printing
//! them:
//!
//! * no run panics;
//! * every cell with an outage ≤ 5 s recovers (frames displayed again
//!   within 10 s of the blackout end, rate back to 50 % of baseline
//!   within 30 s — AIMD controllers then probe back to the 90 % mark
//!   linearly, which legitimately takes tens of seconds at 25 Mbps);
//! * 10 s outages must still be survived (no permanent stall), with no
//!   bound on the rate-recovery tail;
//! * recovery completion is monotone in outage length within one
//!   (environment, CC) pair;
//! * a repeated run of the first cell is bit-identical (determinism
//!   spot-check; the whole table is reproducible for a fixed `RPAV_SEED`).
//!
//! `--smoke` shrinks the sweep to one urban outage length per CC for CI.

use rpav_bench::{assert_replays_directly, banner, paper_config, print_aggregates};
use rpav_core::prelude::*;
use rpav_netem::FaultScript;
use rpav_sim::{SimDuration, SimTime};

/// Blackout start: mid-flight, at altitude, well past CC convergence.
const BLACKOUT_AT: SimTime = SimTime::from_secs(120);
/// Recovery bars from the ISSUE acceptance criteria.
const FIRST_FRAME_BAR: SimDuration = SimDuration::from_secs(10);
const RATE_BAR: SimDuration = SimDuration::from_secs(30);

struct CellResult {
    env: Environment,
    cc_name: &'static str,
    outage_s: f64,
    metrics: std::sync::Arc<RunMetrics>,
}

fn blackout_script(outage_s: f64) -> FaultScript {
    FaultScript::new().blackout(
        BLACKOUT_AT,
        SimDuration::from_micros((outage_s * 1e6) as u64),
    )
}

fn fmt_opt_ms(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => format!("{:.0}", d.as_millis_f64()),
        None => "-".to_string(),
    }
}

pub fn run(args: &crate::Args) {
    banner(
        "Chaos matrix",
        "mid-flight link blackouts × CC × environment (1 run/cell)",
    );
    let outages: &[f64] = if args.smoke {
        &[2.0]
    } else {
        &[0.5, 2.0, 5.0, 10.0]
    };
    let envs: &[Environment] = if args.smoke {
        &[Environment::Urban]
    } else {
        &[Environment::Urban, Environment::Rural]
    };
    println!(
        "    blackout at t={}s on both directions (media + feedback)\n",
        BLACKOUT_AT.as_secs_f64()
    );
    println!(
        "{:<6} {:<7} {:>7} {:>9} {:>8} {:>9} {:>9} {:>5} {:>5} {:>7} {:>7} {:>5} {:>9}",
        "env",
        "cc",
        "out s",
        "base Mbps",
        "ttff ms",
        "r50 ms",
        "r90 ms",
        "pli",
        "idr",
        "wd act",
        "wd rec",
        "infl",
        "survived"
    );

    // One matrix: environment × paper workload × blackout length, every
    // cell independent — executed on the engine's thread pool.
    let spec = MatrixSpec::new(paper_config(
        Environment::Urban,
        Operator::P1,
        Mobility::Air,
        CcMode::Gcc,
    ))
    .environments(envs.iter().copied())
    .paper_workloads()
    .faults(
        outages
            .iter()
            .map(|&s| CellFault::link(format!("blackout-{s}s"), blackout_script(s))),
    );
    let engine = CampaignEngine::new();
    let result = engine.run(&spec);

    let mut cells: Vec<CellResult> = Vec::new();
    for outcome in &result.outcomes {
        let metrics = outcome.metrics().clone();
        let env = outcome.cell().config.environment;
        let cc = outcome.cell().config.cc;
        // Recover the blackout length from the cell's own fault script.
        let (from, until) = outcome
            .cell()
            .fault
            .uplink
            .as_ref()
            .unwrap()
            .blackout_windows()[0];
        let outage_s = until.saturating_since(from).as_secs_f64();
        let o = metrics.outages[0];
        println!(
            "{:<6} {:<7} {:>7.1} {:>9.1} {:>8} {:>9} {:>9} {:>5} {:>5} {:>7} {:>7} {:>5} {:>9}",
            format!("{env:?}"),
            cc.name(),
            outage_s,
            o.baseline_bps / 1e6,
            fmt_opt_ms(o.time_to_first_frame()),
            fmt_opt_ms(o.time_to_half_rate_recovery()),
            fmt_opt_ms(o.time_to_rate_recovery()),
            metrics.plis_sent,
            metrics.forced_keyframes,
            metrics.watchdog_activations,
            metrics.watchdog_recoveries,
            metrics.jitter_inflations,
            if o.survived() { "yes" } else { "NO" }
        );
        cells.push(CellResult {
            env,
            cc_name: cc.name(),
            outage_s,
            metrics,
        });
    }

    // ---- Invariants --------------------------------------------------
    for cell in &cells {
        let label = format!("{:?}/{}/{}s", cell.env, cell.cc_name, cell.outage_s);
        let o = &cell.metrics.outages[0];
        assert!(
            cell.metrics.survived_all_outages(),
            "{label}: permanent stall — no frame displayed after the blackout"
        );
        assert!(
            cell.metrics.frames.iter().any(|f| f.displayed),
            "{label}: no frames displayed at all"
        );
        if cell.outage_s <= 5.0 {
            let ttff = o.time_to_first_frame().unwrap_or(SimDuration::MAX);
            assert!(
                ttff <= FIRST_FRAME_BAR,
                "{label}: first frame {} ms after blackout (bar {} ms)",
                ttff.as_millis(),
                FIRST_FRAME_BAR.as_millis()
            );
            let rate = o.time_to_half_rate_recovery().unwrap_or(SimDuration::MAX);
            assert!(
                rate <= RATE_BAR,
                "{label}: rate back to 50% of {:.1} Mbps only after {} ms (bar {} ms)",
                o.baseline_bps / 1e6,
                rate.as_millis(),
                RATE_BAR.as_millis()
            );
        }
    }

    // Monotone recovery ordering: within one (env, CC), a longer blackout
    // never finishes recovering (in absolute time) before a shorter one.
    for &env in envs {
        for cc in rpav_bench::paper_ccs(env) {
            let mut series: Vec<&CellResult> = cells
                .iter()
                .filter(|c| c.env == env && c.cc_name == cc.name())
                .collect();
            series.sort_by(|a, b| a.outage_s.total_cmp(&b.outage_s));
            for pair in series.windows(2) {
                let (a, b) = (
                    pair[0].metrics.outages[0].first_frame_after,
                    pair[1].metrics.outages[0].first_frame_after,
                );
                if let (Some(a), Some(b)) = (a, b) {
                    assert!(
                        a <= b,
                        "{:?}/{}: {}s outage recovered at {:.1}s but {}s outage at {:.1}s",
                        env,
                        cc.name(),
                        pair[0].outage_s,
                        a.as_secs_f64(),
                        pair[1].outage_s,
                        b.as_secs_f64()
                    );
                }
            }
        }
    }

    // Determinism spot-check on the first cell: the engine's parallel
    // result must equal the sequential reference.
    assert_replays_directly(&result.outcomes[0]);

    print_aggregates(&result.report.aggregates);
    println!("\nAll survival invariants hold ({} cells).", cells.len());
    println!("{}", result.report.summary());
}
